"""Exception taxonomy shared across the package.

Every guard and hypothesis check raises one of these so callers can tell an
invalid input apart from a broken internal invariant.
"""


class RestrictedSumsError(Exception):
    """Base class for all package errors."""


class NotPrime(RestrictedSumsError):
    """A prime field was requested with a non-prime modulus."""


class DivisionByZero(RestrictedSumsError):
    """Division by the zero element of a field."""


class FieldMismatch(RestrictedSumsError):
    """Two elements (or an element and a structure) from different fields."""


class ArityMismatch(RestrictedSumsError):
    """Polynomial arity does not match the operand or evaluation point."""


class ExpansionTooLarge(RestrictedSumsError):
    """A polynomial expansion would exceed the configured term cap."""


class HypothesisViolated(RestrictedSumsError):
    """Input fails a stated hypothesis of the bound or construction."""


class InternalInvariantBroken(RestrictedSumsError):
    """An identity the implementation relies on failed; this is a bug or a
    counterexample and must be surfaced, never swallowed."""


class NotInvariant(RestrictedSumsError):
    """The subset is not closed under the permutation."""


class SearchSpaceTooLarge(RestrictedSumsError):
    """An enumeration would exceed the configured tuple guard."""


class Infeasible(RestrictedSumsError):
    """The requested combinatorial profile admits no valid selection."""


class ConfigError(RestrictedSumsError):
    """Malformed or unknown experiment configuration."""
