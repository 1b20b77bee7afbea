"""Certified coefficient extraction with exhaustive witness search.

The underlying principle: if deg P = k1 + ... + kn, the coefficient of
x1^k1 * ... * xn^kn in P is nonzero, and |Ai| > ki for finite sets Ai, then
P has a nonvanishing point on A1 x ... x An.  The principle itself is taken
as an axiom; :func:`certify` checks its hypotheses exactly, extracts the
coefficient over the field, and, when it is nonzero, finds the promised
point by exhaustive search.  A completed search that finds nothing is
reported as a broken invariant, never swallowed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import ArityMismatch, HypothesisViolated, InternalInvariantBroken
from .enumeration import DEFAULT_TUPLE_GUARD, SetFamily, _check_tuple_guard
from .fields import FieldElement
from .poly import SparsePoly


@dataclass(frozen=True)
class NullstellensatzInstance:
    """A polynomial, a target monomial, and a family to search over."""

    poly: SparsePoly
    degrees: tuple
    family: SetFamily

    def __post_init__(self):
        object.__setattr__(self, "degrees", tuple(self.degrees))
        if self.poly.nvars != self.family.n or len(self.degrees) != self.family.n:
            raise ArityMismatch(
                f"poly has {self.poly.nvars} vars, {len(self.degrees)} degrees, "
                f"{self.family.n} sets"
            )
        for d in self.degrees:
            if not isinstance(d, int) or isinstance(d, bool) or d < 0:
                raise ArityMismatch(f"degrees must be nonnegative integers: {self.degrees}")


@dataclass(frozen=True)
class NullstellensatzCertificate:
    coefficient: FieldElement
    witness: tuple | None
    witness_value: FieldElement | None

    @property
    def nonzero(self) -> bool:
        return not self.coefficient.is_zero

    def to_json_dict(self) -> dict:
        # `_certified` searches exactly when the coefficient is nonzero, and
        # raises when a search finds nothing
        return {
            "coefficient": str(self.coefficient.value),
            "nonzero": self.nonzero,
            "witness": None if self.witness is None else [str(x.value) for x in self.witness],
            "witness_value": None if self.witness_value is None else str(self.witness_value.value),
            "searched": self.nonzero,
        }


def certify(
    instance: NullstellensatzInstance,
    guard_tuples: int = DEFAULT_TUPLE_GUARD,
) -> NullstellensatzCertificate:
    """Check hypotheses, extract the target coefficient, and search for a
    nonvanishing point when it is nonzero, evaluating the polynomial at the
    points of the grid in product order."""
    P = instance.poly.reduce(instance.family.field)
    return _certified(
        P.degree,
        P.coefficient_of(instance.degrees),
        instance.degrees,
        instance.family,
        guard_tuples,
        lambda: _first_nonzero(product(*instance.family.sets), P.eval),
    )


def _first_nonzero(points, evaluate):
    """The first of ``points`` where ``evaluate`` is nonzero, with that
    value, or None when it vanishes at all of them."""
    for point in points:
        value = evaluate(point)
        if not value.is_zero:
            return point, value
    return None


def _certified(degree, coefficient, degrees, family, guard_tuples, search):
    """The checks and the search of :func:`certify`, given the polynomial's
    degree and its coefficient at ``degrees`` over the family's field (an
    int 0 when the monomial is absent) and ``search()``, which returns the
    first point of the family's grid in product order where the polynomial
    is nonzero, with its value, or None."""
    field = family.field
    total = sum(degrees)
    if degree != total:
        raise HypothesisViolated(f"deg P = {degree} over {field}, but degrees sum to {total}")
    for i, (d, size) in enumerate(zip(degrees, family.sizes), start=1):
        if d >= size:
            raise HypothesisViolated(f"need degree {d} < |A{i}| = {size}")
    if isinstance(coefficient, int):
        coefficient = field.embed(coefficient)
    if coefficient.is_zero:
        return NullstellensatzCertificate(coefficient, None, None)
    _check_tuple_guard(family.sizes, guard_tuples)
    found = search()
    if found is None:
        raise InternalInvariantBroken(
            "nonzero coefficient but no witness on the whole grid; "
            f"degrees={degrees}, sizes={family.sizes}"
        )
    return NullstellensatzCertificate(coefficient, *found)
