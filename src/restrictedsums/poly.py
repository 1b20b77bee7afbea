"""Sparse multivariate polynomials with exact scalars.

Coefficients are arbitrary-precision ints (the default for identity work) or
:class:`~restrictedsums.fields.FieldElement` values; reduction mod p happens
only when explicitly requested via :meth:`SparsePoly.reduce`.  Terms are kept
in graded-lexicographic order so iteration and printing are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, inf
import re

from .errors import ArityMismatch, ExpansionTooLarge, HypothesisViolated
from .fields import FieldDescriptor, FieldElement

# Cap on term count for any single expansion; override per call.
DEFAULT_TERM_GUARD = 5_000_000

NEG_INF = -inf


def _is_zero_scalar(c) -> bool:
    if isinstance(c, FieldElement):
        return c.is_zero
    return c == 0


def _grlex_key(exps):
    return (sum(exps), exps)


def _check_exponents(nvars, exps):
    if len(exps) != nvars:
        raise ArityMismatch(f"exponent vector {exps} has length {len(exps)}, expected {nvars}")
    for e in exps:
        if not isinstance(e, int) or isinstance(e, bool) or e < 0:
            raise ValueError(f"exponents must be nonnegative integers, got {exps}")


def _common_prime_field(*polys) -> FieldDescriptor | None:
    """The GF(p) holding every coefficient of every poly, or None."""
    field = None
    for poly in polys:
        for c in poly._terms.values():
            if not isinstance(c, FieldElement) or c.field.p is None:
                return None
            if field is None:
                field = c.field
            elif c.field is not field and c.field != field:
                return None
    return field


def _packed(p: "SparsePoly", width: int, field) -> list:
    """p's terms as (key, scalar) pairs: the total degree, then each exponent
    in its own ``width``-bit field; residues in place of GF(p) elements."""
    out = []
    for exps, c in p._terms.items():
        key = sum(exps)
        for e in exps:
            key = (key << width) | e
        out.append((key, c if field is None else c.value))
    return out


def _unpacked(acc: dict, width: int, nvars: int, field) -> dict:
    """acc's nonzero terms keyed by exponent vectors, in descending key
    order; acc is emptied on the way, so it is freed as the result grows."""
    mask = (1 << width) - 1
    shifts = range((nvars - 1) * width, -1, -width)
    p = None if field is None else field.p
    terms = {}
    order = sorted(acc)
    while order:
        key = order.pop()
        c = acc.pop(key)
        if p is not None:
            c %= p
        if not _is_zero_scalar(c):
            exps = tuple([(key >> s) & mask for s in shifts])
            terms[exps] = c if p is None else FieldElement(field, c)
    return terms


class SparsePoly:
    """Immutable sparse polynomial in variables x1..xn.

    Example:
        >>> x1 = SparsePoly.variable(2, 1)
        >>> x2 = SparsePoly.variable(2, 2)
        >>> ((x1 + x2) ** 2).coefficient_of((1, 1))
        2
    """

    __slots__ = ("nvars", "_terms")

    def __init__(self, nvars: int, terms=None):
        if not isinstance(nvars, int) or isinstance(nvars, bool) or nvars < 0:
            raise ValueError(f"nvars must be a nonnegative integer, got {nvars!r}")
        object.__setattr__(self, "nvars", nvars)
        cleaned = {}
        if terms:
            for exps, coeff in dict(terms).items():
                exps = tuple(exps)
                _check_exponents(nvars, exps)
                if not _is_zero_scalar(coeff):
                    cleaned[exps] = coeff
        # store in descending graded-lex order so iteration is deterministic
        ordered = {e: cleaned[e] for e in sorted(cleaned, key=_grlex_key, reverse=True)}
        object.__setattr__(self, "_terms", ordered)

    def __setattr__(self, name, _value):
        raise AttributeError(f"SparsePoly is immutable (tried to set {name})")

    @classmethod
    def _trusted(cls, nvars: int, terms: dict) -> "SparsePoly":
        """Wrap ``terms`` as it is: nonzero coefficients keyed by exponent
        vectors of validated polynomials, in descending graded-lex order.
        Outside input goes through ``SparsePoly(...)``, which checks, prunes
        and sorts."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "nvars", nvars)
        object.__setattr__(poly, "_terms", terms)
        return poly

    # ---------- constructors ----------

    @classmethod
    def zero(cls, nvars: int) -> "SparsePoly":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, c) -> "SparsePoly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "SparsePoly":
        """The variable x<index>, 1-based."""
        if not 1 <= index <= nvars:
            raise ArityMismatch(f"variable index {index} out of range 1..{nvars}")
        exps = tuple(1 if i == index - 1 else 0 for i in range(nvars))
        return cls(nvars, {exps: 1})

    @classmethod
    def monomial(cls, nvars: int, exps, coeff=1) -> "SparsePoly":
        return cls(nvars, {tuple(exps): coeff})

    # ---------- inspection ----------

    def terms(self):
        """Yield (exponents, coefficient) pairs in descending graded-lex order."""
        return iter(self._terms.items())

    def term_count(self) -> int:
        return len(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def degree(self):
        """Total degree; -inf for the zero polynomial."""
        if not self._terms:
            return NEG_INF
        return sum(next(iter(self._terms)))

    def coefficient_of(self, exps):
        exps = tuple(exps)
        _check_exponents(self.nvars, exps)
        return self._terms.get(exps, 0)

    # ---------- ring operations ----------

    def _map_coefficients(self, fn) -> "SparsePoly":
        """fn applied to every coefficient; the order stays, zeros go."""
        terms = {}
        for e, c in self._terms.items():
            c = fn(c)
            if not _is_zero_scalar(c):
                terms[e] = c
        return SparsePoly._trusted(self.nvars, terms)

    def _check_arity(self, other: "SparsePoly"):
        if self.nvars != other.nvars:
            raise ArityMismatch(f"arity mismatch: {self.nvars} vs {other.nvars}")

    def __add__(self, other):
        if isinstance(other, (int, FieldElement)):
            other = SparsePoly.constant(self.nvars, other)
        if not isinstance(other, SparsePoly):
            return NotImplemented
        self._check_arity(other)
        acc = dict(self._terms)
        for e, c in other._terms.items():
            acc[e] = acc[e] + c if e in acc else c
        return SparsePoly(self.nvars, acc)

    __radd__ = __add__

    def __neg__(self):
        return self._map_coefficients(lambda c: -c)

    def __sub__(self, other):
        if isinstance(other, (int, FieldElement)):
            other = SparsePoly.constant(self.nvars, other)
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def mul(self, other: "SparsePoly", max_terms: int = DEFAULT_TERM_GUARD) -> "SparsePoly":
        """Product of two polynomials, formed on packed exponent keys.

        Each exponent vector packs into one int: its total degree in the top
        bits, then one ``width``-bit field per variable, x1 highest.  A field
        holds the product's total degree, which bounds every exponent in it,
        so adding two keys multiplies two monomials without a carry, and
        descending key order is descending graded-lex order.  When every
        coefficient of both factors lies in one GF(p), the loop multiplies
        plain residues and reduces once per output term; any other scalars
        go through the same loop as they are.  Raises ExpansionTooLarge when
        the product has more than ``max_terms`` distinct monomials, counting
        those whose coefficients cancel.
        """
        self._check_arity(other)
        if self.is_zero or other.is_zero:
            return SparsePoly.zero(self.nvars)
        width = (self.degree + other.degree).bit_length() or 1
        field = _common_prime_field(self, other)
        left = _packed(self, width, field)
        right = _packed(other, width, field)
        acc = {}
        for k1, c1 in left:
            for k2, c2 in right:
                k = k1 + k2
                if k in acc:
                    acc[k] += c1 * c2
                else:
                    acc[k] = c1 * c2
            if len(acc) > max_terms:
                raise ExpansionTooLarge(
                    f"product exceeds {max_terms} terms "
                    f"({self.term_count()} x {other.term_count()} inputs)"
                )
        return SparsePoly._trusted(self.nvars, _unpacked(acc, width, self.nvars, field))

    def __mul__(self, other):
        if isinstance(other, (int, FieldElement)):
            return self._map_coefficients(lambda c: c * other)
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self.mul(other)

    def __rmul__(self, other):
        if isinstance(other, (int, FieldElement)):
            return self._map_coefficients(lambda c: other * c)
        return NotImplemented

    def pow(self, exponent: int, max_terms: int = DEFAULT_TERM_GUARD) -> "SparsePoly":
        """Binary powering; p ** 0 == 1 by convention, including for p == 0."""
        if not isinstance(exponent, int) or isinstance(exponent, bool) or exponent < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {exponent!r}")
        result = SparsePoly.constant(self.nvars, 1)
        base = self
        e = exponent
        while e > 0:
            if e & 1:
                result = result.mul(base, max_terms=max_terms)
            e >>= 1
            if e:
                base = base.mul(base, max_terms=max_terms)
        return result

    def __pow__(self, exponent: int):
        return self.pow(exponent)

    # ---------- semantics ----------

    def eval(self, point) -> FieldElement:
        """Evaluate at a tuple of FieldElements from one common field."""
        point = tuple(point)
        if len(point) != self.nvars:
            raise ArityMismatch(f"point of length {len(point)}, expected {self.nvars}")
        if not point:
            raise ArityMismatch("cannot infer a field for a 0-variable evaluation")
        field = point[0].field
        for x in point:
            if x.field != field:
                from .errors import FieldMismatch

                raise FieldMismatch("evaluation point mixes fields")
        total = field.zero
        for exps, coeff in self._terms.items():
            term = field.embed(coeff) if isinstance(coeff, int) else coeff
            if isinstance(term, Fraction):
                term = field.element(term)
            for x, e in zip(point, exps):
                if e:
                    term = term * x**e
            total = total + term
        return total

    def reduce(self, field: FieldDescriptor) -> "SparsePoly":
        """Map coefficients into the field and prune anything that dies; a
        polynomial already over that GF(p) is returned as it is, since no
        coefficient of it can change or vanish."""
        if _common_prime_field(self) == field:
            return self
        return self._map_coefficients(field.element)

    def __eq__(self, other):
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self.nvars == other.nvars and self._terms == other._terms

    def __repr__(self):
        return format_poly(self)


# ---------- classical constructions ----------


def vandermonde(n: int, max_terms: int = DEFAULT_TERM_GUARD) -> SparsePoly:
    """prod_{1 <= i < j <= n} (xj - xi); the empty product 1 for n == 1."""
    if n < 1:
        raise ValueError(f"vandermonde needs n >= 1, got {n}")
    result = SparsePoly.constant(n, 1)
    for j in range(2, n + 1):
        for i in range(1, j):
            factor = SparsePoly.variable(n, j) - SparsePoly.variable(n, i)
            result = result.mul(factor, max_terms=max_terms)
    return result


def _compositions(total: int, parts: int):
    """All tuples of ``parts`` nonnegative ints summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def power_sum_pow(
    n: int,
    k: int,
    N: int,
    method: str = "multinomial",
    max_terms: int = DEFAULT_TERM_GUARD,
) -> SparsePoly:
    """(x1^k + ... + xn^k) ** N, by direct multinomial generation or by
    repeated squaring of the expanded power sum.  The two methods must agree;
    tests rely on that as a cross-check.
    """
    if n < 1 or k < 1 or N < 0:
        raise ValueError(f"need n >= 1, k >= 1, N >= 0; got n={n}, k={k}, N={N}")
    if method == "multinomial":
        if comb(N + n - 1, n - 1) > max_terms:
            raise ExpansionTooLarge(f"(power sum)^{N} in {n} variables exceeds {max_terms} terms")
        terms = {}
        fN = factorial(N)
        for parts in _compositions(N, n):
            coeff = fN
            for i in parts:
                coeff //= factorial(i)
            terms[tuple(k * i for i in parts)] = coeff
        return SparsePoly(n, terms)
    if method == "pow":
        base = SparsePoly(n, {tuple(k if i == j else 0 for i in range(n)): 1 for j in range(n)})
        return base.pow(N, max_terms=max_terms)
    raise ValueError(f"unknown method {method!r}")


@dataclass(frozen=True)
class PowerSumForm:
    """f = a1*x1^k + ... + an*xn^k + tail, with deg(tail) < k.

    ``leading`` holds the nonzero coefficients a1..an (ints or elements of a
    common field); ``tail`` is a SparsePoly in the same n variables.
    """

    k: int
    leading: tuple
    tail: SparsePoly

    def __post_init__(self):
        if self.k < 1:
            raise HypothesisViolated(f"k must be >= 1, got {self.k}")
        object.__setattr__(self, "leading", tuple(self.leading))
        if not self.leading:
            raise HypothesisViolated("need at least one variable")
        for i, a in enumerate(self.leading, start=1):
            if _is_zero_scalar(a):
                raise HypothesisViolated(f"leading coefficient a{i} must be nonzero")
        if self.tail.nvars != len(self.leading):
            raise ArityMismatch(
                f"tail has {self.tail.nvars} variables, leading part has {len(self.leading)}"
            )
        if self.tail.degree >= self.k:
            raise HypothesisViolated(
                f"tail degree {self.tail.degree} must be < k = {self.k}"
            )

    @property
    def n(self) -> int:
        return len(self.leading)

    @classmethod
    def unit(cls, n: int, k: int, tail: SparsePoly | None = None) -> "PowerSumForm":
        """x1^k + ... + xn^k + tail (all leading coefficients 1)."""
        return cls(k, (1,) * n, tail if tail is not None else SparsePoly.zero(n))

    @property
    def has_unit_leading(self) -> bool:
        return all(
            (a == 1 if isinstance(a, int) else a == a.field.one) for a in self.leading
        )

    def expand(self) -> SparsePoly:
        p = SparsePoly(
            self.n,
            {
                tuple(self.k if i == j else 0 for i in range(self.n)): a
                for j, a in enumerate(self.leading)
            },
        )
        return p + self.tail

    def eval(self, point) -> FieldElement:
        point = tuple(point)
        if len(point) != self.n:
            raise ArityMismatch(f"point of length {len(point)}, expected {self.n}")
        field = point[0].field
        total = field.zero
        for a, x in zip(self.leading, point):
            total = total + (x**self.k) * a
        if not self.tail.is_zero:
            total = total + self.tail.eval(point)
        return total


# ---------- text grammar ----------
#
# <poly>   := <term> (('+'|'-') <term>)*
# <term>   := <int>? ('*'? <factor>)*      e.g. 3*x1^2*x3, -x2, 7
# <factor> := x<idx> ('^' <int>)?
# Integer coefficients, whitespace-insensitive; round-trips with format_poly.

_FACTOR_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")


def parse_poly(text: str, nvars: int | None = None) -> SparsePoly:
    """Parse the human-readable polynomial grammar into a SparsePoly."""
    if not isinstance(text, str):
        raise TypeError(f"polynomial text expected, got {text!r}")
    compact = text.replace(" ", "").replace("\t", "")
    if not compact:
        raise ValueError("empty polynomial text")
    # split into signed chunks
    chunks = re.findall(r"[+-]?[^+-]+", compact)
    if "".join(chunks) != compact:
        raise ValueError(f"cannot tokenize polynomial text: {text!r}")
    parsed = []  # (coeff, {var_index: exponent})
    max_index = 0
    for chunk in chunks:
        sign = 1
        body = chunk
        if body[0] in "+-":
            sign = -1 if body[0] == "-" else 1
            body = body[1:]
        if not body:
            raise ValueError(f"dangling sign in {text!r}")
        coeff = sign
        powers: dict[int, int] = {}
        for factor in body.split("*"):
            if not factor:
                raise ValueError(f"empty factor in term {chunk!r} of {text!r}")
            if factor.isdigit():
                coeff *= int(factor)
                continue
            m = _FACTOR_RE.match(factor)
            if m is None:
                raise ValueError(f"bad factor {factor!r} in {text!r}")
            idx = int(m.group(1))
            if idx < 1:
                raise ValueError(f"variable index must be >= 1 in {factor!r}")
            exp = int(m.group(2)) if m.group(2) else 1
            powers[idx] = powers.get(idx, 0) + exp
            max_index = max(max_index, idx)
        parsed.append((coeff, powers))
    if nvars is None:
        nvars = max_index
    if max_index > nvars:
        raise ArityMismatch(f"text uses x{max_index} but nvars={nvars}")
    terms: dict[tuple, int] = {}
    for coeff, powers in parsed:
        exps = tuple(powers.get(i, 0) for i in range(1, nvars + 1))
        terms[exps] = terms.get(exps, 0) + coeff
    return SparsePoly(nvars, terms)


def format_poly(p: SparsePoly) -> str:
    """Deterministic printer; inverse of parse_poly for integer coefficients."""
    if p.is_zero:
        return "0"
    pieces = []
    for exps, coeff in p.terms():
        factors = [
            f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}" for i, e in enumerate(exps) if e > 0
        ]
        c = coeff.value if isinstance(coeff, FieldElement) else coeff
        negative = (isinstance(c, (int, Fraction)) and c < 0)
        mag = -c if negative else c
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not pieces:
            pieces.append(f"-{body}" if negative else body)
        else:
            pieces.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(pieces)
