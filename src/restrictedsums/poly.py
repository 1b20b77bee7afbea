"""Sparse multivariate polynomials with exact scalars.

Coefficients are arbitrary-precision ints (the default for identity work),
Fractions or :class:`~restrictedsums.fields.FieldElement` values; reduction
mod p happens only when explicitly requested via :meth:`SparsePoly.reduce`.
Terms are kept in graded-lexicographic order so iteration and printing are
deterministic.

Products, of two factors or of a whole chain, are formed on numpy columns
(`_packed_product`).  Each exponent vector packs into one integer key, so
adding two keys multiplies two monomials; one encoder, `_keys`, packs the
factors and the target monomials alike.  The running product is a column
of keys sorted ascending beside a column of their scalars.  A step forms
the outer sum of the keys and the outer product of the scalars, groups
equal keys with one stable argsort and sums them with ``np.add.reduceat``,
and its product is settled once (zeros dropped, residues reduced mod p).
Keys and scalars are int64 where they provably fit and object columns of
exact Python values where they do not, so nothing ever wraps.  A settled
product is read two ways: `_product` unpacks it, and
`_product_coefficients` reads its degree and looks up targets by one
searchsorted.  `_expansion_oracles` serves `verify-coeff` and alone
decides which sums N share a product: a batch whose term pairs stay
within the guard sums only the pairs of its power sums and the
Vandermonde that land on a target; an N past the guard goes through
`_product_coefficients`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice, permutations
from math import comb, factorial, inf
import re

import numpy as np

from .errors import ArityMismatch, ExpansionTooLarge, FieldMismatch, HypothesisViolated
from .fields import FieldDescriptor, FieldElement

# Cap on term count for any single expansion; override per call.
DEFAULT_TERM_GUARD = 5_000_000

NEG_INF = -inf

# A chain step, and a batch of `_expansion_oracles`, multiplies the rows of
# its left factor in chunks of at most this many term pairs, so its
# temporaries stay small whatever its size.
_PAIR_BUDGET = 1 << 18

_WORD = 1 << 63  # int64 holds magnitudes below this


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


def _column(values) -> np.ndarray:
    """Scalars as an int64 column when each is an int of magnitude below
    2**63, else as an object column holding the values themselves."""
    if isinstance(values, np.ndarray) and values.dtype == np.int64:
        return values
    if set(map(type, values)) <= {int} and max(map(abs, values), default=0) < _WORD:
        return np.array(values, dtype=np.int64)
    column = np.empty(len(values), dtype=object)
    column[:] = values
    return column


def _shifts(nvars: int, width: int) -> list:
    """The offset of each variable's field in a packed key, x1 first."""
    return list(range((nvars - 1) * width, -1, -width))


def _matrix(rows, nvars: int, dtype) -> np.ndarray:
    """``rows``, a matrix or a sequence of exponent vectors of ``nvars``
    entries, as a ``dtype`` matrix; a sequence is read flat, in one pass."""
    if isinstance(rows, np.ndarray):
        return np.asarray(rows, dtype=dtype).reshape(len(rows), nvars)
    return np.fromiter(chain.from_iterable(rows), dtype, len(rows) * nvars).reshape(len(rows), nvars)


def _keys(rows, width: int, nvars: int) -> np.ndarray:
    """The packed key of each exponent vector in ``rows``, a sequence or a
    matrix: the degree, then each exponent in a ``width``-bit field, x1
    highest, so ascending keys are in ascending graded-lex order.  Exponents
    and degrees must be below 2**width.  Keys are int64 while
    (nvars + 1) * width < 63, so every key of every partial product stays
    below 2**62, else Python ints in an object column."""
    dtype = np.int64 if (nvars + 1) * width < 63 else object
    matrix = _matrix(rows, nvars, dtype)
    weights = np.array([1 << s for s in _shifts(nvars, width)], dtype=dtype)
    return (matrix.sum(axis=1) << (nvars * width)) + matrix @ weights


def _packed(p: "SparsePoly", width: int, field) -> tuple:
    """p's terms as a key column sorted ascending and a scalar column, with
    residues in place of GF(p) elements."""
    scalars = [c if field is None else c.value for c in reversed(p._terms.values())]
    return _keys(list(reversed(p._terms)), width, p.nvars), _column(scalars)


def _live(acc: tuple, field) -> tuple:
    """acc's terms whose scalars settle nonzero, residues reduced mod p."""
    keys, scalars = acc
    # residue columns are never negative, so an int64 one is reduced already
    # when p is past int64
    if field is not None and (scalars.dtype == object or field.p < _WORD):
        scalars = scalars % field.p
    if scalars.dtype == object:
        live = np.fromiter((not _is_zero_scalar(c) for c in scalars), bool, len(scalars))
    else:
        live = scalars != 0
    return keys[live], scalars[live]


def _summed(keys: np.ndarray, scalars: np.ndarray) -> tuple:
    """The terms with equal keys summed, sorted by key.  The sort is stable,
    so timsort merges the sorted runs it is handed: the result so far, and
    one run per row of a chunk, each along the longer of the step's two
    inputs.  The scalars are exact, so the order in which equal keys meet
    changes no sum."""
    if not len(keys):
        return keys, scalars
    order = np.argsort(keys, kind="stable")
    keys, scalars = keys[order], scalars[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return keys[starts], np.add.reduceat(scalars, starts)


def _step_scalars(left: np.ndarray, right: np.ndarray) -> tuple:
    """The two scalar columns of one step in the dtype it multiplies on:
    int64 when no sum it forms can reach 2**63 (each key sums at most
    min(len(left), len(right)) products), else object."""
    left, right = _column(left), _column(right)
    if left.dtype == right.dtype == np.int64 and len(left) and len(right):
        bound = int(np.abs(left).max()) * int(np.abs(right).max()) * min(len(left), len(right))
        if bound < _WORD:
            return left, right
    return left.astype(object), right.astype(object)


def _times(acc: tuple, right: tuple, max_terms: int) -> tuple:
    """One step of a chain: the settled terms of acc times right, summed by
    key.  Rows of acc go in chunks of at most `_PAIR_BUDGET` pairs, each
    merged into the sorted result so far; a result of more than
    ``max_terms`` keys, a count that only grows within a step, raises at
    once.  A chunk's pairs are laid out so that each row is one sorted run
    along the longer input, the chunk's rows of acc or right, so the sort
    merges a few long runs rather than many short ones."""
    keys, scalars = acc
    right_keys, right_scalars = right
    scalars, right_scalars = _step_scalars(scalars, right_scalars)
    out_keys, out_scalars = keys[:0], scalars[:0]
    rows = max(_PAIR_BUDGET // max(len(right_keys), 1), 1)
    for start in range(0, len(keys), rows):
        chunk = slice(start, start + rows)
        if len(right_keys) < len(keys[chunk]):
            pair_keys = keys[chunk] + right_keys[:, None]
            pair_scalars = scalars[chunk] * right_scalars[:, None]
        else:
            pair_keys = keys[chunk, None] + right_keys
            pair_scalars = scalars[chunk, None] * right_scalars
        out_keys, out_scalars = _summed(
            np.concatenate((out_keys, pair_keys.ravel())),
            np.concatenate((out_scalars, pair_scalars.ravel())),
        )
        if len(out_keys) > max_terms:
            raise ExpansionTooLarge(
                f"product exceeds {max_terms} terms ({len(keys)} x {len(right_keys)} inputs)"
            )
    return out_keys, out_scalars


def _unpacked(live: tuple, width: int, nvars: int, field) -> dict:
    """The settled terms ``live`` keyed by exponent vectors, in descending
    key order, with GF(p) residues wrapped as elements."""
    keys, scalars = live
    shifts = np.array(_shifts(nvars, width), dtype=keys.dtype)
    exps = ((keys[::-1, None] >> shifts) & ((1 << width) - 1)).tolist()
    values = scalars[::-1].tolist()
    if field is not None:
        values = [FieldElement(field, c) for c in values]
    return dict(zip(map(tuple, exps), values))


def _width(degree: int) -> int:
    """The key field width of a product of degree ``degree``."""
    return degree.bit_length() or 1


def _packed_product(factors, max_terms: int):
    """The product of ``factors``, left to right, on packed keys.

    Every factor is packed once by `_keys`, at a width that holds the sum
    of their degrees; that sum bounds every exponent, so adding two keys
    multiplies two monomials without a carry.  When every coefficient lies
    in one GF(p) the chain multiplies plain residues.

    The accumulator is two columns, keys sorted ascending and their
    scalars.  Each step multiplies it by the next factor: the outer sum of
    the keys and the outer product of the scalars, grouped by one stable
    argsort and summed by ``np.add.reduceat``.  A step multiplies on int64
    when no sum can pass 2**63, else on object columns of exact Python
    scalars (big ints, Fractions, field elements), so a chain may go over to
    object midway; one step serves every kind of scalar.  Each step holds,
    and guards, the terms a left fold of ``SparsePoly.mul`` would, and its
    product is settled once by `_live` (zeros dropped, residues reduced
    mod p).  Returns the settled product with its width and field; a packed
    factor is settled already.
    """
    first = factors[0]
    for other in factors[1:]:
        first._check_arity(other)
    width = _width(sum(max(f.degree, 0) for f in factors))
    field = _common_prime_field(*factors)
    acc = _packed(first, width, field)
    for other in factors[1:]:
        acc = _live(_times(acc, _packed(other, width, field), max_terms), field)
    return acc, width, field


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
        """Product of two polynomials, formed on packed exponent keys (see
        ``_packed_product``).  Raises ExpansionTooLarge when multiplying forms
        more than ``max_terms`` distinct monomials, counting those whose
        coefficients cancel, so the guard can trip on a product that ends
        up with fewer terms."""
        return _product([self, other], max_terms)

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
                raise FieldMismatch("evaluation point mixes fields")
        total = field.zero
        for exps, coeff in self._terms.items():
            term = coeff if isinstance(coeff, FieldElement) else field.element(coeff)
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


def _product(factors, max_terms: int = DEFAULT_TERM_GUARD) -> SparsePoly:
    """The product of ``factors``, left to right, unpacked once at the end."""
    acc, width, field = _packed_product(factors, max_terms)
    nvars = factors[0].nvars
    return SparsePoly._trusted(nvars, _unpacked(acc, width, nvars, field))


def _packed_targets(targets, width: int, nvars: int, dtype) -> np.ndarray:
    """`_keys` of the exponent vectors in ``targets``, a sequence or a
    matrix checked as one, and -1 for those of degree 2**width or more.  An
    int64 matrix is read as it is when the keys are int64, as no row of
    exponents below 2**width then wraps; anything else as Python ints."""
    if dtype != np.int64 or not (isinstance(targets, np.ndarray) and targets.dtype == np.int64):
        targets = np.array(targets, dtype=object)
    if targets.ndim != 2 or targets.shape[1] != nvars:
        raise ArityMismatch(f"targets of shape {targets.shape}, expected rows of length {nvars}")
    if (targets < 0).any():
        raise ValueError(f"exponents must be nonnegative integers, got {targets.min()}")
    past = (targets >> width != 0).any(axis=1) | (targets.sum(axis=1) >> width != 0)
    return np.where(past, -1, _keys(np.where(past[:, None], 0, targets), width, nvars))


def _product_coefficients(factors, targets, max_terms: int = DEFAULT_TERM_GUARD) -> tuple:
    """``(P.degree, [P.coefficient_of(t) for t in targets])`` for P =
    ``_product(factors)``, read off the settled packed product: the degree
    field of the highest key (-inf for none), and one searchsorted for the
    targets.  A target of degree 2**width or more is above the product's
    degree and may not fit the fields, so its key could alias another
    monomial's; it reads 0."""
    (keys, scalars), width, field = _packed_product(factors, max_terms)
    nvars = factors[0].nvars
    packed = _packed_targets(targets, width, nvars, keys.dtype)
    if not len(keys):
        return NEG_INF, [0] * len(packed)
    at = np.minimum(np.searchsorted(keys, packed), len(keys) - 1)
    found = (keys[at] == packed).tolist()
    return int(keys[-1]) >> (nvars * width), [
        (c if field is None else FieldElement(field, c)) if hit else 0
        for c, hit in zip(scalars[at].tolist(), found)
    ]


def _expansion_oracles(n: int, k: int, sums, vdm: SparsePoly, max_terms: int) -> list:
    """For each (N, compositions) in ``sums``, ascending sums with their
    compositions into n parts in `_compositions` order: the coefficients
    of (x1^k + ... + xn^k)^N * ``vdm``, the Vandermonde, at
    k*q + (0, 1, ..., n - 1) for each q, as `_product_coefficients` reads
    them, or None where that product trips ``max_terms``.

    Consecutive N form one batch while their term pairs, power terms times
    Vandermonde terms, number at most ``max_terms``; such a batch cannot
    trip, as it forms no more distinct monomials than pairs.  Its
    `_multinomial_terms`, each of degree k*N, are packed as one column at
    the width of the largest N, so no two N share a key.  Every pair is
    formed, in `_PAIR_BUDGET` chunks; one searchsorted finds the target
    each lands on, and those that land are added into its total, on int64
    where `_step_scalars` allows it.  An N whose own pairs pass
    ``max_terms`` goes alone through `_product_coefficients`."""
    terms = vdm.term_count()
    batches = []  # [pairs, sums] of each batch
    for N, compositions in sums:
        pairs = len(compositions) * terms
        if not batches or batches[-1][0] + pairs > max_terms:
            batches.append([0, []])
        batches[-1][0] += pairs
        batches[-1][1].append((N, compositions))
    oracles = []
    for pairs, batch in batches:
        if pairs > max_terms:
            ((N, compositions),) = batch
            try:
                exps, coefficients = _multinomial_terms(n, k, N, compositions, max_terms)
                power = _multinomial_poly(n, exps, coefficients)
                oracles.append(_product_coefficients([power, vdm], exps + np.arange(n), max_terms)[1])
            except ExpansionTooLarge:
                oracles.append(None)
            continue
        width = _width(k * batch[-1][0] + vdm.degree)
        columns = [_multinomial_terms(n, k, N, compositions, max_terms) for N, compositions in batch]
        keys = _keys(np.concatenate([exps for exps, _ in columns]), width, n)
        vdm_keys, vdm_scalars = _packed(vdm, width, None)
        scalars, vdm_scalars = _step_scalars(np.concatenate([c for _, c in columns]), vdm_scalars)
        targets = keys + _keys([range(n)], width, n)
        totals = np.zeros(len(targets), dtype=scalars.dtype)
        rows = max(_PAIR_BUDGET // len(vdm_keys), 1)
        for start in range(0, len(keys), rows):
            chunk = slice(start, start + rows)
            pair_keys = (keys[chunk, None] + vdm_keys).ravel()
            at = np.minimum(np.searchsorted(targets, pair_keys), len(targets) - 1)
            hit = targets[at] == pair_keys
            pair_scalars = (scalars[chunk, None] * vdm_scalars).ravel()
            np.add.at(totals, at[hit], pair_scalars[hit])
        values = iter(totals.tolist())
        oracles += [list(islice(values, len(compositions))) for _N, compositions in batch]
    return oracles


# ---------- classical constructions ----------


def vandermonde(n: int, max_terms: int = DEFAULT_TERM_GUARD) -> SparsePoly:
    """prod_{1 <= i < j <= n} (xj - xi); the empty product 1 for n == 1.

    Two routes give one result.  The guard bounds the monomials that each
    step of the chain of pair factors, headed by the constant 1, forms,
    and each two-term factor at most doubles them.  So when 2**C(n, 2) <=
    ``max_terms`` no step can trip, and the polynomial is written down as
    the determinant of (x_i^(j-1)): one term sgn(s) * prod_i x_i^s(i) per
    permutation s of 0..n-1, which spares the chain's numpy steps, each a
    fixed cost on a tiny factor.  Otherwise the chain is multiplied, and
    trips at the step that forms too many monomials, with its message."""
    if type(n) is not int or n < 1:
        raise ValueError(f"vandermonde needs an integer n >= 1, got {n!r}")
    if 1 << comb(n, 2) <= max_terms:
        # descending lex order of the exponent vectors is descending graded-lex
        # order, as every term has degree C(n, 2)
        terms = {}
        for s in reversed(list(permutations(range(n)))):
            inversions = sum(a > b for i, a in enumerate(s) for b in s[i + 1 :])
            terms[s] = -1 if inversions & 1 else 1
        return SparsePoly._trusted(n, terms)
    factors = [SparsePoly.constant(n, 1)]
    for j in range(2, n + 1):
        for i in range(1, j):
            factors.append(SparsePoly.variable(n, j) - SparsePoly.variable(n, i))
    return _product(factors, max_terms)


def _compositions(total: int, parts: int):
    """All tuples of ``parts`` nonnegative ints summing to ``total``, in
    lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def _multinomial_terms(n: int, k: int, N: int, compositions, max_terms: int) -> tuple:
    """The terms of (x1^k + ... + xn^k) ** N by direct multinomial
    generation, with the term guard checked first: an exponent matrix
    with one row k*q per composition q of N into n parts, in
    lexicographic order, so ascending graded-lex order, and a column of the
    exact coefficients N!/prod q_i!.  The matrix is int64 when k*N fits,
    and the column when N! does, as every factorial it divides by is at
    most N!; else they hold Python ints.
    ``compositions`` are those of N into n parts in `_compositions` order,
    from a caller that holds them; None lists them here."""
    if comb(N + n - 1, n - 1) > max_terms:
        raise ExpansionTooLarge(f"(power sum)^{N} in {n} variables exceeds {max_terms} terms")
    if compositions is None:
        compositions = list(_compositions(N, n))
    parts = _matrix(compositions, n, np.int64)
    factorials = [factorial(i) for i in range(N + 1)]
    table = np.array(factorials, dtype=np.int64 if factorials[-1] < _WORD else object)
    exps = k * (parts if k * N < _WORD else parts.astype(object))
    return exps, table[N] // table[parts].prod(axis=1)


def _multinomial_poly(n: int, exps, coefficients) -> SparsePoly:
    """`_multinomial_terms` wrapped as they are: all of degree k*N, their
    rows reversed are in descending graded-lex order."""
    terms = zip(zip(*exps[::-1].T.tolist()), coefficients[::-1].tolist())
    return SparsePoly._trusted(n, dict(terms))


def power_sum_pow(
    n: int,
    k: int,
    N: int,
    method: str = "multinomial",
    max_terms: int = DEFAULT_TERM_GUARD,
) -> SparsePoly:
    """(x1^k + ... + xn^k) ** N, by direct multinomial generation or by
    repeated squaring of the expanded power sum.  The two methods must agree;
    tests rely on that as a cross-check."""
    if any(type(v) is not int for v in (n, k, N)) or n < 1 or k < 1 or N < 0:
        raise ValueError(f"need integers n >= 1, k >= 1, N >= 0; got n={n!r}, k={k!r}, N={N!r}")
    if method == "multinomial":
        return _multinomial_poly(n, *_multinomial_terms(n, k, N, None, max_terms))
    if method == "pow":
        base = SparsePoly(n, {tuple(k if i == j else 0 for i in range(n)): 1 for j in range(n)})
        return base.pow(N, max_terms=max_terms)
    raise ValueError(f"unknown method {method!r}")


@dataclass(frozen=True)
class PowerSumForm:
    """f = a1*x1^k + ... + an*xn^k + tail, with deg(tail) < k.

    ``leading`` holds the nonzero coefficients a1..an as plain numbers: ints,
    or Fractions for a form over Q.  Whether they stay nonzero in a given
    field is checked once, against the family, by `_field_form`, which maps
    the form into the field for every route.  ``tail`` is a SparsePoly in
    the same n variables.
    """

    k: int
    leading: tuple
    tail: SparsePoly

    def __post_init__(self):
        if not isinstance(self.k, int) or isinstance(self.k, bool) or self.k < 1:
            raise HypothesisViolated(f"k must be an integer >= 1, got {self.k!r}")
        object.__setattr__(self, "leading", tuple(self.leading))
        if not self.leading:
            raise HypothesisViolated("need at least one variable")
        for i, a in enumerate(self.leading, start=1):
            if not isinstance(a, (int, Fraction)) or isinstance(a, bool) or a == 0:
                raise HypothesisViolated(
                    f"leading coefficient a{i} must be a nonzero int or Fraction, got {a!r}"
                )
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
        """f at a point of one field, by `FieldForm.eval`."""
        point = tuple(point)
        return _field_form(point[0].field, len(point), self).eval(point)


def _field_leading(field: FieldDescriptor, n: int, leading) -> tuple:
    """The leading coefficients a_1..a_n of a form as nonzero elements of
    ``field``, one per set of a family of n sets; anything else is refused."""
    if len(leading) != n:
        raise ArityMismatch(f"form has {len(leading)} variables, family has {n} sets")
    lead = []
    for i, a in enumerate(leading, start=1):
        try:
            lead.append(field.element(a))
        except (ValueError, TypeError) as exc:
            raise HypothesisViolated(f"leading coefficient a{i} = {a!r} is not in {field}") from exc
        if lead[-1].is_zero:
            raise HypothesisViolated(f"leading coefficient a{i} = {a!r} vanishes in {field}")
    return tuple(lead)


@dataclass(frozen=True)
class FieldForm:
    """A `PowerSumForm` mapped into one field by `_field_form`: ``leading``
    holds a_1..a_n as nonzero elements of ``field``, ``tail`` the tail over
    ``field`` with its vanishing terms dropped.  Every route reads a form as
    this, and `eval` is the one exact evaluator."""

    field: FieldDescriptor
    k: int
    leading: tuple
    tail: SparsePoly

    @property
    def n(self) -> int:
        return len(self.leading)

    def eval(self, point) -> FieldElement:
        """f at a point of ``field``, in exact element arithmetic."""
        total = sum((a * x**self.k for a, x in zip(self.leading, point)), self.field.zero)
        return total if self.tail.is_zero else total + self.tail.eval(point)


def _field_form(field: FieldDescriptor, n: int, f: PowerSumForm) -> FieldForm:
    """f mapped into ``field``, the one check of a form against a field and a
    family of n sets: `_field_leading`, and every tail coefficient must be
    an element of ``field`` (a fraction is none of GF(p))."""
    lead = _field_leading(field, n, f.leading)
    tail = {}
    for e, c in f.tail.terms():
        try:
            c = field.element(c)
        except (ValueError, TypeError) as exc:
            raise HypothesisViolated(f"tail coefficient {c} is not in {field}") from exc
        if not c.is_zero:
            tail[e] = c
    return FieldForm(field, f.k, lead, SparsePoly._trusted(n, tail))


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
