"""The product/factorial closed form for a distinguished coefficient, and a
replayable construction of the lower-bound argument built on it.

The identity at the core: for q1..qn >= 0 with N = q1 + ... + qn and
1 <= k <= n, the coefficient of

    x1^(k*q1 + 0) * x2^(k*q2 + 1) * ... * xn^(k*qn + n-1)

in (x1^k + ... + xn^k)^N * prod_{i<j} (xj - xi) equals

    N! * prod_{s=1}^{k} [ prod_{0<=i<j} (c_j - c_i)  /  prod_j c_j! ]

where, within the class of positions congruent to s mod k, the shifted
entries are c_j = q_{jk+s} + j (positions read 1-based).  Everything here is
exact integer arithmetic; the expansion oracle is the independent route the
closed form is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial

from .bounds import floor_minima
from .enumeration import DEFAULT_TUPLE_GUARD, SetFamily
from .errors import ExpansionTooLarge, HypothesisViolated, InternalInvariantBroken, SearchSpaceTooLarge
from .fields import FieldElement
from .nullstellensatz import NullstellensatzCertificate, _certified
from .poly import (
    DEFAULT_TERM_GUARD,
    FieldForm,
    PowerSumForm,
    SparsePoly,
    _box_coefficient,
    _compositions,
    _expansion_oracles,
    _field_form,
    _product_coefficients,
    power_sum_pow,
    vandermonde,
)
from .sweeps import _value_counts


# ---------- residue classes of positions ----------


def _shifted_classes(q, k: int) -> list:
    """For each residue class s = 1..k of positions, its shifted entries:
    c_j = q at the j-th position of the class, plus its offset j (0-based).
    Walks q directly; the caller has checked 1 <= k <= len(q)."""
    return [[qj + j for j, qj in enumerate(q[s::k])] for s in range(k)]


def _validate_q(q, k: int) -> tuple:
    q = tuple(q)
    n = len(q)
    if type(k) is not int or not 1 <= k <= n:
        raise HypothesisViolated(f"need an integer 1 <= k <= n = {n}, got k = {k!r}")
    for i, qi in enumerate(q, start=1):
        if not isinstance(qi, int) or isinstance(qi, bool) or qi < 0:
            raise HypothesisViolated(f"q{i} must be a nonnegative integer, got {qi!r}")
    return q


def target_monomial(q, k: int) -> tuple:
    """Exponent vector (k*q1 + 0, k*q2 + 1, ..., k*qn + n-1)."""
    q = _validate_q(q, k)
    return tuple(k * qj + j for j, qj in enumerate(q))


def coefficient_formula(q, k: int) -> int:
    """The closed form; may be zero or negative, always an exact integer."""
    return _closed_forms([_validate_q(q, k)], k)[0]


def _closed_forms(compositions, k: int) -> list:
    """The closed form of each q in ``compositions``, tuples that
    `_validate_q` would pass, all of one length n and one sum N: the
    unchecked core of `coefficient_formula`, by one depth-first walk.

    The prefix of q up to position i carries N! times each residue class's
    running prod (c_j - c_i), over the shifted entries the prefix puts in
    the class, and the running prod c_j!.  Position i adds c = q_i + i // k
    to class i mod k.  Consecutive q share the prefix they agree on, so in
    `_compositions` order the walk works out each prefix once."""
    forms = []
    if not compositions:
        return forms
    n, N = len(compositions[0]), sum(compositions[0])
    numerators = [factorial(N)] + [0] * n
    denominators = [1] * (n + 1)
    shifted = [0] * n
    last = (None,) * n
    for q in compositions:
        i = 0
        while i < n and q[i] == last[i]:
            i += 1
        for j in range(i, n):
            c = q[j] + j // k
            numerator = numerators[j]
            for earlier in shifted[j % k : j : k]:
                numerator *= c - earlier
            shifted[j] = c
            numerators[j + 1] = numerator
            denominators[j + 1] = denominators[j] * factorial(c)
        form, remainder = divmod(numerators[n], denominators[n])
        if remainder:
            raise InternalInvariantBroken(
                f"closed form is not an integer: {numerators[n]}/{denominators[n]}"
            )
        forms.append(form)
        last = q
    return forms


def coefficient_by_expansion(q, k: int, max_terms: int = DEFAULT_TERM_GUARD) -> int:
    """Independent oracle: expand the product and read the coefficient off."""
    q = _validate_q(q, k)
    n = len(q)
    factors = [power_sum_pow(n, k, sum(q), max_terms=max_terms), vandermonde(n, max_terms=max_terms)]
    return _product_coefficients(factors, [target_monomial(q, k)], max_terms)[0]


def _coefficient_sweep(n_max: int, sum_max: int, k_max: int | None, max_terms: int):
    """The identity over n <= ``n_max``, k <= min(n, ``k_max`` or n) and
    N <= ``sum_max``, nested in that order: yields (n, k, N, compositions of
    N into n parts, their `_closed_forms`, their `_expansion_oracles`), the
    oracles all None where the Vandermonde or the product trips
    ``max_terms``."""
    for n in range(1, n_max + 1):
        try:
            vdm = vandermonde(n, max_terms=max_terms)
        except ExpansionTooLarge:
            vdm = None  # every product in n variables is then skipped
        # each sum's compositions, listed once for the power of every k
        sums = [(N, list(_compositions(N, n))) for N in range(sum_max + 1)]
        for k in range(1, min(n, k_max or n) + 1):
            oracles = [None] * len(sums) if vdm is None else _expansion_oracles(n, k, sums, vdm, max_terms)
            for (N, qs), cells in zip(sums, oracles):
                yield n, k, N, qs, _closed_forms(qs, k), [None] * len(qs) if cells is None else cells


# ---------- constructive replay of the lower-bound argument ----------


@dataclass(frozen=True)
class ShrinkPlan:
    """The arithmetic spine of the constructive argument.

    Depends only on the set sizes, k, and the characteristic, so it also
    covers abstract instances (e.g. sizes larger than p over a non-prime
    field of characteristic p) where no concrete subsets of GF(p) exist.
    """

    sizes: tuple
    k: int
    char_repr: str
    q: tuple
    N: int
    split_index: int
    shrunk_sizes: tuple
    q_prime: tuple
    h: int
    h_residue: int | None  # h mod p for finite characteristic

    def to_json_dict(self) -> dict:
        # the "certificate" sub-record states h as the coefficient at q':
        # `replay_shrink` has checked that it equals the closed form
        h = str(self.h)
        residue = None if self.h_residue is None else str(self.h_residue)
        return {
            "sizes": list(self.sizes),
            "k": self.k,
            "characteristic": self.char_repr,
            "q": list(self.q),
            "N": self.N,
            "split_index": self.split_index,
            "shrunk_sizes": list(self.shrunk_sizes),
            "q_prime": list(self.q_prime),
            "h": h,
            "h_residue": self.h_residue,
            "certificate": {
                "n": len(self.sizes), "k": self.k, "q": list(self.q_prime), "N": self.N - 1,
                "closed_form": h, "oracle": None, "h": h, "h_residue": residue, "field": None,
            },
        }


@dataclass(frozen=True)
class ProofReplay(ShrinkPlan):
    """A `ShrinkPlan` carried out on a family: every intermediate object of
    the constructive argument, checkable."""

    family: SetFamily
    shrunk_family: SetFamily
    h_element: FieldElement
    value_count: int | None = None
    witness: dict | None = None
    cn_certificate: NullstellensatzCertificate | None = None

    def to_json_dict(self) -> dict:
        out = super().to_json_dict()
        del out["characteristic"], out["h_residue"]
        cn = None if self.cn_certificate is None else self.cn_certificate.to_json_dict()
        out["certificate"]["field"] = str(self.family.field)
        out.update(
            field=str(self.family.field),
            n=self.family.n,
            h_element=str(self.h_element.value),
            value_count=self.value_count,
            witness=self.witness,
            cn_certificate=cn,
        )
        return out


def _split_index(q, char) -> int:
    """Least m in 0..n with sum(q[m:]) < p(F); always exists since the empty
    tail sum is 0 < p."""
    n = len(q)
    if char.is_infinite:
        return 0
    for m in range(n + 1):
        if sum(q[m:]) < char.value:
            return m
    raise InternalInvariantBroken("no split index found")  # unreachable


def _denominator_product(q_prime, k: int) -> int:
    """prod over classes, positions j, and r in [0, c_j) excluding earlier
    shifted entries, of (c_j - r)."""
    D = 1
    for shifted in _shifted_classes(q_prime, k):
        for j, cj in enumerate(shifted):
            earlier = set(shifted[:j])
            for r in range(cj):
                if r not in earlier:
                    D *= cj - r
    return D


def replay_shrink(sizes, k: int, char) -> ShrinkPlan:
    """The arithmetic phase of the constructive argument, for any sizes and
    characteristic: compute the q-vector and N = min(p(F), sum q + 1), shrink
    the sizes so the shrunk q-vector sums to exactly N - 1, check the strict
    chain, and compute h via the literal product form, checking that it
    divides (N-1)!, matches the closed form, and survives reduction mod p.
    """
    sizes = tuple(sizes)
    n = len(sizes)
    q = floor_minima(sizes, k)
    N = char.clamp(sum(q) + 1)
    m = _split_index(q, char)

    shrunk_sizes = list(sizes)
    for i in range(m + 1, n + 1):
        shrunk_sizes[i - 1] = k * q[i - 1] + i
    if m > 0:
        p = char.value
        shrunk_sizes[m - 1] = k * (p - 1 - sum(q[m:])) + m
        for i in range(1, m):
            shrunk_sizes[i - 1] = i
    for i, (want, have) in enumerate(zip(shrunk_sizes, sizes), start=1):
        if not i <= want <= have:
            raise InternalInvariantBroken(
                f"shrunk size {want} for set {i} out of range [{i}, {have}]"
            )
    shrunk_sizes = tuple(shrunk_sizes)

    q_prime = []
    for i, size in enumerate(shrunk_sizes, start=1):
        if (size - i) % k != 0:
            raise InternalInvariantBroken(f"shrunk size {size} - {i} not divisible by k")
        q_prime.append((size - i) // k)
    q_prime = tuple(q_prime)
    if sum(size - i for i, size in enumerate(shrunk_sizes, start=1)) != k * (N - 1):
        raise InternalInvariantBroken("shrunk degrees do not sum to k*(N-1)")

    # strict chain: within each residue class the shifted entries must rise
    for shifted in _shifted_classes(q_prime, k):
        if shifted[0] < 0 or any(b <= a for a, b in zip(shifted, shifted[1:])):
            raise InternalInvariantBroken(f"shifted entries not strictly increasing: {shifted}")

    D = _denominator_product(q_prime, k)
    if factorial(N - 1) % D != 0:
        raise InternalInvariantBroken(f"(N-1)! = {factorial(N - 1)} not divisible by D = {D}")
    h = factorial(N - 1) // D
    closed = coefficient_formula(q_prime, k)
    if h != closed:
        raise InternalInvariantBroken(f"h = {h} but closed form gives {closed}")
    h_residue = None
    if not char.is_infinite:
        h_residue = h % char.value
        if h_residue == 0:
            raise InternalInvariantBroken(
                f"h = {h} vanishes mod {char}; this contradicts N - 1 < p(F)"
            )
    return ShrinkPlan(
        sizes=sizes,
        k=k,
        char_repr=repr(char),
        q=q,
        N=N,
        split_index=m,
        shrunk_sizes=shrunk_sizes,
        q_prime=q_prime,
        h=h,
        h_residue=h_residue,
    )


def proof_replay(
    family: SetFamily,
    k: int,
    tail: SparsePoly | None = None,
    expand_certificate: bool = False,
    guard_tuples: int = DEFAULT_TUPLE_GUARD,
    guard_terms: int = DEFAULT_TERM_GUARD,
) -> ProofReplay:
    """Replay the constructive argument behind the residue-class bound on
    f = x_1^k + ... + x_n^k + ``tail`` (zero when None), mapped once by
    `_field_form`; a tail it refuses, or k > n, raises HypothesisViolated.

    Carries out the plan of the arithmetic phase (`replay_shrink`) on the
    family: embeds h in the field and checks it survives, then computes the
    shrunk value set, exhibits an injective tuple whose value lies outside
    the first N - 1 values, and (if requested) reads the contradiction
    polynomial's coefficient in the box of the shrunk sizes and runs the
    Nullstellensatz certifier's checks on it (`_expanded_certificate`).
    The value set, with the first tuple in product order that reaches each
    value, comes from `sweeps._value_counts`: the int64 residue grid over
    GF(p) where it fits, else the exact enumerator.

    When the shrunk family spans more tuples than ``guard_tuples``, the
    witness alone is skipped (``witness`` and ``value_count`` stay None),
    while the expanded certificate raises :class:`SearchSpaceTooLarge`.
    A guard of 0 thus gives the arithmetic phase alone.
    """
    form = _field_form(family.field, family.n, PowerSumForm.unit(family.n, k, tail))
    plan = replay_shrink(family.sizes, k, family.field.characteristic)
    shrunk = family.subfamily(plan.shrunk_sizes)
    h_element = family.field.embed(plan.h)
    if h_element.is_zero:
        raise InternalInvariantBroken(
            f"h = {plan.h} vanishes in {family.field}; this contradicts N - 1 < p(F)"
        )

    value_count = None
    witness_record = None
    cn_certificate = None
    enum = None
    try:
        ((enum,),) = _value_counts(shrunk, (form,), (True,), guard_tuples, witnesses=True)
    except SearchSpaceTooLarge:
        if expand_certificate:
            raise
    if enum is not None:
        value_count = enum.cardinality
        if value_count < plan.N:
            raise InternalInvariantBroken(
                f"shrunk family attains {value_count} values, bound says >= {plan.N}"
            )
        excluded = enum.values[: plan.N - 1]
        extra_value = enum.values[plan.N - 1]
        point = enum.witnesses[extra_value]
        if _contradiction_value(form, excluded, point).is_zero:
            raise InternalInvariantBroken("chosen witness evaluates to zero")
        witness_record = {
            "point": [str(x.value) for x in point],
            "value": str(extra_value.value),
            "excluded_values": [str(c.value) for c in excluded],
        }
        if expand_certificate:
            cn_certificate = _expanded_certificate(
                shrunk, form, enum, excluded, h_element, guard_tuples, guard_terms
            )
    return ProofReplay(
        **vars(plan),
        family=family,
        shrunk_family=shrunk,
        h_element=h_element,
        value_count=value_count,
        witness=witness_record,
        cn_certificate=cn_certificate,
    )


def _expanded_certificate(shrunk, form: FieldForm, enum, excluded, h_element, guard_tuples, guard_terms):
    """Certify Q = prod_c (f - c) * vandermonde over the field from its
    coefficient at t, the product of x_i^(|A'_i| - 1).  Each f - c is the
    mapped form's terms in graded-lex order, its constant term shifted by
    -c and dropped where it vanishes.

    Q is never expanded.  `poly._box_coefficient` multiplies the literal
    factors, every f - c and then the Vandermonde (its coefficients +-1
    mapped into the field), in the box of exponents up to t, the
    Vandermonde read last against it; the box has prod |A'_i| entries,
    which ``guard_terms`` caps, as it caps the Vandermonde's own
    expansion.  Over a field the degree of Q is
    the sum of its factors' degrees, k * (N - 1) + C(n, 2), which must be
    |t|; a nonzero coefficient at t then confirms it.  That coefficient
    must be exactly the embedded h: the top-degree part of every factor
    (f - c) is the pure power sum, so Q's top homogeneous component is the
    closed-form product.

    The witness search reads ``enum``, the shrunk family's value set with
    its witnesses, instead of evaluating Q point by point.  Over a field Q
    is nonzero exactly at the injective tuples whose value is no excluded
    c, so the first such point in product order is the first tuple of some
    value past the excluded ones: the least of their witnesses.  Q is then
    evaluated there, exactly, and must not vanish.
    """
    field, n, k = form.field, form.n, form.k
    terms = {tuple(k if i == j else 0 for i in range(n)): a for j, a in enumerate(form.leading)}
    terms.update(form.tail.terms())
    constant = terms.pop((0,) * n, field.zero)
    factors = []
    for c in excluded:
        shifted = constant - c
        factors.append(SparsePoly._trusted(n, terms if shifted.is_zero else {**terms, (0,) * n: shifted}))
    factors.append(vandermonde(n, max_terms=guard_terms))
    degrees = tuple(size - 1 for size in shrunk.sizes)
    coefficient = _box_coefficient(factors, degrees, guard_terms)
    degree = sum(f.degree for f in factors)
    expected_degree = k * len(excluded) + comb(n, 2)
    if degree != expected_degree or expected_degree != sum(degrees):
        raise InternalInvariantBroken(
            f"contradiction polynomial has degree {degree}, expected {expected_degree}"
        )

    def search():
        # each set is sorted, so product order is the order of the values
        later = [enum.witnesses[v] for v in enum.values[len(excluded) :]]
        point = min(later, key=lambda pt: [x.value for x in pt])
        value = _contradiction_value(form, excluded, point)
        if value.is_zero:
            raise InternalInvariantBroken(f"Q vanishes at {point}, the first tuple of a value past the excluded ones")
        return point, value

    cert = _certified(degree, coefficient, degrees, shrunk, guard_tuples, search)
    if cert.coefficient != h_element:
        raise InternalInvariantBroken(
            f"expanded coefficient {cert.coefficient} != embedded h {h_element}"
        )
    return cert


def _contradiction_value(form: FieldForm, excluded, point):
    """The factored contradiction polynomial prod_c (f - c) * prod_{i<j} (xj - xi)
    at one point of the form's field, multiplied on raw values (residues
    reduced mod p as they go, or fractions) and wrapped once."""
    p = form.field.p
    fx = form.eval(point).value
    xs = [x.value for x in point]
    factors = [fx - c.value for c in excluded]
    factors += [xj - xi for j, xj in enumerate(xs) for xi in xs[:j]]
    value = 1
    for d in factors:
        value = value * d if p is None else value * d % p
    return form.field.element(value)
