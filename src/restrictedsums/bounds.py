"""Closed-form lower bounds for value sets of power-sum polynomials.

Every function here is pure integer arithmetic: it takes set sizes (never the
sets themselves) plus the field characteristic as an :class:`ExtendedNat`,
refuses integer arguments outside the hypotheses of the bound it implements,
and returns a :class:`BoundResult` whose ``value`` is the clamped lower bound.

Each token's :data:`BOUNDS` entry names its size and k hypotheses once, as
keys of :data:`HYPOTHESES` that every floor refuses through, and adds the
conditions sizes cannot show (unit leading coefficients, one shared set).

Report tokens (the ``name`` field) are short stable identifiers used in CSV
output and configs:

    thm12   residue-class floor bound (restricted, unit leading coefficients)
    thm13   equal-size closed form of thm12
    thm11u  per-variable floor bound, unrestricted
    thm11r  per-variable floor bound, restricted, needs k >= n
    conj11  conjectured single-set bound for n >= k (never hard-asserted)
    anr     linear restricted sum bound (k = 1)
    dsh     single-set linear restricted sum bound (k = 1)
    ex41    exact cardinality of the root-multiplicity sharpness model
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Callable

from .enumeration import MultiplicityProfile
from .errors import HypothesisViolated, InternalInvariantBroken
from .fields import ExtendedNat


def least_residue(a: int, k: int) -> int:
    """The least nonnegative residue of a mod k (so least_residue(-1, 5) == 4)."""
    if k < 1:
        raise ValueError(f"modulus must be positive, got {k}")
    return a % k


def iverson(condition: bool) -> int:
    """1 if the condition holds, else 0."""
    return 1 if condition else 0


@dataclass(frozen=True)
class BoundResult:
    name: str
    value: int
    conjectural: bool = False
    detail: dict | None = dataclass_field(default=None, compare=False)


def _staircase(sizes, k):
    for i, s in enumerate(sizes, start=1):
        if s < i:
            return f"set {i} has size {s} < {i}"
    return None


# Each size or k hypothesis of a floor, by name: a function of (sizes, k)
# giving the reason it fails, or None when it holds.
HYPOTHESES = {
    "staircase": _staircase,  # |A_i| >= i
    "nonempty": lambda sizes, k: f"set {sizes.index(0) + 1} is empty" if 0 in sizes else None,
    "increasing": lambda sizes, k: (
        None if all(a < b for a, b in zip((0,) + sizes, sizes)) else f"need 0 < |A_1| < ... < |A_n|, got {sizes}"
    ),
    "equal": lambda sizes, k: None if len(set(sizes)) == 1 else f"sizes must be equal, got {sizes}",
    "k <= n": lambda sizes, k: None if k <= len(sizes) else f"need k <= n = {len(sizes)}, got k = {k}",
    "k >= n": lambda sizes, k: None if k >= len(sizes) else f"need k >= n = {len(sizes)}, got k = {k}",
    "k = 1": lambda sizes, k: None if k == 1 else f"need k = 1, got k = {k}",
}


def _require(token: str, sizes, k: int, n: int | None = None) -> tuple:
    """The sizes as a tuple if k >= 1, n and each of one or more sizes >= 0
    are ints (not bools) and each name in ``BOUNDS[token].needs`` holds,
    else `HypothesisViolated`.  Given n, ``sizes`` is one size m of n sets."""
    if type(k) is not int or k < 1 or not (n is None or type(n) is int):
        raise HypothesisViolated(f"need integers k >= 1 and n, got k = {k!r}, n = {n!r}")
    sizes = tuple(sizes) if n is None else (sizes,) * n
    if not sizes:
        raise HypothesisViolated("need at least one set")
    for s in sizes:
        if type(s) is not int or s < 0:
            raise HypothesisViolated(f"sizes must be nonnegative integers, got {sizes}")
    for name in BOUNDS[token].needs:
        reason = HYPOTHESES[name](sizes, k)
        if reason is not None:
            raise HypothesisViolated(reason)
    return sizes


def floor_minima(sizes, k: int) -> tuple:
    """q[i] = min over j in {i, i+k, ...} intersected with [i, n] of
    floor((sizes[j] - j) / k), with 1-based positions.

    Requires thm12's k <= n and sizes[i] >= i; every entry is then >= 0.
    """
    sizes = _require("thm12", sizes, k)
    n = len(sizes)
    out = []
    for i in range(1, n + 1):
        out.append(min((sizes[j - 1] - j) // k for j in range(i, n + 1, k)))
    return tuple(out)


def residue_class_bound(sizes, k: int, char: ExtendedNat) -> BoundResult:
    """min(p(F), 1 + sum of floor_minima(sizes, k)).  [token thm12]

    Lower bound for the number of values of x1^k + ... + xn^k + g over
    injective tuples, deg g < k <= n, sizes[i] >= i.
    """
    q = floor_minima(sizes, k)
    value = char.clamp(sum(q) + 1)
    return BoundResult("thm12", value, detail={"q": q})


def _main_term(m: int, n: int, k: int) -> int:
    """(n*(m-n) - {n}_k * {m-n}_k) / k, exact because n*(m-n) == {n}_k * {m-n}_k (mod k)."""
    num = n * (m - n) - least_residue(n, k) * least_residue(m - n, k)
    if num % k != 0:
        raise InternalInvariantBroken(f"main term not divisible by k: {num} / {k}")
    return num // k


def _equal_size_sum(m: int, n: int, k: int) -> int:
    """The main term plus the correction {m}_k * [[ {m}_k < {n}_k ]]."""
    r = least_residue(m, k)
    return _main_term(m, n, k) + r * iverson(r < least_residue(n, k))


def equal_size_floor_sum(m: int, n: int, k: int) -> int:
    """Closed form for sum(floor_minima((m,)*n, k)):

        (n*(m-n) - {n}_k * {m-n}_k) / k  +  {m}_k * [[ {m}_k < {n}_k ]]

    The division is exact because n*(m-n) == {n}_k * {m-n}_k (mod k).
    Note the correction term multiplies the residue of m, not of n; the
    n-residue variant overshoots and is refuted by the sharpness model
    (see tests).  Requires thm12's hypotheses, k <= n <= m.
    """
    _require("thm12", m, k, n)
    return _equal_size_sum(m, n, k)


def equal_size_bound(m: int, n: int, k: int, char: ExtendedNat) -> BoundResult:
    """Equal-size specialization: all n sets have size m >= n.  [token thm13]

    Valid for every k >= 1 (for k > n the per-variable floor bound supplies
    the same closed form), so only m >= n >= 1 is required.
    """
    _require("thm13", m, k, n)
    main = _equal_size_sum(m, n, k)
    return BoundResult("thm13", char.clamp(main + 1), detail={"main_term": main})


def unrestricted_floor_bound(sizes, k: int, char: ExtendedNat) -> BoundResult:
    """min(p(F), 1 + sum floor((sizes[i] - 1) / k)), unrestricted tuples,
    arbitrary nonzero leading coefficients.  [token thm11u]
    """
    sizes = _require("thm11u", sizes, k)
    total = sum((s - 1) // k for s in sizes)
    return BoundResult("thm11u", char.clamp(total + 1))


def restricted_floor_bound(sizes, k: int, char: ExtendedNat) -> BoundResult:
    """min(p(F), 1 + sum floor((sizes[i] - i) / k)) for injective tuples;
    needs k >= n and sizes[i] >= i.  [token thm11r]
    """
    sizes = _require("thm11r", sizes, k)
    total = sum((s - i) // k for i, s in enumerate(sizes, start=1))
    return BoundResult("thm11r", char.clamp(total + 1))


def single_set_conjecture_bound(
    m: int, n: int, k: int, char: ExtendedNat, negated_pair: bool = False
) -> BoundResult:
    """Conjectured bound for one set of size m, n >= k distinct coordinates:

        min( p(F) - [[n == 2 and a1 == -a2]],
             (n*(m-n) - {n}_k * {m-n}_k) / k + 1 )

    ``negated_pair`` encodes the bracket.  Flag-only: callers must record
    violations, never hard-assert them.  [token conj11]
    """
    _require("conj11", m, k, n)
    first = char - iverson(negated_pair and n == 2)
    value = first.clamp(_main_term(m, n, k) + 1)
    return BoundResult("conj11", value, conjectural=True)


def increasing_sizes_bound(sizes, char: ExtendedNat) -> BoundResult:
    """Linear restricted sums (k = 1), 0 < sizes[1] < ... < sizes[n]:
    min(p, 1 + sum(sizes[i] - i)).  [token anr]

    Without the strict increase, residue_class_bound(sizes, 1, char) gives
    the same sum of minima.
    """
    sizes = _require("anr", sizes, 1)
    total = sum(s - i for i, s in enumerate(sizes, start=1))
    return BoundResult("anr", char.clamp(total + 1))


def distinct_sum_bound(m: int, n: int, char: ExtendedNat) -> BoundResult:
    """Sums of n distinct elements of one set of size m:
    min(p, n*(m-n) + 1).  [token dsh]
    """
    _require("dsh", m, 1, n)
    return BoundResult("dsh", char.clamp(n * (m - n) + 1))


def erdos_heilbronn_bound(m: int, char: ExtendedNat) -> BoundResult:
    """Restricted pair sums: min(p, 2m - 3), the n = 2 case of dsh."""
    result = distinct_sum_bound(m, 2, char)
    return BoundResult("dsh", result.value, detail={"pairs": True})


def roots_model_cardinality(n: int, k: int, q: int, r: int) -> BoundResult:
    """Exact value-set cardinality of the sharpness model with |A| = k*q + r:

        (n*(|A|-n) - {n}_k * {|A|-n}_k) / k  +  r * [[ {n}_k > r ]]  +  1

    The model offers each of the values 1..q with multiplicity k and the
    value q+1 with multiplicity r; choosing n distinct roots then yields
    exactly this many sums (enumeration cross-checks it).  [token ex41]
    """
    m = MultiplicityProfile(k=k, q=q, r=r, n=n).size
    value = _main_term(m, n, k) + r * iverson(least_residue(n, k) > r) + 1
    return BoundResult("ex41", value, detail={"size": m})


# ---------- the registry of family-scan tokens ----------


@dataclass(frozen=True)
class Bound:
    """One report token: its floor, its size and k hypotheses by name, the
    value set it bounds, and the conditions that sizes cannot show."""

    floor: Callable[..., BoundResult]  # (sizes, k, char, negated_pair)
    needs: tuple  # keys of HYPOTHESES
    restricted: bool = True  # bounds injective tuples; False: all tuples
    conjectural: bool = False  # violations are recorded, never asserted
    unit: bool = False  # every leading coefficient is 1 in the field
    shared_set: bool = False  # every set is the same set

    def evaluate(self, family, form) -> int | None:
        """The floor for this family and its `FieldForm`
        f = sum a_i x_i^k + ..., or None when a hypothesis fails."""
        return self.for_sizes(family.sizes, form, self.shared_set and family.shared_set)

    def for_sizes(self, sizes, form, shared: bool = False) -> int | None:
        """The floor for sets of these sizes and the `FieldForm`
        f = sum a_i x_i^k + ..., or None when a hypothesis fails.  Sizes
        cannot show that the sets coincide, so a shared-set token answers
        None unless ``shared`` says they do."""
        lead = form.leading
        if self.unit and any(a.value != 1 for a in lead) or self.shared_set and not shared:
            return None
        if any(HYPOTHESES[name](sizes, form.k) is not None for name in self.needs):
            return None
        negated_pair = len(lead) == 2 and (lead[0] + lead[1]).is_zero
        return self.floor(sizes, form.k, form.field.characteristic, negated_pair).value


# The floors are looked up by name at call time, so patching a module-level
# floor also changes the registry.
BOUNDS = {
    "thm12": Bound(lambda s, k, c, neg: residue_class_bound(s, k, c), ("staircase", "k <= n"), unit=True),
    "thm13": Bound(lambda s, k, c, neg: equal_size_bound(s[0], len(s), k, c), ("equal", "staircase"), unit=True),
    "thm11u": Bound(lambda s, k, c, neg: unrestricted_floor_bound(s, k, c), ("nonempty",), restricted=False),
    "thm11r": Bound(lambda s, k, c, neg: restricted_floor_bound(s, k, c), ("staircase", "k >= n")),
    "anr": Bound(lambda s, k, c, neg: increasing_sizes_bound(s, c), ("increasing", "k = 1"), unit=True),
    "dsh": Bound(
        lambda s, k, c, neg: distinct_sum_bound(s[0], len(s), c),
        ("equal", "staircase", "k = 1"),
        unit=True,
        shared_set=True,
    ),
    "conj11": Bound(
        lambda s, k, c, neg: single_set_conjecture_bound(s[0], len(s), k, c, neg),
        ("equal", "staircase", "k <= n"),
        conjectural=True,
        shared_set=True,
    ),
}
