"""Permutation signs, the coefficient closed form, and the replayable
construction of the lower-bound argument."""

import itertools
import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from restrictedsums import (
    INFINITY,
    CoefficientCertificate,
    ExpansionTooLarge,
    ExtendedNat,
    HypothesisViolated,
    PowerSumForm,
    SearchSpaceTooLarge,
    SetFamily,
    SparsePoly,
    coefficient_by_expansion,
    coefficient_formula,
    floor_minima,
    least_residue,
    parse_poly,
    power_sum_pow,
    prime_field,
    proof_replay,
    rational_field,
    replay_shrink,
    target_monomial,
    vandermonde,
)
from restrictedsums import coeff, enumeration, poly, sweeps
from restrictedsums.coeff import _shifted_classes
from restrictedsums.enumeration import DEFAULT_TUPLE_GUARD, _enumerate
from restrictedsums.nullstellensatz import _certified, _first_nonzero
from restrictedsums.poly import _field_form, _product
from permutations import NotInvariant, Permutation, falling_factorial


def inversion_parity_sign(images):
    inv = sum(
        1
        for i in range(len(images))
        for j in range(i + 1, len(images))
        if images[i] > images[j]
    )
    return -1 if inv % 2 else 1


def exact_determinant(matrix):
    """Permutation-expansion determinant over exact scalars."""
    n = len(matrix)
    total = 0
    for perm in itertools.permutations(range(n)):
        prod = inversion_parity_sign(perm)
        for i, j in enumerate(perm):
            prod *= matrix[i][j]
        total += prod
    return total


# ---------- permutations ----------


def test_permutation_basic_signs():
    assert Permutation.identity(range(1, 5)).sign() == 1
    assert Permutation.from_one_line((2, 1, 3)).sign() == -1
    assert Permutation.from_one_line((2, 3, 1)).sign() == 1
    assert Permutation.from_one_line((2, 1, 4, 3)).sign() == 1


def test_permutation_cycles():
    s = Permutation.from_one_line((2, 1, 3))
    assert s.cycles() == ((1, 2), (3,))
    assert Permutation.from_one_line((2, 3, 1)).cycles() == ((1, 2, 3),)
    assert Permutation.identity([5, 1, 9]).cycles() == ((1,), (5,), (9,))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_sign_equals_inversion_parity(n):
    for images in itertools.permutations(range(1, n + 1)):
        assert Permutation.from_one_line(images).sign() == inversion_parity_sign(images)


def test_permutation_arbitrary_points():
    s = Permutation({"a": "b", "b": "a", "c": "c"})
    assert s.sign() == -1
    assert s("a") == "b"
    assert s.domain == frozenset({"a", "b", "c"})


def test_permutation_rejects_non_bijection():
    with pytest.raises(ValueError):
        Permutation({1: 2, 2: 2})


def test_permutation_restrict():
    s = Permutation.from_one_line((2, 1, 4, 3))  # (1 2)(3 4)
    r = s.restrict({1, 2})
    assert r == Permutation({1: 2, 2: 1})
    assert r.sign() == -1
    with pytest.raises(NotInvariant):
        s.restrict({1, 3})  # not closed
    with pytest.raises(NotInvariant):
        s.restrict({1, 2, 9})  # outside the domain


def test_sign_is_multiplicative_across_invariant_splits():
    # if A is a union of cycles, the sign factors through the restriction
    for n in range(1, 6):
        for images in itertools.permutations(range(1, n + 1)):
            s = Permutation.from_one_line(images)
            cycles = s.cycles()
            for take in range(1 << len(cycles)):
                part = {
                    x
                    for idx, cyc in enumerate(cycles)
                    if take >> idx & 1
                    for x in cyc
                }
                rest = set(range(1, n + 1)) - part
                left = s.restrict(part).sign() if part else 1
                right = s.restrict(rest).sign() if rest else 1
                assert s.sign() == left * right


def test_permutation_immutable_and_hashable():
    s = Permutation.from_one_line((2, 1))
    with pytest.raises(AttributeError):
        s._map = {}
    assert len({s, Permutation({1: 2, 2: 1})}) == 1


# ---------- falling factorials ----------


def test_falling_factorial():
    assert falling_factorial(5, 0) == 1
    assert falling_factorial(5, 2) == 20
    assert falling_factorial(3, 4) == 0
    assert falling_factorial(-1, 2) == 2
    assert falling_factorial(Fraction(1, 2), 2) == Fraction(-1, 4)
    with pytest.raises(ValueError):
        falling_factorial(5, -1)


@pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
def test_falling_factorial_determinant_equals_power_determinant(t):
    # row operations turn the power matrix into the falling-factorial matrix,
    # so both determinants equal the pair-difference product
    import random

    rng = random.Random(t)
    for _ in range(20):
        c = [rng.randint(0, 8) for _ in range(t)]
        power = [[c[j] ** i for j in range(t)] for i in range(t)]
        falling = [[falling_factorial(c[j], i) for j in range(t)] for i in range(t)]
        pair_product = 1
        for j in range(t):
            for i in range(j):
                pair_product *= c[j] - c[i]
        assert exact_determinant(power) == pair_product
        assert exact_determinant(falling) == pair_product


# ---------- residue classes of positions ----------


def test_residue_classes():
    # positions 1..5 fall in the classes {1, 3, 5} and {2, 4} mod 2; each
    # entry is q at that position plus its offset within the class
    q = (10, 20, 30, 40, 50)
    assert _shifted_classes(q, 2) == [[10, 31, 52], [20, 41]]
    assert _shifted_classes(q, 1) == [[10, 21, 32, 43, 54]]
    assert _shifted_classes(q, 5) == [[10], [20], [30], [40], [50]]


@pytest.mark.parametrize("n", range(1, 9))
def test_residue_classes_partition(n):
    # q = 100, 101, ... makes each entry name its position: the classes
    # partition 1..n by position mod k, each class in increasing order
    q = tuple(range(100, 100 + n))
    for k in range(1, n + 1):
        positions = [[c - j - 99 for j, c in enumerate(shifted)] for shifted in _shifted_classes(q, k)]
        assert sorted(x for cls in positions for x in cls) == list(range(1, n + 1))
        for s, cls in enumerate(positions, start=1):
            assert cls == list(range(s, n + 1, k))


# ---------- the coefficient identity ----------


def test_target_monomial():
    assert target_monomial((1, 1, 1), 2) == (2, 3, 4)
    assert target_monomial((0, 0), 1) == (0, 1)
    assert target_monomial((2, 0, 1), 3) == (6, 1, 5)


def test_coefficient_formula_frozen_values():
    assert coefficient_formula((0,), 1) == 1
    assert coefficient_formula((0, 0), 1) == 1
    assert coefficient_formula((1, 1), 2) == 2
    assert coefficient_formula((0, 1), 2) == 1
    assert coefficient_formula((1, 0, 0), 3) == 1
    assert coefficient_formula((0, 0, 0), 2) == vandermonde(3).coefficient_of((0, 1, 2))


def test_coefficient_formula_collision_gives_zero():
    # q = (1, 0) at k = 1 collides: shifted entries are (1, 1)
    assert coefficient_formula((1, 0), 1) == 0
    assert coefficient_by_expansion((1, 0), 1) == 0


def test_coefficient_formula_guards():
    with pytest.raises(HypothesisViolated):
        coefficient_formula((1, 1), 3)  # k > n
    with pytest.raises(HypothesisViolated):
        coefficient_formula((1, -1), 1)


# each function that does integer arithmetic on its arguments, a call
# meeting its hypotheses, and the error it raises for an out-of-range value
INTEGER_CALLS = [
    (coefficient_formula, ((1, 2), 2), HypothesisViolated),
    (target_monomial, ((1, 2), 2), HypothesisViolated),
    (coefficient_by_expansion, ((1, 2), 2), HypothesisViolated),
    (least_residue, (5, 3), ValueError),
    (power_sum_pow, (2, 2, 2), ValueError),
    (vandermonde, (3,), ValueError),
]


@pytest.mark.parametrize("func, args, error", INTEGER_CALLS, ids=[func.__name__ for func, _, _ in INTEGER_CALLS])
@pytest.mark.parametrize("bad", [2.0, 2.5, True])
def test_every_integer_argument_refuses_a_float_or_bool(func, args, error, bad):
    func(*args)
    for i, arg in enumerate(args):
        if isinstance(arg, tuple):
            variants = [arg[:j] + (bad,) + arg[j + 1 :] for j in range(len(arg))]
        else:
            variants = [bad]
        for variant in variants:
            with pytest.raises(error):
                func(*args[:i], variant, *args[i + 1 :])


def test_expansion_oracle_frozen_values():
    assert coefficient_by_expansion((1, 1), 2) == 2
    assert coefficient_by_expansion((0, 1), 2) == 1
    assert coefficient_by_expansion((1, 0, 0), 3) == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_closed_form_matches_expansion(n):
    for k in range(1, n + 1):
        for q in itertools.product(range(0, 4), repeat=n):
            if sum(q) > 5:
                continue
            assert coefficient_formula(q, k) == coefficient_by_expansion(q, k), (q, k)


def test_single_class_case_is_plain_multinomial_with_vandermonde():
    # k = 1 puts every position in one class; spot-check larger vectors
    for q in [(2, 1, 0), (0, 2, 2), (3, 0, 1, 0)]:
        n = len(q)
        assert coefficient_formula(q, 1) == coefficient_by_expansion(q, 1)


def test_closed_form_walk_shares_prefixes_in_any_order():
    # the walk carries each prefix's factors on to the next q; whatever
    # order or subset of the compositions it walks, each q gets its own form
    rng = random.Random(5)
    for n in range(1, 5):
        for k in range(1, n + 1):
            for total in range(6):
                qs = list(poly._compositions(total, n))
                for walk in (qs, qs[::-1], rng.sample(qs, len(qs)), qs[1::2], qs + qs[:1]):
                    assert coeff._closed_forms(walk, k) == [coefficient_formula(q, k) for q in walk], (k, walk)


def test_closed_form_walk_equals_the_formula_on_every_composition():
    # the literal formula of the module docstring, class by class
    def literal(q, k):
        numerator, denominator = factorial(sum(q)), 1
        for shifted in _shifted_classes(q, k):
            for j, cj in enumerate(shifted):
                denominator *= factorial(cj)
                for ci in shifted[:j]:
                    numerator *= cj - ci
        assert numerator % denominator == 0
        return numerator // denominator

    for n in range(1, 7):
        for total in range(9):
            qs = list(poly._compositions(total, n))
            for k in range(1, n + 1):
                got = coeff._closed_forms(qs, k)
                assert got == [coefficient_formula(q, k) for q in qs], (n, total, k)
                assert got == [literal(q, k) for q in qs], (n, total, k)


def test_expansion_oracles_read_the_public_product():
    # each sum of a run reads what coefficient_by_expansion reads off the
    # product, or None where that product trips the guard, whichever sums
    # the run puts in one batch.  (x1 + x2 + x3)^45 has multinomials past
    # 2**63, and 21! and 22! are past it, so their columns hold Python
    # ints, in a batch with int64 ones.
    def public(n, k, total, compositions, vdm, max_terms):
        targets = [target_monomial(q, k) for q in compositions]
        try:
            power = power_sum_pow(n, k, total, max_terms=max_terms)
            cells = poly._product_coefficients([power, vdm], targets, max_terms)[1]
        except ExpansionTooLarge:
            return None
        return [(type(c), c) for c in cells]

    def check(n, k, sums, vdm, max_terms, want):
        got = poly._expansion_oracles(n, k, sums, vdm, max_terms)
        assert len(got) == len(sums)
        for (total, _), cells in zip(sums, got):
            typed = None if cells is None else [(type(c), c) for c in cells]
            assert typed == want[total], (n, k, total, max_terms)

    guards = (0, 1, 2, 6, 20, 24, 100, 130, 1000, 5000, poly.DEFAULT_TERM_GUARD)
    for n in range(1, 6):
        vdm = vandermonde(n)
        sums = [(total, list(poly._compositions(total, n))) for total in range(9)]
        for k in range(1, n + 1):
            for max_terms in guards:
                want = {total: public(n, k, total, qs, vdm, max_terms) for total, qs in sums}
                # each sum alone, and the run from each sum on, which the
                # guard cuts into batches at different sums
                for start in range(len(sums)):
                    check(n, k, sums[start : start + 1], vdm, max_terms, want)
                    check(n, k, sums[start:], vdm, max_terms, want)
    for n, k, totals in [(2, 1, range(19, 23)), (3, 1, [45])]:
        vdm = vandermonde(n)
        sums = [(total, list(poly._compositions(total, n))) for total in totals]
        want = {total: public(n, k, total, qs, vdm, poly.DEFAULT_TERM_GUARD) for total, qs in sums}
        check(n, k, sums, vdm, poly.DEFAULT_TERM_GUARD, want)
        for total, qs in sums:
            check(n, k, [(total, qs)], vdm, poly.DEFAULT_TERM_GUARD, want)
            assert want[total] == [(int, coefficient_formula(q, k)) for q in qs]


def test_certificate_serializes_big_integers_as_strings():
    cert = CoefficientCertificate(
        n=2, k=1, q=(20, 20), N=40, closed_form=factorial(40), oracle=None
    )
    d = cert.to_json_dict()
    assert d["closed_form"] == str(factorial(40))
    assert d["oracle"] is None
    assert d["q"] == [20, 20]


# ---------- replay_shrink: the arithmetic spine ----------


def test_replay_shrink_infinite_characteristic():
    plan = replay_shrink((5, 5, 5), 2, INFINITY)
    assert plan.q == (1, 1, 1)
    assert plan.N == 4
    assert plan.split_index == 0
    assert plan.shrunk_sizes == (3, 4, 5)
    assert plan.q_prime == (1, 1, 1)
    assert plan.h == 3
    assert plan.h_residue is None
    assert plan.certificate.closed_form == 3


def test_replay_shrink_large_prime():
    plan = replay_shrink((9, 9), 2, ExtendedNat(11))
    assert plan.q == (4, 3)
    assert plan.N == 8
    assert plan.split_index == 0
    assert plan.shrunk_sizes == (9, 8)
    assert plan.h == 35
    assert plan.h_residue == 35 % 11 == 2


def test_replay_shrink_small_characteristic_splits():
    # the characteristic truncates: only part of the family stays active
    plan = replay_shrink((9, 9), 2, ExtendedNat(3))
    assert plan.q == (4, 3)
    assert plan.N == 3
    assert plan.split_index == 2
    assert plan.shrunk_sizes == (1, 6)
    assert plan.q_prime == (0, 2)
    assert plan.h == 1
    assert plan.h_residue == 1
    assert plan.char_repr == "3"


def test_replay_shrink_staircase_is_trivial():
    for n in range(1, 6):
        for k in range(1, n + 1):
            plan = replay_shrink(tuple(range(1, n + 1)), k, ExtendedNat(7))
            assert plan.N == 1
            assert plan.h == 1
            assert plan.shrunk_sizes == tuple(range(1, n + 1))


def test_replay_shrink_json():
    d = replay_shrink((9, 9), 2, ExtendedNat(3)).to_json_dict()
    assert d["characteristic"] == "3"
    assert d["h"] == "1"
    assert d["shrunk_sizes"] == [1, 6]
    assert d["certificate"]["n"] == 2


@given(
    k=st.integers(min_value=1, max_value=4),
    raw=st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=6),
    p=st.sampled_from([2, 3, 5, 7, 11, 13, None]),
)
def test_replay_shrink_invariants(k, raw, p):
    n = len(raw)
    if k > n:
        return
    sizes = tuple(i + r for i, r in enumerate(raw, start=1))
    char = INFINITY if p is None else ExtendedNat(p)
    plan = replay_shrink(sizes, k, char)
    assert plan.N == char.clamp(sum(floor_minima(sizes, k)) + 1)
    assert sum(plan.q_prime) == plan.N - 1
    assert all(i <= w <= s for i, (w, s) in enumerate(zip(plan.shrunk_sizes, sizes), 1))
    assert plan.h >= 1
    assert factorial(plan.N - 1) % plan.h == 0
    if p is not None:
        assert plan.h_residue == plan.h % p != 0


# ---------- proof_replay: the full construction on a concrete family ----------


def interval_family(field, n, m):
    return SetFamily.from_elements(field, [range(m)] * n)


def test_proof_replay_gf11():
    F = prime_field(11)
    replay = proof_replay(interval_family(F, 3, 5), 2)
    assert replay.q == (1, 1, 1)
    assert replay.N == 4
    assert replay.shrunk_family.sizes == (3, 4, 5)
    assert replay.h == 3
    assert replay.h_element == F.element(3)
    assert replay.value_count is not None and replay.value_count >= 4
    w = replay.witness
    assert w is not None
    assert len(w["excluded_values"]) == 3
    assert w["value"] not in w["excluded_values"]
    point = [int(x) for x in w["point"]]
    assert len(set(point)) == 3
    shrunk_sets = [{e.value for e in s} for s in replay.shrunk_family.sets]
    for x, allowed in zip(point, shrunk_sets):
        assert x in allowed


def test_proof_replay_rational():
    replay = proof_replay(interval_family(rational_field(), 3, 5), 2)
    assert replay.N == 4
    assert replay.h == 3
    assert replay.h_element.value == Fraction(3)
    assert replay.value_count >= 4


def test_proof_replay_respects_guard():
    replay = proof_replay(interval_family(prime_field(11), 3, 5), 2, guard_tuples=10)
    assert replay.value_count is None
    assert replay.witness is None
    assert replay.h == 3  # arithmetic phase still runs


def test_proof_replay_rejects_bad_forms():
    F = prime_field(11)
    fam = interval_family(F, 3, 5)
    with pytest.raises(HypothesisViolated):
        proof_replay(fam, 2, f=PowerSumForm(2, (2, 1, 1), SparsePoly.zero(3)))
    with pytest.raises(HypothesisViolated):
        proof_replay(fam, 4)  # k > n


def test_proof_replay_with_expanded_certificate():
    F = prime_field(5)
    fam = SetFamily.from_elements(F, [[0, 1, 2], [0, 1, 2, 3]])
    replay = proof_replay(fam, 2, expand_certificate=True)
    assert replay.N == 3
    assert replay.h == 2
    cert = replay.cn_certificate
    assert cert is not None
    assert cert.coefficient == F.element(2)
    assert cert.nonzero
    assert cert.witness is not None
    assert not cert.witness_value.is_zero


# ---------- the expanded certificate against the unpacked route ----------

# (p, n, k, sizes), the shapes of the benchmark's replay batch
REPLAY_SHAPES = (
    (13, 4, 1, (5, 6, 7, 8)),
    (13, 4, 2, (6, 7, 8, 8)),
    (13, 3, 1, (8, 8, 8)),
    (11, 4, 1, (6, 6, 6, 6)),
    (11, 3, 2, (7, 8, 8)),
    (7, 4, 1, (4, 5, 6, 7)),
    (7, 3, 1, (7, 7, 7)),
    (5, 4, 1, (5, 5, 5, 5)),
    (13, 4, 3, (8, 8, 8, 8)),
    (13, 4, 4, (8, 8, 8, 8)),
    (13, 2, 1, (8, 8)),
    (13, 3, 3, (8, 8, 8)),
    (13, 4, 2, (7, 7, 8, 8)),
    (11, 4, 1, (5, 6, 7, 8)),
    (13, 3, 2, (8, 8, 8)),
)


def unpacked_certificate(replay, f):
    """The replay's certificate by the route that unpacks Q: the product
    as a SparsePoly, certified with each point evaluated as the factored
    product in FieldElement arithmetic, and the witness checked on Q."""
    shrunk = replay.shrunk_family
    field, n = shrunk.field, shrunk.n
    excluded = [field.element(c) for c in replay.witness["excluded_values"]]
    f_poly = f.expand().reduce(field)
    factors = [vandermonde(n).reduce(field)]
    factors += [f_poly - SparsePoly.constant(n, c) for c in excluded]
    degrees = tuple(size - 1 for size in shrunk.sizes)

    def factored(point):
        value = field.one
        for c in excluded:
            value = value * (f.eval(point) - c)
        for j in range(n):
            for i in range(j):
                value = value * (point[j] - point[i])
        return value

    Q = _product(factors)
    cert = _certified(
        Q.degree,
        Q.coefficient_of(degrees),
        degrees,
        shrunk,
        DEFAULT_TUPLE_GUARD,
        lambda: _first_nonzero(itertools.product(*shrunk.sets), factored),
    )
    assert Q.eval(cert.witness) == cert.witness_value
    return cert


@pytest.mark.parametrize("shape", REPLAY_SHAPES, ids=str)
def test_expanded_certificate_matches_unpacked_route(shape):
    p, n, k, sizes = shape
    rng = random.Random(f"replay|{shape}")
    family = SetFamily.from_elements(prime_field(p), [rng.sample(range(p), s) for s in sizes])
    f = PowerSumForm.unit(n, k)
    replay = proof_replay(family, k, f=f, expand_certificate=True)
    assert replay.cn_certificate == unpacked_certificate(replay, f)


@pytest.mark.parametrize(
    "field, sets, k, tail, want",
    [
        (rational_field(), [[0, 1, "1/2"], [0, 1, 5, "2/3"]], 2, None, ("2", ["0", "1"], "5/12")),
        (
            prime_field(11),
            [range(3), range(4), range(5)],
            2,
            "3*x1 + x2 - 2*x3 + 5",
            ("3", ["0", "1", "2"], "9"),
        ),
    ],
)
def test_expanded_certificate_frozen(field, sets, k, tail, want):
    family = SetFamily.from_elements(field, sets)
    f = PowerSumForm.unit(family.n, k, None if tail is None else parse_poly(tail, family.n))
    cert = proof_replay(family, k, f=f, expand_certificate=True).cn_certificate
    d = cert.to_json_dict()
    assert (d["coefficient"], d["witness"], d["witness_value"]) == want
    assert type(cert.witness_value.value) is type(field.one.value)
    assert cert == unpacked_certificate(proof_replay(family, k, f=f), f)


def test_expanded_certificate_unpacks_only_the_vandermonde(monkeypatch):
    # Q is read packed, and at the default guard vandermonde(n) is written
    # down, so no product is unpacked
    calls = []
    unpacked = poly._unpacked

    def counting(acc, width, nvars, field):
        calls.append(nvars)
        return unpacked(acc, width, nvars, field)

    monkeypatch.setattr(poly, "_unpacked", counting)
    family = SetFamily.from_elements(prime_field(13), [range(6), range(7), range(8), range(8)])
    replay = proof_replay(family, 2, expand_certificate=True)
    assert replay.cn_certificate.nonzero
    assert calls == []


# ---------- the replay's value set: the residue grid against the enumerator ----------


def replay_route_cases():
    """(family, form): the shrunk and the whole family of each replay shape
    on seeded sets, GF(2), a tail, and a family with no injective tuple."""
    for shape in REPLAY_SHAPES:
        p, n, k, sizes = shape
        rng = random.Random(f"route|{shape}")
        family = SetFamily.from_elements(prime_field(p), [rng.sample(range(p), s) for s in sizes])
        f = PowerSumForm.unit(n, k)
        yield family.subfamily(replay_shrink(sizes, k, family.field.characteristic).shrunk_sizes), f
        yield family, f
    yield SetFamily.from_elements(prime_field(2), [[0, 1], [1, 0], [0, 1]]), PowerSumForm.unit(3, 1)
    cubic = PowerSumForm(3, (1, 1), parse_poly("x1*x2 + 1", 2))
    yield SetFamily.from_elements(prime_field(2), [[1], [0, 1]]), cubic
    tail = parse_poly("3*x1 - x2*x3 + 2", 3)
    sets = [[0, 1, 2, 3, 5, 7], [1, 2, 4, 6, 8], [0, 3, 4, 9, 10]]
    yield SetFamily.from_elements(prime_field(11), sets), PowerSumForm(3, (1, 4, 10), tail)
    yield SetFamily.from_elements(prime_field(13), [[3], [3], [1, 3, 5]]), PowerSumForm.unit(3, 2)


def assert_same_value_sets(family, f):
    form = _field_form(family.field, family.n, f)
    got = sweeps._value_counts(family, form, (True, False), DEFAULT_TUPLE_GUARD, witnesses=True)
    for restricted, run in zip((True, False), got):
        want = _enumerate(family, form, restricted, DEFAULT_TUPLE_GUARD, True)
        assert run == want, (family, restricted)
        assert list(run.witnesses) == list(want.witnesses)


def test_replay_route_matches_the_enumerator():
    for family, f in replay_route_cases():
        assert_same_value_sets(family, f)


def test_replay_route_matches_the_enumerator_in_slabs(monkeypatch):
    # boxes of 1, 7 and 30 tuples: slabs of the first set, and single elements
    # of it times slabs of the rest; the first box to reach a value keeps it
    cases = list(replay_route_cases())
    shrunk = cases[0 : 2 * len(REPLAY_SHAPES) : 2]
    for tuples in (1, 7, 30):
        for family, f in shrunk[:3] + cases[-4:]:
            monkeypatch.setattr(sweeps, "LATTICE_BYTE_GUARD", 8 * (family.n + 3) * tuples)
            assert_same_value_sets(family, f)


def rational_route_cases():
    """(family, form) over Q: seeded sets of small fractions, n <= 3,
    k <= 4, Fraction or int leading coefficients and Fraction tails."""
    rng = random.Random("route|rational")
    for _ in range(40):
        n, k = rng.randint(1, 3), rng.randint(1, 4)
        pool = sorted({Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(12)})
        sets = [rng.sample(pool, rng.randint(1, min(5, len(pool)))) for _ in range(n)]
        leading = [rng.choice([1, -2, 3, Fraction(1, 2), Fraction(-5, 3)]) for _ in range(n)]
        tail = {}
        for _ in range(rng.randint(0, 2)):
            degrees = [0] * n
            for _ in range(rng.randrange(k)):
                degrees[rng.randrange(n)] += 1
            tail[tuple(degrees)] = Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3))
        yield SetFamily.from_elements(rational_field(), sets), PowerSumForm(k, leading, SparsePoly(n, tail))


def test_replay_route_over_q_takes_the_scaled_grid(monkeypatch):
    # the witnesses come off the scaled grid, also in slabs of 1 and 7
    # tuples, and equal the enumerator's: values, first tuples, counts
    calls = []
    real = sweeps._family_counts
    monkeypatch.setattr(sweeps, "_family_counts", lambda *args: calls.append(1) or real(*args))
    cases = list(rational_route_cases())
    for family, f in cases:
        assert_same_value_sets(family, f)
    assert len(calls) == len(cases)
    for tuples in (1, 7):
        monkeypatch.setattr(sweeps, "LATTICE_BYTE_GUARD", 8 * 6 * tuples)
        for family, f in cases[:10]:
            assert_same_value_sets(family, f)


def test_replay_counts_on_the_grid_where_it_fits(monkeypatch):
    calls = []
    real = enumeration._enumerate

    def counting(*args):
        calls.append(args[0].field)
        return real(*args)

    for module in (enumeration, sweeps, coeff):
        monkeypatch.setattr(module, "_enumerate", counting, raising=False)
    cases = [
        (prime_field(13), [range(6), range(7), range(8), range(8)], 0),
        (rational_field(), [[0, 1, "1/2"], [0, 1, 5, "2/3"]], 0),
        (prime_field(3_037_000_507), [[0, 1, 5, 9], [1, 2, 7], [3, 4, 8]], 1),
    ]
    for field, sets, enumerations in cases:
        calls.clear()
        family = SetFamily.from_elements(field, sets)
        replay = proof_replay(family, 2, expand_certificate=True)
        assert replay.cn_certificate.nonzero
        assert calls == [field] * enumerations
    # the tuple guard stops the replay where it did: the witness is skipped,
    # and the expanded certificate refuses
    family = SetFamily.from_elements(prime_field(13), [range(6), range(7), range(8)])
    assert proof_replay(family, 2, guard_tuples=10).witness is None
    with pytest.raises(SearchSpaceTooLarge, match="^family spans 210 tuples, guard is 10$"):
        proof_replay(family, 2, expand_certificate=True, guard_tuples=10)


def test_proof_replay_json_shape():
    fam = interval_family(prime_field(11), 3, 5)
    d = proof_replay(fam, 2).to_json_dict()
    assert d["field"] == "gf(11)"
    assert d["h"] == "3"
    assert d["q"] == [1, 1, 1]
    assert isinstance(d["witness"]["value"], str)
    assert d["certificate"]["field"] == "gf(11)"
    # a second replay of the same family serializes identically
    assert proof_replay(fam, 2).to_json_dict() == d


@given(
    p=st.sampled_from([5, 7, 11, 13]),
    n=st.integers(min_value=1, max_value=3),
    k=st.integers(min_value=1, max_value=3),
    extra=st.integers(min_value=0, max_value=3),
)
def test_proof_replay_bound_is_always_attained(p, n, k, extra):
    if k > n:
        return
    m = min(p, n + extra)
    replay = proof_replay(interval_family(prime_field(p), n, m), k)
    assert replay.value_count >= replay.N
