"""Vectorized sweep routes cross-checked against the exact enumerator."""

import gc
import itertools
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from restrictedsums import (
    HypothesisViolated,
    PowerSumForm,
    SearchSpaceTooLarge,
    SetFamily,
    SparsePoly,
    check_lattice_bounds,
    derive_seed,
    family_cardinality_fast,
    lattice_min_cardinality,
    parse_poly,
    prime_field,
    random_leading,
    random_sizes,
    random_subset,
    random_tail,
    residue_class_bound,
    restricted_value_set,
    unrestricted_value_set,
)
from restrictedsums.sweeps import (
    LATTICE_BYTE_GUARD,
    _family_counts,
    _fold_axis,
    _integer_route_fits,
    _pow_mod_grid,
    _residue_route_fits,
    _value_table,
)


def mask_of(subset) -> int:
    out = 0
    for x in subset:
        out |= 1 << x
    return out


def subsets_of_mask(p, mask):
    return [x for x in range(p) if mask >> x & 1]


def exact_value_mask(p, sets, k, leading=None, tail=None, restricted=True):
    """Ground truth: the bitmask of attained values via exact enumeration."""
    F = prime_field(p)
    fam = SetFamily.from_elements(F, sets)
    n = len(sets)
    f = PowerSumForm(
        k,
        leading if leading is not None else (1,) * n,
        tail if tail is not None else SparsePoly.zero(n),
    )
    run = restricted_value_set if restricted else unrestricted_value_set
    got = run(fam, f)
    return mask_of(v.value for v in got.values)


# ---------- seeded randomness helpers ----------


def test_derive_seed_is_stable_and_injective_enough():
    assert derive_seed("a", 1) == derive_seed("a", 1)
    labels = [("a", 1), ("a", 2), ("b", 1), ("sweep", 7, 2), (7, "sweep", 2)]
    seeds = {derive_seed(*parts) for parts in labels}
    assert len(seeds) == len(labels)
    assert all(0 <= s < 2**64 for s in seeds)


def test_random_tail_respects_degree_and_arity():
    for seed in range(30):
        rng = random.Random(seed)
        n = rng.randint(1, 4)
        k = rng.randint(1, 4)
        tail = random_tail(rng, n, k)
        assert tail.nvars == n
        assert tail.is_zero or tail.degree < k
    # reproducible
    assert random_tail(random.Random(5), 3, 3) == random_tail(random.Random(5), 3, 3)


def test_random_leading_and_subset_and_sizes():
    rng = random.Random(0)
    lead = random_leading(rng, 5, 7)
    assert len(lead) == 5 and all(1 <= a <= 6 for a in lead)
    sub = random_subset(rng, 11, 4)
    assert sub == tuple(sorted(set(sub))) and len(sub) == 4
    assert all(0 <= x < 11 for x in sub)
    sizes = random_sizes(rng, 3, lambda i: i, 5)
    assert all(i <= s <= 5 for i, s in enumerate(sizes, start=1))
    with pytest.raises(ValueError):
        random_sizes(rng, 3, lambda i: 6 + i, 5)
    with pytest.raises(ValueError):
        random_subset(rng, 5, 6)


# ---------- value tables ----------


def test_value_table_matches_field_evaluation():
    p, k = 5, 2
    F = prime_field(p)
    tail = random_tail(random.Random(3), 2, k)
    form = PowerSumForm(k, (2, 3), tail)
    table = _value_table(p, k, (2, 3), tail)
    assert table.shape == (p, p) and table.dtype == np.uint8
    for x1 in range(p):
        for x2 in range(p):
            value = form.eval((F.element(x1), F.element(x2))).value
            assert table[x1, x2] == 1 << value


def test_value_table_guards():
    with pytest.raises(HypothesisViolated):
        _value_table(11, 2, (1, 1))  # beyond the uint8 lattice limit
    with pytest.raises(HypothesisViolated):
        _value_table(5, 2, (5, 1))  # leading coefficient dies mod 5
    with pytest.raises(HypothesisViolated):
        _value_table(5, 2, (1, 1), random_tail(random.Random(0), 3, 2))  # arity
    bad_tail = parse_poly("x1^3", nvars=2)
    with pytest.raises(HypothesisViolated):
        _value_table(5, 2, (1, 1), bad_tail)  # tail degree >= k


def test_pow_mod_grid():
    rng = np.random.default_rng(0)
    grid = rng.integers(0, 13, size=(6, 6))
    for e in [0, 1, 2, 5, 12]:
        expected = np.vectorize(lambda v: pow(int(v), e, 13))(grid)
        assert np.array_equal(_pow_mod_grid(grid, e, 13), expected)


# ---------- the fold of coordinate axes into subset axes ----------
#
# The lattice folds axes n..2 of the value table into subset axes, which
# leaves S[x, m_2, ..., m_n] = the values attained with x_1 = x; the OR of
# those slabs over the elements of A_1 is the family's attained-value mask.


def fold_trailing_axes(table, p, restricted):
    S = table
    for axis in range(table.ndim - 1, 0, -1):
        S = _fold_axis(S, axis, p, restricted)
    return S


def family_mask(S, p, masks):
    out = 0
    for x in subsets_of_mask(p, masks[0]):
        out |= int(S[(x, *masks[1:])])
    return out


@pytest.mark.parametrize("restricted", [True, False])
def test_fold_masks_exhaustive_p3(restricted):
    p, k = 3, 1
    S = fold_trailing_axes(_value_table(p, k, (1, 1)), p, restricted)
    assert S.shape == (3, 8)
    for m1 in range(8):
        for m2 in range(8):
            sets = [subsets_of_mask(p, m1), subsets_of_mask(p, m2)]
            got = family_mask(S, p, (m1, m2))
            if not sets[0] or not sets[1]:
                assert got == 0
                continue
            expected = exact_value_mask(p, sets, k, restricted=restricted)
            assert got == expected, (m1, m2)


@pytest.mark.parametrize("restricted", [True, False])
def test_fold_masks_random_p5_n3(restricted):
    p, k = 5, 2
    rng = random.Random(derive_seed("fold", p, k, restricted))
    leading = random_leading(rng, 3, p)
    tail = random_tail(rng, 3, k)
    S = fold_trailing_axes(_value_table(p, k, leading, tail), p, restricted)
    assert S.shape == (5, 32, 32)
    for _ in range(25):
        masks = [mask_of(random_subset(rng, p, rng.randint(1, p))) for _ in range(3)]
        sets = [subsets_of_mask(p, m) for m in masks]
        expected = exact_value_mask(p, sets, k, leading, tail, restricted)
        assert family_mask(S, p, masks) == expected, masks


def test_fold_masks_single_variable():
    p = 5
    S = fold_trailing_axes(_value_table(p, 2, (1,)), p, True)
    assert S.shape == (5,)
    # squares mod 5: {0,1,4}; subset {1,2,3} -> values {1,4,4} -> mask 0b10010
    assert family_mask(S, p, (mask_of((1, 2, 3)),)) == mask_of((1, 4))
    # the fewest distinct squares on s residues: classes {0}, {1,4}, {2,3}
    for restricted in (True, False):
        got = lattice_min_cardinality(p, 2, (1,), restricted=restricted)
        assert got.tolist() == [0, 1, 1, 2, 2, 3]


# ---------- the subset lattice ----------
#
# The reference shares no code with `sweeps`: a value table of
# PowerSumForm.eval, and for each size profile the minimum, over every family
# of that profile, of the number of distinct table entries on the family's
# (injective) tuples.


def reference_table(p, k, leading, tail):
    F = prime_field(p)
    form = PowerSumForm(k, leading, tail)
    points = itertools.product(range(p), repeat=len(leading))
    return {x: form.eval([F.element(v) for v in x]).value for x in points}


def brute_force_cardinality(table, sets, restricted):
    n = len(sets)
    return len({table[x] for x in itertools.product(*sets) if not restricted or len(set(x)) == n})


def reference_profile_minima(p, table, n, restricted, cap):
    """{sizes: minimum cardinality} for every profile with all sizes <= cap."""
    subsets = [c for s in range(cap + 1) for c in itertools.combinations(range(p), s)]
    minima = {}
    for sets in itertools.product(subsets, repeat=n):
        sizes = tuple(len(s) for s in sets)
        count = brute_force_cardinality(table, sets, restricted)
        minima[sizes] = min(minima.get(sizes, count), count)
    return minima


# (p, largest n with every profile, largest n with profiles of sizes <= 2)
LATTICE_REFERENCE_CASES = {2: (4, 4), 3: (4, 4), 5: (3, 4), 7: (2, 3)}


@pytest.mark.parametrize("p", sorted(LATTICE_REFERENCE_CASES))
def test_lattice_route_equals_reference_profile_minima(p):
    full_n, capped_n = LATTICE_REFERENCE_CASES[p]
    for n in range(1, capped_n + 1):
        cap = p if n <= full_n else 2
        for restricted in (True, False):
            rng = random.Random(derive_seed("stream", p, n, restricted))
            k = rng.randint(1, 4)
            leading = random_leading(rng, n, p)
            tail = random_tail(rng, n, k)
            got = lattice_min_cardinality(p, k, leading, tail, restricted)
            assert got.dtype == np.uint8
            assert got.shape == (p + 1,) * n
            table = reference_table(p, k, leading, tail)
            for sizes, expected in reference_profile_minima(p, table, n, restricted, cap).items():
                assert got[sizes] == expected, (p, n, k, leading, tail, restricted, sizes)


def test_reference_counts_equal_the_exact_enumerator():
    for p, n in ((3, 3), (5, 2), (7, 2)):
        rng = random.Random(derive_seed("reference", p, n))
        k = rng.randint(1, 4)
        leading = random_leading(rng, n, p)
        tail = random_tail(rng, n, k)
        table = reference_table(p, k, leading, tail)
        form = PowerSumForm(k, leading, tail)
        for _ in range(20):
            sets = [random_subset(rng, p, rng.randint(1, p)) for _ in range(n)]
            fam = SetFamily.from_elements(prime_field(p), sets)
            for restricted, run in ((True, restricted_value_set), (False, unrestricted_value_set)):
                expected = run(fam, form).cardinality
                assert brute_force_cardinality(table, sets, restricted) == expected, (sets, restricted)


def test_min_cardinality_by_sizes_brute_force_p3():
    p, k = 3, 1
    subsets = [subsets_of_mask(p, m) for m in range(1 << p)]
    for restricted in (True, False):
        got = lattice_min_cardinality(p, k, (1, 1), restricted=restricted)
        assert got.shape == (4, 4)
        for s1 in range(p + 1):
            for s2 in range(p + 1):
                expected = min(
                    exact_value_mask(p, [a1, a2], k, restricted=restricted).bit_count() if s1 and s2 else 0
                    for a1 in subsets
                    for a2 in subsets
                    if len(a1) == s1 and len(a2) == s2
                )
                assert got[s1, s2] == expected, (s1, s2, restricted)


def test_lattice_route_agrees_with_per_family_route():
    # every nonempty GF(7), n = 2 family, both variants from one evaluation
    p, k = 7, 2
    rng = random.Random(derive_seed("routes", p, k))
    leading = random_leading(rng, 2, p)
    tail = random_tail(rng, 2, k)
    subsets = [c for s in range(1, p + 1) for c in itertools.combinations(range(p), s)]
    minima = {}
    for sets in itertools.product(subsets, repeat=2):
        sizes = tuple(len(s) for s in sets)
        counts = _family_counts(p, sets, k, leading, tail, (True, False))
        minima[sizes] = [min(c, m) for c, m in zip(counts, minima.get(sizes, counts))]
    for j, restricted in enumerate((True, False)):
        got = lattice_min_cardinality(p, k, leading, tail, restricted)
        for sizes, mins in minima.items():
            assert got[sizes] == mins[j], (sizes, restricted)


def test_streamed_lattice_route_memory():
    p, n, k = 7, 3, 2
    full_grid_bytes = (1 << p) ** n  # 2 MB
    lattice_min_cardinality(p, k, (1,) * n)  # warm numpy's lazy caches
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = lattice_min_cardinality(p, k, (1,) * n)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert peak - before < full_grid_bytes
    # a reference cycle would keep the folded slabs alive until a collection
    assert after - before <= result.nbytes + 4096


def test_byte_guards_refuse_before_allocating():
    assert (1 << 7) ** 4 <= LATTICE_BYTE_GUARD < (1 << 7) ** 5
    with pytest.raises(SearchSpaceTooLarge):
        lattice_min_cardinality(7, 2, (1,) * 5)  # 6.4 GB of slabs
    with pytest.raises(SearchSpaceTooLarge):
        family_cardinality_fast(13, [range(13)] * 7, 2)  # 13^7 tuples


def test_check_lattice_bounds_clean_and_tight():
    p, k, n = 5, 1, 2
    mc = lattice_min_cardinality(p, k, (1,) * n)

    def bound(sizes):
        if any(s < i for i, s in enumerate(sizes, start=1)):
            return None
        return residue_class_bound(sizes, k, prime_field(p).characteristic).value

    checked, violations, tight = check_lattice_bounds(mc, p, bound)
    assert checked == sum(
        1
        for sizes in itertools.product(range(1, p + 1), repeat=n)
        if all(s >= i for i, s in enumerate(sizes, start=1))
    )
    assert violations == ()
    assert any(t[0] == (1, 2) for t in tight)  # singleton + pair is always tight


def test_check_lattice_bounds_reports_synthetic_violation():
    p = 5
    mc = lattice_min_cardinality(p, 1, (1, 1))

    def inflated(sizes):
        if sizes != (2, 2):
            return None
        return int(mc[2, 2]) + 1

    checked, violations, tight = check_lattice_bounds(mc, p, inflated)
    assert checked == 1
    assert len(violations) == 1
    assert violations[0] == ((2, 2), int(mc[2, 2]) + 1, int(mc[2, 2]))
    assert tight == ()


# ---------- the per-family fast route ----------


@pytest.mark.parametrize("p", [11, 13])
def test_family_cardinality_fast_matches_exact(p):
    rng = random.Random(derive_seed("fast", p))
    for trial in range(12):
        n = rng.randint(1, 3)
        k = rng.randint(1, 3)
        restricted = rng.random() < 0.5
        leading = random_leading(rng, n, p)
        tail = random_tail(rng, n, k)
        sets = [random_subset(rng, p, rng.randint(max(1, i), 4)) for i in range(1, n + 1)]
        fast = family_cardinality_fast(p, sets, k, leading, tail, restricted)
        F = prime_field(p)
        fam = SetFamily.from_elements(F, sets)
        form = PowerSumForm(k, leading, tail)
        run = restricted_value_set if restricted else unrestricted_value_set
        assert fast == run(fam, form).cardinality, (trial, sets, k, restricted)


def test_family_cardinality_fast_degenerate():
    # identical singleton sets admit no injective pair
    assert family_cardinality_fast(11, [(3,), (3,)], 2) == 0
    assert family_cardinality_fast(11, [(3,), (3,)], 2, restricted=False) == 1
    assert family_cardinality_fast(11, [(0, 1, 2)], 1) == 3


# the largest prime p with (p-1)^2 < 2^63, and the next prime after it
LAST_INT64_PRIME, FIRST_PRIME_PAST_INT64 = 3_037_000_493, 3_037_000_507


@pytest.mark.parametrize("p", [2**31 - 1, LAST_INT64_PRIME])
def test_family_cardinality_fast_has_no_int64_overflow(p):
    # four products a*x near p^2 sum past 2^63 unless each is reduced first;
    # with k = 1 the wrapped sums merge values the exact enumerator keeps apart
    leading = (p - 1, p - 2, p - 3, p - 4)
    sets = [[0, 1, p - 1, p - 2, p - 5]] * 4
    fam = SetFamily.from_elements(prime_field(p), sets)
    for k in (1, 2):
        form = PowerSumForm(k, leading, SparsePoly.zero(4))
        for restricted, run in ((True, restricted_value_set), (False, unrestricted_value_set)):
            fast = family_cardinality_fast(p, sets, k, leading, None, restricted)
            assert fast == run(fam, form).cardinality, (k, restricted)


def test_residue_route_stops_where_int64_products_overflow():
    assert _residue_route_fits(LAST_INT64_PRIME)
    assert not _residue_route_fits(FIRST_PRIME_PAST_INT64)
    with pytest.raises(HypothesisViolated):
        family_cardinality_fast(FIRST_PRIME_PAST_INT64, [[0, 1], [2, 3]], 2)


@pytest.mark.parametrize(
    "leading, tail",
    [
        ((1, 1), parse_poly("x1*x2*x3", nvars=3)),  # a tail in three variables
        ((1, 1), parse_poly("x1^2 + x2", nvars=2)),  # tail degree >= k
        ((1, 14), None),  # a leading coefficient vanishing mod 7
        ((1, 1, 1), None),  # three coefficients for two sets
    ],
)
def test_family_cardinality_fast_refuses_bad_forms(leading, tail):
    with pytest.raises(HypothesisViolated):
        family_cardinality_fast(7, [[0, 1, 2], [3, 4]], 2, leading, tail)


@pytest.mark.parametrize("sets", [[[0, 7], [1, 2]], [[0, 7], [0, 1]]])
def test_family_cardinality_fast_refuses_elements_equal_mod_p(sets):
    # 0 and 7 are one element of GF(7), as SetFamily says
    with pytest.raises(HypothesisViolated):
        family_cardinality_fast(7, sets, 1)


def test_integer_grid_refuses_values_past_int64():
    # |u| <= 2^31 - 1 with two unit leading coefficients and k = 2 fits
    # int64; one step further the shapes no longer prove it
    top = 2**31 - 1
    assert _integer_route_fits(2, (1, 1), None, [[0, top], [-top]])
    assert not _integer_route_fits(2, (1, 1), None, [[0, top + 1], [-top]])
    assert _family_counts(None, [[0, top], [0, top]], 2, (1, 1), None, (True, False)) == (1, 3)
    with pytest.raises(HypothesisViolated):
        _family_counts(None, [[0, top + 1], [0, top]], 2, (1, 1), None, (True, False))
    # non-integer coefficients never take the integer grid
    assert not _integer_route_fits(1, (Fraction(1, 2),), None, [[0, 1]])
    assert not _integer_route_fits(2, (1,), SparsePoly(1, {(1,): Fraction(1, 3)}), [[0, 1]])
