"""Vectorized sweep routes cross-checked against the exact enumerator."""

import ast
import gc
import hashlib
import itertools
import json
import random
import sys
import tracemalloc
from fractions import Fraction
from math import prod
from pathlib import Path

import numpy as np
import pytest

from restrictedsums import (
    DEFAULT_TUPLE_GUARD,
    ArityMismatch,
    HypothesisViolated,
    NotPrime,
    PowerSumForm,
    SearchSpaceTooLarge,
    SetFamily,
    SparsePoly,
    check_lattice_bounds,
    derive_seed,
    lattice_min_cardinality,
    parse_poly,
    prime_field,
    random_tail,
    rational_field,
    residue_class_bound,
    restricted_value_set,
    unrestricted_value_set,
)
from restrictedsums import cli, sweeps
from restrictedsums.bounds import BOUNDS
from restrictedsums.enumeration import _enumerate
from restrictedsums.poly import _field_form
from restrictedsums.sweeps import (
    LATTICE_BYTE_GUARD,
    _family_counts,
    _fold_axis,
    _injective,
    _integer_route_fits,
    _merge_values,
    _profile_groups,
    _residue_route_fits,
    _residue_values,
    _value_counts,
    _value_table,
)
from sampling import random_leading, random_sizes, random_subset


def value_table(p, form):
    """The lattice's value table of a form, mapped into GF(p)."""
    return _value_table(_field_form(prime_field(p), form.n, form))


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


def test_random_tail_reaches_every_exponent_vector_below_k():
    # stars and bars draws each of the C(k - 1 + n, n) vectors of degree < k
    rng = random.Random(11)
    for n, k in [(1, 1), (1, 4), (2, 3), (3, 2), (3, 4)]:
        seen = set()
        for _ in range(400):
            seen.update(e for e, _c in random_tail(rng, n, k, max_terms=5).terms())
        want = {e for e in itertools.product(range(k), repeat=n) if sum(e) < k}
        assert seen == want, (n, k)


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
    table = value_table(p, form)
    assert table.shape == (p, p) and table.dtype == np.uint8
    for x1 in range(p):
        for x2 in range(p):
            value = form.eval((F.element(x1), F.element(x2))).value
            assert table[x1, x2] == 1 << value


def test_value_table_guards():
    with pytest.raises(HypothesisViolated):
        lattice_min_cardinality(11, 2, (1, 1))  # beyond the uint8 lattice limit
    # the form is checked once, by the entry that builds it
    with pytest.raises(HypothesisViolated):
        lattice_min_cardinality(5, 2, (5, 1))  # leading coefficient dies mod 5
    with pytest.raises(ArityMismatch):
        lattice_min_cardinality(5, 2, (1, 1), random_tail(random.Random(0), 3, 2))  # arity
    bad_tail = parse_poly("x1^3", nvars=2)
    with pytest.raises(HypothesisViolated):
        lattice_min_cardinality(5, 2, (1, 1), bad_tail)  # tail degree >= k
    for k in (0, -1, 2.0, True):  # k = -1 once looped forever in the grid's power chain
        with pytest.raises(HypothesisViolated):
            lattice_min_cardinality(5, k, (1, 1))
    for p in (4, 6, 8):  # Z/p is no field
        with pytest.raises(NotPrime):
            lattice_min_cardinality(p, 2, (1, 1))
    # a prime past the cap is refused for being one, before the bytes its
    # lattice would need are weighed (2.8 GB and 309 GB here)
    for p, n in ((13, 3), (11, 4)):
        with pytest.raises(HypothesisViolated, match="lattice route needs"):
            lattice_min_cardinality(p, 2, (1,) * n)
    # the byte estimate (3p+3)*(2^p)^(n-1) is a p*(n-1)-bit int: 20 MB for
    # GF(10,000,019), n = 4, were it built before the cap refused the prime
    tracemalloc.start()
    try:
        with pytest.raises(HypothesisViolated, match="lattice route needs"):
            lattice_min_cardinality(10_000_019, 2, (1,) * 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6


def test_residue_values_reduce_each_power():
    # each axis's column and each factor of a mixed monomial is reduced as
    # it is built: near p = 2^31 - 1 a product of two residues passes 2^61,
    # and the grid still equals f in the field at every tuple
    for p, k in ((13, 12), (2**31 - 1, 5)):
        sets = [[0, 1, 5, p - 1, p - 2], [2, 3, p - 4], [0, p - 7, p - 1, 11]]
        tail = parse_poly("3*x1^4 - x1*x2^2 + 5*x2^2*x3^2 - x3 - 7", nvars=3)
        form = _field_form(prime_field(p), 3, PowerSumForm(k, (p - 1, 2, p - 3), tail))
        grid = _residue_values(np.ix_(*[np.asarray(s, dtype=np.int64) for s in sets]), form)
        assert grid.shape == tuple(map(len, sets))
        for index in itertools.product(*map(range, grid.shape)):
            point = [form.field.element(s[i]) for s, i in zip(sets, index)]
            assert grid[index] == form.eval(point).value, (p, index)


# ---------- the fold of coordinate axes into subset axes ----------
#
# The lattice folds axes n..2 of the value table into subset axes, which
# leaves S[x, m_2, ..., m_n] = the values attained with x_1 = x; the OR of
# those slabs over the elements of A_1 is the family's attained-value mask.


def fold_trailing_axes(table, p, restricted):
    S = table
    if restricted:
        S = np.where(_injective(np.ix_(*[np.arange(p)] * table.ndim)), table, 0)
    for axis in range(table.ndim - 1, 0, -1):
        S = _fold_axis(S, axis, p)
    return S


def family_mask(S, p, masks):
    out = 0
    for x in subsets_of_mask(p, masks[0]):
        out |= int(S[(x, *masks[1:])])
    return out


@pytest.mark.parametrize("restricted", [True, False])
def test_fold_masks_exhaustive_p3(restricted):
    p, k = 3, 1
    S = fold_trailing_axes(value_table(p, PowerSumForm.unit(2, k)), p, restricted)
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
    S = fold_trailing_axes(value_table(p, PowerSumForm(k, leading, tail)), p, restricted)
    assert S.shape == (5, 32, 32)
    for _ in range(25):
        masks = [mask_of(random_subset(rng, p, rng.randint(1, p))) for _ in range(3)]
        sets = [subsets_of_mask(p, m) for m in masks]
        expected = exact_value_mask(p, sets, k, leading, tail, restricted)
        assert family_mask(S, p, masks) == expected, masks


def test_fold_masks_single_variable():
    p = 5
    S = fold_trailing_axes(value_table(p, PowerSumForm.unit(1, 2)), p, True)
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


@pytest.mark.parametrize("p", [5, 7])
def test_lattice_tiles_equal_reference_profile_minima(p, monkeypatch):
    # the walk runs on tiles of rows of the first subset axis: a budget of
    # one byte gives each row its own tile, and one of three rows leaves a
    # ragged last tile, since 3 never divides the 2^p rows
    full_n, _ = LATTICE_REFERENCE_CASES[p]
    walk = sweeps._walk_subsets
    tiles = []
    monkeypatch.setattr(sweeps, "_walk_subsets", lambda S, p: tiles.append(S.shape[1]) or walk(S, p))
    for n in (1, 2, 3):
        cap = p if n <= full_n else 2
        rows = 1 if n == 1 else 1 << p
        row_bytes = (1 << p) ** max(n - 2, 0)
        for restricted in (True, False):
            rng = random.Random(derive_seed("tiles", p, n, restricted))
            k = rng.randint(1, 4)
            leading = random_leading(rng, n, p)
            tail = random_tail(rng, n, k)
            expected = reference_profile_minima(p, reference_table(p, k, leading, tail), n, restricted, cap)
            for budget, widths in ((1, [1] * rows), (3 * row_bytes, [3] * (rows // 3) + [rows % 3])):
                monkeypatch.setattr(sweeps, "LATTICE_TILE_BYTES", budget)
                tiles.clear()
                got = lattice_min_cardinality(p, k, leading, tail, restricted)
                assert tiles == (widths if n > 1 else [1])
                assert got.dtype == np.uint8 and got.shape == (p + 1,) * n
                for sizes, want in expected.items():
                    assert got[sizes] == want, (p, n, restricted, budget, sizes)


# sha256 of the GF(7), n = 4 lattice's bytes for the three kinds of
# `sweep` input, each with a seeded tail: (k, unit leading coefficients,
# restricted) -> digest.  No reference case reaches GF(7), n = 4, the
# first shape where two trailing subset axes share one order of runs.
LATTICE_PINS = {
    (3, True, True): "2227769308e921277219d7f8b23691cb4bb98216cd0049f08f9798af90791d79",
    (2, False, False): "d581ccda34cf73b14d0756a38b1d715f9b9b15aa3b2959aa828554df1fec98e7",
    (5, False, True): "b37aac18e88eb9639a7bc130ba48e639f6ecf4018358077f4b6cd8d00bc12a3b",
}


@pytest.mark.parametrize("k, unit, restricted", sorted(LATTICE_PINS))
def test_gf7_n4_lattices_are_pinned(k, unit, restricted):
    rng = random.Random(derive_seed("lattice-pin", k, unit, restricted))
    leading = (1,) * 4 if unit else random_leading(rng, 4, 7)
    got = lattice_min_cardinality(7, k, leading, random_tail(rng, 4, k), restricted)
    assert got.shape == (8,) * 4
    assert hashlib.sha256(got.tobytes()).hexdigest() == LATTICE_PINS[k, unit, restricted]


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
    form = _field_form(prime_field(p), 2, PowerSumForm(k, leading, tail))
    subsets = [c for s in range(1, p + 1) for c in itertools.combinations(range(p), s)]
    minima = {}
    for sets in itertools.product(subsets, repeat=2):
        sizes = tuple(len(s) for s in sets)
        (counts,) = _family_counts(sets, (form,), (True, False))
        minima[sizes] = [min(c, m) for c, m in zip(counts, minima.get(sizes, counts))]
    for j, restricted in enumerate((True, False)):
        got = lattice_min_cardinality(p, k, leading, tail, restricted)
        for sizes, mins in minima.items():
            assert got[sizes] == mins[j], (sizes, restricted)


def test_profile_groups_list_each_profile_in_one_run():
    # run j holds exactly the flat positions, in C order over the subset
    # axes, whose popcount vector is the j-th profile in C order
    for p, axes in itertools.product((2, 3, 5, 7), (0, 1, 2)):
        order, starts = _profile_groups(p, axes)
        expected = [[] for _ in range((p + 1) ** axes)]
        for flat, masks in enumerate(itertools.product(range(1 << p), repeat=axes)):
            profile = 0
            for m in masks:
                profile = profile * (p + 1) + m.bit_count()
            expected[profile].append(flat)
        assert sorted(order.tolist()) == list(range((1 << p) ** axes))
        bounds = [*starts.tolist(), len(order)]
        assert [sorted(order[a:b].tolist()) for a, b in zip(bounds, bounds[1:])] == expected, (p, axes)
        if axes == 0:
            assert order.tolist() == [0] and starts.tolist() == [0]


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


def test_tiled_lattice_route_memory():
    # GF(7), n = 4: the folded slabs take 14 MB; each tile's walk and its
    # reduction add about 2 MB, where the untiled walk peaked near 50 MB
    p, n, k = 7, 4, 2
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
    assert peak - before < 24 * 10**6
    assert after - before <= result.nbytes + 4096


def test_byte_guards_refuse_before_allocating():
    assert (1 << 7) ** 4 <= LATTICE_BYTE_GUARD < (1 << 7) ** 5
    with pytest.raises(SearchSpaceTooLarge):
        lattice_min_cardinality(7, 2, (1,) * 5)  # 6.4 GB of slabs
    fam = SetFamily.from_elements(prime_field(13), [range(13)] * 7)
    with pytest.raises(SearchSpaceTooLarge):  # 13^7 tuples, past the tuple guard
        _value_counts(fam, (_field_form(fam.field, 7, PowerSumForm.unit(7, 2)),), (True,), DEFAULT_TUPLE_GUARD)


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
    assert all(type(mc) is int for _, _, mc in violations + tight)


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


# ---------- the per-family int64 grid ----------


# the largest prime p with (p-1)^2 < 2^63, and the next prime after it
LAST_INT64_PRIME, FIRST_PRIME_PAST_INT64 = 3_037_000_493, 3_037_000_507


def test_residue_route_stops_where_int64_products_overflow():
    assert _residue_route_fits(LAST_INT64_PRIME)
    assert not _residue_route_fits(FIRST_PRIME_PAST_INT64)


# These four keep the names of `family_cardinality_fast`, the per-family
# entry that took raw residues; each now checks the entry or the type that
# refuses the same input.

GF7_PAIR = SetFamily.from_elements(prime_field(7), [[0, 1, 2], [3, 4]])


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
    # a count of variables other than two is an ArityMismatch, as on every route
    arity = len(leading) != 2 or tail is not None and tail.nvars != 2
    with pytest.raises(ArityMismatch if arity else HypothesisViolated):
        f = PowerSumForm(2, leading, tail if tail is not None else SparsePoly.zero(len(leading)))
        _value_counts(GF7_PAIR, (_field_form(GF7_PAIR.field, 2, f),), (True,), DEFAULT_TUPLE_GUARD)


@pytest.mark.parametrize("k", [0, -1, 2.0, True])
def test_family_cardinality_fast_refuses_bad_k(k):
    with pytest.raises(HypothesisViolated):
        _value_counts(GF7_PAIR, (_field_form(GF7_PAIR.field, 2, PowerSumForm.unit(2, k)),), (True,), DEFAULT_TUPLE_GUARD)


@pytest.mark.parametrize("p", [1, 4, 9, 3_037_000_493 * 3])
def test_family_cardinality_fast_refuses_composite_p(p):
    # the lattice, the one entry left that takes p itself, builds GF(p) first
    with pytest.raises(NotPrime):
        lattice_min_cardinality(p, 2, (1, 1))


@pytest.mark.parametrize("sets", [[[0, 7], [1, 2]], [[0, 7], [0, 1]]])
def test_family_cardinality_fast_refuses_elements_equal_mod_p(sets):
    # 0 and 7 are one element of GF(7): no family, so no route, holds such a set
    with pytest.raises(ValueError, match="duplicate"):
        SetFamily.from_elements(prime_field(7), sets)


def test_integer_grid_refuses_values_past_int64():
    # |u| <= 2^31 - 1 with two unit leading coefficients and k = 2 fits
    # int64; one step further the shapes no longer prove it
    top = 2**31 - 1
    form = _field_form(rational_field(), 2, PowerSumForm.unit(2, 2))
    assert _integer_route_fits(form, [[0, top], [-top]])
    assert not _integer_route_fits(form, [[0, top + 1], [-top]])
    assert _family_counts([[0, top], [0, top]], (form,), (True, False)) == ((1, 3),)


# ---------- the route chooser of the CLI scans ----------


def value_counts_cases():
    """(field, family sets, form, whether it takes the int64 grid), seeded:
    GF(13) and small rationals fit the grid; at GF(3 037 000 507) residue
    products overflow int64, and denominators near 10^6 at k = 4 put L^4
    alone past 2^63, so those two go to the exact enumerator.  Then a
    degenerate family, and residues near the largest primes the grid takes."""
    rng = random.Random(derive_seed("value-counts"))
    big = 3_037_000_507
    near_million = [Fraction(a, q) for q in (999_983, 999_979, 999_961) for a in (1, -2)]
    small = [Fraction(a, b) for a in range(-5, 6) for b in (1, 2, 3)]
    for _ in range(4):
        n = rng.randint(1, 4)
        k = rng.randint(1, 4)
        sets = [random_subset(rng, 13, rng.randint(1, 5)) for _ in range(n)]
        yield prime_field(13), sets, PowerSumForm(k, random_leading(rng, n, 13), random_tail(rng, n, k)), True

        pool = [0, 1, 2, big - 1, big - 2, big // 2]
        sets = [sorted(rng.sample(pool, rng.randint(1, 3))) for _ in range(n)]
        yield prime_field(big), sets, PowerSumForm(k, random_leading(rng, n, big), random_tail(rng, n, k)), False

        sets = [sorted(set(rng.sample(small, rng.randint(1, 4)))) for _ in range(n)]
        leading = [rng.choice((-3, -1, 1, 2, 5)) for _ in range(n)]
        yield rational_field(), sets, PowerSumForm(k, leading, random_tail(rng, n, k)), True

        sets = [sorted({rng.choice(near_million), *rng.sample(small[:4], rng.randint(0, 2))}) for _ in range(n)]
        yield rational_field(), sets, PowerSumForm(4, leading, random_tail(rng, n, 4)), False

    # Fraction coefficients: the form is scaled by the lcm of their
    # denominators as well, so it takes the grid
    thirds = [[0, 1, Fraction(1, 2)], [0, 2, Fraction(-1, 3)]]
    yield rational_field(), thirds, PowerSumForm(2, (Fraction(1, 2), 3), SparsePoly.zero(2)), True
    yield rational_field(), thirds, PowerSumForm(2, (1, 1), SparsePoly(2, {(1, 0): Fraction(1, 3)})), True

    # identical singletons admit no injective pair, and one plain tuple
    yield prime_field(11), [[3], [3]], PowerSumForm.unit(2, 2), True
    # four products a*x near p^2 sum past 2^63 unless each is reduced first;
    # with k = 1 the wrapped sums would merge values the enumerator keeps apart
    for p in (2**31 - 1, LAST_INT64_PRIME):
        for k in (1, 2):
            form = PowerSumForm(k, (p - 1, p - 2, p - 3, p - 4), SparsePoly.zero(4))
            yield prime_field(p), [[0, 1, p - 1, p - 2, p - 5]] * 4, form, True


def test_value_counts_matches_exact_enumerator(monkeypatch):
    grid_calls = []
    real = sweeps._family_counts
    monkeypatch.setattr(sweeps, "_family_counts", lambda sets, forms, *a: grid_calls.extend(forms) or real(sets, forms, *a))
    routes = []
    for field, sets, f, grid in value_counts_cases():
        fam = SetFamily.from_elements(field, sets)
        exact = {True: restricted_value_set(fam, f).cardinality, False: unrestricted_value_set(fam, f).cardinality}
        space = prod(fam.sizes)
        for variants in ((True,), (False,), (True, False), (False, True)):
            grid_calls.clear()
            (got,) = _value_counts(fam, (_field_form(field, fam.n, f),), variants, space)  # a guard of exactly the family's size
            assert got == tuple(exact[v] for v in variants), (field, sets, f, variants)
            assert len(grid_calls) == int(grid), (field, sets, f)
        routes.append(grid)
    assert (routes.count(True), routes.count(False)) == (15, 8)


def test_value_counts_tuple_guard_is_the_enumerators():
    # one family on the residue grid, one past it on the exact enumerator
    for p, sets in ((13, [[0, 1], [1, 2, 3], [4, 5]]), (3_037_000_507, [[0, 1], [1, 2, 3]])):
        fam = SetFamily.from_elements(prime_field(p), sets)
        f = PowerSumForm.unit(fam.n, 2)
        space = prod(fam.sizes)
        with pytest.raises(SearchSpaceTooLarge) as ours:
            _value_counts(fam, (_field_form(fam.field, fam.n, f),), (True, False), space - 1)
        with pytest.raises(SearchSpaceTooLarge) as theirs:
            restricted_value_set(fam, f, guard_tuples=space - 1)
        assert str(ours.value) == str(theirs.value) == f"family spans {space} tuples, guard is {space - 1}"
        form = _field_form(fam.field, fam.n, f)
        assert _value_counts(fam, (form,), (False,), space) == ((unrestricted_value_set(fam, f).cardinality,),)


def multi_form_cases():
    """(name, family, the forms of its k, whether a box of it marks a
    residue table, the forms counted on the grid): GF(13) counts in a table
    of 13 flags, GF(2^31 - 1) by sorting; over Q, u = 42x reaches 54000, so
    k = 3 takes the scaled grid and k = 4 the enumerator; then a family
    with no injective tuple, and n = 1."""
    gf13, big = prime_field(13), prime_field(2**31 - 1)

    def forms(field, n, ks, leading, tail):
        return tuple(_field_form(field, n, PowerSumForm(k, leading, parse_poly(tail, n))) for k in ks)

    sets = [[0, 1, 2, 5, 8], [1, 3, 4, 6, 7, 9], [0, 2, 4, 8, 9, 11, 12]]
    yield "gf13", SetFamily.from_elements(gf13, sets), forms(gf13, 3, (2, 3, 4), (3, 1, 12), "2 - 3*x1 + x3"), True, 3
    p = big.p
    sets = [[0, 1, p - 1, p - 2], [2, 3, p - 4], [0, 5, p - 9]]
    yield "sort", SetFamily.from_elements(big, sets), forms(big, 3, (3, 4), (p - 1, 2, 5), "x1*x2 - x3 + 1"), False, 2
    sets = [[0, Fraction(1, 2), Fraction(9000, 7)], [-1, Fraction(2, 3), 3], [0, 1, Fraction(-5, 2)]]
    rational = forms(rational_field(), 3, (3, 4), (2, -3, 5), "x1*x2 - 2*x3 + 1/2")
    yield "rational", SetFamily.from_elements(rational_field(), sets), rational, False, 1
    yield "no-injective", SetFamily.from_elements(gf13, [[3], [3]]), forms(gf13, 2, (1, 2, 3), (1, 1), "0"), False, 3
    n1 = forms(gf13, 1, (1, 2, 3, 4), (5,), "1")
    yield "n1", SetFamily.from_elements(gf13, [list(range(13))]), n1, True, 4


def test_value_counts_of_many_forms_match_one_form_and_the_enumerator(monkeypatch):
    # one call for all of a family's forms gives each form what a call for
    # it alone gives, and what the exact enumerator gives, with and without
    # witnesses, and so do slabs of 1, 7 and 30 tuples
    grid_forms, tables = [], []
    real_counts, real_merge = sweeps._family_counts, sweeps._merge_values

    def merge(*args):  # records whether each merge left a residue table
        merged = real_merge(*args)
        tables.append(merged.dtype == bool)
        return merged

    monkeypatch.setattr(sweeps, "_family_counts", lambda sets, forms, *a: grid_forms.extend(forms) or real_counts(sets, forms, *a))
    monkeypatch.setattr(sweeps, "_merge_values", merge)
    variants = (True, False)
    for tuples in (None, 1, 7, 30):
        for name, family, forms, table, on_grid in multi_form_cases():
            if tuples:
                monkeypatch.setattr(sweeps, "LATTICE_BYTE_GUARD", 8 * (family.n + 3) * tuples)
            for witnesses in (False, True):
                grid_forms.clear()
                tables.clear()
                together = _value_counts(family, forms, variants, DEFAULT_TUPLE_GUARD, witnesses)
                assert len(grid_forms) == on_grid, name
                if not witnesses:
                    # a box of fewer than 13 tuples sorts its values
                    assert any(tables) == (table and tuples not in (1, 7)), (name, tuples)
                assert len(together) == len(forms)
                for form, got in zip(forms, together):
                    assert _value_counts(family, (form,), variants, DEFAULT_TUPLE_GUARD, witnesses) == (got,)
                    exact = [_enumerate(family, form, restricted, DEFAULT_TUPLE_GUARD, witnesses) for restricted in variants]
                    if witnesses:
                        assert got == tuple(exact), (name, form.k, tuples)
                        assert [list(run.witnesses) for run in got] == [list(run.witnesses) for run in exact]
                    else:
                        assert got == tuple(run.cardinality for run in exact), (name, form.k, tuples)
                    restricted_count = got[0].cardinality if witnesses else got[0]
                    assert (restricted_count == 0) == (name == "no-injective")


def test_merge_values_keeps_each_residue_once():
    # a box of at least p = 13 tuples marks a table of 13 flags, which takes
    # every later box and keeps the sorted values of the boxes before it
    boxes = [[3, 3, 12], [0, 5, 3, 7, 0, 1, 2, 4, 8, 9, 3, 3, 3, 6], [12, 11], []]
    for order in itertools.permutations([np.array(b, dtype=np.int64) for b in boxes]):
        seen = None
        for vals in order:
            seen = _merge_values(seen, vals, 13, vals.size)
        got = np.flatnonzero(seen) if seen.dtype == bool else seen
        assert got.tolist() == [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12]


def test_one_form_mapping_per_scan_k(tmp_path, capsys, monkeypatch):
    # a scan maps its form into the field once per k, a replay once; the
    # bounds and the route chooser read the mapped form and map nothing
    calls = []
    real = _field_form

    def counting(*args):
        calls.append(args[0])
        return real(*args)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "restrictedsums" and "_field_form" in vars(module):
            monkeypatch.setattr(module, "_field_form", counting)
    gf13 = prime_field(13)
    scan = {
        "field": "gf(13)",
        "k": [2, 4],
        "bounds": ["thm12", "thm13", "thm11u", "thm11r", "conj11"],
        "tail": "1 - 2*x1 + x3",
        "families": [[[0, 1, 2, 5], [1, 3, 4, 6, 7], [0, 2, 4, 8, 9, 12]], [[0, 1, 2, 3, 4]] * 3],
    }
    replay = {"family": {"field": "gf(13)", "sets": [list(range(6)), list(range(7)), list(range(8))]},
              "k": 2, "expand_certificate": True}
    for verb, cfg, mappings in (("tightness", scan, 3), ("proof-replay", replay, 1)):
        calls.clear()
        path = tmp_path / f"{verb}.json"
        path.write_text(json.dumps(cfg))
        assert cli.main([verb, "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        assert calls == [gf13] * mappings, verb
    capsys.readouterr()
    for field, sets in ((gf13, [[0, 1], [1, 2, 3], [4, 5]]), (prime_field(3_037_000_507), [[0, 1], [1, 2, 3], [4, 5]]),
                        (rational_field(), [[0, Fraction(1, 2)], [1, 2, 3], [4, 5]])):
        fam = SetFamily.from_elements(field, sets)
        form = real(field, 3, PowerSumForm(2, (1, 2, 3), parse_poly("x1 + 1", 3)))
        calls.clear()
        for bound in BOUNDS.values():
            bound.evaluate(fam, form)
        _value_counts(fam, (form,), (True, False), DEFAULT_TUPLE_GUARD)
        assert calls == []


def package_calls():
    """(module, innermost enclosing function or None, called name) for every
    call of a name or an attribute in the package's source."""
    found = []

    def visit(node, module, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                found.append((module, owner, func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)))
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
            visit(child, module, inner)

    for path in sorted(Path(sweeps.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path.name, None)
    return found


def test_value_counts_is_the_one_entry_to_the_int64_grid():
    # the route chooser alone reaches the grid, so the grid trusts its choice
    calls = package_calls()
    assert [(module, owner) for module, owner, name in calls if name == "_family_counts"] == [
        ("sweeps.py", "_value_counts")
    ]
    in_grid = {name for module, owner, name in calls if (module, owner) == ("sweeps.py", "_family_counts")}
    assert in_grid and not in_grid & {"_residue_route_fits", "_integer_route_fits"}
