"""Exhaustive value-set enumeration: the ground truth every bound is
checked against."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from restrictedsums import (
    ArityMismatch,
    ConfigError,
    HypothesisViolated,
    Infeasible,
    MultiplicityProfile,
    PowerSumForm,
    SearchSpaceTooLarge,
    SetFamily,
    SparsePoly,
    family_from_json,
    family_to_json,
    multiplicity_value_set,
    parse_poly,
    prime_field,
    rational_field,
    restricted_value_set,
    roots_model_cardinality,
    unrestricted_value_set,
)


# ---------- families ----------


def test_family_normalizes_and_sorts():
    F = prime_field(7)
    fam = SetFamily.from_elements(F, [[3, 1, 2], [6, 0]])
    assert fam.n == 2
    assert fam.sizes == (3, 2)
    assert [e.value for e in fam.sets[0]] == [1, 2, 3]
    assert [e.value for e in fam.sets[1]] == [0, 6]


def test_family_rejects_duplicates():
    F = prime_field(7)
    with pytest.raises(ValueError):
        SetFamily.from_elements(F, [[1, 8]])  # 8 == 1 mod 7


def test_family_subfamily():
    F = prime_field(7)
    fam = SetFamily.from_elements(F, [[0, 1, 2, 3], [4, 5, 6]])
    sub = fam.subfamily((2, 3))
    assert sub.sizes == (2, 3)
    assert [e.value for e in sub.sets[0]] == [0, 1]
    with pytest.raises(HypothesisViolated):
        fam.subfamily((5, 3))
    with pytest.raises(ArityMismatch):
        fam.subfamily((2,))


def test_family_json_round_trip():
    fam = family_from_json('{"field": "gf(7)", "sets": [[0, 1, 2], [3, 5]]}')
    assert fam.field == prime_field(7)
    assert fam.sizes == (3, 2)
    assert family_from_json(family_to_json(fam)) == fam


def test_family_json_rational_fractions():
    fam = family_from_json({"field": "rational", "sets": [[0, "1/2", 3], [1]]})
    from fractions import Fraction

    assert fam.sets[0][1].value == Fraction(1, 2)
    encoded = family_to_json(fam)
    assert encoded["sets"][0] == [0, "1/2", 3]
    assert family_from_json(encoded) == fam


def test_family_json_errors():
    with pytest.raises(ConfigError):
        family_from_json({"field": "gf(7)"})
    with pytest.raises(ConfigError):
        family_from_json({"field": "gf(6)", "sets": [[0]]})
    with pytest.raises(ConfigError):
        family_from_json({"field": "gf(7)", "sets": [[0]], "extra": 1})
    with pytest.raises(ConfigError):
        family_from_json({"field": "gf(7)", "sets": [[1, 8]]})
    with pytest.raises(ConfigError):
        family_from_json([1, 2])


# ---------- restricted / unrestricted enumeration ----------


def test_restricted_pair_sum_rational():
    Q = rational_field()
    fam = SetFamily.from_elements(Q, [[0, 1], [0, 1]])
    got = restricted_value_set(fam, PowerSumForm.unit(2, 1))
    assert got.cardinality == 1
    assert [v.value for v in got.values] == [1]
    assert got.restricted
    assert got.tuples_examined == 2  # (0,1) and (1,0)


def test_restricted_squares_gf7():
    F = prime_field(7)
    fam = SetFamily.from_elements(F, [[0, 1, 2], [0, 1, 2]])
    got = restricted_value_set(fam, PowerSumForm.unit(2, 1))
    assert sorted(v.value for v in got.values) == [1, 2, 3]


def test_restricted_no_injective_tuple():
    F = prime_field(7)
    fam = SetFamily.from_elements(F, [[3], [3]])
    got = restricted_value_set(fam, PowerSumForm.unit(2, 1))
    assert got.cardinality == 0
    assert got.values == ()


def test_unrestricted_includes_diagonal():
    F = prime_field(5)
    fam = SetFamily.from_elements(F, [[0, 1], [0, 1]])
    got = unrestricted_value_set(fam, PowerSumForm.unit(2, 1))
    assert sorted(v.value for v in got.values) == [0, 1, 2]
    assert got.tuples_examined == 4
    assert not got.restricted


def test_unrestricted_singletons():
    F = prime_field(5)
    fam = SetFamily.from_elements(F, [[2], [3]])
    got = unrestricted_value_set(fam, PowerSumForm.unit(2, 3))
    assert got.cardinality == 1
    assert got.values[0] == F.embed(8 + 27)


def test_enumeration_with_tail_and_leading():
    # f = 2 x1^2 + x2^2 + x1 over gf(5) on {0,1} x {0,1}
    F = prime_field(5)
    fam = SetFamily.from_elements(F, [[0, 1], [0, 1]])
    f = PowerSumForm(2, (2, 1), parse_poly("x1", nvars=2))
    got = unrestricted_value_set(fam, f)
    # tuples: (0,0)->0, (0,1)->1, (1,0)->3, (1,1)->4
    assert sorted(v.value for v in got.values) == [0, 1, 3, 4]


def test_collect_witnesses():
    F = prime_field(7)
    fam = SetFamily.from_elements(F, [[0, 1, 2], [0, 1, 2]])
    got = restricted_value_set(fam, PowerSumForm.unit(2, 2), collect_witnesses=True)
    assert set(got.witnesses) == set(got.values)
    for value, point in got.witnesses.items():
        assert len({x.value for x in point}) == 2  # injective
        assert point[0] ** 2 + point[1] ** 2 == value


def test_form_family_shape_mismatches():
    F = prime_field(7)
    fam = SetFamily.from_elements(F, [[0, 1], [0, 1]])
    with pytest.raises(ArityMismatch):
        restricted_value_set(fam, PowerSumForm.unit(3, 1))
    other = prime_field(5)
    bad = PowerSumForm(1, (other.element(1), other.element(1)), SparsePoly.zero(2))
    from restrictedsums import FieldMismatch

    with pytest.raises(FieldMismatch):
        restricted_value_set(fam, bad)


def test_search_space_guard():
    F = prime_field(7)
    fam = SetFamily.from_elements(F, [[0, 1, 2, 3]] * 3)
    with pytest.raises(SearchSpaceTooLarge, match="64"):
        restricted_value_set(fam, PowerSumForm.unit(3, 2), guard_tuples=50)


# ---------- multiplicity model ----------


def test_multiplicity_profile_frozen_example():
    # k = 2, q = 2, r = 1: targets 1, 1, 2, 2, 3; choose 2 distinct roots
    profile = MultiplicityProfile(k=2, q=2, r=1, n=2)
    got = multiplicity_value_set(profile)
    assert got.values == (2, 3, 4, 5)
    assert got.cardinality == 4


def test_multiplicity_consecutive_for_k1():
    # k = 1: one root per target, sums of n distinct targets are consecutive
    for q in range(1, 8):
        for n in range(1, q + 1):
            got = multiplicity_value_set(MultiplicityProfile(k=1, q=q, r=0, n=n))
            lo = n * (n + 1) // 2
            hi = sum(range(q, q - n, -1))
            assert got.values == tuple(range(lo, hi + 1))


def test_multiplicity_full_selection_is_single_valued():
    got = multiplicity_value_set(MultiplicityProfile(k=3, q=2, r=1, n=7))
    assert got.cardinality == 1


def test_multiplicity_matches_roots_model_formula():
    for k in range(1, 6):
        for q in range(0, 5):
            for r in range(0, k):
                m = k * q + r
                for n in range(1, m + 1):
                    profile = MultiplicityProfile(k=k, q=q, r=r, n=n)
                    assert (
                        multiplicity_value_set(profile).cardinality
                        == roots_model_cardinality(n, k, q, r).value
                    ), (n, k, q, r)


def test_multiplicity_guards():
    with pytest.raises(Infeasible):
        MultiplicityProfile(k=2, q=1, r=1, n=4)
    with pytest.raises(HypothesisViolated):
        MultiplicityProfile(k=2, q=1, r=2, n=1)
    assert MultiplicityProfile(k=2, q=2, r=1, n=2).size == 5


# ---------- cross-route properties ----------


@st.composite
def small_family_and_form(draw):
    p = draw(st.sampled_from([3, 5, 7]))
    n = draw(st.integers(min_value=1, max_value=3))
    k = draw(st.integers(min_value=1, max_value=3))
    F = prime_field(p)
    sets = []
    for i in range(1, n + 1):
        size = draw(st.integers(min_value=min(i, p), max_value=p))
        sets.append(sorted(draw(st.permutations(range(p)))[:size]))
    return SetFamily.from_elements(F, sets), PowerSumForm.unit(n, k)


@given(small_family_and_form())
def test_restricted_subset_of_unrestricted(fam_and_form):
    fam, f = fam_and_form
    res = restricted_value_set(fam, f)
    unres = unrestricted_value_set(fam, f)
    assert set(res.values) <= set(unres.values)
    assert res.tuples_examined <= unres.tuples_examined


@given(small_family_and_form())
def test_enumeration_deterministic(fam_and_form):
    fam, f = fam_and_form
    first = restricted_value_set(fam, f, collect_witnesses=True)
    second = restricted_value_set(fam, f, collect_witnesses=True)
    assert first.values == second.values
    assert first.witnesses == second.witnesses
