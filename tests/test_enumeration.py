"""Exhaustive value-set enumeration: the ground truth every bound is
checked against."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from restrictedsums import (
    DEFAULT_TUPLE_GUARD,
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
    lattice_min_cardinality,
    multiplicity_value_set,
    parse_poly,
    prime_field,
    proof_replay,
    rational_field,
    restricted_value_set,
    roots_model_cardinality,
    unrestricted_value_set,
)
from restrictedsums.bounds import BOUNDS
from restrictedsums.poly import _field_form
from restrictedsums.sweeps import _value_counts


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


def test_family_shared_set():
    F, Q = prime_field(7), rational_field()
    cases = [
        (F, [[0, 1, 2]], True),
        (F, [[2, 0, 1], [1, 2, 7]], True),  # sorted, and 7 == 0 mod 7
        (F, [[0, 1, 2]] * 3 + [[0, 1, 3]], False),  # same sizes, one element apart
        (F, [[0, 1], [0, 1, 2]], False),  # a prefix
        (Q, [[Fraction(1, 2), 3]] * 2, True),
        (Q, [[Fraction(1, 2), 3], [Fraction(1, 3), 3]], False),
    ]
    for field, sets, shared in cases:
        fam = SetFamily.from_elements(field, sets)
        assert fam.shared_set is shared, sets
        assert fam.__dict__["shared_set"] is shared  # answered once per family
        assert fam == SetFamily.from_elements(field, sets)  # the cache is no field


def test_family_sizes_are_read_once():
    sets = [[0, 1, 2], [3], [1, 4, 5, 6]]
    fam = SetFamily.from_elements(prime_field(7), sets)
    assert fam.sizes == (3, 1, 4)
    assert fam.__dict__["sizes"] is fam.sizes  # worked out once per family
    assert fam == SetFamily.from_elements(prime_field(7), sets)  # the cache is no field
    assert fam.subfamily((2, 1, 3)).sizes == (2, 1, 3)


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
    with pytest.raises(HypothesisViolated):  # leading coefficients are plain numbers
        PowerSumForm(1, (other.element(1), other.element(1)), SparsePoly.zero(2))


# ---------- what a valid form is, on every route ----------

GF7 = prime_field(7)
TWO_SETS = [[0, 1, 2], [3, 4]]

# (k, leading, tail) on the two sets over GF(7), and the class every route
# refuses it with
BAD_FORMS = [
    (2, (1, 7), None, HypothesisViolated),  # a leading coefficient = 0 mod 7
    (2, (Fraction(1, 2), 1), None, HypothesisViolated),  # no element of GF(7)
    (2, (GF7.element(1), 1), None, HypothesisViolated),  # leading coefficients are plain numbers
    (0, (1, 1), None, HypothesisViolated),
    (-1, (1, 1), None, HypothesisViolated),
    (2.0, (1, 1), None, HypothesisViolated),
    (True, (1, 1), None, HypothesisViolated),
    (2, (1, 1), parse_poly("x1^2 + x2", nvars=2), HypothesisViolated),  # tail degree >= k
    (2, (1, 1), parse_poly("x1*x2*x3", nvars=3), ArityMismatch),  # a tail in three variables
    (2, (1, 1, 1), None, ArityMismatch),  # three variables for two sets
    (2, (1, 1), SparsePoly(2, {(1, 0): Fraction(1, 2)}), HypothesisViolated),  # a tail coefficient not in GF(7)
]


@pytest.mark.parametrize("k, leading, tail, error", BAD_FORMS)
def test_every_route_refuses_the_same_forms(k, leading, tail, error):
    if len(leading) == len(TWO_SETS):  # the lattice takes n from the form
        with pytest.raises(error):
            lattice_min_cardinality(7, k, leading, tail)
    try:
        f = PowerSumForm(k, leading, tail if tail is not None else SparsePoly.zero(len(leading)))
    except error:
        return  # no route can be handed this form
    fam = SetFamily.from_elements(GF7, TWO_SETS)
    routes = [
        lambda: restricted_value_set(fam, f),
        lambda: unrestricted_value_set(fam, f),
        lambda: _value_counts(fam, (_field_form(GF7, fam.n, f),), (True, False), DEFAULT_TUPLE_GUARD),
    ]
    if set(leading) == {1}:  # the replay takes k and the tail, and its leading coefficients are 1
        routes.append(lambda: proof_replay(fam, k, tail=f.tail))
    for route in routes:
        with pytest.raises(error):
            route()


def test_leading_coefficients_are_read_in_the_field_on_every_route():
    # 8 = 1 in GF(7): the unit-coefficient bounds accept it
    fam = SetFamily.from_elements(GF7, [[0, 1, 2, 3], [0, 1, 2, 3, 4], [1, 2, 3, 4, 5]])
    eights, ones = PowerSumForm(2, (8, 8, 8), SparsePoly.zero(3)), PowerSumForm.unit(3, 2)
    thm12 = BOUNDS["thm12"]
    assert thm12.evaluate(fam, _field_form(GF7, 3, eights)) == thm12.evaluate(fam, _field_form(GF7, 3, ones)) == 4
    assert restricted_value_set(fam, eights).values == restricted_value_set(fam, ones).values
    # over Q a fraction is a valid coefficient, and scaling the whole form
    # by a nonzero constant keeps every count
    QQ = rational_field()
    fam = SetFamily.from_elements(QQ, [[0, 1, Fraction(1, 2)], [2, Fraction(-1, 3), 5]])
    half = PowerSumForm(2, (Fraction(1, 2), 3), parse_poly("x1 - 1", nvars=2))
    doubled = PowerSumForm(2, (1, 6), parse_poly("2*x1 - 2", nvars=2))
    counts = (restricted_value_set(fam, half).cardinality, unrestricted_value_set(fam, half).cardinality)
    half, doubled, unit = (_field_form(QQ, 2, f) for f in (half, doubled, PowerSumForm.unit(2, 2)))
    assert _value_counts(fam, (half, doubled), (True, False), DEFAULT_TUPLE_GUARD) == (counts, counts)
    assert BOUNDS["thm11u"].evaluate(fam, half) == BOUNDS["thm11u"].evaluate(fam, unit)


def test_cardinality_is_the_number_of_values_on_every_constructor():
    # the enumerator, the multiplicity model and the int64 grid with
    # witnesses each build a ValueSetResult; its cardinality is read off
    # its values
    fam = SetFamily.from_elements(GF7, [[0, 1, 2, 3], [0, 1, 2, 3, 4], [1, 2, 3, 4, 5]])
    f = PowerSumForm.unit(3, 2, parse_poly("x1 + 1", nvars=3))
    (grid,) = _value_counts(fam, (_field_form(GF7, 3, f),), (True, False), DEFAULT_TUPLE_GUARD, witnesses=True)
    results = [
        restricted_value_set(fam, f, collect_witnesses=True),
        unrestricted_value_set(fam, f),
        multiplicity_value_set(MultiplicityProfile(k=2, q=2, r=1, n=3)),
        *grid,
    ]
    for result in results:
        assert result.cardinality == len(result.values) > 0
    assert grid[0].values == results[0].values


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
                    got = multiplicity_value_set(profile)
                    assert got.cardinality == roots_model_cardinality(n, k, q, r).value, (n, k, q, r)
                    # the guard's count is the number of vectors visited
                    assert got.tuples_examined == profile.vectors, (n, k, q, r)


def test_multiplicity_vectors_are_the_generating_function_coefficient():
    # the closed form against the coefficient of x^n in
    # (1 + x + ... + x^k)^q * (1 + x + ... + x^r), multiplied out
    for k in range(1, 9):
        for q in range(8):
            for r in range(k):
                series = [1]
                for cap in [k] * q + [r]:
                    series = [sum(series[max(t - cap, 0) : t + 1]) for t in range(len(series) + cap)]
                for n in range(1, k * q + r + 1):
                    assert MultiplicityProfile(k=k, q=q, r=r, n=n).vectors == series[n], (n, k, q, r)


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
