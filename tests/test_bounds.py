"""Closed-form bounds: frozen examples, identities, and sharpness checks."""

import re
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from restrictedsums import (
    INFINITY,
    ExtendedNat,
    HypothesisViolated,
    Infeasible,
    MultiplicityProfile,
    PowerSumForm,
    SetFamily,
    SparsePoly,
    distinct_sum_bound,
    equal_size_bound,
    equal_size_floor_sum,
    erdos_heilbronn_bound,
    floor_minima,
    increasing_sizes_bound,
    iverson,
    least_residue,
    prime_field,
    rational_field,
    residue_class_bound,
    restricted_floor_bound,
    roots_model_cardinality,
    single_set_conjecture_bound,
    unrestricted_floor_bound,
)
from restrictedsums.bounds import BOUNDS, HYPOTHESES
from restrictedsums.poly import _field_form


# ---------- primitives ----------


def test_least_residue():
    assert least_residue(-1, 5) == 4
    assert least_residue(7, 3) == 1
    assert least_residue(0, 4) == 0
    assert least_residue(12, 4) == 0
    with pytest.raises(ValueError):
        least_residue(3, 0)


def test_iverson():
    assert iverson(True) == 1
    assert iverson(False) == 0


def test_floor_telescoping():
    # sum over the k residue classes of floor((m - r) / k) telescopes to m - k
    for m in range(1, 40):
        for k in range(1, m + 1):
            assert sum((m - r) // k for r in range(1, k + 1)) == m - k


# ---------- floor minima ----------


def test_floor_minima_examples():
    assert floor_minima((5, 5, 5), 2) == (1, 1, 1)
    assert floor_minima((3, 3, 3), 2) == (0, 0, 0)
    assert floor_minima((2, 4, 6, 8), 2) == (0, 1, 1, 2)
    for n in range(1, 8):
        staircase = tuple(range(1, n + 1))
        for k in range(1, n + 1):
            assert floor_minima(staircase, k) == (0,) * n


def test_floor_minima_tail_structure():
    # each entry is the min over its residue class's tail, so entries grow
    # along a class and never exceed the own-position floor
    sizes = (4, 7, 3, 9, 11, 6)
    for k in range(1, len(sizes) + 1):
        q = floor_minima(sizes, k) if all(s >= i for i, s in enumerate(sizes, 1)) else None
        if q is None:
            continue
        n = len(sizes)
        for i in range(n):
            assert q[i] <= (sizes[i] - (i + 1)) // k
            if i + k < n:
                assert q[i] <= q[i + k]


def test_floor_minima_guards():
    with pytest.raises(HypothesisViolated):
        floor_minima((5, 5), 3)  # k > n
    with pytest.raises(HypothesisViolated, match="set 2"):
        floor_minima((3, 1, 4), 2)  # second set too small
    with pytest.raises(HypothesisViolated):
        floor_minima((), 1)
    with pytest.raises(HypothesisViolated):
        floor_minima((2, -1), 1)


@given(
    k=st.integers(min_value=1, max_value=5),
    raw=st.lists(st.integers(min_value=0, max_value=10), min_size=1, max_size=7),
)
def test_floor_minima_monotone_in_sizes(k, raw):
    n = len(raw)
    if k > n:
        return
    base = tuple(i + r for i, r in enumerate(raw, start=1))
    grown = tuple(s + 1 for s in base)
    q1 = floor_minima(base, k)
    q2 = floor_minima(grown, k)
    assert all(a <= b for a, b in zip(q1, q2))


# ---------- residue-class bound (thm12) ----------


def test_residue_class_bound_examples():
    assert residue_class_bound((5, 5, 5), 2, INFINITY).value == 4
    assert residue_class_bound((5, 5, 5), 2, ExtendedNat(3)).value == 3
    assert residue_class_bound((2, 2), 1, ExtendedNat(7)).value == 1
    r = residue_class_bound((5, 5, 5), 2, ExtendedNat(11))
    assert r.name == "thm12"
    assert not r.conjectural
    assert r.detail["q"] == (1, 1, 1)


@given(
    k=st.integers(min_value=1, max_value=4),
    raw=st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=6),
    p=st.sampled_from([2, 3, 5, 7, 11, None]),
)
def test_residue_class_bound_properties(k, raw, p):
    n = len(raw)
    if k > n:
        return
    sizes = tuple(i + r for i, r in enumerate(raw, start=1))
    char = INFINITY if p is None else ExtendedNat(p)
    r = residue_class_bound(sizes, k, char)
    assert r.value >= 1
    if p is not None:
        assert r.value <= p
    grown = residue_class_bound(tuple(s + 1 for s in sizes), k, char)
    assert grown.value >= r.value


# ---------- equal-size closed form (thm13) ----------


def test_equal_size_floor_sum_matches_floor_minima():
    # the closed form vs the definition, exhaustively
    for m in range(1, 21):
        for n in range(1, m + 1):
            for k in range(1, n + 1):
                assert equal_size_floor_sum(m, n, k) == sum(
                    floor_minima((m,) * n, k)
                ), (m, n, k)


def test_equal_size_floor_sum_divisibility_edges():
    # k | n kills the correction term entirely
    assert equal_size_floor_sum(7, 4, 2) == 4 * 3 // 2
    # k | (m - n) keeps the main term integral on its own
    assert equal_size_floor_sum(9, 5, 2) == (5 * 4 - 1 * 0) // 2
    with pytest.raises(HypothesisViolated):
        equal_size_floor_sum(4, 5, 2)  # m < n
    with pytest.raises(HypothesisViolated):
        equal_size_floor_sum(5, 2, 3)  # k > n


def test_equal_size_bound_examples():
    r = equal_size_bound(5, 3, 2, INFINITY)
    assert r.name == "thm13"
    assert r.value == 4
    assert r.value == residue_class_bound((5, 5, 5), 2, INFINITY).value
    assert equal_size_bound(5, 3, 2, ExtendedNat(3)).value == 3
    assert equal_size_bound(7, 4, 2, INFINITY).value == 4 * (7 - 4) // 2 + 1
    assert equal_size_bound(6, 6, 3, INFINITY).value == 1  # m == n
    with pytest.raises(HypothesisViolated):
        equal_size_bound(3, 4, 2, INFINITY)


def test_equal_size_bound_matches_thm12_for_k_up_to_n():
    for m in range(1, 16):
        for n in range(1, m + 1):
            for k in range(1, n + 1):
                assert (
                    equal_size_bound(m, n, k, INFINITY).value
                    == residue_class_bound((m,) * n, k, INFINITY).value
                ), (m, n, k)


def test_equal_size_bound_allows_k_above_n():
    # for k > n the same closed form equals the per-variable floor bound
    for m in range(1, 16):
        for n in range(1, m + 1):
            for k in range(n + 1, 9):
                expected = restricted_floor_bound((m,) * n, k, INFINITY).value
                assert equal_size_bound(m, n, k, INFINITY).value == expected, (m, n, k)


# ---------- per-variable floor bounds (thm11u / thm11r) ----------


def test_unrestricted_floor_bound_examples():
    assert unrestricted_floor_bound((5, 5, 5), 2, INFINITY).value == 7
    assert unrestricted_floor_bound((5, 5, 5), 2, ExtendedNat(5)).value == 5
    assert unrestricted_floor_bound((1, 1), 3, INFINITY).value == 1
    assert unrestricted_floor_bound((9,), 4, INFINITY).value == 3
    assert unrestricted_floor_bound((9,), 4, INFINITY).name == "thm11u"
    with pytest.raises(HypothesisViolated):
        unrestricted_floor_bound((3, 0), 2, INFINITY)
    with pytest.raises(HypothesisViolated):
        unrestricted_floor_bound((3, 3), 0, INFINITY)


def test_restricted_floor_bound_examples():
    assert restricted_floor_bound((5, 5, 5), 3, INFINITY).value == 3
    assert restricted_floor_bound((5, 5, 5), 3, ExtendedNat(2)).value == 2
    assert restricted_floor_bound((4, 8), 2, INFINITY).value == (3 // 2) + (6 // 2) + 1
    assert restricted_floor_bound((4, 8), 2, INFINITY).name == "thm11r"
    with pytest.raises(HypothesisViolated):
        restricted_floor_bound((5, 5, 5), 2, INFINITY)  # k < n
    with pytest.raises(HypothesisViolated):
        restricted_floor_bound((5, 1), 2, INFINITY)  # second set too small


def test_restricted_floor_bound_equals_residue_class_bound_at_k_eq_n():
    # at k == n each residue class is a single position, so the two coincide
    for n in range(1, 6):
        for extra in range(0, 5):
            sizes = tuple(i + extra for i in range(1, n + 1))
            assert (
                restricted_floor_bound(sizes, n, INFINITY).value
                == residue_class_bound(sizes, n, INFINITY).value
            )


# ---------- single-set conjecture (conj11) ----------


def test_single_set_conjecture_examples():
    r = single_set_conjecture_bound(5, 2, 2, INFINITY)
    assert r.name == "conj11"
    assert r.conjectural
    assert r.value == 4
    # the negated-pair bracket lowers the first clamp arm by one
    plain = single_set_conjecture_bound(11, 2, 2, ExtendedNat(5))
    negated = single_set_conjecture_bound(11, 2, 2, ExtendedNat(5), negated_pair=True)
    assert plain.value == 5
    assert negated.value == 4
    # the bracket only fires at n == 2
    wide = single_set_conjecture_bound(11, 3, 2, ExtendedNat(5), negated_pair=True)
    assert wide.value == 5


def test_single_set_conjecture_guards():
    with pytest.raises(HypothesisViolated):
        single_set_conjecture_bound(5, 2, 3, INFINITY)  # k > n
    with pytest.raises(HypothesisViolated):
        single_set_conjecture_bound(2, 3, 2, INFINITY)  # m < n


def test_single_set_conjecture_drops_correction_term():
    # conj11's main term has no residue correction, so it never exceeds the
    # equal-size closed form by more than that correction and never falls
    # below the plain main term
    for m in range(1, 16):
        for n in range(1, m + 1):
            for k in range(1, n + 1):
                conj = single_set_conjecture_bound(m, n, k, INFINITY).value
                thm = equal_size_bound(m, n, k, INFINITY).value
                assert conj <= thm


# ---------- linear bounds (anr / dsh) ----------


def test_increasing_sizes_bound_strict():
    r = increasing_sizes_bound((2, 3, 5), INFINITY)
    assert r.name == "anr"
    assert r.value == 5
    assert increasing_sizes_bound((2, 3, 5), ExtendedNat(3)).value == 3
    with pytest.raises(HypothesisViolated):
        increasing_sizes_bound((5, 5, 5), INFINITY)  # not strictly increasing
    with pytest.raises(HypothesisViolated):
        increasing_sizes_bound((0, 1), INFINITY)


def test_increasing_sizes_bound_min_form():
    # the min form 1 + sum_i min_{j >= i}(sizes[j] - j) is thm12 at k = 1
    assert residue_class_bound((5, 5, 5), 1, INFINITY).value == 7
    assert residue_class_bound((2, 5, 4), 1, INFINITY).value == 4
    # on strictly increasing sizes, sizes[j] - j never falls, so each minimum
    # is attained at j = i and the two bounds agree
    for sizes in ((2, 3, 4), (1, 3, 7), (2, 3, 5, 9), (4,)):
        for char in (INFINITY, ExtendedNat(3), ExtendedNat(11)):
            anr = increasing_sizes_bound(sizes, char).value
            assert anr == residue_class_bound(sizes, 1, char).value, (sizes, char)


def test_distinct_sum_bound():
    assert distinct_sum_bound(4, 2, INFINITY).value == 5
    assert distinct_sum_bound(4, 2, INFINITY).name == "dsh"
    assert distinct_sum_bound(6, 6, INFINITY).value == 1
    assert distinct_sum_bound(9, 3, ExtendedNat(7)).value == 7
    with pytest.raises(HypothesisViolated):
        distinct_sum_bound(2, 3, INFINITY)


def test_erdos_heilbronn_is_the_pair_case():
    for m in range(2, 30):
        assert erdos_heilbronn_bound(m, INFINITY).value == 2 * m - 3
        assert (
            erdos_heilbronn_bound(m, ExtendedNat(13)).value
            == distinct_sum_bound(m, 2, ExtendedNat(13)).value
        )


# ---------- sharpness model (ex41) ----------


def test_roots_model_examples():
    assert roots_model_cardinality(2, 2, 2, 1).value == 4
    assert roots_model_cardinality(2, 2, 2, 1).name == "ex41"
    # k = 1, r = 0: one root per integer target, n(q - n) + 1 sums
    for q in range(1, 9):
        for n in range(1, q + 1):
            assert roots_model_cardinality(n, 1, q, 0).value == n * (q - n) + 1
    # taking every root leaves a single selection
    for k in range(1, 5):
        for q in range(0, 4):
            for r in range(0, k):
                if k * q + r >= 1:
                    assert roots_model_cardinality(k * q + r, k, q, r).value == 1


def test_roots_model_guards():
    with pytest.raises(Infeasible):
        roots_model_cardinality(6, 2, 2, 1)  # only 5 roots available
    with pytest.raises(HypothesisViolated):
        roots_model_cardinality(2, 2, 2, 2)  # r must be < k
    with pytest.raises(HypothesisViolated):
        roots_model_cardinality(2, 0, 2, 0)
    # one check, the model's own, refuses a float or bool field for both
    for name in ("k", "q", "r", "n"):
        for bad in (2.0, True):
            args = {"k": 2, "q": 2, "r": 1, "n": 2, name: bad}
            with pytest.raises(HypothesisViolated):
                MultiplicityProfile(**args)
            with pytest.raises(HypothesisViolated):
                roots_model_cardinality(**args)


def test_roots_model_attains_equal_size_bound():
    # the model realizes the closed form exactly, making the bound sharp
    for k in range(1, 7):
        for q in range(0, 5):
            for r in range(0, k):
                m = k * q + r
                for n in range(1, m + 1):
                    assert (
                        roots_model_cardinality(n, k, q, r).value
                        == equal_size_bound(m, n, k, INFINITY).value
                    ), (n, k, q, r)


def test_residue_of_n_variant_is_refuted_by_the_model():
    # swapping the correction term's residue from m to n overshoots the
    # exactly-computed model cardinality, so that variant cannot be a bound
    def n_residue_variant(m, n, k):
        num = n * (m - n) - least_residue(n, k) * least_residue(m - n, k)
        return num // k + least_residue(n, k) * iverson(
            least_residue(m, k) < least_residue(n, k)
        ) + 1

    exact = roots_model_cardinality(2, 3, 1, 1).value  # m = 4, n = 2, k = 3
    assert exact == 2
    assert n_residue_variant(4, 2, 3) == 3  # claims 3 > 2: refuted
    overshoots = [
        (m, n, k)
        for k in range(1, 7)
        for q in range(0, 5)
        for r in range(0, k)
        for m in [k * q + r]
        for n in range(1, m + 1)
        if n_residue_variant(m, n, k) > roots_model_cardinality(n, k, q, r).value
    ]
    assert (4, 2, 3) in overshoots


# ---------- the registry ----------


def test_readme_bounds_table_lists_the_registry_in_order():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## The bounds", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)`.*\| ([^|]*) \|$", section, flags=re.MULTILINE)
    assert [token for token, _ in rows] == list(BOUNDS)
    for token, hypotheses in rows:
        bound = BOUNDS[token]
        names = tuple(name for name in re.findall(r"`([^`]+)`", hypotheses) if name in HYPOTHESES)
        assert names == bound.needs, token
        assert ("distinct `xi`" in hypotheses) == bound.restricted, token
        assert ("unit `ai`" in hypotheses) == bound.unit, token
        assert ("one shared set" in hypotheses) == bound.shared_set, token
        assert ("conjectural" in hypotheses) == bound.conjectural, token


# each public floor with integer arguments that meet its hypotheses
FLOOR_CALLS = [
    (floor_minima, ((5, 5), 2)),
    (residue_class_bound, ((5, 5), 2, INFINITY)),
    (equal_size_floor_sum, (5, 2, 2)),
    (equal_size_bound, (5, 2, 2, INFINITY)),
    (unrestricted_floor_bound, ((5, 5), 2, INFINITY)),
    (restricted_floor_bound, ((5, 5), 2, INFINITY)),
    (single_set_conjecture_bound, (5, 2, 2, INFINITY)),
    (increasing_sizes_bound, ((2, 5), INFINITY)),
    (distinct_sum_bound, (5, 2, INFINITY)),
    (erdos_heilbronn_bound, (5, INFINITY)),
]


@pytest.mark.parametrize("floor, args", FLOOR_CALLS, ids=[floor.__name__ for floor, _ in FLOOR_CALLS])
@pytest.mark.parametrize("bad", [2.0, 2.5, True])
def test_every_public_floor_refuses_a_non_int_argument(floor, args, bad):
    floor(*args)  # the integer arguments meet the hypotheses
    for i, arg in enumerate(args):
        if isinstance(arg, tuple):
            variants = [arg[:j] + (bad,) + arg[j + 1 :] for j in range(len(arg))]
        else:
            variants = [] if arg is INFINITY else [bad]
        for variant in variants:
            with pytest.raises(HypothesisViolated):
                floor(*args[:i], variant, *args[i + 1 :])


def test_for_sizes_answers_for_a_profile_what_evaluate_answers_for_a_family():
    F = prime_field(7)
    distinct = SetFamily.from_elements(F, [[0, 1], [2, 3, 4]])
    shared = SetFamily.from_elements(F, [[0, 1, 2]] * 2)
    answered = set()
    for token, bound in BOUNDS.items():
        for family in (distinct, shared):
            for k in (1, 2, 3):
                for leading in ((1, 1), (1, 6), (2, 3)):
                    form = _field_form(F, 2, PowerSumForm(k, leading, SparsePoly.zero(2)))
                    expected = bound.evaluate(family, form)
                    got = bound.for_sizes(family.sizes, form, shared=family is shared)
                    assert got == expected, (token, family.sizes, k, leading)
                    # sizes alone cannot show a shared set
                    sizes_only = bound.for_sizes(family.sizes, form)
                    assert sizes_only == (None if bound.shared_set else expected)
                    if expected is not None:
                        answered.add(token)
    assert answered == set(BOUNDS)
    unit = _field_form(F, 2, PowerSumForm.unit(2, 1))
    assert BOUNDS["thm12"].for_sizes((2, 1), unit) is None  # |A_2| < 2


def readme_hypotheses(token, sizes, k, unit, shared) -> bool:
    """The hypotheses column of the README's bounds table, spelled out."""
    n = len(sizes)
    staircase = all(s >= i for i, s in enumerate(sizes, start=1))
    one_set = shared and len(set(sizes)) == 1
    return {
        "thm12": unit and k <= n and staircase,
        "thm13": unit and len(set(sizes)) == 1 and staircase,
        "thm11u": all(s >= 1 for s in sizes),
        "thm11r": k >= n and staircase,
        "anr": k == 1 and unit and all(a < b for a, b in zip((0,) + sizes, sizes)),
        "dsh": k == 1 and unit and one_set and staircase,
        "conj11": k <= n and one_set and staircase,
    }[token]


def public_floor(token, sizes, k, char, negated_pair) -> int:
    n, m = len(sizes), sizes[0]
    return {
        "thm12": lambda: residue_class_bound(sizes, k, char),
        "thm13": lambda: equal_size_bound(m, n, k, char),
        "thm11u": lambda: unrestricted_floor_bound(sizes, k, char),
        "thm11r": lambda: restricted_floor_bound(sizes, k, char),
        "anr": lambda: increasing_sizes_bound(sizes, char),
        "dsh": lambda: distinct_sum_bound(m, n, char),
        "conj11": lambda: single_set_conjecture_bound(m, n, k, char, negated_pair),
    }[token]().value


@pytest.mark.parametrize("field", [prime_field(7), rational_field()], ids=["gf7", "rational"])
def test_for_sizes_is_none_exactly_where_the_readme_hypotheses_fail(field):
    """Every token, n <= 3, sizes 0..5, k 1..4, unit and non-unit leading
    coefficients (a1 = -a2 among them), and one shared set where the sizes
    are equal: the sets of one shared set cannot differ in size."""
    for n in (1, 2, 3):
        for k in (1, 2, 3, 4):
            for leading in ((1,) * n, (1,) * (n - 1) + (-1,), (2,) * n):
                form = _field_form(field, n, PowerSumForm(k, leading, SparsePoly.zero(n)))
                unit = all(a.value == 1 for a in form.leading)
                negated_pair = n == 2 and (form.leading[0] + form.leading[1]).is_zero
                for sizes in product(range(6), repeat=n):
                    for shared in (False, True) if len(set(sizes)) == 1 else (False,):
                        for token, bound in BOUNDS.items():
                            got = bound.for_sizes(sizes, form, shared)
                            if not readme_hypotheses(token, sizes, k, unit, shared):
                                assert got is None, (token, sizes, k, leading, shared)
                            else:
                                floor = public_floor(token, sizes, k, field.characteristic, negated_pair)
                                assert got == floor, (token, sizes, k, leading, shared)
