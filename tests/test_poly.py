"""Sparse multivariate polynomials, power-sum forms, and the parser."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from restrictedsums import (
    ArityMismatch,
    ExpansionTooLarge,
    HypothesisViolated,
    PowerSumForm,
    SparsePoly,
    format_poly,
    parse_poly,
    power_sum_pow,
    prime_field,
    rational_field,
    vandermonde,
)


def inversion_sign(perm):
    """Independent sign oracle: parity of the inversion count."""
    inv = sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )
    return -1 if inv % 2 else 1


def signed_permutation_sum(n):
    """Expand det[x_j^(i-1)] directly from the permutation definition."""
    terms = {}
    for perm in itertools.permutations(range(n)):
        terms[perm] = terms.get(perm, 0) + inversion_sign(perm)
    return SparsePoly(n, terms)


# ---------- ring arithmetic ----------


def test_binomial_square():
    x1 = SparsePoly.variable(2, 1)
    x2 = SparsePoly.variable(2, 2)
    sq = (x1 + x2) ** 2
    assert dict(sq.terms()) == {(2, 0): 1, (1, 1): 2, (0, 2): 1}


def test_distribute_power_sum_times_difference():
    s = SparsePoly(2, {(2, 0): 1, (0, 2): 1})
    d = SparsePoly(2, {(0, 1): 1, (1, 0): -1})
    assert dict((s * d).terms()) == {(2, 1): 1, (0, 3): 1, (3, 0): -1, (1, 2): -1}


def test_power_zero_is_one():
    p = SparsePoly(2, {(1, 1): 5})
    assert dict((p ** 0).terms()) == {(0, 0): 1}
    assert dict(SparsePoly.zero(2).pow(0).terms()) == {(0, 0): 1}


def test_coefficient_of():
    x1 = SparsePoly.variable(2, 1)
    x2 = SparsePoly.variable(2, 2)
    sq = (x1 + x2) ** 2
    assert sq.coefficient_of((1, 1)) == 2
    assert sq.coefficient_of((3, 0)) == 0


def test_frozen_mixed_product_coefficient():
    # (x1^2+x2^2)^2 = x1^4 + 2 x1^2 x2^2 + x2^4; multiplying by (x2 - x1),
    # the only source of x1^2 x2^3 is 2 x1^2 x2^2 * x2.
    s = SparsePoly(2, {(2, 0): 1, (0, 2): 1})
    d = SparsePoly(2, {(0, 1): 1, (1, 0): -1})
    assert (s.pow(2) * d).coefficient_of((2, 3)) == 2


def test_degree():
    p = SparsePoly(2, {(2, 1): 3, (0, 1): 1})
    q = SparsePoly(2, {(1, 1): -1, (0, 0): 2})
    assert p.degree == 3
    assert (p * q).degree == p.degree + q.degree
    assert SparsePoly.zero(2).degree == float("-inf")
    assert SparsePoly.constant(2, 4).degree == 0


def test_cancellation_prunes_zero_terms():
    x1 = SparsePoly.variable(1, 1)
    assert (x1 - x1).is_zero
    assert dict(((x1 + 1) * (x1 - 1)).terms()) == {(2,): 1, (0,): -1}


def test_scalar_mixing():
    x1 = SparsePoly.variable(1, 1)
    assert dict((3 * x1 + 2).terms()) == {(1,): 3, (0,): 2}
    assert dict((2 - x1).terms()) == {(1,): -1, (0,): 2}


def test_arity_mismatch():
    p = SparsePoly.monomial(2, (1, 0))
    q = SparsePoly.monomial(3, (1, 0, 0))
    with pytest.raises(ArityMismatch):
        p + q
    with pytest.raises(ArityMismatch):
        p.mul(q)
    with pytest.raises(ArityMismatch):
        p.coefficient_of((1, 0, 0))


def test_immutable():
    p = SparsePoly.variable(2, 1)
    with pytest.raises(AttributeError):
        p.nvars = 3


# ---------- vandermonde against the permutation-expansion oracle ----------


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_vandermonde_equals_signed_permutation_sum(n):
    assert vandermonde(n) == signed_permutation_sum(n)


def test_vandermonde_small_explicit():
    assert dict(vandermonde(1).terms()) == {(0,): 1}
    assert dict(vandermonde(2).terms()) == {(0, 1): 1, (1, 0): -1}
    v3 = vandermonde(3)
    assert v3.coefficient_of((0, 1, 2)) == 1
    assert v3.coefficient_of((2, 1, 0)) == -1
    assert v3.term_count() == 6


def test_vandermonde_vanishes_on_repeated_coordinates():
    F = prime_field(7)
    v = vandermonde(3)
    assert v.eval((F.element(2), F.element(2), F.element(5))).is_zero
    assert not v.eval((F.element(1), F.element(2), F.element(5))).is_zero


# ---------- power_sum_pow: multinomial route vs binary powering ----------


def test_power_sum_pow_examples():
    # (x1^2+x2^2)^2 = x1^4 + 2 x1^2 x2^2 + x2^4
    assert dict(power_sum_pow(2, 2, 2).terms()) == {(4, 0): 1, (2, 2): 2, (0, 4): 1}
    assert power_sum_pow(3, 1, 2).coefficient_of((1, 1, 0)) == 2
    assert dict(power_sum_pow(1, 3, 4).terms()) == {(12,): 1}
    assert dict(power_sum_pow(3, 2, 0).terms()) == {(0, 0, 0): 1}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_power_sum_pow_routes_agree(n, k):
    for N in range(0, 7):
        multinomial = power_sum_pow(n, k, N, method="multinomial")
        powering = power_sum_pow(n, k, N, method="pow")
        assert multinomial == powering


def test_power_sum_pow_coefficients_are_multinomials():
    p = power_sum_pow(3, 2, 4)
    # [x1^2 x2^2 x3^4] needs parts (1, 1, 2): 4!/(1!1!2!) = 12
    assert p.coefficient_of((2, 2, 4)) == 12


# ---------- mul against the schoolbook tuple-key product ----------


def schoolbook_mul(a, b):
    """Reference product on exponent tuples; also returns the number of
    distinct monomials met, cancelled ones included, which the guard counts."""
    acc = {}
    for e1, c1 in a.terms():
        for e2, c2 in b.terms():
            e = tuple(x + y for x, y in zip(e1, e2))
            acc[e] = acc[e] + c1 * c2 if e in acc else c1 * c2
    return SparsePoly(a.nvars, acc), len(acc)


GF2, GF3, GF13, QQ = prime_field(2), prime_field(3), prime_field(13), rational_field()
SCALARS = {
    "int": lambda c, d: c,
    "gf2": lambda c, d: GF2.element(c),
    "gf3": lambda c, d: GF3.element(c),
    "gf13": lambda c, d: GF13.element(c),
    "rational": lambda c, d: QQ.element(Fraction(c, d)),
    "fraction": lambda c, d: Fraction(c, d),
}


def random_poly(rng, nvars, kind, max_exp, size):
    terms = {}
    for _ in range(size):
        exps = tuple(rng.randint(0, max_exp) for _ in range(nvars))
        terms[exps] = SCALARS[kind](rng.randint(-3, 3), rng.randint(1, 3))
    return SparsePoly(nvars, terms)


def assert_same_product(a, b, max_terms):
    ref, distinct = schoolbook_mul(a, b)
    if distinct > max_terms:
        with pytest.raises(ExpansionTooLarge, match=f"product exceeds {max_terms} terms"):
            a.mul(b, max_terms=max_terms)
        return
    got = a.mul(b, max_terms=max_terms)
    assert [(e, type(c), c) for e, c in got.terms()] == [(e, type(c), c) for e, c in ref.terms()]
    assert format_poly(got) == format_poly(ref)
    assert got.degree == max((sum(e) for e, _ in ref.terms()), default=float("-inf"))


@pytest.mark.parametrize("kind", sorted(SCALARS))
@pytest.mark.parametrize("max_exp", [3, 40, 200, 10**6])
def test_mul_matches_schoolbook(kind, max_exp):
    # max_exp 40 and up makes the per-variable field wider than 6 bits, and
    # 10**6 makes the packed keys longer than a machine word.
    rng = random.Random(f"{kind}|{max_exp}")
    for _ in range(40):
        nvars = rng.randint(0, 4)
        a = random_poly(rng, nvars, kind, max_exp, rng.randint(0, 6))
        b = random_poly(rng, nvars, kind, max_exp, rng.randint(0, 6))
        assert_same_product(a, b, max_terms=rng.randint(0, 40))


@given(
    st.sampled_from(sorted(SCALARS)),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=0, max_value=30),
)
def test_mul_matches_schoolbook_property(kind, nvars, seed, max_terms):
    rng = random.Random(seed)
    a = random_poly(rng, nvars, kind, 2, rng.randint(0, 5))
    b = random_poly(rng, nvars, kind, 2, rng.randint(0, 5))
    assert_same_product(a, b, max_terms)


def test_mul_edge_cases():
    x1, x2 = SparsePoly.variable(2, 1), SparsePoly.variable(2, 2)
    y = SparsePoly.variable(1, 1)
    cases = [
        (SparsePoly.constant(0, 3), SparsePoly.constant(0, 3)),  # no variables
        (SparsePoly.constant(0, 3), SparsePoly.zero(0)),
        (y + 1, y - 1),  # one variable, the middle term cancels
        (x1 - x2, x1 + x2),  # the mixed term cancels
        ((x1 + x2).reduce(GF2), (x1 + x2).reduce(GF2)),  # 2*x1*x2 dies mod 2
        ((x1 + 2 * x2).reduce(GF3), (x1 + x2).reduce(GF3)),  # 3*x1*x2 dies mod 3
        (x1 + x2, (x1 - x2).reduce(GF13)),  # int times GF(13) elements
        (SparsePoly.zero(2), x1 + x2),
        (SparsePoly.monomial(2, (100, 1)), SparsePoly.monomial(2, (200, 7), -5)),
    ]
    for a, b in cases:
        for max_terms in range(4):
            assert_same_product(a, b, max_terms)
    assert SparsePoly.constant(0, 3).mul(SparsePoly.constant(0, 3)) == SparsePoly.constant(0, 9)
    assert ((x1 + x2).reduce(GF2).mul((x1 + x2).reduce(GF2))).term_count() == 2


def test_expansion_guard():
    with pytest.raises(ExpansionTooLarge):
        power_sum_pow(8, 2, 40, max_terms=1000)
    big = power_sum_pow(4, 1, 6)
    with pytest.raises(ExpansionTooLarge):
        big.mul(big, max_terms=10)


# ---------- evaluation ----------


def test_eval_prime_field():
    F = prime_field(7)
    p = SparsePoly(2, {(1, 0): 1, (0, 1): 1})
    assert p.eval((F.element(3), F.element(5))) == F.element(1)


def test_eval_rational():
    Q = rational_field()
    form = PowerSumForm.unit(2, 2)
    assert form.eval((Q.element(1), Q.element(2))) == Q.element(5)


def test_eval_wrong_arity():
    p = SparsePoly.monomial(2, (1, 1))
    F = prime_field(5)
    with pytest.raises(ArityMismatch):
        p.eval((F.element(1),))


def test_reduce_prunes_dead_coefficients():
    F = prime_field(5)
    p = SparsePoly(1, {(2,): 10, (1,): 3})
    reduced = p.reduce(F)
    assert dict(reduced.terms()) == {(1,): F.element(3)}


def test_reduce_over_its_own_field_returns_the_polynomial_itself():
    F = prime_field(5)
    p = SparsePoly(2, {(2, 0): 10, (1, 1): 3})
    reduced = p.reduce(F)  # int coefficients are still reduced...
    assert reduced is not p
    assert dict(reduced.terms()) == {(1, 1): F.element(3)}
    assert reduced.reduce(F) is reduced
    half = SparsePoly(1, {(1,): Fraction(1, 2)})  # so are rational ones
    assert dict(half.reduce(QQ).terms()) == {(1,): QQ.element(Fraction(1, 2))}


# ---------- PowerSumForm ----------


def test_power_sum_form_unit():
    form = PowerSumForm.unit(2, 3)
    F = prime_field(7)
    # 2^3 + 3^3 = 35, divisible by 7
    assert form.eval((F.element(2), F.element(3))).is_zero
    assert form.has_unit_leading
    assert form.n == 2


def test_power_sum_form_with_leading_and_tail():
    # 2 x1^2 + x2^2 + (x1 + 1) at (1, 3) over gf(5): 2 + 9 + 2 = 13 = 3
    F = prime_field(5)
    form = PowerSumForm(2, (2, 1), parse_poly("x1 + 1", nvars=2))
    assert form.eval((F.element(1), F.element(3))) == F.element(3)
    assert not form.has_unit_leading


def test_power_sum_form_guards():
    with pytest.raises(HypothesisViolated):
        PowerSumForm(0, (1,), SparsePoly.zero(1))
    with pytest.raises(HypothesisViolated):
        PowerSumForm(2, (1,), parse_poly("x1^2", nvars=1))  # deg tail == k
    with pytest.raises(HypothesisViolated):
        PowerSumForm(2, (1, 0), SparsePoly.zero(2))  # zero leading coefficient
    with pytest.raises(ArityMismatch):
        PowerSumForm(2, (1, 1), SparsePoly.zero(3))


def test_power_sum_form_eval_three_variables():
    F = prime_field(5)
    form = PowerSumForm.unit(3, 2)
    got = form.eval(tuple(F.element(v) for v in (1, 2, 3)))
    assert got == F.embed(1 + 4 + 9)


def test_power_sum_form_expand():
    form = PowerSumForm(2, (1, 2), parse_poly("x2 - 1", nvars=2))
    assert dict(form.expand().terms()) == {(2, 0): 1, (0, 2): 2, (0, 1): 1, (0, 0): -1}


# ---------- parser / formatter ----------


@pytest.mark.parametrize(
    "text,n,terms",
    [
        ("x1 + x2", 2, {(1, 0): 1, (0, 1): 1}),
        ("x1^2 - 3*x2 + 4", 2, {(2, 0): 1, (0, 1): -3, (0, 0): 4}),
        ("-x1*x2^2", 2, {(1, 2): -1}),
        ("0", 1, {}),
        ("2*x1*x1", 1, {(2,): 2}),
        ("x3", 3, {(0, 0, 1): 1}),
        ("x1 - x1 + 5", 1, {(0,): 5}),
    ],
)
def test_parse_poly_examples(text, n, terms):
    assert dict(parse_poly(text, nvars=n).terms()) == terms


def test_parse_poly_infers_arity():
    assert parse_poly("x3 + x1").nvars == 3


def test_parse_poly_rejects_garbage():
    for bad in ["x0 + 1", "x1 +", "y1", "x1^-2", ""]:
        with pytest.raises(ValueError):
            parse_poly(bad, nvars=3)
    with pytest.raises(ArityMismatch):
        parse_poly("x4", nvars=3)


def test_format_parse_round_trip_examples():
    for text in ["x1^2 - 3*x2 + 4", "-x1*x2^2", "0", "x1 + x2 + 1"]:
        p = parse_poly(text, nvars=2)
        assert parse_poly(format_poly(p), nvars=2) == p


@given(
    st.dictionaries(
        keys=st.tuples(
            st.integers(min_value=0, max_value=4),
            st.integers(min_value=0, max_value=4),
            st.integers(min_value=0, max_value=4),
        ),
        values=st.integers(min_value=-9, max_value=9).filter(lambda c: c != 0),
        max_size=6,
    )
)
def test_format_parse_round_trip_property(terms):
    p = SparsePoly(3, terms)
    assert parse_poly(format_poly(p), nvars=3) == p
