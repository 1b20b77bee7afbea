"""Sparse multivariate polynomials, power-sum forms, and the parser."""

import itertools
import random
import re
from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from restrictedsums import (
    DEFAULT_TERM_GUARD,
    ArityMismatch,
    ExpansionTooLarge,
    FieldElement,
    HypothesisViolated,
    PowerSumForm,
    SetFamily,
    SparsePoly,
    format_poly,
    parse_poly,
    power_sum_pow,
    prime_field,
    rational_field,
    restricted_value_set,
    vandermonde,
)
from restrictedsums import poly
from restrictedsums.fields import FieldDescriptor
from restrictedsums.poly import _field_form, _packed_product, _product, _product_coefficients
from powering import power_sum_by_powering


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


def pair_chain(n):
    """The factors of vandermonde(n) as a chain: the constant 1, then
    (xj - xi) for j = 2..n and i < j."""
    x = [SparsePoly.variable(n, i) for i in range(1, n + 1)]
    return [SparsePoly.constant(n, 1)] + [x[j] - x[i] for j in range(n) for i in range(j)]


@pytest.mark.parametrize("n", range(1, 8))
def test_written_down_vandermonde_is_its_pair_chain(n):
    # 2**C(7, 2) = 2**21 is under the default guard, so each n is written down
    written = [(e, type(c), c) for e, c in vandermonde(n).terms()]
    assert written == [(e, type(c), c) for e, c in _product(pair_chain(n)).terms()]


def test_vandermonde_trips_where_its_pair_chain_does():
    # the guard of either route trips exactly where the chain's does, with
    # its message, up to 2**C(n, 2) + 1 where vandermonde writes it down
    for n in range(1, 6):
        chain = pair_chain(n)
        for max_terms in range(2 ** comb(n, 2) + 2):
            try:
                want = _product(chain, max_terms)
            except ExpansionTooLarge as error:
                with pytest.raises(ExpansionTooLarge) as got:
                    vandermonde(n, max_terms)
                assert str(got.value) == str(error), (n, max_terms)
            else:
                assert vandermonde(n, max_terms) == want, (n, max_terms)


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
        assert power_sum_pow(n, k, N) == power_sum_by_powering(n, k, N)


def test_power_sum_pow_coefficients_are_multinomials():
    p = power_sum_pow(3, 2, 4)
    # [x1^2 x2^2 x3^4] needs parts (1, 1, 2): 4!/(1!1!2!) = 12
    assert p.coefficient_of((2, 2, 4)) == 12


def test_power_sum_pow_terms_come_in_grlex_order():
    # the multinomial route wraps its terms unchecked: they must be the
    # checking constructor's, in its order, and the powering reference's
    for n in range(1, 6):
        for k in range(1, 4):
            for N in range(7):
                terms = list(power_sum_pow(n, k, N).terms())
                assert terms == list(SparsePoly(n, dict(terms)).terms()), (n, k, N)
                assert terms == list(power_sum_by_powering(n, k, N).terms()), (n, k, N)
    with pytest.raises(ExpansionTooLarge, match=r"^\(power sum\)\^6 in 5 variables exceeds 209 terms$"):
        power_sum_pow(5, 1, 6, max_terms=209)  # C(10, 4) = 210 terms
    assert power_sum_pow(5, 1, 6, max_terms=210).term_count() == 210


def test_power_sum_pow_past_int64_multinomials():
    # 20! < 2**63 < 21!: from N = 21 the multinomials divide factorials that
    # are Python ints; 45!/(15!)**3 is itself past 2**63, and so are the
    # exponents k*N = 2**63 of the last power
    for n, k, N in ((2, 1, 20), (2, 1, 21), (2, 1, 22), (2, 2, 22), (3, 1, 45), (2, 2**62, 2)):
        terms = [(e, type(c), c) for e, c in power_sum_pow(n, k, N).terms()]
        assert terms == [(e, type(c), c) for e, c in power_sum_by_powering(n, k, N).terms()]
    top = power_sum_pow(3, 1, 45).coefficient_of((15, 15, 15))
    assert top == factorial(45) // factorial(15) ** 3 > 2**63


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
# (p - 1)^2 fits int64 for both; 3 * (p - 1)^2 does not for the first, and
# 2 * (p - 1)^2 does not for the second, so their chains step over to object
# columns once a step sums that many products
GF_M31, GF_BIG = prime_field(2**31 - 1), prime_field(3_037_000_493)
GF_HUGE = FieldDescriptor(2**64 + 13)
SCALARS = {
    "int": lambda c, d: c,
    "gf2": lambda c, d: GF2.element(c),
    "gf3": lambda c, d: GF3.element(c),
    "gf13": lambda c, d: GF13.element(c),
    # -c: the residues p - 3 .. p - 1 as well as 0 .. 3
    "gf2147483647": lambda c, d: GF_M31.element(-c),
    "gf3037000493": lambda c, d: GF_BIG.element(-c),
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


# ---------- whole chains against a fold of the schoolbook product ----------


def schoolbook_chain(factors, max_terms):
    """Left fold of ``schoolbook_mul``, and the message of the first step
    that forms more than ``max_terms`` monomials (None if none does).  A
    step with a zero operand forms nothing, as ``mul`` skips it."""
    acc = factors[0]
    for other in factors[1:]:
        if acc.is_zero or other.is_zero:
            acc = SparsePoly.zero(acc.nvars)
            continue
        product, distinct = schoolbook_mul(acc, other)
        if distinct > max_terms:
            return None, (
                f"product exceeds {max_terms} terms "
                f"({acc.term_count()} x {other.term_count()} inputs)"
            )
        acc = product
    return acc, None


# pair budgets a test chain runs at: the default, and 1 and 7 pairs, at
# which a step's rows go in many chunks merged into its result one by one
BUDGETS = (None, 1, 7)


def assert_same_chain(factors, max_terms, budget=None):
    ref, message = schoolbook_chain(factors, max_terms)
    with pytest.MonkeyPatch.context() as patch:
        if budget is not None:
            patch.setattr(poly, "_PAIR_BUDGET", budget)
        if message is not None:
            with pytest.raises(ExpansionTooLarge) as chain_error:
                _product(factors, max_terms)
            with pytest.raises(ExpansionTooLarge) as fold_error:
                folded = factors[0]
                for other in factors[1:]:
                    folded = folded.mul(other, max_terms=max_terms)
            assert str(chain_error.value) == str(fold_error.value) == message
            return
        got = _product(factors, max_terms)
    assert [(e, type(c), c) for e, c in got.terms()] == [(e, type(c), c) for e, c in ref.terms()]
    assert format_poly(got) == format_poly(ref)


@pytest.mark.parametrize("kind", sorted(SCALARS))
@pytest.mark.parametrize("max_exp", [2, 40, 10**6])
def test_product_matches_schoolbook_fold(kind, max_exp):
    # Chains of 1 to 6 factors; at max_exp 10**6 the packed keys of a
    # chain are several machine words long.
    rng = random.Random(f"chain|{kind}|{max_exp}")
    for i in range(30):
        nvars = rng.randint(0, 3)
        factors = [
            random_poly(rng, nvars, kind, max_exp, rng.randint(0, 4))
            for _ in range(rng.randint(1, 6))
        ]
        budget = BUDGETS[i % len(BUDGETS)]
        assert_same_chain(factors, DEFAULT_TERM_GUARD, budget)
        assert_same_chain(factors, rng.randint(0, 60), budget)


# scalars of the chains whose steps run along either input: int64 columns,
# Python ints past 2**63 in object columns, Fractions and GF(13) elements
ORIENTED_SCALARS = {
    "int64": SCALARS["int"],
    "bigint": lambda c, d: c << 70,
    "fraction": SCALARS["fraction"],
    "gf13": SCALARS["gf13"],
}


@pytest.mark.parametrize("kind", sorted(ORIENTED_SCALARS))
@pytest.mark.parametrize("budget", [None, 1, 3])
def test_product_steps_run_along_the_longer_input(kind, budget):
    # A chunk's pairs run along the right factor when it is at least as long
    # as the chunk's rows of the running product, else along those rows: at
    # the default budget a short right factor is shorter than the whole
    # running product, at a budget of 3 a one-term factor is shorter than a
    # chunk of 3 rows, and at a budget of 1 no factor is.  Exponents up to
    # max(4, size) make many pairs share a key.
    rng = random.Random(f"oriented|{kind}|{budget}")
    scalar = ORIENTED_SCALARS[kind]
    for sizes in ((12, 1, 2, 3), (2, 15, 1, 9), (1, 1, 20), (30, 5), (3, 3, 3, 1), (8, 8)):
        for _ in range(4):
            nvars = rng.randint(1, 3)
            factors = []
            for size in sizes:
                terms = {}
                while len(terms) < size:
                    exps = tuple(rng.randint(0, max(4, size)) for _ in range(nvars))
                    terms[exps] = scalar(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
                factors.append(SparsePoly(nvars, terms))
            for max_terms in (DEFAULT_TERM_GUARD, rng.randint(0, 40), rng.randint(0, 120)):
                assert_same_chain(factors, max_terms, budget)


def test_product_chain_edge_cases():
    x1, x2 = SparsePoly.variable(2, 1), SparsePoly.variable(2, 2)
    s = (x1 + x2).reduce(GF2)
    t = (x1 + 3 * x2 + 1).reduce(GF2)
    # (x1 + x2)^2 = x1^2 + x2^2 over GF(2): the middle term cancels mid-chain
    assert _product([s, s]).term_count() == 2
    cancelling = [s, s, t]
    zero_factor = [x1 + x2, SparsePoly.zero(2), x1 - x2]
    for factors in (cancelling, zero_factor, [x1 + x2], [x1 - x2, x1 + x2]):
        for max_terms in range(8):
            for budget in BUDGETS:
                assert_same_chain(factors, max_terms, budget)
    assert _product(zero_factor).is_zero
    # the guard trips at the step that forms too many monomials: the first
    # step forms 3 from 2 x 2 terms and keeps 2; the second forms 6 from
    # 2 x 3 terms
    with pytest.raises(ExpansionTooLarge, match=r"^product exceeds 5 terms \(2 x 3 inputs\)$"):
        _product(cancelling, max_terms=5)
    assert _product(cancelling, max_terms=6) == s.mul(s).mul(t)
    # vandermonde(n) is one chain, headed by the constant 1 as the fold was
    with pytest.raises(ExpansionTooLarge, match=r"^product exceeds 1 terms \(1 x 2 inputs\)$"):
        vandermonde(2, max_terms=1)
    assert vandermonde(1, max_terms=0) == SparsePoly.constant(1, 1)


def key_dtype(factors):
    return _packed_product(factors, DEFAULT_TERM_GUARD)[0][0].dtype


def test_product_chain_array_edges():
    x1, x2 = SparsePoly.variable(2, 1), SparsePoly.variable(2, 2)
    y = SparsePoly.variable(1, 1)
    big = 2**30 * (x1 + x2)
    word = 2**31 * (y + 1)
    chains = [
        # the coefficients pass 2^63 at the third factor: 2^60 * (1, 2, 1),
        # then up to 3 * 2^90, so that step multiplies on object columns
        [big, big, big, x1 - x2],
        # max|a| * max|b| * min = 2^63: the middle coefficient is exactly
        # 2^63, which int64 would wrap to -2^63
        [word, word],
        [word, 2**31 * (y - 1)],
        # -2^63 fits int64, but its magnitude does not: times -1 it wraps
        [SparsePoly.monomial(1, (1,), -(2**63)), y - 1],
        [SparsePoly.monomial(1, (1,), 2**62 - 1), y + 1, y - 1],
        # residues next to p in the two large fields
        [(GF_M31.element(-1) * x1 + GF_M31.element(-2) * x2).reduce(GF_M31)] * 3,
        [(GF_BIG.element(-1) * x1 + GF_BIG.element(-1) * x2 + GF_BIG.element(-3)).reduce(GF_BIG)] * 4,
        [(GF_BIG.element(-1) * x1).reduce(GF_BIG), (GF_BIG.element(-1) * x1).reduce(GF_BIG)],
        # an int factor times a near-p one: one field is not common to all
        [x1 + x2, (GF_BIG.element(-1) * x1 + x2).reduce(GF_BIG)],
        # p past int64 (2^64 + 13 is prime; built directly, as trial
        # division would take too long): small residues stay int64 and
        # need no reduction, large ones are object columns
        [(x1 + 2 * x2 + 3).reduce(GF_HUGE)] * 3,
        [(GF_HUGE.element(-1) * x1 + x2).reduce(GF_HUGE), (x1 - 1).reduce(GF_HUGE)],
    ]
    for factors in chains:
        for max_terms in (0, 2, 3, DEFAULT_TERM_GUARD):
            for budget in BUDGETS:
                assert_same_chain(factors, max_terms, budget)
    # keys of exactly 62 bits, (nvars + 1) * width = 2 * 31, stay int64;
    # 63 bits, 3 * 21, go to object columns of Python ints
    top = 2**30
    narrow = [y**top + 3 * y ** (top - 1) + 1, y ** (top - 1) - y + 2]
    assert (2 * top - 1).bit_length() == 31
    wide = [x1 ** (2**19) + x2 - 1, x2 ** (2**19) * 5 + x1 * x2]
    assert (2 * 2**19 + 1).bit_length() == 21
    assert key_dtype(narrow) == np.int64
    assert key_dtype(wide) == object
    for factors in (narrow, wide, narrow[:1], wide[:1], narrow + [y + 1], wide + [x1 - x2]):
        for max_terms in (0, 3, DEFAULT_TERM_GUARD):
            for budget in BUDGETS:
                assert_same_chain(factors, max_terms, budget)


def test_guard_trips_in_a_later_chunk(monkeypatch):
    # one row of the left factor per chunk: each row of (1 + x1 + x1^2)
    # times (1 + x2 + x2^2) adds three new monomials, so a guard of 7 trips
    # in the third chunk and a guard of 5 in the second
    x1, x2 = SparsePoly.variable(2, 1), SparsePoly.variable(2, 2)
    factors = [1 + x1 + x1**2, 1 + x2 + x2**2]
    monkeypatch.setattr(poly, "_PAIR_BUDGET", 3)
    chunks = []
    summed = poly._summed

    def counting(keys, scalars):
        chunks.append(len(keys))
        return summed(keys, scalars)

    monkeypatch.setattr(poly, "_summed", counting)
    for max_terms, merged in ((7, [3, 6, 9]), (5, [3, 6])):
        chunks.clear()
        with pytest.raises(ExpansionTooLarge) as error:
            _product(factors, max_terms)
        assert str(error.value) == schoolbook_chain(factors, max_terms)[1]
        assert str(error.value) == f"product exceeds {max_terms} terms (3 x 3 inputs)"
        assert chunks == merged
    chunks.clear()
    assert _product(factors, 9) == schoolbook_chain(factors, 9)[0]
    assert chunks == [3, 6, 9]


# ---------- the packed-key codec ----------


@pytest.mark.parametrize("width, dtype", [(15, np.int64), (16, object)], ids=["int64", "object"])
def test_keys_order_rows_by_graded_lex_and_decode_back(width, dtype):
    # (nvars + 1) * width = 60 keeps the keys int64; 64 makes them Python ints
    nvars = 3
    rng = random.Random(f"keys|{width}")
    top = (1 << width) - 1
    rows = {(0, 0, 0), (top, 0, 0), (0, 0, top), (1, top - 1, 0)}  # degree up to 2**width - 1
    while len(rows) < 300:
        rows.add(tuple(rng.randrange(1 << rng.randint(1, width - 2)) for _ in range(nvars)))
    rows = sorted(rows)
    rng.shuffle(rows)
    for given_rows in (rows, np.array(rows, dtype=np.int64)):
        keys = poly._keys(given_rows, width, nvars)
        assert keys.dtype == dtype
        # the layout: the degree on top, then x1, x2, x3 in fields of width bits
        assert [int(key) for key in keys] == [
            (sum(e) << 3 * width) | (e[0] << 2 * width) | (e[1] << width) | e[2] for e in rows
        ]
        order = np.argsort(keys, kind="stable")
        assert [rows[i] for i in order] == sorted(rows, key=lambda e: (sum(e), e))
        scalars = np.arange(1, len(rows) + 1, dtype=np.int64)
        decoded = poly._unpacked((keys[order], scalars[order]), width, nvars, None)
        want = [(rows[i], i + 1) for i in order[::-1]]
        assert [(e, int(c)) for e, c in decoded.items()] == want
    assert poly._keys([], width, nvars).shape == (0,)


def test_list_targets_past_int64_read_zero():
    x1, x2 = SparsePoly.variable(2, 1), SparsePoly.variable(2, 2)
    factors = [x1 + x2, x1 - x2]
    targets = [(1 << 70, 0), (2, 0), (1 << 63, 0), ((1 << 63) - 1, 1), (0, 2), (1 << 64, 1 << 64)]
    assert _product_coefficients(factors, targets) == (2, [0, 1, 0, 0, -1, 0])
    with pytest.raises(ArityMismatch):
        _product_coefficients(factors, [(1, 1), (1 << 70, 0, 0)])
    with pytest.raises(ValueError, match="nonnegative"):
        _product_coefficients(factors, [(1 << 70, 0), (-(1 << 70), 0)])


# ---------- reading target coefficients off the packed product ----------


@pytest.mark.parametrize("kind", ["int", "gf13", "rational"])
def test_product_coefficients_match_coefficient_of(kind):
    rng = random.Random(f"targets|{kind}")
    for _ in range(20):
        factors = [random_poly(rng, 3, kind, 3, rng.randint(1, 4)) for _ in range(rng.randint(1, 4))]
        product = _product(factors)
        degree = 0 if product.is_zero else product.degree
        width = sum(max(f.degree, 0) for f in factors).bit_length() or 1
        targets = [e for e, _ in product.terms()]  # present monomials
        targets += [tuple(rng.randint(0, degree) for _ in range(3)) for _ in range(10)]  # mostly absent
        targets += [
            (degree + 1, 0, 0),  # above the product's degree
            (0, 0, 0),  # below it, often absent
            (0, 0, 1 << width),  # would spill into the next field when packed
            (1 << width, 0, 0),  # would spill into the degree field
            (0, (1 << width) - 1, 1 << width),
        ]
        # packed, these carry into x1's field and match a present monomial
        # there; only the degree field tells the two apart
        targets += [(e[0] - 1, e[1] + (1 << width), e[2]) for e, _ in product.terms() if e[0] % 2]
        got = _product_coefficients(factors, targets)[1]
        want = [product.coefficient_of(t) for t in targets]
        assert [(type(c), c) for c in got] == [(type(c), c) for c in want]


def test_product_coefficients_take_a_target_matrix():
    # an int64 matrix of targets is packed by one matrix product; it reads
    # what the same targets read one by one, those past the fields included
    rng = random.Random("target matrix")
    for kind in ("int", "gf13", "rational"):
        for _ in range(10):
            factors = [random_poly(rng, 3, kind, 3, rng.randint(1, 4)) for _ in range(rng.randint(1, 4))]
            width = sum(max(f.degree, 0) for f in factors).bit_length() or 1
            targets = [e for e, _ in _product(factors).terms()]
            targets += [tuple(rng.randint(0, 6) for _ in range(3)) for _ in range(10)]
            targets += [(0, 0, 1 << width), (1 << width, 0, 0), (0, (1 << width) - 1, 1 << width)]
            targets += [(e[0] - 1, e[1] + (1 << width), e[2]) for e in targets if e[0] % 2]
            targets += [(1 << 62, 1 << 62, 0)]  # a row whose degree wraps int64
            want_degree, want = _product_coefficients(factors, targets)
            got_degree, got = _product_coefficients(factors, np.array(targets, dtype=np.int64))
            assert got_degree == want_degree
            assert [(type(c), c) for c in got] == [(type(c), c) for c in want]
    x1, x2 = SparsePoly.variable(2, 1), SparsePoly.variable(2, 2)
    assert _product_coefficients([x1 + x2, x1 - x2], np.zeros((0, 2), dtype=np.int64)) == (2, [])
    with pytest.raises(ArityMismatch):
        _product_coefficients([x1 + x2, x1 - x2], np.array([[1, 1, 0]]))
    with pytest.raises(ArityMismatch):
        _product_coefficients([x1 + x2, x1 - x2], np.array([1, 1]))
    with pytest.raises(ValueError, match="nonnegative"):
        _product_coefficients([x1 + x2, x1 - x2], np.array([[2, 0], [-1, 3]]))
    # keys past 63 bits are packed one by one, from the matrix too
    tall = SparsePoly.monomial(2, (1 << 21, 0))
    targets = [(1 << 21, 1), ((1 << 21) + 1, 0), (1, 1)]
    assert _product_coefficients([tall, x1 + x2], np.array(targets)) == ((1 << 21) + 1, [1, 1, 0])


def test_product_coefficients_types():
    x1, x2 = SparsePoly.variable(2, 1), SparsePoly.variable(2, 2)
    a, b = (x1 + x2).reduce(GF13), (x1 - x2).reduce(GF13)
    # x1^2 - x2^2 over GF(13): a present term is a GF(13) element, an absent
    # or cancelled one the int 0
    degree, got = _product_coefficients([a, b], [(2, 0), (0, 2), (1, 1), (0, 0), (9, 9)])
    assert degree == 2
    assert got == [GF13.element(1), GF13.element(12), 0, 0, 0]
    assert [type(c) for c in got] == [FieldElement, FieldElement, int, int, int]
    assert _product_coefficients([x1 + x2, x1 - x2], [(2, 0), (1, 1)]) == (2, [1, 0])
    half = (x1 + x2).reduce(QQ) * QQ.element(Fraction(1, 2))
    assert _product_coefficients([half, half], [(1, 1), (3, 0)]) == (2, [QQ.element(Fraction(1, 2)), 0])
    with pytest.raises(ArityMismatch):
        _product_coefficients([a, b], [(1, 1, 0)])
    with pytest.raises(ValueError):
        _product_coefficients([a, b], [(-1, 3)])


# ---------- reading the degree off the packed product ----------


def assert_same_top(factors, target, max_terms=DEFAULT_TERM_GUARD):
    try:
        product = _product(factors, max_terms)
    except ExpansionTooLarge as exc:
        with pytest.raises(ExpansionTooLarge, match=f"^{re.escape(str(exc))}$"):
            _product_coefficients(factors, [target], max_terms)
        return
    degree, (coefficient,) = _product_coefficients(factors, [target], max_terms)
    assert (type(degree), degree) == (type(product.degree), product.degree)
    want = product.coefficient_of(target)
    assert (type(coefficient), coefficient) == (type(want), want)


@pytest.mark.parametrize("kind", ["int", "gf2", "gf13", "rational"])
def test_product_top_matches_product(kind):
    rng = random.Random(f"top|{kind}")
    for _ in range(30):
        factors = [random_poly(rng, 3, kind, 3, rng.randint(1, 4)) for _ in range(rng.randint(1, 5))]
        width = sum(max(f.degree, 0) for f in factors).bit_length() or 1
        present = [e for e, _ in _product(factors).terms()]
        targets = present[:1] + present[-1:]  # the top term and the lowest
        targets += [tuple(rng.randint(0, 4) for _ in range(3))]  # mostly absent
        targets += [(0, 0, 1 << width), (1 << width, 0, 0)]  # degree >= 2**width
        for target in targets:
            assert_same_top(factors, target)
            assert_same_top(factors, target, max_terms=rng.randint(0, 30))


def test_product_top_edge_cases():
    x1, x2 = SparsePoly.variable(2, 1), SparsePoly.variable(2, 2)
    # 13*x1^3 + x1^2 over Z times x1 over GF(13): the top term dies mod 13
    # and the degree drops from 3 to 2
    drop = [13 * x1**2 + x1, x1.reduce(GF13)]
    assert _product_coefficients(drop, [(2, 0), (3, 0)]) == (2, [GF13.element(1), 0])
    # products that settle to zero: a zero factor, and one that dies mod 13
    assert _product_coefficients([x1 + x2, SparsePoly.zero(2)], [(0, 0)]) == (float("-inf"), [0])
    assert _product_coefficients([13 * x1, x2.reduce(GF13)], [(1, 1)]) == (float("-inf"), [0])
    # x1^2 - x2^2 over GF(13): the mixed monomial is absent
    degree, (coefficient,) = _product_coefficients([(x1 + x2).reduce(GF13), (x1 - x2).reduce(GF13)], [(1, 1)])
    assert (degree, type(coefficient), coefficient) == (2, int, 0)
    half = (x1 + x2).reduce(QQ) * QQ.element(Fraction(1, 2))
    assert _product_coefficients([half, half], [(1, 1)]) == (2, [QQ.element(Fraction(1, 2))])
    # the guard trips at the same step, with the same message, as _product's
    s = (x1 + x2).reduce(GF2)
    cancelling = [s, s, (x1 + 3 * x2 + 1).reduce(GF2)]
    with pytest.raises(ExpansionTooLarge, match=r"^product exceeds 5 terms \(2 x 3 inputs\)$"):
        _product_coefficients(cancelling, [(1, 1)], max_terms=5)
    for factors in (drop, cancelling):
        for target in ((0, 0), (1, 1), (2, 0), (3, 0)):
            for max_terms in range(8):
                assert_same_top(factors, target, max_terms)
    with pytest.raises(ArityMismatch):
        _product_coefficients(drop, [(1, 1, 0)])


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
    assert form.n == 2


def test_power_sum_form_with_leading_and_tail():
    # 2 x1^2 + x2^2 + (x1 + 1) at (1, 3) over gf(5): 2 + 9 + 2 = 13 = 3
    F = prime_field(5)
    form = PowerSumForm(2, (2, 1), parse_poly("x1 + 1", nvars=2))
    assert form.eval((F.element(1), F.element(3))) == F.element(3)


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


# (field, form, the elements of each set of its grid)
EVALUATOR_CASES = [
    (prime_field(2), PowerSumForm(3, (1, 3), parse_poly("x1*x2 + x2 + 1", nvars=2)), range(2)),
    # 8 = 1 in GF(7), and the tail term 7*x1 vanishes there
    (prime_field(7), PowerSumForm(2, (8, 3), parse_poly("7*x1 + 2*x2 - 1", nvars=2)), range(7)),
    (prime_field(13), PowerSumForm(3, (1, 12, 5), parse_poly("2*x1*x2 - x3^2 + 4*x1 + 3", nvars=3)), range(13)),
    (
        QQ,
        PowerSumForm(3, (Fraction(1, 2), Fraction(-2, 3)), SparsePoly(2, {(1, 1): Fraction(3, 4), (0, 0): 5})),
        (0, 1, -2, Fraction(1, 2), Fraction(-5, 3)),
    ),
]


@pytest.mark.parametrize("field, f, elements", EVALUATOR_CASES, ids=["gf2", "gf7", "gf13", "rational"])
def test_one_exact_evaluator(field, f, elements):
    # FieldForm.eval, and PowerSumForm.eval through it, is the expanded form
    # over the field at every point of the grid; the enumerator's values are
    # those of eval on the injective tuples
    form = _field_form(field, f.n, f)
    assert all(not c.is_zero for _, c in form.tail.terms())
    expanded = f.expand().reduce(field)
    family = SetFamily.from_elements(field, [elements] * f.n)
    for point in itertools.product(*family.sets):
        assert form.eval(point) == f.eval(point) == expanded.eval(point), point
    injective = {form.eval(x) for x in itertools.product(*family.sets) if len(set(x)) == f.n}
    assert set(restricted_value_set(family, f).values) == injective
    if field.p == 7:
        assert form.leading == (field.one, field.element(3))
        assert dict(form.tail.terms()) == {(0, 1): field.element(2), (0, 0): field.element(6)}


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


def test_parse_poly_reads_fraction_coefficients():
    p = parse_poly("x1 + 1/2*x2 - 3/4", nvars=2)
    assert dict(p.terms()) == {(1, 0): 1, (0, 1): Fraction(1, 2), (0, 0): Fraction(-3, 4)}
    assert format_poly(p) == "x1 + 1/2*x2 - 3/4"
    # a fraction that comes out whole stays an int
    for text in ["4/2*x1", "1/2*x1 + 1/2*x1 + x1"]:
        (c,) = [c for _, c in parse_poly(text, nvars=1).terms()]
        assert type(c) is int and c == 2
    with pytest.raises(ValueError, match="^zero denominator in '1/0' of 'x1 - 1/0'$"):
        parse_poly("x1 - 1/0", nvars=1)


@given(
    st.dictionaries(
        keys=st.tuples(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3)),
        values=st.fractions(min_value=-9, max_value=9, max_denominator=12).filter(lambda c: c != 0),
        max_size=6,
    )
)
def test_format_parse_round_trip_fractions(terms):
    p = SparsePoly(2, terms)
    back = parse_poly(format_poly(p), nvars=2)
    assert back == p
    assert all(type(c) is (int if c.denominator == 1 else Fraction) for _, c in back.terms())
