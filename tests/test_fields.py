"""Field arithmetic, the extended characteristic, and integer embedding."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from restrictedsums import (
    INFINITY,
    DivisionByZero,
    ExtendedNat,
    FieldMismatch,
    NotPrime,
    is_prime,
    parse_field,
    prime_field,
    rational_field,
)

PRIMES = [2, 3, 5, 7, 11, 13]


# ---------- descriptors ----------


def test_prime_field_characteristic():
    assert prime_field(7).characteristic == ExtendedNat(7)
    assert prime_field(2).characteristic.value == 2


def test_rational_field_characteristic_is_infinite():
    assert rational_field().characteristic.is_infinite
    assert rational_field().characteristic == INFINITY


@pytest.mark.parametrize("bad", [6, 1, 0, -5, 9, 15, 10**4])
def test_composite_or_small_rejected(bad):
    with pytest.raises(NotPrime):
        prime_field(bad)


def test_is_prime_small_values():
    expected = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    assert {n for n in range(50) if is_prime(n)} == expected


def test_parse_field_grammar():
    assert parse_field("gf(7)").p == 7
    assert parse_field("GF( 11 )").p == 11
    assert parse_field("rational").is_prime_field is False
    assert parse_field("Rational").characteristic.is_infinite
    with pytest.raises(NotPrime):
        parse_field("gf(6)")
    for bad in ["gf(x)", "gf()", "reals", "", "gf(7) extra"]:
        with pytest.raises(ValueError):
            parse_field(bad)


def test_descriptor_str_round_trips_with_parser():
    for field in [prime_field(7), prime_field(13), rational_field()]:
        assert parse_field(str(field)) == field


# ---------- element arithmetic ----------


def test_gf7_add_and_div():
    F = prime_field(7)
    assert F.element(3) + F.element(5) == F.element(1)
    assert F.element(3) / F.element(5) == F.element(2)
    assert F.element(5) * F.element(2) == F.element(3)
    # an int on the left: 1 - 3 and 1 / 3 (3 * 5 = 15 = 1 mod 7)
    assert 1 - F.element(3) == F.element(5)
    assert 1 / F.element(3) == F.element(5)


def test_rational_exact_fractions():
    Q = rational_field()
    assert Q.element("1/2") + Q.element("1/3") == Q.element("5/6")
    assert Q.element(Fraction(1, 2)).value == Fraction(1, 2)
    assert (Q.element(2) / Q.element(3)).value == Fraction(2, 3)
    assert (1 - Q.element("1/3")).value == Fraction(2, 3)
    assert (1 / Q.element("2/3")).value == Fraction(3, 2)


def test_division_by_zero():
    F = prime_field(5)
    with pytest.raises(DivisionByZero):
        F.element(3) / F.element(0)
    with pytest.raises(DivisionByZero):
        rational_field().element(1) / rational_field().element(0)


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        prime_field(5).element(1) + prime_field(7).element(1)
    with pytest.raises(FieldMismatch):
        prime_field(5).element(1) * rational_field().element(1)


def test_embed_integer():
    assert prime_field(7).embed(7).is_zero
    assert prime_field(5).embed(-1) == prime_field(5).element(4)
    assert rational_field().embed(3).value == Fraction(3)


def test_embed_zero_iff_characteristic_divides():
    for p in PRIMES:
        F = prime_field(p)
        for n in range(-2 * p, 2 * p + 1):
            assert F.embed(n).is_zero == (n % p == 0)


def test_elements_are_canonical_and_hashable():
    F = prime_field(7)
    assert F.element(10) == F.element(3)
    assert hash(F.element(10)) == hash(F.element(3))
    assert len({F.element(i) for i in range(21)}) == 7
    assert F.element(3) != F.element(4)
    assert F.element(3) != 3  # strict: no cross-type equality


def test_elements_iterates_whole_prime_field():
    F = prime_field(11)
    elems = list(F.elements())
    assert len(elems) == 11
    assert sorted(e.value for e in elems) == list(range(11))


def test_element_immutable():
    x = prime_field(5).element(2)
    with pytest.raises(AttributeError):
        x.value = 3


# ---------- ExtendedNat ----------


def test_extended_nat_ordering():
    assert INFINITY > 10**18
    assert ExtendedNat(3) < ExtendedNat(5) < INFINITY
    assert ExtendedNat(5) == 5
    assert not INFINITY < INFINITY
    assert INFINITY >= INFINITY
    # equal values hash alike, so a set holds each once
    assert hash(ExtendedNat(5)) == hash(ExtendedNat(7) - 2)
    assert {ExtendedNat(5), ExtendedNat(7) - 2, INFINITY, INFINITY - 5} == {ExtendedNat(5), INFINITY}


def test_extended_nat_clamp():
    assert INFINITY.clamp(42) == 42
    assert ExtendedNat(7).clamp(42) == 7
    assert ExtendedNat(7).clamp(3) == 3


def test_extended_nat_subtraction_keeps_infinity():
    assert (INFINITY - 5).is_infinite
    assert (ExtendedNat(7) - 5) == ExtendedNat(2)


def test_extended_nat_rejects_nonpositive():
    with pytest.raises(ValueError):
        ExtendedNat(0)
    with pytest.raises(TypeError):
        ExtendedNat(2.5)


def test_extended_nat_repr():
    assert repr(INFINITY) == "inf"
    assert repr(ExtendedNat(7)) == "7"


# ---------- field axioms, exact equality ----------


@given(
    p=st.sampled_from(PRIMES),
    a=st.integers(min_value=-50, max_value=50),
    b=st.integers(min_value=-50, max_value=50),
    c=st.integers(min_value=-50, max_value=50),
)
def test_field_axioms_prime(p, a, b, c):
    F = prime_field(p)
    x, y, z = F.embed(a), F.embed(b), F.embed(c)
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x + F.zero == x
    assert x * F.one == x
    assert x + (-x) == F.zero
    if not y.is_zero:
        assert y * y.inverse() == F.one
        assert (x / y) * y == x


@given(
    a=st.fractions(min_value=-10, max_value=10, max_denominator=20),
    b=st.fractions(min_value=-10, max_value=10, max_denominator=20),
)
def test_rational_axioms(a, b):
    Q = rational_field()
    x, y = Q.element(a), Q.element(b)
    assert x + y == y + x
    assert (x + y).value == a + b
    assert (x * y).value == a * b
    if b != 0:
        assert (x / y).value == Fraction(a) / Fraction(b)


@given(p=st.sampled_from(PRIMES), x=st.integers(min_value=0, max_value=200))
def test_pow_matches_repeated_multiplication(p, x):
    F = prime_field(p)
    e = F.embed(x)
    acc = F.one
    for exp in range(6):
        assert e**exp == acc
        acc = acc * e


def test_min_characteristic_agrees_with_case_analysis():
    # min{p(F), x} through ExtendedNat vs direct case analysis
    for x in [1, 3, 7, 100]:
        for char, expected in [(prime_field(5).characteristic, min(5, x)), (INFINITY, x)]:
            assert char.clamp(x) == expected
