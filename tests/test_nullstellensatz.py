"""Certified coefficient extraction and exhaustive witness search."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from restrictedsums import (
    HypothesisViolated,
    NullstellensatzCertificate,
    NullstellensatzInstance,
    SearchSpaceTooLarge,
    SetFamily,
    SparsePoly,
    certify,
    prime_field,
    vandermonde,
)


def grid_family(p, sizes):
    F = prime_field(p)
    return SetFamily.from_elements(F, [range(s) for s in sizes])


def test_vandermonde_certificate():
    # deg V(2) = 1 = 0 + 1; coefficient of x2 is 1; witness needs x2 != x1
    fam = grid_family(7, (1, 2))
    cert = certify(NullstellensatzInstance(vandermonde(2), (0, 1), fam))
    assert cert.nonzero
    assert cert.coefficient == prime_field(7).element(1)
    assert cert.witness is not None
    x1, x2 = cert.witness
    assert x2.value != x1.value
    assert cert.witness_value == x2 - x1
    assert cert.searched


def test_product_monomial_witness():
    # x1 * x2 on {0,1} x {0,1}: the only nonvanishing point is (1, 1)
    fam = grid_family(5, (2, 2))
    poly = SparsePoly.monomial(2, (1, 1))
    cert = certify(NullstellensatzInstance(poly, (1, 1), fam))
    assert cert.nonzero
    assert tuple(x.value for x in cert.witness) == (1, 1)


def test_degree_hypothesis_enforced():
    fam = grid_family(5, (3, 2))
    poly = SparsePoly.monomial(2, (1, 1))
    with pytest.raises(HypothesisViolated):
        certify(NullstellensatzInstance(poly, (1, 0), fam))  # wrong total degree
    with pytest.raises(HypothesisViolated):
        certify(NullstellensatzInstance(poly, (0, 2), fam))  # entry vs set size


def test_size_hypothesis_enforced():
    fam = grid_family(5, (2, 1))
    poly = SparsePoly.monomial(2, (1, 1))
    with pytest.raises(HypothesisViolated, match="A2"):
        certify(NullstellensatzInstance(poly, (1, 1), fam))


def test_degree_check_happens_after_reduction():
    # 5 * x1^2 + x1 dies to x1 over gf(5); the degree hypothesis must see
    # the reduced polynomial, not the integer one
    fam = grid_family(5, (2,))
    poly = SparsePoly(1, {(2,): 5, (1,): 1})
    cert = certify(NullstellensatzInstance(poly, (1,), fam))
    assert cert.nonzero


def test_certify_does_not_depend_on_a_reduction_it_can_skip():
    # a polynomial already over GF(7) reaches certify uncopied, and certifies
    # exactly as the integer polynomial it was reduced from
    F = prime_field(7)
    fam = grid_family(7, (2, 3))
    poly = vandermonde(2).mul(SparsePoly(2, {(0, 1): 8, (0, 0): -3}))
    reduced = poly.reduce(F)
    assert reduced.reduce(F) is reduced
    cert = certify(NullstellensatzInstance(reduced, (0, 2), fam))
    assert cert == certify(NullstellensatzInstance(poly, (0, 2), fam))
    assert cert.coefficient == F.element(1) and cert.nonzero


def test_zero_coefficient_short_circuits():
    # x1^2 + x2^2 has no x1*x2 term, so the certificate reports zero and
    # never searches
    fam = grid_family(7, (2, 2))
    poly = SparsePoly(2, {(2, 0): 1, (0, 2): 1})
    cert = certify(NullstellensatzInstance(poly, (1, 1), fam))
    assert not cert.nonzero
    assert cert.witness is None
    assert not cert.searched


def test_witness_search_can_be_disabled():
    fam = grid_family(7, (1, 2))
    cert = certify(NullstellensatzInstance(vandermonde(2), (0, 1), fam), witness_search=False)
    assert cert.nonzero
    assert cert.witness is None
    assert not cert.searched


def test_search_guard():
    fam = grid_family(7, (7, 7, 7))
    poly = SparsePoly.monomial(3, (1, 1, 1))
    with pytest.raises(SearchSpaceTooLarge):
        certify(NullstellensatzInstance(poly, (1, 1, 1), fam), guard_tuples=300)


def test_point_fn_override():
    fam = grid_family(7, (1, 2))
    calls = []

    def factored(point):
        calls.append(point)
        return point[1] - point[0]

    cert = certify(NullstellensatzInstance(vandermonde(2), (0, 1), fam), point_fn=factored)
    assert cert.nonzero and cert.witness is not None
    assert calls  # the override was actually used


def test_certificate_json():
    fam = grid_family(7, (1, 2))
    d = certify(NullstellensatzInstance(vandermonde(2), (0, 1), fam)).to_json_dict()
    assert d["coefficient"] == "1"
    assert d["nonzero"] is True
    assert isinstance(d["witness"], list)
    assert d["searched"] is True


@given(
    p=st.sampled_from([3, 5, 7]),
    seed=st.integers(min_value=0, max_value=10**6),
    d1=st.integers(min_value=0, max_value=2),
    d2=st.integers(min_value=0, max_value=2),
)
def test_soundness_on_random_instances(p, seed, d1, d2):
    # any random polynomial with the right top monomial and degree must have
    # a witness on big-enough grids; certify raising InternalInvariantBroken
    # here would falsify the principle the package treats as an axiom
    rng = random.Random(seed)
    terms = {(d1, d2): rng.randint(1, p - 1)}
    for _ in range(rng.randint(0, 4)):
        e1 = rng.randint(0, d1)
        e2 = rng.randint(0, d2)
        if (e1, e2) == (d1, d2) or e1 + e2 == d1 + d2:
            continue  # keep the total degree and the top coefficient intact
        terms[(e1, e2)] = rng.randint(0, p - 1)
    poly = SparsePoly(2, terms)
    fam = grid_family(p, (min(d1 + 1, p), min(d2 + 1, p)))
    if d1 + 1 > p or d2 + 1 > p:
        return
    cert = certify(NullstellensatzInstance(poly, (d1, d2), fam))
    assert cert.nonzero
    assert cert.witness is not None
    assert not cert.witness_value.is_zero


def test_certificate_is_a_frozen_record():
    fam = grid_family(7, (1, 2))
    cert = certify(NullstellensatzInstance(vandermonde(2), (0, 1), fam))
    assert isinstance(cert, NullstellensatzCertificate)
    with pytest.raises(AttributeError):
        cert.nonzero = False
