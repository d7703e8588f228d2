"""The reference arithmetic in Q(zeta_e) that the character tests compare with."""

from fractions import Fraction

import pytest

from pqsurf.errors import InternalInconsistency

import cyclotomic_reference as cyclo
from cyclotomic_reference import Cyclotomic, _root_power, cyclotomic_polynomial
from planted import planted


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_roots_of_unity_relations():
    i = Cyclotomic.root(4, 1)
    assert i * i == Cyclotomic.from_rational(4, -1)
    w = Cyclotomic.root(3, 1)
    assert w * w * w == Cyclotomic.from_rational(3, 1)
    # 1 + w + w^2 = 0
    total = Cyclotomic.from_rational(3, 1) + w + w * w
    assert total.is_zero()


def test_sum_of_all_roots_vanishes():
    for e in (2, 3, 4, 5, 6, 8, 12):
        total = Cyclotomic.zero(e)
        for k in range(e):
            total = total + Cyclotomic.root(e, k)
        assert total.is_zero()


def test_conjugation():
    i = Cyclotomic.root(4, 1)
    assert i.conjugate() == Cyclotomic.root(4, 3)
    assert (i * i.conjugate()) == Cyclotomic.from_rational(4, 1)
    z = Cyclotomic.root(6, 1)
    assert z.conjugate() == Cyclotomic.root(6, 5)


def test_rationality_detection():
    z = Cyclotomic.root(6, 1)
    minus_one = Cyclotomic.root(6, 3)
    assert minus_one.as_rational() == -1
    assert z.as_rational() is None
    assert Cyclotomic.from_rational(6, Fraction(2, 3)).as_rational() == Fraction(2, 3)


def test_galois_twist():
    z = Cyclotomic.root(12, 1)
    assert z.galois(5) == Cyclotomic.root(12, 5)
    assert (z + Cyclotomic.root(12, 11)).galois(5) == Cyclotomic.root(12, 5) + Cyclotomic.root(12, 7)


def test_scale_and_equality_with_ints():
    two = Cyclotomic.from_rational(4, 1).scale(2)
    assert two == 2
    assert Cyclotomic.root(4, 2) == -1


def test_root_coordinates_are_integers():
    for e in (1, 2, 3, 4, 5, 6, 8, 12, 15, 30):
        for k in range(-e, 2 * e):
            coords = _root_power(e, k)
            assert all(type(c) is int for c in coords)
            assert Cyclotomic(e, coords) == Cyclotomic.root(e, k)
    # zeta_4^2 = -1 and zeta_6^3 = -1 on the power basis
    assert _root_power(4, 2) == (-1, 0) and _root_power(6, 3) == (-1, 0)


@planted
def test_planted_polynomial_fault_is_internal_inconsistency(monkeypatch):
    # Phi_1 = Phi_2 = x + 1 leaves x^4 - 1 a remainder on the second division
    uncached = cyclo.cyclotomic_polynomial.__wrapped__
    monkeypatch.setattr(cyclo, "cyclotomic_polynomial", lambda n: (1, 1))
    with pytest.raises(InternalInconsistency, match="remainder"):
        uncached(4)

