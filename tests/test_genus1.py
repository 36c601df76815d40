import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meyersig.fibered import hyperelliptic_twist_value
from meyersig.genus1 import (
    SL2Element,
    dedekind_sum,
    defect_form,
    phi1,
    rademacher,
    sawtooth,
    signature_defect,
)
from meyersig.symplectic import SymplecticMatrix, random_symplectic

U = SL2Element(1, 1, 0, 1)
IDENT = SL2Element(1, 0, 0, 1)


def _random_sl2(rng, max_len=20) -> SL2Element:
    m = random_symplectic(1, rng.randint(0, max_len), rng.random())
    return SL2Element.from_matrix(m)


def test_sl2element_validation():
    with pytest.raises(ValueError, match="determinant"):
        SL2Element(1, 0, 0, 2)
    with pytest.raises(ValueError, match="genus 1"):
        SL2Element.from_matrix(SymplecticMatrix.identity(2))
    assert SL2Element.from_matrix([[0, 1], [-1, 0]]) == SL2Element(0, 1, -1, 0)
    assert (U * U.inverse()) == IDENT


def test_sawtooth_examples():
    assert sawtooth(0) == 0
    assert sawtooth(7) == 0
    assert sawtooth(Fraction(1, 3)) == Fraction(-1, 6)
    assert sawtooth(Fraction(-1, 3)) == Fraction(1, 6)


@settings(max_examples=200, deadline=None)
@given(st.integers(-400, 400), st.integers(1, 40))
def test_sawtooth_odd_and_periodic(p, q):
    x = Fraction(p, q)
    assert sawtooth(-x) == -sawtooth(x)
    assert sawtooth(x + 1) == sawtooth(x)


def test_dedekind_examples():
    assert dedekind_sum(5, 1) == 0
    assert dedekind_sum(-19, 1) == 0
    assert dedekind_sum(0, 7) == 0
    assert dedekind_sum(1, 3) == Fraction(1, 18)


def test_dedekind_rejects_zero_modulus():
    with pytest.raises(ValueError, match="c != 0"):
        dedekind_sum(3, 0)


def test_dedekind_matches_literal_sawtooth_sum():
    rng = random.Random(3)
    for _ in range(40):
        a = rng.randint(-30, 30)
        c = rng.choice([x for x in range(-20, 21) if x])
        literal = sum(
            sawtooth(Fraction(a * k, c)) * sawtooth(Fraction(k, c)) for k in range(abs(c))
        )
        assert dedekind_sum(a, c) == literal


@settings(max_examples=200, deadline=None)
@given(st.integers(-60, 60), st.integers(-40, 40).filter(bool))
def test_dedekind_periodic_odd_even(a, c):
    assert dedekind_sum(a + c, c) == dedekind_sum(a, c)
    assert dedekind_sum(-a, c) == -dedekind_sum(a, c)
    assert dedekind_sum(a, -c) == dedekind_sum(a, c)


def test_rademacher_examples():
    assert rademacher(IDENT) == 0
    assert rademacher(U) == 1
    assert rademacher(SL2Element(0, 1, -1, 0)) == 0


def test_defect_form_and_signature():
    assert defect_form(U).entries == ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(2)))
    assert signature_defect(U) == 1
    assert signature_defect(SL2Element(1, -1, 0, 1)) == -1
    assert signature_defect(IDENT) == 0


def test_phi1_examples():
    assert phi1(IDENT) == 0
    assert phi1(U) == Fraction(2, 3)
    assert phi1(SL2Element(-1, 0, 0, -1)) == 0
    assert phi1(SL2Element(1, -1, 0, 1)) == Fraction(-2, 3)


def test_phi1_twist_value_cross_check():
    # the genus-1 twist value (g+1)/(2g+1) = 2/3 agrees with the closed form
    assert phi1(U) == hyperelliptic_twist_value(1)


def test_phi1_accepts_matrices():
    m = SymplecticMatrix([[1, 1], [0, 1]])
    assert phi1(m) == Fraction(2, 3)


def test_phi1_inverse_and_conjugation(rng):
    for _ in range(250):
        alpha = _random_sl2(rng)
        beta = _random_sl2(rng)
        assert phi1(alpha.inverse()) == -phi1(alpha)
        assert phi1(beta * alpha * beta.inverse()) == phi1(alpha)


def test_phi1_in_third_integers(rng):
    for _ in range(300):
        value = phi1(_random_sl2(rng))
        assert (3 * value).denominator == 1


def test_phi1_hyperbolic_simplification(rng):
    seen = 0
    while seen < 150:
        alpha = _random_sl2(rng)
        if alpha.trace in (0, 1, 2):
            continue
        seen += 1
        assert phi1(alpha) == -rademacher(alpha) / 3
