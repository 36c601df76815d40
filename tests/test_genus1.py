import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meyersig import genus1
from meyersig.cocycle import sigma_defect_via_tau
from meyersig.exact import signature
from meyersig.fibered import hyperelliptic_twist_value, sl2_word
from meyersig.genus1 import (
    SL2Element,
    dedekind_sum,
    phi1,
    rademacher,
    sawtooth,
    signature_defect,
)
from meyersig.presentations import evaluate_word, shipped_presentation
from meyersig.symplectic import SymplecticMatrix, random_symplectic

U = SL2Element(1, 1, 0, 1)
IDENT = SL2Element(1, 0, 0, 1)
T = SymplecticMatrix([[1, 1], [0, 1]])
S = SymplecticMatrix([[0, 1], [-1, 0]])
MINUS_I = SymplecticMatrix([[-1, 0], [0, -1]])


def _random_sp(rng, max_len=20) -> SymplecticMatrix:
    return random_symplectic(1, rng.randint(0, max_len), rng.random())


# the twists T = [[1, 1], [0, 1]], L = [[1, 0], [-1, 1]] and their inverses
LETTERS = (T, T.inverse(), SymplecticMatrix([[1, 0], [-1, 1]]), SymplecticMatrix([[1, 0], [1, 1]]))


def _word(rng, length) -> SymplecticMatrix:
    m = SymplecticMatrix.identity(1)
    for _ in range(length):
        m = m * rng.choice(LETTERS)
    return m


def _dedekind_by_reciprocity(a: int, c: int) -> Fraction:
    """The reciprocity descent, an independent oracle for dedekind_sum:
    after the gcd and mod reduction, for coprime a, c > 0,
    s(a, c) = (a^2 + c^2 + 1)/(12ac) - 1/4 - s(c mod a, a), down to s(0, 1) = 0
    (Rademacher-Grosswald, Dedekind Sums, 1972)."""
    d = math.gcd(a, c)
    a, c = (a // d) % abs(c // d), abs(c // d)
    total = Fraction(0)
    sign = 1
    while a:
        total += sign * (Fraction(a * a + c * c + 1, 12 * a * c) - Fraction(1, 4))
        a, c, sign = c % a, a, -sign
    return total


def _entries(m: SymplecticMatrix) -> tuple[int, int, int, int]:
    (a, b), (c, d) = m.mat.rows
    return a, b, c, d


def test_sl2element_validation():
    for entries in ((1, 0, 0, 2), (0, 1, 1, 0), (2, 3, 1, 1), (0, 0, 0, 0)):  # det 2, -1, -1, 0
        with pytest.raises(ValueError, match=r"not symplectic: A\^T J A != J"):
            SL2Element(*entries)
    assert SL2Element(0, 1, -1, 0) == S
    assert T * T.inverse() == IDENT


@pytest.mark.parametrize(
    "entries",
    [(1.0, 1, 0, 1), (2.0, 1, 1.0, 1), (True, 1, 0, True), (Fraction(1), 1, 0, 1), (1, 1, 0, Fraction(1))],
)
def test_sl2element_rejects_non_int_entries(entries):
    with pytest.raises(ValueError, match=r"entry \(\d,\d\) is not an integer"):
        SL2Element(*entries)


def test_sl2element_is_the_four_entry_constructor_of_a_genus_1_matrix():
    assert issubclass(SL2Element, SymplecticMatrix)
    assert set(vars(SL2Element)) <= {"__module__", "__qualname__", "__doc__", "__slots__", "__init__"}
    for seed in range(200):
        m = random_symplectic(1, seed % 30, f"sl2-{seed}")
        alpha = SL2Element(*_entries(m))
        assert isinstance(alpha, SymplecticMatrix) and alpha.g == 1
        assert alpha == m and m == alpha and hash(alpha) == hash(m)
        assert alpha == SymplecticMatrix([list(row) for row in m.mat.rows])
        assert alpha * alpha.inverse() == SymplecticMatrix.identity(1)


def test_genus_1_values_agree_on_every_route_to_the_matrix():
    """rademacher, signature_defect and phi1 on a seeded random_symplectic
    matrix, on the SL2Element with its entries and on the equal product
    evaluate_word makes of its word, negated half the time."""
    p = shipped_presentation(1)
    for seed in range(300):
        m = random_symplectic(1, seed % 40, f"route-{seed}")
        if seed % 2:
            m = MINUS_I * m
        routes = (m, SL2Element(*_entries(m)), evaluate_word(sl2_word(m), p))
        assert routes[0] == routes[1] == routes[2]
        for fn in (rademacher, signature_defect, phi1):
            assert len({fn(alpha) for alpha in routes}) == 1, (fn.__name__, m)


@pytest.mark.parametrize("fn", [rademacher, signature_defect, phi1])
@pytest.mark.parametrize("g", [2, 3])
def test_genus_1_functions_refuse_other_genera(fn, g):
    with pytest.raises(ValueError, match=f"expected genus 1, got genus {g}"):
        fn(SymplecticMatrix.identity(g))
    with pytest.raises(ValueError, match=f"expected genus 1, got genus {g}"):
        fn(random_symplectic(g, 6, g))


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


@pytest.mark.parametrize("a, c", [(True, 3), (1.5, 3), (1, 3.0), (Fraction(1), 3), (2, False)])
def test_dedekind_rejects_non_int_arguments(a, c):
    with pytest.raises(ValueError, match="entries must be ints"):
        dedekind_sum(a, c)


def test_dedekind_matches_reciprocity_oracle():
    rng = random.Random(17)
    pairs = [(a, c) for c in range(-30, 31) if c for a in range(-30, 31)]
    for _ in range(6000):
        digits = rng.randint(1, 30)
        c = rng.choice((-1, 1)) * rng.randint(1, 10**digits)
        a = rng.randint(-(10**digits), 10**digits)
        g = rng.choice((1, 1, 1, rng.randint(2, 10**6)))  # one in four shares a factor
        pairs += [(a * g, c * g), (0, c), (a, rng.choice((-1, 1)))]
    assert len(pairs) >= 20000
    for a, c in pairs:
        assert dedekind_sum(a, c) == _dedekind_by_reciprocity(a, c), (a, c)


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
    assert rademacher(SL2Element(-1, 3, 0, -1)) == -3


def test_rademacher_is_an_int():
    rng = random.Random(29)
    for _ in range(5000):
        alpha = _word(rng, rng.randint(0, 40))
        assert type(rademacher(alpha)) is int, alpha


def test_phi1_calls_rademacher_and_dedekind_once(count_calls):
    rad = count_calls(genus1, "rademacher")
    ded = count_calls(genus1, "dedekind_sum")
    assert phi1(SL2Element(2, 1, 5, 3)) == Fraction(2, 3)
    assert (rad.call_count, ded.call_count) == (1, 1)


def test_one_fraction_per_dedekind_and_phi1_value(count_calls):
    # the Euclid pass and Psi are integer work; only the values are Fractions
    built = count_calls(genus1, "Fraction")
    assert dedekind_sum(233, 377) == _dedekind_by_reciprocity(233, 377)
    assert built.call_count == 1
    built.reset_mock()
    phi1(SL2Element(89, 55, 144, 89))
    assert built.call_count == 2


def test_defect_form_and_signature():
    assert signature_defect(U) == 1
    assert signature_defect(SL2Element(1, -1, 0, 1)) == -1
    assert signature_defect(IDENT) == 0


def test_signature_defect_against_the_form_and_the_cocycle():
    """The closed form against two independent routes, on 2000 seeded
    matrices, conjugates of S, S^-1, [[1, 1], [-1, 0]] and T^+-1, +-I and
    the negatives of all of them: congruence reduction of the form
    [[-2c, a-d], [a-d, 2b]] by exact.signature, and tau_1(alpha, -I) by
    the cocycle's kernel.  Every branch of the closed form is reached."""
    rng = random.Random(37)
    conjugated = (S, S.inverse(), SymplecticMatrix([[1, 1], [-1, 0]]), T, T.inverse())
    mats = [SymplecticMatrix.identity(1)]
    for _ in range(2000):
        beta = _random_sp(rng, 6)
        mats += [_random_sp(rng), beta * rng.choice(conjugated) * beta.inverse()]
    seen = set()
    for m in mats + [MINUS_I * m for m in mats]:
        a, b, c, d = _entries(m)
        form = signature([[-2 * c, a - d], [a - d, 2 * b]]).value
        assert signature_defect(m) == form == sigma_defect_via_tau(m), m
        trace = abs(a + d)
        seen.add((
            "<2" if trace < 2 else "=2" if trace == 2 else ">2",
            0 if trace > 2 else (b > c) - (b < c),
        ))
    assert seen == {("<2", 1), ("<2", -1), ("=2", 1), ("=2", -1), ("=2", 0), (">2", 0)}


def test_phi1_examples():
    assert phi1(IDENT) == 0
    assert phi1(U) == Fraction(2, 3)
    assert phi1(SL2Element(-1, 0, 0, -1)) == 0
    assert phi1(SL2Element(1, -1, 0, 1)) == Fraction(-2, 3)


def test_phi1_of_minus_alpha_subtracts_the_signature_defect(rng):
    # the coboundary at (alpha, -I): tau(alpha, -I) = sigma(alpha) and phi1(-I) = 0
    elliptic = (S, S.inverse(), SymplecticMatrix([[1, 1], [-1, 0]]))
    seen = set()
    for i in range(1500):
        word = _word(rng, rng.randint(0, 12))
        if i % 3 == 0:  # conjugates of elliptic and parabolic elements reach tr = 0 and c = 0
            beta = _word(rng, rng.randint(0, 4))
            word = beta * rng.choice(elliptic + LETTERS) * beta.inverse()
        a, _, c, d = _entries(word)
        assert phi1(MINUS_I * word) == phi1(word) - signature_defect(word), word
        seen.add(("c", (c > 0) - (c < 0)))
        seen.add(("tr", (a + d > 0) - (a + d < 0)))
    assert seen == {(k, s) for k in ("c", "tr") for s in (-1, 0, 1)}


def test_phi1_twist_value_cross_check():
    # the genus-1 twist value (g+1)/(2g+1) = 2/3 agrees with the closed form
    assert phi1(U) == hyperelliptic_twist_value(1)


def test_phi1_accepts_matrices():
    m = SymplecticMatrix([[1, 1], [0, 1]])
    assert phi1(m) == Fraction(2, 3)


def test_phi1_inverse_and_conjugation(rng):
    for _ in range(250):
        alpha = _random_sp(rng)
        beta = _random_sp(rng)
        assert phi1(alpha.inverse()) == -phi1(alpha)
        assert phi1(beta * alpha * beta.inverse()) == phi1(alpha)


def test_phi1_in_third_integers(rng):
    for _ in range(300):
        value = phi1(_random_sp(rng))
        assert (3 * value).denominator == 1


def test_phi1_hyperbolic_simplification(rng):
    seen = 0
    while seen < 150:
        alpha = _random_sp(rng)
        if alpha.mat.trace() in (0, 1, 2):
            continue
        seen += 1
        assert phi1(alpha) == Fraction(-rademacher(alpha), 3)
