"""The closed-form Meyer function of genus 1.

The mapping class group of the torus is SL(2;Z), and its Meyer function
has an explicit formula built from Dedekind sums:

    phi_1(alpha) = -(1/3) Psi(alpha) + sigma(alpha) * (1 + sign(a+d)) / 2

where Psi is the Rademacher function and sigma(alpha) is the signature of
the 2x2 symmetric matrix [[-2c, a-d], [a-d, 2b]].  That matrix has
determinant 4 - (a+d)^2 and trace 2(b - c), so sigma is read off the
trace of alpha and b - c with no elimination (see
:func:`signature_defect`).  All values land in (1/3)Z; phi_1 cobounds the
signature cocycle, which is the coboundary identity tested everywhere in
this package.

SL(2;Z) is Sp(2;Z), so the layer has no matrix type of its own:
:class:`SL2Element` is the four-entry constructor of a genus-1
SymplecticMatrix, and the functions below take any genus-1 matrix,
refuse any other genus, work in the four integers a, b, c, d of its rows
and build one Fraction per value.  For coprime 0 < a < c, Euclid's
algorithm on (c, a) gives quotients q_1, ..., q_k; with
Sigma = q_1 - q_2 + q_3 - ... and a* the inverse of a mod c in [1, c),

    12 c s(a, c) = a + a* + c (Sigma - 2 + (-1)^k)

(Knuth, TAOCP Vol. 2, 3.3.3; Barkan 1977; Hickerson 1977), i.e.
c (Sigma - 3) for odd k and c (Sigma - 1) for even k.  Psi is
integer-valued on SL(2;Z) (Kirby-Melvin, Dedekind sums, mu-invariants and
the signature cocycle, Math. Ann. 299, 1994), so Psi * c is formed in
ints and divided exactly by c, and 6 phi_1 = -2 Psi + 3 sigma (1 + sign(a+d)).

sign(0) = 0 throughout, so when a + d = 0 the second term is sigma/2 and
the half-integers must cancel against Psi/3; the (1/3)Z landing (6 phi_1
even) and the integrality of Psi are asserted at runtime to catch branch
bugs.
"""

import math
from fractions import Fraction

from .exact import _check_ints, _sign
from .symplectic import SymplecticMatrix


class SL2Element(SymplecticMatrix):
    """The genus-1 :class:`SymplecticMatrix` [[a, b], [c, d]], equal to
    and hashed like the SymplecticMatrix with the same entries.  At genus 1
    A^T J A = J is ad - bc = 1, so the symplectic check is the whole check:
    an entry that is not an int or a determinant other than 1 raises
    ValueError."""

    __slots__ = ()

    def __init__(self, a, b, c, d):
        super().__init__(((a, b), (c, d)), 1)


def _entries(alpha: SymplecticMatrix) -> tuple[int, int, int, int]:
    """(a, b, c, d) of a genus-1 matrix [[a, b], [c, d]]; a matrix of any
    other genus raises ValueError."""
    if alpha.g != 1:
        raise ValueError(f"expected genus 1, got genus {alpha.g}")
    (a, b), (c, d) = alpha.mat.rows
    return a, b, c, d


def sawtooth(x) -> Fraction:
    """((x)): 0 on integers, otherwise x - floor(x) - 1/2."""
    x = Fraction(x)
    if x.denominator == 1:
        return Fraction(0)
    return x - (x.numerator // x.denominator) - Fraction(1, 2)


def dedekind_sum(a: int, c: int) -> Fraction:
    """s(a, c) = sum over k mod |c| of ((ak/c)) ((k/c)), exactly, in O(log |c|) steps.

    The summands keep c's true sign, which makes the sum even in c.  It is
    unchanged by dividing a and c by their gcd and by reducing a mod c;
    then one integer Euclid pass gives 12 c s(a, c) by the formula in the
    module docstring, and the only Fraction is the value.
    """
    _check_ints(((a, c),))
    if c == 0:
        raise ValueError("dedekind_sum needs c != 0")
    d = math.gcd(a, c)
    a, c = (a // d) % abs(c // d), abs(c // d)
    if a == 0:  # c == 1
        return Fraction(0)
    alternating, sign, x, y = 0, 1, c, a
    while y:
        q, r = divmod(x, y)
        alternating += sign * q
        x, y, sign = y, r, -sign
    # sign is (-1)^k after k quotients
    return Fraction(a + pow(a, -1, c) + c * (alternating - 2 + sign), 12 * c)


def rademacher(alpha: SymplecticMatrix) -> int:
    """Psi(alpha): (a+d)/c - 12 sign(c) s(a,c) - 3 sign(c(a+d)), or b/d when c = 0.

    Psi * c = a + d - 12|c| s(a, c) - 3c sign(c(a+d)) is formed in ints
    (12|c| s(a, c) is an integer, as a and c are coprime) and divided by c.
    """
    a, b, c, d = _entries(alpha)
    if c == 0:
        return b * d  # d = +-1, so b/d = b*d
    s = dedekind_sum(a, c)
    psi_c = a + d - 12 * abs(c) * s.numerator // s.denominator - 3 * c * _sign(c * (a + d))
    psi, rest = divmod(psi_c, c)
    if rest:
        raise ArithmeticError(
            f"Rademacher value {Fraction(psi_c, c)} escaped Z; branch bug for {alpha}"
        )
    return psi


def signature_defect(alpha: SymplecticMatrix) -> int:
    """sigma(alpha), the signature of Q = [[-2c, a-d], [a-d, 2b]], from
    the trace of alpha and b - c.

    det Q = -4bc - (a-d)^2 = 4(ad - bc) - (a+d)^2 = 4 - tr^2 alpha and
    trace Q = 2(b - c).  For |tr alpha| > 2, det Q < 0: one eigenvalue of
    each sign, sigma = 0.  For |tr alpha| < 2, det Q > 0: Q is definite
    with the sign of its trace, sigma = 2 sign(b - c).  For |tr alpha| = 2,
    det Q = 0: the one eigenvalue left is trace Q, sigma = sign(b - c),
    which is 0 only at alpha = +-I (Atiyah, The logarithm of the Dedekind
    eta-function, Math. Ann. 278, 1987; Kirby-Melvin, Math. Ann. 299, 1994).

    Equal to tau_1(alpha, -I); see
    :func:`meyersig.cocycle.sigma_defect_via_tau` for the cocycle route.
    """
    a, b, c, d = _entries(alpha)
    trace = abs(a + d)
    if trace > 2:
        return 0
    sign = _sign(b - c)
    return sign if trace == 2 else 2 * sign


def phi1(alpha: SymplecticMatrix) -> Fraction:
    """The genus-1 Meyer function of a genus-1 matrix, such as an
    :class:`SL2Element`; a matrix of any other genus raises ValueError.

    Values lie in (1/3)Z, which is asserted as 6 phi_1 being even once the
    half-integer term (present exactly when a + d = 0) has met Psi/3.
    """
    a, _, _, d = _entries(alpha)
    psi = rademacher(alpha)
    sigma = signature_defect(alpha)
    sixfold = -2 * psi + 3 * sigma * (1 + _sign(a + d))
    if sixfold % 2:
        raise ArithmeticError(
            f"phi_1 value {Fraction(sixfold, 6)} escaped (1/3)Z; branch bug for {alpha}"
        )
    return Fraction(sixfold, 6)
