"""The closed-form Meyer function of genus 1.

The mapping class group of the torus is SL(2;Z), and its Meyer function
has an explicit formula built from Dedekind sums:

    phi_1(alpha) = -(1/3) Psi(alpha) + sigma(alpha) * (1 + sign(a+d)) / 2

where Psi is the Rademacher function and sigma(alpha) is the signature of
the 2x2 symmetric matrix [[-2c, a-d], [a-d, 2b]].  All values land in
(1/3)Z; phi_1 cobounds the signature cocycle, which is the coboundary
identity tested everywhere in this package.

sign(0) = 0 throughout, so when a + d = 0 the second term is sigma/2 and
the half-integers must cancel against Psi/3; the (1/3)Z landing is
asserted at runtime to catch branch bugs.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import SymmetricForm, signature
from .symplectic import SymplecticMatrix


@dataclass(frozen=True)
class SL2Element:
    """An integer matrix [[a, b], [c, d]] with ad - bc = 1."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        det = self.a * self.d - self.b * self.c
        if det != 1:
            raise ValueError(f"determinant is {det}, not 1")

    @classmethod
    def from_matrix(cls, m) -> "SL2Element":
        if isinstance(m, SymplecticMatrix):
            if m.g != 1:
                raise ValueError(f"expected genus 1, got genus {m.g}")
            rows = m.mat.rows
        else:
            rows = tuple(tuple(row) for row in m)
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise ValueError("expected a 2x2 matrix")
        return cls(rows[0][0], rows[0][1], rows[1][0], rows[1][1])

    def inverse(self) -> "SL2Element":
        return SL2Element(self.d, -self.b, -self.c, self.a)

    def __mul__(self, other: "SL2Element") -> "SL2Element":
        if not isinstance(other, SL2Element):
            return NotImplemented
        return SL2Element(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    @property
    def trace(self) -> int:
        return self.a + self.d


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def sawtooth(x) -> Fraction:
    """((x)): 0 on integers, otherwise x - floor(x) - 1/2."""
    x = Fraction(x)
    if x.denominator == 1:
        return Fraction(0)
    return x - (x.numerator // x.denominator) - Fraction(1, 2)


def dedekind_sum(a: int, c: int) -> Fraction:
    """s(a, c) = sum over k mod |c| of ((ak/c)) ((k/c)), exactly, in O(log |c|) steps.

    The summands keep c's true sign, which makes the sum even in c.  It is
    unchanged by dividing a and c by their gcd and by reducing a mod c, and
    for coprime a, c > 0 reciprocity (Rademacher-Grosswald, Dedekind Sums,
    1972) gives s(a, c) = (a^2 + c^2 + 1)/(12ac) - 1/4 - s(c mod a, a): a
    Euclidean descent that ends at s(0, 1) = 0.
    """
    if c == 0:
        raise ValueError("dedekind_sum needs c != 0")
    d = math.gcd(a, c)
    a, c = (a // d) % abs(c // d), abs(c // d)
    total = Fraction(0)
    sign = 1
    while a:
        total += sign * (Fraction(a * a + c * c + 1, 12 * a * c) - Fraction(1, 4))
        a, c, sign = c % a, a, -sign
    return total


def rademacher(alpha: SL2Element) -> Fraction:
    """Psi(alpha): (a+d)/c - 12 sign(c) s(a,c) - 3 sign(c(a+d)), or b/d when c = 0."""
    a, b, c, d = alpha.a, alpha.b, alpha.c, alpha.d
    if c == 0:
        return Fraction(b, d)  # d = +-1, so this is an integer
    return (
        Fraction(a + d, c)
        - 12 * _sign(c) * dedekind_sum(a, c)
        - 3 * _sign(c * (a + d))
    )


def defect_form(alpha: SL2Element) -> SymmetricForm:
    """The 2x2 symmetric matrix [[-2c, a-d], [a-d, 2b]] whose signature is sigma(alpha)."""
    a, b, c, d = alpha.a, alpha.b, alpha.c, alpha.d
    return SymmetricForm([[-2 * c, a - d], [a - d, 2 * b]])


def signature_defect(alpha: SL2Element) -> int:
    """sigma(alpha), computed from the closed-form 2x2 matrix.

    Equal to tau_1(alpha, -I); see
    :func:`meyersig.cocycle.sigma_defect_via_tau` for the cocycle route.
    """
    return signature(defect_form(alpha)).value


def phi1(alpha) -> Fraction:
    """The genus-1 Meyer function; accepts an SL2Element or a genus-1 matrix.

    Values lie in (1/3)Z, which is asserted after the half-integer
    intermediate terms (present exactly when a + d = 0) have cancelled.
    """
    if not isinstance(alpha, SL2Element):
        alpha = SL2Element.from_matrix(alpha)
    psi = rademacher(alpha)
    sigma = signature_defect(alpha)
    value = -psi / 3 + sigma * Fraction(1 + _sign(alpha.trace), 2)
    if value.denominator not in (1, 3):
        raise ArithmeticError(
            f"phi_1 value {value} escaped (1/3)Z; branch bug for {alpha}"
        )
    return value
