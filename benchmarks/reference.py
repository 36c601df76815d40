"""Independent exact oracles for the benchmark's checks.

Nothing here imports meyersig.  The genus-1 quantities are recomputed
from matrix entries by other algorithms than the package uses (Dedekind
sums through reciprocity instead of the |c|-term loop, the 2x2 defect
signature from determinant and trace instead of congruence reduction),
so agreement is evidence and not a tautology.
"""

from fractions import Fraction

Mat2 = tuple[int, int, int, int]  # (a, b, c, d) of [[a, b], [c, d]]

# The shipped genus-1 generators and their inverses, by word token.
GENUS1 = {"a": (1, 1, 0, 1), "A": (1, -1, 0, 1), "b": (1, 0, -1, 1), "B": (1, 0, 1, 1)}
T, L = GENUS1["a"], GENUS1["B"]  # the letters of positive words over {a, b^-1}


def mul2(x: Mat2, y: Mat2) -> Mat2:
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def sign(x) -> int:
    return (x > 0) - (x < 0)


def dedekind(a: int, c: int) -> Fraction:
    """s(a, c) for coprime a, c != 0, by the reciprocity law.

    Matches the package's convention s(a, -c) = s(a, c).
    """
    c = abs(c)
    a %= c
    total = Fraction(0)
    flip = 1
    while c > 1:
        total += flip * (Fraction(a * a + c * c + 1, 12 * a * c) - Fraction(1, 4))
        flip = -flip
        a, c = c % a, a
    return total


def rademacher(m: Mat2) -> Fraction:
    a, b, c, d = m
    if c == 0:
        return Fraction(b, d)
    return Fraction(a + d, c) - 12 * sign(c) * dedekind(a, c) - 3 * sign(c * (a + d))


def defect_signature(m: Mat2) -> int:
    """Signature of [[-2c, a-d], [a-d, 2b]] from its determinant and trace."""
    a, b, c, d = m
    det = -4 * b * c - (a - d) ** 2
    trace = 2 * b - 2 * c
    if det < 0:
        return 0
    if det > 0:
        return 2 * sign(trace)
    return sign(trace)


def phi1(m: Mat2) -> Fraction:
    a, _, _, d = m
    return -rademacher(m) / 3 + defect_signature(m) * Fraction(1 + sign(a + d), 2)


def tau1(x: Mat2, y: Mat2) -> int:
    """The genus-1 cocycle through the coboundary of phi1."""
    value = phi1(x) - phi1(mul2(x, y)) + phi1(y)
    if value.denominator != 1:
        raise ArithmeticError(f"reference tau is not an integer: {value}")
    return int(value)


def fmt(value) -> str:
    """The CLI's number format: an integer, or p/q in lowest terms."""
    return str(Fraction(value))
