"""Integer symplectic matrices Sp(2g;Z) and transvections.

Coordinates on first homology use the symplectic basis
A_1, ..., A_g, B_1, ..., B_g, in that order, so the intersection pairing
is <u, v> = u^T J v with J = [[0, I_g], [-I_g, 0]] and <A_i, B_i> = +1.
A homology class is simply a length-2g tuple of ints in this basis.

One global convention is frozen here: the right-handed Dehn twist along a
curve of class v acts on homology as x |-> x + TWIST_SIGN * <v, x> * v.
With TWIST_SIGN = +1 the twists along A_1 and B_1 at genus 1 map to
[[1,1],[0,1]] and [[1,0],[-1,1]], which is the normalization every shipped
data file and every twist-value identity in this package is validated
against.  Flipping the constant would invert all twists.
"""

import random
from functools import cache
from typing import Sequence

from .exact import _check_ints, _primitive
from .matrix import IntMatrix, _trusted

# Right-handed twist convention; see module docstring before touching this.
TWIST_SIGN = 1

# A product of two 2g x 2g matrices costs O(g^3) where its input holds
# O(g^2) entries, so matrices are refused above this genus.
MAX_GENUS = 12


@cache
def standard_j(g: int) -> IntMatrix:
    """The standard symplectic form J = [[0, I_g], [-I_g, 0]]."""
    if g < 1:
        raise ValueError(f"genus must be positive, got {g}")
    n = 2 * g
    rows = [[0] * n for _ in range(n)]
    for i in range(g):
        rows[i][g + i] = 1
        rows[g + i][i] = -1
    return IntMatrix(rows)


def symplectic_pairing(u: Sequence[int], v: Sequence[int]) -> int:
    """<u, v> = u^T J v = sum_i (u_Ai * v_Bi - u_Bi * v_Ai).

    Vectors of different or odd lengths, the empty vector and an entry
    that is not an int (bool included) raise ValueError.
    """
    u, v = tuple(u), tuple(v)
    if len(u) != len(v):
        raise ValueError(f"vector lengths differ: {len(u)} vs {len(v)}")
    if len(u) % 2 or not u:
        raise ValueError(f"homology classes have even positive length, got {len(u)}")
    _check_ints((u, v))
    g = len(u) // 2
    return sum(u[i] * v[g + i] - u[g + i] * v[i] for i in range(g))


def is_symplectic(entries, g: int) -> bool:
    """Whether the 2g x 2g integer matrix satisfies A^T J A = J exactly."""
    m = entries if isinstance(entries, IntMatrix) else IntMatrix(entries)
    n = 2 * g
    if m.nrows != n or m.ncols != n:
        raise ValueError(f"expected a {n}x{n} matrix, got {m.nrows}x{m.ncols}")
    j = standard_j(g)
    return m.transpose() * j * m == j


class SymplecticMatrix:
    """An element of Sp(2g;Z); the defining identity is checked on construction.

    A matrix of genus above MAX_GENUS raises ValueError before the check.
    """

    __slots__ = ("g", "mat")

    def __init__(self, entries, g: int | None = None):
        mat = entries if isinstance(entries, IntMatrix) else IntMatrix(entries)
        if not mat.is_square() or mat.nrows % 2:
            raise ValueError(f"symplectic matrices are 2g x 2g, got {mat.nrows}x{mat.ncols}")
        inferred = mat.nrows // 2
        if g is None:
            g = inferred
        elif g != inferred:
            raise ValueError(f"genus {g} does not match a {mat.nrows}x{mat.ncols} matrix")
        if g > MAX_GENUS:
            raise ValueError(f"genus {g} is too large: meyersig caps the genus at {MAX_GENUS}")
        if not is_symplectic(mat, g):
            raise ValueError("not symplectic: A^T J A != J")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "mat", mat)

    def __setattr__(self, name, value):
        raise AttributeError("SymplecticMatrix is immutable")

    @staticmethod
    def identity(g: int) -> "SymplecticMatrix":
        return _wrap(g, IntMatrix.identity(2 * g))

    def __mul__(self, other: "SymplecticMatrix") -> "SymplecticMatrix":
        if not isinstance(other, SymplecticMatrix):
            return NotImplemented
        if self.g != other.g:
            raise ValueError(f"genus mismatch: {self.g} vs {other.g}")
        return _wrap(self.g, self.mat * other.mat)

    def inverse(self) -> "SymplecticMatrix":
        return _wrap(self.g, _trusted(tuple(_inverse_rows(self.mat.rows, self.g))))

    def __pow__(self, k: int) -> "SymplecticMatrix":
        base = self if k >= 0 else self.inverse()
        result = SymplecticMatrix.identity(self.g)
        k = abs(k)
        while k:  # repeated squaring: O(log k) products
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def apply(self, vector: Sequence[int]) -> tuple:
        return self.mat.apply(vector)

    def __eq__(self, other):
        return (
            isinstance(other, SymplecticMatrix)
            and self.g == other.g
            and self.mat == other.mat
        )

    def __hash__(self):
        return hash((self.g, self.mat))

    def __repr__(self):
        from .matrix import format_matrix

        return f"SymplecticMatrix({format_matrix(self.mat)!r})"


def _wrap(g: int, mat: IntMatrix) -> SymplecticMatrix:
    """Wrap a product of validated matrices without re-checking the identity."""
    obj = object.__new__(SymplecticMatrix)
    object.__setattr__(obj, "g", g)
    object.__setattr__(obj, "mat", mat)
    return obj


def _inverse_rows(rows: Sequence[Sequence[int]], g: int) -> list[tuple[int, ...]]:
    """The rows of A^{-1} for the rows of A in Sp(2g;Z), read off A's columns.

    A^T J A = J gives A^{-1} = -J A^T J.  In g x g blocks
    A = [[P, Q], [R, S]] that is [[S^T, -Q^T], [-R^T, P^T]]: row i is
    J times column g + i of A, and row g + i is -J times column i.
    """
    cols = list(zip(*rows))
    top = [c[g:] + tuple([-e for e in c[:g]]) for c in cols[g:]]
    return top + [tuple([-e for e in c[g:]]) + c[:g] for c in cols[:g]]


def transvection(v: Sequence[int]) -> SymplecticMatrix:
    """The twist map x |-> x + TWIST_SIGN * <v, x> * v as a matrix: I + v w
    for the row w of :func:`_twist` (v, TWIST_SIGN), which checks v.

    Fixes v (since <v, v> = 0) and is always symplectic.
    """
    v, _, w, _, _ = _twist(v, TWIST_SIGN)
    return SymplecticMatrix([[int(i == j) + e * f for j, f in enumerate(w)] for i, e in enumerate(v)])


def twist_of(m: SymplecticMatrix) -> tuple[tuple[int, ...], int] | None:
    """(v, lam) with M - I = lam * v (v^T J), or None if there is none.

    Such an M is a power of the Dehn twist along v: M x = x + lam <v, x> v,
    which is transvection(v) ** (TWIST_SIGN * lam).  The class v is
    primitive with its first nonzero entry positive, so the pair is
    unique; the identity, -I and any M - I of rank above 1 give None.
    """
    n = 2 * m.g
    d = [[e - (i == j) for j, e in enumerate(row)] for i, row in enumerate(m.mat.rows)]
    col = next((j for j in range(n) if any(row[j] for row in d)), None)
    if col is None:
        return None
    v, _, vj, _, _ = _twist(_primitive([row[col] for row in d]), 1)  # column col is lam (v^T J)_col v
    if not vj[col]:
        return None
    i0 = next(i for i, e in enumerate(v) if e)
    lam = d[i0][col] // (v[i0] * vj[col])
    if any(d[i][j] != lam * v[i] * vj[j] for i in range(n) for j in range(n)):
        return None
    return v, lam


def _twist(v: Sequence[int], lam: int) -> tuple:
    """The record (v, lam, w, v_terms, w_terms) of the twist power
    T x = x + lam <v, x> v: the class v as a tuple, the exponent lam, the
    row w = lam v^T J, so that T - I = v w, and the sparse supports, the
    pairs (k, v_k) with v_k != 0 and (j, w_j) with w_j != 0.

    The one constructor and check of a twist.  A class that is empty, of
    odd length or zero raises ValueError, and so does an entry or lam that
    is not an int (bool included).  lam = 0 is legal and gives T = I.
    """
    v = tuple(v)
    if not v or len(v) % 2:
        raise ValueError(f"homology classes have even positive length, got {len(v)}")
    _check_ints((v,))
    if type(lam) is not int:
        raise ValueError(f"twist exponent must be an int, got {lam!r}")
    if not any(v):
        raise ValueError("a twist along the zero class is undefined")
    g = len(v) // 2
    w = tuple([-lam * e for e in v[g:]] + [lam * e for e in v[:g]])
    return v, lam, w, tuple([(k, e) for k, e in enumerate(v) if e]), tuple([(j, e) for j, e in enumerate(w) if e])


def _twist_step(m: tuple, twist: tuple) -> tuple:
    """The rows of P T - I from the rows of M = P - I, for the twist power
    T of the record ``twist`` from :func:`_twist`: the rank-1 update
    M + (M v + v) w of :mod:`meyersig.cocycle`, so row r gains
    f_r = (M v + v)_r times w.

    At 2g = 2 and 4 the rows, v and w are unpacked and every f_r and new
    entry is one straight-line expression.  Above that only the entries of
    M on the support of v are read and only those on the support of w are
    written; a row with f_r = 0 is kept as it is.
    """
    v, _, w, v_terms, w_terms = twist
    n = len(w)
    if n == 2:
        (m00, m01), (m10, m11) = m
        v0, v1 = v
        w0, w1 = w
        f0 = m00 * v0 + m01 * v1 + v0
        f1 = m10 * v0 + m11 * v1 + v1
        return (m00 + f0 * w0, m01 + f0 * w1), (m10 + f1 * w0, m11 + f1 * w1)
    if n == 4:
        (m00, m01, m02, m03), (m10, m11, m12, m13), (m20, m21, m22, m23), (m30, m31, m32, m33) = m
        v0, v1, v2, v3 = v
        w0, w1, w2, w3 = w
        f0 = m00 * v0 + m01 * v1 + m02 * v2 + m03 * v3 + v0
        f1 = m10 * v0 + m11 * v1 + m12 * v2 + m13 * v3 + v1
        f2 = m20 * v0 + m21 * v1 + m22 * v2 + m23 * v3 + v2
        f3 = m30 * v0 + m31 * v1 + m32 * v2 + m33 * v3 + v3
        return (
            (m00 + f0 * w0, m01 + f0 * w1, m02 + f0 * w2, m03 + f0 * w3),
            (m10 + f1 * w0, m11 + f1 * w1, m12 + f1 * w2, m13 + f1 * w3),
            (m20 + f2 * w0, m21 + f2 * w1, m22 + f2 * w2, m23 + f2 * w3),
            (m30 + f3 * w0, m31 + f3 * w1, m32 + f3 * w2, m33 + f3 * w3),
        )
    out = []
    for row, f in zip(m, v):
        for k, e in v_terms:
            f += row[k] * e
        if f:
            row = list(row)
            for j, e in w_terms:
                row[j] += f * e
            row = tuple(row)
        out.append(row)
    return tuple(out)


def a_class(g: int, i: int) -> tuple:
    """The class A_i (1-based) as a coordinate vector."""
    if not 1 <= i <= g:
        raise ValueError(f"A_{i} out of range for genus {g}")
    return tuple(int(t == i - 1) for t in range(2 * g))


def b_class(g: int, i: int) -> tuple:
    """The class B_i (1-based) as a coordinate vector."""
    if not 1 <= i <= g:
        raise ValueError(f"B_{i} out of range for genus {g}")
    return tuple(int(t == g + i - 1) for t in range(2 * g))


def _generating_classes(g: int) -> list[tuple]:
    """Classes whose transvections generate a rich subgroup for testing.

    The basis classes alone leave each handle's 2x2 block invariant, so the
    adjacent sums A_i + A_{i+1} and B_i + B_{i+1} are added to mix handles.
    """
    classes = [a_class(g, i) for i in range(1, g + 1)]
    classes += [b_class(g, i) for i in range(1, g + 1)]
    for i in range(1, g):
        classes.append(tuple(x + y for x, y in zip(a_class(g, i), a_class(g, i + 1))))
        classes.append(tuple(x + y for x, y in zip(b_class(g, i), b_class(g, i + 1))))
    return classes


def _chain_classes(g: int) -> list[tuple]:
    """The classes A_1, B_1, A_1 + A_2, B_2, ..., A_{g-1} + A_g, B_g, A_g
    of a chain of 2g + 1 curves, each meeting the next once and missing
    the others; at g = 2 their twists are the shipped c1, ..., c5.  The
    twists satisfy the chain relations (c_1 ... c_{2g+1})^{2g+2} = 1 and
    (c_1 ... c_{2g})^{4g+2} = 1."""
    classes = [a_class(g, 1), b_class(g, 1)]
    for i in range(2, g + 1):
        classes.append(tuple(x + y for x, y in zip(a_class(g, i - 1), a_class(g, i))))
        classes.append(b_class(g, i))
    return classes + [a_class(g, g)]


@cache
def _random_factors(g: int) -> tuple[SymplecticMatrix, ...]:
    """The transvections along the generating classes of genus g and their
    inverses, in the order random_symplectic draws from, built once."""
    factors = []
    for cls in _generating_classes(g):
        t = transvection(cls)
        factors += [t, t.inverse()]
    return tuple(factors)


def random_symplectic(g: int, word_length: int, seed) -> SymplecticMatrix:
    """Deterministic pseudo-random product of word_length transvections.

    The factors are drawn (with a seeded RNG) from the transvections along
    the generating classes and their inverses, so the result is always
    symplectic and the same seed always gives the same matrix.
    """
    if word_length < 0:
        raise ValueError("word_length must be >= 0")
    rng = random.Random(seed)
    factors = _random_factors(g)
    result = SymplecticMatrix.identity(g)
    for _ in range(word_length):
        result = result * rng.choice(factors)
    return result
