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

An element of Sp(2g;Z) is a :class:`SymplecticMatrix` holding its rows, a
tuple of int tuples; it is the package's one matrix type.  Its constructor
checks the rows and A^T J A = J; products, inverses and identities are
symplectic by construction and go through :func:`_wrap`, the one trusted
constructor.  A genus is checked once, by :func:`_check_genus`.
"""

import random
from functools import cache
from operator import mul
from typing import Sequence

from .exact import _check_ints, _primitive
from .matrix import _identity_rows, _product, check_rows, format_matrix

# Right-handed twist convention; see module docstring before touching this.
TWIST_SIGN = 1

# A product of two 2g x 2g matrices costs O(g^3) where its input holds
# O(g^2) entries, so matrices are refused above this genus.
MAX_GENUS = 12


def _int_genus(g, what: str = "genus") -> int:
    """g, if it is an int (bool excluded); anything else raises ValueError
    naming ``what``.  Callers apply their own range rule.  Also the check
    of an exponent, a word length or a basis index."""
    if type(g) is not int:
        raise ValueError(f"{what} must be an int, got {g!r}")
    return g


def _check_genus(g) -> int:
    """g, if it is an int (bool excluded) in 1 .. MAX_GENUS; anything else
    raises ValueError before any work is done for it."""
    if _int_genus(g) < 1:
        raise ValueError(f"genus must be positive, got {g}")
    if g > MAX_GENUS:
        raise ValueError(f"genus {g} is too large: meyersig caps the genus at {MAX_GENUS}")
    return g


def standard_j(g: int) -> "SymplecticMatrix":
    """The standard symplectic form J = [[0, I_g], [-I_g, 0]]."""
    n = 2 * _check_genus(g)
    rows = [[0] * n for _ in range(n)]
    for i in range(g):
        rows[i][g + i] = 1
        rows[g + i][i] = -1
    return _wrap(g, tuple([tuple(row) for row in rows]))


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


def is_symplectic(rows, g: int) -> bool:
    """Whether the rows of a 2g x 2g integer matrix A satisfy A^T J A = J
    exactly; the rows are checked, then :func:`_is_symplectic`."""
    rows = check_rows(rows)
    n = 2 * g
    if len(rows) != n or len(rows[0]) != n:
        raise ValueError(f"expected a {n}x{n} matrix, got {len(rows)}x{len(rows[0])}")
    return _is_symplectic(rows, g)


def _is_symplectic(rows: tuple, g: int) -> bool:
    """A^T J A = J for the checked 2g x 2g rows of A, as the one product
    :func:`_inverse_rows` (A) A = I: that formula is -J A^T J for every A,
    and -J A^T J A = I is A^T J A = J."""
    return _product(_inverse_rows(rows, g), rows) == _identity_rows(2 * g)


class SymplecticMatrix:
    """An element of Sp(2g;Z), held as its rows, a tuple of int tuples;
    the rows are checked once, by :func:`~meyersig.matrix.check_rows`, and
    the defining identity on them by :func:`_is_symplectic` on
    construction.  Copies and pickles rebuild through the constructor.

    A matrix of genus above MAX_GENUS raises ValueError before the
    symplectic check.  The genus stored is the one the shape gives.
    """

    __slots__ = ("g", "rows")

    def __init__(self, entries, g: int | None = None):
        rows = check_rows(entries)
        n = len(rows)
        if n != len(rows[0]) or n % 2:
            raise ValueError(f"symplectic matrices are 2g x 2g, got {n}x{len(rows[0])}")
        if g is not None and g != n // 2:
            raise ValueError(f"genus {g} does not match a {n}x{n} matrix")
        g = _check_genus(n // 2)
        if not _is_symplectic(rows, g):
            raise ValueError("not symplectic: A^T J A != J")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return _rebuild, (type(self), self.rows)

    @property
    def mat(self) -> "SymplecticMatrix":
        """This matrix itself, so that ``m.mat.rows`` is ``m.rows``: a
        read-only alias kept for ``benchmarks/workloads.py::_rows``."""
        return self

    @staticmethod
    def identity(g: int) -> "SymplecticMatrix":
        return _wrap(g, _identity_rows(2 * _check_genus(g)))

    def __mul__(self, other: "SymplecticMatrix") -> "SymplecticMatrix":
        if not isinstance(other, SymplecticMatrix):
            return NotImplemented
        if self.g != other.g:
            raise ValueError(f"genus mismatch: {self.g} vs {other.g}")
        return _wrap(self.g, _product(self.rows, other.rows))

    def inverse(self) -> "SymplecticMatrix":
        return _wrap(self.g, _inverse_rows(self.rows, self.g))

    def __pow__(self, k: int) -> "SymplecticMatrix":
        base = self if _int_genus(k, "exponent") >= 0 else self.inverse()
        result = SymplecticMatrix.identity(self.g)
        k = abs(k)
        while k:  # repeated squaring: O(log k) products
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def apply(self, vector: Sequence[int]) -> tuple:
        """Matrix-vector product, returning a tuple of ints; an entry that
        is not an int (bool included) raises ValueError."""
        vec = tuple(vector)
        if len(vec) != 2 * self.g:
            raise ValueError(f"vector length {len(vec)} != {2 * self.g} columns")
        _check_ints((vec,))
        return tuple([sum(map(mul, row, vec)) for row in self.rows])

    def __eq__(self, other):
        return isinstance(other, SymplecticMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash((self.g, self.rows))

    def __repr__(self):
        return f"SymplecticMatrix({format_matrix(self.rows)!r})"


def _wrap(g: int, rows: tuple) -> SymplecticMatrix:
    """The one trusted constructor: rows that are symplectic by
    construction (products, inverses, identities), with no check."""
    obj = object.__new__(SymplecticMatrix)
    object.__setattr__(obj, "g", g)
    object.__setattr__(obj, "rows", rows)
    return obj


def _rebuild(cls: type, rows: tuple) -> SymplecticMatrix:
    """A copied or unpickled matrix of class ``cls`` (SymplecticMatrix or
    a subclass, whatever its constructor takes), its rows checked again
    by the SymplecticMatrix constructor."""
    obj = object.__new__(cls)
    SymplecticMatrix.__init__(obj, rows)
    return obj


def _inverse_rows(rows: Sequence[Sequence[int]], g: int) -> tuple[tuple[int, ...], ...]:
    """The rows of A^{-1} for the rows of A in Sp(2g;Z), read off A's columns.

    A^T J A = J gives A^{-1} = -J A^T J.  In g x g blocks
    A = [[P, Q], [R, S]] that is [[S^T, -Q^T], [-R^T, P^T]]: row i is
    J times column g + i of A, and row g + i is -J times column i.
    """
    cols = list(zip(*rows))
    top = [c[g:] + tuple([-e for e in c[:g]]) for c in cols[g:]]
    return tuple(top + [tuple([-e for e in c[g:]]) + c[:g] for c in cols[:g]])


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
    d = [[e - (i == j) for j, e in enumerate(row)] for i, row in enumerate(m.rows)]
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
    _check_genus(g)
    if not 1 <= _int_genus(i, "index") <= g:
        raise ValueError(f"A_{i} out of range for genus {g}")
    return tuple(int(t == i - 1) for t in range(2 * g))


def b_class(g: int, i: int) -> tuple:
    """The class B_i (1-based) as a coordinate vector."""
    _check_genus(g)
    if not 1 <= _int_genus(i, "index") <= g:
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
    _check_genus(g)
    if _int_genus(word_length, "word_length") < 0:
        raise ValueError("word_length must be >= 0")
    rng = random.Random(seed)
    factors = _random_factors(g)
    result = SymplecticMatrix.identity(g)
    for _ in range(word_length):
        result = result * rng.choice(factors)
    return result
