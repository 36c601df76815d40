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
constructor.  A genus is checked once, by :func:`_check_genus`.  Rows
already checked where they were read take the constructor's other checks
through :func:`_from_rows`, or through :func:`_classify`, which first asks
:func:`_recognize_twist`, the one rank-1 recognizer, whether they are a
Dehn-twist power and forms the A^T J A product only when they are not.
"""

import random
from functools import cache
from operator import mul
from typing import Sequence

from .exact import _check_ints, _primitive
from .matrix import _identity_rows, _product, check_rows, format_matrix
from .twist import _twist

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
    exactly; the rows are checked, then :func:`_is_symplectic`.  g must
    be an int, bool excluded, as :func:`_int_genus` checks."""
    rows = check_rows(rows)
    n = 2 * _int_genus(g)
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
        m = _from_rows(check_rows(entries), g)
        object.__setattr__(self, "g", m.g)
        object.__setattr__(self, "rows", m.rows)

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


def _shape_genus(rows: tuple, g: int | None) -> int:
    """The genus of checked rows: a square of even size 2g, g equal to
    ``g`` when that is given (an int, bool excluded, as
    :func:`_int_genus` checks), and at most MAX_GENUS; anything else
    raises ValueError before any product is formed."""
    n = len(rows)
    if n != len(rows[0]) or n % 2:
        raise ValueError(f"symplectic matrices are 2g x 2g, got {n}x{len(rows[0])}")
    if g is not None and _int_genus(g) != n // 2:
        raise ValueError(f"genus {g} does not match a {n}x{n} matrix")
    return _check_genus(n // 2)


def _from_rows(rows: tuple, g: int | None = None) -> SymplecticMatrix:
    """The matrix of rows that :func:`~meyersig.matrix.check_rows` has
    already checked: the shape and genus checks of :func:`_shape_genus`,
    then :func:`_is_symplectic`, with the constructor's messages."""
    g = _shape_genus(rows, g)
    if not _is_symplectic(rows, g):
        raise ValueError("not symplectic: A^T J A != J")
    return _wrap(g, rows)


def _classify(rows: tuple, g: int | None = None) -> tuple[SymplecticMatrix, tuple | None]:
    """(the matrix, its twist record or None) for checked rows, with the
    constructor's checks and messages: the shape and genus first, then
    :func:`_recognize_twist`; only rows it does not recognize run the
    product of :func:`_is_symplectic`, since a twist power is symplectic."""
    g = _shape_genus(rows, g)
    twist = _recognize_twist(rows, g)
    if twist is None and not _is_symplectic(rows, g):
        raise ValueError("not symplectic: A^T J A != J")
    return _wrap(g, rows), twist


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
    """The twist map x |-> x + TWIST_SIGN * <v, x> * v as a matrix; it
    fixes v (since <v, v> = 0) and is always symplectic."""
    return SymplecticMatrix(_transvection_rows(v))


def _transvection_rows(v: Sequence[int]) -> list[list[int]]:
    """The int rows I + v w of :func:`transvection` (v), for the row w of
    :func:`~meyersig.twist._twist` (v, TWIST_SIGN), which checks v."""
    v, _, w, _, _ = _twist(v, TWIST_SIGN)
    return [[int(i == j) + e * f for j, f in enumerate(w)] for i, e in enumerate(v)]


def twist_of(m: SymplecticMatrix) -> tuple[tuple[int, ...], int] | None:
    """(v, lam) with M - I = lam * v (v^T J), or None if there is none.

    Such an M is a power of the Dehn twist along v: M x = x + lam <v, x> v,
    which is transvection(v) ** (TWIST_SIGN * lam).  The class v is
    primitive with its first nonzero entry positive, so the pair is
    unique; the identity, -I and any M - I of rank above 1 give None.
    The recognizer is :func:`_recognize_twist`.
    """
    twist = _recognize_twist(m.rows, m.g)
    return None if twist is None else twist[:2]


def _recognize_twist(rows: tuple, g: int) -> tuple | None:
    """The :func:`~meyersig.twist._twist` record (v, lam, ...) of the
    checked 2g x 2g rows of A when A - I = lam v (v^T J) with v primitive,
    its first nonzero entry positive, and lam != 0; otherwise None.

    The one rank-1 recognizer.  The first nonzero column, col, of A - I
    is lam (v^T J)_col v, so v is its primitive part and lam its quotient
    at the first nonzero entry of v; A is then compared with I + v w,
    w = lam v^T J, row by row.  Rows that pass are symplectic with no
    product: for B = I + lam v v^T J,

        B^T J B = J + lam J v v^T J + lam J^T v v^T J
                    + lam^2 J^T v (v^T J v) v^T J = J,

    since J^T = -J cancels the two middle terms and v^T J v = <v, v> = 0
    the last.  Rows that fail may still be symplectic; the caller decides
    that.
    """
    for col, column in enumerate(zip(*rows)):
        if column[col] != 1 or any(column[:col]) or any(column[col + 1:]):
            break
    else:
        return None  # A = I
    d = list(column)
    d[col] -= 1
    v = _primitive(d)
    vj = -v[g + col] if col < g else v[col - g]  # (v^T J)_col
    i0 = next(i for i, e in enumerate(v) if e)
    if not vj or d[i0] % (v[i0] * vj):
        return None
    twist = _twist(v, d[i0] // (v[i0] * vj))
    w = twist[2]
    for i, (row, e) in enumerate(zip(rows, v)):
        expected = [e * f for f in w]
        expected[i] += 1
        if row != tuple(expected):
            return None
    return twist


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
    the others: the twists of :func:`~meyersig.presentations.hyperelliptic`."""
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
