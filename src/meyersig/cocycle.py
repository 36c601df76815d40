"""The signature cocycle tau_g on Sp(2g;Z).

For A, B in Sp(2g;Z) the value tau_sp(A, B) is the signature of the
bilinear pairing

    <(x, y), (x', y')> = (x + y)^T J (I - B) y'

restricted to the rational vector space

    V_{A,B} = { (x, y) : (A^{-1} - I) x + (B - I) y = 0 }.

Topologically this is the signature of a surface bundle over a pair of
pants whose two cuff monodromies act on homology by A and B; the algebra
below is the exact, finite computation of that signature.  The pairing is
symmetric when restricted to V_{A,B}; this is asserted rather than
assumed, because a failure pinpoints a kernel-basis bug immediately.

When A or B is the identity, :func:`tau_sp` returns 0 before any
elimination.  B = I makes every w = (I - B) y zero, and A = I makes
(B - I) y = 0 on V, so w = 0 again: the Gram matrix below is empty and
the symmetry guard has no term.

No form is built as a dense matrix product.  :func:`tau_sp` writes the
rows of [A^{-1} - I | B - I] once, from the block inverse of A read off
A's columns with one subtracted from each diagonal entry, and makes one
fraction-free Gauss-Jordan pass over them
(:func:`meyersig.exact._gauss_jordan`).  Each free column f of the
reduced rows gives one kernel vector (x, y): d at f and -row[f] at the
pivot of each row, d the last pivot.  :func:`_kernel_readout` reads
x + y off that at length 2g, since column j and column 2g + j both land
on entry j, together with the terms of y: d at f when f is a y-column,
and -row[f] at each y-pivot with row[f] != 0.  The vectors are not
normalized: scaling the i-th one by an integer c_i != 0 turns the Gram
matrix G into D G D with D = diag(c_i), a congruence, so by Sylvester's
law of inertia the signature is unchanged (and the congruence loop
divides each block by its content anyway).  J w = J (I - B) y is then
the sum of the terms of y times the matching columns of J (I - B)
(:func:`_j_columns`, read once per call, and only when some y-column
is free), and the Gram entry is the dot product of x + y with J w.  No
width-4g vector and no product B y is made.

Most of that Gram matrix is radical.  A basis vector with w = 0 pairs
to zero with every vector from the right, so its Gram column is zero,
and by symmetry on V so is its row.  Dropping it therefore leaves p - q
unchanged, and :func:`tau_sp` builds the Gram matrix only on the vectors
with w != 0.  The vector of a free column f is nonzero only at f and at
pivot columns left of f, so when f is an x-column its y is 0 and it is
dropped with no column of B read.  The symmetry guard still covers
every pair: it also requires each dropped vector's row, (x + y)^T J w
against each kept w, to be zero.  The Gram matrix, checked symmetric,
goes straight to :func:`meyersig.exact._inertia`, which reads a form of
dim 1 or 2 off its determinant and trace and takes integer congruence
steps on a larger one.  :func:`v_space` gives the public, primitive
basis of the same rows.  When B is a Dehn-twist power, tau is one sign,
derived in :mod:`meyersig.twist`.
"""

from operator import mul
from typing import Sequence

from .exact import _gauss_jordan, _inertia, kernel_basis
from .matrix import _add_identity, _identity_rows
from .symplectic import SymplecticMatrix, _wrap
from .twist import _twist, _twist_solve
from .value import Value


class VSpace(Value):
    """An integer basis of V_{A,B} inside Z^{2g} + Z^{2g} (length-4g vectors)."""

    __slots__ = _fields = ("g", "basis")

    def __init__(self, g: int, basis: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "basis", basis)

    @property
    def dim(self) -> int:
        return len(self.basis)


def _v_rows(a: SymplecticMatrix, b: SymplecticMatrix) -> list[list[int]]:
    """The rows of [A^{-1} - I | B - I], written straight from A's columns:
    row i < g of A^{-1} is J times column g + i of A, and row g + i is
    -J times column i (:func:`~meyersig.symplectic._inverse_rows`)."""
    if a.g != b.g:
        raise ValueError(f"genus mismatch: {a.g} vs {b.g}")
    g, n = a.g, 2 * a.g
    cols = list(zip(*a.rows))
    rows = [[*c[g:], *[-e for e in c[:g]]] for c in cols[g:]]
    rows += [[*[-e for e in c[g:]], *c[:g]] for c in cols[:g]]
    for r, (row, s) in enumerate(zip(rows, b.rows)):
        row += s
        row[r] -= 1
        row[n + r] -= 1
    return rows


def v_space(a: SymplecticMatrix, b: SymplecticMatrix) -> VSpace:
    """Kernel basis of the 2g x 4g block matrix [A^{-1} - I | B - I]."""
    return VSpace(a.g, tuple(kernel_basis(_v_rows(a, b))))


def tau_sp(a: SymplecticMatrix, b: SymplecticMatrix) -> int:
    """Signature of the pants-bundle pairing on V_{A,B}.

    Zero whenever either argument is the identity or B = A^{-1}; bounded
    by dim V_{A,B} <= 4g in absolute value.  When A or B is the identity
    it returns 0 with no elimination: B = I makes every w = (I - B) y
    zero, and A = I forces (B - I) y = 0 on V, so the Gram matrix is
    empty either way.  Otherwise one Gauss-Jordan pass over
    [A^{-1} - I | B - I] gives one kernel vector per free column, read
    off the reduced rows by :func:`_kernel_readout` as x + y and the
    terms of y, not normalized: rescaling a vector by a nonzero integer
    multiplies its Gram row and column by it, a congruence D G D that
    leaves the inertia unchanged.  w = (I - B) y is summed from the
    columns of I - B at the terms of y, so no width-4g vector and no
    product B y is made.  A vector with w = 0 spans part of the radical
    (its Gram column is zero, and on V so is its row), so the Gram matrix
    is built only on the vectors with w != 0; a free x-column gives
    y = 0 and is dropped before any column of B is read.  The symmetry
    check still covers every pair: kept against kept entrywise, and each
    dropped vector's row against the kept ones must be zero.
    """
    g, n = a.g, 2 * a.g
    if b.g != g:
        raise ValueError(f"genus mismatch: {g} vs {b.g}")
    eye = _identity_rows(n)
    if a.rows == eye or b.rows == eye:
        return 0
    rows = _v_rows(a, b)
    pivots, d = _gauss_jordan(rows, 2 * n)
    kept, j_ws, dropped = [], [], []
    j_cols = None
    for _, s, ys in _kernel_readout(rows, pivots, d, n):
        if not ys:  # an x-column: y = 0
            dropped.append(s)
            continue
        if j_cols is None:
            j_cols = _j_columns(b.rows, g)
        if len(ys) == 1:
            k, c = ys[0]
            j_w = [k * e for e in j_cols[c]]
        else:
            ks = [k for k, _ in ys]
            j_w = [sum(map(mul, ks, t)) for t in zip(*[j_cols[c] for _, c in ys])]
        if any(j_w):
            kept.append(s)
            j_ws.append(j_w)
        else:
            dropped.append(s)
    gram = [[sum(map(mul, s, j_w)) for j_w in j_ws] for s in kept]
    if gram != [list(col) for col in zip(*gram)] or any(
        [sum(map(mul, s, j_w)) for s in dropped for j_w in j_ws]
    ):
        raise ArithmeticError(
            "pairing is not symmetric on V_{A,B}; this indicates a kernel-basis bug"
        )
    return _inertia(gram).value


def _kernel_readout(
    rows: list[list[int]], pivots: list[int], d: int, n: int
) -> list[tuple[int, list[int], list[tuple[int, int]]]]:
    """(f, x + y, the terms of y) for each free column f of
    [A^{-1} - I | B - I], 2g = n, reduced by :func:`_gauss_jordan`,
    which returned pivots and d.

    The kernel vector of f is d at f, -row[f] at the pivot column of each
    row and 0 elsewhere (:func:`meyersig.exact._free_columns`).  Column j
    and column n + j both land on entry j of x + y.  The terms of y are
    the pairs (y_c, c) with y_c != 0: (d, f - n) and (-row[f], p - n) for
    each y-pivot p with row[f] != 0.  A row is zero left of its pivot, so
    an x-column f (f < n) meets only x-pivots and its y is 0: no terms.
    """
    pivoted = set(pivots)
    spots = [(row, p - n if p >= n else p, p >= n) for row, p in zip(rows, pivots)]
    out = []
    for f in range(2 * n):
        if f in pivoted:
            continue
        s = [0] * n
        if f < n:
            s[f], ys = d, []
        else:
            s[f - n], ys = d, [(d, f - n)]
        for row, c, is_y in spots:
            e = row[f]
            if e:
                s[c] -= e
                if is_y:
                    ys.append((-e, c))
        out.append((f, s, ys))
    return out


def _j_columns(rows: Sequence[Sequence[int]], g: int) -> list[tuple[int, ...]]:
    """The columns of J (I - B), from B's rows.  J u is
    (u_{g..2g-1}, -u_{0..g-1}), so row i < g of J (I - B) is e_{g+i}
    minus row g + i of B, and row g + i is row i of B minus e_i."""
    k = [[-e for e in row] for row in rows[g:]] + [list(row) for row in rows[:g]]
    for i in range(g):
        k[i][g + i] += 1
        k[g + i][i] -= 1
    return list(zip(*k))


def tau_twist(a: SymplecticMatrix, v: Sequence[int], lam: int) -> int:
    """tau_sp(A, B) for the twist power B x = x + lam <v, x> v, by the one
    solve of :mod:`meyersig.twist`.

    v and lam are checked by :func:`~meyersig.twist._twist`, as for
    :func:`~meyersig.symplectic.transvection`; a class whose length is
    not 2g also raises ValueError.  lam = 0 gives B = I and tau = 0.
    """
    twist = _twist(v, lam)
    if len(twist[0]) != 2 * a.g:
        raise ValueError(f"twist class of length {len(twist[0])} at genus {a.g}")
    return _twist_solve(_add_identity(a.rows, -1), twist)[0]


_MINUS_I1 = _wrap(1, ((-1, 0), (0, -1)))  # -I in Sp(2;Z), built once


def sigma_defect_via_tau(alpha: SymplecticMatrix) -> int:
    """tau_1(alpha, -I), the genus-1 signature defect of alpha.

    Agrees with :func:`meyersig.genus1.signature_defect`, which reads the
    signature of [[-2c, a-d], [a-d, 2b]] off the trace of alpha and b - c;
    the agreement of the two routes is one of the package's cross-checked
    invariants.
    """
    if alpha.g != 1:
        raise ValueError(f"defined only at genus 1, got genus {alpha.g}")
    return tau_sp(alpha, _MINUS_I1)
