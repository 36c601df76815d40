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
basis of the same rows.

Twist letters.  A power B of a Dehn twist acts as
B x = x + lam <v, x> v, with <v, x> = v^T J x, and is kept as the record
(v, lam, w, v_terms, w_terms) of :func:`meyersig.symplectic._twist`, its
one constructor and check: w = lam v^T J, so B - I = v w has rank 1, and
lam = 0 gives B = I.

The step.  With M = A - I, AB - I = M + A v w = M + (M v + v) w, a
rank-1 update: row r gains (M v + v)_r times w
(:func:`meyersig.symplectic._twist_step`).

The sign.  With (B - I) y = lam s v, where s = <v, y>, a point (x, y)
lies in V_{A,B} exactly when (A^{-1} - I) x = t v with t = -lam s, and
the pairing is <(x, y), (x', y')> = -lam s' <x + y, v>.  Were s zero on
all of V, the pairing would vanish and tau = 0.  Otherwise the pairing
is symmetric only if <x + y, v> = kappa s on V, so it has rank 1 and its
signature is the sign of its value on any one point with s != 0.  Such
a point is (x, y) with t != 0 and <v, y> = -t / lam; there
<x + y, v> = <x, v> + t / lam, and the value is
(t / lam) (lam <x, v> + t).  Multiplying (A^{-1} - I) x = t v by A
gives (A - I) x + t A v = 0, so

    tau(A, B) = sign(lam * t * (lam <x, v> + t))

for any rational x and t != 0 with (A - I) x + t A v = 0, and 0 when
every such solution has t = 0.

The solve.  Since A v = (A - I) v + v, the point x~ = x + t v solves
(A - I) x~ + t v = 0, and <x~, v> = <x, v> because <v, v> = 0; so x~
may stand for x in the sign.  :func:`_twist_solve`, behind
:func:`tau_twist` and the cochain walk above genus 2, makes one fraction-free solve of
the 2g x (2g+1) system [M | v] (:func:`meyersig.exact.affine_point`).
It gives t and w x = lam <v, x> = -lam <x, v> read off the reduced
rows, so tau is the sign of lam * t * (t - w x), or it shows that there
is no point and tau = 0; its pivot count is rank M.  It builds no
product A v, no vector x, no kernel basis, no inverse and no signature.

The rank moves.  Over Q, im M is the symplectic complement of ker M:
for A x = x, <x, M y> = <A x, A y> - <x, y> = 0, so im M lies in the
complement, and both have dimension 2g - dim ker M.  The step is a
rank-1 update by the column A v = M v + v.  If v is outside im M (no
point), then so is A v, and the row w is nonzero on ker M (v is outside
its complement), so the rank rises by 1.  If v is inside im M, then A v
lies in the column space of M and w, which vanishes on ker M, in its
row space; the rank then falls by 1 exactly when 1 + lam <v, y'> = 0
for M y' = A v, and with y' = v - x / t that is t + lam <x, v> = 0,
where the sign above reads 0 (<v, k> = 0 for k in ker M, so any
solution serves).  Otherwise the rank stays the same.

The determinant-sign rule.  Most of the time not even that solve is
needed (Kirby-Melvin 1994 read the same cocycle off sign det(A - I)).
Since the step is a rank-1 update, the matrix determinant lemma gives,
when det(A - I) != 0,

    det(AB - I) = det(A - I) * (1 + lam v^T J (A - I)^{-1} A v).

Then the kernel point has t = 1 and x = -(A - I)^{-1} A v, so
<x, v> = -v^T J x = v^T J (A - I)^{-1} A v and lam <x, v> + 1 =
det(AB - I) / det(A - I).  The sign above becomes

    tau(A, B) = sign(lam) * sign det(A - I) * sign det(AB - I).

When det(A - I) = 0 but det(AB - I) != 0, the cocycle identity at
(A, B, B^{-1}) gives tau(A, B) = -tau(AB, B^{-1}).  Here B^{-1} is the
twist power with -lam and (AB) B^{-1} = A, so the case above, applied
at AB, gives tau(A, B) = -sign(-lam) * sign det(AB - I) * sign det(A - I):
the same formula, here 0.  So the formula holds whenever one of the two
determinants is nonzero; when both vanish tau is often nonzero, and the
solve or the rule below gives it.

The minor-sign rule.  When both determinants vanish, the walk at
2g <= 4 reads tau off two minors instead of the solve.  Let r = rank M,
let sigma be the involution i -> i + g mod 2g of the coordinates, which
swaps A_i and B_i, and for a set I of r indices let m_I(X) be the r x r
minor of X on the rows I and the columns sigma(I).  Then

  (a) some m_I(M) is nonzero;
  (b) for such an I, v lies in im M exactly when every bordered minor
      of [M_{., sigma(I)} | v] on the rows I and one row k outside I
      vanishes, and at r = 2g - 1 it always lies there when
      det(AB - I) = 0;
  (c) if v lies outside im M, tau = 0 and the rank rises to r + 1; if it
      lies inside,

          tau(A, B) = sign(lam * m_I(A - I) * m_I(AB - I)),

      and the rank stays r when m_I(AB - I) != 0 and falls to r - 1
      when it is 0.

At r = 2g, I holds every index, m_I = +-det with the same sign for M
and M', and (c) is the determinant-sign rule.

Proof of (a).  The r x r minors of a matrix of rank r form an outer
product, m_{I,K}(M) = kappa p_I q_K with kappa != 0, p the Pluecker
coordinates of its column space and q those of its row space.  The
column space is im M = (ker M)^omega, the row space is (ker M)^perp, and
since <k, u> = (J^T k)^T u, (ker M)^omega = (J ker M)^perp =
J (ker M)^perp: im M is J times the row space.  J sends each e_i to
+-e_sigma(i), so p_I = +-q_sigma(I) and m_I(M) = +-kappa q_sigma(I)^2,
which is nonzero for I = sigma(K) with q_K != 0.

Proof of (b).  The r columns sigma(I) of M are independent, since their
rows I have a nonzero minor, so they span im M.  With that block
invertible, v lies in their span exactly when each row k outside I
agrees with the combination its rows I fix, and by the Schur complement
the bordered minor on the rows I and k is +-m_I(M) times the defect of
row k.  At r = 2g - 1, a v outside im M would raise the rank to 2g (the
rank moves), against det(AB - I) = 0.

Proof of (c).  The first half is the rank moves.  For v in im M, ker M
lies in ker M' and im M' in im M (the rank moves); if rank M' = r they
are equal, so the minors of M' are kappa' p_I q_K with the same p and q,
and m_I(M') / m_I(M) = kappa' / kappa.  For the ratio, let the columns
of K span ker M and border M as

    N = [[M, J K], [K^T, 0]].

N is invertible: N (y, z) = 0 says M y = -J K z, which lies in
(ker M)^omega only if K^T K z = 0, so z = 0, and then y is in ker M with
K^T y = 0, so y = 0.  Laplace expansion along the first 2g rows writes
det N as a linear form in the r x r minors of M whose coefficients come
from K alone: the columns J K and the rows K^T, 2g - r of each, leave
r rows and r columns for M.  With the same K, N' = N + (A v, 0)(w, 0)
borders M' in the same way, and the matrix determinant lemma gives
det N' = det N (1 + (w, 0) N^{-1} (A v, 0)).  Since A v lies in im M,
N^{-1} (A v, 0) = (y', 0) with M y' = A v, so the factor is
1 + lam <v, y'> = s / t, by the rank moves, where s = t + lam <x, v>.
Hence m_I(M') = (s / t) m_I(M), and sign(lam * m_I(M) * m_I(M')) =
sign(lam * t * s) = tau.  When s = 0 the rank falls, every r x r minor
of M' vanishes, and the formula still reads tau = 0.  So m_I(M') = 0
exactly when the rank falls.

:func:`_minor_sign` takes the minors of size up to 3 in straight-line
code (:func:`meyersig.exact._minor`), so it makes no elimination.
Above 2g = 4 there would be up to C(2g, r) candidate minors of size up
to 2g - 1, and the walk takes the solve there.

The walk.  The cochain of :mod:`meyersig.presentations` carries M = P - I
along the prefixes P of a word as plain integer rows, with d = sign det M
and an upper bound on rank M.  A twist letter takes the step.  A rank-1
update moves the rank by at most 1, so the new d' is 0 with no
determinant while the bound is below 2g - 1.  When d or d' is nonzero
the letter adds sign(lam) * d * d', and the bound becomes 2g, or 2g - 1
when d' = 0.  When both are 0 it adds the value of :func:`_minor_sign`.
At 2g <= 4 that is the minor-sign rule: it tries the sigma-diagonal
minors of the bound's size and lowers the size past each one at which
they all vanish, so by (a) it stops at rank M, and the bound it returns
is rank M' exactly.  Above 2g = 4 it is the solve on the old M's rows,
whose pivots give rank M, and the bound it returns is again rank M'
exactly (the rank moves).  At bound 0,
M = 0 and P = I, so tau(I, B) = 0 with no solve, and the new bound is 1.
From the identity the bound is exact on words of twist letters.  Any
other letter takes :func:`tau_sp` on P, the full product and one
determinant, after which the bound is 2g if d' != 0, else 2g - 1, or 0
when the new M is 0; the bound may then exceed the rank until the
next twist letter with both determinants 0 sets it to the rank.
"""

from dataclasses import dataclass
from itertools import combinations
from operator import mul
from typing import Sequence

from .exact import _gauss_jordan, _inertia, _minor, _sign, affine_point, kernel_basis
from .matrix import IntMatrix, _add_identity
from .symplectic import SymplecticMatrix, _inverse_rows, _twist, _wrap


@dataclass(frozen=True)
class VSpace:
    """An integer basis of V_{A,B} inside Z^{2g} + Z^{2g} (length-4g vectors)."""

    g: int
    basis: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.basis)


def _v_rows(a: SymplecticMatrix, b: SymplecticMatrix) -> list[list[int]]:
    """The rows of [A^{-1} - I | B - I], A^{-1} read off A's columns."""
    if a.g != b.g:
        raise ValueError(f"genus mismatch: {a.g} vs {b.g}")
    n = 2 * a.g
    rows = [[*r, *s] for r, s in zip(_inverse_rows(a.mat.rows, a.g), b.mat.rows)]
    for r, row in enumerate(rows):
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
    eye = IntMatrix.identity(n).rows
    if a.mat.rows == eye or b.mat.rows == eye:
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
            j_cols = _j_columns(b.mat.rows, g)
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
    solve of the module docstring.

    v and lam are checked by :func:`~meyersig.symplectic._twist`, as for
    :func:`~meyersig.symplectic.transvection`; a class whose length is
    not 2g also raises ValueError.  lam = 0 gives B = I and tau = 0.
    """
    twist = _twist(v, lam)
    if len(twist[0]) != 2 * a.g:
        raise ValueError(f"twist class of length {len(twist[0])} at genus {a.g}")
    return _twist_solve(_add_identity(a.mat.rows, -1), twist)[0]


def _twist_solve(m: Sequence[Sequence[int]], twist: tuple) -> tuple[int, int]:
    """(tau_sp(A, B), rank(AB - I)) for the twist power B of the record
    ``twist``, from the rows of M = A - I: the solve and the rank moves of
    the module docstring, from r = rank M, the solve's pivot count."""
    v, lam, w, _, _ = twist
    r, point = affine_point([[*row, e] for row, e in zip(m, v)], w)
    if point is None:
        return 0, r + 1
    t, wx = point
    s = t - wx  # lam <x, v> + t
    return _sign(lam * t * s), r if s else r - 1


def _sigma_minors(n: int) -> dict[int, list[tuple]]:
    """Per size r = 1 .. n - 1, the sigma-diagonal r x r minors at 2g = n:
    (I, sigma(I), the rows outside I) for each r-subset I of the rows."""
    g = n // 2
    minors: dict[int, list[tuple]] = {}
    for r in range(1, n):
        minors[r] = []
        for rows in combinations(range(n), r):
            cols = tuple([(i + g) % n for i in rows])
            minors[r].append((rows, cols, tuple([k for k in range(n) if k not in rows])))
    return minors


_SIGMA_MINORS = {n: _sigma_minors(n) for n in (2, 4)}  # the genus-1 and genus-2 walks


def _minor_sign(m: tuple, new: tuple, twist: tuple, bound: int) -> tuple[int, int]:
    """(tau_sp(A, B), a new bound on rank(AB - I)) at a twist letter where
    det(A - I) and det(AB - I) both vanish, from the rows of M = A - I and
    M' = AB - I, the record ``twist`` and a bound 0 < bound < 2g on rank M.

    At 2g <= 4 this is the minor-sign rule of the module docstring;
    above that, the solve.  Either way the bound it returns is rank M'
    exactly.
    """
    n = len(m)
    if n > 4:
        return _twist_solve(m, twist)
    minors = _SIGMA_MINORS[n]
    for r in range(bound, 0, -1):
        for rows, cols, others in minors[r]:
            minor = _minor(m, rows, cols)
            if minor:
                break
        else:
            continue  # rank M < r
        if r < n - 1:  # is v in im M, the span of the columns cols?
            bordered = [(*row, e) for row, e in zip(m, twist[0])]
            border = (*cols, n)
            if any(_minor(bordered, (*rows, k), border) for k in others):
                return 0, r + 1
        new_minor = _minor(new, rows, cols)
        if not new_minor:
            return 0, r - 1
        return _sign(twist[1] * minor * new_minor), r
    return 0, 1  # M = 0


_MINUS_I1 = _wrap(1, -IntMatrix.identity(2))  # -I in Sp(2;Z), built once


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
