"""Dehn-twist letters: what one does to M = A - I, and the tau it adds.

A power B of a Dehn twist acts as B x = x + lam <v, x> v, with
<v, x> = v^T J x, and is kept as the record (v, lam, w, v_terms, w_terms)
of :func:`_twist`, its one constructor and check: w = lam v^T J, so
B - I = v w has rank 1, and lam = 0 gives B = I.  tau is
:func:`meyersig.cocycle.tau_sp`, the pairing on V_{A,B} there.

The step.  With M = A - I, AB - I = M + A v w = M + (M v + v) w, a
rank-1 update: row r gains (M v + v)_r times w (:func:`_twist_step`, and
inline in the straight-line walks).

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
:func:`meyersig.cocycle.tau_twist` and the general walk, makes one
fraction-free solve of the 2g x (2g+1) system [M | v]
(:func:`meyersig.exact.affine_point`).
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

The minor-sign rule.  When both determinants vanish, the straight-line
walk at 2g <= 4 reads tau off two minors instead of the solve.  Let r = rank M,
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

At 2g <= 4, :func:`_minor_sign` reads the minors off M and M' flattened
row by row, through index tables of the sigma-diagonal minors and their
bordered minors built once per size (``_SIGMA_MINORS``), and takes each
in straight-line code, so it makes no elimination.  It is told r = rank M
by the walk and tries the sigma-diagonal minors of that size alone; if
all of them vanish, (a) says r is not the rank, and it raises
ArithmeticError rather than answer.  Above 2g = 4 there would be up to
C(2g, r) candidate minors of size up to 2g - 1, and the walk takes the
solve there.

The walk.  The cochain of :mod:`meyersig.presentations` carries M = P - I
along the prefixes P of a word, with d = sign det M and an upper bound
on rank M.  A twist letter takes the step.  A rank-1 update moves the
rank by at most 1, so the new d' is 0 with no determinant while the
bound is below 2g - 1.  When d or d' is nonzero the letter adds
sign(lam) * d * d', and the bound becomes 2g, or 2g - 1 when d' = 0.
When both are 0 it adds tau by the minor-sign rule or the solve.  At
bound 0, M = 0 and P = I, so tau(I, B) = 0 with no solve, and the new
bound is 1 (lam != 0 for every twist letter a presentation holds).  By
the rank moves, each of these steps keeps the bound equal to the rank
once it is, and it is at the identity, so on a word of twist letters the
bound is rank M exactly.

At 2g <= 4, over a presentation whose generators are all twist powers,
the walk is straight-line code on M's 4 or 16 entries as local ints and
keeps rank M itself: it takes the step as f = M v + v, M' = M + f w, the
determinant in closed form, and :func:`_minor_sign` on the flat entries
at r = rank M, which returns rank M'.  It calls no elimination, no
:func:`meyersig.exact.determinant` and no tau_sp.  The general walk
carries M as rows at any size and over any generators: it takes the
step by :func:`_twist_step`, a determinant by
:func:`meyersig.exact.determinant` (Bareiss elimination, independent of
the closed forms), and, at both determinants 0, :func:`_twist_solve` on
the old M's rows, whose pivots give rank M, so the bound it returns is
again rank M' exactly (the rank moves).  A letter that is no twist power
takes :func:`meyersig.cocycle.tau_sp` on P, the full product and one
determinant, after which the bound is 2g if d' != 0, else 2g - 1, or 0
when the new M is 0; it may then exceed the rank until the next twist
letter with both determinants 0 sets it to the rank.  The general walk
is the walk above 2g = 4 and of every presentation with a non-twist
generator, and the oracle the tests hold the straight-line walks
against.
"""

from itertools import combinations
from operator import itemgetter
from typing import Sequence

from .exact import _check_ints, _sign, affine_point


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
    M + (M v + v) w of the module docstring, so row r gains
    f_r = (M v + v)_r times w.

    Only the entries of M on the support of v are read and only those on
    the support of w are written; a row with f_r = 0 is kept as it is.
    """
    v, _, _, v_terms, w_terms = twist
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


def _sigma_minors(n: int) -> dict[int, tuple]:
    """Per size r = 1 .. n - 1, the sigma-diagonal r x r minors at 2g = n,
    read off M flattened row by row: for each r-subset I of the rows, the
    pair (the flat index of M's entry at r = 1, else an itemgetter of the
    r * r entries on the rows I and the columns sigma(I), row by row;
    itemgetters of the entries of each bordered minor of
    [M_{., sigma(I)} | v] on the rows I and a row k outside I, from M + v,
    or () at r = n - 1, where none is needed)."""
    g = n // 2
    minors: dict[int, tuple] = {}
    for r in range(1, n):
        tables = []
        for rows in combinations(range(n), r):
            cols = [(i + g) % n for i in rows]
            at = [i * n + j for i in rows for j in cols]
            borders = tuple(
                itemgetter(*[e for i in (*rows, k) for e in (*[i * n + j for j in cols], n * n + i)])
                for k in range(n) if k not in rows
            ) if r < n - 1 else ()
            tables.append((at[0] if r == 1 else itemgetter(*at), borders))
        minors[r] = tuple(tables)
    return minors


_SIGMA_MINORS = {n: _sigma_minors(n) for n in (2, 4)}  # the genus-1 and genus-2 walks


def _det(x: tuple) -> int:
    """The determinant of the 2 x 2 or 3 x 3 matrix with the entries x,
    row by row, in straight-line code."""
    if len(x) == 4:
        return x[0] * x[3] - x[1] * x[2]
    a, b, c, d, e, f, g, h, i = x
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _minor_sign(m: tuple, new: tuple, twist: tuple, r: int) -> tuple[int, int]:
    """(tau_sp(A, B), rank(AB - I)) at a twist letter where det(A - I) and
    det(AB - I) both vanish, from M = A - I and M' = AB - I, the record
    ``twist`` and r = rank M, 0 < r < 2g.

    M and M' come at 2g <= 4 as the 4 or 16 entries, row by row, that the
    straight-line walks carry, and the minor-sign rule of the module
    docstring reads them through the tables ``_SIGMA_MINORS`` at size r
    alone.  By (a) one sigma-diagonal r x r minor of M is nonzero; when
    none is, r is not rank M, and ArithmeticError is raised.
    """
    v = twist[0]
    for at, borders in _SIGMA_MINORS[len(v)][r]:
        minor = m[at] if r == 1 else _det(at(m))
        if minor:
            break
    else:
        raise ArithmeticError(f"no sigma-diagonal {r} x {r} minor of M is nonzero: rank M is not {r}")
    new_minor = new[at] if r == 1 else _det(at(new))
    if borders:  # r < 2g - 1: is v in im M, the span of the columns sigma(I)?
        mv = m + v
        for border in borders:
            if _det(border(mv)):
                return 0, r + 1
    if not new_minor:
        return 0, r - 1
    return _sign(twist[1] * minor * new_minor), r
