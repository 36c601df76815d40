"""Exact integer linear algebra: signatures of symmetric forms, kernels,
determinants, single solutions of linear systems, and the order of a
vector modulo an integer lattice.

Input is integer.  The public entries, :func:`signature` and
:func:`kernel_basis`, refuse any entry that is not an ``int`` (a Fraction,
a float or a bool) with ValueError, since the fraction-free passes below
would floor-divide it silently; :func:`signature` also refuses rows that
are not a symmetric square.  The internal helpers :func:`determinant`,
:func:`affine_point`, :func:`lattice_order`, the free-column readout
:func:`_free_columns` and :func:`_minor` trust their caller.
:func:`determinant` is straight-line code at n = 2 and n = 4, the sizes
of the genus-1 and genus-2 walks (p t - q r, and the Laplace expansion
in complementary 2 x 2 minors), and so is :func:`_minor`, the 1 x 1 to
3 x 3 minors of those walks' minor-sign rule.  :func:`_inertia`, behind
:func:`signature` and :func:`meyersig.cocycle.tau_sp`, is straight-line
code at dim 1 and 2 (the sign of p, and det = p t - q^2 with the
trace), and a larger form ends there after its congruence steps.
Every other step is fraction-free elimination over Python ints, in the
style of Bareiss (1968):
:func:`determinant` at other sizes and the one Gauss-Jordan pass that
:func:`kernel_basis`, :func:`affine_point` and
:func:`meyersig.cocycle.tau_sp` share divide each new entry
exactly by the previous pivot, which keeps every entry a minor of the
input; :func:`signature` divides each new block by its content, the gcd
of its entries; :func:`lattice_order` scales its residual by just enough
to divide exactly.  No floating point appears anywhere in this package.
The signature is read off by congruence diagonalization rather than from
eigenvalues, which is what makes an exact answer possible.

Tuples and star-arguments here are built from lists, not generators:
CPython sizes a tuple drawn from a generator by a guess and a resize,
which strands blocks in its tuple free lists and raises peak memory.
"""

import math
from typing import NamedTuple, Sequence


class SignatureTriple(NamedTuple):
    """Inertia of a symmetric form: counts of +, -, and zero diagonal entries
    after congruence diagonalization."""

    positive: int
    negative: int
    null: int

    @property
    def value(self) -> int:
        """The signature: positive count minus negative count."""
        return self.positive - self.negative

    @property
    def dim(self) -> int:
        return self.positive + self.negative + self.null


def signature(rows: Sequence[Sequence[int]]) -> SignatureTriple:
    """Inertia (p, q, z) of a symmetric integer form by exact congruence.

    The rows must be square, with int entries only, and exactly
    symmetric; anything else raises ValueError.

    Each step takes a nonzero diagonal pivot d, counts +1 or -1 by its
    sign, and replaces the trailing block by sign(d) * (d * a_rs - a_rd * a_ds),
    a positive multiple of the Schur complement, divided by its content.
    When the diagonal is all zero but some a_kl is not, the congruence
    r_k += r_l, c_k += c_l first makes a_kk = 2 * a_kl the pivot.  Neither
    congruence nor positive scaling changes inertia, so the tally is the
    inertia of the input; a block that reaches zero is its radical.
    """
    a = _check_ints([list(row) for row in rows])
    n = len(a)
    for i, row in enumerate(a):
        if len(row) != n:
            raise ValueError(f"row {i} has {len(row)} entries in a {n}x{n} form")
    for i in range(n):
        for j in range(i + 1, n):
            if a[i][j] != a[j][i]:
                raise ValueError(
                    f"not symmetric: entry ({i},{j})={a[i][j]} != ({j},{i})={a[j][i]}"
                )
    return _inertia(a)


def _inertia(a: list[list[int]]) -> SignatureTriple:
    """Inertia of the symmetric integer matrix a, by the congruence steps of
    :func:`signature`; a is consumed.  The caller vouches for symmetry.

    A block of dim 1 or 2 is read off in straight-line code: [[p]] by the
    sign of p, and [[p, q], [q, t]] by det = p t - q^2, the product of its
    two eigenvalues.  det < 0 gives one of each sign; det > 0 two of the
    sign of p; det = 0 at most one nonzero, of the sign of the trace
    p + t, and none when the trace is 0 too (p t = q^2 with p = -t forces
    p = t = q = 0).  A larger form takes congruence steps down to dim 2
    (:func:`_congruence`) and ends the same way.
    """
    dim = len(a)
    pos = neg = 0
    if dim > 2:
        pos, neg, a = _congruence(a, 2)
    if len(a) == 2:
        (p, q), (_, t) = a
        det = p * t - q * q
        if det < 0:
            pos += 1
            neg += 1
        elif det > 0:
            if p > 0:
                pos += 2
            else:
                neg += 2
        else:
            pos += p + t > 0
            neg += p + t < 0
    elif a:
        pos += a[0][0] > 0
        neg += a[0][0] < 0
    return SignatureTriple(pos, neg, dim - pos - neg)


def _congruence(a: list[list[int]], stop: int) -> tuple[int, int, list[list[int]]]:
    """(positive count, negative count, the block left) after the congruence
    steps of :func:`signature` on the symmetric matrix a, taken while the
    block is larger than stop; a is consumed.  The block left is empty
    when it reached zero, since a zero block is all radical."""
    pos = neg = 0
    while len(a) > stop:
        k = next((i for i, row in enumerate(a) if row[i]), None)
        if k is None:
            k = next((i for i, row in enumerate(a) if any(row)), None)
            if k is None:
                return pos, neg, []
            l = next(j for j, e in enumerate(a[k]) if e)
            for row in a:
                row[k] += row[l]
            a[k] = [e + f for e, f in zip(a[k], a[l])]
        pivot = a.pop(k)
        d = pivot.pop(k)
        for row in a:
            del row[k]
        sign = 1 if d > 0 else -1
        pos += d > 0
        neg += d < 0
        # by symmetry the pivot row also serves as the pivot column a_rd
        a = [[sign * (d * e - r * p) for e, p in zip(row, pivot)] for row, r in zip(a, pivot)]
        content = math.gcd(*[e for row in a for e in row])
        if content > 1:
            a = [[e // content for e in row] for row in a]
    return pos, neg, a


def kernel_basis(rows: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Basis of the right kernel {v : Mv = 0} as primitive integer vectors.

    M must have at least one row, all of one width, and int entries only;
    anything else raises ValueError.  One fraction-free Gauss-Jordan pass
    (:func:`_gauss_jordan`) and its free-column readout
    (:func:`_free_columns`) give one kernel vector per free column; each is
    divided by its content, with the first nonzero entry made positive, so
    the output is deterministic.  Returns [] when the kernel is trivial.
    """
    mat = _check_ints([list(row) for row in rows])
    if not mat:
        raise ValueError("kernel_basis needs a matrix with at least one row")
    width = len(mat[0])
    if any(len(row) != width for row in mat):
        raise ValueError("ragged matrix")
    pivots, d = _gauss_jordan(mat, width)
    return [_primitive(vec) for _, vec in _free_columns(mat, pivots, d)]


def determinant(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix: closed forms at n = 2 and
    n = 4, Bareiss elimination at every other size.

    Internal: the caller vouches that every entry is an int.

    At n = 2 it is p * t - q * r.  At n = 4 it is the Laplace expansion
    along rows 0 and 1: each of their six 2 x 2 minors times the
    complementary minor of rows 2 and 3, signed by (-1)^(j + k) for the
    columns j < k of the first.  These are the sizes of M = P - I in the
    genus-1 and genus-2 walks, where the work of an elimination loop is
    its interpreter frames, not its arithmetic.  A row of the wrong length
    fails the unpack and raises the same ValueError as at other sizes.

    Otherwise each step takes a row with a nonzero leading entry p as the
    pivot (a swap with the top row flips the sign) and replaces the
    trailing block by (p * a_ij - a_i0 * a_0j) / p_prev, where p_prev is
    the previous pivot.  By Sylvester's identity every such entry is a
    minor of the input, so the division is exact and the integers stay as
    small as the minors.  A column with no nonzero entry left means
    det = 0.  The last 2 x 2 block [[p, q], [r, t]] needs no pivot: its
    step is (p * t - q * r) / p_prev, which holds for p = 0 too.
    """
    n = len(rows)
    try:
        if n == 4:
            (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = rows
            return (
                (a0 * b1 - a1 * b0) * (c2 * d3 - c3 * d2)
                - (a0 * b2 - a2 * b0) * (c1 * d3 - c3 * d1)
                + (a0 * b3 - a3 * b0) * (c1 * d2 - c2 * d1)
                + (a1 * b2 - a2 * b1) * (c0 * d3 - c3 * d0)
                - (a1 * b3 - a3 * b1) * (c0 * d2 - c2 * d0)
                + (a2 * b3 - a3 * b2) * (c0 * d1 - c1 * d0)
            )
        if n == 2:
            (p, q), (r, t) = rows
            return p * t - q * r
    except ValueError:
        raise ValueError("determinant of a non-square matrix") from None
    a = list(rows)  # rows are swapped here but never written to
    if any([len(row) != n for row in a]):
        raise ValueError("determinant of a non-square matrix")
    sign, prev = 1, 1
    for _ in range(n - 2):
        if not a[0][0]:
            k = next((k for k, row in enumerate(a) if row[0]), None)
            if k is None:
                return 0
            a[0], a[k] = a[k], a[0]
            sign = -sign
        top = a[0]
        p, rest = top[0], top[1:]
        a = [[(p * e - row[0] * t) // prev for e, t in zip(row[1:], rest)] for row in a[1:]]
        prev = p
    if n > 1:
        (p, q), (r, t) = a
        return sign * (p * t - q * r) // prev
    return a[0][0] if a else 1


def _minor(rows: Sequence[Sequence[int]], picked: Sequence[int], cols: Sequence[int]) -> int:
    """The minor of rows on the rows ``picked`` and the columns ``cols``,
    taken in the order given, for 1 to 3 of each, in straight-line code.

    These are the minors of the genus-1 and genus-2 walk's minor-sign rule
    (:mod:`meyersig.cocycle`).  Internal: the caller vouches for ints and
    for as many columns as rows.
    """
    if len(cols) == 1:
        return rows[picked[0]][cols[0]]
    if len(cols) == 2:
        a, b = rows[picked[0]], rows[picked[1]]
        p, q = cols
        return a[p] * b[q] - a[q] * b[p]
    a, b, c = rows[picked[0]], rows[picked[1]], rows[picked[2]]
    p, q, s = cols
    return (
        a[p] * (b[q] * c[s] - b[s] * c[q])
        - a[q] * (b[p] * c[s] - b[s] * c[p])
        + a[s] * (b[p] * c[q] - b[q] * c[p])
    )


def affine_point(mat: list[list[int]], w: Sequence[int]) -> tuple[int, tuple[int, int] | None]:
    """(rank M, (t, w x)) for integers x and t != 0 with M x + t b = 0, for
    the matrix [M | b] and a row vector w with one entry per column of M.

    The point is None when b is not in the column span of M.  One pass of
    :func:`_gauss_jordan` over the columns of M leaves its pivot columns
    reading d * I, d the last pivot, and their number is rank M.  So
    t = d and x is minus the last column at the pivot columns, 0 at the
    free ones, and w x is read off the pivot rows with no x built; a
    nonzero last entry in a row below the rank means M x = b has no
    rational solution.  mat is reduced in place.  Internal: the caller
    vouches that every entry is an int.
    """
    if not mat or any([len(row) != len(mat[0]) for row in mat]):
        raise ValueError("affine_point needs a nonempty rectangular [M | b]")
    m = len(mat[0]) - 1
    pivots, d = _gauss_jordan(mat, m)
    rank = len(pivots)
    if any([row[m] for row in mat[rank:]]):
        return rank, None
    return rank, (d, -sum([w[j] * row[m] for j, row in zip(pivots, mat)]))


def lattice_order(columns: Sequence[Sequence[int]], target: Sequence[int]) -> tuple | None:
    """(n, m) for the least n >= 1 with n * target = sum_j m_j * columns[j]
    over integers m, or None when no multiple of target is in their lattice.

    Each column carries its unit vector below it, so the Euclid column
    steps to echelon form record the transform in the tails.  Subtracting
    the echelon columns from (target, 0) after scaling the residual by
    |p| / gcd(p, residual[row]) at each pivot p leaves minus m in the tail;
    the scale factors multiply to n, the lcm of the denominators of
    target's echelon coordinates.  A nonzero head means no solution.
    Internal: the caller vouches for ints and columns of len(target).
    """
    height, k = len(target), len(columns)
    cols = [[*col, *[int(i == j) for i in range(k)]] for j, col in enumerate(columns)]
    pivot_rows: list[int] = []
    for row in range(height):
        r = len(pivot_rows)
        while len(nz := [j for j in range(r, k) if cols[j][row]]) > 1:
            jmin = min(nz, key=lambda j: abs(cols[j][row]))
            for j in nz:
                if j != jmin:
                    q = cols[j][row] // cols[jmin][row]
                    cols[j] = [e - q * b for e, b in zip(cols[j], cols[jmin])]
        if nz:
            cols[r], cols[nz[0]] = cols[nz[0]], cols[r]
            pivot_rows.append(row)
    residual, n = [*target, *[0] * k], 1
    for col, row in zip(cols, pivot_rows):
        p = col[row]
        f = abs(p) // math.gcd(p, residual[row])
        q = f * residual[row] // p
        residual = [f * e - q * c for e, c in zip(residual, col)]
        n *= f
    if any(residual[:height]):
        return None
    m = tuple([-e for e in residual[height:]])
    for i, t in enumerate(target):
        if n * t != sum([m_j * col[i] for m_j, col in zip(m, columns)]):
            raise ArithmeticError("lattice solution fails the relator system")
    return n, m


def _gauss_jordan(mat: list[list[int]], width: int) -> tuple[list[int], int]:
    """Fraction-free Gauss-Jordan elimination over the first width columns,
    in place; returns the pivot columns and the last pivot d (1 if none).

    A pivot p clears its column in every other row as
    (p * row - row[c] * top) / p_prev, p_prev the previous pivot (1 at
    first).  Every entry stays a minor of the input, or a Cramer numerator
    over the pivot block, so the division is exact, and at the end the
    pivot columns read d * I and the rows below the rank are zero in the
    first width columns.
    """
    pivots: list[int] = []
    prev = 1
    for c in range(width):
        r = len(pivots)
        if r == len(mat):
            break
        for k in range(r, len(mat)):
            if mat[k][c]:
                break
        else:
            continue
        mat[r], mat[k] = mat[k], mat[r]
        top = mat[r]
        p = top[c]
        for i, row in enumerate(mat):
            f = row[c]
            if f and i != r:
                mat[i] = [(p * e - f * s) // prev for e, s in zip(row, top)]
            elif not f and p != prev:  # the same formula with f = 0
                mat[i] = [p * e // prev for e in row]
        pivots.append(c)
        prev = p
    return pivots, prev


def _free_columns(
    mat: list[list[int]], pivots: list[int], d: int
) -> list[tuple[int, list[int]]]:
    """(f, v) for each free column f of a matrix reduced in full by
    :func:`_gauss_jordan`, which returned pivots and d: v is d at f, -row[f]
    at the pivot column of each row and 0 elsewhere, so M v = 0.  It is
    d times the reduced echelon kernel vector, not normalized.  Pivot
    columns hold d * I, so a row's entry at f is nonzero only when its
    pivot lies left of f: f is the last nonzero entry of v.
    """
    width = len(mat[0])
    pivoted = set(pivots)
    out = []
    for f in range(width):
        if f in pivoted:
            continue
        vec = [0] * width
        vec[f] = d
        for row, p in zip(mat, pivots):
            vec[p] = -row[f]
        out.append((f, vec))
    return out


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _check_ints(rows):
    """The rows, unchanged, after checking that every entry is an int."""
    for row in rows:
        if not all([type(e) is int for e in row]):
            bad = next(e for e in row if type(e) is not int)
            raise ValueError(f"entries must be ints, got {bad!r}")
    return rows


def _primitive(vec: list[int]) -> tuple[int, ...]:
    """Divide an integer vector by its content, making the first nonzero entry positive."""
    content = math.gcd(*vec)
    if not content:
        return tuple(vec)
    if next(e for e in vec if e) < 0:
        content = -content
    return tuple([e // content for e in vec])
