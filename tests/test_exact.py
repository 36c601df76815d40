import ast
import math
import random
from fractions import Fraction
from importlib import resources
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meyersig.cocycle import _v_rows
from meyersig.exact import (
    SignatureTriple,
    _congruence,
    _gauss_jordan,
    _inertia,
    affine_point,
    determinant,
    kernel_basis,
    lattice_basis,
    lattice_order,
    signature,
)
from meyersig.symplectic import SymplecticMatrix, random_symplectic, transvection


def _diagonal(values):
    n = len(values)
    return [[values[i] if i == j else 0 for j in range(n)] for i in range(n)]


def test_signature_zero_form():
    assert signature([[0] * 3 for _ in range(3)]) == SignatureTriple(0, 0, 3)


def test_signature_diagonal_signs():
    assert signature(_diagonal([2, -3])) == SignatureTriple(1, 1, 0)
    assert signature(_diagonal([7, -2, 0, 5])) == SignatureTriple(2, 1, 1)


def test_signature_defect_form_example():
    # [[-2c, a-d], [a-d, 2b]] at (a, b, c, d) = (0, 1, -1, 0)
    assert signature([[2, 0], [0, 2]]) == SignatureTriple(2, 0, 0)


def test_signature_hyperbolic_block():
    assert signature([[0, 1], [1, 0]]) == SignatureTriple(1, 1, 0)
    assert signature([[0, 5], [5, 0]]) == SignatureTriple(1, 1, 0)
    # all-zero diagonal, two hyperbolic pairs
    form = [
        [0, 0, 3, 0],
        [0, 0, 0, -2],
        [3, 0, 0, 0],
        [0, -2, 0, 0],
    ]
    assert signature(form) == SignatureTriple(2, 2, 0)


def test_signature_value_and_dim():
    trip = signature(_diagonal([1, 1, -1, 0]))
    assert trip.value == 1
    assert trip.dim == 4


def test_non_symmetric_rejected():
    with pytest.raises(ValueError, match="not symmetric"):
        signature([[0, 1], [2, 0]])
    with pytest.raises(ValueError, match="not symmetric"):
        signature([[1, 2], [3, 4]])


def test_ragged_rejected():
    with pytest.raises(ValueError, match="row 1 has 1 entries in a 2x2 form"):
        signature([[1, 0], [0]])


def test_empty_form():
    assert signature([]) == SignatureTriple(0, 0, 0)


def _random_symmetric(rng, n, bound=6):
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = rng.randint(-bound, bound)
    return a


def _random_unimodular(rng, n, steps=12):
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-3, 3)
        for k in range(n):
            m[i][k] += c * m[j][k]
    return m


def test_signature_congruence_invariance():
    rng = random.Random(11)
    for _ in range(150):
        n = rng.randint(1, 5)
        a = _random_symmetric(rng, n)
        p = _random_unimodular(rng, n)
        # P^T A P
        pa = [[sum(p[k][i] * a[k][l] for k in range(n)) for l in range(n)] for i in range(n)]
        pap = [[sum(pa[i][k] * p[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        assert signature(pap) == signature(a)


def test_signature_direct_sum_adds():
    rng = random.Random(23)
    for _ in range(80):
        a = _random_symmetric(rng, rng.randint(1, 4))
        b = _random_symmetric(rng, rng.randint(1, 4))
        n, m = len(a), len(b)
        block = [row + [0] * m for row in a] + [[0] * n + row for row in b]
        sa, sb, sab = signature(a), signature(b), signature(block)
        assert sab == SignatureTriple(
            sa.positive + sb.positive, sa.negative + sb.negative, sa.null + sb.null
        )


def test_kernel_basis_examples():
    assert kernel_basis([[1, 0], [0, 1]]) == []
    assert kernel_basis([[0, 0], [0, 0]]) == [(1, 0), (0, 1)]
    assert kernel_basis([[1, 1]]) == [(1, -1)]


@pytest.mark.parametrize(
    "entry",
    [Fraction(1, 2), Fraction(4, 2), 0.5, 2.0, True, False],
    ids=["Fraction", "whole-Fraction", "float", "whole-float", "True", "False"],
)
@pytest.mark.parametrize(
    "entry_point",
    [
        lambda e: kernel_basis([[1, e], [0, 1]]),
        lambda e: signature([[e, 0], [0, 1]]),
        lambda e: signature([[1, e], [e, 1]]),  # an off-diagonal pair of a symmetric form
    ],
    ids=["kernel_basis", "signature", "SymmetricForm"],
)
def test_non_int_entries_refused(entry_point, entry):
    # a Fraction would floor-divide silently inside the fraction-free passes;
    # Fraction(4, 2) and 2.0 equal an int and are refused all the same
    with pytest.raises(ValueError, match="entries must be ints"):
        entry_point(entry)


def test_kernel_basis_refuses_empty_and_ragged():
    with pytest.raises(ValueError, match="at least one row"):
        kernel_basis([])
    with pytest.raises(ValueError, match="ragged"):
        kernel_basis([[1, 2], [3]])


def _rref_kernel(rows, ncols):
    """Kernel basis and rank from the reduced echelon form over Fraction,
    each vector scaled to primitive ints with its first nonzero entry
    positive: an oracle for kernel_basis and the ranks the tests need."""
    mat = [[Fraction(e) for e in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        k = next((k for k in range(r, len(mat)) if mat[k][c]), None)
        if k is None:
            continue
        mat[r], mat[k] = mat[k], mat[r]
        mat[r] = [e / mat[r][c] for e in mat[r]]
        for i, row in enumerate(mat):
            if i != r and row[c]:
                mat[i] = [e - row[c] * t for e, t in zip(row, mat[r])]
        pivots.append(c)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = [Fraction(int(c == f)) for c in range(ncols)]
        for row, p in zip(mat, pivots):
            vec[p] = -row[f]
        ints = [int(e * math.lcm(*[e.denominator for e in vec])) for e in vec]
        content = math.gcd(*ints) * (1 if next(e for e in ints if e) > 0 else -1)
        basis.append(tuple([e // content for e in ints]))
    return basis, len(pivots)


def test_kernel_basis_and_rank_against_fraction_rref():
    """kernel_basis equals the primitive reduced echelon basis exactly, in
    order, which pins the rank as width - len(basis), on random integer
    matrices of up to 6 x 12, of every rank, with entries of up to 13
    digits."""
    rng = random.Random(71)
    seen = {"zero": 0, "rank-deficient": 0, "big": 0}
    for _ in range(500):
        n, m = rng.randint(1, 6), rng.randint(1, 12)
        k = rng.choice((min(n, m), rng.randint(0, min(n, m))))  # the rank, at most
        bound = rng.choice((3, 10**12))
        left = [[rng.randint(-bound, bound) for _ in range(k)] for _ in range(n)]
        right = [[rng.choice((0, rng.randint(-3, 3))) for _ in range(m)] for _ in range(k)]
        rows = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] if k
                else [0] * m for row in left]
        basis, r = _rref_kernel(rows, m)
        assert kernel_basis(rows) == basis, rows
        seen["zero"] += not any(map(any, rows))
        seen["rank-deficient"] += 0 < r < min(n, m)
        seen["big"] += any(abs(e) >= 10**9 for row in rows for e in row)
    assert all(seen.values()), seen


@settings(max_examples=120, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=5),
        min_size=1,
        max_size=5,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_kernel_vectors_annihilate_and_count(rows):
    basis = kernel_basis(rows)
    ncols = len(rows[0])
    for vec in basis:
        assert all(sum(r * v for r, v in zip(row, vec)) == 0 for row in rows)
    assert len(basis) == ncols - _rref_kernel(rows, ncols)[1]


def _charpoly(rows):
    """Characteristic polynomial coefficients [1, c_1, ..., c_n] of a square
    matrix, by the Faddeev-LeVerrier recursion over Fractions."""
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    m = [[Fraction(0)] * n for _ in range(n)]
    coeffs = [Fraction(1)]
    c = Fraction(1)
    for k in range(1, n + 1):
        for i in range(n):
            m[i][i] += c
        m = [
            [sum(a[i][t] * m[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
        c = -sum(m[i][i] for i in range(n)) / k
        coeffs.append(c)
    return coeffs


def _inertia_by_descartes(rows):
    """Independent signature oracle: a symmetric matrix has an all-real
    spectrum, so Descartes' rule counts its positive eigenvalues exactly,
    trailing zero coefficients count the kernel, and the rest are negative."""
    coeffs = _charpoly(rows)
    n = len(rows)
    null = 0
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
        null += 1
    nonzero = [c for c in coeffs if c != 0]
    positive = sum(
        1 for x, y in zip(nonzero, nonzero[1:]) if (x > 0) != (y > 0)
    )
    return SignatureTriple(positive, n - positive - null, null)


def test_signature_against_charpoly_oracle():
    rng = random.Random(47)
    for _ in range(200):
        n = rng.randint(1, 5)
        a = _random_symmetric(rng, n)
        assert signature(a) == _inertia_by_descartes(a)


def test_signature_oracle_on_zero_diagonals():
    # forces the zero-diagonal congruence step r_k += r_l, c_k += c_l
    # through the same oracle
    rng = random.Random(48)
    for _ in range(200):
        n = rng.randint(2, 5)
        a = _random_symmetric(rng, n)
        for i in range(n):
            a[i][i] = 0
        assert signature(a) == _inertia_by_descartes(a)


def test_inertia_closed_forms_against_the_congruence_loop():
    """_inertia's straight-line triples at dim 1 and 2 against the congruence
    loop run to the end and the charpoly oracle, on seeded forms reaching every branch:
    [[p]] of each sign and zero; det < 0, det > 0 with p of each sign, and
    det = 0 with the trace of each sign and zero."""
    rng = random.Random(49)
    forms = [[[p]] for p in range(-3, 4)]
    for _ in range(2000):
        p, q, t = [rng.choice((0, rng.randint(-4, 4), rng.randint(-10**12, 10**12))) for _ in range(3)]
        forms.append([[p, q], [q, t]])
        k, u, v = rng.randint(-5, 5), rng.randint(-9, 9), rng.randint(-9, 9)
        forms.append([[k * u * u, k * u * v], [k * u * v, k * v * v]])  # rank <= 1: det = 0
    branches = set()
    for a in forms:
        triple = _inertia([list(row) for row in a])
        pos, neg, rest = _congruence([list(row) for row in a], 0)
        assert rest == []
        assert triple == (pos, neg, len(a) - pos - neg) == _inertia_by_descartes(a), a
        assert all(type(e) is int for e in triple)
        if len(a) == 1:
            branches.add(("dim 1", (a[0][0] > 0) - (a[0][0] < 0)))
        else:
            (p, q), (_, t) = a
            det = p * t - q * q
            if det:
                branches.add(("det < 0",) if det < 0 else ("det > 0", p > 0))
            else:
                branches.add(("det = 0", (p + t > 0) - (p + t < 0)))
    assert branches == {
        ("dim 1", 1), ("dim 1", -1), ("dim 1", 0), ("det < 0",), ("det > 0", True),
        ("det > 0", False), ("det = 0", 1), ("det = 0", -1), ("det = 0", 0),
    }


# ---------------------------------------------------------------------------
# determinant


def _leibniz(rows):
    """Independent determinant oracle: the sum over permutations, each term
    signed by the parity of its inversions."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def _fraction_det(rows):
    """Second oracle, for sizes where Leibniz is too slow: Gaussian
    elimination over Fractions with a row swap for a zero pivot."""
    a = [[Fraction(e) for e in row] for row in rows]
    det = Fraction(1)
    for c in range(len(a)):
        k = next((k for k in range(c, len(a)) if a[k][c]), None)
        if k is None:
            return 0
        if k != c:
            a[c], a[k] = a[k], a[c]
            det = -det
        det *= a[c][c]
        for row in a[c + 1:]:
            f = row[c] / a[c][c]
            row[:] = [e - f * t for e, t in zip(row, a[c])]
    assert det.denominator == 1
    return int(det)


def test_determinant_examples():
    assert determinant([]) == 1
    assert determinant([[-7]]) == -7
    assert determinant([[0, 1], [1, 0]]) == -1  # needs a row swap
    assert determinant([[0, 2, 1], [0, 3, 4], [5, 1, 1]]) == 25  # swap past a zero row
    assert determinant([[1, 2], [2, 4]]) == 0
    assert determinant([[0, 1, 2], [0, 3, 4], [0, 5, 6]]) == 0  # a zero column
    assert determinant([[2, 0, 0], [0, 3, 0], [0, 0, -4]]) == -24
    # the last 2 x 2 block [[0, 1], [1, 0]] takes (p t - q r) / p_prev with p = 0, no swap
    assert determinant([[2, 0, 0], [0, 0, 2], [0, 2, 0]]) == -8
    with pytest.raises(ValueError, match="non-square"):
        determinant([[1, 2]])


def _wide_entry_cases(rng):
    """Seeded 2 x 2 and 4 x 4 matrices, the sizes of P - I at genus 1 and
    2: entries of up to 10^e for e in 0..40, some with a zero row, a zero
    column or a repeated row; and P - I and I - P for
    P = random_symplectic(2, 0..16)."""
    for k in range(2000):
        n = (2, 4)[k % 2]
        e = rng.randint(0, 40)
        rows = [[rng.randint(-(10**e), 10**e) for _ in range(n)] for _ in range(n)]
        shape = rng.randrange(5)
        i, j = rng.sample(range(n), 2)
        if shape == 1:
            rows[i] = [0] * n
        elif shape == 2:
            for row in rows:
                row[j] = 0
        elif shape == 3:
            rows[i] = list(rows[j])
        yield rows
    for length in range(17):
        for seed in range(4):
            a = random_symplectic(2, length, 100 * length + seed)
            rows = [[e - (i == j) for j, e in enumerate(row)] for i, row in enumerate(a.rows)]
            yield rows
            yield [[-e for e in row] for row in rows]


def test_determinant_against_leibniz():
    rng = random.Random(49)
    seen = {"zero": 0, "negative": 0, "swap": 0}
    for _ in range(400):
        n = rng.randint(1, 5)
        rows = [[rng.choice((0, 0, rng.randint(-5, 5))) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.2 and n > 1:
            rows[-1] = [2 * e for e in rows[0]]  # singular by a repeated row
        det = determinant(rows)
        assert det == _leibniz(rows) == _fraction_det(rows), rows
        seen["zero"] += det == 0
        seen["negative"] += det < 0
        seen["swap"] += rows[0][0] == 0 and det != 0
    assert all(seen.values()), seen


def test_determinant_closed_forms_against_two_oracles():
    """At n = 2 and n = 4, the sizes of P - I whose determinant the
    genus-1 and genus-2 walks write out in closed form, Bareiss elimination
    agrees with Leibniz and with Fraction elimination on entries of up to
    10^40 and on P - I, tuples as well as lists, and meets zero, positive
    and negative values; each of the 24 permutation matrices gives the sign
    of its permutation."""
    signs = set()
    for rows in _wide_entry_cases(random.Random(2222)):
        det = determinant(rows)
        assert det == determinant(tuple(map(tuple, rows))) == _leibniz(rows) == _fraction_det(rows), rows
        signs.add((len(rows), (det > 0) - (det < 0)))
    assert signs == {(n, s) for n in (2, 4) for s in (-1, 0, 1)}, signs
    for perm in permutations(range(4)):
        rows = [[int(j == perm[i]) for j in range(4)] for i in range(4)]
        inversions = sum(perm[i] > perm[j] for i in range(4) for j in range(i + 1, 4))
        assert determinant(rows) == (-1) ** inversions


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("width", [1, 3, 5])
def test_determinant_closed_forms_refuse_ragged_rows(n, width):
    for bad in range(n):
        rows = [[1] * (width if i == bad else n) for i in range(n)]
        with pytest.raises(ValueError, match="^determinant of a non-square matrix$"):
            determinant(rows)


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_determinant_of_a_minus_identity(g):
    rng = random.Random(50 + g)
    signs = set()
    for _ in range(30):
        # a product of fewer than 2g transvections fixes a vector: det = 0
        a = random_symplectic(g, rng.randint(0, 8 * g), rng.random())
        rows = [[e - (i == j) for j, e in enumerate(row)] for i, row in enumerate(a.rows)]
        det = determinant(rows)
        assert det == (_leibniz(rows) if g <= 2 else _fraction_det(rows))
        signs.add((det > 0) - (det < 0))
    assert 0 in signs and len(signs) > 1


def _affine_x(rows):
    """(x, t) from affine_point on copies of rows, x read one entry at a
    time through the unit row vectors; None when affine_point gives None."""
    m = len(rows[0]) - 1
    point = affine_point([list(row) for row in rows], [0] * m)[1]
    if point is None:
        return None
    x = [affine_point([list(row) for row in rows], [int(k == j) for k in range(m)])[1][1] for j in range(m)]
    return tuple(x), point[0]


def test_affine_point_examples():
    assert _affine_x([[2, 4]]) == ((-4,), 2)  # 2 * -4 + 2 * 4 = 0
    assert _affine_x([[0, 0]]) == ((0,), 1)
    assert _affine_x([[0, 1]]) is None
    assert _affine_x([[5]]) is None  # no columns in M, b != 0
    assert _affine_x([[1, 1, 2], [2, 2, 3]]) is None  # rank 1, b outside it
    # Cramer: [M | b] -> [d I | adj(M) b] with d = det M = -2, adj(M) b = (2, -4)
    assert _affine_x([[1, 2, 3], [3, 4, 5]]) == ((-2, 4), -2)
    # w x with w = (3, -1): 3 * -2 - 4; an entry of w at a free column reads 0
    assert affine_point([[1, 2, 3], [3, 4, 5]], [3, -1]) == (2, (-2, -10))
    assert affine_point([[1, 1, 2], [2, 2, 4]], [0, 7]) == (1, (1, 0))
    assert affine_point([[1, 1, 2], [2, 2, 3]], [0, 7]) == (1, None)  # the rank, with no point
    assert affine_point([[0, 0, 1], [0, 0, 0]], [0, 0]) == (0, None)
    mat = [[0, 2, 4], [1, 0, 3]]
    affine_point(mat, [0, 0])
    assert mat == [[2, 0, 6], [0, 2, 4]]  # reduced in place to [d I | -t x], rows swapped
    with pytest.raises(ValueError, match="rectangular"):
        affine_point([[1, 2], [3]], [])
    with pytest.raises(ValueError, match="rectangular"):
        affine_point([], [])


def test_affine_point_against_the_kernel():
    """M x + t b = 0 with t != 0 exactly when some kernel vector of [M | b]
    has a nonzero last entry, on random matrices of up to 6 rows and 7
    columns, square and not, of every rank; the rank it returns is the
    oracle's, and w x off the pivot rows equals the dot product with the
    point read entry by entry."""
    rng = random.Random(53)
    seen = {"square": 0, "rank-deficient": 0, "zero": 0, "inconsistent": 0, "non-primitive": 0}
    for _ in range(600):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        k = rng.choice((min(n, m), rng.randint(0, min(n, m))))  # the rank of M, at most
        left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(n)]
        right = [[rng.choice((0, rng.randint(-3, 3))) for _ in range(m)] for _ in range(k)]
        mat = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]
        if rng.random() < 0.5:
            b = [rng.randint(-4, 4) for _ in range(n)]
        else:  # in the column span, scaled
            y = [rng.randint(-2, 2) for _ in range(m)]
            b = [rng.randint(1, 3) * sum(e * f for e, f in zip(row, y)) for row in mat]
        rows = [row + [e] for row, e in zip(mat, b)]
        consistent = any(vec[-1] for vec in kernel_basis(rows))
        rank = _rref_kernel(mat, len(mat[0]))[1]
        assert affine_point([list(row) for row in rows], [0] * len(mat[0]))[0] == rank, rows
        point = _affine_x(rows)
        assert (point is not None) == consistent, rows
        if point is not None:
            x, t = point
            assert t != 0 and all(type(e) is int for e in (*x, t))
            assert all(sum(e * f for e, f in zip(row, x)) + t * c == 0 for row, c in zip(mat, b))
            w = [0] * len(x)
            for j in rng.sample(range(len(x)), rng.randint(0, len(x))):
                w[j] = rng.randint(-3, 3)
            wx = sum(e * f for e, f in zip(w, x))
            assert affine_point([list(row) for row in rows], w) == (rank, (t, wx)), (rows, w)
            seen["non-primitive"] += math.gcd(*b) > 1
        seen["inconsistent"] += point is None
        seen["square"] += n == m
        seen["zero"] += not any(map(any, mat))
        seen["rank-deficient"] += rank < min(n, m)
    assert all(seen.values()), seen


def _gauss_jordan_by_new_rows(mat, width):
    """The fraction-free Gauss-Jordan pass written with a new list for every
    row at every pivot, each entry by the formula: the oracle the in-place
    pass of exact._gauss_jordan is held against."""
    pivots = []
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


def _assert_gauss_jordan_as_oracle(rows, width):
    """_gauss_jordan on a copy of rows leaves the oracle's matrix and returns
    its pivots and d, and it works in place: the same list holds the same
    row objects, only swapped.  Returns the rank."""
    expected = [list(row) for row in rows]
    want = _gauss_jordan_by_new_rows(expected, width)
    mat = [list(row) for row in rows]
    before = list(mat)
    got = _gauss_jordan(mat, width)
    assert got == want, rows
    assert mat == expected, rows
    assert sorted(map(id, mat)) == sorted(map(id, before)), rows
    assert all(type(e) is int for row in mat for e in row)
    return len(got[0])


def test_gauss_jordan_pass_is_in_place():
    mat = [[0, 2, 4], [1, 0, 3], [0, 0, 0]]
    first, second, third = mat
    assert _gauss_jordan(mat, 2) == ([0, 1], 2)
    assert mat == [[2, 0, 6], [0, 2, 4], [0, 0, 0]]
    assert mat[0] is second and mat[1] is first and mat[2] is third
    assert _gauss_jordan([], 0) == ([], 1)
    empty = [[], []]
    assert _gauss_jordan(empty, 0) == ([], 1) and empty == [[], []]


def test_gauss_jordan_against_the_new_rows_oracle():
    """The in-place pass over the live columns leaves exactly the matrix,
    pivots and d of the pass that builds new rows, on random matrices of up
    to 7 x 9 of every rank, with zero rows and zero columns planted, with
    entries of up to 120 digits, and eliminated over all of their columns
    or only the first few, as affine_point does."""
    rng = random.Random(4017)
    seen = {"zero row": 0, "zero column": 0, "zero": 0, "big": 0, "partial width": 0}
    ranks = set()
    for _ in range(800):
        n, m = rng.randint(1, 7), rng.randint(1, 9)
        k = rng.randint(0, min(n, m))  # the rank, at most
        bound = rng.choice((1, 3, 10**6, 10**120))
        left = [[rng.randint(-bound, bound) for _ in range(k)] for _ in range(n)]
        right = [[rng.choice((0, rng.randint(-bound, bound))) for _ in range(m)] for _ in range(k)]
        rows = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] if k
                else [0] * m for row in left]
        if rng.random() < 0.3:
            rows[rng.randrange(n)] = [0] * m
        if rng.random() < 0.3:
            j = rng.randrange(m)
            for row in rows:
                row[j] = 0
        width = m if rng.random() < 0.7 else rng.randint(0, m)
        ranks.add((min(n, m), _assert_gauss_jordan_as_oracle(rows, width)))
        seen["zero row"] += any(not any(row) for row in rows)
        seen["zero column"] += any(not any(col) for col in zip(*rows))
        seen["zero"] += not any(map(any, rows))
        seen["big"] += any(abs(e) >= 10**100 for row in rows for e in row)
        seen["partial width"] += width < m
    assert all(seen.values()), seen
    assert {(size, rank) for size in range(1, 8) for rank in range(size + 1)} <= ranks


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_gauss_jordan_on_tau_sp_systems(g):
    """[A^{-1} - I | B - I] over all 4g columns, the pass of tau_sp and
    v_space, with A or B the identity or a single transvection among
    random words, so that every dimension of V occurs often."""
    rng = random.Random(90 + g)
    ident = SymplecticMatrix.identity(g)
    ranks = set()
    for _ in range(60):
        a, b = (
            rng.choice((
                ident,
                transvection([1 + rng.randint(0, 2)] + [rng.randint(-2, 2) for _ in range(2 * g - 1)]),
                random_symplectic(g, rng.randint(0, 12), rng.random()),
            ))
            for _ in range(2)
        )
        ranks.add(_assert_gauss_jordan_as_oracle(_v_rows(a, b), 4 * g))
    assert {0, 2 * g} <= ranks and len(ranks) >= 3, ranks


@pytest.mark.parametrize("g", [3, 4, 5, 6])
def test_gauss_jordan_on_twist_solves(g):
    """[M | v] with M = A - I over its 2g columns, the solve of a twist
    letter at 2g = 6 .. 12: A a word of 0 to 4g transvections, so that
    M is singular as often as not, and v a class with entries up to 3, or
    up to 10**110."""
    rng = random.Random(200 + g)
    ranks = set()
    for _ in range(40):
        a = random_symplectic(g, rng.randint(0, 4 * g), rng.random())
        bound = rng.choice((3, 10**110))
        v = [rng.randint(-bound, bound) for _ in range(2 * g)]
        rows = [[e - (i == j) for j, e in enumerate(row)] + [x] for i, (row, x) in enumerate(zip(a.rows, v))]
        ranks.add(_assert_gauss_jordan_as_oracle(rows, 2 * g))
    assert 0 in ranks and 2 * g in ranks and len(ranks) >= 3, ranks


def _fraction_lattice_order(columns, target):
    """Oracle for lattice_order: Euclid column steps with a separate
    unimodular transform, Fraction coordinates of target in the echelon
    basis, and n the lcm of their denominators."""
    height, k = len(target), len(columns)
    cols = [list(col) for col in columns]
    trans = [[int(i == j) for i in range(k)] for j in range(k)]
    pivot_rows = []
    for row in range(height):
        while True:
            nz = [j for j in range(len(pivot_rows), k) if cols[j][row]]
            if len(nz) <= 1:
                break
            jmin = min(nz, key=lambda j: abs(cols[j][row]))
            for j in nz:
                if j != jmin:
                    q = cols[j][row] // cols[jmin][row]
                    cols[j] = [x - q * y for x, y in zip(cols[j], cols[jmin])]
                    trans[j] = [x - q * y for x, y in zip(trans[j], trans[jmin])]
        if nz:
            npiv, j = len(pivot_rows), nz[0]
            cols[npiv], cols[j] = cols[j], cols[npiv]
            trans[npiv], trans[j] = trans[j], trans[npiv]
            pivot_rows.append(row)
    residual = [Fraction(t) for t in target]
    coords = []
    for col, row in zip(cols, pivot_rows):
        y = residual[row] / col[row]
        coords.append(y)
        residual = [t - y * e for t, e in zip(residual, col)]
    if any(residual):
        return None
    n = math.lcm(*[y.denominator for y in coords]) if coords else 1
    scaled = [int(y * n) for y in coords]
    return n, tuple([sum([s * t[i] for s, t in zip(scaled, trans)]) for i in range(k)])


def test_lattice_order_examples():
    # the genus-1 presentation: relators a b a B A B and (a b)^6, c = (0, 8)
    assert lattice_order([[1, 6], [-1, 6]], [0, 8]) == (3, (2, 2))
    assert lattice_order([[0], [0]], [1]) is None  # zero exponents, c != 0
    assert lattice_order([[]], []) == (1, (0,))  # no relators
    assert lattice_order([], [0, 0]) == (1, ())
    assert lattice_order([], [0, 1]) is None
    assert lattice_order([[2, 0], [0, 3]], [1, 1]) == (6, (3, 2))


def test_lattice_order_against_the_fraction_oracle():
    """The same (n, m) or None as the Fraction-and-transform solver on
    5000 random systems of up to 4 columns of up to 4 entries."""
    rng = random.Random(61)
    seen = dict.fromkeys(
        ["no columns", "no rows", "zero column", "unsolvable", "n > 1", "entries 10^6"], 0
    )
    for _ in range(5000):
        k, height = rng.randint(0, 4), rng.randint(0, 4)
        bound = rng.choice((2, 5, 10**6))
        entry = lambda: rng.randint(-bound, bound) if rng.random() < 0.7 else 0
        columns = [[entry() for _ in range(height)] for _ in range(k)]
        target = [rng.randint(-bound, bound) for _ in range(height)]
        expected = _fraction_lattice_order(columns, target)
        assert lattice_order(columns, target) == expected, (columns, target)
        seen["no columns"] += not k
        seen["no rows"] += k > 0 and not height
        seen["zero column"] += height > 0 and not all(map(any, columns))
        seen["unsolvable"] += expected is None
        seen["n > 1"] += expected is not None and expected[0] > 1
        seen["entries 10^6"] += max(map(abs, [*target, *sum(columns, [])]), default=0) >= 10**5
    assert all(seen.values()), seen


def test_lattice_basis_spans_the_same_lattice():
    """lattice_basis gives at most height columns, and every target has
    the same order modulo their lattice as modulo the columns it reduced,
    on 2000 random systems of up to 12 columns of up to 4 entries."""
    rng = random.Random(3403)
    seen = dict.fromkeys(["more columns than rows", "zero column", "unsolvable", "n > 1"], 0)
    for _ in range(2000):
        k, height = rng.randint(0, 12), rng.randint(0, 4)
        entry = lambda: rng.randint(-6, 6) if rng.random() < 0.6 else 0
        columns = [[entry() for _ in range(height)] for _ in range(k)]
        basis = lattice_basis(columns, height)
        assert len(basis) <= height and all(map(any, basis)) and all(len(b) == height for b in basis)
        target = [rng.randint(-6, 6) for _ in range(height)]
        expected = lattice_order(columns, target)
        order = lattice_order(basis, target)
        assert (order and order[0]) == (expected and expected[0]), (columns, target)
        seen["more columns than rows"] += k > height
        seen["zero column"] += height > 0 and not all(map(any, columns))
        seen["unsolvable"] += expected is None
        seen["n > 1"] += expected is not None and expected[0] > 1
    assert all(seen.values()), seen


@pytest.mark.parametrize("module", ["exact", "twist", "cocycle", "symplectic", "matrix"])
def test_integer_core_imports_no_fractions(module):
    """The cocycle, its kernels and signatures run on ints alone: none of
    these modules imports fractions, directly or by name."""
    source = resources.files("meyersig").joinpath(f"{module}.py").read_text()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            assert all(alias.name != "fractions" for alias in node.names), module
        elif isinstance(node, ast.ImportFrom):
            assert node.module != "fractions", module
