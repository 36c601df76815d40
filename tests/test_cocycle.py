
import random
from collections import Counter
from itertools import combinations
from operator import mul

import pytest

from meyersig import cocycle, exact
from meyersig.cocycle import sigma_defect_via_tau, tau_sp, tau_twist, v_space
from meyersig.exact import determinant, kernel_basis, signature
from meyersig.genus1 import phi1
from meyersig.matrix import _add_identity
from meyersig.symplectic import (
    SymplecticMatrix,
    a_class,
    random_symplectic,
    standard_j,
    transvection,
    twist_of,
)
from meyersig.twist import _minor_sign, _twist, _twist_solve, _twist_step
from test_matrix import _dense_product

U = SymplecticMatrix([[1, 1], [0, 1]])
V = SymplecticMatrix([[1, 0], [-1, 1]])
S = SymplecticMatrix([[0, 1], [-1, 0]])
I1 = SymplecticMatrix.identity(1)


def _sign_det(rows):
    d = determinant(rows)
    return (d > 0) - (d < 0)


def _sign_det_minus_identity(rows):
    """sign det(A - I) for the rows of a square integer matrix A."""
    return _sign_det(_add_identity(rows, -1))


def _v_rows_by_product(a, b):
    """[A^{-1} - I | B - I] from the inverse object and plain subtraction."""
    n = 2 * a.g
    ainv = a.inverse()
    return [
        [ainv.rows[r][c] - int(r == c) for c in range(n)]
        + [b.rows[r][c] - int(r == c) for c in range(n)]
        for r in range(n)
    ]


def test_v_rows_are_written_from_the_inverse(rng):
    """The rows tau_sp and v_space eliminate, written from A's columns,
    equal [A^{-1} - I | B - I] from the inverse object, as fresh lists."""
    for _ in range(60):
        g = rng.randint(1, 4)
        a = random_symplectic(g, rng.randint(0, 10), rng.random())
        b = random_symplectic(g, rng.randint(0, 10), rng.random())
        rows = cocycle._v_rows(a, b)
        assert rows == _v_rows_by_product(a, b)
        assert all(type(row) is list for row in rows) and len({id(row) for row in rows}) == 2 * g


def test_v_space_identity_pair_is_everything():
    for g in (1, 2):
        space = v_space(SymplecticMatrix.identity(g), SymplecticMatrix.identity(g))
        assert space.dim == 4 * g


def test_v_space_invertible_blocks():
    # both A^{-1}-I and B-I invertible: the kernel is a graph, dimension 2g
    assert v_space(S, S).dim == 2


def test_v_space_rank_nullity_and_membership(rng):
    for _ in range(60):
        g = rng.randint(1, 3)
        a = random_symplectic(g, rng.randint(0, 10), rng.random())
        b = random_symplectic(g, rng.randint(0, 10), rng.random())
        space = v_space(a, b)
        n = 2 * g
        rows = _v_rows_by_product(a, b)
        # row rank = column rank: 2g minus the kernel dimension of the transpose
        rank = n - len(kernel_basis([list(col) for col in zip(*rows)]))
        assert space.dim == 4 * g - rank
        for vec in space.basis:
            assert all(sum(m * x for m, x in zip(row, vec)) == 0 for row in rows)


def test_v_space_genus_mismatch():
    with pytest.raises(ValueError, match="genus mismatch"):
        v_space(I1, SymplecticMatrix.identity(2))


def test_tau_genus_mismatch_is_refused_before_the_identity_shortcut():
    # with I on either side tau_sp would return 0 before any elimination
    i2, a2 = SymplecticMatrix.identity(2), random_symplectic(2, 8, 0.5)
    for a, b in ((i2, U), (U, i2), (I1, a2), (a2, I1), (a2, U)):
        with pytest.raises(ValueError, match=f"^genus mismatch: {a.g} vs {b.g}$"):
            tau_sp(a, b)


def test_tau_normalization():
    for m in (U, V, S, U * V * S):
        assert tau_sp(m, I1) == 0
        assert tau_sp(I1, m) == 0
        assert tau_sp(m, m.inverse()) == 0


def test_tau_twist_pair_value():
    # frozen from the delta-phi_1 oracle: phi(U) - phi(UV) + phi(V) = 2/3 - 4/3 + 2/3
    assert tau_sp(U, V) == 0
    assert tau_sp(U, V) == phi1(U) - phi1(U * V) + phi1(V)


def test_tau_some_nonzero_values():
    # frozen from the delta-phi_1 oracle: tau(S, S) = 2 phi_1(S) - phi_1(-I) = 2
    assert tau_sp(S, S) == 2
    assert tau_sp(S.inverse(), S.inverse()) == -2


def _readout_of(v, n):
    """A kernel vector (x, y) of length 2n in the form cocycle._kernel_readout
    gives it: its free column (its last nonzero entry), x + y, and the
    terms (y_c, c) of y, none when the free column is below n."""
    f = max(i for i, e in enumerate(v) if e)
    terms = [(e, c) for c, e in enumerate(v[n:]) if e] if f >= n else []
    return f, [p + q for p, q in zip(v[:n], v[n:])], terms


def test_tau_asymmetric_pairing_raises(monkeypatch):
    """Fake kernel readouts in place of the one tau_sp reads V_{U,U} from.
    Each vector is tagged, as the readout tags it, with its free column:
    its last nonzero entry.  A column below 2 means y = 0."""
    fakes = [
        # All of Q^4 in place of V_{U,U}: (0, 1, 0, 0) and (0, 0, 0, 1) pair
        # to 1 one way and 0 the other.
        [tuple(int(i == j) for j in range(4)) for i in range(4)],
        # Both vectors have (I - U) y != 0 and pair to 1 and 2: the
        # asymmetry is inside the Gram matrix tau_sp builds.
        [(0, 0, 0, 1), (0, 1, 0, 1)],
        # (0, 1, 1, 0) lies outside V_{U,U} with (U - I) y = 0, so it is
        # dropped from the Gram matrix; it pairs to 1 with (0, 0, 0, 1)
        # one way and 0 the other.
        [(0, 1, 1, 0), (0, 0, 0, 1)],
    ]
    for basis in fakes:
        readout = [_readout_of(v, 2) for v in basis]
        monkeypatch.setattr(cocycle, "_kernel_readout", lambda mat, pivots, d, n: readout)
        with pytest.raises(ArithmeticError, match="pairing is not symmetric"):
            tau_sp(U, U)


def test_tau_bounded_by_v_dim(rng):
    for _ in range(60):
        g = rng.randint(1, 3)
        a = random_symplectic(g, rng.randint(0, 10), rng.random())
        b = random_symplectic(g, rng.randint(0, 10), rng.random())
        assert abs(tau_sp(a, b)) <= v_space(a, b).dim <= 4 * g


def test_sigma_defect_examples():
    assert sigma_defect_via_tau(I1) == 0
    assert sigma_defect_via_tau(U) == 1
    assert sigma_defect_via_tau(SymplecticMatrix([[1, -1], [0, 1]])) == -1


def test_sigma_defect_cross_checks_defect_form():
    # (a, b, c, d) = (0, 1, -1, 0): the defect form is [[2,0],[0,2]], so the
    # cocycle route must report its signature, 2
    assert signature([[2, 0], [0, 2]]).value == 2
    assert sigma_defect_via_tau(S) == 2


def test_sigma_defect_needs_genus_one():
    with pytest.raises(ValueError, match="genus 1"):
        sigma_defect_via_tau(SymplecticMatrix.identity(2))


def _maslov(*mats):
    """Maslov index of the Lagrangian graphs of three symplectic matrices:
    the signature of the Kashiwara form whose block (i, j) is J - M_i^T J M_j
    for the cyclic pairs (0,1), (1,2), (2,0), mirrored below the diagonal,
    with zero diagonal blocks (Cappell-Lee-Miller 1994).  It needs no kernel,
    so it is independent of the V_{A,B} route."""
    n = 2 * mats[0].g
    j = standard_j(mats[0].g).rows
    q = [[0] * (3 * n) for _ in range(3 * n)]
    for s, t in ((0, 1), (1, 2), (2, 0)):
        k = _dense_product(_dense_product(list(zip(*mats[s].rows)), j), mats[t].rows)
        for r in range(n):
            for c in range(n):
                q[s * n + r][t * n + c] = q[t * n + c][s * n + r] = j[r][c] - k[r][c]
    return signature(q).value


def _tau_by_definition(a, b):
    """The signature of (x + y)^T J (I - B) y' on the whole v_space basis,
    a dim V x dim V Gram matrix, by the public signature."""
    n = 2 * a.g
    j = standard_j(a.g)
    basis = v_space(a, b).basis
    sums = [[p + q for p, q in zip(v[:n], v[n:])] for v in basis]
    j_ws = [j.apply([p - q for p, q in zip(v[n:], b.apply(v[n:]))]) for v in basis]
    return signature([[sum(map(mul, s, jw)) for jw in j_ws] for s in sums]).value


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_tau_matches_its_definition(g, rng):
    """tau_sp, which drops the basis vectors with (I - B) y = 0 from its
    Gram matrix, against the full Gram matrix on V_{A,B}."""
    n = 2 * g
    e = SymplecticMatrix.identity(g)
    minus = SymplecticMatrix([[-int(r == c) for c in range(n)] for r in range(n)], g)
    pairs = [
        (random_symplectic(g, rng.randint(0, 12), rng.random()),
         random_symplectic(g, rng.randint(0, 12), rng.random()))
        for _ in range(20)
    ]
    x = pairs[0][0]
    pairs += [(e, x), (x, e), (x, x.inverse()), (minus, minus)]
    seen = {"some dropped": 0, "all dropped": 0, "none dropped": 0}
    for a, b in pairs:
        basis = v_space(a, b).basis
        dropped = sum(b.apply(v[n:]) == v[n:] for v in basis)
        if 0 < dropped < len(basis):
            seen["some dropped"] += 1
        elif basis and dropped:
            seen["all dropped"] += 1
            assert tau_sp(a, b) == 0
        elif basis:
            seen["none dropped"] += 1
        assert tau_sp(a, b) == _tau_by_definition(a, b), (a, b)
    assert all(seen.values()), seen


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_tau_matches_maslov_index(g, rng):
    e = SymplecticMatrix.identity(g)
    minus = SymplecticMatrix([[-int(r == c) for c in range(2 * g)] for r in range(2 * g)], g)
    pairs = [
        (random_symplectic(g, rng.randint(0, 12), rng.random()),
         random_symplectic(g, rng.randint(0, 12), rng.random()))
        for _ in range(25)
    ]
    x = pairs[0][0]
    pairs += [(x, e), (e, x), (x, x.inverse()), (e, e), (minus, minus), (x, minus)]
    for a, b in pairs:
        assert tau_sp(a, b) == _maslov(e, a, a * b) == -_maslov(e, a.inverse(), b)


def test_tau_sp_reads_v_off_one_elimination(count_calls, monkeypatch):
    """One tau_sp makes one Gauss-Jordan pass and nothing else of the kernel
    machinery: no kernel_basis, normalization, int re-check or inverse."""
    rng = random.Random(3)
    a = random_symplectic(3, 10, rng.random())
    b = random_symplectic(3, 10, rng.random())
    assert v_space(a, b).basis == tuple(kernel_basis(_v_rows_by_product(a, b)))
    value = _tau_by_definition(a, b)
    inverses = []
    inverse = SymplecticMatrix.inverse
    monkeypatch.setattr(SymplecticMatrix, "inverse", lambda m: inverses.append(m) or inverse(m))
    names = ("_gauss_jordan", "kernel_basis", "_primitive", "_check_ints")
    counters = {name: count_calls(exact, name) for name in names}
    assert tau_sp(a, b) == value
    calls = {name: counter.call_count for name, counter in counters.items()}
    assert calls == {"_gauss_jordan": 1, "kernel_basis": 0, "_primitive": 0, "_check_ints": 0}
    assert inverses == []


def _minus_identity(g):
    n = 2 * g
    return SymplecticMatrix([[-int(r == c) for c in range(n)] for r in range(n)], g)


def _identity_sum(y):
    """I_2 + Y: the identity on the first handle (A_1, B_1) and Y on the
    others, a symplectic matrix with eigenvalue 1."""
    g = y.g + 1
    n = 2 * g
    rest = [i for i in range(n) if i not in (0, g)]
    rows = [[int(r == c) for c in range(n)] for r in range(n)]
    for r, row in zip(rest, y.rows):
        for c, e in zip(rest, row):
            rows[r][c] = e
    return SymplecticMatrix(rows, g)


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_tau_sp_against_its_definition_and_the_maslov_index(g, monkeypatch):
    """tau_sp, read off unnormalized kernel vectors, against the full Gram
    matrix on the primitive v_space basis and against the kernel-free
    Maslov index, on seeded pairs and built families reaching identity
    pairs (no elimination, no readout) and every kind of free column:
    x-free (y = 0), y-free with (I - B) y = 0, and kept.  Each readout
    vector lies in V_{A,B}, and the kept count per pair reaches 0, 1, 2
    and, above genus 1, 3 or more, so the Gram matrix meets both the
    straight-line inertia at dim <= 2 and the congruence steps."""
    rng = random.Random(1900 + g)
    n = 2 * g
    e = SymplecticMatrix.identity(g)
    minus = _minus_identity(g)

    def draw():
        return random_symplectic(g, rng.randint(0, 12), rng.random())

    pairs = [(draw(), draw()) for _ in range(400)] + [(minus, minus)]
    for _ in range(5):
        x = draw()
        pairs += [(e, x), (x, e), (x, x.inverse()), (x, minus)]
        v = tuple(rng.randint(-2, 2) for _ in range(n))
        if any(v):
            t = transvection(v)
            pairs += [(x, t ** rng.randint(-3, 3)), (t ** rng.randint(-3, 3), x), (t, t ** -2)]
        if g > 1:
            y = _identity_sum(random_symplectic(g - 1, rng.randint(0, 12), rng.random()))
            pairs += [(y, x), (x, y), (y, y), (y, _identity_sum(_minus_identity(g - 1)))]
    readouts = []
    readout = cocycle._kernel_readout

    def spy(mat, pivots, d, n):
        readouts.append(readout(mat, pivots, d, n))
        return readouts[-1]

    monkeypatch.setattr(cocycle, "_kernel_readout", spy)
    kinds, kept_counts = Counter(), Counter()
    for a, b in pairs:
        value = tau_sp(a, b)
        identity = a == e or b == e
        assert len(readouts) == (0 if identity else 1)  # no elimination on identity pairs
        kinds["identity pair"] += identity
        kept, a_inv = 0, a.inverse()
        for f, s, terms in readouts.pop() if readouts else ():
            y = [0] * n
            for k, c in terms:
                y[c] = k
            x = [p - q for p, q in zip(s, y)]
            # (x, y) lies in V_{A,B}: (A^{-1} - I) x + (B - I) y = 0
            assert all(p - q + r - t == 0 for p, q, r, t in zip(a_inv.apply(x), x, b.apply(y), y))
            assert any(x) or any(y)
            if f < n:
                assert not terms
                kinds["x-free"] += 1
            elif b.apply(y) == tuple(y):
                kinds["y-free radical"] += 1
            else:
                kinds["kept"] += 1
                kept += 1
        kept_counts[min(kept, 3)] += 1
        assert value == _tau_by_definition(a, b) == _maslov(e, a, a * b), (a, b)
    assert len(kinds) == 4, kinds
    assert set(kept_counts) == set(range(min(n, 3) + 1)), kept_counts


def _readout_without_a_y_pivot_term(readout):
    """The readout with the last y-pivot term dropped from the terms of y
    of each free y-column that has one: w = (I - B) y then misses that
    pivot's column of I - B, while x + y keeps it."""

    def planted(mat, pivots, d, n):
        return [(f, s, terms[:-1] if len(terms) > 1 else terms) for f, s, terms in readout(mat, pivots, d, n)]

    return planted


@pytest.mark.parametrize("g", [1, 2, 3])
def test_a_dropped_y_pivot_term_in_the_sparse_w_is_caught(g, monkeypatch):
    """With one y-pivot term planted out of the sparse w, tau_sp raises its
    symmetry error or leaves the definition on some seeded pairs."""
    rng = random.Random(2600 + g)
    pairs = [
        (random_symplectic(g, rng.randint(1, 12), rng.random()),
         random_symplectic(g, rng.randint(1, 12), rng.random()))
        for _ in range(60)
    ]
    expected = [_tau_by_definition(a, b) for a, b in pairs]
    monkeypatch.setattr(cocycle, "_kernel_readout", _readout_without_a_y_pivot_term(cocycle._kernel_readout))
    caught = 0
    for (a, b), value in zip(pairs, expected):
        try:
            caught += tau_sp(a, b) != value
        except ArithmeticError:
            caught += 1
    assert caught


@pytest.mark.parametrize("g", [1, 2, 3, 4])
@pytest.mark.parametrize("lam", [-3, -2, -1, 1, 2, 3])
def test_tau_twist_matches_tau_sp(g, lam, rng):
    e = SymplecticMatrix.identity(g)
    cases = []
    for _ in range(12):
        # classes outside the generating set of random_symplectic
        v = tuple(rng.randint(-3, 3) for _ in range(2 * g))
        if not any(v):
            continue
        t = transvection(v)
        cases.append((random_symplectic(g, rng.randint(0, 12), rng.random()), v))
        cases += [(e, v), (t, v), (t.inverse(), v), (t ** rng.randint(-3, 3), v)]
    if g > 1:
        # A = T_w with <w, v> = 0: v lies outside the image of A^{-1} - I
        cases.append((transvection(a_class(g, 2)), a_class(g, 1)))
    zero = 0
    for a, v in cases:
        b = transvection(v) ** lam
        w, k = twist_of(b)
        assert tau_twist(a, w, k) == tau_sp(a, b), (a, v, lam)
        zero += tau_sp(a, b) == 0
    assert 0 < zero < len(cases)


def test_tau_twist_genus_mismatch():
    with pytest.raises(ValueError, match="length 4 at genus 1"):
        tau_twist(I1, (1, 0, 0, 0), 1)


@pytest.mark.parametrize("lam", [1, -2, 0])
def test_tau_twist_refuses_the_zero_class(lam):
    """The zero class is no twist: B would be I, where tau_sp(A, I) = 0,
    but the solve read sign(lam) off it."""
    a = random_symplectic(2, 6, 0.3)
    assert tau_sp(a, SymplecticMatrix.identity(2)) == 0
    with pytest.raises(ValueError, match="zero class"):
        tau_twist(a, (0, 0, 0, 0), lam)


@pytest.mark.parametrize("v, lam", [((0.5, 0), 1), ((True, 0), 1), ((1, False), 1), ((1, 0), 1.5), ((1, 0), True)])
def test_tau_twist_refuses_non_int_input(v, lam):
    a = random_symplectic(1, 6, 0.3)
    with pytest.raises(ValueError, match="must be .*int"):
        tau_twist(a, v, lam)


def _raised(call, *args):
    """The message of the ValueError that call(*args) raises."""
    with pytest.raises(ValueError) as exc:
        call(*args)
    return str(exc.value)


@pytest.mark.parametrize("v", [(True, 0), (1, False), (0.5, 0), (), (1,), (0, 0)], ids=repr)
def test_transvection_and_tau_twist_refuse_the_classes_twist_refuses(v):
    message = _raised(_twist, v, 1)
    assert _raised(transvection, v) == message
    assert _raised(tau_twist, I1, v, 1) == message


@pytest.mark.parametrize("lam", [True, 1.5])
def test_tau_twist_refuses_the_exponents_twist_refuses(lam):
    assert _raised(tau_twist, I1, (1, 0), lam) == _raised(_twist, (1, 0), lam)


def test_tau_twist_at_lam_zero_is_zero():
    for seed in range(6):
        a = random_symplectic(2, 8, seed)
        assert tau_twist(a, (1, 0, -1, 2), 0) == 0 == tau_sp(a, transvection((1, 0, -1, 2)) ** 0)


def test_tau_twist_sign_rule_and_its_fallback():
    """tau(A, T_v^lam) = sign(lam) sign det(A - I) sign det(AB - I) when
    either determinant is nonzero; tau_twist when both vanish."""
    rng = random.Random(61)
    branches = {"both nonzero": 0, "one zero": 0, "both zero": 0}
    for g in (1, 2, 3, 4):
        e = SymplecticMatrix.identity(g)
        for lam in (-3, -2, -1, 1, 2, 3):
            for _ in range(8):
                v = tuple(rng.randint(-2, 2) for _ in range(2 * g))
                if not any(v):
                    continue
                # long random words: fewer than 2g transvections fix a vector
                for a in (e, transvection(v) ** rng.randint(-3, 3),
                          random_symplectic(g, rng.randint(0, 8 * g), rng.random())):
                    b = transvection(v) ** lam
                    d = _sign_det_minus_identity(a.rows)
                    d_ab = _sign_det_minus_identity((a * b).rows)
                    m_ab = _twist_step(_add_identity(a.rows, -1), _twist(v, lam))
                    assert d_ab == _sign_det(m_ab)
                    if d and d_ab:
                        branches["both nonzero"] += 1
                    elif d or d_ab:
                        branches["one zero"] += 1
                    else:
                        branches["both zero"] += 1
                        assert tau_sp(a, b) == tau_twist(a, v, lam), (a, v, lam)
                        continue
                    sign = 1 if lam > 0 else -1
                    assert tau_sp(a, b) == sign * d * d_ab, (a, v, lam)
    assert all(branches.values()), branches


def _nonzero_minors(rows, r):
    """{(I, J): the r x r minor of rows on the rows I and the columns J},
    over the r-subsets I and J whose minor is nonzero."""
    minors = {}
    for picked in combinations(range(len(rows)), r):
        for cols in combinations(range(len(rows)), r):
            minor = determinant([[rows[i][j] for j in cols] for i in picked])
            if minor:
                minors[picked, cols] = minor
    return minors


@pytest.mark.parametrize("g", [1, 2, 3])
def test_some_sigma_diagonal_minor_of_size_rank_is_nonzero(g):
    """For M = P - I with P symplectic and r = rank M, some r x r minor of
    M on rows I and columns sigma(I) is nonzero, sigma swapping A_i and
    B_i: by brute force over every minor of M, the rank being the largest
    size with a nonzero minor (and agreeing with a kernel)."""
    n = 2 * g
    rng = random.Random(2500 + g)
    ranks = Counter()
    for k in range(60 if g < 3 else 24):
        p = random_symplectic(g, k % (n + 3), rng.random())
        m = _add_identity(p.rows, -1)
        minors = {r: _nonzero_minors(m, r) for r in range(1, n + 1)}
        rank = max([r for r in minors if minors[r]], default=0)
        assert rank == n - len(kernel_basis(m)), p
        ranks[rank] += 1
        if rank:
            sigma_diagonal = [
                picked for picked, cols in minors[rank]
                if cols == tuple(sorted([(i + g) % n for i in picked]))
            ]
            assert sigma_diagonal, p
    assert set(range(n + 1)) <= set(ranks), ranks


@pytest.mark.parametrize("g", [1, 2])
def test_minor_sign_rule_against_the_solve(g):
    """twist._minor_sign on the flat entries of M and M', as the
    straight-line walks hand them over, against _twist_solve, with
    rank(AB - I) from a kernel, at each singular twist step (det(A - I) = det(AB - I) = 0,
    A != I) of seeded walks in twist powers with lam in +-1, +-2, 3 along
    classes that need not be primitive, one step in four along the class
    of the step before it, often undoing that step.  Each step is asked at every bound from rank(A - I) to
    2g - 1, so the bound's descent is taken too; the walks reach every
    rank 1 .. 2g - 1 and at each every outcome: no point (except at
    2g - 1), a rank drop, and the same rank with both signs."""
    n = 2 * g
    rng = random.Random(3100 + g)
    outcomes = set()
    for _ in range(300):
        m, twist = ((0,) * n,) * n, None
        for _ in range(rng.randint(1, 3 * n)):
            exponents = (1, -1, 2, -2, 3)
            if twist and rng.random() < 0.25:
                twist = _twist(twist[0], rng.choice((-twist[1],) + exponents))
            else:
                v = tuple(rng.choice((0, 0, 1, -1, 2, -2)) for _ in range(n))
                if not any(v):
                    continue
                twist = _twist(v, rng.choice(exponents))
            new = _twist_step(m, twist)
            if any(map(any, m)) and not determinant(m) and not determinant(new):
                rank = n - len(kernel_basis(m))
                new_rank = n - len(kernel_basis(new)) if any(map(any, new)) else 0
                tau, solved_rank = _twist_solve(m, twist)
                assert solved_rank == new_rank
                flat, flat_new = sum(m, ()), sum(new, ())
                for bound in range(rank, n):
                    assert _minor_sign(flat, flat_new, twist, bound) == (tau, new_rank), (m, twist, bound)
                outcomes.add((rank, new_rank - rank, tau))
            m = new
    expected = {
        (r, change, tau)
        for r in range(1, n)
        for change, tau in ((1, 0), (-1, 0), (0, 1), (0, -1))
        if r < n - 1 or change < 1
    }
    assert outcomes == expected


def test_sign_det_minus_identity_examples():
    assert _sign_det_minus_identity(I1.rows) == 0
    assert _sign_det_minus_identity(U.rows) == 0  # parabolic: det(U - I) = 0
    assert _sign_det_minus_identity(S.rows) == 1  # det = 2 - trace = 2
    assert _sign_det_minus_identity(((2, 1), (1, 1))) == -1  # 2 - 3
    assert _sign_det_minus_identity(((-1, 0), (0, -1))) == 1
