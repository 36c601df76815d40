import json
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from meyersig import symplectic
from meyersig.errors import ParseError
from meyersig.matrix import _add_identity, _identity_rows, format_matrix, parse_matrix
from meyersig.presentations import Word
from meyersig.symplectic import (
    MAX_GENUS,
    SymplecticMatrix,
    _twist,
    _twist_step,
    a_class,
    b_class,
    is_symplectic,
    random_symplectic,
    standard_j,
    symplectic_pairing,
    transvection,
    twist_of,
)
from test_matrix import _dense_product


def test_standard_j():
    assert standard_j(1).rows == ((0, 1), (-1, 0))
    assert standard_j(2).rows == (
        (0, 0, 1, 0),
        (0, 0, 0, 1),
        (-1, 0, 0, 0),
        (0, -1, 0, 0),
    )


def test_is_symplectic_examples():
    assert is_symplectic([[1, 0], [0, 1]], 1)
    assert is_symplectic([[1, 1], [0, 1]], 1)
    assert not is_symplectic([[2, 0], [0, 2]], 1)
    with pytest.raises(ValueError, match="expected a 2x2"):
        is_symplectic([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 1)


def test_constructor_rejects_non_symplectic():
    with pytest.raises(ValueError, match="A\\^T J A != J"):
        SymplecticMatrix([[2, 0], [0, 2]])
    with pytest.raises(ValueError, match="2g x 2g"):
        SymplecticMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_pairing_normalization():
    # <A_i, B_j> = delta_ij, <A_i, A_j> = <B_i, B_j> = 0
    for g in (1, 2, 3):
        for i in range(1, g + 1):
            for j in range(1, g + 1):
                assert symplectic_pairing(a_class(g, i), b_class(g, j)) == int(i == j)
                assert symplectic_pairing(a_class(g, i), a_class(g, j)) == 0
                assert symplectic_pairing(b_class(g, i), b_class(g, j)) == 0


@pytest.mark.parametrize("u, v", [
    ((0.5, 0), (0, 2)),
    ((True, 0), (0, 1)),
    ((1, 0), (0, False)),
    ((Fraction(1), 0), (0, 1)),
    ((1, 0, 0, 0), (0, 0, 1.0, 0)),
])
def test_pairing_refuses_entries_that_are_not_ints(u, v):
    with pytest.raises(ValueError, match="entries must be ints"):
        symplectic_pairing(u, v)


SMALL_REFUSALS = {
    "pairing of unequal lengths": (
        lambda: symplectic_pairing((1, 0), (1, 0, 0, 0)), "vector lengths differ: 2 vs 4"
    ),
    "pairing of odd length": (
        lambda: symplectic_pairing((1, 0, 0), (0, 1, 0)),
        "homology classes have even positive length, got 3",
    ),
    "A_3 at genus 2": (lambda: a_class(2, 3), "A_3 out of range for genus 2"),
    "B_0 at genus 2": (lambda: b_class(2, 0), "B_0 out of range for genus 2"),
    "J at genus 0": (lambda: standard_j(0), "genus must be positive, got 0"),
    # entries, exponents, word lengths and basis indices are ints, bool
    # excluded: True would read as 1, and 2.0 fail with a TypeError deep inside
    "apply to 0.5": (lambda: transvection((1, 0)).apply((0.5, 1)), "entries must be ints, got 0.5"),
    "apply to True": (lambda: transvection((1, 0)).apply((True, 0)), "entries must be ints, got True"),
    "apply to a Fraction": (
        lambda: transvection((1, 0)).apply((1, Fraction(1))), "entries must be ints, got Fraction(1, 1)"
    ),
    "A_True": (lambda: a_class(2, True), "index must be an int, got True"),
    "B_1.0": (lambda: b_class(2, 1.0), "index must be an int, got 1.0"),
    "matrix ** True": (lambda: transvection((1, 0)) ** True, "exponent must be an int, got True"),
    "matrix ** 2.0": (lambda: transvection((1, 0)) ** 2.0, "exponent must be an int, got 2.0"),
    "word ** True": (lambda: Word([(0, 1)]) ** True, "exponent must be an int, got True"),
    "word ** 2.0": (lambda: Word([(0, 1)]) ** 2.0, "exponent must be an int, got 2.0"),
    "word_length True": (lambda: random_symplectic(1, True, 0), "word_length must be an int, got True"),
    "word_length 2.0": (lambda: random_symplectic(1, 2.0, 0), "word_length must be an int, got 2.0"),
}


@pytest.mark.parametrize("call, message", SMALL_REFUSALS.values(), ids=SMALL_REFUSALS)
def test_small_refusals(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_pairing_antisymmetry():
    rng = random.Random(5)
    for _ in range(100):
        g = rng.randint(1, 3)
        u = tuple(rng.randint(-4, 4) for _ in range(2 * g))
        v = tuple(rng.randint(-4, 4) for _ in range(2 * g))
        assert symplectic_pairing(u, v) == -symplectic_pairing(v, u)
        assert symplectic_pairing(u, u) == 0


def test_transvection_frozen_convention():
    # The recorded handedness: twist along A_1 is the upper unipotent.
    assert transvection(a_class(1, 1)).rows == ((1, 1), (0, 1))
    assert transvection(b_class(1, 1)).rows == ((1, 0), (-1, 1))


def test_transvection_fixes_its_class():
    rng = random.Random(6)
    for _ in range(60):
        g = rng.randint(1, 3)
        v = tuple(rng.randint(-3, 3) for _ in range(2 * g))
        if all(x == 0 for x in v):
            continue
        t = transvection(v)
        assert t.apply(v) == v


def test_transvection_zero_vector_rejected():
    with pytest.raises(ValueError, match="zero class"):
        transvection((0, 0))


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_twist_record_against_its_definition(g):
    """_twist(v, lam) on classes with 1, 2 and 2g nonzero entries and every
    lam in -3..3: w is lam v^T J by standard_j, the supports are exactly
    the nonzero entries of v and w, and I + v w is transvection(v) ** lam."""
    rng = random.Random(90 + g)
    n = 2 * g
    for support in sorted({1, 2, n}):
        for _ in range(6):
            v = [0] * n
            for k in rng.sample(range(n), support):
                v[k] = rng.choice((-3, -2, -1, 1, 2, 4))
            for lam in range(-3, 4):
                v_rec, lam_rec, w, v_terms, w_terms = _twist(v, lam)
                assert (v_rec, lam_rec) == (tuple(v), lam)
                assert w == tuple(lam * e for e in _row_times_j(v, g))
                assert v_terms == tuple((k, e) for k, e in enumerate(v) if e)
                assert w_terms == tuple((j, e) for j, e in enumerate(w) if e)
                if lam:
                    rows = [[int(i == j) + e * f for j, f in enumerate(w)] for i, e in enumerate(v)]
                    assert SymplecticMatrix(rows) == transvection(v) ** lam, (v, lam)


def test_transvection_inverse_cancels():
    rng = random.Random(7)
    for _ in range(40):
        g = rng.randint(1, 3)
        v = tuple(rng.randint(-3, 3) for _ in range(2 * g))
        if all(x == 0 for x in v):
            continue
        t = transvection(v)
        assert t * t.inverse() == SymplecticMatrix.identity(g)


def test_twist_of_recovers_twist_powers():
    rng = random.Random(9)
    for _ in range(60):
        g = rng.randint(1, 3)
        v = tuple(rng.randint(-3, 3) for _ in range(2 * g))
        if not any(v):
            continue
        lam = rng.choice((-3, -2, -1, 1, 2, 3))
        w, k = twist_of(transvection(v) ** lam)
        assert transvection(w) ** k == transvection(v) ** lam
        assert next(x for x in w if x) > 0
        assert math.gcd(*w) == 1
    # a non-primitive class: T_{2 A_1} = T_{A_1}^4
    assert twist_of(transvection((2, 0))) == ((1, 0), 4)
    assert twist_of(transvection((0, -1)) ** -2) == ((0, 1), -2)


@pytest.mark.parametrize(
    "entries", [[[0, -1], [1, 0]], [[-1, 0], [0, -1]], [[1, 0], [0, 1]], [[2, 1], [1, 1]]]
)
def test_twist_of_refuses_non_twists(entries):
    assert twist_of(SymplecticMatrix(entries)) is None


def test_pairing_preserved_by_symplectic_action():
    rng = random.Random(8)
    for _ in range(60):
        g = rng.randint(1, 3)
        m = random_symplectic(g, rng.randint(0, 12), rng.random())
        u = tuple(rng.randint(-4, 4) for _ in range(2 * g))
        v = tuple(rng.randint(-4, 4) for _ in range(2 * g))
        assert symplectic_pairing(m.apply(u), m.apply(v)) == symplectic_pairing(u, v)


def test_random_symplectic_contract():
    assert random_symplectic(2, 0, 99) == SymplecticMatrix.identity(2)
    assert random_symplectic(3, 25, 4) == random_symplectic(3, 25, 4)
    assert random_symplectic(3, 25, 4) != random_symplectic(3, 25, 5)
    rng = random.Random(9)
    for _ in range(40):
        g = rng.randint(1, 3)
        m = random_symplectic(g, rng.randint(0, 20), rng.random())
        assert is_symplectic(m.rows, g)
        assert is_symplectic(m.inverse().rows, g)
    with pytest.raises(ValueError):
        random_symplectic(2, -1, 0)


# Seeded inputs of the tests and the benchmark depend on these staying put.
RANDOM_PINS = {
    (1, 7, 0): "1,1;2,3",
    (2, 10, 1): "9,4,-5,-1;3,3,-2,0;-3,-2,2,0;-1,1,0,1",
    (3, 12, 2): "2,0,0,-3,0,0;0,3,2,0,2,0;0,-1,0,0,0,-1;-1,0,0,2,0,0;0,1,1,0,1,0;0,0,1,0,0,0",
    (4, 9, 0.5): (
        "2,1,0,0,-1,0,0,0;0,1,0,0,0,0,0,0;0,0,1,1,0,0,1,0;0,0,0,2,0,0,-1,1;"
        "-5,-4,0,0,3,0,0,0;-3,-3,0,0,1,1,0,0;0,0,0,0,0,0,1,0;0,0,0,-1,0,0,0,0"
    ),
}


@pytest.mark.parametrize("args, text", RANDOM_PINS.items(), ids=str)
def test_random_symplectic_pinned_outputs(args, text):
    assert format_matrix(random_symplectic(*args).rows) == text
    assert format_matrix(random_symplectic(*args).rows) == text  # from the built factors


def _sparse_twist(a, v, lam):
    """The rows of A T_v^lam minus I, by the sparse step on A - I."""
    return _twist_step(_add_identity(a.rows, -1), _twist(v, lam))


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_times_twist_is_the_full_product(g):
    rng = random.Random(60 + g)
    for _ in range(30):
        a = random_symplectic(g, rng.randint(0, 12), rng.random())
        v = tuple(rng.randint(-3, 3) for _ in range(2 * g))
        if not any(v):
            continue
        lam = rng.choice((-3, -2, -1, 1, 2, 3))
        assert _sparse_twist(a, v, lam) == _add_identity((a * transvection(v) ** lam).rows, -1)


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_sparse_twist_step_is_the_dense_product(g):
    """The step on P - I against the dense P T_v^lam, for classes with
    1, 2 and 2g nonzero coordinates, entries above 1 and lam of both
    signs; the supports are exactly the nonzero entries of v and
    lam v^T J."""
    rng = random.Random(70 + g)
    n = 2 * g
    big = 0
    for support in sorted({1, 2, n}):
        for _ in range(12):
            v = [0] * n
            for k in rng.sample(range(n), support):
                v[k] = rng.choice((-5, -3, -2, -1, 1, 2, 3, 4))
            big += max(map(abs, v)) > 1
            for lam in (-2, -1, 1, 3):
                _, _, _, v_terms, w_terms = _twist(v, lam)
                w = [lam * e for e in _row_times_j(v, g)]  # lam v^T J
                assert v_terms == tuple((k, e) for k, e in enumerate(v) if e)
                assert w_terms == tuple((k, e) for k, e in enumerate(w) if e)
                a = random_symplectic(g, rng.randint(0, 10), rng.random())
                dense = (a * transvection(v) ** lam).rows
                assert _sparse_twist(a, v, lam) == _add_identity(dense, -1)
    assert big


def _row_times_j(v, g):
    """The row v^T J, by the dense product with standard_j(g)."""
    return _dense_product([v], standard_j(g).rows)[0]


def _dense_step(m, v, lam):
    """(M + I) T_v^lam - I by the full product, for any integer rows M."""
    return _add_identity(_dense_product(_add_identity(m, 1), (transvection(v) ** lam).rows), -1)


def _step_cases(g, rng):
    """Rows M of size 2g for the step oracle: 0, entries past +-2^64, and
    P - I for random_symplectic words P of every length up to 12."""
    n = 2 * g
    yield ((0,) * n,) * n
    for _ in range(3):
        yield tuple(tuple(rng.choice((-1, 1)) * rng.randint(2**64, 2**72) for _ in range(n)) for _ in range(n))
    for length in range(13):
        yield _add_identity(random_symplectic(g, length, rng.random()).rows, -1)


@pytest.mark.parametrize("g", [1, 2, 3])
def test_twist_step_is_the_dense_product_on_every_letter(sl2z, genus2, g):
    """The step (straight-line at 2g = 2 and 4, sparse at 2g = 6) against
    the dense (M + I) T_v^lam - I: at genus 1 and 2 on every twist letter
    of the shipped presentation with both signs, at genus 3 on the chain
    twists and on classes with every coordinate nonzero; w is lam v^T J."""
    rng = random.Random(80 + g)
    if g < 3:
        p = (sl2z, genus2)[g - 1]
        letters = [twist for twist in p._twists.values() if twist]
        assert len(letters) == 2 * p.generator_count
    else:
        classes = symplectic._chain_classes(g) + [tuple(rng.choice((-2, -1, 1, 3)) for _ in range(6))]
        letters = [_twist(v, lam) for v in classes for lam in (1, -1, 2)]
    assert {lam > 0 for _, lam, *_ in letters} == {True, False}
    for twist in letters:
        v, lam, w = twist[:3]
        assert w == tuple(lam * e for e in _row_times_j(v, g))
        for m in _step_cases(g, rng):
            assert _twist_step(m, twist) == _dense_step(m, v, lam), (m, v, lam)


def test_genus_cap_refuses_before_the_symplectic_check(monkeypatch):
    checked = []
    monkeypatch.setattr(symplectic, "_is_symplectic", lambda m, g: checked.append(g) or True)
    n = 2 * (MAX_GENUS + 1)
    with pytest.raises(ValueError, match=f"caps the genus at {MAX_GENUS}"):
        SymplecticMatrix(_identity_rows(n))
    with pytest.raises(ValueError, match=f"caps the genus at {MAX_GENUS}"):
        SymplecticMatrix(_identity_rows(n), MAX_GENUS + 1)
    assert checked == []
    assert SymplecticMatrix(_identity_rows(2 * MAX_GENUS)).g == MAX_GENUS
    assert checked == [MAX_GENUS]


GENUS_REFUSALS = {
    0: "genus must be positive, got 0",
    13: f"genus 13 is too large: meyersig caps the genus at {MAX_GENUS}",
    10**6: f"genus 1000000 is too large: meyersig caps the genus at {MAX_GENUS}",
    True: "genus must be an int, got True",
}

# Run in a child whose address space is capped at 1 GiB, so that a genus
# check that lets 10**6 through fails with MemoryError instead of
# building the rows of a 2*10**6 x 2*10**6 matrix.
_REFUSAL_CHILD = """
import json, resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
from meyersig.symplectic import SymplecticMatrix, a_class, b_class, random_symplectic, standard_j
g = json.loads(sys.argv[1])
calls = (
    SymplecticMatrix.identity, standard_j, lambda g: random_symplectic(g, 0, 1),
    lambda g: a_class(g, 1), lambda g: b_class(g, 1),
)
results = []
for call in calls:
    start = time.perf_counter()
    try:
        call(g)
        results.append(["returned", None])
    except Exception as exc:
        results.append([type(exc).__name__ + ": " + str(exc), time.perf_counter() - start])
print(json.dumps(results))
"""


@pytest.mark.parametrize("g, message", GENUS_REFUSALS.items(), ids=str)
def test_genus_is_refused_before_any_work(g, message):
    """SymplecticMatrix.identity, standard_j, random_symplectic, a_class
    and b_class each refuse a genus outside 1 .. MAX_GENUS, or one that is
    not an int, in under 0.1 s and with one message."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run(
        [sys.executable, "-c", _REFUSAL_CHILD, json.dumps(g)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, "")
    for outcome, seconds in json.loads(done.stdout):
        assert outcome == f"ValueError: {message}"
        assert seconds < 0.1


def test_constructor_stores_the_genus_of_the_shape():
    m = SymplecticMatrix([[1, 0], [0, 1]], True)
    assert type(m.g) is int and m.g == 1
    assert m == SymplecticMatrix.identity(1)


def test_inverse_and_power():
    m = random_symplectic(2, 12, 31)
    assert m * m.inverse() == SymplecticMatrix.identity(2)
    assert m**3 == m * m * m
    assert m**-2 == (m.inverse()) * (m.inverse())
    assert m**0 == SymplecticMatrix.identity(2)
    u = SymplecticMatrix([[1, 1], [0, 1]])
    assert u ** 10**12 == SymplecticMatrix([[1, 10**12], [0, 1]])
    assert u ** -(10**12) == SymplecticMatrix([[1, -(10**12)], [0, 1]])


def test_genus_mismatch_product():
    with pytest.raises(ValueError, match="genus mismatch"):
        SymplecticMatrix.identity(1) * SymplecticMatrix.identity(2)


def test_matrix_text_format_round_trip():
    texts = ["1,1;0,1", "1,0;-1,1", "0,-1;1,0", "1,0,1,0;0,1,0,0;0,0,1,0;0,0,0,1"]
    for text in texts:
        assert format_matrix(parse_matrix(text)) == text


def test_matrix_json_format():
    assert parse_matrix("[[1, 1], [0, 1]]") == ((1, 1), (0, 1))
    with pytest.raises(ParseError, match="JSON"):
        parse_matrix("[[1, 1], [0, ]]")


def test_matrix_parse_errors_carry_position():
    with pytest.raises(ParseError, match="row 1, column 0"):
        parse_matrix("1,0;x,1")
    with pytest.raises(ParseError):
        parse_matrix("")
    with pytest.raises(ParseError, match="row 1"):
        parse_matrix("1,0;1")
