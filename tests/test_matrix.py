"""The entry check of matrix rows, and the trusted matrices that skip it."""

import json
import random

import pytest

from meyersig.errors import ParseError
from meyersig.matrix import _add_identity, _product, check_rows, matrix_from_json, parse_int, parse_matrix
from meyersig.presentations import evaluate_word
from meyersig.selftest import chain_with_s, random_word
from meyersig.symplectic import SymplecticMatrix, _wrap, is_symplectic, random_symplectic, standard_j
from meyersig.twist import _twist, _twist_step

BAD_ROWS = {
    "bool": [[True, 0], [0, 1]],
    "float": [[1.0, 0], [0, 1]],
    "str": [["1", 0], [0, 1]],
    "ragged": [[1, 0], [1]],
    "no rows": [],
    "empty rows": [[], []],
    "a row not iterable": [1, 2],
    "rows not iterable": None,
}
BAD_TEXT = {
    "float": "1.5,0;0,1",
    "blank": "  ",
    "empty row": "1,0;",
    "underscore": "1,1_0;0,1",
    "full-width digit": "\uff11,0;0,1",
}


@pytest.mark.parametrize("rows", BAD_ROWS.values(), ids=BAD_ROWS)
def test_constructors_reject_bad_rows(rows):
    with pytest.raises(ValueError):
        check_rows(rows)
    with pytest.raises(ValueError):
        SymplecticMatrix(rows)
    with pytest.raises(ParseError):
        matrix_from_json(rows)
    with pytest.raises(ParseError):
        parse_matrix(json.dumps(rows))


@pytest.mark.parametrize("text", BAD_TEXT.values(), ids=BAD_TEXT)
def test_parse_matrix_rejects_bad_text(text):
    with pytest.raises(ParseError):
        parse_matrix(text)


def test_parse_int_takes_only_ascii_digits_with_a_sign():
    good = {"0": 0, "-12": -12, "+7": 7, " 007 ": 7, "9" * 40: int("9" * 40)}
    for text, value in good.items():
        assert parse_int(text) == value
    bad = ["", " ", "+", "1_0", "\uff11", "\u0661", "1.0", "0x1", "1e3", "1 2", "--1", "9" * 5000]
    for text in bad:
        with pytest.raises(ParseError, match="bad integer"):
            parse_int(text)


@pytest.mark.parametrize("data", [None, 3, [1, 2], [[1], 2], "1,0;0,1"])
def test_matrix_from_json_needs_an_array_of_arrays(data):
    with pytest.raises(ParseError, match="array of arrays"):
        matrix_from_json(data)


def test_entry_errors_name_the_entry():
    with pytest.raises(ValueError, match=r"entry \(1,0\) is not an integer: True"):
        check_rows([[1, 0], [True, 1]])
    with pytest.raises(ValueError, match="row 1 has 1 entries, expected 2"):
        check_rows([[1, 0], [1]])


def test_rows_that_are_not_iterable_are_named():
    for make, message in (
        (lambda: [1, 2], "row 0 is not iterable: 1"),
        (lambda: [[1, 0], 7], "row 1 is not iterable: 7"),
        (lambda: None, "matrix rows must be iterable, got None"),
        (lambda: 5, "matrix rows must be iterable, got 5"),
        (lambda: iter([[1, 0], 7]), "matrix rows must be iterables of entries"),  # used up: no row to name
    ):
        for check in (check_rows, SymplecticMatrix, lambda rows: is_symplectic(rows, 1)):
            with pytest.raises(ValueError) as info:
                check(make())
            assert str(info.value) == message


def _assert_checked_equal(m, g):
    """m, built through _wrap, equals its rows rebuilt through the check."""
    rebuilt = SymplecticMatrix(m.rows)
    assert m == rebuilt and hash(m) == hash(rebuilt)
    assert type(m.g) is int and m.g == rebuilt.g == g
    assert type(m.rows) is tuple
    assert all(type(row) is tuple for row in m.rows)
    assert all(type(e) is int for row in m.rows for e in row)


def _dense_product(a, b):
    """The rows of A B by the definition, for lists of rows A and B: the
    dense reference the tests hold the row helpers against."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def test_product_against_the_dense_product():
    """_product, built from the rows of B at the nonzero entries of A's rows,
    equals the dot-product definition on random shapes, square and not,
    with zero rows, entries that are mostly 0 and +-1, and entries of up to
    60 digits; every row is an int tuple."""
    rng = random.Random(5)
    seen = {"zero row": 0, "one": 0, "minus one": 0, "big": 0, "rectangular": 0}
    for _ in range(500):
        n, k, m = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        bound = rng.choice((1, 1, 3, 10**60))
        a = [[rng.choice((0, 0, 1, -1, rng.randint(-bound, bound))) for _ in range(k)] for _ in range(n)]
        b = [[rng.choice((0, rng.randint(-bound, bound))) for _ in range(m)] for _ in range(k)]
        if rng.random() < 0.3:
            a[rng.randrange(n)] = [0] * k
        for left, right in ((a, b), (tuple(map(tuple, a)), tuple(map(tuple, b)))):
            out = _product(left, right)
            assert out == tuple(map(tuple, _dense_product(a, b))), (a, b)
            assert type(out) is tuple and all(type(row) is tuple for row in out)
            assert all(type(e) is int for row in out for e in row)
        seen["zero row"] += any(not any(row) for row in a)
        seen["one"] += any(1 in row for row in a)
        seen["minus one"] += any(-1 in row for row in a)
        seen["big"] += any(abs(e) >= 10**50 for row in a + b for e in row)
        seen["rectangular"] += len({n, k, m}) > 1
    assert all(seen.values()), seen
    assert _product(((0, 0),), ((1, 2, 3), (4, 5, 6))) == ((0, 0, 0),)
    assert _product(((1, 0), (0, -1)), ((1, 2), (3, 4))) == ((1, 2), (-3, -4))


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_trusted_results_equal_checked_ones(g):
    j = standard_j(g).rows
    ident = SymplecticMatrix.identity(g)
    _assert_checked_equal(ident, g)
    p = chain_with_s(g)
    rng = random.Random(g)
    for seed in range(12):
        a = random_symplectic(g, 10, f"{g}-{seed}-a")
        b = random_symplectic(g, 10, f"{g}-{seed}-b")
        twisted = _add_identity(_twist_step(_add_identity(a.rows, -1), _twist(a.rows[0], seed - 5)), 1)
        for result in (a * b, a.inverse(), evaluate_word(random_word(p, rng), p), _wrap(g, twisted)):
            _assert_checked_equal(result, g)
        # A^{-1} = -J A^T J, with J and the product written out densely
        j_at_j = _dense_product(_dense_product(j, [list(col) for col in zip(*a.rows)]), j)
        assert a.inverse().rows == tuple(tuple(-e for e in row) for row in j_at_j)
        assert a * a.inverse() == ident
