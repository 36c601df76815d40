"""The entry check of IntMatrix, and the trusted results that skip it."""

import json

import pytest

from meyersig.errors import ParseError
from meyersig.matrix import IntMatrix, _trusted, matrix_from_json, parse_int, parse_matrix
from meyersig.symplectic import (
    SymplecticMatrix, _twist, _twist_step, random_symplectic, standard_j
)

BAD_ROWS = {
    "bool": [[True, 0], [0, 1]],
    "float": [[1.0, 0], [0, 1]],
    "str": [["1", 0], [0, 1]],
    "ragged": [[1, 0], [1]],
    "no rows": [],
    "empty rows": [[], []],
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
        IntMatrix(rows)
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
        IntMatrix([[1, 0], [True, 1]])
    with pytest.raises(ValueError, match="row 1 has 1 entries, expected 2"):
        IntMatrix([[1, 0], [1]])


def _assert_checked_equal(m):
    """m equals its rows rebuilt through the checking constructor."""
    rebuilt = IntMatrix(m.rows)
    assert m == rebuilt and hash(m) == hash(rebuilt)
    assert type(m.rows) is tuple
    assert all(type(row) is tuple for row in m.rows)
    assert all(type(e) is int for row in m.rows for e in row)


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_trusted_results_equal_checked_ones(g):
    j, ident = standard_j(g), IntMatrix.identity(2 * g)
    _assert_checked_equal(ident)
    for seed in range(12):
        a = random_symplectic(g, 10, f"{g}-{seed}-a")
        b = random_symplectic(g, 10, f"{g}-{seed}-b")
        m, n = a.mat, b.mat
        twisted = _trusted(_twist_step(m.rows, _twist(m.rows[0], seed - 5)))
        for result in (m * n, -m, m.transpose(), a.inverse().mat, (a * b).mat, twisted):
            _assert_checked_equal(result)
        assert a.inverse().mat == -(j * m.transpose() * j)
        assert (a * a.inverse()).mat == ident
