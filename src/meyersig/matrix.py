"""Dense integer matrices, as nonempty rectangular tuples of int tuples.

A matrix is checked where it enters the program: :func:`check_rows`
(behind :func:`parse_matrix`, :func:`matrix_from_json`, the
:class:`~meyersig.symplectic.SymplecticMatrix` constructor and
:func:`~meyersig.symplectic.is_symplectic`) requires a nonempty rectangle
of ``int`` entries, ``bool`` excluded, and returns its rows as tuples.
Rows built from checked rows by the helpers here (:func:`_product`,
:func:`_add_identity` and the identity rows) are int tuples by
construction and are not checked again.  Entries are never coerced to
floats.  Tuples are built from lists, as in :mod:`meyersig.exact`.
"""

import re
from functools import cache
from operator import add, sub

from .errors import ParseError


def check_rows(rows) -> tuple:
    """The rows of a matrix as a tuple of int tuples; rows that are not
    iterable, a row that is not iterable, no rows, an empty row, a ragged
    row or an entry that is not an int (bool included) raises ValueError
    naming it."""
    try:
        rows = tuple([tuple([entry for entry in row]) for row in rows])
    except TypeError:
        raise ValueError(_not_iterable(rows)) from None
    if not rows:
        raise ValueError("matrix needs at least one row")
    width = len(rows[0])
    if not width:
        raise ValueError("matrix needs at least one column")
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"row {i} has {len(row)} entries, expected {width}")
        for j, entry in enumerate(row):
            if not isinstance(entry, int) or isinstance(entry, bool):
                raise ValueError(f"entry ({i},{j}) is not an integer: {entry!r}")
    return rows


def _not_iterable(rows) -> str:
    """The message for rows that :func:`check_rows` could not iterate:
    the rows themselves, or the first row that is not iterable."""
    try:
        iter(rows)
    except TypeError:
        return f"matrix rows must be iterable, got {rows!r}"
    for i, row in enumerate(rows):
        try:
            iter(row)
        except TypeError:
            return f"row {i} is not iterable: {row!r}"
    return "matrix rows must be iterables of entries"


@cache
def _identity_rows(n: int) -> tuple:
    """The rows of the n x n identity, built once per size."""
    return tuple([tuple([int(i == j) for j in range(n)]) for i in range(n)])


def _product(a, b) -> tuple:
    """The rows of A B, as int tuples, for the rows of A and B.

    Row i of A B is the sum of the rows of B weighted by the entries of
    row i of A, so each row is built from B's rows at the nonzero entries
    of A's row alone: a zero entry costs nothing, an entry of 1 or -1
    adds or subtracts the row itself, and a row with one entry of 1 is
    that row of B.  Integer sums are exact in any order, so the rows are
    the dot-product ones.
    """
    zero = (0,) * len(b[0]) if b else ()
    out = []
    for row in a:
        acc = None
        for e, b_row in zip(row, b):
            if not e:
                continue
            if acc is None:
                acc = b_row if e == 1 else [e * x for x in b_row]
            elif e == 1:
                acc = list(map(add, acc, b_row))
            elif e == -1:
                acc = list(map(sub, acc, b_row))
            else:
                acc = [x + e * y for x, y in zip(acc, b_row)]
        out.append(zero if acc is None else tuple(acc))
    return tuple(out)


def _add_identity(rows, k: int) -> tuple:
    """The rows of A + k I, as int tuples, for the rows of a square A."""
    out = []
    for i, row in enumerate(rows):
        row = list(row)
        row[i] += k
        out.append(tuple(row))
    return tuple(out)


_INT_TOKEN = re.compile(r"[+-]?[0-9]+")


def parse_int(text: str) -> int:
    """An integer token: ASCII digits with an optional sign, once
    surrounding whitespace is stripped.

    Anything else is a ParseError, including spellings ``int()`` would
    take, such as ``1_0`` or non-ASCII digits, so that no input is read
    as a number it does not spell.
    """
    token = text.strip()
    if _INT_TOKEN.fullmatch(token):
        try:
            return int(token)
        except ValueError:  # more digits than int() converts
            pass
    raise ParseError(f"bad integer {text!r}")


def format_matrix(rows) -> str:
    """Render rows in the row-major text format: entries ',', rows ';'."""
    return ";".join(",".join(str(e) for e in row) for row in rows)


def parse_matrix(text: str) -> tuple:
    """Parse ``"1,1;0,1"`` or a JSON array-of-arrays into checked rows."""
    stripped = text.strip()
    if not stripped:
        raise ParseError("empty matrix text")
    if stripped.startswith("["):
        return matrix_from_json(_decode_json(stripped, "JSON matrix"))
    rows = []
    for i, row_text in enumerate(stripped.split(";")):
        row = []
        for j, tok in enumerate(row_text.split(",")):
            tok = tok.strip()
            try:
                row.append(parse_int(tok))
            except ParseError:
                raise ParseError(f"bad integer {tok!r} at row {i}, column {j}") from None
        rows.append(row)
    try:
        return check_rows(rows)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _decode_json(text: str, what: str):
    """The value JSON ``text`` spells; malformed JSON, JSON nested too
    deeply to decode, or an integer with more digits than ``int()``
    converts, is a ParseError naming ``what``."""
    import json  # only here: a call that reads no JSON need not load it

    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad {what} at offset {exc.pos}: {exc.msg}") from None
    except RecursionError:
        raise ParseError(f"bad {what}: nested too deeply") from None
    except ValueError:  # the decoder's int() past the digit limit
        raise ParseError(f"bad {what}: an integer has too many digits") from None


def matrix_from_json(data) -> tuple:
    """The checked rows of a decoded JSON array-of-arrays."""
    if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
        raise ParseError("matrix JSON must be an array of arrays")
    try:
        return check_rows(data)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
