"""Immutable dense integer matrices with arbitrary-precision entries.

A matrix is checked once, where it enters the program: the public
constructor (behind :func:`parse_matrix`, :func:`matrix_from_json` and
any caller's own rows) requires a nonempty rectangle of ``int`` entries,
``bool`` excluded.  Operations closed over integer matrices (products,
negation, transpose and the identity) build their results through
:func:`_trusted`, which skips that check, since their entries are ints
by construction.  Entries are never coerced to floats.  Tuples are
built from lists, as in :mod:`meyersig.exact`.
"""

import json
import re
from functools import cache
from operator import mul

from .errors import ParseError


class IntMatrix:
    """A rectangular matrix of Python ints, hashable and immutable."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple([tuple([entry for entry in row]) for row in rows])
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
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @staticmethod
    @cache
    def identity(n: int) -> "IntMatrix":
        if n < 1:
            raise ValueError(f"identity needs a positive size, got {n}")
        return _trusted(tuple([tuple([int(i == j) for j in range(n)]) for i in range(n)]))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    def __getitem__(self, i):
        return self.rows[i]

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        cols = list(zip(*other.rows))
        return _trusted(
            tuple([tuple([sum(map(mul, row, col)) for col in cols]) for row in self.rows])
        )

    def __neg__(self) -> "IntMatrix":
        return _trusted(tuple([tuple([-a for a in row]) for row in self.rows]))

    def transpose(self) -> "IntMatrix":
        return _trusted(tuple(list(zip(*self.rows))))

    def apply(self, vector) -> tuple:
        """Matrix-vector product, returning a tuple of ints."""
        vec = tuple(vector)
        if len(vec) != self.ncols:
            raise ValueError(f"vector length {len(vec)} != {self.ncols} columns")
        return tuple([sum(map(mul, row, vec)) for row in self.rows])

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def trace(self) -> int:
        if not self.is_square():
            raise ValueError("trace of a non-square matrix")
        return sum(self.rows[i][i] for i in range(self.nrows))

    def __repr__(self):
        return f"IntMatrix({format_matrix(self)!r})"


def _trusted(rows: tuple) -> IntMatrix:
    """Wrap a nonempty rectangular tuple of int tuples without checking it.

    Only for results that are integer matrices by construction; anything
    read from outside goes through :class:`IntMatrix` itself.
    """
    m = object.__new__(IntMatrix)
    object.__setattr__(m, "rows", rows)
    return m


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


def format_matrix(m: IntMatrix) -> str:
    """Render in the row-major text format: entries ',', rows ';'."""
    return ";".join(",".join(str(e) for e in row) for row in m.rows)


def parse_matrix(text: str) -> IntMatrix:
    """Parse ``"1,1;0,1"`` or a JSON array-of-arrays into an IntMatrix."""
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
        return IntMatrix(rows)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _decode_json(text: str, what: str):
    """The value JSON ``text`` spells; malformed JSON, JSON nested too
    deeply to decode, or an integer with more digits than ``int()``
    converts, is a ParseError naming ``what``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad {what} at offset {exc.pos}: {exc.msg}") from None
    except RecursionError:
        raise ParseError(f"bad {what}: nested too deeply") from None
    except ValueError:  # the decoder's int() past the digit limit
        raise ParseError(f"bad {what}: an integer has too many digits") from None


def matrix_from_json(data) -> IntMatrix:
    """Build an IntMatrix from a decoded JSON array-of-arrays."""
    if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
        raise ParseError("matrix JSON must be an array of arrays")
    try:
        return IntMatrix(data)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
