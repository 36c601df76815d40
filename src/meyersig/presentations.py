"""Words, group presentations, and Meyer-function synthesis.

A presentation 1 -> R -> F -> G -> 1 with a matrix assigned to each
generator pulls the signature cocycle back to a 2-cocycle z on F.  The
1-cochain

    c(x_1 x_2 ... x_m) = sum_j z(pi(x_1 ... x_{j-1}), pi(x_j))

satisfies c(xy) = c(x) + c(y) + z(pi(x), pi(y)) and is a class function,
which turns the order of the cocycle's cohomology class into integer
linear algebra over the relators: n[z] = 0 exactly when the system
n*c(r_j) = sum_i m_i * exp_i(r_j) has an integer solution, where exp_i
counts the total exponent of generator i.  Every presentation gets its
order from the lattice of the relators' exponent vectors, solved on
ints alone by :func:`meyersig.exact.lattice_order`, and then

    phi(pi(x)) = -c(x) + (1/n) * sum_i m_i * exp_i(x)

is a well-defined (1/n)Z-valued function on G whose coboundary is z.
When every generator is conjugate to every other (the Artin situation:
braid and commutation relations connect them, as in the shipped genus-1
and genus-2 presentations), all m_i come out equal to a single m and phi
is -c plus (m/n) times the total exponent.

Words are evaluated by one prefix walk that carries M = P - I, P the
product of the letters so far; a Dehn-twist letter moves it as
:mod:`meyersig.twist` derives, and each letter is checked by one dict
lookup of its own tuple.  :func:`evaluate_word` carries the product
alone, :func:`_walk` also c.  At genus 1 and 2 the walks are
straight-line code on the 4 or 16 entries as local ints; at every genus
the general walk on integer rows gives the same results, and it is the
walk above genus 2.
A :class:`Presentation` walks each relator once, when it is built,
checking that it maps to the identity and keeping c(r_j), so
:func:`class_order` walks no word, and solves once per object.  The file
also holds the shipped presentations for genus 1 and 2 (genus 2 built by
:func:`hyperelliptic`, the one chain-twist builder) and the reader that
every presentation, file or data, goes through; the relators of a
presentation together are capped like one word, and its generators at
MAX_GENERATORS.  The reader keeps the presentations built from the last
16 file texts, so one process decodes, checks and walks a file's text
once.

The reader does each generator's work once.  A matrix's rows are
checked where they are read and classified by the one rank-1 recognizer
of :mod:`meyersig.symplectic`, which also vouches that a twist power is
symplectic, and the twist records go to the :class:`Presentation`.
Tokens resolve through one fixed table per list of generator names
(:func:`_token_table`), which no reader writes to; its letters are valid
by construction and become a :class:`Word` through :func:`_word`, the
trusted constructor.
"""

from fractions import Fraction
from functools import cached_property, lru_cache
from os import PathLike
from pathlib import Path
from sys import getsizeof
from typing import Iterable, Mapping, Sequence

from .cocycle import tau_sp
from .errors import InfiniteOrderError, ParseError, UnsupportedGenusError
from .exact import _sign, determinant, lattice_basis, lattice_order
from .matrix import (
    _add_identity, _decode_json, _product, format_matrix, matrix_from_json, parse_int, parse_matrix
)
from .symplectic import (
    SymplecticMatrix, _chain_classes, _classify, _int_genus, _recognize_twist, _transvection_rows, _wrap
)
from .twist import _minor_sign, _twist, _twist_solve, _twist_step
from .value import Value

Letter = tuple[int, int]  # (generator index, exponent sign)

MAX_WORD_LETTERS = 10_000

# The class-order solve carries one transform entry per generator on each
# generator's column, and its Euclid column steps let those entries grow
# with the generator count.  With random relators at the word cap, the
# slowest `order -p` measured took about 0.6 s at 64 generators, 6 s at
# 128 and more than 120 s at 256 (Python 3.11, one core of a Xeon), so
# presentations are refused above 64 before any matrix is read.
MAX_GENERATORS = 64


class Word(Value):
    """A word in a free group: a sequence of (generator index, +-1) letters.

    Words are stored exactly as given; free reduction is a separate
    operation, because invariance of the cochain under reduction is a
    theorem to be tested, not a normalization to be baked in.  A word
    longer than MAX_WORD_LETTERS raises ValueError; a power does so
    before any letter of it is built.
    """

    __slots__ = _fields = ("letters",)

    def __init__(self, letters: Iterable[Letter] = ()):
        # A list first: a tuple drawn from a generator strands free-list blocks.
        letters = [(i, s) for i, s in letters]
        check_word_length(len(letters))
        for i, s in letters:
            if type(i) is not int or type(s) is not int:
                raise ValueError(f"letter ({i!r}, {s!r}) must be a pair of ints")
            if i < 0:
                raise ValueError(f"negative generator index {i}")
            if s not in (1, -1):
                raise ValueError(f"exponent sign must be +-1, got {s}")
        object.__setattr__(self, "letters", tuple(letters))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.letters == other.letters

    def __hash__(self):  # Value's hash, the tuple of the fields, with no field lookup
        return hash((self.letters,))

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        return Word(self.letters + other.letters)

    def __pow__(self, k: int) -> "Word":
        check_word_length(len(self) * abs(_int_genus(k, "exponent")))
        base = self if k >= 0 else self.inverse()
        return Word(base.letters * abs(k))

    def inverse(self) -> "Word":
        return Word(tuple((i, -s) for i, s in reversed(self.letters)))

    def free_reduce(self) -> "Word":
        """Cancel adjacent inverse pairs until none remain."""
        stack: list[Letter] = []
        for letter in self.letters:
            if stack and stack[-1][0] == letter[0] and stack[-1][1] == -letter[1]:
                stack.pop()
            else:
                stack.append(letter)
        return Word(stack)

    def __repr__(self):
        return f"Word({self.letters!r})"


def _word(letters: list) -> Word:
    """The one trusted Word constructor: letters that are (index >= 0,
    +-1) pairs of ints by construction, and no more than MAX_WORD_LETTERS
    of them, with no check."""
    obj = object.__new__(Word)
    object.__setattr__(obj, "letters", tuple(letters))
    return obj


def check_word_length(letters: int) -> None:
    """Raise ValueError for a word of more than MAX_WORD_LETTERS letters;
    callers pass the count before they build the letters."""
    if letters > MAX_WORD_LETTERS:
        raise ValueError(f"word is too long: meyersig caps words at {MAX_WORD_LETTERS} letters")


def check_generator_count(generators: int) -> None:
    """Raise ValueError for a presentation of more than MAX_GENERATORS
    generators; callers pass the count before any matrix is read."""
    if generators > MAX_GENERATORS:
        raise ValueError(
            f"presentation has too many generators: meyersig caps presentations "
            f"at {MAX_GENERATORS} generators"
        )


def _token_table(generator_names: Sequence[str]) -> dict[str, Letter]:
    """token -> (generator index, +-1) for the fixed forms over
    ``generator_names``: each ``name``, each ``name^-1``, and the
    shorthand ``n.upper()`` for the inverse of a one-letter name ``n``,
    when that is one character that lowers back to ``n``.  A name wins
    over a shorthand, and a name with a ``^`` in it, which no token
    spells, has no entry.  This is the one place a token's name is read.
    """
    table = {}
    for i, name in enumerate(generator_names):
        shorthand = name.upper()
        if len(name) == len(shorthand) == 1 and shorthand.lower() == name:
            table[shorthand] = (i, -1)
    for i, name in enumerate(generator_names):
        if "^" not in name:
            table[name], table[f"{name}^-1"] = (i, 1), (i, -1)
    return table


def parse_word(text: str, generator_names: Sequence[str], tokens: Mapping | None = None) -> Word:
    """Parse a whitespace-separated word string.

    Token forms: a generator name, ``name^k`` for a nonzero integer k
    (expanded into |k| letters), and the single-letter shorthand
    ``n.upper()`` for the inverse of a one-letter generator ``n``.
    The empty string is the empty word.  A word longer than
    MAX_WORD_LETTERS raises ValueError before its letters are built, and
    a bad token raises ParseError naming its position; whichever comes
    first in the text wins.

    ``tokens`` is :func:`_token_table` of the same names, read and never
    written, so the texts of one load share one; without it the call
    builds its own.  A token in it takes one lookup, and its letter is
    the table's own tuple, so the words of one table share their letters;
    any other token goes through :func:`_parse_token`.
    """
    table = _token_table(generator_names) if tokens is None else tokens
    letters: list[Letter] = []
    length = 0
    for pos, token in enumerate(text.split()):
        try:
            letter = table[token]
            count = 1
        except KeyError:
            i, power = _parse_token(token, pos, table)
            count = abs(power)
            letter = (i, power // count)
        length += count
        if length > MAX_WORD_LETTERS:  # before the token's letters are built
            check_word_length(length)
        if count == 1:
            letters.append(letter)
        else:
            letters += [letter] * count
    return _word(letters)


def _parse_token(token: str, pos: int, table: Mapping) -> tuple[int, int]:
    """(generator index, power) of one word token, the ``pos``-th of its
    text: the ``^k`` exponent syntax, with the name part looked up in the
    token ``table``; a bad exponent, a zero exponent or an unknown name
    raises ParseError, in that order."""
    name, caret, power_text = token.partition("^")
    if caret:  # "a^" has an empty exponent, which parse_int refuses
        try:
            power = parse_int(power_text)
        except ParseError:
            raise ParseError(
                f"bad exponent {power_text!r} in token {pos}: {token!r}"
            ) from None
        if power == 0:
            raise ParseError(f"zero exponent in token {pos}: {token!r}")
    else:
        power = 1
    try:
        i, sign = table[name]
    except KeyError:
        raise ParseError(f"unknown generator {name!r} in token {pos}") from None
    return i, sign * power


def format_word(word: Word, generator_names: Sequence[str]) -> str:
    """Canonical word string: one ``name`` or ``name^-1`` token per letter."""
    tokens = []
    for i, s in word.letters:
        if i >= len(generator_names):
            raise ValueError(f"letter index {i} out of range")
        tokens.append(generator_names[i] if s > 0 else f"{generator_names[i]}^-1")
    return " ".join(tokens)


class Presentation(Value):
    """Generators with symplectic images, plus relators mapping to the identity.

    Construction classifies each matrix once: ``_twists`` maps each
    letter (i, +-1) to None, or to the :mod:`meyersig.twist` record when
    the matrix is a twist power (:func:`~meyersig.symplectic._recognize_twist`;
    the inverse of a twist power is the power with -lam).  A loader that
    has recognized its matrices already passes the records as ``twists``,
    one per generator.  Construction builds the token table that
    :meth:`word` reads (:func:`_token_table`), then walks each relator once
    (:func:`_walk`): the image must be the identity, and the cochain value
    c(r_j) read off the same walk is kept in ``_relator_values``, in
    relator order, for :func:`class_order`, which solves once per object
    and keeps the result in ``_class_order``; the relators' exponent
    vectors and their lattice basis, which the closedness check over a
    base of genus >= 1 reads, are kept the same way.  None of these is a
    field, so equality and hashing see only the four data fields.  No
    ``__slots__``: the cached properties live in the instance dict.

    A ``Presentation(...)`` built directly, or loaded from data, walks its
    relators; :func:`load_presentation` keeps only what it built from a
    file's text.

    More than MAX_GENERATORS generators raise ValueError before anything
    else is built.
    """

    _fields = ("genus", "generator_names", "matrices", "relators")

    def __init__(
        self,
        genus: int,
        generator_names: tuple[str, ...],
        matrices: tuple[SymplecticMatrix, ...],
        relators: tuple[Word, ...],
        *,
        twists: Sequence[tuple | None] | None = None,
    ):
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "generator_names", generator_names)
        object.__setattr__(self, "matrices", matrices)
        object.__setattr__(self, "relators", relators)
        names = self.generator_names
        if not names:  # no matrix would pin the genus that sizes the identity below
            raise ValueError("a presentation needs at least one generator")
        check_generator_count(len(names))
        if len(set(names)) != len(names):
            raise ValueError("generator names must be distinct")
        for name in names:
            if not name or any(ch.isspace() for ch in name) or "^" in name:
                raise ValueError(f"bad generator name {name!r}")
        if len(self.matrices) != len(names):
            raise ValueError("need exactly one matrix per generator")
        for name, m in zip(names, self.matrices):
            if m.g != self.genus:
                raise ValueError(f"matrix for {name!r} has genus {m.g}, not {self.genus}")
        if twists is None:
            twists = [_recognize_twist(m.rows, m.g) for m in self.matrices]
        letters: dict[Letter, tuple | None] = {}
        for i, twist in enumerate(twists):
            letters[i, 1] = twist
            letters[i, -1] = None if twist is None else _twist(twist[0], -twist[1])
        object.__setattr__(self, "_twists", letters)
        object.__setattr__(self, "_tokens", _token_table(names))
        values = []
        for k, rel in enumerate(self.relators):
            c, image_minus_identity = _walk(rel, self)
            if any(map(any, image_minus_identity)):
                raise ValueError(
                    f"relator {k} ({format_word(rel, names)!r}) does not map to the identity"
                )
            values.append(c)
        object.__setattr__(self, "_relator_values", tuple(values))

    @cached_property
    def _inverses(self) -> tuple[SymplecticMatrix, ...]:
        return tuple(m.inverse() for m in self.matrices)

    @cached_property
    def _relator_vectors(self) -> list[list[int]]:
        """The exponent vector of each nonempty relator, in relator order."""
        k = self.generator_count
        return [_exponent_vector([r], k) for r in self.relators if r.letters]

    @cached_property
    def _relator_lattice(self) -> list[list[int]]:
        """A basis of the lattice of the relators' exponent vectors, at most
        one vector per generator (:func:`meyersig.exact.lattice_basis`)."""
        return lattice_basis(self._relator_vectors, self.generator_count)

    @cached_property
    def _class_order(self) -> "ClassOrder | Unbounded":
        """:func:`class_order`, solved on the relator values the walks kept."""
        vectors = self._relator_vectors
        columns = [[v[i] for v in vectors] for i in range(self.generator_count)]
        values = [c for r, c in zip(self.relators, self._relator_values) if r.letters]
        order = lattice_order(columns, values)
        return UNBOUNDED if order is None else ClassOrder(*order)

    @cached_property
    def meyer_function(self) -> "SynthesizedMeyerFunction":
        """This presentation's synthesized Meyer function, built once."""
        return synthesize_meyer(self)

    def word(self, text: str) -> Word:
        """The word ``text`` spells, by :func:`parse_word` on the token
        table built at construction."""
        return parse_word(text, self.generator_names, self._tokens)

    @property
    def generator_count(self) -> int:
        return len(self.generator_names)


def evaluate_word(w: Word, p: Presentation) -> SymplecticMatrix:
    """Product of generator matrices in word order; the empty word gives I.

    The walk of :func:`_walk` without c: a twist letter takes the step of
    :mod:`meyersig.twist`, any other the full product.  At 2g = 2 and 4
    the product is carried as 4 or 16 local ints (:func:`_evaluate_2`,
    :func:`_evaluate_4`); above that as the rows of M = P - I
    (:func:`_evaluate_rows`).
    """
    n = 2 * p.genus
    if n == 4:
        return _wrap(2, _evaluate_4(w, p))
    if n == 2:
        return _wrap(1, _evaluate_2(w, p))
    return _wrap(p.genus, _evaluate_rows(w, p))


def _bad_letter(i: int, p: Presentation) -> ValueError:
    """The error for a letter whose index names no generator of p."""
    return ValueError(f"letter index {i} out of range for {len(p.matrices)} generators")


def _evaluate_rows(w: Word, p: Presentation) -> tuple:
    """The rows of the image of w at any genus: the general walk on the
    rows of M = P - I, with I added back once, at the end."""
    m = _zero_rows(2 * p.genus)
    twists = p._twists
    for letter in w.letters:
        try:
            twist = twists[letter]
        except KeyError:
            raise _bad_letter(letter[0], p) from None
        if twist is None:
            i, s = letter
            step = p.matrices[i] if s > 0 else p._inverses[i]
            m = _add_identity(_product(_add_identity(m, 1), step.rows), -1)
        else:
            m = _twist_step(m, twist)
    return _add_identity(m, 1)


def _evaluate_2(w: Word, p: Presentation) -> tuple:
    """The rows of the image of w at 2g = 2, carried as the four entries
    of P itself: with no determinant to take, a twist letter is
    P' = P + (P v) w and needs no identity."""
    p00, p01, p10, p11 = 1, 0, 0, 1
    twists = p._twists
    for letter in w.letters:
        try:
            twist = twists[letter]
        except KeyError:
            raise _bad_letter(letter[0], p) from None
        if twist is None:
            i, s = letter
            step = p.matrices[i] if s > 0 else p._inverses[i]
            (p00, p01), (p10, p11) = _product(((p00, p01), (p10, p11)), step.rows)
            continue
        (v0, v1), _, (w0, w1), _, _ = twist
        f0 = p00 * v0 + p01 * v1
        f1 = p10 * v0 + p11 * v1
        p00 += f0 * w0
        p01 += f0 * w1
        p10 += f1 * w0
        p11 += f1 * w1
    return (p00, p01), (p10, p11)


def _evaluate_4(w: Word, p: Presentation) -> tuple:
    """:func:`_evaluate_2` at 2g = 4, on the 16 entries of P."""
    p00, p01, p02, p03, p10, p11, p12, p13 = 1, 0, 0, 0, 0, 1, 0, 0
    p20, p21, p22, p23, p30, p31, p32, p33 = 0, 0, 1, 0, 0, 0, 0, 1
    twists = p._twists
    for letter in w.letters:
        try:
            twist = twists[letter]
        except KeyError:
            raise _bad_letter(letter[0], p) from None
        if twist is None:
            i, s = letter
            step = p.matrices[i] if s > 0 else p._inverses[i]
            rows = (p00, p01, p02, p03), (p10, p11, p12, p13), (p20, p21, p22, p23), (p30, p31, p32, p33)
            (
                (p00, p01, p02, p03), (p10, p11, p12, p13), (p20, p21, p22, p23), (p30, p31, p32, p33)
            ) = _product(rows, step.rows)
            continue
        (v0, v1, v2, v3), _, (w0, w1, w2, w3), _, _ = twist
        f0 = p00 * v0 + p01 * v1 + p02 * v2 + p03 * v3
        f1 = p10 * v0 + p11 * v1 + p12 * v2 + p13 * v3
        f2 = p20 * v0 + p21 * v1 + p22 * v2 + p23 * v3
        f3 = p30 * v0 + p31 * v1 + p32 * v2 + p33 * v3
        p00 += f0 * w0
        p01 += f0 * w1
        p02 += f0 * w2
        p03 += f0 * w3
        p10 += f1 * w0
        p11 += f1 * w1
        p12 += f1 * w2
        p13 += f1 * w3
        p20 += f2 * w0
        p21 += f2 * w1
        p22 += f2 * w2
        p23 += f2 * w3
        p30 += f3 * w0
        p31 += f3 * w1
        p32 += f3 * w2
        p33 += f3 * w3
    return (p00, p01, p02, p03), (p10, p11, p12, p13), (p20, p21, p22, p23), (p30, p31, p32, p33)


def _walk(w: Word, p: Presentation) -> tuple[int, tuple]:
    """(c(w), the rows of P - I for the image P of w): the signature
    cocycle summed along the prefixes of w, and the last prefix minus I.

    Each prefix P is carried as M = P - I, with d = sign det M and a bound
    on rank M; "The walk" in :mod:`meyersig.twist` gives how a letter
    moves them and what it adds to c.  A letter is checked by its one
    lookup in :attr:`Presentation._twists`, whose keys are exactly the
    generators with both signs.  At 2g = 2 and 4, M is 4 or 16 local ints
    (:func:`_walk_2`, :func:`_walk_4`); above that it is rows
    (:func:`_walk_rows`).  All three give the same c and rows.
    """
    n = 2 * p.genus
    if n == 4:
        return _walk_4(w, p)
    if n == 2:
        return _walk_2(w, p)
    return _walk_rows(w, p)


def _walk_rows(w: Word, p: Presentation) -> tuple[int, tuple]:
    """:func:`_walk` at any genus, on the rows of M: the sparse step, a
    Bareiss determinant while the bound is at least 2g - 1, and at a twist
    letter where both determinants vanish the solve,
    :func:`~meyersig.twist._twist_solve` on the rows of M."""
    total = 0
    g, n = p.genus, 2 * p.genus
    m = _zero_rows(n)
    d = bound = 0  # sign det M and the rank bound at M = I - I
    twists = p._twists
    for letter in w.letters:
        try:
            twist = twists[letter]
        except KeyError:
            raise _bad_letter(letter[0], p) from None
        if twist is None:
            i, s = letter
            step = p.matrices[i] if s > 0 else p._inverses[i]
            prefix = _add_identity(m, 1)
            total += tau_sp(_wrap(g, prefix), step)
            m = _add_identity(_product(prefix, step.rows), -1)
            d = _sign(determinant(m))
            bound = n if d else (n - 1 if any(map(any, m)) else 0)
            continue
        new = _twist_step(m, twist)
        new_d = _sign(determinant(new)) if bound >= n - 1 else 0
        if d or new_d:
            total += d * new_d if twist[1] > 0 else -d * new_d
            bound = n if new_d else n - 1
        elif bound:
            tau, bound = _twist_solve(m, twist)
            total += tau
        else:  # M = 0: P = I, tau(I, B) = 0, and the new M has rank 1
            bound = 1
        m, d = new, new_d
    return total, m


def _walk_2(w: Word, p: Presentation) -> tuple[int, tuple]:
    """:func:`_walk` at 2g = 2, with M as four local ints: the step
    f = M v + v, M' = M + f w, det M' = ad - bc while the bound is 1 or 2,
    and at a twist letter where both determinants vanish
    :func:`~meyersig.twist._minor_sign` on the entries of M and M'.  A
    non-twist letter takes tau_sp, the product and the determinant on the
    rows, as in :func:`_walk_rows`."""
    total = d = bound = 0
    m00 = m01 = m10 = m11 = 0
    twists = p._twists
    for letter in w.letters:
        try:
            twist = twists[letter]
        except KeyError:
            raise _bad_letter(letter[0], p) from None
        if twist is None:
            i, s = letter
            step = p.matrices[i] if s > 0 else p._inverses[i]
            prefix = (m00 + 1, m01), (m10, m11 + 1)
            total += tau_sp(_wrap(1, prefix), step)
            rows = _add_identity(_product(prefix, step.rows), -1)
            (m00, m01), (m10, m11) = rows
            d = _sign(determinant(rows))
            bound = 2 if d else (1 if any(map(any, rows)) else 0)
            continue
        (v0, v1), lam, (w0, w1), _, _ = twist
        f0 = m00 * v0 + m01 * v1 + v0
        f1 = m10 * v0 + m11 * v1 + v1
        if not bound:  # M = 0: P = I, tau(I, B) = 0, and the new M has rank 1
            m00, m01, m10, m11 = f0 * w0, f0 * w1, f1 * w0, f1 * w1
            bound = 1
            continue
        if not d:
            old = m00, m01, m10, m11
        m00 += f0 * w0
        m01 += f0 * w1
        m10 += f1 * w0
        m11 += f1 * w1
        det = m00 * m11 - m01 * m10
        new_d = 1 if det > 0 else -1 if det else 0
        if d or new_d:
            total += d * new_d if lam > 0 else -d * new_d
            bound = 2 if new_d else 1
        else:
            tau, bound = _minor_sign(old, (m00, m01, m10, m11), twist, bound)
            total += tau
        d = new_d
    return total, ((m00, m01), (m10, m11))


def _walk_4(w: Word, p: Presentation) -> tuple[int, tuple]:
    """:func:`_walk_2` at 2g = 4, with M as 16 local ints; det M' is the
    Laplace expansion along rows 0 and 1, each of their six 2 x 2 minors
    times the complementary minor of rows 2 and 3, signed by (-1)^(j + k)
    for the columns j < k of the first, and runs only while the bound is
    3 or 4."""
    total = d = bound = 0
    m00 = m01 = m02 = m03 = m10 = m11 = m12 = m13 = 0
    m20 = m21 = m22 = m23 = m30 = m31 = m32 = m33 = 0
    twists = p._twists
    for letter in w.letters:
        try:
            twist = twists[letter]
        except KeyError:
            raise _bad_letter(letter[0], p) from None
        if twist is None:
            i, s = letter
            step = p.matrices[i] if s > 0 else p._inverses[i]
            prefix = (
                (m00 + 1, m01, m02, m03), (m10, m11 + 1, m12, m13),
                (m20, m21, m22 + 1, m23), (m30, m31, m32, m33 + 1),
            )
            total += tau_sp(_wrap(2, prefix), step)
            rows = _add_identity(_product(prefix, step.rows), -1)
            (m00, m01, m02, m03), (m10, m11, m12, m13), (m20, m21, m22, m23), (m30, m31, m32, m33) = rows
            d = _sign(determinant(rows))
            bound = 4 if d else (3 if any(map(any, rows)) else 0)
            continue
        (v0, v1, v2, v3), lam, (w0, w1, w2, w3), _, _ = twist
        f0 = m00 * v0 + m01 * v1 + m02 * v2 + m03 * v3 + v0
        f1 = m10 * v0 + m11 * v1 + m12 * v2 + m13 * v3 + v1
        f2 = m20 * v0 + m21 * v1 + m22 * v2 + m23 * v3 + v2
        f3 = m30 * v0 + m31 * v1 + m32 * v2 + m33 * v3 + v3
        if not bound:  # M = 0: P = I, tau(I, B) = 0, and the new M has rank 1
            m00, m01, m02, m03 = f0 * w0, f0 * w1, f0 * w2, f0 * w3
            m10, m11, m12, m13 = f1 * w0, f1 * w1, f1 * w2, f1 * w3
            m20, m21, m22, m23 = f2 * w0, f2 * w1, f2 * w2, f2 * w3
            m30, m31, m32, m33 = f3 * w0, f3 * w1, f3 * w2, f3 * w3
            bound = 1
            continue
        if not d:
            old = m00, m01, m02, m03, m10, m11, m12, m13, m20, m21, m22, m23, m30, m31, m32, m33
        m00 += f0 * w0
        m01 += f0 * w1
        m02 += f0 * w2
        m03 += f0 * w3
        m10 += f1 * w0
        m11 += f1 * w1
        m12 += f1 * w2
        m13 += f1 * w3
        m20 += f2 * w0
        m21 += f2 * w1
        m22 += f2 * w2
        m23 += f2 * w3
        m30 += f3 * w0
        m31 += f3 * w1
        m32 += f3 * w2
        m33 += f3 * w3
        if bound >= 3:
            det = (
                (m00 * m11 - m01 * m10) * (m22 * m33 - m23 * m32)
                - (m00 * m12 - m02 * m10) * (m21 * m33 - m23 * m31)
                + (m00 * m13 - m03 * m10) * (m21 * m32 - m22 * m31)
                + (m01 * m12 - m02 * m11) * (m20 * m33 - m23 * m30)
                - (m01 * m13 - m03 * m11) * (m20 * m32 - m22 * m30)
                + (m02 * m13 - m03 * m12) * (m20 * m31 - m21 * m30)
            )
            new_d = 1 if det > 0 else -1 if det else 0
        else:
            new_d = 0
        if d or new_d:
            total += d * new_d if lam > 0 else -d * new_d
            bound = 4 if new_d else 3
        else:
            new = m00, m01, m02, m03, m10, m11, m12, m13, m20, m21, m22, m23, m30, m31, m32, m33
            tau, bound = _minor_sign(old, new, twist, bound)
            total += tau
        d = new_d
    return total, (
        (m00, m01, m02, m03), (m10, m11, m12, m13), (m20, m21, m22, m23), (m30, m31, m32, m33)
    )


def _zero_rows(n: int) -> tuple:
    """The rows of the n x n zero matrix: M = P - I at P = I."""
    return ((0,) * n,) * n


def cochain_c(w: Word, p: Presentation) -> int:
    """c(w): the signature cocycle summed along the prefixes of w, by the
    one prefix walk of :func:`_walk`."""
    return _walk(w, p)[0]


def _exponent_vector(words: Iterable[Word], ngens: int) -> list[int]:
    """The exponent sum of each of ngens generators over all of ``words``."""
    counts = [0] * ngens
    for w in words:
        for i, s in w.letters:
            if i >= ngens:
                raise ValueError(f"letter index {i} out of range")
            counts[i] += s
    return counts


class Unbounded:
    """Marker: the signature class of the presentation has infinite order."""

    def __repr__(self):
        return "Unbounded"


UNBOUNDED = Unbounded()


class ClassOrder(Value):
    """Order n of the cocycle class with integer coefficients m_i such that
    n*c(r_j) = sum_i m_i * exp_i(r_j) over all relators r_j."""

    __slots__ = _fields = ("n", "coefficients")

    def __init__(self, n: int, coefficients: tuple[int, ...]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coefficients", coefficients)


def class_order(p: Presentation) -> ClassOrder | Unbounded:
    """Smallest n >= 1 killing the cocycle class, or UNBOUNDED.

    Solves n*c(r_j) = sum_i m_i * exp_i(r_j) over the relator exponent
    lattice (:func:`meyersig.exact.lattice_order`), with the values c(r_j)
    that construction of p read off its relator walks, so no word is
    walked here.  An empty relator is the equation 0 = 0 and is left out,
    so the system has no more rows than the relators have letters.
    Returns n=1 with all m_i = 0 when c vanishes on every relator.

    The solve runs once per Presentation object, whose
    ``_class_order`` keeps the result; :func:`synthesize_meyer` and
    :attr:`Presentation.meyer_function` read it through here.
    """
    return p._class_order


def _abelianizes_to_zero(p: Presentation, words: Iterable[Word]) -> bool:
    """Whether the product of ``words`` is trivial in the abelianization
    of the presented group: their summed exponent vector is an integer
    combination of the relators' exponent vectors.  The solve runs on the
    basis of their lattice that p keeps, at most one vector per generator,
    so it carries no transform of one entry per relator."""
    order = lattice_order(p._relator_lattice, _exponent_vector(words, p.generator_count))
    return order is not None and order[0] == 1


class SynthesizedMeyerFunction:
    """phi(w) = -c(w) + (1/n) sum_i m_i * exp_i(w): a (1/n)Z-valued class
    function on the presented group whose coboundary is the pulled-back
    signature cocycle."""

    def __init__(self, presentation: Presentation, order: ClassOrder):
        self.presentation = presentation
        self.order = order

    def __call__(self, word: Word | str) -> Fraction:
        p = self.presentation
        if isinstance(word, str):
            word = p.word(word)
        c = cochain_c(word, p)  # the walk checks every letter, so each m[i] below exists
        m = self.order.coefficients
        numer = sum([m[i] * s for i, s in word.letters])
        n = self.order.n
        return Fraction(numer - n * c, n)

    def __repr__(self):
        return f"SynthesizedMeyerFunction(n={self.order.n}, coefficients={self.order.coefficients})"


def synthesize_meyer(p: Presentation) -> SynthesizedMeyerFunction:
    """Build the Meyer function of a presentation with finite class order."""
    order = class_order(p)
    if isinstance(order, Unbounded):
        raise InfiniteOrderError(
            "no Meyer function exists for this presentation: "
            "the signature class has infinite order"
        )
    return SynthesizedMeyerFunction(p, order)


# ---------------------------------------------------------------------------
# JSON interchange and shipped data


def read_json(source, what: str):
    """The JSON object in a file, named by a str or a path and read by
    :func:`_read_text`, or in decoded data, checked by
    :func:`_json_object`; a str is always a file name.  Both loaders read
    through these two parts: :func:`load_fibration
    <meyersig.fibered.load_fibration>` here, and :func:`load_presentation`
    directly, since it keys its memo by the text between them."""
    if isinstance(source, (str, PathLike)):
        source = _read_text(source, what)
    return _json_object(source, what)


def _read_text(path, what: str) -> str:
    """The text of the file at ``path`` (a str or a path), read as UTF-8;
    a file that is not UTF-8 is a ParseError naming ``what`` and the
    byte offset."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"bad {what} JSON at byte {exc.start}: not UTF-8") from None


def _json_object(source, what: str) -> dict:
    """The JSON object ``source`` holds: decoded data, or a JSON text (a
    str here is always text, never a file name) decoded first.  Malformed
    JSON is a ParseError naming ``what`` and the offset, and so is JSON
    nested too deeply to decode, an integer with more digits than Python
    converts, or JSON that is not an object."""
    if isinstance(source, str):
        source = _decode_json(source, f"{what} JSON")
    if not isinstance(source, dict):
        raise ParseError(f"{what} JSON must be an object, got {type(source).__name__}")
    return source


def json_int(value, field: str) -> int:
    """A JSON integer field; floats, booleans and strings are parse errors."""
    if type(value) is not int:
        raise ParseError(f"field {field!r} must be an integer, got {value!r}")
    return value


def _json_names(value, field: str) -> list[str]:
    """A JSON list of strings; anything else is a parse error."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ParseError(f"{field!r} must be a list of strings")
    return value


def dump_presentation(p: Presentation) -> str:
    import json  # only here, as in matrix._decode_json

    names = p.generator_names
    data = {
        "genus": p.genus,
        "generators": list(names),
        "matrices": {name: format_matrix(m.rows) for name, m in zip(names, p.matrices)},
        "relators": [format_word(r, names) for r in p.relators],
    }
    return json.dumps(data, indent=2) + "\n"


_TEXT_KEY_MAX = 1 << 20  # bytes by sys.getsizeof: a longer file text is not kept


def load_presentation(source) -> Presentation:
    """Load from decoded JSON data (a dict) or a file path (:func:`read_json`).

    More than MAX_GENERATORS generators raise ValueError before any matrix
    is read.  Each matrix is classified once, by
    :func:`~meyersig.symplectic._classify`, and the twist records go to the
    :class:`Presentation`.  The relators share one token table
    (:func:`_token_table`), and together they count as one word
    for :func:`check_word_length`, an empty relator as one letter: more
    than MAX_WORD_LETTERS letters in all raise ValueError before any
    relator is walked.

    Data, and a file text over _TEXT_KEY_MAX, is decoded, checked and
    built on every load.  A file is read on every load, and any other text
    goes to :func:`_load_text`, which keeps what it built from the last 16
    texts: a later file with the same text, at any path, returns the kept
    object, its class order and Meyer function included, with no decode,
    check or walk.  That is the same result, since a load is a pure
    function of its text and every check on that text has passed.  An
    edited file, whitespace alone included, is new text.  A load that
    raises keeps nothing.  At the caps (genus 12, 64 generators, 10,000
    relator letters, one-digit entries) a kept presentation with its class
    order, Meyer function and inverses holds about 1.4 MB by tracemalloc,
    so the memo holds about 40 MB at most.  A fresh process reads each
    file once and pays one str hash per load.
    """
    if isinstance(source, (str, PathLike)):
        source = _read_text(source, "presentation")
        if getsizeof(source) <= _TEXT_KEY_MAX:
            return _load_text(source)
    return _load_data(_json_object(source, "presentation"))


@lru_cache(maxsize=16)
def _load_text(text: str) -> Presentation:
    """:func:`load_presentation` on a file's text, for the last 16 texts."""
    return _load_data(_json_object(text, "presentation"))


def _load_data(data: dict) -> Presentation:
    """:func:`load_presentation` on decoded data: the checks, then the
    presentation built."""
    try:
        genus = json_int(data["genus"], "genus")
        generators = _json_names(data["generators"], "generators")
        matrices = data["matrices"]
        relators = _json_names(data["relators"], "relators")
    except (KeyError, TypeError) as exc:
        raise ParseError(f"presentation data is missing field {exc}") from None
    if not isinstance(matrices, dict):
        raise ParseError("'matrices' must map generator names to matrices")
    check_generator_count(len(generators))
    mats, twists = [], []
    for name in generators:
        if name not in matrices:
            raise ParseError(f"no matrix for generator {name!r}")
        raw = matrices[name]
        try:
            rows = parse_matrix(raw) if isinstance(raw, str) else matrix_from_json(raw)
            m, twist = _classify(rows, genus)
        except ValueError as exc:
            raise ParseError(f"matrix for {name!r}: {exc}") from None
        mats.append(m)
        twists.append(twist)
    tokens = _token_table(generators)
    words, letters = [], 0
    for text in relators:
        words.append(parse_word(text, generators, tokens))
        letters += len(words[-1]) or 1  # an empty relator counts as one letter
        check_word_length(letters)  # the relators together count as one word
    try:
        return Presentation(genus, tuple(generators), tuple(mats), tuple(words), twists=twists)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def hyperelliptic(g: int) -> dict:
    """The Birman-Hilden presentation of Delta_g as the data
    :func:`load_presentation` reads: chain twists c1 ... c_{2g+1} as int
    rows; braid and far commutator relators, (c1 ... c_{2g+1})^{2g+2},
    iota^2 and [iota, c1] for iota = c1 ... c_{2g+1} c_{2g+1} ... c1."""
    classes = _chain_classes(g)  # checks g before any name is built
    names = [f"c{k}" for k in range(1, 2 * g + 2)]
    iota = names + names[::-1]
    return {
        "genus": g,
        "generators": names,
        "matrices": {name: _transvection_rows(v) for name, v in zip(names, classes)},
        "relators": [
            *(f"{a} {b} {a} {b}^-1 {a}^-1 {b}^-1" for a, b in zip(names, names[1:])),
            *(f"{a} {b} {a}^-1 {b}^-1" for k, a in enumerate(names) for b in names[k + 2:]),
            " ".join(names * (2 * g + 2)),
            " ".join(iota * 2),
            " ".join(iota + ["c1"] + [f"{name}^-1" for name in iota] + ["c1^-1"]),
        ],
    }


# The shipped presentations, the one genus table; genus-1 fibration files
# name the generators a and b.  The files in ``data`` hold the same
# presentations as ``-p`` examples (a test pins each to this table), but
# building one of these reads no file and decodes no JSON.
_SHIPPED_DATA = {
    1: lambda: {
        "genus": 1, "generators": ["a", "b"], "matrices": {"a": "1,1;0,1", "b": "1,0;-1,1"},
        "relators": ["a b a b^-1 a^-1 b^-1", "a b a a b a a b a a b a"],
    },
    2: lambda: hyperelliptic(2),
}


def _no_meyer_message(g: int) -> str:
    if g >= 3:
        return (
            f"no Meyer function exists at genus {g}: the signature class "
            "has infinite order for genus >= 3"
        )
    return f"unsupported fiber genus {g}: Meyer functions exist at genus 1 and 2 only"


@lru_cache(maxsize=None)
def shipped_presentation(genus: int) -> Presentation:
    """The packaged presentation for genus 1 or 2, built once from
    ``_SHIPPED_DATA`` (genus 2 by ``hyperelliptic(2)``) through
    :func:`load_presentation`'s checks; ValueError for a genus that is
    not an int (so ``True`` and ``2.0`` name no presentation, though they
    equal 1 and 2) and UnsupportedGenusError for a genus with none."""
    if _int_genus(genus) not in _SHIPPED_DATA:
        raise UnsupportedGenusError(_no_meyer_message(genus))
    return load_presentation(_SHIPPED_DATA[genus]())


@lru_cache(maxsize=None)
def shipped_meyer_function(genus: int) -> SynthesizedMeyerFunction:
    """The synthesized Meyer function of the shipped presentation."""
    return shipped_presentation(genus).meyer_function
