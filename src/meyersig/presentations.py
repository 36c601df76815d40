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
product of the letters so far, as plain integer rows.  A letter whose
matrix is a Dehn-twist power takes the twist step, and in the cochain
the determinant-sign rule, the minor-sign rule or the solve, and the
rank bound, all derived in :mod:`meyersig.cocycle`; each letter is
checked by one dict lookup.
:func:`evaluate_word` carries the product alone, :func:`_walk` also c.
A :class:`Presentation` walks each relator once, when it is built,
checking that it maps to the identity and keeping c(r_j), so
:func:`class_order` walks no word.  The file also holds the shipped
presentations for genus 1 and 2, as the Python data their JSON files
decode to, and the reader that every presentation, file or data, goes
through; the relators of a presentation together are capped like one
word.
"""

from fractions import Fraction
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Iterable, Sequence

from .cocycle import _minor_sign, tau_sp
from .errors import InfiniteOrderError, ParseError, UnsupportedGenusError
from .exact import _sign, determinant, lattice_order
from .matrix import (
    _add_identity, _decode_json, _product, format_matrix, matrix_from_json, parse_int, parse_matrix
)
from .symplectic import SymplecticMatrix, _int_genus, _twist, _twist_step, _wrap, twist_of
from .value import Value

Letter = tuple[int, int]  # (generator index, exponent sign)

MAX_WORD_LETTERS = 10_000


class Word:
    """A word in a free group: a sequence of (generator index, +-1) letters.

    Words are stored exactly as given; free reduction is a separate
    operation, because invariance of the cochain under reduction is a
    theorem to be tested, not a normalization to be baked in.
    """

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[Letter] = ()):
        # A list first: a tuple drawn from a generator strands free-list blocks.
        letters = [(i, s) for i, s in letters]
        for i, s in letters:
            if type(i) is not int or type(s) is not int:
                raise ValueError(f"letter ({i!r}, {s!r}) must be a pair of ints")
            if i < 0:
                raise ValueError(f"negative generator index {i}")
            if s not in (1, -1):
                raise ValueError(f"exponent sign must be +-1, got {s}")
        object.__setattr__(self, "letters", tuple(letters))

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    def __delattr__(self, name):
        raise AttributeError("Word is immutable")

    def __reduce__(self):
        return Word, (self.letters,)

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __eq__(self, other):
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        return Word(self.letters + other.letters)

    def __pow__(self, k: int) -> "Word":
        base = self if _int_genus(k, "exponent") >= 0 else self.inverse()
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


def check_word_length(letters: int) -> None:
    """Raise ValueError for a word of more than MAX_WORD_LETTERS letters;
    callers pass the count before they build the letters."""
    if letters > MAX_WORD_LETTERS:
        raise ValueError(f"word is too long: meyersig caps words at {MAX_WORD_LETTERS} letters")


def parse_word(text: str, generator_names: Sequence[str]) -> Word:
    """Parse a whitespace-separated word string.

    Token forms: a generator name, ``name^k`` for a nonzero integer k
    (expanded into |k| letters), and the single-letter shorthand where an
    uppercase token stands for the inverse of its lowercase generator.
    The empty string is the empty word.  A word longer than
    MAX_WORD_LETTERS raises ValueError before its letters are built.
    """
    index = {name: i for i, name in enumerate(generator_names)}
    letters: list[Letter] = []
    length = 0
    for pos, token in enumerate(text.split()):
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
        if name in index:
            i = index[name]
        elif len(name) == 1 and name.isupper() and name.lower() in index:
            i = index[name.lower()]
            power = -power
        else:
            raise ParseError(f"unknown generator {name!r} in token {pos}")
        length += abs(power)
        check_word_length(length)
        sign = 1 if power > 0 else -1
        letters.extend([(i, sign)] * abs(power))
    return Word(letters)


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

    Construction walks each relator once (:func:`_walk`): the image must
    be the identity, and the cochain value c(r_j) read off the same walk
    is kept in ``_relator_values``, in relator order, for
    :func:`class_order`.  It is no field, so equality and hashing see
    only the four data fields.  No ``__slots__``: the cached properties
    live in the instance dict.
    """

    _fields = ("genus", "generator_names", "matrices", "relators")

    def __init__(
        self,
        genus: int,
        generator_names: tuple[str, ...],
        matrices: tuple[SymplecticMatrix, ...],
        relators: tuple[Word, ...],
    ):
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "generator_names", generator_names)
        object.__setattr__(self, "matrices", matrices)
        object.__setattr__(self, "relators", relators)
        names = self.generator_names
        if not names:  # no matrix would pin the genus that sizes the identity below
            raise ValueError("a presentation needs at least one generator")
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
    def _twists(self) -> dict[Letter, tuple | None]:
        """Per letter (i, +-1), None, or the record of
        :func:`~meyersig.symplectic._twist` when its matrix is a twist
        power (found by :func:`twist_of`); the inverse of a twist power is
        the power with -lam."""
        twists: dict[Letter, tuple | None] = {}
        for i, m in enumerate(self.matrices):
            twist = twist_of(m)
            for s in (1, -1):
                twists[i, s] = None if twist is None else _twist(twist[0], s * twist[1])
        return twists

    @cached_property
    def meyer_function(self) -> "SynthesizedMeyerFunction":
        """This presentation's synthesized Meyer function, built once."""
        return synthesize_meyer(self)

    def word(self, text: str) -> Word:
        return parse_word(text, self.generator_names)

    @property
    def generator_count(self) -> int:
        return len(self.generator_names)


def evaluate_word(w: Word, p: Presentation) -> SymplecticMatrix:
    """Product of generator matrices in word order; the empty word gives I.

    The prefix P is carried as the plain integer rows of M = P - I, as in
    :func:`_walk`: a twist-power letter takes
    :func:`~meyersig.symplectic._twist_step`, any other letter the full
    product, and I is added back and the rows wrapped as a matrix once,
    at the end.  A letter is checked by its one lookup in
    :attr:`Presentation._twists`, which has a key for each generator and
    sign and no other.
    """
    m = _zero_rows(2 * p.genus)
    twists = p._twists
    for i, s in w.letters:
        try:
            twist = twists[i, s]
        except KeyError:
            raise ValueError(f"letter index {i} out of range for {len(p.matrices)} generators") from None
        if twist is None:
            step = p.matrices[i] if s > 0 else p._inverses[i]
            m = _add_identity(_product(_add_identity(m, 1), step.rows), -1)
        else:
            m = _twist_step(m, twist)
    return _wrap(p.genus, _add_identity(m, 1))


def _walk(w: Word, p: Presentation) -> tuple[int, tuple]:
    """(c(w), the rows of P - I for the image P of w): the signature
    cocycle summed along the prefixes of w, and the last prefix minus I.

    Each prefix P is carried as the plain integer rows of M = P - I, with
    the sign d of det M and an upper bound on rank M, which is 2g exactly
    when d != 0; the walk paragraph of :mod:`meyersig.cocycle` gives how a
    letter moves them and what it adds to c.  Each letter is checked by
    its one lookup in :attr:`Presentation._twists`, whose keys are exactly
    the generators with both signs; a missing key is an out-of-range
    letter.
    """
    total = 0
    g, n = p.genus, 2 * p.genus
    m = _zero_rows(n)
    d = bound = 0  # sign det M and the rank bound at M = I - I
    twists = p._twists
    for i, s in w.letters:
        try:
            twist = twists[i, s]
        except KeyError:
            raise ValueError(f"letter index {i} out of range for {len(p.matrices)} generators") from None
        if twist is None:
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
            tau, bound = _minor_sign(m, new, twist, bound)
            total += tau
        else:  # M = 0: P = I, tau(I, B) = 0, and the new M has rank 1
            bound = 1
        m, d = new, new_d
    return total, m


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
    walked here.  Returns n=1 with all m_i = 0 when c vanishes on every
    relator.
    """
    vectors = [_exponent_vector([r], p.generator_count) for r in p.relators]
    columns = [[v[i] for v in vectors] for i in range(p.generator_count)]
    order = lattice_order(columns, p._relator_values)
    return UNBOUNDED if order is None else ClassOrder(*order)


def _abelianizes_to_zero(p: Presentation, words: Iterable[Word]) -> bool:
    """Whether the product of ``words`` is trivial in the abelianization
    of the presented group: their summed exponent vector is an integer
    combination of the relators' exponent vectors."""
    columns = [_exponent_vector([r], p.generator_count) for r in p.relators]
    order = lattice_order(columns, _exponent_vector(words, p.generator_count))
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
        counts = _exponent_vector([word], p.generator_count)
        numer = sum(m_i * k_i for m_i, k_i in zip(self.order.coefficients, counts))
        return -cochain_c(word, p) + Fraction(numer, self.order.n)

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
    """The JSON object in a dict, a JSON string, or a file path; a str
    that starts with '{' or '[' is JSON text, a :class:`~pathlib.Path` is
    always a file, read as UTF-8.  Malformed JSON is a ParseError naming
    ``what`` and the offset, and so is a file that is not UTF-8, JSON
    nested too deeply to decode, an integer with more digits than Python
    converts, or JSON that is not an object."""
    if isinstance(source, dict):
        return source
    if isinstance(source, str) and source.lstrip().startswith(("{", "[")):
        text = source
    else:
        try:
            text = Path(source).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"bad {what} JSON at byte {exc.start}: not UTF-8") from None
    data = _decode_json(text, f"{what} JSON")
    if not isinstance(data, dict):
        raise ParseError(f"{what} JSON must be an object, got {type(data).__name__}")
    return data


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


def load_presentation(source) -> Presentation:
    """Load from a dict, a JSON string, or a file path.

    The relators together count as one word for :func:`check_word_length`:
    more than MAX_WORD_LETTERS letters in all raise ValueError before any
    relator is walked.
    """
    data = read_json(source, "presentation")
    try:
        genus = json_int(data["genus"], "genus")
        generators = _json_names(data["generators"], "generators")
        matrices = data["matrices"]
        relators = _json_names(data["relators"], "relators")
    except (KeyError, TypeError) as exc:
        raise ParseError(f"presentation data is missing field {exc}") from None
    if not isinstance(matrices, dict):
        raise ParseError("'matrices' must map generator names to matrices")
    mats = []
    for name in generators:
        if name not in matrices:
            raise ParseError(f"no matrix for generator {name!r}")
        raw = matrices[name]
        try:
            m = parse_matrix(raw) if isinstance(raw, str) else matrix_from_json(raw)
            mats.append(SymplecticMatrix(m, genus))
        except ValueError as exc:
            raise ParseError(f"matrix for {name!r}: {exc}") from None
    words, letters = [], 0
    for text in relators:
        words.append(parse_word(text, generators))
        letters += len(words[-1])
        check_word_length(letters)  # the relators together count as one word
    try:
        return Presentation(genus, tuple(generators), tuple(mats), tuple(words))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


SHIPPED_FILES = {1: "sl2z.json", 2: "genus2.json"}

# The shipped presentations, as the objects their files in ``data``
# decode to.  The files hold the same presentations for ``-p`` and
# ``--data`` (a test pins each to this data), but building one of these
# reads no file and decodes no JSON.
_SHIPPED_DATA = {
    1: {
        "genus": 1,
        "generators": ["a", "b"],
        "matrices": {"a": "1,1;0,1", "b": "1,0;-1,1"},
        "relators": ["a b a b^-1 a^-1 b^-1", "a b a a b a a b a a b a"],
    },
    2: {
        "genus": 2,
        "generators": ["c1", "c2", "c3", "c4", "c5"],
        "matrices": {
            "c1": "1,0,1,0;0,1,0,0;0,0,1,0;0,0,0,1",
            "c2": "1,0,0,0;0,1,0,0;-1,0,1,0;0,0,0,1",
            "c3": "1,0,1,1;0,1,1,1;0,0,1,0;0,0,0,1",
            "c4": "1,0,0,0;0,1,0,0;0,0,1,0;0,-1,0,1",
            "c5": "1,0,0,0;0,1,0,1;0,0,1,0;0,0,0,1",
        },
        "relators": [
            "c1 c2 c1 c2^-1 c1^-1 c2^-1",
            "c2 c3 c2 c3^-1 c2^-1 c3^-1",
            "c3 c4 c3 c4^-1 c3^-1 c4^-1",
            "c4 c5 c4 c5^-1 c4^-1 c5^-1",
            "c1 c3 c1^-1 c3^-1",
            "c1 c4 c1^-1 c4^-1",
            "c1 c5 c1^-1 c5^-1",
            "c2 c4 c2^-1 c4^-1",
            "c2 c5 c2^-1 c5^-1",
            "c3 c5 c3^-1 c5^-1",
            "c1 c2 c3 c4 c5 c1 c2 c3 c4 c5 c1 c2 c3 c4 c5 c1 c2 c3 c4 c5 c1 c2 c3 c4 c5 c1 c2 c3 c4 c5",
            "c1 c2 c3 c4 c5 c5 c4 c3 c2 c1 c1 c2 c3 c4 c5 c5 c4 c3 c2 c1",
            "c1 c2 c3 c4 c5 c5 c4 c3 c2 c1 c1 c1^-1 c2^-1 c3^-1 c4^-1 c5^-1 c5^-1 c4^-1 c3^-1 c2^-1 c1^-1 c1^-1",
        ],
    },
}


def _no_meyer_message(g: int) -> str:
    if g >= 3:
        return (
            f"no Meyer function exists at genus {g}: the signature class "
            "has infinite order for genus >= 3"
        )
    return f"unsupported fiber genus {g}: Meyer functions exist at genus 1 and 2 only"


def _shipped_file(genus: int) -> str:
    """The name of the shipped presentation file of ``genus``, the one
    genus table; UnsupportedGenusError for a genus with none."""
    if genus not in SHIPPED_FILES:
        raise UnsupportedGenusError(_no_meyer_message(genus))
    return SHIPPED_FILES[genus]


@lru_cache(maxsize=None)
def shipped_presentation(genus: int) -> Presentation:
    """The packaged presentation for genus 1 or 2, built once from
    ``_SHIPPED_DATA`` through :func:`load_presentation`'s checks."""
    _shipped_file(genus)  # refuses a genus with none
    return load_presentation(_SHIPPED_DATA[genus])


@lru_cache(maxsize=None)
def shipped_meyer_function(genus: int) -> SynthesizedMeyerFunction:
    """The synthesized Meyer function of the shipped presentation."""
    return shipped_presentation(genus).meyer_function
