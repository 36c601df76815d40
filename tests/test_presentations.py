import json
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from importlib import resources
from pathlib import Path
from types import MappingProxyType

import pytest

from meyersig import exact, matrix, presentations, selftest, symplectic
from meyersig.cocycle import tau_sp
from meyersig.errors import InfiniteOrderError, ParseError
from meyersig.exact import _sign, kernel_basis, lattice_order
from meyersig.fibered import hyperelliptic_twist_value
from meyersig.presentations import (
    UNBOUNDED,
    ClassOrder,
    Presentation,
    Word,
    _exponent_vector,
    class_order,
    cochain_c,
    dump_presentation,
    evaluate_word,
    format_word,
    hyperelliptic,
    load_presentation,
    parse_word,
    shipped_meyer_function,
    shipped_presentation,
    synthesize_meyer,
)
from meyersig.selftest import chain_with_s, random_word
from meyersig.symplectic import (
    SymplecticMatrix,
    _generating_classes,
    random_symplectic,
    transvection,
)
from meyersig.twist import _minor_sign, _twist, _twist_solve, _twist_step
from test_exact import _rref_kernel

S_MAT = SymplecticMatrix([[0, -1], [1, 0]])
U_MAT = SymplecticMatrix([[1, 1], [0, 1]])


# ---------------------------------------------------------------------------
# words


def test_word_construction_and_validation():
    w = Word([(0, 1), (1, -1)])
    assert len(w) == 2
    assert list(w) == [(0, 1), (1, -1)]
    with pytest.raises(ValueError):
        Word([(0, 2)])
    with pytest.raises(ValueError):
        Word([(-1, 1)])
    # letters are ints, never coerced: no truncation, no strings, no bools
    for bad in ((1.9, 1), (1, 1.0), ("1", "-1"), (True, 1), (0, True)):
        with pytest.raises(ValueError, match="pair of ints"):
            Word([bad])
    assert Word([[0, 1]]).letters == ((0, 1),)


def test_word_algebra():
    w = Word([(0, 1), (1, 1)])
    assert w.inverse() == Word([(1, -1), (0, -1)])
    assert (w * w.inverse()).free_reduce() == Word()
    assert w**3 == Word([(0, 1), (1, 1)] * 3)
    assert w**-1 == w.inverse()
    assert w**0 == Word()


# Run in a child whose address space is capped at 256 MiB, so that a power
# that builds its 10**8 letters before the length check fails with
# MemoryError; the traced peak shows that no letter was built.
_POWER_CHILD = """
import resource, time, tracemalloc
resource.setrlimit(resource.RLIMIT_AS, (2**28, 2**28))
from meyersig.presentations import Word
a = Word([(0, 1)])
tracemalloc.start()
start = time.perf_counter()
try:
    a ** 10**8
    print("returned")
except Exception as exc:
    print(type(exc).__name__, exc, time.perf_counter() - start < 0.1, tracemalloc.get_traced_memory()[1] < 10**5)
"""


def test_word_products_and_powers_are_capped():
    a = Word([(0, 1)])
    half = Word([(0, 1), (1, -1)] * 2500)
    for build in (lambda: a**20000, lambda: a**-20000, lambda: half * half * a, lambda: a * (half**2)):
        with pytest.raises(ValueError, match="word is too long"):
            build()
    assert len(half * half) == len(half**2) == len(a**-10_000) == 10_000
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run(
        [sys.executable, "-c", _POWER_CHILD], capture_output=True, text=True, env=env, timeout=60
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "ValueError word is too long: meyersig caps words at 10000 letters True True\n"


def test_word_built_from_letters_is_capped():
    with pytest.raises(ValueError, match="word is too long"):
        Word([(0, 1)] * 10_001)
    assert len(Word([(0, 1)] * 10_000)) == 10_000


def test_free_reduce_nested():
    # a b b^-1 a^-1 a -> a
    w = Word([(0, 1), (1, 1), (1, -1), (0, -1), (0, 1)])
    assert w.free_reduce() == Word([(0, 1)])


def test_parse_word_forms():
    names = ("a", "b")
    assert parse_word("a b A", names) == Word([(0, 1), (1, 1), (0, -1)])
    assert parse_word("a^-1 b^2 a^-3", names) == Word(
        [(0, -1), (1, 1), (1, 1), (0, -1), (0, -1), (0, -1)]
    )
    assert parse_word("", names) == Word()
    assert parse_word("  \n ", names) == Word()


def test_parse_word_appends_the_token_tables_own_letters():
    """A one-letter token's letter is the table's tuple itself, so the
    words of one table share their letters; a power repeats one tuple."""
    names = ("a", "b")
    table = presentations._token_table(names)
    word = parse_word("a b^-1 A a b", names, table)
    expected = [table["a"], table["b^-1"], table["A"], table["a"], table["b"]]
    assert all(got is want for got, want in zip(word.letters, expected, strict=True))
    letters = parse_word("a^3", names, table).letters
    assert letters == ((0, 1),) * 3 and letters[0] is letters[1] is letters[2]


def test_parse_word_multichar_names():
    names = ("c1", "c2")
    assert parse_word("c1 c2^-1", names) == Word([(0, 1), (1, -1)])
    with pytest.raises(ParseError, match="unknown generator"):
        parse_word("C1", names)  # uppercase shorthand is single-letter only


def test_parse_word_errors():
    with pytest.raises(ParseError, match="unknown generator 'x'"):
        parse_word("a x", ("a", "b"))
    with pytest.raises(ParseError, match="exponent"):
        parse_word("a^z", ("a",))
    with pytest.raises(ParseError, match="zero exponent"):
        parse_word("a^0", ("a",))
    for power in ("1_0", "\uff12", "2.0"):
        with pytest.raises(ParseError, match="bad exponent"):
            parse_word(f"a^{power}", ("a",))
    for text in ("a^", "a^ b"):  # a caret with nothing after it is no power 1
        with pytest.raises(ParseError, match="bad exponent '' in token 0: 'a\\^'"):
            parse_word(text, ("a", "b"))


@pytest.mark.parametrize("text", ["a^1000000000000", "a^-6000 b^6000"])
def test_parse_word_cap_checked_before_expansion(text):
    with pytest.raises(ValueError, match="caps words") as info:
        parse_word(text, ("a", "b"))
    assert not isinstance(info.value, ParseError)


def _reference_parse_word(text, generator_names):
    """parse_word as it stood before the token table: every token parsed
    where it stands, and the letters checked again by Word."""
    index = {name: i for i, name in enumerate(generator_names)}
    letters = []
    length = 0
    for pos, token in enumerate(text.split()):
        name, caret, power_text = token.partition("^")
        if caret:
            try:
                power = presentations.parse_int(power_text)
            except ParseError:
                raise ParseError(f"bad exponent {power_text!r} in token {pos}: {token!r}") from None
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
        presentations.check_word_length(length)
        sign = 1 if power > 0 else -1
        letters.extend([(i, sign)] * abs(power))
    return Word(letters)


def _outcome(parse, *args):
    """What a parse gives: its Word, or the type and message it raises."""
    try:
        return parse(*args)
    except ValueError as exc:
        return type(exc), str(exc)


WORD_NAMES = ("a", "b", "c1", "xy")
GOOD_TOKENS = ("a", "b", "c1", "xy", "A", "B", "a^-1", "c1^-1", "b^+2", "xy^3", "A^2", "B^-2", "c1^+001", "a^-12")
BAD_TOKENS = ("z", "C1", "a^0", "b^-0", "c1^z", "a^", "xy^1.5", "Z^2", "a^1_0", "AB")


def test_parse_word_against_the_reference_parser():
    """Seeded texts of names, name^-1, name^+2, name^k and the uppercase
    shorthand give the reference parser's Word, through a table of the
    call's own, through one table shared by every text (as the relators of
    one load share it), and through Presentation.word; a bad token after
    repeated good ones gives the reference's message and position.  No
    parse writes to the shared table or to the presentation's."""
    rng = random.Random(3402)
    shared = presentations._token_table(WORD_NAMES)
    p = Presentation(1, WORD_NAMES, (U_MAT,) * len(WORD_NAMES), ())
    fixed = dict(shared)
    for _ in range(300):
        tokens = [rng.choice(GOOD_TOKENS) for _ in range(rng.randint(0, 12))]
        text = rng.choice((" ", "  ", "\t", "\n")).join(tokens)
        expected = _reference_parse_word(text, WORD_NAMES)
        assert parse_word(text, WORD_NAMES) == expected, text
        assert parse_word(text, list(WORD_NAMES), shared) == expected, text
        assert p.word(text) == expected
        if tokens:
            bad = tokens + tokens[: rng.randint(0, len(tokens))]
            bad.insert(rng.randint(len(tokens), len(bad)), rng.choice(BAD_TOKENS))
            text = " ".join(bad)
            expected = _outcome(_reference_parse_word, text, WORD_NAMES)
            assert expected[0] is ParseError, expected
            assert _outcome(parse_word, text, WORD_NAMES) == expected
            assert _outcome(parse_word, text, WORD_NAMES, shared) == expected
            assert _outcome(p.word, text) == expected
    assert shared == fixed == presentations._token_table(WORD_NAMES)
    assert p._tokens == fixed


def test_parse_word_keeps_the_precedence_of_the_cap_and_bad_tokens():
    """A token past the cap wins over a bad token after it, and a bad
    token wins over a cap passed after it, with or without a table that
    has seen the tokens; a power past the cap raises before its letters."""
    shared = presentations._token_table(("a", "b"))
    parse_word("a^9999 b", ("a", "b"), shared)
    for text in ("a^9999 b b z", "b " * 10_001 + "z", "a^9999 b z a^2", "a^0 a^20000", "a^20000 a^0"):
        expected = _outcome(_reference_parse_word, text, ("a", "b"))
        assert _outcome(parse_word, text, ("a", "b")) == expected
        assert _outcome(parse_word, text, ("a", "b"), shared) == expected
    assert _outcome(parse_word, "a^9999 b b z", ("a", "b"))[1].startswith("word is too long")
    assert _outcome(parse_word, "a^9999 z b b", ("a", "b"))[1] == "unknown generator 'z' in token 1"


# The one-character tokens that the uppercase rule before the fixed table
# read as the inverse of their lowercase, none of them the upper case of
# that lowercase: KELVIN SIGN, OHM SIGN, ANGSTROM SIGN, capital sharp s,
# capital theta symbol and capital I with dot above (whose lowercase has
# two characters).
CHANGED_SHORTHANDS = {"\u212a": "k", "\u2126": "ω", "\u212b": "å", "\u1e9e": "ß", "\u03f4": "θ", "\u0130": "i\u0307"}
TOKEN_SUFFIXES = ("", "^-1", "^1", "^+1", "^2", "^+2", "^-3", "^+001", "^-01", "^12")
BAD_SUFFIXES = ("^0", "^-0", "^", "^z", "^1.5", "^1_0", "^\u0663", "^^2", "^ 2")
ONE_LETTER_NAMES = tuple("abkstxABZ") + ("ω", "å", "ǅ", "ǆ", "Ǆ", "ß", "θ", "ı", "ſ", "µ", "i\u0307")
LONGER_NAMES = ("c1", "C1", "xy", "Ab", "ωa", "a_1")


def _token_forms(names):
    """Tokens over names: each name, its case variants and an unknown
    name, each bare and with every good and bad exponent suffix."""
    stems = {""}
    for name in names:
        stems.update((name, name.upper(), name.lower(), name.title(), name.casefold(), name + "z"))
    return sorted(stem + suffix for stem in stems for suffix in TOKEN_SUFFIXES + BAD_SUFFIXES)


def _table_mismatches(names, table):
    """The tokens of _token_forms(names) that parse_word reads through
    ``table`` otherwise than the rule before the table, alone and as the
    second token of a text, word or error message and position alike."""
    mismatches = []
    for token in _token_forms(names):
        for text in (token, f"{names[0]} {token}"):
            if _outcome(parse_word, text, names, table) != _outcome(_reference_parse_word, text, names):
                mismatches.append(token)
                break
    return mismatches


def _name_sets():
    """Seeded sets of ASCII, non-ASCII and longer names, then sets where
    one name is another's shorthand, shorthands with no case pair, and a
    name with a caret, which a loader reads relators over before the
    Presentation refuses it."""
    rng = random.Random(3503)
    sets = []
    for _ in range(12):
        names = rng.sample(ONE_LETTER_NAMES, rng.randint(1, 6)) + rng.sample(LONGER_NAMES, rng.randint(0, 2))
        rng.shuffle(names)
        sets.append(tuple(names))
    return sets + [("a", "A"), ("A", "a", "b"), ("ω", "å", "ǅ"), ("c1", "xy"), ("ǅ", "ǆ", "Ǆ"), ("ı", "ſ", "µ"), ("b", "a^2", "a^-1", "a")]


@pytest.mark.parametrize("names", _name_sets(), ids=",".join)
def test_token_table_reads_every_token_as_the_rule_before_it(names):
    """Every token form over names, through the fixed table behind a
    read-only proxy, gives the Word, or the message and position, of the
    name rule the parser had before the table (the name positions, then an
    uppercase one-character token for its lowercase), and the table is
    the one the names give."""
    table = presentations._token_table(names)
    assert _table_mismatches(names, MappingProxyType(table)) == []
    assert table == presentations._token_table(names)


def test_a_table_without_shorthands_fails_the_comparison():
    """The comparison catches a table that drops the shorthand entries."""
    names = ("a", "b", "ω", "c1")
    planted = {
        token: letter for token, letter in presentations._token_table(names).items()
        if token in names or token.endswith("^-1")
    }
    mismatches = _table_mismatches(names, planted)
    assert {"A", "B^2", "Ω^-1"} <= set(mismatches), mismatches
    assert not any(token.startswith(("a", "b", "c1", "ω")) for token in mismatches), mismatches


def test_exactly_six_one_character_tokens_change_their_reading():
    """Over all of Unicode, a one-character token c over the name
    c.lower() parses as it did before the table except for six tokens
    that the rule then read as a shorthand though they are not the upper
    case of their lowercase; each of those is now an unknown generator."""
    changed = {}
    for c in map(chr, range(sys.maxunicode + 1)):
        names = (c.lower(),)
        if names != (c,) and _outcome(parse_word, c, names) != _outcome(_reference_parse_word, c, names):
            changed[c] = c.lower()
    assert changed == CHANGED_SHORTHANDS
    for token, name in CHANGED_SHORTHANDS.items():
        assert _reference_parse_word(f"x {token}^2", ("x", name)) == Word([(0, 1), (1, -1), (1, -1)])
        expected = (ParseError, f"unknown generator {token!r} in token 1")
        assert _outcome(parse_word, f"x {token}^2", ("x", name)) == expected
        assert _outcome(Presentation(1, ("x", name), (U_MAT, U_MAT), ()).word, f"x {token}^2") == expected


# Run in a child whose address space is capped at 256 MiB: a relator
# token c1^100000000 that built its letters before the cap check would
# fail with MemoryError; the traced peak shows that none was built.
_RELATOR_POWER_CHILD = """
import json, resource, sys, time, tracemalloc
resource.setrlimit(resource.RLIMIT_AS, (2**28, 2**28))
from meyersig.presentations import hyperelliptic, load_presentation
data = hyperelliptic(2)
data["relators"].insert(3, "c1 c2 c1 c1^100000000 c3")
tracemalloc.start()
start = time.perf_counter()
try:
    load_presentation(data)
    print("returned")
except Exception as exc:
    print(type(exc).__name__, exc, time.perf_counter() - start < 0.1, tracemalloc.get_traced_memory()[1] < 10**5)
"""


def test_a_relator_power_past_the_cap_is_refused_before_its_letters():
    data = hyperelliptic(2)
    data["relators"].insert(3, "c1 c2 c1^20000 c3^0")
    with pytest.raises(ValueError, match="^word is too long: meyersig caps words at 10000 letters$") as info:
        load_presentation(data)
    assert not isinstance(info.value, ParseError)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run(
        [sys.executable, "-c", _RELATOR_POWER_CHILD], capture_output=True, text=True, env=env, timeout=60
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "ValueError word is too long: meyersig caps words at 10000 letters True True\n"


def test_an_empty_relator_counts_as_one_letter_toward_the_cap():
    """The relators of a load count as one word, an empty one as one
    letter: 10 000 letters with the empties load, one more empty relator
    is refused with the cap's ValueError."""
    data = presentations._SHIPPED_DATA[1]()
    letters = sum(len(text.split()) for text in data["relators"])
    data["relators"] += [""] * (presentations.MAX_WORD_LETTERS - letters)
    p = load_presentation(data)
    assert len(p.relators) == presentations.MAX_WORD_LETTERS - letters + 2
    assert class_order(p) == ClassOrder(3, (2, 2))
    data["relators"].append("")
    with pytest.raises(ValueError, match="^word is too long: meyersig caps words at 10000 letters$") as info:
        load_presentation(data)
    assert not isinstance(info.value, ParseError)


def test_word_format_round_trip(rng, sl2z, genus2):
    for p in (sl2z, genus2):
        for _ in range(120):
            w = random_word(p, rng)
            text = format_word(w, p.generator_names)
            assert parse_word(text, p.generator_names) == w
            assert format_word(parse_word(text, p.generator_names), p.generator_names) == text
    with pytest.raises(ValueError, match="^letter index 2 out of range$"):
        format_word(Word([(0, 1), (2, -1)]), sl2z.generator_names)


# ---------------------------------------------------------------------------
# shipped data

DATA_FILES = {1: "sl2z.json", 2: "genus2.json"}  # the -p examples in ``data``


def test_shipped_files_round_trip_bit_exactly():
    for name in ("sl2z.json", "genus2.json"):
        text = resources.files("meyersig.data").joinpath(name).read_text()
        assert dump_presentation(load_presentation(json.loads(text))) == text


def test_shipped_data_files_are_the_presentations():
    # a stale or missing data file fails here, not in a packaged install
    data = resources.files("meyersig.data")
    shipped = {f.name for f in data.iterdir() if f.name.endswith(".json")}
    assert shipped == set(DATA_FILES.values())


@pytest.mark.parametrize("g", [1, 2])
def test_shipped_files_hold_the_in_code_presentations(g):
    """The shipped presentations are built from Python data, genus 2 by
    hyperelliptic(2), and the files (the ``-p`` examples) cannot drift
    from it: the same generators and relator texts, and each file matrix
    the builder's rows."""
    text = resources.files("meyersig.data").joinpath(DATA_FILES[g]).read_text()
    assert dump_presentation(shipped_presentation(g)) == text
    data = json.loads(text)
    if g == 1:
        assert data == presentations._SHIPPED_DATA[1]()
    else:
        built = hyperelliptic(2)
        assert data["generators"] == built["generators"]
        assert data["relators"] == built["relators"]
        assert data["matrices"].keys() == built["matrices"].keys()
        for name, rows in built["matrices"].items():
            assert matrix.parse_matrix(data["matrices"][name]) == tuple(map(tuple, rows)), name
    assert shipped_presentation(g) == load_presentation(data)


def test_shipped_sl2z_content(sl2z):
    assert sl2z.genus == 1
    assert sl2z.generator_names == ("a", "b")
    assert evaluate_word(sl2z.word("a"), sl2z) == U_MAT
    assert evaluate_word(sl2z.word("b"), sl2z) == SymplecticMatrix([[1, 0], [-1, 1]])


def test_shipped_genus2_content(genus2):
    assert genus2.genus == 2
    assert genus2.generator_names == ("c1", "c2", "c3", "c4", "c5")
    # chain pattern: adjacent twists braid, distant ones commute
    iota = genus2.word("c1 c2 c3 c4 c5 c5 c4 c3 c2 c1")
    minus = SymplecticMatrix([[-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]])
    assert evaluate_word(iota, genus2) == minus


def test_relators_evaluate_to_identity(sl2z, genus2):
    for p in (sl2z, genus2):
        ident = SymplecticMatrix.identity(p.genus)
        for rel in p.relators:
            assert evaluate_word(rel, p) == ident


def test_presentation_rejects_bad_relator():
    with pytest.raises(ValueError, match="does not map to the identity"):
        Presentation(1, ("a",), (U_MAT,), (Word([(0, 1)]),))


def test_presentation_from_dict_errors():
    good = {
        "genus": 1,
        "generators": ["a"],
        "matrices": {"a": "1,1;0,1"},
        "relators": [],
    }
    load_presentation(good)
    for breakage in (
        lambda d: d.pop("genus"),
        lambda d: d.update(matrices={}),
        lambda d: d.update(matrices={"a": "2,0;0,2"}),
        lambda d: d.update(relators=["q"]),
        lambda d: d.update(genus=1.0),
        lambda d: d.update(genus=True),
        lambda d: d.update(relators=5),
        lambda d: d.update(relators=[5]),
        lambda d: d.update(generators="a"),
        lambda d: d.update(matrices=5),
        lambda d: d.update(matrices=["a"]),
    ):
        data = json.loads(json.dumps(good))
        breakage(data)
        with pytest.raises(ParseError):
            load_presentation(data)


def test_presentation_needs_one_matrix_of_its_genus_per_name(sl2z):
    t = sl2z.matrices[0]
    with pytest.raises(ValueError, match="^need exactly one matrix per generator$"):
        Presentation(1, ("a", "b"), (t,), ())
    with pytest.raises(ValueError, match="^need exactly one matrix per generator$"):
        Presentation(1, ("a",), (t, t), ())
    with pytest.raises(ValueError, match="^matrix for 'b' has genus 2, not 1$"):
        Presentation(1, ("a", "b"), (t, SymplecticMatrix.identity(2)), ())


@pytest.mark.parametrize("source", ["[1, 2]", '"genus"', "null"])
def test_presentation_json_must_be_an_object(tmp_path, source):
    path = tmp_path / "p.json"
    path.write_text(source)
    with pytest.raises(ParseError, match="^presentation JSON must be an object, got "):
        load_presentation(path)


# ---------------------------------------------------------------------------
# evaluation and the 1-cochain


def test_evaluate_word_examples(sl2z):
    assert evaluate_word(Word(), sl2z) == SymplecticMatrix.identity(1)
    assert evaluate_word(sl2z.word("a"), sl2z) == U_MAT
    with pytest.raises(ValueError, match="out of range"):
        evaluate_word(Word([(5, 1)]), sl2z)


@pytest.mark.parametrize("letter", [(2, 1), (2, -1), (7, 1)])
def test_out_of_range_letters_are_refused_by_every_walk(sl2z, letter):
    """The walk checks a letter by its lookup among the presentation's
    twist entries: the cochain, a synthesized Meyer function and the
    relator walk of a new presentation all refuse a letter past the
    generators, after in-range letters and with the walk's own message."""
    word = Word([(0, 1), (1, -1), letter])
    with pytest.raises(ValueError, match="out of range for 2 generators"):
        cochain_c(word, sl2z)
    with pytest.raises(ValueError, match="out of range for 2 generators"):
        sl2z.meyer_function(word)
    relator = Word([(0, 1), (0, -1), letter])
    with pytest.raises(ValueError, match="out of range for 2 generators"):
        Presentation(1, sl2z.generator_names, sl2z.matrices, (relator,))
    non_twist = Presentation(1, ("s", "u"), (S_MAT, U_MAT), ())
    assert non_twist._twists[0, 1] is None
    with pytest.raises(ValueError, match="out of range for 2 generators"):
        cochain_c(Word([(0, 1), letter]), non_twist)


@pytest.mark.parametrize("g", [1, 2, 3])
def test_evaluate_word_is_the_left_to_right_product(rng, g):
    """evaluate_word against the plain product of SymplecticMatrix factors,
    on words with inverse letters (and the empty word) over twist powers
    mixed with generators of rank(M - I) > 1, which take the full product."""
    mats = [transvection(v) ** (1 + k % 3) for k, v in enumerate(_generating_classes(g))]
    mats += [random_symplectic(g, 6, rng.random()) for _ in range(3)]
    mats.append(SymplecticMatrix([[-int(i == j) for j in range(2 * g)] for i in range(2 * g)]))
    p = Presentation(g, tuple(f"x{k}" for k in range(len(mats))), tuple(mats), ())
    twist_kinds = {p._twists[i, 1] is None for i in range(len(mats))}
    assert twist_kinds == {True, False}
    assert evaluate_word(Word(), p) == SymplecticMatrix.identity(g)
    signs = set()
    for _ in range(80):
        word = random_word(p, rng, 20)
        expected = SymplecticMatrix.identity(g)
        for i, s in word.letters:
            expected = expected * (mats[i] if s > 0 else mats[i].inverse())
            signs.add(s)
        assert evaluate_word(word, p) == expected
    assert signs == {1, -1}


def test_relator_values_are_the_cochain(sl2z, genus2):
    for p in (sl2z, genus2, _mismatch_presentation(with_combined=True)):
        assert p._relator_values == tuple(cochain_c(r, p) for r in p.relators)
    assert sl2z._relator_values == (0, 8)


def test_empty_relators_leave_the_class_order_and_closedness_unchanged(sl2z):
    """An empty relator is the equation 0 = 0: interleaving empty relators
    changes neither the class order nor which words abelianize to zero."""
    padded = Presentation(1, sl2z.generator_names, sl2z.matrices, (Word(),) + sl2z.relators[:1] + (Word(),) * 3 + sl2z.relators[1:])
    assert class_order(padded) == class_order(sl2z) == ClassOrder(3, (2, 2))
    for text in ("", "a", "a b^-1", "a b a b", "a^12", "a^6 b^6", "a b^11"):
        w = sl2z.word(text)
        assert presentations._abelianizes_to_zero(padded, [w]) == presentations._abelianizes_to_zero(sl2z, [w])
    assert [presentations._abelianizes_to_zero(sl2z, [sl2z.word(t)]) for t in ("a b^-1", "a^12", "a")] == [True, True, False]
    assert class_order(Presentation(1, ("a",), (U_MAT,), (Word(),) * 5)) == ClassOrder(1, (0,))


def test_relators_walked_once_and_class_order_walks_none(genus2, count_calls):
    data = json.loads(resources.files("meyersig.data").joinpath("genus2.json").read_text())
    walk = count_calls(presentations, "_walk")
    cochain = count_calls(presentations, "cochain_c")
    solve = count_calls(exact, "lattice_order")
    p = load_presentation(data)
    assert (walk.call_count, cochain.call_count) == (len(p.relators), 0)
    walk.reset_mock()
    assert class_order(p) == ClassOrder(5, (3,) * 5)
    assert (walk.call_count, cochain.call_count) == (0, 0)
    # one solve per object, read again by class_order and the Meyer function
    assert class_order(p) is class_order(p) is p.meyer_function.order
    assert solve.call_count == 1
    # a built presentation is not walked again by equality or hashing
    assert p == genus2 and hash(p) == hash(genus2)
    assert walk.call_count == 0


def test_cochain_single_letter_vanishes(sl2z, genus2):
    for p in (sl2z, genus2):
        for i in range(p.generator_count):
            assert cochain_c(Word([(i, 1)]), p) == 0
            assert cochain_c(Word([(i, -1)]), p) == 0
    assert cochain_c(Word(), sl2z) == 0


def test_cochain_shipped_relator_values(sl2z, genus2):
    braid, center = sl2z.relators
    assert cochain_c(braid, sl2z) == 0
    assert cochain_c(center, sl2z) == 8
    chain6 = genus2.word(" ".join(["c1 c2 c3 c4 c5"] * 6))
    assert cochain_c(chain6, genus2) == 18
    iota_sq = genus2.word(" ".join(["c1 c2 c3 c4 c5 c5 c4 c3 c2 c1"] * 2))
    assert cochain_c(iota_sq, genus2) == 12


def test_cochain_coboundary_identity(rng, sl2z, genus2):
    for p in (sl2z, genus2):
        for _ in range(80):
            x = random_word(p, rng)
            y = random_word(p, rng)
            lhs = cochain_c(x * y, p)
            rhs = cochain_c(x, p) + cochain_c(y, p) + tau_sp(
                evaluate_word(x, p), evaluate_word(y, p)
            )
            assert lhs == rhs


def test_cochain_class_function(rng, sl2z, genus2):
    for p in (sl2z, genus2):
        for _ in range(80):
            x = random_word(p, rng)
            y = random_word(p, rng)
            assert cochain_c(y * x * y.inverse(), p) == cochain_c(x, p)


def test_exponent_sums():
    names = ("a", "b")
    assert _exponent_vector([parse_word("a a A", names)], 2) == [1, 0]
    assert _exponent_vector([Word()], 2) == [0, 0]
    braid = parse_word("a b a b^-1 a^-1 b^-1", names)
    assert _exponent_vector([braid], 2) == [1, -1]


# ---------------------------------------------------------------------------
# class order and synthesis


def test_class_order_shipped(sl2z, genus2):
    assert class_order(sl2z) == ClassOrder(3, (2, 2))
    assert class_order(genus2) == ClassOrder(5, (3,) * 5)


def test_class_order_braid_only():
    names = ("a", "b")
    mats = (U_MAT, SymplecticMatrix([[1, 0], [-1, 1]]))
    braid = parse_word("a b a b^-1 a^-1 b^-1", names)
    p = Presentation(1, names, mats, (braid,))
    assert class_order(p) == ClassOrder(1, (0, 0))


def test_class_order_no_relators():
    p = Presentation(1, ("a",), (U_MAT,), ())
    assert class_order(p) == ClassOrder(1, (0,))


_MISMATCH = {
    # a -> S (order 4), b -> U: c(a^4) = -4 and c((ab)^6) = -2 give the
    # ratios -1 and -1/6, so no single coefficient works; the per-generator
    # coefficients (-3, 2) do.
    "names": ("a", "b"),
    "mats": (S_MAT, U_MAT),
}


def _mismatch_presentation(with_combined=False):
    names, mats = _MISMATCH["names"], _MISMATCH["mats"]
    r1 = parse_word("a a a a", names)
    r2 = parse_word(" ".join(["a b"] * 6), names)
    rels = [r1, r2]
    if with_combined:
        # a^12 (ab)^-6: zero total exponent but nonzero cochain value
        rels.append(parse_word(" ".join(["a"] * 12) + " " + " ".join(["b^-1 a^-1"] * 6), names))
    return Presentation(1, names, mats, tuple(rels))


def _single_coefficient_order(p):
    # the one-coefficient ansatz n*c(r) = m*(total exponent of r)
    column = [sum(s for _, s in r.letters) for r in p.relators]
    return lattice_order([column], [cochain_c(r, p) for r in p.relators])


def test_class_order_artin_mismatch_is_unbounded():
    # one coefficient on the total exponent has no solution here; the
    # per-generator lattice does, so class_order must not take that ansatz
    p = _mismatch_presentation()
    assert _single_coefficient_order(p) is None
    assert class_order(p) == ClassOrder(3, (-3, 2))


def test_class_order_alpha_zero_c_nonzero_is_unbounded():
    # a relator with zero exponent but nonzero cochain value admits no
    # coefficient; a^12 (ab)^-6 is such a relator for the one-coefficient
    # ansatz only, its per-generator exponents (6, -6) being nonzero
    assert lattice_order([[0], [0]], [1]) is None
    p = _mismatch_presentation(with_combined=True)
    assert cochain_c(p.relators[2], p) == -10
    assert _exponent_vector([p.relators[2]], 2) == [6, -6]
    assert _single_coefficient_order(p) is None
    assert class_order(p) == ClassOrder(3, (-3, 2))


def test_twist_letters_are_detected_once_per_presentation(sl2z, genus2):
    for p in (sl2z, genus2):
        for i, m in enumerate(p.matrices):
            v, lam = p._twists[i, 1][:2]
            assert p._twists[i, 1] == _twist(v, lam)
            assert p._twists[i, -1] == _twist(v, -lam)
            assert m == transvection(v) ** lam
    # a -> S is no twist power, so its letters fall back to tau_sp
    p = _mismatch_presentation()
    assert p._twists[0, 1] is p._twists[0, -1] is None
    assert p._twists[1, 1][:2] == ((1, 0), 1)


def test_cochain_is_the_tau_sum_over_prefixes(rng, sl2z, genus2, count_calls):
    """cochain_c against tau_sp summed along the prefixes, on words with
    twist letters (at genus 1 to 4) and, in the mismatch presentation, the
    non-twist S.  The twist letters where det(P - I) and det(PB - I) both
    vanish and P != I, found here by a kernel, go to the minor-sign rule
    at genus 1 and 2 and to the Gauss-Jordan solve above, and no others."""
    rule = count_calls(presentations, "_minor_sign")
    solve = count_calls(presentations, "_twist_solve")
    gauss_jordan = count_calls(exact, "affine_point")
    fallbacks = twist_steps = 0
    twists = [_twist_presentation(g) for g in (3, 4)]
    for p in (sl2z, genus2, _mismatch_presentation(), *twists):
        for _ in range(60):
            word = random_word(p, rng, 24)
            identity = SymplecticMatrix.identity(p.genus)
            prefix, expected, expected_calls = identity, 0, 0
            singular = bool(kernel_basis(_minus_identity(prefix)))
            for i, s in word.letters:
                step = p.matrices[i] if s > 0 else p.matrices[i].inverse()
                new = prefix * step
                new_singular = bool(kernel_basis(_minus_identity(new)))
                expected += tau_sp(prefix, step)
                if p._twists[i, s] is not None:
                    twist_steps += 1
                    expected_calls += singular and new_singular and prefix != identity
                prefix, singular = new, new_singular
            before = rule.call_count, solve.call_count, gauss_jordan.call_count
            assert cochain_c(word, p) == expected
            straight = expected_calls if p.genus <= 2 else 0
            assert rule.call_count - before[0] == straight
            assert solve.call_count - before[1] == gauss_jordan.call_count - before[2] == expected_calls - straight
            fallbacks += expected_calls
    assert 0 < fallbacks < twist_steps


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_walk_skips_determinants_below_the_rank_bound(rng, g, count_calls, line_runs):
    """The rank bound is exact on twist-only words, so a twist letter
    makes a determinant exactly when rank(P - I) >= 2g - 1, and fewer
    than 2g twist letters make none.  In the genus-1 mismatch presentation
    every non-twist letter (S) makes one, and the bound it leaves is
    exact too.  At 2g <= 4 a twist letter's determinant is the
    straight-line walk's own (a run of its sign line), and
    exact.determinant runs only at non-twist letters; above, both are
    exact.determinant.  Values against tau_sp, ranks from a kernel."""
    determinant = count_calls(exact, "determinant")
    inline = [line_runs(walk, "new_d = 1 if det > 0") for walk in (presentations._walk_2, presentations._walk_4)]

    def counts():
        return determinant.call_count, sum(map(len, inline))

    n = 2 * g
    p = _twist_presentation(g)
    for _ in range(40):
        word = random_word(p, rng, n - 1)
        before = counts()
        assert cochain_c(word, p) == _tau_prefix_sum(word, p)
        assert counts() == before
    runs = 0
    for p in (_twist_presentation(g), _mismatch_presentation()):
        n = 2 * p.genus
        for _ in range(40):
            word = random_word(p, rng, 4 * n)
            prefix, calls, straight = SymplecticMatrix.identity(p.genus), 0, 0
            for i, s in word.letters:
                rank = n - len(kernel_basis(_minus_identity(prefix)))
                if p._twists[i, s] is None:
                    calls += 1
                elif rank >= n - 1:
                    straight += n <= 4
                    calls += n > 4
                prefix = prefix * (p.matrices[i] if s > 0 else p.matrices[i].inverse())
            before = counts()
            assert cochain_c(word, p) == _tau_prefix_sum(word, p)
            assert (counts()[0] - before[0], counts()[1] - before[1]) == (calls, straight)
            runs += calls + straight
    assert runs


def test_loading_the_shipped_files_counts_determinants_and_solves(count_calls, line_runs):
    """Building a shipped presentation walks its relators: genus2.json and
    hyperelliptic(2) each make 55 determinants and 56 singular twist
    steps, sl2z.json 16 and 2, each taken by the minor-sign rule with no
    Gauss-Jordan solve.  The determinants are the straight-line walks'
    own (runs of their sign line), so exact.determinant runs 0 times."""
    determinant = count_calls(exact, "determinant")
    inline = [line_runs(walk, "new_d = 1 if det > 0") for walk in (presentations._walk_2, presentations._walk_4)]
    solve = count_calls(presentations, "_minor_sign")
    gauss_jordan = count_calls(exact, "affine_point")
    files = resources.files("meyersig.data")
    for data, dets, solves in (
        (json.loads(files.joinpath("sl2z.json").read_text()), 16, 2),
        (json.loads(files.joinpath("genus2.json").read_text()), 55, 56),
        (hyperelliptic(2), 55, 56),
    ):
        before = sum(map(len, inline)), solve.call_count
        p = load_presentation(data)
        assert (sum(map(len, inline)) - before[0], solve.call_count - before[1]) == (dets, solves)
    assert determinant.call_count == gauss_jordan.call_count == 0
    # a repeat load of a file's text returns the object built, walking and solving nothing
    with resources.as_file(files.joinpath("genus2.json")) as path:
        p = load_presentation(path)
        class_order(p)
        walk = count_calls(presentations, "_walk")
        lattice = count_calls(exact, "lattice_order")
        counted = (walk, determinant, solve, lattice)
        before = [c.call_count for c in counted], sum(map(len, inline))
        assert load_presentation(path) is p
    assert class_order(p) == ClassOrder(5, (3,) * 5)
    assert ([c.call_count for c in counted], sum(map(len, inline))) == before


def _not_the_identity(data):
    data["relators"][0] = "c1 c2 c1 c2^-1 c1^-1 c1^-1"


def _repeated_name(data):
    data["generators"][1] = "c1"
    data["relators"] = []


def _unknown_generator(data):
    data["relators"][-1] += " c9"


@pytest.mark.parametrize("fault, message", [
    (_not_the_identity, "relator 0 ('c1 c2 c1 c2^-1 c1^-1 c1^-1') does not map to the identity"),
    (_repeated_name, "generator names must be distinct"),
    (_unknown_generator, "unknown generator 'c9' in token 22"),
])
def test_a_failing_load_keeps_nothing(fault, message):
    """A data load that raises leaves the memo as it was, so loading the
    same data again raises the same ParseError."""
    load_presentation(DATA_DIR / "genus2.json")
    info = presentations._load_text.cache_info()
    for _ in range(2):
        data = hyperelliptic(2)
        fault(data)
        with pytest.raises(ParseError) as caught:
            load_presentation(data)
        assert str(caught.value) == message
        assert presentations._load_text.cache_info() == info


def test_the_memo_keeps_the_last_walked_max_presentations(tmp_path):
    """Loading more distinct file texts than the bound (16) keeps the memo
    at the bound; the least recently loaded goes first, and a load that
    hits counts as a use."""
    def path(k):  # one presentation per k: the generator's name tells them apart
        data = {"genus": 1, "generators": [f"x{k}"], "matrices": {f"x{k}": "1,1;0,1"}, "relators": [f"x{k} x{k}^-1"]}
        file = tmp_path / f"x{k}.json"
        file.write_text(json.dumps(data))
        return file

    bound = presentations._load_text.cache_info().maxsize
    assert bound == 16
    presentations._load_text.cache_clear()
    first = [load_presentation(path(k)) for k in range(bound)]
    assert presentations._load_text.cache_info().currsize == bound
    assert load_presentation(path(0)) is first[0]
    for k in range(bound, bound + 3):
        load_presentation(path(k))
        assert presentations._load_text.cache_info().currsize == bound
    assert load_presentation(path(0)) is first[0]
    again = load_presentation(path(1))
    assert again == first[1] and again is not first[1]
    assert presentations._load_text.cache_info().currsize == bound


def test_a_presentation_built_directly_is_not_memoized(genus2, count_calls):
    """Presentation(...) walks its relators every time; only the loader
    keeps what it built."""
    walk = count_calls(presentations, "_walk")
    info = presentations._load_text.cache_info()
    p = Presentation(genus2.genus, genus2.generator_names, genus2.matrices, genus2.relators)
    q = Presentation(genus2.genus, genus2.generator_names, genus2.matrices, genus2.relators)
    assert p == q == genus2 and p is not q
    assert walk.call_count == 2 * len(genus2.relators)
    assert presentations._load_text.cache_info() == info


DATA_DIR = Path(presentations.__file__).parent / "data"


def _loader_counts(count_calls):
    """Counters on each step of a load after the file is read: decode,
    matrix parse, classification, relator parse, walk and class order."""
    return [
        count_calls(matrix, "_decode_json"), count_calls(matrix, "parse_matrix"),
        count_calls(symplectic, "_classify"), count_calls(presentations, "parse_word"),
        count_calls(presentations, "_walk"), count_calls(exact, "lattice_order"),
    ]


def test_the_same_text_at_another_path_returns_the_kept_object(tmp_path, count_calls):
    """A file whose text a load has already read returns the object built
    from it, whatever its path, with no decode, parse, classification,
    walk or solve."""
    text = (DATA_DIR / "genus2.json").read_bytes()
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    first.write_bytes(text)
    second.write_bytes(text)
    p = load_presentation(first)
    class_order(p)
    counted = _loader_counts(count_calls)
    assert load_presentation(second) is p
    assert load_presentation(str(first)) is p
    assert class_order(p) == ClassOrder(5, (3,) * 5)
    assert [c.call_count for c in counted] == [0] * 6


def _not_utf8(path):
    path.write_bytes(b'{"genus": \xff}')


def _bad_json(path):
    path.write_text('{"genus": }')


def _not_an_object(path):
    path.write_text("[1, 2]")


def _edited_genus2(edit):
    def write(path):
        data = json.loads((DATA_DIR / "genus2.json").read_text())
        edit(data)
        path.write_text(json.dumps(data, indent=2))
    return write


@pytest.mark.parametrize("write, message", [
    (_not_utf8, "bad presentation JSON at byte 10: not UTF-8"),
    (_bad_json, "bad presentation JSON at offset 10: Expecting value"),
    (_not_an_object, "presentation JSON must be an object, got list"),
    (_edited_genus2(_unknown_generator), "unknown generator 'c9' in token 22"),
    (_edited_genus2(_not_the_identity), "relator 0 ('c1 c2 c1 c2^-1 c1^-1 c1^-1') does not map to the identity"),
])
def test_a_failing_file_keeps_no_key(tmp_path, write, message):
    """A file whose load raises is kept under no key, so loading it again
    reads it and raises the same ParseError."""
    path = tmp_path / "presentation.json"
    write(path)
    load_presentation(DATA_DIR / "genus2.json")
    size = presentations._load_text.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ParseError) as caught:
            load_presentation(path)
        assert str(caught.value) == message
        assert presentations._load_text.cache_info().currsize == size


def test_a_text_over_the_bound_loads_but_is_not_kept(tmp_path, count_calls):
    """A text taking _TEXT_KEY_MAX bytes is kept, one character more is
    not: it is decoded and built on every load."""
    text = (DATA_DIR / "sl2z.json").read_text()
    at_bound = text + " " * (presentations._TEXT_KEY_MAX - sys.getsizeof(text))
    assert sys.getsizeof(at_bound) == presentations._TEXT_KEY_MAX
    path = tmp_path / "sl2z.json"
    decode, parse, *_ = _loader_counts(count_calls)
    presentations._load_text.cache_clear()
    for padded, kept in ((at_bound, True), (at_bound + " ", False)):
        path.write_text(padded)
        p = load_presentation(path)
        assert p == shipped_presentation(1)
        assert (load_presentation(path) is p) is kept
        assert presentations._load_text.cache_info().currsize == 1
    assert (decode.call_count, parse.call_count) == (3, 3 * p.generator_count)


def test_a_fresh_process_parses_a_repeated_file_once():
    """In a fresh interpreter, two `order -p genus2.json` calls make one
    parse_matrix pass over the file's 5 generators: the second load is a
    text hit."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys\n"
        "from meyersig import cli, presentations\n"
        "calls = []\n"
        "parse = presentations.parse_matrix\n"
        "def counted(text):\n"
        "    calls.append(text)\n"
        "    return parse(text)\n"
        "presentations.parse_matrix = counted\n"
        "codes = [cli.main(['order', '-p', sys.argv[1]]) for _ in range(2)]\n"
        "print(codes, len(calls), file=sys.stderr)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-S", "-c", code, str(src / "meyersig" / "data" / "genus2.json")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "5\n5\n", "[0, 0] 5\n")


def test_loading_the_shipped_files_classifies_each_generator_and_token_once(count_calls):
    """Loading genus2.json recognizes its 5 twists once each and forms no
    A^T J A product; sl2z.json 2 and none; hyperelliptic(g) 2g + 1 and
    none at g = 2, 3; none calls twist_of.  Every relator token is a fixed
    form of the token table, so no token reaches _parse_token, and the
    table each presentation keeps is the fixed one.  A Presentation built
    from matrices recognizes each once too."""
    symplectic_product = count_calls(symplectic, "_is_symplectic")
    recognize = count_calls(symplectic, "_recognize_twist")
    twist_of = count_calls(symplectic, "twist_of")
    parse_token = count_calls(presentations, "_parse_token")
    check_rows = count_calls(matrix, "check_rows")
    data = resources.files("meyersig.data")
    # a genus names hyperelliptic(genus); sl2z.json goes last, for the check below
    for name, gens in (("genus2.json", 5), (2, 5), (3, 7), ("sl2z.json", 2)):
        before = [c.call_count for c in (symplectic_product, recognize, twist_of, parse_token, check_rows)]
        if isinstance(name, int):
            p = load_presentation(hyperelliptic(name))
        else:
            with resources.as_file(data.joinpath(name)) as path:
                p = load_presentation(path)
        after = [c.call_count for c in (symplectic_product, recognize, twist_of, parse_token, check_rows)]
        assert [a - b for a, b in zip(after, before)] == [0, gens, 0, 0, gens], name
        assert p._tokens == presentations._token_table(p.generator_names)
        assert all(p._twists[i, s] is not None for i in range(gens) for s in (1, -1))
    before = recognize.call_count, symplectic_product.call_count
    Presentation(p.genus, p.generator_names, p.matrices, p.relators)
    assert (recognize.call_count - before[0], symplectic_product.call_count - before[1]) == (2, 0)


def test_dumped_presentations_load_with_no_token_parsed(sl2z, genus2, count_calls):
    """format_word writes only fixed forms, so loading what
    dump_presentation wrote, for the shipped presentations and for seeded
    ones over one-letter, non-ASCII and multi-character names, sends no
    token through _parse_token and gives the same presentation."""
    parse_token = count_calls(presentations, "_parse_token")
    rng = random.Random(3501)
    seeded = []
    for g in (1, 2, 3):
        names = rng.sample(("a", "b", "A", "ω", "å", "ǅ", "c1", "xy", "t"), 2 * g + 1)
        mats = tuple(random_symplectic(g, 4, rng.randrange(10**6)) for _ in names)
        p = Presentation(g, tuple(names), mats, ())
        words = [random_word(p, rng, 8) for _ in range(3)]
        seeded.append(Presentation(g, tuple(names), mats, tuple(w * w.inverse() for w in words)))
    for p in (sl2z, genus2, *seeded, _chain_presentation(3), _mismatch_presentation(True)):
        assert load_presentation(json.loads(dump_presentation(p))) == p
    assert parse_token.call_count == 0


def test_walk_on_long_genus2_words_against_tau_prefix_sums(genus2, count_calls, line_runs):
    """cochain_c on 40 seeded genus2.json words of 40-64 letters, the
    lengths the benchmark walks, equals tau_sp summed over the prefixes;
    the walk's straight-line 4 x 4 determinants run and take both nonzero
    signs, and neither exact.determinant nor a Gauss-Jordan solve runs."""
    determinant = count_calls(exact, "determinant")
    gauss_jordan = count_calls(exact, "affine_point")
    dets = line_runs(presentations._walk_4, "new_d = 1 if det > 0", "det")
    rng = random.Random(4064)
    for _ in range(40):
        length = rng.randint(40, 64)
        word = Word((rng.randrange(genus2.generator_count), rng.choice((1, -1))) for _ in range(length))
        assert cochain_c(word, genus2) == _tau_prefix_sum(word, genus2)
    assert dets
    assert determinant.call_count == gauss_jordan.call_count == 0
    signs = {_sign(det) for det, in dets}
    assert {1, -1} <= signs, signs


def _chain_presentation(g):
    """The twists c1 ... c_{2g+1} of hyperelliptic(g), with its odd chain
    relator (c1 ... c_{2g+1})^{2g+2} and the even one (c1 ... c_{2g})^{4g+2},
    so building it walks both."""
    data = hyperelliptic(g)
    odd = data["relators"][-3]  # before iota^2 and [iota, c1]
    even = " ".join(data["generators"][:-1] * (4 * g + 2))
    return load_presentation({**data, "relators": [odd, even]})


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5, 6])
def test_chain_relators_take_their_closed_form_values(g):
    """c((c1 ... c_{2g+1})^{2g+2}) = 2(g + 1)^2 and c((c1 ... c_{2g})^{4g+2})
    = 4g(g + 1) (Endo 2000: the signatures -2(g + 1)^2 and -4g(g + 1) of
    the chain fibrations), read off the walks that check the relators; at
    g = 3 also against tau_sp summed over the prefixes."""
    p = _chain_presentation(g)
    assert p._relator_values == (2 * (g + 1) ** 2, 4 * g * (g + 1))
    if g == 3:
        assert p._relator_values == tuple(_tau_prefix_sum(r, p) for r in p.relators)


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
def test_hyperelliptic_meyer_function_takes_the_closed_forms(g):
    """On hyperelliptic(g) the class has order 2g + 1 with every m_i = g + 1,
    phi(c1) = (g + 1)/(2g + 1), and phi((c1 ... c_{2h})^{4h+2}), the twist
    along a curve separating off genus h, = -4h(g - h)/(2g + 1) for
    1 <= h < g (Endo 2000): the closed forms ``twist-value`` prints."""
    p = load_presentation(hyperelliptic(g))
    assert class_order(p) == ClassOrder(2 * g + 1, (g + 1,) * (2 * g + 1))
    phi = p.meyer_function
    assert phi("c1") == hyperelliptic_twist_value(g)
    for h in range(1, g):
        separating = " ".join(p.generator_names[: 2 * h] * (4 * h + 2))
        assert phi(separating) == hyperelliptic_twist_value(g, h), h


@pytest.mark.parametrize("g", [2, 3])
def test_walk_after_a_singular_non_twist_letter(rng, g):
    """Words in the chain twists and s = I + S on the last handle, whose
    s - I has rank 2 < 2g - 1: the walk's bound after such a letter is
    2g - 1, above the rank, and the values still equal the tau_sp prefix
    sums.  Some words reach a twist letter right after an s that leaves
    0 < rank(P - I) < 2g - 1."""
    p = chain_with_s(g)
    s_index = p.generator_count - 1
    reached = 0
    for _ in range(60):
        word = random_word(p, rng, 16)
        assert cochain_c(word, p) == _tau_prefix_sum(word, p)
        prefix = SymplecticMatrix.identity(g)
        for (i, s), (j, _) in zip(word.letters, word.letters[1:]):
            prefix = prefix * (p.matrices[i] if s > 0 else p.matrices[i].inverse())
            rank = 2 * g - len(kernel_basis(_minus_identity(prefix)))
            reached += i == s_index and j != s_index and 0 < rank < 2 * g - 1
    assert reached


@pytest.mark.parametrize("g", [1, 2])
def test_straight_line_walks_equal_the_general_walk(g, monkeypatch, line_runs):
    """_walk and evaluate_word at 2g = 2 and 4, the straight-line walks on
    local ints, against the general walk on rows (_walk_rows and
    _evaluate_rows, the oracle at any 2g): the same c and rows of P - I,
    the same product, and the same ValueError for a bad letter, on seeded
    words of 0-70 letters over the shipped presentation, over the chain
    twists with the non-twist letter s (chain_with_s) and over powers of
    twists along seeded classes.  The words reach every branch of the
    straight-line walk: a non-twist letter, M = 0, the determinant rule
    with d d' of both signs and with one of d, d' zero, and the flat
    minor-sign rule at each rank r with the rank rising (v outside im M,
    by the bordered test at r < 2g - 1), kept (with both signs of tau)
    and falling, at 2g = 4 also from a bound above the rank."""
    n = 2 * g
    rng = random.Random(4100 + g)
    classes = [tuple(rng.choice((0, 1, -1, 2, -2)) for _ in range(n)) for _ in range(8)]
    mats = tuple(transvection(v) ** lam for v, lam in zip(filter(any, classes), (1, -1, 2, -3, 1, -2)))
    random_twists = Presentation(g, tuple(f"t{k}" for k in range(len(mats))), mats, ())
    cases = []
    for p in (shipped_presentation(g), chain_with_s(g), random_twists):
        for _ in range(100):
            word = random_word(p, rng, 70)
            k = rng.randint(0, len(word))
            bad = Word(word.letters[:k] + ((p.generator_count + rng.randrange(3), rng.choice((1, -1))),))
            messages = []
            for general in (presentations._walk_rows, presentations._evaluate_rows):
                with pytest.raises(ValueError) as expected:
                    general(bad, p)
                messages.append(str(expected.value))
            general = presentations._walk_rows(word, p), presentations._evaluate_rows(word, p)
            cases.append((p, word, general, bad, messages))
    walk = presentations._walk_2 if g == 1 else presentations._walk_4
    formula = line_runs(walk, "total += d * new_d", "d", "new_d")
    at_identity = line_runs(walk, "bound = 1\n")
    non_twist = line_runs(walk, "total += tau_sp(")
    outcomes, descents = set(), 0
    rule = presentations._minor_sign

    def spy(m, new, twist, bound):
        nonlocal descents
        out = rule(m, new, twist, bound)
        rank = n - len(kernel_basis(_flat_rows(m, n)))
        outcomes.add((rank, out[1] - rank, out[0]))
        descents += bound > rank
        return out

    monkeypatch.setattr(presentations, "_minor_sign", spy)
    for p, word, general, bad, messages in cases:
        c, rows = presentations._walk(word, p)
        assert ((c, rows), evaluate_word(word, p).rows) == general, word
        assert type(rows) is tuple and all(type(row) is tuple for row in rows)
        for straight, message in zip((presentations._walk, evaluate_word), messages):
            with pytest.raises(ValueError) as raised:
                straight(bad, p)
            assert str(raised.value) == message
    assert non_twist and at_identity
    assert {d * new_d for d, new_d in formula} == {1, -1, 0}
    assert {(d == 0, new_d == 0) for d, new_d in formula} == {(False, False), (True, False), (False, True)}
    assert outcomes == {
        (r, change, tau)
        for r in range(1, n)
        for change, tau in ((1, 0), (-1, 0), (0, 1), (0, -1))
        if r < n - 1 or change < 1
    }, outcomes
    assert (descents > 0) == (n == 4)  # at 2g = 2 a non-twist letter leaves the bound at the rank


def test_walk_lowers_the_bound_after_a_non_twist_letter(rng, count_calls):
    """At genus 2 the letter s, with rank(s - I) = 2, can leave the walk a
    rank bound of 3 above rank(P - I).  The minor-sign rule then lowers the
    bound to the rank; every call it gets agrees with the solve and with
    rank(P' - I) from a kernel, and the walk makes no Gauss-Jordan solve."""
    rule = count_calls(presentations, "_minor_sign")
    gauss_jordan = count_calls(exact, "affine_point")
    p = chain_with_s(2)
    for _ in range(60):
        word = random_word(p, rng, 16)
        assert cochain_c(word, p) == _tau_prefix_sum(word, p)
    assert gauss_jordan.call_count == 0
    descents = 0
    for call in rule.call_args_list:
        flat_m, flat_new, twist, bound = call.args
        m, new = _flat_rows(flat_m, 4), _flat_rows(flat_new, 4)
        rank = 4 - len(kernel_basis(m))
        new_rank = 4 - len(kernel_basis(new)) if any(map(any, new)) else 0
        solved = _twist_solve(m, twist)
        assert _minor_sign(flat_m, flat_new, twist, bound) == solved and solved[1] == new_rank
        descents += bound > rank
    assert descents


def test_walk_bound_is_the_rank_after_every_singular_twist_step(monkeypatch):
    """After each twist letter with det(P - I) = det(PB - I) = 0, the bound
    the walk keeps is rank(PB - I) exactly, by the rank oracle of the
    exact tests, at every genus of the --selftest cochain suite (seed 0):
    the minor-sign rule at 2g <= 4 and the solve's pivot count above.
    The bound a call starts from may still exceed rank(P - I) after a
    non-twist letter."""
    calls = []
    rule, solve = presentations._minor_sign, presentations._twist_solve

    def spy_rule(m, new, twist, bound):
        out = rule(m, new, twist, bound)
        n = len(twist[0])
        calls.append((n, _flat_rows(m, n), _flat_rows(new, n), bound, out[1]))
        return out

    def spy_solve(m, twist):  # the solve takes no bound
        out = solve(m, twist)
        calls.append((len(m), m, _twist_step(m, twist), 0, out[1]))
        return out

    monkeypatch.setattr(presentations, "_minor_sign", spy_rule)
    monkeypatch.setattr(presentations, "_twist_solve", spy_solve)
    entry = next(entry for entry in selftest.SUITES if entry[0] == "cochain is the tau prefix sum")
    assert entry[1](random.Random(0), entry[2]) is None
    sizes, starts_above = Counter(), 0
    for n, m, new, bound, new_bound in calls:
        sizes[n] += 1
        starts_above += bound > _rref_kernel(m, n)[1]
        assert new_bound == _rref_kernel(new, n)[1], (m, new, bound)  # never above the rank
    assert set(sizes) == {2, 4, 6} and sizes[6] >= 100, sizes
    assert starts_above  # the suite reaches the bound left by the letter s


def _flat_rows(m, n):
    """The rows of M, from its rows or from its n * n entries row by row,
    as the straight-line walks hand M to the minor-sign rule."""
    if len(m) == n:
        return m
    return tuple(m[i * n:(i + 1) * n] for i in range(n))


def _tau_prefix_sum(word, p):
    prefix, total = SymplecticMatrix.identity(p.genus), 0
    for i, s in word.letters:
        step = p.matrices[i] if s > 0 else p.matrices[i].inverse()
        total += tau_sp(prefix, step)
        prefix = prefix * step
    return total


def _twist_presentation(g):
    """Relator-free: the twists along the generating classes of genus g,
    alternately squared."""
    classes = _generating_classes(g)
    mats = tuple(transvection(v) ** (1 + k % 2) for k, v in enumerate(classes))
    return Presentation(g, tuple(f"t{k}" for k in range(len(classes))), mats, ())


def _minus_identity(m):
    return [[e - (i == j) for j, e in enumerate(row)] for i, row in enumerate(m.rows)]


def test_class_order_general_lattice_path():
    for p in (_mismatch_presentation(), _mismatch_presentation(with_combined=True)):
        assert class_order(p) == ClassOrder(3, (-3, 2))


def test_old_artin_key_is_ignored():
    data = json.loads(dump_presentation(_mismatch_presentation()))
    data["artin"] = True
    p = load_presentation(data)
    assert p == _mismatch_presentation()
    assert class_order(p) == ClassOrder(3, (-3, 2))


def test_synthesize_unbounded_raises():
    # no rational solution: a relator with zero exponents but c = 1.  No
    # genus-1 or genus-2 relator has that (the signature class is torsion
    # there), so the value class_order reads, stored when p was built, is
    # set by hand.
    assert repr(UNBOUNDED) == "Unbounded"
    p = Presentation(1, ("a",), (U_MAT,), (parse_word("a A", ("a",)),))
    assert p._relator_values == (0,)
    object.__setattr__(p, "_relator_values", (1,))
    assert class_order(p) is UNBOUNDED
    with pytest.raises(InfiniteOrderError, match="no Meyer function"):
        synthesize_meyer(p)


def test_synthesized_genus1_values(sl2z):
    phi = shipped_meyer_function(1)
    assert phi("a") == Fraction(2, 3)
    assert phi("b") == Fraction(2, 3)
    assert phi(Word()) == 0


def test_synthesized_coboundary(rng, sl2z, genus2):
    # a thousand word pairs in each shipped presentation
    for g, max_len in ((1, 10), (2, 7)):
        p = shipped_presentation(g)
        phi = shipped_meyer_function(g)
        for _ in range(1000):
            x = random_word(p, rng, max_len=max_len)
            y = random_word(p, rng, max_len=max_len)
            tau = tau_sp(evaluate_word(x, p), evaluate_word(y, p))
            assert tau == phi(x) - phi(x * y) + phi(y)


def test_synthesized_well_defined_mod_relators(rng, sl2z, genus2):
    # multiplying by a conjugated relator never changes the value
    for p in (sl2z, genus2):
        phi = shipped_meyer_function(p.genus)
        for _ in range(40):
            x = random_word(p, rng)
            r = p.relators[rng.randrange(len(p.relators))]
            y = random_word(p, rng, max_len=6)
            assert phi(x * (y * r * y.inverse())) == phi(x)


def test_synthesized_class_function(rng, genus2):
    phi = shipped_meyer_function(2)
    for _ in range(60):
        x = random_word(genus2, rng)
        y = random_word(genus2, rng, max_len=8)
        assert phi(y * x * y.inverse()) == phi(x)


def test_synthesized_general_coefficients_cobound():
    # the per-generator solution on the mismatch presentation still cobounds
    p = _mismatch_presentation()
    phi = synthesize_meyer(p)
    assert phi.order == ClassOrder(3, (-3, 2))
    import random

    rng = random.Random(12)
    for _ in range(60):
        x = random_word(p, rng)
        y = random_word(p, rng)
        tau = tau_sp(evaluate_word(x, p), evaluate_word(y, p))
        assert tau == phi(x) - phi(x * y) + phi(y)
