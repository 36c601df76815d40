import json
import random
from collections import Counter
from fractions import Fraction
from importlib import resources

import pytest

from meyersig import exact, presentations, selftest
from meyersig.cocycle import _minor_sign, _twist_solve, tau_sp
from meyersig.errors import InfiniteOrderError, ParseError
from meyersig.exact import _sign, kernel_basis, lattice_order
from meyersig.exact import determinant as _determinant
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
    load_presentation,
    parse_word,
    shipped_meyer_function,
    shipped_presentation,
    synthesize_meyer,
)
from meyersig.selftest import chain_with_s, random_word
from meyersig.symplectic import (
    SymplecticMatrix,
    _chain_classes,
    _generating_classes,
    _twist,
    random_symplectic,
    transvection,
)
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


def test_shipped_files_round_trip_bit_exactly():
    for name in ("sl2z.json", "genus2.json"):
        text = resources.files("meyersig.data").joinpath(name).read_text()
        assert dump_presentation(load_presentation(text)) == text


def test_shipped_data_files_are_the_presentations():
    # a stale or missing data file fails here, not in a packaged install
    data = resources.files("meyersig.data")
    shipped = {f.name for f in data.iterdir() if f.name.endswith(".json")}
    assert shipped == set(presentations.SHIPPED_FILES.values())


@pytest.mark.parametrize("g", [1, 2])
def test_shipped_files_hold_the_in_code_presentations(g):
    """The shipped presentations are built from Python data, and the files
    (the ``-p`` examples and ``--data`` templates) cannot drift from it."""
    text = resources.files("meyersig.data").joinpath(presentations.SHIPPED_FILES[g]).read_text()
    assert dump_presentation(shipped_presentation(g)) == text
    assert json.loads(text) == presentations._SHIPPED_DATA[g]
    assert shipped_presentation(g) == load_presentation(text)


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
    with pytest.raises(ValueError, match="out of range"):
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


def test_relators_walked_once_and_class_order_walks_none(genus2, count_calls):
    text = resources.files("meyersig.data").joinpath("genus2.json").read_text()
    walk = count_calls(presentations, "_walk")
    cochain = count_calls(presentations, "cochain_c")
    p = load_presentation(text)
    assert (walk.call_count, cochain.call_count) == (len(p.relators), 0)
    walk.reset_mock()
    assert class_order(p) == ClassOrder(5, (3,) * 5)
    assert (walk.call_count, cochain.call_count) == (0, 0)
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
    non-twist S; the minor-sign rule runs exactly at the twist letters
    where det(P - I) and det(PB - I) both vanish and P != I, found here by
    a kernel, and hands them to the Gauss-Jordan solve only above genus 2."""
    solve = count_calls(presentations, "_minor_sign")
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
            before = solve.call_count, gauss_jordan.call_count
            assert cochain_c(word, p) == expected
            assert solve.call_count - before[0] == expected_calls
            assert gauss_jordan.call_count - before[1] == (expected_calls if p.genus > 2 else 0)
            fallbacks += expected_calls
    assert 0 < fallbacks < twist_steps


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_walk_skips_determinants_below_the_rank_bound(rng, g, count_calls):
    """The rank bound is exact on twist-only words, so a twist letter
    makes a determinant exactly when rank(P - I) >= 2g - 1, and fewer
    than 2g twist letters make none.  In the genus-1 mismatch presentation
    every non-twist letter (S) makes one, and the bound it leaves is
    exact too.  Values against tau_sp, ranks from a kernel."""
    determinant = count_calls(exact, "determinant")
    n = 2 * g
    p = _twist_presentation(g)
    for _ in range(40):
        word = random_word(p, rng, n - 1)
        before = determinant.call_count
        assert cochain_c(word, p) == _tau_prefix_sum(word, p)
        assert determinant.call_count == before
    runs = 0
    for p in (_twist_presentation(g), _mismatch_presentation()):
        n = 2 * p.genus
        for _ in range(40):
            word = random_word(p, rng, 4 * n)
            prefix, expected = SymplecticMatrix.identity(p.genus), 0
            for i, s in word.letters:
                rank = n - len(kernel_basis(_minus_identity(prefix)))
                expected += p._twists[i, s] is None or rank >= n - 1
                prefix = prefix * (p.matrices[i] if s > 0 else p.matrices[i].inverse())
            before = determinant.call_count
            assert cochain_c(word, p) == _tau_prefix_sum(word, p)
            assert determinant.call_count - before == expected
            runs += expected
    assert runs


def test_loading_the_shipped_files_counts_determinants_and_solves(count_calls):
    """Building a shipped presentation walks its relators: genus2.json
    makes 55 determinants and 56 singular twist steps, sl2z.json 16 and 2,
    each taken by the minor-sign rule with no Gauss-Jordan solve."""
    determinant = count_calls(exact, "determinant")
    solve = count_calls(presentations, "_minor_sign")
    gauss_jordan = count_calls(exact, "affine_point")
    for name, dets, solves in (("sl2z.json", 16, 2), ("genus2.json", 55, 56)):
        before = determinant.call_count, solve.call_count
        load_presentation(resources.files("meyersig.data").joinpath(name).read_text())
        assert (determinant.call_count - before[0], solve.call_count - before[1]) == (dets, solves)
    assert gauss_jordan.call_count == 0


def test_walk_on_long_genus2_words_against_tau_prefix_sums(genus2, count_calls):
    """cochain_c on 40 seeded genus2.json words of 40-64 letters, the
    lengths the benchmark walks, equals tau_sp summed over the prefixes;
    the walk's 4 x 4 determinants run and take both nonzero signs, and
    no Gauss-Jordan solve runs."""
    determinant = count_calls(exact, "determinant")
    gauss_jordan = count_calls(exact, "affine_point")
    rng = random.Random(4064)
    for _ in range(40):
        length = rng.randint(40, 64)
        word = Word((rng.randrange(genus2.generator_count), rng.choice((1, -1))) for _ in range(length))
        assert cochain_c(word, genus2) == _tau_prefix_sum(word, genus2)
    assert determinant.call_count
    assert gauss_jordan.call_count == 0
    signs = {_sign(_determinant(call.args[0])) for call in determinant.call_args_list}
    assert {1, -1} <= signs, signs


def _chain_presentation(g):
    """The twists c1 ... c_{2g+1} along the chain classes of genus g, with
    the odd chain relator (c1 ... c_{2g+1})^{2g+2} and the even one
    (c1 ... c_{2g})^{4g+2}, so building it walks both."""
    n = 2 * g
    mats = tuple(transvection(v) for v in _chain_classes(g))
    odd = Word([(k, 1) for k in range(n + 1)] * (n + 2))
    even = Word([(k, 1) for k in range(n)] * (2 * n + 2))
    return Presentation(g, tuple(f"c{k}" for k in range(1, n + 2)), mats, (odd, even))


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5, 6])
def test_chain_relators_take_their_closed_form_values(g, genus2):
    """c((c1 ... c_{2g+1})^{2g+2}) = 2(g + 1)^2 and c((c1 ... c_{2g})^{4g+2})
    = 4g(g + 1) (Endo 2000: the signatures -2(g + 1)^2 and -4g(g + 1) of
    the chain fibrations), read off the walks that check the relators; at
    g = 3 also against tau_sp summed over the prefixes."""
    p = _chain_presentation(g)
    assert p._relator_values == (2 * (g + 1) ** 2, 4 * g * (g + 1))
    if g == 2:
        assert p.matrices == genus2.matrices
    if g == 3:
        assert p._relator_values == tuple(_tau_prefix_sum(r, p) for r in p.relators)


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
        m, new, twist, bound = call.args
        rank = 4 - len(kernel_basis(m))
        new_rank = 4 - len(kernel_basis(new)) if any(map(any, new)) else 0
        solved = _twist_solve(m, twist)
        assert _minor_sign(m, new, twist, bound) == solved and solved[1] == new_rank
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
    rule = presentations._minor_sign

    def spy(m, new, twist, bound):
        out = rule(m, new, twist, bound)
        calls.append((m, new, bound, out[1]))
        return out

    monkeypatch.setattr(presentations, "_minor_sign", spy)
    entry = next(entry for entry in selftest.SUITES if entry[0] == "cochain is the tau prefix sum")
    assert entry[1](random.Random(0), entry[2]) is None
    sizes, starts_above = Counter(), 0
    for m, new, bound, new_bound in calls:
        n = len(m)
        sizes[n] += 1
        starts_above += bound > _rref_kernel(m, n)[1]
        assert new_bound == _rref_kernel(new, n)[1], (m, new, bound)  # never above the rank
    assert set(sizes) == {2, 4, 6} and sizes[6] >= 100, sizes
    assert starts_above  # the suite reaches the bound left by the letter s


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
    p = load_presentation(json.dumps(data))
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
