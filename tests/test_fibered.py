import json
import random
import re
from fractions import Fraction

import pytest

from meyersig import exact
from meyersig.errors import InfiniteOrderError, ParseError, UnsupportedGenusError
from meyersig.fibered import (
    FiberGerm,
    FibrationDescription,
    closed_total,
    euler_contribution,
    geography_convert,
    geography_invert,
    horikawa_total,
    hyperelliptic_twist_value,
    kodaira_matrix,
    kodaira_neighborhood_signature,
    kodaira_word,
    load_fibration,
    local_signature,
    local_signatures,
    meyer_function,
    sigma_alg_hyperelliptic,
    signature_over_surface,
    sl2_word,
    total_euler,
    total_signature,
)
from meyersig.genus1 import phi1, sawtooth
from meyersig.presentations import (
    ClassOrder,
    Presentation,
    Word,
    class_order,
    evaluate_word,
    format_word,
    hyperelliptic,
    load_presentation,
    shipped_meyer_function,
    shipped_presentation,
)
from meyersig.selftest import random_word
from meyersig.symplectic import (
    SymplecticMatrix,
    a_class,
    b_class,
    random_symplectic,
    transvection,
)


def _twelve_i1_fibration():
    # nodal-fiber letters U' = [[1,-1],[0,1]] and V' = [[1,0],[1,1]]
    # alternate so that (U'V')^6 = I closes the sphere
    w_u = sl2_word(SymplecticMatrix([[1, -1], [0, 1]]))
    w_v = sl2_word(SymplecticMatrix([[1, 0], [1, 1]]))
    germs = []
    for k in range(6):
        germs.append(FiberGerm(w_u, 0, f"I_1 fiber {2 * k}"))
        germs.append(FiberGerm(w_v, 0, f"I_1 fiber {2 * k + 1}"))
    return FibrationDescription(shipped_presentation(1), 0, tuple(germs))


# ---------------------------------------------------------------------------
# Meyer function dispatch


def test_meyer_function_genus_gate():
    for g in (3, 4):
        with pytest.raises(UnsupportedGenusError, match="infinite order"):
            meyer_function(g)
    with pytest.raises(UnsupportedGenusError, match="genus 1 and 2 only"):
        meyer_function(0)


def test_shipped_presentation_genus_table():
    # the one table of shipped files refuses every other genus, with the
    # messages meyer_function gives
    for g, message in ((0, "genus 1 and 2 only"), (3, "infinite order")):
        with pytest.raises(UnsupportedGenusError, match=message):
            shipped_presentation(g)


# A genus that equals 1 or 2 but is no int names no shipped presentation:
# lru_cache keys True and 2.0 apart from 1 and 2, so they would build and
# synthesize again, and the rest of the package refuses them.
NON_INT_GENUS_CALLS = {
    "shipped_presentation(True)": lambda: shipped_presentation(True),
    "shipped_meyer_function(2.0)": lambda: shipped_meyer_function(2.0),
    "signature_over_surface(2.0, ...)": lambda: signature_over_surface(2.0, [Word([(0, 1)])]),
    "local_signature(germ, 1.0)": lambda: local_signature(FiberGerm(Word([(0, 1)])), 1.0),
}


@pytest.mark.parametrize("call", NON_INT_GENUS_CALLS.values(), ids=NON_INT_GENUS_CALLS)
def test_shipped_data_refuses_a_genus_that_is_not_an_int(call):
    shipped_presentation(1), shipped_meyer_function(2)  # the int genera, built once
    built = shipped_presentation.cache_info().currsize, shipped_meyer_function.cache_info().currsize
    with pytest.raises(ValueError, match=r"^genus must be an int, got (True|2\.0|1\.0)$"):
        call()
    assert (shipped_presentation.cache_info().currsize, shipped_meyer_function.cache_info().currsize) == built


def test_fibration_description_checks_only_the_base_genus():
    # a genus-3 presentation with no relators has class order 1, so its
    # germs get totals; one of infinite order builds, and raises when
    # the total is asked for
    twists = (transvection(a_class(3, 1)), transvection(b_class(3, 2)))
    free = Presentation(3, ("x", "y"), twists, ())
    assert class_order(free) == ClassOrder(1, (0, 0))
    w = free.word("x y^-2 x y")
    germs = (FiberGerm(w, 1), FiberGerm(w.inverse(), -3))
    assert total_signature(FibrationDescription(free, 0, germs)) == -2
    assert total_signature(FibrationDescription(free, 1, (FiberGerm(w * w.inverse(), 4),))) == 4
    unbounded = Presentation(3, ("x",), twists[:1], (free.word("x x^-1"),))
    object.__setattr__(unbounded, "_relator_values", (1,))  # as test_synthesize_unbounded_raises
    fd = FibrationDescription(unbounded, 0, (FiberGerm(Word(), 0),))
    with pytest.raises(InfiniteOrderError, match="no Meyer function"):
        total_signature(fd)
    with pytest.raises(ValueError, match="base genus must be >= 0"):
        FibrationDescription(free, -1, ())


def test_local_signature_trivial_germ(sl2z):
    germ = FiberGerm(Word(), 0, "general fiber")
    assert local_signature(germ, 1) == 0
    assert local_signature(germ, 2) == 0


def test_local_signature_i1_value():
    word = sl2_word(SymplecticMatrix([[1, -1], [0, 1]]))
    assert local_signature(FiberGerm(word, 0), 1) == Fraction(-2, 3)
    # the neighborhood signature shifts the value additively
    assert local_signature(FiberGerm(word, -1), 1) == Fraction(-5, 3)


def test_local_signature_conjugation_invariant(rng, sl2z):
    for _ in range(60):
        w = random_word(sl2z, rng)
        y = random_word(sl2z, rng, max_len=6)
        conj = y * w * y.inverse()
        assert local_signature(FiberGerm(w, 2), 1) == local_signature(FiberGerm(conj, 2), 1)


def test_signature_over_surface_vanishing():
    assert signature_over_surface(1, []) == 0
    assert signature_over_surface(2, []) == 0
    assert signature_over_surface(1, [Word()]) == 0
    with pytest.raises(UnsupportedGenusError, match="infinite order"):
        signature_over_surface(3, [])


def test_signature_over_surface_inverse_pair(rng, sl2z, genus2):
    for p in (sl2z, genus2):
        for _ in range(40):
            w = random_word(p, rng)
            assert signature_over_surface(p.genus, [w, w.inverse()]) == 0


def test_signature_over_surface_mapping_torus_sum(rng, genus2):
    # over a one-holed torus: commutator boundary, single germ word
    phi = shipped_meyer_function(2)
    x = random_word(genus2, rng, max_len=8)
    y = random_word(genus2, rng, max_len=8)
    comm = x * y * x.inverse() * y.inverse()
    assert signature_over_surface(2, [comm]) == phi(comm)


# ---------------------------------------------------------------------------
# total signature and closedness


def test_twelve_i1_budget():
    fd = _twelve_i1_fibration()
    assert total_signature(fd) == -8
    assert total_euler(1, 0, [euler_contribution(1, 1)] * 12) == 12
    assert geography_convert(0, 1) == (Fraction(-8), Fraction(12))


def test_total_signature_empty():
    assert total_signature(FibrationDescription(shipped_presentation(1), 0, ())) == 0
    assert total_signature(FibrationDescription(shipped_presentation(2), 3, ())) == 0


def test_total_signature_doubled_inverses(rng, genus2):
    words = [random_word(genus2, rng, max_len=8) for _ in range(4)]
    germs = [FiberGerm(w, 0) for w in words]
    germs += [FiberGerm(w.inverse(), 0) for w in reversed(words)]
    fd = FibrationDescription(genus2, 0, tuple(germs))
    assert total_signature(fd) == 0


def test_total_signature_trivial_monodromies_add_neighborhoods():
    germs = tuple(FiberGerm(Word(), k) for k in (-3, 1, 2))
    assert total_signature(FibrationDescription(shipped_presentation(1), 0, germs)) == 0
    assert total_signature(FibrationDescription(shipped_presentation(2), 2, germs)) == 0


def test_total_signature_reorder_and_conjugate_invariant(rng, genus2):
    words = [random_word(genus2, rng, max_len=6) for _ in range(3)]
    closing = (words[0] * words[1] * words[2]).inverse()
    germs = [FiberGerm(w, k) for k, w in enumerate(words + [closing])]
    reference = total_signature(FibrationDescription(genus2, 1, tuple(germs)))
    shuffled = list(germs)
    rng.shuffle(shuffled)
    assert total_signature(FibrationDescription(genus2, 1, tuple(shuffled))) == reference
    conjugated = [
        FiberGerm(
            (y := random_word(genus2, rng, max_len=4)) * g.monodromy * y.inverse(),
            g.neighborhood_signature,
        )
        for g in germs
    ]
    assert total_signature(FibrationDescription(genus2, 1, tuple(conjugated))) == reference


def test_closedness_failure_over_sphere(sl2z):
    fd = FibrationDescription(sl2z, 0, (FiberGerm(sl2z.word("a"), 0),))
    with pytest.raises(ValueError, match="closedness"):
        total_signature(fd)


def test_closedness_over_sphere_walks_the_germs_in_order(genus2):
    # the check is one walk over every germ letter, so the germs' order
    # counts: x, y, x^-1, y^-1 need not close up, x, x^-1, y, y^-1 does
    message = (
        "closedness check failed: germ monodromies do not multiply "
        "to the identity over a sphere base"
    )
    x, y = genus2.word("c1 c2"), genus2.word("c3 c4^-1")
    closed = (x, x.inverse(), y, y.inverse())
    fd = FibrationDescription(genus2, 0, tuple(FiberGerm(w, 0) for w in closed))
    assert total_signature(fd) == 0
    for germs in ((x, y, x.inverse(), y.inverse()), closed[:3]):
        fd = FibrationDescription(genus2, 0, tuple(FiberGerm(w, 0) for w in germs))
        with pytest.raises(ValueError) as info:
            total_signature(fd)
        assert str(info.value) == message


def test_closedness_over_torus_accepts_commutators(rng, sl2z):
    x = random_word(sl2z, rng, max_len=8)
    y = random_word(sl2z, rng, max_len=8)
    comm = x * y * x.inverse() * y.inverse()
    fd = FibrationDescription(sl2z, 1, (FiberGerm(comm, 0),))
    total_signature(fd)  # no closedness complaint
    bad = FibrationDescription(sl2z, 1, (FiberGerm(sl2z.word("a"), 0),))
    with pytest.raises(ValueError, match="commutator"):
        total_signature(bad)


def test_torelli_germ_yields_non_integer_total(genus2):
    # the separating twist acts trivially on homology, so it slips past the
    # symplectic-level closedness check; the non-integer total is the
    # documented signal that the germ data is not a closed fibration
    sep = genus2.word(" ".join(["c1 c2"] * 6))
    assert evaluate_word(sep, genus2) == SymplecticMatrix.identity(2)
    fd = FibrationDescription(genus2, 0, (FiberGerm(sep, 0),))
    with pytest.raises(ValueError, match="not an integer"):
        total_signature(fd)


def _sphere(p, words):
    return FibrationDescription(p, 0, tuple(FiberGerm(w) for w in words))


def _inverse_letters(letters):
    return [(i, -s) for i, s in reversed(letters)]


def _has_inverse_pair(letters):
    return any(a[0] == b[0] and a[1] == -b[1] for a, b in zip(letters, letters[1:]))


def _sphere_germs(p, rng):
    """Seeded germ words over p: the pieces u_j of a relator as germs
    x u_j x^-1 (closed), the same with a fresh x per germ, or conjugated
    twist letters x t x^-1 (mostly open); |x| <= 3, and some germs carry
    a y y^-1 inside."""
    k = p.generator_count

    def letters(n):
        return [(rng.randrange(k), rng.choice((1, -1))) for _ in range(n)]

    kind = rng.randrange(3)
    if kind < 2:
        relator = list(rng.choice([r for r in p.relators if r.letters]).letters)
        cuts = sorted(rng.sample(range(1, len(relator)), min(len(relator) - 1, rng.randint(0, 5))))
        cores = [relator[a:b] for a, b in zip([0] + cuts, cuts + [len(relator)])]
    else:
        cores = [letters(1) for _ in range(rng.randint(0, 6))]
    x = letters(rng.randint(0, 3))
    words = []
    for core in cores:
        if kind == 1:
            x = letters(rng.randint(0, 3))
        if rng.random() < 0.3:
            y = letters(rng.randint(1, 2))
            at = rng.randint(0, len(core))
            core = core[:at] + y + _inverse_letters(y) + core[at:]
        words.append(Word(x + core + _inverse_letters(x)))
    return words


@pytest.mark.parametrize("genus", [1, 2, 3])
def test_sphere_closedness_matches_the_walk_over_every_letter(genus):
    """Over a sphere, closed_total passes or fails exactly as the product
    of the germs' letters in order, unreduced, taken left to right as
    SymplecticMatrix products of the generators' matrices and their
    inverses, with no walk: on seeded conjugated germs that cancel inside
    a germ and across germs, closed and open."""
    p = shipped_presentation(genus) if genus < 3 else load_presentation(hyperelliptic(3))
    rng = random.Random(4200 + genus)
    identity = SymplecticMatrix.identity(genus)
    factors = {(i, 1): m for i, m in enumerate(p.matrices)}
    factors.update({(i, -1): m.inverse() for i, m in enumerate(p.matrices)})
    seen = {"closed": 0, "open": 0, "inside": 0, "across": 0}
    for _ in range(120):
        words = _sphere_germs(p, rng)
        product = identity
        for w in words:
            for letter in w.letters:
                product = product * factors[letter]
        closed = product == identity
        if closed:
            assert closed_total(_sphere(p, words), ()) == 0
        else:
            with pytest.raises(ValueError, match="^closedness check failed: germ monodromies"):
                closed_total(_sphere(p, words), ())
        seen["closed" if closed else "open"] += 1
        seen["inside"] += any(_has_inverse_pair(w.letters) for w in words)
        seen["across"] += any(
            _has_inverse_pair([u.letters[-1], v.letters[0]])
            for u, v in zip(words, words[1:]) if u.letters and v.letters
        )
    assert min(seen.values()) >= 10, seen


@pytest.mark.parametrize(
    "words",
    [
        [[(0, 1), (7, 1)], [(7, -1), (0, -1)]],  # cancelled across germs
        [[(7, 1), (7, -1)]],  # cancelled inside a germ
        [[(1, 1), (1, -1), (5, -1), (5, 1)]],  # after a cancelled pair
    ],
    ids=["across", "inside", "after-cancelling"],
)
def test_sphere_closedness_refuses_a_bad_letter_its_inverse_would_cancel(genus2, words):
    words = [Word(w) for w in words]
    letters = [letter for w in words for letter in w.letters]
    with pytest.raises(ValueError) as walk:
        evaluate_word(Word(letters), genus2)
    with pytest.raises(ValueError) as check:
        closed_total(_sphere(genus2, words), ())
    assert str(check.value) == str(walk.value)
    assert str(check.value).startswith("letter index ")


def test_sphere_closedness_counts_the_letters_before_reading_any(genus2):
    """Germs over the letter cap together raise "word is too long", as
    their one word would, before the bad letter that starts them."""
    words = [Word([(9, 1)] + [(0, 1)] * 5999), Word([(0, -1)] * 5000)]
    with pytest.raises(ValueError, match="^word is too long") as check:
        closed_total(_sphere(genus2, words), ())
    with pytest.raises(ValueError) as walk:
        Word([letter for w in words for letter in w.letters])
    assert str(check.value) == str(walk.value)


def test_closed_total_is_the_exact_sum():
    """The total is int(sum(values, Fraction(0))) when that is an integer,
    and otherwise the same error naming it: seeded lists of ints, thirds,
    fifths and large numerators, and the empty list."""
    fd = FibrationDescription(shipped_presentation(1), 0, ())
    rng = random.Random(4242)
    seen = {True: 0, False: 0}
    for _ in range(400):
        values = []
        for _ in range(rng.randint(0, 8)):
            n = rng.randint(-40, 40) * rng.choice((1, 1, 10**30 + 7))
            values.append(rng.choice((n, Fraction(n, 3), Fraction(n, 5), Fraction(n, 15))))
        total = sum(values, Fraction(0))
        integral = total.denominator == 1
        seen[integral] += 1
        if integral:
            result = closed_total(fd, values)
            assert result == int(total) and type(result) is int
            assert closed_total(fd, iter(values)) == result
        else:
            message = f"total signature {total} is not an integer; germ data inconsistent"
            with pytest.raises(ValueError) as info:
                closed_total(fd, values)
            assert str(info.value) == message
    assert min(seen.values()) >= 50, seen
    assert closed_total(fd, []) == 0 and type(closed_total(fd, [])) is int
    assert closed_total(fd, [Fraction(2, 3), Fraction(2, 5), -1, Fraction(-1, 15)]) == 0
    with pytest.raises(ValueError) as info:
        closed_total(fd, [Fraction(1, 3)])
    assert str(info.value) == "total signature 1/3 is not an integer; germ data inconsistent"


# ---------------------------------------------------------------------------
# Euler numbers, Horikawa index, geography


def test_euler_contribution_examples():
    assert euler_contribution(2 - 2 * 1, 1) == 0
    assert euler_contribution(2 - 2 * 2, 2) == 0
    assert euler_contribution(1, 1) == 1
    assert euler_contribution(0, 2) == 2


def test_total_euler_examples():
    assert total_euler(1, 1, []) == 0
    assert total_euler(1, 0, [1] * 12) == 12
    assert total_euler(2, 2, []) == 4


def test_euler_refuses_negative_genera():
    assert total_euler(0, 0, []) == 4  # sphere fibers over a sphere
    assert euler_contribution(1, 0) == -1
    with pytest.raises(ValueError, match="fiber genus must be >= 0"):
        total_euler(-1, 0, [])
    with pytest.raises(ValueError, match="base genus must be >= 0"):
        total_euler(1, -2, [])
    with pytest.raises(ValueError, match="fiber genus must be >= 0"):
        euler_contribution(1, -1)


def test_sigma_alg_examples():
    assert sigma_alg_hyperelliptic(0, 0, 2) == 0
    assert sigma_alg_hyperelliptic(0, 1, 2) == Fraction(-3, 5)
    assert sigma_alg_hyperelliptic(1, 1, 1) == Fraction(-1, 3)
    with pytest.raises(ValueError):
        sigma_alg_hyperelliptic(0, 0, 0)


def test_local_signature_matches_algebraic_for_nodal_germs(genus2):
    # Both local-signature routes are computable from shipped data for nodal
    # germs, so their advertised coincidence can be spot-checked exactly.
    # Irreducible node: counter-clockwise boundary monodromy is the inverse
    # twist under the shipped convention, trivial disk signature, H = 0.
    nodal = FiberGerm(genus2.word("c3^-1"), 0)
    assert local_signature(nodal, 2) == sigma_alg_hyperelliptic(0, 1, 2) == Fraction(-3, 5)
    # Separating node (h = 1): disk preimage signature -1, Horikawa index 1.
    sep_word = genus2.word(" ".join(["c1 c2"] * 6)).inverse()
    separating = FiberGerm(sep_word, -1)
    assert local_signature(separating, 2) == sigma_alg_hyperelliptic(1, 1, 2) == Fraction(-1, 5)
    # Genus 1: the nodal (I_1) germ value agrees as well.
    i_one = FiberGerm(kodaira_word("I_1"), 0)
    assert local_signature(i_one, 1) == sigma_alg_hyperelliptic(0, 1, 1) == Fraction(-2, 3)


def test_horikawa_total_examples():
    assert horikawa_total(2, 1, 2) == 0
    assert horikawa_total(4, 1, 2) == 2
    assert horikawa_total(Fraction(8, 3), 1, 3) == 0
    with pytest.raises(ValueError, match="genus >= 2"):
        horikawa_total(1, 1, 1)


# Each rational argument of the rational helpers, the others fixed.
RATIONAL_ARGUMENTS = {
    "sigma_alg_hyperelliptic h_index": lambda x: sigma_alg_hyperelliptic(x, 1, 2),
    "sigma_alg_hyperelliptic eps": lambda x: sigma_alg_hyperelliptic(0, x, 2),
    "horikawa_total k_rel_sq": lambda x: horikawa_total(x, 1, 2),
    "horikawa_total chi_f": lambda x: horikawa_total(2, x, 2),
    "geography_convert k_sq": lambda x: geography_convert(x, 1),
    "geography_convert chi_struct": lambda x: geography_convert(0, x),
    "geography_invert sign": lambda x: geography_invert(x, 12),
    "geography_invert chi_top": lambda x: geography_invert(-8, x),
    "sawtooth": sawtooth,
}


@pytest.mark.parametrize("call", RATIONAL_ARGUMENTS.values(), ids=RATIONAL_ARGUMENTS)
def test_rational_helpers_take_only_ints_and_fractions(call):
    """A float is not read as the binary fraction it stores, and a bool is
    not read as 0 or 1; an int and the equal Fraction give one value."""
    for bad in (0.1, True, 1.5, "1/2"):
        with pytest.raises(ValueError, match=f"^expected an int or a Fraction, got {re.escape(repr(bad))}$"):
            call(bad)
    assert call(3) == call(Fraction(3))
    call(Fraction(1, 3))


# Each genus argument of the fibered helpers, the others fixed.
GENUS_ARGUMENTS = {
    "euler_contribution g": lambda g: euler_contribution(1, g),
    "total_euler g": lambda g: total_euler(g, 0, [1]),
    "total_euler base_genus": lambda g: total_euler(1, g, [1]),
    "sigma_alg_hyperelliptic g": lambda g: sigma_alg_hyperelliptic(0, 1, g),
    "horikawa_total g": lambda g: horikawa_total(2, 1, g),
    "hyperelliptic_twist_value g": hyperelliptic_twist_value,
    "hyperelliptic_twist_value separating_h": lambda h: hyperelliptic_twist_value(40, h),
    "FibrationDescription base_genus": lambda g: FibrationDescription(shipped_presentation(1), g),
}


@pytest.mark.parametrize("bad", [True, False, 2.0, 0.5], ids=repr)
@pytest.mark.parametrize("call", GENUS_ARGUMENTS.values(), ids=GENUS_ARGUMENTS)
def test_genus_arguments_take_only_ints(call, bad):
    """A bool is not read as genus 0 or 1 and a float is refused by the
    same ValueError, before any range rule; an int above the matrix genus
    cap MAX_GENUS is still taken, since no matrix is built."""
    with pytest.raises(ValueError, match=f"genus( h)? must be an int, got {re.escape(repr(bad))}$"):
        call(bad)
    call(20)


def test_geography_examples():
    assert geography_convert(0, 1) == (-8, 12)
    sign, _ = geography_convert(8, 1)
    assert sign == 0
    assert geography_invert(-8, 12) == (0, 1)


def test_geography_round_trip(rng):
    for _ in range(1000):
        k_sq = rng.randint(-500, 500)
        chi = rng.randint(-500, 500)
        assert geography_invert(*geography_convert(k_sq, chi)) == (k_sq, chi)
        sign, chi_top = geography_convert(*geography_invert(k_sq, chi))
        assert (sign, chi_top) == (k_sq, chi)


def test_twist_values():
    assert hyperelliptic_twist_value(2) == Fraction(3, 5)
    assert hyperelliptic_twist_value(2, 1) == Fraction(-4, 5)
    assert hyperelliptic_twist_value(1) == Fraction(2, 3)
    assert hyperelliptic_twist_value(3, 1) == Fraction(-8, 7)
    with pytest.raises(ValueError, match="1 <= h"):
        hyperelliptic_twist_value(2, 2)
    with pytest.raises(ValueError, match="1 <= h"):
        hyperelliptic_twist_value(1, 1)
    with pytest.raises(ValueError, match="^genus must be >= 1$"):
        hyperelliptic_twist_value(0, None)


def test_twist_values_are_2g1_integral():
    for g in range(1, 12):
        assert ((2 * g + 1) * hyperelliptic_twist_value(g)).denominator == 1
        for h in range(1, g):
            assert ((2 * g + 1) * hyperelliptic_twist_value(g, h)).denominator == 1


def test_twist_values_match_synthesized_genus2(genus2):
    phi = shipped_meyer_function(2)
    assert phi("c3") == hyperelliptic_twist_value(2)
    assert phi(" ".join(["c1 c2"] * 6)) == hyperelliptic_twist_value(2, 1)


def test_twist_value_matches_phi1():
    assert hyperelliptic_twist_value(1) == phi1(transvection(a_class(1, 1)))


# ---------------------------------------------------------------------------
# Kodaira table


KODAIRA_ORDERS = {"I_0": 1, "II": 6, "III": 4, "IV": 3, "I_0*": 2, "IV*": 3, "III*": 4, "II*": 6}


def test_kodaira_finite_orders():
    ident = SymplecticMatrix.identity(1)
    for name, order in KODAIRA_ORDERS.items():
        m = kodaira_matrix(name)
        assert m**order == ident
        for k in range(1, order):
            assert m**k != ident


def test_kodaira_parabolic_types():
    for n in (1, 2, 7):
        (a, _), (_, d) = kodaira_matrix(f"I_{n}").rows
        assert a + d == 2
        (a, _), (_, d) = kodaira_matrix(f"I_{n}*").rows
        assert a + d == -2
    assert kodaira_matrix("I_1") == SymplecticMatrix([[1, -1], [0, 1]])
    assert kodaira_matrix("I_3*") == SymplecticMatrix([[-1, 3], [0, -1]])


def test_kodaira_named_matrices():
    named = {
        "II": [[1, -1], [1, 0]], "III": [[0, -1], [1, 0]], "IV": [[0, -1], [1, -1]],
        "IV*": [[-1, 1], [-1, 0]], "III*": [[0, 1], [-1, 0]], "II*": [[0, 1], [-1, 1]],
    }
    for name, rows in named.items():
        assert kodaira_matrix(name) == SymplecticMatrix(rows), name


def test_kodaira_starred_type_is_minus_the_unstarred():
    for n in range(60):
        rows = kodaira_matrix(f"I_{n}").rows
        assert rows == ((1, -n), (0, 1))
        assert kodaira_matrix(f"I_{n}*").rows == tuple(tuple(-x for x in r) for r in rows)


def test_kodaira_local_signatures_match_matsumoto():
    # Matsumoto: the local signature of an elliptic fiber is -2e/3, and the
    # neighborhood of a fiber with c components has signature -(c - 1);
    # Kodaira's Euler number e and component count c of each type:
    types = {"I_0": (0, 1), "II": (2, 1), "III": (3, 2), "IV": (4, 3)}
    types.update({"IV*": (8, 7), "III*": (9, 8), "II*": (10, 9)})
    types.update({f"I_{n}": (n, n) for n in range(1, 40)})
    types.update({f"I_{n}*": (n + 6, n + 5) for n in range(40)})
    assert len(types) == 86
    for name, (e, c) in types.items():
        assert kodaira_neighborhood_signature(name) == -(c - 1), name
        assert phi1(kodaira_matrix(name)) - (c - 1) == Fraction(-2 * e, 3), name


def test_kodaira_words_evaluate(sl2z):
    for name in ("I_0", "I_1", "I_4", "II", "III", "IV", "I_0*", "I_2*", "IV*", "III*", "II*"):
        assert evaluate_word(kodaira_word(name), sl2z) == kodaira_matrix(name)


def test_kodaira_word_lengths():
    # I_n is T^-n and I_n* is (T L)^3 T^n: n and n + 6 letters
    lengths = {"I_0": 0, "I_1": 1, "I_7": 7, "I_0*": 6, "I_1*": 7, "I_7*": 13,
               "II": 2, "III": 3, "IV": 4, "IV*": 8, "III*": 9, "II*": 10}
    assert {name: len(kodaira_word(name)) for name in lengths} == lengths


def test_kodaira_word_length_cap():
    assert len(kodaira_word("I_10000")) == 10_000
    with pytest.raises(ValueError, match="caps words") as info:
        kodaira_word("I_1000000000")  # counted before any letter is built
    assert not isinstance(info.value, ParseError)


def test_kodaira_unknown_type():
    for bad in ("V", "I_x", "I_-1", "kodaira", "I_1_0", "I_\uff11"):
        with pytest.raises(ParseError, match="unknown Kodaira type"):
            kodaira_matrix(bad)


def test_sl2_word_reproduces(rng, sl2z):
    # the letters are found by their matrices T and L, not by their names
    # or signs: the same words come out over renamed generators, and over
    # generators T^-1 and L^-1 as inverse letters
    renamed = Presentation(1, ("x", "y"), sl2z.matrices, sl2z.relators)
    inverted = Presentation(
        1, ("u", "v"), sl2z._inverses,
        tuple(Word([(i, -s) for i, s in r.letters]) for r in sl2z.relators),
    )
    for _ in range(2000):
        m = random_symplectic(1, rng.randint(0, 18), rng.random())
        for m in (m, SymplecticMatrix([[-e for e in row] for row in m.rows])):
            word = sl2_word(m)
            assert evaluate_word(word, sl2z) == m
            assert sl2_word(m, renamed) == word
            flipped = sl2_word(m, inverted)
            assert flipped == Word([(i, -s) for i, s in word.letters])
            assert evaluate_word(flipped, inverted) == m


def test_sl2_word_refuses_other_genera():
    with pytest.raises(ValueError, match="^expected genus 1, got genus 2$"):
        sl2_word(random_symplectic(2, 6, 0.25))


def test_sl2_word_needs_the_letters_t_and_l(sl2z):
    only_t = Presentation(1, ("a",), sl2z.matrices[:1], ())
    for p in (only_t, shipped_presentation(2)):
        with pytest.raises(ValueError, match=r"T = \[\[1,1\],\[0,1\]\] and L = \[\[1,0\],\[-1,1\]\]"):
            sl2_word(SymplecticMatrix([[1, -1], [0, 1]]), p)


# ---------------------------------------------------------------------------
# closedness over a positive-genus base


@pytest.mark.parametrize("g, h1_order", [(1, 12), (2, 10)])
def test_positive_base_closedness_is_the_h1_class(g, h1_order):
    """Over a torus the germs pass exactly when their total exponent is 0
    in H_1 of the presented group: Z/12 at genus 1 and Z/10 at genus 2,
    since every generator of either shipped presentation is conjugate to
    every other.  Commutators always pass."""
    p = shipped_presentation(g)
    rng = random.Random(80 + g)
    seen = {True: 0, False: 0}
    for _ in range(300):
        words = [random_word(p, rng, 10) for _ in range(rng.randint(1, 3))]
        fd = FibrationDescription(p, 1, tuple(FiberGerm(w) for w in words))
        closed = sum(s for w in words for _, s in w.letters) % h1_order == 0
        seen[closed] += 1
        if closed:
            assert isinstance(total_signature(fd), int)
        else:
            with pytest.raises(ValueError, match="not a product of commutators"):
                total_signature(fd)
    assert all(seen.values()), seen
    for _ in range(40):
        x, y = random_word(p, rng, 8), random_word(p, rng, 8)
        comm = x * y * x.inverse() * y.inverse()
        assert isinstance(total_signature(FibrationDescription(p, 1, (FiberGerm(comm),))), int)


def test_positive_base_closedness_without_relators():
    """With no relators H_1 is free abelian on the generators, so only a
    zero exponent vector passes, even when the total exponent is 0."""
    p = Presentation(1, ("a", "b"), (SymplecticMatrix([[1, 1], [0, 1]]),
                                      SymplecticMatrix([[1, 0], [-1, 1]])), ())
    for text, closed in (("", True), ("a b A B", True), ("a A b^2 B^2", True),
                         ("a B", False), ("a", False), ("a^12", False)):
        fd = FibrationDescription(p, 2, (FiberGerm(p.word(text)),))
        if closed:
            assert closed_total(fd, ()) == 0
        else:
            with pytest.raises(ValueError, match="not a product of commutators"):
                closed_total(fd, ())
    stray = FibrationDescription(p, 1, (FiberGerm(Word([(2, 1)])),))
    with pytest.raises(ValueError, match="letter index 2 out of range"):
        closed_total(stray, ())


def test_a_bad_germ_letter_has_one_message_at_every_base_genus():
    """A germ letter past the generators gets the walks' message from
    closed_total over a sphere and over a base of genus 1, and the same
    one from format_word."""
    p = shipped_presentation(1)
    stray = Word([(2, 1)])
    message = "^letter index 2 out of range for 2 generators$"
    for base_genus in (0, 1):
        with pytest.raises(ValueError, match=message):
            closed_total(FibrationDescription(p, base_genus, (FiberGerm(stray),)), ())
    with pytest.raises(ValueError, match=message):
        format_word(stray, p.generator_names)


def test_positive_base_closedness_keeps_the_relator_lattice(count_calls):
    """The lattice basis of the relators' exponent vectors is built once
    per presentation: two closed_total calls over a base of genus 1 make
    one lattice_basis call."""
    basis = count_calls(exact, "lattice_basis")
    p = load_presentation(hyperelliptic(2))  # a fresh object, with no basis kept yet
    x, y = p.word("c1 c2"), p.word("c3")
    fd = FibrationDescription(p, 1, (FiberGerm(x * y * x.inverse() * y.inverse()),))
    assert closed_total(fd, ()) == closed_total(fd, ()) == 0
    assert basis.call_count == 1


# ---------------------------------------------------------------------------
# fibration files


def test_load_fibration_with_kodaira_refs():
    data = {
        "genus": 1,
        "base_genus": 0,
        "germs": (
            [{"monodromy": "kodaira:I_1", "neighborhood_signature": 0, "label": f"f{k}"}
             for k in range(6)]
        ),
    }
    # six I_1 germs alone do not close; interleave the complementary letters
    fd_half = load_fibration(data)
    assert len(fd_half.germs) == 6
    assert fd_half.germs[0].label == "f0"
    assert local_signature(fd_half.germs[0], 1) == Fraction(-2, 3)


@pytest.mark.parametrize("types", [["I_0*", "I_0*"], ["II*", "II"]])
def test_kodaira_germs_carry_their_neighborhood_signature(types):
    """Two fibrations of E(1): two I_0* fibres, and II* with II.  With Sign(N) = -(c - 1) read off each type the totals are the
    signature -8 of E(1), and with its Euler number 12 the geography is
    K^2 = 0, chi_h = 1.  A file value that agrees is accepted."""
    germs = [{"monodromy": f"kodaira:{name}"} for name in types]
    fd = load_fibration({"genus": 1, "base_genus": 0, "germs": germs})
    assert [germ.neighborhood_signature for germ in fd.germs] == [
        kodaira_neighborhood_signature(name) for name in types
    ]
    assert total_signature(fd) == -8
    assert geography_invert(total_signature(fd), 12) == (0, 1)
    for germ, name in zip(germs, types):
        germ["neighborhood_signature"] = kodaira_neighborhood_signature(name)
    assert total_signature(load_fibration({"genus": 1, "base_genus": 0, "germs": germs})) == -8


def test_kodaira_neighborhood_signature_that_disagrees_is_a_parse_error():
    for name, value in (("I_0*", 0), ("II*", -9), ("I_1", 1), ("IV", -3)):
        germ = {"monodromy": f"kodaira:{name}", "neighborhood_signature": value}
        with pytest.raises(ParseError, match=re.escape(f"disagrees with 'kodaira:{name}'")):
            load_fibration({"genus": 1, "base_genus": 0, "germs": [germ]})


def test_load_fibration_word_monodromies(genus2):
    data = {
        "genus": 2,
        "base_genus": 0,
        "germs": [
            {"monodromy": "c1 c2 c1^-1", "neighborhood_signature": 1, "label": "twist"},
            {"monodromy": "c1 c2^-1 c1^-1", "label": "untwist"},
        ],
    }
    fd = load_fibration(data)
    assert fd.germs[0].neighborhood_signature == 1
    assert fd.germs[1].neighborhood_signature == 0
    assert total_signature(fd) == 1  # phi values cancel, neighborhoods remain


def test_load_fibration_caps_the_letters_of_all_germs():
    # the germ words count as one word: 10 000 letters in all load, one
    # more is refused (a ValueError, exit 1, not a parse error)
    def fibration(words):
        return {"genus": 1, "base_genus": 0, "germs": [{"monodromy": w} for w in words]}

    fd = load_fibration(fibration(["a^4000", "b^-5999", "A"]))
    assert sum(len(germ.monodromy) for germ in fd.germs) == 10_000
    with pytest.raises(ValueError, match="caps words at 10000 letters") as info:
        load_fibration(fibration(["a^4000", "b^-5999", "A B"]))
    assert not isinstance(info.value, ParseError)


def _per_germ_local_signatures(fd):
    """The local signatures by their definition: one phi call per germ."""
    phi = meyer_function(fd.genus)
    return [phi(germ.monodromy) + germ.neighborhood_signature for germ in fd.germs]


GENUS1_TYPES = ("I_1", "I_2", "II", "IV", "I_0*", "III*", "I_3*")


@pytest.mark.parametrize("seed", range(6))
def test_local_signatures_per_distinct_word_match_the_per_germ_definition_at_genus_1(seed, sl2z):
    """Repeated Kodaira types, conjugated words, and one word under several
    labels and neighborhood signatures, read and evaluated once per distinct
    word, give every germ what reading and evaluating it alone gives."""
    rng = random.Random(seed)
    shared = format_word(random_word(sl2z, rng, max_len=6), sl2z.generator_names)
    conjugators = [random_word(sl2z, rng, max_len=3) for _ in range(2)]
    germs, expected = [], []
    for k in range(30):
        kind = rng.randrange(3)
        if kind == 0:
            fiber_type = rng.choice(GENUS1_TYPES)
            germs.append({"monodromy": f"kodaira:{fiber_type}"})
            expected.append((kodaira_word(fiber_type), kodaira_neighborhood_signature(fiber_type)))
        elif kind == 1:
            x = rng.choice(conjugators)
            word = x * sl2z.word(rng.choice(("a", "b^-1", "a b"))) * x.inverse()
            germs.append({"monodromy": format_word(word, sl2z.generator_names), "label": f"conjugate {k}"})
            expected.append((word, 0))
        else:
            signature = rng.randint(-3, 3)
            germs.append({"monodromy": shared, "neighborhood_signature": signature, "label": f"s{k}"})
            expected.append((sl2z.word(shared), signature))
    fd = load_fibration({"genus": 1, "base_genus": 1, "germs": germs})
    assert [(germ.monodromy, germ.neighborhood_signature) for germ in fd.germs] == expected
    assert [germ.label for germ in fd.germs] == [germ.get("label", "") for germ in germs]
    assert local_signatures(fd) == _per_germ_local_signatures(fd)
    words = [germ.monodromy for germ in fd.germs]
    assert signature_over_surface(1, words) == sum(meyer_function(1)(w) for w in words)


@pytest.mark.parametrize("seed", range(6))
def test_local_signatures_per_distinct_word_match_the_per_germ_definition_at_genus_2(seed, genus2):
    """The chain relation (c1 ... c5)^6 = 1 as 30 germs c_i^-1, conjugated by
    one random word and built as separate, equal Word objects."""
    rng = random.Random(seed)
    x = random_word(genus2, rng, max_len=4)
    germs = tuple(
        FiberGerm(x * Word([(4 - k % 5, -1)]) * x.inverse(), rng.randint(-2, 2), f"c{k}")
        for k in range(30)
    )
    fd = FibrationDescription(genus2, 0, germs)
    assert local_signatures(fd) == _per_germ_local_signatures(fd)
    assert total_signature(fd) == -18 + sum(germ.neighborhood_signature for germ in germs)
    words = [germ.monodromy for germ in germs]
    assert signature_over_surface(2, words) == sum(meyer_function(2)(w) for w in words) == -18


def test_load_fibration_errors(tmp_path):
    with pytest.raises(ParseError, match="missing field"):
        load_fibration({"genus": 1})
    with pytest.raises(UnsupportedGenusError):
        load_fibration({"genus": 3, "base_genus": 0, "germs": []})
    with pytest.raises(ParseError, match="only defined at genus 1"):
        load_fibration(
            {"genus": 2, "base_genus": 0, "germs": [{"monodromy": "kodaira:I_1"}]}
        )
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ParseError, match="offset"):
        load_fibration(bad)


@pytest.mark.parametrize(
    "field, value",
    [
        ("neighborhood_signature", 0.5),
        ("neighborhood_signature", "x"),
        ("neighborhood_signature", True),
        ("base_genus", 0.7),
        ("base_genus", None),
        ("genus", True),
        ("genus", 1.0),
    ],
)
def test_load_fibration_rejects_non_integer_fields(field, value):
    data = {"genus": 1, "base_genus": 0, "germs": [{"monodromy": "a"}]}
    if field == "neighborhood_signature":
        data["germs"][0][field] = value
    else:
        data[field] = value
    with pytest.raises(ParseError, match=f"'{field}' must be an integer"):
        load_fibration(data)


@pytest.mark.parametrize(
    "germs",
    [5, "a", [5], [{"monodromy": 5}], [{"monodromy": ["a"]}], [{"monodromy": None}]],
)
def test_load_fibration_rejects_malformed_germs(germs):
    with pytest.raises(ParseError):
        load_fibration({"genus": 1, "base_genus": 0, "germs": germs})


@pytest.mark.parametrize("label", [None, 5, 1.5, True, {"a": 1}])
def test_load_fibration_rejects_non_string_label(label):
    data = {"genus": 1, "base_genus": 0, "germs": [{"monodromy": "a", "label": label}]}
    with pytest.raises(ParseError, match="'label' must be a string"):
        load_fibration(data)


@pytest.mark.parametrize("source", ["[1, 2]", "3"])
def test_load_fibration_rejects_json_that_is_not_an_object(tmp_path, source):
    path = tmp_path / "fib.json"
    path.write_text(source)
    with pytest.raises(ParseError, match="^fibration JSON must be an object, got "):
        load_fibration(path)
    if source.startswith("["):
        with pytest.raises(ParseError, match="^fibration JSON must be an object, got list"):
            load_fibration(json.loads(source))


def test_load_fibration_presentation_genus_must_match():
    with pytest.raises(ParseError, match="genus-1 presentation, not genus 2"):
        load_fibration({"genus": 2, "base_genus": 0, "germs": []}, shipped_presentation(1))


def test_load_fibration_reads_its_germs_over_the_given_presentation():
    names = ("x", "y")
    p = Presentation(1, names, shipped_presentation(1).matrices, ())
    fd = load_fibration({"genus": 1, "base_genus": 1, "germs": [{"monodromy": "x y X"}]}, p)
    assert fd.presentation is p
    assert fd.germs[0].monodromy == Word([(0, 1), (1, 1), (0, -1)])


def test_load_fibration_from_file(tmp_path):
    path = tmp_path / "twelve.json"
    germs = []
    for k in range(6):
        germs.append({"monodromy": "kodaira:I_1", "label": f"u{k}"})
        germs.append({"monodromy": "b^-1", "label": f"v{k}"})
    path.write_text(json.dumps({"genus": 1, "base_genus": 0, "germs": germs}))
    fd = load_fibration(path)
    assert total_signature(fd) == -8
