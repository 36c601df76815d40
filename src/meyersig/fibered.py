"""Signature bookkeeping for fibered 4-manifolds.

The local signature of a fiber germ is

    sigma_g(germ) = phi_g(boundary monodromy) + Sign(preimage of the disk)

where phi_g is the Meyer function (closed form at genus 1, synthesized
from the presentation at any other genus) and the neighborhood signature
is caller-supplied data, except for a Kodaira fiber named by its type,
whose c components give -(c - 1).  A FibrationDescription carries the presentation
its germ words use; a function given only a genus, and a fibration file,
use the shipped one.
Local signatures vanish on general fibers and sum to the signature of a
closed total space, which is where all the cross-checks in this module
live.  Closedness is checked on the product matrix over a sphere base,
and over a base of positive genus in the abelianization of the presented
group, which relaxes "a product of h commutators" to "trivial in H_1".
Euler contributions, the hyperelliptic Horikawa-index identities, and the
Hirzebruch/Noether geography conversions are included so that whole
numerical budgets of a fibration can be balanced exactly.

The fiber genus is checked once, by the table of shipped files in
:mod:`meyersig.presentations`, wherever a genus alone names the
presentation.  A FibrationDescription checks only its base genus; over a
presentation of infinite class order it raises InfiniteOrderError when
its Meyer function is first needed.
"""

from fractions import Fraction
from pathlib import Path

from .errors import ParseError
from .genus1 import _rational, phi1
from .matrix import parse_int
from .presentations import (
    Presentation,
    Word,
    _abelianizes_to_zero,
    _shipped_file,
    check_word_length,
    evaluate_word,
    json_int,
    load_presentation,
    read_json,
    shipped_presentation,
)
from .symplectic import SymplecticMatrix, _int_genus
from .value import Value


class FiberGerm(Value):
    """A singular-fiber germ: boundary monodromy word (counter-clockwise),
    the signature of the fiber's disk neighborhood, and a display label."""

    __slots__ = _fields = ("monodromy", "neighborhood_signature", "label")

    def __init__(self, monodromy: Word, neighborhood_signature: int = 0, label: str = ""):
        object.__setattr__(self, "monodromy", monodromy)
        object.__setattr__(self, "neighborhood_signature", neighborhood_signature)
        object.__setattr__(self, "label", label)


class FibrationDescription(Value):
    """A fibered 4-manifold over a closed base: the presentation whose
    generators the germ words use (its genus is the fiber genus), the base
    genus, and one germ per singular fiber."""

    __slots__ = _fields = ("presentation", "base_genus", "germs")

    def __init__(self, presentation: Presentation, base_genus: int, germs: tuple[FiberGerm, ...] = ()):
        if _int_genus(base_genus, "base genus") < 0:
            raise ValueError("base genus must be >= 0")
        object.__setattr__(self, "presentation", presentation)
        object.__setattr__(self, "base_genus", base_genus)
        object.__setattr__(self, "germs", germs)

    @property
    def genus(self) -> int:
        return self.presentation.genus


def _meyer_of(p: Presentation):
    """phi on words over p: closed form at genus 1, synthesized at any
    other genus (InfiniteOrderError if p's class order is infinite)."""
    if p.genus == 1:
        return lambda w: phi1(evaluate_word(w, p))
    return p.meyer_function


def meyer_function(g: int):
    """phi_g on words over the shipped genus-g generators."""
    return _meyer_of(shipped_presentation(g))


def signature_over_surface(g: int, boundary_monodromies) -> Fraction:
    """Signature of a genus-g bundle over a compact surface with boundary:
    the sum of phi_g over the boundary monodromies (zero for no boundary)."""
    phi = meyer_function(g)
    return sum((phi(w) for w in boundary_monodromies), Fraction(0))


def local_signature(germ: FiberGerm, g: int) -> Fraction:
    """phi_g(monodromy) + neighborhood signature; conjugation-invariant."""
    return meyer_function(g)(germ.monodromy) + germ.neighborhood_signature


def local_signatures(fd: FibrationDescription) -> list[Fraction]:
    """The local signature of each germ of fd, all from one Meyer function."""
    phi = _meyer_of(fd.presentation)
    return [phi(germ.monodromy) + germ.neighborhood_signature for germ in fd.germs]


def total_signature(fd: FibrationDescription) -> int:
    """Sum of local signatures over all germs of a closed fibration;
    raises as closed_total does."""
    return closed_total(fd, local_signatures(fd))


def closed_total(fd: FibrationDescription, local_values) -> int:
    """The sum of the local signatures ``local_values`` of fd's germs.

    Raises if the germs fail the closedness check, or if the sum is not an
    integer, which signals inconsistent input data.  Over a sphere the
    germ monodromies must multiply to the identity matrix.  Over a base of
    genus h >= 1 their product must be a product of h commutators;
    commutator length is not decided, so this checks only that the
    product is trivial in the abelianization of fd's presented group:
    its summed exponent vector lies in the relators' exponent lattice.
    The sphere check is one :func:`evaluate_word` walk over the germ
    words' letters in order.
    """
    if fd.base_genus == 0:
        letters = [letter for germ in fd.germs for letter in germ.monodromy.letters]
        if evaluate_word(Word(letters), fd.presentation) != SymplecticMatrix.identity(fd.genus):
            raise ValueError(
                "closedness check failed: germ monodromies do not multiply "
                "to the identity over a sphere base"
            )
    elif not _abelianizes_to_zero(fd.presentation, [germ.monodromy for germ in fd.germs]):
        raise ValueError(
            "closedness check failed: the product of germ monodromies is "
            "not a product of commutators in the presented group"
        )
    total = sum(local_values, Fraction(0))
    if total.denominator != 1:
        raise ValueError(f"total signature {total} is not an integer; germ data inconsistent")
    return int(total)


def euler_contribution(chi_singular_fiber: int, g: int) -> int:
    """chi of the singular fiber minus chi of a smooth genus-g fiber."""
    if _int_genus(g, "fiber genus") < 0:
        raise ValueError("fiber genus must be >= 0")
    return chi_singular_fiber - (2 - 2 * g)


def total_euler(g: int, base_genus: int, contributions) -> int:
    """chi of the total space: (2-2g)(2-2g_B) plus the germ contributions."""
    if _int_genus(g, "fiber genus") < 0 or _int_genus(base_genus, "base genus") < 0:
        raise ValueError(f"{'fiber' if g < 0 else 'base'} genus must be >= 0")
    return (2 - 2 * g) * (2 - 2 * base_genus) + sum(contributions)


def sigma_alg_hyperelliptic(h_index, eps: int, g: int) -> Fraction:
    """The algebro-geometric local signature of a hyperelliptic fiber germ:
    (g*H - (g+1)*eps) / (2g+1)."""
    if _int_genus(g) < 1:
        raise ValueError("genus must be >= 1")
    return Fraction(g * _rational(h_index) - (g + 1) * _rational(eps), 2 * g + 1)


def horikawa_total(k_rel_sq: int, chi_f, g: int) -> Fraction:
    """Total Horikawa index of a hyperelliptic fibration:
    K^2_{E/B} - (4(g-1)/g) * chi_f."""
    if _int_genus(g) < 2:
        raise ValueError("the Horikawa-index identity needs genus >= 2")
    return _rational(k_rel_sq) - Fraction(4 * (g - 1), g) * _rational(chi_f)


def geography_convert(k_sq, chi_struct) -> tuple[Fraction, Fraction]:
    """(Sign(E), chi_top(E)) from (K^2, chi(O)), via Hirzebruch and Noether:
    chi_top = 12 chi(O) - K^2 and Sign = K^2 - 8 chi(O)."""
    k_sq, chi_struct = _rational(k_sq), _rational(chi_struct)
    return k_sq - 8 * chi_struct, 12 * chi_struct - k_sq


def geography_invert(sign, chi_top) -> tuple[Fraction, Fraction]:
    """(K^2, chi(O)) from (Sign(E), chi_top(E)); inverse of geography_convert."""
    sign, chi_top = _rational(sign), _rational(chi_top)
    return 3 * sign + 2 * chi_top, Fraction(sign + chi_top, 4)


def hyperelliptic_twist_value(g: int, separating_h: int | None = None) -> Fraction:
    """Value of the hyperelliptic Meyer function on a right-handed twist.

    (g+1)/(2g+1) along a non-separating curve; -4h(g-h)/(2g+1) along a
    curve separating off a genus-h piece (1 <= h <= g-1), so genus 1,
    whose separating curves all bound discs, has none.
    """
    if _int_genus(g) < 1:
        raise ValueError("genus must be >= 1")
    if separating_h is None:
        return Fraction(g + 1, 2 * g + 1)
    if g == 1:
        raise ValueError("genus 1 has no separating curve: h must satisfy 1 <= h <= g - 1")
    if not 1 <= _int_genus(separating_h, "separating genus h") <= g - 1:
        raise ValueError(f"separating genus h={separating_h} must satisfy 1 <= h <= {g - 1}")
    return Fraction(-4 * separating_h * (g - separating_h), 2 * g + 1)


# ---------------------------------------------------------------------------
# Kodaira monodromy table (genus 1)

# The named types, in this package's twist convention: an I_1 germ has
# monodromy [[1,-1],[0,1]], and twelve of them close up to an elliptic
# surface of signature -8.  Each carries Kodaira's Euler number e and
# component count c.
_KODAIRA = {
    "II": (((1, -1), (1, 0)), 2, 1),
    "III": (((0, -1), (1, 0)), 3, 2),
    "IV": (((0, -1), (1, -1)), 4, 3),
    "IV*": (((-1, 1), (-1, 0)), 8, 7),
    "III*": (((0, 1), (-1, 0)), 9, 8),
    "II*": (((0, 1), (-1, 1)), 10, 9),
}


def _kodaira_type(fiber_type: str) -> tuple[tuple, int, int]:
    """(monodromy rows, e, c) of a named Kodaira fiber type: II, III, IV,
    IV*, III*, II* from the table above; I_n = [[1,-n],[0,1]] with e = n
    and c = n (c = 1 at n = 0, the smooth fiber); and I_n* = -I_n with
    e = n + 6 and c = n + 5, for n >= 0 an integer token for
    :func:`parse_int`."""
    name = fiber_type.strip()
    if name in _KODAIRA:
        return _KODAIRA[name]
    starred = name.endswith("*")
    stem = name[:-1] if starred else name
    try:
        n = parse_int(stem[2:]) if stem.startswith("I_") else -1
    except ParseError:
        n = -1
    if n < 0:
        raise ParseError(f"unknown Kodaira type {fiber_type!r}")
    if starred:
        return ((-1, n), (0, -1)), n + 6, n + 5
    return ((1, -n), (0, 1)), n, max(n, 1)


def kodaira_matrix(fiber_type: str) -> SymplecticMatrix:
    """Monodromy matrix of a named Kodaira fiber type (:func:`_kodaira_type`)."""
    return SymplecticMatrix(_kodaira_type(fiber_type)[0], 1)


def kodaira_neighborhood_signature(fiber_type: str) -> int:
    """Sign(N) = -(c - 1) for the disk neighborhood N of a Kodaira fiber
    with c components: N retracts onto the fiber, whose intersection form
    on its components is negative semi-definite with a one-dimensional
    radical (Kodaira 1963)."""
    return 1 - _kodaira_type(fiber_type)[2]


def kodaira_word(fiber_type: str, presentation: Presentation | None = None) -> Word:
    """A monodromy word for a Kodaira type over ``presentation``'s
    genus-1 generators, the shipped ones by default."""
    return sl2_word(kodaira_matrix(fiber_type), presentation)


# ---------------------------------------------------------------------------
# SL(2;Z) words


_T = ((1, 0), 1)  # the twist along A_1 with lam = 1: [[1,1],[0,1]]
_L = ((0, 1), 1)  # the twist along B_1 with lam = 1: [[1,0],[-1,1]]


def sl2_word(m: SymplecticMatrix, presentation: Presentation | None = None) -> Word:
    """A word over ``presentation`` (the shipped genus-1 one by default)
    mapping to the genus-1 matrix m, in the letters, whatever their names
    or signs, whose matrices are T = [[1,1],[0,1]] and L = [[1,0],[-1,1]].

    Euclid on the first column (a, c), from the left: T^-q with
    q = a // c while |a| > |c| (T when a = 0), and L^q with q = c // a
    while 0 < |a| <= |c|, until c = 0 leaves T^b or -T^-b = (T L)^3 T^-b.
    The letters are counted by :func:`check_word_length` before any is built.
    """
    if m.g != 1:
        raise ValueError(f"expected genus 1, got genus {m.g}")
    p = presentation or shipped_presentation(1)
    twists = {twist[:2]: letter for letter, twist in p._twists.items() if twist}
    if _T not in twists or _L not in twists:
        raise ValueError("SL(2;Z) words need letters for T = [[1,1],[0,1]] and L = [[1,0],[-1,1]]")
    t, l = twists[_T], twists[_L]
    (a, b), (c, d) = m.rows
    factors = []  # (letter, k): the inverse of each step, so that their product is m
    while c:
        if abs(a) > abs(c):
            q = a // c
            a, b = a - q * c, b - q * d
            factors.append((t, q))
        elif a == 0:
            a, b = c, b + d
            factors.append((t, -1))
        else:
            q = c // a
            c, d = c - q * a, d - q * b
            factors.append((l, -q))
    if a == -1:
        factors += [(t, 1), (l, 1)] * 3
        b = -b
    factors.append((t, b))
    check_word_length(sum(abs(k) for _, k in factors))
    word = Word([(i, s if k > 0 else -s) for (i, s), k in factors for _ in range(abs(k))])
    if evaluate_word(word, p) != m:
        raise ArithmeticError("SL(2;Z) word decomposition failed to reproduce the matrix")
    return word


# ---------------------------------------------------------------------------
# Fibration description files

_KODAIRA_PREFIX = "kodaira:"


def germ_from_dict(data: dict, presentation: Presentation) -> FiberGerm:
    """One germ, its words over ``presentation``.  A ``kodaira:`` germ
    takes the neighborhood signature of its type
    (:func:`kodaira_neighborhood_signature`), and a file value that
    disagrees is a ParseError; any other germ defaults to 0."""
    try:
        monodromy = data["monodromy"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"germ data is missing field {exc}") from None
    if not isinstance(monodromy, str):
        raise ParseError(f"field 'monodromy' must be a word string, got {monodromy!r}")
    kodaira = monodromy.startswith(_KODAIRA_PREFIX)
    default = 0
    if kodaira:
        if presentation.genus != 1:
            raise ParseError("Kodaira fiber references are only defined at genus 1")
        fiber_type = monodromy[len(_KODAIRA_PREFIX):]
        word = kodaira_word(fiber_type, presentation)
        default = kodaira_neighborhood_signature(fiber_type)
    else:
        word = presentation.word(monodromy)
    signature = json_int(data.get("neighborhood_signature", default), "neighborhood_signature")
    if kodaira and signature != default:
        raise ParseError(
            f"neighborhood_signature {signature} disagrees with {monodromy!r}, "
            f"whose neighborhood has signature {default}"
        )
    label = data.get("label", "")
    if not isinstance(label, str):
        raise ParseError(f"field 'label' must be a string, got {label!r}")
    return FiberGerm(monodromy=word, neighborhood_signature=signature, label=label)


def load_fibration(source, data_dir=None) -> FibrationDescription:
    """Load a fibration description from a dict, JSON string, or file path.

    Germs are read against the genus's presentation, the shipped one or
    the one in ``data_dir``, read once.  The germ words together count as
    one word for :func:`check_word_length`: more than MAX_WORD_LETTERS
    letters in all raise ValueError while the germs are read, before any
    Meyer function or closedness walk."""
    data = read_json(source, "fibration")
    try:
        genus = json_int(data["genus"], "genus")
        base_genus = json_int(data["base_genus"], "base_genus")
        germs = data["germs"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"fibration data is missing field {exc}") from None
    if not isinstance(germs, list):
        raise ParseError(f"field 'germs' must be a list, got {germs!r}")
    if data_dir is None:
        p = shipped_presentation(genus)
    else:
        path = Path(data_dir) / _shipped_file(genus)
        p = load_presentation(path)
        if p.genus != genus:
            raise ParseError(f"{path} holds a genus-{p.genus} presentation, not genus {genus}")
    parsed, letters = [], 0
    for g in germs:
        parsed.append(germ_from_dict(g, p))
        letters += len(parsed[-1].monodromy)
        check_word_length(letters)  # the germ words together count as one word
    return FibrationDescription(p, base_genus, tuple(parsed))
