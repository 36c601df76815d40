"""Signature bookkeeping for fibered 4-manifolds of fiber genus 1 and 2.

The local signature of a fiber germ is

    sigma_g(germ) = phi_g(boundary monodromy) + Sign(preimage of the disk)

where phi_g is the Meyer function (closed form at genus 1, synthesized
from the presentation at genus 2) and the neighborhood signature is
caller-supplied data.  A FibrationDescription carries the presentation
its germ words use; a function given only a genus uses the shipped one.
Local signatures vanish on general fibers and sum to the signature of a
closed total space, which is where all the cross-checks in this module
live.  Closedness is checked on the product matrix over a sphere base,
and over a base of positive genus in the abelianization of the presented
group, which relaxes "a product of h commutators" to "trivial in H_1".
Euler contributions, the hyperelliptic Horikawa-index identities, and the
Hirzebruch/Noether geography conversions are included so that whole
numerical budgets of a fibration can be balanced exactly.

Genus 3 and up is refused outright: the signature class has infinite
order there, so no Meyer function exists.
"""

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from importlib import resources
from pathlib import Path

from .errors import ParseError, UnsupportedGenusError
from .genus1 import phi1
from .matrix import parse_int, parse_matrix
from .presentations import (
    SHIPPED_FILES,
    Presentation,
    Word,
    _abelianizes_to_zero,
    check_word_length,
    evaluate_word,
    json_int,
    load_presentation,
    read_json,
    shipped_presentation,
)
from .symplectic import SymplecticMatrix

SUPPORTED_GENERA = (1, 2)


@dataclass(frozen=True)
class FiberGerm:
    """A singular-fiber germ: boundary monodromy word (counter-clockwise),
    the signature of the fiber's disk neighborhood, and a display label."""

    monodromy: Word
    neighborhood_signature: int = 0
    label: str = ""


@dataclass(frozen=True)
class FibrationDescription:
    """A fibered 4-manifold over a closed base: the presentation whose
    generators the germ words use (its genus is the fiber genus), the base
    genus, and one germ per singular fiber."""

    presentation: Presentation
    base_genus: int
    germs: tuple[FiberGerm, ...] = ()

    def __post_init__(self):
        if self.genus not in SUPPORTED_GENERA:
            raise UnsupportedGenusError(_no_meyer_message(self.genus))
        if self.base_genus < 0:
            raise ValueError("base genus must be >= 0")

    @property
    def genus(self) -> int:
        return self.presentation.genus


def _no_meyer_message(g: int) -> str:
    if g >= 3:
        return (
            f"no Meyer function exists at genus {g}: the signature class "
            "has infinite order for genus >= 3"
        )
    return f"unsupported fiber genus {g}: Meyer functions exist at genus 1 and 2 only"


def _meyer_of(p: Presentation):
    """phi on words over p: closed form at genus 1, synthesized at genus 2."""
    if p.genus == 1:
        return lambda w: phi1(evaluate_word(w, p))
    return p.meyer_function


def meyer_function(g: int):
    """phi_g on words over the shipped genus-g generators."""
    if g not in SUPPORTED_GENERA:
        raise UnsupportedGenusError(_no_meyer_message(g))
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
    return chi_singular_fiber - (2 - 2 * g)


def total_euler(g: int, base_genus: int, contributions) -> int:
    """chi of the total space: (2-2g)(2-2g_B) plus the germ contributions."""
    return (2 - 2 * g) * (2 - 2 * base_genus) + sum(contributions)


def sigma_alg_hyperelliptic(h_index, eps: int, g: int) -> Fraction:
    """The algebro-geometric local signature of a hyperelliptic fiber germ:
    (g*H - (g+1)*eps) / (2g+1)."""
    if g < 1:
        raise ValueError("genus must be >= 1")
    return Fraction(g * Fraction(h_index) - (g + 1) * eps, 2 * g + 1)


def horikawa_total(k_rel_sq: int, chi_f, g: int) -> Fraction:
    """Total Horikawa index of a hyperelliptic fibration:
    K^2_{E/B} - (4(g-1)/g) * chi_f."""
    if g < 2:
        raise ValueError("the Horikawa-index identity needs genus >= 2")
    return Fraction(k_rel_sq) - Fraction(4 * (g - 1), g) * Fraction(chi_f)


def geography_convert(k_sq, chi_struct) -> tuple[Fraction, Fraction]:
    """(Sign(E), chi_top(E)) from (K^2, chi(O)), via Hirzebruch and Noether:
    chi_top = 12 chi(O) - K^2 and Sign = K^2 - 8 chi(O)."""
    k_sq, chi_struct = Fraction(k_sq), Fraction(chi_struct)
    return k_sq - 8 * chi_struct, 12 * chi_struct - k_sq


def geography_invert(sign, chi_top) -> tuple[Fraction, Fraction]:
    """(K^2, chi(O)) from (Sign(E), chi_top(E)); inverse of geography_convert."""
    sign, chi_top = Fraction(sign), Fraction(chi_top)
    return 3 * sign + 2 * chi_top, Fraction(sign + chi_top, 4)


def hyperelliptic_twist_value(g: int, separating_h: int | None = None) -> Fraction:
    """Value of the hyperelliptic Meyer function on a right-handed twist.

    (g+1)/(2g+1) along a non-separating curve; -4h(g-h)/(2g+1) along a
    curve separating off a genus-h piece (1 <= h <= g-1).
    """
    if g < 1:
        raise ValueError("genus must be >= 1")
    if separating_h is None:
        return Fraction(g + 1, 2 * g + 1)
    if not 1 <= separating_h <= g - 1:
        raise ValueError(f"separating genus h={separating_h} must satisfy 1 <= h <= {g - 1}")
    return Fraction(-4 * separating_h * (g - separating_h), 2 * g + 1)


# ---------------------------------------------------------------------------
# Kodaira monodromy table (genus 1)

_KODAIRA_FILE = "kodaira.json"


def _read_kodaira_table(source) -> dict:
    """A ``kodaira.json`` table: fiber type names to matrix strings."""
    table = read_json(source, "Kodaira table")
    if not all(isinstance(v, str) for v in table.values()):
        raise ParseError("the Kodaira table must map fiber types to matrix strings")
    return table


@cache
def _kodaira_table() -> dict:
    """The embedded Kodaira table, read once."""
    text = resources.files("meyersig.data").joinpath(_KODAIRA_FILE).read_text()
    return _read_kodaira_table(text)


def kodaira_matrix(fiber_type: str, table: dict | None = None) -> SymplecticMatrix:
    """Monodromy matrix of a named Kodaira fiber type (I_n, I_n*, II, ..., IV*).

    ``table`` is a parsed ``kodaira.json``; the embedded one by default.
    The table is normalized to this package's twist convention, under
    which an I_1 germ has monodromy [[1,-1],[0,1]] and twelve of them
    close up to an elliptic surface of signature -8.
    """
    if table is None:
        table = _kodaira_table()
    name = fiber_type.strip()
    n = None
    key = name
    if name not in table:
        starred = name.endswith("*")
        stem = name[:-1] if starred else name
        if stem.startswith("I_"):
            try:
                n = parse_int(stem[2:])
            except ParseError:
                raise ParseError(f"unknown Kodaira type {fiber_type!r}") from None
            if n < 0:
                raise ParseError(f"unknown Kodaira type {fiber_type!r}")
            key = "I_n*" if starred else "I_n"
        if key not in table:
            raise ParseError(f"unknown Kodaira type {fiber_type!r}")
    text = table[key] if n is None else re.sub(r"\bn\b", str(n), table[key])
    return SymplecticMatrix(parse_matrix(text), 1)


def kodaira_word(
    fiber_type: str, table: dict | None = None, presentation: Presentation | None = None
) -> Word:
    """A monodromy word over the genus-1 generators for a Kodaira type;
    ``table`` and ``presentation`` default to the embedded data."""
    return sl2_word(kodaira_matrix(fiber_type, table), presentation)


# ---------------------------------------------------------------------------
# SL(2;Z) words


def _sl2_st_factors(m: SymplecticMatrix) -> list[tuple[str, int]]:
    """Factor a genus-1 matrix as an ordered product of powers of S and T.

    Euclidean reduction on the first column: left-multiplications by
    T^{-q} and S^{-1} strictly shrink |c| until the matrix is +-T^b,
    which is S^2 T^b up to recording.  The recorded inverses, in order,
    multiply back to the input.
    """
    if m.g != 1:
        raise ValueError(f"expected genus 1, got genus {m.g}")
    (a, b), (c, d) = m.mat.rows
    applied: list[tuple[str, int]] = []
    while c != 0:
        q = a // c
        if q:
            a, b = a - q * c, b - q * d
            applied.append(("T", -q))
        a, b, c, d = c, d, -a, -b
        applied.append(("S", -1))
    if a == 1:
        if b:
            applied.append(("T", -b))
    else:
        applied.append(("S", -2))
        if -b:
            applied.append(("T", b))
    return [(sym, -exp) for sym, exp in applied]


def sl2_word(m: SymplecticMatrix, presentation: Presentation | None = None) -> Word:
    """A word in the genus-1 generators a, b of ``presentation`` (the
    shipped one by default) mapping to the matrix m.

    A word longer than MAX_WORD_LETTERS raises ValueError before its
    letters are built.
    """
    p = presentation or shipped_presentation(1)
    a_idx = p.generator_names.index("a")
    b_idx = p.generator_names.index("b")
    t_letter = ((a_idx, 1),)
    s_letters = ((a_idx, -1), (b_idx, -1), (a_idx, -1))  # S = (aba)^{-1}
    factors = [(t_letter if sym == "T" else s_letters, exp) for sym, exp in _sl2_st_factors(m)]
    check_word_length(sum(len(base) * abs(exp) for base, exp in factors))
    letters: list[tuple[int, int]] = []
    for base, exp in factors:
        if exp < 0:
            base = tuple((i, -s) for i, s in reversed(base))
        letters.extend(base * abs(exp))
    word = Word(letters)
    if evaluate_word(word, p) != m:
        raise ArithmeticError("SL(2;Z) word decomposition failed to reproduce the matrix")
    return word


# ---------------------------------------------------------------------------
# Fibration description files

_KODAIRA_PREFIX = "kodaira:"


def germ_from_dict(data: dict, presentation: Presentation, kodaira_table) -> FiberGerm:
    """One germ; ``kodaira_table()`` gives the Kodaira table and is called
    only for a ``kodaira:`` monodromy."""
    try:
        monodromy = data["monodromy"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"germ data is missing field {exc}") from None
    if not isinstance(monodromy, str):
        raise ParseError(f"field 'monodromy' must be a word string, got {monodromy!r}")
    if monodromy.startswith(_KODAIRA_PREFIX):
        if presentation.genus != 1:
            raise ParseError("Kodaira fiber references are only defined at genus 1")
        word = kodaira_word(monodromy[len(_KODAIRA_PREFIX):], kodaira_table(), presentation)
    else:
        word = presentation.word(monodromy)
    signature = json_int(data.get("neighborhood_signature", 0), "neighborhood_signature")
    label = data.get("label", "")
    if not isinstance(label, str):
        raise ParseError(f"field 'label' must be a string, got {label!r}")
    return FiberGerm(monodromy=word, neighborhood_signature=signature, label=label)


def load_fibration(source, data_dir=None) -> FibrationDescription:
    """Load a fibration description from a dict, JSON string, or file path.

    Germs are read against the genus's presentation and Kodaira table, the
    shipped ones or those in ``data_dir``, each read at most once.  The
    germ words together count as one word for :func:`check_word_length`:
    more than MAX_WORD_LETTERS letters in all raise ValueError while the
    germs are read, before any Meyer function or closedness walk."""
    data = read_json(source, "fibration")
    try:
        genus = json_int(data["genus"], "genus")
        base_genus = json_int(data["base_genus"], "base_genus")
        germs = data["germs"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"fibration data is missing field {exc}") from None
    if not isinstance(germs, list):
        raise ParseError(f"field 'germs' must be a list, got {germs!r}")
    if genus not in SUPPORTED_GENERA:
        raise UnsupportedGenusError(_no_meyer_message(genus))
    if data_dir is None:
        p, kodaira_table = shipped_presentation(genus), _kodaira_table
    else:
        path = Path(data_dir) / SHIPPED_FILES[genus]
        p = load_presentation(path)
        if p.genus != genus:
            raise ParseError(f"{path} holds a genus-{p.genus} presentation, not genus {genus}")
        kodaira_table = cache(lambda: _read_kodaira_table(Path(data_dir) / _KODAIRA_FILE))
    parsed, letters = [], 0
    for g in germs:
        parsed.append(germ_from_dict(g, p, kodaira_table))
        letters += len(parsed[-1].monodromy)
        check_word_length(letters)  # the germ words together count as one word
    return FibrationDescription(p, base_genus, tuple(parsed))
