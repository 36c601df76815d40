"""The three workloads: seeded inputs, one operation each, exact checks.

Every input is built by ``build(seed, ...)`` before any timing starts; an
operation then calls meyersig's public functions on those inputs only.
Functions are looked up on the package modules at call time, so the
tracer's wrappers see the calls.  Each workload records why it was chosen
and which layer metric should move which end-to-end metric on it.

A run builds a fresh pool for each pass from (seed, pass index), so no
input repeats within a run.  Input mixes are stratified rather than drawn
independently (exact genus thirds, word lengths dealt from shuffled decks,
|c| spread over fixed log-scale bins, one of each README command per deck)
so that the cost of a pool varies little from seed to seed.
"""

import io
import json
import random
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import meyersig as ms
from meyersig import cli, presentations

import reference as ref


def _deck(rng, values, count):
    """``count`` values dealt from repeatedly shuffled copies of ``values``."""
    out = []
    while len(out) < count:
        hand = list(values)
        rng.shuffle(hand)
        out.extend(hand)
    return out[:count]


def _spread(rng, lo, hi, count):
    """``count`` integers evenly spaced over [lo, hi), in shuffled order."""
    out = [lo + (hi - lo) * (2 * i + 1) // (2 * count) for i in range(count)]
    rng.shuffle(out)
    return out


def _rows(m):
    return tuple(e for row in m.mat.rows for e in row)


# ---------------------------------------------------------------------------
# cocycle_triples


class CocycleTriples:
    name = "cocycle_triples"
    why = (
        "Random triples at g = 1, 2, 3 checked by the cocycle axioms: exact and cocycle hold "
        "most self time; presentations, genus1 and cli are bypassed."
    )
    predicts = (
        "exact.*.self_s and cocycle.tau_sp.self_s move ops_per_s and op_p90_ms here (p90 is set "
        "by the g = 3 triples); presentations.cochain_c, symplectic.mul/inverse and "
        "genus1.dedekind_sum changes should leave this workload unchanged."
    )
    pool = 99  # 33 triples per genus: each word length 0-10 is dealt 9 times per genus
    lengths = range(0, 11)

    def build(self, seed, size=None):
        rng = random.Random(seed)
        n = size or self.pool
        decks = {g: _deck(rng, self.lengths, 3 * -(-n // 3)) for g in (1, 2, 3)}
        ops = []
        for k in range(n):
            g = 1 + k % 3
            a, b, c = (
                ms.random_symplectic(g, decks[g].pop(), rng.random()) for _ in range(3)
            )
            expected = ref.tau1(_rows(a), _rows(b)) if g == 1 else None
            ops.append((a, b, c, expected))
        return ops

    def execute(self, op):
        a, b, c, _ = op
        tau = ms.cocycle.tau_sp
        ab = a * b
        bc = b * c
        ci = c.inverse()
        t_ab = tau(a, b)
        return (
            t_ab,
            tau(ab, c),
            tau(a, bc),
            tau(b, c),
            tau(b, a),
            tau(a.inverse(), b.inverse()),
            tau(c * a * ci, c * b * ci),
        )

    def check(self, op, result):
        t_ab, t_ab_c, t_a_bc, t_bc, t_ba, t_inv, t_conj = result
        expected = op[3]
        return (
            t_ab + t_ab_c == t_a_bc + t_bc
            and t_ba == t_ab
            and t_inv == -t_ab
            and t_conj == t_ab
            and (expected is None or t_ab == expected)
        )


# ---------------------------------------------------------------------------
# meyer_words

_LOG_C_BINS = 21  # width-1/4 bins of log10|c| over [0, 5.25): |c| from 1 to ~1.8e5
_SEPARATING = ((0, 1), (1, 1)) * 6  # (c1 c2)^6, the twist on a separating curve


def _random_letters(rng, ngens, length):
    return [(rng.randrange(ngens), rng.choice((1, -1))) for _ in range(length)]


def _inverse_letters(letters):
    return [(i, -s) for i, s in reversed(letters)]


def _hyperbolic_word(rng, bin_index):
    """A word over {a, b^-1} whose |c| entry falls in the given log10 bin."""
    lo, hi = 10 ** (bin_index / 4), 10 ** ((bin_index + 1) / 4)
    while True:
        length = rng.randint(8, 28)
        p = rng.uniform(0.03, 0.97)
        letters = [(1, -1) if rng.random() < p else (0, 1) for _ in range(length)]
        m = (1, 0, 0, 1)
        for i, _ in letters:
            m = ref.mul2(m, ref.L if i == 1 else ref.T)
        if m[2] and lo <= m[2] < hi and m[0] + m[3] > 2:
            return letters, m


class MeyerWords:
    name = "meyer_words"
    why = (
        "Synthesized Meyer functions on genus-2 words and on genus-1 hyperbolic words checked "
        "against phi1: cochain_c (rank-1 B - I steps) and dedekind_sum set the time."
    )
    predicts = (
        "presentations.cochain_c.self_s, symplectic.mul and symplectic.inverse move ops_per_s "
        "here; genus1.dedekind_sum.total_s moves op_p90_ms and ops_per_s here. Neither should "
        "move cocycle_triples."
    )
    # One genus-2 op per GENUS1_PER_GENUS2 genus-1 ops splits the time about evenly.
    GENUS1_PER_GENUS2 = 3
    pool = 84  # 21 genus-2 words, and 63 genus-1 words: three per |c| bin
    G2_KINDS = ("random", "random", "twist", "sep")

    def build(self, seed, size=None):
        rng = random.Random(seed)
        n = size or self.pool
        n2 = max(1, n // (1 + self.GENUS1_PER_GENUS2))
        n1 = n - n2
        ops = [
            self._genus2_op(rng, length, self.G2_KINDS[i % 4])
            for i, length in enumerate(_spread(rng, 8, 65, n2))
        ]
        for b in _deck(rng, range(_LOG_C_BINS), n1):
            letters, m = _hyperbolic_word(rng, b)
            ops.append(("g1", ms.Word(letters), m, ref.phi1(m)))
        rng.shuffle(ops)
        return ops

    def _genus2_op(self, rng, length, kind):
        if kind == "random":
            letters = _random_letters(rng, 5, length)
            return ("g2", ms.Word(letters), None)
        core = [(rng.randrange(5), 1)] if kind == "twist" else list(_SEPARATING)
        value = Fraction(3, 5) if kind == "twist" else Fraction(-4, 5)
        if rng.random() < 0.5:
            core, value = _inverse_letters(core), -value
        x = _random_letters(rng, 5, max(0, (length - len(core)) // 2))
        return ("g2", ms.Word(x + core + _inverse_letters(x)), value)

    def execute(self, op):
        if op[0] == "g2":
            return ms.presentations.shipped_meyer_function(2)(op[1])
        word = op[1]
        m = ms.presentations.evaluate_word(word, ms.presentations.shipped_presentation(1))
        synthesized = ms.presentations.shipped_meyer_function(1)(word)
        return synthesized, ms.genus1.phi1(m), _rows(m)

    def check(self, op, result):
        if op[0] == "g2":
            word, value = op[1], op[2]
            exponent = sum(s for _, s in word.letters)
            # phi = -c + (3/5) * (total exponent) with c integral, since phi(c_i) = 3/5.
            lands = (result - Fraction(3 * exponent, 5)).denominator == 1
            return lands and (value is None or result == value)
        synthesized, closed, entries = result
        return entries == op[2] and synthesized == closed == op[3]


# ---------------------------------------------------------------------------
# cli_session

# One copy of each command of the README per deck, an unweighted mix: no
# usage data says how often each is run.  Commands with several targets
# take them in turn: order and phi alternate sl2z.json and genus2.json,
# local-sig cycles E(1), E(2) and the genus-2 chain relation.
_CLI_DECK = (
    "tau", "phi1", "dedekind", "rademacher", "order", "phi", "local-sig",
    "euler", "geo", "twist-value",
)
_TARGETS = {
    "order": ("order1", "order2"),
    "phi": ("phi1word", "phi2"),
    "local-sig": ("e1", "e2", "chain"),
}


def _matrix_text(rng, m):
    a, b, c, d = m
    if rng.random() < 0.5:
        return f"{a},{b};{c},{d}"
    return json.dumps([[a, b], [c, d]])


def _positional(*texts):
    """Matrix arguments, after "--" when one would read as an option."""
    return ["--", *texts] if any(t.startswith("-") for t in texts) else list(texts)


def _genus1_word_text(rng, length):
    """A random genus-1 word as CLI text, with its matrix."""
    tokens = []
    m = (1, 0, 0, 1)
    for _ in range(length):
        t = rng.choice("aAbB")
        tokens.append(t)
        m = ref.mul2(m, ref.GENUS1[t])
    return " ".join(tokens), m


def _sl2_random(rng, length):
    return _genus1_word_text(rng, length)[1]


def _genus2_text(letters):
    return " ".join(f"c{i + 1}" if s > 0 else f"c{i + 1}^-1" for i, s in letters)


class CliSession:
    name = "cli_session"
    why = (
        "In-process meyersig CLI calls on the README commands: the only workload reaching cli, "
        "matrix parsing, presentation loading, fibered and per-call re-synthesis."
    )
    predicts = (
        "presentations.synthesize_meyer.calls moves op_p90_ms here (order/phi re-synthesize "
        "per call) and setup_s everywhere; cli.main.self_s and matrix.parse_matrix move "
        "op_p50_ms here. Re-synthesis runs tau_sp on every relator, so exact.*.self_s and "
        "cocycle.tau_sp.self_s also move op_p90_ms and ops_per_s here."
    )
    pool = 60  # six decks: order and phi take each target three times, local-sig each twice

    def __init__(self, root: Path, workdir: Path):
        self.data = root / "src" / "meyersig" / "data"
        self.workdir = workdir

    def build(self, seed, size=None):
        rng = random.Random(seed)
        n = size or self.pool
        self.workdir.mkdir(parents=True, exist_ok=True)
        for old in self.workdir.glob("fibration-*.json"):
            old.unlink()
        ops, seen = [], Counter()
        for k, kind in enumerate(_deck(rng, _CLI_DECK, n)):
            # The j-th command of its kind: targets take turns instead of being drawn.
            targets = _TARGETS.get(kind, (kind.replace("-", "_"),))
            j = seen[kind]
            seen[kind] += 1
            make = getattr(self, "_" + targets[j % len(targets)])
            ops.append(make(rng, k, j // len(targets)))
        return ops

    def _tau(self, rng, k, j):
        x, y = _sl2_random(rng, rng.randint(0, 12)), _sl2_random(rng, rng.randint(0, 12))
        argv = ["tau", "-g", "1", *_positional(_matrix_text(rng, x), _matrix_text(rng, y))]
        return argv, ref.fmt(ref.tau1(x, y)) + "\n"

    def _phi1(self, rng, k, j):
        m = _sl2_random(rng, rng.randint(0, 16))
        return ["phi1", *_positional(_matrix_text(rng, m))], ref.fmt(ref.phi1(m)) + "\n"

    def _rademacher(self, rng, k, j):
        m = _sl2_random(rng, rng.randint(0, 16))
        return ["rademacher", *_positional(_matrix_text(rng, m))], ref.fmt(ref.rademacher(m)) + "\n"

    def _dedekind(self, rng, k, j):
        while True:
            a, c = rng.randint(-500, 500), rng.choice((-1, 1)) * rng.randint(1, 3000)
            if Fraction(a, c).denominator == abs(c):
                return ["dedekind", str(a), str(c)], ref.fmt(ref.dedekind(a, c)) + "\n"

    def _euler(self, rng, k, j):
        g, b = rng.randint(1, 4), rng.randint(0, 3)
        eps = [rng.randint(1, 3) for _ in range(rng.randint(0, 24))]
        expected = (2 - 2 * g) * (2 - 2 * b) + sum(eps)
        argv = ["euler", "-g", str(g), "-b", str(b), "--eps", *map(str, eps)]
        return argv, f"{expected}\n"

    def _geo(self, rng, k, j):
        ksq, chi = Fraction(rng.randint(-40, 40), rng.randint(1, 3)), rng.randint(1, 30)
        expected = f"sign={ref.fmt(ksq - 8 * chi)} chi_top={ref.fmt(12 * chi - ksq)}\n"
        return ["geo", f"--ksq={ksq}", "--chi-struct", str(chi)], expected

    def _twist_value(self, rng, k, j):
        g = rng.randint(1, 8)
        if g == 1 or rng.random() < 0.5:
            return ["twist-value", "-g", str(g), "--nonsep"], f"{ref.fmt(Fraction(g + 1, 2 * g + 1))}\n"
        h = rng.randint(1, g - 1)
        value = Fraction(-4 * h * (g - h), 2 * g + 1)
        return ["twist-value", "-g", str(g), "--sep", str(h)], f"{ref.fmt(value)}\n"

    def _order1(self, rng, k, j):
        return ["order", "-p", str(self.data / "sl2z.json")], "3\n"

    def _order2(self, rng, k, j):
        return ["order", "-p", str(self.data / "genus2.json")], "5\n"

    def _phi1word(self, rng, k, j):
        text, m = _genus1_word_text(rng, rng.randint(1, 16))
        return ["phi", "-p", str(self.data / "sl2z.json"), text], ref.fmt(ref.phi1(m)) + "\n"

    def _phi2(self, rng, k, j):
        core = [(rng.randrange(5), 1)] if j % 2 else list(_SEPARATING)
        value = Fraction(3, 5) if len(core) == 1 else Fraction(-4, 5)
        if rng.random() < 0.5:
            core, value = _inverse_letters(core), -value
        x = _random_letters(rng, 5, rng.randint(0, 8))
        text = _genus2_text(x + core + _inverse_letters(x))
        return ["phi", "-p", str(self.data / "genus2.json"), text], ref.fmt(value) + "\n"

    def _e1(self, rng, k, j):
        return self._elliptic(rng, k, 12)

    def _e2(self, rng, k, j):
        return self._elliptic(rng, k, 24)

    def _elliptic(self, rng, k, count):
        """E(1) or E(2): (a^-1 b^-1)^6 = 1 once or twice, conjugated by one random word."""
        x, _ = _genus1_word_text(rng, rng.randint(0, 2))
        inv = " ".join(t.swapcase() for t in reversed(x.split()))
        germs = []
        for i in range(count):
            if x:
                monodromy = f"{x} {'AB'[i % 2]} {inv}"
            else:
                monodromy = rng.choice((("kodaira:I_1", "A"), ("b^-1", "B"))[i % 2])
            germs.append({"monodromy": monodromy, "label": f"nodal {i}"})
        lines = [f"nodal {i}: -2/3" for i in range(count)]
        return self._fibration(k, 1, germs, lines, -2 * count // 3)

    def _chain(self, rng, k, j):
        """The genus-2 chain relation: 30 germs c_i^-1 around (c1...c5)^6 = 1."""
        x = _random_letters(rng, 5, rng.randint(0, 2))
        germs = []
        for i in range(30):
            letter = [(4 - i % 5, -1)]
            germs.append({"monodromy": _genus2_text(x + letter + _inverse_letters(x))})
        lines = [f"germ {i}: -3/5" for i in range(30)]
        return self._fibration(k, 2, germs, lines, -18)

    def _fibration(self, k, genus, germs, lines, total):
        path = self.workdir / f"fibration-{k}.json"
        path.write_text(json.dumps({"genus": genus, "base_genus": 0, "germs": germs}))
        return ["local-sig", "-f", str(path)], "\n".join(lines + [f"total: {total}"]) + "\n"

    def execute(self, op):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(op[0]))
        return code, out.getvalue()

    def check(self, op, result):
        return result == (0, op[1])


def ready():
    """What set-up builds: the shipped presentations and Meyer functions."""
    for g in (1, 2):
        presentations.shipped_presentation(g)
        presentations.shipped_meyer_function(g)


def workloads(root: Path, workdir: Path) -> dict:
    return {w.name: w for w in (CocycleTriples(), MeyerWords(), CliSession(root, workdir))}
