"""The invariant suites: each exact identity of the package, defined once.

A suite takes a random generator and a size and returns ``None`` when
every identity holds, or as one line of text its first counterexample,
which may be an exception raised while a case was computed.
Suites compare with ``!=`` rather than ``assert``, so they still check
under ``python -O``.  ``meyersig --selftest`` runs the table ``SUITES`` at
the small sizes listed there; ``tests/test_acceptance.py`` runs the same
table at full size with fixed seeds.
"""

import random
import sys
from fractions import Fraction
from functools import wraps
from math import gcd

from .cocycle import sigma_defect_via_tau, tau_sp
from .fibered import FiberGerm, kodaira_neighborhood_signature, kodaira_word, local_signature
from .genus1 import dedekind_sum, phi1, signature_defect
from .presentations import (
    Presentation, Word, class_order, cochain_c, evaluate_word, hyperelliptic, load_presentation,
    shipped_meyer_function, shipped_presentation
)
from .symplectic import SymplecticMatrix, random_symplectic


def random_word(p, rng: random.Random, max_len: int = 14) -> Word:
    """A word of random length 0..max_len in the generators of p."""
    length = rng.randint(0, max_len)
    return Word(
        (rng.randrange(p.generator_count), rng.choice((1, -1))) for _ in range(length)
    )


def _random_matrix(g: int, max_len: int, rng: random.Random) -> SymplecticMatrix:
    return random_symplectic(g, rng.randint(0, max_len), rng.random())


def _suite(cases):
    """Make a suite from a generator of ``(identity, lhs, rhs, inputs)``
    cases: ``None`` if every lhs equals its rhs, else the first failure;
    an exception raised while a case is computed is one too, so the
    suites after it still run."""

    @wraps(cases)
    def suite(rng, size):
        try:
            for identity, lhs, rhs, inputs in cases(rng, size):
                if lhs != rhs:
                    return f"{identity}: {lhs} != {rhs} at {inputs}"
        except Exception as exc:
            return f"raised {type(exc).__name__}: {exc}"
        return None

    return suite


@_suite
def _class_orders(rng, size):
    for g, n in ((1, 3), (2, 5)):
        order = class_order(shipped_presentation(g))
        yield f"class order at genus {g}", getattr(order, "n", order), n, {}


@_suite
def _cocycle_axioms(rng, size):
    """size random triples (A, B, C) at each of g = 1, 2, 3."""
    for g in (1, 2, 3):
        e = SymplecticMatrix.identity(g)
        for _ in range(size):
            a, b, c = (_random_matrix(g, 10, rng) for _ in range(3))
            ab = tau_sp(a, b)
            abc = {"A": a, "B": b, "C": c}
            lhs, rhs = tau_sp(a * b, c) + ab, tau_sp(a, b * c) + tau_sp(b, c)
            yield "tau(AB, C) + tau(A, B) = tau(A, BC) + tau(B, C)", lhs, rhs, abc
            yield "tau(A, I) = 0", tau_sp(a, e), 0, abc
            yield "tau(I, A) = 0", tau_sp(e, a), 0, abc
            yield "tau(A, A^-1) = 0", tau_sp(a, a.inverse()), 0, abc
            yield "tau(A^-1, B^-1) = -tau(A, B)", tau_sp(a.inverse(), b.inverse()), -ab, abc
            yield "tau(B, A) = tau(A, B)", tau_sp(b, a), ab, abc
            conjugated = tau_sp(c * a * c.inverse(), c * b * c.inverse())
            yield "tau(CAC^-1, CBC^-1) = tau(A, B)", conjugated, ab, abc


@_suite
def _coboundary(rng, size):
    """size random genus-1 pairs."""
    for _ in range(size):
        x, y = _random_matrix(1, 20, rng), _random_matrix(1, 20, rng)
        rhs = phi1(x) - phi1(x * y) + phi1(y)
        yield "tau(X, Y) = phi1(X) - phi1(XY) + phi1(Y)", tau_sp(x, y), rhs, {"X": x, "Y": y}


@_suite
def _defect(rng, size):
    """size random genus-1 matrices."""
    for _ in range(size):
        m = _random_matrix(1, 16, rng)
        yield "tau(M, -I) route = 2x2 defect signature", sigma_defect_via_tau(m), signature_defect(m), {"M": m}


@_suite
def _synthesized(rng, size):
    """size = (genus-1 words against phi1, genus-2 words landing in (1/5)Z)."""
    genus1_words, genus2_words = size
    p, phi = shipped_presentation(1), shipped_meyer_function(1)
    for _ in range(genus1_words):
        w = random_word(p, rng, max_len=16)
        yield "synthesized phi_1 = closed form", phi(w), phi1(evaluate_word(w, p)), {"w": w}
    p, phi = shipped_presentation(2), shipped_meyer_function(2)
    for name in p.generator_names:
        yield "phi_2(twist) = 3/5", phi(name), Fraction(3, 5), {"twist": name}
    yield "phi_2((c1 c2)^6) = -4/5", phi(" ".join(["c1 c2"] * 6)), Fraction(-4, 5), {}
    for _ in range(genus2_words):
        w = random_word(p, rng, max_len=12)
        yield "denominator of 5 phi_2(w)", (5 * phi(w)).denominator, 1, {"w": w}


def _dedekind_by_definition(a: int, c: int) -> Fraction:
    """The defining O(|c|) sum of s(a, c), the oracle for the fast
    dedekind_sum: k runs over 0 .. |c|-1 and the summands keep c's sign."""
    q = abs(c)
    s = 1 if c > 0 else -1
    total = 0
    for k in range(1, q):
        m1 = (s * a * k) % q
        if m1 == 0:
            continue
        m2 = (s * k) % q
        total += (2 * m1 - q) * (2 * m2 - q)
    return Fraction(total, 4 * q * q)


@_suite
def _dedekind(rng, size):
    """Every 0 <= a < c <= size against the defining sum; the identities
    at every coprime a >= 1."""
    for c in range(1, size + 1):
        for a in range(c):
            s = dedekind_sum(a, c)
            ac = {"a": a, "c": c}
            yield "s(a, c) = defining sum", s, _dedekind_by_definition(a, c), ac
            yield "s(a, -c) = s(a, c)", dedekind_sum(a, -c), s, ac
            if a == 0 or gcd(a, c) != 1:
                continue
            rhs = Fraction(-1, 4) + (Fraction(a, c) + Fraction(c, a) + Fraction(1, a * c)) / 12
            yield "s(a, c) + s(c, a) = -1/4 + (a/c + c/a + 1/(ac))/12", s + dedekind_sum(c, a), rhs, ac
            yield "s(a + c, c) = s(a, c)", dedekind_sum(a + c, c), s, ac
            yield "s(-a, c) = -s(a, c)", dedekind_sum(-a, c), -s, ac


@_suite
def _free_reduction(rng, size):
    """size random words with one inserted cancelling pair at each of g = 1, 2."""
    for g in (1, 2):
        p, phi = shipped_presentation(g), shipped_meyer_function(g)
        for _ in range(size):
            w = random_word(p, rng, max_len=14)
            k = rng.randint(0, len(w))
            i = rng.randrange(p.generator_count)
            s = rng.choice((1, -1))
            padded = Word(w.letters[:k] + ((i, s), (i, -s)) + w.letters[k:])
            ws = {"w": w, "padded": padded}
            yield "c(padded) = c(w)", cochain_c(padded, p), cochain_c(w, p), ws
            yield "phi(padded) = phi(w)", phi(padded), phi(w), ws
            yield "padded and w evaluate alike", evaluate_word(padded, p), evaluate_word(w, p), ws


def chain_with_s(g: int) -> Presentation:
    """Relator-free: the twists of :func:`hyperelliptic` (g) and s, the
    matrix S = [[0, -1], [1, 0]] on the last handle and I elsewhere.  s is
    no twist power; from g = 2 on, s - I (rank 2) lies below the bound
    2g - 1 that the cochain walk keeps after a letter with det(P - I) = 0."""
    rows = [[int(i == j) for j in range(2 * g)] for i in range(2 * g)]
    rows[g - 1][g - 1] = rows[-1][-1] = 0
    rows[g - 1][-1], rows[-1][g - 1] = -1, 1
    data = hyperelliptic(g)
    names, mats = data["generators"] + ["s"], {**data["matrices"], "s": rows}
    return load_presentation({"genus": g, "generators": names, "matrices": mats, "relators": []})


@_suite
def _cochain_walk(rng, size):
    """size random words over each shipped presentation and over the chain
    twists with s at genus 3 and 2, against the definitions: tau_sp summed
    over the prefixes, and the plain product."""
    for p in (shipped_presentation(1), shipped_presentation(2), chain_with_s(3), chain_with_s(2)):
        for _ in range(size):
            w = random_word(p, rng, max_len=16)
            prefix, total = SymplecticMatrix.identity(p.genus), 0
            for i, s in w.letters:
                step = p.matrices[i] if s > 0 else p.matrices[i].inverse()
                total += tau_sp(prefix, step)
                prefix = prefix * step
            yield "c(w) = sum_j tau(P_{j-1}, x_j)", cochain_c(w, p), total, {"w": w}
            yield "evaluate_word(w) = product of its letters", evaluate_word(w, p), prefix, {"w": w}


# Kodaira's Euler number e of each named fibre type; I_n has e = n and I_n* e = n + 6
_KODAIRA_EULER = {"II": 2, "III": 3, "IV": 4, "IV*": 8, "III*": 9, "II*": 10}


@_suite
def _kodaira(rng, size):
    """Matsumoto's local signature -2e/3 of every named Kodaira fibre and of
    I_n and I_n* for 0 <= n <= size: phi_1 of the germ's word plus the
    signature of its neighborhood."""
    types = list(_KODAIRA_EULER.items())
    types += [(f"I_{n}", n) for n in range(size + 1)] + [(f"I_{n}*", n + 6) for n in range(size + 1)]
    for fiber_type, e in types:
        germ = FiberGerm(kodaira_word(fiber_type), kodaira_neighborhood_signature(fiber_type))
        lhs = local_signature(germ, 1)
        yield "local signature of a Kodaira fibre = -2e/3", lhs, Fraction(-2 * e, 3), {"type": fiber_type}


# (name, suite, size for --selftest)
SUITES = (
    ("class orders 3 and 5", _class_orders, None),
    ("cocycle axioms", _cocycle_axioms, 12),
    ("coboundary of phi_1", _coboundary, 200),
    ("signature defect dual route", _defect, 200),
    ("synthesized Meyer functions", _synthesized, (100, 60)),
    ("Dedekind reciprocity", _dedekind, 60),
    ("free-reduction invariance", _free_reduction, 50),
    ("cochain is the tau prefix sum", _cochain_walk, 30),
    ("local signature of a Kodaira fibre = -2e/3", _kodaira, 12),
)


def run(seed: int = 0) -> int:
    """Run every suite at its small size, each from ``random.Random(seed)``.

    Prints one PASS/FAIL line per suite (a failure's counterexample goes
    to stderr) and returns the exit code: 1 if any suite failed.
    """
    failed = False
    for name, suite, size in SUITES:
        counterexample = suite(random.Random(seed), size)
        print(f"{'PASS' if counterexample is None else 'FAIL'}  {name}")
        if counterexample is not None:
            print(f"  {counterexample}", file=sys.stderr)
            failed = True
    return 1 if failed else 0
