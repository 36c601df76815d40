"""Acceptance suite: every shipped guarantee at full advertised size.

Criteria 1-7 and 10-12 run the invariant suites of ``meyersig.selftest``,
the table that ``meyersig --selftest`` runs at small sizes, at full size
with fixed seeds.  Run with ``pytest tests/test_acceptance.py -s`` to see
one line per criterion.  Everything here is exact (tolerance zero); the
only bounds are the stated wall-clock budgets.
"""

import random
import time
from contextlib import contextmanager

import pytest

from meyersig import selftest
from meyersig.errors import UnsupportedGenusError
from meyersig.fibered import (
    FiberGerm,
    FibrationDescription,
    euler_contribution,
    geography_convert,
    signature_over_surface,
    sl2_word,
    total_euler,
    total_signature,
)
from meyersig.presentations import shipped_presentation
from meyersig.symplectic import SymplecticMatrix

SUITES = {name: suite for name, suite, _ in selftest.SUITES}

# criterion: (suite name, seed, full size, wall-clock budget in seconds)
FULL_SIZE = {
    1: ("class orders 3 and 5", 0, None, 10),
    2: ("coboundary of phi_1", 1202, 10_000, 60),
    3: ("synthesized Meyer functions", 1203, (1_000, 0), None),
    4: ("synthesized Meyer functions", 1204, (0, 1_000), None),
    5: ("cocycle axioms", 1205, 500, 120),
    6: ("signature defect dual route", 1206, 1_000, None),
    7: ("Dedekind reciprocity", 0, 200, None),
    10: ("free-reduction invariance", 1210, 500, None),
    11: ("cochain is the tau prefix sum", 1211, 500, None),
    12: ("local signature of a Kodaira fibre = -2e/3", 0, 500, None),
}


@contextmanager
def criterion(number, name, budget_seconds=None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} ({name}): FAIL")
        raise
    elapsed = time.monotonic() - start
    if budget_seconds is not None and elapsed > budget_seconds:
        print(f"criterion {number:2d} ({name}): FAIL (took {elapsed:.1f}s > {budget_seconds}s)")
        pytest.fail(f"criterion {number} exceeded its {budget_seconds}s budget: {elapsed:.1f}s")
    timing = f" [{elapsed:.1f}s]" if budget_seconds is not None else ""
    print(f"criterion {number:2d} ({name}): PASS{timing}")


def run_at_full_size(number):
    name, seed, size, budget = FULL_SIZE[number]
    with criterion(number, name, budget):
        counterexample = SUITES[name](random.Random(seed), size)
        assert counterexample is None, counterexample


def test_every_suite_runs_at_full_size():
    assert {name for name, *_ in FULL_SIZE.values()} == set(SUITES)


def test_criterion_1_class_orders():
    run_at_full_size(1)


def test_criterion_2_coboundary_identity():
    run_at_full_size(2)


def test_criterion_3_dual_oracle_meyer():
    run_at_full_size(3)


def test_criterion_4_genus2_values():
    run_at_full_size(4)


def test_criterion_5_cocycle_axiom_suite():
    run_at_full_size(5)


def test_criterion_6_defect_identity():
    run_at_full_size(6)


def test_criterion_7_dedekind_oracle():
    run_at_full_size(7)


def test_criterion_8_elliptic_surface_budget():
    with criterion(8, "twelve I_1 germs: signature -8, Euler 12, geography"):
        w_u = sl2_word(SymplecticMatrix([[1, -1], [0, 1]]))
        w_v = sl2_word(SymplecticMatrix([[1, 0], [1, 1]]))
        germs = []
        for k in range(6):
            germs.append(FiberGerm(w_u, 0, f"I_1 #{2 * k}"))
            germs.append(FiberGerm(w_v, 0, f"I_1 #{2 * k + 1}"))
        fd = FibrationDescription(shipped_presentation(1), 0, tuple(germs))
        sign = total_signature(fd)
        euler = total_euler(1, 0, [euler_contribution(1, 1)] * 12)
        assert sign == -8
        assert euler == 12
        assert geography_convert(0, 1) == (sign, euler)


def test_criterion_9_vanishing_and_genus_gate():
    with criterion(9, "closed-surface vanishing and the genus-3 refusal"):
        assert signature_over_surface(1, []) == 0
        assert signature_over_surface(2, []) == 0
        with pytest.raises(UnsupportedGenusError, match="infinite order"):
            signature_over_surface(3, [])


def test_criterion_10_free_reduction_invariance():
    run_at_full_size(10)


def test_criterion_11_cochain_is_the_tau_prefix_sum():
    run_at_full_size(11)


def test_criterion_12_kodaira_local_signatures():
    run_at_full_size(12)
