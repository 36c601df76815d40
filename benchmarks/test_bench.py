"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest benchmarks -q``.
"""

import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import meyersig  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

SIZES = {"cocycle_triples": 12, "meyer_words": 8, "cli_session": 20}
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def table(tmp_path_factory):
    wl.ready()
    return wl.workloads(run.ROOT, tmp_path_factory.mktemp("inputs"))


def _ops(table, name, seed=7):
    return table[name], table[name].build(seed, SIZES[name])


def test_spec_lists_the_workloads_with_their_reasons(table):
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (name, table[name].why) for name in run.WORKLOADS
    ]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(name):
    result = run.run_workload(name, 7, 0.0, trace=False, size=SIZES[name])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_smoke_traced_run_reports_every_per_layer_metric(name):
    result = run.run_workload(name, 7, 0.0, trace=True, size=SIZES[name])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_results_equal_untraced_and_counts_repeat(table, name):
    workload, ops = _ops(table, name)
    plain, failed, _ = run.run_pass(workload, ops)
    assert failed == 0
    counts = []
    for _ in range(2):
        workload, ops = _ops(table, name)  # inputs rebuilt from the same seed
        with spans.Tracer() as tracer:
            traced, failed, _ = run.run_pass(workload, ops, tracer)
        assert failed == 0 and traced == plain
        counts.append({k: v for k, (v, unit) in tracer.metrics().items() if unit == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["cli.main.calls" if name == "cli_session" else "cocycle.tau_sp.calls"] > 0


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_each_pass_gets_fresh_inputs_from_the_seed(table, name):
    def pool(index):
        return repr(table[name].build(run.pass_seed(7, index), SIZES[name]))

    assert pool(0) == pool(0)
    assert pool(0) != pool(1)


def test_calibration_scales_to_reference_units():
    assert run.calibration_slice() > 0
    ref_s = run.CALIBRATION_REF_MS / 1e3
    assert run.scale_from([ref_s, ref_s]) == pytest.approx(1.0)
    assert run.scale_from([ref_s, 3 * ref_s]) == pytest.approx(0.5)


def test_tracer_restores_every_binding():
    before = {name: getattr(owner, attr) for name, owner, attr in spans.TRACED}
    package_tau = meyersig.tau_sp
    with spans.Tracer():
        assert meyersig.tau_sp is not package_tau
        assert meyersig.presentations.tau_sp is meyersig.tau_sp
    assert {name: getattr(owner, attr) for name, owner, attr in spans.TRACED} == before
    assert meyersig.tau_sp is package_tau is meyersig.presentations.tau_sp


def test_self_time_is_duration_minus_children():
    tracer = spans.Tracer()
    op = tracer._open("op")
    tau = tracer._open("cocycle.tau_sp")
    tracer._close(tracer._open("exact.kernel_basis"), 20, 50)
    tracer._close(tau, 10, 60)
    tracer._close(tracer._open("exact.signature"), 70, 90)
    tracer._close(op, 0, 100)
    assert tracer.parents == [-1, 0, 1, 0]
    totals = tracer.layer_totals()
    assert totals["op"] == [1, 100, 30]
    assert totals["cocycle.tau_sp"] == [1, 50, 20]
    assert totals["exact.kernel_basis"] == [1, 30, 30]


@pytest.mark.parametrize("name", ["cocycle_triples", "meyer_words"])
def test_flipped_tau_sign_raises_failed_frac(table, name):
    workload, ops = _ops(table, name)
    honest = meyersig.cocycle.tau_sp
    undo = spans.rebind(meyersig.cocycle, "tau_sp", lambda a, b: -honest(a, b))
    try:
        _, failed, _ = run.run_pass(workload, ops)
    finally:
        undo()
    assert meyersig.cocycle.tau_sp is honest
    assert failed > 0


def test_wrong_cli_output_fails_the_check(table):
    workload, ops = _ops(table, "cli_session")
    argv, expected = ops[0]
    assert not workload.check((argv, expected), (0, expected + " "))
    assert not workload.check((argv, expected), (1, expected))


def test_reference_oracles_agree_with_the_package():
    rng = random.Random(5)
    for _ in range(200):
        a, c = rng.randint(-300, 300), rng.choice((-1, 1)) * rng.randint(1, 300)
        if math.gcd(a, c) != 1:
            continue
        assert ref.dedekind(a, c) == meyersig.dedekind_sum(a, c)
    for _ in range(200):
        m = (1, 0, 0, 1)
        for _ in range(rng.randint(0, 12)):
            m = ref.mul2(m, rng.choice(list(ref.GENUS1.values())))
        alpha = meyersig.SL2Element(*m)
        assert ref.rademacher(m) == meyersig.rademacher(alpha)
        assert ref.defect_signature(m) == meyersig.signature_defect(alpha)
        assert ref.phi1(m) == meyersig.phi1(alpha)


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    bare = tmp_path / "checkout"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    done = subprocess.run(
        [sys.executable, str(bare / HERE.name / "run.py"), "--workload", "cocycle_triples",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
