"""meyersig benchmark: seeded exact-arithmetic workloads, closed loop.

Usage (from the repository root):

    python3 benchmarks/run.py --workload cocycle_triples --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30

One process and one thread issue operations back to back; the next starts
when the last one ends.  A run is a sequence of passes until ``--seconds``
have gone by; each pass is over a fresh pool of inputs built from
(``--seed``, pass index) before the pass is timed, so no input repeats
within a run, and every result is checked exactly.

With ``--trace 0`` the run reports the end-to-end metrics over all the
operations of all passes.  Times are in reference units: a fixed
calibration slice, unrelated to meyersig, is timed between the operations
of each pass, and the pass's times are scaled so that one slice takes
``CALIBRATION_REF_MS``.  That keeps a slowdown of the whole machine (other
tenants of a shared host) out of the figures; the raw times are printed on
standard error.  With ``--trace 1`` each pass's pool is run untraced and
traced, alternating which goes first; the per-layer metrics are those of
the first traced pass, so every count repeats exactly at a fixed seed, and
its spans are written to ``benchmarks/out/``.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

The package is imported from ``src/`` next to this directory; without it
the run exits with code 2 and prints no result.
"""

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("cocycle_triples", "meyer_words", "cli_session")
SETUP_MIN = 9  # set-ups per run at least; one follows each pass
CALIBRATION_REF_MS = 1.0  # what one calibration slice takes in reference units
CALIBRATION_SHARE = 0.1  # calibration time kept at this share of operation time

# Set-up is timed inside a fresh interpreter, from its first statement to
# the point where the shipped presentations and Meyer functions are built.
SETUP_SCRIPT = """
import time
t0 = time.perf_counter()
from meyersig import presentations
for g in (1, 2):
    presentations.shipped_presentation(g)
    presentations.shipped_meyer_function(g)
print(time.perf_counter() - t0)
"""

# The calibration slice: Fraction elimination on a fixed 8x8 Vandermonde
# matrix, the same kind of interpreter work (big integers, Fractions, lists)
# that meyersig does, but fixed, so no change to meyersig can move it.
_CAL_N = 8
_CAL_MATRIX = [[(i + 2) ** j * (-1) ** (i * j) for j in range(_CAL_N)] for i in range(_CAL_N)]
_CAL_DET = 12961291850934755328000


def calibration_slice() -> float:
    """Seconds the fixed calibration work takes now."""
    t0 = time.perf_counter()
    rows = [[Fraction(x) for x in row] for row in _CAL_MATRIX]
    det = Fraction(1)
    for c in range(_CAL_N):
        p = next(r for r in range(c, _CAL_N) if rows[r][c])
        rows[c], rows[p] = rows[p], rows[c]
        det *= rows[c][c]
        for r in range(c + 1, _CAL_N):
            f = rows[r][c] / rows[c][c]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    seconds = time.perf_counter() - t0
    assert det == _CAL_DET
    return seconds


def scale_from(slices: list[float]) -> float:
    """Factor from seconds to reference seconds, given the times of slices
    interleaved with the measured work.  The mean, not the median: the
    operations' times are summed over the same stretches of slow and fast
    machine as the slices'."""
    return CALIBRATION_REF_MS / 1e3 / statistics.fmean(slices)


def setup_seconds() -> tuple[float, float]:
    """One fresh interpreter's set-up: (seconds, scale to reference seconds)."""
    env = {"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"}
    slices = [calibration_slice() for _ in range(10)]
    done = subprocess.run(
        [sys.executable, "-c", SETUP_SCRIPT], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120, check=True,
    )
    slices += [calibration_slice() for _ in range(10)]
    return float(done.stdout.strip().splitlines()[-1]), scale_from(slices)


def run_op(workload, op, tracer=None, op_id=0):
    """One operation: (result, passed its check, seconds spent in the program)."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = workload.execute(op)
        else:
            with tracer.op(op_id):
                result = workload.execute(op)
    except Exception as exc:  # a raising op counts as failed, the run goes on
        return ("raised", repr(exc)), False, time.perf_counter() - t0
    seconds = time.perf_counter() - t0
    return result, workload.check(op, result), seconds


def run_pass(workload, ops, tracer=None, slices=None):
    """One pass over a pool: (results, failures, per-op seconds).

    Given a ``slices`` list, calibration slices are interleaved with the
    operations, keeping their time at ``CALIBRATION_SHARE`` of the
    operations' time, and their times are appended to it.
    """
    results, failed, times = [], 0, []
    spent = calibrated = 0.0
    for i, op in enumerate(ops):
        result, ok, dt = run_op(workload, op, tracer, i)
        results.append(result)
        failed += not ok
        times.append(dt)
        spent += dt
        while slices is not None and calibrated <= CALIBRATION_SHARE * spent:
            slices.append(calibration_slice())
            calibrated += slices[-1]
    return results, failed, times


def pass_seed(seed: int, index: int) -> str:
    return f"{seed}/{index}"


def measured_run(workload, seed: int, seconds: float, size=None) -> dict:
    """Fresh-pool passes for ``seconds``, each followed by one set-up."""
    lat, raw_lat, setups, raw_setups, scales = [], [], [], [], []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    index = 0
    while index == 0 or time.perf_counter() < deadline:
        ops = workload.build(pass_seed(seed, index), size)
        gc.collect()
        slices = []
        _, f, times = run_pass(workload, ops, slices=slices)
        scale = scale_from(slices)
        scales.append(scale)
        raw_lat += times
        lat += [t * scale for t in times]
        attempted += len(ops)
        failed += f
        index += 1
        s, s_scale = setup_seconds()
        raw_setups.append(s)
        setups.append(s * s_scale)
    while len(setups) < SETUP_MIN:
        s, s_scale = setup_seconds()
        raw_setups.append(s)
        setups.append(s * s_scale)
    return {"attempted": attempted, "failed": failed, "passes": index, "lat": lat,
            "raw_lat": raw_lat, "setups": setups, "raw_setups": raw_setups, "scales": scales}


def traced_run(workload, seed: int, seconds: float, size=None) -> dict:
    """Each pass's pool untraced and traced, alternating which goes first,
    for ``seconds`` and an even number of passes.  Per-layer metrics come
    from the first traced pass; the overhead compares the traced and
    untraced time of every pool."""
    import spans

    tracer = hit_ratio = None
    spent = {False: 0.0, True: 0.0}
    attempted = failed = index = 0
    identical = True
    deadline = time.perf_counter() + seconds
    while index % 2 or tracer is None or time.perf_counter() < deadline:
        ops = workload.build(pass_seed(seed, index), size)
        first = None
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            t = spans.Tracer() if traced else None
            hits0, misses0 = spans.meyer_cache_lookups()
            if t is None:
                results, f, times = run_pass(workload, ops)
            else:
                with t:
                    results, f, times = run_pass(workload, ops, t)
            hits1, misses1 = spans.meyer_cache_lookups()
            if traced and tracer is None:
                tracer = t
                lookups = hits1 - hits0 + misses1 - misses0
                hit_ratio = (hits1 - hits0) / lookups if lookups else 0.0
            first = results if first is None else first
            identical &= results == first
            spent[traced] += sum(times)
            attempted += len(ops)
            failed += f
        index += 1
    metrics = tracer.metrics()
    metrics["presentations.shipped_meyer_function.hit_ratio"] = (hit_ratio, "frac")
    metrics["trace_overhead_frac"] = (spent[True] / spent[False] - 1, "frac")
    metrics["failed_frac"] = (failed / attempted, "frac")
    return {"attempted": attempted, "failed": failed, "identical": identical,
            "metrics": metrics, "tracer": tracer}


def percentile(values, q: int) -> float:
    """The q-th percentile (q in 1..99) by the exclusive method."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(lat_s: list[float], setup_s: list[float]) -> dict:
    lat_ms = [t * 1e3 for t in lat_s]
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "ops_per_s": (len(lat_ms) / sum(lat_ms) * 1e3, "1/s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_p90_ms": (percentile(lat_ms, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, size=None) -> dict:
    import workloads as wl

    workload = wl.workloads(ROOT, OUT / "inputs")[name]
    wl.ready()
    if trace:
        run = traced_run(workload, seed, seconds, size)
        OUT.mkdir(parents=True, exist_ok=True)
        run["tracer"].write(OUT / f"spans-{name}.json")
        shares = run["tracer"].module_self_shares()
        print("self-time share by module: "
              + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()), file=sys.stderr)
        correct = run["failed"] == 0 and run["identical"]
        return _result(correct, run["attempted"], run["failed"], run["metrics"])
    run = measured_run(workload, seed, seconds, size)
    metrics = end_to_end(run["lat"], run["setups"])
    raw = end_to_end(run["raw_lat"], run["raw_setups"])
    p90 = metrics["op_p90_ms"][0]
    beyond = sum(t * 1e3 > p90 for t in run["lat"])
    print(f"{name}: {run['attempted']} ops in {run['passes']} passes, {beyond} beyond p90; "
          f"scale to reference {statistics.median(run['scales']):.4f} "
          f"(range {min(run['scales']):.4f}-{max(run['scales']):.4f}); raw "
          + json.dumps({k: v for k, (v, _) in raw.items()}), file=sys.stderr)
    return _result(run["failed"] == 0, run["attempted"], run["failed"], metrics)


def _result(correct, attempted, failed, metrics) -> dict:
    return {"correct": bool(correct), "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def run_all(args) -> int:
    """Every workload in its own process, printed as one table."""
    ok = True
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        ok &= result["correct"]
        print(f"{name}  (attempted {result['attempted']}, failed {result['failed']})")
        if not args.trace:
            print(f"  {'failed_frac':<48} {result['failed'] / result['attempted']:.6g} frac")
        for key, m in result["metrics"].items():
            print(f"  {key:<48} {m['value']:.6g} {m['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "meyersig" / "__init__.py").is_file():
        print(f"error: no meyersig sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import meyersig

    if Path(meyersig.__file__).resolve().parent != SRC / "meyersig":
        print(f"error: meyersig imported from {meyersig.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
