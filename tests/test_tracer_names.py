"""The benchmark's span tracer names package functions by owner and
attribute; a rename or deletion in the package fails here, in the unit
tests, before it can crash a benchmark run."""

from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _spans(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import spans

    return spans


def test_every_traced_name_resolves_to_a_callable(monkeypatch):
    spans = _spans(monkeypatch)
    missing = [
        name for name, owner, attr in spans.TRACED if not callable(getattr(owner, attr, None))
    ]
    assert not missing


def test_meyer_cache_lookups_runs(monkeypatch):
    hits, misses = _spans(monkeypatch).meyer_cache_lookups()
    assert hits >= 0 and misses >= 0
