"""The benchmark's span tracer names package functions by owner and
attribute, and its scripts read names off their meyersig imports; a
rename or deletion in the package fails here, in the unit tests, before
it can crash a benchmark run."""

import ast
from pathlib import Path

import meyersig

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


def _package_attribute_chains():
    """Every dotted name a benchmark script reads off a meyersig import,
    such as ``meyersig.SL2Element`` or ``ms.presentations.evaluate_word``,
    spelled from the package root."""
    chains = set()
    for path in sorted(BENCHMARKS.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "meyersig":
                        # `import meyersig.x` binds meyersig; `import meyersig.x as y` binds y
                        aliases[alias.asname or "meyersig"] = alias.name if alias.asname else "meyersig"
            elif isinstance(node, ast.ImportFrom) and node.module == "meyersig":
                for alias in node.names:
                    aliases[alias.asname or alias.name] = f"meyersig.{alias.name}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs = []
                while isinstance(node, ast.Attribute):
                    attrs.append(node.attr)
                    node = node.value
                if isinstance(node, ast.Name) and node.id in aliases:
                    chains.add(".".join([aliases[node.id], *reversed(attrs)]))
    return chains


def test_every_package_name_the_benchmarks_read_resolves():
    chains = _package_attribute_chains()
    assert {"meyersig.SL2Element", "meyersig.signature_defect"} <= chains
    assert "meyersig.presentations.shipped_meyer_function" in chains
    missing = []
    for chain in sorted(chains):
        obj = meyersig
        for attr in chain.split(".")[1:]:
            obj = getattr(obj, attr, missing)
        if obj is missing:
            missing.append(chain)
    assert not missing
