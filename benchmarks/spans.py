"""Span tracing of meyersig's public functions, from outside the package.

A :class:`Tracer` replaces each traced function by a timing wrapper on
every module of the package that binds it (``meyersig.tau_sp``,
``meyersig.cocycle.tau_sp``, ``meyersig.presentations.tau_sp``, ...), so
calls between layers are seen as well as calls from the benchmark.  Methods
are wrapped on their class.  Spans (name, start, end, parent, op id) are kept
in memory; self time is a span's duration minus the time its child spans
cover.  Removing the tracer restores every binding.
"""

import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from meyersig import cli, cocycle, exact, fibered, genus1, matrix, presentations, symplectic

_SM = symplectic.SymplecticMatrix
_MEYER = presentations.SynthesizedMeyerFunction

# (layer metric name, owner, attribute).  A module owner means every
# package module binding that function object is rewired.
TRACED = (
    ("matrix.parse_matrix", matrix, "parse_matrix"),
    ("symplectic.is_symplectic", symplectic, "is_symplectic"),
    ("symplectic.mul", _SM, "__mul__"),
    ("symplectic.inverse", _SM, "inverse"),
    ("exact.kernel_basis", exact, "kernel_basis"),
    ("exact.signature", exact, "signature"),
    ("cocycle.v_space", cocycle, "v_space"),
    ("cocycle.tau_sp", cocycle, "tau_sp"),
    ("genus1.phi1", genus1, "phi1"),
    ("genus1.dedekind_sum", genus1, "dedekind_sum"),
    ("genus1.rademacher", genus1, "rademacher"),
    ("presentations.parse_word", presentations, "parse_word"),
    ("presentations.evaluate_word", presentations, "evaluate_word"),
    ("presentations.cochain_c", presentations, "cochain_c"),
    ("presentations.class_order", presentations, "class_order"),
    ("presentations.synthesize_meyer", presentations, "synthesize_meyer"),
    ("presentations.load_presentation", presentations, "load_presentation"),
    ("presentations.meyer_call", _MEYER, "__call__"),
    ("fibered.load_fibration", fibered, "load_fibration"),
    ("fibered.total_signature", fibered, "total_signature"),
    ("fibered.local_signature", fibered, "local_signature"),
    ("fibered.sl2_word", fibered, "sl2_word"),
    ("cli.main", cli, "main"),
)

COUNTS = (
    "cocycle.v_space.dim_sum",
    "exact.signature.dim_sum",
    "genus1.dedekind_sum.terms",
    "presentations.cochain_c.letters",
)
GENERA = (1, 2, 3)
OP_SPAN = "op"


def _package_modules():
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "meyersig" or name.startswith("meyersig."))
    ]


def rebind(owner, attr: str, replacement):
    """Point every binding of ``owner.attr`` at ``replacement``; returns an undo.

    For a module owner, each package module whose attribute is the same
    function object is rewired; for a class owner, only the class attribute.
    """
    original = getattr(owner, attr)
    owners = _package_modules() if not isinstance(owner, type) else [owner]
    sites = [(o, name) for o in owners for name, v in list(vars(o).items()) if v is original]
    for o, name in sites:
        setattr(o, name, replacement)

    def undo():
        for o, name in sites:
            setattr(o, name, original)

    return undo


class Tracer:
    """Records one span per call of each traced function while installed."""

    # Spans are kept column-wise in flat lists: a list per span would be one
    # more object for the cyclic garbage collector to walk on every pass.
    FIELDS = ("name", "start_ns", "end_ns", "parent", "op")

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []  # index of the enclosing span, -1 for none
        self.ops: list[int] = []
        self.counts: Counter = Counter()
        self.tau_ns: Counter = Counter()
        self._stack = [-1]
        self._undo = []
        self.op_id = -1

    def __enter__(self):
        for name, owner, attr in TRACED:
            fn = getattr(owner, attr)
            self._undo.append(rebind(owner, attr, self._wrap(name, fn)))
        return self

    def __exit__(self, *exc):
        while self._undo:
            self._undo.pop()()
        return False

    @contextmanager
    def op(self, op_id: int):
        """The root span of one benchmark operation."""
        self.op_id = op_id
        idx = self._open(OP_SPAN)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(idx, t0, time.perf_counter_ns())

    def _open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(0)
        self.ends.append(0)
        self.parents.append(self._stack[-1])
        self.ops.append(self.op_id)
        self._stack.append(idx)
        return idx

    def _close(self, idx, t0, t1):
        self._stack.pop()
        self.starts[idx] = t0
        self.ends[idx] = t1

    def _wrap(self, name, fn):
        clock = time.perf_counter_ns
        hook = getattr(self, "_after_" + name.replace(".", "_"), None)

        def traced(*args, **kwargs):
            idx = self._open(name)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._close(idx, t0, t1)
            if hook is not None:
                hook(args, result, t1 - t0, self.parents[idx])
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # Counters measured at the same boundaries as the spans.

    def _after_cocycle_tau_sp(self, args, result, ns, parent):
        self.tau_ns[args[0].g] += ns

    def _after_cocycle_v_space(self, args, result, ns, parent):
        self.counts["cocycle.v_space.dim_sum"] += result.dim
        if result.dim == 0 and parent >= 0 and self.names[parent] == "cocycle.tau_sp":
            self.counts["cocycle.tau_sp.trivial"] += 1

    def _after_exact_signature(self, args, result, ns, parent):
        self.counts["exact.signature.dim_sum"] += result.dim

    def _after_genus1_dedekind_sum(self, args, result, ns, parent):
        self.counts["genus1.dedekind_sum.terms"] += abs(args[1])

    def _after_presentations_cochain_c(self, args, result, ns, parent):
        self.counts["presentations.cochain_c.letters"] += len(args[0])

    def layer_totals(self) -> dict:
        """Per traced name: calls, total and self nanoseconds."""
        durations = [t1 - t0 for t0, t1 in zip(self.starts, self.ends)]
        child = [0] * len(durations)
        for parent, d in zip(self.parents, durations):
            if parent >= 0:
                child[parent] += d
        out = defaultdict(lambda: [0, 0, 0])
        for name, d, covered in zip(self.names, durations, child):
            row = out[name]
            row[0] += 1
            row[1] += d
            row[2] += d - covered
        return out

    def metrics(self) -> dict:
        """Every per-layer metric this tracer can give, as (value, unit)."""
        totals = self.layer_totals()
        m = {}
        for name, _, _ in TRACED:
            calls, total_ns, self_ns = totals.get(name, (0, 0, 0))
            m[f"{name}.calls"] = (calls, "count")
            m[f"{name}.total_s"] = (total_ns / 1e9, "s")
            m[f"{name}.self_s"] = (self_ns / 1e9, "s")
        for g in GENERA:
            m[f"cocycle.tau_sp.g{g}.total_s"] = (self.tau_ns[g] / 1e9, "s")
        for key in COUNTS:
            m[key] = (self.counts[key], "count")
        tau_calls = totals.get("cocycle.tau_sp", (0,))[0]
        trivial = self.counts["cocycle.tau_sp.trivial"]
        m["cocycle.tau_sp.trivial_frac"] = (trivial / tau_calls if tau_calls else 0.0, "frac")
        return m

    def module_self_shares(self) -> dict:
        """Share of all self time by package module (the root span is the
        benchmark's own code plus untraced package code it calls)."""
        by_module = Counter()
        for name, (_, _, self_ns) in self.layer_totals().items():
            by_module[name.split(".")[0]] += self_ns
        whole = sum(by_module.values()) or 1
        return {k: v / whole for k, v in by_module.most_common()}

    def write(self, path) -> None:
        rows = zip(self.names, self.starts, self.ends, self.parents, self.ops)
        with open(path, "w") as fh:
            json.dump({"fields": self.FIELDS, "spans": list(rows)}, fh, separators=(",", ":"))


def meyer_cache_lookups():
    """(hits, misses) of the shipped Meyer-function cache."""
    info = presentations.shipped_meyer_function.cache_info()
    return info.hits, info.misses
