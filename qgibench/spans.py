"""Span recorder for the traced benchmark run.

The recorder wraps public functions of the ``qgi`` modules from outside:
every module attribute bound to a traced function (the defining module
and every module that imported the name) is replaced by a wrapper that
records one span per call.  Nothing under ``src/`` changes; uninstalling
restores the original bindings.

A span is ``(name, start_ns, end_ns, parent, op)``: ``parent`` is the
index of the enclosing span (-1 at the root) and ``op`` the benchmark op
the call belongs to.  Spans stay in memory and are written out at exit.
Counts that the spans alone do not carry (permutation entries, state
sizes, counting bits) are taken by observers at the same call boundaries.
"""

from __future__ import annotations

import collections
import functools
import time

# Traced functions by defining module.  A name that a later version of
# the program no longer defines is skipped, and its metrics read 0.
TRACED = {
    "geometry": ("rasterize", "load_scene"),
    "oracles": ("prepare_uniform", "oracle_load", "oracle_xor",
                "prepare_encoded", "prepare_joint", "cheat_check"),
    "state": ("basis_state", "apply_permutation", "apply_phase_flip",
              "reflect_about", "tensor", "measure_register",
              "measure_distribution", "reduced_density",
              "von_neumann_entropy"),
    "counting": ("phase_estimate", "exact_count"),
    "protocol": ("run_protocol", "detection_probability", "leakage_report",
                 "build_preparation"),
    "cli": ("main",),
}
MODULES = ("registers", "state", "oracles", "geometry", "counting",
           "protocol", "cli")
OP_SPAN = "bench.op"
# Errors an observer may hit if a later version changes a signature; the
# count is then skipped rather than failing the op.
_OBSERVER_ERRORS = (AttributeError, TypeError, KeyError, IndexError, ValueError)


def _dims(result):
    """Amplitude-vector lengths of the states in a function result."""
    items = result if isinstance(result, tuple) else (result,)
    for item in items:
        amps = getattr(item, "amplitudes", None)
        if amps is not None:
            yield int(amps.size)


def _observe_state(rec, args, result):
    for dim in _dims(result):
        rec.peak("state.dense_dim_max", dim)


def _observe_permutation(rec, args, result):
    state, regs = args[0], args[1]
    rec.count("state.permutation_entries",
              1 << sum(state.layout.width(r) for r in regs))
    _observe_state(rec, args, result)


def _observe_density(rec, args, result):
    rec.peak("state.density_dim_max", int(args[0].dim))


def _observe_reduced(rec, args, result):
    rec.peak("state.density_dim_max", int(result.dim))


def _observe_rasterize(rec, args, result):
    rec.count("geometry.cells_covered", len(result))


def _observe_phase_estimate(rec, args, result):
    rec.count("counting.estimates", 1)
    rec.count("counting.bits", int(result.bits))
    if result.engine == "circuit":
        rec.count("counting.circuit_estimates", 1)
        dim = args[0].layout().dim
        rec.peak("counting.engine_bytes_max", (1 << result.bits) * dim * 16)


OBSERVERS = {
    "state.apply_permutation": _observe_permutation,
    "state.von_neumann_entropy": _observe_density,
    "state.reduced_density": _observe_reduced,
    "geometry.rasterize": _observe_rasterize,
    "counting.phase_estimate": _observe_phase_estimate,
}
for _module in ("state", "oracles"):
    for _name in TRACED[_module]:
        OBSERVERS.setdefault(f"{_module}.{_name}", _observe_state)


class Recorder:
    """Records spans and counts for the ops run while it is installed."""

    def __init__(self):
        self.spans: list = []
        self.op = -1
        self.counts: collections.Counter = collections.Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def count(self, key: str, n: int):
        self.counts[key] += n

    def peak(self, key: str, value: int):
        if value > self.counts[key]:
            self.counts[key] = value

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op)

    def _wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = rec.call(name, fn, *args, **kwargs)
            if observe is not None:
                try:
                    observe(rec, args, result)
                except _OBSERVER_ERRORS:
                    rec.count("trace.observer_errors", 1)
            return result
        return wrapper

    def _counter(self, key: str, fn):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec.counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self, qgi):
        """Rebind every traced function in every ``qgi`` module that binds it."""
        modules = [qgi] + [getattr(qgi, m) for m in MODULES if hasattr(qgi, m)]
        for modname, names in TRACED.items():
            home = getattr(qgi, modname, None)
            for fname in names:
                original = getattr(home, fname, None)
                if original is None:
                    continue
                wrapper = self._wrap(f"{modname}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, original))
                            setattr(module, attr, wrapper)
        iterate = getattr(getattr(qgi, "counting", None), "GroverIterate", None)
        original = getattr(iterate, "apply_amplitudes", None)
        if original is not None:
            self._patches.append((iterate, "apply_amplitudes", original))
            iterate.apply_amplitudes = self._counter(
                "counting.iterate_applications", original)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def self_times(spans, lo: int, hi: int) -> collections.Counter:
    """Self nanoseconds per span name over spans[lo:hi].

    A span's self time is its duration minus the durations of its direct
    children; calls nest on one thread, so children never overlap.
    """
    child = collections.Counter()
    for name, start, end, parent, _ in spans[lo:hi]:
        if parent >= 0:
            child[parent] += end - start
    out = collections.Counter()
    for idx in range(lo, hi):
        name, start, end, _, _ = spans[idx]
        out[name] += end - start - child[idx]
    return out


def call_counts(spans, lo: int, hi: int) -> collections.Counter:
    return collections.Counter(span[0] for span in spans[lo:hi])


def child_counts(spans, lo: int, hi: int, parent_name: str,
                 child_name: str) -> int:
    """Calls of ``child_name`` made directly from ``parent_name``."""
    return sum(1 for name, _, _, parent, _ in spans[lo:hi]
               if name == child_name and parent >= 0
               and spans[parent][0] == parent_name)


# Per-layer metrics.  Times are self milliseconds per op; ``sources`` are
# the span names whose self times add up to the metric.
SELF_MS = {
    "state.apply_permutation.self_ms": ("state.apply_permutation",),
    "oracles.prepare_encoded.self_ms": ("oracles.prepare_encoded",),
    "oracles.oracle_load.self_ms": ("oracles.oracle_load",),
    "oracles.oracle_xor.self_ms": ("oracles.oracle_xor",),
    "oracles.cheat_check.self_ms": ("oracles.cheat_check",),
    "oracles.prepare_joint.self_ms": ("oracles.prepare_joint",),
    "state.tensor.self_ms": ("state.tensor",),
    "state.measure.self_ms": ("state.measure_register",
                              "state.measure_distribution"),
    "state.entropy.self_ms": ("state.von_neumann_entropy",),
    "counting.phase_estimate.self_ms": ("counting.phase_estimate",),
    "protocol.run_protocol.self_ms": ("protocol.run_protocol",),
    "protocol.detection_probability.self_ms": ("protocol.detection_probability",),
    "protocol.leakage_report.self_ms": ("protocol.leakage_report",),
    "geometry.rasterize.self_ms": ("geometry.rasterize",),
    # load_scene is defined in geometry; the cli is its only caller.
    "cli.load_scene.self_ms": ("geometry.load_scene",),
    "cli.main.self_ms": ("cli.main",),
}
# Counts computed from the spans and observers; they repeat exactly for
# the same inputs.  name -> unit
COUNTS = {
    "state.apply_permutation.calls_per_op": "count",
    "state.permutation_entries_per_op": "count",
    "oracles.prepare_joint.calls_per_op": "count",
    "state.dense_dim_max": "count",
    "state.amplitude_bytes_max": "B",
    "state.density_dim_max": "count",
    "counting.engine_bytes_max": "B",
    "counting.iterate_applications_per_op": "count",
    "counting.circuit_share": "ratio",
    "counting.bits_mean": "bits",
    "protocol.detection_branches_per_op": "count",
    "geometry.cells_covered_per_op": "count",
}


def pass_counts(spans, lo: int, hi: int, counts, ops: int) -> dict:
    """Computed counts of one traced pass over ``ops`` ops."""
    calls = call_counts(spans, lo, hi)
    estimates = counts["counting.estimates"]
    dim = counts["state.dense_dim_max"]
    return {
        "state.apply_permutation.calls_per_op":
            calls["state.apply_permutation"] / ops,
        "state.permutation_entries_per_op":
            counts["state.permutation_entries"] / ops,
        "oracles.prepare_joint.calls_per_op": calls["oracles.prepare_joint"] / ops,
        "state.dense_dim_max": dim,
        "state.amplitude_bytes_max": 16 * dim,
        "state.density_dim_max": counts["state.density_dim_max"],
        "counting.engine_bytes_max": counts["counting.engine_bytes_max"],
        "counting.iterate_applications_per_op":
            counts["counting.iterate_applications"] / ops,
        "counting.circuit_share":
            counts["counting.circuit_estimates"] / estimates if estimates else 0.0,
        "counting.bits_mean": counts["counting.bits"] / estimates if estimates else 0.0,
        "protocol.detection_branches_per_op": child_counts(
            spans, lo, hi, "protocol.detection_probability",
            "oracles.cheat_check") / ops,
        "geometry.cells_covered_per_op": counts["geometry.cells_covered"] / ops,
    }


def pass_self_ms(spans, lo: int, hi: int, ops: int) -> dict:
    """Self milliseconds per op of each timed layer over one traced pass."""
    self_ns = self_times(spans, lo, hi)
    return {metric: sum(self_ns[s] for s in sources) / ops / 1e6
            for metric, sources in SELF_MS.items()}
