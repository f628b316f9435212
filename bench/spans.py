"""Traced mode: spans around the listed ohmlab functions, and the per-layer metrics.

The package's modules import each other's names directly (``from .linalg
import eigen_sym``), so a function is wrapped in every module that binds it;
patching only the defining module would miss most calls. Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import json
import statistics
import time

#: layer (ohmlab module) -> public functions traced in it
TRACED = {
    "graphs": ("build_graph", "laplacian", "is_connected", "parse_graph"),
    "linalg": ("eigen_sym", "solve_spd", "cholesky_lower"),
    "resistance": ("effective_resistance", "global_resistance", "metric_check"),
    "families": ("figure_family", "solve_third_conductance", "solve_last_cycle_conductance"),
    "extremal": ("search_counterexample", "scan_family", "monotonicity_check", "verify_theorem"),
    "cli": ("main",),
}
#: functions that also report per-call duration percentiles
PERCENTILE_FUNCTIONS = ("linalg.eigen_sym", "linalg.solve_spd", "resistance.global_resistance")
BINDING_MODULES = ("ohmlab", "ohmlab.cli", "ohmlab.extremal", "ohmlab.families",
                   "ohmlab.resistance", "ohmlab.linalg", "ohmlab.graphs")
SPAN_COLUMNS = ("round", "op", "span", "parent", "name", "start_ns", "end_ns", "self_ns")


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    names = []
    for layer, functions in TRACED.items():
        for function in functions:
            names.append((f"{layer}.{function}.calls", "count"))
            names.append((f"{layer}.{function}.self_s", "s"))
    for qualified in PERCENTILE_FUNCTIONS:
        names.append((f"{qualified}.p50_us", "us"))
        names.append((f"{qualified}.p90_us", "us"))
    names += [("extremal.restart_ms", "ms"), ("proc.cpu_per_wall", "ratio"), ("trace.overhead_s", "s")]
    return names


class Tracer:
    """Wraps the traced functions; each completed call appends one span tuple."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, ...]] = []
        self.round = -1
        self.op = -1
        self._stack: list[list[int]] = []  # [span id, summed duration of child spans]
        self._ids = itertools.count()
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for layer, functions in TRACED.items():
            home = importlib.import_module(f"ohmlab.{layer}")
            for function in functions:
                original = getattr(home, function)
                wrapper = self._wrap(f"{layer}.{function}", original)
                for binder in BINDING_MODULES:
                    module = importlib.import_module(binder)
                    if getattr(module, function, None) is original:
                        setattr(module, function, wrapper)
                        self._patched.append((module, function, original))

    def uninstall(self) -> None:
        for module, function, original in reversed(self._patched):
            setattr(module, function, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        tracer = self
        stack = self._stack
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                spans.append((tracer.round, tracer.op, span_id, parent, index, start, end,
                              duration - frame[1]))

        return traced

    def write(self, path) -> None:
        """Every span as gzipped JSON: ``names``, ``columns`` and one row per span."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            json.dump({"names": self.names, "columns": SPAN_COLUMNS, "spans": self.spans}, handle,
                      separators=(",", ":"))


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def per_layer_metrics(tracer: Tracer, traced_rounds: list[int], restarts_per_round: int,
                      traced_wall: list[float], traced_cpu: list[float],
                      untraced_wall: list[float]) -> dict[str, float]:
    """Per-layer metrics from the spans of ``traced_rounds``.

    ``.calls`` and ``.self_s`` are per round (median over the traced rounds);
    percentiles are of the inclusive duration of every traced call.
    """
    rounds = set(traced_rounds)
    calls = {(name, r): 0 for name in tracer.names for r in rounds}
    self_ns = dict.fromkeys(calls, 0)
    durations: dict[str, list[float]] = {name: [] for name in PERCENTILE_FUNCTIONS}
    for rnd, _op, _span, _parent, index, start, end, own in tracer.spans:
        if rnd not in rounds:
            continue
        name = tracer.names[index]
        calls[(name, rnd)] += 1
        self_ns[(name, rnd)] += own
        if name in durations:
            durations[name].append((end - start) / 1e3)

    values: dict[str, float] = {}
    for name in tracer.names:
        values[f"{name}.calls"] = statistics.median(calls[(name, r)] for r in rounds)
        values[f"{name}.self_s"] = statistics.median(self_ns[(name, r)] for r in rounds) / 1e9
    for name, samples in durations.items():
        samples.sort()
        values[f"{name}.p50_us"] = _percentile(samples, 0.5)
        values[f"{name}.p90_us"] = _percentile(samples, 0.9)
    search_self = values["extremal.search_counterexample.self_s"]
    values["extremal.restart_ms"] = search_self / restarts_per_round * 1e3 if restarts_per_round else 0.0
    values["proc.cpu_per_wall"] = sum(traced_cpu) / sum(traced_wall)
    values["trace.overhead_s"] = statistics.mean(traced_wall) - statistics.mean(untraced_wall)
    return values
