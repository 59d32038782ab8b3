"""Per-layer timing from outside the program.

A ``Tracer`` replaces public spinpulse callables with timing wrappers at the
attribute where their caller looks them up (``spinpulse.cli.run_protocol``,
``spinpulse.sparse_engine.apply_pulse``, ``RunReport.save`` ...) and puts
the original objects back on exit.  Each wrapper records a span; a span's
self time is its duration minus the wrapped calls it contains, so the self
times of all spans plus the time outside every span add up to the traced
wall time.  Optional hooks count work from a call's arguments and result.

``chain`` and ``pulses`` are deliberately not wrapped: their calls take
microseconds and run millions of times, so a wrapper would distort them.
"""

from __future__ import annotations

import importlib
import math
import os
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable


@dataclass
class Span:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    durations: list[float] = field(default_factory=list)


@dataclass(frozen=True)
class Point:
    """A callable to wrap: ``owner`` is a module path, or ``module:Class``."""

    owner: str
    attr: str
    span: str
    hook: Callable | None = None


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    def __init__(self, points: list[Point]):
        self.points = points
        self.spans: dict[str, Span] = {}
        self.counts: Counter = Counter()
        self.outside = 0.0  # time covered by top-level spans, for the remainder
        self._stack: list[list[float]] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        try:
            for point in self.points:
                owner = _resolve(point.owner)
                original = vars(owner)[point.attr]
                self._saved.append((owner, point.attr, original))
                setattr(owner, point.attr, self._wrap(point, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, point: Point, original):
        is_classmethod = isinstance(original, classmethod)
        func = original.__func__ if is_classmethod else original
        span = self.spans.setdefault(point.span, Span())
        stack = self._stack

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                span.calls += 1
                span.total += duration
                span.durations.append(duration)
                span.self_time += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                else:
                    self.outside += duration
            if point.hook is not None:
                point.hook(self.counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = func
        return classmethod(wrapper) if is_classmethod else wrapper

    def total(self, *names: str) -> float:
        return sum(self.spans[n].total for n in names if n in self.spans)

    def self_time(self, *names: str) -> float:
        return sum(self.spans[n].self_time for n in names if n in self.spans)

    def calls(self, *names: str) -> int:
        return sum(self.spans[n].calls for n in names if n in self.spans)


# -- count hooks ------------------------------------------------------------


def _protocol_len(args) -> int:
    return len(args[1].pulses) if hasattr(args[1], "pulses") else len(args[1])


def _engine_pulses(counts, args, kwargs, result):
    counts["engine.pulses"] += _protocol_len(args)


def _sparse_run(counts, args, kwargs, result):
    counts["engine.pulses"] += _protocol_len(args)
    counts["sparse.pulses"] += _protocol_len(args)
    counts["sparse.ledger_entries"] += len(result.generation)
    counts["sparse.final_states"] += len(result.final_amps)


def _states_in(counts, args, kwargs, result):
    counts["sparse.states_in"] += len(args[0].amps)


def _pruned(counts, args, kwargs, result):
    counts["sparse.pruned_states"] += len(args[0].amps) - len(result.amps)


def _saved_bytes(counts, args, kwargs, result):
    counts["report.json_bytes"] += os.path.getsize(args[1])


def _unwanted(counts, args, kwargs, result):
    counts["report.unwanted_count"] = max(counts["report.unwanted_count"], len(result))


def _protocols(counts, args, kwargs, result):
    counts["design.protocols"] += 1


def _eigh(counts, args, kwargs, result):
    counts["exact.eigh_dim"] = max(counts["exact.eigh_dim"], result.values.shape[0])


def _rk4_steps(counts, args, kwargs, result):
    from spinpulse.oscillator import default_step

    _engine_pulses(counts, args, kwargs, result)
    protocol, cfg = args[1], args[2]
    step = kwargs.get("step")
    if step is None:
        step = default_step(cfg, protocol, kwargs.get("norm_tol", 1e-9))
    counts["oscillator.rk4_steps"] += sum(
        max(1, math.ceil(p.duration / step)) for p in protocol.pulses
    )


def _cells(counts, args, kwargs, result):
    counts["error_model.cells"] += len(args[1]) * len(args[2])


ENGINE_SPANS = ("sparse_engine.run", "exact_engine.run", "oscillator.run")

# The untraced run times only the engine entry points (a few calls per run),
# so that pulses per second of engine time can be reported without tracing.
ENGINE_POINTS = [
    Point("spinpulse.cli", "run_protocol", "sparse_engine.run", _sparse_run),
    Point("spinpulse.sparse_engine", "run_protocol", "sparse_engine.run", _sparse_run),
    Point("spinpulse.cli", "run_protocol_exact", "exact_engine.run", _engine_pulses),
    Point("spinpulse.cli", "run_protocol_classical", "oscillator.run", _rk4_steps),
]

LAYER_POINTS = ENGINE_POINTS + [
    Point("spinpulse.cli", "main", "cli.main"),
    Point("spinpulse.sparse_engine", "apply_pulse", "sparse_engine.apply_pulse", _states_in),
    Point("spinpulse.sparse_engine", "prune", "sparse_engine.prune", _pruned),
    Point("spinpulse.sparse_engine", "make_report", "report.make"),
    Point("spinpulse.exact_engine", "make_report", "report.make"),
    Point("spinpulse.oscillator", "make_report", "report.make"),
    Point("spinpulse.report:RunReport", "save", "report.save", _saved_bytes),
    Point("spinpulse.report:RunReport", "load", "report.load"),
    Point("spinpulse.report:RunReport", "unwanted_records", "report.unwanted_records", _unwanted),
    Point("spinpulse.report:RunReport", "trace_csv", "report.trace_csv"),
    Point("spinpulse.cli", "band_classify", "report.bands"),
    Point("spinpulse.cli", "excitation_profiles", "report.bands"),
    Point("spinpulse.cli", "build_cn_protocol", "design.build", _protocols),
    Point("spinpulse.design", "build_cn_protocol", "design.build", _protocols),
    Point("spinpulse.cli", "perturb_protocol", "design.build"),
    Point("spinpulse.exact_engine", "diagonalize", "exact_engine.eigh", _eigh),
    Point("spinpulse.exact_engine", "build_rotating_hamiltonian", "exact_engine.build"),
    Point("spinpulse.exact_engine", "evolve_pulse_exact", "exact_engine.evolve"),
    Point("spinpulse.cli", "sweep_threshold_regions", "error_model.sweep", _cells),
]


def _per(value: float, count: float, scale: float) -> float:
    return scale * value / count if count else 0.0


def layer_metrics(tracer: Tracer, wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced run (values only; units live in BENCHMARK.json)."""
    t, c = tracer, tracer.counts
    sparse_run = t.total("sparse_engine.run")
    apply_s = t.total("sparse_engine.apply_pulse")
    exact_run = t.total("exact_engine.run")
    osc_run = t.total("oscillator.run")
    sweep = t.total("error_model.sweep")
    return {
        "sparse_engine.run_s": sparse_run,
        "sparse_engine.apply_pulse_s": apply_s,
        "sparse_engine.states_in": c["sparse.states_in"],
        "sparse_engine.ns_per_state": _per(apply_s, c["sparse.states_in"], 1e9),
        "sparse_engine.us_per_pulse": _per(sparse_run, c["sparse.pulses"], 1e6),
        "sparse_engine.prune_s": t.total("sparse_engine.prune"),
        "sparse_engine.pruned_states": c["sparse.pruned_states"],
        "sparse_engine.loop_self_s": t.self_time("sparse_engine.run"),
        "sparse_engine.ledger_entries": c["sparse.ledger_entries"],
        "sparse_engine.final_states": c["sparse.final_states"],
        "report.make_s": t.total("report.make"),
        "report.save_s": t.total("report.save"),
        "report.load_s": t.total("report.load"),
        "report.json_bytes": c["report.json_bytes"],
        "report.unwanted_records_s": t.total("report.unwanted_records"),
        "report.unwanted_records_calls": t.calls("report.unwanted_records"),
        "report.bands_s": t.total("report.bands"),
        "report.trace_csv_s": t.total("report.trace_csv"),
        "report.unwanted_count": c["report.unwanted_count"],
        "design.build_s": t.total("design.build"),
        "design.protocols": c["design.protocols"],
        "exact_engine.run_s": exact_run,
        "exact_engine.eigh_s": t.total("exact_engine.eigh"),
        "exact_engine.eigh_calls": t.calls("exact_engine.eigh"),
        "exact_engine.eigh_dim": c["exact.eigh_dim"],
        "exact_engine.build_s": t.total("exact_engine.build"),
        "exact_engine.evolve_s": t.total("exact_engine.evolve"),
        "exact_engine.self_s": t.self_time("exact_engine.run"),
        "oscillator.run_s": osc_run,
        "oscillator.rk4_steps": c["oscillator.rk4_steps"],
        "oscillator.us_per_step": _per(osc_run, c["oscillator.rk4_steps"], 1e6),
        "error_model.sweep_s": sweep,
        "error_model.cells": c["error_model.cells"],
        "error_model.us_per_cell": _per(sweep, c["error_model.cells"], 1e6),
        "cli.self_s": t.self_time("cli.main"),
        "bench.self_s": wall - t.outside,
    }
