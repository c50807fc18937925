"""Wrappers around the package's layer boundaries, and the spans they record.

Callers inside the package bind their dependencies with ``from .gp import
solve``, so a wrapper must replace the name in the calling module
(``scma_d2d.allocation.solve``), not in the defining one.  Each entry of
BINDINGS names one such binding and the layer span it stands for.

Two kinds of wrapper share one table:

- checking wrappers (untraced runs) only hand return values to a note
  function, which stores what the output checks need;
- tracing wrappers (traced runs) also record a span: name, start, end,
  parent span and the request's seed, plus the counts the note function
  reads off the return value.

Spans stay in memory until the run ends; then they are reduced to
per-layer metrics and written out as CSV.  Everything runs in one thread, so a span's children never overlap
and its self time is its duration minus the sum of its children's.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

from scma_d2d import allocation, capacity, experiments
from scma_d2d.allocation import InfeasibleScenarioError
from scma_d2d.gp import OPTIMAL


@dataclass
class Observations:
    """What the wrappers saw during one request, for the output checks."""

    allocations: list = field(default_factory=list)    # IterationTrace, None if infeasible
    solves: list = field(default_factory=list)         # SolverResult
    eigen: list = field(default_factory=list)          # (matrix, eigenvalues)
    product_terms: list = field(default_factory=list)  # term count of each expanded product

    def clear(self):
        for items in (self.allocations, self.solves, self.eigen, self.product_terms):
            items.clear()


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into Recorder.spans, -1 for a request's root
    request: int         # the request's seed
    counts: dict | None


class Recorder:
    """In-memory span store; one open span per nesting level."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request = -1
        self._open: list[int] = []

    def open(self, name) -> Span:
        span = Span(name, perf_counter(), 0.0,
                    self._open[-1] if self._open else -1, self.request, None)
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span):
        span.end = perf_counter()
        self._open.pop()


# Note functions: (observations, call args, result, error) -> counts or None.

def _note_allocate(obs, args, result, error):
    if isinstance(error, InfeasibleScenarioError):
        obs.allocations.append(None)
        return {"infeasible": 1}
    if error is None:
        obs.allocations.append(result)
        return {"passes": len(result.points)}
    return None


def _note_solve(obs, args, result, error):
    if error is not None:
        return None
    obs.solves.append(result)
    return {"steps": result.newton_steps_used, "gap": result.certified_gap,
            "failed": int(result.status != OPTIMAL)}


def _note_product(obs, args, result, error):
    if error is not None:
        return None
    obs.product_terms.append(len(result))
    return {"terms": len(result)}


def _note_condense(obs, args, result, error):
    return None if error is not None else {"terms": len(args[0])}


def _note_baseline(obs, args, result, error):
    if error is not None:
        return None
    return {"draws": result.draws_used, "feasible": int(result.feasible)}


def _note_eigen(obs, args, result, error):
    if error is None:
        obs.eigen.append((args[0].copy(), result))
    return None


# (module, attribute, span name, note function, needed by the output checks)
BINDINGS = [
    (experiments, "run_baseline_comparison", "experiments.run", None, False),
    (experiments, "run_bound_validation", "experiments.run", None, False),
    (experiments, "sample_geometry", "channel.sample", None, False),
    (experiments, "sample_channels", "channel.sample", None, False),
    (experiments, "allocate", "allocation.allocate", _note_allocate, True),
    (allocation, "allocate", "allocation.allocate", _note_allocate, True),
    (allocation, "build_p2", "allocation.build_p2", None, False),
    (allocation, "product", "posynomial.product", _note_product, False),
    (allocation, "condense", "posynomial.condense", _note_condense, False),
    (allocation, "solve", "gp.solve", _note_solve, True),
    (allocation, "find_feasible", "gp.find_feasible", None, False),
    (allocation, "sum_rate", "allocation.sum_rate", None, False),
    (experiments, "sum_rate", "allocation.sum_rate", None, False),
    (experiments, "random_baseline", "allocation.baseline", _note_baseline, False),
    (experiments, "bound_report", "capacity.bound_report", None, False),
    (capacity, "hermitian_eigenvalues", "eig.call", _note_eigen, True),
]


def _checking(original, note, obs):
    def wrapper(*args, **kwargs):
        try:
            result = original(*args, **kwargs)
        except Exception as err:
            note(obs, args, None, err)
            raise
        note(obs, args, result, None)
        return result
    return wrapper


def _tracing(original, name, note, obs, recorder):
    def wrapper(*args, **kwargs):
        span = recorder.open(name)
        try:
            result = original(*args, **kwargs)
        except Exception as err:
            recorder.close(span)
            if note is not None:
                span.counts = note(obs, args, None, err)
            raise
        recorder.close(span)
        if note is not None:
            span.counts = note(obs, args, result, None)
        return result
    return wrapper


class Hooks:
    """Installs the wrappers on entry and puts the originals back on exit.

    With a recorder every binding is traced; without one only the
    bindings the output checks need are wrapped, and nothing is timed.
    """

    def __init__(self, obs: Observations, recorder: Recorder | None = None):
        self.obs = obs
        self.recorder = recorder
        self._saved = []

    def __enter__(self):
        for module, attr, name, note, checked in BINDINGS:
            original = getattr(module, attr)
            if self.recorder is not None:
                wrapper = _tracing(original, name, note, self.obs, self.recorder)
            elif checked:
                wrapper = _checking(original, note, self.obs)
            else:
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False


def layer_metrics(spans, n_requests, csv_bytes, overhead_share):
    """Per-layer metrics from the spans of n_requests traced requests.

    ``*_ms`` figures are milliseconds per request; counts are per request
    unless the name says per call, per solve or per draw.  A layer that
    did not run in the workload reads 0.
    """
    total = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(float)
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start
    gap_max = 0.0
    for span, children in zip(spans, child_time):
        duration = span.end - span.start
        total[span.name] += duration
        self_time[span.name] += duration - children
        calls[span.name] += 1
        for key, value in (span.counts or {}).items():
            counts[span.name, key] += value
        if span.name == "gp.solve" and span.counts:
            gap_max = max(gap_max, span.counts["gap"])

    def per_request_ms(seconds):
        return 1e3 * seconds / n_requests

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    allocations = calls["allocation.allocate"]
    infeasible = counts["allocation.allocate", "infeasible"]
    steps = counts["gp.solve", "steps"]
    draws = counts["allocation.baseline", "draws"]
    return {
        "gp.solves": calls["gp.solve"] / n_requests,
        "gp.newton_steps": ratio(steps, calls["gp.solve"]),
        "gp.solve_ms": per_request_ms(total["gp.solve"]),
        "gp.newton_step_us": ratio(total["gp.solve"], steps, 1e6),
        "gp.certified_gap_max": gap_max,
        "gp.failed": counts["gp.solve", "failed"],
        "gp.find_feasible_calls": calls["gp.find_feasible"] / n_requests,
        "gp.find_feasible_ms": per_request_ms(total["gp.find_feasible"]),
        "allocation.phase1_share": ratio(calls["gp.find_feasible"], allocations),
        "posynomial.product_ms": per_request_ms(total["posynomial.product"]),
        "posynomial.objective_terms": ratio(counts["posynomial.product", "terms"],
                                            allocations),
        "posynomial.condense_ms": per_request_ms(total["posynomial.condense"]),
        "posynomial.condense_terms": ratio(counts["posynomial.condense", "terms"],
                                           calls["posynomial.condense"]),
        "allocation.build_p2_ms": per_request_ms(total["allocation.build_p2"]),
        "allocation.sum_rate_ms": per_request_ms(total["allocation.sum_rate"]),
        "allocation.self_ms": per_request_ms(self_time["allocation.allocate"]),
        "allocation.passes": ratio(counts["allocation.allocate", "passes"],
                                   allocations - infeasible),
        "allocation.infeasible_share": ratio(infeasible, allocations),
        "allocation.baseline_ms": per_request_ms(total["allocation.baseline"]),
        "allocation.baseline_draws": ratio(draws, calls["allocation.baseline"]),
        "allocation.baseline_us_per_draw": ratio(total["allocation.baseline"], draws, 1e6),
        "allocation.baseline_feasible_ratio": ratio(
            counts["allocation.baseline", "feasible"], calls["allocation.baseline"]),
        "eig.calls": calls["eig.call"] / n_requests,
        "eig.call_us": ratio(total["eig.call"], calls["eig.call"], 1e6),
        "capacity.bound_report_ms": per_request_ms(total["capacity.bound_report"]),
        "capacity.self_ms": per_request_ms(self_time["capacity.bound_report"]),
        "channel.sample_ms": per_request_ms(total["channel.sample"]),
        "experiments.self_ms": per_request_ms(self_time["experiments.run"]),
        "experiments.csv_bytes": csv_bytes / n_requests,
        "trace.overhead_share": overhead_share,
    }
