"""Experiment harness: convergence runs, cap sweeps, bound validation and
baseline comparison, all emitting plot-ready CSV.

Every detail row carries the seed that produced it; seeds are
scenario.seed .. scenario.seed + num_seeds - 1 and are shared across sweep
values and across the proposed/random legs, so comparisons are paired.
Channel draws whose QoS floors are jointly unsatisfiable (or where the
random baseline cannot find a feasible draw) are excluded from means and
counted, never imputed.  Identical spec and seed list reproduce files
byte for byte.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .allocation import (
    InfeasibleScenarioError,
    allocate,
    pack_allocation,
    random_baseline,
    sum_rate,
    variable_registry,
)
from .capacity import (
    PowerAllocation,
    bound_report,
    default_occupancy,
    equivalent_noise,
)
from .channel import (
    ScenarioConfig,
    rng_streams,
    sample_channels,
    sample_geometry,
    watts_to_dbm,
)
from .factor_graph import build_factor_graph, covariance_split, random_skeleton

KINDS = ("convergence", "sweep_cellular_cap", "sweep_d2d_cap",
         "bound_validation", "baseline_comparison")

DEFAULT_SWEEP_DBM = (24.0, 26.0, 28.0, 30.0, 32.0)


@dataclass
class ExperimentSpec:
    kind: str
    scenario: ScenarioConfig
    output_path: str
    num_seeds: int = 1
    sweep_values_dbm: tuple = ()
    t_max: int = 10
    trace_solver: bool = False

    def validate(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if self.kind.startswith("sweep") and not self.sweep_values_dbm:
            raise ValueError("sweep experiments need a non-empty sweep list")
        if self.num_seeds < 1:
            raise ValueError("num_seeds must be at least 1")
        if self.t_max < 1:
            raise ValueError("t_max must be at least 1")
        out = Path(self.output_path)
        if not out.parent.is_dir():
            raise ValueError(f"output directory {str(out.parent)!r} does not exist")
        if out.is_dir():
            raise ValueError(f"output path {self.output_path!r} is a directory")
        self.scenario.validate()
        return self


@dataclass
class SweepRow:
    sweep_value_dbm: float
    mean_sum_rate_proposed: float
    mean_sum_rate_random: float
    num_infeasible_draws: int
    num_seeds_used: int


@dataclass
class SweepResult:
    rows: list
    detail_path: str
    summary_path: str

    @property
    def all_infeasible(self):
        return all(r.num_seeds_used == 0 for r in self.rows)


def _seeds(spec: ExperimentSpec):
    return range(spec.scenario.seed, spec.scenario.seed + spec.num_seeds)


def _draw(cfg: ScenarioConfig, seed: int):
    streams = rng_streams(seed)
    geo = sample_geometry(cfg, streams.geometry)
    ch = sample_channels(cfg, geo, streams.fading)
    return streams, ch


def _fmt(x) -> str:
    return repr(float(x))


def _paired_rates(run_cfg: ScenarioConfig, graph, occupancy, t_max):
    """Scaled (proposed, random) sum rates on the channels of run_cfg.seed,
    or None when the QoS floors are jointly infeasible or the random
    baseline finds no feasible draw."""
    streams, ch = _draw(run_cfg, run_cfg.seed)
    try:
        trace = allocate(run_cfg, ch, graph, occupancy, t_max=t_max)
    except InfeasibleScenarioError:
        return None
    draw = random_baseline(run_cfg, ch, graph, occupancy, streams.baseline)
    if not draw.feasible:
        return None
    scale = run_cfg.rate_scale
    return (trace.final.sum_rate_bits * scale,
            sum_rate(ch, graph, occupancy, draw.allocation) * scale)


@dataclass
class ConvergenceResult:
    output_path: str
    traces: dict          # seed -> IterationTrace
    infeasible_seeds: list

    @property
    def all_infeasible(self):
        return not self.traces


def _write_solver_traces(output_path, seed, trace):
    """One CSV per pass, <stem>_solver_seed<seed>_pass<i>.csv, with a row
    per centering of that pass's GP solve."""
    stem = str(Path(output_path).with_suffix(""))
    for it, point in enumerate(trace.points):
        lines = ["outer_iteration,t,objective,gap"]
        for outer, (t, _, f0, gap) in enumerate(point.solver.path):
            lines.append(f"{outer},{_fmt(t)},{_fmt(f0)},{_fmt(gap)}")
        Path(f"{stem}_solver_seed{seed}_pass{it}.csv").write_text(
            "\n".join(lines) + "\n")


def run_convergence(spec: ExperimentSpec) -> ConvergenceResult:
    """One allocator trace per seed; rows hold per-variable powers (watts
    and dBm) and the sum rate at every pass, pass 0 being the start."""
    spec.validate()
    cfg = spec.scenario
    graph = build_factor_graph(cfg.K, cfg.J, cfg.N)
    occupancy = default_occupancy(cfg.J_D)
    names, cell_vars = variable_registry(graph, cfg.J_D)
    scale = cfg.rate_scale

    header = ["seed", "iteration"]
    for n in names:
        header += [f"{n}_w", f"{n}_dbm"]
    header += ["sum_rate_bits", "converged"]

    traces = {}
    infeasible = []
    lines = [",".join(header)]
    for seed in _seeds(spec):
        run_cfg = dataclasses.replace(cfg, seed=seed)
        _, ch = _draw(run_cfg, seed)
        try:
            trace = allocate(run_cfg, ch, graph, occupancy, t_max=spec.t_max)
        except InfeasibleScenarioError:
            infeasible.append(seed)
            continue
        traces[seed] = trace
        if spec.trace_solver:
            _write_solver_traces(spec.output_path, seed, trace)
        allocs = [trace.initial_powers] + [p.powers for p in trace.points]
        rates = trace.rates()
        for it, (alloc, rate) in enumerate(zip(allocs, rates)):
            cells = [str(seed), str(it)]
            for v in pack_allocation(cell_vars, alloc):
                cells.append(_fmt(v))
                cells.append(_fmt(watts_to_dbm(v)) if v > 0 else "-inf")
            cells.append(_fmt(rate * scale))
            cells.append("1" if trace.converged else "0")
            lines.append(",".join(cells))
    Path(spec.output_path).write_text("\n".join(lines) + "\n")
    return ConvergenceResult(spec.output_path, traces, infeasible)


def run_sweep(spec: ExperimentSpec) -> SweepResult:
    """Proposed-vs-random mean sum rates while one power cap sweeps.

    The same seeds (hence the same channel draws) are reused at every
    sweep value; only the swept cap, and with it the half-cap start and
    the cap constraints, changes.
    """
    spec.validate()
    cap_field = ("cellular_power_cap_dbm" if spec.kind == "sweep_cellular_cap"
                 else "d2d_power_cap_dbm")
    cfg = spec.scenario
    graph = build_factor_graph(cfg.K, cfg.J, cfg.N)
    occupancy = default_occupancy(cfg.J_D)

    detail_path = spec.output_path
    summary_path = str(Path(spec.output_path).with_suffix("")) + "_summary.csv"
    detail = ["sweep_dbm,seed,proposed_bits,random_bits,feasible"]
    rows = []
    for value in spec.sweep_values_dbm:
        proposed, random_rates = [], []
        infeasible = 0
        for seed in _seeds(spec):
            run_cfg = dataclasses.replace(cfg, seed=seed, **{cap_field: value})
            rates = _paired_rates(run_cfg, graph, occupancy, spec.t_max)
            if rates is None:
                infeasible += 1
                detail.append(f"{_fmt(value)},{seed},,,0")
                continue
            p_rate, r_rate = rates
            proposed.append(p_rate)
            random_rates.append(r_rate)
            detail.append(f"{_fmt(value)},{seed},{_fmt(p_rate)},{_fmt(r_rate)},1")
        used = len(proposed)
        rows.append(SweepRow(
            sweep_value_dbm=value,
            mean_sum_rate_proposed=float(np.mean(proposed)) if used else np.nan,
            mean_sum_rate_random=float(np.mean(random_rates)) if used else np.nan,
            num_infeasible_draws=infeasible,
            num_seeds_used=used,
        ))
    Path(detail_path).write_text("\n".join(detail) + "\n")
    summary = ["sweep_dbm,mean_sum_rate_proposed,mean_sum_rate_random,"
               "num_infeasible_draws,num_seeds_used"]
    for r in rows:
        summary.append(",".join([
            _fmt(r.sweep_value_dbm),
            _fmt(r.mean_sum_rate_proposed) if r.num_seeds_used else "",
            _fmt(r.mean_sum_rate_random) if r.num_seeds_used else "",
            str(r.num_infeasible_draws), str(r.num_seeds_used)]))
    Path(summary_path).write_text("\n".join(summary) + "\n")
    return SweepResult(rows, detail_path, summary_path)


@dataclass
class BoundValidationResult:
    output_path: str
    num_rows: int
    num_violations: int

    @property
    def all_infeasible(self):
        return False


def run_bound_validation(spec: ExperimentSpec) -> BoundValidationResult:
    """Per-seed eigenvalue sandwich rows plus the capacity bracket.

    Each seed draws fresh channels and a random codebook skeleton; the
    D2D transmitters run at half cap.  Violations are counted against a
    relative slack of 1e-9 (the physical scales here are far below an
    absolute 1e-9).
    """
    spec.validate()
    cfg = spec.scenario
    graph = build_factor_graph(cfg.K, cfg.J, cfg.N)
    occupancy = default_occupancy(cfg.J_D)

    lines = ["seed,k,lower,exact_eig,upper,exact_capacity_bits,capacity_upper_bits"]
    violations = 0
    num_rows = 0
    for seed in _seeds(spec):
        run_cfg = dataclasses.replace(cfg, seed=seed)
        streams, ch = _draw(run_cfg, seed)
        skel = random_skeleton(graph, streams.skeleton,
                               per_user_power_w=cfg.cellular_power_cap_w)
        splits = [covariance_split(skel, j) for j in range(cfg.J)]
        alloc = PowerAllocation(np.zeros((cfg.J, cfg.K)),
                                np.full(cfg.J_D, cfg.d2d_power_cap_w / 2))
        noise = equivalent_noise(ch, alloc, occupancy)
        report = bound_report(ch, splits, noise)
        slack = 1e-9 * float(np.abs(report.eigenvalues).max())
        for k, lam, lo, hi in report.rows():
            num_rows += 1
            if lam < lo - slack or lam > hi + slack:
                violations += 1
            lines.append(f"{seed},{k},{_fmt(lo)},{_fmt(lam)},{_fmt(hi)},"
                         f"{_fmt(report.exact_bits)},{_fmt(report.upper_bits)}")
        if report.exact_bits > report.upper_bits + 1e-9:
            violations += 1
    Path(spec.output_path).write_text("\n".join(lines) + "\n")
    return BoundValidationResult(spec.output_path, num_rows, violations)


@dataclass
class ComparisonResult:
    output_path: str
    mean_proposed: float
    mean_random: float
    num_infeasible: int
    num_seeds_used: int

    @property
    def all_infeasible(self):
        return self.num_seeds_used == 0


def run_baseline_comparison(spec: ExperimentSpec) -> ComparisonResult:
    """Proposed vs feasible-random sum rate at fixed caps."""
    spec.validate()
    cfg = spec.scenario
    graph = build_factor_graph(cfg.K, cfg.J, cfg.N)
    occupancy = default_occupancy(cfg.J_D)
    lines = ["seed,proposed_bits,random_bits,feasible"]
    proposed, random_rates = [], []
    infeasible = 0
    for seed in _seeds(spec):
        run_cfg = dataclasses.replace(cfg, seed=seed)
        rates = _paired_rates(run_cfg, graph, occupancy, spec.t_max)
        if rates is None:
            infeasible += 1
            lines.append(f"{seed},,,0")
            continue
        p_rate, r_rate = rates
        proposed.append(p_rate)
        random_rates.append(r_rate)
        lines.append(f"{seed},{_fmt(p_rate)},{_fmt(r_rate)},1")
    Path(spec.output_path).write_text("\n".join(lines) + "\n")
    used = len(proposed)
    return ComparisonResult(
        output_path=spec.output_path,
        mean_proposed=float(np.mean(proposed)) if used else np.nan,
        mean_random=float(np.mean(random_rates)) if used else np.nan,
        num_infeasible=infeasible,
        num_seeds_used=used,
    )


def run_experiment(spec: ExperimentSpec):
    runner = {
        "convergence": run_convergence,
        "sweep_cellular_cap": run_sweep,
        "sweep_d2d_cap": run_sweep,
        "bound_validation": run_bound_validation,
        "baseline_comparison": run_baseline_comparison,
    }[spec.kind]
    return runner(spec)
