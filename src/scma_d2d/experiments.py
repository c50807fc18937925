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

DEFAULT_SWEEP_DBM = (24.0, 26.0, 28.0, 30.0, 32.0)

# sweep experiment kind -> the scenario field it sweeps
SWEEP_FIELDS = {"sweep_cellular_cap": "cellular_power_cap_dbm",
                "sweep_d2d_cap": "d2d_power_cap_dbm"}


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
        if self.kind not in RUNNERS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        cap_field = SWEEP_FIELDS.get(self.kind)
        if cap_field and not self.sweep_values_dbm:
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
        build_factor_graph(self.scenario.K, self.scenario.J, self.scenario.N)
        for value in self.sweep_values_dbm if cap_field else ():
            dataclasses.replace(self.scenario, **{cap_field: value}).validate()
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

    def summary(self) -> str:
        """What the CLI prints: the files written, then a line per sweep value."""
        lines = [f"wrote {self.detail_path} and {self.summary_path}"]
        for row in self.rows:
            lines.append(f"  {row.sweep_value_dbm:g} dBm: proposed "
                         f"{row.mean_sum_rate_proposed:.4f}, random "
                         f"{row.mean_sum_rate_random:.4f} ({row.num_seeds_used} "
                         f"seeds, {row.num_infeasible_draws} infeasible)")
        return "\n".join(lines)


def _setup(spec: ExperimentSpec):
    """Validate spec; its scenario, factor graph and default occupancy."""
    spec.validate()
    cfg = spec.scenario
    return cfg, build_factor_graph(cfg.K, cfg.J, cfg.N), default_occupancy(cfg.J_D)


def _runs(spec: ExperimentSpec, **fields):
    """(scenario, random streams, channels) of each seed of spec, with
    fields replacing scenario fields."""
    for seed in range(spec.scenario.seed, spec.scenario.seed + spec.num_seeds):
        cfg = dataclasses.replace(spec.scenario, seed=seed, **fields)
        streams = rng_streams(seed)
        geo = sample_geometry(cfg, streams.geometry)
        yield cfg, streams, sample_channels(cfg, geo, streams.fading)


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def _write_csv(path, header, rows):
    """header and then each row, comma-separated: a float as repr(float),
    None as an empty cell, anything else through str."""
    Path(path).write_text("".join(
        ",".join(map(_cell, row)) + "\n" for row in [header, *rows]))


def _paired_rates(cfg: ScenarioConfig, streams, ch, graph, occupancy, t_max):
    """Scaled (proposed, random) sum rates on channels ch, or None when the
    QoS floors are jointly infeasible or the random baseline finds no
    feasible draw."""
    try:
        trace = allocate(cfg, ch, graph, occupancy, t_max=t_max)
    except InfeasibleScenarioError:
        return None
    draw = random_baseline(cfg, ch, graph, occupancy, streams.baseline)
    if not draw.feasible:
        return None
    return (trace.final.sum_rate_bits * cfg.rate_scale,
            sum_rate(ch, graph, occupancy, draw.allocation) * cfg.rate_scale)


def _paired_runs(spec: ExperimentSpec, graph, occupancy, **fields):
    """Proposed and random sum rates on every seed of spec, with fields
    replacing scenario fields.  Returns the detail rows (seed, proposed,
    random, feasible flag), rates None on an infeasible seed, and the
    summary (mean proposed, mean random, infeasible, used), means nan
    when no seed is used."""
    rows = []
    for cfg, streams, ch in _runs(spec, **fields):
        rates = _paired_rates(cfg, streams, ch, graph, occupancy, spec.t_max)
        rows.append((cfg.seed, *(rates or (None, None)), int(rates is not None)))
    used = [row[1:3] for row in rows if row[3]]
    means = [float(np.mean(v)) for v in zip(*used)] if used else [np.nan, np.nan]
    return rows, (*means, len(rows) - len(used), len(used))


@dataclass
class ConvergenceResult:
    output_path: str
    traces: dict          # seed -> IterationTrace
    infeasible_seeds: list

    @property
    def all_infeasible(self):
        return not self.traces

    def summary(self) -> str:
        """What the CLI prints: the file written, then a line per trace."""
        lines = [f"wrote {self.output_path}: {len(self.traces)} trace(s), "
                 f"{len(self.infeasible_seeds)} infeasible seed(s)"]
        for seed, trace in self.traces.items():
            tag = "converged" if trace.converged else "cap reached"
            lines.append(f"  seed {seed}: {trace.iterations_used} pass(es), {tag}, "
                         f"final sum rate {trace.final.sum_rate_bits:.4f}")
        return "\n".join(lines)


def _write_solver_traces(output_path, seed, trace):
    """One CSV per pass, <stem>_solver_seed<seed>_pass<i>.csv, with a row
    per centering of that pass's GP solve."""
    stem = str(Path(output_path).with_suffix(""))
    for it, point in enumerate(trace.points):
        _write_csv(f"{stem}_solver_seed{seed}_pass{it}.csv",
                   ["outer_iteration", "t", "objective", "gap"],
                   [(outer, t, f0, gap)
                    for outer, (t, _, f0, gap) in enumerate(point.solver.path)])


def run_convergence(spec: ExperimentSpec) -> ConvergenceResult:
    """One allocator trace per seed; rows hold per-variable powers (watts
    and dBm) and the sum rate at every pass, pass 0 being the start."""
    cfg, graph, occupancy = _setup(spec)
    names, _ = variable_registry(graph, cfg.J_D)
    header = ["seed", "iteration",
              *(f"{n}_{unit}" for n in names for unit in ("w", "dbm")),
              "sum_rate_bits", "converged"]
    traces = {}
    infeasible = []
    rows = []
    for run_cfg, _, ch in _runs(spec):
        seed = run_cfg.seed
        try:
            trace = allocate(run_cfg, ch, graph, occupancy, t_max=spec.t_max)
        except InfeasibleScenarioError:
            infeasible.append(seed)
            continue
        traces[seed] = trace
        if spec.trace_solver:
            _write_solver_traces(spec.output_path, seed, trace)
        allocs = [trace.initial_powers] + [p.powers for p in trace.points]
        for it, (alloc, rate) in enumerate(zip(allocs, trace.rates())):
            row = [seed, it]
            for v in pack_allocation(graph, alloc.cellular, alloc.d2d):
                row += [v, watts_to_dbm(v) if v > 0 else "-inf"]
            rows.append(row + [rate * cfg.rate_scale, int(trace.converged)])
    _write_csv(spec.output_path, header, rows)
    return ConvergenceResult(spec.output_path, traces, infeasible)


def run_sweep(spec: ExperimentSpec) -> SweepResult:
    """Proposed-vs-random mean sum rates while one power cap sweeps.

    The same seeds (hence the same channel draws) are reused at every
    sweep value; only the swept cap, and with it the half-cap start and
    the cap constraints, changes.
    """
    _, graph, occupancy = _setup(spec)
    cap_field = SWEEP_FIELDS[spec.kind]
    detail, rows = [], []
    for value in map(float, spec.sweep_values_dbm):
        seed_rows, summary = _paired_runs(spec, graph, occupancy, **{cap_field: value})
        detail += [(value, *row) for row in seed_rows]
        rows.append(SweepRow(value, *summary))
    summary_path = str(Path(spec.output_path).with_suffix("")) + "_summary.csv"
    _write_csv(spec.output_path,
               ["sweep_dbm", "seed", "proposed_bits", "random_bits", "feasible"],
               detail)
    _write_csv(summary_path,
               ["sweep_dbm", "mean_sum_rate_proposed", "mean_sum_rate_random",
                "num_infeasible_draws", "num_seeds_used"],
               [(r.sweep_value_dbm,
                 *((r.mean_sum_rate_proposed, r.mean_sum_rate_random)
                   if r.num_seeds_used else (None, None)),
                 r.num_infeasible_draws, r.num_seeds_used) for r in rows])
    return SweepResult(rows, spec.output_path, summary_path)


@dataclass
class BoundValidationResult:
    output_path: str
    num_rows: int
    num_violations: int

    @property
    def all_infeasible(self):
        return False

    def summary(self) -> str:
        """What the CLI prints."""
        return (f"wrote {self.output_path}: {self.num_rows} rows, "
                f"{self.num_violations} violation(s)")


def run_bound_validation(spec: ExperimentSpec) -> BoundValidationResult:
    """Per-seed eigenvalue sandwich rows plus the capacity bracket.

    Each seed draws fresh channels and a random codebook skeleton; the
    D2D transmitters run at half cap.  Violations are counted against a
    relative slack of 1e-9 (the physical scales here are far below an
    absolute 1e-9).
    """
    cfg, graph, occupancy = _setup(spec)
    rows = []
    violations = 0
    for run_cfg, streams, ch in _runs(spec):
        skel = random_skeleton(graph, streams.skeleton,
                               per_user_power_w=cfg.cellular_power_cap_w)
        splits = [covariance_split(skel, j) for j in range(cfg.J)]
        alloc = PowerAllocation(np.zeros((cfg.J, cfg.K)),
                                np.full(cfg.J_D, cfg.d2d_power_cap_w / 2))
        noise = equivalent_noise(ch, alloc, occupancy)
        report = bound_report(ch, splits, noise)
        slack = 1e-9 * float(np.abs(report.eigenvalues).max())
        for k, lam, lo, hi in report.rows():
            if lam < lo - slack or lam > hi + slack:
                violations += 1
            rows.append((run_cfg.seed, k, lo, lam, hi, report.exact_bits,
                         report.upper_bits))
        if report.exact_bits > report.upper_bits + 1e-9:
            violations += 1
    _write_csv(spec.output_path,
               ["seed", "k", "lower", "exact_eig", "upper", "exact_capacity_bits",
                "capacity_upper_bits"], rows)
    return BoundValidationResult(spec.output_path, len(rows), violations)


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

    def summary(self) -> str:
        """What the CLI prints."""
        return (f"wrote {self.output_path}: proposed {self.mean_proposed:.4f} "
                f"vs random {self.mean_random:.4f} over {self.num_seeds_used} "
                f"seeds ({self.num_infeasible} infeasible)")


def run_baseline_comparison(spec: ExperimentSpec) -> ComparisonResult:
    """Proposed vs feasible-random sum rate at fixed caps."""
    _, graph, occupancy = _setup(spec)
    rows, summary = _paired_runs(spec, graph, occupancy)
    _write_csv(spec.output_path,
               ["seed", "proposed_bits", "random_bits", "feasible"], rows)
    return ComparisonResult(spec.output_path, *summary)


# experiment kind -> runner
RUNNERS = {
    "convergence": run_convergence,
    "sweep_cellular_cap": run_sweep,
    "sweep_d2d_cap": run_sweep,
    "bound_validation": run_bound_validation,
    "baseline_comparison": run_baseline_comparison,
}


def run_experiment(spec: ExperimentSpec):
    return RUNNERS[spec.kind](spec)
