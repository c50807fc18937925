"""The benchmark's workloads and the output checks applied to each request.

All three use the baseline scenario (J = 6 users, K = 4 tones, N = 2) at
the default caps and SINR floors.  A request is one seed; the seeds of a
run are derived from the run's base seed, so one base seed always gives
the same inputs and different base seeds give disjoint ones.

- compare-jd2: ``experiments.run_baseline_comparison`` at J_D = 2, one
  seed per request, as the ``scma-d2d compare`` command runs it.  Solver
  heavy, and the only workload that runs the random baseline.
- alloc-jd4: ``allocation.allocate`` called directly at J_D = 4 on
  channels drawn during set-up.  Every tone is reused, so the expanded
  objective is huge against 32 small constraints, and roughly one draw in
  seven ends in a phase-1 infeasibility certificate.
- bounds: ``experiments.run_bound_validation`` at J_D = 1.  The only
  workload that runs the Jacobi eigensolver, and it runs no GP,
  posynomial or baseline code.
"""

from __future__ import annotations

import json
from itertools import count, cycle
from pathlib import Path

import numpy as np

from scma_d2d import allocation, channel, experiments
from scma_d2d.capacity import default_occupancy
from scma_d2d.channel import ScenarioConfig
from scma_d2d.factor_graph import build_factor_graph
from scma_d2d.gp import OPTIMAL

# base seed b gives channel seeds b * SEED_STRIDE, b * SEED_STRIDE + 1, ...;
# base seed 0 therefore uses the seeds the CLI uses by default
SEED_STRIDE = 1_000_000

ASCENT_BUDGET_BITS = -1e-8   # smallest allowed change of the sum rate per pass
GAP_LIMIT = 1e-9             # certified duality gap every GP solve must reach
EIG_REL_TOL = 1e-9           # Jacobi vs numpy.linalg.eigvalsh, relative to the norm
REFERENCE_TOL_BITS = 1e-9    # per-seed rates against the recorded reference

REFERENCE_PATH = Path(__file__).with_name("reference.json")


class CompareJD2:
    name = "compare-jd2"
    exact_counts = {"posynomial.objective_terms": 64 + 3600}
    writes_csv = True

    def __init__(self, workdir: Path):
        self.out = workdir / "compare.csv"

    def prepare(self, base_seed, extra_seeds=()):
        """The inputs are seeds; each request draws its own channels."""
        self.base = base_seed * SEED_STRIDE

    def seeds(self):
        return (self.base + i for i in count())

    def call(self, seed):
        spec = experiments.ExperimentSpec(
            kind="baseline_comparison", scenario=ScenarioConfig(J_D=2, seed=seed),
            output_path=str(self.out), num_seeds=1)
        experiments.run_baseline_comparison(spec)

    def outcome(self, seed, obs):
        """(rate or None if infeasible, output bytes, problems)."""
        csv = self.out.read_bytes()
        if len(obs.allocations) != 1:
            return None, csv, [f"expected one allocate call, saw {len(obs.allocations)}"]
        trace = obs.allocations[0]
        return (None if trace is None else trace.final.sum_rate_bits), csv, []


class AllocJD4:
    name = "alloc-jd4"
    exact_counts = {"posynomial.objective_terms": 4096 + 50625}
    writes_csv = False  # the output compared between runs is the trace itself
    pool_size = 64     # channel draws made in set-up; requests cycle through them

    def __init__(self, workdir: Path):
        self.cfg = ScenarioConfig(J_D=4)
        self.graph = build_factor_graph(self.cfg.K, self.cfg.J, self.cfg.N)
        self.occupancy = default_occupancy(self.cfg.J_D)
        self.channels = {}
        self.pool = []

    def _draw(self, seed):
        streams = channel.rng_streams(seed)
        geo = channel.sample_geometry(self.cfg, streams.geometry)
        return channel.sample_channels(self.cfg, geo, streams.fading)

    def prepare(self, base_seed, extra_seeds=()):
        self.pool = [base_seed * SEED_STRIDE + i for i in range(self.pool_size)]
        self.channels = {s: self._draw(s) for s in [*self.pool, *extra_seeds]}

    def seeds(self):
        return cycle(self.pool)

    def call(self, seed):
        allocation.allocate(self.cfg, self.channels[seed], self.graph, self.occupancy)

    def outcome(self, seed, obs):
        if len(obs.allocations) != 1:
            return None, b"", [f"expected one allocate call, saw {len(obs.allocations)}"]
        trace = obs.allocations[0]
        if trace is None:
            return None, b"infeasible", []
        points = [trace.initial_powers] + [p.powers for p in trace.points]
        fingerprint = repr([trace.rates(), [(p.cellular.tolist(), p.d2d.tolist())
                                            for p in points]]).encode()
        return trace.final.sum_rate_bits, fingerprint, []


class Bounds:
    name = "bounds"
    exact_counts = {"eig.calls": 38}
    writes_csv = True

    def __init__(self, workdir: Path):
        self.out = workdir / "bounds.csv"
        self.result = None

    def prepare(self, base_seed, extra_seeds=()):
        self.base = base_seed * SEED_STRIDE

    def seeds(self):
        return (self.base + i for i in count())

    def call(self, seed):
        spec = experiments.ExperimentSpec(
            kind="bound_validation", scenario=ScenarioConfig(J_D=1, seed=seed),
            output_path=str(self.out), num_seeds=1)
        self.result = experiments.run_bound_validation(spec)

    def outcome(self, seed, obs):
        csv = self.out.read_bytes()
        problems = []
        if self.result.num_violations:
            problems.append(f"{self.result.num_violations} bound violation(s) reported")
        rows = [line.split(",") for line in csv.decode().splitlines()[1:]]
        eig = np.array([[float(v) for v in row[2:5]] for row in rows])
        slack = 1e-9 * np.abs(eig[:, 1]).max()
        if np.any(eig[:, 1] < eig[:, 0] - slack) or np.any(eig[:, 1] > eig[:, 2] + slack):
            problems.append("eigenvalue outside its lower/upper sandwich")
        exact, upper = float(rows[0][5]), float(rows[0][6])
        if exact > upper + 1e-9:
            problems.append(f"exact capacity {exact!r} above its upper bound {upper!r}")
        return exact, csv, problems


WORKLOADS = {w.name: w for w in (CompareJD2, AllocJD4, Bounds)}


def generic_problems(obs):
    """Checks every request gets: monotone ascent per SCA pass, certified
    optimal GP solves, and Jacobi eigenvalues against numpy's eigvalsh."""
    problems = []
    for trace in obs.allocations:
        if trace is not None:
            worst = float(np.diff(trace.rates()).min(initial=0.0))
            if worst < ASCENT_BUDGET_BITS:
                problems.append(f"sum rate fell by {-worst:.3e} bits in one pass")
    for res in obs.solves:
        if res.status != OPTIMAL or not res.certified_gap <= GAP_LIMIT:
            problems.append(f"GP solve ended {res.status} with gap {res.certified_gap:.3e}")
    for matrix, values in obs.eigen:
        oracle = np.linalg.eigvalsh(matrix)
        scale = max(float(np.abs(oracle).max()), np.finfo(float).tiny)
        err = float(np.abs(np.asarray(values) - oracle).max()) / scale
        if err > EIG_REL_TOL:
            problems.append(f"Jacobi eigenvalues off numpy's by {err:.3e} relative")
    return problems


def load_reference():
    """Per workload: {seed: rate in bits/s/Hz, or None for a certified
    infeasible draw}, recorded by make_reference.py."""
    raw = json.loads(REFERENCE_PATH.read_text())
    return {name: {int(s): r for s, r in seeds.items()} for name, seeds in raw.items()}


def reference_problem(expected, rate):
    if (expected is None) != (rate is None):
        return f"feasibility differs from the reference (reference {expected!r}, got {rate!r})"
    if rate is not None and not abs(rate - expected) <= REFERENCE_TOL_BITS:
        return f"rate {rate!r} differs from the reference {expected!r}"
    return None
