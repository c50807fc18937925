"""Golden outputs of the experiment harness, pinned so that refactors can
show they keep behaviour.

The files under tests/fixtures/ were written by record() below; run this
module as a script to write them all again, or only the ones named:

    PYTHONPATH=src python tests/test_golden.py
    PYTHONPATH=src python tests/test_golden.py solver_trace_seed0.csv newton_steps.json

Before a file is overwritten, the number of values that changed and the
largest relative change are printed per CSV column or JSON case.

Feasibility flags, random-baseline draw counts, random-allocation rates
and every column of the bound-validation CSV (eigenvalues and capacities)
must match exactly, proposed rates to 1e-9 bits and powers to a relative
1e-6.  The per-pass GP solver traces must match exactly in their outer
iteration, barrier weight and gap, and to 1e-9 in the log objective; the
phase-1 start's best log-slack to 1e-9 and its start vector to a relative
1e-6.  The expanded numerator and denominator products must match bit for
bit (term count and sha256 of the coefficient and exponent bytes), and so
must every factor and constraint that build_p2 returns, with its
registry, for seeds 0-1 at J_D = 0..4 (p2_factors.json); the
J_D = 4 allocations match in their per-pass rates to 1e-9 bits and their
final powers to a relative 1e-6.  The Newton step count of every GP solve
inside `allocate` at J_D = 1, 2 and 4 must match exactly, so a change to
the Newton kernel can show that it moved only the cost of a step.
newton_steps_cold.json keeps those counts as they were when every pass
started the barrier cold at t = 1 and stepped it tenfold; no recorder
writes it.  Against it, the warm-started, hundredfold-stepped solves must
take no more steps in any pass, the first included, and the same number
of passes.
jacobi_eigenvalues.json holds seeded real symmetric and complex Hermitian
eigensolver inputs with their eigenvalues as float.hex strings, which
hermitian_eigenvalues must give bit for bit.
"""

import csv
import dataclasses
import hashlib
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from conftest import make_scenario

from scma_d2d import allocation
from scma_d2d.allocation import (
    InfeasibleScenarioError,
    allocate,
    build_p2,
    feasible_start,
    random_baseline,
)
from scma_d2d.capacity import default_occupancy
from scma_d2d.channel import (
    ScenarioConfig,
    rng_streams,
    sample_channels,
    sample_geometry,
)
from scma_d2d.eig import hermitian_eigenvalues
from scma_d2d.experiments import (
    ExperimentSpec,
    run_baseline_comparison,
    run_bound_validation,
    run_convergence,
    run_sweep,
)
from scma_d2d.factor_graph import build_factor_graph
from scma_d2d.posynomial import product, to_convex_form

FIXTURES = Path(__file__).with_name("fixtures")

RATE_TOL_BITS = 1e-9
POWER_REL_TOL = 1e-6
# the dBm columns are 10 log10 of the watt columns
DBM_TOL = 10 * np.log10(1 + POWER_REL_TOL) + 1e-12

SLACK_TOL = 1e-9
OBJECTIVE_TOL = 1e-9

EXACT_COLUMNS = {"seed", "iteration", "converged", "feasible", "sweep_dbm",
                 "random_bits", "mean_sum_rate_random",
                 "num_infeasible_draws", "num_seeds_used",
                 "jd", "pass", "outer_iteration", "t", "gap",
                 "k", "lower", "exact_eig", "upper", "exact_capacity_bits",
                 "capacity_upper_bits"}
RATE_COLUMNS = {"proposed_bits", "sum_rate_bits", "mean_sum_rate_proposed"}

CSV_FILES = ("compare_jd2.csv", "sweep_cell_jd1.csv", "sweep_cell_jd1_summary.csv",
             "sweep_d2d_jd2.csv", "sweep_d2d_jd2_summary.csv", "convergence_jd1.csv",
             "convergence_jd2.csv", "solver_trace_seed0.csv", "bounds_jd1.csv")
DRAWS_FILE = "baseline_draws_jd2.json"
START_FILE = "feasible_start_jd4.json"
PRODUCTS_FILE = "products_seed0.json"
P2_FILE = "p2_factors.json"
ALLOCATE_FILE = "allocate_jd4.json"
# seed 2 at J_D = 4 is certified infeasible (see START_FILE)
ALLOCATE_SEEDS = (0, 1, 3)
NEWTON_FILE = "newton_steps.json"
EIG_FILE = "jacobi_eigenvalues.json"
COLD_NEWTON_FILE = "newton_steps_cold.json"


def _record_compare(out_dir):
    run_baseline_comparison(ExperimentSpec(
        "baseline_comparison", ScenarioConfig(J_D=2, seed=0),
        str(out_dir / "compare_jd2.csv"), num_seeds=10))


def _record_sweep(out_dir):
    run_sweep(ExperimentSpec(
        "sweep_cellular_cap", ScenarioConfig(J_D=1, seed=0),
        str(out_dir / "sweep_cell_jd1.csv"), num_seeds=5,
        sweep_values_dbm=(26.0, 30.0)))


def _record_sweep_d2d(out_dir):
    """The D2D cap sweep; every seed is infeasible at -80 dBm, so the
    detail rows there have empty rates and the summary row empty means."""
    run_sweep(ExperimentSpec(
        "sweep_d2d_cap", ScenarioConfig(J_D=2, seed=0),
        str(out_dir / "sweep_d2d_jd2.csv"), num_seeds=3,
        sweep_values_dbm=(-80.0, 30.0)))


def _record_convergence(out_dir):
    for jd in (1, 2):
        run_convergence(ExperimentSpec(
            "convergence", ScenarioConfig(J_D=jd, seed=0),
            str(out_dir / f"convergence_jd{jd}.csv"), num_seeds=3))


def _record_bounds(out_dir):
    run_bound_validation(ExperimentSpec(
        "bound_validation", ScenarioConfig(J_D=1, seed=0),
        str(out_dir / "bounds_jd1.csv"), num_seeds=5))


def _record_draws(out_dir):
    """The random baseline on every compare seed, infeasible ones included."""
    cfg = ScenarioConfig(J_D=2)
    graph = build_factor_graph(cfg.K, cfg.J, cfg.N)
    occupancy = default_occupancy(cfg.J_D)
    draws = {}
    for seed in range(10):
        run_cfg = dataclasses.replace(cfg, seed=seed)
        streams = rng_streams(seed)
        ch = sample_channels(run_cfg, sample_geometry(run_cfg, streams.geometry),
                             streams.fading)
        draw = random_baseline(run_cfg, ch, graph, occupancy, streams.baseline)
        draws[str(seed)] = {"draws_used": draw.draws_used, "feasible": draw.feasible}
    (out_dir / DRAWS_FILE).write_text(json.dumps(draws, indent=1) + "\n")


def _record_solver_traces(out_dir):
    """Every pass's GP solver trace of the seed-0 convergence run at
    J_D = 1 and 2, stacked into one CSV."""
    lines = ["jd,seed,pass,outer_iteration,t,objective,gap"]
    with tempfile.TemporaryDirectory() as tmp:
        for jd in (1, 2):
            result = run_convergence(ExperimentSpec(
                "convergence", ScenarioConfig(J_D=jd, seed=0),
                str(Path(tmp) / f"conv_jd{jd}.csv"), num_seeds=1,
                trace_solver=True))
            for it in range(result.traces[0].iterations_used):
                trace = Path(tmp) / f"conv_jd{jd}_solver_seed0_pass{it}.csv"
                for row in trace.read_text().splitlines()[1:]:
                    lines.append(f"{jd},0,{it},{row}")
    (out_dir / "solver_trace_seed0.csv").write_text("\n".join(lines) + "\n")


def _record_feasible_starts(out_dir):
    """feasible_start at J_D = 4 for seeds 0-39: the start vector, or the
    best log-slack of the phase-1 certificate when the floors are
    jointly unsatisfiable."""
    cfg = ScenarioConfig(J_D=4)
    graph = build_factor_graph(cfg.K, cfg.J, cfg.N)
    occupancy = default_occupancy(cfg.J_D)
    starts = {}
    for seed in range(40):
        run_cfg = dataclasses.replace(cfg, seed=seed)
        streams = rng_streams(seed)
        ch = sample_channels(run_cfg, sample_geometry(run_cfg, streams.geometry),
                             streams.fading)
        p2 = build_p2(run_cfg, ch, graph, occupancy)
        problem = to_convex_form(product(p2.numerator_factors),
                                 constraints=p2.constraints)
        try:
            x = feasible_start(run_cfg, graph, problem)
        except InfeasibleScenarioError as err:
            starts[str(seed)] = {"feasible": False, "max_slack": err.max_slack}
            continue
        starts[str(seed)] = {"feasible": True, "x": [float(v) for v in x]}
    (out_dir / START_FILE).write_text(json.dumps(starts, indent=1) + "\n")


def _digest(p):
    """Term count and sha256 of the coefficient and exponent bytes of p."""
    return {"terms": len(p),
            "coefficients_sha256": hashlib.sha256(p.coefficients.tobytes()).hexdigest(),
            "exponents_sha256": hashlib.sha256(p.exponents.tobytes()).hexdigest()}


def _record_products(out_dir):
    """_digest of the expanded numerator and denominator products at
    seed 0, J_D = 1..4."""
    digests = {}
    for jd in (1, 2, 3, 4):
        cfg, graph, ch, occupancy = make_scenario(seed=0, jd=jd)
        p2 = build_p2(cfg, ch, graph, occupancy)
        digests[str(jd)] = {
            side: _digest(p)
            for side, p in (("numerator", product(p2.numerator_factors)),
                            ("denominator", product(p2.denominator_factors)))}
    (out_dir / PRODUCTS_FILE).write_text(json.dumps(digests, indent=1) + "\n")


def _record_p2_factors(out_dir):
    """build_p2 for seeds 0-1 at J_D = 0..4: the registry, and the
    _digest of every numerator factor, denominator factor and
    constraint, in order."""
    problems = {}
    for seed in (0, 1):
        for jd in range(5):
            cfg, graph, ch, occupancy = make_scenario(seed=seed, jd=jd)
            p2 = build_p2(cfg, ch, graph, occupancy)
            problems[f"jd{jd}_seed{seed}"] = {
                "registry": list(p2.registry),
                **{side: [_digest(p) for p in getattr(p2, side)]
                   for side in ("numerator_factors", "denominator_factors",
                                "constraints")}}
    (out_dir / P2_FILE).write_text(json.dumps(problems, indent=1) + "\n")


def _record_allocations(out_dir):
    """allocate at J_D = 4: the per-pass rates and the final powers."""
    runs = {}
    for seed in ALLOCATE_SEEDS:
        cfg, graph, ch, occupancy = make_scenario(seed=seed, jd=4)
        trace = allocate(cfg, ch, graph, occupancy)
        final = trace.final.powers
        runs[str(seed)] = {"converged": trace.converged,
                           "rates": [float(r) for r in trace.rates()],
                           "cellular_w": [float(v) for v in final.cellular.ravel()],
                           "d2d_w": [float(v) for v in final.d2d]}
    (out_dir / ALLOCATE_FILE).write_text(json.dumps(runs, indent=1) + "\n")


def _record_newton_steps(out_dir):
    """newton_steps_used of every GP solve inside allocate, in call
    order, for seeds 0-9 at J_D = 1, 2 and 4; null for a draw certified
    infeasible before any solve."""
    original = allocation.solve
    runs = {}
    for jd in (1, 2, 4):
        for seed in range(10):
            steps = []

            def counting(*args, **kwargs):
                result = original(*args, **kwargs)
                steps.append(result.newton_steps_used)
                return result

            cfg, graph, ch, occupancy = make_scenario(seed=seed, jd=jd)
            allocation.solve = counting
            try:
                allocate(cfg, ch, graph, occupancy)
            except InfeasibleScenarioError:
                steps = None
            finally:
                allocation.solve = original
            runs[f"jd{jd}_seed{seed}"] = steps
    lines = [f" {json.dumps(key)}: {json.dumps(steps)}" for key, steps in runs.items()]
    (out_dir / NEWTON_FILE).write_text("{\n" + ",\n".join(lines) + "\n}\n")


def _eig_cases():
    """(name, real part, imaginary part or None) of the seeded eigensolver
    inputs: dense Hermitian and real symmetric matrices at
    scales 1e-14 to 1e2, rank-1 and rank-2 pieces shaped like the
    covariance splits (each user on two of four tones), the 1 x 1, 2 x 2,
    zero and diagonal cases, a diagonal with 1e-13 off-diagonals, and
    inputs symmetric only up to rounding."""
    rng = np.random.default_rng(20)
    scales = (1e-14, 1e-10, 1e-6, 1e-2, 1.0, 1e2)

    def hermitian(n, scale):
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        return scale * (m + m.conj().T) / 2

    def symmetric(n, scale):
        m = rng.normal(size=(n, n))
        return scale * (m + m.T) / 2

    def split_piece(scale, rank):
        q = np.zeros((4, 4), dtype=complex)
        for _ in range(rank):
            h = np.zeros(4, dtype=complex)
            tones = rng.choice(4, size=2, replace=False)
            h[tones] = rng.normal(size=2) + 1j * rng.normal(size=2)
            q += scale * rng.uniform(0.1, 1.0) * np.outer(h, h.conj())
        return q

    cases = []
    for scale in scales:
        cases.append((f"herm4_{scale:g}", hermitian(4, scale)))
    for scale in (1e-14, 1.0, 1e2):
        cases.append((f"herm8_{scale:g}", hermitian(8, scale)))
    for scale in (1e-13, 1e-9, 1e-3):
        cases.append((f"rank1_{scale:g}", split_piece(scale, 1)))
        cases.append((f"rank2_{scale:g}", split_piece(scale, 2)))
    # a weighted Gram product is Hermitian only up to rounding
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    cases.append(("gram4_rounded", (m * rng.uniform(0.5, 2.0, size=4)) @ m.conj().T))
    cases.append(("herm1", np.array([[rng.normal() + 0j]])))
    cases.append(("herm2", hermitian(2, 1.0)))
    cases.append(("zero4", np.zeros((4, 4), dtype=complex)))
    diagonal = np.diag(rng.uniform(-1.0, 1.0, size=4)).astype(complex)
    cases.append(("diag4", diagonal))
    cases.append(("diag4_offdiag_1e-13", diagonal + 1e-13 * hermitian(4, 1.0)))
    out = [(name, q.real.copy(), q.imag.copy()) for name, q in cases]

    real = []
    for scale in scales:
        real.append((f"sym4_{scale:g}", symmetric(4, scale)))
    for scale in (1e-14, 1.0, 1e2):
        real.append((f"sym8_{scale:g}", symmetric(8, scale)))
    m = rng.normal(size=(6, 6))
    real.append(("gram6_rounded", (m * rng.uniform(0.5, 2.0, size=6)) @ m.T))
    real.append(("sym1", np.array([[rng.normal()]])))
    real.append(("sym2", symmetric(2, 1.0)))
    real.append(("zero4_real", np.zeros((4, 4))))
    diagonal = np.diag(rng.uniform(-1.0, 1.0, size=5))
    real.append(("diag5", diagonal))
    real.append(("diag5_offdiag_1e-13", diagonal + 1e-13 * symmetric(5, 1.0)))
    out += [(name, a, None) for name, a in real]
    return out


def _hex(a):
    return np.vectorize(float.hex, otypes=[object])(np.asarray(a, dtype=float)).tolist()


def _unhex(strings):
    return np.vectorize(float.fromhex)(np.array(strings))


def _eigenvalues(re_part, im_part):
    """hermitian_eigenvalues of a real input, or of a complex one when
    im_part is given."""
    return hermitian_eigenvalues(re_part if im_part is None else re_part + 1j * im_part)


def _record_eigenvalues(out_dir):
    """float.hex of the eigenvalues of the seeded inputs of _eig_cases,
    with the inputs themselves."""
    cases = []
    for name, re_part, im_part in _eig_cases():
        case = {"name": name, "function": "hermitian_eigenvalues", "real": _hex(re_part)}
        if im_part is not None:
            case["imag"] = _hex(im_part)
        case["eigenvalues"] = _hex(_eigenvalues(re_part, im_part))
        cases.append(json.dumps(case))
    (out_dir / EIG_FILE).write_text("[\n" + ",\n".join(cases) + "\n]\n")


# (the golden files a recorder writes, the recorder)
RECORDERS = (
    (("compare_jd2.csv",), _record_compare),
    (("sweep_cell_jd1.csv", "sweep_cell_jd1_summary.csv"), _record_sweep),
    (("sweep_d2d_jd2.csv", "sweep_d2d_jd2_summary.csv"), _record_sweep_d2d),
    (("convergence_jd1.csv", "convergence_jd2.csv"), _record_convergence),
    (("bounds_jd1.csv",), _record_bounds),
    ((DRAWS_FILE,), _record_draws),
    (("solver_trace_seed0.csv",), _record_solver_traces),
    ((START_FILE,), _record_feasible_starts),
    ((PRODUCTS_FILE,), _record_products),
    ((P2_FILE,), _record_p2_factors),
    ((ALLOCATE_FILE,), _record_allocations),
    ((NEWTON_FILE,), _record_newton_steps),
    ((EIG_FILE,), _record_eigenvalues),
)


def _leaves(value):
    """The scalars of a JSON value in document order, float.hex strings
    read as floats."""
    if isinstance(value, dict):
        return [leaf for v in value.values() for leaf in _leaves(v)]
    if isinstance(value, list):
        return [leaf for v in value for leaf in _leaves(v)]
    if isinstance(value, str):
        try:
            return [float.fromhex(value)]
        except ValueError:
            return [value]
    return [value]


def _json_cases(path):
    """Case name -> scalars: the top-level keys of an object, or the
    "name" of each element of a list."""
    data = json.loads(Path(path).read_text())
    if isinstance(data, list):
        return {case.get("name", str(i)): _leaves(case) for i, case in enumerate(data)}
    return {key: _leaves(value) for key, value in data.items()}


def _csv_columns(path):
    rows = _rows(path)
    return {column: [row[column] for row in rows] for column in (rows[0] if rows else {})}


def _change(old, new):
    """(values changed, largest relative change among the numeric ones)
    of two equally long lists of scalars."""
    changed, largest = 0, 0.0
    for a, b in zip(old, new):
        if a == b:
            continue
        changed += 1
        try:
            a, b = float(a), float(b)
        except (TypeError, ValueError):
            continue
        largest = max(largest, abs(b - a) / abs(a) if a else math.inf)
    return changed, largest


def report_changes(old_path, new_path):
    """Lines naming, per CSV column or JSON case of the golden file at
    old_path, how many values the fresh file at new_path changes and the
    largest relative change."""
    read = _csv_columns if Path(old_path).suffix == ".csv" else _json_cases
    old, new = read(old_path), read(new_path)
    lines = []
    for key in dict.fromkeys([*old, *new]):
        if key not in old or key not in new or len(old[key]) != len(new[key]):
            lines.append(f"{key}: added, removed or resized")
            continue
        changed, largest = _change(old[key], new[key])
        lines.append(f"{key}: {changed} of {len(old[key])} values changed, "
                     f"largest relative change {largest:.2g}")
    return lines


def record(out_dir, names=None):
    """Write the golden files named in names, or every one when names is
    None, into out_dir.  Recorders run in a temporary directory and only
    the named files are copied out, so a recorder that writes several
    files cannot overwrite one that was not asked for.  Before a file in
    out_dir is overwritten, report_changes is printed for it."""
    known = [name for files, _ in RECORDERS for name in files]
    names = known if names is None else list(names)
    unknown = sorted(set(names) - set(known))
    if unknown:
        raise ValueError(f"no golden file named {unknown}; known: {known}")
    with tempfile.TemporaryDirectory() as tmp:
        for files, recorder in RECORDERS:
            wanted = [name for name in files if name in names]
            if wanted:
                recorder(Path(tmp))
                for name in wanted:
                    target = Path(out_dir) / name
                    if target.exists():
                        print(f"{name}:")
                        for line in report_changes(target, Path(tmp) / name):
                            print(f"  {line}")
                    shutil.copyfile(Path(tmp) / name, target)


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _cell_problem(column, want, got):
    if want == got:
        return None
    if column in EXACT_COLUMNS or want == "" or got == "":
        return "differs"
    want_f, got_f = float(want), float(got)
    if column in RATE_COLUMNS:
        ok = abs(got_f - want_f) <= RATE_TOL_BITS
    elif column.endswith("_w"):
        ok = abs(got_f - want_f) <= POWER_REL_TOL * abs(want_f)
    elif column.endswith("_dbm"):
        ok = abs(got_f - want_f) <= DBM_TOL
    elif column == "objective":
        ok = abs(got_f - want_f) <= OBJECTIVE_TOL
    else:
        raise AssertionError(f"no tolerance defined for column {column!r}")
    return None if ok else "outside tolerance"


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    record(out)
    return out


@pytest.mark.parametrize("name", CSV_FILES)
def test_csv_matches_golden(fresh, name):
    want = _rows(FIXTURES / name)
    got = _rows(fresh / name)
    assert list(got[0]) == list(want[0]), "header changed"
    assert len(got) == len(want), "row count changed"
    problems = []
    for i, (w_row, g_row) in enumerate(zip(want, got)):
        for column, w_val in w_row.items():
            why = _cell_problem(column, w_val, g_row[column])
            if why:
                problems.append(f"row {i} {column}: {g_row[column]!r} vs "
                                f"golden {w_val!r} ({why})")
    assert not problems, "\n".join(problems[:20])


def test_baseline_draws_match_golden(fresh):
    want = json.loads((FIXTURES / DRAWS_FILE).read_text())
    got = json.loads((fresh / DRAWS_FILE).read_text())
    assert got == want


def test_feasible_starts_match_golden(fresh):
    want = json.loads((FIXTURES / START_FILE).read_text())
    got = json.loads((fresh / START_FILE).read_text())
    assert list(got) == list(want)
    for seed, w in want.items():
        g = got[seed]
        assert g["feasible"] == w["feasible"], f"seed {seed}"
        if w["feasible"]:
            np.testing.assert_allclose(g["x"], w["x"], rtol=POWER_REL_TOL,
                                       atol=0, err_msg=f"seed {seed}")
        else:
            assert abs(g["max_slack"] - w["max_slack"]) <= SLACK_TOL, f"seed {seed}"


def test_products_match_golden(fresh):
    want = json.loads((FIXTURES / PRODUCTS_FILE).read_text())
    got = json.loads((fresh / PRODUCTS_FILE).read_text())
    assert got == want


def test_p2_factors_match_golden(fresh):
    want = json.loads((FIXTURES / P2_FILE).read_text())
    got = json.loads((fresh / P2_FILE).read_text())
    assert got == want


def test_allocations_match_golden(fresh):
    want = json.loads((FIXTURES / ALLOCATE_FILE).read_text())
    got = json.loads((fresh / ALLOCATE_FILE).read_text())
    assert list(got) == list(want)
    for seed, w in want.items():
        g = got[seed]
        assert g["converged"] == w["converged"], f"seed {seed}"
        assert len(g["rates"]) == len(w["rates"]), f"seed {seed}"
        np.testing.assert_allclose(g["rates"], w["rates"], rtol=0,
                                   atol=RATE_TOL_BITS, err_msg=f"seed {seed}")
        for key in ("cellular_w", "d2d_w"):
            np.testing.assert_allclose(g[key], w[key], rtol=POWER_REL_TOL,
                                       atol=0, err_msg=f"seed {seed} {key}")


def test_newton_steps_match_golden(fresh):
    want = json.loads((FIXTURES / NEWTON_FILE).read_text())
    got = json.loads((fresh / NEWTON_FILE).read_text())
    assert got == want


def test_newton_steps_within_cold_ceiling(fresh):
    """The warm-started passes against the cold-start counts: the pass
    count unchanged, no pass slower (pass 1 is cold on both sides, but
    the hundredfold barrier step makes it faster), and at least 55% fewer
    steps in total at each J_D."""
    cold = json.loads((FIXTURES / COLD_NEWTON_FILE).read_text())
    warm = json.loads((fresh / NEWTON_FILE).read_text())
    assert list(warm) == list(cold)
    totals = {}
    for key, c in cold.items():
        w = warm[key]
        if c is None:
            assert w is None, key
            continue
        assert len(w) == len(c), key
        assert all(a <= b for a, b in zip(w, c)), key
        jd = key.split("_")[0]
        warm_total, cold_total = totals.get(jd, (0, 0))
        totals[jd] = (warm_total + sum(w), cold_total + sum(c))
    assert sorted(totals) == ["jd1", "jd2", "jd4"]
    for jd, (warm_total, cold_total) in totals.items():
        assert warm_total <= 0.45 * cold_total, (jd, warm_total, cold_total)


def test_eigenvalues_match_golden_bit_for_bit():
    """hermitian_eigenvalues gives the recorded eigenvalues, to the last
    bit, on the recorded real and complex inputs."""
    cases = json.loads((FIXTURES / EIG_FILE).read_text())
    assert len(cases) == len(_eig_cases())
    for case in cases:
        im_part = _unhex(case["imag"]) if "imag" in case else None
        w = _eigenvalues(_unhex(case["real"]), im_part)
        assert _hex(w) == case["eigenvalues"], case["name"]


def test_record_writes_only_named_files(tmp_path):
    record(tmp_path, [PRODUCTS_FILE])
    assert [p.name for p in tmp_path.iterdir()] == [PRODUCTS_FILE]
    assert (json.loads((tmp_path / PRODUCTS_FILE).read_text())
            == json.loads((FIXTURES / PRODUCTS_FILE).read_text()))
    with pytest.raises(ValueError, match="no golden file"):
        record(tmp_path, ["rates.csv"])


def test_report_changes_per_column_and_case(tmp_path):
    (tmp_path / "old.csv").write_text("seed,lower,upper\n0,1.0,2.0\n1,4.0,8.0\n")
    (tmp_path / "new.csv").write_text("seed,lower,upper\n0,1.0,2.5\n1,4.0,7.0\n")
    assert report_changes(tmp_path / "old.csv", tmp_path / "new.csv") == [
        "seed: 0 of 2 values changed, largest relative change 0",
        "lower: 0 of 2 values changed, largest relative change 0",
        "upper: 2 of 2 values changed, largest relative change 0.25"]
    old = [{"name": "a", "eigenvalues": [(1.0).hex(), (2.0).hex()]},
           {"name": "b", "eigenvalues": [(0.0).hex()]}]
    new = [{"name": "a", "eigenvalues": [(1.0).hex(), (2.0 + 2**-51).hex()]},
           {"name": "c", "eigenvalues": [(0.0).hex()]}]
    (tmp_path / "old.json").write_text(json.dumps(old))
    (tmp_path / "new.json").write_text(json.dumps(new))
    assert report_changes(tmp_path / "old.json", tmp_path / "new.json") == [
        "a: 1 of 3 values changed, largest relative change 2.2e-16",
        "b: added, removed or resized",
        "c: added, removed or resized"]


if __name__ == "__main__":
    FIXTURES.mkdir(exist_ok=True)
    record(FIXTURES, sys.argv[1:] or None)
