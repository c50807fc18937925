"""Tests for the complementary-GP build and the iterative power allocator."""

import dataclasses
import itertools
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import make_scenario, support_allocation
from scma_d2d import allocation, gp
from scma_d2d.allocation import (
    MAX_EXPANSION_BYTES,
    MAX_RESAMPLE,
    AllocationSolverError,
    InfeasibleScenarioError,
    allocate,
    build_p2,
    feasible_start,
    initial_allocation,
    objective_sum_rate,
    pack_allocation,
    qos_violations,
    random_baseline,
    sum_rate,
    unpack_allocation,
    variable_registry,
)
from scma_d2d.capacity import (
    PowerAllocation,
    cellular_sinr,
    closed_form_cellular_capacity,
    d2d_capacity,
    d2d_sinr,
    equivalent_noise,
)
from scma_d2d.channel import ChannelRealization, ScenarioConfig
from scma_d2d.experiments import ExperimentSpec, run_convergence
from scma_d2d.factor_graph import DimensionError, build_factor_graph
from scma_d2d.gp import DUALITY_GAP_TOL, MAX_ITERATIONS, FeasibilityResult, logsumexp_bundle
from scma_d2d.posynomial import Monomial, Posynomial, condense, product, to_convex_form


def constraint_values(p2, x):
    return np.array([c.evaluate(x) for c in p2.constraints])


def packed(graph, alloc):
    return pack_allocation(graph, alloc.cellular, alloc.d2d)


def convex_form(p2):
    """The convex-form problem allocate builds from p2."""
    return to_convex_form(product(p2.numerator_factors), constraints=p2.constraints)


class TestBuildP2:
    def test_counts_baseline(self):
        """6 users x 2 tones each + 1 pair: 26 constraints, 13 variables."""
        cfg, graph, ch, occ = make_scenario(seed=0, jd=1)
        p2 = build_p2(cfg, ch, graph, occ)
        assert len(p2.registry) == 13
        assert len(p2.constraints) == 26
        assert len(p2.numerator_factors) == 5      # 4 tones + 1 pair
        assert len(p2.denominator_factors) == 5

    def test_registry_order(self):
        cfg, graph, ch, occ = make_scenario(seed=0, jd=1)
        p2 = build_p2(cfg, ch, graph, occ)
        assert p2.registry[:4] == ("P_1_1", "P_1_2", "P_2_1", "P_2_3")
        assert p2.registry[-1] == "Pd_1"

    def test_no_pairs(self):
        """Without D2D the pair factors and their constraints vanish."""
        cfg, graph, ch, occ = make_scenario(seed=1, jd=1)
        cfg0 = dataclasses.replace(cfg, J_D=0)
        ch0 = ChannelRealization(
            cell_to_bs=ch.cell_to_bs,
            d2d_to_bs=np.ones(0, dtype=complex),
            d2d_pair=np.ones(0, dtype=complex),
            cell_to_d2d=np.ones((cfg.J, 0), dtype=complex),
            noise_power_w=ch.noise_power_w)
        p2 = build_p2(cfg0, ch0, graph, {})
        assert len(p2.registry) == 12
        assert len(p2.constraints) == 24
        assert len(p2.denominator_factors) == 4

    def test_tone_factors(self):
        """Occupied tone noise has the D2D term; idle tones are the constant
        noise power."""
        cfg, graph, ch, occ = make_scenario(seed=0, jd=1)
        p2 = build_p2(cfg, ch, graph, occ)
        occupied = p2.numerator_factors[0]
        assert len(occupied) == 2
        for k in (1, 2, 3):
            idle = p2.numerator_factors[k]
            assert len(idle) == 1
            assert idle.coefficients[0] == pytest.approx(ch.noise_power_w)
            assert np.allclose(idle.exponents, 0.0)

    def test_pack_unpack_round_trip(self):
        cfg, graph, ch, occ = make_scenario(seed=0, jd=1)
        alloc = support_allocation(cfg, graph, np.random.default_rng(2))
        x = packed(graph, alloc)
        assert len(x) == len(build_p2(cfg, ch, graph, occ).registry)
        again = unpack_allocation(graph, x)
        assert np.allclose(again.cellular, alloc.cellular)
        assert np.allclose(again.d2d, alloc.d2d)


def merged_p2(cfg, ch, graph, occ):
    """(numerator factors, denominator factors, constraints) built from
    their raw terms through Posynomial's merge: each factor from its term
    lists, each C1/C2 constraint as f_r * Monomial(floor_v / gain_v, -e_v)
    and each cap as a Monomial: the reference build_p2 must match."""
    reg, _ = variable_registry(graph, cfg.J_D)
    links = allocation.link_model(ch, graph, occ)
    unit = np.eye(len(reg))
    noise, signal = [], []
    for r, row in enumerate(links.cross):
        interferers = np.flatnonzero(row)
        own = np.flatnonzero(links.receiver == r)
        coefficients = [links.noise, *row[interferers]]
        exponents = [np.zeros(len(reg)), *unit[interferers]]
        noise.append(Posynomial(reg, coefficients, exponents))
        signal.append(Posynomial(reg, coefficients + list(links.gain[own]),
                                 exponents + list(unit[own])))
    floors, caps = allocation._floors_and_caps(cfg, graph, links)
    constraints = [noise[r] * Monomial(floor / gain, -e, reg) for r, floor, gain, e
                   in zip(links.receiver, floors, links.gain, unit)]
    constraints += [Monomial(1.0 / cap, e, reg).as_posynomial() for cap, e in zip(caps, unit)]
    return noise, signal, constraints


MERGE_FREE_CASES = [(k, j, jd) for k, j, jds in ((4, 6, range(5)), (6, 15, (1, 3, 6)),
                                                 (8, 28, (1, 4, 8)))
                    for jd in jds]


class TestMergeFreeBuild:
    @pytest.mark.parametrize("k, j, jd", MERGE_FREE_CASES)
    def test_matches_merged_build(self, k, j, jd):
        """On seeds 0-9, every factor and constraint build_p2 stores
        without the merge is, byte for byte, the merge's posynomial of the
        same terms: rows strictly increasing in lexicographic order, with
        no -0.0."""
        for seed in range(10):
            cfg, graph, ch, occ = make_scenario(seed=seed, jd=jd, K=k, J=j)
            p2 = build_p2(cfg, ch, graph, occ)
            got = (p2.numerator_factors, p2.denominator_factors, p2.constraints)
            for have, want in zip(got, merged_p2(cfg, ch, graph, occ)):
                assert len(have) == len(want)
                for p, q in zip(have, want):
                    assert p.registry == q.registry == p2.registry
                    assert p.coefficients.shape == q.coefficients.shape
                    assert p.exponents.shape == q.exponents.shape
                    assert p.coefficients.tobytes() == q.coefficients.tobytes()
                    assert p.exponents.tobytes() == q.exponents.tobytes()
                    step = np.diff(p.exponents, axis=0)
                    first = (step != 0).argmax(axis=1)
                    assert (step[np.arange(len(step)), first] > 0).all()
                    assert not np.signbit(p.exponents).any(where=p.exponents == 0)
                    assert not p.coefficients.flags.writeable
                    assert not p.exponents.flags.writeable


class TestExpandDenominator:
    def test_term_count_and_homomorphism(self):
        cfg, graph, ch, occ = make_scenario(seed=0, jd=1)
        p2 = build_p2(cfg, ch, graph, occ)
        expanded = product(p2.denominator_factors)
        bound = int(np.prod([len(f) for f in p2.denominator_factors]))
        assert len(expanded) <= bound
        rng = np.random.default_rng(3)
        for _ in range(5):
            x = rng.uniform(1e-3, 1.0, size=len(p2.registry))
            factorwise = 1.0
            for f in p2.denominator_factors:
                factorwise *= f.evaluate(x)
            assert expanded.evaluate(x) == pytest.approx(factorwise, rel=1e-10)

    def test_product_peak_memory(self):
        """The J_D = 4 denominator's product traces at most twice its own
        exponent array: the 84,375 raw rows of the last multiplication
        are never built."""
        cfg, graph, ch, occ = make_scenario(seed=0, jd=4)
        p2 = build_p2(cfg, ch, graph, occ)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            expanded = product(p2.denominator_factors)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert len(expanded) == 50625
        assert peak <= 2 * expanded.exponents.nbytes

    def test_constant_factor_scales_coefficients(self):
        """Multiplying by the constant noise factor rescales every term."""
        cfg, graph, ch, occ = make_scenario(seed=0, jd=1)
        p2 = build_p2(cfg, ch, graph, occ)
        idle = p2.numerator_factors[1]          # constant posynomial
        g = p2.denominator_factors[0]
        scaled = g * idle
        assert len(scaled) == len(g)
        assert np.allclose(np.sort(scaled.coefficients),
                           np.sort(g.coefficients * idle.coefficients[0]))


class TestExpansionGuard:
    @pytest.mark.parametrize("k, j, jd", [(6, 15, 3), (8, 28, 8)])
    def test_oversized_expansion_raises_before_product(self, monkeypatch, k, j, jd):
        """Systems whose expanded objective could need gigabytes raise
        DimensionError, naming the system and the bytes, within a second
        and without building a product."""
        monkeypatch.setattr(allocation, "product",
                            lambda *args: pytest.fail("product was called"))
        cfg, graph, ch, occ = make_scenario(seed=0, jd=jd, K=k, J=j)
        start = time.perf_counter()
        with pytest.raises(DimensionError, match=f"K = {k}, J = {j}, J_D = {jd}: .* bytes"):
            allocate(cfg, ch, graph, occ)
        assert time.perf_counter() - start < 1.0

    def test_default_system_passes_at_every_pair_count(self):
        """The (4, 6, 2) expansion bound stays under the limit at J_D = 0-4
        (50 MB at J_D = 4)."""
        for jd in range(5):
            cfg, graph, ch, occ = make_scenario(seed=0, jd=jd)
            p2 = build_p2(cfg, ch, graph, occ)
            rows = np.prod([len(g) for g in p2.denominator_factors], dtype=float)
            assert rows * len(p2.registry) * 8 <= MAX_EXPANSION_BYTES


class TestSumRate:
    def test_zero_powers(self):
        cfg, graph, ch, occ = make_scenario(seed=0, jd=1)
        alloc = PowerAllocation(np.zeros((cfg.J, cfg.K)), np.zeros(1))
        assert sum_rate(ch, graph, occ, alloc) == pytest.approx(0.0, abs=1e-12)

    def test_integer_bits_on_unit_sinr_links(self):
        """Hand-built channels with unit and 3x SINRs give integer sums."""
        graph = build_factor_graph(2, 2, 1)
        ch = ChannelRealization(
            cell_to_bs=np.array([[1.0 + 0j, 1.0], [1.0, np.sqrt(3.0)]]),
            d2d_to_bs=np.array([1.0 + 0j]),
            d2d_pair=np.array([1.0 + 0j]),
            cell_to_d2d=np.array([[1.0 + 0j], [1.0]]),
            noise_power_w=1.0,
        )
        cell = np.diag([1.0, 1.0])   # SINR 1 on tone 1, 3 on tone 2
        alloc = PowerAllocation(cell, np.zeros(1))
        assert sum_rate(ch, graph, {0: 0}, alloc) == pytest.approx(3.0, rel=1e-12)
        d2d_only = PowerAllocation(np.zeros((2, 2)), np.array([1.0]))
        assert sum_rate(ch, graph, {0: 0}, d2d_only) == pytest.approx(1.0, rel=1e-12)

    def test_matches_capacity_closed_forms(self):
        """sum_rate against capacity's scalar closed forms, the cellular
        rate on the equivalent noise plus the D2D rates, on random
        allocations at J_D = 0..4, every other one with some powers
        exactly 0.  The two routes sum the D2D interference in different
        orders, so they agree to rounding."""
        rng = np.random.default_rng(31)
        for seed, jd in itertools.product(range(3), range(5)):
            cfg, graph, ch, occ = make_scenario(seed=seed, jd=jd)
            for i in range(20):
                alloc = support_allocation(cfg, graph, rng)
                if i % 2:
                    alloc.cellular[rng.uniform(size=alloc.cellular.shape) < 0.2] = 0.0
                    alloc.d2d[rng.uniform(size=jd) < 0.3] = 0.0
                noise = equivalent_noise(ch, alloc, occ)
                want = (closed_form_cellular_capacity(ch, alloc, noise, graph)
                        + d2d_capacity(ch, alloc, occ))
                got = sum_rate(ch, graph, occ, alloc)
                assert got == pytest.approx(want, rel=1e-13, abs=0), (seed, jd, i)

    def test_posynomial_ratio_identity(self):
        """sum_rate equals log2 of the factored posynomial ratio."""
        for seed in range(5):
            cfg, graph, ch, occ = make_scenario(seed=seed, jd=2)
            p2 = build_p2(cfg, ch, graph, occ)
            alloc = support_allocation(cfg, graph, np.random.default_rng(seed))
            direct = sum_rate(ch, graph, occ, alloc)
            x = packed(graph, alloc)
            assert direct == pytest.approx(objective_sum_rate(p2, x), rel=1e-10)


class TestAllocate:
    def test_trace_monotone_and_converged(self):
        cfg, graph, ch, occ = make_scenario(seed=0, jd=1)
        trace = allocate(cfg, ch, graph, occ)
        rates = trace.rates()
        for a, b in zip(rates, rates[1:]):
            assert b >= a - 1e-8
        assert trace.converged
        assert trace.iterations_used <= 5
        assert all(p.solver.status == "optimal" for p in trace.points)

    def test_support_respected_throughout(self):
        cfg, graph, ch, occ = make_scenario(seed=0, jd=1)
        trace = allocate(cfg, ch, graph, occ)
        off = graph.indicator.T == 0
        assert np.all(trace.initial_powers.cellular[off] == 0)
        for p in trace.points:
            assert np.all(p.powers.cellular[off] == 0)

    def test_constraints_hold_at_every_iterate(self):
        cfg, graph, ch, occ = make_scenario(seed=1, jd=1)
        p2 = build_p2(cfg, ch, graph, occ)
        trace = allocate(cfg, ch, graph, occ)
        for p in trace.points:
            vals = constraint_values(p2, packed(graph, p.powers))
            assert np.all(vals <= 1.0 + 1e-8)

    def test_some_variable_reaches_its_cap(self):
        """The optimizer saturates transmit caps for favored users."""
        cfg, graph, ch, occ = make_scenario(seed=0, jd=1)
        trace = allocate(cfg, ch, graph, occ)
        final = trace.final.powers
        rel = np.concatenate([
            final.cellular[graph.indicator.T == 1] / (cfg.cellular_power_cap_w / graph.d_f),
            final.d2d / cfg.d2d_power_cap_w,
        ])
        assert rel.max() >= 1 - 1e-6

    def test_fixed_point_consistency(self):
        """Re-condensing and re-solving at the converged point barely moves it."""
        cfg, graph, ch, occ = make_scenario(seed=0, jd=1)
        trace = allocate(cfg, ch, graph, occ)
        assert trace.converged
        x_star = packed(graph, trace.final.powers)
        resumed = allocate(cfg, ch, graph, occ, t_max=trace.iterations_used + 1)
        x_again = packed(graph, resumed.final.powers)
        assert np.all(np.abs(x_again - x_star) <= 1e-5 * np.abs(x_star))

    def test_one_link_model_per_allocate(self, monkeypatch):
        """build_p2's link model serves every pass's rate: one allocate
        runs link_model once, and its rates are sum_rate's bit for bit."""
        calls = []
        real_link_model = allocation.link_model

        def counting_link_model(*args):
            calls.append(args)
            return real_link_model(*args)

        monkeypatch.setattr(allocation, "link_model", counting_link_model)
        cfg, graph, ch, occ = make_scenario(seed=0, jd=2)
        trace = allocate(cfg, ch, graph, occ)
        assert len(calls) == 1 and trace.iterations_used > 1
        monkeypatch.undo()
        assert trace.rates() == [sum_rate(ch, graph, occ, p) for p in
                                 [trace.initial_powers] + [q.powers for q in trace.points]]

    def test_single_pass(self):
        cfg, graph, ch, occ = make_scenario(seed=0, jd=1)
        trace = allocate(cfg, ch, graph, occ, t_max=1)
        assert trace.iterations_used == 1

    def test_pass_cap_below_one_rejected(self):
        cfg, graph, ch, occ = make_scenario(seed=0, jd=1)
        for t_max in (0, -1):
            with pytest.raises(ValueError, match="t_max"):
                allocate(cfg, ch, graph, occ, t_max=t_max)

    def test_infeasible_draw_reported(self):
        """A deep-faded link that cannot reach its floor raises, with the
        achieved slack attached."""
        cfg, graph, ch, occ = make_scenario(seed=2, jd=1)
        with pytest.raises(InfeasibleScenarioError) as err:
            allocate(cfg, ch, graph, occ)
        assert err.value.max_slack > 0

    def test_uncertified_phase1_is_a_solver_error(self, monkeypatch):
        """With gp.MAX_NEWTON = 1, phase-1 on seeds 0, 3 and 4 at J_D = 2
        stops at the Newton cap, which certifies nothing: allocate raises
        AllocationSolverError with phase-1's result, not
        InfeasibleScenarioError.  All three draws run at the default cap."""
        draws = [make_scenario(seed=seed, jd=2) for seed in (0, 3, 4)]
        with monkeypatch.context() as patch:
            patch.setattr(gp, "MAX_NEWTON", 1)
            for cfg, graph, ch, occ in draws:
                with pytest.raises(AllocationSolverError, match="phase-1") as err:
                    allocate(cfg, ch, graph, occ)
                assert isinstance(err.value.result, FeasibilityResult)
                assert err.value.result.status == MAX_ITERATIONS
        for cfg, graph, ch, occ in draws:
            assert allocate(cfg, ch, graph, occ).iterations_used >= 1

    def test_phase1_and_passes_share_one_constraint_pack(self, monkeypatch):
        """Seed 0 at J_D = 2 needs phase-1; it and every pass's solve get
        problems holding one and the same packed constraint object."""
        seen = []

        def spy(real):
            def wrapper(problem, *args, **kwargs):
                seen.append((real.__name__, problem.constraints))
                return real(problem, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(allocation, "find_feasible", spy(allocation.find_feasible))
        monkeypatch.setattr(allocation, "solve", spy(allocation.solve))
        cfg, graph, ch, occ = make_scenario(seed=0, jd=2)
        trace = allocate(cfg, ch, graph, occ)
        names = [name for name, _ in seen]
        assert names == ["find_feasible"] + ["solve"] * trace.iterations_used
        assert len(names) > 2
        assert all(pack is seen[0][1] for _, pack in seen)

    def test_trace_csv(self, tmp_path):
        """The convergence CSV writes the allocator trace: one row for the
        start point and one per pass, powers in registry order."""
        cfg, graph, ch, occ = make_scenario(seed=0, jd=1)
        p2 = build_p2(cfg, ch, graph, occ)
        trace = allocate(cfg, ch, graph, occ, t_max=2)
        out = tmp_path / "trace.csv"
        run_convergence(ExperimentSpec(kind="convergence", scenario=cfg,
                                       output_path=str(out), t_max=2))
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 1 + 2    # header, start point, two passes
        header = lines[0].split(",")
        assert header[:3] == ["seed", "iteration", "P_1_1_w"]
        assert header[-2:] == ["sum_rate_bits", "converged"]
        assert len(header) == 2 + 2 * len(p2.registry) + 2
        rows = [line.split(",") for line in lines[1:]]
        assert [r[1] for r in rows] == ["0", "1", "2"]
        assert float(rows[0][-2]) == pytest.approx(
            trace.initial_sum_rate_bits * cfg.rate_scale)
        for row, rate in zip(rows, trace.rates()):
            assert float(row[-2]) == pytest.approx(rate * cfg.rate_scale)


class TestRuntimeInvariants:
    """allocate checks every pass: optimal status, a certified gap of at
    most gp.DUALITY_GAP_TOL, and a sum rate no more than ASCENT_TOL_BITS
    below the last one.  A breach raises with the pass's SolverResult."""

    def run_with(self, monkeypatch, doctor):
        """allocate at seed 0, J_D = 1, with doctor(result, y0) in place
        of every solve's result; returns the error and the results
        allocate saw."""
        original = allocation.solve
        returned = []

        def doctored(*args, **kwargs):
            returned.append(doctor(original(*args, **kwargs), kwargs["y0"]))
            return returned[-1]

        monkeypatch.setattr(allocation, "solve", doctored)
        cfg, graph, ch, occ = make_scenario(seed=0, jd=1)
        with pytest.raises(AllocationSolverError) as err:
            allocate(cfg, ch, graph, occ)
        return err.value, returned

    def test_rate_fall_raises(self, monkeypatch):
        """The first pass returns its start with every power e^3 times
        lower, which loses rate to the noise floor."""
        def worse(res, y0):
            return dataclasses.replace(res, y=y0 - 3.0, x=np.exp(y0 - 3.0))

        err, returned = self.run_with(monkeypatch, worse)
        assert "lowered the sum rate" in str(err)
        assert len(returned) == 1
        assert err.result is returned[0]

    def test_uncertified_gap_raises(self, monkeypatch):
        err, returned = self.run_with(
            monkeypatch, lambda res, _: dataclasses.replace(res, certified_gap=1e-6))
        assert "gap" in str(err)
        assert err.result is returned[0]

    def test_non_optimal_status_raises(self, monkeypatch):
        err, returned = self.run_with(
            monkeypatch, lambda res, _: dataclasses.replace(res, status="max_iterations"))
        assert "max_iterations" in str(err)
        assert err.result is returned[0]


class TestPassProblem:
    """Each pass solves numerator / m in convex form, m being the
    denominator condensed at the pass's start: the constraints are those
    of P2 unchanged, and the objective's LSE is log prod f - log m."""

    @pytest.mark.parametrize("jd", [1, 2, 4])
    def test_pass_objective_is_shifted_numerator(self, monkeypatch, jd):
        original = allocation.solve
        passes = []

        def recording(problem, y0, **kwargs):
            passes.append((problem, y0))
            return original(problem, y0, **kwargs)

        monkeypatch.setattr(allocation, "solve", recording)
        rng = np.random.default_rng(jd)
        checked = 0
        for seed in range(3):
            cfg, graph, ch, occ = make_scenario(seed=seed, jd=jd)
            p2 = build_p2(cfg, ch, graph, occ)
            passes.clear()
            try:
                allocate(cfg, ch, graph, occ)
            except InfeasibleScenarioError:
                assert not passes
                continue
            assert passes
            want = to_convex_form(product(p2.numerator_factors),
                                  constraints=p2.constraints)
            denominator = product(p2.denominator_factors)
            for problem, y0 in passes:
                assert problem.registry == want.registry
                np.testing.assert_array_equal(problem.constraints.sizes,
                                              want.constraints.sizes)
                np.testing.assert_array_equal(problem.constraints.A, want.constraints.A)
                np.testing.assert_array_equal(problem.constraints.b, want.constraints.b)
                m = condense(denominator, np.exp(y0))
                for _ in range(5):
                    y = y0 + rng.uniform(-1.0, 1.0, size=len(y0))
                    lse = logsumexp_bundle(problem.objective_exponents,
                                           problem.objective_offsets, y)[0]
                    log_num = sum(np.log(f.evaluate(np.exp(y)))
                                  for f in p2.numerator_factors)
                    log_m = np.log(m.coefficient) + m.exponents @ y
                    assert lse == pytest.approx(log_num - log_m, rel=1e-12)
                checked += 1
        assert checked > 0


class TestExtremeChannelScales:
    """Channel scales far outside the defaults either run with the usual
    guarantees or raise InfeasibleScenarioError; nothing else is raised
    and no warning is issued."""

    def test_huge_cell_is_certified_infeasible(self):
        """A 1e9 m cell puts every cellular floor out of reach."""
        for seed in range(4):
            cfg, graph, ch, occ = make_scenario(seed=seed, jd=1, cell_radius_m=1e9)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(InfeasibleScenarioError) as err:
                    allocate(cfg, ch, graph, occ)
            assert err.value.max_slack > 0

    def test_tiny_cell_climbs_or_is_certified_infeasible(self):
        """A 1 mm cell with 1 m D2D links: seed 1 climbs monotonically to
        about 266.47 bits/s/Hz with certified gaps; seeds 0, 2 and 3 get
        phase-1 certificates."""
        for seed in range(4):
            cfg, graph, ch, occ = make_scenario(
                seed=seed, jd=1, cell_radius_m=1e-3, d2d_distance_range_m=(1.0, 1.0))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                if seed != 1:
                    with pytest.raises(InfeasibleScenarioError) as err:
                        allocate(cfg, ch, graph, occ)
                    assert err.value.max_slack > 0
                    continue
                trace = allocate(cfg, ch, graph, occ)
            rates = trace.rates()
            assert all(b >= a - allocation.ASCENT_TOL_BITS
                       for a, b in zip(rates, rates[1:]))
            assert trace.converged
            assert trace.final.sum_rate_bits == pytest.approx(266.47, abs=5e-3)
            assert all(p.solver.certified_gap <= DUALITY_GAP_TOL for p in trace.points)

    def test_small_cell_seed2_converges(self):
        """A 5 m cell with 1 m D2D links, seed 2: seven passes whose last
        gains are a few 1e-9 bits, near the 1e-8-bit ascent budget.  A
        kernel that rounds the barrier's parts differently has ended pass
        7 lower by 1.7e-8 bits and raised AllocationSolverError here, so
        the Newton steps of every pass are pinned, and no pass may lower
        the rate (the smallest gain, pass 7's, is 3.8e-11 bits)."""
        cfg, graph, ch, occ = make_scenario(
            seed=2, jd=1, cell_radius_m=5.0, d2d_distance_range_m=(1.0, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = allocate(cfg, ch, graph, occ)
        assert trace.converged
        assert [p.solver.newton_steps_used for p in trace.points] == [29, 29, 35, 43, 62, 84, 1]
        rates = [trace.initial_sum_rate_bits] + [p.sum_rate_bits for p in trace.points]
        assert all(b > a for a, b in zip(rates, rates[1:]))
        assert trace.final.sum_rate_bits == pytest.approx(133.9504783, abs=1e-6)

    @pytest.mark.parametrize("seed, passes, converged, final", [
        (2, 7, True, 105.8377576), (19, 10, False, 105.9815795)])
    def test_small_cell_jd2_climbs(self, seed, passes, converged, final):
        """The same 5 m cell at J_D = 2.  Seeds 2 and 19 once raised
        AllocationSolverError: a pass's warm centering and then its cold
        restart met Hessians of condition 1e17 to 1e20 whose Newton
        directions (norm 6e19 to 3e22) no line-search step down to 1e-18
        shortened to an accepted one, and the pass stalled.  Started from predicted points, every pass climbs with a
        certified gap (the smallest gain is 1.5e-10 bits)."""
        cfg, graph, ch, occ = make_scenario(
            seed=seed, jd=2, cell_radius_m=5.0, d2d_distance_range_m=(1.0, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = allocate(cfg, ch, graph, occ)
        assert len(trace.points) == passes
        assert trace.converged == converged
        rates = [trace.initial_sum_rate_bits] + [p.sum_rate_bits for p in trace.points]
        assert all(b > a for a, b in zip(rates, rates[1:]))
        assert all(p.solver.certified_gap <= DUALITY_GAP_TOL for p in trace.points)
        assert trace.final.sum_rate_bits == pytest.approx(final, abs=1e-6)


class TestFeasibleStart:
    def test_half_cap_point_used_when_feasible(self):
        cfg, graph, ch, occ = make_scenario(seed=1, jd=1)
        p2 = build_p2(cfg, ch, graph, occ)
        x = feasible_start(cfg, graph, convex_form(p2))
        expected = packed(graph, initial_allocation(cfg, graph))
        assert np.allclose(x, expected)

    def test_phase1_rescues_violated_start(self):
        """A D2D floor just above the half-cap start's SINR (but inside the
        3 dB cap headroom) forces the phase-1 path."""
        from scma_d2d.capacity import d2d_sinr
        cfg, graph, ch, occ = make_scenario(seed=1, jd=1)
        start_sinr_db = 10 * np.log10(
            d2d_sinr(ch, initial_allocation(cfg, graph), 0, occ))
        cfg = dataclasses.replace(cfg, d2d_sinr_floor_db=start_sinr_db + 1.5)
        p2 = build_p2(cfg, ch, graph, occ)
        x0 = packed(graph, initial_allocation(cfg, graph))
        assert constraint_values(p2, x0).max() > 1.0
        x = feasible_start(cfg, graph, convex_form(p2))
        assert constraint_values(p2, x).max() < 1.0


def one_row_violation(cfg, ch, graph, occ, alloc):
    """qos_violations on the one-row batch of alloc."""
    return float(qos_violations(cfg, ch, graph, occ, alloc.cellular[None], alloc.d2d[None])[0])


def scalar_qos_violation(cfg, ch, graph, occ, alloc):
    """Reference for the QoS check: the largest floor/SINR ratio from the
    scalar per-link SINRs, inf where an SINR is 0."""
    noise = equivalent_noise(ch, alloc, occ)
    _, cell_vars = variable_registry(graph, cfg.J_D)
    links = [(cfg.cellular_sinr_floor, cellular_sinr(ch, alloc, noise, graph, j, k))
             for j, k in cell_vars]
    links += [(cfg.d2d_sinr_floor, d2d_sinr(ch, alloc, l, occ))
              for l in range(cfg.J_D)]
    return max(np.inf if s == 0 else floor / s for floor, s in links)


class TestQosViolation:
    def test_matches_scalar_sinrs(self):
        """Random allocations, some with powers exactly 0: the check equals
        the scalar floor ratios of capacity's SINRs and raises no warning.
        The floor pairs (cellular, D2D in dB) include one where the D2D
        links bind and one where the cellular links do.  The check reads
        the link model that sum_rate and build_p2 read; the scalar SINRs
        are an independent oracle that divides in another order, so
        agreement is to rounding, not bit for bit."""
        rng = np.random.default_rng(11)
        seen = {"inf": 0, "violated": 0, "met": 0}
        for (seed, jd), (floor_c, floor_d) in itertools.product(
                ((0, 1), (1, 2), (3, 4), (4, 2)),
                ((0.0, 10.0), (0.0, 60.0), (60.0, 0.0))):
            cfg, graph, ch, occ = make_scenario(
                seed=seed, jd=jd, cellular_sinr_floor_db=floor_c,
                d2d_sinr_floor_db=floor_d)
            for i in range(20):
                alloc = support_allocation(
                    cfg, graph, rng,
                    cell_scale=cfg.cellular_power_cap_w / graph.d_f * 10 ** rng.uniform(-2, 0),
                    d2d_scale=cfg.d2d_power_cap_w * 10 ** rng.uniform(-2, 0))
                if i % 2:
                    alloc.cellular[rng.uniform(size=alloc.cellular.shape) < 0.1] = 0.0
                    alloc.d2d[rng.uniform(size=jd) < 0.2] = 0.0
                want = scalar_qos_violation(cfg, ch, graph, occ, alloc)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = one_row_violation(cfg, ch, graph, occ, alloc)
                if np.isinf(want):
                    assert got == np.inf
                    seen["inf"] += 1
                else:
                    assert got == pytest.approx(want, rel=1e-12, abs=0)
                    seen["met" if want <= 1.0 else "violated"] += 1
        assert all(seen.values()), seen

    def test_all_zero_powers(self):
        cfg, graph, ch, occ = make_scenario(seed=0, jd=2)
        zero = PowerAllocation(np.zeros((cfg.J, cfg.K)), np.zeros(cfg.J_D))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert one_row_violation(cfg, ch, graph, occ, zero) == np.inf

    def test_batched_rows_equal_single_calls(self):
        """Each row of the batched check equals the one-allocation call bit
        for bit, zero powers included."""
        rng = np.random.default_rng(23)
        seen = []
        for seed, jd, floor_db in ((0, 1, 10.0), (1, 2, 0.0), (3, 4, 0.0)):
            cfg, graph, ch, occ = make_scenario(seed=seed, jd=jd,
                                                cellular_sinr_floor_db=floor_db,
                                                d2d_sinr_floor_db=floor_db)
            allocs = [support_allocation(cfg, graph, rng) for _ in range(40)]
            for alloc in allocs[::3]:
                alloc.cellular[rng.uniform(size=alloc.cellular.shape) < 0.2] = 0.0
                alloc.d2d[rng.uniform(size=jd) < 0.3] = 0.0
            allocs.append(PowerAllocation(np.zeros((cfg.J, cfg.K)), np.zeros(jd)))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = qos_violations(cfg, ch, graph, occ,
                                     np.stack([a.cellular for a in allocs]),
                                     np.stack([a.d2d for a in allocs]))
                want = [one_row_violation(cfg, ch, graph, occ, a) for a in allocs]
            assert got.shape == (len(allocs),)
            assert got.tolist() == want
            seen.extend(want)
        seen = np.array(seen)
        assert np.isinf(seen).any() and (seen <= 1.0).any() and (seen > 1.0).any()


def same_state(a, b):
    """Bit-generator states equal, arrays (MT19937's key) included."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


def sequential_random_baseline(cfg, ch, graph, occupancy, rng):
    """Reference for random_baseline: one draw at a time, each the (J, K)
    cellular uniforms and then the (J_D,) D2D uniforms, stopping at the
    first draw that meets every floor and else keeping the first
    least-violating one."""
    cap_cell = cfg.cellular_power_cap_w / graph.d_f
    best, best_violation = None, np.inf
    for i in range(MAX_RESAMPLE):
        cell = (1.0 - rng.uniform(size=(cfg.J, cfg.K))) * cap_cell * graph.indicator.T
        d2d = (1.0 - rng.uniform(size=cfg.J_D)) * cfg.d2d_power_cap_w
        alloc = PowerAllocation(cellular=cell, d2d=d2d)
        violation = one_row_violation(cfg, ch, graph, occupancy, alloc)
        if violation <= 1.0:
            return alloc, True, i + 1
        if best is None or violation < best_violation:
            best, best_violation = alloc, violation
    return best, False, MAX_RESAMPLE


class TestRandomBaseline:
    @staticmethod
    def assert_matches_sequential(scenario, make_rng):
        cfg, graph, ch, occ = scenario
        rng, ref_rng = make_rng(), make_rng()
        draw = random_baseline(cfg, ch, graph, occ, rng)
        alloc, feasible, used = sequential_random_baseline(cfg, ch, graph, occ, ref_rng)
        assert np.array_equal(draw.allocation.cellular, alloc.cellular)
        assert np.array_equal(draw.allocation.d2d, alloc.d2d)
        assert (draw.feasible, draw.draws_used) == (feasible, used)
        # the caller's generator ends where the one-at-a-time draws leave it
        assert same_state(rng.bit_generator.state, ref_rng.bit_generator.state)
        assert rng.uniform() == ref_rng.uniform()
        return draw

    def test_matches_sequential_draws(self):
        """Feasible draws after one or many resamples, at J_D = 1, 2, 4."""
        used = []
        for seed, jd in itertools.product(range(6), (1, 2, 4)):
            draw = self.assert_matches_sequential(
                make_scenario(seed=seed, jd=jd),
                lambda: np.random.default_rng(100 + seed))
            if draw.feasible:
                used.append(draw.draws_used)
        assert used and min(used) < 5 and max(used) > 50

    def test_matches_sequential_when_exhausted(self):
        """MAX_RESAMPLE draws that cannot meet a 60 dB D2D floor: the first
        least-violating one is kept and all of them are consumed."""
        scenario = make_scenario(seed=0, jd=2, d2d_sinr_floor_db=60.0)
        draw = self.assert_matches_sequential(scenario, lambda: np.random.default_rng(9))
        assert not draw.feasible and draw.draws_used == MAX_RESAMPLE

    def test_matches_sequential_on_other_bit_generator(self):
        """MT19937 makes each double from two 32-bit outputs; the block
        draw and the hand-back of the generator hold for it too."""
        for seed in (0, 1, 3):
            self.assert_matches_sequential(
                make_scenario(seed=seed, jd=2),
                lambda: np.random.Generator(np.random.MT19937(7)))
        draw = self.assert_matches_sequential(
            make_scenario(seed=0, jd=2, d2d_sinr_floor_db=60.0),
            lambda: np.random.Generator(np.random.MT19937(7)))
        assert not draw.feasible and draw.draws_used == MAX_RESAMPLE

    def test_deterministic(self):
        cfg, graph, ch, occ = make_scenario(seed=0, jd=1)
        a = random_baseline(cfg, ch, graph, occ, np.random.default_rng(5))
        b = random_baseline(cfg, ch, graph, occ, np.random.default_rng(5))
        assert np.array_equal(a.allocation.cellular, b.allocation.cellular)
        assert np.array_equal(a.allocation.d2d, b.allocation.d2d)
        assert a.draws_used == b.draws_used

    def test_respects_caps_and_support(self):
        cfg, graph, ch, occ = make_scenario(seed=0, jd=1)
        draw = random_baseline(cfg, ch, graph, occ, np.random.default_rng(6))
        assert draw.feasible
        assert one_row_violation(cfg, ch, graph, occ, draw.allocation) <= 1.0
        assert np.all(draw.allocation.cellular <= cfg.cellular_power_cap_w / graph.d_f)
        assert np.all(draw.allocation.d2d <= cfg.d2d_power_cap_w)
        assert np.all(draw.allocation.cellular[graph.indicator.T == 0] == 0)

    def test_degenerate_zero_caps(self):
        """Caps at zero watts leave only the all-zero draw, flagged infeasible."""
        cfg, graph, ch, occ = make_scenario(seed=0, jd=1)
        dead = dataclasses.replace(cfg, cellular_power_cap_dbm=-np.inf,
                                   d2d_power_cap_dbm=-np.inf)
        draw = random_baseline(dead, ch, graph, occ, np.random.default_rng(7))
        assert not draw.feasible and draw.draws_used == MAX_RESAMPLE
        assert np.all(draw.allocation.cellular == 0)
        assert np.all(draw.allocation.d2d == 0)

    def test_proposed_beats_baseline_on_average(self):
        """Quick 5-seed version of the sweep-scale comparison."""
        gaps = []
        for seed in (0, 1, 3, 4, 5):    # seed 2 is an infeasible draw
            cfg, graph, ch, occ = make_scenario(seed=seed, jd=1)
            trace = allocate(cfg, ch, graph, occ)
            draw = random_baseline(cfg, ch, graph, occ, np.random.default_rng(seed))
            assert draw.feasible
            gaps.append(trace.final.sum_rate_bits
                        - sum_rate(ch, graph, occ, draw.allocation))
        assert np.mean(gaps) > 0


class TestMiniatureOracle:
    def test_matches_grid_search(self):
        """3-variable instance against an exhaustive 40^3 log-space scan."""
        cfg, graph, ch, occ = make_scenario(
            seed=7, jd=1, J=2, K=2, N=1,
            cellular_sinr_floor_db=10.0, d2d_sinr_floor_db=10.0)
        trace = allocate(cfg, ch, graph, occ)
        got = trace.final.sum_rate_bits

        n0 = ch.noise_power_w
        h00 = abs(ch.cell_to_bs[0, 0]) ** 2
        h11 = abs(ch.cell_to_bs[1, 1]) ** 2
        hdb = abs(ch.d2d_to_bs[0]) ** 2
        hdd = abs(ch.d2d_pair[0]) ** 2
        hcd0 = abs(ch.cell_to_d2d[0, 0]) ** 2
        fc, fd = cfg.cellular_sinr_floor, cfg.d2d_sinr_floor
        cap_c = cfg.cellular_power_cap_w / graph.d_f
        cap_d = cfg.d2d_power_cap_w
        axes = [np.logspace(np.log10(lo), np.log10(hi), 40) for lo, hi in
                ((fc * n0 / h00, cap_c), (fc * n0 / h11, cap_c),
                 (fd * n0 / hdd, cap_d))]
        p1, p2_, pd = np.meshgrid(*axes, indexing="ij")
        s0 = h00 * p1 / (n0 + hdb * pd)
        s1 = h11 * p2_ / n0
        sd = hdd * pd / (n0 + hcd0 * p1)
        rate = np.log2(1 + s0) + np.log2(1 + s1) + np.log2(1 + sd)
        rate[~((s0 >= fc) & (s1 >= fc) & (sd >= fd))] = -np.inf
        assert got == pytest.approx(rate.max(), rel=1e-2)
