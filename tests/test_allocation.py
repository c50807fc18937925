"""Tests for the complementary-GP build and the iterative power allocator."""

import dataclasses
import itertools
import warnings

import numpy as np
import pytest

from conftest import make_scenario, support_allocation
from scma_d2d import allocation
from scma_d2d.allocation import (
    AllocationSolverError,
    InfeasibleScenarioError,
    allocate,
    build_p2,
    expand_denominator,
    feasible_start,
    initial_allocation,
    objective_sum_rate,
    pack_allocation,
    qos_violation,
    qos_violations,
    random_baseline,
    sum_rate,
    unpack_allocation,
    variable_registry,
)
from scma_d2d.capacity import PowerAllocation, cellular_sinr, d2d_sinr, equivalent_noise
from scma_d2d.channel import ChannelRealization, ScenarioConfig
from scma_d2d.experiments import ExperimentSpec, run_convergence
from scma_d2d.factor_graph import build_factor_graph
from scma_d2d.gp import DUALITY_GAP_TOL
from scma_d2d.posynomial import condense, product


def constraint_values(p2, x):
    return np.array([c.evaluate(x) for c in p2.constraints])


class TestBuildP2:
    def test_counts_baseline(self):
        """6 users x 2 tones each + 1 pair: 26 constraints, 13 variables."""
        cfg, graph, ch, occ = make_scenario(seed=0, jd=1)
        p2 = build_p2(cfg, ch, graph, occ)
        assert p2.n_variables == 13
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
        assert p2.n_variables == 12
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
        p2 = build_p2(cfg, ch, graph, occ)
        alloc = support_allocation(cfg, graph, np.random.default_rng(2))
        x = pack_allocation(p2.cell_vars, alloc)
        again = unpack_allocation(p2, x, (cfg.J, cfg.K))
        assert np.allclose(again.cellular, alloc.cellular)
        assert np.allclose(again.d2d, alloc.d2d)


class TestExpandDenominator:
    def test_term_count_and_homomorphism(self):
        cfg, graph, ch, occ = make_scenario(seed=0, jd=1)
        p2 = build_p2(cfg, ch, graph, occ)
        expanded = expand_denominator(p2)
        bound = int(np.prod([len(f) for f in p2.denominator_factors]))
        assert len(expanded) <= bound
        rng = np.random.default_rng(3)
        for _ in range(5):
            x = rng.uniform(1e-3, 1.0, size=p2.n_variables)
            factorwise = 1.0
            for f in p2.denominator_factors:
                factorwise *= f.evaluate(x)
            assert expanded.evaluate(x) == pytest.approx(factorwise, rel=1e-10)

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

    def test_posynomial_ratio_identity(self):
        """Capacity-sum route equals log2 of the factored posynomial ratio."""
        for seed in range(5):
            cfg, graph, ch, occ = make_scenario(seed=seed, jd=2)
            p2 = build_p2(cfg, ch, graph, occ)
            alloc = support_allocation(cfg, graph, np.random.default_rng(seed))
            direct = sum_rate(ch, graph, occ, alloc)
            packed = pack_allocation(p2.cell_vars, alloc)
            assert direct == pytest.approx(objective_sum_rate(p2, packed), rel=1e-10)


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
            vals = constraint_values(p2, pack_allocation(p2.cell_vars, p.powers))
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
        cell_vars = build_p2(cfg, ch, graph, occ).cell_vars
        x_star = pack_allocation(cell_vars, trace.final.powers)
        resumed = allocate(cfg, ch, graph, occ, t_max=trace.iterations_used + 1)
        x_again = pack_allocation(cell_vars, resumed.final.powers)
        assert np.all(np.abs(x_again - x_star) <= 1e-5 * np.abs(x_star))

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


class TestFeasibleStart:
    def test_half_cap_point_used_when_feasible(self):
        cfg, graph, ch, occ = make_scenario(seed=1, jd=1)
        p2 = build_p2(cfg, ch, graph, occ)
        x = feasible_start(cfg, graph, p2)
        expected = pack_allocation(p2.cell_vars, initial_allocation(cfg, graph))
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
        x0 = pack_allocation(p2.cell_vars, initial_allocation(cfg, graph))
        assert constraint_values(p2, x0).max() > 1.0
        x = feasible_start(cfg, graph, p2)
        assert constraint_values(p2, x).max() < 1.0


def scalar_qos_violation(cfg, ch, graph, occ, alloc):
    """Reference for qos_violation: the largest floor/SINR ratio from the
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
        """Random allocations, some with powers exactly 0: the vectorized
        check equals the scalar floor ratios and raises no warning.  The
        floor pairs (cellular, D2D in dB) include one where the D2D links
        bind and one where the cellular links do.  The scalar D2D
        interference is a BLAS dot product, so agreement is to rounding,
        not bit for bit."""
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
                    got = qos_violation(cfg, ch, graph, occ, alloc)
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
            assert qos_violation(cfg, ch, graph, occ, zero) == np.inf

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
                want = [qos_violation(cfg, ch, graph, occ, a) for a in allocs]
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


def sequential_random_baseline(cfg, ch, graph, occupancy, rng, max_resample=1000):
    """Reference for random_baseline: one draw at a time, each the (J, K)
    cellular uniforms and then the (J_D,) D2D uniforms, stopping at the
    first draw that meets every floor and else keeping the first
    least-violating one."""
    cap_cell = cfg.cellular_power_cap_w / graph.d_f
    best, best_violation = None, np.inf
    for i in range(max_resample):
        cell = (1.0 - rng.uniform(size=(cfg.J, cfg.K))) * cap_cell * graph.indicator.T
        d2d = (1.0 - rng.uniform(size=cfg.J_D)) * cfg.d2d_power_cap_w
        alloc = PowerAllocation(cellular=cell, d2d=d2d)
        violation = qos_violation(cfg, ch, graph, occupancy, alloc)
        if violation <= 1.0:
            return alloc, True, i + 1
        if best is None or violation < best_violation:
            best, best_violation = alloc, violation
    return best, False, max_resample


class TestRandomBaseline:
    @staticmethod
    def assert_matches_sequential(scenario, make_rng, max_resample=1000):
        cfg, graph, ch, occ = scenario
        rng, ref_rng = make_rng(), make_rng()
        draw = random_baseline(cfg, ch, graph, occ, rng, max_resample=max_resample)
        alloc, feasible, used = sequential_random_baseline(
            cfg, ch, graph, occ, ref_rng, max_resample=max_resample)
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
        """Three draws that cannot meet a 60 dB D2D floor: the first
        least-violating one is kept and all three are consumed."""
        scenario = make_scenario(seed=0, jd=2, d2d_sinr_floor_db=60.0)
        draw = self.assert_matches_sequential(
            scenario, lambda: np.random.default_rng(9), max_resample=3)
        assert not draw.feasible and draw.draws_used == 3

    def test_matches_sequential_on_other_bit_generator(self):
        """MT19937 makes each double from two 32-bit outputs; the block
        draw and the hand-back of the generator hold for it too."""
        for seed in (0, 1, 3):
            self.assert_matches_sequential(
                make_scenario(seed=seed, jd=2),
                lambda: np.random.Generator(np.random.MT19937(7)))
        self.assert_matches_sequential(
            make_scenario(seed=0, jd=2, d2d_sinr_floor_db=60.0),
            lambda: np.random.Generator(np.random.MT19937(7)), max_resample=3)

    def test_max_resample_below_one_rejected(self):
        cfg, graph, ch, occ = make_scenario(seed=0, jd=1)
        with pytest.raises(ValueError, match="max_resample"):
            random_baseline(cfg, ch, graph, occ, np.random.default_rng(0),
                            max_resample=0)

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
        assert qos_violation(cfg, ch, graph, occ, draw.allocation) <= 1.0
        assert np.all(draw.allocation.cellular <= cfg.cellular_power_cap_w / graph.d_f)
        assert np.all(draw.allocation.d2d <= cfg.d2d_power_cap_w)
        assert np.all(draw.allocation.cellular[graph.indicator.T == 0] == 0)

    def test_degenerate_zero_caps(self):
        """Caps at zero watts leave only the all-zero draw, flagged infeasible."""
        cfg, graph, ch, occ = make_scenario(seed=0, jd=1)
        dead = dataclasses.replace(cfg, cellular_power_cap_dbm=-np.inf,
                                   d2d_power_cap_dbm=-np.inf)
        draw = random_baseline(dead, ch, graph, occ, np.random.default_rng(7),
                               max_resample=10)
        assert not draw.feasible
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
