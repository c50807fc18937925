"""Tests for equivalent noise, capacities, SINRs and eigenvalue bounds."""

import numpy as np
import pytest

from conftest import make_scenario, support_allocation
from scma_d2d.capacity import (
    EquivalentNoise,
    OccupancyError,
    PowerAllocation,
    bound_report,
    capacity_upper_bound,
    cellular_sinr,
    closed_form_cellular_capacity,
    d2d_capacity,
    d2d_sinr,
    default_occupancy,
    eigenvalue_lower_bounds,
    eigenvalue_upper_bounds,
    equivalent_noise,
    exact_cellular_capacity_general,
    received_covariance,
    tone_of_pair,
)
from scma_d2d.channel import ChannelRealization
from scma_d2d.eig import hermitian_eigenvalues
from scma_d2d.factor_graph import (
    build_factor_graph,
    covariance_split,
    random_skeleton,
)


def tiny_channels(noise_w=1.0, d2d_to_bs=np.sqrt(2.0), J=2, K=3):
    """Hand-sized single-pair realization with controllable gains."""
    return ChannelRealization(
        cell_to_bs=np.full((J, K), 1.0 + 0j),
        d2d_to_bs=np.array([d2d_to_bs + 0j]),
        d2d_pair=np.array([1.0 + 0j]),
        cell_to_d2d=np.full((J, 1), 1.0 + 0j),
        noise_power_w=noise_w,
    )


def diagonal_covariances(alloc):
    """Per-user diagonal transmit covariances matching an allocation."""
    return [np.diag(alloc.cellular[j]).astype(complex)
            for j in range(alloc.cellular.shape[0])]


class TestEquivalentNoise:
    def test_idle_pairs_leave_thermal_noise(self):
        ch = tiny_channels()
        alloc = PowerAllocation(np.zeros((2, 3)), np.zeros(1))
        noise = equivalent_noise(ch, alloc, default_occupancy(1))
        assert np.allclose(noise.per_subcarrier, 1.0)

    def test_hand_values(self):
        """noise 1, |h|^2 = 2, P' = 3 on tone 1 gives (7, 1, 1)."""
        ch = tiny_channels(noise_w=1.0, d2d_to_bs=np.sqrt(2.0))
        alloc = PowerAllocation(np.zeros((2, 3)), np.array([3.0]))
        noise = equivalent_noise(ch, alloc, {0: 0})
        assert noise.per_subcarrier == pytest.approx([7.0, 1.0, 1.0])

    def test_matches_scalar_loop(self):
        cfg, graph, ch, occ = make_scenario(seed=5, jd=1)
        alloc = support_allocation(cfg, graph, np.random.default_rng(1))
        noise = equivalent_noise(ch, alloc, occ)
        for k in range(cfg.K):
            expected = ch.noise_power_w
            for tone, pair in occ.items():
                if tone == k:
                    expected += abs(ch.d2d_to_bs[pair]) ** 2 * alloc.d2d[pair]
            assert noise.per_subcarrier[k] == pytest.approx(expected, rel=1e-12)

    def test_duplicate_occupancy_rejected(self):
        cfg, graph, ch, _ = make_scenario(seed=5, jd=1)
        alloc = PowerAllocation(np.zeros((cfg.J, cfg.K)), np.zeros(1))
        with pytest.raises(OccupancyError):
            equivalent_noise(ch, alloc, {0: 0, 1: 0})


class TestExactCapacity:
    def test_zero_signal(self):
        cfg, graph, ch, occ = make_scenario(seed=2)
        alloc = PowerAllocation(np.zeros((cfg.J, cfg.K)), np.zeros(1))
        noise = equivalent_noise(ch, alloc, occ)
        covs = [np.zeros((cfg.K, cfg.K), dtype=complex)] * cfg.J
        assert exact_cellular_capacity_general(ch, covs, noise) == pytest.approx(0.0, abs=1e-9)

    def test_unit_snr_single_link(self):
        """One user, one tone, |h|^2 P equal to the noise gives 1 bit."""
        ch = ChannelRealization(
            cell_to_bs=np.array([[2.0 + 0j]]),
            d2d_to_bs=np.array([1.0 + 0j]),
            d2d_pair=np.array([1.0 + 0j]),
            cell_to_d2d=np.array([[1.0 + 0j]]),
            noise_power_w=1.0,
        )
        noise = EquivalentNoise(np.array([1.0]))
        covs = [np.array([[0.25 + 0j]])]   # |h|^2 P = 4 * 0.25 = noise
        assert exact_cellular_capacity_general(ch, covs, noise) == pytest.approx(1.0, rel=1e-12)

    def test_diagonal_covariance_collapses_to_closed_form(self):
        """With diagonal covariances the determinant route equals the
        per-subcarrier SINR formula."""
        for seed in range(5):
            cfg, graph, ch, occ = make_scenario(seed=seed, jd=1)
            alloc = support_allocation(cfg, graph, np.random.default_rng(seed))
            noise = equivalent_noise(ch, alloc, occ)
            exact = exact_cellular_capacity_general(ch, diagonal_covariances(alloc), noise)
            closed = closed_form_cellular_capacity(ch, alloc, noise, graph)
            assert exact == pytest.approx(closed, rel=1e-10)


class TestEigenvalueBounds:
    def test_zero_covariance_degenerates_to_noise(self):
        cfg, graph, ch, occ = make_scenario(seed=3)
        alloc = PowerAllocation(np.zeros((cfg.J, cfg.K)), np.array([0.5]))
        noise = equivalent_noise(ch, alloc, occ)
        zeros = np.zeros((cfg.K, cfg.K), dtype=complex)
        splits = [(zeros, zeros)] * cfg.J
        expected = np.sort(noise.per_subcarrier)
        assert np.allclose(eigenvalue_upper_bounds(ch, splits, noise), expected)
        assert np.allclose(eigenvalue_lower_bounds(ch, splits, noise), expected)

    def test_single_user_diagonal_split(self):
        """Scaled-identity covariance on one user's support: the bound caps
        the largest received eigenvalue."""
        cfg, graph, ch, occ = make_scenario(seed=4)
        alloc = PowerAllocation(np.zeros((cfg.J, cfg.K)), np.zeros(1))
        noise = equivalent_noise(ch, alloc, occ)
        p = 0.3
        support = np.diag(graph.indicator[:, 0]).astype(complex)
        splits = [(p / 2 * support, p / 2 * support)]
        ch_one = ChannelRealization(
            cell_to_bs=ch.cell_to_bs[:1], d2d_to_bs=ch.d2d_to_bs,
            d2d_pair=ch.d2d_pair, cell_to_d2d=ch.cell_to_d2d[:1],
            noise_power_w=ch.noise_power_w)
        ky = received_covariance(ch_one, [p * support], noise)
        lam = hermitian_eigenvalues(ky)
        ub = eigenvalue_upper_bounds(ch_one, splits, noise)
        assert np.all(lam <= ub + 1e-9 * np.linalg.norm(ky))

    def test_sandwich_over_random_instances(self):
        """Lower <= exact eigenvalue <= upper on 20 random draws."""
        for seed in range(20):
            cfg, graph, ch, occ = make_scenario(seed=seed, jd=1)
            skel = random_skeleton(graph, np.random.default_rng(seed + 1000),
                                   per_user_power_w=cfg.cellular_power_cap_w)
            splits = [covariance_split(skel, j) for j in range(cfg.J)]
            alloc = PowerAllocation(np.zeros((cfg.J, cfg.K)),
                                    np.full(1, cfg.d2d_power_cap_w / 2))
            noise = equivalent_noise(ch, alloc, occ)
            report = bound_report(ch, splits, noise)
            slack = 1e-9 * np.abs(report.eigenvalues).max()
            assert np.all(report.eigenvalue_lower <= report.eigenvalues + slack)
            assert np.all(report.eigenvalues <= report.eigenvalue_upper + slack)
            assert report.lower_bits <= report.exact_bits + 1e-9
            assert report.exact_bits <= report.upper_bits + 1e-9


class TestCapacityUpperBound:
    def test_zero_signal(self):
        cfg, graph, ch, occ = make_scenario(seed=6)
        noise = EquivalentNoise(np.full(cfg.K, ch.noise_power_w))
        zeros = np.zeros((cfg.K, cfg.K), dtype=complex)
        assert capacity_upper_bound(ch, [(zeros, zeros)] * cfg.J, noise) == 0.0

    def test_single_tone_collapse(self):
        """K = 1: the bound coincides with the exact value."""
        ch = ChannelRealization(
            cell_to_bs=np.array([[1.5 + 0j]]),
            d2d_to_bs=np.array([1.0 + 0j]),
            d2d_pair=np.array([1.0 + 0j]),
            cell_to_d2d=np.array([[1.0 + 0j]]),
            noise_power_w=2.0,
        )
        noise = EquivalentNoise(np.array([2.0]))
        splits = [(np.array([[0.2 + 0j]]), np.array([[0.3 + 0j]]))]
        exact = exact_cellular_capacity_general(ch, [splits[0][0] + splits[0][1]], noise)
        assert capacity_upper_bound(ch, splits, noise) == pytest.approx(exact, rel=1e-12)

    def test_dominates_exact_capacity(self):
        for seed in range(20):
            cfg, graph, ch, occ = make_scenario(seed=seed, jd=2)
            skel = random_skeleton(graph, np.random.default_rng(seed + 2000))
            splits = [covariance_split(skel, j) for j in range(cfg.J)]
            alloc = PowerAllocation(np.zeros((cfg.J, cfg.K)),
                                    np.full(2, cfg.d2d_power_cap_w / 2))
            noise = equivalent_noise(ch, alloc, occ)
            covs = [s1 + s2 for s1, s2 in splits]
            exact = exact_cellular_capacity_general(ch, covs, noise)
            assert capacity_upper_bound(ch, splits, noise) >= exact - 1e-9


class TestSinr:
    def test_zero_power_zero_sinr(self, baseline_scenario):
        cfg, graph, ch, occ = baseline_scenario
        alloc = PowerAllocation(np.zeros((cfg.J, cfg.K)), np.zeros(1))
        noise = equivalent_noise(ch, alloc, occ)
        assert cellular_sinr(ch, alloc, noise, graph, 0, 0) == 0.0

    def test_hand_ratio(self):
        """|h|^2 = 2, P = 3, equivalent noise 6 gives SINR 1."""
        graph = build_factor_graph(2, 2, 1)
        cell = np.zeros((2, 2))
        cell[0, 0] = 3.0
        ch = ChannelRealization(
            cell_to_bs=np.array([[np.sqrt(2.0) + 0j, 1.0 + 0j],
                                 [1.0 + 0j, 1.0 + 0j]]),
            d2d_to_bs=np.array([1.0 + 0j]),
            d2d_pair=np.array([3.0 + 0j]),
            cell_to_d2d=np.array([[1.0 + 0j], [1.0 + 0j]]),
            noise_power_w=6.0,
        )
        alloc = PowerAllocation(cell, np.zeros(1))
        noise = EquivalentNoise(np.array([6.0, 6.0]))
        assert cellular_sinr(ch, alloc, noise, graph, 0, 0) == pytest.approx(1.0)
        assert d2d_sinr(ch, alloc, 0, {0: 0}) == 0.0   # P' = 0

    def test_outside_support_rejected(self, baseline_scenario):
        cfg, graph, ch, occ = baseline_scenario
        alloc = support_allocation(cfg, graph, np.random.default_rng(0))
        noise = equivalent_noise(ch, alloc, occ)
        j = 0
        k_off = int(np.flatnonzero(graph.indicator[:, j] == 0)[0])
        with pytest.raises(ValueError):
            cellular_sinr(ch, alloc, noise, graph, j, k_off)

    def test_matches_scalar_recomputation(self):
        cfg, graph, ch, occ = make_scenario(seed=8, jd=1)
        alloc = support_allocation(cfg, graph, np.random.default_rng(8))
        noise = equivalent_noise(ch, alloc, occ)
        for j in range(cfg.J):
            for k in np.flatnonzero(graph.indicator[:, j]):
                expected = (abs(ch.cell_to_bs[j, k]) ** 2 * alloc.cellular[j, k]
                            / noise.per_subcarrier[k])
                assert cellular_sinr(ch, alloc, noise, graph, j, int(k)) == \
                    pytest.approx(expected, rel=1e-12)
        # D2D side, term by term
        k0 = tone_of_pair(occ, 0)
        denom = ch.noise_power_w
        for j in range(cfg.J):
            denom += abs(ch.cell_to_d2d[j, 0]) ** 2 * alloc.cellular[j, k0]
        expected = abs(ch.d2d_pair[0]) ** 2 * alloc.d2d[0] / denom
        assert d2d_sinr(ch, alloc, 0, occ) == pytest.approx(expected, rel=1e-12)

    def test_d2d_gain_squared_as_a_float(self):
        """The colliding user's gain is squared as a Python float, as the
        link model squares it; numpy's array square rounds this one the
        other way, and the SINR would differ in the last bit."""
        v = 1.2260833901624735
        assert (np.array([v]) ** 2)[0] != v ** 2
        ch = tiny_channels(noise_w=1e-30)
        ch.cell_to_d2d[0, 0] = v
        cell = np.zeros((2, 3))
        cell[0, 0] = 1.0
        alloc = PowerAllocation(cell, np.array([1.0]))
        assert d2d_sinr(ch, alloc, 0, {0: 0}) == 1.0 / (1e-30 + v ** 2)
        assert d2d_sinr(ch, alloc, 0, {0: 0}) != 1.0 / (1e-30 + (np.array([v]) ** 2)[0])

    def test_noise_only_d2d_ratio(self):
        """No cellular interference: SINR is |h|^2 P' / N0 = 9."""
        ch = tiny_channels(noise_w=1.0)
        alloc = PowerAllocation(np.zeros((2, 3)), np.array([9.0]))
        assert d2d_sinr(ch, alloc, 0, {0: 0}) == pytest.approx(9.0, rel=1e-12)


class TestD2dCapacity:
    def test_no_pairs(self):
        cfg, graph, ch, occ = make_scenario(seed=9, jd=1)
        alloc = PowerAllocation(np.zeros((cfg.J, cfg.K)), np.zeros(0))
        empty_ch = ChannelRealization(
            cell_to_bs=ch.cell_to_bs,
            d2d_to_bs=np.ones(0, dtype=complex),
            d2d_pair=np.ones(0, dtype=complex),
            cell_to_d2d=np.ones((cfg.J, 0), dtype=complex),
            noise_power_w=ch.noise_power_w)
        assert d2d_capacity(empty_ch, alloc, {}) == 0.0

    def test_unit_sinr_single_pair(self):
        ch = tiny_channels(noise_w=1.0)
        alloc = PowerAllocation(np.zeros((2, 3)), np.array([1.0]))
        assert d2d_capacity(ch, alloc, {0: 0}) == pytest.approx(1.0, rel=1e-12)

    def test_additivity(self):
        cfg, graph, ch, occ = make_scenario(seed=10, jd=2)
        alloc = support_allocation(cfg, graph, np.random.default_rng(10))
        total = d2d_capacity(ch, alloc, occ)
        parts = sum(np.log2(1 + d2d_sinr(ch, alloc, l, occ)) for l in range(2))
        assert total == pytest.approx(parts, rel=1e-12)


class TestMonotonicity:
    def test_cellular_capacity_decreases_with_d2d_power(self):
        cfg, graph, ch, occ = make_scenario(seed=11, jd=1)
        alloc = support_allocation(cfg, graph, np.random.default_rng(11))
        rates = []
        for pd in (0.0, 0.2, 0.5, 1.0):
            a = PowerAllocation(alloc.cellular, np.array([pd]))
            noise = equivalent_noise(ch, a, occ)
            rates.append(closed_form_cellular_capacity(ch, a, noise, graph))
        assert np.all(np.diff(rates) < 0)

    def test_d2d_sinr_decreases_with_interfering_power(self):
        cfg, graph, ch, occ = make_scenario(seed=12, jd=1)
        alloc = support_allocation(cfg, graph, np.random.default_rng(12))
        k0 = tone_of_pair(occ, 0)
        j = int(np.flatnonzero(graph.indicator[k0])[0])
        sinrs = []
        for bump in (0.0, 0.1, 0.3):
            cell = alloc.cellular.copy()
            cell[j, k0] += bump
            sinrs.append(d2d_sinr(ch, PowerAllocation(cell, alloc.d2d), 0, occ))
        assert np.all(np.diff(sinrs) < 0)


class TestSingularCovariance:
    def test_zero_noise_rejected(self):
        from scma_d2d.capacity import SingularCovarianceError
        ch = tiny_channels(noise_w=1.0)
        noise = EquivalentNoise(np.array([0.0, 1.0, 1.0]))
        covs = [np.zeros((3, 3), dtype=complex)] * 2
        with pytest.raises(SingularCovarianceError):
            exact_cellular_capacity_general(ch, covs, noise)


class TestSupport:
    def test_check_support_catches_stray_power(self, baseline_scenario):
        cfg, graph, ch, occ = baseline_scenario
        cell = np.zeros((cfg.J, cfg.K))
        j = 0
        k_off = int(np.flatnonzero(graph.indicator[:, j] == 0)[0])
        cell[j, k_off] = 0.1
        with pytest.raises(ValueError):
            PowerAllocation(cell, np.zeros(1)).check_support(graph)
