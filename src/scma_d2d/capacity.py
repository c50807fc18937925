"""Capacity, SINR and eigenvalue-bound computations for the hybrid uplink.

The base station sees, on subcarrier k, thermal noise plus the power of
the D2D transmitter occupying that tone ("equivalent noise").  Exact
cellular capacity for arbitrary per-user transmit covariances comes from
the eigenvalues of the received-signal covariance; per-eigenvalue upper
and lower bounds follow from additive Hermitian eigenvalue inequalities
applied to the two-piece covariance split of each user's codebook, and
yield a closed-form capacity upper bound.  With diagonal covariances
everything collapses to per-subcarrier SINR expressions, which is what
the power allocator optimizes.

All rates are log2, i.e. bits/s/Hz.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization
from .eig import hermitian_eigenvalues
from .factor_graph import FactorGraph, incidence_sets


class OccupancyError(ValueError):
    """Subcarrier-to-pair occupancy is not an injective partial map."""


class SingularCovarianceError(ValueError):
    """Received covariance has a numerically non-positive eigenvalue."""


@dataclass(frozen=True)
class EquivalentNoise:
    """Noise-plus-D2D-interference power per subcarrier, in watts."""

    per_subcarrier: np.ndarray  # (K,)


@dataclass
class PowerAllocation:
    """Cellular powers per (user, subcarrier) and per-pair D2D powers."""

    cellular: np.ndarray  # (J, K) watts, zero off the factor-graph support
    d2d: np.ndarray       # (J_D,) watts

    def __post_init__(self):
        self.cellular = np.asarray(self.cellular, dtype=float)
        self.d2d = np.asarray(self.d2d, dtype=float).reshape(-1)
        if np.any(self.cellular < 0) or np.any(self.d2d < 0):
            raise ValueError("powers must be non-negative")
        if not (np.all(np.isfinite(self.cellular)) and np.all(np.isfinite(self.d2d))):
            raise ValueError("powers must be finite")

    def check_support(self, graph: FactorGraph):
        """Powers must vanish wherever the factor graph has no edge."""
        off = self.cellular[graph.indicator.T == 0]
        if np.any(off != 0):
            raise ValueError("cellular power assigned outside the factor graph")
        return self


def power_gains(h) -> np.ndarray:
    """|h|^2 of each entry of a complex gain array, squared one Python
    float at a time (libm's pow, as numpy squares a scalar); numpy's array
    square rounds about one entry in 1000 differently."""
    return np.array([v ** 2 for v in np.abs(h).ravel().tolist()]).reshape(np.shape(h))


def default_occupancy(n_pairs: int) -> dict:
    """Pair l on tone l, the fixed assignment used throughout."""
    return {l: l for l in range(n_pairs)}


def check_occupancy(occupancy, n_subcarriers, n_pairs):
    pairs = list(occupancy.values())
    if len(set(pairs)) != len(pairs):
        raise OccupancyError("a D2D pair occupies more than one subcarrier")
    for k, l in occupancy.items():
        if not (0 <= k < n_subcarriers and 0 <= l < n_pairs):
            raise OccupancyError(f"occupancy entry {k}->{l} out of range")
    return occupancy


def tone_of_pair(occupancy, l):
    for k, pair in occupancy.items():
        if pair == l:
            return k
    raise OccupancyError(f"D2D pair {l} is not assigned a subcarrier")


def equivalent_noise(ch: ChannelRealization, alloc: PowerAllocation,
                     occupancy) -> EquivalentNoise:
    """Thermal noise plus the occupying pair's received power per tone."""
    k_count = ch.cell_to_bs.shape[1]
    check_occupancy(occupancy, k_count, len(ch.d2d_to_bs))
    out = np.full(k_count, ch.noise_power_w)
    gains = power_gains(ch.d2d_to_bs)
    for k, l in occupancy.items():
        out[k] += gains[l] * alloc.d2d[l]
    return EquivalentNoise(per_subcarrier=out)


def received_covariance(ch: ChannelRealization, covariances,
                        noise: EquivalentNoise) -> np.ndarray:
    """K x K covariance of the received signal: diagonal equivalent noise
    plus sum_j H_j K_j H_j^* with H_j the user's diagonal channel."""
    ky = np.diag(noise.per_subcarrier).astype(complex)
    for j, cov in enumerate(covariances):
        h = ch.cell_to_bs[j]
        ky += np.outer(h, h.conj()) * cov
    return ky


def exact_cellular_capacity_general(ch: ChannelRealization, covariances,
                                    noise: EquivalentNoise) -> float:
    """Exact aggregate cellular rate for arbitrary Hermitian PSD per-user
    covariances: log2 det of the received covariance minus the noise part."""
    ky = received_covariance(ch, covariances, noise)
    w = hermitian_eigenvalues(ky)
    if w.min() <= 0:
        raise SingularCovarianceError("received covariance is numerically singular")
    val = float(np.log2(w).sum() - np.log2(noise.per_subcarrier).sum())
    if val < 0:
        if val < -1e-9:
            raise SingularCovarianceError(f"capacity evaluated to {val} < 0")
        val = 0.0
    return val


def _split_tau(splits, extreme):
    """Per-user sum of extreme (first or last) eigenvalues of the two
    covariance split pieces."""
    taus = []
    for s1, s2 in splits:
        taus.append(hermitian_eigenvalues(s1)[extreme]
                    + hermitian_eigenvalues(s2)[extreme])
    return np.array(taus)


def eigenvalue_upper_bounds(ch: ChannelRealization, splits,
                            noise: EquivalentNoise) -> np.ndarray:
    """Upper bound on each ascending eigenvalue of the received covariance:
    k-th smallest equivalent-noise power plus the per-user largest split
    eigenvalues weighted by that user's best subcarrier gain."""
    taus = _split_tau(splits, -1)
    best = power_gains(ch.cell_to_bs).max(axis=1)
    return np.sort(noise.per_subcarrier) + float(taus @ best)


def eigenvalue_lower_bounds(ch: ChannelRealization, splits,
                            noise: EquivalentNoise) -> np.ndarray:
    """Mirror of the upper bound with smallest split eigenvalues and worst
    subcarrier gains."""
    taus = _split_tau(splits, 0)
    worst = power_gains(ch.cell_to_bs).min(axis=1)
    return np.sort(noise.per_subcarrier) + float(np.maximum(taus, 0.0) @ worst)


def capacity_upper_bound(ch: ChannelRealization, splits,
                         noise: EquivalentNoise) -> float:
    """Closed-form upper bound on the exact cellular capacity."""
    taus = _split_tau(splits, -1)
    best = power_gains(ch.cell_to_bs).max(axis=1)
    lift = float(taus @ best)
    return float(np.log2(1.0 + lift / noise.per_subcarrier).sum())


@dataclass
class CapacityBoundReport:
    """Exact capacity with its closed-form bracket and the per-eigenvalue
    sandwich (ascending order)."""

    exact_bits: float
    upper_bits: float
    lower_bits: float
    eigenvalues: np.ndarray
    eigenvalue_lower: np.ndarray
    eigenvalue_upper: np.ndarray

    def rows(self):
        """(k, lambda, lower, upper) tuples, 0-based k."""
        return [(k, float(self.eigenvalues[k]), float(self.eigenvalue_lower[k]),
                 float(self.eigenvalue_upper[k]))
                for k in range(len(self.eigenvalues))]


def bound_report(ch: ChannelRealization, splits,
                 noise: EquivalentNoise) -> CapacityBoundReport:
    covariances = [s1 + s2 for s1, s2 in splits]
    ky = received_covariance(ch, covariances, noise)
    eig = hermitian_eigenvalues(ky)
    lower_eig = eigenvalue_lower_bounds(ch, splits, noise)
    upper_eig = eigenvalue_upper_bounds(ch, splits, noise)
    log_noise = np.log2(noise.per_subcarrier).sum()
    return CapacityBoundReport(
        exact_bits=exact_cellular_capacity_general(ch, covariances, noise),
        upper_bits=capacity_upper_bound(ch, splits, noise),
        lower_bits=max(0.0, float(np.log2(lower_eig).sum() - log_noise)),
        eigenvalues=eig,
        eigenvalue_lower=lower_eig,
        eigenvalue_upper=upper_eig,
    )


def closed_form_cellular_capacity(ch: ChannelRealization, alloc: PowerAllocation,
                                  noise: EquivalentNoise,
                                  graph: FactorGraph) -> float:
    """Aggregate cellular rate for diagonal covariances: per-subcarrier
    log2(1 + sum of colliding users' received powers over equivalent noise)."""
    inc = incidence_sets(graph)
    gains = power_gains(ch.cell_to_bs)
    total = 0.0
    for k in range(graph.K):
        users = list(inc.users_of_subcarrier[k])
        signal = sum(gains[j, k] * alloc.cellular[j, k] for j in users)
        total += np.log2(1.0 + signal / noise.per_subcarrier[k])
    return float(total)


def cellular_sinr(ch: ChannelRealization, alloc: PowerAllocation,
                  noise: EquivalentNoise, graph: FactorGraph,
                  j: int, k: int) -> float:
    """Decoding SINR of user j on its subcarrier k."""
    if graph.indicator[k, j] == 0:
        raise ValueError(f"subcarrier {k} is outside user {j}'s support")
    return float(power_gains(ch.cell_to_bs[j, k]) * alloc.cellular[j, k]
                 / noise.per_subcarrier[k])


def d2d_sinr(ch: ChannelRealization, alloc: PowerAllocation, l: int,
             occupancy) -> float:
    """SINR at the receiver of pair l: own link power over thermal noise
    plus the colliding cellular users' power on the occupied tone."""
    k = tone_of_pair(occupancy, l)
    interference = float(power_gains(ch.cell_to_d2d[:, l]) @ alloc.cellular[:, k])
    signal = power_gains(ch.d2d_pair[l]) * alloc.d2d[l]
    return float(signal / (ch.noise_power_w + interference))


def d2d_capacity(ch: ChannelRealization, alloc: PowerAllocation,
                 occupancy) -> float:
    """Sum over pairs of log2(1 + SINR)."""
    return float(sum(np.log2(1.0 + d2d_sinr(ch, alloc, l, occupancy))
                     for l in range(len(alloc.d2d))))
