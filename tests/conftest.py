"""Shared fixtures: the baseline scenario at its default parameters."""

import numpy as np
import pytest

from scma_d2d.capacity import default_occupancy
from scma_d2d.channel import ScenarioConfig, rng_streams, sample_channels, sample_geometry
from scma_d2d.factor_graph import build_factor_graph
from scma_d2d.posynomial import PackedConstraints


def make_scenario(seed=0, jd=1, **overrides):
    """(cfg, graph, channels, occupancy) for the default 6-user, 4-tone
    system with `jd` D2D pairs."""
    cfg = ScenarioConfig(J_D=jd, seed=seed, **overrides)
    graph = build_factor_graph(cfg.K, cfg.J, cfg.N)
    streams = rng_streams(seed)
    geo = sample_geometry(cfg, streams.geometry)
    ch = sample_channels(cfg, geo, streams.fading)
    return cfg, graph, ch, default_occupancy(cfg.J_D)


def pack_blocks(n, cons):
    """PackedConstraints of (exponents, offsets) blocks over n variables,
    stacked as to_convex_form stacks a problem's constraints."""
    a_blocks = [np.asarray(a, dtype=float).reshape(-1, n) for a, _ in cons]
    b_blocks = [np.asarray(b, dtype=float).reshape(-1) for _, b in cons]
    return PackedConstraints(np.vstack([np.empty((0, n))] + a_blocks),
                             np.concatenate([np.empty(0)] + b_blocks),
                             np.array([len(b) for b in b_blocks], dtype=int))


def unpack_blocks(pack):
    """(exponents, offsets) of each block of a PackedConstraints."""
    return [(pack.A[s:s + k], pack.b[s:s + k]) for s, k in zip(pack.starts, pack.sizes)]


@pytest.fixture
def baseline_scenario():
    return make_scenario(seed=0, jd=1)


def support_allocation(cfg, graph, rng, cell_scale=None, d2d_scale=None):
    """Random powers respecting the factor-graph support."""
    cell_scale = cfg.cellular_power_cap_w / graph.d_f if cell_scale is None else cell_scale
    d2d_scale = cfg.d2d_power_cap_w if d2d_scale is None else d2d_scale
    cell = rng.uniform(0.1, 1.0, size=(cfg.J, cfg.K)) * graph.indicator.T * cell_scale
    d2d = rng.uniform(0.1, 1.0, size=cfg.J_D) * d2d_scale
    from scma_d2d.capacity import PowerAllocation
    return PowerAllocation(cellular=cell, d2d=d2d)
