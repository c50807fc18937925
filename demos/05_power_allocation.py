#!/usr/bin/env python3
"""One full run of the iterative power allocator on the default scenario,
showing the per-pass powers and the monotone sum-rate climb."""

import numpy as np

from scma_d2d import (
    ScenarioConfig,
    allocate,
    build_factor_graph,
    default_occupancy,
    random_baseline,
    rng_streams,
    sample_channels,
    sample_geometry,
    sum_rate,
    watts_to_dbm,
)
from scma_d2d.allocation import pack_allocation, variable_registry

cfg = ScenarioConfig(J_D=1, seed=0)
graph = build_factor_graph(cfg.K, cfg.J, cfg.N)
occupancy = default_occupancy(cfg.J_D)
streams = rng_streams(cfg.seed)
geo = sample_geometry(cfg, streams.geometry)
ch = sample_channels(cfg, geo, streams.fading)

trace = allocate(cfg, ch, graph, occupancy)
names, _ = variable_registry(graph, cfg.J_D)

print(f"{cfg.J} users, {cfg.K} subcarriers, {cfg.J_D} D2D pair; "
      f"caps {cfg.cellular_power_cap_dbm:.0f}/{cfg.d2d_power_cap_dbm:.0f} dBm")
print(f"converged: {trace.converged} after {trace.iterations_used} pass(es)\n")

print("sum rate per pass (bits/s/Hz):")
for i, rate in enumerate(trace.rates()):
    tag = "start" if i == 0 else f"pass {i}"
    print(f"  {tag:>7}: {rate:.6f}")

print("\nfinal powers (dBm):")
final = trace.final.powers
for name, watts in zip(names, pack_allocation(graph, final.cellular, final.d2d)):
    print(f"  {name:>6}: {watts_to_dbm(watts):7.2f}")

draw = random_baseline(cfg, ch, graph, occupancy, streams.baseline)
print(f"\nfeasible random baseline: {sum_rate(ch, graph, occupancy, draw.allocation):.4f} "
      f"bits/s/Hz vs optimized {trace.final.sum_rate_bits:.4f}")
