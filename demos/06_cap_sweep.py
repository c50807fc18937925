#!/usr/bin/env python3
"""A small cellular-cap sweep against the random baseline (desk-scale
version of the experiment the `scma-d2d sweep-cell` subcommand runs)."""

import tempfile
from pathlib import Path

from scma_d2d import ExperimentSpec, ScenarioConfig, run_sweep

with tempfile.TemporaryDirectory() as tmp:
    spec = ExperimentSpec(
        kind="sweep_cellular_cap",
        scenario=ScenarioConfig(J_D=1),
        output_path=str(Path(tmp) / "sweep.csv"),
        num_seeds=10,
        sweep_values_dbm=(24.0, 27.0, 30.0),
    )
    result = run_sweep(spec)
    detail_rows = len(Path(result.detail_path).read_text().splitlines()) - 1

print(f"{'cap [dBm]':>10} {'proposed':>10} {'random':>10} {'seeds':>6} {'infeasible':>11}")
for row in result.rows:
    print(f"{row.sweep_value_dbm:10.0f} {row.mean_sum_rate_proposed:10.4f} "
          f"{row.mean_sum_rate_random:10.4f} {row.num_seeds_used:6d} "
          f"{row.num_infeasible_draws:11d}")
print(f"\n{detail_rows} per-seed detail rows written (and removed) with the summary")
