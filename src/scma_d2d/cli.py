"""Command-line entry point for the experiment harness.

Subcommands: convergence, sweep-cell, sweep-d2d, bounds, compare.
Exit codes: 0 success, 2 configuration error (a system too large to
allocate, or scales that put a GP coefficient outside float64's range,
included), 3 every seed infeasible, 4 a GP solve inside the power
allocator failed its runtime checks or its phase-1 stopped uncertified.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .allocation import AllocationSolverError
from .channel import ConfigError, ScenarioConfig, parse_config
from .experiments import (
    DEFAULT_SWEEP_DBM,
    SWEEP_FIELDS,
    ExperimentSpec,
    run_experiment,
)
from .factor_graph import DimensionError
from .posynomial import CoefficientRangeError

# subcommand -> (experiment kind, default number of seeds)
SUBCOMMANDS = {
    "convergence": ("convergence", 1),
    "sweep-cell": ("sweep_cellular_cap", 50),
    "sweep-d2d": ("sweep_d2d_cap", 50),
    "bounds": ("bound_validation", 20),
    "compare": ("baseline_comparison", 50),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scma-d2d",
        description="Sum-rate experiments for an SCMA uplink sharing "
                    "subcarriers with D2D pairs.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (kind, seeds) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=f"run the {kind} experiment")
        p.add_argument("--config", help="scenario file (key = value lines); "
                                        "defaults apply for missing keys")
        p.add_argument("--seeds", type=int, default=seeds,
                       help="number of seeds (starting at the scenario seed; "
                            f"default {seeds})")
        p.add_argument("--out", default=f"{kind}.csv", help="output CSV path")
        p.add_argument("--tmax", type=int, default=10,
                       help="iteration cap for the power allocator")
        p.add_argument("--jd", type=int, default=None,
                       help="override the number of D2D pairs")
        if name == "convergence":
            p.add_argument("--trace", action="store_true",
                           help="emit per-pass solver trace CSVs")
        if kind in SWEEP_FIELDS:
            p.add_argument("--sweep-dbm", default=None,
                           help="comma-separated cap values in dBm "
                                "(default 24,26,28,30,32)")
    return parser


def _sweep_values(raw):
    if raw is None:
        return DEFAULT_SWEEP_DBM
    try:
        values = tuple(float(v) for v in raw.split(",") if v.strip())
    except ValueError:
        raise ConfigError(f"bad --sweep-dbm list: {raw!r}") from None
    if not values:
        raise ConfigError("--sweep-dbm must name at least one value")
    return values


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    kind = SUBCOMMANDS[args.command][0]
    try:
        scenario = parse_config(args.config) if args.config else ScenarioConfig()
        if args.jd is not None:
            scenario = dataclasses.replace(scenario, J_D=args.jd)
        spec = ExperimentSpec(
            kind=kind,
            scenario=scenario,
            output_path=args.out,
            num_seeds=args.seeds,
            sweep_values_dbm=(_sweep_values(args.sweep_dbm)
                              if kind in SWEEP_FIELDS else ()),
            t_max=args.tmax,
            trace_solver=getattr(args, "trace", False),
        ).validate()
    except (ConfigError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    try:
        result = run_experiment(spec)
    except (DimensionError, CoefficientRangeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except AllocationSolverError as err:
        print(f"error: {err}", file=sys.stderr)
        return 4
    print(result.summary())
    if result.all_infeasible:
        print("error: every seed produced an infeasible scenario", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
