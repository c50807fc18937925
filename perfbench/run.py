"""Benchmark of the scma-d2d package: one workload per process, one caller.

Run from the repository root:

    python3 perfbench/run.py --workload compare-jd2 --seed 1 --seconds 35 --trace 0

Traffic is a closed loop with a single caller: each request is one seed,
and the next request starts only when the previous one has returned.
BLAS is pinned to one thread.  The package is imported from ``src/`` of
the checkout this file sits in, and the run fails when it is missing.

Set-up (``setup_s``) is the median of three rounds, each of which times
the import of numpy and the package in a fresh interpreter, input
generation, and one uncounted warm-up request on a seed of the stored
reference.  Then:

- ``--trace 0`` times requests for ``--seconds`` and prints every
  end-to-end metric of BENCHMARK.json;
- ``--trace 1`` times requests untraced for half of ``--seconds``, runs
  the same requests again with every layer boundary traced, and prints
  every per-layer metric of BENCHMARK.json, including the tracing
  overhead measured between the two passes.  It never prints
  end-to-end figures.

Every request is checked (see workloads.py); a request that raises
anything but a certified InfeasibleScenarioError, or fails a check,
counts as failed.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the line before it
records the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def bootstrap():
    """Pin BLAS to one thread and import the package from this checkout.

    Must run before numpy is imported."""
    if not (SRC / "scma_d2d" / "__init__.py").is_file():
        raise SystemExit(f"error: no scma_d2d package under {SRC}")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed; 0 uses the seeds the reference was recorded on")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    bootstrap()
    import harness
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    reference = workloads.load_reference()[args.workload]
    harness.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=harness.WORK) as tmp:
        workload = workloads.WORKLOADS[args.workload](Path(tmp))
        result, info = harness.benchmark(workload, args, reference)
    print(json.dumps({"environment": harness.environment(), **info}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
