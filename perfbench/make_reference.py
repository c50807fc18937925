"""Record the per-seed reference the benchmark checks every run against.

Run from the repository root:

    python3 perfbench/make_reference.py

For each workload it runs the first REFERENCE_SEEDS seeds of base seed 0
with the output checks on and writes each seed's final rate (bits/s/Hz;
the exact cellular capacity for bounds), or null for a certified
infeasible draw, to perfbench/reference.json.  Re-record only in a
change to the benchmark itself, never in a change that claims a gain.
"""

import json
import sys
import tempfile
from pathlib import Path

from run import bootstrap

REFERENCE_SEEDS = 32


def main():
    bootstrap()
    from harness import WORK, run_requests
    from spans import Hooks, Observations
    from workloads import REFERENCE_PATH, WORKLOADS

    reference = {}
    WORK.mkdir(exist_ok=True)
    for name, make in WORKLOADS.items():
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            workload = make(Path(tmp))
            workload.prepare(0)
            obs = Observations()
            with Hooks(obs):
                requests = run_requests(workload, range(REFERENCE_SEEDS), obs, {})
        problems = [p for r in requests for p in r.problems]
        if problems:
            raise SystemExit(f"{name}: not recording a reference that fails its checks: "
                             f"{problems[0]}")
        reference[name] = {str(r.seed): r.rate for r in requests}
        print(f"{name}: {sum(r.rate is None for r in requests)} of "
              f"{len(requests)} seeds infeasible")
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
