"""Steadiness check: run each workload repeatedly, every run in its own
process, and print per metric the median, the quartiles and the spread
against the bound in BENCHMARK.json.

Run from the repository root:

    python3 perfbench/steady.py --seeds 1-10
    python3 perfbench/steady.py --seeds 1-5 --workloads alloc-jd4 --out a.json
    python3 perfbench/steady.py --seeds 11-20 --compare a.json
    python3 perfbench/steady.py --seeds 1-3 --trace

Spread is (q3 - q1) / median with the quartiles of
statistics.quantiles(values, n=4).  A metric is steady when its spread is
below a third of its bound; setup_s is exempt from the spread test.  With
--compare, each median is also checked against the median of an earlier
--out file: it may be worse by at most the bound.  With --trace the
traced runs are made instead and per-layer medians are printed without
bounds.  Runs are sequential: the machine has two cores and the
benchmark pins itself to one caller.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 600


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-400:]}")
    return json.loads(lines[-1])


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def worse_by(new, old, better):
    """Share by which the new median is worse than the old one."""
    if not old:
        return 0.0
    return (old - new) / old if better == "higher" else (new - old) / old


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", action="store_true", help="make the traced runs")
    parser.add_argument("--out", help="write every run's result to this JSON file")
    parser.add_argument("--compare", help="an earlier --out file to compare medians with")
    args = parser.parse_args(argv)

    metrics = spec["per_layer" if args.trace else "end_to_end"]
    earlier = json.loads(Path(args.compare).read_text()) if args.compare else {}
    results = {}
    unsteady = 0
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            result = run_once(workload, seed, args.seconds, args.trace)
            if not result["correct"] or result["failed"]:
                unsteady += 1
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}")
            runs.append(result)
        results[workload] = runs
        print(f"\n{workload}: {len(runs)} runs")
        print(f"  {'metric':36s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}"
              f" {'bound':>6s}")
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            median, q1, q3, spread = summary(values)
            line = f"  {m['name']:36s} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.2%}"
            if "bound" in m:
                line += f" {m['bound']:6.0%}"
                if m["name"] != "setup_s" and spread > m["bound"] / 3:
                    line += "  UNSTEADY"
                    unsteady += 1
                if workload in earlier:
                    old = statistics.median(r["metrics"][m["name"]]["value"]
                                            for r in earlier[workload])
                    shift = worse_by(median, old, m["better"])
                    line += f"  worse by {shift:+.2%} than before"
                    if shift > m["bound"]:
                        line += "  REGRESSED"
                        unsteady += 1
            print(line)
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n")
    print(f"\n{unsteady} finding(s)")
    return 1 if unsteady else 0


if __name__ == "__main__":
    sys.exit(main())
