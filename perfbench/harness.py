"""The benchmark's request loop, its checks between requests, and the
metrics it reports.  Imported by run.py after bootstrap(), so numpy and
the package come from the checkout with BLAS pinned to one thread."""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy

from scma_d2d.allocation import InfeasibleScenarioError
from spans import Hooks, Observations, Recorder, layer_metrics
from workloads import generic_problems, reference_problem

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / ".work"     # scratch outputs, ignored by git
SETUP_REPEATS = 3
IMPORT_PROBE = ("import time; start = time.perf_counter(); import numpy, scma_d2d; "
                "print(time.perf_counter() - start)")
TAIL_BEYOND = 10     # requests the tail percentile must leave above it
TAIL_BLOCK = 100     # smallest block of requests a tail is taken over


def metric_specs(kind):
    """(name, unit) pairs of BENCHMARK.json's end_to_end or per_layer list."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[kind]]


@dataclass
class Request:
    seed: int
    seconds: float
    rate: float | None       # bits/s/Hz; None for a certified infeasible draw
    output: bytes            # compared byte for byte between runs
    problems: list


def run_requests(workload, seeds, obs, reference, deadline=None, recorder=None):
    """Closed loop over seeds, stopping at the first request that ends
    after the deadline.  Only workload.call is timed; checks run between
    requests."""
    done = []
    for seed in seeds:
        obs.clear()
        if recorder is not None:
            recorder.request = seed
            root = recorder.open("request")
        error = None
        start = time.perf_counter()
        try:
            workload.call(seed)
        except InfeasibleScenarioError:
            pass    # certified outcome, not a failure
        except Exception:
            error = traceback.format_exc()
        seconds = time.perf_counter() - start
        if recorder is not None:
            recorder.close(root)
        if error is not None:
            done.append(Request(seed, seconds, None, b"", [error]))
        else:
            rate, output, problems = workload.outcome(seed, obs)
            problems += generic_problems(obs)
            if seed in reference:
                mismatch = reference_problem(reference[seed], rate)
                if mismatch:
                    problems.append(f"seed {seed}: {mismatch}")
            if recorder is not None:
                problems += exact_count_problems(workload, obs)
            done.append(Request(seed, seconds, rate, output, problems))
        if deadline is not None and time.perf_counter() >= deadline:
            break
    return done


def exact_count_problems(workload, obs):
    """Work counts that must repeat exactly on every request."""
    seen = {"posynomial.objective_terms": sum(obs.product_terms) / max(len(obs.allocations), 1),
            "eig.calls": len(obs.eigen)}
    return [f"{name} is {seen[name]:g}, expected exactly {expected}"
            for name, expected in workload.exact_counts.items()
            if seen[name] != expected]


def import_seconds():
    """Time to import numpy and the package in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                           capture_output=True, text=True, check=True, timeout=120)
    return float(probe.stdout)


def set_up(workload, base_seed, warm_seed, obs, reference):
    """One set-up round: the import, input generation and one uncounted
    warm-up request.  Returns (seconds, warm-up request)."""
    imported = import_seconds()
    start = time.perf_counter()
    workload.prepare(base_seed, extra_seeds=[warm_seed])
    (warm,) = run_requests(workload, [warm_seed], obs, reference)
    return imported + time.perf_counter() - start, warm


def write_spans(spans, path):
    with open(path, "w") as fh:
        fh.write("index,name,start_s,end_s,parent,seed\n")
        for i, span in enumerate(spans):
            fh.write(f"{i},{span.name},{span.start!r},{span.end!r},{span.parent},"
                     f"{span.request}\n")


def failures(requests):
    return sum(1 for r in requests if r.problems)


def tail(times):
    """Highest nearest-rank percentile with TAIL_BEYOND requests above it,
    falling back to the maximum.  A run of at least 2 * TAIL_BLOCK
    requests is cut into consecutive blocks of at least TAIL_BLOCK, and the
    median of the blocks' tails is kept, so that one stall of the machine
    sets the tail of one block only.  Returns (value, percentile of the
    smallest block, its size, blocks)."""
    blocks = max(1, len(times) // TAIL_BLOCK)
    edges = [len(times) * b // blocks for b in range(blocks + 1)]
    values = []
    for lo, hi in zip(edges, edges[1:]):
        block = sorted(times[lo:hi])
        values.append(block[-1 - TAIL_BEYOND] if len(block) > TAIL_BEYOND else block[-1])
    size = len(times) // blocks
    beyond = TAIL_BEYOND if size > TAIL_BEYOND else 0
    return statistics.median(values), 100.0 * (size - beyond) / size, size, blocks


def end_to_end(timed, setup_s):
    times = [r.seconds for r in timed]
    n = len(times)
    rates = [r.rate for r in timed if r.rate is not None]
    value, pct, size, blocks = tail(times)
    print(f"seed_ms_tail is the p{pct:.1f} of {size} requests"
          + (f", median over {blocks} blocks" if blocks > 1 else ""))
    return {
        "seeds_per_s": n / sum(times),
        "seed_ms_p50": 1e3 * statistics.median(times),
        "seed_ms_tail": 1e3 * value,
        "mean_rate_bits": statistics.fmean(rates) if rates else 0.0,
        "success_share": (n - failures(timed)) / n,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas, "blas_threads": blas_threads(),
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu": cpu}


def benchmark(workload, args, reference):
    """One run: set-up, the timed loop and, with args.trace, the traced
    repeat of the same seeds.  Returns (result line, run description)."""
    warm_seed = min(s for s, r in reference.items() if r is not None)
    obs = Observations()
    with Hooks(obs):
        setups = [set_up(workload, args.seed, warm_seed, obs, reference)
                  for _ in range(SETUP_REPEATS)]
        seconds = args.seconds / 2 if args.trace else args.seconds
        timed = run_requests(workload, workload.seeds(), obs, reference,
                             deadline=time.perf_counter() + seconds)
    requests = timed
    if args.trace:
        recorder = Recorder()
        with Hooks(obs, recorder):
            traced = run_requests(workload, [r.seed for r in timed], obs, reference,
                                  recorder=recorder)
        for first, second in zip(timed, traced):
            if first.output != second.output:
                second.problems.append(f"seed {first.seed}: output differs between two runs")
        requests = timed + traced

    warm = [w for _, w in setups]
    run_problems = [p for w in warm for p in w.problems]
    if len({w.output for w in warm}) != 1:
        run_problems.append(f"seed {warm_seed}: output differs between set-up rounds")
    if not any(r.rate is not None for r in timed):
        run_problems.append("no request had a feasible draw")

    setup_s = statistics.median(t for t, _ in setups)
    if args.trace:
        overhead = sum(r.seconds for r in traced) / sum(r.seconds for r in timed) - 1.0
        csv_bytes = sum(len(r.output) for r in traced) if workload.writes_csv else 0
        values = layer_metrics(recorder.spans, len(traced), csv_bytes, overhead)
        specs = metric_specs("per_layer")
        spans_path = WORK / f"spans-{workload.name}-{args.seed}.csv"
        write_spans(recorder.spans, spans_path)
    else:
        values = end_to_end(timed, setup_s)
        specs = metric_specs("end_to_end")
    problems = run_problems + [p for r in requests for p in r.problems]
    for p in problems[:10]:
        print(f"check failed: {p}", file=sys.stderr)
    info = {"workload": workload.name, "base_seed": args.seed, "trace": args.trace,
            "requests": len(requests), "distinct_seeds": len({r.seed for r in requests}),
            "warmup_seed": warm_seed, "setup_repeats": SETUP_REPEATS}
    if args.trace:
        info["spans"] = str(spans_path.relative_to(ROOT))
    return {
        "correct": not problems,
        "attempted": len(requests),
        "failed": failures(requests),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in specs},
    }, info
