"""Each benchmark workload runs end to end in a short traced run.

The traced half wraps every layer binding perfbench/spans.py lists and
checks each request's outputs and exact work counts (objective terms,
eigensolver calls), so a refactor that drops a wrapped name or changes a
count fails here and not only when the benchmark runs.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["compare-jd2", "alloc-jd4", "bounds"])
def test_workload_runs_correctly(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "2", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
