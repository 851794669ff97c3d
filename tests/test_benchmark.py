"""Smoke test of the benchmark: one short run of a workload must end in a
result line.

perfbench/run.py reports its result as the last stdout line (see
perfbench/README.md), so a run that prints anything after it, or fails a
workload, gives no result.  Each of the four workloads that
BENCHMARK.json declares is run: words runs `parse_word` and
`tree_of_word`, arith the path-system closures, census the catalogue and
straggler-option bitsets, and crosscheck normalization and evaluation
against the expansion graph."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["words", "arith", "census", "crosscheck"])
def test_run_ends_in_a_result_line(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert isinstance(result, dict)
    assert result["correct"] is True
    assert result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    for metric in declared:
        value = result["metrics"][metric["name"]]["value"]
        assert math.isfinite(value) and value > 0, metric["name"]
