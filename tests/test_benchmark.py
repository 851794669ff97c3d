"""Smoke test of the benchmark: one short run of a workload must end in a
result line.

perfbench/run.py reports its result as the last stdout line (see
perfbench/README.md), so a run that prints anything after it, or fails a
workload, gives no result.  Each of the four workloads that
BENCHMARK.json declares is run: words runs `parse_word` and
`tree_of_word`, arith the path-system closures, census the catalogue and
straggler-option bitsets, and crosscheck normalization and evaluation
against the expansion graph.

One traced run of words must also end in a result line, with the
per-layer counts of `tree_of_word` and of the `grf` decompositions it
makes through the module binding that perfbench/tracing.py wraps."""

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


def test_traced_words_run_counts_the_decompositions():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "words", "--seed", "1", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    metrics = result["metrics"]
    assert metrics["monoid.grf.calls"]["value"] > 0
    assert metrics["monoid.tree_of_word.calls"]["value"] > 0
    assert metrics["monoid.errors"]["value"] == 0
