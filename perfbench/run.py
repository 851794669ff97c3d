#!/usr/bin/env python3
"""The mirigs benchmark.  Run from the root of a checkout:

    python3 perfbench/run.py --workload words --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1

Generates the workload's inputs from --seed, then starts fresh worker
processes (child.py) that import mirigs from this checkout's src/:

  --trace 0  one warm-up and SETUP_SAMPLES set-up-only processes, then timed
             processes (one, or fixed passes on PASS_OPS workloads) until
             --seconds of loop time: the end-to-end metrics of BENCHMARK.json;
  --trace 1  the first TRACE_OPS[workload] operations twice, untraced and
             traced, each in its own process: the per-layer metrics of
             BENCHMARK.json and the tracing overhead.

Prints a readable report, then, as the last line, one JSON object with the
keys correct, attempted, failed and metrics.  Exits non-zero, printing no
result, when a worker fails, overruns the time budget, or mirigs is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from child import input_times, latency_stats  # noqa: E402
from gen import CENSUS_KINDS, encode, generate  # noqa: E402
from tracing import SPANS_PER_NAME  # noqa: E402

WORKLOADS = ("words", "arith", "census", "crosscheck")
SETUP_SAMPLES = 9
# Workloads whose timed run is a series of fixed passes, each in a fresh
# worker, until --seconds of loop time have passed.  An arith operation gets
# cheaper as the closure caches fill over the first five or so rounds, so in
# one long loop a run that got further would also measure cheaper
# operations; a fixed pass from cold caches makes every run measure the
# same work.  A pass is the whole input pool.
PASS_OPS = {"arith": 200}
# Operations of the traced run and of its untraced twin: one pass on the
# PASS_OPS workloads, elsewhere the whole rounds a 20-second timed run
# completed when the benchmark was defined, so that the per-layer figures
# describe the same phase of the caches as the timed run.  Fixed, so that
# the traced counts repeat exactly for a given seed.
TRACE_OPS = {**PASS_OPS, "words": 208, "census": 56, "crosscheck": 68000}
RUN_BUDGET_S = 170.0
# The median time of child.speed_probe on the machine where the benchmark was
# defined (Intel Xeon vCPU at 2.1 GHz, Python 3.11).
PROBE_REF_S = 0.83e-3
# A fixed hash seed gives every worker the same set and dict orders, so a
# given seed repeats the same work down to the order of tree products.
WORKER_ENV = {**os.environ, "PYTHONHASHSEED": "0"}


class RunFailed(Exception):
    pass


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(workload: str, inputs: Path, deadline: float, *extra: str) -> tuple[dict, float]:
    """Run one worker to completion; returns its JSON result and the
    monotonic time at which it was started."""
    argv = [sys.executable, str(HERE / "child.py"), "--workload", workload,
            "--inputs", str(inputs), *extra]
    started = monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, env=WORKER_ENV, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunFailed(f"{workload}: worker overran the {RUN_BUDGET_S:.0f} s budget") from None
    if proc.returncode != 0 or not out.strip():
        raise RunFailed(f"{workload}: worker exited with {proc.returncode}\n{err.strip()}")
    return json.loads(out.strip().splitlines()[-1]), started


def declared_metrics() -> tuple[dict, dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def end_to_end(workload: str, inputs: Path, seconds: float, deadline: float) -> tuple[dict, dict]:
    spawn(workload, inputs, deadline, "--mode", "setup")  # warm the bytecode cache
    setups = []
    for _ in range(SETUP_SAMPLES):
        res, started = spawn(workload, inputs, deadline, "--mode", "setup")
        setups.append(res["ready"] - started)
    workers = []
    while not workers or sum(w["wall_s"] for w in workers) < seconds:
        if monotonic() > deadline:
            raise RunFailed(f"{workload}: overran the {RUN_BUDGET_S:.0f} s budget")
        if workload in PASS_OPS:
            mode = ("--mode", "fixed", "--ops", str(PASS_OPS[workload]))
        else:
            mode = ("--mode", "timed", "--seconds", str(seconds))
        res, started = spawn(workload, inputs, deadline, *mode)
        setups.append(res["ready"] - started)
        workers.append(res)
    times = input_times([k for w in workers for k in w["keys"]], [x for w in workers for x in w["lat"]])
    if len(times) != workers[0]["key_count"]:
        raise RunFailed(f"{workload}: {len(times)} of {workers[0]['key_count']} inputs ran")
    lat = latency_stats(list(times.values()), workers[0]["tail_pct"])
    result = {key: sum(w[key] for w in workers) for key in ("attempted", "failed", "raised")}
    result["errors"] = [e for w in workers for e in w["errors"]][:5]
    wall_s = sum(w["wall_s"] for w in workers)
    # Loop times at the reference speed: scaled by how much slower than on
    # the reference machine the speed probe ran, in the median, between the
    # operations.
    scale = PROBE_REF_S / statistics.median(x for w in workers for x in w["probes"])
    raw = {
        "ops_per_s": len(times) / sum(times.values()),
        "latency_p50_ms": 1000.0 * lat["p50_s"],
        "latency_tail_ms": 1000.0 * lat["tail_s"],
    }
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": raw["ops_per_s"] / scale,
        "latency_p50_ms": raw["latency_p50_ms"] * scale,
        "latency_tail_ms": raw["latency_tail_ms"] * scale,
        "peak_rss_mb": max(w["peak_rss_mb"] for w in workers),
    }
    notes = {
        "scale": f"loop times scaled to the reference speed by {scale:.4g}; as measured: "
        + ", ".join(f"{name} {x:.6g}" for name, x in raw.items()),
        "tail": f"latency_tail_ms is p{lat['tail_pct']:g} of the median times of {lat['samples']} "
        f"inputs ({lat['tail_beyond']} beyond it), from {result['attempted']} operations",
        "wall": f"wall-clock rate {(result['attempted'] - result['raised']) / wall_s:.6g} "
        f"operations/s over {wall_s:.1f} s of loops",
        "setup": f"setup_s is the median of {len(setups)} process starts",
        "workers": f"{len(workers)} timed worker(s)",
    }
    return values, {"result": result, "notes": notes}


def per_layer(workload: str, inputs: Path, deadline: float, seed: int) -> tuple[dict, dict]:
    ops = str(TRACE_OPS[workload])
    plain, _ = spawn(workload, inputs, deadline, "--mode", "fixed", "--ops", ops)
    spans = ROOT / ".bench_build" / "perfbench" / f"spans-{workload}-{seed}.jsonl"
    traced, _ = spawn(workload, inputs, deadline, "--mode", "fixed", "--ops", ops, "--trace-out", str(spans))
    values = dict(traced["layers"])
    values.setdefault("oracle.components", 0)
    for kind in CENSUS_KINDS:
        values[f"triples.count.{kind}_s"] = plain["kind_median_s"].get(kind, 0.0)
    untraced_rate = plain["attempted"] / plain["wall_s"]
    traced_rate = traced["attempted"] / traced["wall_s"]
    values["trace.untraced_ops_per_s"] = untraced_rate
    values["trace.traced_ops_per_s"] = traced_rate
    values["trace.overhead_ratio"] = untraced_rate / traced_rate
    result = {
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "raised": plain["raised"] + traced["raised"],
        "errors": plain["errors"] + traced["errors"],
    }
    dropped = traced["spans_dropped"]
    notes = {
        "trace": f"{ops} operations untraced and traced; {traced['spans_kept']} spans "
        f"in {spans.relative_to(ROOT)}",
        "dropped": f"spans dropped beyond the first {SPANS_PER_NAME} of a name: "
        + (", ".join(f"{name} {n}" for name, n in sorted(dropped.items())) or "none"),
        "absent": "bindings not found: " + (", ".join(traced["absent"]) or "none"),
    }
    return values, {"result": result, "notes": notes}


def run_workload(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    e2e_units, layer_units = declared_metrics()
    units = layer_units if trace else e2e_units
    out_dir = ROOT / ".bench_build" / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    inputs = out_dir / f"inputs-{workload}-{seed}.json"
    inputs.write_bytes(encode(generate(workload, seed)))
    try:
        if trace:
            values, info = per_layer(workload, inputs, deadline, seed)
        else:
            values, info = end_to_end(workload, inputs, seconds, deadline)
    finally:
        inputs.unlink()
    res = info["result"]
    missing = sorted(set(units) - set(values))
    if trace == 0 and missing:
        raise RunFailed(f"{workload}: no value for {', '.join(missing)}")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units if name in values}
    attempted, failed = res["attempted"], res["failed"]

    print(f"== {workload} (seed {seed}, {'traced' if trace else 'untraced'})")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  fail_ratio = {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for note in info["notes"].values():
        print(f"  {note}")
    if missing:
        print(f"  absent: {', '.join(missing)}")
    for err in res["errors"]:
        print(f"  error: {err}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "mirigs" / "__init__.py").is_file():
        print(f"no mirigs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = monotonic() + RUN_BUDGET_S
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            if args.workload == "all":  # each workload gets its own budget
                deadline = monotonic() + RUN_BUDGET_S
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, deadline)
    except RunFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
