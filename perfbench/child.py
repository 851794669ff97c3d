"""One workload process: import mirigs, load the inputs, run the timed loop,
then check every answer.  Started by run.py, one fresh process per
measurement; prints one JSON line on stdout.

Modes:
  setup    stop as soon as the first operation could be sent;
  timed    share --seconds among the distinct inputs (see run_loop);
  fixed    run --ops operations, in whole rounds (an arith pass, the traced
           run and its untraced twin).

The process caps its own address space, and in timed mode an interval
timer fails the operation in flight once the loop overruns by GRACE_S, so
a blow-up shows as a counted failure instead of a hang or an out-of-memory
kill.  A fixed-mode worker that hangs is killed by run.py at its deadline,
and the run fails.
"""

from __future__ import annotations

import argparse
import heapq
import json
import math
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

ADDRESS_SPACE_CAP = 2 << 30  # bytes
GRACE_S = 60.0
PROBE_EVERY_S = 0.1  # operation time between two bursts of speed probes
PROBE_BURST = 3
TAIL_BEYOND = 10  # inputs the tail percentile should keep beyond it
ROOT = Path(__file__).resolve().parent.parent


def monotonic() -> float:
    """System-wide monotonic clock, comparable with the parent's readings."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout("operation overran the run deadline")


def tail_rank(count: int, tail_pct: float) -> int:
    """1-based nearest rank of the tail percentile among count values."""
    return min(count, max(1, math.ceil(count * tail_pct / 100.0)))


def input_times(keys: list, lat: list[float]) -> dict:
    """The median time of each distinct input."""
    times: dict = {}
    for key, seconds in zip(keys, lat):
        times.setdefault(key, []).append(seconds)
    return {key: statistics.median(xs) for key, xs in times.items()}


def latency_stats(lat: list[float], tail_pct: float) -> dict:
    """Median and the workload's tail percentile (nearest rank)."""
    ordered = sorted(lat)
    count = len(ordered)
    rank = tail_rank(count, tail_pct)
    return {
        "samples": count,
        "p50_s": statistics.median(ordered),
        "tail_s": ordered[rank - 1],
        "tail_pct": tail_pct,
        "tail_beyond": count - rank,
    }


# The speed probe's data: built once, so the probe allocates nothing and
# the state of the program's heap does not reach it.
_PROBE_KEYS = [(i % 97, i * 7 % 13) for i in range(2000)]
_PROBE_TABLE = dict.fromkeys(_PROBE_KEYS, 1)


def speed_probe() -> float:
    """Time a fixed piece of pure-Python work, about 0.8 ms in the median,
    that uses no mirigs code, on the thread's CPU clock: it tracks the
    speed the machine gives the worker."""
    t0 = time.thread_time()
    total = 0
    for _ in range(4):
        for key in _PROBE_KEYS:
            total += _PROBE_TABLE[key]
    return time.thread_time() - t0


def run_loop(workload, seconds=None, ops=None, tracer=None) -> dict:
    """Closed loop, one client: the next operation starts when the last ends.

    With --ops, runs operations 0, 1, 2, ... in whole rounds, so every run
    sees the same mix in the same order.  With --seconds, the next
    operation is on the distinct input with the least runs x time used so
    far, so that an input runs about in inverse proportion to the square
    root of its cost: between equal time for every input, which would
    leave the expensive inputs one or two runs, and equal runs, which
    would leave the cheap ones few.  Each input's runs spread over the
    whole run, and the run goes on past --seconds until every input has
    run.

    Latencies are read from the thread's CPU clock.  The worker has one
    thread and does no I/O inside an operation, so this is the operation's
    time minus the moments the machine ran something else: preemptions do
    not fill the tail.  The run's wall time is on the wall clock."""
    lat, kinds, keys, op_ids, answers, errors = [], [], [], [], [], []
    # (runs x time used, input): the first key_count operations are one of
    # each input.
    queue = [(0.0, i) for i in range(workload.key_count)]
    runs, used = [0] * workload.key_count, [0.0] * workload.key_count
    start = time.perf_counter()
    if seconds is not None:
        signal.setitimer(signal.ITIMER_REAL, seconds + GRACE_S)
    workload.prepare()
    n = 0
    probes, since_probe = [], 0.0
    while True:
        if seconds is not None:
            if time.perf_counter() - start >= seconds and n >= workload.key_count:
                break
            i = heapq.heappop(queue)[1]
        else:
            if n >= ops and n % workload.round_size == 0:
                break
            i = n
        if tracer is not None:
            tracer.op = n
        timed_out = False
        t0 = time.thread_time()
        try:
            answer = workload.run(i)
        except OpTimeout as exc:
            answer, timed_out = None, True
            errors.append(repr(exc))
        except Exception as exc:  # counted as a failed operation
            answer = None
            errors.append(repr(exc))
        lat.append(time.thread_time() - t0)
        if seconds is not None:
            runs[i] += 1
            used[i] += lat[-1]
            heapq.heappush(queue, (runs[i] * used[i], i))
        # PROBE_BURST probes per PROBE_EVERY_S of operation time, in bursts,
        # so that the later probes of a burst find the caches their own.
        since_probe += lat[-1]
        if since_probe >= PROBE_EVERY_S:
            bursts = int(since_probe / PROBE_EVERY_S)
            probes += [speed_probe() for _ in range(bursts * PROBE_BURST)]
            since_probe -= bursts * PROBE_EVERY_S
        kinds.append(workload.kind(i))
        keys.append(workload.key(i))
        op_ids.append(i)
        answers.append(answer)
        n += 1
        if timed_out:
            break
    wall = time.perf_counter() - start
    signal.setitimer(signal.ITIMER_REAL, 0)
    return {"lat": lat, "kinds": kinds, "keys": keys, "ops": op_ids, "answers": answers,
            "errors": errors, "wall_s": wall, "probes": probes}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "fixed"), required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--ops", type=int)
    parser.add_argument("--trace-out", help="write traced spans here (fixed mode only)")
    args = parser.parse_args()

    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))
    signal.signal(signal.SIGALRM, _on_alarm)

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import mirigs

    if not Path(mirigs.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"mirigs imported from {mirigs.__file__}, not from this checkout", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    tracer = None
    if args.trace_out:
        from tracing import Tracer

        tracer = Tracer()
    with open(args.inputs, encoding="utf-8") as handle:
        workload = WORKLOADS[args.workload](json.load(handle))
    ready = monotonic()
    if args.mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    workload.precompute()
    if tracer is not None:
        tracer.install()
    try:
        if args.mode == "timed":
            out = run_loop(workload, seconds=args.seconds)
        else:
            out = run_loop(workload, ops=args.ops, tracer=tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    rss = peak_rss_mb()  # before the checks, which allocate on their own

    result = {"ready": ready, "wall_s": out["wall_s"], "peak_rss_mb": rss}
    if tracer is not None:
        from tracing import cache_sizes

        result["layers"] = tracer.metrics()
        result["layers"].update(cache_sizes())
        if workload.name == "crosscheck" and workload.graph is not None:
            result["layers"]["oracle.components"] = workload.graph.component_count
        result["absent"] = sorted(tracer.absent)
        result["spans_kept"] = len(tracer.spans)
        result["spans_dropped"] = dict(tracer.dropped)
        tracer.write_spans(args.trace_out)

    verdicts = workload.check(out["ops"], out["answers"])
    result["attempted"] = len(verdicts)
    result["raised"] = sum(a is None for a in out["answers"])
    result["failed"] = verdicts.count(False)
    result["errors"] = out["errors"][:5]
    result["lat"] = out["lat"]
    result["keys"] = out["keys"]
    result["probes"] = out["probes"]
    result["key_count"] = workload.key_count
    result["tail_pct"] = workload.tail_pct
    per_kind: dict[str, list] = {}
    for kind, seconds in zip(out["kinds"], out["lat"]):
        per_kind.setdefault(kind, []).append(seconds)
    result["kind_median_s"] = {k: statistics.median(v) for k, v in per_kind.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
