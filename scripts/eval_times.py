#!/usr/bin/env python3
"""Time `eval` on the largest-alphabet cases: products of a sum of every
generator with a sum of monomials, whose closures reach most alphabets.

Usage: python scripts/eval_times.py

Each case runs in a fresh interpreter under a 1 GiB address-space limit,
so its time includes building the path tables from nothing and its peak
RSS is its own.  Cases past MAX_EVAL_N are left out.
"""

import json
import resource
import subprocess
import sys
import time

CASES = [
    (5, "(a+b+c+d+e)*(a*b+c*d+e)"),
    (5, "(a+b+c+d+e)*(a+b+c+d+e)"),
    (6, "(a+b+c+d+e+f)*(a*b+c*d+e*f)"),
]
ADDRESS_SPACE = 1 << 30  # bytes


def run_case(n: int, expr: str) -> None:
    from mirigs.triples import eval_expression

    start = time.perf_counter()
    eval_expression(expr, n)
    seconds = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    print(json.dumps({"seconds": seconds, "peak_rss_mb": peak_mb}))


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def main() -> int:
    from mirigs.triples import MAX_EVAL_N

    print(f"{'n':>2}  {'seconds':>8}  {'peak MB':>8}  expression")
    for n, expr in CASES:
        if n > MAX_EVAL_N:
            continue
        proc = subprocess.run(
            [sys.executable, __file__, "--case", str(n), expr],
            capture_output=True, text=True, timeout=120, preexec_fn=_limit_memory,
        )
        if proc.returncode != 0:
            print(f"{n:>2}  failed: {proc.stderr.strip()}")
            continue
        out = json.loads(proc.stdout)
        print(f"{n:>2}  {out['seconds']:>8.3f}  {out['peak_rss_mb']:>8.1f}  {expr}")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--case"]:
        run_case(int(sys.argv[2]), sys.argv[3])
    else:
        sys.exit(main())
