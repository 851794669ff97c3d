#!/usr/bin/env python3
"""Recompute every exact census the library knows and print them as tables.

Usage: python scripts/census.py [--max-n 3]

Each row stops at its own census limit: at --max-n 4 the replete, grouped
free-mirig and variant rows reach n = 4 (a few seconds each), while the
triples strategy stops at n = 3, as it lists the right systems.  The
per-family profile is printed for the 3-generator monoid only: at n = 4
its 2480 families fall into 184 classes under renaming of the letters, too
many rows to read.
"""

import argparse
import itertools
import time
from collections import Counter

from mirigs.monoid import MAX_MONOID_COUNT_N, count_free_monoid, mask_members
from mirigs.subsemigroups import (
    MAX_CENSUS_N,
    MAX_ENUMERATION_N,
    MAX_UNIFORM_N,
    count_replete,
    count_replete_bounded_height,
    count_uniform,
    right_system_histograms,
)
from mirigs.triples import (
    MAX_BOUNDS_N,
    VARIANTS,
    count_characteristic_variant,
    count_free_mirig,
    mirig_upper_bounds,
)


def family_profile(n):
    """Replete subsemigroups without the trivial tree, grouped by canonical
    alphabet family: R(fam)**2 of them on each family (see
    right_system_histograms)."""
    counts = Counter()
    for fam, hist in right_system_histograms(n):
        best = min(
            tuple(sorted(sum(1 << perm[g] for g in mask_members(m)) for m in fam))
            for perm in itertools.permutations(range(n))
        )
        counts[best] += sum(hist.values()) ** 2
    return counts


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--max-n", type=int, default=3)
    args = parser.parse_args()
    top = args.max_n
    # Each row stops at its own census limit.
    census_top = min(top, MAX_CENSUS_N)

    print("free idempotent monoid sizes:")
    print("  ", [count_free_monoid(n) for n in range(min(top, MAX_MONOID_COUNT_N) + 1)])

    print("inhabited uniform subsemigroups:")
    print("  ", [count_uniform(n) for n in range(min(top, MAX_UNIFORM_N) + 1)])

    print("replete subsemigroups (and height-bounded closed forms):")
    t0 = time.time()
    totals = [count_replete(n) for n in range(census_top + 1)]
    print("  ", totals, f"({time.time()-t0:.2f}s)")
    for n in range(census_top + 1):
        print(f"   n={n}: h<=2 {count_replete_bounded_height(n, 2)}, h<=3 {count_replete_bounded_height(n, 3)}")

    print(f"replete subsemigroups of the {MAX_ENUMERATION_N}-generator monoid, by alphabet family:")
    profile = family_profile(MAX_ENUMERATION_N)
    for fam, count in sorted(profile.items(), key=lambda kv: (len(kv[0]), kv[0])):
        names = ",".join("{" + "".join(chr(97 + g) for g in mask_members(m)) + "}" for m in fam)
        print(f"   {{{names}}}: {count}")

    print("free mirig sizes (grouped | dominated-set strategies):")
    for n in range(census_top + 1):
        values, times = [], []
        # The dominated-set strategy lists the right systems.
        for strategy in ("grouped", "triples")[: 2 if n <= MAX_ENUMERATION_N else 1]:
            t0 = time.perf_counter()
            values.append(str(count_free_mirig(n, strategy)))
            times.append(f"{time.perf_counter() - t0:.3f}s")
        values += ["-"] * (2 - len(values))
        times += ["-"] * (2 - len(times))
        print(f"   n={n}: {values[0]} | {values[1]}  ({times[0]} | {times[1]})")

    print("upper bounds (crude, refined):")
    print("  ", [mirig_upper_bounds(n) for n in range(min(top, MAX_BOUNDS_N) + 1)])

    print("characteristic variants:")
    for variant in VARIANTS:
        values = [count_characteristic_variant(n, variant) for n in range(census_top + 1)]
        print(f"   {variant}: {values}")


if __name__ == "__main__":
    main()
