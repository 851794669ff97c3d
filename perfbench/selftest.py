#!/usr/bin/env python3
"""Self-tests of the benchmark (not of mirigs).  Run from the checkout root:

    python3 perfbench/selftest.py

They check that BENCHMARK.json keeps to its format, that inputs are a pure
function of the seed, that a planted wrong answer is counted as a failure
on every workload, and that the traced run records a span or count for
every wrapped layer on the workload meant to exercise it.
"""

from __future__ import annotations

import json
import re
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import child  # noqa: E402
import gen  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from mirigs import monoid, subsemigroups, triples  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
# Few operations per workload keep the suite short.
SMALL_OPS = {"words": 52, "arith": 40, "census": 7, "crosscheck": 200}


def load(workload: str, seed: int = 0):
    w = workloads.WORKLOADS[workload](json.loads(gen.encode(gen.generate(workload, seed))))
    w.precompute()
    return w


def failures(workload: str) -> int:
    w = load(workload)
    out = child.run_loop(w, ops=SMALL_OPS[workload])
    return w.check(out["ops"], out["answers"]).count(False)


class Planted:
    """Temporarily replace a module attribute."""

    def __init__(self, owner, name, value):
        self.owner, self.name, self.value = owner, name, value

    def __enter__(self):
        self.saved = getattr(self.owner, self.name)
        setattr(self.owner, self.name, self.value)

    def __exit__(self, *exc):
        setattr(self.owner, self.name, self.saved)


class BenchmarkFileTest(unittest.TestCase):
    def setUp(self):
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
            self.spec = json.load(handle)

    def test_keys_and_names(self):
        self.assertEqual(
            set(self.spec),
            {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        )
        names = []
        for w in self.spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
            names.append(w["name"])
        for m in self.spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
            names.append(m["name"])
        for m in self.spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for m in self.spec["end_to_end"] + self.spec["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        for name in names:
            self.assertIsNotNone(NAME.fullmatch(name), name)
        self.assertEqual(len(names), len(set(names)))
        self.assertEqual(
            [w["name"] for w in self.spec["workloads"]], list(gen.GENERATORS)
        )
        self.assertIn("setup_s", [m["name"] for m in self.spec["end_to_end"]])

    def test_tracer_metrics_are_declared(self):
        declared = {m["name"] for m in self.spec["per_layer"]}
        produced = set(tracing.Tracer().metrics()) | set(tracing.CACHES)
        self.assertLessEqual(produced, declared)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for workload in gen.GENERATORS:
            self.assertEqual(
                gen.encode(gen.generate(workload, 7)), gen.encode(gen.generate(workload, 7))
            )
            distinct = {gen.encode(gen.generate(workload, seed)) for seed in range(6)}
            self.assertGreater(len(distinct), 1, workload)

    def test_seed_only_renames(self):
        """Two seeds give the same arith expressions up to a renaming of
        the generators, and the same word pairs up to a renaming of the
        letters."""
        def renaming(xs, ys):
            image = {}
            return all(image.setdefault(x, y) == y for x, y in zip(xs, ys)) and len(
                set(image.values())) == len(image)

        a, b = gen.generate("arith", 1)["ops"], gen.generate("arith", 2)["ops"]
        self.assertTrue(renaming("".join(o["expr"] for o in a), "".join(o["expr"] for o in b)))
        a, b = gen.generate("words", 1)["rounds"], gen.generate("words", 2)["rounds"]
        flat = lambda rounds: "".join(p["u"] + p["v"] for rnd in rounds for p in rnd)  # noqa: E731
        self.assertTrue(renaming(flat(a), flat(b)))

    def test_rendered_expressions_parse_back(self):
        from mirigs.expressions import Add, Const, Gen, parse_expression

        def lower(node):
            if isinstance(node, Gen):
                return ["g", node.index]
            if isinstance(node, Const):
                return ["c", node.value]
            op = "+" if isinstance(node, Add) else "*"
            return [op, lower(node.left), lower(node.right)]

        for op in load("arith").ops[:200]:
            self.assertEqual(lower(parse_expression(op["expr"])), op["tree"])


class PlantedFaultTest(unittest.TestCase):
    def test_clean_runs_pass(self):
        for workload in ("words", "arith", "crosscheck"):
            self.assertEqual(failures(workload), 0, workload)

    def test_words(self):
        with Planted(monoid, "tree_of_word", lambda w: monoid.LEAF):
            self.assertGreater(failures("words"), 0)

    def test_arith(self):
        with Planted(triples, "triple_add", triples.triple_mul):
            self.assertGreater(failures("arith"), 0)

    def test_census(self):
        with Planted(subsemigroups, "count_replete", lambda n: 18031):
            self.assertGreater(failures("census"), 0)

    def test_crosscheck(self):
        with Planted(triples, "normalize_thicket", lambda f: triples.zero(f.n)):
            self.assertGreater(failures("crosscheck"), 0)

    def test_raising_operation_counts(self):
        def boom(*args):
            raise RuntimeError("planted")

        with Planted(triples, "eval_expression", boom):
            self.assertEqual(failures("arith"), SMALL_OPS["arith"])


class TraceTest(unittest.TestCase):
    def test_every_layer_is_exercised(self):
        by_workload = {}
        for name, workload in tracing.EXERCISED_BY.items():
            by_workload.setdefault(workload, []).append(name)
        for workload, names in by_workload.items():
            tracer = tracing.Tracer()
            w = load(workload)
            tracer.install()
            try:
                child.run_loop(w, ops=SMALL_OPS[workload], tracer=tracer)
            finally:
                tracer.uninstall()
            self.assertFalse(tracer.absent)
            metrics = tracer.metrics()
            for name in names:
                self.assertGreater(metrics[f"{name}.calls"], 0, f"{name} on {workload}")
                if name in tracing.SPANNED:
                    self.assertIn(name, {span[3] for span in tracer.spans}, name)
            self.assertEqual(sum(metrics[f"{layer}.errors"] for layer in tracing.LAYERS), 0)

    def test_uninstall_restores_bindings(self):
        before = (monoid.tree_product, triples.close_under_product,
                  subsemigroups.RepleteSubsemigroup.__dict__["from_trees"])
        tracer = tracing.Tracer()
        tracer.install()
        self.assertIsNot(monoid.tree_product, before[0])
        tracer.uninstall()
        after = (monoid.tree_product, triples.close_under_product,
                 subsemigroups.RepleteSubsemigroup.__dict__["from_trees"])
        self.assertEqual(before, after)

    def test_spans_beyond_the_cap_are_counted(self):
        tracer = tracing.Tracer()
        with Planted(tracing, "SPANS_PER_NAME", 2):
            for _ in range(5):
                tracer.open("monoid.tree_product")
                tracer.close()
        self.assertEqual(len(tracer.spans), 2)
        self.assertEqual(tracer.dropped, {"monoid.tree_product": 3})
        self.assertEqual(tracer.metrics()["monoid.tree_product.calls"], 5)

    def test_missing_cache_is_absent(self):
        with Planted(monoid, "_product_cache", None):
            sizes = tracing.cache_sizes()
        self.assertNotIn("monoid.product_cache_entries", sizes)
        self.assertIn("monoid.interned_nodes", sizes)


class LatencyTest(unittest.TestCase):
    def test_tail_percentile(self):
        stats = child.latency_stats([float(i) for i in range(1, 101)], 90.0)
        self.assertEqual((stats["tail_s"], stats["tail_beyond"]), (90.0, 10))

    def test_input_times(self):
        times = child.input_times(["a", "b", "a", "b", "c", "a"], [3.0, 2.0, 1.0, 4.0, 5.0, 9.0])
        self.assertEqual(times, {"a": 3.0, "b": 3.0, "c": 5.0})

    def test_tail_percentile_is_fixed_by_the_inputs(self):
        """Each workload's tail is the highest listed percentile with
        TAIL_BEYOND inputs beyond it, or the slowest input when there are
        too few inputs for that."""
        listed = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
        for name in workloads.WORKLOADS:
            w = load(name)
            count = w.key_count
            beyond = [count - child.tail_rank(count, pct) for pct in listed]
            fit = [pct for pct, b in zip(listed, beyond) if b >= child.TAIL_BEYOND]
            self.assertEqual(w.tail_pct, fit[-1] if fit else 100.0, name)

    def test_timed_run_covers_every_input(self):
        """A timed run that reaches --seconds before every distinct input
        has run goes on until each has."""

        class Quick(workloads.Workload):
            name = "quick"
            pool = 9

            def run(self, i):
                return i

        out = child.run_loop(Quick(), seconds=0.0)
        self.assertEqual(out["keys"], list(range(Quick.pool)))

    def test_timed_run_favours_cheap_inputs(self):
        """An input four times cheaper than another runs about twice as
        often in a timed run."""

        class Uneven(workloads.Workload):
            name = "uneven"
            pool = 2

            def run(self, i):
                end = time.thread_time() + (0.004 if i else 0.001)
                while time.thread_time() < end:
                    pass
                return i

        out = child.run_loop(Uneven(), seconds=0.2)
        ratio = out["keys"].count(0) / out["keys"].count(1)
        self.assertTrue(1.5 < ratio < 2.7, ratio)


if __name__ == "__main__":
    unittest.main()
