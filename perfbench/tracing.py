"""Per-layer tracing from outside the library.

During a traced run only, `install` replaces the module-level bindings
through which one mirigs layer calls the next with wrappers that record a
span (name, start, end, parent span, operation id) and count calls,
errors and a few layer-specific quantities.  `uninstall` puts the
original objects back.  Nothing under src/ is edited.

A span's self time is its duration minus the time its child spans cover.
A function that calls itself through its own binding (tree_of_word,
tree_product) gets one span per outermost call; the inner calls pass
straight through.  Aggregates cover every call.  The raw spans are kept
in memory, the first SPANS_PER_NAME of each name, and written out when
the run ends; the number dropped is reported per name.  (One traced arith
run makes millions of outermost tree_product calls.)

A binding that a later version of the library renames or removes is
skipped and its metrics are reported as absent.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import Counter

clock = time.perf_counter
SPANS_PER_NAME = 10_000

# Metric name -> modules whose binding of the function is wrapped.  A
# "Class.attr" entry wraps a class attribute of the first module.
SPANNED = {
    "expressions.parse_expression": ("parse_expression", ("triples", "expressions")),
    "monoid.tree_of_word": ("tree_of_word", ("monoid", "thickets")),
    "monoid.tree_product": ("tree_product", ("monoid", "subsemigroups", "triples", "thickets")),
    "subsemigroups.close_under_product": ("close_under_product", ("subsemigroups", "triples")),
    "subsemigroups.replete_closure_trees": ("replete_closure_trees", ("subsemigroups", "triples")),
    "subsemigroups.from_trees": ("RepleteSubsemigroup.from_trees", ("subsemigroups",)),
    "subsemigroups.enumerate_replete": ("enumerate_replete", ("subsemigroups", "triples")),
    "triples.count_dominated": ("count_dominated", ("triples",)),
    "triples.triple_add": ("triple_add", ("triples",)),
    "triples.triple_mul": ("triple_mul", ("triples",)),
    "triples.normalize_thicket": ("normalize_thicket", ("triples",)),
    "thickets.parse_thicket": ("parse_thicket", ("thickets",)),
    "oracle.thicket_components": ("thicket_components", ("oracle",)),
    "oracle.same_component": ("ExpansionGraph.same_component", ("oracle",)),
}
# Counted only: no span, so the caller's self time keeps this work.
COUNTED = {
    "monoid.grf": ("grf", ("monoid",)),
}
# The workload whose traced run must exercise each wrapped name.
EXERCISED_BY = {
    "expressions.parse_expression": "arith",
    "monoid.tree_of_word": "words",
    "monoid.grf": "words",
    "monoid.tree_product": "arith",
    "subsemigroups.close_under_product": "arith",
    "subsemigroups.replete_closure_trees": "arith",
    "subsemigroups.from_trees": "arith",
    "subsemigroups.enumerate_replete": "census",
    "triples.count_dominated": "census",
    "triples.triple_add": "arith",
    "triples.triple_mul": "arith",
    "triples.normalize_thicket": "crosscheck",
    "thickets.parse_thicket": "crosscheck",
    "oracle.thicket_components": "crosscheck",
    "oracle.same_component": "crosscheck",
}
LAYERS = ("expressions", "monoid", "subsemigroups", "thickets", "triples", "oracle")
# Cache sizes read after a workload: metric -> (module, attributes summed).
CACHES = {
    "monoid.interned_nodes": ("monoid", ("_node_cache",)),
    "monoid.product_cache_entries": ("monoid", ("_product_cache",)),
    "subsemigroups.closure_cache_entries": (
        "subsemigroups",
        ("_product_closure_cache", "_replete_closure_cache"),
    ),
}


def _module(short: str):
    return importlib.import_module(f"mirigs.{short}")


def cache_sizes() -> dict:
    """Current cache sizes; a cache that is gone or has no length is left out."""
    out = {}
    for metric, (short, attrs) in CACHES.items():
        try:
            module = _module(short)
        except ImportError:
            continue
        sizes = []
        for attr in attrs:
            try:
                sizes.append(len(getattr(module, attr)))
            except (AttributeError, TypeError):
                pass
        if sizes:
            out[metric] = sum(sizes)
    return out


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, self_s]
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.stack: list[list] = []  # open spans: [name, start, child_s, span_id]
        self.spans: list[tuple] = []
        self.dropped: Counter = Counter()
        self.op = 0
        self._next_id = 0
        self._seen: dict[str, set] = {}
        self._restore: list[tuple] = []
        self.absent: set[str] = set()

    # -- spans -----------------------------------------------------------

    def open(self, name: str) -> None:
        self._next_id += 1
        self.stack.append([name, clock(), 0.0, self._next_id])

    def close(self) -> None:
        end = clock()
        name, start, child, span_id = self.stack.pop()
        duration = end - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0]
        st[0] += 1
        st[1] += duration - child
        parent = 0
        if self.stack:
            top = self.stack[-1]
            top[2] += duration
            parent = top[3]
        if st[0] <= SPANS_PER_NAME:
            self.spans.append((self.op, span_id, parent, name, start, end))
        else:
            self.dropped[name] += 1

    def exclude(self, seconds: float) -> None:
        """Charge tracer bookkeeping to no layer's self time."""
        if self.stack:
            self.stack[-1][2] += seconds

    def repeated(self, name: str, key) -> bool:
        seen = self._seen.setdefault(name, set())
        if key in seen:
            return True
        seen.add(key)
        return False

    # -- wrappers --------------------------------------------------------

    def _spanned(self, name: str, fn, observe=None):
        tracer = self
        layer = name.split(".", 1)[0]
        depth = 0

        def wrapper(*args, **kwargs):
            nonlocal depth
            if depth:
                return fn(*args, **kwargs)
            depth += 1
            tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer.errors[layer] += 1
                raise
            finally:
                tracer.close()
                depth -= 1
            if observe is not None:
                t0 = clock()
                observe(args, out)
                tracer.exclude(clock() - t0)
            return out

        return wrapper

    def _spanned_generator(self, name: str, fn):
        tracer = self
        layer = name.split(".", 1)[0]

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                tracer.open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                except BaseException:
                    tracer.errors[layer] += 1
                    raise
                finally:
                    tracer.close()
                tracer.counts[f"{name}.yielded"] += 1
                yield item

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts
        key = f"{name}.calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _closure_observer(self, name: str, out_trees: bool):
        def observe(args, out):
            trees = args[0]
            key = trees if isinstance(trees, frozenset) else frozenset(trees)
            if self.repeated(name, key):
                self.counts[f"{name}.repeats"] += 1
            if out_trees:
                self.counts[f"{name}.out_trees"] += len(out)

        return observe

    def _size_observer(self, args, out) -> None:
        self.counts["triples.result_s_trees"] += out.s.size()

    def _observer(self, name: str):
        if name == "subsemigroups.close_under_product":
            return self._closure_observer(name, out_trees=True)
        if name == "subsemigroups.replete_closure_trees":
            return self._closure_observer(name, out_trees=False)
        if name in ("triples.triple_add", "triples.triple_mul"):
            return self._size_observer
        return None

    def _bind(self, name: str, attr: str, modules, make) -> None:
        """Install one wrapper at every binding of attr in the given modules."""
        cls_name, _, fn_name = attr.rpartition(".")
        targets = []
        for short in modules:
            try:
                owner = _module(short)
                if cls_name:
                    owner = getattr(owner, cls_name)
                raw = inspect.getattr_static(owner, fn_name)
            except (ImportError, AttributeError):
                continue
            targets.append((owner, fn_name, raw))
        if not targets:
            self.absent.add(name)
            return
        owner, fn_name, raw = targets[0]
        is_static = isinstance(raw, staticmethod)
        wrapped = make(raw.__func__ if is_static else raw)
        for owner, fn_name, raw in targets:
            self._restore.append((owner, fn_name, raw))
            setattr(owner, fn_name, staticmethod(wrapped) if is_static else wrapped)

    def install(self) -> None:
        for name, (attr, modules) in SPANNED.items():
            if name == "subsemigroups.enumerate_replete":
                make = lambda fn, name=name: self._spanned_generator(name, fn)  # noqa: E731
            else:
                make = lambda fn, name=name: self._spanned(name, fn, self._observer(name))  # noqa: E731
            self._bind(name, attr, modules, make)
        for name, (attr, modules) in COUNTED.items():
            self._bind(name, attr, modules, lambda fn, name=name: self._counted(name, fn))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    # -- results ---------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics; names whose binding was missing are left out."""
        out = {}
        for name in SPANNED:
            if name in self.absent:
                continue
            calls, self_s = self.stats.get(name, (0, 0.0))
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        for name in COUNTED:
            if name not in self.absent:
                out[f"{name}.calls"] = self.counts[f"{name}.calls"]
        for name in ("subsemigroups.close_under_product", "subsemigroups.replete_closure_trees"):
            if name in self.absent:
                continue
            calls = out[f"{name}.calls"]
            out[f"{name}.repeat_ratio"] = self.counts[f"{name}.repeats"] / calls if calls else 0.0
        if "subsemigroups.close_under_product" not in self.absent:
            out["subsemigroups.close_under_product.out_trees"] = self.counts[
                "subsemigroups.close_under_product.out_trees"
            ]
        if "subsemigroups.enumerate_replete" not in self.absent:
            out["subsemigroups.enumerate_replete.yielded"] = self.counts[
                "subsemigroups.enumerate_replete.yielded"
            ]
        if not {"triples.triple_add", "triples.triple_mul"} & self.absent:
            out["triples.result_s_trees"] = self.counts["triples.result_s_trees"]
        for layer in LAYERS:
            out[f"{layer}.errors"] = self.errors[layer]
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for op, span_id, parent, name, start, end in self.spans:
                handle.write(
                    json.dumps(
                        {"op": op, "id": span_id, "parent": parent, "name": name,
                         "start": start, "end": end}
                    )
                    + "\n"
                )
