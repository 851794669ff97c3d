"""The four workloads: one operation each, and a second route that checks
every answer after the timed window.

Each workload takes the generated inputs, and offers
  precompute()       harness work the operations need, measured nowhere,
  prepare()          work that belongs to the run but is no latency sample,
  run(i)             operation i (inputs are reused cyclically),
  check(answers)     one bool per answer, computed outside the timed window.
Operations call the library through the same public functions the CLI
calls: module attributes are looked up at call time, so the tracer's
wrappers see them.
"""

from __future__ import annotations

from mirigs import monoid, oracle, subsemigroups, thickets, triples


def thicket_of(e, n: int):
    """An expression tree from the generator ("+"/"*", l, r | "g", i | "c", k)
    evaluated as a formal sum of trees: the library's parser is not on this
    route."""
    op = e[0]
    if op == "g":
        return thickets.Thicket(n, {monoid.gen_tree(e[1]): 1})
    if op == "c":
        return thickets.Thicket(n, {monoid.LEAF: e[1]})
    left, right = thicket_of(e[1], n), thicket_of(e[2], n)
    return left + right if op == "+" else left * right


class Workload:
    round_size = 1
    # The tail percentile over the workload's distinct inputs (see key):
    # the highest of 50, 75, 90, 95, 99 and 99.9 with at least ten inputs
    # beyond it, or 100 (the slowest input) when there are too few inputs
    # for that.  The inputs are fixed, so the percentile is too.
    tail_pct = 50.0

    def precompute(self) -> None:
        pass

    def prepare(self) -> None:
        pass

    def kind(self, i: int) -> str:
        return self.name

    def key(self, i: int):
        """The distinct input operation i works on.  Latencies are taken
        per input: its median time in the run.  Operations 0 to
        key_count - 1 are one of each input."""
        return i % self.pool

    @property
    def key_count(self) -> int:
        return self.pool

    def check(self, ops: list[int], answers: list) -> list[bool]:
        """One verdict per answer of operation ops[n]; None marks an
        operation that raised.  A repeated input must repeat the answer of
        its first occurrence, which is checked in full."""
        first: dict[int, tuple] = {}
        verdicts = []
        for i, answer in zip(ops, answers):
            if answer is None:
                verdicts.append(False)
                continue
            j = i % self.pool
            if j in first:
                answer0, ok0 = first[j]
                ok = ok0 and self.same_answer(answer0, answer)
            else:
                try:
                    ok = self.check_one(j, answer)
                except Exception:  # a check that raises rejects the answer
                    ok = False
                first[j] = (answer, ok)
            verdicts.append(ok)
        return verdicts

    def same_answer(self, a, b) -> bool:
        return a == b


class Words(Workload):
    """word-eq: two words to trees, then the identity verdict."""

    name = "words"
    tail_pct = 75.0

    def __init__(self, inputs):
        self.pairs = [p for rnd in inputs["rounds"] for p in rnd]
        self.pool = len(self.pairs)
        # A fixed-count run covers every pair equally often.
        self.round_size = self.pool

    def kind(self, i):
        return self.pairs[i % self.pool]["family"]

    def run(self, i):
        p = self.pairs[i % self.pool]
        tu = monoid.tree_of_word(monoid.parse_word(p["u"]))
        tv = monoid.tree_of_word(monoid.parse_word(p["v"]))
        return tu is tv, tu, tv

    def check_one(self, j, answer) -> bool:
        p = self.pairs[j]
        equal, tu, tv = answer
        if equal != p["equal"]:
            return False
        uv = monoid.parse_word(p["u"] + p["v"])
        return monoid.tree_product(tu, tv) is monoid.tree_of_word(uv)

    def same_answer(self, a, b):
        return all(x is y for x, y in zip(a, b))


class Arith(Workload):
    """eval (and, for every fifth expression, eq against a rewrite) at n=3."""

    name = "arith"
    tail_pct = 95.0

    def __init__(self, inputs):
        self.n = inputs["n"]
        self.ops = inputs["ops"]
        self.pool = len(self.ops)
        self.round_size = inputs["round_size"]

    def run(self, i):
        op = self.ops[i % self.pool]
        c = triples.eval_expression(op["expr"], self.n)
        if "rewrite" not in op:
            return c, None
        return c, c == triples.eval_expression(op["rewrite"], self.n)

    def check_one(self, j, answer) -> bool:
        c, eq = answer
        if eq is False:
            return False
        f = thicket_of(self.ops[j]["tree"], self.n)
        return triples.normalize_thicket(f) == c


# The library's exact census values (README); 515861 and 320235 are the
# exact recomputations that contradict the published 510605 and 160389.
CENSUS_EXPECTED = {
    "free_mirig_grouped": 515861,
    "free_mirig_triples": 515861,
    "replete": 18030,
    "variant_11": 18030,
    "variant_21": 40601,
    "variant_12": 320235,
    "boolean_semiring": 319107,
}


def upset_weight_sum(n: int) -> int:
    """Sum of 2**|F| over the up-sets F of the Boolean lattice on n atoms,
    by brute force over all families of subsets."""
    size = 1 << n
    supersets = [sum(1 << b for b in range(size) if a & b == a) for a in range(size)]
    total = 0
    for fam in range(1 << size):
        members = [a for a in range(size) if fam >> a & 1]
        if all(supersets[a] & fam == supersets[a] for a in members):
            total += 1 << len(members)
    return total


class Census(Workload):
    """One exact census per operation, in a seeded order."""

    name = "census"
    tail_pct = 100.0

    def __init__(self, inputs):
        self.kinds = [k for rnd in inputs["rounds"] for k in rnd]
        self.round_size = len(inputs["rounds"][0])
        self.pool = len(self.kinds)
        self._upsets = None

    def kind(self, i):
        return self.kinds[i % self.pool]

    key = kind

    @property
    def key_count(self):
        return len(set(self.kinds))

    def run(self, i):
        kind = self.kinds[i % self.pool]
        if kind == "free_mirig_grouped":
            return triples.count_free_mirig(3, "grouped")
        if kind == "free_mirig_triples":
            return triples.count_free_mirig(3, "triples")
        if kind == "replete":
            return subsemigroups.count_replete(3)
        if kind == "boolean_semiring":
            return triples.count_characteristic_variant(4, "boolean_semiring")
        return triples.count_characteristic_variant(3, kind.removeprefix("variant_"))

    def check_one(self, j, answer) -> bool:
        kind = self.kinds[j]
        if kind == "boolean_semiring":
            if self._upsets is None:
                self._upsets = upset_weight_sum(4)
            if answer != self._upsets:
                return False
        return answer == CENSUS_EXPECTED[kind]


class Crosscheck(Workload):
    """Structure against the expansion-graph oracle at n=2."""

    name = "crosscheck"
    tail_pct = 99.0
    components = 284

    def __init__(self, inputs):
        self.n = inputs["n"]
        self.pairs = inputs["pairs"]
        self.pool = len(self.pairs)
        self.round_size = 2
        self.graph = None
        self.oracle_input: dict[int, tuple] = {}

    def precompute(self):
        """The expression pairs as thickets for the oracle, built by the
        harness from the generator's trees, not by the operation."""
        for j, p in enumerate(self.pairs):
            if p["kind"] == "expr":
                self.oracle_input[j] = tuple(thicket_of(e, self.n) for e in p["trees"])

    def kind(self, i):
        return self.pairs[i % self.pool]["kind"]

    def prepare(self):
        self.graph = oracle.thicket_components(self.n)

    def run(self, i):
        j = i % self.pool
        p = self.pairs[j]
        if p["kind"] == "thicket":
            f = thickets.parse_thicket(p["a"], self.n)
            g = thickets.parse_thicket(p["b"], self.n)
            equal = triples.normalize_thicket(f) == triples.normalize_thicket(g)
        else:
            equal = triples.eval_expression(p["a"], self.n) == triples.eval_expression(p["b"], self.n)
            f, g = self.oracle_input[j]
        return equal, self.graph.same_component(f, g)

    def check(self, ops, answers):
        if self.graph is None or self.graph.component_count != self.components:
            return [False] * len(answers)
        return super().check(ops, answers)

    def check_one(self, j, answer) -> bool:
        equal, same = answer
        return equal == same and (equal or not self.pairs[j]["same"])


WORKLOADS = {w.name: w for w in (Words, Arith, Census, Crosscheck)}
