"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see every line.  All
comparisons are exact.  Two criteria pin previously published constants that
this library's exact recomputation contradicts (see notes in the failing
assertions); those tests fail deliberately rather than loosening the pin.
"""

import random
import time

from mirigs.monoid import (
    all_trees,
    count_free_monoid,
    enumerate_trees,
    parse_word,
    tree_of_word,
)
from mirigs.oracle import sandwich_closure, stable_classes, thicket_components, word_closure
from mirigs.quotients import (
    campion_mirig,
    characteristic,
    free_idempotent_monoid_table,
    verify_rig_axioms,
)
from mirigs.subsemigroups import (
    closed_path_sets,
    count_replete,
    count_replete_bounded_height,
    is_replete,
    is_subsemigroup,
)
from mirigs.triples import (
    count_characteristic_variant,
    count_free_mirig,
    gen,
    mirig_upper_bounds,
    normalize_thicket,
    one,
    triple_canonical_thicket,
    triple_mul,
    zero,
)
from mirigs.verify import PINNED


def report(num, ok, detail):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_01_free_monoid_sizes():
    start = time.monotonic()
    sizes = [count_free_monoid(n) for n in range(4)]
    totals = [
        sum(len(enumerate_trees(mask)) for mask in range(1 << n)) for n in range(4)
    ]
    elapsed = time.monotonic() - start
    ok = sizes == PINNED["monoid sizes"] and totals == sizes and elapsed < 1.0
    assert report(1, ok, f"sizes {sizes}, enumeration totals agree, {elapsed:.2f}s")


def test_criterion_02_word_oracle_agreement():
    start = time.monotonic()
    ok = True
    for n in (1, 2, 3):
        plain = word_closure(n, 7)
        reference = sandwich_closure(n, 7)
        stable = stable_classes(plain, reference)
        ok = ok and bool(stable)
        fibers = {}
        for cls in plain.classes:
            tree = tree_of_word(next(iter(cls)))
            fibers.setdefault(tree, set()).update(cls)
        for pos in stable:
            cls = plain.classes[pos]
            ok = ok and cls == frozenset(fibers[tree_of_word(next(iter(cls)))])
        if n <= 2:
            ok = ok and len(stable) == len(plain.classes)
        # the strengthened reference itself agrees with the tree route in full
        for cls in reference.classes:
            ok = ok and len({tree_of_word(word) for word in cls}) == 1
        ok = ok and len(reference.classes) == len(fibers)
    joined = word_closure(3, 9).same_class(parse_word("abc"), parse_word("abcbabc"))
    elapsed = time.monotonic() - start
    ok = ok and joined and elapsed < 30.0
    assert report(2, ok, f"stable classes = tree fibers, abc~abcbabc: {joined}, {elapsed:.1f}s")


def test_criterion_03_subsemigroup_census():
    start = time.monotonic()
    trees2 = all_trees(2)
    subs = [
        frozenset(x for i, x in enumerate(trees2) if bits >> i & 1)
        for bits in range(1 << 7)
    ]
    subs = [s for s in subs if is_subsemigroup(s)]
    all_replete = all(is_replete(s) for s in subs)
    counts = [count_replete(n) for n in range(4)]
    formulas = (count_replete_bounded_height(3, 2), count_replete_bounded_height(3, 3))
    elapsed = time.monotonic() - start
    bounded = PINNED["height-bounded replete"]
    ok = (
        len(subs) == PINNED["subsemigroups of T_2"]
        and all_replete
        and counts == PINNED["replete counts"]
        and formulas == (bounded[3, 2], bounded[3, 3])
        and elapsed < 60.0
    )
    assert report(3, ok, f"42 subsemigroups all replete, counts {counts}, formulas {formulas}, {elapsed:.1f}s")


def test_criterion_04_path_sets():
    start = time.monotonic()
    count = len(closed_path_sets(0b111))
    elapsed = time.monotonic() - start
    ok = count == PINNED["closed path sets h=3"] and elapsed < 1.0
    assert report(4, ok, f"{count} inhabited closed path sets, {elapsed:.2f}s")


def test_criterion_05_free_mirig_counts():
    start = time.monotonic()
    grouped = [count_free_mirig(n, "grouped") for n in range(4)]
    dominated = [count_free_mirig(n, "triples") for n in range(4)]
    elapsed = time.monotonic() - start
    agree = grouped == dominated
    expected = PINNED["mirig sizes"]
    ok = agree and grouped == expected and elapsed < 300.0
    report(5, ok, f"grouped {grouped}, strategies agree: {agree}, {elapsed:.1f}s")
    # The n=3 pin is the previously published figure.  Both strategies here
    # recompute 515861, and a definition-level brute force agrees with the
    # per-subsemigroup dominated-set counts (see test_triples and the
    # project notes); the published accounting table contains two slips.
    assert agree and grouped[:3] == expected[:3] and elapsed < 300.0
    assert grouped == expected, (
        f"recomputed {grouped[3]} (both strategies) != published {expected[3]}"
    )


def test_criterion_06_thicket_oracle():
    start = time.monotonic()
    counts = [thicket_components(n).component_count for n in (1, 2)]
    graph = thicket_components(2)
    firsts, seconds = {}, {}
    for node, label in enumerate(graph.labels):
        if label not in firsts:
            firsts[label] = node
        elif label not in seconds:
            seconds[label] = node
    ok = counts == PINNED["mirig sizes"][1:3]
    for label, node in firsts.items():
        rep = normalize_thicket(graph.thicket_of_node(node))
        if label in seconds:
            ok = ok and rep == normalize_thicket(graph.thicket_of_node(seconds[label]))
    rng = random.Random(2024)
    for _ in range(10_000):
        i, j = rng.randrange(4 ** 7), rng.randrange(4 ** 7)
        same = graph.labels[i] == graph.labels[j]
        agrees = (
            normalize_thicket(graph.thicket_of_node(i))
            == normalize_thicket(graph.thicket_of_node(j))
        )
        ok = ok and same == agrees
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 600.0
    assert report(6, ok, f"components {counts}, full agreement with canonical forms, {elapsed:.1f}s")


def test_criterion_07_rig_axioms(c2_elements, c2_tables):
    start = time.monotonic()
    index, add, mul = c2_tables
    z, o = index[zero(2)], index[one(2)]
    two = add[o][o]
    three = add[two][o]
    four = add[two][two]
    rng = random.Random(77)
    size = len(c2_elements)
    violations = 0
    for _ in range(10_000):
        x, y, w = rng.randrange(size), rng.randrange(size), rng.randrange(size)
        checks = (
            add[add[x][y]][w] == add[x][add[y][w]],
            add[x][z] == x,
            add[z][x] == x,
            add[x][y] == add[y][x],
            mul[mul[x][y]][w] == mul[x][mul[y][w]],
            mul[x][o] == x,
            mul[o][x] == x,
            mul[x][z] == z,
            mul[z][x] == z,
            mul[x][add[y][w]] == add[mul[x][y]][mul[x][w]],
            mul[add[x][y]][w] == add[mul[x][w]][mul[y][w]],
            mul[x][x] == x,
        )
        violations += sum(not c for c in checks)
    constants_ok = two == four and two != o and three != o
    elapsed = time.monotonic() - start
    ok = violations == 0 and constants_ok
    assert report(7, ok, f"{violations} violations over 10^4 samples, 2=4 and 2,3!=1: {constants_ok}, {elapsed:.1f}s")


def test_criterion_08_canonical_roundtrip(c2_elements):
    start = time.monotonic()
    failures = [
        c for c in c2_elements if normalize_thicket(triple_canonical_thicket(c)) != c
    ]
    elapsed = time.monotonic() - start
    ok = len(c2_elements) == PINNED["mirig sizes"][2] and not failures
    assert report(8, ok, f"roundtrip exact on all 284 elements, {elapsed:.1f}s")


def test_criterion_09_noncommutativity():
    start = time.monotonic()
    ab = triple_mul(gen(0, 2), gen(1, 2))
    ba = triple_mul(gen(1, 2), gen(0, 2))
    rig = campion_mirig(free_idempotent_monoid_table(2))
    axioms = verify_rig_axioms(rig, require_mirig=True)
    elapsed = time.monotonic() - start
    ok = (
        ab != ba
        and (rig.size(), axioms.ok, axioms.commutative, characteristic(rig))
        == PINNED["monoid-adjunction mirig n=2"]
        and axioms.mirig
    )
    assert report(9, ok, f"ab != ba in the free mirig; 9-element noncommutative mirig, {elapsed:.2f}s")


def test_criterion_10_characteristic_variants():
    start = time.monotonic()
    expected = PINNED["variant counts"]
    computed = {
        v: [count_characteristic_variant(n, v) for n in range(4)] for v in expected
    }
    elapsed = time.monotonic() - start
    ok = computed == expected and elapsed < 120.0
    mismatches = {
        v: (computed[v], expected[v]) for v in expected if computed[v] != expected[v]
    }
    report(10, ok, f"variant counts, mismatches: {mismatches or 'none'}, {elapsed:.1f}s")
    rest_ok = all(computed[v] == expected[v] for v in ("11", "21", "02", "boolean_semiring"))
    assert rest_ok and computed["12"][:3] == expected["12"][:3] and elapsed < 120.0
    # The n=3 pin for characteristic (1,2) is the previously published figure;
    # the recomputation (320235, corroborated by an independent expansion-graph
    # oracle at n<=2 and by the published per-family table data itself) differs.
    assert computed == expected, (
        f"recomputed (1,2) count {computed['12'][3]} != published {expected['12'][3]}"
    )


def test_criterion_11_bounds():
    start = time.monotonic()
    bounds = (mirig_upper_bounds(1), mirig_upper_bounds(2))
    elapsed = time.monotonic() - start
    ok = list(bounds) == PINNED["mirig upper bounds"]
    assert report(11, ok, f"bounds {bounds}, {elapsed:.2f}s")
