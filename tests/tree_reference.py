"""Reference routes that the library's faster code is tested against.

`parse_word` reads a word one character at a time, where
`mirigs.monoid.parse_word` translates a word of in-range letters a..z in
one pass.

`grf` finds the Green-Rees decomposition letter by letter, tracking the
generators seen so far in a bitmask, where `mirigs.monoid.grf` finds it
with `bytes.find` and `bytes.rfind` searches, given the letters in order
of first occurrence.  `tree_of_word` recurses with
this `grf` on the prefix and suffix of every decomposition without
remembering a subword it has seen, so it makes about 2^|alphabet| calls;
`mirigs.monoid.tree_of_word` decomposes each distinct subword once.

The triple arithmetic and normalization here is tree-level: it expands S
into explicit trees, closes tree sets with
`close_under_product`/`replete_closure_trees`, and re-derives the paths
with `RepleteSubsemigroup.from_trees`, where `mirigs.triples` works on path
systems.

The censuses here walk every replete S that `enumerate_replete` lists and
add up a term per S, where `mirigs.triples` counts from one histogram per
alphabet family.  `right_systems` filters the whole product of the
per-layer catalogues, where `mirigs.subsemigroups._right_systems`
backtracks and checks each catalogue entry with one AND of path bitsets.  `upward_closed_families` scans all 2^(2^n) families of
subsets, and `upsets_top_down` decides the subsets one by one from the top
down, where `mirigs.triples` builds the up-sets by recursion on n.

`close_right` re-meets every pair of a layer with every suffix after each
growth, and `close_rights` alternates a star closure with it until neither
adds a path, where `mirigs.subsemigroups.close_bits` meets each new path
once with the paths before it under both rules, as bitsets over one
numbering of the paths, reading star products from a table.

`carrier_summary`, `sum_stragglers_by_alphabets` and
`product_stragglers_by_alphabets` read a triple's carrier from its path
and alphabet sets: a straggler of a sum is one whose alphabet holds no
alphabet of the other summand, and one of a product is one whose alphabet
holds the union of exactly one pair in the list of all unions of two
carrier alphabets, where `mirigs.triples` reads the carrier from one
cached int summary and counts the alphabets below a union in a subset
table.

`closed_path_sets` scans every subset of a layer's paths and keeps the
closed ones, where `mirigs.subsemigroups.closed_path_sets` generates them
by closing a closed set with one more path at a time.

`_d_configs` works out each S's straggler options from scratch, testing
every star product for membership in a set of paths, where
`mirigs.triples` shares each side's options between the S with the same
path system on that side and tests them as ANDs of path bitsets.

`union_closed_families` scans every subset of the masks, where the
library decides the masks in order with the unions they force.
`histogram_by_listing` counts the right systems that
`mirigs.subsemigroups._right_systems` lists, and `histogram_by_closure`
keeps each choice of the whole catalogue product whose paths the replete
closure leaves as they are, where `right_system_histograms` counts by a
sum-product over each family's co-atoms.  `straggler_subset_sum` adds up
the straggler choices set by set, where the library multiplies one factor
per layer.

`is_left_factor`, `is_right_factor` and `sample_triples` are helpers that
only the tests use; `sample_triples` draws its dominated sets from the
library's `mirigs.triples.enumerate_dominated`, so a change of its order
shows in the pin of the sample.

All are slower than the library code, most of them exponentially, and are
kept for tests only.
"""

import functools
import itertools
import math
import random
from collections import Counter

from mirigs.errors import CapacityError, ParseError
from mirigs.monoid import (
    LEAF,
    Tree,
    lmp,
    mask_members,
    mask_of,
    mask_size,
    node,
    rmp,
    star_left,
    star_right,
    tree_product,
    word_alphabet,
)
from mirigs.subsemigroups import (
    RepleteSubsemigroup,
    _right_systems,
    alphabet_family,
    bits_of,
    close_bits,
    closed_path_set_bits,
    close_under_product,
    enumerate_replete,
    layer_of,
    path_class_size,
    replete_closure_trees,
)
from mirigs.quotients import N22
from mirigs.thickets import Thicket, apparity_by_alphabet
from mirigs import triples
from mirigs.triples import (
    ComplementaryTriple,
    _check_same,
    _trees_with_paths,
    zero,
)


def parse_word(text, n=None):
    if text == "1":
        return ()
    out = []
    for off, ch in enumerate(text):
        idx = ord(ch) - ord("a")
        if not 0 <= idx < 26:
            raise ParseError(f"invalid word character {ch!r}", off)
        if n is not None and idx >= n:
            raise ValueError(f"generator {ch!r} out of range for n={n}")
        out.append(idx)
    return tuple(out)


def grf(w):
    """(p, a, b, q) with w ~ p a b q, p the maximal prefix missing exactly a
    and q the maximal suffix missing exactly b."""
    if not w:
        raise ValueError("the empty word has no Green-Rees decomposition")
    # p ends just before the first occurrence of the last generator to appear.
    seen = 0
    total = word_alphabet(w)
    for i, x in enumerate(w):
        if seen | (1 << x) == total and not seen & (1 << x):
            p, a = w[:i], x
            break
        seen |= 1 << x
    # q starts just after the last occurrence of the first generator to vanish.
    seen = 0
    for j in range(len(w) - 1, -1, -1):
        x = w[j]
        if seen | (1 << x) == total and not seen & (1 << x):
            q, b = w[j + 1:], x
            break
        seen |= 1 << x
    return p, a, b, q


def tree_of_word(w):
    if not w:
        return LEAF
    p, a, b, q = grf(w)
    return node(tree_of_word(p), a, b, tree_of_word(q))


def close_right(paths) -> frozenset:
    """Least within-layer-closed superset of equal-support right paths."""
    ps = set(paths)
    grew = True
    while grew:
        grew = False
        for rho, tau in itertools.product(list(ps), repeat=2):
            for j in range(1, len(tau) + 1):
                q = star_right(rho, tau[j - 1:])
                if q not in ps:
                    ps.add(q)
                    grew = True
    return frozenset(ps)


def _mirror(paths) -> frozenset:
    return frozenset(p[::-1] for p in paths)


def close_left(paths) -> frozenset:
    return _mirror(close_right(_mirror(paths)))


def close_rights(paths, replete: bool) -> frozenset:
    """Star closure of a right path system, and with replete the
    within-layer closure too, each new path met with every path so far."""
    layers: dict[int, set] = {}
    for p in paths:
        layers.setdefault(mask_of(p), set()).add(p)
    frontier = [(a, p) for a, ps in layers.items() for p in ps]
    while True:
        while frontier:
            fresh = []
            for a, p in frontier:
                for b, qs in list(layers.items()):
                    if a == b:
                        continue
                    target = layers.setdefault(a | b, set())
                    for q in list(qs):
                        # star_right(x, y) is y when x's alphabet lies in y's.
                        pq = star_right(p, q) if a & ~b else q
                        qp = star_right(q, p) if b & ~a else p
                        for r in (pq, qp):
                            if r not in target:
                                target.add(r)
                                fresh.append((a | b, r))
            frontier = fresh
        if not replete:
            break
        for a, ps in layers.items():
            if a:
                frontier += [(a, p) for p in close_right(ps) - ps]
        if not frontier:
            break
        for a, p in frontier:
            layers[a].add(p)
    return frozenset(p for ps in layers.values() for p in ps)


def close_path_system(lefts, rights, replete: bool = False):
    return _mirror(close_rights(_mirror(lefts), replete)), close_rights(rights, replete)


def _triple(n: int, s_trees, d, odd) -> ComplementaryTriple:
    s = RepleteSubsemigroup.from_trees(n, s_trees, validate=False)
    return ComplementaryTriple(n, s, frozenset(d), frozenset(odd))


def normalize_thicket(f: Thicket) -> ComplementaryTriple:
    if f.rig != N22:
        raise ValueError("normalization expects quotient coefficients (2,2)")
    if f.is_zero():
        return zero(f.n)
    support = f.support()
    closed = close_under_product(support)
    family = alphabet_family(closed)
    minimal = {
        a for a in family if not any(b != a and b & a == b for b in family)
    }
    stragglers = set()
    for t, coeff in f.items():
        if coeff == 1 and t.alpha in minimal and len(layer_of(support, t.alpha)) == 1:
            stragglers.add(t)
    s_trees = replete_closure_trees(closed - stragglers)
    parity = apparity_by_alphabet(f)
    odd = {a for a, value in parity.items() if value % 2 == 1}
    return _triple(f.n, s_trees, stragglers, odd)


def _product_stragglers(c1, c2):
    left, right = c1.carrier(), c2.carrier()
    out = set()
    for t in c1.d:
        for u in c2.d:
            a = t.alpha | u.alpha
            if all(
                (s is t and v is u) or (s.alpha | v.alpha) & ~a
                for s in left
                for v in right
            ):
                out.add(tree_product(t, u))
    return out


def triple_mul(c1: ComplementaryTriple, c2: ComplementaryTriple) -> ComplementaryTriple:
    _check_same(c1, c2)
    left, right = c1.carrier(), c2.carrier()
    products = {tree_product(s, v) for s in left for v in right}
    stragglers = _product_stragglers(c1, c2)
    # The stragglers stay lonely on minimal alphabets, so they can be split
    # off only after the pairwise products are closed up.
    s_trees = replete_closure_trees(close_under_product(products) - stragglers)
    odd = set()
    for a1 in c1.odd:
        for a2 in c2.odd:
            odd ^= {a1 | a2}
    return _triple(c1.n, s_trees, stragglers, odd)


def triple_add(c1: ComplementaryTriple, c2: ComplementaryTriple) -> ComplementaryTriple:
    _check_same(c1, c2)
    left, right = c1.carrier(), c2.carrier()
    stragglers = {
        t for t in c1.d if all(v.alpha & ~t.alpha for v in right)
    } | {
        u for u in c2.d if all(s.alpha & ~u.alpha for s in left)
    }
    s_trees = replete_closure_trees(close_under_product(left | right) - stragglers)
    return _triple(c1.n, s_trees, stragglers, c1.odd ^ c2.odd)


def carrier_summary(c: ComplementaryTriple) -> tuple[bool, int, int, int]:
    lefts, rights = c.s.paths()
    for t in c.d:
        lefts |= {lmp(t)}
        rights |= {rmp(t)}
    return (
        () in rights,
        bits_of(p[::-1] for p in lefts if p),
        bits_of(p for p in rights if p),
        sum(1 << a for a in c.alphabet_masks()),
    )


def sum_stragglers_by_alphabets(c1, c2):
    m1, m2 = c1.alphabet_masks(), c2.alphabet_masks()
    return {
        t for t in c1.d if all(b & ~t.alpha for b in m2)
    } | {
        u for u in c2.d if all(b & ~u.alpha for b in m1)
    }


def product_stragglers_by_alphabets(c1, c2):
    joint = [a1 | a2 for a1 in c1.alphabet_masks() for a2 in c2.alphabet_masks()]
    out = set()
    for t in c1.d:
        for u in c2.d:
            a = t.alpha | u.alpha
            if sum(1 for b in joint if not b & ~a) == 1:
                out.add(tree_product(t, u))
    return out


def _family_masks(s):
    return frozenset(mask for mask, _, _ in s.layers)


@functools.lru_cache(maxsize=None)
def closed_path_sets(mask: int) -> tuple[frozenset, ...]:
    """All inhabited within-layer-closed sets of right paths on an alphabet
    of at most 3 letters, by a scan of every subset of its paths."""
    members = tuple(mask_members(mask))
    if len(members) > 3:
        raise CapacityError("path-set catalogue supported for alphabets of size <= 3")
    perms = list(itertools.permutations(members))
    bits = [bits_of([p]) for p in perms]
    out = []
    for r in range(1, len(perms) + 1):
        for combo in itertools.combinations(range(len(perms)), r):
            b = sum(bits[k] for k in combo)
            if close_bits(b, replete=True) == b:
                out.append(frozenset(perms[k] for k in combo))
    return tuple(sorted(out, key=lambda s: (len(s), sorted(s))))


def right_systems(family):
    if not family:
        yield {}
        return
    catalogs = [closed_path_sets(mask) for mask in family]
    for choice in itertools.product(*catalogs):
        system = dict(zip(family, choice))
        ok = True
        for a in family:
            for b in family:
                if a == b:
                    continue
                target = system[a | b]
                if not all(
                    star_right(p, q) in target for p in system[a] for q in system[b]
                ):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            yield system


def count_replete(n):
    return sum(1 for _ in enumerate_replete(n))


def is_left_factor(s: Tree, t: Tree) -> bool:
    """True iff t = s * t' for some t', i.e. s*t = t."""
    return tree_product(s, t) is t


def is_right_factor(s: Tree, t: Tree) -> bool:
    """True iff t = t' * s for some t', i.e. t*s = t."""
    return tree_product(t, s) is t


def union_closed_families(n):
    """Every union-closed family of nonempty alphabets over [n], by a scan
    of all subsets of the masks, in the order of the library's."""
    masks = range(1, 1 << n)
    return [
        frozenset(combo)
        for r in range(len(masks) + 1)
        for combo in itertools.combinations(masks, r)
        if all(a | b in combo for a in combo for b in combo)
    ]


def indexed_systems(family):
    """The library's right systems (_right_systems), each as a dict mask ->
    path set, with its path bits."""
    entries = [[target for target, _, _ in closed_path_set_bits(mask)] for mask in family]
    return [
        ({mask: layer[e] for mask, layer, e in zip(family, entries, index)}, bits)
        for index, bits in _right_systems(family)
    ]


def _minimal_masks(family):
    return [a for a in family if not any(b != a and b & a == b for b in family)]


def histogram_by_listing(family):
    """H[X] over the right systems that _right_systems lists, X being the
    minimal layers that hold one path."""
    minimal = _minimal_masks(family)
    return Counter(
        frozenset(a for a in minimal if len(system[a]) == 1)
        for system, _ in indexed_systems(family)
    )


def histogram_by_closure(family):
    """H[X] over the whole product of the per-layer catalogues, keeping a
    choice iff the replete star closure of its paths adds none: a right
    system is a choice of closed path set per layer that is closed under
    cross-layer products."""
    minimal = _minimal_masks(family)
    catalogs = [closed_path_set_bits(mask) for mask in family]
    out = Counter()
    for choice in itertools.product(*catalogs):
        union = 0
        for _, own, _ in choice:
            union |= own
        if close_bits(union, replete=True) == union:
            out[frozenset(a for a, (target, _, _) in zip(family, choice) if a in minimal and len(target) == 1)] += 1
    return out


def sample_triples(n: int, count: int, seed: int = 0) -> list[ComplementaryTriple]:
    """Random triples, for property tests at sizes where exhaustion is out."""
    rng = random.Random(seed)
    semis = list(enumerate_replete(n))
    out = []
    while len(out) < count:
        s = rng.choice(semis)
        ds = list(triples.enumerate_dominated(s))
        d = rng.choice(ds)
        d_masks = frozenset(t.alpha for t in d)
        extra = frozenset(a for a in s.alphabet_masks() if rng.random() < 0.5)
        out.append(ComplementaryTriple(n, s, d, d_masks | extra))
    return out




def _minimal_single_path_masks(s):
    family = _family_masks(s)
    out = []
    for mask, lp, rp in s.layers:
        if len(lp) == 1 == len(rp) and not any(
            b != mask and b & mask == b for b in family
        ):
            out.append(mask)
    return out


def straggler_subset_sum(singles, layers: int, base: int) -> int:
    """Sum, over the sets e of minimal single-path layers (the masks in
    singles) that stragglers stand in for, of the straggler choices on e
    times base ** (the number of layers of S outside e), set by set."""
    total = 0
    for r in range(len(singles) + 1):
        for e in itertools.combinations(singles, r):
            q = math.prod(path_class_size(mask_size(a)) ** 2 for a in e)
            total += base ** (layers - r) * q
    return total


def _straggler_sum(s, base):
    return straggler_subset_sum(_minimal_single_path_masks(s), len(s.layers), base)


def count_free_mirig_grouped(n):
    return sum(
        3 * 2 ** len(s.layers) + _straggler_sum(s, 2)
        for s in enumerate_replete(n)
        if not s.unit
    )


def count_variant_21(n):
    return sum(2 + _straggler_sum(s, 1) for s in enumerate_replete(n) if not s.unit)


def count_variant_12(n):
    return 3 * sum(2 ** len(s.layers) for s in enumerate_replete(n) if not s.unit)


def upward_closed_families(n):
    masks = list(range(1 << n))
    for r in range(len(masks) + 1):
        for combo in itertools.combinations(masks, r):
            fam = frozenset(combo)
            if all(
                b in fam
                for a in fam
                for b in masks
                if a & b == a
            ):
                yield fam


def upsets_top_down(n):
    """The up-sets of the Boolean lattice on n atoms, by backtracking over
    its subsets from the full one down: a subset may join only when every
    one-atom extension of it already has."""
    size = 1 << n
    out = []

    def decide(a, members):
        if a < 0:
            out.append(frozenset(members))
            return
        decide(a - 1, members)
        if all(a | 1 << i in members for i in range(n) if not a >> i & 1):
            members.add(a)
            decide(a - 1, members)
            members.remove(a)

    decide(size - 1, set())
    return out


def _d_mask_candidates(s):
    family = _family_masks(s)
    out = []
    for a in range(1, 1 << s.n):
        if a in family:
            continue
        if any(b & a == b for b in family if b != a):
            continue  # a strict subset is present, so a could not be minimal
        if any(a | b not in family for b in family):
            continue  # some product would land on a missing alphabet
        out.append(a)
    return out


def _compatible_paths(star, paths_of, a: int) -> list:
    """Paths on alphabet a whose star products with every path of S, in
    either order, stay among S's paths on the joint alphabet."""
    return [
        rho
        for rho in itertools.permutations(mask_members(a))
        if all(
            star(rho, sigma) in paths_of[a | b] and star(sigma, rho) in paths_of[a | b]
            for b, ps in paths_of.items()
            for sigma in ps
        )
    ]


def _joint_assignments(star, paths_of, masks, options):
    """Assignments mask -> path, one option per straggler alphabet, whose
    pairwise star products stay among S's paths."""
    out = []
    for combo in itertools.product(*options):
        assign = dict(zip(masks, combo))
        if all(
            star(assign[a], assign[b]) in paths_of[a | b]
            and star(assign[b], assign[a]) in paths_of[a | b]
            for a, b in itertools.combinations(masks, 2)
        ):
            out.append(assign)
    return out


def _d_configs(s):
    """Yield (masks, left-path assignment, right-path assignment) for every
    nonempty straggler alphabet configuration dominated by s."""
    if s.unit:
        return
    family = _family_masks(s)
    lp_of = {mask: frozenset(lp) for mask, lp, _ in s.layers}
    rp_of = {mask: frozenset(rp) for mask, _, rp in s.layers}
    # Per candidate alphabet, the (leftmost, rightmost) paths a straggler may
    # have so that all its products with S stay inside S.
    options = {
        a: (_compatible_paths(star_left, lp_of, a), _compatible_paths(star_right, rp_of, a))
        for a in _d_mask_candidates(s)
    }
    candidates = [a for a, (lefts, rights) in options.items() if lefts and rights]
    for r in range(1, len(candidates) + 1):
        for masks in itertools.combinations(candidates, r):
            if any(
                (a & b) in (a, b) or (a | b) not in family
                for a, b in itertools.combinations(masks, 2)
            ):
                continue
            left_assigns = _joint_assignments(
                star_left, lp_of, masks, [options[a][0] for a in masks]
            )
            right_assigns = _joint_assignments(
                star_right, rp_of, masks, [options[a][1] for a in masks]
            )
            for la in left_assigns:
                for ra in right_assigns:
                    yield masks, la, ra


def count_dominated(s):
    """Number of sparse sets dominated by s."""
    total = 1  # the empty set
    if s.unit:
        return total
    total += 1  # the trivial tree alone
    for masks, _, _ in _d_configs(s):
        total += math.prod(path_class_size(mask_size(a)) ** 2 for a in masks)
    return total


def enumerate_dominated(s):
    yield frozenset()
    if s.unit:
        return
    yield frozenset({LEAF})
    for masks, la, ra in _d_configs(s):
        per_mask = [_trees_with_paths(la[a], ra[a]) for a in masks]
        for choice in itertools.product(*per_mask):
            yield frozenset(choice)
