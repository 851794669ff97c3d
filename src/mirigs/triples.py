"""Complementary triples: exact canonical forms for free-mirig elements.

An element is written as (S, D, p): a replete subsemigroup S of trees, a
sparse set D of "straggler" trees dominated by S, and a parity function p
recording which per-alphabet coefficient sums are odd.  Addition and
multiplication act directly on triples; normalize_thicket sends any thicket
to the triple of its equivalence class.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import FrozenSet, Iterator, NamedTuple

from .errors import CapacityError
from .expressions import Add, Const, Gen, Node, max_generator, parse_expression
from .monoid import (
    LEAF,
    Tree,
    check_n,
    count_free_monoid,
    gen_tree,
    lmp,
    mask_size,
    node,
    parse_tree,
    render_tree,
    rmp,
    tree_product,
    trees_with_lmp,
    trees_with_rmp,
)
from .subsemigroups import (
    MAX_CENSUS_N,
    MAX_ENUMERATION_N,
    RepleteSubsemigroup,
    bit_numbers,
    bits_of,
    catalogue,
    close_bits,
    close_under_product,  # not called here; perfbench wraps it as triples.close_under_product
    count_replete,
    enumerate_replete,
    is_replete,
    is_subsemigroup,
    layer_of,
    path_class_size,
    path_numbering,
    paths_beside,
    family_histograms,
    right_systems_by_family,
    star_pair_bits,
    star_product_bits,
)
from .thickets import Thicket, apparity_by_alphabet
from .quotients import N22


@dataclass(frozen=True)
class ComplementaryTriple:
    n: int
    s: RepleteSubsemigroup
    d: FrozenSet[Tree]
    odd: FrozenSet[int]  # alphabets with odd coefficient sum, as bitmasks

    def s_trees(self) -> FrozenSet[Tree]:
        return self.s.trees()

    def carrier(self) -> FrozenSet[Tree]:
        return self.s_trees() | self.d

    def alphabet_masks(self) -> FrozenSet[int]:
        return self.s.alphabet_masks() | frozenset(t.alpha for t in self.d)

    @cached_property
    def summary(self) -> tuple[bool, int, int, int]:
        """The carrier as the arithmetic reads it: whether it holds the
        trivial tree, the bits (bits_of) of its left paths' mirror images
        and of its right paths, and its alphabets as a bitset, bit a set for
        each alphabet a of S's layers and D's stragglers.  Computed once per
        object and kept in its __dict__, outside the dataclass fields."""
        s = self.s
        lefts, rights = s.bits()
        unit = s.unit
        alphas = int(unit)
        for mask, _, _ in s.layers:
            alphas |= 1 << mask
        for t in self.d:
            alphas |= 1 << t.alpha
            if t.alpha:
                left, right = _extremal_bits(t)
                lefts |= left
                rights |= right
            else:
                unit = True
        return unit, lefts, rights, alphas

    def to_json(self) -> dict:
        return {
            "S": self.s.to_json(),
            "D": [render_tree(t) for t in sorted(self.d, key=Tree.sort_key)],
            "p": sorted(self.odd),
        }

    @staticmethod
    def from_json(data: dict) -> "ComplementaryTriple":
        s = RepleteSubsemigroup.from_json(data["S"])
        d = frozenset(parse_tree(t, s.n) for t in data["D"])
        return ComplementaryTriple(s.n, s, d, frozenset(data["p"]))


def _triple(n: int, unit: bool, d, odd) -> ComplementaryTriple:
    """A triple whose S holds at most the trivial tree."""
    s = RepleteSubsemigroup(n, unit, ())
    return ComplementaryTriple(n, s, frozenset(d), frozenset(odd))


def zero(n: int) -> ComplementaryTriple:
    return _triple(n, False, (), ())


def one(n: int) -> ComplementaryTriple:
    return _triple(n, False, {LEAF}, {0})


# Bound on the memo of generator triples, one per (generator, n): an
# expression's leaves share them, and so their cached summaries.
GEN_MEMO = 64


@lru_cache(maxsize=GEN_MEMO)
def gen(i: int, n: int) -> ComplementaryTriple:
    if not 0 <= i < n:
        raise ValueError(f"generator {i} out of range for n={n}")
    return _triple(n, False, {gen_tree(i)}, {1 << i})


def constant(k: int, n: int) -> ComplementaryTriple:
    if k < 0:
        raise ValueError("constants are natural numbers")
    if k == 0:
        return zero(n)
    if k == 1:
        return one(n)
    return _triple(n, True, (), {0} if k % 2 else ())


def validate_triple(c: ComplementaryTriple) -> None:
    """Raise ValueError unless (S, D, p) is a complementary triple."""
    s_trees = c.s_trees()
    if not is_replete(s_trees):
        raise ValueError("S is not replete")
    d_alphas = [t.alpha for t in c.d]
    for t, u in itertools.combinations(c.d, 2):
        if t.alpha & u.alpha in (t.alpha, u.alpha):
            raise ValueError("D is not sparse")
    s_alphas = c.s.alphabet_masks()
    if s_alphas & frozenset(d_alphas):
        raise ValueError("S and D share an alphabet")
    if not is_subsemigroup(s_trees | c.d):
        raise ValueError("S and D are not jointly product-closed")
    all_alphas = s_alphas | frozenset(d_alphas)
    for a in d_alphas:
        if any(b & a == b for b in all_alphas if b != a):
            raise ValueError("a straggler alphabet is not minimal")
    if not frozenset(d_alphas) <= c.odd:
        raise ValueError("parity must be odd on straggler alphabets")
    if not c.odd <= all_alphas:
        raise ValueError("parity is odd outside the carrier alphabets")


# ---------------------------------------------------------------------------
# Closing up: path systems -> triple
#
# The carrier of a sum or product, or a thicket's support, generates a
# product-closed tree set.  Its stragglers are the trees alone on a minimal
# alphabet, which no other tree reaches, so they are told apart by
# alphabets alone; the rest closes up to the least replete subsemigroup,
# which depends only on the path systems (see close_path_system).


# Bound on the memo of a tree's extremal-path bits: the stragglers that
# arithmetic meets are few and recur from operation to operation.
EXTREMAL_BITS_MEMO = 4096


@lru_cache(maxsize=EXTREMAL_BITS_MEMO)
def _extremal_bits(t: Tree) -> tuple[int, int]:
    """The bits of a nontrivial tree's leftmost path, mirrored, and of its
    rightmost path."""
    return bits_of([lmp(t)[::-1]]), bits_of([rmp(t)])


# Bound on the memo of replete parts: arithmetic and normalization repeat
# their closure inputs often.
REPLETE_PART_MEMO = 4096


@lru_cache(maxsize=REPLETE_PART_MEMO)
def _replete_part(n: int, unit: bool, lefts: int, rights: int, drop: int):
    """The least replete subsemigroup over the closure of the path systems
    (the trivial tree when unit, and the bits of the left paths' mirror
    images and of the right paths), less the layers on the alphabets in
    drop (bit a set for alphabet a)."""
    if drop:
        # The dropped layers take part in products before they are split off.
        layers = path_numbering(n).layer_bits
        keep = ~sum(layers[a] for a in bit_numbers(drop))
        lefts = close_bits(lefts, replete=False) & keep
        rights = close_bits(rights, replete=False) & keep
        unit = unit and not drop & 1
    return RepleteSubsemigroup.from_path_bits(
        n, unit, close_bits(lefts, replete=True), close_bits(rights, replete=True)
    )


def _close_up(n: int, unit: bool, lefts: int, rights: int, stragglers, odd) -> ComplementaryTriple:
    """The triple with the given stragglers and parity whose S closes up
    the path systems (as in _replete_part) without the straggler layers."""
    drop = 0
    for t in stragglers:
        drop |= 1 << t.alpha
    s = _replete_part(n, unit, lefts, rights, drop)
    return ComplementaryTriple(n, s, frozenset(stragglers), frozenset(odd))


# ---------------------------------------------------------------------------
# Normalization: thicket -> triple and triple -> canonical thicket


def normalize_thicket(f: Thicket) -> ComplementaryTriple:
    """The complementary triple of f's equivalence class.

    Works structurally: a coefficient-1 tree alone on a minimal alphabet can
    never participate in an expansion, so it is a straggler; everything else
    closes up to the replete subsemigroup, and per-alphabet coefficient
    parity is invariant.
    """
    if f.rig != N22:
        raise ValueError("normalization expects quotient coefficients (2,2)")
    if f.is_zero():
        return zero(f.n)
    layer_sizes: dict[int, int] = {}
    for t, _ in f.items():
        layer_sizes[t.alpha] = layer_sizes.get(t.alpha, 0) + 1
    stragglers = {
        t
        for t, coeff in f.items()
        if coeff == 1
        and layer_sizes[t.alpha] == 1
        and not any(b != t.alpha and b & t.alpha == b for b in layer_sizes)
    }
    parity = apparity_by_alphabet(f)
    odd = {a for a, value in parity.items() if value % 2 == 1}
    trees = [t for t, _ in f.items() if t.alpha]
    lefts = bits_of({lmp(t)[::-1] for t in trees})
    rights = bits_of({rmp(t) for t in trees})
    return _close_up(f.n, len(trees) < len(f.items()), lefts, rights, stragglers, odd)


def triple_canonical_thicket(c: ComplementaryTriple) -> Thicket:
    """The deterministic maximal thicket of a triple: stragglers get
    coefficient 1, replete trees get 2, and the least tree of an odd-parity
    layer gets bumped to 3."""
    validate_triple(c)
    coeffs = {t: 1 for t in c.d}
    s_trees = c.s_trees()
    for a in c.s.alphabet_masks():
        layer = sorted(layer_of(s_trees, a), key=Tree.sort_key)
        for t in layer:
            coeffs[t] = 2
        if a in c.odd:
            coeffs[layer[0]] = 3
    return Thicket(c.n, coeffs, N22)


# ---------------------------------------------------------------------------
# Arithmetic (operations on canonical forms)


def _check_same(c1, c2):
    if c1.n != c2.n:
        raise ValueError("triples over different generator counts")


# Bound on the memo of subset tables, one per generator count.
SUBSET_TABLE_MEMO = 16


@lru_cache(maxsize=SUBSET_TABLE_MEMO)
def _subset_table(n: int) -> tuple[int, ...]:
    """sub[a] has bit b set iff b is a subset of a, for every alphabet a on
    n letters: the subsets of a are those of a without its lowest letter,
    and the same with it added."""
    sub = [1]
    for a in range(1, 1 << n):
        low = a & -a
        below = sub[a ^ low]
        sub.append(below | below << low)
    return tuple(sub)


def _sum_stragglers(c1, c2):
    """The stragglers of c1 + c2: those of either summand whose alphabet
    holds no alphabet of the other's carrier."""
    sub = _subset_table(c1.n)
    m1, m2 = c1.summary[3], c2.summary[3]
    return {t for t in c1.d if not m2 & sub[t.alpha]} | {
        u for u in c2.d if not m1 & sub[u.alpha]
    }


def _product_stragglers(c1, c2):
    """The products t*u of stragglers t of c1 and u of c2 whose alphabet
    holds the product of no other pair of carrier trees.  S's layers and the
    stragglers all have distinct alphabets, so alphabets decide it: the
    pairs of carrier alphabets whose union lies in t.alpha | u.alpha number
    the alphabets of c1 in it times those of c2, and t and u make one pair."""
    if not (c1.d and c2.d):
        return set()
    sub = _subset_table(c1.n)
    m1, m2 = c1.summary[3], c2.summary[3]
    out = set()
    for t in c1.d:
        for u in c2.d:
            below = sub[t.alpha | u.alpha]
            if (m1 & below).bit_count() == 1 == (m2 & below).bit_count():
                out.add(tree_product(t, u))
    return out


def triple_mul(c1: ComplementaryTriple, c2: ComplementaryTriple) -> ComplementaryTriple:
    _check_same(c1, c2)
    u1, l1, r1, _ = c1.summary
    u2, l2, r2, _ = c2.summary
    # star_left(p, q) reversed is star_right(q reversed, p reversed).
    lefts = star_product_bits(u2, l2, u1, l1)
    rights = star_product_bits(u1, r1, u2, r2)
    odd = set()
    for a1 in c1.odd:
        for a2 in c2.odd:
            odd ^= {a1 | a2}
    return _close_up(c1.n, u1 and u2, lefts, rights, _product_stragglers(c1, c2), odd)


def triple_add(c1: ComplementaryTriple, c2: ComplementaryTriple) -> ComplementaryTriple:
    _check_same(c1, c2)
    u1, l1, r1, _ = c1.summary
    u2, l2, r2, _ = c2.summary
    return _close_up(
        c1.n, u1 or u2, l1 | l2, r1 | r2, _sum_stragglers(c1, c2), c1.odd ^ c2.odd
    )


# eval/eq answer within 1 GiB and 60 s (FORMATS.md) up to this many
# generators: at six, (a+...+f)*(a*b+c*d+e*f), whose S has 37 layers and
# 1878 left paths, takes about 1 s at 50 MB peak RSS, most of it the star
# table's 1956 rows (scripts/eval_times.py, 2-vCPU Xeon).  Seven letters number 13 699 paths,
# and their rows would take about 1.5 GB.
MAX_EVAL_N = 6


def eval_expression(expr, n: int) -> ComplementaryTriple:
    """Evaluate a rig expression (text or AST) in the free mirig on n generators."""
    check_n(n, MAX_EVAL_N, "expression evaluation")
    if isinstance(expr, str):
        expr = parse_expression(expr)
    if max_generator(expr) >= n:
        raise ValueError(f"expression uses a generator out of range for n={n}")

    def walk(e: Node) -> ComplementaryTriple:
        if isinstance(e, Const):
            return constant(e.value, n)
        if isinstance(e, Gen):
            return gen(e.index, n)
        # Fold a left-deep chain of one operator in a loop, so that long
        # flat sums and products do not recurse once per operand.
        kind = type(e)
        op = triple_add if kind is Add else triple_mul
        rights = []
        while type(e) is kind:
            rights.append(e.right)
            e = e.left
        out = walk(e)
        for right in reversed(rights):
            out = op(out, walk(right))
        return out

    return walk(expr)


# ---------------------------------------------------------------------------
# Enumeration of dominated straggler sets and of whole triples


class FamilyStragglers(NamedTuple):
    """The straggler alphabets a union-closed family admits, shared by
    every right system on it.  A candidate is an alphabet outside the
    family with no strict subset in it and whose union with each of its
    alphabets is in it; a configuration is a set of pairwise incomparable
    candidates whose pairwise unions are in the family, listed in the order
    of itertools.combinations over the candidates, smaller ones first."""

    numbers: tuple[range, ...]  # per candidate, the numbers of its paths
    configs: tuple[tuple[int, ...], ...]  # per configuration, its candidates' indices
    weights: tuple[int, ...]  # per configuration, its straggler choices per path assignment
    # per candidate, per path of it, per layer of the family (ascending),
    # per entry of the layer's catalogue: the bits of the star products of
    # the path with the entry's paths, in either order
    rows: tuple[tuple[tuple[tuple[int, ...], ...], ...], ...]


# One entry per union-closed family on at most MAX_ENUMERATION_N letters:
# 1 + 2 + 7 + 61 for n = 0..3.
FAMILY_STRAGGLERS_MEMO = 128


@lru_cache(maxsize=FAMILY_STRAGGLERS_MEMO)
def _family_stragglers(n: int, family: frozenset[int]) -> FamilyStragglers:
    candidates = [
        a
        for a in range(1, 1 << n)
        if a not in family
        and not any(b & a == b for b in family)
        and all(a | b in family for b in family)
    ]
    start = path_numbering(MAX_ENUMERATION_N).layer_start
    configs = [
        config
        for r in range(1, len(candidates) + 1)
        for config in itertools.combinations(range(len(candidates)), r)
        if all(
            (a & b) not in (a, b) and (a | b) in family
            for a, b in itertools.combinations([candidates[k] for k in config], 2)
        )
    ]
    pair = star_pair_bits()
    owns = [[bit_numbers(paths) for _, paths, _, _ in catalogue(mask).entries] for mask in sorted(family)]

    def products(row, js):
        out = 0
        for j in js:
            out |= row[j]
        return out

    return FamilyStragglers(
        tuple(range(start[a], start[a + 1]) for a in candidates),
        tuple(configs),
        # A straggler on alphabet a with given extremal paths is one of
        # path_class_size(|a|) left branches times as many right ones.
        tuple(
            math.prod(path_class_size(mask_size(candidates[k])) ** 2 for k in config)
            for config in configs
        ),
        tuple(
            tuple(
                tuple(tuple(products(pair[i], js) for js in layer) for layer in owns)
                for i in range(start[a], start[a + 1])
            )
            for a in candidates
        ),
    )


def _straggler_options(stragglers: FamilyStragglers, bits: int) -> list[list[int]]:
    """Per candidate, the numbers of its paths whose star products with the
    right system's paths (bits), in either order, stay among them."""
    numbers = bit_numbers(bits)
    return [paths_beside(candidate, numbers, bits) for candidate in stragglers.numbers]


def _option_counts(stragglers: FamilyStragglers, index, bits: int) -> list[int]:
    """Per candidate, the number of its straggler options in the right
    system with these catalogue-entry indices and path bits: the paths
    whose star products with the system's paths, ORed from the rows of the
    system's entries, lie within bits (as _straggler_options)."""
    outside = ~bits
    out = []
    for candidate in stragglers.rows:
        count = 0
        for layers in candidate:
            products = 0
            for row, e in zip(layers, index):
                products |= row[e]
            if not products & outside:
                count += 1
        out.append(count)
    return out


# A configuration's joint path assignments are all the tuples of one option
# per alphabet: the star products of two options stay in the system without
# a check of their own.  Take options p on alphabet a and q on alphabet b of
# one configuration.  a | b is in the family, and every layer of a system is
# inhabited, so the system holds a path t on a | b.  As p is an option,
# x = star_right(t, p) is in the system; as q is an option, so is
# star_right(x, q), and that is star_right(p, q), since t's letters outside
# a all lie in b.  The same holds with p and q swapped, and a left system is
# checked as the mirror image of a right one, so the argument covers it too.
def _assignment_counts(stragglers: FamilyStragglers, counts) -> list[int]:
    """Per configuration of the family, the number of joint path
    assignments of a right system with these option counts per candidate:
    the product of its alphabets' counts."""
    count = counts.__getitem__
    return [math.prod(map(count, config)) for config in stragglers.configs]


def _side_options(s: RepleteSubsemigroup):
    """The stragglers of s's family and the straggler options of both sides
    of s: the left system's are those of the right system it mirrors, so
    their paths are mirror images."""
    check_n(s.n, MAX_ENUMERATION_N, "straggler options")
    left, right = s.bits()
    stragglers = _family_stragglers(s.n, frozenset(mask for mask, _, _ in s.layers))
    return stragglers, _straggler_options(stragglers, left), _straggler_options(stragglers, right)


def count_dominated(s: RepleteSubsemigroup) -> int:
    """Number of sparse sets dominated by s.  The trivial tree blocks every
    straggler, so an S with it dominates only the empty set; any other also
    dominates the trivial tree alone and, per configuration, w times the
    product of its two sides' numbers of joint path assignments."""
    if s.unit:
        return 1
    stragglers, lefts, rights = _side_options(s)
    counts = zip(
        stragglers.weights,
        _assignment_counts(stragglers, list(map(len, lefts))),
        _assignment_counts(stragglers, list(map(len, rights))),
    )
    return 2 + sum(w * a * b for w, a, b in counts)


def _trees_with_paths(lam, rho):
    return [
        node(t0, lam[-1], rho[0], t1)
        for t0 in trees_with_lmp(lam[:-1])
        for t1 in trees_with_rmp(rho[1:])
    ]


def enumerate_dominated(s: RepleteSubsemigroup) -> Iterator[FrozenSet[Tree]]:
    """The sparse sets dominated by s: the empty set, the trivial tree
    alone, then per configuration, per left path assignment (sorted), per
    right one (in the order of itertools.product), each choice of trees
    with those paths."""
    if s.unit:
        yield frozenset()
        return
    stragglers, lefts, rights = _side_options(s)
    yield frozenset()
    yield frozenset({LEAF})
    paths = path_numbering(MAX_ENUMERATION_N).paths
    for config in stragglers.configs:
        # A product of sorted lists is sorted, so the left assignments come
        # in the order of their sorted mirror images.
        las = itertools.product(*(sorted(paths[i][::-1] for i in lefts[k]) for k in config))
        ras = itertools.product(*([paths[i] for i in rights[k]] for k in config))
        for la, ra in itertools.product(las, ras):
            per_mask = [_trees_with_paths(lam, rho) for lam, rho in zip(la, ra)]
            for choice in itertools.product(*per_mask):
                yield frozenset(choice)


def enumerate_triples(n: int) -> Iterator[ComplementaryTriple]:
    """All elements of the free mirig on n generators, as triples."""
    if n > 2:
        raise CapacityError("exhaustive triple enumeration supported for n <= 2")
    for s in enumerate_replete(n):
        s_masks = sorted(s.alphabet_masks())
        for d in enumerate_dominated(s):
            d_masks = frozenset(t.alpha for t in d)
            for r in range(len(s_masks) + 1):
                for extra in itertools.combinations(s_masks, r):
                    yield ComplementaryTriple(n, s, d, d_masks | frozenset(extra))


# ---------------------------------------------------------------------------
# Counting


# Past these sizes a closed-form census has more than 4300 decimal digits
# (Python's default limit for converting an int to text) or, for the
# Boolean-semiring count, lists the 7 828 354 up-sets on six atoms.
MAX_BOUNDS_N = 3
MAX_VARIANT_02_N = 13
MAX_BOOLEAN_SEMIRING_N = 5


def mirig_upper_bounds(n: int) -> tuple[int, int]:
    """(crude, refined) upper bounds for the free mirig size."""
    check_n(n, MAX_BOUNDS_N, "upper bounds")
    m = count_free_monoid(n)
    return 4 ** m, 4 ** (m - 1) + 3 * 3 ** (m - 1)


def _straggler_subset_sum(singles: int, layers: int, base: int) -> int:
    """Sum, over the sets e of minimal single-path layers (bit m of singles
    set for the layer on mask m) that stragglers stand in for, of the
    straggler choices on e times base ** (the number of layers of S outside
    e).  Each layer in singles adds either its choices or a factor base, so
    the sum is a product: base ** (layers - |singles|) * prod(base + q(a)),
    q(a) being the straggler choices on a."""
    total = base ** (layers - singles.bit_count())
    for a in bit_numbers(singles):
        total *= base + path_class_size(mask_size(a)) ** 2
    return total


def _histogram_sum(n: int, term) -> int:
    """Sum of term(|fam|, X & Y) over the replete S without the trivial
    tree, X and Y being the minimal single-path layers of S's left and
    right systems as bitsets (see family_histograms)."""
    total = 0
    for family, hist in family_histograms(n):
        for x, hx in hist.items():
            for y, hy in hist.items():
                total += hx * hy * term(len(family), x & y)
    return total


def count_free_mirig(n: int, strategy: str = "grouped") -> int:
    """Exact size of the free mirig on n generators.

    "triples" sums dominated-set counts over all replete subsemigroups
    without building them: the S on a family are its (left system, right
    system, unit) triples, and their sum is read off each right system's
    straggler options;
    "grouped" groups triples by the replete subsemigroup their carrier
    generates, which only needs per-layer path multiplicities, and so is
    counted from the per-family histograms without listing any S or right
    system.  "triples" lists the right systems, so it answers up to
    MAX_ENUMERATION_N generators; "grouped" answers up to MAX_CENSUS_N.
    """
    if strategy == "triples":
        check_n(n, MAX_ENUMERATION_N, "free mirig census by the triples strategy")
        # A family's R right systems make R**2 (left, right) pairs, each an
        # S with the trivial tree, which dominates 1 set and doubles the
        # parities, and one without, which dominates 2 sets plus, for each
        # configuration, w * A(left) * A(right) (see count_dominated), A(x)
        # being the product of x's option counts on its alphabets; the left
        # system reads the options of the right system it mirrors.  The sum
        # is bilinear, so the family adds 2**|F| * (4 * R**2 + sum of
        # w * A**2), A being the total of A(x) over the right systems x.
        total = 0
        for family, systems in right_systems_by_family(n):
            stragglers = _family_stragglers(n, frozenset(family))
            counts = [0] * len(stragglers.configs)  # A, per configuration
            for index, bits in systems:
                options = _option_counts(stragglers, index, bits)
                for c, a in enumerate(_assignment_counts(stragglers, options)):
                    counts[c] += a
            paired = sum(w * a * a for w, a in zip(stragglers.weights, counts))
            total += 2 ** len(family) * (4 * len(systems) ** 2 + paired)
        return total
    check_n(n, MAX_CENSUS_N, "free mirig census")
    if strategy != "grouped":
        raise ValueError("strategy must be 'triples' or 'grouped'")
    return _histogram_sum(
        n, lambda layers, singles: 3 * 2**layers + _straggler_subset_sum(singles, layers, 2)
    )


def _upsets(n: int) -> list[int]:
    """The up-sets of the Boolean lattice on n atoms, as bitmasks over its
    2**n subsets.  Splitting on the last atom, an up-set is a pair U0 <= U1
    of up-sets on n - 1 atoms: the members without the atom, and those with
    it, the atom removed."""
    if n == 0:
        return [0, 1]
    lower = _upsets(n - 1)
    shift = 1 << (n - 1)
    return [u0 | u1 << shift for u1 in lower for u0 in lower if not u0 & ~u1]


VARIANTS = ("11", "21", "12", "02", "boolean_semiring")


def count_characteristic_variant(n: int, variant: str) -> int:
    """Counts for the characteristic quotients and the Boolean-semiring one."""
    if variant in ("11", "21", "12"):
        check_n(n, MAX_CENSUS_N, f"variant {variant} census")
    if variant == "11":
        return count_replete(n)
    if variant == "21":
        # Characteristic (2,1) records no parity, hence base 1.
        return _histogram_sum(
            n, lambda layers, singles: 2 + _straggler_subset_sum(singles, layers, 1)
        )
    if variant == "12":
        return 3 * _histogram_sum(n, lambda layers, singles: 2**layers)
    if variant == "02":
        check_n(n, MAX_VARIANT_02_N, "variant 02 census")
        return 2 ** (2 ** n)
    if variant == "boolean_semiring":
        check_n(n, MAX_BOOLEAN_SEMIRING_N, "boolean_semiring census")
        return sum(1 << u.bit_count() for u in _upsets(n))
    raise ValueError(f"unsupported variant {variant!r}")
