"""Subsemigroups of the tree monoid: uniform decomposition, branch sets,
internal factors, repleteness, and exact enumeration.

A subsemigroup is *replete* when every internal factor x\\S/y is again a
subsemigroup.  Repleteness is a fiberwise property: a uniform layer is
replete exactly when its branch sets are unions of extremal-path classes
closed under the suffix-product operations, which is what makes the compact
path representation below possible.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import FrozenSet, Iterator, NamedTuple

from .errors import CapacityError, NotASubsemigroupError
from .monoid import (
    LEAF,
    Tree,
    all_trees,
    check_n,
    letter,
    lmp,
    mask_members,
    mask_size,
    node,
    parse_word,
    rmp,
    tree_product,
    trees_with_lmp,
    trees_with_rmp,
)

TreeSet = FrozenSet[Tree]

# Replete S are listed (enumerate_replete, and the triples census and
# straggler options, which read the listed right systems) up to three
# generators: at four there are 9 770 803 right systems, 2 * R**2 S per
# family.  The censuses that count from the per-family histograms answer up
# to four.  At five there are 1 385 552 union-closed families, each with a
# catalogue product to count over, and the 5-letter catalogue alone did not
# finish in 150 s.
MAX_ENUMERATION_N = 3
MAX_CENSUS_N = 4


_product_closure_cache: dict[TreeSet, TreeSet] = {}


def close_under_product(trees) -> TreeSet:
    """Least product-closed superset of the given trees.

    Tree-level, exponential in the alphabet size: the library computes
    closures on path systems (close_path_system), and this stays as the
    independent route that the tests compare against."""
    key = frozenset(trees)
    cached = _product_closure_cache.get(key)
    if cached is not None:
        return cached
    closed = set(key)
    frontier = list(closed)
    while frontier:
        fresh = []
        for t in frontier:
            for s in list(closed):
                for p in (tree_product(s, t), tree_product(t, s)):
                    if p not in closed:
                        closed.add(p)
                        fresh.append(p)
        frontier = fresh
    out = frozenset(closed)
    _product_closure_cache[key] = out
    return out


def is_subsemigroup(trees) -> bool:
    ts = set(trees)
    return all(tree_product(s, t) in ts for s in ts for t in ts)


def alphabet_family(trees) -> frozenset[int]:
    """The set of alphabets (as bitmasks) of a set of trees."""
    return frozenset(t.alpha for t in trees)


def layer_of(trees, mask: int) -> TreeSet:
    return frozenset(t for t in trees if t.alpha == mask)


def xy_factor(trees, x: Tree, y: Tree, n: int) -> TreeSet:
    """{t in T_n : x*t*y in trees}."""
    ts = set(trees)
    return frozenset(
        t for t in all_trees(n) if tree_product(tree_product(x, t), y) in ts
    )


# ---------------------------------------------------------------------------
# Path classes and within-layer closure


def path_class_size(k: int) -> int:
    """Number of right branches sharing one rightmost path of length k."""
    out = 1
    for j in range(1, k):
        out *= j ** (2 ** (k - j) - 1)
    return out


def path_class(sigma: tuple[int, ...], side: str = "right"):
    """The branch class of an extremal path, with its closed-form cardinality."""
    k = len(sigma)
    count = path_class_size(k)
    if side == "right":
        branches = frozenset((sigma[0], t) for t in trees_with_rmp(sigma[1:]))
    else:
        branches = frozenset((t, sigma[-1]) for t in trees_with_lmp(sigma[:-1]))
    return branches, count


def close_right(paths) -> frozenset:
    """Least within-layer-closed superset of equal-support right paths."""
    return _close_rights(paths, replete=True)


def close_left(paths) -> frozenset:
    return _mirror(close_right(_mirror(paths)))


# ---------------------------------------------------------------------------
# Path bitsets
#
# One numbering gives every nonempty path a number, so that a set of paths
# is an int, and one table gives star_right of every two numbered paths.
# The closures of path systems (close_bits, behind close_path_system and
# the triple arithmetic) and the census checks (paths_beside,
# closed_path_set_bits and the triples census's straggler options, through
# the pair table star_pair_bits) read these two, by path number.  The empty
# path, the trivial tree's, has no number: star_right with it gives the
# other path back, so it never yields a new path, and callers carry it as a
# flag beside the bits.


class PathNumbering:
    """The paths on the first `letters` letters, numbered by alphabet mask,
    then in the order of itertools.permutations (lexicographic).  The
    numbering on n letters is a prefix of the numbering on n + 1, so it
    grows in place (grow) to the most letters asked for.

    paths, masks and suffixes are indexed by number: a path, its alphabet
    and the numbers of its suffixes p[j:] for 2 <= j < len(p), the only
    ones whose within-layer products can add a path.  layer_bits and
    layer_start are indexed by mask: the bits of all orderings of the mask,
    and the number of its first one.  A row, built on first read, holds for
    every numbered q the bit of star_right(p, q); its entries are the ints
    of `bit`, shared, so a row costs a pointer per path and reaches 6
    letters (1956 paths) in tens of megabytes."""

    def __init__(self):
        self.letters = 0
        self.paths: list[tuple] = []
        self.masks: list[int] = []
        self.index: dict[tuple, int] = {}
        self.bit: list[int] = []
        self.suffixes: list[tuple[int, ...]] = []
        self.layer_bits = [0]
        self.layer_start = [0, 0]
        self.rows: list = []

    def grow(self, letters: int) -> "PathNumbering":
        """Number the paths on up to `letters` letters; rows built before
        are dropped, as they lack the new paths."""
        if letters <= self.letters:
            return self
        for mask in range(1 << self.letters, 1 << letters):
            start = len(self.paths)
            for p in itertools.permutations(mask_members(mask)):
                self.index[p] = len(self.paths)
                self.paths.append(p)
                self.masks.append(mask)
                self.bit.append(1 << len(self.bit))
                self.suffixes.append(tuple(self.index[p[j:]] for j in range(2, len(p))))
            self.layer_bits.append((1 << len(self.paths)) - (1 << start))
            self.layer_start.append(len(self.paths))
        self.letters = letters
        self.rows = [None] * len(self.paths)
        return self

    def number(self, p: tuple) -> int:
        i = self.index.get(p)
        if i is None:
            self.grow(max(p) + 1)
            i = self.index[p]
        return i

    def row(self, i: int) -> list:
        """The bits of star_right(paths[i], q) for every numbered q, in
        number order.  Per layer b, star_right(p, q) is p's letters outside
        b, then q: q itself when p's alphabet lies in b, and otherwise, as q
        runs through b's orderings in lexicographic order, the block of
        layer a | b that starts with those letters, in its order."""
        out = self.rows[i]
        if out is None:
            p, a = self.paths[i], self.masks[i]
            start = self.layer_start
            out = []
            for b in range(1, 1 << self.letters):
                lo, hi = start[b], start[b + 1]
                if a & ~b:
                    head = tuple([x for x in p if not b >> x & 1])
                    lo, hi = self.index[head + self.paths[lo]], self.index[head + self.paths[hi - 1]] + 1
                out += self.bit[lo:hi]
            self.rows[i] = out
        return out


_NUMBERING = PathNumbering()


def path_numbering(letters: int) -> PathNumbering:
    """The shared numbering, grown to at least `letters` letters."""
    return _NUMBERING.grow(letters)


def bit_numbers(bits: int) -> list[int]:
    """The numbers of the paths in bits, ascending."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def bits_of(paths) -> int:
    """The bits of nonempty paths."""
    num = _NUMBERING
    bit = num.bit
    out = 0
    for p in paths:
        out |= bit[num.number(p)]
    return out


def close_bits(bits: int, replete: bool) -> int:
    """Star closure of the right path system with these bits, and with
    replete the within-layer closure too: star_right(p, s) for p and q on
    one layer and s a suffix of q.

    Semi-naive: each path, once taken from the worklist, is met with itself
    and each path taken before it, so every pair is met once.  A pair is
    skipped when its target layer, the union of its alphabets, already
    holds every ordering of its alphabet."""
    num = _NUMBERING
    masks, suffixes, rows, row, layer_bits = (
        num.masks, num.suffixes, num.rows, num.row, num.layer_bits
    )
    closed = bits
    frontier = bit_numbers(bits)
    done: dict[int, list[int]] = {}
    while frontier:
        i = frontier.pop()
        a = masks[i]
        ri = row(i)
        done.setdefault(a, []).append(i)
        new = 0
        for b, js in done.items():
            full = layer_bits[a | b]
            if closed & full == full:
                continue
            if a != b:
                # star_right(x, y) is y when x's alphabet lies in y's.
                if a & ~b:
                    for j in js:
                        new |= ri[j]
                if b & ~a:
                    for j in js:
                        new |= rows[j][i]
            elif replete:
                si = suffixes[i]
                for j in js:
                    rj = rows[j]
                    for s in suffixes[j]:
                        new |= ri[s]
                    for s in si:
                        new |= rj[s]
        new &= ~closed
        if new:
            closed |= new
            frontier += bit_numbers(new)
    return closed


def star_product_bits(unit1: bool, bits1: int, unit2: bool, bits2: int) -> int:
    """The bits of star_right(p, q) for p among bits1 and q among bits2,
    each side with the empty path when its unit flag is set; the empty
    path itself, star_right((), ()), is left to the caller."""
    out = (bits2 if unit1 else 0) | (bits1 if unit2 else 0)
    row = _NUMBERING.row
    qs = bit_numbers(bits2)
    for i in bit_numbers(bits1):
        r = row(i)
        for j in qs:
            out |= r[j]
    return out


@lru_cache(maxsize=None)
def star_pair_bits() -> tuple[tuple[int, ...], ...]:
    """The pair table of the census checks, indexed by path number on the
    first MAX_CENSUS_N letters (64 paths on 4): entry [i][j] holds the bits
    of star_right(p, q) and star_right(q, p), p and q numbered i and j,
    read from the rows."""
    num = path_numbering(MAX_CENSUS_N)
    count = num.layer_start[1 << MAX_CENSUS_N]
    rows = [num.row(i) for i in range(count)]
    return tuple(tuple(rows[i][j] | rows[j][i] for j in range(count)) for i in range(count))


def paths_beside(candidates, paths, within: int) -> list[int]:
    """The candidate path numbers, in their order, whose star_right
    products with each of paths (numbers), in either order, are all in
    within (bits).  Left paths are checked through their mirror images:
    star_left(p, q) reversed is star_right(q reversed, p reversed)."""
    pair = star_pair_bits()
    outside = ~within
    out = []
    for i in candidates:
        row = pair[i]
        products = 0
        for j in paths:
            products |= row[j]
        if not products & outside:
            out.append(i)
    return out


@lru_cache(maxsize=None)
def closed_path_sets(mask: int) -> tuple[frozenset, ...]:
    """All inhabited within-layer-closed sets of right paths on an alphabet,
    smaller sets first, each size in the order of its sorted paths.

    Generated by closure: every closed set is reached from the closure of
    one of its paths by closing it with one more of its paths at a time.
    The height-3 case recovers the 22 closed sets; on 4 letters there are
    485.
    """
    if mask_size(mask) > MAX_CENSUS_N:
        raise CapacityError(f"path-set catalogue supported for alphabets of size <= {MAX_CENSUS_N}")
    num = path_numbering(mask.bit_length())
    layer = range(num.layer_start[mask], num.layer_start[mask + 1])
    bit = num.bit
    seen = {close_bits(bit[i], replete=True) for i in layer}
    frontier = list(seen)
    while frontier:
        closed = frontier.pop()
        for i in layer:
            if not closed & bit[i]:
                grown = close_bits(closed | bit[i], replete=True)
                if grown not in seen:
                    seen.add(grown)
                    frontier.append(grown)
    out = [frozenset(num.paths[i] for i in bit_numbers(bits)) for bits in seen]
    return tuple(sorted(out, key=lambda s: (len(s), sorted(s))))


@lru_cache(maxsize=None)
def closed_path_set_bits(mask: int) -> tuple[tuple[frozenset, int, int], ...]:
    """closed_path_sets(mask), each entry with the bits of its own paths and
    the bits of the paths p on proper sub-alphabets of mask that it admits:
    star_right(t, p) is in the entry for every t in it.  These are the paths
    beside the entry, as star_right(p, t) is t."""
    check_n(mask.bit_length(), MAX_CENSUS_N, "path-set catalogue")
    num = path_numbering(MAX_CENSUS_N)
    # A proper sub-alphabet is a smaller mask, so its paths number below mask's.
    below = [i for i in range(num.layer_start[mask]) if not num.masks[i] & ~mask]
    bit = num.bit
    out = []
    for target in closed_path_sets(mask):
        own = bits_of(target)
        admitted = 0
        for i in paths_beside(below, bit_numbers(own), own):
            admitted |= bit[i]
        out.append((target, own, admitted))
    return tuple(out)


class Catalogue(NamedTuple):
    """closed_path_set_bits(mask) as the censuses read it, by entry index."""

    # per entry: its index, the bits of its paths, the bits of the paths it
    # admits, and whether it holds one path
    entries: tuple[tuple[int, int, int, bool], ...]
    # per path number below the mask, the entries that admit it (bit e for entry e)
    admitting: dict[int, int]


# catalogue() is bounded by the census cap: at most 15 masks reach it.
@lru_cache(maxsize=None)
def catalogue(mask: int) -> Catalogue:
    entries = closed_path_set_bits(mask)
    admitting: dict[int, int] = {}
    for e, (_, _, admitted) in enumerate(entries):
        for i in bit_numbers(admitted):
            admitting[i] = admitting.get(i, 0) | 1 << e
    return Catalogue(
        tuple((e, own, admitted, len(target) == 1) for e, (target, own, admitted) in enumerate(entries)),
        admitting,
    )


def expand_layer(mask: int, left_paths, right_paths) -> TreeSet:
    """All trees on `mask` whose leftmost path lies in left_paths and whose
    rightmost path lies in right_paths."""
    if mask == 0:
        return frozenset({LEAF})
    out = set()
    for lam in left_paths:
        for t0 in trees_with_lmp(lam[:-1]):
            for rho in right_paths:
                for t1 in trees_with_rmp(rho[1:]):
                    out.add(node(t0, lam[-1], rho[0], t1))
    return frozenset(out)


# ---------------------------------------------------------------------------
# Path systems
#
# The leftmost paths of a tree set form its left path system, the rightmost
# paths its right one.  A path's letters are its tree's alphabet, so a path
# system falls into one layer per alphabet; the trivial tree's path is the
# empty one, on alphabet 0.  Since lmp(s*t) = star_left(lmp s, lmp t) and
# rmp(s*t) = star_right(rmp s, rmp t), the paths of a product closure are
# the star closure of the paths, each side on its own: star_right(p, q) is
# in the system for p and q on any two layers.  A replete layer is the full
# branch product of its path classes, so the least replete subsemigroup
# containing a tree set depends only on its two path systems; a replete
# layer's right paths are also closed within the layer: star_right(p, s) is
# in it for p and q on the layer and s any suffix of q.


def _close_rights(paths, replete: bool) -> frozenset:
    """Star closure of a right path system, and with replete the
    within-layer closure too (close_bits), as a set of paths."""
    paths = frozenset(paths)
    numbered = _NUMBERING.paths
    out = frozenset(numbered[i] for i in bit_numbers(close_bits(bits_of(paths - {()}), replete)))
    return out | {()} if () in paths else out


def _mirror(paths) -> frozenset:
    return frozenset(p[::-1] for p in paths)


def close_path_system(lefts, rights, replete: bool = False) -> tuple[frozenset, frozenset]:
    """Least (left, right) path systems containing the given ones and closed
    under star_left/star_right products across layers; with replete, also
    under close_left/close_right within each layer.

    The replete closure is the path systems of the least replete
    subsemigroup containing any tree set with the given paths.  The left
    side is the mirror image of the right: star_left(p, q) reversed is
    star_right(q reversed, p reversed)."""
    return _mirror(_close_rights(_mirror(lefts), replete)), _close_rights(rights, replete)


def _layer_paths(layer):
    return frozenset(lmp(t) for t in layer), frozenset(rmp(t) for t in layer)


def is_replete(trees, require_subsemigroup: bool = True) -> bool:
    """Fiberwise repleteness check of a product-closed tree set."""
    ts = frozenset(trees)
    if require_subsemigroup and not is_subsemigroup(ts):
        raise NotASubsemigroupError("input is not product-closed")
    for mask in alphabet_family(ts):
        layer = layer_of(ts, mask)
        lp, rp = _layer_paths(layer)
        if close_left(lp) != lp or close_right(rp) != rp:
            return False
        if expand_layer(mask, lp, rp) != layer:
            return False
    return True


def is_replete_definitional(trees, n: int) -> bool:
    """Direct check of the defining property: every internal factor x\\S/y is
    product-closed.  Expensive; used as an oracle on small inputs.

    Contexts are pruned to left/right factors of members (the factor is
    empty, hence closed, for any other context) and repeated factors are
    checked once."""
    ts = frozenset(trees)
    if not is_subsemigroup(ts):
        raise NotASubsemigroupError("input is not product-closed")
    ambient = all_trees(n)
    lefts = [x for x in ambient if any(tree_product(x, s) is s for s in ts)]
    rights = [y for y in ambient if any(tree_product(s, y) is s for s in ts)]
    seen = set()
    for x in lefts:
        for y in rights:
            factor = xy_factor(ts, x, y, n)
            if factor in seen:
                continue
            seen.add(factor)
            if not is_subsemigroup(factor):
                return False
    return True


_replete_closure_cache: dict[TreeSet, TreeSet] = {}


def replete_closure_trees(trees) -> TreeSet:
    """Least replete subsemigroup containing the given trees, as a tree set.

    Tree-level, like close_under_product: the independent route to
    close_path_system(..., replete=True)."""
    key = frozenset(trees)
    cached = _replete_closure_cache.get(key)
    if cached is not None:
        return cached
    current = close_under_product(key)
    while True:
        grown = set(current)
        for mask in alphabet_family(current):
            if mask == 0:
                continue
            lp, rp = _layer_paths(layer_of(current, mask))
            grown |= expand_layer(mask, close_left(lp), close_right(rp))
        grown = close_under_product(grown)
        if grown == current:
            _replete_closure_cache[key] = current
            return current
        current = grown


# ---------------------------------------------------------------------------
# Compact representation of replete subsemigroups


@dataclass(frozen=True)
class RepleteSubsemigroup:
    """A replete subsemigroup stored as per-alphabet path algebras.

    layers is sorted by alphabet mask; each entry is
    (mask, sorted left paths, sorted right paths).  `unit` records whether
    the trivial tree is a member.
    """

    n: int
    unit: bool
    layers: tuple[tuple[int, tuple, tuple], ...]

    @staticmethod
    def from_layer_dict(n, unit, layer_dict) -> "RepleteSubsemigroup":
        layers = tuple(
            (mask, tuple(sorted(lp)), tuple(sorted(rp)))
            for mask, (lp, rp) in sorted(layer_dict.items())
        )
        return RepleteSubsemigroup(n, unit, layers)

    @staticmethod
    def from_trees(n, trees, validate: bool = True) -> "RepleteSubsemigroup":
        ts = frozenset(trees)
        if validate and not is_replete(ts):
            raise NotASubsemigroupError("tree set is not replete")
        layer_dict = {}
        for mask in alphabet_family(ts):
            if mask == 0:
                continue
            lp, rp = _layer_paths(layer_of(ts, mask))
            layer_dict[mask] = (lp, rp)
        return RepleteSubsemigroup.from_layer_dict(n, LEAF in ts, layer_dict)

    @staticmethod
    def from_paths(n, lefts, rights) -> "RepleteSubsemigroup":
        """From replete-closed left and right path systems (see
        close_path_system)."""
        return RepleteSubsemigroup.from_path_bits(
            n, () in rights, bits_of(p[::-1] for p in lefts if p), bits_of(p for p in rights if p)
        )

    @staticmethod
    def from_path_bits(n, unit, lefts: int, rights: int) -> "RepleteSubsemigroup":
        """From the bits of replete-closed path systems: the left paths'
        mirror images and the right paths (see bits)."""
        num = _NUMBERING
        paths, masks = num.paths, num.masks
        layer_dict: dict[int, tuple[list, list]] = {}
        for i in bit_numbers(lefts):
            layer_dict.setdefault(masks[i], ([], []))[0].append(paths[i][::-1])
        for i in bit_numbers(rights):
            layer_dict.setdefault(masks[i], ([], []))[1].append(paths[i])
        out = RepleteSubsemigroup.from_layer_dict(n, unit, layer_dict)
        object.__setattr__(out, "_bits", (lefts, rights))
        return out

    # paths(), bits() and alphabet_masks() are computed once per object and
    # kept in its __dict__, outside the dataclass fields.

    def paths(self) -> tuple[frozenset, frozenset]:
        """The left and right path systems, with () for the trivial tree."""
        out = self.__dict__.get("_paths")
        if out is None:
            unit = [()] if self.unit else []
            out = (
                frozenset(unit + [p for _, lp, _ in self.layers for p in lp]),
                frozenset(unit + [p for _, _, rp in self.layers for p in rp]),
            )
            object.__setattr__(self, "_paths", out)
        return out

    def bits(self) -> tuple[int, int]:
        """The bits (bits_of) of the mirror images of the left paths and of
        the right paths, the trivial tree's empty path left out."""
        out = self.__dict__.get("_bits")
        if out is None:
            out = (
                bits_of(p[::-1] for _, lp, _ in self.layers for p in lp),
                bits_of(p for _, _, rp in self.layers for p in rp),
            )
            object.__setattr__(self, "_bits", out)
        return out

    def alphabet_masks(self) -> frozenset[int]:
        out = self.__dict__.get("_masks")
        if out is None:
            out = frozenset([0] if self.unit else []) | {mask for mask, _, _ in self.layers}
            object.__setattr__(self, "_masks", out)
        return out

    def trees(self) -> TreeSet:
        return _expand_replete(self)

    def size(self) -> int:
        total = 1 if self.unit else 0
        for mask, lp, rp in self.layers:
            k = mask_size(mask)
            total += len(lp) * len(rp) * path_class_size(k) ** 2
        return total

    def to_json(self) -> dict:
        pos = [mask for mask, _, _ in self.layers]
        return {
            "v": 1,
            "n": self.n,
            "alphabets": ([0] if self.unit else []) + pos,
            "left": [["".join(letter(g) for g in p) for p in lp] for _, lp, _ in self.layers],
            "right": [["".join(letter(g) for g in p) for p in rp] for _, _, rp in self.layers],
        }

    @staticmethod
    def from_json(data: dict) -> "RepleteSubsemigroup":
        if data.get("v") != 1:
            raise ValueError("unsupported replete-subsemigroup schema version")
        n = data["n"]
        masks = list(data["alphabets"])
        unit = 0 in masks
        pos = [m for m in masks if m]
        layer_dict = {}
        for mask, lp, rp in zip(pos, data["left"], data["right"]):
            layer_dict[mask] = (
                frozenset(parse_word(p) for p in lp),
                frozenset(parse_word(p) for p in rp),
            )
        return RepleteSubsemigroup.from_layer_dict(n, unit, layer_dict)


@lru_cache(maxsize=None)
def _expand_replete(r: RepleteSubsemigroup) -> TreeSet:
    out = {LEAF} if r.unit else set()
    for mask, lp, rp in r.layers:
        out |= expand_layer(mask, lp, rp)
    return frozenset(out)


def replete_closure(trees, n: int) -> RepleteSubsemigroup:
    return RepleteSubsemigroup.from_trees(n, replete_closure_trees(trees), validate=False)


# ---------------------------------------------------------------------------
# Enumeration


def union_closed_families(n: int) -> list[frozenset[int]]:
    """All union-closed families of nonempty alphabets over [n], smaller
    families first, each size in lexicographic order of the sorted masks.

    Decides the masks in ascending order, keeping with each partial family
    the unions its members force: a union is no smaller than its parts, so
    a forced mask is still undecided, and may not be left out.  A scan of
    every subset of the masks takes about twice as long at n = 3 and five
    times as long at n = 4."""
    partial: list[tuple[tuple[int, ...], int]] = [((), 0)]
    for m in range(1, 1 << n):
        grown = []
        for chosen, forced in partial:
            if not forced >> m & 1:
                grown.append((chosen, forced))
            for f in chosen:
                forced |= 1 << (f | m)
            grown.append((chosen + (m,), forced))
        partial = grown
    out = [frozenset(chosen) for chosen, _ in partial]
    out.sort(key=lambda fam: (len(fam), sorted(fam)))
    return out


def _right_systems(family: list[int]) -> list[tuple[tuple[int, ...], int]]:
    """All assignments mask -> closed right path set over a union-closed family,
    given in ascending order, that are closed under cross-layer products,
    each as the indices of its entries in the layers' catalogues (catalogue),
    one per layer, with the bits of all its paths (bits_of).

    Backtracks in place over the layers in ascending mask order, so the
    systems come out in the order of itertools.product over the per-layer
    catalogues.  A product lands on the union of its factors' alphabets, a
    mask no smaller than either, so each layer is checked when it is
    chosen, against the layers below it (its subsets, all chosen earlier).
    Only star_right(t, p), with t on the layer and p below it, needs a
    check: star_right(p, t) is t, and when the layer is a | b,
    star_right(p, q) with p on a and q on b equals
    star_right(star_right(t, p), q) for any t on the layer.  The check is
    one AND: the paths below must all be among those the catalogue entry
    admits (closed_path_set_bits)."""
    out: list[tuple[tuple[int, ...], int]] = []
    if not family:
        out.append(((), 0))
        return out
    below = _family_plan(tuple(family)).below
    layers = [catalogue(mask).entries for mask in family]
    _choose(0, 0, layers, below, [0] * len(family), [0] * len(family), out)
    return out


def _choose(i: int, bits: int, layers, below, own: list, index: list, out: list) -> None:
    """The backtracking of _right_systems at layer i, the layers before it
    chosen: their entries in index, their paths' bits in own and, ORed
    together, in bits.  Each full choice is appended to out."""
    if i == len(layers):
        out.append((tuple(index), bits))
        return
    lower = 0
    for j in below[i]:
        lower |= own[j]
    for e, paths, admitted, _ in layers[i]:
        if not lower & ~admitted:
            index[i] = e
            own[i] = paths
            _choose(i + 1, bits | paths, layers, below, own, index, out)


def right_systems_by_family(n: int) -> Iterator[tuple[list[int], list[tuple[tuple[int, ...], int]]]]:
    """Per union-closed family of nonempty alphabets over [n], as its sorted
    masks, the family's right systems as catalogue-entry indices with their
    path bits (_right_systems).  The one walk over the families behind
    enumerate_replete (in its order) and the triples census."""
    check_n(n, MAX_ENUMERATION_N, "right-system listing")
    for fam in union_closed_families(n):
        family = sorted(fam)
        yield family, _right_systems(family)


def enumerate_replete(n: int) -> Iterator[RepleteSubsemigroup]:
    """Every replete subsemigroup of T_n exactly once, compactly represented."""
    check_n(n, MAX_ENUMERATION_N, "replete enumeration")
    for family, systems in right_systems_by_family(n):
        # Each catalogue entry's paths, sorted once, and their mirror images:
        # the layers of every S on the family zip one left and one right
        # system.
        rights_of = [[tuple(sorted(target)) for target in closed_path_sets(mask)] for mask in family]
        lefts_of = [[tuple(sorted(p[::-1] for p in ps)) for ps in entries] for entries in rights_of]
        rights = [[entries[e] for entries, e in zip(rights_of, index)] for index, _ in systems]
        lefts = [[entries[e] for entries, e in zip(lefts_of, index)] for index, _ in systems]
        for ls in lefts:
            for rs in rights:
                layers = tuple(zip(family, ls, rs))
                for unit in (False, True):
                    yield RepleteSubsemigroup(n, unit, layers)


# ---------------------------------------------------------------------------
# Counting right systems by a sum-product
#
# The right systems of a family need own(a) to lie in admitted(c) for each
# two layers a below c (see _right_systems), so two layers neither of which
# lies below the other constrain each other only through the layers below
# and above them.  The top layer, the union of all, lies above every other
# layer; the co-atoms, the layers just below it, are pairwise incomparable,
# and the layers below a co-atom are neither the top nor a co-atom.  Call
# those the core.  Once the core layers are chosen (by backtracking, as in
# _right_systems), the right systems that extend them number
#   sum over the top entries t that admit every core path of
#   the product over the co-atoms c of the number of c's entries that admit
#   the core paths below c and whose own paths t admits.
# A minimal layer (one with no layer of the family below it) is either in
# the core or a co-atom, or the top of a one-layer family.  Its part of the
# histogram comes from the core assignment, or from splitting a co-atom's
# count into its one-path entries and the rest.
#
# The tables behind the product are shared between families and between
# calls: the catalogue per mask, one plan per family holding only indices,
# and one count table per co-atom, top and set of core paths below the
# co-atom, which recur across families (900 tables serve the 2479 nonempty
# families at n = 4, most of them under the 485-entry 4-letter top).  No
# histogram is kept: every call counts afresh.


class FamilyPlan(NamedTuple):
    """How _right_systems and the sum-product walk a nonempty union-closed
    family (ascending masks).  A histogram bit is 1 << mask for a minimal
    layer on mask (see right_system_histograms)."""

    below: tuple[tuple[int, ...], ...]  # per layer, the indices of the layers below it
    top: int
    core: tuple[int, ...]  # the core layers, ascending
    core_below: tuple[tuple[int, ...], ...]  # per core layer, the core positions below it
    core_minimal: tuple[tuple[int, int], ...]  # the minimal core layers' positions and histogram bits
    coatoms: tuple[tuple[int, tuple[int, ...]], ...]  # the co-atoms with core layers below, and their positions
    minimal_coatoms: tuple[int, ...]  # the co-atoms with no layer below them
    top_bit: int  # the top's histogram bit when it is the only layer, else 0


# One plan per nonempty union-closed family on at most MAX_CENSUS_N letters:
# 2479 at n = 4, the smaller censuses' families among them.
FAMILY_PLAN_MEMO = 2560


@lru_cache(maxsize=FAMILY_PLAN_MEMO)
def _family_plan(family: tuple[int, ...]) -> FamilyPlan:
    def below(c, layers):
        return tuple(j for j, a in enumerate(layers) if a != c and a & c == a)

    top = family[-1]
    rest = family[:-1]
    coatoms = [c for c in rest if not any(d != c and d & c == c for d in rest)]
    core = tuple(c for c in rest if c not in coatoms)
    return FamilyPlan(
        tuple(below(c, family) for c in family),
        top,
        core,
        tuple(below(c, core) for c in core),
        tuple((j, 1 << c) for j, c in enumerate(core) if not below(c, core)),
        tuple((c, below(c, core)) for c in coatoms if below(c, core)),
        tuple(c for c in coatoms if not below(c, core)),
        1 << top if not rest else 0,
    )


class CoatomCounts(NamedTuple):
    """Per entry t of the top's catalogue, the co-atom's entries that admit
    the core paths below it and whose paths t admits: their number, and how
    many hold one path."""

    totals: tuple[int, ...]
    singles: tuple[int, ...]
    nonzero: int  # the entries t with a nonzero total (bit t for entry t)


# One table per (co-atom, top, core paths below the co-atom) that the
# families on at most MAX_CENSUS_N letters meet: 900 at n = 4, the smaller
# censuses' among them.
COATOM_TABLE_MEMO = 1024


@lru_cache(maxsize=COATOM_TABLE_MEMO)
def _coatom_counts(coatom: int, top: int, lower: int) -> CoatomCounts:
    fits = [
        (paths, single)
        for _, paths, admitted, single in catalogue(coatom).entries
        if not lower & ~admitted
    ]
    totals, singles, nonzero = [], [], 0
    for t, _, admitted, _ in catalogue(top).entries:
        total = one = 0
        for paths, single in fits:
            if not paths & ~admitted:
                total += 1
                one += single
        totals.append(total)
        singles.append(one)
        if total:
            nonzero |= 1 << t
    return CoatomCounts(tuple(totals), tuple(singles), nonzero)


def _family_histogram(plan: FamilyPlan) -> dict[int, int]:
    """H[X] over the right systems of a nonempty union-closed family, X
    being the histogram bits of its minimal one-path layers, by the
    sum-product over the co-atoms."""
    top = catalogue(plan.top)
    admitting = top.admitting
    minimal = [_coatom_counts(c, plan.top, 0) for c in plan.minimal_coatoms]
    everything = (1 << len(top.entries)) - 1
    for table in minimal:
        everything &= table.nonzero
    core = [catalogue(mask).entries for mask in plan.core]
    assignments: list[tuple[tuple[int, ...], int]] = []
    _choose(0, 0, core, plan.core_below, [0] * len(core), [0] * len(core), assignments)
    # Per histogram bits of the core, the weight of each top entry t: the
    # number of core assignments with those bits that t admits, times the
    # product of the counts of the co-atoms with core layers below them.
    weights: dict[int, dict[int, int]] = {}
    for index, paths in assignments:
        x = 0
        for j, bit in plan.core_minimal:
            if core[j][index[j]][3]:
                x |= bit
        valid = everything
        for p in bit_numbers(paths):
            valid &= admitting.get(p, 0)
        columns = []
        for c, js in plan.coatoms:
            lower = 0
            for j in js:
                lower |= core[j][index[j]][1]
            table = _coatom_counts(c, plan.top, lower)
            valid &= table.nonzero
            columns.append(table.totals)
        per_top = weights.setdefault(x, {})
        for t in bit_numbers(valid):
            w = 1
            for column in columns:
                w *= column[t]
            per_top[t] = per_top.get(t, 0) + w
    if not (minimal or plan.top_bit):
        return {x: sum(per_top.values()) for x, per_top in weights.items()}
    # The minimal co-atoms, and a lone top, split each top entry's weight
    # by their one-path entries.
    hist: dict[int, int] = {}
    split: dict[int, list[tuple[int, int]]] = {}
    for x, per_top in weights.items():
        for t, w in per_top.items():
            parts = split.get(t)
            if parts is None:
                parts = [(plan.top_bit if top.entries[t][3] else 0, 1)]
                for c, table in zip(plan.minimal_coatoms, minimal):
                    one, total = table.singles[t], table.totals[t]
                    parts = [
                        (y | b, m * count)
                        for y, m in parts
                        for b, count in ((1 << c, one), (0, total - one))
                        if count
                    ]
                split[t] = parts
            for y, m in parts:
                hist[x | y] = hist.get(x | y, 0) + w * m
    return hist


def family_histograms(n: int) -> Iterator[tuple[tuple[int, ...], dict[int, int]]]:
    """Per union-closed family of nonempty alphabets over [n], as its sorted
    masks, the histogram of right_system_histograms with each X as a
    bitset: bit m set for the minimal layer on mask m.  Counted by the
    sum-product over the co-atoms, without listing the systems; the
    censuses read this form."""
    check_n(n, MAX_CENSUS_N, "replete census")
    for fam in union_closed_families(n):
        if not fam:
            yield (), {0: 1}
            continue
        family = tuple(sorted(fam))
        yield family, _family_histogram(_family_plan(family))


def right_system_histograms(n: int) -> Iterator[tuple[frozenset[int], Counter]]:
    """Per union-closed family of nonempty alphabets over [n], the histogram
    H[X] over its right systems of X, the set of the family's minimal layers
    that hold exactly one path.  H's total is R, the number of right
    systems.  The left systems are the mirror images of the right ones,
    with the same X, so H serves both sides of every replete S on the
    family: there are 2 * R**2 of them, one per (left, right, unit)."""
    for family, hist in family_histograms(n):
        yield frozenset(family), Counter(
            {frozenset(m for m in family if x >> m & 1): count for x, count in hist.items()}
        )


def count_replete(n: int) -> int:
    """Number of replete subsemigroups of T_n, from the per-family
    histograms: no S is built."""
    return sum(2 * sum(hist.values()) ** 2 for _, hist in family_histograms(n))


# At n = 5 the count has about a million decimal digits; at n = 6 its
# computation does not finish.
MAX_UNIFORM_N = 4


def count_uniform(n: int) -> int:
    """Number of inhabited uniform subsemigroups of T_n, in closed form."""
    import math

    check_n(n, MAX_UNIFORM_N, "uniform census")
    total = 0
    for k in range(n + 1):
        branches = 1
        for i in range(k):
            branches *= (k - i) ** (2 ** i)
        total += math.comb(n, k) * (2 ** branches - 1) ** 2
    return total


def count_replete_bounded_height(n: int, h: int) -> int:
    """Replete subsemigroups of T_n of height at most h, in closed form."""
    import math

    if n < 0:
        raise ValueError("n must be nonnegative")
    if h == 2:
        return 18 * n * n - 16 * n + 2
    if h == 3:
        return 2 * (
            math.comb(n, 0)
            + math.comb(n, 1)
            + 18 * math.comb(n, 2)
            + 8957 * math.comb(n, 3)
        )
    raise ValueError("closed forms are available for heights 2 and 3 only")
