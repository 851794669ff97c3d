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
from typing import FrozenSet, Iterator

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

# Exact replete enumeration is only promised up to three generators; the
# per-layer path-set catalogue grows super-exponentially after that.
MAX_REPLETE_N = 3


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
    first MAX_REPLETE_N letters (15 paths on 3): entry [i][j] holds the bits
    of star_right(p, q) and star_right(q, p), p and q numbered i and j,
    read from the rows."""
    num = path_numbering(MAX_REPLETE_N)
    count = num.layer_start[1 << MAX_REPLETE_N]
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
    Small alphabets only; the height-3 case recovers the 22 closed sets.
    """
    if mask_size(mask) > 3:
        raise CapacityError("path-set catalogue supported for alphabets of size <= 3")
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
    check_n(mask.bit_length(), MAX_REPLETE_N, "path-set catalogue")
    num = path_numbering(MAX_REPLETE_N)
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
    families first, each size in lexicographic order of the sorted masks."""
    masks = [m for m in range(1, 1 << n)]
    out = []
    for r in range(len(masks) + 1):
        for combo in itertools.combinations(masks, r):
            fam = frozenset(combo)
            if all(a | b in fam for a in fam for b in fam):
                out.append(fam)
    return out


def _right_systems(family: list[int]) -> Iterator[tuple[dict, int]]:
    """All assignments mask -> closed right path set over a union-closed family,
    given in ascending order, that are closed under cross-layer products,
    each with the bits of all its paths (bits_of).

    Backtracks over the layers in ascending mask order, so the systems come
    out in the order of itertools.product over the per-layer catalogues.
    A product lands on the union of its factors' alphabets, a mask no
    smaller than either, so each layer is checked when it is chosen,
    against the layers below it (its subsets, all chosen earlier).  Only
    star_right(t, p), with t on the layer and p below it, needs a check:
    star_right(p, t) is t, and when the layer is a | b, star_right(p, q)
    with p on a and q on b equals star_right(star_right(t, p), q) for any
    t on the layer.  The check is one AND: the paths below must all be
    among those the catalogue entry admits (closed_path_set_bits)."""
    below = [[a for a in family[:i] if a & c == a] for i, c in enumerate(family)]
    chosen: dict[int, frozenset] = {}
    chosen_bits: dict[int, int] = {}

    def extend(i: int, bits: int) -> Iterator[tuple[dict, int]]:
        if i == len(family):
            yield dict(chosen), bits
            return
        c = family[i]
        lower = 0
        for a in below[i]:
            lower |= chosen_bits[a]
        for target, own, admitted in closed_path_set_bits(c):
            if not lower & ~admitted:
                chosen[c] = target
                chosen_bits[c] = own
                yield from extend(i + 1, bits | own)
        chosen.pop(c, None)

    return extend(0, 0)


def right_systems_by_family(n: int) -> Iterator[tuple[list[int], list[tuple[dict, int]]]]:
    """Per union-closed family of nonempty alphabets over [n], as its sorted
    masks, the family's right systems with their path bits (_right_systems).
    The one walk over the families behind enumerate_replete (in its order),
    right_system_histograms and the triples census."""
    for fam in union_closed_families(n):
        family = sorted(fam)
        yield family, list(_right_systems(family))


def enumerate_replete(n: int) -> Iterator[RepleteSubsemigroup]:
    """Every replete subsemigroup of T_n exactly once, compactly represented."""
    check_n(n, MAX_REPLETE_N, "replete enumeration")
    for family, systems in right_systems_by_family(n):
        # Each system's paths, sorted once, per mask in ascending order: the
        # layers of every S on the family zip one left and one right system.
        rights = [[tuple(sorted(system[mask])) for mask in family] for system, _ in systems]
        lefts = [[tuple(sorted(p[::-1] for p in ps)) for ps in system] for system in rights]
        for ls in lefts:
            for rs in rights:
                layers = tuple(zip(family, ls, rs))
                for unit in (False, True):
                    yield RepleteSubsemigroup(n, unit, layers)


def right_system_histograms(n: int) -> Iterator[tuple[frozenset[int], Counter]]:
    """Per union-closed family of nonempty alphabets over [n], the histogram
    H[X] over its right systems of X, the set of the family's minimal layers
    that hold exactly one path.  H's total is R, the number of right
    systems.  The left systems are the mirror images of the right ones,
    with the same X, so H serves both sides of every replete S on the
    family: there are 2 * R**2 of them, one per (left, right, unit)."""
    check_n(n, MAX_REPLETE_N, "replete census")
    for family, systems in right_systems_by_family(n):
        minimal = [a for a in family if not any(b != a and b & a == b for b in family)]
        yield frozenset(family), Counter(
            frozenset(a for a in minimal if len(system[a]) == 1) for system, _ in systems
        )


def count_replete(n: int) -> int:
    """Number of replete subsemigroups of T_n, from the per-family
    histograms: no S is built."""
    return sum(2 * sum(hist.values()) ** 2 for _, hist in right_system_histograms(n))


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
