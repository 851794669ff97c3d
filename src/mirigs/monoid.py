"""Free idempotent monoids: words, canonical decompositions, and the tree model.

Words over n generators are tuples of integer indices.  Two words are
equivalent when one can be turned into the other by inserting/deleting
squares (ww <-> w); the quotient monoid is finite and its elements are
represented exactly by labelled rooted binary trees.  This module builds
those trees, multiplies them, and exposes the extremal-path algebra used
by the subsemigroup machinery.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Optional

from .errors import CapacityError, ParseError

Word = tuple[int, ...]

MAX_GENERATORS = 26  # letter rendering a..z

# Practical exact-enumeration bound: a 5-letter alphabet already has
# 5^2 * 331776^2 trees of full height.
MAX_ENUM_ALPHABET = 4


def letter(i: int) -> str:
    return chr(ord("a") + i)


# The letters a..z as bytes, and the table that maps each to its index.
_LETTERS = bytes(range(ord("a"), ord("a") + MAX_GENERATORS))
_LETTER_INDEX = bytes.maketrans(_LETTERS, bytes(range(MAX_GENERATORS)))


def parse_word(text: str, n: Optional[int] = None) -> Word:
    """Parse a word in the one-letter-per-generator format, e.g. "bcac".

    The empty string and "1" both denote the empty word.  A word of the
    letters a..z within range is translated in one pass; anything else
    goes through the letter-by-letter loop, which reports the first bad
    character with its offset.
    """
    if text == "1":
        return ()
    if text.isascii():
        raw = text.encode("ascii")
        if not raw.translate(None, _LETTERS):
            w = raw.translate(_LETTER_INDEX)
            if n is None or not w or max(w) < n:
                return tuple(w)
    out = []
    for off, ch in enumerate(text):
        idx = ord(ch) - ord("a")
        if not (0 <= idx < MAX_GENERATORS):
            raise ParseError(f"invalid word character {ch!r}", off)
        if n is not None and idx >= n:
            raise ValueError(f"generator {ch!r} out of range for n={n}")
        out.append(idx)
    return tuple(out)


def render_word(w: Word) -> str:
    return "".join(letter(i) for i in w)


def word_alphabet(w: Word) -> int:
    """Bitmask of the generators occurring in w."""
    mask = 0
    for x in w:
        mask |= 1 << x
    return mask


def mask_size(mask: int) -> int:
    return bin(mask).count("1")


def mask_members(mask: int) -> Iterator[int]:
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


def mask_of(gens) -> int:
    out = 0
    for g in gens:
        out |= 1 << g
    return out


# ---------------------------------------------------------------------------
# Green-Rees decomposition of a word


def grf(w: Word | bytes, order: Optional[bytes] = None) -> tuple:
    """The Green-Rees decomposition (p, a, b, q) of a nonempty word: w ~ p a
    b q with p the maximal prefix missing exactly the generator a and q the
    maximal suffix missing exactly the generator b.  A plain tuple, which
    is cheaper to build than a named one.

    w is a tuple of letters or the `bytes` of one, and p and q come back as
    the same type.  A tuple holding a letter outside range(256) raises
    ValueError.  `order` may give w's letters in order of first
    occurrence, as `bytes`; it is computed when left out.

    a is the last letter to make its first appearance, and p ends just
    before that appearance; b is the letter whose last appearance comes
    first, and q starts just after it.  Both are C-level searches of the
    bytes: one `find` for a and one `rfind` per letter for b.
    """
    if not w:
        raise ValueError("the empty word has no Green-Rees decomposition")
    u = w if type(w) is bytes else bytes(w)
    if order is None:
        order = bytes(dict.fromkeys(u))
    a = order[-1]
    r = min(map(u.rfind, order))
    b = u[r]
    p = u[: u.find(a)]
    q = u[r + 1 :]
    if u is w:
        return p, a, b, q
    return tuple(p), a, b, tuple(q)


# ---------------------------------------------------------------------------
# The tree model
#
# A tree is either the leaf or a node (left, a0, a1, right) subject to
#   a0 not in alpha(left),  a1 not in alpha(right),
#   alpha(left) | {a0} == {a1} | alpha(right).
# Nodes are interned, so equality is identity and hashing is cheap.


class Tree:
    __slots__ = ("left", "a0", "a1", "right", "alpha", "height", "_key")

    def __init__(self, left, a0, a1, right, alpha, height):
        self.left = left
        self.a0 = a0
        self.a1 = a1
        self.right = right
        self.alpha = alpha
        self.height = height
        self._key = None

    @property
    def is_leaf(self) -> bool:
        return self.height == 0

    def sort_key(self):
        # Total order: alphabet bitmask first (leaf least), then structure.
        if self._key is None:
            if self.is_leaf:
                self._key = (0,)
            else:
                self._key = (
                    self.alpha,
                    self.left.sort_key(),
                    self.a0,
                    self.a1,
                    self.right.sort_key(),
                )
        return self._key

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    def __repr__(self):
        return f"Tree({render_tree(self)})"


LEAF = Tree(None, -1, -1, None, 0, 0)

_node_cache: dict[tuple, Tree] = {}


def node(left: Tree, a0: int, a1: int, right: Tree) -> Tree:
    key = (id(left), a0, a1, id(right))
    t = _node_cache.get(key)
    if t is not None:
        return t
    if left.alpha & (1 << a0):
        raise ValueError("left generator already occurs in the left subtree")
    if right.alpha & (1 << a1):
        raise ValueError("right generator already occurs in the right subtree")
    alpha = left.alpha | (1 << a0)
    if alpha != right.alpha | (1 << a1):
        raise ValueError("subtree alphabets do not match")
    t = Tree(left, a0, a1, right, alpha, mask_size(alpha))
    _node_cache[key] = t
    return t


def gen_tree(i: int) -> Tree:
    """The height-1 tree of a single generator (shorthand "(a)")."""
    return node(LEAF, i, i, LEAF)


def tree_of_word(w: Word) -> Tree:
    """The canonical tree of w, built from its Green-Rees decompositions.

    The word is converted to `bytes` once, so a subword is a `memcpy`
    slice with a cached hash; a tuple holding a letter outside range(256)
    raises ValueError.  The recursions on the prefix p and the suffix q of
    w ~ p a b q reach many of the same subwords, so each distinct subword
    is decomposed once and its tree looked up after that: `grf` runs once
    per distinct subword, not about 2^|alphabet| times.  The memo lives
    for this call only.

    Each subword is decomposed with its letters in order of first
    occurrence.  p inherits its parent's order minus the last letter a,
    so only a suffix q that misses the memo needs a `dict.fromkeys` pass.
    The cost is mostly the number of distinct subwords: about 500, of
    about 10 letters each, for a random 1000-letter word on 16 letters.
    """
    u = bytes(w)
    if not u:
        return LEAF
    return _tree_of_subword(u, bytes(dict.fromkeys(u)), {b"": LEAF})


def _tree_of_subword(u: bytes, order: bytes, memo: dict[bytes, Tree]) -> Tree:
    # The tree of a nonempty subword u that is not in the memo yet, whose
    # letters in order of first occurrence are `order`.  A module-level
    # function, not a closure: a closure that calls itself is a reference
    # cycle, which would keep each call's memo alive until the cyclic
    # garbage collector runs.  grf is looked up in the module on each
    # call, so a wrapper installed there sees every decomposition.
    p, a, b, q = grf(u, order)
    left = memo.get(p)
    if left is None:
        left = _tree_of_subword(p, order[:-1], memo)
    right = memo.get(q)
    if right is None:
        right = _tree_of_subword(q, bytes(dict.fromkeys(q)), memo)
    t = memo[u] = node(left, a, b, right)
    return t


def word_of_tree(t: Tree) -> Word:
    """Read the generators of the fully expanded tree in order."""
    if t.is_leaf:
        return ()
    return word_of_tree(t.left) + (t.a0, t.a1) + word_of_tree(t.right)


def words_equivalent(w1: Word, w2: Word) -> bool:
    return tree_of_word(w1) is tree_of_word(w2)


_product_cache: dict[tuple[int, int], Tree] = {}


def tree_product(s: Tree, t: Tree) -> Tree:
    """Monoid product; equals tree_of_word(word_of_tree(s) + word_of_tree(t))."""
    if s.is_leaf:
        return t
    if t.is_leaf:
        return s
    key = (id(s), id(t))
    out = _product_cache.get(key)
    if out is not None:
        return out
    if t.alpha & ~s.alpha & (1 << t.a0):
        left, a0 = tree_product(s, t.left), t.a0
    else:
        q = tree_product(s, t.left)
        left, a0 = q.left, q.a0
    if s.alpha & ~t.alpha & (1 << s.a1):
        right, a1 = tree_product(s.right, t), s.a1
    else:
        q = tree_product(s.right, t)
        right, a1 = q.right, q.a1
    out = node(left, a0, a1, right)
    _product_cache[key] = out
    return out


# ---------------------------------------------------------------------------
# Extremal paths
#
# The rightmost path of a tree lists its generators in order of last
# occurrence in any representing word, the leftmost path in order of first
# occurrence.  Both are total orders on the alphabet.


def rmp(t: Tree) -> tuple[int, ...]:
    out = []
    while not t.is_leaf:
        out.append(t.a1)
        t = t.right
    return tuple(out)


def lmp(t: Tree) -> tuple[int, ...]:
    out = []
    while not t.is_leaf:
        out.append(t.a0)
        t = t.left
    out.reverse()
    return tuple(out)


def star_right(rho, sigma):
    """rmp analogue of concatenation: rmp(s*t) = star_right(rmp s, rmp t).

    Keeps the entries of rho not occurring in sigma (in order), then sigma.
    """
    sigma = tuple(sigma)
    return tuple([x for x in rho if x not in sigma]) + sigma


def star_left(rho, sigma):
    """lmp analogue: lmp(s*t) = star_left(lmp s, lmp t)."""
    rho = tuple(rho)
    return rho + tuple([x for x in sigma if x not in rho])


# ---------------------------------------------------------------------------
# Enumeration and counting


def tree_count_full(k: int) -> int:
    """Number of trees whose alphabet is a given k-element set: c_k = k^2 c_{k-1}^2."""
    c = 1
    for j in range(1, k + 1):
        c = j * j * c * c
    return c


def check_n(n: int, limit: int, what: str) -> None:
    """The generator-count check of every census and enumeration: n must be
    nonnegative (ValueError) and at most limit (CapacityError naming what)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > limit:
        raise CapacityError(f"{what} supported for n <= {limit}")


# The size at 14 generators has more than 4300 decimal digits, Python's
# default limit for converting an int to text.
MAX_MONOID_COUNT_N = 13


def count_free_monoid(n: int) -> int:
    """Size of the free idempotent monoid on n generators."""
    check_n(n, MAX_MONOID_COUNT_N, "monoid census")
    import math

    return sum(math.comb(n, k) * tree_count_full(k) for k in range(n + 1))


@lru_cache(maxsize=None)
def _trees_on(mask: int) -> tuple[Tree, ...]:
    if mask_size(mask) > MAX_ENUM_ALPHABET:
        raise CapacityError(
            f"tree enumeration supports alphabets of at most {MAX_ENUM_ALPHABET} generators"
        )
    if mask == 0:
        return (LEAF,)
    out = []
    members = list(mask_members(mask))
    for a0 in members:
        for a1 in members:
            for l in _trees_on(mask & ~(1 << a0)):
                for r in _trees_on(mask & ~(1 << a1)):
                    out.append(node(l, a0, a1, r))
    out.sort(key=Tree.sort_key)
    return tuple(out)


def enumerate_trees(mask: int) -> list[Tree]:
    """All trees with alphabet exactly `mask`, in canonical order."""
    return list(_trees_on(mask))


def all_trees(n: int) -> list[Tree]:
    """All of T_n in canonical order (leaf first)."""
    ts = []
    for mask in range(1 << n):
        ts.extend(_trees_on(mask))
    ts.sort(key=Tree.sort_key)
    return ts


@lru_cache(maxsize=None)
def trees_with_rmp(sigma: tuple[int, ...]) -> tuple[Tree, ...]:
    """All trees with alphabet support(sigma) and rightmost path sigma."""
    if not sigma:
        return (LEAF,)
    mask = mask_of(sigma)
    out = []
    for a0 in mask_members(mask):
        for l in _trees_on(mask & ~(1 << a0)):
            for r in trees_with_rmp(sigma[1:]):
                out.append(node(l, a0, sigma[0], r))
    return tuple(sorted(out, key=Tree.sort_key))


@lru_cache(maxsize=None)
def trees_with_lmp(lam: tuple[int, ...]) -> tuple[Tree, ...]:
    """All trees with alphabet support(lam) and leftmost path lam."""
    if not lam:
        return (LEAF,)
    mask = mask_of(lam)
    out = []
    for a1 in mask_members(mask):
        for l in trees_with_lmp(lam[:-1]):
            for r in _trees_on(mask & ~(1 << a1)):
                out.append(node(l, lam[-1], a1, r))
    return tuple(sorted(out, key=Tree.sort_key))


# Shortest-word search walks the whole submonoid on the word's alphabet,
# which is out of reach beyond three generators (|M_4| = 332381).
MAX_SHORTEST_ALPHABET = 3


@lru_cache(maxsize=None)
def _shortest_words_on(mask: int) -> dict:
    gens = [(g, gen_tree(g)) for g in mask_members(mask)]
    words = {id(LEAF): ()}
    trees = {id(LEAF): LEAF}
    frontier = [LEAF]
    while frontier:
        fresh = []
        for t in frontier:
            for g, gt in gens:
                u = tree_product(t, gt)
                if id(u) not in words:
                    words[id(u)] = words[id(t)] + (g,)
                    trees[id(u)] = u
                    fresh.append(u)
        frontier = fresh
    return {trees[i]: w for i, w in words.items()}


def shortest_word(t: Tree) -> Word:
    """A minimum-length word representing the tree."""
    if t.height > MAX_SHORTEST_ALPHABET:
        raise CapacityError(
            f"shortest-word search supports alphabets of at most {MAX_SHORTEST_ALPHABET} generators"
        )
    return _shortest_words_on(t.alpha)[t]


@lru_cache(maxsize=None)
def monoid_table(n: int):
    """(elements, index map, product table, unit index) for the full monoid on n generators."""
    elements = all_trees(n)
    index = {id(t): i for i, t in enumerate(elements)}
    table = [
        [index[id(tree_product(s, t))] for t in elements] for s in elements
    ]
    return elements, index, table, index[id(LEAF)]


# ---------------------------------------------------------------------------
# Tree s-expressions:  tree := "()" | "(" gen ")" | "(" tree " " gen " " gen " " tree ")"
# The one-letter shorthand is accepted on input and expanded on output.


# Every node is written out, so the text of a tree of height h has
# 9 * 2^h - 7 bytes: 9.4 MB at 20 generators, 600 MB at 26.
MAX_RENDER_ALPHABET = 20


def render_tree(t: Tree) -> str:
    if t.height > MAX_RENDER_ALPHABET:
        raise CapacityError(
            f"tree text output supports alphabets of at most {MAX_RENDER_ALPHABET} generators"
        )
    if t.is_leaf:
        return "()"
    return "({} {} {} {})".format(
        render_tree(t.left), letter(t.a0), letter(t.a1), render_tree(t.right)
    )


# A tree's height is the size of its alphabet, so a valid tree nests at most
# one more level of parentheses (its leaves) than there are generators.
MAX_TREE_NESTING = MAX_GENERATORS + 1


def parse_tree(text: str, n: Optional[int] = None) -> Tree:
    pos = 0

    def skip_ws():
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def expect(ch):
        nonlocal pos
        if pos >= len(text) or text[pos] != ch:
            raise ParseError(f"expected {ch!r}", pos)
        pos += 1

    def gen() -> int:
        nonlocal pos
        if pos >= len(text) or not text[pos].islower():
            raise ParseError("expected a generator letter", pos)
        idx = ord(text[pos]) - ord("a")
        if idx >= MAX_GENERATORS or (n is not None and idx >= n):
            raise ParseError("generator out of range", pos)
        pos += 1
        return idx

    def tree(depth: int) -> Tree:
        nonlocal pos
        skip_ws()
        if depth > MAX_TREE_NESTING and pos < len(text) and text[pos] == "(":
            raise ParseError(
                f"trees nest at most {MAX_TREE_NESTING} parentheses deep", pos
            )
        expect("(")
        skip_ws()
        if pos < len(text) and text[pos] == ")":
            pos += 1
            return LEAF
        if pos < len(text) and text[pos].islower():
            # could be shorthand "(a)" or the start of nothing else: a node
            # always begins with "(" for its left subtree
            g = gen()
            skip_ws()
            expect(")")
            return gen_tree(g)
        left = tree(depth + 1)
        skip_ws()
        a0 = gen()
        skip_ws()
        a1 = gen()
        skip_ws()
        right = tree(depth + 1)
        skip_ws()
        expect(")")
        try:
            return node(left, a0, a1, right)
        except ValueError as e:
            raise ParseError(str(e), pos) from None

    out = tree(1)
    skip_ws()
    if pos != len(text):
        raise ParseError("trailing input after tree", pos)
    return out
