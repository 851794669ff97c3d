"""Thickets: formal sums of trees with coefficients in a quotient of the
naturals (N_{2,2} by default, giving representatives of free-mirig elements;
unbounded coefficients give forests).
"""

from __future__ import annotations

from functools import total_ordering

from .errors import ParseError
from .monoid import (
    LEAF,
    MAX_SHORTEST_ALPHABET,
    Tree,
    parse_word,
    render_word,
    shortest_word,
    tree_of_word,
    tree_product,
    word_of_tree,
)
from .quotients import N22, CoefficientRig


@total_ordering
class Thicket:
    """Immutable formal sum of trees; zero coefficients are never stored."""

    __slots__ = ("n", "rig", "_coeffs", "_items")

    def __init__(self, n: int, terms=(), rig: CoefficientRig = N22):
        self.n = n
        self.rig = rig
        coeffs = {}
        for t, c in dict(terms).items():
            c = rig.reduce(c)
            if c:
                coeffs[t] = c
        self._coeffs = coeffs
        self._items = tuple(sorted(coeffs.items(), key=lambda tc: tc[0].sort_key()))

    def items(self):
        return self._items

    def coeff(self, t: Tree) -> int:
        return self._coeffs.get(t, 0)

    def support(self):
        return frozenset(self._coeffs)

    def alphabet(self) -> int:
        mask = 0
        for t in self._coeffs:
            mask |= t.alpha
        return mask

    def is_zero(self) -> bool:
        return not self._coeffs

    def layer(self, mask: int) -> "Thicket":
        return Thicket(
            self.n,
            {t: c for t, c in self._coeffs.items() if t.alpha == mask},
            self.rig,
        )

    def __eq__(self, other):
        return (
            isinstance(other, Thicket)
            and self.n == other.n
            and self.rig == other.rig
            and self._items == other._items
        )

    def __lt__(self, other):
        return self._items < other._items

    def __hash__(self):
        return hash((self.n, self.rig, self._items))

    def __add__(self, other):
        self._check(other)
        coeffs = dict(self._coeffs)
        for t, c in other._coeffs.items():
            coeffs[t] = self.rig.add(coeffs.get(t, 0), c)
        return Thicket(self.n, coeffs, self.rig)

    def __mul__(self, other):
        self._check(other)
        coeffs = {}
        for s, c in self._coeffs.items():
            for t, d in other._coeffs.items():
                st = tree_product(s, t)
                coeffs[st] = self.rig.add(coeffs.get(st, 0), self.rig.mul(c, d))
        return Thicket(self.n, coeffs, self.rig)

    def _check(self, other):
        if self.n != other.n or self.rig != other.rig:
            raise ValueError("thicket parameters do not match")

    def __repr__(self):
        return f"Thicket({render_thicket(self)})"


def thicket_zero(n: int, rig: CoefficientRig = N22) -> Thicket:
    return Thicket(n, {}, rig)


def thicket_one(n: int, rig: CoefficientRig = N22) -> Thicket:
    return Thicket(n, {LEAF: 1}, rig)


def apparity(f: Thicket) -> int:
    """Sum of the coefficients in the coefficient rig."""
    total = 0
    for _, c in f.items():
        total = f.rig.add(total, c)
    return total


def apparity_by_alphabet(f: Thicket) -> dict[int, int]:
    out: dict[int, int] = {}
    for t, c in f.items():
        out[t.alpha] = f.rig.add(out.get(t.alpha, 0), c)
    return out


def expansion_step(f: Thicket, x: Tree, u: Tree, v: Tree, y: Tree) -> Thicket:
    """One squaring move: with xuy and xvy both present, add xuvy and xvuy.

    Preconditions: coeff(xuy) >= 1 and coeff(xvy) >= 1, jointly >= 2 when the
    two trees coincide.  The result represents the same rig element.
    """
    xuy = tree_product(tree_product(x, u), y)
    xvy = tree_product(tree_product(x, v), y)
    if xuy is xvy:
        if f.coeff(xuy) < 2:
            raise ValueError("expansion needs two copies of the repeated summand")
    elif f.coeff(xuy) < 1 or f.coeff(xvy) < 1:
        raise ValueError("expansion requires both summands to be present")
    xuvy = tree_product(tree_product(x, tree_product(u, v)), y)
    xvuy = tree_product(tree_product(x, tree_product(v, u)), y)
    coeffs = dict(f._coeffs)
    for t in (xuvy, xvuy):
        coeffs[t] = f.rig.add(coeffs.get(t, 0), 1)
    return Thicket(f.n, coeffs, f.rig)


# ---------------------------------------------------------------------------
# Text format:  k '*' word (' + ' k '*' word)*  with "1" for the trivial tree


def render_thicket(f: Thicket) -> str:
    if f.is_zero():
        return "0"
    parts = []
    for t, c in f.items():
        w = shortest_word(t) if t.height <= MAX_SHORTEST_ALPHABET else word_of_tree(t)
        parts.append(f"{c}*{render_word(w) or '1'}")
    return " + ".join(parts)


def parse_thicket(text: str, n: int, rig: CoefficientRig = N22) -> Thicket:
    """Parse the text format above.  Errors carry the byte offset, in the
    whole text, of the bad term (the end of its chunk when it is blank) or
    of the bad character of its word.  A coefficient of any length is
    reduced into a bounded rig; in the naturals one past
    MAX_NATURAL_DIGITS digits is a CapacityError."""
    coeffs: dict[Tree, int] = {}
    if text.strip() == "0":
        return Thicket(n, {}, rig)
    start = 0  # offset of the chunk
    for chunk in text.split("+"):
        k_text, star, word_text = chunk.partition("*")
        k_text = k_text.strip()
        if not (star and k_text.isascii() and k_text.isdigit()):
            message = "invalid coefficient" if star else "expected 'coefficient*word' term"
            raise ParseError(message, start + len(chunk) - len(chunk.lstrip()))
        try:
            w = parse_word(word_text.strip(), n)
        except ParseError as exc:
            word_start = start + len(chunk) - len(word_text.lstrip())
            raise ParseError(exc.message, word_start + exc.offset) from None
        t = tree_of_word(w)
        coeffs[t] = rig.add(coeffs.get(t, 0), rig.numeral_value(k_text))
        start += len(chunk) + 1
    return Thicket(n, coeffs, rig)
