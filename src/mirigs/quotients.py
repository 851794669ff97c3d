"""Quotient rigs of the naturals, finite rig tables, and axiom checking.

N_{m,n} has carrier {0, ..., m+n-1}; sums and products are computed in the
naturals and any overflow is reduced modulo n into the window
[m, m+n-1].  The subrig generated by 1 in any rig is one of these, which
is what the characteristic of a rig records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import CapacityError


def reduce_nat(k: int, m: int, n: int) -> int:
    if k <= m + n - 1:
        return k
    return m + (k - m) % n


# Python converts a numeral of this many digits to an int under any setting
# of its digit limit (sys.set_int_max_str_digits), so longer numerals are
# read in blocks of this many.
NUMERAL_BLOCK = 640

# A coefficient in the naturals is kept exactly, and Python's default digit
# limit for converting an int to text or back is this; a longer numeral is
# refused.
MAX_NATURAL_DIGITS = 4300


class CoefficientRig:
    """Thicket coefficient arithmetic: N_{m,n}, or the naturals when unbounded."""

    def __init__(self, char: Optional[tuple[int, int]] = (2, 2)):
        self.char = char

    def reduce(self, k: int) -> int:
        if self.char is None:
            return k
        return reduce_nat(k, *self.char)

    def numeral_value(self, digits: str) -> int:
        """A natural naming the same element as a decimal numeral (ASCII
        digits), for add and reduce to reduce: the numeral's own value, or,
        past NUMERAL_BLOCK digits in N_{m,n}, its reduction, found block by
        block modulo n without converting it whole.  In the naturals a
        numeral of more than MAX_NATURAL_DIGITS digits, leading zeros
        aside, is a CapacityError."""
        if len(digits) > NUMERAL_BLOCK:
            digits = digits.lstrip("0") or "0"
        if self.char is None and len(digits) > MAX_NATURAL_DIGITS:
            raise CapacityError(
                f"coefficients in the naturals are supported up to {MAX_NATURAL_DIGITS} digits"
            )
        if self.char is None or len(digits) <= NUMERAL_BLOCK:
            return int(digits)
        # The numeral k exceeds m + n - 1 (m and n being far shorter than a
        # block), so it reduces to m + (k - m) mod n.
        m, n = self.char
        k = 0
        for i in range(0, len(digits), NUMERAL_BLOCK):
            block = digits[i : i + NUMERAL_BLOCK]
            k = (k * pow(10, len(block), n) + int(block)) % n
        return m + (k - m) % n

    def add(self, x: int, y: int) -> int:
        return self.reduce(x + y)

    def mul(self, x: int, y: int) -> int:
        return self.reduce(x * y)

    def __eq__(self, other):
        return isinstance(other, CoefficientRig) and self.char == other.char

    def __hash__(self):
        return hash(self.char)

    def __repr__(self):
        return f"CoefficientRig({self.char})"


N22 = CoefficientRig((2, 2))
NATURALS = CoefficientRig(None)


# ---------------------------------------------------------------------------
# Finite rig tables


@dataclass
class FiniteRigTable:
    elements: list[str]
    add: list[list[int]]
    mul: list[list[int]]
    zero: int
    one: int

    def size(self) -> int:
        return len(self.elements)


@dataclass
class MonoidTable:
    """A finite monoid's multiplication table: mul[i][j] is the index of
    the product of elements i and j, and one the index of the unit.  The
    shape is checked on construction (ValueError naming the fault), so that
    no index wraps around or runs past the table."""

    elements: list[str]
    mul: list[list[int]]
    one: int

    def __post_init__(self):
        elements, mul, one = self.elements, self.mul, self.one
        if not isinstance(elements, list) or not all(isinstance(e, str) for e in elements):
            raise ValueError("monoid table: elements must be a list of strings")
        size = len(elements)
        if not isinstance(mul, list) or len(mul) != size:
            raise ValueError(f"monoid table: mul must be a list of {size} rows, one per element")
        for i, row in enumerate(mul):
            if not isinstance(row, list) or len(row) != size:
                raise ValueError(f"monoid table: mul row {i} must be a list of {size} entries")
            if not all(type(v) is int and 0 <= v < size for v in row):
                raise ValueError(
                    f"monoid table: mul row {i} has an entry that is not an int in 0..{size - 1}"
                )
        if type(one) is not int or not 0 <= one < size:
            raise ValueError(f"monoid table: one must be an int in 0..{size - 1}")


@dataclass
class AxiomReport:
    violations: list[tuple[str, tuple]] = field(default_factory=list)
    commutative: bool = True
    mirig: bool = True

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_rig_axioms(table: FiniteRigTable, require_mirig: bool = False) -> AxiomReport:
    """Exhaustively check the eleven rig axioms (and optionally x^2 = x)."""
    add, mul, z, o = table.add, table.mul, table.zero, table.one
    rng = range(table.size())
    report = AxiomReport()
    bad = report.violations.append
    for x in rng:
        if add[x][z] != x:
            bad(("add_unit_right", (x,)))
        if add[z][x] != x:
            bad(("add_unit_left", (x,)))
        if mul[x][o] != x:
            bad(("mul_unit_right", (x,)))
        if mul[o][x] != x:
            bad(("mul_unit_left", (x,)))
        if mul[x][z] != z:
            bad(("zero_absorb_right", (x,)))
        if mul[z][x] != z:
            bad(("zero_absorb_left", (x,)))
        if require_mirig and mul[x][x] != x:
            bad(("mul_idempotent", (x,)))
        if mul[x][x] != x:
            report.mirig = False
    for x in rng:
        for y in rng:
            if add[x][y] != add[y][x]:
                bad(("add_comm", (x, y)))
            if mul[x][y] != mul[y][x]:
                report.commutative = False
            for w in rng:
                if add[add[x][y]][w] != add[x][add[y][w]]:
                    bad(("add_assoc", (x, y, w)))
                if mul[mul[x][y]][w] != mul[x][mul[y][w]]:
                    bad(("mul_assoc", (x, y, w)))
                if mul[x][add[y][w]] != add[mul[x][y]][mul[x][w]]:
                    bad(("distrib_left", (x, y, w)))
                if mul[add[x][y]][w] != add[mul[x][w]][mul[y][w]]:
                    bad(("distrib_right", (x, y, w)))
    return report


def nmn_table(m: int, n: int) -> FiniteRigTable:
    size = m + n
    elems = [str(k) for k in range(size)]
    add = [[reduce_nat(i + j, m, n) for j in range(size)] for i in range(size)]
    mul = [[reduce_nat(i * j, m, n) for j in range(size)] for i in range(size)]
    # (0, 1) is the degenerate rig where 0 = 1
    return FiniteRigTable(elems, add, mul, zero=0, one=min(1, size - 1))


def characteristic(table: FiniteRigTable) -> tuple[int, int]:
    """(m, n) such that the subrig generated by 1 is N_{m,n}."""
    seen = {}
    x = table.zero
    i = 0
    while x not in seen:
        seen[x] = i
        x = table.add[x][table.one]
        i += 1
    return seen[x], i - seen[x]


def is_idempotent_monoid(table: MonoidTable) -> bool:
    rng = range(len(table.elements))
    mul, one = table.mul, table.one
    if any(mul[one][x] != x or mul[x][one] != x for x in rng):
        return False
    if any(mul[x][x] != x for x in rng):
        return False
    return all(
        mul[mul[x][y]][w] == mul[x][mul[y][w]] for x in rng for y in rng for w in rng
    )


# is_idempotent_monoid and verify_rig_axioms check every triple of elements,
# so the time grows as the cube of the size: `campion --monoid free:3` (160
# elements) takes about 2 s and a 256-element table 8-9 s (2-vCPU Xeon), so
# 512 elements would take over a minute.
MAX_CAMPION_MONOID_SIZE = 256


def campion_mirig(monoid: MonoidTable) -> FiniteRigTable:
    """Adjoin a zero and an additively absorbing element to an idempotent
    monoid, making every sum of monoid elements absorb.  The result is a
    mirig of characteristic (2,1), noncommutative iff the monoid is.

    The zero annihilates multiplicatively (forced by the rig axioms)."""
    if len(monoid.elements) > MAX_CAMPION_MONOID_SIZE:
        raise CapacityError(
            f"Campion mirig supported for monoids of at most {MAX_CAMPION_MONOID_SIZE} elements"
        )
    if not is_idempotent_monoid(monoid):
        raise ValueError("input is not an idempotent monoid")
    size = len(monoid.elements)
    # layout: 0, the monoid, then the absorbing element "2"
    elems = ["0"] + list(monoid.elements) + ["2"]
    zero, top = 0, size + 1
    total = size + 2

    def mul(i, j):
        if i == zero or j == zero:
            return zero
        if i == top or j == top:
            return top
        return monoid.mul[i - 1][j - 1] + 1

    def add(i, j):
        if i == zero:
            return j
        if j == zero:
            return i
        return top

    return FiniteRigTable(
        elems,
        [[add(i, j) for j in range(total)] for i in range(total)],
        [[mul(i, j) for j in range(total)] for i in range(total)],
        zero=zero,
        one=monoid.one + 1,
    )


# The free idempotent monoid has 160 elements on three generators, whose
# Campion mirig `campion --monoid free:3` checks in about 2 s, and 332 381
# on four, whose product table alone has about 1.1e11 entries.
MAX_FREE_MONOID_TABLE_N = 3


def free_idempotent_monoid_table(n: int) -> MonoidTable:
    """Multiplication table of the free idempotent monoid on n generators."""
    from .monoid import check_n, monoid_table, render_word, shortest_word

    check_n(n, MAX_FREE_MONOID_TABLE_N, "free idempotent monoid table")
    elements, _, table, unit = monoid_table(n)
    names = [render_word(shortest_word(t)) or "1" for t in elements]
    return MonoidTable(names, [list(row) for row in table], unit)
