"""Rig expression syntax.

Grammar (whitespace-insensitive, multiplication binds tighter than addition):

    expr   := term ('+' term)*
    term   := factor ('*' factor)*
    factor := NAT | LETTER | '(' expr ')'
    NAT    := [0-9]+        LETTER := [a-z]

Parentheses nest at most MAX_NESTING deep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .errors import ParseError


@dataclass(frozen=True)
class Const:
    value: int


@dataclass(frozen=True)
class Gen:
    index: int


@dataclass(frozen=True)
class Add:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Mul:
    left: "Node"
    right: "Node"


Node = Union[Const, Gen, Add, Mul]

# The parser recurses three frames per parenthesis level; this keeps it,
# and the evaluator, far from Python's recursion limit.
MAX_NESTING = 100


# Only 0, 1 and the parity of a larger constant matter in the rig, so a
# constant of more digits than this (leading zeros aside) is read as the
# least one of its class, 2 or 3.  Python converts this many digits to an
# int under any setting of its digit limit (sys.set_int_max_str_digits).
EXACT_CONST_DIGITS = 640


def _constant_value(digits: str) -> int:
    digits = digits.lstrip("0") or "0"
    if len(digits) <= EXACT_CONST_DIGITS:
        return int(digits)
    return 2 + (ord(digits[-1]) - ord("0")) % 2


def parse_expression(text: str) -> Node:
    pos = 0
    depth = 0

    def skip_ws():
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def peek():
        skip_ws()
        return text[pos] if pos < len(text) else ""

    def factor() -> Node:
        nonlocal pos, depth
        ch = peek()
        if ch == "(":
            if depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", pos)
            depth += 1
            pos += 1
            e = expr()
            if peek() != ")":
                raise ParseError("expected ')'", pos)
            pos += 1
            depth -= 1
            return e
        if "0" <= ch <= "9":
            start = pos
            while pos < len(text) and "0" <= text[pos] <= "9":
                pos += 1
            return Const(_constant_value(text[start:pos]))
        if "a" <= ch <= "z":
            pos += 1
            return Gen(ord(ch) - ord("a"))
        raise ParseError("expected a number, generator, or '('", pos)

    def term() -> Node:
        nonlocal pos
        out = factor()
        while peek() == "*":
            pos += 1
            out = Mul(out, factor())
        return out

    def expr() -> Node:
        nonlocal pos
        out = term()
        while peek() == "+":
            pos += 1
            out = Add(out, term())
        return out

    out = expr()
    skip_ws()
    if pos != len(text):
        raise ParseError("trailing input after expression", pos)
    return out


def max_generator(e: Node) -> int:
    """Largest generator index used, or -1 for a constant expression."""
    top = -1
    stack = [e]
    while stack:
        e = stack.pop()
        if isinstance(e, Gen):
            top = max(top, e.index)
        elif not isinstance(e, Const):
            stack += (e.left, e.right)
    return top
