import pytest

from mirigs.errors import ParseError
from mirigs.expressions import (
    MAX_NESTING,
    Add,
    Const,
    Gen,
    Mul,
    max_generator,
    parse_expression,
)


def test_precedence():
    e = parse_expression("a+b*c")
    assert e == Add(Gen(0), Mul(Gen(1), Gen(2)))


def test_parentheses():
    e = parse_expression("(a+b)*c")
    assert e == Mul(Add(Gen(0), Gen(1)), Gen(2))


def test_left_fold():
    assert parse_expression("a+b+c") == Add(Add(Gen(0), Gen(1)), Gen(2))
    assert parse_expression("a*b*c") == Mul(Mul(Gen(0), Gen(1)), Gen(2))


def test_numbers_and_whitespace():
    assert parse_expression("  12 +  a ") == Add(Const(12), Gen(0))
    assert parse_expression("1+1+1+1") == Add(Add(Add(Const(1), Const(1)), Const(1)), Const(1))


def test_long_constants_read_as_their_class():
    # Only 0, 1 and the parity of a larger constant matter; past Python's
    # 4300-digit limit on int() the class is read off the digits.
    long = 5000
    assert parse_expression("0" * long) == Const(0)
    assert parse_expression("0" * long + "1") == Const(1)
    assert parse_expression("1" + "0" * long) == Const(2)
    assert parse_expression("0" * long + "9" * long) == Const(3)
    assert parse_expression("12" * 320) == Const(int("12" * 320))


def test_max_generator():
    assert max_generator(parse_expression("2")) == -1
    assert max_generator(parse_expression("a*(b+c)")) == 2


@pytest.mark.parametrize(
    "text,offset",
    [
        ("a+", 2), ("", 0), ("a b", 2), ("(a", 2), ("a+*b", 2), ("A", 0),
        ("\u00b2", 0), ("a+\u0663", 2), ("1\u0663", 1),
    ],
)
def test_errors_carry_offsets(text, offset):
    with pytest.raises(ParseError) as info:
        parse_expression(text)
    assert info.value.offset == offset


def test_nesting_cap():
    inner = "(" * MAX_NESTING + "a" + ")" * MAX_NESTING
    assert parse_expression(inner) == Gen(0)
    with pytest.raises(ParseError) as info:
        parse_expression("b*(" + inner + ")")
    assert info.value.offset == 2 + MAX_NESTING  # the first '(' past the cap


def test_max_generator_any_depth():
    assert max_generator(parse_expression("+".join("abcd" * 1000))) == 3
    deep = Gen(0)
    for i in range(5000):
        deep = Mul(Gen(i % 5), deep)
    assert max_generator(deep) == 4
