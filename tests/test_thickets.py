import random

import pytest

from mirigs.errors import CapacityError, ParseError
from mirigs.monoid import LEAF, all_trees, gen_tree
from mirigs.quotients import N22, NATURALS, CoefficientRig
from mirigs.thickets import (
    Thicket,
    apparity,
    apparity_by_alphabet,
    expansion_step,
    parse_thicket,
    render_thicket,
    thicket_one,
    thicket_zero,
)
from conftest import t


def rng_thicket(rng, n=2, max_terms=4):
    trees = all_trees(n)
    return Thicket(n, {x: rng.randint(0, 3) for x in rng.sample(trees, rng.randint(0, max_terms))})


class TestBasics:
    def test_apparity_examples(self):
        f = Thicket(2, {t("ab"): 2, t("aba"): 3})
        assert apparity(f) == 3  # 5 reduces to 3
        assert apparity(thicket_zero(2)) == 0
        assert apparity(Thicket(2, {gen_tree(0): 1, gen_tree(1): 1})) == 2

    def test_zero_coefficients_dropped(self):
        f = Thicket(2, {t("ab"): 0, t("ba"): 4})  # 4 reduces to 2
        assert f.support() == {t("ba")}
        assert f.coeff(t("ba")) == 2

    def test_naturals_variant(self):
        f = Thicket(2, {t("ab"): 4}, NATURALS)
        assert f.coeff(t("ab")) == 4
        with pytest.raises(ValueError):
            f + Thicket(2, {t("ab"): 1}, N22)

    def test_addition(self):
        f = Thicket(2, {t("ab"): 3}) + Thicket(2, {t("ab"): 1})
        assert f.coeff(t("ab")) == 2  # saturating

    def test_multiplication_convolves(self):
        f = Thicket(2, {gen_tree(0): 1, gen_tree(1): 1})
        g = f * f
        assert g.support() == {gen_tree(0), gen_tree(1), t("ab"), t("ba")}
        assert g.coeff(gen_tree(0)) == 1

    def test_layers_and_alphabet(self):
        f = Thicket(2, {gen_tree(0): 2, t("ab"): 1})
        assert f.alphabet() == 0b11
        assert f.layer(0b01).support() == {gen_tree(0)}
        assert apparity_by_alphabet(f) == {0b01: 2, 0b11: 1}


class TestExpansion:
    def test_basic_move(self):
        f = Thicket(2, {gen_tree(0): 1, gen_tree(1): 1})
        g = expansion_step(f, LEAF, gen_tree(0), gen_tree(1), LEAF)
        assert g == Thicket(
            2, {gen_tree(0): 1, gen_tree(1): 1, t("ab"): 1, t("ba"): 1}
        )

    def test_one_plus_x(self):
        f = thicket_one(1) + Thicket(1, {gen_tree(0): 1})
        g = expansion_step(f, LEAF, LEAF, gen_tree(0), LEAF)
        assert g == Thicket(1, {LEAF: 1, gen_tree(0): 3})

    def test_repeated_summand_saturates(self):
        f = Thicket(2, {t("ab"): 2})
        g = expansion_step(f, LEAF, t("ab"), t("ab"), LEAF)
        assert g == f  # 2 + 2 reduces back to 2

    def test_precondition_single_copy(self):
        f = Thicket(2, {t("ab"): 1})
        with pytest.raises(ValueError):
            expansion_step(f, LEAF, t("ab"), t("ab"), LEAF)

    def test_precondition_missing_summand(self):
        f = Thicket(2, {gen_tree(0): 1})
        with pytest.raises(ValueError):
            expansion_step(f, LEAF, gen_tree(0), gen_tree(1), LEAF)

    def test_apparity_and_alphabet_invariant(self):
        # both are preserved by any applicable move
        rng = random.Random(11)
        trees = all_trees(2)
        done = 0
        while done < 200:
            f = rng_thicket(rng)
            x, u, v, y = (rng.choice(trees) for _ in range(4))
            try:
                g = expansion_step(f, x, u, v, y)
            except ValueError:
                continue
            done += 1
            assert apparity(g) == apparity(f)
            assert g.alphabet() == f.alphabet()


class TestTextFormat:
    def test_render(self):
        f = Thicket(2, {LEAF: 1, t("ab"): 2})
        assert render_thicket(f) == "1*1 + 2*ab"
        assert render_thicket(thicket_zero(2)) == "0"

    def test_parse(self):
        f = parse_thicket("2*ab + 2*aba + 3*bab + 2*ba", 2)
        assert f.coeff(t("aba")) == 2 and f.coeff(t("bab")) == 3
        assert parse_thicket("0", 2).is_zero()
        assert parse_thicket("1*1", 2) == thicket_one(2)

    def test_parse_merges_equivalent_words(self):
        assert parse_thicket("1*ab + 1*abab", 2) == Thicket(2, {t("ab"): 2})

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_thicket("ab", 2)
        with pytest.raises(ParseError):
            parse_thicket("x*ab", 2)

    @pytest.mark.parametrize(
        "text, offset",
        [
            ("-1*a", 0),  # NAT has no sign
            ("1*a + -1*b", 6),
            ("1_0*a", 0),
            ("1*ab + 1*ba + 1*aX", 17),  # the bad letter, not its place in the word
            ("3*ab + 3* b a", 11),
            ("1*a + ", 6),  # the blank term ends the text
            ("1*a +  + 1*b", 7),
            ("  x*ab", 2),
        ],
    )
    def test_parse_error_offsets(self, text, offset):
        with pytest.raises(ParseError) as info:
            parse_thicket(text, 2)
        assert info.value.offset == offset

    @pytest.mark.parametrize("char", [(2, 2), (1, 1), (2, 1), (1, 2), (3, 5)])
    def test_parse_reduces_long_coefficients(self, char):
        # Past Python's int() digit limit, a coefficient is reduced into
        # the bounded rig, here checked digit by digit.
        m, n = char
        rig = CoefficientRig(char)
        for digits in ("1" * 5000, "9" * 641, "0" * 3000 + "7" * 900, "123456789" * 700):
            residue = 0
            for d in digits:
                residue = (residue * 10 + int(d)) % n
            expected = m + (residue - m) % n
            if len(digits) <= 4300:
                assert rig.reduce(int(digits)) == expected
            f = parse_thicket(f"{digits}*a + 1*b", 2, rig)
            assert f.coeff(t("a")) == expected, (char, len(digits))
            assert f.coeff(t("b")) == 1

    def test_parse_long_natural_coefficient(self):
        digits = "1" * 4300
        assert parse_thicket(digits + "*a", 1, NATURALS).coeff(t("a")) == int(digits)
        with pytest.raises(CapacityError, match="4300 digits"):
            parse_thicket("1" * 4301 + "*a", 1, NATURALS)
        # Leading zeros do not count.
        assert parse_thicket("0" * 5000 + "12*a", 1, NATURALS).coeff(t("a")) == 12

    def test_parse_accepts_blanks_around_tokens(self):
        assert parse_thicket("  2 * ab  +3*ba ", 2) == parse_thicket("2*ab + 3*ba", 2)

    def test_roundtrip(self):
        rng = random.Random(12)
        for _ in range(50):
            f = rng_thicket(rng)
            assert parse_thicket(render_thicket(f), 2) == f
