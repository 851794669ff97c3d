import itertools
import random

import pytest
from hypothesis import given, strategies as st

import tree_reference as ref
from tree_reference import is_left_factor, is_right_factor
from mirigs import monoid
from mirigs.errors import CapacityError, ParseError
from mirigs.monoid import (
    LEAF,
    MAX_GENERATORS,
    MAX_RENDER_ALPHABET,
    MAX_TREE_NESTING,
    count_free_monoid,
    enumerate_trees,
    gen_tree,
    grf,
    lmp,
    mask_of,
    parse_tree,
    parse_word,
    render_tree,
    render_word,
    rmp,
    shortest_word,
    star_right,
    tree_of_word,
    tree_product,
    word_alphabet,
    word_of_tree,
    words_equivalent,
)
from conftest import t, w

words = lambda n, max_size=10: st.lists(
    st.integers(0, n - 1), max_size=max_size
).map(tuple)


class TestWords:
    def test_alphabet(self):
        assert word_alphabet(w("bcac")) == mask_of([0, 1, 2])
        assert word_alphabet(()) == 0
        assert word_alphabet(w("aaa")) == mask_of([0])

    def test_parse_render(self):
        assert render_word(w("bcac")) == "bcac"
        assert w("1") == ()
        with pytest.raises(ParseError):
            parse_word("aB")
        with pytest.raises(ValueError):
            parse_word("abc", n=2)

    @staticmethod
    def parse_outcome(parse, text, n):
        """The word, or the type and offset of the exception raised."""
        try:
            return parse(text, n)
        except ValueError as exc:
            return type(exc), getattr(exc, "offset", None)

    @given(
        st.text(
            st.one_of(st.sampled_from("abcdxyz"), st.sampled_from("`{AZ09 \u00e9\uff41")),
            max_size=12,
        ),
        st.sampled_from([None, 1, 2, 3]),
    )
    def test_parse_matches_reference(self, text, n):
        assert self.parse_outcome(parse_word, text, n) == self.parse_outcome(
            ref.parse_word, text, n
        )

    @pytest.mark.parametrize(
        "text,n,expected",
        [
            ("", None, ()),
            ("", 1, ()),
            ("1", None, ()),
            ("1", 1, ()),
            ("11", None, (ParseError, 0)),
            ("abcD", None, (ParseError, 3)),
            ("ab1", None, (ParseError, 2)),
            ("ab\u00e9", None, (ParseError, 2)),
            ("ab\uff41", 3, (ParseError, 2)),
            ("abc{", 2, (ValueError, None)),
            ("abz", None, (0, 1, 25)),
        ],
    )
    def test_parse_edge_cases(self, text, n, expected):
        assert self.parse_outcome(parse_word, text, n) == expected
        assert self.parse_outcome(ref.parse_word, text, n) == expected


class TestGrf:
    def test_bcac(self):
        d = grf(w("bcac"))
        assert type(d) is tuple and d == (w("bc"), 0, 1, w("cac"))

    def test_two_letter(self):
        assert grf(w("ab")) == (w("a"), 1, 0, w("b"))

    def test_aba(self):
        assert grf(w("aba")) == (w("a"), 1, 1, w("a"))

    def test_single_letter(self):
        assert grf(w("a")) == ((), 0, 0, ())

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            grf(())

    @staticmethod
    def check_against_reference(word):
        """grf on the tuple and on its bytes gives the reference's
        decomposition, with p and q of the input's type."""
        expected = ref.grf(word)
        assert grf(word) == expected
        p, a, b, q = grf(bytes(word))
        assert type(p) is bytes and type(q) is bytes
        assert (tuple(p), a, b, tuple(q)) == expected

    @given(st.integers(1, 6).flatmap(lambda n: words(n, max_size=40)))
    def test_matches_reference(self, word):
        if word:
            self.check_against_reference(word)

    def test_matches_reference_on_long_words(self):
        rng = random.Random(12)
        for k in range(1, 13):
            for _ in range(8):
                word = tuple(rng.randrange(k) for _ in range(rng.randint(1, 300)))
                self.check_against_reference(word)

    @pytest.mark.parametrize("letter", [-1, 256, 1000])
    def test_out_of_range_letter_rejected(self, letter):
        # A word's letters must fit in a byte; a tuple holding any other
        # letter raises ValueError rather than building a tree.
        word = (0, letter, 1)
        with pytest.raises(ValueError):
            grf(word)
        with pytest.raises(ValueError):
            tree_of_word(word)

    @given(words(3))
    def test_soundness(self, word):
        # w is equivalent to p a b q
        if not word:
            return
        p, a, b, q = grf(word)
        assert words_equivalent(word, p + (a, b) + q)

    @given(words(3))
    def test_maximality(self, word):
        if not word:
            return
        p, a, b, q = grf(word)
        total = word_alphabet(word)
        assert word_alphabet(p) == total & ~(1 << a)
        assert word_alphabet(q) == total & ~(1 << b)
        # maximality: one more letter on either side completes the alphabet
        assert word_alphabet(word[: len(p) + 1]) == total
        assert word_alphabet(word[len(word) - len(q) - 1 :]) == total


class TestTrees:
    def test_bcac_structure(self):
        expected = "(((() b b ()) c b (() c c ())) a b ((() c c ()) a a (() c c ())))"
        assert render_tree(t("bcac")) == expected

    def test_word_of_tree_bcac(self):
        assert render_word(word_of_tree(t("bcac"))) == "bbcbccabccaacc"

    def test_word_of_tree_units(self):
        assert word_of_tree(LEAF) == ()
        assert render_word(word_of_tree(gen_tree(0))) == "aa"

    def test_square_reduction(self):
        assert t("abab") is t("ab")

    def test_empty(self):
        assert tree_of_word(()) is LEAF

    def test_equivalences(self):
        assert words_equivalent(w("abc"), w("abcbabc"))
        assert not words_equivalent(w("ab"), w("ba"))

    @given(words(3))
    def test_reflexive(self, word):
        assert words_equivalent(word, word)

    @given(words(3))
    def test_tr_well_formed(self, word):
        def check(tree):
            if tree.is_leaf:
                return
            assert not tree.left.alpha & (1 << tree.a0)
            assert not tree.right.alpha & (1 << tree.a1)
            assert tree.left.alpha | 1 << tree.a0 == tree.right.alpha | 1 << tree.a1
            check(tree.left)
            check(tree.right)

        check(tree_of_word(word))

    @given(words(3))
    def test_roundtrip_through_words(self, word):
        tree = tree_of_word(word)
        assert tree_of_word(word_of_tree(tree)) is tree

    def test_invalid_node_rejected(self):
        from mirigs.monoid import node

        with pytest.raises(ValueError):
            node(gen_tree(0), 0, 0, gen_tree(0))
        with pytest.raises(ValueError):
            node(gen_tree(0), 1, 1, gen_tree(1))  # alphabets differ


class TestProduct:
    def test_generators(self):
        assert tree_product(gen_tree(0), gen_tree(1)) is t("ab")

    def test_ab_times_ba(self):
        assert tree_product(t("ab"), t("ba")) is t("aba")

    @given(words(3, 6), words(3, 6))
    def test_matches_word_concatenation(self, w1, w2):
        # the recursive product against the word-level oracle
        assert tree_product(tree_of_word(w1), tree_of_word(w2)) is tree_of_word(w1 + w2)

    @given(words(3, 6), words(3, 6), words(3, 6))
    def test_associative(self, w1, w2, w3):
        a, b, c = tree_of_word(w1), tree_of_word(w2), tree_of_word(w3)
        assert tree_product(tree_product(a, b), c) is tree_product(a, tree_product(b, c))

    @given(words(3))
    def test_unit_and_idempotent(self, word):
        tree = tree_of_word(word)
        assert tree_product(LEAF, tree) is tree
        assert tree_product(tree, LEAF) is tree
        assert tree_product(tree, tree) is tree

    @given(words(3, 6), words(3, 6))
    def test_alphabet_union(self, w1, w2):
        a, b = tree_of_word(w1), tree_of_word(w2)
        assert tree_product(a, b).alpha == a.alpha | b.alpha

    @given(words(2, 8), words(2, 8), words(2, 8))
    def test_same_alphabet_sandwich(self, w1, w2, w3):
        u, v, x = (tree_of_word(word) for word in (w1, w2, w3))
        if not (u.alpha == v.alpha == x.alpha):
            return
        # in a fixed-alphabet fiber, the middle factor is invisible
        assert tree_product(tree_product(u, v), x) is tree_product(u, x)
        if tree_product(u, v) is tree_product(v, u):
            assert u is v


class TestFactors:
    def test_examples(self):
        assert is_left_factor(gen_tree(0), t("ab"))
        assert not is_left_factor(gen_tree(1), t("ab"))
        assert is_left_factor(LEAF, t("bcac"))
        assert is_right_factor(gen_tree(1), t("ab"))
        assert not is_right_factor(gen_tree(0), t("ab"))

    def test_uniform_branch_criterion(self):
        # same-alphabet case: left factor iff the left branches agree
        for mask in (mask_of([0, 1]), mask_of([0, 1, 2])):
            trees = enumerate_trees(mask)
            for s in trees:
                for u in trees:
                    branches_match = s.left is u.left and s.a0 == u.a0
                    assert is_left_factor(s, u) == branches_match

    def test_literal_subtree_criterion_misfires_across_heights(self):
        # (b) is not a left factor of tr(ab) although both reach the leaf
        # along the left spine; the product test is the reliable one.
        s, u = gen_tree(1), t("ab")
        assert s.left is u.left.left
        assert not is_left_factor(s, u)


class TestPaths:
    def test_bcac(self):
        assert rmp(t("bcac")) == (1, 0, 2)
        assert lmp(t("bcac")) == (1, 2, 0)
        assert rmp(LEAF) == ()

    def test_star_examples(self):
        assert star_right((0, 1, 2), (2,)) == (0, 1, 2)
        assert star_right((0, 1), (1, 0)) == (1, 0)
        # against a suffix of the second path, as the within-layer closure uses it
        assert star_right((0, 2, 1), (2, 1, 0)[2:]) == (2, 1, 0)

    @given(words(3, 7), words(3, 7))
    def test_rmp_homomorphism(self, w1, w2):
        a, b = tree_of_word(w1), tree_of_word(w2)
        assert rmp(tree_product(a, b)) == star_right(rmp(a), rmp(b))

    @given(words(3, 7), words(3, 7))
    def test_rmp_sandwich(self, w1, w2):
        a, b = tree_of_word(w1), tree_of_word(w2)
        ab = tree_product(a, b)
        assert rmp(tree_product(b, ab)) == rmp(ab)

    @given(words(3, 7))
    def test_paths_are_total_orders(self, word):
        tree = tree_of_word(word)
        assert mask_of(rmp(tree)) == tree.alpha
        assert mask_of(lmp(tree)) == tree.alpha

    def test_equal_support_star_j_automatic(self):
        # with equal supports, starring against sigma or against sigma minus
        # its first entry gives sigma
        for rho in ((0, 1, 2), (2, 0, 1)):
            for sigma in ((1, 2, 0), (2, 1, 0)):
                assert star_right(rho, sigma) == sigma
                assert star_right(rho, sigma[1:]) == sigma


class TestEnumerationAndCounting:
    def test_counts(self):
        assert [count_free_monoid(n) for n in range(4)] == [1, 2, 7, 160]

    def test_two_letter_trees(self):
        trees = enumerate_trees(mask_of([0, 1]))
        assert set(trees) == {t("ab"), t("ba"), t("aba"), t("bab")}

    def test_empty_alphabet(self):
        assert enumerate_trees(0) == [LEAF]

    def test_three_letter_count(self):
        assert len(enumerate_trees(mask_of([0, 1, 2]))) == 144

    def test_totals_match_closed_form(self):
        for n in range(4):
            total = sum(
                len(enumerate_trees(mask)) for mask in range(1 << n)
            )
            assert total == count_free_monoid(n)

    def test_roundtrip_all_small_trees(self):
        for k in range(4):
            for tree in enumerate_trees((1 << k) - 1):
                assert tree_of_word(word_of_tree(tree)) is tree

    def test_capacity(self):
        with pytest.raises(CapacityError):
            enumerate_trees(mask_of([0, 1, 2, 3, 4]))

    def test_shortest_words(self):
        assert shortest_word(LEAF) == ()
        assert render_word(shortest_word(t("abab"))) == "ab"
        assert len(shortest_word(t("abcbabc"))) == 3


class TestTreeText:
    def test_shorthand_accepted_expanded_on_output(self):
        assert parse_tree("(a)") is gen_tree(0)
        assert render_tree(gen_tree(0)) == "(() a a ())"

    def test_roundtrip(self):
        for text in ("bcac", "abc", "ab", "a", ""):
            tree = t(text) if text else LEAF
            assert parse_tree(render_tree(tree)) is tree

    def test_errors_carry_offsets(self):
        with pytest.raises(ParseError) as info:
            parse_tree("(() a b ())")  # alphabets do not match
        assert info.value.offset > 0
        with pytest.raises(ParseError):
            parse_tree("()(")

    def test_nesting_cap(self):
        with pytest.raises(ParseError) as info:
            parse_tree("(" * 5000)
        assert info.value.offset == MAX_TREE_NESTING
        # A leaf as deep as the leaves of a tree on all generators passes
        # the cap and fails later, at the missing generator.
        with pytest.raises(ParseError) as info:
            parse_tree("(" * MAX_TREE_NESTING + ")")
        assert info.value.offset == MAX_TREE_NESTING + 1
        # A tree nests one level deeper than its height, so the cap admits
        # every tree on MAX_GENERATORS generators.
        text = render_tree(tree_of_word(tuple(range(12))))
        depth = max(itertools.accumulate({"(": 1, ")": -1}.get(c, 0) for c in text))
        assert depth == 12 + 1 and MAX_TREE_NESTING == MAX_GENERATORS + 1

    def test_render_cap(self):
        word = tuple(range(MAX_RENDER_ALPHABET))
        assert len(render_tree(tree_of_word(word[:12]))) == 9 * 2**12 - 7
        with pytest.raises(CapacityError):
            render_tree(tree_of_word(word + (MAX_RENDER_ALPHABET,)))


def zimin(order):
    """Z_1 = a, Z_k = Z_{k-1} x_k Z_{k-1}: length 2^order - 1 on order letters."""
    z = (0,)
    for i in range(1, order):
        z = z + (i,) + z
    return z


def de_bruijn(k, m):
    """The least cyclic de Bruijn sequence B(k, m): every m-letter word over
    k letters occurs once as an infix, so windows have many distinct infixes."""
    a = [0] * (k * m)
    out = []

    def db(t, p):
        if t > m:
            if m % p == 0:
                out.extend(a[1 : p + 1])
            return
        a[t] = a[t - p]
        db(t + 1, p)
        for j in range(a[t - p] + 1, k):
            a[t] = j
            db(t + 1, t)

    db(1, 1)
    return tuple(out)


def square_insertion(rng, word):
    """w = x u y -> x u u y: an equivalent word."""
    i = rng.randrange(len(word))
    j = rng.randrange(i + 1, len(word) + 1)
    return word[:j] + word[i:j] + word[j:]


def sandwich_insertion(rng, word):
    """w = x p y -> x p u p y with alpha(u) inside alpha(p): an equivalent word."""
    i = rng.randrange(len(word))
    j = rng.randrange(i + 1, len(word) + 1)
    inner = word[i:j]
    u = tuple(rng.choice(inner) for _ in range(rng.randint(1, 8)))
    return word[:j] + u + inner + word[j:]


class TestTreeReference:
    """The memoised tree_of_word against the plain recursion in
    tests/tree_reference.py, which it must match node for node."""

    def check(self, rng, word):
        tree = tree_of_word(word)
        assert tree is ref.tree_of_word(word)
        if word:
            for variant in (square_insertion(rng, word), sandwich_insertion(rng, word)):
                assert tree_of_word(variant) is tree
                assert ref.tree_of_word(variant) is tree

    def test_random_words(self):
        rng = random.Random(5)
        for k in range(1, 13):
            for _ in range(8):
                word = tuple(rng.randrange(k) for _ in range(rng.randint(0, 300)))
                self.check(rng, word)

    def test_zimin_words(self):
        rng = random.Random(6)
        for order in range(1, 11):
            self.check(rng, zimin(order))

    @pytest.mark.parametrize("k,m", [(4, 4), (8, 3)])
    def test_de_bruijn_windows(self, k, m):
        rng = random.Random(k)
        seq = de_bruijn(k, m)
        seq = seq + seq[: 300]
        for start in (0, 37, len(seq) // 2 - 150):
            self.check(rng, seq[start : start + 300])

    def test_products_at_k16(self):
        # Out of the reference's reach: k = 16, and 1000-letter words on all
        # 26 letters, are checked through the product identity instead.
        rng = random.Random(7)
        for k, length, count in ((16, 600, 12), (MAX_GENERATORS, 1000, 4)):
            for _ in range(count):
                u = tuple(rng.randrange(k) for _ in range(rng.randint(0, length)))
                v = tuple(rng.randrange(k) for _ in range(rng.randint(0, length)))
                assert tree_product(tree_of_word(u), tree_of_word(v)) is tree_of_word(u + v)

    @staticmethod
    def reached_subwords(word):
        """The distinct nonempty subwords that the recursion on reference
        decompositions reaches from word."""
        seen = set()
        stack = [word]
        while stack:
            u = stack.pop()
            if u and u not in seen:
                seen.add(u)
                p, _, _, q = ref.grf(u)
                stack += (p, q)
        return seen

    def test_grf_runs_once_per_distinct_subword(self, monkeypatch):
        # tree_of_word calls grf through the module binding once for each
        # distinct nonempty subword it reaches, so a wrapper installed
        # there (as perfbench/tracing.py installs one) counts them all.
        calls = []

        def counted(*args):
            calls.append(args[0])
            return grf(*args)

        monkeypatch.setattr(monoid, "grf", counted)
        rng = random.Random(8)
        cases = [
            tuple(rng.randrange(k) for _ in range(rng.randint(0, 300)))
            for k in range(1, 13)
            for _ in range(4)
        ]
        cases += [zimin(order) for order in range(1, 11)]
        for k, m in ((4, 4), (8, 3)):
            seq = de_bruijn(k, m)
            seq = seq + seq[:300]
            cases += [seq[start : start + 300] for start in (0, 37, len(seq) // 2 - 150)]
        for word in cases:
            calls.clear()
            tree_of_word(word)
            reached = self.reached_subwords(word)
            assert len(calls) == len(reached)
            assert {tuple(u) for u in calls} == reached
