import hashlib
import itertools
import json
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import tree_reference as ref
from mirigs.errors import CapacityError, NotASubsemigroupError
from mirigs.monoid import (
    LEAF,
    all_trees,
    enumerate_trees,
    gen_tree,
    lmp,
    mask_members,
    mask_of,
    mask_size,
    node,
    rmp,
    star_right,
    tree_product,
)
from mirigs.subsemigroups import (
    MAX_CENSUS_N,
    MAX_ENUMERATION_N,
    PathNumbering,
    RepleteSubsemigroup,
    alphabet_family,
    bits_of,
    close_bits,
    close_left,
    close_path_system,
    close_right,
    close_under_product,
    closed_path_set_bits,
    closed_path_sets,
    count_replete,
    count_replete_bounded_height,
    count_uniform,
    enumerate_replete,
    is_replete,
    is_replete_definitional,
    is_subsemigroup,
    path_class,
    path_numbering,
    path_class_size,
    replete_closure,
    replete_closure_trees,
    right_system_histograms,
    star_pair_bits,
    star_product_bits,
    union_closed_families,
    xy_factor,
)
from mirigs import subsemigroups, triples
from mirigs.triples import count_free_mirig
from conftest import t


def all_subsemigroups_t2():
    trees = all_trees(2)
    out = []
    for bits in range(1 << len(trees)):
        subset = frozenset(tr for i, tr in enumerate(trees) if bits >> i & 1)
        if is_subsemigroup(subset):
            out.append(subset)
    return out


EXAMPLE_6 = close_under_product({t("ab"), t("ac")})


class TestClosure:
    def test_example_six_trees(self):
        assert EXAMPLE_6 == {
            t("ab"), t("ac"), t("abac"), t("acab"), t("acabac"), t("abacab"),
        }

    def test_idempotent_inputs(self):
        assert close_under_product({t("aba")}) == {t("aba")}
        assert close_under_product(()) == frozenset()

    @given(st.lists(st.sampled_from(all_trees(2)), max_size=3))
    def test_least_closed_superset(self, seed):
        closed = close_under_product(seed)
        assert is_subsemigroup(closed)
        assert set(seed) <= closed
        for member in [s for s in all_subsemigroups_t2() if set(seed) <= s]:
            assert closed <= member


class TestXyFactor:
    def test_example(self):
        factor = xy_factor(EXAMPLE_6, gen_tree(0), LEAF, 3)
        assert gen_tree(1) in factor and gen_tree(2) in factor
        assert t("bc") not in factor

    def test_unit_context(self):
        assert xy_factor(EXAMPLE_6, LEAF, LEAF, 3) == EXAMPLE_6

    def test_empty(self):
        assert xy_factor(frozenset(), gen_tree(0), LEAF, 2) == frozenset()

    @settings(max_examples=30)
    @given(st.data())
    def test_distribution_laws(self, data):
        trees = all_trees(2)
        pick = lambda: frozenset(data.draw(st.lists(st.sampled_from(trees), max_size=4)))
        u1, u2 = pick(), pick()
        x = data.draw(st.sampled_from(trees))
        y = data.draw(st.sampled_from(trees))
        assert xy_factor(u1 | u2, x, y, 2) == xy_factor(u1, x, y, 2) | xy_factor(u2, x, y, 2)
        assert xy_factor(u1 & u2, x, y, 2) == xy_factor(u1, x, y, 2) & xy_factor(u2, x, y, 2)

    def test_contravariant_composition(self):
        trees = all_trees(2)
        rng = random.Random(0)
        for _ in range(20):
            u = frozenset(rng.sample(trees, 3))
            x, y, x2, y2 = (rng.choice(trees) for _ in range(4))
            inner = xy_factor(u, x, y, 2)
            lhs = xy_factor(inner, x2, y2, 2)
            rhs = xy_factor(u, tree_product(x, x2), tree_product(y2, y), 2)
            assert lhs == rhs


class TestRepleteness:
    def test_t2_census(self):
        subs = all_subsemigroups_t2()
        assert len(subs) == 42
        assert all(is_replete(s) for s in subs)
        assert all(is_replete_definitional(s, 2) for s in subs)

    def test_example_not_replete(self):
        assert not is_replete(EXAMPLE_6)
        assert not is_replete_definitional(EXAMPLE_6, 3)

    def test_closure_of_example_replete_definitionally(self):
        closed = replete_closure_trees({t("ab"), t("ac")})
        assert is_replete_definitional(closed, 3)

    def test_h3_singleton_not_replete(self):
        assert not is_replete({t("abc")})

    def test_requires_subsemigroup(self):
        with pytest.raises(NotASubsemigroupError):
            is_replete({t("ab"), t("ac")})

    def test_fiberwise_matches_definitional_on_samples(self):
        # full definitional check is quartic in |T_n|; sample the contexts at n=3
        rng = random.Random(5)
        trees3 = all_trees(3)
        for _ in range(8):
            closed = close_under_product(rng.sample(trees3, 2))
            fiberwise = is_replete(closed)
            for _ in range(40):
                x, y = rng.choice(trees3), rng.choice(trees3)
                if not is_subsemigroup(xy_factor(closed, x, y, 3)):
                    assert not fiberwise
                    break
            else:
                continue


class TestRepleteClosure:
    def test_example(self):
        closure = replete_closure_trees({t("ab"), t("ac")})
        assert t("abc") in closure
        assert alphabet_family(closure) == alphabet_family(EXAMPLE_6)

    def test_closure_properties(self):
        rng = random.Random(9)
        trees = all_trees(3)
        for _ in range(10):
            u = frozenset(rng.sample(trees, 2))
            v = u | {rng.choice(trees)}
            cu, cv = replete_closure_trees(u), replete_closure_trees(v)
            assert u <= cu and is_replete(cu)  # extensive, replete
            assert cu <= cv  # monotone
            assert replete_closure_trees(cu) == cu  # idempotent
            assert alphabet_family(cu) == alphabet_family(close_under_product(u))

    def test_minimum_size_h3(self):
        assert len(replete_closure_trees({t("abc")})) == 4

    def test_compact_representation(self):
        r = replete_closure({t("ab"), t("ac")}, 3)
        assert isinstance(r, RepleteSubsemigroup)
        assert r.trees() == replete_closure_trees({t("ab"), t("ac")})
        assert r.size() == len(r.trees())


def path_systems(trees):
    return frozenset(lmp(x) for x in trees), frozenset(rmp(x) for x in trees)


class TestPathSystemClosure:
    """close_path_system against the tree-level closures."""

    def test_random_tree_sets(self):
        rng = random.Random(10)
        trees = all_trees(3)
        for size in (1, 2, 3, 4) * 10:
            seed = rng.sample(trees, size)
            assert close_path_system(*path_systems(seed)) == path_systems(
                close_under_product(seed)
            )
            closed = replete_closure_trees(seed)
            lefts, rights = close_path_system(*path_systems(seed), replete=True)
            assert (lefts, rights) == path_systems(closed)
            assert RepleteSubsemigroup.from_paths(3, lefts, rights) == replete_closure(seed, 3)

    def test_paths_roundtrip(self):
        for s in enumerate_replete(2):
            assert RepleteSubsemigroup.from_paths(2, *s.paths()) == s
            built = RepleteSubsemigroup.from_path_bits(2, s.unit, *s.bits())
            assert built == s and built.bits() == s.bits()

    def test_leaf_is_the_empty_path(self):
        assert close_path_system({()}, {()}, replete=True) == ({()}, {()})
        lefts, rights = close_path_system({(0,), (1,)}, {(0,), (1,)})
        assert lefts == {(0,), (1,), (0, 1), (1, 0)} == rights


def _random_path(rng, n):
    return tuple(rng.sample(range(n), rng.randint(0, n)))


class TestClosureReference:
    """The semi-naive closures against the naive ones in
    tests/tree_reference.py, which also reach n >= 4, where the tree-level
    route is too slow."""

    def test_close_right_left_on_abc(self):
        perms = list(itertools.permutations(range(3)))
        for r in range(1, len(perms) + 1):
            for paths in itertools.combinations(perms, r):
                assert close_right(paths) == ref.close_right(paths), paths
                assert close_left(paths) == ref.close_left(paths), paths

    @pytest.mark.parametrize("k", [4, 5])
    def test_close_right_left_sampled(self, k):
        rng = random.Random(k)
        perms = list(itertools.permutations(range(k)))
        for _ in range(30):
            paths = rng.sample(perms, rng.randint(1, 4))
            assert close_right(paths) == ref.close_right(paths), paths
            assert close_left(paths) == ref.close_left(paths), paths

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("replete", [False, True])
    def test_close_path_system(self, n, replete):
        rng = random.Random(10 * n + replete)
        for _ in range(30):
            lefts = {_random_path(rng, n) for _ in range(rng.randint(1, 4))}
            rights = {_random_path(rng, n) for _ in range(rng.randint(1, 4))}
            assert close_path_system(lefts, rights, replete) == ref.close_path_system(
                lefts, rights, replete
            ), (lefts, rights)


class TestPathEngine:
    """The path numbering, its star table and the bitset closure."""

    @staticmethod
    def random_paths(rng, n, most):
        return {_random_path(rng, n) for _ in range(rng.randint(1, most))} - {()}

    @pytest.mark.parametrize("replete", [False, True])
    def test_close_bits_matches_reference_n3(self, replete):
        rng = random.Random(3 + replete)
        for _ in range(2000):
            paths = self.random_paths(rng, 3, 6)
            closed = close_bits(bits_of(paths), replete)
            assert closed == bits_of(ref.close_rights(paths, replete)), paths

    @pytest.mark.parametrize("n,count", [(4, 200), (5, 30)])
    @pytest.mark.parametrize("replete", [False, True])
    def test_close_bits_matches_reference_sampled(self, n, count, replete):
        rng = random.Random(10 * n + replete)
        for _ in range(count):
            paths = self.random_paths(rng, n, 4)
            closed = close_bits(bits_of(paths), replete)
            assert closed == bits_of(ref.close_rights(paths, replete)), paths

    def test_numbering_is_prefix_stable(self):
        numberings = [PathNumbering().grow(n) for n in range(7)]
        for small, large in zip(numberings, numberings[1:]):
            count = len(small.paths)
            assert large.paths[:count] == small.paths
            assert large.masks[:count] == small.masks
            assert large.suffixes[:count] == small.suffixes
        assert [len(num.paths) for num in numberings] == [0, 1, 4, 15, 64, 325, 1956]
        shared = path_numbering(4)
        assert shared.paths[:64] == numberings[4].paths

    def test_numbering_order(self):
        num = PathNumbering().grow(4)
        expected = [
            p for mask in range(1, 16) for p in itertools.permutations(mask_members(mask))
        ]
        assert num.paths == expected
        assert num.masks == [mask_of(p) for p in expected]
        assert num.bit == [1 << i for i in range(len(expected))]
        for i, p in enumerate(num.paths):
            assert num.suffixes[i] == tuple(num.index[p[j:]] for j in range(2, len(p)))
        for mask in range(1, 16):
            layer = [i for i, m in enumerate(num.masks) if m == mask]
            assert num.layer_bits[mask] == sum(1 << i for i in layer)
            assert num.layer_start[mask] == layer[0]

    def test_path_bits_are_the_three_letter_prefix(self):
        # The census checks read the shared numbering's prefix on
        # MAX_CENSUS_N letters, however far arithmetic has grown it, through
        # the pair table, one row and one column per path of that prefix;
        # the triples census reads its prefix on MAX_ENUMERATION_N letters,
        # the first rows and columns of the table.
        shared = path_numbering(MAX_CENSUS_N + 1)
        count = len(star_pair_bits())
        for n in (MAX_ENUMERATION_N, MAX_CENSUS_N):
            num = PathNumbering().grow(n)
            prefix = len(num.paths)
            assert prefix == shared.layer_start[1 << n] <= count
            assert shared.paths[:prefix] == num.paths
            assert shared.bit[:prefix] == num.bit
        assert count == shared.layer_start[1 << MAX_CENSUS_N]

    def test_rows_match_star_right(self):
        num = PathNumbering().grow(4)
        for i, p in enumerate(num.paths):
            row = num.row(i)
            assert len(row) == len(num.paths)
            for q, product in zip(num.paths, row):
                assert product == 1 << num.index[star_right(p, q)], (p, q)

    def test_star_pair_bits_match_star_right(self):
        # Every pair of the 64 paths on 4 letters, by number.
        num = PathNumbering().grow(4)
        table = star_pair_bits()
        assert len(table) == len(num.paths) == 64
        for rho, row in zip(num.paths, table):
            assert len(row) == 64
            for sigma, products in zip(num.paths, row):
                expected = [star_right(rho, sigma), star_right(sigma, rho)]
                assert products == bits_of(expected), (rho, sigma)

    @pytest.mark.parametrize("n", [3, 4])
    def test_star_product_bits(self, n):
        rng = random.Random(n)
        for _ in range(200):
            units = rng.random() < 0.5, rng.random() < 0.5
            sides = [self.random_paths(rng, n, 5) | ({()} if u else set()) for u in units]
            expected = {star_right(p, q) for p in sides[0] for q in sides[1]} - {()}
            got = star_product_bits(units[0], bits_of(sides[0] - {()}), units[1], bits_of(sides[1] - {()}))
            assert got == bits_of(expected), sides


class TestBranchSets:
    def test_reconstruction_theorem(self):
        # every uniform layer of every enumerated replete subsemigroup is
        # the full product of its left branches (t.left, t.a0) and right
        # branches (t.a1, t.right)
        rng = random.Random(1)
        pool = list(enumerate_replete(2)) + rng.sample(list(enumerate_replete(3)), 60)
        for r in pool:
            trees = r.trees()
            for mask in alphabet_family(trees) - {0}:
                layer = frozenset(x for x in trees if x.alpha == mask)
                lefts = {(x.left, x.a0) for x in layer}
                rights = {(x.a1, x.right) for x in layer}
                rebuilt = {
                    node(t0, a0, a1, t1) for t0, a0 in lefts for a1, t1 in rights
                }
                assert rebuilt == layer

    def test_uniform_census_small(self):
        # product-closed subsets of the two-generator fiber = branch products
        fiber = enumerate_trees(mask_of([0, 1]))
        closed = [
            sub
            for bits in range(1, 1 << 4)
            for sub in [frozenset(x for i, x in enumerate(fiber) if bits >> i & 1)]
            if is_subsemigroup(sub)
        ]
        assert len(closed) == 9


class TestBranchBounds:
    @staticmethod
    def _lb_count(trees, mask):
        return len({(x.left, x.a0) for x in trees if x.alpha == mask})

    @staticmethod
    def _rb_count(trees, mask):
        return len({(x.a1, x.right) for x in trees if x.alpha == mask})

    def _check(self, trees):
        fam = sorted(alphabet_family(trees) - {0})
        for a in fam:
            for b in fam:
                size = lambda mask: sum(1 for x in trees if x.alpha == mask)
                for count in (self._lb_count, self._rb_count):
                    if a | b == b and a != b:  # a strictly below b
                        assert count(trees, a) <= count(trees, b)
                    if a & b not in (a, b):  # incomparable
                        assert count(trees, a | b) >= count(trees, a) + count(trees, b)
                    if a & b == 0 and a != b:  # disjoint
                        assert count(trees, a | b) >= (
                            size(a) * count(trees, b) + count(trees, a) * size(b)
                        )

    def test_all_t2_subsemigroups(self):
        for s in all_subsemigroups_t2():
            self._check(s)

    def test_sampled_t3_replete(self):
        rng = random.Random(2)
        for r in rng.sample(list(enumerate_replete(3)), 40):
            self._check(r.trees())


class TestPathClasses:
    def test_sizes(self):
        assert [path_class_size(k) for k in (1, 2, 3, 4)] == [1, 1, 2, 24]

    def test_class_members_match_closed_form(self):
        for sigma, expected in (((0,), 1), ((0, 1), 1), ((0, 1, 2), 2)):
            branches, count = path_class(sigma)
            assert len(branches) == count == expected

    def test_total_height3_branches(self):
        # six paths, two branches each: all 12 = 3 * c_2 right branches
        total = set()
        for sigma in itertools.permutations((0, 1, 2)):
            branches, _ = path_class(sigma)
            total |= branches
        assert len(total) == 12

    def test_left_class(self):
        branches, count = path_class((0, 1, 2), side="left")
        assert len(branches) == count == 2
        assert all(generator == 2 for _, generator in branches)

    def test_22_closed_sets_recomputed(self):
        assert len(closed_path_sets(0b111)) == 22
        assert len(closed_path_sets(0b11)) == 3
        assert len(closed_path_sets(0b1)) == 1

    def test_path_bits_number_every_short_path_once(self):
        num = path_numbering(3)
        count = num.layer_start[1 << 3]
        assert count == 15  # 3 + 6 + 6 paths on 1, 2 and 3 of 3 letters
        short = [p for r in range(1, 4) for p in itertools.permutations(range(3), r)]
        assert sorted(num.paths[:count]) == sorted(short)
        assert num.bit[:count] == [1 << i for i in range(15)]
        assert [bits_of([p]) for p in num.paths[:count]] == num.bit[:count]
        assert num.paths[:4] == [(0,), (1,), (0, 1), (1, 0)]

    def test_catalogue_bits_match_star_checks(self):
        # Per catalogue entry, its own bits and, per path p on a proper
        # sub-alphabet, whether every star_right(t, p) lands in the entry.
        for mask in range(1, 8):
            below = [
                p
                for a in range(1, mask)
                if a & mask == a
                for p in itertools.permutations(mask_members(a))
            ]
            entries = closed_path_set_bits(mask)
            assert [target for target, _, _ in entries] == list(closed_path_sets(mask))
            for target, own, admitted in entries:
                assert own == bits_of(target)
                for p in below:
                    expected = all(star_right(t, p) in target for t in target)
                    assert bool(admitted & bits_of([p])) == expected, (mask, sorted(target), p)
                assert not admitted & ~bits_of(below)

    def test_catalogue_matches_subset_scan(self):
        # Closure generation against the scan of every subset of the
        # layer's paths, entry by entry and in order, on every alphabet of
        # at most 3 of the first 4 letters.
        for mask in range(1, 16):
            if mask_size(mask) <= 3:
                assert closed_path_sets(mask) == ref.closed_path_sets(mask), mask

    def test_catalogue_capacity(self):
        # The censuses answer up to MAX_CENSUS_N = 4 letters, so the
        # catalogue does too.
        with pytest.raises(CapacityError, match="size <= 4"):
            closed_path_sets(0b11111)

    def test_catalogue_bits_capacity(self):
        with pytest.raises(CapacityError, match="n <= 4"):
            closed_path_set_bits(0b10000)

    def test_four_letter_catalogue(self):
        # 485 closed sets on 4 letters, each closed, listed once, in the
        # order of closed_path_sets.
        entries = closed_path_set_bits(0b1111)
        assert len(entries) == len(set(own for _, own, _ in entries)) == 485
        for target, own, _ in entries:
            assert own == bits_of(target) and close_bits(own, replete=True) == own
        keys = [(len(target), sorted(target)) for target, _, _ in entries]
        assert keys == sorted(keys)

    def test_closed_pair_structure(self):
        # the closed two-element sets share first or last generator
        pairs = [s for s in closed_path_sets(0b111) if len(s) == 2]
        assert len(pairs) == 6
        for pair in pairs:
            p1, p2 = sorted(pair)
            assert p1[0] == p2[0] or p1[-1] == p2[-1]


@pytest.fixture(scope="module")
def histograms_n4():
    return dict(right_system_histograms(4))


class TestSumProduct:
    """right_system_histograms counts each family's right systems by a
    sum-product over its co-atoms, without listing them.  Up to n = 3 it is
    checked against the listing of _right_systems; at n = 4, where listing
    is capped, against a closed form, the renaming of the letters, and the
    whole-system closure of the catalogue product on small families."""

    def test_histograms_match_listing(self):
        for n in range(4):
            families = union_closed_families(n)
            hists = list(right_system_histograms(n))
            assert [fam for fam, _ in hists] == families
            for fam, hist in hists:
                assert hist == ref.histogram_by_listing(sorted(fam)), sorted(fam)

    def test_families_match_subset_scan(self):
        for n in range(5):
            assert union_closed_families(n) == ref.union_closed_families(n), n

    def test_n4_totals(self, histograms_n4):
        # 2480 union-closed families (Moore families on 4 points), with
        # 9 770 803 right systems in all and at most 458 696 on one.
        sizes = [sum(hist.values()) for hist in histograms_n4.values()]
        assert len(sizes) == 2480
        assert sum(sizes) == 9770803 and max(sizes) == 458696

    def test_n4_without_the_top_letter_set_is_height_three(self, histograms_n4):
        # An S without the layer on all 4 letters has height at most 3, and
        # the closed form counts those.
        part = sum(2 * sum(hist.values()) ** 2 for fam, hist in histograms_n4.items() if 0b1111 not in fam)
        assert part == count_replete_bounded_height(4, 3) == 71882

    def test_n4_letter_renaming(self, histograms_n4):
        # Renaming the letters maps a family's right systems onto the
        # renamed family's, one-path layers onto one-path layers.
        for fam in histograms_n4:
            for perm in itertools.permutations(range(4)):
                def rename(mask):
                    return sum(1 << perm[g] for g in mask_members(mask))

                renamed = Counter(
                    {frozenset(map(rename, x)): count for x, count in histograms_n4[fam].items()}
                )
                assert histograms_n4[frozenset(map(rename, fam))] == renamed, (sorted(fam), perm)

    def test_n4_whole_system_closure(self, histograms_n4):
        # On families whose catalogue product is small, keep each choice of
        # one closed path set per layer iff the closure of its paths adds
        # none, and count the kept ones.
        small = [
            fam
            for fam in sorted(histograms_n4, key=sorted)
            if 100 <= math.prod(len(closed_path_sets(mask)) for mask in fam) <= 2000
        ]
        rng = random.Random(6)
        for fam in rng.sample(small, 8):
            assert histograms_n4[fam] == ref.histogram_by_closure(sorted(fam)), sorted(fam)

    def test_tables_stay_within_their_bounds(self):
        count_replete(4)
        count_free_mirig(3, "triples")
        for table, bound in (
            (subsemigroups._family_plan, subsemigroups.FAMILY_PLAN_MEMO),
            (subsemigroups._coatom_counts, subsemigroups.COATOM_TABLE_MEMO),
            (triples._family_stragglers, triples.FAMILY_STRAGGLERS_MEMO),
        ):
            info = table.cache_info()
            assert info.maxsize == bound and 0 < info.currsize <= bound, table


class TestEnumeration:
    def test_counts(self):
        assert [count_replete(n) for n in range(3)] == [2, 4, 42]

    def test_count_n3(self):
        assert count_replete(3) == 18030

    def test_no_duplicates(self):
        seen = list(enumerate_replete(2))
        assert len(seen) == len(set(seen)) == 42

    def test_expansions_are_replete_subsemigroups(self):
        for r in enumerate_replete(2):
            trees = r.trees()
            assert is_subsemigroup(trees)
            assert is_replete(trees)

    def test_t2_matches_exhaustive_census(self):
        from_paths = {r.trees() for r in enumerate_replete(2)}
        assert from_paths == set(all_subsemigroups_t2())

    def test_sampled_t3_replete_definitionally(self):
        # spot-check the defining property with sampled contexts
        rng = random.Random(3)
        trees3 = all_trees(3)
        for r in rng.sample(list(enumerate_replete(3)), 12):
            trees = r.trees()
            for _ in range(60):
                x, y = rng.choice(trees3), rng.choice(trees3)
                assert is_subsemigroup(xy_factor(trees, x, y, 3))

    def test_capacity(self):
        # Listing stops at MAX_ENUMERATION_N = 3 and the censuses at
        # MAX_CENSUS_N = 4, before any work.
        assert (MAX_ENUMERATION_N, MAX_CENSUS_N) == (3, 4)
        with pytest.raises(CapacityError, match="n <= 3"):
            list(enumerate_replete(4))
        with pytest.raises(CapacityError, match="n <= 3"):
            count_free_mirig(4, "triples")
        with pytest.raises(CapacityError, match="n <= 4"):
            count_replete(5)

    def test_negative_n(self):
        for call in (lambda: list(enumerate_replete(-1)), lambda: count_replete(-1)):
            with pytest.raises(ValueError, match="nonnegative"):
                call()

    def test_count_matches_enumeration(self):
        assert [count_replete(n) for n in range(4)] == [ref.count_replete(n) for n in range(4)]

    def test_right_systems_match_product_filter(self):
        for n in range(4):
            for fam in union_closed_families(n):
                family = sorted(fam)
                systems = ref.indexed_systems(family)
                assert [system for system, _ in systems] == list(ref.right_systems(family)), family
                for system, bits in systems:
                    assert bits == bits_of(p for ps in system.values() for p in ps), system

    # sha256 of the JSON lines of the enumeration, as `mirigs enumerate
    # replete --n N --json` prints them; sample_triples draws from this order.
    ENUMERATION_SHA256 = [
        "8570b1548f61b03c17289295d4c99db6ab73b4eb95bd1ae9cd457738926b9847",
        "4cb081858c043f8ea6e4a29240c4c3ecc22a6c547fb46f1de2777046dfc344cd",
        "b35ba0b064263deeff1e5313429b165c886fbd4b13c8fc84f610e778918ceb03",
        "8bfea8f33ea9eb77407633f411700dc3520cd9304aaa4c9638c6be8458b50f65",
    ]

    def test_enumeration_order_is_pinned(self):
        for n, expected in enumerate(self.ENUMERATION_SHA256):
            digest = hashlib.sha256()
            for r in enumerate_replete(n):
                digest.update(json.dumps(r.to_json()).encode() + b"\n")
            assert digest.hexdigest() == expected, n

    def test_deterministic_order(self):
        first = [r.to_json() for r in itertools.islice(enumerate_replete(2), 10)]
        second = [r.to_json() for r in itertools.islice(enumerate_replete(2), 10)]
        assert first == second


class TestCountingFormulas:
    def test_uniform(self):
        assert [count_uniform(n) for n in range(4)] == [1, 2, 12, 16769056]

    def test_uniform_small_direct(self):
        # n = 2: one subsemigroup on each singleton fiber, nine on the full
        # fiber, one trivial
        assert count_uniform(2) == 1 + 2 + 9

    def test_bounded_height(self):
        assert count_replete_bounded_height(2, 2) == 42
        assert count_replete_bounded_height(3, 2) == 116
        assert count_replete_bounded_height(3, 3) == 18030

    def test_bounded_height_matches_filtered_enumeration(self):
        from mirigs.monoid import mask_size

        for n in (2, 3):
            filtered = sum(
                1
                for r in enumerate_replete(n)
                if all(mask_size(m) <= 2 for m in r.alphabet_masks())
            )
            assert filtered == count_replete_bounded_height(n, 2)

    def test_unsupported_height(self):
        with pytest.raises(ValueError):
            count_replete_bounded_height(3, 4)

    def test_bounded_height_negative_n(self):
        for h in (2, 3):
            with pytest.raises(ValueError, match="n must be nonnegative"):
                count_replete_bounded_height(-1, h)


class TestJson:
    def test_roundtrip(self):
        for r in enumerate_replete(2):
            data = json.loads(json.dumps(r.to_json()))
            assert RepleteSubsemigroup.from_json(data) == r

    def test_roundtrip_n3_sample(self):
        rng = random.Random(4)
        for r in rng.sample(list(enumerate_replete(3)), 25):
            assert RepleteSubsemigroup.from_json(r.to_json()) == r

    def test_version_guard(self):
        with pytest.raises(ValueError):
            RepleteSubsemigroup.from_json({"v": 2, "n": 1, "alphabets": []})
