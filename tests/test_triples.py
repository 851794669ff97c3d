import hashlib
import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import tree_reference as ref
from tree_reference import sample_triples
from mirigs.errors import CapacityError, ParseError
from mirigs.monoid import (
    LEAF,
    MAX_TREE_NESTING,
    all_trees,
    gen_tree,
    mask_size,
    star_left,
    star_right,
)
from mirigs import triples
from mirigs.subsemigroups import (
    RepleteSubsemigroup,
    bits_of,
    enumerate_replete,
    path_class_size,
    path_numbering,
    replete_closure_trees,
    right_systems_by_family,
    union_closed_families,
)
from mirigs.thickets import Thicket, expansion_step, thicket_one, thicket_zero
from mirigs.triples import (
    VARIANTS,
    ComplementaryTriple,
    _upsets,
    constant,
    count_characteristic_variant,
    count_dominated,
    count_free_mirig,
    enumerate_dominated,
    enumerate_triples,
    eval_expression,
    gen,
    mirig_upper_bounds,
    normalize_thicket,
    one,
    triple_add,
    triple_canonical_thicket,
    triple_mul,
    validate_triple,
    zero,
)
from conftest import random_expression, t

A, B = gen_tree(0), gen_tree(1)
FOUR = frozenset({t("ab"), t("ba"), t("aba"), t("bab")})


def triple(n, s_trees, d, odd):
    return ComplementaryTriple(
        n,
        RepleteSubsemigroup.from_trees(n, s_trees, validate=False),
        frozenset(d),
        frozenset(odd),
    )


class TestNormalize:
    def test_a_plus_b(self):
        c = normalize_thicket(Thicket(2, {A: 1, B: 1}))
        assert c == triple(2, FOUR, {A, B}, {0b01, 0b10})

    def test_two_leaf(self):
        c = normalize_thicket(Thicket(2, {LEAF: 2}))
        assert c == triple(2, {LEAF}, (), ())

    def test_lone_straggler(self):
        c = normalize_thicket(Thicket(3, {t("abc"): 1}))
        assert c == triple(3, (), {t("abc")}, {0b111})

    def test_zero(self):
        assert normalize_thicket(thicket_zero(2)) == zero(2)

    def test_doubled_tree_expands_its_layer(self):
        c = normalize_thicket(Thicket(3, {t("abc"): 2}))
        assert c.d == frozenset()
        assert c.s_trees() == replete_closure_trees({t("abc")})
        assert c.odd == frozenset()

    def test_straggler_with_larger_companion(self):
        c = normalize_thicket(Thicket(2, {A: 1, t("ab"): 1}))
        assert c.d == {A}
        assert c.s_trees() == {t("ab"), t("aba")}
        assert c.odd == {0b01, 0b11}

    def test_results_validate(self):
        rng = random.Random(21)
        trees = all_trees(2)
        for _ in range(100):
            f = Thicket(2, {x: rng.randint(0, 3) for x in rng.sample(trees, 3)})
            validate_triple(normalize_thicket(f))


class TestCanonicalThicket:
    def test_one(self):
        assert triple_canonical_thicket(one(2)) == thicket_one(2)

    def test_odd_unit_layer(self):
        c = triple(2, {LEAF}, (), {0})
        assert triple_canonical_thicket(c) == Thicket(2, {LEAF: 3})

    def test_even_four_layer(self):
        c = triple(2, FOUR, (), ())
        assert triple_canonical_thicket(c) == Thicket(2, {x: 2 for x in FOUR})

    def test_odd_layer_bumps_least(self):
        c = triple(2, FOUR, (), {0b11})
        f = triple_canonical_thicket(c)
        bumped = [x for x in FOUR if f.coeff(x) == 3]
        assert len(bumped) == 1
        assert bumped[0] == min(FOUR, key=lambda x: x.sort_key())

    def test_invalid_triple_rejected(self):
        c = triple(2, (), {t("ab")}, ())  # parity must be odd on stragglers
        with pytest.raises(ValueError):
            triple_canonical_thicket(c)


class TestValidation:
    def test_not_sparse(self):
        c = triple(2, (), {A, t("ab")}, {0b01, 0b11})
        with pytest.raises(ValueError, match="sparse"):
            validate_triple(c)

    def test_shared_alphabet(self):
        c = triple(2, {A}, {A}, {0b01})
        with pytest.raises(ValueError, match="share"):
            validate_triple(c)

    def test_not_jointly_closed(self):
        c = triple(2, (), {A, B}, {0b01, 0b10})
        with pytest.raises(ValueError, match="jointly"):
            validate_triple(c)

    def test_non_minimal_straggler(self):
        # {a, aba} is product-closed, but {a,b} is not minimal over {a}
        c = triple(2, {A}, {t("aba")}, {0b01, 0b11})
        with pytest.raises(ValueError, match="minimal"):
            validate_triple(c)

    def test_parity_outside_carrier(self):
        c = triple(2, {A}, (), {0b10})
        with pytest.raises(ValueError, match="parity"):
            validate_triple(c)


class TestArithmetic:
    def test_gen_product(self):
        ab = triple_mul(gen(0, 2), gen(1, 2))
        assert ab == triple(2, (), {t("ab")}, {0b11})
        assert ab != triple_mul(gen(1, 2), gen(0, 2))

    def test_one_plus_one(self):
        assert triple_add(one(2), one(2)) == triple(2, {LEAF}, (), ())

    def test_constants(self):
        two = triple_add(one(2), one(2))
        four = triple_add(two, two)
        three = triple_add(two, one(2))
        assert two == four == constant(2, 2) == constant(4, 2)
        assert three == constant(3, 2)
        assert two != one(2) and three != one(2)

    def test_zero_one_laws(self, c2_elements):
        rng = random.Random(31)
        for c in rng.sample(c2_elements, 25):
            assert triple_add(c, zero(2)) == c
            assert triple_mul(c, one(2)) == c
            assert triple_mul(one(2), c) == c
            assert triple_mul(c, zero(2)) == zero(2)
            assert triple_mul(zero(2), c) == zero(2)
            assert triple_mul(c, c) == c
            c2 = triple_add(c, c)
            assert triple_add(c2, c2) == c2  # 2x = 4x

    def test_results_validate(self, c2_elements):
        rng = random.Random(32)
        for _ in range(40):
            x, y = rng.choice(c2_elements), rng.choice(c2_elements)
            validate_triple(triple_add(x, y))
            validate_triple(triple_mul(x, y))

    def test_mismatched_n(self):
        with pytest.raises(ValueError):
            triple_add(one(1), one(2))


class TestConsistencyWithThickets:
    def test_random_thickets(self):
        rng = random.Random(33)
        trees = all_trees(2)
        for _ in range(150):
            f = Thicket(2, {x: rng.randint(0, 3) for x in rng.sample(trees, 3)})
            g = Thicket(2, {x: rng.randint(0, 3) for x in rng.sample(trees, 3)})
            assert normalize_thicket(f + g) == triple_add(
                normalize_thicket(f), normalize_thicket(g)
            )
            assert normalize_thicket(f * g) == triple_mul(
                normalize_thicket(f), normalize_thicket(g)
            )

    def test_random_thickets_n3(self):
        rng = random.Random(37)
        trees = all_trees(3)
        for _ in range(100):
            f = Thicket(3, {x: rng.randint(0, 3) for x in rng.sample(trees, 3)})
            g = Thicket(3, {x: rng.randint(0, 3) for x in rng.sample(trees, 3)})
            for h in (f, g, f + g, f * g):
                assert normalize_thicket(h) == ref.normalize_thicket(h)
            assert normalize_thicket(f + g) == triple_add(
                normalize_thicket(f), normalize_thicket(g)
            )
            assert normalize_thicket(f * g) == triple_mul(
                normalize_thicket(f), normalize_thicket(g)
            )


class TestTreeReference:
    """The path-level arithmetic against tests/tree_reference.py, which
    expands S into trees and closes tree sets."""

    def test_n2_tables(self, c2_elements, c2_tables):
        index, add, mul = c2_tables
        for i, x in enumerate(c2_elements):
            assert [index[ref.triple_add(x, y)] for y in c2_elements] == add[i]
            assert [index[ref.triple_mul(x, y)] for y in c2_elements] == mul[i]

    def test_n3_sampled_pairs(self):
        pool = sample_triples(3, 60, seed=0)
        rng = random.Random(0)
        for _ in range(300):
            x, y = rng.choice(pool), rng.choice(pool)
            assert triple_add(x, y) == ref.triple_add(x, y)
            assert triple_mul(x, y) == ref.triple_mul(x, y)


class TestStragglerRules:
    """The carrier summary and the alphabet-bitset straggler rules against
    the set-based ones of tests/tree_reference.py."""

    @staticmethod
    def check(x, y):
        assert x.summary == ref.carrier_summary(x)
        assert triples._sum_stragglers(x, y) == ref.sum_stragglers_by_alphabets(x, y)
        assert triples._product_stragglers(x, y) == ref.product_stragglers_by_alphabets(x, y)

    def test_n3_sampled_pairs(self):
        pool = sample_triples(3, 60, seed=2)
        rng = random.Random(2)
        for _ in range(400):
            self.check(rng.choice(pool), rng.choice(pool))

    def test_n4_expressions(self):
        # The tree reference does not reach n = 4, but these rules read
        # only alphabets and paths.
        rng = random.Random(4)
        pool = [gen(i, 4) for i in range(4)] + [constant(k, 4) for k in range(4)]
        pool += [eval_expression(random_expression(rng, 4), 4) for _ in range(60)]
        for _ in range(1000):
            self.check(rng.choice(pool), rng.choice(pool))


@pytest.fixture(scope="module")
def c3_pool():
    return sample_triples(3, 40, seed=1)


class TestRigLawsN3:
    """The rig laws on triples drawn from a fixed n=3 sample, where the
    tables are out of reach."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_laws(self, c3_pool, data):
        x, y, z = (data.draw(st.sampled_from(c3_pool)) for _ in range(3))
        add, mul = triple_add, triple_mul
        assert add(x, y) == add(y, x)
        assert add(add(x, y), z) == add(x, add(y, z))
        assert mul(mul(x, y), z) == mul(x, mul(y, z))
        assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))
        assert mul(add(x, y), z) == add(mul(x, z), mul(y, z))
        assert mul(x, x) == x
        assert add(x, zero(3)) == x
        assert mul(x, one(3)) == x == mul(one(3), x)
        assert mul(x, zero(3)) == zero(3) == mul(zero(3), x)


class TestAmalgamation:
    @staticmethod
    def _random_moves(rng, f, count):
        trees = all_trees(2)
        moves = []
        while len(moves) < count:
            move = tuple(rng.choice(trees) for _ in range(4))
            try:
                f = expansion_step(f, *move)
            except ValueError:
                continue
            moves.append(move)
        return moves

    def test_two_expansion_sequences_have_common_extension(self):
        rng = random.Random(34)
        trees = all_trees(2)
        for _ in range(40):
            f = Thicket(2, {x: rng.randint(1, 3) for x in rng.sample(trees, 3)})
            m1 = self._random_moves(rng, f, 2)
            m2 = self._random_moves(rng, f, 2)
            # applying the other sequence afterwards still satisfies all
            # preconditions, and the two interleavings agree
            g1 = f
            for move in m1 + m2:
                g1 = expansion_step(g1, *move)
            g2 = f
            for move in m2 + m1:
                g2 = expansion_step(g2, *move)
            assert g1 == g2


class TestEnumeration:
    def test_count_284(self, c2_elements):
        assert len(c2_elements) == len(set(c2_elements)) == 284

    def test_all_valid(self, c2_elements):
        for c in c2_elements:
            validate_triple(c)

    def test_roundtrip_all_284(self, c2_elements):
        for c in c2_elements:
            assert normalize_thicket(triple_canonical_thicket(c)) == c

    def test_roundtrip_random_c3(self):
        for c in sample_triples(3, 30, seed=7):
            validate_triple(c)
            assert normalize_thicket(triple_canonical_thicket(c)) == c

    def test_capacity(self):
        with pytest.raises(CapacityError):
            list(enumerate_triples(3))

    def test_small_counts(self):
        assert sum(1 for _ in enumerate_triples(0)) == 4
        assert sum(1 for _ in enumerate_triples(1)) == 13


class TestDominatedSets:
    def test_empty_subsemigroup_dominates_single_trees(self):
        s = RepleteSubsemigroup.from_trees(2, (), validate=False)
        ds = list(enumerate_dominated(s))
        # empty, the trivial tree, and every single tree
        assert len(ds) == 2 + 6
        assert count_dominated(s) == 8

    def test_unit_blocks_stragglers(self):
        s = RepleteSubsemigroup.from_trees(2, {LEAF}, validate=False)
        assert list(enumerate_dominated(s)) == [frozenset()]

    def test_matches_brute_force(self):
        # independent tree-level verification of the path-based counting
        from mirigs.monoid import enumerate_trees, tree_product

        rng = random.Random(35)
        pool = list(enumerate_replete(2)) + rng.sample(list(enumerate_replete(3)), 30)
        for s in pool:
            s_trees = s.trees()
            fam = s.alphabet_masks()
            count = 1
            cands = [
                a
                for a in range(1 << s.n)
                if a not in fam
                and not any(b != a and b & a == b for b in fam)
            ]
            for r in range(1, len(cands) + 1):
                for masks in itertools.combinations(cands, r):
                    if any(
                        (x & y) in (x, y)
                        for x, y in itertools.combinations(masks, 2)
                    ):
                        continue
                    for choice in itertools.product(
                        *(enumerate_trees(a) for a in masks)
                    ):
                        union = s_trees | frozenset(choice)
                        if all(
                            tree_product(u, v) in union
                            for u in union
                            for v in union
                        ):
                            count += 1
            assert count == count_dominated(s), s.layers


class TestDominatedReference:
    """The dominated sets against tests/tree_reference.py, which works out
    each S's straggler options and joint assignments by membership tests on
    sets of paths, where the library reads the options by path number and
    multiplies their counts."""

    def test_count_dominated_n3(self):
        for s in enumerate_replete(3):
            assert count_dominated(s) == ref.count_dominated(s), s.layers

    def test_enumerate_dominated_order(self):
        rng = random.Random(41)
        pool = list(enumerate_replete(2)) + rng.sample(list(enumerate_replete(3)), 120)
        for s in pool:
            assert list(enumerate_dominated(s)) == list(ref.enumerate_dominated(s)), s.layers

    @pytest.mark.parametrize(
        "make, digest",
        [
            (
                lambda: list(enumerate_triples(2)),
                "4225cdf4ecbb3f0829e5cc3c25951f294001ecab02359f6ac54ac63df0b31460",
            ),
            (
                lambda: sample_triples(3, 40, seed=5),
                "52fea9f33e8f0d35e37c56b165bf48e266543a91df6e145ac70f227b458ce244",
            ),
        ],
        ids=["enumerate_triples_2", "sample_triples_3_40_5"],
    )
    def test_order_sensitive_consumers_pinned(self, make, digest):
        # Both list the dominated sets in enumerate_dominated's order, and
        # sample_triples draws from that list, so a change of order shows.
        text = json.dumps([c.to_json() for c in make()], sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_straggler_options_match_reference(self):
        # Both sides of every n = 3 right system and of its mirror image:
        # the options read from the pair table by path number against the
        # membership tests of the reference, every candidate's entry, the
        # left side's read through the mirror image of its paths.
        num = path_numbering(3)
        checked = 0
        for fam in union_closed_families(3):
            stragglers = triples._family_stragglers(3, fam)
            candidates = [num.masks[numbers.start] for numbers in stragglers.numbers]
            layers = tuple((mask, (), ()) for mask in sorted(fam))
            assert candidates == ref._d_mask_candidates(RepleteSubsemigroup(3, False, layers))
            for system, _ in ref.indexed_systems(sorted(fam)):
                mirrored = {m: frozenset(p[::-1] for p in ps) for m, ps in system.items()}
                for paths_of, mirror_of in ((system, mirrored), (mirrored, system)):
                    paths = [p for ps in paths_of.values() for p in ps]
                    mirror = [p for ps in mirror_of.values() for p in ps]
                    rights = triples._straggler_options(stragglers, bits_of(paths))
                    lefts = triples._straggler_options(stragglers, bits_of(mirror))
                    for a, right, left in zip(candidates, rights, lefts):
                        assert [num.paths[i] for i in right] == ref._compatible_paths(
                            star_right, paths_of, a
                        )
                        assert sorted(num.paths[i][::-1] for i in left) == ref._compatible_paths(
                            star_left, paths_of, a
                        )
                checked += 1
        assert checked == 573

    def test_option_products_match_joint_assignments(self):
        # Every tuple of one option per alphabet of a configuration is a
        # joint assignment: for every n = 3 right system and its mirror
        # image, on both sides, the product of the options equals the
        # reference's listing, which also checks the star products of each
        # pair of paths in the tuple.
        num = path_numbering(3)
        systems = joint = 0
        for fam in union_closed_families(3):
            stragglers = triples._family_stragglers(3, fam)
            candidates = [num.masks[numbers.start] for numbers in stragglers.numbers]
            for system, _ in ref.indexed_systems(sorted(fam)):
                mirrored = {m: frozenset(p[::-1] for p in ps) for m, ps in system.items()}
                for paths_of, mirror_of in ((system, mirrored), (mirrored, system)):
                    options = triples._straggler_options(
                        stragglers, bits_of(p for ps in paths_of.values() for p in ps)
                    )
                    for config in stragglers.configs:
                        masks = [candidates[k] for k in config]
                        rights = [[num.paths[i] for i in options[k]] for k in config]
                        lefts = [[num.paths[i][::-1] for i in options[k]] for k in config]
                        for star, of, opts in ((star_right, paths_of, rights), (star_left, mirror_of, lefts)):
                            listed = ref._joint_assignments(star, of, masks, opts)
                            assert [tuple(a[m] for m in masks) for a in listed] == list(
                                itertools.product(*opts)
                            ), (system, masks)
                            if len(config) > 1:
                                joint += len(listed)
                systems += 1
        assert systems == 573
        assert joint > 0

    def test_dominated_sets_capacity(self):
        wide = ((0b1111, ((0, 1, 2, 3),), ((0, 1, 2, 3),)),)
        for s in (RepleteSubsemigroup(4, False, ()), RepleteSubsemigroup(4, False, wide)):
            with pytest.raises(CapacityError, match="n <= 3"):
                count_dominated(s)
            with pytest.raises(CapacityError, match="n <= 3"):
                list(enumerate_dominated(s))
            # Nothing is listed before the capacity error.
            with pytest.raises(CapacityError, match="n <= 3"):
                next(enumerate_dominated(s))

    def test_census_counts_match_side_options(self):
        # The census and count_dominated count each configuration's joint
        # assignments as the product of its option counts; per n = 3 right
        # system and its mirror image, these counts, the configurations'
        # order and their weights are the reference's, which lists the
        # configurations, options and joint assignments from the paths.
        systems = 0
        for fam in union_closed_families(3):
            family = sorted(fam)
            stragglers = triples._family_stragglers(3, fam)
            layers = tuple((mask, (), ()) for mask in family)
            candidates = ref._d_mask_candidates(RepleteSubsemigroup(3, False, layers))
            configs = [
                masks
                for r in range(1, len(candidates) + 1)
                for masks in itertools.combinations(candidates, r)
                if all(
                    (a & b) not in (a, b) and (a | b) in fam
                    for a, b in itertools.combinations(masks, 2)
                )
            ]
            assert stragglers.weights == tuple(
                math.prod(path_class_size(mask_size(a)) ** 2 for a in masks) for masks in configs
            )
            for system, _ in ref.indexed_systems(family):
                mirrored = {m: frozenset(p[::-1] for p in ps) for m, ps in system.items()}
                for paths_of in (system, mirrored):
                    options = triples._straggler_options(
                        stragglers, bits_of(p for ps in paths_of.values() for p in ps)
                    )
                    expected = [
                        len(
                            ref._joint_assignments(
                                star_right,
                                paths_of,
                                masks,
                                [ref._compatible_paths(star_right, paths_of, a) for a in masks],
                            )
                        )
                        for masks in configs
                    ]
                    counts = list(map(len, options))
                    assert triples._assignment_counts(stragglers, counts) == expected, system
                systems += 1
        assert systems == 573


class TestTriplesCensus:
    """The triples census counts each S from its (left system, right
    system, unit) triple and builds none; these compare it with the S that
    enumerate_replete builds for the same triple."""

    def test_pair_count_matches_built_s(self):
        built = enumerate_replete(3)
        pairs = 0
        for family, systems in right_systems_by_family(3):
            stragglers = triples._family_stragglers(3, frozenset(family))
            counts = [
                triples._assignment_counts(
                    stragglers, list(map(len, triples._straggler_options(stragglers, bits)))
                )
                for _, bits in systems
            ]
            for (_, left_bits), left in zip(systems, counts):
                for (_, right_bits), right in zip(systems, counts):
                    for unit in (False, True):
                        s = next(built)
                        assert [mask for mask, _, _ in s.layers] == family and s.unit == unit
                        assert bits_of(p[::-1] for _, lp, _ in s.layers for p in lp) == left_bits
                        assert bits_of(p for _, _, rp in s.layers for p in rp) == right_bits
                        # The census's term for this (left, right, unit).
                        count = 1 if unit else 2 + sum(
                            w * a * b for w, a, b in zip(stragglers.weights, left, right)
                        )
                        assert count == count_dominated(s), s.layers
                        pairs += 1
        assert next(built, None) is None
        assert pairs == 18030

    def test_option_counts_match_straggler_options(self):
        # The census ORs each candidate path's star products from the rows
        # of the system's catalogue entries; _straggler_options reads them
        # from the pair table over the system's paths.
        systems = 0
        for family, found in right_systems_by_family(3):
            stragglers = triples._family_stragglers(3, frozenset(family))
            for index, bits in found:
                options = triples._straggler_options(stragglers, bits)
                assert triples._option_counts(stragglers, index, bits) == list(map(len, options))
                systems += 1
        assert systems == 573

    def test_census_is_the_per_s_sum(self):
        for n in range(4):
            per_s = sum(
                count_dominated(s) * 2 ** (len(s.layers) + s.unit) for s in enumerate_replete(n)
            )
            assert count_free_mirig(n, "triples") == per_s, n


class TestCounting:
    def test_small(self):
        assert [count_free_mirig(n) for n in range(3)] == [4, 13, 284]
        assert [count_free_mirig(n, "triples") for n in range(3)] == [4, 13, 284]

    def test_strategies_agree_n3(self):
        assert count_free_mirig(3, "grouped") == count_free_mirig(3, "triples")

    def test_n3_recomputed_value(self):
        # exact recomputation; see the acceptance suite for the comparison
        # against the previously published figure
        assert count_free_mirig(3, "grouped") == 515861

    def test_bad_strategy(self):
        with pytest.raises(ValueError):
            count_free_mirig(2, "magic")

    def test_bounds(self):
        assert mirig_upper_bounds(0) == (4, 4)
        assert mirig_upper_bounds(1) == (16, 13)
        assert mirig_upper_bounds(2) == (16384, 6283)

    def test_variants_small(self):
        expected = {
            "11": [2, 4, 42],
            "21": [3, 7, 80],
            "12": [3, 9, 189],
            "02": [2, 4, 16],
            "boolean_semiring": [3, 7, 35],
        }
        for variant, values in expected.items():
            assert [count_characteristic_variant(n, variant) for n in range(3)] == values

    def test_variants_n3(self):
        assert count_characteristic_variant(3, "11") == 18030
        assert count_characteristic_variant(3, "21") == 40601
        assert count_characteristic_variant(3, "02") == 256
        assert count_characteristic_variant(3, "boolean_semiring") == 775
        # recomputed exactly; the acceptance suite compares against the
        # previously published figure
        assert count_characteristic_variant(3, "12") == 320235

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            count_characteristic_variant(2, "99")

    def test_negative_n(self):
        calls = [lambda s=s: count_free_mirig(-1, s) for s in ("grouped", "triples")]
        calls += [lambda v=v: count_characteristic_variant(-1, v) for v in VARIANTS]
        calls.append(lambda: mirig_upper_bounds(-1))
        for call in calls:
            with pytest.raises(ValueError, match="nonnegative"):
                call()


class TestCensusReference:
    """The histogram censuses against the per-S sums over enumerate_replete
    in tests/tree_reference.py, and the up-set recursion against two
    brute-force enumerations of up-sets."""

    def test_censuses_match_per_s_sums(self):
        for n in range(4):
            assert count_free_mirig(n, "grouped") == ref.count_free_mirig_grouped(n), n
            assert count_characteristic_variant(n, "11") == ref.count_replete(n), n
            assert count_characteristic_variant(n, "21") == ref.count_variant_21(n), n
            assert count_characteristic_variant(n, "12") == ref.count_variant_12(n), n

    def test_straggler_subset_sum_is_a_product(self):
        # Against the sum set by set, for every set of at most 3 alphabets
        # on 4 letters, with up to 2 more layers, at both bases.
        masks = range(1, 16)
        for r in range(4):
            for singles in itertools.combinations(masks, r):
                for layers in range(r, r + 3):
                    for base in (1, 2):
                        bits = sum(1 << a for a in singles)
                        assert triples._straggler_subset_sum(bits, layers, base) == (
                            ref.straggler_subset_sum(singles, layers, base)
                        ), (singles, layers, base)

    def test_upsets_are_the_dedekind_numbers(self):
        assert [len(ref.upsets_top_down(n)) for n in range(6)] == [2, 3, 6, 20, 168, 7581]
        for n in range(6):
            recursive = {
                frozenset(a for a in range(1 << n) if u >> a & 1) for u in _upsets(n)
            }
            assert len(recursive) == len(_upsets(n))
            assert recursive == set(ref.upsets_top_down(n)), n

    def test_boolean_semiring_matches_brute_force(self):
        top_down = [sum(2 ** len(u) for u in ref.upsets_top_down(n)) for n in range(6)]
        scan = [sum(2 ** len(f) for f in ref.upward_closed_families(n)) for n in range(5)]
        computed = [count_characteristic_variant(n, "boolean_semiring") for n in range(6)]
        assert computed == top_down == [3, 7, 35, 775, 319107, 42122976711]
        assert scan == computed[:5]
        with pytest.raises(CapacityError, match="n <= 5"):
            count_characteristic_variant(6, "boolean_semiring")


class TestExpressions:
    def test_idempotency(self):
        assert eval_expression("(a+b)*(a+b)", 2) == eval_expression("a+b", 2)

    def test_constant_relation(self):
        assert eval_expression("1+1+1+1", 2) == eval_expression("1+1", 2)

    def test_one_plus_x(self):
        assert eval_expression("1+a", 2) == eval_expression("1+a+a+a", 2)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            eval_expression("c", 2)

    def test_matches_thicket_evaluation(self):
        # evaluate via thicket arithmetic and normalize, as a second route
        f = (thicket_one(2) + Thicket(2, {A: 1})) * Thicket(2, {B: 1, t("ab"): 2})
        e = eval_expression("(1+a)*(b+2*a*b)", 2)
        assert normalize_thicket(f) == e
        g = Thicket(2, {A: 1}) * Thicket(2, {B: 1}) + Thicket(2, {B: 1})
        assert normalize_thicket(g) == eval_expression("a*b+b", 2)

    def test_n5_triple_pinned(self):
        # A full five-generator triple; past n = 3 the tree-level route is
        # too slow to serve as the reference, so the answer is pinned.
        c = eval_expression("(a+b+c+d+e)*(a*b+c*d+e)", 5)
        text = json.dumps(c.to_json(), sort_keys=True)
        assert (
            hashlib.sha256(text.encode()).hexdigest()
            == "0c659fe9aef2be91cb7d0755c7b06d7fc4b0fe5b5f9e3505050ff8fc51734709"
        )


class TestJson:
    def test_roundtrip(self, c2_elements):
        rng = random.Random(36)
        for c in rng.sample(c2_elements, 40):
            data = json.loads(json.dumps(c.to_json()))
            assert ComplementaryTriple.from_json(data) == c

    def test_schema_shape(self):
        data = eval_expression("a+b", 2).to_json()
        assert set(data) == {"S", "D", "p"}
        assert data["p"] == [1, 2]
        assert data["D"] == ["(() a a ())", "(() b b ())"]

    def test_deep_tree_is_parse_error(self):
        data = eval_expression("a+b", 2).to_json()
        data["D"] = ["(" * 5000]
        with pytest.raises(ParseError) as info:
            ComplementaryTriple.from_json(data)
        assert info.value.offset == MAX_TREE_NESTING
