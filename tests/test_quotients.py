import pytest
from hypothesis import given, strategies as st

from mirigs.quotients import (
    CoefficientRig,
    MonoidTable,
    N22,
    campion_mirig,
    characteristic,
    free_idempotent_monoid_table,
    is_idempotent_monoid,
    nmn_table,
    reduce_nat,
    verify_rig_axioms,
)


class TestQuotientArithmetic:
    def test_examples(self):
        assert N22.add(3, 1) == 2
        assert N22.mul(2, 3) == 2
        assert CoefficientRig((1, 2)).add(1, 2) == 1

    @given(st.integers(0, 60), st.integers(0, 60), st.integers(0, 3), st.integers(1, 4))
    def test_homomorphic_image(self, x, y, m, n):
        # reducing before or after natural arithmetic agrees
        assert reduce_nat(x + y, m, n) == reduce_nat(
            reduce_nat(x, m, n) + reduce_nat(y, m, n), m, n
        )
        assert reduce_nat(x * y, m, n) == reduce_nat(
            reduce_nat(x, m, n) * reduce_nat(y, m, n), m, n
        )

    def test_range_invariant(self):
        for k in range(20):
            assert 0 <= reduce_nat(k, 2, 2) <= 3
        assert reduce_nat(4, 2, 2) == 2 and reduce_nat(5, 2, 2) == 3


class TestAxioms:
    def test_n22_is_mirig(self):
        report = verify_rig_axioms(nmn_table(2, 2), require_mirig=True)
        assert report.ok and report.mirig and report.commutative

    def test_all_small_quotients_are_rigs(self):
        for m in range(0, 3):
            for n in range(1, 4):
                assert verify_rig_axioms(nmn_table(m, n)).ok

    def test_mirig_quotients(self):
        # exactly the characteristics a mirig can have
        mirig_chars = {(2, 2), (1, 2), (0, 2), (2, 1), (1, 1), (0, 1)}
        for m in range(0, 3):
            for n in range(1, 3):
                report = verify_rig_axioms(nmn_table(m, n))
                assert report.mirig == ((m, n) in mirig_chars)

    def test_corrupted_table_reported(self):
        bad = nmn_table(2, 2)
        bad.mul[2][3] = 0
        report = verify_rig_axioms(bad)
        assert not report.ok
        assert any(name.startswith("distrib") for name, _ in report.violations)

    def test_characteristic(self):
        for m in range(0, 3):
            for n in range(1, 4):
                assert characteristic(nmn_table(m, n)) == (m, n)


class TestCampion:
    def test_trivial_monoid_gives_n21(self):
        rig = campion_mirig(MonoidTable(["1"], [[0]], 0))
        assert rig.size() == 3
        assert characteristic(rig) == (2, 1)
        n21 = nmn_table(2, 1)
        # same tables up to the element order 0, 1, 2
        assert rig.add == n21.add and rig.mul == n21.mul

    def test_m2_gives_9_element_noncommutative_mirig(self):
        rig = campion_mirig(free_idempotent_monoid_table(2))
        report = verify_rig_axioms(rig, require_mirig=True)
        assert rig.size() == 9
        assert report.ok and report.mirig
        assert not report.commutative
        assert characteristic(rig) == (2, 1)

    def test_m1_commutative(self):
        rig = campion_mirig(free_idempotent_monoid_table(1))
        report = verify_rig_axioms(rig, require_mirig=True)
        assert rig.size() == 4
        assert report.ok and report.commutative

    def test_rejects_non_idempotent_monoid(self):
        z3 = MonoidTable(["0", "1", "2"], [[0, 1, 2], [1, 2, 0], [2, 0, 1]], 0)
        assert not is_idempotent_monoid(z3)
        with pytest.raises(ValueError):
            campion_mirig(z3)

    def test_monoid_table_shortest_names(self):
        table = free_idempotent_monoid_table(2)
        assert sorted(table.elements) == sorted(["1", "a", "b", "ab", "ba", "aba", "bab"])
