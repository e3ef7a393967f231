"""Weyl group enumeration, the alternating-sum oracle, and module verification."""

import itertools
import math

import pytest

from weightmult import (
    DEFAULT_CAP,
    GroupTooLarge,
    InvalidType,
    RootSystem,
    build_root_system,
    enumerate_weyl,
    kostant_multiplicity,
    multiplicity_value,
    verify_module,
)


class TestEnumerateWeyl:
    def test_a2_has_six_elements_with_balanced_parity(self):
        rs = build_root_system("A", 2)
        elements = enumerate_weyl(rs)
        assert len(elements) == 6
        assert sum(w.parity for w in elements) == 0

    def test_a1_has_two_elements(self):
        assert len(enumerate_weyl(build_root_system("A", 1))) == 2

    @pytest.mark.parametrize(
        "family,rank,order",
        [("B", 2, 8), ("G", 2, 12), ("D", 4, 192), ("F", 4, 1152)],
    )
    def test_orders_match_the_group_order_attribute(self, family, rank, order):
        rs = build_root_system(family, rank)
        elements = enumerate_weyl(rs)
        assert len(elements) == rs.weyl_order == order
        assert sum(w.parity for w in elements) == 0

    def test_elements_move_rho_to_distinct_images(self):
        rs = build_root_system("B", 3)
        elements = enumerate_weyl(rs)
        images = {w.apply(rs.rho) for w in elements}
        assert len(images) == len(elements) == 48

    def test_identity_is_present(self):
        rs = build_root_system("A", 3)
        elements = enumerate_weyl(rs)
        identities = [w for w in elements if w.length == 0]
        assert len(identities) == 1
        assert identities[0].parity == 1
        assert identities[0].apply((1, 2, 3)) == (1, 2, 3)

    def test_e8_exceeds_the_default_cap(self):
        rs = build_root_system("E", 8)
        with pytest.raises(GroupTooLarge) as info:
            enumerate_weyl(rs)
        assert info.value.order == 696729600
        assert info.value.cap == DEFAULT_CAP

    def test_mislabelled_system_raises(self):
        # A G2 Cartan matrix labelled A3: six positive roots either way, but
        # the table order 24 is twice the group the reflections generate.
        rs = RootSystem(((2, -3), (-1, 2)), (("A", 3),))
        with pytest.raises(InvalidType):
            enumerate_weyl(rs)

    def test_custom_cap_is_honoured(self):
        rs = build_root_system("A", 3)
        with pytest.raises(GroupTooLarge):
            enumerate_weyl(rs, cap=10)

    @pytest.mark.parametrize(
        "family,rank",
        [("A", r) for r in range(1, 6)]
        + [("B", 2), ("B", 3), ("B", 4), ("C", 3), ("C", 4), ("D", 4), ("D", 5), ("F", 4), ("G", 2)],
    )
    def test_parity_is_the_determinant_of_the_matrix(self, family, rank):
        # Leibniz formula: independent of both the walk and any elimination.
        signed_perms = [
            (perm, (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2)))
            for perm in itertools.permutations(range(rank))
        ]
        for w in enumerate_weyl(build_root_system(family, rank)):
            det = sum(
                sign * math.prod(w.matrix[row][col] for row, col in enumerate(perm))
                for perm, sign in signed_perms
            )
            assert det == w.parity, (family, rank, w)


class TestKostantMultiplicity:
    def test_highest_weight(self):
        rs = build_root_system("A", 2)
        assert kostant_multiplicity(rs, (1, 1), (1, 1)) == 1

    def test_a2_adjoint_zero_weight(self):
        rs = build_root_system("A", 2)
        assert kostant_multiplicity(rs, (1, 1), (0, 0)) == 2

    def test_weight_not_below(self):
        rs = build_root_system("A", 2)
        assert kostant_multiplicity(rs, (1, 0), (2, 0)) == 0

    def test_b2_values(self):
        rs = build_root_system("B", 2)
        assert kostant_multiplicity(rs, (1, 1), (0, 0)) == 0
        assert kostant_multiplicity(rs, (0, 2), (0, 0)) == 2

    def test_agrees_with_the_dispatcher_on_g2(self):
        rs = build_root_system("G", 2)
        lam = (0, 1)
        for mu in [(0, 1), (1, 0), (0, 0), (2, 0)]:
            assert kostant_multiplicity(rs, lam, mu) == multiplicity_value(rs, lam, mu)


class TestVerifyModule:
    def test_a2_adjoint_passes(self):
        rs = build_root_system("A", 2)
        report = verify_module(rs, (1, 1))
        assert report.passed
        assert not report.oracle_capped
        assert len(report.rows) == 2
        assert report.dimension_character == report.dimension_weyl == 8
        assert report.first_divergence is None
        assert "pass" in report.summary()

    def test_trivial_module(self):
        rs = build_root_system("G", 2)
        report = verify_module(rs, (0, 0))
        assert report.passed
        assert report.dimension_character == 1

    def test_a3_twenty_dimensional_module(self):
        rs = build_root_system("A", 3)
        report = verify_module(rs, (1, 1, 0))
        assert report.passed
        assert report.dimension_character == 20

    def test_capped_group_falls_back_to_the_dimension_check(self):
        rs = build_root_system("E", 7)
        lam = (1, 0, 0, 0, 0, 0, 0)
        report = verify_module(rs, lam)
        assert report.oracle_capped
        assert report.passed
        assert report.dimension_character == report.dimension_weyl == 133
        assert all(row[3] is None for row in report.rows)
        assert "skipped" in report.summary()

    def test_every_row_agrees_in_b2(self):
        rs = build_root_system("B", 2)
        report = verify_module(rs, (1, 1))
        assert report.passed
        for _mu, m_auto, m_classical, m_kostant in report.rows:
            assert m_auto == m_classical == m_kostant
