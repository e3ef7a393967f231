"""Weyl group enumeration, the alternating-sum oracle, and module verification."""

import importlib
import itertools
import math
import random

import pytest

from weightmult import (
    DEFAULT_CAP,
    GroupTooLarge,
    InvalidType,
    PartitionMemo,
    RootSystem,
    build_root_system,
    character,
    enumerate_weyl,
    is_under,
    kostant_multiplicity,
    kostant_partition,
    multiplicity_value,
    verify_module,
    weight_to_root_coords,
)
from weightmult import partition
from weightmult.cli import main

ORACLE = importlib.import_module("weightmult.oracle")


def _block(*cartans):
    """Block-diagonal Cartan matrix of a product system."""
    rank = sum(len(c) for c in cartans)
    rows, offset = [], 0
    for c in cartans:
        for row in c:
            rows.append((0,) * offset + tuple(row) + (0,) * (rank - offset - len(c)))
        offset += len(c)
    return tuple(rows)


def dense_kostant(rs, lam, mu, elements, memo):
    """The alternating sum over the whole enumerated group, term by term."""
    shifted = tuple(x + 1 for x in lam)
    target = tuple(m + 1 for m in mu)
    total = 0
    for w in elements:
        gamma = is_under(rs, target, w.apply(shifted))
        if gamma is not None:
            total += w.parity * kostant_partition(rs, gamma, memo)
    return total


def _system(factors):
    """One simple system, or the product of several as a block Cartan matrix."""
    if len(factors) == 1:
        return build_root_system(*factors[0])
    return RootSystem(_block(*(build_root_system(f, r).cartan for f, r in factors)))


# Every finite simple type with |W| <= 2000, and two product systems.
_DENSE_SYSTEMS = [
    ((family, rank),)
    for family, rank in [("A", r) for r in range(1, 6)]
    + [("B", 2), ("B", 3), ("B", 4), ("C", 2), ("C", 3), ("C", 4)]
    + [("D", 3), ("D", 4), ("D", 5), ("F", 4), ("G", 2)]
] + [(("A", 1), ("G", 2)), (("B", 2), ("A", 2))]


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
        # The E6 Cartan matrix labelled B6 (rank 6 and 36 positive roots
        # either way) is refused at construction.
        rs = build_root_system("E", 6)
        with pytest.raises(InvalidType):
            RootSystem(rs.cartan, (("B", 6),))
        # A stored order other than the 51,840 elements the reflections
        # generate (here B6's 46,080) still trips the guard of the walk.
        rs.weyl_order = 46080
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

    def test_e7_exceeds_the_default_cap(self):
        rs = build_root_system("E", 7)
        with pytest.raises(GroupTooLarge) as info:
            kostant_multiplicity(rs, (1, 0, 0, 0, 0, 0, 0), (0,) * 7)
        assert info.value.order == 2903040
        assert info.value.cap == DEFAULT_CAP

    # the cells of the box up to lam - mu of the lowest row
    @pytest.mark.parametrize(
        "family,rank,lam,entries", [("G", 2, (2, 2), 77), ("F", 4, (0, 0, 0, 2), 525)], ids=["G2", "F4"]
    )
    def test_partition_memo_size_over_a_kostant_column(self, family, rank, lam, entries):
        rs = build_root_system(family, rank)
        memo = PartitionMemo()
        for mu, m in character(rs, lam).items():
            assert kostant_multiplicity(rs, lam, mu, memo=memo) == m
        assert len(memo) == entries

    def test_a50_column_does_not_recurse(self):
        # the partition count used to recurse once per positive root, which
        # overflowed the stack from A45 (1,035 roots) up
        rs = build_root_system("A", 50)
        lam = (1, 1) + (0,) * 48
        mu = (0, 0, 1) + (0,) * 47  # lam - alpha_1 - alpha_2
        assert kostant_multiplicity(rs, lam, mu, cap=rs.weyl_order) == multiplicity_value(rs, lam, mu) == 2

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

    def test_rank_zero_module(self):
        report = verify_module(RootSystem(()), ())
        assert report.passed
        assert report.rows == [((), 1, 1, 1)]

    def test_f4_fills_its_table_once(self, monkeypatch):
        fill = partition._fill
        cells = []

        def counted(top, roots):
            table, strides = fill(top, roots)
            cells.append(len(table))
            return table, strides

        monkeypatch.setattr(partition, "_fill", counted)
        assert verify_module(build_root_system("F", 4), (0, 0, 0, 2)).passed
        assert cells == [525]

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


def _off_by_one(function):
    return lambda *args, **kwargs: function(*args, **kwargs) + 1


class TestVerifyModuleFailures:
    """A planted off-by-one in each column fails the report, the summary and the CLI."""

    @pytest.mark.parametrize(
        "name,divergence",
        [
            ("freudenthal_classical", "classical disagrees"),
            ("kostant_multiplicity", "kostant disagrees"),
            ("weyl_dimension", "dimension mismatch"),
        ],
        ids=["classical", "kostant", "weyl-dimension"],
    )
    def test_a_planted_fault_fails_the_report(self, monkeypatch, capsys, name, divergence):
        monkeypatch.setattr(ORACLE, name, _off_by_one(getattr(ORACLE, name)))
        report = verify_module(build_root_system("B", 3), (1, 1, 1))
        assert report.passed is False
        assert report.first_divergence.startswith(divergence)
        assert report.summary().endswith(f"verify: FAIL ({report.first_divergence})")
        assert main(["verify", "B3", "[1,1,1]"]) == 1
        assert f"verify: FAIL ({divergence}" in capsys.readouterr().out

    def test_a_capped_report_compares_the_dispatcher_with_the_character(self, monkeypatch, capsys):
        # E7 is over the default cap, so the Kostant column is skipped and
        # every dispatcher row is checked against the telescoped character
        rs, lam = build_root_system("E", 7), (1, 0, 0, 0, 0, 0, 1)
        chart = character(rs, lam)
        assert verify_module(rs, lam).passed
        planted = dict(chart)
        mu = next(mu for mu in chart if any(mu) and mu != lam)
        planted[mu] += 1
        monkeypatch.setattr(ORACLE, "character", lambda rs, lam: planted)
        report = verify_module(rs, lam)
        assert report.oracle_capped and report.passed is False
        assert report.first_divergence == f"character disagrees at {mu}: {chart[mu] + 1} vs {chart[mu]}"
        # the dispatcher column is still the dispatcher's, so the dimension agrees
        assert report.dimension_character == report.dimension_weyl
        assert main(["verify", "E7", "[1,0,0,0,0,0,1]"]) == 1
        assert f"verify: FAIL (character disagrees at {mu}" in capsys.readouterr().out

    def test_a_capped_report_that_fails_exits_one(self, monkeypatch, capsys):
        # exit 4 is for a capped report that passed; a divergence outranks it
        monkeypatch.setattr(ORACLE, "weyl_dimension", _off_by_one(ORACLE.weyl_dimension))
        assert main(["verify", "E7", "[1,0,0,0,0,0,0]"]) == 1
        assert "verify: FAIL (dimension mismatch: 133 vs 134)" in capsys.readouterr().out


class TestPrunedWalkEqualsDenseSum:
    SAMPLES = 30

    @pytest.mark.parametrize(
        "factors", _DENSE_SYSTEMS, ids=["x".join(f"{f}{r}" for f, r in fs) for fs in _DENSE_SYSTEMS]
    )
    def test_seeded_pairs(self, factors):
        rs = _system(factors)
        name = rs.label()
        elements = enumerate_weyl(rs)
        rng = random.Random(name)
        memo = PartitionMemo()
        seen = set()
        for _ in range(self.SAMPLES):
            lam = tuple(rng.randint(0, 1) for _ in range(rs.rank))
            if rng.random() < 0.5:
                mu = tuple(x + rng.randint(-1, 1) for x in lam)
            else:  # lam minus a positive root: under lam, often a nonzero value
                mu = tuple(a - b for a, b in zip(lam, rng.choice(rs.pos_roots_fundamental)))
            want = dense_kostant(rs, lam, mu, elements, memo)
            assert kostant_multiplicity(rs, lam, mu, memo=memo) == want, (name, lam, mu)
            if want:
                seen.add("nonzero")
            if min(mu) < 0:
                seen.add("non-dominant")
            if is_under(rs, mu, lam) is None:
                seen.add("not under")
            diff = tuple(a - b for a, b in zip(lam, mu))
            if any(c.denominator != 1 for c in weight_to_root_coords(rs, diff)):
                seen.add("off the root lattice")
                assert want == 0, (name, lam, mu)
        # the root lattice has index det(cartan) in the weight lattice
        assert seen >= {"nonzero", "non-dominant", "not under"}, (name, seen)
        assert ("off the root lattice" in seen) == (rs.cartan_det != 1), (name, seen)
