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
    PreconditionViolated,
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

    # the Poincare polynomial of W is the product of (1 + q + ... + q^e) over the exponents e
    @pytest.mark.parametrize(
        "family,rank,exponents",
        [("A", 3, (1, 2, 3)), ("B", 3, (1, 3, 5)), ("G", 2, (1, 5)), ("D", 4, (1, 3, 3, 5)), ("F", 4, (1, 5, 7, 11))],
    )
    def test_elements_per_length_are_the_poincare_coefficients(self, family, rank, exponents):
        poincare = [1]
        for e in exponents:
            poincare = [sum(poincare[max(0, n - e):n + 1]) for n in range(len(poincare) + e)]
        lengths = [w.length for w in enumerate_weyl(build_root_system(family, rank))]
        assert lengths == sorted(lengths)
        assert [lengths.count(n) for n in range(len(poincare))] == poincare
        assert len(lengths) == sum(poincare)

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


class TestSystemPartitionTable:
    """Each system keeps one partition table, replaced whole and never written into."""

    def test_a_held_table_is_unchanged_by_a_larger_query(self):
        rs = build_root_system("G", 2)
        assert rs._partitions is None
        assert kostant_multiplicity(rs, (1, 1), (0, 0)) == 4
        held = rs._partitions
        top, table, cells = held.top, held.table, list(held.table)
        assert kostant_multiplicity(rs, (3, 3), (0, 0)) == 64
        assert rs._partitions is not held
        assert (held.top, held.table) == (top, cells) and held.table is table
        assert rs._partitions.top == (15, 9)
        # a box inside the held one reads it
        assert kostant_multiplicity(rs, (2, 2), (0, 0)) == 21
        assert rs._partitions.top == (15, 9)

    def test_a_merged_box_over_the_cap_restarts_the_table(self, monkeypatch):
        rs = build_root_system("A", 2)
        assert kostant_multiplicity(rs, (3, 0), (0, 0)) == 1  # c = (2, 1)
        # each box has 6 cells, the merged (2, 2) has 9
        monkeypatch.setattr(partition, "_MAX_CELLS", 6)
        assert kostant_multiplicity(rs, (0, 3), (0, 0)) == 1  # c = (1, 2)
        held = rs._partitions
        assert held.top == (1, 2)
        # a box over the cap on its own raises, and leaves the table in place
        with pytest.raises(PreconditionViolated):
            kostant_multiplicity(rs, (2, 2), (0, 0))
        assert rs._partitions is held

    def test_a_caller_memo_and_a_partition_count_leave_the_system_table_alone(self):
        rs = build_root_system("B", 2)
        memo = PartitionMemo()
        assert kostant_multiplicity(rs, (0, 2), (0, 0), memo=memo) == 2
        assert kostant_partition(rs, (3, 3)) == kostant_partition(rs, (3, 3), memo)
        assert rs._partitions is None
        assert memo.top == (3, 3)


    def test_a_caller_memo_over_the_real_cap_answers_like_the_system_table(self):
        # c = (2100, 0), then (0, 2100): the merged (2100, 2100) needs 4,414,201 cells
        rs = build_root_system("A", 2)
        memo = PartitionMemo()
        assert kostant_multiplicity(rs, (4200, 0), (0, 2100), memo=memo) == 1
        assert kostant_multiplicity(rs, (0, 4200), (2100, 0), memo=memo) == 1
        assert memo.top == (0, 2100)
        assert kostant_multiplicity(rs, (0, 4200), (2100, 0)) == 1


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

    def test_a_second_verify_on_one_system_fills_nothing(self, monkeypatch):
        fills = []
        fill = partition._fill

        def counted(top, roots):
            fills.append(top)
            return fill(top, roots)

        monkeypatch.setattr(partition, "_fill", counted)
        rs = build_root_system("F", 4)
        first = verify_module(rs, (0, 0, 0, 2))
        assert len(fills) == 1
        assert verify_module(rs, (0, 0, 0, 2)) == first
        assert len(fills) == 1

    def test_an_uncapped_verify_skips_a_table_over_the_cell_cap(self):
        # E8 (0,...,0,1,0): the box under lam - 0 has 11,351,340 cells
        rs = build_root_system("E", 8)
        lam = (0, 0, 0, 0, 0, 0, 1, 0)
        report = verify_module(rs, lam, cap=10**12)
        assert report.passed and report.oracle_capped
        assert report.oracle_cells == 11_351_340
        assert [row[3] for row in report.rows] == [None] * 4
        assert report.summary().splitlines()[1] == (
            "oracle skipped: its partition table needs 11351340 cells, over the cell cap "
            "(dimension, classical and character checks)"
        )
        assert rs._partitions is None
        capped = verify_module(rs, lam, cap=1)
        assert (capped.oracle_capped, capped.oracle_cells, capped.rows) == (True, 0, report.rows)
        assert capped.summary().splitlines()[1] == (
            "oracle skipped: |W| = 696729600 exceeds cap (dimension, classical and character checks)"
        )

    def test_the_cell_cap_is_read_at_call_time(self, monkeypatch):
        rs = build_root_system("G", 2)
        monkeypatch.setattr(partition, "_MAX_CELLS", 10)
        report = verify_module(rs, (2, 2))
        assert report.passed and report.oracle_capped
        assert report.oracle_cells == 77  # the box under (10, 6)
        monkeypatch.setattr(partition, "_MAX_CELLS", 77)
        assert not verify_module(rs, (2, 2)).oracle_capped

    def test_only_the_kostant_column_solves(self, monkeypatch):
        # the lowest row's box comes from the dispatcher sweep's descent, so
        # `_difference` runs once per Kostant row, inside `kostant_multiplicity`
        difference = ORACLE._difference
        solved = []

        def counted(rs, lam, mu):
            solved.append(mu)
            return difference(rs, lam, mu)

        monkeypatch.setattr(ORACLE, "_difference", counted)
        report = verify_module(build_root_system("B", 3), (1, 1, 1))
        assert report.passed and len(report.rows) == 6
        assert solved == [row[0] for row in reversed(report.rows)]

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

    @staticmethod
    def _off_by_one_at(monkeypatch, name, row):
        function = getattr(ORACLE, name)

        def planted(rs, lam, mu, *args):
            return function(rs, lam, mu, *args) + (mu == row)

        monkeypatch.setattr(ORACLE, name, planted)

    @staticmethod
    def _classical_off_by_one_at(monkeypatch, row):
        function = ORACLE.freudenthal_classical
        monkeypatch.setattr(ORACLE, "freudenthal_classical", lambda ctx, mu: function(ctx, mu) + (mu == row))

    @pytest.mark.parametrize(
        "classical,kostant,divergence",
        [
            (3, 3, "classical disagrees at (0, 1, 1): 5 vs 4"),
            (1, 4, "classical disagrees at (2, 0, 1): 3 vs 2"),
            (4, 1, "kostant disagrees at (2, 0, 1): 3 vs 2"),
        ],
        ids=["one-row", "classical-row-first", "kostant-row-first"],
    )
    def test_the_first_divergence_is_by_row_then_by_column(self, monkeypatch, classical, kostant, divergence):
        rs, lam = build_root_system("B", 3), (1, 1, 1)
        rows = [row[0] for row in verify_module(rs, lam).rows]
        self._classical_off_by_one_at(monkeypatch, rows[classical])
        self._off_by_one_at(monkeypatch, "kostant_multiplicity", rows[kostant])
        report = verify_module(rs, lam)
        assert report.first_divergence == divergence
        assert report.passed is False

    @pytest.mark.parametrize(
        "classical,character,divergence",
        [
            (1, 1, "classical disagrees at (0, 1, 0, 0, 0, 0, 0): 7 vs 6"),
            (1, 2, "classical disagrees at (0, 1, 0, 0, 0, 0, 0): 7 vs 6"),
            (2, 1, "character disagrees at (0, 1, 0, 0, 0, 0, 0): 7 vs 6"),
        ],
        ids=["one-row", "classical-row-first", "character-row-first"],
    )
    def test_a_capped_report_orders_classical_and_character_the_same_way(
        self, monkeypatch, classical, character, divergence
    ):
        rs, lam = build_root_system("E", 7), (1, 0, 0, 0, 0, 0, 1)
        chart = ORACLE.character(rs, lam)
        rows = list(chart)
        planted = dict(chart)
        planted[rows[character]] += 1
        monkeypatch.setattr(ORACLE, "character", lambda rs, lam: planted)
        self._classical_off_by_one_at(monkeypatch, rows[classical])
        report = verify_module(rs, lam)
        assert report.oracle_capped and report.passed is False
        assert report.first_divergence == divergence

    def test_each_per_point_count_passes_the_walk_table(self, monkeypatch):
        # bench/spans.py reads partition.memo_entries off this third positional argument
        calls = []
        function = ORACLE.kostant_partition

        def spy(*args, **kwargs):
            calls.append((args, kwargs))
            return function(*args, **kwargs)

        monkeypatch.setattr(ORACLE, "kostant_partition", spy)
        assert verify_module(build_root_system("B", 3), (1, 1, 1)).passed
        assert calls
        for args, kwargs in calls:
            assert len(args) == 3 and not kwargs
            assert isinstance(args[2], PartitionMemo)

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
