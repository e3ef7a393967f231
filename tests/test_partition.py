"""Kostant partition counts and Verma module multiplicities."""

import importlib
import itertools
import math
import operator
from fractions import Fraction

import pytest

from weightmult import (
    DimensionMismatch,
    NegativeInput,
    PartitionMemo,
    PreconditionViolated,
    RootSystem,
    build_root_system,
    character,
    kostant_multiplicity,
    kostant_partition,
    verma_multiplicity,
)
from weightmult import partition, rootsys
from weightmult.rootsys import _difference


def brute_force_partitions(rs, gamma):
    """Count decompositions by bounded depth-first search over the positive roots."""

    def count(remaining, start):
        if not any(remaining):
            return 1
        total = 0
        for idx in range(start, len(rs.pos_roots)):
            root = rs.pos_roots[idx]
            shifted = tuple(a - b for a, b in zip(remaining, root))
            if all(x >= 0 for x in shifted):
                total += count(shifted, idx)
        return total

    return count(tuple(gamma), 0)


def test_zero_has_one_decomposition():
    for family, rank in [("A", 2), ("B", 3), ("G", 2)]:
        rs = build_root_system(family, rank)
        assert kostant_partition(rs, (0,) * rank) == 1
    assert kostant_partition(RootSystem(()), ()) == 1


def test_a2_sum_of_simples():
    rs = build_root_system("A", 2)
    assert kostant_partition(rs, (1, 1)) == 2


def test_a2_doubled_sum():
    rs = build_root_system("A", 2)
    assert kostant_partition(rs, (2, 2)) == 3


def test_each_positive_root_has_one_decomposition_of_height_one():
    rs = build_root_system("B", 2)
    for i in range(rs.rank):
        gamma = tuple(1 if k == i else 0 for k in range(rs.rank))
        assert kostant_partition(rs, gamma) == 1


def test_negative_entries_rejected():
    rs = build_root_system("A", 2)
    with pytest.raises(NegativeInput):
        kostant_partition(rs, (1, -1))


def test_wrong_length_rejected():
    rs = build_root_system("A", 2)
    with pytest.raises(DimensionMismatch):
        kostant_partition(rs, (1, 1, 0))


@pytest.mark.parametrize("gamma", [(1.5, 0.5), (Fraction(1, 2), 1)])
def test_non_integer_entries_rejected(gamma):
    rs = build_root_system("A", 2)
    with pytest.raises(PreconditionViolated):
        kostant_partition(rs, gamma)


@pytest.mark.parametrize(
    "family,rank", [("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3), ("C", 3), ("F", 4)]
)
def test_matches_brute_force_up_to_height_four(family, rank):
    rs = build_root_system(family, rank)
    memo = PartitionMemo()
    for gamma in itertools.product(range(5), repeat=rank):
        if sum(gamma) <= 4:
            assert kostant_partition(rs, gamma, memo) == brute_force_partitions(rs, gamma)


def test_memo_is_reusable_across_calls():
    rs = build_root_system("B", 2)
    memo = PartitionMemo()
    first = kostant_partition(rs, (3, 2), memo)
    assert kostant_partition(rs, (3, 2), memo) == first
    assert kostant_partition(rs, (3, 2)) == first


def test_empty_caller_memo_is_filled():
    rs = build_root_system("B", 2)
    memo = PartitionMemo()
    kostant_partition(rs, (3, 2), memo)
    assert len(memo) > 0


def test_verma_at_the_highest_weight():
    rs = build_root_system("A", 3)
    assert verma_multiplicity(rs, (2, 0, 1), (2, 0, 1)) == 1


def test_verma_a2_zero_weight_of_the_adjoint():
    rs = build_root_system("A", 2)
    assert verma_multiplicity(rs, (1, 1), (0, 0)) == 2


def test_verma_outside_the_root_lattice_coset():
    rs = build_root_system("A", 2)
    assert verma_multiplicity(rs, (1, 0), (0, 0)) == 0


def test_memo_refuses_a_system_with_other_positive_roots():
    # B2 and C2 store different positive roots at the same positions, so a
    # (gamma, k) entry counted on one is wrong for the other: P_B2(1, 2) = 3
    # but P_C2(1, 2) = 2.
    b2, c2 = build_root_system("B", 2), build_root_system("C", 2)
    memo = PartitionMemo()
    assert kostant_partition(b2, (1, 2), memo) == 3
    with pytest.raises(PreconditionViolated):
        kostant_partition(c2, (1, 2), memo)
    assert kostant_partition(c2, (1, 2)) == 2
    # another build of the same system has equal positive roots and shares the memo
    assert kostant_partition(build_root_system("B", 2), (2, 2), memo) == kostant_partition(b2, (2, 2))


def test_a50_counts_do_not_recurse():
    # the count used to recurse once per positive root, which overflowed the
    # stack from A45 (1,035 roots) up
    rs = build_root_system("A", 50)

    def vec(**coords):
        return tuple(coords.get(f"a{k + 1}", 0) for k in range(50))

    assert kostant_partition(rs, vec(a1=1)) == 1
    assert kostant_partition(rs, vec(a1=1, a2=1)) == 2
    memo = PartitionMemo()
    for gamma in [
        vec(a1=1, a2=2, a3=1),
        vec(a1=2, a2=1),
        vec(a24=1, a25=2, a26=1, a27=1),
        vec(a49=1, a50=1),
        vec(a1=1, a50=1),
    ]:
        assert kostant_partition(rs, gamma, memo) == brute_force_partitions(rs, gamma), gamma


@pytest.mark.parametrize("family,rank", [("G", 2), ("B", 3), ("C", 3), ("F", 4)])
def test_refill_over_incomparable_gammas(family, rank):
    rs = build_root_system(family, rank)
    memo = PartitionMemo()
    pad = (0,) * (rank - 2)
    kostant_partition(rs, (1, 0) + pad, memo)
    kostant_partition(rs, (0, 2) + pad, memo)
    assert len(memo) == 2 * 3
    for head in itertools.product(range(2), range(3)):
        gamma = head + pad
        assert kostant_partition(rs, gamma, memo) == brute_force_partitions(rs, gamma), gamma
    assert len(memo) == 2 * 3


def test_refilled_memo_still_refuses_another_system():
    b2, c2 = build_root_system("B", 2), build_root_system("C", 2)
    memo = PartitionMemo()
    kostant_partition(b2, (1, 0), memo)
    kostant_partition(b2, (0, 2), memo)
    for gamma in [(0, 1), (2, 2)]:
        with pytest.raises(PreconditionViolated):
            kostant_partition(c2, gamma, memo)


def test_a_table_over_the_cell_budget_raises_before_allocating():
    # 2^33 cells would take about 69 GB as one list
    assert partition._MAX_CELLS >= 2_494_800  # the Kostant column of E8 (1,0,0,0,0,0,0,0)
    rs = build_root_system("A", 33)
    memo = PartitionMemo()
    with pytest.raises(PreconditionViolated):
        kostant_partition(rs, (1,) * 33, memo)
    assert len(memo) == 0
    assert kostant_partition(rs, (1,) * 10 + (0,) * 23, memo) == 2 ** 9


class TestCallerMemoGrowth:
    """A caller memo grows by the system table's rule: over the cap it restarts at the query's box."""

    def _restarted(self, monkeypatch):
        rs = build_root_system("A", 2)
        memo = PartitionMemo()
        # each box has 4 cells, the merged (3, 3) has 16
        monkeypatch.setattr(partition, "_MAX_CELLS", 12)
        assert kostant_partition(rs, (3, 0), memo) == 1
        assert kostant_partition(rs, (0, 3), memo) == 1
        return rs, memo

    def test_a_merged_box_over_the_cap_restarts_at_the_query_box(self, monkeypatch):
        rs, memo = self._restarted(monkeypatch)
        assert memo.top == (0, 3) and len(memo) == 4
        for gamma in [(0, 0), (0, 1), (0, 2), (0, 3)]:
            assert kostant_partition(rs, gamma, memo) == brute_force_partitions(rs, gamma)
        assert memo.top == (0, 3)

    def test_a_box_over_the_cap_on_its_own_leaves_the_memo_alone(self, monkeypatch):
        rs, memo = self._restarted(monkeypatch)
        top, strides, table, cells = memo.top, memo.strides, memo.table, list(memo.table)
        with pytest.raises(PreconditionViolated):
            kostant_partition(rs, (3, 3), memo)
        assert (memo.top, memo.strides) == (top, strides)
        assert memo.table is table and memo.table == cells


def _reference_fill(top, roots):
    """Reference for `partition._fill`: every run in slices of at most ``d`` cells.

    The fill before the head lists and the strided prefix sums: each head of a
    run comes from `itertools.product` over the coordinates before the root's
    last nonzero one, and a run longer than ``d`` goes in slices of ``d``.
    """
    sizes = [t + 1 for t in top]
    strides = [1] * len(top)
    for i in range(len(top) - 1, 0, -1):
        strides[i - 1] = strides[i] * sizes[i]
    table = [0] * math.prod(sizes)
    table[0] = 1
    for root in roots:
        if any(r > t for r, t in zip(root, top)):
            continue
        last = max(i for i, r in enumerate(root) if r)
        d = sum(r * s for r, s in zip(root, strides))
        offset = root[last] * strides[last]
        span = sizes[last] * strides[last] - offset
        for head in itertools.product(*map(range, root[:last], sizes[:last])):
            lo = sum(h * s for h, s in zip(head, strides)) + offset
            hi = lo + span
            for a in range(lo, hi, d):
                b = min(a + d, hi)
                table[a:b] = map(operator.add, table[a:b], table[a - d:b - d])
    return table, tuple(strides)


# the boxes `verify_module` fills for the benchmark's ten modules, and deeper ones
_VERIFY_MODULES = [
    ("G", 2, (2, 2)), ("A", 3, (2, 1, 2)), ("B", 3, (1, 1, 1)), ("B", 4, (1, 0, 0, 1)),
    ("C", 4, (1, 0, 0, 1)), ("F", 4, (1, 0, 0, 0)), ("F", 4, (0, 0, 0, 2)),
    ("A", 5, (1, 0, 1, 0, 1)), ("D", 5, (1, 0, 0, 0, 1)), ("D", 4, (1, 0, 1, 1)),
]
_BOXES = [
    ("A", 2, (300, 300)), ("B", 2, (120, 200)), ("G", 2, (60, 100)), ("F", 4, (6, 12, 16, 8)),
    ("E", 8, (2, 3, 4, 6, 5, 4, 3, 2)), ("A", 16, (1,) * 16),
]


def _verify_box(family, rank, lam):
    """The coordinatewise maximum of ``lam - mu`` over the dominant weights of the module."""
    rs = build_root_system(family, rank)
    coords = importlib.import_module("weightmult.multiplicity")._descent(rs, lam)
    return family, rank, tuple(map(max, *coords.values()))


@pytest.mark.parametrize(
    "family,rank,top",
    [_verify_box(*module) for module in _VERIFY_MODULES] + _BOXES,
    ids=lambda x: "".join(map(str, x)) if isinstance(x, tuple) else str(x),
)
def test_fill_equals_the_reference(family, rank, top):
    roots = build_root_system(family, rank).pos_roots
    assert partition._fill(top, roots) == _reference_fill(top, roots)


def _reference_alternating_sum(rs, lam, c, count):
    """The orbit walk with one ``count`` call per point and the parent rule as a generator."""
    total = 0
    stack = [(tuple(x + 1 for x in lam), c, 1)]
    while stack:
        v, g, sign = stack.pop()
        total += sign * count(g)
        for i, t in enumerate(v):
            if t <= 0 or g[i] < t:
                continue
            child = rs.reflect(v, i)
            if any(x < 0 for x in child[:i]):
                continue
            lowered = list(g)
            lowered[i] -= t
            stack.append((child, tuple(lowered), -sign))
    return total


class TestWalkEqualsTheCountingWalk:
    """Kostant's alternating sum gives the total of the walk that counts each point.

    On every row of the benchmark's ten `verify` modules and of E7
    (0,0,0,0,0,1,0), with the system's table and with a caller's memo, and
    on the pieces `auto` routes to the sum in the route rule's table: A2
    (10,10) and B3 (0,2,0) at the zero weight.
    """

    @pytest.mark.parametrize(
        "family,rank,lam",
        _VERIFY_MODULES + [("E", 7, (0, 0, 0, 0, 0, 1, 0))],
        ids=lambda x: "".join(map(str, x)) if isinstance(x, tuple) else str(x),
    )
    def test_every_module_row(self, family, rank, lam):
        rs = build_root_system(family, rank)
        counts = PartitionMemo()
        for mu in character(rs, lam):
            c = _difference(rs, lam, mu)[2]
            want = _reference_alternating_sum(rs, lam, c, lambda g: kostant_partition(rs, g, counts))
            assert kostant_multiplicity(rs, lam, mu, cap=10**7) == want, mu
            assert kostant_multiplicity(rs, lam, mu, cap=10**7, memo=PartitionMemo()) == want, mu

    @pytest.mark.parametrize("family,lam", [("A", (10, 10)), ("B", (0, 2, 0))])
    def test_every_routed_piece(self, family, lam):
        multiplicity = importlib.import_module("weightmult.multiplicity")
        pieces = []
        original = multiplicity._alternating_sum

        def spy(rs, piece_lam, c, *table):
            pieces.append((rs, piece_lam, c, original(rs, piece_lam, c, *table)))
            return pieces[-1][-1]

        rs = RootSystem(rootsys._cartan_matrix(family, len(lam)))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(multiplicity, "_alternating_sum", spy)
            multiplicity.multiplicity_value(rs, lam, (0,) * rs.rank)
        assert pieces
        for piece, piece_lam, c, got in pieces:
            counts = PartitionMemo()
            assert got == _reference_alternating_sum(
                piece, piece_lam, c, lambda g: kostant_partition(piece, g, counts)
            ), (piece_lam, c)
