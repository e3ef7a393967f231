"""Multiplicity formulas, reductions, the dispatcher, and work counters."""

import gc
import importlib
import itertools
import random
from fractions import Fraction

import pytest

from weightmult import (
    ALGORITHMS,
    Counters,
    MultContext,
    NotDominant,
    NotUnder,
    PartitionMemo,
    PreconditionViolated,
    QueryTooDeep,
    RootSystem,
    WeightMultError,
    WrongType,
    ZeroHighestWeight,
    build_root_system,
    character,
    dimension,
    dlm,
    dominant_conjugate,
    fast_freudenthal,
    freudenthal_classical,
    inner,
    is_under,
    kostant_multiplicity,
    kostant_partition,
    levi_restrict,
    lower_highest_weight,
    multiplicity,
    multiplicity_value,
    orbit_size,
    root_to_weight_coords,
    type_a_closed,
    verify_module,
    verma_multiplicity,
    weight_to_root_coords,
    weyl_dimension,
)
from weightmult.errors import InexactDivision
from weightmult.rootsys import _cartan_matrix, _sub_cartan

MULTIPLICITY = importlib.import_module("weightmult.multiplicity")
ORACLE = importlib.import_module("weightmult.oracle")


def dominant_weights_under(rs, lam, box=9):
    """All dominant mu with mu under lam, by bounded box search."""
    out = []
    for mu in itertools.product(range(box), repeat=rs.rank):
        if is_under(rs, mu, lam) is not None:
            out.append(mu)
    return out


class TestDlm:
    def test_vanishes_at_the_highest_weight(self):
        rs = build_root_system("B", 3)
        assert dlm(rs, (1, 0, 2), (1, 0, 2)) == 0

    def test_a2_adjoint_value(self):
        rs = build_root_system("A", 2)
        assert dlm(rs, (1, 1), (0, 0)) == 6

    def test_a1_value(self):
        rs = build_root_system("A", 1)
        assert dlm(rs, (2,), (0,)) == 4

    def test_rejects_non_dominant_highest_weight(self):
        rs = build_root_system("A", 2)
        with pytest.raises(NotDominant):
            dlm(rs, (-1, 1), (0, 0))

    def test_rejects_a_difference_outside_the_root_lattice(self):
        rs = build_root_system("A", 2)
        with pytest.raises(PreconditionViolated):
            dlm(rs, (1, 0), (0, 0))

    def test_is_an_int(self):
        assert type(dlm(build_root_system("G", 2), (1, 1), (0, 0))) is int

    def test_positive_on_dominant_weights_strictly_below(self):
        rs = build_root_system("A", 3)
        lam = (1, 1, 1)
        for mu in character(rs, lam):
            if mu != lam:
                assert dlm(rs, lam, mu) > 0


class TestLowerHighestWeight:
    def test_a2_shift_down(self):
        rs = build_root_system("A", 2)
        mu = (2 - 1, 3 - 1)  # lam - (alpha1 + alpha2) in weight coordinates
        assert lower_highest_weight(rs, (2, 3), mu) == ((1, 1), (0, 0))

    def test_identity_when_no_coordinate_qualifies(self):
        rs = build_root_system("A", 2)
        lam = (1, 1)
        mu = (-1, -1)  # difference 2*alpha1 + 2*alpha2
        assert lower_highest_weight(rs, lam, mu) == (lam, mu)

    def test_equal_weights_collapse_to_zero(self):
        rs = build_root_system("B", 2)
        assert lower_highest_weight(rs, (2, 1), (2, 1)) == ((0, 0), (0, 0))

    def test_multiplicity_is_preserved(self):
        rs = build_root_system("B", 3)
        lam = (2, 1, 2)
        rng = random.Random(7)
        for _ in range(25):
            c = tuple(rng.randrange(4) for _ in range(3))
            mu = tuple(
                a - sum(rs.cartan[i][k] * ck for k, ck in enumerate(c))
                for i, a in enumerate(lam)
            )
            lam2, mu2 = lower_highest_weight(rs, lam, mu)
            assert multiplicity_value(rs, lam, mu) == multiplicity_value(rs, lam2, mu2)

    def test_rejects_weight_not_under(self):
        rs = build_root_system("A", 2)
        with pytest.raises(NotUnder):
            lower_highest_weight(rs, (1, 1), (0, 1))


class TestLeviRestrict:
    def test_single_root_support(self):
        rs = build_root_system("A", 3)
        lam = (1, 1, 1)
        mu = (2, -1, 2)  # lam - alpha2
        sub, lam_j, mu_j, indices = levi_restrict(rs, lam, mu)
        assert sub.family_ranks == (("A", 1),)
        assert (lam_j, mu_j, indices) == ((1,), (-1,), (2,))
        assert multiplicity_value(sub, lam_j, mu_j) == multiplicity_value(rs, lam, mu) == 1

    def test_full_support_is_the_identity(self):
        rs = build_root_system("B", 2)
        lam, mu = (1, 1), (0, 1)
        out = levi_restrict(rs, lam, mu)
        assert out[0] is rs
        assert out[1:] == (lam, mu, (1, 2))

    def test_disconnected_support_gives_a_product(self):
        rs = build_root_system("A", 4)
        lam = (1, 0, 0, 1)
        mu = (-1, 1, 1, -1)  # lam - alpha1 - alpha4
        sub, lam_j, mu_j, indices = levi_restrict(rs, lam, mu)
        assert sub.family_ranks == (("A", 1), ("A", 1))
        assert (lam_j, mu_j, indices) == ((1, 1), (-1, -1), (1, 4))

    def test_rejects_weight_not_under(self):
        rs = build_root_system("A", 2)
        with pytest.raises(NotUnder):
            levi_restrict(rs, (1, 1), (1, 0))


class TestTypeAClosed:
    def test_single_support_index(self):
        assert type_a_closed(build_root_system("A", 3), (0, 2, 0)) == 1

    def test_three_support_indices(self):
        assert type_a_closed(build_root_system("A", 4), (1, 1, 0, 1)) == 6

    def test_two_ends_only(self):
        assert type_a_closed(build_root_system("A", 5), (3, 0, 0, 0, 2)) == 5

    def test_rejects_other_families(self):
        with pytest.raises(WrongType):
            type_a_closed(build_root_system("B", 2), (1, 1))

    def test_rejects_zero_weight(self):
        with pytest.raises(ZeroHighestWeight):
            type_a_closed(build_root_system("A", 2), (0, 0))

    def test_rejects_non_dominant(self):
        with pytest.raises(NotDominant):
            type_a_closed(build_root_system("A", 2), (1, -1))

    def test_a_d3_labelled_system_is_the_a3_it_names(self):
        # Bourbaki's D3 is A3: the closed form reads the type derived from the
        # Cartan matrix, so D3 answers as A3 with its nodes in `_orders` order
        d3, a3 = build_root_system("D", 3), build_root_system("A", 3)
        order = d3._orders[0]
        assert (d3.family_ranks, d3._types, order) == ((("D", 3),), (("A", 3),), (1, 0, 2))

        def as_d3(w):
            out = [0] * 3
            for r, i in enumerate(order):
                out[i] = w[r]
            return tuple(out)

        closed = 0
        for lam in [(1, 0, 1), (1, 1, 1), (2, 1, 0), (0, 1, 3)]:
            assert type_a_closed(d3, as_d3(lam)) == type_a_closed(a3, lam)
            for mu, m in character(a3, lam).items():
                got, trace = multiplicity(d3, as_d3(lam), as_d3(mu))
                want, trace_a = multiplicity(a3, lam, mu)
                assert got == want == m
                assert trace.kinds() == trace_a.kinds()
                closed += trace.kinds() == ("type_a_closed",)
        assert closed
        with pytest.raises(WrongType, match="got B2"):
            type_a_closed(build_root_system("B", 2), (1, 1))

    def test_counts_positions_along_the_dynkin_path(self):
        # E6 nodes 1, 2, 3, 4 span an A4 whose path is 1-3-4-2: the two
        # active nodes are its ends, four positions apart.
        e6 = build_root_system("E", 6)
        levi = RootSystem(tuple(tuple(e6.cartan[i][j] for j in range(4)) for i in range(4)))
        assert levi.family_ranks == (("A", 4),)
        assert type_a_closed(levi, (1, 1, 0, 0)) == 4

    def test_the_dynkin_path_is_walked_once_per_system(self, monkeypatch):
        rootsys = importlib.import_module("weightmult.rootsys")
        walked = []
        original = rootsys._bourbaki

        def counting(columns, d, piece):
            walked.append(piece)
            return original(columns, d, piece)

        monkeypatch.setattr(rootsys, "_bourbaki", counting)
        monkeypatch.setattr(MULTIPLICITY, "_bourbaki", counting)
        monkeypatch.setattr(MULTIPLICITY, "_LIBRARY", {})
        rs = build_root_system("A", 5)
        for lam in [(3, 0, 0, 0, 2), (1, 1, 0, 1, 0), (0, 2, 0, 0, 0)]:
            type_a_closed(rs, lam)
        assert walked == [(0, 1, 2, 3, 4)]
        assert rs._orders == ((0, 1, 2, 3, 4),)
        # the dispatcher's closed form reads the path each system keeps from
        # its build: the plan labels the pieces 1-2 and 4-5 once, and the
        # library builds their A2 once
        lam = (1, 1, 0, 1, 1)
        assert multiplicity_value(rs, lam, (0, 0, 2, 0, 0)) == 4
        assert multiplicity_value(rs, lam, (0, 0, 2, 0, 0)) == 4
        assert walked[1:] == [(0, 1), (0, 1), (3, 4)]
        assert MULTIPLICITY._LIBRARY["A", 2]._orders == ((0, 1),)


class TestClassicalRecursion:
    def test_highest_weight_has_multiplicity_one(self):
        rs = build_root_system("A", 2)
        ctx = MultContext(rs, (1, 1), "classical")
        assert freudenthal_classical(ctx, (1, 1)) == 1

    def test_a2_adjoint_zero_weight(self):
        rs = build_root_system("A", 2)
        ctx = MultContext(rs, (1, 1), "classical")
        assert freudenthal_classical(ctx, (0, 0)) == 2

    def test_weight_above_the_module_is_zero(self):
        rs = build_root_system("A", 2)
        ctx = MultContext(rs, (1, 1), "classical")
        assert freudenthal_classical(ctx, (3, 3)) == 0

    def test_exact_operation_counts_on_the_a2_adjoint(self):
        rs = build_root_system("A", 2)
        ctx = MultContext(rs, (1, 1), "classical")
        assert freudenthal_classical(ctx, (0, 0)) == 2
        assert ctx.counters.classical_terms == 3
        assert ctx.counters.inner_products == 5
        assert ctx.counters.cache_hits == 2
        assert ctx.counters.fast_terms == 0


class TestFastRecursion:
    def test_a2_adjoint_through_the_first_root(self):
        rs = build_root_system("A", 2)
        ctx = MultContext(rs, (1, 1), "fast")
        assert fast_freudenthal(ctx, (0, 0), (1, 1), 1) == 2
        assert ctx.counters.fast_terms == 2
        assert ctx.counters.inner_products == 0
        assert ctx.counters.cache_hits == 1

    def test_a5_two_block_weight(self):
        rs = build_root_system("A", 5)
        lam = (3, 0, 0, 0, 2)
        c = (1, 1, 1, 1, 1)
        mu = tuple(
            a - sum(rs.cartan[i][k] for k in range(5)) for i, a in enumerate(lam)
        )
        ctx = MultContext(rs, lam, "fast")
        assert fast_freudenthal(ctx, mu, c, 1) == 5

    def test_rank_one_lowest_weight(self):
        rs = build_root_system("A", 1)
        ctx = MultContext(rs, (1,), "fast")
        assert fast_freudenthal(ctx, (-1,), (1,), 1) == 1

    def test_rejects_wrong_difference_vector(self):
        rs = build_root_system("A", 2)
        ctx = MultContext(rs, (1, 1), "fast")
        with pytest.raises(PreconditionViolated):
            fast_freudenthal(ctx, (0, 0), (2, 1), 1)

    # A weight under lam whose dominant conjugate is not under lam lies
    # outside the module; the recursion stops root strings at their first
    # zero term, which holds only inside the module, so these give 0 unsummed.
    @pytest.mark.parametrize("family,rank,lam", [("A", 2, (2, 1)), ("G", 2, (1, 0))])
    @pytest.mark.parametrize("algorithm", ["auto", "classical", "fast"])
    def test_weights_under_lam_outside_the_module(self, family, rank, lam, algorithm):
        rs = build_root_system(family, rank)
        outside = 0
        for c in itertools.product(range(5), repeat=rank):
            mu = tuple(a - g for a, g in zip(lam, root_to_weight_coords(rs, c)))
            for j in range(1, rank + 1):
                if not 0 < c[j - 1] <= lam[j - 1]:
                    continue
                got = fast_freudenthal(MultContext(rs, lam, algorithm), mu, c, j)
                if is_under(rs, dominant_conjugate(rs, mu)[0], lam) is None:
                    outside += 1
                    assert got == 0, (mu, c, j)
                else:
                    assert got == multiplicity_value(rs, lam, mu), (mu, c, j)
        assert outside

    def test_rejects_level_zero_or_excessive(self):
        rs = build_root_system("A", 2)
        ctx = MultContext(rs, (1, 0), "fast")
        mu = (-1, 2)  # lam - 2*alpha1 + alpha2 is not this; use lam - alpha1
        mu = (1 - 2, 0 + 1)
        with pytest.raises(PreconditionViolated):
            fast_freudenthal(ctx, mu, (1, 0), 2)  # c_2 = 0
        ctx2 = MultContext(rs, (1, 0), "fast")
        mu2 = (1 - 4, 0 + 2)
        with pytest.raises(PreconditionViolated):
            fast_freudenthal(ctx2, mu2, (2, 0), 1)  # c_1 = 2 > a_1 = 1

    def test_rejects_out_of_range_index(self):
        rs = build_root_system("A", 2)
        ctx = MultContext(rs, (1, 1), "fast")
        with pytest.raises(PreconditionViolated):
            fast_freudenthal(ctx, (0, 0), (1, 1), 3)

    def test_rejects_non_integer_index(self):
        rs = build_root_system("A", 2)
        ctx = MultContext(rs, (1, 1), "fast")
        with pytest.raises(PreconditionViolated):
            fast_freudenthal(ctx, (0, 0), (1, 1), 1.5)
        assert fast_freudenthal(ctx, (0, 0), (1, 1), True) == 2

    # Non-dominant weights whose zero coordinates other than j group the
    # roots through alpha_j into orbits under `auto`.
    @pytest.mark.parametrize(
        "family,rank,lam,mu,c,j,expected",
        [
            ("D", 5, (2, 0, 0, 0, 2), (0, 1, 0, -1, 1), (2, 2, 3, 2, 2), 5, 19),
            ("E", 6, (2, 0, 0, 0, 0, 1), (0, 0, 0, 1, -1, 1), (2, 1, 2, 2, 2, 1), 1, 14),
        ],
    )
    def test_auto_context_at_a_non_dominant_weight(self, family, rank, lam, mu, c, j, expected):
        rs = build_root_system(family, rank)
        auto, fast = MultContext(rs, lam), MultContext(rs, lam, "fast")
        assert fast_freudenthal(auto, mu, c, j) == fast_freudenthal(fast, mu, c, j) == expected
        assert multiplicity_value(rs, lam, mu) == expected
        assert auto.counters.fast_terms < fast.counters.fast_terms

    def test_level_recursion_reads_the_zero_set_table(self):
        # Under `auto` the level recursion runs at mu = (0, 1), j = 1, where
        # mu_1 = 0, so it groups by the empty zero set; every policy reads
        # the one orbit table kept per zero set, keyed by the zero set alone.
        rs = build_root_system("B", 2)
        for algorithm, rendered, counts, memo in [
            ("auto", "fast_freudenthal[1]", (0, 9, 0, 2), 7),
            ("fast", "fast_freudenthal[1]", (0, 12, 0, 4), 4),
            ("classical", "classical_freudenthal", (11, 0, 16, 7), 4),
        ]:
            ctx = MultContext(rs, (2, 1), algorithm)
            m, trace = multiplicity(rs, (2, 1), (0, 1), algorithm=algorithm, ctx=ctx)
            assert (m, trace.render()) == (3, rendered), algorithm
            assert tuple(ctx.counters.as_dict().values()) == counts, algorithm
            assert len(ctx.memo) == memo, algorithm
        assert set(rs._orbits) == {()}


class TestDispatcher:
    def test_type_a_closed_form_is_used(self):
        rs = build_root_system("A", 4)
        lam = (1, 1, 0, 1)
        mu = tuple(
            a - sum(rs.cartan[i][k] for k in range(4)) for i, a in enumerate(lam)
        )
        m, trace = multiplicity(rs, lam, mu)
        assert m == 6
        assert "type_a_closed" in trace.kinds()

    def test_b2_weight_outside_the_coset(self):
        # (1,1) - (0,0) is not in the B2 root lattice, so the multiplicity is 0.
        rs = build_root_system("B", 2)
        m, trace = multiplicity(rs, (1, 1), (0, 0))
        assert m == 0
        assert trace.kinds() == ("zero_by_dominance",)

    def test_b2_zero_weight_of_the_ten_dimensional_module(self):
        # Cross-checked against the alternating-sum oracle over all 8 group elements.
        rs = build_root_system("B", 2)
        assert multiplicity_value(rs, (0, 2), (0, 0)) == 2

    # Under every policy the trace ends in the formula that values the query;
    # `classical` and `fast` reduce nothing, so they show the conjugation and
    # the formula alone.
    @pytest.mark.parametrize(
        "lam,mu,algorithm,expected,rendered",
        [
            ((1, 1, 1), (1, 1, -1), "auto", 8, "weyl_conjugate[3] -> fast_freudenthal[1]"),
            ((1, 1, 1), (1, 1, -1), "classical", 8, "weyl_conjugate[3] -> classical_freudenthal"),
            ((1, 1, 1), (1, 1, -1), "fast", 8, "weyl_conjugate[3] -> fast_freudenthal[1]"),
            ((1, 0, 2), (0, 0, 0), "auto", 9, "classical_freudenthal"),
            ((1, 0, 2), (0, 0, 0), "classical", 9, "classical_freudenthal"),
            ((1, 0, 2), (0, 0, 0), "fast", 9, "classical_freudenthal"),
        ],
    )
    def test_the_trace_names_the_formula_under_every_policy(self, lam, mu, algorithm, expected, rendered):
        m, trace = multiplicity(build_root_system("B", 3), lam, mu, algorithm=algorithm)
        assert (m, trace.render()) == (expected, rendered)

    # A weight off lam plus the root lattice is conjugated and found not under
    # lam, like any other, under every policy, and leaves nothing in the memo.
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_off_the_root_lattice_conjugation_then_zero(self, algorithm):
        rs = build_root_system("B", 3)
        ctx = MultContext(rs, (1, 0, 0), algorithm)
        m, trace = multiplicity(rs, (1, 0, 0), (0, 0, -1), algorithm=algorithm, ctx=ctx)
        assert (m, trace.render()) == (0, "weyl_conjugate[3,2,1,3,2,3] -> zero_by_dominance")
        assert ctx.memo == {}

    def test_conjugation_then_zero(self):
        rs = build_root_system("A", 2)
        m, trace = multiplicity(rs, (1, 1), (-1, 0))
        assert m == 0
        assert trace.kinds() == ("weyl_conjugate", "zero_by_dominance")

    def test_levi_then_closed_form_trace(self):
        rs = build_root_system("A", 3)
        lam = (1, 2, 1)
        mu = (2, 0, 2)  # lam - alpha2, already dominant
        m, trace = multiplicity(rs, lam, mu)
        assert m == 1
        # the lowered A1 piece (1)->(-1) re-enters and conjugates to its top: no formula
        assert trace.kinds() == ("levi_restrict", "lower_weight", "weyl_conjugate")
        assert trace.steps[0].data == (2,)
        assert trace.render() == (
            "levi_restrict[2] -> lower_weight[(2,),(1,),(1,)] -> weyl_conjugate[1]"
        )
        m, trace = multiplicity(rs, (1, 3, 1), (2, 2, 0))  # lam - alpha2 - alpha3
        assert m == 2
        assert trace.render() == (
            "levi_restrict[2,3] -> lower_weight[(3, 1),(1, 1),(1, 2)] -> type_a_closed[1,2]"
        )

    def test_a_lowered_piece_is_lowered_again_after_conjugation(self):
        rs = build_root_system("A", 2)
        m, trace = multiplicity(rs, (3, 2), (0, 2))  # lam - 2 alpha1 - alpha2
        assert m == 2
        assert trace.render() == (
            "lower_weight[(3, 2),(2, 1),(1, 2)] -> weyl_conjugate[1]"
            " -> lower_weight[(2, 1),(1, 1),(1, 2)] -> type_a_closed[1,2]"
        )

    @pytest.mark.parametrize(
        "family,rank,lam",
        [("B", 3, (2, 1, 1)), ("C", 3, (2, 1, 1)), ("G", 2, (2, 2)), ("A", 4, (2, 1, 1, 2))],
    )
    def test_no_formula_runs_on_a_rank_one_piece(self, monkeypatch, family, rank, lam):
        # every weight of an A1 module has multiplicity 1: a lowered A1 piece
        # conjugates to its top when it re-enters the dispatcher
        ranks = []
        original = MULTIPLICITY._formula

        def recording(ctx, rs, *args):
            ranks.append(rs.rank)
            return original(ctx, rs, *args)

        monkeypatch.setattr(MULTIPLICITY, "_formula", recording)
        rs = build_root_system(family, rank)
        chart = MULTIPLICITY._dispatcher_chart(rs, lam)[0]
        assert sum(m * orbit_size(rs, mu) for mu, m in chart.items()) == weyl_dimension(rs, lam)
        assert ranks and 1 not in ranks
        # the spy sees the pieces: above rank 2 some formula runs on a proper
        # Levi piece (at rank 2 every proper piece has rank 1)
        if rank > 2:
            assert min(ranks) < rank

    def test_disconnected_support_factors(self):
        rs = build_root_system("A", 5)
        lam = (1, 1, 0, 1, 1)
        c = (1, 1, 0, 1, 1)
        mu = tuple(
            a - sum(rs.cartan[i][k] * ck for k, ck in enumerate(c))
            for i, a in enumerate(lam)
        )
        a2 = build_root_system("A", 2)
        factor = multiplicity_value(a2, (1, 1), (0, 0))
        assert multiplicity_value(rs, lam, mu) == factor * factor == 4
        assert multiplicity_value(rs, lam, mu, algorithm="classical") == 4

    def test_level_constancy_above_the_difference(self):
        # Once c_j <= x, the answer does not depend on the j-th coordinate x of lam.
        rs = build_root_system("B", 3)
        lam = (1, 2, 1)
        c = (1, 2, 1)
        values = set()
        for x in (1, 2, 3):
            lam_x = (x,) + lam[1:]
            mu_x = tuple(
                a - sum(rs.cartan[i][k] * ck for k, ck in enumerate(c))
                for i, a in enumerate(lam_x)
            )
            values.add(multiplicity_value(rs, lam_x, mu_x))
        assert len(values) == 1

    def test_context_must_match_the_query(self):
        rs = build_root_system("A", 2)
        ctx = MultContext(rs, (1, 1), "auto")
        with pytest.raises(PreconditionViolated):
            multiplicity(rs, (2, 2), (0, 0), ctx=ctx)

    def test_context_keeps_the_policy_it_was_built_with(self):
        rs = build_root_system("A", 2)
        ctx = MultContext(rs, (1, 1), "auto")
        with pytest.raises(PreconditionViolated):
            multiplicity(rs, (1, 1), (0, 0), algorithm="classical", ctx=ctx)
        with pytest.raises(PreconditionViolated):
            multiplicity_value(rs, (1, 1), (0, 0), algorithm="fast", ctx=ctx)
        with pytest.raises(PreconditionViolated):
            freudenthal_classical(ctx, (0, 0))
        assert ctx.algorithm == "auto"
        assert multiplicity(rs, (1, 1), (0, 0), ctx=ctx)[0] == 2

    @pytest.mark.parametrize(
        "family,rank,lam,mu,expected",
        [
            ("E", 6, (1, 1, 0, 0, 0, 1), (0, 0, 0, 0, 1, 1), 4),
            ("D", 4, (0, 0, 1, 1), (1, 0, 0, 0), 3),
        ],
    )
    def test_levi_components_labelled_off_the_chain(self, family, rank, lam, mu, expected):
        rs = build_root_system(family, rank)
        for algorithm in ("auto", "classical", "fast"):
            assert multiplicity_value(rs, lam, mu, algorithm=algorithm) == expected

    def test_rejects_non_dominant_highest_weight(self):
        rs = build_root_system("A", 2)
        with pytest.raises(NotDominant):
            multiplicity_value(rs, (-1, 0), (0, 0))

    def test_rejects_non_integer_coordinates_instead_of_truncating(self):
        rs = build_root_system("A", 2)
        with pytest.raises(PreconditionViolated):
            multiplicity_value(rs, (1.7, 0), (1, 0))
        with pytest.raises(PreconditionViolated):
            multiplicity_value(rs, (1, 0), (Fraction(1, 2), 0))

    def test_unknown_algorithm_rejected(self):
        rs = build_root_system("A", 2)
        with pytest.raises(PreconditionViolated):
            MultContext(rs, (1, 1), "heuristic")

    # The last six have large stabilisers at their dominant weights, so the
    # `auto` classical sums are grouped into few orbits.
    @pytest.mark.parametrize(
        "family,rank,lam",
        [
            ("A", 3, (1, 1, 1)),
            ("B", 2, (2, 1)),
            ("G", 2, (1, 1)),
            ("C", 3, (1, 0, 1)),
            ("D", 4, (1, 0, 1, 1)),
            ("D", 5, (1, 0, 0, 0, 1)),
            ("E", 6, (1, 0, 0, 0, 0, 1)),
            ("F", 4, (0, 0, 0, 2)),
            ("G", 2, (3, 3)),
            ("B", 4, (1, 1, 1, 1)),
        ],
    )
    def test_all_algorithms_agree(self, family, rank, lam):
        rs = build_root_system(family, rank)
        for mu in character(rs, lam):
            auto = multiplicity_value(rs, lam, mu)
            classical = multiplicity_value(rs, lam, mu, algorithm="classical")
            fast = multiplicity_value(rs, lam, mu, algorithm="fast")
            assert auto == classical == fast

    # Three seeded nonzero highest weights per system, coordinates at most 8,
    # 4, 3 or 2 by rank and their sum at most 3 from rank 3 on.  All of them
    # together take about 2.5 s on one core of a 2-core x86-64 virtual
    # machine, 1.9 s of it on E7; D5, D6 and E7 reach Levi pieces whose
    # Bourbaki order differs from their node order.
    @pytest.mark.parametrize(
        "family,rank",
        [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4), ("C", 2),
         ("C", 3), ("C", 4), ("D", 3), ("D", 4), ("D", 5), ("D", 6), ("F", 4), ("G", 2),
         ("E", 6), ("E", 7)],
    )
    def test_all_algorithms_agree_on_seeded_modules(self, family, rank):
        rs = build_root_system(family, rank)
        rng = random.Random(f"policies-{family}{rank}")
        top = {1: 8, 2: 4, 3: 3}.get(rank, 2)
        modules = 0
        while modules < 3:
            lam = tuple(rng.randint(0, top) for _ in range(rank))
            if not 0 < sum(lam) <= max(top, 3):
                continue
            modules += 1
            for mu, m in character(rs, lam).items():
                for algorithm in ("classical", "fast"):
                    assert multiplicity_value(rs, lam, mu, algorithm=algorithm) == m, (lam, mu)

    # Seeded weights off the dominant chamber: conjugates of every dominant
    # weight of the module by random lowering words (each step reflects at a
    # positive coordinate, so the last leaves it negative), and uniform
    # random weights, some of them (on D5, E6 and B4) outside lam plus the
    # root lattice.
    @pytest.mark.parametrize(
        "family,rank,lam",
        [
            ("D", 5, (1, 0, 0, 0, 1)),
            ("E", 6, (1, 0, 0, 0, 0, 1)),
            ("F", 4, (0, 0, 0, 2)),
            ("B", 4, (1, 0, 0, 1)),
            ("G", 2, (3, 0)),
        ],
    )
    def test_all_algorithms_agree_off_the_dominant_chamber(self, family, rank, lam):
        rs = build_root_system(family, rank)
        chart = character(rs, lam)
        rng = random.Random(f"off-{family}{rank}")
        weights = []
        for mu in chart:
            for _ in range(2):
                for _ in range(rng.randint(1, 6)):
                    mu = rs.reflect(mu, rng.choice([i for i, x in enumerate(mu) if x > 0] or [0]))
                weights.append(mu)
        weights += [tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(30)]
        off_lattice = non_dominant = 0
        for mu in weights:
            want = chart.get(dominant_conjugate(rs, mu)[0], 0)
            for algorithm in ("auto", "classical", "fast"):
                m, trace = multiplicity(rs, lam, mu, algorithm=algorithm)
                assert m == want, (mu, algorithm)
            non_dominant += min(mu) < 0
            diff = weight_to_root_coords(rs, tuple(a - m for a, m in zip(lam, mu)))
            if any(g.denominator != 1 for g in diff):
                off_lattice += 1
                assert trace.kinds()[-1] == "zero_by_dominance"
        assert non_dominant > len(weights) // 2
        assert bool(off_lattice) == (family in "BDE")

    def test_invariance_under_simple_reflections(self):
        for family, rank, lam in [("A", 2, (1, 1)), ("B", 2, (1, 1))]:
            rs = build_root_system(family, rank)
            rng = random.Random(11)
            for _ in range(20):
                mu = tuple(rng.randrange(-3, 4) for _ in range(rank))
                base = multiplicity_value(rs, lam, mu)
                for i in range(rank):
                    assert multiplicity_value(rs, lam, rs.reflect(mu, i)) == base

    def test_bounded_by_the_verma_multiplicity(self):
        rs = build_root_system("B", 2)
        lam = (2, 2)
        for mu in dominant_weights_under(rs, lam):
            assert 0 <= multiplicity_value(rs, lam, mu) <= verma_multiplicity(rs, lam, mu)


class TestCharacterAndDimension:
    def test_a2_adjoint_character(self):
        rs = build_root_system("A", 2)
        assert character(rs, (1, 1)) == {(1, 1): 1, (0, 0): 2}

    def test_rank_one_string(self):
        rs = build_root_system("A", 1)
        assert character(rs, (3,)) == {(3,): 1, (1,): 1}

    def test_a2_natural_module(self):
        rs = build_root_system("A", 2)
        assert character(rs, (1, 0)) == {(1, 0): 1}

    def test_b2_sixteen_dimensional_module(self):
        rs = build_root_system("B", 2)
        assert character(rs, (1, 1)) == {(1, 1): 1, (0, 1): 2}
        assert dimension(rs, (1, 1)) == 16

    def test_g2_adjoint(self):
        rs = build_root_system("G", 2)
        assert character(rs, (0, 1)) == {(0, 1): 1, (1, 0): 1, (0, 0): 2}
        assert dimension(rs, (0, 1)) == 14

    def test_dimension_anchors(self):
        assert dimension(build_root_system("A", 2), (1, 1)) == 8
        assert dimension(build_root_system("A", 3), (1, 0, 0)) == 4
        for n in range(5):
            assert dimension(build_root_system("A", 1), (n,)) == n + 1

    @pytest.mark.parametrize(
        "family,rank,lam",
        [
            ("A", 3, (1, 1, 0)),
            ("B", 2, (0, 2)),
            ("C", 3, (0, 1, 0)),
            ("D", 4, (0, 1, 0, 0)),
            ("G", 2, (1, 0)),
        ],
    )
    def test_dimension_matches_the_product_formula(self, family, rank, lam):
        rs = build_root_system(family, rank)
        assert dimension(rs, lam) == weyl_dimension(rs, lam)

    @pytest.mark.parametrize(
        "family,rank,lam", [("D", 5, (0, 0, 0, 1, 1)), ("E", 6, (0, 1, 1, 0, 0, 0))]
    )
    def test_character_of_modules_with_off_chain_levi_pieces(self, family, rank, lam):
        rs = build_root_system(family, rank)
        assert dimension(rs, lam) == weyl_dimension(rs, lam)

    def test_e6_dimension_through_the_character(self):
        assert dimension(build_root_system("E", 6), (1, 1, 0, 0, 0, 1)) == 34749

    @pytest.mark.parametrize(
        "family,rank,lam,dim",
        [
            ("A", 20, (1,) + (0,) * 18 + (1,), 440),
            ("A", 80, (1, 0, 1) + (0,) * 77, 5247180),
            ("D", 40, (0, 1) + (0,) * 38, 3160),
        ],
        ids=["A20-w1+w20", "A80-w1+w3", "D40-w2"],
    )
    def test_character_above_rank_eight(self, family, rank, lam, dim):
        rs = build_root_system(family, rank)
        assert dimension(rs, lam) == weyl_dimension(rs, lam) == dim

    @pytest.mark.parametrize(
        "family,rank,lam",
        [
            ("E", 8, (1, 0, 0, 0, 0, 0, 0, 0)),
            ("G", 2, (5, 5)),
            ("B", 4, (1, 1, 1, 1)),
            ("C", 4, (1, 1, 1, 1)),
            ("A", 3, (3, 3, 3)),
            ("E", 6, (1, 1, 0, 0, 0, 1)),
        ],
    )
    def test_descent_builds_no_extra_table(self, family, rank, lam):
        # The descent reads the orbit table of each weight's zero set, which
        # the telescoped sum reads too: no other table is built.
        rs = build_root_system(family, rank)
        chart = character(rs, lam)
        assert set(rs._orbits) == {tuple(i for i, x in enumerate(mu) if not x) for mu in chart}

    @pytest.mark.parametrize(
        "family,rank,lam",
        [("B", 3, (1, 1, 1)), ("G", 2, (2, 2)), ("F", 4, (0, 0, 0, 2)), ("D", 5, (1, 0, 0, 0, 1))],
    )
    def test_the_dispatcher_sweep_returns_the_descents_coordinates(self, family, rank, lam):
        # `verify_module` reads its lowest box from these coordinates, so they
        # must be the descent's, in the chart's order
        rs = build_root_system(family, rank)
        chart, coords = MULTIPLICITY._dispatcher_chart(rs, lam)
        assert coords == MULTIPLICITY._character(rs, lam)[1]
        assert list(coords) == list(chart)

    def test_zero_module(self):
        rs = build_root_system("A", 2)
        assert character(rs, (0, 0)) == {(0, 0): 1}
        assert dimension(rs, (0, 0)) == 1

    def test_rank_zero(self):
        rs = RootSystem(())
        assert character(rs, ()) == {(): 1}
        for algorithm in ALGORITHMS:
            assert multiplicity_value(rs, (), (), algorithm=algorithm) == 1


class TestCounterGate:
    """Exact `Counters` of one zero-weight query per system under every policy.

    Recorded with the stabiliser-orbit grouping of both `auto` recursions,
    each orbit valued at its highest root, the root coordinates carried
    through them, and every root string stopped at its first zero term, which
    only `classical_terms` counts.  Counts are in `Counters.as_dict` order.
    The D5 `auto` row reads one more cache hit since its two isomorphic
    Levi pieces share one library system, and so one context and memo.
    The G2, F4 and A4 rows cover the types the others leave out.  The G2
    ``(5,5)`` and B3 ``(6,6,6)`` rows run long root strings, along which the
    classical sum steps the form and both sums tally their terms once per
    formula.  Under `auto`, a rank-2 piece with ``sum(c) >= 10`` is valued
    by the alternating sum, which tallies nothing: the G2 ``(3,3)`` and
    ``(5,5)`` rows read 0 and end their trace in ``kostant_sum``.  So does a
    B3 or C3 piece with ``sum(c) >= 10`` and no admissible level: the B3
    ``(6,6,6)`` row reads 0, and the C4 ``(1,1,1,1)`` row reads its routed
    C3 Levi pieces as no work.  The G2 ``(1,1)``, B3 ``(1,0,2)`` and C3
    ``(2,1,0)`` rows lie below the route and pin the `auto` recursion on
    those types.
    """

    ROUTED = {("G", (3, 3), "auto"), ("G", (5, 5), "auto"), ("B", (6, 6, 6), "auto")}

    @pytest.mark.parametrize(
        "family,rank,lam,expected,algorithm,counts",
        [
            ("B", 4, (0, 1, 0, 2), 44, "auto", (39, 17, 37, 24)),
            ("B", 4, (0, 1, 0, 2), 44, "classical", (196, 0, 175, 142)),
            ("B", 4, (0, 1, 0, 2), 44, "fast", (140, 91, 116, 123)),
            ("C", 4, (1, 1, 1, 1), 384, "auto", (114, 46, 109, 95)),
            ("C", 4, (1, 1, 1, 1), 384, "classical", (577, 0, 543, 468)),
            ("C", 4, (1, 1, 1, 1), 384, "fast", (372, 118, 324, 347)),
            ("D", 5, (0, 1, 0, 1, 1), 80, "auto", (11, 5, 14, 5)),
            ("D", 5, (0, 1, 0, 1, 1), 80, "classical", (158, 0, 143, 119)),
            ("D", 5, (0, 1, 0, 1, 1), 80, "fast", (106, 40, 84, 92)),
            ("E", 6, (1, 1, 0, 0, 0, 1), 261, "auto", (8, 6, 10, 4)),
            ("E", 6, (1, 1, 0, 0, 0, 1), 261, "classical", (279, 0, 233, 212)),
            ("E", 6, (1, 1, 0, 0, 0, 1), 261, "fast", (172, 64, 127, 150)),
            ("G", 2, (3, 3), 64, "auto", (0, 0, 0, 0)),
            ("G", 2, (3, 3), 64, "classical", (432, 0, 447, 372)),
            ("G", 2, (3, 3), 64, "fast", (323, 140, 316, 341)),
            ("F", 4, (0, 1, 0, 1), 174, "auto", (86, 15, 80, 52)),
            ("F", 4, (0, 1, 0, 1), 174, "classical", (406, 0, 331, 295)),
            ("F", 4, (0, 1, 0, 1), 174, "fast", (378, 50, 301, 282)),
            ("A", 4, (2, 1, 1, 2), 65, "auto", (3, 9, 5, 6)),
            ("A", 4, (2, 1, 1, 2), 65, "classical", (208, 0, 247, 184)),
            ("A", 4, (2, 1, 1, 2), 65, "fast", (33, 38, 32, 50)),
            ("G", 2, (5, 5), 312, "auto", (0, 0, 0, 0)),
            ("G", 2, (5, 5), 312, "classical", (1697, 0, 1734, 1548)),
            ("G", 2, (5, 5), 312, "fast", (1270, 530, 1253, 1428)),
            ("B", 3, (6, 6, 6), 23511, "auto", (0, 0, 0, 0)),
            ("B", 3, (6, 6, 6), 23511, "classical", (26497, 0, 26877, 25185)),
            ("B", 3, (6, 6, 6), 23511, "fast", (13465, 7344, 13271, 17896)),
            ("G", 2, (1, 1), 4, "auto", (12, 6, 12, 6)),
            ("B", 3, (1, 0, 2), 9, "auto", (5, 10, 5, 4)),
            ("C", 3, (2, 1, 0), 9, "auto", (5, 10, 5, 3)),
        ],
    )
    def test_counters_of_a_zero_weight_query(self, family, rank, lam, expected, algorithm, counts):
        rs = build_root_system(family, rank)
        ctx = MultContext(rs, lam, algorithm)
        m, trace = multiplicity(rs, lam, (0,) * rank, algorithm=algorithm, ctx=ctx)
        assert m == expected
        assert tuple(ctx.counters.as_dict().values()) == counts
        assert (trace.kinds()[-1] == "kostant_sum") == ((family, lam, algorithm) in self.ROUTED)


class TestMultContext:
    def test_takes_no_counters_keyword(self):
        with pytest.raises(TypeError):
            MultContext(build_root_system("A", 2), (1, 1), counters=Counters())

    def test_one_memo_holds_the_query_and_its_levi_pieces(self):
        # keyed by (system, highest weight, dominant weight): the query's own
        # system and the library systems of its pieces share the one memo
        rs = build_root_system("B", 4)
        lam, zero = (0, 1, 0, 2), (0, 0, 0, 0)
        ctx = MultContext(rs, lam)
        assert multiplicity_value(rs, lam, zero, ctx=ctx) == 44
        systems = {system for system, _, _ in ctx.memo}
        assert rs in systems
        assert systems & set(MULTIPLICITY._LIBRARY.values())
        assert all(min(mu) >= 0 for _, _, mu in ctx.memo)
        keys, hits = set(ctx.memo), ctx.counters.cache_hits
        assert multiplicity_value(rs, lam, zero, ctx=ctx) == 44
        assert set(ctx.memo) == keys
        assert ctx.counters.cache_hits == hits + 1


class TestInputsCheckedOnce:
    """Each public surface checks ``lam`` once and ``mu`` once, counted by value.

    The totals of `kostant_multiplicity` and `verma_multiplicity` also count
    the check `kostant_partition` makes: for `kostant_multiplicity`, the
    check at the walk's root.
    """

    @pytest.mark.parametrize(
        "surface,calls",
        [
            (dlm, 2),
            (lower_highest_weight, 2),
            (levi_restrict, 2),
            (kostant_multiplicity, 3),
            (verma_multiplicity, 3),
        ],
        ids=lambda x: getattr(x, "__name__", str(x)),
    )
    def test_lam_and_mu_are_checked_once(self, monkeypatch, surface, calls):
        rs = build_root_system("B", 3)
        lam, mu = (1, 1, 1), (1, 1, -1)
        checks = []
        original = RootSystem.check_weight

        def counting(self, v):
            checks.append(tuple(v))
            return original(self, v)

        monkeypatch.setattr(RootSystem, "check_weight", counting)
        surface(rs, list(lam), list(mu))
        assert (checks.count(lam), checks.count(mu), len(checks)) == (1, 1, calls)


class TestLeviPool:
    def test_character_builds_each_levi_subsystem_once(self, monkeypatch):
        module = importlib.import_module("weightmult.multiplicity")
        monkeypatch.setattr(module, "_LIBRARY", {})
        built = []

        class CountingRootSystem(RootSystem):
            def __init__(self, cartan, *args, **kwargs):
                built.append(tuple(map(tuple, cartan)))
                super().__init__(cartan, *args, **kwargs)

        monkeypatch.setattr(module, "RootSystem", CountingRootSystem)
        rs = build_root_system("E", 8)
        chart = MULTIPLICITY._dispatcher_chart(rs, (1, 0, 0, 0, 0, 0, 0, 0))[0]
        assert chart == {
            (1, 0, 0, 0, 0, 0, 0, 0): 1,
            (0, 0, 0, 0, 0, 0, 0, 1): 7,
            (0, 0, 0, 0, 0, 0, 0, 0): 35,
        }
        assert built
        assert len(built) == len(set(built))

    def test_dispatcher_builds_only_connected_levi_pieces(self, monkeypatch):
        module = importlib.import_module("weightmult.multiplicity")
        monkeypatch.setattr(module, "_LIBRARY", {})
        built = []

        class CountingRootSystem(RootSystem):
            def __init__(self, cartan, *args, **kwargs):
                built.append(tuple(map(tuple, cartan)))
                super().__init__(cartan, *args, **kwargs)

        monkeypatch.setattr(module, "RootSystem", CountingRootSystem)
        rs = build_root_system("A", 5)
        lam = (1, 1, 0, 1, 1)
        mu = (0, 0, 2, 0, 0)  # lam - mu = alpha_1 + alpha_2 + alpha_4 + alpha_5
        assert is_under(rs, mu, lam) == (1, 1, 0, 1, 1)
        assert multiplicity_value(rs, lam, mu) == 4
        assert built == [((2, -1), (-1, 2))]
        assert all(len(RootSystem(cartan).components) == 1 for cartan in built)

    def test_second_query_on_the_same_parent_builds_nothing(self, monkeypatch):
        module = importlib.import_module("weightmult.multiplicity")
        monkeypatch.setattr(module, "_LIBRARY", {})
        built = []

        class CountingRootSystem(RootSystem):
            def __init__(self, cartan, *args, **kwargs):
                built.append(tuple(map(tuple, cartan)))
                super().__init__(cartan, *args, **kwargs)

        monkeypatch.setattr(module, "RootSystem", CountingRootSystem)
        rs = build_root_system("E", 7)
        lam = (2, 0, 0, 0, 0, 1, 0)
        assert multiplicity_value(rs, lam, (0,) * 7) == 8073
        assert built
        cold = len(built)
        assert multiplicity_value(rs, lam, (0,) * 7) == 8073
        assert len(built) == cold
        assert len(built) == len(set(built))

    def test_levi_restrict_returns_the_pooled_subsystem(self):
        lam, mu = (1, 1, 0, 1, 1), (0, 0, 2, 0, 0)  # both pieces of the support are A2
        rs = build_root_system("A", 5)
        assert multiplicity_value(rs, lam, mu) == 4
        pooled = MULTIPLICITY._LIBRARY["A", 2]
        assert [sub for _, sub, _ in rs._plans[(0, 1, 3, 4)]] == [pooled, pooled]
        # levi_restrict builds the same subsystem afresh and leaves the library alone
        held = dict(MULTIPLICITY._LIBRARY)
        sub, _, _, indices = levi_restrict(rs, (1, 1, 0, 0, 0), (0, 0, 1, 0, 0))
        assert indices == (1, 2)
        assert (sub.cartan, sub.family_ranks) == (pooled.cartan, pooled.family_ranks)
        assert sub is not pooled
        assert MULTIPLICITY._LIBRARY == held

    # Counters under `auto`, whose classical and level recursions value one
    # representative per stabiliser orbit of positive roots, at its highest
    # root, and stop each root string at its first zero term.
    @pytest.mark.parametrize(
        "family,rank,lam,expected,counts",
        [
            (
                "A", 5, (3, 0, 2, 0, 3), 390,
                {"classical_terms": 4, "fast_terms": 36, "inner_products": 6, "cache_hits": 21},
            ),
            (
                "E", 7, (2, 0, 0, 0, 0, 1, 0), 8073,
                {"classical_terms": 49, "fast_terms": 39, "inner_products": 51, "cache_hits": 35},
            ),
        ],
    )
    def test_counters_of_a_zero_weight_query(self, family, rank, lam, expected, counts):
        rs = build_root_system(family, rank)
        ctx = MultContext(rs, lam)
        assert multiplicity_value(rs, lam, (0,) * rank, ctx=ctx) == expected
        assert ctx.counters.as_dict() == counts

    # Non-simply-laced systems, where positive roots have coefficients above 1
    # and the fit of a root is not c_j; the classical and fast rows were
    # recorded before the recursions stepped each root by its fit, the auto
    # rows with the stabiliser-orbit grouping of both recursions; all rows
    # were lowered again when root strings began to stop at their first zero
    # term.  The G2 auto row is a rank-2 piece with sum(c) >= 10, valued by
    # the alternating sum, which tallies nothing and ends the trace in
    # ``kostant_sum``.  Counts are in `Counters.as_dict` order.
    @pytest.mark.parametrize(
        "family,rank,lam,expected,algorithm,counts",
        [
            ("G", 2, (2, 2), 21, "classical", (156, 0, 165, 126)),
            ("G", 2, (2, 2), 21, "fast", (117, 55, 114, 115)),
            ("G", 2, (2, 2), 21, "auto", (0, 0, 0, 0)),
            ("F", 4, (0, 0, 0, 2), 12, "classical", (91, 0, 72, 60)),
            ("F", 4, (0, 0, 0, 2), 12, "fast", (51, 75, 38, 47)),
            ("F", 4, (0, 0, 0, 2), 12, "auto", (5, 10, 5, 2)),
        ],
    )
    def test_counters_per_policy_on_non_simply_laced_systems(
        self, family, rank, lam, expected, algorithm, counts
    ):
        rs = build_root_system(family, rank)
        ctx = MultContext(rs, lam, algorithm)
        m, trace = multiplicity(rs, lam, (0,) * rank, algorithm=algorithm, ctx=ctx)
        assert m == expected
        assert tuple(ctx.counters.as_dict().values()) == counts
        assert (trace.kinds()[-1] == "kostant_sum") == ((family, algorithm) == ("G", "auto"))

    # The benchmark counts these two calls by wrapping the module globals of
    # weightmult.multiplicity; the pins were recorded with the stabiliser-orbit
    # grouping of both recursions and the root coordinates carried through
    # them, which leaves no `is_under` call in a query, and with a
    # whole-system reduction that lowers nothing evaluated in place, with no
    # second conjugation, and with each orbit valued at its highest root and
    # each root string stopped at its first zero term.  A dominant sub-query
    # weight skips the call, so every call sees a negative coordinate.
    @pytest.mark.parametrize(
        "family,rank,lam,conjugations,dominance_checks",
        [("A", 5, (3, 0, 2, 0, 3), 10, 0), ("E", 7, (2, 0, 0, 0, 0, 1, 0), 28, 0)],
        ids=["A5", "E7"],
    )
    def test_dispatcher_calls_through_module_globals(
        self, monkeypatch, family, rank, lam, conjugations, dominance_checks
    ):
        module = importlib.import_module("weightmult.multiplicity")
        calls = {"dominant_conjugate": 0, "is_under": 0}
        weights = []
        for name in calls:
            def counting(*args, _name=name, _original=getattr(module, name)):
                calls[_name] += 1
                weights.append(args[1])
                return _original(*args)

            monkeypatch.setattr(module, name, counting)
        multiplicity_value(build_root_system(family, rank), lam, (0,) * rank)
        assert calls == {"dominant_conjugate": conjugations, "is_under": dominance_checks}
        assert all(min(mu) < 0 for mu in weights)


class TestReductionPlans:
    """Plans of `_auto_reduce` cached per system and support, and the keys that reach them."""

    @staticmethod
    def _plan_systems(rs):
        """``(system, piece, subsystem, order)`` for every plan entry of ``rs`` and the library.

        ``order`` is what the entry's getter reads from the system's nodes.
        """
        for system in (rs, *MULTIPLICITY._LIBRARY.values()):
            for support, plan in system._plans.items():
                assert tuple(sorted(j for piece, _, _ in plan for j in piece)) == support
                for piece, sub, get in plan:
                    yield system, piece, sub, get(tuple(range(system.rank)))

    @staticmethod
    def _check_entry(system, piece, sub, order):
        """A whole system plans itself; any other piece gets its library type in Bourbaki order."""
        if len(piece) == system.rank:
            assert sub is system and order == piece
        else:
            assert sorted(order) == list(piece)
            assert sub is MULTIPLICITY._LIBRARY[sub.family_ranks[0]]
            assert _sub_cartan(system.cartan, order) == sub.cartan

    def test_a_repeated_query_splits_no_support_again(self, monkeypatch):
        module = importlib.import_module("weightmult.multiplicity")
        calls = []
        original = module._components

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(module, "_components", counting)
        monkeypatch.setattr(module, "_LIBRARY", {})
        rs = build_root_system("A", 5)
        lam = (3, 0, 2, 0, 3)
        assert multiplicity_value(rs, lam, (0,) * 5) == 390
        assert len(calls) == 9
        assert multiplicity_value(rs, lam, (0,) * 5) == 390
        assert len(calls) == 9

    @pytest.mark.parametrize(
        "family,rank,lam", [("A", 5, (3, 0, 2, 0, 3)), ("E", 7, (2, 0, 0, 0, 0, 1, 0))]
    )
    def test_plan_subsystems_are_the_system_or_its_pooled_levi(self, family, rank, lam):
        rs = build_root_system(family, rank)
        multiplicity_value(rs, lam, (0,) * rank)
        entries = list(self._plan_systems(rs))
        assert entries
        for entry in entries:
            self._check_entry(*entry)

    def test_a_query_on_a_levi_subsystem_fills_its_own_plans(self):
        rs = build_root_system("A", 5)
        sub, lam, mu, indices = levi_restrict(rs, (1, 1, 0, 1, 0), (0, 1, 0, 0, 1))
        assert indices == (1, 2, 3, 4)
        assert all(sub is not system for system in MULTIPLICITY._LIBRARY.values())
        chart = MULTIPLICITY._dispatcher_chart(sub, lam)[0]
        assert rs._plans == {}
        assert sub._plans
        for support, plan in sub._plans.items():
            for piece, pooled, get in plan:
                self._check_entry(sub, piece, pooled, get(tuple(range(sub.rank))))
        fresh = build_root_system("A", 5)
        assert chart[mu] == multiplicity_value(fresh, (1, 1, 0, 1, 0), (0, 1, 0, 0, 1))

    def test_isomorphic_pieces_of_different_parents_share_one_library_system(self):
        # E7 nodes 2, 3, 4 form the path 2-4-3, and D6 nodes 4, 5, 6 the
        # path 5-4-6: both are A3, each in another node order
        queries = [("E", 7, (0, 1, 1, 0, 0, 0, 0), (1, 0, 0, 0, 1, 0, 0), (1, 2, 3)),
                   ("D", 6, (0, 0, 0, 0, 1, 1), (0, 0, 1, 0, 0, 0), (3, 4, 5))]
        for family, rank, lam, mu, support in queries:
            rs = build_root_system(family, rank)
            want = multiplicity_value(rs, lam, mu, algorithm="classical")
            assert multiplicity_value(rs, lam, mu) == want
            ((piece, sub, get),) = rs._plans[support]
            assert sub is MULTIPLICITY._LIBRARY["A", 3]
            assert get(tuple(range(rank))) != piece

    # The benchmark counts `multiplicity.contexts` by wrapping
    # `MultContext.__init__`.  A top-level query builds one context, and the
    # Levi pieces its reductions reach share that context's memo.
    @pytest.mark.parametrize(
        "family,rank,lam", [("A", 5, (3, 0, 2, 0, 3)), ("E", 7, (2, 0, 0, 0, 0, 1, 0))], ids=["A5", "E7"]
    )
    def test_contexts_seen_by_the_constructor(self, monkeypatch, family, rank, lam):
        built = []
        original = MultContext.__init__

        def counting(self, *args, **kwargs):
            built.append(args)
            original(self, *args, **kwargs)

        monkeypatch.setattr(MultContext, "__init__", counting)
        multiplicity_value(build_root_system(family, rank), lam, (0,) * rank)
        assert len(built) == 1

    def test_a_query_leaves_no_reference_cycle(self):
        # the systems stay referenced across the check: a whole-system plan
        # row refers to the system itself
        rs = build_root_system("B", 3)
        lam = (2, 2, 2)
        gc.collect()
        gc.disable()
        try:
            assert multiplicity_value(rs, lam, (0, 0, 0)) == 159
            assert character(rs, (1, 1, 0))[(0, 0, 0)] == 5
            ctx = MultContext(rs, lam)
            assert multiplicity_value(rs, lam, (0, 0, 0), ctx=ctx) == 159
            del ctx
            assert gc.collect() == 0
        finally:
            gc.enable()

    # The classical denominator reads the Cartan columns unchecked; its value
    # is checked against the public form, which checks its arguments.
    @pytest.mark.parametrize(
        "family,rank,lam",
        [
            ("B", 4, (0, 1, 0, 2)),
            ("C", 4, (1, 0, 0, 1)),
            ("E", 6, (1, 1, 0, 0, 0, 1)),
            ("G", 2, (2, 2)),
        ],
    )
    def test_dlm_checks_no_weight(self, monkeypatch, family, rank, lam):
        module = importlib.import_module("weightmult.multiplicity")
        rs = build_root_system(family, rank)
        shifted = tuple(a + 1 for a in lam)
        cases = []
        for mu in character(rs, lam):
            gamma = is_under(rs, mu, lam)
            diff = tuple(a - m for a, m in zip(lam, mu))
            cases.append((gamma, 2 * inner(rs, shifted, diff) - inner(rs, diff, diff)))
        checks = []
        original = RootSystem.check_weight

        def counting(self, v):
            checks.append(v)
            return original(self, v)

        monkeypatch.setattr(RootSystem, "check_weight", counting)
        for gamma, want in cases:
            assert module._dlm(rs, lam, gamma) == want
        assert checks == []

    # Values every dominant weight of each module in turn on one shared system,
    # so later queries meet plans, pooled subsystems and orbit tables filled by
    # earlier ones; a cache key that is too coarse shows as a wrong value or
    # trace.
    @pytest.mark.parametrize(
        "family,rank,lams",
        [
            ("A", 5, [(1, 0, 1, 0, 1), (0, 2, 0, 0, 1), (2, 0, 0, 1, 0)]),
            ("B", 4, [(1, 0, 0, 1), (0, 1, 0, 2), (0, 0, 1, 1)]),
            ("C", 4, [(1, 0, 0, 1), (1, 1, 1, 1), (0, 1, 0, 1)]),
            ("D", 5, [(1, 0, 0, 0, 1), (0, 1, 0, 1, 1), (0, 0, 0, 1, 1)]),
            ("E", 6, [(1, 0, 0, 0, 0, 1), (1, 1, 0, 0, 0, 1), (0, 1, 1, 0, 0, 0)]),
            ("F", 4, [(1, 0, 0, 0), (0, 0, 0, 2), (0, 0, 1, 0)]),
            ("G", 2, [(2, 2), (3, 1), (0, 4)]),
        ],
    )
    def test_warm_system_answers_as_a_fresh_one(self, family, rank, lams):
        shared = build_root_system(family, rank)
        for lam in lams:
            for mu in character(build_root_system(family, rank), lam):
                warm, warm_trace = multiplicity(shared, lam, mu)
                fresh = build_root_system(family, rank)
                cold, cold_trace = multiplicity(fresh, lam, mu)
                assert (warm, warm_trace.render()) == (cold, cold_trace.render()), (lam, mu)
                assert warm == multiplicity_value(fresh, lam, mu, algorithm="fast"), (lam, mu)


class TestUnboundedRank:
    def test_d_series_with_full_support(self):
        # lam - mu = alpha_1 + alpha_2 + 2 (alpha_3 + ... + alpha_{l-2}) + alpha_{l-1} + alpha_l
        for rank in range(5, 41):
            rs = build_root_system("D", rank)
            lam = (1, 0, 1) + (0,) * (rank - 3)
            mu = (0, 1) + (0,) * (rank - 2)
            assert multiplicity_value(rs, lam, mu) == 3 * rank - 5, rank

    @pytest.mark.parametrize("family", "ABCD")
    def test_small_support_gives_the_same_answer_at_every_rank(self, family):
        # lam = omega_1 + omega_3, lam - mu = alpha_1 + alpha_2 + alpha_3; in D5 alpha_3 sits at the fork
        for rank in (5, 10, 20, 40, 80, 160):
            rs = build_root_system(family, rank)
            lam = (1, 0, 1) + (0,) * (rank - 3)
            gamma = root_to_weight_coords(rs, (1, 1, 1) + (0,) * (rank - 3))
            mu = tuple(a - b for a, b in zip(lam, gamma))
            assert multiplicity_value(rs, lam, mu) == 3, rank
            if rank <= 20:
                assert multiplicity_value(rs, lam, mu, algorithm="fast") == 3, rank


# One planted fault per exact division (and the Kostant sum's sign check): each
# must surface as InexactDivision, never as a silently wrong value.
def _classical_remainder(monkeypatch):
    original = MULTIPLICITY._dlm
    monkeypatch.setattr(MULTIPLICITY, "_dlm", lambda rs, lam, gamma: original(rs, lam, gamma) + 1)
    # 2 * (sum of terms) is 12 here, and the planted denominator 7
    return multiplicity_value(build_root_system("A", 2), (1, 1), (0, 0), algorithm="classical")


def _dlm_zero(monkeypatch):
    monkeypatch.setattr(MULTIPLICITY, "_dlm", lambda rs, lam, gamma: 0)
    return multiplicity_value(build_root_system("A", 2), (1, 1), (0, 0), algorithm="classical")


def _negative_level_total(monkeypatch):
    rs = build_root_system("A", 2)
    ctx = MultContext(rs, (1, 1))
    # every term -1: the total -2 is divisible by c_1 = 1
    monkeypatch.setattr(MULTIPLICITY, "_mult", lambda *args, **kwargs: -1)
    return fast_freudenthal(ctx, (0, 0), (1, 1), 1)


def _weyl_product_not_an_integer(monkeypatch):
    rs = build_root_system("A", 2)
    monkeypatch.setattr(rs, "rho", (2, 1))  # the product 2 over the product 6
    return weyl_dimension(rs, (0, 0))


def _stabiliser_order_not_a_divisor(monkeypatch):
    rs = build_root_system("A", 2)
    monkeypatch.setattr(rs, "weyl_order", 7)  # the stabiliser of (1, 0) has order 2
    return orbit_size(rs, (1, 0))


def _telescoped_remainder(monkeypatch):
    original = MULTIPLICITY._dlm
    monkeypatch.setattr(MULTIPLICITY, "_dlm", lambda rs, lam, gamma: original(rs, lam, gamma) + 1)
    return character(build_root_system("A", 2), (1, 1))


def _negative_kostant_sum(monkeypatch):
    rs = build_root_system("A", 2)
    memo = PartitionMemo()
    kostant_partition(rs, (0, 0), memo)  # binds the memo and fills the box the walk reads
    memo.table[:] = [-1] * len(memo)
    return kostant_multiplicity(rs, (1, 1), (1, 1), memo=memo)


class TestInexactDivision:
    @pytest.mark.parametrize(
        "plant",
        [
            _classical_remainder,
            _dlm_zero,
            _negative_level_total,
            _weyl_product_not_an_integer,
            _stabiliser_order_not_a_divisor,
            _negative_kostant_sum,
            _telescoped_remainder,
        ],
        ids=[
            "classical-remainder",
            "dlm-zero",
            "negative-level-total",
            "weyl-product",
            "stabiliser-order",
            "negative-kostant-sum",
            "telescoped-remainder",
        ],
    )
    def test_a_planted_fault_raises(self, monkeypatch, plant):
        with pytest.raises(InexactDivision):
            plant(monkeypatch)

    def test_a_planted_height_fault_raises(self, monkeypatch):
        # conjugation that returns root coordinates 100 too high in c_1: the
        # sub-query (2,-1) of A2 (1,1) -> (0,0) would no longer lie lower
        original = MULTIPLICITY.dominant_conjugate

        def raised(rs, mu, c=None):
            mu_plus, word, c_plus = original(rs, mu, c)
            return mu_plus, word, (c_plus[0] + 100, *c_plus[1:])

        monkeypatch.setattr(MULTIPLICITY, "dominant_conjugate", raised)
        with pytest.raises(PreconditionViolated, match="recursion must decrease height"):
            multiplicity_value(build_root_system("A", 2), (1, 1), (0, 0), algorithm="classical")


class TestQueryTooDeep:
    """A3 (200,0,200) -> 0 chains about 600 sub-queries, past the interpreter's recursion limit."""

    LAM, MU = (200, 0, 200), (0, 0, 0)

    @pytest.mark.parametrize(
        "surface",
        [
            lambda rs, lam, mu: multiplicity(rs, lam, mu),
            lambda rs, lam, mu: multiplicity_value(rs, lam, mu),
            lambda rs, lam, mu: multiplicity_value(rs, lam, mu, algorithm="fast"),
            lambda rs, lam, mu: freudenthal_classical(MultContext(rs, lam, "classical"), mu),
            lambda rs, lam, mu: fast_freudenthal(MultContext(rs, lam), mu, (200, 200, 200), 1),
        ],
        ids=["multiplicity", "multiplicity_value", "multiplicity_value-fast", "freudenthal_classical",
             "fast_freudenthal"],
    )
    def test_each_surface_raises_a_typed_error(self, surface):
        with pytest.raises(QueryTooDeep, match=r"the query for \(0, 0, 0\) under \(200, 0, 200\)") as info:
            surface(build_root_system("A", 3), self.LAM, self.MU)
        assert isinstance(info.value, WeightMultError)
        assert info.value.__cause__ is None and info.value.__suppress_context__

    def test_the_character_values_the_same_weight_without_recursion(self):
        # A3's chart at (200,0,200) holds over a million dominant weights, so
        # the check runs on A2 (300,300) -> 0, which recurses too deep under
        # the classical and fast policies
        rs = build_root_system("A", 2)
        with pytest.raises(QueryTooDeep):
            multiplicity_value(rs, (300, 300), (0, 0), algorithm="fast")
        assert character(rs, (300, 300))[0, 0] == 301


class TestRouteRule:
    """Which zero-weight queries `auto` values by the alternating sum, as one decision table.

    A piece routes when the context routes, ``sum(c) >= 10``, it has rank 2
    (at any level) or is B3 or C3 with no admissible level, and its box fits.
    """

    @pytest.mark.parametrize(
        "cartan,labels,lam,expected,last",
        [
            # rank 2 routes although the levels at nodes 1 and 2 are admissible
            (_cartan_matrix("A", 2), None, (10, 10), 11, "kostant_sum"),
            # sum(c) = 10 exactly
            (_cartan_matrix("B", 3), None, (0, 2, 0), 8, "kostant_sum"),
            # sum(c) = 8
            (_cartan_matrix("G", 2), None, (1, 1), 4, "classical_freudenthal"),
            (_cartan_matrix("C", 3), None, (0, 2, 0), 6, "classical_freudenthal"),
            # a level applies
            (_cartan_matrix("B", 3), None, (4, 0, 0), 6, "fast_freudenthal[1]"),
            # no level, but of rank 3 only B3 and C3 route, by the derived type, not the label
            (_cartan_matrix("A", 3), None, (2, 4, 2), 24, "classical_freudenthal"),
            (_cartan_matrix("A", 3), (("D", 3),), (2, 4, 2), 24, "classical_freudenthal"),
            # nothing of rank 4 routes
            (_cartan_matrix("B", 4), None, (2, 2, 2, 2), 40_569, "classical_freudenthal"),
            (_cartan_matrix("F", 4), None, (1, 1, 1, 1), 34_432, "classical_freudenthal"),
        ],
        ids=["A2", "B3-height-10", "G2-height-8", "C3", "B3-level", "A3", "A3-labelled-D3", "B4", "F4"],
    )
    def test_value_and_last_step(self, cartan, labels, lam, expected, last):
        rs = RootSystem(cartan, labels)
        ctx = MultContext(rs, lam)
        m, trace = multiplicity(rs, lam, (0,) * rs.rank, ctx=ctx)
        assert (m, trace.steps[-1].render()) == (expected, last)


class TestRankTwoRoute:
    """Under `auto`, a rank-2 piece with ``sum(c) >= 10`` is valued by the alternating sum.

    It must also fit its partition box under `partition._MAX_CELLS`; a piece
    that does not runs the recursions as before.
    """

    # each query raised QueryTooDeep under `auto` before the route
    @pytest.mark.parametrize(
        "family,lam,expected",
        [("A", (400, 400), 401), ("G", (0, 100), 87176), ("B", (0, 250), 126), ("G", (101, 0), 30804)],
    )
    def test_deep_zero_weight_queries_answer(self, family, lam, expected):
        rs = build_root_system(family, 2)
        m, trace = multiplicity(rs, lam, (0, 0))
        assert trace.render() == "kostant_sum"
        assert m == expected == kostant_multiplicity(rs, lam, (0, 0))
        if family != "A":  # A2 (400,400) holds 40,401 dominant weights
            assert character(rs, lam)[0, 0] == expected

    def test_a_box_over_the_cap_keeps_the_recursion(self, monkeypatch):
        monkeypatch.setattr(importlib.import_module("weightmult.partition"), "_MAX_CELLS", 10)
        rs = build_root_system("G", 2)
        ctx = MultContext(rs, (3, 3))
        m, trace = multiplicity(rs, (3, 3), (0, 0), ctx=ctx)
        assert (m, trace.render()) == (64, "classical_freudenthal")
        assert tuple(ctx.counters.as_dict().values()) == (239, 107, 236, 242)

    def test_one_partition_table_per_system_in_a_context(self):
        # the deeper query fills the system's table, and a second context reads the same object
        rs = build_root_system("G", 2)
        ctx = MultContext(rs, (3, 3))
        assert multiplicity_value(rs, (3, 3), (0, 0), ctx=ctx) == 64
        memo = rs._partitions
        table = memo.table
        assert not hasattr(ctx, "_partitions")
        other = MultContext(rs, (3, 3))
        assert multiplicity_value(rs, (3, 3), (1, 1), ctx=other) == kostant_multiplicity(rs, (3, 3), (1, 1))
        assert rs._partitions is memo
        assert memo.table is table

    @pytest.mark.parametrize("cap", [None, 16 * 10], ids=["default-cap", "cap-at-the-box-of-3-3"])
    def test_a_table_grown_by_the_oracle_changes_no_query(self, monkeypatch, cap):
        # the route reads c alone, so a system holding a large table answers as a fresh
        # one does, also under a cap that only the boxes of (3,3) -> 0 and (2,2) -> 0 fit
        grown = build_root_system("G", 2)
        assert kostant_multiplicity(grown, (0, 30), (0, 0)) == 2616
        assert grown._partitions.top == (90, 60)
        if cap is not None:
            monkeypatch.setattr(importlib.import_module("weightmult.partition"), "_MAX_CELLS", cap)
        queries = [((3, 3), (0, 0)), ((4, 4), (0, 0)), ((5, 5), (1, 1)), ((1, 1), (0, 0)), ((2, 2), (0, 0))]

        def answers(rs):
            out = []
            for lam, mu in queries:
                ctx = MultContext(rs, lam)
                m, trace = multiplicity(rs, lam, mu, ctx=ctx)
                out.append((m, trace.render(), ctx.counters.as_dict()))
            return out

        got, fresh = answers(grown), answers(build_root_system("G", 2))
        assert got == fresh
        assert [t for _, t, _ in got].count("kostant_sum") == (4 if cap is None else 2)

    @pytest.mark.parametrize("lam", [(2, 2), (3, 3)])
    def test_verify_routes_no_dispatcher_row(self, monkeypatch, lam):
        routed = []
        original = MULTIPLICITY._alternating_sum

        def counting(*args):
            routed.append(args[1:3])
            return original(*args)

        monkeypatch.setattr(MULTIPLICITY, "_alternating_sum", counting)
        rs = build_root_system("G", 2)
        assert verify_module(rs, lam).passed
        assert routed == []
        # the same patch sees the route of a single query on the module
        assert multiplicity_value(rs, lam, (0, 0)) == {(2, 2): 21, (3, 3): 64}[lam]
        assert routed


class TestRankThreeRoute:
    """Under `auto`, a B3 or C3 piece with no admissible level is valued by the alternating sum.

    It must also have ``sum(c) >= 10`` and fit its partition box under
    `partition._MAX_CELLS`, and the context must route; any other piece
    runs the recursions as before.
    """

    # the classical recursion took about 7 s and 16 s on these, on one core of a 2-core x86-64 virtual machine
    @pytest.mark.parametrize(
        "family,lam,expected", [("B", (20, 20, 20), 16_817_673), ("C", (25, 25, 25), 58_660_576)]
    )
    def test_deep_zero_weight_queries_answer(self, family, lam, expected):
        m, trace = multiplicity(build_root_system(family, 3), lam, (0, 0, 0))
        assert (m, trace.render()) == (expected, "kostant_sum")

    @pytest.mark.parametrize("family", ["B", "C"])
    def test_every_policy_and_the_character_agree(self, family):
        rs, lam = build_root_system(family, 3), (3, 3, 3)
        routed = 0
        for mu, m in character(rs, lam).items():
            got, trace = multiplicity(rs, lam, mu)
            routed += trace.kinds()[-1:] == ("kostant_sum",)
            assert got == m
            for algorithm in ("classical", "fast"):
                assert multiplicity_value(rs, lam, mu, algorithm=algorithm) == m
        assert routed

    @pytest.mark.parametrize("family", ["B", "C"])
    def test_the_dispatcher_chart_routes_nothing(self, monkeypatch, family):
        routed = []
        original = MULTIPLICITY._alternating_sum

        def counting(*args):
            routed.append(args[1:3])
            return original(*args)

        monkeypatch.setattr(MULTIPLICITY, "_alternating_sum", counting)
        rs, lam = build_root_system(family, 3), (2, 2, 2)
        assert MULTIPLICITY._dispatcher_chart(rs, lam)[0] == character(rs, lam)
        assert routed == []
        # the same patch sees the route of a single query on the module
        multiplicity_value(rs, lam, (0, 0, 0))
        assert routed

    def test_a_box_over_the_cap_keeps_the_recursion(self, monkeypatch):
        # with no box under the cap, the query runs the recursion a context that never routes runs
        rs, lam = build_root_system("B", 3), (6, 6, 6)
        unrouted = MultContext(rs, lam)
        unrouted._route = False
        assert multiplicity(rs, lam, (0, 0, 0), ctx=unrouted)[0] == 23511
        monkeypatch.setattr(importlib.import_module("weightmult.partition"), "_MAX_CELLS", 10)
        ctx = MultContext(rs, lam)
        m, trace = multiplicity(rs, lam, (0, 0, 0), ctx=ctx)
        assert (m, trace.render()) == (23511, "classical_freudenthal")
        assert ctx.counters == unrouted.counters


class TestRecursionFrames:
    """Every level of a query's recursion stacks these frames, so they take no new local.

    The counts were read on CPython 3.11.7.  `_fast_rhs` is left out: its
    list comprehension is inlined from Python 3.12 on (PEP 709), which adds
    locals.
    """

    @pytest.mark.parametrize(
        "name,nlocals", [("_mult", 12), ("_formula", 11), ("_auto_reduce", 17), ("_classical_rhs", 25)]
    )
    def test_local_count(self, name, nlocals):
        assert getattr(MULTIPLICITY, name).__code__.co_nlocals == nlocals, (
            f"{name} has {getattr(MULTIPLICITY, name).__code__.co_nlocals} locals, not {nlocals}: "
            "ROADMAP item 8 asks for no new local in the recursion's frames; "
            "put new per-piece logic in a helper, as `_routes` and `partition._fits` do"
        )
