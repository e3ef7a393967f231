"""Acceptance gate: one test per criterion, each named test_criterion_N_*.

Running ``pytest -v tests/test_acceptance.py`` therefore prints exactly one
pass/fail line per criterion.  Everything here is exact integer arithmetic;
nothing is asserted approximately.
"""

import itertools
import math
import random
import time

from weightmult import (
    MultContext,
    PartitionMemo,
    RootSystem,
    build_root_system,
    character,
    dimension,
    dominant_conjugate,
    fast_freudenthal,
    freudenthal_classical,
    inner,
    is_under,
    kostant_multiplicity,
    kostant_partition,
    levi_restrict,
    lower_highest_weight,
    multiplicity_value,
    orbit_size,
    type_a_closed,
    verify_module,
    weyl_dimension,
)
from weightmult.multiplicity import _dispatcher_chart as dispatcher_chart

_MODULE_T0 = time.monotonic()

SMALL_TYPES = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 2), ("B", 3), ("G", 2)]


def mu_from_root_coords(rs, lam, c):
    """The weight lam minus the root-lattice element with coordinates c."""
    return tuple(
        a - sum(rs.cartan[i][k] * ck for k, ck in enumerate(c) if ck)
        for i, a in enumerate(lam)
    )


def weights_with_coordinate_sum_up_to(rank, total):
    return [
        lam
        for lam in itertools.product(range(total + 1), repeat=rank)
        if sum(lam) <= total
    ]


def dominant_weights_under(rs, lam):
    """Every dominant mu below lam, by exhaustive search over a provably big box.

    For dominant mu below lam, (lam, lam) - (mu, mu) = (lam - mu, lam + mu)
    >= 0: lam - mu is a non-negative sum of simple roots and lam + mu is
    dominant.  And (mu, mu) >= mu_i^2 (w_i, w_i) because the Gram matrix of
    the fundamental weights has positive entries.  So mu_i^2 (w_i, w_i) is
    at most (lam, lam), which caps each coordinate, and the box search is
    complete.
    """
    cap = inner(rs, lam, lam)
    bounds = []
    for i in range(rs.rank):
        w_i = tuple(int(k == i) for k in range(rs.rank))
        g = inner(rs, w_i, w_i)
        bounds.append(math.isqrt(int(cap / g)) + 1)
    found = []
    for mu in itertools.product(*(range(b + 1) for b in bounds)):
        if is_under(rs, mu, lam) is not None:
            found.append(mu)
    return found


def test_criterion_1_type_a_closed_formula_matches_both_recursions():
    checked = 0
    for rank in range(2, 8):
        rs = build_root_system("A", rank)
        ones = (1,) * rank
        patterns = [
            (1,) + interior + (1,)
            for interior in itertools.product((0, 1, 2), repeat=rank - 2)
        ]
        end_cases = [
            (a,) + (0,) * (rank - 2) + (b,) for a in (1, 2, 3) for b in (1, 2, 3)
        ]
        for lam in patterns + end_cases:
            mu = mu_from_root_coords(rs, lam, ones)
            closed = type_a_closed(rs, lam)
            fast_ctx = MultContext(rs, lam, "fast")
            fast = fast_freudenthal(fast_ctx, mu, ones, 1)
            classical_ctx = MultContext(rs, lam, "classical")
            classical = freudenthal_classical(classical_ctx, mu)
            assert closed == fast == classical
            if lam in end_cases:
                assert closed == rank
            checked += 1
    assert checked == sum(3 ** (r - 2) for r in range(2, 8)) + 6 * 9


def test_criterion_2_dispatcher_equals_classical_equals_alternating_sum():
    for family, rank in SMALL_TYPES:
        rs = build_root_system(family, rank)
        memo = PartitionMemo()
        for lam in weights_with_coordinate_sum_up_to(rank, 3):
            for mu in dominant_weights_under(rs, lam):
                auto = multiplicity_value(rs, lam, mu)
                ctx = MultContext(rs, lam, "classical")
                classical = freudenthal_classical(ctx, mu)
                # `auto` values deep rank-2 pieces by the alternating sum itself,
                # so `fast` is checked against the oracle too
                fast = multiplicity_value(rs, lam, mu, algorithm="fast")
                oracle = kostant_multiplicity(rs, lam, mu, memo=memo)
                assert auto == classical == fast == oracle, (family, rank, lam, mu)


def test_criterion_3_orbit_weighted_character_sums_match_the_product_formula():
    for family, rank in SMALL_TYPES:
        rs = build_root_system(family, rank)
        for lam in weights_with_coordinate_sum_up_to(rank, 3):
            total = sum(m * orbit_size(rs, mu) for mu, m in character(rs, lam).items())
            assert total == weyl_dimension(rs, lam), (family, rank, lam)
    a2 = build_root_system("A", 2)
    assert dimension(a2, (1, 1)) == 8
    assert multiplicity_value(a2, (1, 1), (0, 0)) == 2
    g2 = build_root_system("G", 2)
    assert dimension(g2, (0, 1)) == 14
    assert multiplicity_value(g2, (0, 1), (0, 0)) == 2


def test_criterion_4_lowering_invariance_and_level_constancy():
    rng = random.Random(20260815)
    pairs = 0
    for family, rank in [("A", 3), ("B", 3)]:
        rs = build_root_system(family, rank)
        for _ in range(100):
            lam = tuple(rng.randrange(5) for _ in range(rank))
            c = tuple(rng.randrange(4) for _ in range(rank))
            mu = mu_from_root_coords(rs, lam, c)
            m = multiplicity_value(rs, lam, mu)
            lam2, mu2 = lower_highest_weight(rs, lam, mu)
            assert multiplicity_value(rs, lam2, mu2) == m, (family, lam, c)
            for j in range(rank):
                if 0 < c[j] <= lam[j]:
                    for x in (c[j], c[j] + 1, c[j] + 2):
                        lam_x = lam[:j] + (x,) + lam[j + 1:]
                        mu_x = mu_from_root_coords(rs, lam_x, c)
                        assert multiplicity_value(rs, lam_x, mu_x) == m, (family, lam, c, j, x)
            pairs += 1
    assert pairs == 200


def test_criterion_5_summand_counters_scale_linearly_versus_quadratically():
    speedups = []
    for rank in range(4, 13):
        rs = build_root_system("A", rank)
        lam = (1,) + (0,) * (rank - 2) + (1,)
        ones = (1,) * rank
        mu = mu_from_root_coords(rs, lam, ones)

        fast_ctx = MultContext(rs, lam, "fast")
        t0 = time.perf_counter_ns()
        fast_value = fast_freudenthal(fast_ctx, mu, ones, 1)
        fast_ns = time.perf_counter_ns() - t0
        assert fast_value == rank
        assert fast_ctx.counters.fast_terms == rank
        assert fast_ctx.counters.inner_products == 0

        classical_ctx = MultContext(rs, lam, "classical")
        t0 = time.perf_counter_ns()
        classical_value = freudenthal_classical(classical_ctx, mu)
        classical_ns = time.perf_counter_ns() - t0
        assert classical_value == rank
        assert classical_ctx.counters.classical_terms == rank * (rank + 1) // 2
        assert classical_ctx.counters.inner_products >= rank * (rank + 1) // 2
        speedups.append((rank, classical_ns, fast_ns))
    # Reported, not asserted: wall time depends on the host.
    for rank, classical_ns, fast_ns in speedups:
        print(f"rank {rank}: classical {classical_ns} ns, restricted {fast_ns} ns")


def test_criterion_6_partition_function_matches_exhaustive_enumeration():
    def brute(rs, gamma):
        def count(remaining, start):
            if not any(remaining):
                return 1
            total = 0
            for idx in range(start, len(rs.pos_roots)):
                shifted = tuple(a - b for a, b in zip(remaining, rs.pos_roots[idx]))
                if all(x >= 0 for x in shifted):
                    total += count(shifted, idx)
            return total

        return count(gamma, 0)

    for family in ("A", "B", "G"):
        rs = build_root_system(family, 2)
        memo = PartitionMemo()
        assert kostant_partition(rs, (0, 0), memo) == 1
        for gamma in itertools.product(range(7), repeat=2):
            if sum(gamma) <= 6:
                assert kostant_partition(rs, gamma, memo) == brute(rs, gamma), (family, gamma)


def test_criterion_7_conjugation_orbits_and_reflection_invariance():
    fixed_lambda = {
        ("A", 3): (1, 1, 1),
        ("B", 3): (1, 0, 1),
        ("D", 4): (0, 1, 0, 0),
    }
    rng = random.Random(997)
    for (family, rank), lam in fixed_lambda.items():
        rs = build_root_system(family, rank)
        for sample in range(500):
            mu = tuple(rng.randrange(-5, 6) for _ in range(rank))
            rep, word = dominant_conjugate(rs, mu)
            assert all(x >= 0 for x in rep)
            image = mu
            for j in word:
                image = rs.reflect(image, j - 1)
            assert image == rep
            assert dominant_conjugate(rs, rep) == (rep, ())

            orbit = {mu}
            frontier = [mu]
            while frontier:
                nxt = []
                for nu in frontier:
                    for i in range(rank):
                        img = rs.reflect(nu, i)
                        if img not in orbit:
                            orbit.add(img)
                            nxt.append(img)
                frontier = nxt
            assert orbit_size(rs, rep) == len(orbit)
            assert {nu for nu in orbit if all(x >= 0 for x in nu)} == {rep}

            if sample % 10 == 0:
                base = multiplicity_value(rs, lam, mu)
                assert multiplicity_value(rs, lam, rep) == base
                for i in range(rank):
                    assert multiplicity_value(rs, lam, rs.reflect(mu, i)) == base


def dominant_weights_by_descent(rs, lam):
    """Every dominant mu under lam, reached from lam through dominant weights.

    Stembridge (Adv. Math. 1998): two dominant weights mu < lam are joined by
    a chain of dominant weights, each step subtracting one positive root.
    """
    seen = {lam}
    stack = [lam]
    while stack:
        nu = stack.pop()
        for root in rs.pos_roots_fundamental:
            child = tuple(a - b for a, b in zip(nu, root))
            if min(child) >= 0 and child not in seen:
                seen.add(child)
                stack.append(child)
    return sorted(seen)


# Criteria 9-14 are placed before criterion 8 so that its desk-scale timer
# covers them too.
def test_criterion_9_dispatcher_equals_classical_on_d_e_and_f():
    for family, rank, total in [("D", 4, 2), ("D", 5, 2), ("F", 4, 2), ("E", 6, 1)]:
        rs = build_root_system(family, rank)
        for lam in weights_with_coordinate_sum_up_to(rank, total):
            ctx = MultContext(rs, lam, "classical")
            for mu in dominant_weights_by_descent(rs, lam):
                auto = multiplicity_value(rs, lam, mu)
                assert auto == freudenthal_classical(ctx, mu), (family, rank, lam, mu)
    e7 = build_root_system("E", 7)
    assert dimension(e7, (1, 0, 0, 0, 0, 0, 1)) == weyl_dimension(e7, (1, 0, 0, 0, 0, 0, 1))


def test_criterion_10_character_descent_equals_the_box_search():
    cases = [(family, rank, 3) for family, rank in SMALL_TYPES]
    cases += [("D", 4, 2), ("D", 5, 2), ("F", 4, 2), ("E", 6, 1)]
    for family, rank, total in cases:
        rs = build_root_system(family, rank)
        for lam in weights_with_coordinate_sum_up_to(rank, total):
            chart = character(rs, lam)
            assert set(chart) == set(dominant_weights_under(rs, lam)), (family, rank, lam)
            heights = [sum(is_under(rs, mu, lam)) for mu in chart]
            assert heights == sorted(heights), (family, rank, lam)
            for mu, m in chart.items():
                # a fresh context per weight, independent of the shared one
                assert m == multiplicity_value(rs, lam, mu), (family, rank, lam, mu)


def test_criterion_11_dimension_on_every_fundamental_weight_up_to_e8():
    for family, rank in [("D", 4), ("D", 5), ("D", 6), ("E", 6), ("E", 7), ("E", 8), ("F", 4)]:
        rs = build_root_system(family, rank)
        for i in range(rank):
            lam = tuple(int(k == i) for k in range(rank))
            assert dimension(rs, lam) == weyl_dimension(rs, lam), (family, rank, lam)


def test_criterion_12_kostant_sum_equals_character_on_d_e_and_f():
    cases = [(family, rank, weights_with_coordinate_sum_up_to(rank, 2))
             for family, rank in [("D", 4), ("D", 5), ("F", 4)]]
    cases.append(("E", 6, [(1, 0, 0, 0, 0, 1)]))
    for family, rank, lams in cases:
        rs = build_root_system(family, rank)
        memo = PartitionMemo()
        for lam in lams:
            dispatched = dispatcher_chart(rs, lam)
            for mu, m in character(rs, lam).items():
                oracle = kostant_multiplicity(rs, lam, mu, memo=memo)
                assert oracle == dispatched[mu] == m, (family, rank, lam, mu)


def test_criterion_13_kostant_sum_equals_character_on_e7():
    rs = build_root_system("E", 7)
    memo = PartitionMemo()
    for lam in [(1, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 1)]:
        dispatched = dispatcher_chart(rs, lam)
        for mu, m in character(rs, lam).items():
            oracle = kostant_multiplicity(rs, lam, mu, cap=rs.weyl_order, memo=memo)
            assert oracle == dispatched[mu] == m, (lam, mu)


def test_criterion_14_kostant_sum_equals_character_on_the_e8_adjoint_module():
    rs = build_root_system("E", 8)
    lam = (0, 0, 0, 0, 0, 0, 0, 1)
    memo = PartitionMemo()
    dispatched = dispatcher_chart(rs, lam)
    for mu, m in character(rs, lam).items():
        oracle = kostant_multiplicity(rs, lam, mu, cap=rs.weyl_order, memo=memo)
        assert oracle == dispatched[mu] == m, mu


def test_criterion_15_telescoped_character_equals_the_dispatcher_classical_and_kostant():
    # one module per family, deep rank-2 modules, a Levi subsystem built by
    # levi_restrict, rank 0 and A1; the rows of verify_module hold the
    # dispatcher sweep, the classical recursion and the Kostant sum
    e7 = build_root_system("E", 7)
    levi, levi_lam, _, _ = levi_restrict(e7, (1, 0, 1, 0, 0, 1, 0), (2, 0, 1, 0, 0, 0, 0))  # D6, nodes 2-7
    cases = [
        (build_root_system("A", 3), (2, 1, 2)),
        (build_root_system("B", 2), (30, 30)),
        (build_root_system("B", 3), (2, 1, 1)),
        (build_root_system("C", 3), (1, 2, 1)),
        (build_root_system("D", 4), (1, 0, 1, 1)),
        (build_root_system("E", 6), (1, 0, 0, 0, 0, 1)),
        (build_root_system("F", 4), (1, 0, 0, 1)),
        (build_root_system("G", 2), (20, 20)),
        (levi, levi_lam),
        (RootSystem(()), ()),
        (build_root_system("A", 1), (7,)),
    ]
    for rs, lam in cases:
        report = verify_module(rs, lam)
        assert report.passed and not report.oracle_capped, (rs.label(), lam)
        chart = character(rs, lam)
        assert list(chart.items()) == [(mu, m) for mu, m, _, _ in report.rows], (rs.label(), lam)
        assert all(m == m_classical == m_kostant for _, m, m_classical, m_kostant in report.rows)


def test_criterion_8_whole_gate_runs_at_desk_scale():
    elapsed = time.monotonic() - _MODULE_T0
    print(f"acceptance suite elapsed: {elapsed:.1f} s")
    assert elapsed < 600
