"""Operation counts: full-sum recursion versus the level-restricted recursion.

For the adjoint-type weight lambda_1 + lambda_l in A_l the restricted
recursion through alpha_1 touches l summands (one per positive root through
alpha_1) while the full sum touches l(l+1)/2.  Counters are exact; timings
are medians over five runs.

Run with: python3 demos/fast_vs_classical.py
"""

import time

from weightmult import (
    MultContext,
    build_root_system,
    fast_freudenthal,
    freudenthal_classical,
    root_to_weight_coords,
)


def run_once(rank):
    rs = build_root_system("A", rank)
    lam = (1,) + (0,) * (rank - 2) + (1,)
    ones = (1,) * rank
    mu = tuple(a - x for a, x in zip(lam, root_to_weight_coords(rs, ones)))

    def median_ns(runner):
        samples = []
        for _ in range(5):
            t0 = time.perf_counter_ns()
            runner()
            samples.append(time.perf_counter_ns() - t0)
        return sorted(samples)[2]

    fast_ctx = {}

    def fast_runner():
        ctx = MultContext(rs, lam, "fast")
        assert fast_freudenthal(ctx, mu, ones, 1) == rank
        fast_ctx["counters"] = ctx.counters

    classical_ctx = {}

    def classical_runner():
        ctx = MultContext(rs, lam, "classical")
        assert freudenthal_classical(ctx, mu) == rank
        classical_ctx["counters"] = ctx.counters

    fast_ns = median_ns(fast_runner)
    classical_ns = median_ns(classical_runner)
    return fast_ctx["counters"], classical_ctx["counters"], fast_ns, classical_ns


def main():
    print(f"{'rank':>4}  {'restricted terms':>16}  {'full terms':>10}  "
          f"{'restricted us':>13}  {'full us':>8}")
    for rank in range(4, 16):
        fast_counters, classical_counters, fast_ns, classical_ns = run_once(rank)
        print(
            f"{rank:>4}  {fast_counters.fast_terms:>16}  "
            f"{classical_counters.classical_terms:>10}  "
            f"{fast_ns // 1000:>13}  {classical_ns // 1000:>8}"
        )


if __name__ == "__main__":
    main()
