"""Self-test of the benchmark's own checks: ``python3 bench/run.py --self-test``.

The tableau counter must reproduce textbook Kostka numbers, and every output
check must pass a right answer and reject a deliberately wrong one.
"""

from __future__ import annotations

import dataclasses

import checks
from workloads import Mult, Op

# Kostka matrix for partitions of 4 (Macdonald, Symmetric Functions, I.6).
_P4 = ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
_K4 = (
    (1, 1, 1, 1, 1),
    (0, 1, 1, 2, 3),
    (0, 0, 1, 1, 2),
    (0, 0, 0, 1, 3),
    (0, 0, 0, 0, 1),
)
# Standard tableaux counts f^shape from the hook length formula.
_SYT = {(2, 1): 2, (2, 2): 2, (3, 3): 5, (3, 2, 1): 16, (4, 3, 2, 1): 768}


def run(wm) -> int:
    results = []

    def expect(label, ok):
        results.append(ok)
        print(f"{'ok  ' if ok else 'FAIL'} {label}")

    for i, shape in enumerate(_P4):
        for j, content in enumerate(_P4):
            if checks.kostka(shape, content) != _K4[i][j]:
                expect(f"Kostka {shape} {content} = {_K4[i][j]}", False)
    expect("Kostka matrix of the partitions of 4", all(results))
    for shape, f in _SYT.items():
        expect(f"standard tableaux of shape {shape}: {f}",
               checks.kostka(shape, (1,) * sum(shape)) == f)
    expect("A2 adjoint zero weight: 2", checks.type_a_kostka((1, 1), (0, 0)) == 2)
    expect("A1 weight outside the root-lattice coset: 0", checks.type_a_kostka((4,), (1,)) == 0)
    expect("A2 (2,2), the 27 of SU(3), zero weight: 3", checks.type_a_kostka((2, 2), (0, 0)) == 3)

    for family, rank, lam in (("A", 2, (2, 1)), ("G", 2, (1, 1)), ("B", 3, (0, 1, 0))):
        rs = wm.build_root_system(family, rank)
        chart = dict(wm.character(rs, lam))
        dim = wm.weyl_dimension(rs, lam)
        ok = lambda c: checks.check_character(rs, lam, c, dim, wm.orbit_size) is None
        expect(f"char check passes {family}{rank} {lam}", ok(chart))
        low = min(chart, key=lambda mu: (sum(mu), mu))
        expect(f"char check rejects a multiplicity off by one ({family}{rank})",
               not ok({**chart, low: chart[low] + 1}))
        expect(f"char check rejects a missing highest weight ({family}{rank})",
               not ok({mu: m for mu, m in chart.items() if mu != lam}))
        expect(f"char check rejects a non-dominant weight ({family}{rank})",
               not ok({**chart, (-1,) + lam[1:]: 1}))
        expect(f"char check rejects a weight not under lam ({family}{rank})",
               not ok({**chart, tuple(x + 1 for x in lam): 1}))

    mult = Mult()
    for family, rank, lam, mu in (("A", 3, (1, 0, 1), (0, 0, 0)), ("F", 4, (1, 0, 0, 0), (0, 0, 0, 0)),
                                  ("C", 3, (1, 1, 0), (1, 0, 0))):
        rs = wm.build_root_system(family, rank)
        op = Op("self-test", (family, rank), lam, mu)
        out = wm.multiplicity(rs, lam, mu)
        expect(f"mult check passes {family}{rank} {lam}->{mu}", mult.check(wm, rs, op, out, {}) is None)
        expect(f"mult check rejects {out[0]} + 1 ({family}{rank})",
               mult.check(wm, rs, op, (out[0] + 1, out[1]), {}) is not None)
    k = checks.type_a_kostka((1, 0, 1), (0, 0, 0))
    expect("A3 adjoint zero weight: 3", k == 3)
    expect("Kostka comparison rejects a wrong type-A value",
           checks.check_value("the Kostka number", k + 1, k) is not None)

    for family, rank, lam in (("A", 3, (1, 0, 1)), ("G", 2, (1, 0))):
        rs = wm.build_root_system(family, rank)
        report = wm.verify_module(rs, lam)
        dim = wm.weyl_dimension(rs, lam)
        expect(f"verify check passes {family}{rank} {lam}", checks.check_report(rs, lam, report, dim) is None)
        failing = dataclasses.replace(report, passed=False, first_divergence="planted")
        expect(f"verify check rejects a failing report ({family}{rank})",
               checks.check_report(rs, lam, failing, dim) is not None)
        expect(f"verify check rejects a wrong Weyl dimension ({family}{rank})",
               checks.check_report(rs, lam, report, dim + 1) is not None)
    rs = wm.build_root_system("A", 3)
    report = wm.verify_module(rs, (1, 0, 1))
    mu, m, c, k = report.rows[-1]
    planted = dataclasses.replace(report, rows=report.rows[:-1] + [(mu, m + 1, c, k)])
    expect("verify check rejects a type-A row that disagrees with Kostka",
           checks.check_report(rs, (1, 0, 1), planted, wm.weyl_dimension(rs, (1, 0, 1))) is not None)

    failed = results.count(False)
    print(f"self-test: {len(results) - failed} passed, {failed} failed")
    return 1 if failed else 0
