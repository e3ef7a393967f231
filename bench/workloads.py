"""The benchmark's three workloads and the independent check of every op.

* ``char``: ``character(rs, lam)`` on six fixed modules.
* ``mult``: a few hundred single ``multiplicity(rs, lam, mu)`` queries, each
  with a fresh context.  The A, B, C, F and G queries come from ``--seed``;
  the D and E queries come from one fixed seed, so that the D/E ops hit by
  the Levi-labelling fault are the same in every run (see KNOWN_FAULTS).
* ``verify``: ``verify_module(rs, lam)`` on ten fixed modules, the only
  workload that reaches the oracle and the partition function.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional

import checks

CHAR_MODULES = (
    ("E", 8, (1, 0, 0, 0, 0, 0, 0, 0)),
    ("G", 2, (5, 5)),
    ("B", 4, (1, 1, 1, 1)),
    ("C", 4, (1, 1, 1, 1)),
    ("A", 3, (3, 3, 3)),
    ("E", 6, (1, 1, 0, 0, 0, 1)),
)

# E6 is left out: enumerate_weyl(E6) alone takes about 28 s.
VERIFY_MODULES = (
    ("G", 2, (2, 2)),
    ("A", 3, (2, 1, 2)),
    ("B", 3, (1, 1, 1)),
    ("B", 4, (1, 0, 0, 1)),
    ("C", 4, (1, 0, 0, 1)),
    ("F", 4, (1, 0, 0, 0)),
    ("F", 4, (0, 0, 0, 2)),
    ("A", 5, (1, 0, 1, 0, 1)),
    ("D", 5, (1, 0, 0, 0, 1)),
    ("D", 4, (1, 0, 1, 1)),
)

MULT_TYPES = (
    ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("A", 6), ("A", 7), ("A", 8),
    ("B", 3), ("B", 4), ("B", 5), ("C", 3), ("C", 4), ("C", 5),
    ("D", 4), ("D", 5), ("D", 6), ("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2),
)
# Largest coordinate of a generated highest weight, by rank: low ranks get
# large coefficients and high ranks small ones.
MULT_MAX_COEFF = {2: 8, 3: 5, 4: 3, 5: 2, 6: 2, 7: 1, 8: 1}
# Highest weights with more dominant weights than this are never drawn,
# which keeps every query near or under a second.
MULT_MAX_DOMINANT = 40
# Queries per type drawn from --seed (A, B, C, F, G), and per D or E type
# drawn from MULT_FIXED_SEED.  The mix of queries alone moved the median op
# by 7.1% between seeds with 12 per type and by 3.4% with 36 (quartile
# spread over ten seeds).
MULT_PER_TYPE = 36
MULT_FIXED_PER_TYPE = 12
MULT_FIXED_SEED = 1603
MULT_FIXED = (
    ("E", 6, (1, 1, 0, 0, 0, 1), (0, 0, 0, 0, 1, 1)),
    ("D", 4, (0, 0, 1, 1), (1, 0, 0, 0)),
)
KOSTANT_MAX_ORDER = 2000

_LEVI = (
    "type_a_closed reads interval gaps in index order; on this D/E Levi "
    "component index order is not chain order"
)
# Ops that fail every time at the commit that introduced the benchmark, all
# through one fault.  They are counted in ``failed``; any other failing op
# makes the run incorrect.
KNOWN_FAULTS = {
    "char E6 (1,1,0,0,0,1)": _LEVI + " (dimension 33885, Weyl dimension 34749)",
    "mult E6 (1,1,0,0,0,1)->(0,0,0,0,1,1)": _LEVI + " (2 instead of 4)",
    "mult D4 (0,0,1,1)->(1,0,0,0)": _LEVI + " (2 instead of 3)",
    "verify D4 (1,0,1,1)": _LEVI + " (classical disagrees at (2,0,0,0))",
    # generated from MULT_FIXED_SEED
    "mult D4 (0,0,3,2)->(1,1,0,1)": _LEVI + " (raises InexactDivision)",
    "mult D4 (1,0,3,3)->(2,0,0,2)": _LEVI + " (raises InexactDivision)",
    "mult D5 (1,2,0,1,1)->(1,2,0,0,0)": _LEVI + " (56 instead of 66)",
    "mult D6 (0,1,0,0,1,2)->(1,0,0,1,0,1)": _LEVI + " (8 instead of 10)",
    "mult E7 (0,1,1,0,0,0,1)->(1,0,0,0,0,0,0)": _LEVI + " (raises InexactDivision)",
    "mult E7 (0,1,1,0,0,1,0)->(1,0,0,0,1,1,0)": _LEVI + " (2 instead of 3)",
    "mult E7 (1,1,1,0,0,0,0)->(0,0,1,0,0,0,1)": _LEVI + " (raises InexactDivision)",
    "mult E7 (1,1,1,0,0,0,0)->(1,1,0,0,0,0,0)": _LEVI + " (raises InexactDivision)",
    "mult E8 (0,1,1,0,0,0,0,0)->(1,0,0,0,0,0,1,1)": _LEVI + " (raises InexactDivision)",
    "mult E8 (1,1,0,0,0,0,0,0)->(0,0,0,0,0,0,0,0)": _LEVI + " (raises InexactDivision)",
    "mult E8 (1,1,0,0,0,0,0,0)->(0,1,0,0,0,0,0,1)": _LEVI + " (raises InexactDivision)",
}


def _fmt(w) -> str:
    return "(" + ",".join(str(x) for x in w) + ")"


@dataclass(frozen=True)
class Op:
    name: str
    system: tuple
    lam: tuple
    mu: Optional[tuple] = None
    kostant: bool = False  # mult: also compare with the Kostant sum


def _op(kind, family, rank, lam, mu=None, kostant=False) -> Op:
    name = f"{kind} {family}{rank} {_fmt(lam)}"
    if mu is not None:
        name += f"->{_fmt(mu)}"
    return Op(name, (family, rank), tuple(lam), None if mu is None else tuple(mu), kostant)


def dominant_under(roots, lam, cap):
    """Dominant weights under lam with the height of lam - mu, or None past ``cap``.

    ``roots`` holds (height, fundamental coordinates) of each positive root.
    Walks down from lam by positive roots and keeps dominant results; every
    dominant weight under lam is reached this way (Stembridge 1998).
    """
    seen = {tuple(lam): 0}
    frontier = [tuple(lam)]
    while frontier:
        nxt = []
        for mu in frontier:
            h = seen[mu]
            for hr, rf in roots:
                nu = tuple(a - b for a, b in zip(mu, rf))
                if min(nu) >= 0 and nu not in seen:
                    seen[nu] = h + hr
                    nxt.append(nu)
                    if len(seen) > cap:
                        return None
        frontier = nxt
    return sorted(seen.items(), key=lambda t: (t[1], t[0]))


def _mult_pool(wm, family, rank):
    """Every (lam, mu) of one type the generator may draw, shallowest first.

    lam runs over the nonzero weights with coordinates up to
    MULT_MAX_COEFF[rank] and at most MULT_MAX_DOMINANT dominant weights under
    them, mu over those dominant weights other than lam.  Entries are sorted
    by the height of lam - mu, then by the number of dominant weights.
    """
    rs = wm.build_root_system(family, rank)
    roots = [
        (sum(r), tuple(sum(row[k] * r[k] for k in range(rank)) for row in rs.cartan))
        for r in rs.pos_roots
    ]
    pool = []
    too_big = set()
    for lam in itertools.product(range(MULT_MAX_COEFF[rank] + 1), repeat=rank):
        if not any(lam):
            continue
        # Raising a coordinate never loses a dominant weight, so lam is too
        # big when lam minus a fundamental weight (visited earlier) is.
        if any(lam[:i] + (a - 1,) + lam[i + 1:] in too_big for i, a in enumerate(lam) if a):
            too_big.add(lam)
            continue
        doms = dominant_under(roots, lam, MULT_MAX_DOMINANT)
        if doms is None:
            too_big.add(lam)
        else:
            pool.extend((h, len(doms), lam, mu) for mu, h in doms[1:])
    pool.sort()
    return pool


def _mult_queries(wm, family, rank, count, rng):
    """``count`` queries spread evenly over the sorted pool, shallow to deep.

    Query k is drawn from the middle eighth of the k-th of ``count`` equal
    slices of the pool.  Depth predicts a query's cost well, so the cost mix
    of the list, and its median op, changes little from seed to seed.  Every
    third query is also checked against the Kostant sum where the Weyl group
    is small enough: that sum costs up to 0.4 s per F4 query.
    """
    pool = _mult_pool(wm, family, rank)
    n = len(pool)
    picks = []
    for k in range(count):
        lo = (16 * k + 7) * n // (16 * count)
        hi = (16 * k + 9) * n // (16 * count)
        picks.append(pool[rng.randrange(lo, max(hi, lo + 1))])
    return [_op("mult", family, rank, lam, mu, k % 3 == 0) for k, (_, _, lam, mu) in enumerate(picks)]


class Char:
    name = "char"

    def ops(self, wm, seed):
        return [_op("char", f, r, lam) for f, r, lam in CHAR_MODULES]

    def call(self, wm, rs, op):
        return wm.character(rs, op.lam)

    def same(self, a, b):
        return a == b

    def check(self, wm, rs, op, out, cache):
        return checks.check_character(rs, op.lam, out, wm.weyl_dimension(rs, op.lam), wm.orbit_size)


class Mult:
    name = "mult"

    def ops(self, wm, seed):
        out = []
        for family, rank in MULT_TYPES:
            if family in "DE":
                count, rng = MULT_FIXED_PER_TYPE, random.Random(f"{MULT_FIXED_SEED}-{family}{rank}")
            else:
                count, rng = MULT_PER_TYPE, random.Random(f"{seed}-{family}{rank}")
            out.extend(_mult_queries(wm, family, rank, count, rng))
        out.extend(_op("mult", f, r, lam, mu, True) for f, r, lam, mu in MULT_FIXED)
        return out

    def call(self, wm, rs, op):
        return wm.multiplicity(rs, op.lam, op.mu)

    def same(self, a, b):
        return a[0] == b[0]

    def check(self, wm, rs, op, out, cache):
        got = out[0]
        for policy in ("classical", "fast"):
            want = wm.multiplicity_value(rs, op.lam, op.mu, algorithm=policy)
            bad = checks.check_value(policy, got, want)
            if bad:
                return bad
        if op.kostant and rs.weyl_order <= KOSTANT_MAX_ORDER:
            if op.system not in cache:
                cache[op.system] = wm.enumerate_weyl(rs)
            want = wm.kostant_multiplicity(rs, op.lam, op.mu, elements=cache[op.system])
            bad = checks.check_value("the Kostant sum", got, want)
            if bad:
                return bad
        if checks.is_type_a(rs):
            return checks.check_value("the Kostka number", got, checks.type_a_kostka(op.lam, op.mu))
        return None


class Verify:
    name = "verify"

    def ops(self, wm, seed):
        return [_op("verify", f, r, lam) for f, r, lam in VERIFY_MODULES]

    def call(self, wm, rs, op):
        return wm.verify_module(rs, op.lam)

    def same(self, a, b):
        return a == b

    def check(self, wm, rs, op, out, cache):
        return checks.check_report(rs, op.lam, out, wm.weyl_dimension(rs, op.lam))


WORKLOADS = {w.name: w for w in (Char(), Mult(), Verify())}
