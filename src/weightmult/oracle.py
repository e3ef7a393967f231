"""Verification oracle based on the alternating Kostant sum.

Nothing here shares logic with the Freudenthal recursions in `multiplicity`:
weight multiplicities are recomputed as

    m(mu) = sum over w in W of sign(w) * P(w(lam + rho) - (mu + rho))

where ``P`` is the partition count from `partition`.  The sum is the pruned
orbit walk `partition._alternating_sum`: it walks the orbit of ``lam +
rho`` as a tree, without building the group, since the parent of a
non-dominant point is its reflection at its smallest negative coordinate,
so the depth of a point is the length of its Weyl element and its sign is
``(-1)^depth`` (reverse search, Avis & Fukuda 1996).  Each step lowers a
point in the dominance order, so a subtree whose root is not above ``mu +
rho`` is skipped whole; only the contributing points are visited.  The
dispatcher's ``auto`` policy values deep rank-2 pieces by the same walk, so
on those pieces its answer is not independent of this one; the
``classical`` and ``fast`` policies never reach it.  `enumerate_weyl`
lists the whole group, with matrices, by a breadth-first walk over the
orbit of ``rho``.  It and `kostant_multiplicity` refuse to start when the
group order exceeds a cap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from .errors import GroupTooLarge, InvalidType
from .multiplicity import MultContext, _dispatcher_chart, character, freudenthal_classical
from .partition import PartitionMemo, _alternating_sum, kostant_partition
from .rootsys import RootSystem, Weight, _difference, orbit_size, weyl_dimension

__all__ = [
    "WeylElement",
    "enumerate_weyl",
    "kostant_multiplicity",
    "VerifyReport",
    "verify_module",
    "DEFAULT_CAP",
]

DEFAULT_CAP = 10**6


@dataclass(frozen=True)
class WeylElement:
    """One group element: its matrix on fundamental coordinates and its sign."""

    matrix: tuple
    parity: int
    length: int

    def apply(self, v: Sequence[int]) -> Weight:
        return tuple(sum(row[j] * vj for j, vj in enumerate(v) if vj) for row in self.matrix)


def enumerate_weyl(rs: RootSystem, cap: int = DEFAULT_CAP) -> Tuple[WeylElement, ...]:
    """Every Weyl group element, by a breadth-first walk over the orbit of ``rho``.

    W acts simply transitively on the orbit of the regular weight ``rho``, so
    each new image ``s_i w(rho)`` found by a simple reflection is a new
    element ``s_i w``, first reached at its length; its sign is
    ``(-1)^length``.  Its matrix is the parent's with row ``k`` replaced by
    ``M[k] - cartan[k][i] * M[i]`` for each ``(k, cartan[k][i])`` in
    ``rs.columns[i]``; every other row is shared with the parent.  Elements
    come in order of length.  Raises `GroupTooLarge` before doing any work if
    ``rs.weyl_order`` exceeds ``cap``, and `InvalidType` if the walk finds
    another number of elements than ``rs.weyl_order``.
    """
    order = rs.weyl_order
    if order > cap:
        raise GroupTooLarge(order, cap)
    l = rs.rank
    identity = tuple(tuple(int(i == j) for j in range(l)) for i in range(l))
    elements = [WeylElement(identity, 1, 0)]
    seen = {rs.rho}
    frontier = [(rs.rho, identity)]
    depth = 0
    while frontier:
        depth += 1
        parity = -1 if depth % 2 else 1
        nxt = []
        for image, mat in frontier:
            for i in range(l):
                key = rs.reflect(image, i)
                if key in seen:
                    continue
                seen.add(key)
                rows = list(mat)
                for k, c in rs.columns[i]:
                    rows[k] = tuple(a - c * b for a, b in zip(mat[k], mat[i]))
                rows = tuple(rows)
                elements.append(WeylElement(rows, parity, depth))
                nxt.append((key, rows))
        frontier = nxt
    if len(elements) != order:
        raise InvalidType(f"enumerated {len(elements)} Weyl group elements, expected {order}")
    return tuple(elements)


def kostant_multiplicity(
    rs: RootSystem,
    lam,
    mu,
    cap: int = DEFAULT_CAP,
    *,
    elements: Optional[tuple] = None,
    memo: Optional[PartitionMemo] = None,
) -> int:
    """Weight multiplicity through the alternating partition sum.

    Sums by the pruned orbit walk of `partition._alternating_sum`, which
    counts each point it visits with `kostant_partition`.  Raises
    `GroupTooLarge` before any work when the group order exceeds ``cap``.
    ``memo`` lets a caller reuse one partition table across queries against
    one root system.  The first count is at the walk's root, whose ``c = lam
    - mu`` bounds every later one, so the walk fills the table at most once.
    ``elements`` is accepted for compatibility and ignored, since the walk
    needs no group.
    """
    lam, mu, c = _difference(rs, lam, mu)
    if rs.weyl_order > cap:
        raise GroupTooLarge(rs.weyl_order, cap)
    if c is None or min(c, default=0) < 0:
        return 0
    if memo is None:
        memo = PartitionMemo()
    # through the module global, so that a patched `kostant_partition` sees every count
    return _alternating_sum(rs, lam, c, lambda g: kostant_partition(rs, g, memo))


@dataclass
class VerifyReport:
    """Outcome of cross-checking one module three ways plus its dimension."""

    system: str
    lam: Weight
    rows: list = field(default_factory=list)  # (mu, dispatcher, classical, kostant|None)
    dimension_character: int = 0
    dimension_weyl: int = 0
    oracle_capped: bool = False
    weyl_order: int = 0
    passed: bool = False
    first_divergence: Optional[str] = None

    def summary(self) -> str:
        lines = [
            f"module {self.system} lam={list(self.lam)}: "
            f"{len(self.rows)} dominant weights, dim {self.dimension_character}"
        ]
        if self.oracle_capped:
            lines.append(
                f"oracle skipped: |W| = {self.weyl_order} exceeds cap (dimension, classical and character checks)"
            )
        if self.passed:
            lines.append("verify: pass")
        else:
            lines.append(f"verify: FAIL ({self.first_divergence})")
        return "\n".join(lines)


def verify_module(rs: RootSystem, lam, cap: int = DEFAULT_CAP) -> VerifyReport:
    """Compare dispatcher, classical recursion and Kostant sum on a whole module.

    Every dominant weight under ``lam`` is valued three ways; the module
    dimension is additionally compared against the closed product formula.
    The dispatcher column values the weights of `character`, in its order,
    through one dispatcher context (`multiplicity._dispatcher_chart`):
    increasing height of ``lam - mu``, so the first row is ``lam`` itself.
    That sweep sends no piece to the alternating sum, so the column stays
    independent of the Kostant column.
    The Kostant column comes from the pruned orbit walk of
    `kostant_multiplicity`, one walk per row sharing one `PartitionMemo`; no
    Weyl group is built.  The walks run from the last row up: that row is
    the lowest dominant weight, so its ``lam - mu`` is the coordinatewise
    maximum over all rows, and its walk fills the partition table once for
    the whole column.  When the group order exceeds ``cap`` the column is
    skipped, the report is flagged ``oracle_capped``, and each dispatcher
    row is compared with `character`'s telescoped sum instead.
    """
    lam = rs.check_weight(lam)
    report = VerifyReport(system=rs.label(), lam=lam, weyl_order=rs.weyl_order)
    chart = _dispatcher_chart(rs, lam)
    report.oracle_capped = rs.weyl_order > cap
    telescoped = character(rs, lam) if report.oracle_capped else {}

    kostant = {}
    if not report.oracle_capped:
        pmemo = PartitionMemo()
        # lowest row first, so that one fill serves every walk
        for mu in reversed(chart):
            kostant[mu] = kostant_multiplicity(rs, lam, mu, cap, memo=pmemo)

    classical_ctx = MultContext(rs, lam, "classical")
    divergence = None
    for mu, m_auto in chart.items():
        m_classical = freudenthal_classical(classical_ctx, mu)
        m_kostant = kostant.get(mu)
        report.rows.append((mu, m_auto, m_classical, m_kostant))
        if divergence is None:
            if m_classical != m_auto:
                divergence = f"classical disagrees at {mu}: {m_classical} vs {m_auto}"
            elif m_kostant is not None and m_kostant != m_auto:
                divergence = f"kostant disagrees at {mu}: {m_kostant} vs {m_auto}"
            elif report.oracle_capped and telescoped.get(mu) != m_auto:
                divergence = f"character disagrees at {mu}: {telescoped.get(mu)} vs {m_auto}"

    report.dimension_character = sum(
        m * orbit_size(rs, mu) for mu, m in chart.items()
    )
    report.dimension_weyl = weyl_dimension(rs, lam)
    if divergence is None and report.dimension_character != report.dimension_weyl:
        divergence = (
            f"dimension mismatch: {report.dimension_character} vs {report.dimension_weyl}"
        )
    report.first_divergence = divergence
    report.passed = divergence is None
    return report
