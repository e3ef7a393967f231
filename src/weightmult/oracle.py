"""Independent verification oracle based on the alternating Kostant sum.

Nothing here shares logic with the recursions in `multiplicity`: weight
multiplicities are recomputed as

    m(mu) = sum over w in W of sign(w) * P(w(lam + rho) - (mu + rho))

where ``P`` is the partition count from `partition`.  The Weyl group comes
from a breadth-first walk of the simple reflections over the orbit of
``rho``: each orbit point is one element, and its sign is the parity of its
length.  Exact and exponential in the rank (51,840 elements for E6); the
walk refuses to start when the group order exceeds a cap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from .errors import GroupTooLarge, InexactDivision, InvalidType
from .multiplicity import MultContext, character, freudenthal_classical
from .partition import PartitionMemo, kostant_partition
from .rootsys import RootSystem, Weight, is_under, orbit_size, weyl_dimension

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
    the table order exceeds ``cap``, and `InvalidType` if the walk finds
    another group order than the tables (a mislabelled system).
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
        raise InvalidType(f"enumerated {len(elements)} Weyl group elements, table says {order}")
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

    ``elements`` and ``memo`` let a caller reuse the Weyl enumeration and the
    partition cache across many queries against one root system.
    """
    lam = rs.check_dominant(lam)
    mu = rs.check_weight(mu)
    if elements is None:
        elements = enumerate_weyl(rs, cap)
    if memo is None:
        memo = PartitionMemo()
    shifted = tuple(x + 1 for x in lam)
    target = tuple(m + 1 for m in mu)
    total = 0
    for w in elements:
        gamma = is_under(rs, target, w.apply(shifted))
        if gamma is not None:
            total += w.parity * kostant_partition(rs, gamma, memo)
    if total < 0:
        raise InexactDivision(f"alternating sum went negative at {mu}: {total}")
    return total


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
                f"oracle skipped: |W| = {self.weyl_order} exceeds cap (dimension check only)"
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
    The rows follow the order of `character`: increasing height of
    ``lam - mu``, so the first row is ``lam`` itself.
    When the Weyl group exceeds ``cap`` the Kostant column is skipped and the
    report is flagged ``oracle_capped``.
    """
    lam = rs.check_weight(lam)
    report = VerifyReport(system=rs.label(), lam=lam, weyl_order=rs.weyl_order)
    chart = character(rs, lam)

    elements = None
    pmemo = PartitionMemo()
    if rs.weyl_order > cap:
        report.oracle_capped = True
    else:
        elements = enumerate_weyl(rs, cap)

    classical_ctx = MultContext(rs, lam, "classical")
    divergence = None
    for mu, m_auto in chart.items():
        m_classical = freudenthal_classical(classical_ctx, mu)
        m_kostant = None
        if elements is not None:
            m_kostant = kostant_multiplicity(rs, lam, mu, cap, elements=elements, memo=pmemo)
        report.rows.append((mu, m_auto, m_classical, m_kostant))
        if divergence is None:
            if m_classical != m_auto:
                divergence = f"classical disagrees at {mu}: {m_classical} vs {m_auto}"
            elif m_kostant is not None and m_kostant != m_auto:
                divergence = f"kostant disagrees at {mu}: {m_kostant} vs {m_auto}"

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
