"""Independent verification oracle based on the alternating Kostant sum.

Nothing here shares logic with the recursions in `multiplicity`: weight
multiplicities are recomputed as

    m(mu) = sum over w in W of sign(w) * P(w(lam + rho) - (mu + rho))

where ``P`` is the partition count from `partition` and the Weyl group is
enumerated explicitly.  Exponential in the rank, exact, and deliberately
naive; the enumeration refuses to start when the group order exceeds a cap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from .errors import GroupTooLarge, InexactDivision, InvalidType, NotDominant
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


def _det_sign(matrix: tuple) -> int:
    """Sign of the determinant of a small integer matrix (exact elimination)."""
    n = len(matrix)
    mat = [[Fraction(x) for x in row] for row in matrix]
    sign = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if mat[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            sign = -sign
        if mat[col][col] < 0:
            sign = -sign
        inv = Fraction(1) / mat[col][col]
        for r in range(col + 1, n):
            if mat[r][col] != 0:
                f = mat[r][col] * inv
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[col])]
    return sign


def enumerate_weyl(rs: RootSystem, cap: int = DEFAULT_CAP) -> Tuple[WeylElement, ...]:
    """Breadth-first closure of the simple reflections.

    Elements are deduplicated through their action on ``rho`` (the action on
    a regular weight is faithful), parities come from the word length of the
    first visit, and every parity is cross-checked against the sign of the
    matrix determinant.  Raises `GroupTooLarge` before doing any work if the
    table order exceeds ``cap``, and `InvalidType` if a parity or the group
    order disagrees with the tables (a mislabelled system).
    """
    order = rs.weyl_order
    if order > cap:
        raise GroupTooLarge(order, cap)
    l = rs.rank
    identity = tuple(tuple(int(i == j) for j in range(l)) for i in range(l))
    gens = []
    for i in range(l):
        gens.append(
            tuple(
                tuple((1 if k == m else 0) - (rs.cartan[k][i] if m == i else 0) for m in range(l))
                for k in range(l)
            )
        )
    elements = [WeylElement(identity, 1, 0)]
    seen = {rs.rho}
    frontier = [identity]
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for mat in frontier:
            for g in gens:
                prod = tuple(
                    tuple(sum(g[k][t] * mat[t][m] for t in range(l)) for m in range(l))
                    for k in range(l)
                )
                key = tuple(sum(row[j] for j in range(l)) for row in prod)  # image of rho
                if key in seen:
                    continue
                seen.add(key)
                elem = WeylElement(prod, -1 if depth % 2 else 1, depth)
                if _det_sign(prod) != elem.parity:
                    raise InvalidType(f"parity/determinant mismatch at word length {depth}")
                elements.append(elem)
                nxt.append(prod)
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
    lam = rs.check_weight(lam)
    if any(x < 0 for x in lam):
        raise NotDominant(f"{lam} has a negative coordinate")
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
