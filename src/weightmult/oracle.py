"""Verification oracle based on the alternating Kostant sum.

Nothing here shares logic with the Freudenthal recursions in `multiplicity`:
weight multiplicities are recomputed as

    m(mu) = sum over w in W of sign(w) * P(w(lam + rho) - (mu + rho))

where ``P`` is the partition count from `partition`.  The sum is the pruned
orbit walk `partition._alternating_sum`, whose docstring gives its parent
rule and its pruning; no group is built.  Each walk makes one checked
`kostant_partition` call, at its root, and reads every other count from
that table.  The dispatcher's ``auto`` policy
values deep rank-2, B3 and C3 pieces by the same walk, so on those pieces
its answer is not independent of this one; `verify_module` checks those
rows by the ``classical`` policy, which, like ``fast``, never reaches it.
`enumerate_weyl` lists the whole group, with matrices, by
the same parent rule over the orbit of ``rho``, level by level.  It and
`kostant_multiplicity` refuse to start when the group order exceeds a cap.
`verify_module` keeps its comparison columns as named dicts and judges them
with one comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from .errors import GroupTooLarge, InvalidType
from .multiplicity import MultContext, _dispatcher_chart, character, freudenthal_classical
from .partition import PartitionMemo, _alternating_sum, _cells, _fits, _table, kostant_partition
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
    """Every Weyl group element, by a breadth-first reverse search over the orbit of ``rho``.

    W acts simply transitively on the orbit of the regular weight ``rho``, so
    the orbit is a tree under the parent rule of `partition._alternating_sum`:
    the children of an image ``v`` are the ``s_i v`` with ``v_i > 0`` and
    no negative coordinate before ``i``.  Each element ``s_i w`` is reached
    once, at its length, level by level; its sign is ``(-1)^length``.  Its
    matrix is the parent's with row ``k`` replaced by ``M[k] - cartan[k][i]
    * M[i]`` for each ``(k, cartan[k][i])`` in ``rs.columns[i]``; every
    other row is shared with the parent.  Elements come in order of length.
    Raises `GroupTooLarge` before doing any work if ``rs.weyl_order`` exceeds
    ``cap``, and `InvalidType` if the walk finds another number of elements
    than ``rs.weyl_order``.
    """
    order = rs.weyl_order
    if order > cap:
        raise GroupTooLarge(order, cap)
    l = rs.rank
    identity = tuple(tuple(int(i == j) for j in range(l)) for i in range(l))
    elements = [WeylElement(identity, 1, 0)]
    frontier = [(rs.rho, identity)]
    depth = 0
    while frontier:
        depth += 1
        parity = -1 if depth % 2 else 1
        nxt = []
        for image, mat in frontier:
            for i, t in enumerate(image):
                if t <= 0:
                    continue
                key = rs.reflect(image, i)
                if i and min(key[:i]) < 0:
                    continue
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

    Checks ``lam`` and ``mu`` and solves ``c = lam - mu``, then raises
    `GroupTooLarge` when the group order exceeds ``cap``.  A ``mu`` not
    under ``lam`` is 0.  Otherwise one call of `kostant_partition` at the
    walk's root, on ``c``, makes the one checked count of the walk: it binds
    and fills a caller's memo to ``c``, keeps every check of the public
    path, and is the count a patched `kostant_partition` sees, once per
    walk.  The pruned orbit walk of `partition._alternating_sum` then reads
    that memo's table directly, since ``c`` bounds every later count.
    Without ``memo`` the table is the one ``rs`` keeps between queries
    (`partition._table`): a box already covered fills nothing, and a larger
    one publishes a new table.  A caller's ``memo`` is used instead and
    refilled in place as needed, so it can be reused across queries against
    one root system.  Either way the walk fills at most once, by
    `partition._grown`, which restarts at ``c`` alone when the merged box is
    over `partition._MAX_CELLS` cells; so only a box up to ``c`` over the
    cap raises `PreconditionViolated`, whatever the system or the caller's
    memo already holds.  ``elements`` is accepted for compatibility and
    ignored, since the walk needs no group.
    """
    lam, mu, c = _difference(rs, lam, mu)
    if rs.weyl_order > cap:
        raise GroupTooLarge(rs.weyl_order, cap)
    if c is None or min(c, default=0) < 0:
        return 0
    if memo is None:
        memo = _table(rs, c)
    # through the module global, so that a patched `kostant_partition` sees each walk
    kostant_partition(rs, c, memo)
    return _alternating_sum(rs, lam, c, memo)


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
    oracle_cells: int = 0  # the lowest row's partition box, when its size skipped the oracle
    passed: bool = False
    first_divergence: Optional[str] = None

    def summary(self) -> str:
        lines = [
            f"module {self.system} lam={list(self.lam)}: "
            f"{len(self.rows)} dominant weights, dim {self.dimension_character}"
        ]
        if self.oracle_cells:
            lines.append(
                f"oracle skipped: its partition table needs {self.oracle_cells} cells, over the cell cap "
                "(dimension, classical and character checks)"
            )
        elif self.oracle_capped:
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
    That sweep routes as a query does, so a row that ``auto`` values by
    the alternating sum shares the Kostant column's walk; the ``classical``
    column, which shares nothing with the walk, checks that row.
    The Kostant column comes from the pruned orbit walk of
    `kostant_multiplicity`, one walk per row, all reading the partition
    table ``rs`` keeps; no Weyl group is built.  The walks run from the last
    row up: that row is the lowest dominant weight, so its ``lam - mu`` is
    the coordinatewise maximum over all rows, and its walk fills the table
    at most once for the whole column, and not at all when the table ``rs``
    holds covers it (the sweep's routed rows may have filled it on a cold
    system).  That ``lam - mu`` is read from the sweep's descent, not
    solved again, so only the Kostant walks solve, once per row.  The
    column is skipped, the report flagged ``oracle_capped``, and each
    dispatcher row compared with `character`'s telescoped sum instead, when
    the group order exceeds ``cap``, or else when the box under that
    ``lam - mu`` is over `partition._MAX_CELLS` cells (`partition._fits`,
    as for the route), whose count ``oracle_cells`` then holds.
    The comparison columns are named dicts, ``classical`` and then
    ``kostant`` or, when that is skipped, ``character``; the first
    divergence, by row and then by column, reads ``"{name} disagrees at
    {mu}: {x} vs {dispatcher}"``.
    """
    lam = rs.check_weight(lam)
    report = VerifyReport(system=rs.label(), lam=lam, weyl_order=rs.weyl_order)
    chart, coords = _dispatcher_chart(rs, lam)
    report.oracle_capped = rs.weyl_order > cap
    if not report.oracle_capped:
        lowest = next(reversed(coords.values()))
        if not _fits(lowest):
            report.oracle_capped = True
            report.oracle_cells = _cells(lowest)
    if report.oracle_capped:
        third = {"character": character(rs, lam)}
    else:  # lowest row first, so that one fill serves every walk
        third = {"kostant": {mu: kostant_multiplicity(rs, lam, mu, cap) for mu in reversed(chart)}}
    classical_ctx = MultContext(rs, lam, "classical")
    columns = {"classical": {mu: freudenthal_classical(classical_ctx, mu) for mu in chart}, **third}
    kostant = columns.get("kostant", {})
    report.rows = [(mu, m, columns["classical"][mu], kostant.get(mu)) for mu, m in chart.items()]
    divergence = next(
        (f"{name} disagrees at {mu}: {column.get(mu)} vs {m}"
         for mu, m in chart.items() for name, column in columns.items() if column.get(mu) != m),
        None,
    )

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
