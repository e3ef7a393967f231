"""Kostant's partition function, read from one table filled by expanding a product.

``P(gamma)`` counts the ways of writing the root-lattice vector ``gamma`` as
a sum of positive roots with nonnegative integer coefficients.  It is the
coefficient of ``e^{-gamma}`` in the product over the positive roots
``alpha`` of ``1 / (1 - e^{-alpha})``, a vector partition function (Billey,
Guillemin & Rassart, J. Algebra 278, 2004; Cochet, FPSAC 2005).  Multiplying
in one geometric series per root is the coin-change recurrence, which fills
``P`` on a whole box ``0 <= g <= top`` at once:

    P[0] = 1;  for each positive root, for g >= root in increasing order:
        P[g] += P[g - root]

The order of the roots does not matter, and nothing recurses.  The table is
flat and row-major, so ``P[g - root]`` sits a fixed distance ``d`` before
``P[g]``, and the cells ``g >= root`` that share their coordinates before
the root's last nonzero one form one contiguous run.  Each run is added in
slices of at most ``d`` cells, whose sources are all final by then; only a
root with a single nonzero coordinate needs more than one slice per run.
When such a run holds at least ``d`` steps of ``d``, it is filled instead
as ``d`` strided chains ``g, g + d, g + 2d, ...``, each the running sum
(`itertools.accumulate`) of the chain from its cell below the run.

A fill costs ``prod(top_i + 1)`` cells, exponential in the support of
``top``: ``gamma`` of all ones in A16 needs 65,536 cells.  Peeling off one
root at a time with a memo is no cheaper on such inputs; it needed 403,495
entries there.

The counts depend on the root system alone, so each `RootSystem` keeps one
table, which `kostant_multiplicity` (without a memo of its own),
`oracle.verify_module` and the dispatcher's route of rank-2, B3 and C3
pieces read through `_table`, whose docstring gives its life cycle.
`kostant_partition` is the one checked count; Kostant's alternating sum
(`_alternating_sum`) reads a covering table by flat index, with no check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, islice
from math import prod
from operator import add, mul
from typing import Optional, Sequence

from .errors import InexactDivision, NegativeInput, PreconditionViolated
from .rootsys import RootSystem, _difference

__all__ = ["PartitionMemo", "kostant_partition", "verma_multiplicity"]

# The most cells `_fill` allocates, checked before it allocates: above the 2,494,800
# of the Kostant column of E8 (1,0,0,0,0,0,0,0), far below the 2^33 of A33's all ones.
_MAX_CELLS = 1 << 22


@dataclass
class PartitionMemo:
    """``P`` on the box ``0 <= g <= top`` for one root system.

    ``table[sum(g_i * strides[i])]`` is ``P(g)``, so ``len(memo)`` is the
    number of cells, ``prod(top_i + 1)``.  The first `kostant_partition`
    call binds the memo to that system's ``pos_roots`` and fills the box up
    to its ``gamma``; a call on a system with other positive roots raises
    `PreconditionViolated`, and a ``gamma`` outside the box refills the table
    to the box `_grown` gives; one whose own box is over `_MAX_CELLS` raises
    and leaves the table as it was.  A caller's memo is single-owner and
    not thread-shared.  The one a system holds (`_table`) is immutable once
    published: every lookup made on it lies inside its box, so it is never
    refilled.
    """

    table: list = field(default_factory=list, init=False, repr=False)
    top: Optional[tuple] = field(default=None, init=False)
    strides: tuple = field(default=(), init=False)
    roots: Optional[tuple] = field(default=None, init=False, repr=False)

    def __len__(self) -> int:
        return len(self.table)

    def _lookup(self, rs: RootSystem, gamma: tuple) -> int:
        """``P(gamma)`` over ``rs.pos_roots``, filling the table first if needed."""
        if self.roots is None:
            self.roots = rs.pos_roots
        elif self.roots is not rs.pos_roots and self.roots != rs.pos_roots:
            raise PreconditionViolated("this PartitionMemo holds counts for another root system")
        if self.top is None or any(map(int.__gt__, gamma, self.top)):
            top = _grown(self.top, gamma)
            self.table, self.strides = _fill(top, self.roots)
            self.top = top
        return self.table[sum(map(mul, gamma, self.strides))]


def _cells(top: tuple) -> int:
    """The number of cells of the box ``0 <= g <= top``."""
    return prod(t + 1 for t in top)


def _fits(top: tuple) -> bool:
    """Whether the box up to ``top`` fits under `_MAX_CELLS`, read at call time."""
    return _cells(top) <= _MAX_CELLS


def _grown(top: Optional[tuple], c: tuple) -> tuple:
    """The box a table over ``top`` (``None``: no table yet) is refilled to for a ``c`` outside it.

    The coordinatewise maximum of ``c`` and ``top``, or ``c`` alone when
    that is over `_MAX_CELLS`.  The one growth rule of caller memos
    (`PartitionMemo._lookup`) and of the table each system keeps (`_table`).
    """
    merged = c if top is None else tuple(map(max, c, top))
    return merged if _fits(merged) else c


def _table(rs: RootSystem, c: tuple) -> PartitionMemo:
    """``rs``'s shared partition table, first replaced by one whose box covers ``c`` if needed.

    ``rs._partitions`` is ``None`` until first use.  A published table is
    never written into: the new one is filled to the box `_grown` gives,
    whole, before the one store that publishes it, so a walk that took the
    old table at its root keeps reading one consistent table.  A ``c`` whose
    own box is over `_MAX_CELLS` raises `PreconditionViolated` and leaves
    the old table in place.  A walk takes the table once, at its root, whose
    ``c`` bounds every later lookup.
    """
    memo = rs._partitions
    top = None if memo is None else memo.top
    if top is None or any(map(int.__gt__, c, top)):
        memo = PartitionMemo()
        memo._lookup(rs, _grown(top, c))
        rs._partitions = memo
    return memo


def _fill(top: tuple, roots: tuple):
    """The flat row-major table of ``P`` on ``0 <= g <= top``, and its strides.

    Raises `PreconditionViolated` before allocating when the box does not
    fit (`_fits`).  Per root, the runs start at one flat list of head
    offsets; a run no longer than ``d`` is one slice, and a longer one goes
    in chains or blocks as the module docstring says.
    """
    if not _fits(top):
        raise PreconditionViolated(f"a partition table up to {top} needs {_cells(top)} cells, over {_MAX_CELLS}")
    sizes = [t + 1 for t in top]
    strides = [1] * len(top)
    for i in range(len(top) - 1, 0, -1):
        strides[i - 1] = strides[i] * sizes[i]
    table = [0] * prod(sizes)
    table[0] = 1
    for root in roots:
        if any(map(int.__gt__, root, top)):
            continue
        last = max(i for i, r in enumerate(root) if r)
        d = sum(map(mul, root, strides))
        offset = root[last] * strides[last]
        span = sizes[last] * strides[last] - offset
        heads = [offset]
        for i in range(last):
            heads = [h + x * strides[i] for h in heads for x in range(root[i], sizes[i])]
        if span <= d:  # one slice per head; through the block loop the `verify` boxes fill 10-25% slower
            for lo in heads:
                table[lo:lo + span] = map(add, table[lo:lo + span], table[lo - d:lo + span - d])
        elif d * d <= span:  # many steps per run
            # of a root with one nonzero coordinate: any other has d >= strides[last - 1] > span
            for lo in heads:
                hi = lo + span
                for a in range(lo, lo + d):
                    table[a:hi:d] = islice(accumulate(table[a - d:hi:d]), 1, None)
        else:
            for lo in heads:
                hi = lo + span
                for a in range(lo, hi, d):
                    b = min(a + d, hi)
                    table[a:b] = map(add, table[a:b], table[a - d:b - d])
    return table, tuple(strides)


def kostant_partition(rs: RootSystem, gamma: Sequence[int], memo: Optional[PartitionMemo] = None) -> int:
    """Number of decompositions of gamma into positive roots.

    Parameters
    ----------
    rs : RootSystem
    gamma : sequence of int
        Simple-root coordinates: ``rank`` nonnegative integers.
    memo : PartitionMemo, optional
        Table reused across calls on systems with the same positive roots; a
        ``gamma`` inside its box is a lookup.  A throwaway one, filled up to
        ``gamma`` (``prod(gamma_i + 1)`` cells), is created when omitted.
        A table over `_MAX_CELLS` cells raises `PreconditionViolated`.
    """
    gamma = rs.check_weight(gamma)
    if min(gamma, default=0) < 0:
        raise NegativeInput(f"{gamma} has a negative entry")
    return (memo if memo is not None else PartitionMemo())._lookup(rs, gamma)


def _alternating_sum(rs: RootSystem, lam: tuple, c: tuple, memo: PartitionMemo) -> int:
    """``sum over w in W of sign(w) * P(w(lam + rho) - (mu + rho))``, ``c = lam - mu``.

    ``c`` is in root coordinates, and ``memo`` is a partition table whose
    box covers ``c`` (`_table`, or a caller's memo that `kostant_partition`
    has just filled to ``c``); the sum is the multiplicity of ``mu``
    (Kostant's formula).  The orbit of ``v = lam + rho`` is walked
    depth-first as a tree, without building the group: the parent of a
    non-dominant point is its reflection at its smallest negative coordinate
    (reverse search, Avis & Fukuda 1996).  So the children of ``v`` are the
    points ``s_i v`` with ``v_i > 0`` that have no negative coordinate
    before ``i``, each one step longer than its parent, and a point's sign is
    ``(-1)^depth``.  Each point carries ``g``, the root coordinates of ``v -
    (mu + rho)``, and its flat index in ``memo.table``; the step to ``s_i v``
    lowers ``g_i`` by ``v_i`` alone, and so the index by ``v_i *
    memo.strides[i]``, and a child with ``g_i < 0`` is skipped with its
    subtree, which lies lower still.  Every ``g`` lies between 0 and ``c``,
    so every read is a plain index into the box, with no check.  A negative
    total raises `InexactDivision`.  Each ``s_i v`` is `RootSystem.reflect`.
    """
    reflect = rs.reflect
    table, strides = memo.table, memo.strides
    total = 0
    stack = [(tuple(x + 1 for x in lam), c, sum(map(mul, c, strides)), 1)]
    while stack:
        v, g, at, sign = stack.pop()
        total += sign * table[at]
        for i, t in enumerate(v):
            if t <= 0 or g[i] < t:
                continue
            child = reflect(v, i)
            if i and min(child[:i]) < 0:
                continue
            lowered = list(g)
            lowered[i] -= t
            stack.append((child, tuple(lowered), at - t * strides[i], -sign))
    if total < 0:
        raise InexactDivision(f"alternating sum under {lam} went negative at lam - mu = {c}: {total}")
    return total


def verma_multiplicity(
    rs: RootSystem,
    lam: Sequence[int],
    mu: Sequence[int],
    memo: Optional[PartitionMemo] = None,
) -> int:
    """Weight multiplicity of mu inside the Verma module of highest weight lam.

    Equals ``P(lam - mu)``: zero when mu does not lie under lam, and an upper
    bound for the multiplicity in the irreducible quotient otherwise.
    """
    _, _, c = _difference(rs, lam, mu)
    if c is None or min(c, default=0) < 0:
        return 0
    return kostant_partition(rs, c, memo)
