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

A fill costs ``prod(top_i + 1)`` cells, exponential in the support of
``top``: ``gamma`` of all ones in A16 needs 65,536 cells.  Peeling off one
root at a time with a memo is no cheaper on such inputs; it needed 403,495
entries there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from math import prod
from operator import add, mul
from typing import Optional, Sequence

from .errors import NegativeInput, PreconditionViolated
from .rootsys import RootSystem, _difference

__all__ = ["PartitionMemo", "kostant_partition", "verma_multiplicity"]

# The most cells `_fill` allocates, checked before it allocates: above the 2,494,800
# of the Kostant column of E8 (1,0,0,0,0,0,0,0), far below the 2^33 of A33's all ones.
_MAX_CELLS = 1 << 22


@dataclass
class PartitionMemo:
    """``P`` on the box ``0 <= g <= top`` for one root system; single-owner, not thread-shared.

    ``table[sum(g_i * strides[i])]`` is ``P(g)``, so ``len(memo)`` is the
    number of cells, ``prod(top_i + 1)``.  The first `kostant_partition`
    call binds the memo to that system's ``pos_roots`` and fills the box up
    to its ``gamma``; a call on a system with other positive roots raises
    `PreconditionViolated`, and a ``gamma`` outside the box refills the table
    up to the coordinatewise maximum of ``gamma`` and ``top``.
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
        top = self.top
        if top is None or any(map(int.__gt__, gamma, top)):
            top = gamma if top is None else tuple(map(max, gamma, top))
            self.table, self.strides = _fill(top, self.roots)
            self.top = top
        return self.table[sum(map(mul, gamma, self.strides))]


def _fill(top: tuple, roots: tuple):
    """The flat row-major table of ``P`` on ``0 <= g <= top``, and its strides."""
    sizes = [t + 1 for t in top]
    cells = prod(sizes)
    if cells > _MAX_CELLS:
        raise PreconditionViolated(f"a partition table up to {top} needs {cells} cells, over {_MAX_CELLS}")
    strides = [1] * len(top)
    for i in range(len(top) - 1, 0, -1):
        strides[i - 1] = strides[i] * sizes[i]
    table = [0] * cells
    table[0] = 1
    for root in roots:
        if any(map(int.__gt__, root, top)):
            continue
        last = max(i for i, r in enumerate(root) if r)
        d = sum(map(mul, root, strides))
        offset = root[last] * strides[last]
        span = sizes[last] * strides[last] - offset
        for head in product(*map(range, root[:last], sizes[:last])):
            lo = sum(map(mul, head, strides)) + offset
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
    if any(x < 0 for x in gamma):
        raise NegativeInput(f"{gamma} has a negative entry")
    return (memo if memo is not None else PartitionMemo())._lookup(rs, gamma)


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
