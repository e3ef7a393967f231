"""Kostant's partition function, computed exactly by recursion with a memo.

``P(gamma)`` counts the ways of writing the root-lattice vector ``gamma`` as
a sum of positive roots with nonnegative integer coefficients.  The recursion
peels off one positive root at a time:

    P(gamma; k) = sum over t >= 0 of P(gamma - t * gamma_k; k - 1)

where ``gamma_k`` runs through the stored positive-root order and
``P(gamma; 0)`` is 1 exactly when gamma = 0.  Results are cached per
``(gamma, k)`` pair inside a caller-owned memo so repeated queries against
one root system share work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import NegativeInput
from .rootsys import RootSystem, is_under

__all__ = ["PartitionMemo", "kostant_partition", "verma_multiplicity"]


@dataclass
class PartitionMemo:
    """Mutable cache for one root system; single-owner, not thread-shared."""

    table: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.table)


def kostant_partition(rs: RootSystem, gamma: Sequence[int], memo: Optional[PartitionMemo] = None) -> int:
    """Number of decompositions of gamma into positive roots.

    Parameters
    ----------
    rs : RootSystem
    gamma : sequence of int
        Simple-root coordinates: ``rank`` nonnegative integers.
    memo : PartitionMemo, optional
        Cache reused across calls; a throwaway one is created when omitted.
    """
    gamma = rs.check_weight(gamma)
    if any(x < 0 for x in gamma):
        raise NegativeInput(f"{gamma} has a negative entry")
    table = (memo if memo is not None else PartitionMemo()).table
    return _count(rs, gamma, len(rs.pos_roots), table)


def _count(rs: RootSystem, gamma: tuple, k: int, table: dict) -> int:
    if not any(gamma):
        return 1
    if k == 0:
        return 0
    key = (gamma, k)
    hit = table.get(key)
    if hit is not None:
        return hit
    root = rs.pos_roots[k - 1]
    total = 0
    rest = gamma
    while True:
        total += _count(rs, rest, k - 1, table)
        rest = tuple(g - r for g, r in zip(rest, root))
        if any(x < 0 for x in rest):
            break
    table[key] = total
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
    lam = rs.check_dominant(lam)
    c = is_under(rs, mu, lam)
    if c is None:
        return 0
    return kostant_partition(rs, c, memo)
