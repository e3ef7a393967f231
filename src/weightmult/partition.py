"""Kostant's partition function, computed exactly by recursion with a memo.

``P(gamma)`` counts the ways of writing the root-lattice vector ``gamma`` as
a sum of positive roots with nonnegative integer coefficients.  The recursion
peels off one positive root at a time:

    P(gamma; k) = sum over t = 0 .. fit of P(gamma - t * gamma_k; k - 1)

where ``gamma_k`` runs through the stored positive-root order, ``fit`` is the
largest ``t`` with ``gamma - t * gamma_k >= 0``, and ``P(gamma; 0)`` is 1
exactly when gamma = 0.  Results are cached per ``(gamma, k)`` pair inside a
caller-owned memo so repeated queries against one root system share work.  A
key means something only for one positive-root order, so a memo binds to the
``pos_roots`` of its first system and refuses any other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import NegativeInput, PreconditionViolated
from .rootsys import RootSystem, _fit, is_under

__all__ = ["PartitionMemo", "kostant_partition", "verma_multiplicity"]


@dataclass
class PartitionMemo:
    """Mutable cache for one root system; single-owner, not thread-shared.

    The first `kostant_partition` call binds it to that system's
    ``pos_roots``; a call on a system with other positive roots raises
    `PreconditionViolated`.
    """

    table: dict = field(default_factory=dict)
    roots: Optional[tuple] = field(default=None, init=False, repr=False)

    def __len__(self) -> int:
        return len(self.table)

    def _table_for(self, rs: RootSystem) -> dict:
        """The table, after checking that it counts over ``rs.pos_roots``."""
        if self.roots is None:
            self.roots = rs.pos_roots
        elif self.roots is not rs.pos_roots and self.roots != rs.pos_roots:
            raise PreconditionViolated("this PartitionMemo holds counts for another root system")
        return self.table


def kostant_partition(rs: RootSystem, gamma: Sequence[int], memo: Optional[PartitionMemo] = None) -> int:
    """Number of decompositions of gamma into positive roots.

    Parameters
    ----------
    rs : RootSystem
    gamma : sequence of int
        Simple-root coordinates: ``rank`` nonnegative integers.
    memo : PartitionMemo, optional
        Cache reused across calls on systems with the same positive roots;
        a throwaway one is created when omitted.
    """
    gamma = rs.check_weight(gamma)
    if any(x < 0 for x in gamma):
        raise NegativeInput(f"{gamma} has a negative entry")
    table = (memo if memo is not None else PartitionMemo())._table_for(rs)
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
    total = _count(rs, gamma, k - 1, table)
    for _ in range(_fit(gamma, root)):
        gamma = tuple(g - r for g, r in zip(gamma, root))
        total += _count(rs, gamma, k - 1, table)
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
