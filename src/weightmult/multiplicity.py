"""Exact weight multiplicities for irreducible highest-weight modules.

The central entry point is `multiplicity`, a dispatcher that shrinks a query
as far as possible before evaluating any recursion:

1. conjugate ``mu`` into the dominant chamber (multiplicities are constant on
   Weyl orbits);
2. return 0 unless the dominant representative lies under ``lam``;
3. restrict to the Levi subsystem spanned by the support of ``lam - mu``
   (coordinates of the difference outside its support never matter);
4. lower the highest weight: wherever ``c_j <= a_j`` the coordinate ``a_j``
   may be replaced by ``c_j`` without changing the multiplicity;
5. if the reduced problem is simple type A and every coordinate of the
   difference equals one, read the answer off a closed-form product;
6. else if some ``0 < c_j <= a_j``, run the level recursion restricted to
   the positive roots through ``alpha_j`` (no bilinear form needed), with
   one root string per orbit of the reflections at the zero coordinates of
   ``mu`` other than ``j``, which fix ``mu`` and permute those roots;
7. otherwise run the classical recursion, with one root string per orbit
   of the stabiliser ``W_mu`` on the positive roots taken up to sign.

In steps 6 and 7 the terms of one orbit agree, so one root stands for them
all, weighted by the orbit size (Moody and Patera, Bull. AMS 7, 1982).  It
is the orbit's highest root, which the stabiliser cannot raise, so ``mu +
r beta`` mostly stays dominant and its conjugation is cheap; the shift
``r`` runs up to the fit of the orbit's least-height root, which bounds
every nonzero term.  Each root string stops at its first zero term: the
``r`` with ``mu + r beta`` a weight of the module form an interval through
0 (Humphreys 1972, §21.3).  The ``classical`` and ``fast`` policies value
every root on its own, and stop their strings in the same way.

The root coordinates ``c`` of ``lam - mu`` are solved for once per top-level
query and then carried: a summand at ``mu + r alpha`` has ``c - r alpha``,
conjugation updates them along with the weight (`dominant_conjugate` with
``c``), and lowering keeps them.  So step 2 is a sign test, and no sub-query
solves the Cartan system again.  A ``mu`` off ``lam`` plus the root lattice
enters `_mult` like any other weight, with coordinates that have a negative
entry, so the same conjugation and sign test give it multiplicity 0.

Disconnected Levi supports factor the problem: the multiplicity is the
product over the connected pieces of the support, and no product system is
built.  A piece that is all of a simple system stays that system; any other
is read off its Dynkin shape as a Bourbaki type, nodes in Bourbaki order
(`rootsys._bourbaki`), and runs on that type's one system in a process-wide
library, so isomorphic pieces share a system and, within a query, a context
and memo.  Each system keeps a plan per support, so a support that recurs
is split only once.  Each piece, restricted and lowered, re-enters the
dispatcher at step 1 in its own context: it is conjugated, probed in that
context's memo, and restricted and lowered again on its conjugated
coordinates.  So lowering repeats whenever conjugation moves a weight, and
a lowered A1 piece conjugates to its top, with multiplicity 1.  Only a
reduction that changes nothing, the whole system with no coordinate
lowered, runs steps 5-7, in place and at a dominant weight.  Every
recursive sub-query of steps 6 and 7 also re-enters at step 1 and strictly
decreases the height of ``lam - mu``; a sub-query that does not raises
`PreconditionViolated`.

All arithmetic is exact; `Counters` tallies the work so the two recursions
can be compared operation-for-operation.
"""

from __future__ import annotations

import weakref
from dataclasses import asdict, dataclass, field
from itertools import compress
from operator import add, index, itemgetter, le, sub
from typing import Dict, Optional, Sequence, Tuple

from .errors import (
    InexactDivision,
    NotUnder,
    PreconditionViolated,
    WrongType,
    ZeroHighestWeight,
)
from .rootsys import (
    RootSystem,
    RootVector,
    Weight,
    _bourbaki,
    _cartan_matrix,
    _components,
    _difference,
    _fit,
    _lattice_coords,
    _root_orbits,
    _sub_cartan,
    dominant_conjugate,
    is_under,
    orbit_size,
)

__all__ = [
    "ALGORITHMS",
    "Counters",
    "TraceStep",
    "ReductionTrace",
    "MultContext",
    "dlm",
    "freudenthal_classical",
    "fast_freudenthal",
    "lower_highest_weight",
    "levi_restrict",
    "type_a_closed",
    "multiplicity",
    "multiplicity_value",
    "character",
    "dimension",
]

ALGORITHMS = ("auto", "classical", "fast")


@dataclass
class Counters:
    """Work tallies: summand terms per recursion, form evaluations, memo hits.

    ``classical_terms`` counts the pairs ``(r, alpha)`` with ``r alpha <= c``
    that the classical recursion values, over every positive root ``alpha``
    under the ``classical`` and ``fast`` policies and over one
    representative per stabiliser orbit under ``auto``; a root string
    stops at its first zero term, so the shifts past it are not counted.
    ``fast_terms`` counts ``c_j`` times the number of roots the level
    recursion sums, including the shifts that leave the module and are
    skipped: every positive root through ``alpha_j`` under ``fast``, one
    representative per orbit of those roots under ``auto``.
    ``inner_products`` counts bilinear-form evaluations and ``cache_hits``
    sub-queries answered from a memo; a grouped sum makes fewer lookups,
    so it reads fewer hits.
    """

    classical_terms: int = 0
    fast_terms: int = 0
    inner_products: int = 0
    cache_hits: int = 0

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)


@dataclass
class TraceStep:
    """One dispatcher event; ``data`` holds 1-based indices or weight pairs."""

    kind: str
    data: tuple = ()

    def render(self) -> str:
        if not self.data:
            return self.kind
        inner = ",".join(str(x) for x in self.data)
        return f"{self.kind}[{inner}]"


@dataclass
class ReductionTrace:
    """Ordered record of the reductions and formulas applied to one query."""

    steps: list = field(default_factory=list)

    def add(self, kind: str, data: tuple = ()) -> None:
        self.steps.append(TraceStep(kind, data))

    def kinds(self) -> tuple:
        return tuple(step.kind for step in self.steps)

    def render(self) -> str:
        return " -> ".join(step.render() for step in self.steps) or "(none)"


class MultContext:
    """Memoised state for multiplicity queries against one highest weight.

    A context is single-owner while a computation runs.  A top-level context
    checks ``lam`` and the algorithm and starts fresh `Counters`.
    Reductions spawn child contexts (smaller system or lowered highest
    weight) through `child`, which take the counters and the context pool
    of their parent, so diamond-shaped reductions are computed once.  The
    pool lives on the top-level context and the children reach it by a weak
    reference, so they are freed with it, with no cycle.
    """

    def __init__(self, rs: RootSystem, lam, algorithm: str = "auto", *, _parent: Optional["MultContext"] = None):
        if _parent is None:
            lam = rs.check_dominant(lam)
            if algorithm not in ALGORITHMS:
                raise PreconditionViolated(f"unknown algorithm {algorithm!r}")
            self._pool: Dict[tuple, MultContext] = {}
            self._root = weakref.ref(self)
            self.counters = Counters()
        else:
            self._root, self.counters = _parent._root, _parent.counters
            self._root()._pool[(rs, lam)] = self
        self.rs = rs
        self.lam: Weight = lam
        self.algorithm = algorithm
        self.memo: Dict[Weight, int] = {}

    def child(self, rs: RootSystem, lam: Weight) -> "MultContext":
        # keyed by the system object: every proper piece maps to the one
        # library system of its Bourbaki type; no child has the top-level key
        key = (rs, lam)
        got = self._root()._pool.get(key)
        if got is None:
            got = MultContext(rs, lam, self.algorithm, _parent=self)
        return got


# -- the two shifted-form quantities ------------------------------------------


def dlm(rs: RootSystem, lam, mu) -> int:
    """Denominator of the classical recursion: (lam+rho, lam+rho) - (mu+rho, mu+rho).

    Evaluated as ``2 (lam + rho, lam - mu) - (lam - mu, lam - mu)`` with the
    integer symmetrizer; ``mu`` may be any weight with ``lam - mu`` in the
    root lattice (`PreconditionViolated` otherwise).  A zero value certifies
    multiplicity zero for dominant ``mu`` distinct from ``lam``.
    """
    lam, mu, gamma = _difference(rs, lam, mu)
    if gamma is None:
        raise PreconditionViolated(f"{lam} - {mu} is not in the root lattice")
    return _dlm(rs, lam, gamma)


def _dlm(rs: RootSystem, lam: Weight, gamma: Sequence[int]) -> int:
    """dlm for ``lam - mu`` given in integer simple-root coordinates ``gamma``.

    Unchecked: the sum over ``k`` of ``gamma_k d_k (2 (a_k + 1) - <gamma,
    alpha_k^vee>)``, where ``d_k cartan[k][i] = d_i cartan[i][k]`` gives
    ``d_k <gamma, alpha_k^vee>`` from column ``k``.
    """
    d, columns = rs.symmetrizer, rs.columns
    total = 0
    for k, gk in enumerate(gamma):
        if gk:
            pairing = sum(d[i] * a * gamma[i] for i, a in columns[k])
            total += gk * (2 * d[k] * (lam[k] + 1) - pairing)
    return total


# -- reduction operations ------------------------------------------------------


def _checked_difference(rs: RootSystem, lam, mu) -> Tuple[Weight, Weight, RootVector]:
    """Checked ``(lam, mu, c)``: ``lam`` dominant, ``c`` the root coordinates of ``lam - mu``."""
    lam, mu, c = _difference(rs, lam, mu)
    if c is None or min(c, default=0) < 0:
        raise NotUnder(f"{mu} does not lie under {lam}")
    return lam, mu, c


def lower_highest_weight(rs: RootSystem, lam, mu) -> Tuple[Weight, Weight]:
    """Replace (lam, mu) by an equivalent pair with a lower highest weight.

    With ``c = lam - mu`` in root coordinates, every coordinate with
    ``c_j <= a_j`` may be cut down to ``a_j' = c_j`` while subtracting the
    same amount from ``mu``; the multiplicity is unchanged.  The maximal such
    index set is used.  When no coordinate qualifies the pair is returned
    unchanged.
    """
    return _lower(*_checked_difference(rs, lam, mu))


def _lower(lam: Weight, mu: Weight, c: RootVector) -> Tuple[Weight, Weight]:
    """The lowered pair for ``c = lam - mu``: cut each ``a_j`` down to ``c_j``.

    ``mu`` drops by ``lam - lam_low``, so ``lam_low - mu_low`` is still ``c``.
    Where no coordinate drops, the inputs themselves are returned.
    """
    if all(map(le, lam, c)):
        return lam, mu
    lam_low = tuple(map(min, lam, c))
    return lam_low, tuple(map(add, mu, map(sub, lam_low, lam)))


def levi_restrict(rs: RootSystem, lam, mu):
    """Cut the query down to the Levi subsystem carrying ``lam - mu``.

    Returns ``(sub_system, lam_restricted, mu_restricted, indices)`` where
    ``indices`` are the 1-based positions of the kept simple roots (the
    support of ``lam - mu``).  Multiplicities agree with the original query.
    A disconnected support gives a product system; a full support returns
    the inputs unchanged.  The subsystem is built afresh, in support order.
    """
    lam, mu, c = _checked_difference(rs, lam, mu)
    support = tuple(j for j, cj in enumerate(c) if cj)
    lam_j, mu_j = tuple(lam[j] for j in support), tuple(mu[j] for j in support)
    sub = rs if len(support) == rs.rank else RootSystem(_sub_cartan(rs.cartan, support))
    return sub, lam_j, mu_j, tuple(j + 1 for j in support)


def type_a_closed(rs: RootSystem, lam) -> int:
    """Closed form in type A for ``mu = lam - (alpha_1 + ... + alpha_l)``.

    With ``I = {r : a_r != 0} = {r_1 < ... < r_N}`` the multiplicity is 1
    when N = 1 and otherwise the product of ``r_i - r_{i-1} + 1`` over
    consecutive pairs: the interval gaps between active nodes are the only
    data that matter.  Positions ``r`` are counted along the Dynkin path from
    one end, which differs from index order on the type-A Levi components of
    D and E (E6 nodes 1, 2, 3, 4 form the path 1-3-4-2).
    """
    if rs.family_ranks != (("A", rs.rank),):
        raise WrongType(f"closed form needs simple type A, got {rs.label()}")
    lam = rs.check_dominant(lam)
    if not any(lam):
        raise ZeroHighestWeight("closed form undefined for the zero weight")
    return _closed(rs, lam)


def _closed(rs: RootSystem, lam: Weight) -> int:
    """`type_a_closed` unchecked, along the Bourbaki order ``rs`` keeps: ``lam`` nonzero."""
    out, prev = 1, None
    for r, i in enumerate(rs._orders[0]):
        if lam[i]:
            if prev is not None:
                out *= r - prev + 1
            prev = r
    return out


# -- recursion engines ---------------------------------------------------------


def _classical_rhs(ctx: MultContext, mu_plus: Weight, c: RootVector) -> int:
    """Classical recursion at a dominant weight strictly under the top.

    Under ``auto`` the sum runs over the orbits of the stabiliser ``W_mu``
    of ``mu_plus`` on the positive roots taken up to sign, each valued at
    its highest root ``top`` and weighted by its size.  ``m`` and the form
    are ``W``-invariant, and a root that ``W_mu`` sends to ``-gamma`` lies
    with ``gamma`` in the root system of ``W_mu``, where ``s_gamma`` fixes
    ``mu_plus`` and maps ``mu_plus - r gamma`` to ``mu_plus + r gamma``; so
    every root of an orbit has the same term at each ``r``.  ``r`` runs up
    to the fit of the orbit's least root, which covers every nonzero term.
    ``top`` is ``W_mu``-dominant, so ``mu_plus + r top`` is mostly dominant
    already and its conjugation is cheap; its root coordinates may be
    negative before conjugation, which `_mult` handles.  The other policies
    pass the empty zero set: each root is its own orbit of size 1.

    The ``r`` with ``mu_plus + r top`` a weight of the module form an
    interval through 0 (an unbroken root string), so the first zero term
    ends the string.
    """
    rs = ctx.rs
    counters = ctx.counters
    counters.inner_products += 2
    den = _dlm(rs, ctx.lam, c)
    if den == 0:
        return 0
    zeros = tuple(i for i, x in enumerate(mu_plus) if not x) if ctx.algorithm == "auto" else ()
    height = sum(c)
    roots, roots_f = rs.pos_roots, rs.pos_roots_fundamental
    total = 0
    for least, top, size in _root_orbits(rs, zeros):
        root, root_f = roots[top], roots_f[top]
        nu, c_nu = mu_plus, c
        for _ in range(_fit(c, roots[least])):
            nu, c_nu = tuple(map(add, nu, root_f)), tuple(map(sub, c_nu, root))
            counters.classical_terms += 1
            m_nu = _mult(ctx, nu, c_nu, ht_bound=height)
            if not m_nu:
                break
            counters.inner_products += 1
            total += size * m_nu * rs.inner_weight_root(nu, root)
    value, rem = divmod(2 * total, den)
    if rem or value < 0:
        raise InexactDivision(f"classical recursion left remainder at {mu_plus}")
    return value


def _fast_rhs(ctx: MultContext, mu: Weight, c: RootVector, j: int) -> int:
    """Level recursion through alpha_j; needs 0 < c_j <= a_j, no bilinear form.

    Sums ``root_j * m(mu + r root)`` over the positive roots through alpha_j
    and ``1 <= r <= _fit(c, root)``, which is at most ``c_j`` because
    ``root_j >= 1``; a larger shift leaves the module and adds 0.  ``mu``
    must be a weight of the module: then the ``r`` with ``mu + r root`` a
    weight form an interval through 0, and the first zero term ends the
    string.

    Under ``auto`` the roots are grouped by the orbits of ``W_Z``, with
    ``Z`` the zero coordinates of ``mu`` other than ``j``; ``mu`` need not be
    dominant.  Each ``s_i``, ``i`` in ``Z``, fixes ``mu``, and it permutes
    the roots through alpha_j keeping ``root_j``, so every root of an orbit
    has the same term at each ``r``.  The orbit is summed once at its
    ``W_Z``-dominant highest root, for ``r`` up to the fit of its least
    one, and weighted by its size.  The other policies take each root on
    its own.  ``fast_terms`` tallies ``c_j`` shifts per root summed.
    """
    rs = ctx.rs
    cj = c[j]
    height = sum(c)
    zeros = tuple(i for i, x in enumerate(mu) if not x and i != j) if ctx.algorithm == "auto" else ()
    orbits = _root_orbits(rs, zeros, j)
    ctx.counters.fast_terms += cj * len(orbits)
    roots, roots_f = rs.pos_roots, rs.pos_roots_fundamental
    total = 0
    for least, top, size in orbits:
        root, root_f = roots[top], roots_f[top]
        nu, c_nu = mu, c
        for _ in range(_fit(c, roots[least])):
            nu, c_nu = tuple(map(add, nu, root_f)), tuple(map(sub, c_nu, root))
            m_nu = _mult(ctx, nu, c_nu, ht_bound=height)
            if not m_nu:
                break
            total += size * root[j] * m_nu
    if total % cj:
        raise InexactDivision(f"level recursion not divisible by {cj} at {mu}")
    return total // cj


def _formula(ctx: MultContext, mu: Weight, c: RootVector, trace: Optional[ReductionTrace]) -> int:
    """Steps 5-7 at a dominant ``mu`` strictly under ``ctx.lam``; no memo.

    ``c`` holds the root coordinates of ``ctx.lam - mu``, not all zero.  The
    closed form runs only under ``auto``, the level recursion under ``auto``
    and ``fast``, and otherwise the classical recursion.
    """
    rs, lam, algorithm = ctx.rs, ctx.lam, ctx.algorithm
    if algorithm == "auto" and rs.family_ranks == (("A", rs.rank),) and all(x == 1 for x in c):
        if trace is not None:
            trace.add("type_a_closed", tuple(r + 1 for r, a in enumerate(lam) if a))
        return _closed(rs, lam)
    # the admissible level with the fewest roots through it, the first on a tie
    j = None
    if algorithm != "classical":
        for i, ci in enumerate(c):
            if 0 < ci <= lam[i] and (j is None or len(rs.roots_through[i]) < len(rs.roots_through[j])):
                j = i
    if j is not None:
        if trace is not None:
            trace.add("fast_freudenthal", (j + 1,))
        return _fast_rhs(ctx, mu, c, j)
    if trace is not None:
        trace.add("classical_freudenthal")
    return _classical_rhs(ctx, mu, c)


def _auto_reduce(ctx: MultContext, mu_plus: Weight, c: RootVector, trace: Optional[ReductionTrace]) -> int:
    """Steps 3-4: Levi restriction, factorisation and lowering, each piece through `_mult`.

    The support of ``c`` is split into its connected Dynkin pieces, ordered
    by smallest node, and the multiplicity is the product over the pieces.
    Each piece is the library system of its Bourbaki type, or ``ctx.rs``
    itself when it is all of a simple system (`_plan`).  No two pieces are
    joined by an edge, so ``c`` restricted to a piece, in its system's node
    order, is the root coordinates of the restricted difference.

    Each piece, lowered, re-enters `_mult` in the context of its system
    and lowered highest weight, which conjugates it, probes that memo and
    reduces it again.  A piece that is all of ``ctx.rs`` and lowers nothing
    would re-enter unchanged, so the formula runs on ``mu_plus`` in ``ctx``,
    which `_mult` has just conjugated and probed.
    """
    rs, lam = ctx.rs, ctx.lam
    support = tuple(compress(range(rs.rank), c))
    if len(support) < rs.rank and trace is not None:
        trace.add("levi_restrict", tuple(j + 1 for j in support))

    result = 1
    for piece, rs_k, get in _plan(rs, support):
        lam_k, mu_k, c_k = get(lam), get(mu_plus), get(c)
        lam_low, mu_low = _lower(lam_k, mu_k, c_k)
        if lam_low is lam_k:
            if rs_k is rs:
                return _formula(ctx, mu_plus, c, trace)
        elif trace is not None:
            lowered = tuple(i + 1 for i, (a, cj) in enumerate(zip(lam_k, c_k)) if cj <= a)
            trace.add("lower_weight", (lam_k, lam_low, lowered))
        result *= _mult(ctx.child(rs_k, lam_low), mu_low, c_k, trace)
    return result


def _plan(rs: RootSystem, support: tuple) -> tuple:
    """``(piece, rs_k, get)`` per connected piece of the 0-based ``support``, cached on ``rs``.

    Pieces go by smallest node.  A piece that is all of ``rs`` runs on ``rs``; any other on
    its Bourbaki type's library system, and ``get`` reads its nodes in Bourbaki order.
    """
    plan = rs._plans.get(support)
    if plan is None:
        rows = []
        for piece in _components(rs.columns, support):
            order, rs_k = piece, rs
            if len(piece) < rs.rank:
                family, rank, order = _bourbaki(rs.columns, rs.symmetrizer, piece)
                rs_k = _standard(family, rank)
            rows.append((piece, rs_k, _getter(order)))
        plan = rs._plans[support] = tuple(rows)
    return plan


_LIBRARY: Dict[Tuple[str, int], RootSystem] = {}


def _standard(family: str, rank: int) -> RootSystem:
    """The process-wide system of Bourbaki type ``(family, rank)``, built on first use.

    `_LIBRARY` holds root-system data only, at most one system per label some
    piece has had, and never a multiplicity: memos end with their query.
    """
    if (family, rank) not in _LIBRARY:
        _LIBRARY[family, rank] = RootSystem(_cartan_matrix(family, rank), ((family, rank),))
    return _LIBRARY[family, rank]


def _getter(order: tuple) -> itemgetter:
    """``v -> tuple(v[j] for j in order)``; an increasing run is one slice, so one node gives a 1-tuple."""
    start = order[0]
    if order == tuple(range(start, start + len(order))):
        return itemgetter(slice(start, start + len(order)))
    return itemgetter(*order)


def _mult(
    ctx: MultContext,
    mu: Weight,
    c: RootVector,
    trace: Optional[ReductionTrace] = None,
    ht_bound: Optional[int] = None,
) -> int:
    """Dispatcher entry under ``ctx.algorithm``; every sub-query re-enters here.

    ``c`` holds the integer root coordinates of ``ctx.lam - mu``; they are
    conjugated along with ``mu``, so a negative one shows that the dominant
    representative is not under ``lam``.
    """
    mu_plus, word, c = dominant_conjugate(ctx.rs, mu, c)
    if trace is not None and word:
        trace.add("weyl_conjugate", word)
    hit = ctx.memo.get(mu_plus)
    if hit is not None:
        ctx.counters.cache_hits += 1
        return hit
    if min(c, default=0) < 0:
        if trace is not None:
            trace.add("zero_by_dominance")
        return 0
    if ht_bound is not None and sum(c) >= ht_bound:
        raise PreconditionViolated(f"recursion must decrease height, not at {mu_plus}")
    if not any(c):
        ctx.memo[mu_plus] = 1
        return 1
    m = (_auto_reduce if ctx.algorithm == "auto" else _formula)(ctx, mu_plus, c, trace)
    ctx.memo[mu_plus] = m
    return m


def _query(ctx: MultContext, mu, trace: Optional[ReductionTrace] = None) -> int:
    """One top-level query: the root coordinates of ``lam - mu`` once, then `_mult`.

    A ``mu`` outside ``lam`` plus the root lattice enters with ``c`` all -1,
    which conjugation only lowers: it misses the memo, whose keys lie in
    ``lam``'s coset, and `_mult` traces the conjugation and
    ``zero_by_dominance``, as for a dominant representative not under ``lam``.
    """
    rs = ctx.rs
    mu = rs.check_weight(mu)
    c = _lattice_coords(rs, tuple(map(sub, ctx.lam, mu)))
    return _mult(ctx, mu, (-1,) * rs.rank if c is None else c, trace)


# -- public formula surfaces ----------------------------------------------------


def freudenthal_classical(ctx: MultContext, mu) -> int:
    """Multiplicity by the classical recursion alone (the baseline algorithm).

    Conjugates ``mu`` into the dominant chamber, walks the recursion over all
    positive roots, and keeps every sub-query on the classical path, so the
    context counters reflect the unaided algorithm.  The context must have
    been built with ``algorithm="classical"``.
    """
    if ctx.algorithm != "classical":
        raise PreconditionViolated(f"context runs {ctx.algorithm!r}, not 'classical'")
    return _query(ctx, mu)


def fast_freudenthal(ctx: MultContext, mu, c, j: int) -> int:
    """Multiplicity by the level recursion through alpha_j.

    Requires ``c = lam - mu`` in root coordinates with ``0 < c_j <= a_j``
    (1-based ``j``).  Only positive roots containing ``alpha_j`` enter the
    sum, weighted by their alpha_j-coefficient, and no bilinear form is
    evaluated.  Sub-queries are routed back through the dispatcher under the
    context's configured algorithm.  A ``mu`` whose dominant conjugate is
    not under ``lam`` is no weight of the module and gives 0 unsummed.
    """
    rs = ctx.rs
    mu = rs.check_weight(mu)
    c = rs.check_weight(c)
    if c != is_under(rs, mu, ctx.lam):
        raise PreconditionViolated(f"c must equal the root coordinates of lam - mu, got {c}")
    try:
        j = index(j)
    except TypeError:
        raise PreconditionViolated(f"j must be an integer, got {j!r}") from None
    if not 1 <= j <= rs.rank:
        raise PreconditionViolated(f"j must lie in 1..{rs.rank}, got {j}")
    if not 0 < c[j - 1] <= ctx.lam[j - 1]:
        raise PreconditionViolated(
            f"need 0 < c_j <= a_j at j={j}, got c_j={c[j - 1]}, a_j={ctx.lam[j - 1]}"
        )
    # the level recursion stops each root string at its first zero term,
    # which needs mu to be a weight of the module
    mu_plus, _, c_plus = dominant_conjugate(rs, mu, c)
    m = _fast_rhs(ctx, mu, c, j - 1) if min(c_plus) >= 0 else 0
    ctx.memo[mu_plus] = m
    return m


def multiplicity(rs: RootSystem, lam, mu, *, algorithm: str = "auto", ctx: Optional[MultContext] = None):
    """Weight multiplicity of mu in the irreducible module of highest weight lam.

    Returns ``(multiplicity, trace)``; the trace records the reduction
    pipeline of the query and of each Levi piece it splits into: the
    piece's conjugation and its further restrictions and lowerings, up to
    the formula that values it, but not the recursions' sub-queries.  Under
    every policy a query that runs a formula ends its trace in that
    formula's step; ``classical`` and ``fast`` apply no reduction, so
    their trace is the conjugation and the formula alone.
    ``algorithm`` selects the recursion policy:
    ``"auto"`` (full reductions), ``"classical"`` or ``"fast"``.  Passing a
    context reuses its memo and counters; it must have been built for the
    same system, highest weight and algorithm, because the policy is fixed
    when a context is built.
    """
    trace = ReductionTrace()
    m = _query(_context(rs, lam, algorithm, ctx), mu, trace)
    return m, trace


def multiplicity_value(rs: RootSystem, lam, mu, *, algorithm: str = "auto", ctx: Optional[MultContext] = None) -> int:
    """Same as `multiplicity` but without building a trace."""
    return _query(_context(rs, lam, algorithm, ctx), mu)


def _context(rs: RootSystem, lam, algorithm: str, ctx: Optional[MultContext]) -> MultContext:
    """A fresh context, or the caller's after checking that it fits the query."""
    if ctx is None:
        return MultContext(rs, lam, algorithm)
    if ctx.rs is not rs or ctx.lam != rs.check_weight(lam) or ctx.algorithm != algorithm:
        raise PreconditionViolated("context built for another system, highest weight or algorithm")
    return ctx


def character(rs: RootSystem, lam) -> Dict[Weight, int]:
    """All dominant weights of the module with their multiplicities.

    The dominant weights are found by descent from ``lam``: subtract every
    positive root and keep each result with no negative coordinate.  Any
    dominant weight under ``lam`` is reached this way through dominant weights
    only (Stembridge, "The partial order of dominant weights", 1998), so no
    other weight of the module is visited.  All of them are then valued
    through one shared dispatcher context, in increasing height of
    ``lam - mu``, which is also the order of the returned dict, so the
    sub-queries of each weight, which lie closer to ``lam``, are mostly
    memoised already.
    """
    lam = rs.check_dominant(lam)
    coords = {lam: (0,) * rs.rank}  # root coordinates of lam - mu
    stack = [lam]
    while stack:
        nu = stack.pop()
        for root, root_f in zip(rs.pos_roots, rs.pos_roots_fundamental):
            child = tuple(a - b for a, b in zip(nu, root_f))
            if min(child) >= 0 and child not in coords:
                coords[child] = tuple(map(add, coords[nu], root))
                stack.append(child)
    ctx = MultContext(rs, lam)
    order = sorted(coords, key=lambda mu: sum(coords[mu]))
    return {mu: _mult(ctx, mu, coords[mu]) for mu in order}


def dimension(rs: RootSystem, lam) -> int:
    """Module dimension as the orbit-size-weighted sum of the character.

    Independent of the closed product formula `weyl_dimension`, which makes
    the two a useful cross-check.
    """
    return sum(m * orbit_size(rs, mu) for mu, m in character(rs, lam).items())
