"""Exact weight multiplicities for irreducible highest-weight modules.

The central entry point is `multiplicity`, a dispatcher that shrinks a query
as far as possible before evaluating any recursion:

1. conjugate ``mu`` into the dominant chamber (multiplicities are constant on
   Weyl orbits), which a ``mu`` with no negative coordinate skips;
2. return 0 unless the dominant representative lies under ``lam``;
3. restrict to the Levi subsystem spanned by the support of ``lam - mu``
   (coordinates of the difference outside its support never matter);
4. lower the highest weight: wherever ``c_j <= a_j`` the coordinate ``a_j``
   may be replaced by ``c_j`` without changing the multiplicity;
5. if the reduced problem is simple type A and every coordinate of the
   difference equals one, read the answer off a closed-form product;
6. else if the piece has rank 2, or is B3 or C3 with no ``0 < c_j <= a_j``,
   and ``sum(c) >= 10`` and the partition table up to ``c`` fits under
   `partition._MAX_CELLS` (`_routes`), take Kostant's alternating sum by
   the orbit walk `partition._alternating_sum` over the system's one
   partition table (Humphreys 1972, §24.2), with no sub-query;
7. else if some ``0 < c_j <= a_j``, run the level recursion restricted to
   the positive roots through ``alpha_j`` (no bilinear form needed), with
   one root string per orbit of the reflections at the zero coordinates of
   ``mu`` other than ``j``, which fix ``mu`` and permute those roots;
   otherwise run the classical recursion, with one root string per orbit
   of the stabiliser ``W_mu`` on the positive roots taken up to sign.

Steps 5 and 6 run only under ``auto``, the level recursion of step 7 under
``auto`` and ``fast``.  A piece valued by the alternating sum is not
independent of `oracle.kostant_multiplicity`, which sums by the same walk;
`oracle.verify_module`'s sweep routes as queries do, and its ``classical``
column checks each such row.  Such a piece tallies no `Counters` term.

How the recursions of step 7 take one root string per stabiliser orbit
(Moody and Patera, Bull. AMS 7, 1982) and end each string is told in
`_classical_rhs`, with the orbits from `rootsys._root_orbits`.

A term costs one sub-query and little else.  Each system keeps, per
positive root, its nonzero coordinates and its squared norm, built on
first use (``RootSystem._strings``): the fit of a root is a minimum over
its support only, and the classical sum evaluates the form once per string
along a root ``beta``, then adds ``(beta, beta)`` at each step, since
``(mu + r beta, beta) = (mu, beta) + r (beta, beta)``.  The sub-query calls
`dominant_conjugate` only at a weight with a negative coordinate; two
thirds of the sub-query weights of a typical pass are dominant already.

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
library, so isomorphic pieces share a system.  Each system keeps a plan
per support, so a support that recurs is split only once.  A query has one
context and one memo, keyed by ``(system, highest weight, dominant
weight)``, which the query's system and every piece it reaches share.
Each piece, restricted and lowered, re-enters the dispatcher at step 1
with its system and lowered highest weight: it is conjugated, probed in
the memo under that triple, and restricted and lowered again on its
conjugated coordinates.  So lowering repeats whenever conjugation moves a
weight, and a lowered A1 piece conjugates to its top, with multiplicity 1.
Only a reduction that changes nothing, a simple system with every
coordinate of ``c`` nonzero and none lowered, runs steps 5-7, in place and
at a dominant weight, before any plan is read.  Every recursive sub-query
of step 7 also re-enters at step 1 and strictly decreases the height
of ``lam - mu``; a sub-query that does not raises `PreconditionViolated`.

All arithmetic is exact.  Each recursion ends in one division, by ``dlm``
or by ``c_j``, through `rootsys._exact`, which raises `InexactDivision`
unless the quotient is an exact integer ``>= 0``.  `Counters` tallies the
work so the two recursions can be compared operation-for-operation.

`character` values a whole module without the dispatcher, by Freudenthal's
sum telescoped along its root strings, as its docstring derives.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from itertools import compress
from operator import add, index, itemgetter, le, sub
from sys import getrecursionlimit
from typing import Dict, Optional, Sequence, Tuple

from .errors import (
    NotUnder,
    PreconditionViolated,
    QueryTooDeep,
    WrongType,
    ZeroHighestWeight,
)
from .partition import _alternating_sum, _fits, _table
from .rootsys import (
    RootSystem,
    RootVector,
    Weight,
    _bourbaki,
    _cartan_matrix,
    _components,
    _difference,
    _exact,
    _fit,
    _lattice_coords,
    _root_orbits,
    _sub_cartan,
    _weight_coords,
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
    ``inner_products`` counts the form values the classical sum uses: 2 per
    formula (its denominator ``dlm``) and 1 per nonzero term.  A term's
    value ``(mu + r beta, beta)`` is found by adding ``(beta, beta)`` to the
    previous one rather than by a fresh evaluation, and the count is the
    same either way.  ``cache_hits`` counts sub-queries answered from a
    memo; a grouped sum makes fewer lookups, so it reads fewer hits.  The
    recursions add their terms to these tallies once per formula.
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

    A context checks ``lam`` and the algorithm and starts fresh `Counters`.
    Its one memo maps ``(rs, lam, mu_plus)``, a system, a highest weight and
    a dominant weight, to the multiplicity, which depends on nothing else.
    So the query's own system and every Levi piece its reductions reach,
    restricted and lowered, share the memo and the counters: a piece met
    again, from another parent or another query, is computed once.  A
    context is single-owner while a computation runs.

    It holds no partition table: a piece that `_routes` sends to the
    alternating sum reads the one its system keeps (`partition._table`), so
    the walks on one system share one table across contexts.  Every
    ``auto`` context routes by that one rule, `_dispatcher_chart`'s too.
    """

    def __init__(self, rs: RootSystem, lam, algorithm: str = "auto"):
        lam = rs.check_dominant(lam)
        if algorithm not in ALGORITHMS:
            raise PreconditionViolated(f"unknown algorithm {algorithm!r}")
        self.rs = rs
        self.lam: Weight = lam
        self.algorithm = algorithm
        self.counters = Counters()
        self.memo: Dict[Tuple[RootSystem, Weight, Weight], int] = {}


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
    """dlm for ``gamma = lam - mu`` given in integer simple-root coordinates, unchecked.

    It is the form ``(gamma, 2 (lam + rho) - gamma)``: the weight is
    ``2 (lam + rho)`` less the fundamental-weight coordinates of ``gamma``
    (`rootsys._weight_coords`), paired with ``gamma`` by
    `RootSystem.inner_weight_root`.
    """
    pairing = _weight_coords(rs.columns, gamma)
    return rs.inner_weight_root([2 * (a + 1) - p for a, p in zip(lam, pairing)], gamma)


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
    D and E (E6 nodes 1, 2, 3, 4 form the path 1-3-4-2).  The type is the
    one derived from the Cartan matrix, so a system labelled D3 is the A3
    it names.
    """
    if rs._types != (("A", rs.rank),):
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


def _classical_rhs(ctx: MultContext, rs: RootSystem, lam: Weight, mu_plus: Weight, c: RootVector) -> int:
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
    ends the string.  The form is evaluated once per string and then
    stepped by ``(top, top)``.  The sum is divided by `dlm`, which is
    positive here: it is ``(lam - mu, lam + rho) + (lam - mu, mu + rho)``
    with ``mu`` dominant and ``lam - mu`` a nonzero sum of positive roots.
    """
    zeros = tuple(i for i, x in enumerate(mu_plus) if not x) if ctx.algorithm == "auto" else ()
    height = sum(c)
    roots, roots_f, strings = rs.pos_roots, rs.pos_roots_fundamental, rs._strings
    total = terms = nonzero = 0
    for least, top, size in _root_orbits(rs, zeros)[0]:
        fit = _fit(c, strings[least][0])
        if not fit:
            continue
        root, root_f = roots[top], roots_f[top]
        form, norm = rs.inner_weight_root(mu_plus, root), strings[top][1]
        nu, c_nu = mu_plus, c
        for _ in range(fit):
            nu, c_nu = tuple(map(add, nu, root_f)), tuple(map(sub, c_nu, root))
            form += norm
            terms += 1
            m_nu = _mult(ctx, rs, lam, nu, c_nu, ht_bound=height)
            if not m_nu:
                break
            nonzero += 1
            total += size * m_nu * form
    ctx.counters.classical_terms += terms
    ctx.counters.inner_products += 2 + nonzero
    return _exact(2 * total, _dlm(rs, lam, c), "classical recursion", mu_plus)


def _fast_rhs(ctx: MultContext, rs: RootSystem, lam: Weight, mu: Weight, c: RootVector, j: int) -> int:
    """Level recursion through alpha_j; needs 0 < c_j <= a_j, no bilinear form.

    Sums ``root_j * m(mu + r root)`` over the positive roots through alpha_j
    and ``1 <= r`` up to the `_fit` of ``root``, the largest ``r`` with ``c - r
    root >= 0``, which is at most ``c_j`` because ``root_j >= 1``; a larger
    shift leaves the module and adds 0.  ``mu`` must be a weight of the
    module: then the ``r`` with ``mu + r root`` a weight form an interval
    through 0, and the first zero term ends the string.

    Under ``auto`` the roots are grouped by the orbits of ``W_Z``, with
    ``Z`` the zero coordinates of ``mu`` other than ``j``; ``mu`` need not be
    dominant.  Each ``s_i``, ``i`` in ``Z``, fixes ``mu`` and keeps
    ``root_j``, so every root of an orbit has the same term at each ``r``,
    and an orbit lies wholly through alpha_j or wholly off it.  So the sum
    keeps the orbits through alpha_j of the zero set's table in
    `rootsys._root_orbits` and takes each once at its ``W_Z``-dominant
    highest root, for ``r`` up to the fit of its least one, weighted by its
    size.  The other policies read the table of the empty zero set: each
    root on its own.  ``fast_terms`` tallies ``c_j`` shifts per orbit summed.
    """
    cj = c[j]
    height = sum(c)
    zeros = tuple(i for i, x in enumerate(mu) if not x and i != j) if ctx.algorithm == "auto" else ()
    roots, roots_f, strings = rs.pos_roots, rs.pos_roots_fundamental, rs._strings
    orbits = [row for row in _root_orbits(rs, zeros)[0] if roots[row[1]][j]]
    ctx.counters.fast_terms += cj * len(orbits)
    total = 0
    for least, top, size in orbits:
        root, root_f = roots[top], roots_f[top]
        coef = size * root[j]
        nu, c_nu = mu, c
        for _ in range(_fit(c, strings[least][0])):
            nu, c_nu = tuple(map(add, nu, root_f)), tuple(map(sub, c_nu, root))
            m_nu = _mult(ctx, rs, lam, nu, c_nu, ht_bound=height)
            if not m_nu:
                break
            total += coef * m_nu
    return _exact(total, cj, "level recursion", mu)


def _formula(
    ctx: MultContext, rs: RootSystem, lam: Weight, mu: Weight, c: RootVector, trace: Optional[ReductionTrace]
) -> int:
    """Steps 5-7 on ``rs`` at a dominant ``mu`` strictly under ``lam``; no memo.

    ``c`` holds the root coordinates of ``lam - mu``, not all zero.  One
    chain: the closed form, the choice of level, the alternating sum where
    `_routes` takes the piece, the level recursion, and otherwise the
    classical recursion.  The closed form and the alternating sum run only
    under ``auto``, the level recursion under ``auto`` and ``fast``.  The
    route is decided after the level choice, because on B3 and C3 it takes
    only a piece with no admissible level; the choice has no side effect,
    so a rank-2 piece routes whatever level it has.
    """
    algorithm = ctx.algorithm
    if algorithm == "auto" and rs._types == (("A", rs.rank),) and all(x == 1 for x in c):
        if trace is not None:
            trace.add("type_a_closed", tuple(r + 1 for r, a in enumerate(lam) if a))
        return _closed(rs, lam)
    # the admissible level with the fewest roots through it, the first on a tie
    j = None
    if algorithm != "classical":
        for i, ci in enumerate(c):
            if 0 < ci <= lam[i] and (j is None or len(rs.roots_through[i]) < fewest):
                j, fewest = i, len(rs.roots_through[i])
    # the rule is a helper, so this frame, which every level of the recursion
    # stacks, takes no new local (ROADMAP item 8)
    if algorithm == "auto" and _routes(rs, c, j):
        if trace is not None:
            trace.add("kostant_sum")
        return _alternating_sum(rs, lam, c, _table(rs, c))
    if j is not None:
        if trace is not None:
            trace.add("fast_freudenthal", (j + 1,))
        return _fast_rhs(ctx, rs, lam, mu, c, j)
    if trace is not None:
        trace.add("classical_freudenthal")
    return _classical_rhs(ctx, rs, lam, mu, c)


def _routes(rs: RootSystem, c: RootVector, j: Optional[int]) -> bool:
    """Whether ``auto`` values a piece by Kostant's alternating sum: the route's one rule.

    The piece has rank 2 or is B3 or C3 with no admissible level ``j``,
    ``sum(c) >= 10``, and its box up to ``c`` fits under
    `partition._MAX_CELLS` (`partition._fits`).  The piece is simple
    (`_formula` runs under ``auto`` on one component only), and its type is
    the derived one, ``rs._types``, as for the closed form, never the
    caller's label.  The rule reads ``c`` alone, never the table ``rs``
    already holds, which the walk takes once at its root
    (`partition._table`); a larger box keeps the recursions.

    Below height 10 the recursions are as cheap.  A rank-2 orbit has at
    most 12 points over a 2-D table, a cost of about ``h^2`` in the height
    ``h`` of ``c``, where the recursions grow about as ``h^2.5``-``h^3``.
    On B3 and C3, at most 48 points over a 3-D table and no sub-query, a
    level recursion, where one applies, costs less than filling the box of
    ``prod(c_i + 1)`` cells, and so do the recursions of A3 and of rank 4
    and up on most pieces, where the walk also visits up to ``|W| >= 24``
    points.
    """
    return (
        (rs.rank == 2 or j is None and rs._types in ((("B", 3),), (("C", 3),)))
        and sum(c) >= 10
        and _fits(c)
    )


def _auto_reduce(
    ctx: MultContext, rs: RootSystem, lam: Weight, mu_plus: Weight, c: RootVector, trace: Optional[ReductionTrace]
) -> int:
    """Steps 3-4: Levi restriction, factorisation and lowering, each piece through `_mult`.

    The support of ``c`` is split into its connected Dynkin pieces, ordered
    by smallest node, and the multiplicity is the product over the pieces.
    Each piece is the library system of its Bourbaki type, or ``rs``
    itself when it is all of a simple system (`_plan`).  No two pieces are
    joined by an edge, so ``c`` restricted to a piece, in its system's node
    order, is the root coordinates of the restricted difference.

    A simple system with no zero in ``c`` and no ``a_j > c_j`` is its own
    one piece, lowers nothing and would re-enter unchanged, so the formula
    runs on ``mu_plus``, which `_mult` has just conjugated and probed,
    before the plan is read.  Any other piece, lowered, re-enters `_mult`
    with its system and lowered highest weight, which conjugates it, probes
    the memo under that triple and reduces it again.
    """
    if all(c) and len(rs.components) == 1 and all(map(le, lam, c)):
        return _formula(ctx, rs, lam, mu_plus, c, trace)
    support = tuple(compress(range(rs.rank), c))
    if len(support) < rs.rank and trace is not None:
        trace.add("levi_restrict", tuple(j + 1 for j in support))

    result = 1
    for piece, rs_k, get in _plan(rs, support):
        lam_k, mu_k, c_k = get(lam), get(mu_plus), get(c)
        lam_low, mu_low = _lower(lam_k, mu_k, c_k)
        if lam_low is not lam_k and trace is not None:
            lowered = tuple(i + 1 for i, (a, cj) in enumerate(zip(lam_k, c_k)) if cj <= a)
            trace.add("lower_weight", (lam_k, lam_low, lowered))
        result *= _mult(ctx, rs_k, lam_low, mu_low, c_k, trace)
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
        _LIBRARY[family, rank] = RootSystem(_cartan_matrix(family, rank))
    return _LIBRARY[family, rank]


def _getter(order: tuple) -> itemgetter:
    """``v -> tuple(v[j] for j in order)``; an increasing run is one slice, so one node gives a 1-tuple."""
    start = order[0]
    if order == tuple(range(start, start + len(order))):
        return itemgetter(slice(start, start + len(order)))
    return itemgetter(*order)


def _mult(
    ctx: MultContext,
    rs: RootSystem,
    lam: Weight,
    mu: Weight,
    c: RootVector,
    trace: Optional[ReductionTrace] = None,
    ht_bound: Optional[int] = None,
) -> int:
    """Dispatcher entry for ``mu`` on ``rs`` and ``lam``; every sub-query re-enters here.

    ``c`` holds the integer root coordinates of ``lam - mu``; they are
    conjugated along with ``mu``, so a negative one shows that the dominant
    representative is not under ``lam``.  A ``mu`` with no negative
    coordinate is dominant and skips the call to `dominant_conjugate`.  The
    answer is memoised under ``(rs, lam, mu_plus)``.
    """
    mu_plus = mu
    if mu and min(mu) < 0:
        mu_plus, word, c = dominant_conjugate(rs, mu, c)
        if trace is not None:
            trace.add("weyl_conjugate", word)
    key = rs, lam, mu_plus
    hit = ctx.memo.get(key)
    if hit is not None:
        ctx.counters.cache_hits += 1
        return hit
    if c and min(c) < 0:
        if trace is not None:
            trace.add("zero_by_dominance")
        return 0
    if ht_bound is not None and sum(c) >= ht_bound:
        raise PreconditionViolated(f"recursion must decrease height, not at {mu_plus}")
    if not any(c):
        ctx.memo[key] = 1
        return 1
    m = (_auto_reduce if ctx.algorithm == "auto" else _formula)(ctx, rs, lam, mu_plus, c, trace)
    ctx.memo[key] = m
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
    try:
        return _mult(ctx, rs, ctx.lam, mu, (-1,) * rs.rank if c is None else c, trace)
    except RecursionError:
        raise _too_deep(ctx, mu) from None


def _too_deep(ctx: MultContext, mu: Weight) -> QueryTooDeep:
    """The typed error for a query whose chain of sub-queries overflows the interpreter's stack.

    Each sub-query lowers the height of ``lam - mu`` and costs a few frames,
    so the chain is about as deep as that height.  `character` values every
    dominant weight with no recursion.
    """
    return QueryTooDeep(
        f"the query for {mu} under {ctx.lam} recurses past the interpreter's limit of "
        f"{getrecursionlimit()} frames; character() values every dominant weight without recursion"
    )


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
    try:
        m = _fast_rhs(ctx, rs, ctx.lam, mu, c, j - 1) if min(c_plus) >= 0 else 0
    except RecursionError:
        raise _too_deep(ctx, mu) from None
    ctx.memo[rs, ctx.lam, mu_plus] = m
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
    other weight of the module is visited.  They are valued in increasing
    height of ``lam - mu``, which is also the order of the returned dict, by
    Freudenthal's formula telescoped along its root strings (Humphreys 1972,
    §22.3), with no dispatcher, recursion or context.

    With ``S(nu, beta) = sum_{r >= 1} m(nu + r beta) (nu + r beta, beta)``,
    Freudenthal's formula reads ``dlm * m(mu) = 2 sum_{beta > 0} S(mu,
    beta)``, and each string sum is one term plus a sum already known::

        S(mu, beta) = m(mu + beta) (mu + beta, beta) + S(mu + beta, beta).

    ``m`` and the form are ``W``-invariant, so ``S(nu, beta) = S(w nu, w
    beta)``: the last sum is read at the dominant conjugate ``nu+ = w (mu +
    beta)``, higher than ``mu``, with ``beta`` carried to ``w beta`` along
    the same reflection word.  ``w beta`` is positive: the carried weight
    pairs with the carried coroot to ``<mu + beta, beta^v> = <mu, beta^v> +
    2 >= 2`` at every step, while a step reflects at an ``alpha_i`` that
    pairs negatively, so never at the carried root, and ``s_i`` permutes the
    other positive roots (Humphreys 1972, §10.2).  If ``mu + beta`` is no
    weight, neither is any ``mu + r beta`` (root strings are unbroken), and
    ``S(mu, beta) = 0``.

    ``S(mu, .)`` is constant on each orbit of the stabiliser ``W_mu`` on
    the positive roots taken up to sign (Moody and Patera, Bull. AMS 7,
    1982): ``s_gamma`` in ``W_mu`` fixes ``mu``, and since a whole root
    string sums to 0 (``s_gamma`` reverses it), ``S(mu, -gamma) = m(mu)
    (mu, gamma) + S(mu, gamma)``, which ``(mu, gamma) = 0`` makes read
    ``S(mu, -gamma) = S(mu, gamma)``.  So each weight keeps one ``S`` per
    orbit of `rootsys._root_orbits`, valued at the orbit's top and weighted
    by its size in the formula, and its orbit positions from the same
    grouping pass.  One term per weight and orbit reads only multiplicities
    and sums of higher weights, which are stored already.
    """
    return _character(rs, lam)[0]


def _character(rs: RootSystem, lam) -> Tuple[Dict[Weight, int], Dict[Weight, RootVector]]:
    """``(chart, coords)``: `character`'s chart, and the root coordinates of its weights.

    ``coords`` is `_descent`, so a caller that needs the coordinates of
    ``lam - mu`` solves nothing.  ``sums[mu]`` holds ``S(mu, top)`` per
    orbit of ``W_mu`` and the orbit position of each positive root.
    """
    lam = rs.check_dominant(lam)
    coords = _descent(rs, lam)
    roots, roots_f, strings = rs.pos_roots, rs.pos_roots_fundamental, rs._strings
    root_at = {root_f: idx for idx, root_f in enumerate(roots_f)}
    chart: Dict[Weight, int] = {}
    sums = {}
    for mu, c in coords.items():
        table, positions = _root_orbits(rs, tuple([i for i, x in enumerate(mu) if not x]))
        row, total = [], 0
        for _, top, size in table:
            c_nu = tuple(map(sub, c, roots[top]))
            s = 0
            if min(c_nu) >= 0:  # else mu + top is no weight: not under lam
                nu, beta, g = tuple(map(add, mu, roots_f[top])), roots_f[top], top
                if min(nu) < 0:
                    nu, word, c_nu = dominant_conjugate(rs, nu, c_nu)
                    for i in word:
                        beta = rs.reflect(beta, i - 1)
                    g = root_at[beta]
                if min(c_nu) >= 0:
                    row_nu, position = sums[nu]
                    s = chart[nu] * (rs.inner_weight_root(mu, roots[top]) + strings[top][1]) + row_nu[position[g]]
            row.append(s)
            total += size * s
        sums[mu] = row, positions
        chart[mu] = _exact(2 * total, _dlm(rs, lam, c), "telescoped Freudenthal sum", mu) if any(c) else 1
    return chart, coords


def _descent(rs: RootSystem, lam: Weight) -> Dict[Weight, RootVector]:
    """Each dominant weight ``mu`` under ``lam`` with the root coordinates of ``lam - mu``.

    Found by descent from ``lam`` (see `character`), and ordered by
    increasing height of ``lam - mu``, ties in the order the descent found them.
    From ``nu`` with zero set ``Z`` only the ``least`` root of each row of
    `rootsys._root_orbits` is subtracted, in row order, which is root order.
    Any other root of a row is not ``W_Z``-antidominant, since ``least`` is
    its orbit's one lowest root, nor is a root of zero shape, in the span of
    ``Z``: either way it pairs positively with some ``alpha_i``, ``i`` in
    ``Z``, so ``nu - root`` is negative at ``i``, where ``nu`` is 0, and no
    child is skipped.
    """
    coords = {lam: (0,) * rs.rank}
    stack = [lam]
    roots, roots_f = rs.pos_roots, rs.pos_roots_fundamental
    while stack:
        nu = stack.pop()
        for least, _, _ in _root_orbits(rs, tuple([i for i, x in enumerate(nu) if not x]))[0]:
            child = tuple(map(sub, nu, roots_f[least]))
            if min(child) >= 0 and child not in coords:
                coords[child] = tuple(map(add, coords[nu], roots[least]))
                stack.append(child)
    return {mu: coords[mu] for mu in sorted(coords, key=lambda mu: sum(coords[mu]))}


def _dispatcher_chart(rs: RootSystem, lam) -> Tuple[Dict[Weight, int], Dict[Weight, RootVector]]:
    """``(chart, coords)``: `character`'s chart valued by `_mult` in one context, and `_descent`.

    As in `_character`, ``coords`` holds the root coordinates of each
    ``lam - mu``, so a caller that needs them solves nothing.  The
    sub-queries of each weight lie closer to ``lam``, so they are mostly
    memoised already.  The context routes as a query's does (`_routes`).
    `oracle.verify_module` compares this sweep with the other columns and
    reads its lowest row's box from ``coords``.
    """
    ctx = MultContext(rs, lam)
    coords = _descent(rs, ctx.lam)
    return {mu: _mult(ctx, rs, ctx.lam, mu, c) for mu, c in coords.items()}, coords


def dimension(rs: RootSystem, lam) -> int:
    """Module dimension as the orbit-size-weighted sum of the character.

    Independent of the closed product formula `weyl_dimension`, which makes
    the two a useful cross-check.
    """
    return sum(m * orbit_size(rs, mu) for mu, m in character(rs, lam).items())
