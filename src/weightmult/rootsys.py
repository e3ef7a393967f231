"""Exact root-system data for the finite-dimensional semisimple Lie types.

All root data the recursions use is integer (the symmetrizer, the form on
roots); `fractions.Fraction` holds only genuinely rational values, such as
the form on weights.  No floating point appears anywhere.

Conventions
-----------
* Families and ranks follow the Bourbaki tables: A (l >= 1), B (l >= 2),
  C (l >= 2), D (l >= 3), E (l in {6, 7, 8}), F (l = 4), G (l = 2).
  Each table (`_cartan_matrix`) is the path 1 - 2 - ... - l of single
  bonds.  D moves its last edge to join nodes l-2 and l; E moves its first
  two to join 1 with 3 and 2 with 4.  B, C, F and G then lower one entry
  of one bond, ``(row, column, entry)`` with 0-based indices: B
  ``(l-1, l-2, -2)``, C ``(l-2, l-1, -2)``, F ``(2, 1, -2)``, G ``(0, 1, -3)``.
* A *weight* is a tuple of ``l`` integers: coordinates in the basis of
  fundamental weights.  A *root vector* is a tuple of ``l`` integers:
  coordinates in the basis of simple roots.
* ``cartan[i][j] = <alpha_j, alpha_i^vee> = 2 (alpha_j, alpha_i) / (alpha_i,
  alpha_i)``.  With this convention column ``j`` of the Cartan matrix holds
  the fundamental-weight coordinates of the simple root ``alpha_j``.
* The symmetrizer ``d`` consists of positive integers with
  ``d[i] * cartan[i][j]`` symmetric and ``d[i] = (alpha_i, alpha_i) / 2``;
  short roots have squared length 2 inside each simple factor, so every
  ``d[i]`` is 1, 2 or 3.  It is a function of the Cartan matrix.
* Positive roots are found by raising reflections from the simple roots:
  every positive root is reached from a simple root by simple reflections
  ``s_i`` with ``<beta, alpha_i^vee> < 0``, each of which raises it
  (Humphreys, §10.2).  Those pairings are the fundamental-weight
  coordinates of ``beta``, so the same walk yields both coordinate systems.
  The stored order is: simple roots first in index order, then increasing
  height, ties broken lexicographically on coefficients.  A finite system
  of rank ``l`` has at most ``2 l^2`` positive roots, so a walk that finds
  more proves the Cartan matrix is not of finite type.
* No per-type table is read once the Cartan matrix is given.  The
  symmetrizer and that bound on the walk admit exactly the finite types
  (Kac, ch. 4).  A component's Bourbaki label and its nodes in Bourbaki
  order follow from its Dynkin shape and relative root lengths, and the
  Weyl group order is the product of ``e + 1`` over the exponents ``e``,
  the partition dual to the root heights (Kostant 1959).
* Simple-root indices exposed to callers (reflection words, Levi index
  maps) are 1-based, matching the labels alpha_1 .. alpha_l.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cached_property
from itertools import compress
from math import gcd, prod
from operator import index, mul
from typing import Optional, Sequence, Tuple

from .errors import DimensionMismatch, InexactDivision, InvalidType, NotDominant, PreconditionViolated

__all__ = [
    "RootSystem",
    "build_root_system",
    "inner",
    "root_to_weight_coords",
    "weight_to_root_coords",
    "is_under",
    "dominant_conjugate",
    "weyl_dimension",
    "orbit_size",
]

Weight = Tuple[int, ...]
RootVector = Tuple[int, ...]

_RANK_RULES = {
    "A": lambda l: l >= 1,
    "B": lambda l: l >= 2,
    "C": lambda l: l >= 2,
    "D": lambda l: l >= 3,
    "E": lambda l: l in (6, 7, 8),
    "F": lambda l: l == 4,
    "G": lambda l: l == 2,
}


def _cartan_matrix(family: str, rank: int) -> tuple:
    """Bourbaki Cartan matrix, entry [i][j] = <alpha_j, alpha_i^vee>.

    Every connected finite Dynkin diagram is the path 1 - 2 - ... - l of
    single bonds with at most two edges moved and at most one bond made
    multiple (Bourbaki, Planches I-IX).  D moves the last edge to
    ``alpha_{l-2} - alpha_l``; E moves the first two to ``alpha_1 - alpha_3``
    and ``alpha_2 - alpha_4``.  B, C, F and G then set the one entry of
    their multiple bond that is not -1, ``(row, column, entry)`` in ``bonds``:
    alpha_l is short in B and long in C, alpha_1 and alpha_2 are long in F4,
    and alpha_1 is short in G2.
    """
    l = rank
    a = [[0] * l for _ in range(l)]
    for i in range(l):
        a[i][i] = 2
    edges = [(i, i + 1) for i in range(l - 1)]
    if family == "D":
        edges[-1] = (l - 3, l - 1)
    if family == "E":
        edges[:2] = [(0, 2), (1, 3)]
    for i, j in edges:
        a[i][j] = a[j][i] = -1
    bonds = {"B": (l - 1, l - 2, -2), "C": (l - 2, l - 1, -2), "F": (2, 1, -2), "G": (0, 1, -3)}
    if family in bonds:
        i, j, entry = bonds[family]
        a[i][j] = entry
    return tuple(map(tuple, a))


def _components(columns: tuple, nodes: Sequence[int]) -> tuple:
    """Dynkin components of the increasing 0-based ``nodes``, ordered by smallest node."""
    left = set(nodes)
    comps = []
    for start in nodes:
        if start not in left:
            continue
        left.discard(start)
        stack, comp = [start], []
        while stack:
            i = stack.pop()
            comp.append(i)
            for k, _ in columns[i]:
                if k in left:
                    left.discard(k)
                    stack.append(k)
        comps.append(tuple(sorted(comp)))
    return tuple(comps)


def _sub_cartan(cartan: tuple, nodes: Sequence[int]) -> tuple:
    """Cartan matrix of the simple roots at the 0-based ``nodes``, in that order."""
    return tuple(tuple(cartan[i][j] for j in nodes) for i in nodes)


def _weight_coords(columns: tuple, c: Sequence[int]) -> Weight:
    """Fundamental-weight coordinates of ``sum_k c_k alpha_k``, unchecked.

    Column ``k`` of the Cartan matrix holds those of ``alpha_k``, and
    ``columns[k]`` lists its nonzero entries, so only the support of ``c``
    and each node's Dynkin neighbours are visited.
    """
    out = [0] * len(columns)
    for k, ck in enumerate(c):
        if ck:
            for i, a in columns[k]:
                out[i] += ck * a
    return tuple(out)


def _positive_roots(columns: tuple) -> tuple:
    """``(pos_roots, pos_roots_fundamental)`` by raising reflections from the simple roots.

    At a root ``beta`` the pairings ``p_i = <beta, alpha_i^vee>`` are its
    fundamental-weight coordinates; each ``p_i < 0`` gives the higher root
    ``s_i beta = beta - p_i alpha_i``, whose pairings are ``p`` minus ``p_i``
    times column ``i`` of the Cartan matrix, so each root's pairings are
    stepped from those of the root that first reached it.  The roots are
    walked height by height: every root of height ``h`` is found before
    height ``h`` is walked, so sorting each height above the simple roots
    gives the stored order.

    A finite system of rank ``l`` has at most ``2 l^2`` positive roots (E8
    is the tightest, with 120 of 128), while any other symmetrizable Cartan
    matrix has infinitely many positive real roots, all reached by this
    walk (Kac, *Infinite-dimensional Lie algebras*, Prop. 4.9 and §5.1).
    So the walk raises `InvalidType` once the heights walked have found
    more than ``2 l^2`` roots: that is the definiteness check.
    """
    l = len(columns)
    simple = [tuple(int(i == k) for k in range(l)) for i in range(l)]
    pairings = {beta: _weight_coords(columns, beta) for beta in simple}
    heights = [[], simple]  # heights[h]: the roots of height h found so far
    for h, level in enumerate(heights):  # heights grows while it is walked
        if h > 1:
            level.sort()
        for beta in level:
            p = pairings[beta]
            for i, pi in enumerate(p):
                if pi < 0:
                    up = list(beta)
                    up[i] -= pi
                    up = tuple(up)
                    if up not in pairings:
                        q = list(p)
                        for k, a in columns[i]:
                            q[k] -= pi * a
                        pairings[up] = tuple(q)
                        while len(heights) <= h - pi:
                            heights.append([])
                        heights[h - pi].append(up)
        if len(pairings) > 2 * l * l:
            raise InvalidType("symmetrized Cartan matrix is not positive definite")
    ordered = tuple(beta for level in heights for beta in level)
    return ordered, tuple(map(pairings.__getitem__, ordered))


def _group_order(roots) -> int:
    """Order of the Weyl group of a finite root system, from its positive roots.

    With ``m_h`` roots of height ``h``, exactly ``m_h - m_{h+1}`` exponents
    equal ``h`` (Kostant 1959), and the order is the product of ``e + 1``
    over the exponents ``e``.  Both counts add over the simple factors, so
    products need no special case.
    """
    counts = Counter(map(sum, roots))
    order = 1
    for h, m in counts.items():
        order *= (h + 1) ** (m - counts[h + 1])
    return order


def _bourbaki(columns: tuple, d: tuple, piece: tuple) -> tuple:
    """``(family, rank, order)`` of a connected finite-type ``piece``, read off its Dynkin shape.

    ``order`` lists the increasing ``piece`` so that ``_sub_cartan(cartan, order) ==
    _cartan_matrix(family, rank)``.  A fork with arms 1, 1, n-3 is D; with 1, 2, n-4, E.
    A path of equal lengths is A, read from its smaller end.  On two nodes a length ratio
    of 3 is G2, short node first; else the given order is B2 or C2.  A longer path starts
    at the end whose length most nodes share, long on a tie: one short node makes B, one
    long node C, else F.  ``d`` may be a larger system's symmetrizer: compare inside.
    """
    inside, n = set(piece), len(piece)
    links = {i: [k for k, _ in columns[i] if k in inside and k != i] for i in piece}
    fork = next((i for i in piece if len(links[i]) == 3), None)
    if fork is not None:
        # arms from the fork, longest first; ties keep the order of the fork's neighbours
        far, mid, one = sorted((_arm(links, fork, k) for k in links[fork]), key=len, reverse=True)
        if len(mid) == 1:
            return "D", n, (*far[::-1], fork, *mid, *one)
        if len(far) == 2:  # E6: the first arm of length 2 carries alpha_3 and alpha_1
            far, mid = mid, far
        return "E", n, (mid[1], one[0], mid[0], fork, *far)
    end = next(i for i in piece if len(links[i]) < 2)
    path = [end, *_arm(links, end, links[end][0])] if n > 1 else [end]
    lengths = [d[i] for i in path]
    long = max(lengths)
    n_long = lengths.count(long)
    if n_long == n:
        return "A", n, tuple(path)
    if n == 2:
        family = "G" if long == 3 * min(lengths) else "B" if lengths[1] < long else "C"
        flip = family == "G" and lengths[0] == long
    else:
        family = "B" if n_long == n - 1 else "C" if n_long == 1 else "F"
        flip = (lengths[0] == long) != (2 * n_long >= n)
    return family, n, tuple(path[::-1] if flip else path)


def _arm(links: dict, prev: int, node: int) -> list:
    """The nodes from ``node`` to the end of its Dynkin arm, walking away from its neighbour ``prev``."""
    arm = [node]
    while len(links[node]) == 2:
        a, b = links[node]
        prev, node = node, b if a == prev else a
        arm.append(node)
    return arm


class RootSystem:
    """One (possibly product) root system.

    An instance holds immutable root data plus six caches, filled on
    demand and described where they are filled: ``_orbits``
    (`_root_orbits`), ``_stabilisers`` (`orbit_size`), ``_plans``
    (`multiplicity._plan`), ``_strings``, ``_forest`` and ``_partitions``
    (`partition._table`).
    ``_types`` holds each component's derived ``(family, rank)`` and
    ``_orders`` its nodes in Bourbaki order.  The root
    data is fully built in ``__init__``, and no cache holds a value that
    depends on a module or a query, so a single object may be shared freely
    across contexts and queries.  No nested `RootSystem` is built for the
    simple factors; ``components`` and ``family_ranks`` describe them.
    ``columns[i]`` lists the pairs ``(k, cartan[k][i])`` with a nonzero
    entry in increasing ``k``: node ``i`` and its Dynkin neighbours.

    Build order: the symmetrizer, which rejects a non-symmetrizable matrix;
    the positive roots, whose walk rejects one that is not positive
    definite once it finds more than ``2 l^2`` roots; the Weyl group order
    from their heights; and last each component's label (`_bourbaki`), on a
    diagram now known to be of finite type.  A caller's
    ``family_ranks`` must equal those derived labels, one pair per component
    in component order, except that ``("D", 3)`` may name an A3 component
    (Bourbaki's D3 is A3); anything else raises `InvalidType`.
    """

    def __init__(self, cartan, family_ranks=None):
        try:
            cartan = tuple(tuple(map(index, row)) for row in cartan)
        except TypeError:
            raise InvalidType(f"Cartan entries must be integers, got {cartan!r}") from None
        l = len(cartan)
        for row in cartan:
            if len(row) != l:
                raise InvalidType("Cartan matrix must be square")
        for i in range(l):
            if cartan[i][i] != 2:
                raise InvalidType("Cartan diagonal must be 2")
            for j in range(l):
                if i != j:
                    if cartan[i][j] not in (0, -1, -2, -3):
                        raise InvalidType("off-diagonal Cartan entries must lie in {0,-1,-2,-3}")
                    if (cartan[i][j] == 0) != (cartan[j][i] == 0):
                        raise InvalidType("Cartan zero pattern must be symmetric")

        self.rank: int = l
        self.cartan: tuple = cartan
        self.columns: tuple = tuple(
            tuple((k, cartan[k][i]) for k in range(l) if cartan[k][i]) for i in range(l)
        )
        self.components: tuple = _components(self.columns, range(l))
        self.symmetrizer: tuple = self._solve_symmetrizer()
        self.rho: Weight = (1,) * l

        self.pos_roots, self.pos_roots_fundamental = _positive_roots(self.columns)
        # roots grouped by the simple coordinate they contain: index lists into pos_roots,
        # read off each coefficient column of the roots in one transposition
        idx = range(len(self.pos_roots))
        self.roots_through: tuple = tuple(tuple(compress(idx, col)) for col in zip(*self.pos_roots))
        self.weyl_order: int = _group_order(self.pos_roots)
        self._orbits: dict = {}
        self._stabilisers: dict = {}
        self._plans: dict = {}
        self._partitions = None

        labels = [_bourbaki(self.columns, self.symmetrizer, comp) for comp in self.components]
        self._types: tuple = tuple((family, rank) for family, rank, _ in labels)
        self._orders: tuple = tuple(order for _, _, order in labels)
        if family_ranks is None:
            family_ranks = self._types
        else:
            try:
                family_ranks = tuple((str(f), index(r)) for f, r in family_ranks)
            except (TypeError, ValueError):
                raise InvalidType(
                    f"family_ranks must be (family, integer rank) pairs, got {family_ranks!r}"
                ) from None
            if len(family_ranks) != len(self._types):
                raise InvalidType("family_ranks must list one pair per component")
            for given, found in zip(family_ranks, self._types):
                if given != found and (given, found) != (("D", 3), ("A", 3)):
                    raise InvalidType(f"{given} does not label a component of type {found}")
        self.family_ranks: tuple = family_ranks

    # -- construction helpers -------------------------------------------------

    def _solve_symmetrizer(self) -> tuple:
        """Positive integers d with d_i a_ij = d_j a_ji, short roots at length^2 = 2.

        Each component is walked over its Dynkin edges from its smallest
        node.  Where ``d_i a_ij`` is not a multiple of ``a_ji`` the values set
        so far are scaled by ``|a_ji|``; at the end the component is divided
        by its gcd, which leaves a 1 on every finite type.
        """
        d = [0] * self.rank
        for comp in self.components:
            d[comp[0]] = 1
            stack = [comp[0]]
            while stack:
                i = stack.pop()
                for j, a_ji in self.columns[i]:
                    a_ij = self.cartan[i][j]
                    if d[j]:
                        if d[i] * a_ij != d[j] * a_ji:
                            raise InvalidType("Cartan matrix is not symmetrizable")
                        continue
                    if d[i] * a_ij % a_ji:
                        for k in comp:
                            d[k] *= -a_ji
                    d[j] = d[i] * a_ij // a_ji
                    stack.append(j)
            g = gcd(*(d[k] for k in comp))
            for k in comp:
                d[k] //= g
        return tuple(d)

    # -- small exact helpers used across the package --------------------------

    def check_weight(self, v: Sequence[int]) -> Weight:
        """``v`` as ``rank`` ints; a non-integer coordinate raises, never truncates."""
        try:
            v = tuple(map(index, v))
        except TypeError:
            raise PreconditionViolated(f"coordinates must be integers, got {v!r}") from None
        if len(v) != self.rank:
            raise DimensionMismatch(f"expected {self.rank} coordinates, got {len(v)}")
        return v

    def check_dominant(self, v: Sequence[int]) -> Weight:
        """`check_weight`, and `NotDominant` on a negative coordinate."""
        v = self.check_weight(v)
        if any(x < 0 for x in v):
            raise NotDominant(f"{v} has a negative coordinate")
        return v

    def inner_weight_root(self, v: Weight, c: Sequence[int]) -> int:
        """(v, gamma) for a weight v and gamma = sum_k c_k alpha_k."""
        return sum(map(mul, map(mul, v, c), self.symmetrizer))

    def norm_root(self, c: Sequence[int]) -> int:
        """(gamma, gamma) for gamma given in simple-root coordinates."""
        return self.inner_weight_root(root_to_weight_coords(self, c), c)

    def reflect(self, v: Weight, i: int) -> Weight:
        """Simple reflection s_i(v) = v - <v, alpha_i^vee> alpha_i (0-based i)."""
        t = v[i]
        if t == 0:
            return v
        out = list(v)
        for k, a in self.columns[i]:
            out[k] -= t * a
        return tuple(out)

    @cached_property
    def _forest(self) -> tuple:
        """``(scale, steps)``: the leaf-first elimination of each Dynkin tree, built on the first solve.

        ``steps`` lists ``(k, p, h, g, d)`` per node in breadth-first order from
        each tree's smallest node, with ``p`` the parent (``k`` at a root, where
        ``h = g = 0``).  With the children ``j`` of ``k`` eliminated, row ``k``
        of ``cartan c = v`` reads ``D_k c_k + g_k c_p = R_k``: ``E_k = scale[k]``
        is the product of the children's ``D_j``, ``h_j = a_kj E_k / D_j``,
        ``R_k = E_k v_k - sum_j h_j R_j``, ``g_k = E_k a_kp`` and ``D_k = d = 2
        E_k - sum_j h_j g_j``, the determinant of the subtree at ``k``.  All are
        integers, and each ``D_k`` is positive: the subtree is of finite type.
        """
        cartan, l = self.cartan, self.rank
        parent = {comp[0]: comp[0] for comp in self.components}
        order, kids = list(parent), {}
        for k in order:  # order grows while it is walked
            kids[k] = [j for j, _ in self.columns[k] if j not in parent]
            parent.update(dict.fromkeys(kids[k], k))
            order += kids[k]
        scale, det, h, g = [0] * l, [0] * l, [0] * l, [0] * l
        for k in reversed(order):  # children first
            scale[k] = prod(det[j] for j in kids[k])
            det[k] = 2 * scale[k]
            for j in kids[k]:
                h[j], g[j] = cartan[k][j] * (scale[k] // det[j]), scale[j] * cartan[j][k]
                det[k] -= h[j] * g[j]
        return tuple(scale), tuple((k, parent[k], h[k], g[k], det[k]) for k in order)

    @property
    def cartan_det(self) -> int:
        """The determinant of the Cartan matrix: the product of the ``D`` at each tree's root."""
        return prod(d for k, p, _, _, d in self._forest[1] if k == p)

    @cached_property
    def _strings(self) -> tuple:
        """``(pairs, norm)`` per positive root in the stored order, built on first use.

        ``pairs`` lists the ``(k, root_k)`` with ``root_k != 0``, so the largest
        ``r`` with ``c - r * root >= 0``, for ``c >= 0``, is the least ``c[k] //
        root_k`` over them (`_fit`).  ``norm`` is ``(root, root)``, the step of ``(mu + r
        root, root)`` in ``r``.  The recursions read both once per root string,
        and `_root_orbits` reads the norms.
        """
        nodes = range(self.rank)
        return tuple(
            (tuple(zip(compress(nodes, root), compress(root, root))), self.inner_weight_root(root_f, root))
            for root, root_f in zip(self.pos_roots, self.pos_roots_fundamental)
        )

    def label(self) -> str:
        return "x".join(f"{f}{r}" for f, r in self.family_ranks) or "trivial"

    def __repr__(self) -> str:  # pragma: no cover
        return f"RootSystem({self.label()})"


def build_root_system(family: str, rank: int) -> RootSystem:
    """Construct the simple root system of the given family and rank.

    Parameters
    ----------
    family : str
        One of "A".."G" (case-insensitive).
    rank : int
        Rank, subject to the usual restrictions (A: l>=1, B/C: l>=2, D: l>=3,
        E: 6..8, F: 4, G: 2).

    Raises
    ------
    InvalidType
        If (family, rank) lies outside the table.
    """
    family = str(family).upper()
    rule = _RANK_RULES.get(family)
    if rule is None or not isinstance(rank, int) or not rule(rank):
        raise InvalidType(f"({family}, {rank}) is not a finite simple type")
    return RootSystem(_cartan_matrix(family, rank), ((family, rank),))


def inner(rs: RootSystem, v: Sequence[int], w: Sequence[int]) -> Fraction:
    """Invariant bilinear form (v, w) of two weights.

    Both arguments are fundamental-weight coordinate tuples, ``v`` checked
    first; the result is `RootSystem.inner_weight_root` of ``v`` against
    `weight_to_root_coords` of ``w``, an exact rational.
    """
    return Fraction(rs.inner_weight_root(rs.check_weight(v), weight_to_root_coords(rs, w)))


def root_to_weight_coords(rs: RootSystem, c: Sequence[int]) -> Weight:
    """Rewrite gamma = sum c_k alpha_k in fundamental-weight coordinates."""
    return _weight_coords(rs.columns, rs.check_weight(c))


def _exact(num: int, den: int, what: str, at) -> int:
    """``num // den``, which must be an exact integer ``>= 0`` with ``den > 0``.

    Anything else raises `InexactDivision`, whose message names the quotient
    ``what`` and the weight ``at``.  It is built only then, since this runs
    once per recursion formula.
    """
    if den > 0:
        q, rem = divmod(num, den)
        if not rem and q >= 0:
            return q
    raise InexactDivision(f"{what} at {at}: {num}/{den} is not a non-negative integer")


def _fit(c: Sequence[int], pairs: tuple) -> int:
    """The largest ``r`` with ``c - r * root >= 0``, for ``c >= 0`` and a positive root.

    ``pairs`` is the root's ``(k, root_k)`` support from ``RootSystem._strings``: both are in
    simple-root coordinates, so only the support of ``root`` bounds ``r``.
    """
    return min([c[k] // rk for k, rk in pairs])


def _root_orbits(rs: RootSystem, zeros: tuple) -> tuple:
    """``(table, positions)``: the orbits of ``W_Z`` on the positive roots taken up to sign.

    ``table`` holds ``(least, top, size)`` per orbit and ``positions`` the
    position in ``table`` of each positive root's orbit.  ``W_Z`` is
    generated by the simple reflections at the increasing 0-based
    ``zeros``, the stabiliser of a dominant weight whose zero coordinates
    they are.  The *shape* of a root is its coefficients off ``Z``.  Two
    positive roots are ``W_Z``-conjugate up to sign exactly when they have
    the same shape and the same length and, where the shape is zero, lie in
    the same component of ``Z``, so the orbits are read off in one grouping
    pass.  One way round: a generator ``s_i``, ``i`` in ``Z``, changes only
    coefficient ``i`` and keeps the length, and a root of zero shape has a
    connected support inside ``Z``, which ``s_i`` keeps in its component, so
    an orbit never leaves its class.  The converse is the cited fact: roots
    of one length in an irreducible system are conjugate (Humphreys, §10.4),
    which settles the zero shape, and the roots of one nonzero shape and one
    length form one ``W_Z``-orbit (Azad, Barry and Seitz, Comm. Algebra 18
    (1990)); the tests check it against a walk over the reflections.

    ``least`` and ``top`` index the orbit's first and last root in the
    stored order, which never decreases in height: ``least`` has the least
    height and ``top`` the greatest.  No ``s_i``, ``i`` in ``Z``, raises
    ``top``, so its pairing with every such ``alpha_i`` is >= 0 (it is
    ``W_Z``-dominant and the only root of its height in the orbit), and
    ``top - least`` is a nonnegative combination of those ``alpha_i``.  The
    orbits follow the order of their ``least``; the empty ``zeros`` gives
    ``(idx, idx, 1)`` for every root.  For ``j`` outside ``Z`` the shape
    holds the ``alpha_j`` coefficient, so the orbits through ``alpha_j`` are
    the rows whose ``top`` has it nonzero.  The pair is cached on ``rs`` by
    ``zeros`` in ``rs._orbits``.
    """
    cached = rs._orbits.get(zeros)
    if cached is not None:
        return cached
    component = {i: comp for comp in _components(rs.columns, zeros) for i in comp}
    off = [i for i in range(rs.rank) if i not in component]
    roots, strings = rs.pos_roots, rs._strings
    groups = {}
    for idx, root in enumerate(roots):
        shape = tuple([root[i] for i in off])
        pairs, norm = strings[idx]
        groups.setdefault((shape, norm, any(shape) or component[pairs[0][0]]), []).append(idx)
    positions = [0] * len(roots)
    for pos, group in enumerate(groups.values()):
        for idx in group:
            positions[idx] = pos
    table = tuple((group[0], group[-1], len(group)) for group in groups.values())
    cached = rs._orbits[zeros] = table, positions
    return cached


def weight_to_root_coords(rs: RootSystem, v: Sequence[int]) -> tuple:
    """Rewrite a weight in simple-root coordinates; entries are exact rationals.

    The Cartan matrix is invertible and ``det v`` lies on the root lattice, so
    ``det v`` is solved; integrality and nonnegativity are judged by `is_under`.
    """
    det = rs.cartan_det
    return tuple(Fraction(num, det) for num in _lattice_coords(rs, [det * x for x in rs.check_weight(v)]))


def _lattice_coords(rs: RootSystem, v: Sequence[int]) -> Optional[RootVector]:
    """Integer simple-root coordinates of the weight v, or None off the root lattice.

    One pass of ``rs._forest`` leaves first and one parents first: each ``c_k`` is
    exact once its parent's is, so the first remainder shows ``v`` off the lattice.
    """
    scale, steps = rs._forest
    r = list(map(mul, scale, v))
    for k, p, h, _, _ in reversed(steps):
        r[p] -= h * r[k]
    for k, p, _, g, d in steps:
        r[k], rem = divmod(r[k] - g * r[p], d)
        if rem:
            return None
    return tuple(r)


def is_under(rs: RootSystem, mu: Sequence[int], lam: Sequence[int]) -> Optional[RootVector]:
    """Root coordinates of lam - mu when mu lies under lam, else None.

    "Under" means lam - mu is a nonnegative *integer* combination of simple
    roots; the zero vector is returned when mu == lam.
    """
    mu = rs.check_weight(mu)
    lam = rs.check_weight(lam)
    c = _lattice_coords(rs, tuple(a - m for a, m in zip(lam, mu)))
    return c if c is not None and all(x >= 0 for x in c) else None


def _difference(rs: RootSystem, lam: Sequence[int], mu: Sequence[int]) -> tuple:
    """Checked ``(lam, mu, c)``: ``lam`` dominant, ``mu`` a weight, each checked once.

    ``c`` holds the integer root coordinates of ``lam - mu``, of either
    sign, or is None off the root lattice; ``mu`` lies under ``lam`` exactly
    when ``c`` is not None and has no negative entry.
    """
    lam = rs.check_dominant(lam)
    mu = rs.check_weight(mu)
    return lam, mu, _lattice_coords(rs, tuple(a - m for a, m in zip(lam, mu)))


def dominant_conjugate(rs: RootSystem, mu: Sequence[int], c: Optional[Sequence[int]] = None) -> tuple:
    """Dominant Weyl-orbit representative of mu plus the reflection word.

    Returns ``(mu_plus, word)`` with 1-based ``word = (i1, i2, ...)`` such
    that applying ``s_{i1}``, then ``s_{i2}``, ... to ``mu`` yields
    ``mu_plus``.  A ``mu`` with no negative coordinate is returned as it is,
    with the empty word, and nothing is copied.  Otherwise each step
    reflects at the smallest negative coordinate, which strictly raises the
    weight in the dominance order, so the loop terminates with the unique
    dominant representative.  A reflection at ``i`` changes only the
    coordinates in ``rs.columns[i]``, so the scan for the next negative
    coordinate resumes at the first of them.

    Given ``c``, the integer root coordinates of ``lam - mu`` for some
    ``lam``, the result is ``(mu_plus, word, c_plus)`` with ``c_plus`` those
    of ``lam - mu_plus``: a reflection at ``i`` with ``t = mu_i < 0`` adds
    ``-t alpha_i`` to the weight, so it adds ``t`` to ``c_i``.  Then
    ``mu_plus`` lies under ``lam`` exactly when ``min(c_plus) >= 0``, with
    no solve.  This is the form the multiplicity recursion calls, with
    ``mu`` and ``c`` built from checked integer tuples, so only their
    lengths are checked here, before anything else.  The recursion calls it
    only at a weight with a negative coordinate: at any other weight it
    would return its inputs unchanged.  Without ``c``, ``mu`` is checked and
    the same loop runs with ``c = 0``, whose ``c_plus`` is dropped.  Every
    returned sequence is a tuple.
    """
    if c is None:
        return dominant_conjugate(rs, rs.check_weight(mu), (0,) * rs.rank)[:2]
    n = rs.rank
    if len(mu) != n or len(c) != n:
        raise DimensionMismatch(f"expected {n} coordinates in mu and c")
    i = 0
    while i < n and mu[i] >= 0:
        i += 1
    if i == n:
        return tuple(mu), (), tuple(c)
    # i is the first negative coordinate; copy only now that one is reflected
    v, c = list(mu), list(c)
    columns = rs.columns
    word = []
    while i < n:
        t = v[i]
        if t < 0:
            for k, a in columns[i]:
                v[k] -= t * a
            c[i] += t
            word.append(i + 1)
            i = columns[i][0][0]
        else:
            i += 1
    return tuple(v), tuple(word), tuple(c)


def weyl_dimension(rs: RootSystem, lam: Sequence[int]) -> int:
    """Dimension of the irreducible module of highest weight lam.

    Evaluates the product over positive roots of (lam + rho, alpha) /
    (rho, alpha) as one exact integer division of the two products.
    """
    lam = rs.check_dominant(lam)
    shifted = tuple(x + 1 for x in lam)
    num = den = 1
    for root in rs.pos_roots:
        num *= rs.inner_weight_root(shifted, root)
        den *= rs.inner_weight_root(rs.rho, root)
    return _exact(num, den, "Weyl dimension product", lam)


def orbit_size(rs: RootSystem, mu: Sequence[int]) -> int:
    """Size of the Weyl orbit of a dominant weight.

    The stabiliser of a dominant weight is the parabolic subgroup generated
    by the reflections at its zero coordinates.  Its positive roots are those
    that pass through no node ``k`` with ``mu_k > 0``, read off
    ``rs.roots_through``, and its order comes from their heights as for the
    whole group; the size is the quotient of the two orders.  The order is
    computed the first time its zero set is seen and cached on ``rs`` by
    that set in ``rs._stabilisers``, apart from `_root_orbits`' tables, so
    that building those never pays for it.
    """
    mu = rs.check_dominant(mu)
    zeros = tuple(k for k, x in enumerate(mu) if not x)
    stab = rs._stabilisers.get(zeros)
    if stab is None:
        moved = set().union(*(rs.roots_through[k] for k, x in enumerate(mu) if x))
        stab = rs._stabilisers[zeros] = _group_order(
            root for idx, root in enumerate(rs.pos_roots) if idx not in moved
        )
    return _exact(rs.weyl_order, stab, "Weyl group order over stabiliser order", mu)
