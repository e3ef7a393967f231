"""Exact root-system data for the finite-dimensional semisimple Lie types.

All root data the recursions use is integer (the symmetrizer, the form on
roots); `fractions.Fraction` holds only genuinely rational values, such as
the form on weights.  No floating point appears anywhere.

Conventions
-----------
* Families and ranks follow the Bourbaki tables: A (l >= 1), B (l >= 2),
  C (l >= 2), D (l >= 3), E (l in {6, 7, 8}), F (l = 4), G (l = 2).
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
  height, ties broken lexicographically on coefficients.
* No per-type table is read once the Cartan matrix is given.  The
  symmetrizer and the definiteness check admit exactly the finite types
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
from math import gcd
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
    """Bourbaki Cartan matrix, entry [i][j] = <alpha_j, alpha_i^vee>."""
    l = rank
    a = [[0] * l for _ in range(l)]
    for i in range(l):
        a[i][i] = 2

    def link(i: int, j: int, down: int = -1, up: int = -1) -> None:
        # down = <alpha_j, alpha_i^vee> into a[i][j], up = <alpha_i, alpha_j^vee>
        a[i][j] = down
        a[j][i] = up

    if family == "A":
        for i in range(l - 1):
            link(i, i + 1)
    elif family == "B":
        # alpha_l short: <alpha_{l-1}, alpha_l^vee> = -2
        for i in range(l - 2):
            link(i, i + 1)
        link(l - 2, l - 1, down=-1, up=-2)
    elif family == "C":
        # alpha_l long: <alpha_l, alpha_{l-1}^vee> = -2
        for i in range(l - 2):
            link(i, i + 1)
        link(l - 2, l - 1, down=-2, up=-1)
    elif family == "D":
        for i in range(l - 2):
            link(i, i + 1)
        link(l - 3, l - 1)
    elif family == "E":
        # chain 1-3-4-5-6(-7)(-8) with node 2 hanging off node 4
        chain = [0, 2, 3, 4, 5, 6, 7][: l - 1]
        for i, j in zip(chain, chain[1:]):
            link(i, j)
        link(1, 3)
    elif family == "F":
        # 1 - 2 => 3 - 4 with alpha_1, alpha_2 long
        link(0, 1)
        link(1, 2, down=-1, up=-2)
        link(2, 3)
    elif family == "G":
        # alpha_1 short: <alpha_2, alpha_1^vee> = -3
        link(0, 1, down=-3, up=-1)
    return tuple(tuple(row) for row in a)


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


def _adjugate(cartan: tuple) -> tuple:
    """(adjugate, determinant) of a Cartan matrix by one fraction-free pass.

    Bareiss's Gauss-Jordan form of ``[cartan | I]`` without row exchanges:
    the k-th pivot is the k-th leading principal minor, and at the end the
    left block is ``det * I`` and the right block the adjugate.  For the
    positive symmetrizer ``d`` the k-th leading minor of ``diag(d) * cartan``
    is ``d_1 ... d_k`` times that of ``cartan``, so a pivot <= 0 means the
    symmetrized matrix is not positive definite.
    """
    n = len(cartan)
    rows = [list(row) + [int(i == k) for k in range(n)] for i, row in enumerate(cartan)]
    prev = 1
    for k in range(n):
        pivot = rows[k][k]
        if pivot <= 0:
            raise InvalidType("symmetrized Cartan matrix is not positive definite")
        for i in range(n):
            if i != k:
                f = rows[i][k]
                rows[i] = [(pivot * x - f * y) // prev for x, y in zip(rows[i], rows[k])]
        prev = pivot
    return tuple(tuple(row[n:]) for row in rows), prev


def _positive_roots(columns: tuple) -> tuple:
    """``(pos_roots, pos_roots_fundamental)`` by raising reflections from the simple roots.

    At a root ``beta`` the pairings ``p_i = <beta, alpha_i^vee>`` are its
    fundamental-weight coordinates; each ``p_i < 0`` gives the higher root
    ``s_i beta = beta - p_i alpha_i``.  Both tuples follow the stored order.
    """
    l = len(columns)
    simple = [tuple(int(i == k) for k in range(l)) for i in range(l)]
    pairings = {}
    stack = list(simple)
    while stack:
        beta = stack.pop()
        if beta in pairings:
            continue
        p = [0] * l
        for k, bk in enumerate(beta):
            if bk:
                for i, a in columns[k]:
                    p[i] += bk * a
        pairings[beta] = tuple(p)
        for i, pi in enumerate(p):
            if pi < 0:
                up = list(beta)
                up[i] -= pi
                stack.append(tuple(up))
    ordered = simple + sorted((b for b in pairings if sum(b) > 1), key=lambda b: (sum(b), b))
    return tuple(ordered), tuple(pairings[b] for b in ordered)


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

    An instance holds immutable root data plus two caches, filled on
    demand, of data derived from the system: the stabiliser-orbit tables of
    `_root_orbits` by zero set, or by zero set and node (``_orbits``), and
    the multiplicity dispatcher's reduction plans by support (``_plans``).
    ``_orders`` holds each component's nodes in Bourbaki order.  The root
    data is fully built in ``__init__``, and no cache holds anything that
    depends on a module or a query, so a single object may be shared freely
    across contexts and queries.  No nested `RootSystem` is built for the
    simple factors; ``components`` and ``family_ranks`` describe them.
    ``columns[i]`` lists the pairs ``(k, cartan[k][i])`` with a nonzero
    entry in increasing ``k``: node ``i`` and its Dynkin neighbours.

    Build order: the symmetrizer, which rejects a non-symmetrizable matrix;
    the adjugate, which rejects one that is not positive definite, since the
    root walk would not end on it; the positive roots; the Weyl group order
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
        self.cartan_adjugate, self.cartan_det = _adjugate(cartan)
        self.rho: Weight = (1,) * l

        self.pos_roots, self.pos_roots_fundamental = _positive_roots(self.columns)
        # roots grouped by the simple coordinate they contain: index lists into pos_roots
        self.roots_through: tuple = tuple(
            tuple(idx for idx, root in enumerate(self.pos_roots) if root[j] > 0)
            for j in range(l)
        )
        self.weyl_order: int = _group_order(self.pos_roots)
        self._orbits: dict = {}
        self._plans: dict = {}

        labels = [_bourbaki(self.columns, self.symmetrizer, comp) for comp in self.components]
        derived = [(family, rank) for family, rank, _ in labels]
        self._orders: tuple = tuple(order for _, _, order in labels)
        if family_ranks is None:
            family_ranks = tuple(derived)
        else:
            try:
                family_ranks = tuple((str(f), index(r)) for f, r in family_ranks)
            except (TypeError, ValueError):
                raise InvalidType(
                    f"family_ranks must be (family, integer rank) pairs, got {family_ranks!r}"
                ) from None
            if len(family_ranks) != len(derived):
                raise InvalidType("family_ranks must list one pair per component")
            for given, found in zip(family_ranks, derived):
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
        return sum(dk * vk * ck for vk, ck, dk in zip(v, c, self.symmetrizer))

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

    Both arguments are fundamental-weight coordinate tuples; the result is
    `RootSystem.inner_weight_root` of ``v`` against the root coordinates of
    ``w``, an exact rational.
    """
    v = rs.check_weight(v)
    w = rs.check_weight(w)
    return Fraction(rs.inner_weight_root(v, _root_numerators(rs, w)), rs.cartan_det)


def root_to_weight_coords(rs: RootSystem, c: Sequence[int]) -> Weight:
    """Rewrite gamma = sum c_k alpha_k in fundamental-weight coordinates."""
    c = rs.check_weight(c)
    return tuple(
        sum(rs.cartan[i][k] * ck for k, ck in enumerate(c) if ck) for i in range(rs.rank)
    )


def _fit(c: Sequence[int], root: Sequence[int]) -> int:
    """The largest ``r`` with ``c - r * root >= 0``, for ``c >= 0`` and a positive root.

    Both are in simple-root coordinates, so only the support of ``root`` bounds ``r``.
    """
    return min(ck // rk for ck, rk in zip(c, root) if rk)


def _root_orbits(rs: RootSystem, zeros: tuple, j: Optional[int] = None) -> tuple:
    """``(least, top, size)`` per orbit of ``W_Z`` on the positive roots taken up to sign.

    ``W_Z`` is generated by the simple reflections at the increasing 0-based
    ``zeros``, the stabiliser of a dominant weight whose zero coordinates
    they are.  A generator ``s_i`` sends a positive root other than
    ``alpha_i`` to a positive root and ``alpha_i`` to its negative, so the
    orbits are the connected pieces of the graph with edges ``beta -- s_i
    beta``.  ``least`` and ``top`` index the orbit's first and last root in
    the stored order, which never decreases in height: ``least`` has the
    least height and ``top`` the greatest.  No ``s_i``, ``i`` in ``Z``,
    raises ``top``, so its pairing with every such ``alpha_i`` is >= 0 (it
    is ``W_Z``-dominant and the only root of its height in the orbit), and
    ``top - least`` is a nonnegative combination of those ``alpha_i``.  The
    empty ``zeros`` gives ``(idx, idx, 1)`` for every root.

    With a 0-based ``j`` outside ``zeros`` only the orbits of the roots
    through ``alpha_j`` are walked and returned.  Each ``s_i`` with ``i != j``
    keeps the ``alpha_j`` coefficient, so these orbits hold only positive
    roots and cover ``rs.roots_through[j]``.  Tables are cached on ``rs`` by
    ``zeros``, or by ``(zeros, j)``.
    """
    key = zeros if j is None else (zeros, j)
    table = rs._orbits.get(key)
    if table is not None:
        return table
    roots = rs.pos_roots
    where = {root: idx for idx, root in enumerate(roots)}
    seen = [False] * len(roots)
    out = []
    for start in range(len(roots)) if j is None else rs.roots_through[j]:
        if seen[start]:
            continue
        seen[start] = True
        stack, size, top = [start], 0, start
        while stack:
            idx = stack.pop()
            size += 1
            top = max(top, idx)
            pairing = rs.pos_roots_fundamental[idx]
            for i in zeros:
                if pairing[i] and idx != i:  # index i holds alpha_i
                    image = list(roots[idx])
                    image[i] -= pairing[i]
                    nxt = where[tuple(image)]
                    if not seen[nxt]:
                        seen[nxt] = True
                        stack.append(nxt)
        out.append((start, top, size))
    table = rs._orbits[key] = tuple(out)
    return table


def _root_numerators(rs: RootSystem, v: Sequence[int]):
    """``det`` times the root coordinates of the weight v, lazily, row by row."""
    return (sum(map(mul, row, v)) for row in rs.cartan_adjugate)


def weight_to_root_coords(rs: RootSystem, v: Sequence[int]) -> tuple:
    """Rewrite a weight in simple-root coordinates; entries are exact rationals.

    The Cartan matrix is invertible, so a rational solution always exists;
    integrality and nonnegativity are judged separately by `is_under`.
    """
    det = rs.cartan_det
    return tuple(Fraction(num, det) for num in _root_numerators(rs, rs.check_weight(v)))


def _lattice_coords(rs: RootSystem, v: Sequence[int]) -> Optional[RootVector]:
    """Integer simple-root coordinates of the weight v, or None off the root lattice."""
    det = rs.cartan_det
    out = []
    for num in _root_numerators(rs, v):
        q, rem = divmod(num, det)
        if rem:
            return None
        out.append(q)
    return tuple(out)


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
    no solve.  This is the form the multiplicity recursion calls on every
    sub-query, with ``mu`` and ``c`` built from checked integer tuples, so
    only their lengths are checked here, before anything else.  Without
    ``c``, ``mu`` is checked and the same loop runs with ``c = 0``, whose
    ``c_plus`` is dropped.  Every returned sequence is a tuple.
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
    out, rem = divmod(num, den)
    if rem:
        raise InexactDivision(f"Weyl dimension product is not an integer: {num}/{den}")
    return out


def orbit_size(rs: RootSystem, mu: Sequence[int]) -> int:
    """Size of the Weyl orbit of a dominant weight.

    The stabiliser of a dominant weight is the parabolic subgroup generated
    by the reflections at its zero coordinates.  Its positive roots are those
    that pass through no node ``k`` with ``mu_k > 0``, read off
    ``rs.roots_through``, and its order comes from their heights as for the
    whole group; the size is the quotient of the two orders.
    """
    mu = rs.check_dominant(mu)
    moved = set().union(*(rs.roots_through[k] for k, x in enumerate(mu) if x))
    stab = _group_order(root for idx, root in enumerate(rs.pos_roots) if idx not in moved)
    size, rem = divmod(rs.weyl_order, stab)
    if rem:
        raise InexactDivision(f"stabiliser order {stab} does not divide {rs.weyl_order}")
    return size
