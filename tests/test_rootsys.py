"""Root system construction, conversions, and Weyl-orbit helpers."""

import importlib
import itertools
import random
from fractions import Fraction

import pytest

from weightmult import (
    DimensionMismatch,
    InvalidType,
    PreconditionViolated,
    RootSystem,
    build_root_system,
    character,
    dominant_conjugate,
    enumerate_weyl,
    inner,
    is_under,
    multiplicity_value,
    orbit_size,
    root_to_weight_coords,
    weight_to_root_coords,
    weyl_dimension,
)
from weightmult.rootsys import (
    _bourbaki,
    _cartan_matrix,
    _components,
    _fit,
    _group_order,
    _lattice_coords,
    _root_orbits,
    _sub_cartan,
)

POSITIVE_ROOT_COUNTS = {
    ("A", 2): 3,
    ("A", 5): 15,
    ("B", 2): 4,
    ("B", 3): 9,
    ("C", 3): 9,
    ("D", 3): 6,
    ("D", 4): 12,
    ("G", 2): 6,
    ("F", 4): 24,
    ("E", 6): 36,
    ("E", 7): 63,
    ("E", 8): 120,
}

WEYL_ORDERS = {
    ("A", 3): 24,
    ("B", 3): 48,
    ("C", 2): 8,
    ("D", 4): 192,
    ("G", 2): 12,
    ("F", 4): 1152,
    ("E", 6): 51840,
    ("E", 7): 2903040,
    ("E", 8): 696729600,
}

# Labels of the connected node subsets, and the number of subsets that are products.
CONNECTED_LABEL_CENSUS = {
    ("E", 8): (
        {("A", 1): 8, ("A", 2): 7, ("A", 3): 7, ("A", 4): 6, ("A", 5): 4, ("A", 6): 3,
         ("A", 7): 1, ("D", 4): 1, ("D", 5): 2, ("D", 6): 1, ("D", 7): 1, ("E", 6): 1,
         ("E", 7): 1, ("E", 8): 1},
        211,
    ),
    ("F", 4): ({("A", 1): 4, ("A", 2): 2, ("B", 2): 1, ("B", 3): 1, ("C", 3): 1, ("F", 4): 1}, 5),
}


def reflect_root_coords(cartan, beta, i):
    """Simple reflection acting on root coordinates: subtract <beta, alpha_i^v> alpha_i."""
    pairing = sum(cartan[i][j] * bj for j, bj in enumerate(beta))
    out = list(beta)
    out[i] -= pairing
    return tuple(out)


def closure_positive_roots(rs):
    """All positive roots by reflecting the simples to a fixed point (independent oracle)."""
    frontier = {tuple(1 if k == i else 0 for k in range(rs.rank)) for i in range(rs.rank)}
    seen = set(frontier)
    while frontier:
        nxt = set()
        for beta in frontier:
            for i in range(rs.rank):
                image = reflect_root_coords(rs.cartan, beta, i)
                if image not in seen:
                    seen.add(image)
                    nxt.add(image)
        frontier = nxt
    return {beta for beta in seen if all(x >= 0 for x in beta)}


def _attach(cartan, at):
    """``cartan`` with one more node, joined to node ``at`` by a simple edge."""
    rows = [(*row, -int(i == at)) for i, row in enumerate(cartan)]
    rows.append((*(-int(k == at) for k in range(len(cartan))), 2))
    return tuple(rows)


def _dominant_conjugate_by_rescan(rs, mu):
    """Reference: reflect with the full Cartan column at the first negative
    coordinate, rescanning from index 0 after every reflection."""
    v, word = tuple(mu), []
    while any(x < 0 for x in v):
        i = next(k for k, x in enumerate(v) if x < 0)
        t = v[i]
        v = tuple(vk - t * rs.cartan[k][i] for k, vk in enumerate(v))
        word.append(i + 1)
    return v, tuple(word)


def _finite_types():
    for rank in range(1, 9):
        yield "A", rank
    for rank in range(2, 9):
        yield "B", rank
        yield "C", rank
    for rank in range(3, 9):
        yield "D", rank
    yield from (("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2))


def _sub_cartans(rs):
    """The Cartan matrix of every nonempty node subset of ``rs``."""
    for size in range(1, rs.rank + 1):
        for nodes in itertools.combinations(range(rs.rank), size):
            yield tuple(tuple(rs.cartan[i][j] for j in nodes) for i in nodes)


class TestConstruction:
    def test_a2_positive_roots(self):
        rs = build_root_system("A", 2)
        assert set(rs.pos_roots) == {(1, 0), (0, 1), (1, 1)}

    @pytest.mark.parametrize("family,rank", sorted(POSITIVE_ROOT_COUNTS))
    def test_positive_root_counts(self, family, rank):
        rs = build_root_system(family, rank)
        assert len(rs.pos_roots) == POSITIVE_ROOT_COUNTS[(family, rank)]

    @pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2), ("F", 4)])
    def test_positive_roots_match_reflection_closure(self, family, rank):
        rs = build_root_system(family, rank)
        assert set(rs.pos_roots) == closure_positive_roots(rs)

    def test_simple_roots_come_first_then_heights_increase(self):
        rs = build_root_system("F", 4)
        for i in range(rs.rank):
            assert rs.pos_roots[i] == tuple(1 if k == i else 0 for k in range(rs.rank))
        heights = [sum(beta) for beta in rs.pos_roots[rs.rank:]]
        assert heights == sorted(heights)

    @pytest.mark.parametrize("family,rank", list(_finite_types()))
    def test_stored_root_order(self, family, rank):
        rs = build_root_system(family, rank)
        simple = [tuple(int(i == k) for k in range(rank)) for i in range(rank)]
        rest = sorted(closure_positive_roots(rs) - set(simple), key=lambda b: (sum(b), b))
        assert rs.pos_roots == tuple(simple + rest)
        for beta, beta_f in zip(rs.pos_roots, rs.pos_roots_fundamental, strict=True):
            assert beta_f == root_to_weight_coords(rs, beta)

    def test_g2_has_level_three_root(self):
        rs = build_root_system("G", 2)
        assert len(rs.pos_roots) == 6
        assert max(max(beta) for beta in rs.pos_roots) == 3

    def test_roots_through_each_simple_index(self):
        rs = build_root_system("B", 3)
        for j in range(rs.rank):
            expected = [i for i, beta in enumerate(rs.pos_roots) if beta[j] > 0]
            assert list(rs.roots_through[j]) == expected

    @pytest.mark.parametrize(
        "family,rank",
        [("E", 5), ("E", 9), ("F", 3), ("G", 3), ("B", 1), ("C", 1), ("D", 2), ("A", 0), ("H", 3)],
    )
    def test_invalid_family_rank_pairs_rejected(self, family, rank):
        with pytest.raises(InvalidType):
            build_root_system(family, rank)

    @pytest.mark.parametrize("family,rank", sorted(WEYL_ORDERS))
    def test_weyl_group_orders(self, family, rank):
        assert build_root_system(family, rank).weyl_order == WEYL_ORDERS[(family, rank)]

    def test_rho_is_all_ones(self):
        for family, rank in [("A", 4), ("B", 3), ("G", 2)]:
            assert build_root_system(family, rank).rho == (1,) * rank

    def test_d3_matches_a3(self):
        d3 = build_root_system("D", 3)
        a3 = build_root_system("A", 3)
        assert len(d3.pos_roots) == len(a3.pos_roots)
        assert d3.weyl_order == a3.weyl_order
        assert d3.family_ranks == (("D", 3),)
        assert a3.family_ranks == (("A", 3),)

    def test_product_system_from_block_cartan(self):
        a1 = build_root_system("A", 1)
        block = ((2, 0), (0, 2))
        rs = RootSystem(block)
        assert rs.family_ranks == (("A", 1), ("A", 1))
        assert len(rs.pos_roots) == 2 * len(a1.pos_roots)
        assert rs.weyl_order == 4

    def test_check_weight_rejects_wrong_length(self):
        rs = build_root_system("A", 2)
        with pytest.raises(DimensionMismatch):
            rs.check_weight((1, 0, 0))

    @pytest.mark.parametrize("weight", [(1.5, 0), (Fraction(1, 2), 0), (1, 2.0)])
    def test_check_weight_rejects_non_integer_coordinates(self, weight):
        rs = build_root_system("A", 2)
        with pytest.raises(PreconditionViolated):
            rs.check_weight(weight)

    @pytest.mark.parametrize("entry", [-1.5, Fraction(1, 2), -1.0])
    def test_non_integer_cartan_entries_rejected(self, entry):
        with pytest.raises(InvalidType):
            RootSystem(((2, entry), (-1, 2)))

    @pytest.mark.parametrize(
        "cartan,family_ranks",
        [
            (((2, -1), (-1, 2)), (("A", 2.9),)),  # non-integer rank, was truncated
            (((2, -1), (-1, 2)), (("a", 2),)),  # no such family
            (((2, -1), (-1, 2)), (("E", 2),)),  # outside the rank rule of E
            (((2, -1), (-1, 2)), (("A",),)),  # not a pair, was a bare ValueError
            (((2, -1), (-1, 2)), (("A", 2, 0),)),
            (((2, -3), (-1, 2)), (("A", 3),)),  # G2 as A3: six roots, but rank 3
            (build_root_system("E", 6).cartan, (("B", 6),)),  # 36 roots either way
            (build_root_system("B", 2).cartan, (("C", 2),)),  # short node first is C2
        ],
    )
    def test_invalid_family_ranks_rejected(self, cartan, family_ranks):
        with pytest.raises(InvalidType):
            RootSystem(cartan, family_ranks)

    @pytest.mark.parametrize(
        "cartan,family_ranks,message",
        [
            (((2, -1), (-1, 2, 0)), None, "must be square"),
            (((2, -1), (-1, 3)), None, "diagonal must be 2"),
            (((2, -4), (-1, 2)), None, "must lie in"),
            (((2, -1), (0, 2)), None, "zero pattern must be symmetric"),
            (((2, -1), (-1, 2)), (("A", 1), ("A", 1)), "one pair per component"),
            (((2, -1, -1), (-2, 2, -1), (-1, -1, 2)), None, "not symmetrizable"),
        ],
        ids=["not-square", "diagonal", "entry-range", "zero-pattern", "pair-count", "not-symmetrizable"],
    )
    def test_malformed_input_rejected_with_its_reason(self, cartan, family_ranks, message):
        with pytest.raises(InvalidType, match=message):
            RootSystem(cartan, family_ranks)

    def test_valid_family_ranks_kept(self):
        rs = RootSystem(((2, -1), (-1, 2)), (("A", 2),))
        assert rs.family_ranks == (("A", 2),)

    @pytest.mark.parametrize(
        "cartan,family_ranks",
        [
            (((2, -2), (-2, 2)), None),  # affine A1
            (((2, -3), (-3, 2)), None),  # hyperbolic rank 2
            # affine A2: a 3-cycle; given labels do not skip the definiteness check
            (((2, -1, -1), (-1, 2, -1), (-1, -1, 2)), (("A", 3),)),
        ],
    )
    def test_indefinite_cartan_matrices_rejected(self, cartan, family_ranks):
        with pytest.raises(InvalidType, match="not positive definite"):
            RootSystem(cartan, family_ranks)

    @pytest.mark.parametrize(
        "cartan,family_ranks",
        [
            (_attach(_cartan_matrix("G", 2), 1), (("G", 3),)),
            (_attach(_cartan_matrix("D", 4), 1), (("D", 5),)),
            (_attach(_cartan_matrix("E", 8), 7), (("E", 9),)),
            (_attach(_attach(_cartan_matrix("E", 8), 7), 8), (("E", 10),)),
        ],
        ids=["affine-G2", "affine-D4", "affine-E8", "hyperbolic-E10"],
    )
    def test_non_finite_trees_rejected_by_the_root_walk(self, cartan, family_ranks):
        # symmetrizable trees, so only the bound on the root walk can reject them
        for labels in (None, family_ranks):
            with pytest.raises(InvalidType, match="not positive definite"):
                RootSystem(cartan, labels)

    def test_finite_systems_have_at_most_two_rank_squared_positive_roots(self):
        systems = [build_root_system("A", rank) for rank in range(1, 13)]
        systems += [build_root_system(f, rank) for f in "BC" for rank in range(2, 13)]
        systems += [build_root_system("D", rank) for rank in range(3, 13)]
        systems += [build_root_system(f, rank) for f, rank in (("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2))]
        systems += [
            RootSystem(_block_sum(*(_cartan_matrix(f, rank) for f, rank in factors)))
            for factors in ((("B", 2), ("G", 2), ("A", 1)), (("F", 4), ("C", 3), ("D", 4)), (("E", 8), ("E", 8)))
        ]
        counts = {rs.label(): (len(rs.pos_roots), 2 * rs.rank**2) for rs in systems}
        assert all(found <= bound for found, bound in counts.values()), counts
        tightest = max(counts, key=lambda name: counts[name][0] / counts[name][1])
        assert (tightest, counts[tightest]) == ("E8", (120, 128))


def _adjugate(cartan):
    """(adjugate, determinant) of a finite-type Cartan matrix by one fraction-free pass.

    The reference for the leaf-first solve on the Dynkin forest
    (`RootSystem._forest`).  Bareiss's Gauss-Jordan form of ``[cartan | I]``
    without row exchanges: the k-th pivot is the k-th leading principal
    minor, and at the end the left block is ``det * I`` and the right block
    the adjugate.  For the positive symmetrizer ``d`` the k-th leading minor
    of ``diag(d) * cartan`` is ``d_1 ... d_k`` times that of ``cartan``, so on
    a finite type, whose symmetrized matrix is positive definite, every
    pivot is positive.
    """
    n = len(cartan)
    rows = [list(row) + [int(i == k) for k in range(n)] for i, row in enumerate(cartan)]
    prev = 1
    for k in range(n):
        pivot = rows[k][k]
        for i in range(n):
            if i != k:
                f = rows[i][k]
                rows[i] = [(pivot * x - f * y) // prev for x, y in zip(rows[i], rows[k])]
        prev = pivot
    return tuple(tuple(row[n:]) for row in rows), prev


def _assert_adjugate(rs):
    adjugate, det = _adjugate(rs.cartan)
    assert rs.cartan_det == det, rs.cartan
    l = rs.rank
    for i in range(l):
        for j in range(l):
            entry = sum(rs.cartan[i][k] * adjugate[k][j] for k in range(l))
            assert entry == (det if i == j else 0), (rs.cartan, i, j)


class TestDerivedRootData:
    @pytest.mark.parametrize("family,rank", [("A", 5), ("B", 4), ("C", 4), ("D", 5), ("F", 4), ("G", 2)])
    def test_group_order_is_the_number_of_elements_walked(self, family, rank):
        # enumerate_weyl counts the orbit of rho, independently of root heights.
        for sub in _sub_cartans(build_root_system(family, rank)):
            rs = RootSystem(sub)
            assert rs.weyl_order == len(enumerate_weyl(rs)), rs.family_ranks

    @pytest.mark.parametrize("family,rank", sorted(CONNECTED_LABEL_CENSUS))
    def test_labels_of_the_connected_node_subsets(self, family, rank):
        census, products = {}, 0
        for sub in _sub_cartans(build_root_system(family, rank)):
            labels = RootSystem(sub).family_ranks
            if len(labels) > 1:
                products += 1
            else:
                census[labels[0]] = census.get(labels[0], 0) + 1
        assert (census, products) == CONNECTED_LABEL_CENSUS[(family, rank)]


# Bourbaki's Cartan matrices written out in full, entry [i][j] = <alpha_j, alpha_i^vee>
BOURBAKI_CARTAN = {
    ("A", 3): ((2, -1, 0), (-1, 2, -1), (0, -1, 2)),
    ("B", 3): ((2, -1, 0), (-1, 2, -1), (0, -2, 2)),
    ("C", 3): ((2, -1, 0), (-1, 2, -2), (0, -1, 2)),
    ("D", 4): ((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2)),
    ("E", 6): (
        (2, 0, -1, 0, 0, 0),
        (0, 2, 0, -1, 0, 0),
        (-1, 0, 2, -1, 0, 0),
        (0, -1, -1, 2, -1, 0),
        (0, 0, 0, -1, 2, -1),
        (0, 0, 0, 0, -1, 2),
    ),
    ("F", 4): ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -2, 2, -1), (0, 0, -1, 2)),
    ("G", 2): ((2, -3), (-1, 2)),
}


class TestBourbakiTables:
    """`_cartan_matrix` against Bourbaki's Planches, not against its own labeller."""

    @pytest.mark.parametrize("label", list(BOURBAKI_CARTAN), ids=[f"{f}{r}" for f, r in BOURBAKI_CARTAN])
    def test_table_is_bourbakis_matrix(self, label):
        assert _cartan_matrix(*label) == BOURBAKI_CARTAN[label]


class TestBourbakiLabeller:
    """`_bourbaki` reads a piece's type and Bourbaki node order off its Dynkin shape.

    The order is checked against the Bourbaki table itself: the Cartan
    matrix read in that order must be the table's matrix of the label.
    """

    @pytest.mark.parametrize("family,rank", list(_finite_types()))
    def test_permuted_simple_systems(self, family, rank):
        table = _cartan_matrix(family, rank)
        rng = random.Random(f"bourbaki-{family}{rank}")
        for _ in range(30):
            nodes = list(range(rank))
            rng.shuffle(nodes)
            cartan = _sub_cartan(table, nodes)
            rs = RootSystem(cartan)
            found, found_rank, order = _bourbaki(rs.columns, rs.symmetrizer, tuple(range(rank)))
            assert found_rank == rank
            if (family, rank) == ("D", 3):
                assert found == "A"
            elif family in "BC" and rank == 2:
                assert found in "BC"
            else:
                assert found == family
            assert _sub_cartan(cartan, order) == _cartan_matrix(found, rank), nodes
            assert rs.family_ranks == ((found, rank),) and rs._orders == (order,)

    @pytest.mark.parametrize("family,rank", list(_finite_types()))
    def test_every_connected_piece(self, family, rank):
        # the parent's symmetrizer is not normalised on a piece: an all-long
        # piece of B_n has d = 2 at every node
        rs = build_root_system(family, rank)
        for size in range(1, rank + 1):
            for nodes in itertools.combinations(range(rank), size):
                for piece in _components(rs.columns, nodes):
                    found, found_rank, order = _bourbaki(rs.columns, rs.symmetrizer, piece)
                    assert sorted(order) == list(piece) and found_rank == len(piece)
                    assert _sub_cartan(rs.cartan, order) == _cartan_matrix(found, found_rank), piece

    # every rank of A, B, C and D up to 40; D starts at 4, since D3 reads as A3 in the order (1, 0, 2)
    @pytest.mark.parametrize(
        "family,rank",
        [(family, rank) for family, least in (("A", 1), ("B", 2), ("C", 2), ("D", 4)) for rank in range(least, 41)]
        + [("E", 6), ("E", 8), ("F", 4), ("G", 2)],
    )
    def test_a_system_in_bourbaki_order_reads_in_place(self, family, rank):
        rs = build_root_system(family, rank)
        assert rs._orders == (tuple(range(rank)),)


class TestAdjugate:
    @pytest.mark.parametrize("family,rank", list(_finite_types()))
    def test_cartan_times_adjugate_is_det_times_identity(self, family, rank):
        _assert_adjugate(build_root_system(family, rank))

    def test_every_levi_subsystem_of_e8(self):
        e8 = build_root_system("E", 8)
        for size in range(1, 9):
            for nodes in itertools.combinations(range(8), size):
                sub = tuple(tuple(e8.cartan[i][j] for j in nodes) for i in nodes)
                _assert_adjugate(RootSystem(sub))

    @pytest.mark.parametrize("shuffled", [False, True], ids=["bourbaki", "shuffled"])
    @pytest.mark.parametrize(
        "factors",
        [((f, r),) for f, r in _finite_types()]
        + [(("D", 12),), (("B", 20),), (("A", 2), ("G", 2)), (("B", 3), ("A", 1), ("D", 4)), (("E", 6), ("F", 4))],
        ids=lambda factors: "x".join(f"{f}{r}" for f, r in factors),
    )
    def test_forest_solves_equal_the_reference(self, factors, shuffled):
        rng = random.Random(f"forest-{factors}-{shuffled}")
        cartan = _block_sum(*(_cartan_matrix(f, r) for f, r in factors))
        if shuffled:
            nodes = list(range(len(cartan)))
            rng.shuffle(nodes)
            cartan = _sub_cartan(cartan, nodes)
        rs = RootSystem(cartan)
        adjugate, det = _adjugate(cartan)
        assert rs.cartan_det == det
        l = rs.rank
        roots = [tuple(rng.randint(-3, 3) for _ in range(l)) for _ in range(20)]
        weights = [tuple(rng.randint(-4, 4) for _ in range(l)) for _ in range(40)]
        for c in roots:
            assert _lattice_coords(rs, root_to_weight_coords(rs, c)) == c
        off = 0
        for v in [root_to_weight_coords(rs, c) for c in roots] + weights:
            nums = [sum(a * x for a, x in zip(row, v)) for row in adjugate]
            on = not any(x % det for x in nums)
            off += not on
            assert _lattice_coords(rs, v) == (tuple(x // det for x in nums) if on else None), v
            assert weight_to_root_coords(rs, v) == tuple(Fraction(x, det) for x in nums), v
            w = rng.choice(weights)
            assert inner(rs, w, v) == Fraction(sum(a * x * d for a, x, d in zip(w, nums, rs.symmetrizer)), det), v
        # every system but those of determinant 1 meets weights off the root lattice
        assert (off > 0) == (det > 1), off


class TestAdjugateOnFirstSolve:
    """Construction builds no elimination schedule; a solve builds it once, on its own system."""

    @staticmethod
    def _cold_library(monkeypatch):
        library = {}
        monkeypatch.setattr(importlib.import_module("weightmult.multiplicity"), "_LIBRARY", library)
        return library

    def test_construction_builds_none(self):
        rs = build_root_system("E", 8)
        assert "_forest" not in vars(rs)
        assert rs.cartan_det == 1
        assert "_forest" in vars(rs)
        _assert_adjugate(rs)

    @pytest.mark.parametrize(
        "family,lam,expected,pieces",
        [
            ("B", (0, 1, 0, 2), 44, [("A", 1), ("B", 2), ("B", 3)]),
            ("E", (2, 0, 0, 0, 0, 1, 0), 8073, [("A", 1), ("A", 5), ("A", 6), ("D", 6), ("E", 6)]),
        ],
        ids=["B4", "E7"],
    )
    def test_cold_queries_leave_the_library_without_one(self, monkeypatch, family, lam, expected, pieces):
        library = self._cold_library(monkeypatch)
        rs = build_root_system(family, len(lam))
        assert multiplicity_value(rs, lam, (0,) * len(lam)) == expected
        assert sorted(library) == pieces
        assert not any("_forest" in vars(piece) for piece in library.values())
        # the query solved lam - mu once, on its own system
        assert "_forest" in vars(rs)
        _assert_adjugate(rs)

    def test_character_computes_none(self, monkeypatch):
        library = self._cold_library(monkeypatch)
        rs = build_root_system("E", 6)
        # the telescoped character runs on rs alone; the dispatcher sweep
        # reaches Levi pieces, and neither solves
        assert len(character(rs, (1, 0, 0, 0, 0, 1))) == 3
        assert not library
        dispatcher_chart = importlib.import_module("weightmult.multiplicity")._dispatcher_chart
        assert len(dispatcher_chart(rs, (1, 0, 0, 0, 0, 1))[0]) == 3
        assert library
        assert not any("_forest" in vars(system) for system in (rs, *library.values()))


class TestBilinearForm:
    def test_fundamental_weight_against_simple_root(self):
        rs = build_root_system("A", 2)
        alpha1 = root_to_weight_coords(rs, (1, 0))
        assert inner(rs, (1, 0), alpha1) == 1
        assert inner(rs, (0, 1), alpha1) == 0

    def test_zero_weight_pairs_to_zero(self):
        rs = build_root_system("G", 2)
        assert inner(rs, (0, 0), (5, -3)) == 0

    def test_rho_norm_in_a2(self):
        rs = build_root_system("A", 2)
        assert inner(rs, rs.rho, rs.rho) == 2

    def test_short_roots_have_norm_two(self):
        for family, rank in [("A", 3), ("B", 3), ("C", 3), ("G", 2), ("F", 4)]:
            rs = build_root_system(family, rank)
            norms = {rs.norm_root(beta) for beta in rs.pos_roots}
            assert min(norms) == 2


def _expected_symmetrizer(family, rank):
    if family == "B":
        return (2,) * (rank - 1) + (1,)
    if family == "C":
        return (1,) * (rank - 1) + (2,)
    return {"F": (2, 2, 1, 1), "G": (1, 3)}.get(family, (1,) * rank)


class TestIntegerRootData:
    @pytest.mark.parametrize("family,rank", list(_finite_types()))
    def test_symmetrizer_is_an_integer_tuple(self, family, rank):
        rs = build_root_system(family, rank)
        assert rs.symmetrizer == _expected_symmetrizer(family, rank)
        assert all(type(d) is int for d in rs.symmetrizer)
        for i in range(rank):
            for j in range(rank):
                assert rs.symmetrizer[i] * rs.cartan[i][j] == rs.symmetrizer[j] * rs.cartan[j][i]
                alpha_i = root_to_weight_coords(rs, tuple(int(k == i) for k in range(rank)))
                alpha_j = tuple(int(k == j) for k in range(rank))
                form = rs.inner_weight_root(alpha_i, alpha_j)
                assert form == rs.symmetrizer[i] * rs.cartan[i][j]
                assert type(form) is int

    def test_forms_on_roots_and_the_dimension_are_ints(self):
        rs = build_root_system("G", 2)
        for value in (
            rs.inner_weight_root((3, 1), (2, 1)),
            rs.norm_root((3, 2)),
            weyl_dimension(rs, (1, 1)),
        ):
            assert type(value) is int

    def test_scale_keyword_is_gone(self):
        with pytest.raises(TypeError):
            build_root_system("B", 2, scale=2)
        with pytest.raises(TypeError):
            RootSystem(((2, -1), (-1, 2)), scale=2)


class TestCoordinateConversions:
    def test_root_to_weight_a2(self):
        rs = build_root_system("A", 2)
        assert root_to_weight_coords(rs, (1, 1)) == (1, 1)

    def test_weight_to_root_a2_is_rational(self):
        rs = build_root_system("A", 2)
        assert weight_to_root_coords(rs, (1, 0)) == (Fraction(2, 3), Fraction(1, 3))

    def test_zero_round_trips(self):
        rs = build_root_system("F", 4)
        zero = (0, 0, 0, 0)
        assert root_to_weight_coords(rs, zero) == zero
        assert weight_to_root_coords(rs, zero) == zero

    @pytest.mark.parametrize("c", [(1.5, 0), (Fraction(1, 2), 0)])
    def test_root_to_weight_rejects_non_integer_coordinates(self, c):
        rs = build_root_system("A", 2)
        with pytest.raises(PreconditionViolated):
            root_to_weight_coords(rs, c)

    def test_root_to_weight_rejects_wrong_length(self):
        rs = build_root_system("A", 2)
        with pytest.raises(DimensionMismatch):
            root_to_weight_coords(rs, (1, 0, 0))

    @pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("G", 2), ("D", 4)])
    def test_conversions_invert_each_other(self, family, rank):
        rs = build_root_system(family, rank)
        for beta in rs.pos_roots:
            v = root_to_weight_coords(rs, beta)
            assert weight_to_root_coords(rs, v) == beta


class TestDominanceOrder:
    def test_difference_in_root_lattice(self):
        rs = build_root_system("A", 2)
        assert is_under(rs, (0, 0), (1, 1)) == (1, 1)

    def test_difference_outside_root_lattice(self):
        rs = build_root_system("A", 2)
        assert is_under(rs, (0, 0), (1, 0)) is None

    def test_equal_weights(self):
        rs = build_root_system("B", 3)
        assert is_under(rs, (1, 2, 0), (1, 2, 0)) == (0, 0, 0)

    def test_negative_coefficient_is_rejected(self):
        rs = build_root_system("A", 2)
        assert is_under(rs, (2, 2), (1, 1)) is None


class TestDominantConjugate:
    def test_a2_two_step_word(self):
        rs = build_root_system("A", 2)
        assert dominant_conjugate(rs, (-1, 0)) == ((0, 1), (1, 2))

    def test_already_dominant_gives_empty_word(self):
        rs = build_root_system("A", 2)
        assert dominant_conjugate(rs, (1, 1)) == ((1, 1), ())

    def test_rank_one_negation(self):
        rs = build_root_system("A", 1)
        assert dominant_conjugate(rs, (-3,)) == ((3,), (1,))

    def test_word_replays_to_the_representative(self):
        rs = build_root_system("B", 3)
        for mu in [(-2, 1, 0), (3, -1, -4), (0, 0, -1), (-1, -1, -1)]:
            rep, word = dominant_conjugate(rs, mu)
            assert all(x >= 0 for x in rep)
            image = mu
            for j in word:
                image = rs.reflect(image, j - 1)
            assert image == rep

    def test_idempotent(self):
        rs = build_root_system("G", 2)
        rep, _ = dominant_conjugate(rs, (-4, 1))
        assert dominant_conjugate(rs, rep) == (rep, ())

    @pytest.mark.parametrize("family,rank", list(_finite_types()))
    def test_same_word_as_a_rescan_from_the_first_coordinate(self, family, rank):
        rs = build_root_system(family, rank)
        rng = random.Random(f"{family}{rank}")
        for _ in range(40):
            mu = tuple(rng.randint(-4, 4) for _ in range(rank))
            assert dominant_conjugate(rs, mu) == _dominant_conjugate_by_rescan(rs, mu), mu


class TestCarriedRootCoords:
    """``dominant_conjugate(rs, mu, c)`` carries the root coordinates of ``lam - mu``."""

    @pytest.mark.parametrize(
        "family,rank",
        [(f, r) for f, r in _finite_types() if r <= 4] + [("E", 6)],
    )
    def test_carried_coordinates_match_a_fresh_solve(self, family, rank):
        rs = build_root_system(family, rank)
        rng = random.Random(f"carry-{family}{rank}")
        negative = 0
        for _ in range(60):
            lam = tuple(rng.randint(-3, 3) for _ in range(rank))
            c = tuple(rng.randint(-3, 4) for _ in range(rank))
            negative += min(c) < 0
            mu = tuple(a - g for a, g in zip(lam, root_to_weight_coords(rs, c)))
            assert weight_to_root_coords(rs, tuple(a - m for a, m in zip(lam, mu))) == c
            mu_plus, word, c_plus = dominant_conjugate(rs, mu, c)
            want = weight_to_root_coords(rs, tuple(a - m for a, m in zip(lam, mu_plus)))
            assert c_plus == want, (lam, mu, c)
            assert all(type(x) is int for x in c_plus)
            # the two-argument call is unchanged: the rescan reference agrees
            assert dominant_conjugate(rs, mu) == (mu_plus, word)
            assert (mu_plus, word) == _dominant_conjugate_by_rescan(rs, mu)
        assert negative

    def test_a2_reflection_lowers_the_reflected_coordinate(self):
        rs = build_root_system("A", 2)
        # lam = (1, 1), mu = lam - 2 alpha_1 - alpha_2 = (-2, 1): s_1 (t = -2)
        # gives (2, -1) with c = (0, 1), then s_2 (t = -1) gives lam, c = 0
        assert dominant_conjugate(rs, (-2, 1), (2, 1)) == ((1, 1), (1, 2), (0, 0))

    def test_carried_call_checks_lengths(self):
        rs = build_root_system("A", 2)
        with pytest.raises(DimensionMismatch):
            dominant_conjugate(rs, (0, 0), (1, 1, 1))
        with pytest.raises(DimensionMismatch):
            dominant_conjugate(rs, (0,), (1, 1))
        # a dominant mu returns at once, but only after the length check
        with pytest.raises(DimensionMismatch):
            dominant_conjugate(rs, (1, 2), (1,))

    def test_dominant_input_returns_tuples_and_the_empty_word(self):
        rs = build_root_system("B", 3)
        got = dominant_conjugate(rs, [1, 0, 2], [3, 1, 0])
        assert got == ((1, 0, 2), (), (3, 1, 0))
        assert all(type(part) is tuple for part in got)
        got = dominant_conjugate(rs, [0, 4, 1])
        assert got == ((0, 4, 1), ())
        assert all(type(part) is tuple for part in got)


class TestWeylDimension:
    def test_rank_one_string(self):
        rs = build_root_system("A", 1)
        for n in range(6):
            assert weyl_dimension(rs, (n,)) == n + 1

    def test_a2_adjoint(self):
        assert weyl_dimension(build_root_system("A", 2), (1, 1)) == 8

    def test_a3_natural(self):
        assert weyl_dimension(build_root_system("A", 3), (1, 0, 0)) == 4


class TestOrbitSize:
    def test_fixed_point(self):
        assert orbit_size(build_root_system("A", 2), (0, 0)) == 1

    def test_regular_weight(self):
        assert orbit_size(build_root_system("A", 2), (1, 1)) == 6

    def test_weight_with_stabilizer(self):
        assert orbit_size(build_root_system("A", 2), (1, 0)) == 3

    @pytest.mark.parametrize(
        "family,rank", [("A", 3), ("B", 3), ("C", 3), ("G", 2), ("D", 4), ("F", 4), ("E", 6)]
    )
    def test_orbit_size_matches_explicit_orbit(self, family, rank):
        rs = build_root_system(family, rank)
        samples = [(1,) * rank, (1,) + (0,) * (rank - 1), (0,) * (rank - 1) + (2,)]
        for mu in samples:
            orbit = {mu}
            frontier = [mu]
            while frontier:
                nxt = []
                for nu in frontier:
                    for i in range(rank):
                        image = rs.reflect(nu, i)
                        if image not in orbit:
                            orbit.add(image)
                            nxt.append(image)
                frontier = nxt
            assert orbit_size(rs, mu) == len(orbit)

    def test_orbit_size_divides_group_order(self):
        rs = build_root_system("F", 4)
        for mu in [(1, 0, 0, 0), (0, 1, 0, 1), (2, 0, 1, 0)]:
            assert rs.weyl_order % orbit_size(rs, mu) == 0



def _reference_orbit_size(rs, mu):
    """The group order over the order of the stabiliser, rebuilt from the roots on every call."""
    moved = set().union(*(rs.roots_through[k] for k, x in enumerate(mu) if x))
    return rs.weyl_order // _group_order(root for idx, root in enumerate(rs.pos_roots) if idx not in moved)


class TestOrbitSizeEqualsTheReference:
    """`orbit_size` keeps one stabiliser order per zero set; the rebuilt order agrees on every one.

    Each zero set is asked twice, with two weights, so that the second reads
    the kept order.
    """

    @pytest.mark.parametrize("name", [f"{f}{r}" for f, r in _finite_types()] + ["B2xG2xA1"])
    def test_every_zero_set(self, name):
        rs = _orbit_system(name)
        for support in itertools.product((0, 1), repeat=rs.rank):
            for scale in (1, 2):
                mu = tuple(scale * x for x in support)
                assert orbit_size(rs, mu) == _reference_orbit_size(rs, mu), (name, mu)

def _orbit_up_to_sign(rs, beta, zeros):
    """The positive roots ``|w beta|`` for ``w`` generated by the ``s_i``, ``i`` in ``zeros``."""
    orbit = {beta}
    frontier = [beta]
    while frontier:
        nxt = []
        for gamma in frontier:
            for i in zeros:
                image = reflect_root_coords(rs.cartan, gamma, i)
                if min(image) < 0:
                    image = tuple(-x for x in image)
                if image not in orbit:
                    orbit.add(image)
                    nxt.append(image)
        frontier = nxt
    return orbit


def _check_top(rs, orbit, least, top, zeros):
    """``top`` is the orbit's one root of greatest height, ``W_Z``-dominant and above ``least``."""
    roots = rs.pos_roots
    assert roots[top] in orbit
    heights = sorted(map(sum, orbit))
    assert sum(roots[top]) == heights[-1]
    assert heights.count(heights[-1]) == 1
    assert all(rs.pos_roots_fundamental[top][i] >= 0 for i in zeros)
    gap = [t - b for t, b in zip(roots[top], roots[least])]
    assert min(gap) >= 0
    assert all(i in zeros for i, g in enumerate(gap) if g)


class TestRootOrbits:
    @pytest.mark.parametrize(
        "family,rank",
        [(f, r) for f, r in _finite_types() if r <= 4] + [("E", 6)],
    )
    def test_orbits_partition_the_positive_roots(self, family, rank):
        rs = build_root_system(family, rank)
        roots = rs.pos_roots
        for size in range(rank + 1):
            for zeros in itertools.combinations(range(rank), size):
                table = _root_orbits(rs, zeros)[0]
                covered = []
                for idx, top, orbit_size_ in table:
                    orbit = _orbit_up_to_sign(rs, roots[idx], zeros)
                    assert len(orbit) == orbit_size_, (family, rank, zeros, idx)
                    assert sum(roots[idx]) == min(map(sum, orbit)), (family, rank, zeros, idx)
                    _check_top(rs, orbit, idx, top, zeros)
                    covered.extend(orbit)
                assert sorted(covered) == sorted(roots), (family, rank, zeros)
                assert sum(n for _, _, n in table) == len(roots)
                if not zeros:
                    assert table == tuple((idx, idx, 1) for idx in range(len(roots)))

    @pytest.mark.parametrize(
        "family,rank",
        [(f, r) for f, r in _finite_types() if r <= 4] + [("E", 6)],
    )
    def test_orbits_through_a_node_cover_its_roots(self, family, rank):
        rs = build_root_system(family, rank)
        roots = rs.pos_roots
        for j in range(rank):
            others = [i for i in range(rank) if i != j]
            for size in range(rank):
                for zeros in itertools.combinations(others, size):
                    table = _level_rows(rs, zeros, j)
                    covered = []
                    for idx, top, orbit_size_ in table:
                        orbit = _orbit_up_to_sign(rs, roots[idx], zeros)
                        assert len(orbit) == orbit_size_, (family, rank, zeros, j, idx)
                        assert sum(roots[idx]) == min(map(sum, orbit))
                        assert {root[j] for root in orbit} == {roots[idx][j]}
                        _check_top(rs, orbit, idx, top, zeros)
                        covered.extend(orbit)
                    assert sorted(covered) == sorted(roots[k] for k in rs.roots_through[j])
                    if not zeros:
                        assert table == tuple((idx, idx, 1) for idx in rs.roots_through[j])

    def test_tables_are_cached_on_the_system(self):
        rs = build_root_system("D", 4)
        assert _root_orbits(rs, (1,)) is _root_orbits(rs, (1,))
        # s_2 swaps alpha_1 and the higher alpha_1 + alpha_2; the whole Weyl
        # group of the simply-laced D4 is transitive on its roots
        assert _root_orbits(rs, (1,))[0][0] == (0, rs.pos_roots.index((1, 1, 0, 0)), 2)
        assert _root_orbits(rs, (0, 1, 2, 3))[0] == ((0, 11, 12),)


def _level_rows(rs, zeros, j):
    """The rows of the zero set's orbit table that the level recursion through ``alpha_j`` sums."""
    return tuple(row for row in _root_orbits(rs, zeros)[0] if rs.pos_roots[row[1]][j])


def _walk_orbits(rs, zeros, j=None):
    """Reference for `_root_orbits`: ``W_Z``-orbits up to sign by a walk over reflections.

    A generator ``s_i``, ``i`` in ``zeros``, sends a positive root other
    than ``alpha_i`` to a positive root and ``alpha_i`` to its negative, so
    the orbits are the connected pieces of the graph with edges ``beta --
    s_i beta`` on the positive roots (on ``rs.roots_through[j]`` given
    ``j``).  Each orbit is listed at its first root as ``(least, top,
    size)``, ``top`` its last root in the stored order.
    """
    return tuple((group[0], max(group), len(group)) for group in _walk_groups(rs, zeros, j))


def _walk_positions(rs, zeros):
    """Reference for the positions of `_root_orbits`: per positive root, the walk's number for its orbit."""
    position = [None] * len(rs.pos_roots)
    for pos, group in enumerate(_walk_groups(rs, zeros)):
        for idx in group:
            position[idx] = pos
    return position


def _walk_groups(rs, zeros, j=None):
    """The roots of each orbit of `_walk_orbits`, its first root first."""
    roots = rs.pos_roots
    where = {root: idx for idx, root in enumerate(roots)}
    seen = [False] * len(roots)
    out = []
    for start in range(len(roots)) if j is None else rs.roots_through[j]:
        if seen[start]:
            continue
        seen[start] = True
        stack, group = [start], []
        while stack:
            idx = stack.pop()
            group.append(idx)
            pairing = rs.pos_roots_fundamental[idx]
            for i in zeros:
                if pairing[i] and idx != i:  # index i holds alpha_i
                    image = list(roots[idx])
                    image[i] -= pairing[i]
                    nxt = where[tuple(image)]
                    if not seen[nxt]:
                        seen[nxt] = True
                        stack.append(nxt)
        out.append(group)
    return out


def _orbit_system(name):
    """A library system by name, or one of the product and shuffled systems below."""
    if name == "B2xG2xA1":
        return RootSystem(_block_sum(_cartan_matrix("B", 2), _cartan_matrix("G", 2), _cartan_matrix("A", 1)))
    if name == "C3xA2":
        return RootSystem(_block_sum(_cartan_matrix("C", 3), _cartan_matrix("A", 2)))
    if name == "F4-shuffled":
        return RootSystem(_sub_cartan(_cartan_matrix("F", 4), (2, 0, 3, 1)))
    if name == "E6-shuffled":
        return RootSystem(_sub_cartan(_cartan_matrix("E", 6), (4, 1, 5, 0, 3, 2)))
    return build_root_system(name[0], int(name[1:]))


def _assert_orbits_equal_the_walk(rs, zeros):
    table, positions = _root_orbits(rs, zeros)
    assert table == _walk_orbits(rs, zeros), zeros
    assert positions == _walk_positions(rs, zeros), zeros
    for j in range(rs.rank):
        if j not in zeros:
            assert _level_rows(rs, zeros, j) == _walk_orbits(rs, zeros, j), (zeros, j)


class TestRootOrbitsEqualTheWalk:
    """`_root_orbits` groups by shape, length and component; the walk over reflections agrees.

    Every table is compared tuple for tuple, at every zero set and every
    level ``j`` outside it, or at seeded zero sets where there are too many.
    """

    @pytest.mark.parametrize(
        "name",
        [f"{f}{r}" for f, r in _finite_types() if r <= 6] + ["B2xG2xA1", "F4-shuffled", "E6-shuffled"],
    )
    def test_every_zero_set(self, name):
        rs = _orbit_system(name)
        for size in range(rs.rank + 1):
            for zeros in itertools.combinations(range(rs.rank), size):
                _assert_orbits_equal_the_walk(rs, zeros)

    @pytest.mark.parametrize(
        "name",
        ["E7", "E8"] + [f"{f}{r}" for f in "ABCD" for r in range(8, 13)],
    )
    def test_seeded_zero_sets(self, name):
        rs = _orbit_system(name)
        rng = random.Random(f"orbits-{name}")
        for _ in range(40):
            zeros = tuple(sorted(rng.sample(range(rs.rank), rng.randrange(rs.rank + 1))))
            _assert_orbits_equal_the_walk(rs, zeros)


def _antidominant_roots(rs, zeros):
    """Reference for the descent's steps: the positive roots pairing ``<= 0`` at every node of ``zeros``.

    Subtracting any other root from a dominant weight zero at ``zeros``
    leaves a negative coordinate; listed by index in root order.
    """
    return [idx for idx, root_f in enumerate(rs.pos_roots_fundamental) if all(root_f[i] <= 0 for i in zeros)]


class TestDescentSteps:
    """The descent subtracts each orbit's ``least`` root: those passing are `_antidominant_roots`, in its order."""

    @pytest.mark.parametrize(
        "name", [f"{f}{r}" for f, r in _finite_types()] + ["B2xG2xA1", "C3xA2"]
    )
    def test_least_roots_are_the_antidominant_roots(self, name):
        rs = _orbit_system(name)
        roots_f = rs.pos_roots_fundamental
        for size in range(rs.rank + 1):
            for zeros in itertools.combinations(range(rs.rank), size):
                least = [
                    row[0] for row in _root_orbits(rs, zeros)[0] if all(roots_f[row[0]][i] <= 0 for i in zeros)
                ]
                assert least == _antidominant_roots(rs, zeros), (name, zeros)


def _string_systems():
    for rank in range(1, 9):
        yield "A", rank
    for rank in range(2, 6):
        yield "B", rank
        yield "C", rank
    for rank in range(4, 7):
        yield "D", rank
    yield from (("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2))


def _block_sum(*cartans):
    """The Cartan matrix of the product of the given systems, blocks in order."""
    n = sum(map(len, cartans))
    rows, at = [], 0
    for cartan in cartans:
        for row in cartan:
            rows.append((0,) * at + tuple(row) + (0,) * (n - at - len(row)))
        at += len(cartan)
    return tuple(rows)


class TestRootStrings:
    """``RootSystem._strings``: each positive root's support pairs and squared norm."""

    @pytest.mark.parametrize(
        "system",
        [*_string_systems(), "B2xG2xA1"],
        ids=lambda s: s if isinstance(s, str) else f"{s[0]}{s[1]}",
    )
    def test_matches_a_direct_computation(self, system):
        if system == "B2xG2xA1":
            rs = RootSystem(_block_sum(_cartan_matrix("B", 2), _cartan_matrix("G", 2), _cartan_matrix("A", 1)))
            assert rs.family_ranks == (("B", 2), ("G", 2), ("A", 1))
        else:
            rs = build_root_system(*system)
        strings = rs._strings
        assert len(strings) == len(rs.pos_roots)
        rng = random.Random(f"strings-{system}")
        for root, (pairs, norm) in zip(rs.pos_roots, strings):
            assert norm == rs.norm_root(root)
            assert [k for k, _ in pairs] == [k for k, rk in enumerate(root) if rk != 0]
            assert all(rk == root[k] > 0 for k, rk in pairs)
            # the bound read off the pairs is the largest r with c - r root >= 0
            for _ in range(5):
                c = tuple(rng.randrange(8) for _ in range(rs.rank))
                fit = 0
                while all(ck - (fit + 1) * rk >= 0 for ck, rk in zip(c, root)):
                    fit += 1
                assert _fit(c, pairs) == fit

    def test_built_once_by_the_first_recursion(self):
        rs = build_root_system("B", 3)
        assert "_strings" not in vars(rs)
        assert multiplicity_value(rs, (0, 0, 2), (0, 0, 0), algorithm="classical") == 3
        strings = vars(rs)["_strings"]
        assert rs._strings is strings
        assert multiplicity_value(rs, (0, 0, 2), (1, 0, 0), algorithm="fast") == 2
        assert vars(rs)["_strings"] is strings

    def test_construction_and_non_recursive_queries_leave_them_unbuilt(self):
        rs = RootSystem(_cartan_matrix("F", 4))
        assert "_strings" not in vars(rs)
        # dominant conjugation, the dimension and an answer that needs no formula
        dominant_conjugate(rs, (-1, 0, 2, 0))
        weyl_dimension(rs, (1, 0, 0, 0))
        assert multiplicity_value(rs, (1, 0, 0, 0), (1, 0, 0, 0)) == 1
        assert "_strings" not in vars(rs)
