"""Shelling verification, search, faces of the cube boundary, star-replacement."""

import hashlib
import itertools
import json
import random

import networkx as nx
import pytest

from cubalex import complex_core as cc
from cubalex import factories as fa
from cubalex import shelling as sh
from cubalex.errors import NotACell, NotAPermutation, NotCubical

from gen import (
    BENCH_BOXES_3D, CONE44, nx_adjacency, random_disk_polyomino, subcomplex,
)


def test_single_cube_trivial_order():
    K = fa.unit_cube(2)
    ok, idx = sh.verify_shelling(K, K.top_ids())
    assert ok and idx is None


def test_grid_row_major_ok():
    K = fa.rect_grid(2, 2)
    # row-major: sort tops by lower-left coordinates
    def corner(i):
        return min(K.vertices[v] for v in K.cell(i).verts)
    order = sorted(K.top_ids(), key=corner)
    ok, idx = sh.verify_shelling(K, order)
    assert ok


def test_grid_diagonal_first_fails_at_second():
    K = fa.rect_grid(2, 2)
    diag = None
    for a, b in itertools.combinations(K.top_ids(), 2):
        if len(set(K.cell(a).verts) & set(K.cell(b).verts)) == 1:
            diag = [a, b] + [i for i in K.top_ids() if i not in (a, b)]
            break
    ok, idx = sh.verify_shelling(K, diag)
    assert not ok and idx == 1  # the second cube in the order violates


def test_vertex_shared_off_the_shared_facets_fails():
    # (1, 1) meets the prefix in its bottom edge and, apart from it, in the
    # corner it shares with (2, 2): the shelling step closes a ring
    K = fa.grid_complex([(1, 0), (2, 0), (3, 0), (3, 1), (3, 2), (2, 2),
                         (1, 1)])
    corner = {min(K.vertices[v] for v in K.cell(i).verts): i
              for i in K.top_ids()}
    order = [corner[c] for c in [(1, 0), (2, 0), (3, 0), (3, 1), (3, 2),
                                 (2, 2), (1, 1)]]
    assert sh.verify_shelling(K, order) == (False, 6)


def test_not_a_permutation():
    K = fa.domino()
    with pytest.raises(NotAPermutation):
        sh.verify_shelling(K, K.top_ids() + K.top_ids())


def test_find_shelling_rect_grids():
    for w, h in [(1, 1), (2, 1), (2, 2), (3, 2), (4, 2), (3, 3)]:
        K = fa.rect_grid(w, h)
        order = sh.find_shelling(K)
        assert order is not None
        ok, _ = sh.verify_shelling(K, order)
        assert ok


def test_find_shelling_annulus_not_a_cell():
    ann = fa.grid_complex(
        [(x, y) for x in range(3) for y in range(3) if (x, y) != (1, 1)])
    with pytest.raises(NotACell):
        sh.find_shelling(ann)


def test_backtracking_3d_single_and_domino():
    K = fa.box_complex(3, corners=[(0, 0, 0)])
    assert sh.find_shelling(K) is not None
    K2 = fa.box_complex(3, corners=[(0, 0, 0), (1, 0, 0)])
    order = sh.find_shelling(K2)
    ok, _ = sh.verify_shelling(K2, order)
    assert ok


# -- faces of the boundary of the 3-cube -----------------------------------------


def cube_boundary():
    """The 2-complex of the six faces of the unit 3-cube."""
    Q = fa.unit_cube(3)
    return subcomplex(Q, Q.facet_ids(Q.top_ids()[0]))


def test_box_without_lid():
    P = cube_boundary()
    # remove one face: 5 faces of the boundary of [0,1]^3, a disk
    P5 = subcomplex(P, P.top_ids()[:5])
    order = sh.find_shelling(P5)
    assert len(order) == 5
    ok, _ = sh.verify_shelling(P5, order)
    assert ok


def test_single_face():
    P = cube_boundary()
    P1 = subcomplex(P, P.top_ids()[:1])
    assert sh.find_shelling(P1) == P1.top_ids()


def test_all_faces_rejected():
    # the whole boundary is a sphere: the last face of any order would meet
    # the others in its whole boundary, so no order passes the step test
    P = cube_boundary()
    assert not any(sh.verify_shelling(P, list(order))[0]
                   for order in itertools.permutations(P.top_ids()))
    with pytest.raises(NotACell):
        sh.find_shelling(P)


# -- star replacement -------------------------------------------------------------


@pytest.mark.parametrize("cells,tris,m", [
    ([(0, 0)], 8, 0),
    ([(0, 0), (1, 0)], 12, 2),
    ([(0, 0), (1, 0), (0, 1)], 16, 4),
])
def test_star_replacement_counts(cells, tris, m):
    # oracle: #K* = boundary unit edges x 2; m = (#K^Delta - #K*)/2
    K = fa.grid_complex(cells)
    boundary_edges = len(K.boundary_facet_ids())
    assert tris == 2 * boundary_edges
    S = sh.star_replacement(K)
    assert S.n_cells(2) == tris
    assert sh.star_replacement_cover_count(K) == m


def test_star_replacement_single_cube_is_triangulation():
    K = fa.unit_cube(2)
    S = sh.star_replacement(K)
    T = cc.canonical_triangulation(K)
    assert cc.is_isomorphic(S, T)


def test_star_replacement_boundary_matches_triangulation():
    K = fa.domino()
    S = sh.star_replacement(K)
    T = cc.canonical_triangulation(K)
    bS = {S.cell(i).verts for i in S.boundary_facet_ids()}
    bT = {T.cell(i).verts for i in T.boundary_facet_ids()}
    assert bS == bT


def test_ledger_identity_nonnegative_random():
    rng = random.Random(3)
    for _ in range(8):
        K = fa.grid_complex(random_disk_polyomino(rng, 9))
        assert sh.star_replacement_cover_count(K) >= 0


BOXES_3D = [
    [(0, 0, 0)],
    [(0, 0, 0), (1, 0, 0)],
    [(0, 0, 0), (1, 0, 0), (0, 1, 0)],
    [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)],
]


def test_cover_count_is_star_replacement_difference():
    # the criterion-4 inputs and 3-D boxes: m = (#K^Delta - #K*)/2 with
    # K^Delta and K* built
    rng = random.Random(42)
    disks = [fa.grid_complex(random_disk_polyomino(rng, 10))
             for _ in range(20)]
    for K in disks + [fa.box_complex(3, c) for c in BOXES_3D]:
        n = K.dimension
        T = cc.canonical_triangulation(K)
        S = sh.star_replacement(K)
        assert sh.star_replacement_cover_count(K) == \
            (T.n_cells(n) - S.n_cells(n)) // 2


def test_cover_count_rejects_non_cell():
    annulus = fa.grid_complex(
        [(x, y) for x in range(3) for y in range(3) if (x, y) != (1, 1)])
    with pytest.raises(NotACell):
        sh.star_replacement_cover_count(annulus)


def test_simplicial_input_is_not_cubical():
    T = cc.canonical_triangulation(fa.domino())
    with pytest.raises(NotCubical):
        sh.star_replacement_cover_count(T)
    with pytest.raises(NotCubical):
        sh.find_shelling(T)
    with pytest.raises(NotCubical):
        sh.verify_shelling(T, T.top_ids())


def test_opposite_facets_are_vertex_disjoint():
    # facet slot j ^ 1 is the opposite facet
    for K in [fa.unit_cube(2), fa.box_complex(3, BOXES_3D[3]),
              fa.product_with_interval(fa.circle_complex(4), 1)]:
        for q in K.top_ids():
            fs = K.facet_ids(q)
            for j, f in enumerate(fs):
                for k, g in enumerate(fs):
                    disjoint = not set(K.cell(f).verts) & set(K.cell(g).verts)
                    assert disjoint == (k == j ^ 1)


def test_every_2cell_complex_shellable_random_12():
    # every cubical complex on a 2-cell is shellable: random sweep to 12 cubes
    rng = random.Random(31)
    for _ in range(10):
        K = fa.grid_complex(random_disk_polyomino(rng, 12))
        order = sh.find_shelling(K)
        assert order is not None
        ok, _ = sh.verify_shelling(K, order)
        assert ok


# -- the 2-D peel on boundary counts, against the subcomplex rule it replaced --


def reference_peelable(K, q, remaining):
    """The peel rule before boundary counts: q's edges and vertices on the
    boundary of the subcomplex on `remaining` form a connected graph with an
    edge, and the subcomplex on the other squares passes `cell_check`."""
    S = subcomplex(K, remaining)
    bfacets = {S.cell(i).verts for i in S.boundary_facet_ids()}
    bverts = {v for vs in bfacets for v in vs}
    edges = [K.cell(i).verts for i in K.facet_ids(q)
             if K.cell(i).verts in bfacets]
    verts = [v for v in K.cell(q).verts if v in bverts]
    if not edges:
        return False
    g = nx.Graph()
    g.add_nodes_from(("v", v) for v in verts)
    for e in edges:
        g.add_edges_from((("e", e), ("v", v)) for v in e)
    if not nx.is_connected(g):
        return False
    return not cc.cell_check(subcomplex(K, [t for t in remaining if t != q]))


def test_arc_rule_matches_subcomplex_rule_along_the_peel():
    # every square of every state along the peel, with the counts updated
    # incrementally as find_shelling updates them
    rng = random.Random(16)
    shapes = [cells for k, v in fa.free_polyominoes(7).items() for cells in v
              if fa.is_disk_polyomino(cells)]
    shapes += [CONE44] + [random_disk_polyomino(rng, 16) for _ in range(10)]
    checks = 0
    for cells in shapes:
        K = fa.grid_complex(cells)
        left, on_bd = sh._boundary_counts(K)
        remaining = sorted(K.top_ids())
        while len(remaining) > 1:
            want = [q for q in remaining if reference_peelable(K, q, remaining)]
            got = [q for q in remaining
                   if sh._meets_boundary_in_arc(K, q, left, on_bd)]
            assert got == want, cells
            checks += len(remaining)
            sh._peel_off(K, want[0], left, on_bd)
            remaining.remove(want[0])
            assert (left, on_bd) == recounted(K, remaining), cells
    assert checks > 1000


def recounted(K, remaining):
    left = {e: sum(c in remaining for c in K.coface_ids(e))
            for e in K.cell_ids(1)}
    on_bd = dict.fromkeys(K.vertices, 0)
    for e in left:
        for v in K.cell(e).verts:
            on_bd[v] += left[e] == 1
    return left, on_bd


def test_peel_builds_no_subcomplex_or_networkx_graph():
    # the package has no subcomplex builder left; tests/test_dependencies.py
    # checks that no networkx module is imported
    assert not hasattr(cc.Complex, "subcomplex")
    K = fa.rect_grid(3, 3)
    order = sh.find_shelling(K)
    assert sh.verify_shelling(K, order) == (True, None)


def test_facet_cell_certificate_matches_connected_route():
    # the opposite-face test alone, against connectivity plus that test
    for n in (2, 3, 4):
        K = fa.unit_cube(n)
        q = K.top_ids()[0]
        fs = K.facet_ids(q)
        for k in range(1, len(fs) + 1):
            for ids in itertools.combinations(fs, k):
                want = (k < len(fs)
                        and nx.is_connected(nx_adjacency(K, ids))
                        and any(fs[j ^ 1] not in ids
                                for j, f in enumerate(fs) if f in ids))
                assert sh._facet_complex_is_cell(K, q, list(ids)) == want


def test_facet_cell_certificate_agrees_with_euler_characteristic():
    # every proper non-empty union of facets of the n-cube, n = 2..5: the
    # unions that are not balls are homotopy spheres (chi 0 or 2), so
    # chi = 1 decides, and the certificate must agree with it
    for n, subsets in [(2, 14), (3, 62), (4, 254), (5, 1022)]:
        K = fa.unit_cube(n)
        q = K.top_ids()[0]
        fs = K.facet_ids(q)
        closure = {f: {i for i, c in enumerate(K.cells())
                       if set(c.verts) <= set(K.cell(f).verts)} for f in fs}
        seen = 0
        for k in range(1, len(fs)):
            for ids in itertools.combinations(fs, k):
                cells = set().union(*(closure[f] for f in ids))
                chi = sum((-1) ** K.cell(i).dim for i in cells)
                assert sh._facet_complex_is_cell(K, q, list(ids)) == (chi == 1)
                seen += 1
        assert seen == subsets


# -- shelling outputs pinned against the route before the shared step test ------


def digest(records):
    return hashlib.sha256(json.dumps(records).encode()).hexdigest()


def test_step_test_route_pinned():
    # find_shelling on the 3-D boxes above and the benchmark's
    boxes = BOXES_3D + [c for c in BENCH_BOXES_3D if list(c) not in BOXES_3D]
    records = [sh.find_shelling(fa.box_complex(3, c)) for c in boxes]
    assert len(records) == 7
    assert digest(records) == (
        "3222795522ee0792a04fc5f7e52c24ee9bf4292ff9f3e087d110a10a9bbb76ff")


def test_disk_shelling_orders_pinned():
    # find_shelling on the 526 disk polyominoes of at most 8 cells
    records = [sh.find_shelling(fa.grid_complex(cells))
               for k, v in fa.free_polyominoes(8).items() for cells in v
               if fa.is_disk_polyomino(cells)]
    assert len(records) == 526
    assert digest(records) == (
        "bb18214a756fe387ef4eb82ad454a02ac5007e64f52b8138dd06971608290649")


# -- the linear verification against the quadratic one it replaced ------------


def quadratic_verify_shelling(K, order):
    """`verify_shelling` as it was: each step rebuilds the prefix's id set
    and its vertex set."""
    for i in range(1, len(order)):
        prefix = order[:i]
        shared = K.shared_facets(order[i], prefix)
        if not sh._facet_complex_is_cell(K, order[i], shared):
            return False, i
        prefix_verts = {v for j in prefix for v in K.cell(j).verts}
        shared_verts = {v for f in shared for v in K.cell(f).verts}
        if (set(K.cell(order[i]).verts) & prefix_verts) - shared_verts:
            return False, i
    return True, None


def test_verify_shelling_matches_quadratic_check():
    # every disk polyomino of at most 7 squares, with its found order and
    # with random permutations of it: the same verdict at the same index
    rng = random.Random(7)
    seen = 0
    for v in fa.free_polyominoes(7).values():
        for cells in v:
            if not fa.is_disk_polyomino(cells):
                continue
            K = fa.grid_complex(cells)
            found = sh.find_shelling(K)
            orders = [found] + [rng.sample(found, len(found))
                                for _ in range(6)]
            for order in orders:
                assert sh.verify_shelling(K, order) == \
                    quadratic_verify_shelling(K, order)
                seen += not sh.verify_shelling(K, order)[0]
    assert seen > 100  # the permutations reach the failing branches
