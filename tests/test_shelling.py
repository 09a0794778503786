"""Shelling verification, search, boundary-face shellings, star-replacement."""

import itertools
import random

import pytest

from cubalex import complex_core as cc
from cubalex import factories as fa
from cubalex import shelling as sh
from cubalex.errors import AllOppositePairsPresent, NotACell, NotAPermutation

from gen import random_disk_polyomino


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


# -- boundary-face shellings ---------------------------------------------------


def test_box_without_lid():
    P = fa.cube_boundary_complex(3)
    # remove one face: 5 faces of the boundary of [0,1]^3
    tops = P.top_ids()
    P5 = P.subcomplex(tops[:-1] if len(tops) == 6 else tops)
    P5 = P.subcomplex(P.top_ids()[:5])
    order = sh.boundary_face_shelling(P5)
    assert len(order) == 5
    ok, _ = sh.verify_shelling(P5, order)
    assert ok


def test_single_face():
    P = fa.cube_boundary_complex(3)
    P1 = P.subcomplex(P.top_ids()[:1])
    assert sh.boundary_face_shelling(P1) == P1.top_ids()


def test_all_faces_rejected():
    P = fa.cube_boundary_complex(3)
    with pytest.raises(AllOppositePairsPresent):
        sh.boundary_face_shelling(P)


def test_shelling_starts_at_face_with_opposite_absent():
    P = fa.cube_boundary_complex(3)
    P5 = P.subcomplex(P.top_ids()[:5])
    order = sh.boundary_face_shelling(P5)
    first = set(P5.cell(order[0]).verts)
    # its opposite (vertex-disjoint face) must be missing from P5
    assert not any(not (set(P5.cell(t).verts) & first)
                   for t in P5.top_ids() if t != order[0])


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


def test_cover_count_is_star_replacement_difference():
    # the criterion-4 inputs: m = (#K^Delta - #K*)/2 with K* built
    rng = random.Random(42)
    for _ in range(20):
        K = fa.grid_complex(random_disk_polyomino(rng, 10))
        T = cc.canonical_triangulation(K)
        S = sh.star_replacement(K)
        assert sh.star_replacement_cover_count(K) == \
            (T.n_cells(2) - S.n_cells(2)) // 2


def test_cover_count_rejects_non_cell():
    annulus = fa.grid_complex(
        [(x, y) for x in range(3) for y in range(3) if (x, y) != (1, 1)])
    with pytest.raises(NotACell):
        sh.star_replacement_cover_count(annulus)


def test_every_2cell_complex_shellable_random_12():
    # every cubical complex on a 2-cell is shellable: random sweep to 12 cubes
    rng = random.Random(31)
    for _ in range(10):
        K = fa.grid_complex(random_disk_polyomino(rng, 12))
        order = sh.find_shelling(K)
        assert order is not None
        ok, _ = sh.verify_shelling(K, order)
        assert ok
