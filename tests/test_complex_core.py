"""Complex construction, validation, triangulation, stars, adjacency."""

import itertools
import json
import math
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubalex import complex_core as cc
from cubalex import factories as fa
from cubalex import refinement as rf
from cubalex.errors import (
    FaceOveruse, IllegalIntersection, MissingFace, NotCubical, UnknownVertex,
)

from gen import random_disk_polyomino


def flag_count_oracle(n):
    # maximal flags of an n-cube, counted by direct enumeration over facets
    if n == 0:
        return 1
    return 2 * n * flag_count_oracle(n - 1)


def test_flag_count_oracle_matches_formula():
    for n in range(5):
        assert flag_count_oracle(n) == 2 ** n * math.factorial(n)


def test_single_square_builds():
    K = fa.unit_cube(2)
    assert K.n_cells(0) == 4 and K.n_cells(1) == 4 and K.n_cells(2) == 1
    assert not K.is_closed()


def test_domino_adjacency():
    K = fa.domino()
    g = K.adjacency_graph()
    assert g.number_of_nodes() == 2 and g.number_of_edges() == 1
    assert K.is_simplicially_connected()


def test_two_squares_sharing_opposite_corners_rejected():
    # intersection {v, v'} is a diagonal of both squares, not a single cube;
    # oracle = direct face enumeration: no face of either square equals {0,3}
    with pytest.raises(IllegalIntersection):
        cc.build_complex(2, cc.CUBICAL, list(range(6)), [
            (2, [0, 1, 2, 3], cc.CUBE),   # faces {0,1},{2,3},{0,2},{1,3}
            (2, [3, 4, 5, 0], cc.CUBE),   # faces {3,4},{5,0},{3,5},{4,0}
        ])


def test_missing_vertex_rejected():
    with pytest.raises(UnknownVertex):
        cc.build_complex(2, cc.CUBICAL, [0, 1, 2], [(2, [0, 1, 2, 9], cc.CUBE)])


def test_face_overuse_rejected():
    # three triangles on one edge
    with pytest.raises(FaceOveruse):
        cc.build_complex(2, cc.SIMPLICIAL, [0, 1, 2, 3, 4], [
            (2, [0, 1, 2], cc.SIMPLEX),
            (2, [0, 1, 3], cc.SIMPLEX),
            (2, [0, 1, 4], cc.SIMPLEX),
        ])


@pytest.mark.parametrize("n,expected", [(1, 2), (2, 8), (3, 48)])
def test_triangulation_counts(n, expected):
    assert expected == flag_count_oracle(n)  # oracle first
    K = fa.unit_cube(n)
    T = cc.canonical_triangulation(K)
    assert T.n_cells(n) == expected


def test_triangulation_vertex_count():
    # one new vertex per cube of dim >= 1
    K = fa.unit_cube(2)
    T = cc.canonical_triangulation(K)
    assert len(T.vertices) == 4 + 4 + 1
    K3 = fa.unit_cube(3)
    T3 = cc.canonical_triangulation(K3)
    assert len(T3.vertices) == 8 + 12 + 6 + 1


def test_triangulation_not_cubical_error():
    T = cc.canonical_triangulation(fa.unit_cube(2))
    with pytest.raises(NotCubical):
        cc.canonical_triangulation(T)


def test_star_and_link_of_center():
    K = fa.unit_cube(2)
    T = cc.canonical_triangulation(K)
    center = next(v for v, d in T.vertex_cube_dim.items() if d == 2)
    st = T.star(center)
    assert st.n_cells(2) == 8  # cone structure: star is everything
    lk = T.link(center)
    # 8-cycle of edges
    assert lk.n_cells(1) == 8 and lk.n_cells(0) == 8
    deg = {}
    for i in lk.cell_ids(1):
        for v in lk.cell(i).verts:
            deg[v] = deg.get(v, 0) + 1
    assert all(d == 2 for d in deg.values())


def test_corner_star_two_triangles():
    # flags through one corner of the square: 2 edges x 1 face
    T = cc.canonical_triangulation(fa.unit_cube(2))
    corner = next(v for v, d in T.vertex_cube_dim.items() if d == 0)
    assert T.star(corner).n_cells(2) == 2


def test_unknown_vertex_star():
    T = cc.canonical_triangulation(fa.unit_cube(2))
    with pytest.raises(UnknownVertex):
        T.star(10_000)


def test_disjoint_squares_disconnected():
    K = fa.grid_complex([(0, 0), (5, 5)])
    assert not K.is_simplicially_connected()


def test_restriction_property():
    # (K')^Delta isomorphic to K^Delta restricted to |K'|
    K = fa.rect_grid(2, 2)
    T = cc.canonical_triangulation(K)
    sub_tops = K.top_ids()[:2]
    sub = K.subcomplex(sub_tops)
    TK = cc.canonical_triangulation(
        cc.build_complex(2, cc.CUBICAL,
                         {v: K.vertices[v] for v in sub.vertices},
                         [(c.dim, list(c.order), c.kind) for c in sub.cells(2)]))
    R = cc.triangulation_restriction(T, K, sub_tops)
    assert cc.is_isomorphic(TK, R)


def test_adjacency_edges_are_codim1():
    K = fa.rect_grid(3, 2)
    g = K.adjacency_graph()
    for a, b in g.edges:
        i = g.edges[a, b]["shared"]
        assert K.cell(i).dim == K.dimension - 1


def test_json_roundtrip_hash():
    K = fa.rect_grid(2, 3)
    data = json.loads(json.dumps(K.to_json()))
    K2 = cc.from_json(data)
    assert K.relabel_invariant_hash() == K2.relabel_invariant_hash()
    # relabeled copy hashes identically
    shift = {v: v + 100 for v in K.vertices}
    K3 = cc.build_complex(2, cc.CUBICAL,
                          {shift[v]: K.vertices[v] for v in K.vertices},
                          [(c.dim, [shift[v] for v in c.order], c.kind)
                           for c in K.cells(2)])
    assert K.relabel_invariant_hash() == K3.relabel_invariant_hash()
    assert cc.is_isomorphic(K, K3)


def test_cell_check_heuristic():
    assert cc.cell_check(fa.rect_grid(2, 2)) == []
    annulus = fa.grid_complex(
        [(x, y) for x in range(3) for y in range(3) if (x, y) != (1, 1)])
    assert cc.cell_check(annulus)  # chi = 0
    pinched = fa.grid_complex([(0, 0), (1, 1)])
    assert cc.cell_check(pinched)  # boundary pinched / disconnected


def test_weakly_simplicial_duplicate_tops_allowed():
    C = fa.circle_complex(2)
    assert C.n_cells(1) == 2 and C.is_closed()


def test_degeneracy_flagged_not_rejected():
    # two triangles sharing one edge plus the far vertex
    K = cc.build_complex(2, cc.SIMPLICIAL, [0, 1, 2, 3], [
        (2, [0, 1, 2], cc.SIMPLEX),
        (2, [0, 1, 3], cc.SIMPLEX),
        (2, [2, 3, 0], cc.SIMPLEX),
    ])
    # adjacent pairs sharing a vertex beyond their common edge get flagged
    assert isinstance(K.warnings, list)


# -- incidence index -------------------------------------------------------------


def oracle_facets(K, j):
    """Facets of cell j re-derived from its vertex order, looked up by scan.

    A k-cube in binary order has facet (axis, side) on the vertices whose
    index has bit `axis` equal to `side`; a simplex drops one vertex at a
    time.  Each facet resolves to the first cell on its vertex set.
    """
    c = K.cell(j)
    if c.dim == 0:
        return []
    if c.kind == cc.SIMPLEX:
        subs = [c.verts[:k] + c.verts[k + 1:] for k in range(len(c.verts))]
    else:
        subs = [[v for idx, v in enumerate(c.order) if (idx >> axis) & 1 == side]
                for axis in range(c.dim) for side in (0, 1)]
    cells = K.cells()
    return [next(i for i, d in enumerate(cells)
                 if d.dim == c.dim - 1 and d.verts == tuple(sorted(s)))
            for s in subs]


def oracle_incidence_graph(K, facets):
    g = nx.Graph()
    for i, c in enumerate(K.cells()):
        g.add_node(i, color=f"{c.dim}:{c.kind}")
    for i in range(len(K.cells())):
        for f in facets[i]:
            g.add_edge(i, f)
    return g


def incidence_case(kind, seed):
    rng = random.Random(seed)
    if kind == "polyomino":
        return fa.grid_complex(random_disk_polyomino(rng, 7))
    if kind == "refined":
        return rf.refine(fa.rect_grid(rng.randint(1, 2), 1), 1).complex
    if kind == "triangulation":
        base = fa.grid_complex(random_disk_polyomino(rng, 4))
        return cc.canonical_triangulation(
            rng.choice([base, fa.unit_cube(3)]))
    if kind == "doubled":
        return fa.doubled_complex(fa.grid_complex(random_disk_polyomino(rng, 3)))
    # validate=False subcomplex on a random subset of top cells
    K = rng.choice([fa.grid_complex(random_disk_polyomino(rng, 8)),
                    cc.canonical_triangulation(fa.domino())])
    tops = K.top_ids()
    return K.subcomplex(rng.sample(tops, rng.randint(1, len(tops))))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["polyomino", "refined", "triangulation", "doubled",
                        "subcomplex"]),
       st.integers(min_value=0, max_value=10 ** 6))
def test_incidence_index_matches_oracle(kind, seed):
    K = incidence_case(kind, seed)
    n = len(K.cells())
    facets = [oracle_facets(K, j) for j in range(n)]
    cofaces = [[j for j in range(n) if i in facets[j]] for i in range(n)]
    assert [K.facet_ids(j) for j in range(n)] == facets
    assert [K.coface_ids(i) for i in range(n)] == cofaces
    g, nodes = K.incidence_graph()
    want = oracle_incidence_graph(K, facets)
    assert nodes == list(range(n))
    assert list(g.nodes(data="color")) == list(want.nodes(data="color"))
    assert list(g.edges) == list(want.edges)
    # top-cell adjacency, edges added in ascending shared facet
    adj = nx.Graph()
    adj.add_nodes_from(K.top_ids())
    for f in K.cell_ids(K.dimension - 1):
        for a, b in itertools.combinations(cofaces[f], 2):
            adj.add_edge(a, b, shared=f)
    got = K.adjacency_graph()
    assert list(got.nodes) == list(adj.nodes)
    assert list(got.edges(data="shared")) == list(adj.edges(data="shared"))


def test_adjacency_graph_components_of_boundary():
    annulus = fa.grid_complex(
        [(x, y) for x in range(3) for y in range(3) if (x, y) != (1, 1)])
    disk = fa.rect_grid(3, 2)
    for K, comps in [(annulus, 2), (disk, 1)]:
        bd = K.boundary_facet_ids()
        g = K.adjacency_graph(bd)
        assert sorted(g.nodes) == bd
        assert nx.number_connected_components(g) == comps
        assert len(rf.boundary_components(K)) == comps
        for a, b, f in g.edges(data="shared"):
            assert K.cell(f).dim == K.dimension - 2
            assert f in K.facet_ids(a) and f in K.facet_ids(b)


def test_shared_facets():
    K = fa.rect_grid(3, 1)
    left, mid, right = sorted(K.top_ids(), key=lambda i: min(
        K.vertices[v] for v in K.cell(i).verts))
    assert K.shared_facets(mid, [left]) == \
        [f for f in K.facet_ids(mid) if f in K.facet_ids(left)]
    assert len(K.shared_facets(mid, [left, right])) == 2
    assert K.shared_facets(left, [right]) == []
    assert K.shared_facets(mid, [mid]) == []
