"""Complex construction, validation, triangulation, stars, adjacency."""

import dataclasses
import gc
import itertools
import json
import math
import os
import random
import subprocess
import sys
import types
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubalex import alexander as al
from cubalex import complex_core as cc
from cubalex import factories as fa
from cubalex import refinement as rf
from cubalex import shelling as sh
from cubalex.errors import (
    CubalexError, FaceOveruse, IllegalIntersection, MissingFace, NotCubical,
    ParamsInvalid, UnknownVertex,
)

from gen import (
    BENCH_BOXES_3D, CONE44, bench_reduction_disks, identify, nx_adjacency,
    random_disk_polyomino, relabeled, subcomplex,
)


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
    assert len(K.top_ids()) == 2 and len(K.adjacency()) == 1
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


def test_triangulation_leaves_no_cyclic_closure():
    # a self-referencing helper closure would keep its flag memo alive
    # until the cycle collector ran
    K = fa.unit_cube(3)
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        cc.canonical_triangulation(K)
        gc.collect()
        leaked = [o.__qualname__ for o in gc.garbage
                  if isinstance(o, types.FunctionType)
                  and o.__qualname__.startswith("canonical_triangulation.")]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert leaked == []


def test_star_and_link_of_center():
    K = fa.unit_cube(2)
    T = cc.canonical_triangulation(K)
    center = next(v for v, d in T.vertex_cube_dim.items() if d == 2)
    star = [T.cell(i) for i in T.star_cell_ids(center)]
    assert sum(c.dim == 2 for c in star) == 8  # cone structure: star is everything
    # the link, the star's cells that miss the centre: an 8-cycle of edges
    link = [c for c in star if center not in c.verts]
    assert sum(c.dim == 1 for c in link) == 8 and sum(c.dim == 0 for c in link) == 8
    deg = {}
    for c in link:
        if c.dim == 1:
            for v in c.verts:
                deg[v] = deg.get(v, 0) + 1
    assert all(d == 2 for d in deg.values())


def test_corner_star_two_triangles():
    # flags through one corner of the square: 2 edges x 1 face
    T = cc.canonical_triangulation(fa.unit_cube(2))
    corner = next(v for v, d in T.vertex_cube_dim.items() if d == 0)
    assert sum(T.cell(i).dim == 2 for i in T.star_cell_ids(corner)) == 2


def test_unknown_vertex_star():
    T = cc.canonical_triangulation(fa.unit_cube(2))
    with pytest.raises(UnknownVertex):
        T.star_cell_ids(10_000)


def test_disjoint_squares_disconnected():
    K = fa.grid_complex([(0, 0), (5, 5)])
    assert not K.is_simplicially_connected()


def test_restriction_property():
    # (K')^Delta isomorphic to K^Delta restricted to |K'|
    K = fa.rect_grid(2, 2)
    T = cc.canonical_triangulation(K)
    sub = subcomplex(K, K.top_ids()[:2])
    TK = cc.canonical_triangulation(
        cc.build_complex(2, cc.CUBICAL,
                         {v: K.vertices[v] for v in sub.vertices},
                         [(c.dim, list(c.order), c.kind) for c in sub.cells()
                          if c.dim == 2]))
    # the simplices of T whose vertices are all centres of cells of K'
    inside = {(c.dim, c.verts) for c in sub.cells()}
    keep = {v for (v, _), c in zip(cc.flag_centres(K), K.cells())
            if (c.dim, c.verts) in inside}
    R = subcomplex(T, [i for i in T.top_ids()
                       if keep.issuperset(T.cell(i).verts)])
    assert cc.is_isomorphic(TK, R)


def test_adjacency_edges_are_codim1():
    K = fa.rect_grid(3, 2)
    edges = K.adjacency()
    assert len(edges) == 7
    for a, b, f in edges:
        assert K.cell(f).dim == K.dimension - 1
        assert f in K.facet_ids(a) and f in K.facet_ids(b)


def test_json_roundtrip_hash():
    K = fa.rect_grid(2, 3)
    data = json.loads(json.dumps(K.to_json()))
    K2 = cc.from_json(data)
    assert K.relabel_invariant_hash() == K2.relabel_invariant_hash()
    # relabeled copy (vertex ids permuted, cells reordered) hashes identically
    K3, _ = relabeled(K, random.Random(5))
    assert K.relabel_invariant_hash() == K3.relabel_invariant_hash()
    assert cc.is_isomorphic(K, K3)


def test_cell_check_heuristic():
    assert cc.cell_check(fa.rect_grid(2, 2)) == []
    annulus = fa.grid_complex(
        [(x, y) for x in range(3) for y in range(3) if (x, y) != (1, 1)])
    assert cc.cell_check(annulus)  # chi = 0
    pinched = fa.grid_complex([(0, 0), (1, 1)])
    assert cc.cell_check(pinched)  # boundary pinched / disconnected


def test_cell_check_on_paths():
    # a 1-cell's boundary is two vertices, joined by no (n-2)-cell
    assert cc.cell_check(fa.unit_cube(1)) == []
    assert cc.cell_check(fa.box_complex(1, [(0,), (1,), (2,)])) == []
    assert cc.cell_check(fa.circle_complex(4))  # chi = 0, no boundary
    tripod = cc.build_complex(1, cc.CUBICAL, range(4),
                              [(1, [0, v], cc.CUBE) for v in (1, 2, 3)])
    assert cc.cell_check(tripod)  # three ends
    circle_and_path = cc.build_complex(
        1, cc.CUBICAL, range(6), [(1, [i, (i + 1) % 4], cc.CUBE)
                                  for i in range(4)] + [(1, [4, 5], cc.CUBE)])
    assert circle_and_path.euler_characteristic() == 1
    assert cc.cell_check(circle_and_path)  # two ends, disconnected


def test_weakly_simplicial_duplicate_tops_allowed():
    C = fa.circle_complex(2)
    assert C.n_cells(1) == 2 and C.is_closed()


def test_degeneracy_flagged_not_rejected():
    # three triangles around vertex 0, pairwise adjacent: accepted
    K = cc.build_complex(2, cc.SIMPLICIAL, [0, 1, 2, 3], [
        (2, [0, 1, 2], cc.SIMPLEX),
        (2, [0, 1, 3], cc.SIMPLEX),
        (2, [2, 3, 0], cc.SIMPLEX),
    ])
    assert K.n_cells(2) == 3
    # adjacent simplices share exactly their common facet's vertices: one
    # more shared vertex would make them share all their vertices, so the
    # "one facet plus extra skeleton" degeneracy cannot occur
    for a, b, f in K.adjacency():
        assert set(K.cell(a).verts) & set(K.cell(b).verts) == \
            set(K.cell(f).verts)


# -- incidence index -------------------------------------------------------------


def first_ids(K):
    """The first id on each (dim, verts), by one scan of `cells()`."""
    first = {}
    for i, c in enumerate(K.cells()):
        first.setdefault((c.dim, c.verts), i)
    return first


def oracle_facets(K, j, first=None):
    """Facets of cell j re-derived from its vertex order, looked up by scan.

    A k-cube in binary order has facet (axis, side) on the vertices whose
    index has bit `axis` equal to `side`; a simplex drops one vertex at a
    time.  Each facet resolves to the first cell on its vertex set
    (`first_ids`, made here unless given).
    """
    c = K.cell(j)
    if c.dim == 0:
        return []
    if c.kind == cc.SIMPLEX:
        subs = [c.verts[:k] + c.verts[k + 1:] for k in range(len(c.verts))]
    else:
        subs = [[v for idx, v in enumerate(c.order) if (idx >> axis) & 1 == side]
                for axis in range(c.dim) for side in (0, 1)]
    first = first_ids(K) if first is None else first
    return [first[c.dim - 1, tuple(sorted(s))] for s in subs]


def incidence_graph(K, vertex_labels=None):
    """Cell-incidence graph, nodes coloured by `_cell_color`: the input of
    the VF2 and Weisfeiler-Lehman oracles."""
    g = nx.Graph()
    for i, c in enumerate(K.cells()):
        g.add_node(i, color=cc._cell_color(c, vertex_labels))
    for i in range(len(K.cells())):
        for f in K.facet_ids(i):
            g.add_edge(i, f)
    return g


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
    # the subcomplex on a random subset of top cells
    K = rng.choice([fa.grid_complex(random_disk_polyomino(rng, 8)),
                    cc.canonical_triangulation(fa.domino())])
    tops = K.top_ids()
    return subcomplex(K, rng.sample(tops, rng.randint(1, len(tops))))


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
    g = incidence_graph(K)
    want = oracle_incidence_graph(K, facets)
    assert list(g.nodes(data="color")) == list(want.nodes(data="color"))
    assert list(g.edges) == list(want.edges)
    # top-cell adjacency: ascending shared facet, then pairs of its cofaces
    assert K.adjacency() == [(a, b, f) for f in K.cell_ids(K.dimension - 1)
                             for a, b in itertools.combinations(cofaces[f], 2)]


def lookup_cases():
    """A complex from each constructor: cubical and weakly simplicial builds
    (the two-edge circle repeats its top), a triangulation, a subcomplex,
    and two rounds of `identify`, each an edge contracted."""
    T = cc.canonical_triangulation(fa.unit_cube(2))
    once = identify(T, {0}, 4)[0]
    return {"cubical": fa.domino(), "circle": fa.circle_complex(2),
            "doubled": fa.doubled_complex(fa.unit_cube(2)),
            "triangulation": T, "subcomplex": subcomplex(T, T.top_ids()[:3]),
            "identify": once, "identify_twice": identify(once, {3}, 7)[0]}


@pytest.mark.parametrize("name", list(lookup_cases()))
def test_lookups_match_scans(name):
    # the 0-cell bisection and the walk up the coface table against scans
    # of cells(); the bisection agrees with the reduction's rows
    K = lookup_cases()[name]
    cells, rows = K.cells(), cc._Rows(K)
    for v in K.vertices:
        want = [i for i, c in enumerate(cells) if c.verts == (v,)]
        assert K._vertex_cell(v) == want == rows._vertex_cell(v)
    for v in K.vertices:
        on = [set(c.verts) for c in cells if v in c.verts]
        assert K.star_cell_ids(v) == [i for i, c in enumerate(cells)
                                      if any(set(c.verts) <= s for s in on)]


def random_corners(rng, n, steps):
    """Integer corners of a box complex grown by random unit steps."""
    corners = {(0,) * n}
    for _ in range(steps):
        c = rng.choice(sorted(corners))
        axis, step = rng.randrange(n), rng.choice((-1, 1))
        corners.add(tuple(x + step * (a == axis) for a, x in enumerate(c)))
    return sorted(corners)


def table_case(name):
    rng = random.Random(name)
    if name.startswith("box"):
        n = int(name[-1])
        return fa.box_complex(n, random_corners(rng, n, (8, 6, 4, 3)[n - 1]))
    if name.startswith("triangulation"):
        return cc.canonical_triangulation(fa.unit_cube(int(name[-1])))
    if name == "cube5":  # rows too wide for one packed key
        return fa.unit_cube(5)
    if name == "doubled":
        return fa.doubled_complex(
            fa.grid_complex(random_disk_polyomino(rng, 4)))
    if name == "repeated_top":
        return cc.build_complex(2, cc.SIMPLICIAL, range(3),
                                [(2, [0, 1, 2], cc.SIMPLEX)] * 2)
    K = rf.refine(fa.unit_cube(3), 1).complex
    if name == "json":
        text = json.dumps(K.to_json())
        K = cc.from_json(text)
        assert json.dumps(K.to_json()) == text
    return K


TABLE_CASES = (["box1", "box2", "box3", "box4", "cube5", "doubled",
                "repeated_top", "refined", "json"]
               + [f"triangulation{n}" for n in range(1, 5)])


@pytest.mark.parametrize("name", TABLE_CASES)
def test_incidence_tables_match_oracle(name):
    # facet rows against `oracle_facets`, coface rows against a scan of them
    K = table_case(name)
    n, first = len(K.cells()), first_ids(K)
    facets = [oracle_facets(K, j, first) for j in range(n)]
    cofaces = [[] for _ in range(n)]
    for j, fs in enumerate(facets):
        for f in fs:
            cofaces[f].append(j)
    assert [K.facet_ids(j) for j in range(n)] == facets
    assert [K.coface_ids(i) for i in range(n)] == cofaces


def table_record(K):
    n = len(K.cells())
    return (json.dumps(K.to_json()), [K.facet_ids(j) for j in range(n)],
            [K.coface_ids(i) for i in range(n)])


@pytest.mark.parametrize("name", TABLE_CASES + [
    f"lookup_{name}" for name in lookup_cases()])
def test_row_path_matches_cell_path(name):
    # a complex rebuilt from its cells alone, which `_index` reads back,
    # against the rows its builder handed over
    K = (lookup_cases()[name[len("lookup_"):]] if name.startswith("lookup_")
         else table_case(name))
    C = cc.Complex(K.dimension, K.mode, K.vertices, K.cells())
    assert table_record(C) == table_record(K)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 20), st.integers(1, 7), st.integers(0, 10 ** 6))
def test_lex_keys_compare_as_rows(bits, width, seed):
    # packed keys, one chunk or several, order rows as tuples do, and a
    # query's key equals a row's exactly when the rows are equal
    rng = np.random.default_rng(seed)
    top = 1 << bits
    rows = np.unique(rng.integers(0, min(top, 4), (40, width)), axis=0)
    rows[:, -1] = rng.integers(0, top, len(rows))  # some wide values
    rows = np.unique(rows, axis=0).astype(np.int32)
    queries = np.concatenate([rows[rng.permutation(len(rows))[:10]],
                              rng.integers(0, top, (10, width))]).astype(np.int32)
    keys, qkeys = cc._lex_keys(rows, queries, bits)
    assert (np.diff(keys) > 0).all()
    tuples = [tuple(r) for r in rows.tolist()]
    for q, k in zip(queries.tolist(), qkeys.tolist()):
        assert (k in keys) == (tuple(q) in tuples)
        if tuple(q) in tuples:
            assert k == keys[tuples.index(tuple(q))]


def misordered_face():
    # a square listed before the cube, its order making the cube's face
    # diagonals edges
    return (3, cc.CUBICAL, range(8),
            [(2, [0, 2, 6, 4], cc.CUBE), (3, list(range(8)), cc.CUBE)])


def complex_cells(case):
    """(dimension, mode, vertices, cells) handed to `Complex` directly."""
    T = cc.canonical_triangulation(fa.unit_cube(2))
    cells = T.cells()
    if case == "out_of_order":
        cells = cells[::-1]
    elif case == "duplicate":
        cells.insert(T.cell_ids(1)[0], cells[T.cell_ids(1)[0]])
    elif case == "missing_face":
        del cells[T.cell_ids(1)[0]]
    return 2, cc.SIMPLICIAL, T.vertices, cells


@pytest.mark.parametrize("case,error", [
    ("unknown_vertex", UnknownVertex),
    ("non_integer_vertex", UnknownVertex),
    ("fractional_vertex", UnknownVertex),
    ("out_of_order", IllegalIntersection),
    ("duplicate", IllegalIntersection),
    ("repeated_vertex", IllegalIntersection),
    ("degenerate_simplex", IllegalIntersection),
    ("simplex_in_cubical", NotCubical),
    ("repeated_simplex_in_cubical", NotCubical),
    ("cube_in_simplicial", NotCubical),
    ("three_vertex_cube", NotCubical),
    ("four_vertex_edge", NotCubical),
    ("no_top", MissingFace),
    ("missing_face", MissingFace),
    ("overuse", FaceOveruse),
    ("misordered_face", IllegalIntersection),
    ("not_a_common_face", IllegalIntersection),
    ("simplex_above_the_dimension", IllegalIntersection),
    ("cube_above_the_dimension", IllegalIntersection),
    ("unknown_mode", ParamsInvalid),
])
def test_each_typed_error(case, error):
    # one bad input per error validation raises
    raw = {
        "unknown_vertex": (2, cc.CUBICAL, [0, 1, 2], [(2, [0, 1, 2, 9], cc.CUBE)]),
        "non_integer_vertex": (1, cc.SIMPLICIAL, ["a", "b"],
                               [(1, ["a", "b"], cc.SIMPLEX)]),
        "fractional_vertex": (1, cc.SIMPLICIAL, [0, 1],
                              [(1, [0, 1.5], cc.SIMPLEX)]),
        "repeated_vertex": (2, cc.SIMPLICIAL, [0, 1], [(2, [0, 0, 1], cc.SIMPLEX)]),
        "degenerate_simplex": (2, cc.SIMPLICIAL, [0, 1], [(2, [0, 1], cc.SIMPLEX)]),
        "simplex_in_cubical": (2, cc.CUBICAL, [0, 1, 2],
                               [(2, [0, 1, 2], cc.SIMPLEX)]),
        # an edge of the square, given again as a simplex
        "repeated_simplex_in_cubical": (2, cc.CUBICAL, range(4), [
            (2, [0, 1, 2, 3], cc.CUBE), (1, [0, 1], cc.SIMPLEX)]),
        "cube_in_simplicial": (2, cc.SIMPLICIAL, range(4),
                               [(2, [0, 1, 2, 3], cc.CUBE)]),
        "three_vertex_cube": (1, cc.CUBICAL, [0, 1, 2], [(1, [0, 1, 2], cc.CUBE)]),
        # its faces would be 0-cells on two vertices
        "four_vertex_edge": (1, cc.CUBICAL, range(4), [(1, [0, 1, 2, 3], cc.CUBE)]),
        "no_top": (3, cc.CUBICAL, range(6), raw_cells(fa.domino(), [2])),
        "overuse": (2, cc.SIMPLICIAL, range(5),
                    [(2, [0, 1, k], cc.SIMPLEX) for k in (2, 3, 4)]),
        "misordered_face": misordered_face(),
        "not_a_common_face": (2, cc.CUBICAL, range(6), [
            (2, [0, 1, 2, 3], cc.CUBE), (2, [3, 4, 5, 0], cc.CUBE)]),
        "simplex_above_the_dimension": (1, cc.SIMPLICIAL, [0, 1, 2],
                                        [(2, [0, 1, 2], cc.SIMPLEX)]),
        "cube_above_the_dimension": (1, cc.CUBICAL, range(4),
                                     [(2, [0, 1, 2, 3], cc.CUBE)]),
        "unknown_mode": (2, "foo", [0, 1, 2], [(2, [0, 1, 2], cc.SIMPLEX)]),
    }
    with pytest.raises(error):
        if case in raw:
            cc.build_complex(*raw[case])
        else:
            cc.Complex(*complex_cells(case))


@pytest.mark.parametrize("data,key", [
    ({}, "dimension"), ([], None),
    ({"dimension": 0, "mode": cc.SIMPLICIAL, "vertices": [{}], "cells": []},
     "id"),
    ({"dimension": 0, "mode": cc.SIMPLICIAL, "vertices": [{"id": 0}],
      "cells": [{"vertices": [0]}]}, "dim"),
])
def test_from_json_names_what_it_lacks(data, key):
    with pytest.raises(ParamsInvalid, match=repr(key) if key else "object"):
        cc.from_json(data)


@pytest.mark.parametrize("data,says", [
    # the mode is checked before the cells, which are checked against it
    (fa.domino().to_json() | {"mode": "foo"}, "mode 'foo'"),
    ({"dimension": 1, "mode": cc.SIMPLICIAL,
      "vertices": [{"id": 0}, {"id": 1}], "cells": [{"dim": 1, "vertices": 5}]},
     "vertices are not a list"),
], ids=["mode", "cell_vertices"])
def test_from_json_names_a_bad_value(data, says):
    with pytest.raises(ParamsInvalid, match=says):
        cc.from_json(data)


def test_complex_rejects_cells_out_of_order():
    # every complex lists its cells sorted by (dim, verts)
    T = cc.canonical_triangulation(fa.unit_cube(2))
    cells = T.cells()
    random.Random(0).shuffle(cells)
    with pytest.raises(IllegalIntersection):
        cc.Complex(2, cc.SIMPLICIAL, T.vertices, cells)


def test_adjacency_graph_components_of_boundary():
    annulus = fa.grid_complex(
        [(x, y) for x in range(3) for y in range(3) if (x, y) != (1, 1)])
    disk = fa.rect_grid(3, 2)
    for K, comps in [(annulus, 2), (disk, 1)]:
        bd = K.boundary_facet_ids()
        want = [sorted(c) for c in nx.connected_components(nx_adjacency(K, bd))]
        assert len(want) == comps
        assert rf.boundary_components(K) == want
        for a, b, f in K.adjacency(bd):
            assert K.cell(f).dim == K.dimension - 2
            assert f in K.facet_ids(a) and f in K.facet_ids(b)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=12).flatmap(lambda n: st.tuples(
    st.permutations(range(n)),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
             max_size=3 * n))))
def test_spanning_forest_matches_networkx(case):
    nodes, pairs = case
    g = nx.Graph()
    g.add_nodes_from(nodes)
    g.add_edges_from(pairs)
    # components: the same sorted lists, in the same order, repeated edges
    # and loops included
    comps, _ = cc.spanning_forest(nodes, pairs)
    assert comps == [sorted(c) for c in nx.connected_components(g)]
    # tree: Kruskal's on equal weights, edges taken in `g.edges` order
    _, tree = cc.spanning_forest(nodes, list(g.edges))
    assert {frozenset(e) for e in tree} == \
        {frozenset(e) for e in nx.minimum_spanning_tree(g).edges}
    assert len(tree) == len(nodes) - len(comps)


def test_first_end_order_is_the_networkx_edge_order():
    # find_separating_complex hands its spanning forest the adjacency sorted
    # by first end: the order networkx's graph reported its edges in
    rng = random.Random(3)
    cases = [fa.product_with_interval(fa.circle_complex(6), 3),
             cc.canonical_triangulation(fa.rect_grid(2, 2))]
    cases += [fa.grid_complex(random_disk_polyomino(rng, 12)) for _ in range(10)]
    for K in cases:
        tops = K.top_ids()
        ids = sorted(rng.sample(tops, rng.randint(1, len(tops))))
        got = sorted(K.adjacency(ids), key=lambda e: e[0])
        assert got == list(nx_adjacency(K, ids).edges(data="shared"))


def test_shared_facets():
    K = fa.rect_grid(3, 1)
    left, mid, right = sorted(K.top_ids(), key=lambda i: min(
        K.vertices[v] for v in K.cell(i).verts))
    assert K.shared_facets(mid, [left]) == \
        [f for f in K.facet_ids(mid) if f in K.facet_ids(left)]
    assert len(K.shared_facets(mid, [left, right])) == 2
    assert K.shared_facets(left, [right]) == []
    assert K.shared_facets(mid, [mid]) == []


# -- construction against the per-cell closure -------------------------------------


def oracle_closure(cell):
    """Every proper face of one cell, derived on its own (first derivation
    per vertex set kept), as build_complex once did for each given cell."""
    out = {}
    stack = [cell]
    while stack:
        c = stack.pop()
        if c.dim == 0:
            continue
        if c.kind == cc.SIMPLEX:
            subs = [c.verts[:i] + c.verts[i + 1:] for i in range(len(c.verts))]
        else:
            subs = cube_facets(c.order)
        for o in subs:
            verts = tuple(sorted(o))
            if (c.dim - 1, verts) not in out:
                f = cc.Cell(c.dim - 1, verts, c.kind,
                            verts if c.kind == cc.SIMPLEX else tuple(o))
                out[(c.dim - 1, verts)] = f
                stack.append(f)
    return list(out.values())


def oracle_build(dimension, mode, vertices, cells):
    """Pool of every given cell plus its own whole closure, first cell per
    vertex set winning (duplicate top simplices kept), sorted by key."""
    kind_default = cc.CUBE if mode == cc.CUBICAL else cc.SIMPLEX
    pool = {}

    def add(c):
        key = (c.dim, c.verts)
        if key in pool and (c.dim < dimension or mode == cc.CUBICAL):
            return
        pool.setdefault(key, []).append(c)

    for v in vertices:
        add(cc.Cell(0, (v,), kind_default))
    for dim, vs, kind in cells:
        c = cc.Cell(dim, tuple(sorted(vs)), kind,
                    tuple(vs) if kind == cc.CUBE else None)
        add(c)
        for f in oracle_closure(c):
            add(f)
    flat = sorted((c for cs in pool.values() for c in cs),
                  key=lambda c: (c.dim, c.verts))
    return cc.Complex(dimension, mode, vertices, flat)


def outcome(build, args):
    try:
        K = build(*args)
    except CubalexError as exc:
        return type(exc).__name__
    return json.dumps(K.to_json())


def reorient(order, rng):
    """The cube's binary order under a random symmetry of the cube (axes
    permuted, some reflected): the same cube, differently oriented."""
    k = (len(order) - 1).bit_length()
    perm = rng.sample(range(k), k)
    flip = rng.randrange(2 ** k)
    return [order[sum((((i >> a) ^ (flip >> a)) & 1) << perm[a]
                      for a in range(k))] for i in range(2 ** k)]


def raw_cells(K, dims):
    return [(c.dim, list(c.order), c.kind) for c in K.cells() if c.dim in dims]


def construction_case(kind, seed):
    """(dimension, mode, vertices, cells) raw input for build_complex."""
    rng = random.Random(seed)
    if kind == "polyomino":
        K = fa.grid_complex(random_disk_polyomino(rng, 9))
    elif kind == "box3d":
        corners = {(0, 0, 0)}
        for _ in range(rng.randint(0, 5)):
            x, y, z = rng.choice(sorted(corners))
            axis = rng.randrange(3)
            step = rng.choice((-1, 1))
            corners.add(tuple(c + step * (a == axis)
                              for a, c in enumerate((x, y, z))))
        K = fa.box_complex(3, sorted(corners))
    elif kind == "product":
        K = fa.product_with_interval(fa.circle_complex(rng.randint(3, 5)), 2)
    elif kind == "triangulation":
        K = cc.canonical_triangulation(rng.choice(
            [fa.grid_complex(random_disk_polyomino(rng, 4)), fa.unit_cube(3)]))
    else:  # doubled
        K = fa.doubled_complex(fa.grid_complex(random_disk_polyomino(rng, 3)))
    n = K.dimension
    cells = raw_cells(K, [n])
    # explicit lower cells, some reversed, anywhere in the list
    lower = raw_cells(K, range(1, n))
    for dim, vs, kind_ in rng.sample(lower, rng.randint(0, len(lower) // 3)):
        if rng.random() < 0.5:
            vs = vs[::-1] if kind_ == cc.SIMPLEX else reorient(vs, rng)
        cells.insert(rng.randint(0, len(cells)), (dim, vs, kind_))
    if K.mode == cc.CUBICAL:
        cells = [(d, reorient(vs, rng) if rng.random() < 0.5 else vs, k)
                 for d, vs, k in cells]
    else:
        cells = [(d, rng.sample(vs, len(vs)), k) for d, vs, k in cells]
    if rng.random() < 0.5:
        rng.shuffle(cells)
    return n, K.mode, dict(K.vertices), cells


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["polyomino", "box3d", "product", "triangulation",
                        "doubled"]),
       st.integers(min_value=0, max_value=10 ** 6))
def test_build_complex_matches_per_cell_closure(kind, seed):
    args = construction_case(kind, seed)
    want = outcome(oracle_build, args)
    assert want.startswith("{")  # a complex, not an error: input well formed
    assert outcome(cc.build_complex, args) == want


def cube_pair_sharing_a_square(first):
    """Two unit cubes on the square x = 1, in standard order and with y and
    z swapped, so that each induces the square in a different order; the
    cube listed first is `first` (0 or 1)."""
    pos, cubes = {}, []
    for x, axes in ((0, (0, 1, 2)), (1, (0, 2, 1))):
        cubes.append([pos.setdefault(tuple(
            (x if c == 0 else 0) + ((i >> axes[c]) & 1) for c in range(3)),
            len(pos)) for i in range(8)])
    cells = [(3, cubes[first], cc.CUBE), (3, cubes[1 - first], cc.CUBE)]
    return 3, cc.CUBICAL, {v: p for p, v in pos.items()}, cells


def pinned_construction_case(name):
    """(dimension, mode, vertices, cells) for `build_complex` beyond the
    sizes of the random construction cases."""
    rng = random.Random(name)
    if name == "refined_tops":  # 729 cubes, shuffled
        R = rf.refine(fa.unit_cube(3), 2).complex
        cells = raw_cells(R, [3])
        rng.shuffle(cells)
        return 3, cc.CUBICAL, dict(R.vertices), cells
    if name == "cube5":
        K = fa.unit_cube(5)
        return 5, cc.CUBICAL, dict(K.vertices), raw_cells(K, [5])
    if name.startswith("shared_square"):
        return cube_pair_sharing_a_square(int(name[-1]))
    if name == "lower_cells":  # reoriented, before and after their tops
        K = fa.box_complex(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 1, 1)])
        lower = [(d, reorient(vs, rng), k)
                 for d, vs, k in rng.sample(raw_cells(K, [1, 2]), 12)]
        return (3, cc.CUBICAL, dict(K.vertices),
                lower[:6] + raw_cells(K, [3]) + lower[6:])
    # weakly simplicial: a doubled triangle and a doubled edge, repeated
    # tops, a lower cell before and after them
    return 2, cc.SIMPLICIAL, dict.fromkeys(range(6)), [
        (1, [2, 0], cc.SIMPLEX), (2, [0, 1, 2], cc.SIMPLEX),
        (2, [2, 1, 0], cc.SIMPLEX), (2, [3, 4, 5], cc.SIMPLEX),
        (1, [4, 3], cc.SIMPLEX), (2, [5, 3, 4], cc.SIMPLEX)]


@pytest.mark.parametrize("name", ["refined_tops", "cube5", "shared_square0",
                                  "shared_square1", "lower_cells",
                                  "repeated_tops"])
def test_build_complex_matches_oracle_on_pinned_cases(name):
    args = pinned_construction_case(name)
    want = outcome(oracle_build, args)
    assert want.startswith("{")  # a complex, not an error
    assert outcome(cc.build_complex, args) == want
    text = json.dumps(cc.build_complex(*args).to_json())
    assert json.dumps(cc.from_json(text).to_json()) == text


def test_first_given_cube_fixes_a_shared_face_order():
    # the shared square takes the order of the cube listed first
    orders = []
    for first in (0, 1):
        args = cube_pair_sharing_a_square(first)
        K = cc.build_complex(*args)
        square = set(args[3][0][1]) & set(args[3][1][1])
        orders.append(next(c.order for c in K.cells()
                           if c.dim == 2 and set(c.verts) == square))
        induced = [v for v in args[3][0][1] if v in square]
        assert list(orders[-1]) == induced
    assert orders[0] != orders[1]


def twisted_cube_pair():
    # the second cube meets the first in the vertex set of a square, but its
    # own order makes a diagonal of that square one of its edges
    A = fa.unit_cube(3)
    pos = {p: v for v, p in A.vertices.items()}
    for x in (0, 1):
        for y in (0, 1):
            for z in (0, 1):
                pos.setdefault((x + 1, y, z), len(pos))
    order = [pos[(1 + (i & 1), (i >> 1) & 1, (i >> 2) & 1)] for i in range(8)]
    order[2], order[6] = order[6], order[2]
    return [(3, list(A.cell(A.top_ids()[0]).order), cc.CUBE),
            (3, order, cc.CUBE)], sorted(pos.values())


@pytest.mark.parametrize("case,error", [
    ("no_top", MissingFace),
    ("diagonal", IllegalIntersection),
    ("twisted_square", IllegalIntersection),
    ("twisted_cubes", IllegalIntersection),
    ("overuse", FaceOveruse),
    ("repeated_vertex_simplex", IllegalIntersection),
    ("repeated_vertex_cube", IllegalIntersection),
    ("repeated_id", IllegalIntersection),
    ("repeated_json_id", IllegalIntersection),
])
def test_malformed_input_raises_as_before(case, error):
    # a repeated vertex id is lost in the oracle's vertex map, so those two
    # cases have no oracle: each once merged the repeated id silently
    if case == "repeated_id":
        with pytest.raises(error):
            cc.build_complex(2, cc.CUBICAL, [0, 1, 2, 3, 3],
                             [(2, [0, 1, 2, 3], cc.CUBE)])
        return
    if case == "repeated_json_id":
        data = fa.unit_cube(2).to_json()
        data["vertices"].append({"id": 3, "coords": [5.0, 5.0]})
        with pytest.raises(error):
            cc.from_json(json.dumps(data))
        return
    if case == "no_top":
        args = (3, cc.CUBICAL, list(range(6)), raw_cells(fa.domino(), [2]))
    elif case == "diagonal":
        args = (2, cc.CUBICAL, list(range(6)),
                [(2, [0, 1, 2, 3], cc.CUBE), (2, [3, 4, 5, 0], cc.CUBE)])
    elif case == "twisted_square":
        args = (2, cc.CUBICAL, list(range(4)),
                [(2, [0, 1, 2, 3], cc.CUBE), (2, [0, 1, 3, 2], cc.CUBE)])
    elif case == "twisted_cubes":
        cells, verts = twisted_cube_pair()
        args = (3, cc.CUBICAL, verts, cells)
    elif case == "repeated_vertex_simplex":
        args = (2, cc.SIMPLICIAL, [0, 1], [(2, [0, 0, 1], cc.SIMPLEX)])
    elif case == "repeated_vertex_cube":
        args = (2, cc.CUBICAL, [0, 1, 2], [(2, [0, 1, 2, 2], cc.CUBE)])
    else:
        args = (2, cc.SIMPLICIAL, list(range(5)),
                [(2, [0, 1, k], cc.SIMPLEX) for k in (2, 3, 4)])
    args = (args[0], args[1], {v: None for v in args[2]}, args[3])
    assert outcome(oracle_build, args) == error.__name__
    with pytest.raises(error):
        cc.build_complex(*args)


def test_complex_validation_finds_missing_face():
    # cells handed to Complex directly are validated in full
    T = cc.canonical_triangulation(fa.unit_cube(2))
    edge = T.cell_ids(1)[0]
    cells = [c for i, c in enumerate(T.cells()) if i != edge]
    with pytest.raises(MissingFace):
        cc.Complex(2, cc.SIMPLICIAL, T.vertices, cells)


# -- the cubical check against the pairwise reference -------------------------------


def reference_subfaces(K, i):
    """Vertex sets of cell i and of every cell in its stored face closure."""
    out = {K.cell(i).verts}
    stack = [i]
    while stack:
        for f in K.facet_ids(stack.pop()):
            if K.cell(f).verts not in out:
                out.add(K.cell(f).verts)
                stack.append(f)
    return out


class PairwiseComplex(cc.Complex):
    """Complex validated as it once was: every pair of cells, of every
    dimension, that shares a vertex must meet in a stored face of both."""

    def _validate(self, rows):
        n, cells = self.dimension, self.cells()
        index, incident = {}, {v: [] for v in self.vertices}
        for i, c in enumerate(cells):
            if len(set(c.verts)) < len(c.verts):
                raise IllegalIntersection(f"cell {c.verts} repeats a vertex")
            index.setdefault((c.dim, c.verts), []).append(i)
            for v in c.verts:
                if v not in incident:
                    raise UnknownVertex(f"cell {c.verts} uses vertex {v}")
                incident[v].append(i)
        if not self._by_dim.get(n):
            raise MissingFace(f"no cell of dimension {n}")
        for (dim, verts), ids in index.items():
            if len(ids) > 1 and (dim < n or self.mode == cc.CUBICAL):
                raise IllegalIntersection(f"duplicate cells on {verts}")
        self._index(rows)
        if self.mode != cc.CUBICAL:
            return self._validate_weakly_simplicial()
        for c in cells:
            if c.kind != cc.CUBE:
                raise NotCubical(f"non-cube cell {c.verts}")
        subfaces = [reference_subfaces(self, i) for i in range(len(cells))]
        for ids in incident.values():
            for a, b in itertools.combinations(ids, 2):
                shared = tuple(sorted(set(cells[a].verts) & set(cells[b].verts)))
                if not (shared in subfaces[a] and shared in subfaces[b]):
                    raise IllegalIntersection(
                        f"{cells[a].verts} and {cells[b].verts} meet in {shared}")


def pairwise_build(*args):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cc, "Complex", PairwiseComplex)
        return cc.build_complex(*args)


def mutate(args, how, rng):
    """One local corruption of a raw build_complex input."""
    n, mode, verts, cells = args
    cells = [(d, list(vs), k) for d, vs, k in cells]
    j = rng.randrange(len(cells))
    d, vs, k = cells[j]
    if how == "scramble":  # one top cube's binary order shuffled
        j = rng.choice([i for i, c in enumerate(cells) if c[0] == n])
        cells[j][1][:] = rng.sample(cells[j][1], len(cells[j][1]))
    elif how == "swap":  # two vertices of one cell exchanged
        a, b = rng.sample(range(len(vs)), 2)
        vs[a], vs[b] = vs[b], vs[a]
    elif how == "identify":  # two vertices made one
        keep, gone = rng.sample(sorted(verts), 2)
        verts = {v: x for v, x in verts.items() if v != gone}
        cells = [(d, [keep if v == gone else v for v in vs], k)
                 for d, vs, k in cells]
    elif how == "drop":
        del cells[j]
    return n, mode, verts, cells


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["polyomino", "box3d", "product"]),
       st.sampled_from(["none", "scramble", "swap", "identify", "drop"]),
       st.integers(min_value=0, max_value=10 ** 6))
def test_cubical_check_matches_pairwise_reference(kind, how, seed):
    rng = random.Random(seed)
    args = mutate(construction_case(kind, seed), how, rng)
    assert outcome(cc.build_complex, args) == outcome(pairwise_build, args)


def pendant_case(kind, big):
    """Raw input of a cubical complex whose maximal cells have two
    dimensions: squares with a pendant edge at a corner, or cubes with a
    pendant square on an edge, with fewer maximal cells than `_BATCH_FROM`
    or, if `big`, more."""
    if kind == "edge":
        K = fa.rect_grid(4, 4) if big else fa.unit_cube(2)
        pendant = [(0, 0), (-1, 0)]
    else:
        K = fa.box_complex(3, [(x, y, z) for x in range(2) for y in range(3)
                               for z in range(3)] if big else [(0, 0, 0)])
        pendant = [(-1, 0, 0), (0, 0, 0), (-1, 1, 0), (0, 1, 0)]
    pos = {p: v for v, p in K.vertices.items()}
    for p in pendant:
        pos.setdefault(p, len(pos))
    cells = raw_cells(K, [K.dimension]) + [
        (len(pendant).bit_length() - 1, [pos[p] for p in pendant], cc.CUBE)]
    return K.dimension, cc.CUBICAL, {v: p for p, v in pos.items()}, cells


def maximal_cells(K):
    return sum(not K.coface_ids(i) for i in range(len(K.cells())))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["edge", "square"]), st.booleans(),
       st.sampled_from(["none", "scramble", "swap", "identify", "drop"]),
       st.integers(min_value=0, max_value=10 ** 6))
def test_pass_b_on_non_pure_complexes_matches_pairwise(kind, big, how, seed):
    # maximal cells of two dimensions, on both sides of the batch threshold
    args = pendant_case(kind, big)
    assert (maximal_cells(cc.build_complex(*args)) >= cc._BATCH_FROM) == big
    args = mutate(args, how, random.Random(seed))
    assert outcome(cc.build_complex, args) == outcome(pairwise_build, args)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["polyomino", "box3d", "product"]),
       st.sampled_from(["none", "scramble", "swap", "identify", "drop"]),
       st.integers(min_value=0, max_value=10 ** 6))
def test_pass_b_loop_and_batch_agree(kind, how, seed):
    # each random case through the pair loop and through the batch
    args = mutate(construction_case(kind, seed), how, random.Random(seed))
    got = []
    for batch_from in (10 ** 9, 0):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cc, "_BATCH_FROM", batch_from)
            got.append(outcome(cc.build_complex, args))
    assert got[0] == got[1] == outcome(pairwise_build, args)


def refined_tops():
    R = rf.refine(fa.unit_cube(3), 2).complex
    return 3, cc.CUBICAL, dict(R.vertices), raw_cells(R, [3])


@pytest.mark.parametrize("how", ["none", "scramble", "swap", "identify",
                                 "drop"])
def test_pass_b_on_a_refined_cube_matches_pairwise(how):
    # 729 maximal cubes go through the batched pass (b)
    args = mutate(refined_tops(), how, random.Random(how))
    assert outcome(cc.build_complex, args) == outcome(pairwise_build, args)


def test_pass_b_finds_a_diagonal_among_refined_cubes():
    # the last cube's corners 0 and 3 renamed to the first cube's: the two
    # meet in a diagonal of a square of each, which only pass (b) sees
    n, mode, verts, tops = refined_tops()
    a, b = tops[0][1], tops[-1][1]
    rename = {b[0]: a[0], b[3]: a[3]}
    args = (n, mode, {v: x for v, x in verts.items() if v not in rename},
            [(d, [rename.get(v, v) for v in vs], k) for d, vs, k in tops])
    assert outcome(pairwise_build, args) == "IllegalIntersection"
    for batch_from in (10 ** 9, 0):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cc, "_BATCH_FROM", batch_from)
            with pytest.raises(IllegalIntersection, match="common face"):
                cc.build_complex(*args)


# -- cube facets against the bit-test formula ---------------------------------------


def cube_facets(order):
    """The 2k codimension-1 faces of a k-cube given in binary order, one
    cell at a time, by the gather `build_complex` runs on whole row arrays
    (`_facet_index`)."""
    return [tuple(order[i] for i in row)
            for row in cc._facet_index(len(order)).tolist()]


def reference_cube_facets(order):
    """`cube_facets` as a bit test per vertex and facet."""
    k = (len(order) - 1).bit_length()
    if 2 ** k != len(order):
        raise NotCubical(f"cube with {len(order)} vertices")
    return [tuple(order[i] for i in range(2 ** k) if (i >> axis) & 1 == side)
            for axis in range(k) for side in (0, 1)]


@pytest.mark.parametrize("size", [1, 2, 4, 8, 16, 32, 64])
def test_cube_facets_match_bit_formula(size):
    order = random.Random(size).sample(range(1000), size)
    want = reference_cube_facets(order)
    assert cube_facets(order) == want  # a list in, tuples out
    assert cube_facets(tuple(order)) == want


@pytest.mark.parametrize("size", [3, 5, 6, 12])
def test_cube_facets_reject_non_power_of_two(size):
    with pytest.raises(NotCubical):
        reference_cube_facets(tuple(range(size)))
    with pytest.raises(NotCubical):
        cube_facets(tuple(range(size)))


# -- triangulation against the flag route --------------------------------------------


def flag_triangulation(K):
    """T as canonical_triangulation once built it: the maximal flags of K's
    top cubes, handed to build_complex, which derives every face."""
    n = K.dimension
    cubes = sorted(range(len(K.cells())),
                   key=lambda i: (K.cell(i).dim, K.cell(i).verts))
    next_id = max(K.vertices) + 1 if K.vertices else 0
    center = {}
    vcoords = dict(K.vertices)
    vdim = {v: 0 for v in K.vertices}
    for i in cubes:
        c = K.cell(i)
        if c.dim == 0:
            center[i] = c.verts[0]
            continue
        center[i] = next_id
        vdim[next_id] = c.dim
        coords = [K.vertices[v] for v in c.verts]
        if all(x is not None for x in coords):
            d = len(coords[0])
            vcoords[next_id] = tuple(
                sum(x[j] for x in coords) / len(coords) for j in range(d))
        else:
            vcoords[next_id] = None
        next_id += 1
    flags = {}
    for i in cubes:
        flags[i] = ([[i]] if K.cell(i).dim == 0 else
                    [chain + [i] for f in K.facet_ids(i) for chain in flags[f]])
    tops = [(n, [center[j] for j in chain], cc.SIMPLEX)
            for i in K.top_ids() for chain in flags[i]]
    T = cc.build_complex(n, cc.SIMPLICIAL, vcoords, tops)
    T.vertex_cube_dim.update(vdim)
    return T


def square_with_dangling_edge():
    return cc.build_complex(2, cc.CUBICAL, list(range(5)), [
        (2, [0, 1, 2, 3], cc.CUBE), (1, [3, 4], cc.CUBE)])


def cube_with_dangling_square():
    # the square x in [1, 2], y in [0, 1], z = 0 shares one edge of the cube
    K = fa.unit_cube(3)
    pos = {p: v for v, p in K.vertices.items()}
    for p in [(2, 0, 0), (2, 1, 0)]:
        pos[p] = len(pos)
    square = [pos[p] for p in [(1, 0, 0), (2, 0, 0), (1, 1, 0), (2, 1, 0)]]
    return cc.build_complex(3, cc.CUBICAL, {v: p for p, v in pos.items()}, [
        (3, list(K.cell(K.top_ids()[0]).order), cc.CUBE),
        (2, square, cc.CUBE)])


def triangulation_inputs(name):
    if name.startswith("cube"):
        return [fa.unit_cube(int(name[4:]))]
    if name == "disks6":
        return [fa.grid_complex(p) for ps in fa.free_polyominoes(6).values()
                for p in ps if fa.is_disk_polyomino(p)]
    if name == "cone44":
        return [fa.grid_complex(CONE44)]
    if name == "boxes":
        return [fa.box_complex(3, c) for c in BENCH_BOXES_3D]
    if name == "circle6_x_3":
        return [fa.product_with_interval(fa.circle_complex(6), 3)]
    if name == "refined_square":
        return [rf.refine(fa.unit_cube(2), 1).complex]
    return [square_with_dangling_edge(), cube_with_dangling_square()]


def triangulation_record(T):
    return (json.dumps(T.to_json()),
            [T.facet_ids(i) for i in range(len(T.cells()))],
            T.vertex_cube_dim, list(T.vertices.items()))


@pytest.mark.parametrize("name", ["cube1", "cube2", "cube3", "cube4", "disks6",
                                  "cone44", "boxes", "circle6_x_3",
                                  "refined_square", "non_pure"])
def test_triangulation_matches_flag_route(name):
    inputs = triangulation_inputs(name)
    assert name != "disks6" or len(inputs) == 56
    for K in inputs:
        want = triangulation_record(flag_triangulation(K))
        assert triangulation_record(cc.canonical_triangulation(K)) == want


def test_triangulation_of_non_pure_complex_skips_dangling_chains():
    # square: 9 vertices, 16 edges, 8 triangles; the dangling edge adds its
    # far end and its centre, but no edge of T (no top cube lies over it)
    T = cc.canonical_triangulation(square_with_dangling_edge())
    assert [T.n_cells(d) for d in range(3)] == [11, 16, 8]


def chain_count_oracle(n, k):
    """k-simplices of the flag triangulation of the unit n-cube: a chain of
    face dimensions d_0 < ... < d_k, counted as the d_k-faces of the n-cube
    times, down the chain, the d_j-faces of a d_(j+1)-cube."""
    def faces(d, e):  # e-faces of a d-cube
        return math.comb(d, e) * 2 ** (d - e)
    return sum(faces(n, ds[-1]) * math.prod(faces(b, a)
                                            for a, b in zip(ds, ds[1:]))
               for ds in itertools.combinations(range(n + 1), k + 1))


def test_triangulation_f_vector_matches_closed_form():
    want = [243, 2882, 10800, 17760, 13440, 3840]
    assert [chain_count_oracle(5, k) for k in range(6)] == want  # oracle first
    T = cc.canonical_triangulation(fa.unit_cube(5))
    assert [T.n_cells(k) for k in range(6)] == want
    for n in range(1, 5):
        T = cc.canonical_triangulation(fa.unit_cube(n))
        assert [T.n_cells(k) for k in range(n + 1)] == [
            chain_count_oracle(n, k) for k in range(n + 1)]


def test_triangulation_does_not_call_build_complex(monkeypatch):
    K = fa.unit_cube(3)

    def refuse(*args):
        raise AssertionError("build_complex called")

    monkeypatch.setattr(cc, "build_complex", refuse)
    T = cc.canonical_triangulation(K)
    assert T.n_cells(3) == 48


def oracle_cube_flags(K, ids, centre):
    """The flags of nested cubes that end at a cube of `ids` or a face of
    one, keyed by their last cube, as tuples of centres, by recursion: a
    cube's flags are itself alone and each flag of a proper face, extended
    by it."""
    chains = {}
    for i in K._closure(ids):  # ascending: every face before its cofaces
        chains[i] = [(centre[i],)] + [
            chain + (centre[i],)
            for f in K._closure(K.facet_ids(i)) for chain in chains[f]]
    return chains


def oracle_triangulation(K):
    """The flag triangulation listed from the recursive flags and sorted
    by (length, centres)."""
    centres = cc.flag_centres(K)
    centre = [v for v, _ in centres]
    chains = oracle_cube_flags(K, K.top_ids(), centre)
    simplices = [(v,) for i, v in enumerate(centre) if i not in chains]
    simplices += [t for flags in chains.values() for t in flags]
    simplices.sort(key=lambda t: (len(t), t))
    return cc.Complex(
        K.dimension, cc.SIMPLICIAL, dict(K.vertices) | dict(centres),
        [cc.Cell(len(t) - 1, t, cc.SIMPLEX) for t in simplices],
        vertex_cube_dim={v: 0 for v in K.vertices} | {
            v: c.dim for v, c in zip(centre, K.cells())})


def oracle_star_replacement(K):
    """K* built by `build_complex` from its top simplices: the full flags
    under K's boundary (n-1)-cubes, each coned to a new vertex."""
    cc.assert_cell(K)
    n = K.dimension
    centres = cc.flag_centres(K)
    cube = {v: i for i, (v, _) in enumerate(centres)}
    bfacets = K.boundary_facet_ids()
    chains = oracle_cube_flags(K, bfacets, [v for v, _ in centres])
    flags = [t for i in bfacets for t in chains[i] if len(t) == n]
    keep = set().union(*flags)
    verts = {v: centres[cube[v]][1] for v in keep}
    apex = max(cube) + 1
    verts[apex] = None
    S = cc.build_complex(n, cc.SIMPLICIAL, verts,
                         [(n, t + (apex,), cc.SIMPLEX) for t in flags])
    S.vertex_cube_dim.update({v: K.cell(cube[v]).dim for v in keep})
    S.vertex_cube_dim[apex] = n
    return S


def shifted(K, by):
    """K with every vertex id raised by `by`."""
    return cc.build_complex(
        K.dimension, K.mode, {v + by: x for v, x in K.vertices.items()},
        [(c.dim, [v + by for v in c.order], c.kind)
         for c in K.cells() if c.dim == K.dimension])


def flag_case(name):
    rng = random.Random(name)
    if name.startswith("cube"):
        return fa.unit_cube(int(name[-1]))
    if name.startswith("disk"):
        return fa.grid_complex(random_disk_polyomino(rng, 9))
    if name.startswith("box"):
        return fa.box_complex(3, random_corners(rng, 3, 5))
    if name == "product":
        return fa.product_with_interval(fa.grid_complex([(0, 0), (1, 0)]), 2)
    if name == "refined":
        return rf.refine(fa.unit_cube(2), 1).complex
    if name == "dangling":  # a maximal edge below the top dimension
        return square_with_dangling_edge()
    if name == "dangling3":
        return cube_with_dangling_square()
    return shifted(fa.box_complex(3, BENCH_BOXES_3D[2]), 2 ** 33)  # "big_ids"


FLAG_CASES = ([f"cube{n}" for n in range(1, 6)]
              + [f"disk{i}" for i in range(6)] + [f"box{i}" for i in range(4)]
              + ["product", "refined", "dangling", "dangling3", "big_ids"])


def flag_digest(build, K):
    """Everything a triangulation is compared on, or its error type; the
    facet and coface tables are compared whole, as `facet_ids` and
    `coface_ids` slice them."""
    try:
        T = build(K)
    except CubalexError as exc:
        return type(exc).__name__
    return (json.dumps(T.to_json()), T.vertex_cube_dim,
            [bytes(a) for a in T._facets + T._coface_table()])


@pytest.mark.parametrize("name", FLAG_CASES)
def test_flag_kernel_matches_recursive_flags(name):
    K = flag_case(name)
    assert flag_digest(cc.canonical_triangulation, K) == flag_digest(
        oracle_triangulation, K)
    assert flag_digest(sh.star_replacement, K) == flag_digest(
        oracle_star_replacement, K)


def test_flag_rows_are_sorted_flags():
    K = cube_with_dangling_square()
    rows = cc.flag_rows(K, K.top_ids())
    chains = oracle_cube_flags(K, K.top_ids(), range(len(K.cells())))
    want = sorted(t for flags in chains.values() for t in flags)
    assert [r.dtype for r in rows] == [np.int32] * len(rows)
    assert [tuple(t) for r in rows for t in r.tolist()] == sorted(
        want, key=len)


def test_simplices_are_stored_in_vertex_order():
    # the second edge of the two-edge circle is given as [1, 0]
    C = fa.circle_complex(2)
    assert [c["vertices"] for c in C.to_json()["cells"]] == [
        [0], [1], [0, 1], [0, 1]]
    assert all(c.order == c.verts for c in C.cells())


def test_doubled_closed_complex_is_two_copies():
    # no boundary facet: the closure of none is no cube, so no vertex of the
    # triangulated cube surface (26 vertices, 72 edges, 48 triangles) is
    # shared by its two copies
    K = fa.unit_cube(3)
    S = cc.build_complex(2, cc.CUBICAL, K.vertices,
                         [(2, list(c.order), c.kind) for c in K.cells()
                          if c.dim == 2])
    assert [r.shape for r in cc.flag_rows(S, [])] == [(0, 1)]
    D = fa.doubled_complex(S)
    assert [D.n_cells(d) for d in range(3)] == [52, 144, 96]
    assert D.is_closed() and not D.is_simplicially_connected()


def test_cell_contract():
    t = (3, 5, 8)
    c = cc.Cell(2, t, cc.SIMPLEX)
    assert c.order is t
    assert cc.Cell(2, t, cc.SIMPLEX, (8, 5, 3)).order == (8, 5, 3)
    for name in ("dim", "verts", "kind", "order"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(c, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(c, name)
    same = cc.Cell(2, (3, 5, 8), cc.SIMPLEX, (3, 5, 8))
    assert c == same and hash(c) == hash(same)
    assert c != cc.Cell(2, t, cc.CUBE)
    assert repr(c) == ("Cell(dim=2, verts=(3, 5, 8), kind='simplex', "
                       "order=(3, 5, 8))")
    assert [f.name for f in dataclasses.fields(cc.Cell)] == [
        "dim", "verts", "kind", "order"]
    assert dataclasses.replace(c, dim=1) == cc.Cell(1, t, cc.SIMPLEX)
    assert not hasattr(c, "__dict__")


# -- isomorphism against the VF2 oracle ---------------------------------------------


def vf2_isomorphic(K1, K2, labels1=None, labels2=None):
    """The reference: networkx VF2 on the coloured incidence graphs."""
    g1 = incidence_graph(K1, labels1)
    g2 = incidence_graph(K2, labels2)
    if g1.number_of_nodes() != g2.number_of_nodes():
        return False
    return nx.algorithms.isomorphism.GraphMatcher(
        g1, g2, node_match=lambda a, b: a["color"] == b["color"]).is_isomorphic()


@pytest.fixture(scope="module")
def small_complexes():
    """The disk polyominoes of at most 6 cells, the triangulated square and
    3-cube, and the 3-cube."""
    disks = [fa.grid_complex(p) for shapes in fa.free_polyominoes(6).values()
             for p in shapes if fa.is_disk_polyomino(p)]
    return disks + [cc.canonical_triangulation(fa.unit_cube(2)),
                    cc.canonical_triangulation(fa.unit_cube(3)),
                    fa.unit_cube(3)]


def test_isomorphism_matches_vf2_on_every_pair(small_complexes):
    pairs = list(itertools.combinations_with_replacement(small_complexes, 2))
    assert len(pairs) == 1770
    for K1, K2 in pairs:
        assert cc.is_isomorphic(K1, K2) == vf2_isomorphic(K1, K2)


def test_relabeled_copy_is_isomorphic_and_one_cell_less_is_not(small_complexes):
    rng = random.Random(10)
    for K in small_complexes:
        K2, _ = relabeled(K, rng)
        assert cc.is_isomorphic(K, K2) and cc.is_isomorphic(K2, K)
        top = rng.choice(K2.top_ids())
        fewer = subcomplex(K2, [i for i in range(len(K2.cells())) if i != top])
        assert not cc.is_isomorphic(K, fewer)
        assert not cc.is_isomorphic(fewer, K)


def test_vertex_labels_must_correspond(small_complexes):
    rng = random.Random(11)
    for K in small_complexes:
        labels = {v: rng.randrange(3) for v in K.vertices}
        K2, perm = relabeled(K, rng)
        moved = {perm[v]: x for v, x in labels.items()}
        assert cc.is_isomorphic(K, K2, labels, moved)
        one_off = dict(moved)
        one_off[rng.choice(sorted(moved))] = 3
        assert not cc.is_isomorphic(K, K2, labels, one_off)
        assert not cc.is_isomorphic(K, K2, labels, None)
        # a swap keeps every label's count, so only the structure decides
        u, w = rng.sample(sorted(moved), 2)
        swapped = dict(moved)
        swapped[u], swapped[w] = moved[w], moved[u]
        assert (cc.is_isomorphic(K, K2, labels, swapped)
                == vf2_isomorphic(K, K2, labels, swapped))


# -- the relabelling-invariant hash ----------------------------------------------------


@pytest.fixture(scope="module")
def hash_complexes():
    """The disk polyominoes of at most 7 cells, the triangulated square and
    3-cube, the 3-cube, the doubled domino, and the 2- and 3-edge circles."""
    disks = [fa.grid_complex(p) for shapes in fa.free_polyominoes(7).values()
             for p in shapes if fa.is_disk_polyomino(p)]
    return disks + [cc.canonical_triangulation(fa.unit_cube(2)),
                    cc.canonical_triangulation(fa.unit_cube(3)),
                    fa.unit_cube(3), fa.doubled_complex(fa.domino()),
                    fa.circle_complex(2), fa.circle_complex(3)]


def test_hash_separates_what_weisfeiler_lehman_separates(hash_complexes):
    ours = [K.relabel_invariant_hash() for K in hash_complexes]
    wl = [nx.weisfeiler_lehman_graph_hash(incidence_graph(K), node_attr="color")
          for K in hash_complexes]
    pairs = [(i, j) for i, j in itertools.combinations(range(len(wl)), 2)
             if wl[i] != wl[j]]
    assert len(hash_complexes) == 169 and len(pairs) == 14195
    assert all(ours[i] != ours[j] for i, j in pairs)


def test_hash_invariant_under_relabelling(hash_complexes):
    rng = random.Random(12)
    for K in hash_complexes:
        K2, _ = relabeled(K, rng)
        assert K2.relabel_invariant_hash() == K.relabel_invariant_hash()


def test_hash_independent_of_string_hashing():
    src = str(Path(cc.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); "
            "from cubalex import complex_core as cc, factories as fa; "
            "print([K.relabel_invariant_hash() for K in ("
            "fa.rect_grid(2, 3), cc.canonical_triangulation(fa.unit_cube(3)), "
            "fa.doubled_complex(fa.domino()), fa.circle_complex(2))])")
    outs = [subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, check=True,
                           env={**os.environ, "PYTHONHASHSEED": seed}).stdout
            for seed in ("0", "1")]
    # pinned, so that a change to the order of class ids shows
    want = repr([
        "2e1661922d210ca2b120db61d00187cb6afa83c123fa04e8abe4f14a38160d72",
        "d94c13648afff771d518f75d0437d719e6636b9a3ee6b1352552e8ffab4b2b02",
        "249c76354941053aa6e79a9bebd448df7c324495c67a4be9dd09781cbc094247",
        "55ff4c6eb04541a1bbf9ad994259d1959a7224e03245a4819349134892f13ec7"])
    assert outs[0] == outs[1]
    assert outs[0].strip() == want == repr([
        K.relabel_invariant_hash() for K in (
            fa.rect_grid(2, 3), cc.canonical_triangulation(fa.unit_cube(3)),
            fa.doubled_complex(fa.domino()), fa.circle_complex(2))])


def resigned(adj, color, classes, changed):
    """Round-by-round refinement, the oracle of `_refine`: in rounds, every
    class holding a neighbour of a cell whose colour changed in the last
    round (`changed` at first) is re-signed in full, a cell's signature
    being the sorted tuple of its neighbours' colours.  A split class keeps
    its id for the part with the smallest signature; the other parts get
    fresh ids, which take effect after the round."""
    while changed:
        touched = sorted({color[u] for v in changed for u in adj[v]})
        changed, fresh = [], len(classes)
        for k in touched:
            if len(classes[k]) == 1:
                continue
            parts = {}
            for v in classes[k]:
                sig = tuple(sorted([color[u] for u in adj[v]]))
                parts.setdefault(sig, []).append(v)
            if len(parts) == 1:
                continue
            first, *rest = sorted(parts)
            classes[k] = parts[first]
            for sig in rest:
                classes.append(parts[sig])
                changed += parts[sig]
        for k in range(fresh, len(classes)):
            for v in classes[k]:
                color[v] = k


def refined_both_ways(adj, color, classes, changed):
    """`_refine` and `resigned` from copies of one partition: the first's
    colours and classes, after checking that both reach the same partition
    and that it is equitable, with each class ascending."""
    runs = []
    for refine in (cc._refine, resigned):
        runs.append((list(color), [list(part) for part in classes]))
        refine(adj, *runs[-1], changed)
    (color, classes), (_, old) = runs
    assert ({frozenset(part) for part in classes}
            == {frozenset(part) for part in old})
    for k, part in enumerate(classes):
        assert part == sorted(part) and {color[v] for v in part} == {k}
        assert len({tuple(sorted(color[u] for u in adj[v]))
                    for v in part}) == 1
    return color, classes


def test_splitter_refinement_matches_resigning(hash_complexes):
    """On every hashed complex, on it beside itself, and on the star
    replacement beside the reduction of the benchmark's 17 seed-1 disks:
    from the start partition, and from its refinement with one pair
    individualized as `_search` does it."""
    cases = [[(K, None)] for K in hash_complexes]
    cases += [[(K, None), (K, None)] for K in hash_complexes]
    for cells in bench_reduction_disks(1):
        K = fa.grid_complex(cells)
        cases.append([(sh.star_replacement(K), None),
                      (al.reduce_cubical(K)[0], None)])
    individualized = 0
    for complexes in cases:
        adj, color, classes = cc._start_partition(complexes)
        color, classes = refined_both_ways(adj, color, classes,
                                           range(len(adj)))
        big = [k for k, part in enumerate(classes) if len(part) > 2]
        if not big:
            continue
        k = min(big, key=lambda k: len(classes[k]))
        a, b = classes[k][0], classes[k][-1]
        classes[k] = [v for v in classes[k] if v not in (a, b)]
        classes.append([a, b])
        color[a] = color[b] = len(classes) - 1
        refined_both_ways(adj, color, classes, [a, b])
        individualized += 1
    assert len(cases) == 355 and individualized == 94


def cycles(*sizes):
    """Disjoint polygons as a 1-dimensional simplicial complex."""
    edges, base = [], 0
    for k in sizes:
        edges += [(1, sorted([base + i, base + (i + 1) % k]), cc.SIMPLEX)
                  for i in range(k)]
        base += k
    return cc.build_complex(1, cc.SIMPLICIAL, range(base), edges)


def test_search_backtracks_and_exhausts_where_refinement_cannot_split(monkeypatch):
    # every cell of these has two neighbours, so refinement alone keeps the
    # cells of a hexagon and of a triangle in one class
    starts = []
    real = cc._refine

    def counted(adj, color, classes, changed):
        starts.append(len(classes))
        return real(adj, color, classes, changed)

    monkeypatch.setattr(cc, "_refine", counted)
    hexagon_first = cycles(6, 3, 3)
    for other, want in [(cycles(3, 3, 6), True), (cycles(3, 3, 3, 3), False)]:
        starts.clear()
        assert cc.is_isomorphic(hexagon_first, other) is want
        assert vf2_isomorphic(hexagon_first, other) is want
        assert starts != sorted(set(starts))  # a first branch failed


def test_search_alone_is_exact(monkeypatch):
    # with refinement switched off every leaf is some bijection of equal
    # colours: only the edge-by-edge check tells an isomorphism
    monkeypatch.setattr(cc, "_refine", lambda adj, color, classes, changed: None)
    K = fa.unit_cube(2)  # boundary cycle 0-1-3-2
    pairs = {0: "a", 1: "a", 3: "b", 2: "b"}
    opposite = {0: "a", 1: "b", 3: "a", 2: "b"}
    assert not cc.is_isomorphic(K, K, pairs, opposite)
    turned = {1: "a", 3: "a", 2: "b", 0: "b"}
    assert cc.is_isomorphic(K, K, pairs, turned)
