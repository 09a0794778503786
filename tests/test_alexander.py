"""Labelings, parity, degree, reduced stars, simple pairs, collapses, the driver."""

import gc
import hashlib
import itertools
import json
import random
import time

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cubalex import alexander as al
from cubalex import complex_core as cc
from cubalex import factories as fa
from cubalex import refinement as rf
from cubalex import shelling as sh
from cubalex.complex_core import SIMPLEX, SIMPLICIAL, build_complex
from cubalex.errors import (
    BadCenterLabel, BoundaryViolation, CubalexError, FaceOveruse, HasBoundary,
    IllegalIntersection, LabelClash, NonSimplicialStar, NotACell, OddCycle,
    UnmatchedSimplex,
)

from gen import (
    BENCH_BOXES_3D, CONE44, cube_complex, identify, nx_adjacency,
    random_disk_polyomino, random_shellable_polycube,
)


def brute_force_two_colorable(g):
    """Oracle: exhaustive search for a proper 2-coloring."""
    nodes = sorted(g.nodes)
    for bits in itertools.product((1, -1), repeat=len(nodes)):
        col = dict(zip(nodes, bits))
        if all(col[a] != col[b] for a, b in g.edges):
            return True
    return False


def cone(center, cycle, closed=True):
    rng = range(len(cycle)) if closed else range(len(cycle) - 1)
    cells = [(2, [center, cycle[i], cycle[(i + 1) % len(cycle)]], SIMPLEX)
             for i in rng]
    return build_complex(2, SIMPLICIAL, sorted({center, *cycle}), cells)


# -- labeling and parity -------------------------------------------------------


def test_square_triangulation_alternates():
    T = cc.canonical_triangulation(fa.unit_cube(2))
    lab = al.alexander_label(T)
    g = nx_adjacency(T)
    assert all(lab.parity[a] != lab.parity[b] for a, b in g.edges)


def test_doubled_square_parity_split():
    dd = fa.doubled_complex(fa.unit_cube(2))
    # oracle: the adjacency graph is 2-colorable by exhaustive search
    assert brute_force_two_colorable(nx_adjacency(dd))
    lab = al.alexander_label(dd)
    plus = sum(1 for s in lab.parity.values() if s == 1)
    assert dd.n_cells(2) == 16 and plus == 8


def test_odd_cycle_raises():
    # oracle: three mutually adjacent triangles are not 2-colorable
    K = fa.mutually_adjacent_triangles()
    assert not brute_force_two_colorable(nx_adjacency(K))
    with pytest.raises(OddCycle) as exc:
        al.alexander_label(K, vertex_labels={0: 0, 1: 1, 2: 2, 3: 2})
    assert len(exc.value.cycle) >= 3


def test_label_clash():
    T = cc.canonical_triangulation(fa.unit_cube(2))
    labels = {v: 0 for v in T.vertices}
    with pytest.raises(LabelClash):
        al.alexander_label(T, vertex_labels=labels)


def test_parity_seed_deterministic():
    dd = fa.doubled_complex(fa.unit_cube(2))
    lab1 = al.alexander_label(dd)
    lab2 = al.alexander_label(dd)
    assert lab1.parity == lab2.parity


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=6))
def test_parity_is_proper_coloring_on_fans(k):
    # fan of 2k triangles around a center: always 2-colorable
    cycle = list(range(1, 2 * k + 1))
    K = cone(0, cycle)
    labels = {0: 0}
    labels.update({v: 1 if v % 2 else 2 for v in cycle})
    lab = al.alexander_label(K, vertex_labels=labels)
    g = nx_adjacency(K)
    assert all(lab.parity[a] != lab.parity[b] for a, b in g.edges)


@pytest.mark.parametrize("make,labels", [
    (lambda: cc.canonical_triangulation(fa.rect_grid(2, 2)), None),
    (lambda: cc.canonical_triangulation(fa.unit_cube(3)), None),
    (lambda: fa.doubled_complex(fa.domino()), None),
    (lambda: fa.circle_complex(2), {0: 0, 1: 1}),
    (lambda: cone(0, list(range(1, 8))), {v: v % 3 for v in range(8)}),
    (fa.mutually_adjacent_triangles, {0: 0, 1: 1, 2: 2, 3: 2}),
], ids=["grid", "cube3", "doubled", "circle", "odd_fan", "triangles"])
def test_parity_matches_adjacency_graph_coloring(make, labels):
    # oracle: the same coloring run on the networkx adjacency graph, down to
    # the odd-cycle witness
    K = make()
    g = nx_adjacency(K)
    order = sorted(g.nodes, key=lambda i: K.cell(i).verts)
    try:
        want = al._two_color(lambda u: sorted(g.neighbors(u)), order)
    except OddCycle as exc:
        want = exc.cycle
    try:
        got = al.alexander_label(K, labels).parity
    except OddCycle as exc:
        got = exc.cycle
    assert got == want


# -- degree -----------------------------------------------------------------------


def test_degree_circle():
    C = fa.circle_complex(2)
    lab = al.alexander_label(C, vertex_labels={0: 0, 1: 1})
    assert al.degree(lab) == 1


def test_degree_doubled():
    dd = fa.doubled_complex(fa.unit_cube(2))
    assert al.degree(al.alexander_label(dd)) == 8
    d3 = fa.doubled_complex(fa.unit_cube(3))
    assert al.degree(al.alexander_label(d3)) == 48


def test_degree_needs_closed():
    T = cc.canonical_triangulation(fa.unit_cube(2))
    with pytest.raises(HasBoundary):
        al.degree(al.alexander_label(T))


# -- reduced stars, simple pairs ------------------------------------------------------


def filtering_oracle(lab, v, apex):
    """Oracle: reduced star by direct filtering of the star's cells."""
    K = lab.complex
    return sorted(
        K.cell(i).verts for i in K.star_cell_ids(v)
        if all(lab.label(w) != apex for w in K.cell(i).verts))


def test_reduced_star_filtering():
    # collapse_at folds St(v) onto its reduced star: every cell of the star
    # that avoids the apex label stays, at v, and the star's n-simplices go
    dd = fa.doubled_complex(fa.unit_cube(2))
    lab = al.alexander_label(dd)
    corner = next(v for v, d in dd.vertex_cube_dim.items() if d == 0)
    Q, _, step = al.collapse_at(lab, corner, apex=1)
    kept = {Q.cell(i).verts for i in Q.star_cell_ids(corner)}
    assert set(filtering_oracle(lab, corner, 1)) <= kept
    assert Q.n_cells(2) == dd.n_cells(2) - step.star_top_count == 12


def test_reduced_star_identity_when_no_apex():
    # a star whose link has no apex vertices: filtering removes nothing, so
    # the collapse is the identity step
    K = cone(0, [1, 2, 3, 4])
    labels = {0: 0, 1: 1, 2: 2, 3: 1, 4: 2}
    lab = al.alexander_label(K, vertex_labels=labels)
    Q, new_lab, step = al.collapse_at(lab, 3, apex=5_000)  # label never present
    assert Q is K and new_lab is lab
    assert (step.star_top_count, step.covers) == (0, 0)
    assert filtering_oracle(lab, 3, 5_000) == sorted(
        K.cell(i).verts for i in K.star_cell_ids(3))


def test_bad_center_label():
    dd = fa.doubled_complex(fa.unit_cube(2))
    lab = al.alexander_label(dd)
    center = next(v for v, d in dd.vertex_cube_dim.items() if d == 2)
    with pytest.raises(BadCenterLabel):
        al.collapse_at(lab, center, apex=2)  # w_2 is its own label


def simple_pairs(lab, v, apex):
    """Perfect matching of St(v)'s n-simplices across apex-avoiding faces,
    the matching that `collapse_at` checks on the star it has walked."""
    K = lab.complex
    if lab.label(v) == apex:
        raise BadCenterLabel(f"vertex {v} carries the apex label {apex}")
    return al._match_tops(lab, [i for i in K.star_cell_ids(v)
                                if K.cell(i).dim == K.dimension], apex)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_simple_pairs_matching(k):
    cycle = list(range(1, 2 * k + 1))
    K = cone(0, cycle)
    labels = {0: 0}
    labels.update({v: 1 if v % 2 else 2 for v in cycle})
    lab = al.alexander_label(K, vertex_labels=labels)
    pairs = simple_pairs(lab, 0, 2)
    assert len(pairs) == k
    assert simple_pairs(lab, 0, 2) == pairs  # rerun identical


def test_clover_of_six_star():
    # the six triangles at 0 pair off across their w2-avoiding faces
    K = cone(0, [1, 2, 3, 4, 5, 6])
    labels = {0: 0}
    labels.update({v: 1 if v % 2 else 2 for v in range(1, 7)})
    lab = al.alexander_label(K, vertex_labels=labels)
    pairs = simple_pairs(lab, 0, 2)
    assert len(pairs) == 3
    assert sorted(i for p in pairs for i in p) == sorted(K.top_ids())


def test_clover_two_simplex_star():
    # two triangles sharing their w2-avoiding face [0,1]: exactly one pair
    K = build_complex(2, SIMPLICIAL, [0, 1, 2, 3],
                      [(2, [0, 1, 2], SIMPLEX), (2, [0, 1, 3], SIMPLEX)])
    lab = al.alexander_label(K, vertex_labels={0: 0, 1: 1, 2: 2, 3: 2})
    assert simple_pairs(lab, 0, 2) == [tuple(K.top_ids())]


# -- collapse ------------------------------------------------------------------------


def test_collapse_doubled_square_recount():
    dd = fa.doubled_complex(fa.unit_cube(2))
    lab = al.alexander_label(dd)
    corner = min(v for v, d in dd.vertex_cube_dim.items() if d == 0)
    star_size = sum(1 for i in dd.star_cell_ids(corner)
                    if dd.cell(i).dim == 2)
    Q, lab2, step = al.collapse_at(lab, corner, apex=1)
    assert step.covers == star_size // 2
    assert Q.n_cells(2) == dd.n_cells(2) - star_size
    assert al.degree(lab2) == al.degree(lab) - step.covers


def test_collapse_identity_when_no_apex_in_star():
    dd = fa.doubled_complex(fa.unit_cube(2))
    lab = al.alexander_label(dd)
    corner = min(v for v, d in dd.vertex_cube_dim.items() if d == 0)
    Q, lab2, step = al.collapse_at(lab, corner, apex=9)  # label absent
    assert Q is dd and step.covers == 0


def test_collapse_rejects_duplicate_cells_in_star():
    # the two-edge circle: the star of vertex 0 holds both copies of [0, 1]
    lab = al.alexander_label(fa.circle_complex(2), vertex_labels={0: 0, 1: 1})
    with pytest.raises(NonSimplicialStar):
        al.collapse_at(lab, 0, apex=1)


def test_collapse_rejects_boundary_outside_reduced_star():
    # a corner of the triangulated unit square: its star meets the square's
    # boundary in edges that end at label-1 vertices
    T = cc.canonical_triangulation(fa.unit_cube(2))
    lab = al.alexander_label(T)
    corner = min(v for v, d in T.vertex_cube_dim.items() if d == 0)
    with pytest.raises(BoundaryViolation):
        al.collapse_at(lab, corner, apex=1)


def test_two_collapses_compose():
    dd = fa.doubled_complex(fa.unit_cube(2))
    lab = al.alexander_label(dd)
    ledger = al.ReductionLedger()
    corners = sorted(v for v, d in dd.vertex_cube_dim.items() if d == 0)
    Q, lab2, s1 = al.collapse_at(lab, corners[0], apex=1)
    ledger.add(s1)
    nxt = [v for v in corners[1:] if v in Q.vertices and lab2.label(v) == 0]
    Q2, lab3, s2 = al.collapse_at(lab2, nxt[0], apex=1)
    ledger.add(s2)
    assert ledger.total_covers == s1.covers + s2.covers
    assert al.degree(lab3) == al.degree(lab) - ledger.total_covers


def test_ledger_serialization():
    led = al.ReductionLedger()
    led.add(al.LedgerStep(3, 4, 2, apex=1, rewritten=9))
    assert led.to_json()[0]["covers"] == 2


def test_ledger_rejects_odd_star():
    with pytest.raises(UnmatchedSimplex):
        al.ReductionLedger().add(al.LedgerStep(3, 5, 2, apex=1, rewritten=9))


# -- reduction driver -------------------------------------------------------------------


@pytest.mark.parametrize("cells", [
    [(0, 0)],
    [(0, 0), (1, 0)],
    [(0, 0), (1, 0), (0, 1)],
    [(0, 0), (1, 0), (0, 1), (1, 1)],
    [(x, y) for x in range(3) for y in range(2)],
    *[[(x,) for x in range(k)] for k in range(1, 6)],  # paths
])
def test_driver_matches_star_replacement(cells):
    K = cube_complex(cells)
    final, lab, ledger = al.reduce_cubical(K)
    S = sh.star_replacement(K)
    assert cc.is_isomorphic(S, final)
    assert ledger.total_covers == sh.star_replacement_cover_count(K)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_driver_random_polycubes(seed):
    K = fa.box_complex(3, random_shellable_polycube(random.Random(seed), 9))
    final, lab, ledger = al.reduce_cubical(K)
    assert cc.is_isomorphic(sh.star_replacement(K), final)
    assert ledger.total_covers == sh.star_replacement_cover_count(K)


def test_driver_rejects_unshellable_input():
    # cubes (-1, 0, 0) and (-1, -1, -1) meet only along an edge, a pinch
    # that cell_check does not see; the exhaustive search finds no shelling
    K = fa.box_complex(3, [(-1, -1, -1), (-1, 0, 0), (0, -1, -1), (0, -1, 0),
                           (0, 0, -1), (0, 0, 0), (1, -1, -1)])
    assert cc.cell_check(K) == [] and sh.find_shelling(K) is None
    with pytest.raises(NotACell):
        al.reduce_cubical(K)


def test_driver_raises_on_a_wall_without_shelling(monkeypatch):
    monkeypatch.setattr(al, "_complete", lambda *args: None)
    with pytest.raises(NotACell):
        al.reduce_cubical(cube_complex(BENCH_BOXES_3D[1]))


def test_driver_random_disks():
    rng = random.Random(7)
    for _ in range(5):
        cells = random_disk_polyomino(rng, 8)
        K = fa.grid_complex(cells)
        final, lab, ledger = al.reduce_cubical(K)
        assert cc.is_isomorphic(sh.star_replacement(K), final)
        assert ledger.total_covers == sh.star_replacement_cover_count(K)


@pytest.mark.parametrize("side,rewritten", [(3, 6862), (4, 17694)])
def test_reduction_rewrites_a_bounded_number_of_cells_per_cube(side,
                                                                rewritten):
    # each collapse keeps its hub and rewrites only the cells on the other
    # merged vertices, so the rewrites grow with the cubes, under 300 a cube
    # on the 3-D boxes (identifying into the collapse centre rewrote 27,972
    # and 109,602 cells)
    cells = list(itertools.product(range(side), repeat=3))
    _, _, ledger = al.reduce_cubical(cube_complex(cells))
    got = ledger.diagnostics()["cells_rewritten"]
    assert got == rewritten and got < 300 * len(cells)


def test_driver_reduces_a_4d_box_onto_labelled_star_replacement():
    K = cube_complex(list(itertools.product(range(2), repeat=4)))
    final, lab, ledger = al.reduce_cubical(K)
    S = sh.star_replacement(K)
    assert ledger.total_covers == sh.star_replacement_cover_count(K)
    assert cc.is_isomorphic(S, final, S.vertex_cube_dim, lab.labels)


# -- collapse against a rebuild ----------------------------------------------------------


def rebuilt_collapse(lab, v, apex):
    """The collapsed complex and labeling of collapse_at, rebuilt from the
    vertex-identified cells through build_complex."""
    K = lab.complex
    n = K.dimension
    apex_verts = {w for i in K.star_cell_ids(v) for w in K.cell(i).verts
                  if lab.label(w) == apex}
    lower, tops = {}, []
    for c in K.cells():
        image = tuple(sorted({v if w in apex_verts else w for w in c.verts}))
        if len(image) < len(c.verts):
            continue
        if c.dim == n:
            tops.append((n, image, SIMPLEX))
        else:
            lower[(c.dim, image)] = (c.dim, image, SIMPLEX)
    verts = {w: x for w, x in K.vertices.items() if w not in apex_verts}
    Q = build_complex(n, SIMPLICIAL, verts, tops + list(lower.values()))
    labels = {w: lab.label(w) for w in verts}
    labels[v] = apex
    return Q, al.alexander_label(Q, labels)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6).map(
    lambda seed: random_disk_polyomino(random.Random(seed), 9)))
@example(BENCH_BOXES_3D[1])  # the 3-D tripod
@example(CONE44)  # the largest fans
@example(BENCH_BOXES_3D[3])  # cube2x2x2
def test_collapse_matches_rebuild_at_every_step(cells):
    # the driver's in-place step, against a rebuild of the labeling before it
    real = al._collapse
    checked = []

    def collapse_and_compare(work, v, apex):
        lab = work.plain()
        step = real(work, v, apex)
        if step.star_top_count:
            R, rlab = rebuilt_collapse(lab, v, apex)
            new_lab = work.plain()
            assert new_lab.complex.to_json() == R.to_json()
            assert new_lab.to_json() == rlab.to_json()
            checked.append(v)
        return step

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(al, "_collapse", collapse_and_compare)
        al.reduce_cubical(cube_complex(cells))
    assert len(checked) >= len(cells) - 1  # at least one step per wall


def checked_rebuild(lab, v, apex):
    """collapse_at the long way: its checks on the star, the boundary
    condition over every boundary facet of K, then `rebuilt_collapse`."""
    K = lab.complex
    if lab.label(v) == apex:
        raise BadCenterLabel(str(v))
    star = K.star_cell_ids(v)
    al._check_star_simplicial(K, star)
    apexes = {w for i in star for w in K.cell(i).verts if lab.label(w) == apex}
    if not apexes:
        return K, lab
    if any(K.cell(i).dim == K.dimension for i in star):
        simple_pairs(lab, v, apex)
    if any(i in star and apexes & set(K.cell(i).verts)
           for i in K.boundary_facet_ids()):
        raise BoundaryViolation(str(v))
    return rebuilt_collapse(lab, v, apex)


def outcome(collapse, lab, v, apex):
    """The collapsed complex and labeling as JSON, or the error's type."""
    try:
        Q, new_lab = collapse(lab, v, apex)[:2]
    except CubalexError as exc:
        return type(exc), None
    return (Q.to_json(), new_lab.to_json()), new_lab


@st.composite
def labelled_complexes(draw):
    """A small weakly simplicial complex of dimension 1 or 2 on random tops,
    each with one vertex of every label 0..n, its vertices listed in random
    order; repeated tops are allowed."""
    n = draw(st.integers(min_value=1, max_value=2))
    labels = draw(st.lists(st.integers(min_value=0, max_value=n),
                           min_size=n + 1, max_size=8))
    labels[:n + 1] = range(n + 1)
    by_label = [[v for v, l in enumerate(labels) if l == k] for k in range(n + 1)]
    top = st.tuples(*map(st.sampled_from, by_label)).flatmap(
        lambda t: st.permutations(list(t)))
    return n, labels, draw(st.lists(top, min_size=1, max_size=9))


def rebuilt_identify(K, gone, v):
    """K with `gone` identified with v, rebuilt through build_complex from
    every non-degenerate image."""
    lower, tops = {}, []
    for c in K.cells():
        image = tuple(sorted({v if w in gone else w for w in c.verts}))
        if len(image) < len(c.verts):
            continue
        if c.dim == K.dimension:
            tops.append((c.dim, image, SIMPLEX))
        else:
            lower.setdefault((c.dim, image), (c.dim, image, SIMPLEX))
    verts = {w: x for w, x in K.vertices.items() if w not in gone}
    return build_complex(K.dimension, SIMPLICIAL, verts,
                         tops + list(lower.values()))


class Picks:
    """`st.data()` for an explicit example: each draw returns the next of
    the given values, in a cycle."""

    def __init__(self, *values):
        self.values = itertools.cycle(values)

    def draw(self, strategy):
        return next(self.values)


@settings(max_examples=200, deadline=None)
@given(labelled_complexes(), st.data())
# a top listed out of vertex order, carried over in vertex order
@example((1, [0, 1, 0, 1], [[2, 1]]), Picks(1, {0}, 2, {3}))
def test_identify_matches_rebuild(case, data):
    # any vertices identified with any vertex, twice in turn: the same
    # complex and incidence as a rebuild, or the same error type, and each
    # cell's image where it says
    n, labels, tops = case
    try:
        K = build_complex(n, SIMPLICIAL, range(len(labels)),
                          [(n, list(t), SIMPLEX) for t in tops])
    except CubalexError:
        assume(False)
    for _ in range(2):
        v = data.draw(st.sampled_from(sorted(K.vertices)))
        gone = data.draw(st.sets(st.sampled_from(sorted(set(K.vertices) - {v})),
                                 min_size=1))
        try:
            R = rebuilt_identify(K, gone, v)
        except CubalexError as exc:
            with pytest.raises(type(exc)):
                identify(K, gone, v)
            return
        Q, image, touched = identify(K, gone, v)
        assert Q.to_json() == R.to_json()
        assert all((Q.facet_ids(q), Q.coface_ids(q)) ==
                   (R.facet_ids(q), R.coface_ids(q))
                   for q in range(len(Q.cells())))
        assert touched == [i for i, c in enumerate(K.cells())
                           if gone & set(c.verts)]
        for i, c in enumerate(K.cells()):
            verts = tuple(sorted({v if w in gone else w for w in c.verts}))
            assert (image[i] == -1 if len(verts) < len(c.verts)
                    else Q.cell(image[i]).verts == verts)
        K = Q


def test_identify_keeps_equal_tops_in_preimage_order():
    # identifying 3 with 0 lays (1, 2, 3) onto the carried top (0, 1, 2),
    # and the image comes after it, as its preimage does; a rebuild agrees
    K = build_complex(2, SIMPLICIAL, range(4),
                      [(2, [0, 1, 2], SIMPLEX), (2, [1, 2, 3], SIMPLEX)])
    Q, image, _ = identify(K, {3}, 0)
    assert Q.to_json() == rebuilt_identify(K, {3}, 0).to_json()
    first, second = (image[i] for v in ((0, 1, 2), (1, 2, 3))
                     for i, c in enumerate(K.cells()) if c.verts == v)
    assert Q.cell(first).verts == Q.cell(second).verts and first < second


def labelled(n, labels, tops):
    K = build_complex(n, SIMPLICIAL, range(len(labels)),
                      [(n, list(t), SIMPLEX) for t in tops])
    return al.alexander_label(K, dict(enumerate(labels)))


@settings(max_examples=300, deadline=None)
@given(labelled_complexes(), st.data())
def test_collapse_matches_rebuild_on_any_labelling(case, data):
    # the local checks of collapse_at fail where the full rebuild does, with
    # the same error type, and otherwise agree with it, on two collapses in
    # turn (the second on a complex that identify built)
    n = case[0]
    try:
        lab = labelled(*case)
    except CubalexError:
        assume(False)
    for _ in range(2):
        v = data.draw(st.sampled_from(sorted(lab.complex.vertices)))
        apex = data.draw(st.integers(min_value=0, max_value=n))
        got, new_lab = outcome(al.collapse_at, lab, v, apex)
        want, _ = outcome(checked_rebuild, lab, v, apex)
        assert got == want
        if new_lab is None:
            break
        lab = new_lab


# two cones over the square 1-3-2-4, at 0 and at 5: collapsing St(0) with
# apex label 2 identifies 3 and 4 with 0, which lays four triangles on the
# new edge (0, 5)
OVERUSED = ([0, 1, 1, 2, 2, 0],
            [(0, 1, 3), (0, 2, 4), (0, 3, 2), (0, 4, 1),
             (5, 1, 3), (5, 1, 4), (5, 2, 3), (5, 2, 4)])


def test_collapse_local_checks_can_fail():
    lab = labelled(2, *OVERUSED)
    for collapse in (rebuilt_collapse, al.collapse_at):
        with pytest.raises(FaceOveruse):
            collapse(lab, 0, 2)


# The cone at 0 over the square 1-3-2-4, apex label 2 on 3 and 4, with one
# triangle out of each edge of the square; collapsing St(0) identifies 3 and
# 4 with 0.  Each case defeats one condition for keeping the carried parity.
CONE_LABELS = [0, 1, 1, 2, 2]
CONE = [(0, 1, 3), (0, 2, 4), (0, 3, 2), (0, 4, 1)]


def cone_case(labels, tops, shift=0):
    """(labels, tops) of the cone with the given outer triangles, its
    vertices shifted up by `shift`."""
    return (CONE_LABELS + labels,
            [tuple(u + shift for u in t) for t in CONE + tops])


SEED = [0, 0, 0], [(1, 3, 5), (2, 4, 6), (3, 2, 7), (4, 1, 6)]
RECOLOURED = {
    # two new tops on one new edge (0, 6) with the same parity
    "improper": cone_case([0, 0, 0],
                          [(1, 3, 7), (2, 4, 5), (3, 2, 6), (4, 1, 6)]),
    # Q's lowest top (0, 1, 5) carries -1
    "seed": cone_case(*SEED),
    # Q falls apart at 0 into two pairs of tops, the second seeded at -1
    "components": cone_case([0, 0, 0, 0],
                            [(1, 3, 8), (2, 4, 5), (3, 2, 6), (4, 1, 7)]),
    # K has a second component, below the cone, so the cone's part of Q
    # is seeded apart from Q's lowest top: at -1, as in "seed"
    "disconnected": ([0, 1, 2] + cone_case(*SEED)[0],
                     [(0, 1, 2)] + cone_case(*SEED, shift=3)[1]),
    # K has two components, and Q's adjacency an odd cycle
    "odd": cone_case([0, 0, 2, 2, 0, 2],
                     [(1, 3, 9), (2, 4, 5), (3, 2, 6), (4, 1, 6), (5, 1, 7),
                      (5, 1, 10), (5, 2, 7), (6, 1, 8), (9, 1, 7),
                      (9, 2, 10)]),
}


@pytest.mark.parametrize("case", sorted(RECOLOURED))
def test_collapse_recolours_when_the_carried_parity_fails(case):
    lab = labelled(2, *RECOLOURED[case])
    v = 3 if case == "disconnected" else 0
    got, new_lab = outcome(al.collapse_at, lab, v, 2)
    assert got == outcome(rebuilt_collapse, lab, v, 2)[0]
    if case == "odd":
        assert got is OddCycle
        with pytest.raises(OddCycle) as exc:
            al.collapse_at(lab, v, 2)
        # the witness: a closed walk of tops, ids in the collapsed complex
        assert exc.value.cycle == [34, 37, 31, 30, 33, 32, 38]
        return
    Q, image, _ = identify(lab.complex, {v + 3, v + 4}, v)
    carried = {image[i]: s for i, s in lab.parity.items() if image[i] >= 0}
    assert carried != new_lab.parity  # kept, it would be wrong


def test_collapse_chains_in_place_through_recolourings():
    # collapses on one `_Work`, collapsed in place from step to step, each
    # step against the long way on the labeling before it; the random
    # chains take steps where the parity carried through the step, as
    # identifying the apex vertices into v leaves it, is not the new one
    def collapse(work, v, apex):
        lab = work.plain()
        want = outcome(checked_rebuild, lab, v, apex)[0]
        al._collapse(work, v, apex)
        got = work.plain()
        assert (got.complex.to_json(), got.to_json()) == want
        K = lab.complex
        gone = {w for i in K.star_cell_ids(v) for w in K.cell(i).verts
                if lab.label(w) == apex}
        _, image, _ = identify(K, gone, v)
        return {image[i]: s for i, s in lab.parity.items()
                if image[i] >= 0} != got.parity

    # a disconnected complex, which stays so
    lab = labelled(1, [0, 1, 0, 0, 1, 0, 1, 0, 1, 0],
                   [(3, 6), (5, 8), (0, 4), (0, 4), (5, 1), (7, 1), (9, 6),
                    (3, 8)])
    work = al._Work(lab.complex, lab.labels)
    collapse(work, 5, 1)
    assert not work.plain().connected
    collapse(work, 3, 1)
    # random chains on doubled disks
    rng = random.Random(0)
    carried_wrong = 0
    for _ in range(4):
        lab = al.alexander_label(fa.doubled_complex(
            fa.grid_complex(random_disk_polyomino(rng, 4))))
        work = al._Work(lab.complex, lab.labels)
        for _ in range(12):
            lab = work.plain()
            same = lab.complex.to_json(), lab.to_json()
            steps = list(itertools.product(sorted(lab.complex.vertices),
                                           range(3)))
            rng.shuffle(steps)
            for v, apex in steps:  # the first that changes the labeling
                want = outcome(checked_rebuild, lab, v, apex)[0]
                if not isinstance(want, type) and want != same:
                    break
            else:
                break
            carried_wrong += collapse(work, v, apex)
    assert carried_wrong > 0


def test_cone44_reduction_validates_and_colours_once(monkeypatch):
    # a work guard: the triangulation and the final complex are the two
    # complexes validated, none at a collapse, the final complex the one
    # two-coloured, after the last collapse, each
    # collapse walks its star once, the rows run Complex's walk up the
    # cofaces once per star and once per identify, and the rows are made
    # once and sorted into a complex once
    K = cube_complex(CONE44)
    calls = []
    for owner, name in [(cc.Complex, "_validate"), (al, "_two_color"),
                        (cc.Complex, "star_cell_ids"), (cc._Rows, "__init__"),
                        (cc._Rows, "complex"), (cc.Complex, "_cells_at")]:
        def counted(*args, real=getattr(owner, name), name=name):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(owner, name, counted)
    _, _, ledger = al.reduce_cubical(K)
    assert calls.count("_validate") == 2
    assert calls.count("_two_color") == 1
    assert calls.index("_two_color") > max(
        i for i, name in enumerate(calls) if name == "star_cell_ids")
    assert calls.count("star_cell_ids") == len(ledger.steps) > 0
    assert calls.count("_cells_at") == len(ledger.steps) + sum(
        s.rewritten > 0 for s in ledger.steps)
    assert calls.count("__init__") == calls.count("complex") == 1


def test_closing_sort_validates_the_final_complex():
    # the complex a reduction's rows sort into is validated like every
    # other: a live edge row listed twice is a duplicate cell
    T = cc.canonical_triangulation(fa.domino())
    work = al._Work(T, T.vertex_cube_dim)
    rows = work.complex
    e = T.cell_ids(1)[0]
    rows._cells.append(rows._cells[e])
    rows._facet_rows.append(rows._facet_rows[e])
    rows._coface_rows.append(())
    rows.rank.append(len(rows.rank))
    with pytest.raises(IllegalIntersection, match="duplicate cells of dim 1"):
        work.plain()


def state(lab):
    """A labeling's complex as JSON, labels, parity and incidence rows."""
    K = lab.complex
    return (json.dumps(K.to_json()), dict(lab.labels), dict(lab.parity),
            [(K.facet_ids(i), K.coface_ids(i)) for i in range(len(K.cells()))])


def raising_collapse(name):
    """(labeling, v, apex, error) of a collapse that raises."""
    if name == "boundary":  # a corner of the triangulated unit square
        lab = al.alexander_label(cc.canonical_triangulation(fa.unit_cube(2)))
        return lab, min(v for v, d in lab.complex.vertex_cube_dim.items()
                        if d == 0), 1, BoundaryViolation
    if name == "unmatched":  # (0, 1, 2) has no partner across (0, 1)
        lab = labelled(2, [0, 1, 2, 1, 2], [(0, 1, 2), (0, 2, 3), (0, 3, 4)])
        return lab, 0, 2, UnmatchedSimplex
    if name == "overuse":
        return labelled(2, *OVERUSED), 0, 2, FaceOveruse
    return labelled(2, *RECOLOURED["odd"]), 0, 2, OddCycle


def test_collapse_leaves_its_input_unchanged():
    # verifiers do not mutate their inputs: checked on collapses that raise,
    # and at every collapse of a reduction, on the triangulation and on the
    # complexes collapses built, where collapse_at on the labeling before
    # each in-place step of the driver gives what that step gives
    for case in ["overuse", "odd", "boundary", "unmatched"]:
        lab, v, apex, error = raising_collapse(case)
        before = state(lab)
        with pytest.raises(error):
            al.collapse_at(lab, v, apex)
        assert state(lab) == before
    real = al._collapse
    checked, inner = [], []

    def collapse_and_compare(work, v, apex):
        if inner:  # the step that collapse_at runs on its copy
            return real(work, v, apex)
        lab = work.plain()
        before = state(lab)
        inner.append(v)
        try:
            Q, out, public_step = al.collapse_at(lab, v, apex)
        finally:
            inner.pop()
        assert state(lab) == before
        step = real(work, v, apex)
        got = work.plain()
        assert public_step == step
        assert (Q.to_json(), out.to_json()) == (got.complex.to_json(),
                                                got.to_json())
        checked.append(v)
        return step

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(al, "_collapse", collapse_and_compare)
        al.reduce_cubical(cube_complex([(0, 0), (1, 0), (1, 1), (2, 1)]))
    assert len(checked) >= 3


def test_collapse_doubles_edge_and_keeps_other_cells():
    # 0-3-1-2-0: collapsing St(0) identifies 3 and 2 with 0, so edges [3, 1]
    # and [2, 1] both become [0, 1]; the cycle 4-5-6-7 meets no apex vertex.
    # Edges are given in descending vertex order.
    edges = [[3, 0], [3, 1], [2, 1], [2, 0], [5, 4], [6, 5], [7, 6], [7, 4]]
    K = build_complex(1, SIMPLICIAL, range(8),
                      [(1, e, SIMPLEX) for e in edges])
    labels = {0: 0, 1: 0, 2: 1, 3: 1, 4: 0, 5: 1, 6: 0, 7: 1}
    lab = al.alexander_label(K, vertex_labels=labels)
    Q, new_lab, step = al.collapse_at(lab, 0, apex=1)
    R, rlab = rebuilt_collapse(lab, 0, 1)
    assert Q.to_json() == R.to_json()
    assert new_lab.to_json() == rlab.to_json()
    assert step.covers == 1
    assert [c.verts for c in Q.cells() if c.dim == 1][:2] == [(0, 1), (0, 1)]


# sha256 of the final complex (with its labeling) and each ledger step's
# vertex, star top count and covers, as
# reduce_cubical produced them when each collapse was rebuilt through
# build_complex; cube2x2x2 as the recursive driver produced it once both
# star-replacement oracles and the per-collapse rebuild held on 3-D boxes
@pytest.mark.parametrize("cells,digest", [
    (CONE44,
     "9e374f513c754830fc336dc150aa49b266aac81c2b38954d40d8c48bd185b26a"),
    ([(x, y) for x in range(3) for y in range(2)],
     "49f7f1a811565f9193007241daf38ec3755e774d34933ad63c17ecbbfe79662b"),
    ([(1, 0), (0, 1), (1, 1), (2, 1), (1, 2)],
     "85dc465fe59de273a623b787ccd95bd9d46bbf10944d3af48624ae9d21dfb94c"),
    ([(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (4, 3)],
     "2545a9480d7ee76978d6f85d3407a5317753bb88c4bb2de9a10c73628b836440"),
    (BENCH_BOXES_3D[3],
     "d29d6d0113439290cb43e8f277293d59f0b97f7d726723fa5e2c7f0f12738342"),
], ids=["cone44", "rect3x2", "plus5", "stair8", "cube2x2x2"])
def test_reduction_fingerprint(cells, digest):
    final, lab, ledger = al.reduce_cubical(cube_complex(cells))
    data = {"complex": final.to_json(alexander=lab.to_json()),
            "ledger": [{k: step[k] for k in ("vertex", "star_top_count",
                                             "covers")}
                       for step in ledger.to_json()]}
    got = hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()
    assert got == digest


def double_and_reduce_record(K):
    """The doubled complex (to_json with its labeling, vertex_cube_dim,
    degree) and the reduction (final complex with its labeling, ledger)."""
    D = fa.doubled_complex(K)
    lab = al.alexander_label(D)
    final, flab, ledger = al.reduce_cubical(K)
    return {"doubled": D.to_json(alexander=lab.to_json()),
            "vertex_cube_dim": sorted(D.vertex_cube_dim.items()),
            "degree": al.degree(lab),
            "reduced": final.to_json(alexander=flab.to_json()),
            "ledger": ledger.to_json()}


def pinned_input(name):
    if name.startswith("cube"):
        return fa.unit_cube(int(name[-1]))
    if name == "rect3x2":
        return fa.rect_grid(3, 2)
    if name == "cone44":
        return cube_complex(CONE44)
    if name == "refined":
        return rf.refine(fa.unit_cube(2), 1).complex
    return fa.grid_complex(random_disk_polyomino(random.Random(name), 9))


# sha256 of `double_and_reduce_record`, computed before the simplex order,
# the centre lookup and the doubling were each stored in one place
@pytest.mark.parametrize("name,digest", [
    ("cube2",
     "9ab42528829180097d52159aee4e80b023cc7c1379ade653b67ccf0c81b2239a"),
    ("cube3",
     "85e080bb54b7e935dd2447346465065d26945a0b7b0bcfa1c228727e62a10747"),
    ("rect3x2",
     "62c59dc9bd726c7baba9bdd954b22e8378c3b8ed3ef5e698cd9b055709f39949"),
    ("cone44",
     "e02aa224f7b7a906da03bfb5dafbe49d53f4dcf1f1878eff8440b82878e06bde"),
    ("refined",
     "ef54e43fc9913861734626f4735cfc665c01a6a9998c976428d8b233dc3a320a"),
    ("disk0",
     "24ea25db865dfa220818e4fa74411d465f13ffbcf61fe93ea5cc67a2ffaa6057"),
    ("disk1",
     "237a73d9d308126395046b710d083e312a0081dc1e14b8d4bb01b4cc873d60ef"),
    ("disk2",
     "d2465b7e132653dc65d0b5bbb496c408dda7276578568468d5f732dcf1661f9e"),
])
def test_double_and_reduce_fingerprint(name, digest):
    record = double_and_reduce_record(pinned_input(name))
    assert hashlib.sha256(json.dumps(record, sort_keys=True).encode()
                          ).hexdigest() == digest


# -- collapse and isomorphism without networkx, no cyclic garbage --------------------


def test_collapse_path_builds_no_networkx_graph():
    # tests/test_dependencies.py checks that no networkx module is imported
    T = cc.canonical_triangulation(fa.domino())
    lab = al.alexander_label(T)
    rim = {v for i in T.boundary_facet_ids() for v in T.cell(i).verts}
    wall = next(v for v, d in T.vertex_cube_dim.items()
                if d == 1 and v not in rim)
    Q, lab2, step = al.collapse_at(lab, wall, apex=2)
    assert step.covers == 2 and Q.n_cells(2) == T.n_cells(2) - 4
    assert lab2.label(wall) == 2


def test_reduction_isomorphism_builds_no_networkx_graph():
    K = fa.grid_complex(CONE44)
    final, _, _ = al.reduce_cubical(K)
    S = sh.star_replacement(K)
    t0 = time.perf_counter()
    assert cc.is_isomorphic(S, final)
    assert time.perf_counter() - t0 < 1


def test_reduction_isomorphism_decides_at_first_leaf(monkeypatch):
    """A deterministic work bound: at most three refinements, and no
    backtracking, which would start a refinement from a partition no finer
    than the one before it."""
    starts = []
    real = cc._refine

    def counted(adj, color, classes, changed):
        starts.append(len(classes))
        return real(adj, color, classes, changed)

    monkeypatch.setattr(cc, "_refine", counted)
    rng = random.Random(42)
    for cells in [CONE44] + [random_disk_polyomino(rng, 16) for _ in range(16)]:
        K = fa.grid_complex(cells)
        final, _, _ = al.reduce_cubical(K)
        starts.clear()
        assert cc.is_isomorphic(sh.star_replacement(K), final)
        assert len(starts) <= 3
        assert starts == sorted(set(starts)), (cells, starts)


def test_triangulate_label_refine_leave_no_cyclic_garbage():
    gc.collect()
    gc.disable()
    try:
        T = cc.canonical_triangulation(fa.unit_cube(3))
        al.alexander_label(T)
        rf.refine(fa.unit_cube(3), 1)
        freed = gc.collect()
    finally:
        gc.enable()
    assert freed == 0
