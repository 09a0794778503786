"""Refinement, molecules, level/expansion functions, separating complexes."""

import hashlib
import itertools
import math
import random
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubalex import complex_core as cc
from cubalex import factories as fa
from cubalex import refinement as rf
from cubalex.errors import (
    BadAttachment, CubeNotInMolecule, DuplicateMaxAtom, NoDisjointCollars,
    NotATree, NotCubical, ParamsInvalid,
)

from gen import random_molecule, random_molecule_spec


# -- refine / core / buffer ----------------------------------------------------


@pytest.mark.parametrize("n,k,count", [(2, 1, 9), (3, 2, 729), (2, 0, 1)])
def test_refine_counts(n, k, count):
    K = fa.unit_cube(n)
    R = rf.refine(K, k)
    assert R.complex.n_cells(n) == count
    assert set(R.provenance.values()) <= set(K.top_ids())


def test_refine_provenance_surjective():
    K = fa.domino()
    R = rf.refine(K, 1)
    assert R.complex.n_cells(2) == 18
    assert set(R.provenance.values()) == set(K.top_ids())


def test_refine_needs_coords():
    K = cc.build_complex(2, cc.CUBICAL, [0, 1, 2, 3],
                         [(2, [0, 1, 2, 3], cc.CUBE)])
    with pytest.raises(NotCubical):
        rf.refine(K, 1)


@pytest.mark.parametrize("k", [-1, 1.5, "1"])
def test_refine_rejects_a_bad_k(k):
    with pytest.raises(ParamsInvalid):
        rf.refine(fa.unit_cube(2), k)


@pytest.mark.parametrize("n", [2, 3])
def test_core_buffer_of_refined_cube(n):
    # one subcube stays off the boundary (the core), 3^n - 1 meet it (the buffer)
    R = rf.refine(fa.unit_cube(n), 1).complex
    bverts = {v for i in R.boundary_facet_ids() for v in R.cell(i).verts}
    meets = [bool(set(R.cell(i).verts) & bverts) for i in R.top_ids()]
    assert meets.count(False) == 1
    assert meets.count(True) == 3 ** n - 1


def test_center_cube_and_rim():
    # a square of side 3 refined once, in x3 coordinates: its centre cube
    # c(Q) is the middle third and the 3^2 - 1 others form its rim
    K = cc.build_complex(2, cc.CUBICAL,
                         {0: (0, 0), 1: (3, 0), 2: (0, 3), 3: (3, 3)},
                         [(2, [0, 1, 2, 3], cc.CUBE)])
    R = rf.refine(K, 1).complex
    bverts = {v for i in R.boundary_facet_ids() for v in R.cell(i).verts}
    boxes = {}
    for i in R.top_ids():
        pts = [R.vertices[v] for v in R.cell(i).verts]
        corner = tuple(map(min, zip(*pts)))
        boxes[corner, max(p[0] for p in pts) - corner[0]] = \
            bool(set(R.cell(i).verts) & bverts)
    assert [b for b, rim in boxes.items() if not rim] == [((3, 3), 3)]
    assert len([b for b, rim in boxes.items() if rim]) == 8
    assert set(boxes) == {((3 * a, 3 * b), 3) for a in range(3) for b in range(3)}


# -- molecules ------------------------------------------------------------------


def single_cube_molecule():
    return rf.build_molecule(2, [[((0, 0), 1)]], [0])


def chain_molecule(ell=3, rho=2):
    side = 3 ** rho
    blocks = [((i * side, 0), side) for i in range(ell)]
    return rf.build_molecule(2, [blocks], [rho])


def test_single_cube_molecule():
    M = single_cube_molecule()
    assert M.ell() == 1 and M.varrho() == 0
    assert M.tail((0, 0)) == [(0, 0)]
    assert rf.expansion_index(M, (0, 0)) == 4  # 3x2 - 1x2


def test_two_atom_molecule_order():
    M = rf.build_molecule(2, [[((0, 0), 3)], [((3, 0), 1)]], [1, 0])
    assert M.parent[(1, 0)] == (0, 0)  # the child's cube sits below


def bfs_oracle(M):
    """`parent` and `children` from networkx's BFS on the contact graph,
    edges added in contact order, as `Molecule.validate` once built it."""
    keys = M.all_block_keys()
    g = nx.Graph()
    g.add_nodes_from(keys)
    for k1, k2 in itertools.combinations(keys, 2):
        c = rf.blocks_contact(M.block(k1), M.block(k2))
        if c is None or (k1[0] == k2[0]
                         and c[3] != (M.block(k1).side,) * (M.n - 1)):
            continue
        g.add_edge(k1, k2)
    parent = {k: None for k in keys}
    children = {k: [] for k in keys}
    for u, v in nx.bfs_edges(g, M.leading[0]):
        parent[v] = u
        children[u].append(v)
    return parent, children


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6), st.sampled_from([2, 3]))
def test_molecule_tree_matches_networkx_bfs(seed, n):
    M = random_molecule(random.Random(seed), n=n, max_atoms=6, max_blocks=4)
    assert (M.parent, M.children) == bfs_oracle(M)


def test_non_tree_atoms_and_molecules_rejected():
    with pytest.raises(NotATree):  # two blocks that do not touch
        rf.build_molecule(2, [[((0, 0), 1), ((2, 0), 1)]], [0])
    with pytest.raises(NotATree):  # a 2 x 2 square of blocks, a cycle
        rf.build_molecule(2, [[((x, y), 1) for x in (0, 1) for y in (0, 1)]],
                          [0])
    with pytest.raises(NotATree):  # two atoms that do not touch
        rf.build_molecule(2, [[((0, 0), 3)], [((5, 0), 1)]], [1, 0])


def test_equal_indices_rejected():
    with pytest.raises(BadAttachment):
        rf.build_molecule(2, [[((0, 0), 3)], [((3, 0), 3)]], [1, 1])


def test_duplicate_max_atom():
    # two separated atoms at the same top index, joined by a smaller one
    with pytest.raises((DuplicateMaxAtom, BadAttachment)):
        rf.build_molecule(
            2,
            [[((0, 0), 3)], [((4, 0), 3)], [((3, 0), 1)]],
            [1, 1, 0])


def test_misaligned_attachment_rejected():
    # child not on the 3-adic grid of the parent face
    with pytest.raises(BadAttachment):
        rf.build_molecule(3, [[((0, 0, 0), 9)], [((9, 1, 0), 3)]], [2, 1])


def test_level_function_rules():
    # leading cube of an atom with rho = 2 sits at level 2; next cube down
    # the same atom at 2 - 1/ell
    M = chain_molecule(ell=3, rho=2)
    lam = rf.level_function(M)
    assert lam["boundary"] == 0
    lead = M.leading[0]
    assert lam[lead] == 2
    below = [k for k in M.blocks if M.parent[k] == lead]
    assert all(lam[k] == Fraction(2) - Fraction(1, 3) for k in below)


def test_level_function_unique_both_directions():
    rng = random.Random(11)
    for _ in range(10):
        M = random_molecule(rng)
        assert rf.level_function(M) == rf.level_function_from_leaves(M)


def test_tail_monotone():
    rng = random.Random(5)
    for _ in range(5):
        M = random_molecule(rng)
        for k in M.blocks:
            p = M.parent[k]
            if p is not None:
                assert set(M.tail(k)) <= set(M.tail(p))


def test_expansion_identity_random():
    rng = random.Random(13)
    for _ in range(20):
        M = random_molecule(rng)
        for k in M.blocks:
            lhs, rhs = rf.expansion_identity_sides(M, k)
            assert lhs == rhs


def test_expansion_index_chain_leaf():
    M = chain_molecule(ell=2, rho=1)
    leaf = next(k for k in M.blocks if not M.children[k])
    # leaf tail = the one block: boundary minus leading face = 3 sides
    side = 3
    assert rf.expansion_index(M, leaf) == (3 * side - side) * 2


def test_cube_not_in_molecule():
    M = single_cube_molecule()
    with pytest.raises(CubeNotInMolecule):
        rf.expansion_index(M, (7, 7))


def test_molecule_json_roundtrip():
    rng = random.Random(29)
    for _ in range(5):
        M = random_molecule(rng)
        M2 = rf.molecule_from_json(rf.molecule_to_json(M))
        assert M2.indices == M.indices
        assert M2.leading == M.leading
        assert rf.level_function(M2) == rf.level_function(M)


# -- one contact table per molecule ---------------------------------------------------


def molecule_record(n, atoms, indices):
    """A spec's exception type, or its tree and every per-block query."""
    try:
        M = rf.build_molecule(n, atoms, indices)
    except Exception as exc:
        return type(exc).__name__
    return (sorted(M.parent.items()), sorted(M.children.items()),
            sorted(M.leading_face.items()), sorted(M.attach.items()),
            [(k, M.tail_boundary_area_minus_leading(k),
              rf.expansion_index(M, k))
             for k in M.blocks])


def test_molecule_queries_pinned():
    # 300 random specs, valid and rejected alike: the tree and every
    # per-block query of each molecule, or the exception type of each
    # rejected spec
    rng = random.Random(14)
    records = [molecule_record(n, *random_molecule_spec(rng, n, max_atoms=6,
                                                        max_blocks=4))
               for n in (2, 3) for _ in range(150)]
    assert {r for r in records if isinstance(r, str)} == {
        "BadAttachment", "NotATree"}
    digest = hashlib.sha256(repr(records).encode()).hexdigest()
    assert digest == (
        "8a1c1cf43f332c9cff890159a12e2ea0ab67eb8efb1efb9c44d14b17930d09cc")


def _interval(b, a):
    return b.corner[a], b.corner[a] + b.side


def old_blocks_contact(b1, b2):
    """The face-contact predicate as first written, axis by axis: an oracle."""
    n = b1.n
    touch_axis = None
    for a in range(n):
        lo1, hi1 = _interval(b1, a)
        lo2, hi2 = _interval(b2, a)
        if hi1 == lo2 or hi2 == lo1:
            if touch_axis is not None:
                return None
            touch_axis = a
        elif min(hi1, hi2) <= max(lo1, lo2):
            return None
    if touch_axis is None:
        return None
    rect = []
    lengths = []
    for a in range(n):
        if a == touch_axis:
            continue
        lo = max(b1.corner[a], b2.corner[a])
        hi = min(b1.corner[a] + b1.side, b2.corner[a] + b2.side)
        if hi <= lo:
            return None
        rect.append(lo)
        lengths.append(hi - lo)
    coord = _interval(b1, touch_axis)[1] \
        if _interval(b1, touch_axis)[1] == _interval(b2, touch_axis)[0] \
        else _interval(b1, touch_axis)[0]
    return touch_axis, coord, tuple(rect), tuple(lengths)


def old_boxes_interior_disjoint(b1, b2):
    return any(min(_interval(b1, a)[1], _interval(b2, a)[1]) <=
               max(_interval(b1, a)[0], _interval(b2, a)[0])
               for a in range(b1.n))


def block_pair(n):
    block = st.builds(rf.Block, st.tuples(*[st.integers(0, 12)] * n),
                      st.sampled_from([1, 2, 3, 9]))
    return st.tuples(block, block)


@settings(max_examples=1000, deadline=None)
@given(st.integers(1, 4).flatmap(block_pair))
def test_box_predicates_match_old_bodies(pair):
    b1, b2 = pair
    assert rf.blocks_contact(b1, b2) == old_blocks_contact(b1, b2)
    assert rf.boxes_interior_disjoint(b1, b2) == old_boxes_interior_disjoint(b1, b2)


def test_contacts_derived_once(monkeypatch):
    # build_molecule tests each block pair once; the queries read the table
    real = rf.blocks_contact
    calls = []
    monkeypatch.setattr(rf, "blocks_contact",
                        lambda b1, b2: calls.append(1) or real(b1, b2))
    rng = random.Random(3)
    sizes = []
    for n in (2, 3) * 10:
        M = random_molecule(rng, n=n, max_atoms=6, max_blocks=4)
        atoms = [[(b.corner, b.side) for b in atom.blocks] for atom in M.atoms]
        calls.clear()
        M = rf.build_molecule(n, atoms, M.indices)
        B = len(M.blocks)
        assert len(calls) == B * (B - 1) // 2
        sizes.append(B)
        calls.clear()
        for k in M.blocks:
            M.tail_boundary_area_minus_leading(k)
            rf.expansion_index(M, k)
        assert not calls
    assert max(sizes) >= 5


# -- separating complexes ----------------------------------------------------------------


def test_separating_product_two_pieces():
    P = fa.product_with_interval(fa.circle_complex(6), 3)
    Z = rf.find_separating_complex(P)
    assert Z.piece_count() == 2
    # each piece contains exactly one boundary component: checked internally;
    # also removing |Z| leaves exactly two components
    assert len(Z.pieces) == 2


def test_separating_product_pinned():
    # pinned: the spanning tree, and so Z, depends on the order in which
    # the adjacency graph adds its edges
    P = fa.product_with_interval(fa.circle_complex(6), 3)
    Z = rf.find_separating_complex(P)
    assert Z.facet_ids == [30, 32, 36, 40, 44, 45, 48, 49, 51, 53, 55, 57]
    assert Z.pieces == [list(range(66, 78)), list(range(78, 84))]


def test_separating_disk_one_piece():
    Z = rf.find_separating_complex(fa.rect_grid(3, 3))
    assert Z.piece_count() == 1


def test_separating_touching_collars():
    P = fa.product_with_interval(fa.circle_complex(6), 2)
    with pytest.raises(NoDisjointCollars):
        rf.find_separating_complex(P)


def test_separating_peeling_proxy_can_fail():
    # the peeling proxy for condition (3) fails where a facet has more than
    # two cofaces: a unit cube's boundary glued to a 7x7 grid along the
    # interior edge (3, 3)-(4, 3), its six other vertices new
    G = fa.rect_grid(7, 7)
    at = {x: v for v, x in G.vertices.items()}
    glued = {(0, 0, 0): at[(3, 3)], (1, 0, 0): at[(4, 3)]}
    new = itertools.count(max(G.vertices) + 1)
    corner = {c: glued[c] if c in glued else next(new)
              for c in itertools.product((0, 1), repeat=3)}
    squares = []
    for axis, side in itertools.product(range(3), (0, 1)):
        free = [j for j in range(3) if j != axis]
        squares.append((2, [corner[tuple(
            side if j == axis else (i >> free.index(j)) & 1 for j in range(3))]
            for i in range(4)], cc.CUBE))
    K = cc.build_complex(
        2, cc.CUBICAL, dict(G.vertices) | dict.fromkeys(
            set(corner.values()) - set(G.vertices)),
        [(c.dim, c.order, c.kind) for c in map(G.cell, G.top_ids())]
        + squares)
    assert K.n_cells(2) == 55 and len(rf.boundary_components(K)) == 1
    with pytest.raises(NoDisjointCollars, match="does not peel"):
        rf.find_separating_complex(K)



# -- canonical triangulation of a cube ------------------------------------------------


def test_simplex_cover_counts():
    # each corner of the k-cube lies in k! barycentric simplices, and there
    # are flag_count(k) = 2^k k! in all
    for k in (2, 3):
        T = cc.canonical_triangulation(fa.unit_cube(k))
        corners = [v for v, d in T.vertex_cube_dim.items() if d == 0]
        assert len(corners) == 2 ** k
        assert {sum(T.cell(i).dim == k for i in T.star_cell_ids(v))
                for v in corners} == {math.factorial(k)}
        assert len(T.top_ids()) == rf.flag_count(k)
