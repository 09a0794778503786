"""Refinement, molecules, level/expansion functions, dents, separating."""

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
    NotATree, NotCubical, UnclassifiableFace,
)

from gen import random_disk_polyomino, random_molecule, random_molecule_spec


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


@pytest.mark.parametrize("n", [2, 3])
def test_core_buffer_of_refined_cube(n):
    R = rf.refine(fa.unit_cube(n), 1)
    assert rf.core(R.complex).n_cells(n) == 1
    assert rf.buffer(R.complex).n_cells(n) == 3 ** n - 1


def test_skeleton_metric():
    import math
    K = fa.rect_grid(2, 1)
    vid = {pos: v for v, pos in K.vertices.items()}
    u, v = vid[(0, 0)], vid[(2, 1)]
    d0 = rf.skeleton_metric(K, u, v, 0)
    d2 = rf.skeleton_metric(K, u, v, 2)
    assert d0 == pytest.approx(3.0)          # taxicab relaxation
    assert d2 <= d0 + 1e-12                  # refinement never lengthens
    # upper bound of the length metric within sqrt(n)
    assert math.hypot(2, 1) <= d2 <= math.sqrt(2) * math.hypot(2, 1)


def test_skeleton_metric_matches_networkx_dijkstra():
    rng = random.Random(8)
    cases = [fa.rect_grid(2, 1), fa.unit_cube(3)]
    cases += [fa.grid_complex(random_disk_polyomino(rng, 6)) for _ in range(3)]
    for K in cases:
        for j in (0, 1):
            R = rf.refine(K, j).complex if j else K
            g = nx.Graph()
            for i in R.cell_ids(1):
                a, b = R.cell(i).verts
                g.add_edge(a, b, weight=math.dist(R.vertices[a], R.vertices[b]))
            at = {pos: w for w, pos in R.vertices.items()}
            for u, v in [rng.sample(sorted(K.vertices), 2) for _ in range(4)]:
                want = nx.dijkstra_path_length(
                    g, *(at[tuple(x * 3 ** j for x in K.vertices[w])]
                         for w in (u, v))) / 3 ** j
                assert rf.skeleton_metric(K, u, v, j) == pytest.approx(want)


def test_skeleton_metric_between_skeleton_components_is_inf():
    K = fa.grid_complex([(0, 0), (5, 5)])
    vid = {pos: v for v, pos in K.vertices.items()}
    assert rf.skeleton_metric(K, vid[(0, 0)], vid[(6, 6)]) == math.inf
    assert rf.skeleton_metric(K, vid[(0, 0)], vid[(0, 0)]) == 0


def test_center_cube_and_rim():
    c = rf.center_cube(((0, 0), 3))
    assert c == ((3, 3), 3)  # middle third in x3 coordinates
    assert len(rf.rim_cubes(((0, 0), 3))) == 8


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


def test_beta_ratio_constant_across_index_shift():
    rng = random.Random(17)
    for _ in range(6):
        M = random_molecule(rng)
        base = {k: rf.beta_ratio(M, k) for k in M.blocks}
        for j in (1, 2):
            Ms = rf.shift_indices(M, j)
            shifted = {k: rf.beta_ratio(Ms, k) for k in Ms.blocks}
            assert shifted == base


def test_face_classification_chain():
    M = chain_molecule(ell=2, rho=1)
    lead = M.leading[0]
    cls = rf.Molecule.face_classification(M, lead)
    kinds = set(cls.values())
    assert "leading" in kinds and "back-first-kind" in kinds
    leaf = next(k for k in M.blocks if not M.children[k])
    cls2 = M.face_classification(leaf)
    assert sorted(cls2.values()).count("exterior") == 3


# -- dents --------------------------------------------------------------------------


def corner_dent(host_side=9, dent_side=3):
    host = rf.Block((0, 0), host_side)
    M = rf.build_molecule(2, [[((0, 0), dent_side)]], [1],
                          leading=((0, 0), (0, 0)))
    return rf.Dent(host, M).validate()


def test_single_cube_dent_faces():
    d = corner_dent()
    cls = d.base_roof_wall()
    assert len(cls["base"]) == 1 and len(cls["roof"]) == 1
    base = cls["base"][0][1]
    roof = cls["roof"][0][1]
    assert base.axis == roof.axis and base.coord != roof.coord


def test_chain_dent_one_base_one_roof_each():
    host = rf.Block((0, 0), 9)
    M = rf.build_molecule(2, [[((0, 0), 3)], [((3, 0), 1)]], [1, 0],
                          leading=((0, 0), (0, 0)))
    d = rf.Dent(host, M).validate()
    cls = d.base_roof_wall()
    per_base = {}
    for k, f in cls["base"]:
        per_base[k] = per_base.get(k, 0) + 1
    per_roof = {}
    for k, f in cls["roof"]:
        per_roof[k] = per_roof.get(k, 0) + 1
    assert all(v == 1 for v in per_base.values())
    assert all(v == 1 for v in per_roof.values())
    assert set(per_base) == set(per_roof) == set(M.blocks)


def test_flattening_correspondence_bijective():
    host = rf.Block((0, 0), 9)
    M = rf.build_molecule(2, [[((0, 0), 3)], [((3, 0), 1)]], [1, 0],
                          leading=((0, 0), (0, 0)))
    d = rf.Dent(host, M).validate()
    cls = d.base_roof_wall()
    corr = d.flattening_correspondence()
    sources = [s for s, _ in corr]
    targets = [t for _, t in corr]
    assert len(set(map(str, sources))) == len(corr)       # injective
    assert len(corr) == len(cls["roof"]) + len(cls["wall"])
    # every base cell and the whole leading face are covered
    base_targets = [t for t in targets if t[0] == "base"]
    assert len(base_targets) == len(cls["base"])
    bands = sorted(t[1][4] for t in targets if t[0] == "leading-band")
    assert bands[0][0] == 0 and bands[-1][1] == 1
    assert all(bands[i][1] == bands[i + 1][0] for i in range(len(bands) - 1))


def test_molecule_json_roundtrip():
    rng = random.Random(29)
    for _ in range(5):
        M = random_molecule(rng)
        M2 = rf.molecule_from_json(rf.molecule_to_json(M))
        assert M2.indices == M.indices
        assert M2.leading == M.leading
        assert rf.level_function(M2) == rf.level_function(M)


def test_classify_dent_faces_wrapper():
    hull = rf.Atom([rf.Block((0, 0), 9)])
    da = rf.DentedAtom(hull, {0: corner_dent()})
    out = rf.classify_dent_faces(da)
    assert 0 in out
    assert len(out[0]["classes"]["base"]) == 1
    assert out[0]["correspondence"]


def test_place_ledger_covers_distinct_slots():
    from cubalex import alexander as al
    led = al.ReductionLedger()
    led.add(al.LedgerStep(1, 4, 2, -2))
    led.add(al.LedgerStep(2, 6, 3, -3))
    scheme = rf.PlacementScheme(2, 1)
    rf.place_ledger_covers(led, scheme, "q0")
    slots = [p["slot"] for s in led.steps for p in s.placements]
    assert len(slots) == 5 and len(set(slots)) == 5


def test_dent_block_off_the_host_boundary():
    # the unit block at (3, 1) hangs off the leading block inside the host
    M = rf.build_molecule(2, [[((0, 0), 3)], [((3, 1), 1)]], [1, 0],
                          leading=((0, 0), (0, 0)))
    with pytest.raises(UnclassifiableFace, match="0 faces"):
        rf.Dent(rf.Block((0, 0), 9), M).validate()


def test_dented_molecule_nesting():
    # upper: one 27-block hull with a 9-cavity at its corner; lower: a 3-block
    # dented atom (no dents) sitting inside that cavity
    upper_hull = rf.Atom([rf.Block((0, 0), 27)])
    cavity = rf.build_molecule(2, [[((0, 0), 9)]], [2],
                               leading=((0, 0), (0, 0)))
    upper = rf.DentedAtom(upper_hull,
                          {0: rf.Dent(rf.Block((0, 0), 27), cavity).validate()})
    lower = rf.DentedAtom(rf.Atom([rf.Block((0, 0), 3)]), {})
    dm = rf.DentedMolecule(2, [upper, lower], [(1, 0)]).validate()
    assert dm is not None

    # a second lower atom in the same dent cube is rejected
    lower2 = rf.DentedAtom(rf.Atom([rf.Block((3, 0), 3)]), {})
    with pytest.raises(rf.BadAttachment):
        rf.DentedMolecule(2, [upper, lower, lower2],
                          [(1, 0), (2, 0)]).validate()


def test_dented_molecule_needs_unique_maximum():
    a = rf.DentedAtom(rf.Atom([rf.Block((0, 0), 3)]), {})
    b = rf.DentedAtom(rf.Atom([rf.Block((9, 0), 3)]), {})
    with pytest.raises(rf.DuplicateMaxAtom):
        rf.DentedMolecule(2, [a, b], []).validate()


def test_dented_molecule_order_must_be_acyclic():
    a = rf.DentedAtom(rf.Atom([rf.Block((0, 0), 3)]), {})
    b = rf.DentedAtom(rf.Atom([rf.Block((9, 0), 3)]), {})
    for order in ([(0, 1), (1, 0)], [(0, 0)]):
        with pytest.raises(NotATree):
            rf.DentedMolecule(2, [a, b], order).validate()


def test_dented_atom_rejects_dent_meeting_other_cube():
    hull = rf.Atom([rf.Block((0, 0), 9), rf.Block((9, 0), 9)])
    # dent reaching the shared wall of the two hull cubes
    M = rf.build_molecule(2, [[((6, 0), 3)]], [1], leading=((0, 0), (1, 0)))
    with pytest.raises(BadAttachment):
        rf.DentedAtom(hull, {0: rf.Dent(rf.Block((0, 0), 9), M).validate()}).validate()


# -- one contact table per molecule ---------------------------------------------------


def molecule_record(n, atoms, indices):
    """A spec's exception type, or its tree and every per-block query."""
    try:
        M = rf.build_molecule(n, atoms, indices)
    except Exception as exc:
        return type(exc).__name__
    return (sorted(M.parent.items()), sorted(M.children.items()),
            sorted(M.leading_face.items()), sorted(M.attach.items()),
            M.boundary_area(),
            [(k, sorted(M.face_classification(k).items()),
              M.boundary_area([k]), M.tail_boundary_area_minus_leading(k),
              rf.expansion_index(M, k), rf.beta_ratio(M, k))
             for k in M.blocks])


def test_molecule_queries_pinned():
    # 300 random specs, valid and rejected alike, and the dents of this
    # module: the digest was taken before molecules kept a contact table
    rng = random.Random(14)
    records = [molecule_record(n, *random_molecule_spec(rng, n, max_atoms=6,
                                                        max_blocks=4))
               for n in (2, 3) for _ in range(150)]
    assert {r for r in records if isinstance(r, str)} == {
        "BadAttachment", "NotATree"}
    dents = [(9, [[((0, 0), 3)]], [1], ((0, 0), (0, 0))),
             (9, [[((0, 0), 3)], [((3, 0), 1)]], [1, 0], ((0, 0), (0, 0))),
             (27, [[((0, 0), 9)]], [2], ((0, 0), (0, 0))),
             (9, [[((6, 0), 3)]], [1], ((0, 0), (1, 0)))]
    for side, atoms, indices, leading in dents:
        d = rf.Dent(rf.Block((0, 0), side),
                    rf.build_molecule(2, atoms, indices, leading)).validate()
        records.append((d.base_roof_wall(), d.flattening_correspondence()))
    digest = hashlib.sha256(repr(records).encode()).hexdigest()
    assert digest == (
        "6d4929645f13a7e7b0ec1bf296e121ecc709dac588dad2c26e79370a81a566da")


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


def old_boxes_touch(b1, b2):
    return all(max(_interval(b1, a)[0], _interval(b2, a)[0]) <=
               min(_interval(b1, a)[1], _interval(b2, a)[1])
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
    assert rf.boxes_touch(b1, b2) == old_boxes_touch(b1, b2)


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
        M.boundary_area()
        for k in M.blocks:
            M.face_classification(k)
            M.boundary_area([k])
            M.tail_boundary_area_minus_leading(k)
            rf.expansion_index(M, k)
            rf.beta_ratio(M, k)
        assert not calls
    assert max(sizes) >= 5
    host = rf.Block((0, 0), 9)
    M = rf.build_molecule(2, [[((0, 0), 3)], [((3, 0), 1)]], [1, 0],
                          leading=((0, 0), (0, 0)))
    calls.clear()
    rf.Dent(host, M).validate().base_roof_wall()
    assert not calls


# -- placement scheme ------------------------------------------------------------------


def test_placement_scheme_slots():
    s = rf.PlacementScheme(2, 1)
    assert s.mu == 60 and len(s.slots) == 60
    dmin = min(
        sum((a - b) ** 2 for a, b in zip(p, q)) ** 0.5
        for i, p in enumerate(s.slots) for q in s.slots[i + 1:])
    assert dmin > s.c0


def test_placement_mu_multiple_enforced():
    with pytest.raises(BadAttachment):
        rf.PlacementScheme(2, 1, mu=61)


def test_placement_distinct_slots():
    s = rf.PlacementScheme(2, 1)
    taken = {s.occupy("q") for _ in range(10)}
    assert len(taken) == 10


@pytest.mark.parametrize("n,rho", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_placement_game_no_overflow(n, rho):
    rep = rf.simulate_placement_game(n, rho)
    assert not rep["overflow"]
    assert rep["max_occupancy"] <= rep["mu"]


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


# -- simplex to cubes ------------------------------------------------------------------------


@pytest.mark.parametrize("n,cubes", [(1, 2), (2, 3), (3, 4)])
def test_simplex_to_cubes_counts(n, cubes):
    K = rf.simplex_to_cubes(n)
    assert K.n_cells(n) == cubes


def test_simplex_cover_counts():
    # each k-cube is a union of k! barycentric simplices
    assert rf.simplex_cover_counts(2) == {0: 2, 1: 2, 2: 2}
    assert rf.simplex_cover_counts(3) == {0: 6, 1: 6, 2: 6, 3: 6}
