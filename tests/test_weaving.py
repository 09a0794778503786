"""Rank combinatorics, sphericalization counts, neighborly forests."""

import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubalex import weaving as wv
from cubalex.errors import ColorComponentWithoutRoot, InconsistentFaces

from gen import random_sketch_pieces


def arc_enumeration_oracle(ci, fi, cj, fj, p):
    """Oracle: count cells in the enclosed region by walking the cycle.

    Starting from cell ci, cross face fi and keep walking away from ci,
    collecting cells until the far side of fj lands on cj.
    """
    def wrap(k):
        return (k - 1) % p + 1

    if ci == cj:
        return p - 1  # complement of the one cell
    step = +1 if fi == wrap(ci) else -1
    cells = []
    cur = wrap(ci + step)
    while cur != cj:
        cells.append(cur)
        cur = wrap(cur + step)
    return len(cells)


def test_rank_sigma_matches_arc_oracle():
    for p in range(2, 7):
        for ci, cj in itertools.product(range(1, p + 1), repeat=2):
            for fi in wv.faces_of_cell(ci, p):
                for fj in wv.faces_of_cell(cj, p):
                    try:
                        got = wv.rank_sigma(ci, fi, cj, fj, p)
                    except InconsistentFaces:
                        continue
                    assert got == arc_enumeration_oracle(ci, fi, cj, fj, p)


def test_rank_examples():
    assert wv.rank_sigma(2, 1, 2, 2, 4) == 3          # same color, p=4
    assert wv.rank_sigma(1, 1, 2, 1, 5) == 0          # adjacent, equal images
    assert wv.rank_sigma(1, 1, 2, 1, 2) == 0          # p=2, different colors
    assert wv.rank_sigma(1, 5, 2, 2, 5) == 3          # case (i): p-2


def test_rank_inconsistent_cases():
    with pytest.raises(InconsistentFaces):
        wv.rank_sigma(1, 1, 1, 1, 4)                  # same color, same face
    with pytest.raises(InconsistentFaces):
        wv.rank_sigma(1, 3, 2, 1, 5)                  # face not on the cell
    with pytest.raises(InconsistentFaces):
        wv.rank_sigma(1, 1, 3, 3, 5)                  # mismatched arc sides


def test_identity_sweep_exhaustive():
    assert wv.sweep_rank_identity(range(2, 7)) > 0


def test_ranks_at_least_2p():
    for p in range(2, 7):
        for ci, cj in itertools.product(range(1, p + 1), repeat=2):
            for fi in wv.faces_of_cell(ci, p):
                for fj in wv.faces_of_cell(cj, p):
                    try:
                        assert wv.rank_of(ci, fi, cj, fj, p) >= 2 * p
                    except InconsistentFaces:
                        pass


def toy_sketch():
    return wv.SketchSpec(
        p=3, colors={1: 1, 2: 2},
        simplices=[("s1", 1, 2, 1, 1, +1, -1), ("s2", 1, 2, 3, 2, -1, +1)],
        adjacency=[("s1", "s2")])


def test_rank_function_toy():
    ranks = wv.rank_function(toy_sketch())
    assert all(6 <= r <= 8 for r in ranks.values())


def test_sphericalize_counts():
    sk = toy_sketch()
    ranks = wv.rank_function(sk)
    m_new, per = wv.sphericalize_counts(sk, ranks)
    assert m_new == 2 + sum(r - 1 for r in ranks.values())
    for sid, colors in per.items():
        assert len(colors) == ranks[sid] - 1
        assert all(1 <= c <= 3 for c in colors)


def test_sphericalize_single_shared_simplex_p2():
    # one shared simplex, p=2, same color on both sides: r = 2p + 1 = 5;
    # with different colors r = 4, giving r - 1 = 3 new pieces
    sk = wv.SketchSpec(p=2, colors={1: 1, 2: 2},
                       simplices=[("s", 1, 2, 1, 1, +1, -1)])
    m_new, per = wv.sphericalize_counts(sk)
    assert len(per["s"]) == 3 and m_new == 5


def test_sphericalize_no_shared():
    sk = wv.SketchSpec(p=2, colors={1: 1, 2: 2}, simplices=[])
    m_new, per = wv.sphericalize_counts(sk)
    assert m_new == 2 and per == {}


# -- forests ------------------------------------------------------------------------


def test_forest_chain():
    colors = {1: 1, 2: 1, 3: 1, 4: 2, 5: 2}
    inc = [(1, 2, "a"), (2, 3, "b"), (4, 5, "c")]
    trees = wv.neighborly_forest([1, 2, 3, 4, 5], colors, inc, [1, 4])
    covered = sorted(v for t in trees for v in t["nodes"])
    assert covered == [1, 2, 3, 4, 5]
    assert all(sum(1 for v in t["nodes"] if v in {1, 4}) == 1 for t in trees)


def test_forest_every_piece_a_root():
    trees = wv.neighborly_forest([1, 2], {1: 1, 2: 1}, [], [1, 2])
    assert sorted(t["root"] for t in trees) == [1, 2]
    assert all(len(t["nodes"]) == 1 for t in trees)


def test_forest_rootless_component():
    with pytest.raises(ColorComponentWithoutRoot):
        wv.neighborly_forest([1, 2], {1: 1, 2: 2}, [], [1])


def test_forest_designated_simplex_smallest():
    inc = [(1, 2, "z9"), (1, 2, "a1")]
    trees = wv.neighborly_forest([1, 2], {1: 1, 2: 1}, inc, [1])
    assert trees[0]["edges"][0][2] == "a1"


def test_forest_random_sketches():
    rng = random.Random(23)
    for _ in range(20):
        pieces, colors, inc, roots = random_sketch_pieces(rng)
        trees = wv.neighborly_forest(pieces, colors, inc, roots)
        covered = sorted(v for t in trees for v in t["nodes"])
        assert covered == sorted(pieces)
        for t in trees:
            assert sum(1 for v in t["nodes"] if v in set(roots)) == 1


def networkx_forest(pieces, colors, incidences, roots):
    """The reference: `neighborly_forest` as it was built on networkx."""
    g = nx.Graph()
    g.add_nodes_from(pieces)
    for a, b, s in incidences:
        if colors[a] != colors[b]:
            continue
        if g.has_edge(a, b):
            g.edges[a, b]["shared"].append(s)
        else:
            g.add_edge(a, b, shared=[s])
    root_set = set(roots)
    trees = []
    assigned = {}
    for comp in nx.connected_components(g):
        comp_roots = sorted(root_set & comp)
        if not comp_roots:
            raise ColorComponentWithoutRoot(
                f"component {sorted(comp)} contains no root")
        parent = {r: None for r in comp_roots}
        owner = {r: r for r in comp_roots}
        queue = list(comp_roots)
        while queue:
            u = queue.pop(0)
            for w in sorted(g.neighbors(u)):
                if w not in owner:
                    owner[w] = owner[u]
                    parent[w] = u
                    queue.append(w)
        for r in comp_roots:
            nodes = sorted(v for v in comp if owner[v] == r)
            edges = [(parent[v], v, sorted(g.edges[v, parent[v]]["shared"])[0])
                     for v in nodes if parent[v] is not None]
            trees.append({"root": r, "nodes": nodes, "edges": edges})
        assigned.update(owner)
    if set(assigned) != set(pieces):
        raise ColorComponentWithoutRoot("forest does not cover every piece")
    return trees


def forest_or_error(forest, *args):
    try:
        return forest(*args)
    except ColorComponentWithoutRoot as exc:
        return str(exc)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=12).flatmap(lambda m: st.tuples(
    st.permutations(range(m)),
    st.lists(st.integers(1, 3), min_size=m, max_size=m),
    st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1),
                       st.integers(0, 40)), max_size=3 * m),
    st.sets(st.integers(0, m - 1)))))
def test_forest_matches_networkx_reference(case):
    # random pieces, some components without a root, repeated incidences
    pieces, colors, incidences, roots = case
    args = (pieces, dict(enumerate(colors)), incidences, sorted(roots))
    assert (forest_or_error(wv.neighborly_forest, *args)
            == forest_or_error(networkx_forest, *args))


def test_forest_matches_networkx_reference_on_sketches():
    rng = random.Random(29)
    for _ in range(20):
        args = random_sketch_pieces(rng)
        assert wv.neighborly_forest(*args) == networkx_forest(*args)
