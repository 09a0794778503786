"""Shellability of cubical complexes on cells, and star-replacements.

The prefix-intersection test is a certificate, not a proof: an intersection
passes when its (n-1)-cubes are nonempty, connected, account for every
shared lower cell, and (on cube boundaries) contain a face whose opposite
face is absent.  Exact at desk scale for n <= 3; flagged as a certificate
for n >= 4.
"""

from __future__ import annotations

import math

import networkx as nx

from .complex_core import (
    CUBICAL, SIMPLEX, SIMPLICIAL, assert_cell, build_complex,
    canonical_triangulation, cell_check,
)
from .errors import (AllOppositePairsPresent, NotACell, NotAPermutation,
                     NotCubical)


def _facet_complex_is_cell(K, q, facet_ids):
    """Certificate that a union of facets of cube q is an (n-1)-cell."""
    if not facet_ids:
        return False
    all_facets = K.facet_ids(q)
    if len(facet_ids) == len(all_facets):
        return False  # the whole boundary sphere
    if not nx.is_connected(K.adjacency_graph(facet_ids)):
        return False
    # opposite-face test: some facet's opposite (slot j ^ 1 of j) is absent
    chosen = set(facet_ids)
    return any(all_facets[j ^ 1] not in chosen
               for j, f in enumerate(all_facets) if f in chosen)


def verify_shelling(K, order):
    """Check a shelling order; returns (ok, first violating index or None)."""
    if K.mode != CUBICAL:
        raise NotCubical("verify_shelling needs a cubical complex")
    tops = sorted(K.top_ids())
    if sorted(order) != tops:
        raise NotAPermutation(f"{order} is not a permutation of {tops}")
    for i in range(1, len(order)):
        q = order[i]
        prefix = order[:i]
        shared = K.shared_facets(q, prefix)
        if not _facet_complex_is_cell(K, q, shared):
            return False, i
        # every shared lower cell must lie in the shared facets' closure
        prefix_verts = {v for j in prefix for v in K.cell(j).verts}
        shared_verts = {v for f in shared for v in K.cell(f).verts}
        if (set(K.cell(q).verts) & prefix_verts) - shared_verts:
            return False, i
    return True, None


def _boundary_contact(K, q, boundary_facets):
    return sum(1 for f in K.facet_ids(q) if f in boundary_facets)


def find_shelling(K):
    """A shelling order of a cubical complex on an n-cell, or None.

    n = 2 uses the constructive peel (remove a boundary cube whose
    intersection with the boundary is connected); n >= 3 falls back to
    backtracking with prefix pruning and reports None only after an
    exhaustive search.
    """
    if K.mode != CUBICAL:
        raise NotCubical("find_shelling needs a cubical complex")
    assert_cell(K)
    if K.dimension == 2:
        return _find_shelling_2d(K)
    return _find_shelling_backtrack(K)


def _boundary_arc_connected(K, q, sub_tops):
    """Is q's intersection with the boundary of the sub-complex connected?

    Works on the boundary of the subcomplex spanned by sub_tops; the
    intersection is taken among q's edges and vertices.
    """
    S = K.subcomplex(sub_tops)
    bfacets = {S.cell(i).verts for i in S.boundary_facet_ids()}
    bverts = set()
    for vs in bfacets:
        bverts.update(vs)
    edges = [K.cell(i).verts for i in K.facet_ids(q)
             if K.cell(i).verts in bfacets]
    verts = [v for v in K.cell(q).verts if v in bverts]
    if not edges and not verts:
        return False
    g = nx.Graph()
    for v in verts:
        g.add_node(("v", v))
    for e in edges:
        g.add_node(("e", e))
        for v in e:
            if ("v", v) in g:
                g.add_edge(("e", e), ("v", v))
    return nx.is_connected(g) and bool(edges)


def _find_shelling_2d(K):
    remaining = list(K.top_ids())
    peel = []
    while len(remaining) > 1:
        found = None
        for q in sorted(remaining):
            rest = [t for t in remaining if t != q]
            if not _boundary_arc_connected(K, q, remaining):
                continue
            rest_complex = K.subcomplex(rest)
            if cell_check(rest_complex):
                continue
            found = q
            break
        if found is None:
            return None
        peel.append(found)
        remaining.remove(found)
    order = list(reversed(peel + remaining))
    ok, _ = verify_shelling(K, order)
    return order if ok else None


def _find_shelling_backtrack(K):
    tops = sorted(K.top_ids())
    boundary_facets = set(K.boundary_facet_ids())

    def candidates(prefix, used):
        pool = [q for q in tops if q not in used]
        if not prefix:
            pool.sort(key=lambda q: (-_boundary_contact(K, q, boundary_facets), q))
            return pool
        scored = []
        for q in pool:
            shared = K.shared_facets(q, prefix)
            if not shared:
                continue
            if _facet_complex_is_cell(K, q, shared):
                prefix_verts = {v for j in prefix for v in K.cell(j).verts}
                shared_verts = {v for f in shared for v in K.cell(f).verts}
                if (set(K.cell(q).verts) & prefix_verts) - shared_verts:
                    continue
                scored.append((-len(shared), q))
        scored.sort()
        return [q for _, q in scored]

    order = []
    used = set()

    def descend():
        if len(order) == len(tops):
            return True
        for q in candidates(order, used):
            order.append(q)
            used.add(q)
            if descend():
                return True
            order.pop()
            used.remove(q)
        return False

    return list(order) if descend() else None


def boundary_face_shelling(P):
    """Shelling of a subcomplex of a cube boundary that is an (n-1)-cell.

    Starts at a face whose opposite face is absent, then completes through
    adjacency (verified greedily, with backtracking for safety).
    """
    tops = sorted(P.top_ids())
    opposite = {}
    for a in tops:
        va = set(P.cell(a).verts)
        for b in tops:
            if b != a and not (va & set(P.cell(b).verts)):
                opposite[a] = b
    starters = [a for a in tops if opposite.get(a) not in set(tops)]
    if len(tops) > 1 and all(opposite.get(a) in set(tops) for a in tops):
        raise AllOppositePairsPresent(
            "every face has its opposite present; |P| is not a cell")
    if len(tops) == 1:
        return [tops[0]]

    def complete(order, used):
        if len(order) == len(tops):
            ok, _ = verify_shelling(P, order)
            return list(order) if ok else None
        for q in tops:
            if q in used:
                continue
            shared = P.shared_facets(q, order)
            if not shared or not _facet_complex_is_cell(P, q, shared):
                continue
            order.append(q)
            used.add(q)
            res = complete(order, used)
            if res:
                return res
            order.pop()
            used.remove(q)
        return None

    for s in starters:
        res = complete([s], {s})
        if res:
            return res
    raise NotACell("no shelling completion found")


def star_replacement(K):
    """The star-replacement K*: one interior vertex coned over K^Delta's boundary.

    #(K*)^(n) equals the number of boundary (n-1)-simplices of K^Delta.
    """
    assert_cell(K)
    T = canonical_triangulation(K)
    n = K.dimension
    bfacets = T.boundary_facet_ids()
    center = max(T.vertices) + 1
    verts = {}
    keep = set()
    for i in bfacets:
        keep.update(T.cell(i).verts)
    for v in keep:
        verts[v] = T.vertices[v]
    verts[center] = None
    tops = [(n, tuple(sorted(T.cell(i).verts + (center,))), SIMPLEX)
            for i in bfacets]
    S = build_complex(n, SIMPLICIAL, verts, tops)
    S.vertex_cube_dim.update({v: T.vertex_cube_dim.get(v, 0) for v in keep})
    S.vertex_cube_dim[center] = n
    return S


def star_replacement_cover_count(K):
    """m = (#(K^Delta)^(n) - #(K*)^(n)) / 2, the deformation ledger total.

    A k-cube carries 2^k k! flag simplices, so #(K^Delta)^(n) = #K^(n) 2^n n!
    and #(K*)^(n) = #(boundary of K)^(n-1) 2^(n-1) (n-1)!; neither is built.
    """
    if K.mode != CUBICAL:
        raise NotCubical("cover count needs a cubical complex")
    assert_cell(K)
    n = K.dimension
    diff = ((2 * n * K.n_cells(n) - len(K.boundary_facet_ids()))
            * 2 ** (n - 1) * math.factorial(n - 1))
    if diff % 2:
        raise NotACell("odd simplex difference; input is not a cell complex")
    return diff // 2
