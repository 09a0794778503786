"""Shellability of cubical complexes on cells, and star-replacements.

The prefix-intersection test is a certificate, not a proof: an intersection
passes when its (n-1)-cubes are nonempty, connected, account for every
shared lower cell, and (on cube boundaries) contain a face whose opposite
face is absent.  Exact at desk scale for n <= 3; flagged as a certificate
for n >= 4.  One function, `_extends`, applies this step test everywhere.

In 2-D the search peels on boundary counts: a square comes off the remaining
disk when it meets the disk's boundary in one arc, i.e. with e of its edges
and v of its vertices on the boundary, 1 <= e <= 3 and v == e + 1.
"""

from __future__ import annotations

import math

import numpy as np

from .complex_core import (
    CUBICAL, SIMPLICIAL, _of_rows, assert_cell, flag_centres, flag_rows,
)
from .errors import NotAPermutation, NotCubical


def _facet_complex_is_cell(K, q, facet_ids):
    """Certificate that a union of facets of cube q is an (n-1)-cell.

    Two facets of a cube meet in an (n-2)-face unless they are opposite
    (slots j and j ^ 1), so a union with some facet's opposite absent is
    connected as well.
    """
    all_facets = K.facet_ids(q)
    if not facet_ids or len(facet_ids) == len(all_facets):
        return False  # empty, or the whole boundary sphere
    chosen = set(facet_ids)
    return any(all_facets[j ^ 1] not in chosen
               for j, f in enumerate(all_facets) if f in chosen)


def _extends(K, q, prefix, prefix_verts):
    """The shelling step test: q's facets shared with the prefix (a set of
    cube ids, with `prefix_verts` the set of their vertices) when they form
    an (n-1)-cell on which every vertex q shares with it lies; else None.
    """
    shared = K.shared_facets(q, prefix)
    if not _facet_complex_is_cell(K, q, shared):
        return None
    shared_verts = {v for f in shared for v in K.cell(f).verts}
    if (set(K.cell(q).verts) & prefix_verts) - shared_verts:
        return None
    return shared


def verify_shelling(K, order):
    """Check a shelling order; returns (ok, first violating index or None).
    The prefix and its vertices are carried from step to step, so the check
    costs one step test per cube."""
    if K.mode != CUBICAL:
        raise NotCubical("verify_shelling needs a cubical complex")
    tops = sorted(K.top_ids())
    if sorted(order) != tops:
        raise NotAPermutation(f"{order} is not a permutation of {tops}")
    prefix, verts = set(), set()
    for i, q in enumerate(order):
        if prefix and _extends(K, q, prefix, verts) is None:
            return False, i
        prefix.add(q)
        verts.update(K.cell(q).verts)
    return True, None


def find_shelling(K):
    """A shelling order of a cubical complex on an n-cell, or None.

    n = 2 peels the disk from outside in: the first square, in id order,
    that meets the boundary of the remaining disk in one arc (one to three
    consecutive edges, and no other vertex) comes off next, and the peel
    reversed is the order.  n >= 3 falls back to backtracking with prefix
    pruning and reports None only after an exhaustive search.
    """
    if K.mode != CUBICAL:
        raise NotCubical("find_shelling needs a cubical complex")
    assert_cell(K)
    if K.dimension == 2:
        return _find_shelling_2d(K)
    return _find_shelling_backtrack(K)


def _boundary_counts(K):
    """Boundary state of the whole 2-disk K, for the peel.

    left[e] counts the squares still on edge e, so e lies on the boundary
    iff left[e] == 1; on_bd[v] counts the boundary edges at vertex v.
    """
    left = {e: len(K.coface_ids(e)) for e in K.cell_ids(1)}
    on_bd = dict.fromkeys(K.vertices, 0)
    for e, n in left.items():
        if n == 1:
            for v in K.cell(e).verts:
                on_bd[v] += 1
    return left, on_bd


def _meets_boundary_in_arc(K, q, left, on_bd):
    """Does square q meet the boundary of the remaining disk in one arc?

    With e of q's edges and v of its vertices on the boundary, the edges
    form one arc and no other vertex is touched iff 1 <= e <= 3 and
    v == e + 1; then the disk minus q is again a disk.
    """
    e = sum(left[f] == 1 for f in K.facet_ids(q))
    v = sum(on_bd[w] > 0 for w in K.cell(q).verts)
    return 1 <= e <= 3 and v - e == 1


def _peel_off(K, q, left, on_bd):
    """Remove square q from the boundary state."""
    for f in K.facet_ids(q):
        left[f] -= 1
        if left[f] < 2:  # 2 -> 1 joins the boundary, 1 -> 0 leaves it
            step = 1 if left[f] else -1
            for v in K.cell(f).verts:
                on_bd[v] += step


def _find_shelling_2d(K):
    left, on_bd = _boundary_counts(K)
    remaining = set(K.top_ids())
    peel = []
    while len(remaining) > 1:
        q = next((q for q in sorted(remaining)
                  if _meets_boundary_in_arc(K, q, left, on_bd)), None)
        if q is None:
            return None
        _peel_off(K, q, left, on_bd)
        remaining.remove(q)
        peel.append(q)
    order = list(reversed(peel + list(remaining)))
    ok, _ = verify_shelling(K, order)
    return order if ok else None


def _complete(K, order, tops, rank):
    """Extend `order` depth-first to all of `tops` through cubes that pass
    the step test, tried by (rank(shared facets), id); first leaf or None."""
    if len(order) == len(tops):
        return list(order)
    steps, prefix = [], set(order)
    verts = {v for j in order for v in K.cell(j).verts}
    for q in tops:
        shared = None if q in prefix else _extends(K, q, prefix, verts)
        if shared is not None:
            steps.append((rank(shared), q))
    for _, q in sorted(steps):
        order.append(q)
        done = _complete(K, order, tops, rank)
        if done:
            return done
        order.pop()
    return None


def _find_shelling_backtrack(K):
    tops = sorted(K.top_ids())
    boundary = set(K.boundary_facet_ids())
    contact = {q: sum(f in boundary for f in K.facet_ids(q)) for q in tops}
    for q in sorted(tops, key=lambda q: (-contact[q], q)):
        done = _complete(K, [q], tops, lambda shared: -len(shared))
        if done:
            return done
    return None


def star_replacement(K):
    """The star-replacement K*: one interior vertex coned over K^Delta's boundary.

    The boundary of K^Delta is the flags under K's boundary (n-1)-cubes
    (`flag_rows`), so K^Delta is not built: K*'s k-simplices are those flags
    of length k + 1 and, coned to a new vertex above every centre, those of
    length k.  #(K*)^(n) equals the number of full flags.
    """
    assert_cell(K)
    n = K.dimension
    centres = flag_centres(K)
    # by length, from the empty flag; the apex is cube id len(centres)
    flags = [np.zeros((1, 0), dtype=np.int32)] + flag_rows(
        K, K.boundary_facet_ids())
    apex = len(centres)
    rows = []
    for k in range(n + 1):
        simplices = np.column_stack((flags[k], np.full(len(flags[k]), apex,
                                                        dtype=np.int32)))
        if k < n:
            simplices = np.concatenate((flags[k + 1], simplices))
            simplices = simplices[np.lexsort(simplices.T[::-1])]
        rows.append(simplices)
    keep = flags[1][:, 0]
    # cube ids to vertex places: the kept centres ascend, the apex is last
    place = np.zeros(apex + 1, dtype=np.int32)
    place[keep] = np.arange(len(keep))
    place[apex] = len(keep)
    rows = [place[r] for r in rows]
    keep = keep.tolist()
    ids = [v for v, _ in centres] + [centres[-1][0] + 1]
    verts = {ids[i]: centres[i][1] for i in keep} | {ids[apex]: None}
    vdim = {ids[i]: K.cell(i).dim for i in keep} | {ids[apex]: n}
    return _of_rows(n, SIMPLICIAL, verts, rows, vdim)


def star_replacement_cover_count(K):
    """m = (#(K^Delta)^(n) - #(K*)^(n)) / 2, the deformation ledger total.

    A k-cube carries 2^k k! flag simplices, so #(K^Delta)^(n) = #K^(n) 2^n n!
    and #(K*)^(n) = #(boundary of K)^(n-1) 2^(n-1) (n-1)!; neither is built.

    The difference is even: for n >= 2 it carries the factor 2^(n-1), and
    for n = 1 `assert_cell` has made K a path of e edges with two boundary
    vertices, so it is 2e - 2.
    """
    if K.mode != CUBICAL:
        raise NotCubical("cover count needs a cubical complex")
    assert_cell(K)
    n = K.dimension
    return ((2 * n * K.n_cells(n) - len(K.boundary_facet_ids()))
            * 2 ** (n - 1) * math.factorial(n - 1)) // 2
