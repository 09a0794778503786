"""Cyclic cell partitions, sphericalization ranks, neighborly forests.

Colors live in 1..p; the face between cells k and k+1 (cyclically) is
identified by the integer k, so cell c has faces c-1 and c (mod p, 1-based).
A boundary simplex between pieces i and j carries the face images f_i, f_j
of the two incident maps; its rank is 2p plus the number of cells enclosed
between the image faces.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field

from .complex_core import spanning_forest
from .errors import ColorComponentWithoutRoot, InconsistentFaces


def _wrap(k, p):
    return (k - 1) % p + 1


def faces_of_cell(c, p):
    """The two face ids of cyclic cell c: lower (c-1) and upper (c)."""
    return (_wrap(c - 1, p), _wrap(c, p))


def rank_sigma(ci, fi, cj, fj, p):
    """Cells of the partition inside the enclosed cell D_sigma.

    Same color: the complement of the cell, p-1 pieces (the face images must
    differ by orientation).  Different colors: the arc walked from f_i away
    from cell ci toward f_j; the two faces must bound a common component.
    Covers p = 2 and adjacent colors as special cases of the same formula.
    """
    if p < 2:
        raise InconsistentFaces("p >= 2 required")
    for c, f in ((ci, fi), (cj, fj)):
        if f not in faces_of_cell(c, p):
            raise InconsistentFaces(f"face {f} is not a face of cell {c}")
    if ci == cj:
        if fi == fj:
            raise InconsistentFaces(
                "equal face images on a same-color pair violate orientation")
        return p - 1
    upper_i = fi == _wrap(ci, p)
    upper_j = fj == _wrap(cj, p)
    if upper_i and not upper_j:
        return (cj - ci - 1) % p
    if not upper_i and upper_j:
        return (ci - cj - 1) % p
    raise InconsistentFaces(
        f"faces {fi},{fj} of cells {ci},{cj} do not bound a common component")


def rank_of(ci, fi, cj, fj, p):
    """Full rank r(sigma) = 2p + r_sigma."""
    return 2 * p + rank_sigma(ci, fi, cj, fj, p)


def partner_faces(ci, fi, cj, fj, p):
    """Face images of the adjacent boundary simplex (both maps flip faces)."""
    gi = next(f for f in faces_of_cell(ci, p) if f != fi)
    gj = next(f for f in faces_of_cell(cj, p) if f != fj)
    return gi, gj


@dataclass
class SketchSpec:
    """Combinatorial Alexander sketch: pieces, colors, boundary simplices.

    Each boundary simplex is (simplex id, i, j, f_i, f_j, sign_i, sign_j);
    `adjacency` lists pairs of simplex ids adjacent in the boundary complex.
    """

    p: int
    colors: dict                  # piece -> color in 1..p
    simplices: list               # (sid, i, j, fi, fj, si, sj)
    adjacency: list = field(default_factory=list)

    def validate(self):
        for sid, i, j, fi, fj, si, sj in self.simplices:
            if i == j:
                raise InconsistentFaces(f"simplex {sid} bounds one piece twice")
            if si == sj:
                raise InconsistentFaces(
                    f"simplex {sid}: image faces must carry opposite signs")
            rank_sigma(self.colors[i], fi, self.colors[j], fj, self.p)
        return self

    def piece_count(self):
        return len(self.colors)


def rank_function(sketch):
    """r(sigma) per boundary simplex; adjacency identity verified."""
    sketch.validate()
    p = sketch.p
    by_id = {s[0]: s for s in sketch.simplices}
    ranks = {}
    for sid, i, j, fi, fj, *_ in sketch.simplices:
        ranks[sid] = rank_of(sketch.colors[i], fi, sketch.colors[j], fj, p)
    for a, b in sketch.adjacency:
        sa, sb = by_id[a], by_id[b]
        if {sa[1], sa[2]} == {sb[1], sb[2]}:
            if (ranks[a] + ranks[b] + 2) % p:
                raise InconsistentFaces(
                    f"adjacent simplices {a},{b}: rank sum {ranks[a]}+{ranks[b]}+2 "
                    f"is not a multiple of {p}")
    return ranks


def sphericalize_counts(sketch, ranks=None):
    """Partition growth under sphericalization.

    Returns (m', per-simplex new pieces with colors).  Each simplex sigma of
    rank r contributes r-1 pieces colored by the cyclic walk that starts on
    the far side of f_i(sigma).
    """
    if ranks is None:
        ranks = rank_function(sketch)
    p = sketch.p
    per = {}
    for sid, i, j, fi, fj, *_ in sketch.simplices:
        r = ranks[sid]
        ci = sketch.colors[i]
        direction = 1 if fi == _wrap(ci, p) else -1
        colors = [_wrap(ci + direction * (k + 1), p) for k in range(r - 1)]
        per[sid] = colors
    m_new = sketch.piece_count() + sum(len(v) for v in per.values())
    return m_new, per


# -- neighborly forests -------------------------------------------------------------


def neighborly_forest(pieces, colors, incidences, roots):
    """An R-forest: every piece in exactly one tree, one root per tree.

    Pieces are neighbours when they have the same color and share an
    (n-2)-simplex; `incidences` is an iterable of (piece, piece, shared
    simplex id).  Returns a list of trees, each {"root": r, "nodes": [...],
    "edges": [(a, b, designated shared simplex)]}; the designated simplex is
    the smallest-id common (n-2)-simplex of the edge.
    """
    shared = {p: {} for p in pieces}  # piece -> neighbour -> least simplex
    for a, b, s in incidences:
        if colors[a] != colors[b]:
            continue
        for x, y in ((a, b), (b, a)):
            nbrs = shared.setdefault(x, {})
            nbrs[y] = min(s, nbrs.get(y, s))
    comps, _ = spanning_forest(shared, [(a, b) for a in shared
                                        for b in shared[a]])
    roots = list(roots)
    root_set = set(roots)
    trees = []
    assigned = {}
    for comp in comps:
        comp_roots = sorted(root_set.intersection(comp))
        if not comp_roots:
            raise ColorComponentWithoutRoot(
                f"component {comp} contains no root")
        # multi-source BFS: each vertex joins the tree of the root that
        # reaches it first (ties by root order)
        parent = {r: None for r in comp_roots}
        owner = {r: r for r in comp_roots}
        queue = deque(comp_roots)
        while queue:
            u = queue.popleft()
            for w in sorted(shared[u]):
                if w not in owner:
                    owner[w] = owner[u]
                    parent[w] = u
                    queue.append(w)
        for r in comp_roots:
            nodes = [v for v in comp if owner[v] == r]
            edges = [(parent[v], v, shared[v][parent[v]])
                     for v in nodes if parent[v] is not None]
            trees.append({"root": r, "nodes": nodes, "edges": edges})
        assigned.update(owner)
    if set(assigned) != set(pieces):
        raise ColorComponentWithoutRoot("forest does not cover every piece")
    return trees


def sweep_rank_identity(p_values=range(2, 7)):
    """Exhaustive adjacency-identity sweep: r(sigma)+r(sigma')+2 = 0 mod p.

    Iterates every color pair and every consistent face-image case, pairing
    each simplex with its adjacent partner (both maps flip to their other
    face).  Returns the number of cases checked; raises on any failure.
    """
    checked = 0
    for p in p_values:
        for ci, cj in itertools.product(range(1, p + 1), repeat=2):
            for fi, fj in itertools.product(faces_of_cell(ci, p),
                                            faces_of_cell(cj, p)):
                try:
                    r1 = rank_of(ci, fi, cj, fj, p)
                except InconsistentFaces:
                    continue
                gi, gj = partner_faces(ci, fi, cj, fj, p)
                r2 = rank_of(ci, gi, cj, gj, p)
                if (r1 + r2 + 2) % p:
                    raise InconsistentFaces(
                        f"identity fails: p={p} colors=({ci},{cj}) "
                        f"faces=({fi},{fj}) ranks {r1},{r2}")
                checked += 1
    return checked
