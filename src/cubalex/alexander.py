"""Combinatorial Alexander maps on weakly simplicial complexes.

An Alexander labeling is a vertex assignment v -> w_i (i in 0..n) in which
every n-simplex carries all n+1 labels, together with a parity on top
simplices that alternates across shared (n-1)-simplices.  Collapses replace
the star of a vertex by its reduced star and pay for it in simple covers,
recorded in a reduction ledger; a shellable cubical complex reduces all the
way to its star-replacement.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .complex_core import (
    SIMPLEX, SIMPLICIAL, Complex, build_complex,
)
from .errors import (
    BadCenterLabel,
    BoundaryViolation,
    HasBoundary,
    LabelClash,
    NonSimplicialStar,
    NotSimplePair,
    OddCycle,
    ParityImbalance,
    UnmatchedSimplex,
)


@dataclass
class AlexanderLabeling:
    """A vertex labeling plus parity housing an Alexander map combinatorially."""

    complex: Complex
    labels: dict          # vertex id -> label in 0..n
    parity: dict          # top cell id -> +1 / -1

    def label(self, v):
        return self.labels[v]

    def apex_default(self):
        return self.complex.dimension

    def to_json(self):
        return {
            "labels": {str(v): l for v, l in sorted(self.labels.items())},
            "parity": [[list(self.complex.cell(i).verts), s]
                       for i, s in sorted(self.parity.items())],
        }


@dataclass
class LedgerStep:
    vertex: int
    star_top_count: int
    covers: int
    degree_delta: int
    placements: list | None = None

    def to_json(self):
        return {"vertex": self.vertex, "star_top_count": self.star_top_count,
                "covers": self.covers, "degree_delta": self.degree_delta,
                "placements": self.placements}


@dataclass
class ReductionLedger:
    """Record of a reduction sequence: per-step simple-cover counts."""

    steps: list = field(default_factory=list)

    def add(self, step):
        if step.star_top_count % 2:
            raise UnmatchedSimplex(
                f"star at {step.vertex} has odd top count {step.star_top_count}")
        self.steps.append(step)

    @property
    def total_covers(self):
        return sum(s.covers for s in self.steps)

    @property
    def degree_delta(self):
        return sum(s.degree_delta for s in self.steps)

    def extend(self, other):
        self.steps.extend(other.steps)

    def to_json(self):
        return [s.to_json() for s in self.steps]


def _two_color(neighbors, seed_order):
    """Proper 2-coloring; raises OddCycle with a witness cycle."""
    color = {}
    parent = {}
    for start in seed_order:
        if start in color:
            continue
        color[start] = 1
        parent[start] = None
        queue = [start]
        while queue:
            u = queue.pop(0)
            for w in neighbors(u):
                if w not in color:
                    color[w] = -color[u]
                    parent[w] = u
                    queue.append(w)
                elif color[w] == color[u]:
                    # reconstruct an odd closed walk through u and w
                    au, aw = u, w
                    pu, pw = [au], [aw]
                    while au is not None:
                        au = parent[au]
                        pu.append(au)
                    while aw is not None:
                        aw = parent[aw]
                        pw.append(aw)
                    common = next(x for x in pu if x in set(pw))
                    cyc = pu[:pu.index(common) + 1] + \
                        list(reversed(pw[:pw.index(common)]))
                    raise OddCycle(
                        f"adjacency graph not bipartite near cells {u},{w}",
                        cycle=cyc)
    return color


def alexander_label(K, vertex_labels=None, seed=None):
    """Build an AlexanderLabeling on a weakly simplicial complex.

    For a canonical triangulation the labels are forced by the cube-dimension
    rule (a vertex interior to a k-cube gets label k); otherwise a full
    vertex labeling must be supplied.  Parity is the 2-coloring of the
    adjacency graph seeded at the lexicographically smallest n-simplex.
    """
    n = K.dimension
    if K.mode != SIMPLICIAL:
        raise LabelClash("labeling needs a (weakly) simplicial complex")

    # parity first: a non-bipartite adjacency graph means no Alexander map
    g = K.adjacency_graph()
    order = sorted(g.nodes, key=lambda i: K.cell(i).verts)
    if seed is not None:
        order = [seed] + [i for i in order if i != seed]
    parity = _two_color(lambda u: sorted(g.neighbors(u)), order)

    if vertex_labels is None:
        if not K.vertex_cube_dim:
            raise LabelClash("no labels supplied and no cube provenance")
        labels = {v: K.vertex_cube_dim[v] for v in K.vertices}
    else:
        labels = dict(vertex_labels)

    for i in K.top_ids():
        got = sorted(labels.get(v) for v in K.cell(i).verts)
        if got != list(range(n + 1)):
            raise LabelClash(
                f"simplex {K.cell(i).verts} carries labels {got}")
    return AlexanderLabeling(K, labels, parity)


def degree(lab):
    """Degree of the housed Alexander map on a closed complex."""
    K = lab.complex
    if not K.is_closed():
        raise HasBoundary("degree needs a closed complex")
    tops = K.top_ids()
    plus = sum(1 for i in tops if lab.parity[i] == 1)
    minus = len(tops) - plus
    if plus != minus:
        raise ParityImbalance(f"parity classes {plus}/{minus}")
    return len(tops) // 2


def reduced_star(lab, v, apex=None):
    """St(v) minus every simplex meeting an apex-labeled vertex."""
    K = lab.complex
    apex = lab.apex_default() if apex is None else apex
    if lab.label(v) == apex:
        raise BadCenterLabel(f"vertex {v} carries the apex label {apex}")
    ids = [i for i in K.star_cell_ids(v)
           if all(lab.label(w) != apex for w in K.cell(i).verts)]
    return K.subcomplex(ids)


def _check_star_simplicial(K, star_ids):
    cells = [K.cell(i) for i in star_ids]
    seen = {}
    for c in cells:
        key = (c.dim, c.verts)
        if key in seen:
            raise NonSimplicialStar(f"duplicate cell {c.verts} in star")
        seen[key] = True
    present = {c.verts for c in cells}
    for a, b in itertools.combinations([c for c in cells if c.dim == K.dimension], 2):
        shared = tuple(sorted(set(a.verts) & set(b.verts)))
        if shared and shared not in present:
            raise NonSimplicialStar(
                f"{a.verts} and {b.verts} meet in {shared}, not a face")


def simple_pairs(lab, v, apex=None):
    """Perfect matching of St(v)'s n-simplices across apex-avoiding faces."""
    K = lab.complex
    n = K.dimension
    apex = lab.apex_default() if apex is None else apex
    if lab.label(v) == apex:
        raise BadCenterLabel(f"vertex {v} carries the apex label {apex}")
    star_ids = K.star_cell_ids(v)
    star_tops = [i for i in star_ids if K.cell(i).dim == n]
    star_set = set(star_tops)
    pairs = []
    matched = {}
    for i in star_tops:
        verts = K.cell(i).verts
        apexes = [w for w in verts if lab.label(w) == apex]
        if len(apexes) != 1:
            raise UnmatchedSimplex(f"simplex {verts} has {len(apexes)} apex vertices")
        face = tuple(w for w in verts if w != apexes[0])
        partners = [j for fid in K.ids_with_verts(n - 1, face)
                    for j in K.coface_ids(fid) if j != i and j in star_set]
        if len(partners) != 1:
            raise UnmatchedSimplex(
                f"simplex {verts} has {len(partners)} partners across {face}")
        matched[i] = partners[0]
    for i, j in matched.items():
        if matched.get(j) != i:
            raise UnmatchedSimplex("matching not symmetric")
        if i < j:
            pairs.append((i, j))
    return pairs


@dataclass
class Leaf:
    """Two n-simplices sharing n common (n-1)-simplices, kept abstract."""

    center: tuple
    midrib_face: tuple     # the shared apex-avoiding (n-1)-simplex
    rim: tuple             # midrib vertices other than the node
    pair: tuple            # ids of the two paired simplices in the star


@dataclass
class CloverComplex:
    node: int
    leaves: list
    midrib: Complex        # isomorphic to the reduced star

    def leaf_count(self):
        return len(self.leaves)


def clover_of(lab, v, apex=None):
    """Clover corresponding to the reduced star of v: one leaf per simple pair."""
    K = lab.complex
    pairs = simple_pairs(lab, v, apex)
    apex = lab.apex_default() if apex is None else apex
    leaves = []
    for k, (i, j) in enumerate(pairs):
        verts = K.cell(i).verts
        apex_v = next(w for w in verts if lab.label(w) == apex)
        face = tuple(w for w in verts if w != apex_v)
        leaves.append(Leaf(center=("leaf", k), midrib_face=face,
                           rim=tuple(w for w in face if w != v), pair=(i, j)))
    return CloverComplex(node=v, leaves=leaves,
                         midrib=reduced_star(lab, v, apex))


def collapse_at(lab, v, apex=None):
    """One reduction step: collapse St(v) to its reduced star.

    Every apex-labeled vertex of the star is identified with v, degenerate
    images drop into the reduced star, v takes the apex label, and parity is
    recomputed.  Returns (complex, labeling, ledger step); the step counts
    m = #St(v)^(n)/2 simple covers and a degree delta of -m.
    """
    K = lab.complex
    n = K.dimension
    apex = lab.apex_default() if apex is None else apex
    if lab.label(v) == apex:
        raise BadCenterLabel(f"vertex {v} carries the apex label {apex}")

    star_ids = K.star_cell_ids(v)
    star_tops = [i for i in star_ids if K.cell(i).dim == n]
    _check_star_simplicial(K, star_ids)

    star_verts = {w for i in star_ids for w in K.cell(i).verts}
    apex_verts = {w for w in star_verts if lab.label(w) == apex}

    if not apex_verts:
        # the star already equals its reduced star: identity step
        step = LedgerStep(vertex=v, star_top_count=0, covers=0, degree_delta=0)
        return K, lab, step
    if star_tops:
        simple_pairs(lab, v, apex)  # raises UnmatchedSimplex on bad stars

    # boundary condition: boundary cells inside the star must avoid apexes
    star_set = set(star_ids)
    for i in K.boundary_facet_ids():
        if i in star_set and any(w in apex_verts for w in K.cell(i).verts):
            raise BoundaryViolation(
                f"star of {v} meets the boundary outside its reduced star")

    rename = {w: (v if w in apex_verts else w) for w in K.vertices}
    new_cells = {}
    tops = []
    for c in K.cells():
        image = tuple(sorted({rename[w] for w in c.verts}))
        if len(image) < len(c.verts):
            continue  # degenerate: its image is a cell of the reduced star
        if c.dim == n:
            tops.append((n, image, SIMPLEX))
        else:
            new_cells[(c.dim, image)] = (c.dim, image, SIMPLEX)

    verts = {w: K.vertices[w] for w in K.vertices if w not in apex_verts}
    Q = build_complex(n, SIMPLICIAL, verts,
                      tops + list(new_cells.values()))

    labels = {w: lab.label(w) for w in verts}
    labels[v] = apex
    new_lab = alexander_label(Q, labels)

    m = len(star_tops) // 2
    step = LedgerStep(vertex=v, star_top_count=len(star_tops),
                      covers=m, degree_delta=-m)
    return Q, new_lab, step


# -- Alexander star pairs ---------------------------------------------------------


def _is_star_at(K, v):
    return all(v in K.cell(i).verts for i in K.top_ids())


def star_center(K):
    """The unique interior vertex of an Alexander star."""
    interior = set(K.vertices) - K.boundary_vertex_ids()
    centers = [v for v in interior if _is_star_at(K, v)]
    return centers[0] if len(centers) == 1 else None


def union_complexes(K1, K2):
    """Union of two complexes sharing vertex ids on their intersection."""
    verts = dict(K1.vertices)
    for v, c in K2.vertices.items():
        verts.setdefault(v, c)
    n = max(K1.dimension, K2.dimension)
    cells = {}
    tops = []
    for K in (K1, K2):
        for c in K.cells():
            if c.dim == n:
                tops.append((c.dim, c.verts, c.kind))
            else:
                cells[(c.dim, c.verts)] = (c.dim, c.verts, c.kind)
    # shared top cells (on the common boundary) must not be doubled
    seen = set()
    uniq_tops = []
    shared = {(c.dim, c.verts) for c in K1.cells(n)} & \
             {(c.dim, c.verts) for c in K2.cells(n)}
    for t in tops:
        key = (t[0], t[1])
        if key in shared and key in seen:
            continue
        seen.add(key)
        uniq_tops.append(t)
    return build_complex(n, SIMPLICIAL, verts, uniq_tops + list(cells.values()))


def merge_star_pair(K1, K2):
    """Merge a simple Alexander star pair into a single star.

    Returns (merged complex, m) with
    m = (#(K1 u K2)^(n) - #K^(n))/2 = #(K1 n K2)^(n-1).
    The degenerate case of a single shared (n-1)-simplex is accepted.
    """
    n = K1.dimension
    if K2.dimension != n:
        raise NotSimplePair("dimension mismatch")
    c1, c2 = star_center(K1), star_center(K2)
    if c1 is None or c2 is None:
        raise NotSimplePair("inputs are not Alexander stars")

    shared_tops = [c.verts for c in K1.cells(n - 1)
                   if K2.has_cell(n - 1, c.verts)]
    if not shared_tops:
        raise NotSimplePair("stars do not share an (n-1)-complex")
    intersection_verts = sorted({v for vs in shared_tops for v in vs})

    # the merge vertex: the interior vertex of the shared (n-1)-cell; in the
    # degenerate single-simplex case the first star's center is reused
    if len(shared_tops) > 1:
        centers = [v for v in intersection_verts
                   if sum(v in vs for vs in shared_tops) == len(shared_tops)]
        if len(centers) != 1:
            raise NotSimplePair("intersection is not the star of one vertex")
        center = centers[0]
        dropped = (c1, c2)
    else:
        center = c1
        dropped = (c2,)

    U = union_complexes(K1, K2)
    boundary = U.boundary_facet_ids()
    tops = [(n, tuple(sorted(set(U.cell(i).verts) | {center})), SIMPLEX)
            for i in boundary]
    verts = {v: U.vertices[v] for v in U.vertices if v not in dropped}
    if center in U.boundary_vertex_ids() or center in dropped:
        raise NotSimplePair("merge center lies on the pair boundary")
    merged = build_complex(n, SIMPLICIAL, verts, tops)

    m = (U.n_cells(n) - merged.n_cells(n)) // 2
    m_check = len(shared_tops)
    if m != m_check:
        raise NotSimplePair(
            f"cover count mismatch: {m} by count difference, "
            f"{m_check} shared (n-1)-simplices")
    # boundary restriction must be preserved
    merged_bd = {merged.cell(i).verts for i in merged.boundary_facet_ids()}
    union_bd = {U.cell(i).verts for i in boundary}
    if merged_bd != union_bd:
        raise NotSimplePair("merge does not preserve the boundary complex")
    return merged, m


# -- cubical reduction driver ------------------------------------------------------


def reduce_cubical(K, order=None):
    """Reduce the canonical triangulation of a shellable 2-complex to a star.

    Follows the constructive double induction: peel a shelling, reduce every
    prefix/cube wall to a two-simplex path by interior collapses (apex label
    n-1), then merge the simple pair at the wall midpoint (apex label n).
    Returns (final complex, final labeling, ReductionLedger).

    Only the 2-dimensional driver is implemented; the collapse and merge
    primitives themselves are dimension-generic.
    """
    from .shelling import find_shelling, verify_shelling  # avoid an import cycle

    n = K.dimension
    if n != 2:
        raise NotImplementedError("reduction driver is implemented for n = 2")
    if order is None:
        order = find_shelling(K)
    else:
        ok, idx = verify_shelling(K, order)
        if not ok:
            raise NonSimplicialStar(f"supplied order is not a shelling at {idx}")

    from .complex_core import canonical_triangulation
    T = canonical_triangulation(K)
    lab = alexander_label(T)
    ledger = ReductionLedger()
    if len(order) == 1:
        return T, lab, ledger

    processed = [order[0]]
    P, cur = T, lab
    vertex_of = {s: v for v, s in T.triangulation_source.items()}

    for qi in order[1:]:
        # unit edges of the wall: edges of K shared between qi and the prefix
        wall_edges = [K.cell(f).verts for f in K.shared_facets(qi, processed)]

        # vertex path of the triangulated wall: corner, midpoint, corner, ...
        def path_vertices():
            adj = {}
            for e in wall_edges:
                m = vertex_of[(1, e)]
                for c in e:
                    adj.setdefault(c, []).append(m)
                    adj.setdefault(m, []).append(c)
            ends = [v for v, ns in adj.items() if len(ns) == 1]
            walk = [min(ends)]
            prev = None
            while True:
                nxt = [w for w in adj[walk[-1]] if w != prev]
                if not nxt:
                    break
                prev = walk[-1]
                walk.append(nxt[0])
                if len(adj[walk[-1]]) == 1:
                    break
            return walk

        path = path_vertices()
        # interior reductions with apex label n-1 until two simplices remain
        while len(path) > 3:
            interior = path[1:-1]
            v = min(w for w in interior
                    if cur.label(w) != n - 1)
            P, cur, step = collapse_at(cur, v, apex=n - 1)
            ledger.add(step)
            k = path.index(v)
            path = path[:k - 1] + [v] + path[k + 2:]
        # merge the simple pair at the wall midpoint with the top apex label
        v = path[1]
        P, cur, step = collapse_at(cur, v, apex=n)
        ledger.add(step)
        processed.append(qi)

    return P, cur, ledger
