"""Combinatorial Alexander maps on weakly simplicial complexes.

An Alexander labeling is a vertex assignment v -> w_i (i in 0..n) in which
every n-simplex carries all n+1 labels, together with a parity on top
simplices that alternates across shared (n-1)-simplices.  Collapses replace
the star of a vertex by its reduced star and pay for it in simple covers,
recorded in a reduction ledger; a shellable cubical complex of any dimension
reduces all the way to its star-replacement, by one recursion that reduces
each shelling step's wall to a star one dimension down.
"""

from __future__ import annotations

import time
from collections import Counter, deque
from dataclasses import dataclass, field

from .complex_core import (
    SIMPLICIAL, Complex, _Rows, canonical_triangulation, centre_ids,
)
from .errors import (
    BadCenterLabel,
    BoundaryViolation,
    HasBoundary,
    LabelClash,
    NonSimplicialStar,
    NotACell,
    OddCycle,
    UnknownVertex,
    UnmatchedSimplex,
)
from .shelling import _complete, find_shelling


@dataclass
class AlexanderLabeling:
    """A vertex labeling plus parity housing an Alexander map
    combinatorially."""

    complex: Complex
    labels: dict          # vertex id -> label in 0..n
    parity: dict          # top cell id -> +1 / -1
    connected: bool       # are the top cells one adjacency component?

    def label(self, v):
        return self.labels[v]

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
    apex: int             # the label v takes: the dimension of the recursion
    rewritten: int        # cells on the vertices identified with the hub

    def to_json(self):
        return {"vertex": self.vertex, "star_top_count": self.star_top_count,
                "covers": self.covers}


@dataclass
class ReductionLedger:
    """Record of a reduction sequence: per-step simple-cover counts."""

    steps: list = field(default_factory=list, init=False)
    seconds: dict = field(default_factory=dict, init=False)  # stage -> s

    def add(self, step):
        if step.star_top_count % 2:
            raise UnmatchedSimplex(
                f"star at {step.vertex} has odd top count {step.star_top_count}")
        self.steps.append(step)

    @property
    def total_covers(self):
        return sum(s.covers for s in self.steps)

    def to_json(self):
        return [s.to_json() for s in self.steps]

    def diagnostics(self):
        """How the reduction reached its complex: steps per apex label (the
        dimension of the recursion), cells rewritten, and seconds per
        stage."""
        return {
            "collapses": {str(d): k for d, k in
                          sorted(Counter(s.apex for s in self.steps).items())},
            "cells_rewritten": sum(s.rewritten for s in self.steps),
            "seconds": {k: round(t, 6) for k, t in self.seconds.items()},
        }


def _two_color(neighbors, seed_order):
    """Proper 2-coloring; raises OddCycle with a witness cycle."""
    color = {}
    parent = {}
    for start in seed_order:
        if start in color:
            continue
        color[start] = 1
        parent[start] = None
        queue = deque([start])
        while queue:
            u = queue.popleft()
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
                    on_pw = set(pw)
                    common = next(x for x in pu if x in on_pw)
                    cyc = pu[:pu.index(common) + 1] + \
                        list(reversed(pw[:pw.index(common)]))
                    raise OddCycle(
                        f"adjacency graph not bipartite near cells {u},{w}",
                        cycle=cyc)
    return color


def alexander_label(K, vertex_labels=None):
    """Build an AlexanderLabeling on a weakly simplicial complex.

    For a canonical triangulation the labels are forced by the cube-dimension
    rule (a vertex interior to a k-cube gets label k); otherwise a full
    vertex labeling must be supplied.  Parity is the 2-coloring of the
    adjacency graph seeded at the lexicographically smallest n-simplex, and
    at the smallest of each further component.
    """
    n = K.dimension
    if K.mode != SIMPLICIAL:
        raise LabelClash("labeling needs a (weakly) simplicial complex")

    # parity first: a non-bipartite adjacency graph means no Alexander map
    order = sorted(K.top_ids(), key=lambda i: K.cell(i).verts)

    def neighbors(u):
        return sorted({j for f in K.facet_ids(u)
                       for j in K.coface_ids(f)} - {u})

    parity = _two_color(neighbors, order[:1])
    connected = len(parity) == len(order)
    if not connected:
        parity = _two_color(neighbors, order)

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
    return AlexanderLabeling(K, labels, parity, connected)


def degree(lab):
    """Degree of the housed Alexander map on a closed complex.

    The two parity classes of a labeling from `alexander_label` have equal
    size, so the degree is half the top count.  A facet with three or more
    cofaces would close an odd cycle of tops, which `alexander_label`
    rejects with OddCycle; in a closed complex every facet therefore joins
    one +1 top and one -1 top.  Each top has n + 1 facets, so counting the
    facets through either class gives (n+1) plus = (n+1) minus.
    """
    K = lab.complex
    if not K.is_closed():
        raise HasBoundary("degree needs a closed complex")
    return len(K.top_ids()) // 2


def _check_star_simplicial(K, star_ids):
    """A star is simplicial unless it repeats a top, as another coface of
    the top's first facet (it holds every copy of its cells; lower cells
    are unique).  Two tops of a star meet in a face of both: every top of
    St(v) contains v, so they share a vertex, and the vertices they share
    span a face of each, since every face of a cell is a cell."""
    for i in star_ids:
        c = K.cell(i)
        if c.dim == K.dimension and any(
                j != i and K.cell(j).verts == c.verts
                for f in K.facet_ids(i)[:1] for j in K.coface_ids(f)):
            raise NonSimplicialStar(f"duplicate cell {c.verts} in star")


def _match_tops(lab, star_tops, apex):
    """Perfect matching of a star's n-simplices `star_tops` across their
    apex-avoiding faces, as pairs (i, j) with i < j: UnmatchedSimplex
    unless each has one apex vertex and one other coface in the star across
    the face F opposite it, its facet in the apex vertex's place (facets are
    in vertex-drop order).  Then i's partner j is matched back to i: F holds
    no apex vertex, so j's is the one j adds to F, and j's face opposite it
    is F again."""
    K = lab.complex
    star_set = set(star_tops)
    pairs = []
    for i in star_tops:
        verts = K.cell(i).verts
        apexes = [k for k, w in enumerate(verts) if lab.label(w) == apex]
        if len(apexes) != 1:
            raise UnmatchedSimplex(f"simplex {verts} has {len(apexes)} apex vertices")
        a = apexes[0]
        face = verts[:a] + verts[a + 1:]
        partners = [j for j in K.coface_ids(K.facet_ids(i)[a])
                    if j != i and j in star_set]
        if len(partners) != 1:
            raise UnmatchedSimplex(
                f"simplex {verts} has {len(partners)} partners across {face}")
        if i < partners[0]:
            pairs.append((i, partners[0]))
    return pairs


class _Work:
    """A labelled complex as a reduction carries it from collapse to
    collapse, changed in place by each (`_collapse`).

    The complex is rows whose ids stay fixed (`_Rows`), and a collapse
    keeps its hub, the merged vertex with the most edges, so the
    rows call each merged vertex by its hub's id; `alias` maps the public id
    of each such vertex (the v of its last collapse) to (its id here, its
    coordinates), and `names` back.  `labels` may still hold vertices merged
    away.  No parity is carried: `plain()` sorts the rows, renames the hubs
    back and two-colours the complex that makes.

    A collapse runs all its checks (the star's, and `_Rows.identify`'s)
    before it writes, so one that raises leaves the `_Work` as it was; an
    odd cycle shows only in `plain()`.

    Equal tops come in rank order in `plain()`, which can differ from their
    order with public ids once a collapse has made two tops equal.  That
    order never shows: equal tops share every facet, so they make a
    component of two, which `alexander_label` seeds at its first top.
    """

    def __init__(self, K, labels):
        self.complex, self.labels = _Rows(K), dict(labels)
        self.alias, self.names = {}, {}

    def label(self, w):
        return self.labels[w]

    def plain(self):
        """The labeling with public ids, built now (`alexander_label`)."""
        K, names = self.complex, self.names
        Q, _ = K.complex(names, {p: x for p, (_, x) in self.alias.items()})
        return alexander_label(
            Q, {names.get(w, w): self.labels[w] for w in K.vertices})


def collapse_at(lab, v, apex):
    """One reduction step: collapse St(v) to its reduced star.

    Every apex-labeled vertex of the star is identified with v, degenerate
    images drop into the reduced star, and the merged vertex, called v,
    carries the apex label.  The collapse runs on a copy of `lab`
    (`_collapse`), which is then sorted into a complex and labelled afresh
    (`alexander_label`); `lab` is unchanged, and returned as it is by the
    identity step.  Returns (complex, labeling, ledger step); the step
    counts m = #St(v)^(n)/2 simple covers, which lower the degree by m.
    """
    work = _Work(lab.complex, lab.labels)
    step = _collapse(work, v, apex)
    if not step.rewritten:
        return lab.complex, lab, step
    out = work.plain()
    return out.complex, out, step


def _collapse(work, v, apex):
    """`collapse_at` on `work`, in place; returns the ledger step.

    Of v and the apex vertices of its star the hub, the one with the most
    edges, keeps its cells: the others are identified with it
    (`_Rows.identify`), so only the cells on them are rewritten.  When the
    hub is an apex vertex no label changes.  The rows call the merged
    vertex by the hub's id, and `work.alias` calls it v.

    No top needs its labels checked here.  A top on the centre w lies in
    St(w), whose tops have one apex vertex each (`_match_tops`), so it
    degenerates.  Any other top that meets the merged vertices meets them
    in its one apex vertex, which is swapped for the hub, and the hub
    carries the apex label; so the labels of every new top are its
    preimage's.  The parity is not carried either: `plain()` two-colours
    the complex once, and checks the labels of every top it returns.
    """
    K, labels, alias, names = work.complex, work.labels, work.alias, work.names
    n = K.dimension
    if v in alias:
        w = alias[v][0]
    elif v in names:
        raise UnknownVertex(str(v))
    else:
        w = v
    if labels[w] == apex:
        raise BadCenterLabel(f"vertex {v} carries the apex label {apex}")

    star_ids = K.star_cell_ids(w)
    star_tops = [i for i in star_ids if K.cell(i).dim == n]
    _check_star_simplicial(K, star_ids)

    star_verts = {x for i in star_ids for x in K.cell(i).verts}
    apex_verts = {x for x in star_verts if labels[x] == apex}

    if not apex_verts:
        # the star already equals its reduced star: identity step
        return LedgerStep(vertex=v, star_top_count=0, covers=0, apex=apex,
                          rewritten=0)
    if star_tops:
        _match_tops(work, star_tops, apex)  # raises UnmatchedSimplex

    # boundary condition: boundary cells inside the star must avoid apexes
    for i in star_ids:
        c = K.cell(i)
        if (c.dim == n - 1 and len(K.coface_ids(i)) == 1
                and not apex_verts.isdisjoint(c.verts)):
            raise BoundaryViolation(
                f"star of {v} meets the boundary outside its reduced star")

    merged = apex_verts | {w}
    hub = max(sorted(merged), key=lambda x: (
        len(K.coface_ids(K._vertex_cell(x)[0])), x == w))
    place = alias[v][1] if v in alias else K.vertices[v]
    _, touched = K.identify(merged - {hub}, hub)
    for x in merged & names.keys():
        del alias[names.pop(x)]
    if hub != v:
        alias[v], names[hub] = (hub, place), v
    if hub == w:
        labels[w] = apex
    return LedgerStep(vertex=v, star_top_count=len(star_tops),
                      covers=len(star_tops) // 2, apex=apex,
                      rewritten=len(touched))


# -- cubical reduction driver ------------------------------------------------------


def reduce_cubical(K):
    """Reduce the canonical triangulation of a shellable n-complex to a star.

    Follows the constructive double induction for every n: peel a shelling,
    reduce each cube's wall (its facets shared with the prefix, an
    (n-1)-ball) to a star by the same induction one dimension down, then
    collapse at the wall's centre with apex label n.  Returns (final
    complex, final labeling, ReductionLedger).

    The triangulation's labels are its cube-dimension labels, proper by
    construction, which the collapses carry (see `_collapse`); the parity
    is computed once, on the final complex (`_Work.plain`).  Every collapse
    checks its star, so a reduction that completes is exact for the given
    triangulation.  That K is an n-cell rests on the
    preconditions: for n >= 3 `cell_check` tests only the Euler
    characteristic and boundary connectivity, and for n >= 4 the shelling
    step test is a certificate, not a proof.
    """
    ledger = ReductionLedger()
    t0 = time.perf_counter()
    order = find_shelling(K)
    if order is None:
        raise NotACell("no shelling found")
    t1 = time.perf_counter()
    T = canonical_triangulation(K)
    centre = centre_ids(K)
    t2 = time.perf_counter()
    work = _Work(T, T.vertex_cube_dim)
    _reduce_ball(K, order, work, ledger, centre.__getitem__)
    lab = work.plain()  # the one two-colouring; it builds the tables too
    ledger.seconds.update(shelling=t1 - t0, triangulation=t2 - t1,
                          collapses=time.perf_counter() - t2)
    return lab.complex, lab, ledger


def _reduce_ball(K, cells, work, ledger, centre):
    """Reduce the triangulated ball of K's d-cubes `cells` (in shelling
    order) to a star, collapsing `work` in place; returns the star's centre
    vertex.

    A path (d = 1) collapses its interior corners, lowest id first, with
    apex label 1.  Above, each next cube's wall is reduced to a star one
    dimension down and collapsed at its centre with apex label d.
    """
    d = K.cell(cells[0]).dim
    if d == 1:
        ends = Counter(v for e in cells for v in K.cell(e).verts)
        corners = sorted(v for v, k in ends.items() if k == 2)
        for v in corners:
            ledger.add(_collapse(work, v, apex=1))
        return corners[-1] if corners else centre(cells[0])
    mid = centre(cells[0])
    for i in range(1, len(cells)):
        wall = K.shared_facets(cells[i], cells[:i])
        if d > 2:  # order the wall by the step test; any facet starts one
            wall = _complete(K, wall[:1], wall, lambda shared: 0)
            if wall is None:
                raise NotACell(f"the wall of cube {cells[i]} has no shelling")
        mid = _reduce_ball(K, wall, work, ledger, centre)
        ledger.add(_collapse(work, mid, apex=d))
    return mid
