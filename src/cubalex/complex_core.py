"""Graded cell complexes: cubical and weakly simplicial.

Cells are determined by their vertex sets in every dimension below the top
one; in weakly simplicial mode two distinct top cells may share a vertex set
(that is how a sphere doubled along its boundary, or a two-edge circle, is
encoded).  Cube cells carry their vertex list in binary-counter order so that
faces can be synthesized combinatorially.

Complexes are immutable after construction; every operation returns a new
complex, so instances are safe to share across threads.
"""

from __future__ import annotations

import itertools
import json
from array import array
from dataclasses import dataclass

import networkx as nx

from .errors import (
    FaceOveruse,
    IllegalIntersection,
    MissingFace,
    NotACell,
    NotCubical,
    UnknownVertex,
)

CUBE = "cube"
SIMPLEX = "simplex"

CUBICAL = "cubical"
SIMPLICIAL = "simplicial"


@dataclass(frozen=True)
class Cell:
    """A single cell: `verts` sorted for identity, `order` structural.

    For cubes `order` is the binary-counter vertex tuple (vertex i sits at
    the corner whose j-th coordinate is bit j of i); simplices keep
    `order == verts`.
    """

    dim: int
    verts: tuple
    kind: str
    order: tuple = None

    def __post_init__(self):
        if self.order is None:
            object.__setattr__(self, "order", self.verts)


def cube_facets(order):
    """The 2k codimension-1 faces of a k-cube given in binary order."""
    k = (len(order) - 1).bit_length()
    if 2 ** k != len(order):
        raise NotCubical(f"cube with {len(order)} vertices")
    facets = []
    for axis in range(k):
        for side in (0, 1):
            sub = tuple(order[i] for i in range(2 ** k)
                        if (i >> axis) & 1 == side)
            facets.append(sub)
    return facets


def _facet_orders(c):
    """Vertex orders of the codimension-1 faces of cell c: `cube_facets`
    order for cubes, vertex-drop order for simplices."""
    if c.dim == 0:
        return []
    if c.kind == SIMPLEX:
        return [c.verts[:i] + c.verts[i + 1:] for i in range(len(c.verts))]
    return cube_facets(c.order)


def _closure_of_cell(cell):
    """All proper faces of `cell`, recursively, as Cell objects."""
    out = {}
    stack = [cell]
    while stack:
        c = stack.pop()
        for o in _facet_orders(c):
            verts = tuple(sorted(o))
            f = Cell(c.dim - 1, verts, c.kind,
                     verts if c.kind == SIMPLEX else o)
            key = (f.dim, f.verts)
            if key not in out:
                out[key] = f
                stack.append(f)
    return list(out.values())


class Complex:
    """A validated cubical or weakly simplicial complex."""

    def __init__(self, dimension, mode, vertices, cells, validate=True,
                 vertex_cube_dim=None, triangulation_source=None):
        self.dimension = dimension
        self.mode = mode
        self.vertices = dict(vertices)  # id -> coords tuple or None
        self._cells = list(cells)
        # provenance for canonical triangulations (vertex id -> source cube)
        self.vertex_cube_dim = vertex_cube_dim or {}
        self.triangulation_source = triangulation_source or {}
        self.warnings = []

        self._by_dim = {}
        self._index = {}
        self._vertex_cells = {v: [] for v in self.vertices}
        for i, c in enumerate(self._cells):
            self._by_dim.setdefault(c.dim, []).append(i)
            self._index.setdefault((c.dim, c.verts), []).append(i)
            for v in c.verts:
                if v not in self._vertex_cells:
                    raise UnknownVertex(f"cell {c.verts} uses vertex {v}")
                self._vertex_cells[v].append(i)
        # incidence index, CSR (offsets, flat ids); built on first use
        self._facets = None
        self._cofaces = None
        if validate:
            self._validate()

    # -- basic queries ------------------------------------------------------

    def cells(self, dim=None):
        if dim is None:
            return list(self._cells)
        return [self._cells[i] for i in self._by_dim.get(dim, [])]

    def cell_ids(self, dim):
        return list(self._by_dim.get(dim, []))

    def cell(self, i):
        return self._cells[i]

    def top_ids(self):
        return self.cell_ids(self.dimension)

    def n_cells(self, dim):
        return len(self._by_dim.get(dim, []))

    def ids_with_verts(self, dim, verts):
        return self._index.get((dim, tuple(sorted(verts))), [])

    def has_cell(self, dim, verts):
        return bool(self.ids_with_verts(dim, verts))

    def _facet_table(self):
        """Facets of every cell as CSR: ids flat[off[i]:off[i + 1]]."""
        if self._facets is None:
            off, flat = array("i", [0]), array("i")
            for c in self._cells:
                for o in _facet_orders(c):
                    s = tuple(sorted(o))
                    ids = self._index.get((c.dim - 1, s))
                    if not ids:
                        raise MissingFace(f"{c.kind} {c.verts} lacks face {s}")
                    flat.append(ids[0])
                off.append(len(flat))
            self._facets = off, flat
        return self._facets

    def _coface_table(self):
        """The facet table inverted (a counting sort), cofaces ascending."""
        if self._cofaces is None:
            off, flat = self._facet_table()
            count = array("i", [0]) * (len(self._cells) + 1)
            for f in flat:
                count[f + 1] += 1
            coff = array("i", itertools.accumulate(count))
            cflat = array("i", [0]) * len(flat)
            slot = coff[:-1]
            for j in range(len(self._cells)):
                for f in flat[off[j]:off[j + 1]]:
                    cflat[slot[f]] = j
                    slot[f] += 1
            self._cofaces = coff, cflat
        return self._cofaces

    def facet_ids(self, i):
        """ids of the codimension-1 faces of cell i, in `cube_facets` order
        (vertex-drop order for simplices)."""
        off, flat = self._facet_table()
        return flat[off[i]:off[i + 1]].tolist()

    def coface_ids(self, i):
        """ids of cells of one dimension higher having cell i as a face."""
        off, flat = self._coface_table()
        return flat[off[i]:off[i + 1]].tolist()

    def shared_facets(self, i, others):
        """Facets of cell i that also bound a cell among `others`."""
        others = set(others)
        return [f for f in self.facet_ids(i)
                if any(j != i and j in others for j in self.coface_ids(f))]

    # -- derived structure ----------------------------------------------------

    def adjacency_graph(self, ids=None):
        """Graph on cells of one dimension d (default: the top cells).

        Edge (a, b, shared=f) for each (d-1)-cell f that a and b both
        contain, added in ascending f.
        """
        ids = self.top_ids() if ids is None else list(ids)
        inside = set(ids)
        g = nx.Graph()
        g.add_nodes_from(ids)
        for f in sorted({f for i in ids for f in self.facet_ids(i)}):
            cof = [j for j in self.coface_ids(f) if j in inside]
            for a, b in itertools.combinations(cof, 2):
                g.add_edge(a, b, shared=f)
        return g

    def is_simplicially_connected(self):
        g = self.adjacency_graph()
        return g.number_of_nodes() > 0 and nx.is_connected(g)

    def boundary_facet_ids(self):
        """(n-1)-cells with exactly one top coface."""
        off, _ = self._coface_table()
        return [i for i in self.cell_ids(self.dimension - 1)
                if off[i + 1] - off[i] == 1]

    def boundary_vertex_ids(self):
        out = set()
        for i in self.boundary_facet_ids():
            out.update(self._cells[i].verts)
        return out

    def is_closed(self):
        return not self.boundary_facet_ids()

    def euler_characteristic(self):
        return sum((-1) ** d * self.n_cells(d) for d in self._by_dim)

    def star_cell_ids(self, v):
        """Smallest subcomplex containing every cell incident to v (as ids)."""
        if v not in self.vertices:
            raise UnknownVertex(str(v))
        seed = list(self._vertex_cells[v])
        seen = set(seed)
        stack = list(seed)
        while stack:
            for f in self.facet_ids(stack.pop()):
                if f not in seen:
                    seen.add(f)
                    stack.append(f)
        return sorted(seen)

    def subcomplex(self, ids):
        """Subcomplex spanned by the given cell ids (closed under faces)."""
        take = set(ids)
        stack = list(ids)
        while stack:
            for f in self.facet_ids(stack.pop()):
                if f not in take:
                    take.add(f)
                    stack.append(f)
        cells = [self._cells[i] for i in sorted(take)]
        verts = {v: self.vertices[v]
                 for v in {w for c in cells for w in c.verts}}
        sub = Complex(max((c.dim for c in cells), default=0), self.mode,
                      verts, cells, validate=False,
                      vertex_cube_dim={v: d for v, d in self.vertex_cube_dim.items()
                                       if v in verts})
        return sub

    def star(self, v):
        return self.subcomplex(self.star_cell_ids(v))

    def link(self, v):
        ids = [i for i in self.star_cell_ids(v)
               if v not in self._cells[i].verts]
        return self.subcomplex(ids)

    # -- validation --------------------------------------------------------------

    def _validate(self):
        n = self.dimension
        if not self._by_dim.get(n):
            raise MissingFace(f"no cell of dimension {n}")
        for (dim, verts), ids in self._index.items():
            if len(ids) > 1 and (dim < n or self.mode == CUBICAL):
                raise IllegalIntersection(
                    f"duplicate cells of dim {dim} on vertices {verts}")
        self._facet_table()  # face closure: raises MissingFace
        if self.mode == CUBICAL:
            self._validate_cubical()
        else:
            self._validate_weakly_simplicial()

    def _cube_subface_sets(self, i):
        out = {self._cells[i].verts}
        stack = [i]
        while stack:
            for f in self.facet_ids(stack.pop()):
                if self._cells[f].verts not in out:
                    out.add(self._cells[f].verts)
                    stack.append(f)
        return out

    def _validate_cubical(self):
        for c in self._cells:
            if c.kind != CUBE:
                raise NotCubical(f"non-cube cell {c.verts}")
        # pairwise: a nonempty intersection of two cubes is a common face
        subfaces = {i: self._cube_subface_sets(i) for i in range(len(self._cells))}
        for v, incident in self._vertex_cells.items():
            for a, b in itertools.combinations(sorted(incident), 2):
                ca, cb = self._cells[a], self._cells[b]
                shared = tuple(sorted(set(ca.verts) & set(cb.verts)))
                if not shared:
                    continue
                if not (shared in subfaces[a] and shared in subfaces[b]):
                    raise IllegalIntersection(
                        f"cubes {ca.verts} and {cb.verts} meet in {shared}, "
                        "not a common face")

    def _validate_weakly_simplicial(self):
        n = self.dimension
        for c in self._cells:
            if c.kind != SIMPLEX:
                raise NotCubical(f"non-simplex cell {c.verts} in simplicial mode")
            if len(c.verts) != c.dim + 1:
                raise IllegalIntersection(f"degenerate simplex {c.verts}")
        # condition (4): every (n-1)-simplex is a face of at most two
        # n-simplices; duplicated (n-1) vertex sets get 2 cofaces each
        for (dim, verts), ids in self._index.items():
            if dim != n - 1:
                continue
            cof = set()
            for i in ids:
                cof.update(self.coface_ids(i))
            if len(cof) > 2 * len(ids):
                raise FaceOveruse(
                    f"(n-1)-simplex {verts} has {len(cof)} cofaces")
        # Remark-level degeneracy: flag, do not reject
        g = self.adjacency_graph()
        for a, b in g.edges:
            ca, cb = self._cells[a], self._cells[b]
            shared_verts = set(ca.verts) & set(cb.verts)
            shared_facets = [self._cells[i].verts
                             for i in set(self.facet_ids(a)) & set(self.facet_ids(b))]
            if len(shared_facets) == 1:
                extra = shared_verts - set(shared_facets[0])
                if extra:
                    self.warnings.append(
                        f"adjacent cells {ca.verts}/{cb.verts} share one "
                        f"(n-1)-simplex plus extra skeleton {sorted(extra)}")

    # -- serialization ---------------------------------------------------------

    def to_json(self, alexander=None):
        data = {
            "dimension": self.dimension,
            "mode": self.mode,
            "vertices": [
                {"id": v} if self.vertices[v] is None
                else {"id": v, "coords": [float(x) for x in self.vertices[v]]}
                for v in sorted(self.vertices)
            ],
            "cells": [
                {"dim": c.dim, "vertices": list(c.order), "kind": c.kind}
                for c in self._cells
            ],
        }
        if alexander is not None:
            data["alexander"] = alexander
        return data

    def dumps(self, **kw):
        return json.dumps(self.to_json(**kw), indent=1)

    def relabel_invariant_hash(self):
        g, _ = self.incidence_graph()
        return nx.weisfeiler_lehman_graph_hash(g, node_attr="color")

    def incidence_graph(self, vertex_labels=None):
        """Cell-incidence graph with (dim, kind[, label]) colors, for isomorphism."""
        g = nx.Graph()
        for i, c in enumerate(self._cells):
            color = f"{c.dim}:{c.kind}"
            if vertex_labels is not None and c.dim == 0:
                color += f":{vertex_labels.get(c.verts[0], '')}"
            g.add_node(i, color=color)
        for i, c in enumerate(self._cells):
            if c.dim > 0:
                for f in self.facet_ids(i):
                    g.add_edge(i, f)
        return g, list(range(len(self._cells)))


def build_complex(dimension, mode, vertices, cells):
    """Validate raw cell data into a Complex.

    `vertices`: iterable of ids or mapping id -> coords (or None).
    `cells`: iterables (dim, vertex-list, kind); cube vertex lists must be in
    binary-counter order.  Missing faces are synthesized; inconsistencies
    raise MissingFace / IllegalIntersection / FaceOveruse.
    """
    if isinstance(vertices, dict):
        vmap = {v: (tuple(c) if c is not None else None)
                for v, c in vertices.items()}
    else:
        vmap = {v: None for v in vertices}
    if len(vmap) != len(set(vmap)):
        raise IllegalIntersection("vertex ids not unique")

    kind_default = CUBE if mode == CUBICAL else SIMPLEX
    given = []
    for entry in cells:
        if isinstance(entry, Cell):
            given.append(entry)
            continue
        if isinstance(entry, dict):
            dim, vs, kind = entry["dim"], entry["vertices"], entry.get("kind", kind_default)
        else:
            dim, vs, kind = entry
        order = tuple(vs)
        given.append(Cell(dim, tuple(sorted(order)), kind, order))

    pool = {}

    def add(cell):
        key = (cell.dim, cell.verts)
        if key in pool:
            if cell.dim < dimension or mode == CUBICAL:
                return
        pool.setdefault(key, []).append(cell)

    for v in vmap:
        add(Cell(0, (v,), kind_default))
    for c in given:
        add(c)
        for f in _closure_of_cell(c):
            add(f)

    flat = [c for cells_ in pool.values() for c in cells_]
    flat.sort(key=lambda c: (c.dim, c.verts))
    pool.clear()  # free it before validation builds the incidence index
    return Complex(dimension, mode, vmap, flat)


def from_json(data):
    if isinstance(data, str):
        data = json.loads(data)
    verts = {v["id"]: tuple(v["coords"]) if "coords" in v else None
             for v in data["vertices"]}
    return build_complex(data["dimension"], data["mode"], verts, data["cells"])


# -- canonical triangulation ------------------------------------------------------


def canonical_triangulation(K):
    """Flag triangulation of a cubical complex.

    One new vertex per cube of dimension >= 1 (at the barycenter when
    coordinates exist); k-simplices are chains q_0 c q_1 c ... c q_k of
    nested cubes.  New vertex ids start above the current maximum, ordered
    by (dim, vertex list) so the construction is reproducible.
    """
    if K.mode != CUBICAL:
        raise NotCubical("canonical_triangulation needs a cubical complex")
    n = K.dimension

    cubes = sorted(range(len(K.cells())), key=lambda i: (K.cell(i).dim, K.cell(i).verts))
    next_id = max(K.vertices) + 1 if K.vertices else 0
    center = {}
    vcoords = dict(K.vertices)
    vdim = {v: 0 for v in K.vertices}
    source = {v: (0, (v,)) for v in K.vertices}
    for i in cubes:
        c = K.cell(i)
        if c.dim == 0:
            center[i] = c.verts[0]
            continue
        center[i] = next_id
        vdim[next_id] = c.dim
        source[next_id] = (c.dim, c.verts)
        coords = [K.vertices[v] for v in c.verts]
        if all(x is not None for x in coords):
            d = len(coords[0])
            vcoords[next_id] = tuple(
                sum(x[j] for x in coords) / len(coords) for j in range(d))
        else:
            vcoords[next_id] = None
        next_id += 1

    # maximal flags per top cube, descending through facets
    tops = []
    memo = {}

    def flags_memo(i):
        if i not in memo:
            c = K.cell(i)
            if c.dim == 0:
                memo[i] = [[i]]
            else:
                memo[i] = [chain + [i] for f in K.facet_ids(i)
                           for chain in flags_memo(f)]
        return memo[i]

    for i in K.top_ids():
        for chain in flags_memo(i):
            tops.append((n, [center[j] for j in chain], SIMPLEX))

    T = build_complex(n, SIMPLICIAL, vcoords, tops)
    T.vertex_cube_dim.update(vdim)
    T.triangulation_source.update(source)
    return T


def triangulation_restriction(T, K, sub_top_ids):
    """Restriction of a canonical triangulation T of K to a cubical subcomplex.

    `sub_top_ids` are top-cube ids of K; returns the subcomplex of T whose
    simplices have all source cubes among the subcomplex's cells.
    """
    keep_vertex_sets = set()
    sub = K.subcomplex(sub_top_ids)
    for c in sub.cells():
        keep_vertex_sets.add((c.dim, c.verts))
    ids = []
    for i in T.top_ids():
        srcs = [T.triangulation_source[v] for v in T.cell(i).verts]
        if all(s in keep_vertex_sets for s in srcs):
            ids.append(i)
    return T.subcomplex(ids)


# -- isomorphism ---------------------------------------------------------------------


def is_isomorphic(K1, K2, labels1=None, labels2=None):
    """Cell-complex isomorphism via VF2 on colored incidence graphs."""
    g1, _ = K1.incidence_graph(labels1)
    g2, _ = K2.incidence_graph(labels2)
    if g1.number_of_nodes() != g2.number_of_nodes():
        return False
    gm = nx.algorithms.isomorphism.GraphMatcher(
        g1, g2, node_match=lambda a, b: a["color"] == b["color"])
    return gm.is_isomorphic()


# -- heuristic cell check ----------------------------------------------------------


def cell_check(K):
    """Warning-level check that |K| is an n-cell (n <= 3 heuristic).

    Verifies the Euler characteristic and that the boundary looks like a
    sphere (connected, and for n=2 every boundary vertex lies on exactly two
    boundary edges).  Returns a list of failure reasons, empty when the
    heuristic passes.  This is a certificate, not a proof.
    """
    reasons = []
    if K.euler_characteristic() != 1:
        reasons.append(f"Euler characteristic {K.euler_characteristic()} != 1")
    bfacets = K.boundary_facet_ids()
    if not bfacets:
        reasons.append("no boundary")
        return reasons
    if not nx.is_connected(K.adjacency_graph(bfacets)):
        reasons.append("boundary not connected")
    if K.dimension == 2:
        deg = {}
        for i in bfacets:
            for v in K.cell(i).verts:
                deg[v] = deg.get(v, 0) + 1
        bad = [v for v, d in deg.items() if d != 2]
        if bad:
            reasons.append(f"boundary pinched at vertices {sorted(bad)}")
    return reasons


def assert_cell(K):
    reasons = cell_check(K)
    if reasons:
        raise NotACell("; ".join(reasons))
