"""Graded cell complexes: cubical and weakly simplicial.

Cells are determined by their vertex sets in every dimension below the top
one; in weakly simplicial mode two distinct top cells may share a vertex set
(that is how a sphere doubled along its boundary, or a two-edge circle, is
encoded).  Each cell is stored in one form: a simplex in vertex order, a
cube in its given binary-counter order, so that its faces can be
synthesized combinatorially.  The vertex at the centre of a cube in the
canonical triangulation comes only from `centre_ids`.

Every complex lists its cells sorted by (dim, verts), equal top simplices
in their given order; the constructors produce that order and validation
checks it.  So each dimension's cells are one range of ids, a vertex's
0-cell is found by bisection (`_vertex_cell`), and the cells on a vertex
up the coface table from it (`star_cell_ids`), by the same walk (`_reach`)
that closes a set of cells down the facet table.  No index by key or by
vertex is kept, and no cell is looked up by its vertices.

Incidence and validation run on each dimension's cells as an int32 array
of vertex rows (`Complex._index`): facets are found by matching a whole
dimension's facet rows against the rows one dimension down, and the coface
table is the facet table inverted by one stable argsort.  Every builder
hands over rows alone, and `_of_rows`, the one place rows become `Cell`s,
makes the cells from them: `build_complex` derives the faces of the given
cells a dimension at a time on them, and the canonical triangulation, K*
and the double list their flags as rows (`flag_rows`).  Every complex is
validated once, when it is made; one given as cells alone has its rows
read back from its cells.

A sequence of vertex identifications (a reduction's collapses) works on
`_Rows` instead: the same cells as rows whose ids stay fixed, changed in
place, so that each identification costs the cells it touches, and sorted
into rows for `_of_rows` once, at the end.  Its one index is vertex ->
0-cell; every other cell is reached by id, through the facet and coface
rows.  `_Rows` is mutable and private to the one reduction that made it.

Complexes are immutable after construction; every operation returns a new
complex, so instances are safe to share across threads.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import heapq
import itertools
import json
import operator
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import (
    FaceOveruse,
    IllegalIntersection,
    MissingFace,
    NotACell,
    NotCubical,
    ParamsInvalid,
    UnknownVertex,
    json_fields,
)

CUBE = "cube"
SIMPLEX = "simplex"

CUBICAL = "cubical"
SIMPLICIAL = "simplicial"

# Pass (b) of `Complex._validate_cubical` is batched from this many maximal
# cubes on.  On random disk polyominoes (2-core box) the loop over pairs took
# 17-42 us at 6-12 squares and 121 us at 16, the batch 78-92 us throughout.
_BATCH_FROM = 16


@dataclass(frozen=True, slots=True, init=False)
class Cell:
    """A single cell: `verts` sorted for identity, `order` structural.

    For cubes `order` is the binary-counter vertex tuple (vertex i sits at
    the corner whose j-th coordinate is bit j of i); every constructor
    stores a simplex in vertex order, `order == verts`, whatever order it
    was given in.  A simplex's facets are its `verts` with one vertex
    dropped, which leaves them sorted: `Complex._index` relies on this and
    matches them unsorted.
    """

    dim: int
    verts: tuple
    kind: str
    order: tuple = None

    def __init__(self, dim, verts, kind, order=None):
        # Written through the slots' own setters, which the frozen
        # `__setattr__` does not guard: every complex builds one Cell per
        # cell, and the generated frozen `__init__` costs twice as much.
        _set_dim(self, dim)
        _set_verts(self, verts)
        _set_kind(self, kind)
        _set_order(self, verts if order is None else order)


_set_dim, _set_verts, _set_kind, _set_order = (
    Cell.__dict__[name].__set__ for name in ("dim", "verts", "kind", "order"))


@functools.lru_cache(maxsize=None)  # keyed by powers of 2 only
def _facet_index(size):
    """Positions of the vertices of each facet of a cube with `size`
    vertices in binary order, one row per facet in (axis, side) order:
    facet (axis, side) holds the positions whose bit `axis` is `side`."""
    k = (size - 1).bit_length()
    if 1 << k != size:
        raise NotCubical(f"cube with {size} vertices")
    return np.array([[i for i in range(size) if (i >> axis) & 1 == side]
                     for axis in range(k) for side in (0, 1)],
                    dtype=np.intp).reshape(2 * k, size // 2)


@functools.lru_cache(maxsize=None)
def _drop_index(size):
    """Row j: the positions of a simplex with `size` vertices but j."""
    return np.array([[i for i in range(size) if i != j] for j in range(size)],
                    dtype=np.intp).reshape(size, size - 1)


def _spans_face(place, verts):
    """Do `verts`, some vertices of a cube, span a face?  `place` maps each
    vertex of the cube to its position in the cube's binary order."""
    free = 0
    pos = [place[v] for v in verts]
    for i in pos:
        free |= i ^ pos[0]  # ends as AND ^ OR over the positions
    return len(pos) == 1 << free.bit_count()


_cell_key = operator.attrgetter("dim", "verts")
_cell_dim = operator.attrgetter("dim")
_cell_verts = operator.attrgetter("verts")
_cell_order = operator.attrgetter("order")
_cell_kind = operator.attrgetter("kind")


def _ints(buf):
    """An `array("i")` table as a numpy view."""
    return np.frombuffer(buf, dtype=np.intc)


@functools.lru_cache(maxsize=None)
def _weights(width, bits):
    """Packs a row of `width` ints below 2**bits into one int64 by a
    product, its first column highest."""
    return 1 << bits * np.arange(width - 1, -1, -1, dtype=np.int64)


def _lex_keys(rows, queries, bits):
    """int64 keys of `rows` and of `queries`, rows of one width with values
    below 2**bits, that compare as the rows do lexicographically, so equal
    keys mean equal rows.

    Columns are packed 63 // bits to a key.  Wider rows go on in chunks:
    each key so far is replaced by the dense rank of its prefix among
    `rows`, and the next columns are packed below it.  A query whose prefix
    no row has gets key -1.
    """
    width, step = rows.shape[1], max(1, 63 // bits)
    if width <= step:
        weights = _weights(width, bits)
        return rows @ weights, queries @ weights
    if not len(rows):
        return rows[:, 0].astype(np.int64), np.full(len(queries), -1)
    weights = _weights(step, bits)
    keys, qkeys = rows[:, :step] @ weights, queries[:, :step] @ weights
    lo, lost = step, np.zeros(len(queries), dtype=bool)
    while lo < width:
        prefix, keys = np.unique(keys, return_inverse=True)
        at = np.minimum(prefix.searchsorted(qkeys), len(prefix) - 1)
        lost |= prefix[at] != qkeys
        hi = min(width, lo + max(1, (63 - (len(prefix) - 1).bit_length())
                                 // bits))
        shift, weights = bits * (hi - lo), _weights(hi - lo, bits)
        keys = (keys.astype(np.int64) << shift) | rows[:, lo:hi] @ weights
        qkeys = (at.astype(np.int64) << shift) | queries[:, lo:hi] @ weights
        lo = hi
    qkeys[lost] = -1
    return keys, qkeys


def _absent(keys, queries, at):
    """Which `queries`, searched into the sorted `keys` at `at`, are not
    among them."""
    if not len(keys):
        return np.ones(len(queries), dtype=bool)
    return keys[np.minimum(at, len(keys) - 1)] != queries


def _facet_rows(rows, cubical, ordered=False):
    """The facet rows of one dimension's rows, cell by cell in facet order:
    a simplex's drop one column, a cube's are gathered by `_facet_index`,
    each in the order its cube induces if `ordered`, else sorted."""
    if cubical:
        out = rows.take(_facet_index(rows.shape[1]), axis=1)
        if not ordered:
            out.sort(axis=-1)
    else:
        out = rows.take(_drop_index(rows.shape[1]), axis=1)
    return out.reshape(-1, out.shape[-1])


def _check_shapes(dims, kinds, seqs, cubical):
    """The checks on cells that need no vertex ids, first failing cell
    first: IllegalIntersection for a negative dim, NotCubical for a kind
    foreign to the mode, then NotCubical for a cube or IllegalIntersection
    for a simplex whose vertex count does not fit its dim."""
    if min(dims, default=0) < 0:
        i = next(i for i, d in enumerate(dims) if d < 0)
        raise IllegalIntersection(f"cell {tuple(seqs[i])} of dim {dims[i]}")
    kind = CUBE if cubical else SIMPLEX
    if set(kinds) - {kind}:
        s = seqs[next(i for i, k in enumerate(kinds) if k != kind)]
        raise NotCubical(f"non-cube cell {tuple(s)}" if cubical else
                         f"non-simplex cell {tuple(s)} in simplicial mode")
    width = {d: 1 << d if cubical else d + 1 for d in set(dims)}
    if list(map(len, seqs)) != list(map(width.__getitem__, dims)):
        i = next(i for i, s in enumerate(seqs) if len(s) != width[dims[i]])
        raise (NotCubical(f"cube {seqs[i]} of dim {dims[i]}") if cubical
               else IllegalIntersection(f"degenerate simplex {seqs[i]}"))


def _vertex_places(seqs, vertices):
    """The vertex ids of the sequences `seqs`, one run after another, as
    their int32 places among the sorted ids of `vertices`.  UnknownVertex
    for an id that is not a 64-bit integer or not among `vertices`."""
    try:
        ids = np.frombuffer(array("q", itertools.chain.from_iterable(seqs)),
                            dtype=np.int64)
        vids = np.sort(np.frombuffer(array("q", vertices), dtype=np.int64))
    except (TypeError, OverflowError) as exc:
        raise UnknownVertex(f"vertex id not a 64-bit integer: {exc}") \
            from None
    place = vids.searchsorted(ids)
    stray = _absent(vids, ids, place)
    if np.count_nonzero(stray):
        v = ids[stray.argmax()]
        s = next(s for s in seqs if v in s)
        raise UnknownVertex(f"cell {tuple(sorted(s))} uses vertex {v}")
    return place.astype(np.int32)


def _split_rows(place, widths, counts):
    """A flat run of vertex places cut into one (count, width) row array
    per dimension."""
    rows, end = [], 0
    for w, n in zip(widths, counts):
        rows.append(place[end:end + w * n].reshape(n, w))
        end += w * n
    return rows


def _check_mode(mode):
    if mode not in (CUBICAL, SIMPLICIAL):
        raise ParamsInvalid(
            f"mode {mode!r}, need {CUBICAL!r} or {SIMPLICIAL!r}")


def _reach(start, step):
    """The ids reachable from the ids `start` by `step` (an id to the ids
    one step on), `start` among them, ascending: the one walk behind a
    closure (down the facets) and the cells on a vertex (up the cofaces)."""
    take = set(start)
    stack = list(take)
    while stack:
        for k in step(stack.pop()):
            if k not in take:
                take.add(k)
                stack.append(k)
    return sorted(take)


class Complex:
    """A cubical or weakly simplicial complex, validated when it is made.

    Given as cells alone, in (dim, verts) order, it reads their rows back
    (`_cell_rows`); a builder passes the `rows` it made the cells from
    (`_of_rows`).  Either way `_validate` checks the rows once and builds
    the facet table from them."""

    def __init__(self, dimension, mode, vertices, cells, vertex_cube_dim=None,
                 *, rows=None):
        _check_mode(mode)
        self.dimension = dimension
        self.mode = mode
        self.vertices = dict(vertices)  # id -> coords tuple or None
        self._cells = list(cells)  # sorted by (dim, verts)
        # provenance for canonical triangulations: vertex id -> the
        # dimension of the cube it is the centre of
        self.vertex_cube_dim = vertex_cube_dim or {}
        self._by_dim = {d: range(  # dim -> its ids
            bisect.bisect_left(self._cells, d, key=_cell_dim),
            bisect.bisect_right(self._cells, d, key=_cell_dim))
            for d in range(self._cells[-1].dim + 1 if self._cells else 0)}
        # incidence index, CSR (offsets, flat ids): the facets (`_facets`)
        # built by validation, the cofaces on first use
        self._cofaces = None
        self._validate(self._cell_rows() if rows is None else rows)

    # -- basic queries ------------------------------------------------------

    def cells(self):
        return list(self._cells)

    def cell_ids(self, dim):
        return list(self._by_dim.get(dim, ()))

    def cell(self, i):
        return self._cells[i]

    def top_ids(self):
        return self.cell_ids(self.dimension)

    def n_cells(self, dim):
        return len(self._by_dim.get(dim, ()))

    def _vertex_cell(self, w):
        """ids of the 0-cells on vertex w, by bisection."""
        ids = self._by_dim[0]
        lo = bisect.bisect_left(self._cells, (w,), ids.start, ids.stop,
                                key=_cell_verts)
        return list(range(lo, bisect.bisect_right(
            self._cells, (w,), lo, ids.stop, key=_cell_verts)))

    def _cells_at(self, vertices):
        """ids of the cells that contain one of `vertices`, ascending: up
        the cofaces from their 0-cells (a cell on w reaches the 0-cell of w
        through facets on w)."""
        return _reach([i for w in vertices for i in self._vertex_cell(w)],
                      self.coface_ids)

    def _coface_table(self):
        """The facet table inverted by one stable argsort, cofaces
        ascending."""
        if self._cofaces is None:
            off, flat = map(_ints, self._facets)
            size = len(self._cells)
            cell = np.arange(size, dtype=np.intc).repeat(off[1:] - off[:-1])
            coff = np.zeros(size + 1, dtype=np.intc)
            np.add.accumulate(np.bincount(flat, minlength=size), out=coff[1:])
            self._cofaces = (array("i", coff.tobytes()), array(
                "i", cell[flat.argsort(kind="stable")].tobytes()))
        return self._cofaces

    def _cell_rows(self):
        """The rows of `_of_rows`, read back from the cells: for a complex
        given as cells alone.  The cells must be in order of dim; their
        kinds, vertex counts and vertex ids are checked here
        (`_check_shapes`, `_vertex_places`), the rest by `_index`."""
        cells, cubical = self._cells, self.mode == CUBICAL
        dims = list(map(_cell_dim, cells))
        if dims != sorted(dims):
            i = next(i for i in range(1, len(dims)) if dims[i - 1] > dims[i])
            raise IllegalIntersection(
                f"cells out of (dim, verts) order: "
                f"{_cell_key(cells[i])} after {_cell_key(cells[i - 1])}")
        seqs = list(map(_cell_order if cubical else _cell_verts, cells))
        _check_shapes(dims, list(map(_cell_kind, cells)), seqs, cubical)
        widths = [1 << d if cubical else d + 1 for d in self._by_dim]
        return _split_rows(_vertex_places(seqs, self.vertices), widths,
                           map(len, self._by_dim.values()))

    def _index(self, rows):
        """Check the cells' rows by dimension and build the facet table
        from them: the rows a builder made the cells from (`_of_rows`), else
        the cells read back once (`_cell_rows`).

        A row holds a cell's vertices as their places among the sorted
        vertex ids: a cube's `order`, a simplex's `verts`.  The (dim, verts)
        order, with no duplicate but equal top simplices in weakly
        simplicial mode, repeated vertices, no cell above the top dimension
        and a cell of the top dimension are checked on the rows, before any
        facet.  A dimension's facet rows are made in one step (`_facet_rows`)
        and matched against the sorted rows one dimension down by `_lex_keys`
        and one searchsorted, the first id on equal keys; a facet row with
        no match raises MissingFace.
        """
        cells, n, cubical = self._cells, self.dimension, self.mode == CUBICAL
        by_dim = self._by_dim
        if len(by_dim) > n + 1:
            c = cells[by_dim[n + 1].start]  # the first above dimension n
            raise IllegalIntersection(
                f"cell {c.verts} of dim {c.dim} in a complex of dimension {n}")
        bits = max(1, (len(self.vertices) - 1).bit_length())
        srt = rows[:1] + [np.sort(r, axis=1) for r in rows[1:]] if cubical \
            else rows
        # Each dimension's sorted rows get keys, checked for order and
        # repeated vertices, and the facet rows one dimension up are matched
        # against them, their ids written straight into the flat table.  A
        # facet row with no match is reported only after every check, since
        # the match relies on the order.
        nf = [2 * d if cubical else d + 1 if d else 0 for d in by_dim]
        flat = array("i", bytes(4 * sum(map(operator.mul, nf, map(len, rows)))))
        out, lo, miss = _ints(flat), 0, []
        for d, r in by_dim.items():
            up = d + 1 < len(rows)
            keys, q = _lex_keys(srt[d], _facet_rows(rows[d + 1], cubical)
                                if up else srt[d][:0], bits)
            bad = (keys[1:] < keys[:-1] if d == n and not cubical
                   else keys[1:] <= keys[:-1])
            if np.count_nonzero(bad):
                i = bad.argmax()
                a, b = cells[r[i]], cells[r[i] + 1]
                raise IllegalIntersection(
                    f"cells out of (dim, verts) order: {_cell_key(b)} "
                    f"after {_cell_key(a)}" if keys[i + 1] < keys[i] else
                    f"duplicate cells of dim {d} on vertices {a.verts}")
            bad = srt[d][:, 1:] <= srt[d][:, :-1]
            if np.count_nonzero(bad):
                c = cells[r[bad.any(axis=1).argmax()]]
                raise IllegalIntersection(
                    f"cell {c.verts} repeats a vertex"
                    if len(set(c.verts)) < len(c.verts)
                    else f"cell {c.verts} lists its vertices unsorted")
            if up:
                at = keys.searchsorted(q)
                absent = _absent(keys, q, at)
                if np.count_nonzero(absent):
                    miss.append((d + 1, absent.argmax()))
                np.add(at, r.start, out=out[lo:lo + len(at)], casting="unsafe")
                lo += len(at)
        del out, srt
        if not by_dim.get(n):
            raise MissingFace(f"no cell of dimension {n}")
        for d, j in miss:
            c = cells[by_dim[d][j // nf[d]]]
            vids = sorted(self.vertices)
            face = [vids[k] for k in _facet_rows(rows[d], cubical)[j]]
            raise MissingFace(f"{c.kind} {c.verts} lacks face {tuple(face)}")
        self._facets = array("i", itertools.accumulate(
            itertools.chain.from_iterable(map(itertools.repeat, nf, map(
                len, rows))), initial=0)), flat

    def facet_ids(self, i):
        """ids of the codimension-1 faces of cell i, in `_facet_index` order
        (vertex-drop order for simplices)."""
        off, flat = self._facets
        return flat[off[i]:off[i + 1]].tolist()

    def coface_ids(self, i):
        """ids of cells of one dimension higher having cell i as a face."""
        off, flat = self._coface_table()
        return flat[off[i]:off[i + 1]].tolist()

    def shared_facets(self, i, others):
        """Facets of cell i that also bound a cell among `others`, taken
        as it is when a set."""
        if not isinstance(others, (set, frozenset)):
            others = set(others)
        return [f for f in self.facet_ids(i)
                if any(j != i and j in others for j in self.coface_ids(f))]

    # -- derived structure ----------------------------------------------------

    def adjacency(self, ids=None):
        """Edges (a, b, f) between cells of one dimension d (default: the top
        cells), one for each (d-1)-cell f that a and b both contain: in
        ascending f, then in pairs of f's ascending cofaces."""
        inside = set(self.top_ids() if ids is None else ids)
        return [(a, b, f)
                for f in sorted({f for i in inside for f in self.facet_ids(i)})
                for a, b in itertools.combinations(
                    [j for j in self.coface_ids(f) if j in inside], 2)]

    def is_simplicially_connected(self):
        comps, _ = spanning_forest(self.top_ids(), self.adjacency())
        return len(comps) == 1

    def boundary_facet_ids(self):
        """(n-1)-cells with exactly one top coface."""
        off, _ = self._coface_table()
        return [i for i in self.cell_ids(self.dimension - 1)
                if off[i + 1] - off[i] == 1]

    def is_closed(self):
        return not self.boundary_facet_ids()

    def euler_characteristic(self):
        return sum((-1) ** d * self.n_cells(d) for d in self._by_dim)

    def star_cell_ids(self, v):
        """Smallest subcomplex containing every cell incident to v (as ids)."""
        if v not in self.vertices:
            raise UnknownVertex(str(v))
        return self._closure(self._cells_at((v,)))

    def _closure(self, ids):
        """The given cells and all their faces, as sorted ids."""
        return _reach(ids, self.facet_ids)

    # -- validation --------------------------------------------------------------

    def _validate(self, rows):
        self._index(rows)
        if self.mode == CUBICAL:
            self._validate_cubical(rows)
        else:
            self._validate_weakly_simplicial()

    def _validate_cubical(self, rows):
        """Cubes that meet, meet in a common face; checked in two passes.

        (a) Each stored facet of a cube has the structure the cube's binary
        order induces: its facets' vertex sets are those of the facets of
        the induced sub-order (`_facet_index`).  Facets fix a cube's face
        lattice, so by induction every cube's stored face closure is the
        lattice of its order.
        (b) Maximal cubes (no coface) that share vertices meet in a face of
        both: with AND and OR over the shared vertices' positions in a binary
        order, they span a face iff there are 2^popcount(AND ^ OR) of them.
        Lower pairs then need no check: a face of A and a face of B, with A
        and B meeting in the common face F, meet in a face of F.

        Pass (a) runs on the cube rows of `_index`, a dimension at a time.
        Pass (b) groups the (vertex, maximal cube, position) triples of the
        rows by vertex and then by pair of cubes (`_meet_in_faces`), from
        `_BATCH_FROM` maximal cubes on; below that it loops over the pairs
        of maximal cubes that share a vertex, which costs less than the
        batch's fixed numpy calls.
        """
        cells, by_dim = self._cells, self._by_dim
        off, flat = map(_ints, self._facets)
        bits = max(1, (len(self.vertices) - 1).bit_length())

        def table(d):  # dimension d's facet ids, a row per cell
            r = by_dim[d]
            return flat[off[r.start]:off[r.stop]].reshape(len(r), 2 * d)

        # (a): an edge's facets are its vertices in any order
        for d in range(3, len(rows)):
            fid = table(d)
            want = _facet_rows(_facet_rows(rows[d], True, ordered=True), True)
            keys, wkeys = _lex_keys(np.sort(rows[d - 2], axis=1), want, bits)
            got = keys[table(d - 1)[fid - by_dim[d - 1].start]
                       - by_dim[d - 2].start]
            bad = np.argwhere((np.sort(got, axis=-1) != np.sort(
                wkeys.reshape(got.shape), axis=-1)).any(axis=-1))
            if bad.size:
                i, j = bad[0]
                raise IllegalIntersection(
                    f"cube {cells[by_dim[d][i]].order} has a misordered face "
                    f"{cells[fid[i, j]].order}")

        # (b)
        count = np.bincount(flat, minlength=len(cells))
        maximal = np.flatnonzero(count == 0).tolist()
        if len(maximal) >= _BATCH_FROM:
            return self._meet_in_faces(rows, count)
        place, on = {}, {}  # cube -> vertex -> position; vertex -> cubes
        for a in maximal:
            place[a] = dict(zip(cells[a].order, itertools.count()))
            for v in place[a]:
                on.setdefault(v, []).append(a)
        for a in maximal:
            for b in {b for v in place[a] for b in on[v] if b > a}:
                shared = place[a].keys() & place[b].keys()
                if not (_spans_face(place[a], shared)
                        and _spans_face(place[b], shared)):
                    raise IllegalIntersection(
                        f"cubes {cells[a].verts} and {cells[b].verts} meet "
                        f"in {tuple(sorted(shared))}, not a common face")

    def _meet_in_faces(self, rows, count):
        """Pass (b) of `_validate_cubical`, batched: the triples of the
        maximal cubes (`count` 0 cofaces) sorted by vertex, the pairs of
        triples on one vertex taken k apart for k = 1, 2, ..., sorted by
        pair of cubes, and AND and OR of the positions reduced per pair."""
        cells, by_dim, size = self._cells, self._by_dim, len(self._cells)
        vs, ts = [], []  # vertex places; cube id << 32 | position
        for d in range(1, len(rows)):
            r = by_dim[d]
            m = np.flatnonzero(count[r.start:r.stop] == 0)
            if len(m):
                vs.append(rows[d][m].ravel())
                ts.append((((m + r.start) << 32)[:, None]
                           | np.arange(1 << d)).ravel())
        if not vs:  # maximal 0-cells alone meet nothing
            return
        v, t = (np.concatenate(x) for x in (vs, ts))
        o = v.argsort(kind="stable")
        v, t = v[o], t[o]
        at, step = [], []
        while True:  # the triples k apart on one vertex, for k = 1, 2, ...
            i = np.flatnonzero(v[len(at) + 1:] == v[:-len(at) - 1])
            if not len(i):
                break
            at.append(i)
            step.append(len(i))
        if not at:
            return
        # in place where it can be: the pairs dominate the memory
        i = np.concatenate(at)
        del at
        tj = t[i + np.arange(1, len(step) + 1).repeat(step)]
        x = t[i]
        del i
        key = x >> 32
        key *= size
        key += tj >> 32  # the pair of cubes, the lesser id first
        x &= 0xFFFFFFFF
        tj &= 0xFFFFFFFF
        tj <<= 32
        x |= tj  # both positions, the lesser cube's low
        del tj
        o = key.argsort(kind="stable")
        key, x = key[o], x[o]
        del o
        new = np.empty(len(key), dtype=bool)
        new[0] = True
        np.not_equal(key[1:], key[:-1], out=new[1:])
        start = np.flatnonzero(new)
        free = np.bitwise_and.reduceat(x, start) ^ np.bitwise_or.reduceat(
            x, start)
        na = np.bitwise_count(free & 0xFFFFFFFF)
        bad = (na != np.bitwise_count(free >> 32)) | (np.bincount(
            np.cumsum(new) - 1) != np.left_shift(1, na, dtype=np.int64))
        if np.count_nonzero(bad):
            a, b = divmod(int(key[start[bad.argmax()]]), size)
            shared = set(cells[a].verts) & set(cells[b].verts)
            raise IllegalIntersection(
                f"cubes {cells[a].verts} and {cells[b].verts} meet "
                f"in {tuple(sorted(shared))}, not a common face")

    def _validate_weakly_simplicial(self):
        """Condition (4): every (n-1)-simplex is a face of at most two
        n-simplices (lower cells are unique, so one cell per vertex set)."""
        off, flat = map(_ints, self._facets)
        top = self._by_dim[self.dimension]
        count = np.bincount(flat[off[top.start]:off[top.stop]])
        over = np.flatnonzero(count > 2)
        if over.size:
            i = over[0]
            raise FaceOveruse(f"(n-1)-simplex {self._cells[i].verts} has "
                              f"{count[i]} cofaces")

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

    def relabel_invariant_hash(self):
        """sha256 of the quotient of the coarsest equitable partition of the
        cells (`_refine`, from dim and kind): for each class in class-id
        order, its dim, kind and size and its members' sorted neighbour
        classes.  The splitter order and the ids of split parts follow from
        class ids, counts and sizes alone, never cell ids, so relabelling
        vertices or reordering cells leaves the hash unchanged, and so does
        the process's string hashing.  A change to that order changes the
        values."""
        adj, color, classes = _start_partition([(self, None)])
        _refine(adj, color, classes, range(len(adj)))
        h = hashlib.sha256()
        for part in classes:
            c = self._cells[part[0]]
            nbrs = sorted(color[u] for u in adj[part[0]])
            h.update(repr((c.dim, c.kind, len(part), nbrs)).encode())
        return h.hexdigest()


def _of_rows(dimension, mode, vertices, rows, vertex_cube_dim=None):
    """A complex from a builder's rows, the one place rows become `Cell`s:
    `rows[d]` lists dimension d's cells, in (dim, verts) order, as an int32
    array of vertex places among the sorted vertex ids.  A simplex's row is
    its `verts`; a cube's is its `order`, and the row sorted its `verts`.
    `Complex._index` validates these rows and never reads the cells back.

    The rows are read by columns and zipped into the tuples, which share
    the id objects of `vertices`: a list per row raised the process's peak
    memory."""
    ids = np.array(sorted(vertices), dtype=object)
    cubical = mode == CUBICAL
    kind = CUBE if cubical else SIMPLEX
    cells = []
    for d, r in enumerate(rows):
        given = zip(*ids[r.T].tolist())
        if cubical and d:
            verts = zip(*ids[np.sort(r, axis=1).T].tolist())
            cells += [Cell(d, v, kind, order)
                      for v, order in zip(verts, given)]
        else:
            cells += map(Cell, itertools.repeat(d), given,
                         itertools.repeat(kind))
    return Complex(dimension, mode, vertices, cells, vertex_cube_dim,
                   rows=rows)


class _Rows(Complex):
    """A weakly simplicial complex whose cells keep their ids while vertices
    are identified (`identify`, in place), so that an identification costs
    the cells it touches; the form a reduction works on between collapses.

    Row i holds cell i (None once it is gone), its facets in vertex-drop
    order and its cofaces in no set order, as tuples, and `rank` orders
    equal tops.  The facet and coface lists' own `__getitem__` are
    `facet_ids` and `coface_ids`, which Complex's walks read, and `_zero`'s
    (vertex -> [its 0-cell]) is `_vertex_cell`.  The rows are not sorted,
    so of Complex's queries only those a collapse makes hold: `cell`,
    `facet_ids`, `coface_ids`, `_vertex_cell` and `star_cell_ids`, and
    `identify` answers in rows.  The rows of a gone cell stay, so the lists
    only grow; `complex` sorts the live rows for `_of_rows`, which
    validates them as every complex: a row `identify` left wrong raises.
    """

    def __init__(self, K):
        """K's rows, its ids kept; its order ranks equal tops."""
        (off, flat), (coff, cflat) = (map(array.tolist, table) for table in (
            K._facets, K._coface_table()))
        self.dimension, self.mode = K.dimension, SIMPLICIAL
        self.vertices, self._cells = dict(K.vertices), list(K._cells)
        self._facet_rows = [tuple(flat[a:b]) for a, b in zip(off, off[1:])]
        self._coface_rows = [tuple(cflat[a:b])
                             for a, b in zip(coff, coff[1:])]
        self.facet_ids = self._facet_rows.__getitem__
        self.coface_ids = self._coface_rows.__getitem__
        self._zero = {c.verts[0]: [i] for i, c in enumerate(K._cells[
            :K.n_cells(0)])}
        self._vertex_cell = self._zero.__getitem__
        self.rank = list(range(len(K._cells)))
        self.tops = K.n_cells(K.dimension)

    def identify(self, gone, v):
        """Identify every vertex in the set `gone` with vertex v, in place.
        Returns (image, touched): the id of the image of each cell that
        meets `gone` (-1 where it degenerates), as a dict over those cells
        only, and those cells, ascending.  Every other cell keeps its id.

        A non-degenerate image has one vertex w of `gone` and not v: it is
        c with w replaced by v, and its facet without a vertex is the image
        of c's facet without the same vertex (w for v).  A lower image
        merges with the cell on its vertices: one made earlier in the call,
        v's 0-cell, or the coface on v of c's (untouched) facet without w.
        Each top image is a new top, of its preimage's rank.  The facets of
        a carried cell are carried, so only the coface rows of the cells
        under a touched one change.  Only what is new is validated,
        before any row is written, so a raise leaves the rows as they were:
        some top is left, and every (n-1)-cell has at most two cofaces (a
        carried one gains cofaces only among new tops).
        """
        n, cells, facets = self.dimension, self._cells, self._facet_rows
        size, touched = len(cells), self._cells_at(gone)
        image, under, lower = {}, {}, {}
        made = []  # (cell, facets, rank) of each new cell
        for i in sorted(touched, key=lambda i: cells[i].dim):
            verts, dim = cells[i].verts, cells[i].dim
            hit = gone.intersection(verts)
            if len(hit) > 1 or v in verts:
                image[i] = -1
                continue
            w = hit.pop()
            t = tuple(sorted([v if x == w else x for x in verts]))
            if dim < n:  # the cell on t, if there is one
                j = lower.get(t) if dim else self._zero[v][0]
                if j is None:
                    j = next((k for k in self._coface_rows[facets[i][
                        verts.index(w)]] if cells[k].verts == t), None)
                if j is not None:
                    image[i] = j
                    continue
            j = image[i] = size + len(made)
            face = dict(zip(verts, facets[i]))  # vertex -> the facet without it
            face[v] = face.pop(w)
            fs = tuple([image.get(f, f) for f in map(face.__getitem__, t)])
            for f in fs:
                under.setdefault(f, []).append(j)
            made.append((Cell(dim, t, SIMPLEX), fs, self.rank[i]))
            if dim < n:
                lower[t] = j
        dead = set(touched)
        for i in touched:
            for f in facets[i]:
                if f not in dead:
                    under.setdefault(f, [])
        cofaces = {f: tuple([j for j in self._coface_rows[f] if j not in dead]
                            + new) if f < size else tuple(new)
                   for f, new in under.items()}
        tops = self.tops - sum(cells[i].dim == n for i in touched) + sum(
            c.dim == n for c, _, _ in made)
        if not tops:
            raise MissingFace(f"no cell of dimension {n}")
        for f in sorted(under):
            c = cells[f] if f < size else made[f - size][0]
            if c.dim == n - 1 and len(cofaces[f]) > 2:
                raise FaceOveruse(f"(n-1)-simplex {c.verts} has "
                                  f"{len(cofaces[f])} cofaces")
        for i in touched:
            cells[i] = None
        for c, fs, r in made:
            cells.append(c)
            facets.append(fs)
            self._coface_rows.append(())
            self.rank.append(r)
        for f, row in cofaces.items():
            self._coface_rows[f] = row
        self.tops = tops
        for w in gone:
            del self.vertices[w], self._zero[w]
        return image, touched

    def complex(self, names, coords):
        """(Q, ids): the live rows sorted into a Complex, each vertex w of
        `names` called names[w] and placed at coords[names[w]], equal tops
        in rank order; and the id in Q of each row (-1 once gone).  Q is
        made from the sorted rows by `_of_rows`, as every complex is."""
        live = [i for i, c in enumerate(self._cells) if c is not None]
        verts = [c.verts if names.keys().isdisjoint(c.verts) else tuple(
            sorted(names.get(w, w) for w in c.verts))
            for c in map(self._cells.__getitem__, live)]
        order = sorted(range(len(live)), key=lambda m: (
            len(verts[m]), verts[m], self.rank[live[m]]))
        ids = [-1] * len(self._cells)
        for q, m in enumerate(order):
            ids[live[m]] = q
        vertices = {names[w] if w in names else w:
                    coords[names[w]] if w in names else x
                    for w, x in self.vertices.items()}
        seqs = [verts[m] for m in order]
        widths = range(1, self.dimension + 2)
        counts = np.bincount(list(map(len, seqs)), minlength=len(widths) + 1)
        rows = _split_rows(_vertex_places(seqs, vertices), widths, counts[1:])
        return _of_rows(self.dimension, SIMPLICIAL, vertices, rows), ids


def spanning_forest(nodes, edges):
    """Components and spanning forest, by union-find over `edges` in order
    (an edge is a tuple whose first two entries are its ends, both nodes).

    Returns (components, tree): the components as sorted lists, in the
    order of their first node, and the edges that joined two components.
    """
    parent = {v: v for v in nodes}

    def find(v):
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    tree = []
    for e in edges:
        a, b = find(e[0]), find(e[1])
        if a != b:
            parent[b] = a
            tree.append(e)
    comps = {}
    for v in parent:
        comps.setdefault(find(v), []).append(v)
    return [sorted(c) for c in comps.values()], tree


def _cell_color(c, vertex_labels):
    """A cell's start colour for isomorphism: dim and kind, and for a vertex
    its label when labels are given (missing labels read as '')."""
    color = f"{c.dim}:{c.kind}"
    if vertex_labels is not None and c.dim == 0:
        color += f":{vertex_labels.get(c.verts[0], '')}"
    return color


def build_complex(dimension, mode, vertices, cells):
    """Validate raw cell data into a Complex.

    `vertices`: iterable of distinct ids or mapping id -> coords (or None).
    `cells`: (dim, vertex-list, kind) tuples or dicts; a simplex is stored
    in vertex order, a cube in its given order, which must be the
    binary-counter order.  Every vertex is a 0-cell.

    The given cells become int32 rows of vertex places once
    (`_vertex_places`), their missing faces are derived on those rows a
    dimension at a time (`_derive_faces`), and `_of_rows` makes them
    `Cell`s, in (dim, verts) order, and validates them.  Inconsistencies
    raise NotCubical / UnknownVertex / MissingFace / IllegalIntersection /
    FaceOveruse.
    """
    _check_mode(mode)  # before the cells, which are checked against it
    if isinstance(vertices, dict):
        vmap = {v: (tuple(c) if c is not None else None)
                for v, c in vertices.items()}
    else:
        vertices = list(vertices)
        vmap = dict.fromkeys(vertices)
        if len(vmap) != len(vertices):
            raise IllegalIntersection("vertex ids not unique")
    cubical = mode == CUBICAL
    kind_default = CUBE if cubical else SIMPLEX
    dims, seqs, kinds = [], [], []
    for entry in cells:
        if isinstance(entry, dict):
            dim, vs = json_fields(entry, "cell", "dim", "vertices")
            kind = entry.get("kind", kind_default)
        else:
            dim, vs, kind = entry
        try:
            seqs.append(tuple(vs))
        except TypeError:
            raise ParamsInvalid(
                f"cell {entry!r}: its vertices are not a list") from None
        dims.append(dim)
        kinds.append(kind)
    for size in {len(s) for d, s, k in zip(dims, seqs, kinds)
                 if d and k != SIMPLEX}:
        _facet_index(size)  # NotCubical: a cube without facets
    _check_shapes(dims, kinds, seqs, cubical)
    top = max(dims, default=0)
    given = sorted(range(len(dims)), key=dims.__getitem__)  # by dim, stably
    place = _vertex_places([seqs[i] for i in given], vmap)
    del seqs  # the rows hold them now
    counts = [0] * (top + 1)
    for d in dims:
        counts[d] += 1
    rows = _split_rows(place, [1 << d if cubical else d + 1
                               for d in range(top + 1)], counts)
    cut = list(itertools.accumulate(counts, initial=0))
    _derive_faces(rows, [np.array(given[lo:hi], dtype=np.intp)
                         for lo, hi in zip(cut, cut[1:])],
                  cubical, dimension, len(vmap))
    return _of_rows(dimension, mode, vmap, rows)


def _derive_faces(rows, tags, cubical, dimension, nv):
    """Derive the faces of the given rows in place.  `rows[d]` holds
    dimension d's given rows (places among `nv` vertices) and `tags[d]` the
    index of each in the given list; `rows[d]` comes back as the kept rows,
    ordered by their sorted vertices, a cube's in the order that fixed it.

    From the top dimension down, a dimension's candidates are its given rows
    and the facet rows of the rows one dimension up (a cube's in the order
    it induces, `_facet_index`; a simplex's with one column dropped), each
    tagged with the index of the given cell it came from.  Rows are keyed
    sorted (`_lex_keys`) and one row per key is kept, the first in given
    order, so the first given cell to reach a vertex set fixes its order; a
    given cell of the top dimension or above in weakly simplicial mode is
    always kept, and a derived one only if no given one with its vertices
    comes before it.  The facets of the kept rows and of every given row
    make the next dimension's candidates.  Every vertex is a 0-cell, ahead
    of any given one.
    """
    bits = max(1, (nv - 1).bit_length())
    up = None  # (rows, tags) whose facets are candidates one dimension down
    for d in range(len(rows) - 1, 0, -1):
        cand, tag, mine = rows[d], tags[d], True  # mine: which are given
        if not cubical:  # a simplex is stored in vertex order
            cand.sort(axis=1)
        if up is not None:
            f = _facet_rows(up[0], cubical, ordered=True)
            ftag = up[1].repeat(len(f) // max(1, len(up[0])))
            if len(cand):
                o = np.concatenate((tag, ftag)).argsort(kind="stable")
                mine = o < len(cand)
                cand = np.concatenate((cand, f))[o]
                tag = np.concatenate((tag, ftag))[o]
            else:
                cand, tag, mine = f, ftag, False
        s = np.sort(cand, axis=1) if cubical else cand
        keys = _lex_keys(s, s[:0], bits)[0]
        o = keys.argsort(kind="stable")
        keys = keys[o]
        first = np.empty(len(keys), dtype=bool)  # the first row per key
        first[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        multi = not (cubical or d < dimension)
        if multi and mine is not False:  # every given top, too
            first |= mine if mine is True else mine[o]
        kept = o[first]
        rows[d] = cand[kept]
        if d == 1:
            break
        if mine is True:  # every row was given
            keep = slice(None)
        elif mine is False or multi:
            keep = np.sort(kept)
        else:  # the first row per key and every given one
            keep = mine.copy()
            keep[kept] = True
        up = cand[keep], tag[keep]
    vertex = np.arange(nv, dtype=np.int32)[:, None]
    if cubical or dimension > 0:  # no other 0-cell
        rows[0] = vertex
    else:  # 0-cells are tops: every given one is kept after its vertex
        r = np.concatenate((vertex, rows[0]))
        rows[0] = r[r[:, 0].argsort(kind="stable")]


def from_json(data):
    if isinstance(data, str):
        data = json.loads(data)
    dimension, mode, vertices, cells = json_fields(
        data, "complex", "dimension", "mode", "vertices", "cells")
    verts = {json_fields(v, "vertex", "id")[0]:
             tuple(v["coords"]) if "coords" in v else None for v in vertices}
    if len(verts) != len(vertices):
        raise IllegalIntersection("vertex ids not unique")
    return build_complex(dimension, mode, verts, cells)


# -- canonical triangulation ------------------------------------------------------


def centre_ids(K):
    """The vertex of K's flag triangulation at each cube, by cube id: a
    0-cube's own vertex, else a new id.  Cells are sorted by (dim, verts),
    so cube i of dimension >= 1 gets max(K.vertices) + 1 + i - K.n_cells(0):
    new ids rise with (dim, verts), so with dimension."""
    cells, n0 = K.cells(), K.n_cells(0)
    base = max(K.vertices) + 1 - n0
    return [c.verts[0] for c in cells[:n0]] + list(range(base + n0,
                                                         base + len(cells)))


def flag_centres(K):
    """`centre_ids` with coordinates, as (id, coords): a 0-cube's own, else
    the barycentre (None unless every vertex has coordinates)."""
    out = []
    for v, c in zip(centre_ids(K), K.cells()):
        coords = [K.vertices[w] for w in c.verts]
        out.append((v, coords[0] if c.dim == 0 else None
                    if any(x is None for x in coords) else
                    tuple(sum(x) / len(coords) for x in zip(*coords))))
    return out


def _csr_rows(off, flat, ids):
    """The CSR rows flat[off[i]:off[i + 1]] of the cells `ids`, one after
    another, and the length of each."""
    lo = off[ids]
    size = off[ids + 1] - lo
    at = np.arange(size.sum()) + np.repeat(lo - np.cumsum(size) + size, size)
    return flat[at], size


def flag_rows(K, ids):
    """The flags q_0 < q_1 < ... < q_k of nested cubes of K that end at a
    cube of `ids` or at a face of one, as cube ids: one int32 array of rows
    per flag length, from length 1, each sorted lexicographically.

    The closure of `ids` is taken down the facet table, and the pairs
    (proper face, cube) under it by composing facets a codimension at a
    time.  Flags then grow one cube at a time: a flag is repeated once per
    cube its last cube is a proper face of, and those cubes, ascending, are
    gathered after it.  Grown so from sorted rows, the rows stay sorted.
    """
    off, flat = map(_ints, K._facets)
    size = np.int64(len(K._cells))  # pair keys face * size + cube
    inside = np.zeros(size, dtype=bool)
    inside[ids] = True
    for r in reversed(K._by_dim.values()):
        below = np.flatnonzero(inside[r.start:r.stop]) + r.start
        inside[_csr_rows(off, flat, below)[0]] = True
    face = cube = cubes = np.flatnonzero(inside)
    pairs = [face[:0]]  # so that empty `ids` give no pairs, not an error
    while len(face):  # a codimension down, each pair once
        face, deg = _csr_rows(off, flat, face)
        key = np.sort(np.repeat(cube, deg) * size + face)
        cube, face = np.divmod(key[np.diff(key, prepend=-1) != 0], size)
        pairs.append(face * size + cube)
    face, cube = np.divmod(np.sort(np.concatenate(pairs)), size)
    start = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(np.bincount(face, minlength=size), out=start[1:])
    cube = cube.astype(np.int32)
    rows = [cubes.astype(np.int32)[:, None]]
    while True:
        up, deg = _csr_rows(start, cube, rows[-1][:, -1])
        if not len(up):
            return rows
        rows.append(np.column_stack((rows[-1].repeat(deg, axis=0), up)))


def _flag_triangulation(K):
    """(vertices, rows, vertex_cube_dim) of K's canonical triangulation: its
    vertices with coordinates, and its simplices as rows of vertex places
    by dimension, each sorted.

    `flag_rows` lists them as cube ids.  `centre_ids` is strictly
    increasing, so those ids are already the places among T's sorted
    vertex ids, unless K has a vertex on no 0-cell, which shifts them."""
    if K.mode != CUBICAL:
        raise NotCubical("canonical_triangulation needs a cubical complex")
    centres = flag_centres(K)
    centre = [v for v, _ in centres]
    vcoords = dict(K.vertices) | dict(centres)
    vdim = {v: 0 for v in K.vertices} | {
        v: c.dim for v, c in zip(centre, K.cells())}
    rows = flag_rows(K, K.top_ids())
    # a cube under no top cube is its centre alone: its flags bound no top
    # simplex
    rows[0] = np.arange(len(centre), dtype=np.int32)[:, None]
    if len(vcoords) != len(centre):
        place = np.sort(np.array(list(vcoords))).searchsorted(centre)
        rows = [place.astype(np.int32)[r] for r in rows]
    return vcoords, rows, vdim


def canonical_triangulation(K):
    """Flag triangulation T of a cubical complex K.

    One new vertex per cube of dimension >= 1 (`flag_centres`), ordered by
    (dim, vertex list) so the construction is reproducible.  The cells of T
    are listed here, not derived from its top simplices: the centre of every
    cube as a 0-cell, and every flag of nested cubes that lies under a top
    cube of K (`flag_rows`).  `_of_rows` validates them in full, on those
    rows.
    """
    vcoords, rows, vdim = _flag_triangulation(K)
    return _of_rows(K.dimension, SIMPLICIAL, vcoords, rows, vdim)


# -- isomorphism ---------------------------------------------------------------------


def is_isomorphic(K1, K2, labels1=None, labels2=None):
    """Is there a dimension-, kind- and label-preserving bijection of cells
    that maps incidence onto incidence?  Decided exactly by
    individualization-refinement (McKay & Piperno, "Practical graph
    isomorphism II", J. Symb. Comput. 60, 2014) on the disjoint union of the
    two incidence graphs, read off both complexes' own index.

    Colours start from `_cell_color` and are refined to the coarsest
    equitable partition (colour refinement, Weisfeiler & Leman 1968), by
    splitters in O(m log n) counting for m incidences of n cells
    (`_refine`): after a pair is individualized, only its neighbours are
    counted at first.  Every step depends on colours alone, never on cell
    ids, so any isomorphism phi: K1 -> K2 maps each colour class's K1 cells
    onto its K2 cells, and a class with unequal counts on the two sides
    proves that no phi exists.  Otherwise the first K1 cell a of the
    smallest class holding more than one pair gets a fresh colour together
    with each K2 cell b of that class in turn.  phi(a) is one of those b,
    and that branch keeps phi colour-preserving, so trying every b misses no
    isomorphism.  When every class is a pair, the partition is a bijection;
    it is accepted only once checked to map every incidence onto an
    incidence.  So `True` comes only
    from a verified bijection, `False` only from a count mismatch or an
    exhausted search.  There is no automorphism pruning: on highly regular
    inputs that are not isomorphic the search can take exponential time.
    """
    n1 = len(K1.cells())
    if n1 != len(K2.cells()):
        return False
    adj, color, classes = _start_partition([(K1, labels1), (K2, labels2)])
    if sum(map(len, adj[:n1])) != sum(map(len, adj[n1:])):
        return False
    return _search(adj, n1, color, classes, range(len(adj)))


def _start_partition(complexes):
    """Neighbour lists (facets, then cofaces), colours and classes of the
    cells of the disjoint union of (K, labels) pairs, ids offset in turn,
    sliced from each complex's facet and coface tables.  Class ids follow
    the sorted `_cell_color` strings."""
    adj, start = [], []
    for K, labels in complexes:
        base = len(adj)
        (off, flat), (coff, cflat) = K._facets, K._coface_table()
        f, c = ((_ints(t) + base).tolist() for t in (flat, cflat))
        adj += [f[a:b] + c[x:y] for a, b, x, y in zip(
            off, off[1:], coff, coff[1:])]
        start += [_cell_color(cell, labels) for cell in K._cells]
    ids = {col: k for k, col in enumerate(sorted(set(start)))}
    color = [ids[col] for col in start]
    classes = [[] for _ in ids]
    for v, k in enumerate(color):
        classes[k].append(v)
    return adj, color, classes


def _refine(adj, color, classes, changed):
    """Refine `color` (cell -> class id) and `classes` (class id -> its
    cells, ascending), in place, to the coarsest equitable partition below
    them, by splitters (Hopcroft's "all but the largest part" rule; Cardon
    & Crochemore 1982, Paige & Tarjan 1987).  `changed` is every cell, or
    the cells whose colour changed when classes of an equitable partition
    were split, all parts of a split class but one.  Their classes are
    queued first.

    The smallest queued id S is popped and each cell's neighbours in S are
    counted; only the cells with such a neighbour are visited.  Each class
    holding one splits by that count: its cells counted 0, or else the part
    with the smallest count, keep its id, and the other parts take fresh
    ids in ascending count.  If the class was still queued, every new part
    is queued; else every part but the first of the largest, since counts
    into that part are counts into the class, which the partition was
    equitable with respect to, less counts into the others.  Each decision
    reads class ids, counts and sizes, never cell ids, so the ids come out
    canonical: a colour-preserving bijection of the input maps the result
    onto the refinement of its image.  A cell re-enters the queue only in a
    part at most half as large as its class was, so each of the m
    incidences of n cells is counted O(log n) times: O(m log n) counting,
    plus sorts of the touched class ids and of the new parts."""
    queue = sorted({color[v] for v in changed})  # a sorted list is a heap
    queued = set(queue)
    held = set()  # the split ids, whose cells are a set until the end
    while queue:
        s = heapq.heappop(queue)
        queued.discard(s)
        count = {}
        for v in classes[s]:
            for u in adj[v]:
                count[u] = count.get(u, 0) + 1
        hits = {}  # class id -> its counted cells
        for u in count:
            hits.setdefault(color[u], []).append(u)
        for k in sorted(hits):
            hit = hits[k]
            whole = len(hit) == len(classes[k])
            if whole and len(set(map(count.__getitem__, hit))) == 1:
                continue
            by = {}  # count -> cells
            for u in hit:
                by.setdefault(count[u], []).append(u)
            parts = [by[n] for n in sorted(by)]
            if whole:
                del parts[0]  # the smallest count keeps the id
            if k not in held:
                classes[k] = set(classes[k])
                held.add(k)
            ids = [] if k in queued else [k]
            for part in parts:
                classes[k].difference_update(part)
                j = len(classes)
                classes.append(sorted(part))
                for u in part:
                    color[u] = j
                ids.append(j)
            if k not in queued:  # the first of the largest parts stays out
                ids.remove(max(ids, key=lambda j: len(classes[j])))
            for j in ids:
                heapq.heappush(queue, j)
                queued.add(j)
    for k in held:
        classes[k] = sorted(classes[k])


def _search(adj, n1, color, classes, changed):
    """Refine, then decide by the counts, the leaf check or the branches.
    Cells below `n1` are K1's."""
    _refine(adj, color, classes, changed)
    for part in classes:
        if 2 * sum(v < n1 for v in part) != len(part):
            return False
    big = [k for k, part in enumerate(classes) if len(part) > 2]
    if not big:
        phi = [0] * n1
        for a, b in map(sorted, classes):
            phi[a] = b
        return all(set(adj[phi[a]]) == {phi[u] for u in adj[a]}
                   for a in range(n1))
    k = min(big, key=lambda k: len(classes[k]))  # the first of the smallest
    a = min(classes[k])
    for b in [v for v in classes[k] if v >= n1]:
        color2, classes2 = list(color), [list(part) for part in classes]
        classes2[k] = [v for v in classes[k] if v not in (a, b)]
        classes2.append([a, b])
        color2[a] = color2[b] = len(classes2) - 1
        if _search(adj, n1, color2, classes2, [a, b]):
            return True
    return False


# -- heuristic cell check ----------------------------------------------------------


def cell_check(K):
    """Warning-level check that |K| is an n-cell; a certificate, not a proof.

    In every dimension it tests that the Euler characteristic is 1 and that
    the boundary is non-empty.  For n = 1 it is exact: a connected graph
    with Euler characteristic 1 and two boundary vertices is a path.  For
    n >= 2 it tests that the boundary is connected through shared
    (n-2)-cells, and for n = 2 that it is a circle, unpinched: every
    boundary vertex lies on exactly two boundary edges.  For n >= 3 that is
    all a verdict covers: a pinched or non-spherical boundary can pass.
    Returns a list of failure reasons, empty when the check passes.
    """
    reasons = []
    if K.euler_characteristic() != 1:
        reasons.append(f"Euler characteristic {K.euler_characteristic()} != 1")
    bfacets = K.boundary_facet_ids()
    if not bfacets:
        reasons.append("no boundary")
        return reasons
    if K.dimension == 1:  # a 0-sphere: no (n-2)-cell joins its two points
        if len(bfacets) != 2 or not K.is_simplicially_connected():
            reasons.append("not a path: disconnected or not two ends")
    elif len(spanning_forest(bfacets, K.adjacency(bfacets))[0]) != 1:
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
