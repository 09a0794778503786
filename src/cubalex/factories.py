"""Constructors for the standard complexes used in tests and the CLI."""

from __future__ import annotations

import operator

import numpy as np

from .complex_core import (
    CUBE, CUBICAL, SIMPLEX, SIMPLICIAL, _flag_triangulation, _of_rows,
    build_complex, centre_ids, flag_rows,
)
from .errors import ParamsInvalid


def grid_complex(cells):
    """Cubical 2-complex from unit squares given by lower-left integer corners."""
    return box_complex(2, cells)


def _corners(n, corners):
    """The corners as tuples of n integers; ParamsInvalid if there are none,
    if one repeats or if one is not n integers."""
    out = []
    for corner in corners:
        try:
            c = tuple(map(operator.index, corner))
        except TypeError:
            c = ()
        if len(c) != n:
            raise ParamsInvalid(f"corner {corner!r} is not {n} integers")
        out.append(c)
    if not out:
        raise ParamsInvalid("no corners given")
    if len(set(out)) != len(out):
        raise ParamsInvalid("a corner is given twice")
    return out


def box_complex(n, corners):
    """Cubical n-complex of unit n-cubes at the given integer corners."""
    coords = {}
    cubes = []
    for corner in _corners(n, corners):
        vs = [coords.setdefault(tuple(corner[j] + ((i >> j) & 1)
                                      for j in range(n)), len(coords))
              for i in range(2 ** n)]
        cubes.append((n, vs, CUBE))
    verts = {i: pos for pos, i in coords.items()}
    return build_complex(n, CUBICAL, verts, cubes)


def unit_cube(n):
    return box_complex(n, corners=((0,) * n,))


def domino():
    return grid_complex([(0, 0), (1, 0)])


def rect_grid(w, h):
    return grid_complex([(x, y) for x in range(w) for y in range(h)])


def doubled_complex(K):
    """Double of a cubical cell complex along its boundary.

    Triangulates K twice: the centres of the cubes on K's boundary (the
    closure of its boundary facets, `flag_rows`) are shared, every other
    vertex w of T gets a copy w + offset.  D's cells are T's and a copy of
    each cell of T with an interior vertex, sorted by (dim, verts), made
    from T's rows of vertex places: a copy's place is its original's after
    T's vertices.  Interior vertices end a simplex's vertex list, since a
    cube above an interior one is interior too, so a copy stays in vertex
    order.  The result is a closed simplicial complex (16 triangles for a
    square, 96 tetrahedra for a 3-cube).
    """
    vcoords, rows, vdim = _flag_triangulation(K)
    centre = centre_ids(K)
    shared = {centre[i] for i in
              flag_rows(K, K.boundary_facet_ids())[0][:, 0].tolist()}
    offset = max(vcoords) + 1
    copy = {v: v + offset for v in vcoords if v not in shared}
    inner = np.array([v in copy for v in sorted(vcoords)], dtype=bool)
    place = np.arange(len(inner), dtype=np.int32)
    place[inner] = len(inner) + np.arange(np.count_nonzero(inner))
    for d, r in enumerate(rows):
        both = np.concatenate((r, place[r[inner[r].any(axis=1)]]))
        rows[d] = both[np.lexsort(both.T[::-1])]
    return _of_rows(
        K.dimension, SIMPLICIAL,
        vcoords | {w: vcoords[v] for v, w in copy.items()}, rows,
        vdim | {w: vdim[v] for v, w in copy.items()})


def circle_complex(edges=2):
    """A 1-complex on a circle; edges=2 gives the two-cell hemisphere circle."""
    if edges == 2:
        return build_complex(1, SIMPLICIAL, [0, 1],
                             [(1, [0, 1], SIMPLEX), (1, [1, 0], SIMPLEX)])
    cells = [(1, [i, (i + 1) % edges], SIMPLEX) for i in range(edges)]
    return build_complex(1, SIMPLICIAL, list(range(edges)), cells)


def mutually_adjacent_triangles():
    """Three pairwise-adjacent triangles: a 3-cycle in the adjacency graph."""
    cells = [(2, [0, 1, 2], SIMPLEX), (2, [0, 1, 3], SIMPLEX),
             (2, [0, 2, 3], SIMPLEX)]
    return build_complex(2, SIMPLICIAL, [0, 1, 2, 3], cells)


def product_with_interval(base, layers):
    """Cubical product of a cubical complex with [0..layers].

    Vertex ids are (v, level) pairs flattened; cube orders interleave the
    binary orders of the factors (interval bit last).
    """
    ids = {}

    def vid(v, t):
        return ids.setdefault((v, t), len(ids))

    cells = []
    n = base.dimension
    for t in range(layers):
        for i in base.top_ids():
            order = base.cell(i).order
            vs = [vid(v, t) for v in order] + [vid(v, t + 1) for v in order]
            cells.append((n + 1, vs, CUBE))
    verts = {}
    for (v, t), i in ids.items():
        c = base.vertices[v]
        verts[i] = None if c is None else tuple(c) + (t,)
    return build_complex(n + 1, CUBICAL, verts, cells)


# -- polyominoes ------------------------------------------------------------------


def _canon_code(form, base):
    """The least of a fixed form's eight D4 images, as a sorted tuple of codes.

    A square (x, y) of a form translated to touch both axes has the code
    (x + 1) * base + y + 1, so its four neighbours are the codes +-base and
    +-1 without wrapping, and tuples of codes compare as the tuples of
    (x, y) pairs they stand for.  In a w x h bounding box the images of
    (x, y) are its reflections (w-1-x, y) and (x, h-1-y) and the swap
    (y, x), composed: each image of a code is linear in x and y.
    """
    pts = [divmod(c - base - 1, base) for c in form]
    w = max(x for x, _ in pts)  # width - 1
    h = max(y for _, y in pts)
    one = base + 1
    return min(tuple(sorted(a * x + b * y + c for x, y in pts))
               for a, b, c in ((base, 1, one), (-base, 1, w * base + one),
                               (base, -1, h + one),
                               (-base, -1, w * base + h + one),
                               (1, base, one), (1, -base, h * base + one),
                               (-1, base, w + one),
                               (-1, -base, h * base + w + one)))


def free_polyominoes(max_cells):
    """Free polyominoes (up to D4 symmetry) with up to `max_cells` squares:
    {size: sorted canonical forms}, a form being the sorted (x, y) corners
    of its squares that is least among its eight images, each translated to
    touch both axes.

    Each level grows every form of the last by one square.  The grown fixed
    forms are translated and deduplicated as integer codes first, so only
    the distinct ones are canonicalised."""
    base = max_cells + 2
    level = [(base + 1,)]
    out = {}
    for k in range(1, max_cells + 1):
        if k > 1:
            fixed = set()
            for form in level:
                have = set(form)
                for c in form:
                    for n in (c + base, c - base, c + 1, c - 1):
                        if n in have:
                            continue
                        grown = [*form, n]
                        shift = (min(grown) // base - 1) * base + min(
                            g % base for g in grown) - 1
                        fixed.add(tuple(sorted(g - shift for g in grown)))
            level = sorted({_canon_code(f, base) for f in fixed})
        out[k] = [tuple((c // base - 1, c % base - 1) for c in form)
                  for form in level]
    return out


def is_disk_polyomino(cells):
    """True iff the polyomino's complex is a 2-cell (disk).

    Exact on the lattice: the squares are edge-connected and V - E + F = 1,
    counting distinct lattice vertices, unit edges and squares.  An
    edge-connected polyomino P has b0 = 1, and b1(P) is its number of holes
    (bounded components of the complement) by Alexander duality, so
    chi(P) = 1 - holes.  A pinch, a vertex where only two diagonally opposite
    squares meet, always brings a hole: a path of squares between the two,
    closed through that vertex, is a loop that encloses one of the two
    missing squares.  So chi = 1 leaves P simply connected and a surface
    with boundary, a disk; a disk is edge-connected with chi = 1.
    """
    squares = set(_corners(2, cells))
    seen = {next(iter(squares))}
    stack = list(seen)
    while stack:
        x, y = stack.pop()
        for n in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if n in squares and n not in seen:
                seen.add(n)
                stack.append(n)
    if len(seen) != len(squares):
        return False
    verts = {(x + i, y + j) for x, y in squares for i in (0, 1) for j in (0, 1)}
    # (x, y, 0) is the edge east of corner (x, y), (x, y, 1) the one north
    edges = {e for x, y in squares
             for e in ((x, y, 0), (x, y + 1, 0), (x, y, 1), (x + 1, y, 1))}
    return len(verts) - len(edges) + len(squares) == 1
