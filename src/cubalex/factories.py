"""Constructors for the standard complexes used in tests and the CLI."""

from __future__ import annotations

from .complex_core import (
    CUBE, CUBICAL, SIMPLEX, SIMPLICIAL, Cell, Complex, build_complex,
    canonical_triangulation, flag_centres, flag_rows,
)


def grid_complex(cells):
    """Cubical 2-complex from unit squares given by lower-left integer corners."""
    return box_complex(2, cells)


def box_complex(n, corners):
    """Cubical n-complex of unit n-cubes at the given integer corners."""
    coords = {}
    cubes = []
    for corner in corners:
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
    each cell of T with an interior vertex, sorted by (dim, verts).  Interior
    vertices end a simplex's vertex list, since a cube above an interior one
    is interior too, so a copy stays in vertex order.  The result is a closed
    simplicial complex (16 triangles for a square, 96 tetrahedra for a
    3-cube).
    """
    T = canonical_triangulation(K)
    centres = flag_centres(K)
    shared = {centres[i][0] for i in
              flag_rows(K, K.boundary_facet_ids())[0][:, 0].tolist()}
    offset = max(T.vertices) + 1
    copy = {v: v + offset for v in T.vertices if v not in shared}
    cells = T.cells() + [
        Cell(c.dim, tuple(copy.get(v, v) for v in c.verts), SIMPLEX)
        for c in T.cells() if not shared.issuperset(c.verts)]
    cells.sort(key=lambda c: (c.dim, c.verts))
    return Complex(T.dimension, SIMPLICIAL,
                   T.vertices | {w: T.vertices[v] for v, w in copy.items()},
                   cells, vertex_cube_dim=T.vertex_cube_dim | {
                       w: T.vertex_cube_dim[v] for v, w in copy.items()})


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


def _canon_polyomino(cells):
    best = None
    pts = list(cells)
    for flip in (False, True):
        q = [(-x, y) if flip else (x, y) for x, y in pts]
        for _ in range(4):
            q = [(y, -x) for x, y in q]
            mx = min(x for x, _ in q)
            my = min(y for _, y in q)
            norm = tuple(sorted((x - mx, y - my) for x, y in q))
            if best is None or norm < best:
                best = norm
    return best


def free_polyominoes(max_cells):
    """Free polyominoes (up to D4 symmetry) with up to `max_cells` squares."""
    levels = {1: {((0, 0),)}}
    for k in range(2, max_cells + 1):
        new = set()
        for poly in levels[k - 1]:
            cells = set(poly)
            for (x, y) in poly:
                for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    c = (x + dx, y + dy)
                    if c in cells:
                        continue
                    new.add(_canon_polyomino(cells | {c}))
        levels[k] = new
    return {k: sorted(levels[k]) for k in range(1, max_cells + 1)}


def is_disk_polyomino(cells):
    """True iff the polyomino's complex is a 2-cell (disk)."""
    from .complex_core import cell_check
    K = grid_complex(cells)
    return not cell_check(K)
