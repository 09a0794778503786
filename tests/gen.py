"""Random generators and fixed shapes shared by the test modules."""

import random

import networkx as nx

from cubalex import complex_core as cc
from cubalex import factories as fa
from cubalex import refinement as rf
from cubalex import shelling as sh
from cubalex.errors import NotACell

# A 16-square disk polyomino: its star replacement and its reduction are
# both cones over one long polygon.
CONE44 = ((-3, -2), (-3, -1), (-2, -2), (-2, -1), (-1, -2), (-1, -1), (-1, 0),
          (0, -1), (0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (2, 0), (2, 1),
          (3, 1))

# the four 3-D boxes of the benchmark's shelling workload
BENCH_BOXES_3D = [
    ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)),
    ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)),
    ((0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 2, 0)),
    tuple((x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)),
]


def subcomplex(K, ids):
    """Subcomplex of K spanned by the given cell ids, closed under faces."""
    take, stack = set(ids), list(ids)
    while stack:
        for f in K.facet_ids(stack.pop()):
            if f not in take:
                take.add(f)
                stack.append(f)
    cells = [K.cell(i) for i in sorted(take)]
    verts = {v: K.vertices[v] for v in {w for c in cells for w in c.verts}}
    return cc.Complex(max((c.dim for c in cells), default=0), K.mode, verts,
                      cells,
                      vertex_cube_dim={v: d for v, d in K.vertex_cube_dim.items()
                                       if v in verts})


def identify(K, gone, v):
    """Identify every vertex in the set `gone` with vertex v, in a validated
    (weakly) simplicial complex K, as one collapse of a reduction does it
    (`cc._Rows.identify`), sorted into a new complex.  Returns (Q, image,
    touched): Q, the id in Q of each cell's image (-1 where it
    degenerates), and the ids of the cells that meet `gone`, ascending.
    Q's cells are sorted as a sort of all images by (dim, verts) would leave
    them, equal tops in the order of their preimages."""
    rows = cc._Rows(K)
    row, touched = rows.identify(gone, v)
    Q, ids = rows.complex({}, {})
    image = ids[:len(K.cells())]
    for i in touched:
        image[i] = ids[row[i]] if row[i] >= 0 else -1
    return Q, image, touched


def random_disk_polyomino(rng, max_cells):
    """Edge-connected polyomino whose complex is a disk."""
    while True:
        cells = {(0, 0)}
        target = rng.randint(1, max_cells)
        guard = 0
        while len(cells) < target and guard < 200:
            guard += 1
            x, y = rng.choice(sorted(cells))
            dx, dy = rng.choice([(1, 0), (-1, 0), (0, 1), (0, -1)])
            cells.add((x + dx, y + dy))
        if fa.is_disk_polyomino(sorted(cells)):
            return sorted(cells)


def bench_reduction_disks(seed):
    """The 17 polyominoes the benchmark's shell_reduce workload reduces at
    `seed`: two disks of each size 9-16, grown one square at a time from
    random.Random(seed), and CONE44."""
    rng = random.Random(seed)
    disks = []
    for size in [*range(9, 17)] * 2:
        while True:
            cells = {(0, 0)}
            while len(cells) < size:
                x, y = rng.choice(sorted(cells))
                dx, dy = rng.choice(((1, 0), (-1, 0), (0, 1), (0, -1)))
                cells.add((x + dx, y + dy))
            if fa.is_disk_polyomino(sorted(cells)):
                disks.append(tuple(sorted(cells)))
                break
    return disks + [CONE44]


def random_shellable_polycube(rng, max_cells):
    """Face-connected polycube of unit 3-cubes with a shelling; cubes that
    meet only along an edge can leave a pinched, unshellable union."""
    while True:
        cells = {(0, 0, 0)}
        target = rng.randint(1, max_cells)
        while len(cells) < target:
            x = list(rng.choice(sorted(cells)))
            x[rng.randrange(3)] += rng.choice((-1, 1))
            cells.add(tuple(x))
        try:
            if sh.find_shelling(fa.box_complex(3, cells)) is not None:
                return sorted(cells)
        except NotACell:
            pass


def cube_complex(cells):
    """The cubical complex on unit cubes at the given integer corners (for
    squares the same complex as `grid_complex`)."""
    return fa.box_complex(len(cells[0]), cells)


def relabeled(K, rng):
    """An isomorphic copy of K and its vertex map: the vertex ids permuted
    and the maximal cells handed to `build_complex` in shuffled order, so
    the cells come out in another order and the identity bijection is not
    an isomorphism (unless the permutation happens to be one)."""
    ids = sorted(K.vertices)
    perm = dict(zip(ids, rng.sample(ids, len(ids))))
    tops = [c for i, c in enumerate(K.cells()) if not K.coface_ids(i)]
    rng.shuffle(tops)
    K2 = cc.build_complex(K.dimension, K.mode,
                          {perm[v]: K.vertices[v] for v in ids},
                          [(c.dim, [perm[v] for v in c.order], c.kind)
                           for c in tops])
    return K2, perm


def nx_adjacency(K, ids=None):
    """`K.adjacency(ids)` as a networkx graph on `ids` (default: the top
    cells), each edge carrying its facet as `shared`: an oracle's view."""
    g = nx.Graph()
    g.add_nodes_from(K.top_ids() if ids is None else ids)
    for a, b, f in K.adjacency(ids):
        g.add_edge(a, b, shared=f)
    return g


def random_molecule(rng, n=2, max_atoms=4, max_blocks=3, max_rho=3):
    """A random valid molecule built root-first with rejection sampling."""
    while True:
        try:
            return rf.build_molecule(n, *random_molecule_spec(
                rng, n, max_atoms, max_blocks, max_rho))
        except Exception:
            continue


def random_molecule_spec(rng, n=2, max_atoms=4, max_blocks=3, max_rho=3):
    """(atom blocks, indices) of a molecule grown root-first; may be invalid."""
    rho_root = rng.randint(1, max_rho)
    side = 3 ** rho_root
    # root atom: a straight or L-shaped run of blocks
    count = rng.randint(1, max_blocks)
    blocks = [(0,) * n]
    axis = rng.randrange(n)
    for i in range(1, count):
        last = blocks[-1]
        if rng.random() < 0.3:
            axis = rng.randrange(n)
        step = tuple(side if a == axis else 0 for a in range(n))
        blocks.append(tuple(last[a] + step[a] for a in range(n)))
    atoms = [[(c, side) for c in dict.fromkeys(blocks)]]
    indices = [rho_root]

    n_children = rng.randint(0, max_atoms - 1)
    for _ in range(n_children):
        parent = rng.randrange(len(atoms))
        rho_c = rng.randint(0, indices[parent] - 1) if indices[parent] > 0 else None
        if rho_c is None:
            continue
        side_c = 3 ** rho_c
        pb_corner, pb_side = atoms[parent][rng.randrange(len(atoms[parent]))]
        axis = rng.randrange(n)
        direction = rng.choice([0, 1])
        # child sits flush against the chosen face, 3-adically aligned
        corner = list(pb_corner)
        if direction:
            corner[axis] = pb_corner[axis] + pb_side
        else:
            corner[axis] = pb_corner[axis] - side_c
        for a in range(n):
            if a != axis:
                slots = pb_side // side_c
                corner[a] = pb_corner[a] + side_c * rng.randrange(slots)
        atoms.append([(tuple(corner), side_c)])
        indices.append(rho_c)
    return atoms, indices


def random_sketch_pieces(rng, max_pieces=30, colors=3):
    """Pieces, colors, incidences and roots for a neighborly forest test.

    Per-color subgraphs are connected by construction; one root per color.
    """
    m = rng.randint(colors, max_pieces)
    pieces = list(range(1, m + 1))
    col = {}
    for i, p in enumerate(pieces):
        col[p] = (i % colors) + 1
    incid = []
    sid = 0
    by_color = {}
    for p in pieces:
        by_color.setdefault(col[p], []).append(p)
    for c, group in by_color.items():
        # random connected graph: a random spanning tree plus extras
        order = group[:]
        rng.shuffle(order)
        for i in range(1, len(order)):
            a = order[rng.randrange(i)]
            incid.append((a, order[i], f"s{sid}"))
            sid += 1
        for _ in range(rng.randint(0, len(group))):
            a, b = rng.sample(group, 2) if len(group) >= 2 else (None, None)
            if a is not None:
                incid.append((a, b, f"s{sid}"))
                sid += 1
    roots = [group[0] for group in by_color.values()]
    return pieces, col, incid, roots
