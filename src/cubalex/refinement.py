"""1/3-refinements, cores and buffers, molecules, dents, separating complexes.

Molecules live on the integer lattice: an atom with refinement index rho is a
tree of blocks of side 3^rho, and the molecule's unit cells are the fully
refined lattice cells, so all cell counting is exact integer arithmetic.
Refining a complex multiplies coordinates by three, matching the metric
convention that the identity map scales distances by 3^k.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import networkx as nx

from .complex_core import CUBE, CUBICAL, Complex, build_complex
from .errors import (
    BadAttachment,
    CubeNotInMolecule,
    DuplicateMaxAtom,
    NoDisjointCollars,
    NotATree,
    NotCubical,
    UnclassifiableFace,
)


def flag_count(k):
    """Maximal flags of a k-cube = top simplices of its canonical triangulation."""
    return (2 ** k) * math.factorial(k)


# -- complex-level refinement -----------------------------------------------------


def _cube_box(K, i):
    """(corner, side) of an axis-aligned cube cell, from coordinates."""
    coords = [K.vertices[v] for v in K.cell(i).verts]
    if any(c is None for c in coords):
        raise NotCubical("refinement needs coordinates")
    d = len(coords[0])
    corner = tuple(min(c[a] for c in coords) for a in range(d))
    side = max(c[0] for c in coords) - corner[0]
    for c in coords:
        for a in range(d):
            if c[a] not in (corner[a], corner[a] + side):
                raise NotCubical(f"cube {K.cell(i).verts} is not an aligned box")
    return corner, side


@dataclass
class RefinedComplex:
    """A 1/3^k refinement with per-cube provenance onto the base complex."""

    base: Complex
    complex: Complex
    k: int
    provenance: dict  # refined top id -> base top id


def refine(K, k=1):
    """Subdivide every n-cube into 3^(nk) congruent subcubes.

    Coordinates are multiplied by 3^k so that subcubes sit on the integer
    lattice; the identity on spaces is a similarity scaling by 3^k.
    """
    if K.mode != CUBICAL:
        raise NotCubical("refine needs a cubical complex")
    if k == 0:
        return RefinedComplex(K, K, 0, {i: i for i in K.top_ids()})
    n = K.dimension
    f = 3 ** k
    boxes = {i: _cube_box(K, i) for i in K.top_ids()}
    ids = {}

    def vid(pos):
        return ids.setdefault(pos, len(ids))

    cells = []
    prov_order = []
    for i in K.top_ids():
        corner, side = boxes[i]
        step = side  # subcube side after scaling: side * f / f ... in new coords
        for offset in itertools.product(range(f), repeat=n):
            c0 = tuple(corner[a] * f + offset[a] * side for a in range(n))
            vs = [vid(tuple(c0[a] + ((t >> a) & 1) * side for a in range(n)))
                  for t in range(2 ** n)]
            cells.append((n, vs, CUBE))
            prov_order.append(i)
    verts = {j: pos for pos, j in ids.items()}
    R = build_complex(n, CUBICAL, verts, cells)
    # build_complex may reorder; recover provenance through vertex sets
    lookup = {}
    for idx, (dim, vs, kind) in enumerate(cells):
        lookup[tuple(sorted(vs))] = prov_order[idx]
    prov = {i: lookup[R.cell(i).verts] for i in R.top_ids()}
    return RefinedComplex(K, R, k, prov)


def skeleton_metric(K, u, v, j=0):
    """Geodesic distance between two vertices along the Ref_j 1-skeleton.

    Edge lengths are Euclidean in the refined coordinates, rescaled by
    3^-j so values stay comparable with the base complex.  The skeleton
    geodesic upper-bounds the length metric of the space and converges
    (from above, within a 3^-j * diameter discretization term) to the
    taxicab relaxation of it; on axis-aligned complexes the two differ by
    at most a factor sqrt(n).
    """
    from .errors import UnknownVertex

    R = refine(K, j).complex if j else K
    scale = 3 ** j

    def locate(w):
        target = tuple(x * scale for x in K.vertices[w])
        for cand, pos in R.vertices.items():
            if pos == target:
                return cand
        raise UnknownVertex(str(w))

    g = nx.Graph()
    for i in R.cell_ids(1):
        a, b = R.cell(i).verts
        pa, pb = R.vertices[a], R.vertices[b]
        g.add_edge(a, b, weight=math.dist(pa, pb))
    src, dst = locate(u), locate(v)
    return nx.dijkstra_path_length(g, src, dst) / scale


def core(K):
    """Minimal subcomplex of the n-cubes not meeting the boundary."""
    bverts = K.boundary_vertex_ids()
    ids = [i for i in K.top_ids()
           if not (set(K.cell(i).verts) & bverts)]
    return K.subcomplex(ids) if ids else None


def buffer(K):
    """Minimal subcomplex of the n-cubes meeting the boundary."""
    bverts = K.boundary_vertex_ids()
    ids = [i for i in K.top_ids()
           if set(K.cell(i).verts) & bverts]
    return K.subcomplex(ids) if ids else None


def center_cube(box):
    """Center cube c(Q) of a box, in once-refined (x3) coordinates."""
    corner, side = box
    return tuple(3 * c + side for c in corner), side


def rim_cubes(box):
    """The 3^n - 1 subcubes around the center, in x3 coordinates."""
    corner, side = box
    n = len(corner)
    out = []
    for offset in itertools.product(range(3), repeat=n):
        if all(o == 1 for o in offset):
            continue
        out.append((tuple(3 * corner[a] + offset[a] * side for a in range(n)), side))
    return out


# -- boxes and molecules -------------------------------------------------------------


@dataclass(frozen=True)
class Block:
    """Axis-aligned lattice cube [corner, corner + side]^n."""

    corner: tuple
    side: int

    @property
    def n(self):
        return len(self.corner)

    def interval(self, a):
        return (self.corner[a], self.corner[a] + self.side)

    def face(self, axis, side):
        """(axis, coordinate, rect corner, rect side) of one (n-1)-face."""
        coord = self.corner[axis] + (self.side if side else 0)
        rect = tuple(c for a, c in enumerate(self.corner) if a != axis)
        return Face(axis, coord, rect, self.side)

    def faces(self):
        return [self.face(a, s) for a in range(self.n) for s in (0, 1)]

    def contains_box(self, other):
        return all(self.corner[a] <= other.corner[a] and
                   other.corner[a] + other.side <= self.corner[a] + self.side
                   for a in range(self.n))


@dataclass(frozen=True)
class Face:
    """An axis-aligned (n-1)-cube: hyperplane slot plus square cross-section."""

    axis: int
    coord: int
    rect: tuple   # corner in the n-1 remaining axes, in their natural order
    side: int

    def area(self):
        return self.side ** len(self.rect)

    def contains(self, other):
        if (self.axis, self.coord) != (other.axis, other.coord):
            return False
        return all(self.rect[a] <= other.rect[a] and
                   other.rect[a] + other.side <= self.rect[a] + self.side
                   for a in range(len(self.rect)))


def blocks_contact(b1, b2):
    """Face contact between two blocks, or None.

    Returns (axis, coord, rect corner, rect side lengths tuple) of the shared
    (n-1)-box when the blocks abut along exactly one axis and overlap with
    positive area in the others.
    """
    n = b1.n
    touch_axis = None
    for a in range(n):
        lo1, hi1 = b1.interval(a)
        lo2, hi2 = b2.interval(a)
        if hi1 == lo2 or hi2 == lo1:
            if touch_axis is not None:
                return None
            touch_axis = a
        elif min(hi1, hi2) <= max(lo1, lo2):
            return None
    if touch_axis is None:
        return None
    rect = []
    lengths = []
    for a in range(n):
        if a == touch_axis:
            continue
        lo = max(b1.corner[a], b2.corner[a])
        hi = min(b1.corner[a] + b1.side, b2.corner[a] + b2.side)
        if hi <= lo:
            return None
        rect.append(lo)
        lengths.append(hi - lo)
    coord = b1.interval(touch_axis)[1] if b1.interval(touch_axis)[1] == b2.interval(touch_axis)[0] \
        else b1.interval(touch_axis)[0]
    return touch_axis, coord, tuple(rect), tuple(lengths)


def boxes_interior_disjoint(b1, b2):
    return any(min(b1.interval(a)[1], b2.interval(a)[1]) <=
               max(b1.interval(a)[0], b2.interval(a)[0])
               for a in range(b1.n))


def boxes_touch(b1, b2):
    """Closed boxes intersect (possibly only in a face, edge, or corner)."""
    return all(max(b1.interval(a)[0], b2.interval(a)[0]) <=
               min(b1.interval(a)[1], b2.interval(a)[1])
               for a in range(b1.n))


@dataclass
class Atom:
    """A tree of equal-side blocks; |A| is asserted to be a cell."""

    blocks: list

    def __post_init__(self):
        sides = {b.side for b in self.blocks}
        if len(sides) != 1:
            raise BadAttachment(f"atom blocks with mixed sides {sides}")
        self.side = sides.pop()

    def tree(self):
        g = nx.Graph()
        g.add_nodes_from(range(len(self.blocks)))
        for i, j in itertools.combinations(range(len(self.blocks)), 2):
            c = blocks_contact(self.blocks[i], self.blocks[j])
            if c is not None and c[3] == (self.side,) * (self.blocks[i].n - 1):
                g.add_edge(i, j)
        return g

    def validate(self):
        for i, j in itertools.combinations(range(len(self.blocks)), 2):
            if not boxes_interior_disjoint(self.blocks[i], self.blocks[j]):
                raise BadAttachment("atom blocks overlap")
        g = self.tree()
        if not (nx.is_connected(g) and
                g.number_of_edges() == g.number_of_nodes() - 1):
            raise NotATree("atom adjacency graph is not a tree")


@dataclass
class Molecule:
    """Atoms at mixed refinement indices glued along faces, tree-ordered."""

    n: int
    atoms: list          # list of Atom
    indices: list        # rho per atom; block side must be 3^rho
    leading: tuple = None  # optional ((atom, block), (axis, side)) designation

    # filled by validate()
    blocks: list = field(default_factory=list)      # (atom_idx, block_idx) in order
    parent: dict = field(default_factory=dict)      # block key -> block key or None
    children: dict = field(default_factory=dict)
    leading_face: dict = field(default_factory=dict)  # block key -> Face
    attach: dict = field(default_factory=dict)      # child atom idx -> (parent block key, Face)

    def block(self, key):
        a, b = key
        return self.atoms[a].blocks[b]

    def rho(self, atom_idx):
        return self.indices[atom_idx]

    def ell(self):
        return max(len(a.blocks) for a in self.atoms)

    def varrho(self):
        return max(self.indices)

    def all_block_keys(self):
        return [(a, b) for a, atom in enumerate(self.atoms)
                for b in range(len(atom.blocks))]

    # -- validation -------------------------------------------------------------

    def validate(self):
        for a, atom in enumerate(self.atoms):
            atom.validate()
            if atom.side != 3 ** self.indices[a]:
                raise BadAttachment(
                    f"atom {a} side {atom.side} != 3^{self.indices[a]}")
        keys = self.all_block_keys()
        for k1, k2 in itertools.combinations(keys, 2):
            if not boxes_interior_disjoint(self.block(k1), self.block(k2)):
                raise BadAttachment("atoms overlap")

        # cross-atom contacts: distinct indices, full smaller face, 3-adic
        g = nx.Graph()
        g.add_nodes_from(keys)
        atom_contacts = {}
        for k1, k2 in itertools.combinations(keys, 2):
            b1, b2 = self.block(k1), self.block(k2)
            c = blocks_contact(b1, b2)
            if c is None:
                continue
            axis, coord, rect, lengths = c
            if k1[0] == k2[0]:
                if lengths == (b1.side,) * (self.n - 1):
                    g.add_edge(k1, k2)
                continue
            small, big = (k1, k2) if b1.side < b2.side else (k2, k1)
            if self.block(small).side == self.block(big).side:
                raise BadAttachment(
                    f"atoms {k1[0]} and {k2[0]} meet with equal index")
            sb = self.block(small)
            if lengths != (sb.side,) * (self.n - 1):
                raise BadAttachment(
                    "attachment is not a full face of the finer atom")
            if any((rect[i] - _drop_axis(self.block(big).corner, axis)[i])
                   % sb.side for i in range(self.n - 1)):
                raise BadAttachment("attachment not 3-adically aligned")
            if self.rho(small[0]) > self.rho(big[0]):
                raise BadAttachment(
                    "smaller blocks carry the larger refinement index")
            pair = (min(k1[0], k2[0]), max(k1[0], k2[0]))
            atom_contacts.setdefault(pair, []).append((small, big))
            g.add_edge(k1, k2)

        if not (nx.is_connected(g) and
                g.number_of_edges() == g.number_of_nodes() - 1):
            raise NotATree("cube adjacency graph of the molecule is not a tree")

        # condition (4): at most one other atom meets a given face
        per_face = {}
        for pair, contacts in atom_contacts.items():
            for small, big in contacts:
                c = blocks_contact(self.block(small), self.block(big))
                fkey = (big, c[0], c[1])
                if fkey in per_face and per_face[fkey] != small[0]:
                    raise BadAttachment(
                        f"two atoms attached to one face of block {big}")
                per_face[fkey] = small[0]

        # unique atom of largest index
        top = max(self.indices)
        maxima = [a for a, r in enumerate(self.indices) if r == top]
        if len(maxima) != 1:
            raise DuplicateMaxAtom(f"atoms {maxima} share the largest index")
        lead_atom = maxima[0]

        # leading cube and face: a block of the leading atom with a fully
        # exterior face; lexicographically smallest unless designated
        if self.leading is None:
            choice = None
            for b in range(len(self.atoms[lead_atom].blocks)):
                key = (lead_atom, b)
                for axis in range(self.n):
                    for side in (0, 1):
                        f = self.block(key).face(axis, side)
                        if self._exterior_area(key, f) == f.area():
                            cand = (self.block(key).corner, axis, side, key)
                            if choice is None or cand < choice:
                                choice = cand
            if choice is None:
                raise BadAttachment("leading atom has no exterior face")
            _, axis, side, key = choice
            self.leading = (key, (axis, side))
        lead_key, (axis, side) = self.leading
        if lead_key[0] != lead_atom:
            raise BadAttachment("designated leading cube not in the max atom")
        root_face = self.block(lead_key).face(axis, side)
        if self._exterior_area(lead_key, root_face) != root_face.area():
            raise BadAttachment("designated leading face is not on the boundary")

        # orient the tree toward the leading cube
        self.blocks = keys
        self.parent = {k: None for k in keys}
        self.children = {k: [] for k in keys}
        for u, v in nx.bfs_edges(g, lead_key):
            self.parent[v] = u
            self.children[u].append(v)
        self.leading_face = {lead_key: root_face}
        for k in keys:
            p = self.parent[k]
            if p is None:
                continue
            c = blocks_contact(self.block(k), self.block(p))
            axis, coord, rect, lengths = c
            small = k if self.block(k).side <= self.block(p).side else p
            f = Face(axis, coord, rect, self.block(small).side)
            if small is not k:
                raise BadAttachment(
                    "tree parent has a smaller block than its child")
            self.leading_face[k] = f
            if k[0] != p[0]:
                self.attach[k[0]] = (p, f)
        return self

    def _other_blocks(self, key):
        return [k for k in self.all_block_keys() if k != key]

    def _face_overlaps(self, key, face):
        """Contact rectangles of other blocks lying inside `face`."""
        out = []
        for k in self._other_blocks(key):
            c = blocks_contact(self.block(key), self.block(k))
            if c is None:
                continue
            axis, coord, rect, lengths = c
            if (axis, coord) == (face.axis, face.coord):
                out.append((k, rect, lengths))
        return out

    def _exterior_area(self, key, face):
        covered = sum(math.prod(lengths)
                      for _, _, lengths in self._face_overlaps(key, face))
        return face.area() - covered

    # -- derived structure ----------------------------------------------------------

    def tail(self, key):
        """Block keys of the tail complex tau_M(Q): Q and everything below."""
        out = [key]
        stack = [key]
        while stack:
            k = stack.pop()
            for c in self.children[k]:
                out.append(c)
                stack.append(c)
        return out

    def depth(self, key):
        d = 0
        while self.parent[key] is not None:
            key = self.parent[key]
            d += 1
        return d

    def face_classification(self, key):
        """leading / exterior / back faces of the first and second kind."""
        out = {}
        lead = self.leading_face[key]
        child_faces = {}
        for c in self.children[key]:
            cf = self.leading_face[c]
            child_faces.setdefault((cf.axis, cf.coord), []).append(c)
        for f in self.block(key).faces():
            fk = (f.axis, f.coord)
            if (f.axis, f.coord, f.rect) == (lead.axis, lead.coord, lead.rect) \
                    and f.side == lead.side:
                out[fk] = "leading"
            elif fk in child_faces:
                kinds = {("first" if c[0] == key[0] else "second")
                         for c in child_faces[fk]}
                out[fk] = ("back-first-kind" if kinds == {"first"}
                           else "back-second-kind")
            elif self._exterior_area(key, f) == f.area():
                out[fk] = "exterior"
            else:
                out[fk] = "back-second-kind" if self._face_overlaps(key, f) \
                    else "exterior"
        return out

    # -- counting -----------------------------------------------------------------

    def boundary_area(self, keys=None):
        keys = keys or self.all_block_keys()
        total = 0
        for k in keys:
            for f in self.block(k).faces():
                total += self._exterior_area(k, f)
        return total

    def tail_boundary_area_minus_leading(self, key):
        """Unit-cell count of the region  boundary(|tau(Q)|) minus q+_Q."""
        keys = set(self.tail(key))
        surface = sum(2 * self.n * self.block(k).side ** (self.n - 1)
                      for k in keys)
        contacts = 0
        for k1, k2 in itertools.combinations(sorted(keys), 2):
            c = blocks_contact(self.block(k1), self.block(k2))
            if c is not None:
                contacts += math.prod(c[3])
        lead = self.leading_face[key]
        return surface - 2 * contacts - lead.area()

    def delta_count(self, area):
        """(n-1)-simplices of the canonical triangulation over `area` unit cells."""
        return area * flag_count(self.n - 1)


def _drop_axis(t, axis):
    return tuple(x for a, x in enumerate(t) if a != axis)


def molecule_to_json(M):
    """Serialize a molecule: atom cube lists, indices, leading designation."""
    return {
        "n": M.n,
        "atoms": [[[list(b.corner), b.side] for b in atom.blocks]
                  for atom in M.atoms],
        "indices": list(M.indices),
        "leading": [list(M.leading[0]), list(M.leading[1])]
        if M.leading else None,
        "attachments": {str(a): {"parent_block": list(pk),
                                 "face": [f.axis, f.coord, list(f.rect), f.side]}
                        for a, (pk, f) in M.attach.items()},
    }


def molecule_from_json(data):
    leading = None
    if data.get("leading"):
        leading = (tuple(data["leading"][0]), tuple(data["leading"][1]))
    return build_molecule(
        data["n"],
        [[(tuple(c), s) for c, s in atom] for atom in data["atoms"]],
        data["indices"], leading)


def build_molecule(n, atom_blocks, indices, leading=None):
    """Validate atoms + refinement indices into a Molecule.

    `atom_blocks`: per atom, a list of (corner, side) lattice cubes; gluing
    is implied by the geometry.  Raises DuplicateMaxAtom / BadAttachment /
    NotATree per the molecule conditions.
    """
    atoms = [Atom([Block(tuple(c), s) for c, s in blocks])
             for blocks in atom_blocks]
    M = Molecule(n, atoms, list(indices), leading)
    return M.validate()


def level_function(M):
    """The level lambda on center cubes of leading faces, plus the boundary.

    Rules: lambda(boundary) = 0; the leading cube of atom A sits at level
    rho(A); descending within an atom drops the level by 1/ell.  Values are
    exact Fractions; uniqueness follows from the tree structure.
    """
    ell = M.ell()
    lam = {"boundary": Fraction(0)}
    atom_lead = {}
    for k in M.blocks:
        p = M.parent[k]
        if p is None or p[0] != k[0]:
            atom_lead[k[0]] = k

    def assign(key):
        if key in lam:
            return lam[key]
        if atom_lead[key[0]] == key:
            lam[key] = Fraction(M.rho(key[0]))
        else:
            lam[key] = assign(M.parent[key]) - Fraction(1, ell)
        return lam[key]

    for k in M.blocks:
        assign(k)
    return lam


def level_function_from_leaves(M):
    """Recompute lambda upward from the leaves; must agree with level_function."""
    ell = M.ell()
    lam = {"boundary": Fraction(0)}
    order = sorted(M.blocks, key=M.depth, reverse=True)
    for k in order:
        below = [c for c in M.children[k] if c[0] == k[0]]
        vals = {lam[c] + Fraction(1, ell) for c in below
                if lam.get(c) is not None}
        is_lead = M.parent[k] is None or M.parent[k][0] != k[0]
        if is_lead:
            lam[k] = Fraction(M.rho(k[0]))
        elif vals:
            if len(vals) != 1:
                raise NotATree("inconsistent leaf recomputation")
            lam[k] = vals.pop()
        else:
            lam[k] = None  # leaf inside an atom: value forced from above
    # fill leaves from parents
    for k in sorted(M.blocks, key=M.depth):
        if lam.get(k) is None:
            lam[k] = lam[M.parent[k]] - Fraction(1, ell)
    return lam


def expansion_index(M, key):
    """nu(q+_Q): Alexander-degree difference across the tail of Q."""
    if key not in set(M.all_block_keys()):
        raise CubeNotInMolecule(str(key))
    out_area = M.tail_boundary_area_minus_leading(key)
    lead_area = M.leading_face[key].area()
    return M.delta_count(out_area) - M.delta_count(lead_area)


def expansion_identity_sides(M, key):
    """Both sides of the  #((M|_{q+})^D)^(n-1) = #((Ref(M)|_{c(q+)})^D)^(n-1)  identity."""
    lead = M.leading_face[key]
    lhs = M.delta_count(lead.area())
    # refined coordinates: the center cube of the leading face has the same
    # side, and Ref(M) unit cells are unit in the x3 lattice
    center_side = lead.side  # side of c(q+) in x3 coordinates
    rhs = center_side ** (M.n - 1) * flag_count(M.n - 1)
    return lhs, rhs


def beta_ratio(M, key):
    """#(M|_{|tau(Q)| cap boundary})^(n-1) / #(M|_{q+_Q})^(n-1)."""
    keys = M.tail(key)
    num = M.boundary_area(keys)
    den = M.leading_face[key].area()
    return Fraction(num, den)


def shift_indices(M, j):
    """The same molecule shape with every refinement index raised by j."""
    f = 3 ** j
    atom_blocks = [[(tuple(c * f for c in b.corner), b.side * f)
                    for b in atom.blocks] for atom in M.atoms]
    leading = None
    if M.leading is not None:
        leading = (M.leading[0], M.leading[1])
    return build_molecule(M.n, atom_blocks, [r + j for r in M.indices], leading)


# -- dents ---------------------------------------------------------------------------


@dataclass
class Dent:
    """A properly embedded molecule in a host block."""

    host: Block
    molecule: Molecule

    def validate(self):
        M = self.molecule
        if not all(self.host.contains_box(M.block(k)) for k in M.blocks):
            raise BadAttachment("dent leaves its host cube")
        host_faces = {(f.axis, f.coord) for f in self.host.faces()}
        lead_key, (axis, side) = M.leading
        qplus = M.leading_face[lead_key]
        if (qplus.axis, qplus.coord) not in host_faces:
            raise BadAttachment("leading face of the dent is not on the host boundary")
        for k in M.blocks:
            b = M.block(k)
            if b.side >= self.host.side:
                raise BadAttachment("dent blocks as large as the host")
            if any((b.corner[a] - self.host.corner[a]) % b.side
                   for a in range(M.n)):
                raise BadAttachment("dent not in an iterated refinement of the host")
            on_boundary = [f for f in b.faces()
                           if (f.axis, f.coord) in host_faces]
            allowed = (1, 2) if k == lead_key else (1,)
            if len(on_boundary) not in allowed:
                raise UnclassifiableFace(
                    f"dent block {k} has {len(on_boundary)} faces on the host "
                    f"boundary, wanted {allowed}")
        return self

    def base_roof_wall(self):
        """Classify every boundary (n-1)-face of the dent.

        Returns {"base": [...], "roof": [...], "wall": [...], "leading": Face}
        with faces as (block key, Face) pairs.
        """
        M = self.molecule
        host_faces = {(f.axis, f.coord) for f in self.host.faces()}
        lead_key, _ = M.leading
        qplus = M.leading_face[lead_key]
        base, roof, wall = [], [], []
        for k in M.blocks:
            b = M.block(k)
            contacts = {}
            for k2 in M.blocks:
                if k2 == k:
                    continue
                c = blocks_contact(b, M.block(k2))
                if c is not None:
                    contacts.setdefault((c[0], c[1]), []).append(c)
            base_f = None
            for f in b.faces():
                fk = (f.axis, f.coord)
                if fk in host_faces:
                    if k == lead_key and (f.axis, f.coord, f.rect) == \
                            (qplus.axis, qplus.coord, qplus.rect):
                        continue  # the leading face
                    base.append((k, f))
                    base_f = f
            if base_f is not None:
                opp = next(f for f in b.faces()
                           if f.axis == base_f.axis and f.coord != base_f.coord)
                if (opp.axis, opp.coord) in contacts:
                    raise UnclassifiableFace(
                        f"roof of dent block {k} is covered by another block")
                roof.append((k, opp))
            elif k != lead_key:
                raise UnclassifiableFace(f"dent block {k} has no base face")
            for f in b.faces():
                fk = (f.axis, f.coord)
                if fk in host_faces:
                    continue
                if base_f is not None and f.axis == base_f.axis:
                    continue
                covered = sum(math.prod(c[3]) for c in contacts.get(fk, []))
                if covered == f.area():
                    continue  # interior contact with a neighboring dent block
                # partially covered faces contribute their free area as wall
                wall.append((k, f, f.area() - covered))
        return {"base": base, "roof": roof, "wall": wall, "leading": qplus}

    def flattening_correspondence(self):
        """Bijection from Roof u Wall cells onto a partition of Base u q+.

        Roofs map to their congruent bases; wall cells map to parallel bands
        of the leading face.  The target pieces have disjoint interiors and
        cover |Base| u q+ exactly, realizing the set-level flattening image.
        """
        cls = self.base_roof_wall()
        pairs = []
        base_by_block = {k: f for k, f in cls["base"]}
        for k, f in cls["roof"]:
            pairs.append((("roof", k, f), ("base", k, base_by_block[k])))
        walls = cls["wall"]
        q = cls["leading"]
        m = len(walls)
        for i, (k, f, free) in enumerate(sorted(walls)):
            lo = Fraction(i, m) if m else Fraction(0)
            hi = Fraction(i + 1, m) if m else Fraction(1)
            band = (q.axis, q.coord, q.rect, q.side, (lo, hi))
            pairs.append((("wall", k, f, free), ("leading-band", band)))
        return pairs


@dataclass
class DentedAtom:
    """A hull atom with at most one dent per cube."""

    hull: Atom
    dents: dict  # block index in hull -> Dent

    def validate(self):
        self.hull.validate()
        for b_idx, dent in self.dents.items():
            if dent.host != self.hull.blocks[b_idx]:
                raise BadAttachment("dent host is not the declared hull cube")
            dent.validate()
            for other_idx, other in enumerate(self.hull.blocks):
                if other_idx == b_idx:
                    continue
                for k in dent.molecule.blocks:
                    if boxes_touch(dent.molecule.block(k), other):
                        raise BadAttachment("dent meets another hull cube")
        return self


def classify_dent_faces(dented_atom):
    """Base/Roof/Wall/leading classification for every dent of a dented atom.

    Returns {hull block index: {"classes": ..., "correspondence": ...}} with
    the flattening correspondence pairing Roof u Wall onto Base u q+.
    """
    dented_atom.validate()
    out = {}
    for b_idx, dent in dented_atom.dents.items():
        out[b_idx] = {
            "classes": dent.base_roof_wall(),
            "correspondence": dent.flattening_correspondence(),
        }
    return out


def place_ledger_covers(ledger, scheme, cube_key):
    """Attach placement slots to every cover of a reduction ledger.

    Covers land on distinct slots of the scheme's template for `cube_key`;
    each ledger step gets its `placements` list filled in.
    """
    for step in ledger.steps:
        slots = [scheme.occupy(cube_key) for _ in range(step.covers)]
        step.placements = [{"cube": cube_key, "slot": s} for s in slots]
    return ledger


@dataclass
class DentedMolecule:
    """Dented atoms with a partial order; conditions checked at the box level.

    A lower atom must sit inside one dent cavity of its successor, with at
    most one lower atom per dent cube, and the unique maximal dented atom
    must expose a full hull face on the outer boundary.
    """

    n: int
    dented_atoms: list   # DentedAtom
    order: list          # pairs (i, j) meaning atom i << atom j

    def validate(self):
        for d in self.dented_atoms:
            d.validate()
        g = nx.DiGraph(self.order)
        g.add_nodes_from(range(len(self.dented_atoms)))
        if not nx.is_directed_acyclic_graph(g):
            raise NotATree("dented molecule order has cycles")
        maxima = [i for i in g.nodes if g.out_degree(i) == 0]
        if len(maxima) != 1:
            raise DuplicateMaxAtom(f"dented atoms {maxima} are all maximal")

        # (1)+(2): each lower atom lies in exactly one dent cavity of its
        # successor, and no dent cube hosts two lower atoms
        used_dent_cubes = {}
        for i, j in self.order:
            lower = self.dented_atoms[i]
            upper = self.dented_atoms[j]
            homes = []
            for b_idx, dent in upper.dents.items():
                cavity = dent.molecule
                if all(any(cavity.block(k).contains_box(hb)
                           for k in cavity.blocks)
                       for hb in lower.hull.blocks):
                    homes.append(b_idx)
            if len(homes) != 1:
                raise BadAttachment(
                    f"dented atom {i} fits {len(homes)} dent cavities of {j}")
            key = (j, homes[0])
            if key in used_dent_cubes:
                raise BadAttachment(
                    f"dent cube {key} hosts dented atoms "
                    f"{used_dent_cubes[key]} and {i}")
            used_dent_cubes[key] = i

        # (3): the maximal atom's hull exposes a full face on the boundary
        top = self.dented_atoms[maxima[0]]
        all_blocks = [b for d in self.dented_atoms for b in d.hull.blocks]
        exposed = False
        for hb in top.hull.blocks:
            for f in hb.faces():
                covered = 0
                for other in all_blocks:
                    if other == hb:
                        continue
                    c = blocks_contact(hb, other)
                    if c is not None and (c[0], c[1]) == (f.axis, f.coord):
                        covered += math.prod(c[3])
                if covered == 0:
                    exposed = True
        if not exposed:
            raise BadAttachment("maximal dented atom has no boundary face")
        return self


# -- simple-cover placement -------------------------------------------------------------


@dataclass
class PlacementScheme:
    """Template of mu ball slots per (n-1)-cube for properly located covers."""

    n: int
    ell: int
    mu: int = None
    occupied: dict = field(default_factory=dict)

    def __post_init__(self):
        base = self.n * 3 ** (self.n - 1) * self.ell
        if self.mu is None:
            self.mu = 10 * base
        if self.mu % base:
            raise BadAttachment(
                f"mu = {self.mu} is not a multiple of n 3^(n-1) ell = {base}")
        self.c0 = self.mu ** (-1.0 / (self.n - 1)) / 10.0
        d = self.n - 1
        g = math.ceil(self.mu ** (1.0 / d))
        pts = []
        for idx in itertools.product(range(g), repeat=d):
            if len(pts) == self.mu:
                break
            pts.append(tuple(0.1 + 0.8 * i / max(g - 1, 1) for i in idx))
        self.slots = pts
        spacing = 0.8 / max(g - 1, 1)
        if spacing <= self.c0:
            raise BadAttachment("slot spacing below c0")

    def occupy(self, cube_key):
        used = {s for (c, s) in self.occupied if c == cube_key}
        for s in range(self.mu):
            if s not in used:
                self.occupied[(cube_key, s)] = True
                return s
        raise BadAttachment(f"no free slot in cube {cube_key}")


def simulate_placement_game(n, rho, mu=None, covers_per_strip=None):
    """Token game for the two rearrangement moves of the one-cube extension.

    The base is the fixed (n-1)-dimensional 3^rho grid; each step every token
    moves one buffer ring inward and the outermost ring absorbs the influx of
    freshly created covers from the side band.  Returns a report with the
    maximum per-cube occupancy; the scheme works iff it never exceeds mu.
    """
    d = n - 1
    L = 3 ** rho
    scheme = PlacementScheme(n, 1, mu)
    mu = scheme.mu
    if covers_per_strip is None:
        covers_per_strip = 2 * (n - 1)
    occ = {}

    def ring(cell):
        return min(min(c, L - 1 - c) for c in cell)

    max_occ = 0
    overflow = False
    steps = 3 ** (rho - 1)
    for step in range(steps):
        # first rearrangement: every occupied cube sends its tokens inward
        new_occ = {}
        for cell, count in occ.items():
            r = ring(cell)
            targets = []
            for a in range(d):
                for dv in (-1, 1):
                    t = list(cell)
                    t[a] += dv
                    t = tuple(t)
                    if all(0 <= x < L for x in t) and ring(t) == r + 1:
                        targets.append(t)
            if not targets:
                targets = [cell]  # center reached; stay
            t = min(targets, key=lambda x: new_occ.get(x, 0))
            new_occ[t] = new_occ.get(t, 0) + count
        occ = new_occ
        # second rearrangement: side-band influx into the outermost ring
        for cell in itertools.product(range(L), repeat=d):
            if ring(cell) == 0:
                occ[cell] = occ.get(cell, 0) + covers_per_strip
        m = max(occ.values(), default=0)
        max_occ = max(max_occ, m)
        if m > mu:
            overflow = True
    return {"n": n, "rho": rho, "mu": mu, "covers_per_strip": covers_per_strip,
            "max_occupancy": max_occ, "overflow": overflow,
            "steps": steps}


# -- separating complexes ------------------------------------------------------------------


@dataclass
class SeparatingComplex:
    complex: Complex
    facet_ids: list      # (n-1)-cells of Z, ids in the ambient complex
    pieces: list         # lists of top-cube ids
    neighborhood: list   # top-cube ids meeting |Z|

    def piece_count(self):
        return len(self.pieces)


def boundary_components(K):
    """Connected components of the boundary (n-1)-complex, as facet id lists."""
    g = K.adjacency_graph(K.boundary_facet_ids())
    return [sorted(c) for c in nx.connected_components(g)]


def find_separating_complex(K, collars=None):
    """Construct a separating complex from disjoint boundary collars.

    `collars`: optional list of top-cube id lists, one per boundary
    component; detected as the cubes meeting each component when omitted.
    Condition (3) of the definition is checked by proxy: each piece is
    connected, contains exactly one boundary component, and peels cube by
    cube onto its collar.  The proxy is necessary but not sufficient.
    """
    comps = boundary_components(K)
    m = len(comps)
    comp_verts = [{v for i in c for v in K.cell(i).verts} for c in comps]
    if collars is None:
        collars = []
        for verts in comp_verts:
            collars.append([i for i in K.top_ids()
                            if set(K.cell(i).verts) & verts])
    for (a, ca), (b, cb) in itertools.combinations(enumerate(collars), 2):
        if set(ca) & set(cb):
            raise NoDisjointCollars(f"collars {a} and {b} share cubes")
        va = {v for i in ca for v in K.cell(i).verts}
        vb = {v for i in cb for v in K.cell(i).verts}
        if va & vb:
            raise NoDisjointCollars(f"collars {a} and {b} touch")

    in_collar = {i for c in collars for i in c}
    kprime = [i for i in K.top_ids() if i not in in_collar]
    if not kprime:
        raise NoDisjointCollars("no complex left outside the collars")

    g = K.adjacency_graph(kprime)
    if not nx.is_connected(g):
        raise NoDisjointCollars("complex outside the collars is disconnected")
    tree = nx.minimum_spanning_tree(g)
    tree_facets = {g.edges[e]["shared"] for e in tree.edges}

    # q1: a common facet between K' and the first collar
    q1 = next((f for i in kprime for f in K.shared_facets(i, collars[0])),
              None)
    if q1 is None:
        raise NoDisjointCollars("no passage from K' to the first collar")

    # (n-1)-skeleton of K': faces of K'-cubes
    z_facets = set()
    for i in kprime:
        z_facets.update(K.facet_ids(i))
    z_facets -= tree_facets
    z_facets.discard(q1)
    z_facets = sorted(z_facets)

    # pieces: components of |K| minus |Z|
    h = K.adjacency_graph()
    zset = set(z_facets)
    h.remove_edges_from([(a, b) for a, b, f in h.edges(data="shared")
                         if f in zset])
    pieces = [sorted(c) for c in nx.connected_components(h)]

    # each piece must own exactly one boundary component
    piece_of_comp = []
    for verts in comp_verts:
        owners = [p for p, piece in enumerate(pieces)
                  if any(set(K.cell(i).verts) & verts for i in piece)]
        if len(owners) != 1:
            raise NoDisjointCollars("a boundary component meets several pieces")
        piece_of_comp.append(owners[0])
    if len(pieces) != m or sorted(piece_of_comp) != list(range(m)):
        raise NoDisjointCollars(
            f"{len(pieces)} pieces for {m} boundary components")

    # peeling proxy for condition (3)
    for idx, piece in enumerate(pieces):
        comp_idx = piece_of_comp.index(idx)
        collar = set(collars[comp_idx])
        remaining = set(piece) - collar
        changed = True
        while remaining and changed:
            changed = False
            for i in sorted(remaining):
                if len(K.shared_facets(i, remaining)) < len(K.facet_ids(i)):
                    remaining.discard(i)
                    changed = True
                    break
        if remaining:
            raise NoDisjointCollars(f"piece {idx} does not peel onto its collar")

    neighborhood = sorted({j for f in z_facets for j in K.coface_ids(f)})
    return SeparatingComplex(K, z_facets, pieces, neighborhood)


# -- simplex-to-cubes subdivision --------------------------------------------------------------


def simplex_to_cubes(n):
    """Cubical complex on the barycentric subdivision of the n-simplex.

    One combinatorial n-cube per vertex star; the cube at vertex i has the
    barycenters b_S with i in S as its corners.  Coordinates are the exact
    barycenters (vertex j = e_j, vertex 0 = origin).
    """
    if n < 1:
        raise NotCubical("n >= 1 required")
    labels = list(range(n + 1))
    subsets = []
    for r in range(1, n + 2):
        subsets.extend(itertools.combinations(labels, r))
    vid = {s: i for i, s in enumerate(subsets)}

    def barycenter(s):
        pts = []
        for j in s:
            pts.append(tuple(0.0 for _ in range(n)) if j == 0
                       else tuple(1.0 if a == j - 1 else 0.0 for a in range(n)))
        return tuple(sum(p[a] for p in pts) / len(s) for a in range(n))

    verts = {vid[s]: barycenter(s) for s in subsets}
    cubes = []
    for i in labels:
        others = [j for j in labels if j != i]
        order = []
        for t in range(2 ** n):
            s = tuple(sorted([i] + [others[a] for a in range(n) if (t >> a) & 1]))
            order.append(vid[s])
        cubes.append((n, order, CUBE))
    K = build_complex(n, CUBICAL, verts, cubes)
    K.vertex_cube_dim.update({vid[s]: len(s) - 1 for s in subsets})
    return K


def simplex_cover_counts(n):
    """Per top cube, the barycentric n-simplices (chains) covering it."""
    K = simplex_to_cubes(n)
    # a chain S_0 c S_1 c ... c S_n with |S_k| = k+1 covers the cube of the
    # singleton S_0; count chains per cube
    labels = list(range(n + 1))
    counts = {i: 0 for i in labels}

    def chains(s):
        if len(s) == n + 1:
            return 1
        total = 0
        for j in labels:
            if j not in s:
                total += chains(tuple(sorted(s + (j,))))
        return total

    for i in labels:
        counts[i] = chains((i,))
    return counts
