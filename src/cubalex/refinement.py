"""1/3-refinements, molecules, and separating complexes.

Molecules live on the integer lattice: an atom with refinement index rho is a
tree of blocks of side 3^rho, and the molecule's unit cells are the fully
refined lattice cells, so all cell counting is exact integer arithmetic.
Refining a complex multiplies coordinates by three, matching the metric
convention that the identity map scales distances by 3^k.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction

from .complex_core import CUBE, CUBICAL, Complex, build_complex, spanning_forest
from .errors import (
    BadAttachment,
    CubeNotInMolecule,
    DuplicateMaxAtom,
    NoDisjointCollars,
    NotATree,
    NotCubical,
    ParamsInvalid,
    check_count,
    json_fields,
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

    complex: Complex
    provenance: dict  # refined top id -> base top id


def refine(K, k=1):
    """Subdivide every n-cube into 3^(nk) congruent subcubes.

    Coordinates are multiplied by 3^k so that subcubes sit on the integer
    lattice; the identity on spaces is a similarity scaling by 3^k.
    ParamsInvalid unless k is an integer >= 0.
    """
    check_count("k", k, 0)
    if K.mode != CUBICAL:
        raise NotCubical("refine needs a cubical complex")
    if k == 0:
        return RefinedComplex(K, {i: i for i in K.top_ids()})
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
        for offset in itertools.product(range(f), repeat=n):
            c0 = tuple(corner[a] * f + offset[a] * side for a in range(n))
            vs = [vid(tuple(c0[a] + ((t >> a) & 1) * side for a in range(n)))
                  for t in range(2 ** n)]
            cells.append((n, vs, CUBE))
            prov_order.append(i)
    verts = {j: pos for pos, j in ids.items()}
    R = build_complex(n, CUBICAL, verts, cells)
    # build_complex may reorder; recover provenance through vertex sets
    lookup = {tuple(sorted(vs)): i for (_, vs, _), i in zip(cells, prov_order)}
    prov = {i: lookup[R.cell(i).verts] for i in R.top_ids()}
    return RefinedComplex(R, prov)


# -- boxes and molecules -------------------------------------------------------------


@dataclass(frozen=True)
class Block:
    """Axis-aligned lattice cube [corner, corner + side]^n."""

    corner: tuple
    side: int

    @property
    def n(self):
        return len(self.corner)

    def face(self, axis, side):
        """(axis, coordinate, rect corner, rect side) of one (n-1)-face."""
        coord = self.corner[axis] + (self.side if side else 0)
        rect = tuple(c for a, c in enumerate(self.corner) if a != axis)
        return Face(axis, coord, rect, self.side)


@dataclass(frozen=True)
class Face:
    """An axis-aligned (n-1)-cube: hyperplane slot plus square cross-section."""

    axis: int
    coord: int
    rect: tuple   # corner in the n-1 remaining axes, in their natural order
    side: int

    def area(self):
        return self.side ** len(self.rect)


def _overlap(b1, b2):
    """Per axis, the (lo, hi) of the two blocks' intervals intersected:
    hi < lo apart, hi == lo touching, hi > lo overlapping."""
    return [(max(c1, c2), min(c1 + b1.side, c2 + b2.side))
            for c1, c2 in zip(b1.corner, b2.corner)]


def blocks_contact(b1, b2):
    """Face contact between two blocks, or None.

    Returns (axis, coord, rect corner, rect side lengths tuple) of the shared
    (n-1)-box when the blocks abut along exactly one axis and overlap with
    positive area in the others.
    """
    spans = _overlap(b1, b2)
    touching = [a for a, (lo, hi) in enumerate(spans) if lo == hi]
    if len(touching) != 1 or any(hi < lo for lo, hi in spans):
        return None
    axis = touching[0]
    rest = spans[:axis] + spans[axis + 1:]
    return (axis, spans[axis][0], tuple(lo for lo, _ in rest),
            tuple(hi - lo for lo, hi in rest))


def boxes_interior_disjoint(b1, b2):
    return any(hi <= lo for lo, hi in _overlap(b1, b2))


def _contacts(blocks):
    """The contact table of a {key: Block} mapping, each pair tested once.

    Maps every key to [(other key, axis, coord, rect, lengths)], the other
    keys in key order.
    """
    table = {k: [] for k in blocks}
    for (k1, b1), (k2, b2) in itertools.combinations(blocks.items(), 2):
        c = blocks_contact(b1, b2)
        if c is not None:
            table[k1].append((k2, *c))
            table[k2].append((k1, *c))
    return table


def _is_tree(nodes, edges):
    """Do the edges (distinct pairs) make a tree on the nodes?"""
    comps, tree = spanning_forest(nodes, edges)
    return len(comps) == 1 and len(tree) == len(edges)


def _check_atom(blocks, contacts):
    """One atom's {key: Block}: interiors disjoint, full-face contacts a tree."""
    if not all(boxes_interior_disjoint(b1, b2)
               for b1, b2 in itertools.combinations(blocks.values(), 2)):
        raise BadAttachment("atom blocks overlap")
    b = next(iter(blocks.values()))
    full = (b.side,) * (b.n - 1)
    edges = [(k1, k2) for k1 in blocks
             for k2, *_, lengths in contacts[k1]
             if k1 < k2 and k2 in blocks and lengths == full]
    if not _is_tree(list(blocks), edges):
        raise NotATree("atom adjacency graph is not a tree")


@dataclass
class Atom:
    """A tree of equal-side blocks; |A| is asserted to be a cell."""

    blocks: list

    def __post_init__(self):
        sides = {b.side for b in self.blocks}
        if len(sides) != 1:
            raise BadAttachment(f"atom blocks with mixed sides {sides}")
        self.side = sides.pop()


@dataclass
class Molecule:
    """Atoms at mixed refinement indices glued along faces, tree-ordered."""

    n: int
    atoms: list          # list of Atom
    indices: list        # rho per atom; block side must be 3^rho
    leading: tuple = None  # optional ((atom, block), (axis, side)) designation

    # filled by validate()
    blocks: list = field(init=False)      # (atom_idx, block_idx) in order
    parent: dict = field(init=False)      # block key -> block key or None
    children: dict = field(init=False)
    leading_face: dict = field(init=False)  # block key -> Face
    attach: dict = field(init=False)      # child atom idx -> (parent block key, Face)
    # block key -> [(other key, axis, coord, rect, lengths)], from _contacts
    contacts: dict = field(init=False)

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
        # malformed input is rejected before any geometry
        if len(self.indices) != len(self.atoms):
            raise BadAttachment(
                f"{len(self.indices)} indices for {len(self.atoms)} atoms")
        if not all(isinstance(i, int) for i in self.indices):
            raise BadAttachment(f"indices {self.indices} are not all integers")
        if any(len(b.corner) != self.n for atom in self.atoms
               for b in atom.blocks):
            raise BadAttachment(f"a block corner has not {self.n} coordinates")
        if self.leading is not None:
            bad = BadAttachment(
                f"designated leading {self.leading} is not a block face")
            try:
                (a, b), (axis, side) = self.leading
            except (TypeError, ValueError):
                raise bad from None
            if not (all(isinstance(v, int) for v in (a, b, axis, side))
                    and 0 <= a < len(self.atoms)
                    and 0 <= b < len(self.atoms[a].blocks)
                    and 0 <= axis < self.n and side in (0, 1)):
                raise bad
            self.leading = ((a, b), (axis, side))
        keys = self.all_block_keys()
        self.contacts = _contacts({k: self.block(k) for k in keys})
        for a, atom in enumerate(self.atoms):
            _check_atom({(a, b): blk for b, blk in enumerate(atom.blocks)},
                        self.contacts)
            if atom.side != 3 ** self.indices[a]:
                raise BadAttachment(
                    f"atom {a} side {atom.side} != 3^{self.indices[a]}")
        for k1, k2 in itertools.combinations(keys, 2):
            if not boxes_interior_disjoint(self.block(k1), self.block(k2)):
                raise BadAttachment("atoms overlap")

        # cross-atom contacts: distinct indices, full smaller face, 3-adic;
        # condition (4), at most one other atom meets a given face, is
        # reported after the tree check
        edges = []
        per_face = {}
        shared_face = None
        for k1 in keys:
            for k2, axis, coord, rect, lengths in self.contacts[k1]:
                if k2 < k1:
                    continue
                b1, b2 = self.block(k1), self.block(k2)
                if k1[0] == k2[0]:
                    if lengths == (b1.side,) * (self.n - 1):
                        edges.append((k1, k2))
                    continue
                small, big = (k1, k2) if b1.side < b2.side else (k2, k1)
                sb = self.block(small)
                if sb.side == self.block(big).side:
                    raise BadAttachment(
                        f"atoms {k1[0]} and {k2[0]} meet with equal index")
                if lengths != (sb.side,) * (self.n - 1):
                    raise BadAttachment(
                        "attachment is not a full face of the finer atom")
                if any((rect[i] - _drop_axis(self.block(big).corner, axis)[i])
                       % sb.side for i in range(self.n - 1)):
                    raise BadAttachment("attachment not 3-adically aligned")
                if self.rho(small[0]) > self.rho(big[0]):
                    raise BadAttachment(
                        "smaller blocks carry the larger refinement index")
                if per_face.setdefault((big, axis, coord), small[0]) \
                        != small[0] and shared_face is None:
                    shared_face = big
                edges.append((k1, k2))

        if not _is_tree(keys, edges):
            raise NotATree("cube adjacency graph of the molecule is not a tree")
        if shared_face is not None:
            raise BadAttachment(
                f"two atoms attached to one face of block {shared_face}")

        # unique atom of largest index
        top = max(self.indices)
        maxima = [a for a, r in enumerate(self.indices) if r == top]
        if len(maxima) != 1:
            raise DuplicateMaxAtom(f"atoms {maxima} share the largest index")
        lead_atom = maxima[0]

        # leading cube and face: a block of the leading atom with a fully
        # exterior face; lexicographically smallest unless designated
        if self.leading is None:
            choice = min(((blk.corner, axis, side, (lead_atom, b))
                          for b, blk in enumerate(self.atoms[lead_atom].blocks)
                          for axis in range(self.n) for side in (0, 1)
                          if self._free((lead_atom, b), blk.face(axis, side))),
                         default=None)
            if choice is None:
                raise BadAttachment("leading atom has no exterior face")
            _, axis, side, key = choice
            self.leading = (key, (axis, side))
        lead_key, (axis, side) = self.leading
        if lead_key[0] != lead_atom:
            raise BadAttachment("designated leading cube not in the max atom")
        root_face = self.block(lead_key).face(axis, side)
        if not self._free(lead_key, root_face):
            raise BadAttachment("designated leading face is not on the boundary")

        # orient the tree toward the leading cube: breadth first, each
        # block's neighbours in contact order
        self.blocks = keys
        self.parent = {k: None for k in keys}
        self.children = {k: [] for k in keys}
        nbrs = {k: [] for k in keys}
        for k1, k2 in edges:
            nbrs[k1].append(k2)
            nbrs[k2].append(k1)
        queue = deque([lead_key])
        while queue:
            u = queue.popleft()
            for v in nbrs[u]:
                if v != self.parent[u]:
                    self.parent[v] = u
                    self.children[u].append(v)
                    queue.append(v)
        self.leading_face = {lead_key: root_face}
        self.attach = {}
        for k in keys:
            p = self.parent[k]
            if p is None:
                continue
            if self.block(k).side > self.block(p).side:
                raise BadAttachment(
                    "tree parent has a smaller block than its child")
            _, axis, coord, rect, _ = next(c for c in self.contacts[k]
                                           if c[0] == p)
            f = Face(axis, coord, rect, self.block(k).side)
            self.leading_face[k] = f
            if k[0] != p[0]:
                self.attach[k[0]] = (p, f)
        return self

    def _free(self, key, face):
        """Does no other block touch this face of block `key`?"""
        return all((axis, coord) != (face.axis, face.coord)
                   for _, axis, coord, _, _ in self.contacts[key])

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

    # -- counting -----------------------------------------------------------------

    def tail_boundary_area_minus_leading(self, key):
        """Unit-cell count of the region  boundary(|tau(Q)|) minus q+_Q: each
        contact inside the tail lies on one face of each of its two blocks."""
        keys = set(self.tail(key))
        surface = sum(2 * self.n * self.block(k).side ** (self.n - 1)
                      for k in keys)
        inner = sum(math.prod(c[4]) for k in keys
                    for c in self.contacts[k] if c[0] in keys)
        return surface - inner - self.leading_face[key].area()

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
    n, atoms, indices = json_fields(data, "molecule", "n", "atoms", "indices")
    try:
        blocks = [[(tuple(c), s) for c, s in atom] for atom in atoms]
    except (TypeError, ValueError):
        raise ParamsInvalid("molecule key 'atoms' is not a list of atoms, "
                            "each a list of [corner, side] blocks") from None
    return build_molecule(n, blocks, indices, data.get("leading") or None)


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
    if key not in M.contacts:
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


# -- separating complexes ------------------------------------------------------------------


@dataclass
class SeparatingComplex:
    complex: Complex
    facet_ids: list      # (n-1)-cells of Z, ids in the ambient complex
    pieces: list         # lists of top-cube ids

    def piece_count(self):
        return len(self.pieces)


def boundary_components(K):
    """Connected components of the boundary (n-1)-complex, as facet id lists."""
    bfacets = K.boundary_facet_ids()
    return spanning_forest(bfacets, K.adjacency(bfacets))[0]


def find_separating_complex(K):
    """Construct a separating complex from disjoint boundary collars.

    The collar of a boundary component is the top cubes meeting it.
    Condition (3) of the definition is checked by proxy: each piece is
    connected, contains exactly one boundary component, and peels cube by
    cube onto its collar.  The proxy is necessary but not sufficient.
    """
    comps = boundary_components(K)
    m = len(comps)
    comp_verts = [{v for i in c for v in K.cell(i).verts} for c in comps]
    collars = [[i for i in K.top_ids() if set(K.cell(i).verts) & verts]
               for verts in comp_verts]
    # collars that share a cube share its vertices, so they touch
    for (a, ca), (b, cb) in itertools.combinations(enumerate(collars), 2):
        va = {v for i in ca for v in K.cell(i).verts}
        vb = {v for i in cb for v in K.cell(i).verts}
        if va & vb:
            raise NoDisjointCollars(f"collars {a} and {b} touch")

    in_collar = {i for c in collars for i in c}
    kprime = [i for i in K.top_ids() if i not in in_collar]
    if not kprime:
        raise NoDisjointCollars("no complex left outside the collars")

    # Kruskal on equal weights: the edges stably sorted by their first end
    comps, tree = spanning_forest(
        kprime, sorted(K.adjacency(kprime), key=lambda e: e[0]))
    if len(comps) != 1:
        raise NoDisjointCollars("complex outside the collars is disconnected")
    tree_facets = {f for _, _, f in tree}

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
    zset = set(z_facets)
    pieces, _ = spanning_forest(
        K.top_ids(), [e for e in K.adjacency() if e[2] not in zset])

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

    return SeparatingComplex(K, z_facets, pieces)
