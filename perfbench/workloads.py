"""The three benchmark workloads: seeded inputs, operations and oracles.

Each workload turns a seed into a list of operations.  An operation calls
into one or more cubalex layers inside `tracer.span(<layer>.<stage>)`,
records work counts, and returns None when its output matches the oracle or
a one-line reason when it does not.  Inputs are generated here from the
seed without calling cubalex, except that random molecules are kept only
when `build_molecule` accepts them.

- shell_reduce: many small 2-D complexes with heavy querying (facet and
  coface lookups, `cell_check`, VF2 matching); never touches `necklace`.
- build_refine: a few large complexes built once and queried little, the
  construction side of `complex_core`.
- necklace: the R^4 necklace checks at b = 0.05, m = 1700; numpy/scipy work
  that never touches `complex_core`.
"""

from __future__ import annotations

import inspect
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

from tracing import Blocked, Overrun, vf2_budget

# Free polyominoes (OEIS A000105) and those without holes (A000104), which
# are exactly the ones whose complex is a disk.
FREE_POLYOMINOES = {1: 1, 2: 1, 3: 2, 4: 5, 5: 12, 6: 35, 7: 108, 8: 369}
DISK_POLYOMINOES = {1: 1, 2: 1, 3: 2, 4: 5, 5: 12, 6: 35, 7: 107, 8: 363}

# A 16-cell disk polyomino whose star-replacement and reduced complex are
# two cones over a 44-gon.  Their Weisfeiler-Lehman hashes agree in a few
# milliseconds, but `is_isomorphic` (networkx VF2) ran past 60 s on it.  It
# is the 9th input drawn by the test suite's random_disk_polyomino with
# random.Random(42) and at most 16 cells.
CONE44 = ((-3, -2), (-3, -1), (-2, -2), (-2, -1), (-1, -2), (-1, -1), (-1, 0),
          (0, -1), (0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (2, 0), (2, 1),
          (3, 1))

# The paper's necklace parameters and the separation constants of its
# nearest pairs (min core distance over b^2), with the tolerance they are
# checked to.
NECKLACE_B, NECKLACE_M = 0.05, 1700
C0, C1, C_TOL = 0.4476797144, 0.5215990218, 1e-6
EQUIV_TOL = 1e-9
LINK_TOL = 1e-3
SCALE_TOL = 1e-12


@dataclass
class Op:
    """One timed operation: `run(tracer, state)` returns None or a reason.

    `item` names the unit whose latency is reported (by default the op
    itself); the ops of one item run back to back and their times add up.
    `deadline_s` is a wall-clock limit at several times the op's usual time,
    so that only a hang trips it.
    """

    name: str
    deadline_s: float
    run: Callable
    item: str = ""

    def __post_init__(self):
        self.item = self.item or self.name


def interleave(*groups):
    """Merge groups of units (each a list of ops run back to back) so that
    every group is spread evenly over the pass, in its own order.

    Host speed drifts over seconds; spreading each kind of operation over the
    whole pass keeps its latencies from sampling one slow moment.
    """
    keyed = [((i + 0.5) / len(g), k, i, unit)
             for k, g in enumerate(groups) for i, unit in enumerate(g)]
    keyed.sort(key=lambda t: t[:3])
    return [op for *_, unit in keyed for op in unit]


# -- input generators (no cubalex calls) ---------------------------------------------

_D4 = [lambda x, y: (x, y), lambda x, y: (-y, x), lambda x, y: (-x, -y),
       lambda x, y: (y, -x), lambda x, y: (-x, y), lambda x, y: (y, x),
       lambda x, y: (x, -y), lambda x, y: (-y, -x)]
_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))


def _canonical(cells):
    best = None
    for f in _D4:
        pts = [f(x, y) for x, y in cells]
        mx = min(x for x, _ in pts)
        my = min(y for _, y in pts)
        form = tuple(sorted((x - mx, y - my) for x, y in pts))
        if best is None or form < best:
            best = form
    return best


def free_polyominoes(max_cells):
    """{size: sorted canonical polyominoes} up to D4 symmetry."""
    levels = {1: [((0, 0),)]}
    for k in range(2, max_cells + 1):
        grown = set()
        for poly in levels[k - 1]:
            have = set(poly)
            for x, y in poly:
                for dx, dy in _STEPS:
                    c = (x + dx, y + dy)
                    if c not in have:
                        grown.add(_canonical(have | {c}))
        levels[k] = sorted(grown)
    return levels


def is_disk(cells):
    """An edge-connected polyomino is a closed disk iff it has no hole and
    no vertex where only two diagonally opposite squares meet."""
    have = set(cells)
    for x, y in have:
        for dx in (-1, 1):
            if ((x + dx, y + 1) in have and (x + dx, y) not in have
                    and (x, y + 1) not in have):
                return False
    xs = [x for x, _ in have]
    ys = [y for _, y in have]
    lo_x, hi_x, lo_y, hi_y = min(xs) - 1, max(xs) + 1, min(ys) - 1, max(ys) + 1
    empty = {(x, y) for x in range(lo_x, hi_x + 1)
             for y in range(lo_y, hi_y + 1)} - have
    seen, todo = {(lo_x, lo_y)}, [(lo_x, lo_y)]
    while todo:
        x, y = todo.pop()
        for dx, dy in _STEPS:
            c = (x + dx, y + dy)
            if c in empty and c not in seen:
                seen.add(c)
                todo.append(c)
    return len(seen) == len(empty)


def perimeter(cells):
    have = set(cells)
    return sum((x + dx, y + dy) not in have
               for x, y in have for dx, dy in _STEPS)


def random_disk_polyomino(rng, size):
    while True:
        cells = {(0, 0)}
        while len(cells) < size:
            x, y = rng.choice(sorted(cells))
            dx, dy = rng.choice(_STEPS)
            cells.add((x + dx, y + dy))
        if is_disk(cells):
            return tuple(sorted(cells))


def random_molecule_spec(rng, n=2, max_atoms=4, max_blocks=3, max_rho=3):
    """(atom blocks, indices) for a molecule grown root-first; may be invalid."""
    rho_root = rng.randint(1, max_rho)
    side = 3 ** rho_root
    blocks = [(0,) * n]
    axis = rng.randrange(n)
    for _ in range(rng.randint(1, max_blocks) - 1):
        if rng.random() < 0.3:
            axis = rng.randrange(n)
        blocks.append(tuple(c + (side if a == axis else 0)
                            for a, c in enumerate(blocks[-1])))
    atoms = [[(c, side) for c in dict.fromkeys(blocks)]]
    indices = [rho_root]
    for _ in range(rng.randint(0, max_atoms - 1)):
        parent = rng.randrange(len(atoms))
        if indices[parent] == 0:
            continue
        rho_c = rng.randint(0, indices[parent] - 1)
        side_c = 3 ** rho_c
        corner_p, side_p = atoms[parent][rng.randrange(len(atoms[parent]))]
        axis = rng.randrange(n)
        corner = [corner_p[a] + side_c * rng.randrange(side_p // side_c)
                  for a in range(n)]
        corner[axis] = (corner_p[axis] + side_p if rng.random() < 0.5
                        else corner_p[axis] - side_c)
        atoms.append([(tuple(corner), side_c)])
        indices.append(rho_c)
    return atoms, indices


def random_sketch(rng, max_pieces=30, colors=3):
    """Pieces, colors, incidences and one root per color; each color's
    incidence graph is connected."""
    count = rng.randint(colors, max_pieces)
    pieces = list(range(1, count + 1))
    color = {p: (i % colors) + 1 for i, p in enumerate(pieces)}
    groups = {}
    for p in pieces:
        groups.setdefault(color[p], []).append(p)
    incidences = []
    for group in groups.values():
        order = group[:]
        rng.shuffle(order)
        for i in range(1, len(order)):
            incidences.append((order[rng.randrange(i)], order[i],
                               f"s{len(incidences)}"))
        for _ in range(rng.randint(0, len(group)) if len(group) > 1 else 0):
            a, b = rng.sample(group, 2)
            incidences.append((a, b, f"s{len(incidences)}"))
    roots = [group[0] for group in groups.values()]
    return pieces, color, incidences, roots


# -- shell_reduce --------------------------------------------------------------------


def _shelling_op(cells_or_corners, dim):
    from cubalex import factories as fa, shelling as sh

    def run(tr, state):
        with tr.span("complex_core.build"):
            K = (fa.grid_complex(cells_or_corners) if dim == 2
                 else fa.box_complex(3, cells_or_corners))
        tr.count("complex_core.cells_built", len(K.cells()))
        tr.count("shelling.complexes")
        with tr.span("shelling.find"):
            order = sh.find_shelling(K)
        if order is None:
            return "no shelling found"
        tr.count("shelling.found")
        if sorted(order) != sorted(K.top_ids()):
            return "shelling is not a permutation of the top cells"
        with tr.span("shelling.verify"):
            ok, at = sh.verify_shelling(K, order)
        return None if ok else f"shelling rejected at position {at}"
    return run


def _reduction_op(key, cells):
    from cubalex import alexander as al, factories as fa, shelling as sh
    # the ledger total m = (#K^Delta - #K*)/2 = (8 cells - 2 perimeter)/2
    want_m = 4 * len(cells) - perimeter(cells)

    def run(tr, state):
        with tr.span("complex_core.build"):
            K = fa.grid_complex(cells)
        tr.count("complex_core.cells_built", len(K.cells()))
        with tr.span("alexander.reduce"):
            final, _, ledger = al.reduce_cubical(K)
        tr.count("alexander.reductions")
        tr.count("alexander.ledger_covers", ledger.total_covers)
        with tr.span("shelling.star_replacement"):
            m = sh.star_replacement_cover_count(K)
            S = sh.star_replacement(K)
        state[key] = (S, final)
        if not ledger.total_covers == m == want_m:
            return (f"ledger total {ledger.total_covers}, cover count {m}, "
                    f"expected {want_m}")
        return None
    return run


def _isomorphism_op(key):
    """The reduced complex of `_reduction_op(key, ...)` against K*, with a
    budget of ISO_STEP_BUDGET VF2 candidate pairs."""
    from cubalex import complex_core as cc

    def run(tr, state):
        if key not in state:
            raise Blocked(f"no reduction of {key} to compare")
        S, final = state.pop(key)
        tr.count("complex_core.isomorphism_calls")
        budget = vf2_budget(ISO_STEP_BUDGET)
        try:
            with tr.span("complex_core.isomorphism"), budget:
                iso = cc.is_isomorphic(S, final)
        except Overrun:
            tr.count("complex_core.isomorphism_overruns")
            raise
        finally:
            tr.count("complex_core.isomorphism_steps", budget.count)
        return None if iso else "reduced complex is not the star-replacement"
    return run


def _enumeration_op(max_cells, disks):
    from cubalex import factories as fa

    def run(tr, state):
        with tr.span("complex_core.build"):
            polys = fa.free_polyominoes(max_cells)
            got = {k: [p for p in v if fa.is_disk_polyomino(p)]
                   for k, v in polys.items()}
        counts = {k: len(v) for k, v in polys.items()}
        want = {k: FREE_POLYOMINOES[k] for k in counts}
        if counts != want:
            return f"free polyomino counts {counts}, expected {want}"
        if sorted(_canonical(p) for v in got.values() for p in v) != disks:
            return "disk polyominoes differ from the reference enumeration"
        return None
    return run


BOXES_3D = {
    "slab2x2x1": ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)),
    "tripod": ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)),
    "ell5": ((0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 2, 0)),
    "cube2x2x2": tuple((x, y, z) for x in (0, 1) for y in (0, 1)
                       for z in (0, 1)),
}

# Sizes of the random polyominoes: every size is drawn equally often, so
# seeds differ in shapes only.
REDUCE_SIZES = tuple(range(9, 17))
REDUCE_PER_SIZE = 2

# The exhaustive shelling sweep covers every disk polyomino up to this size;
# the enumeration and its oracle go up to ENUMERATE_MAX_CELLS.
SWEEP_MAX_CELLS = 6
ENUMERATE_MAX_CELLS = 8

# The isomorphism check of a reduction may test this many VF2 candidate
# pairs.  A budget of steps, unlike one of seconds, gives the same verdict on
# every run of the same input.  Successful checks of reductions of at most
# 16 squares test under 4,100 pairs; about a third of them search past
# 25,000 (some past 10^6), among them `cone44`.  25,000 pairs take about
# 0.2 s on a 2.1 GHz Xeon.
ISO_STEP_BUDGET = 25_000


def shell_reduce(seed, smoke=False):
    sweep_cells = 4 if smoke else SWEEP_MAX_CELLS
    max_cells = 5 if smoke else ENUMERATE_MAX_CELLS
    levels = free_polyominoes(max_cells)
    disks = sorted(p for v in levels.values() for p in v if is_disk(p))
    want = sum(DISK_POLYOMINOES[k] for k in range(1, max_cells + 1))
    if len(disks) != want:
        raise RuntimeError(f"reference enumeration found {len(disks)} disks, "
                           f"expected {want}")
    rng = random.Random(seed)
    sweep = [[Op(f"shell.{len(p)}.{i}", 2.0, _shelling_op(p, 2))]
             for i, p in enumerate(disks) if len(p) <= sweep_cells]
    boxes = [[Op(f"shell3d.{name}", 5.0, _shelling_op(corners, 3))]
             for name, corners in list(BOXES_3D.items())[:1 if smoke else None]]
    sizes = REDUCE_SIZES[:2] if smoke else REDUCE_SIZES * REDUCE_PER_SIZE
    cases = [(f"{size}.{i}", random_disk_polyomino(rng, size))
             for i, size in enumerate(sizes)]
    reduce = [[Op(f"reduce.{key}", 10.0, _reduction_op(key, cells),
                  item=f"reduce.{key}"),
               Op(f"isomorphism.{key}", 10.0, _isomorphism_op(key),
                  item=f"reduce.{key}")]
              for key, cells in cases + [("cone44", CONE44)]]
    enumerate_ = [[Op("enumerate", 20.0, _enumeration_op(max_cells, disks))]]
    return interleave(enumerate_, sweep, boxes, reduce)


# -- build_refine ----------------------------------------------------------------------


def _triangulate_op(n):
    from cubalex import complex_core as cc, factories as fa
    want = 2 ** n * math.factorial(n)

    def run(tr, state):
        with tr.span("complex_core.build"):
            K = fa.unit_cube(n)
        tr.count("complex_core.cells_built", len(K.cells()))
        with tr.span("complex_core.triangulate"):
            T = cc.canonical_triangulation(K)
        got = T.n_cells(n)
        tr.count("complex_core.simplices_out", got)
        return None if got == want else f"{got} simplices, expected {want}"
    return run


def _refine_op(n, k):
    from cubalex import factories as fa, refinement as rf
    want = 3 ** (n * k)

    def run(tr, state):
        with tr.span("complex_core.build"):
            K = fa.unit_cube(n)
        tr.count("complex_core.cells_built", len(K.cells()))
        with tr.span("refinement.refine"):
            R = rf.refine(K, k)
        got = R.complex.n_cells(n)
        tr.count("refinement.cells_out", got)
        state["refined"] = R.complex
        if got != want:
            return f"{got} cubes after refinement, expected {want}"
        if sorted(set(R.provenance.values())) != K.top_ids():
            return "refinement provenance misses a base cube"
        return None
    return run


def _json_roundtrip_op():
    """Rebuilds the complex `_refine_op` left behind from its JSON form."""
    from cubalex import complex_core as cc

    def run(tr, state):
        if "refined" not in state:
            raise Blocked("no refined complex to round-trip")
        text = json.dumps(state.pop("refined").to_json())
        with tr.span("complex_core.build"):
            back = cc.from_json(text)
        tr.count("complex_core.cells_built", len(back.cells()))
        if json.dumps(back.to_json()) != text:
            return "JSON round trip changed the complex"
        return None
    return run


def _separate_op(edges, layers):
    from cubalex import factories as fa, refinement as rf

    def run(tr, state):
        with tr.span("complex_core.build"):
            P = fa.product_with_interval(fa.circle_complex(edges), layers)
        tr.count("complex_core.cells_built", len(P.cells()))
        with tr.span("refinement.separate"):
            Z = rf.find_separating_complex(P)
            comps = rf.boundary_components(P)
        if Z.piece_count() != 2 or len(comps) != 2:
            return (f"{Z.piece_count()} pieces for {len(comps)} boundary "
                    "components, expected 2 and 2")
        return None
    return run


def _molecule_op(n, atoms, indices):
    from fractions import Fraction

    from cubalex import refinement as rf

    def run(tr, state):
        with tr.span("refinement.molecule"):
            M = rf.build_molecule(n, atoms, indices)
            down = rf.level_function(M)
            up = rf.level_function_from_leaves(M)
            sides = {k: rf.expansion_identity_sides(M, k) for k in M.blocks}
        tr.count("refinement.molecules")
        if down != up:
            return "level function differs between root and leaf passes"
        if down["boundary"] != 0:
            return "boundary level is not 0"
        step = Fraction(1, M.ell())
        for k in M.blocks:
            p = M.parent[k]
            lead = p is None or p[0] != k[0]
            if down[k] != (M.rho(k[0]) if lead else down[p] - step):
                return f"level rule broken at block {k}"
            lhs, rhs = sides[k]
            if lhs != rhs:
                return f"nu identity {lhs} != {rhs} at block {k}"
        return None
    return run


# Cases the exhaustive rank sweep checks for p = 2..6.
RANK_CASES = 180


def _rank_sweep_op():
    from cubalex import weaving as wv

    def run(tr, state):
        with tr.span("weaving.rank_sweep"):
            cases = wv.sweep_rank_identity(range(2, 7))
        tr.count("weaving.rank_cases", cases)
        return None if cases == RANK_CASES else (
            f"{cases} rank cases, expected {RANK_CASES}")
    return run


def _forest_op(pieces, colors, incidences, roots):
    from cubalex import weaving as wv

    def run(tr, state):
        with tr.span("weaving.forest"):
            trees = wv.neighborly_forest(pieces, colors, incidences, roots)
        covered = sorted(v for t in trees for v in t["nodes"])
        if covered != sorted(pieces):
            return "forest does not cover every piece exactly once"
        root_set = set(roots)
        for t in trees:
            nodes = set(t["nodes"])
            if len(nodes & root_set) != 1 or len(t["edges"]) != len(nodes) - 1:
                return f"tree at root {t['root']} is not a rooted tree"
            if any(colors[a] != colors[b] or a not in nodes or b not in nodes
                   for a, b, _ in t["edges"]):
                return f"tree at root {t['root']} has a foreign edge"
        return None
    return run


def build_refine(seed, smoke=False):
    from cubalex import refinement as rf
    from cubalex.errors import CubalexError
    rng = random.Random(seed)
    dims = (3, 4) if smoke else (3, 4, 5)
    k = 1 if smoke else 2
    large = [[Op(f"triangulate.cube{n}", 60.0, _triangulate_op(n))]
             for n in dims]
    large.append([Op(f"refine.cube3_k{k}", 20.0, _refine_op(3, k)),
                  Op("json_roundtrip", 20.0, _json_roundtrip_op(),
                     item=f"refine.cube3_k{k}")])
    large.append([Op("separate.circle6_x_3", 5.0, _separate_op(6, 3))])
    large.append([Op("rank_sweep", 5.0, _rank_sweep_op())])
    molecules = []
    while len(molecules) < (4 if smoke else 120):
        atoms, indices = random_molecule_spec(rng)
        try:
            rf.build_molecule(2, atoms, indices)
        except CubalexError:
            continue
        molecules.append([Op(f"molecule.{len(molecules)}", 1.0,
                             _molecule_op(2, atoms, indices),
                             item="molecules")])
    forests = [[Op(f"forest.{i}", 1.0, _forest_op(*random_sketch(rng)),
                   item="forests")]
               for i in range(4 if smoke else 60)]
    # Molecules and forests take well under a millisecond each, and their
    # cost depends on the seed: each kind is one item, spread over the pass.
    return interleave(large, molecules, forests)


# -- necklace --------------------------------------------------------------------------


def _default(fn, arg):
    return inspect.signature(fn).parameters[arg].default


def _disjointness_op(seed):
    from cubalex import necklace as nk

    def run(tr, state):
        params = nk.NecklaceParams(b=NECKLACE_B, m=NECKLACE_M)
        with tr.span("necklace.disjointness"):
            rep = nk.verify_disjointness(params, seed=seed, max_offset=1)
        tr.count("necklace.pairs_minimized", rep["pairs_minimized"])
        tr.count("necklace.pairs_certified", rep["pairs_certified"])
        state["c0"], state["c1"] = rep["c0"], rep["c1"]
        if abs(rep["c0"] - C0) > C_TOL or abs(rep["c1"] - C1) > C_TOL:
            return (f"c0 = {rep['c0']:.10f}, c1 = {rep['c1']:.10f}, expected "
                    f"{C0} and {C1} within {C_TOL}")
        if not rep["pass"] or rep["equivariance_error"] >= EQUIV_TOL:
            return "disjointness report does not pass"
        return None
    return run


def _linking_op(nodes):
    from cubalex import necklace as nk

    def run(tr, state):
        params = nk.NecklaceParams(b=NECKLACE_B, m=NECKLACE_M)
        with tr.span("necklace.linking"):
            rep = nk.verify_linking(params, nodes=nodes, tol=LINK_TOL)
        pairs = rep["pairs"]
        tr.count("necklace.linking_interactions",
                 len(pairs) * (nodes ** 2 + (nodes // 2) ** 2))
        for key, r in pairs.items():
            i, j = (int(s) for s in key.split(","))
            offset = min((j - i) % NECKLACE_M, (i - j) % NECKLACE_M)
            want = 1.0 if offset == 1 else 0.0
            if abs(abs(r["lk"]) - want) > LINK_TOL:
                return f"lk({key}) = {r['lk']:.6f}, expected |lk| = {want}"
        return None if len(pairs) == 7 else f"{len(pairs)} pairs, expected 7"
    return run


def _containment_op():
    from cubalex import necklace as nk
    samples = (_default(nk.verify_containment, "n_phi")
               * _default(nk.verify_containment, "n_theta"))

    def run(tr, state):
        if "c0" not in state:
            raise Blocked("no separation constants: disjointness failed")
        params = nk.NecklaceParams(b=NECKLACE_B, m=NECKLACE_M,
                                   c0=state["c0"], c1=state["c1"])
        with tr.span("necklace.containment"):
            rep = nk.verify_containment(params, tol=LINK_TOL)
        tr.count("necklace.containment_samples", samples * len(rep["cases"]))
        bound = NECKLACE_B ** 2 * (1 + LINK_TOL)
        if rep["max_core_distance"] > bound:
            return (f"max core distance {rep['max_core_distance']:.3g} "
                    f"> b^2 (1 + tol) = {bound:.3g}")
        if not rep["pass"]:
            return "containment report does not pass"
        return None
    return run


def _generate_op(k, children):
    from cubalex import necklace as nk
    want = sum(children ** i for i in range(k + 1))

    def run(tr, state):
        params = nk.NecklaceParams(b=NECKLACE_B, m=NECKLACE_M)
        with tr.span("necklace.generate"):
            system = nk.generate(params, k, children_per_tube=children)
            errors = system.scale_errors()
        tr.count("necklace.tubes", len(system.tubes))
        if len(system.tubes) != want:
            return f"{len(system.tubes)} tubes, expected {want}"
        if max(errors) > SCALE_TOL:
            return f"scale ledger error {max(errors):.2e} > {SCALE_TOL}"
        return None
    return run


def necklace(seed, smoke=False):
    return [Op("disjointness", 60.0, _disjointness_op(seed)),
            Op("linking", 60.0, _linking_op(500 if smoke else 2000)),
            Op("containment", 20.0, _containment_op()),
            Op("generate", 20.0, _generate_op(3, 8))]


WORKLOADS = {"shell_reduce": shell_reduce, "build_refine": build_refine,
             "necklace": necklace}
