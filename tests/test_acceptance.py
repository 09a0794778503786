"""Acceptance suite: every criterion at its stated tolerance and budget.

Each test prints one pass/fail line; run with `pytest tests/test_acceptance.py
-v -s` to see them all.  The necklace disjointness report is computed once
and shared (criterion 11 needs the empirical rho from criterion 9).
"""

import dataclasses
import itertools
import math
import random
import time

import numpy as np
import pytest

from cubalex import alexander as al
from cubalex import complex_core as cc
from cubalex import factories as fa
from cubalex import necklace as nk
from cubalex import refinement as rf
from cubalex import shelling as sh
from cubalex import weaving as wv
from cubalex.errors import OddCycle

from gen import (BENCH_BOXES_3D, CONE44, cube_complex, random_disk_polyomino,
                 random_molecule, random_sketch_pieces)

BUDGETS = {1: 1, 2: 1, 3: 10, 4: 5, 5: 1, 6: 10, 7: 5, 8: 5,
           9: 20, 10: 10, 11: 5, 12: 10, 13: 15}


def report(num, ok, elapsed, detail=""):
    line = (f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} "
            f"({elapsed:6.2f}s / budget {BUDGETS[num]}s) {detail}")
    print(line)
    assert ok, line
    assert elapsed < BUDGETS[num], f"criterion {num} over budget: {elapsed:.1f}s"


def test_criterion_01_triangulation_counts():
    t0 = time.time()
    T4 = cc.canonical_triangulation(fa.unit_cube(4))
    T3 = cc.canonical_triangulation(fa.unit_cube(3))
    T2 = cc.canonical_triangulation(fa.unit_cube(2))
    flag2 = 2 ** 2 * math.factorial(2)  # flag-count oracle
    flag4 = 2 ** 4 * math.factorial(4)
    ok = (T4.n_cells(4) == 384 == flag4 and T3.n_cells(3) == 48
          and T2.n_cells(2) == 8 == flag2)
    report(1, ok, time.time() - t0,
           f"4-cube -> {T4.n_cells(4)} 4-simplices, "
           f"3-cube -> {T3.n_cells(3)} tetrahedra, square -> {T2.n_cells(2)}")


def test_criterion_02_parity_degree():
    t0 = time.time()
    dd = fa.doubled_complex(fa.unit_cube(2))
    lab = al.alexander_label(dd)
    deg = al.degree(lab)
    plus = sum(1 for s in lab.parity.values() if s == 1)
    odd_raised = False
    try:
        al.alexander_label(fa.mutually_adjacent_triangles(),
                           vertex_labels={0: 0, 1: 1, 2: 2, 3: 2})
    except OddCycle:
        odd_raised = True
    ok = deg == 8 and plus == 8 and len(lab.parity) - plus == 8 and odd_raised
    report(2, ok, time.time() - t0, f"degree {deg}, parity {plus}/{len(lab.parity)-plus}, OddCycle raised")


def test_criterion_03_shelling_sweep():
    t0 = time.time()
    polys = fa.free_polyominoes(8)
    counts = {k: len(v) for k, v in polys.items()}
    # enumeration oracle: the free polyomino counts
    assert counts == {1: 1, 2: 1, 3: 2, 4: 5, 5: 12, 6: 35, 7: 108, 8: 369}
    total, found = 0, 0
    for k, shapes in polys.items():
        for cells in shapes:
            if not fa.is_disk_polyomino(cells):
                continue
            total += 1
            K = fa.grid_complex(cells)
            order = sh.find_shelling(K)
            if order is not None and sh.verify_shelling(K, order)[0]:
                found += 1
    ok = total > 0 and found == total
    report(3, ok, time.time() - t0, f"{found}/{total} 2-cell complexes shelled")


def test_criterion_04_reduction_ledger():
    t0 = time.time()
    rng = random.Random(42)
    ok = True
    inputs = [random_disk_polyomino(rng, 10) for _ in range(20)] + [CONE44]
    # 3-D: slab2x2x1, tripod, cube2x2x2, cube3x3x3, cube4x4x4; 4-D: two cubes
    inputs += [BENCH_BOXES_3D[i] for i in (0, 1, 3)]
    inputs += [list(itertools.product(range(k), repeat=3)) for k in (3, 4)]
    inputs += [((0,) * 4, (1, 0, 0, 0))]
    for cells in inputs:
        K = cube_complex(cells)
        final, lab, ledger = al.reduce_cubical(K)
        want_m = sh.star_replacement_cover_count(K)
        S = sh.star_replacement(K)
        iso = cc.is_isomorphic(S, final, S.vertex_cube_dim, lab.labels)
        if not (iso and ledger.total_covers == want_m):
            ok = False
            break
    report(4, ok, time.time() - t0,
           "20 random shellable disks, cone44, five 3-D boxes up to 4x4x4 "
           "and a 4-D two-cube box reduced onto K*, labels included")


def test_criterion_05_rank_identity():
    t0 = time.time()
    checked = wv.sweep_rank_identity(range(2, 7))
    report(5, checked > 0, time.time() - t0,
           f"{checked} color/face cases, r+r'+2 = 0 mod p")


def test_criterion_06_neighborly_forest():
    t0 = time.time()
    rng = random.Random(2026)
    ok = True
    for _ in range(50):
        pieces, colors, inc, roots = random_sketch_pieces(rng, max_pieces=30)
        trees = wv.neighborly_forest(pieces, colors, inc, roots)
        covered = sorted(v for t in trees for v in t["nodes"])
        one_root = all(sum(1 for v in t["nodes"] if v in set(roots)) == 1
                       for t in trees)
        if covered != sorted(pieces) or not one_root:
            ok = False
            break
    report(6, ok, time.time() - t0, "50 random sketches, full coverage, one root per tree")


def test_criterion_07_molecule_functions():
    t0 = time.time()
    rng = random.Random(7)
    ok = True
    for _ in range(20):
        M = random_molecule(rng)
        lam_down = rf.level_function(M)
        lam_up = rf.level_function_from_leaves(M)
        if lam_down != lam_up or lam_down["boundary"] != 0:
            ok = False
            break
        for k in M.blocks:
            p = M.parent[k]
            if p is None or p[0] != k[0]:
                if lam_down[k] != M.rho(k[0]):      # rule (2)
                    ok = False
            else:
                from fractions import Fraction
                if lam_down[k] != lam_down[p] - Fraction(1, M.ell()):  # rule (3)
                    ok = False
            lhs, rhs = rf.expansion_identity_sides(M, k)
            if lhs != rhs:
                ok = False
        if not ok:
            break
    report(7, ok, time.time() - t0,
           "20 random molecules: level rules, leaf/root agreement, nu identity")


def test_criterion_08_separating_complex():
    t0 = time.time()
    P = fa.product_with_interval(fa.circle_complex(6), 3)
    Z = rf.find_separating_complex(P)
    comps = rf.boundary_components(P)
    ok = Z.piece_count() == 2 and len(comps) == 2
    report(8, ok, time.time() - t0,
           f"product complex: {Z.piece_count()} pieces for {len(comps)} boundary components")


@pytest.fixture(scope="module")
def necklace_disjointness():
    params = nk.NecklaceParams(b=0.05, m=1700)
    t0 = time.time()
    rep = nk.verify_disjointness(params, seed=0)
    elapsed = time.time() - t0
    # the verifier leaves params alone; the constants are passed on here
    return (dataclasses.replace(params, c0=rep["c0"], c1=rep["c1"]), rep,
            elapsed)


def test_criterion_09_necklace_disjointness(necklace_disjointness):
    _, rep, elapsed = necklace_disjointness
    lower = min(rep["c0_lower"], rep["c1_lower"])
    ok = (rep["pass"]
          and lower > 2 * rep["rho"]
          and rep["equivariance_error"] < 1e-9
          and 0 <= rep["gap"] <= nk.verify.GAP)
    report(9, ok, elapsed,
           f"min dist >= {lower:.4f} b^2 > 2 rho = {2*rep['rho']:.4f}; "
           f"gap {rep['gap']:.1e}; "
           f"equivariance {rep['equivariance_error']:.1e}")


def test_criterion_10_necklace_linking(necklace_disjointness):
    params, _, _ = necklace_disjointness
    t0 = time.time()
    rep = nk.verify_linking(params, nodes=10_000, tol=1e-3)
    adjacent = [v for k, v in rep["pairs"].items()
                if v["expected_abs"] == 1.0]
    far = [v for k, v in rep["pairs"].items() if v["expected_abs"] == 0.0]
    ok = (rep["pass"]
          and all(abs(abs(v["lk"]) - 1) <= 1e-3 for v in adjacent)
          and all(abs(v["lk"]) <= 1e-3 for v in far)
          and [v["lk"] for v in rep["pairs"].values()] == [-1, 1, 0, 0, 0, 0, 1]
          and all(v["margin"] > v["threshold"] for v in rep["pairs"].values()))
    margin = min(v["margin"] / v["chord_error"] for v in rep["pairs"].values())
    # every marked circle has radius b^2
    clearance = min(v["margin"] for v in rep["pairs"].values()) / params.b ** 2
    report(10, ok, time.time() - t0,
           f"{len(adjacent)} linked pairs |lk|=1, {len(far)} unlinked, wraparound "
           f"included; margin >= {margin:.2g} x chord error, "
           f">= {clearance:.2f} r_j against tol 1e-3")


def test_criterion_11_necklace_containment(necklace_disjointness):
    params, _, _ = necklace_disjointness
    t0 = time.time()
    rep = nk.verify_containment(params, tol=1e-3)
    ok = (rep["pass_core"]
          and rep["max_core_distance"] <= params.b ** 2 * (1 + 1e-3)
          and rep["nesting_holds_below_rho_over_10"])
    report(11, ok, time.time() - t0,
           f"max core drift = {rep['max_core_distance']:.6f} <= b^2(1+1e-3); "
           f"nesting inequality verified for b < rho/10")


def test_criterion_12_scale_ledger():
    t0 = time.time()
    params = nk.NecklaceParams(b=0.05, m=1700)
    system = nk.generate(params, 3, children_per_tube=8)
    errs = system.scale_errors()
    ok = len(system.level(3)) > 0 and max(errs) <= 1e-12
    report(12, ok, time.time() - t0,
           f"{len(system.tubes)} transforms, max relative scale error {max(errs):.2e}")


def test_criterion_13_necklace_strict_regime():
    # b = 0.005 lies inside the paper's regime b < rho/10, where the tubes
    # nest at b itself; the b = 0.05 criteria run above it
    t0 = time.time()
    params = nk.NecklaceParams(b=0.005, m=179_520)
    dis = nk.verify_disjointness(params, seed=0)
    params = dataclasses.replace(params, c0=dis["c0"], c1=dis["c1"])
    link = nk.verify_linking(params, nodes=10_000, tol=1e-3)
    contain = nk.verify_containment(params, tol=1e-3)
    lower, rho = min(dis["c0_lower"], dis["c1_lower"]), dis["rho"]
    lks = [v["lk"] for v in link["pairs"].values()]
    ok = (dis["pass"] and lower > 2 * rho
          and params.strict_conforming() and contain["strict_regime"]
          and contain["pass"] and contain["nesting_at_b"]
          and link["pass"] and lks == [-1, 1, 0, 0, 0, 0, 1])
    report(13, ok, time.time() - t0,
           f"b = {params.b} < rho/10 = {rho / 10:.5f}; min dist >= "
           f"{lower:.4f} b^2 > 2 rho; nesting margin at b "
           f"{contain['nesting_margin_at_b']:.4f}; lk {lks}; "
           f"{dis['cells_evaluated']} cells, peak live "
           f"{dis['cells_live_peak']}")
