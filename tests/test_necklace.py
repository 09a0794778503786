"""Transforms, core geometry, tube hierarchy, and small-scale verifications.

The full-size verifications (b = 0.05, m = 1700) run in the acceptance
suite; here the same machinery runs on the smallest conforming parameters
that keep each test under a second or two.
"""

import copy
import dataclasses
import functools
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, target
from hypothesis import strategies as st

from cubalex import necklace as nk
from cubalex.errors import MinimizationNotConverged, ParamsInvalid
from cubalex.necklace import geometry as ge
from cubalex.necklace import transforms as tr
from cubalex.necklace import verify as ve


def small_params():
    # b = 0.1: window [4b^2/3, 3b^2/2] = [0.013333, 0.015]: m = 450 fits
    return nk.NecklaceParams(b=0.1, m=450)


# -- transforms -----------------------------------------------------------------


def test_phi_psi_formulas():
    assert np.allclose(tr.phi(np.zeros(4)), [0, 0, 1, 0])
    assert np.allclose(tr.psi(np.array([1.0, 2, 3, 4])), [3, 4, 2, 2])
    x = np.random.default_rng(1).normal(size=4)
    assert np.allclose(tr.PHI(x), tr.phi(x))
    assert np.allclose(tr.PSI(x), tr.psi(x))


def test_rotation_full_turn_identity():
    m = 38
    assert np.allclose(tr.rotation(m, m).A, np.eye(4), atol=1e-12)


def test_isometries_orientation_preserving():
    for S in (tr.PHI, tr.PSI, tr.rotation(3, 14)):
        assert S.orthogonality_error() < 1e-12
        assert abs(np.linalg.det(S.A) - 1.0) < 1e-12


def test_non_orthogonal_matrix_rejected():
    with pytest.raises(ParamsInvalid):
        tr.Similarity4(np.diag([1.0, 1.0, 1.0, 1.1]), np.zeros(4))


def test_composition_scale_and_inverse():
    S = tr.PHI.compose(tr.scaling(0.25)).compose(tr.rotation(2, 10))
    assert abs(S.scale - 0.25) < 1e-15
    x = np.array([0.3, -0.2, 1.1, 0.4])
    assert np.allclose(S.inverse()(S(x)), x, atol=1e-12)


# -- core geometry -------------------------------------------------------------


def test_points_on_cores():
    b = 0.1
    assert ge.dist_to_core(np.array([b, 0, 1, 0]), "T~", b) == pytest.approx(0, abs=1e-14)
    assert ge.dist_to_core(np.array([0, b, 1, 0]), "T", b) == pytest.approx(0, abs=1e-14)


def test_closed_form_matches_sampling_oracle():
    b = 0.1
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(30, 4)) * 0.4 + np.array([0, 0, 1, 0])
    for pat in ("T", "T~"):
        dense = ge.sample_model_torus(pat, b, 1000, 1000)
        cf = ge.dist_to_core(pts, pat, b)
        brute = np.sqrt(
            ((pts[:, None, :] - dense[None, :, :]) ** 2).sum(-1)).min(1)
        assert np.abs(cf - brute).max() < 1e-4


def test_closed_form_thousand_points_two_stage():
    # 10^3 random points against dense two-stage parameter sampling
    b = 0.1
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(1000, 4)) * 0.5 + np.array([0, 0, 1, 0])
    two_pi = 2 * np.pi
    g = 192
    for pat in ("T", "T~"):
        cf = ge.dist_to_core(pts, pat, b)
        coarse_angles = np.linspace(0, two_pi, g, endpoint=False)
        coarse = ge.sample_model_torus(pat, b, g, g)
        est = np.empty(len(pts))
        for lo in range(0, len(pts), 200):
            chunk = pts[lo:lo + 200]
            d2 = ((chunk[:, None, :] - coarse[None, :, :]) ** 2).sum(-1)
            best = d2.argmin(1)
            for t, idx in enumerate(best):
                u0 = coarse_angles[idx // g]
                v0 = coarse_angles[idx % g]
                du = two_pi / g
                us = np.linspace(u0 - du, u0 + du, 48)
                vs = np.linspace(v0 - du, v0 + du, 48)
                U, V = np.meshgrid(us, vs, indexing="ij")
                fine = ge.model_core_point(pat, b, U.ravel(), V.ravel())
                est[lo + t] = np.sqrt(
                    ((chunk[t] - fine) ** 2).sum(-1).min())
        assert np.abs(cf - est).max() < 1e-4


def marked_circle(j, p, tilde=False):
    """The marked circle sigma_j (or its tilde twin) of a level-1 tube."""
    S = ge.tau_similarity(j, p.m, p.b, tilde)
    return ge.circle_frame(S, ge.pattern_of_child(j), p.b)


def test_sigma_circles_in_the_flat():
    p = small_params()
    for j in (1, 2, 3):
        s = ge.circle_points(marked_circle(j, p), 64)
        assert np.abs(s[:, 1]).max() < 1e-15
        st = ge.circle_points(marked_circle(j, p, tilde=True), 64)
        assert np.abs(st[:, 1]).max() < 1e-15


def test_core_centers_on_longitude():
    p = small_params()
    for j in (1, 2, 5):
        z = marked_circle(j, p)[0]
        assert abs(math.hypot(z[2], z[3]) - (1 - p.b)) < 1e-12
        assert abs(z[0]) < 1e-12 and abs(z[1]) < 1e-12


# -- params and tubes ------------------------------------------------------------


def test_params_window():
    with pytest.raises(ParamsInvalid):
        nk.NecklaceParams(b=0.2, m=1700)
    with pytest.raises(ParamsInvalid):
        nk.NecklaceParams(b=0.05, m=1701)  # odd


def test_jacobian_exponent():
    p = small_params()
    want = -4 * math.log(2 * p.m * p.b) / math.log(p.b)
    assert p.jacobian_exponent() == pytest.approx(want)


def test_generation_counts_and_patterns():
    p = small_params()
    sys0 = nk.generate(p, 0)
    assert len(sys0.tubes) == 1 and sys0.tubes[0].pattern == "T"
    sys1 = nk.generate(p, 1)
    lev1 = sys1.level(1)
    assert len(lev1) == p.m
    assert sum(1 for t in lev1 if t.pattern == "T") == p.m // 2


@pytest.mark.parametrize("k", [-1, 1.5, None])
def test_generate_rejects_a_bad_k(k):
    with pytest.raises(ParamsInvalid):
        nk.generate(small_params(), k)


@pytest.mark.parametrize("children", [0, -2, 1.5])
def test_generate_rejects_a_bad_children_count(children):
    with pytest.raises(ParamsInvalid):
        nk.generate(small_params(), 1, children_per_tube=children)


def test_scale_ledger_exact():
    p = small_params()
    system = nk.generate(p, 3, children_per_tube=4)
    assert max(system.scale_errors()) <= 1e-12


def test_equivariance_small():
    p = small_params()
    pts = ge.sample_core(1, p.m, p.b, 6, 12)
    r2 = tr.rotation(2, p.m)
    for j in (2, 3):
        d1 = ge.dist_point_to_tau(pts, j, p.m, p.b)
        d2 = ge.dist_point_to_tau(r2(pts), j + 2, p.m, p.b)
        assert np.abs(d1 - d2).max() < 1e-9


# -- verifications at small scale ---------------------------------------------------


def test_disjointness_small():
    p = small_params()
    rep = nk.verify_disjointness(p)
    assert rep["pass"]
    assert rep["c0"] > 0 and rep["c1"] > 0
    p = dataclasses.replace(p, c0=rep["c0"], c1=rep["c1"])
    assert p.rho == rep["rho"] == min(rep["c0"], rep["c1"]) / 10
    # the chord bound covers the unsearched pairs, in the same units of b^2
    assert rep["chord_lower"] > max(rep["c0"], rep["c1"])


def test_disjointness_leaves_params_alone():
    p = small_params()
    before = dataclasses.replace(p)
    nk.verify_disjointness(p, max_offset=1)
    assert p == before and p.c0 is None and p.rho is None


angle = st.floats(0, 2 * math.pi)
half_width = st.floats(1e-6, math.pi)
offset = st.floats(-1, 1)


@settings(max_examples=200, deadline=None)
@given(i=st.sampled_from([1, 2]), tilde=st.booleans(),
       c=st.tuples(angle, angle), h=st.tuples(half_width, half_width),
       ts=st.lists(st.tuples(offset, offset), min_size=1, max_size=32))
def test_cell_lower_bound_is_sound(i, tilde, c, h, ts):
    # f anywhere in a cell is at least the branch-and-bound bound of the cell;
    # tau_1 is a flat core and tau_2 a round one
    p = small_params()
    f = ve._pair_objective(i, i + 1, p.m, p.b, tilde)
    t = np.array(ts)
    u1, u2 = c[0] + h[0] * t[:, 0], c[1] + h[1] * t[:, 1]
    fc = f(np.array([c[0]]), np.array([c[1]]))[0]
    radius = ve._cell_radius(p.b, *h)
    drop = fc - f(u1, u2).min()
    target(drop / radius)  # steer the search toward the tightest cells
    assert drop <= radius + 1e-12


@functools.lru_cache(maxsize=None)
def minimizer(i, tilde):
    """Where f of the pair (i, i + 1) is smallest, from the search itself."""
    p = small_params()
    f = ve._pair_objective(i, i + 1, p.m, p.b, tilde)
    work = dict.fromkeys(
        ("cells_evaluated", "cells_live_peak", "cells_closed_by_curvature"), 0)
    _, (u, _), _ = ve._branch_and_bound(f, p.b, math.inf, work)
    return tuple(u)


def log_width(hi):
    """Half-widths spread evenly in log scale over [1e-6, hi]."""
    return st.floats(math.log(1e-6), math.log(hi)).map(math.exp)


@settings(max_examples=300, deadline=None)
@given(i=st.sampled_from([1, 2]), tilde=st.booleans(), near=st.booleans(),
       c=st.tuples(angle, angle), h=st.tuples(log_width(math.pi),
                                              log_width(math.pi)),
       hn=st.tuples(log_width(0.05), log_width(0.05)),
       shift=st.tuples(offset, offset),
       ts=st.lists(st.tuples(offset, offset), min_size=1, max_size=32))
def test_cell_second_order_bound_is_sound(i, tilde, near, c, h, hn, shift,
                                          ts):
    # the combined bound never exceeds f in the cell; the second-order term
    # applies to the narrow cells inside the core's reach, and half the
    # cells are drawn around the minimum
    p = small_params()
    f = ve._pair_objective(i, i + 1, p.m, p.b, tilde)
    if near:
        u, h = minimizer(i, tilde), hn
        c = (u[0] + shift[0] * h[0], u[1] + shift[1] * h[1])
    t = np.array(ts + [(-1, -1), (-1, 1), (1, -1), (1, 1)])
    u1, u2 = c[0] + h[0] * t[:, 0], c[1] + h[1] * t[:, 1]
    fc, g1, g2 = f(np.array([c[0]]), np.array([c[1]]), gradient=True)
    lb, _ = ve._cell_lower_bound(p.b, fc, g1, g2, *map(np.array, h))
    excess = lb[0] - f(u1, u2).min()
    target(excess / ve._cell_radius(p.b, *h))  # steer toward the tightest
    assert excess <= 1e-12


@pytest.mark.parametrize("i", [1, 2])
@pytest.mark.parametrize("tilde", [False, True])
def test_pair_objective_partials_match_differences(i, tilde):
    # tau_1 is a flat core and tau_2 a round one, so both patterns are met
    # on either side of the pair
    p = small_params()
    f = ve._pair_objective(i, i + 1, p.m, p.b, tilde)
    u1, u2 = np.random.default_rng(i).uniform(0, 2 * np.pi, size=(2, 64))
    fc, g1, g2 = f(u1, u2, gradient=True)
    assert np.array_equal(fc, f(u1, u2))
    e = 1e-6
    assert np.allclose(g1, (f(u1 + e, u2) - f(u1 - e, u2)) / (2 * e),
                       rtol=0, atol=1e-7)
    assert np.allclose(g2, (f(u1, u2 + e) - f(u1, u2 - e)) / (2 * e),
                       rtol=0, atol=1e-7)


def test_disjointness_cell_count_guard():
    # the second-order bound closes the valley the first-order bound refines
    # down to cells of width GAP * b; 2.67 M cells with the first-order
    # bound alone, about 108,000 with both
    rep = nk.verify_disjointness(nk.NecklaceParams(b=0.05, m=1700),
                                 max_offset=1)
    assert rep["cells_evaluated"] <= 200_000
    assert 0 < rep["cells_closed_by_curvature"] < rep["cells_evaluated"]
    assert 0 < rep["cells_live_peak"] <= ve.MAX_LIVE_CELLS


def loop_representative_pairs(m, b):
    """`representative_pairs` as a loop over every offset of both parities."""
    beta = 2 * math.pi / m
    extent = b * (2 + 2 * b)
    near, certified, lowest = [], 0, math.inf
    for i in (1, 2):
        for d in range(1, m // 2 + 1):
            chord = 2 * (1 - b) * math.sin(min(d, m - d) * beta / 2)
            if chord - ve.CHORD_MARGIN * extent > 0:
                certified += 1
                lowest = min(lowest, chord - 2 * extent)
            else:
                near.append((i, i + d))
    return near, certified, lowest


@pytest.mark.parametrize("m,b", [(1700, 0.05), (1796, 0.05), (11220, 0.02),
                                 (179520, 0.005), (8, 0.05), (64, 0.3)])
def test_representative_pairs_match_the_loop(m, b):
    # the certified offsets are one range, counted in closed form; the least
    # bound is the same float, so the pinned chord_lower cannot move.  At
    # m = 8 every offset is certified, at b = 0.3 none is.
    assert ve.representative_pairs(m, b) == loop_representative_pairs(m, b)


def test_disjointness_brackets_dense_grid():
    # lower bound <= the minimum over a dense 400 x 2000 grid on tau_i <= best;
    # the minimizers sit at grid angles, so grid and best agree to rounding
    p = small_params()
    rep = nk.verify_disjointness(p, max_offset=1)
    near, _, _ = ve.representative_pairs(p.m, p.b)
    for tilde, key in ((False, "c0"), (True, "c1")):
        dense = min(
            ge.dist_point_to_tau(
                ge.sample_core(i, p.m, p.b, 400, 2000, tilde=tilde),
                j, p.m, p.b, tilde=tilde).min()
            for i, j in near if j - i == 1) / p.b ** 2
        assert rep[key + "_lower"] <= dense <= rep[key] * (1 + 1e-12)
    assert 0 <= rep["gap"] <= ve.GAP


def test_disjointness_live_cell_cap(monkeypatch):
    monkeypatch.setattr(ve, "MAX_LIVE_CELLS", 64)
    with pytest.raises(MinimizationNotConverged):
        nk.verify_disjointness(small_params(), max_offset=1)


def test_containment_small():
    p = small_params()
    p.c0 = p.c1 = 0.45  # plausible empirical constants for the nesting check
    rep = nk.verify_containment(p)
    assert rep["pass_core"] and rep["pass_nesting"] and rep["pass"]
    # the nesting inequality holds throughout the strict regime b < rho/10
    assert rep["nesting_holds_below_rho_over_10"]
    rho = p.rho
    b = rho / 20
    assert rho * b ** 2 + b ** 2 < rho * b / 5


def test_containment_nesting_threshold():
    p = small_params()
    p.c0 = p.c1 = 0.45
    rep = nk.verify_containment(p, n_phi=20, n_theta=40)
    rho, threshold = p.rho, rep["nesting_threshold"]
    assert threshold == pytest.approx(rho / (5 * (1 + rho)))
    # rho b'^2 + b'^2 < rho b'/5 holds just below the threshold, not above
    for scale, holds in ((1 - 1e-9, True), (1 + 1e-9, False)):
        bp = threshold * scale
        assert (rho * bp ** 2 + bp ** 2 < rho * bp / 5) == holds
    # b = 0.1 lies far above the threshold, and the report says so
    assert rep["nesting_margin_at_b"] == threshold - p.b < 0
    assert not rep["nesting_at_b"] and rep["pass"]
    # rho = 2 puts the strict regime b' < rho/10 past the threshold
    p.c0 = p.c1 = 20
    rep = nk.verify_containment(p, n_phi=20, n_theta=40)
    assert rep["pass_core"] and not rep["pass_nesting"] and not rep["pass"]


def test_containment_budget():
    p = small_params()
    with pytest.raises(nk.verify.SamplingBudgetExceeded):
        nk.verify_containment(p, n_phi=3000, n_theta=3000)


def test_linking_small():
    p = small_params()
    rep = nk.verify_linking(p, nodes=1500)
    assert rep["pass"]
    assert abs(abs(rep["pairs"]["1,2"]["lk"]) - 1) < 1e-3
    assert abs(rep["pairs"]["1,3"]["lk"]) < 1e-3
    assert abs(abs(rep["pairs"][f"{p.m},1"]["lk"]) - 1) < 1e-3


def test_linking_exact_and_certified():
    p = small_params()
    rep = nk.verify_linking(p, nodes=2000)
    assert rep["pass"] and len(rep["pairs"]) == 7
    for r in rep["pairs"].values():
        assert type(r["lk"]) is int and abs(r["lk"]) == r["expected_abs"]
        assert r["margin"] > r["threshold"] > r["chord_error"]


def test_linking_builds_each_circle_frame_once(monkeypatch):
    # a work guard: the seven pairs name six circles, sigma_1..5 and sigma_m
    calls = []

    def counted(j, *args, real=ve.tau_similarity):
        calls.append(j)
        return real(j, *args)
    monkeypatch.setattr(ve, "tau_similarity", counted)
    p = small_params()
    nk.verify_linking(p, nodes=200)
    assert sorted(calls) == [1, 2, 3, 4, 5, p.m]


def test_linking_leaves_params_unchanged():
    p = small_params()
    p.c0 = p.c1 = 0.45
    before = copy.deepcopy(p)
    nk.verify_linking(p, nodes=200)
    assert p == before


@pytest.mark.parametrize("kwargs", [
    {"nodes": 7},
    {"nodes": 9.5},
    {"nodes": "2000"},
    {"tol": math.nan},
    {"tol": math.inf},
    {"tol": -1e-3},
])
def test_linking_rejects_bad_input(kwargs):
    with pytest.raises(ParamsInvalid):
        nk.verify_linking(small_params(), **kwargs)


@pytest.mark.parametrize("kwargs", [
    {"n_phi": 0},
    {"n_theta": -3},
    {"n_phi": 20.5},
    {"tol": -1.0},
    {"tol": math.nan},
    {"tol": math.inf},
])
def test_containment_rejects_bad_input(kwargs):
    with pytest.raises(ParamsInvalid):
        nk.verify_containment(small_params(), **kwargs)


# disjointness keys that do not depend on how tight the cell bound is; the
# bound-dependent fields are checked by test_disjointness_brackets_dense_grid
PINNED_DISJOINTNESS = ("pairs_minimized", "pairs_certified", "chord_lower",
                       "equivariance_error", "pass")


def test_necklace_reports_pinned():
    # disjointness, linking, containment's sampled cases and every tube
    # transform of a sampled level-3 system at b = 0.1, m = 450; disjointness
    # enters by the keys the cell bound cannot move, and by c0, c1 and rho
    # to 12 digits
    p = small_params()
    containment = nk.verify_containment(p)
    tubes = nk.generate(p, 3, children_per_tube=4).tubes
    disjoint = nk.verify_disjointness(p, max_offset=1)
    records = [{**{k: disjoint[k] for k in PINNED_DISJOINTNESS},
                **{k: f"{disjoint[k]:.12g}" for k in ("c0", "c1", "rho")}},
               nk.verify_linking(p, nodes=2000),
               containment["cases"], containment["max_core_distance"],
               [(t.word, t.transform.A.tolist(), t.transform.t.tolist(),
                 t.transform.scale) for t in tubes]]
    digest = hashlib.sha256(
        json.dumps(records, sort_keys=True).encode()).hexdigest()
    assert digest == (
        "adf1a0cf986debc74064ed1df538ecc9b430959e9c8db1ed3e5ee19a5705d8af")


def test_tube_diameters_shrink_geometrically():
    # Cantor-set criterion: component diameters fall by the factor b per level
    p = small_params()
    system = nk.generate(p, 2, children_per_tube=3)
    model = ge.sample_model_torus("T", p.b, 24, 48)
    diams = {}
    for t in system.tubes:
        pts = t.transform(model)
        d = np.ptp(pts, axis=0).max()
        diams.setdefault(t.level, []).append(d)
    for k in (1, 2):
        ratio = max(diams[k]) / max(diams[k - 1])
        assert ratio == pytest.approx(p.b, rel=0.2)


@pytest.mark.parametrize("b, m", [(0.1, 450), (0.05, 1700), (0.02, 11220)])
def test_separation_constants_closed_form(b, m):
    # the offset-1 minima follow c1 = 2 - beta/b^2 and c0 = c1 - beta/b up
    # to O(b^4); the residuals measure between -0.75 b^4 and -0.57 b^4
    p = nk.NecklaceParams(b=b, m=m)
    rep = nk.verify_disjointness(p, max_offset=1)
    c1 = 2 - p.beta / b ** 2
    c0 = c1 - p.beta / b
    assert abs(rep["c1"] - c1) <= b ** 4
    assert abs(rep["c0"] - c0) <= b ** 4
    assert rep["c0_lower"] <= rep["c0"] and rep["c1_lower"] <= rep["c1"]


def test_strict_conforming_is_b_below_rho_over_10():
    # without c0 and c1 there is no rho, so no claim
    p = small_params()
    assert p.rho is None and p.strict_conforming() is False
    # b = 0.1 lies above rho/10 for a run's constants, and containment
    # reports the same verdict
    rep = nk.verify_disjointness(p, max_offset=1)
    p = dataclasses.replace(p, c0=rep["c0"], c1=rep["c1"])
    contain = nk.verify_containment(p, n_phi=20, n_theta=40)
    assert p.strict_conforming() is False
    assert contain["strict_regime"] is p.strict_conforming()
    # b = 0.005 with the closed-form constants: rho/10 = 0.00593 > b
    p = nk.NecklaceParams(b=0.005, m=179_520)
    c1 = 2 - p.beta / p.b ** 2
    p = dataclasses.replace(p, c0=c1 - p.beta / p.b, c1=c1)
    assert p.rho / 10 == pytest.approx(0.00593, abs=1e-5)
    assert p.strict_conforming() is True
    # no window caps b: rho/10 = 0.02 > b = 0.015 conforms
    p = nk.NecklaceParams(b=0.015, m=19_948, c0=2.0, c1=2.0)
    assert p.strict_conforming() is True


def test_export_cores_csv(tmp_path):
    p = small_params()
    system = nk.generate(p, 1, children_per_tube=6)
    path = tmp_path / "cores.csv"
    count = nk.export_geometry(system, str(path), what="cores")
    lines = path.read_text().strip().splitlines()
    assert len(lines) == count + 1  # header
    # m polylines at level 1 (6 sampled children here)
    words = {line.split(",")[0] for line in lines[1:]}
    assert len(words) == 6


def test_export_slice_two_curves_per_tube(tmp_path):
    p = small_params()
    p.c0 = p.c1 = 0.45
    system = nk.generate(p, 1, children_per_tube=4)
    path = tmp_path / "slice.csv"
    nk.export_geometry(system, str(path), what="slice")
    words = {line.split(",")[0]
             for line in path.read_text().strip().splitlines()[1:]}
    assert len(words) == 2 * 4


def read_curves(path):
    curves = {}
    for row in path.read_text().strip().splitlines()[1:]:
        word, _, *x = row.split(",")
        curves.setdefault(word, []).append([float(v) for v in x])
    return {word: np.array(pts) for word, pts in curves.items()}


def level1_oracle(j, p, what, nodes):
    """Level-1 export curves by the formulas used before exports read each
    tube's transform: the word's first index picks S_j = rho^j Phi lambda,
    and the slice offsets the marked circle radially about its mean."""
    S = tr.rotation(j, p.m).compose(tr.PHI).compose(tr.scaling(p.b))
    if what == "tubes":
        return {f"{j}": S(ge.sample_model_torus(ge.pattern_of_child(j), p.b,
                                                16, 64))}
    t = np.linspace(0, 2 * np.pi, nodes, endpoint=False)
    zero, one = np.zeros_like(t), np.ones_like(t)
    c, s = p.b * np.cos(t), p.b * np.sin(t)
    model = (np.stack([zero, c, 1.0 + s, zero], axis=-1) if j % 2 == 0
             else np.stack([c, s, one, zero], axis=-1))
    pts = S(model)
    if what == "cores":
        return {f"{j}": pts}
    d = pts - pts.mean(axis=0)
    d /= np.linalg.norm(d, axis=1)[:, None]
    r = p.rho * p.b ** 2
    return {f"{j}-1": pts + r * d, f"{j}--1": pts - r * d}


@pytest.mark.parametrize("what", ["cores", "tubes", "slice"])
def test_export_level1_matches_oracle(tmp_path, what):
    p = small_params()
    p.c0 = p.c1 = 0.45
    system = nk.generate(p, 1, children_per_tube=6)
    path = tmp_path / f"{what}.csv"
    nk.export_geometry(system, str(path), what=what)
    want = {}
    for t in system.level(1):
        want.update(level1_oracle(t.word[0], p, what, nk.export.NODES))
    got = read_curves(path)
    assert got.keys() == want.keys()
    for word, pts in want.items():
        assert np.abs(got[word] - pts).max() <= 1e-15


def test_export_every_level(tmp_path):
    # a level-2 marked circle lies on its core, which hugs the parent core
    # within b^2 in the parent's model units
    p = small_params()
    system = nk.generate(p, 2, children_per_tube=3)
    path = tmp_path / "cores.csv"
    nk.export_geometry(system, str(path), what="cores")
    curves = read_curves(path)
    assert len(curves) == 3 + 9
    tubes = {"-".join(map(str, t.word)): t for t in system.tubes}
    for word, pts in curves.items():
        child = tubes[word]
        if child.level != 2:
            continue
        parent = tubes["-".join(map(str, child.word[:-1]))]
        S = parent.transform
        d = ge.dist_to_core(S.inverse()(pts), parent.pattern, p.b) * S.scale
        assert d.max() <= p.b ** 2 * S.scale * (1 + 1e-9)


@pytest.mark.parametrize("kwargs", [{"what": "rings"}, {"fmt": "ply"}])
def test_export_rejects_unknown_kind(tmp_path, kwargs):
    system = nk.generate(small_params(), 1, children_per_tube=2)
    with pytest.raises(ParamsInvalid):
        nk.export_geometry(system, str(tmp_path / "x"), **kwargs)


def test_export_slice_needs_rho(tmp_path):
    # without c0 and c1 there is no rho to offset the slice circles by
    system = nk.generate(small_params(), 1, children_per_tube=2)
    with pytest.raises(ParamsInvalid):
        nk.export_geometry(system, str(tmp_path / "x"), what="slice")


def test_export_empty_system(tmp_path):
    p = small_params()
    system = nk.generate(p, 0)
    path = tmp_path / "empty.csv"
    count = nk.export_geometry(system, str(path), what="cores")
    assert count == 0 and path.exists()
