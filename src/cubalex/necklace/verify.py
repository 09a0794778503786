"""Numerical verification of the necklace claims.

Disjointness brackets pairwise core distances over representative index
pairs (rotation by two steps is a symmetry of the chain) by branch-and-bound;
containment and linking sample the corresponding closed forms; all
thresholds come from the construction's own inequalities.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import (
    IntegralNotConverged, MinimizationNotConverged, SamplingBudgetExceeded,
)
from ..kernels import gauss_linking_sum
from .geometry import (
    dist_point_to_tau, dist_to_core, model_core_point, sample_core,
    sample_model_torus, sigma_polyline, tau_pattern, tau_similarity,
    tilde_tau_similarity,
)
from .tubes import NecklaceParams


GAP = 1e-2                # relative gap at which branch-and-bound stops a pair
MAX_LIVE_CELLS = 1 << 20  # live cells above this raise MinimizationNotConverged
CHUNK = 1 << 16           # cells per distance evaluation, which bounds memory


def _pair_objective(i, j, m, b, tilde):
    """f(u1, u2) = dist(tau_i(u1, u2), tau_j) / b, over tau_i's two angles.

    Both cores have scale b, so M = S_j^-1 o S_i is an isometry and f is the
    closed-form model distance from M(model_i(u)) to tau_j's model core.
    """
    sim = tilde_tau_similarity if tilde else tau_similarity
    M = sim(j, m, b).inverse().compose(sim(i, m, b))
    pi, pj = tau_pattern(i), tau_pattern(j)

    def f(u1, u2):
        out = np.empty(len(u1))
        for lo in range(0, len(u1), CHUNK):
            part = slice(lo, lo + CHUNK)
            out[part] = dist_to_core(
                M(model_core_point(pi, b, u1[part], u2[part])), pj, b)
        return out
    return f


def _cell_radius(b, h1, h2):
    """Bound on |model(u) - model(c)| over a cell of half-widths (h1, h2).

    The torus partials are orthogonal with norms b and at most 1 + b, and the
    distance is 1-Lipschitz in the point, so f >= f(c) - radius on the cell.
    """
    return np.hypot(b * h1, (1 + b) * h2)


def _branch_and_bound(f, b, best):
    """Lipschitz branch-and-bound of f over the angle torus (Piyavskii-Shubert).

    A cell is done once its lower bound reaches (1 - GAP) * best, where best
    is the smallest value evaluated so far, this pair's or an earlier pair's
    of the same family.  Returns (best, (u, half-widths) of the cell where
    this pair improved on it or None, the smallest lower bound of a finished
    cell, cells evaluated).
    """
    c1 = c2 = np.array([np.pi])
    h1 = h2 = np.array([np.pi])
    lower, arg, evaluated = math.inf, None, 0
    while len(c1):
        if len(c1) > MAX_LIVE_CELLS:
            raise MinimizationNotConverged(
                f"{len(c1)} live cells, above the cap of {MAX_LIVE_CELLS}")
        fc = f(c1, c2)
        evaluated += len(fc)
        k = int(np.argmin(fc))
        if fc[k] < best:
            best = float(fc[k])
            arg = (np.array([c1[k], c2[k]]), np.array([h1[k], h2[k]]))
        lb = fc - _cell_radius(b, h1, h2)
        live = lb < (1 - GAP) * best
        if not live.all():
            lower = min(lower, float(lb[~live].min()))
        c1, c2, h1, h2 = c1[live], c2[live], h1[live], h2[live]
        # halve each live cell along its longer side in the torus metric
        along1 = b * h1 >= (1 + b) * h2
        h1 = np.where(along1, h1 / 2, h1)
        h2 = np.where(along1, h2, h2 / 2)
        d1 = np.where(along1, h1, 0.0)
        d2 = np.where(along1, 0.0, h2)
        c1 = np.concatenate([c1 - d1, c1 + d1])
        c2 = np.concatenate([c2 - d2, c2 + d2])
        h1, h2 = np.tile(h1, 2), np.tile(h2, 2)
    return best, arg, lower, evaluated


_COMPASS = np.array([[1, 0], [-1, 0], [0, 1], [0, -1],
                     [1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float)


def _polish(f, u, step, best):
    """Compass search from u; the value returned is always an evaluated f."""
    while np.any(u + step != u):
        trial = u + _COMPASS * step
        ft = f(trial[:, 0], trial[:, 1])
        k = int(np.argmin(ft))
        if ft[k] < best:
            best, u = float(ft[k]), trial[k]
        else:
            step = step / 2
    return best


def representative_pairs(m, b, margin=3.0):
    """Index pairs (i, j) covering every rho^2-orbit that can be close.

    Classes are (parity of i, offset); offsets whose center chord exceeds
    the tube extents by `margin` are certified apart by the chord bound.
    """
    beta = 2 * math.pi / m
    extent = b * (2 + 2 * b)  # conservative radius of a child tube around its center
    near, certified = [], []
    for i in (1, 2):
        for d in range(1, m // 2 + 1):
            j = i + d
            chord = 2 * (1 - b) * math.sin(min(d, m - d) * beta / 2)
            bound = chord - margin * extent
            if bound > 0:
                certified.append(((i, j), chord - 2 * extent))
            else:
                near.append((i, j))
    return near, certified


def verify_disjointness(params, seed=0, max_offset=None):
    """Certified core-separation constants and the tube-disjointness check.

    For each near pair, a Lipschitz branch-and-bound over tau_i's two angles
    brackets min dist(tau_i, tau_j) between a certified lower bound and an
    evaluated best value; offset-1 pairs go first, so later pairs stop
    against their family's best.  The report has c0 = min dist(tau_i,
    tau_j)/b^2 and c1 for the tilde family (best values found), their lower
    bounds c0_lower and c1_lower, the relative gap between the two, and
    rho = min(c0, c1)/10.  pass = (min(c0_lower, c1_lower) > 2 rho), which
    makes the child tubes of radius rho*b^2 pairwise disjoint, and the
    rotation equivariance dist(tau_i,tau_j) = dist(tau_{i+2},tau_{j+2})
    holds.  Chord-certified pairs are never searched.  `max_offset`
    truncates the pair sweep for calibration runs where only the near-pair
    minimum matters.
    """
    b, m = params.b, params.m
    near, certified = representative_pairs(m, b)
    if max_offset is not None:
        near = [(i, j) for i, j in near if j - i <= max_offset]
    near.sort(key=lambda ij: (ij[1] - ij[0], ij[0]))
    cert_bound = min((bd for _, bd in certified), default=math.inf)
    report = {"pairs_minimized": 2 * len(near),
              "pairs_certified": len(certified),
              "certified_lower_bound": cert_bound, "cells_evaluated": 0}
    mins, lowers = {}, {}
    for tilde in (False, True):
        best, lower, best_at = math.inf, math.inf, None
        for i, j in near:
            f = _pair_objective(i, j, m, b, tilde)
            best, arg, pair_lower, evaluated = _branch_and_bound(f, b, best)
            if arg is not None:
                best_at = (f, *arg)
            lower = min(lower, pair_lower)
            report["cells_evaluated"] += evaluated
        if best_at is not None:
            best = _polish(*best_at, best)
        # distances are in model units; the cores have scale b
        best, lower = best * b, lower * b
        # chord-certified pairs must lie above the best found, so that the
        # family's lower bound covers them too
        if max_offset is None and cert_bound < best:
            raise MinimizationNotConverged(
                "chord bound below the minimized distance")
        mins[tilde], lowers[tilde] = best, lower
    c0, c1 = mins[False] / b ** 2, mins[True] / b ** 2
    c0_lower, c1_lower = lowers[False] / b ** 2, lowers[True] / b ** 2
    params.c0, params.c1 = c0, c1
    rho = params.rho

    # rotation equivariance at the point level, both families
    equiv_err = 0.0
    rng = np.random.default_rng(seed)
    from .transforms import rotation
    r2 = rotation(2, m)
    for tilde in (False, True):
        pts = sample_core(1, m, b, 8, 16, tilde=tilde)
        take = pts[rng.integers(0, len(pts), size=16)]
        for j in (2, 3, 5):
            d1 = dist_point_to_tau(take, j, m, b, tilde=tilde)
            d2 = dist_point_to_tau(r2(take), j + 2, m, b, tilde=tilde)
            equiv_err = max(equiv_err, float(np.abs(d1 - d2).max()))

    c_emp = min(c0, c1)
    report.update({
        "min_distance": min(mins.values()),
        "min_distance_over_b2": c_emp,
        "c0": c0, "c1": c1, "c0_lower": c0_lower, "c1_lower": c1_lower,
        "gap": max((c0 - c0_lower) / c0, (c1 - c1_lower) / c1),
        "rho": rho,
        "tube_radius_child": rho * b ** 2,
        "separation_needed": 2 * rho * b ** 2,
        "equivariance_error": equiv_err,
        "pass": bool(min(c0_lower, c1_lower) > 2 * rho and equiv_err < 1e-9),
    })
    return report


def verify_containment(params, n_phi=200, n_theta=400, tol=1e-3):
    """Child cores hug the parent core within b^2; tubes nest with margin.

    Checks max dist(child core, parent core) <= b^2 (1+tol) for all four
    embedding cases and the inequality rho b^2 + b^2 < rho b / 5.
    """
    b = params.b
    if n_phi * n_theta > 4_000_000:
        raise SamplingBudgetExceeded(f"{n_phi}x{n_theta} samples requested")
    from .transforms import PHI, PSI, scaling
    lam = scaling(b)
    cases = {}
    for name, outer, child_pattern, parent_pattern in (
            ("phi.round", PHI, "T", "T"),
            ("phi.flat", PHI, "T~", "T"),
            ("psi.round", PSI, "T", "T~"),
            ("psi.flat", PSI, "T~", "T~")):
        pts = outer.compose(lam)(sample_model_torus(child_pattern, b, n_phi, n_theta))
        cases[name] = float(dist_to_core(pts, parent_pattern, b).max())
    max_dist = max(cases.values())
    rho = params.rho
    report = {
        "max_core_distance": max_dist,
        "bound_b2": b ** 2 * (1 + tol),
        "cases": cases,
        "pass_core": bool(max_dist <= b ** 2 * (1 + tol)),
    }
    if rho is not None:
        # the nesting inequality rho b'^2 + b'^2 < rho b'/5 is claimed for
        # every b' < rho/10; assert it numerically over that whole range
        grid = np.linspace(rho / 10 * 1e-3, rho / 10, 200, endpoint=False)
        algebra_ok = bool(np.all(rho * grid ** 2 + grid ** 2 < rho * grid / 5))
        at_b = rho * b ** 2 + b ** 2 < rho * b / 5
        report.update({
            "nesting_holds_below_rho_over_10": algebra_ok,
            "nesting_at_b": bool(at_b),
            "strict_regime": bool(b < rho / 10),
            "pass_nesting": algebra_ok,
            "pass": bool(report["pass_core"] and algebra_ok),
        })
    else:
        report["pass"] = report["pass_core"]
    return report


def verify_linking(params, nodes=10_000, tol=1e-3, pairs=None):
    """Gauss linking numbers of the marked circles in the x2 = 0 flat.

    |lk| = 1 exactly for cyclically adjacent circles (wraparound included),
    below tol for offsets 2 and 3.  Convergence is certified by agreement
    between full- and half-resolution sums.
    """
    b, m = params.b, params.m
    if pairs is None:
        pairs = [(1, 2), (2, 3), (1, 3), (2, 4), (1, 4), (2, 5), (m, 1)]
    results = {}
    for i, j in pairs:
        ci = sigma_polyline(i, m, b, nodes)
        cj = sigma_polyline(j, m, b, nodes)
        flat_err = max(float(np.abs(ci[:, 1]).max()), float(np.abs(cj[:, 1]).max()))
        if flat_err > 1e-10:
            raise IntegralNotConverged(
                f"sigma_{i}, sigma_{j} leave the x2=0 flat by {flat_err}")
        p3, q3 = ci[:, [0, 2, 3]], cj[:, [0, 2, 3]]
        lk = gauss_linking_sum(p3, q3)
        lk_half = gauss_linking_sum(p3[::2], q3[::2])
        if abs(lk - lk_half) > tol / 2:
            raise IntegralNotConverged(
                f"lk(sigma_{i},sigma_{j}) = {lk} vs {lk_half} at half resolution")
        offset = min((j - i) % m, (i - j) % m)
        expected = 1.0 if offset == 1 else 0.0
        results[f"{i},{j}"] = {
            "lk": lk, "expected_abs": expected,
            "pass": bool(abs(abs(lk) - expected) <= tol),
        }
    report = {"pairs": results,
              "pass": bool(all(r["pass"] for r in results.values()))}
    return report


def calibrate_constants(m_of_b=None, bs=(0.03, 0.04, 0.05, 0.06, 0.08),
                        stability=0.2, max_offset=4):
    """Empirical c0(b), c1(b) over a grid of b values, with a stability flag.

    The constants are certified when their relative variation over the grid
    stays below `stability` (20% by default); the grid range becomes the
    empirical (b0, b1) window.  The minimum sits on near pairs, so the sweep
    is capped at `max_offset`.
    """
    if m_of_b is None:
        def m_of_b(b):
            m = round(2 * math.pi / (1.4 * b * b))
            return m + (m % 2)
    rows = []
    for b in bs:
        params = NecklaceParams(b=b, m=m_of_b(b))
        rep = verify_disjointness(params, max_offset=max_offset)
        rows.append({"b": b, "m": params.m, "c0": rep["c0"], "c1": rep["c1"]})
    c0s = [r["c0"] for r in rows]
    c1s = [r["c1"] for r in rows]

    def spread(xs):
        return (max(xs) - min(xs)) / max(xs)

    return {
        "rows": rows,
        "c0_spread": spread(c0s),
        "c1_spread": spread(c1s),
        "stable": bool(spread(c0s) < stability and spread(c1s) < stability),
        "b_window": (min(bs), max(bs)),
    }


def jacobian_exponent(params):
    """s = -4 log(2mb)/log(b), the distance-to-set Jacobian exponent."""
    return params.jacobian_exponent()
