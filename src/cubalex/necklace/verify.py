"""Numerical verification of the necklace claims.

Disjointness brackets pairwise core distances over representative index
pairs (rotation by two steps is a symmetry of the chain) by branch-and-bound,
with a cell bound of first order everywhere and of second order (gradient
and curvature) inside the core's reach; containment samples the closed-form
core distance; linking counts crossings through flat disks, an exact
integer that the polygon's clearance from the circle certifies; all
thresholds come from the construction's own inequalities.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers

import numpy as np

from ..errors import (
    IntegralNotConverged, MinimizationNotConverged, ParamsInvalid,
    SamplingBudgetExceeded, check_count,
)
from ..kernels import torus_distance_gradients, torus_distances
from .geometry import (
    ROUND, child_map, circle_frame, circle_points,
    dist_point_to_tau, dist_to_core, model_core_point, model_core_slopes,
    pattern_of_child, sample_core, sample_model_torus, tau_similarity,
)
from .transforms import rotation


GAP = 1e-2                # relative gap at which branch-and-bound stops a pair
MAX_LIVE_CELLS = 1 << 20  # live cells above this raise MinimizationNotConverged
CHUNK = 1 << 16           # cells per distance evaluation, which bounds memory
CHORD_MARGIN = 3.0        # tube extents a chord must exceed to skip a pair


def _check_tol(tol):
    """ParamsInvalid unless tol is finite and >= 0."""
    if not (isinstance(tol, numbers.Real) and math.isfinite(tol) and tol >= 0):
        raise ParamsInvalid(f"tol = {tol!r}, need a finite number >= 0")


def _pair_objective(i, j, m, b, tilde):
    """f(u1, u2) = dist(tau_i(u1, u2), tau_j) / b, over tau_i's two angles.

    Both cores have scale b, so M = S_j^-1 o S_i is an isometry and f is the
    closed-form model distance D from Y = M(model_i(u)) to tau_j's model
    core.  With gradient=True, f also returns its partials
    df/du_k = grad D(Y) . A X_k, X_k the partials of model_i.
    """
    M = tau_similarity(j, m, b, tilde).inverse().compose(
        tau_similarity(i, m, b, tilde))
    pi, flat_j = pattern_of_child(i), pattern_of_child(j) != ROUND

    def f(u1, u2, gradient=False):
        out = np.empty((3, len(u1)))
        for lo in range(0, len(u1), CHUNK):
            part = slice(lo, lo + CHUNK)
            v1, v2 = u1[part], u2[part]
            y = M(model_core_point(pi, b, v1, v2))
            if not gradient:
                out[0, part] = torus_distances(y, b, flat_j)
                continue
            out[0, part], grad = torus_distance_gradients(y, b, flat_j)
            # rows A^T grad D: the gradient in model_i's frame
            out[1:, part] = model_core_slopes(pi, b, v1, v2, grad @ M.A)
        return out if gradient else out[0]
    return f


def _cell_radius(b, h1, h2):
    """Bound on |model(u) - model(c)| over a cell of half-widths (h1, h2).

    The torus partials are orthogonal with norms b and at most 1 + b, and the
    distance is 1-Lipschitz in the point, so f >= f(c) - radius on the cell.
    """
    return np.hypot(b * h1, (1 + b) * h2)


def _cell_lower_bound(b, fc, g1, g2, h1, h2):
    """Lower bound of f over cells of centre value fc, centre partials (g1,
    g2) and half-widths (h1, h2), and where its second-order term won.

    The first-order bound is fc - r, r = _cell_radius.  When fc - r > 0 and
    fc + r < b, the whole cell maps inside the core's reach b, where the
    distance D is smooth with Hessian >= -1/(b - D) >= -L, L = 1/(b - fc - r).
    Along the segment from the centre, the second derivative of f is then at
    least -L |X_1 d1 + X_2 d2|^2 - |X_11 d1^2 + 2 X_12 d1 d2 + X_22 d2^2|, so
    f >= fc - |g1| h1 - |g2| h2 - (L (b^2 h1^2 + (1+b)^2 h2^2) + b h1^2
    + 2 b h1 h2 + (1+b) h2^2) / 2 (see model_core_slopes for the norms).
    The larger of the two bounds holds.
    """
    r = _cell_radius(b, h1, h2)
    first = fc - r
    smooth = (first > 0) & (fc + r < b)
    lam = 1 / np.where(smooth, b - fc - r, 1.0)
    curvature = (lam * ((b * h1) ** 2 + ((1 + b) * h2) ** 2)
                 + b * h1 * h1 + 2 * b * h1 * h2 + (1 + b) * h2 * h2)
    second = fc - np.abs(g1) * h1 - np.abs(g2) * h2 - curvature / 2
    by_curvature = smooth & (second > first)
    return np.where(by_curvature, second, first), by_curvature


def _branch_and_bound(f, b, best, work):
    """Branch-and-bound of f over the angle torus, by gradient and curvature.

    Each cell is bounded below by _cell_lower_bound: the Lipschitz bound
    f(c) - r everywhere, and inside the core's reach the second-order bound
    from the partials at the centre, whichever is larger.  A cell is done
    once its lower bound reaches (1 - GAP) * best, where best is the
    smallest value evaluated so far, this pair's or an earlier pair's of the
    same family.  Returns (best, (u, half-widths) of the cell where this
    pair improved on it or None, the smallest lower bound of a finished
    cell), and adds to the counters in `work`: cells evaluated, the peak
    number of live cells, and finished cells whose second-order bound beat
    the first-order one.
    """
    c1 = c2 = np.array([np.pi])
    h1 = h2 = np.array([np.pi])
    lower, arg = math.inf, None
    while len(c1):
        if len(c1) > MAX_LIVE_CELLS:
            raise MinimizationNotConverged(
                f"{len(c1)} live cells, above the cap of {MAX_LIVE_CELLS}")
        work["cells_live_peak"] = max(work["cells_live_peak"], len(c1))
        fc, g1, g2 = f(c1, c2, gradient=True)
        work["cells_evaluated"] += len(fc)
        k = int(np.argmin(fc))
        if fc[k] < best:
            best = float(fc[k])
            arg = (np.array([c1[k], c2[k]]), np.array([h1[k], h2[k]]))
        lb, by_curvature = _cell_lower_bound(b, fc, g1, g2, h1, h2)
        live = lb < (1 - GAP) * best
        if not live.all():
            lower = min(lower, float(lb[~live].min()))
            work["cells_closed_by_curvature"] += int(
                np.count_nonzero(by_curvature & ~live))
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
    return best, arg, lower


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


def representative_pairs(m, b):
    """Index pairs (i, j) covering every rho^2-orbit that can be close.

    Classes are (parity of i, offset); offsets whose center chord exceeds
    CHORD_MARGIN tube extents are certified apart by the chord bound.
    Returns (near pairs, number of certified pairs, the least certified
    distance bound, inf when none is certified).

    The chord grows with the offset d <= m/2, so the certified offsets are
    the range d0..m/2 for both parities.  d0 is found in closed form, with
    asin, and then set by the scalar `chord` itself; the least bound is
    that expression at d0.
    """
    beta = 2 * math.pi / m
    extent = b * (2 + 2 * b)  # conservative radius of a child tube around its center

    def chord(d):
        return 2 * (1 - b) * math.sin(min(d, m - d) * beta / 2)

    def certified(d):
        return chord(d) - CHORD_MARGIN * extent > 0

    half, t = m // 2, CHORD_MARGIN * extent / (2 * (1 - b))
    d0 = min(half + 1, math.floor(2 * math.asin(min(t, 1)) / beta) + 1)
    while d0 > 1 and certified(d0 - 1):
        d0 -= 1
    while d0 <= half and not certified(d0):
        d0 += 1
    near = [(i, i + d) for i in (1, 2) for d in range(1, d0)]
    count = 2 * (half + 1 - d0)
    return near, count, chord(d0) - 2 * extent if count else math.inf


def verify_disjointness(params, seed=0, max_offset=None):
    """Certified core-separation constants and the tube-disjointness check.

    For each near pair, a branch-and-bound over tau_i's two angles
    (_branch_and_bound) brackets min dist(tau_i, tau_j) between a certified
    lower bound and an evaluated best value; offset-1 pairs go first, so
    later pairs stop against their family's best.  The report has
    c0 = min dist(tau_i, tau_j)/b^2 and c1 for the tilde family (best values
    found), their lower bounds c0_lower and c1_lower, the relative gap
    between the two, and rho = min(c0, c1)/10.  pass = (min(c0_lower,
    c1_lower) > 2 rho), which makes the child tubes of radius rho*b^2
    pairwise disjoint, and the rotation equivariance dist(tau_i,tau_j) =
    dist(tau_{i+2},tau_{j+2}) holds.  Chord-certified pairs are never
    searched.  `max_offset` truncates the pair sweep to the offsets up to it,
    for runs where only the near-pair minimum matters (the benchmark's
    near-pair operation, fast unit tests).  The report also carries the
    work: cells evaluated, the peak number of live cells (against
    MAX_LIVE_CELLS), and the finished cells that the second-order bound
    closed.
    """
    b, m = params.b, params.m
    near, certified, cert_bound = representative_pairs(m, b)
    if max_offset is not None:
        near = [(i, j) for i, j in near if j - i <= max_offset]
    near.sort(key=lambda ij: (ij[1] - ij[0], ij[0]))
    report = {"pairs_minimized": 2 * len(near),
              "pairs_certified": certified,
              "chord_lower": cert_bound / b ** 2, "cells_evaluated": 0,
              "cells_live_peak": 0, "cells_closed_by_curvature": 0}
    mins, lowers = {}, {}
    for tilde in (False, True):
        best, lower, best_at = math.inf, math.inf, None
        for i, j in near:
            f = _pair_objective(i, j, m, b, tilde)
            best, arg, pair_lower = _branch_and_bound(f, b, best, report)
            if arg is not None:
                best_at = (f, *arg)
            lower = min(lower, pair_lower)
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
    rho = dataclasses.replace(params, c0=c0, c1=c1).rho

    # rotation equivariance at the point level, both families
    equiv_err = 0.0
    rng = np.random.default_rng(seed)
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
    embedding cases.  The nesting inequality rho b'^2 + b'^2 < rho b'/5
    holds iff 0 < b' < threshold = rho / (5 (1 + rho)); it passes when the
    strict regime b' < rho/10 lies below the threshold, that is rho <= 1,
    and the report gives the threshold and its margin over the actual b.
    ParamsInvalid unless n_phi and n_theta are integers >= 1 and tol is
    finite and >= 0.
    """
    b = params.b
    check_count("n_phi", n_phi, 1)
    check_count("n_theta", n_theta, 1)
    _check_tol(tol)
    if n_phi * n_theta > 4_000_000:
        raise SamplingBudgetExceeded(f"{n_phi}x{n_theta} samples requested")
    cases = {}
    for name, child_pattern, parent_pattern in (
            ("phi.round", "T", "T"),
            ("phi.flat", "T~", "T"),
            ("psi.round", "T", "T~"),
            ("psi.flat", "T~", "T~")):
        pts = child_map(b, parent_pattern != ROUND)(
            sample_model_torus(child_pattern, b, n_phi, n_theta))
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
        threshold = rho / (5 * (1 + rho))
        nesting = bool(rho / 10 <= threshold)
        report.update({
            "nesting_threshold": threshold,
            "nesting_margin_at_b": threshold - b,
            "nesting_holds_below_rho_over_10": nesting,
            "nesting_at_b": bool(b < threshold),
            "strict_regime": params.strict_conforming(),
            "pass_nesting": nesting,
            "pass": report["pass_core"] and nesting,
        })
    else:
        report["pass"] = report["pass_core"]
    return report


def _axes(frame):
    """Rows: a circle's two axes and the normal of its plane, in R^3."""
    _, a1, a2, _ = frame
    return np.stack([a1, a2, np.cross(a1, a2)])


def disk_crossings(frame, q):
    """Signed crossings of the closed polyline q through a circle's flat disk.

    A segment crosses when its end heights h above the disk's plane fall on
    either side of the half-open split h > 0 against h <= 0, and the crossing
    point lies inside the radius; crossings toward h > 0 count +1.  The count
    is the intersection number with the disk pushed slightly toward h > 0,
    so it is lk(circle, q) whenever q stays away from the circle.  Returns
    the count and the margin: the smallest distance from a vertex of q to
    the circle minus half of q's longest segment, which bounds dist(q,
    circle) from below.
    """
    c, _, _, r = frame
    x, y, h = ((q - c) @ _axes(frame).T).T
    up = h > 0
    nxt = np.roll(np.arange(len(q)), -1)
    k = np.flatnonzero(up != up[nxt])
    s = h[k] / (h[k] - h[nxt[k]])
    xc = x[k] + s * (x[nxt[k]] - x[k])
    yc = y[k] + s * (y[nxt[k]] - y[k])
    inside = xc * xc + yc * yc < r * r
    lk = int(np.where(up[nxt[k]], 1, -1)[inside].sum())
    longest = float(np.linalg.norm(q[nxt] - q, axis=1).max())
    margin = float(np.hypot(h, np.hypot(x, y) - r).min()) - longest / 2
    return lk, margin


def circle_linking(frame_i, frame_j, nodes, tol):
    """Exact linking number of two round circles in R^3, with its certificate.

    Frames are (centre, axis1, axis2, radius).  lk counts the crossings of
    circle j's inscribed `nodes`-gon through circle i's disk, which is
    lk(circle i, polygon) (disk_crossings).  Each point of circle j lies
    within chord_error = r_j (1 - cos(pi/nodes)) of the polygon point on its
    radius, so the straight-line homotopy from circle j to the polygon stays
    at least margin - chord_error away from circle i; while that is
    positive, the homotopy never meets circle i and lk is also the linking
    number of the two circles.  `tol` is the clearance demanded beyond the
    chord error, in units of r_j: the count is certified when margin >
    threshold = chord_error + tol r_j, and IntegralNotConverged is raised
    otherwise.
    """
    q = circle_points(frame_j, nodes)
    lk, margin = disk_crossings(frame_i, q)
    chord_error = frame_j[3] * (1 - math.cos(math.pi / nodes))
    threshold = chord_error + tol * frame_j[3]
    if not margin > threshold:
        raise IntegralNotConverged(
            f"margin {margin:.3g} <= threshold {threshold:.3g} (chord error "
            f"{chord_error:.3g} + tol {tol:g} x radius) at {nodes} nodes")
    return {"lk": lk, "margin": margin, "chord_error": chord_error,
            "threshold": threshold}


FLAT = [0, 2, 3]  # x1, x3, x4: coordinates of the x2 = 0 flat of every sigma_j


def verify_linking(params, nodes=10_000, tol=1e-3):
    """Exact linking numbers of the marked circles in the x2 = 0 flat.

    |lk| = 1 for cyclically adjacent circles (wraparound included) and 0 for
    offsets 2 and 3, over seven fixed pairs, the wraparound (m, 1) among
    them.  Each pair's lk is the crossing count of sigma_j's `nodes`-gon
    through sigma_i's disk, an integer, and the straight-line homotopy from
    sigma_j to that polygon proves it equal to lk(sigma_i, sigma_j) once
    margin > threshold = chord_error + tol r_j: `tol` is the clearance,
    relative to sigma_j's radius, that the certificate demands beyond the
    chord error (see circle_linking).  ParamsInvalid unless nodes is an
    integer >= 8 and tol is finite and >= 0.
    """
    b, m = params.b, params.m
    check_count("nodes", nodes, 8)
    _check_tol(tol)

    @functools.cache  # a circle is in up to four of the seven pairs
    def frame(j):
        c, a1, a2, r = circle_frame(tau_similarity(j, m, b),
                                    pattern_of_child(j), b)
        off = max(abs(c[1]), abs(a1[1]), abs(a2[1]))
        if off > 1e-12:
            raise IntegralNotConverged(
                f"sigma_{j} leaves the x2=0 flat by {off}")
        return c[FLAT], a1[FLAT], a2[FLAT], r

    results = {}
    for i, j in ((1, 2), (2, 3), (1, 3), (2, 4), (1, 4), (2, 5), (m, 1)):
        try:
            rec = circle_linking(frame(i), frame(j), nodes, tol)
        except IntegralNotConverged as exc:
            raise IntegralNotConverged(f"sigma_{i}, sigma_{j}: {exc}") from exc
        offset = min((j - i) % m, (i - j) % m)
        expected = 1 if offset == 1 else 0
        results[f"{i},{j}"] = {**rec, "expected_abs": expected,
                               "pass": abs(rec["lk"]) == expected}
    return {"nodes": nodes, "pairs": results,
            "pass": all(r["pass"] for r in results.values())}
