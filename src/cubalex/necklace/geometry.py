"""Core tori, marked circles, and closed-form distances.

The round core kappa(b) revolves the meridian gamma around the (x1,x2)
hyperplane; the flat core is S^1(b) x S^1.  Child cores are similarity
images, so every distance reduces to the two model closed forms.
"""

from __future__ import annotations

import numpy as np

from ..kernels import torus_distances
from .transforms import PHI, PSI, rotation, scaling

ROUND, FLAT = "T", "T~"


def pattern_of_child(j):
    """Even children copy the round tube, odd children the flat one."""
    return ROUND if j % 2 == 0 else FLAT


def model_core_point(pattern, b, u, v):
    """Points of the model core torus at angles (u, v), elementwise."""
    if pattern == ROUND:
        r = 1.0 + b * np.sin(u)
        return np.stack([np.zeros_like(u), b * np.cos(u),
                         r * np.cos(v), r * np.sin(v)], axis=-1)
    return np.stack([b * np.cos(u), b * np.sin(u), np.cos(v), np.sin(v)],
                    axis=-1)


def model_core_points(pattern, b, phis, thetas):
    """Points of the model core torus at the given angle grids."""
    P, T = np.meshgrid(phis, thetas, indexing="ij")
    return model_core_point(pattern, b, P.ravel(), T.ravel())


def dist_to_core(x, pattern, b):
    """Closed-form distance from 4-points to the model core torus."""
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    out = torus_distances(pts, b, 0 if pattern == ROUND else 1)
    return out if np.ndim(x) > 1 else float(out[0])


def sample_model_torus(pattern, b, n_phi, n_theta):
    phis = np.linspace(0, 2 * np.pi, n_phi, endpoint=False)
    thetas = np.linspace(0, 2 * np.pi, n_theta, endpoint=False)
    return model_core_points(pattern, b, phis, thetas)


def tau_similarity(j, m, b):
    """S_j with tau_j = S_j(model core): rho^j o Phi o lambda."""
    return rotation(j, m).compose(PHI).compose(scaling(b))


def tilde_tau_similarity(j, m, b):
    return rotation(j, m).compose(PSI).compose(scaling(b))


def dist_point_to_tau(x, j, m, b, tilde=False):
    """Closed-form distance from points to tau_j (or tilde tau_j)."""
    S = (tilde_tau_similarity if tilde else tau_similarity)(j, m, b)
    inv = S.inverse()
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    d = dist_to_core(inv(pts), pattern_of_child(j), b) * S.scale
    return d if np.ndim(x) > 1 else float(np.atleast_1d(d)[0])


def core_center(j, m, b):
    """Center z_j of the marked circle sigma_j, on the longitude l."""
    return tau_similarity(j, m, b)(np.array([0.0, 0.0, 1.0, 0.0]))


def sigma_frame(j, m, b):
    """Centre, orthonormal axes and radius of the marked circle sigma_j.

    sigma_j(t) = centre + radius (cos t axis1 + sin t axis2) is the image
    under S_j of the model circle e3 + b (cos t e2 + sin t e3) for even j and
    e3 + b (cos t e1 + sin t e2) for odd j.
    """
    S = tau_similarity(j, m, b)
    e = np.eye(4)
    u, v = (e[1], e[2]) if j % 2 == 0 else (e[0], e[1])
    return S(e[2]), S.A @ u, S.A @ v, b * S.scale


def marked_circle_model(j_parity_even, b, nodes):
    """gamma (even) or gamma-tilde (odd) as a model polyline."""
    t = np.linspace(0, 2 * np.pi, nodes, endpoint=False)
    if j_parity_even:
        return np.stack([
            np.zeros_like(t), b * np.cos(t), 1.0 + b * np.sin(t),
            np.zeros_like(t),
        ], axis=-1)
    return np.stack([
        b * np.cos(t), b * np.sin(t), np.ones_like(t), np.zeros_like(t),
    ], axis=-1)


def sigma_polyline(j, m, b, nodes):
    """The j-th marked circle sigma_j as a closed polyline in R^4."""
    model = marked_circle_model(j % 2 == 0, b, nodes)
    return tau_similarity(j, m, b)(model)


def sigma_tilde_polyline(j, m, b, nodes):
    model = marked_circle_model(j % 2 == 0, b, nodes)
    return tilde_tau_similarity(j, m, b)(model)


def sample_core(j, m, b, n_phi=64, n_theta=256, tilde=False):
    """Point sample of the core torus tau_j."""
    S = (tilde_tau_similarity if tilde else tau_similarity)(j, m, b)
    return S(sample_model_torus(pattern_of_child(j), b, n_phi, n_theta))
