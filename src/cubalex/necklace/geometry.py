"""Core tori, marked circles, and closed-form distances.

The round core kappa(b) revolves the meridian gamma around the (x1,x2)
hyperplane; the flat core is S^1(b) x S^1.  Every child is the image of a
model under rho^j o child_map, so every distance reduces to the two model
closed forms and every marked circle to the image of gamma.
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


def model_core_slopes(pattern, b, u, v, w):
    """Rowwise dot products (w . X_u, w . X_v) of 4-vectors w with the
    partials of model_core_point at (u, v).

    The partials are orthogonal, |X_u| = b and |X_v| <= 1 + b; the second
    partials have norms |X_uu| = b, |X_uv| <= b and |X_vv| <= 1 + b.
    """
    su, cu, sv, cv = np.sin(u), np.cos(u), np.sin(v), np.cos(v)
    w1, w2, w3, w4 = w.T
    along_v = cv * w4 - sv * w3
    if pattern == ROUND:
        return (b * (cu * (cv * w3 + sv * w4) - su * w2),
                (1.0 + b * su) * along_v)
    return b * (cu * w2 - su * w1), along_v


def dist_to_core(x, pattern, b):
    """Closed-form distance from 4-points to the model core torus."""
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    out = torus_distances(pts, b, 0 if pattern == ROUND else 1)
    return out if np.ndim(x) > 1 else float(out[0])


def sample_model_torus(pattern, b, n_phi, n_theta):
    """The model core torus on an n_phi x n_theta grid of angles."""
    P, T = np.meshgrid(np.linspace(0, 2 * np.pi, n_phi, endpoint=False),
                       np.linspace(0, 2 * np.pi, n_theta, endpoint=False),
                       indexing="ij")
    return model_core_point(pattern, b, P.ravel(), T.ravel())


def child_map(b, tilde=False):
    """Phi o lambda (Psi o lambda with tilde): a child before its rotation."""
    return (PSI if tilde else PHI).compose(scaling(b))


def tau_similarity(j, m, b, tilde=False):
    """S_j with tau_j = S_j(model core): rho^j o child_map."""
    return rotation(j, m).compose(child_map(b, tilde))


def dist_point_to_tau(x, j, m, b, tilde=False):
    """Closed-form distance from points to tau_j (or tilde tau_j)."""
    S = tau_similarity(j, m, b, tilde)
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    d = dist_to_core(S.inverse()(pts), pattern_of_child(j), b) * S.scale
    return d if np.ndim(x) > 1 else float(np.atleast_1d(d)[0])


def sample_core(j, m, b, n_phi=64, n_theta=256, tilde=False):
    """Point sample of the core torus tau_j."""
    S = tau_similarity(j, m, b, tilde)
    return S(sample_model_torus(pattern_of_child(j), b, n_phi, n_theta))


def circle_frame(S, pattern, b):
    """Centre, orthonormal axes and radius of the marked circle S(gamma).

    S(gamma)(t) = centre + radius (cos t axis1 + sin t axis2), where gamma is
    e3 + b (cos t e2 + sin t e3) on the round model and e3 + b (cos t e1 +
    sin t e2) on the flat one.
    """
    e = np.eye(4)
    u, v = (e[1], e[2]) if pattern == ROUND else (e[0], e[1])
    return S(e[2]), S.A @ u, S.A @ v, b * S.scale


def circle_points(frame, nodes):
    """`nodes` equally spaced points of a circle."""
    c, a1, a2, r = frame
    t = np.linspace(0, 2 * np.pi, nodes, endpoint=False)[:, None]
    return c + r * (np.cos(t) * a1 + np.sin(t) * a2)
