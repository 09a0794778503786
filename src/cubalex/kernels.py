"""Numpy kernels: batch distances to the model core torus and their
gradients."""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"


def torus_distances(points, b, flat):
    """Distances from 4-d points to the model core torus.

    flat=0: the round torus (revolved meridian), distance
        sqrt(x1^2 + (sqrt(x2^2 + (r-1)^2) - b)^2),  r = sqrt(x3^2 + x4^2);
    flat=1: the flat torus S^1(b) x S^1(1),
        sqrt((sqrt(x1^2+x2^2) - b)^2 + (r-1)^2).
    """
    p = np.asarray(points, dtype=np.float64)
    r = np.hypot(p[:, 2], p[:, 3])
    if flat:
        s = np.hypot(p[:, 0], p[:, 1])
        return np.hypot(s - b, r - 1.0)
    s = np.hypot(p[:, 1], r - 1.0)
    return np.hypot(p[:, 0], s - b)


def torus_distance_gradients(points, b, flat):
    """Distances to the model core torus and their gradients (x - q) / d.

    q is the foot point on the core: x with its radii s and r (as in
    torus_distances) moved onto the core and its angles kept, so the
    gradient is the chain rule of d through s and r.  Valid where d > 0 and
    s, r > 0, which holds at distances 0 < d < b, inside the core's reach.
    """
    p = np.asarray(points, dtype=np.float64)
    r = np.hypot(p[:, 2], p[:, 3])
    grad = np.empty_like(p)
    if flat:
        s = np.hypot(p[:, 0], p[:, 1])
        d = np.hypot(s - b, r - 1.0)
        grad[:, :2] = p[:, :2] * ((s - b) / (s * d))[:, None]
        grad[:, 2:] = p[:, 2:] * ((r - 1.0) / (r * d))[:, None]
        return d, grad
    s = np.hypot(p[:, 1], r - 1.0)
    d = np.hypot(p[:, 0], s - b)
    k = (s - b) / (s * d)
    grad[:, 0] = p[:, 0] / d
    grad[:, 1] = p[:, 1] * k
    grad[:, 2:] = p[:, 2:] * (k * (r - 1.0) / r)[:, None]
    return d, grad

