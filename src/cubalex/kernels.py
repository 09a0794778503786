"""Numpy kernels: batch torus distances, their gradients, and the field of a
circular loop."""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"

AGM_STEPS = 16  # the AGM converges quadratically; 16 steps reach 1 - m = 1e-300


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


def ellipke(m, mc):
    """Complete elliptic integrals K(m) and K(m) - E(m), with mc = 1 - m.

    Arithmetic-geometric mean (Abramowitz & Stegun 17.6): a0 = 1,
    b0 = sqrt(mc), c0 = sqrt(m), K = pi / (2 a_N) and
    K - E = K * sum_n 2^(n-1) c_n^2.  Taking m and mc separately keeps K
    accurate near m = 1; c_{n+1} = c_n^2 / (4 a_{n+1}) and returning K - E
    keep the small-m end free of cancellation.
    """
    a, g, c2 = np.ones_like(m), np.sqrt(mc), m
    w, s = 0.5, 0.5 * m
    for _ in range(AGM_STEPS):
        a, g = 0.5 * (a + g), np.sqrt(a * g)
        c2 = c2 * c2 / (16 * a * a)
        w *= 2
        s = s + w * c2
    K = np.pi / (2 * a)
    return K, K * s


def loop_field(rho, z, a):
    """Field (B_rho, B_z) of a unit current (mu0 I = 1) on a circle.

    The circle has radius a, lies in the plane z = 0 around the z axis and
    runs counterclockwise seen from z > 0; (rho, z) are cylindrical
    coordinates of the field points (Jackson section 5.5, Simpson et al.
    2001).  With d± = (a ± rho)^2 + z^2 and m = 4 a rho / d+,
        B_z   = (K + (a^2 - rho^2 - z^2) E / d-) / (2 pi sqrt(d+)),
        B_rho = z (2 a E / d- - (K - E) / rho) / (2 pi sqrt(d+)),
    the second written so that it tends to 0 on the axis without cancelling.
    """
    dp = (a + rho) ** 2 + z * z
    dm = (a - rho) ** 2 + z * z
    K, KmE = ellipke(4 * a * rho / dp, dm / dp)
    E = K - KmE
    pre = 1 / (2 * np.pi * np.sqrt(dp))
    bz = pre * (K + (a * a - rho * rho - z * z) * E / dm)
    off_axis = rho > 0
    kme_over_rho = np.divide(KmE, rho, out=np.zeros_like(rho), where=off_axis)
    brho = np.where(off_axis, pre * z * (2 * a * E / dm - kme_over_rho), 0.0)
    return brho, bz
