"""Elliptic integrals, the loop field, and exact linking of round circles,
checked against the exact-polygon linking oracle."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cubalex import kernels
from cubalex.errors import IntegralNotConverged
from cubalex.necklace import geometry as ge
from cubalex.necklace import verify as ve


def polygon_linking_oracle(ls, ks):
    """Exact linking number of two closed polygons (solid-angle formula)."""
    ls = np.vstack([ls, ls[:1]])
    ks = np.vstack([ks, ks[:1]])
    total = 0.0
    for i in range(len(ks) - 1):
        for j in range(len(ls) - 1):
            a = ls[j] - ks[i]
            b = ls[j] - ks[i + 1]
            c = ls[j + 1] - ks[i + 1]
            d = ls[j + 1] - ks[i]
            p = np.dot(a, np.cross(b, c))
            an, bn, cn, dn = (np.linalg.norm(v) for v in (a, b, c, d))
            d1 = an * bn * cn + np.dot(a, b) * cn + np.dot(b, c) * an + np.dot(c, a) * bn
            d2 = an * dn * cn + np.dot(a, d) * cn + np.dot(d, c) * an + np.dot(c, a) * dn
            total += np.arctan2(p, d1) + np.arctan2(p, d2)
    return total / (2 * np.pi)


X, Y, Z = np.eye(3)


def frame(centre, a1, a2, r):
    return np.asarray(centre, dtype=float), a1, a2, r


def circles():
    """A Hopf-linked pair (each through the other's centre) and a far one."""
    return (frame([0, 0, 0], X, Y, 1.0), frame([1, 0, 0], X, Z, 1.0),
            frame([5, 0, 0], X, Y, 1.0))


def test_linked_circles():
    f1, f2, f3 = circles()
    linked = ve.circle_linking(f1, f2, 400, 1e-3)
    assert abs(linked["lk"]) == 1 and linked["margin"] > linked["chord_error"]
    assert ve.circle_linking(f1, f3, 400, 1e-3)["lk"] == 0


def test_gauss_sum_matches_polygon_oracle():
    # the closed-form field integral against the polygons' exact linking
    f1, f2, _ = circles()
    lk_exact = polygon_linking_oracle(ge.circle_points(f1, 120)[0],
                                      ge.circle_points(f2, 120)[0])
    lk_field = ve.field_integral(f1, f2, 120)
    assert abs(lk_exact - round(lk_exact)) < 1e-9  # oracle is exact
    assert abs(lk_field - lk_exact) < 5e-3


def test_nearly_touching_circles_fail_at_low_nodes():
    # circle 2 passes within 0.01 of circle 1, closer than the 8-gon's chords
    f1 = frame([0, 0, 0], X, Y, 1.0)
    f2 = frame([2.01, 0, 0], X, Z, 1.0)
    with pytest.raises(IntegralNotConverged, match="margin"):
        ve.circle_linking(f1, f2, 8, 1e-3)
    rec = ve.circle_linking(f1, f2, 2000, 1e-3)
    assert rec["lk"] == 0 and rec["margin"] > rec["chord_error"]


def test_unconverged_field_integral_raises(monkeypatch):
    f1 = frame([0, 0, 0], X, Y, 1.0)
    f2 = frame([2.01, 0, 0], X, Z, 1.0)
    # the count is certified at 400 nodes, but the field integral this close
    # to the wire still moves by about 0.14 between 200 and 400 nodes
    with pytest.raises(IntegralNotConverged, match="half resolution"):
        ve.circle_linking(f1, f2, 400, 1e-3)
    monkeypatch.setattr(ve, "field_integral", lambda fi, fj, nodes: 0.5)
    with pytest.raises(IntegralNotConverged, match="crossing count"):
        ve.circle_linking(f1, f2, 2000, 1e-3)


def test_ellipke_matches_scipy():
    from scipy.special import ellipe, ellipk, ellipkm1
    m = np.concatenate([np.linspace(0, 0.999, 50), [1e-12, 1 - 1e-9]])
    K, KmE = kernels.ellipke(m, 1 - m)
    assert np.allclose(K, ellipk(m), rtol=1e-14, atol=0)
    assert np.allclose(K - KmE, ellipe(m), rtol=1e-14, atol=0)
    mc = np.array([1e-12, 1e-30, 1e-100])
    assert np.allclose(kernels.ellipke(1 - mc, mc)[0], ellipkm1(mc), rtol=1e-14)


def test_loop_field_matches_biot_savart():
    a, n = 1.3, 20_000
    t = np.linspace(0, 2 * np.pi, n, endpoint=False)
    wire = a * np.c_[np.cos(t), np.sin(t), 0 * t]
    dl = a * np.c_[-np.sin(t), np.cos(t), 0 * t] * (2 * np.pi / n)
    pts = np.array([[0.4, 0, 0.3], [2.0, 0, -0.7], [1e-9, 0, 0.5],
                    [0, 0, 0.5], [1.29, 0, 0.01]])
    brho, bz = kernels.loop_field(pts[:, 0], pts[:, 2], a)
    for p, want_rho, want_z in zip(pts, brho, bz):
        d = p - wire
        B = (np.cross(dl, d) / np.linalg.norm(d, axis=1)[:, None] ** 3).sum(0)
        B /= 4 * np.pi
        assert B == pytest.approx([want_rho, 0, want_z], rel=1e-9, abs=1e-12)


def rotation3(q):
    """Rotation matrix of the quaternion q (not necessarily unit)."""
    w, x, y, z = np.asarray(q) / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


unit = st.floats(-1, 1)
quaternion = st.tuples(unit, unit, unit, unit).filter(
    lambda q: np.linalg.norm(q) > 0.1)


@st.composite
def circle_pairs(draw):
    """Circle 1 is the unit circle in the z = 0 plane; circle 2 is chosen
    Hopf-linked, coplanar (disjoint or nested) or general, then both move
    by one random rotation, which includes the identity."""
    kind = draw(st.sampled_from(["hopf", "coplanar", "general"]))
    r = draw(st.floats(0.2, 2.0))
    if kind == "hopf":
        # circle 2 in a tilted plane through the x axis, centred at (d, 0, 0):
        # it meets the z = 0 plane at d - r and d + r on the x axis
        d, tilt = draw(st.floats(0.0, 3.0)), draw(st.floats(-1.2, 1.2))
        a2 = draw(st.sampled_from([1, -1])) * np.array(
            [0, math.sin(tilt), math.cos(tilt)])
        f2 = frame([d, 0, 0], X, a2, r)
    elif kind == "coplanar":
        d, phi = draw(st.floats(0.0, 4.0)), draw(st.floats(0, 2 * math.pi))
        f2 = frame(d * np.array([math.cos(phi), math.sin(phi), 0]), X, Y, r)
    else:
        c = [draw(st.floats(-2, 2)) for _ in range(3)]
        Q = rotation3(draw(quaternion))
        f2 = frame(c, Q[:, 0], Q[:, 1], r)
    f1 = frame([0, 0, 0], X, Y, 1.0)
    if draw(st.booleans()):
        R = rotation3(draw(quaternion))
        f1, f2 = ((R @ c, R @ a1, R @ a2, rad) for c, a1, a2, rad in (f1, f2))
    return f1, f2


@settings(max_examples=60, deadline=None)
@given(pair=circle_pairs(), n1=st.integers(12, 40), n2=st.integers(12, 40))
def test_crossings_match_polygon_oracle(pair, n1, n2):
    # the polygon inscribed in circle 1 links polygon 2 as circle 1 does
    # once polygon 2 stays farther from circle 1 than the polygon's chords
    f1, f2 = pair
    poly2 = ge.circle_points(f2, n2)[0]
    lk, margin = ve.disk_crossings(f1, poly2)
    # the margin bounds the distance from every point of polygon 2 to circle 1
    s = np.linspace(0, 1, 33)[:, None, None]
    dense = (poly2 + s * (np.roll(poly2, -1, axis=0) - poly2)).reshape(-1, 3)
    c, a1, a2, r = f1
    v = dense - c
    n = np.cross(a1, a2)
    assert margin <= np.hypot(v @ n, np.hypot(v @ a1, v @ a2) - r).min() + 1e-12
    assume(margin > r * (1 - math.cos(math.pi / n1)))
    oracle = polygon_linking_oracle(ge.circle_points(f1, n1)[0], poly2)
    assert abs(oracle - round(oracle)) < 1e-6
    assert lk == round(oracle)
