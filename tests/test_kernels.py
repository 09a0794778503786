"""Exact linking of round circles by certified crossing counts, checked
against the exact-polygon linking oracle."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cubalex import necklace as nk
from cubalex.errors import IntegralNotConverged
from cubalex.necklace import geometry as ge
from cubalex.necklace import verify as ve


def dot(u, v):
    return np.einsum("ij,ij->i", u, v)


def polygon_linking_oracle(ls, ks):
    """Exact linking number of two closed polygons (solid-angle formula),
    each segment of ks against all of ls's segments at once."""
    ls_next = np.roll(ls, -1, axis=0)
    total = 0.0
    for k0, k1 in zip(ks, np.roll(ks, -1, axis=0)):
        a, b, c, d = ls - k0, ls - k1, ls_next - k1, ls_next - k0
        p = dot(a, np.cross(b, c))
        an, bn, cn, dn = (np.linalg.norm(v, axis=1) for v in (a, b, c, d))
        d1 = an * bn * cn + dot(a, b) * cn + dot(b, c) * an + dot(c, a) * bn
        d2 = an * dn * cn + dot(a, d) * cn + dot(d, c) * an + dot(c, a) * dn
        total += (np.arctan2(p, d1) + np.arctan2(p, d2)).sum()
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


def test_nearly_touching_circles_fail_at_low_nodes():
    # circle 2 passes within 0.01 of circle 1, closer than the 8-gon's chords
    f1 = frame([0, 0, 0], X, Y, 1.0)
    f2 = frame([2.01, 0, 0], X, Z, 1.0)
    with pytest.raises(IntegralNotConverged, match="margin"):
        ve.circle_linking(f1, f2, 8, 1e-3)
    # at 2,000 nodes the margin is about 0.0084 of the unit radius: clear of
    # the chord error plus a clearance of 1e-3, short of one of 1e-2
    rec = ve.circle_linking(f1, f2, 2000, 1e-3)
    assert rec["lk"] == 0 and rec["margin"] == pytest.approx(0.0084, abs=1e-4)
    assert rec["margin"] > rec["threshold"] > rec["chord_error"]
    with pytest.raises(IntegralNotConverged,
                       match=r"margin 0\.0084\d* <= threshold 0\.01"):
        ve.circle_linking(f1, f2, 2000, 1e-2)


@pytest.mark.parametrize("b, m", [(0.1, 450), (0.05, 1700)])
def test_necklace_pairs_match_polygon_oracle(b, m):
    # each certified lk of the marked circles equals the exact linking number
    # of their inscribed 64-gons; the margin clears both polygons' chord
    # errors, so the straight-line homotopies from the circles to the
    # polygons never meet the other curve and the two numbers agree
    p = nk.NecklaceParams(b=b, m=m)
    nodes = 64

    def flat_frame(j):
        c, a1, a2, r = ge.circle_frame(ge.tau_similarity(j, m, b),
                                       ge.pattern_of_child(j), b)
        return c[ve.FLAT], a1[ve.FLAT], a2[ve.FLAT], r

    for key, rec in ve.verify_linking(p, nodes=2000)["pairs"].items():
        fi, fj = (flat_frame(int(k)) for k in key.split(","))
        _, margin = ve.disk_crossings(fi, ge.circle_points(fj, nodes))
        assert margin > max(f[3] for f in (fi, fj)) * (
            1 - math.cos(math.pi / nodes))
        oracle = polygon_linking_oracle(ge.circle_points(fi, nodes),
                                        ge.circle_points(fj, nodes))
        assert abs(oracle - round(oracle)) < 1e-9
        assert rec["lk"] == round(oracle)


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
    poly2 = ge.circle_points(f2, n2)
    lk, margin = ve.disk_crossings(f1, poly2)
    # the margin bounds the distance from every point of polygon 2 to circle 1
    s = np.linspace(0, 1, 33)[:, None, None]
    dense = (poly2 + s * (np.roll(poly2, -1, axis=0) - poly2)).reshape(-1, 3)
    c, a1, a2, r = f1
    v = dense - c
    n = np.cross(a1, a2)
    assert margin <= np.hypot(v @ n, np.hypot(v @ a1, v @ a2) - r).min() + 1e-12
    assume(margin > r * (1 - math.cos(math.pi / n1)))
    oracle = polygon_linking_oracle(ge.circle_points(f1, n1), poly2)
    assert abs(oracle - round(oracle)) < 1e-6
    assert lk == round(oracle)
