"""Geometry exporters: marked circles, core samples and slices of every tube."""

from __future__ import annotations

import csv

from ..errors import ParamsInvalid
from .geometry import circle_frame, circle_points, sample_model_torus

NODES = 128  # points drawn on each circle


def export_geometry(system, path, what="cores", fmt="csv"):
    """Write the core circles / tube samples / x2=0 slices of every tube.

    Each tube of level >= 1 is drawn through its own transform S: cores is
    its marked circle S(gamma); tubes a point sample of its core torus;
    slice the two circles of radius r +- rho b scale about the marked
    circle, in its plane inside the x2 = 0 flat, and needs the params to
    carry c0 and c1, so that rho is known.  Returns the number of records
    written.
    """
    if what not in ("cores", "tubes", "slice"):
        raise ParamsInvalid(f"unknown export kind {what!r}")
    if fmt not in ("csv", "obj"):
        raise ParamsInvalid(f"unknown format {fmt!r}")
    b, rho = system.params.b, system.params.rho
    if what == "slice" and rho is None:
        raise ParamsInvalid("a slice needs rho: set c0 and c1")
    curves = {}
    for t in system.tubes:
        if t.level == 0:
            continue
        S = t.transform
        if what == "tubes":
            curves[t.word] = S(sample_model_torus(t.pattern, b, 16, 64))
        elif what == "cores":
            curves[t.word] = circle_points(circle_frame(S, t.pattern, b),
                                           NODES)
        else:
            c, a1, a2, r = circle_frame(S, t.pattern, b)
            for sign in (1, -1):
                offset = (c, a1, a2, r + sign * rho * b * S.scale)
                curves[t.word + (sign,)] = circle_points(offset, NODES)

    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["word", "index", "x1", "x2", "x3", "x4"])
            for word, pts in curves.items():
                for idx, p in enumerate(pts):
                    w.writerow(["-".join(map(str, word)), idx, *p])
    else:
        with open(path, "w") as fh:
            fh.write("# cubalex necklace export (x2 dropped)\n")
            start = 1
            for pts in curves.values():
                for p in pts:
                    fh.write(f"v {p[0]} {p[2]} {p[3]}\n")
                ids = " ".join(str(start + i) for i in range(len(pts)))
                fh.write(f"l {ids} {start}\n")
                start += len(pts)
    return sum(len(pts) for pts in curves.values())
