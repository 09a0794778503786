"""CLI dispatch, exit codes, and report round-trips."""

import json

import numpy as np
import pytest

from cubalex import alexander as al
from cubalex import cli
from cubalex import complex_core as cc
from cubalex import factories as fa
from cubalex import necklace as nk
from cubalex import shelling as sh

from gen import BENCH_BOXES_3D, CONE44, cube_complex


@pytest.fixture
def paths(tmp_path):
    out = {}
    for name, K in [("cube3", fa.unit_cube(3)),
                    ("grid2x2", fa.rect_grid(2, 2)),
                    ("domino", fa.domino()),
                    ("annulus", fa.grid_complex(
                        [(x, y) for x in range(3) for y in range(3)
                         if (x, y) != (1, 1)]))]:
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(K.to_json()))
        out[name] = str(p)
    return out


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr().out
    return code, (json.loads(captured) if captured.strip() else None)


def test_triangulate_cube3(paths, capsys):
    code, data = run(capsys, ["triangulate", paths["cube3"]])
    assert code == 0
    assert sum(1 for c in data["cells"] if c["dim"] == 3) == 48


def test_shell_grid(paths, capsys):
    code, data = run(capsys, ["shell", paths["grid2x2"]])
    assert code == 0 and len(data["order"]) == 4


def test_shell_negative_report_is_emitted(paths, capsys, tmp_path,
                                          monkeypatch):
    # no shelling: exit 2, and the report goes where --out says
    monkeypatch.setattr(sh, "find_shelling", lambda K: None)
    code, data = run(capsys, ["shell", paths["grid2x2"]])
    assert code == 2 and data == {"order": None}
    out = tmp_path / "order.json"
    code, data = run(capsys, ["shell", paths["grid2x2"], "--out", str(out)])
    assert code == 2 and data is None
    assert json.loads(out.read_text()) == {"order": None}


@pytest.mark.parametrize("command", ["shell", "triangulate"])
def test_unwritable_out_exits_4(paths, capsys, tmp_path, command):
    out = tmp_path / "missing" / "x.json"
    code, data = run(capsys, [command, paths["grid2x2"], "--out", str(out)])
    assert code == 4 and data is None and not out.exists()


def test_shell_precondition_exit_3(paths, capsys):
    code, data = run(capsys, ["shell", paths["annulus"]])
    assert code == 3 and data["type"] == "NotACell"


def test_validate_reports_hash(paths, capsys):
    code, data = run(capsys, ["validate", paths["domino"]])
    assert code == 0 and data["valid"] and data["hash"]


def test_invalid_complex_report_goes_to_out(capsys, tmp_path):
    # a 1-cube on a repeated vertex: exit 3, the report only in --out
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "dimension": 1, "mode": "cubical",
        "vertices": [{"id": 0, "coords": [0.0]}],
        "cells": [{"dim": 0, "vertices": [0], "kind": "cube"},
                  {"dim": 1, "vertices": [0, 0], "kind": "cube"}]}))
    out = tmp_path / "v.json"
    code, data = run(capsys, ["validate", str(bad), "--out", str(out)])
    assert code == 3 and data is None
    assert json.loads(out.read_text())["valid"] is False


@pytest.mark.parametrize("case", ["not_json", "empty", "above", "mode"])
def test_validate_malformed_input_exits_3(capsys, tmp_path, case):
    # a triangle in a 1-complex, or in a mode that is neither
    triangle = cc.build_complex(2, cc.SIMPLICIAL, [0, 1, 2],
                                [(2, [0, 1, 2], cc.SIMPLEX)]).to_json()
    bad = tmp_path / "bad.json"
    bad.write_text("not json" if case == "not_json" else json.dumps(
        {"empty": {}, "above": triangle | {"dimension": 1},
         "mode": triangle | {"mode": "foo"}}[case]))
    code, data = run(capsys, ["validate", str(bad)])
    assert code == 3 and data["valid"] is False


@pytest.mark.parametrize("text", ["not json", "{}"])
def test_shell_malformed_input_exits_3(capsys, tmp_path, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, data = run(capsys, ["shell", str(bad)])
    assert code == 3 and data["type"] == "ParamsInvalid"


def test_weave_rank_without_p_exits_3(capsys, tmp_path):
    bad = tmp_path / "sketch.json"
    bad.write_text("{}")
    code, data = run(capsys, ["weave-rank", str(bad)])
    assert code == 3 and "'p'" in data["error"]


def test_molecule_without_n_is_invalid(capsys, tmp_path):
    bad = tmp_path / "mol.json"
    bad.write_text("{}")
    code, data = run(capsys, ["molecule", "validate", str(bad)])
    assert code == 3 and data["valid"] is False and "'n'" in data["error"]


@pytest.mark.parametrize("command,data,says", [
    (["weave-rank"], {"p": 3, "colors": [], "simplices": []}, "'colors'"),
    (["molecule", "validate"], {"n": 2, "atoms": [[1]], "indices": [1]},
     "'atoms'"),
    (["validate"], {"dimension": 1, "mode": "simplicial",
                    "vertices": [{"id": 0}, {"id": 1}],
                    "cells": [{"dim": 1, "vertices": 5}]}, "vertices"),
    (["validate"], fa.domino().to_json() | {"mode": "foo"}, "mode 'foo'"),
], ids=["sketch_colors", "molecule_atoms", "cell_vertices", "mode"])
def test_wrong_type_values_exit_3(capsys, tmp_path, command, data, says):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, report = run(capsys, [*command, str(bad)])
    assert code == 3 and says in report["error"]
    assert report.get("valid", False) is False


@pytest.mark.parametrize("children", ["0", "-2"])
def test_necklace_gen_bad_children_exits_3(capsys, children):
    code, data = run(capsys, ["necklace", "gen", "--k", "1",
                              "--children", children])
    assert code == 3 and data["type"] == "ParamsInvalid"


def test_error_report_goes_to_out(paths, capsys, tmp_path):
    out = tmp_path / "order.json"
    code, data = run(capsys, ["shell", paths["annulus"], "--out", str(out)])
    assert code == 3 and data is None
    assert json.loads(out.read_text())["type"] == "NotACell"


def test_error_report_to_unwritable_out_exits_4(paths, capsys, tmp_path):
    out = tmp_path / "missing" / "order.json"
    code, data = run(capsys, ["shell", paths["annulus"], "--out", str(out)])
    assert code == 4 and data is None and not out.exists()


def test_export_error_report_stays_on_stdout(capsys, tmp_path):
    # necklace export's --geometry names its geometry file, not a report
    out = tmp_path / "cores.csv"
    code, data = run(capsys, ["necklace", "export", "--b", "0.3", "--m", "1700",
                              "--geometry", str(out)])
    assert code == 3 and data["type"] == "ParamsInvalid" and not out.exists()


def test_export_reports_go_to_out(capsys, tmp_path):
    # --out means the report on necklace export too: its record count, and
    # an error report
    geometry, out = tmp_path / "cores.csv", tmp_path / "report.json"
    code, data = run(capsys, ["necklace", "export", "--b", "0.1", "--m", "450",
                              "--children", "4", "--geometry", str(geometry),
                              "--out", str(out)])
    assert code == 0 and data is None
    assert json.loads(out.read_text())["records"] == len(
        geometry.read_text().splitlines()) - 1
    code, data = run(capsys, ["necklace", "export", "--b", "0.3", "--m", "1700",
                              "--out", str(out)])
    assert code == 3 and data is None
    assert json.loads(out.read_text())["type"] == "ParamsInvalid"


def counter(real, calls):
    def counted(*args, **kw):
        calls.append(args)
        return real(*args, **kw)
    return counted


def test_reduce_report(paths, capsys, monkeypatch):
    # the reduction is checked against K* once per report, and K is
    # triangulated once: K* comes from K's own boundary flags
    calls, triangulations = [], []
    monkeypatch.setattr(cc, "is_isomorphic", counter(cc.is_isomorphic, calls))
    tri = counter(cc.canonical_triangulation, triangulations)
    for mod in (cc, al, sh):
        monkeypatch.setattr(mod, "canonical_triangulation", tri, raising=False)
    code, data = run(capsys, ["reduce", paths["domino"]])
    assert code == 0 and data["pass"]
    assert len(calls) == 1 and len(triangulations) == 1
    names = [c["name"] for c in data["checks"]]
    assert len(names) == len(set(names))  # every check exactly once


def test_reduce_cone44(capsys, tmp_path):
    # K* and the reduced complex are both cones over one 44-gon
    p = tmp_path / "cone44.json"
    p.write_text(json.dumps(fa.grid_complex(CONE44).to_json()))
    code, data = run(capsys, ["reduce", str(p)])
    assert code == 0 and data["pass"]
    checks = {c["name"]: c for c in data["checks"]}
    assert checks["isomorphic_to_star_replacement"]["value"] is True


def test_reduce_3d_box(capsys, tmp_path):
    p = tmp_path / "slab.json"
    p.write_text(json.dumps(cube_complex(BENCH_BOXES_3D[0]).to_json()))
    code, data = run(capsys, ["reduce", str(p)])
    assert code == 0 and data["pass"]
    checks = {c["name"]: c for c in data["checks"]}
    assert checks["ledger_total"]["value"] == 32  # (4 * 48 - 16 * 8) / 2
    assert checks["isomorphic_to_star_replacement"]["value"] is True


def test_reduce_diagnostics(capsys, tmp_path):
    # the slab's four cubes meet the cubes before them in three walls, each
    # reduced to a star one dimension down and collapsed with apex label 3
    p = tmp_path / "slab.json"
    p.write_text(json.dumps(cube_complex(BENCH_BOXES_3D[0]).to_json()))
    code, data = run(capsys, ["reduce", str(p)])
    diag = data["diagnostics"]
    assert code == 0
    assert sum(diag["collapses"].values()) == len(data["ledger"])
    assert set(diag["collapses"]) <= {"1", "2", "3"}
    assert diag["collapses"]["3"] == 3
    assert set(diag) == {"collapses", "cells_rewritten", "seconds"}
    assert diag["cells_rewritten"] > 0
    assert set(diag["seconds"]) == {"shelling", "triangulation", "collapses"}
    assert all(t >= 0 for t in diag["seconds"].values())


def test_alexander_roundtrip(paths, capsys):
    code, data = run(capsys, ["alexander", paths["grid2x2"]])
    assert code == 0
    assert "alexander" in data and data["degree"] is None  # has boundary


def test_refine_cli(paths, capsys):
    code, data = run(capsys, ["refine", paths["domino"], "--k", "1"])
    assert code == 0
    assert sum(1 for c in data["cells"] if c["dim"] == 2) == 18


def test_refine_bad_k_exits_3(paths, capsys):
    code, data = run(capsys, ["refine", paths["domino"], "--k", "-1"])
    assert code == 3 and data["type"] == "ParamsInvalid"


def test_molecule_cli(tmp_path, capsys):
    mol = {"n": 2, "atoms": [[[[0, 0], 3]], [[[3, 0], 1]]],
           "indices": [1, 0], "leading": None}
    p = tmp_path / "mol.json"
    p.write_text(json.dumps(mol))
    code, data = run(capsys, ["molecule", "validate", str(p)])
    assert code == 0 and data["valid"] and data["ell"] == 1
    code, data = run(capsys, ["molecule", "levels", str(p)])
    assert code == 0 and data["levels"]["boundary"] == "0"
    code, data = run(capsys, ["molecule", "nu", str(p)])
    assert code == 0 and all(int(v) >= 0 for v in data["nu"].values())


@pytest.mark.parametrize("change", [
    {"leading": [[0, 5], [0, 0]]},               # no such block
    {"leading": [[0, 0], [2, 0]]},               # axis >= n
    {"leading": [[0, 0], [1, 2]]},               # side neither 0 nor 1
    {"leading": [[0], [0, 0]]},                  # a block key of one index
    {"leading": [0, 0]},                         # not two pairs
    {"indices": ["1", 0]},                       # an index that is a string
    {"indices": [1]},                            # fewer indices than atoms
    {"indices": [1, 0, 0]},                      # more indices than atoms
    {"atoms": [[[[0, 0], 3]], [[[3, 0, 0], 1]]]},  # a corner in R^3
])
def test_malformed_molecule_exit_3(tmp_path, capsys, change):
    mol = {"n": 2, "atoms": [[[[0, 0], 3]], [[[3, 0], 1]]],
           "indices": [1, 0], "leading": None, **change}
    p = tmp_path / "mol.json"
    p.write_text(json.dumps(mol))
    code, data = run(capsys, ["molecule", "validate", str(p)])
    assert code == 3 and data["valid"] is False
    out = tmp_path / "report.json"
    code, data = run(capsys, ["molecule", "validate", str(p), "--out", str(out)])
    assert code == 3 and data is None
    assert json.loads(out.read_text())["valid"] is False


def test_separate_cli(tmp_path, capsys):
    P = fa.product_with_interval(fa.circle_complex(6), 3)
    p = tmp_path / "prod.json"
    p.write_text(json.dumps(P.to_json()))
    code, data = run(capsys, ["separate", str(p)])
    assert code == 0 and data["piece_count"] == 2


def test_weave_rank_cli(tmp_path, capsys):
    sketch = {"p": 3, "colors": {"1": 1, "2": 2},
              "simplices": [["s1", 1, 2, 1, 1, 1, -1],
                            ["s2", 1, 2, 3, 2, -1, 1]],
              "adjacency": [["s1", "s2"]]}
    p = tmp_path / "sk.json"
    p.write_text(json.dumps(sketch))
    code, data = run(capsys, ["weave-rank", str(p)])
    assert code == 0
    assert data["sphericalized_count"] == 2 + sum(
        r - 1 for r in data["ranks"].values())


def test_necklace_params_invalid_exit_3(capsys):
    code, data = run(capsys, ["necklace", "gen", "--b", "0.3", "--m", "1700"])
    assert code == 3


def test_necklace_gen(capsys):
    code, data = run(capsys, ["necklace", "gen", "--k", "2", "--children", "3"])
    assert code == 0 and data["pass"]


def test_necklace_verify_disjoint_reports_lower_bound(capsys):
    code, data = run(capsys, ["necklace", "verify-disjoint", "--b", "0.1",
                              "--m", "450"])
    assert code == 0 and data["pass"]
    detail = data["detail"]
    check = data["checks"][0]
    assert check["value"] == min(detail["c0_lower"], detail["c1_lower"])
    assert check["threshold"] == 2 * detail["rho"]


def test_necklace_verify_disjoint_reports_work(capsys):
    # the detail says how the verdict was reached: the peak of live cells
    # against the cap, and the cells the second-order bound closed
    code, data = run(capsys, ["necklace", "verify-disjoint", "--b", "0.1",
                              "--m", "450"])
    assert code == 0
    detail = data["detail"]
    assert 0 < detail["cells_live_peak"] <= nk.verify.MAX_LIVE_CELLS
    assert 0 < detail["cells_closed_by_curvature"] < detail["cells_evaluated"]
    assert "window_conforming" not in data["params"]


def test_necklace_verify_contain_reports_nesting(capsys):
    # c0 and c1 come from a disjointness run, so the nesting check is made
    code, data = run(capsys, ["necklace", "verify-contain", "--b", "0.1",
                              "--m", "450"])
    assert code == 0 and data["pass"]
    detail = data["detail"]
    assert "nesting_threshold" in detail
    assert detail["nesting_margin_at_b"] == detail["nesting_threshold"] - 0.1
    assert data["params"]["c0"] is not None and data["params"]["c1"] is not None


def test_necklace_verify_link_exact(capsys):
    code, data = run(capsys, ["necklace", "verify-link"])
    assert code == 0 and data["pass"]
    pairs = data["detail"]["pairs"]
    checks = {c["name"]: c for c in data["checks"]}
    assert len(checks) == 2 * len(pairs) == 14
    for key, v in pairs.items():
        lk = checks[f"lk({key})"]
        assert type(lk["value"]) is int and abs(lk["value"]) == lk["threshold"]
        margin = checks[f"margin({key})"]
        assert margin["value"] == v["margin"] > margin["threshold"] == v["threshold"]
    assert [pairs[k]["lk"] for k in ("1,2", "2,3", "1700,1")] == [-1, 1, 1]


def test_necklace_export_csv(capsys, tmp_path):
    out = tmp_path / "cores.csv"
    code, data = run(capsys, ["necklace", "export", "--b", "0.1", "--m", "450",
                              "--children", "4", "--geometry", str(out)])
    assert code == 0 and data["records"] > 0
    assert out.read_text().startswith("word,index")


def test_necklace_export_every_level(capsys, tmp_path):
    out = tmp_path / "cores.csv"
    code, _ = run(capsys, ["necklace", "export", "--b", "0.1", "--m", "450",
                           "--k", "2", "--children", "4",
                           "--geometry", str(out)])
    words = {line.split(",")[0] for line in out.read_text().splitlines()[1:]}
    assert code == 0 and len(words) == 4 + 16


def test_necklace_export_obj(capsys, tmp_path):
    out = tmp_path / "cores.obj"
    code, data = run(capsys, ["necklace", "export", "--b", "0.1", "--m", "450",
                              "--children", "4", "--format", "obj",
                              "--geometry", str(out)])
    assert code == 0 and data["records"] > 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("#") and lines[1].startswith("v ")


def test_necklace_export_slice_offsets_by_calibrated_rho(capsys, tmp_path,
                                                        monkeypatch):
    # the slice circles sit rho b scale off the marked circle, with rho from
    # a disjointness run; a level-1 tube has scale b
    reports = []
    real = nk.verify_disjointness

    def recorded(*args, **kw):
        reports.append(real(*args, **kw))
        return reports[-1]

    monkeypatch.setattr(nk, "verify_disjointness", recorded)
    out = tmp_path / "slice.csv"
    code, data = run(capsys, ["necklace", "export", "--what", "slice",
                              "--b", "0.1", "--m", "450", "--children", "4",
                              "--geometry", str(out)])
    assert code == 0 and data["records"] > 0 and len(reports) == 1
    curves = {}
    for row in out.read_text().splitlines()[1:]:
        word, _, *x = row.split(",")
        curves.setdefault(word, []).append([float(v) for v in x])
    radius = {}
    for word, pts in curves.items():
        pts = np.array(pts)
        radius[word] = np.linalg.norm(pts - pts.mean(axis=0), axis=1).mean()
    inner = [w for w in curves if w.endswith("--1")]  # words j--1 and j-1
    assert len(inner) == 4 and len(curves) == 8
    for w in inner:
        offset = (radius[w[:-3] + "-1"] - radius[w]) / 2
        assert offset == pytest.approx(reports[0]["rho"] * 0.1 * 0.1, rel=1e-9)


@pytest.mark.parametrize("argv", [
    ["validate", "x.json", "--format", "json"],
    ["necklace", "export", "--format", "dot"],
    ["necklace", "gen", "--report", "csv"],
])
def test_options_without_effect_are_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


def test_export_roundtrip_isomorphic(paths, capsys, tmp_path):
    out = tmp_path / "re.json"
    code, _ = run(capsys, ["export", paths["grid2x2"], "--out", str(out)])
    assert code == 0
    K = fa.rect_grid(2, 2)
    K2 = cc.from_json(json.loads(out.read_text()))
    assert K.relabel_invariant_hash() == K2.relabel_invariant_hash()
    assert cc.is_isomorphic(K, K2)


def test_reports_deterministic(paths, capsys):
    _, d1 = run(capsys, ["reduce", paths["domino"]])
    _, d2 = run(capsys, ["reduce", paths["domino"]])
    for d in (d1, d2):  # wall-clock fields
        d.pop("timestamp")
        d["diagnostics"].pop("seconds")
    assert d1 == d2
