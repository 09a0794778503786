"""Command-line front-end: validation, triangulation, shelling, reductions,
refinement, molecules, separating complexes, weaving ranks, and the necklace
verifications.  Reports are JSON; exit codes: 0 success, 2 negative result,
3 precondition failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import time

from . import alexander, complex_core, refinement, shelling, weaving
from . import necklace as nk
from .errors import CubalexError, ParamsInvalid, json_fields

EXIT_OK = 0
EXIT_NEGATIVE = 2
EXIT_PRECONDITION = 3
EXIT_IO = 4


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise SystemExit(EXIT_IO) from exc
    except ValueError as exc:  # not JSON, or not text
        raise ParamsInvalid(f"{path} is not JSON: {exc}") from None


def _digest(data):
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()[:16]


def _emit(report, out):
    text = json.dumps(report, indent=1, default=str)
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text + "\n")
        except OSError:
            return EXIT_IO
    else:
        print(text)
    return EXIT_OK


def run_report(command, data, checks):
    """Uniform run report: every check exactly once, overall = conjunction."""
    names = [c["name"] for c in checks]
    if len(names) != len(set(names)):
        raise CubalexError("duplicate check names in report")
    return {
        "command": command,
        "input_digest": _digest(data) if data is not None else None,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
        "timestamp": time.time(),
    }


def _load_complex(path):
    return complex_core.from_json(_read_json(path))


def cmd_validate(args):
    try:
        K = _load_complex(args.complex)
    except CubalexError as exc:
        return (_emit({"valid": False, "error": str(exc)}, args.out)
                or EXIT_PRECONDITION)
    report = {"valid": True, "dimension": K.dimension, "mode": K.mode,
              "cells": {str(d): K.n_cells(d) for d in range(K.dimension + 1)},
              "hash": K.relabel_invariant_hash()}
    return _emit(report, args.out)


def cmd_triangulate(args):
    K = _load_complex(args.complex)
    T = complex_core.canonical_triangulation(K)
    report = T.to_json()
    return _emit(report, args.out)


def cmd_shell(args):
    K = _load_complex(args.complex)
    order = shelling.find_shelling(K)
    code = _emit({"order": order}, args.out)
    if code:
        return code
    return EXIT_OK if order is not None else EXIT_NEGATIVE


def cmd_alexander(args):
    K = _load_complex(args.complex)
    if K.mode == complex_core.CUBICAL:
        K = complex_core.canonical_triangulation(K)
    lab = alexander.alexander_label(K)
    deg = alexander.degree(lab) if K.is_closed() else None
    report = K.to_json(alexander=lab.to_json())
    report["degree"] = deg
    return _emit(report, args.out)


def cmd_reduce(args):
    K = _load_complex(args.complex)
    final, lab, ledger = alexander.reduce_cubical(K)
    S = shelling.star_replacement(K)
    iso = complex_core.is_isomorphic(S, final, S.vertex_cube_dim, lab.labels)
    covers = shelling.star_replacement_cover_count(K)
    report = run_report("reduce", K.to_json(), [
        {"name": "isomorphic_to_star_replacement",
         "value": iso, "threshold": True, "pass": iso},
        {"name": "ledger_total", "value": ledger.total_covers,
         "threshold": covers, "pass": ledger.total_covers == covers},
    ])
    report["ledger"] = ledger.to_json()
    report["diagnostics"] = ledger.diagnostics()
    return _emit(report, args.out)


def cmd_refine(args):
    K = _load_complex(args.complex)
    R = refinement.refine(K, args.k)
    report = R.complex.to_json()
    report["provenance"] = {str(k): v for k, v in R.provenance.items()}
    return _emit(report, args.out)


def cmd_molecule(args):
    try:
        M = refinement.molecule_from_json(_read_json(args.molecule))
    except CubalexError as exc:
        return (_emit({"valid": False, "error": str(exc)}, args.out)
                or EXIT_PRECONDITION)
    if args.action == "validate":
        report = {"valid": True, "ell": M.ell(), "varrho": M.varrho(),
                  "blocks": len(M.blocks), "leading": M.leading}
    elif args.action == "levels":
        lam = refinement.level_function(M)
        report = {"levels": {str(k): str(v) for k, v in lam.items()}}
    elif args.action == "nu":
        report = {"nu": {str(k): refinement.expansion_index(M, k)
                         for k in M.blocks}}
    return _emit(report, args.out)


def cmd_separate(args):
    K = _load_complex(args.complex)
    Z = refinement.find_separating_complex(K)
    report = {
        "z_cells": [list(K.cell(i).verts) for i in Z.facet_ids],
        "pieces": [[list(K.cell(i).verts) for i in piece] for piece in Z.pieces],
        "piece_count": Z.piece_count(),
    }
    return _emit(report, args.out)


def cmd_weave_rank(args):
    data = _read_json(args.sketch)
    p, colors, simplices = json_fields(data, "sketch", "p", "colors",
                                       "simplices")
    if not isinstance(colors, dict):
        raise ParamsInvalid("sketch key 'colors' is not a JSON object")
    sk = weaving.SketchSpec(
        p=p, colors={int(k): v for k, v in colors.items()},
        simplices=[tuple(s) for s in simplices],
        adjacency=[tuple(a) for a in data.get("adjacency", [])])
    ranks = weaving.rank_function(sk)
    m_new, per = weaving.sphericalize_counts(sk, ranks)
    report = {"ranks": ranks, "sphericalized_count": m_new,
              "new_pieces": per}
    return _emit(report, args.out)


def _calibrated(params, seed):
    """A disjointness report, and the params carrying its c0 and c1."""
    rep = nk.verify_disjointness(params, seed=seed)
    return rep, dataclasses.replace(params, c0=rep["c0"], c1=rep["c1"])


def cmd_necklace(args):
    params = nk.NecklaceParams(b=args.b, m=args.m)
    checks = []
    extra = {}
    if args.action == "verify-disjoint":
        rep, params = _calibrated(params, args.seed)
        lower = min(rep["c0_lower"], rep["c1_lower"])
        checks = [
            {"name": "min_core_distance_over_b2_lower", "value": lower,
             "threshold": 2 * rep["rho"], "pass": lower > 2 * rep["rho"]},
            {"name": "rotation_equivariance", "value": rep["equivariance_error"],
             "threshold": 1e-9, "pass": rep["equivariance_error"] < 1e-9},
        ]
        extra = rep
    elif args.action == "verify-contain":
        _, params = _calibrated(params, args.seed)
        rep = nk.verify_containment(params)
        checks = [{"name": "max_core_distance", "value": rep["max_core_distance"],
                   "threshold": rep["bound_b2"], "pass": rep["pass"]}]
        extra = rep
    elif args.action == "verify-link":
        rep = nk.verify_linking(params)
        for k, v in rep["pairs"].items():
            checks += [
                {"name": f"lk({k})", "value": v["lk"],
                 "threshold": v["expected_abs"], "pass": v["pass"]},
                {"name": f"margin({k})", "value": v["margin"],
                 "threshold": v["threshold"],
                 "pass": v["margin"] > v["threshold"]},
            ]
        extra = rep
    elif args.action == "gen":
        system = nk.generate(params, args.k, children_per_tube=args.children)
        errs = system.scale_errors()
        checks = [{"name": "scale_ledger_max_rel_err",
                   "value": max(errs) if errs else 0.0, "threshold": 1e-12,
                   "pass": (max(errs) if errs else 0.0) <= 1e-12}]
        extra = {"tubes": len(system.tubes)}
    elif args.action == "export":
        if args.what == "slice":
            _, params = _calibrated(params, args.seed)
        system = nk.generate(params, args.k, children_per_tube=args.children)
        count = nk.export_geometry(
            system, args.geometry or f"necklace.{args.format}",
            what=args.what, fmt=args.format)
        return _emit({"records": count}, args.out)
    report = run_report(f"necklace {args.action}", {"b": args.b, "m": args.m},
                        checks)
    report["params"] = params.to_json()
    report["detail"] = extra
    code = _emit(report, args.out)
    if code:
        return code
    return EXIT_OK if report["pass"] else EXIT_NEGATIVE


def cmd_export(args):
    K = _load_complex(args.complex)
    return _emit(K.to_json(), args.out)


def main(argv=None):
    ap = argparse.ArgumentParser(prog="cubalex")
    ap.add_argument("--seed", type=int, default=0)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None)

    p = sub.add_parser("validate");  p.add_argument("complex"); common(p)
    p.set_defaults(func=cmd_validate)
    p = sub.add_parser("triangulate"); p.add_argument("complex"); common(p)
    p.set_defaults(func=cmd_triangulate)
    p = sub.add_parser("shell"); p.add_argument("complex"); common(p)
    p.set_defaults(func=cmd_shell)
    p = sub.add_parser("alexander"); p.add_argument("complex"); common(p)
    p.set_defaults(func=cmd_alexander)
    p = sub.add_parser("reduce"); p.add_argument("complex"); common(p)
    p.set_defaults(func=cmd_reduce)
    p = sub.add_parser("refine"); p.add_argument("complex"); common(p)
    p.add_argument("--k", type=int, default=1)
    p.set_defaults(func=cmd_refine)
    p = sub.add_parser("molecule")
    p.add_argument("action", choices=["validate", "levels", "nu"])
    p.add_argument("molecule"); common(p)
    p.set_defaults(func=cmd_molecule)
    p = sub.add_parser("separate"); p.add_argument("complex"); common(p)
    p.set_defaults(func=cmd_separate)
    p = sub.add_parser("weave-rank"); p.add_argument("sketch"); common(p)
    p.set_defaults(func=cmd_weave_rank)
    p = sub.add_parser("necklace")
    p.add_argument("action", choices=["verify-disjoint", "verify-contain",
                                      "verify-link", "gen", "export"])
    p.add_argument("--b", type=float, default=0.05)
    p.add_argument("--m", type=int, default=1700)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--children", type=int, default=8)
    p.add_argument("--what", default="cores", choices=["cores", "tubes", "slice"])
    p.add_argument("--format", default="csv", choices=["csv", "obj"])
    p.add_argument("--geometry", default=None)  # export's file
    common(p)
    p.set_defaults(func=cmd_necklace)
    p = sub.add_parser("export"); p.add_argument("complex"); common(p)
    p.set_defaults(func=cmd_export)

    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except CubalexError as exc:
        report = {"error": str(exc), "type": type(exc).__name__}
        code = EXIT_PRECONDITION
    except OSError as exc:
        report = {"error": str(exc)}
        code = EXIT_IO
    return _emit(report, args.out) or code


if __name__ == "__main__":
    sys.exit(main())
