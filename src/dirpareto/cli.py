"""Command-line interface.

Every subcommand reads a JSON problem file, writes
``<out>/<command>.report.json`` (sorted keys, no timestamps: identical
inputs give byte-identical reports), and exits 0 when a certificate or
positive verdict was produced, 2 on a refutation / absence of
multipliers, 1 on errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import problemfile
from .certify import (
    CertifyError,
    GridSpec,
    certify_directional_min,
    certify_set_min,
    check_first_order_necessary,
    openness_falsifier,
)
from .expressions import EvaluationError, ExpressionError
from .gallery import gallery_names, run_example
from .geometry import GeometryError, HalfspaceCone, direction_samples
from .lp import LPError
from .mintime import Target, minimal_time
from .multipliers import fritz_john, kkt_multipliers, stationarity_penalized
from .scalarize import (
    ScalarizationContext,
    ScalarizationError,
    gerstewitz_subdiff,
    gerstewitz_value,
)
from .sets import PolyhedralSet
from .tangent import TSchedule, tangent_membership_sampled, tangent_polyhedral


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        if not np.isfinite(f):
            return "inf" if f > 0 else ("-inf" if f < 0 else "nan")
        return f
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


# exit 1 with a single ``error:`` line
ERRORS = (problemfile.ProblemFileError, CertifyError, GeometryError, LPError,
          ExpressionError, EvaluationError, ScalarizationError,
          KeyError, ValueError, OSError)


def _out_path(out_dir: str, name: str) -> str:
    """Path of an output file; the directory is created on first use."""
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def _write_report(out_dir: str, command: str, report: dict) -> str:
    path = _out_path(out_dir, f"{command}.report.json")
    payload = dict(report)
    payload.setdefault("schema_version", problemfile.SCHEMA_VERSION)
    payload["command"] = command
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(payload), fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


def _write_points_csv(out_dir: str, command: str, header: list,
                      rows: list) -> str:
    path = _out_path(out_dir, f"{command}.points.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{float(v):.17g}" if isinstance(v, (int, float, np.floating))
                              else str(v) for v in row) + "\n")
    return path


def _write_svg(out_dir: str, command: str, points: list) -> str:
    """Minimal scatter SVG of 2-D sample points (member flag as color)."""
    path = _out_path(out_dir, f"{command}.svg")
    size, margin = 400.0, 20.0
    xs = [p[0] for p, _ in points] or [0.0]
    ys = [p[1] for p, _ in points] or [0.0]
    lo = min(min(xs), min(ys), -1e-9)
    hi = max(max(xs), max(ys), 1e-9)
    span = hi - lo or 1.0

    def sx(v):
        return margin + (v - lo) / span * (size - 2 * margin)

    def sy(v):
        return size - margin - (v - lo) / span * (size - 2 * margin)

    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.0f}" '
             f'height="{size:.0f}" viewBox="0 0 {size:.0f} {size:.0f}">']
    for (x, y), member in points:
        color = "#2166ac" if member else "#b2182b"
        lines.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="1.5" '
                     f'fill="{color}"/>')
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _grid_from_args(base: GridSpec, args) -> GridSpec:
    """``base`` with the grid flags given on the command line applied."""
    given = {"radius": args.radius, "levels": args.levels,
             "rays_per_level": args.rays, "seed": args.seed}
    return replace(base, **{k: v for k, v in given.items() if v is not None})


def _cmd_certify(doc, args) -> tuple:
    p = problemfile.parse_problem(doc)
    grid = _grid_from_args(p.grid, args)
    p = replace(p, grid=grid)
    rep = certify_directional_min(p, weak=args.weak)
    report = {"problem": problemfile.normalize(doc), "report": rep.as_dict()}
    rows = []
    for ell in direction_samples(p.L, grid.rays_per_level, grid.seed):
        for t in grid.t_values():
            x = p.x0 + t * ell
            rows.append(list(x) + [float(t)])
    csv = _write_points_csv(args.out, "certify",
                            [f"x{i}" for i in range(p.f.dim_in)] + ["t"], rows)
    report["points_csv"] = os.path.basename(csv)
    return report, (0 if rep.verdict == "certified_on_grid" else 2)


def _cmd_certify_set(doc, args) -> tuple:
    M = problemfile.parse_set(doc["set"])
    K = HalfspaceCone.from_rows(problemfile._floats(doc["K"]))
    L = problemfile.parse_direction_set(doc["L"], M.dim)
    grid = _grid_from_args(problemfile.parse_grid(doc.get("grid")), args)
    xbar = np.array([float(c) for c in doc["point"]])
    rep = certify_set_min(M, xbar, K, L, weak=args.weak, grid=grid)
    report = {"set": doc["set"], "report": rep.as_dict()}
    if M.dim == 2:
        pts = []
        for ell in direction_samples(L, grid.rays_per_level, grid.seed):
            for t in grid.t_values():
                x = xbar + t * ell
                pts.append((tuple(x), bool(M.contains(x))))
        svg = _write_svg(args.out, "certify-set", pts)
        report["svg"] = os.path.basename(svg)
    return report, (0 if rep.verdict == "certified_on_grid" else 2)


def _cmd_first_order(doc, args) -> tuple:
    p = problemfile.parse_problem(doc)
    dirs = [np.array([float(c) for c in u]) for u in doc["directions"]]
    res = check_first_order_necessary(p, dirs)
    report = {
        "holds": res["holds"],
        "checks": [{"direction": list(c.direction), "image": list(c.image),
                    "violated": c.violated} for c in res["checks"]],
    }
    return report, (0 if res["holds"] else 2)


def _cmd_tangent(doc, args) -> tuple:
    A = problemfile.parse_set(doc["set"])
    xbar = [float(c) for c in doc["point"]]
    u = np.array([float(c) for c in doc["direction"]])
    L = (problemfile.parse_direction_set(doc["L"], A.dim)
         if doc.get("L") is not None else None)
    report = {"direction": list(u)}
    if isinstance(A, PolyhedralSet) and L is not None:
        cone = tangent_polyhedral(A, xbar, L)
        member = cone.contains(u)
        report.update({"method": "exact_polyhedral",
                       "status": "member" if member else "nonmember"})
        return report, (0 if member else 2)
    sched = TSchedule(radius=args.radius if args.radius is not None else 0.25)
    v = tangent_membership_sampled(A, xbar, L, u, sched)
    report.update({"method": "sampled", "status": v.status, "note": v.note,
                   "levels": len(v.evidence)})
    return report, (0 if v.status == "member" else 2)


def _cmd_kkt(doc, args) -> tuple:
    p = problemfile.parse_problem(doc)
    cert = kkt_multipliers(p, [float(c) for c in doc["e"]])
    if cert is None:
        return ({"multipliers": None,
                 "note": "necessary condition violated under stated "
                         "hypotheses"}, 2)
    return ({"multipliers": {
        "ystar": list(cert.ystar), "weights": list(cert.weights),
        "lambda": list(cert.lam), "tau": list(cert.tau),
        "normalization": cert.normalization,
        "residual_in_Lpolar": list(cert.residual)}}, 0)


def _cmd_fritz_john(doc, args) -> tuple:
    p = problemfile.parse_problem(doc)
    g = Q = None
    if doc.get("g") is not None:
        g = problemfile.parse_objective(doc["g"], p.f.dim_in)
        Q = HalfspaceCone.from_rows(problemfile._floats(doc["Q"]))
    res = fritz_john(p, g, Q)
    if res is None:
        return ({"multipliers": None,
                 "note": "necessary condition violated under stated "
                         "hypotheses"}, 2)
    ystar, zstar = res
    return ({"multipliers": {"ystar": list(ystar), "zstar": list(zstar)}}, 0)


def _cmd_gerstewitz(doc, args) -> tuple:
    K = HalfspaceCone.from_rows(problemfile._floats(doc["K"]))
    ctx = ScalarizationContext.create(K, [float(c) for c in doc["e"]])
    y = [float(c) for c in doc["y"]]
    value = gerstewitz_value(ctx, y)
    cert = gerstewitz_subdiff(ctx, y)
    return ({"value": value, "subgradient": list(cert.witness)}, 0)


def _cmd_mintime(doc, args) -> tuple:
    tgt = doc["target"]
    if "point" in tgt:
        target = Target.point([float(c) for c in tgt["point"]])
        dim = len(tgt["point"])
    elif "points" in tgt:
        target = Target.finite_points(
            [[float(c) for c in p] for p in tgt["points"]])
        dim = len(tgt["points"][0])
    else:
        poly = problemfile.parse_set({"polyhedron": tgt["polyhedron"]})
        target = Target.polyhedral(poly)
        dim = poly.dim
    L = problemfile.parse_direction_set(doc["L"], dim)
    value, exact = minimal_time(L, [float(c) for c in doc["point"]],
                                target, norm=args.norm)
    return ({"value": value, "exact": exact, "norm": args.norm}, 0)


def _cmd_openness(doc, args) -> tuple:
    p = problemfile.parse_problem(doc)
    C = problemfile.parse_direction_set(doc["C"], p.f.dim_out)
    res = openness_falsifier(p.f, p.x0, p.L, C,
                             doc.get("eps_schedule"), doc.get("r_schedule"))
    return res, (0 if res["status"] == "witness" else 2)


def _cmd_penalized(doc, args) -> tuple:
    p = problemfile.parse_problem(doc)
    A = problemfile.parse_set(doc["A"])
    vm = None
    if doc.get("vector_mode") is not None:
        vm = {"e": [float(c) for c in doc["vector_mode"]["e"]],
              "ell": float(doc["vector_mode"]["ell"]), "K": p.K}
    res = stationarity_penalized(p.f, A, p.x0, p.L, vm)
    if res is None:
        return ({"witness": None,
                 "note": "necessary condition violated under stated "
                         "hypotheses"}, 2)
    return ({"witness": res}, 0)


COMMANDS = {
    "certify": _cmd_certify,
    "certify-set": _cmd_certify_set,
    "first-order": _cmd_first_order,
    "tangent": _cmd_tangent,
    "kkt": _cmd_kkt,
    "fritz-john": _cmd_fritz_john,
    "gerstewitz": _cmd_gerstewitz,
    "mintime": _cmd_mintime,
    "openness": _cmd_openness,
    "penalized": _cmd_penalized,
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dirpareto",
        description="Directional Pareto minimality toolkit")
    sub = ap.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--problem", required=True, help="JSON problem file")
    common.add_argument("--out", default=".", help="report directory")
    common.add_argument("--weak", action="store_true")
    common.add_argument("--radius", type=float, default=None)
    common.add_argument("--levels", type=int, default=None)
    common.add_argument("--rays", type=int, default=None)
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--norm", choices=["l2", "linf"], default="l2")
    for name in COMMANDS:
        sub.add_parser(name, parents=[common])
    ex = sub.add_parser("examples")
    ex.add_argument("action", choices=["list", "run"])
    ex.add_argument("name", nargs="?")
    ex.add_argument("--out", default=".")
    ex.add_argument("--radius", type=float, default=None)
    ex.add_argument("--levels", type=int, default=None)
    ex.add_argument("--rays", type=int, default=None)
    ex.add_argument("--seed", type=int, default=None)
    return ap


def _examples(args) -> tuple:
    if not args.name:
        raise CertifyError("examples run needs a gallery name")
    grid = _grid_from_args(GridSpec(), args)
    try:
        return run_example(args.name, grid)
    except KeyError as exc:
        raise CertifyError(exc.args[0]) from None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "examples" and args.action == "list":
        for name in gallery_names():
            print(name)
        return 0
    try:
        if args.command == "examples":
            report, code = _examples(args)
        else:
            doc = problemfile.load(args.problem)
            report, code = COMMANDS[args.command](doc, args)
        path = _write_report(args.out, args.command, report)
    except ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(path)
    return code


if __name__ == "__main__":
    sys.exit(main())
