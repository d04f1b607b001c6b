"""Command-line interface.

Every subcommand reads a JSON problem file, writes
``<out>/<command>.report.json`` (sorted keys, no timestamps: identical
inputs give byte-identical reports), and exits 0 when a certificate or
positive verdict was produced, 2 on a refutation / absence of
multipliers, 1 on errors: a malformed file or command line prints one
``error:`` line and writes no report.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import replace

import numpy as np

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
from .geometry import GeometryError
from .lp import LPError
from .mintime import minimal_time
from .multipliers import fritz_john, kkt_multipliers, stationarity_penalized
from .problemfile import (
    SCHEMA_VERSION,
    ProblemFileError,
    echo,
    load,
    parse_cone,
    parse_direction_set,
    parse_objective,
    parse_problem,
    parse_set,
    parse_target,
    parse_vector_mode,
    read,
    read_set_problem,
    read_tangent_problem,
    rows,
    vector,
)
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


def _out_path(out_dir: str, name: str) -> str:
    """Path of an output file; the directory is created on first use."""
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def _write_report(out_dir: str, command: str, report: dict) -> str:
    path = _out_path(out_dir, f"{command}.report.json")
    payload = dict(report)
    payload.setdefault("schema_version", SCHEMA_VERSION)
    payload["command"] = command
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(payload), fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


def _write_points_csv(out_dir: str, command: str, header: list,
                      points: np.ndarray) -> str:
    path = _out_path(out_dir, f"{command}.points.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        line = ",".join(["%.17g"] * points.shape[1]) + "\n"  # one format call per row
        fh.writelines(line % tuple(row) for row in points.tolist())
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


# Each handler reads its document through problemfile, calls the library
# and returns (report, ok); main exits 0 if ok, else 2.

NO_MULTIPLIERS = "necessary condition violated under stated hypotheses"


def _cmd_certify(doc, args) -> tuple:
    p = parse_problem(doc)
    report = {"problem": echo(doc, p)}  # the file's grid, before the flags
    p = replace(p, grid=_grid_from_args(p.grid, args))
    rep = certify_directional_min(p, weak=args.weak)
    report["report"] = rep.as_dict()
    pts = p.grid.points(p.x0, p.L)
    ts = np.tile(p.grid.t_values(), len(pts) // p.grid.levels)
    csv = _write_points_csv(args.out, "certify",
                            [f"x{i}" for i in range(p.f.dim_in)] + ["t"],
                            np.column_stack([pts, ts]))
    report["points_csv"] = os.path.basename(csv)
    return report, rep.verdict == "certified_on_grid"


def _cmd_certify_set(doc, args) -> tuple:
    M, xbar, K, L, grid = read_set_problem(doc)
    grid = _grid_from_args(grid, args)
    rep = certify_set_min(M, xbar, K, L, weak=args.weak, grid=grid)
    report = {"set": doc["set"], "report": rep.as_dict()}
    if M.dim == 2:
        pts = grid.points(xbar, L)
        svg = _write_svg(args.out, "certify-set",
                         [(tuple(x), bool(member))
                          for x, member in zip(pts, M.contains_many(pts))])
        report["svg"] = os.path.basename(svg)
    return report, rep.verdict == "certified_on_grid"


def _cmd_first_order(doc, args) -> tuple:
    p = parse_problem(doc)
    dirs = read(doc, "directions", rows, p.f.dim_in)
    res = check_first_order_necessary(p, [np.array(u) for u in dirs])
    return ({"holds": res["holds"],
             "checks": [{"direction": list(c.direction), "image": list(c.image),
                         "violated": c.violated} for c in res["checks"]]},
            res["holds"])


def _cmd_tangent(doc, args) -> tuple:
    A, xbar, L, u = read_tangent_problem(doc)
    report = {"direction": u}
    if isinstance(A, PolyhedralSet) and L is not None:
        member = tangent_polyhedral(A, xbar, L).contains(u)
        report.update({"method": "exact_polyhedral",
                       "status": "member" if member else "nonmember"})
        return report, member
    sched = TSchedule() if args.radius is None else TSchedule(radius=args.radius)
    v = tangent_membership_sampled(A, xbar, L, u, sched)
    report.update({"method": "sampled", "status": v.status, "note": v.note,
                   "levels": len(v.evidence)})
    return report, v.status == "member"


def _cmd_kkt(doc, args) -> tuple:
    p = parse_problem(doc)
    cert = kkt_multipliers(p, read(doc, "e", vector, p.K.dim))
    if cert is None:
        return {"multipliers": None, "note": NO_MULTIPLIERS}, False
    return ({"multipliers": {
        "ystar": list(cert.ystar), "weights": list(cert.weights),
        "lambda": list(cert.lam), "tau": list(cert.tau),
        "normalization": cert.normalization,
        "residual_in_Lpolar": list(cert.residual)}}, True)


def _cmd_fritz_john(doc, args) -> tuple:
    p = parse_problem(doc)
    g = read(doc, "g", parse_objective, p.f.dim_in, "g", default=None)
    Q = None if g is None else read(doc, "Q", parse_cone, g.dim_out)
    res = fritz_john(p, g, Q)
    if res is None:
        return {"multipliers": None, "note": NO_MULTIPLIERS}, False
    ystar, zstar = res
    return {"multipliers": {"ystar": list(ystar), "zstar": list(zstar)}}, True


def _cmd_gerstewitz(doc, args) -> tuple:
    K = read(doc, "K", parse_cone)
    ctx = ScalarizationContext.create(K, read(doc, "e", vector, K.dim))
    y = read(doc, "y", vector, K.dim)
    return ({"value": gerstewitz_value(ctx, y),
             "subgradient": list(gerstewitz_subdiff(ctx, y).witness)}, True)


def _cmd_mintime(doc, args) -> tuple:
    target = read(doc, "target", parse_target)
    L = read(doc, "L", parse_direction_set, target.dim)
    value, exact = minimal_time(L, read(doc, "point", vector, L.dim),
                                target, norm=args.norm)
    return {"value": value, "exact": exact, "norm": args.norm}, True


def _cmd_openness(doc, args) -> tuple:
    p = parse_problem(doc)
    C = read(doc, "C", parse_direction_set, p.f.dim_out)
    res = openness_falsifier(
        p.f, p.x0, p.L, C,
        read(doc, "eps_schedule", vector, default=None),
        read(doc, "r_schedule", vector, default=None))
    return res, res["status"] == "witness"


def _cmd_penalized(doc, args) -> tuple:
    p = parse_problem(doc)
    A = read(doc, "A", parse_set, p.f.dim_in, ("polyhedron",))
    vm = read(doc, "vector_mode", parse_vector_mode, p.K, default=None)
    if vm is None and p.f.dim_out != 1:  # scalar mode orders by R+
        raise ProblemFileError(f"required for an objective with {p.f.dim_out} outputs",
                               ("vector_mode",))
    res = stationarity_penalized(p.f, A, p.x0, p.L, vm)
    if res is None:
        return {"witness": None, "note": NO_MULTIPLIERS}, False
    return {"witness": res}, True


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


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is one ``error:`` line, exit 1
        raise argparse.ArgumentError(None, message)


GRID_FLAGS = ("--radius", "--levels", "--rays", "--seed")
# the flags each subcommand reads besides --out (and --problem); any other
# flag is a usage error
FLAGS = {"certify": GRID_FLAGS + ("--weak",), "certify-set": GRID_FLAGS + ("--weak",),
         "tangent": ("--radius",), "mintime": ("--norm",), "examples": GRID_FLAGS}
FLAG_SPECS = {"--radius": {"type": float}, "--levels": {"type": int},
              "--rays": {"type": int}, "--seed": {"type": int},
              "--weak": {"action": "store_true"},
              "--norm": {"choices": ["l2", "linf"], "default": "l2"}}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one command-line parser, built on first use."""
    ap = _Parser(prog="dirpareto",
                 description="Directional Pareto minimality toolkit")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in [*COMMANDS, "examples"]:
        cmd = sub.add_parser(name)
        cmd.add_argument("--out", default=".", help="report directory")
        if name in COMMANDS:
            cmd.add_argument("--problem", required=True, help="JSON problem file")
        for flag in FLAGS.get(name, ()):
            cmd.add_argument(flag, **FLAG_SPECS[flag])
    ex = sub.choices["examples"]
    ex.add_argument("action", choices=["list", "run"])
    ex.add_argument("name", nargs="?")
    return ap


# exit 1 with a single ``error:`` line
ERRORS = (argparse.ArgumentError, ProblemFileError, CertifyError, GeometryError,
          LPError, ExpressionError, EvaluationError, ScalarizationError,
          ValueError, OSError, RecursionError)


def _examples(args) -> tuple:
    if args.name not in gallery_names():
        raise CertifyError(f"examples run needs a gallery name, one of {gallery_names()}")
    return run_example(args.name, _grid_from_args(GridSpec(), args))


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        # verdicts are decided on values: a numpy warning is never output
        with np.errstate(all="ignore"):
            if args.command != "examples":
                report, ok = COMMANDS[args.command](load(args.problem), args)
                code = 0 if ok else 2
            elif args.action == "list":
                print("\n".join(gallery_names()))
                return 0
            else:
                report, code = _examples(args)
            path = _write_report(args.out, args.command, report)
    except ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(path)
    return code


if __name__ == "__main__":
    sys.exit(main())
