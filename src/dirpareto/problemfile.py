"""JSON problem files.

A problem file is a single self-describing JSON object (schema_version
1).  Parsing normalizes it; serializing a parsed file reproduces an
equivalent normalized document, so round-trips are stable.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np

from .certify import GridSpec, IneqEq, Problem
from .geometry import DirectionSet, HalfspaceCone
from .maps import SmoothMap, builtin, from_expressions, sector_map
from .sets import (
    PolyhedralSet,
    cardioid_region,
    closed_curve_region,
    curve_halfplane_set,
)

SCHEMA_VERSION = 1

NAMED_SETS = {
    "cardioid": cardioid_region,
    "closed-curve": closed_curve_region,
    "curve-halfplane": curve_halfplane_set,
}


class ProblemFileError(Exception):
    pass


def _floats(rows):
    return [[float(c) for c in r] for r in rows]


def parse_objective(spec, dim_in: int) -> SmoothMap:
    if isinstance(spec, dict) and "builtin" in spec:
        f = builtin(spec["builtin"])
    elif isinstance(spec, dict) and "sector" in spec:
        t1, t2 = spec["sector"]
        f = sector_map(float(t1), float(t2))
    elif isinstance(spec, dict) and "expressions" in spec:
        f = from_expressions(spec["expressions"], dim_in)
    else:
        raise ProblemFileError(
            "objective must give 'builtin', 'sector' or 'expressions'")
    if f.dim_in != dim_in:
        raise ProblemFileError(
            f"objective expects dimension {f.dim_in}, file says {dim_in}")
    return f


def parse_direction_set(spec, dim: int) -> DirectionSet:
    if "finite" in spec:
        vecs = np.array(_floats(spec["finite"]))
        vecs = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
        L = DirectionSet.finite(vecs)
    elif "cone_section" in spec:
        L = DirectionSet.cone_section(
            HalfspaceCone.from_rows(_floats(spec["cone_section"])))
    elif spec.get("full_sphere"):
        L = DirectionSet.full_sphere(dim)
    else:
        raise ProblemFileError(
            "L must give 'finite', 'cone_section' or 'full_sphere'")
    if L.dim != dim:
        raise ProblemFileError("direction set has the wrong dimension")
    return L


def parse_set(spec):
    if "polyhedron" in spec:
        p = spec["polyhedron"]
        return PolyhedralSet.from_rows(_floats(p["rows"]),
                                       [float(b) for b in p["offsets"]])
    if "named" in spec:
        name = spec["named"]
        if name not in NAMED_SETS:
            raise ProblemFileError(
                f"unknown named set {name!r}; known: {sorted(NAMED_SETS)}")
        return NAMED_SETS[name]()
    raise ProblemFileError("set must give 'polyhedron' or 'named'")


_GRID_FIELDS = {"radius": float, "levels": int, "rays_per_level": int, "seed": int}


def parse_grid(spec) -> GridSpec:
    """Grid from the file; fields it leaves out keep GridSpec's defaults."""
    spec = {} if spec is None else spec
    if not isinstance(spec, dict):
        raise ProblemFileError("grid must be an object")
    return GridSpec(**{k: cast(spec[k]) for k, cast in _GRID_FIELDS.items()
                       if k in spec})


def parse_constraint(spec, dim_in: int):
    if spec is None:
        return None
    if "mu" in spec or "nu" in spec:
        mu = tuple(from_expressions([e], dim_in, name=f"mu{i}")
                   for i, e in enumerate(spec.get("mu", [])))
        nu = tuple(from_expressions([e], dim_in, name=f"nu{j}")
                   for j, e in enumerate(spec.get("nu", [])))
        return IneqEq(mu, nu)
    return parse_set(spec)


def parse_problem(doc: dict) -> Problem:
    if doc.get("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
        raise ProblemFileError("unsupported schema_version")
    try:
        dim_in = int(doc["dim_in"])
        f = parse_objective(doc["objective"], dim_in)
        K = HalfspaceCone.from_rows(_floats(doc["K"]))
        L = parse_direction_set(doc["L"], dim_in)
        xbar = [float(c) for c in doc["point"]]
        grid = parse_grid(doc.get("grid"))
        constraint = parse_constraint(doc.get("constraint"), dim_in)
    except KeyError as exc:
        raise ProblemFileError(f"missing field {exc}") from exc
    return Problem(f, K, L, tuple(xbar), grid, constraint)


def normalize(doc: dict) -> dict:
    """Normalized document: defaults filled, numbers coerced to float.

    parse(normalize(doc)) and parse(doc) build equivalent problems, and
    normalize is idempotent.
    """
    p = parse_problem(doc)  # validates; L, point and grid are read from it
    out = {"schema_version": SCHEMA_VERSION, "dim_in": int(doc["dim_in"])}
    obj = doc["objective"]
    if "builtin" in obj:
        out["objective"] = {"builtin": obj["builtin"]}
    elif "sector" in obj:
        out["objective"] = {"sector": [float(t) for t in obj["sector"]]}
    else:
        out["objective"] = {"expressions": list(obj["expressions"])}
    out["K"] = _floats(doc["K"])
    if p.L.variant == "finite":
        out["L"] = {"finite": p.L.matrix.tolist()}
    elif p.L.variant == "cone_section":
        out["L"] = {"cone_section": p.L.section.matrix.tolist()}
    else:
        out["L"] = {"full_sphere": True}
    out["point"] = list(p.xbar)
    out["grid"] = asdict(p.grid)
    con = doc.get("constraint")
    if con is None:
        out["constraint"] = None
    elif "mu" in con or "nu" in con:
        out["constraint"] = {"mu": list(con.get("mu", [])),
                             "nu": list(con.get("nu", []))}
    elif "polyhedron" in con:
        out["constraint"] = {"polyhedron": {
            "rows": _floats(con["polyhedron"]["rows"]),
            "offsets": [float(b) for b in con["polyhedron"]["offsets"]]}}
    else:
        out["constraint"] = {"named": con["named"]}
    return out


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ProblemFileError(f"invalid JSON in {path}: {exc}") from exc
