"""JSON problem files.

A problem file is a single self-describing JSON object (schema_version
1).  Parsing normalizes it; serializing a parsed file reproduces an
equivalent normalized document, so round-trips are stable.

Every field is read through ``read``: a missing or wrongly shaped field
raises ``ProblemFileError`` with the dotted path of the field, so callers
never index a document themselves.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict

import numpy as np

from .certify import CertifyError, GridSpec, IneqEq, Problem
from .expressions import ExpressionError
from .geometry import (DirectionSet, GeometryError, HalfspaceCone, frozen_array, in_space,
                       rescaled_rows)
from .maps import BUILTINS, SmoothMap, from_expressions, sector_map
from .mintime import Target
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
    """A malformed problem document; ``path`` names the offending field."""

    def __init__(self, reason: str, path: tuple = ()):
        super().__init__(".".join(path) + ": " + reason if path else reason)
        self.reason, self.path = reason, path


_REQUIRED = object()


def read(doc, key: str, parse, *args, default=_REQUIRED):
    """``parse(doc[key], *args)``; ``default`` if the field is absent or null.

    Whatever the parse rejects (a wrong shape, geometry, grid or expression
    errors, or nesting past the recursion limit) becomes a ProblemFileError
    naming the field.
    """
    if not isinstance(doc, dict):
        raise ProblemFileError(f"expected an object, got {_show(doc)}")
    value = doc.get(key)
    if value is None:
        if default is _REQUIRED:
            raise ProblemFileError("required field is missing or null", (key,))
        return default
    try:
        return parse(value, *args)
    except ProblemFileError as exc:
        raise ProblemFileError(exc.reason, (key, *exc.path)) from None
    except (GeometryError, CertifyError, ExpressionError, RecursionError) as exc:
        raise ProblemFileError(str(exc), (key,)) from None


def _show(value) -> str:
    text = json.dumps(value)
    return text if len(text) <= 40 else text[:37] + "..."


def _variant(spec, keys: tuple) -> str:
    """The first of ``keys`` that the object ``spec`` gives."""
    if isinstance(spec, dict):
        for key in keys:
            if key in spec:
                return key
    raise ProblemFileError(
        f"expected an object giving {' or '.join(map(repr, keys))}, got {_show(spec)}")


# -- scalar and array fields ----------------------------------------------

def _number(value) -> float:
    """A finite JSON number; booleans are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not abs(value) <= sys.float_info.max:
        raise ProblemFileError(f"expected a finite number, got {_show(value)}")
    return float(value)


def _integer(value) -> int:
    """An integral JSON number (``2`` or ``2.0``, not ``2.7`` or ``true``)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not abs(value) <= sys.float_info.max or value != int(value):
        raise ProblemFileError(f"expected an integer, got {_show(value)}")
    return int(value)


def _string(value) -> str:
    if not isinstance(value, str):
        raise ProblemFileError(f"expected a string, got {_show(value)}")
    return value


def _strings(value) -> list:
    if not isinstance(value, list):
        raise ProblemFileError(f"expected a list of strings, got {_show(value)}")
    return [_string(s) for s in value]


def vector(value, size: int | None = None) -> list:
    """A list of finite numbers, as floats; ``size`` of them if given."""
    if not isinstance(value, list):
        raise ProblemFileError(f"expected a list of numbers, got {_show(value)}")
    if size is not None and len(value) != size:
        raise ProblemFileError(f"expected {size} numbers, got {_show(value)}")
    return [_number(c) for c in value]


def rows(value, size: int | None = None) -> list:
    """A list of number lists, as float lists; ``size`` numbers each if given."""
    if not isinstance(value, list) or not all(isinstance(r, list) for r in value):
        raise ProblemFileError(f"expected a list of number lists, got {_show(value)}")
    return [vector(r, size) for r in value]


def _entry(name, table: dict):
    if _string(name) not in table:
        raise ProblemFileError(f"unknown name {name!r}; known: {sorted(table)}")
    return table[name]


def _true(value) -> bool:
    if value is not True:
        raise ProblemFileError(f"expected true, got {_show(value)}")
    return True


# -- objects --------------------------------------------------------------

def parse_cone(value, dim: int | None = None) -> HalfspaceCone:
    """An H-representation ``[[a_11, ...], ...]`` of {y : a_i . y >= 0};
    a cone in R^dim if ``dim`` is given."""
    K = HalfspaceCone.from_rows(rows(value))
    return K if dim is None else in_space(K, dim, "cone")


# objective forms and how normalize echoes each one
_OBJECTIVES = {"builtin": _string, "sector": lambda v: vector(v, 2),
               "expressions": _strings}


def parse_objective(spec, dim_in: int, field: str) -> SmoothMap:
    """The map of ``spec``; an expression map is named after ``field``."""
    kind = _variant(spec, tuple(_OBJECTIVES))
    if kind == "builtin":
        f = read(spec, "builtin", _entry, BUILTINS)()
    elif kind == "sector":
        t1, t2 = read(spec, "sector", vector, 2)
        f = sector_map(t1, t2)
    else:
        f = from_expressions(read(spec, "expressions", _strings), dim_in, name=field)
    if f.dim_in != dim_in:
        raise ProblemFileError(
            f"{field} expects dimension {f.dim_in}, file says {dim_in}")
    return f


def _unit_rows(value) -> np.ndarray:
    vecs = frozen_array(rows(value), 2)
    if vecs.size == 0:
        raise ProblemFileError("expected at least one direction")
    vecs = rescaled_rows(vecs)
    norms = np.linalg.norm(vecs, axis=1, keepdims=True)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ProblemFileError(
            f"direction {zero[0]} is the zero vector {vecs[zero[0]].tolist()}")
    return vecs / norms


def parse_direction_set(spec, dim: int) -> DirectionSet:
    kind = _variant(spec, ("finite", "cone_section", "full_sphere"))
    if kind == "finite":
        L = DirectionSet.finite(read(spec, "finite", _unit_rows))
    elif kind == "cone_section":
        L = DirectionSet.cone_section(read(spec, "cone_section", parse_cone))
    else:
        read(spec, "full_sphere", _true)
        L = DirectionSet.full_sphere(dim)
    if L.dim != dim:
        raise ProblemFileError("direction set has the wrong dimension")
    return L


def parse_polyhedron(spec) -> PolyhedralSet:
    """``{"rows": [...], "offsets": [...]}``: the set {x : rows x >= offsets}."""
    return PolyhedralSet.from_rows(read(spec, "rows", rows),
                                   read(spec, "offsets", vector))


def parse_set(spec, dim: int | None = None, kinds: tuple = ("polyhedron", "named")):
    """A polyhedron or a named region, in R^dim if ``dim`` is given;
    ``kinds`` limits the accepted forms."""
    if _variant(spec, kinds) == "polyhedron":
        s = read(spec, "polyhedron", parse_polyhedron)
    else:
        s = read(spec, "named", _entry, NAMED_SETS)()
    return s if dim is None else in_space(s, dim, "set")


def parse_target(spec) -> Target:
    """A mintime target: ``point``, ``points`` or ``polyhedron``."""
    kind = _variant(spec, ("point", "points", "polyhedron"))
    if kind == "point":
        return Target.point(read(spec, "point", vector))
    if kind == "points":
        return Target.finite_points(read(spec, "points", rows))
    return Target.polyhedral(read(spec, "polyhedron", parse_polyhedron))


def parse_vector_mode(spec, K: HalfspaceCone) -> dict:
    """Vector mode of penalized stationarity: ``{"e": [...], "ell": lip}``."""
    return {"e": read(spec, "e", vector, K.dim), "ell": read(spec, "ell", _number), "K": K}


_GRID_FIELDS = {"radius": _number, "levels": _integer, "rays_per_level": _integer,
                "seed": _integer}


def parse_grid(spec) -> GridSpec:
    """Grid from the file; fields it leaves out keep GridSpec's defaults."""
    return GridSpec(**{k: read(spec, k, parse, default=getattr(GridSpec, k))
                       for k, parse in _GRID_FIELDS.items()})


def parse_constraint(spec, dim_in: int):
    if isinstance(spec, dict) and ("mu" in spec or "nu" in spec):
        mu = tuple(from_expressions([e], dim_in, name=f"mu{i}")
                   for i, e in enumerate(read(spec, "mu", _strings, default=[])))
        nu = tuple(from_expressions([e], dim_in, name=f"nu{j}")
                   for j, e in enumerate(read(spec, "nu", _strings, default=[])))
        return IneqEq(mu, nu)
    return parse_set(spec, dim_in)


def parse_problem(doc: dict) -> Problem:
    if read(doc, "schema_version", _integer, default=SCHEMA_VERSION) != SCHEMA_VERSION:
        raise ProblemFileError("unsupported schema_version")
    dim_in = read(doc, "dim_in", _integer)
    f = read(doc, "objective", parse_objective, dim_in, "objective")
    K = read(doc, "K", parse_cone)
    L = read(doc, "L", parse_direction_set, dim_in)
    xbar = read(doc, "point", vector, dim_in)
    grid = read(doc, "grid", parse_grid, default=GridSpec())
    constraint = read(doc, "constraint", parse_constraint, dim_in, default=None)
    return Problem(f, K, L, tuple(xbar), grid, constraint)


def read_set_problem(doc: dict) -> tuple:
    """(M, point, K, L, grid) of a ``certify-set`` document, the first four
    in the order ``certify_set_min`` takes them."""
    M = read(doc, "set", parse_set)
    K = read(doc, "K", parse_cone)
    L = read(doc, "L", parse_direction_set, M.dim)
    grid = read(doc, "grid", parse_grid, default=GridSpec())
    return M, read(doc, "point", vector, M.dim), K, L, grid


def read_tangent_problem(doc: dict) -> tuple:
    """(A, point, L or None, direction) of a ``tangent`` document, in the
    order ``tangent_membership_sampled`` takes them."""
    A = read(doc, "set", parse_set)
    xbar = read(doc, "point", vector, A.dim)
    u = read(doc, "direction", vector, A.dim)
    return A, xbar, read(doc, "L", parse_direction_set, A.dim, default=None), u


def normalize(doc: dict) -> dict:
    """Normalized document: defaults filled, numbers coerced to float.

    parse(normalize(doc)) and parse(doc) build equivalent problems, and
    normalize is idempotent.
    """
    return echo(doc, parse_problem(doc))


def echo(doc: dict, p: Problem) -> dict:
    """The normalized document of ``doc``, read from ``p = parse_problem(doc)``."""
    obj = doc["objective"]
    kind = _variant(obj, tuple(_OBJECTIVES))
    out = {"schema_version": SCHEMA_VERSION, "dim_in": p.f.dim_in,
           "objective": {kind: read(obj, kind, _OBJECTIVES[kind])},
           "K": p.K.rows.tolist()}
    if p.L.variant == "finite":
        out["L"] = {"finite": p.L.vectors.tolist()}
    elif p.L.variant == "cone_section":
        out["L"] = {"cone_section": p.L.section.rows.tolist()}
    else:
        out["L"] = {"full_sphere": True}
    out["point"] = list(p.xbar)
    out["grid"] = asdict(p.grid)
    con = p.constraint
    if con is None:
        out["constraint"] = None
    elif isinstance(con, IneqEq):
        spec = doc["constraint"]
        out["constraint"] = {"mu": read(spec, "mu", _strings, default=[]),
                             "nu": read(spec, "nu", _strings, default=[])}
    elif isinstance(con, PolyhedralSet):
        out["constraint"] = {"polyhedron": {"rows": con.rows.tolist(),
                                            "offsets": con.offsets.tolist()}}
    else:
        out["constraint"] = {"named": doc["constraint"]["named"]}
    return out


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ProblemFileError(f"invalid JSON in {path}: {exc}") from exc
