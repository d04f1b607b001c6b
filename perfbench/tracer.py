"""Span tracing around the public names of every dirpareto layer.

The benchmark installs these wrappers only for its traced pass.  Each
wrapped call records one span (name, start, end, parent span, query id)
in flat in-memory arrays; the spans are written out once the run ends.
A span's self time is its duration minus the time its child spans cover.
Deterministic counters (LP calls, grid samples, ...) are taken at the
same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter

# (module, attribute, span name).  "Class.method" patches the class, which
# every instance shares; a plain name is replaced in every dirpareto
# namespace that imported it (``from .lp import lp_feasible`` and so on).
TARGETS = [
    ("lp", "lp_feasible", "lp"),
    ("lp", "lp_minimize", "lp"),
    ("geometry", "HalfspaceCone.contains", "geometry.halfspace_contains"),
    ("geometry", "GeneratorCone.contains", "geometry.generator_contains"),
    ("geometry", "cone_contains", "geometry.cone_contains"),
    ("geometry", "direction_samples", "geometry.direction_samples"),
    ("geometry", "conic_hull", "geometry.hull"),
    ("geometry", "HalfspaceCone.from_rows", "geometry.construct"),
    ("geometry", "GeneratorCone.from_generators", "geometry.construct"),
    ("geometry", "DirectionSet.finite", "geometry.construct"),
    ("geometry", "DirectionSet.cone_section", "geometry.construct"),
    ("geometry", "DirectionSet.full_sphere", "geometry.construct"),
    ("sets", "PolygonRegion.contains", "sets.polygon_contains"),
    ("sets", "PolyhedralSet.contains", "sets.polyhedral_contains"),
    ("sets", "UnionSet.contains", "sets.composite_contains"),
    ("sets", "IntersectionSet.contains", "sets.composite_contains"),
    ("sets", "ImplicitSet.contains", "sets.composite_contains"),
    ("maps", "SmoothMap.__call__", "maps.eval"),
    ("maps", "SmoothMap.jacobian", "maps.jacobian"),
    ("tangent", "tangent_membership_sampled", "tangent.sampled"),
    ("tangent", "tangent_polyhedral", "tangent.polyhedral"),
    ("mintime", "minimal_time", "mintime.minimal_time"),
    ("mintime", "calmness_ratio", "mintime.ratio"),
    ("mintime", "subregularity_ratio", "mintime.ratio"),
    ("scalarize", "gerstewitz_value", "scalarize.value"),
    ("scalarize", "gerstewitz_subdiff", "scalarize.subdiff"),
    ("multipliers", "fritz_john", "multipliers"),
    ("multipliers", "kkt_multipliers", "multipliers"),
    ("multipliers", "stationarity_penalized", "multipliers"),
    ("multipliers", "sufficiency_certificate", "multipliers"),
    ("certify", "certify_directional_min", "certify.directional"),
    ("certify", "certify_set_min", "certify.set"),
    ("certify", "tangent_sufficiency_sets", "certify.sufficiency"),
    ("certify", "openness_falsifier", "certify.openness"),
    ("certify", "check_first_order_necessary", "certify.first_order"),
    ("problemfile", "load", "problemfile.parse"),
    ("problemfile", "parse_problem", "problemfile.parse"),
    ("problemfile", "parse_set", "problemfile.parse"),
    ("problemfile", "parse_direction_set", "problemfile.parse"),
    ("problemfile", "parse_objective", "problemfile.parse"),
    ("problemfile", "normalize", "problemfile.parse"),
    ("cli", "main", "cli.main"),
    ("gallery", "run_example", "gallery.run_example"),
]

SPAN_NAMES = sorted({name for _, _, name in TARGETS})
LAYERS = sorted({name.split(".")[0] for name in SPAN_NAMES})

# The hooks feed deterministic counters (for fixed inputs) from the
# arguments and results of the wrapped calls.
def _lp_hook(counts, args, result, exc):
    p = args[0]
    counts["lp.rows"] += len(p.a_ub) + len(p.a_eq)
    counts["lp.cols"] += p.n
    if exc is not None:
        if type(exc).__name__ == "LPError":
            counts["lp.errors"] += 1
    elif result is None:
        counts["lp.infeasible"] += 1


def _multiplier_hook(counts, args, result, exc):
    if exc is None and result is None:
        counts["multipliers.none"] += 1


def _certify_hook(counts, args, result, exc):
    if exc is not None:
        return
    counts["certify.samples"] += result.samples
    if result.verdict == "refuted":
        counts["certify.refuted"] += 1
    elif result.samples == 0 and not result.note:
        counts["certify.vacuous_unflagged"] += 1


HOOKS = {"lp": _lp_hook, "multipliers": _multiplier_hook,
         "certify.directional": _certify_hook, "certify.set": _certify_hook}


class Tracer:
    """In-memory span store with a stack of open spans."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.query = array("l")
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        self._stack: list[int] = []
        self._child: list[float] = []
        self.query_id = -1
        self.counts: Counter = Counter()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.query.append(self.query_id)
        self.end.append(0.0)
        self.self_time.append(0.0)
        self._stack.append(idx)
        self._child.append(0.0)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        t = time.perf_counter()
        self._stack.pop()
        covered = self._child.pop()
        duration = t - self.start[idx]
        self.end[idx] = t
        self.self_time[idx] = duration - covered
        if self._child:
            self._child[-1] += duration

    def wrap(self, fn, span: str):
        nid = self.name_id(span)
        hook = HOOKS.get(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(idx)
                if hook is not None:
                    hook(self.counts, args, None, exc)
                raise
            self.close(idx)
            if hook is not None:
                hook(self.counts, args, result, None)
            return result

        return traced

    def summary(self) -> dict:
        """Calls and self seconds per span name, over all recorded spans."""
        calls = Counter()
        self_s = Counter()
        for nid, st in zip(self.name, self.self_time):
            calls[nid] += 1
            self_s[nid] += st
        return {self.names[nid]: (calls[nid], self_s[nid]) for nid in calls}

    def write(self, path: str) -> None:
        """Spans as one tab-separated line each, after a header."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tparent\tquery\tstart\tend\tself_s\n")
            t0 = self.start[0] if self.start else 0.0
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.names[self.name[i]]}\t{self.parent[i]}\t"
                         f"{self.query[i]}\t{self.start[i] - t0:.9f}\t"
                         f"{self.end[i] - t0:.9f}\t{self.self_time[i]:.9f}\n")


def _resolve(owner, dotted: str):
    parts = dotted.split(".")
    for p in parts[:-1]:
        owner = getattr(owner, p)
    return owner, parts[-1]


def install(tracer: Tracer, package: str = "dirpareto"):
    """Patch every target; returns the undo list for ``uninstall``."""
    for mod_name in {t[0] for t in TARGETS}:
        importlib.import_module(f"{package}.{mod_name}")
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == package or n.startswith(package + "."))]
    undo = []
    wrapped = {}
    for mod_name, dotted, span in TARGETS:
        module = sys.modules[f"{package}.{mod_name}"]
        owner, attr = _resolve(module, dotted)
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            if isinstance(raw, staticmethod):
                new = staticmethod(tracer.wrap(raw.__func__, span))
            else:
                new = tracer.wrap(raw, span)
            undo.append((owner, attr, raw))
            setattr(owner, attr, new)
            continue
        original = getattr(owner, attr)
        if id(original) not in wrapped:
            wrapped[id(original)] = tracer.wrap(original, span)
        for m in modules:
            for name, value in list(vars(m).items()):
                if value is original:
                    undo.append((m, name, original))
                    setattr(m, name, wrapped[id(original)])
    return undo


def uninstall(undo) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metric values (without trace.overhead_frac)."""
    summary = tracer.summary()
    out = {}
    for span in SPAN_NAMES:
        calls, self_s = summary.get(span, (0, 0.0))
        out[f"{span}.calls"] = calls
        out[f"{span}.self_s"] = self_s
    for layer in LAYERS:
        spans = [s for s in SPAN_NAMES if s.split(".")[0] == layer]
        if len(spans) > 1:
            out[f"{layer}.calls"] = sum(out[f"{s}.calls"] for s in spans)
            out[f"{layer}.self_s"] = sum(out[f"{s}.self_s"] for s in spans)
    c = tracer.counts
    lp_calls = out["lp.calls"]
    out["lp.infeasible"] = c["lp.infeasible"]
    out["lp.errors"] = c["lp.errors"]
    out["lp.rows_mean"] = c["lp.rows"] / lp_calls if lp_calls else 0.0
    out["lp.cols_mean"] = c["lp.cols"] / lp_calls if lp_calls else 0.0
    out["geometry.hull_builds"] = out.pop("geometry.hull.calls")
    out["multipliers.none"] = c["multipliers.none"]
    for k in ("certify.samples", "certify.refuted", "certify.vacuous_unflagged"):
        out[k] = c[k]
    samples = c["certify.samples"]
    out["maps.evals_per_sample"] = (out["maps.eval.calls"] / samples
                                    if samples else 0.0)
    out["trace.spans"] = len(tracer.start)
    return out


def unit_of(metric: str) -> str:
    if metric.endswith("self_s"):
        return "s"
    if metric.endswith(("_frac", "per_sample")):
        return "ratio"
    return {"lp.rows_mean": "rows", "lp.cols_mean": "cols"}.get(metric, "count")


def metric_names() -> list:
    """Every per-layer metric a traced run prints."""
    return sorted(layer_metrics(Tracer())) + ["cli.report_bytes", "trace.overhead_frac"]
