"""gallery: the nine frozen entries at the default grid, one query each.

The reference path and the slowest user-visible one: polygon membership
and the sampled tangent verdict do most of the work, the LP almost none.
The inputs are frozen, so the seed does not apply.  Each entry must give
the frozen exit code and the frozen verdict of every run; added keys and
note text are free to change.  Every certify / certify-set run is also
re-walked in numpy.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import checks
from common import Query, Workload

FROZEN = Path(__file__).resolve().parent / "gallery_frozen.json"
TS = 0.5 * 0.5 ** np.arange(21)   # the default grid: radius 0.5, 21 levels
# Entries that answer faster than this are timed by their fastest call in
# short windows spread over each pass: one call is too short to time
# steadily on a shared machine.  The three slow entries run once per pass.
REPEAT_FOR = 0.05


def _circle(n):
    ang = 2.0 * np.pi * np.arange(n) / n
    return np.stack([np.cos(ang), np.sin(ang)], axis=1)


def _arc(t0, t1, n):
    ang = np.linspace(t0, t1, n)
    return np.stack([np.cos(ang), np.sin(ang)], axis=1)


def _sector(t1, t2):
    def f(X):
        x, y = X[:, 0], X[:, 1]
        out = np.empty(len(X))
        with np.errstate(divide="ignore", invalid="ignore"):
            ang = np.arctan(y / x)
        out[:] = (t2 - ang) * (ang - t1)
        out[(x < 0.0) & (y < 0.0)] = -1.0
        out[x == 0.0] = 0.0
        return out[:, None]
    return f


def _sin_inv(X):
    x = X[:, 0]
    with np.errstate(divide="ignore"):
        return np.where(x != 0.0, np.sin(1.0 / np.where(x != 0.0, x, 1.0)), 0.0)[:, None]


def _x3_sin_inv(X):
    x = X[:, 0]
    safe = np.where(x != 0.0, x, 1.0)
    return np.where(x != 0.0, x ** 3 * np.sin(1.0 / safe), 0.0)[:, None]


SADDLE2 = lambda X: (X[:, 0] ** 2 - X[:, 1] ** 2)[:, None]  # noqa: E731
SADDLE3 = lambda X: (X[:, 0] ** 2 - X[:, 1] ** 3)[:, None]  # noqa: E731
VEC_2X_X = lambda X: np.stack([2 * X[:, 0], X[:, 0]], axis=1)  # noqa: E731
PAIR = lambda X: np.stack([X[:, 0] ** 2 - X[:, 1] ** 2,  # noqa: E731
                           X[:, 0] ** 2 - X[:, 1] ** 3], axis=1)
R_PLUS = [[1.0]]
R2_PLUS = [[1.0, 0.0], [0.0, 1.0]]
K_WEDGE = [[0.0, 1.0], [1.0, -1.0]]
X_AXIS = np.array([[1.0, 0.0], [-1.0, 0.0]])

# (entry, run) -> (objective, K rows, directions, xbar) of each certify run
CERTIFY_RUNS = {
    ("saddle-x2-y2", "L-x-axis"): (SADDLE2, R_PLUS, X_AXIS, (0.0, 0.0)),
    ("saddle-x2-y2", "L-full-circle"): (SADDLE2, R_PLUS, _circle(128), (0.0, 0.0)),
    ("saddle-x2-y3", "L-x-axis"): (SADDLE3, R_PLUS, X_AXIS, (0.0, 0.0)),
    ("saddle-x2-y3", "L-down"): (SADDLE3, R_PLUS, np.array([[0.0, -1.0]]), (0.0, 0.0)),
    ("sin-inv-x", "L-plus"): (_sin_inv, R_PLUS, np.array([[1.0]]), (0.0,)),
    ("sin-inv-x", "L-minus"): (_sin_inv, R_PLUS, np.array([[-1.0]]), (0.0,)),
    ("x3-sin-inv-x", "L-plus"): (_x3_sin_inv, R_PLUS, np.array([[1.0]]), (0.0,)),
    ("x3-sin-inv-x", "L-minus"): (_x3_sin_inv, R_PLUS, np.array([[-1.0]]), (0.0,)),
    ("arctan-sector", "L-sector-arc"): (_sector(np.pi / 6.0, np.pi / 3.0), R_PLUS,
                                        _arc(np.pi / 6.0, np.pi / 3.0, 128), (0.0, 0.0)),
    ("vector-2x-x", "L-plus"): (VEC_2X_X, K_WEDGE, np.array([[1.0]]), (0.0,)),
    ("vector-2x-x", "L-both"): (VEC_2X_X, K_WEDGE, np.array([[-1.0], [1.0]]), (0.0,)),
    ("vector-pair-saddle", "L-x-axis"): (PAIR, R2_PLUS, X_AXIS, (0.0, 0.0)),
}
# the verdict of a run: these fields must keep their frozen values
RUN_FIELDS = ("run", "kind", "expected", "match")
REPORT_FIELDS = ("verdict", "status", "samples", "weak", "counterexample")


def _verdict_differs(report, frozen) -> str | None:
    """The first verdict field in which ``report`` differs from ``frozen``."""
    for key in ("example", "reproduced"):
        if report.get(key) != frozen[key]:
            return key
    runs, old_runs = report.get("runs", []), frozen["runs"]
    if len(runs) != len(old_runs):
        return f"{len(runs)} runs, frozen {len(old_runs)}"
    for run, old in zip(runs, old_runs):
        for key in RUN_FIELDS:
            if run.get(key) != old[key]:
                return f"{old['run']}: {key}"
        for key in REPORT_FIELDS:
            if key not in old["report"]:
                continue
            got, want = run["report"].get(key), old["report"][key]
            if key == "counterexample" and isinstance(got, dict):
                # the point and its image, to rounding
                same = got.keys() == want.keys() and all(
                    np.allclose(got[k], want[k], rtol=1e-12, atol=1e-15) for k in want)
            else:
                same = got == want
            if not same:
                return f"{old['run']}: {key} {got!r}, frozen {want!r}"
    return None


SET_RUNS = {"L-arc": _arc(np.pi, 1.25 * np.pi, 64), "L-full-circle": _circle(128)}


def _curve_halfplane_member(vertices):
    """M = H u (closed-curve region n -H), H = {x + y >= 0}, as the gallery
    defines it (polyhedron tolerance 1e-9, polygon edge tolerance 1e-12)."""
    def member(X):
        s = X[:, 0] + X[:, 1]
        return (s >= -checks.TOL) | ((s <= checks.TOL)
                                     & checks.polygon_contains(vertices, X, 1e-12))
    return member


def _recheck_run(entry, run, curve_vertices):
    """Independent re-walk of one certify or certify-set run."""
    rep = run["report"]
    if run["kind"] == "certify":
        f, k_rows, dirs, xbar = CERTIFY_RUNS[(entry, run["run"])]
        x0 = np.array(xbar, float)
        f0 = f(x0[None, :])[0]
        expected = checks.walk(x0, dirs, TS, lambda X: f(X) - f0, k_rows, rep["weak"])
        return checks.check_cert_report(rep, expected)
    if run["kind"] == "certify-set":
        member = _curve_halfplane_member(curve_vertices)
        x0 = np.zeros(2)
        expected = checks.walk(x0, SET_RUNS[run["run"]], TS, lambda X: X - x0,
                               R2_PLUS, rep["weak"], feasible=member)
        return checks.check_cert_report(rep, expected)
    return None   # sampled tangent runs: the frozen comparison is the check


def build(dp, seed: int, workdir) -> Workload:
    frozen = json.loads(FROZEN.read_text())
    names = dp.gallery_names()
    if sorted(names) != sorted(frozen):
        raise SystemExit("error: gallery entries differ from the frozen set")
    curve = checks.lazy(lambda: np.array(dp.sets.closed_curve_region().vertices))
    gallery = dp.gallery

    def make(qid, name):
        def check(result, exc):
            if exc is not None:
                return f"{name}: raised {type(exc).__name__}: {exc}"
            report, code = result
            report = json.loads(json.dumps(report))
            if code != frozen[name]["code"]:
                return f"{name}: exit code {code}, frozen {frozen[name]['code']}"
            why = _verdict_differs(report, frozen[name]["report"])
            if why:
                return f"{name}: differs from the frozen report in {why}"
            for run in report["runs"]:
                why = _recheck_run(name, run, curve())
                if why:
                    return f"{name}/{run['run']}: {why}"
            return None
        return Query(qid, name, lambda: gallery.run_example(name), check,
                     min_time=REPEAT_FOR)

    queries = [make(i, n) for i, n in enumerate(names)]
    runs = sum(len(frozen[n]["report"]["runs"]) for n in names)
    # one pass takes most of a run; a second one gives every entry a second
    # chance to be timed outside a slow spell of the machine
    return Workload(queries, inputs={"entries": names},
                    notes={"frozen runs": runs}, min_passes=2)
