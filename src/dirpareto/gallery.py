"""The frozen example gallery.

Each entry bundles a figure-sized problem with the runs that reproduce
its published verdicts.  Entry names and definitions are frozen; the
primary run's verdict drives the CLI exit code (0 when it matches the
expected outcome and that outcome is a certificate, 2 when the expected
outcome is a refutation, 1 on mismatch).

Every run is a problem document that ``dirpareto <kind> --problem``
accepts, read by the same parsers; an entry's documents are parsed once
per process.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, replace

import numpy as np

from .certify import GridSpec, certify_directional_min, certify_set_min
from .tangent import TSchedule, tangent_membership_sampled

SECTOR_T1 = np.pi / 6.0
SECTOR_T2 = np.pi / 3.0


def _circle(count: int) -> list:
    ang = 2.0 * np.pi * np.arange(count) / count
    return np.stack([np.cos(ang), np.sin(ang)], axis=1).tolist()


def _arc(t0: float, t1: float, count: int) -> list:
    ang = np.linspace(t0, t1, count)
    return np.stack([np.cos(ang), np.sin(ang)], axis=1).tolist()


def _certify(objective: dict, K: list, point: list, *runs) -> list:
    """``certify`` runs on the default grid: one document per (run, finite
    directions of L, expected verdict) of ``runs``."""
    return [(run, "certify", {"dim_in": len(point), "objective": objective, "K": K,
                              "L": {"finite": L}, "point": point}, expected)
            for run, L, expected in runs]


# K = R_+, R^2_+ and the wedge cone conv{(1,0),(1,1)}, in H-representation
_R_PLUS, _R2_PLUS, _WEDGE = [[1.0]], [[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, -1.0]]
_X_AXIS, _PLUS, _MINUS = [[1.0, 0.0], [-1.0, 0.0]], [[1.0]], [[-1.0]]
_CARDIOID = {"set": {"named": "cardioid"}, "point": [0.0, 0.0], "direction": [-1.0, 0.0]}
_CURVE_HALFPLANE = {"set": {"named": "curve-halfplane"}, "K": _R2_PLUS, "point": [0.0, 0.0]}
_CERTIFIED = "certified_on_grid"

# entry -> (nominal exit code, runs); a run is (name, kind, document,
# expected verdict) and its document is what ``dirpareto <kind>`` reads
GALLERY = {
    "saddle-x2-y2": (0, _certify({"builtin": "saddle_x2_y2"}, _R_PLUS, [0.0, 0.0],
                                 ("L-x-axis", _X_AXIS, _CERTIFIED),
                                 ("L-full-circle", _circle(128), "refuted"))),
    "saddle-x2-y3": (0, _certify({"builtin": "saddle_x2_y3"}, _R_PLUS, [0.0, 0.0],
                                 ("L-x-axis", _X_AXIS, _CERTIFIED),
                                 ("L-down", [[0.0, -1.0]], _CERTIFIED))),
    "sin-inv-x": (2, _certify({"builtin": "sin_inv_x"}, _R_PLUS, [0.0],
                              ("L-plus", _PLUS, "refuted"), ("L-minus", _MINUS, "refuted"))),
    "x3-sin-inv-x": (2, _certify({"builtin": "x3_sin_inv_x"}, _R_PLUS, [0.0],
                                 ("L-plus", _PLUS, "refuted"), ("L-minus", _MINUS, "refuted"))),
    "arctan-sector": (0, _certify({"sector": [SECTOR_T1, SECTOR_T2]}, _R_PLUS, [0.0, 0.0],
                                  ("L-sector-arc", _arc(SECTOR_T1, SECTOR_T2, 128), _CERTIFIED))),
    "vector-2x-x": (0, _certify({"builtin": "vector_2x_x"}, _WEDGE, [0.0],
                                ("L-plus", _PLUS, _CERTIFIED),
                                ("L-both", _MINUS + _PLUS, "refuted"))),
    "vector-pair-saddle": (0, _certify({"builtin": "vector_pair_saddle"}, _R2_PLUS, [0.0, 0.0],
                                       ("L-x-axis", _X_AXIS, _CERTIFIED))),
    "cardioid-tangent": (0, [
        ("restricted", "tangent", dict(_CARDIOID, L={"finite": [[-1.0, 0.0]]}), "nonmember"),
        ("unrestricted", "tangent", _CARDIOID, "member")]),
    "set-curve-halfplane": (0, [
        ("L-arc", "certify-set",
         dict(_CURVE_HALFPLANE, L={"finite": _arc(np.pi, 1.25 * np.pi, 64)}), _CERTIFIED),
        ("L-full-circle", "certify-set",
         dict(_CURVE_HALFPLANE, L={"finite": _circle(128)}), "refuted")]),
}

def gallery_names() -> list:
    return list(GALLERY)


@functools.cache
def _parsed(name: str) -> tuple:
    """(run, kind, parsed document, expected) of each run of an entry.  The
    readers load here, so ``import dirpareto`` leaves the file parser out."""
    from .problemfile import parse_problem, read_set_problem, read_tangent_problem

    readers = {"certify": parse_problem, "certify-set": read_set_problem,
               "tangent": read_tangent_problem}
    return tuple((run, kind, readers[kind](doc), expected)
                 for run, kind, doc, expected in GALLERY[name][1])


def _run(kind: str, problem, grid: GridSpec) -> tuple:
    """(report, verdict) of one parsed run on ``grid``."""
    if kind == "tangent":
        v = tangent_membership_sampled(*problem, TSchedule())
        return {"status": v.status, "note": v.note, "levels": len(v.evidence)}, v.status
    if kind == "certify":
        rep = certify_directional_min(replace(problem, grid=grid))
    else:
        M, xbar, K, L, _ = problem
        rep = certify_set_min(M, xbar, K, L, grid=grid)
    return rep.as_dict(), rep.verdict


def run_example(name: str, grid: GridSpec | None = None):
    """Run a gallery entry; returns (report dict, exit code).

    Exit code is the entry's nominal code (0 certificate / 2 refutation)
    when every run reproduces its expected verdict, else 1.
    """
    if name not in GALLERY:
        raise KeyError(f"unknown gallery entry {name!r}; "
                       f"known: {gallery_names()}")
    grid = grid or GridSpec()
    runs = []
    for run, kind, problem, expected in _parsed(name):
        report, verdict = _run(kind, problem, grid)
        runs.append({"run": run, "kind": kind, "expected": expected,
                     "report": report, "match": verdict == expected})
    all_match = all(r["match"] for r in runs)
    report = {"example": name, "grid": asdict(grid), "runs": runs, "reproduced": all_match}
    return report, (GALLERY[name][0] if all_match else 1)
