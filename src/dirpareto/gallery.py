"""The frozen example gallery.

Each entry bundles a figure-sized problem with the runs that reproduce
its published verdicts.  Entry names and definitions are frozen; the
primary run's verdict drives the CLI exit code (0 when it matches the
expected outcome and that outcome is a certificate, 2 when the expected
outcome is a refutation, 1 on mismatch).
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np

from .certify import GridSpec, Problem, certify_directional_min, certify_set_min
from .geometry import DirectionSet, HalfspaceCone
from .maps import builtin, sector_map
from .sets import cardioid_region, curve_halfplane_set
from .tangent import TSchedule, tangent_membership_sampled

R_PLUS = HalfspaceCone.from_rows([[1.0]])
R2_PLUS = HalfspaceCone.from_rows([[1.0, 0.0], [0.0, 1.0]])
# K = cone conv{(1,0),(1,1)} in H-representation
K_WEDGE = HalfspaceCone.from_rows([[0.0, 1.0], [1.0, -1.0]])

L_X_AXIS = DirectionSet.finite([(1.0, 0.0), (-1.0, 0.0)])
L_DOWN = DirectionSet.finite([(0.0, -1.0)])
L_PLUS = DirectionSet.finite([(1.0,)])
L_MINUS = DirectionSet.finite([(-1.0,)])
L_BOTH = DirectionSet.finite([(-1.0,), (1.0,)])

SECTOR_T1 = np.pi / 6.0
SECTOR_T2 = np.pi / 3.0


def _circle(count: int) -> DirectionSet:
    ang = 2.0 * np.pi * np.arange(count) / count
    return DirectionSet.finite(np.stack([np.cos(ang), np.sin(ang)], axis=1))


def _arc(t0: float, t1: float, count: int) -> DirectionSet:
    ang = np.linspace(t0, t1, count)
    return DirectionSet.finite(np.stack([np.cos(ang), np.sin(ang)], axis=1))


def _run_certify(name, f, K, L, xbar, expected, grid, weak=False):
    rep = certify_directional_min(
        Problem(f, K, L, xbar, grid), weak=weak)
    return {"run": name, "kind": "certify", "expected": expected,
            "report": rep.as_dict(), "match": rep.verdict == expected}


def _entry_saddle_x2_y2(grid):
    f = builtin("saddle_x2_y2")
    return [
        _run_certify("L-x-axis", f, R_PLUS, L_X_AXIS, (0, 0),
                     "certified_on_grid", grid),
        _run_certify("L-full-circle", f, R_PLUS, _circle(128), (0, 0),
                     "refuted", grid),
    ], 0


def _entry_saddle_x2_y3(grid):
    f = builtin("saddle_x2_y3")
    return [
        _run_certify("L-x-axis", f, R_PLUS, L_X_AXIS, (0, 0),
                     "certified_on_grid", grid),
        _run_certify("L-down", f, R_PLUS, L_DOWN, (0, 0),
                     "certified_on_grid", grid),
    ], 0


def _entry_sin_inv_x(grid):
    f = builtin("sin_inv_x")
    return [
        _run_certify("L-plus", f, R_PLUS, L_PLUS, (0,), "refuted", grid),
        _run_certify("L-minus", f, R_PLUS, L_MINUS, (0,), "refuted", grid),
    ], 2


def _entry_x3_sin_inv_x(grid):
    f = builtin("x3_sin_inv_x")
    return [
        _run_certify("L-plus", f, R_PLUS, L_PLUS, (0,), "refuted", grid),
        _run_certify("L-minus", f, R_PLUS, L_MINUS, (0,), "refuted", grid),
    ], 2


def _entry_arctan_sector(grid):
    f = sector_map(SECTOR_T1, SECTOR_T2)
    L = _arc(SECTOR_T1, SECTOR_T2, 128)
    return [
        _run_certify("L-sector-arc", f, R_PLUS, L, (0, 0),
                     "certified_on_grid", grid),
    ], 0


def _entry_vector_2x_x(grid):
    f = builtin("vector_2x_x")
    return [
        _run_certify("L-plus", f, K_WEDGE, L_PLUS, (0,),
                     "certified_on_grid", grid),
        _run_certify("L-both", f, K_WEDGE, L_BOTH, (0,), "refuted", grid),
    ], 0


def _entry_vector_pair_saddle(grid):
    f = builtin("vector_pair_saddle")
    return [
        _run_certify("L-x-axis", f, R2_PLUS, L_X_AXIS, (0, 0),
                     "certified_on_grid", grid),
    ], 0


def _entry_cardioid_tangent(grid):
    A = cardioid_region()
    sched = TSchedule()
    runs = []
    for name, L, expected in [
        ("restricted", DirectionSet.finite([(-1.0, 0.0)]), "nonmember"),
        ("unrestricted", None, "member"),
    ]:
        v = tangent_membership_sampled(A, (0.0, 0.0), L, (-1.0, 0.0), sched)
        runs.append({"run": name, "kind": "tangent", "expected": expected,
                     "report": {"status": v.status, "note": v.note,
                                "levels": len(v.evidence)},
                     "match": v.status == expected})
    return runs, 0


def _entry_set_curve_halfplane(grid):
    M = curve_halfplane_set()
    runs = []
    for name, L, expected in [
        ("L-arc", _arc(np.pi, 1.25 * np.pi, 64), "certified_on_grid"),
        ("L-full-circle", _circle(128), "refuted"),
    ]:
        rep = certify_set_min(M, (0.0, 0.0), R2_PLUS, L, weak=False, grid=grid)
        runs.append({"run": name, "kind": "certify-set", "expected": expected,
                     "report": rep.as_dict(),
                     "match": rep.verdict == expected})
    return runs, 0


GALLERY = {
    "saddle-x2-y2": _entry_saddle_x2_y2,
    "saddle-x2-y3": _entry_saddle_x2_y3,
    "sin-inv-x": _entry_sin_inv_x,
    "x3-sin-inv-x": _entry_x3_sin_inv_x,
    "arctan-sector": _entry_arctan_sector,
    "vector-2x-x": _entry_vector_2x_x,
    "vector-pair-saddle": _entry_vector_pair_saddle,
    "cardioid-tangent": _entry_cardioid_tangent,
    "set-curve-halfplane": _entry_set_curve_halfplane,
}


def gallery_names() -> list:
    return list(GALLERY)


def run_example(name: str, grid: GridSpec | None = None):
    """Run a gallery entry; returns (report dict, exit code).

    Exit code is the entry's nominal code (0 certificate / 2 refutation)
    when every run reproduces its expected verdict, else 1.
    """
    if name not in GALLERY:
        raise KeyError(f"unknown gallery entry {name!r}; "
                       f"known: {gallery_names()}")
    grid = grid or GridSpec()
    runs, ok_code = GALLERY[name](grid)
    all_match = all(r["match"] for r in runs)
    report = {
        "example": name,
        "grid": asdict(grid),
        "runs": runs,
        "reproduced": all_match,
    }
    return report, (ok_code if all_match else 1)
