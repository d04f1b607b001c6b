"""Directional minimal-time function and empirical regularity moduli.

T_L(x, Omega) = inf{t >= 0 : x + t u in Omega for some u in L}.  Point
and finite targets are closed-form; polyhedral targets are solved per
ray (finite L) or by one LP (cone-section L, sup norm).  The calmness /
subregularity ratios are grid suprema: evidence, never proofs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (
    TOL,
    DirectionSet,
    GeometryError,
    as_vector,
    cone_contains,
    direction_samples,
    frozen_array,
)
from .lp import LPProblem, lp_minimize
from .maps import SmoothMap
from .sets import PolyhedralSet

INF = float("inf")


@dataclass(frozen=True, eq=False)
class Target:
    """Point(s) or a polyhedron to be reached."""

    variant: str  # 'point' | 'finite_points' | 'polyhedron'
    points: np.ndarray | None  # (k, dim); None for a polyhedron
    polyhedron: PolyhedralSet | None = None

    @staticmethod
    def point(u) -> "Target":
        return Target("point", frozen_array([as_vector(u)], 2))

    @staticmethod
    def finite_points(us) -> "Target":
        pts = frozen_array(us, 2)
        if pts.size == 0:
            raise GeometryError("target needs at least one point")
        return Target("finite_points", pts)

    @staticmethod
    def polyhedral(poly: PolyhedralSet) -> "Target":
        return Target("polyhedron", None, poly)


@dataclass(frozen=True)
class RatioEstimate:
    supremum_ratio: float
    witness_pair: tuple | None
    samples_used: int
    empirical: bool = True
    note: str = ""


def _norm(v, norm: str) -> float:
    return float(np.max(np.abs(v))) if norm == "linf" else float(np.linalg.norm(v))


def _ray_time_to_polyhedron(x, ell, poly: PolyhedralSet):
    """min{t >= 0 : x + t ell in poly}, closed form over the inequalities."""
    num = poly.offsets - poly.rows @ x
    den = poly.rows @ ell
    lo, hi = 0.0, INF
    for nu, de in zip(num, den):
        if abs(de) <= 1e-14:
            if nu > TOL:
                return None
        elif de > 0:
            lo = max(lo, nu / de)
        else:
            hi = min(hi, nu / de)
    if lo > hi + TOL:
        return None
    return max(lo, 0.0)


def minimal_time(L: DirectionSet, x, target: Target, norm: str = "l2"):
    """T_L(x, target); returns (value, exact_flag).

    value may be inf.  exact_flag is False only for the sampled upper
    bound (cone-section L over a polyhedron in the euclidean norm).
    """
    x = as_vector(x, L.dim)
    if norm not in ("l2", "linf"):
        raise GeometryError(f"unknown norm {norm!r}")

    if target.variant in ("point", "finite_points"):
        best = INF
        for u in target.points:
            d = u - x
            if np.linalg.norm(d) <= TOL:
                return 0.0, True
            if cone_contains(L, d):
                best = min(best, _norm(d, norm))
        return best, True

    poly = target.polyhedron
    if poly is None:
        raise GeometryError("empty target")

    if L.variant == "finite":
        best = INF
        for ell in L.vectors:
            t = _ray_time_to_polyhedron(x, ell, poly)
            if t is not None:
                best = min(best, t)
        return best, True

    # cone-section or full-sphere L over a polyhedron
    if norm == "linf":
        n = L.dim
        # variables (d, t): minimize t subject to d in cone L, |d|_inf <= t,
        # x + d in poly
        p = LPProblem(n + 1)
        if L.variant == "cone_section":
            for r in L.section.rows:
                p.add_ge(np.append(r, 0.0), 0.0)
        for k in range(n):
            ek = np.zeros(n + 1)
            ek[k] = 1.0
            ek[n] = 1.0
            p.add_ge(ek, 0.0)        # d_k + t >= 0
            ek2 = np.zeros(n + 1)
            ek2[k] = -1.0
            ek2[n] = 1.0
            p.add_ge(ek2, 0.0)       # t - d_k >= 0
        for a, b in zip(poly.rows, poly.offsets):
            p.add_ge(np.append(a, 0.0), b - float(np.dot(a, x)))
        p.objective = np.append(np.zeros(n), 1.0)
        res = lp_minimize(p)
        if res is None:
            return INF, True
        return max(res[0], 0.0), True

    # euclidean norm over a cone section: sampled upper bound only
    best = INF
    for ell in direction_samples(L, 512):
        t = _ray_time_to_polyhedron(x, ell, poly)
        if t is not None:
            best = min(best, t)
    return best, False


def _grid_points(xbar, L: DirectionSet, radius: float, levels: int,
                 rays: int) -> np.ndarray:
    dirs = direction_samples(L, rays)
    ts = radius * 0.5 ** np.arange(levels)
    pts = [xbar + t * ell for ell in dirs for t in ts]
    return np.array(pts)


def calmness_ratio(f: SmoothMap, xbar, L: DirectionSet, M: DirectionSet,
                   radius: float = 0.1, levels: int = 21,
                   rays: int = 64) -> RatioEstimate:
    """sup over grid x of T_M(f(xbar), {f(x)}) / T_L(xbar, {x}).

    Grid points sit on rays of L, so the denominator is |x - xbar|;
    points whose image step leaves cone M give an infinite ratio.
    """
    xbar = as_vector(xbar, f.dim_in)
    fx0 = f(xbar)
    best = 0.0
    witness = None
    used = 0
    for x in _grid_points(xbar, L, radius, levels, rays):
        denom = float(np.linalg.norm(x - xbar))
        if denom <= TOL:
            continue
        num, _ = minimal_time(M, fx0, Target.point(f(x)))
        if not np.isfinite(num):
            continue  # inadmissible point: sup over the empty set is 0
        used += 1
        ratio = num / denom
        if ratio > best:
            best = ratio
            witness = (tuple(xbar), tuple(x))
    if used == 0:
        return RatioEstimate(0.0, None, 0, note="no admissible grid point")
    return RatioEstimate(best, witness, used)


def subregularity_ratio(f: SmoothMap, xbar, L: DirectionSet, M: DirectionSet,
                        radius: float = 0.1, levels: int = 21,
                        rays: int = 64) -> RatioEstimate:
    """sup over grid x of T_L(x, {xbar}) / T_M(f(xbar), {f(x)}).

    The grid walks rays of L *backwards* from xbar (x = xbar - t ell), so
    the numerator T_L(x, {xbar}) is finite by construction.
    """
    xbar = as_vector(xbar, f.dim_in)
    fx0 = f(xbar)
    dirs = direction_samples(L, rays)
    ts = radius * 0.5 ** np.arange(levels)
    best = 0.0
    witness = None
    used = 0
    for ell in dirs:
        for t in ts:
            x = xbar - t * ell
            num, _ = minimal_time(L, x, Target.point(xbar))
            if not np.isfinite(num) or num <= TOL:
                continue
            denom, _ = minimal_time(M, fx0, Target.point(f(x)))
            if not np.isfinite(denom) or denom <= TOL:
                continue
            used += 1
            ratio = num / denom
            if ratio > best:
                best = ratio
                witness = (tuple(x), tuple(xbar))
    if used == 0:
        return RatioEstimate(0.0, None, 0, note="no admissible grid point")
    return RatioEstimate(best, witness, used)
