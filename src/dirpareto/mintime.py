"""Directional minimal-time function and empirical regularity moduli.

T_L(x, Omega) = inf{t >= 0 : x + t u in Omega for some u in L}.  A finite
L is read two ways: point and finite targets take u from cone L (from
x = 0 with L = {(1, 0), (0, 1)}, the point (1, 1) is reached at sqrt 2),
polyhedral targets only from L's own rays (the polyhedron {(1, 1)} is
never reached).  Point and finite targets are closed-form; polyhedral
targets are answered by one array rule over (ray, inequality) pairs
(finite L, or sampled rays for an upper bound) or by one LP
(cone-section L, sup norm).  The calmness / subregularity ratios are
grid suprema: evidence, never proofs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certify import GridSpec, reference_value
from .geometry import (
    TOL,
    DirectionSet,
    GeometryError,
    as_vector,
    cone_contains_many,
    direction_samples,
    frozen_array,
    in_space,
    row_norms,
    row_products,
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
        if not isinstance(poly, PolyhedralSet):
            raise GeometryError(
                f"a polyhedral target needs a PolyhedralSet, got {type(poly).__name__}")
        return Target("polyhedron", None, poly)

    @property
    def dim(self) -> int:
        return self.polyhedron.dim if self.points is None else self.points.shape[1]


@dataclass(frozen=True)
class RatioEstimate:
    supremum_ratio: float
    witness_pair: tuple | None
    samples_used: int
    empirical: bool = True
    note: str = ""


def _min_ray_time(x, dirs, poly: PolyhedralSet) -> float:
    """Least t >= 0 with x + t ell in poly for a ray ell of ``dirs``: each
    a . (x + t ell) >= b bounds t below (a . ell > 0) or above (a . ell < 0),
    or shuts out a ray parallel to a facet it violates."""
    num = poly.offsets - poly.rows @ x
    den = row_products(poly.rows, dirs)              # (rays, rows)
    flat = np.abs(den) <= 1e-14
    with np.errstate(all="ignore"):
        ratio = num / den
    # ratio > 0 keeps a zero time +0.0; fmin lets a nan ratio (an overflowed a . x) set no bound
    lo = np.max(np.where(~flat & (den > 0) & (ratio > 0), ratio, 0.0), axis=1, initial=0.0)
    hi = np.fmin.reduce(np.where(~flat & (den < 0), ratio, INF), axis=1, initial=INF)
    enters = ~(flat & (num > TOL)).any(axis=1) & ~(lo > hi + TOL)
    return float(np.min(lo, where=enters, initial=INF))


def minimal_time(L: DirectionSet, x, target: Target, norm: str = "l2"):
    """T_L(x, target); returns (value, exact_flag).

    value may be inf.  exact_flag is False only for the sampled upper
    bound (cone-section L over a polyhedron in the euclidean norm).
    """
    x = as_vector(x, L.dim)
    in_space(target, L.dim, "target")
    if norm not in ("l2", "linf"):
        raise GeometryError(f"unknown norm {norm!r}")

    if target.variant in ("point", "finite_points"):
        D = target.points - x
        if np.any(row_norms(D) <= TOL):  # x is a target point: no cone test needed
            return 0.0, True
        return float(np.min(_point_times(L, D, norm))), True

    poly = target.polyhedron
    if L.variant == "finite":
        return _min_ray_time(x, L.vectors, poly), True

    # cone-section or full-sphere L over a polyhedron
    if norm == "linf":
        n = L.dim
        # variables (d, t): minimize t subject to d in cone L, |d|_inf <= t,
        # x + d in poly
        p = LPProblem(n + 1)
        if L.variant == "cone_section":
            p.add_ge(np.hstack([L.section.rows, np.zeros((len(L.section.rows), 1))]), 0.0)
        # the rows d_k + t >= 0 and t - d_k >= 0 in turn (0.0 - eye, not
        # -eye, keeps the zero coefficients +0.0)
        eye = np.eye(n)
        p.add_ge(np.hstack([np.stack([eye, 0.0 - eye], axis=1).reshape(2 * n, n),
                            np.ones((2 * n, 1))]), 0.0)
        p.add_ge(np.hstack([poly.rows, np.zeros((len(poly.rows), 1))]),
                 poly.offsets - row_products(poly.rows, x[None])[0])
        p.objective = np.append(np.zeros(n), 1.0)
        res = lp_minimize(p)
        if res is None:
            return INF, True
        return max(res[0], 0.0), True

    # euclidean norm over a cone section: sampled upper bound only
    return _min_ray_time(x, direction_samples(L, 512), poly), False


def _point_times(L: DirectionSet, D: np.ndarray, norm: str = "l2") -> np.ndarray:
    """T_L(y, {y + d}) for each row d of D, as ``minimal_time`` gives it
    for a point target."""
    norms = row_norms(D)
    sizes = np.max(np.abs(D), axis=1) if norm == "linf" else norms
    times = np.where(cone_contains_many(L, D), sizes, INF)
    times[norms <= TOL] = 0.0
    return times


def _image_times(f: SmoothMap, fx0, M: DirectionSet, X) -> np.ndarray:
    """T_M(f(xbar), {f(x)}) for each row x of X.  As one point at a time,
    a non-finite image (a GeometryError) before the first point where f
    raises comes first, and that point's exception next."""
    FX, error = f.eval_rows(X)
    times = _point_times(M, FX - fx0)
    if error is not None:
        raise error
    return times


def _sup_ratio(points, ratios, pair) -> RatioEstimate:
    """Supremum of ``ratios`` (one per row of ``points``, nan where the
    ratio is undefined); the witness is ``pair(x)`` at the first row x
    that attains it."""
    used = np.flatnonzero(~np.isnan(ratios))
    if not used.size:
        return RatioEstimate(0.0, None, 0, note="no admissible grid point")
    best = used[np.argmax(ratios[used])]
    if ratios[best] > 0.0:
        return RatioEstimate(float(ratios[best]), pair(points[best]), used.size)
    return RatioEstimate(0.0, None, used.size)


def calmness_ratio(f: SmoothMap, xbar, L: DirectionSet, M: DirectionSet,
                   radius: float = 0.1, levels: int = 21,
                   rays: int = 64) -> RatioEstimate:
    """sup over grid x of T_M(f(xbar), {f(x)}) / T_L(xbar, {x}).

    Grid points sit on rays of L, so the denominator is |x - xbar|;
    points whose image step leaves cone M give an infinite ratio.
    """
    grid = GridSpec(radius, levels, rays)
    xbar = as_vector(xbar, f.dim_in)
    in_space(L, f.dim_in, "L")
    in_space(M, f.dim_out, "M")
    fx0 = reference_value(f, xbar)
    points = grid.points(xbar, L)
    denom = row_norms(points - xbar)
    rows = np.flatnonzero(denom > TOL)
    num = _image_times(f, fx0, M, points[rows])
    # an infinite numerator is an inadmissible point: sup over the empty set is 0
    ok = np.isfinite(num)
    ratios = np.full(len(points), np.nan)
    ratios[rows[ok]] = num[ok] / denom[rows[ok]]
    return _sup_ratio(points, ratios, lambda x: (tuple(xbar), tuple(x)))


def subregularity_ratio(f: SmoothMap, xbar, L: DirectionSet, M: DirectionSet,
                        radius: float = 0.1, levels: int = 21,
                        rays: int = 64) -> RatioEstimate:
    """sup over grid x of T_L(x, {xbar}) / T_M(f(xbar), {f(x)}).

    The grid walks rays of L *backwards* from xbar (x = xbar - t ell), so
    the numerator T_L(x, {xbar}) is finite by construction.
    """
    grid = GridSpec(radius, levels, rays)
    xbar = as_vector(xbar, f.dim_in)
    in_space(L, f.dim_in, "L")
    in_space(M, f.dim_out, "M")
    fx0 = reference_value(f, xbar)
    # the steps t*ell of the grid at the origin, taken back from xbar
    points = xbar - grid.points(np.zeros_like(xbar), L)
    num = _point_times(L, xbar - points)
    rows = np.flatnonzero(np.isfinite(num) & (num > TOL))
    denom = _image_times(f, fx0, M, points[rows])
    ok = np.isfinite(denom) & (denom > TOL)
    ratios = np.full(len(points), np.nan)
    ratios[rows[ok]] = num[rows[ok]] / denom[ok]
    return _sup_ratio(points, ratios, lambda x: (tuple(x), tuple(xbar)))
