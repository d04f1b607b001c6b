"""Gerstewitz scalarization for H-rep cones with nonempty interior.

s(y) = inf{lambda : lambda e in y + K}.  With K = {y : a_i . y >= 0}
and a_i . e > 0 for every row, this is max_i (a_i . y) / (a_i . e).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import GeneratorCone, HalfspaceCone, as_vector, frozen_array
from .lp import LPProblem, lp_feasible


class ScalarizationError(Exception):
    pass


@dataclass(frozen=True, eq=False)
class ScalarizationContext:
    K: HalfspaceCone
    e: np.ndarray

    @staticmethod
    def create(K: HalfspaceCone, e) -> "ScalarizationContext":
        e = frozen_array(as_vector(e, K.dim), 1)
        if not K.contains(e, strict=True):
            raise ScalarizationError("e must be strictly interior to K")
        return ScalarizationContext(K, e)


@dataclass(frozen=True)
class SubdiffCert:
    """One subgradient plus the constraint set it was drawn from.

    The full subdifferential is {v* in K+ : v*(e) = 1, v*(u) = s(u)};
    ``satisfies`` tests candidate functionals against exactly that.
    """

    witness: tuple
    u: tuple
    value: float
    K: HalfspaceCone
    e: tuple

    def satisfies(self, vstar, tol: float = 1e-7) -> bool:
        vstar = as_vector(vstar, self.K.dim)
        if abs(float(np.dot(vstar, self.e)) - 1.0) > tol:
            return False
        if abs(float(np.dot(vstar, self.u)) - self.value) > tol:
            return False
        # v* in K+ = cone generated by the rows of K (full-dimensional K)
        return GeneratorCone(self.K.dim, self.K.rows).contains(vstar)


def gerstewitz_value(ctx: ScalarizationContext, y) -> float:
    y = as_vector(y, ctx.K.dim)
    rows = ctx.K.rows
    denom = rows @ ctx.e
    return float(np.max((rows @ y) / denom))


def gerstewitz_subdiff(ctx: ScalarizationContext, u) -> SubdiffCert:
    """One element of the subdifferential at u, by LP feasibility over
    nonnegative row weights w with (sum w_i a_i)(e) = 1 and (.)(u) = s(u)."""
    u = as_vector(u, ctx.K.dim)
    s = gerstewitz_value(ctx, u)
    rows = ctx.K.rows
    m = rows.shape[0]
    p = LPProblem(m, nonneg=range(m))
    p.add_eq(rows @ ctx.e, 1.0)
    p.add_eq(rows @ u, s)
    w = lp_feasible(p)
    if w is None:
        raise ScalarizationError(
            "subgradient LP infeasible: numerical failure (the subdifferential "
            "is analytically nonempty)")
    vstar = rows.T @ w
    return SubdiffCert(tuple(vstar), tuple(u), s, ctx.K, tuple(ctx.e))
