"""Gerstewitz scalarization for H-rep cones with nonempty interior.

s(y) = inf{lambda : lambda e in y + K}.  With K = {y : a_i . y >= 0}
and a_i . e > 0 for every row, this is max_i (a_i . y) / (a_i . e).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import CHECK_TOL, GeneratorCone, HalfspaceCone, as_vector, frozen_array


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

    def satisfies(self, vstar) -> bool:
        vstar = as_vector(vstar, self.K.dim)
        if abs(float(np.dot(vstar, self.e)) - 1.0) > CHECK_TOL:
            return False
        if abs(float(np.dot(vstar, self.u)) - self.value) > CHECK_TOL:
            return False
        # v* in K+ = cone generated by the rows of K (full-dimensional K)
        return GeneratorCone(self.K.dim, self.K.rows).contains(vstar)


def gerstewitz_value(ctx: ScalarizationContext, y) -> float:
    y = as_vector(y, ctx.K.dim)
    rows = ctx.K.rows
    denom = rows @ ctx.e
    return float(np.max((rows @ y) / denom))


def gerstewitz_subdiff(ctx: ScalarizationContext, u) -> SubdiffCert:
    """One element of the subdifferential at u, in closed form: a_j / (a_j . e)
    for the first j that maximises (a_j . u) / (a_j . e).  It lies in K+, takes
    1 at e and s(u) at u (Gerth & Weidner, JOTA 67, 1990); its value is that
    ratio, bit for bit ``gerstewitz_value(ctx, u)``."""
    u = as_vector(u, ctx.K.dim)
    rows = ctx.K.rows
    denom = rows @ ctx.e
    ratios = (rows @ u) / denom
    j = int(np.argmax(ratios))
    vstar = rows[j] / denom[j]
    return SubdiffCert(tuple(vstar), tuple(u), float(ratios[j]), ctx.K, tuple(ctx.e))
