"""Gerstewitz scalarization for H-rep cones with nonempty interior.

s(y) = inf{lambda : lambda e in y + K}.  With K = {y : a_i . y >= 0}
and a_i . e > 0 for every row, this is max_i (a_i . y) / (a_i . e).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import CHECK_TOL, GeneratorCone, HalfspaceCone, as_vector, frozen_array


class ScalarizationError(Exception):
    pass


@dataclass(frozen=True, eq=False)
class ScalarizationContext:
    K: HalfspaceCone
    e: np.ndarray
    scales: np.ndarray = field(init=False, repr=False)  # a_i . e per row of K, read-only

    def __post_init__(self):
        object.__setattr__(self, "scales", frozen_array(self.K.rows @ self.e, 1))

    @staticmethod
    def create(K: HalfspaceCone, e) -> "ScalarizationContext":
        e = frozen_array(as_vector(e, K.dim), 1)
        if not K.contains(e, strict=True):
            raise ScalarizationError("e must be strictly interior to K")
        return ScalarizationContext(K, e)

    def ratios(self, y: np.ndarray) -> np.ndarray:
        """(a_i . y) / (a_i . e) for every row a_i of K; s(y) is their maximum."""
        return (self.K.rows @ y) / self.scales


@dataclass(frozen=True)
class SubdiffCert:
    """One subgradient plus the constraint set it was drawn from.

    The full subdifferential is {v* in K+ : v*(e) = 1, v*(u) = s(u)};
    ``satisfies`` tests candidate functionals against exactly that, each
    equation v*(w) = c within CHECK_TOL * (1 + sum_i |v*_i w_i|).
    """

    witness: tuple
    u: tuple
    value: float
    K: HalfspaceCone
    e: tuple

    def satisfies(self, vstar) -> bool:
        vstar = as_vector(vstar, self.K.dim)
        for w, c in ((self.e, 1.0), (self.u, self.value)):
            slack = CHECK_TOL * (1.0 + float(np.abs(vstar) @ np.abs(w)))
            if abs(float(np.dot(vstar, w)) - c) > slack:
                return False
        # v* in K+ = cone generated by the rows of K (full-dimensional K)
        return GeneratorCone(self.K.dim, self.K.rows).contains(vstar)


def gerstewitz_value(ctx: ScalarizationContext, y) -> float:
    return float(np.max(ctx.ratios(as_vector(y, ctx.K.dim))))


def gerstewitz_subdiff(ctx: ScalarizationContext, u) -> SubdiffCert:
    """One element of the subdifferential at u, in closed form: a_j / (a_j . e)
    for the first j that maximises (a_j . u) / (a_j . e).  It lies in K+, takes
    1 at e and s(u) at u (Gerth & Weidner, JOTA 67, 1990); its value is that
    ratio, bit for bit ``gerstewitz_value(ctx, u)``."""
    u = as_vector(u, ctx.K.dim)
    ratios = ctx.ratios(u)
    j = int(np.argmax(ratios))
    vstar = ctx.K.rows[j] / ctx.scales[j]
    return SubdiffCert(tuple(vstar), tuple(u), float(ratios[j]), ctx.K, tuple(ctx.e))
