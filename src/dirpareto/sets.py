"""Membership oracles for the sets used as constraints and targets.

Polyhedra are exact; curved regions (cardioid, the closed-curve example)
are polygon approximations with even-odd point-in-polygon membership.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import TOL, GeometryError, as_vector, frozen_array
from .lp import LPProblem, lp_feasible


@dataclass(frozen=True, eq=False)
class PolyhedralSet:
    """{x : a_i . x >= b_i}.  A feasibility witness is found at construction."""

    dim: int
    rows: np.ndarray
    offsets: np.ndarray
    witness: tuple

    @staticmethod
    def from_rows(rows, offsets) -> "PolyhedralSet":
        mat = frozen_array(rows, 2)
        offs = frozen_array(offsets, 1)
        if mat.size == 0 or offs.shape != mat.shape[:1]:
            raise GeometryError("polyhedron rows/offsets mismatch or empty")
        p = LPProblem(mat.shape[1])
        for a, b in zip(mat, offs):
            p.add_ge(a, b)
        w = lp_feasible(p)
        if w is None:
            raise GeometryError("polyhedron is empty")
        return PolyhedralSet(mat.shape[1], mat, offs, tuple(w))

    @property
    def matrix(self) -> np.ndarray:
        return self.rows

    @property
    def rhs(self) -> np.ndarray:
        return self.offsets

    def contains(self, x) -> bool:
        x = as_vector(x, self.dim)
        return bool(np.all(self.rows @ x >= self.offsets - TOL))

    def active_rows(self, x) -> np.ndarray:
        """Rows with a_i . x = b_i within TOL, as a matrix (possibly empty)."""
        x = as_vector(x, self.dim)
        return self.rows[np.abs(self.rows @ x - self.offsets) <= TOL]


@dataclass(frozen=True, eq=False)
class PolygonRegion:
    """Closed planar region bounded by a polygon; even-odd membership.

    Boundary points count as members up to ``edge_tol`` distance.
    """

    vertices: np.ndarray
    edge_tol: float = 1e-12
    name: str = "polygon"
    dim: int = 2

    def contains(self, x) -> bool:
        x = as_vector(x, 2)
        V = self.vertices
        W = np.roll(V, -1, axis=0)
        px, py = x
        straddle = (V[:, 1] > py) != (W[:, 1] > py)
        if np.any(straddle):
            vi, wi = V[straddle], W[straddle]
            xc = vi[:, 0] + (py - vi[:, 1]) / (wi[:, 1] - vi[:, 1]) * (
                wi[:, 0] - vi[:, 0])
            if int(np.count_nonzero(px < xc)) % 2 == 1:
                return True
        if self.edge_tol == 0.0:
            return False
        return self._near_boundary(x)

    def _near_boundary(self, x) -> bool:
        V = self.vertices
        W = np.roll(V, -1, axis=0)
        d = W - V
        lens2 = np.einsum("ij,ij->i", d, d)
        lens2[lens2 == 0.0] = 1.0
        t = np.clip(np.einsum("ij,ij->i", x - V, d) / lens2, 0.0, 1.0)
        proj = V + t[:, None] * d
        dist2 = np.einsum("ij,ij->i", x - proj, x - proj)
        return bool(np.min(dist2) <= self.edge_tol ** 2)


@dataclass(frozen=True)
class ImplicitSet:
    """Membership from a predicate callable."""

    dim: int
    predicate: object
    name: str = "implicit"

    def contains(self, x) -> bool:
        return bool(self.predicate(as_vector(x, self.dim)))


@dataclass(frozen=True)
class UnionSet:
    parts: tuple
    name: str = "union"

    @property
    def dim(self) -> int:
        return self.parts[0].dim

    def contains(self, x) -> bool:
        return any(p.contains(x) for p in self.parts)


@dataclass(frozen=True)
class IntersectionSet:
    parts: tuple
    name: str = "intersection"

    @property
    def dim(self) -> int:
        return self.parts[0].dim

    def contains(self, x) -> bool:
        return all(p.contains(x) for p in self.parts)


def _clustered_parameters(n: int) -> np.ndarray:
    """n+1 parameter values on [0, 2pi] quadratically clustered at both ends.

    The cardioid has a cusp at parameter 0 (= 2pi); uniform spacing leaves
    chords near the cusp whose slope swamps the small-step membership
    queries, so the mesh is refined there.
    """
    j = np.arange(n + 1) / n
    return 2.0 * np.pi * np.sin(0.5 * np.pi * j) ** 2


def cardioid_region(segments: int = 4096) -> PolygonRegion:
    """Plane domain bounded by x = -2cos t + cos 2t + 1, y = 2sin t - sin 2t.

    The cusp sits at the origin and opens toward the negative x-axis.
    """
    t = _clustered_parameters(segments)[:-1]
    x = -2.0 * np.cos(t) + np.cos(2.0 * t) + 1.0
    y = 2.0 * np.sin(t) - np.sin(2.0 * t)
    verts = np.stack([x, y], axis=1)
    verts[0] = (0.0, 0.0)  # exact cusp vertex
    # edge_tol = 0: any fixed boundary tolerance eventually swallows the
    # x^{3/2} cusp sliver at small scales, turning points strictly outside
    # the region into spurious members.  The exact cusp vertex makes the
    # even-odd test decide the negative axis correctly at every scale.
    return PolygonRegion(frozen_array(verts, 2), edge_tol=0.0,
                         name="cardioid")


def closed_curve_region(segments: int = 4096) -> PolygonRegion:
    """Region bounded by x = 2 + 2cos t (1 - sin t), y = sin t (1 - cos t)."""
    t = 2.0 * np.pi * np.arange(segments) / segments
    x = 2.0 + 2.0 * np.cos(t) * (1.0 - np.sin(t))
    y = np.sin(t) * (1.0 - np.cos(t))
    verts = np.stack([x, y], axis=1)
    # force the exact pass through the origin at t = pi
    k = int(round(segments / 2))
    verts[k] = (0.0, 0.0)
    return PolygonRegion(frozen_array(verts, 2), name="closed-curve")


def curve_halfplane_set(segments: int = 4096) -> UnionSet:
    """H union (curve-region intersect -H) with H = {(x, y) : y >= -x}."""
    H = PolyhedralSet.from_rows([[1.0, 1.0]], [0.0])
    minus_H = ImplicitSet(2, lambda p: p[0] + p[1] <= TOL, name="-H")
    curve = closed_curve_region(segments)
    return UnionSet((H, IntersectionSet((curve, minus_H), name="curve&-H")),
                    name="curve-halfplane")
