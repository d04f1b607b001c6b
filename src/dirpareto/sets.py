"""Membership oracles for the sets used as constraints and targets.

Polyhedra are exact; curved regions (cardioid, the closed-curve example)
are polygon approximations with even-odd point-in-polygon membership.
A polygon compiles its edges once, on its first membership query, into a
slab index of horizontal bands, so each point is tested only against the
few edges of its band.  The named regions are built once per process
and shared: their objects are frozen and their arrays read-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import ClassVar, NamedTuple

import numpy as np

from .geometry import TOL, GeometryError, as_points, as_vector, frozen_array, row_products
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
        p.add_ge(mat, offs)
        w = lp_feasible(p)
        if w is None:
            raise GeometryError("polyhedron is empty")
        return PolyhedralSet(mat.shape[1], mat, offs, tuple(w))

    def contains(self, x) -> bool:
        return bool(self.contains_many(as_vector(x, self.dim)[None])[0])

    def contains_many(self, X) -> np.ndarray:
        """Membership of each row x of X: a_i . x >= b_i - TOL for every i."""
        prods = row_products(self.rows, as_points(X, self.dim))
        return np.all(prods >= self.offsets - TOL, axis=1)

    def active_rows(self, x) -> np.ndarray:
        """Rows with a_i . x = b_i within TOL, as a matrix (possibly empty)."""
        x = as_vector(x, self.dim)
        return self.rows[np.abs(self.rows @ x - self.offsets) <= TOL]


# A polygon tests a batch in blocks of rows holding at most this many
# (point, edge) pairs, which bounds each temporary of the block.
BLOCK_ELEMENTS = 1 << 16


def _ranges(first: np.ndarray, count: np.ndarray) -> tuple:
    """(owner, position) of the concatenated ranges first[i] ... first[i] +
    count[i] - 1: position j belongs to range owner[j]."""
    owner = np.repeat(np.arange(len(first)), count)
    ends = np.cumsum(count)
    return owner, np.arange(ends[-1]) + np.repeat(first - ends + count, count)


class Slabs(NamedTuple):
    """Horizontal bands of a polygon and the edges each band may meet.

    Height y lies in band ``np.searchsorted(bounds, y, "right")``; band k
    lists ``band_edges[band_start[k]:band_start[k + 1]]``, every edge whose
    grown box reaches into it.  ``width`` is the longest list.
    """

    bounds: np.ndarray
    band_start: np.ndarray
    band_edges: np.ndarray
    width: int


def _slabs(heights: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> Slabs:
    """Slab decomposition (Dobkin & Lipton 1976) for edges spanning the
    heights lo[i] ... hi[i].  The bounds are the sorted vertex heights,
    every other one dropped while the bands would list more than 8 entries
    per edge: edges that all span the full height end up in a few bands
    instead of in every band."""
    bounds = np.sort(heights)
    while True:
        first = np.searchsorted(bounds, lo, "right")
        count = np.searchsorted(bounds, hi, "right") - first + 1
        if count.sum() <= 8 * len(lo):
            break
        bounds = bounds[::2]
    edge, band = _ranges(first, count)
    sizes = np.bincount(band, minlength=len(bounds) + 1)
    start = np.concatenate([[0], np.cumsum(sizes)])
    edges = edge[np.argsort(band, kind="stable")]
    for a in (bounds, start, edges):
        a.setflags(write=False)
    return Slabs(bounds, start, edges, int(sizes.max()))


@dataclass(frozen=True, eq=False)
class PolygonRegion:
    """Closed planar region bounded by a polygon; even-odd membership.

    Boundary points count as members up to ``edge_tol`` distance.  The
    edge arrays are built once, read-only: edge i runs from ``vertices[i]``
    to ``next_vertices[i]`` along ``edges[i]``, whose squared length is
    ``edge_lengths2[i]`` (1 for a zero-length edge), inside the box from
    ``box_lo[i]`` to ``box_hi[i]`` grown by ``2*edge_tol`` on every side.
    The first membership query builds ``slabs``, which it keeps: a point
    is tested only against the edges listed in its height's band.
    """

    vertices: np.ndarray
    edge_tol: float = 1e-12
    name: str = "polygon"
    dim: ClassVar[int] = 2
    next_vertices: np.ndarray = field(init=False, repr=False)
    edges: np.ndarray = field(init=False, repr=False)
    edge_lengths2: np.ndarray = field(init=False, repr=False)
    box_lo: np.ndarray = field(init=False, repr=False)
    box_hi: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        V = frozen_array(self.vertices, 2)
        if V.shape[1:] != (2,) or len(V) < 3:
            raise GeometryError(f"a polygon needs an (n, 2) array of n >= 3 vertices, "
                                f"got shape {V.shape}")
        if not (np.isfinite(self.edge_tol) and self.edge_tol >= 0.0):
            raise GeometryError(f"a polygon's edge_tol must be finite and >= 0, got {self.edge_tol}")
        W = np.roll(V, -1, axis=0)
        d = W - V
        lens2 = np.einsum("ij,ij->i", d, d)
        lens2[lens2 == 0.0] = 1.0
        grow = 2.0 * self.edge_tol
        lo = np.minimum(V, W) - grow
        hi = np.maximum(V, W) + grow
        for name, a in (("vertices", V), ("next_vertices", W), ("edges", d),
                        ("edge_lengths2", lens2), ("box_lo", lo), ("box_hi", hi)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @cached_property
    def slabs(self) -> Slabs:
        return _slabs(self.vertices[:, 1], self.box_lo[:, 1], self.box_hi[:, 1])

    def contains(self, x) -> bool:
        return bool(self.contains_many(as_vector(x, 2)[None])[0])

    def contains_many(self, X) -> np.ndarray:
        """Membership of each row of X, in row blocks of bounded size."""
        X = as_points(X, 2)
        out = np.empty(len(X), dtype=bool)
        bounds, start, band_edges, width = self.slabs
        step = max(1, BLOCK_ELEMENTS // width)
        for s in range(0, len(X), step):
            block = X[s:s + step]
            k = np.searchsorted(bounds, block[:, 1], "right")
            pi, at = _ranges(start[k], start[k + 1] - start[k])
            ei = band_edges[at]
            inside = self._crosses_odd(block, pi, ei)
            if self.edge_tol != 0.0:
                rest = ~inside[pi]
                inside |= self._near_boundary(block, pi[rest], ei[rest])
            out[s:s + step] = inside
        return out

    def _crosses_odd(self, X, pi, ei) -> np.ndarray:
        """Even-odd test: a rightward ray from each point crosses the
        boundary an odd number of times.  (pi, ei) are (point, edge) pairs
        holding every edge that straddles the point's height; ``xc`` is
        computed only for the pairs whose edge does."""
        V, W, d = self.vertices, self.next_vertices, self.edges
        py = X[pi, 1]
        straddle = (V[ei, 1] > py) != (W[ei, 1] > py)
        pi, ei, py = pi[straddle], ei[straddle], py[straddle]
        xc = V[ei, 0] + (py - V[ei, 1]) / d[ei, 1] * d[ei, 0]
        return np.bincount(pi[X[pi, 0] < xc], minlength=len(X)) % 2 == 1

    def _near_boundary(self, X, pi, ei) -> np.ndarray:
        """Rows of X within ``edge_tol`` of an edge of their (point, edge)
        pairs.  Only the edges whose grown box holds a point are projected
        on: any other edge lies more than ``2*edge_tol`` away in one
        coordinate, so its distance cannot pass."""
        P, lo, hi = X[pi], self.box_lo[ei], self.box_hi[ei]
        box = np.all((P >= lo) & (P <= hi), axis=1)
        pi, ei, P = pi[box], ei[box], P[box]
        Vp, dp = self.vertices[ei], self.edges[ei]
        t = np.clip(np.einsum("ij,ij->i", P - Vp, dp) / self.edge_lengths2[ei], 0.0, 1.0)
        proj = Vp + t[:, None] * dp
        dist2 = np.einsum("ij,ij->i", P - proj, P - proj)
        return np.bincount(pi[dist2 <= self.edge_tol ** 2], minlength=len(X)) > 0


@dataclass(frozen=True)
class ImplicitSet:
    """Membership from a predicate callable."""

    dim: int
    predicate: object
    name: str = "implicit"

    def contains(self, x) -> bool:
        return bool(self.predicate(as_vector(x, self.dim)))

    def contains_many(self, X) -> np.ndarray:
        """The predicate on each row of X, one call per row."""
        return np.array([self.contains(x) for x in as_points(X, self.dim)], dtype=bool)


def _decide(parts, X, stop: bool) -> np.ndarray:
    """Membership of the rows of X in a union (``stop=True``) or an
    intersection (``stop=False``) of ``parts``: each part is tested, in
    order, only on the rows that no earlier part answered with ``stop``."""
    X = as_points(X, parts[0].dim)
    out = np.full(len(X), not stop)
    for part in parts:
        rest = np.flatnonzero(out != stop)
        if rest.size == 0:
            break
        out[rest] = part.contains_many(X[rest])
    return out


@dataclass(frozen=True)
class UnionSet:
    parts: tuple
    name: str = "union"

    @property
    def dim(self) -> int:
        return self.parts[0].dim

    def contains(self, x) -> bool:
        return bool(self.contains_many(as_vector(x, self.dim)[None])[0])

    def contains_many(self, X) -> np.ndarray:
        return _decide(self.parts, X, True)


@dataclass(frozen=True)
class IntersectionSet:
    parts: tuple
    name: str = "intersection"

    @property
    def dim(self) -> int:
        return self.parts[0].dim

    def contains(self, x) -> bool:
        return bool(self.contains_many(as_vector(x, self.dim)[None])[0])

    def contains_many(self, X) -> np.ndarray:
        return _decide(self.parts, X, False)


def _clustered_parameters(n: int) -> np.ndarray:
    """n+1 parameter values on [0, 2pi] quadratically clustered at both ends.

    The cardioid has a cusp at parameter 0 (= 2pi); uniform spacing leaves
    chords near the cusp whose slope swamps the small-step membership
    queries, so the mesh is refined there.
    """
    j = np.arange(n + 1) / n
    return 2.0 * np.pi * np.sin(0.5 * np.pi * j) ** 2


@cache
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


@cache
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


@cache
def curve_halfplane_set(segments: int = 4096) -> UnionSet:
    """H union (curve-region intersect -H) with H = {(x, y) : y >= -x}."""
    H = PolyhedralSet.from_rows([[1.0, 1.0]], [0.0])
    minus_H = PolyhedralSet.from_rows([[-1.0, -1.0]], [0.0])
    curve = closed_curve_region(segments)
    return UnionSet((H, IntersectionSet((curve, minus_H), name="curve&-H")),
                    name="curve-halfplane")
