"""Polyhedral cones and direction sets.

Cones acting as orderings (K, Q) are kept in H-representation
``{y : a_i . y >= 0}``; direction sets are finite lists of unit vectors,
unit-sphere sections of H-representation cones, or the full sphere.
No double-description conversion anywhere: each operation stays inside
the representation it is given.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .lp import LPProblem, lp_feasible

TOL = 1e-9
UNIT_TOL = 1e-12
CHECK_TOL = 1e-7  # slack when a subgradient or multiplier certificate is re-checked


class GeometryError(Exception):
    pass


def as_vector(v, dim: int | None = None) -> np.ndarray:
    """Validate and return a finite 1-d float array."""
    a = np.asarray(v, dtype=float)
    if a.ndim != 1 or a.size == 0:
        raise GeometryError(f"expected a vector, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise GeometryError("vector has non-finite entries")
    if dim is not None and a.size != dim:
        raise GeometryError(f"dimension mismatch: got {a.size}, expected {dim}")
    return a


def as_points(X, dim: int) -> np.ndarray:
    """Validate and return a finite (n, dim) float array of points."""
    a = np.asarray(X, dtype=float)
    if a.ndim != 2 or a.shape[1] != dim:
        raise GeometryError(f"expected an (n, {dim}) array of points, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise GeometryError("vector has non-finite entries")
    return a


def in_space(obj, dim: int, name: str):
    """``obj`` (anything with a ``dim``) when it lives in R^dim; otherwise a
    GeometryError that names it."""
    if obj.dim != dim:
        raise GeometryError(f"{name} has dimension {obj.dim}, expected {dim}")
    return obj


def require_integers(obj, names, error, what: str):
    """Raise ``error`` for the first field of ``obj`` in ``names`` that
    ``operator.index`` refuses, naming it ``what name``."""
    for name in names:
        try:
            operator.index(getattr(obj, name))
        except TypeError:
            raise error(f"{what} {name} must be an integer, got {getattr(obj, name)!r}") from None


# The batched forms of ``np.linalg.norm(x)`` and ``rows @ x``.  Each row's
# result is the one-point result and does not depend on the other rows of
# its batch, so a batched membership test decides exactly as the one-point
# test it replaces; ``einsum`` and ``X @ rows.T`` differ from them in the
# last place on some rows.

def row_norms(X: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of X."""
    return np.sqrt(np.vecdot(X, X))


def row_products(rows: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``rows @ x`` for each row x of X, shape (n, len(rows))."""
    return np.matmul(rows, X[:, :, None])[..., 0]


def rescaled_rows(X: np.ndarray) -> np.ndarray:
    """X with each nonzero row whose largest |entry| lies outside
    [2^-500, 2^500] divided by that entry, and every other row as it is:
    a norm of the result neither overflows nor underflows, so dividing a
    row by it gives a unit vector of the same direction."""
    # a maximum over the columns: np.max(axis=1) is slow on narrow rows
    big = reduce(np.maximum, np.abs(X).T)
    wild = (big > 0.0) & ((big < 2.0 ** -500) | (big > 2.0 ** 500))
    if not wild.any():
        return X
    return np.where(wild[:, None], X / np.where(wild, big, 1.0)[:, None], X)


def ray_points(xbar, dirs, ts) -> np.ndarray:
    """Rows xbar + t*ell in ray-major order: ell over ``dirs`` on the
    outer loop, t over ``ts`` on the inner one.  ``ts`` is one row of
    steps for every ray, or one row per ray."""
    pts = np.asarray(ts)[..., None] * np.asarray(dirs)[:, None, :]
    pts += xbar  # in place: the grid is the one array allocated
    return pts.reshape(-1, pts.shape[2])


def frozen_array(x, ndim: int) -> np.ndarray:
    """A read-only float64 copy of ``x`` with ``ndim`` axes and finite entries.

    Geometry objects store their data through this helper once, when they
    are built, and every query reads that array.  It is read-only because
    the frozen objects are shared between callers.  An empty ``x`` passes;
    factories that need data reject it themselves.
    """
    try:
        a = np.array(x, dtype=float)
    except (TypeError, ValueError):
        raise GeometryError("expected numbers in vectors of equal length") from None
    if a.size and a.ndim != ndim:
        raise GeometryError(f"expected {ndim} axes, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise GeometryError("vector has non-finite entries")
    a.setflags(write=False)
    return a


def _nonzero_rows(x, what: str) -> np.ndarray:
    """Rows of x as a frozen (n, dim) array; none may be (near) zero."""
    rows = frozen_array(x, 2)
    if rows.size == 0:
        raise GeometryError(f"{what} needs at least one nonzero vector")
    if np.any(np.linalg.norm(rows, axis=1) <= UNIT_TOL):
        raise GeometryError(f"zero vector in {what}")
    return rows


@dataclass(frozen=True, eq=False)
class HalfspaceCone:
    """Cone {y : a_i . y >= 0 for every row a_i}."""

    dim: int
    rows: np.ndarray

    @staticmethod
    def from_rows(rows) -> "HalfspaceCone":
        rows = _nonzero_rows(rows, "H-representation")
        return HalfspaceCone(rows.shape[1], rows)

    @property
    def matrix(self) -> np.ndarray:
        return self.rows

    def contains(self, v, strict: bool = False, tol: float = TOL) -> bool:
        return bool(self._contains_rows(as_vector(v, self.dim)[None], strict, tol)[0])

    def contains_many(self, X, strict: bool = False, tol: float = TOL) -> np.ndarray:
        """``contains`` for each row of X."""
        return self._contains_rows(as_points(X, self.dim), strict, tol)

    def _contains_rows(self, X, strict: bool, tol: float) -> np.ndarray:
        prods = row_products(self.rows, X)
        if strict:
            return np.all(prods > tol, axis=1)
        return np.all(prods >= -tol, axis=1)

    def interior_point(self) -> np.ndarray | None:
        """A point with a_i . y >= 1 for all i, or None (empty interior)."""
        p = LPProblem(self.dim)
        p.add_ge(self.rows, 1.0)
        return lp_feasible(p)


@dataclass(frozen=True, eq=False)
class GeneratorCone:
    """Cone of nonnegative combinations of finitely many generators.

    In 2-D, membership is closed-form over read-only tables built on first
    use and kept: ``units`` (the unit generators), ``whole_plane`` (whether
    they span the plane) and ``sectors`` (``sectors[i, j]``: g_i, g_j bound
    a proper sector, 0 < angle < pi).
    """

    dim: int
    generators: np.ndarray

    @cached_property
    def units(self) -> np.ndarray:
        gens = rescaled_rows(self.generators)
        return frozen_array(gens / np.linalg.norm(gens, axis=1, keepdims=True), 2)

    @cached_property
    def whole_plane(self) -> bool:
        # no closed halfplane contains all generators; any containing
        # halfplane can be rotated onto a generator, so its normal is one
        # of the generator perpendiculars
        units = self.units
        perp = np.stack([-units[:, 1], units[:, 0]], axis=1)
        dots = perp @ units.T  # dots[i, j] = perp_i . g_j
        return not (np.any(np.all(dots >= -TOL, axis=1))
                    or np.any(np.all(dots <= TOL, axis=1)))

    @cached_property
    def sectors(self) -> np.ndarray:
        units = self.units
        cross_gg = (units[:, 0][:, None] * units[:, 1][None, :]
                    - units[:, 1][:, None] * units[:, 0][None, :])
        sectors = cross_gg > TOL
        sectors.setflags(write=False)
        return sectors

    @staticmethod
    def from_generators(gens) -> "GeneratorCone":
        gens = _nonzero_rows(gens, "generator cone")
        return GeneratorCone(gens.shape[1], gens)

    def contains(self, v) -> bool:
        return bool(self._contains_rows(as_vector(v, self.dim)[None])[0])

    def contains_many(self, X) -> np.ndarray:
        """Membership of each row of X: closed-form in dimension 1 and 2,
        one LP per row above."""
        return self._contains_rows(as_points(X, self.dim))

    def _contains_rows(self, X) -> np.ndarray:
        nrm = row_norms(X)
        zero = nrm <= TOL
        if self.dim == 1:
            # g*x has the sign of g*x/|x| (and cannot underflow to 0, as
            # |g| > UNIT_TOL and |x| > TOL): no need to normalize
            return zero | (self.generators[:, 0] * X > 0.0).any(axis=1)
        if self.dim > 2:
            return np.array([z or self._contains_lp(x) for z, x in zip(zero, X)], dtype=bool)
        if self.whole_plane:
            return np.ones(len(X), dtype=bool)
        # unit rows (a zero row, a member anyway, is divided by 1)
        X = rescaled_rows(X)
        return zero | self._in_sectors(X / np.where(zero, 1.0, row_norms(X))[:, None])

    def _contains_lp(self, v) -> bool:
        gens = self.generators
        p = LPProblem(len(gens), nonneg=range(len(gens)))
        p.add_eq(gens.T, v)
        return lp_feasible(p) is not None

    def _in_sectors(self, U) -> np.ndarray:
        """Closed-form membership in 2-D (rows of U are unit), for a cone
        that is not the whole plane."""
        units = self.units
        # cross[n, i] = g_i x u_n and dot[n, i] = g_i . u_n
        cross = units[:, 0] * U[:, 1:] - units[:, 1] * U[:, :1]
        dot = row_products(units, U)
        # positively parallel to a generator
        parallel = ((np.abs(cross) <= TOL) & (dot > 0.0)).any(axis=1)
        # otherwise the cone is a union of proper sectors between
        # generator pairs: u in [g_i, g_j] with angle(g_i, g_j) < pi;
        # the boolean product ORs sectors[i, j] & (u before g_j) over j
        before = (-cross >= -TOL) @ self.sectors.T
        return parallel | ((cross >= -TOL) & before).any(axis=1)


@dataclass(frozen=True, eq=False)
class DirectionSet:
    """Closed set of directions on the unit sphere.

    variant 'finite': explicit unit vectors; 'cone_section': the
    unit-sphere slice of an H-rep cone; 'full_sphere': all of S_X.
    ``vectors`` holds the finite directions, shape (0, dim) otherwise.
    """

    dim: int
    variant: str
    vectors: np.ndarray
    section: HalfspaceCone | None = None

    @staticmethod
    def finite(vs) -> "DirectionSet":
        vecs = frozen_array(vs, 2)
        if vecs.size == 0:
            raise GeometryError("direction set must be nonempty")
        if np.any(np.abs(np.linalg.norm(vecs, axis=1) - 1.0) > UNIT_TOL):
            raise GeometryError("finite directions must be unit vectors")
        return DirectionSet(vecs.shape[1], "finite", vecs)

    @staticmethod
    def cone_section(cone: HalfspaceCone) -> "DirectionSet":
        # nontrivial: the cone must contain a point with some coordinate >= 1
        for e in np.eye(cone.dim):
            for unit in (e, 0.0 - e):  # 0.0 - e keeps the zeros +0.0
                p = LPProblem(cone.dim)
                p.add_ge(cone.rows, 0.0)
                p.add_ge(unit, 1.0)
                if lp_feasible(p) is not None:
                    return DirectionSet(cone.dim, "cone_section",
                                        frozen_array(np.zeros((0, cone.dim)), 2),
                                        cone)
        raise GeometryError("cone section is trivial: cone contains only 0")

    @staticmethod
    def full_sphere(dim: int) -> "DirectionSet":
        if dim < 1:
            raise GeometryError("dimension must be positive")
        return DirectionSet(dim, "full_sphere", frozen_array(np.zeros((0, dim)), 2))

    @cached_property
    def hull(self) -> GeneratorCone | HalfspaceCone | None:
        """cone L, built once from the variant: the generator cone of the
        finite directions, the section's cone, or None for the full sphere."""
        if self.variant == "finite":
            return GeneratorCone(self.dim, self.vectors)
        return self.section


def conic_hull(L: DirectionSet):
    """cone L, kept on L as ``L.hull``."""
    return L.hull


def cone_contains(L: DirectionSet, v) -> bool:
    """Membership of v in cone L (always true for the full sphere)."""
    return bool(cone_contains_many(L, as_vector(v, L.dim)[None])[0])


def cone_contains_many(L: DirectionSet, V) -> np.ndarray:
    """Membership of each row of V in cone L: every row for the full
    sphere, a row of norm at most TOL, else membership in the conic hull."""
    V = as_points(V, L.dim)
    hull = conic_hull(L)
    if hull is None:
        return np.ones(len(V), dtype=bool)
    out = row_norms(V) <= TOL
    rest = np.flatnonzero(~out)
    out[rest] = hull.contains_many(V[rest])
    return out


def sphere_lattice(dim: int, count: int, seed: int = 0) -> np.ndarray:
    """Deterministic quasi-uniform directions on the unit sphere.

    dim 1: the two signs; dim 2: golden-angle sequence; dim 3: Fibonacci
    sphere; higher dims: seeded Gaussian normalization (still deterministic
    for a fixed seed).
    """
    if dim == 1:
        return np.array([[1.0], [-1.0]][: max(1, min(count, 2))])
    if dim == 2:
        golden = (1.0 + 5.0 ** 0.5) / 2.0
        ang = 2.0 * np.pi * ((np.arange(count) * (1.0 / golden)) % 1.0)
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    if dim == 3:
        i = np.arange(count) + 0.5
        phi = np.arccos(1.0 - 2.0 * i / count)
        golden = np.pi * (1.0 + 5.0 ** 0.5)
        theta = golden * i
        return np.stack(
            [np.cos(theta) * np.sin(phi), np.sin(theta) * np.sin(phi), np.cos(phi)], axis=1
        )
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((count, dim))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def direction_samples(L: DirectionSet, count: int, seed: int = 0) -> np.ndarray:
    """Concrete unit directions drawn from L, deterministically.

    Finite sets are returned as-is; cone sections and the full sphere are
    sampled from the deterministic sphere lattice (sections keep only the
    in-cone directions, topping up the lattice until ``count`` are found
    or the lattice is exhausted).
    """
    if L.variant == "finite":
        return L.vectors
    if L.variant == "full_sphere":
        return sphere_lattice(L.dim, count, seed)
    cone = L.section
    batch = max(count * 4, 64)
    for factor in (1, 4, 16, 64):
        pts = sphere_lattice(L.dim, batch * factor, seed)
        found = pts[cone.contains_many(pts)]
        if len(found) >= count:
            break
    if not len(found):
        # fall back to normalized interior / row-orthogonal probes
        ip = cone.interior_point()
        if ip is not None and np.linalg.norm(ip) > 0:
            found = (ip / np.linalg.norm(ip))[None]
    if not len(found):
        raise GeometryError("no direction of the cone section could be sampled")
    return found[:count].copy()
