"""Polyhedral cones, polar/dual operations, and direction sets.

Cones acting as orderings (K, Q) are kept in H-representation
``{y : a_i . y >= 0}``; direction sets are finite lists of unit vectors,
unit-sphere sections of H-representation cones, or the full sphere.
No double-description conversion anywhere: each operation stays inside
the representation it is given.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lp import LPProblem, lp_feasible

TOL = 1e-9
UNIT_TOL = 1e-12


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
        v = as_vector(v, self.dim)
        prods = self.rows @ v
        if strict:
            return bool(np.all(prods > tol))
        return bool(np.all(prods >= -tol))

    def interior_point(self) -> np.ndarray | None:
        """A point with a_i . y >= 1 for all i, or None (empty interior)."""
        p = LPProblem(self.dim)
        for r in self.rows:
            p.add_ge(r, 1.0)
        return lp_feasible(p)


@dataclass(frozen=True, eq=False)
class GeneratorCone:
    """Cone of nonnegative combinations of finitely many generators."""

    dim: int
    generators: np.ndarray

    @staticmethod
    def from_generators(gens) -> "GeneratorCone":
        gens = _nonzero_rows(gens, "generator cone")
        return GeneratorCone(gens.shape[1], gens)

    @property
    def matrix(self) -> np.ndarray:
        return self.generators

    def contains(self, v) -> bool:
        v = as_vector(v, self.dim)
        nrm = float(np.linalg.norm(v))
        if nrm <= TOL:
            return True
        if self.dim <= 2:
            return self._contains_lowdim(v / nrm)
        gens = self.generators
        p = LPProblem(len(gens), nonneg=range(len(gens)))
        for k in range(self.dim):
            p.add_eq(gens[:, k], v[k])
        return lp_feasible(p) is not None

    def _contains_lowdim(self, v) -> bool:
        """Closed-form membership in dimension 1 and 2 (v is unit)."""
        gens = self.generators
        units = gens / np.linalg.norm(gens, axis=1, keepdims=True)
        if self.dim == 1:
            return bool(np.any(units[:, 0] * v[0] > 0.0))
        # positively parallel to a generator
        cross_gv = units[:, 0] * v[1] - units[:, 1] * v[0]
        dot_gv = units @ v
        if np.any((np.abs(cross_gv) <= TOL) & (dot_gv > 0.0)):
            return True
        # whole plane: no closed halfplane contains all generators; any
        # containing halfplane can be rotated onto a generator, so its
        # normal is one of the generator perpendiculars
        perp = np.stack([-units[:, 1], units[:, 0]], axis=1)
        dots = perp @ units.T  # dots[i, j] = perp_i . g_j
        if not (np.any(np.all(dots >= -TOL, axis=1))
                or np.any(np.all(dots <= TOL, axis=1))):
            return True
        # otherwise the cone is a union of proper sectors between
        # generator pairs: v in [g_i, g_j] with angle(g_i, g_j) < pi
        cross_gg = (units[:, 0][:, None] * units[:, 1][None, :]
                    - units[:, 1][:, None] * units[:, 0][None, :])
        ok = ((cross_gg > TOL)
              & (cross_gv[:, None] >= -TOL)
              & (-cross_gv[None, :] >= -TOL))
        return bool(np.any(ok))


def negative_polar(c: GeneratorCone) -> HalfspaceCone:
    """{x* : x* . g <= 0 for every generator g}, as an H-rep cone."""
    return HalfspaceCone.from_rows(-c.generators)


@dataclass(frozen=True)
class DualGenerators:
    """Positive dual cone K+ of an H-rep cone, as generators.

    The rows of the H-representation always generate a subset of K+;
    they span all of K+ only when the cone is full-dimensional, which
    ``spanning`` records.
    """

    cone: GeneratorCone
    spanning: bool


def dual_generators(c: HalfspaceCone) -> DualGenerators:
    spanning = c.interior_point() is not None
    return DualGenerators(GeneratorCone(c.dim, c.rows), spanning)


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
        nontrivial = False
        for k in range(cone.dim):
            for sign in (1.0, -1.0):
                p = LPProblem(cone.dim)
                for r in cone.rows:
                    p.add_ge(r, 0.0)
                e = np.zeros(cone.dim)
                e[k] = sign
                p.add_ge(e, 1.0)
                if lp_feasible(p) is not None:
                    nontrivial = True
                    break
            if nontrivial:
                break
        if not nontrivial:
            raise GeometryError("cone section is trivial: cone contains only 0")
        return DirectionSet(cone.dim, "cone_section",
                            frozen_array(np.zeros((0, cone.dim)), 2), cone)

    @staticmethod
    def full_sphere(dim: int) -> "DirectionSet":
        if dim < 1:
            raise GeometryError("dimension must be positive")
        return DirectionSet(dim, "full_sphere", frozen_array(np.zeros((0, dim)), 2))

    @property
    def matrix(self) -> np.ndarray:
        return self.vectors


def conic_hull(L: DirectionSet):
    """cone L: generator cone for finite L, the section's H-rep cone otherwise."""
    if L.variant == "finite":
        return GeneratorCone(L.dim, L.vectors)
    if L.variant == "cone_section":
        return L.section
    return None  # full sphere: cone L is the whole space


def cone_contains(L: DirectionSet, v) -> bool:
    """Membership of v in cone L (always true for the full sphere)."""
    v = as_vector(v, L.dim)
    hull = conic_hull(L)
    if hull is None:
        return True
    if np.linalg.norm(v) <= TOL:
        return True
    return hull.contains(v)


def normalize_directions(vs) -> DirectionSet:
    """Unit-normalize, drop exact duplicates (order preserved)."""
    out: list[np.ndarray] = []
    for v in vs:
        v = as_vector(v)
        nrm = np.linalg.norm(v)
        if nrm <= UNIT_TOL:
            raise GeometryError("cannot normalize a zero vector")
        u = v / nrm
        if not any(np.linalg.norm(u - w) <= UNIT_TOL for w in out):
            out.append(u)
    return DirectionSet.finite(out)


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
    found: list[np.ndarray] = []
    batch = max(count * 4, 64)
    for factor in (1, 4, 16, 64):
        pts = sphere_lattice(L.dim, batch * factor, seed)
        found = [p for p in pts if cone.contains(p)]
        if len(found) >= count:
            break
    if not found:
        # fall back to normalized interior / row-orthogonal probes
        ip = cone.interior_point()
        if ip is not None and np.linalg.norm(ip) > 0:
            found = [ip / np.linalg.norm(ip)]
    if not found:
        raise GeometryError("no direction of the cone section could be sampled")
    return np.array(found[:count])
