"""Bouligand tangent cones confined to a direction set.

Polyhedral sets get exact tangent cones (active-constraint calculus);
general membership-oracle sets get a sampled verdict built from the
defining sequences, with an explicit evidence schedule.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .geometry import (
    TOL,
    DirectionSet,
    GeometryError,
    HalfspaceCone,
    as_vector,
    cone_contains,
    cone_contains_many,
    frozen_array,
    in_space,
    ray_points,
    require_integers,
    rescaled_rows,
    row_norms,
)
from .sets import PolyhedralSet

MAX_POINTS = 1 << 16  # caps the temporaries of the sampled search


@dataclass(frozen=True)
class TSchedule:
    """Geometric step schedule t_k = radius * 2^-k, k = 0..levels-1."""

    radius: float = 0.25
    levels: int = 25
    lattice_size: int = 961  # perturbation candidates per level

    def __post_init__(self):
        require_integers(self, ("levels", "lattice_size"), GeometryError, "schedule")
        if not 0 < self.radius < np.inf or self.levels < 1 or self.lattice_size < 1:
            raise GeometryError("schedule parameters must be positive and finite")

    def steps(self) -> np.ndarray:
        return self.radius * 0.5 ** np.arange(self.levels)


@dataclass(frozen=True)
class TangentVerdict:
    status: str  # 'member' | 'nonmember' | 'inconclusive'
    evidence: tuple  # per-level (t_k, u_k or None)
    note: str = ""


@dataclass(frozen=True, eq=False)
class ExactTangentCone:
    """Tangent cone of a polyhedron at a point, confined to a direction set.

    Either an intersection of H-rep pieces (cone-section / full-sphere L)
    or a filtered list of rays (finite L).
    """

    dim: int
    pieces: tuple = ()  # HalfspaceCone intersection
    rays: np.ndarray | None = None  # finite-L case: surviving unit rays, (k, dim)

    def contains(self, v) -> bool:
        v = as_vector(v, self.dim)
        if self.rays is not None:
            if np.linalg.norm(v) <= TOL:
                return True
            w = rescaled_rows(v[None])[0]
            return bool(np.any(np.linalg.norm(self.rays - w / np.linalg.norm(w), axis=1) <= TOL))
        return all(p.contains(v) for p in self.pieces)


def bouligand_polyhedral(A: PolyhedralSet, xbar) -> HalfspaceCone | None:
    """T_B(A, xbar) for a polyhedron: feasible directions of the active rows.

    Returns None when no row is active (the tangent cone is the whole space).
    For polyhedra this coincides with the Ursescu (adjacent) cone.
    """
    xbar = as_vector(xbar, A.dim)
    if not A.contains(xbar):
        raise GeometryError("reference point is not feasible")
    act = A.active_rows(xbar)
    if act.shape[0] == 0:
        return None
    return HalfspaceCone.from_rows(act)


def tangent_polyhedral(A: PolyhedralSet, xbar, L: DirectionSet) -> ExactTangentCone:
    """Exact T_B^L(A, xbar): active-row cone intersected with cone L."""
    xbar = as_vector(xbar, A.dim)
    in_space(L, A.dim, "L")
    base = bouligand_polyhedral(A, xbar)
    if L.variant == "finite":
        rays = L.vectors if base is None else L.vectors[base.contains_many(L.vectors)]
        return ExactTangentCone(A.dim, rays=frozen_array(rays, 2))
    pieces = [] if base is None else [base]
    if L.variant == "cone_section":
        pieces.append(L.section)
    # empty piece list means the whole space (full-sphere L, no active rows)
    return ExactTangentCone(A.dim, pieces=tuple(pieces))


@functools.cache
def _ball_lattice(dim: int, size: int) -> np.ndarray:
    """Deterministic grid of the closed unit ball, at most ``size`` points,
    built once per (dim, size) and read-only."""
    per_axis = max(3, int(size ** (1.0 / dim)))
    if per_axis % 2 == 0:
        per_axis -= 1
    axis = np.linspace(-1.0, 1.0, per_axis)
    pts = np.array(list(itertools.product(axis, repeat=dim)))
    keep = np.linalg.norm(pts, axis=1) <= 1.0 + 1e-12
    return frozen_array(pts[keep][:size], 2)


def _perturbations(u: np.ndarray, eps: list, L: DirectionSet | None, lattice_size: int):
    """Candidates u' in cone L with |u' - u| <= eps_k for each eps_k of
    ``eps``, in batches of consecutive levels of at most MAX_POINTS // 16
    candidates (at least one level), each built and filtered at once.  A
    batch is a list of one array per level, in the deterministic order u,
    the ball lattice, the ray-aligned points of each direction of L."""
    lattice = _ball_lattice(u.size, lattice_size)
    rays = [] if L is None else [(float(np.dot(u, ell)), ell) for ell in L.vectors]
    per_level = 1 + len(lattice) + 9 * len(rays)
    size = max(1, MAX_POINTS // 16 // per_level)
    for lo in range(0, len(eps), size):
        batch = np.array(eps[lo:lo + size])
        blocks = [np.broadcast_to(u, (len(batch), 1, u.size)), u + batch[:, None, None] * lattice]
        # ray-aligned candidates: scale each finite direction toward the ball
        for base, ell in rays:
            blocks.append(np.array([np.linspace(max(base - e, 0.0), base + e, 9)
                                    for e in batch])[:, :, None] * ell)
        cands = np.concatenate(blocks, axis=1).reshape(-1, u.size)
        keep = row_norms(cands - u) <= np.repeat(batch + 1e-15, per_level)
        if L is not None:
            near = np.flatnonzero(keep)
            keep[near] = cone_contains_many(L, cands[near])
        counts = np.count_nonzero(keep.reshape(len(batch), per_level), axis=1)
        yield np.split(cands[keep], np.cumsum(counts)[:-1])


def _blocks(n: int):
    """``(start, stop)`` of consecutive blocks covering ``range(n)``
    candidates of 8 sub-steps each: 1 candidate, then 8 times the block
    before, never more than MAX_POINTS // 8 candidates (but at least one)."""
    cap = max(1, MAX_POINTS // 8)
    start, size = 0, 1
    while start < n:
        yield start, min(start + size, n)
        start += size
        size = min(8 * size, cap)


def tangent_membership_sampled(A, xbar, L: DirectionSet | None, u,
                               schedule: TSchedule = TSchedule()) -> TangentVerdict:
    """Sampled verdict for u in T_B^L(A, xbar) (L=None: plain T_B).

    member: at every level k a perturbation u_k in cone L with
    |u_k - u| <= eps_k was found with xbar + t_k u_k in A.
    nonmember: all sampled (t, u') with t <= t_k missed A at three
    consecutive levels (a margin-style certificate, still sampling-based).
    Anything else: inconclusive.

    Level k keeps its first hit over its candidates u' and 8 sub-steps
    t' <= t_k, candidate-major.  Round r of a batch of levels asks A about
    block r of ``_blocks(n_k)`` of each level still without a hit
    in one ``contains_many`` call (at most MAX_POINTS // 2 points, or one
    block of one level): each level finds the hit a search of it alone finds.
    """
    xbar = as_vector(xbar)
    # u's direction, with a norm that neither overflows nor underflows
    u = rescaled_rows(as_vector(u, xbar.size)[None])[0]
    if not A.contains(xbar):
        raise GeometryError("reference point is not feasible")
    if L is not None and not cone_contains(L, u):
        return TangentVerdict("nonmember", (), note="u is outside cone L")

    norm_u = np.linalg.norm(u)
    if norm_u <= TOL:
        return TangentVerdict("member", (), note="zero direction is always tangent")

    steps = schedule.steps()
    substeps = steps[:, None] * 0.5 ** (0.5 * np.arange(8))
    n_sub = substeps.shape[1]
    eps = [norm_u * 0.5 ** (k / 2.0) for k in range(len(steps))]
    hits = []
    for batch in _perturbations(u, eps, L, schedule.lattice_size):
        cands = dict(enumerate(batch, len(hits)))  # level -> candidates
        blocks = {k: list(_blocks(len(c))) for k, c in cands.items()}
        hits += [None] * len(batch)
        for r in itertools.count():
            parts = [(k, *blocks[k][r]) for k in cands if hits[k] is None and r < len(blocks[k])]
            if not parts:
                break
            sizes = [b - a for _, a, b in parts]
            dirs = np.concatenate([cands[k][a:b] for k, a, b in parts])
            ts = substeps[np.repeat([k for k, _, _ in parts], sizes)]
            inside = np.flatnonzero(A.contains_many(ray_points(xbar, dirs, ts)))
            starts = n_sub * np.cumsum([0] + sizes[:-1])
            for (k, a, b), start, j in zip(parts, starts, np.searchsorted(inside, starts)):
                if j < inside.size and inside[j] < start + n_sub * (b - a):
                    c, s = divmod(int(inside[j] - start), n_sub)
                    hits[k] = (float(substeps[k, s]), tuple(cands[k][a + c]))
    evidence = tuple(hit or (float(t), None) for t, hit in zip(steps, hits))

    misses = [hit is None for hit in hits]
    if not any(misses):
        return TangentVerdict("member", evidence)
    if misses[-3:] == [True] * 3:
        return TangentVerdict(
            "nonmember", evidence,
            note="sampled neighborhoods missed the set at the final levels; "
                 "sampling evidence, not a proof")
    return TangentVerdict("inconclusive", evidence)
