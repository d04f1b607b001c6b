"""Bouligand tangent cones confined to a direction set.

Polyhedral sets get exact tangent cones (active-constraint calculus);
general membership-oracle sets get a sampled verdict built from the
defining sequences, with an explicit evidence schedule.
"""

from __future__ import annotations

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
    frozen_array,
)
from .maps import SmoothMap
from .sets import PolyhedralSet


@dataclass(frozen=True)
class TSchedule:
    """Geometric step schedule t_k = radius * 2^-k, k = 0..levels-1."""

    radius: float = 0.25
    levels: int = 25
    lattice_size: int = 961  # perturbation candidates per level

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
            nrm = np.linalg.norm(v)
            if nrm <= TOL:
                return True
            return bool(np.any(np.linalg.norm(self.rays - v / nrm, axis=1) <= TOL))
        return all(p.contains(v) for p in self.pieces)

    def sample_rays(self) -> np.ndarray:
        if self.rays is None:
            raise GeometryError("H-rep tangent cone has no explicit ray list")
        return self.rays


def bouligand_polyhedral(A: PolyhedralSet, xbar) -> HalfspaceCone | None:
    """T_B(A, xbar) for a polyhedron: feasible directions of the active rows.

    Returns None when no row is active (the tangent cone is the whole space).
    For polyhedra this coincides with the Ursescu (adjacent) cone.
    """
    xbar = as_vector(xbar, A.dim)
    if not A.contains(xbar):
        raise GeometryError("reference point is not in the polyhedron")
    act = A.active_rows(xbar)
    if act.shape[0] == 0:
        return None
    return HalfspaceCone.from_rows(act)


ursescu_polyhedral = bouligand_polyhedral


def tangent_polyhedral(A: PolyhedralSet, xbar, L: DirectionSet) -> ExactTangentCone:
    """Exact T_B^L(A, xbar): active-row cone intersected with cone L."""
    xbar = as_vector(xbar, A.dim)
    base = bouligand_polyhedral(A, xbar)
    if L.variant == "finite":
        keep = [base is None or base.contains(ell) for ell in L.vectors]
        return ExactTangentCone(A.dim, rays=frozen_array(L.vectors[keep], 2))
    pieces = [] if base is None else [base]
    if L.variant == "cone_section":
        pieces.append(L.section)
    # empty piece list means the whole space (full-sphere L, no active rows)
    return ExactTangentCone(A.dim, pieces=tuple(pieces))


def _ball_lattice(dim: int, size: int) -> np.ndarray:
    """Deterministic grid of the closed unit ball, at most ``size`` points."""
    per_axis = max(3, int(size ** (1.0 / dim)))
    if per_axis % 2 == 0:
        per_axis -= 1
    axis = np.linspace(-1.0, 1.0, per_axis)
    pts = np.array(list(itertools.product(axis, repeat=dim)))
    keep = np.linalg.norm(pts, axis=1) <= 1.0 + 1e-12
    return pts[keep][:size]


def _perturbations(u: np.ndarray, eps: float, L: DirectionSet | None,
                   lattice_size: int) -> np.ndarray:
    """Candidates u' in cone L with |u' - u| <= eps, deterministic order."""
    dim = u.size
    cands = [u] + [u + eps * g for g in _ball_lattice(dim, lattice_size)]
    if L is not None:
        # ray-aligned candidates: scale each finite direction toward the ball
        for ell in L.vectors:
            base = float(np.dot(u, ell))
            cands += [c * ell for c in np.linspace(max(base - eps, 0.0), base + eps, 9)]
    out = []
    for cand in cands:
        if np.linalg.norm(cand - u) <= eps + 1e-15 and (
                L is None or cone_contains(L, cand)):
            out.append(cand)
    return np.array(out) if out else np.zeros((0, dim))


def tangent_membership_sampled(A, xbar, L: DirectionSet | None, u,
                               schedule: TSchedule = TSchedule()) -> TangentVerdict:
    """Sampled verdict for u in T_B^L(A, xbar) (L=None: plain T_B).

    member: at every level k a perturbation u_k in cone L with
    |u_k - u| <= eps_k was found with xbar + t_k u_k in A.
    nonmember: all sampled (t, u') with t <= t_k missed A at three
    consecutive levels (a margin-style certificate, still sampling-based).
    Anything else: inconclusive.
    """
    xbar = as_vector(xbar)
    u = as_vector(u, xbar.size)
    if not A.contains(xbar):
        raise GeometryError("reference point is not in the set")
    if L is not None and not cone_contains(L, u):
        return TangentVerdict("nonmember", (), note="u is outside cone L")

    norm_u = np.linalg.norm(u)
    if norm_u <= TOL:
        return TangentVerdict("member", (), note="zero direction is always tangent")

    steps = schedule.steps()
    evidence = []
    hits = 0
    trailing_misses = 0
    for k, t in enumerate(steps):
        eps = norm_u * 0.5 ** (k / 2.0)
        cands = _perturbations(u, eps, L, schedule.lattice_size)
        found = None
        for cand in cands:
            # sweep sub-steps t' <= t as well, finest first is not needed
            for tt in t * 0.5 ** (0.5 * np.arange(8)):
                if A.contains(xbar + tt * cand):
                    found = (float(tt), cand)
                    break
            if found:
                break
        if found:
            evidence.append((found[0], tuple(found[1])))
            hits += 1
            trailing_misses = 0
        else:
            evidence.append((float(t), None))
            trailing_misses += 1

    if hits == len(steps):
        return TangentVerdict("member", tuple(evidence))
    if trailing_misses >= 3:
        return TangentVerdict(
            "nonmember", tuple(evidence),
            note="sampled neighborhoods missed the set at the final levels; "
                 "sampling evidence, not a proof")
    return TangentVerdict("inconclusive", tuple(evidence))


def derivative_image(f: SmoothMap, xbar, u, L: DirectionSet | None = None):
    """Gradient image of a direction: Jf(xbar) u, restricted to cone L.

    With L given, directions outside cone L map to None (empty image).
    """
    xbar = as_vector(xbar, f.dim_in)
    u = as_vector(u, f.dim_in)
    if L is not None and not cone_contains(L, u):
        return None
    return f.jacobian(xbar) @ u
