"""Grid certification and refutation of directional Pareto minimality.

A "certified_on_grid" verdict is evidence on a finite, deterministic
sample — never a proof.  Refutations carry a re-checkable witness.  The
tangent sufficiency check is exact for polyhedral data; everything else
here is sampling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    DirectionSet,
    HalfspaceCone,
    as_vector,
    cone_contains,
    direction_samples,
)
from .lp import LPProblem, lp_feasible
from .maps import SmoothMap

FEAS_TOL = 1e-8


class CertifyError(Exception):
    pass


@dataclass(frozen=True)
class GridSpec:
    radius: float = 0.5
    levels: int = 21
    rays_per_level: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.radius <= 0 or self.levels < 1 or self.rays_per_level < 1:
            raise CertifyError("grid parameters must be positive")

    def t_values(self) -> np.ndarray:
        return self.radius * 0.5 ** np.arange(self.levels)


@dataclass(frozen=True)
class IneqEq:
    mu: tuple = ()
    nu: tuple = ()


@dataclass(frozen=True)
class Problem:
    f: SmoothMap
    K: HalfspaceCone
    L: DirectionSet
    xbar: tuple
    grid: GridSpec = field(default_factory=GridSpec)
    constraint: object = None  # None | IneqEq | set with .contains

    def __post_init__(self):
        x = as_vector(self.xbar, self.f.dim_in)
        object.__setattr__(self, "xbar", tuple(float(c) for c in x))
        if self.L.dim != self.f.dim_in:
            raise CertifyError("direction set lives in the wrong space")
        if self.K.dim != self.f.dim_out:
            raise CertifyError("ordering cone lives in the wrong space")
        if not _feasible(self.constraint, x):
            raise CertifyError("reference point is not feasible")

    @property
    def x0(self) -> np.ndarray:
        return np.array(self.xbar)


@dataclass(frozen=True)
class CertReport:
    verdict: str  # 'certified_on_grid' | 'refuted'
    weak: bool
    samples: int
    counterexample: tuple | None = None  # (x, f(x)-f(xbar)) when refuted
    note: str = ""

    def as_dict(self) -> dict:
        d = {
            "verdict": self.verdict,
            "weak": self.weak,
            "samples": self.samples,
            "note": self.note,
        }
        if self.counterexample is not None:
            x, diff = self.counterexample
            d["counterexample"] = {"x": list(x), "diff": list(diff)}
        return d


def _feasible(constraint, x) -> bool:
    if constraint is None:
        return True
    if isinstance(constraint, IneqEq):
        for m in constraint.mu:
            if m(x)[0] > FEAS_TOL:
                return False
        for n in constraint.nu:
            if abs(n(x)[0]) > FEAS_TOL:
                return False
        return True
    return bool(constraint.contains(x))


def _violates(d: np.ndarray, K: HalfspaceCone, weak: bool) -> bool:
    """Is d = f(x)-f(xbar) a minimality violation at this sample?"""
    if weak:
        return K.contains(-d, strict=True)  # d in -int K
    return K.contains(-d) and not K.contains(d)  # d in -K \ K


def _certified(weak: bool, samples: int) -> CertReport:
    """A grid certificate; with no feasible sample it is vacuous and says so."""
    note = "" if samples else "no feasible grid sample"
    return CertReport("certified_on_grid", weak, samples, note=note)


def certify_directional_min(p: Problem, weak: bool = False) -> CertReport:
    """Sample x = xbar + t*ell over the grid and hunt for a violation."""
    xbar = p.x0
    f0 = p.f(xbar)
    dirs = direction_samples(p.L, p.grid.rays_per_level, p.grid.seed)
    samples = 0
    for ell in dirs:
        for t in p.grid.t_values():
            x = xbar + t * ell
            if not _feasible(p.constraint, x):
                continue
            samples += 1
            d = p.f(x) - f0
            if not np.all(np.isfinite(d)):
                raise CertifyError(f"non-finite objective value at {x.tolist()}")
            if _violates(d, p.K, weak):
                return CertReport("refuted", weak, samples,
                                  (tuple(x), tuple(d)))
    return _certified(weak, samples)


def certify_set_min(M, xbar, K: HalfspaceCone, L: DirectionSet,
                    weak: bool = False,
                    grid: GridSpec | None = None) -> CertReport:
    """Directional minimality of xbar for the set M: samples of
    M cap (xbar + cone L) near xbar must not step into -K \\ K
    (strong) or -int K (weak)."""
    grid = grid or GridSpec()
    xbar = as_vector(xbar, M.dim)
    if not M.contains(xbar):
        raise CertifyError("reference point is not in the set")
    dirs = direction_samples(L, grid.rays_per_level, grid.seed)
    samples = 0
    for ell in dirs:
        for t in grid.t_values():
            x = xbar + t * ell
            if not M.contains(x):
                continue
            samples += 1
            d = x - xbar
            if _violates(d, K, weak):
                return CertReport("refuted", weak, samples,
                                  (tuple(x), tuple(d)))
    return _certified(weak, samples)


@dataclass(frozen=True)
class DirectionCheck:
    direction: tuple
    image: tuple
    violated: bool  # image in -int K


def check_first_order_necessary(p: Problem, directions) -> dict:
    """First-order necessary condition over admissible directions.

    For each supplied u (which must lie in cone L and, under smooth
    inequality/equality constraints, satisfy grad mu_i(xbar).u <= 0 for
    active i and grad nu_j(xbar).u = 0), checks whether the derivative
    image J_f(xbar) u falls in -int K.  Any violation refutes weak
    directional minimality; non-admissible directions are rejected.
    """
    xbar = p.x0
    jac = p.f.jacobian(xbar)
    checks = []
    for u in directions:
        u = as_vector(u, p.f.dim_in)
        if not cone_contains(p.L, u):
            raise CertifyError(
                f"direction {u.tolist()} is outside cone L: not admissible")
        if isinstance(p.constraint, IneqEq):
            for m in p.constraint.mu:
                if abs(m(xbar)[0]) <= FEAS_TOL:  # active
                    if float(m.jacobian(xbar)[0] @ u) > FEAS_TOL:
                        raise CertifyError(
                            f"direction {u.tolist()} violates an active "
                            "inequality gradient: not admissible")
            for n in p.constraint.nu:
                if abs(float(n.jacobian(xbar)[0] @ u)) > FEAS_TOL:
                    raise CertifyError(
                        f"direction {u.tolist()} violates an equality "
                        "gradient: not admissible")
        img = jac @ u
        checks.append(DirectionCheck(tuple(u), tuple(img),
                                     p.K.contains(-img, strict=True)))
    holds = not any(c.violated for c in checks)
    return {"holds": holds, "checks": checks}


def _tangent_plus_K_witness(T_rows: np.ndarray, K: HalfspaceCone,
                            L: DirectionSet, depth) -> np.ndarray | None:
    """Search v in (T + K) cap cone L with r_i . v <= -depth_i on every
    row r_i of K.

    T is the H-rep tangent cone of M at xbar (rows T_rows, possibly
    empty = whole space).  Variables: v (dim), s (dim, the T part; v - s
    must lie in K), then nonnegative weights gamma with v = sum gamma_k
    ell_k for finite L.
    """
    dim = K.dim
    gens = L.vectors
    lp = LPProblem(2 * dim + len(gens), nonneg=range(2 * dim, 2 * dim + len(gens)))
    for r in T_rows:
        row = np.zeros(lp.n)
        row[dim:2 * dim] = r
        lp.add_ge(row, 0.0)
    for r in K.rows:
        row = np.zeros(lp.n)
        row[:dim] = r
        row[dim:2 * dim] = -r
        lp.add_ge(row, 0.0)  # r.(v - s) >= 0
    if L.variant == "cone_section":
        for r in L.section.rows:
            row = np.zeros(lp.n)
            row[:dim] = r
            lp.add_ge(row, 0.0)
    elif L.variant == "finite":
        for i in range(dim):
            row = np.zeros(lp.n)
            row[i] = 1.0
            row[2 * dim:] = -gens[:, i]
            lp.add_eq(row, 0.0)  # v = sum gamma_k ell_k
    for r, d in zip(K.rows, depth):
        row = np.zeros(lp.n)
        row[:dim] = -r
        lp.add_ge(row, d)  # r.v <= -depth
    w = lp_feasible(lp)
    return None if w is None else w[:dim]


def tangent_sufficiency_sets(M, xbar, K: HalfspaceCone, L: DirectionSet,
                             weak: bool = True) -> dict:
    """Exact sufficient condition for polyhedral M.

    The directional tangent cone of M + K at xbar is (T + K) cap cone L
    with T the active-row cone of M.  Weak condition: it must avoid
    -int K.  Strong condition: its intersection with -K must sit in K.
    Non-polyhedral M is out of scope here (use the sampling certifier).

    Both are cones, so depths scale freely: the weak condition fails iff
    some v in it has every K row <= -1, the strong one iff for some row j
    some v has every K row <= 0 and row j <= -1.
    """
    from .sets import PolyhedralSet

    if not isinstance(M, PolyhedralSet):
        raise CertifyError("exact tangent sufficiency needs a polyhedral set")
    xbar = as_vector(xbar, M.dim)
    if not M.contains(xbar):
        raise CertifyError("reference point is not in the set")
    T_rows = M.active_rows(xbar)
    nrows = len(K.rows)
    for depth in [np.ones(nrows)] if weak else np.eye(nrows):
        w = _tangent_plus_K_witness(T_rows, K, L, depth)
        if w is not None:
            return {"verdict": "condition violated, no certificate",
                    "weak": weak, "witness": tuple(w)}
    return {"verdict": "sufficient condition met", "weak": weak,
            "witness": None}


def openness_falsifier(f: SmoothMap, xbar, L: DirectionSet, C: DirectionSet,
                       eps_schedule=None, r_schedule=None) -> dict:
    """Search for evidence that f is not directionally open at xbar.

    For a fixed eps, targets y = f(xbar) - r c (c in C) must all be
    approximately reachable from the eps-ball slice of xbar + cone L for
    f to look open.  If for some eps every r in the schedule leaves a
    target unreached on a dense sample, that (eps, targets) family is
    returned as a witness.  'inconclusive' means no such eps was found.
    """
    if C.variant != "finite":
        raise CertifyError("target direction set C must be finite")
    xbar = as_vector(xbar, f.dim_in)
    f0 = f(xbar)
    eps_schedule = list(eps_schedule if eps_schedule is not None
                        else [0.5 * 0.5 ** k for k in range(5)])
    dirs = direction_samples(L, 64)
    steps = np.linspace(0.0, 1.0, 513)
    for eps in eps_schedule:
        images = [f0]
        for ell in dirs:
            for t in steps[1:]:
                images.append(f(xbar + eps * t * ell))
        images = np.array(images)
        rs = list(r_schedule if r_schedule is not None
                  else [eps * 0.5 ** j for j in range(1, 7)])
        missed = []
        for r in rs:
            hit_all = True
            for c in C.vectors:
                y = f0 - r * c
                dist = float(np.min(np.linalg.norm(images - y, axis=1)))
                if dist > 0.25 * r:
                    missed.append({"r": r, "target": tuple(y),
                                   "min_distance": dist})
                    hit_all = False
                    break
            if hit_all:
                missed = []
                break
        if missed:
            return {"status": "witness", "eps": eps, "missed": missed}
    return {"status": "inconclusive"}
