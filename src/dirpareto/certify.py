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
    TOL,
    DirectionSet,
    GeometryError,
    HalfspaceCone,
    as_vector,
    cone_contains_many,
    direction_samples,
    in_space,
    ray_points,
    require_integers,
    row_products,
)
from .lp import LPProblem, lp_feasible
from .maps import SmoothMap, identity

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
        require_integers(self, ("levels", "rays_per_level", "seed"), CertifyError, "grid")
        if not 0 < self.radius < np.inf or self.levels < 1 or self.rays_per_level < 1:
            raise CertifyError("grid parameters must be positive and finite")

    def t_values(self) -> np.ndarray:
        return self.radius * 0.5 ** np.arange(self.levels)

    def points(self, xbar, L: DirectionSet) -> np.ndarray:
        """The grid x = xbar + t*ell, ell from L outer and t inner."""
        dirs = direction_samples(L, self.rays_per_level, self.seed)
        return ray_points(xbar, dirs, self.t_values())


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
    constraint: object = None  # None | IneqEq | set with .contains_many

    def __post_init__(self):
        x = as_vector(self.xbar, self.f.dim_in)
        object.__setattr__(self, "xbar", tuple(float(c) for c in x))
        if self.L.dim != self.f.dim_in:
            raise CertifyError("direction set lives in the wrong space")
        if self.K.dim != self.f.dim_out:
            raise CertifyError("ordering cone lives in the wrong space")
        con, n = self.constraint, self.f.dim_in
        if isinstance(con, IneqEq):
            for name, m in [*((f"mu{i}", m) for i, m in enumerate(con.mu)),
                            *((f"nu{j}", m) for j, m in enumerate(con.nu))]:
                if (m.dim_in, m.dim_out) != (n, 1):
                    raise CertifyError(f"constraint map {name} sends R^{m.dim_in} to "
                                       f"R^{m.dim_out}, expected R^{n} to R^1")
        elif con is not None and con.dim != n:
            raise CertifyError("constraint lives in the wrong space")
        ok, error = _feasible(self.constraint, x[None])
        if error is not None:
            raise error
        if not ok[0]:
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


def _feasible(constraint, X) -> tuple[np.ndarray, Exception | None]:
    """``(ok, error)``: the feasibility of the rows of X before the first
    row whose test raises, and that exception (None, with every row in
    ok, when none raises).  No constraint admits every row and a set tests
    membership; an ``IneqEq`` runs each of its maps, mu then nu, on the
    rows that the earlier ones admit."""
    if constraint is None:
        return np.ones(len(X), dtype=bool), None
    if not isinstance(constraint, IneqEq):
        return constraint.contains_many(X), None
    ok = np.ones(len(X), dtype=bool)
    stop, error = len(X), None  # rows from ``stop`` on come after one that raises
    maps = [(m, False) for m in constraint.mu] + [(n, True) for n in constraint.nu]
    for m, equality in maps:
        rows = np.flatnonzero(ok[:stop])
        V, exc = m.eval_rows(X[rows])
        if exc is not None:
            stop, error = rows[len(V)], exc
        v = V[:, 0]
        ok[rows[:len(V)]] = ~((np.abs(v) if equality else v) > FEAS_TOL)
    return ok[:stop], error


def _violations(D: np.ndarray, K: HalfspaceCone, weak: bool) -> np.ndarray:
    """Which rows d = f(x)-f(xbar) of D are minimality violations?

    One product P = K.rows @ d per row serves both sides: negation is
    exact and rounding sign-symmetric, so the products of -d are -P and
    this decides as ``K.contains_many`` on -D, with tol 0, and D does."""
    P = row_products(K.rows, D)
    if weak:
        return np.all(P < -TOL, axis=1)  # d in -int K
    return np.all(P <= 0, axis=1) & np.any(P < -TOL, axis=1)  # d in -K \ K


def _walk(p: Problem, weak: bool) -> CertReport:
    """Walk p's grid in order; the first feasible point x whose difference
    f(x) - f(xbar) violates minimality refutes, and no violation certifies.

    The whole grid is one batch.  Feasibility and f stop at the first
    point that raises and hand back its exception, which counts only if no
    earlier row is non-finite or violating, as in a walk point by point."""
    xbar = p.x0
    f0 = reference_value(p.f, xbar)
    points = p.grid.points(xbar, p.L)
    ok, constraint_error = _feasible(p.constraint, points)
    points = points[:len(ok)][ok]
    Y, error = p.f.eval_rows(points)
    D = Y - f0
    nonfinite = np.flatnonzero(~np.isfinite(D).all(axis=1))
    n = nonfinite[0] if nonfinite.size else len(D)  # rows before the first one
    hits = np.flatnonzero(_violations(D[:n], p.K, weak))
    if hits.size:
        i = int(hits[0])
        return CertReport("refuted", weak, i + 1, (tuple(points[i]), tuple(D[i])))
    if n < len(D):
        raise CertifyError(f"non-finite objective value at {points[n].tolist()}")
    for exc in (error, constraint_error):  # the objective's comes first in the grid
        if exc is not None:
            raise exc
    # with no feasible sample the certificate is vacuous and says so
    note = "" if len(points) else "no feasible grid sample"
    return CertReport("certified_on_grid", weak, len(points), note=note)


def reference_value(f: SmoothMap, xbar: np.ndarray) -> np.ndarray:
    """f(xbar), which every grid walk compares with: it must be finite.
    It is evaluated under one errstate, as the batches are, so an overflow
    is named here whatever the warnings filter."""
    with np.errstate(all="ignore"):
        f0 = f(xbar)
    if not np.isfinite(f0).all():
        raise CertifyError(f"non-finite objective value at the reference point {xbar.tolist()}")
    return f0


def certify_directional_min(p: Problem, weak: bool = False) -> CertReport:
    """Sample x = xbar + t*ell over the grid and hunt for a violation.
    ell is drawn from L itself: a finite L is sampled on its generator
    rays only, not on all of cone L."""
    return _walk(p, weak)


def certify_set_min(M, xbar, K: HalfspaceCone, L: DirectionSet,
                    weak: bool = False,
                    grid: GridSpec | None = None) -> CertReport:
    """Directional minimality of xbar for the set M: samples of
    M cap (xbar + t*ell) near xbar must not step into -K \\ K
    (strong) or -int K (weak).  This is ``certify_directional_min`` for
    f = identity under the constraint M, on the same grid walk, so a
    point outside M is an infeasible reference point."""
    return _walk(Problem(identity(M.dim), K, L, xbar, grid or GridSpec(),
                         constraint=M), weak)


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
    directional minimality; non-admissible directions (the zero direction,
    whose image is never in -int K, among them) are rejected, the first
    one in input order, as is a malformed direction that comes before any
    non-admissible one, and so is an empty list.
    """
    directions = list(directions)
    if not directions:
        raise CertifyError("no direction to check")
    xbar = p.x0
    dim = p.f.dim_in
    jac = p.f.jacobian(xbar)
    active, equality = [], []  # gradients of the active mu_i and of every nu_j
    if isinstance(p.constraint, IneqEq):
        active = [m.jacobian(xbar)[0] for m in p.constraint.mu
                  if abs(m(xbar)[0]) <= FEAS_TOL]
        equality = [n.jacobian(xbar)[0] for n in p.constraint.nu]
    U, malformed = [], None
    for u in directions:
        try:
            U.append(as_vector(u, dim))
        except (GeometryError, TypeError, ValueError) as exc:
            malformed = exc  # raised below unless an earlier direction fails
            break
    U = np.reshape(U, (-1, dim))
    zero = ~U.any(axis=1)
    outside = ~cone_contains_many(p.L, U)
    # an image or gradient product that overflows would warn about
    # directions that a loop stopping at the first failure never reaches;
    # the tests below decide on the values alone
    with np.errstate(all="ignore"):
        ascent = (row_products(np.reshape(active, (-1, dim)), U) > FEAS_TOL).any(axis=1)
        off = (np.abs(row_products(np.reshape(equality, (-1, dim)), U)) > FEAS_TOL).any(axis=1)
        images = row_products(jac, U)
    bad = np.flatnonzero(zero | outside | ascent | off)
    n = bad[0] if bad.size else len(U)  # directions before the first one
    # raises on a non-finite image, as the one-point test on that direction does
    violated = p.K.contains_many(-images[:n], strict=True)
    if bad.size:
        reason = ("is zero" if zero[n] else "is outside cone L" if outside[n]
                  else "violates an active inequality gradient" if ascent[n]
                  else "violates an equality gradient")
        raise CertifyError(f"direction {U[n].tolist()} {reason}: not admissible")
    if malformed is not None:
        raise malformed
    checks = [DirectionCheck(tuple(u), tuple(img), bool(v))
              for u, img, v in zip(U, images, violated)]
    holds = not violated.any()
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
    dim, ng = K.dim, len(L.vectors)
    lp = LPProblem(2 * dim + ng, nonneg=range(2 * dim, 2 * dim + ng))

    def rows(v, s=None):
        """Constraint rows with v-part ``v`` and s-part ``s`` (zero if None)."""
        s = np.zeros_like(v) if s is None else s
        return np.hstack([v, s, np.zeros((len(v), ng))])

    lp.add_ge(rows(np.zeros_like(T_rows), T_rows), 0.0)
    lp.add_ge(rows(K.rows, -K.rows), 0.0)  # r.(v - s) >= 0
    if L.variant == "cone_section":
        lp.add_ge(rows(L.section.rows), 0.0)
    elif L.variant == "finite":
        # v = sum gamma_k ell_k
        lp.add_eq(np.hstack([np.eye(dim), np.zeros((dim, dim)), -L.vectors.T]), 0.0)
    lp.add_ge(rows(-K.rows), depth)  # r.v <= -depth
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
    # certify_set_min's Problem checks xbar in M and K, L in the right spaces
    T_rows = M.active_rows(Problem(identity(M.dim), K, L, xbar, constraint=M).x0)
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
    A given schedule must be nonempty, and each entry positive and finite.
    """
    if C.variant != "finite":
        raise CertifyError("target direction set C must be finite")
    in_space(L, f.dim_in, "L")
    in_space(C, f.dim_out, "C")
    xbar = as_vector(xbar, f.dim_in)
    f0 = reference_value(f, xbar)
    eps_schedule = list(eps_schedule if eps_schedule is not None
                        else [0.5 * 0.5 ** k for k in range(5)])
    r_schedule = None if r_schedule is None else list(r_schedule)
    for name, schedule in (("eps_schedule", eps_schedule), ("r_schedule", r_schedule)):
        if schedule == []:
            raise CertifyError(f"{name} is empty: nothing to search")
        for v in schedule or ():
            if not 0.0 < v < np.inf:
                raise CertifyError(f"{name} entries must be positive and finite, got {v!r}")
    dirs = direction_samples(L, 64)
    steps = np.linspace(0.0, 1.0, 513)
    for eps in eps_schedule:
        xs = ray_points(xbar, dirs, eps * steps[1:])
        images = np.vstack([f0, f.eval_many(xs)])
        rs = (r_schedule if r_schedule is not None
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
