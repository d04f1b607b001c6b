"""Independent answer checks, shared by the workloads.

Nothing here calls dirpareto: LP verdicts come from scipy's HiGHS, grid
certificates from a numpy re-walk of the same grid in the same ray-major
order, and set membership from a vectorised even-odd test.  A check
returns None when the answer holds, else a one-line reason.
"""

from __future__ import annotations

import numpy as np

TOL = 1e-9        # the program's default membership tolerance
FEAS_TOL = 1e-8   # the program's constraint feasibility tolerance


def lazy(fn):
    """An oracle answer computed on first use: after the timed passes, never
    during set-up, so that set-up time is the program's alone."""
    box = []

    def get():
        if not box:
            box.append(fn())
        return box[0]
    return get


# ---------------------------------------------------------------------------
# LP oracle

def highs(n, ge=(), eq=(), objective=None, nonneg=()):
    """Solve min objective.v s.t. rows in ``ge`` (a.v >= b) and ``eq``.

    Returns (status, x) with status 'feasible', 'infeasible' or
    'unbounded'; variables listed in ``nonneg`` are bounded below by 0.
    """
    def stack(rows):
        if not rows:
            return None, None
        return (np.array([r for r, _ in rows], dtype=float),
                np.array([b for _, b in rows], dtype=float))

    # imported here, after the timed passes, so that the oracle's library
    # stays out of the measured peak memory
    from scipy.optimize import linprog

    a_ge, b_ge = stack(list(ge))
    a_eq, b_eq = stack(list(eq))
    c = np.zeros(n) if objective is None else np.asarray(objective, float)
    bounds = [(0.0, None) if i in set(nonneg) else (None, None) for i in range(n)]
    res = linprog(c, A_ub=None if a_ge is None else -a_ge,
                  b_ub=None if b_ge is None else -b_ge,
                  A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")
    if res.status == 0:
        return "feasible", res.x
    if res.status == 2:
        return "infeasible", None
    if res.status == 3:
        return "unbounded", None
    raise RuntimeError(f"HiGHS failed: {res.message}")


def in_generated_cone(gens, v) -> bool:
    """v = sum w_j g_j with w >= 0 (HiGHS)."""
    gens = np.asarray(gens, float)
    m = gens.shape[0]
    eq = [(gens[:, k], float(v[k])) for k in range(gens.shape[1])]
    return highs(m, eq=eq, nonneg=range(m))[0] == "feasible"


def rows_hold(rows, x, rhs=None, rel=1e-7) -> bool:
    """a_i.x >= b_i up to a tolerance relative to the row's magnitude."""
    rows = np.asarray(rows, float)
    if rows.size == 0:
        return True
    rhs = np.zeros(rows.shape[0]) if rhs is None else np.asarray(rhs, float)
    lhs = rows @ x
    scale = 1.0 + np.abs(rows) @ np.abs(x) + np.abs(rhs)
    return bool(np.all(lhs - rhs >= -rel * scale))


def close(a, b, rel=1e-7) -> bool:
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    return (b.ndim == 0 or a.shape == b.shape) and bool(
        np.all(np.abs(a - b) <= rel * (1.0 + np.abs(a) + np.abs(b))))


# ---------------------------------------------------------------------------
# Grid walks

def lattice(dim: int, count: int) -> np.ndarray:
    """The documented deterministic sphere lattice (dims 2 and 3)."""
    if dim == 2:
        golden = (1.0 + 5.0 ** 0.5) / 2.0
        ang = 2.0 * np.pi * ((np.arange(count) * (1.0 / golden)) % 1.0)
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    if dim == 3:
        i = np.arange(count) + 0.5
        phi = np.arccos(1.0 - 2.0 * i / count)
        theta = np.pi * (1.0 + 5.0 ** 0.5) * i
        return np.stack([np.cos(theta) * np.sin(phi),
                         np.sin(theta) * np.sin(phi), np.cos(phi)], axis=1)
    raise ValueError("lattice check covers dims 2 and 3")


def section_directions(rows, count: int) -> np.ndarray:
    """Directions a cone-section L yields: in-cone lattice points, topped up."""
    rows = np.asarray(rows, float)
    batch = max(count * 4, 64)
    found = np.zeros((0, rows.shape[1]))
    for factor in (1, 4, 16, 64):
        pts = lattice(rows.shape[1], batch * factor)
        found = pts[np.all(pts @ rows.T >= -TOL, axis=1)]
        if len(found) >= count:
            break
    return found[:count]


def violates(D, k_rows, weak: bool) -> np.ndarray:
    """Rows of D (f(x) - f(xbar)) in -int K (weak) or in -K minus K."""
    P = D @ np.asarray(k_rows, float).T
    if weak:
        return np.all(-P > TOL, axis=1)
    return np.all(-P >= -TOL, axis=1) & ~np.all(P >= -TOL, axis=1)


def grid_points(xbar, dirs, ts) -> np.ndarray:
    """x = xbar + t * ell, ray-major, with the program's operation order."""
    xbar = np.asarray(xbar, float)
    return (xbar[None, None, :] + ts[None, :, None] * dirs[:, None, :]).reshape(
        -1, xbar.size)


def walk(xbar, dirs, ts, diff, k_rows, weak, feasible=None):
    """Re-walk a certification grid.

    diff(X) gives f(X) - f(xbar) row-wise; feasible(X) the sample mask.
    Returns (verdict, samples, x, d) with x, d the first violation.
    """
    X = grid_points(xbar, dirs, ts)
    if feasible is not None:
        X = X[feasible(X)]
    if X.shape[0] == 0:
        return "certified_on_grid", 0, None, None
    D = diff(X)
    bad = np.flatnonzero(violates(D, k_rows, weak))
    if bad.size:
        i = int(bad[0])
        return "refuted", i + 1, X[i], D[i]
    return "certified_on_grid", X.shape[0], None, None


def check_cert_report(rep: dict, expected) -> str | None:
    """Compare a CertReport dict against a ``walk`` result."""
    verdict, samples, x, d = expected
    if rep["verdict"] != verdict:
        return f"verdict {rep['verdict']} but re-walk gives {verdict}"
    if rep["samples"] != samples:
        return f"samples {rep['samples']} but re-walk gives {samples}"
    if verdict == "refuted":
        ce = rep.get("counterexample")
        if ce is None or not close(ce["x"], x, 1e-12) or not close(ce["diff"], d, 1e-9):
            return "counterexample differs from the re-walk's first violation"
    return None


# ---------------------------------------------------------------------------
# Planar membership

def polygon_contains(V, P, edge_tol: float) -> np.ndarray:
    """Even-odd membership of the points P in the polygon V (closed up to
    ``edge_tol`` distance from the boundary)."""
    V = np.asarray(V, float)
    W = np.roll(V, -1, axis=0)
    px = P[:, 0][:, None]
    py = P[:, 1][:, None]
    vy, wy = V[:, 1][None, :], W[:, 1][None, :]
    vx, wx = V[:, 0][None, :], W[:, 0][None, :]
    straddle = (vy > py) != (wy > py)
    with np.errstate(divide="ignore", invalid="ignore"):
        xc = vx + (py - vy) / (wy - vy) * (wx - vx)
    inside = (np.count_nonzero(straddle & (px < xc), axis=1) % 2) == 1
    if edge_tol == 0.0:
        return inside
    d = W - V
    lens2 = np.einsum("ij,ij->i", d, d)
    lens2[lens2 == 0.0] = 1.0
    near = np.zeros(len(P), dtype=bool)
    for k in np.flatnonzero(~inside):
        x = P[k]
        t = np.clip(np.einsum("ij,ij->i", x - V, d) / lens2, 0.0, 1.0)
        proj = V + t[:, None] * d
        dist2 = np.einsum("ij,ij->i", x - proj, x - proj)
        near[k] = np.min(dist2) <= edge_tol ** 2
    return inside | near


def planar_cone_contains(gens, V) -> np.ndarray:
    """Membership of the rows of V in the cone generated by 2-D ``gens``,
    decided from generator angles (whole plane, or one sector < pi)."""
    gens = np.asarray(gens, float)
    ang = np.sort(np.mod(np.arctan2(gens[:, 1], gens[:, 0]), 2 * np.pi))
    gaps = np.diff(np.append(ang, ang[0] + 2 * np.pi))
    k = int(np.argmax(gaps))
    norms = np.linalg.norm(V, axis=1)
    if gaps[k] < np.pi:
        return np.ones(len(V), dtype=bool)
    start = ang[(k + 1) % len(ang)]
    width = 2 * np.pi - gaps[k]
    phi = np.mod(np.arctan2(V[:, 1], V[:, 0]) - start, 2 * np.pi)
    phi = np.where(phi > 2 * np.pi - 1e-9, phi - 2 * np.pi, phi)
    return (norms <= TOL) | ((phi >= -1e-9) & (phi <= width + 1e-9))


# ---------------------------------------------------------------------------
# Multiplier systems, posed directly from their definitions

def kkt_exists(rows, J, e, L, g_mu, active, g_nu) -> bool:
    """w >= 0 with (A^T w).e = 1, lam >= 0 (0 when inactive), tau free, and
    (J^T A^T w + g_mu^T lam + g_nu^T tau).ell >= 0 on every generator."""
    rows, g_mu, g_nu = (np.asarray(a, float) for a in (rows, g_mu, g_nu))
    nw, nmu, nnu = len(rows), len(g_mu), len(g_nu)
    n = J.shape[1]
    g_mu, g_nu = g_mu.reshape(nmu, n), g_nu.reshape(nnu, n)
    nv = nw + nmu + nnu
    ge = [(np.concatenate([rows @ (J @ ell), g_mu @ ell, g_nu @ ell]), 0.0)
          for ell in L]
    eq = [(np.concatenate([rows @ e, np.zeros(nmu + nnu)]), 1.0)]
    for i in np.flatnonzero(~np.asarray(active, bool)):
        r = np.zeros(nv)
        r[nw + i] = 1.0
        eq.append((r, 0.0))
    return highs(nv, ge, eq, nonneg=range(nw + nmu))[0] == "feasible"


def fritz_john_exists(rows, Jf, L, q_rows=None, Jg=None) -> bool:
    """Nonzero (y*, z*) in K+ x Q+ with (y* Jf + z* Jg).ell >= 0 on L."""
    parts = [lambda ell: rows @ (Jf @ ell)]
    if q_rows is not None and len(q_rows):
        parts.append(lambda ell: q_rows @ (Jg @ ell))
    nv = len(rows) + (len(q_rows) if len(parts) > 1 else 0)
    ge = [(np.concatenate([p(ell) for p in parts]), 0.0) for ell in L]
    return highs(nv, ge, [(np.ones(nv), 1.0)], nonneg=range(nv))[0] == "feasible"


def decomposes(N, target, L) -> bool:
    """target = N^T a + q with a >= 0 and q.ell <= 0 on every generator."""
    N = np.asarray(N, float).reshape(-1, len(target))
    k, n = N.shape
    eq = [(np.concatenate([N[:, j], np.eye(n)[j]]), float(target[j])) for j in range(n)]
    ge = [(np.concatenate([np.zeros(k), -ell]), 0.0) for ell in L]
    return highs(k + n, ge, eq, nonneg=range(k))[0] == "feasible"
