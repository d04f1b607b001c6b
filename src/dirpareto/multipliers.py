"""Multiplier certificates via LP feasibility.

Every search here is a dense two-phase simplex run over dual weights:
y* is parametrized as a nonnegative combination of the ordering cone's
H-rep rows (so y* in K+ by construction), and stationarity residuals
are pinned to the negative polar of cone L through its generators.
A `none` answer refutes minimality only under the user-asserted
hypotheses (separation/subregularity/convexity), which the report echoes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certify import CertifyError, IneqEq, Problem
from .geometry import TOL, DirectionSet, HalfspaceCone, as_vector
from .lp import LPProblem, lp_feasible
from .maps import SmoothMap
from .sets import PolyhedralSet

ACTIVE_TOL = 1e-8


@dataclass(frozen=True)
class MultiplierCert:
    ystar: tuple            # assembled functional on Y
    weights: tuple          # nonneg weights over rows of K
    lam: tuple              # nonneg, one per mu_i
    tau: tuple              # free, one per nu_j
    normalization: str      # 'ystar_e_eq_1' | 'sum_eq_1'
    residual: tuple         # the functional that must lie in L^-


def _cone_generators(L: DirectionSet) -> np.ndarray:
    """Finite generator list for cone L (required by the theorems)."""
    if L.variant == "finite":
        return L.vectors
    raise CertifyError("cone L must come with a finite generator list")


def fritz_john(p: Problem, g: SmoothMap | None = None,
               Q: HalfspaceCone | None = None):
    """Fritz John multipliers: y* in K+, z* in Q+, (y*, z*) != 0 with
    (y* o grad f + z* o grad g)(ell) >= 0 on every generator ell of
    cone L.  Returns (ystar, zstar) or None."""
    gens = _cone_generators(p.L)
    xbar = p.x0
    jf = p.f.jacobian(xbar)
    a_rows = p.K.rows                         # y* = A^T w, w >= 0
    nw = a_rows.shape[0]
    if g is not None:
        if Q is None:
            raise CertifyError("constraint map g needs its cone Q")
        jg = g.jacobian(xbar)
        q_rows = Q.rows
        ns = q_rows.shape[0]
    else:
        jg = None
        q_rows = np.zeros((0, 0))
        ns = 0
    lp = LPProblem(nw + ns, nonneg=range(nw + ns))
    # (y* o grad f + z* o grad g)(ell_k) >= 0
    for ell in gens:
        row = np.empty(nw + ns)
        row[:nw] = a_rows @ (jf @ ell)
        if ns:
            row[nw:] = q_rows @ (jg @ ell)
        lp.add_ge(row, 0.0)
    lp.add_eq(np.ones(nw + ns), 1.0)          # excludes (y*, z*) = 0
    w = lp_feasible(lp)
    if w is None:
        return None
    ystar = a_rows.T @ w[:nw]
    zstar = q_rows.T @ w[nw:] if ns else np.zeros(0)
    return tuple(ystar), tuple(zstar)


def kkt_multipliers(p: Problem, e) -> MultiplierCert | None:
    """KKT certificate: y* in K+ with y*(e) = 1, lambda >= 0 with
    complementarity, tau free, and
    -(y* o grad f + sum lambda_i grad mu_i + sum tau_j grad nu_j)
    in the negative polar of cone L (checked on its generators)."""
    gens = _cone_generators(p.L)
    e = as_vector(e, p.K.dim)
    if not p.K.contains(e, strict=True):
        raise CertifyError("e must be strictly interior to K")
    if not isinstance(p.constraint, (IneqEq, type(None))):
        raise CertifyError("kkt_multipliers needs inequality/equality "
                           "constraints (or none)")
    con = p.constraint if isinstance(p.constraint, IneqEq) else IneqEq()
    xbar = p.x0
    jf = p.f.jacobian(xbar)
    a_rows = p.K.rows
    nw = a_rows.shape[0]
    nmu, nnu = len(con.mu), len(con.nu)
    active = [abs(m(xbar)[0]) <= ACTIVE_TOL for m in con.mu]
    grads_mu = [m.jacobian(xbar)[0] for m in con.mu]
    grads_nu = [n.jacobian(xbar)[0] for n in con.nu]

    # variables: w (nw, >=0), lambda (nmu, >=0), tau (nnu, free)
    lp = LPProblem(nw + nmu + nnu, nonneg=range(nw + nmu))
    for i, act in enumerate(active):
        if not act:                            # complementarity: lambda_i = 0
            row = np.zeros(lp.n)
            row[nw + i] = 1.0
            lp.add_eq(row, 0.0)
    row = np.zeros(lp.n)
    row[:nw] = a_rows @ e
    lp.add_eq(row, 1.0)                        # y*(e) = 1
    # residual G = y* o grad f + sum lam grad mu + sum tau grad nu;
    # -G in L^-  <=>  G(ell_k) >= 0 for all generators
    for ell in gens:
        row = np.zeros(lp.n)
        row[:nw] = a_rows @ (jf @ ell)
        for i, gmu in enumerate(grads_mu):
            row[nw + i] = float(gmu @ ell)
        for j, gnu in enumerate(grads_nu):
            row[nw + nmu + j] = float(gnu @ ell)
        lp.add_ge(row, 0.0)
    v = lp_feasible(lp)
    if v is None:
        return None
    w, lam, tau = v[:nw], v[nw:nw + nmu], v[nw + nmu:]
    ystar = a_rows.T @ w
    residual = jf.T @ ystar
    for i, gmu in enumerate(grads_mu):
        residual = residual + lam[i] * gmu
    for j, gnu in enumerate(grads_nu):
        residual = residual + tau[j] * gnu
    return MultiplierCert(tuple(ystar), tuple(w), tuple(lam), tuple(tau),
                          "ystar_e_eq_1", tuple(-residual))


def _midpoint_pairs(dim: int, count: int, seed: int, scale: float = 2.0):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield (scale * rng.uniform(-1.0, 1.0, dim),
               scale * rng.uniform(-1.0, 1.0, dim))


def sufficiency_certificate(p: Problem, cert: MultiplierCert,
                            f_K_convex: bool = True, mu_convex: bool = True,
                            nu_affine: bool = True, spot_checks: int = 200,
                            seed: int = 0) -> dict:
    """Global weak sufficiency, conditional on asserted convexity.

    Validates the certificate (complementarity, residual on the cone L
    generators), then spot-checks the convexity assertions by midpoint
    inequalities on sampled pairs.  A failed spot-check refutes the
    assertion and the verdict; passing checks give a conditional
    'globally weakly certified' verdict, not a proof of convexity.
    """
    if cert is None:
        raise CertifyError("invalid certificate")
    con = p.constraint if isinstance(p.constraint, IneqEq) else IneqEq()
    xbar = p.x0
    # re-validate the certificate
    for lam_i, m in zip(cert.lam, con.mu):
        if abs(lam_i * m(xbar)[0]) > ACTIVE_TOL:
            return {"verdict": "invalid certificate",
                    "reason": "complementarity fails"}
    gens = _cone_generators(p.L)
    minus_res = -np.array(cert.residual)
    for ell in gens:
        if float(minus_res @ ell) < -1e-7:
            return {"verdict": "invalid certificate",
                    "reason": "residual leaves the polar cone"}
    dim = p.f.dim_in
    failures = []
    for a, b in _midpoint_pairs(dim, spot_checks, seed):
        mid = 0.5 * (a + b)
        if f_K_convex:
            gap = 0.5 * (p.f(a) + p.f(b)) - p.f(mid)
            if not p.K.contains(gap, tol=1e-7):
                failures.append(("f not K-convex", tuple(mid)))
                break
        if mu_convex:
            for m in con.mu:
                if m(mid)[0] > 0.5 * (m(a)[0] + m(b)[0]) + 1e-7:
                    failures.append(("mu not convex", tuple(mid)))
                    break
        if nu_affine:
            for n in con.nu:
                if abs(0.5 * (n(a)[0] + n(b)[0]) - n(mid)[0]) > TOL:
                    failures.append(("nu not affine", tuple(mid)))
                    break
        if failures:
            break
    if failures:
        return {"verdict": "convexity assertion refuted",
                "failure": failures[0]}
    return {"verdict":
            "globally weakly certified (conditionally on asserted convexity)",
            "spot_checks": spot_checks}


def _normal_cone_rows(A: PolyhedralSet, xbar) -> np.ndarray:
    """Generators of N(A, xbar) for polyhedral A: negatives of active rows."""
    return -A.active_rows(xbar)


def _normal_plus_polar_lp(target, normal_gens, gens_L, lead=None,
                          extra: int = 0) -> LPProblem:
    """LP pinning lead @ w + n + q = target with n in N(A, xbar) and q in
    the negative polar of cone L.

    Variables: w (lead's columns, >= 0; absent without ``lead``), the N
    weights (>= 0, n = normal_gens^T weights), q (q . ell <= 0 on every
    generator ell), then ``extra`` free variables for the caller's rows.
    """
    dim = len(target)
    lead = np.zeros((dim, 0)) if lead is None else lead
    nw = lead.shape[1]
    m = normal_gens.shape[0]
    lp = LPProblem(nw + m + dim + extra, nonneg=range(nw + m))
    for ell in gens_L:
        row = np.zeros(lp.n)
        row[nw + m:nw + m + dim] = -ell
        lp.add_ge(row, 0.0)
    for k in range(dim):
        row = np.zeros(lp.n)
        row[:nw] = lead[k]
        row[nw:nw + m] = normal_gens[:, k]
        row[nw + m + k] = 1.0
        lp.add_eq(row, float(target[k]))
    return lp


def stationarity_penalized(f: SmoothMap, A: PolyhedralSet, xbar,
                           L: DirectionSet, vector_mode: dict | None = None):
    """Penalized stationarity via LP decomposition.

    Scalar mode: -grad f(xbar) = n + q with n in N(A, xbar) and q in the
    negative polar of cone L.  Vector mode ({'e': ..., 'ell': lip}):
    y* in K+ with y*(e) = 1, x* = grad f(xbar)^T y*, -x* in N + L^-,
    and |x*|_1 <= lip * y*(e) (the l1 norm keeps the bound linear).
    Returns a witness dict or None.
    """
    xbar = as_vector(xbar, f.dim_in)
    if not A.contains(xbar):
        raise CertifyError("reference point is not in A")
    gens_L = _cone_generators(L)
    normal_gens = _normal_cone_rows(A, xbar)
    m = normal_gens.shape[0]
    dim = f.dim_in

    if vector_mode is None:
        if f.dim_out != 1:
            raise CertifyError("scalar mode needs a scalar objective")
        lp = _normal_plus_polar_lp(-f.jacobian(xbar)[0], normal_gens, gens_L)
        w = lp_feasible(lp)
        if w is None:
            return None
        return {"mode": "scalar", "normal_weights": tuple(w[:m]),
                "polar_part": tuple(w[m:m + dim])}

    e = as_vector(vector_mode["e"])
    lip = float(vector_mode["ell"])
    K = vector_mode.get("K")
    if K is None:
        raise CertifyError("vector mode needs the ordering cone K")
    a_rows = K.rows
    nw = a_rows.shape[0]
    jf = f.jacobian(xbar)
    # variables: w (nw), normal weights (m), q (dim), u (dim, u >= |x*|);
    # x* + n + q = 0 where x* = jf^T A^T w
    coef = (jf.T @ a_rows.T)                   # dim x nw; x* = coef @ w
    lp = _normal_plus_polar_lp(np.zeros(dim), normal_gens, gens_L,
                               lead=coef, extra=dim)
    row = np.zeros(lp.n)
    row[:nw] = a_rows @ e
    lp.add_eq(row, 1.0)
    # u_k >= |x*_k| and sum u <= lip * y*(e) = lip
    for k in range(dim):
        row = np.zeros(lp.n)
        row[:nw] = -coef[k]
        row[nw + m + dim + k] = 1.0
        lp.add_ge(row, 0.0)
        row = np.zeros(lp.n)
        row[:nw] = coef[k]
        row[nw + m + dim + k] = 1.0
        lp.add_ge(row, 0.0)
    row = np.zeros(lp.n)
    row[nw + m + dim:] = -1.0
    lp.add_ge(row, -lip)
    w = lp_feasible(lp)
    if w is None:
        return None
    ystar = a_rows.T @ w[:nw]
    xstar = coef @ w[:nw]
    return {"mode": "vector", "ystar": tuple(ystar), "xstar": tuple(xstar),
            "norm": "l1", "bound": lip}
