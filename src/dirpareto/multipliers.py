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

from .certify import FEAS_TOL, CertifyError, IneqEq, Problem
from .geometry import (
    CHECK_TOL,
    TOL,
    DirectionSet,
    HalfspaceCone,
    as_vector,
    row_products,
)
from .lp import LPProblem, lp_feasible
from .maps import SmoothMap
from .sets import PolyhedralSet


@dataclass(frozen=True)
class MultiplierCert:
    ystar: tuple            # assembled functional on Y
    weights: tuple          # nonneg weights over rows of K
    lam: tuple              # nonneg, one per mu_i
    tau: tuple              # free, one per nu_j
    normalization: str      # 'ystar_e_eq_1'
    residual: tuple         # the functional that must lie in L^-


def _cone_generators(L: DirectionSet) -> np.ndarray:
    """Finite generator list for cone L (required by the theorems)."""
    if L.variant == "finite":
        return L.vectors
    raise CertifyError("cone L must come with a finite generator list")


def _stationarity_lp(p: Problem, e, jf, grads, nonneg: int, pinned=(),
                     extra: int = 0) -> LPProblem:
    """LP for y* in K+ with y*(e) = 1 and multipliers such that the residual
    y* o jf + sum mult_i grads_i is >= 0 on every generator of cone L (jf
    is the Jacobian of f at p's point).  Variables: w (one per row of K,
    >= 0; y* = K.rows^T w), one multiplier per row of ``grads`` (the first
    ``nonneg`` >= 0, the rest free, those indexed by ``pinned`` held at 0),
    then ``extra`` free ones for the caller's rows."""
    gens = _cone_generators(p.L)
    e = as_vector(e)
    if e.size != p.K.dim:
        raise CertifyError("e lives in the wrong space")
    a_rows = p.K.rows
    nw, ng = len(a_rows), len(grads)
    lp = LPProblem(nw + ng + extra, nonneg=range(nw + nonneg))
    lp.add_eq(np.eye(lp.n)[nw + np.asarray(pinned, dtype=int)], 0.0)
    lp.add_eq(np.append(a_rows @ e, np.zeros(ng + extra)), 1.0)  # y*(e) = 1
    lp.add_ge(np.hstack([row_products(a_rows, row_products(jf, gens)),
                         row_products(grads, gens), np.zeros((len(gens), extra))]), 0.0)
    return lp


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
        if g.dim_in != p.f.dim_in:
            raise CertifyError("constraint map g lives in the wrong space")
        if Q.dim != g.dim_out:
            raise CertifyError("cone Q lives in the wrong space")
        jg, q_rows = g.jacobian(xbar), Q.rows
    else:
        jg, q_rows = np.zeros((0, len(xbar))), np.zeros((0, 0))
    ns = q_rows.shape[0]
    lp = LPProblem(nw + ns, nonneg=range(nw + ns))
    # (y* o grad f + z* o grad g)(ell_k) >= 0
    lp.add_ge(np.hstack([row_products(a_rows, row_products(jf, gens)),
                         row_products(q_rows, row_products(jg, gens))]), 0.0)
    lp.add_eq(np.ones(nw + ns), 1.0)          # excludes (y*, z*) = 0
    w = lp_feasible(lp)
    if w is None:
        return None
    ystar = a_rows.T @ w[:nw]
    zstar = q_rows.T @ w[nw:]
    return tuple(ystar), tuple(zstar)


def kkt_multipliers(p: Problem, e) -> MultiplierCert | None:
    """KKT certificate: y* in K+ with y*(e) = 1, lambda >= 0 with
    complementarity, tau free, and
    -(y* o grad f + sum lambda_i grad mu_i + sum tau_j grad nu_j)
    in the negative polar of cone L (checked on its generators)."""
    if not isinstance(p.constraint, (IneqEq, type(None))):
        raise CertifyError("kkt_multipliers needs inequality/equality "
                           "constraints (or none)")
    con = p.constraint if isinstance(p.constraint, IneqEq) else IneqEq()
    xbar = p.x0
    jf = p.f.jacobian(xbar)
    nw, nmu = len(p.K.rows), len(con.mu)
    active = [abs(m(xbar)[0]) <= FEAS_TOL for m in con.mu]
    grads = np.array([g.jacobian(xbar)[0] for g in (*con.mu, *con.nu)]).reshape(-1, len(xbar))
    # lambda >= 0, tau free, and complementarity: lambda_i = 0 off the
    # active constraints
    lp = _stationarity_lp(p, e, jf, grads, nmu, pinned=np.flatnonzero(np.logical_not(active)))
    if not p.K.contains(e, strict=True):
        raise CertifyError("e must be strictly interior to K")
    v = lp_feasible(lp)
    if v is None:
        return None
    w, lam, tau = v[:nw], v[nw:nw + nmu], v[nw + nmu:]
    ystar = p.K.rows.T @ w
    residual = jf.T @ ystar
    for coef, grad in zip(v[nw:], grads):  # lam, then tau
        residual = residual + coef * grad
    return MultiplierCert(tuple(ystar), tuple(w), tuple(lam), tuple(tau),
                          "ystar_e_eq_1", tuple(-residual))


SPOT_CHECKS = 200  # midpoint pairs behind every sufficiency verdict


def sufficiency_certificate(p: Problem, cert: MultiplierCert) -> dict:
    """Global weak sufficiency, conditional on asserted convexity.

    Validates the certificate (complementarity, residual on the cone L
    generators), then spot-checks that f is K-convex, each mu_i convex and
    each nu_j affine by midpoint inequalities on SPOT_CHECKS pairs drawn
    from [-2, 2]^n with seed 0.  A failed spot-check refutes the assertion
    and the verdict; passing checks give a conditional 'globally weakly
    certified' verdict, not a proof of convexity.
    """
    if cert is None:
        raise CertifyError("invalid certificate")
    con = p.constraint if isinstance(p.constraint, IneqEq) else IneqEq()
    xbar = p.x0
    # re-validate the certificate
    for lam_i, m in zip(cert.lam, con.mu):
        if abs(lam_i * m(xbar)[0]) > FEAS_TOL:
            return {"verdict": "invalid certificate",
                    "reason": "complementarity fails"}
    gens = _cone_generators(p.L)
    if np.any(row_products(-np.array(cert.residual)[None], gens) < -CHECK_TOL):
        return {"verdict": "invalid certificate",
                "reason": "residual leaves the polar cone"}
    rng = np.random.default_rng(0)
    for _ in range(SPOT_CHECKS):
        a = 2.0 * rng.uniform(-1.0, 1.0, p.f.dim_in)
        b = 2.0 * rng.uniform(-1.0, 1.0, p.f.dim_in)
        mid = 0.5 * (a + b)
        if not p.K.contains(0.5 * (p.f(a) + p.f(b)) - p.f(mid), tol=CHECK_TOL):
            failure = "f not K-convex"
        elif any(m(mid)[0] > 0.5 * (m(a)[0] + m(b)[0]) + CHECK_TOL for m in con.mu):
            failure = "mu not convex"
        elif any(abs(0.5 * (n(a)[0] + n(b)[0]) - n(mid)[0]) > TOL for n in con.nu):
            failure = "nu not affine"
        else:
            continue
        return {"verdict": "convexity assertion refuted", "failure": (failure, tuple(mid))}
    return {"verdict":
            "globally weakly certified (conditionally on asserted convexity)",
            "spot_checks": SPOT_CHECKS}


_R_PLUS = HalfspaceCone.from_rows([[1.0]])  # the order of a scalar objective


def stationarity_penalized(f: SmoothMap, A: PolyhedralSet, xbar,
                           L: DirectionSet, vector_mode: dict | None = None):
    """Penalized stationarity: y* in K+ with y*(e) = 1 and -x* in
    N(A, xbar) + L^- for x* = grad f(xbar)^T y*.  This is the KKT LP with
    the negated active rows N of A as inequality gradients; their weights
    a are the normal weights, and the polar part -x* - N^T a is read off.
    Scalar mode is K = R+, e = 1 and no bound; vector mode ({'e': ...,
    'ell': lip, 'K': K}) adds |x*|_1 <= lip * y*(e), linear in the l1 norm,
    for lip >= 0.  Returns a witness dict or None."""
    K, e, lip = _R_PLUS, [1.0], None  # scalar mode
    if vector_mode is not None:
        K = vector_mode.get("K")
        if K is None:
            raise CertifyError("vector mode needs the ordering cone K")
        e, lip = vector_mode["e"], float(vector_mode["ell"])
        if not lip >= 0.0:
            raise CertifyError(f"vector mode bound ell must be nonnegative, got {lip!r}")
    p = Problem(f, K, L, xbar, constraint=A)
    normal_gens = -A.active_rows(p.x0)  # N(A, xbar) is generated by these
    jf = f.jacobian(p.x0)
    nw, m, dim = len(K.rows), len(normal_gens), f.dim_in
    coef = jf.T @ K.rows.T                     # dim x nw; x* = coef @ w
    lp = _stationarity_lp(p, e, jf, normal_gens, m, extra=0 if lip is None else dim)
    if lip is not None:
        # u (the extra columns) with u_k >= |x*_k| (the rows -x*_k + u_k >= 0
        # and x*_k + u_k >= 0 in turn) and sum u <= lip * y*(e) = lip
        lp.add_ge(np.hstack([np.stack([-coef, coef], axis=1).reshape(2 * dim, nw),
                             np.zeros((2 * dim, m)),
                             np.repeat(np.eye(dim), 2, axis=0)]), 0.0)
        lp.add_ge(np.append(np.zeros(nw + m), np.full(dim, -1.0)), -lip)
    v = lp_feasible(lp)
    if v is None:
        return None
    w, a = v[:nw], v[nw:nw + m]
    xstar = coef @ w
    if lip is None:
        return {"mode": "scalar", "normal_weights": tuple(a),
                "polar_part": tuple(-xstar - normal_gens.T @ a)}
    return {"mode": "vector", "ystar": tuple(K.rows.T @ w), "xstar": tuple(xstar),
            "norm": "l1", "bound": lip}
