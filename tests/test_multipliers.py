"""Multiplier certificates: Fritz John / KKT existence, the 1-D
reduction law, convex sufficiency spot-checks, and penalized
stationarity decompositions."""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dirpareto.multipliers as multipliers
from dirpareto.certify import CertifyError, IneqEq, Problem
from dirpareto.geometry import DirectionSet, HalfspaceCone
from dirpareto.lp import LPProblem, lp_feasible
from dirpareto.maps import SmoothMap, builtin, from_expressions, identity
from dirpareto.multipliers import (
    MultiplierCert,
    fritz_john,
    kkt_multipliers,
    stationarity_penalized,
    sufficiency_certificate,
)
from dirpareto.sets import PolyhedralSet

from cones import K_WEDGE, L_BOTH, L_DOWN, L_MINUS, L_PLUS, L_X_AXIS, R2_PLUS, R_PLUS
from oracles import rational_feasible


def _affine_1d(slope, curv=0.0):
    return SmoothMap(
        "f", 1, 1,
        lambda x, a=slope, b=curv: np.array([a * x[0] + b * x[0] ** 2]),
        lambda x, a=slope, b=curv: np.array([[a + 2 * b * x[0]]]),
    )


IDENT = _affine_1d(1.0)
MU_NEG_X = SmoothMap("mu", 1, 1, lambda x: -x, lambda x: np.array([[-1.0]]))


# ---------------------------------------------------------------------------
# Fritz John

def test_fritz_john_identity_right():
    out = fritz_john(Problem(IDENT, R_PLUS, L_PLUS, (0.0,)))
    assert out is not None
    ystar, zstar = out
    assert ystar[0] >= 0 and len(zstar) == 0


def test_fritz_john_identity_left_none():
    assert fritz_john(Problem(IDENT, R_PLUS, L_MINUS, (0.0,))) is None


def test_fritz_john_saddle_zero_gradient():
    p = Problem(builtin("saddle_x2_y2"), R_PLUS, L_X_AXIS, (0.0, 0.0))
    out = fritz_john(p)
    assert out is not None
    assert abs(sum(out[0]) - 1.0) <= 1e-9  # normalization sum = 1


def test_fritz_john_with_constraint_map():
    # g(x) = -x with Q = R_+ encodes x <= 0; at xbar = 0 moving left is
    # blocked, so multipliers exist even though f decreases leftward
    g = SmoothMap("g", 1, 1, lambda x: -x, lambda x: np.array([[-1.0]]))
    p = Problem(IDENT, R_PLUS, L_MINUS, (0.0,))
    out = fritz_john(p, g=g, Q=R_PLUS)
    assert out is not None
    ystar, zstar = out
    # stationarity: (y - z) * (-1) >= 0 requires z >= y
    assert zstar[0] >= ystar[0] - 1e-9


@pytest.mark.parametrize("g, Q, message", [
    (builtin("identity_1"), R_PLUS, "constraint map g"),
    (SmoothMap("g", 2, 1, lambda x: x[:1], lambda x: np.array([[1.0, 0.0]])),
     HalfspaceCone.from_rows(np.eye(3)), "cone Q"),
], ids=["g-1d-on-2d-f", "Q-3d-on-scalar-g"])
def test_fritz_john_rejects_mismatched_g_and_Q(g, Q, message):
    p = Problem(builtin("saddle_x2_y2"), R_PLUS, L_X_AXIS, (0.0, 0.0))
    with pytest.raises(CertifyError, match=f"^{message} lives in the wrong space$"):
        fritz_john(p, g=g, Q=Q)


def test_fritz_john_needs_finite_L():
    p = Problem(IDENT, R_PLUS,
                DirectionSet.full_sphere(1), (0.0,))
    with pytest.raises(CertifyError):
        fritz_john(p)


def test_fritz_john_names_a_non_finite_L_before_a_malformed_g():
    p = Problem(builtin("saddle_x2_y2"), R_PLUS,
                DirectionSet.cone_section(R2_PLUS), (0.0, 0.0))
    with pytest.raises(CertifyError, match="^cone L must come with a finite generator list$"):
        fritz_john(p, g=builtin("identity_1"), Q=R_PLUS)


@pytest.mark.parametrize("with_g", [False, True])
def test_fritz_john_solves_the_one_stationarity_lp(monkeypatch, with_g):
    """Fritz John's LP is the shared builder's, normalised by weights and
    multipliers summing to 1, and it is the LP that is solved."""
    built, solved, stationarity_lp = [], [], multipliers._stationarity_lp

    def build(*args, **kwargs):
        built.append(stationarity_lp(*args, **kwargs))
        return built[-1]

    def feasible(lp):
        solved.append(lp)
        return lp_feasible(lp)
    monkeypatch.setattr(multipliers, "_stationarity_lp", build)
    monkeypatch.setattr(multipliers, "lp_feasible", feasible)
    g = SmoothMap("g", 1, 1, lambda x: -x, lambda x: np.array([[-1.0]]))
    p = Problem(IDENT, R_PLUS, L_MINUS, (0.0,))
    out = fritz_john(p, g=g, Q=R_PLUS) if with_g else fritz_john(p)
    assert (out is not None) == with_g
    assert len(built) == 1 and solved == built
    (norm, rhs), = built[0].a_eq
    assert rhs == 1.0 and norm.tolist() == [1.0] * (1 + with_g)


def test_fritz_john_refuted_vector_example_none():
    p = Problem(builtin("vector_2x_x"), K_WEDGE, L_BOTH, (0.0,))
    assert fritz_john(p) is None


def test_fritz_john_certified_vector_example_exists():
    p = Problem(builtin("vector_2x_x"), K_WEDGE, L_PLUS, (0.0,))
    assert fritz_john(p) is not None


def test_multipliers_at_stationary_point_with_finite_difference_gradient():
    # the finite-difference gradient of x0^3 - x1^3 at 0 is about
    # (1e-12, -1e-12): round-off, not a descent direction along e2
    f = from_expressions(["x0^3 - x1^3"], 2)
    L = DirectionSet.finite([(1.0, 0.0), (0.0, 1.0)])
    p = Problem(f, R_PLUS, L, (0.0, 0.0))
    assert fritz_john(p) is not None
    assert kkt_multipliers(p, e=[1.0]) is not None


# ---------------------------------------------------------------------------
# KKT

def test_kkt_hand_example_lambda_one():
    # f(x) = x, mu_1(x) = -x active at 0, cone L = R so the residual
    # must vanish: 1 - lambda_1 = 0
    p = Problem(IDENT, R_PLUS, L_BOTH, (0.0,),
                constraint=IneqEq(mu=(MU_NEG_X,)))
    cert = kkt_multipliers(p, e=[1.0])
    assert cert is not None
    assert abs(cert.lam[0] - 1.0) <= 1e-9
    assert abs(cert.ystar[0] - 1.0) <= 1e-9
    assert cert.normalization == "ystar_e_eq_1"


def test_kkt_unconstrained_right():
    p = Problem(IDENT, R_PLUS, L_PLUS, (0.0,))
    cert = kkt_multipliers(p, e=[1.0])
    assert cert is not None
    assert abs(cert.ystar[0] - 1.0) <= 1e-9


def test_kkt_unconstrained_left_none():
    p = Problem(IDENT, R_PLUS, L_MINUS, (0.0,))
    assert kkt_multipliers(p, e=[1.0]) is None


def test_kkt_two_constraints_inactive_lambda_zero():
    f = SmoothMap("sum", 2, 1, lambda x: np.array([x[0] + x[1]]),
                  lambda x: np.array([[1.0, 1.0]]))
    mu1 = SmoothMap("mu1", 2, 1, lambda x: np.array([-x[0]]),
                    lambda x: np.array([[-1.0, 0.0]]))
    mu2 = SmoothMap("mu2", 2, 1, lambda x: np.array([-x[1] - 1.0]),
                    lambda x: np.array([[0.0, -1.0]]))
    L = DirectionSet.finite([[1.0, 0.0], [0.0, 1.0]])
    p = Problem(f, R_PLUS, L, (0.0, 0.0), constraint=IneqEq(mu=(mu1, mu2)))
    cert = kkt_multipliers(p, e=[1.0])
    assert cert is not None
    assert abs(cert.lam[1]) <= 1e-12  # mu2(0) = -1 < 0: inactive


def test_kkt_rejects_boundary_e():
    p = Problem(builtin("vector_2x_x"), K_WEDGE, L_PLUS, (0.0,))
    with pytest.raises(CertifyError):
        kkt_multipliers(p, e=[1.0, 0.0])  # on the boundary of the wedge


def test_kkt_scaling_of_normalization():
    # doubling e halves y* (y*(e) = 1 pins the scale)
    p = Problem(IDENT, R_PLUS, L_PLUS, (0.0,))
    c1 = kkt_multipliers(p, e=[1.0])
    c2 = kkt_multipliers(p, e=[2.0])
    assert c1 is not None and c2 is not None
    assert abs(c2.ystar[0] - 0.5 * c1.ystar[0]) <= 1e-9


def test_kkt_one_dimensional_reduction_100():
    # unconstrained scalar f, L = {+1}: multipliers exist iff f'(xbar) >= 0
    rng = np.random.default_rng(5)
    for _ in range(100):
        a, b = rng.uniform(-2, 2, 2)
        xbar = rng.uniform(-1, 1)
        f = _affine_1d(a, b)
        slope = a + 2 * b * xbar
        p = Problem(f, R_PLUS, L_PLUS, (xbar,))
        cert = kkt_multipliers(p, e=[1.0])
        if slope >= -1e-9:
            assert cert is not None, (a, b, xbar)
        else:
            assert cert is None, (a, b, xbar)


# ---------------------------------------------------------------------------
# convex sufficiency

def test_sufficiency_hand_example_certified():
    p = Problem(IDENT, R_PLUS, L_BOTH, (0.0,),
                constraint=IneqEq(mu=(MU_NEG_X,)))
    cert = kkt_multipliers(p, e=[1.0])
    out = sufficiency_certificate(p, cert)
    assert out == {"verdict": "globally weakly certified "
                              "(conditionally on asserted convexity)",
                   "spot_checks": 200}


def test_sufficiency_refutes_false_convexity_claim():
    f = SmoothMap("negsq", 1, 1, lambda x: np.array([-x[0] ** 2]),
                  lambda x: np.array([[-2 * x[0]]]))
    p = Problem(f, R_PLUS, L_PLUS, (0.0,))
    cert = kkt_multipliers(p, e=[1.0])
    assert cert is not None  # f'(0) = 0
    out = sufficiency_certificate(p, cert)
    assert out["verdict"] == "convexity assertion refuted"
    assert out["failure"][0] == "f not K-convex"


def test_sufficiency_affine_nu_passes():
    f = SmoothMap("sum", 2, 1, lambda x: np.array([x[0] + x[1]]),
                  lambda x: np.array([[1.0, 1.0]]))
    nu = SmoothMap("nu", 2, 1, lambda x: np.array([x[0] - x[1]]),
                   lambda x: np.array([[1.0, -1.0]]))
    s = 1.0 / np.sqrt(2.0)
    L = DirectionSet.finite([[s, s]])
    p = Problem(f, R_PLUS, L, (0.0, 0.0), constraint=IneqEq(nu=(nu,)))
    cert = kkt_multipliers(p, e=[1.0])
    assert cert is not None
    out = sufficiency_certificate(p, cert)
    assert out["verdict"].startswith("globally weakly certified")


def _scalar_map(name, fn):
    return SmoothMap(name, 1, 1, lambda x: np.array([fn(x[0])]),
                     lambda x: np.array([[np.nan]]))


def _cert(lam=(), tau=(), residual=(0.0,)):
    return MultiplierCert(ystar=(1.0,), weights=(1.0,), lam=lam, tau=tau,
                          normalization="ystar_e_eq_1", residual=residual)


@pytest.mark.parametrize("xbar, mu, nu, cert, verdict, reason", [
    ((0.0,), (_scalar_map("mu", lambda t: -t * t),), (), _cert(lam=(0.0,)),
     "convexity assertion refuted", "mu not convex"),
    ((0.0,), (), (_scalar_map("nu", lambda t: t * t),), _cert(tau=(0.0,)),
     "convexity assertion refuted", "nu not affine"),
    ((0.5,), (MU_NEG_X,), (), _cert(lam=(1.0,)),
     "invalid certificate", "complementarity fails"),
    ((0.0,), (), (), _cert(residual=(1.0,)),
     "invalid certificate", "residual leaves the polar cone"),
], ids=["mu-not-convex", "nu-not-affine", "complementarity", "residual-outside-polar"])
def test_sufficiency_refutes_each_failed_check(xbar, mu, nu, cert, verdict, reason):
    p = Problem(IDENT, R_PLUS, L_PLUS, xbar, constraint=IneqEq(mu=mu, nu=nu))
    out = sufficiency_certificate(p, cert)
    assert out["verdict"] == verdict
    if verdict == "invalid certificate":
        assert out == {"verdict": verdict, "reason": reason}
    else:
        assert out["failure"][0] == reason and len(out["failure"][1]) == 1


def test_sufficiency_stops_at_the_first_failed_spot_check():
    """A mu failure is the answer; the nu maps are not evaluated on its pair."""
    def raises(t):  # zero at xbar, where the problem checks feasibility
        if t != 0.0:
            raise AssertionError("nu evaluated after a mu failure")
        return 0.0

    p = Problem(IDENT, R_PLUS, L_PLUS, (0.0,),
                constraint=IneqEq(mu=(_scalar_map("mu", lambda t: -t * t),),
                                  nu=(_scalar_map("nu", raises),)))
    out = sufficiency_certificate(p, _cert(lam=(0.0,), tau=(0.0,)))
    assert out["failure"][0] == "mu not convex"


def test_sufficiency_takes_no_options():
    """Every hypothesis is always spot-checked, on the same 200 pairs."""
    assert list(inspect.signature(sufficiency_certificate).parameters) == ["p", "cert"]


def test_sufficiency_rejects_missing_certificate():
    p = Problem(IDENT, R_PLUS, L_PLUS, (0.0,))
    with pytest.raises(CertifyError):
        sufficiency_certificate(p, None)


# ---------------------------------------------------------------------------
# penalized stationarity

def test_penalized_scalar_halfline():
    A = PolyhedralSet.from_rows([[1.0]], [0.0])  # [0, inf)
    out = stationarity_penalized(IDENT, A, [0.0], L_BOTH)
    assert out is not None and out["mode"] == "scalar"


def test_penalized_scalar_free_right():
    A = PolyhedralSet.from_rows([[0.0]], [0.0])  # all of R (0.x >= 0)
    out = stationarity_penalized(IDENT, A, [0.0], L_PLUS)
    assert out is not None
    assert out["polar_part"][0] <= 1e-9  # -f' = -1 lands in L^-


def test_penalized_scalar_free_left_fails():
    A = PolyhedralSet.from_rows([[0.0]], [0.0])
    assert stationarity_penalized(IDENT, A, [0.0], L_MINUS) is None


def test_penalized_vector_mode():
    f = builtin("vector_2x_x")
    A = PolyhedralSet.from_rows([[1.0]], [0.0])
    out = stationarity_penalized(f, A, [0.0], L_PLUS,
                                 vector_mode={"e": [2.0, 1.0], "ell": 10.0,
                                              "K": K_WEDGE})
    assert out is not None


def test_penalized_vector_mode_tight_lipschitz_fails():
    # |x*|_1 <= ell * y*(e) with ell too small leaves no feasible y*
    f = builtin("vector_2x_x")
    A = PolyhedralSet.from_rows([[0.0]], [0.0])  # all of R: N = {0}
    out = stationarity_penalized(f, A, [0.0], L_MINUS,
                                 vector_mode={"e": [2.0, 1.0], "ell": 1e-6,
                                              "K": K_WEDGE})
    assert out is None


def _orthant_vector_mode(ell):
    """Vector mode with bound ``ell`` for f = (x0 + 2 x1, x1 - x0) on the
    orthant at 0, the problem of the CLI golden penalized-vector-mode."""
    A = PolyhedralSet.from_rows([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
    return stationarity_penalized(from_expressions(["x0 + 2*x1", "x1 - x0"], 2), A, [0.0, 0.0],
                                  DirectionSet.finite([[1.0, 0.0], [0.0, 1.0]]),
                                  vector_mode={"e": [1.0, 1.0], "ell": ell, "K": R2_PLUS})


@pytest.mark.parametrize("ell", [-1.0, -1e-12, float("nan")])
def test_penalized_vector_mode_rejects_a_negative_bound(ell):
    """|x*|_1 <= ell * y*(e) with ell < 0 is infeasible for a malformed
    reason, not a refutation."""
    with pytest.raises(CertifyError, match="^vector mode bound ell must be nonnegative, got "):
        _orthant_vector_mode(ell)


def test_penalized_vector_mode_rejects_e_on_the_boundary_of_K():
    """e = (1, 0) on the boundary of R2+ would exclude y* = (0, 1)."""
    f = from_expressions(["x0", "x1^2"], 2)
    A = PolyhedralSet.from_rows([[1.0, 0.0]], [-5.0])
    L = DirectionSet.finite([[1.0, 0.0], [-1.0, 0.0]])
    vm = {"e": [1.0, 0.0], "ell": 10.0, "K": R2_PLUS}
    with pytest.raises(CertifyError, match="^e must be strictly interior to K$"):
        stationarity_penalized(f, A, [0.0, 0.0], L, vm)
    out = stationarity_penalized(f, A, [0.0, 0.0], L, dict(vm, e=[1.0, 1.0]))
    assert out is not None and np.allclose(out["ystar"], [0.0, 1.0])


def test_penalized_vector_mode_zero_bound_is_a_question():
    """ell = 0 asks for x* = 0, which this problem has not."""
    assert _orthant_vector_mode(0.0) is None
    assert _orthant_vector_mode(10.0)["xstar"] == (0.0, 1.5)


def _linear(grad):
    """f(x) = grad . x, with its exact Jacobian."""
    grad = np.array(grad, dtype=float)
    return SmoothMap("linear", len(grad), 1, lambda x: np.array([grad @ x]),
                     lambda x: grad[None, :].copy())


def _unit_rows(rows):
    rows = np.array(rows, dtype=float)
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


_SMALL_INT = st.integers(-3, 3)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_penalized_scalar_matches_rational_oracle(data):
    """Scalar mode finds a witness exactly when -grad f = N^T a + q has a
    solution with a >= 0 and q . ell <= 0 on every generator, decided in
    exact arithmetic over (a, q) with q a free variable (the LP reads q
    off instead of solving for it)."""
    dim = data.draw(st.integers(1, 2))
    m = data.draw(st.integers(0, 3 - dim))
    vec = st.lists(_SMALL_INT, min_size=dim, max_size=dim)
    grad = data.draw(vec)
    active = data.draw(st.lists(vec.filter(any), min_size=m, max_size=m))
    gens = data.draw(st.lists(vec.filter(any), min_size=1, max_size=4))
    # the active rows pass through xbar = 0, the last row is inactive there
    A = PolyhedralSet.from_rows(active + [[1] + [0] * (dim - 1)], [0] * m + [-1])
    N = [[-c for c in row] for row in active]
    ge = [([1 if j == i else 0 for j in range(m)] + [0] * dim, 0) for i in range(m)]
    ge += [([0] * m + [-c for c in ell], 0) for ell in gens]
    eq = [([N[i][k] for i in range(m)] + [1 if j == k else 0 for j in range(dim)], -grad[k])
          for k in range(dim)]
    out = stationarity_penalized(_linear(grad), A, [0.0] * dim,
                                 DirectionSet.finite(_unit_rows(gens)))
    assert (out is not None) == rational_feasible(m + dim, ge, eq)
    if out is not None:
        a, q = np.array(out["normal_weights"]), np.array(out["polar_part"])
        assert np.all(a >= 0.0) and np.all(_unit_rows(gens) @ q <= 1e-9)
        assert np.allclose(np.reshape(N, (m, dim)).T @ a + q, -np.array(grad), atol=1e-9)


def _decomposition_penalized(f, A, xbar, gens, vector_mode):
    """Found/none of penalized stationarity in the decomposition form:
    lead @ w + N^T a + q = target with a >= 0 and q . ell <= 0 on every
    generator, q solved for (one equality row per coordinate).  Scalar
    mode has no w and target -grad f; vector mode has x* = lead @ w,
    target 0, y*(e) = 1 and u >= |x*| with sum u <= lip."""
    N = -A.active_rows(xbar)
    jf = f.jacobian(xbar)
    dim, m, ng = f.dim_in, len(N), len(gens)
    if vector_mode is None:
        lp = LPProblem(m + dim, nonneg=range(m))
        lp.add_ge(np.hstack([np.zeros((ng, m)), -gens]), 0.0)
        lp.add_eq(np.hstack([N.T, np.eye(dim)]), -jf[0])
        return lp_feasible(lp) is not None
    rows, e, lip = vector_mode["K"].rows, np.array(vector_mode["e"]), vector_mode["ell"]
    nw = len(rows)
    coef = jf.T @ rows.T
    lp = LPProblem(nw + m + 2 * dim, nonneg=range(nw + m))
    lp.add_ge(np.hstack([np.zeros((ng, nw + m)), -gens, np.zeros((ng, dim))]), 0.0)
    lp.add_eq(np.hstack([coef, N.T, np.eye(dim), np.zeros((dim, dim))]), np.zeros(dim))
    lp.add_eq(np.append(rows @ e, np.zeros(m + 2 * dim)), 1.0)
    for k in range(dim):
        for sign in (-1.0, 1.0):
            lp.add_ge(np.r_[sign * coef[k], np.zeros(m + dim), np.eye(dim)[k]], 0.0)
    lp.add_ge(np.r_[np.zeros(nw + m + dim), -np.ones(dim)], -lip)
    return lp_feasible(lp) is not None


def test_penalized_agrees_with_the_decomposition_lp():
    """Both modes, 1-5 dimensions, a quarter with the rows of A and K
    rescaled by 10^+-3: eliminating q changes no found/none answer."""
    rng = np.random.default_rng(25)
    found = 0
    for i in range(400):
        vector = i % 2 == 1
        scales = (lambda k: 10.0 ** rng.uniform(-3, 3, k)) if i // 2 % 4 == 3 else np.ones
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 4)) if vector else 1
        xbar = rng.uniform(-1, 1, n)
        nrows = int(rng.integers(1, n + 3))
        nactive = int(rng.integers(0, nrows + 1))
        rows = _unit_rows(rng.standard_normal((nrows, n))) * scales(nrows)[:, None]
        offsets = rows @ xbar
        offsets[nactive:] -= 0.5 * np.abs(rows[nactive:]).sum(axis=1)
        A = PolyhedralSet.from_rows(rows, offsets)
        J = rng.standard_normal((m, n))
        f = SmoothMap("affine", n, m, lambda x, J=J: J @ x, lambda x, J=J: J.copy())
        gens = _unit_rows(rng.standard_normal((int(rng.integers(n, 2 * n + 5)), n)))
        if rng.random() < 0.5:  # generators on the ascent side of a positive y*
            gens *= np.where(gens @ (J.T @ rng.uniform(0, 1, m)) < 0, -1.0, 1.0)[:, None]
        vm = None
        if vector:
            c = _unit_rows(rng.standard_normal((1, m)))[0]
            nw = int(rng.integers(m, m + 4))
            K_rows = (c + 0.8 * _unit_rows(rng.standard_normal((nw, m)))) * scales(nw)[:, None]
            vm = {"e": list(c), "ell": float(rng.uniform(0.5, 4.0)),
                  "K": HalfspaceCone.from_rows(K_rows)}
        out = stationarity_penalized(f, A, xbar, DirectionSet.finite(gens), vm)
        assert (out is not None) == _decomposition_penalized(f, A, xbar, gens, vm), i
        found += out is not None
    assert 100 < found < 300  # both answers are well represented


_VECTOR_MODE = {"e": [1.0, 1.0], "ell": 10.0, "K": R2_PLUS}
_SCALAR_2D = SmoothMap("sum", 2, 1, lambda x: np.array([x[0] + x[1]]),
                       lambda x: np.array([[1.0, 1.0]]))


@pytest.mark.parametrize("f, A, L, vector_mode, message", [
    (_SCALAR_2D, np.eye(2), L_PLUS, None, "direction set"),
    (_SCALAR_2D, np.eye(3), L_X_AXIS, None, "constraint"),
    (identity(2), np.eye(2), L_X_AXIS,
     dict(_VECTOR_MODE, K=HalfspaceCone.from_rows(np.eye(3))), "ordering cone"),
    (identity(2), np.eye(2), L_X_AXIS, dict(_VECTOR_MODE, e=[1.0, 1.0, 1.0]), "e"),
], ids=["L-1d", "A-3d", "K-3d", "e-3"])
def test_penalized_rejects_mismatched_spaces(f, A, L, vector_mode, message):
    """Named by Problem (or, for e, by the LP builder) before any LP."""
    A = PolyhedralSet.from_rows(A, np.zeros(len(A)))
    with pytest.raises(CertifyError, match=f"^{message} lives in the wrong space$"):
        stationarity_penalized(f, A, [0.0, 0.0], L, vector_mode)


# ---------------------------------------------------------------------------
# cross-module consistency with the certifier

def test_certified_gallery_problems_have_fritz_john_multipliers():
    from dirpareto.certify import certify_directional_min
    certified = [
        Problem(builtin("saddle_x2_y2"), R_PLUS, L_X_AXIS, (0.0, 0.0)),
        Problem(builtin("saddle_x2_y3"), R_PLUS, L_X_AXIS, (0.0, 0.0)),
        Problem(builtin("saddle_x2_y3"), R_PLUS, L_DOWN, (0.0, 0.0)),
        Problem(builtin("vector_2x_x"), K_WEDGE, L_PLUS, (0.0,)),
        Problem(builtin("vector_pair_saddle"), R2_PLUS, L_X_AXIS, (0.0, 0.0)),
    ]
    for p in certified:
        rep = certify_directional_min(p)
        assert rep.verdict == "certified_on_grid"
        assert fritz_john(p) is not None, p.f.name
