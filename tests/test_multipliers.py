"""Multiplier certificates: Fritz John / KKT existence, the 1-D
reduction law, convex sufficiency spot-checks, and penalized
stationarity decompositions."""

import inspect

import numpy as np
import pytest

from dirpareto.certify import CertifyError, IneqEq, Problem
from dirpareto.geometry import DirectionSet, HalfspaceCone
from dirpareto.maps import SmoothMap, builtin, from_expressions
from dirpareto.multipliers import (
    MultiplierCert,
    fritz_john,
    kkt_multipliers,
    stationarity_penalized,
    sufficiency_certificate,
)
from dirpareto.sets import PolyhedralSet

from cones import K_WEDGE, L_BOTH, L_DOWN, L_MINUS, L_PLUS, L_X_AXIS, R2_PLUS, R_PLUS


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


def test_fritz_john_needs_finite_L():
    p = Problem(IDENT, R_PLUS,
                DirectionSet.full_sphere(1), (0.0,))
    with pytest.raises(CertifyError):
        fritz_john(p)


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
