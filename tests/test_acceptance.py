"""Acceptance suite: one test per release criterion.

Each test states its criterion and carries a single pass/fail verdict;
the detailed behavior behind each criterion is exercised further in the
per-module suites.
"""

import json

import numpy as np
import pytest

from dirpareto.certify import IneqEq, Problem, certify_directional_min
from dirpareto.gallery import gallery_names, run_example
from dirpareto.geometry import DirectionSet, HalfspaceCone, cone_contains
from dirpareto.lp import LPProblem, lp_feasible
from dirpareto.maps import SmoothMap, builtin
from dirpareto.mintime import Target, minimal_time
from dirpareto.multipliers import fritz_john, kkt_multipliers
from dirpareto.scalarize import (
    ScalarizationContext,
    gerstewitz_subdiff,
    gerstewitz_value,
)
from dirpareto.sets import PolyhedralSet, cardioid_region
from dirpareto.tangent import (
    TSchedule,
    bouligand_polyhedral,
    tangent_membership_sampled,
)
from cones import K_WEDGE, L_DOWN, L_PLUS, L_X_AXIS, R2_PLUS, R_PLUS
from oracles import (
    gerstewitz_bisect,
    linf_distance_to_polyhedron,
    rational_feasible,
)


def _unit(v):
    return v / np.linalg.norm(v)


def test_criterion_1_gallery_reproduction():
    """Every frozen gallery entry reproduces its published verdict on the
    default grid (radius 0.5, 21 levels, >= 64 rays), zero tolerance."""
    for name in gallery_names():
        report, code = run_example(name)
        assert report["reproduced"], name
        for run in report["runs"]:
            assert run["match"], (name, run["run"])


def test_criterion_2_cardioid_strict_inclusion():
    """u = (-1, 0) is outside the tangent cone restricted to
    L = {(-1, 0)} but inside the unrestricted tangent cone, with the
    evidence schedules recorded."""
    region = cardioid_region()
    u = [-1.0, 0.0]
    restricted = tangent_membership_sampled(
        region, [0.0, 0.0], DirectionSet.finite([u]), u)
    unrestricted = tangent_membership_sampled(region, [0.0, 0.0], None, u)
    assert restricted.status == "nonmember"
    assert unrestricted.status == "member"
    levels = TSchedule().levels
    assert len(restricted.evidence) == levels
    assert len(unrestricted.evidence) == levels
    assert all(hit is not None for _, hit in unrestricted.evidence)


def test_criterion_3_gerstewitz_suite():
    """Closed-form values match the bisection oracle within 1e-7 on 10^3
    random points over two polyhedral cones; the structural properties
    hold at the same tolerances."""
    rng = np.random.default_rng(97)
    contexts = [
        ScalarizationContext.create(R2_PLUS, [1.0, 1.0]),
        ScalarizationContext.create(K_WEDGE, [2.0, 1.0]),
        ScalarizationContext.create(
            HalfspaceCone.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
            [1.0, 2.0, 1.0]),
    ]
    count = 0
    while count < 1000:
        ctx = contexts[count % len(contexts)]
        dim = ctx.K.dim
        y = rng.uniform(-5, 5, dim)
        val = gerstewitz_value(ctx, y)
        ref = gerstewitz_bisect(ctx.K, np.array(ctx.e), y)
        assert val == pytest.approx(ref, abs=1e-7)
        # level set: val*e - y in K, and (val - eps)*e - y leaves K
        e = np.array(ctx.e)
        assert ctx.K.contains(val * e - y, tol=1e-7)
        assert not ctx.K.contains((val - 1e-5) * e - y, tol=-1e-7)
        # translation along e
        t = float(rng.uniform(-2, 2))
        assert gerstewitz_value(ctx, y + t * e) == pytest.approx(
            val + t, abs=1e-7)
        # sublinearity and K-monotonicity
        z = rng.uniform(-5, 5, dim)
        assert gerstewitz_value(ctx, y + z) <= val + gerstewitz_value(
            ctx, z) + 1e-7
        while True:
            k = rng.uniform(-2, 2, dim)
            if ctx.K.contains(k):
                break
        assert gerstewitz_value(ctx, y - k) <= val + 1e-7
        # subgradient certificate
        cert = gerstewitz_subdiff(ctx, y)
        assert cert.satisfies(cert.witness)
        count += 1


def _random_polyhedron(rng, n):
    while True:
        rows = rng.integers(-3, 4, size=(int(rng.integers(2, 5)), n))
        rows = rows[np.any(rows != 0, axis=1)].astype(float)
        offs = rng.integers(-3, 4, size=len(rows)).astype(float)
        if not len(rows):
            continue
        try:
            return PolyhedralSet.from_rows(list(rows), list(offs))
        except Exception:
            continue


def test_criterion_4_minimal_time_suite():
    """Point law: T_L(x, {u}) is finite iff u - x is in cone L, with
    value |u - x| (exact).  Full-sphere travel time to a polyhedron
    equals the linf distance from an independent LP solver on 100
    instances, and enlarging L never increases the travel time on 100
    instances."""
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        L = DirectionSet.finite([_unit(rng.normal(size=n)) for _ in range(3)])
        x = rng.uniform(-3, 3, n)
        u = rng.uniform(-3, 3, n)
        val, exact = minimal_time(L, x, Target.point(u))
        assert exact
        if cone_contains(L, u - x):
            assert val == pytest.approx(np.linalg.norm(u - x), abs=1e-9)
        else:
            assert val == np.inf
    checked = 0
    while checked < 100:
        n = int(rng.integers(2, 4))
        poly = _random_polyhedron(rng, n)
        x = rng.uniform(-4, 4, n)
        val, exact = minimal_time(DirectionSet.full_sphere(n), x,
                                  Target.polyhedral(poly), norm="linf")
        ref = linf_distance_to_polyhedron(poly.rows, poly.offsets, x)
        assert exact and ref is not None
        assert val == pytest.approx(ref, abs=1e-6)
        checked += 1
    for _ in range(100):
        n = int(rng.integers(1, 4))
        d1 = [_unit(rng.normal(size=n)) for _ in range(2)]
        d2 = d1 + [_unit(rng.normal(size=n)) for _ in range(2)]
        x = rng.uniform(-3, 3, n)
        u = rng.uniform(-3, 3, n)
        v1, _ = minimal_time(DirectionSet.finite(d1), x, Target.point(u))
        v2, _ = minimal_time(DirectionSet.finite(d2), x, Target.point(u))
        assert v2 <= v1 + 1e-9


def test_criterion_5_kkt_fritz_john():
    """1-D reduction on 100 random scalar problems; the hand-checked
    constrained example gives lambda_1 = 1, y* = 1 within 1e-9; every
    strongly certified smooth gallery problem admits multipliers."""
    rng = np.random.default_rng(77)
    for _ in range(100):
        a, b = rng.uniform(-2, 2, 2)
        xbar = rng.uniform(-1, 1)
        f = SmoothMap(
            "f", 1, 1,
            lambda x, a=a, b=b: np.array([a * x[0] + b * x[0] ** 2]),
            lambda x, a=a, b=b: np.array([[a + 2 * b * x[0]]]))
        cert = kkt_multipliers(Problem(f, R_PLUS, L_PLUS, (xbar,)), e=[1.0])
        slope = a + 2 * b * xbar
        assert (cert is not None) == (slope >= -1e-9), (a, b, xbar)

    ident = SmoothMap("id", 1, 1, lambda x: x.copy(),
                      lambda x: np.array([[1.0]]))
    mu = SmoothMap("mu", 1, 1, lambda x: -x, lambda x: np.array([[-1.0]]))
    p = Problem(ident, R_PLUS, DirectionSet.finite([[-1.0], [1.0]]), (0.0,),
                constraint=IneqEq(mu=(mu,)))
    cert = kkt_multipliers(p, e=[1.0])
    assert cert is not None
    assert cert.lam[0] == pytest.approx(1.0, abs=1e-9)
    assert cert.ystar[0] == pytest.approx(1.0, abs=1e-9)

    certified = [
        Problem(builtin("saddle_x2_y2"), R_PLUS, L_X_AXIS, (0.0, 0.0)),
        Problem(builtin("saddle_x2_y3"), R_PLUS, L_X_AXIS, (0.0, 0.0)),
        Problem(builtin("saddle_x2_y3"), R_PLUS, L_DOWN, (0.0, 0.0)),
        Problem(builtin("vector_2x_x"), K_WEDGE, L_PLUS, (0.0,)),
        Problem(builtin("vector_pair_saddle"), R2_PLUS, L_X_AXIS, (0.0, 0.0)),
    ]
    for p in certified:
        assert certify_directional_min(p).verdict == "certified_on_grid"
        assert fritz_john(p) is not None, p.f.name


def test_criterion_6_tangent_intersection_inclusion():
    """On 50 random polyhedral (D, E, linear phi) triples: every sampled
    u tangent to D at xbar whose image phi u is tangent to E at phi xbar
    is tangent to D intersect phi^{-1}(E) at xbar (exact cones)."""
    rng = np.random.default_rng(13)

    def poly_through(point, n_rows, dim):
        rows, offs = [], []
        for _ in range(n_rows):
            a = rng.integers(-3, 4, size=dim).astype(float)
            if not np.any(a):
                a[0] = 1.0
            rows.append(a)
            offs.append(float(a @ point) - float(rng.integers(0, 2)))
        return PolyhedralSet.from_rows(rows, offs)

    checked = 0
    while checked < 50:
        dim = int(rng.integers(2, 4))
        xbar = rng.integers(-2, 3, size=dim).astype(float)
        phi = rng.integers(-2, 3, size=(dim, dim)).astype(float)
        D = poly_through(xbar, int(rng.integers(1, 4)), dim)
        E = poly_through(phi @ xbar, int(rng.integers(1, 4)), dim)
        rows = [np.array(r) for r in D.rows] + [E.rows[i] @ phi
                                                for i in range(len(E.rows))]
        try:
            inter = PolyhedralSet.from_rows(rows,
                                            list(D.offsets) + list(E.offsets))
        except Exception:
            continue
        TD = bouligand_polyhedral(D, xbar)
        TE = bouligand_polyhedral(E, phi @ xbar)
        TI = bouligand_polyhedral(inter, xbar)
        for _ in range(40):
            u = rng.normal(size=dim)
            if (TD is None or TD.contains(u)) and \
                    (TE is None or TE.contains(phi @ u)):
                assert TI is None or TI.contains(u), (dim, xbar, u)
        checked += 1


def test_criterion_7_simplex_matches_rational_oracle():
    """Feasibility verdicts agree with exact rational vertex enumeration
    on 500 random LPs in dimension <= 3, zero disagreements."""
    rng = np.random.default_rng(123)
    disagreements = 0
    for _ in range(500):
        n = int(rng.integers(1, 4))
        p = LPProblem(n)
        ge, eq = [], []
        for _ in range(int(rng.integers(1, 5))):
            a = rng.integers(-3, 4, n)
            if not np.any(a):
                a[0] = 1
            b = int(rng.integers(-3, 4))
            p.add_ge(a.astype(float), float(b))
            ge.append(([int(c) for c in a], b))
        for _ in range(int(rng.integers(0, 2))):
            a = rng.integers(-3, 4, n)
            if not np.any(a):
                a[-1] = 1
            b = int(rng.integers(-3, 4))
            p.add_eq(a.astype(float), float(b))
            eq.append(([int(c) for c in a], b))
        if (lp_feasible(p) is not None) != rational_feasible(n, ge, eq):
            disagreements += 1
    assert disagreements == 0


def test_criterion_8_gallery_determinism():
    """Two full gallery runs with the same seed serialize to
    byte-identical reports."""
    def snapshot():
        return {name: json.dumps(run_example(name)[0], sort_keys=True)
                for name in gallery_names()}

    first = snapshot()
    second = snapshot()
    for name in gallery_names():
        assert first[name].encode() == second[name].encode(), name
