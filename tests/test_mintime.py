import math
from fractions import Fraction

import numpy as np
import pytest

from dirpareto import mintime
from dirpareto.certify import CertifyError, GridSpec
from dirpareto.expressions import EvaluationError
from dirpareto.geometry import TOL, DirectionSet, GeometryError, HalfspaceCone
from dirpareto.maps import SmoothMap, builtin, from_expressions
from dirpareto.mintime import (
    RatioEstimate,
    Target,
    calmness_ratio,
    minimal_time,
    subregularity_ratio,
)
from dirpareto.sets import PolyhedralSet

from oracles import linf_distance_to_polyhedron

INF = float("inf")


def D(*vs):
    return DirectionSet.finite(vs)


def _unit(v):
    v = np.asarray(v, dtype=float)
    return tuple(v / np.linalg.norm(v))


def test_point_target_hand_cases():
    L = D((1.0, 0.0))
    assert minimal_time(L, (0, 0), Target.point((3, 0)))[0] == pytest.approx(3.0)
    assert minimal_time(L, (0, 0), Target.point((0, 3)))[0] == INF
    v, exact = minimal_time(L, (0, 0), Target.point((3, 0)), norm="linf")
    assert v == pytest.approx(3.0) and exact


def test_point_target_finite_iff_cone_membership():
    """T_L(x, {u}) < inf iff u - x in cone L, with value |u - x|."""
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 4))
        dirs = [_unit(rng.normal(size=n)) for _ in range(int(rng.integers(1, 4)))]
        L = D(*dirs)
        x = rng.uniform(-3, 3, n)
        u = rng.uniform(-3, 3, n)
        from dirpareto.geometry import cone_contains
        val, exact = minimal_time(L, x, Target.point(u))
        assert exact
        if cone_contains(L, u - x):
            assert val == pytest.approx(float(np.linalg.norm(u - x)), abs=1e-9)
        else:
            assert val == INF


def test_finite_points_takes_min():
    L = D((1.0, 0.0), (0.0, 1.0))
    t = Target.finite_points([(2, 0), (0, 5), (-1, 0)])
    assert minimal_time(L, (0, 0), t)[0] == pytest.approx(2.0)


def test_empty_finite_points_rejected():
    with pytest.raises(GeometryError):
        Target.finite_points([])


@pytest.mark.parametrize("poly, name", [(None, "NoneType"), (np.eye(2), "ndarray")])
def test_polyhedral_target_needs_a_polyhedron(poly, name):
    """Rejected where the target is built, not later inside minimal_time."""
    with pytest.raises(GeometryError,
                       match=f"^a polyhedral target needs a PolyhedralSet, got {name}$"):
        Target.polyhedral(poly)


def test_polyhedron_finite_directions_closed_form():
    poly = PolyhedralSet.from_rows([[1.0, 0.0]], [2.0])  # {x1 >= 2}
    L = D((1.0, 0.0), (0.0, 1.0))
    val, exact = minimal_time(L, (0.0, 0.0), Target.polyhedral(poly))
    assert exact and val == pytest.approx(2.0)
    # only the useless direction: infinite
    val, _ = minimal_time(D((0.0, 1.0)), (0.0, 0.0), Target.polyhedral(poly))
    assert val == INF


def test_finite_L_reaches_a_point_on_cone_L_and_a_polyhedron_on_its_rays():
    """The two readings of a finite L: the point (1, 1) lies in cone L and
    is reached at distance sqrt(2); the polyhedron {(1, 1)} lies on no
    ray of L and is never reached."""
    L = D((1.0, 0.0), (0.0, 1.0))
    val, exact = minimal_time(L, (0.0, 0.0), Target.point((1.0, 1.0)))
    assert exact and val == math.sqrt(2.0)
    point = PolyhedralSet.from_rows([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                                    [1.0, -1.0, 1.0, -1.0])
    assert minimal_time(L, (0.0, 0.0), Target.polyhedral(point)) == (INF, True)


def test_point_already_inside_polyhedron():
    poly = PolyhedralSet.from_rows([[1.0, 0.0]], [2.0])
    val, _ = minimal_time(D((0.0, 1.0)), (3.0, 1.0), Target.polyhedral(poly))
    assert val == 0.0


def test_full_sphere_linf_equals_distance_hand():
    poly = PolyhedralSet.from_rows([[1.0, 0.0]], [2.0])
    L = DirectionSet.full_sphere(2)
    val, exact = minimal_time(L, (0.0, 0.0), Target.polyhedral(poly),
                              norm="linf")
    assert exact and val == pytest.approx(2.0, abs=1e-9)


def test_linf_time_is_infinite_when_cone_L_never_reaches_the_target():
    L = DirectionSet.cone_section(HalfspaceCone.from_rows([[1.0, 0.0]]))
    poly = PolyhedralSet.from_rows([[-1.0, 0.0]], [1.0])  # x0 <= -1
    assert minimal_time(L, (0.0, 0.0), Target.polyhedral(poly), norm="linf") == (math.inf, True)


def _random_polyhedron(rng, n):
    for _ in range(50):
        m = int(rng.integers(1, 5))
        rows = rng.integers(-3, 4, (m, n)).astype(float)
        rows = rows[np.any(rows != 0, axis=1)]
        if not len(rows):
            continue
        offs = rng.integers(-3, 4, len(rows)).astype(float)
        try:
            return PolyhedralSet.from_rows(rows, offs)
        except GeometryError:
            continue
    raise AssertionError("could not build a nonempty polyhedron")


def test_full_sphere_linf_matches_lp_oracle_100():
    """Acceptance criterion: T_{S_X} equals the linf distance computed by
    an independent LP solver on 100 random polyhedron instances."""
    rng = np.random.default_rng(21)
    checked = 0
    while checked < 100:
        n = int(rng.integers(2, 4))
        poly = _random_polyhedron(rng, n)
        x = rng.uniform(-4, 4, n)
        val, exact = minimal_time(DirectionSet.full_sphere(n), x,
                                  Target.polyhedral(poly), norm="linf")
        assert exact
        ref = linf_distance_to_polyhedron(poly.rows, poly.offsets, x)
        assert ref is not None
        assert val == pytest.approx(ref, abs=1e-6)
        checked += 1


def test_monotonicity_in_L_100():
    rng = np.random.default_rng(31)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        d1 = [_unit(rng.normal(size=n)) for _ in range(2)]
        d2 = d1 + [_unit(rng.normal(size=n)) for _ in range(2)]
        L1, L2 = D(*d1), D(*d2)
        x = rng.uniform(-3, 3, n)
        u = rng.uniform(-3, 3, n)
        v1, _ = minimal_time(L1, x, Target.point(u))
        v2, _ = minimal_time(L2, x, Target.point(u))
        assert v2 <= v1 + 1e-9


def test_lower_bound_by_distance():
    rng = np.random.default_rng(41)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        L = D(*[_unit(rng.normal(size=n)) for _ in range(3)])
        x = rng.uniform(-3, 3, n)
        u = rng.uniform(-3, 3, n)
        val, _ = minimal_time(L, x, Target.point(u))
        assert val >= float(np.linalg.norm(u - x)) - 1e-9


def test_cone_section_l2_upper_bound_flagged():
    K = HalfspaceCone.from_rows(np.eye(2))
    L = DirectionSet.cone_section(K)
    poly = PolyhedralSet.from_rows([[1.0, 0.0]], [2.0])
    val, exact = minimal_time(L, (0.0, 1.0), Target.polyhedral(poly))
    assert not exact          # sampled upper bound, flagged approximate
    assert val >= 2.0 - 1e-9  # never below the true value


# ---------------------------------------------------------------------------
# finite L over a polyhedron, and point targets in the sup norm, against
# references that do not call the package

def _ray_time_exact(rows, offsets, x, ell):
    """min{t >= 0 : a . (x + t ell) >= b on every row} in exact rationals,
    with the documented cut-offs: a row with |a . ell| <= 1e-14 is parallel
    to the ray (and shuts it out when a . x < b - TOL), and the ray enters
    unless its lower bound passes its upper one by more than TOL.  Returns
    (time or None, how the ray was decided)."""
    F = Fraction
    lo, hi = F(0), None
    for a, b in zip(rows, offsets):
        num = F(float(b)) - sum(F(float(ai)) * F(float(xi)) for ai, xi in zip(a, x))
        den = sum(F(float(ai)) * F(float(li)) for ai, li in zip(a, ell))
        if abs(den) <= F(1e-14):
            if num > F(TOL):
                return None, "parallel"
        elif den > 0:
            lo = max(lo, num / den)
        else:
            hi = num / den if hi is None else min(hi, num / den)
    if hi is not None and lo > hi + F(TOL):
        return None, "leaves-first"
    return float(lo), "enters"


def _finite_L_cases(seed):
    """(rows, offsets, x, rays) in 2-4 D: integer rows, and rays that
    include an axis (parallel to the rows without that coordinate), a unit
    vector orthogonal to a row in floating point, and the opposite rays."""
    rng = np.random.default_rng(seed)
    for _ in range(60):
        n = int(rng.integers(2, 5))
        poly = _random_polyhedron(rng, n)
        rays = [_unit(rng.normal(size=n)) for _ in range(int(rng.integers(1, 4)))]
        rays.append(tuple(np.eye(n)[int(rng.integers(n))]))
        a = poly.rows[0]
        perp = rng.normal(size=n)
        perp -= (perp @ a) / (a @ a) * a
        rays.append(_unit(perp))
        rays += [tuple(-np.array(r)) for r in rays]
        yield poly, rng.uniform(-4, 4, n), rays


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_finite_L_polyhedron_matches_exact_per_ray_reference(seed):
    seen = set()
    for poly, x, rays in _finite_L_cases(seed):
        ref = [_ray_time_exact(poly.rows, poly.offsets, x, ell) for ell in rays]
        seen.update(how for _, how in ref)
        want = min((t for t, _ in ref if t is not None), default=INF)
        for dirs, (t, _) in [(rays, (want, None))] + [([r], w) for r, w in zip(rays, ref)]:
            got, exact = minimal_time(D(*dirs), x, Target.polyhedral(poly))
            assert exact
            if t is None or t == INF:
                assert got == INF
            else:
                assert got == pytest.approx(t, rel=1e-12, abs=1e-12)
    assert seen == {"parallel", "leaves-first", "enters"}


def test_ray_parallel_to_a_facet_and_ray_leaving_first():
    # the thin box [2, 2.1]^2 seen from the origin
    box = PolyhedralSet.from_rows([[1, 0], [-1, 0], [0, 1], [0, -1]],
                                  [2.0, -2.1, 2.0, -2.1])
    target = Target.polyhedral(box)
    assert minimal_time(D((1.0, 0.0)), (0.0, 0.0), target)[0] == INF      # parallel
    assert minimal_time(D((0.8, 0.6)), (0.0, 0.0), target)[0] == INF      # leaves first
    assert minimal_time(D((0.8, 0.6), _unit((1, 1))), (0.0, 0.0), target)[0] == \
        pytest.approx(2.0 * np.sqrt(2.0))
    # parallel to a facet it satisfies: the other rows decide
    assert minimal_time(D((1.0, 0.0)), (0.0, 2.05), target)[0] == pytest.approx(2.0)


def test_target_point_at_x_needs_no_cone_test(monkeypatch):
    """In 3-D cone membership of a finite L costs one LP per point; none is
    solved once x itself is a target point."""
    def no_call(*args):
        raise AssertionError("cone membership tested")
    monkeypatch.setattr(mintime, "cone_contains_many", no_call)
    L = D(*map(tuple, np.eye(3)))
    for norm in ("l2", "linf"):
        assert minimal_time(L, (0.0, 0.0, 0.0), Target.finite_points(
            [(1.0, 2.0, 3.0), (0.0, 0.0, 0.0), (-1.0, 2.0, 3.0)]), norm) == (0.0, True)


def test_time_zero_is_positive_zero():
    """A ray starting on a facet written with offset -0.0 gets time +0.0."""
    poly = PolyhedralSet.from_rows([[1.0, 0.0]], [-0.0])
    for L in (D((1.0, 0.0)), D((1.0, 0.0), _unit((1.0, 1.0)))):
        val, _ = minimal_time(L, (0.0, 0.0), Target.polyhedral(poly))
        assert val == 0.0 and math.copysign(1.0, val) == 1.0


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_linf_point_targets_match_max_abs(dim):
    """cone L = the nonnegative orthant: u - x is in it iff no entry is
    negative, and then T_L in the sup norm is max |u - x|."""
    rng = np.random.default_rng(60 + dim)
    L = D(*map(tuple, np.eye(dim)))
    for _ in range(40):
        x = rng.uniform(-3, 3, dim)
        us = x + rng.uniform(-1, 3, (int(rng.integers(1, 5)), dim))
        if rng.random() < 0.2:
            us[int(rng.integers(len(us)))] = x
        want = min((float(np.max(np.abs(u - x))) for u in us if np.all(u - x >= 0)),
                   default=INF)
        got, exact = minimal_time(L, x, Target.finite_points(us), norm="linf")
        assert exact and got == want
        for u in us:
            d = u - x
            one = float(np.max(np.abs(d))) if np.all(d >= 0) else INF
            assert minimal_time(L, x, Target.point(u), norm="linf")[0] == one


def test_calmness_identity_is_one():
    f = builtin("identity_1")
    est = calmness_ratio(f, (0.0,), D((1.0,)), D((1.0,)))
    assert est.empirical
    assert est.supremum_ratio == pytest.approx(1.0, abs=1e-9)


def test_calmness_2x_is_two():
    f = SmoothMap("2x", 1, 1, lambda x: 2.0 * x, lambda x: [[2.0]])
    est = calmness_ratio(f, (0.0,), D((1.0,)), D((1.0,)))
    assert est.supremum_ratio == pytest.approx(2.0, abs=1e-9)


def test_calmness_square_sup_at_grid_edge():
    f = SmoothMap("sq", 1, 1, lambda x: x ** 2, lambda x: [[2.0 * x[0]]])
    est = calmness_ratio(f, (0.0,), D((1.0,)), D((1.0,)), radius=0.1)
    assert est.supremum_ratio == pytest.approx(0.1, abs=1e-9)
    assert est.witness_pair is not None


def test_calmness_no_admissible_grid_flagged_zero():
    # f decreases but M only allows increases: numerator always infinite
    f = SmoothMap("neg", 1, 1, lambda x: -x, lambda x: [[-1.0]])
    est = calmness_ratio(f, (0.0,), D((1.0,)), D((1.0,)))
    assert est.supremum_ratio == 0.0
    assert est.note != ""


def _ratio_reference(kind, f, xbar, L, M, radius, levels, rays):
    """Reference: the ratio supremum one grid point at a time, through
    ``minimal_time``."""
    xbar = np.asarray(xbar, dtype=float)
    fx0 = f(xbar)
    steps = GridSpec(radius, levels, rays).points(np.zeros_like(xbar), L)
    best, witness, used = 0.0, None, 0
    for step in steps:
        if kind == "calmness":
            x = xbar + step
            denom = float(np.linalg.norm(x - xbar))
            if denom <= TOL:
                continue
            num, _ = minimal_time(M, fx0, Target.point(f(x)))
            if not np.isfinite(num):
                continue
            pair = (tuple(xbar), tuple(x))
        else:
            x = xbar - step
            num, _ = minimal_time(L, x, Target.point(xbar))
            if not np.isfinite(num) or num <= TOL:
                continue
            denom, _ = minimal_time(M, fx0, Target.point(f(x)))
            if not np.isfinite(denom) or denom <= TOL:
                continue
            pair = (tuple(x), tuple(xbar))
        used += 1
        if num / denom > best:
            best, witness = num / denom, pair
    if used == 0:
        return RatioEstimate(0.0, None, 0, note="no admissible grid point")
    return RatioEstimate(best, witness, used)


def _arc(lo, hi, n):
    ang = np.linspace(lo, hi, n)
    return DirectionSet.finite(np.stack([np.cos(ang), np.sin(ang)], axis=1))


@pytest.mark.parametrize("kind, ratio", [("calmness", calmness_ratio),
                                         ("subregularity", subregularity_ratio)])
@pytest.mark.parametrize("f, xbar, L, M", [
    (builtin("identity_2"), (0.0, 0.0), _arc(0.0, 2.0, 16), _arc(-0.5, 1.5, 9)),
    (builtin("vector_pair_saddle"), (0.3, -0.2), _arc(-1.0, 4.0, 24), _arc(0.0, 3.0, 12)),
    (from_expressions(["0.7*x0 - 1.1*x1 + 0.4*x0^2", "x1 + 0.2*x0*x1"], 2),
     (0.1, 0.2), DirectionSet.full_sphere(2), _arc(1.0, 5.0, 16)),
    (from_expressions(["x0 + x1^3", "atan(x0) - x1"], 2), (0.0, 0.0),
     _arc(0.0, 6.0, 32), DirectionSet.full_sphere(2)),
    (builtin("x3_sin_inv_x"), (0.0,), D((1.0,), (-1.0,)), D((1.0,))),
    (builtin("vector_2x_x"), (0.5,), D((1.0,), (-1.0,)), D(_unit((1.0, 0.5)), (-1.0, 0.0))),
], ids=["identity", "pair-saddle", "expression-affine", "expression-atan",
        "x3-sin", "2x-x"])
def test_ratio_matches_the_one_point_loop(kind, ratio, f, xbar, L, M):
    got = ratio(f, xbar, L, M, radius=0.2, levels=5, rays=32)
    want = _ratio_reference(kind, f, xbar, L, M, 0.2, 5, 32)
    assert got == want
    assert type(got.supremum_ratio) is float and type(got.samples_used) is int


@pytest.mark.parametrize("ratio", [calmness_ratio, subregularity_ratio])
def test_ratio_raises_what_the_first_undefined_point_raises(ratio):
    """f is undefined at x0 = 0.05 on the grid of the ray x0 > 0 (calmness)
    or x0 < 0 (subregularity, which walks the rays backwards)."""
    f = from_expressions(["x0 + 0 / (abs(x0) - 0.05)"], 1)
    with pytest.raises(EvaluationError, match="^division by zero$"):
        ratio(f, (0.0,), D((1.0,), (-1.0,)), D((1.0,)), radius=0.1, levels=3)


@pytest.mark.parametrize("ratio", [calmness_ratio, subregularity_ratio])
def test_ratio_rejects_a_non_finite_reference_value(ratio):
    """1/x0 overflows at the subnormal reference point: the error names it."""
    f = from_expressions(["1/x0"], 1)
    with pytest.raises(CertifyError, match=r"^non-finite objective value at the "
                                           r"reference point \[1e-320\]$"):
        ratio(f, (1e-320,), D((1.0,), (-1.0,)), D((1.0,)))


@pytest.mark.parametrize("ratio", [calmness_ratio, subregularity_ratio])
@pytest.mark.parametrize("grid", [
    {"radius": -0.1}, {"radius": 0.0}, {"radius": float("nan")},
    {"radius": float("inf")}, {"levels": 0}, {"rays": 0}, {"levels": 2.5}, {"rays": 2.5},
], ids=["negative-radius", "zero-radius", "nan-radius", "inf-radius",
        "no-levels", "no-rays", "fractional-levels", "fractional-rays"])
def test_ratio_rejects_bad_grid(ratio, grid):
    f = builtin("identity_1")
    with pytest.raises(CertifyError):
        ratio(f, (0.0,), D((1.0,)), D((1.0,)), **grid)


def test_subregularity_equals_inverse_calmness_linear_maps():
    """Subregularity of f matches calmness of f^-1 within 5 percent on
    matched full-circle grids (invertible linear maps on R^2)."""
    rng = np.random.default_rng(51)
    ang = 2.0 * np.pi * np.arange(128) / 128
    circle = D(*np.stack([np.cos(ang), np.sin(ang)], axis=1))
    tried = 0
    for _ in range(20):
        A = rng.uniform(-2.0, 2.0, (2, 2))
        if abs(np.linalg.det(A)) < 0.3:
            continue
        tried += 1
        Ainv = np.linalg.inv(A)
        f = SmoothMap("lin", 2, 2, lambda x, A=A: A @ x, lambda x, A=A: A)
        finv = SmoothMap("lininv", 2, 2, lambda y, B=Ainv: B @ y,
                         lambda y, B=Ainv: B)
        sub = subregularity_ratio(f, (0.0, 0.0), circle, circle,
                                  radius=0.5, levels=3, rays=128)
        calm = calmness_ratio(finv, (0.0, 0.0), circle, circle,
                              radius=0.5, levels=3, rays=128)
        assert sub.supremum_ratio == pytest.approx(
            calm.supremum_ratio, rel=0.05)
        if tried >= 8:
            break
    assert tried >= 8


def test_unknown_norm_rejected():
    with pytest.raises(GeometryError):
        minimal_time(D((1.0,)), (0.0,), Target.point((1.0,)), norm="l7")
