"""Certifier tests: function and set minimality on the gallery and hand
examples, first-order checks, exact tangent sufficiency, and the
openness falsifier."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dirpareto.certify import (
    FEAS_TOL,
    CertifyError,
    CertReport,
    DirectionCheck,
    GridSpec,
    IneqEq,
    Problem,
    _violations,
    certify_directional_min,
    certify_set_min,
    check_first_order_necessary,
    openness_falsifier,
    tangent_sufficiency_sets,
)
from dirpareto.gallery import GALLERY, gallery_names, run_example
from dirpareto.expressions import EvaluationError
from dirpareto.geometry import (
    TOL,
    DirectionSet,
    GeometryError,
    HalfspaceCone,
    as_vector,
    cone_contains,
    direction_samples,
    ray_points,
    sphere_lattice,
)
from dirpareto.maps import SmoothMap, builtin, from_expressions, identity
from dirpareto.problemfile import parse_problem
from dirpareto.sets import (
    ImplicitSet,
    PolygonRegion,
    PolyhedralSet,
    cardioid_region,
    curve_halfplane_set,
)

from cones import K_WEDGE, L_BOTH, L_DOWN, L_MINUS, L_PLUS, L_X_AXIS, R2_PLUS, R_PLUS

ORTHANT2 = PolyhedralSet.from_rows([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
UNIT_BALL = ImplicitSet(2, lambda x: float(np.linalg.norm(x)) <= 1.0, "ball")
SMALL = GridSpec(radius=0.5, levels=8, rays_per_level=16)


def _identity_1d():
    return SmoothMap("id", 1, 1, lambda x: x.copy(), lambda x: np.array([[1.0]]))


def _circle(count):
    ang = 2.0 * np.pi * np.arange(count) / count
    return DirectionSet.finite(np.stack([np.cos(ang), np.sin(ang)], axis=1))


def _gallery_function_problems():
    """The gallery's function-certification runs, parsed from their documents."""
    return [(f"{entry}/{run}", parse_problem(doc))
            for entry, (_, runs) in GALLERY.items()
            for run, kind, doc, _ in runs if kind == "certify"]


# ---------------------------------------------------------------------------
# function certifier hand examples

def test_saddle_certified_on_x_axis():
    p = Problem(builtin("saddle_x2_y2"), R_PLUS, L_X_AXIS, (0.0, 0.0))
    rep = certify_directional_min(p)
    assert rep.verdict == "certified_on_grid"
    assert rep.samples > 0


def test_sin_inv_x_refuted():
    p = Problem(builtin("sin_inv_x"), R_PLUS, L_PLUS, (0.0,))
    rep = certify_directional_min(p)
    assert rep.verdict == "refuted"
    x, diff = rep.counterexample
    assert 0 < x[0] < 0.5 and diff[0] < 0


def test_vector_example_direction_dependent():
    f = builtin("vector_2x_x")
    cert = certify_directional_min(Problem(f, K_WEDGE, L_PLUS, (0.0,)))
    refu = certify_directional_min(Problem(f, K_WEDGE, L_BOTH, (0.0,)))
    assert cert.verdict == "certified_on_grid"
    assert refu.verdict == "refuted"


@pytest.mark.parametrize("field, value", [
    ("levels", 2.5), ("levels", "3"), ("rays_per_level", 2.5), ("rays_per_level", np.float64(8.0)),
    ("seed", 0.5), ("seed", None),
])
def test_grid_counts_must_be_integers(field, value):
    """A fractional count is no grid: unchecked, levels=2.5 would run 3."""
    with pytest.raises(CertifyError,
                       match=f"^grid {field} must be an integer, got {re.escape(repr(value))}$"):
        GridSpec(**{field: value})


def test_infeasible_reference_point_rejected():
    with pytest.raises(CertifyError):
        Problem(_identity_1d(), R_PLUS, L_PLUS, (0.5,),
                constraint=ImplicitSet(1, lambda x: x[0] <= 0.0))


@pytest.mark.parametrize("f, L, xbar, constraint, message", [
    (builtin("saddle_x2_y2"), L_X_AXIS, (0.0, 0.0), PolyhedralSet.from_rows(np.eye(3), np.zeros(3)),
     "constraint lives in the wrong space"),
    (identity(1), L_PLUS, (0.0,), cardioid_region(64), "constraint lives in the wrong space"),
    # its second output, 1 > 0, leaves no feasible point; a walk that read
    # only the first output would refute minimality on the empty set
    (builtin("saddle_x2_y2"), L_X_AXIS, (0.0, 0.0), IneqEq(mu=(from_expressions(["x0", "1"], 2),)),
     "constraint map mu0 sends R^2 to R^2, expected R^2 to R^1"),
    (builtin("saddle_x2_y2"), L_X_AXIS, (0.0, 0.0), IneqEq(mu=(identity(1),)),
     "constraint map mu0 sends R^1 to R^1, expected R^2 to R^1"),
    (builtin("saddle_x2_y2"), L_X_AXIS, (0.0, 0.0),
     IneqEq(mu=(from_expressions(["x0"], 2),), nu=(identity(1),)),
     "constraint map nu0 sends R^1 to R^1, expected R^2 to R^1"),
], ids=["polyhedron-3d-on-2d", "cardioid-on-1d", "mu-two-outputs", "mu-1d-on-2d", "nu-1d-on-2d"])
def test_problem_rejects_a_constraint_in_the_wrong_space(f, L, xbar, constraint, message):
    with pytest.raises(CertifyError, match=f"^{re.escape(message)}$"):
        Problem(f, R_PLUS if f.dim_out == 1 else R2_PLUS, L, xbar, constraint=constraint)


def test_constraint_restricts_samples():
    # f(x) = x refuted on L={-1} unconstrained, certified (vacuously)
    # when the feasible set blocks the descent side
    f = _identity_1d()
    refu = certify_directional_min(Problem(f, R_PLUS, L_MINUS, (0.0,)))
    assert refu.verdict == "refuted"
    cert = certify_directional_min(
        Problem(f, R_PLUS, L_MINUS, (0.0,),
                constraint=ImplicitSet(1, lambda x: x[0] >= 0.0)))
    assert cert.verdict == "certified_on_grid"
    assert "no feasible grid sample" in cert.note


def test_vacuous_set_certificate_says_so():
    # no direction of L enters the closed lower-left quadrant M
    M = PolyhedralSet.from_rows([[-1.0, 0.0], [0.0, -1.0]], [0.0, 0.0])
    L = DirectionSet.finite([(1.0, 0.0), (0.0, 1.0)])
    cert = certify_set_min(M, (0.0, 0.0), R2_PLUS, L)
    assert cert.verdict == "certified_on_grid"
    assert cert.samples == 0
    assert "no feasible grid sample" in cert.note
    refu = certify_set_min(M, (0.0, 0.0), R2_PLUS,
                           DirectionSet.finite([(-1.0, 0.0)]))
    assert refu.verdict == "refuted" and refu.note == ""


# ---------------------------------------------------------------------------
# the walker takes the whole grid at once and decides as a walk point by
# point

def _pointwise_walk(p, weak=False):
    """Reference: the grid walked one point at a time, the constraint and
    f evaluated only up to the first non-finite or violating sample."""
    def feasible(x):
        c = p.constraint
        if c is None:
            return True
        if not isinstance(c, IneqEq):
            return c.contains(x)  # a set
        return (all(not m(x)[0] > FEAS_TOL for m in c.mu)
                and all(not abs(n(x)[0]) > FEAS_TOL for n in c.nu))

    f0 = p.f(p.x0)
    samples = 0
    for x in p.grid.points(p.x0, p.L):
        if not feasible(x):
            continue
        samples += 1
        d = p.f(x) - f0
        if not np.all(np.isfinite(d)):
            raise CertifyError(f"non-finite objective value at {x.tolist()}")
        if (p.K.contains(-d, strict=True) if weak
                else p.K.contains(-d) and not p.K.contains(d)):
            return CertReport("refuted", weak, samples, (tuple(x), tuple(d)))
    return CertReport("certified_on_grid", weak, samples,
                      note="" if samples else "no feasible grid sample")


def _outcome(run):
    """The report as a dict, or the type and text of what was raised."""
    try:
        return run().as_dict()
    except (CertifyError, EvaluationError) as exc:
        return type(exc), str(exc)


RAY = GridSpec(radius=0.5, levels=6, rays_per_level=1)  # t = 0.5, 0.25, 0.125, ...


@pytest.mark.parametrize("objective, expected", [
    ("-x0 + 0 / (x0 - 0.125)", "refuted"),
    ("x0 * (x0 - 0.3) + 0 / (x0 - 0.25)", (EvaluationError, "division by zero")),
    ("1e308 * (4 * x0) - 1e308 * (4 * x0) - x0",  # nan at 0.5, -0.25 at 0.25
     (CertifyError, "non-finite objective value at [0.5]")),
    ("x0 * 1e308 / (0.124 - x0)", "refuted"),  # -inf at 0.25
], ids=["undefined-after-violation", "undefined-before-violation",
        "non-finite-before-violation", "non-finite-after-violation"])
def test_walk_stops_where_the_point_by_point_walk_stops(objective, expected):
    p = Problem(from_expressions([objective], 1), R_PLUS, L_PLUS, (0.0,), RAY)
    got = _outcome(lambda: certify_directional_min(p))
    assert got == _outcome(lambda: _pointwise_walk(p))
    if expected == "refuted":
        assert got["verdict"] == "refuted" and got["samples"] == 1
    else:
        assert got == expected


@pytest.mark.parametrize("objective, mu, nu, expected", [
    ("x0", "x0 - 0.2", "0 / (x0 - 0.5)", 4),
    ("-x0", "x0 - 0.2", "0 / (x0 - 0.5)", 1),
    ("-x0", "0 / (x0 - 0.125) + x0 - 1", None, 1),
    ("x0 * (x0 - 0.3)", "0 / (x0 - 0.25) + x0 - 1", None,
     (EvaluationError, "division by zero")),
], ids=["equality-undefined-where-mu-fails", "same-refuted",
        "constraint-undefined-after-violation", "constraint-undefined-before-violation"])
def test_constraint_is_evaluated_where_the_point_by_point_walk_evaluates_it(
        objective, mu, nu, expected):
    """nu = 0/(x0 - 0.5) is undefined only at x0 = 0.5, where mu = x0 - 0.2
    already fails, so it is never evaluated there; a constraint undefined
    after the first violation on the ray does not stop the refutation."""
    con = IneqEq(mu=(from_expressions([mu], 1),),
                 nu=() if nu is None else (from_expressions([nu], 1),))
    p = Problem(from_expressions([objective], 1), R_PLUS, L_PLUS, (0.0,), RAY, con)
    got = _outcome(lambda: certify_directional_min(p))
    assert got == _outcome(lambda: _pointwise_walk(p))
    assert (got["samples"] if isinstance(got, dict) else got) == expected


@pytest.mark.parametrize("weak", [False, True])
def test_gallery_walks_match_the_point_by_point_walk(weak):
    for name, p in _gallery_function_problems():
        assert (certify_directional_min(p, weak=weak).as_dict()
                == _pointwise_walk(p, weak).as_dict()), name


def test_walk_evaluates_f_one_ray_at_a_time(monkeypatch):
    """One batch for the whole grid, and no one-point call but f(xbar)."""
    calls = {"__call__": 0, "eval_rows": 0}
    for name in calls:
        def counted(self, x, _original=getattr(SmoothMap, name), _name=name):
            calls[_name] += 1
            return _original(self, x)
        monkeypatch.setattr(SmoothMap, name, counted)
    p = Problem(builtin("saddle_x2_y2"), R_PLUS, _circle(32), (0.0, 0.0))
    rep = certify_directional_min(p)
    assert rep.verdict == "refuted"
    assert calls["__call__"] == 1
    assert 0 < calls["eval_rows"] <= 6  # 32 x 21 points: one batch


# A multi-ray grid with events placed at chosen (ray, level) points: the
# objective is -1 (a violation under R_PLUS), undefined or infinite there,
# and the constraint raises or rejects there; elsewhere f = 1 and every
# point is feasible.  The walk takes the twelve rays as one batch.
EVENT_RAYS = 12
EVENT_GRID = GridSpec(radius=0.5, levels=3, rays_per_level=EVENT_RAYS)
EVENT_L = _circle(EVENT_RAYS)
EVENTS = ("violation", "undefined", "nonfinite", "constraint-raises", "infeasible")
# the grid's first and last rays and rays between them
PROBED_RAYS = (0, 1, 2, 3, 6, 7, 9, 11)


def _event_problem(events):
    """A Problem on EVENT_GRID whose objective and constraint act on
    ``events``, a dict (ray, level) -> event kind."""
    pts = EVENT_GRID.points(np.zeros(2), EVENT_L)
    at = {tuple(pts[ray * EVENT_GRID.levels + level]): kind
          for (ray, level), kind in events.items()}

    def objective(x):
        kind = at.get(tuple(x))
        if kind == "undefined":
            raise EvaluationError(f"undefined at {x.tolist()}")
        if not x.any():
            return np.array([0.0])
        return np.array([{"violation": -1.0, "nonfinite": np.inf}.get(kind, 1.0)])

    def constraint(x):
        kind = at.get(tuple(x))
        if kind == "constraint-raises":
            raise EvaluationError(f"constraint undefined at {x.tolist()}")
        return np.array([1.0 if kind == "infeasible" else -1.0])

    f = SmoothMap("events", 2, 1, objective)
    mu = SmoothMap("events-mu", 2, 1, constraint)
    return Problem(f, R_PLUS, EVENT_L, (0.0, 0.0), EVENT_GRID, IneqEq(mu=(mu,)))


@pytest.mark.parametrize("ray", PROBED_RAYS)
@pytest.mark.parametrize("kind", EVENTS)
def test_walk_event_at_a_block_boundary_matches_the_point_by_point_walk(kind, ray):
    p = _event_problem({(ray, 1): kind})
    assert (_outcome(lambda: certify_directional_min(p))
            == _outcome(lambda: _pointwise_walk(p)))


@pytest.mark.parametrize("later", ["undefined", "nonfinite", "constraint-raises"])
@pytest.mark.parametrize("first, second", [(3, 5), (3, 6), (7, 11), (1, 2)])
def test_walk_refutes_before_a_later_event_in_the_same_block(later, first, second):
    """A violation in one ray refutes even if a later ray of the grid is
    undefined, non-finite or has a raising constraint."""
    p = _event_problem({(first, 2): "violation", (second, 0): later})
    got = _outcome(lambda: _pointwise_walk(p))
    assert _outcome(lambda: certify_directional_min(p)) == got
    assert got["verdict"] == "refuted"
    assert got["samples"] == first * EVENT_GRID.levels + 3


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(0, EVENT_RAYS - 1),
                                 st.integers(0, EVENT_GRID.levels - 1)),
                       st.sampled_from(EVENTS), max_size=4),
       st.booleans())
def test_walk_with_random_events_matches_the_point_by_point_walk(events, weak):
    p = _event_problem(events)
    assert (_outcome(lambda: certify_directional_min(p, weak=weak))
            == _outcome(lambda: _pointwise_walk(p, weak)))


@pytest.mark.parametrize("rays", [EVENT_RAYS, 200])
def test_walk_refuted_at_ray_r_evaluates_the_blocks_through_r(monkeypatch, rays):
    """The walk refuted at ray r (counted from 0) evaluates the whole grid
    in one ``eval_rows`` call."""
    rows = []
    original = SmoothMap.eval_rows
    monkeypatch.setattr(SmoothMap, "eval_rows",
                        lambda self, X: rows.append(len(X)) or original(self, X))
    f = from_expressions(["x1"], 2)  # violated exactly on the one downward ray
    grid = GridSpec(radius=0.5, levels=2, rays_per_level=rays)
    upward = np.linspace(0.1, 3.0, rays)
    for r in range(rays):
        ang = np.where(np.arange(rays) == r, -np.pi / 2, upward)
        L = DirectionSet.finite(np.stack([np.cos(ang), np.sin(ang)], axis=1))
        rows.clear()
        rep = certify_directional_min(Problem(f, R_PLUS, L, (0.0, 0.0), grid))
        assert rep.verdict == "refuted" and rep.samples == 2 * r + 1
        assert rows == [rays * grid.levels], r


def test_non_finite_objective_at_the_reference_point_is_named_as_such():
    """1/x0 overflows to inf at x0 = 1e-320 without raising; the error
    names the reference point, not the first grid point."""
    p = Problem(from_expressions(["1/x0"], 1), R_PLUS, L_PLUS, (1e-320,), RAY)
    with pytest.raises(CertifyError, match=r"^non-finite objective value at "
                                           r"the reference point \[1e-320\]$"):
        certify_directional_min(p)


@pytest.mark.parametrize("action", ["default", "error"])
def test_an_overflowing_builtin_is_named_whatever_the_warnings_filter(action):
    """saddle_x2_y2 overflows at x0 = 1e200: the batch and its one-point
    re-run give inf under one errstate, so the walk names the point under
    either filter instead of raising RuntimeWarning under 'error'."""
    p = Problem(builtin("saddle_x2_y2"), R_PLUS, DirectionSet.finite([(1.0, 0.0)]),
                (0.0, 0.0), GridSpec(radius=1e200, levels=3, rays_per_level=1))
    with warnings.catch_warnings():
        warnings.simplefilter(action)
        with pytest.raises(CertifyError, match=r"^non-finite objective value at \[1e\+200, 0\.0\]$"):
            certify_directional_min(p)


@pytest.mark.parametrize("action", ["default", "error"])
def test_an_overflowing_reference_value_is_named_whatever_the_warnings_filter(action):
    """saddle_x2_y2 overflows at the reference point (1e200, 0) itself:
    f(xbar) is taken under one errstate, so the walk names the reference
    point under either filter instead of raising RuntimeWarning under
    'error'."""
    p = Problem(builtin("saddle_x2_y2"), R_PLUS, DirectionSet.finite([(1.0, 0.0)]),
                (1e200, 0.0), GridSpec(levels=3, rays_per_level=1))
    with warnings.catch_warnings():
        warnings.simplefilter(action)
        with pytest.raises(CertifyError, match=r"^non-finite objective value at the "
                                               r"reference point \[1e\+200, 0\.0\]$"):
            certify_directional_min(p)


def test_a_strong_refutation_needs_d_in_minus_K_exactly():
    """f = (-x, x^4) along L = {+1}: d = (-t, t^4) has d_2 > 0 for every
    t > 0, so no sample is in -K.  With a slack of TOL on d in -K, the
    sample x = 2^-8 with d = (-2^-8, 2^-32) refuted."""
    f = from_expressions(["-x0", "x0^4"], 1)
    rep = certify_directional_min(Problem(f, R2_PLUS, L_PLUS, (0.0,)))
    assert (rep.verdict, rep.samples) == ("certified_on_grid", 21)
    assert not _violations(np.array([[-2.0 ** -8, 2.0 ** -32]]), R2_PLUS, weak=False)[0]
    assert _violations(np.array([[-2.0 ** -8, 0.0]]), R2_PLUS, weak=False)[0]


# entries of K rows and differences d: zeros of both signs, products
# exactly at +-TOL (with unit rows), huge entries whose products overflow
# (and sum to nan), subnormal entries, and plain floats
_ENTRY = st.one_of(
    st.sampled_from([0.0, -0.0, TOL, -TOL, 1.0, -1.0, 2.0, 1e300, -1e300,
                     5e-324, -5e-324, 1e-310, -2.2250738585072014e-308]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3).flatmap(lambda dim: st.tuples(
           st.lists(st.lists(_ENTRY, min_size=dim, max_size=dim), min_size=1, max_size=3),
           st.lists(st.lists(_ENTRY, min_size=dim, max_size=dim), max_size=8))),
       st.booleans())
@example(([[1.0]], [[TOL], [-TOL], [0.0], [-0.0], [2 * TOL], [-2 * TOL]]), False)
@example(([[1.0]], [[TOL], [-TOL], [0.0], [-0.0], [2 * TOL], [-2 * TOL]]), True)
@example(([[1.0, 0.0], [0.0, 1.0]],
          [[TOL, -TOL], [TOL, -2 * TOL], [-TOL, -TOL], [-TOL, 0.0], [-0.0, -TOL],
           [0.0, -0.0], [-1e300, -1e300], [5e-324, -1.0]]), False)
@example(([[1.0, 0.0], [0.0, 1.0]],
          [[TOL, -TOL], [-TOL, -TOL], [-2 * TOL, -TOL], [-1.0, -5e-324]]), True)
@example(([[1e300, -1e300]], [[1e300, 1e300], [-1e300, -1e300], [1e300, -1e300]]), False)
def test_one_product_violations_match_the_two_membership_tests(case, weak):
    """_violations decides bit for bit as the two-call form
    K.contains_many(-D, tol=0.0) & ~K.contains_many(D) (strong: d in -K
    with no slack) and K.contains_many(-D, strict=True) (weak)."""
    rows, D = case
    with np.errstate(all="ignore"):
        try:
            K = HalfspaceCone.from_rows(rows)
        except GeometryError:
            assume(False)
        D = np.reshape(np.array(D, dtype=float), (-1, K.dim))
        got = _violations(D, K, weak)
        want = (K.contains_many(-D, strict=True) if weak
                else K.contains_many(-D, tol=0.0) & ~K.contains_many(D))
    assert got.dtype == want.dtype and got.shape == want.shape == (len(D),)
    assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# gallery-level invariants

def test_gallery_reports_match_nominal_exit_codes():
    for name in gallery_names():
        report, code = run_example(name)
        assert report["reproduced"], name
        assert code in (0, 2), name


def test_gallery_builds_its_problems_once(monkeypatch):
    """Named regions are built once per process, and an entry's documents
    are parsed once: a second run of an entry builds no direction set or
    polygon and gives the same report."""
    assert cardioid_region() is cardioid_region()
    assert curve_halfplane_set() is curve_halfplane_set()
    first = {name: run_example(name) for name in gallery_names()}
    built = []
    for cls in (DirectionSet, PolygonRegion):
        def counted(self, *args, _init=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    for name in gallery_names():
        assert run_example(name) == first[name], name
    assert built == []


def test_strong_certified_implies_weak_certified():
    for name, p in _gallery_function_problems():
        strong = certify_directional_min(p, weak=False)
        if strong.verdict == "certified_on_grid":
            weak = certify_directional_min(p, weak=True)
            assert weak.verdict == "certified_on_grid", name


def test_monotonicity_in_L():
    # L1 = {(1,0)} is a subset of L2 = {(+-1,0)}: certification wrt L2
    # implies certification wrt L1 on the induced (smaller) sub-grid
    f = builtin("saddle_x2_y2")
    L1 = DirectionSet.finite([[1.0, 0.0]])
    rep2 = certify_directional_min(Problem(f, R_PLUS, L_X_AXIS, (0.0, 0.0)))
    rep1 = certify_directional_min(Problem(f, R_PLUS, L1, (0.0, 0.0)))
    assert rep2.verdict == "certified_on_grid"
    assert rep1.verdict == "certified_on_grid"
    assert rep1.samples <= rep2.samples


def test_refutation_counterexamples_reevaluate():
    for weak in (False, True):
        for name, p in _gallery_function_problems():
            rep = certify_directional_min(p, weak=weak)
            if rep.verdict != "refuted":
                continue
            x, diff = rep.counterexample
            again = p.f(np.array(x)) - p.f(p.x0)
            assert np.allclose(again, diff, atol=1e-9), name
            if weak:
                assert p.K.contains(-again, strict=True), name
            else:
                assert p.K.contains(-again) and not p.K.contains(again), name


# ---------------------------------------------------------------------------
# set certifier

def test_set_min_orthant_trivially_certified():
    for L in (DirectionSet.full_sphere(2), L_X_AXIS):
        rep = certify_set_min(ORTHANT2, [0.0, 0.0], R2_PLUS, L, grid=SMALL)
        assert rep.verdict == "certified_on_grid"


def test_set_min_ball_refuted_on_negative_axis():
    L = DirectionSet.finite([[-1.0, 0.0]])
    rep = certify_set_min(UNIT_BALL, [0.0, 0.0], R2_PLUS, L, grid=SMALL)
    assert rep.verdict == "refuted"
    x, _ = rep.counterexample
    assert x[0] < 0 and abs(x[1]) < 1e-12


def test_set_min_outside_point_rejected():
    with pytest.raises(CertifyError, match="^reference point is not feasible$"):
        certify_set_min(ORTHANT2, [-1.0, 0.0], R2_PLUS, L_X_AXIS)


MISMATCHED_K_L = pytest.mark.parametrize("K, L, message", [
    (R2_PLUS, DirectionSet.full_sphere(3), "direction set"),
    (R2_PLUS, L_PLUS, "direction set"),
    (HalfspaceCone.from_rows(np.eye(3)), L_X_AXIS, "ordering cone"),
], ids=["L-3d", "L-1d", "K-3d"])


@MISMATCHED_K_L
def test_set_min_rejects_mismatched_dimensions(K, L, message):
    with pytest.raises(CertifyError, match=f"^{message} lives in the wrong space$"):
        certify_set_min(ORTHANT2, [0.0, 0.0], K, L, grid=SMALL)


def test_set_walk_tests_membership_one_ray_at_a_time(monkeypatch):
    """The walker asks the set about the whole grid at once: the polygon
    inside curve_halfplane_set gets batches and no one-point query."""
    calls = {"contains": 0, "contains_many": 0}
    for name in calls:
        def counted(self, x, _original=getattr(PolygonRegion, name), _name=name):
            calls[_name] += 1
            return _original(self, x)
        monkeypatch.setattr(PolygonRegion, name, counted)
    rep = certify_set_min(curve_halfplane_set(), (0.0, 0.0), R2_PLUS, _circle(128))
    assert rep.verdict == "refuted"
    assert calls["contains"] == 0
    assert 0 < calls["contains_many"] <= 8  # 128 x 21 points: one batch


LOWER_LEFT = PolyhedralSet.from_rows([[-1.0, 0.0], [0.0, -1.0]], [0.0, 0.0])
# the set, K and L of tests/cli_golden/certify-set-polyhedron-3d.json
ORTHANT3 = PolyhedralSet.from_rows(np.eye(3), np.zeros(3))
R3_PLUS = HalfspaceCone.from_rows(np.eye(3))


@pytest.mark.parametrize("M, K, L, verdicts", [
    (ORTHANT2, R2_PLUS, DirectionSet.full_sphere(2), ("certified_on_grid",) * 2),
    (UNIT_BALL, R2_PLUS, DirectionSet.full_sphere(2), ("refuted",) * 2),
    (LOWER_LEFT, R2_PLUS, DirectionSet.finite([(1.0, 0.0), (0.0, 1.0)]),
     ("certified_on_grid",) * 2),
    (UNIT_BALL, R2_PLUS, DirectionSet.finite([[-1.0, 0.0]]),
     ("refuted", "certified_on_grid")),
    (ORTHANT3, R3_PLUS, DirectionSet.cone_section(R3_PLUS), ("certified_on_grid",) * 2),
], ids=["orthant", "ball", "vacuous-quadrant", "ball-negative-axis", "orthant-3d"])
@pytest.mark.parametrize("weak", [False, True])
def test_set_min_is_the_identity_objective_under_the_set(M, K, L, verdicts, weak):
    """The set certifier walks the grid of the objective certifier for
    f = identity constrained to M, and decides as the walk point by point
    that asks M about one point at a time: same verdict, samples and
    witness."""
    xbar = (0.0,) * M.dim
    rep = certify_set_min(M, xbar, K, L, weak=weak, grid=SMALL)
    f = builtin("identity_2") if M.dim == 2 else identity(M.dim)
    p = Problem(f, K, L, xbar, SMALL, constraint=M)
    assert rep.verdict == verdicts[weak]
    assert rep.as_dict() == certify_directional_min(p, weak=weak).as_dict()
    assert rep.as_dict() == _pointwise_walk(p, weak).as_dict()


@pytest.mark.parametrize("L", [
    DirectionSet.finite([[0.6, -0.8], [-1.0, 0.0], [0.0, 1.0]]),
    DirectionSet.finite([[-0.6, 0.8], [1.0, -0.0], [-0.0, -1.0]]),
    DirectionSet.cone_section(HalfspaceCone.from_rows([[1.0, 0.0], [0.0, 1.0]])),
    DirectionSet.full_sphere(3),
], ids=["finite", "negated", "cone-section", "full-sphere"])
def test_grid_points_are_the_nested_loop_byte_for_byte(L):
    """GridSpec.points is x = xbar + t*ell, ell outer and t inner, with the
    loop's arithmetic; xbar minus the points at the origin is the
    backward walk x = xbar - t*ell, and the openness images sit at
    ray_points(xbar, dirs, eps * steps)."""
    rng = np.random.default_rng(7)
    g = GridSpec(radius=0.37, levels=9, rays_per_level=24, seed=3)
    dirs = direction_samples(L, g.rays_per_level, g.seed)
    for _ in range(5):
        xbar = rng.uniform(-2.0, 2.0, L.dim)
        forward = np.array([xbar + t * ell for ell in dirs for t in g.t_values()])
        assert g.points(xbar, L).tobytes() == forward.tobytes()
        backward = np.array([xbar - t * ell for ell in dirs for t in g.t_values()])
        steps = g.points(np.zeros_like(xbar), L)
        assert (xbar - steps).tobytes() == backward.tobytes()
        eps, steps = 0.125, np.linspace(0.0, 1.0, 33)[1:]
        images = np.array([xbar + eps * t * ell for ell in dirs for t in steps])
        assert ray_points(xbar, dirs, eps * steps).tobytes() == images.tobytes()


# ---------------------------------------------------------------------------
# first-order necessary condition

def test_first_order_identity_holds_right():
    p = Problem(_identity_1d(), R_PLUS, L_PLUS, (0.0,))
    out = check_first_order_necessary(p, [[1.0]])
    assert out["holds"]
    assert not out["checks"][0].violated


def test_first_order_identity_violated_left():
    p = Problem(_identity_1d(), R_PLUS, L_MINUS, (0.0,))
    out = check_first_order_necessary(p, [[-1.0]])
    assert not out["holds"]
    assert out["checks"][0].violated


def test_first_order_saddle_x2_y3_down():
    p = Problem(builtin("saddle_x2_y3"), R_PLUS, L_DOWN, (0.0, 0.0))
    out = check_first_order_necessary(p, [[0.0, -1.0]])
    assert out["holds"]
    assert abs(out["checks"][0].image[0]) <= 1e-9


def test_first_order_rejects_an_empty_direction_list():
    """No direction checked is no evidence: the answer is an error, not holds."""
    p = Problem(_identity_1d(), R_PLUS, L_PLUS, (0.0,))
    with pytest.raises(CertifyError, match="^no direction to check$"):
        check_first_order_necessary(p, [])


@pytest.mark.parametrize("directions", [[[0.0]], [[-0.0]], [[1.0], [0.0], [-1.0]]])
def test_first_order_rejects_the_zero_direction(directions):
    """The image of 0 is never in -int K, so a zero direction would make
    a vacuous check: it is not admissible, and the first one raises."""
    p = Problem(_identity_1d(), R_PLUS, L_BOTH, (0.0,))
    with pytest.raises(CertifyError, match=r"^direction \[-?0\.0\] is zero: not admissible$"):
        check_first_order_necessary(p, directions)


def test_first_order_rejects_direction_outside_cone_L():
    p = Problem(_identity_1d(), R_PLUS, L_PLUS, (0.0,))
    with pytest.raises(CertifyError):
        check_first_order_necessary(p, [[-1.0]])


def test_first_order_rejects_inadmissible_constrained_direction():
    f = _identity_1d()
    mu = SmoothMap("mu", 1, 1, lambda x: x.copy(), lambda x: np.array([[1.0]]))
    p = Problem(f, R_PLUS, L_BOTH, (0.0,), constraint=IneqEq(mu=(mu,)))
    with pytest.raises(CertifyError):
        check_first_order_necessary(p, [[1.0]])  # active grad mu . u > 0
    out = check_first_order_necessary(p, [[-1.0]])
    assert not out["holds"]


def test_first_order_computes_each_constraint_gradient_once(monkeypatch):
    """The active mu and nu gradients are taken once, not per direction."""
    calls = []
    original = SmoothMap.jacobian
    monkeypatch.setattr(SmoothMap, "jacobian",
                        lambda self, x: calls.append(self.name) or original(self, x))
    con = IneqEq(mu=(from_expressions(["x0 + x1"], 2, name="mu0"),
                     from_expressions(["x1 - 1"], 2, name="mu1")),  # inactive
                 nu=(from_expressions(["x0 - x1"], 2, name="nu0"),))
    p = Problem(builtin("saddle_x2_y2"), R_PLUS, DirectionSet.full_sphere(2),
                (0.0, 0.0), constraint=con)
    out = check_first_order_necessary(p, [[-1.0, -1.0]] * 5)
    assert len(out["checks"]) == 5
    assert sorted(calls) == ["mu0", "nu0", "saddle-x2-y2"]
    with pytest.raises(CertifyError, match="violates an active inequality gradient"):
        check_first_order_necessary(p, [[-1.0, -1.0], [1.0, 1.0]])


def _pointwise_first_order(p, directions):
    """Reference: each direction in turn, checked for admissibility (the
    zero direction is not admissible) and then mapped through the
    Jacobian, with one-point products; an empty list is rejected first."""
    if not directions:
        raise CertifyError("no direction to check")
    xbar = p.x0
    jac = p.f.jacobian(xbar)
    active, equality = [], []
    if isinstance(p.constraint, IneqEq):
        active = [m.jacobian(xbar)[0] for m in p.constraint.mu
                  if abs(m(xbar)[0]) <= FEAS_TOL]
        equality = [n.jacobian(xbar)[0] for n in p.constraint.nu]
    checks = []
    for u in directions:
        u = as_vector(u, p.f.dim_in)
        if not u.any():
            raise CertifyError(f"direction {u.tolist()} is zero: not admissible")
        if not cone_contains(p.L, u):
            raise CertifyError(f"direction {u.tolist()} is outside cone L: not admissible")
        if any(float(g @ u) > FEAS_TOL for g in active):
            raise CertifyError(f"direction {u.tolist()} violates an active "
                               "inequality gradient: not admissible")
        if any(abs(float(g @ u)) > FEAS_TOL for g in equality):
            raise CertifyError(f"direction {u.tolist()} violates an equality "
                               "gradient: not admissible")
        img = jac @ u
        checks.append(DirectionCheck(tuple(u), tuple(img), p.K.contains(-img, strict=True)))
    return {"holds": not any(c.violated for c in checks), "checks": checks}


def _first_order_outcome(run):
    """The holds flag and checks, or what was raised; float warnings (an
    infinite Jacobian entry times 0) aside."""
    try:
        with np.errstate(all="ignore"):
            out = run()
    except (CertifyError, EvaluationError, GeometryError, ValueError) as exc:
        return type(exc), str(exc)
    return out["holds"], [(c.direction, c.image, type(c.violated), c.violated)
                          for c in out["checks"]]


# x1 <= 0 for L; mu = x0 + x1 is active at the origin and x0 - 2 is not;
# nu = x0 - 2 x1.  The objective has two outputs, so its image is a
# matrix-vector product, and a third input makes cone L a 3-D section.
FIRST_ORDER = Problem(
    from_expressions(["x0 + 2 * x1 - x2", "x1 + 3 * x2"], 3), R2_PLUS,
    DirectionSet.cone_section(HalfspaceCone.from_rows([[0.0, -1.0, 0.0]])),
    (0.0, 0.0, 0.0),
    constraint=IneqEq(mu=(from_expressions(["x0 + x1"], 3),
                          from_expressions(["x0 - 2"], 3)),
                      nu=(from_expressions(["x0 - 2 * x1"], 3),)))
FIRST_ORDER_DIRECTIONS = {
    "violated": [-2.0, -1.0, 0.0],       # admissible, image in -int K
    "held": [-2.0, -1.0, 1.0],           # admissible, image outside -int K
    "zero": [0.0, 0.0, 0.0],             # in cone L, but not admissible
    "outside-L": [2.0, 1.0, 0.0],        # also breaks mu: the cone L reason wins
    "ascent": [2.0, -1.0, 0.0],          # breaks the active mu, and nu
    "off-equality": [-1.0, -1.0, 0.0],   # only nu
    "short": [1.0, 0.0],
    "non-finite": [np.nan, 0.0, 0.0],
    "matrix": [[1.0, 0.0, 0.0]],
    "ragged": [[1.0], [0.0, 0.0]],
}


INFINITE_JACOBIAN = Problem(
    SmoothMap("infinite-jacobian", 3, 2, FIRST_ORDER.f.fn,
              lambda x: np.array([[1.0, 2.0, np.inf], [0.0, 1.0, 3.0]])),
    R2_PLUS, FIRST_ORDER.L, FIRST_ORDER.xbar, constraint=FIRST_ORDER.constraint)


# finite, but the images of directions with |x2| > 1.8 overflow
OVERFLOWING_JACOBIAN = Problem(
    SmoothMap("overflowing-jacobian", 3, 2, FIRST_ORDER.f.fn,
              lambda x: np.array([[1.0, 2.0, 1e308], [0.0, 1.0, 3.0]])),
    R2_PLUS, FIRST_ORDER.L, FIRST_ORDER.xbar, constraint=FIRST_ORDER.constraint)


def test_first_order_warns_about_no_direction_past_the_first_failure():
    """An analytic Jacobian with an infinite entry is rejected where it is
    evaluated, naming the map and the point, before any direction is
    mapped: no inf * 0 and no warning for the zero direction."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvaluationError, match=(
                r"^infinite-jacobian: the Jacobian at \[0.0, 0.0, 0.0\] has non-finite entries$")):
            check_first_order_necessary(INFINITE_JACOBIAN, [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])


@pytest.mark.parametrize("names", [
    ["violated", "held", "zero"],
    ["held", "outside-L", "violated"],
    ["held", "ascent", "outside-L"],
    ["off-equality", "ascent"],
    ["held", "short", "outside-L"],
    ["held", "outside-L", "short"],
    ["violated", "non-finite"],
    ["matrix", "ascent"],
    ["zero", "ragged"],
    [],
])
def test_first_order_matches_a_one_point_loop(names):
    """The first non-admissible direction in input order raises, and a
    malformed one only when no direction before it is non-admissible."""
    dirs = [FIRST_ORDER_DIRECTIONS[n] for n in names]
    got = _first_order_outcome(lambda: check_first_order_necessary(FIRST_ORDER, dirs))
    assert got == _first_order_outcome(lambda: _pointwise_first_order(FIRST_ORDER, dirs))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.one_of(
    st.sampled_from(sorted(FIRST_ORDER_DIRECTIONS)),
    st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3)), max_size=8))
def test_first_order_with_random_directions_matches_a_one_point_loop(items):
    """Also with no constraint, with a Jacobian whose images overflow,
    which the one-point loop rejects at the first admissible direction,
    and with an infinite Jacobian, which both reject before any direction."""
    dirs = [FIRST_ORDER_DIRECTIONS[i] if isinstance(i, str) else i for i in items]
    for p in (FIRST_ORDER, OVERFLOWING_JACOBIAN, INFINITE_JACOBIAN,
              Problem(FIRST_ORDER.f, R2_PLUS, DirectionSet.full_sphere(3), (0.0, 0.0, 0.0))):
        assert (_first_order_outcome(lambda: check_first_order_necessary(p, dirs))
                == _first_order_outcome(lambda: _pointwise_first_order(p, dirs)))


def test_weakly_certified_gallery_passes_first_order():
    # every weakly certified gallery function problem must pass the
    # first-order check on its (finite) admissible directions
    for name, p in _gallery_function_problems():
        rep = certify_directional_min(p, weak=True)
        if rep.verdict != "certified_on_grid":
            continue
        out = check_first_order_necessary(p, list(p.L.vectors))
        assert out["holds"], name


# ---------------------------------------------------------------------------
# exact tangent sufficiency for polyhedral sets

def test_sufficiency_orthant_met():
    for L in (DirectionSet.full_sphere(2), L_X_AXIS):
        for weak in (True, False):
            out = tangent_sufficiency_sets(ORTHANT2, [0.0, 0.0], R2_PLUS, L,
                                           weak=weak)
            assert out["verdict"] == "sufficient condition met", (L, weak)


def test_sufficiency_halfplane_weak_met_down():
    M = PolyhedralSet.from_rows([[1.0, 0.0]], [0.0])
    out = tangent_sufficiency_sets(M, [0.0, 0.0], R2_PLUS, L_DOWN, weak=True)
    assert out["verdict"] == "sufficient condition met"


def test_sufficiency_tilted_halfplane_violated():
    M = PolyhedralSet.from_rows([[-1.0, 1.0]], [0.0])  # x2 >= x1
    L = DirectionSet.cone_section(
        HalfspaceCone.from_rows([[-1.0, 0.0], [0.0, -1.0]]))
    out = tangent_sufficiency_sets(M, [0.0, 0.0], R2_PLUS, L, weak=True)
    assert out["verdict"] == "condition violated, no certificate"
    w = np.array(out["witness"])
    assert np.all(w < 0)  # witness sits in -int K
    # confirmed by the sampling certifier
    rep = certify_set_min(M, [0.0, 0.0], R2_PLUS, L, weak=True, grid=SMALL)
    assert rep.verdict == "refuted"


def test_sufficiency_needs_polyhedral_set():
    with pytest.raises(CertifyError):
        tangent_sufficiency_sets(UNIT_BALL, [0.0, 0.0], R2_PLUS, L_X_AXIS)


def test_sufficiency_outside_point_rejected():
    with pytest.raises(CertifyError, match="^reference point is not feasible$"):
        tangent_sufficiency_sets(ORTHANT2, [-1.0, 0.0], R2_PLUS, L_X_AXIS)


@MISMATCHED_K_L
@pytest.mark.parametrize("weak", [True, False])
def test_sufficiency_rejects_mismatched_dimensions(K, L, message, weak):
    """The errors certify_set_min gives, not an LP or numpy shape error,
    and no verdict for a 3-d L around a planar M."""
    with pytest.raises(CertifyError, match=f"^{message} lives in the wrong space$"):
        tangent_sufficiency_sets(ORTHANT2, [0.0, 0.0], K, L, weak=weak)


# ---------------------------------------------------------------------------
# openness falsifier

def test_openness_saddle_witness():
    f = builtin("saddle_x2_y2")
    C = DirectionSet.finite([[1.0]])  # targets f(xbar) - r, i.e. below 0
    out = openness_falsifier(f, [0.0, 0.0], L_X_AXIS, C)
    assert out["status"] == "witness"
    assert out["missed"]


def test_openness_identity_one_sided_witness():
    f = _identity_1d()
    out = openness_falsifier(f, [0.0], L_PLUS, DirectionSet.finite([[1.0]]))
    assert out["status"] == "witness"


def test_openness_identity_two_sided_inconclusive():
    f = _identity_1d()
    out = openness_falsifier(f, [0.0], L_BOTH, DirectionSet.finite([[1.0]]))
    assert out["status"] == "inconclusive"


# a circle of directions on the identity: open, so the defaults find no witness
CIRCLE_64 = DirectionSet.finite([[np.cos(a), np.sin(a)]
                                 for a in np.arange(64) * (2.0 * np.pi / 64)])


@pytest.mark.parametrize("schedule", ["eps_schedule", "r_schedule"])
@pytest.mark.parametrize("value", [-0.5, -0.1, 0.0, -0.0, np.nan, np.inf, -np.inf])
def test_openness_rejects_a_schedule_entry_that_is_not_positive(schedule, value):
    """A step of length <= 0 or a target at r <= 0 is no test of openness:
    unchecked, such an entry reports a witness for this open map."""
    with pytest.raises(CertifyError, match=f"^{schedule} entries must be positive and finite, "
                                           f"got {re.escape(repr(value))}$"):
        openness_falsifier(identity(2), [0.0, 0.0], CIRCLE_64,
                           DirectionSet.finite([[0.6, 0.8]]),
                           **{schedule: [0.25, value]})


@pytest.mark.parametrize("schedule", ["eps_schedule", "r_schedule"])
def test_openness_rejects_an_empty_schedule(schedule):
    """An empty schedule searches nothing, which is no evidence either way:
    unchecked, it would report inconclusive for this open map."""
    with pytest.raises(CertifyError, match=f"^{schedule} is empty: nothing to search$"):
        openness_falsifier(identity(2), [0.0, 0.0], CIRCLE_64,
                           DirectionSet.finite([[0.6, 0.8]]), **{schedule: []})


def test_strongly_certified_gallery_has_openness_witness():
    # a strong directional minimum forbids reaching values below f(xbar)
    # along cone L, so targets stepping into K \ -K must be missed
    for name, p in _gallery_function_problems():
        rep = certify_directional_min(p, weak=False)
        if rep.verdict != "certified_on_grid" or rep.samples == 0:
            continue
        # target direction inside K \ -K: the first lattice direction
        # strictly inside K
        c = next(v for v in sphere_lattice(p.K.dim, 64) if p.K.contains(v, strict=True))
        assert p.K.contains(c) and not p.K.contains(-c)
        out = openness_falsifier(p.f, p.x0, p.L, DirectionSet.finite([c]))
        assert out["status"] == "witness", name
