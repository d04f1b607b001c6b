"""Array-at-a-time map evaluation: ``SmoothMap.eval_many(X)`` equals the
stacked one-point calls bit for bit, for the builtins, the sector maps and
generated expressions, on random points and on the points where a branch,
an overflow or a domain edge decides; and it raises what the one-point call
on the first raising row raises."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dirpareto.expressions import (
    FUNCTIONS,
    Bin,
    Call,
    EvaluationError,
    ExpressionError,
    Neg,
    Num,
    Var,
    int_power,
    parse_expression,
)
from dirpareto.gallery import SECTOR_T1, SECTOR_T2
from dirpareto.geometry import GeometryError
from dirpareto.maps import (
    BUILTINS,
    FD_STEP,
    SmoothMap,
    builtin,
    finite_difference_jacobian,
    from_expressions,
    sector_map,
)

# signed zeros, the extremes of the float range, subnormals, the edge where
# 1/x overflows (|x| near 5.56e-309), where x^2 and x^3 overflow, and plain
# values, some of them negative bases
ADVERSARIAL = [0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, 5e-324, -5e-324,
               5.5e-309, 5.6e-309, -5.6e-309, 1.3e154, 1.4e154, 5.6e102, -5.7e102,
               1e-160, 1.0, -1.0, 0.5, -0.5, 2.0, -3.0, 0.25, 10.0]

COORD = st.one_of(st.sampled_from(ADVERSARIAL), st.floats(-4.0, 4.0),
                  st.floats(allow_nan=False, allow_infinity=False))


def _points(dim, coord=COORD):
    return hnp.arrays(np.float64, st.tuples(st.integers(0, 12), st.just(dim)),
                      elements=coord)


def _one_point(f, X):
    """The stacked one-point calls, or the exception of the first row that
    raises and the rows before it; under the errstate of ``eval_rows``, so
    a numpy warning is never the raising exception."""
    rows = []
    with np.errstate(all="ignore"):
        for x in X:
            try:
                rows.append(f(x))
            except Exception as exc:  # the reference keeps what the row raised
                return np.array(rows).reshape(-1, f.dim_out), exc
    return np.array(rows).reshape(len(X), f.dim_out), None


def _assert_parity(f, X):
    want, exc = _one_point(f, X)
    got, error = f.eval_rows(X)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    if exc is None:
        assert error is None
        got = f.eval_many(X)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
    else:
        assert type(error) is type(exc) and str(error) == str(exc)
        with pytest.raises(type(exc)) as info:
            f.eval_many(X)
        assert type(info.value) is type(exc) and str(info.value) == str(exc)


# ---------------------------------------------------------------------------
# builtins and sector maps

def _sector_boundaries(t1, t2):
    """Points on both boundary rays, the axes and the third-quadrant edge."""
    rays = [(math.cos(t), math.sin(t)) for t in (t1, t2)]
    return np.array(rays + [(0.0, 1.0), (0.0, -1.0), (-0.0, 2.0), (-1.0, 0.0),
                            (-1.0, -0.0), (-1.0, -1e-300), (1e-300, 1e300),
                            (5e-324, 1.0), (-5e-324, -1.0), (1.0, 0.0)])


MAPS = {name: make() for name, make in BUILTINS.items()}
MAPS["sector-gallery"] = sector_map(SECTOR_T1, SECTOR_T2)
MAPS["sector-wide"] = sector_map(-2.5, 2.5)


def _sector_reference(t1, t2):
    """``sector_map``'s value by cases, one point at a time."""
    def fn(x):
        if x[0] == 0.0:
            return np.array([0.0])
        if x[0] < 0.0 and x[1] < 0.0:
            return np.array([-1.0])
        ang = np.arctan(x[1] / x[0])
        return np.array([(t2 - ang) * (ang - t1)])
    return fn


# each map of MAPS as a one-point formula on scalars, the cases written out
REFERENCES = {
    "saddle_x2_y2": lambda x: np.array([int_power(x[0], 2) - int_power(x[1], 2)]),
    "saddle_x2_y3": lambda x: np.array([int_power(x[0], 2) - int_power(x[1], 3)]),
    "sin_inv_x": lambda x: np.array([np.sin(1.0 / x[0]) if x[0] != 0.0 else 0.0]),
    "x3_sin_inv_x": lambda x: np.array(
        [int_power(x[0], 3) * np.sin(1.0 / x[0]) if x[0] != 0.0 else 0.0]),
    "vector_2x_x": lambda x: np.array([2 * x[0], x[0]]),
    "vector_pair_saddle": lambda x: np.array([int_power(x[0], 2) - int_power(x[1], 2),
                                              int_power(x[0], 2) - int_power(x[1], 3)]),
    "identity_1": lambda x: x.copy(),
    "identity_2": lambda x: x.copy(),
    "sector-gallery": _sector_reference(SECTOR_T1, SECTOR_T2),
    "sector-wide": _sector_reference(-2.5, 2.5),
}


def _assert_reference(name, X):
    """On each row the one-point call equals the reference bit for bit and
    warns exactly where the reference warns."""
    f, ref = MAPS[name], REFERENCES[name]
    for x in X:
        with warnings.catch_warnings(record=True) as want_warned:
            warnings.simplefilter("always")
            want = ref(x)
        with warnings.catch_warnings(record=True) as warned:
            warnings.simplefilter("always")
            got = f(x)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), x
        assert bool(warned) == bool(want_warned), (x, warned, want_warned)


def test_every_map_has_a_reference():
    assert sorted(REFERENCES) == sorted(MAPS)


@pytest.mark.parametrize("name", sorted(MAPS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_builtin_batch_matches_one_point_calls(name, data):
    f = MAPS[name]
    X = data.draw(_points(f.dim_in))
    _assert_parity(f, X)
    _assert_reference(name, X)


@pytest.mark.parametrize("name", sorted(MAPS))
def test_builtin_batch_on_adversarial_grid(name):
    """Every pair of adversarial coordinates and random points with
    exponents across the float range, one row at a time and as one array;
    the one-point calls that overflow give inf, not RuntimeWarning."""
    f = MAPS[name]
    vals = np.array(ADVERSARIAL)
    X = (vals[:, None] if f.dim_in == 1 else
         np.stack(np.meshgrid(vals, vals, indexing="ij"), axis=-1).reshape(-1, 2))
    if f.dim_in == 2:
        X = np.vstack([X, _sector_boundaries(SECTOR_T1, SECTOR_T2),
                       _sector_boundaries(-2.5, 2.5)])
    rng = np.random.default_rng(29)
    shape = (500, f.dim_in)
    X = np.vstack([X, rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)])
    for x in X:
        _assert_parity(f, x[None])
    _assert_parity(f, X)
    _assert_reference(name, X)


@pytest.mark.parametrize("name", sorted(MAPS))
def test_batch_forms_make_no_one_point_call(name, monkeypatch):
    """On ordinary points the batch form answers every row itself."""
    f = MAPS[name]
    X = np.random.default_rng(3).uniform(-2.0, 2.0, (50, f.dim_in))
    want = np.array([REFERENCES[name](x) for x in X])
    calls = []
    monkeypatch.setattr(SmoothMap, "__call__", lambda self, x: calls.append(x))
    assert f.eval_many(X).tobytes() == want.tobytes()
    assert calls == []


# ---------------------------------------------------------------------------
# generated expressions

NUMS = st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, -3.0, 1e-300, 1e300, 1e154, math.pi])
EXPONENTS = st.sampled_from([-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 5.0, 7.0, 400.0, 0.5,
                             2.0 + 1e-13])


def _call(sub):
    return st.sampled_from(sorted(FUNCTIONS)).flatmap(
        lambda name: st.tuples(*[sub] * FUNCTIONS[name][0]).map(
            lambda args: Call(name, args)))


def _expressions(dim):
    leaves = st.one_of(st.builds(Num, NUMS), st.builds(Var, st.integers(0, dim - 1)))

    def extend(sub):
        return st.one_of(
            st.builds(Neg, sub),
            st.builds(Bin, st.sampled_from("+-*/"), sub, sub),
            st.builds(Bin, st.just("^"), sub,
                      st.one_of(st.builds(Num, EXPONENTS), sub)),
            _call(sub))
    return st.recursive(leaves, extend, max_leaves=10)


EXPRESSION_LISTS = {dim: st.lists(_expressions(dim), min_size=1, max_size=2)
                    for dim in (1, 2, 3)}
EXPRESSION_POINTS = {dim: _points(dim, st.one_of(st.sampled_from(ADVERSARIAL),
                                                 st.floats(-4.0, 4.0)))
                     for dim in (1, 2, 3)}


@pytest.mark.parametrize("dim", [1, 2, 3])
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=st.data())
def test_expression_batch_matches_one_point_calls(dim, data):
    f = from_expressions(data.draw(EXPRESSION_LISTS[dim]), dim)
    _assert_parity(f, data.draw(EXPRESSION_POINTS[dim]))


# one text per node type and function, with the points where each branch
# or domain edge decides
EXPRESSION_CASES = [
    "x0 + x1 - 2.5 * x0 / (x1 - 0.5)",
    "-x0^2 - x1^3 + x0^(-2)",
    "(x0 + 10)^400 - x1^2",
    "(x0 - x0)^(-1) + x1",
    "x0^x1",
    "x0^0 * x1^1",
    "x0^(-1) - x1^(-3)",
    "x0^7 - (x0 * x1)^x1",
    "sin(x0) + cos(x1) + atan(x0 / x1) + atan2(x1, x0)",
    "abs(x0) * sqrt(x1)",
    "sin(x0 * 1e308 * 10)",
    "1 / (x0 * x1)",
]
CASE_POINTS = np.array([[0.0, 0.0], [-0.0, 1.0], [0.5, 0.5], [0.5, -2.0], [1.0, 0.0],
                        [-1.0, 2.0], [1e300, 1.0], [1e-300, 0.5], [-10.0, 0.0],
                        [4.0, 2.0], [2.0, -3.0], [0.25, 0.25], [-3.0, -1e-300]])


# numpy's arctan differs from libm, and numpy's power from the products of
# int_power, on about 1 point in 1000 of these (more for cubes), so a wrong
# ufunc shows here
_rng = np.random.default_rng(7)
RANDOM_POINTS = _rng.standard_normal((10000, 2)) * 10.0 ** _rng.integers(-3, 4, (10000, 2))


@pytest.mark.parametrize("text", EXPRESSION_CASES)
def test_expression_cases_on_boundary_points(text):
    f = from_expressions([text], 2)
    for x in CASE_POINTS:
        _assert_parity(f, x[None])
    _assert_parity(f, CASE_POINTS)
    _assert_parity(f, CASE_POINTS[::-1])
    _assert_parity(f, RANDOM_POINTS[:2000])


@pytest.mark.parametrize("text", ["atan(x0)", "x0^2", "x0^3", "x0^(-5)", "x0^0", "x0^1",
                                  "x0^(-1)", "x0^(-3)", "x0^7"])
def test_libm_calls_on_many_points(text):
    """One libm call per element for ``atan``, and ``int_power`` on both
    sides for ``^``: numpy's own loops miss some of these."""
    f = from_expressions([text], 1)
    _assert_parity(f, RANDOM_POINTS.reshape(-1, 1)[:20000])


# ---------------------------------------------------------------------------
# errors

@pytest.mark.parametrize("texts, rows, message", [
    (["1/x0"], [[1.0], [0.0], [2.0], [0.0]], "division by zero"),
    (["sqrt(x0)", "1/x0"], [[1.0], [-1.0], [0.0]], "sqrt of a negative number"),
    (["1/x0", "sqrt(x0)"], [[4.0], [-1.0], [0.0]], "sqrt of a negative number"),
    (["x0^x0"], [[2.0], [0.5]], "exponent must be an integer, got 0.5"),
    (["(x0 - x0)^(-1)"], [[1.0]], "zero raised to the negative power -1"),
    (["(x0 + 10)^400"], [[-10.5], [0.0]], "10.0^400 overflows the float range"),
    (["x0^(x0 * 1e308 * 10)"], [[1.0]], "exponent must be an integer, got inf"),
    (["x0^(-1)"], [[2.0], [0.0], [1e-200]], "zero raised to the negative power -1"),
    (["x0^(-3)"], [[2.0], [1e-200], [0.0]], "1e-200^-3 overflows the float range"),
    (["x0^7"], [[-2.0], [-1e50]], "-1e+50^7 overflows the float range"),
    (["x0^0", "1 / x0^1"], [[5.0], [0.0]], "division by zero"),
    (["x0^(x0 - 2)"], [[3.0], [-1.0], [0.0]], "zero raised to the negative power -2"),
    (["(x0 * 1e100)^x0"], [[1.0], [4.0]], "4e+100^4 overflows the float range"),
    (["sin(x0 * 1e308 * 10)"], [[0.0], [1.0], [2.0]], "sin(inf) is undefined"),
], ids=["division", "first-row-first-output", "first-row-second-output",
        "fractional-exponent", "zero-power", "overflow", "infinite-exponent",
        "reciprocal-of-zero", "negative-power-underflow", "seventh-power-overflow",
        "zeroth-and-first-power", "computed-zero-power", "computed-overflow",
        "sin-of-inf"])
def test_eval_many_raises_the_first_raising_rows_error(texts, rows, message):
    f = from_expressions(texts, 1)
    _assert_parity(f, np.array(rows))
    with pytest.raises(EvaluationError, match=f"^{re.escape(message)}$"):
        f.eval_many(rows)


@pytest.mark.parametrize("texts, message", [
    (["x1"], "variable x1 out of range for dim 1"),
    (["x0", "sin(x0) + x2"], "variable x2 out of range for dim 1"),
    ([Bin("%", Num(1.0), Var(0))], "cannot evaluate node Bin(op='%', left=Num(value=1.0), "
                                   "right=Var(index=0))"),
], ids=["variable-range", "variable-range-second-output", "unknown-node"])
def test_a_node_no_point_can_evaluate_is_a_compile_error(texts, message):
    """A variable past dim_in, or a node the language lacks, fails when
    the map is built, not at the first point evaluated."""
    with pytest.raises(ExpressionError, match=f"^{re.escape(message)}$"):
        from_expressions(texts, 1)


def test_map_with_only_fn_loops_over_the_rows():
    def fn(x):
        if x[0] < 0.0:
            raise ValueError(f"negative input {x[0]}")
        return np.array([x[0], 2.0 * x[0]])
    f = SmoothMap("loop", 1, 2, fn)
    _assert_parity(f, np.array([[1.0], [0.0], [3.0]]))
    _assert_parity(f, np.array([[1.0], [-1.0], [-2.0]]))
    with pytest.raises(ValueError, match="^negative input -1.0$"):
        f.eval_many([[1.0], [-1.0], [-2.0]])


@pytest.mark.parametrize("f", [builtin("saddle_x2_y2"), from_expressions(["x0 * x1"], 2),
                               SmoothMap("loop", 2, 1, lambda x: x[:1] + x[1:])],
                         ids=["builtin", "expression", "fn-only"])
def test_malformed_and_empty_batches(f):
    assert f.eval_many(np.zeros((0, 2))).shape == (0, 1)
    for X in ([[0.0, 1.0], [np.nan, 1.0]], [[0.0, np.inf]], [[0.0, 1.0, 2.0]], [1.0, 2.0]):
        _assert_parity(f, np.asarray(X))
    with pytest.raises(GeometryError, match="non-finite"):
        f.eval_many([[1.0, 1.0], [np.inf, 0.0]])


def test_parsed_and_built_nodes_agree():
    """from_expressions takes parsed text and nodes alike."""
    node = parse_expression("x0^2 - x1")
    X = np.array([[1.5, 2.0], [-3.0, 0.5]])
    assert (from_expressions([node], 2).eval_many(X).tobytes()
            == from_expressions(["x0^2 - x1"], 2).eval_many(X).tobytes())


# ---------------------------------------------------------------------------
# finite-difference Jacobian: one batch over the stencil

def _fd_one_point(f, x):
    """Central differences one stencil pair at a time."""
    h = FD_STEP * (1.0 + np.linalg.norm(x))
    J = np.zeros((f.dim_out, f.dim_in))
    for k in range(f.dim_in):
        e = np.zeros(f.dim_in)
        e[k] = h
        J[:, k] = (f(x + e) - f(x - e)) / (2.0 * h)
    return J


@pytest.mark.parametrize("texts", [["x0 * x1 - x2^3", "sin(x0) + x1 / (1 + x2^2)"],
                                   ["atan2(x1, x0) * x2"]])
@pytest.mark.parametrize("x", [[0.0, -0.0, 1.5], [-2.0, 0.25, 1e-3], [3.0, -4.0, 12.0]])
def test_fd_jacobian_matches_one_pair_at_a_time(texts, x):
    f = from_expressions(texts, 3)
    x = np.array(x)
    J = finite_difference_jacobian(f, x)
    assert J.flags.c_contiguous and J.shape == (len(texts), 3)
    assert J.tobytes() == _fd_one_point(f, x).tobytes()


def test_fd_jacobian_raises_at_the_first_raising_stencil_point():
    """The stencil runs x + e_0, x - e_0, x + e_1, ...: x - e_0 raises first."""
    def fn(x):
        if x[0] < 0.0 or x[1] > 0.0:
            raise ValueError(f"undefined at {x.tolist()}")
        return x[:1]
    h = FD_STEP
    with pytest.raises(ValueError, match=re.escape(f"undefined at {[-h, 0.0]}")):
        finite_difference_jacobian(SmoothMap("edge", 2, 1, fn), np.zeros(2))


def test_non_finite_fd_jacobian_is_an_evaluation_error():
    f = from_expressions(["x0 * 1e308 * 10 + x1"], 2, name="overflow")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvaluationError, match=re.escape(
                "overflow: the finite-difference Jacobian at [0.0, 1.0] has non-finite entries")):
            f.jacobian([0.0, 1.0])


def test_jacobian_image_matches_the_directional_difference_quotient():
    """f'(x̄)u, the first-order change of f along u, agrees with a central
    difference quotient taken along u itself."""
    f = from_expressions(["x0^2 + sin(x1)", "x0 * x1"], 2)
    xbar = np.array([0.4, -0.7])
    u = np.array([1.0, 0.5])
    h = 1e-6
    fd = (f(xbar + h * u) - f(xbar - h * u)) / (2 * h)
    assert np.allclose(f.jacobian(xbar) @ u, fd, atol=1e-5)


@pytest.mark.parametrize("t", [0.0, 0.3, -1.7])
def test_x3_sin_inv_x_analytic_jacobian(t):
    """f'(0) = 0 (|f(t)| <= |t|^3); elsewhere the closed form, which the
    difference quotient approaches."""
    f = builtin("x3_sin_inv_x")
    want = 0.0 if t == 0.0 else 3 * t ** 2 * math.sin(1 / t) - t * math.cos(1 / t)
    J = f.jacobian([t])
    assert J.shape == (1, 1) and J[0, 0] == pytest.approx(want, rel=1e-12, abs=0.0)
    assert J[0, 0] == pytest.approx(finite_difference_jacobian(f, np.array([t]))[0, 0],
                                    abs=1e-6)
