import math

import numpy as np
import pytest

from dirpareto.expressions import (
    EvaluationError,
    ExpressionError,
    evaluate,
    parse_condition,
    parse_expression,
    piecewise_from_spec,
)


def ev(text, *xs):
    return evaluate(parse_expression(text), np.array(xs, dtype=float))


def test_saddle_values():
    assert ev("x0^2 - x1^2", 0.0, 0.0) == 0.0
    assert ev("x0^2 - x1^2", 0.0, 1.0) == -1.0
    assert ev("x0^2 - x1^3", 0.0, -1.0) == 1.0


def test_sin_inverse():
    assert ev("sin(1/x0)", 2.0 / math.pi) == pytest.approx(1.0, abs=1e-12)


def test_precedence_and_associativity():
    assert ev("2 + 3 * 4") == 14.0
    assert ev("2 * 3 ^ 2") == 18.0
    assert ev("-2 ^ 2") == -4.0          # ^ binds tighter than unary -
    assert ev("2 ^ 3 ^ 2") == 512.0      # right associative
    assert ev("8 - 3 - 2") == 3.0        # left associative
    assert ev("8 / 4 / 2") == 1.0
    assert ev("(8 - 3) - 2") == 3.0


def test_functions_and_pi():
    assert ev("cos(pi)") == pytest.approx(-1.0, abs=1e-12)
    assert ev("atan2(x1, x0)", 0.0, 1.0) == pytest.approx(math.pi / 2)
    assert ev("abs(-3)") == 3.0
    assert ev("sqrt(9)") == 3.0
    assert ev("atan(1)") == pytest.approx(math.pi / 4)


def test_syntax_error_has_position():
    with pytest.raises(ExpressionError) as ei:
        parse_expression("x0 + * 2")
    assert ei.value.position == 5


def test_unknown_identifier():
    with pytest.raises(ExpressionError):
        parse_expression("y0 + 1")
    with pytest.raises(ExpressionError):
        parse_expression("foo(1)")


def test_trailing_input_rejected():
    with pytest.raises(ExpressionError):
        parse_expression("1 + 2 )")


def test_evaluation_errors():
    with pytest.raises(EvaluationError):
        ev("1 / x0", 0.0)
    with pytest.raises(EvaluationError):
        ev("2 ^ 0.5")
    with pytest.raises(EvaluationError):
        ev("sqrt(-1)")
    with pytest.raises(EvaluationError):
        ev("x3", 1.0)


@pytest.mark.parametrize("text, xs, message", [
    ("(x0 - x0)^(-1) + x1", (0.0, 0.0), "zero raised to the negative power -1"),
    ("(x0 + 10)^400 - x1^2", (0.0, 0.0), "10.0^400 overflows the float range"),
    ("x0^(-3)", (1e-200,), "1e-200^-3 overflows the float range"),
    ("2^(x0 * 1e308 * 10)", (1.0,), "exponent must be an integer, got inf"),
], ids=["zero-base-negative-power", "overflow", "negative-power-overflow",
        "infinite-exponent"])
def test_power_errors_are_evaluation_errors(text, xs, message):
    """Python's ZeroDivisionError and OverflowError (and round() of an
    infinite exponent) surface as one-line EvaluationErrors."""
    with pytest.raises(EvaluationError) as info:
        ev(text, *xs)
    assert str(info.value) == message


@pytest.mark.parametrize("text, message", [
    ("sin(x0 * 1e308 * 10) + x1", "sin(inf) is undefined"),
    ("cos(-x0 * 1e308 * 10)", "cos(-inf) is undefined"),
])
def test_math_domain_errors_are_evaluation_errors(text, message):
    """math's bare ValueError surfaces as an EvaluationError naming the
    function and its argument."""
    with pytest.raises(EvaluationError) as info:
        ev(text, 1.0, 0.0)
    assert str(info.value) == message


def test_power_underflow_is_zero():
    assert ev("x0^3", 1e-110) == 0.0
    assert ev("x0^(-400)", 10.0) == 0.0


def test_conditions():
    cond = parse_condition("x0 > 0 and x1 <= 2")
    assert evaluate(cond, np.array([1.0, 2.0]))
    assert not evaluate(cond, np.array([1.0, 3.0]))
    cond2 = parse_condition("x0 < 0 or x0 > 1")
    assert evaluate(cond2, np.array([-0.5]))
    assert not evaluate(cond2, np.array([0.5]))


def test_comparison_not_allowed_in_expression():
    with pytest.raises(ExpressionError):
        parse_expression("x0 > 1")


def test_piecewise():
    pw = piecewise_from_spec([
        ("x0 < 0", "-x0"),
        (None, "x0"),
    ])
    assert evaluate(pw, np.array([-2.0])) == 2.0
    assert evaluate(pw, np.array([3.0])) == 3.0


def test_piecewise_no_match():
    pw = piecewise_from_spec([("x0 < 0", "1")])
    with pytest.raises(EvaluationError):
        evaluate(pw, np.array([1.0]))
