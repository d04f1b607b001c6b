import math
import re
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from dirpareto.expressions import (
    Bin,
    EvaluationError,
    ExpressionError,
    Neg,
    Num,
    Var,
    compile_rows,
    int_power,
    parse_expression,
)
from dirpareto.maps import from_expressions


def at(node, *xs):
    """The value of ``node`` at the point ``xs``, in point mode."""
    return compile_rows(node, len(xs))([float(x) for x in xs], None)


def ev(text, *xs):
    return at(parse_expression(text), *xs)


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


def test_a_digit_that_is_not_decimal_is_no_variable_index():
    """'²' passes str.isdigit, but only decimal digits index a variable."""
    with pytest.raises(ExpressionError, match=r"^unknown identifier 'x²' \(at position 0\)$"):
        parse_expression("x²")
    assert parse_expression("x٣") == Var(3)


# (text, (message, position))
PARSE_ERRORS = [
    ("1.2.3", ("bad number literal '1.2.3'", 0)),
    ("1e+", ("bad number literal '1e+'", 0)),
    (".e5", ("bad number literal '.e5'", 0)),
    ("x0 * 2e", ("bad number literal '2e'", 5)),
    ("$", ("unexpected character '$'", 0)),
    ("=", ("unexpected character '='", 0)),
    ("!", ("unexpected character '!'", 0)),
    ("x0 ! 1", ("unexpected character '!'", 3)),
    ("x0 + ½", ("unexpected character '½'", 5)),
    ("x0 + * 2", ("expected a number, variable, function, or '(', found '*'", 5)),
    ("1 + 2 )", ("unexpected trailing input ')'", 6)),
    ("x0 , 1", ("unexpected trailing input ','", 3)),
    ("(x0", ("expected ')', found None", 3)),
    ("atan2(x0)", ("atan2 takes 2 argument(s), got 1", 0)),
    ("sin(x0, x1)", ("sin takes 1 argument(s), got 2", 0)),
    ("foo(1)", ("unknown function 'foo'", 0)),
    ("y0", ("unknown identifier 'y0'", 0)),
    ("", ("expected a number, variable, function, or '(', found None", 0)),
    ("  ", ("expected a number, variable, function, or '(', found None", 2)),
    ("2 ^", ("expected a number, variable, function, or '(', found None", 3)),
    ("x0 < 1", ("unexpected trailing input '<'", 3)),
    ("x0 < 1 < 2", ("unexpected trailing input '<'", 3)),
    ("4 and x0 < 9 >", ("unexpected trailing input 'and'", 2)),
    ("x0 <= 1 or", ("unexpected trailing input '<='", 3)),
]


@pytest.mark.parametrize("text, error", PARSE_ERRORS,
                         ids=[repr(case[0]) for case in PARSE_ERRORS])
def test_parse_errors_name_the_token_and_its_position(text, error):
    with pytest.raises(ExpressionError) as ei:
        parse_expression(text)
    message, position = error
    assert (str(ei.value), ei.value.position) == (
        f"{message} (at position {position})", position)


def test_arithmetic_groups_by_precedence():
    """+ - < * / < unary - < ^; + - * / associate to the left, ^ to the right."""
    x0, x1, one = Var(0), Var(1), Num(1.0)
    assert parse_expression("x0 - 1 - x1 * x0 / 1") == Bin(
        "-", Bin("-", x0, one), Bin("/", Bin("*", x1, x0), one))
    assert parse_expression("-x1 ^ 1 ^ x0") == Neg(Bin("^", x1, Bin("^", one, x0)))


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


@pytest.mark.parametrize("text, xs, message", [
    ("(1/x0)^2.5", (0.0,), "division by zero"),
    ("(1/x0)^2.5", (2.0,), "exponent must be an integer, got 2.5"),
    ("(1/x0)^(x1 + 0.5)", (0.0, 1.0), "division by zero"),
    ("x0^(1/x1)", (0.0, 0.0), "division by zero"),
    ("sqrt(x0) + 1/x1", (-1.0, 0.0), "sqrt of a negative number"),
    ("1/x1 + sqrt(x0)", (-1.0, 0.0), "division by zero"),
], ids=["base-before-literal-exponent", "literal-exponent", "base-before-exponent",
        "exponent-before-power", "left-operand-first", "right-operand-second"])
def test_the_first_rule_to_fail_left_to_right_raises(text, xs, message):
    """Nodes run left to right, the base of '^' before its exponent; the
    first rule that fails names the error, in point mode and in a batch."""
    with pytest.raises(EvaluationError, match=f"^{re.escape(message)}$"):
        ev(text, *xs)
    with pytest.raises(EvaluationError, match=f"^{re.escape(message)}$"):
        from_expressions([text], len(xs)).eval_many([xs])


def test_power_underflow_is_zero():
    assert ev("x0^3", 1e-110) == 0.0
    assert ev("x0^(-400)", 10.0) == 0.0


# signed zeros and infinities, nan, subnormals and the extremes of the range
SPECIAL_BASES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                 2.5e-310, -2.5e-310, 1e-300, -1e-300, 1e300, -1e300, 1.0, -1.0]
POWER_BASES = st.one_of(st.sampled_from(SPECIAL_BASES), st.floats())


def _bits(v):
    return struct.pack("<d", v)


@given(bases=st.lists(POWER_BASES, min_size=1, max_size=16), k=st.integers(-8, 8))
def test_int_power_on_a_float_equals_it_on_an_array(bases, k):
    with np.errstate(all="ignore"):
        got = int_power(np.array(bases), k).tolist()
    for a, g in zip(bases, got):
        try:
            want = int_power(a, k)
        except ZeroDivisionError:  # a zero a^|k| under k < 0: ±inf in the array
            assert math.isinf(g) and int_power(a, -k) == 0.0
            continue
        assert _bits(g) == _bits(want), (a, k)


@pytest.mark.parametrize("a, k, want", [
    (math.nan, 0, 1.0), (math.inf, 0, 1.0), (-math.inf, 0, 1.0), (-0.0, 0, 1.0),
    (-0.0, 3, -0.0), (-0.0, 2, 0.0), (-math.inf, 3, -math.inf), (-math.inf, 2, math.inf),
    (-math.inf, -3, -0.0), (-math.inf, -2, 0.0), (math.inf, -1, 0.0), (10.0, -400, 0.0),
    (-2.0, 7, -128.0), (2.0, -3, 0.125), (2.0 ** 512, -2, 2.0 ** -1024),
])
def test_int_power_keeps_the_special_values_of_pow(a, k, want):
    assert _bits(int_power(a, k)) == _bits(want)
    assert _bits(math.pow(a, k)) == _bits(want)


@given(a=st.floats(allow_nan=False, allow_infinity=False), k=st.integers(-8, 8))
@example(a=2.0 ** 512, k=-2)  # a^2 overflows, a^-2 is the subnormal 2^-1024
@example(a=-1e103, k=-3)  # a^3 overflows, a^-3 is a subnormal near -1e-309
# a^|k| is subnormal and a^k near the top of the float range
@example(a=7.468807136661523e-155, k=-2)
@example(a=-1.2e-154, k=-2)
@example(a=1.8042905401458637e-103, k=-3)
@example(a=2.566036839999497e-62, k=-5)
def test_int_power_is_within_k_ulp_of_the_exact_power(a, k):
    """Each product rounds once; where a^|k| leaves the normal range under
    k < 0, the mantissa is powered and scaled once instead."""
    assume(a != 0.0 or k >= 0)
    exact = Fraction(a) ** k
    try:
        got = int_power(a, k)
    except ZeroDivisionError:  # a^|k| underflowed: point mode calls it an overflow
        return
    assume(math.isfinite(got))
    assert abs(Fraction(got) - exact) <= abs(k) * Fraction(math.ulp(got))


def test_comparison_not_allowed_in_expression():
    with pytest.raises(ExpressionError):
        parse_expression("x0 > 1")
