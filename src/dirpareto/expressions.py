"""Arithmetic expression language for problem files.

Precedence, loosest first: ``or`` < ``and`` < one comparison (``<`` ``<=``
``>`` ``>=`` ``==`` ``!=``, not chained) < ``+ -`` < ``* /`` < unary ``-``
< ``^``.  A piecewise guard (``parse_condition``) starts at ``or``; an
expression (``parse_expression``), a parenthesised group and a call
argument start at ``+ -``, so only guards compare.  ``^`` is right
associative, takes an integer exponent and binds tighter than unary minus,
so ``-x0^2`` is ``-(x0^2)``.  Atoms are numbers, ``pi``, the variables
x0..x{n-1} and the calls in ``FUNCTIONS``.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from dataclasses import dataclass

import numpy as np


class ExpressionError(Exception):
    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class EvaluationError(Exception):
    """Evaluation hit a declared-undefined region (division by zero etc.)."""


FUNCTIONS = {
    "sin": (1, math.sin),
    "cos": (1, math.cos),
    "atan": (1, math.atan),
    "atan2": (2, math.atan2),
    "abs": (1, abs),
    "sqrt": (1, None),  # domain-checked
}


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class Neg:
    operand: object


@dataclass(frozen=True)
class Bin:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple


@dataclass(frozen=True)
class Compare:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class BoolOp:
    op: str  # 'and' | 'or'
    left: object
    right: object


@dataclass(frozen=True)
class Piecewise:
    branches: tuple  # of (condition, expr); condition None = else branch


_TWO_CHAR = ("<=", ">=", "==", "!=")
_ONE_CHAR = "+-*/^()<>,"


def tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if text[i:i + 2] in _TWO_CHAR:
            tokens.append((text[i:i + 2], "op", i))
            i += 2
            continue
        if c in _ONE_CHAR:
            tokens.append((c, "op", i))
            i += 1
            continue
        if c.isdigit() or c == ".":
            j = i
            seen_e = False
            while j < n and (text[j].isdigit() or text[j] == "." or
                             (text[j] in "eE" and not seen_e) or
                             (text[j] in "+-" and j > i and text[j - 1] in "eE")):
                if text[j] in "eE":
                    seen_e = True
                j += 1
            try:
                tokens.append((float(text[i:j]), "num", i))
            except ValueError:
                raise ExpressionError(f"bad number literal {text[i:j]!r}", i)
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append((text[i:j], "ident", i))
            i = j
            continue
        raise ExpressionError(f"unexpected character {c!r}", i)
    tokens.append((None, "end", n))
    return tokens


# binary operators by precedence, loosest first: (tokens, node type, chains)
_LEVELS = (
    (("or",), BoolOp, True),
    (("and",), BoolOp, True),
    (("<", ">", "<=", ">=", "==", "!="), Compare, False),
    (("+", "-"), Bin, True),
    (("*", "/"), Bin, True),
)
_GUARD, _ARITH = 0, 3  # where guards and arithmetic expressions start


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, value):
        tok = self.next()
        if tok[0] != value:
            raise ExpressionError(f"expected {value!r}, found {tok[0]!r}", tok[2])
        return tok

    def parse(self, level: int):
        node = self.parse_binary(level)
        tok = self.peek()
        if tok[1] != "end":
            raise ExpressionError(f"unexpected trailing input {tok[0]!r}", tok[2])
        return node

    def parse_binary(self, level: int):
        """Left-associative operators from ``level`` of ``_LEVELS`` down."""
        ops, node_type, chains = _LEVELS[level]
        # a partial, not a lambda: it adds no Python frame per nesting level
        operand = (functools.partial(self.parse_binary, level + 1)
                   if level + 1 < len(_LEVELS) else self.parse_unary)
        node = operand()
        while self.peek()[0] in ops:
            node = node_type(self.next()[0], node, operand())
            if not chains:
                break
        return node

    def parse_unary(self):
        if self.peek()[0] == "-":
            self.next()
            return Neg(self.parse_unary())
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        if self.peek()[0] == "^":
            self.next()
            return Bin("^", base, self.parse_unary())
        return base

    def parse_atom(self):
        tok = self.next()
        value, kind, at = tok
        if kind == "num":
            return Num(value)
        if value == "(":
            node = self.parse_binary(_ARITH)
            self.expect(")")
            return node
        if kind == "ident":
            if value == "pi":
                return Num(math.pi)
            if self.peek()[0] == "(":
                if value not in FUNCTIONS:
                    raise ExpressionError(f"unknown function {value!r}", at)
                self.next()
                args = [self.parse_binary(_ARITH)]
                while self.peek()[0] == ",":
                    self.next()
                    args.append(self.parse_binary(_ARITH))
                self.expect(")")
                arity = FUNCTIONS[value][0]
                if len(args) != arity:
                    raise ExpressionError(
                        f"{value} takes {arity} argument(s), got {len(args)}", at)
                return Call(value, tuple(args))
            if value.startswith("x") and value[1:].isdigit():
                return Var(int(value[1:]))
            raise ExpressionError(f"unknown identifier {value!r}", at)
        raise ExpressionError(
            f"expected a number, variable, function, or '(', found {value!r}", at)


def parse_expression(text: str):
    """Parse an arithmetic expression into its AST."""
    return _Parser(text).parse(_ARITH)


def parse_condition(text: str):
    """Parse a piecewise guard (comparisons joined with and/or)."""
    return _Parser(text).parse(_GUARD)


# operators that act alike on floats and on float arrays, so both evaluators
# read them, as they read ``int_power``; division and the functions have a
# rule per evaluator
ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul}
COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
           ">=": operator.ge, "==": operator.eq, "!=": operator.ne}
CHAIN_OPS = ("+", "-", "*", "/")  # the left-associative operators
EXPONENT_TOL = 1e-12  # how far from an integer a '^' exponent may be


def int_power(a, k: int):
    """``a`` to the integer power ``k`` from products only: square and
    multiply over the bits of ``|k|`` (the binary method; Knuth, TAOCP
    vol. 2, 4.6.3), then ``1.0 / a^|k|`` for ``k < 0``.

    The same code serves a float, a float array and any value with ``*``
    and ``/``.  Each product is correctly rounded IEEE arithmetic, so a
    float and an array agree bit for bit on every platform; libm's ``pow``
    may differ by a few ulp.  As with ``pow``, ``a^0`` is 1.0 for every
    ``a``, nan included, and signed zero and infinite bases keep their
    signs.  A zero ``a^|k|`` under ``k < 0`` is ±inf in an array and
    raises ZeroDivisionError on a Python float.  Where a finite nonzero
    ``a^|k|`` leaves the normal range under ``k < 0``, ``1.0 / a^|k|``
    would magnify its lost bits (or give 0 for a subnormal ``a^k``), so
    those elements power the mantissa ``m`` of ``a = m 2^e`` instead, which
    stays normal while ``|k| < 1022``, and scale by ``2^(e k)`` with one
    rounding; for larger ``|k|``, ``(1.0 / a)^|k|`` is within ``|k|`` ulp.
    """
    base, n, out = a, abs(k), None
    while n:
        if n & 1:
            out = a if out is None else out * a
        n >>= 1
        if n:
            a = a * a
    if out is None:
        return a ** 0  # exactly 1 on every libm (C99 F.9.4.4), nan included
    if k > 0:
        return out
    size = abs(out)
    off = (((size < sys.float_info.min) & (size > 0.0) | (size == math.inf))
           & (abs(base) < math.inf))
    out = 1.0 / out
    if np.any(off):
        array = isinstance(out, np.ndarray)
        b = base[off] if array else base
        if k > -1022:
            m, e = np.frexp(b)
            with np.errstate(over="ignore"):  # an infinite a^k, as 1.0 / a^|k| gives
                b = np.ldexp(int_power(m, k), e * k)
        else:
            b = int_power(1.0 / b, -k)
        if array:
            out[off] = b
        else:
            out = float(b)
    return out


def _exponent(b) -> int:
    """The integer that the '^' exponent ``b`` stands for."""
    if not math.isfinite(b) or abs(b - round(b)) > EXPONENT_TOL:
        raise EvaluationError(f"exponent must be an integer, got {b}")
    return int(round(b))


def _power_fails(a, out):
    """Where the finite base ``a`` gave the infinite power ``out``: an
    overflow, or a zero ``a^|k|`` under ``k < 0`` (a zero base, or an
    underflow).  Elementwise on arrays."""
    return (abs(out) == math.inf) & (abs(a) < math.inf)


def _left_spine(node: Bin):
    """A left-deep chain of ``CHAIN_OPS``, such as the parse of a flat sum,
    as its leftmost operand and the (op, right operand) pairs that apply to
    it in turn, left to right."""
    steps = []
    while isinstance(node, Bin) and node.op in CHAIN_OPS:
        steps.append((node.op, node.right))
        node = node.left
    return node, steps[::-1]


def evaluate(node, x: np.ndarray) -> float:
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        if node.index >= len(x):
            raise EvaluationError(f"variable x{node.index} out of range for dim {len(x)}")
        return float(x[node.index])
    if isinstance(node, Neg):
        return -evaluate(node.operand, x)
    if isinstance(node, Bin) and node.op in CHAIN_OPS:
        # a loop, not a recursion, along the chain: a flat sum of any length
        first, steps = _left_spine(node)
        acc = evaluate(first, x)
        for op, right in steps:
            b = evaluate(right, x)
            if op != "/":
                acc = ARITHMETIC[op](acc, b)
            elif b == 0.0:
                raise EvaluationError("division by zero")
            else:
                acc = acc / b
        return acc
    if isinstance(node, Bin) and node.op == "^":
        a = evaluate(node.left, x)
        k = _exponent(evaluate(node.right, x))
        try:
            out = int_power(a, k)
        except ZeroDivisionError:  # a^|k| is zero under k < 0
            out = math.inf
        if _power_fails(a, out):
            if a == 0.0:
                raise EvaluationError(f"zero raised to the negative power {k}")
            raise EvaluationError(f"{a!r}^{k} overflows the float range")
        return out
    if isinstance(node, Call):
        args = [evaluate(a, x) for a in node.args]
        if node.name == "sqrt":
            if args[0] < 0:
                raise EvaluationError("sqrt of a negative number")
            return math.sqrt(args[0])
        try:
            return float(FUNCTIONS[node.name][1](*args))
        except ValueError:  # math's domain error, e.g. sin(inf)
            shown = ", ".join(repr(a) for a in args)
            raise EvaluationError(f"{node.name}({shown}) is undefined") from None
    if isinstance(node, Compare):
        return COMPARE[node.op](evaluate(node.left, x), evaluate(node.right, x))
    if isinstance(node, BoolOp):
        a = evaluate(node.left, x)
        if node.op == "and":
            return bool(a) and bool(evaluate(node.right, x))
        return bool(a) or bool(evaluate(node.right, x))
    if isinstance(node, Piecewise):
        for cond, expr in node.branches:
            if cond is None or evaluate(cond, x):
                return evaluate(expr, x)
        raise EvaluationError("no piecewise branch matched")
    raise EvaluationError(f"cannot evaluate node {node!r}")


# -- evaluation over the rows of an array ----------------------------------
#
# ``compile_rows`` turns a node into a closure that computes ``evaluate`` on
# every row of an array, bit for bit.  The four arithmetic operations,
# negation, ``abs`` and ``sqrt`` are correctly rounded in numpy as in
# Python, and ``^`` is ``int_power`` on both sides, products only.  Only
# the ``math`` functions call the one-point function on each element,
# because numpy's own ``sin``, ``cos`` and ``arctan`` loops differ from
# libm in the last place on some inputs.  A closure never raises: it marks
# the rows where ``evaluate`` may raise, and its caller settles those rows
# one point at a time.

def elementwise(fn, nargs: int):
    """``fn`` called on each element of ``nargs`` float arrays, as the
    one-point path calls it; nan where it raises an arithmetic or domain
    error."""
    def call(*args):
        try:
            return fn(*args)
        except (ArithmeticError, ValueError):
            return math.nan
    ufunc = np.frompyfunc(call, nargs, 1)
    return lambda *arrays: ufunc(*arrays).astype(float)


_MATH = {name: elementwise(FUNCTIONS[name][1], FUNCTIONS[name][0])
         for name in ("sin", "cos", "atan", "atan2")}


def _on_rows(g, X, rows, redo):
    """The closure ``g`` on the given rows of X only, marking into ``redo``."""
    marks = np.zeros(len(rows), dtype=bool)
    out = g(X[rows], marks)
    redo[rows] |= marks
    return out


def _redo_all(X, redo):
    redo[:] = True
    return np.zeros(len(X))


def _row_powers(a, e, redo):
    """``int_power`` of each element of ``a`` to the exponent ``e`` of its
    row, one call per distinct exponent; marks the rows whose exponent is
    not an integer."""
    k = np.round(e)
    ok = np.abs(e - k) <= EXPONENT_TOL  # False where e is not finite
    redo |= ~ok
    out = np.zeros(len(a))
    ks, group = np.unique(np.where(ok, k, 0.0), return_inverse=True)
    for j, kj in enumerate(ks.tolist()):
        rows = group == j
        out[rows] = int_power(a[rows], int(kj))
    return out


def compile_rows(node, dim: int):
    """``g(X, redo)``: ``evaluate(node, x)`` for each row x of the (n, dim)
    array X, as an array.

    The rows where ``evaluate`` may raise are marked True in the bool array
    ``redo`` (no mark is ever cleared) and hold unspecified values; every
    other row is exact.  A guard or branch of a ``Piecewise`` and the right
    side of a ``BoolOp`` run only on the rows that reach them.
    """
    if isinstance(node, Num):
        value = node.value
        return lambda X, redo: np.full(len(X), value, dtype=float)
    if isinstance(node, Var):
        i = node.index
        return _redo_all if i >= dim else (lambda X, redo: X[:, i])
    if isinstance(node, Neg):
        a = compile_rows(node.operand, dim)
        return lambda X, redo: -a(X, redo)
    if isinstance(node, Bin) and node.op in CHAIN_OPS:
        first, steps = _left_spine(node)
        start = compile_rows(first, dim)
        steps = [(op, compile_rows(right, dim)) for op, right in steps]

        def chain(X, redo):
            acc = start(X, redo)
            for op, g in steps:
                b = g(X, redo)
                if op == "/":
                    redo |= b == 0.0
                    acc = acc / b
                else:
                    acc = ARITHMETIC[op](acc, b)
            return acc
        return chain
    if isinstance(node, Bin) and node.op == "^":
        base, k, exponent = compile_rows(node.left, dim), None, None
        if isinstance(node.right, Num):  # checked and rounded once, here
            try:
                k = _exponent(node.right.value)
            except EvaluationError:
                return _redo_all
        else:
            exponent = compile_rows(node.right, dim)

        def power(X, redo):
            a = base(X, redo)
            with np.errstate(all="ignore"):
                out = (int_power(a, k) if exponent is None
                       else _row_powers(a, exponent(X, redo), redo))
            redo |= _power_fails(a, out)
            return out
        return power
    if isinstance(node, Call) and node.name in FUNCTIONS:
        args = [compile_rows(a, dim) for a in node.args]
        if node.name == "sqrt":
            def sqrt(X, redo):
                v = args[0](X, redo)
                redo |= v < 0
                return np.sqrt(v)
            return sqrt
        if node.name == "abs":
            return lambda X, redo: np.abs(args[0](X, redo))
        fn = _MATH[node.name]

        def call(X, redo):
            out = fn(*[g(X, redo) for g in args])
            redo |= np.isnan(out)  # a domain error
            return out
        return call
    if isinstance(node, Compare) and node.op in COMPARE:
        a, b = compile_rows(node.left, dim), compile_rows(node.right, dim)
        op = COMPARE[node.op]
        return lambda X, redo: op(a(X, redo), b(X, redo))
    if isinstance(node, BoolOp):
        a, b = compile_rows(node.left, dim), compile_rows(node.right, dim)
        want = node.op == "and"  # the left value that makes the right side run

        def boolop(X, redo):
            t = a(X, redo) != 0
            rows = np.flatnonzero(t == want)
            t[rows] = _on_rows(b, X, rows, redo) != 0
            return t
        return boolop
    if isinstance(node, Piecewise):
        branches = [(None if cond is None else compile_rows(cond, dim),
                     compile_rows(expr, dim)) for cond, expr in node.branches]

        def piecewise(X, redo):
            out = np.zeros(len(X))
            left = np.arange(len(X))  # rows that no guard has taken yet
            for cond, expr in branches:
                if cond is None:
                    take, left = left, left[:0]
                else:
                    t = _on_rows(cond, X, left, redo) != 0
                    take, left = left[t], left[~t]
                out[take] = _on_rows(expr, X, take, redo)
                if not left.size:
                    break
            redo[left] = True  # no branch matched
            return out
        return piecewise
    return _redo_all  # evaluate raises on every row


def piecewise_from_spec(branches) -> Piecewise:
    """Build a Piecewise from [(guard_text | None, expr_text), ...]."""
    parsed = []
    for guard, expr in branches:
        cond = parse_condition(guard) if guard is not None else None
        parsed.append((cond, parse_expression(expr)))
    return Piecewise(tuple(parsed))
