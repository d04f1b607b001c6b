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

import math
import operator
import re
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


# a number (digits and dots, then at most one exponent marker and sign), an
# operator, a name, or any other character but whitespace, which is skipped
_TOKEN = re.compile(r"(?P<num>[\d.]+(?:[eE][+-]?[\d.]*)?)|(?P<op><=|>=|==|!=|[-+*/^()<>,])"
                    r"|(?P<ident>[^\W\d]\w*)|(?P<bad>\S)")


def tokenize(text: str):
    tokens = []
    for match in _TOKEN.finditer(text):
        kind, value = match.lastgroup, match.group()
        if kind == "num":
            try:
                value = float(value)
            except ValueError:
                raise ExpressionError(f"bad number literal {value!r}", match.start())
        elif kind == "bad" or kind == "ident" and not (value[0].isalpha() or value[0] == "_"):
            # [^\W\d] also takes numerals such as '½'; a name starts with a letter
            raise ExpressionError(f"unexpected character {value[0]!r}", match.start())
        tokens.append((value, kind, match.start()))
    tokens.append((None, "end", len(text)))
    return tokens


# binary operators by precedence, loosest first: (tokens, node type, chains)
_LEVELS = (
    (("or",), BoolOp, True),
    (("and",), BoolOp, True),
    (("<", ">", "<=", ">=", "==", "!="), Compare, False),
    (("+", "-"), Bin, True),
    (("*", "/"), Bin, True),
)
_BINARY = {op: (level, node_type, chains)
           for level, (ops, node_type, chains) in enumerate(_LEVELS) for op in ops}
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
        """Left-associative operators from ``level`` of ``_LEVELS`` down, by
        precedence climbing: a right operand takes only tighter levels, and
        only looser operators may follow a comparison, so none chains."""
        node = self.parse_unary()
        top = len(_LEVELS) - 1  # the tightest level the loop may still take
        while True:
            op = self.peek()[0]
            op_level, node_type, chains = _BINARY.get(op, (-1, None, None))
            if not level <= op_level <= top:
                return node
            self.next()
            node = node_type(op, node, self.parse_binary(op_level + 1))
            top = op_level if chains else op_level - 1

    def parse_unary(self):
        if self.peek()[0] == "-":
            self.next()
            return Neg(self.parse_unary())
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
            if value.startswith("x") and value[1:].isdecimal():
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


# operators that act alike on floats and on float arrays, so both modes of
# ``compile_rows`` read them, as they read ``int_power``
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
    array = isinstance(out, np.ndarray)
    if off.any() if array else off:  # np.any on a bool costs more than the power
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


# -- evaluation ------------------------------------------------------------
#
# ``compile_rows`` is the one evaluator of the language.  Each rule fails
# through one ``_fail`` call, which marks rows in rows mode and raises in
# point mode.  Point mode stays on Python floats and the ``math``
# functions: it makes no numpy scalar and no numpy warning.  Rows mode,
# run under ``np.errstate(all="ignore")``, gives the same values bit for
# bit: the four arithmetic operations, negation, ``abs`` and ``sqrt`` are
# correctly rounded in numpy as in Python, ``^`` is ``int_power`` in both
# modes, products only, and the ``math`` functions are called on each
# element, because numpy's own ``sin``, ``cos`` and ``arctan`` loops
# differ from libm in the last place on some inputs.

def _fail(redo, fails, describe, *args):
    """A rule of the language fails where ``fails`` holds: rows mode ORs
    the bool array ``fails`` into ``redo``; point mode raises the
    EvaluationError ``describe(*args)``, built only then."""
    if redo is not None:
        redo |= fails
    elif fails:
        raise EvaluationError(describe(*args))


def _fails_everywhere(describe, *args):
    """The closure of a node that fails on every point."""
    def g(X, redo):
        _fail(redo, True, describe, *args)
        return np.zeros(len(X))
    return g


def _exponent(e, redo):
    """The integer that the '^' exponent ``e`` stands for; in rows mode an
    array of them, 0 where the rule fails.  It fails where ``e`` is not
    finite or more than EXPONENT_TOL from an integer."""
    if redo is None:
        fails = not (math.isfinite(e) and abs(e - round(e)) <= EXPONENT_TOL)
    else:
        k = np.round(e)
        ok = np.abs(e - k) <= EXPONENT_TOL  # False where e is not finite
        fails, k = ~ok, np.where(ok, k, 0.0)
    _fail(redo, fails, "exponent must be an integer, got {}".format, e)
    return int(round(e)) if redo is None else k


def _powers(a, k, redo):
    """``int_power(a, k)``, inf where a zero ``a^|k|`` under ``k < 0``
    raises on a float; in rows mode ``k`` is one int or the exponent of
    each row, powered once per distinct exponent."""
    if redo is None:
        try:
            return int_power(a, k)
        except ZeroDivisionError:
            return math.inf
    if isinstance(k, int):
        return int_power(a, k)
    out = np.zeros(len(a))
    ks, group = np.unique(k, return_inverse=True)
    for j, kj in enumerate(ks.tolist()):
        rows = group == j
        out[rows] = int_power(a[rows], int(kj))
    return out


def _power_fails(a, out):
    """Where the finite base ``a`` gave the infinite power ``out``: an
    overflow, or a zero ``a^|k|`` under ``k < 0`` (a zero base, or an
    underflow).  Elementwise on arrays."""
    return (abs(out) == math.inf) & (abs(a) < math.inf)


def _power_error(a, k):
    if a == 0.0:
        return f"zero raised to the negative power {k}"
    return f"{a!r}^{k} overflows the float range"


def _undefined(name, args):
    return f"{name}({', '.join(repr(a) for a in args)}) is undefined"


def elementwise(fn, nargs: int):
    """``fn`` called on each element of ``nargs`` float arrays, as point
    mode calls it; nan where it raises an arithmetic or domain error."""
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


def compile_rows(node, dim: int):
    """``g(X, redo)``, the value of ``node`` at the points of X.

    Rows mode: X is an (n, dim) array and ``redo`` a bool array; ``g``
    returns the value at each row as an array, marks True in ``redo`` (no
    mark is ever cleared) the rows where point mode may raise, and leaves
    unspecified values there; every other row is exact.  A guard or
    branch of a ``Piecewise`` and the right side of a ``BoolOp`` run only
    on the rows that reach them.

    Point mode: X is a list of ``dim`` Python floats and ``redo`` is None;
    ``g`` returns the value as a float (a bool for a guard) or raises the
    EvaluationError of the first rule that fails.
    """
    if isinstance(node, Num):
        value = node.value
        return lambda X, redo: value if redo is None else np.full(len(X), value, dtype=float)
    if isinstance(node, Var):
        i = node.index
        if i >= dim:
            return _fails_everywhere("variable x{} out of range for dim {}".format, i, dim)
        return lambda X, redo: X[i] if redo is None else X[:, i]
    if isinstance(node, Neg):
        a = compile_rows(node.operand, dim)
        return lambda X, redo: -a(X, redo)
    if isinstance(node, Bin) and node.op in CHAIN_OPS:
        # a loop, not a recursion, along a left-deep chain such as the
        # parse of a flat sum: its leftmost operand, then each (op, right)
        steps = []
        while isinstance(node, Bin) and node.op in CHAIN_OPS:
            steps.append((node.op, compile_rows(node.right, dim)))
            node = node.left
        start, steps = compile_rows(node, dim), steps[::-1]

        def chain(X, redo):
            acc = start(X, redo)
            for op, g in steps:
                b = g(X, redo)
                if op == "/":
                    _fail(redo, b == 0.0, "division by zero".format)
                    acc = acc / b
                else:
                    acc = ARITHMETIC[op](acc, b)
            return acc
        return chain
    if isinstance(node, Bin) and node.op == "^":
        base, exponent = compile_rows(node.left, dim), compile_rows(node.right, dim)
        k = None
        if isinstance(node.right, Num):  # checked and rounded once, here
            try:
                k = _exponent(node.right.value, None)
            except EvaluationError:  # not an integer: checked on each call, after the base
                pass

        def power(X, redo):
            a = base(X, redo)
            ks = k if k is not None else _exponent(exponent(X, redo), redo)
            out = _powers(a, ks, redo)
            _fail(redo, _power_fails(a, out), _power_error, a, ks)
            return out
        return power
    if isinstance(node, Call) and node.name in FUNCTIONS:
        args = [compile_rows(a, dim) for a in node.args]
        name = node.name
        if name == "sqrt":
            def sqrt(X, redo):
                v = args[0](X, redo)
                _fail(redo, v < 0, "sqrt of a negative number".format)
                return math.sqrt(v) if redo is None else np.sqrt(v)
            return sqrt
        if name == "abs":
            return lambda X, redo: abs(args[0](X, redo))
        fn, rows_fn = FUNCTIONS[name][1], _MATH[name]

        def call(X, redo):
            v = [g(X, redo) for g in args]
            if redo is not None:
                out = rows_fn(*v)
                fails = np.isnan(out)  # a domain error, or a nan argument
            else:
                try:
                    return fn(*v)
                except ValueError:  # math's domain error, e.g. sin(inf)
                    out, fails = None, True
            _fail(redo, fails, _undefined, name, v)
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
            if redo is None:
                t = bool(a(X, None))
                return bool(b(X, None)) if t == want else t
            t = a(X, redo) != 0
            rows = np.flatnonzero(t == want)
            t[rows] = _on_rows(b, X, rows, redo) != 0
            return t
        return boolop
    if isinstance(node, Piecewise):
        branches = [(None if cond is None else compile_rows(cond, dim),
                     compile_rows(expr, dim)) for cond, expr in node.branches]

        def piecewise(X, redo):
            if redo is None:
                for cond, expr in branches:
                    if cond is None or cond(X, None):
                        return expr(X, None)
                _fail(None, True, "no piecewise branch matched".format)
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
            redo[left] = True  # the rows where point mode finds no branch
            return out
        return piecewise
    return _fails_everywhere("cannot evaluate node {!r}".format, node)


def piecewise_from_spec(branches) -> Piecewise:
    """Build a Piecewise from [(guard_text | None, expr_text), ...]."""
    parsed = []
    for guard, expr in branches:
        cond = parse_condition(guard) if guard is not None else None
        parsed.append((cond, parse_expression(expr)))
    return Piecewise(tuple(parsed))
