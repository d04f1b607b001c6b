"""Arithmetic expression language for problem files.

Precedence, loosest first: ``+ -`` < ``* /`` < unary ``-`` < ``^``.  The
binary operators associate to the left, but ``^`` is right associative,
takes an integer exponent and binds tighter than unary minus, so ``-x0^2``
is ``-(x0^2)``.  Atoms are numbers, ``pi``, the variables x0..x{n-1}, the
calls in ``FUNCTIONS`` and parenthesised expressions.  The tokenizer also
lexes the comparison operators, which no rule takes, so ``x0 < 1`` fails
at the ``<`` like any other token out of place.
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


# the binary level of each left-associative operator, loosest first
_LEVELS = (("+", "-"), ("*", "/"))
_BINARY = {op: level for level, ops in enumerate(_LEVELS) for op in ops}


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

    def parse(self):
        node = self.parse_binary(0)
        tok = self.peek()
        if tok[1] != "end":
            raise ExpressionError(f"unexpected trailing input {tok[0]!r}", tok[2])
        return node

    def parse_binary(self, level: int):
        """Left-associative operators from ``level`` of ``_LEVELS`` down, by
        precedence climbing: a right operand takes only tighter levels."""
        node = self.parse_unary()
        while True:
            op = self.peek()[0]
            op_level = _BINARY.get(op, -1)
            if op_level < level:
                return node
            self.next()
            node = Bin(op, node, self.parse_binary(op_level + 1))

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
            node = self.parse_binary(0)
            self.expect(")")
            return node
        if kind == "ident":
            if value == "pi":
                return Num(math.pi)
            if self.peek()[0] == "(":
                if value not in FUNCTIONS:
                    raise ExpressionError(f"unknown function {value!r}", at)
                self.next()
                args = [self.parse_binary(0)]
                while self.peek()[0] == ",":
                    self.next()
                    args.append(self.parse_binary(0))
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
    return _Parser(text).parse()


# operators that act alike on floats and on float arrays, so both modes of
# ``compile_rows`` read them, as they read ``int_power``
ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul}
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


def compile_rows(node, dim: int):
    """``g(X, redo)``, the value of ``node`` at the points of X.

    Rows mode: X is an (n, dim) array and ``redo`` a bool array; ``g``
    returns the value at each row as an array, marks True in ``redo`` (no
    mark is ever cleared) the rows where point mode may raise, and leaves
    unspecified values there; every other row is exact.

    Point mode: X is a list of ``dim`` Python floats and ``redo`` is None;
    ``g`` returns the value as a float or raises the EvaluationError of the
    first rule that fails.

    A variable outside x0..x{dim-1}, or a node that is no part of the
    language, is an ExpressionError here, before any point is evaluated.
    """
    if isinstance(node, Num):
        value = node.value
        return lambda X, redo: value if redo is None else np.full(len(X), value, dtype=float)
    if isinstance(node, Var):
        i = node.index
        if i >= dim:
            raise ExpressionError(f"variable x{i} out of range for dim {dim}")
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
    raise ExpressionError(f"cannot evaluate node {node!r}")
