"""Evaluable vector functions with Jacobians.

Each builtin, ``sector_map`` and ``identity`` is one batch formula on an
(n, dim_in) array, and its one-point call is that formula on one row.
An expression map's ``fn`` and ``fn_many`` are the point and rows modes of
the same closures from ``expressions.compile_rows``.  A map given only
``fn`` loops over the rows in ``SmoothMap.eval_many``.

Maps without an analytic Jacobian fall back to central finite differences
with step 1e-6 * (1 + |x|), whose stencil is evaluated in one batch.  A
non-finite Jacobian is an EvaluationError.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import expressions as ex
from .geometry import as_vector

FD_STEP = 1e-6


@dataclass(frozen=True)
class SmoothMap:
    name: str
    dim_in: int
    dim_out: int
    fn: object                 # callable ndarray -> ndarray
    jac: object = None         # optional callable ndarray -> (dim_out, dim_in) ndarray
    # optional batch form, (n, dim_in) ndarray -> new (n, dim_out) ndarray,
    # equal to ``fn`` on each row where it is finite and non-finite wherever
    # the one-point call may raise; such rows get the one-point call
    fn_many: object = None

    def __call__(self, x) -> np.ndarray:
        x = as_vector(x, self.dim_in)
        y = np.atleast_1d(np.asarray(self.fn(x), dtype=float))
        if y.shape != (self.dim_out,):
            raise ValueError(f"{self.name}: output shape {y.shape}, expected ({self.dim_out},)")
        return y

    def eval_many(self, X) -> np.ndarray:
        """``np.array([self(x) for x in X])`` as an (n, dim_out) array,
        bit for bit; raises what the one-point call on the first row that
        raises raises."""
        Y, error = self.eval_rows(X)
        if error is not None:
            raise error
        return Y

    def eval_rows(self, X) -> tuple[np.ndarray, Exception | None]:
        """``(Y, error)``: Y holds the values of ``eval_many(X)`` on the
        rows before the first row whose one-point call raises, and error is
        that exception (None, with every row in Y, when no row raises)."""
        X = np.asarray(X, dtype=float)
        # the batch form and the one-point calls run under one errstate, so
        # what a row answers is decided on values, not on the warnings filter
        with np.errstate(all="ignore"):
            if self.fn_many is None or X.ndim != 2 or X.shape[1] != self.dim_in:
                Y, rows = np.empty((len(X), self.dim_out)), range(len(X))
            else:
                Y = self.fn_many(X)
                # the batch form leaves these rows to the one-point call,
                # which also rejects a non-finite point
                rows = np.flatnonzero(~(np.isfinite(Y).all(axis=1) & np.isfinite(X).all(axis=1)))
            for i in rows:
                try:
                    Y[i] = self(X[i])
                except Exception as exc:  # handed to the caller, raised in row order
                    return Y[:i], exc
        return Y, None

    def jacobian(self, x) -> np.ndarray:
        x = as_vector(x, self.dim_in)
        if self.jac is None:
            return finite_difference_jacobian(self, x)
        J = np.asarray(self.jac(x), dtype=float).reshape(self.dim_out, self.dim_in)
        if not np.isfinite(J).all():
            raise ex.EvaluationError(
                f"{self.name}: the Jacobian at {x.tolist()} has non-finite entries")
        return J


def finite_difference_jacobian(f: SmoothMap, x: np.ndarray) -> np.ndarray:
    x = as_vector(x, f.dim_in)
    h = FD_STEP * (1.0 + np.linalg.norm(x))
    steps = h * np.eye(f.dim_in)
    # the stencil x + e_k, x - e_k for each k in turn, in one batch
    Y = f.eval_many(np.stack([x + steps, x - steps], axis=1).reshape(-1, f.dim_in))
    with np.errstate(all="ignore"):
        J = np.ascontiguousarray(((Y[0::2] - Y[1::2]) / (2.0 * h)).T)
    if not np.all(np.isfinite(J)):
        raise ex.EvaluationError(
            f"{f.name}: the finite-difference Jacobian at {x.tolist()} has non-finite entries")
    return J


def from_expressions(exprs, dim_in: int, name: str = "expr") -> SmoothMap:
    """Build a map from one parsed/unparsed expression per output coordinate."""
    nodes = []
    for e in exprs:  # a loop: the parser may use nearly all of the stack
        nodes.append(ex.parse_expression(e) if isinstance(e, str) else e)
    columns = tuple(ex.compile_rows(n, dim_in) for n in nodes)

    def fn(x):
        x = x.tolist()
        return np.array([column(x, None) for column in columns])

    def fn_many(X):
        redo = np.zeros(len(X), dtype=bool)
        Y = np.empty((len(X), len(columns)))
        for j, column in enumerate(columns):
            Y[:, j] = column(X, redo)
        Y[redo] = np.nan  # left to the one-point call
        return Y

    return SmoothMap(name, dim_in, len(columns), fn, fn_many=fn_many)


def _formula(name: str, dim_in: int, dim_out: int, F, jac=None) -> SmoothMap:
    """The map of the batch formula ``F``, (n, dim_in) -> (n, dim_out),
    whose one-point call is ``F`` on one row."""
    return SmoothMap(name, dim_in, dim_out, lambda x: F(x[None])[0], jac, F)


def _inverse(t):
    """1/t, and 0 where t is 0, dividing nothing there."""
    return np.divide(1.0, t, out=np.zeros_like(t), where=t != 0.0)


def _x2_minus_y(X, k: int):
    """x0^2 - x1^k on each row of X."""
    return ex.int_power(X[:, 0], 2) - ex.int_power(X[:, 1], k)


def sector_map(theta1: float, theta2: float) -> SmoothMap:
    """Scalar function vanishing exactly on the sector between two angles:
    (theta2 - a)(a - theta1) with a = atan(x1/x0), except 0 on the printed
    x0 = 0 split and -1 on the open third quadrant, where nothing divides."""
    def F(X):
        x0, x1 = X[:, 0], X[:, 1]
        third = (x0 < 0.0) & (x1 < 0.0)
        angle = (x0 != 0.0) & ~third
        ang = np.arctan(np.divide(x1, x0, out=np.zeros_like(x0), where=angle))
        out = np.multiply(theta2 - ang, ang - theta1, out=np.where(third, -1.0, 0.0), where=angle)
        return out[:, None]
    return _formula(f"sector-{theta1:.6f}-{theta2:.6f}", 2, 1, F)


def identity(dim: int) -> SmoothMap:
    """x -> x on R^dim, with the identity Jacobian."""
    return _formula(f"identity-{dim}", dim, dim, lambda X: X.copy(), lambda x: np.eye(dim))


def _x3_sin_inv_x_jac(x):
    t = x[0]
    return np.array([[3 * t ** 2 * np.sin(1.0 / t) - t * np.cos(1.0 / t) if t != 0.0 else 0.0]])


# name -> factory of the map: its batch formula and analytic Jacobian, if any
BUILTINS = {
    "saddle_x2_y2": functools.partial(
        _formula, "saddle-x2-y2", 2, 1, lambda X: _x2_minus_y(X, 2)[:, None],
        lambda x: np.array([[2 * x[0], -2 * x[1]]])),
    "saddle_x2_y3": functools.partial(
        _formula, "saddle-x2-y3", 2, 1, lambda X: _x2_minus_y(X, 3)[:, None],
        lambda x: np.array([[2 * x[0], -3 * x[1] ** 2]])),
    # sin(0) is 0, the value at x0 = 0
    "sin_inv_x": functools.partial(_formula, "sin-inv-x", 1, 1, lambda X: np.sin(_inverse(X))),
    # the where gives +0.0 at x0 = -0.0, where the product is -0.0
    "x3_sin_inv_x": functools.partial(
        _formula, "x3-sin-inv-x", 1, 1,
        lambda X: np.where(X != 0.0, ex.int_power(X, 3) * np.sin(_inverse(X)), 0.0),
        _x3_sin_inv_x_jac),
    "vector_2x_x": functools.partial(
        _formula, "vector-2x-x", 1, 2, lambda X: np.stack([2 * X[:, 0], X[:, 0]], axis=1),
        lambda x: np.array([[2.0], [1.0]])),
    "vector_pair_saddle": functools.partial(
        _formula, "vector-pair-saddle", 2, 2,
        lambda X: np.stack([_x2_minus_y(X, 2), _x2_minus_y(X, 3)], axis=1),
        lambda x: np.array([[2 * x[0], -2 * x[1]], [2 * x[0], -3 * x[1] ** 2]])),
    "identity_1": functools.partial(identity, 1),
    "identity_2": functools.partial(identity, 2),
}


def builtin(name: str) -> SmoothMap:
    if name not in BUILTINS:
        raise KeyError(f"unknown builtin map {name!r}; known: {sorted(BUILTINS)}")
    return BUILTINS[name]()
