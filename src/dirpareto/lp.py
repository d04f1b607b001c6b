"""Small dense linear programming: a two-phase tableau simplex.

Every LP in this package is tiny (tens of variables), so a plain dense
tableau is fast enough and easy to audit.  It starts from the slack
basis (Chvatal, *Linear Programming*, 1983, ch. 8): an inequality
``coef . v >= b`` with ``b <= 0`` holds at v = 0 with its slack basic, so
only equalities and inequalities with ``b > 0`` get an artificial column,
and phase 1 runs only when one exists.  Most rows here are homogeneous
cone rows ``>= 0``, so phase 1 is short or absent.  Variables are free
reals unless the problem lists them in ``nonneg``; only free variables
are split into ``v+ - v-`` columns.  Each row is divided by its largest
absolute coefficient before solving, so badly scaled rows do not break
the tableau.  Feasibility is therefore decided with FEAS_TOL relative to
each row's largest coefficient: a witness may miss a row by up to that
coefficient times FEAS_TOL.  A row whose coefficients all lie within
PIVOT_TOL of zero is round-off (say, a finite-difference gradient at a
stationary point) and counts as a zero row; it is not blown up to 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

PIVOT_TOL = 1e-10
FEAS_TOL = 1e-9


class LPError(Exception):
    """Malformed LP input (inconsistent shapes, non-finite data) or a
    numerical breakdown of the simplex."""


@dataclass
class LPProblem:
    """min objective . v  subject to  A_ub v >= b_ub,  A_eq v = b_eq  and
    v_i >= 0 for every index i in ``nonneg``.

    ``objective`` may be None for a pure feasibility problem.
    """

    n: int
    a_ub: list = field(default_factory=list)   # rows (coef vector, rhs)
    a_eq: list = field(default_factory=list)
    objective: np.ndarray | None = None
    nonneg: tuple = ()

    def __post_init__(self):
        self.nonneg = tuple(sorted({int(i) for i in self.nonneg}))
        if self.nonneg and not (0 <= self.nonneg[0] and self.nonneg[-1] < self.n):
            raise LPError(f"nonneg index out of range for {self.n} variables")

    def add_ge(self, coef, rhs):
        """Add ``coef . v >= rhs``: one row, or a (k, n) block of rows with
        one rhs for all of them or one per row."""
        self.a_ub += self._rows(coef, rhs, "inequality")

    def add_eq(self, coef, rhs):
        self.a_eq += self._rows(coef, rhs, "equality")

    def _rows(self, coef, rhs, kind) -> list:
        """The (row, rhs) pairs of one row or a block of rows."""
        coef = np.asarray(coef, dtype=float)
        rows = coef[None] if coef.ndim == 1 else coef
        rhs = np.asarray(rhs, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != self.n or rhs.ndim and rhs.shape != rows.shape[:1]:
            raise LPError(f"{kind} rows of shape {coef.shape} with rhs of shape {rhs.shape}, "
                          f"expected ({self.n},) or (k, {self.n}) with () or (k,)")
        return list(zip(rows, rhs.tolist() if rhs.ndim else [float(rhs)] * len(rows)))


def _pivot(tab, basis, row, col):
    tab[row] /= tab[row, col]
    f = tab[:, col].copy()
    f[row] = 0.0
    # in place, and only on the rows with a nonzero factor; the cost row
    # is one of them
    np.subtract(tab, f[:, None] * tab[row], out=tab, where=(f != 0.0)[:, None])
    basis[row] = col


def _simplex(tab, basis, ncols):
    """Minimize over the tableau in place.

    ``tab`` holds one row per basis entry, then the reduced-cost row; its
    last column is the rhs (the cost row's carries -objective).  Columns
    from ``ncols`` on, but the rhs, never enter.  The entering column is the
    lowest-index improving one (Bland); among rows tied in the ratio test
    the largest pivot leaves, so that pivots stay well away from round-off.
    Both tolerances scale with the entering column.  A run that outlasts
    any reasonable pivot count has cycled on round-off and raises LPError.

    Returns False if the objective is unbounded below, else True.
    """
    m = len(basis)
    body, z = tab[:m], tab[m]
    for _ in range(50 * (m + ncols)):
        size = np.maximum.reduce(np.abs(body[:, :ncols]), axis=0, initial=1.0)
        improving = z[:ncols] < -PIVOT_TOL * size
        enter = int(improving.argmax())
        if not improving[enter]:
            return True
        col = body[:, enter]
        rows = (col > PIVOT_TOL * size[enter]).nonzero()[0]
        pivots = col[rows]
        leave, best, top = -1, np.inf, 0.0  # top: the pivot of row ``leave``
        for i, ratio, a in zip(rows.tolist(), (body[rows, -1] / pivots).tolist(),
                               pivots.tolist()):
            if ratio < best - PIVOT_TOL or (ratio < best + PIVOT_TOL and a > top):
                leave, best, top = i, ratio, a
        if leave < 0:
            return False
        _pivot(tab, basis, leave, enter)
    raise LPError("simplex cycled: numerical breakdown of the tableau")


def _solve(p: LPProblem):
    """Two-phase simplex.  Returns (status, witness) with status in
    {'feasible', 'infeasible', 'unbounded'}; witness is the point found
    (feasible) and the objective minimizer when an objective is set.
    """
    n = p.n
    if n < 1:
        raise LPError("LP needs at least one variable")
    nonneg = set(p.nonneg)
    free = [j for j in range(n) if j not in nonneg]
    # columns: v (v+ for the free entries), v- of the free entries, one
    # slack per inequality, the artificials, then the rhs
    nsplit = n + len(free)
    nslack = len(p.a_ub)
    ncols = nsplit + nslack
    m = nslack + len(p.a_eq)
    if m == 0:
        witness = np.zeros(n)
        return "feasible", witness
    rows = p.a_ub + p.a_eq
    coef = np.array([c for c, _ in rows])
    b = np.array([r for _, r in rows], dtype=float)
    if not (np.isfinite(coef).all() and np.isfinite(b).all()):
        raise LPError("non-finite LP data")
    # row equilibration: the structural part of every row gets max-abs 1;
    # the slack columns stay at -1 (coef.v - s = b, s >= 0).  Rows of
    # round-off become zero rows and keep their rhs unscaled.
    scale = np.abs(coef).max(axis=1)
    noise = scale <= PIVOT_TOL
    coef[noise] = 0.0
    scale[noise] = 1.0
    coef /= scale[:, None]
    b /= scale
    # slack start: an inequality with b <= 0 becomes -coef.v + s = -b >= 0
    # and its slack starts basic; every other row is made rhs >= 0 and
    # gets an artificial
    ineq = np.arange(m) < nslack
    start = ineq & (b <= 0.0)
    art_rows = (~start).nonzero()[0]
    nart = art_rows.size
    tab = np.zeros((m + 1, ncols + nart + 1))
    A = tab[:m, :ncols]
    A[:, :n] = coef
    A[:, n:nsplit] = -coef[:, free]
    A[np.arange(nslack), nsplit + np.arange(nslack)] = -1.0
    np.negative(A, out=A, where=(start | (b < 0.0))[:, None])
    tab[:m, -1] = np.abs(b)   # a zero rhs is +0.0
    basis = nsplit + np.arange(m)
    basis[art_rows] = arts = ncols + np.arange(nart)

    if nart:
        # phase 1: minimize the sum of the artificials
        tab[art_rows, arts] = 1.0
        tab[m, arts] = 1.0
        tab[m] -= tab[art_rows].sum(axis=0)
        if not _simplex(tab, basis, ncols + nart):
            # phase 1 is bounded below by 0: only round-off can get here
            raise LPError("phase-1 unbounded: numerical breakdown of the simplex")
        val = 0.0
        for r in tab[:m, -1][basis >= ncols].tolist():
            val += r
        if val > FEAS_TOL:
            return "infeasible", None
        # drive artificials out of the basis where possible
        for i in (basis >= ncols).nonzero()[0]:
            j = (np.abs(tab[i, :ncols]) > PIVOT_TOL).nonzero()[0]
            if j.size:
                _pivot(tab, basis, i, j[0])
        # a row an artificial still holds is round-off in every structural
        # column
        live = basis < ncols
        tab[:, ncols] = tab[:, -1]  # the rhs moves next to the structural columns
        tab = tab[np.append(live, True), :ncols + 1]
        basis = basis[live]

    if p.objective is not None:
        cost = np.zeros(ncols)
        cost[:n] = p.objective
        cost[n:nsplit] = -np.asarray(p.objective, dtype=float)[free]
        z = tab[-1]
        z[:ncols] = cost
        z[-1] = 0.0
        for i in (np.abs(cost[basis]) > 0.0).nonzero()[0].tolist():
            z -= cost[basis[i]] * tab[i]
        if not _simplex(tab, basis, ncols):
            return "unbounded", None

    x = np.zeros(ncols)
    x[basis] = tab[:-1, -1]
    witness = x[:n].copy()
    witness[free] -= x[n:nsplit]
    return "feasible", witness


def lp_feasible(p: LPProblem):
    """Feasibility check; returns a witness vector or None (certified infeasible)."""
    status, witness = _solve(p)
    return witness if status == "feasible" else None


def lp_minimize(p: LPProblem):
    """Minimize the objective; returns (value, argmin) or None if infeasible.

    Raises LPError when the objective is unbounded below on the feasible set.
    """
    if p.objective is None:
        raise LPError("lp_minimize needs an objective")
    status, witness = _solve(p)
    if status == "infeasible":
        return None
    if status == "unbounded":
        raise LPError("objective unbounded below")
    return float(np.dot(p.objective, witness)), witness
