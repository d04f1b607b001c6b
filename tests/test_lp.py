import numpy as np
import pytest

from dirpareto import lp
from dirpareto.lp import LPError, LPProblem, lp_feasible, lp_minimize

from oracles import rational_feasible


def test_interval_witness():
    p = LPProblem(1)
    p.add_ge([1.0], 0.0)
    p.add_ge([-1.0], -1.0)
    w = lp_feasible(p)
    assert w is not None
    assert -1e-9 <= w[0] <= 1.0 + 1e-9


def test_empty_interval_infeasible():
    p = LPProblem(1)
    p.add_ge([1.0], 1.0)
    p.add_ge([-1.0], -0.0)
    assert lp_feasible(p) is None


def test_simplex_face_witness():
    p = LPProblem(2)
    p.add_eq([1.0, 1.0], 1.0)
    p.add_ge([1.0, 0.0], 0.0)
    p.add_ge([0.0, 1.0], 0.0)
    w = lp_feasible(p)
    assert w is not None
    assert abs(w[0] + w[1] - 1.0) <= 1e-9
    assert w.min() >= -1e-9


def test_no_constraints_feasible():
    p = LPProblem(3)
    w = lp_feasible(p)
    assert np.allclose(w, 0.0)


def test_minimize_on_box():
    p = LPProblem(2)
    for k in range(2):
        e = np.zeros(2)
        e[k] = 1.0
        p.add_ge(e, -1.0)
        p.add_ge(-e, -2.0)
    p.objective = np.array([1.0, -1.0])
    val, arg = lp_minimize(p)
    assert val == pytest.approx(-3.0, abs=1e-9)
    assert arg[0] == pytest.approx(-1.0, abs=1e-9)
    assert arg[1] == pytest.approx(2.0, abs=1e-9)


def test_minimize_infeasible_returns_none():
    p = LPProblem(1)
    p.add_ge([1.0], 1.0)
    p.add_ge([-1.0], -0.0)
    p.objective = np.array([1.0])
    assert lp_minimize(p) is None


def test_minimize_unbounded_raises():
    p = LPProblem(1)
    p.add_ge([1.0], 0.0)
    p.objective = np.array([-1.0])
    with pytest.raises(LPError):
        lp_minimize(p)


def test_minimize_needs_objective():
    with pytest.raises(LPError):
        lp_minimize(LPProblem(1))


def test_bad_row_shape():
    p = LPProblem(2)
    with pytest.raises(LPError):
        p.add_ge([1.0], 0.0)


def test_non_finite_data():
    p = LPProblem(1)
    p.add_ge([np.inf], 0.0)
    with pytest.raises(LPError):
        lp_feasible(p)


def test_nonneg_variables_need_no_rows():
    p = LPProblem(2, nonneg=[1])
    p.add_eq([1.0, 1.0], -1.0)
    p.add_ge([-0.0, -1.0], -2.0)
    p.objective = np.array([0.0, -1.0])
    val, arg = lp_minimize(p)
    assert val == pytest.approx(-2.0, abs=1e-9)
    assert arg == pytest.approx([-3.0, 2.0], abs=1e-9)
    q = LPProblem(1, nonneg=[0])
    q.add_ge([-1.0], 1.0)
    assert lp_feasible(q) is None


def test_round_off_row_is_a_zero_row():
    # -1e-12 w >= 0 is round-off: scaling it to -w >= 0 would make
    # w >= 0, sum w = 1 infeasible
    p = LPProblem(2, nonneg=[0, 1])
    p.add_ge([-1e-12, -1e-13], 0.0)
    p.add_eq([1.0, 1.0], 1.0)
    assert lp_feasible(p) is not None
    q = LPProblem(1)
    q.add_ge([1e-12], 1.0)
    assert lp_feasible(q) is None


def test_degenerate_lp_with_near_parallel_columns():
    # Two nonnegative columns w, parallel up to round-off, two more
    # nonnegative ones, then eight free columns: the last four bounded by
    # +-(coef @ w) and in sum, the first four on six homogeneous rows.
    # Equalities tie coef @ w to the other columns and normalize w.  With
    # ties broken by lowest basis index the simplex cycled here forever.
    # HiGHS finds the LP infeasible.
    coef = np.array([[170.22472988282533, 0.0027775128867845605],
                     [-55.44926148522998, -0.0007967634732560892],
                     [-363.85209180899545, -0.006007268886308712],
                     [68.45735719021683, 0.0019466980477280541]])
    normal = np.array([[0.09761377322793167, -3.6414034700307427],
                       [2.077643247629091, 0.9391557124046472],
                       [-4.3505254879282385, 1.8812771428390835],
                       [1.7752356809733287, -3.172874863103619]])
    polar = np.array([
        [-0.3697971156158635, 0.6826361091098743, -0.09469820518964406, -0.6231294293767384],
        [-0.3567331487550996, 0.8279568794907087, 0.07379658678864759, 0.42636009435877725],
        [-0.0951130563713032, 0.22040736530884775, 0.0700365443142032, -0.9682298189406512],
        [-0.2599486460893632, 0.49587798656228593, -0.5380962806383922, 0.6300667556714674],
        [0.047092601704430505, -0.44031562963861476, 0.7889519834763289, -0.4259802823246921],
        [0.7416589531007438, 0.15762636524160217, -0.10063048112859825, 0.6441812109446041]])
    p = LPProblem(12, nonneg=range(4))
    for r in polar:
        p.add_ge(np.r_[np.zeros(4), r, np.zeros(4)], 0.0)
    for k in range(4):
        for sign in (-1.0, 1.0):
            p.add_ge(np.r_[sign * coef[k], np.zeros(6), np.eye(4)[k]], 0.0)
    p.add_ge(np.r_[np.zeros(8), -np.ones(4)], -1.9801470151622023)
    for k in range(4):
        p.add_eq(np.r_[coef[k], normal[k], np.eye(4)[k], np.zeros(4)], 0.0)
    p.add_eq(np.r_[192.17538173313355, 0.0036289368404655515, np.zeros(10)], 1.0)
    assert lp_feasible(p) is None


def test_nonneg_index_out_of_range():
    with pytest.raises(LPError):
        LPProblem(2, nonneg=[2])


def test_witness_actually_satisfies_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 4))
        p = LPProblem(n)
        rows = []
        for _ in range(int(rng.integers(1, 6))):
            a = rng.integers(-4, 5, n).astype(float)
            b = float(rng.integers(-4, 5))
            if np.any(a):
                p.add_ge(a, b)
                rows.append((a, b))
        w = lp_feasible(p)
        if w is not None:
            for a, b in rows:
                assert float(a @ w) >= b - 1e-7


def test_feasibility_matches_rational_oracle_500():
    """Acceptance criterion: simplex verdicts equal exact rational vertex
    enumeration on 500 random small LPs, zero disagreements."""
    rng = np.random.default_rng(123)
    disagreements = 0
    for _ in range(500):
        n = int(rng.integers(1, 4))
        n_ge = int(rng.integers(1, 5))
        n_eq = int(rng.integers(0, 2))
        ge, eq = [], []
        p = LPProblem(n)
        for _ in range(n_ge):
            a = rng.integers(-3, 4, n)
            b = int(rng.integers(-3, 4))
            if not np.any(a):
                a[0] = 1
            p.add_ge(a.astype(float), float(b))
            ge.append((list(int(c) for c in a), b))
        for _ in range(n_eq):
            a = rng.integers(-3, 4, n)
            b = int(rng.integers(-3, 4))
            if not np.any(a):
                a[-1] = 1
            p.add_eq(a.astype(float), float(b))
            eq.append((list(int(c) for c in a), b))
        ours = lp_feasible(p) is not None
        exact = rational_feasible(n, ge, eq)
        if ours != exact:
            disagreements += 1
    assert disagreements == 0


@pytest.mark.parametrize("decades", [3, 6, 9])
def test_badly_scaled_rows_match_highs(decades):
    """300 random LPs (n = 2..6, some variables nonnegative, some
    homogeneous rows a.v >= 0) with every row multiplied by a factor spread
    over 10^+-decades: verdicts equal HiGHS on the unscaled rows, witnesses
    satisfy the unscaled rows, and the minimum of a random objective equals
    HiGHS's (or both find it unbounded)."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(decades)
    for _ in range(300):
        n = int(rng.integers(2, 7))
        nonneg = [j for j in range(n) if rng.random() < 0.5]
        a_ge = rng.standard_normal((int(rng.integers(1, 2 * n + 1)), n))
        a_eq = rng.standard_normal((int(rng.integers(0, n)), n))
        x0 = rng.standard_normal(n)
        x0[nonneg] = np.abs(x0[nonneg])
        b_ge = a_ge @ x0 - rng.uniform(0.0, 1.0, len(a_ge))
        if rng.random() < 0.5:        # often infeasible
            b_ge = b_ge + rng.uniform(0.0, 3.0, len(a_ge))
        b_eq = a_eq @ x0
        cone = rng.standard_normal((int(rng.integers(0, n + 1)), n))
        a_ge = np.vstack([a_ge, cone])
        b_ge = np.append(b_ge, np.zeros(len(cone)))
        p = LPProblem(n, nonneg=nonneg)
        for a, b in zip(a_ge, b_ge):
            s = 10.0 ** rng.uniform(-decades, decades)
            p.add_ge(s * a, s * b)
        for a, b in zip(a_eq, b_eq):
            s = 10.0 ** rng.uniform(-decades, decades)
            p.add_eq(s * a, s * b)
        bounds = [(0.0, None) if j in nonneg else (None, None) for j in range(n)]
        eq = dict(A_eq=a_eq, b_eq=b_eq) if len(a_eq) else {}
        ref = linprog(np.zeros(n), A_ub=-a_ge, b_ub=-b_ge, **eq, bounds=bounds,
                      method="highs")
        assert ref.status in (0, 2)
        w = lp_feasible(p)
        assert (w is not None) == (ref.status == 0)
        if w is None:
            continue
        assert np.all(a_ge @ w >= b_ge - 1e-6)
        assert np.all(np.abs(a_eq @ w - b_eq) <= 1e-6)
        assert np.all(w[nonneg] >= -1e-6)
        p.objective = rng.standard_normal(n)
        # HiGHS's presolve reports some unbounded LPs as infeasible
        ref = linprog(p.objective, A_ub=-a_ge, b_ub=-b_ge, **eq, bounds=bounds,
                      method="highs", options={"presolve": False})
        assert ref.status in (0, 3)
        if ref.status == 3:
            with pytest.raises(LPError, match="unbounded below"):
                lp_minimize(p)
            continue
        val, arg = lp_minimize(p)
        assert val == pytest.approx(ref.fun, rel=1e-6, abs=1e-6)
        assert np.all(a_ge @ arg >= b_ge - 1e-6)
        assert np.all(np.abs(a_eq @ arg - b_eq) <= 1e-6)
        assert np.all(arg[nonneg] >= -1e-6)


def test_cone_section_lp_of_a_weak_sufficiency_query():
    """The nontriviality LP DirectionSet.cone_section solves for the cone
    of a weak tangent-sufficiency query (lp-certificates, seed 190, query
    131): three homogeneous rows and v0 >= 1.  The all-artificial start
    ended phase 1 unbounded on round-off here."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    rows = np.array([
        [-0.5672471290602392, -0.0361026129615247, 1.4705734418791008],
        [0.3231093742615922, -0.4697656880702885, 1.606458796445989],
        [-0.3308168799264883, 0.4809716970951518, 1.4753255467615498],
        [1.0, 0.0, 0.0]])
    rhs = np.array([0.0, 0.0, 0.0, 1.0])
    p = LPProblem(3)
    p.add_ge(rows, rhs)
    w = lp_feasible(p)
    ref = linprog(np.zeros(3), A_ub=-rows, b_ub=-rhs, bounds=[(None, None)] * 3,
                  method="highs")
    assert (w is not None) == (ref.status == 0)
    if w is not None:
        assert np.all(rows @ w >= rhs - 1e-9 * np.abs(rows).max(axis=1))


def test_rows_with_nonpositive_rhs_need_no_phase_1_pivot(monkeypatch):
    """Inequalities a.v >= b with b <= 0 start feasible with their slacks
    basic, so a feasibility LP of only such rows makes no pivot at all."""
    pivots = []
    real_pivot = lp._pivot
    monkeypatch.setattr(lp, "_pivot", lambda *args: pivots.append(args) or real_pivot(*args))
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        a = rng.standard_normal((int(rng.integers(1, 3 * n + 1)), n))
        b = np.where(rng.random(len(a)) < 0.5, 0.0, -rng.uniform(0.0, 2.0, len(a)))
        p = LPProblem(n, nonneg=[j for j in range(n) if rng.random() < 0.5])
        p.add_ge(a, b)
        p.add_ge(-a[:1], -1.0)        # a.v <= 1: its rhs is negative too
        w = lp_feasible(p)
        assert w is not None and np.all(a @ w >= b) and a[0] @ w <= 1.0
    assert pivots == []


# ---------------------------------------------------------------------------
# blocks of rows: one add_* call on a (k, n) block stores what k one-row
# calls store, byte for byte

def _entries(p):
    return ([(c.tobytes(), np.float64(b).tobytes()) for c, b in p.a_ub],
            [(c.tobytes(), np.float64(b).tobytes()) for c, b in p.a_eq])


def _block():
    block = np.random.default_rng(5).normal(size=(4, 3))
    block[1, 2], block[2, 0] = 0.0, -0.0
    return block


@pytest.mark.parametrize("method", ["add_ge", "add_eq"])
@pytest.mark.parametrize("rhs", [0.7, -0.0, [1.5, -2.0, 0.0, -0.0]], ids=["one", "zero", "per-row"])
def test_block_matches_one_row_calls(method, rhs):
    block = _block()
    one, many = LPProblem(3), LPProblem(3)
    for row, b in zip(block, np.broadcast_to(rhs, len(block))):
        getattr(one, method)(row, float(b))
    getattr(many, method)(block, rhs)
    assert _entries(many) == _entries(one)
    assert len(many.a_ub) + len(many.a_eq) == len(block)


@pytest.mark.parametrize("method", ["add_ge", "add_eq"])
def test_empty_block_adds_nothing(method):
    p = LPProblem(3)
    getattr(p, method)(np.zeros((0, 3)), 1.0)
    getattr(p, method)(np.zeros((0, 3)), np.zeros(0))
    assert p.a_ub == [] and p.a_eq == []


@pytest.mark.parametrize("method", ["add_ge", "add_eq"])
@pytest.mark.parametrize("coef, rhs", [
    (np.ones((2, 4)), 0.0),
    (np.ones((2, 3, 1)), 0.0),
    (np.ones((2, 3)), [1.0, 2.0, 3.0]),
    (np.ones((2, 3)), [1.0]),
    (np.ones((2, 3)), [[1.0, 2.0]]),
    (np.ones(3), [1.0, 2.0]),
], ids=["too-wide", "3-d", "rhs-too-long", "rhs-too-short", "rhs-2-d", "row-two-rhs"])
def test_malformed_block_raises(method, coef, rhs):
    p = LPProblem(3)
    with pytest.raises(LPError):
        getattr(p, method)(coef, rhs)
    assert p.a_ub == [] and p.a_eq == []
