import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirpareto.geometry import HalfspaceCone
from dirpareto.scalarize import (
    ScalarizationContext,
    ScalarizationError,
    gerstewitz_subdiff,
    gerstewitz_value,
)

from oracles import gerstewitz_bisect

ORTHANT2 = HalfspaceCone.from_rows(np.eye(2))
WEDGE = HalfspaceCone.from_rows([[0.0, 1.0], [1.0, -1.0]])
ORTHANT3 = HalfspaceCone.from_rows(np.eye(3))

CTX2 = ScalarizationContext.create(ORTHANT2, [1.0, 1.0])
CTXW = ScalarizationContext.create(WEDGE, [2.0, 1.0])
CTX3 = ScalarizationContext.create(ORTHANT3, [1.0, 2.0, 1.0])
# the wedge with its rows rescaled by 1e-6 and 1e6
CTX_SCALED = ScalarizationContext.create(
    HalfspaceCone.from_rows([[0.0, 1e-6], [1e6, -1e6]]), [2.0, 1.0])
# the gerstewitz-polyhedral-K CLI fixture's cone and e
CTX_POLY = ScalarizationContext.create(
    HalfspaceCone.from_rows([[1.0, 0.5], [0.5, 1.0], [1.0, -0.2]]), [1.0, 1.0])


def test_scales_computed_once_read_only():
    for ctx in (CTX2, CTXW, CTX3, CTX_SCALED, CTX_POLY):
        assert ctx.scales.tolist() == (ctx.K.rows @ ctx.e).tolist()
        assert not ctx.scales.flags.writeable
        # the constructor derives the scales itself and takes no array for them
        assert ScalarizationContext(ctx.K, ctx.e).scales.tolist() == ctx.scales.tolist()
        with pytest.raises(TypeError):
            ScalarizationContext(ctx.K, ctx.e, ctx.scales)


def test_requires_interior_e():
    with pytest.raises(ScalarizationError):
        ScalarizationContext.create(ORTHANT2, [1.0, 0.0])


def test_hand_value():
    assert gerstewitz_value(CTX2, [3.0, -1.0]) == pytest.approx(3.0, abs=1e-12)
    assert gerstewitz_value(CTX2, [0.0, 0.0]) == 0.0


def test_matches_bisection_oracle_1000():
    """Closed form vs the defining-inclusion bisection, 1e-7."""
    rng = np.random.default_rng(42)
    for ctx in (CTX2, CTXW):
        for _ in range(250):
            y = rng.uniform(-10.0, 10.0, 2)
            assert gerstewitz_value(ctx, y) == pytest.approx(
                gerstewitz_bisect(ctx.K, ctx.e, y), abs=1e-7)
    for _ in range(500):
        y = rng.uniform(-10.0, 10.0, 3)
        assert gerstewitz_value(CTX3, y) == pytest.approx(
            gerstewitz_bisect(CTX3.K, CTX3.e, y), abs=1e-7)


def test_level_sets():
    """{y : s(y) <= lam} = lam*e - K."""
    rng = np.random.default_rng(5)
    for _ in range(300):
        y = rng.uniform(-5.0, 5.0, 2)
        lam = float(rng.uniform(-5.0, 5.0))
        s = gerstewitz_value(CTX2, y)
        in_level = s <= lam + 1e-9
        in_set = CTX2.K.contains(lam * np.asarray(CTX2.e) - y, tol=1e-9)
        assert in_level == in_set


def test_translation_along_e():
    rng = np.random.default_rng(6)
    for ctx in (CTX2, CTXW):
        e = np.asarray(ctx.e)
        for _ in range(100):
            y = rng.uniform(-5.0, 5.0, 2)
            t = float(rng.uniform(-3.0, 3.0))
            assert gerstewitz_value(ctx, y + t * e) == pytest.approx(
                gerstewitz_value(ctx, y) + t, abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=4, max_size=4),
       st.floats(0.01, 10.0))
def test_sublinear(vals, lam):
    y1 = np.array(vals[:2])
    y2 = np.array(vals[2:])
    s = gerstewitz_value
    assert s(CTX2, y1 + y2) <= s(CTX2, y1) + s(CTX2, y2) + 1e-8
    assert s(CTX2, lam * y1) == pytest.approx(lam * s(CTX2, y1), abs=1e-7)


def test_K_monotone():
    """y2 - y1 in K implies s(y1) <= s(y2)."""
    rng = np.random.default_rng(7)
    for ctx in (CTX2, CTXW):
        for _ in range(200):
            y1 = rng.uniform(-5.0, 5.0, 2)
            k = rng.uniform(0.0, 5.0, 2)
            if not ctx.K.contains(k):
                continue
            assert gerstewitz_value(ctx, y1) <= gerstewitz_value(
                ctx, y1 + k) + 1e-9


def _is_ray_of_a_row(v, rows):
    """Is v a nonnegative multiple of one row of K?"""
    return any(v @ r >= 0 and np.allclose(v, (v @ r) / (r @ r) * r, rtol=1e-12, atol=0)
               for r in rows)


def test_subdiff_certificate():
    """At random u and at u = e, where every ratio ties at 1, on a badly
    scaled cone too: the value is gerstewitz_value's bit for bit and the
    witness is a scaled row of K that passes its own check."""
    rng = np.random.default_rng(8)

    def check(ctx, u):
        cert = gerstewitz_subdiff(ctx, u)
        v = np.asarray(cert.witness)
        assert cert.value == gerstewitz_value(ctx, u)
        assert cert.satisfies(cert.witness)
        assert _is_ray_of_a_row(v, ctx.K.rows)
        # subgradient inequality s(y) >= s(u) + v.(y - u)
        su = gerstewitz_value(ctx, u)
        assert float(v @ ctx.e) == pytest.approx(1.0, abs=1e-9)
        assert float(v @ u) == pytest.approx(su, abs=1e-7)
        for _ in range(20):
            y = rng.uniform(-5.0, 5.0, len(u))
            assert gerstewitz_value(ctx, y) >= su + float(
                v @ (y - u)) - 1e-7

    contexts = (CTX2, CTXW, CTX3, CTX_SCALED)
    for ctx in contexts:
        for _ in range(50):
            check(ctx, rng.uniform(-5.0, 5.0, len(ctx.e)))
    for ctx in contexts:
        check(ctx, ctx.e)


def test_subdiff_witness_in_dual_cone():
    rng = np.random.default_rng(9)
    for _ in range(100):
        u = rng.uniform(-5.0, 5.0, 2)
        v = np.asarray(gerstewitz_subdiff(CTXW, u).witness)
        # v in K+ : nonnegative on every K member
        for _ in range(20):
            k = rng.uniform(-5.0, 5.0, 2)
            if WEDGE.contains(k):
                assert float(v @ k) >= -1e-8


def test_subdiff_check_scales_with_u():
    """At |u| up to 1e12 the exact witness passes its own check, whose
    slack grows with |v*_i u_i|, while the witness scaled by 1 + 1e-6 and
    the normalized row of least ratio (in K+, 1 at e, below s(u) at u) are
    still rejected at every u."""
    u = [-86789778028.88356, 56236212286.85817]
    cert = gerstewitz_subdiff(CTX_POLY, u)
    assert cert.satisfies(cert.witness)
    rng = np.random.default_rng(24)
    failed, accepted = 0, 0
    for _ in range(2000):
        u = rng.uniform(-1.0, 1.0, 2) * 10.0 ** rng.uniform(0.0, 12.0)
        cert = gerstewitz_subdiff(CTX_POLY, u)
        failed += not cert.satisfies(cert.witness)
        accepted += cert.satisfies(np.asarray(cert.witness) * (1.0 + 1e-6))
        k = int(np.argmin(CTX_POLY.ratios(u)))
        accepted += cert.satisfies(CTX_POLY.K.rows[k] / CTX_POLY.scales[k])
    assert (failed, accepted) == (0, 0)
