"""Batched membership: ``contains_many(X)`` answers exactly what one-point
``contains`` answers on every row, for every set and cone, on random
points and on the points where a tolerance or a rounding decides."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirpareto.geometry import (
    TOL,
    DirectionSet,
    GeneratorCone,
    GeometryError,
    HalfspaceCone,
    cone_contains,
    cone_contains_many,
    frozen_array,
)
from dirpareto.sets import (
    ImplicitSet,
    IntersectionSet,
    PolygonRegion,
    PolyhedralSet,
    cardioid_region,
    closed_curve_region,
    curve_halfplane_set,
)


# ---------------------------------------------------------------------------
# one-point references: the row product of a halfspace cone, the even-odd
# and near-boundary test of a polygon and the 2-D sector test of a
# generator cone, one point at a time

def _halfspace_reference(C, v, strict=False, tol=TOL) -> bool:
    prods = C.rows @ v
    if strict:
        return bool(np.all(prods > tol))
    return bool(np.all(prods >= -tol))


def _polygon_reference(P, x) -> bool:
    V = P.vertices
    W = np.roll(V, -1, axis=0)
    px, py = x
    straddle = (V[:, 1] > py) != (W[:, 1] > py)
    if np.any(straddle):
        vi, di = V[straddle], (W - V)[straddle]
        xc = vi[:, 0] + (py - vi[:, 1]) / di[:, 1] * di[:, 0]
        if int(np.count_nonzero(px < xc)) % 2 == 1:
            return True
    if P.edge_tol == 0.0:
        return False
    d = W - V
    lens2 = np.einsum("ij,ij->i", d, d)
    lens2[lens2 == 0.0] = 1.0
    t = np.clip(np.einsum("ij,ij->i", x - V, d) / lens2, 0.0, 1.0)
    proj = V + t[:, None] * d
    dist2 = np.einsum("ij,ij->i", x - proj, x - proj)
    return bool(np.min(dist2) <= P.edge_tol ** 2)


def _sector_reference(C, v) -> bool:
    nrm = float(np.linalg.norm(v))
    if nrm <= TOL:
        return True
    if C.dim == 1:
        return bool(np.any(C.generators[:, 0] * v[0] > 0.0))
    v = v / nrm
    units = C.generators / np.linalg.norm(C.generators, axis=1, keepdims=True)
    perp = np.stack([-units[:, 1], units[:, 0]], axis=1)
    dots = perp @ units.T
    if not (np.any(np.all(dots >= -TOL, axis=1)) or np.any(np.all(dots <= TOL, axis=1))):
        return True
    cross_gv = units[:, 0] * v[1] - units[:, 1] * v[0]
    if np.any((np.abs(cross_gv) <= TOL) & (units @ v > 0.0)):
        return True
    sectors = (units[:, 0][:, None] * units[:, 1][None, :]
               - units[:, 1][:, None] * units[:, 0][None, :]) > TOL
    return bool(np.any(sectors & (cross_gv[:, None] >= -TOL) & (-cross_gv[None, :] >= -TOL)))


# ---------------------------------------------------------------------------
# the oracles, each with its adversarial points

def _hyperplane_points(rows, offsets=None):
    """Points on each hyperplane a.x = b and TOL, 2 TOL off it either way."""
    rows = np.asarray(rows, float)
    b = np.zeros(len(rows)) if offsets is None else np.asarray(offsets, float)
    rng = np.random.default_rng(1)
    pts = []
    for a, off in zip(rows, b):
        foot = off * a / (a @ a)
        for _ in range(3):
            z = rng.standard_normal(len(a))
            z -= (z @ a) / (a @ a) * a
            for s in (0.0, TOL, -TOL, 2 * TOL, -2 * TOL, 0.5 * TOL, -0.5 * TOL):
                pts.append(foot + z + s * a / (a @ a))
    return pts


def _polygon_points(P):
    """Vertices, edge midpoints, and points edge_tol and 2 edge_tol off
    the middle of each edge on either side."""
    V = P.vertices
    W = np.roll(V, -1, axis=0)
    d = W - V
    n = np.stack([-d[:, 1], d[:, 0]], axis=1)
    lens = np.linalg.norm(n, axis=1, keepdims=True)
    n = n / np.where(lens == 0.0, 1.0, lens)
    mid = 0.5 * (V + W)
    tol = P.edge_tol or 1e-12
    pts = [V, mid]
    for s in (tol, 2 * tol, 0.5 * tol):
        pts += [mid + s * n, mid - s * n]
    return list(np.concatenate(pts))


def _cone_points(gens):
    """Generator rays, their negatives, the zero vector and, in 2-D,
    directions TOL off each generator."""
    G = np.asarray(gens, float)
    pts = list(G) + list(-G) + list(1e-10 * G) + [np.zeros(G.shape[1])]
    if G.shape[1] == 2:
        perp = np.stack([-G[:, 1], G[:, 0]], axis=1)
        for s in (TOL, -TOL, 2 * TOL, -2 * TOL):
            pts += list(G + s * perp)
    return pts


STAIRS = PolygonRegion(frozen_array([[0, 0], [2, 0], [2, 1], [2, 1], [1, 1], [1, 2], [0, 2]], 2),
                       edge_tol=1e-3, name="stairs")  # horizontal and zero-length edges
CARDIOID = cardioid_region(512)
CUSP = [[0.0, 0.0], [-1e-3, 0.0], [-1e-9, 0.0], [-1e-12, 1e-30], [-0.5, 0.0],
        [1e-6, 1e-9], [1e-6, -1e-9], [-1e-6, 1e-9]]
HALF = HalfspaceCone.from_rows([[1.0, 2.0], [0.0, 1.0]])
H3 = HalfspaceCone.from_rows([[1.0, 0.0, 1.0], [0.0, 1.0, -1.0], [1.0, 1.0, 1.0]])
BOX3 = PolyhedralSet.from_rows(np.vstack([np.eye(3), -np.eye(3)]), [0.0] * 3 + [-1.0] * 3)
STRIP = PolyhedralSet.from_rows([[1.0, 1.0], [-1.0, 0.5]], [0.0, -1.0])
SECTOR = [[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
RAY = [[-1.0, 0.0]]
PLANE = [[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]
GEN3 = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 1.0]]
# a cone for each way the facet rows arise: both signs and one sign in
# 1-D, all generators on one line, a half-plane, a sector just below pi
# and a right angle
GENERATOR_CONES = {
    "generator-1d-both-signs": [[-3.0], [0.5]],
    "generator-1d-one-sign": [[-0.5], [-4.0]],
    "generator-line": [[1.0, 2.0], [-2.0, -4.0]],
    "generator-half-plane": [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]],
    "generator-below-pi": [[1.0, 0.0], [np.cos(np.pi - 1e-6), np.sin(np.pi - 1e-6)]],
    "generator-right-angle": [[0.0, 2.0], [-3.0, 0.0]],
}
BALL = ImplicitSet(2, lambda x: float(np.linalg.norm(x)) <= 1.0, "ball")
CURVE_HALF = curve_halfplane_set(256)
INTER = IntersectionSet((closed_curve_region(256), STRIP))

ORACLES = {
    "halfspace-2d": (HALF, _hyperplane_points(HALF.rows)),
    "halfspace-3d": (H3, _hyperplane_points(H3.rows)),
    "polyhedron-2d": (STRIP, _hyperplane_points(STRIP.rows, STRIP.offsets)),
    "polyhedron-3d": (BOX3, _hyperplane_points(BOX3.rows, BOX3.offsets)),
    "generator-1d": (GeneratorCone.from_generators([[2.0]]), [[0.0], [1.0], [-1.0], [1e-10]]),
    "generator-sector": (GeneratorCone.from_generators(SECTOR), _cone_points(SECTOR)),
    "generator-ray": (GeneratorCone.from_generators(RAY), _cone_points(RAY)),
    "generator-plane": (GeneratorCone.from_generators(PLANE), _cone_points(PLANE)),
    "generator-3d": (GeneratorCone.from_generators(GEN3), _cone_points(GEN3)),
    **{name: (GeneratorCone.from_generators(gens), _cone_points(gens))
       for name, gens in GENERATOR_CONES.items()},
    "polygon": (closed_curve_region(64), _polygon_points(closed_curve_region(64))),
    "polygon-stairs": (STAIRS, _polygon_points(STAIRS)),
    "polygon-cardioid": (CARDIOID, _polygon_points(CARDIOID)[:300] + CUSP),
    "implicit": (BALL, [[1.0, 0.0], [0.6, 0.8], [0.0, 0.0]]),
    "union": (CURVE_HALF, _polygon_points(CURVE_HALF.parts[1].parts[0])[::3] + CUSP),
    "intersection": (INTER, _polygon_points(INTER.parts[0])[::3]
                     + _hyperplane_points(STRIP.rows, STRIP.offsets)),
}

REFERENCES = {
    "halfspace-2d": _halfspace_reference,
    "halfspace-3d": _halfspace_reference,
    "generator-sector": _sector_reference,
    "generator-ray": _sector_reference,
    "generator-plane": _sector_reference,
    **dict.fromkeys(GENERATOR_CONES, _sector_reference),
    "polygon": _polygon_reference,
    "polygon-stairs": _polygon_reference,
    "polygon-cardioid": _polygon_reference,
}


@pytest.mark.parametrize("name", sorted(ORACLES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_contains_many_matches_one_point(name, data):
    obj, special = ORACLES[name]
    coord = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
    point = st.one_of(st.sampled_from(range(len(special))).map(lambda i: special[i]),
                      st.lists(coord, min_size=obj.dim, max_size=obj.dim))
    X = np.array(data.draw(st.lists(point, max_size=60)), dtype=float).reshape(-1, obj.dim)
    batch = obj.contains_many(X)
    assert batch.dtype == bool and batch.shape == (len(X),)
    assert batch.tolist() == [obj.contains(x) for x in X]
    if name in REFERENCES:
        assert batch.tolist() == [REFERENCES[name](obj, x) for x in X]


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_contains_many_on_every_special_point(name):
    obj, special = ORACLES[name]
    X = np.array(special, dtype=float)
    assert obj.contains_many(X).tolist() == [obj.contains(x) for x in X]
    if name in REFERENCES:
        assert obj.contains_many(X).tolist() == [REFERENCES[name](obj, x) for x in X]
    assert obj.contains_many(np.zeros((0, obj.dim))).shape == (0,)


@pytest.mark.parametrize("name", ["halfspace-2d", "halfspace-3d"])
@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("tol", [TOL, 2 * TOL, 0.0])
def test_halfspace_strict_and_tol_forms_match_the_row_product(name, strict, tol):
    obj, special = ORACLES[name]
    rng = np.random.default_rng(5)
    X = np.vstack([np.array(special, dtype=float), rng.standard_normal((200, obj.dim))])
    want = [_halfspace_reference(obj, x, strict, tol) for x in X]
    assert obj.contains_many(X, strict, tol).tolist() == want
    assert [obj.contains(x, strict, tol) for x in X] == want


@pytest.mark.parametrize("L", [
    DirectionSet.finite([[1.0, 0.0], [0.0, 1.0]]),
    DirectionSet.finite([[1.0]]),
    DirectionSet.full_sphere(2),
    DirectionSet.cone_section(H3),
], ids=["finite-2d", "finite-1d", "full-sphere", "section-3d"])
def test_cone_contains_many_matches_one_point(L):
    rng = np.random.default_rng(3)
    X = np.concatenate([rng.standard_normal((200, L.dim)), 1e-10 * rng.standard_normal((5, L.dim)),
                        np.zeros((1, L.dim))])
    if L.variant == "cone_section":
        X = np.concatenate([X, _hyperplane_points(L.section.rows)])
    assert cone_contains_many(L, X).tolist() == [cone_contains(L, x) for x in X]


def test_near_parallel_generators_never_widen_the_sector_reference():
    """Generator sets with two directions at most 1e-6 from one line, some
    with a third generator: the facet rows accept no point the sector
    rule of the reference rejects (they may reject a few it accepts)."""
    rng = np.random.default_rng(7)
    for _ in range(300):
        a = rng.uniform(-np.pi, np.pi)
        angles = [a, a + rng.choice([0.0, np.pi]) + rng.choice([-1, 1]) * 10.0 ** rng.uniform(-13, -6)]
        angles += list(rng.uniform(-np.pi, np.pi, rng.integers(0, 2)))
        gens = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        C = GeneratorCone.from_generators(gens)
        P = np.array(_cone_points(gens))
        X = np.concatenate([P, -P, rng.standard_normal((20, 2))])
        want = [_sector_reference(C, x) for x in X]
        assert not (C.contains_many(X) & ~np.array(want)).any()


def test_contains_many_rejects_bad_batches():
    with pytest.raises(GeometryError):
        HALF.contains_many([1.0, 2.0])  # one point, not a batch
    with pytest.raises(GeometryError):
        STAIRS.contains_many(np.zeros((2, 3)))
    with pytest.raises(GeometryError):
        CURVE_HALF.contains_many([[np.nan, 0.0]])


# ---------------------------------------------------------------------------
# the slab index of a polygon against the all-edges test it replaced: every
# point compared with every edge, in one (points x edges) mask

def _all_edges_reference(P, X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if len(X) > 256:
        return np.concatenate([_all_edges_reference(P, X[s:s + 256]) for s in range(0, len(X), 256)])
    V, W, d = P.vertices, P.next_vertices, P.edges
    py = X[:, 1:]
    pi, ei = np.nonzero((V[:, 1] > py) != (W[:, 1] > py))
    xc = V[ei, 0] + (X[pi, 1] - V[ei, 1]) / d[ei, 1] * d[ei, 0]
    inside = np.bincount(pi[X[pi, 0] < xc], minlength=len(X)) % 2 == 1
    if P.edge_tol == 0.0:
        return inside
    px, py = X[:, :1], X[:, 1:]
    lo, hi = P.box_lo, P.box_hi
    pi, ei = np.nonzero((px >= lo[:, 0]) & (px <= hi[:, 0]) & (py >= lo[:, 1]) & (py <= hi[:, 1]))
    P_, Vp, dp = X[pi], V[ei], d[ei]
    t = np.clip(np.einsum("ij,ij->i", P_ - Vp, dp) / P.edge_lengths2[ei], 0.0, 1.0)
    proj = Vp + t[:, None] * dp
    dist2 = np.einsum("ij,ij->i", P_ - proj, P_ - proj)
    return inside | (np.bincount(pi[dist2 <= P.edge_tol ** 2], minlength=len(X)) > 0)


def _comb(teeth: int) -> PolygonRegion:
    """Vertices alternating between heights 0 and 1 above a base at -1:
    every tooth edge spans the same heights, so the index must coarsen its
    bands."""
    x = np.arange(2 * teeth, dtype=float)
    top = np.stack([x, (np.arange(2 * teeth) % 2).astype(float)], axis=1)
    base = [[2 * teeth - 1.0, -1.0], [0.0, -1.0]]
    return PolygonRegion(frozen_array(np.concatenate([top, base]), 2), edge_tol=1e-9, name="comb")


SLAB_POLYGONS = {
    **{f"cardioid-{n}": cardioid_region(n) for n in (4096, 64, 7)},
    **{f"closed-curve-{n}": closed_curve_region(n) for n in (4096, 64, 7)},
    "stairs": STAIRS,
    "comb": _comb(512),
    # horizontal edges, a zero-length edge and many repeated heights
    "zigzag": PolygonRegion(frozen_array(
        [[0, 0], [1, 0], [1, 0], [2, 1], [3, 1], [4, 0], [5, 0], [5, 2], [3, 2], [3, 1],
         [1, 1], [1, 2], [0, 2]], 2), edge_tol=1e-6, name="zigzag"),
    # every vertex at one height: a single band, only the boundary is a member
    "flat": PolygonRegion(frozen_array([[0, 0], [1, 0], [3, 0]], 2), name="flat"),
}


def _slab_points(P):
    """Vertices, edge midpoints and points 1e-13 off them; points at each
    vertex height (a band bound) left of, inside and right of the polygon;
    points above and below it; and points at 1e-9 to 1e-14 scale around
    the origin, where the cardioid has its cusp."""
    V, W = P.vertices, P.next_vertices
    mid = 0.5 * (V + W)
    lo, hi = V.min(axis=0), V.max(axis=0)
    rng = np.random.default_rng(7)
    at_heights = np.stack([rng.uniform(lo[0] - 1.0, hi[0] + 1.0, len(V)), V[:, 1]], axis=1)
    outside = np.stack([rng.uniform(lo[0] - 1.0, hi[0] + 1.0, 40),
                        np.repeat([lo[1] - 1e-9, lo[1] - 1.0, hi[1] + 1e-9, hi[1] + 1.0], 10)], axis=1)
    pts = [V, mid, V + 1e-13, V - 1e-13, mid + 1e-13, mid - 1e-13, at_heights, outside]
    pts += [s * rng.uniform(-1.0, 1.0, (50, 2)) for s in (1e-9, 1e-11, 1e-12, 1e-14)]
    pts += [[[-1e-9, 0.0], [-1e-14, 0.0], [-1e-12, 1e-30], [1e-14, 1e-21], [1e-14, -1e-21]]]
    return np.concatenate(pts)


@pytest.mark.parametrize("name", sorted(SLAB_POLYGONS))
def test_slab_index_matches_all_edges_on_special_points(name):
    P = SLAB_POLYGONS[name]
    X = _slab_points(P)
    assert P.contains_many(X).tolist() == _all_edges_reference(P, X).tolist()
    slabs = P.slabs
    assert len(slabs.band_edges) <= 8 * len(P.vertices)
    assert slabs.width == np.max(np.diff(slabs.band_start))
    if name == "comb":
        assert len(slabs.bounds) <= 16  # coarsened


@pytest.mark.parametrize("name", sorted(SLAB_POLYGONS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_slab_index_matches_all_edges(name, data):
    P = SLAB_POLYGONS[name]
    special = _slab_points(P)
    lo, hi = P.vertices.min(axis=0) - 1.0, P.vertices.max(axis=0) + 1.0
    heights = np.unique(P.vertices[:, 1])
    y = st.one_of(st.sampled_from(heights.tolist()), st.floats(lo[1], hi[1]),
                  st.floats(-1e-9, 1e-9))
    point = st.one_of(st.tuples(st.floats(lo[0], hi[0]), y),
                      st.sampled_from(range(len(special))).map(lambda i: tuple(special[i])))
    X = np.array(data.draw(st.lists(point, max_size=60)), dtype=float).reshape(-1, 2)
    assert P.contains_many(X).tolist() == _all_edges_reference(P, X).tolist()


@pytest.mark.parametrize("vertices", [
    np.zeros((0, 2)), [[0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]], np.eye(3), [0.0, 1.0, 2.0],
    [[0.0, 0.0], [1.0, 0.0], [0.0, np.inf]], [[0.0, 0.0], [1.0, 0.0], [0.0, np.nan]],
    [[0.0, 0.0], [1.0], [0.0, 1.0]],
], ids=["empty", "one-vertex", "two-vertices", "three-columns", "flat-list",
        "infinite", "nan", "ragged"])
def test_polygon_rejects_bad_vertices(vertices):
    with pytest.raises(GeometryError):
        PolygonRegion(vertices)


@pytest.mark.parametrize("edge_tol", [-1e-12, np.nan, np.inf])
def test_polygon_rejects_bad_edge_tol(edge_tol):
    with pytest.raises(GeometryError):
        PolygonRegion([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], edge_tol=edge_tol)


def test_polygon_dimension_is_fixed():
    """A polygon is planar: its dim is 2 and not an argument."""
    assert PolygonRegion([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]).dim == 2
    with pytest.raises(TypeError):
        PolygonRegion([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], dim=3)
