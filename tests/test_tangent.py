"""Tangent-cone tests: exact polyhedral calculus, sampled verdicts, the
cardioid boundary pair, and the exact intersection law on random
polyhedral triples."""

import json
import os
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from dirpareto import tangent
from dirpareto.geometry import (
    TOL,
    DirectionSet,
    GeometryError,
    HalfspaceCone,
    cone_contains,
    cone_contains_many,
    ray_points,
    rescaled_rows,
    row_norms,
)
from dirpareto.problemfile import parse_direction_set, parse_set, read, vector
from dirpareto.sets import PolygonRegion, PolyhedralSet, UnionSet, cardioid_region
from dirpareto.tangent import (
    TangentVerdict,
    TSchedule,
    _ball_lattice,
    bouligand_polyhedral,
    tangent_membership_sampled,
    tangent_polyhedral,
)

ORTHANT2 = PolyhedralSet.from_rows([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
HALFPLANE = PolyhedralSet.from_rows([[0.0, 1.0]], [0.0])


# ---------------------------------------------------------------------------
# exact polyhedral tangent cones

def test_bouligand_interior_point_is_whole_space():
    assert bouligand_polyhedral(ORTHANT2, [1.0, 2.0]) is None


def test_bouligand_vertex_is_active_cone():
    cone = bouligand_polyhedral(ORTHANT2, [0.0, 0.0])
    assert cone is not None
    assert cone.contains([1.0, 1.0])
    assert cone.contains([1.0, 0.0])
    assert not cone.contains([-1.0, 0.5])


def test_bouligand_outside_point_raises():
    with pytest.raises(GeometryError):
        bouligand_polyhedral(ORTHANT2, [-1.0, 0.0])


def test_tangent_polyhedral_finite_L_filters_rays():
    L = DirectionSet.finite([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    tc = tangent_polyhedral(ORTHANT2, [0.0, 0.0], L)
    rays = {tuple(np.round(r, 12)) for r in tc.rays}
    assert rays == {(1.0, 0.0), (0.0, 1.0)}
    assert tc.contains([1.0, 0.0])
    assert not tc.contains([-1.0, 0.0])
    assert tc.contains([0.0, 0.0])  # the zero direction is in every cone


def test_tangent_polyhedral_cone_section_intersects():
    L = DirectionSet.cone_section(HalfspaceCone.from_rows([[1.0, 0.0]]))
    tc = tangent_polyhedral(HALFPLANE, [0.0, 0.0], L)
    assert tc.contains([1.0, 1.0])
    assert tc.contains([1.0, 0.0])
    assert not tc.contains([1.0, -1.0])   # leaves the half-plane
    assert not tc.contains([-1.0, 1.0])   # outside cone L


def test_tangent_polyhedral_full_sphere_is_plain_cone():
    L = DirectionSet.full_sphere(2)
    tc = tangent_polyhedral(HALFPLANE, [3.0, 0.0], L)
    assert tc.contains([5.0, 0.0])
    assert tc.contains([-1.0, 2.0])
    assert not tc.contains([0.0, -1.0])


# ---------------------------------------------------------------------------
# sampled verdicts agree with the exact calculus on polyhedra

def test_sampled_matches_exact_on_orthant():
    sched = TSchedule(levels=12, lattice_size=121)
    for u, expect in [((1.0, 1.0), "member"), ((1.0, 0.0), "member"),
                      ((-1.0, -1.0), "nonmember"), ((-1.0, 0.2), "nonmember")]:
        v = tangent_membership_sampled(ORTHANT2, [0.0, 0.0], None, u, sched)
        assert v.status == expect, (u, v.status, v.note)


def test_sampled_outside_cone_L_is_nonmember():
    L = DirectionSet.finite([[0.0, 1.0]])
    v = tangent_membership_sampled(ORTHANT2, [0.0, 0.0], L, [1.0, 0.0])
    assert v.status == "nonmember"
    assert "cone L" in v.note


@pytest.mark.parametrize("field, value", [("levels", 2.5), ("levels", None),
                                          ("lattice_size", 2.5), ("lattice_size", "961")])
def test_schedule_counts_must_be_integers(field, value):
    """A fractional count is no schedule: unchecked, levels=2.5 would run 3."""
    with pytest.raises(GeometryError,
                       match=f"^schedule {field} must be an integer, got {re.escape(repr(value))}$"):
        TSchedule(**{field: value})


def test_sampled_zero_direction_is_member():
    v = tangent_membership_sampled(ORTHANT2, [0.0, 0.0], None, [0.0, 0.0])
    assert v.status == "member"


def test_sampled_restriction_refines_membership():
    # direction tangent to the set but outside cone L: plain verdict is
    # member, restricted verdict is nonmember
    L = DirectionSet.cone_section(HalfspaceCone.from_rows([[-1.0, 0.0]]))
    u = [1.0, 1.0]
    plain = tangent_membership_sampled(ORTHANT2, [0.0, 0.0], None, u,
                                       TSchedule(levels=10, lattice_size=121))
    restricted = tangent_membership_sampled(ORTHANT2, [0.0, 0.0], L, u,
                                            TSchedule(levels=10, lattice_size=121))
    assert plain.status == "member"
    assert restricted.status == "nonmember"


# ---------------------------------------------------------------------------
# cardioid boundary pair

def test_cardioid_restricted_tangent_nonmember():
    region = cardioid_region()
    L = DirectionSet.finite([[-1.0, 0.0]])
    v = tangent_membership_sampled(region, [0.0, 0.0], L, [-1.0, 0.0])
    assert v.status == "nonmember"
    # evidence records the trailing missed levels of the schedule
    assert len(v.evidence) == TSchedule().levels
    assert all(hit is None for _, hit in v.evidence[-3:])


def test_cardioid_unrestricted_tangent_member():
    region = cardioid_region()
    v = tangent_membership_sampled(region, [0.0, 0.0], None, [-1.0, 0.0])
    assert v.status == "member"
    assert len(v.evidence) == TSchedule().levels
    assert all(hit is not None for _, hit in v.evidence)


@pytest.mark.parametrize("L, batches", [
    (DirectionSet.finite([[-1.0, 0.0]]), 16),
    (None, 12),
], ids=["restricted", "unrestricted"])
def test_cardioid_search_asks_the_polygon_in_growing_blocks(monkeypatch, L, batches):
    """The 25 levels go to the set in five batches of five levels, each
    asked in rounds: round r joins block r (1, 8, 64, ... candidates of
    eight points each) of every level still without a hit into one
    membership batch.  That is three rounds a batch for the restricted run
    and two or three for the unrestricted one, plus the one-point query
    for the reference point, which reaches contains_many as well."""
    calls = {"contains": 0, "contains_many": 0}
    for name in calls:
        def counted(self, x, _original=getattr(PolygonRegion, name), _name=name):
            calls[_name] += 1
            return _original(self, x)
        monkeypatch.setattr(PolygonRegion, name, counted)
    region = cardioid_region()
    tangent_membership_sampled(region, [0.0, 0.0], L, [-1.0, 0.0])
    assert calls == {"contains": 1, "contains_many": batches}


# ---------------------------------------------------------------------------
# sampled verdicts pinned in full: status, note and every evidence entry.
# tangent_evidence.json holds _evidence_record of each _evidence_cases
# query as computed by the one-point search that tried each candidate and
# sub-step in turn; the batched search must find the same first hits,
# also with MAX_POINTS patched to one and to three candidates a block (and
# so one level a batch).

HERE = os.path.dirname(__file__)


def _box(dim):
    """The unit box [0, 1]^dim."""
    eye = np.eye(dim)
    return PolyhedralSet.from_rows(np.vstack([eye, -eye]), [0.0] * dim + [-1.0] * dim)


def _evidence_cases():
    """name -> (A, xbar, L, u, schedule) for tangent_membership_sampled."""
    left = DirectionSet.finite([[-1.0, 0.0]])
    cases = {
        "cardioid-restricted": (cardioid_region(), [0.0, 0.0], left, [-1.0, 0.0], TSchedule()),
        "cardioid-unrestricted": (cardioid_region(), [0.0, 0.0], None, [-1.0, 0.0], TSchedule()),
    }
    for name in ("tangent-sampled-named-radius", "tangent-sampled-polyhedron"):
        with open(os.path.join(HERE, "cli_golden", name + ".json"), encoding="utf-8") as fh:
            fx = json.load(fh)
        doc = fx["problem"]
        A = read(doc, "set", parse_set)
        sched = TSchedule(radius=float(fx["flags"][1])) if fx["flags"] else TSchedule()
        cases[name] = (A, read(doc, "point", vector, A.dim),
                       read(doc, "L", parse_direction_set, A.dim, default=None),
                       read(doc, "direction", vector, A.dim), sched)
    # in 3-D a finite L costs one LP per candidate, hence the smaller lattice
    for dim, u, sched in ((2, [1.0, -0.25], TSchedule()),
                          (3, [1.0, 0.5, -0.25], TSchedule(levels=12, lattice_size=343))):
        ell = np.array(u) / np.linalg.norm(u)
        L = DirectionSet.finite(np.vstack([np.eye(dim), ell]))
        for tag, Lc in (("free", None), ("finite-L", L)):
            cases[f"box{dim}-{tag}"] = (_box(dim), [0.0] * dim, Lc, u, sched)
    return cases


def _evidence_record(v):
    return {"status": v.status, "note": v.note,
            "evidence": [repr((float(t), None if hit is None else tuple(float(c) for c in hit)))
                         for t, hit in v.evidence]}


def test_ball_lattice_is_built_once_and_read_only():
    lattice = _ball_lattice(3, 961)
    assert lattice is _ball_lattice(3, 961)
    assert not lattice.flags.writeable
    assert len(lattice) <= 961 and np.all(np.linalg.norm(lattice, axis=1) <= 1.0 + 1e-12)


def test_sampled_evidence_matches_pinned_fixture():
    with open(os.path.join(HERE, "tangent_evidence.json"), encoding="utf-8") as fh:
        pinned = json.load(fh)
    cases = _evidence_cases()
    assert sorted(cases) == sorted(pinned)
    for max_points in (8, 24, tangent.MAX_POINTS):  # 8 sub-steps a candidate
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tangent, "MAX_POINTS", max_points)
            for name, (A, xbar, L, u, sched) in cases.items():
                got = _evidence_record(tangent_membership_sampled(A, xbar, L, u, sched))
                assert got == pinned[name], (max_points, name)


# ---------------------------------------------------------------------------
# the batched search against the search of one level at a time

def _per_level_search(A, xbar, L, u, schedule):
    """tangent_membership_sampled as it searched one level at a time: each
    level builds and filters its own candidates, then asks A about all of
    them at once and keeps the first hit in candidate-major order."""
    xbar = np.asarray(xbar, dtype=float)
    u = rescaled_rows(np.asarray(u, dtype=float)[None])[0]
    if not A.contains(xbar):
        raise GeometryError("reference point is not feasible")
    if L is not None and not cone_contains(L, u):
        return TangentVerdict("nonmember", (), note="u is outside cone L")
    norm_u = np.linalg.norm(u)
    if norm_u <= TOL:
        return TangentVerdict("member", (), note="zero direction is always tangent")
    steps = schedule.steps()
    evidence, hits, trailing_misses = [], 0, 0
    for k, t in enumerate(steps):
        eps = norm_u * 0.5 ** (k / 2.0)
        blocks = [u[None], u + eps * _ball_lattice(u.size, schedule.lattice_size)]
        if L is not None:
            for ell in L.vectors:
                base = float(np.dot(u, ell))
                blocks.append(np.linspace(max(base - eps, 0.0), base + eps, 9)[:, None] * ell)
        cands = np.concatenate(blocks)
        keep = row_norms(cands - u) <= eps + 1e-15
        if L is not None:
            near = np.flatnonzero(keep)
            keep[near] = cone_contains_many(L, cands[near])
        cands = cands[keep]
        substeps = t * 0.5 ** (0.5 * np.arange(8))
        found = None
        inside = np.flatnonzero(A.contains_many(ray_points(xbar, cands, substeps)))
        if inside.size:
            c, s = divmod(int(inside[0]), len(substeps))
            found = (float(substeps[s]), cands[c])
        if found:
            evidence.append((found[0], tuple(found[1])))
            hits += 1
            trailing_misses = 0
        else:
            evidence.append((float(t), None))
            trailing_misses += 1
    if hits == len(steps):
        return TangentVerdict("member", tuple(evidence))
    if trailing_misses >= 3:
        return TangentVerdict(
            "nonmember", tuple(evidence),
            note="sampled neighborhoods missed the set at the final levels; "
                 "sampling evidence, not a proof")
    return TangentVerdict("inconclusive", tuple(evidence))


CARDIOID_256 = cardioid_region(segments=256)
_COORD = st.one_of(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]),
                   st.floats(-1.5, 1.5, allow_nan=False))


@st.composite
def _sampled_queries(draw):
    """(A, xbar, L, u, schedule) with xbar in A: a small polygon on an
    integer grid, the cardioid, a box or a union of a box and a polygon,
    at a vertex, a boundary point or an inner point."""
    kind = draw(st.sampled_from(["polygon", "cardioid", "box", "union"]))
    dim = draw(st.sampled_from([2, 3])) if kind == "box" else 2
    polygon = PolygonRegion(draw(st.lists(st.tuples(*[st.integers(-2, 2).map(float)] * 2),
                                          min_size=3, max_size=6)))
    if kind == "polygon":
        A, points = polygon, list(polygon.vertices) + [polygon.vertices[:2].mean(axis=0)]
    elif kind == "cardioid":
        A, points = CARDIOID_256, [CARDIOID_256.vertices[i] for i in (0, 1, 40, 128)]
    else:
        A = _box(dim)
        points = [np.zeros(dim), np.ones(dim), np.full(dim, 0.5), np.eye(dim)[0] * 0.5]
        if kind == "union":
            A = UnionSet((A, polygon))
            points += list(polygon.vertices)
    xbar = draw(st.sampled_from(points))
    assume(A.contains(xbar))  # a cardioid vertex may fall outside (edge_tol 0)
    u = np.array(draw(st.tuples(*[_COORD] * dim)))
    kind_L = draw(st.sampled_from(["none", "finite", "section"]))
    L = None
    if kind_L == "finite":
        vs = draw(st.lists(st.tuples(*[_COORD] * dim), min_size=1, max_size=3))
        if draw(st.booleans()):
            vs.append(tuple(u))
        vs = [v for v in map(np.array, vs) if np.linalg.norm(v) > 0.1]
        if vs:
            L = DirectionSet.finite([v / np.linalg.norm(v) for v in vs])
    elif kind_L == "section":
        rows = draw(st.lists(st.tuples(*[st.integers(-2, 2).map(float)] * dim),
                             min_size=1, max_size=2))
        try:
            L = DirectionSet.cone_section(HalfspaceCone.from_rows(rows))
        except GeometryError:
            L = None
    # in 3-D a finite L costs one LP per candidate, hence the smaller lattice
    sizes = [1, 7] if dim == 3 and kind_L == "finite" else [1, 5, 9, 25, 121]
    schedule = TSchedule(radius=draw(st.sampled_from([0.01, 0.25, 1.0, 3.0])),
                         levels=draw(st.integers(1, 8)),
                         lattice_size=draw(st.sampled_from(sizes)))
    return A, xbar, L, u, schedule


# a thin wedge at xbar holding the direction (-0.707, 1) of level 1's second
# candidate, but neither u = (0, 1) nor level 0's (-1, 1): round 1 joins a
# block without a hit to one whose first point is a hit
WEDGE_QUERY = (PolygonRegion([[0.0, 0.0], [-2.4, 4.0], [-3.2, 4.0]]), np.zeros(2), None,
               np.array([0.0, 1.0]), TSchedule(radius=1.0, levels=3, lattice_size=1))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_sampled_queries())
@example(WEDGE_QUERY)
def test_batched_search_matches_the_per_level_search(query):
    """Same status, note and evidence, bit for bit (repr tells -0.0 from
    0.0 and np.float64 from float), with MAX_POINTS patched to one and to
    three candidates a block, to 16 candidates a batch and left as it is."""
    A, xbar, L, u, schedule = query
    want = repr(_per_level_search(A, xbar, L, u, schedule))
    for max_points in (8, 24, 256, tangent.MAX_POINTS):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tangent, "MAX_POINTS", max_points)
            got = repr(tangent_membership_sampled(A, xbar, L, u, schedule))
        assert got == want, max_points


# ---------------------------------------------------------------------------
# inclusion T_B^L(A, xbar)  subset of  T_B(A, xbar) intersect cone L

def test_restricted_cone_included_in_intersection_sampled():
    rng = np.random.default_rng(7)
    sched = TSchedule(levels=10, lattice_size=121)
    for _ in range(20):
        rows = rng.integers(-2, 3, size=(3, 2)).astype(float)
        rows = rows[np.linalg.norm(rows, axis=1) > 0]
        if len(rows) == 0:
            continue
        try:
            A = PolyhedralSet.from_rows(list(rows), [0.0] * len(rows))
        except GeometryError:
            continue
        if not A.contains([0.0, 0.0]):
            continue
        theta = rng.uniform(0, 2 * np.pi)
        L = DirectionSet.finite([[np.cos(theta), np.sin(theta)]])
        u = np.array([np.cos(theta), np.sin(theta)])
        v = tangent_membership_sampled(A, [0.0, 0.0], L, u, sched)
        exact = tangent_polyhedral(A, [0.0, 0.0], L)
        base = bouligand_polyhedral(A, [0.0, 0.0])
        if v.status == "member":
            # sampled membership implies membership in the unrestricted
            # tangent cone and in cone L
            assert exact.contains(u)
            assert base is None or base.contains(u)


# ---------------------------------------------------------------------------
# exact intersection law on random polyhedral triples (D, E, phi):
# u tangent to D at xbar and phi u tangent to E at phi xbar
#   ==>  u tangent to D  intersect  phi^{-1} E  at xbar.

def _random_polyhedron_through(rng, dim, point, n_rows):
    """Rows a.x >= b active (b = a.point) or slack (b = a.point - 1)."""
    rows, offs = [], []
    for _ in range(n_rows):
        a = rng.integers(-3, 4, size=dim).astype(float)
        if not np.any(a):
            a[rng.integers(dim)] = 1.0
        slack = float(rng.integers(0, 2))
        rows.append(a)
        offs.append(float(a @ point) - slack)
    return PolyhedralSet.from_rows(rows, offs)


def test_intersection_rule_exact_polyhedral_triples():
    rng = np.random.default_rng(2026)
    checked = 0
    while checked < 50:
        dim = int(rng.integers(2, 4))
        xbar = rng.integers(-2, 3, size=dim).astype(float)
        phi = rng.integers(-2, 3, size=(dim, dim)).astype(float)
        D = _random_polyhedron_through(rng, dim, xbar, int(rng.integers(1, 4)))
        E = _random_polyhedron_through(rng, dim, phi @ xbar, int(rng.integers(1, 4)))

        # pull-back polyhedron: D rows plus E rows composed with phi
        rows = [np.array(r) for r in D.rows] + [E.rows[i] @ phi
                                                for i in range(len(E.rows))]
        offs = list(D.offsets) + list(E.offsets)
        try:
            inter = PolyhedralSet.from_rows(rows, offs)
        except GeometryError:
            continue
        assert inter.contains(xbar)

        TD = bouligand_polyhedral(D, xbar)
        TE = bouligand_polyhedral(E, phi @ xbar)
        TI = bouligand_polyhedral(inter, xbar)
        for _ in range(40):
            u = rng.normal(size=dim)
            in_TD = TD is None or TD.contains(u)
            in_TE = TE is None or TE.contains(phi @ u)
            if in_TD and in_TE:
                assert TI is None or TI.contains(u), (dim, xbar, u)
        checked += 1
    assert checked == 50
