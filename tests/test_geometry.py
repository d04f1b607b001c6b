import numpy as np
import pytest

from dirpareto.geometry import (
    DirectionSet,
    GeneratorCone,
    GeometryError,
    HalfspaceCone,
    cone_contains,
    conic_hull,
    direction_samples,
    dual_generators,
    negative_polar,
    normalize_directions,
    sphere_lattice,
)
from dirpareto.mintime import Target
from dirpareto.scalarize import ScalarizationContext
from dirpareto.sets import PolyhedralSet, closed_curve_region
from dirpareto.tangent import tangent_polyhedral


def orthant(n):
    return HalfspaceCone.from_rows(np.eye(n))


def test_halfspace_membership():
    K = orthant(2)
    assert K.contains([1.0, 0.0])
    assert K.contains([0.0, 0.0])
    assert not K.contains([-1e-6, 0.0])
    assert K.contains([1.0, 2.0], strict=True)
    assert not K.contains([1.0, 0.0], strict=True)


def test_halfspace_homogeneity():
    K = HalfspaceCone.from_rows([[1.0, -1.0], [0.0, 1.0]])
    rng = np.random.default_rng(0)
    for _ in range(100):
        v = rng.normal(size=2)
        lam = float(rng.uniform(0.1, 10.0))
        assert K.contains(v) == K.contains(lam * v)


def test_interior_point_is_interior():
    for K in (orthant(2), orthant(3),
              HalfspaceCone.from_rows([[0.0, 1.0], [1.0, -1.0]])):
        e = K.interior_point()
        assert e is not None
        assert K.contains(e, strict=True)


def test_interior_point_none_for_flat_cone():
    K = HalfspaceCone.from_rows([[1.0, 0.0], [-1.0, 0.0]])  # a hyperplane
    assert K.interior_point() is None


def test_generator_cone_membership():
    C = GeneratorCone.from_generators([[1.0, 0.0], [1.0, 1.0]])
    assert C.contains([2.0, 1.0])
    assert C.contains([1.0, 1.0])
    assert not C.contains([0.0, 1.0])
    assert not C.contains([-1.0, 0.0])


def test_negative_polar_soundness():
    C = GeneratorCone.from_generators([[1.0, 0.0], [1.0, 1.0]])
    P = negative_polar(C)
    rng = np.random.default_rng(1)
    for _ in range(200):
        v = rng.normal(size=2)
        if P.contains(v):
            for g in C.matrix:
                assert float(v @ g) <= 1e-7


def test_bipolar_orthants_up_to_dim4():
    """(K-)- = -K+ ... for self-checking: the polar of the polar of the
    nonnegative orthant's generator cone is the orthant again."""
    rng = np.random.default_rng(2)
    for n in range(1, 5):
        C = GeneratorCone.from_generators(np.eye(n))
        P = negative_polar(C)            # nonpositive orthant
        PP = negative_polar(GeneratorCone.from_generators(-np.eye(n)))
        for _ in range(100):
            v = rng.normal(size=n)
            assert C.contains(v) == bool(np.all(v >= -1e-9))
            assert P.contains(v) == bool(np.all(v <= 1e-9))
            assert PP.contains(v) == bool(np.all(v >= -1e-9))


def test_dual_generators_soundness():
    K = HalfspaceCone.from_rows([[0.0, 1.0], [1.0, -1.0]])
    dg = dual_generators(K)
    rng = np.random.default_rng(3)
    count = 0
    for _ in range(1000):
        v = rng.normal(size=2)
        if K.contains(v):
            count += 1
            for g in dg.cone.matrix:
                assert float(np.asarray(g) @ v) >= -1e-9
    assert count > 100
    assert dg.spanning


def test_direction_set_finite_requires_unit():
    with pytest.raises(GeometryError):
        DirectionSet.finite([[2.0, 0.0]])
    with pytest.raises(GeometryError):
        DirectionSet.finite([])


def test_normalize_directions_dedupes():
    L = normalize_directions([[2.0, 0.0], [1.0, 0.0], [0.0, -3.0]])
    assert L.matrix.shape == (2, 2)
    assert np.allclose(L.matrix[0], [1.0, 0.0])
    with pytest.raises(GeometryError):
        normalize_directions([[0.0, 0.0]])


def test_cone_section_rejects_trivial():
    with pytest.raises(GeometryError):
        DirectionSet.cone_section(
            HalfspaceCone.from_rows([[1.0, 0.0], [-1.0, 0.0],
                                     [0.0, 1.0], [0.0, -1.0]]))


def test_cone_section_accepts_line():
    # the line {x + y = 0} is a nontrivial cone
    L = DirectionSet.cone_section(
        HalfspaceCone.from_rows([[1.0, 1.0], [-1.0, -1.0]]))
    assert cone_contains(L, [1.0, -1.0])
    assert not cone_contains(L, [1.0, 1.0])


def test_conic_hull_variants():
    Lf = DirectionSet.finite([[1.0, 0.0], [0.0, 1.0]])
    hull = conic_hull(Lf)
    assert hull.contains([1.0, 1.0])       # convex conic hull
    assert not hull.contains([-1.0, 0.0])
    assert conic_hull(DirectionSet.full_sphere(2)) is None
    assert cone_contains(DirectionSet.full_sphere(2), [-3.0, 5.0])


def test_cone_contains_zero_vector():
    L = DirectionSet.finite([[1.0, 0.0]])
    assert cone_contains(L, [0.0, 0.0])


def test_sphere_lattice_shapes_and_norms():
    for dim in (1, 2, 3, 4):
        pts = sphere_lattice(dim, 50)
        assert pts.shape[1] == dim
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)


def test_sphere_lattice_deterministic():
    a = sphere_lattice(3, 64)
    b = sphere_lattice(3, 64)
    assert np.array_equal(a, b)


def test_direction_samples_finite_passthrough():
    L = DirectionSet.finite([[0.0, 1.0], [1.0, 0.0]])
    s = direction_samples(L, 100)
    assert np.array_equal(s, L.matrix)


def test_direction_samples_section_in_cone():
    K = HalfspaceCone.from_rows([[1.0, 0.0], [0.0, 1.0]])
    L = DirectionSet.cone_section(K)
    s = direction_samples(L, 32)
    assert len(s) >= 32
    for v in s:
        assert K.contains(v, tol=1e-9)
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-9


# ---------------------------------------------------------------------------
# stored arrays: built once, read-only, returned as-is

def _tangent_rays():
    A = PolyhedralSet.from_rows([[0.0, 1.0]], [0.0])
    L = DirectionSet.finite([[1.0, 0.0], [0.0, -1.0]])
    return tangent_polyhedral(A, [0.0, 0.0], L)


@pytest.mark.parametrize("build, fields, aliases", [
    (lambda: orthant(2), ["rows"], ["matrix"]),
    (lambda: GeneratorCone.from_generators([[1.0, 0.0], [1.0, 1.0]]),
     ["generators"], ["matrix"]),
    (lambda: DirectionSet.finite([[1.0, 0.0], [0.0, 1.0]]), ["vectors"], ["matrix"]),
    (lambda: DirectionSet.full_sphere(3), ["vectors"], ["matrix"]),
    (lambda: PolyhedralSet.from_rows([[1.0, 0.0], [0.0, 1.0]], [0.0, -1.0]),
     ["rows", "offsets"], ["matrix", "rhs"]),
    (lambda: closed_curve_region(64), ["vertices"], []),
    (_tangent_rays, ["rays"], []),
    (lambda: Target.finite_points([[1.0, 2.0], [0.0, 3.0]]), ["points"], []),
    (lambda: ScalarizationContext.create(orthant(2), [1.0, 2.0]), ["e"], []),
], ids=["cone", "generator-cone", "finite-L", "sphere-L", "polyhedron",
        "polygon", "tangent-rays", "target", "scalarization-e"])
def test_stored_arrays_are_read_only(build, fields, aliases):
    obj = build()
    for name in fields:
        a = getattr(obj, name)
        assert isinstance(a, np.ndarray) and a.dtype == np.float64
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0.0
    for name in aliases:
        assert getattr(obj, name) is getattr(obj, name)


def test_tangent_rays_are_an_array_of_surviving_rays():
    tc = _tangent_rays()
    assert tc.rays.shape == (1, 2)
    assert tc.sample_rays() is tc.rays


def test_direction_samples_of_finite_L_cannot_corrupt_it():
    L = DirectionSet.finite([[0.0, 1.0], [1.0, 0.0]])
    s = direction_samples(L, 2)
    with pytest.raises(ValueError):
        s[0] = [5.0, 5.0]
    assert np.array_equal(L.vectors, [[0.0, 1.0], [1.0, 0.0]])
