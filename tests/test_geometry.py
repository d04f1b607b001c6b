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
    rescaled_rows,
    sphere_lattice,
)
from dirpareto.certify import GridSpec, Problem, certify_directional_min, openness_falsifier
from dirpareto.maps import identity
from dirpareto.mintime import Target, calmness_ratio, minimal_time, subregularity_ratio
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


def test_generator_cone_membership():
    C = GeneratorCone.from_generators([[1.0, 0.0], [1.0, 1.0]])
    assert C.contains([2.0, 1.0])
    assert C.contains([1.0, 1.0])
    assert not C.contains([0.0, 1.0])
    assert not C.contains([-1.0, 0.0])


def test_rescaled_rows_divides_only_the_rows_out_of_range():
    """A nonzero row whose largest |entry| lies outside [2^-500, 2^500] is
    divided by it; every other row, the zero row among them, is kept bit
    for bit."""
    X = np.array([[1e200, 1.0], [5e-324, 0.0], [-1e160, 1e160], [0.0, -1e-155],
                  [3.0, -4.0], [2.0 ** 500, 1.0], [-(2.0 ** -500), 0.0], [0.0, -0.0]])
    got = rescaled_rows(X)
    assert got[:4].tolist() == [[1.0, 1e-200], [1.0, 0.0], [-1.0, 1.0], [0.0, -1.0]]
    assert got[4:].tobytes() == X[4:].tobytes()


def test_generator_cone_of_huge_generators_is_the_cone_of_their_directions():
    """Generators whose norms overflow still give their unit vectors."""
    with np.errstate(over="ignore"):  # the factory's zero-row test sees an inf norm
        C = GeneratorCone.from_generators([[1e300, 0.0], [0.0, 1e300]])
    assert C.units.tolist() == [[1.0, 0.0], [0.0, 1.0]]
    assert C.contains([1.0, 1.0])
    assert not C.contains([-1.0, 1.0])


def test_bipolar_orthants_up_to_dim4():
    """The generator cone of the unit vectors is the nonnegative orthant,
    which is its own bipolar, in dimensions 1-4 (the 3-D and 4-D cones go
    through the LP membership test)."""
    rng = np.random.default_rng(2)
    for n in range(1, 5):
        C = GeneratorCone.from_generators(np.eye(n))
        for _ in range(100):
            v = rng.normal(size=n)
            assert C.contains(v) == bool(np.all(v >= -1e-9))


def test_direction_set_finite_requires_unit():
    with pytest.raises(GeometryError):
        DirectionSet.finite([[2.0, 0.0]])
    with pytest.raises(GeometryError):
        DirectionSet.finite([])


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
    assert hull is conic_hull(Lf) and hull.generators is Lf.vectors  # built once
    assert hull.contains([1.0, 1.0])       # convex conic hull
    assert not hull.contains([-1.0, 0.0])
    assert conic_hull(DirectionSet.full_sphere(2)) is None
    assert cone_contains(DirectionSet.full_sphere(2), [-3.0, 5.0])
    K = HalfspaceCone.from_rows([[1.0, 0.0]])
    assert conic_hull(DirectionSet.cone_section(K)) is K
    # cone L follows the variant, also when built without a factory
    assert not cone_contains(DirectionSet(2, "finite", Lf.vectors), [-1.0, 0.0])
    with pytest.raises(TypeError):
        DirectionSet(2, "finite", Lf.vectors, hull=None)


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
    assert np.array_equal(s, L.vectors)


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
     ["generators", "units", "facets"], ["units", "facets"]),
    (lambda: DirectionSet.finite([[1.0, 0.0], [0.0, 1.0]]), ["vectors"], []),
    (lambda: DirectionSet.full_sphere(3), ["vectors"], []),
    (lambda: PolyhedralSet.from_rows([[1.0, 0.0], [0.0, 1.0]], [0.0, -1.0]),
     ["rows", "offsets"], []),
    (lambda: closed_curve_region(64),
     ["vertices", "next_vertices", "edges", "edge_lengths2", "box_lo", "box_hi"], ["slabs"]),
    (lambda: closed_curve_region(64).slabs,
     ["bounds", ("band_start", np.intp), ("band_edges", np.intp)], []),
    (_tangent_rays, ["rays"], []),
    (lambda: Target.finite_points([[1.0, 2.0], [0.0, 3.0]]), ["points"], []),
    (lambda: ScalarizationContext.create(orthant(2), [1.0, 2.0]), ["e"], []),
], ids=["cone", "generator-cone", "finite-L", "sphere-L", "polyhedron",
        "polygon", "polygon-slabs", "tangent-rays", "target", "scalarization-e"])
def test_stored_arrays_are_read_only(build, fields, aliases):
    obj = build()
    for name in fields:
        name, dtype = name if isinstance(name, tuple) else (name, np.float64)
        a = getattr(obj, name)
        assert isinstance(a, np.ndarray) and a.dtype == dtype
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0.0
    for name in aliases:
        assert getattr(obj, name) is getattr(obj, name)


def test_tangent_rays_are_an_array_of_surviving_rays():
    tc = _tangent_rays()
    assert tc.rays.shape == (1, 2)
    assert np.array_equal(tc.rays, [[1.0, 0.0]])  # (0, -1) leaves A


def test_direction_samples_of_a_thin_section_fall_back_to_its_box_witnesses():
    """No lattice direction lies in a wedge 2e-6 wide around (0.6, 0.8):
    the witnesses of y0 >= 1 and y1 >= 1 stand in, two distinct unit
    directions of the wedge."""
    t, w = np.arctan2(0.8, 0.6), 1e-6
    C = HalfspaceCone.from_rows([[-np.sin(t - w), np.cos(t - w)],
                                 [np.sin(t + w), -np.cos(t + w)]])
    assert not C.contains([1.0, 0.0])  # the lattice's first direction
    s = direction_samples(DirectionSet.cone_section(C), 8)
    assert s.shape == (2, 2) and not np.array_equal(s[0], s[1])
    assert C.contains_many(s).all()
    assert np.allclose(s, [[0.6, 0.8]], atol=1e-5)


def _ray_sections(count):
    """H-representations of the ray along u = (1, 2, 3)/sqrt(14): one by
    cross products, then ``count`` seeded ones of two random normals of the
    ray with both signs and a positive multiple of the ray."""
    u = np.array([1.0, 2.0, 3.0]) / np.sqrt(14.0)
    n1 = np.cross(u, [1.0, 0.0, 0.0])
    n2 = np.cross(u, n1)
    yield u, HalfspaceCone.from_rows([n1, -n1, n2, -n2, u])
    rng = np.random.default_rng(0)
    for _ in range(count):
        n1, n2 = (v - (v @ u) * u for v in rng.normal(size=(2, 3)))
        yield u, HalfspaceCone.from_rows([n1, -n1, n2, -n2, rng.uniform(0.1, 10.0) * u])


def test_direction_samples_of_a_ray_in_3d_sample_the_ray():
    """Once, whatever its rows: its box witnesses normalise to rows that
    agree only to round-off, and they count as one direction."""
    for i, (u, C) in enumerate(_ray_sections(100)):
        s = direction_samples(DirectionSet.cone_section(C), 8)
        assert len(s) == 1 and np.allclose(s, u, atol=1e-12), i


def test_certify_on_a_ray_walks_it_once():
    u, C = next(_ray_sections(0))
    p = Problem(identity(3), orthant(3), DirectionSet.cone_section(C), (0.0, 0.0, 0.0),
                GridSpec(levels=5))
    rep = certify_directional_min(p)
    assert (rep.verdict, rep.samples) == ("certified_on_grid", 5)


def test_direction_samples_of_an_axis_in_3d_sample_both_its_rays():
    """The x2 axis: the witnesses of y2 >= 1 and -y2 >= 1, in that order."""
    axis = DirectionSet.cone_section(HalfspaceCone.from_rows(
        [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, -1.0, 0.0]]))
    assert direction_samples(axis, 8).tolist() == [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]


def test_direction_samples_of_finite_L_cannot_corrupt_it():
    L = DirectionSet.finite([[0.0, 1.0], [1.0, 0.0]])
    s = direction_samples(L, 2)
    with pytest.raises(ValueError):
        s[0] = [5.0, 5.0]
    assert np.array_equal(L.vectors, [[0.0, 1.0], [1.0, 0.0]])


L_1D = DirectionSet.finite([[1.0]])
L_2D = DirectionSet.finite([[1.0, 0.0]])
L_3D = DirectionSet.finite([[1.0, 0.0, 0.0]])


@pytest.mark.parametrize("call, message", [
    (lambda: openness_falsifier(identity(2), [0.0, 0.0], L_3D, L_2D), "L has dimension 3, expected 2"),
    (lambda: openness_falsifier(identity(2), [0.0, 0.0], L_2D, L_3D), "C has dimension 3, expected 2"),
    (lambda: calmness_ratio(identity(2), [0.0, 0.0], L_3D, L_2D), "L has dimension 3, expected 2"),
    (lambda: subregularity_ratio(identity(2), [0.0, 0.0], L_3D, L_2D), "L has dimension 3, expected 2"),
    (lambda: calmness_ratio(identity(1), [0.0], L_1D, L_2D), "M has dimension 2, expected 1"),
    (lambda: subregularity_ratio(identity(1), [0.0], L_1D, L_2D), "M has dimension 2, expected 1"),
    (lambda: minimal_time(L_2D, [0.0, 0.0], Target.point([1.0, 0.0, 0.0])),
     "target has dimension 3, expected 2"),
    (lambda: tangent_polyhedral(PolyhedralSet.from_rows(np.eye(2), np.zeros(2)), [0.0, 0.0], L_3D),
     "L has dimension 3, expected 2"),
], ids=["openness-L", "openness-C", "calmness-L", "subregularity-L", "calmness-M",
        "subregularity-M", "mintime-target", "tangent-polyhedral-L"])
def test_entry_points_name_the_object_in_the_wrong_space(call, message):
    with pytest.raises(GeometryError, match=f"^{message}$"):
        call()
