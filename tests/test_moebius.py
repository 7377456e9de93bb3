import math

import numpy as np
import pytest

from rieszlab.errors import (OrientationError, PreconditionError,
                             SingularMapError, SingularPairError,
                             UnsupportedInputError)
from rieszlab.flow import ks_flow_energy
from rieszlab.geometry import (TriMesh, icosphere, make_circle, make_disk,
                               make_ellipsoid, make_saddle_surface,
                               make_sphere, mesh_disjoint_union,
                               polygon_circle)
from rieszlab.moebius import (MoebiusMap, apply_moebius, as_energy,
                              combined_angle_cos, combined_angle_cos_frames,
                              ks_cross_energy, ks_energy,
                              moebius_invariance_check)
from rieszlab.riesz import QuadratureConfig


# ----------------------------------------------------------------------
# combined angle
# ----------------------------------------------------------------------

def test_round_sphere_angle_is_zero():
    sph = make_sphere()
    rng = np.random.default_rng(3)
    for _ in range(40):
        u1 = [rng.uniform(0.2, 2.9), rng.uniform(0, 2 * math.pi)]
        u2 = [rng.uniform(0.2, 2.9), rng.uniform(0, 2 * math.pi)]
        if np.linalg.norm(np.subtract(u1, u2)) < 1e-3:
            continue
        c = combined_angle_cos(sph, (0, u1), (0, u2))
        assert c == pytest.approx(1.0, abs=1e-12)


def test_round_circle_angle_is_zero():
    circ = make_circle()
    c = combined_angle_cos(circ, (0, [0.3]), (0, [2.4]))
    assert c == pytest.approx(1.0, abs=1e-12)


def test_symmetry_random_pairs():
    ell = make_ellipsoid(1.0, 1.0, 1.2)
    rng = np.random.default_rng(8)
    for _ in range(100):
        u1 = [rng.uniform(0.2, 2.9), rng.uniform(0, 2 * math.pi)]
        u2 = [rng.uniform(0.2, 2.9), rng.uniform(0, 2 * math.pi)]
        c1 = combined_angle_cos(ell, (0, u1), (0, u2))
        c2 = combined_angle_cos(ell, (0, u2), (0, u1))
        assert abs(c1 - c2) < 1e-10
        assert -1.0 <= c1 <= 1.0


def test_parallel_plane_cases():
    # parallel equally-oriented tangent planes: cos = 2 |pr(v)|^2 - 1
    T = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    x = np.zeros(3)
    assert combined_angle_cos_frames(x, T, np.array([0, 0, 1.0]), T) == \
        pytest.approx(-1.0, abs=1e-12)
    assert combined_angle_cos_frames(x, T, np.array([1.0, 0, 0]), T) == \
        pytest.approx(1.0, abs=1e-12)
    rng = np.random.default_rng(5)
    for _ in range(25):
        y = rng.standard_normal(3)
        v = y / np.linalg.norm(y)
        expected = 2 * (v[0] ** 2 + v[1] ** 2) - 1.0
        assert combined_angle_cos_frames(x, T, y, T) == \
            pytest.approx(expected, abs=1e-12)


def test_coincident_points_rejected():
    with pytest.raises(SingularPairError):
        combined_angle_cos_frames(np.zeros(3),
                                  np.eye(3)[:, :2], np.zeros(3),
                                  np.eye(3)[:, :2])


def test_rank_one_matrix_eigenvalues():
    # eigenvalues of (a_i a_j) are |a|^2, 0, ..., 0
    rng = np.random.default_rng(12)
    for n in (2, 3, 5):
        a = rng.standard_normal(n)
        M = np.outer(a, a)
        ev = np.sort(np.linalg.eigvalsh(M))
        assert ev[-1] == pytest.approx(float(a @ a), rel=1e-10)
        np.testing.assert_allclose(ev[:-1], 0.0, atol=1e-10)


def test_first_order_angle_decay():
    # theta = O(|x-y|) on smooth charts: log-log slope >= 1
    ell = make_ellipsoid(1.0, 1.0, 1.2)
    base = (0, [1.2, 0.8])
    ds, thetas = [], []
    for t in (0.2, 0.1, 0.05, 0.025):
        other = (0, [1.2 + t, 0.8])
        c = combined_angle_cos(ell, base, other)
        theta = math.acos(max(-1.0, min(1.0, c)))
        ds.append(t)
        thetas.append(max(theta, 1e-300))
    slope = np.polyfit(np.log(ds), np.log(thetas), 1)[0]
    assert slope >= 1.0 - 0.1


def test_ks_invariance_round_sphere_both_zero():
    rep = moebius_invariance_check(
        make_sphere(), MoebiusMap("inversion", center=(3.0, 0.0, 0.0),
                                  radius=1.5), "ks", refine=False)
    assert abs(rep.energy_original) < 1e-8
    assert abs(rep.energy_transformed) < 1e-8


def test_bounded_ratio_near_diagonal():
    # (1 - cos)/|x-y|^2 stays bounded as y -> x, with the bound controlled
    # by the measured second-derivative bound of the local graph patch
    from rieszlab.geometry import graph_patch_at
    ell = make_ellipsoid(1.0, 1.0, 1.2)
    chart = ell.charts[0]
    base_u = np.array([1.2, 0.8])
    x = chart.value(base_u)
    b = graph_patch_at(ell, [(0, base_u)], 0.3).derivative_bounds()[0]
    for du in ([1.0, 0.0], [0.0, 1.0], [0.7, 0.7]):
        for t in (0.1, 0.05, 0.025, 0.0125):
            u = base_u + t * np.asarray(du)
            y = chart.value(u)
            c = combined_angle_cos(ell, (0, base_u), (0, u))
            d = float(np.linalg.norm(y - x))
            assert (1.0 - c) / d ** 2 < 50.0 * max(b, 1.0) ** 2


def test_saddle_first_order_angle():
    # the graph z = xy has theta ~ |x-y| along its ruling: the combined
    # angle is first order for surfaces, unlike the curve case
    sad = make_saddle_surface()
    ratios = []
    for t in (0.08, 0.04, 0.02, 0.01):
        c = combined_angle_cos(sad, (0, [0.0, 0.0]), (0, [t, 0.0]))
        theta = math.acos(max(-1.0, min(1.0, c)))
        ratios.append(theta / t)
    # converging to a nonzero constant (arctan slope 1)
    assert ratios[-1] == pytest.approx(1.0, rel=1e-3)
    assert abs(ratios[-1] - ratios[-2]) < 0.01 * ratios[-1]


# ----------------------------------------------------------------------
# KS energy
# ----------------------------------------------------------------------

def test_ks_round_sphere_zero():
    rep = ks_energy(make_sphere())
    assert abs(rep.value) < 1e-8


def test_ks_round_circle_zero():
    rep = ks_energy(make_circle())
    assert abs(rep.value) < 1e-8


def test_ks_parallel_disks_monotone():
    values = []
    for gap in (0.2, 0.1, 0.05):
        a = make_disk(1.0, z=0.0)
        b = make_disk(1.0, z=gap)
        values.append(ks_cross_energy(a, b, scale=0.75))
    assert values[0] > 0
    assert values[0] < values[1] < values[2]


CROSS_PAIRS = {
    "icospheres": lambda: (icosphere(1, 1.0, (-1.5, 0.0, 0.0)),
                           icosphere(2, 0.7, (1.2, 0.3, 0.0))),
    "polygons": lambda: (polygon_circle(32), polygon_circle(48, 2.0)),
}


@pytest.mark.parametrize("name", sorted(CROSS_PAIRS))
def test_ks_cross_energy_is_the_off_diagonal_part_of_the_union(name):
    # the union's KS double sum is each piece's own plus both cross terms,
    # for the quadrature energy and for the flow's; seen to 1.5e-16 and
    # 4.6e-16 relative, and C(a, b) = C(b, a) to 2 ulps
    a, b = CROSS_PAIRS[name]()
    union = mesh_disjoint_union(a, b)
    cross = ks_cross_energy(a, b)
    assert abs(ks_cross_energy(b, a) - cross) <= 1e-14 * cross
    for energy in (lambda mesh: ks_energy(mesh).value, ks_flow_energy):
        total = energy(union)
        assert abs(energy(a) + energy(b) + 2.0 * cross - total) <= (
            1e-13 * total)


def _closed_32gon_in_r3():
    t = np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False)
    return TriMesh(np.stack([np.cos(t), np.sin(t), 0.0 * t], axis=-1),
                   [(i, (i + 1) % 32) for i in range(32)], 1)


def _one_face_reversed():
    mesh = icosphere(1)
    faces = mesh.faces.copy()
    faces[0] = faces[0, ::-1]
    return TriMesh(mesh.vertices, faces, 2)


@pytest.mark.parametrize("piece, error", [
    # (n, m) = (2, 1) against (3, 2), which broadcast no stacks together
    (lambda: make_circle(), UnsupportedInputError),
    # (3, 1) against (3, 2): m was read from the first piece alone
    (_closed_32gon_in_r3, UnsupportedInputError),
    (_one_face_reversed, OrientationError),
], ids=["circle", "polygon-in-r3", "one-face-reversed"])
def test_ks_cross_energy_refuses_pieces_it_cannot_pair(piece, error):
    other = icosphere(1, 1.0, (3.0, 0.0, 0.0))
    with pytest.raises(error):
        ks_cross_energy(piece(), other)
    with pytest.raises(error):
        ks_cross_energy(other, piece())


def test_ks_similarity_invariance_exact():
    ell = make_ellipsoid(1.0, 1.0, 1.2)
    scaled = apply_moebius(ell, MoebiusMap("similarity", center=(0, 0, 0),
                                           scale=3.0))
    e1 = ks_energy(ell).value
    e2 = ks_energy(scaled).value
    assert e2 == pytest.approx(e1, rel=1e-12)


def test_ks_inversion_invariance():
    ell = make_ellipsoid(1.0, 1.0, 1.2)
    mmap = MoebiusMap("inversion", center=(3.0, 0.2, 0.1), radius=2.0)
    rep = moebius_invariance_check(ell, mmap, "ks")
    # both differences are rounding-level, so their order is noise
    assert rep.rel_difference <= 1e-10
    assert rep.refined_rel_difference <= 1e-10


def test_ks_rejects_immersed_mesh():
    # two nearly coincident spheres: E_KS is discontinuous on immersed
    # inputs (double covers score zero), so such meshes are rejected
    a = icosphere(1)
    b = icosphere(1, radius=1.001)
    both = mesh_disjoint_union(a, b)
    with pytest.raises(UnsupportedInputError):
        ks_energy(both)


def test_ks_refuses_immersed_mesh_before_a_numerical_error():
    # at this scale the pair pass overflows before it has the separation;
    # the mesh is still refused as immersed, with its separation
    a = icosphere(1, radius=1e-80)
    b = icosphere(1, radius=1.001e-80)
    with pytest.raises(UnsupportedInputError, match="non-neighbor separation "
                       "1e-83 vs local scale 5.94e-81"):
        ks_energy(mesh_disjoint_union(a, b))


def test_ks_open_surface_needs_flag():
    disk = make_disk(1.0)
    with pytest.raises(PreconditionError):
        ks_energy(disk)


# ----------------------------------------------------------------------
# AS energy
# ----------------------------------------------------------------------

def test_as_sphere_zero():
    cfg = QuadratureConfig(outer_scale=0.12, inner_scale=0.5)
    rep = as_energy(make_sphere(), s=3.7, config=cfg)
    assert abs(rep.value) < 0.01 * math.pi ** 2


def test_as_sphere_radius_independent():
    cfg = QuadratureConfig(outer_scale=0.12, inner_scale=0.5)
    r1 = as_energy(make_sphere(1.0), 0.0, cfg).value
    r2 = as_energy(make_sphere(2.0), 0.0, cfg).value
    assert abs(r1 - r2) < 0.01 * math.pi ** 2


def test_as_linear_in_s():
    # difference between s values equals the integral of the defect exactly
    from rieszlab.geometry.patches import umbilicity_defect
    ell = make_ellipsoid(1.0, 1.0, 1.2)
    cfg = QuadratureConfig(outer_scale=0.12, inner_scale=0.5)
    e0 = as_energy(ell, 0.0, cfg).value
    e1 = as_energy(ell, 1.0, cfg).value
    q = ell.quadrature(cfg.inner_scale * 0.5)
    deltas = umbilicity_defect(ell.curvatures(q.locators)[2])
    int_delta = float(np.dot(q.weights, deltas))
    assert e1 - e0 == pytest.approx(int_delta, rel=1e-9)


def test_as_energy_keeps_its_report():
    # the report that as_energy gave while it imported riesz_energy on
    # module load, not on call: every field keeps its bits
    cfg = QuadratureConfig(outer_scale=0.12, inner_scale=0.5)
    rep = as_energy(make_ellipsoid(1.0, 1.0, 1.2), 0.5, cfg)
    assert rep.as_dict() == {
        "value": 0.14060945178262346, "near": -79.31082908093498,
        "far": 69.59864664039459, "eps0": 0.7560048501967771,
        "error_estimate": 0.04747828851483215, "pole": None}


def test_as_rejects_curves():
    with pytest.raises(UnsupportedInputError):
        as_energy(make_circle(), 0.0)


# ----------------------------------------------------------------------
# Moebius maps
# ----------------------------------------------------------------------

def test_inversion_maps_sphere_to_sphere():
    mesh = icosphere(2)
    mmap = MoebiusMap("inversion", center=(3.0, 0.0, 0.0), radius=1.5)
    image = apply_moebius(mesh, mmap)
    # fit a center: |p|^2 = 2 p.c + (r^2 - |c|^2) is linear in (c, k)
    P = image.vertices
    A = np.concatenate([2 * P, np.ones((len(P), 1))], axis=1)
    b = np.sum(P ** 2, axis=1)
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    center, k = sol[:3], sol[3]
    radii = np.linalg.norm(P - center, axis=1)
    assert np.max(np.abs(radii - radii.mean())) < 1e-8


def test_similarity_scales_distances():
    mesh = icosphere(1)
    mmap = MoebiusMap("similarity", center=(0.5, 0.0, 0.0), scale=2.5)
    image = apply_moebius(mesh, mmap)
    d0 = np.linalg.norm(mesh.vertices[0] - mesh.vertices[17])
    d1 = np.linalg.norm(image.vertices[0] - image.vertices[17])
    assert d1 == pytest.approx(2.5 * d0, rel=1e-12)


def test_inversion_involution():
    mesh = icosphere(1)
    mmap = MoebiusMap("inversion", center=(3.0, -0.2, 0.1), radius=1.3)
    twice = apply_moebius(apply_moebius(mesh, mmap), mmap)
    assert np.max(np.abs(twice.vertices - mesh.vertices)) < 1e-10


def test_inversion_center_on_surface_rejected():
    mesh = icosphere(1)
    mmap = MoebiusMap("inversion", center=tuple(mesh.vertices[0]), radius=1.0)
    with pytest.raises(SingularMapError):
        apply_moebius(mesh, mmap)


def test_inversion_center_on_face_or_edge_rejected():
    mesh = icosphere(1)
    a, b = mesh.vertices[mesh.faces[0, :2]]
    curve = polygon_circle(64)
    for surface, center in [(mesh, mesh.face_centroids()[0]),
                            (mesh, 0.5 * (a + b)),
                            (curve, curve.vertices[:2].mean(axis=0))]:
        with pytest.raises(SingularMapError, match="lies on the surface"):
            apply_moebius(surface, MoebiusMap("inversion", center=center))


def test_inversion_center_off_surface_maps():
    mesh = icosphere(1)
    off = mesh.face_centroids()[0] + 1e-3 * mesh.face_normals()[0]
    for center in (off, mesh.face_centroids()[0] - 1e-3 * mesh.face_normals()[0]):
        image = apply_moebius(mesh, MoebiusMap("inversion", center=center))
        assert np.all(np.isfinite(image.vertices))
    curve = polygon_circle(64)
    mid = curve.vertices[:2].mean(axis=0)
    image = apply_moebius(curve, MoebiusMap("inversion", center=mid * 0.999))
    assert np.all(np.isfinite(image.vertices))
    # no centre given: the unit sphere about the origin, which fixes the
    # vertices of the inscribed icosphere
    image = apply_moebius(mesh, MoebiusMap("inversion"))
    assert np.allclose(image.vertices, mesh.vertices, rtol=0, atol=1e-15)


def test_inversion_center_on_chart_surface_rejected():
    # centres on the sphere between its scale-0.25 nodes (0.125 from the
    # nearest one at (1, 0, 0)), polished on the nearest node's graph patch
    th, ph = 0.3, 0.2
    sph = make_sphere()
    for center in [(1.0, 0.0, 0.0), (0.0, 0.0, 1.0),
                   (math.sin(th) * math.cos(ph), math.sin(th) * math.sin(ph),
                    math.cos(th))]:
        with pytest.raises(SingularMapError, match="lies on the surface"):
            apply_moebius(sph, MoebiusMap("inversion", center=center))


def test_inversion_center_off_chart_surface_maps():
    sph = make_sphere()
    assert sph.distance_to(np.array([1.001, 0.0, 0.0])) == pytest.approx(
        1e-3, rel=0.05)
    image = apply_moebius(sph, MoebiusMap("inversion", center=(1.001, 0, 0)))
    assert np.all(np.isfinite(image.charts[0].value(np.array([[1.0, 0.5]]))))
    # open charts keep the node distance: beyond the disk's edge the
    # chart's analytic continuation would give a false hit
    disk = make_disk()
    assert disk.distance_to(np.array([1.2, 0.0, 0.0])) > 0.1
    apply_moebius(disk, MoebiusMap("inversion", center=(1.2, 0.0, 0.0)))


def test_mesh_distance_to_matches_sampled_faces():
    mesh = icosphere(1)
    rng = np.random.default_rng(4)
    bary = rng.dirichlet([1.0, 1.0, 1.0], size=2000)
    samples = np.einsum("fkn,sk->fsn", mesh.vertices[mesh.faces], bary)
    for x in rng.normal(size=(20, 3)) * 0.8:
        d = mesh.distance_to(x)
        sampled = np.min(np.linalg.norm(samples - x, axis=-1))
        assert d <= sampled + 1e-12
        assert d >= sampled - 0.05     # sample gaps are far below 0.05
    # the faces at a vertex of the inscribed mesh fall away from its ray
    assert mesh.distance_to(mesh.vertices[5] * 1.5) == pytest.approx(
        0.5, rel=1e-12)


def test_inversion_derivatives_consistent():
    # chart Jacobian/Hessian of the composed map match finite differences
    mmap = MoebiusMap("inversion", center=(2.0, 0.3, -0.1), radius=1.2)
    x = np.array([0.4, -0.2, 0.7])
    J = mmap.jacobian(x)
    H = mmap.hessian(x)
    h = 1e-6
    for a in range(3):
        e = np.zeros(3)
        e[a] = h
        fd = (mmap.value(x + e) - mmap.value(x - e)) / (2 * h)
        np.testing.assert_allclose(J[:, a], fd, atol=1e-8)
        fd2 = (mmap.jacobian(x + e) - mmap.jacobian(x - e)) / (2 * h)
        np.testing.assert_allclose(H[:, :, a], fd2, atol=1e-6)


def test_transformed_hessian_has_the_bits_of_its_einsum():
    # the image chart's Hessian, J_T H + H_T(J, J), takes its second term as
    # explicit products summed in the order of the three-operand einsum it
    # replaced
    surface = make_ellipsoid(1.0, 1.0, 1.2)
    mmap = MoebiusMap("inversion", center=(3.0, 0.2, 0.1), radius=2.0)
    image = apply_moebius(surface, mmap)
    runs = surface._runs(surface.nodes(0.5).locators)
    assert sum(len(u) for _, u in runs) > 1000
    for k, u in runs:
        base = surface.charts[k]
        x, J = base.value(u), base.jacobian(u)
        ref = (np.einsum("...ij,...jpq->...ipq", mmap.jacobian(x),
                         base.hessian(u))
               + np.einsum("...ijk,...jp,...kq->...ipq", mmap.hessian(x), J,
                           J))
        assert np.array_equal(image.charts[k].hessian(u), ref)


def test_inversion_hessian_has_the_bits_of_its_einsum_terms():
    # (t1 + t2 + t3) as sparse adds of d and t4 as products left to right:
    # the bits of the einsum form, on random points of R^2 and R^3, one
    # point and stacks
    rng = np.random.default_rng(11)
    for n in (2, 3):
        mmap = MoebiusMap("inversion", center=rng.normal(size=n), radius=1.7)
        c = mmap.center
        for shape in ((n,), (50, n), (4, 6, n)):
            x = rng.normal(size=shape)
            d = x - c
            rho2 = np.sum(d * d, axis=-1)[..., None, None, None]
            eye = np.eye(n)
            t1 = np.einsum("ia,...b->...iab", eye, d)
            t2 = np.einsum("ib,...a->...iab", eye, d)
            t3 = np.einsum("ab,...i->...iab", eye, d)
            t4 = np.einsum("...i,...a,...b->...iab", d, d, d)
            ref = mmap.radius ** 2 * (-2.0 * (t1 + t2 + t3) / rho2 ** 2
                                      + 8.0 * t4 / rho2 ** 3)
            assert np.array_equal(mmap.hessian(x), ref)
