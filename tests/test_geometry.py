import math

import numpy as np
import pytest

from rieszlab.cli import parse_surface
from rieszlab.errors import (NumericalError, PatchRadiusError,
                             PreconditionError, RankDeficiencyError,
                             TopologyError, UnsupportedInputError)
from rieszlab.geometry import (PatchClassParams, TriMesh,
                               default_patch_radius,
                               euler_characteristic, graph_patch_at,
                               icosphere, make_circle,
                               make_cylinder_patch,
                               make_disjoint_union, make_ellipsoid,
                               make_sphere, make_torus, mesh_disjoint_union,
                               orthonormal_frames, polygon_circle, read_obj,
                               read_off, torus_mesh, validate_patch_class,
                               write_obj, write_off)
from rieszlab.geometry.charts import (Chart, ChartSurface,
                                      _graph_patch_surface, _inv_small,
                                      _product_rule, _rotations_taking_ex,
                                      _spheroid_stack)
from rieszlab.geometry.patches import (fit_curvature, fit_tangent_frames,
                                       orthonormal_frames_adjoint,
                                       umbilicity_defect)
from rieszlab.moebius import MoebiusMap, apply_moebius, ks_energy
from rieszlab.radial import radial_profile
from rieszlab.riesz import riesz_energy

SHAPES = [(2, 1), (3, 1), (3, 2)]


def make_paraboloid_surface(extent=1.0, cx=1.0, cy=1.0):
    """Reference surface: the graph z = cx*x^2 + cy*y^2."""
    def g(u):
        return cx * u[..., 0] ** 2 + cy * u[..., 1] ** 2

    def grad_g(u):
        return np.stack([2 * cx * u[..., 0], 2 * cy * u[..., 1]], axis=-1)

    def hess_g(u):
        h = np.zeros(u.shape[:-1] + (2, 2))
        h[..., 0, 0] = 2 * cx
        h[..., 1, 1] = 2 * cy
        return h

    return _graph_patch_surface(g, grad_g, hess_g, extent)


def _qr_svd_frames(jac):
    """Reference frames: QR with diag(R) > 0 for the tangent, the full SVD's
    complement re-orthogonalized and flipped to det [T | N] > 0."""
    jac = np.asarray(jac, dtype=float)
    m = jac.shape[-1]
    q, r = np.linalg.qr(jac)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    tangent = q * np.where(diag < 0.0, -1.0, 1.0)[..., None, :]
    normal = np.linalg.svd(jac, full_matrices=True)[0][..., m:]
    proj = np.einsum("...ij,...ik->...jk", tangent, normal)
    normal = normal - np.einsum("...ij,...jk->...ik", tangent, proj)
    normal /= np.linalg.norm(normal, axis=-2, keepdims=True)
    flip = np.linalg.det(np.concatenate([tangent, normal], axis=-1)) < 0.0
    normal[flip, :, -1] *= -1.0
    return tangent, normal


def _assert_frames_match_reference(jac, tangent, normal):
    ref_t, ref_n = _qr_svd_frames(jac)
    np.testing.assert_allclose(tangent, ref_t, rtol=0, atol=1e-14)
    # the normal frame of a curve in R^3 is fixed only up to a rotation;
    # compare its projector
    np.testing.assert_allclose(normal @ np.swapaxes(normal, -1, -2),
                               ref_n @ np.swapaxes(ref_n, -1, -2),
                               rtol=0, atol=1e-14)
    if normal.shape[-1] == 1:
        np.testing.assert_allclose(normal, ref_n, rtol=0, atol=1e-14)
    full = np.concatenate([tangent, normal], axis=-1)
    np.testing.assert_allclose(np.swapaxes(full, -1, -2) @ full,
                               np.broadcast_to(np.eye(full.shape[-1]),
                                               full.shape), atol=1e-14)
    assert np.all(np.linalg.det(full) > 0)


def frames(surface, locator):
    """(tangent, normal) frames at one located point."""
    tangent, normal, _ = surface.curvatures([locator])
    return tangent[0], normal[0]


def curvature(surface, locator):
    """The second fundamental form (m, m, n-m) at one located point."""
    return surface.curvatures([locator])[2][0]


def test_circle_frame():
    circ = make_circle()
    T, N = frames(circ, [0.0])
    np.testing.assert_allclose(T.ravel(), [0.0, 1.0], atol=1e-14)
    assert abs(abs(N[0, 0]) - 1.0) < 1e-14 and abs(N[1, 0]) < 1e-14


def test_sphere_frame_near_pole():
    sph = make_sphere()
    T, N = frames(sph, [1e-3, 0.3])
    # tangent span ~ xy-plane, normal ~ +-z
    assert abs(abs(N[2, 0]) - 1.0) < 1e-5
    ortho = np.concatenate([T, N], axis=1)
    np.testing.assert_allclose(ortho.T @ ortho, np.eye(3), atol=1e-12)


def test_paraboloid_frame_at_origin():
    par = make_paraboloid_surface()
    T, N = frames(par, [0.0, 0.0])
    assert np.max(np.abs(T[2, :])) < 1e-14   # tangent span is the xy-plane


@pytest.mark.parametrize("u", [[0.7, 0.3], [1.4, 2.0], [2.4, 5.1]])
def test_frame_orthonormality(u):
    sph = make_sphere(1.7)
    T, N = frames(sph, u)
    full = np.concatenate([T, N], axis=1)
    np.testing.assert_allclose(full.T @ full, np.eye(3), atol=1e-12)
    assert np.linalg.det(full) > 0
    _assert_frames_match_reference(sph.basis_at(u)[1], T, N)


@pytest.mark.parametrize("shape", SHAPES)
def test_orthonormal_frames_match_qr_svd_reference(shape):
    rng = np.random.default_rng(sum(shape))
    jac = rng.standard_normal((200, *shape))
    _assert_frames_match_reference(jac, *orthonormal_frames(jac))
    # a single matrix gives the frames of its stack entry
    for got, want in zip(orthonormal_frames(jac[3]), orthonormal_frames(jac)):
        np.testing.assert_array_equal(got, want[3])


@pytest.mark.parametrize("shape", SHAPES)
def test_orthonormal_frames_reject_rank_deficiency(shape):
    jac = np.random.default_rng(1).standard_normal((5, *shape))
    jac[2, :, -1] = 0.0 if shape[1] == 1 else 2.0 * jac[2, :, 0]
    with pytest.raises(RankDeficiencyError):
        orthonormal_frames(jac)


@pytest.mark.parametrize("shape", SHAPES)
def test_orthonormal_frames_rank_check_is_free_of_scale(shape):
    # each row's pivots are compared with each other, not with 1: a stack
    # of a unit row and a row scaled by 1e-20 is accepted, and each row
    # gets the frames it had before the scaling; a deficient tiny row is
    # still refused
    jac = np.random.default_rng(2).standard_normal((2, *shape))
    tiny = jac * np.array([1.0, 1e-20])[:, None, None]
    for got, want in zip(orthonormal_frames(tiny), orthonormal_frames(jac)):
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-15)
    tiny[1, :, -1] = 1e-14 * tiny[1, :, 0] if shape[1] == 2 else 0.0
    with pytest.raises(RankDeficiencyError):
        orthonormal_frames(tiny)


@pytest.mark.parametrize("radius", [1e-14, 1e-20])
def test_tiny_spheres_have_the_unit_sphere_energy(radius):
    # E_-4 of a 2-sphere is free of scale (2m + alpha = 0); the charts of
    # a tiny sphere are as well conditioned as the unit sphere's
    unit = riesz_energy(make_sphere(), -4.0).value
    assert riesz_energy(make_sphere(radius), -4.0).value == pytest.approx(
        unit, rel=1e-12)


def test_tiny_ellipsoid_has_the_unit_ks_energy():
    unit = ks_energy(make_ellipsoid(1.0, 1.0, 1.2)).value
    tiny = ks_energy(make_ellipsoid(1e-30, 1e-30, 1.2e-30)).value
    assert tiny == pytest.approx(unit, rel=1e-14)


def _minors_volume(jac):
    """sqrt of the sum of the squared 2 x 2 minors of (..., n, 2) Jacobians
    in the order of their row pairs, |d_0 x| of (..., n, 1) ones"""
    n, m = jac.shape[-2:]
    a = jac[..., 0]
    if m == 1:
        return np.sqrt(sum(a[..., i] ** 2 for i in range(n)))
    b = jac[..., 1]
    return np.sqrt(sum((a[..., i] * b[..., j] - a[..., j] * b[..., i]) ** 2
                       for i in range(n) for j in range(i + 1, n)))


def _gram_volume(jac):
    gram = np.einsum("...ji,...jk->...ik", jac, jac)
    if jac.shape[-1] == 1:
        return np.sqrt(gram[..., 0, 0])
    return np.sqrt(np.linalg.det(gram))


VOLUME_SURFACES = {
    "sphere": make_sphere,
    "ellipsoid": lambda: make_ellipsoid(1.0, 1.0, 1.2),
    "torus": lambda: make_torus(1.0, 0.5),
    "circle": make_circle,
    "moebius_image": lambda: apply_moebius(
        make_ellipsoid(1.0, 1.0, 1.2),
        MoebiusMap("inversion", center=(3.0, 0.2, 0.1), radius=2.0)),
}


@pytest.mark.parametrize("name", sorted(VOLUME_SURFACES))
def test_chart_weights_take_the_volume_element_in_closed_form(name):
    # each chart's weights are its parameter rule times the minors form of
    # its volume element, bit for bit, and agree with the Gram determinant
    # to 2e-15 relative
    surface = VOLUME_SURFACES[name]()
    for scale in (1.0, 0.5, 0.25):
        nodes = surface.nodes(scale)
        lo = 0
        for chart in surface.charts:
            u, w = chart.param_rule(scale)
            jac = chart.jacobian(u)
            got = nodes.weights[lo:lo + len(w)]
            assert np.array_equal(got, w * _minors_volume(jac))
            np.testing.assert_allclose(got, w * _gram_volume(jac),
                                       rtol=2e-15, atol=0)
            lo += len(w)
        assert lo == len(nodes.weights)
    if name == "sphere":
        assert surface.nodes(1.0).volume == pytest.approx(4.0 * math.pi,
                                                          rel=1e-14)


def test_thin_chart_keeps_its_area():
    # (u, v) -> (u + v, u + (1 + 1e-9) v, 0) is regular, with area element
    # (1 + 1e-9) - 1, where the Gram determinant EG - F^2 of its Jacobian
    # cancels to 0
    h = 1.0 + 1e-9

    def value(u):
        return np.stack([u[..., 0] + u[..., 1], u[..., 0] + h * u[..., 1],
                         np.zeros(u.shape[:-1])], axis=-1)

    def jacobian(u):
        jac = np.zeros(u.shape[:-1] + (3, 2))
        jac[..., 0, :] = 1.0
        jac[..., 1, 0], jac[..., 1, 1] = 1.0, h
        return jac

    rule = _product_rule([(0.0, 1.0), (0.0, 1.0)], (6, 6), (False, False))
    chart = Chart(2, 3, value, jacobian, None, rule)
    thin = ChartSurface(m=2, n=3, charts=[chart], closed=False,
                        euler_char=None)
    nodes = thin.nodes(1.0)
    _, w = rule(1.0)
    assert np.array_equal(nodes.weights, w * (h - 1.0))
    assert nodes.volume == pytest.approx(h - 1.0, rel=1e-14)


@pytest.mark.parametrize("shape", [(2, 2), (3, 3), (4, 1), (4, 2), (1, 1)])
def test_orthonormal_frames_reject_other_shapes(shape):
    with pytest.raises(UnsupportedInputError):
        orthonormal_frames(np.ones((3, *shape)))


@pytest.mark.parametrize("shape", SHAPES)
def test_orthonormal_frames_complex_step(shape):
    rng = np.random.default_rng(7)
    jac, djac = rng.standard_normal((2, 4, *shape))
    wt, wn = rng.standard_normal((4, shape[0], shape[1])), rng.standard_normal(
        (4, shape[0], shape[0] - shape[1]))

    def f(x):
        t, n = orthonormal_frames(x)
        return np.sum(wt * t) + np.sum(wn * n)

    h = 1e-20
    cs = f(jac + 1j * h * djac).imag / h
    step = 1e-6
    cd = (f(jac + step * djac) - f(jac - step * djac)) / (2 * step)
    assert cs == pytest.approx(cd, rel=1e-7, abs=1e-9)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("read_normal", [True, False])
def test_orthonormal_frames_adjoint_matches_complex_step(shape, read_normal):
    rng = np.random.default_rng(11 + sum(shape))
    n, m = shape
    jac = rng.standard_normal((6, n, m))
    wt = rng.standard_normal((6, n, m))
    wn = rng.standard_normal((6, n, n - m)) if read_normal else None
    got = orthonormal_frames_adjoint(jac, wt, wn)
    h = 1e-20
    # each stack entry's frames read only its own Jacobian, so one complex
    # step per matrix entry gives that entry's derivative for all of them
    for a, b in np.ndindex(n, m):
        z = jac.astype(complex)
        z[:, a, b] += 1j * h
        t, nrm = orthonormal_frames(z)
        value = np.sum(wt * t, axis=(1, 2))
        if read_normal:
            value = value + np.sum(wn * nrm, axis=(1, 2))
        assert np.max(np.abs(got[:, a, b] - value.imag / h)) <= (
            1e-13 * np.max(np.abs(got)))


def test_sphere_graph_patch_height():
    # height function of the unit sphere over its tangent plane
    sph = make_sphere()
    stack = graph_patch_at(sph, [(0, [math.pi / 2, 0.0])], 0.5)
    assert stack.radii[0] == pytest.approx(0.5)
    rng = np.random.default_rng(1)
    eta = rng.uniform(-0.3, 0.3, size=(20, 2))
    h = stack.height(np.zeros(20, dtype=int), eta)
    expected = 1.0 - np.sqrt(1.0 - np.sum(eta ** 2, axis=1))
    np.testing.assert_allclose(np.abs(h[:, 0]), expected, atol=1e-10)
    assert stack.derivative_bounds()[0] >= 1.0


def test_flat_patch_is_zero():
    par = make_paraboloid_surface(cx=0.0, cy=0.0)   # the plane z = 0
    stack = graph_patch_at(par, [(0, [0.1, -0.2])], 0.4)
    eta = np.array([[0.1, 0.05], [-0.2, 0.1]])
    np.testing.assert_allclose(stack.height(np.zeros(2, dtype=int), eta),
                               0.0, atol=1e-12)
    assert stack.derivative_bounds()[0] < 1e-10


def test_cylinder_patch_flat_direction():
    cyl = make_cylinder_patch(1.0, 1.0)
    stack = graph_patch_at(cyl, [(0, [0.0, 0.0])], 0.4)
    node = np.zeros(1, dtype=int)
    # h depends on the circumferential variable only; the axial second
    # derivative vanishes identically
    step = 1e-4
    for ax_val in (-0.2, 0.0, 0.2):
        h0 = stack.height(node, np.array([[0.1, ax_val - step]]))
        h1 = stack.height(node, np.array([[0.1, ax_val]]))
        h2 = stack.height(node, np.array([[0.1, ax_val + step]]))
        second = (h0 - 2 * h1 + h2) / step ** 2
        assert np.max(np.abs(second)) < 1e-5


def test_patch_reembedding():
    ell = make_sphere(1.3)
    stack = graph_patch_at(ell, [(0, [1.2, 0.7])], 0.6)
    eta = np.array([[0.3, -0.2], [0.0, 0.45]])
    h = stack.height(np.zeros(2, dtype=int), eta)
    pts = (stack.base_point[0] + eta @ stack.tangent[0].T
           + h @ stack.normal[0].T)
    # image points lie on the sphere
    np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.3, atol=1e-10)


@pytest.mark.parametrize("a, b, field", [
    (make_circle(), make_circle(1.0, (2.5, 0.0)), "both"),
    (make_sphere(), make_sphere(1.0, (2.5, 0.0, 0.0)),
     "repatch"),
], ids=["circles", "spheres"])
def test_union_keeps_every_chart_field(a, b, field):
    # each chart of the second body is copied whole, only its component
    # shifted past the first body's; the bodies themselves are unchanged
    component = b.charts[0].component
    union = make_disjoint_union(a, b)
    assert union.charts[0] is a.charts[0]
    new, old = union.charts[1], b.charts[0]
    assert getattr(new, field) is not None
    for name in ("value", "jacobian", "hessian", "param_rule", "repatch",
                 "take", "both"):
        assert getattr(new, name) is getattr(old, name), name
    assert new.component == component + 1
    assert old.component == component


def test_concatenated_stack_errors_name_the_stack_node():
    # one chart run per sphere: node 2 is node 1 of the second run, and a
    # chord t = 3 beyond the unit sphere's diameter has no solution
    both = make_disjoint_union(
        make_sphere(), make_sphere(1.0, (3.0, 0.0, 0.0)))
    stack = graph_patch_at(both, [(0, np.array([1.0, 0.5])),
                                  (1, np.array([1.0, 0.5])),
                                  (1, np.array([1.2, 2.0]))], 0.3)
    with pytest.raises(NumericalError) as exc:
        stack.chord_solve(np.array([2]), np.array([[1.0, 0.0]]),
                          np.array([3.0]))
    assert exc.value.node == 2


def test_concatenated_stack_build_errors_name_the_stack_node():
    # a radius of 0.3 on a sphere of radius 0.1: the build solves nothing
    # and keeps the radius, and graph rows out to 0.29 fail on both nodes
    # of the second chart run, nodes 1 and 2 of the list, and on no other
    both = make_disjoint_union(
        make_sphere(), make_sphere(0.1, (3.0, 0.0, 0.0)))
    stack = graph_patch_at(both, [(0, np.array([1.0, 0.5])),
                                  (1, np.array([1.0, 0.5])),
                                  (1, np.array([1.2, 2.0]))], 0.3)
    np.testing.assert_array_equal(stack.radii, 0.3)
    with pytest.raises(PatchRadiusError, match=r"\(chart 1\)") as exc:
        stack.height(np.arange(3), np.array([[0.29, 0.0]] * 3))
    assert exc.value.node == 1 and exc.value.nodes == [1, 2]


def test_concatenated_stack_rows_keep_their_node_shape():
    both = make_disjoint_union(
        make_sphere(), make_sphere(1.0, (3.0, 0.0, 0.0)))
    stack = graph_patch_at(both, [(0, np.array([1.0, 0.5])),
                                  (1, np.array([1.0, 0.5])),
                                  (1, np.array([1.2, 2.0]))], 0.3)
    node = np.array([[0, 2], [1, 0]])
    eta = np.random.default_rng(3).uniform(-0.2, 0.2, size=(2, 2, 2))
    for fn in (stack.height, stack.height_jacobian):
        flat = fn(node.ravel(), eta.reshape(4, 2))
        np.testing.assert_array_equal(fn(node, eta),
                                      flat.reshape(2, 2, *flat.shape[1:]))


@pytest.mark.parametrize("fn, rows", [
    ("chord_solve", ([[1.0, 0.0]] * 4, [0.2, 3.0, 3.0, 3.0])),
    ("height", ([[0.1, 0.0], *[[5.0, 5.0]] * 3],)),
], ids=["chord", "graph"])
def test_newton_failures_name_only_unconverged_rows(fn, rows):
    # node 0's row converges at once but stays in the batch, below a
    # quarter of it; the three rows of node 1 (a chord of 3 beyond the unit
    # sphere's diameter, a height far outside the radius) do not converge
    stack = graph_patch_at(make_sphere(), [(0, [1.0, 0.5]), (0, [1.2, 2.0])],
                           0.3)
    with pytest.raises(NumericalError) as exc:
        getattr(stack, fn)(np.array([0, 1, 1, 1]), *map(np.array, rows))
    assert exc.value.nodes == [1]
    if fn == "chord_solve":
        assert "did not converge on 3 rows (chart 0)" in str(exc.value)


UNIONS = {
    "sphere+ellipsoid": lambda: make_disjoint_union(
        make_sphere(), make_ellipsoid(0.8, 1.0, 1.2, (3.0, 0.0, 0.0))),
    "torus+sphere": lambda: make_disjoint_union(
        make_torus(2.0, 0.5), make_sphere(0.5, (0.0, 0.0, 3.0))),
    "inversion": lambda: apply_moebius(
        UNIONS["sphere+ellipsoid"](),
        MoebiusMap("inversion", center=(1.5, 2.0, 0.0), radius=1.5)),
}


@pytest.mark.parametrize("name", UNIONS)
def test_union_stack_matches_single_chart_builds(name):
    # the one stack of every node against one build per chart, bit for bit:
    # the radii that the profiles accept at 0.3, and the frames, bounds and
    # rows at a radius whose bound grid every node's graph Newton reaches
    # (the inversion image's nodes 5-8 do not reach theirs at 0.3)
    surface = UNIONS[name]()
    nodes = surface.nodes(0.25)
    take = np.linspace(0, len(nodes.points) - 1, 9).astype(int)
    locators = [nodes.locators[i] for i in take]
    chart = np.array([k for k, _ in locators])
    assert set(chart) == {0, 1}
    per_chart = [[loc for loc in locators if loc[0] == k] for k in (0, 1)]
    whole = radial_profile(graph_patch_at(surface, locators, 0.3))
    parts = [radial_profile(graph_patch_at(surface, locs, 0.3))
             for locs in per_chart]
    np.testing.assert_array_equal(
        whole.eps0, np.concatenate([p.eps0 for p in parts]))
    for got, want in zip(whole.samples, [s for p in parts for s in p.samples]):
        np.testing.assert_array_equal(got, want)
    radius = 0.2 if name == "inversion" else 0.3
    stack = graph_patch_at(surface, locators, radius)
    singles = [graph_patch_at(surface, locs, radius) for locs in per_chart]
    for field in ("base_point", "tangent", "normal", "radii"):
        np.testing.assert_array_equal(
            getattr(stack, field),
            np.concatenate([getattr(s, field) for s in singles]))
    np.testing.assert_array_equal(
        stack.derivative_bounds(),
        np.concatenate([s.derivative_bounds() for s in singles]))
    rng = np.random.default_rng(11)
    node = np.repeat(np.arange(len(stack)), 12)
    v = rng.normal(size=(len(node), 2))
    v /= np.linalg.norm(v, axis=1)[:, None]
    t = rng.uniform(0.01, 0.95, len(node)) * stack.radii[node]
    eta = v * t[:, None]
    whole = [stack.chord_solve(node, v, t), stack.height(node, eta),
             stack.height_jacobian(node, eta)]
    start = 0
    for k, single in enumerate(singles):
        rows = chart[node] == k
        local = node[rows] - start
        parts = [single.chord_solve(local, v[rows], t[rows]),
                 single.height(local, eta[rows]),
                 single.height_jacobian(local, eta[rows])]
        for got, want in zip([*whole[0], *whole[1:]], [*parts[0], *parts[1:]]):
            np.testing.assert_array_equal(got[rows], want)
        start += len(single)


def _scaled(surface, lam, shift):
    n = surface.n
    return surface.transformed(
        lambda x: lam * x + shift,
        lambda x: np.broadcast_to(lam * np.eye(n), x.shape[:-1] + (n, n)),
        None)


ROW_SURFACES = {
    "spheroid_stack": lambda: make_ellipsoid(1.0, 1.0, 1.5),
    "transformed_stack": lambda: _scaled(make_ellipsoid(1.0, 1.0, 1.5), 1.5,
                                         0.25),
    "transformed_torus": lambda: _scaled(make_torus(2.0, 0.5), 0.75, -0.5),
    "circle": make_circle,
}


@pytest.mark.parametrize("name", sorted(ROW_SURFACES))
def test_chord_rows_do_not_depend_on_their_batch(name):
    # 9600 rows whose radii span three decades converge at different
    # iterations, so the batch retires rows in rounds and compacts the rest
    # in place; each row must come out as it does in a batch of a third of
    # the rows or of the outer half of the radii, bit for bit
    surface = ROW_SURFACES[name]()
    nodes = surface.nodes(0.25)
    take = np.linspace(0, len(nodes.points) - 1, 24).astype(int)
    stack = graph_patch_at(surface, [nodes.locators[i] for i in take],
                           default_patch_radius(surface))
    rng = np.random.default_rng(5)
    node = rng.integers(0, len(stack), 9600)
    if surface.m == 1:
        v = rng.choice([-1.0, 1.0], (len(node), 1))
    else:
        angle = rng.uniform(0.0, 2.0 * math.pi, len(node))
        v = np.stack([np.cos(angle), np.sin(angle)], axis=-1)
    t = stack.radii[node] * np.exp(rng.uniform(np.log(1e-3), np.log(0.98),
                                               len(node)))
    whole = stack.chord_solve(node, v, t)
    for rows in (np.arange(1, len(node), 3), np.flatnonzero(t > np.median(t))):
        part = stack.chord_solve(node[rows], v[rows], t[rows])
        for got, want in zip(whole, part):
            np.testing.assert_array_equal(got[rows], want)


def _fill_rows(chart, u):
    """(value, jacobian) of a chart at parameter rows u (R, m), read
    through `Chart.fill` into (R, n) and (R, n, m) arrays."""
    x = np.empty((len(u), chart.n))
    jac = np.empty((len(u), chart.n, chart.m))
    chart.fill(u.T, x.T, jac.transpose(1, 2, 0))
    return x, jac


def test_spheroid_stack_is_the_central_projection():
    # x(u) = c + diag(ax) R p(u), p(u) = (e_x + u_1 e_y - u_0 e_z) /
    # sqrt(1 + |u|^2), on random stacks and rows |u| <= 1.5
    rng = np.random.default_rng(11)
    R = 400
    ax = rng.uniform(0.3, 2.0, 3)
    rot = _rotations_taking_ex(rng.normal(size=(R, 3)))
    ctr = rng.normal(size=3)
    A = ax[:, None] * rot
    stack = _spheroid_stack(np.ascontiguousarray(np.transpose(A, (2, 1, 0))),
                            ctr)
    u = rng.uniform(-1.5, 1.5, (R, 2))
    u *= np.minimum(1.0, 1.5 / np.linalg.norm(u, axis=-1))[:, None]
    x, jac = _fill_rows(stack, u)
    p = np.einsum("rji,rj->ri", rot, (x - ctr) / ax)
    eps = np.finfo(float).eps
    assert np.max(np.abs(np.linalg.norm(p, axis=-1) - 1.0)) <= 8 * eps
    ref = np.stack([np.ones(R), u[:, 1], -u[:, 0]], axis=-1)
    ref /= np.sqrt(1.0 + np.sum(u * u, axis=-1))[:, None]
    np.testing.assert_allclose(p, ref, rtol=0, atol=16 * eps)
    # the base point and axes are those of the spherical angles at the
    # equator, bit for bit: c + a_0, and -a_2 and a_1
    x0, jac0 = _fill_rows(stack, np.zeros((R, 2)))
    assert np.array_equal(x0, ctr + A[:, :, 0])
    assert np.array_equal(jac0, np.stack([-A[:, :, 2], A[:, :, 1]], -1))
    # the Jacobian against central differences of the value
    h = 1e-6
    for k in range(2):
        step = np.zeros(2)
        step[k] = h
        fd = (_fill_rows(stack, u + step)[0]
              - _fill_rows(stack, u - step)[0]) / (2 * h)
        np.testing.assert_allclose(jac[..., k], fd, rtol=0, atol=1e-9)
    # take(idx) has the full stack's bits on its rows
    idx = rng.permutation(R)[:97]
    xt, jt = _fill_rows(stack.take(idx), u[idx])
    assert np.array_equal(xt, x[idx]) and np.array_equal(jt, jac[idx])


def test_spheroid_stack_frames_match_the_angle_chart():
    # the frames patches_at builds from the stack span the original
    # chart's tangent plane with its orientation: the same normal
    rng = np.random.default_rng(12)
    for _ in range(4):
        surface = make_ellipsoid(*rng.uniform(0.3, 2.0, 3),
                                 center=rng.normal(size=3))
        chart = surface.charts[0]
        u = np.stack([rng.uniform(0.05, math.pi - 0.05, 30),
                      rng.uniform(0.0, 2.0 * math.pi, 30)], axis=-1)
        stack = surface.patches_at([(0, p) for p in u], 0.05)
        T, N = orthonormal_frames(chart.jacobian(u))
        np.testing.assert_allclose(stack.base_point, chart.value(u),
                                   rtol=0, atol=1e-14)
        np.testing.assert_allclose(stack.normal, N, rtol=0, atol=1e-14)
        np.testing.assert_allclose(stack.tangent @ np.swapaxes(stack.tangent,
                                                               -1, -2),
                                   T @ np.swapaxes(T, -1, -2),
                                   rtol=0, atol=1e-14)
        frame = np.concatenate([stack.tangent, stack.normal], axis=-1)
        assert np.all(np.linalg.det(frame) > 0.0)


def test_sphere_curvature():
    sph = make_sphere(2.0)
    sff = curvature(sph, [1.0, 0.4])
    assert umbilicity_defect(sff) == pytest.approx(0.0, abs=1e-12)
    assert np.linalg.det(sff[..., 0]) == pytest.approx(0.25, abs=1e-10)
    k1, k2 = np.linalg.eigvalsh(sff[..., 0])
    assert abs(k1) == pytest.approx(0.5, abs=1e-10)
    assert abs(k2) == pytest.approx(0.5, abs=1e-10)


def test_cylinder_curvature_chart_and_fit():
    cyl = make_cylinder_patch(1.0, 1.0)
    sff = curvature(cyl, (0, [0.2, 0.1]))
    kap = sorted(abs(k) for k in np.linalg.eigvalsh(sff[..., 0]))
    assert kap[0] == pytest.approx(0.0, abs=1e-10)
    assert kap[1] == pytest.approx(1.0, abs=1e-10)
    assert umbilicity_defect(sff) == pytest.approx(1.0, abs=1e-9)
    assert np.linalg.det(sff[..., 0]) == pytest.approx(0.0, abs=1e-10)
    # cross-check the quadratic-fit estimator against the chart values
    q = cyl.quadrature(1.0)
    base = np.array([np.cos(0.2), np.sin(0.2), 0.1])
    d = np.linalg.norm(q.points - base, axis=1)
    nbrs = q.points[(d > 1e-9) & (d < 0.35)]
    # seeded with the tangent plane tilted by about 0.1 rad
    seed = np.array([[-np.sin(0.2), np.cos(0.2), 0.1], [0.1, 0.0, 1.0]]).T
    tangent, normal, solve = fit_tangent_frames(
        (nbrs - base)[None], np.ones((1, len(nbrs))),
        *orthonormal_frames(seed[None]))
    coeffs, _ = fit_curvature(tangent, normal, solve)
    sff = np.moveaxis(coeffs[0], 0, -1)
    kfit = np.linalg.eigvalsh(sff[..., 0])
    kfit = sorted(abs(k) for k in kfit)
    assert kfit[0] == pytest.approx(0.0, abs=1e-2)
    assert kfit[1] == pytest.approx(1.0, rel=3e-2)


def test_plane_curvature():
    par = make_paraboloid_surface(cx=0.0, cy=0.0)
    sff = curvature(par, (0, [0.3, 0.2]))
    assert umbilicity_defect(sff) == pytest.approx(0.0, abs=1e-12)
    assert np.linalg.det(sff[..., 0]) == pytest.approx(0.0, abs=1e-12)


def test_curvature_identities_on_charts():
    # Delta = 2 ||h||^2 - |H|^2 and K = (|H|^2 - ||h||^2) / 2
    surf = make_torus(2.0, 0.5)
    sff = surf.curvatures([[0.3, 1.1], [2.0, 4.0], [4.4, 0.2]])[2]
    H2 = np.sum(np.einsum("kiic->kc", sff) ** 2, axis=-1)
    hs2 = np.sum(sff ** 2, axis=(1, 2, 3))
    np.testing.assert_allclose(umbilicity_defect(sff), 2.0 * hs2 - H2,
                               rtol=0, atol=1e-10)
    np.testing.assert_allclose(np.linalg.det(sff[..., 0]), 0.5 * (H2 - hs2),
                               rtol=0, atol=1e-10)


def test_torus_gauss_curvature_analytic():
    R, r = 2.0, 0.5
    tor = make_torus(R, r)
    for th in (0.5, 1.7, 3.0):
        gauss = np.linalg.det(curvature(tor, [th, 1.0])[..., 0])
        expected = math.cos(th) / (r * (R + r * math.cos(th)))
        assert gauss == pytest.approx(expected, abs=1e-9)


def test_mesh_curvature_convergence():
    errors = []
    for subdiv in (1, 2, 3):
        mesh = icosphere(subdiv)
        sample = range(0, mesh.num_vertices, max(1, mesh.num_vertices // 24))
        ks = np.linalg.det(mesh.curvatures(list(sample))[2][..., 0])
        errors.append(abs(np.mean(ks) - 1.0))
    assert errors[0] > errors[1] > errors[2]


def test_euler_characteristic():
    assert euler_characteristic(icosphere(1)) == 2
    assert euler_characteristic(icosphere(2)) == 2
    assert euler_characteristic(torus_mesh(12, 24)) == 0
    assert euler_characteristic(polygon_circle(32)) == 0


def test_euler_characteristic_additive():
    a = icosphere(1)
    b = torus_mesh(8, 16)
    both = mesh_disjoint_union(a, b.translated([10.0, 0, 0]))
    assert euler_characteristic(both) == 2


def _loop_icosphere(subdiv, radius, center):
    """icosphere as it was built before its array form: one midpoint per
    edge, found through a dict, face by face."""
    t = (1.0 + math.sqrt(5.0)) / 2.0
    verts = np.array([
        [-1, t, 0], [1, t, 0], [-1, -t, 0], [1, -t, 0],
        [0, -1, t], [0, 1, t], [0, -1, -t], [0, 1, -t],
        [t, 0, -1], [t, 0, 1], [-t, 0, -1], [-t, 0, 1],
    ], dtype=float)
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    verts = list(map(tuple, verts))
    for _ in range(subdiv):
        cache = {}
        new_faces = []

        def midpoint(i, j):
            key = frozenset((i, j))
            if key in cache:
                return cache[key]
            p = np.array(verts[i]) + np.array(verts[j])
            p /= np.linalg.norm(p)
            verts.append(tuple(p))
            cache[key] = len(verts) - 1
            return cache[key]

        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = new_faces
    pts = np.asarray(verts) * float(radius) + np.asarray(center, dtype=float)
    faces = np.asarray(faces)
    ctr = np.asarray(center, dtype=float)
    mesh = TriMesh(pts, faces, 2)
    outward = np.einsum("ij,ij->i", mesh.face_normals(),
                        mesh.face_centroids() - ctr)
    return pts, (faces if np.mean(outward > 0) >= 0.5 else faces[:, ::-1])


def _loop_torus_faces(n_u, n_v):
    """torus_mesh's faces as they were built before their array form."""
    faces = []
    for i in range(n_u):
        for j in range(n_v):
            a = i * n_v + j
            b = ((i + 1) % n_u) * n_v + j
            c = ((i + 1) % n_u) * n_v + (j + 1) % n_v
            d = i * n_v + (j + 1) % n_v
            faces += [(a, b, c), (a, c, d)]
    return np.asarray(faces)


@pytest.mark.parametrize("subdiv", range(6))
@pytest.mark.parametrize("radius, center", [(1.0, (0.0, 0.0, 0.0)),
                                            (1.7, (0.3, -1.2, 2.5))],
                         ids=["unit", "offcentre"])
def test_icosphere_has_the_bits_of_the_loop_subdivision(subdiv, radius,
                                                        center):
    pts, faces = _loop_icosphere(subdiv, radius, center)
    mesh = icosphere(subdiv, radius, center)
    assert np.array_equal(mesh.vertices, pts)
    assert np.array_equal(mesh.faces, faces)
    assert mesh.faces.dtype == faces.dtype


@pytest.mark.parametrize("n_u, n_v", [(3, 3), (3, 7), (5, 4), (12, 24),
                                      (24, 48)])
def test_torus_mesh_faces_have_the_bits_of_the_loops(n_u, n_v):
    mesh = torus_mesh(n_u, n_v)
    th = 2 * math.pi * np.arange(n_u) / n_u
    ph = 2 * math.pi * np.arange(n_v) / n_v
    T, P = np.meshgrid(th, ph, indexing="ij")
    w = 2.0 + 0.5 * np.cos(T)
    pts = np.stack([w * np.cos(P), w * np.sin(P), 0.5 * np.sin(T)],
                   axis=-1).reshape(-1, 3)
    faces = _loop_torus_faces(n_u, n_v)
    assert np.array_equal(mesh.vertices, pts)
    assert np.array_equal(mesh.faces, faces)
    assert mesh.faces.dtype == faces.dtype


def test_open_mesh_rejected():
    mesh = icosphere(0)
    open_mesh = mesh.with_vertices(mesh.vertices)
    open_mesh.faces = open_mesh.faces[:-1]
    open_mesh.closed = False
    with pytest.raises(TopologyError):
        euler_characteristic(open_mesh)


def test_validate_patch_class_sphere_pass():
    sph = make_sphere()
    params = PatchClassParams(radius=0.1, derivative_bound=10.0,
                              volume_bound=20.0)
    report = validate_patch_class(sph, params)
    assert report.passed
    assert report.sample_count == 24
    assert report.volume == pytest.approx(4 * math.pi, rel=1e-8)


def test_validate_patch_class_volume_fail():
    sph = make_sphere()
    params = PatchClassParams(radius=0.1, derivative_bound=10.0,
                              volume_bound=1.0)
    report = validate_patch_class(sph, params)
    assert not report.passed
    assert not report.volume_ok
    assert report.volume == pytest.approx(4 * math.pi, rel=1e-8)


@pytest.mark.parametrize("surface", [make_sphere(), icosphere(2)],
                         ids=["sphere", "icosphere2"])
def test_validate_patch_class_measures_each_patch_once(surface, monkeypatch):
    # a passing surface is checked on one stack of all its samples, and
    # their derivative bounds are measured in one pass
    import rieszlab.geometry.patches as patches

    params = PatchClassParams(radius=0.1, derivative_bound=10.0,
                              volume_bound=20.0)
    sizes, measured = [], []
    build = type(surface).patches_at
    measure = patches.PatchStack.derivative_bounds

    def counted_build(self, locators, radius):
        sizes.append(len(locators))
        return build(self, locators, radius)

    def counted_measure(self):
        measured.append(len(self))
        return measure(self)

    monkeypatch.setattr(type(surface), "patches_at", counted_build)
    monkeypatch.setattr(patches.PatchStack, "derivative_bounds",
                        counted_measure)
    report = validate_patch_class(surface, params)
    assert report.passed
    assert sizes == measured == [report.sample_count]


def test_validate_two_disjoint_spheres():
    a = make_sphere(1.0, (0.0, 0.0, 0.0))
    b = make_sphere(1.0, (4.0, 0.0, 0.0))
    both = make_disjoint_union(a, b)
    params = PatchClassParams(radius=0.3, derivative_bound=10.0,
                              volume_bound=40.0)
    report = validate_patch_class(both, params)
    assert report.passed
    assert report.components_in_ball == [1] * 24


NEWTON = ("graph-patch Newton did not converge inside the requested radius "
          "(chart 0)")


def _sample_locators(surface):
    nodes = surface.nodes(0.25)
    take = np.linspace(0, len(nodes.points) - 1, 24).astype(int)
    # str prints a chart pair as its repr and a mesh vertex as a plain int
    return [str(nodes.locators[i]) for i in take]


@pytest.mark.parametrize("spec, radius, reasons", [
    ("torus", 0.8, {i: NEWTON for i in range(24)}),
    ("circle", 1000.0, {i: NEWTON for i in range(24)}),
    ("polygon", 0.4, {i: "validated radius 0.176431 < requested 0.4"
                      for i in range(24)}),
    ("ellipsoid:a=3,b=0.4,c=1", 0.4, {
        0: "derivative sup 6.19787e+06 exceeds b=10",
        1: "derivative sup 6.19787e+06 exceeds b=10",
        **{i: NEWTON for i in [*range(2, 8), *range(18, 24)]},
        8: "derivative sup 734.403 exceeds b=10",
        16: "derivative sup 103.696 exceeds b=10",
        17: "derivative sup 5684.37 exceeds b=10"}),
], ids=["torus-0.8", "circle-1000", "polygon-0.4", "ellipsoid-0.4"])
def test_validate_patch_class_failures(spec, radius, reasons):
    # every failing sample is one violation, in sample order, with the
    # reason of its own failure; the check reports and does not raise
    surface = parse_surface(spec)
    params = PatchClassParams(radius=radius, derivative_bound=10.0,
                              volume_bound=100.0)
    report = validate_patch_class(surface, params)
    locators = _sample_locators(surface)
    if spec == "polygon":
        assert all(loc.isdigit() for loc in locators)
    assert not report.passed and report.volume_ok
    assert report.sample_count == 24
    assert report.violations == [{"locator": locators[i],
                                  "reason": reasons[i]}
                                 for i in sorted(reasons)]
    # a sample over the derivative bound was measured; the others were not
    measured = 24 - sum(not r.startswith("derivative")
                        for r in reasons.values())
    assert report.components_in_ball == [1] * measured
    assert (report.b_sup_measured == 0.0) == (measured == 0)
    if spec.startswith("ellipsoid"):
        assert f"{report.b_sup_measured:.6g}" == "6.19787e+06"


@pytest.mark.parametrize("spec, radius, builds", [
    ("torus", 0.8, 1), ("ellipsoid:a=3,b=0.4,c=1", 0.4, 2)],
    ids=["torus-0.8", "ellipsoid-0.4"])
def test_validate_patch_class_records_a_builds_failures_at_once(
        spec, radius, builds, monkeypatch):
    # a failed build names every failing sample of its chart, so the check
    # builds once more only for the samples that passed
    import rieszlab.geometry.patches as patches

    calls = []
    build = patches.graph_patch_at

    def counted(surface, locators, radius):
        calls.append(len(locators))
        return build(surface, locators, radius)

    monkeypatch.setattr(patches, "graph_patch_at", counted)
    report = validate_patch_class(parse_surface(spec), PatchClassParams(
        radius=radius, derivative_bound=10.0, volume_bound=100.0))
    assert not report.passed
    assert len(calls) == builds and calls[0] == report.sample_count


@pytest.mark.parametrize("build", [
    lambda: icosphere(-1), lambda: make_sphere(-1),
    lambda: make_ellipsoid(-1, 1, 1.2), lambda: make_torus(1, 2),
    lambda: polygon_circle(2)],
    ids=["icosphere", "sphere", "ellipsoid", "torus", "polygon"])
def test_builders_reject_impossible_sizes(build):
    with pytest.raises(PreconditionError):
        build()


def test_mesh_io_roundtrip(tmp_path):
    mesh = icosphere(1, radius=1.3)
    off = tmp_path / "s.off"
    obj = tmp_path / "s.obj"
    write_off(mesh, off)
    write_obj(mesh, obj)
    back_off = read_off(off)
    back_obj = read_obj(obj)
    np.testing.assert_array_equal(back_off.vertices, mesh.vertices)
    np.testing.assert_array_equal(back_off.faces, mesh.faces)
    np.testing.assert_array_equal(back_obj.vertices, mesh.vertices)
    np.testing.assert_array_equal(back_obj.faces, mesh.faces)


def test_polygon_io_roundtrip(tmp_path):
    mesh = polygon_circle(17, radius=0.8)
    path = tmp_path / "c.off"
    write_off(mesh, path)
    back = read_off(path)
    assert back.m == 1
    np.testing.assert_array_equal(back.vertices, mesh.vertices)


@pytest.mark.parametrize("surface", [make_ellipsoid(1.3, 0.9, 1.1),
                                     make_torus(1.0, 0.5), make_circle()],
                         ids=["ellipsoid", "torus", "circle"])
def test_curvatures_carry_the_four_operand_einsum_bits(surface):
    # the plain-product pull-back h = N^T H(A., A.) reproduces numpy's
    # unoptimized einsum bit for bit (default_patch_radius reads it)
    locators = surface.nodes(0.5).locators
    tangent, normal, sff = surface.curvatures(locators)
    chart = surface.charts[0]
    u = np.array([loc[1] for loc in locators])
    A = _inv_small(np.swapaxes(tangent, -1, -2) @ chart.jacobian(u))
    ref = np.einsum("knc,knpq,kpa,kqb->kabc", normal, chart.hessian(u), A, A)
    assert np.array_equal(sff, ref)
