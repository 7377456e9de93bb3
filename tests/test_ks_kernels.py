"""The KS diagonal limits against isotropic probing, the batched chart
curvatures against the per-point formula they replaced, the one-vector
pair kernel against the frame-based einsum kernel it replaced (references
copied here), the triangle sums against full-square sums, the blocked pair
passes against the kernel that built its stacks and arrays per call (also
copied here), and the peak memory of the blocked KS pair sums."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rieszlab.flow
import rieszlab.moebius
from rieszlab import (FlowState, MoebiusMap, QuadratureConfig, TriMesh,
                      UnsupportedInputError,
                      apply_moebius, energy_gradient, graph_patch_at,
                      icosphere, ks_cross_energy, ks_energy, ks_flow_energy,
                      make_circle, make_disjoint_union, make_disk,
                      make_ellipsoid, make_sphere, make_torus, polygon_circle,
                      torus_mesh)
from rieszlab.flow import _ks_quadrature
from rieszlab.geometry import mesh_disjoint_union, orthonormal_frames
from rieszlab.geometry.meshes import MeshTopology
from rieszlab.geometry.patches import cross, dot, umbilicity_defect
from rieszlab.moebius import (_PairPass, combined_angle_cos_frames,
                              ks_pair_blocks, ks_triangle_rows,
                              ks_unit_vectors)


# ----------------------------------------------------------------------
# references: one node, one direction, one step at a time
# ----------------------------------------------------------------------

def _walker(surface, loc):
    """eta (m,) in the node's orthonormal tangent frame -> a surface point
    that far along eta (to first order) and a positively oriented tangent
    basis there: on charts a step A eta in the parameters, A = (T^T J)^-1;
    on meshes the point over eta on the vertex's fitted quadratic graph."""
    if isinstance(surface, TriMesh):
        p = graph_patch_at(surface, [loc], None)
        x0, T, N = p.base_point[0], p.tangent[0], p.normal[0]
        node = np.zeros(1, dtype=int)
        return lambda eta: (
            x0 + eta @ T.T + p.height(node, eta[None])[0] @ N.T,
            T + N @ p.height_jacobian(node, eta[None])[0])
    k, u0 = surface.locate(loc)
    chart = surface.charts[k]
    A = np.linalg.inv(surface.curvatures([loc])[0][0].T @ chart.jacobian(u0))
    return lambda eta: (chart.value(u0 + A @ eta), chart.jacobian(u0 + A @ eta))


def _isotropic_limit(surface, loc, h):
    """Mean over directions e evenly spaced in the orthonormal tangent plane
    (8 on surfaces, 2 on curves) of lim (1 - cos theta) / d^2 along e, each
    extrapolated quadratically in d from steps h, h/2, h/4."""
    x = surface.basis_at(loc)[0]
    tangent = surface.curvatures([loc])[0][0]
    walk = _walker(surface, loc)
    if surface.m == 1:
        dirs = np.array([[1.0], [-1.0]])
    else:
        ang = np.arange(8) * (2.0 * math.pi / 8)
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    limits = []
    for e in dirs:
        ds, fs = [], []
        for s in (h, h / 2, h / 4):
            y, basis = walk(s * e)
            d = float(np.linalg.norm(y - x))
            fs.append((1.0 - combined_angle_cos_frames(x, tangent, y, basis))
                      / d ** 2)
            ds.append(d)
        V = np.vander(np.array(ds), 3, increasing=True)
        limits.append(np.linalg.solve(V, np.array(fs))[0])
    return float(np.mean(limits))


def _closed_form_limits(surface, locators):
    """ks_energy's diagonal limits: D / 16 on surfaces, 0 on curves."""
    sff = surface.curvatures(locators)[2]
    if surface.m == 1:
        return np.zeros(len(sff))
    return umbilicity_defect(sff) / 16.0


def _assert_isotropic(got, ref, h, rel):
    # 1 - cos carries a rounding error of a few ulps, eps / d^2 in the
    # ratio at the smallest step d = h / 4; the extrapolation leaves a
    # truncation error of order (k h)^3 relative
    eps = np.finfo(float).eps
    assert np.all(np.abs(got - ref) <= 64 * eps / (h / 4) ** 2
                  + rel * np.abs(ref))


def _chart_curvature_reference(surface, loc):
    """The per-point chart curvature of earlier versions: frames of the
    Jacobian and the Hessian pulled back through (T^T J)^-1."""
    k, u = surface.locate(loc)
    chart = surface.charts[k]
    jac = chart.jacobian(u)
    hess = chart.hessian(u)
    tangent, normal = orthonormal_frames(jac)
    A = np.linalg.inv(tangent.T @ jac)
    sff = np.einsum("nc,npq,pa,qb->abc", normal, hess, A, A)
    return tangent, normal, sff


def _squared_distances(x_pts, y_pts):
    """|y - x|^2 (Nx, Ny), summed one coordinate at a time."""
    s = (y_pts[:, 0] - x_pts[:, 0, None]) ** 2
    for c in range(1, x_pts.shape[-1]):
        s = s + (y_pts[:, c] - x_pts[:, c, None]) ** 2
    return s


def _einsum_kernel(x_pts, x_frames, y_pts, y_frames):
    m = x_frames.shape[-1]
    diff = y_pts[None, :, :] - x_pts[:, None, :]
    s = np.sum(diff * diff, axis=-1)
    dist = np.sqrt(s)
    v = diff / np.where(dist == 0.0, 1.0, dist)[..., None]
    a = np.einsum("xyn,xnk->xyk", v, x_frames)
    b = np.einsum("xyn,ynl->xyl", v, y_frames)
    ew = np.einsum("xnk,ynl->xykl", x_frames, y_frames)
    G = 2.0 * a[..., :, None] * b[..., None, :] - ew
    if m == 1:
        cos = G[..., 0, 0]
    else:
        cos = -(G[..., 0, 0] * G[..., 1, 1] - G[..., 0, 1] * G[..., 1, 0])
    omc = 1.0 - cos
    omc[dist == 0.0] = 0.0
    return omc, s


def _pair_kernel(x_pts, x_units, y_pts, y_units, m):
    """(1 - cos theta, s, pullback) of every pair of rows of x and y: a
    `_PairPass` of one block over all pairs."""
    return _PairPass(x_pts, x_units, y_pts, y_units, m,
                     len(x_pts) * len(y_pts), 6).kernel(0, len(x_pts), 0)[:3]


def _stacked_kernel(x_pts, x_units, y_pts, y_units, m):
    """The pair kernel as it was before the passes shared their stacks and
    buffers across blocks: the same homogeneous stacks and products, all
    built per call, and a and b kept for the pullback."""
    n = x_pts.shape[-1]
    if m != 1 and (n, m) != (3, 2):
        raise UnsupportedInputError("KS pairs need curves or surfaces in R^3")
    sign = 1.0 if m == 1 else -1.0
    Nx, Ny = len(x_pts), len(y_pts)
    dtype = np.result_type(x_pts, x_units, y_pts, y_units)
    y1 = np.ones((n + 1, Ny), dtype)
    y1[:n] = y_pts.T
    uy = np.empty((n + 1, Ny), dtype)
    uy[:n] = y_units.T
    uy[n] = dot(y_units, y_pts)
    rows = np.zeros((n + 2, Nx, n + 1), dtype)
    rows[:n, :, n] = -x_pts.T
    rows[range(n), :, range(n)] = 1.0
    rows[n, :, :n] = x_units
    rows[n, :, n] = -dot(x_units, x_pts)
    rows[n + 1, :, :n] = -x_pts
    rows[n + 1, :, n] = 1.0

    d, s = np.empty((Nx, Ny), dtype), np.empty((Nx, Ny), dtype)
    np.square(np.matmul(rows[0], y1, out=d), out=s)
    for c in range(1, n):
        s += np.square(np.matmul(rows[c], y1, out=d), out=d)
    apart = s != 0.0
    twice_inv_s = np.divide(2.0, s, out=d, where=apart)
    a = rows[n] @ y1
    b = rows[n + 1] @ uy
    omc = np.multiply(a, twice_inv_s)
    omc *= b
    omc -= x_units @ uy[:n]
    if sign > 0.0:
        np.subtract(1.0, omc, out=omc)
    else:
        omc += 1.0
    omc[~apart] = 0.0

    def pullback(omc_bar, s_bar):
        omc_bar = np.where(apart, omc_bar, 0.0)
        ab_bar = (-sign * twice_inv_s) * omc_bar
        a_bar, b_bar = ab_bar * b, ab_bar * a
        t = a_bar * a
        t *= twice_inv_s
        s_bar = np.where(apart, s_bar, 0.0) - 0.5 * t
        x_bar = np.empty(x_pts.shape)
        for c in range(n):
            np.matmul(rows[c], y1, out=t)
            x_bar[:, c] = np.multiply(t, s_bar, out=t).sum(axis=1)
        x_bar *= -2.0
        row = a_bar.sum(axis=1)[:, None]
        x_bar -= row * x_units + b_bar @ y_units
        return (x_bar, a_bar @ y_pts - row * x_pts
                + sign * (omc_bar @ y_units))

    return omc, s, pullback


def _stacked_q(omc, s, diag, m):
    """The clip (in place), q = (omc / s)^m and the diagonal fill of
    `_ks_q`, written out."""
    np.clip(omc.real, 0.0, 2.0, out=omc.real)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.divide(omc, s)
    if m == 2:
        q *= q
    np.copyto(q, diag[:, None], where=s == 0.0)
    return q


# ----------------------------------------------------------------------
# diagonal limits
# ----------------------------------------------------------------------

def _stretched_ico2():
    mesh = icosphere(2)
    return mesh.with_vertices(mesh.vertices * [1.0, 1.0, 1.2])


def _inverted_ellipsoid():
    # the inversion of acceptance criterion 9
    return apply_moebius(make_ellipsoid(1.0, 1.0, 1.2),
                         MoebiusMap("inversion", center=(3.0, 0.2, 0.1),
                                    radius=2.0))


SURFACES = {
    "sphere": lambda: make_sphere(),
    "ellipsoid": lambda: make_ellipsoid(1.0, 1.0, 1.2),
    "ellipsoid_inverted": _inverted_ellipsoid,
    "torus": lambda: make_torus(),
    "circle": lambda: make_circle(),
    "icosphere2_stretched": _stretched_ico2,
    "polygon64": lambda: polygon_circle(64),
    "torus_mesh": lambda: torus_mesh(12, 24),
}


def _sampled_locators(surface, count):
    nodes = surface.nodes(0.5)
    take = np.linspace(0, len(nodes.points) - 1, count).astype(int)
    return [nodes.locators[i] for i in take]


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_diag_limits_match_per_node_loop(name):
    surface = SURFACES[name]()
    locators = _sampled_locators(surface, 40)
    got = _closed_form_limits(surface, locators)
    h = 4e-3
    ref = np.array([_isotropic_limit(surface, loc, h) for loc in locators])
    _assert_isotropic(got, ref, h, rel=1e-6)


def test_torus_inner_equator_limit():
    # at theta = pi on the torus (2, 0.5): k1 = 1/0.5 = 2, k2 = -1/1.5, so
    # the limit is (k1 - k2)^2 / 16 = 4/9
    torus = make_torus()
    loc = (0, np.array([math.pi, 0.7]))
    got = _closed_form_limits(torus, [loc])[0]
    assert got == pytest.approx(4.0 / 9.0, rel=1e-14)
    assert _isotropic_limit(torus, loc, 4e-3) == pytest.approx(4.0 / 9.0,
                                                               rel=1e-7)


@settings(max_examples=15, deadline=None)
@given(st.tuples(*[st.floats(0.5, 2.0)] * 3))
def test_ellipsoid_limits_match_isotropic_probe(axes):
    surface = make_ellipsoid(*axes)
    locators = _sampled_locators(surface, 6)
    # steps scaled to the largest curvature, max(axes) / min(axes)^2
    h = 4e-3 * min(axes) ** 2 / max(axes)
    ref = np.array([_isotropic_limit(surface, loc, h) for loc in locators])
    # up to 8e-6 relative was seen at curvature 8
    _assert_isotropic(_closed_form_limits(surface, locators), ref, h,
                      rel=1e-4)


CHARTS = ["sphere", "ellipsoid", "ellipsoid_inverted", "torus", "circle",
          "two_spheres"]


@pytest.mark.parametrize("name", CHARTS)
def test_chart_curvatures_match_per_point_reference(name):
    if name == "two_spheres":
        surface = make_disjoint_union(
            make_sphere(), make_sphere(1.0, (3.0, 0.0, 0.0)))
    else:
        surface = SURFACES[name]()
    locators = _sampled_locators(surface, 60)
    tangent, normal, sff = surface.curvatures(locators)
    assert sff.shape == (len(locators), surface.m, surface.m,
                         surface.n - surface.m)
    for i, loc in enumerate(locators):
        ref_t, ref_n, ref_sff = _chart_curvature_reference(surface, loc)
        assert np.array_equal(tangent[i], ref_t)
        assert np.array_equal(normal[i], ref_n)
        assert np.max(np.abs(sff[i] - ref_sff)) <= 1e-14
        one = surface.curvatures([loc])[2][0]
        assert np.max(np.abs(one - sff[i])) <= 1e-14


def test_ks_energy_is_inversion_invariant_to_rounding():
    # the diagonal cells are exact, so the quadrature is all that differs
    e0 = ks_energy(make_ellipsoid(1.0, 1.0, 1.2)).value
    e1 = ks_energy(_inverted_ellipsoid()).value
    assert abs(e1 - e0) <= 1e-12 * abs(e0)


def test_ks_energy_takes_the_limit_on_coincident_nodes_only():
    # every pair of distinct nodes takes the kernel, however close; only
    # the diagonal cells take (D / 16)^2
    surface = make_ellipsoid(1.0, 1.0, 1.2)
    nodes = surface.nodes(0.5)
    tangent, normal, sff = surface.curvatures(nodes.locators)
    units = ks_unit_vectors(tangent, normal)
    omc, s, _ = _pair_kernel(nodes.points, units, nodes.points, units, 2)
    off = ~np.eye(len(s), dtype=bool)
    assert np.all(s[off] > 0.0)
    q = np.clip(omc, 0.0, 2.0) ** 2 / np.where(off, s, 1.0) ** 2
    q[~off] = (umbilicity_defect(sff) / 16.0) ** 2
    w = nodes.weights
    ref = math.fsum((w[:, None] * q * w[None, :]).ravel())
    assert ks_energy(surface).value == pytest.approx(ref, rel=1e-13)


def _stretched_ico3():
    mesh = icosphere(3)
    return mesh.with_vertices(mesh.vertices * [1.0, 1.0, 1.2])


KS_SUMS = {
    "ks_energy": lambda mesh: ks_energy(mesh),
    "ks_flow_energy": lambda mesh: ks_flow_energy(mesh),
    "energy_gradient": lambda mesh: energy_gradient(FlowState(mesh=mesh)),
    "ks_cross_energy": lambda _: ks_cross_energy(
        make_disk(1.0, z=0.0), make_disk(1.0, z=0.1)),
}


def _moved(surface, rotation, shift):
    return surface.transformed(
        lambda x: x @ rotation.T + shift,
        lambda x: np.broadcast_to(rotation, x.shape + (3,)), None)


def test_ks_energy_is_translation_invariant_far_from_the_origin():
    # every KS pass translates its points to a centre of the node set once,
    # so an offset of 1e3 costs no digits. On the raw coordinates the
    # energies drift 2.4e-12 relative here, the gradient 6.8e-11 of its
    # largest entry and the cross energy 4.9e-13.
    mesh = _stretched_ico3()
    far = mesh.with_vertices(mesh.vertices + [1e3, 300.0, 0.0])
    for energy in (lambda surface: ks_energy(surface).value, ks_flow_energy):
        e0 = energy(mesh)
        assert abs(energy(far) - e0) <= 5e-13 * e0
    # 2.1e-11 with centring: the vertex fit sets that level, not the pairs
    g0 = energy_gradient(FlowState(mesh=mesh))
    g1 = energy_gradient(FlowState(mesh=far))
    assert np.max(np.abs(g1 - g0)) <= 5e-11 * np.max(np.abs(g0))
    # tilted disks, so that every coordinate enters the products; rounding
    # the shifted points to eps 1e3 alone moves this energy 4e-14 relative
    t = 0.6
    tilt = np.array([[1.0, 0.0, 0.0], [0.0, math.cos(t), -math.sin(t)],
                     [0.0, math.sin(t), math.cos(t)]])
    disks = make_disk(1.0, z=0.0), make_disk(1.0, z=0.1)
    c0, c1 = (ks_cross_energy(*(_moved(d, tilt, shift) for d in disks))
              for shift in (np.zeros(3), np.full(3, 1e3)))
    assert abs(c1 - c0) <= 1e-13 * c0


# ----------------------------------------------------------------------
# triangle sums against the full square
# ----------------------------------------------------------------------

def _full_square_sum(points, units, m, diag, w):
    """sum_ij w_i w_j q_ij over every ordered pair, one math.fsum."""
    terms = []
    for lo in range(0, len(points), 64):
        hi = min(lo + 64, len(points))
        omc, s, _ = _pair_kernel(points[lo:hi], units[lo:hi], points,
                                   units, m)
        apart = s != 0.0
        q = np.clip(omc, 0.0, 2.0) ** m / np.where(apart, s, 1.0) ** m
        q = np.where(apart, q, diag[lo:hi, None])
        terms.append((w[lo:hi, None] * q * w).ravel())
    return math.fsum(np.concatenate(terms))


def _ks_energy_reference(surface, config):
    nodes = surface.nodes(config.inner_scale * 0.5)
    tangent, normal, sff = surface.curvatures(nodes.locators)
    diag = ((umbilicity_defect(sff) / 16.0) ** 2 if surface.m == 2
            else np.zeros(len(sff)))
    return _full_square_sum(nodes.points, ks_unit_vectors(tangent, normal),
                            surface.m, diag, nodes.weights)


def _flow_energy_reference(mesh):
    fwd = _ks_quadrature(mesh.vertices, mesh.topology)
    return _full_square_sum(mesh.vertices, fwd.units, mesh.m,
                            np.zeros(len(fwd.weights)), fwd.weights)


TRIANGLE_SURFACES = {
    # one block
    "polygon64_stretched": lambda: polygon_circle(64).with_vertices(
        polygon_circle(64).vertices * [1.0, 1.3]),
    "icosphere1_stretched": lambda: icosphere(1).with_vertices(
        icosphere(1).vertices * [1.0, 1.0, 1.2]),
    # many blocks, the last one partial
    "icosphere3_stretched": _stretched_ico3,
    "ellipsoid": lambda: make_ellipsoid(1.0, 1.0, 1.2),
}


@pytest.mark.parametrize("rows", [None, "N - 1"])
@pytest.mark.parametrize("name", sorted(TRIANGLE_SURFACES))
def test_triangle_sums_match_the_full_square(name, rows, monkeypatch):
    surface = TRIANGLE_SURFACES[name]()
    config = QuadratureConfig(inner_scale=0.5 if name == "ellipsoid"
                              else 1.0)
    if rows is not None:
        # a first block of N - 1 rows and a last block of one
        N = len(surface.nodes(config.inner_scale * 0.5).points)
        monkeypatch.setattr(rieszlab.moebius, "PAIR_BLOCK", N * (N - 1))
    ref = _ks_energy_reference(surface, config)
    assert abs(ks_energy(surface, config).value - ref) <= 1e-13 * ref
    if isinstance(surface, TriMesh):
        ref = _flow_energy_reference(surface)
        assert abs(ks_flow_energy(surface) - ref) <= 1e-13 * ref


def _triangle_inputs(surface):
    nodes = surface.nodes(0.5)
    tangent, normal, sff = surface.curvatures(nodes.locators)
    diag = ((umbilicity_defect(sff) / 16.0) ** 2 if surface.m == 2
            else np.zeros(len(sff)))
    return (nodes.points, ks_unit_vectors(tangent, normal), surface.m, diag,
            nodes.weights, surface.topology)


def _complex_step_inputs():
    points, units, m, diag, weights, _ = _triangle_inputs(
        make_ellipsoid(1.0, 1.0, 1.2))
    rng = np.random.default_rng(11)
    h = 1e-20
    return (points + 1j * h * rng.standard_normal(points.shape),
            units + 1j * h * rng.standard_normal(units.shape), m, diag,
            weights, None)


def _box_centred(points):
    return points - 0.5 * (points.real.min(axis=0) + points.real.max(axis=0))


def _triangle_rows_per_block(points, units, m, diag, weights, topology):
    """`ks_triangle_rows` with a `_stacked_kernel` call per block; also the
    number of blocks."""
    N = len(points)
    points = _box_centred(points)
    rows, lo, sep2, blocks = [], 0, math.inf, 0
    while lo < N:
        hi = min(N, lo + max(1, rieszlab.moebius.PAIR_BLOCK // (N - lo)))
        omc, s, _ = _stacked_kernel(points[lo:hi], units[lo:hi], points[lo:],
                                    units[lo:], m)
        q = _stacked_q(omc, s, diag[lo:hi], m)
        if topology is not None:
            sep2 = min(sep2, topology.nonneighbor_min(s, lo))
        k = hi - lo
        rows.append(q[:, :k] @ weights[lo:hi] + 2.0 * (q[:, k:] @ weights[hi:]))
        lo, blocks = hi, blocks + 1
    return np.concatenate(rows), sep2, blocks


PASS_INPUTS = {
    "icosphere3_stretched": lambda: _triangle_inputs(_stretched_ico3()),
    "ellipsoid": lambda: _triangle_inputs(make_ellipsoid(1.0, 1.0, 1.2)),
    "polygon64_stretched": lambda: _triangle_inputs(
        polygon_circle(64).with_vertices(polygon_circle(64).vertices
                                         * [1.0, 1.3])),
    "ellipsoid_complex_step": _complex_step_inputs,
}


@pytest.mark.parametrize("name,block", [
    (name, block) for name in sorted(PASS_INPUTS)
    for block in ("N (N - 1)", "7 N", "N / 2", None)
    # 64 nodes make one block at the default size
    if (name, block) != ("polygon64_stretched", None)])
def test_triangle_rows_have_the_bits_of_a_kernel_per_block(name, block,
                                                           monkeypatch):
    # one pass builds the row and column stacks once and reuses its block
    # buffers; each block must still give the rows and the separation of
    # the kernel that built everything per call
    points, units, m, diag, weights, topology = PASS_INPUTS[name]()
    N = len(points)
    if block is not None:
        # N / 2 makes blocks of one row, each longer than PAIR_BLOCK
        monkeypatch.setattr(rieszlab.moebius, "PAIR_BLOCK",
                            {"N (N - 1)": N * (N - 1), "7 N": 7 * N,
                             "N / 2": N // 2}[block])
    calls = []
    kernel = rieszlab.moebius._PairPass.kernel
    monkeypatch.setattr(rieszlab.moebius._PairPass, "kernel",
                        lambda *args: calls.append(args[1:]) or kernel(*args))
    rows, sep2 = ks_triangle_rows(points, units, m, diag, weights, topology)
    passed = len(calls)
    ref_rows, ref_sep2, blocks = _triangle_rows_per_block(
        points, units, m, diag, weights, topology)
    assert passed == blocks > 1
    assert rows.dtype == ref_rows.dtype
    assert np.array_equal(rows, ref_rows)
    assert sep2 == ref_sep2
    assert (topology is None) == math.isinf(sep2)


def _disks():
    return make_disk(1.0, z=0.0), make_disk(1.0, z=0.1)


def _cross_inputs():
    surface_a, surface_b = _disks()
    na, nb = surface_a.nodes(1.0), surface_b.nodes(1.0)
    return (na.points, ks_unit_vectors(*surface_a.curvatures(na.locators)[:2]),
            nb.points, ks_unit_vectors(*surface_b.curvatures(nb.locators)[:2]),
            2, np.zeros(len(na.points)))


def _gradient_inputs(mesh):
    units = _ks_quadrature(mesh.vertices, mesh.topology).units
    return (mesh.vertices, units, mesh.vertices, units, mesh.m,
            np.zeros(len(units)))


BLOCK_INPUTS = {
    "disks": _cross_inputs,
    "icosphere2_stretched": lambda: _gradient_inputs(_stretched_ico2()),
    "polygon64_stretched": lambda: _gradient_inputs(
        polygon_circle(64).with_vertices(polygon_circle(64).vertices
                                         * [1.0, 1.3])),
}


@pytest.mark.parametrize("name", sorted(BLOCK_INPUTS))
def test_pair_blocks_have_the_bits_of_the_stacked_kernel(name, monkeypatch):
    # every block is kept before any is used, and every pullback is called
    # after the last block: a block whose arrays a later block overwrote
    # would differ here
    x_pts, x_units, y_pts, y_units, m, diag = BLOCK_INPUTS[name]()
    monkeypatch.setattr(rieszlab.moebius, "PAIR_BLOCK", 7 * len(y_pts))
    blocks = list(ks_pair_blocks(x_pts, x_units, y_pts, y_units, m, diag))
    rng = np.random.default_rng(5)
    bars = [(rng.standard_normal(q.shape), rng.standard_normal(q.shape))
            for _, _, q, _, _, _ in blocks]
    grads = [pullback(*bar) for (*_, pullback), bar in zip(blocks, bars)]
    centre = 0.5 * (y_pts.min(axis=0) + y_pts.max(axis=0))
    x_pts, y_pts = x_pts - centre, y_pts - centre
    assert len(blocks) > 1 and blocks[-1][1] == len(x_pts)
    for (lo, hi, q, omc, s, _), bar, grad in zip(blocks, bars, grads):
        ref_omc, ref_s, ref_pullback = _stacked_kernel(
            x_pts[lo:hi], x_units[lo:hi], y_pts, y_units, m)
        ref_q = _stacked_q(ref_omc, ref_s, diag[lo:hi], m)
        assert np.array_equal(s, ref_s)
        assert np.array_equal(omc, ref_omc)
        assert np.array_equal(q, ref_q)
        for got, ref in zip(grad, ref_pullback(*bar)):
            assert np.array_equal(got, ref)


def _stacked_pair_blocks(x_pts, x_units, y_pts, y_units, m, diag, blocks):
    """`ks_pair_blocks` with a `_stacked_kernel` call per block; blocks
    gets one entry per block."""
    centre = 0.5 * (y_pts.min(axis=0) + y_pts.max(axis=0))
    x_pts, y_pts = x_pts - centre, y_pts - centre
    rows = max(1, rieszlab.moebius.PAIR_BLOCK // len(y_pts))
    for lo in range(0, len(x_pts), rows):
        hi = min(lo + rows, len(x_pts))
        omc, s, pullback = _stacked_kernel(x_pts[lo:hi], x_units[lo:hi],
                                           y_pts, y_units, m)
        blocks.append(lo)
        yield lo, hi, _stacked_q(omc, s, diag[lo:hi], m), omc, s, pullback


def test_blocked_gradient_and_cross_energy_have_the_bits_of_the_stacked_kernel(
        monkeypatch):
    mesh = _stretched_ico2()
    monkeypatch.setattr(rieszlab.moebius, "PAIR_BLOCK", 7 * len(mesh.vertices))
    grad = energy_gradient(FlowState(mesh=mesh))
    cross_energy = ks_cross_energy(*_disks())
    blocks = []
    for module in (rieszlab.flow, rieszlab.moebius):
        monkeypatch.setattr(module, "ks_pair_blocks",
                            lambda *args: _stacked_pair_blocks(*args, blocks))
    assert np.array_equal(grad, energy_gradient(FlowState(mesh=mesh)))
    gradient_blocks = len(blocks)
    assert cross_energy == ks_cross_energy(*_disks())
    assert gradient_blocks > 1 and len(blocks) - gradient_blocks > 1


# ----------------------------------------------------------------------
# the non-neighbour separation from the KS pass
# ----------------------------------------------------------------------

def _stretched_moved(mesh):
    rotation = np.linalg.qr(np.arange(9.0).reshape(3, 3) ** 2 + np.eye(3))[0]
    return mesh.with_vertices((mesh.vertices * [1.0, 1.3, 0.7]) @ rotation.T
                              + [0.3, -1.7, 2.2])


def _dumbbell():
    return mesh_disjoint_union(icosphere(2, 1.0, (-1.1, 0.0, 0.0)),
                               icosphere(2, 1.0, (1.1, 0.0, 0.0)))


SEPARATION_MESHES = {
    **{f"icosphere{k}": lambda k=k: icosphere(k) for k in range(4)},
    **{f"icosphere{k}_stretched_moved":
       lambda k=k: _stretched_moved(icosphere(k)) for k in range(4)},
    "torus": lambda: torus_mesh(24, 48),
    "polygon64": lambda: polygon_circle(64),
    "dumbbell": _dumbbell,
    "dumbbell_shifted": lambda: _dumbbell().translated([100.0, 100.0, 100.0]),
}


@pytest.mark.parametrize("rows", [None, "N - 1"])
@pytest.mark.parametrize("name", sorted(SEPARATION_MESHES))
def test_pass_separation_is_min_nonneighbor_distance(name, rows,
                                                     monkeypatch):
    # the pass reads s on centred points, min_nonneighbor_distance on the
    # vertices as given, in blocks of another height. Centring can move the
    # last bit of a difference: the stretched and moved icosphere(0) is 1
    # ulp apart, every other mesh here agrees bit for bit
    mesh = SEPARATION_MESHES[name]()
    nodes = mesh.nodes()
    if rows is not None:
        N = len(nodes.points)
        monkeypatch.setattr(rieszlab.moebius, "PAIR_BLOCK", N * (N - 1))
    tangent, normal, _ = mesh.curvatures(nodes.locators)
    sep2 = ks_triangle_rows(nodes.points, ks_unit_vectors(tangent, normal),
                            mesh.m, np.zeros(len(nodes.points)),
                            nodes.weights, mesh.topology)[1]
    ref = mesh.min_nonneighbor_distance()
    assert abs(math.sqrt(sep2) - ref) <= 4 * math.ulp(ref)


def test_only_mesh_ks_energy_masks_neighbours(monkeypatch):
    calls = {"nonneighbor_min": 0, "min_nonneighbor_distance": 0}

    def counted(name, orig):
        def wrapper(*args):
            calls[name] += 1
            return orig(*args)
        return wrapper

    monkeypatch.setattr(MeshTopology, "nonneighbor_min", counted(
        "nonneighbor_min", MeshTopology.nonneighbor_min))
    monkeypatch.setattr(TriMesh, "min_nonneighbor_distance", counted(
        "min_nonneighbor_distance", TriMesh.min_nonneighbor_distance))
    mesh = _stretched_ico3()
    ks_energy(make_ellipsoid(1.0, 1.0, 1.2))
    for name in ("ks_flow_energy", "energy_gradient", "ks_cross_energy"):
        KS_SUMS[name](mesh)
    assert calls == {"nonneighbor_min": 0, "min_nonneighbor_distance": 0}
    # the mesh's own KS pass measures the separation: no second pass
    ks_energy(mesh)
    assert calls["nonneighbor_min"] > 0
    assert calls["min_nonneighbor_distance"] == 0


def _warm_peak(ks_sum, mesh):
    """tracemalloc peak of a second call, after the mesh's cached fits and
    tables are built."""
    ks_sum(mesh)
    tracemalloc.start()
    try:
        ks_sum(mesh)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", sorted(KS_SUMS))
def test_ks_pair_sums_run_in_bounded_memory(name):
    # every KS double sum walks its pairs in blocks of at most PAIR_BLOCK,
    # so its peak does not grow with the node count (642 vertices here,
    # 768 nodes per disk)
    assert _warm_peak(KS_SUMS[name], _stretched_ico3()) <= 8 * 2 ** 20


def test_ks_energy_peak_memory():
    # one pass builds its stacks once and writes every block into four
    # buffers: one warm energy peaks at 0.79 MiB here, where fresh arrays
    # per block took 1.28 MiB and fresh temporaries in the kernel 2.16 MiB
    assert _warm_peak(KS_SUMS["ks_energy"], _stretched_ico3()) <= (
        1.0 * 2 ** 20)


def test_chart_ks_energy_peak_memory():
    # 1.14 MiB on the 1152 nodes of the ellipsoid, 1.54 MiB with fresh
    # stacks and arrays per block
    assert _warm_peak(ks_energy, make_ellipsoid(1.0, 1.0, 1.2)) <= (
        1.3 * 2 ** 20)


# ----------------------------------------------------------------------
# pair kernel
# ----------------------------------------------------------------------

def _frames(rng, N, n, m):
    q, _ = np.linalg.qr(rng.standard_normal((N, n, n)))
    return q[:, :, :m]


def _units(frames):
    """The kernel's unit vectors of oriented frames: the tangent of a curve,
    e_0 x e_1 on a surface in R^3."""
    if frames.shape[-1] == 1:
        return frames[..., 0]
    return cross(frames[..., 0], frames[..., 1])


@pytest.mark.parametrize("n,m", [(2, 1), (3, 1), (3, 2), (4, 1)])
def test_pair_kernel_matches_einsum_kernel(n, m):
    rng = np.random.default_rng(17 + n + m)
    x = rng.standard_normal((7, n))
    y = np.concatenate([rng.standard_normal((10, n)), x[:2]])  # two coincide
    fx, fy = _frames(rng, 7, n, m), _frames(rng, 12, n, m)
    omc, s, _ = _pair_kernel(x, _units(fx), y, _units(fy), m)
    ref_omc, ref_s = _einsum_kernel(x, fx, y, fy)
    assert omc.shape == s.shape == (7, 12)
    assert np.array_equal(s, ref_s)
    assert np.array_equal(s, _squared_distances(x, y))
    assert np.max(np.abs(omc - ref_omc)) <= 1e-14
    assert omc[0, 10] == omc[1, 11] == s[0, 10] == s[1, 11] == 0.0


def test_pair_kernel_rejects_codimension_two_surfaces():
    # a surface in R^4 has no unit normal, and the kernel reads nothing else
    x = np.random.default_rng(3).standard_normal((4, 4))
    with pytest.raises(UnsupportedInputError):
        _pair_kernel(x, x, x, x, 2)


@pytest.mark.parametrize("n,m", [(2, 1), (3, 2), (4, 1)])
def test_pair_kernel_complex_step_matches_einsum_kernel(n, m):
    rng = np.random.default_rng(5 + m)
    h = 1e-30
    x = rng.standard_normal((9, n)) + 1j * h * rng.standard_normal((9, n))
    fx = _frames(rng, 9, n, m) + 1j * h * rng.standard_normal((9, n, m))
    omc, s, _ = _pair_kernel(x, _units(fx), x, _units(fx), m)
    ref_omc, ref_s = _einsum_kernel(x, fx, x, fx)
    assert np.max(np.abs(omc.real - ref_omc.real)) <= 1e-14
    assert np.max(np.abs(s.real - ref_s.real)) <= 1e-14
    # the complex-step derivative is the same to rounding of the derivative
    scale = np.max(np.abs(ref_omc.imag / h))
    assert np.max(np.abs((omc.imag - ref_omc.imag) / h)) <= 1e-13 * scale
    assert np.max(np.abs((s.imag - ref_s.imag) / h)) <= 1e-13 * scale


@pytest.mark.parametrize("n,m", [(2, 1), (3, 1), (3, 2), (4, 1)])
def test_pair_kernel_pullback_matches_complex_step(n, m):
    rng = np.random.default_rng(23 + n + m)
    x = rng.standard_normal((5, n))
    y = np.concatenate([rng.standard_normal((8, n)), x[:2]])  # two coincide
    # any vectors: the row-side pullback needs no unit ones, and the kernel
    # is symmetric for them all
    ux = rng.standard_normal((5, n))
    uy = rng.standard_normal((10, n))
    omc_xy = _pair_kernel(x, ux, y, uy, m)[0]
    omc_yx = _pair_kernel(y, uy, x, ux, m)[0]
    assert np.max(np.abs(omc_xy - omc_yx.T)) <= 1e-14 * np.max(np.abs(omc_xy))
    omc_bar, s_bar = rng.standard_normal((2, 5, 10))
    x_bar, ux_bar = _pair_kernel(x, ux, y, uy, m)[2](omc_bar, s_bar)
    # coincident pairs contribute nothing, whatever their bars
    live = np.ones((5, 10))
    live[0, 8] = live[1, 9] = 0.0
    h = 1e-20

    def derivative(xz, uz):
        # row i reads only x[i] and ux[i]: one complex step per coordinate
        omc, s, _ = _pair_kernel(xz, uz, y, uy, m)
        return (live * (omc_bar * omc + s_bar * s)).sum(axis=1).imag / h

    scale = max(np.max(np.abs(x_bar)), np.max(np.abs(ux_bar)))
    for c in range(n):
        z = x.astype(complex)
        z[:, c] += 1j * h
        assert np.max(np.abs(x_bar[:, c] - derivative(z, ux))) <= 1e-13 * scale
        uz = ux.astype(complex)
        uz[:, c] += 1j * h
        assert np.max(np.abs(ux_bar[:, c] - derivative(x, uz))) <= (
            1e-13 * scale)
