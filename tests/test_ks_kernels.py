"""The KS diagonal limits against isotropic probing, the batched chart
curvatures against the per-point formula they replaced, the one-vector
pair kernel against the frame-based einsum kernel it replaced (references
copied here), the triangle sums against full-square sums, the blocked KS
pair passes and the pair gradient against the kernel and pullback that
built their stacks and arrays per call (also copied here), the gradient
against complex step, the buffers and peak memory of the blocked KS pair
sums, and the one pair pass that forms every squared distance: its bits,
its schedules and one pass per call."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rieszlab.flow
import rieszlab.quadrature
from rieszlab import (FlowState, MoebiusMap, QuadratureConfig, TriMesh,
                      UnsupportedInputError,
                      apply_moebius, energy_gradient, graph_patch_at,
                      icosphere, ks_cross_energy, ks_energy, ks_flow_energy,
                      make_circle, make_disjoint_union, make_disk,
                      make_ellipsoid, make_sphere, make_torus, polygon_circle,
                      torus_mesh)
from rieszlab.flow import _ks_quadrature
from rieszlab.geometry import mesh_disjoint_union, orthonormal_frames
from rieszlab.geometry.meshes import MeshTopology, face_vectors
from rieszlab.geometry.patches import cross, dot, umbilicity_defect
from rieszlab.moebius import (_PairPass, combined_angle_cos_frames,
                              ks_pair_gradient, ks_triangle_rows,
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


def _box_centred(points, box):
    """points translated to the middle of box's bounding box (of its real
    parts), as a KS pass translates them."""
    return points - 0.5 * (box.real.min(axis=0) + box.real.max(axis=0))


def _pair_kernel(x_pts, x_units, y_pts, y_units, m):
    """(1 - cos theta clipped to [0, 2], s) of every pair of rows of x and
    y, s on the points the pass centres (`_box_centred` by y): a
    `_PairPass` of one block over all pairs, its row multiple being Nx."""
    pair_pass = _PairPass(x_pts, x_units, y_pts, y_units, m, len(x_pts))
    (block,) = pair_pass.ks_blocks(np.zeros(len(x_pts)))
    return block[4], block[5]


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
    omc, s = _pair_kernel(nodes.points, units, nodes.points, units, 2)
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


def _stretched_polygon64():
    return polygon_circle(64).with_vertices(polygon_circle(64).vertices
                                            * [1.0, 1.3])


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
        omc, s = _pair_kernel(points[lo:hi], units[lo:hi], points, units, m)
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


def _forward(mesh):
    """The KS flow's forward of mesh's vertex array."""
    return _ks_quadrature(mesh.vertices, mesh.topology,
                          face_vectors(mesh.vertices, mesh.topology))


def _flow_energy_reference(mesh):
    fwd = _forward(mesh)
    return _full_square_sum(mesh.vertices, fwd.units, mesh.m,
                            np.zeros(len(fwd.weights)), fwd.weights)


TRIANGLE_SURFACES = {
    # one block
    "polygon64_stretched": _stretched_polygon64,
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
        monkeypatch.setattr(rieszlab.quadrature, "PAIR_BLOCK", N * (N - 1))
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


def _triangle_rows_per_block(points, units, m, diag, weights, topology):
    """`ks_triangle_rows` with a `_stacked_kernel` call per block; also the
    number of blocks."""
    N = len(points)
    points = _box_centred(points, points)
    rows, lo, sep2, blocks = [], 0, math.inf, 0
    while lo < N:
        hi = min(N, lo + max(1, rieszlab.quadrature.PAIR_BLOCK // (N - lo)))
        omc, s, _ = _stacked_kernel(points[lo:hi], units[lo:hi], points[lo:],
                                    units[lo:], m)
        q = _stacked_q(omc, s, diag[lo:hi], m)
        if topology is not None:
            sep2 = min(sep2, topology.nonneighbor_min(s, lo))
        k = hi - lo
        rows.append(q[:, :k] @ weights[lo:hi] + 2.0 * (q[:, k:] @ weights[hi:]))
        lo, blocks = hi, blocks + 1
    return np.concatenate(rows), sep2, blocks


def _count_yields(monkeypatch):
    """A list that gains each block's (lo, hi, col) as the KS passes'
    `ks_blocks` yield it."""
    yields, ks_blocks = [], _PairPass.ks_blocks

    def counted(self, diag):
        for block in ks_blocks(self, diag):
            yields.append(block[:3])
            yield block

    monkeypatch.setattr(_PairPass, "ks_blocks", counted)
    return yields


PASS_INPUTS = {
    "icosphere3_stretched": lambda: _triangle_inputs(_stretched_ico3()),
    "ellipsoid": lambda: _triangle_inputs(make_ellipsoid(1.0, 1.0, 1.2)),
    "polygon64_stretched": lambda: _triangle_inputs(_stretched_polygon64()),
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
        monkeypatch.setattr(rieszlab.quadrature, "PAIR_BLOCK",
                            {"N (N - 1)": N * (N - 1), "7 N": 7 * N,
                             "N / 2": N // 2}[block])
    yields = _count_yields(monkeypatch)
    rows, sep2 = ks_triangle_rows(points, units, m, diag, weights, topology)
    passed = len(yields)
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
    units = _forward(mesh).units
    return (mesh.vertices, units, mesh.vertices, units, mesh.m,
            np.zeros(len(units)))


BLOCK_INPUTS = {
    "disks": _cross_inputs,
    "icosphere2_stretched": lambda: _gradient_inputs(_stretched_ico2()),
    "polygon64_stretched": lambda: _gradient_inputs(_stretched_polygon64()),
}


@pytest.mark.parametrize("name", sorted(BLOCK_INPUTS))
def test_pair_blocks_have_the_bits_of_the_stacked_kernel(name, monkeypatch):
    # the blocks share one pass's buffers: each block is checked before the
    # next one overwrites them, on rows against every column and, where the
    # rows are the columns, on the triangle too
    x_pts, x_units, y_pts, y_units, m, diag = BLOCK_INPUTS[name]()
    monkeypatch.setattr(rieszlab.quadrature, "PAIR_BLOCK", 7 * len(y_pts))
    x_ref, y_ref = _box_centred(x_pts, y_pts), _box_centred(y_pts, y_pts)
    for multiple in (1, None) if x_pts is y_pts else (1,):
        his = [0]
        for lo, hi, col, q, omc, s, twice_inv_s in _PairPass(
                x_pts, x_units, y_pts, y_units, m, multiple).ks_blocks(diag):
            ref_omc, ref_s, _ = _stacked_kernel(
                x_ref[lo:hi], x_units[lo:hi], y_ref[col:], y_units[col:], m)
            ref_q = _stacked_q(ref_omc, ref_s, diag[lo:hi], m)
            assert lo == his[-1] and col == (lo if multiple is None else 0)
            assert np.array_equal(s, ref_s)
            assert np.array_equal(omc, ref_omc)
            assert np.array_equal(q, ref_q)
            assert np.array_equal(twice_inv_s, np.divide(
                2.0, ref_s, out=np.zeros(ref_s.shape), where=ref_s != 0.0))
            his.append(hi)
        assert len(his) > 2 and his[-1] == len(x_pts)


def _stacked_pair_gradient(points, units, weights, m):
    """`ks_pair_gradient` with a `_stacked_kernel` call and its pullback per
    block of rows: the pair loop of the flow's gradient before the pass
    held it."""
    x = _box_centred(points, points)
    N, rows = len(x), max(1, rieszlab.quadrature.PAIR_BLOCK // len(x))
    points_bar, units_bar = np.empty(x.shape), np.empty(units.shape)
    weights_bar = np.empty(N)
    for lo in range(0, N, rows):
        hi = min(lo + rows, N)
        omc, s, pullback = _stacked_kernel(x[lo:hi], units[lo:hi], x, units,
                                           m)
        q = _stacked_q(omc, s, np.zeros(hi - lo), m)
        mww = (2.0 * m) * weights[lo:hi, None] * weights
        with np.errstate(divide="ignore", invalid="ignore"):
            omc_bar = mww * omc ** (m - 1) / s ** m
            s_bar = -mww * q / s
        weights_bar[lo:hi] = 2.0 * (q @ weights)
        points_bar[lo:hi], units_bar[lo:hi] = pullback(omc_bar, s_bar)
    return points_bar, units_bar, weights_bar


def _stacked_cross_energy():
    """`ks_cross_energy` of `_disks` with a `_stacked_kernel` call per block
    of rows."""
    x_pts, x_units, y_pts, y_units, m, diag = _cross_inputs()
    wa, wb = (disk.nodes(1.0).weights for disk in _disks())
    x, y = _box_centred(x_pts, y_pts), _box_centred(y_pts, y_pts)
    rows, row = max(1, rieszlab.quadrature.PAIR_BLOCK // len(y)), 0.0
    for lo in range(0, len(x), rows):
        hi = min(lo + rows, len(x))
        omc, s, _ = _stacked_kernel(x[lo:hi], x_units[lo:hi], y, y_units, m)
        row = row + wa[lo:hi] @ _stacked_q(omc, s, diag[lo:hi], m)
    return float(row @ wb)


def test_blocked_gradient_and_cross_energy_have_the_bits_of_the_stacked_kernel(
        monkeypatch):
    # blocks of 7 rows on the meshes: the pair gradient, the flow's
    # gradient through it and the cross energy of the disks
    mesh = _stretched_ico2()
    monkeypatch.setattr(rieszlab.quadrature, "PAIR_BLOCK",
                        7 * len(mesh.vertices))
    yields = _count_yields(monkeypatch)
    for surface in (mesh, _stretched_polygon64()):
        fwd = _forward(surface)
        args = surface.vertices, fwd.units, fwd.weights, surface.m
        for got, ref in zip(ks_pair_gradient(*args),
                            _stacked_pair_gradient(*args)):
            assert got.dtype == ref.dtype and np.array_equal(got, ref)
    grad = energy_gradient(FlowState(mesh=mesh))
    gradient_blocks = len(yields)
    assert ks_cross_energy(*_disks()) == _stacked_cross_energy()
    assert gradient_blocks > 2 and len(yields) - gradient_blocks > 1
    monkeypatch.setattr(rieszlab.flow, "ks_pair_gradient",
                        _stacked_pair_gradient)
    assert np.array_equal(grad, energy_gradient(FlowState(mesh=mesh)))


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
    # the pass and min_nonneighbor_distance both read s on the vertices
    # centred on their bounding box's middle, so they agree bit for bit,
    # also in blocks of another height (rows set) and far from the origin
    mesh = SEPARATION_MESHES[name]()
    nodes = mesh.nodes()
    if rows is not None:
        N = len(nodes.points)
        monkeypatch.setattr(rieszlab.quadrature, "PAIR_BLOCK", N * (N - 1))
    tangent, normal, _ = mesh.curvatures(nodes.locators)
    sep2 = ks_triangle_rows(nodes.points, ks_unit_vectors(tangent, normal),
                            mesh.m, np.zeros(len(nodes.points)),
                            nodes.weights, mesh.topology)[1]
    assert math.sqrt(sep2) == mesh.min_nonneighbor_distance()


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
    for name in ("energy_gradient", "ks_cross_energy"):
        KS_SUMS[name](mesh)
    assert calls == {"nonneighbor_min": 0, "min_nonneighbor_distance": 0}
    # the mesh energies' own KS passes measure the separation (ks_energy's
    # refusal, the flow's trajectory): no second pass
    for name in ("ks_energy", "ks_flow_energy"):
        calls["nonneighbor_min"] = 0
        KS_SUMS[name](mesh)
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
    # buffers: one warm energy peaks at 0.78 MiB here, where fresh arrays
    # per block took 1.28 MiB and fresh temporaries in the kernel 2.16 MiB
    assert _warm_peak(KS_SUMS["ks_energy"], _stretched_ico3()) <= (
        1.0 * 2 ** 20)


def test_chart_ks_energy_peak_memory():
    # 1.14 MiB on the 1152 nodes of the ellipsoid, 1.54 MiB with fresh
    # stacks and arrays per block
    assert _warm_peak(ks_energy, make_ellipsoid(1.0, 1.0, 1.2)) <= (
        1.3 * 2 ** 20)


def test_ks_gradient_and_cross_energy_peak_memory():
    # the gradient pass keeps four buffers and forms a and b again per
    # block: 2.97 MiB from the handed-off forward here, 4.13 MiB with two
    # more buffers for them and a pullback closure per block; the cross
    # energy of two icosphere(3) 0.76 MiB, 1.04 MiB with those two buffers
    mesh = _stretched_ico3()
    energy_gradient(FlowState(mesh=mesh))
    ks_flow_energy(mesh)
    tracemalloc.start()
    try:
        energy_gradient(FlowState(mesh=mesh))
        assert tracemalloc.get_traced_memory()[1] <= 3.5 * 2 ** 20
    finally:
        tracemalloc.stop()
    pieces = icosphere(3), icosphere(3, 1.0, (2.5, 0.0, 0.0))
    assert _warm_peak(lambda _: ks_cross_energy(*pieces), None) <= (
        0.9 * 2 ** 20)


@pytest.mark.parametrize("name", sorted(KS_SUMS))
def test_every_ks_pass_allocates_four_buffers(name, monkeypatch):
    # d, s, 1 - cos and q on every schedule: the triangle of the energies,
    # rows against columns in the gradient and the cross energy
    passes = []
    init = _PairPass.__init__

    def recorded(self, *args):
        init(self, *args)
        passes.append(self)

    monkeypatch.setattr(_PairPass, "__init__", recorded)
    KS_SUMS[name](_stretched_ico3())
    assert [len(p.buffers) for p in passes] == [4]
    lo, _, col = passes[0].blocks[-1]
    assert lo > 0 and col == (0 if name in ("energy_gradient",
                                            "ks_cross_energy") else lo)


# ----------------------------------------------------------------------
# the pair pass
# ----------------------------------------------------------------------

def _pass_points(rng, N, n, offset, dtype):
    points = offset + rng.standard_normal((N, n))
    if dtype == complex:
        points = points + 1j * rng.standard_normal((N, n))
    return points


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("offset", [0.0, 1e3])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_pass_squared_distances_have_the_bits_of_dot(n, offset, dtype,
                                                     monkeypatch):
    # each difference is one exact product rounded once, so s is
    # dot(y - x, y - x) bit for bit, in either schedule, also ~1e3 from
    # the origin and on complex points (plain products, no conjugation)
    monkeypatch.setattr(rieszlab.quadrature, "PAIR_BLOCK", 300)
    rng = np.random.default_rng(n + int(offset))
    x = _pass_points(rng, 41, n, offset, dtype)
    y = np.concatenate([_pass_points(rng, 30, n, offset, dtype), x[:3]])
    blocks = 0
    for lo, hi, col, _, s in rieszlab.quadrature.PairPass(x, y, 4, 2, dtype):
        d = y[None, col:] - x[lo:hi, None]
        assert s.dtype == dtype and np.array_equal(s, dot(d, d))
        blocks += 1
    assert blocks > 1
    for lo, hi, col, _, s in rieszlab.quadrature.PairPass(x, x, None, 2,
                                                          dtype):
        d = x[None, col:] - x[lo:hi, None]
        assert np.array_equal(s, dot(d, d))


def _pairs_per_block(pair_pass, N):
    """Each block's unordered pairs {i, j} as a count per (min, max)."""
    seen = np.zeros((N, N), dtype=int)
    for lo, hi, col in pair_pass.blocks:
        block = np.zeros((N, N), dtype=bool)
        i, j = np.meshgrid(np.arange(lo, hi), np.arange(col, N),
                           indexing="ij")
        block[np.minimum(i, j), np.maximum(i, j)] = True
        seen += block
    return seen


@pytest.mark.parametrize("budget", [None, 200, "N / 2"])
@pytest.mark.parametrize("N", [1, 2, 3, 127, 128, 129])
def test_triangle_schedule_forms_each_pair_once(N, budget, monkeypatch):
    # "N / 2": the first blocks are single rows longer than the budget
    if budget is not None:
        monkeypatch.setattr(rieszlab.quadrature, "PAIR_BLOCK",
                            max(1, N // 2) if budget == "N / 2" else budget)
    limit = rieszlab.quadrature.PAIR_BLOCK
    points = np.random.default_rng(N).standard_normal((N, 3))
    pair_pass = rieszlab.quadrature.PairPass(points, points, None, 2, float)
    assert _pairs_per_block(pair_pass, N).tolist() == np.triu(
        np.ones((N, N), dtype=int)).tolist()
    his = [0]
    for lo, hi, col in pair_pass.blocks:
        assert lo == col == his[-1] < hi
        assert (hi - lo) * (N - col) <= limit or hi - lo == 1
        his.append(hi)
    assert his[-1] == N
    sizes = [(hi - lo) * (N - col) for lo, hi, col in pair_pass.blocks]
    assert all(len(b) == max(sizes) for b in pair_pass.buffers)
    if budget == "N / 2" and N > 1:
        assert max(sizes) == N > limit
    # the blocks' squared distances are the triangle of the full square
    full = _squared_distances(points, points)
    for lo, hi, col, _, s in pair_pass:
        assert np.array_equal(s, full[lo:hi, col:])


@pytest.mark.parametrize("name", sorted(KS_SUMS) + ["ks_energy_chart",
                                                    "min_nonneighbor"])
def test_each_pair_sum_builds_one_pass(name, monkeypatch):
    # a pass is built once per call and walks many blocks; none is built
    # per block
    mesh = _stretched_ico3()
    monkeypatch.setattr(rieszlab.quadrature, "PAIR_BLOCK", 4000)
    passes, blocks = [], []
    init = rieszlab.quadrature.PairPass.__init__
    iterate = rieszlab.quadrature.PairPass.__iter__

    def counted_init(self, *args):
        passes.append(type(self))
        init(self, *args)

    def counted_iter(self):
        for block in iterate(self):
            blocks.append(block[:3])
            yield block

    monkeypatch.setattr(rieszlab.quadrature.PairPass, "__init__",
                        counted_init)
    monkeypatch.setattr(rieszlab.quadrature.PairPass, "__iter__",
                        counted_iter)
    if name == "ks_energy_chart":
        ks_energy(make_ellipsoid(1.0, 1.0, 1.2))
    elif name == "min_nonneighbor":
        mesh.min_nonneighbor_distance()
    else:
        KS_SUMS[name](mesh)
    assert len(passes) == 1 and len(blocks) > 1


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
    omc, s = _pair_kernel(x, _units(fx), y, _units(fy), m)
    # s has the bits of the references on the points the pass centres
    x, y = _box_centred(x, y), _box_centred(y, y)
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
    omc, s = _pair_kernel(x, _units(fx), x, _units(fx), m)
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
    # any vectors: the pair gradient needs no unit ones, and the kernel is
    # symmetric for them all
    ux = rng.standard_normal((5, n))
    uy = rng.standard_normal((10, n))
    omc_xy = _pair_kernel(x, ux, y, uy, m)[0]
    omc_yx = _pair_kernel(y, uy, x, ux, m)[0]
    assert np.max(np.abs(omc_xy - omc_yx.T)) <= 1e-14 * np.max(np.abs(omc_xy))
    # the gradient of E = sum_ij w_i w_j q_ij against one complex step of
    # the triangle sum per point, vector and weight coordinate; each step
    # keeps the diagonal pairs coincident, and they contribute nothing
    w = rng.uniform(0.5, 1.5, len(y))
    inputs = [y, uy, w]
    bars = ks_pair_gradient(y, uy, w, m)
    h = 1e-20

    def derivative(k, index):
        z = [a.astype(complex) for a in inputs]
        z[k][index] += 1j * h
        rows = ks_triangle_rows(z[0], z[1], m, np.zeros(len(y)), z[2], None)[0]
        return (z[2] @ rows).imag / h

    scale = max(np.max(np.abs(bars[0])), np.max(np.abs(bars[1])))
    for k, bar in enumerate(bars):
        for index in np.ndindex(bar.shape):
            assert abs(bar[index] - derivative(k, index)) <= 1e-13 * (
                scale if k < 2 else np.max(np.abs(bar)))
