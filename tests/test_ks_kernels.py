"""The batched KS kernels against the per-node loop and einsum kernel they
replaced (copied here as references)."""

import math

import numpy as np
import pytest

from rieszlab import (MoebiusMap, TriMesh, apply_moebius, graph_patch_at,
                      icosphere, make_circle, make_ellipsoid, make_sphere,
                      make_torus, polygon_circle, torus_mesh)
from rieszlab.errors import SingularPairError
from rieszlab.moebius import (_diag_limits, combined_angle_cos_frames,
                              ks_pair_kernel)


# ----------------------------------------------------------------------
# references: one node, one direction, one scale at a time
# ----------------------------------------------------------------------

def _loop_chart_probe(surface, scale):
    q = surface.quadrature(scale)

    def probe(i, e, scales):
        chart = surface.charts[q.chart_index[i]]
        step = e / np.linalg.norm(q.jacobians[i] @ e)
        for s in scales:
            u = q.params[i] + step * (q.spacing[i] * s)
            yield chart.value(u), chart.jacobian(u)

    return probe


def _loop_mesh_probe(mesh):
    spacing = mesh.nodes().spacing
    patches = [graph_patch_at(mesh, i, None, measure_bound=False)
               for i in range(mesh.num_vertices)]

    def probe(i, e, scales):
        p = patches[i]
        for s in scales:
            eta = (e * min(spacing[i], p.radius) * s)[None]
            yield (p.embed(eta)[0],
                   p.tangent + p.normal @ p.height_jacobian(eta)[0])

    return probe


def _loop_diag_limits(points, frames, probe, m):
    if m == 1:
        dirs = np.array([[1.0], [-1.0]])
    else:
        ang = np.linspace(0, math.pi, 4, endpoint=False)
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    limits = np.zeros(len(points))
    for i, (x0, tx) in enumerate(zip(points, frames)):
        vals = []
        for e in dirs:
            fs, ds = [], []
            for y, wy in probe(i, e, (0.5, 0.25, 0.125)):
                d = float(np.linalg.norm(y - x0))
                fs.append((1.0 - combined_angle_cos_frames(x0, tx, y, wy))
                          / d ** 2)
                ds.append(d)
            V = np.vander(np.array(ds), 3, increasing=True)
            vals.append(np.linalg.solve(V, np.array(fs))[0])
        limits[i] = float(np.mean(vals))
    return limits


def _einsum_kernel(x_pts, x_frames, y_pts, y_frames):
    m = x_frames.shape[-1]
    diff = y_pts[None, :, :] - x_pts[:, None, :]
    dist = np.sqrt(np.sum(diff * diff, axis=-1))
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
    return omc, dist


# ----------------------------------------------------------------------
# diagonal limits
# ----------------------------------------------------------------------

def _stretched_ico2():
    mesh = icosphere(2)
    return mesh.with_vertices(mesh.vertices * [1.0, 1.0, 1.2])


SURFACES = {
    "sphere": lambda: make_sphere(),
    "ellipsoid": lambda: make_ellipsoid(1.0, 1.0, 1.2),
    "ellipsoid_inverted": lambda: apply_moebius(
        make_ellipsoid(1.0, 1.0, 1.2),
        MoebiusMap("inversion", center=(3.0, 0.2, 0.1), radius=2.0)),
    "torus": lambda: make_torus(),
    "circle": lambda: make_circle(),
    "icosphere2_stretched": _stretched_ico2,
    "polygon64": lambda: polygon_circle(64),
    "torus_mesh": lambda: torus_mesh(12, 24),
}


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_diag_limits_match_per_node_loop(name):
    surface = SURFACES[name]()
    nodes, frames, probe = surface.tangent_nodes(0.5)
    if isinstance(surface, TriMesh):
        loop_probe = _loop_mesh_probe(surface)
    else:
        loop_probe = _loop_chart_probe(surface, 0.5)
    ref = _loop_diag_limits(nodes.points, frames, loop_probe, surface.m)
    got = _diag_limits(nodes.points, frames, probe, surface.m)
    assert got.shape == ref.shape
    # each limit extrapolates (1 - cos)/d^2, and 1 - cos carries a rounding
    # error of a few ulps: at the smallest step d that is eps/d^2 per node
    # (about 3 eps/d^2 was seen; on the round sphere it is all of the limit)
    dirs = np.eye(surface.m)[:1]
    d_min = np.linalg.norm(probe(dirs, (0.125,))[0][:, 0, 0] - nodes.points,
                           axis=-1)
    eps = np.finfo(float).eps
    assert np.all(np.abs(got - ref) <= 16 * eps / d_min ** 2 + 1e-12 * np.abs(ref))


def test_probe_is_batched_over_nodes_directions_and_scales():
    surface = make_ellipsoid(1.0, 1.0, 1.2)
    nodes, frames, probe = surface.tangent_nodes(0.5)
    dirs = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
    points, bases = probe(dirs, (0.5, 0.25))
    assert points.shape == (len(nodes.points), 3, 2, 3)
    assert bases.shape == (len(nodes.points), 3, 2, 3, 2)
    loop_probe = _loop_chart_probe(surface, 0.5)
    for i in (0, len(nodes.points) // 2, len(nodes.points) - 1):
        for k, e in enumerate(dirs):
            for j, (y, wy) in enumerate(loop_probe(i, e, (0.5, 0.25))):
                assert np.allclose(points[i, k, j], y, rtol=0, atol=1e-14)
                assert np.allclose(bases[i, k, j], wy, rtol=0, atol=1e-14)


def test_collapsed_probe_raises():
    surface = make_ellipsoid(1.0, 1.0, 1.2)
    nodes, frames, probe = surface.tangent_nodes(0.5)

    def collapsed(dirs, scales):
        points, bases = probe(dirs, scales)
        points[3, 1, 2] = nodes.points[3]
        return points, bases

    with pytest.raises(SingularPairError):
        _diag_limits(nodes.points, frames, collapsed, 2)


# ----------------------------------------------------------------------
# pair kernel
# ----------------------------------------------------------------------

def _frames(rng, N, n, m):
    q, _ = np.linalg.qr(rng.standard_normal((N, n, n)))
    return q[:, :, :m]


@pytest.mark.parametrize("n,m", [(2, 1), (3, 1), (3, 2)])
def test_pair_kernel_matches_einsum_kernel(n, m):
    rng = np.random.default_rng(17 + n + m)
    x = rng.standard_normal((7, n))
    y = np.concatenate([rng.standard_normal((10, n)), x[:2]])  # two coincide
    fx, fy = _frames(rng, 7, n, m), _frames(rng, 12, n, m)
    omc, dist = ks_pair_kernel(x, fx, y, fy)
    ref_omc, ref_dist = _einsum_kernel(x, fx, y, fy)
    assert omc.shape == dist.shape == (7, 12)
    assert np.array_equal(dist, ref_dist)
    assert np.max(np.abs(omc - ref_omc)) <= 1e-14
    assert omc[0, 10] == omc[1, 11] == dist[0, 10] == dist[1, 11] == 0.0


@pytest.mark.parametrize("n,m", [(2, 1), (3, 2)])
def test_pair_kernel_complex_step_matches_einsum_kernel(n, m):
    rng = np.random.default_rng(5 + m)
    h = 1e-30
    x = rng.standard_normal((9, n)) + 1j * h * rng.standard_normal((9, n))
    fx = _frames(rng, 9, n, m) + 1j * h * rng.standard_normal((9, n, m))
    omc, dist = ks_pair_kernel(x, fx, x, fx)
    ref_omc, ref_dist = _einsum_kernel(x, fx, x, fx)
    assert np.max(np.abs(omc.real - ref_omc.real)) <= 1e-14
    assert np.max(np.abs(dist.real - ref_dist.real)) <= 1e-14
    # the complex-step derivative is the same to rounding of the derivative
    scale = np.max(np.abs(ref_omc.imag / h))
    assert np.max(np.abs((omc.imag - ref_omc.imag) / h)) <= 1e-13 * scale
    assert np.max(np.abs((dist.imag - ref_dist.imag) / h)) <= 1e-13 * scale
