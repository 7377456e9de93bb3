"""The batched, face-seeded quadratic vertex fits of meshes.

`_fit_one` is a one-vertex copy of the seeded fit (the same seed rule,
weights and columns, solved by `np.linalg.lstsq`, then the closed-form tilt
to the fitted graph's tangent plane) that the batched fit must reproduce.
"""

import numpy as np
import pytest

from rieszlab import (TriMesh, graph_patch_at, icosphere, ks_energy,
                      make_torus, mesh_disjoint_union, polygon_circle,
                      torus_mesh)
from rieszlab.geometry import orthonormal_frames


def _stretched(subdiv):
    mesh = icosphere(subdiv)
    return mesh.with_vertices(mesh.vertices * [1.0, 1.0, 1.2])


def _dumbbell():
    return mesh_disjoint_union(icosphere(2, 1.0, (-1.1, 0.0, 0.0)),
                               icosphere(2, 1.0, (1.1, 0.0, 0.0)))


MESHES = {
    "icosphere2_stretched": lambda: _stretched(2),
    "icosphere3_stretched": lambda: _stretched(3),
    "torus_mesh": lambda: torus_mesh(),
    "polygon64": lambda: polygon_circle(64),
    "dumbbell": _dumbbell,
}


def _seed(mesh, vertex, ring):
    """Seed tangent: m = 1, the mean unit winding direction of the edges;
    m = 2, the first 2-ring offset projected off the summed unit face
    normals, completed by normal x first tangent."""
    x = mesh.vertices
    faces = mesh.faces[np.any(mesh.faces == vertex, axis=1)]
    if mesh.m == 1:
        dirs = x[faces[:, 1]] - x[faces[:, 0]]
        dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
        return dirs.sum(axis=0)[:, None]
    p = x[faces]
    nrm = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    nrm = (nrm / np.linalg.norm(nrm, axis=-1, keepdims=True)).sum(axis=0)
    nrm /= np.linalg.norm(nrm)
    e = x[ring[0]] - x[vertex]
    e -= (e @ nrm) * nrm
    e /= np.linalg.norm(e)
    return np.stack([e, np.cross(nrm, e)], axis=-1)


def _seed_solve(base, points, seed):
    """Seed frames and the weighted lstsq fit h = lin eta + eta^T C eta / 2
    in them: (tangent, normal, lin (m, c), C (c, m, m), rms)."""
    d = points - base
    m = seed.shape[1]
    tangent, normal = orthonormal_frames(seed)
    dist = np.linalg.norm(d, axis=-1)
    w = np.exp(-(dist / np.mean(dist)) ** 2)
    quad_idx = [(i, j) for i in range(m) for j in range(i, m)]
    eta = d @ tangent
    cols = [eta[:, i] for i in range(m)]
    cols += [(0.5 if i == j else 1.0) * eta[:, i] * eta[:, j]
             for (i, j) in quad_idx]
    X = np.stack(cols, axis=-1) * w[:, None]
    Y = (d @ normal) * w[:, None]
    sol = np.linalg.lstsq(X, Y, rcond=None)[0]
    rms = np.sqrt(np.mean((X @ sol - Y) ** 2))
    C = np.zeros((normal.shape[1], m, m))
    for k, (i, j) in enumerate(quad_idx):
        C[:, i, j] = C[:, j, i] = sol[m + k]
    return tangent, normal, sol[:m], C, rms


def _fit_one(base, points, seed):
    """The seed-frame fit, then the fitted graph's tangent plane and second
    fundamental form at the vertex."""
    tangent, normal, lin, C, rms = _seed_solve(base, points, seed)
    tilted = tangent + normal @ lin.T
    tangent, new_normal = orthonormal_frames(tilted)
    L = np.linalg.inv(tangent.T @ tilted)
    coeffs = np.einsum("ia,dc,cij,jb->dab", L, new_normal.T @ normal, C, L)
    return tangent, new_normal, coeffs, rms


@pytest.mark.parametrize("name", sorted(MESHES))
def test_batched_fit_matches_per_vertex_fit(name):
    mesh = MESHES[name]()
    rings = mesh.topology.rings(2)
    stack = graph_patch_at(mesh, list(range(mesh.num_vertices)), None)
    for v in range(mesh.num_vertices):
        tangent, normal, coeffs, rms = _fit_one(
            mesh.vertices[v], mesh.vertices[rings[v]],
            _seed(mesh, v, rings[v]))
        np.testing.assert_allclose(stack.tangent[v], tangent, rtol=0,
                                   atol=1e-12)
        np.testing.assert_allclose(stack.normal[v], normal, rtol=0,
                                   atol=1e-12)
        scale = max(1.0, float(np.max(np.abs(coeffs))))
        np.testing.assert_allclose(mesh.curvatures([v])[2][0],
                                   np.moveaxis(coeffs, 0, -1), rtol=0,
                                   atol=1e-12 * scale)
        assert stack.fit_residual[v] == pytest.approx(rms, rel=1e-12,
                                                      abs=1e-15)


@pytest.mark.parametrize("name", ["icosphere2_stretched", "torus_mesh",
                                  "polygon64"])
def test_tilted_patch_is_the_fitted_graphs_jet(name):
    # points of the seed-frame quadric near the vertex, written in the
    # returned frame, have heights xi^T coeffs xi / 2 up to O(|xi|^3)
    mesh = MESHES[name]()
    if mesh.m == 1:
        mesh = mesh.with_vertices(mesh.vertices * [1.0, 1.3])
    rings = mesh.topology.rings(2)
    m = mesh.m
    dirs = np.array([[1.0], [-1.0]]) if m == 1 else np.stack(
        [np.cos(np.arange(6)), np.sin(np.arange(6))], axis=-1)
    for v in range(0, mesh.num_vertices, 7):
        tangent, normal, lin, C, _ = _seed_solve(
            mesh.vertices[v], mesh.vertices[rings[v]],
            _seed(mesh, v, rings[v]))
        stack = graph_patch_at(mesh, [v], None)
        node = np.zeros(len(dirs), dtype=int)
        ratios = []
        for eps in (1e-2, 5e-3, 2.5e-3):
            eta = eps * dirs
            h = eta @ lin + 0.5 * np.einsum("ki,cij,kj->kc", eta, C, eta)
            q = eta @ tangent.T + h @ normal.T
            xi = q @ stack.tangent[0]
            err = np.abs(q @ stack.normal[0] - stack.height(node, xi)).max()
            ratios.append(err / eps ** 3)
        assert max(ratios) <= 1.5 * min(ratios) + 1e-6, (v, ratios)


def test_coarse_torus_fit_normals_follow_the_faces():
    # the uncentred-SVD seed put the normal of the outer-equator vertices
    # of this mesh in the tangent plane
    mesh = torus_mesh(12, 24)
    # the sum of the unit normals of the faces at each vertex
    ref = mesh.topology.vertex_sums(mesh.face_normals())
    normals = mesh.curvatures(list(range(mesh.num_vertices)))[1][..., 0]
    for v in range(mesh.num_vertices):
        assert normals[v] @ ref[v] / np.linalg.norm(ref[v]) > 0.9, v


def test_coarse_torus_ks_near_chart_torus():
    mesh_value = ks_energy(torus_mesh(12, 24)).value
    chart_value = ks_energy(make_torus()).value
    assert abs(mesh_value - chart_value) <= 0.05 * chart_value


def test_moved_mesh_does_not_keep_its_parents_fit():
    mesh = icosphere(2)
    graph_patch_at(mesh, [0], None)
    moved = mesh.with_vertices(mesh.vertices * [1.0, 1.0, 1.2])
    fresh = TriMesh(moved.vertices.copy(), mesh.faces, 2)
    v = np.array([[1.0, 0.0], [0.6, 0.8]])
    t = np.array([0.05, 0.1])
    for vertex in range(mesh.num_vertices):
        a = graph_patch_at(moved, [vertex], 0.3)
        b = graph_patch_at(fresh, [vertex], 0.3)
        for key in ("base_point", "tangent", "normal", "radii",
                    "fit_residual"):
            assert np.array_equal(getattr(a, key), getattr(b, key)), key
        node = np.zeros(len(t), dtype=int)
        for x, y in zip(a.chord_solve(node, v, t), b.chord_solve(node, v, t)):
            assert np.array_equal(x, y)
        assert np.array_equal(a.derivative_bounds(), b.derivative_bounds())
        for x, y in zip(moved.curvatures([vertex]),
                        fresh.curvatures([vertex])):
            assert np.array_equal(x, y)
