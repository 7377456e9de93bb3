"""The surface protocol: one gate, shared mesh topology, no class ladders."""

import ast
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rieszlab
from rieszlab import (MoebiusMap, PatchClassParams, apply_moebius,
                      as_energy, combined_angle_cos, default_patch_radius,
                      graph_patch_at, icosphere, ks_cross_energy, ks_energy,
                      make_circle, make_disjoint_union, make_sphere,
                      make_torus, mesh_disjoint_union,
                      moebius_invariance_check, polygon_circle, riesz_energy,
                      scaling_check, TriMesh, torus_mesh,
                      validate_patch_class)
from rieszlab.errors import TopologyError, UnsupportedInputError
from rieszlab.geometry import MeshTopology
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

ENTRY_POINTS = {
    "riesz_energy": lambda s: riesz_energy(s, -2.5),
    "ks_energy": lambda s: ks_energy(s),
    "as_energy": lambda s: as_energy(s, 0.0),
    "apply_moebius": lambda s: apply_moebius(
        s, MoebiusMap("inversion", center=(3.0, 0.0, 0.0))),
    "moebius_invariance_check": lambda s: moebius_invariance_check(
        s, MoebiusMap("similarity", scale=2.0)),
    "scaling_check": lambda s: scaling_check(s, 1.0, 2.0),
    "default_patch_radius": lambda s: default_patch_radius(s),
    "validate_patch_class": lambda s: validate_patch_class(
        s, PatchClassParams(0.1, 10.0, 100.0)),
    "graph_patch_at": lambda s: graph_patch_at(s, [0], 0.1),
    "combined_angle_cos": lambda s: combined_angle_cos(s, 0, 1),
    "ks_cross_energy": lambda s: ks_cross_energy(s, make_circle()),
}


class _Impostor:
    """Has a surface's attributes but does not implement the protocol."""

    m, n, closed, oriented = 2, 3, True, True
    vertices = np.zeros((4, 3))


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("obj", [_Impostor(), np.zeros((4, 3)), "sphere"],
                         ids=["impostor", "array", "string"])
def test_non_surface_is_unsupported(name, obj):
    with pytest.raises(UnsupportedInputError, match="unsupported surface"):
        ENTRY_POINTS[name](obj)


def test_with_vertices_shares_topology():
    mesh = icosphere(1)
    moved = mesh.with_vertices(mesh.vertices * 1.1)
    shifted = moved.translated([1.0, 0.0, 0.0])
    assert moved.topology is mesh.topology
    assert shifted.topology is mesh.topology
    assert moved.closed and moved.oriented
    with pytest.raises(ValueError):
        moved.faces[0, 0] = 1            # faces are shared and read-only


def test_with_vertices_still_checks_vertices():
    mesh = icosphere(1)
    bad = mesh.vertices.copy()
    bad[3, 1] = np.nan
    with pytest.raises(UnsupportedInputError, match="non-finite"):
        mesh.with_vertices(bad)
    flat = mesh.vertices.copy()
    a, _, c = mesh.faces[0]
    flat[c] = flat[a]                    # collapses face 0 onto an edge
    with pytest.raises(TopologyError, match="degenerate"):
        mesh.with_vertices(flat)


@pytest.mark.parametrize("w", [1e-7, 1e-8, 1e-9])
def test_thin_triangle_keeps_its_area(w):
    # a Gram determinant g11 g22 - g12^2 cancels here: 5.4% high at 1e-8,
    # and at 1e-9 the triangle was refused as degenerate
    mesh = TriMesh([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, w, 0.0]],
                   [[0, 1, 2]], 2)
    assert mesh.measures()[0] == pytest.approx(0.5 * w, rel=1e-12, abs=0.0)


def test_triangle_mesh_outside_r3_is_refused_at_construction():
    with pytest.raises(UnsupportedInputError, match="R\\^3"):
        TriMesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2]], 2)
    mesh = icosphere(0)
    with pytest.raises(UnsupportedInputError, match="R\\^3"):
        mesh.with_vertices(np.c_[mesh.vertices, np.zeros(12)])


@pytest.mark.parametrize("face", [[0, 1, -1], [0, 1, 5], [3, 1, 2]])
def test_face_ids_outside_the_vertices_are_refused(face):
    # a negative id used to wrap to the last vertex (measure 0.5) and an id
    # past the end escaped as an IndexError
    verts = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    with pytest.raises(UnsupportedInputError, match=r"face 1 .* \[0, 3\)"):
        TriMesh(verts, [[0, 1, 2], face], 2)
    with pytest.raises(UnsupportedInputError, match="face 0"):
        MeshTopology(np.array([face]), 2, 3)


def test_topology_matches_face_definitions():
    mesh = torus_mesh(6, 8)
    one = mesh.topology.rings(1)
    for v in (0, 7, 29):
        share = {int(u) for f in mesh.faces if v in f for u in f} - {v}
        assert list(one[v]) == sorted(share)
        two = set(share).union(*(set(one[u]) for u in share)) - {v}
        assert list(mesh.topology.rings(2)[v]) == sorted(two)
    both = mesh_disjoint_union(icosphere(0), icosphere(0).translated([5, 0, 0]))
    comp = both.topology.components
    assert len(set(comp[:12])) == 1 and len(set(comp[12:])) == 1
    assert comp[0] != comp[12]


def _union(*meshes):
    out = meshes[0]
    for mesh in meshes[1:]:
        out = mesh_disjoint_union(out, mesh)
    return out


def _permuted(mesh, seed):
    """The mesh with its vertex ids shuffled."""
    perm = np.random.default_rng(seed).permutation(mesh.num_vertices)
    verts = np.empty_like(mesh.vertices)
    verts[perm] = mesh.vertices
    return TriMesh(verts, perm[mesh.faces], mesh.m)


def _long_polygon(n):
    """A closed polygon of n vertices in R^3, ids shuffled: its graph
    diameter is n / 2, so labels that spread one edge per round take n / 2
    whole-array rounds."""
    th = 2 * math.pi * np.arange(n) / n
    ring = np.stack([np.cos(th), np.sin(th), np.zeros(n)], axis=-1)
    return _permuted(TriMesh(ring, np.c_[np.arange(n), np.roll(np.arange(n),
                                                               -1)], 1), 3)


@pytest.mark.parametrize("mesh", [
    icosphere(3), torus_mesh(6, 8), polygon_circle(9),
    _union(icosphere(1), icosphere(0).translated([3.0, 0.0, 0.0])),
    _union(icosphere(1), torus_mesh(6, 8).translated([0.0, 5.0, 0.0]),
           icosphere(0).translated([-3.0, 0.0, 0.0])),
    _union(polygon_circle(9), polygon_circle(5).translated([3.0, 0.0])),
    _union(polygon_circle(9), polygon_circle(5).translated([3.0, 0.0]),
           polygon_circle(7).translated([0.0, 3.0])),
    _permuted(_union(polygon_circle(9), polygon_circle(5).translated(
        [3.0, 0.0])), 1),
    _permuted(_union(icosphere(1), icosphere(0).translated([3.0, 0.0, 0.0])),
              2),
    _long_polygon(10 ** 5)],
    ids=["icosphere3", "torus", "polygon", "two_spheres",
         "three_surfaces", "two_polygons", "three_polygons",
         "interleaved_polygons", "interleaved_spheres", "long_polygon"])
def test_components_match_scipy(mesh):
    # values and order: each component numbered by its smallest vertex
    (indptr, indices), V = mesh.topology.adjacency, mesh.num_vertices
    graph = csr_matrix((np.ones(len(indices)), indices, indptr), shape=(V, V))
    count, ref = connected_components(graph, directed=False)
    comp = mesh.topology.components
    assert np.array_equal(comp, ref) and comp.max() + 1 == count


@pytest.mark.parametrize("m", [1, 2])
def test_vertex_in_no_face_is_refused(m):
    # it used to reach the energies, which failed on its zero weight and
    # frame: "invalid value encountered in divide" or a rank-deficient chart
    mesh = icosphere(1) if m == 2 else polygon_circle(9)
    stray = np.r_[mesh.vertices, 5.0 + mesh.vertices[:1]]
    with pytest.raises(TopologyError, match=f"vertex {mesh.num_vertices} is "
                       "in no face"):
        TriMesh(stray, mesh.faces, m)
    with pytest.raises(TopologyError, match="vertex 0 is in no face"):
        MeshTopology(mesh.faces[:, ::-1] + 1, m, mesh.num_vertices + 1)


def test_mesh_energies_load_no_scipy():
    # components are labelled with numpy, so no mesh energy, check, sweep,
    # model scan or CLI command imports scipy (about 33 MB resident)
    src = Path(rieszlab.__file__).resolve().parents[1]
    code = ("import sys, rieszlab\n"
            "from rieszlab import cli\n"
            "mesh = rieszlab.icosphere(2)\n"
            "mesh = mesh.with_vertices(mesh.vertices * [1.0, 1.0, 1.2])\n"
            "rieszlab.ks_energy(mesh)\n"
            "rieszlab.riesz_energy(mesh, -2.5)\n"
            "both = rieszlab.mesh_disjoint_union(\n"
            "    rieszlab.icosphere(1), rieszlab.icosphere(1, center=(3, 0, 0)))\n"
            "rieszlab.validate_patch_class(\n"
            "    both, rieszlab.PatchClassParams(0.1, 10.0, 100.0))\n"
            "rieszlab.moebius_invariance_check(\n"
            "    mesh, rieszlab.MoebiusMap('similarity', scale=2.0))\n"
            "rieszlab.two_body_sweep(2, -4.0, 1.0, [0.1, 0.01])\n"
            "rieszlab.tangent_model_scan(-2.0)\n"
            "rieszlab.cone_model_scan(-3.0)\n"
            "rieszlab.orthogonal_model_integral(-3.0, 1.0)\n"
            "code = cli.main(['energy', '--surface', 'icosphere', '--energy',\n"
            "                 'ks'])\n"
            "print(code, sorted(m for m in sys.modules\n"
            "                   if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={"PYTHONPATH": str(src)}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


@pytest.mark.parametrize("mesh", [torus_mesh(6, 8), polygon_circle(9)],
                         ids=["torus", "polygon"])
def test_face_and_vertex_sums_add_in_index_order(mesh):
    # each vertex adds its faces' values by increasing face id, each face
    # its corners' by increasing vertex id, from zero: the bits of the
    # sparse incidence products they replaced
    topology, rng = mesh.topology, np.random.default_rng(4)
    F, V = len(mesh.faces), mesh.num_vertices
    x = rng.standard_normal((F, 3)) * np.exp(rng.uniform(-20, 20, (F, 1)))
    y = rng.standard_normal((V, 3)) * np.exp(rng.uniform(-20, 20, (V, 1)))
    at_vertices, at_faces = np.zeros((V, 3)), np.zeros((F, 3))
    for f, face in enumerate(mesh.faces):
        for v in sorted(face):
            at_vertices[v] += x[f]
            at_faces[f] += y[v]
    assert topology.vertex_sums(x).tobytes() == at_vertices.tobytes()
    assert topology.face_sums(y).tobytes() == at_faces.tobytes()
    assert np.array_equal(topology.vertex_sums(x[:, 0]), at_vertices[:, 0])


def _closed_oriented_reference(faces):
    """Loop version of the topology check: directed-edge counts in a dict."""
    count = {}
    for f in faces:
        for a, b in ((f[0], f[1]), (f[1], f[2]), (f[2], f[0])):
            count[(a, b)] = count.get((a, b), 0) + 1
    closed = oriented = True
    for (a, b), cnt in count.items():
        rev = count.get((b, a), 0)
        oriented &= cnt <= 1 and rev <= 1
        closed &= cnt + rev == 2
    return closed and oriented, oriented


def _surface_meshes():
    ico = icosphere(1)
    flipped = ico.faces.copy()
    flipped[5] = flipped[5, ::-1]
    return [ico, TriMesh(ico.vertices, ico.faces[:-1], 2),
            TriMesh(ico.vertices, flipped, 2), torus_mesh(6, 8),
            mesh_disjoint_union(ico, ico.translated([3.0, 0.0, 0.0]))]


def test_topology_flags_match_loop_reference():
    for mesh in _surface_meshes():
        ref = _closed_oriented_reference(mesh.faces.tolist())
        assert (mesh.closed, mesh.oriented) == ref
    assert [(m.closed, m.oriented) for m in _surface_meshes()] == [
        (True, True), (False, True), (False, False), (True, True),
        (True, True)]
    line = TriMesh(polygon_circle(8).vertices[:4], [[0, 1], [1, 2], [2, 3]],
                   1)
    assert not line.closed and polygon_circle(8).closed


def test_vertex_nodes_match_loop_reference():
    for mesh in _surface_meshes() + [polygon_circle(9)]:
        w = np.zeros(mesh.num_vertices)
        for k, f in enumerate(mesh.faces):
            for i in f:
                w[i] += mesh.measures()[k] / (mesh.m + 1)
        assert np.array_equal(mesh.vertex_weights(), w)
        pts, wts = [], []
        for f, meas in zip(mesh.faces, mesh.measures()):
            tris = [mesh.vertices[f]]
            if mesh.m == 1:
                a, b = tris[0]
                pts += [a + t * (b - a) for t in (0.25, 0.75)]
                wts += [meas / 2] * 2
                continue
            for (a, b, c) in tris:
                ab, bc, ca = 0.5 * (a + b), 0.5 * (b + c), 0.5 * (c + a)
                kids = [(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)]
            pts += [(a + b + c) / 3.0 for (a, b, c) in kids]
            wts += [meas / 4] * 4
        nodes = mesh.nodes(subdiv=1)
        assert np.array_equal(nodes.points, np.array(pts))
        assert np.array_equal(nodes.weights, np.array(wts))


def _dumbbell():
    return mesh_disjoint_union(icosphere(2, 1.0, (-1.1, 0.0, 0.0)),
                               icosphere(2, 1.0, (1.1, 0.0, 0.0)))


@pytest.mark.parametrize("mesh", [icosphere(2), torus_mesh(), polygon_circle(64),
                                  _dumbbell()],
                         ids=["icosphere2", "torus", "polygon64", "dumbbell"])
def test_min_nonneighbor_distance_matches_brute_force(mesh):
    pts = mesh.vertices
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
    mask = ~np.eye(len(pts), dtype=bool)
    for f in mesh.faces:
        mask[np.ix_(f, f)] = False
    assert mesh.min_nonneighbor_distance() == float(np.sqrt(d2[mask].min()))


def test_min_nonneighbor_distance_without_non_neighbors():
    assert polygon_circle(3).min_nonneighbor_distance() == math.inf


def _isinstance_targets(path):
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            kinds = node.args[1]
            for k in kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]:
                names.add(ast.unparse(k))
    return names


@pytest.mark.parametrize("module", ["riesz.py", "moebius.py",
                                    "geometry/patches.py"])
def test_no_branch_on_surface_class(module):
    path = Path(rieszlab.__file__).parent / module
    targets = {t.rsplit(".", 1)[-1] for t in _isinstance_targets(path)}
    assert not targets & {"ChartSurface", "TriMesh"}, module


def _loop_local_scale(mesh):
    """Mean incident edge length per vertex, one vertex at a time."""
    out = np.zeros(mesh.num_vertices)
    for v, ns in enumerate(mesh.topology.rings(1)):
        if len(ns):
            d = np.linalg.norm(mesh.vertices[ns] - mesh.vertices[v], axis=-1)
            out[v] = float(np.mean(d))
    return out


@pytest.mark.parametrize("mesh", [icosphere(3), polygon_circle(64),
                                  _dumbbell()],
                         ids=["icosphere3", "polygon64", "dumbbell"])
def test_local_scale_matches_per_vertex_loop(mesh):
    np.testing.assert_allclose(mesh.local_scale(), _loop_local_scale(mesh),
                               rtol=1e-15, atol=0)


def test_local_scale_follows_with_vertices():
    mesh = icosphere(2)
    before = mesh.local_scale()
    moved = mesh.with_vertices(mesh.vertices * [1.0, 1.0, 1.3])
    assert np.array_equal(mesh.local_scale(), before)
    np.testing.assert_allclose(moved.local_scale(), _loop_local_scale(moved),
                               rtol=1e-15, atol=0)
    assert not np.allclose(moved.local_scale(), before)


def _listed_locators(surface, scale):
    """The locators of a chart rule as a list of (chart index, u) pairs,
    one row of each chart's parameter rule per pair"""
    return [(k, u) for k, chart in enumerate(surface.charts)
            for u in chart.param_rule(scale)[0]]


@pytest.mark.parametrize("surface", [
    make_sphere(), make_torus(1.0, 0.5),
    make_disjoint_union(make_sphere(), make_sphere(center=(3.0, 0.0, 0.0)))],
    ids=["sphere", "torus", "two-charts"])
def test_chart_locators_are_arrays_that_index_like_their_list(surface):
    rule = surface.nodes(0.25)
    locators, listed = rule.locators, _listed_locators(surface, 0.25)
    assert len(locators) == len(listed) == len(rule.points)
    for i in (0, 1, len(listed) // 2, -1):
        (k, u), (k_ref, u_ref) = locators[i], listed[i]
        assert type(k) is int and k == k_ref
        assert np.array_equal(u, u_ref)
        assert repr(locators[i]) == repr(listed[i])
        assert str(locators[i]) == repr(listed[i])
    part = locators[5:17]
    assert type(part) is type(locators) and len(part) == 12
    assert [repr(loc) for loc in part] == [repr(loc) for loc in listed[5:17]]
    assert [k for k, _ in locators] == [k for k, _ in listed]
    assert np.array_equal(np.array([u for _, u in locators]),
                          np.array([u for _, u in listed]))
    # the array form and the list form give the same bits
    for a, b in zip(surface.curvatures(locators), surface.curvatures(listed)):
        assert np.array_equal(a, b)
    radius = default_patch_radius(surface)
    stack, ref = (surface.patches_at(locs, radius)
                  for locs in (locators, listed))
    for field in ("base_point", "tangent", "normal", "radii", "fit_residual"):
        assert np.array_equal(getattr(stack, field), getattr(ref, field))
    node = np.arange(len(listed))
    v = np.tile([[0.6, 0.8]], (len(node), 1))
    t = 0.5 * radius * np.ones(len(node))
    for a, b in zip(stack.chord_solve(node, v, t), ref.chord_solve(node, v, t)):
        assert np.array_equal(a, b)
    eta = 0.3 * radius * v
    assert np.array_equal(stack.height(node, eta), ref.height(node, eta))


def test_mesh_locators_are_an_integer_array():
    mesh = icosphere(2)
    locators = mesh.nodes().locators
    assert isinstance(locators, np.ndarray) and locators.dtype.kind == "i"
    assert np.array_equal(locators, np.arange(mesh.num_vertices))
    assert str(locators[7]) == "7"
    for a, b in zip(mesh.curvatures(locators),
                    mesh.curvatures(list(range(mesh.num_vertices)))):
        assert np.array_equal(a, b)
    assert mesh.nodes(subdiv=1).locators is None
