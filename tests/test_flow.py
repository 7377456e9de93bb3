import ast
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

import rieszlab
from rieszlab import flow
from rieszlab.geometry import meshes
from rieszlab.flow import (EnergySelector, FlowState, TrajectoryPoint,
                           _ks_quadrature, _ks_vertex_energy, _orientation_ok,
                           contact_monitor, energy_gradient, flow_step,
                           ks_flow_energy, run_flow, write_trajectory_csv)
from rieszlab.geometry import (TriMesh, icosphere, mesh_disjoint_union,
                               polygon_circle, read_off, torus_mesh, write_off)
from rieszlab.geometry.meshes import face_vectors
from rieszlab.geometry.patches import umbilicity_defect
from rieszlab.moebius import ks_energy
from rieszlab.riesz import QuadratureConfig


def _perturbed(mesh, scale=0.05, seed=42):
    rng = np.random.default_rng(seed)
    factors = 1.0 + scale * rng.standard_normal((mesh.num_vertices, 1))
    return mesh.with_vertices(mesh.vertices * factors)


def _perturbed_sphere(scale=0.05, seed=42, subdiv=1):
    return _perturbed(icosphere(subdiv), scale, seed)


def _ks_central_difference(mesh):
    # step 1e-5 x bounding-box diagonal, as for the Riesz and AS selectors
    h = 1e-5 * np.linalg.norm(np.ptp(mesh.vertices, axis=0))
    grad = np.empty_like(mesh.vertices)
    for i in range(mesh.num_vertices):
        for c in range(mesh.n):
            vp = mesh.vertices.copy()
            vp[i, c] += h
            vm = mesh.vertices.copy()
            vm[i, c] -= h
            grad[i, c] = (ks_flow_energy(mesh.with_vertices(vp))
                          - ks_flow_energy(mesh.with_vertices(vm))) / (2 * h)
    return grad


def _ks_complex_step(mesh, coords=None):
    """Complex-step derivatives of the flow's KS sum, exact to rounding:
    one complex energy per (vertex, axis) in coords (default: all)."""
    if coords is None:
        coords = np.ndindex(*mesh.vertices.shape)
    h = 1e-20
    out = {}
    for i, c in coords:
        z = mesh.vertices.astype(complex)
        z[i, c] += 1j * h
        out[i, c] = float(np.imag(_ks_vertex_energy(z, mesh.topology))) / h
    return out


def _ks_complex_step_gradient(mesh):
    grad = np.empty(mesh.vertices.shape)
    for ic, value in _ks_complex_step(mesh).items():
        grad[ic] = value
    return grad


def _trefoil(n=64):
    # the (2, 3) torus knot as a closed n-gon: a curve (m = 1) in R^3
    t = 2.0 * np.pi * np.arange(n) / n
    pts = np.stack([np.sin(t) + 2.0 * np.sin(2.0 * t),
                    np.cos(t) - 2.0 * np.cos(2.0 * t), -np.sin(3.0 * t)],
                   axis=-1)
    return TriMesh(pts, [(k, (k + 1) % n) for k in range(n)], 1)


def _stretched_icosphere2():
    return icosphere(2).with_vertices(icosphere(2).vertices * [1.0, 1.0, 1.2])


GRADIENT_MESHES = {
    "icosphere1": lambda: _perturbed_sphere(),
    "icosphere2_stretched": _stretched_icosphere2,
    "polygon32": lambda: _perturbed(polygon_circle(32)),
    "trefoil64": _trefoil,
    "dumbbell": lambda: _perturbed(mesh_disjoint_union(
        icosphere(1, 1.0, (-1.25, 0.0, 0.0)),
        icosphere(1, 1.0, (1.25, 0.0, 0.0)))),
}


@pytest.mark.parametrize("name", list(GRADIENT_MESHES))
def test_ks_gradient_matches_complex_step(name):
    mesh = GRADIENT_MESHES[name]()
    g = energy_gradient(FlowState(mesh=mesh))
    ref = _ks_complex_step_gradient(mesh)
    assert np.max(np.abs(g - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_ks_gradient_matches_complex_step_on_torus_mesh():
    # V = 1152: a full complex-step gradient is 3456 energies, so check the
    # largest entry and three random coordinates
    mesh = torus_mesh()
    g = energy_gradient(FlowState(mesh=mesh))
    rng = np.random.default_rng(5)
    coords = [np.unravel_index(np.argmax(np.abs(g)), g.shape)]
    coords += [(rng.integers(mesh.num_vertices), rng.integers(3))
               for _ in range(3)]
    for ic, value in _ks_complex_step(mesh, coords).items():
        assert abs(g[ic] - value) <= 1e-10 * np.max(np.abs(g))


@settings(max_examples=8, deadline=None)
@given(which=st.sampled_from(["icosphere1", "polygon24"]),
       radial=st.lists(st.floats(-0.1, 0.1), min_size=42, max_size=42))
@example(which="polygon24", radial=[0.0] * 42)
# one vertex moved by 1.2e-7: most pairs' 1 - cos rounds to <= 0 and is
# clipped, and the gradient must still see their derivatives
@example(which="polygon24",
         radial=[0.0] * 23 + [1.192092896e-07] + [0.0] * 18)
def test_ks_gradient_matches_complex_step_on_radial_perturbations(which,
                                                                   radial):
    mesh = icosphere(1) if which == "icosphere1" else polygon_circle(24)
    factors = 1.0 + np.array(radial[:mesh.num_vertices])[:, None]
    mesh = mesh.with_vertices(mesh.vertices * factors)
    g = energy_gradient(FlowState(mesh=mesh))
    ref = _ks_complex_step_gradient(mesh)
    # the gradient is O(a) for perturbations of size a, and rounding-level
    # (2e-14 on the round 24-gon) at a = 0: below a ~ 1e-3 the check is
    # absolute, 1e-13
    scale = max(np.max(np.abs(ref)), 1e-3)
    assert np.max(np.abs(g - ref)) <= 1e-10 * scale


@pytest.mark.parametrize("name", ["icosphere1", "polygon32", "trefoil64",
                                  "dumbbell"])
def test_ks_gradient_invariance_identities(name):
    # E is invariant under translation, scaling and rotation, so its
    # gradient has zero sum, zero radial moment and zero torque
    mesh = GRADIENT_MESHES[name]()
    x = mesh.vertices - mesh.vertices.mean(axis=0)
    g = energy_gradient(FlowState(mesh=mesh.with_vertices(x)))
    size = np.linalg.norm(g, axis=1)
    moment = np.linalg.norm(x, axis=1) * size
    assert np.linalg.norm(g.sum(axis=0)) <= 1e-10 * size.sum()
    assert abs(np.sum(x * g)) <= 1e-10 * moment.sum()
    if mesh.n == 2:
        torque = np.sum(x[:, 0] * g[:, 1] - x[:, 1] * g[:, 0])
    else:
        torque = np.linalg.norm(np.cross(x, g).sum(axis=0))
    assert abs(torque) <= 1e-10 * moment.sum()


def test_flow_step_reads_e0_from_the_trajectory(monkeypatch):
    calls = []
    evaluate = EnergySelector.evaluate

    def counted(self, mesh, config=None):
        calls.append(mesh)
        return evaluate(self, mesh, config)

    monkeypatch.setattr(EnergySelector, "evaluate", counted)
    state = run_flow(FlowState(mesh=_perturbed_sphere(), step_size=1e-2), 4)
    # every step taken at its first trial: one energy for the start and
    # one per accepted step, none for the step's own starting energy
    assert [p.step_size for p in state.trajectory[1:]] == [
        0.01, 0.02, 0.04, 0.08]
    assert len(calls) == 1 + 4
    # the same energies as steps that evaluate their starting energy
    ref = FlowState(mesh=_perturbed_sphere(), step_size=1e-2)
    energies = [ref.energy()]
    for _ in range(4):
        ref = flow_step(replace(ref, trajectory=[]))
        energies.append(ref.trajectory[-1].energy)
    assert [p.energy for p in state.trajectory] == energies
    assert np.array_equal(ref.mesh.vertices, state.mesh.vertices)


@pytest.mark.parametrize("mesh", [_perturbed_sphere(),
                                  _perturbed(polygon_circle(32))],
                         ids=["icosphere1", "polygon32"])
def test_flow_with_the_handoff_equals_the_flow_without_it(mesh,
                                                          monkeypatch):
    # each step's gradient and orientation check read the forward that the
    # accepted step's energy left; emptied, they rebuild it: same bits
    warm = run_flow(FlowState(mesh=mesh, step_size=1e-2), 4)
    gradient = flow.energy_gradient

    def cold(state):
        flow._handoff.clear()
        return gradient(state)

    monkeypatch.setattr(flow, "energy_gradient", cold)
    ref = run_flow(FlowState(mesh=mesh, step_size=1e-2), 4)
    assert warm.iteration == ref.iteration == 4
    assert [vars(p) for p in warm.trajectory] == [vars(p)
                                                  for p in ref.trajectory]
    assert warm.mesh.vertices.tobytes() == ref.mesh.vertices.tobytes()


def test_gradient_after_an_energy_elsewhere_is_the_cold_gradient():
    a = _perturbed_sphere(seed=1)
    b = a.with_vertices(_perturbed_sphere(seed=2).vertices)
    flow._handoff.clear()
    cold = energy_gradient(FlowState(mesh=b))
    ks_flow_energy(a)
    assert energy_gradient(FlowState(mesh=b)).tobytes() == cold.tobytes()
    # the handed-off forward is a's, and serves a's gradient
    warm = energy_gradient(FlowState(mesh=a))
    flow._handoff.clear()
    assert warm.tobytes() == energy_gradient(FlowState(mesh=a)).tobytes()


def test_handoff_is_not_served_after_an_edit_in_place():
    # with_vertices may alias the caller's array, so an edit of it after
    # the energy changes the mesh: the gradient must see the new vertices
    vertices = _perturbed_sphere().vertices.copy()
    mesh = icosphere(1).with_vertices(vertices)
    assert mesh.vertices is vertices
    ks_flow_energy(mesh)
    vertices[3] *= 1.01
    got = energy_gradient(FlowState(mesh=mesh))
    flow._handoff.clear()
    assert got.tobytes() == energy_gradient(FlowState(mesh=mesh)).tobytes()


def test_handoff_holds_at_most_one_forward():
    run_flow(FlowState(mesh=_perturbed_sphere(), step_size=1e-2), 3)
    assert len(flow._handoff) == 1
    for seed in range(3):
        ks_flow_energy(_perturbed(polygon_circle(16), seed=seed))
        assert len(flow._handoff) == 1
    # gradients and complex-step energies read it and never fill it
    (entry,) = flow._handoff.values()
    mesh = _perturbed_sphere(seed=5)
    energy_gradient(FlowState(mesh=mesh))
    _ks_complex_step(mesh, [(0, 0)])
    assert list(flow._handoff.values()) == [entry]


def test_monitor_reads_the_recorded_energy(monkeypatch):
    state = run_flow(FlowState(mesh=_perturbed_sphere(), step_size=1e-2), 3)
    calls = []
    evaluate = EnergySelector.evaluate

    def counted(self, mesh, config=None):
        calls.append(mesh)
        return evaluate(self, mesh, config)

    monkeypatch.setattr(EnergySelector, "evaluate", counted)
    report = contact_monitor(state)
    assert calls == []
    assert report.energy == state.trajectory[-1].energy
    assert report.energy == ks_flow_energy(state.mesh)
    # a trajectory that ends at another iteration is not the mesh's energy
    moved = replace(state, iteration=state.iteration + 1)
    assert contact_monitor(moved).energy == ks_flow_energy(state.mesh)
    assert len(calls) == 1


def _counted(monkeypatch, calls, owner, name, count_as=None):
    """Wrap owner.name so that each call adds one to calls[count_as or
    name]; returns the calls' results too, in calls[(count_as or name,
    'results')]."""
    orig, key = getattr(owner, name), count_as or name

    def wrapper(*args):
        calls[key] = calls.get(key, 0) + 1
        out = orig(*args)
        calls.setdefault((key, "results"), []).append(out)
        return out
    monkeypatch.setattr(owner, name, wrapper)


@pytest.mark.parametrize("mesh", [_perturbed_sphere(),
                                  _perturbed(polygon_circle(32))],
                         ids=["icosphere1", "polygon32"])
def test_each_ks_candidate_takes_its_face_vectors_once(mesh, monkeypatch):
    # the candidate's face vectors serve its orientation check, its mesh's
    # degeneracy check and its energy's forward; the step records the
    # separation that the energy's pair pass measured
    state = run_flow(FlowState(mesh=mesh, step_size=0.5), 0)
    calls = {}
    _counted(monkeypatch, calls, flow, "face_vectors")
    _counted(monkeypatch, calls, meshes, "face_vectors")
    _counted(monkeypatch, calls, flow, "_orientation_ok", "candidates")
    _counted(monkeypatch, calls, TriMesh, "min_nonneighbor_distance")
    tried = []
    for _ in range(3):
        calls.clear()
        state = flow_step(state)
        assert not state.stationary
        assert calls["face_vectors"] == calls["candidates"]
        assert "min_nonneighbor_distance" not in calls
        tried.append(calls["candidates"])
    # some step halved: rejected candidates count too
    assert max(tried) > 1
    monkeypatch.undo()
    assert (state.trajectory[-1].min_distance
            == state.mesh.min_nonneighbor_distance())


def test_flipped_or_zeroed_candidates_are_halved(monkeypatch):
    # an octagon on exact coordinates, and a descent direction that moves
    # vertex 0 by twice, then exactly once, the edge to vertex 1: the first
    # candidate flips that edge and the second zeroes it. Both are halved
    # by the orientation check before any mesh is built on them
    v = np.array([(3, 1), (1, 3), (-1, 3), (-3, 1), (-3, -1), (-1, -3),
                  (1, -3), (3, -1)], dtype=float)
    octagon = TriMesh(v, [(k, (k + 1) % 8) for k in range(8)], 1)
    direction = np.zeros_like(v)
    direction[0] = v[0] - v[1]
    monkeypatch.setattr(flow, "energy_gradient", lambda state: direction)
    calls = {}
    _counted(monkeypatch, calls, flow, "_orientation_ok", "candidates")
    state = flow_step(FlowState(mesh=octagon, step_size=2.0))
    assert calls["candidates", "results"][:3] == [False, False, True]
    assert state.stationary or state.trajectory[-1].step_size <= 0.5


@pytest.mark.parametrize("mesh", [
    mesh_disjoint_union(icosphere(2, 1.0, (-1.1, 0.0, 0.0)),
                        icosphere(2, 1.0, (1.1, 0.0, 0.0))),
    icosphere(1).with_vertices(icosphere(1).vertices * [1.0, 1.0, 1.3])
    .translated([0.3, -0.7, 0.11]),
], ids=["dumbbell", "icosphere1_stretched_moved"])
def test_monitor_reads_the_recorded_separation(mesh, monkeypatch):
    # every point's separation, the start's too, is its mesh's bit for bit,
    # and the monitor reads the last one: no pair pass of its own
    state = run_flow(FlowState(mesh=mesh, step_size=1e-2), 0)
    states = [state]
    for _ in range(3):
        states.append(flow_step(states[-1]))
    state = states[-1]
    assert state.iteration == 3
    for s in states:
        assert s.trajectory[-1].min_distance == s.mesh.min_nonneighbor_distance()
    calls = {}
    _counted(monkeypatch, calls, TriMesh, "min_nonneighbor_distance")
    report = contact_monitor(state)
    assert calls == {}
    monkeypatch.undo()
    assert report.min_distance == state.mesh.min_nonneighbor_distance()


def test_ks_flow_loads_no_scipy_beyond_sparse():
    # the flow's mesh tables, face sums and contact distance are numpy, so
    # scipy stays out: scipy.sparse alone adds about 20 MB resident, and
    # scipy.spatial (with scipy.linalg and scipy.special) 16 MB more
    src = Path(rieszlab.__file__).resolve().parents[1]
    code = ("import sys, rieszlab\n"
            "mesh = rieszlab.icosphere(1)\n"
            "mesh = mesh.with_vertices(mesh.vertices * [1.0, 1.0, 1.1])\n"
            "state = rieszlab.run_flow(rieszlab.FlowState(mesh=mesh), 2)\n"
            "rieszlab.contact_monitor(state)\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={"PYTHONPATH": str(src)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = ast.literal_eval(proc.stdout)
    assert loaded == []


def test_ks_flow_energy_round_sphere_is_minimal():
    assert ks_flow_energy(icosphere(1)) < 1e-12
    assert ks_flow_energy(_perturbed_sphere()) > 1e-3


@pytest.mark.parametrize("mesh", [
    icosphere(2).with_vertices(icosphere(2).vertices * [1.0, 1.0, 1.2]),
    torus_mesh(),
    _perturbed(polygon_circle(64)),
    mesh_disjoint_union(icosphere(2, 1.0, (-1.1, 0.0, 0.0)),
                        icosphere(2, 1.0, (1.1, 0.0, 0.0))),
], ids=["icosphere2_stretched", "torus_mesh", "polygon64_perturbed",
        "dumbbell"])
def test_flow_energy_is_ks_energy_without_diagonal(mesh):
    # the flow reads ks_energy's frames and weights and drops only the
    # diagonal cells w_i^2 lim_i^m, lim_i = D_i / 16 on surfaces, 0 on curves
    nodes = mesh.nodes()
    sff = mesh.curvatures(nodes.locators)[2]
    limits = (umbilicity_defect(sff) / 16.0 if mesh.m == 2
              else np.zeros(len(sff)))
    diagonal = float(np.sum(nodes.weights ** 2 * limits ** mesh.m))
    assert ks_flow_energy(mesh) + diagonal == pytest.approx(
        ks_energy(mesh).value, rel=1e-12)
    # the lumped weights are the same bits on both sides
    faces = face_vectors(mesh.vertices, mesh.topology)
    assert np.array_equal(nodes.weights, _ks_quadrature(
        mesh.vertices, mesh.topology, faces).weights)


def test_gradient_near_minimizer():
    g_round = energy_gradient(FlowState(mesh=icosphere(1)))
    g_pert = energy_gradient(FlowState(mesh=_perturbed_sphere()))
    assert np.linalg.norm(g_round) < 1e-4 * np.linalg.norm(g_pert)


def test_gradient_translation_invariance():
    g = energy_gradient(FlowState(mesh=_perturbed_sphere()))
    assert np.linalg.norm(g.sum(axis=0)) < 1e-6 * np.linalg.norm(g)


def test_gradient_translation_invariance_riesz_polygon():
    poly = polygon_circle(24)
    rng = np.random.default_rng(0)
    poly = poly.with_vertices(
        poly.vertices * (1 + 0.05 * rng.standard_normal((24, 1))))
    sel = EnergySelector("riesz", alpha=1.0)
    state = FlowState(mesh=poly, selector=sel,
                      config=QuadratureConfig())
    g = energy_gradient(state)
    assert np.linalg.norm(g.sum(axis=0)) < 1e-5 * np.linalg.norm(g)


def test_fd_vs_exact_gradient():
    mesh = _perturbed_sphere()
    g_fd = _ks_central_difference(mesh)
    g_ex = energy_gradient(FlowState(mesh=mesh))
    rel = np.max(np.abs(g_fd - g_ex)) / np.max(np.abs(g_ex))
    assert rel < 1e-3


@pytest.mark.parametrize("mesh", [
    polygon_circle(32),
    mesh_disjoint_union(icosphere(1, 1.0, (-1.25, 0.0, 0.0)),
                        icosphere(1, 1.0, (1.25, 0.0, 0.0))),
], ids=["polygon", "dumbbell"])
def test_ks_gradient_matches_central_difference(mesh):
    # the curve (m = 1) and a two-component surface
    mesh = _perturbed(mesh)
    g_fd = _ks_central_difference(mesh)
    g_ex = energy_gradient(FlowState(mesh=mesh))
    assert np.max(np.abs(g_fd - g_ex)) < 1e-6 * np.max(np.abs(g_ex))


def test_flow_halves_perturbed_sphere_energy():
    state = FlowState(mesh=_perturbed_sphere(), step_size=1e-2)
    state = run_flow(state, 50)
    e0 = state.trajectory[0].energy
    e1 = state.trajectory[-1].energy
    assert e1 < 0.5 * e0


def test_flow_strict_monotone_descent():
    state = FlowState(mesh=_perturbed_sphere(seed=3), step_size=1e-2)
    state = run_flow(state, 12)
    energies = [p.energy for p in state.trajectory]
    assert all(b < a for a, b in zip(energies, energies[1:]))


def test_flow_stationary_at_round_sphere():
    state = FlowState(mesh=icosphere(1), step_size=1e-2)
    state = flow_step(state)
    assert state.stationary


def test_orientation_check_rejects_one_inverted_simplex():
    # a curve step that reverses edge (0, 1) alone, and a surface step that
    # reflects one face's corner through the midpoint of its opposite edge
    poly = polygon_circle(16)
    p = poly.vertices.copy()
    p[1] = p[0] - 0.5 * (p[1] - p[0])
    ico = icosphere(1)
    a, b, c = ico.faces[0]
    v = ico.vertices.copy()
    v[a] = v[b] + v[c] - v[a]
    for mesh, step in ((poly, p), (ico, v)):
        f_old = face_vectors(mesh.vertices, mesh.topology)
        assert _orientation_ok(f_old, face_vectors(1.01 * mesh.vertices,
                                                   mesh.topology))
        assert not _orientation_ok(f_old, face_vectors(step, mesh.topology))


def test_flow_rotation_equivariance():
    R = Rotation.from_rotvec([0.3, -0.2, 0.5]).as_matrix()
    pert = _perturbed_sphere(seed=7)
    s1 = run_flow(FlowState(mesh=pert, step_size=1e-2), 5)
    s2 = run_flow(FlowState(mesh=pert.with_vertices(pert.vertices @ R.T),
                            step_size=1e-2), 5)
    dev = np.max(np.abs(s1.mesh.vertices @ R.T - s2.mesh.vertices))
    assert dev < 5 * 1e-8   # 1e-8 per accepted step


def test_contact_monitor_dumbbell_energy_increases():
    # driving two spheres together raises E_{-4} strictly at each halving
    cfg = QuadratureConfig()
    sel = EnergySelector("riesz", alpha=-4.0)
    energies = []
    dists = []
    for gap in (0.8, 0.4, 0.2, 0.1):
        a = icosphere(1, 1.0, (-(1.0 + gap / 2), 0.0, 0.0))
        b = icosphere(1, 1.0, (1.0 + gap / 2, 0.0, 0.0))
        mesh = mesh_disjoint_union(a, b)
        state = FlowState(mesh=mesh, selector=sel, config=cfg)
        report = contact_monitor(state)
        energies.append(report.energy)
        dists.append(report.min_distance)
    assert all(d1 > d2 for d1, d2 in zip(dists, dists[1:]))
    assert all(e1 < e2 for e1, e2 in zip(energies, energies[1:]))


def test_contact_monitor_ceiling_flag():
    sel = EnergySelector("riesz", alpha=-4.0)
    cfg = QuadratureConfig()
    trajectory = []
    base = None
    state = None
    for k, gap in enumerate((0.4, 0.1, 0.02)):
        a = icosphere(1, 1.0, (-(1.0 + gap / 2), 0.0, 0.0))
        b = icosphere(1, 1.0, (1.0 + gap / 2, 0.0, 0.0))
        mesh = mesh_disjoint_union(a, b)
        state = FlowState(mesh=mesh, selector=sel, config=cfg,
                          trajectory=trajectory)
        energy = state.energy()
        if base is None:
            base = energy
        trajectory.append(TrajectoryPoint(k, energy, 0.0,
                                          mesh.min_nonneighbor_distance()))
    report = contact_monitor(state, ceiling=base + 1.0)
    assert report.closing_in
    assert report.ceiling_exceeded


def test_static_monitor_constant():
    mesh = icosphere(1)
    state = FlowState(mesh=mesh)
    r1 = contact_monitor(state)
    r2 = contact_monitor(state)
    assert r1.min_distance == r2.min_distance
    assert r1.energy == r2.energy
    assert not r1.closing_in


def test_trajectory_csv_and_mesh_roundtrip(tmp_path):
    state = run_flow(FlowState(mesh=_perturbed_sphere(), step_size=1e-2), 3)
    csv_path = tmp_path / "traj.csv"
    write_trajectory_csv(state, csv_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "iteration,energy,step_size,min_distance"
    assert len(lines) == len(state.trajectory) + 1
    off_path = tmp_path / "final.off"
    write_off(state.mesh, off_path)
    back = read_off(off_path)
    assert ks_flow_energy(back) == pytest.approx(ks_flow_energy(state.mesh),
                                                 abs=1e-12)


def test_selector_validation():
    with pytest.raises(Exception):
        EnergySelector("riesz")
    with pytest.raises(Exception):
        EnergySelector("bogus")
