"""Gradient descent of mesh embeddings with contact monitoring.

The flow's discrete Kusner-Sullivan energy is `ks_energy`'s vertex
quadrature without its diagonal cells: the same vertex fit frames (face
seed, one normal-equation solve, closed-form tilt), lumped weights (the
same bits, from `face_sizes`) and pair kernel, read from the mesh's shared
topology. Its gradient is reverse mode written by hand: one pass backwards
through the pair sum (O(V^2), in blocks of rows), the weights,
Gram-Schmidt, the tilt, the normal
equations (one transposed solve per vertex) and the face seed (O(V ring)),
each stage's adjoint beside its forward. Every forward step stays
complex-analytic, so complex step checks the adjoint to rounding.
Riesz and Auckly-Sadun selectors differentiate by central differences:
two energies per coordinate, O(V^3), meant for V up to about 100.

One forward per vertex array. `_ks_quadrature` builds everything the
energy reads of a vertex array (`_KSForward`): the face vectors once, the
seed frames with their unit face vectors and vertex sums, the fit with its
design and normal equations, the face sizes and weights. The adjoints read
those arrays rather than rebuild them. A KS flow step evaluates the
accepted candidate's energy and then, as the next step, the gradient at
that same vertex array, so `ks_flow_energy` leaves its forward in a
one-entry handoff, keyed by the mesh's topology object and the exact bits
of its vertex array (`tobytes()`; identity is not enough, since
`with_vertices` may alias an array its caller goes on to edit). The next
KS gradient, and the line search's orientation check, take it when both
match; only energies fill it. The handoff is not kept on the mesh (as
`TriMesh._fits` is) because meshes outlive their step: a caller that keeps
its flow states, as `bench/run.py` keeps every pass's results (4 states a
pass, about 650 passes in 10 s), would hold one forward with its design
for each, about 128 KB at V = 42, so over 300 MB against a whole-run peak
RSS of 54 MB without them. One entry holds one forward; a miss, or an
entry of another thread's flow, costs a rebuild and never a stale value.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import PreconditionError
from .geometry.meshes import (TriMesh, face_sizes, face_vectors,
                              face_vectors_adjoint, seed_frames,
                              seed_frames_adjoint)
from .geometry.patches import (dot, fit_tangent_frames,
                               fit_tangent_frames_adjoint)
from .moebius import ks_pair_blocks, ks_triangle_rows, ks_unit_vectors

__all__ = [
    "EnergySelector",
    "FlowState",
    "TrajectoryPoint",
    "ContactReport",
    "ks_flow_energy",
    "energy_gradient",
    "flow_step",
    "run_flow",
    "contact_monitor",
    "write_trajectory_csv",
]

# Most step halvings of one backtracking line search.
MAX_HALVINGS = 20


# ----------------------------------------------------------------------
# complex-safe discrete Kusner-Sullivan energy
# ----------------------------------------------------------------------

class _KSForward(NamedTuple):
    """What the flow energy reads of a vertex array, and its gradient with
    it: ring offsets, the face vectors, seed frames (with the unit face
    vectors and their vertex sums), the fit's unit vectors and solve (with
    the fit design), the face vectors halved on triangles and their
    lengths, and the lumped vertex weights."""

    offsets: np.ndarray
    faces: np.ndarray
    seed: tuple
    units: np.ndarray
    solve: tuple
    halved: np.ndarray
    sizes: np.ndarray
    weights: np.ndarray


def _ks_quadrature(vertices, topology):
    """The flow's one forward of a vertex array (`_KSForward`)."""
    idx, mask = topology.ring_table
    offsets = vertices[idx] - vertices[:, None]
    faces = face_vectors(vertices, topology)
    seed = seed_frames(vertices, topology, faces)
    tangent, normal, solve = fit_tangent_frames(offsets, mask, *seed[:2])
    halved, sizes = face_sizes(faces, topology.m)
    return _KSForward(offsets, faces, seed, ks_unit_vectors(tangent, normal),
                      solve, halved, sizes, topology.lumped_weights(sizes))


def _ks_sum(vertices, topology, fwd):
    """The KS double sum of the forward fwd of vertices."""
    return fwd.weights @ ks_triangle_rows(vertices, fwd.units, topology.m,
                                          np.zeros(len(vertices)),
                                          fwd.weights, None)[0]


def _ks_vertex_energy(vertices, topology):
    """KS double sum over vertex nodes; analytic in the vertex positions.

    The unit vectors are the mesh's vertex fit's (`seed_frames`, then the
    frame step `fit_tangent_frames`), the weights the lumped vertex weights
    of `TriMesh.vertex_weights`; the diagonal cells are dropped.
    """
    return _ks_sum(vertices, topology, _ks_quadrature(vertices, topology))


def _ks_vertex_gradient(vertices, topology, fwd):
    """Gradient (V, n) of `_ks_vertex_energy`, by reverse mode from the
    forward fwd of the same vertices.

    E = sum_ij w_i w_j q_ij with a kernel symmetric in its two (point,
    unit vector) arguments, so each vertex's pair gradient is twice its
    row side (`moebius._PairPass`'s pullback) and dE/dw = 2 q w. The clip of
    1 - cos to [0, 2] only removes rounding, so its derivative is taken as
    1 on every pair apart, as complex steps through `_ks_q` see it. The
    unit vectors' gradients (tangent or normal) then run back through the
    fit and the seed, the weight gradients through the face vectors.
    """
    m, V = topology.m, len(vertices)
    units, weights = fwd.units, fwd.weights
    grad = np.empty(vertices.shape)
    units_bar = np.empty(units.shape)
    weights_bar = np.empty(V)
    for lo, hi, q, omc, s, pullback in ks_pair_blocks(
            vertices, units, vertices, units, m, np.zeros(V)):
        mww = (2.0 * m) * weights[lo:hi, None] * weights
        # q = (omc / s)^m; the pullback ignores the coincident pairs' bars
        with np.errstate(divide="ignore", invalid="ignore"):
            omc_bar = mww * omc ** (m - 1) / s ** m
            s_bar = -mww * q / s
        weights_bar[lo:hi] = 2.0 * (q @ weights)
        grad[lo:hi], units_bar[lo:hi] = pullback(omc_bar, s_bar)
    frame_bars = ((units_bar[..., None], None) if m == 1
                  else (np.zeros(fwd.seed[0].shape), units_bar[..., None]))
    offsets_bar, *seed_bar = fit_tangent_frames_adjoint(
        fwd.offsets, topology.ring_table[1], *fwd.seed[:2], fwd.solve,
        *frame_bars)
    np.add.at(grad, topology.ring_table[0], offsets_bar)
    grad -= offsets_bar.sum(axis=1)
    grad += seed_frames_adjoint(vertices, topology, fwd.faces, fwd.seed,
                                *seed_bar)
    # w = vertex_sums(|e| / (m + 1)), e halved on triangles
    size_bar = topology.face_sums(weights_bar) / (m + 1)
    e_bar = size_bar[:, None] * fwd.halved / fwd.sizes[:, None]
    return grad + face_vectors_adjoint(vertices, topology,
                                       0.5 * e_bar if m == 2 else e_bar)


# The forward of the last `ks_flow_energy`, keyed by its mesh's topology and
# vertex bits: at most one entry, read by the next KS gradient and line
# search at the same vertex array (see the module docstring).
_handoff = {}


def _handed_off(mesh):
    """The handed-off forward of mesh's vertex array, or None."""
    return _handoff.get((mesh.topology, mesh.vertices.tobytes()))


def ks_flow_energy(mesh: TriMesh) -> float:
    """Discrete KS energy used by the flow (diagonal cell dropped); leaves
    its forward in the handoff."""
    _handoff.clear()
    fwd = _ks_quadrature(mesh.vertices, mesh.topology)
    _handoff[mesh.topology, mesh.vertices.tobytes()] = fwd
    return float(_ks_sum(mesh.vertices, mesh.topology, fwd))


# ----------------------------------------------------------------------
# selectors and flow state
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class EnergySelector:
    """Which functional the flow descends: KS, Riesz alpha, or AS with s.

    KS has a reverse-mode gradient, O(V^2). Riesz and AS are differentiated
    by central differences, two energies per coordinate: O(V^3), meant for
    V up to about 100.
    """

    kind: str = "ks"
    alpha: float | None = None
    s: float = 0.0

    def __post_init__(self):
        if self.kind not in ("ks", "riesz", "as"):
            raise PreconditionError(f"unknown energy selector {self.kind!r}")
        if self.kind == "riesz" and self.alpha is None:
            raise PreconditionError("riesz selector needs alpha")

    def label(self) -> str:
        if self.kind == "riesz":
            return f"riesz(alpha={self.alpha})"
        if self.kind == "as":
            return f"as(s={self.s})"
        return "ks"

    def evaluate(self, mesh: TriMesh, config) -> float:
        if self.kind == "ks":
            return ks_flow_energy(mesh)
        from .riesz import riesz_energy
        if self.kind == "riesz":
            return riesz_energy(mesh, self.alpha, config=config).value
        from .moebius import as_energy
        return as_energy(mesh, self.s, config=config).value


@dataclass
class TrajectoryPoint:
    iteration: int
    energy: float
    step_size: float
    min_distance: float


@dataclass
class FlowState:
    """Mesh positions plus descent bookkeeping (one owner, stepped serially)."""

    mesh: TriMesh
    selector: EnergySelector = field(default_factory=EnergySelector)
    step_size: float = 1e-2
    iteration: int = 0
    trajectory: list = field(default_factory=list)
    stationary: bool = False
    config: object = None

    def energy(self) -> float:
        """The mesh's energy: the one recorded by the accepted step when the
        trajectory's last point has this state's iteration, else evaluated."""
        last = self.trajectory[-1] if self.trajectory else None
        if last is not None and last.iteration == self.iteration:
            return last.energy
        return self.selector.evaluate(self.mesh, self.config)


def energy_gradient(state: FlowState) -> np.ndarray:
    """Per-vertex energy gradient (V, n).

    KS: the reverse-mode gradient of the flow's quadrature sum, one pass
    of O(V^2) pair work (`_ks_vertex_gradient`) from the forward that
    `ks_flow_energy` handed off at the same vertex array, or from a new
    one. Riesz and AS: central
    differences with step 1e-5 x bounding-box diagonal, two energies per
    coordinate, so O(V^3); meant for V up to about 100.
    """
    mesh = state.mesh
    if state.selector.kind == "ks":
        fwd = _handed_off(mesh)
        if fwd is None:
            fwd = _ks_quadrature(mesh.vertices, mesh.topology)
        return _ks_vertex_gradient(mesh.vertices, mesh.topology, fwd)
    V, n = mesh.vertices.shape
    grad = np.empty((V, n))
    box = mesh.vertices.max(axis=0) - mesh.vertices.min(axis=0)
    h = 1e-5 * float(np.linalg.norm(box))
    for i in range(V):
        for c in range(n):
            vp = mesh.vertices.copy()
            vp[i, c] += h
            ep = state.selector.evaluate(mesh.with_vertices(vp), state.config)
            vm = mesh.vertices.copy()
            vm[i, c] -= h
            em = state.selector.evaluate(mesh.with_vertices(vm), state.config)
            grad[i, c] = (ep - em) / (2.0 * h)
    return grad


def _orientation_ok(f_old, topology, new_vertices) -> bool:
    """Reject steps that invert any simplex against the previous step: every
    face vector f_old (edge or area normal) must keep its direction."""
    return bool(np.all(dot(f_old, face_vectors(new_vertices, topology))
                       > 0.0))


def flow_step(state: FlowState) -> FlowState:
    """One backtracking descent step; strictly decreases the energy.

    A decreasing, orientation-preserving step is accepted and the next
    trial step doubles it. When none exists within MAX_HALVINGS halvings,
    the state is returned with the stationary flag set (a report, not an
    error).
    """
    e0 = state.energy()
    grad = energy_gradient(state)
    if float(np.linalg.norm(grad)) == 0.0:
        return replace(state, stationary=True)
    mesh = state.mesh
    step = state.step_size
    fwd = _handed_off(mesh)
    f_old = (face_vectors(mesh.vertices, mesh.topology) if fwd is None
             else fwd.faces)
    for _ in range(MAX_HALVINGS + 1):
        cand = mesh.vertices - step * grad
        if _orientation_ok(f_old, mesh.topology, cand):
            new_mesh = mesh.with_vertices(cand)
            e1 = state.selector.evaluate(new_mesh, state.config)
            if e1 < e0:
                traj = state.trajectory + [TrajectoryPoint(
                    state.iteration + 1, e1, step,
                    new_mesh.min_nonneighbor_distance())]
                return replace(state, mesh=new_mesh, step_size=step * 2.0,
                               iteration=state.iteration + 1,
                               trajectory=traj, stationary=False)
        step *= 0.5
    return replace(state, stationary=True)


def run_flow(state: FlowState, n_steps: int) -> FlowState:
    """Iterate flow_step until stationary or the step budget is exhausted."""
    if not state.trajectory:
        state.trajectory.append(TrajectoryPoint(
            state.iteration, state.energy(), state.step_size,
            state.mesh.min_nonneighbor_distance()))
    for _ in range(n_steps):
        state = flow_step(state)
        if state.stationary:
            break
    return state


@dataclass
class ContactReport:
    min_distance: float
    energy: float
    ceiling: float | None
    ceiling_exceeded: bool
    closing_in: bool

    def as_dict(self):
        return {
            "min_distance": self.min_distance,
            "energy": self.energy,
            "ceiling": self.ceiling,
            "ceiling_exceeded": self.ceiling_exceeded,
            "closing_in": self.closing_in,
        }


def contact_monitor(state: FlowState, ceiling: float | None = None) -> ContactReport:
    """Min distance between non-adjacent mesh elements and the state's
    energy (`FlowState.energy`: after a step, the one the step recorded).

    ceiling_exceeded flags an energy above the configured ceiling (never
    set without a ceiling); closing_in reports, separately, whether the
    minimum distance shrank along the recorded trajectory.
    """
    dmin = state.mesh.min_nonneighbor_distance()
    energy = state.energy()
    closing = False
    if len(state.trajectory) >= 2:
        closing = state.trajectory[-1].min_distance < state.trajectory[0].min_distance
    exceeded = bool(ceiling is not None and energy > ceiling)
    return ContactReport(min_distance=dmin, energy=energy, ceiling=ceiling,
                         ceiling_exceeded=exceeded, closing_in=closing)


def write_trajectory_csv(state: FlowState, path) -> None:
    """CSV rows (iteration, energy, step_size, min_distance)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "energy", "step_size", "min_distance"])
        for p in state.trajectory:
            writer.writerow([p.iteration, format(p.energy, ".17g"),
                             format(p.step_size, ".17g"),
                             format(p.min_distance, ".17g")])
