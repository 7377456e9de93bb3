"""Gradient descent of mesh embeddings with contact monitoring.

The flow's discrete Kusner-Sullivan energy is `ks_energy`'s vertex
quadrature without its diagonal cells: the same vertex fit frames (face
seed, one normal-equation solve, closed-form tilt), lumped weights and pair
kernel, read from the mesh's shared topology. Every step is
complex-analytic, so its gradient is the complex-step derivative, exact to
machine precision.
Riesz and Auckly-Sadun selectors differentiate by central differences.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import PreconditionError
from .geometry.meshes import TriMesh, seed_frames
from .geometry.patches import cross, dot, fit_tangent_frames
from .moebius import ks_pair_kernel

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

def _ks_vertex_energy(vertices, topology):
    """KS double sum over vertex nodes; analytic in the vertex positions.

    The frames are those of the mesh's vertex fit (`seed_frames`, then the
    frame step `fit_tangent_frames`), the weights the lumped vertex weights
    of `TriMesh.vertex_weights`; the diagonal cells are dropped.
    """
    m = topology.m
    idx, mask = topology.ring_table
    frames = fit_tangent_frames(vertices[idx] - vertices[:, None], mask,
                                *seed_frames(vertices, topology))[0]
    p = vertices[topology.faces]
    e = p[:, 1] - p[:, 0]
    if m == 2:
        e = 0.5 * cross(e, p[:, 2] - p[:, 0])
    weights = topology.incidence @ (np.sqrt(dot(e, e)) / (m + 1))
    omc, dist = ks_pair_kernel(vertices, frames, vertices, frames)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = omc ** m / dist ** (2 * m)
    np.fill_diagonal(q, 0.0)
    return weights @ q @ weights


def ks_flow_energy(mesh: TriMesh) -> float:
    """Discrete KS energy used by the flow (diagonal cell dropped)."""
    return float(_ks_vertex_energy(mesh.vertices, mesh.topology))


# ----------------------------------------------------------------------
# selectors and flow state
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class EnergySelector:
    """Which functional the flow descends: KS, Riesz alpha, or AS with s."""

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

    def evaluate(self, mesh: TriMesh, config=None) -> float:
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
        return self.selector.evaluate(self.mesh, self.config)


def energy_gradient(state: FlowState) -> np.ndarray:
    """Per-vertex energy gradient.

    The KS quadrature sum is differentiated by complex step, which is exact
    to machine precision; the Riesz and AS energies by central differences
    with step 1e-5 x bounding-box diagonal.
    """
    mesh = state.mesh
    V, n = mesh.vertices.shape
    grad = np.empty((V, n))
    if state.selector.kind == "ks":
        h = 1e-20
        base = mesh.vertices.astype(complex)
        for i in range(V):
            for c in range(n):
                z = base.copy()
                z[i, c] += 1j * h
                grad[i, c] = float(np.imag(
                    _ks_vertex_energy(z, mesh.topology))) / h
        return grad
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


def _orientation_ok(old: TriMesh, new_vertices: np.ndarray) -> bool:
    """Reject steps that invert any simplex against the previous step."""
    if old.m == 2 and old.n == 3:
        p_old = old.vertices[old.faces]
        p_new = new_vertices[old.faces]
        n_old = np.cross(p_old[:, 1] - p_old[:, 0], p_old[:, 2] - p_old[:, 0])
        n_new = np.cross(p_new[:, 1] - p_new[:, 0], p_new[:, 2] - p_new[:, 0])
        return bool(np.all(np.einsum("ij,ij->i", n_old, n_new) > 0.0))
    e_old = old.vertices[old.faces[:, 1]] - old.vertices[old.faces[:, 0]]
    e_new = new_vertices[old.faces[:, 1]] - new_vertices[old.faces[:, 0]]
    return bool(np.all(np.einsum("ij,ij->i", e_old, e_new) > 0.0))


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
    for _ in range(MAX_HALVINGS + 1):
        cand = mesh.vertices - step * grad
        if _orientation_ok(mesh, cand):
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
    """Min distance between non-adjacent mesh elements and the current energy.

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
