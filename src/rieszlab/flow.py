"""Gradient descent of mesh embeddings with contact monitoring.

The flow's discrete Kusner-Sullivan energy is a vertex-based quadrature
read straight from the mesh's shared topology and written with
complex-analytic primitives only (plain-transpose Gram-Schmidt,
normal-equation solves and the pair kernel shared with `ks_energy`), so its
gradient is the complex-step derivative, exact to machine precision.
Riesz and Auckly-Sadun selectors differentiate by central differences.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import PreconditionError
from .geometry.meshes import TriMesh
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

def _dotp(a, b):
    """Plain (non-conjugating) dot along the last axis; complex-analytic."""
    return np.sum(a * b, axis=-1)


def _normalize(v):
    return v / np.sqrt(_dotp(v, v))[..., None]


def _face_normals_raw(vertices, faces):
    p = vertices[faces]
    return np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])


def _ks_vertex_energy(vertices, topology):
    """KS double sum over vertex nodes; analytic in the vertex positions."""
    faces = topology.faces
    V = topology.num_vertices
    m = topology.m
    if m == 1:
        next_vertex, prev_vertex = topology.next_prev
        tang = _normalize(vertices[next_vertex] - vertices[prev_vertex])
        frames = tang[:, :, None]                          # (V, 2, 1)
        edge_vec = vertices[faces[:, 1]] - vertices[faces[:, 0]]
        meas = np.sqrt(_dotp(edge_vec, edge_vec))
        weights = np.zeros(V, dtype=vertices.dtype)
        np.add.at(weights, faces[:, 0], 0.5 * meas)
        np.add.at(weights, faces[:, 1], 0.5 * meas)
    else:
        raw = _face_normals_raw(vertices, faces)
        areas = 0.5 * np.sqrt(_dotp(raw, raw))
        vnormal = np.zeros_like(vertices)
        weights = np.zeros(V, dtype=vertices.dtype)
        for col in range(3):
            np.add.at(vnormal, faces[:, col], raw)
            np.add.at(weights, faces[:, col], areas / 3.0)
        nh = _normalize(vnormal)                           # (V, 3)
        ring_idx, mask = topology.ring_table
        d = vertices[ring_idx] - vertices[:, None, :]      # (V, R, 3)
        e = d[:, 0, :]
        t1 = _normalize(e - _dotp(e, nh)[:, None] * nh)
        t2 = np.cross(nh, t1)
        eta1 = np.einsum("vrn,vn->vr", d, t1)
        eta2 = np.einsum("vrn,vn->vr", d, t2)
        zeta = np.einsum("vrn,vn->vr", d, nh)
        r2 = _dotp(d, d)
        mean_r2 = (np.sum(r2 * mask, axis=1)
                   / np.sum(mask, axis=1))[:, None]
        w = np.exp(-r2 / mean_r2) * mask
        X = np.stack([eta1, eta2, 0.5 * eta1 ** 2, eta1 * eta2,
                      0.5 * eta2 ** 2], axis=-1)            # (V, R, 5)
        Xw = X * w[..., None]
        A = np.einsum("vrc,vrk->vck", X, Xw)
        rhs = np.einsum("vrc,vr->vc", Xw, zeta)
        sol = np.linalg.solve(A, rhs[..., None])[..., 0]   # (V, 5)
        w1 = t1 + sol[:, 0:1] * nh
        w2 = t2 + sol[:, 1:2] * nh
        e1 = _normalize(w1)
        e2 = _normalize(w2 - _dotp(w2, e1)[:, None] * e1)
        frames = np.stack([e1, e2], axis=-1)                # (V, 3, 2)
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
