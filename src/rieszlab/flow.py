"""Gradient descent of mesh embeddings with contact monitoring.

The flow's discrete Kusner-Sullivan energy is a vertex-based quadrature
written with complex-analytic primitives only (plain-transpose Gram-Schmidt,
normal-equation solves and the pair kernel shared with `ks_energy`), so its
exact gradient is available through complex-step differentiation alongside
central finite differences.
Riesz and Auckly-Sadun selectors differentiate by finite differences.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import PreconditionError, UnsupportedInputError
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


class _KSDiscretization:
    """Fixed combinatorial data for the vertex-based KS quadrature."""

    def __init__(self, mesh: TriMesh):
        self.m = mesh.m
        self.faces = mesh.faces
        self.num_vertices = mesh.num_vertices
        self.ring_idx, self.ring_mask = mesh.topology.ring_table
        if mesh.m == 1:
            self.next_vertex, self.prev_vertex = mesh.topology.next_prev

    def energy(self, vertices):
        """KS double sum over vertex nodes; analytic in the vertex positions."""
        V = self.num_vertices
        m = self.m
        if m == 1:
            tang = _normalize(vertices[self.next_vertex]
                              - vertices[self.prev_vertex])
            frames = tang[:, :, None]                      # (V, 2, 1)
            edge_vec = vertices[self.faces[:, 1]] - vertices[self.faces[:, 0]]
            meas = np.sqrt(_dotp(edge_vec, edge_vec))
            weights = np.zeros(V, dtype=vertices.dtype)
            np.add.at(weights, self.faces[:, 0], 0.5 * meas)
            np.add.at(weights, self.faces[:, 1], 0.5 * meas)
        else:
            raw = _face_normals_raw(vertices, self.faces)
            areas = 0.5 * np.sqrt(_dotp(raw, raw))
            vnormal = np.zeros_like(vertices)
            weights = np.zeros(V, dtype=vertices.dtype)
            for col in range(3):
                np.add.at(vnormal, self.faces[:, col], raw)
                np.add.at(weights, self.faces[:, col], areas / 3.0)
            nh = _normalize(vnormal)                       # (V, 3)
            d = vertices[self.ring_idx] - vertices[:, None, :]   # (V, R, 3)
            mask = self.ring_mask
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
                          0.5 * eta2 ** 2], axis=-1)        # (V, R, 5)
            Xw = X * w[..., None]
            A = np.einsum("vrc,vrk->vck", X, Xw)
            rhs = np.einsum("vrc,vr->vc", Xw, zeta)
            sol = np.linalg.solve(A, rhs[..., None])[..., 0]   # (V, 5)
            w1 = t1 + sol[:, 0:1] * nh
            w2 = t2 + sol[:, 1:2] * nh
            e1 = _normalize(w1)
            e2 = _normalize(w2 - _dotp(w2, e1)[:, None] * e1)
            frames = np.stack([e1, e2], axis=-1)            # (V, 3, 2)
        omc, dist = ks_pair_kernel(vertices, frames, vertices, frames)
        with np.errstate(divide="ignore", invalid="ignore"):
            q = omc ** m / dist ** (2 * m)
        np.fill_diagonal(q, 0.0)
        return weights @ q @ weights


def ks_flow_energy(mesh_or_vertices, faces=None, m=None, disc=None):
    """Discrete KS energy used by the flow (diagonal cell dropped)."""
    if isinstance(mesh_or_vertices, TriMesh):
        mesh = mesh_or_vertices
        disc = disc or _KSDiscretization(mesh)
        return float(np.real(disc.energy(mesh.vertices)))
    if disc is None:
        raise PreconditionError("need a discretization for raw vertex input")
    return disc.energy(mesh_or_vertices)


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

    def evaluate(self, mesh: TriMesh, config=None, disc=None) -> float:
        if self.kind == "ks":
            return ks_flow_energy(mesh, disc=disc)
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
    _disc: object = field(default=None, repr=False)

    def discretization(self):
        if self.selector.kind == "ks" and self._disc is None:
            self._disc = _KSDiscretization(self.mesh)
        return self._disc

    def energy(self) -> float:
        return self.selector.evaluate(self.mesh, self.config,
                                      self.discretization())


def _fd_step(mesh: TriMesh) -> float:
    box = mesh.vertices.max(axis=0) - mesh.vertices.min(axis=0)
    return 1e-5 * float(np.linalg.norm(box))


def energy_gradient(state: FlowState, method: str = "fd") -> np.ndarray:
    """Per-vertex energy gradient.

    method "fd" is a central difference with step 1e-5 x bounding-box
    diagonal; method "exact" (KS only) differentiates the quadrature sum by
    complex-step, which is exact to machine precision.
    """
    mesh = state.mesh
    V, n = mesh.vertices.shape
    if method == "exact":
        if state.selector.kind != "ks":
            raise UnsupportedInputError("exact gradients are available for "
                                        "the KS selector only")
        disc = state.discretization()
        grad = np.empty((V, n))
        h = 1e-20
        base = mesh.vertices.astype(complex)
        for i in range(V):
            for c in range(n):
                z = base.copy()
                z[i, c] += 1j * h
                grad[i, c] = float(np.imag(disc.energy(z))) / h
        return grad
    if method != "fd":
        raise PreconditionError(f"unknown gradient method {method!r}")
    h = _fd_step(mesh)
    disc = state.discretization()
    grad = np.empty((V, n))
    for i in range(V):
        for c in range(n):
            vp = mesh.vertices.copy()
            vp[i, c] += h
            ep = state.selector.evaluate(mesh.with_vertices(vp), state.config,
                                         disc)
            vm = mesh.vertices.copy()
            vm[i, c] -= h
            em = state.selector.evaluate(mesh.with_vertices(vm), state.config,
                                         disc)
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


def flow_step(state: FlowState, gradient_method: str = "fd",
              max_halvings: int = 20) -> FlowState:
    """One backtracking descent step; strictly decreases the energy.

    When no decreasing, orientation-preserving step exists within the
    halving budget, the state is returned with the stationary flag set
    (a report, not an error).
    """
    e0 = state.energy()
    grad = energy_gradient(state, gradient_method)
    gnorm = float(np.linalg.norm(grad))
    mesh = state.mesh
    if gnorm == 0.0:
        state = replace(state, stationary=True)
        return state
    step = state.step_size
    disc = state.discretization()   # combinatorics are step-invariant
    for _ in range(max_halvings + 1):
        cand = mesh.vertices - step * grad
        if _orientation_ok(mesh, cand):
            new_mesh = mesh.with_vertices(cand)
            e1 = state.selector.evaluate(new_mesh, state.config, disc)
            if e1 < e0:
                traj = state.trajectory + [TrajectoryPoint(
                    state.iteration + 1, e1, step,
                    new_mesh.min_nonneighbor_distance())]
                return FlowState(mesh=new_mesh, selector=state.selector,
                                 step_size=min(step * 2.0, state.step_size * 4),
                                 iteration=state.iteration + 1,
                                 trajectory=traj, stationary=False,
                                 config=state.config, _disc=disc)
        step *= 0.5
    return replace(state, stationary=True)


def run_flow(state: FlowState, n_steps: int,
             gradient_method: str = "fd") -> FlowState:
    """Iterate flow_step until stationary or the step budget is exhausted."""
    if not state.trajectory:
        state.trajectory.append(TrajectoryPoint(
            state.iteration, state.energy(), state.step_size,
            state.mesh.min_nonneighbor_distance()))
    for _ in range(n_steps):
        state = flow_step(state, gradient_method)
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
