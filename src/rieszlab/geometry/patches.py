"""Tangent frames, local graph patches, curvature, and patch-class checks.

A graph patch at a surface point x is the map h from a ball in the tangent
plane to the normal space with h(0)=0, grad h(0)=0, so that eta |-> x +
T eta + N h(eta) parametrizes the surface near x. Chart surfaces get h by
Newton inversion of the chart map, and also solve for the points at a given
chord distance directly in chart parameters (`GraphPatch.chord_solve`);
meshes get h from weighted least-squares quadratic fits over 2-ring
neighborhoods, all vertices in one batch (`fit_quadratic_patches`), and
solve chord rows in closed form. The surfaces build their own patches
(`patch_at` of the surface protocol); the functions here reach them through
that protocol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import (NumericalError, PatchRadiusError, PreconditionError,
                      RankDeficiencyError)
from .surface import as_surface

__all__ = [
    "orthonormal_frames",
    "GraphPatch",
    "CurvatureData",
    "PatchClassParams",
    "PatchValidationReport",
    "tangent_frame",
    "graph_patch_at",
    "curvature_at",
    "validate_patch_class",
    "default_patch_radius",
    "fit_quadratic_patches",
]

# Most passes of the quadratic fit; each one folds the fitted linear term
# into the frame.
FIT_PASSES = 5


def orthonormal_frames(jac: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split R^n into tangent/normal frames from a (..., n, m) Jacobian stack.

    Tangent columns are orthonormalized preserving the orientation of the
    parameter order; the normal frame completes a positively oriented basis
    of R^n. Frames are orthonormal to machine precision.
    """
    jac = np.asarray(jac, dtype=float)
    single = jac.ndim == 2
    if single:
        jac = jac[None]
    n, m = jac.shape[-2], jac.shape[-1]
    q, r = np.linalg.qr(jac)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    if np.any(np.abs(diag) < 1e-13 * np.abs(diag).max(initial=1.0)):
        raise RankDeficiencyError("chart Jacobian is rank deficient")
    # QR sign fix: make diag(R) > 0 so Q's orientation matches the columns.
    sign = np.where(diag < 0.0, -1.0, 1.0)
    tangent = q * sign[..., None, :]
    # Orthonormal complement via full SVD.
    u, _, _ = np.linalg.svd(jac, full_matrices=True)
    normal = u[..., m:]
    # Re-orthogonalize the complement against the tangent block (paranoia at
    # machine level) and fix total orientation det([T | N]) > 0.
    proj = np.einsum("...ij,...ik->...jk", tangent, normal)
    normal = normal - np.einsum("...ij,...jk->...ik", tangent, proj)
    normal /= np.linalg.norm(normal, axis=-2, keepdims=True)
    full = np.concatenate([tangent, normal], axis=-1)
    det = np.linalg.det(full)
    flip = det < 0.0
    if np.any(flip):
        normal = normal.copy()
        normal[flip, ..., -1] *= -1.0
    if single:
        return tangent[0], normal[0]
    return tangent, normal


# ----------------------------------------------------------------------
# graph patches
# ----------------------------------------------------------------------

@dataclass
class GraphPatch:
    """Local graph representation of the surface over its tangent plane.

    Every patch evaluates its height h and height Jacobian at tangent
    coordinates eta, and solves chord rows with chord_solve(v, t): for
    unit tangent directions v (K, m) and chord radii t (K,) > 0 it returns
    (xi, h, grad h), the radius xi >= 0 with xi^2 + |h(xi v)|^2 = t^2 and
    the height data at that point. Chart patches solve each row by one
    Newton iteration in the chart parameters; the quadratic patches of
    meshes solve it in closed form.
    """

    base_point: np.ndarray        # (n,)
    tangent: np.ndarray           # (n, m) orthonormal, oriented
    normal: np.ndarray            # (n, n-m) orthonormal
    radius: float                 # validated radius
    height: object                # eta (..., m) -> (..., n-m)
    height_jacobian: object       # eta (..., m) -> (..., n-m, m)
    chord_solve: object           # (v, t) -> (xi, h, grad h)
    derivative_bound: float = math.nan
    fit_residual: float = 0.0
    meta: dict = field(default_factory=dict)

    @property
    def m(self) -> int:
        return self.tangent.shape[1]

    @property
    def n(self) -> int:
        return self.tangent.shape[0]

    def embed(self, eta):
        """Map tangent coordinates back to ambient points."""
        eta = np.asarray(eta, dtype=float)
        h = self.height(eta)
        return (self.base_point + eta @ self.tangent.T + h @ self.normal.T)

    def measure_derivative_bound(self, max_order=2, n_angular=16, n_radial=16):
        """sup |d^mu h| over a polar grid for 0 <= |mu| <= max_order.

        Orders 0-1 come from the patch callables; orders 2..max_order use
        central differences of the height Jacobian.
        """
        r = self.radius
        angles = np.linspace(0.0, 2.0 * math.pi, n_angular, endpoint=False)
        radii = np.linspace(r / n_radial, r * 0.98, n_radial)
        if self.m == 1:
            dirs = np.array([[1.0], [-1.0]])
        else:
            dirs = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
        eta = (dirs[None, :, :] * radii[:, None, None]).reshape(-1, self.m)
        sup = float(np.max(np.abs(self.height(eta))))
        jac = self.height_jacobian(eta)
        sup = max(sup, float(np.max(np.abs(jac))))
        if max_order >= 2:
            step = max(r / 256.0, 1e-6)
            for axis in range(self.m):
                de = np.zeros(self.m)
                de[axis] = step
                d2 = (self.height_jacobian(eta + de)
                      - self.height_jacobian(eta - de)) / (2 * step)
                sup = max(sup, float(np.max(np.abs(d2))))
                if max_order >= 3:
                    d3 = (self.height_jacobian(eta + de)
                          - 2.0 * jac
                          + self.height_jacobian(eta - de)) / step ** 2
                    sup = max(sup, float(np.max(np.abs(d3))))
        return sup


def fit_quadratic_patches(offsets, mask, seed_tangent):
    """Weighted LSQ quadratic graph fits h(eta) = eta^T A eta / 2, batched.

    offsets (P, R, n) are neighbour points minus each base point, padded
    rows flagged 0 in mask (P, R); seed_tangent (P, n, m) is an oriented
    first guess of each tangent plane. Rows are weighted by
    exp(-(|d| / mean |d|)^2) over the unpadded rows. Each pass fits linear
    and quadratic terms by one stacked QR solve and folds the linear term
    into the frame, until max |lin| < 1e-13 or FIT_PASSES passes, so that
    h(0) = 0, grad h(0) = 0 up to that term. The frames keep the seed's
    orientation. Returns (tangent (P, n, m), normal (P, n, n-m), coeffs
    (P, n-m, m, m), rms (P,)), coeffs symmetric per normal component and
    rms the weighted residual of the last pass.
    """
    d = np.asarray(offsets, dtype=float)
    mask = np.asarray(mask, dtype=float)
    m = seed_tangent.shape[-1]
    quad_idx = [(i, j) for i in range(m) for j in range(i, m)]
    count = mask.sum(axis=1)
    if np.any(count < m + len(quad_idx)):
        raise NumericalError("not enough neighbors for a quadratic fit")
    dist = np.linalg.norm(d, axis=-1)
    scale = np.sum(dist * mask, axis=1) / count
    w = np.exp(-(dist / scale[:, None]) ** 2) * mask
    tangent, normal = orthonormal_frames(seed_tangent)
    sol = np.empty((len(d), m + len(quad_idx), normal.shape[-1]))
    rms = np.empty(len(d))
    rows = np.arange(len(d))       # the patches still folding their frame
    for it in range(FIT_PASSES):
        eta = d[rows] @ tangent[rows]
        cols = [eta[..., i] for i in range(m)]
        cols += [(0.5 if i == j else 1.0) * eta[..., i] * eta[..., j]
                 for (i, j) in quad_idx]
        X = np.stack(cols, axis=-1) * w[rows, :, None]
        Y = (d[rows] @ normal[rows]) * w[rows, :, None]
        q, r = np.linalg.qr(X)
        sol[rows] = np.linalg.solve(r, np.swapaxes(q, -1, -2) @ Y)
        res = X @ sol[rows] - Y
        rms[rows] = np.sqrt(np.sum(res ** 2, axis=(1, 2))
                            / (count[rows] * Y.shape[-1]))
        lin = sol[rows, :m]                                  # (K, m, n-m)
        go = np.max(np.abs(lin), axis=(1, 2)) >= 1e-13
        if it == FIT_PASSES - 1 or not go.any():
            break
        rows = rows[go]
        tangent[rows], normal[rows] = orthonormal_frames(
            tangent[rows] + normal[rows] @ np.swapaxes(lin[go], -1, -2))
    coeffs = np.zeros((len(d), normal.shape[-1], m, m))
    for k, (i, j) in enumerate(quad_idx):
        coeffs[:, :, i, j] = coeffs[:, :, j, i] = sol[:, m + k]
    return tangent, normal, coeffs, rms


def tangent_frame(surface, locator):
    """Orthonormal (tangent, normal) frames at a point of the surface."""
    return as_surface(surface).frame_at(locator)


def graph_patch_at(surface, locator, radius, shrink=True,
                   measure_bound=True) -> GraphPatch:
    """Graph patch of the surface at the located point.

    Returns the largest validated radius <= request; raises PatchRadiusError
    when shrink=False and the requested radius is not graph-representable.
    measure_bound=False skips the derivative-bound sampling (hot loops).
    """
    return as_surface(surface).patch_at(locator, radius, shrink=shrink,
                                        measure_bound=measure_bound)


# ----------------------------------------------------------------------
# curvature
# ----------------------------------------------------------------------

@dataclass
class CurvatureData:
    """Second fundamental form data at a point."""

    second_fundamental: np.ndarray   # (m, m, n-m), h_ij vectors
    tangent: np.ndarray
    normal: np.ndarray

    @property
    def m(self) -> int:
        return self.second_fundamental.shape[0]

    @property
    def mean_vector(self) -> np.ndarray:
        return np.einsum("iic->c", self.second_fundamental)

    @property
    def hs_norm(self) -> float:
        return float(np.sqrt(np.sum(self.second_fundamental ** 2)))

    @property
    def delta(self) -> float:
        """Umbilicity defect |h11 - h22|^2 + 4 |h12|^2 (m = 2)."""
        h = self.second_fundamental
        if self.m != 2:
            raise PreconditionError("delta is defined for m = 2 only")
        return float(np.sum((h[0, 0] - h[1, 1]) ** 2) + 4.0 * np.sum(h[0, 1] ** 2))

    @property
    def gauss(self) -> float:
        h = self.second_fundamental
        if self.m != 2:
            raise PreconditionError("Gauss curvature is defined for m = 2 only")
        return float(h[0, 0] @ h[1, 1] - h[0, 1] @ h[0, 1])

    @property
    def principal(self):
        """Principal curvatures (hypersurfaces, n - m = 1)."""
        if self.second_fundamental.shape[2] != 1:
            raise PreconditionError("principal curvatures need codimension 1")
        return tuple(np.linalg.eigvalsh(self.second_fundamental[..., 0]))

    def identity_residuals(self):
        """Residuals of Delta = 2||h||^2 - |H|^2 and K = (|H|^2 - ||h||^2)/2."""
        H2 = float(self.mean_vector @ self.mean_vector)
        hs2 = self.hs_norm ** 2
        return (abs(self.delta - (2.0 * hs2 - H2)),
                abs(self.gauss - 0.5 * (H2 - hs2)))


def curvature_at(surface, locator) -> CurvatureData:
    """Second fundamental form (and derived scalars) at a surface point."""
    return as_surface(surface).curvature_at(locator)


def default_patch_radius(surface, samples=8, factor=0.9, scale=0.25):
    """Curvature-capped patch radius: factor / max principal curvature.

    The radius is not capped by the separation of components: chord balls
    only ever see one sheet, and cross-component pairs take the true kernel.
    """
    nodes = as_surface(surface).nodes(scale)
    kmax = 0.0
    for i in np.linspace(0, len(nodes.points) - 1, samples).astype(int):
        data = curvature_at(surface, nodes.locators[i])
        if data.second_fundamental.shape[2] == 1:
            kmax = max(kmax, float(np.max(np.abs(data.principal))))
        else:
            kmax = max(kmax, data.hs_norm)
    r = factor / kmax if kmax > 0 else math.inf
    return r if math.isfinite(r) else 1.0


# ----------------------------------------------------------------------
# patch-class validation
# ----------------------------------------------------------------------

@dataclass
class PatchClassParams:
    """Uniform-geometry class parameters (smoothness, radius, bounds)."""

    k: int
    radius: float
    derivative_bound: float
    volume_bound: float

    def __post_init__(self):
        if self.k < 3:
            raise PreconditionError("smoothness order k must be >= 3")
        if min(self.radius, self.derivative_bound, self.volume_bound) <= 0:
            raise PreconditionError("class parameters must be positive")


@dataclass
class PatchValidationReport:
    passed: bool
    volume: float
    volume_ok: bool
    sample_count: int
    violations: list
    b_sup_measured: float
    b_fit_residual: float
    components_in_ball: list

    def as_dict(self):
        return {
            "passed": self.passed,
            "volume": self.volume,
            "volume_ok": self.volume_ok,
            "sample_count": self.sample_count,
            "violations": self.violations,
            "b_sup_measured": self.b_sup_measured,
            "b_fit_residual": self.b_fit_residual,
            "components_in_ball": self.components_in_ball,
        }


def validate_patch_class(surface, params: PatchClassParams, samples=24):
    """Sampled check of the uniform-geometry class conditions.

    Reports whether sampled points admit graph patches of the class radius
    with derivative bound b (measured as a sup over a 16 x 16 polar grid, and
    alternatively as a fit residual for discrete data), and whether the total
    volume is within the class bound. Report-valued: never raises on failure.
    """
    violations = []
    b_sup = 0.0
    b_res = 0.0
    comps_in_ball = []
    nodes = as_surface(surface).nodes(0.25)
    take = np.linspace(0, len(nodes.points) - 1,
                       min(samples, len(nodes.points))).astype(int)
    locators = [nodes.locators[i] for i in take]
    volume = nodes.volume
    all_points = nodes.points
    all_comp = nodes.component
    base_pts = nodes.points[take]
    max_order = min(params.k, 3)
    for loc, x0 in zip(locators, base_pts):
        try:
            patch = graph_patch_at(surface, loc, params.radius, shrink=False)
        except (PatchRadiusError, NumericalError) as exc:
            violations.append({"locator": repr(loc), "reason": str(exc)})
            continue
        if patch.radius < params.radius * (1 - 1e-9):
            violations.append({"locator": repr(loc),
                               "reason": f"validated radius {patch.radius:.6g}"
                                         f" < requested {params.radius:.6g}"})
            continue
        sup = patch.measure_derivative_bound(max_order=max_order)
        b_sup = max(b_sup, sup)
        b_res = max(b_res, patch.fit_residual)
        if sup > params.derivative_bound:
            violations.append({"locator": repr(loc),
                               "reason": f"derivative sup {sup:.6g} exceeds"
                                         f" b={params.derivative_bound:.6g}"})
        dist = np.linalg.norm(all_points - x0, axis=-1)
        near = dist < params.radius
        comps_in_ball.append(int(len(np.unique(all_comp[near]))))
    volume_ok = volume <= params.volume_bound
    passed = volume_ok and not violations
    return PatchValidationReport(
        passed=passed, volume=volume, volume_ok=volume_ok,
        sample_count=len(locators), violations=violations,
        b_sup_measured=b_sup, b_fit_residual=b_res,
        components_in_ball=comps_in_ball,
    )
