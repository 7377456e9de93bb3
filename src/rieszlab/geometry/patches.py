"""Tangent frames, local graph patches, curvature, and patch-class checks.

A graph patch at a surface point x is the map h from a ball in the tangent
plane to the normal space with h(0)=0, grad h(0)=0, so that eta |-> x +
T eta + N h(eta) parametrizes the surface near x. Chart surfaces get h by
Newton inversion of the chart map, and also solve for the points at a given
chord distance directly in chart parameters (`GraphPatch.chord_solve`);
meshes get h from weighted least-squares quadratic fits over 2-ring
neighborhoods.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import (NumericalError, PatchRadiusError, PreconditionError,
                      UnsupportedInputError)
from .charts import ChartSurface, orthonormal_frames
from .meshes import TriMesh

__all__ = [
    "GraphPatch",
    "CurvatureData",
    "PatchClassParams",
    "PatchValidationReport",
    "tangent_frame",
    "graph_patch_at",
    "curvature_at",
    "validate_patch_class",
    "default_patch_radius",
    "fit_quadratic_patch",
]


def _solve_small(A, b):
    """Batched solve for (..., m, m) systems, closed form for m in {1, 2}."""
    m = A.shape[-1]
    if m == 1:
        return b / A[..., 0, 0][..., None]
    if m == 2:
        det = A[..., 0, 0] * A[..., 1, 1] - A[..., 0, 1] * A[..., 1, 0]
        x0 = (b[..., 0] * A[..., 1, 1] - b[..., 1] * A[..., 0, 1]) / det
        x1 = (b[..., 1] * A[..., 0, 0] - b[..., 0] * A[..., 1, 0]) / det
        return np.stack([x0, x1], axis=-1)
    return np.linalg.solve(A, b[..., None])[..., 0]


def _inv_small(A):
    """Batched inverse of (..., m, m) stacks, closed form for m in {1, 2}."""
    m = A.shape[-1]
    if m == 1:
        return 1.0 / A
    if m == 2:
        det = A[..., 0, 0] * A[..., 1, 1] - A[..., 0, 1] * A[..., 1, 0]
        inv = np.stack([np.stack([A[..., 1, 1], -A[..., 0, 1]], axis=-1),
                        np.stack([-A[..., 1, 0], A[..., 0, 0]], axis=-1)],
                       axis=-2)
        return inv / det[..., None, None]
    return np.linalg.inv(A)


def _project(frame, J):
    """frame^T J over a (..., n, m) stack of Jacobians, as one matrix product.

    frame has shape (n, c); the result has shape (..., c, m).
    """
    n, m = J.shape[-2:]
    rows = np.swapaxes(J, -1, -2).reshape(-1, n) @ frame
    return np.swapaxes(rows.reshape(J.shape[:-2] + (m, frame.shape[1])),
                       -1, -2)


# ----------------------------------------------------------------------
# graph patches
# ----------------------------------------------------------------------

@dataclass
class GraphPatch:
    """Local graph representation of the surface over its tangent plane.

    Every patch evaluates its height h and height Jacobian at tangent
    coordinates eta. Chart patches also carry chord_solve(v, t): for unit
    tangent directions v (K, m) and chord radii t (K,) > 0 it returns
    (xi, h, grad h), the radius xi >= 0 with xi^2 + |h(xi v)|^2 = t^2 and
    the height data at that point, from one Newton solve per row in the
    chart parameters. Patches without it (mesh fits) are inverted along
    the ray by `radial.radial_inverse`.
    """

    base_point: np.ndarray        # (n,)
    tangent: np.ndarray           # (n, m) orthonormal, oriented
    normal: np.ndarray            # (n, n-m) orthonormal
    radius: float                 # validated radius
    height: object                # eta (..., m) -> (..., n-m)
    height_jacobian: object       # eta (..., m) -> (..., n-m, m)
    chord_solve: object = None    # (v, t) -> (xi, h, grad h), chart patches
    kind: str = "analytic"
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


def _chart_patch(surface: ChartSurface, chart_idx: int, u0: np.ndarray,
                 radius: float, shrink=True, measure_bound=True) -> GraphPatch:
    chart = surface.charts[chart_idx]
    u0 = np.atleast_1d(np.asarray(u0, dtype=float))
    if chart.repatch is not None:
        chart, u0 = chart.repatch(u0)
    x0 = chart.value(u0)
    jac0 = chart.jacobian(u0)
    tangent, normal = orthonormal_frames(jac0)
    A0 = np.linalg.inv(tangent.T @ jac0)

    def solve_params(eta, tol=1e-13, max_iter=60):
        eta = np.asarray(eta, dtype=float)
        single = eta.ndim == 1
        eta2 = eta[None] if single else eta
        u = u0 + eta2 @ A0.T
        target = eta2 + (tangent.T @ x0)
        tol_row = tol * (1.0 + np.linalg.norm(eta2, axis=-1))
        idx = np.arange(len(eta2))
        for _ in range(max_iter):
            res = chart.value(u[idx]) @ tangent - target[idx]
            bad = np.max(np.abs(res), axis=-1) > tol_row[idx]
            if not bad.any():
                idx = idx[:0]
                break
            sel = idx[bad]
            step = _solve_small(_project(tangent, chart.jacobian(u[sel])),
                                res[bad])
            # clamp wild steps near chart degeneracies
            u[sel] -= np.clip(step, -1.0, 1.0)
            idx = sel
        if len(idx):
            raise PatchRadiusError(
                "graph-patch Newton did not converge inside the requested "
                f"radius (chart {chart_idx})")
        return u[0] if single else u

    def height(eta):
        eta = np.asarray(eta, dtype=float)
        u = solve_params(eta)
        d = chart.value(u) - x0
        return d @ normal

    def grad_height(J):
        # (N^T J)(T^T J)^-1 with the inverse in closed form
        return np.einsum("...ci,...ij->...cj", _project(normal, J),
                         _inv_small(_project(tangent, J)))

    def height_jacobian(eta):
        return grad_height(chart.jacobian(solve_params(
            np.asarray(eta, dtype=float))))

    # Absolute stopping floor of the chord Newton: 16 ulps of the
    # coordinates, above the rounding that x(u) - x0 leaves in the residuals
    # (a floor near one ulp stalls at the smallest radii).
    floor = 16.0 * np.finfo(float).eps * (float(np.linalg.norm(x0))
                                           + float(radius))

    def chord_solve(v, t, max_iter=60):
        """(xi, h, grad h) at chord distance t along tangent directions v.

        Newton in the chart parameter u, one row per (v, t), on
        |x(u) - x0| = t together with <v_perp, T^T (x(u) - x0)> = 0 for
        m = 2 (the distance equation alone for m = 1); the converged point
        must lie on the ray's side, <v, T^T (x(u) - x0)> > 0. xi is read
        as sqrt(t^2 - |h|^2): reading it from T^T (x(u) - x0) cancels to
        about 1e-12 relative at the smallest radii.
        """
        v = np.asarray(v, dtype=float)
        t = np.asarray(t, dtype=float)
        d_out = np.empty((len(t), surface.n))
        J_out = np.empty((len(t), surface.n, surface.m))
        # active rows: parameter, radius, tolerance, row index and, for
        # m = 2, the second equation's ambient direction T v_perp
        uk = u0 + (t[:, None] * v) @ A0.T
        tk, tolk, idx = t, 1e-13 * t + floor, np.arange(len(t))
        pk = (np.stack([-v[:, 1], v[:, 0]], axis=-1) @ tangent.T
              if surface.m == 2 else None)
        for _ in range(max_iter):
            d = chart.value(uk) - x0
            J = chart.jacobian(uk)
            # (|d|^2 - t^2) / (2 t): the distance residual in length units
            res = [(np.einsum("kn,kn->k", d, d) - tk * tk) / (2.0 * tk)]
            if pk is not None:
                res.append(np.einsum("kn,kn->k", d, pk))
            bad = np.abs(res[0]) > tolk
            for r in res[1:]:
                bad |= np.abs(r) > tolk
            n_bad = int(np.count_nonzero(bad))
            if n_bad == 0 or 4 * n_bad < 3 * len(bad):
                # retire the converged rows once they are a quarter of the
                # batch; until then they stay in it with a zero step
                done = ~bad
                d_out[idx[done]] = d[done]
                J_out[idx[done]] = J[done]
                if not n_bad:
                    break
                uk, tk, tolk, idx, d, J = (
                    a[bad] for a in (uk, tk, tolk, idx, d, J))
                res = [r[bad] for r in res]
                pk = None if pk is None else pk[bad]
                bad = bad[bad]
            rows = [np.einsum("kn,knj->kj", d, J) / tk[:, None]]
            if pk is not None:
                rows.append(np.einsum("kn,knj->kj", pk, J))
            step = _solve_small(np.stack(rows, axis=-2),
                                np.stack(res, axis=-1))
            # clamp wild steps near chart degeneracies
            uk = uk - np.where(bad[:, None], np.clip(step, -1.0, 1.0), 0.0)
        else:
            raise NumericalError(
                f"chord Newton did not converge on {len(idx)} rows "
                f"(chart {chart_idx}); is t beyond the patch?")
        if np.any(np.einsum("kj,kj->k", d_out @ tangent, v) <= 0.0):
            raise NumericalError(
                f"chord Newton left the ray's side (chart {chart_idx})")
        h = d_out @ normal
        xi = np.sqrt(np.maximum(t * t - np.einsum("kc,kc->k", h, h), 0.0))
        return xi, h, grad_height(J_out)

    # Validate the radius on a coarse polar grid (rim plus interior rings).
    r = float(radius)
    attempts = 0
    while True:
        try:
            if surface.m == 1:
                probe = np.array([[r], [-r], [0.5 * r], [-0.5 * r]])
            else:
                ang = np.linspace(0, 2 * math.pi, 12, endpoint=False)
                dirs = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
                rads = np.array([0.35, 0.7, 0.98]) * r
                probe = (dirs[None] * rads[:, None, None]).reshape(-1, 2)
            solve_params(probe)
            break
        except PatchRadiusError:
            if not shrink:
                raise
            attempts += 1
            r *= 0.85
            if attempts > 40:
                raise
    patch = GraphPatch(base_point=x0, tangent=tangent, normal=normal,
                       radius=r, height=height,
                       height_jacobian=height_jacobian,
                       chord_solve=chord_solve, kind="chart",
                       meta={"chart_index": chart_idx, "param": u0.copy()})
    if measure_bound:
        patch.derivative_bound = patch.measure_derivative_bound(
            n_angular=8, n_radial=4)
    return patch


def fit_quadratic_patch(base_point, points, m, init_tangent=None,
                        iterations=4):
    """Weighted LSQ quadratic graph fit h(eta) = eta^T A eta / 2 around base.

    Returns (tangent, normal, coeffs, rms) where coeffs has shape
    (n-m, m, m) (symmetric per normal component). The frame is rotated
    between passes so the fitted linear term vanishes, matching the
    graph-patch normalization h(0)=0, grad h(0)=0. Orientation of the
    returned frame is arbitrary; callers fix it against their convention.
    """
    base = np.asarray(base_point, dtype=float)
    pts = np.asarray(points, dtype=float)
    n = base.shape[0]
    d = pts - base
    if len(pts) < (m * (m + 1)) // 2 + m:
        raise NumericalError("not enough neighbors for a quadratic fit")
    if init_tangent is not None:
        tangent, normal = orthonormal_frames(np.asarray(init_tangent, dtype=float))
    else:
        _, _, vt = np.linalg.svd(d, full_matrices=True)
        tangent, normal = orthonormal_frames(vt[:m].T)
    scale = float(np.mean(np.linalg.norm(d, axis=-1)))
    w = np.exp(-(np.linalg.norm(d, axis=-1) / scale) ** 2)
    quad_idx = [(i, j) for i in range(m) for j in range(i, m)]
    quad = None
    rms = math.inf
    for it in range(iterations + 1):
        eta = d @ tangent
        zeta = d @ normal
        cols = [eta[:, i] for i in range(m)]
        for (i, j) in quad_idx:
            fac = 0.5 if i == j else 1.0
            cols.append(fac * eta[:, i] * eta[:, j])
        X = np.stack(cols, axis=-1) * w[:, None]
        Y = zeta * w[:, None]
        sol, *_ = np.linalg.lstsq(X, Y, rcond=None)
        lin = sol[:m]            # (m, n-m)
        quad = sol[m:]           # (n_quad, n-m)
        rms = float(np.sqrt(np.mean((X @ sol - Y) ** 2)))
        if np.max(np.abs(lin)) < 1e-13 or it == iterations:
            break
        # fold the linear term into the frame and refit
        tangent, normal = orthonormal_frames(tangent + normal @ lin.T)
    coeffs = np.zeros((n - m, m, m))
    for k, (i, j) in enumerate(quad_idx):
        coeffs[:, i, j] = quad[k]
        coeffs[:, j, i] = quad[k]
    return tangent, normal, coeffs, rms


def _mesh_patch(mesh: TriMesh, vertex: int, radius: float | None,
                measure_bound=True) -> GraphPatch:
    if mesh.m == 2 and mesh.n != 3:
        raise UnsupportedInputError("mesh graph patches support m=2 only in R^3")
    rings = mesh.vertex_rings(depth=2)[vertex]
    base = mesh.vertices[vertex]
    pts = mesh.vertices[rings]
    tangent, normal, coeffs, rms = fit_quadratic_patch(base, pts, mesh.m)
    if mesh.m == 1:
        # orient the tangent along the outgoing winding edge
        out_edges = mesh.faces[mesh.faces[:, 0] == vertex]
        if len(out_edges):
            edge_dir = mesh.vertices[out_edges[0, 1]] - base
            if float(tangent[:, 0] @ edge_dir) < 0:
                tangent = -tangent   # quadratic height is even: coeffs keep
        new_normal = np.array([-tangent[1, 0], tangent[0, 0]]).reshape(2, 1)
        coeffs = coeffs * float(np.sign(new_normal[:, 0] @ normal[:, 0]))
        normal = new_normal
    else:
        # orient against the face-winding normal
        vf = mesh.vertex_faces()[vertex]
        ref_normal = mesh.face_normals()[vf].mean(axis=0)
        if float(normal[:, 0] @ ref_normal) < 0:
            normal = -normal
            coeffs = -coeffs
        cross = np.cross(tangent[:, 0], tangent[:, 1])
        if float(cross @ normal[:, 0]) < 0:
            tangent = tangent[:, ::-1].copy()
            coeffs = coeffs[:, ::-1, :][:, :, ::-1].copy()
    extent = 0.9 * float(np.max(np.linalg.norm(pts - base, axis=-1)))
    r = min(float(radius), extent) if radius is not None else extent

    def height(eta):
        eta = np.asarray(eta, dtype=float)
        vals = 0.5 * np.einsum("...i,cij,...j->...c", eta, coeffs, eta)
        return vals

    def height_jacobian(eta):
        eta = np.asarray(eta, dtype=float)
        return np.einsum("cij,...j->...ci", coeffs, eta)

    patch = GraphPatch(base_point=base, tangent=tangent, normal=normal,
                       radius=r, height=height,
                       height_jacobian=height_jacobian, kind="mesh-fit",
                       fit_residual=rms,
                       meta={"vertex": int(vertex), "coeffs": coeffs})
    if measure_bound:
        patch.derivative_bound = patch.measure_derivative_bound()
    return patch


def _resolve_chart_locator(surface: ChartSurface, locator):
    if isinstance(locator, tuple) and len(locator) == 2 and np.isscalar(locator[0]):
        return int(locator[0]), np.atleast_1d(np.asarray(locator[1], dtype=float))
    return 0, np.atleast_1d(np.asarray(locator, dtype=float))


def tangent_frame(surface, locator):
    """Orthonormal (tangent, normal) frames at a point of the surface."""
    if isinstance(surface, ChartSurface):
        idx, u = _resolve_chart_locator(surface, locator)
        jac = surface.charts[idx].jacobian(u)
        return orthonormal_frames(jac)
    if isinstance(surface, TriMesh):
        patch = _mesh_patch(surface, int(locator), None)
        return patch.tangent, patch.normal
    raise UnsupportedInputError(f"unsupported surface type {type(surface)!r}")


def graph_patch_at(surface, locator, radius, shrink=True,
                   measure_bound=True) -> GraphPatch:
    """Graph patch of the surface at the located point.

    Returns the largest validated radius <= request; raises PatchRadiusError
    when shrink=False and the requested radius is not graph-representable.
    measure_bound=False skips the derivative-bound sampling (hot loops).
    """
    if isinstance(surface, ChartSurface):
        idx, u = _resolve_chart_locator(surface, locator)
        return _chart_patch(surface, idx, u, radius, shrink=shrink,
                            measure_bound=measure_bound)
    if isinstance(surface, TriMesh):
        return _mesh_patch(surface, int(locator), radius,
                           measure_bound=measure_bound)
    raise UnsupportedInputError(f"unsupported surface type {type(surface)!r}")


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
    if isinstance(surface, ChartSurface):
        idx, u = _resolve_chart_locator(surface, locator)
        chart = surface.charts[idx]
        jac = chart.jacobian(u)
        hess = chart.hessian(u)
        tangent, normal = orthonormal_frames(jac)
        A = np.linalg.inv(tangent.T @ jac)
        # pull the ambient Hessian back through eta-coordinates
        sff = np.einsum("nc,npq,pa,qb->abc", normal, hess, A, A)
        return CurvatureData(second_fundamental=sff, tangent=tangent,
                             normal=normal)
    if isinstance(surface, TriMesh):
        patch = _mesh_patch(surface, int(locator), None)
        coeffs = patch.meta["coeffs"]  # (n-m, m, m)
        sff = np.moveaxis(coeffs, 0, -1)
        return CurvatureData(second_fundamental=sff, tangent=patch.tangent,
                             normal=patch.normal)
    raise UnsupportedInputError(f"unsupported surface type {type(surface)!r}")


def default_patch_radius(surface, samples=8, factor=0.9, scale=0.25,
                         cap_by_separation=True):
    """Curvature-capped patch radius: factor / max principal curvature.

    For multi-component surfaces the radius is additionally capped by 0.45x
    the minimal cross-component separation so a patch ball stays a single
    graph component; callers that treat cross-component interactions
    separately (per-pair true kernel) disable that cap, since their chord
    balls only ever see one sheet.
    """
    quad = surface.quadrature(scale) if isinstance(surface, ChartSurface) else None
    kmax = 0.0
    if isinstance(surface, ChartSurface):
        take = np.linspace(0, len(quad.points) - 1, samples).astype(int)
        for i in take:
            data = curvature_at(surface,
                                (int(quad.chart_index[i]), quad.params[i]))
            if data.second_fundamental.shape[2] == 1:
                kmax = max(kmax, float(np.max(np.abs(data.principal))))
            else:
                kmax = max(kmax, data.hs_norm)
        sep = _component_separation(quad.points, quad.component)
    else:
        verts = np.linspace(0, surface.num_vertices - 1, samples).astype(int)
        for v in verts:
            data = curvature_at(surface, int(v))
            if data.second_fundamental.shape[2] == 1:
                kmax = max(kmax, float(np.max(np.abs(data.principal))))
            else:
                kmax = max(kmax, data.hs_norm)
        comp = surface.components()
        sep = _component_separation(surface.vertices, comp)
    r = factor / kmax if kmax > 0 else math.inf
    if cap_by_separation and sep < math.inf:
        r = min(r, 0.45 * sep)
    if not math.isfinite(r):
        r = 1.0
    return r


def _component_separation(points, component):
    comps = np.unique(component)
    if len(comps) < 2:
        return math.inf
    best = math.inf
    for a in comps:
        pa = points[component == a]
        pb = points[component != a]
        d = np.sqrt(np.min(np.sum((pa[:, None] - pb[None]) ** 2, axis=-1)))
        best = min(best, float(d))
    return best


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
    if isinstance(surface, ChartSurface):
        quad = surface.quadrature(0.25)
        take = np.linspace(0, len(quad.points) - 1, samples).astype(int)
        locators = [(int(quad.chart_index[i]), quad.params[i]) for i in take]
        volume = quad.total
        all_points = quad.points
        all_comp = quad.component
        base_pts = quad.points[take]
    else:
        take = np.linspace(0, surface.num_vertices - 1,
                           min(samples, surface.num_vertices)).astype(int)
        locators = [int(v) for v in take]
        volume = surface.total_volume()
        all_points = surface.vertices
        all_comp = surface.components()
        base_pts = surface.vertices[take]
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
