"""Tangent frames, local graph patches, curvature, and patch-class checks.

A graph patch at a surface point x is the map h from a ball in the tangent
plane to the normal space with h(0)=0, grad h(0)=0, so that eta |-> x +
T eta + N h(eta) parametrizes the surface near x. Patches are built for a
stack of points at once (`PatchStack`, one leading node axis on every
array; one point is a stack of one node), and the patch-class check
measures the derivative bounds of a whole stack in one pass. A surface
builds one stack for all the points it is given. Chart surfaces get h
and the points at a given chord distance (`PatchStack.chord_solve`) from
one Newton in chart parameters over all rows of all nodes, whatever their
charts; meshes get h from weighted least-squares quadratic fits over
2-ring neighborhoods, all vertices in one batch, and solve chord rows in
closed form. A vertex fit is one solve in a seed frame, then the fitted
graph's tangent plane (`fit_tangent_frames`, the frame step the KS flow
reads) and its second fundamental form there (`fit_curvature`), both in
closed form. `orthonormal_frames` is the one orthonormalizer of charts
and meshes. Every step is written with plain (non-conjugating) products,
so complex-step derivatives go through. The surfaces build their own
patches and curvatures (`patches_at` and `curvatures` of the surface
protocol); the functions here reach them through that protocol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import (NumericalError, PreconditionError, RankDeficiencyError,
                      UnsupportedInputError)
from ..quadrature import PairPass
from .surface import as_surface

__all__ = [
    "orthonormal_frames",
    "PatchStack",
    "PatchClassParams",
    "PatchValidationReport",
    "graph_patch_at",
    "validate_patch_class",
    "default_patch_radius",
    "fit_tangent_frames",
    "fit_tangent_frames_adjoint",
    "orthonormal_frames_adjoint",
    "fit_curvature",
]


def _floating(a):
    """a as a float array, or as a complex one when it is complex."""
    a = np.asarray(a)
    return a.astype(np.result_type(a.dtype, float), copy=False)


def dot(a, b):
    """Plain (non-conjugating) dot product along the last axis, accumulated
    in place in component order: the bits of np.sum(a * b, axis=-1), which
    adds a short axis in order too, at a fraction of its cost."""
    out = a[..., 0] * b[..., 0]
    for i in range(1, a.shape[-1]):
        out += a[..., i] * b[..., i]
    return out


def cross(a, b):
    """Cross product of 3-vector stacks along the last axis, as plain
    products written into one output (np.cross costs twice as much on
    small stacks)."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), np.result_type(a, b))
    x, y, z = out[..., 0], out[..., 1], out[..., 2]
    np.multiply(a1, b2, out=x)
    x -= a2 * b1
    np.multiply(a2, b0, out=y)
    y -= a0 * b2
    np.multiply(a0, b1, out=z)
    z -= a1 * b0
    return out


def orthonormal_frames(jac) -> tuple[np.ndarray, np.ndarray]:
    """Split R^n into tangent/normal frames from a (..., n, m) Jacobian stack.

    Gram-Schmidt on the tangent columns in parameter order keeps their
    orientation; the normal frame completes a basis with det [T | N] > 0.
    (n, m) is one of (2, 1), (3, 1) and (3, 2). Every product is a plain
    (non-conjugating) one, so complex-step derivatives go through. The rank
    check reads the real parts of the Gram-Schmidt pivots, row by row and
    free of scale: each row's smallest pivot must be nonzero and at least
    1e-13 times its largest, so a chart of any size passes as long as it
    is well conditioned.
    """
    jac = _floating(jac)
    n, m = jac.shape[-2:]
    if (n, m) not in ((2, 1), (3, 1), (3, 2)):
        raise UnsupportedInputError(
            f"orthonormal frames need (n, m) in (2, 1), (3, 1), (3, 2), "
            f"got ({n}, {m})")
    with np.errstate(divide="ignore", invalid="ignore"):
        t = jac[..., 0]
        pivots = [np.sqrt(dot(t, t))]
        t = t / pivots[0][..., None]
        if m == 2:
            b = jac[..., 1]
            b = b - dot(t, b)[..., None] * t
            pivots.append(np.sqrt(dot(b, b)))
            b = b / pivots[1][..., None]
    piv = np.abs(np.array(pivots).real)
    low, high = piv.min(axis=0), piv.max(axis=0)
    if not np.all((low > 0.0) & (low >= 1e-13 * high)):
        raise RankDeficiencyError("chart Jacobian is rank deficient")
    if m == 2:
        return np.stack([t, b], axis=-1), cross(t, b)[..., None]
    if n == 2:
        return t[..., None], np.stack([-t[..., 1], t[..., 0]], axis=-1)[..., None]
    # the axis least aligned with t, taken off t, then t x that
    e = (np.arange(3) == np.argmin(np.abs(t.real), axis=-1)[..., None])
    e = e - dot(t, e)[..., None] * t
    e = e / np.sqrt(dot(e, e))[..., None]
    return t[..., None], np.stack([e, cross(t, e)], axis=-1)


def unit_adjoint(a, u, u_bar):
    """Gradient of <u_bar, u> with respect to a, u = a / |a| (row stacks
    along the last axis)."""
    u_bar = u_bar - dot(u_bar, u)[..., None] * u
    return u_bar / np.sqrt(dot(a, a))[..., None]


def orthonormal_frames_adjoint(jac, tangent_bar, normal_bar):
    """Reverse-mode derivative of `orthonormal_frames`: the gradient of
    <tangent_bar, T> + <normal_bar, N>, (T, N) = orthonormal_frames(jac),
    with respect to jac. normal_bar None means N is not read. Real input.
    """
    jac = np.asarray(jac, dtype=float)
    n, m = jac.shape[-2:]
    a0 = jac[..., 0]
    t = a0 / np.sqrt(dot(a0, a0))[..., None]
    t_bar = tangent_bar[..., 0]
    if m == 2:
        a1 = jac[..., 1]
        proj = dot(t, a1)[..., None]
        b0 = a1 - proj * t
        b = b0 / np.sqrt(dot(b0, b0))[..., None]
        b_bar = tangent_bar[..., 1]
        if normal_bar is not None:             # N = t x b
            t_bar = t_bar + cross(b, normal_bar[..., 0])
            b_bar = b_bar + cross(normal_bar[..., 0], t)
        b0_bar = unit_adjoint(b0, b, b_bar)
        proj_bar = -dot(b0_bar, t)[..., None]
        t_bar = t_bar - proj * b0_bar + proj_bar * a1
        return np.stack([unit_adjoint(a0, t, t_bar), b0_bar + proj_bar * t],
                        axis=-1)
    if normal_bar is not None and n == 2:      # N = (-t_1, t_0)
        t_bar = t_bar + np.stack([normal_bar[..., 1, 0],
                                  -normal_bar[..., 0, 0]], axis=-1)
    elif normal_bar is not None:               # N = [u, t x u]
        e = (np.arange(3) == np.argmin(np.abs(t), axis=-1)[..., None])
        te = dot(t, e)[..., None]
        f = e - te * t
        u = f / np.sqrt(dot(f, f))[..., None]
        t_bar = t_bar + cross(u, normal_bar[..., 1])
        f_bar = unit_adjoint(f, u, normal_bar[..., 0]
                             + cross(normal_bar[..., 1], t))
        t_bar = t_bar - te * f_bar - dot(f_bar, t)[..., None] * e
    return unit_adjoint(a0, t, t_bar)[..., None]


# ----------------------------------------------------------------------
# graph patches
# ----------------------------------------------------------------------

# (angles, radii) of the polar grid that measures a patch's derivative bound.
BOUND_GRID = (16, 16)


@dataclass
class PatchStack:
    """Graph patches of B surface points, every array with a leading node axis.

    The callables take rows tagged with their node (an index into the
    stack): height(node, eta) and height_jacobian(node, eta) for eta
    (..., m) and node of shape eta.shape[:-1], and chord_solve(node, v, t)
    for unit tangent directions v (K, m) and chord radii t (K,) > 0, which
    returns (xi, h, grad h): the radius xi >= 0 with xi^2 + |h(xi v)|^2 =
    t^2 and the height data at that point. Chart stacks solve all rows by
    one Newton in chart parameters, each row on its node's chart; mesh
    stacks in closed form on the vertex's quadratic fit, h(eta) = eta^T C
    eta / 2 over the fitted graph's tangent plane. Errors carry every
    failing row's node. No radius is checked here (`radial_profile`).
    """

    base_point: np.ndarray        # (B, n)
    tangent: np.ndarray           # (B, n, m)
    normal: np.ndarray            # (B, n, n-m)
    radii: np.ndarray             # (B,) requested radii (meshes: capped)
    height: object
    height_jacobian: object
    chord_solve: object
    fit_residual: np.ndarray      # (B,)

    @property
    def m(self) -> int:
        return self.tangent.shape[-1]

    @property
    def radius(self) -> float:
        """The smallest radius of the stack."""
        return float(self.radii.min())

    def __len__(self):
        return len(self.radii)

    def take(self, idx):
        """The stack of this stack's nodes idx (ascending): its arrays are
        their rows and its callables call this stack's on them, so nothing
        is built again. Errors name nodes of the new stack."""
        idx = np.asarray(idx)

        def on_rows(call):
            def call_rows(node, *args):
                try:
                    return call(idx[node], *args)
                except NumericalError as exc:
                    exc.nodes = np.searchsorted(idx, exc.nodes).tolist()
                    raise
            return call_rows

        return PatchStack(base_point=self.base_point[idx],
                          tangent=self.tangent[idx], normal=self.normal[idx],
                          radii=self.radii[idx], height=on_rows(self.height),
                          height_jacobian=on_rows(self.height_jacobian),
                          chord_solve=on_rows(self.chord_solve),
                          fit_residual=self.fit_residual[idx])

    def derivative_bounds(self):
        """sup |d^mu h| of each node's patch over a polar grid, 0 <= |mu| <= 3.

        The grid has BOUND_GRID (angles, radii) points out to 0.98 of the
        node's radius. Orders 0-1 come from the patch callables; orders 2
        and 3 use central differences of the height Jacobian, step
        max(r / 256, 1e-6). Every node's rows go through one flat call of
        each callable. Returns (B,).
        """
        B, m = len(self), self.m
        n_angular, n_radial = BOUND_GRID
        radii = np.linspace(self.radii / n_radial, self.radii * 0.98,
                            n_radial, axis=-1)                 # (B, n_radial)
        if m == 1:
            dirs = np.array([[1.0], [-1.0]])
        else:
            angles = np.linspace(0.0, 2.0 * math.pi, n_angular,
                                 endpoint=False)
            dirs = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
        eta = (dirs[None, None] * radii[..., None, None]).reshape(-1, m)
        node = np.repeat(np.arange(B), len(eta) // B)
        step = np.repeat(np.maximum(self.radii / 256.0, 1e-6), len(eta) // B)

        def per_node(a):
            return np.abs(a).reshape(B, -1).max(axis=1)

        jac = self.height_jacobian(node, eta)
        sup = np.maximum(per_node(self.height(node, eta)), per_node(jac))
        for axis in range(m):
            de = np.zeros_like(eta)
            de[:, axis] = step
            plus = self.height_jacobian(node, eta + de)
            minus = self.height_jacobian(node, eta - de)
            d2 = (plus - minus) / (2 * step[:, None, None])
            d3 = (plus - 2.0 * jac + minus) / step[:, None, None] ** 2
            sup = np.maximum(sup, np.maximum(per_node(d2), per_node(d3)))
        return sup


def _fit_design(d, mask, tangent, normal):
    """Unweighted design [X | Y] of the vertex fit, its row weights and
    what they are made of: (cols (P, R, k + n - m), w (P, R), dist2
    (P, R), scale (P, 1, 1), eta (P, R, m), quad_idx)."""
    m = tangent.shape[-1]
    quad_idx = [(i, j) for i in range(m) for j in range(i, m)]
    count = mask.sum(axis=1)
    dist2 = dot(d, d)
    scale = ((np.sqrt(dist2) * mask).sum(axis=1) / count)[:, None, None]
    w = np.exp(-dist2 / scale[..., 0] ** 2) * mask
    coords = d @ np.concatenate([tangent, normal], axis=-1)
    eta = coords[..., :m] / scale
    cols = [eta[..., i] for i in range(m)]
    cols += [(0.5 if i == j else 1.0) * eta[..., i] * eta[..., j]
             for (i, j) in quad_idx]
    cols += [coords[..., c] for c in range(m, coords.shape[-1])]
    return np.stack(cols, axis=-1), w, dist2, scale, eta, quad_idx


def fit_tangent_frames(offsets, mask, tangent, normal):
    """Frame step of the quadratic vertex fit, batched.

    offsets (P, R, n) are neighbour points minus each base point, padded
    rows flagged 0 in mask (P, R); tangent (P, n, m) and normal (P, n, n-m)
    are an oriented orthonormal seed frame of each patch. One weighted
    least-squares solve in the seed frame fits h(eta) = g eta + eta^T C
    eta / 2, rows weighted by exp(-(|d| / mean |d|)^2) over the unpadded
    rows and columns scaled by the mean offset s (eta / s, quadratic terms
    / s^2), by normal equations. The fitted graph's tangent plane at the
    vertex is spanned by B = T + N g^T. Returns (tangent, normal, solve):
    the frames of B, with the seed's orientation, and what `fit_curvature`
    and `fit_tangent_frames_adjoint` read (the design, the normal equations
    and their solution). Complex input goes through (complex step). Too
    few neighbours for the fit's m + m (m + 1) / 2 unknowns is a property
    of the mesh: UnsupportedInputError names the first such vertex.
    """
    d = _floating(offsets)
    mask = np.asarray(mask, dtype=float)
    m = tangent.shape[-1]
    k = m + m * (m + 1) // 2
    count = mask.sum(axis=1)
    short = np.flatnonzero(count < k)
    if len(short):
        raise UnsupportedInputError(
            f"vertex {short[0]} has {count[short[0]]:.0f} vertices in its "
            f"2-ring, and the quadratic fit needs {k}")
    design = _fit_design(d, mask, tangent, normal)
    cols, w, _, scale, _, _ = design
    XY = cols * w[..., None]                               # [X | Y] weighted
    G = np.swapaxes(XY, -1, -2) @ XY
    sol = np.linalg.solve(G[:, :k, :k], G[:, :k, k:])      # (P, k, n-m)
    tilted = tangent + normal @ np.swapaxes(sol[:, :m] / scale, -1, -2)
    return (*orthonormal_frames(tilted),
            (normal, tilted, design, XY, G, sol, count))


def fit_tangent_frames_adjoint(offsets, mask, tangent, normal, solve,
                               tangent_bar, normal_bar):
    """Reverse-mode derivative of `fit_tangent_frames`.

    From the forward's inputs and its solve, whose design and normal
    equations it reads as they are, the gradients of <tangent_bar,
    T'> + <normal_bar, N'>, (T', N') the returned frames and normal_bar
    None when N' is not read, with respect to offsets (P, R, n), tangent
    (P, n, m) and normal (P, n, n-m), in that order. It runs the
    forward backwards: Gram-Schmidt, the tilt B = T + N g^T, the normal
    equations (one transposed solve per patch), the weighted design and the
    ring scale s. Real input only.
    """
    d = np.asarray(offsets, dtype=float)
    mask = np.asarray(mask, dtype=float)
    _, tilted, design, XY, G, sol, count = solve
    m, k = tangent.shape[-1], sol.shape[1]
    cols, w, dist2, scale, eta, quad_idx = design
    s = scale[:, 0, 0]
    # the tilt, g = sol[:m] / s
    B_bar = orthonormal_frames_adjoint(tilted, tangent_bar, normal_bar)
    g = sol[:, :m] / scale
    g_bar = np.swapaxes(B_bar, -1, -2) @ normal             # (P, m, n-m)
    s_bar = -(g_bar * g).sum(axis=(1, 2)) / s
    # sol = A^-1 R with [A | R] the first k rows of G = XY^T XY
    sol_bar = np.zeros_like(sol)
    sol_bar[:, :m] = g_bar / scale
    Z = np.linalg.solve(np.swapaxes(G[:, :k, :k], -1, -2), sol_bar)
    G_bar = np.zeros_like(G)
    G_bar[:, :k, :k] = -Z @ np.swapaxes(sol, -1, -2)
    G_bar[:, :k, k:] = Z
    XY_bar = XY @ (G_bar + np.swapaxes(G_bar, -1, -2))
    # XY = cols w: back to the scaled coordinates eta and the heights
    cols_bar = XY_bar * w[..., None]
    w_bar = dot(XY_bar, cols)
    eta_bar = cols_bar[..., :m].copy()
    for q, (i, j) in enumerate(quad_idx):
        c = (0.5 if i == j else 1.0) * cols_bar[..., m + q]
        eta_bar[..., i] += c * eta[..., j]
        eta_bar[..., j] += c * eta[..., i]
    s_bar -= dot(eta_bar, eta).sum(axis=1) / s
    coords_bar = np.concatenate([eta_bar / scale, cols_bar[..., k:]], axis=-1)
    frame = np.concatenate([tangent, normal], axis=-1)
    d_bar = coords_bar @ np.swapaxes(frame, -1, -2)
    frame_bar = np.swapaxes(d, -1, -2) @ coords_bar
    # w = exp(-|d|^2 / s^2) and s the mean |d| over the ring
    s_bar += 2.0 * (w_bar * w * dist2).sum(axis=1) / s ** 3
    r = np.sqrt(np.where(mask > 0.0, dist2, 1.0))
    dist2_bar = (-w_bar * w / (s * s)[:, None]
                 + (s_bar / count)[:, None] * mask / (2.0 * r))
    d_bar += 2.0 * dist2_bar[..., None] * d
    return (d_bar, B_bar + frame_bar[..., :m],
            B_bar @ g + frame_bar[..., m:])


def fit_curvature(tangent, normal, solve):
    """Curvature step of the quadratic vertex fit, batched.

    From the frame step's (tangent, normal, solve): the second fundamental
    form of the fitted graph in the new frame (T', N') is L^T (N'^T N C) L
    per normal component, L = (T'^T B)^-1, so the patch has h(0) = 0 and
    grad h(0) = 0 by construction. Returns (coeffs (P, n-m, m, m),
    rms (P,)), coeffs symmetric per normal component and rms the weighted
    residual of the one solve.
    """
    seed_normal, tilted, design, XY, _, sol, count = solve
    _, _, _, scale, _, quad_idx = design
    P, k, c = sol.shape
    m = tangent.shape[-1]
    quad = sol[:, m:] / scale ** 2                        # (P, q, n-m)
    C = np.zeros((P, c, m, m), dtype=sol.dtype)
    for q, (i, j) in enumerate(quad_idx):
        C[:, :, i, j] = C[:, :, j, i] = quad[:, q]
    L = np.linalg.inv(np.swapaxes(tangent, -1, -2) @ tilted)[:, None]
    C = (np.swapaxes(normal, -1, -2) @ seed_normal) @ C.reshape(P, c, -1)
    coeffs = np.swapaxes(L, -1, -2) @ C.reshape(P, c, m, m) @ L
    res = XY[..., :k] @ sol - XY[..., k:]
    rms = np.sqrt((res * res).sum(axis=(1, 2)) / (count * c))
    return 0.5 * (coeffs + np.swapaxes(coeffs, -1, -2)), rms


def graph_patch_at(surface, locators, radius):
    """The `PatchStack` of a list of located surface points, built in one
    batch.

    Each node gets the requested radius, which meshes cap at 0.9x the
    vertex's 2-ring extent (radius None takes the cap); `radial_profile`
    shrinks a radius that its chord rows or profile do not accept.
    """
    return as_surface(surface).patches_at(locators, radius)


# ----------------------------------------------------------------------
# curvature
# ----------------------------------------------------------------------

def umbilicity_defect(sff):
    """|h11 - h22|^2 + 4 |h12|^2 of second fundamental forms (..., 2, 2, c):
    (k1 - k2)^2 on surfaces in R^3."""
    d = sff[..., 0, 0, :] - sff[..., 1, 1, :]
    return np.sum(d * d + 4.0 * sff[..., 0, 1, :] ** 2, axis=-1)


def default_patch_radius(surface):
    """Curvature-capped patch radius: 0.9 / max principal curvature, the
    maximum over 8 nodes spread evenly over the scale-0.25 rule.

    The radius is capped neither by the separation of components nor by
    that of two sheets of one component, so another sheet can lie inside
    a chord ball: on a figure-eight curve whose strands pass 2 delta apart
    the radius is 0.27-0.35 at every delta, and for delta <= 0.1 the other
    strand is inside the ball.
    """
    nodes = as_surface(surface).nodes(0.25)
    take = np.linspace(0, len(nodes.points) - 1, 8).astype(int)
    return curvature_radius(
        surface.curvatures([nodes.locators[i] for i in take])[2])


def curvature_radius(sff):
    """0.9 / the largest curvature of second fundamental forms sff
    (N, m, m, n-m), or 1.0 when that is not finite (flat forms)."""
    if sff.shape[-1] == 1:
        # the largest principal curvature in absolute value
        kmax = float(np.abs(np.linalg.eigvalsh(sff[..., 0])).max())
    else:
        kmax = float(np.sqrt(np.sum(sff ** 2, axis=(1, 2, 3))).max())
    r = 0.9 / kmax if kmax > 0 else math.inf
    return r if math.isfinite(r) else 1.0


# ----------------------------------------------------------------------
# patch-class validation
# ----------------------------------------------------------------------

# Points of the scale-0.25 rule that the patch-class check samples.
PATCH_CLASS_SAMPLES = 24


@dataclass
class PatchClassParams:
    """Uniform-geometry class parameters: the patch radius and the bounds
    on the derivatives of orders 0-3 and on the volume."""

    radius: float
    derivative_bound: float
    volume_bound: float

    def __post_init__(self):
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


def validate_patch_class(surface, params: PatchClassParams):
    """Sampled check of the uniform-geometry class conditions.

    Reports whether PATCH_CLASS_SAMPLES points spread over the scale-0.25
    rule admit graph patches of the class radius with derivative bound b
    (measured as a sup over the 16 x 16 polar grid of `derivative_bounds`,
    and alternatively as a fit residual for discrete data), and whether the
    total volume is within the class bound. The samples form one patch
    stack; a failure on that grid names its samples, which are violations,
    and the stack is built again without them (one that names none is a
    violation of every sample left).
    Report-valued: never raises on failure.

    components_in_ball counts the component labels of the rule's nodes
    within the class radius of each measured sample, so a second sheet of
    the same component inside the ball is not seen.
    """
    nodes = as_surface(surface).nodes(0.25)
    take = np.linspace(0, len(nodes.points) - 1,
                       min(PATCH_CLASS_SAMPLES, len(nodes.points))).astype(int)
    locators = [nodes.locators[i] for i in take]
    reasons = {}
    todo = list(range(len(locators)))          # samples still in the batch
    sups = fits = np.zeros(0)
    while todo:
        try:
            stack = graph_patch_at(surface, [locators[i] for i in todo],
                                   params.radius)
            capped = stack.radii < params.radius * (1 - 1e-9)
            if not capped.any():
                sups, fits = stack.derivative_bounds(), stack.fit_residual
                break
            for k in np.flatnonzero(capped):
                reasons[todo[k]] = (f"validated radius {stack.radii[k]:.6g}"
                                    f" < requested {params.radius:.6g}")
            todo = [i for i, c in zip(todo, capped) if not c]
        except NumericalError as exc:
            failed = exc.nodes or range(len(todo))
            reasons.update((todo[k], str(exc)) for k in failed)
            todo = [i for k, i in enumerate(todo) if k not in failed]
    for i, sup in zip(todo, sups):
        if sup > params.derivative_bound:
            reasons[i] = (f"derivative sup {sup:.6g} exceeds"
                          f" b={params.derivative_bound:.6g}")
    pairs = PairPass(nodes.points[take[todo]], nodes.points, 1, 2, float)
    in_ball = [len(np.unique(nodes.component[near])) for *_, s in pairs
               for near in np.sqrt(s, out=s) < params.radius]
    volume_ok = nodes.volume <= params.volume_bound
    return PatchValidationReport(
        passed=volume_ok and not reasons, volume=nodes.volume,
        volume_ok=volume_ok, sample_count=len(locators),
        violations=[{"locator": str(locators[i]), "reason": reasons[i]}
                    for i in sorted(reasons)],
        b_sup_measured=max([0.0, *map(float, sups)]),
        b_fit_residual=max([0.0, *map(float, fits)]),
        components_in_ball=in_ball,
    )
