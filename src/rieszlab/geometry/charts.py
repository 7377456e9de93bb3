"""Parametric chart surfaces: catalog, quadrature rules, and map wrappers.

A chart is a smooth map from a parameter box in R^m into R^n carrying
analytic first and second derivatives (batched over parameter arrays).
A ChartSurface is a list of charts with orientation fixed by parameter
order, plus per-chart quadrature rules used for global integration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import RankDeficiencyError, UnsupportedInputError

__all__ = [
    "Chart",
    "ChartSurface",
    "SurfaceQuadrature",
    "make_circle",
    "make_sphere",
    "make_ellipsoid",
    "make_torus",
    "make_cylinder_patch",
    "make_graph_patch_surface",
    "make_saddle_surface",
    "make_paraboloid_surface",
    "make_disk",
    "make_disjoint_union",
    "orthonormal_frames",
]


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


class Chart:
    """One smooth parametric piece of a surface.

    value/jacobian/hessian accept parameter arrays of shape (..., m) and
    return (..., n), (..., n, m), (..., n, m, m). repatch, when set, maps a
    base parameter u0 to an equivalent chart that is well conditioned around
    that point (used to move coordinate poles away from patch centers).
    """

    def __init__(self, m, n, value, jacobian, hessian, param_rule,
                 name="chart", component=0, repatch=None):
        self.m = int(m)
        self.n = int(n)
        self.value = value
        self.jacobian = jacobian
        self.hessian = hessian
        self.param_rule = param_rule
        self.name = name
        self.component = int(component)
        self.repatch = repatch


@dataclass
class SurfaceQuadrature:
    """Global integration rule over a chart surface or mesh."""

    points: np.ndarray       # (N, n)
    weights: np.ndarray      # (N,) includes the volume element
    params: np.ndarray       # (N, m) chart parameters (NaN for meshes)
    chart_index: np.ndarray  # (N,) chart id (or -1)
    jacobians: np.ndarray    # (N, n, m)
    spacing: np.ndarray      # (N,) ambient local node spacing estimate
    component: np.ndarray    # (N,) connected-component id

    _frames: tuple | None = field(default=None, repr=False)

    def frames(self):
        """Orthonormal (tangent, normal) stacks, cached."""
        if self._frames is None:
            object.__setattr__(self, "_frames", orthonormal_frames(self.jacobians))
        return self._frames

    @property
    def total(self) -> float:
        return float(np.sum(self.weights))


@dataclass
class ChartSurface:
    """Closed (or open) m-submanifold of R^n given by parametric charts."""

    m: int
    n: int
    charts: list
    closed: bool
    euler_char: int | None
    name: str

    def quadrature(self, scale: float = 1.0) -> SurfaceQuadrature:
        pts, wts, prm, idx, jacs, spc, comp = [], [], [], [], [], [], []
        for k, chart in enumerate(self.charts):
            u, w, du = chart.param_rule(scale)
            jac = chart.jacobian(u)
            gram = np.einsum("...ji,...jk->...ik", jac, jac)
            if self.m == 1:
                vol = np.sqrt(gram[..., 0, 0])
            else:
                vol = np.sqrt(np.linalg.det(gram))
            pts.append(chart.value(u))
            wts.append(w * vol)
            prm.append(u)
            idx.append(np.full(len(w), k, dtype=int))
            jacs.append(jac)
            # Ambient spacing: largest per-axis parameter step times the
            # corresponding Jacobian column length.
            col = np.linalg.norm(jac, axis=-2)
            spc.append(np.max(du * col, axis=-1))
            comp.append(np.full(len(w), chart.component, dtype=int))
        return SurfaceQuadrature(
            points=np.concatenate(pts),
            weights=np.concatenate(wts),
            params=np.concatenate(prm),
            chart_index=np.concatenate(idx),
            jacobians=np.concatenate(jacs),
            spacing=np.concatenate(spc),
            component=np.concatenate(comp),
        )

    @property
    def components(self):
        return sorted({c.component for c in self.charts})


# ----------------------------------------------------------------------
# parameter rules
# ----------------------------------------------------------------------

def _trapezoid_rule(n_base):
    def rule(scale):
        n = max(8, int(round(n_base * scale)))
        t = np.arange(n) * (2.0 * math.pi / n)
        w = np.full(n, 2.0 * math.pi / n)
        return t[:, None], w, np.full((n, 1), 2.0 * math.pi / n)
    return rule


def _sphere_rule(n_theta, n_phi):
    # Gauss-Legendre in cos(theta) avoids the coordinate poles and is
    # spectrally accurate for smooth integrands on spheroidal charts.
    def rule(scale):
        nu = max(6, int(round(n_theta * scale)))
        nv = max(8, int(round(n_phi * scale)))
        x, wx = np.polynomial.legendre.leggauss(nu)
        theta = np.arccos(x[::-1])              # ascending in theta
        wtheta = wx[::-1] / np.sin(theta)       # d(cos theta) -> d(theta)
        phi = np.arange(nv) * (2.0 * math.pi / nv)
        wphi = np.full(nv, 2.0 * math.pi / nv)
        T, P = np.meshgrid(theta, phi, indexing="ij")
        W = np.outer(wtheta, wphi)
        u = np.stack([T.ravel(), P.ravel()], axis=-1)
        dth = np.gradient(theta)
        DT = np.broadcast_to(dth[:, None], T.shape).ravel()
        DP = np.full(u.shape[0], 2.0 * math.pi / nv)
        return u, W.ravel(), np.stack([DT, DP], axis=-1)
    return rule


def _product_rule(ranges, counts, periodic):
    """GL (aperiodic) x trapezoid (periodic) product rule on a 2D box."""
    def rule(scale):
        axes = []
        for (a, b), nb, per in zip(ranges, counts, periodic):
            nn = max(4, int(round(nb * scale)))
            if per:
                t = a + (b - a) * np.arange(nn) / nn
                w = np.full(nn, (b - a) / nn)
                d = np.full(nn, (b - a) / nn)
            else:
                x, wx = np.polynomial.legendre.leggauss(nn)
                t = a + 0.5 * (b - a) * (x + 1.0)
                w = 0.5 * (b - a) * wx
                d = np.gradient(t)
            axes.append((t, w, d))
        (t1, w1, d1), (t2, w2, d2) = axes
        U1, U2 = np.meshgrid(t1, t2, indexing="ij")
        W = np.outer(w1, w2).ravel()
        D1 = np.broadcast_to(d1[:, None], U1.shape).ravel()
        D2 = np.broadcast_to(d2[None, :], U1.shape).ravel()
        u = np.stack([U1.ravel(), U2.ravel()], axis=-1)
        return u, W, np.stack([D1, D2], axis=-1)
    return rule


# ----------------------------------------------------------------------
# catalog
# ----------------------------------------------------------------------

def make_circle(radius=1.0, center=(0.0, 0.0), base_nodes=256, component=0):
    r = float(radius)
    c = np.asarray(center, dtype=float)

    def value(u):
        th = u[..., 0]
        return c + r * np.stack([np.cos(th), np.sin(th)], axis=-1)

    def jacobian(u):
        th = u[..., 0]
        return r * np.stack([-np.sin(th), np.cos(th)], axis=-1)[..., None]

    def hessian(u):
        th = u[..., 0]
        return -r * np.stack([np.cos(th), np.sin(th)], axis=-1)[..., None, None]

    chart = Chart(1, 2, value, jacobian, hessian, _trapezoid_rule(base_nodes),
                  name="circle", component=component)
    return ChartSurface(1, 2, [chart], True, 0, f"circle(r={r})")


def _rotation_taking_ex(target):
    """Proper rotation R with R e_x = target (unit vector)."""
    t = np.asarray(target, dtype=float)
    t = t / np.linalg.norm(t)
    e = np.array([1.0, 0.0, 0.0])
    v = np.cross(e, t)
    c = float(e @ t)
    s = float(np.linalg.norm(v))
    if s < 1e-12:
        if c > 0:
            return np.eye(3)
        return np.diag([-1.0, 1.0, -1.0])
    vx = np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])
    return np.eye(3) + vx + vx @ vx * ((1.0 - c) / s ** 2)


def _unit_sphere_maps():
    def value(u):
        th, ph = u[..., 0], u[..., 1]
        s, co = np.sin(th), np.cos(th)
        return np.stack([s * np.cos(ph), s * np.sin(ph), co], axis=-1)

    def tangents(u):
        th, ph = u[..., 0], u[..., 1]
        s, co = np.sin(th), np.cos(th)
        sp, cp = np.sin(ph), np.cos(ph)
        d_th = np.stack([co * cp, co * sp, -s], axis=-1)
        d_ph = np.stack([-s * sp, s * cp, np.zeros_like(s)], axis=-1)
        return d_th, d_ph

    def hessian(u):
        th, ph = u[..., 0], u[..., 1]
        s, co = np.sin(th), np.cos(th)
        sp, cp = np.sin(ph), np.cos(ph)
        z = np.zeros_like(s)
        d_tt = np.stack([-s * cp, -s * sp, -co], axis=-1)
        d_tp = np.stack([-co * sp, co * cp, z], axis=-1)
        d_pp = np.stack([-s * cp, -s * sp, z], axis=-1)
        return np.stack([np.stack([d_tt, d_tp], axis=-1),
                         np.stack([d_tp, d_pp], axis=-1)], axis=-1)

    return value, tangents, hessian


def _spheroid_chart(ax, ctr, rot, base_nodes, component, name):
    """Chart u -> ctr + diag(ax) rot sph(u); repatch rotates the basepoint
    onto the equator where the parametrization is best conditioned."""
    sval, stangents, shess = _unit_sphere_maps()
    A = np.diag(ax) @ rot

    def value(u):
        return ctr + sval(u) @ A.T

    def jacobian(u):
        # one plain matrix product per column keeps A off (..., 3, 3) stacks
        return np.stack([c @ A.T for c in stangents(u)], axis=-1)

    def hessian(u):
        return np.einsum("ij,...jpq->...ipq", A, shess(u))

    def repatch(u0):
        s0 = rot @ sval(np.atleast_1d(u0))
        new_rot = _rotation_taking_ex(s0)
        chart2 = _spheroid_chart(ax, ctr, new_rot, base_nodes, component, name)
        return chart2, np.array([math.pi / 2.0, 0.0])

    return Chart(2, 3, value, jacobian, hessian, _sphere_rule(*base_nodes),
                 name=name, component=component, repatch=repatch)


def make_ellipsoid(a=1.0, b=1.0, c=1.0, center=(0.0, 0.0, 0.0),
                   base_nodes=(48, 96), component=0, name=None):
    ax = np.array([a, b, c], dtype=float)
    ctr = np.asarray(center, dtype=float)
    chart = _spheroid_chart(ax, ctr, np.eye(3), base_nodes, component,
                            "ellipsoid")
    label = name or f"ellipsoid(a={a},b={b},c={c})"
    return ChartSurface(2, 3, [chart], True, 2, label)


def make_sphere(radius=1.0, center=(0.0, 0.0, 0.0), base_nodes=(48, 96),
                component=0):
    r = float(radius)
    surf = make_ellipsoid(r, r, r, center, base_nodes, component,
                          name=f"sphere(r={r})")
    return surf


def make_torus(major=2.0, minor=0.5, center=(0.0, 0.0, 0.0),
               base_nodes=(48, 96)):
    R, r = float(major), float(minor)
    ctr = np.asarray(center, dtype=float)

    def value(u):
        th, ph = u[..., 0], u[..., 1]
        w = R + r * np.cos(th)
        return ctr + np.stack([w * np.cos(ph), w * np.sin(ph),
                               r * np.sin(th)], axis=-1)

    def jacobian(u):
        th, ph = u[..., 0], u[..., 1]
        w = R + r * np.cos(th)
        d_th = np.stack([-r * np.sin(th) * np.cos(ph),
                         -r * np.sin(th) * np.sin(ph),
                         r * np.cos(th)], axis=-1)
        d_ph = np.stack([-w * np.sin(ph), w * np.cos(ph),
                         np.zeros_like(w)], axis=-1)
        return np.stack([d_th, d_ph], axis=-1)

    def hessian(u):
        th, ph = u[..., 0], u[..., 1]
        w = R + r * np.cos(th)
        z = np.zeros_like(w)
        d_tt = np.stack([-r * np.cos(th) * np.cos(ph),
                         -r * np.cos(th) * np.sin(ph),
                         -r * np.sin(th)], axis=-1)
        d_tp = np.stack([r * np.sin(th) * np.sin(ph),
                         -r * np.sin(th) * np.cos(ph), z], axis=-1)
        d_pp = np.stack([-w * np.cos(ph), -w * np.sin(ph), z], axis=-1)
        return np.stack([np.stack([d_tt, d_tp], axis=-1),
                         np.stack([d_tp, d_pp], axis=-1)], axis=-1)

    def rule(scale):
        return _product_rule([(0.0, 2 * math.pi), (0.0, 2 * math.pi)],
                             base_nodes, [True, True])(scale)

    chart = Chart(2, 3, value, jacobian, hessian, rule, name="torus")
    return ChartSurface(2, 3, [chart], True, 0, f"torus(R={R},r={r})")


def make_cylinder_patch(radius=1.0, half_length=1.0, half_angle=math.pi / 2,
                        base_nodes=(24, 24)):
    r = float(radius)

    def value(u):
        th, zz = u[..., 0], u[..., 1]
        return np.stack([r * np.cos(th), r * np.sin(th), zz], axis=-1)

    def jacobian(u):
        th = u[..., 0]
        z = np.zeros_like(th)
        d_th = np.stack([-r * np.sin(th), r * np.cos(th), z], axis=-1)
        d_z = np.stack([z, z, np.ones_like(th)], axis=-1)
        return np.stack([d_th, d_z], axis=-1)

    def hessian(u):
        th = u[..., 0]
        z = np.zeros_like(th)
        d_tt = np.stack([-r * np.cos(th), -r * np.sin(th), z], axis=-1)
        zero = np.stack([z, z, z], axis=-1)
        return np.stack([np.stack([d_tt, zero], axis=-1),
                         np.stack([zero, zero], axis=-1)], axis=-1)

    rule = _product_rule([(-half_angle, half_angle),
                          (-half_length, half_length)],
                         base_nodes, [False, False])
    chart = Chart(2, 3, value, jacobian, hessian, rule, name="cylinder")
    return ChartSurface(2, 3, [chart], False, None, f"cylinder(r={r})")


def make_graph_patch_surface(g, grad_g, hess_g, extent=1.0,
                             base_nodes=(24, 24), name="graph"):
    """Surface z = g(x, y) over the square [-extent, extent]^2.

    g, grad_g, hess_g are batched callables over (..., 2) parameter arrays
    returning (...,), (..., 2) and (..., 2, 2).
    """

    def value(u):
        return np.concatenate([u, g(u)[..., None]], axis=-1)

    def jacobian(u):
        gg = grad_g(u)
        shape = u.shape[:-1]
        jac = np.zeros(shape + (3, 2))
        jac[..., 0, 0] = 1.0
        jac[..., 1, 1] = 1.0
        jac[..., 2, :] = gg
        return jac

    def hessian(u):
        hg = hess_g(u)
        shape = u.shape[:-1]
        h = np.zeros(shape + (3, 2, 2))
        h[..., 2, :, :] = hg
        return h

    rule = _product_rule([(-extent, extent), (-extent, extent)],
                         base_nodes, [False, False])
    chart = Chart(2, 3, value, jacobian, hessian, rule, name=name)
    return ChartSurface(2, 3, [chart], False, None, name)


def make_saddle_surface(extent=1.0):
    """The graph z = x*y (tangent plane at the origin is the xy-plane)."""
    def g(u):
        return u[..., 0] * u[..., 1]

    def grad_g(u):
        return np.stack([u[..., 1], u[..., 0]], axis=-1)

    def hess_g(u):
        shape = u.shape[:-1]
        h = np.zeros(shape + (2, 2))
        h[..., 0, 1] = 1.0
        h[..., 1, 0] = 1.0
        return h

    return make_graph_patch_surface(g, grad_g, hess_g, extent, name="saddle")


def make_paraboloid_surface(extent=1.0, cx=1.0, cy=1.0):
    """The graph z = cx*x^2 + cy*y^2."""
    def g(u):
        return cx * u[..., 0] ** 2 + cy * u[..., 1] ** 2

    def grad_g(u):
        return np.stack([2 * cx * u[..., 0], 2 * cy * u[..., 1]], axis=-1)

    def hess_g(u):
        shape = u.shape[:-1]
        h = np.zeros(shape + (2, 2))
        h[..., 0, 0] = 2 * cx
        h[..., 1, 1] = 2 * cy
        return h

    return make_graph_patch_surface(g, grad_g, hess_g, extent,
                                    name="paraboloid")


def make_disk(radius=1.0, z=0.0, base_nodes=(16, 48), component=0,
              inner_radius=1e-3):
    """Flat horizontal disk at height z, oriented by (rho, phi) parameter order."""
    r1 = float(radius)

    def value(u):
        rho, ph = u[..., 0], u[..., 1]
        return np.stack([rho * np.cos(ph), rho * np.sin(ph),
                         np.full_like(rho, float(z))], axis=-1)

    def jacobian(u):
        rho, ph = u[..., 0], u[..., 1]
        zz = np.zeros_like(rho)
        d_r = np.stack([np.cos(ph), np.sin(ph), zz], axis=-1)
        d_p = np.stack([-rho * np.sin(ph), rho * np.cos(ph), zz], axis=-1)
        return np.stack([d_r, d_p], axis=-1)

    def hessian(u):
        rho, ph = u[..., 0], u[..., 1]
        zz = np.zeros_like(rho)
        zero = np.stack([zz, zz, zz], axis=-1)
        d_rp = np.stack([-np.sin(ph), np.cos(ph), zz], axis=-1)
        d_pp = np.stack([-rho * np.cos(ph), -rho * np.sin(ph), zz], axis=-1)
        return np.stack([np.stack([zero, d_rp], axis=-1),
                         np.stack([d_rp, d_pp], axis=-1)], axis=-1)

    rule = _product_rule([(inner_radius, r1), (0.0, 2 * math.pi)],
                         base_nodes, [False, True])
    chart = Chart(2, 3, value, jacobian, hessian, rule, name="disk",
                  component=component)
    return ChartSurface(2, 3, [chart], False, None, f"disk(r={r1},z={z})")


def transform_surface(surface: ChartSurface, value_map, jac_map, hess_map,
                      name=None, closed=None, euler_char="keep") -> ChartSurface:
    """Compose every chart with an ambient map given by value/derivative rules.

    value_map(x) -> y, jac_map(x) -> (..., n, n), hess_map(x) -> (..., n, n, n)
    with hess_map[..., i, a, b] = d^2 y_i / dx_a dx_b (hess_map may be None
    for affine maps). Quadrature weights are rebuilt from the composed
    Jacobians, so the rule stays consistent on the image surface.
    """
    def wrap_chart(chart):
        f, J, H = chart.value, chart.jacobian, chart.hessian

        def value(u, f=f):
            return value_map(f(u))

        def jacobian(u, f=f, J=J):
            return np.einsum("...ij,...jp->...ip", jac_map(f(u)), J(u))

        def hessian(u, f=f, J=J, H=H):
            x = f(u)
            Ju = J(u)
            first = np.einsum("...ij,...jpq->...ipq", jac_map(x), H(u))
            if hess_map is None:
                return first
            second = np.einsum("...ijk,...jp,...kq->...ipq",
                               hess_map(x), Ju, Ju)
            return first + second

        repatch = None
        if chart.repatch is not None:
            def repatch(u0, chart=chart):
                base2, u02 = chart.repatch(u0)
                return wrap_chart(base2), u02

        return Chart(chart.m, chart.n, value, jacobian, hessian,
                     chart.param_rule, chart.name, chart.component,
                     repatch=repatch)

    charts = [wrap_chart(c) for c in surface.charts]
    chi = surface.euler_char if euler_char == "keep" else euler_char
    return ChartSurface(surface.m, surface.n, charts,
                        surface.closed if closed is None else closed,
                        chi, name or f"mapped({surface.name})")


def make_disjoint_union(a: ChartSurface, b: ChartSurface) -> ChartSurface:
    """Disjoint union; components renumbered so the parts stay identifiable."""
    if a.m != b.m or a.n != b.n:
        raise UnsupportedInputError("disjoint union requires matching dimensions")
    charts = []
    shift = max((c.component for c in a.charts), default=0) + 1
    for c in a.charts:
        charts.append(c)
    for c in b.charts:
        charts.append(Chart(c.m, c.n, c.value, c.jacobian, c.hessian,
                            c.param_rule, c.name, c.component + shift,
                            repatch=c.repatch))
    chi = None
    if a.euler_char is not None and b.euler_char is not None:
        chi = a.euler_char + b.euler_char
    return ChartSurface(a.m, a.n, charts, a.closed and b.closed, chi,
                        f"{a.name} + {b.name}")
