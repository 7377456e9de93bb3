"""Moebius-invariant energies: combined angle, Kusner-Sullivan, Auckly-Sadun.

The combined angle theta(x, y) is the angle between the tangent plane at y
and the tangent plane at y of the m-sphere tangent to the surface at x
through y. Only the scalar reference `combined_angle_cos_frames` (and
`combined_angle_cos` on top of it) computes it from frames, by reflecting
the x-frame across the chord direction:
    ehat_i = 2 <e_i, v> v - e_i,
    cos theta = (-1)^(m-1) det(<ehat_i, w_j>) / sqrt(det(<w_i, w_j>)),
with e_i an oriented orthonormal frame at x and w_j any positively oriented
tangent basis at y. This avoids constructing the tangent sphere explicitly.

The energies use the KS pair kernel, which reads one unit vector u per
point instead of a frame:
the tangent of a curve (m = 1, any n) or the unit normal n = e_0 x e_1 of
a surface in R^3 (m = 2). The determinant of two planes' orthonormal frames
is the inner product of their normals, and the reflection takes n_x to
n_x - 2 <n_x, v> v, so
    m = 1: cos theta = 2 <u_x, v> <u_y, v> - <u_x, u_y>,
    m = 2: cos theta = <n_x, n_y> - 2 <n_x, v> <n_y, v>:
three inner products per pair, each one matrix product of the point and
vector stacks. With s = |y - x|^2 and v = (y - x) / sqrt(s), the two
products with v share one 1 / s, so the kernel works on s and forms no
distance. Every double sum is one KS pair pass (`_PairPass`), which
translates its points once, to the middle of a bounding box, takes s from
`quadrature.PairPass`, adds the KS stacks to it and yields each block's
q = ((1 - cos theta) / s)^m. It has three readers: the symmetric sums walk
its triangle schedule, each unordered pair once (`ks_triangle_rows`); the
cross term of two pieces (`ks_cross_energy`) and the flow's gradient
(`ks_pair_gradient`) walk rows against every column.

The KS energy, the Moebius maps and the invariance check load no Riesz
engine (`riesz.py`, `radial.py`): the energies' shared types come from
`quadrature` and `finite_energy` from `errors`, and only `as_energy`,
whose E_(-4) term is a Riesz energy, imports `riesz_energy`, when it is
called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (NumericalError, OrientationError, PreconditionError,
                     SingularMapError, SingularPairError, UnsupportedInputError,
                     finite_energy)
from .geometry.patches import dot, orthonormal_frames, umbilicity_defect
from .geometry.surface import as_surface
from .quadrature import (EnergyReport, PairPass, QuadratureConfig, box_middle,
                         compensated_sum)

__all__ = [
    "MoebiusMap",
    "combined_angle_cos",
    "combined_angle_cos_frames",
    "ks_energy",
    "ks_cross_energy",
    "as_energy",
    "apply_moebius",
    "moebius_invariance_check",
    "InvarianceReport",
]


def combined_angle_cos_frames(x, tangent_x, y, basis_y):
    """cos of the combined angle from an oriented orthonormal frame
    tangent_x (n, m) at x and any positively oriented tangent basis basis_y
    (n, m) at y. The value is clipped to [-1, 1]; points closer than 1e-14
    raise SingularPairError.
    """
    x, tangent_x, y, basis_y = (np.asarray(a, dtype=float)
                                for a in (x, tangent_x, y, basis_y))
    d = y - x
    dist = math.sqrt(d @ d)
    if dist < 1e-14:
        raise SingularPairError("combined angle needs two distinct points")
    v = d / dist
    ehat = 2.0 * np.outer(v, v @ tangent_x) - tangent_x
    G = ehat.T @ basis_y
    W = basis_y.T @ basis_y
    if tangent_x.shape[-1] == 1:
        cosv = G[0, 0] / math.sqrt(W[0, 0])
    else:
        # (-1)^(m-1) det(G) / sqrt(det(W)) with m = 2
        detG = G[0, 0] * G[1, 1] - G[0, 1] * G[1, 0]
        detW = W[0, 0] * W[1, 1] - W[0, 1] * W[1, 0]
        cosv = -detG / math.sqrt(detW)
    return float(np.clip(cosv, -1.0, 1.0))


def combined_angle_cos(surface, loc_x, loc_y) -> float:
    """cos theta(x, y) for two located points of an oriented surface."""
    x, jac_x = as_surface(surface).basis_at(loc_x)
    y, basis_y = surface.basis_at(loc_y)
    tx, _ = orthonormal_frames(jac_x)
    return combined_angle_cos_frames(x, tx, y, basis_y)


# ----------------------------------------------------------------------
# pairwise quadrature of the (1 - cos)^m / |x-y|^(2m) kernel
# ----------------------------------------------------------------------

def ks_unit_vectors(tangent, normal):
    """The KS pair kernel's unit vectors (`_PairPass`) of the frames that
    `curvatures` returns: the tangent of a curve, the unit normal of a
    surface."""
    return tangent[..., 0] if tangent.shape[-1] == 1 else normal[..., 0]


class _PairPass(PairPass):
    """One KS pair pass: q = ((1 - cos theta) / s)^m and s = |y - x|^2 for
    the pairs of rows of x against columns of y, from one unit vector
    (N, n) per point (`ks_unit_vectors`).

    Curves (m = 1, any n) and surfaces in R^3 (m = 2) only; any other
    (n, m) raises UnsupportedInputError. With a = <u_x, y - x>,
    b = <u_y, y - x> and c = <u_x, u_y>, cos theta = sigma (2 a b / s - c),
    sigma = +1 on curves and -1 on surfaces. a and b are products of the
    row stacks `ab`, [u_x, -<u_x, x>] and [-x, 1], with [y; 1] and the
    column stack [u_y; <u_y, y>], built once: no (Nx, Ny, n) temporaries.
    The kernel is complex-analytic in the inputs, and its buffers take
    their result dtype.

    a and b lose eps times the points' distance from the origin, so both
    point sets are first translated to the middle of y's bounding box
    (`box_middle`, as `TriMesh.min_nonneighbor_distance` does): far from
    the origin the products lose no digits to the offset, and a round body
    keeps half the error it would have about one of its own points. Rows
    that are the columns (x is y) share their translation and stacks, and
    their s has the bits of `min_nonneighbor_distance`'s. Every schedule
    writes its blocks into four buffers: d, s, 1 - cos and q.
    """

    def __init__(self, x_pts, x_units, y_pts, y_units, m, multiple):
        n = x_pts.shape[-1]
        if m != 1 and (n, m) != (3, 2):
            raise UnsupportedInputError(f"KS pairs need curves or surfaces in "
                                        f"R^3, got (n, m) = ({n}, {m})")
        dtype = np.result_type(x_pts, x_units, y_pts, y_units)
        centre = box_middle(y_pts)
        y = y_pts - centre
        x = y if x_pts is y_pts else x_pts - centre
        super().__init__(x, y, multiple, 4, dtype)
        self.m, self.sign = m, 1.0 if m == 1 else -1.0
        self.x_units = x_units
        uy = self.uy = np.empty((n + 1, len(y)), dtype)
        uy[:n] = y_units.T
        uy[n] = dot(y_units, y)
        ab = self.ab = np.empty((2, len(x), n + 1), dtype)
        ab[0, :, :n] = x_units
        ab[0, :, n] = -(uy[n] if x is y and x_units is y_units
                        else dot(x_units, x))
        ab[1, :, :n] = -x
        ab[1, :, n] = 1.0

    def ks_blocks(self, diag):
        """Yields (lo, hi, col, q, omc, s, twice_inv_s) for the rows lo:hi
        against the columns col:, which hold until the next block: omc is
        1 - cos theta clipped to [0, 2], q = (omc / s)^m with each
        coincident pair taking its row's diag value, and twice_inv_s is
        2 / s, 0 on coincident pairs, whose omc is 0 too.

        a and b go through the buffers of omc and q, c through q's, and
        2 / s into the pass's scratch. 1 - cos lies in [0, 2] exactly, so
        the clip only removes rounding: it acts on the real part, and a
        complex step's imaginary part goes through it unchanged, also on
        pairs clipped to 0 (on a round body most of them).
        """
        for lo, hi, col, d, s, omc, q in self:
            y1, uy = self.y1[:, col:], self.uy[:, col:]
            apart = s != 0.0
            twice_inv_s = np.divide(2.0, s, out=d, where=apart)
            # omc = 1 - sigma (2 a b / s - c)
            np.multiply(np.matmul(self.ab[0, lo:hi], y1, out=omc),
                        twice_inv_s, out=omc)
            omc *= np.matmul(self.ab[1, lo:hi], uy, out=q)
            omc -= np.matmul(self.x_units[lo:hi], uy[:-1], out=q)
            if self.sign > 0.0:
                np.subtract(1.0, omc, out=omc)
            else:
                omc += 1.0
            coincident = np.logical_not(apart, out=apart)
            omc[coincident] = 0.0
            np.clip(omc.real, 0.0, 2.0, out=omc.real)
            with np.errstate(divide="ignore", invalid="ignore"):
                np.divide(omc, s, out=q)
            if self.m == 2:
                q *= q
            np.copyto(q, diag[lo:hi, None], where=coincident)
            del apart, coincident       # the reader's block work runs without it
            yield lo, hi, col, q, omc, s, twice_inv_s


def ks_triangle_rows(points, units, m, diag, weights, topology):
    """Row terms r (N,) of the symmetric KS double sum over one node set:
    sum_i weights_i r_i = sum_ij weights_i weights_j q_ij, with q as
    `_PairPass.ks_blocks` yields it, and the smallest squared distance
    between nodes that share no face of topology
    (`MeshTopology.nonneighbor_min` on the pass's own s; inf when topology
    is None).

    One triangle pass: the rows lo:hi count their square block lo:hi as it
    stands and the columns hi: twice, r[lo:hi] = q[:, :k] @ w[lo:hi]
    + 2 (q[:, k:] @ w[hi:]) with k = hi - lo. Complex-analytic in every
    input.
    """
    rows, sep2 = [], math.inf
    pair_pass = _PairPass(points, units, points, units, m, None)
    for lo, hi, _, q, _, s, _ in pair_pass.ks_blocks(diag):
        if topology is not None:
            sep2 = min(sep2, topology.nonneighbor_min(s, lo))
        k = hi - lo
        rows.append(q[:, :k] @ weights[lo:hi] + 2.0 * (q[:, k:] @ weights[hi:]))
    return np.concatenate(rows), sep2


def ks_pair_gradient(points, units, weights, m):
    """Gradients of the KS double sum E = sum_ij w_i w_j q_ij over one node
    set, coincident pairs taking 0, with respect to its points (N, n), unit
    vectors (N, n) and weights (N,): one pass of rows against every column.

    The kernel is symmetric under swapping (x, u_x) with (y, u_y) for any
    vectors, so each point's gradient is twice its row side and the column
    side is never formed, and dE/dw = 2 q w. The row side takes
    O(N^2) work from (rows, N) @ (N, n) products and n row sums over the
    coordinate differences; coincident pairs contribute nothing, their
    outputs being constant 0. The clip of 1 - cos to [0, 2] only removes
    rounding, so its derivative is taken as 1 on every pair apart, as
    complex steps through the pass see it. a and b are formed again from
    the pass's stacks, two products per block. Real input only.
    """
    pair_pass = _PairPass(points, units, points, units, m, 1)
    x, y1, uy, sign = pair_pass.x, pair_pass.y1, pair_pass.uy, pair_pass.sign
    points_bar, units_bar = np.empty(x.shape), np.empty(units.shape)
    weights_bar = np.empty(len(x))
    for lo, hi, _, q, omc, s, twice_inv_s in pair_pass.ks_blocks(
            np.zeros(len(x))):
        apart = s != 0.0
        mww = (2.0 * m) * weights[lo:hi, None] * weights
        with np.errstate(divide="ignore", invalid="ignore"):
            omc_bar = np.where(apart, mww * omc ** (m - 1) / s ** m, 0.0)
            s_bar = np.where(apart, -mww * q / s, 0.0)
        weights_bar[lo:hi] = 2.0 * (q @ weights)
        a, b = pair_pass.ab[0, lo:hi] @ y1, pair_pass.ab[1, lo:hi] @ uy
        ab_bar = (-sign * twice_inv_s) * omc_bar               # d/d (a b)
        a_bar, b_bar = ab_bar * b, ab_bar * a
        # d omc / d s = 2 sigma a b / s^2, which takes a_bar a / s off s_bar
        t = a_bar * a
        t *= twice_inv_s
        s_bar -= 0.5 * t
        # s = |y - x|^2: x_bar = -2 sum_j s_bar_ij (y_j - x_i), from the
        # differences themselves, one coordinate at a time: s_bar @ y -
        # rowsum(s_bar) x would add eps |x| |s_bar| of rounding per pair
        x_bar = points_bar[lo:hi]
        for c in range(x.shape[-1]):
            np.matmul(pair_pass.rows[c, lo:hi], y1, out=t)
            x_bar[:, c] = np.multiply(t, s_bar, out=t).sum(axis=1)
        x_bar *= -2.0
        row = a_bar.sum(axis=1)[:, None]
        x_bar -= row * units[lo:hi] + b_bar @ units
        units_bar[lo:hi] = (a_bar @ x - row * x[lo:hi]
                            + sign * (omc_bar @ units))
    return points_bar, units_bar, weights_bar


def _refuse_immersed(sep, nodes):
    """Refuse a mesh that looks immersed; sep is inf on charts."""
    if math.isfinite(sep):
        scale_local = float(np.median(nodes.spacing))
        if sep < 0.3 * scale_local:
            raise UnsupportedInputError(
                "mesh looks self-intersecting or immersed "
                f"(non-neighbor separation {sep:.3g} vs local scale "
                f"{scale_local:.3g}); E_KS is discontinuous there")


@finite_energy
def ks_energy(surface, config: QuadratureConfig | None = None) -> EnergyReport:
    """Kusner-Sullivan energy: double integral of (1-cos theta)^m/|x-y|^2m.

    The integrand extends continuously to the diagonal (it is O(1) there on
    C^2 surfaces). Only coincident nodes, the diagonal cells, use the m-th
    power of the limit of (1 - cos theta)/|x-y|^2 averaged over the
    tangent directions e, the mean of II(e, e_perp)^2 / 2: D / 16 on
    surfaces (D the umbilicity defect, (k1 - k2)^2 in R^3) and 0 on
    curves; every other pair takes the kernel itself. The nodes are the
    surface's at config.inner_scale * 0.5, as in `as_energy`. Open surfaces
    are rejected, and so are meshes with two vertices that share no face
    closer than 0.3 of the median spacing, as the pair pass measures them:
    the energy is discontinuous on immersed inputs (a double cover scores
    zero while nearby embedded pairs blow up). When the fits or the pass
    fail numerically, `min_nonneighbor_distance` decides that refusal first.
    """
    config = config or QuadratureConfig()
    m = as_surface(surface).m
    if not surface.closed:
        raise PreconditionError("ks_energy needs a closed surface")
    if not surface.oriented:
        raise OrientationError("ks_energy needs consistent orientation")
    nodes = surface.nodes(config.inner_scale * 0.5)
    w = nodes.weights
    try:
        tangent, normal, sff = surface.curvatures(nodes.locators)
        diag = ((umbilicity_defect(sff) / 16.0) ** 2 if m == 2
                else np.zeros(len(sff)))
        rows, sep2 = ks_triangle_rows(
            nodes.points, ks_unit_vectors(tangent, normal), m, diag, w,
            surface.topology)
    except (FloatingPointError, NumericalError):
        _refuse_immersed(surface.min_nonneighbor_distance(), nodes)
        raise
    _refuse_immersed(math.sqrt(sep2), nodes)
    value = compensated_sum(rows * w)
    return EnergyReport(value=value, near=0.0, far=value, eps0=0.0,
                        error_estimate=0.0)


def ks_cross_energy(surface_a, surface_b, scale=1.0) -> float:
    """Cross term of the Kusner-Sullivan energy between two disjoint pieces:
    sum_ij w_i w_j q_ij over the nodes i of a and j of b at scale, one pass
    of a's rows against b's columns. The pieces may be open, but they must
    share (n, m) (else UnsupportedInputError) and be oriented (else
    OrientationError); touching pieces raise SingularPairError."""
    a, b = as_surface(surface_a), as_surface(surface_b)
    if (a.n, a.m) != (b.n, b.m):
        raise UnsupportedInputError("KS cross energy needs pieces of matching "
                                    "dimensions")
    if not (a.oriented and b.oriented):
        raise OrientationError("KS cross energy needs oriented pieces")
    na, nb = a.nodes(scale), b.nodes(scale)
    ua = ks_unit_vectors(*a.curvatures(na.locators)[:2])
    ub = ks_unit_vectors(*b.curvatures(nb.locators)[:2])
    pair_pass = _PairPass(na.points, ua, nb.points, ub, a.m, 1)
    row = 0.0
    for lo, hi, _, q, _, s, _ in pair_pass.ks_blocks(np.zeros(len(ua))):
        if np.any(s == 0.0):
            raise SingularPairError("pieces touch: cross energy undefined")
        row = row + na.weights[lo:hi] @ q
    return float(row @ nb.weights)


# ----------------------------------------------------------------------
# Auckly-Sadun surface energy
# ----------------------------------------------------------------------

@finite_energy
def as_energy(surface, s: float, config: QuadratureConfig | None = None) -> EnergyReport:
    """Auckly-Sadun energy: E_(-4) + (pi/16) I[D log D] + (pi^2/2) chi + s I[D].

    D is the umbilicity defect |h11-h22|^2 + 4|h12|^2; the D log D integrand
    is extended by 0 at umbilic points. Surfaces only (m = 2).
    """
    config = config or QuadratureConfig()
    if as_surface(surface).m != 2:
        raise UnsupportedInputError("as_energy is defined for m = 2 surfaces")
    chi = surface.euler_characteristic()
    nodes = surface.nodes(config.inner_scale * 0.5)
    weights = nodes.weights
    deltas = umbilicity_defect(surface.curvatures(nodes.locators)[2])
    dlogd = np.where(deltas > 1e-14, deltas * np.log(np.maximum(deltas, 1e-300)),
                     0.0)
    int_delta = compensated_sum(weights * deltas)
    int_dlogd = compensated_sum(weights * dlogd)
    from .riesz import riesz_energy
    base = riesz_energy(surface, -4.0, config=config)
    topo = 0.5 * math.pi ** 2 * chi
    value = base.value + math.pi / 16.0 * int_dlogd + topo + s * int_delta
    return EnergyReport(value=value, near=base.near, far=base.far,
                        eps0=base.eps0,
                        error_estimate=base.error_estimate)


# ----------------------------------------------------------------------
# Moebius maps
# ----------------------------------------------------------------------

@dataclass
class MoebiusMap:
    """Sphere inversion or similarity of the ambient space."""

    kind: str                      # "inversion" | "similarity"
    center: np.ndarray = None      # inversion center / similarity fixed point
    radius: float = 1.0            # inversion radius
    scale: float = 1.0             # similarity factor

    def __post_init__(self):
        if self.kind not in ("inversion", "similarity"):
            raise PreconditionError(f"unknown Moebius map kind {self.kind!r}")
        if self.center is not None:
            self.center = np.asarray(self.center, dtype=float)

    def value(self, x):
        x = np.asarray(x, dtype=float)
        c = self.center if self.center is not None else np.zeros(x.shape[-1])
        if self.kind == "similarity":
            return c + self.scale * (x - c)
        d = x - c
        rho2 = np.sum(d * d, axis=-1, keepdims=True)
        return c + self.radius ** 2 * d / rho2

    def jacobian(self, x):
        x = np.asarray(x, dtype=float)
        n = x.shape[-1]
        c = self.center if self.center is not None else np.zeros(n)
        if self.kind == "similarity":
            eye = self.scale * np.eye(n)
            return np.broadcast_to(eye, x.shape[:-1] + eye.shape).copy()
        d = x - c
        rho2 = np.sum(d * d, axis=-1)[..., None, None]
        eye = np.broadcast_to(np.eye(n), x.shape[:-1] + (n, n))
        dd = d[..., :, None] * d[..., None, :]
        return self.radius ** 2 * (eye / rho2 - 2.0 * dd / rho2 ** 2)

    def hessian(self, x):
        x = np.asarray(x, dtype=float)
        n = x.shape[-1]
        if self.kind == "similarity":
            return np.zeros(x.shape[:-1] + (n, n, n))
        c = self.center if self.center is not None else np.zeros(n)
        d = x - c
        # an array at one point too: a float's ** 2 is pow, an array's squares
        rho2 = np.asarray(np.sum(d * d, axis=-1))
        # by component rows, the points last: delta_ia d_b + delta_ib d_a +
        # delta_ab d_i added in that order where each term is present (the
        # absent ones stay exact zeros), and d_i d_a d_b left to right
        d = np.moveaxis(d, -1, 0)
        t = np.zeros((n, n, n) + x.shape[:-1])
        t4 = np.empty_like(t)
        for i in range(n):
            t[i, i] += d
            t[i, :, i] += d
            for a in range(n):
                t[i, a, a] += d[i]
                np.multiply(d[i] * d[a], d, out=t4[i, a])
        out = self.radius ** 2 * (-2.0 * t / rho2 ** 2 + 8.0 * t4 / rho2 ** 3)
        return np.moveaxis(out, (0, 1, 2), (-3, -2, -1))


def apply_moebius(surface, mmap: MoebiusMap):
    """Image surface under the Moebius map (charts composed; vertices mapped).

    Raises SingularMapError when an inversion center lies on the surface.
    The n-dimensional orientation flips under inversion, which is consistent
    across the whole image; combined angles are insensitive to a global flip.
    """
    surface = as_surface(surface)
    if mmap.kind == "inversion":
        center = mmap.center if mmap.center is not None else np.zeros(surface.n)
        if surface.distance_to(center) < 1e-6:
            raise SingularMapError("inversion center lies on the surface")
    hess = None if mmap.kind == "similarity" else mmap.hessian
    return surface.transformed(mmap.value, mmap.jacobian, hess)


# ----------------------------------------------------------------------
# invariance checks
# ----------------------------------------------------------------------

@dataclass
class InvarianceReport:
    energy_original: float
    energy_transformed: float
    rel_difference: float
    refined_rel_difference: float | None
    map_kind: str
    selector: str
    map_params: dict

    def as_dict(self):
        return {
            "energy_original": self.energy_original,
            "energy_transformed": self.energy_transformed,
            "rel_difference": self.rel_difference,
            "refined_rel_difference": self.refined_rel_difference,
            "map": self.map_kind,
            "map_params": self.map_params,
            "selector": self.selector,
        }


def moebius_invariance_check(surface, mmap: MoebiusMap, selector="ks",
                             s: float = 0.0,
                             config: QuadratureConfig | None = None,
                             refine=True) -> InvarianceReport:
    """Numerically compare E(M) with E(T(M)) and report the refinement trend.

    selector is "ks" or "as" (the latter with its linear parameter s).
    """
    config = config or QuadratureConfig()
    image = apply_moebius(surface, mmap)

    def energy(surf, cfg):
        if selector == "ks":
            return ks_energy(surf, cfg).value
        if selector == "as":
            return as_energy(surf, s, cfg).value
        raise PreconditionError(f"unknown selector {selector!r}")

    e0 = energy(surface, config)
    e1 = energy(image, config)
    denom = max(abs(e0), abs(e1), 1e-30)
    rel = abs(e0 - e1) / denom
    refined_rel = None
    if refine:
        cfg2 = replace(config, outer_scale=config.outer_scale * 1.5,
                       inner_scale=config.inner_scale * 1.5)
        e0r = energy(surface, cfg2)
        e1r = energy(image, cfg2)
        refined_rel = abs(e0r - e1r) / max(abs(e0r), abs(e1r), 1e-30)
    params = {"kind": mmap.kind, "scale": mmap.scale, "radius": mmap.radius}
    if mmap.center is not None:
        params["center"] = [float(c) for c in mmap.center]
    return InvarianceReport(
        energy_original=e0, energy_transformed=e1, rel_difference=rel,
        refined_rel_difference=refined_rel, map_kind=mmap.kind,
        selector=f"as(s={s})" if selector == "as" else "ks",
        map_params=params,
    )
