"""Shared quadrature building blocks.

Small deterministic rules used throughout the library: the Gauss-Legendre
rule of each order (the one source of such rules in the package, computed
once per order and shared read-only), panels of it graded toward an end
point, a fixed-order sum, a kernel equal to t^alpha outside a ball and
smooth inside, and the pass that forms every pairwise squared distance
with the translation that its mesh and KS readers apply first.

It also holds the two types that every energy shares, its resolution
knobs (`QuadratureConfig`) and its result (`EnergyReport`), so that the
Kusner-Sullivan and Auckly-Sadun energies read them without loading the
Riesz engine (`riesz.py` and `radial.py`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureConfig",
    "EnergyReport",
    "gauss_legendre",
    "graded_panels",
    "compensated_sum",
    "BlendKernel",
    "PAIR_BLOCK",
    "PairPass",
    "box_middle",
]

# Pairs per block of a pair pass, which bounds its memory: a KS gradient
# block holds about twenty (rows, columns) arrays at once, and one warm
# ks_energy of the chart ellipsoid page-faults about 220 times at 2^14 pairs
# (128 KB arrays) and 530 times at 2^16, which is 7% slower.
PAIR_BLOCK = 1 << 14


@dataclass
class QuadratureConfig:
    """Resolution knobs shared by the energy assemblers."""

    outer_scale: float = 0.25        # scale on the surface base rule (outer x)
    inner_scale: float = 1.0         # far-field rule (inner y)
    patch_radius: float | None = None
    threads: int = 1
    # face subdivision for mesh inner nodes: a constant, not a field, that
    # riesz_energy and the benchmark's layer tracer read through the config
    mesh_inner_subdiv = 1


@dataclass
class EnergyReport:
    """Energy value with its near/far split and regularization metadata."""

    value: float
    near: float
    far: float
    eps0: float
    error_estimate: float
    pole_residue: float | None = None

    def as_dict(self):
        return {
            "value": self.value,
            "near": self.near,
            "far": self.far,
            "eps0": self.eps0,
            "error_estimate": self.error_estimate,
            "pole": None if self.pole_residue is None
                    else {"residue": self.pole_residue},
        }


@functools.cache
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of order n on [-1, 1].

    The rule is computed on first use of each order (an eigensolve and a
    Newton polish) and then shared, so both arrays are read-only. Callers map it onto [a, b] into new arrays:
    nodes 0.5 (b - a) (x + 1) + a, weights 0.5 (b - a) w.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def graded_panels(a: float, b: float, feature: float, order: int):
    """Gauss-Legendre panels of `order` nodes on [a, b], dyadically graded
    toward a down to `feature`: nodes and weights, panel by panel from b."""
    edges = [b]
    while edges[-1] - a > feature:
        edges.append(a + 0.5 * (edges[-1] - a))
    edges.append(a)
    xg, wg = gauss_legendre(order)
    hi, lo = np.array(edges[:-1]), np.array(edges[1:])
    half = (0.5 * (hi - lo))[:, None]
    return (half * (xg + 1.0) + lo[:, None]).ravel(), (half * wg).ravel()


def compensated_sum(values) -> float:
    """Fixed-order exact-rounding sum; run-to-run deterministic."""
    return math.fsum(np.ravel(values).tolist())


class BlendKernel:
    """Radial kernel equal to t^alpha for t >= eps and C^4-smooth inside.

    Inside the ball the kernel is the even polynomial in t matching value and
    the first four derivatives of t^alpha at t = eps. Used to decompose a
    singular pairwise kernel into (globally smooth part) + (radial residual
    supported in the ball), the latter being handled by the radial engine.
    An array of radii eps (B,) gives B kernels at once: coeffs (B, 5), and
    the kernel then takes t with a matching leading axis.
    """

    def __init__(self, alpha: float, eps):
        self.alpha = float(alpha)
        self.eps = np.asarray(eps, dtype=float)
        n = 5  # even-polynomial coefficients, one per matched derivative
        # p(t) = sum_i c_i t^{2i}; match d^j/dt^j at t = eps for j = 0..4.
        j = np.arange(n)[:, None]
        k = 2 * np.arange(n)
        perm = np.array([[math.perm(kk, jj) for kk in k] for jj in range(n)],
                        dtype=float)
        eps = self.eps[..., None, None]
        A = np.where(k >= j, perm * eps ** (k - j), 0.0)
        falling = np.array([math.prod(self.alpha - q for q in range(jj))
                            for jj in range(n)])
        rhs = falling * self.eps[..., None] ** (self.alpha - np.arange(n))
        self.coeffs = np.linalg.solve(A, rhs[..., None])[..., 0]

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        pad = (1,) * (t.ndim - self.eps.ndim)
        tt = t * t
        acc = np.zeros_like(t)
        for c in np.moveaxis(self.coeffs, -1, 0)[::-1]:
            acc = acc * tt + c.reshape(c.shape + pad)
        with np.errstate(divide="ignore"):
            out = np.where(t < self.eps.reshape(self.eps.shape + pad), acc,
                           t ** self.alpha)
        return out if out.ndim else float(out)


class PairPass:
    """Squared distances s = |y - x|^2 between the rows of x (Nx, n) and the
    columns of y (Ny, n), block by block: the one place that forms them.

    Each difference y_c - x_c = [e_c, -x_c] @ [y; 1] is a product of exact
    terms, rounded once, so s, summed one coordinate at a time, has the
    bits of dot(y - x, y - x); the products are plain (non-conjugating)
    ones, so complex steps go through. The stacks [e_c, -x_c]
    (n, Nx, n + 1) and [y; 1] (n + 1, Ny), and `arrays` (at least 2) flat
    buffers of dtype as large as the largest block, are made once per
    pass; a pass belongs to one call.

    Blocks hold at most PAIR_BLOCK pairs. With a row multiple k they are
    rows lo:hi against every column, a multiple of k rows high (at least
    k); with None, the triangle of x against itself (x is y): rows lo:hi
    against the columns lo: (at least one row), each unordered pair once.
    Iterating yields (lo, hi, col, d, s, *rest), each array a
    (hi - lo, Ny - col) view of a buffer: s, scratch d that is 0 at
    coincident pairs, and the caller's. They hold until the next block.
    """

    def __init__(self, x, y, multiple, arrays, dtype):
        n, (Nx, Ny) = x.shape[-1], (len(x), len(y))
        self.x, self.y = x, y
        self.y1 = np.ones((n + 1, Ny), dtype)
        self.y1[:n] = y.T
        self.rows = np.zeros((n, Nx, n + 1), dtype)
        self.rows[:, :, n] = -x.T
        for c in range(n):
            self.rows[c, :, c] = 1.0
        self.blocks, lo, size = [], 0, 0
        while lo < Nx:
            col, k = (lo, 1) if multiple is None else (0, multiple)
            hi = min(Nx, lo + max(k, PAIR_BLOCK // (Ny - col) // k * k))
            self.blocks.append((lo, hi, col))
            lo, size = hi, max(size, (hi - lo) * (Ny - col))
        self.buffers = [np.empty(size, dtype) for _ in range(arrays)]

    def __iter__(self):
        for lo, hi, col in self.blocks:
            rows, y1 = self.rows[:, lo:hi], self.y1[:, col:]
            shape = (hi - lo, y1.shape[1])
            d, s, *rest = [buffer[:shape[0] * shape[1]].reshape(shape)
                           for buffer in self.buffers]
            np.square(np.matmul(rows[0], y1, out=d), out=s)
            for c in range(1, len(rows)):
                s += np.square(np.matmul(rows[c], y1, out=d), out=d)
            yield lo, hi, col, d, s, *rest


def box_middle(points):
    """The middle of the bounding box of the real parts of points (N, n).

    The KS pair pass and `TriMesh.min_nonneighbor_distance` translate their
    points by it, so both take the same squared distances: far from the
    origin a difference of two points then loses no digits to the offset.
    The real parts keep a complex step from moving any point but its own.
    """
    return 0.5 * (points.real.min(axis=0) + points.real.max(axis=0))
