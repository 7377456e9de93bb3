"""Shared quadrature building blocks.

Small deterministic rules used throughout the library: the Gauss-Legendre
rule of each order (the one source of such rules in the package, computed
once per order and shared read-only), panels of it graded toward an end
point, a fixed-order sum, and a smooth replacement kernel that equals
t^alpha outside a ball and continues it smoothly inside.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "gauss_legendre",
    "graded_panels",
    "compensated_sum",
    "BlendKernel",
]


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
