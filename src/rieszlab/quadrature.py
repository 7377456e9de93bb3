"""Shared quadrature building blocks.

Small deterministic rules used throughout the library: a Gauss-Legendre
node generator, a fixed-order sum, and a smooth
replacement kernel that equals t^alpha outside a ball and continues it
smoothly inside.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "gauss_legendre",
    "compensated_sum",
    "BlendKernel",
]


def gauss_legendre(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [a, b]."""
    x, w = np.polynomial.legendre.leggauss(int(n))
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def compensated_sum(values) -> float:
    """Fixed-order exact-rounding sum; run-to-run deterministic."""
    return math.fsum(float(v) for v in values)


class BlendKernel:
    """Radial kernel equal to t^alpha for t >= eps and C^4-smooth inside.

    Inside the ball the kernel is the even polynomial in t matching value and
    the first four derivatives of t^alpha at t = eps. Used to decompose a
    singular pairwise kernel into (globally smooth part) + (radial residual
    supported in the ball), the latter being handled by the radial engine.
    """

    def __init__(self, alpha: float, eps: float, order: int = 4):
        self.alpha = float(alpha)
        self.eps = float(eps)
        self.order = int(order)
        n = self.order + 1  # number of even-polynomial coefficients
        # p(t) = sum_i c_i t^{2i}; match d^j/dt^j at t = eps for j = 0..order.
        A = np.zeros((n, n))
        rhs = np.zeros(n)
        for j in range(n):
            for i in range(n):
                k = 2 * i
                if k >= j:
                    A[j, i] = math.perm(k, j) * self.eps ** (k - j)
            a = self.alpha
            coef = 1.0
            for q in range(j):
                coef *= (a - q)
            rhs[j] = coef * self.eps ** (a - j)
        self.coeffs = np.linalg.solve(A, rhs)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        inside = t < self.eps
        out = np.empty_like(t)
        tt = t[inside] ** 2
        acc = np.zeros_like(tt)
        for c in self.coeffs[::-1]:
            acc = acc * tt + c
        out[inside] = acc
        with np.errstate(divide="ignore"):
            out[~inside] = t[~inside] ** self.alpha
        return out if out.ndim else float(out)

    def inside_poly_coeffs(self) -> np.ndarray:
        """Plain power-basis coefficients of the interior polynomial."""
        out = np.zeros(2 * self.order + 1)
        out[::2] = self.coeffs
        return out
