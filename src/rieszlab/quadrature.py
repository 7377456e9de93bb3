"""Shared quadrature building blocks.

Small deterministic rules used throughout the library: Gauss-Legendre and
periodic-trapezoid node generators, a dyadically graded integrator for
integrands with a power singularity at the origin, and a smooth replacement
kernel that equals t^alpha outside a ball and continues it smoothly inside.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .errors import NumericalError

__all__ = [
    "gauss_legendre",
    "periodic_trapezoid",
    "graded_power_integral",
    "power_poly_integral",
    "power_deflated_spline_integral",
    "poly_weighted_spline_integral",
    "compensated_sum",
    "BlendKernel",
]


def gauss_legendre(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [a, b]."""
    x, w = np.polynomial.legendre.leggauss(int(n))
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def periodic_trapezoid(n: int, period: float = 2.0 * math.pi) -> tuple[np.ndarray, np.ndarray]:
    """Equispaced nodes and weights for one full period (spectral on smooth data)."""
    t = np.arange(n) * (period / n)
    w = np.full(n, period / n)
    return t, w


def compensated_sum(values) -> float:
    """Fixed-order exact-rounding sum; run-to-run deterministic."""
    return math.fsum(float(v) for v in values)


def graded_power_integral(f, a: float, b: float, exponent_floor: float,
                          rtol: float = 1e-11, atol: float = 1e-13,
                          t_min_factor: float = 1e-3) -> tuple[float, float]:
    """Integrate f on (a, b] where |f(t)| ~ t^exponent_floor near a = 0.

    Uses adaptive Gauss-Kronrod (QUADPACK) on dyadically graded panels toward
    the left endpoint; exponent_floor > -1 is required for convergence.
    The grading stops at b * t_min_factor (deeper panels would integrate
    evaluation noise amplified by the power); the remaining mass is bounded
    from the integrand at the cutoff and folded into the error estimate.
    Returns (value, error_estimate).
    """
    if exponent_floor <= -1.0:
        raise NumericalError(
            f"endpoint exponent {exponent_floor} is not integrable")
    if b <= a:
        return 0.0, 0.0
    # near the evaluation-noise floor QUADPACK reports non-convergence;
    # the returned error estimate covers it, so the warning is noise here
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        if a > 0.0:
            val, err = quad(f, a, b, epsabs=atol, epsrel=rtol, limit=200)
            return val, err
        t_min = b * t_min_factor
        edges = [b]
        while edges[-1] * 0.5 > t_min:
            edges.append(edges[-1] * 0.5)
        edges.append(t_min)
        total = 0.0
        err_total = 0.0
        for hi, lo in zip(edges[:-1], edges[1:]):
            val, err = quad(f, lo, hi, epsabs=atol, epsrel=rtol, limit=60)
            total += val
            err_total += abs(err)
    # Tail [0, t_min]: bounded by sup|f/t^p| * t_min^{p+1}/(p+1) with the sup
    # estimated at the panel edge; folded into the error estimate.
    p = exponent_floor
    scale = abs(f(t_min)) / max(t_min ** p, np.finfo(float).tiny)
    tail = scale * t_min ** (p + 1.0) / (p + 1.0)
    return total, err_total + tail


def power_poly_integral(coeffs, gamma: float, a, b):
    """Exact integral of t^gamma * sum_i coeffs[..., i] t^i over [a, b].

    Batched: leading axes of coeffs are separate polynomials, with a and b
    broadcast against them. Uses the x^0/0 = log x convention at exponent
    collisions (requires a > 0 when gamma + i + 1 <= 0 terms are present).
    """
    coeffs = np.asarray(coeffs, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    s = np.zeros(np.broadcast_shapes(coeffs.shape[:-1], a.shape, b.shape))
    for i in range(coeffs.shape[-1]):
        ci = coeffs[..., i]
        if not np.any(ci):
            continue
        e = gamma + i + 1.0
        if abs(e) < 1e-12:
            s += ci * (np.log(b) - np.log(a))
        else:
            s += ci * (b ** e - a ** e) / e
    return float(s) if s.ndim == 0 else s


def _pieces_in_t_basis(spline, a, b, degree):
    """Spline pieces meeting [a, b] in plain t powers, with their limits.

    Returns (coefficients (P, max(4, degree + 1)) ascending in t, lower
    limits, upper limits), the limits clipped to [a, b].
    """
    xs = np.asarray(spline.x)
    lo, hi = xs[:-1], xs[1:]
    keep = (hi > a) & (lo < b)
    x0 = lo[keep]
    pc = np.asarray(spline.c)[::-1, keep].T   # ascending in (t - x0)
    tb = np.zeros((len(x0), max(pc.shape[1], degree + 1)))
    for j in range(pc.shape[1]):
        for i in range(j + 1):
            tb[:, i] += pc[:, j] * math.comb(j, i) * (-x0) ** (j - i)
    return tb, np.maximum(x0, a), np.minimum(hi[keep], b)


def power_deflated_spline_integral(spline, jet, gamma: float,
                                   a: float, b: float) -> float:
    """Exact integral of t^gamma * (spline(t) - jet(t)) over [a, b].

    jet holds plain power-basis coefficients. The subtraction happens at
    coefficient level inside each spline interval, so near-cancelling values
    are never formed; the power factor is then integrated in closed form.
    All intervals are handled in one batch.
    """
    jet = np.asarray(jet, dtype=float)
    tb, lo, hi = _pieces_in_t_basis(spline, a, b, len(jet) - 1)
    tb[:, :len(jet)] -= jet
    return float(np.sum(power_poly_integral(tb, gamma, lo, hi)))


def poly_weighted_spline_integral(spline, poly, a: float, b: float) -> float:
    """Exact integral of poly(t) * spline(t) over [a, b] (poly in t powers)."""
    poly = np.asarray(poly, dtype=float)
    tb, lo, hi = _pieces_in_t_basis(spline, a, b, 3)
    prod = np.zeros((len(tb), tb.shape[1] + len(poly) - 1))
    for i, p in enumerate(poly):
        prod[:, i:i + tb.shape[1]] += p * tb
    return float(np.sum(power_poly_integral(prod, 0.0, lo, hi)))


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
