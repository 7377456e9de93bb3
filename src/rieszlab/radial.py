"""Radial chord-density profiles and Hadamard finite parts.

For a point x with graph patch h, the volume psi(t) of the patch within
chord distance t satisfies psi'(t) = t^(m-1) * phi(t), where the density
phi is smooth and even at t = 0 with phi(0) = sigma_{m-1}. phi is
therefore a smooth function of s = t^2, and a profile holds it as one
Chebyshev interpolant in s on [0, eps0^2]: samples at 17, 33 or 65
Chebyshev-Lobatto points (each level reuses the samples of the one
before), chopped where the coefficients fall below CHOP_TOL. The s = 0
sample is sigma_{m-1} itself; the smallest positive radius sampled is
about 0.1 eps0 (0.025 eps0 at 65 points). The interpolant's monomial
coefficients give the finite part Pf. of integral_0^eps t^(alpha+m-1)
phi(t) dt in closed form for every alpha and every eps <= eps0, with the
convention x^0/0 = log x at exponent collisions.

Each (direction v, chord radius t) row of the angular quadrature needs the
radius xi with xi^2 + |h(xi v)|^2 = t^2, its derivative dxi/dt and grad h
there. Every patch answers these rows through `GraphPatch.chord_solve`:
chart patches by one Newton iteration in the chart parameters, the
quadratic patches of meshes in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import dct

from .errors import PreconditionError, ProfileFitError

__all__ = [
    "EnergyParams",
    "RadialProfile",
    "FinitePartResult",
    "unit_sphere_volume_m1",
    "radial_profile",
    "finite_part",
]

POLE_SNAP_TOL = 1e-12
# Chebyshev coefficients below CHOP_TOL of the largest are dropped; a
# profile is resolved when its last quarter of coefficients is dropped.
CHOP_TOL = 1e-14
# Chebyshev intervals of the sampling levels (17, 33, 65 points).
_LEVELS = (16, 32, 64)


def unit_sphere_volume_m1(m: int) -> float:
    """Volume of the unit (m-1)-sphere: 2 for m=1, 2*pi for m=2, ..."""
    return 2.0 * math.pi ** (m / 2.0) / math.gamma(m / 2.0)


@dataclass(frozen=True)
class EnergyParams:
    """Kernel exponent alpha together with derived regularization data."""

    alpha: float
    m: int
    at_pole: bool = field(init=False)

    def __post_init__(self):
        if not math.isfinite(float(self.alpha)):
            raise PreconditionError(f"alpha must be finite, got {self.alpha!r}")
        a = -float(self.alpha)
        a_int = round(a)
        if abs(a - a_int) < POLE_SNAP_TOL:
            a = float(a_int)
        d = a - self.m
        pole = (d > -POLE_SNAP_TOL and abs(d - round(d)) < POLE_SNAP_TOL
                and round(d) % 2 == 0)
        object.__setattr__(self, "at_pole", bool(pole))


def _angular_rule(m: int, nodes: int):
    if m == 1:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    if m == 2:
        th = 2.0 * math.pi * np.arange(nodes) / nodes
        v = np.stack([np.cos(th), np.sin(th)], axis=-1)
        w = np.full(nodes, 2.0 * math.pi / nodes)
        return v, w
    raise PreconditionError("radial profiles support m in {1, 2}")


# ----------------------------------------------------------------------
# radial profile
# ----------------------------------------------------------------------

def _lobatto_radii(n: int, eps0: float) -> np.ndarray:
    """Radii t_j with s_j = t_j^2 the n + 1 Chebyshev-Lobatto points of
    [0, eps0^2], ascending: t_j = eps0 sin(pi j / 2n)."""
    return eps0 * np.sin(0.5 * math.pi * np.arange(n + 1) / n)


def _shifted_chebyshev(n: int) -> np.ndarray:
    """Row j holds the coefficients of T_j(2u - 1) in powers of u, j < n."""
    out = np.zeros((n, n))
    out[0, 0] = 1.0
    if n > 1:
        out[1, :2] = (-1.0, 2.0)
    for j in range(1, n - 1):
        out[j + 1, 1:] = 4.0 * out[j, :-1]
        out[j + 1] -= 2.0 * out[j] + out[j - 1]
    return out


@dataclass
class RadialProfile:
    """Chord density phi as a Chebyshev interpolant in s = t^2.

    ts are the radii of the Chebyshev-Lobatto points of [0, eps0^2] (see
    `_lobatto_radii`, ts[0] = 0) and values the samples of phi there; the
    rest is derived from them. coefficients are the interpolant's Chebyshev
    coefficients in x = 2 s / eps0^2 - 1, chopped below CHOP_TOL of the
    largest; fit_residual is the largest chopped one, the level of
    truncation error and sampling noise per coefficient; taylor[j] is the
    interpolant's coefficient of t^j, up to the first power past its
    degree (odd ones and the last zero, so taylor[2] is phi''(0) / 2).
    """

    ts: np.ndarray
    values: np.ndarray
    m: int
    eps0: float
    sigma: float                  # phi(0) = volume of unit (m-1)-sphere
    coefficients: np.ndarray = field(init=False)
    fit_residual: float = field(init=False)
    taylor: np.ndarray = field(init=False)

    def __post_init__(self):
        self.ts = np.asarray(self.ts, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        n = len(self.values) - 1
        if (n < 1 or self.ts.shape != self.values.shape or not np.allclose(
                self.ts, _lobatto_radii(n, self.eps0), rtol=1e-12, atol=0)):
            raise PreconditionError("profile samples must sit at two or more "
                                    "Chebyshev-Lobatto radii of [0, eps0]")
        # DCT-I of the samples ordered by x = -cos(pi j / n)
        c = dct(self.values, type=1) / n
        c[[0, -1]] *= 0.5
        c[1::2] *= -1.0
        big = np.abs(c) > CHOP_TOL * np.max(np.abs(c))
        keep = int(np.nonzero(big)[0][-1]) + 1 if big.any() else 1
        self.coefficients = c[:keep]
        tail = np.abs(c[keep:])
        self.fit_residual = float(tail.max()) if len(tail) else 0.0
        s_pow = (self.eps0 ** 2) ** np.arange(keep)
        self.taylor = np.zeros(2 * keep + 1)
        self.taylor[:-1:2] = (self.coefficients @ _shifted_chebyshev(keep)
                              / s_pow)

    def evaluate(self, t):
        t = np.asarray(t, dtype=float)
        x = 2.0 * (t / self.eps0) ** 2 - 1.0
        out = np.polynomial.chebyshev.chebval(x, self.coefficients)
        return float(out) if t.ndim == 0 else out

    @classmethod
    def from_function(cls, fn, m, eps0) -> "RadialProfile":
        """Profile of a given even density fn(t), sampled like a patch's."""
        return _interpolate(lambda t: np.asarray(fn(t), dtype=float),
                            m, float(eps0), float(fn(0.0)))


def _interpolate(sample, m, eps0, sigma) -> RadialProfile:
    """Sample phi at 17, 33 and then 65 Chebyshev-Lobatto points in s until
    the interpolant is resolved; each level reuses the earlier samples."""
    n = _LEVELS[0]
    values = sample(_lobatto_radii(n, eps0))
    while True:
        profile = RadialProfile(ts=_lobatto_radii(n, eps0), values=values,
                                m=m, eps0=eps0, sigma=sigma)
        if 4 * (len(profile.coefficients) - 1) <= 3 * n:
            return profile
        if n == _LEVELS[-1]:
            c = np.abs(profile.coefficients)
            tail = float(np.max(c[3 * n // 4 + 1:]))
            raise ProfileFitError(
                f"radial profile unresolved at {n + 1} Chebyshev points: its "
                f"last quarter of coefficients reaches {tail / c.max():.3g} "
                f"of the largest (chop level {CHOP_TOL:g})", residual=tail)
        finer = np.empty(2 * n + 1)
        finer[::2] = values
        finer[1::2] = sample(_lobatto_radii(2 * n, eps0)[1::2])
        values, n = finer, 2 * n


def _chord_rows(patch, v, t):
    """xi, dxi/dt and grad h at rows of directions v and chord radii t > 0."""
    xi, h, dh = patch.chord_solve(v, t)
    # dxi/dt = t / (xi + <grad_v h, h>)
    hv = np.einsum("kcj,kj->kc", dh, v)
    return xi, t / (xi + np.einsum("kc,kc->k", hv, h)), dh


def _profile_batch(patch, v, w, ts, m):
    """phi at many chord radii in one batched pass over (direction, t) rows."""
    ts = np.asarray(ts, dtype=float)
    vals = np.full(len(ts), float(np.sum(w)))    # phi(0) = sigma_{m-1}
    pos = ts > 0
    if not pos.any():
        return vals
    K = len(v)
    tt = np.repeat(ts[pos], K)
    xi, dxi, dh = _chord_rows(patch, np.tile(v, (len(tt) // K, 1)), tt)
    # area element sqrt(det(I + dh^T dh)) of the graph, in closed form
    d0 = dh[..., 0]
    g00 = 1.0 + np.einsum("kc,kc->k", d0, d0)
    if m == 1:
        jac = np.sqrt(g00)
        ratio = 1.0
    else:
        d1 = dh[..., 1]
        g11 = 1.0 + np.einsum("kc,kc->k", d1, d1)
        jac = np.sqrt(g00 * g11 - np.einsum("kc,kc->k", d0, d1) ** 2)
        ratio = xi / tt
    vals[pos] = (jac * ratio * dxi).reshape(-1, K) @ w
    return vals


def radial_profile(patch, eps0=None, angular_nodes=64) -> RadialProfile:
    """Construct the chord density phi for a graph patch.

    phi is sampled by the angular rule at Chebyshev-Lobatto points in
    s = t^2 (see `RadialProfile`); ProfileFitError is raised when 65
    points do not resolve it.
    """
    m = patch.m
    eps0 = float(eps0 if eps0 is not None else patch.radius)
    if eps0 > patch.radius * (1 + 1e-12):
        raise PreconditionError("profile radius exceeds the validated patch radius")
    sigma = unit_sphere_volume_m1(m)
    v, w = _angular_rule(m, angular_nodes)
    return _interpolate(lambda t: _profile_batch(patch, v, w, t, m),
                        m, eps0, sigma)


# ----------------------------------------------------------------------
# Hadamard finite part
# ----------------------------------------------------------------------

@dataclass
class FinitePartResult:
    """Pf. integral value with its regularization bookkeeping.

    The truncated integral over [eps, eps0] expands as
    value - sum_j c_j eps^(e_j) - c_log * log(eps) + o(1); subtracted_powers
    lists the (e_j, c_j) with e_j < 0 and c_log is the log coefficient.
    """

    value: float
    subtracted_powers: list
    log_coefficient: float
    error_estimate: float


def finite_part(params: EnergyParams, profile: RadialProfile,
                eps0: float | None = None) -> FinitePartResult:
    """Pf. of integral_0^eps0 t^(alpha+m-1) phi(t) dt, in closed form.

    With phi = sum_k a_k t^(2k) (profile.taylor) this is
    sum_k a_k eps0^(e_k) / e_k, e_k = alpha + m + 2k, where a collision
    e_k = 0 contributes a_k log(eps0) (the convention x^0/0 = log x). Any
    eps0 up to the profile's own radius may be used. The error estimate
    pushes the profile's tail level through the same sum for each
    Chebyshev basis polynomial up to one past the kept degree (the last
    entry of taylor), and adds the rounding of the sum.
    """
    alpha, m = params.alpha, params.m
    if m != profile.m:
        raise PreconditionError("profile dimension does not match params")
    eps0 = float(eps0 if eps0 is not None else profile.eps0)
    if eps0 > profile.eps0 * (1 + 1e-12):
        raise PreconditionError("eps0 exceeds the profile range")
    a = profile.taylor[::2]
    k = np.arange(len(a))
    e = alpha + m + 2.0 * k
    pole = np.abs(e) < POLE_SNAP_TOL
    w = np.where(pole, math.log(eps0), eps0 ** e / np.where(pole, 1.0, e))
    terms = a * w
    value = math.fsum(terms)
    log_coef = float(np.sum(a[pole]))
    subtracted = [(float(e_k), float(a_k / e_k))
                  for e_k, a_k in zip(e, a) if e_k < -POLE_SNAP_TOL]
    basis = _shifted_chebyshev(len(w)) @ (w / (profile.eps0 ** 2) ** k)
    err = (profile.fit_residual * float(np.sum(np.abs(basis)))
           + 8.0 * np.finfo(float).eps * float(np.sum(np.abs(terms))))
    return FinitePartResult(value=value, subtracted_powers=subtracted,
                            log_coefficient=log_coef, error_estimate=err)
