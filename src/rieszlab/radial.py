"""Radial chord-density profiles and Hadamard finite parts.

For a point x with graph patch h, the volume psi(t) of the patch within
chord distance t satisfies psi'(t) = t^(m-1) * phi(t), where the density
phi is smooth and even at t = 0 with phi(0) = sigma_{m-1}. This module
builds phi by angular quadrature of the chord-radius change of variables
and evaluates finite parts Pf. of integrals t^(alpha+m-1) phi(t) dt, using
the convention x^0/0 = log x at exponent collisions.

Each (direction v, chord radius t) row of the quadrature needs the radius
xi with xi^2 + |h(xi v)|^2 = t^2, its derivative dxi/dt and grad h there.
Chart patches solve each row with one Newton iteration in the chart
parameters (`GraphPatch.chord_solve`); patches with only an explicit
height (mesh fits) are inverted along the ray by `radial_inverse`, a
bracketed Newton in xi.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import (NumericalError, PreconditionError, ProfileFitError)
from .quadrature import graded_power_integral, power_deflated_spline_integral

__all__ = [
    "EnergyParams",
    "RadialProfile",
    "FinitePartResult",
    "unit_sphere_volume_m1",
    "safe_ratio",
    "safe_ratio_derivatives",
    "radial_inverse",
    "radial_profile",
    "finite_part",
]

POLE_SNAP_TOL = 1e-12


def unit_sphere_volume_m1(m: int) -> float:
    """Volume of the unit (m-1)-sphere: 2 for m=1, 2*pi for m=2, ..."""
    return 2.0 * math.pi ** (m / 2.0) / math.gamma(m / 2.0)


@dataclass(frozen=True)
class EnergyParams:
    """Kernel exponent alpha together with derived regularization data."""

    alpha: float
    m: int
    taylor_order: int = field(init=False)
    at_pole: bool = field(init=False)

    def __post_init__(self):
        if not math.isfinite(float(self.alpha)):
            raise PreconditionError(f"alpha must be finite, got {self.alpha!r}")
        a = -float(self.alpha)
        a_int = round(a)
        if abs(a - a_int) < POLE_SNAP_TOL:
            a = float(a_int)
        order = max(int(math.floor(a + 1e-15)) - self.m, 0)
        object.__setattr__(self, "taylor_order", order)
        d = a - self.m
        pole = (d > -POLE_SNAP_TOL and abs(d - round(d)) < POLE_SNAP_TOL
                and round(d) % 2 == 0)
        object.__setattr__(self, "at_pole", bool(pole))

    @property
    def needs_regularization(self) -> bool:
        return self.alpha <= -self.m + POLE_SNAP_TOL


# ----------------------------------------------------------------------
# safe division g(t)/t for g(0) = g'(0) = 0
# ----------------------------------------------------------------------

def safe_ratio(g, dg=None, check_step=1e-6, tol=1e-8):
    """Return gbar(t) = g(t)/t extended by gbar(0) = 0.

    Requires g(0) = g'(0) = 0 (checked, with g'(0) taken from dg when given,
    else by central differences).
    """
    g0 = float(g(0.0))
    if dg is not None:
        g1 = float(dg(0.0))
    else:
        g1 = (float(g(check_step)) - float(g(-check_step))) / (2 * check_step)
    if abs(g0) > tol or abs(g1) > tol:
        raise PreconditionError(
            f"safe_ratio requires g(0)=g'(0)=0, got g(0)={g0:.3g}, g'(0)={g1:.3g}")

    def gbar(t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        nz = t != 0.0
        out[nz] = np.asarray(g(t[nz])) / t[nz]
        return out if out.ndim else float(out)

    return gbar


def safe_ratio_derivatives(g_derivs_at_zero):
    """Derivatives of g(t)/t at 0 from those of g: gbar^(j) = g^(j+1)/(j+1)."""
    g = np.asarray(g_derivs_at_zero, dtype=float)
    if len(g) < 2 or abs(g[0]) > 0 or abs(g[1]) > 0:
        raise PreconditionError("need g(0)=g'(0)=0 and derivatives from order 0")
    return np.array([g[j + 1] / (j + 1) for j in range(len(g) - 1)])


# ----------------------------------------------------------------------
# chord radius inversion xi(v, t)
# ----------------------------------------------------------------------

def radial_inverse(patch, v, t, tol_factor=1e-12, max_iter=50):
    """Solve xi^2 + |h(xi v)|^2 = t^2 for xi >= 0 along unit directions v.

    v has shape (K, m); t is a scalar or (K,). Returns (xi, dxi_dt). The
    Newton iteration is bracketed on [0, t] (the residual is negative at 0
    and nonnegative at t), falling back to bisection when a step leaves the
    bracket.
    """
    v = np.atleast_2d(np.asarray(v, dtype=float))
    K = len(v)
    t_arr = np.broadcast_to(np.asarray(t, dtype=float), (K,)).copy()
    if np.any(t_arr < 0):
        raise PreconditionError("chord length t must be nonnegative")
    xi = t_arr.copy()
    lo = np.zeros(K)
    hi = t_arr.copy()
    active = t_arr > 0
    for _ in range(max_iter):
        if not active.any():
            break
        eta = xi[active, None] * v[active]
        h = np.atleast_2d(patch.height(eta))
        dh = patch.height_jacobian(eta)
        F = xi[active] ** 2 + np.sum(h * h, axis=-1) - t_arr[active] ** 2
        hv = np.einsum("kcj,kj->kc", dh, v[active])
        slope = xi[active] + np.einsum("kc,kc->k", hv, h)
        done = np.abs(F) <= tol_factor * t_arr[active] ** 2
        # update brackets
        la = lo[active]
        ha = hi[active]
        la = np.where(F < 0, xi[active], la)
        ha = np.where(F > 0, xi[active], ha)
        step = F / (2.0 * slope)
        cand = xi[active] - step
        bad = (cand <= la) | (cand >= ha) | ~np.isfinite(cand)
        cand = np.where(bad, 0.5 * (la + ha), cand)
        xi_new = np.where(done, xi[active], cand)
        lo[active] = la
        hi[active] = ha
        xi[active] = xi_new
        sub = active.copy()
        sub[active] = ~done
        active = sub
    if active.any():
        raise NumericalError("radial inversion failed to converge "
                             "(patch bound violated?)")
    # dxi/dt = t / (xi + <grad_v h, h>)
    eta = xi[:, None] * v
    h = np.atleast_2d(patch.height(eta))
    dh = patch.height_jacobian(eta)
    hv = np.einsum("kcj,kj->kc", dh, v)
    denom = xi + np.einsum("kc,kc->k", hv, h)
    dxi = np.ones(K)
    nz = t_arr > 0
    dxi[nz] = t_arr[nz] / denom[nz]
    return xi, dxi


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

@dataclass
class RadialProfile:
    """Chord density phi(t) with its even Taylor data at t = 0."""

    ts: np.ndarray            # sample abscissae in (0, eps0]
    values: np.ndarray        # phi at ts
    taylor: np.ndarray        # taylor[j] = phi^(j)(0) / j!
    m: int
    eps0: float
    sigma: float              # phi(0) = volume of unit (m-1)-sphere
    evaluator: object = None  # optional direct evaluator t -> phi(t)
    fit_residual: float = 0.0
    odd_coefficients: np.ndarray | None = None
    spline: object = None     # piecewise-cubic representation when built
    remainder_fn: object = None  # optional exact phi(t) - full-jet(t)

    def evaluate(self, t):
        t = np.asarray(t, dtype=float)
        if self.evaluator is not None:
            return self.evaluator(t)
        if self.spline is None:
            ts = np.concatenate([[0.0], self.ts])
            vs = np.concatenate([[self.sigma], self.values])
            object.__setattr__(self, "spline", CubicSpline(ts, vs))
        out = self.spline(t)
        return float(out) if t.ndim == 0 else out

    def taylor_sum(self, t, order):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        for j in range(min(order, len(self.taylor) - 1), -1, -1):
            out = out * t + self.taylor[j]
        return out

    @classmethod
    def from_function(cls, fn, taylor, m, eps0, samples=64, remainder_fn=None):
        ts = np.linspace(eps0 / samples, eps0, samples)
        taylor = np.asarray(taylor, dtype=float)
        return cls(ts=ts, values=np.asarray(fn(ts), dtype=float),
                   taylor=taylor, m=m, eps0=float(eps0),
                   sigma=float(taylor[0]), evaluator=fn,
                   remainder_fn=remainder_fn)

    # -- serialization: CSV table with a JSON header line ----------------

    def to_csv(self, path_or_buf):
        header = {
            "m": self.m,
            "eps0": self.eps0,
            "sigma": self.sigma,
            "taylor": [float(c) for c in self.taylor],
            "fit_residual": self.fit_residual,
        }
        own = isinstance(path_or_buf, (str, bytes)) or hasattr(path_or_buf, "__fspath__")
        fh = open(path_or_buf, "w", newline="") if own else path_or_buf
        try:
            fh.write("# " + json.dumps(header, sort_keys=True) + "\n")
            writer = csv.writer(fh)
            writer.writerow(["t", "phi"])
            for t, v in zip(self.ts, self.values):
                writer.writerow([format(t, ".17g"), format(v, ".17g")])
        finally:
            if own:
                fh.close()

    @classmethod
    def from_csv(cls, path):
        with open(path) as fh:
            first = fh.readline()
            if not first.startswith("#"):
                raise PreconditionError("missing JSON header line")
            header = json.loads(first[1:].strip())
            reader = csv.reader(io.StringIO(fh.read()))
            rows = [r for r in reader if r and r[0] != "t"]
        ts = np.array([float(r[0]) for r in rows])
        vals = np.array([float(r[1]) for r in rows])
        return cls(ts=ts, values=vals,
                   taylor=np.asarray(header["taylor"], dtype=float),
                   m=int(header["m"]), eps0=float(header["eps0"]),
                   sigma=float(header["sigma"]),
                   fit_residual=float(header.get("fit_residual", 0.0)))


def _chord_rows(patch, v, t):
    """xi, dxi/dt and grad h at rows of directions v and chord radii t > 0.

    Chart patches solve each row once in chart parameters (chord_solve);
    other patches invert their explicit height along the ray.
    """
    solve = getattr(patch, "chord_solve", None)
    if solve is None:
        xi, dxi = radial_inverse(patch, v, t)
        return xi, dxi, patch.height_jacobian(xi[:, None] * v)
    xi, h, dh = solve(v, t)
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


def radial_profile(patch, eps0=None, angular_nodes=64, fit_samples=48,
                   table_samples=64, fit_range=0.5, fit_degree=6,
                   include_odd=False, fit_tol=1e-3,
                   spline_eval=False) -> RadialProfile:
    """Construct the chord density phi for a graph patch.

    Taylor coefficients at 0 come from an even-polynomial least-squares fit
    on (0, fit_range * eps0] with phi(0) pinned to sigma_{m-1} exactly; odd
    powers are excluded unless include_odd is set (then they are reported
    separately for diagnostics, the stored Taylor data stays even).
    With spline_eval the evaluator is a cubic spline through one dense
    batched sampling pass (much cheaper inside adaptive quadrature, with
    interpolation error around 1e-9 relative on smooth patches).
    """
    m = patch.m
    eps0 = float(eps0 if eps0 is not None else patch.radius)
    if eps0 > patch.radius * (1 + 1e-12):
        raise PreconditionError("profile radius exceeds the validated patch radius")
    sigma = unit_sphere_volume_m1(m)
    v, w = _angular_rule(m, angular_nodes)

    def exact_evaluator(t):
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        vals = _profile_batch(patch, v, w, np.atleast_1d(t), m)
        return float(vals[0]) if scalar else vals

    spline = None
    if spline_eval:
        # one dense batched pass feeds the spline, the Taylor fit and the
        # sample table; extra exact evaluations are avoided in hot loops
        n_lin = max(48, 2 * fit_samples)
        t_dense = np.concatenate([
            [0.0],
            np.geomspace(eps0 * 1e-4, eps0 * 0.08, 14),
            np.linspace(eps0 * 0.1, eps0, n_lin),
        ])
        dense_vals = _profile_batch(patch, v, w, t_dense, m)
        spline = CubicSpline(t_dense, dense_vals)

        def evaluator(t):
            t = np.asarray(t, dtype=float)
            out = spline(t)
            return float(out) if t.ndim == 0 else out

        take = np.linspace(1, len(t_dense) - 1, table_samples).astype(int)
        ts = t_dense[take]
        values = dense_vals[take]
        fit_mask = (t_dense > 0) & (t_dense <= eps0 * fit_range + 1e-15)
        t_fit = t_dense[fit_mask]
        y = dense_vals[fit_mask] - sigma
    else:
        evaluator = exact_evaluator
        ts = np.linspace(eps0 / table_samples, eps0, table_samples)
        values = exact_evaluator(ts)
        t_fit = np.linspace(eps0 * fit_range / fit_samples,
                            eps0 * fit_range, fit_samples)
        y = exact_evaluator(t_fit) - sigma
    tau = t_fit / (eps0 * fit_range)
    even_pows = list(range(2, fit_degree + 1, 2))
    odd_pows = list(range(1, fit_degree + 1, 2)) if include_odd else []
    cols = [tau ** p for p in even_pows] + [tau ** p for p in odd_pows]
    X = np.stack(cols, axis=-1)
    sol, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = float(np.sqrt(np.mean((X @ sol - y) ** 2))) / max(sigma, 1.0)
    if resid > fit_tol:
        raise ProfileFitError(
            f"radial profile fit residual {resid:.3g} exceeds {fit_tol:.3g}",
            residual=resid)
    scale = eps0 * fit_range
    taylor = np.zeros(fit_degree + 1)
    taylor[0] = sigma
    for c, p in zip(sol[:len(even_pows)], even_pows):
        taylor[p] = c / scale ** p
    odd = None
    if include_odd:
        odd = np.array([c / scale ** p
                        for c, p in zip(sol[len(even_pows):], odd_pows)])
    return RadialProfile(ts=ts, values=values, taylor=taylor, m=m, eps0=eps0,
                         sigma=sigma, evaluator=evaluator, fit_residual=resid,
                         odd_coefficients=odd, spline=spline)


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
                eps0: float | None = None, quad_rtol=1e-11) -> FinitePartResult:
    """Pf. of integral_0^eps0 t^(alpha+m-1) phi(t) dt.

    Power terms of the Taylor jet are integrated in closed form with the
    convention x^0/0 = log x at exponent collisions; the remainder integrand
    t^(alpha+m-1) (phi - jet) is integrable and handled by graded adaptive
    quadrature toward 0.
    """
    alpha, m = params.alpha, params.m
    if m != profile.m:
        raise PreconditionError("profile dimension does not match params")
    eps0 = float(eps0 if eps0 is not None else profile.eps0)
    if eps0 > profile.eps0 * (1 + 1e-12):
        raise PreconditionError("eps0 exceeds the profile range")
    abar = params.taylor_order
    if abar > len(profile.taylor) - 1:
        raise PreconditionError(
            f"profile Taylor data (order {len(profile.taylor) - 1}) cannot "
            f"regularize alpha={alpha} (needs order {abar})")
    value = 0.0
    subtracted = []
    log_coef = 0.0
    for j in range(abar + 1):
        e = alpha + m + j
        coef = float(profile.taylor[j])
        if abs(e) < POLE_SNAP_TOL:
            if abs(alpha - round(alpha)) > 1e-9:
                raise NumericalError(
                    "exponent collision at non-integer alpha")  # unreachable
            log_coef = coef
            value += coef * math.log(eps0)
        else:
            value += coef / e * eps0 ** e
            if e < 0:
                subtracted.append((e, coef / e))

    # The numeric remainder subtracts the full stored jet (not just the
    # order-abar part) to avoid integrating near-cancelling differences
    # against a steep power; the terms between abar and the jet degree are
    # then added back in closed form. Their exponents all exceed
    # alpha + m + abar > -1, so no collision is possible here.
    deg = len(profile.taylor) - 1
    for j in range(abar + 1, deg + 1):
        coef = float(profile.taylor[j])
        if coef != 0.0:
            e = alpha + m + j
            value += coef / e * eps0 ** e

    gamma = alpha + m - 1.0
    if profile.spline is not None:
        # exact piecewise integration of the spline representation; the
        # first interval [0, t_cut] would amplify frozen sampling noise
        # through the power factor, so its true mass (next Taylor order)
        # is bounded into the error estimate instead
        t_cut = float(profile.spline.x[1]) if len(profile.spline.x) > 2 else 0.0
        rem = power_deflated_spline_integral(profile.spline, profile.taylor,
                                             gamma, t_cut, eps0)
        q_cut = abs(float(profile.evaluate(t_cut))
                    - float(profile.taylor_sum(np.asarray(t_cut), deg)))
        err = q_cut * t_cut ** (gamma + 1.0) * t_cut
    elif profile.remainder_fn is not None:
        # cancellation-free tail supplied by the profile (the jet cancels
        # against the leading terms analytically)
        def remainder(t):
            return t ** gamma * profile.remainder_fn(t)

        rem, err = graded_power_integral(remainder, 0.0, eps0,
                                         exponent_floor=-0.5,
                                         rtol=quad_rtol)
    else:
        def remainder(t):
            return t ** gamma * (profile.evaluate(t)
                                 - profile.taylor_sum(t, deg))

        floor = max(alpha + m + 1.0, -0.9)
        rem, err = graded_power_integral(remainder, 0.0, eps0,
                                         exponent_floor=floor,
                                         rtol=quad_rtol)
    return FinitePartResult(value=value + rem, subtracted_powers=subtracted,
                            log_coefficient=log_coef, error_estimate=err)
