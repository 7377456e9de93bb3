"""Degeneration laboratory: model integrals near double points and two-body
blow-up sweeps with exponent/log-law fitting.

Three local models of a double point are measured: orthogonal sheets
(kernel (t^2+s^2)^(a/2) with both area factors), a sphere tangent to a plane
(gap profile (rho/2)^4 + r^2), and a double cone (kernel (r+rho)^a). Each is
integrated with an inner cutoff and the cutoff law classified as finite,
logarithmic, or power growth. Each model integral is one array pass: the
tangential scan stacks every cutoff's outer panels and takes the inner r
integral in closed form at every node, and the orthogonal and cone models
evaluate their integrand on the grid of all dyadic boxes, in blocks of
whole levels of at most `PAIR_BLOCK` points. The sums
keep the order of a panel-by-panel and box-by-box loop, so the values do
not depend on the batching. The two-body sweep measures the cross
interaction of two round m-spheres at gap delta, its chords
cancellation-free with trigonometry on the 1D rules only. For m = 1 it
works in the distance frame: each outer point's squared chords to the
other circle are a row constant plus a row scale times sin^2 of the inner
angle from the point's foot, so the grid is one outer product. It is
graded to the integrand's two scales near contact: the outer angle to
0.25 sqrt(delta / r), the width of the facing caps, and the inner angle to
0.25 delta / r, the width of the kernel peak at each row's foot; a
Gauss-Legendre panel no longer than its distance to the nearest
singularity converges geometrically, so a finer grid adds no accuracy.
The sweep compares the energy with the annulus-pair lower bound
lambda(delta, rho) summed over dyadic scales, every gap's in one array
pass. Every rule is read from the cached `quadrature.gauss_legendre`.
Overflow, division by zero or an invalid operation in a model or a sweep
is a NumericalError (`errors.checked_arithmetic`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (PreconditionError, UnsupportedInputError,
                     checked_arithmetic)
from .quadrature import (PAIR_BLOCK, compensated_sum, gauss_legendre,
                         graded_panels)

__all__ = [
    "CutoffFit",
    "classify_cutoff_law",
    "orthogonal_model_integral",
    "OrthogonalModelResult",
    "tangent_model_scan",
    "cone_model_scan",
    "two_body_sweep",
    "TwoBodySweepResult",
    "lambda_bound",
    "lambda_bound_sum",
    "unit_ball_volume",
]

# Gauss-Legendre nodes per panel of the one-dimensional panel rules (the
# tangential model's rho panels, the two-body cross energy).
PANEL_ORDER = 16
# Gauss-Legendre nodes per axis of each dyadic box of the orthogonal and
# cone models.
BOX_ORDER = 12
# Dyadic shells of the orthogonal model toward the crossing.
ORTHOGONAL_LEVELS = 60
# Largest alpha whose orthogonal integrand the BOX_ORDER rule resolves: it
# is 4e-15 off the closed form at alpha = 40, 7e-12 at 60 and 4e-8 at 100.
ORTHOGONAL_MAX_ALPHA = 40.0
# Shells of the cone model beyond the smallest cutoff's.
CONE_EXTRA_LEVELS = 4
# Dyadic scales of the annulus cascade sum.
CASCADE_TERMS = 80
# classify_cutoff_law: increments shrinking by less than FINITE_RATIO each
# step mean a finite limit; a fit wins outright when its R^2 deficit is
# RESIDUAL_RATIO times smaller than the other's.
FINITE_RATIO = 0.8
RESIDUAL_RATIO = 4.0


def unit_ball_volume(m: int) -> float:
    """Volume of the unit m-ball (2 for m=1, pi for m=2, ...)."""
    return math.pi ** (m / 2.0) / math.gamma(m / 2.0 + 1.0)


# ----------------------------------------------------------------------
# cutoff-law classification
# ----------------------------------------------------------------------

@dataclass(slots=True)
class CutoffFit:
    """Classification of V(cutoff) as the cutoff shrinks to zero."""

    law: str                    # finite | log | power
    exponent: float             # power-law exponent of V (0 for log/finite)
    r2: float
    cutoffs: np.ndarray
    values: np.ndarray
    limit: float | None = None  # extrapolated limit when finite
    log_coefficient: float | None = None

    def as_dict(self):
        return {
            "law": self.law,
            "exponent": self.exponent,
            "r2": self.r2,
            "cutoffs": [float(c) for c in self.cutoffs],
            "values": [float(v) for v in self.values],
            "limit": self.limit,
            "log_coefficient": self.log_coefficient,
        }


def _linfit(x, y):
    A = np.stack([x, np.ones_like(x)], axis=-1)
    sol, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ sol
    ss_res = float(np.sum(resid ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return sol[0], sol[1], r2, ss_res


def classify_cutoff_law(cutoffs, values) -> CutoffFit:
    """Classify V(cutoff) growth from samples at decreasing cutoffs.

    Finiteness is detected on the increments between consecutive cutoffs
    (which cancels any additive constant): geometrically shrinking
    increments (every ratio below FINITE_RATIO) mean a finite limit,
    extrapolated by summing the geometric tail. Otherwise two least-squares
    models compete, V linear in log(1/cutoff) versus log V linear in log
    cutoff, selected when one R^2 deficit is at least RESIDUAL_RATIO times
    smaller, else by the better fit.
    """
    # copies: a view would keep its whole base array alive in the fit
    cut = np.array(cutoffs, dtype=float)
    val = np.array(values, dtype=float)
    if len(cut) < 3:
        raise PreconditionError("need at least 3 cutoff samples")
    if not (np.all(np.isfinite(cut)) and np.all(np.isfinite(val))):
        raise PreconditionError("cutoffs and values must be finite")
    if np.any(np.diff(cut) >= 0):
        raise PreconditionError("cutoffs must be strictly decreasing")
    inc = np.abs(np.diff(val))
    constant = np.all(inc <= 1e-12 * np.max(np.abs(val)))
    inc = np.maximum(inc, 1e-300)
    with np.errstate(over="ignore"):   # a ratio past the range reads inf
        ratios = inc[1:] / inc[:-1]
    if np.all(ratios < FINITE_RATIO) or constant:
        step = val[-1] - val[-2]    # signed: values may fall toward the limit
        limit = float(val[-1] + step * ratios[-1] / (1 - ratios[-1])
                      if ratios[-1] < 1 else val[-1])
        return CutoffFit("finite", 0.0, 1.0, cut, val, limit=limit)
    a_log, _, r2_log, _ = _linfit(np.log(1.0 / cut), val)
    if np.all(val > 0):
        p, _, r2_pow, _ = _linfit(np.log(cut), np.log(val))
    else:
        p, r2_pow = math.nan, -math.inf
    d_log = max(1.0 - r2_log, 1e-15)
    d_pow = max(1.0 - r2_pow, 1e-15)
    if d_log * RESIDUAL_RATIO <= d_pow:
        return CutoffFit("log", 0.0, r2_log, cut, val,
                         log_coefficient=float(a_log))
    if d_pow * RESIDUAL_RATIO <= d_log or d_pow < d_log:
        return CutoffFit("power", float(p), r2_pow, cut, val)
    return CutoffFit("log", 0.0, r2_log, cut, val,
                     log_coefficient=float(a_log))


# ----------------------------------------------------------------------
# model integrals
# ----------------------------------------------------------------------

def _dyadic_shell_sums_2d(f, outer, levels, gl_order):
    """Integrals of f over dyadic L-shells of [0, outer]^2 (smooth per box).

    Shell k is the three boxes of [0, hi]^2 \\ [0, hi/2]^2 with hi =
    outer / 2^k, each with a gl_order x gl_order Gauss-Legendre product
    rule. f is evaluated on the (levels, 3, q, q) grid of every box's
    nodes in blocks of whole levels, each of at most PAIR_BLOCK points
    (or one level, if a level has more), from the broadcastable x nodes
    (n, 3, q, 1) and y nodes (n, 3, 1, q); no full-grid copy of either is
    made, and f's values are multiplied into the block's weight grid in
    place. The models' integrands also work in place on the one block
    array they form, so a call holds at most two block arrays at a time,
    each 127.9 kB at BOX_ORDER: below glibc's 128 KiB mmap threshold, so
    their memory comes from the heap and a warm call page-faults none,
    whatever ran or was loaded before it. The orthogonal model's 60
    levels in one block would be 207 kB arrays, which page-fault on every
    call unless earlier allocations have raised the threshold. The sums
    run in a fixed order: a box adds its q * q weighted values
    sequentially in row-major order and a shell adds its three boxes left
    to right, so the blocking does not change them.
    """
    xg, wg = gauss_legendre(gl_order)
    q = len(xg)
    his = [float(outer)]
    for _ in range(levels):
        his.append(0.5 * his[-1])
    hi, lo = np.array(his[:-1]), np.array(his[1:])
    zero = np.zeros(levels)
    # boxes per level: [lo, hi] x [lo, hi], [lo, hi] x [0, lo], [0, lo] x [lo, hi]
    x0, x1 = np.stack([lo, lo, zero], -1), np.stack([hi, hi, lo], -1)
    y0, y1 = np.stack([lo, zero, lo], -1), np.stack([hi, lo, hi], -1)
    xs = (0.5 * (x1 - x0))[..., None] * (xg + 1.0) + x0[..., None]
    ys = (0.5 * (y1 - y0))[..., None] * (xg + 1.0) + y0[..., None]
    wx = (0.5 * (x1 - x0))[..., None] * wg
    wy = (0.5 * (y1 - y0))[..., None] * wg
    boxes = np.empty((levels, 3))
    step = max(1, PAIR_BLOCK // (3 * q * q))
    for k in range(0, levels, step):
        b = slice(k, k + step)
        terms = wx[b, :, :, None] * wy[b, :, None, :]
        terms *= f(xs[b, :, :, None], ys[b, :, None, :])
        boxes[b] = np.cumsum(terms.reshape(-1, 3, q * q), axis=-1)[..., -1]
    return boxes[:, 0] + boxes[:, 1] + boxes[:, 2]


def _check_cutoffs(cut, inside, where):
    if cut.ndim != 1 or cut.size < 3:
        raise PreconditionError("need a list of at least 3 cutoffs")
    if not np.all(inside) or np.any(np.diff(cut) >= 0):
        raise PreconditionError(
            f"cutoffs must be strictly decreasing inside {where}")


@dataclass(slots=True)
class OrthogonalModelResult:
    value: float
    diverged: bool
    alpha: float
    rho: float
    cutoff_fit: CutoffFit | None = None


def orthogonal_model_closed_form(alpha: float, rho: float) -> float:
    """8 pi^2 rho^(a+4) (sqrt(2)^(a+2) - 1) / ((a+2)(a+4)), a > -4.

    At a = -2 the printed constant degenerates; the analytic limit replaces
    (sqrt(2)^(a+2) - 1)/(a+2) by log(sqrt(2)).
    """
    a = float(alpha)
    if a <= -4.0:
        raise PreconditionError("closed form diverges for alpha <= -4")
    if abs(a + 2.0) < 1e-12:
        frac = 0.5 * math.log(2.0)
    else:
        frac = (math.sqrt(2.0) ** (a + 2.0) - 1.0) / (a + 2.0)
    return 8.0 * math.pi ** 2 * rho ** (a + 4.0) * frac / (a + 4.0)


@checked_arithmetic
def orthogonal_model_integral(alpha: float,
                              rho: float) -> OrthogonalModelResult:
    """Interaction of two orthogonal flat sheets meeting at a point.

    Numerically integrates (t^2+s^2)^(a/2) (2 pi)^2 t s over [0, rho]^2 by
    ORTHOGONAL_LEVELS dyadic shells toward the origin. Shell sums decay
    geometrically exactly when a > -4; otherwise the result carries a
    divergence flag and the cutoff study of the partial sums at every
    fourth of the 24 innermost shells instead of a value. Beyond
    ORTHOGONAL_MAX_ALPHA the box rule no longer resolves the integrand,
    and the model raises UnsupportedInputError.
    """
    a = float(alpha)
    if not rho > 0:
        raise PreconditionError("orthogonal model needs rho > 0")
    if a > ORTHOGONAL_MAX_ALPHA:
        raise UnsupportedInputError(
            f"orthogonal model resolves alpha <= {ORTHOGONAL_MAX_ALPHA:g}, "
            f"got {a:g}")

    def f(t, s):
        v = t ** 2 + s ** 2     # in place, as (t^2+s^2)^(a/2) (2 pi)^2 t s
        v **= a / 2.0
        v *= (2.0 * math.pi) ** 2
        v *= t
        v *= s
        return v

    levels = ORTHOGONAL_LEVELS
    sums = _dyadic_shell_sums_2d(f, rho, levels, BOX_ORDER)
    # for large a the innermost shells underflow to 0; they carry no ratio
    nonzero = sums[sums != 0.0]
    ratios = nonzero[1:] / nonzero[:-1]
    tail_ratio = float(np.median(ratios[-8:])) if ratios.size else 0.0
    cutoffs = rho * 0.5 ** np.arange(1, levels + 1)
    partial = np.cumsum(sums)
    if tail_ratio < 1.0 - 1e-6:
        # geometric tail extrapolation
        total = float(partial[-1] + sums[-1] * tail_ratio / (1.0 - tail_ratio))
        return OrthogonalModelResult(value=total, diverged=False, alpha=a,
                                     rho=rho)
    take = slice(levels - 24, levels, 4)
    fit = classify_cutoff_law(cutoffs[take], partial[take])
    return OrthogonalModelResult(value=math.inf, diverged=True, alpha=a,
                                 rho=rho, cutoff_fit=fit)


def _tangent_inner(a, A, R):
    """integral_0^R (A + r^2)^(a/2) r dr = ((A + R^2)^p - A^p) / (2p), p =
    a/2 + 1, elementwise in A > 0; the larger power is factored out, so
    the difference is an expm1 and nothing cancels (log1p(R^2/A) / 2 at
    p = 0)."""
    p = 0.5 * a + 1.0
    log_ratio = np.log1p(R * R / A)
    if p < 0.0:
        return A ** p * np.expm1(p * log_ratio) / (2.0 * p)
    if p > 0.0:
        return (A + R * R) ** p * -np.expm1(-p * log_ratio) / (2.0 * p)
    return 0.5 * log_ratio


def _tangent_values(a, R, cutoffs, gl_order):
    """V(cut) of the tangential model for every cutoff in one array pass.

    Each cutoff's outer range [cut, R] has 39 geometric panels of gl_order
    rho-nodes; all cutoffs' panels form one stack. The inner r integral over
    [0, R] is exact at every node (`_tangent_inner` with A = (rho/2)^4), so
    the outer rule is the only quadrature. Panels and cutoffs are summed in
    the order of a panel-by-panel loop.
    """
    xg, wg = gauss_legendre(gl_order)
    edges = np.stack([np.geomspace(cut, R, 40) for cut in cutoffs])
    lo, hi = edges[:, :-1].ravel(), edges[:, 1:].ravel()
    rh = (0.5 * (hi - lo))[:, None] * (xg + 1.0) + lo[:, None]
    wh = (0.5 * (hi - lo))[:, None] * wg
    inner = _tangent_inner(a, (rh / 2.0) ** 4, R)
    panels = np.sum(inner * rh * wh, axis=1).reshape(len(cutoffs), -1)
    return np.cumsum(panels, axis=1)[:, -1]


@checked_arithmetic
def tangent_model_scan(alpha: float, extent: float = 0.5,
                       cutoffs=None) -> CutoffFit:
    """Cutoff study of the tangential double-point model.

    Integrand ((rho/2)^4 + r^2)^(a/2) r rho over [cutoff, R] x [0, R]; the
    squared-gap profile (rho/2)^4 models a sphere resting on a plane. The
    r integral is exact (closed form), so the r ~ rho^2 concentration scale
    needs no resolving; the rho integral is Gauss-Legendre on geometric
    panels. The extent R lies in (0, 1] and the cutoffs decrease strictly
    inside (0, R).
    """
    a = float(alpha)
    R = float(extent)
    if not 0.0 < R <= 1.0:
        raise PreconditionError("model extent must satisfy 0 < R <= 1")
    if cutoffs is None:
        cutoffs = R * 10.0 ** -np.arange(1, 6, dtype=float)
    cutoffs = np.asarray(cutoffs, dtype=float)
    _check_cutoffs(cutoffs, (cutoffs > 0.0) & (cutoffs < R), f"(0, {R:g})")
    return classify_cutoff_law(cutoffs,
                               _tangent_values(a, R, cutoffs, PANEL_ORDER))


@checked_arithmetic
def cone_model_scan(alpha: float, cutoffs=None) -> CutoffFit:
    """Cutoff study of the double-cone interaction model.

    Integrand (r + rho)^a rho r over [0,1]^2 minus the dyadic corner
    max(r, rho) < cutoff; finite iff a > -4 with power law a + 4 below.
    The cutoffs decrease strictly inside (0, 1].
    """
    a = float(alpha)
    if cutoffs is None:
        cutoffs = 10.0 ** -np.arange(1, 6, dtype=float)
    cutoffs = np.asarray(cutoffs, dtype=float)
    _check_cutoffs(cutoffs, (cutoffs > 0.0) & (cutoffs <= 1.0), "(0, 1]")

    def f(r, rho):
        v = r + rho                  # in place, as (r + rho)^a r rho
        v **= a
        v *= r
        v *= rho
        return v

    levels = int(math.ceil(-math.log2(np.min(cutoffs)))) + CONE_EXTRA_LEVELS
    sums = _dyadic_shell_sums_2d(f, 1.0, levels, BOX_ORDER)
    shell_edges = 0.5 ** np.arange(1, levels + 1)
    vals = []
    for cut in cutoffs:
        # shells fully outside the cutoff corner
        keep = shell_edges >= cut
        vals.append(float(np.sum(sums[keep])))
    return classify_cutoff_law(cutoffs, np.asarray(vals))


# ----------------------------------------------------------------------
# two-body sweeps
# ----------------------------------------------------------------------

def lambda_bound(m: int, alpha: float, delta, rho):
    """Annulus-pair lower bound 2^a c1^2 rho^(2m+a) (1+d/rho)^a, with delta
    and rho broadcast against each other."""
    rho = np.asarray(rho, dtype=float)
    if not math.isfinite(alpha):
        raise PreconditionError(f"alpha must be finite, got {alpha}")
    if not (np.all(np.asarray(delta) > 0) and np.all(rho > 0)):
        raise PreconditionError("lambda bound needs delta, rho > 0")
    c1 = 0.9 * (1.0 - 0.5 ** m) * unit_ball_volume(m)
    return (2.0 ** alpha * c1 ** 2 * rho ** (2 * m + alpha)
            * (1.0 + delta / rho) ** alpha)


def lambda_bound_sum(m: int, alpha: float, delta, rho0: float):
    """Sum of lambda over the dyadic cascade rho0 / 2^j, j < CASCADE_TERMS.

    A 1-D array of deltas gives an array of sums, all terms formed in one
    array pass and each delta's summed by one `compensated_sum`, so every
    entry equals the scalar call's; a scalar delta gives a float.
    """
    delta = np.asarray(delta, dtype=float)
    terms = lambda_bound(m, alpha, delta[..., None],
                         rho0 / 2.0 ** np.arange(CASCADE_TERMS))
    if delta.ndim == 0:
        return compensated_sum(terms)
    return np.array([compensated_sum(row) for row in terms])


def sphere_pair_cross_energy(m: int, alpha: float, radius: float,
                             gap: float) -> float:
    """Cross interaction of two round m-spheres at the given gap.

    For m = 2 the inner integral over one sphere reduces exactly to a 1D
    power integral (the surface measure between chord distances is linear
    in t^2 from any external point), leaving a single well-graded outer
    integral; D - r = L (g + 2 r s) / (D + r) keeps it at the closed form
    to rounding down to gap 1e-8. For m = 1 the integral is taken in the
    distance frame. With angles measured from the facing points, an outer
    point at angle th lies at distance D from the other centre, D^2 - r^2 =
    (2 r + g) (g + 4 r sin^2(th / 2)), and D - r is formed as that over
    D + r, as for m = 2. Its squared chord to the other circle's point at
    angle s from the foot of D is A + B sin^2(s / 2) with A = (D - r)^2 and
    B = 4 D r: even in s and, over the grid, a row constant plus a rank-one
    product. The outer angle runs over [0, pi] by the pair's reflection
    symmetry and the inner one by that evenness, so the result is
    4 r^2 sum_i wth_i sum_j ws_j (A_i + B_i sin^2(s_j / 2))^(alpha / 2).
    The integrand has two scales near contact: the facing caps are about
    sqrt(g / r) wide along the outer angle, and a row's kernel peak at its
    foot is about g / r wide in the inner angle (more on rows away from
    the facing points). So the outer angle is graded toward the facing
    points down to 0.25 sqrt(g / r) and the inner angle toward the foot
    down to 0.25 g / r; each Gauss-Legendre panel is then no longer than
    its distance to the nearest complex singularity, where it converges
    geometrically, and finer panels add no accuracy. Nothing cancels, and
    no trigonometry runs on the grid: it is one outer product, one add and
    one in-place power.
    """
    r, a = float(radius), float(alpha)
    if not math.isfinite(a):
        raise PreconditionError(f"alpha must be finite, got {a}")
    if not (math.isfinite(r) and r > 0):
        raise PreconditionError(f"radius must be positive and finite, got {r}")
    if not math.isfinite(gap):
        raise PreconditionError(f"gap must be finite, got {gap}")
    if gap <= 0:
        raise PreconditionError("gap must be positive (touching spheres are "
                                "handled by the model scans)")
    if m == 2:
        # inner sphere integral from distance D: (2 pi r / D) *
        # integral_(D-r)^(D+r) t^(alpha+1) dt, with D^2 - r^2 = L (g + 2 r s)
        s, ws = graded_panels(0.0, 2.0, gap / r * 1e-3, PANEL_ORDER)
        q = (2.0 * r + gap) * (gap + 2.0 * r * s)            # s = 1 - u
        D = np.sqrt(r * r + q)
        near = q / (D + r)                                   # D - r
        if abs(a + 2.0) < 1e-12:
            vals = np.log(D + r) - np.log(near)
        else:
            vals = ((D + r) ** (a + 2.0) - near ** (a + 2.0)) / (a + 2.0)
        return float(4.0 * math.pi ** 2 * r ** 3 * np.dot(ws, vals / D))
    if m == 1:
        th, wt = graded_panels(0.0, math.pi, 0.25 * math.sqrt(gap / r),
                               PANEL_ORDER)
        s, ws = graded_panels(0.0, math.pi, 0.25 * gap / r, PANEL_ORDER)
        sh = np.sin(0.5 * th)
        q = (2.0 * r + gap) * (gap + 4.0 * r * sh * sh)
        D = np.sqrt(r * r + q)
        near = q / (D + r)                                   # D - r
        hs = np.sin(0.5 * s)
        chord2 = np.multiply.outer(4.0 * r * D, hs * hs)
        chord2 += (near * near)[:, None]
        chord2 **= 0.5 * a
        return float(4.0 * r * r * wt @ chord2 @ ws)
    raise PreconditionError("two-body sweeps support m in {1, 2}")


@dataclass(slots=True)
class TwoBodySweepResult:
    m: int
    alpha: float
    radius: float
    gaps: np.ndarray
    energies: np.ndarray
    lambda_sums: np.ndarray
    law: str
    exponent: float | None
    r2: float
    dominates_bound: bool

    def as_dict(self):
        return {
            "m": self.m, "alpha": self.alpha, "radius": self.radius,
            "gaps": [float(g) for g in self.gaps],
            "energies": [float(e) for e in self.energies],
            "lambda_sums": [float(s) for s in self.lambda_sums],
            "law": self.law, "exponent": self.exponent, "r2": self.r2,
            "dominates_bound": self.dominates_bound,
        }


@checked_arithmetic
def two_body_sweep(m: int, alpha: float, radius: float,
                   gaps) -> TwoBodySweepResult:
    """Cross-energy sweep over shrinking gaps with blow-up law fitting.

    alpha = -2m fits energy against log(1/gap) (reporting R^2); alpha < -2m
    fits a power law in the gap. At alpha = -2m the `law` value
    "logarithmic" names that fit family and is not a classification of the
    data: a low R^2 says the data do not follow it. The annulus cascade bound
    sum_j lambda(gap, rho0/2^j) is reported alongside (rho0 = min(radius, 1),
    the largest scale on which the annulus volume estimate is valid); its
    own fits follow the count-of-scales law, log(1/gap) at the critical
    exponent and gap^(2m+alpha) below it. The measured energy dominates the
    bound at every gap but blows up faster: a near-diagonal scaling of the
    facing caps gives gap^(alpha + 3m/2) for alpha < -3m/2, which the fit
    reports honestly.
    """
    gaps = np.asarray(sorted(gaps, reverse=True), dtype=float)
    if not (np.all(gaps > 0) and np.all(np.diff(gaps) < 0)):
        raise PreconditionError("gaps must be positive and distinct")
    energies = np.array([sphere_pair_cross_energy(m, alpha, radius, g)
                         for g in gaps])
    rho0 = min(radius, 1.0)
    lam = lambda_bound_sum(m, alpha, gaps, rho0)
    dominates = bool(np.all(energies >= lam))
    if abs(alpha + 2 * m) < 1e-12:
        _, _, r2, _ = _linfit(np.log(1.0 / gaps), energies)
        return TwoBodySweepResult(m, alpha, radius, gaps, energies, lam,
                                  "logarithmic", None, r2, dominates)
    if alpha < -2 * m:
        slope, _, r2, _ = _linfit(np.log(gaps), np.log(energies))
        return TwoBodySweepResult(m, alpha, radius, gaps, energies, lam,
                                  "power", float(slope), r2, dominates)
    _, _, r2, _ = _linfit(np.log(gaps), energies)
    return TwoBodySweepResult(m, alpha, radius, gaps, energies, lam,
                              "bounded", None, r2, dominates)
