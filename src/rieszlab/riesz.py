"""Global regularized Riesz energies and closed-form beta oracles.

The double integral of |x-y|^alpha over M x M is assembled per outer node x
as (far field by direct quadrature) + (Pf. of the chord-ball integral via
the radial engine). To keep the far-field integrand smooth at the ball
boundary, the pairwise kernel is evaluated through a C^4 blend that matches
t^alpha outside the ball; the blend's own ball mass is computed radially and
removed, which makes the decomposition exact up to quadrature error.

Pairs living on different connected components always see the true kernel:
a chord ball is a statement about one graph sheet only, and cross-component
interactions stay integrable down to contact.

One patch stack is built for all outer nodes per call. The outer nodes
are then taken in blocks of at most BLOCK_ROWS first-level chord rows and
BLOCK_PAIRS node pairs: each block profiles its own nodes of that stack
(`PatchStack.take`) into one profile stack, which shrinks the radii that
fail, and one finite-part sum. The kernel sums over both inner rules (the
second, at half the scale, for the error estimate) walk a block's rows
through one pair pass (`quadrature.PairPass`) over the rules' columns side
by side, form each kernel in place in its buffers from the squared
distances s, with no square root (s^(alpha/2) by products and one division
when alpha/2 is a negative integer, as at the threshold alpha = -2m), keep
it only where it is read, and sum each rule's chunk by matrix-vector
products of its column slice.

The energies' shared types, `QuadratureConfig` and `EnergyReport`, live in
`quadrature` and the `finite_energy` check in `errors`; this module and
`radial` are the Riesz engine, which the Kusner-Sullivan energy, the
Moebius maps and the KS flow do not load (`as_energy` and the Riesz and
AS flows import `riesz_energy` when they are called). `from rieszlab.riesz import
QuadratureConfig` still resolves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (NumericalError, PoleError, PreconditionError,
                     UnsupportedInputError, finite_energy)
from .geometry.patches import default_patch_radius, graph_patch_at
from .geometry.surface import as_surface
from .quadrature import (BlendKernel, EnergyReport, PairPass,
                         QuadratureConfig, compensated_sum)
from .radial import (_LEVELS, ANGULAR_NODES, EnergyParams, _angular_rule,
                     finite_part, radial_profile)

__all__ = [
    "riesz_energy",
    "beta_oracle",
    "beta_residue",
    "finite_part_at_pole",
    "scaling_check",
    "ScalingReport",
]


# ----------------------------------------------------------------------
# the regularized energy
# ----------------------------------------------------------------------

# A block of outer nodes holds at most BLOCK_ROWS chord rows at the first
# profile level, with every sample at the angular cap ANGULAR_NODES, and
# BLOCK_PAIRS (outer, inner) node pairs. Its kernel sums take at most
# PAIR_BLOCK pairs at a time, so their working arrays stay in cache.
BLOCK_ROWS = 1 << 15
BLOCK_PAIRS = 1 << 18


def _block_size(m, inner_count) -> int:
    """Outer nodes per block of `riesz_energy`."""
    rows = _LEVELS[0] * len(_angular_rule(m, ANGULAR_NODES)[1])
    return max(1, min(BLOCK_ROWS // rows, BLOCK_PAIRS // max(inner_count, 1)))


def _kernel_power(s, half, out):
    """s^half into out for squared distances s (out is not s): the true
    kernel |y - x|^alpha at half = alpha / 2. A negative integer half, as
    at alpha = -2m and every negative even alpha, is a power of s by
    products, squares taken from the leading bit of -half, and one
    division; any other half is one np.power. Coincident pairs (s = 0)
    divide by zero, to inf, wherever half < 0."""
    p = -half
    if p < 1 or p != int(p):
        return np.power(s, half, out=out)
    src = s
    for bit in bin(int(p))[3:]:
        np.multiply(src, src, out=out)
        if bit == "1":
            out *= s
        src = out
    return np.divide(1.0, src, out=out)


def _kernel_sums(rules, x, comp, blend):
    """Sums of the blended kernel over each inner rule of `rules` for a
    block of outer nodes x (B, n): an array (rules, 3, B) holding, per
    rule, the far field, the same-component blend inside each ball and the
    cross-component true kernel inside each ball.

    One pair pass takes the rows against the columns of every rule side
    by side, in chunks a multiple of 4 rows high, and each rule's sums are
    matrix-vector products of its column slice: OpenBLAS forms such a
    product in groups of 4 rows, so each sum keeps the bits of one product
    over the whole block and rule. Every kernel is formed from the squared
    distances s that the pass yields, without a square root: the ball test
    is s < eps^2, the true kernel is s^(alpha/2) (`_kernel_power`) and the
    blend polynomial, even in t, is a polynomial in s. Each kernel is kept
    only where it is read and zeroed elsewhere: the true kernel outside
    the balls and, in chunks that have such pairs, on the other
    components' in-ball pairs, and the blend polynomial in the
    same-component balls. A block whose rows and columns all lie on one
    component has no cross-component pairs to look for."""
    cuts = np.cumsum([0, *(len(rule.points) for rule in rules)])
    parts = [(slice(a, b), rule.weights)
             for a, b, rule in zip(cuts[:-1], cuts[1:], rules)]
    points = np.concatenate([rule.points for rule in rules])
    component = np.concatenate([rule.component for rule in rules])
    one_component = (component == comp[0]).all() and (comp == comp[0]).all()
    half = 0.5 * blend.alpha
    eps2 = np.square(blend.eps)
    sums = np.zeros((len(rules), 3, len(x)))
    far, ball, cross = (sums[:, j] for j in range(3))

    def rule_sums(kernel):
        return [kernel[:, cols] @ w for cols, w in parts]

    for lo, hi, _, k, s in PairPass(x, points, 4, 2, float):
        rows = slice(lo, hi)
        in_ball = s < eps2[rows, None]
        with np.errstate(divide="ignore"):
            _kernel_power(s, half, k)
        outside = ~in_ball
        if not one_component:
            apart = in_ball & (component != comp[rows, None])
            if apart.any():
                # the true kernel on the other components' in-ball pairs, 1
                # at coincident nodes
                kernel = np.where(apart, k, 0.0)
                kernel[apart & (s == 0.0)] = 1.0
                cross[:, rows] = rule_sums(kernel)
                outside |= apart
        np.copyto(k, 0.0, where=in_ball)
        far[:, rows] = rule_sums(k)
        # the blend polynomial by Horner in s, kept in the same-component
        # balls only
        coeffs = blend.coeffs[rows]
        np.multiply(coeffs[:, -1, None], s, out=k)
        k += coeffs[:, -2, None]
        for c in coeffs[:, -3::-1].T:
            np.multiply(k, s, out=k)
            k += c[:, None]
        np.copyto(k, 0.0, where=outside)
        ball[:, rows] = rule_sums(k)
    return sums


@finite_energy
def riesz_energy(surface, alpha,
                 config: QuadratureConfig | None = None) -> EnergyReport:
    """E_alpha(M): outer integral of the regularized inner Riesz integral.

    For alpha <= -m the inner integral is the Hadamard finite part; the
    surface must then admit graph patches at every outer node (meshes use
    their fitted quadratic patches). Failures of a patch, a chord solve or
    a profile name the outer node; a value or estimate that is not finite
    is a NumericalError (see `finite_energy`).
    """
    config = config or QuadratureConfig()
    m = as_surface(surface).m
    params = alpha if isinstance(alpha, EnergyParams) else EnergyParams(float(alpha), m)
    if params.m != m:
        raise PreconditionError("EnergyParams dimension does not match surface")
    if not surface.closed:
        raise PreconditionError("riesz_energy requires a closed surface")

    outer = surface.nodes(config.outer_scale)
    inner = surface.nodes(config.inner_scale, subdiv=config.mesh_inner_subdiv)
    inner_half = surface.nodes(config.inner_scale * 0.5,
                               subdiv=max(config.mesh_inner_subdiv - 1, 0))
    requested = config.patch_radius
    if requested is None:
        requested = default_patch_radius(surface)

    def where(idx, node):
        if node is None:
            return f"outer nodes {idx[0]}-{idx[-1]}", None
        i = int(idx[node])
        return f"outer node {i} (locator {outer.locators[i]})", i

    try:
        stack = graph_patch_at(surface, outer.locators, requested)
    except NumericalError as exc:
        text, node = where(np.arange(len(outer.points)), exc.node)
        raise NumericalError(f"patch failure at {text}: {exc}",
                             node=node) from exc

    def one_block(idx):
        try:
            profiles = radial_profile(stack.take(idx))
        except NumericalError as exc:
            text = where(idx, exc.node)[0]
            exc.nodes = [int(idx[k]) for k in exc.nodes]
            exc.args = (f"{text}: {exc}",)
            raise
        pf = finite_part(params, profiles)
        eps = profiles.eps0
        blend = BlendKernel(params.alpha, eps)

        # blend-kernel mass of each chord ball: the blend polynomial times
        # t^(m-1) phi, integrated in closed form; the profile's tail level
        # bounds phi's error at (number of coefficients) * tail
        a = profiles.taylor[:, ::2]
        expo = 2.0 * np.add.outer(np.arange(blend.coeffs.shape[1]),
                                  np.arange(a.shape[1])) + m
        mass = np.power.outer(eps, expo) / expo
        corr = np.einsum("bi,bk,bik->b", blend.coeffs, a, mass)
        corr_err = (profiles.kept * profiles.fit_residual
                    * np.einsum("bi,bi->b", np.abs(blend.coeffs), mass[:, :, 0]))

        x, comp = outer.points[idx], outer.component[idx]
        (far_val, ball_blend, cross_val), half = _kernel_sums(
            (inner, inner_half), x, comp, blend)
        rule_err = np.abs(far_val + ball_blend + cross_val - sum(half))
        return (pf.value + ball_blend - corr, far_val + cross_val,
                pf.error_estimate + corr_err + rule_err, pf.log_coefficient,
                eps)

    size = _block_size(m, len(inner.points) + len(inner_half.points))
    blocks = np.split(np.arange(len(outer.points)),
                      range(size, len(outer.points), size))
    if config.threads > 1:
        from concurrent.futures import ThreadPoolExecutor
        errors = np.geterr()      # worker threads start at numpy's defaults

        def run(idx):
            with np.errstate(**errors):
                return one_block(idx)

        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            results = list(pool.map(run, blocks))
    else:
        results = [one_block(idx) for idx in blocks]
    nears, fars, errs, logcs, eps_used = (np.concatenate(r)
                                          for r in zip(*results))

    wout = outer.weights
    total = compensated_sum(wout * (nears + fars))
    near = compensated_sum(wout * nears)
    far = compensated_sum(wout * fars)
    err = compensated_sum(wout * errs)
    residue = compensated_sum(wout * logcs) if params.at_pole else None
    return EnergyReport(value=total, near=near, far=far,
                        eps0=float(np.mean(eps_used)), error_estimate=err,
                        pole_residue=residue)


# ----------------------------------------------------------------------
# closed-form oracles (round circle and round 2-sphere)
# ----------------------------------------------------------------------

_SQRT_PI = math.sqrt(math.pi)


def _gamma(x: float) -> float:
    """Gamma(x), +-inf beyond the float range."""
    try:
        return math.gamma(x)
    except OverflowError:
        return math.inf


def _rgamma(x: float) -> float:
    """1 / Gamma(x), zero at the poles x = 0, -1, -2, ..."""
    if x <= 0 and x == math.floor(x):
        return 0.0
    g = _gamma(x)
    return 1.0 / g if g else math.inf


def _circle_pole_index(z):
    """k for z = -(2k+1) to within 1e-12, else None."""
    if z > -1.0 + 1e-12:
        return None
    k = round((-z - 1.0) / 2.0)
    if k >= 0 and abs(z + 2.0 * k + 1.0) < 1e-12:
        return int(k)
    return None


def beta_residue(tag: str, radius: float, z: float) -> float:
    """Residue of the closed-form beta function at a pole z."""
    tag = tag.lower()
    if tag == "circle":
        k = _circle_pole_index(z)
        if k is None:
            raise PreconditionError(f"z={z} is not a pole of the circle oracle")
        res = (2.0 * math.pi * 2.0 ** (z + 1) * _SQRT_PI
               * 2.0 * (-1.0) ** k / math.factorial(k) * _rgamma(z / 2.0 + 1.0))
        return float(res) * radius ** (2.0 + z)
    if tag == "sphere":
        if abs(z + 2.0) > 1e-12:
            raise PreconditionError(f"z={z} is not a pole of the sphere oracle")
        return 8.0 * math.pi ** 2 * radius ** (4.0 + z)
    raise UnsupportedInputError(f"unknown oracle tag {tag!r}")


def beta_oracle(tag: str, radius: float, z: float) -> float:
    """Meromorphic continuation of the double Riesz integral, closed form.

    circle (radius 1): 2 pi 2^(z+1) sqrt(pi) Gamma((z+1)/2) / Gamma(z/2 + 1),
    simple poles at z = -1, -3, -5, ...
    sphere S^2 (radius 1): 2^(z+5) pi^2 / (z+2), simple pole at z = -2.
    Radius r scales both by r^(2m+z). Pole input raises PoleError carrying
    the residue.
    """
    tag_l = tag.lower()
    z = float(z)
    if tag_l == "circle":
        if _circle_pole_index(z) is not None:
            raise PoleError(f"circle beta oracle has a pole at z={z}",
                            residue=beta_residue(tag_l, radius, z))
        val = (2.0 * math.pi * 2.0 ** (z + 1.0) * _SQRT_PI
               * _gamma((z + 1.0) / 2.0) * _rgamma(z / 2.0 + 1.0))
        return float(val) * radius ** (2.0 + z)
    if tag_l == "sphere":
        if abs(z + 2.0) < 1e-12:
            raise PoleError(f"sphere beta oracle has a pole at z={z}",
                            residue=beta_residue(tag_l, radius, z))
        return 2.0 ** (z + 5.0) * math.pi ** 2 / (z + 2.0) * radius ** (4.0 + z)
    raise UnsupportedInputError(f"unknown oracle tag {tag!r}")


def finite_part_at_pole(tag: str, radius: float, z: float) -> float:
    """Constant Laurent term of the closed-form beta function at a pole z.

    Computed by Richardson extrapolation of the symmetric average
    (B(z+s) + B(z-s)) / 2, whose odd pole parts cancel exactly, from
    s = 1e-3 and s = 5e-4.
    """
    step = 1e-3
    beta_residue(tag, radius, z)  # raises PreconditionError on non-pole input

    def sym(s):
        return 0.5 * (beta_oracle(tag, radius, z + s)
                      + beta_oracle(tag, radius, z - s))

    f1 = sym(step)
    f2 = sym(step / 2.0)
    return (4.0 * f2 - f1) / 3.0


# ----------------------------------------------------------------------
# scale covariance check
# ----------------------------------------------------------------------

@dataclass
class ScalingReport:
    lam: float
    exponent: float                 # 2m + alpha
    energy_base: float
    energy_scaled: float
    expected_scaled: float
    rel_discrepancy: float
    at_pole: bool
    log_lambda_coefficient: float | None
    passed: bool | None

    def as_dict(self):
        return {k: getattr(self, k) for k in
                ("lam", "exponent", "energy_base", "energy_scaled",
                 "expected_scaled", "rel_discrepancy", "at_pole",
                 "log_lambda_coefficient", "passed")}


def _scaled_surface(surface, lam: float):
    def jac_map(x):
        eye = np.eye(x.shape[-1]) * lam
        return np.broadcast_to(eye, x.shape[:-1] + eye.shape)

    return as_surface(surface).transformed(lambda x: lam * x, jac_map, None)


def scaling_check(surface, alpha, lam,
                  config: QuadratureConfig | None = None) -> ScalingReport:
    """Check E_alpha(lam M) = lam^(2m+alpha) E_alpha(M).

    Away from poles the identity is asserted against three times the
    combined error estimate; at poles the report instead carries the fitted log(lam)
    coefficient of the anomaly (which equals the beta-function residue).
    """
    m = as_surface(surface).m
    params = EnergyParams(float(alpha), m)
    rep_base = riesz_energy(surface, params, config=config)
    rep_scaled = riesz_energy(_scaled_surface(surface, lam), params, config=config)
    expo = 2.0 * m + params.alpha
    expected = lam ** expo * rep_base.value
    scale_err = (rep_base.error_estimate + rep_scaled.error_estimate) * max(
        1.0, lam ** expo)
    denom = max(abs(expected), abs(rep_scaled.value), 1e-30)
    rel = abs(rep_scaled.value - expected) / denom
    log_coefficient = passed = None
    if params.at_pole and abs(math.log(lam)) > 0:
        log_coefficient = (rep_scaled.value * lam ** (-expo)
                           - rep_base.value) / math.log(lam)
    else:
        passed = abs(rep_scaled.value - expected) <= 3.0 * max(
            scale_err, 1e-12 * denom)
    return ScalingReport(lam=lam, exponent=expo, energy_base=rep_base.value,
                         energy_scaled=rep_scaled.value,
                         expected_scaled=expected, rel_discrepancy=rel,
                         at_pole=params.at_pole,
                         log_lambda_coefficient=log_coefficient, passed=passed)
