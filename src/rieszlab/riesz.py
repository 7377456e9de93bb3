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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P
from scipy.special import gamma as sp_gamma, rgamma

from .errors import (NumericalError, PoleError, PreconditionError,
                     UnsupportedInputError)
from .geometry.patches import default_patch_radius, graph_patch_at
from .geometry.surface import as_surface
from .quadrature import BlendKernel, compensated_sum
from .radial import EnergyParams, finite_part, radial_profile

__all__ = [
    "QuadratureConfig",
    "EnergyReport",
    "BetaOracle",
    "riesz_energy",
    "beta_oracle",
    "beta_residue",
    "finite_part_at_pole",
    "scaling_check",
    "ScalingReport",
]


@dataclass
class QuadratureConfig:
    """Resolution knobs shared by the energy assemblers."""

    outer_scale: float = 0.25        # scale on the surface base rule (outer x)
    inner_scale: float = 1.0         # far-field rule (inner y)
    angular_nodes: int = 64          # S^{m-1} rule for radial profiles
    mesh_inner_subdiv: int = 1       # face subdivision for mesh inner nodes
    patch_radius: float | None = None
    threads: int = 1

    def refined(self, factor=2.0) -> "QuadratureConfig":
        return QuadratureConfig(
            outer_scale=self.outer_scale * factor,
            inner_scale=self.inner_scale * factor,
            angular_nodes=self.angular_nodes,
            mesh_inner_subdiv=self.mesh_inner_subdiv,
            patch_radius=self.patch_radius,
            threads=self.threads,
        )


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


# ----------------------------------------------------------------------
# the regularized energy
# ----------------------------------------------------------------------

def riesz_energy(surface, alpha,
                 config: QuadratureConfig | None = None) -> EnergyReport:
    """E_alpha(M): outer integral of the regularized inner Riesz integral.

    For alpha <= -m the inner integral is the Hadamard finite part; the
    surface must then admit graph patches at every outer node (meshes use
    their fitted quadratic patches).
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

    alpha_f = params.alpha
    values = np.empty(len(outer.points))
    nears = np.empty(len(outer.points))
    fars = np.empty(len(outer.points))
    errs = np.empty(len(outer.points))
    logcs = np.empty(len(outer.points))
    eps_used = np.empty(len(outer.points))

    def smooth_sum(nodes, x, comp_i, blend, eps_i):
        """Sum of the blended kernel over one inner rule (same component
        blended inside the ball, true kernel elsewhere)."""
        d = np.linalg.norm(nodes.points - x, axis=-1)
        same = nodes.component == comp_i
        w = nodes.weights
        in_ball = d < eps_i
        with np.errstate(divide="ignore"):
            true_kernel = np.where(d > 0, d, 1.0) ** alpha_f
        far_val = float(np.sum(w[~in_ball] * true_kernel[~in_ball]))
        ball_same = in_ball & same
        ball_cross = in_ball & ~same
        ball_blend = float(np.sum(w[ball_same] * blend(d[ball_same])))
        cross_val = float(np.sum(w[ball_cross] * true_kernel[ball_cross]))
        return far_val, ball_blend, cross_val

    def one_node(i):
        x, loc = outer.points[i], outer.locators[i]
        try:
            patch = graph_patch_at(surface, loc, requested, measure_bound=False)
        except Exception as exc:
            raise NumericalError(
                f"patch failure at outer node {i} (locator {loc!r}): {exc}"
            ) from exc
        eps_i = patch.radius
        profile = radial_profile(patch, eps_i,
                                 angular_nodes=config.angular_nodes)
        pf = finite_part(params, profile, eps_i)
        blend = BlendKernel(alpha_f, eps_i)

        # blend-kernel mass of the chord ball: the blend polynomial times
        # t^(m-1) phi, integrated in closed form; the profile's tail level
        # bounds phi's error at (number of coefficients) * tail
        weight_poly = np.concatenate([np.zeros(m - 1),
                                      blend.inside_poly_coeffs()])
        corr = P.polyval(eps_i, P.polyint(np.convolve(weight_poly,
                                                      profile.taylor)))
        corr_err = (len(profile.coefficients) * profile.fit_residual
                    * P.polyval(eps_i, P.polyint(np.abs(weight_poly))))

        far_val, ball_blend, cross_val = smooth_sum(inner, x,
                                                    outer.component[i],
                                                    blend, eps_i)
        smooth_full = far_val + ball_blend + cross_val
        far_h, ball_h, cross_h = smooth_sum(inner_half, x,
                                            outer.component[i], blend, eps_i)
        rule_err = abs(smooth_full - (far_h + ball_h + cross_h))
        near_i = pf.value + ball_blend - corr
        far_i = far_val + cross_val
        err_i = pf.error_estimate + corr_err + rule_err
        return near_i, far_i, err_i, pf.log_coefficient, eps_i

    indices = range(len(outer.points))
    if config.threads > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            results = list(pool.map(one_node, indices))
    else:
        results = [one_node(i) for i in indices]
    for i, (near_i, far_i, err_i, logc_i, eps_i) in enumerate(results):
        nears[i] = near_i
        fars[i] = far_i
        values[i] = near_i + far_i
        errs[i] = err_i
        logcs[i] = logc_i
        eps_used[i] = eps_i

    wout = outer.weights
    total = compensated_sum(wout * values)
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


def _circle_pole_index(z, tol=1e-12):
    """k for z = -(2k+1), else None."""
    if z > -1.0 + tol:
        return None
    k = round((-z - 1.0) / 2.0)
    if k >= 0 and abs(z + 2.0 * k + 1.0) < tol:
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
               * 2.0 * (-1.0) ** k / math.factorial(k) * rgamma(z / 2.0 + 1.0))
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
               * sp_gamma((z + 1.0) / 2.0) * rgamma(z / 2.0 + 1.0))
        return float(val) * radius ** (2.0 + z)
    if tag_l == "sphere":
        if abs(z + 2.0) < 1e-12:
            raise PoleError(f"sphere beta oracle has a pole at z={z}",
                            residue=beta_residue(tag_l, radius, z))
        return 2.0 ** (z + 5.0) * math.pi ** 2 / (z + 2.0) * radius ** (4.0 + z)
    raise UnsupportedInputError(f"unknown oracle tag {tag!r}")


@dataclass
class BetaOracle:
    """Closed-form beta function of a round manifold, bound to a radius."""

    tag: str
    radius: float = 1.0

    def __call__(self, z: float) -> float:
        return beta_oracle(self.tag, self.radius, z)

    def residue(self, z: float) -> float:
        return beta_residue(self.tag, self.radius, z)

    def finite_part(self, z: float) -> float:
        return finite_part_at_pole(self.tag, self.radius, z)


def finite_part_at_pole(tag: str, radius: float, z: float, step=1e-3) -> float:
    """Constant Laurent term of the closed-form beta function at a pole z.

    Computed by Richardson extrapolation of the symmetric average
    (B(z+s) + B(z-s)) / 2, whose odd pole parts cancel exactly.
    """
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
    log_lambda_coefficient: float | None = None
    passed: bool | None = None

    def as_dict(self):
        return {k: getattr(self, k) for k in
                ("lam", "exponent", "energy_base", "energy_scaled",
                 "expected_scaled", "rel_discrepancy", "at_pole",
                 "log_lambda_coefficient", "passed")}


def _scaled_surface(surface, lam: float):
    def jac_map(x):
        eye = np.eye(x.shape[-1]) * lam
        return np.broadcast_to(eye, x.shape[:-1] + eye.shape)

    return as_surface(surface).transformed(
        lambda x: lam * x, jac_map, None,
        name=f"scaled({surface.name}, {lam})")


def scaling_check(surface, alpha, lam, config: QuadratureConfig | None = None,
                  tol_factor=3.0) -> ScalingReport:
    """Check E_alpha(lam M) = lam^(2m+alpha) E_alpha(M).

    Away from poles the identity is asserted against the combined error
    estimate; at poles the report instead carries the fitted log(lam)
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
    report = ScalingReport(lam=lam, exponent=expo,
                           energy_base=rep_base.value,
                           energy_scaled=rep_scaled.value,
                           expected_scaled=expected,
                           rel_discrepancy=rel,
                           at_pole=params.at_pole)
    if params.at_pole and abs(math.log(lam)) > 0:
        report.log_lambda_coefficient = (
            rep_scaled.value * lam ** (-expo) - rep_base.value) / math.log(lam)
        report.passed = None
    else:
        report.passed = abs(rep_scaled.value - expected) <= tol_factor * max(
            scale_err, 1e-12 * denom)
    return report
