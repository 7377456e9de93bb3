import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

from rieszlab.errors import NumericalError, PreconditionError
from rieszlab.geometry import (graph_patch_at, make_circle, make_ellipsoid,
                               make_sphere, make_torus)
from rieszlab.quadrature import (poly_weighted_spline_integral,
                                 power_deflated_spline_integral)
from rieszlab.radial import (EnergyParams, RadialProfile, _angular_rule,
                             _chord_rows, finite_part, radial_inverse,
                             radial_profile, safe_ratio,
                             safe_ratio_derivatives)


# ----------------------------------------------------------------------
# parameters
# ----------------------------------------------------------------------

@pytest.mark.parametrize("alpha,m,order,pole", [
    (-2.0, 1, 1, False),
    (-1.0, 1, 0, True),
    (-3.0, 1, 2, True),
    (-2.0, 2, 0, True),
    (-4.0, 2, 2, True),
    (-3.0, 2, 1, False),
    (-3.5, 2, 1, False),
    (1.0, 2, 0, False),
    (-0.5, 1, 0, False),
])
def test_energy_params(alpha, m, order, pole):
    p = EnergyParams(alpha, m)
    assert p.taylor_order == order
    assert p.at_pole == pole


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_energy_params_reject_non_finite_alpha(alpha):
    with pytest.raises(PreconditionError):
        EnergyParams(alpha, 2)


# ----------------------------------------------------------------------
# safe division
# ----------------------------------------------------------------------

def test_safe_ratio_square():
    g = safe_ratio(lambda t: np.asarray(t) ** 2)
    ts = np.array([0.0, 0.1, -0.3])
    np.testing.assert_allclose(g(ts), ts, atol=1e-12)
    derivs = safe_ratio_derivatives([0.0, 0.0, 2.0])  # g=t^2: g''(0)=2
    assert derivs[1] == pytest.approx(1.0)            # gbar'(0) = g''(0)/2


def test_safe_ratio_sin_minus_t():
    g = safe_ratio(lambda t: np.sin(t) - t)
    # gbar = -t^2/6 + t^4/120 - ... : gbar'(0)=0, gbar''(0) = -1/3
    h = 1e-4
    first = (float(g(h)) - float(g(-h))) / (2 * h)
    second = (float(g(h)) - 2 * float(g(0.0)) + float(g(-h))) / h ** 2
    assert first == pytest.approx(0.0, abs=1e-8)
    assert second == pytest.approx(-1.0 / 3.0, abs=1e-6)
    derivs = safe_ratio_derivatives([0.0, 0.0, 0.0, -1.0])  # sin t - t jet
    assert derivs[2] == pytest.approx(-1.0 / 3.0)  # g'''(0) / 3


def test_safe_ratio_zero():
    g = safe_ratio(lambda t: np.zeros_like(np.asarray(t, dtype=float)))
    assert float(g(0.3)) == 0.0


def test_safe_ratio_precondition():
    with pytest.raises(PreconditionError):
        safe_ratio(lambda t: np.asarray(t) + 1.0)
    with pytest.raises(PreconditionError):
        safe_ratio(lambda t: np.asarray(t))


def test_safe_ratio_derivative_rule_polynomial():
    # g(t) = 3 t^2 + 5 t^3: gbar = 3 t + 5 t^2
    # rule: gbar^(j)(0) (j+1) = g^(j+1)(0), checked against finite differences
    def g(t):
        t = np.asarray(t, dtype=float)
        return 3 * t ** 2 + 5 * t ** 3

    gbar = safe_ratio(g)
    h = 1e-5
    d1 = (float(gbar(h)) - float(gbar(-h))) / (2 * h)
    d2 = (float(gbar(h)) - 2 * float(gbar(0)) + float(gbar(-h))) / h ** 2
    assert d1 * 2 == pytest.approx(6.0, abs=1e-8)    # g''(0) = 6
    assert d2 * 3 == pytest.approx(30.0, abs=1e-4)   # g'''(0) = 30


# ----------------------------------------------------------------------
# radial inversion
# ----------------------------------------------------------------------

def test_radial_inverse_flat():
    par_surface = make_sphere(1e6)  # nearly flat at this scale
    class Flat:
        m = 2
        def height(self, eta):
            return np.zeros(np.asarray(eta).shape[:-1] + (1,))
        def height_jacobian(self, eta):
            return np.zeros(np.asarray(eta).shape[:-1] + (1, 2))
    v = np.array([[1.0, 0.0], [0.0, 1.0]])
    xi, dxi = radial_inverse(Flat(), v, 0.37)
    np.testing.assert_allclose(xi, 0.37, atol=1e-14)
    np.testing.assert_allclose(dxi, 1.0, atol=1e-14)


def test_radial_inverse_sphere_chord():
    sph = make_sphere()
    patch = graph_patch_at(sph, (0, [1.3, 0.4]), 0.9)
    v = np.array([[1.0, 0.0], [0.6, 0.8]])
    for t in (0.2, 0.5, 0.85):
        xi, dxi = radial_inverse(patch, v, t)
        expected = t * math.sqrt(1 - t * t / 4)
        np.testing.assert_allclose(xi, expected, atol=1e-11)
        # residual contract: xi^2 + |h|^2 = t^2 within 1e-12 t^2
        h = patch.height(xi[:, None] * v)
        res = xi ** 2 + np.sum(h * h, axis=-1) - t * t
        assert np.max(np.abs(res)) < 1e-12 * t * t


def test_radial_inverse_zero():
    sph = make_sphere()
    patch = graph_patch_at(sph, (0, [1.3, 0.4]), 0.9)
    xi, dxi = radial_inverse(patch, np.array([[1.0, 0.0]]), 0.0)
    assert xi[0] == 0.0
    assert dxi[0] == 1.0


# ----------------------------------------------------------------------
# chord solve in chart parameters
# ----------------------------------------------------------------------

@pytest.mark.parametrize("surface,locator,radius", [
    (make_sphere(1.0, center=(0.3, -0.2, 0.4)), (0, [0.9, 2.0]), 0.9),
    (make_ellipsoid(1.0, 1.0, 1.2), (0, [1.0, 0.7]), 0.5),
    (make_torus(), (0, [0.4, 1.0]), 0.4),
    (make_circle(), (0, [1.1]), 0.9),
], ids=["sphere", "ellipsoid", "torus", "circle"])
def test_chord_solve_matches_nested_inversion(surface, locator, radius):
    # the one-level chart solve against radial_inverse on the same patch's
    # explicit height, on the profile's dense t grid (down to 1e-4 eps0)
    patch = graph_patch_at(surface, locator, radius, measure_bound=False)
    prof = radial_profile(patch, patch.radius, spline_eval=True)
    ts = np.asarray(prof.spline.x)[1:]
    assert ts[0] == pytest.approx(1e-4 * patch.radius)
    v, _ = _angular_rule(patch.m, 16)
    vv = np.tile(v, (len(ts), 1))
    tt = np.repeat(ts, len(v))
    xi, dxi, dh = _chord_rows(patch, vv, tt)
    nested = dataclasses.replace(patch, chord_solve=None)
    xi_ref, dxi_ref, dh_ref = _chord_rows(nested, vv, tt)
    np.testing.assert_allclose(xi, xi_ref, rtol=1e-12, atol=0)
    np.testing.assert_allclose(dxi, dxi_ref, rtol=1e-12, atol=0)
    # grad h ~ curvature * t: at t = 1e-4 eps0 both solves place the point
    # to ~1e-14 absolute, so grad h is compared at the patch's own scale
    dh_err = np.linalg.norm(dh - dh_ref, axis=(-2, -1))
    assert dh_err.max() <= 1e-12 * np.linalg.norm(dh_ref, axis=(-2, -1)).max()


def test_chord_solve_circle_rays_keep_their_side():
    circ = make_circle()
    theta0 = 1.1
    patch = graph_patch_at(circ, (0, [theta0]), 0.9)
    ts = np.array([1e-4, 0.05, 0.4, 0.85])
    for sign in (1.0, -1.0):
        v = np.full((len(ts), 1), sign)
        xi, h, _ = patch.chord_solve(v, ts)
        points = (patch.base_point + (xi[:, None] * v) @ patch.tangent.T
                  + h @ patch.normal.T)
        # chord t subtends 2 asin(t / 2) on the unit circle, on the ray's side
        theta = theta0 + sign * 2.0 * np.arcsin(ts / 2.0)
        expected = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        np.testing.assert_allclose(points, expected, atol=1e-14)
        assert np.all(xi > 0)


def test_chord_solve_beyond_patch_raises():
    sph = make_sphere()
    patch = graph_patch_at(sph, (0, [1.3, 0.4]), 0.9)
    v = np.array([[1.0, 0.0], [0.6, 0.8]])
    # no point of the unit sphere lies at chord distance 2.5
    with pytest.raises(NumericalError, match="did not converge on 1 rows"):
        patch.chord_solve(v, np.array([0.5, 2.5]))


# ----------------------------------------------------------------------
# radial profiles
# ----------------------------------------------------------------------

def test_profile_flat_patch():
    class Flat:
        m = 2
        radius = 1.0
        def height(self, eta):
            return np.zeros(np.asarray(eta).shape[:-1] + (1,))
        def height_jacobian(self, eta):
            return np.zeros(np.asarray(eta).shape[:-1] + (1, 2))
    prof = radial_profile(Flat(), 1.0)
    np.testing.assert_allclose(prof.values, 2 * math.pi, atol=1e-13)
    np.testing.assert_allclose(prof.taylor[1:], 0.0, atol=1e-10)


def test_profile_circle_closed_form():
    circ = make_circle()
    patch = graph_patch_at(circ, (0, [1.1]), 0.9)
    prof = radial_profile(patch, 0.9)
    ts = np.array([0.1, 0.4, 0.8])
    expected = 2.0 / np.sqrt(1 - ts ** 2 / 4)
    np.testing.assert_allclose(prof.evaluate(ts), expected, rtol=1e-10)
    assert prof.sigma == 2.0
    # even Taylor data: phi = 2 + t^2/4 + (3/64) t^4 + ...
    assert prof.taylor[2] == pytest.approx(0.25, rel=1e-4)
    assert prof.taylor[4] == pytest.approx(3.0 / 64.0, rel=0.05)


def test_profile_sphere_constant():
    sph = make_sphere()
    patch = graph_patch_at(sph, (0, [0.9, 2.0]), 0.9)
    prof = radial_profile(patch, 0.9)
    np.testing.assert_allclose(prof.values, 2 * math.pi, rtol=1e-11)
    assert abs(prof.taylor[2]) < 1e-9   # umbilic: phi''(0) = pi Delta / 4 = 0


def test_profile_odd_coefficient_suppression():
    # odd Taylor coefficients of the orders the regularization consumes
    # (j = 1, 3) stay below 1e-6 of the even coefficients when not pinned
    ell = make_ellipsoid(1.0, 1.0, 1.2)
    patch = graph_patch_at(ell, (0, [1.0, 0.7]), 0.5)
    prof = radial_profile(patch, 0.5, include_odd=True, fit_degree=10,
                          fit_samples=64)
    even_scale = max(prof.sigma, abs(prof.taylor[2]), abs(prof.taylor[4]))
    assert abs(prof.odd_coefficients[0]) < 1e-6 * even_scale   # order 1
    assert abs(prof.odd_coefficients[1]) < 1e-6 * even_scale   # order 3


def test_profile_curvature_link_ellipsoid():
    # phi''(0) = pi Delta / 4 on five ellipsoid points, within 1%
    from rieszlab.geometry import curvature_at
    ell = make_ellipsoid(1.0, 1.0, 1.2)
    for u in ([0.9, 0.3], [1.4, 2.2], [1.9, 4.0], [0.6, 1.0], [2.3, 5.5]):
        patch = graph_patch_at(ell, (0, u), 0.45)
        prof = radial_profile(patch, patch.radius)
        delta = curvature_at(ell, (0, u)).delta
        expected = math.pi * delta / 4.0
        assert 2.0 * prof.taylor[2] == pytest.approx(expected, rel=0.01)


def test_profile_csv_roundtrip(tmp_path):
    circ = make_circle()
    patch = graph_patch_at(circ, (0, [0.2]), 0.8)
    prof = radial_profile(patch, 0.8)
    path = tmp_path / "profile.csv"
    prof.to_csv(path)
    back = RadialProfile.from_csv(path)
    np.testing.assert_array_equal(back.ts, prof.ts)
    np.testing.assert_array_equal(back.values, prof.values)
    np.testing.assert_array_equal(back.taylor, prof.taylor)
    assert back.m == prof.m and back.eps0 == prof.eps0


# ----------------------------------------------------------------------
# finite parts
# ----------------------------------------------------------------------

def _const_profile(value, m, eps0):
    taylor = np.zeros(7)
    taylor[0] = value
    return RadialProfile.from_function(
        lambda t: value * np.ones_like(np.asarray(t, dtype=float)),
        taylor, m, eps0)


def test_finite_part_knot_energy_subtraction():
    # m=1, alpha=-2, phi == 2, eps0 = 1: value -2 with coefficient -2 on 1/eps
    prof = _const_profile(2.0, 1, 1.0)
    res = finite_part(EnergyParams(-2.0, 1), prof)
    assert res.value == pytest.approx(-2.0, abs=1e-12)
    assert len(res.subtracted_powers) == 1
    expo, coef = res.subtracted_powers[0]
    assert expo == pytest.approx(-1.0)
    assert coef == pytest.approx(-2.0)
    assert res.log_coefficient == 0.0


def test_finite_part_pole_log_convention():
    prof = _const_profile(2.0, 1, 1.0)
    res = finite_part(EnergyParams(-1.0, 1), prof)
    assert res.value == pytest.approx(0.0, abs=1e-12)   # 2 log 1
    assert res.log_coefficient == pytest.approx(2.0)
    res2 = finite_part(EnergyParams(-1.0, 1), prof, eps0=0.5)
    assert res2.value == pytest.approx(2.0 * math.log(0.5), abs=1e-12)


def test_finite_part_unregularized():
    prof = _const_profile(2 * math.pi, 2, 0.5)
    res = finite_part(EnergyParams(1.0, 2), prof)
    assert res.value == pytest.approx(math.pi / 12.0, rel=1e-12)
    assert res.subtracted_powers == []
    assert res.log_coefficient == 0.0


def _random_profile(rng, m, eps0):
    sigma = 2.0 if m == 1 else 2 * math.pi
    c = rng.uniform(-0.5, 0.5, size=3)
    amp = rng.uniform(-0.3, 0.3)
    freq = rng.uniform(0.5, 3.0)

    def fn(t):
        t = np.asarray(t, dtype=float)
        out = sigma + c[0] * t ** 2 + c[1] * t ** 4 + c[2] * t ** 6
        return out + amp * (np.cos(freq * t) - 1.0)

    # cos(ft) - 1 = -f^2 t^2/2 + f^4 t^4/24 - f^6 t^6/720 + ...
    taylor = np.zeros(7)
    taylor[0] = sigma
    taylor[2] = c[0] - amp * freq ** 2 / 2.0
    taylor[4] = c[1] + amp * freq ** 4 / 24.0
    taylor[6] = c[2] - amp * freq ** 6 / 720.0

    def remainder(t):
        # tail of amp * cos(freq t) past the degree-6 jet, summed as a
        # series so no near-cancelling difference is ever formed
        t = np.asarray(t, dtype=float)
        x2 = (freq * t) ** 2
        s = np.ones_like(t)
        for j in range(20, 0, -1):
            s = 1.0 - s * x2 / ((2 * j + 7) * (2 * j + 8))
        return amp * x2 ** 4 / math.factorial(8) * s

    return RadialProfile.from_function(fn, taylor, m, eps0,
                                       remainder_fn=remainder)


def test_finite_part_consistency_with_plain_integration():
    # for alpha > -m the finite part equals the direct integral
    rng = np.random.default_rng(7)
    for _ in range(10):
        m = int(rng.integers(1, 3))
        alpha = float(rng.uniform(-m + 0.05, 1.5))
        eps0 = float(rng.uniform(0.4, 1.2))
        prof = _random_profile(rng, m, eps0)
        res = finite_part(EnergyParams(alpha, m), prof)
        direct, _ = quad(lambda t: t ** (alpha + m - 1) * prof.evaluate(t),
                         0.0, eps0, epsabs=1e-13, epsrel=1e-12, limit=400)
        assert res.value == pytest.approx(direct, rel=1e-9)


def test_finite_part_splitting_invariance():
    # Pf over [0, eps0] = Pf over [0, eps1] + plain integral [eps1, eps0],
    # 20 randomized cases including pole alphas with the log convention
    rng = np.random.default_rng(11)
    cases = []
    for _ in range(14):
        m = int(rng.integers(1, 3))
        alpha = float(rng.uniform(-m - 3.2, -m + 0.8))
        cases.append((alpha, m))
    cases += [(-1.0, 1), (-3.0, 1), (-2.0, 2), (-4.0, 2), (-6.0, 2), (-5.0, 1)]
    assert len(cases) == 20
    for alpha, m in cases:
        eps0 = float(rng.uniform(0.6, 1.4))
        eps1 = float(rng.uniform(0.25, 0.9)) * eps0
        prof = _random_profile(rng, m, eps0)
        params = EnergyParams(alpha, m)
        full = finite_part(params, prof, eps0)
        inner = finite_part(params, prof, eps1)
        outer, _ = quad(lambda t: t ** (alpha + m - 1) * prof.evaluate(t),
                        eps1, eps0, epsabs=1e-14, epsrel=1e-13, limit=400)
        lhs = full.value
        rhs = inner.value + outer
        scale = max(abs(lhs), abs(rhs), abs(outer), 1.0)
        assert abs(lhs - rhs) / scale < 1e-8, (alpha, m, lhs, rhs)


def test_finite_part_requires_taylor_data():
    prof = RadialProfile.from_function(
        lambda t: 2.0 * np.ones_like(np.asarray(t, dtype=float)),
        [2.0, 0.0], 1, 1.0)
    with pytest.raises(PreconditionError):
        finite_part(EnergyParams(-4.0, 1), prof)


# ----------------------------------------------------------------------
# exact spline integrals (batched over pieces) against a per-piece loop
# ----------------------------------------------------------------------

def _loop_spline_integral(spline, gamma, a, b, poly=(1.0,), jet=(0.0,)):
    """Per-piece reference: integral of t^gamma * (spline * poly - jet)(t)
    over [a, b], each piece expanded with numpy's polynomial algebra."""
    P = np.polynomial.Polynomial
    total = 0.0
    for k in range(len(spline.x) - 1):
        lo, hi = max(spline.x[k], a), min(spline.x[k + 1], b)
        if hi <= lo:
            continue
        shift = P([-spline.x[k], 1.0])
        piece = sum(c * shift ** j
                    for j, c in enumerate(spline.c[::-1, k]))
        for i, c in enumerate((piece * P(poly) - P(jet)).coef):
            e = gamma + i + 1.0
            total += (c * (math.log(hi) - math.log(lo)) if abs(e) < 1e-12
                      else c * (hi ** e - lo ** e) / e)
    return total


@pytest.mark.parametrize("gamma", [-3.0, -2.5, 0.5])
def test_power_deflated_spline_integral_matches_loop(gamma):
    rng = np.random.default_rng(3)
    x = np.concatenate([[0.0], np.geomspace(1e-4, 0.08, 14),
                        np.linspace(0.1, 1.0, 48)])
    spline = CubicSpline(x, 2.0 + np.cos(3.0 * x) + 0.01 * rng.random(len(x)))
    jet = np.array([3.0, 0.0, -4.5, 0.0, 3.375, 0.0, -1.0])
    a, b = float(x[1]), 0.97
    got = power_deflated_spline_integral(spline, jet, gamma, a, b)
    ref = _loop_spline_integral(spline, gamma, a, b, jet=jet)
    assert got == pytest.approx(ref, rel=1e-12)


def test_poly_weighted_spline_integral_matches_loop():
    x = np.concatenate([[0.0], np.geomspace(1e-4, 0.08, 14),
                        np.linspace(0.1, 1.0, 48)])
    spline = CubicSpline(x, 1.0 / np.sqrt(1.0 - x ** 2 / 4.0))
    poly = np.array([0.0, 0.5, 0.0, -2.0, 0.0, 1.5])
    for a, b in ((0.0, 1.0), (0.013, 0.7)):
        got = poly_weighted_spline_integral(spline, poly, a, b)
        ref = _loop_spline_integral(spline, 0.0, a, b, poly=poly)
        assert got == pytest.approx(ref, rel=1e-12)
