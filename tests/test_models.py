import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import dblquad

from rieszlab import models
from rieszlab.errors import PreconditionError, UnsupportedInputError
from rieszlab.models import (classify_cutoff_law, cone_model_scan,
                             lambda_bound,
                             orthogonal_model_closed_form,
                             orthogonal_model_integral,
                             sphere_pair_cross_energy,
                             tangent_model_scan, two_body_sweep,
                             unit_ball_volume)
from rieszlab.quadrature import compensated_sum, gauss_legendre


# ----------------------------------------------------------------------
# orthogonal-sheet model
# ----------------------------------------------------------------------

@pytest.mark.parametrize("alpha", [-3.5, -3.0, -1.0, 0.0])
@pytest.mark.parametrize("rho", [0.5, 1.0])
def test_orthogonal_closed_form(alpha, rho):
    res = orthogonal_model_integral(alpha, rho)
    assert not res.diverged
    assert res.value == pytest.approx(
        orthogonal_model_closed_form(alpha, rho), rel=5e-3)


def test_orthogonal_printed_value():
    # alpha=-3, rho=1: 8 pi^2 (1 - 1/sqrt 2)
    res = orthogonal_model_integral(-3.0, 1.0)
    assert res.value == pytest.approx(8 * math.pi ** 2 * (1 - 1 / math.sqrt(2)),
                                      rel=1e-10)
    assert res.value == pytest.approx(23.1259, rel=1e-4)


def test_orthogonal_log_convention_at_minus_two():
    res = orthogonal_model_integral(-2.0, 1.0)
    expected = 8 * math.pi ** 2 * 0.5 * math.log(2.0) / 2.0
    assert res.value == pytest.approx(expected, rel=1e-10)


def test_orthogonal_elementary_check():
    # alpha = 0: (2 pi)^2 (rho^2/2)^2 = pi^2 rho^4
    res = orthogonal_model_integral(0.0, 1.0)
    assert res.value == pytest.approx(math.pi ** 2, rel=1e-12)


@pytest.mark.parametrize("alpha,flag", [
    (-3.9, False), (-3.99, False), (-4.0, True), (-4.3, True), (-5.0, True),
])
def test_orthogonal_divergence_flag(alpha, flag):
    res = orthogonal_model_integral(alpha, 1.0)
    assert res.diverged == flag
    if flag:
        assert res.value == math.inf


@pytest.mark.parametrize("alpha", [15.0, 20.0])
def test_orthogonal_closed_form_at_large_alpha(alpha):
    # from alpha = 15 on the innermost shells underflow to 0, and their
    # 0/0 shell ratios made a convergent integral a NumericalError
    res = orthogonal_model_integral(alpha, 1.0)
    assert not res.diverged
    assert res.value == pytest.approx(
        orthogonal_model_closed_form(alpha, 1.0), rel=1e-12)
    # at alpha = 14 every shell is nonzero and the value is unchanged
    assert orthogonal_model_integral(14.0, 1.0).value == 69.90969784104965


def test_orthogonal_every_shell_underflows():
    # no two nonzero shells give no ratio: the value is the underflowed 0
    # (rho^44 = 1e-440), as is the closed form's
    res = orthogonal_model_integral(40.0, 1e-10)
    assert not res.diverged and res.value == 0.0
    assert orthogonal_model_closed_form(40.0, 1e-10) == 0.0


@pytest.mark.parametrize("rho", [0.5, 1.0])
def test_orthogonal_closed_form_at_the_largest_alpha(rho):
    res = orthogonal_model_integral(40.0, rho)
    assert res.value == pytest.approx(
        orthogonal_model_closed_form(40.0, rho), rel=1e-14)


@pytest.mark.parametrize("alpha", [60.0, 100.0, 3000.0])
def test_orthogonal_beyond_the_resolved_alpha_raises(alpha):
    # the box rule is 7e-12 off the closed form at alpha = 60, 4e-8 at 100
    # and 0.66 at 1000, and said nothing
    with pytest.raises(UnsupportedInputError, match="alpha <= 40"):
        orthogonal_model_integral(alpha, 1.0)


def test_orthogonal_divergence_laws():
    assert orthogonal_model_integral(-4.0, 1.0).cutoff_fit.law == "log"
    fit = orthogonal_model_integral(-4.5, 1.0).cutoff_fit
    assert fit.law == "power"
    assert fit.exponent == pytest.approx(-0.5, abs=0.1)


# ----------------------------------------------------------------------
# tangential and cone models
# ----------------------------------------------------------------------

def test_tangent_threshold():
    finite = tangent_model_scan(-2.5, 0.5)
    assert finite.law == "finite"
    inc = np.abs(np.diff(finite.values))
    assert np.all(inc[1:] / inc[:-1] < 0.2)   # shrink by >= 5x per step
    logcase = tangent_model_scan(-3.0, 0.5)
    assert logcase.law == "log"
    # slope vs log(1/cutoff) constant within 5%
    per_log = np.abs(np.diff(logcase.values)) / np.abs(
        np.diff(np.log(logcase.cutoffs)))
    assert np.max(np.abs(per_log / per_log.mean() - 1.0)) < 0.05
    power = tangent_model_scan(-4.0, 0.5)
    assert power.law == "power"
    assert power.exponent == pytest.approx(2 * (-4.0) + 6.0, abs=0.1)


def test_tangent_light_divergence():
    fit = tangent_model_scan(-3.5, 0.5)
    assert fit.law == "power"
    assert fit.exponent == pytest.approx(-1.0, abs=0.1)


def test_cone_threshold():
    finite = cone_model_scan(-3.5)
    assert finite.law == "finite"
    ref, _ = dblquad(lambda rho, r: (r + rho) ** -3.5 * rho * r,
                     0.0, 1.0, 0.0, 1.0)
    assert finite.limit == pytest.approx(ref, rel=5e-3)
    assert cone_model_scan(-4.0).law == "log"
    fit = cone_model_scan(-5.0)
    assert fit.law == "power"
    assert fit.exponent == pytest.approx(-5.0 + 4.0, abs=0.1)


def test_classifier_preconditions():
    with pytest.raises(PreconditionError):
        classify_cutoff_law([0.1, 0.2, 0.3], [1, 2, 3])
    with pytest.raises(PreconditionError):
        classify_cutoff_law([0.1, 0.05], [1, 2])


def test_classifier_rejects_non_finite_values():
    # five NaN values once classified as "log" with R^2 = 1
    cuts = 10.0 ** -np.arange(1, 6, dtype=float)
    with pytest.raises(PreconditionError):
        classify_cutoff_law(cuts, np.full(5, math.nan))
    with pytest.raises(PreconditionError):
        classify_cutoff_law(cuts, [1.0, 2.0, 3.0, 4.0, math.inf])
    with pytest.raises(PreconditionError):
        classify_cutoff_law([math.inf, 0.1, 0.01], [1.0, 2.0, 3.0])


def test_classifier_constant_values_are_finite():
    # all-zero values (a tangent scan at alpha = 3000 underflows to them)
    # were "log" with R^2 = 1: the flatness test read the floored increments
    cuts = 10.0 ** -np.arange(1, 6, dtype=float)
    for value in (0.0, 2.5):
        fit = classify_cutoff_law(cuts, np.full(5, value))
        assert fit.law == "finite" and fit.limit == value
    fit = tangent_model_scan(3000.0)
    assert fit.law == "finite" and fit.limit == 0.0
    assert np.all(fit.values == 0.0)


def test_classifier_zero_increment_before_a_large_one():
    # two cutoffs in one dyadic shell of the cone model give a zero
    # increment; the next increment over its 1e-300 floor overflows, which
    # reads as a ratio of inf, not a NumericalError
    with np.errstate(over="raise"):
        fit = classify_cutoff_law([0.1, 0.09, 0.001], [1.0, 1.0, 1e10])
    assert fit.law != "finite"
    assert cone_model_scan(-8.0, cutoffs=[0.1, 0.09, 0.001]).law != "finite"


def test_classifier_synthetic_laws():
    cuts = 10.0 ** -np.arange(1, 6, dtype=float)
    fin = classify_cutoff_law(cuts, 5.0 - cuts ** 0.8)
    assert fin.law == "finite"
    assert fin.limit == pytest.approx(5.0, abs=1e-2)
    logf = classify_cutoff_law(cuts, 2.0 + 3.0 * np.log(1.0 / cuts))
    assert logf.law == "log"
    assert logf.log_coefficient == pytest.approx(3.0, rel=1e-9)
    powf = classify_cutoff_law(cuts, 7.0 + 2.0 * cuts ** -1.5)
    assert powf.law == "power"
    assert powf.exponent == pytest.approx(-1.5, abs=0.05)


def test_classifier_finite_limit_from_either_side():
    # the tail was extrapolated with the absolute last increment, which
    # moved values that fall toward their limit away from it (5.0002)
    cuts = 10.0 ** -np.arange(1, 6, dtype=float)
    for sign in (1.0, -1.0):
        fit = classify_cutoff_law(cuts, 5.0 + sign * cuts ** 0.8)
        assert fit.law == "finite"
        assert fit.limit == pytest.approx(5.0, rel=1e-12)


def test_cutoff_fit_owns_its_arrays():
    # the tangent scan's values were a column view of its (cutoffs, panels)
    # sum array, and the divergent orthogonal fit's samples views of its 60
    # shells: a kept fit held the whole base array
    fits = [tangent_model_scan(-3.0), cone_model_scan(-4.0),
            orthogonal_model_integral(-4.0, 1.0).cutoff_fit]
    for fit in fits:
        assert fit.cutoffs.base is None and fit.values.base is None


@st.composite
def _cutoff_grids(draw):
    """3 to 6 geometric cutoffs: first in [0.01, 1], ratio in [2, 10]."""
    first = draw(st.floats(0.01, 1.0))
    spacing = draw(st.floats(2.0, 10.0))
    return first / spacing ** np.arange(draw(st.integers(3, 6)))


@settings(max_examples=200, deadline=None)
@given(cuts=_cutoff_grids(), p=st.floats(-3.0, -0.5), scale=st.floats(0.1, 10.0))
def test_classifier_power_law_property(cuts, p, scale):
    fit = classify_cutoff_law(cuts, scale * cuts ** p)
    assert fit.law == "power"
    assert abs(fit.exponent - p) <= 0.1


@settings(max_examples=200, deadline=None)
@given(cuts=_cutoff_grids(), scale=st.floats(0.1, 10.0),
       offset=st.floats(-10.0, 10.0))
def test_classifier_log_law_property(cuts, scale, offset):
    fit = classify_cutoff_law(cuts, offset + scale * np.log(1.0 / cuts))
    assert fit.law == "log"


@settings(max_examples=200, deadline=None)
@given(cuts=_cutoff_grids(), q=st.floats(0.5, 2.0), scale=st.floats(0.1, 10.0),
       offset=st.floats(-10.0, 10.0))
def test_classifier_finite_law_property(cuts, q, scale, offset):
    fit = classify_cutoff_law(cuts, offset - scale * cuts ** q)
    assert fit.law == "finite"


# ----------------------------------------------------------------------
# batched model passes against per-panel and per-box loops
# ----------------------------------------------------------------------

def _tangent_values_loop(a, R, cutoffs, gl_order):
    """The tangential model one outer panel at a time, as a reference: the
    inner integral of ((rho/2)^4 + r^2)^(a/2) r over [0, R] in closed form,
    ((A + R^2)^p - A^p) / (2p) with A = (rho/2)^4 and p = a/2 + 1, the
    larger power factored out."""
    p = 0.5 * a + 1.0

    def inner_r(rho):
        A = (rho / 2.0) ** 4
        log_ratio = np.log1p(R * R / A)
        if p < 0.0:
            return A ** p * np.expm1(p * log_ratio) / (2.0 * p)
        if p > 0.0:
            return (A + R * R) ** p * -np.expm1(-p * log_ratio) / (2.0 * p)
        return 0.5 * log_ratio

    def value(cut):
        edges = np.geomspace(cut, R, 40)
        xg, wg = np.polynomial.legendre.leggauss(gl_order)
        total = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            rh = 0.5 * (hi - lo) * (xg + 1.0) + lo
            wh = 0.5 * (hi - lo) * wg
            total += float(np.sum(inner_r(rh) * rh * wh))
        return total

    return np.array([value(c) for c in cutoffs])


def _tangent_values_quad(a, R, cutoffs, gl_order):
    """The tangential model on the same outer panels with the inner r
    integral by adaptive quadrature: pieces [0, s], then geometric pieces
    from the concentration scale s = (rho/2)^2 up to R, each to relative
    1e-13 and summed by fsum."""
    from scipy.integrate import quad

    xg, wg = np.polynomial.legendre.leggauss(gl_order)

    def inner_r(rho):
        s = (rho / 2.0) ** 2
        f = lambda r: (s * s + r * r) ** (a / 2.0) * r   # noqa: E731
        breaks = [0.0, *np.geomspace(s, R, math.ceil(math.log10(R / s)) + 1)]
        return math.fsum(quad(f, lo, hi, epsabs=0.0, epsrel=1e-13,
                              limit=200)[0]
                         for lo, hi in zip(breaks[:-1], breaks[1:]))

    values = []
    for cut in cutoffs:
        edges = np.geomspace(cut, R, 40)
        total = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            rh = 0.5 * (hi - lo) * (xg + 1.0) + lo
            wh = 0.5 * (hi - lo) * wg
            total += math.fsum(inner_r(x) * x * w for x, w in zip(rh, wh))
        values.append(total)
    return np.array(values)


def _shell_sums_loop(f, outer, levels, gl_order):
    """Dyadic L-shell sums one Gauss-Legendre box at a time, as a reference."""
    xg, wg = np.polynomial.legendre.leggauss(gl_order)

    def box(x0, x1, y0, y1):
        xs = 0.5 * (x1 - x0) * (xg + 1.0) + x0
        ys = 0.5 * (y1 - y0) * (xg + 1.0) + y0
        wx = 0.5 * (x1 - x0) * wg
        wy = 0.5 * (y1 - y0) * wg
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        return float(np.einsum("i,j,ij->", wx, wy, f(X, Y)))

    sums = []
    hi = float(outer)
    for _ in range(levels):
        lo = 0.5 * hi
        sums.append(box(lo, hi, lo, hi) + box(lo, hi, 0.0, lo)
                    + box(0.0, lo, lo, hi))
        hi = lo
    return np.array(sums)


@pytest.mark.parametrize("alpha", [-2.5, -3.0, -3.5, -4.0])
def test_tangent_scan_equals_panel_loop(alpha):
    cuts = 0.5 * 10.0 ** -np.arange(1, 6, dtype=float)
    fit = tangent_model_scan(alpha)
    assert np.array_equal(fit.cutoffs, cuts)
    assert np.array_equal(fit.values, _tangent_values_loop(alpha, 0.5, cuts, 16))


@settings(max_examples=20, deadline=None)
@given(alpha=st.floats(-5.5, -1.0), extent=st.floats(0.05, 1.0),
       exponents=st.lists(st.floats(0.05, 5.0), min_size=3, max_size=5,
                          unique=True),
       gl_order=st.integers(2, 20))
def test_tangent_values_equal_panel_loop(alpha, extent, exponents, gl_order):
    cuts = extent * 10.0 ** -np.sort(exponents)
    assume(np.all(np.diff(cuts) < 0))
    assert np.array_equal(models._tangent_values(alpha, extent, cuts, gl_order),
                          _tangent_values_loop(alpha, extent, cuts, gl_order))


@pytest.mark.parametrize("alpha", [-1.5, -2.0, -2.5, -3.0, -4.0])
def test_tangent_values_match_quad_reference(alpha):
    # the inner r integral is exact: only the outer rule, shared with the
    # reference, remains. Dyadic r-levels with a midpoint tail were up to
    # 5.5e-4 off at alpha = -4.
    cuts = 0.5 * 10.0 ** -np.arange(1, 6, dtype=float)
    np.testing.assert_allclose(
        models._tangent_values(alpha, 0.5, cuts, models.PANEL_ORDER),
        _tangent_values_quad(alpha, 0.5, cuts, models.PANEL_ORDER),
        rtol=1e-13, atol=0.0)


def test_tangent_values_continuous_at_log_exponent():
    # alpha = -2 takes the log1p branch, its neighbours the expm1 branches
    cuts = 0.5 * 10.0 ** -np.arange(1, 6, dtype=float)
    at = models._tangent_values(-2.0, 0.5, cuts, models.PANEL_ORDER)
    for alpha in (-2.0 - 1e-9, -2.0 + 1e-9):
        np.testing.assert_allclose(
            models._tangent_values(alpha, 0.5, cuts, models.PANEL_ORDER), at,
            rtol=1e-8, atol=0.0)


def _orthogonal_integrand(a):
    return lambda t, s: (t ** 2 + s ** 2) ** (a / 2.0) * (2.0 * math.pi) ** 2 * t * s


def _cone_integrand(a):
    return lambda r, rho: (r + rho) ** a * r * rho


@pytest.mark.parametrize("integrand,alpha,outer,levels,gl_order", [
    (_orthogonal_integrand, -3.0, 1.0, 60, 12),
    (_orthogonal_integrand, -4.5, 1.0, 60, 12),
    (_orthogonal_integrand, -1.0, 0.5, 60, 12),
    (_cone_integrand, -5.0, 1.0, 21, 12),
])
def test_shell_sums_equal_box_loop_at_defaults(integrand, alpha, outer, levels,
                                               gl_order):
    f = integrand(alpha)
    assert np.array_equal(models._dyadic_shell_sums_2d(f, outer, levels, gl_order),
                          _shell_sums_loop(f, outer, levels, gl_order))


@settings(max_examples=40, deadline=None)
@given(cone=st.booleans(), alpha=st.floats(-6.0, 1.0),
       outer=st.floats(0.05, 2.0), levels=st.integers(1, 70),
       gl_order=st.integers(2, 24))
def test_shell_sums_equal_box_loop(cone, alpha, outer, levels, gl_order):
    f = (_cone_integrand if cone else _orthogonal_integrand)(alpha)
    batched = models._dyadic_shell_sums_2d(f, outer, levels, gl_order)
    loop = _shell_sums_loop(f, outer, levels, gl_order)
    if gl_order >= 3:
        assert np.array_equal(batched, loop)
    else:
        # for a 2 x 2 box np.einsum flushes its running sum once per row,
        # not once per box, so the last bit may differ
        np.testing.assert_allclose(batched, loop, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("n", [1, 2, 12, 16, 40])
def test_gauss_legendre_rule_is_cached_and_read_only(n):
    x, w = gauss_legendre(n)
    ref_x, ref_w = np.polynomial.legendre.leggauss(n)
    assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)
    assert gauss_legendre(n)[0] is x
    with pytest.raises(ValueError):
        x[0] = 0.0
    with pytest.raises(ValueError):
        w[0] = 0.0


# ----------------------------------------------------------------------
# model preconditions: rejected before any integration
# ----------------------------------------------------------------------

@pytest.fixture
def no_integration(monkeypatch):
    def fail(*_):
        raise AssertionError("integrated an invalid input")
    monkeypatch.setattr(models, "_tangent_values", fail)
    monkeypatch.setattr(models, "_dyadic_shell_sums_2d", fail)


@pytest.mark.parametrize("call", [
    lambda: tangent_model_scan(-4.0, 0.0),
    lambda: tangent_model_scan(-4.0, -1.0),
    lambda: tangent_model_scan(-4.0, 1.5),
    lambda: tangent_model_scan(-4.0, math.nan),
    lambda: tangent_model_scan(-4.0, cutoffs=[0.8, 0.05, 0.005, 0.0005]),
    lambda: tangent_model_scan(-4.0, cutoffs=[0.5, 0.05, 0.005]),
    lambda: tangent_model_scan(-4.0, cutoffs=[0.005, 0.05, 0.1]),
    lambda: tangent_model_scan(-4.0, cutoffs=[0.1, 0.01, 0.0]),
    lambda: tangent_model_scan(-4.0, cutoffs=[0.1, 0.01]),
    lambda: cone_model_scan(-4.0, cutoffs=[2.0, 0.1, 0.01]),
    lambda: cone_model_scan(-4.0, cutoffs=[0.1, 0.1, 0.01]),
    lambda: cone_model_scan(-4.0, cutoffs=[0.1, 0.01, -0.001]),
    lambda: orthogonal_model_integral(-3.0, -1.0),
    lambda: orthogonal_model_integral(-3.0, 0.0),
    lambda: orthogonal_model_integral(-3.0, math.nan),
])
def test_model_preconditions(no_integration, call):
    with pytest.raises(PreconditionError):
        call()


def test_model_edge_inputs_accepted():
    assert tangent_model_scan(-2.5, 1.0).law == "finite"
    assert cone_model_scan(-4.0, cutoffs=[1.0, 0.1, 0.01, 0.001]).law == "log"


# ----------------------------------------------------------------------
# annulus bound
# ----------------------------------------------------------------------

def test_lambda_constant_m2():
    # c1 = 0.9 (1 - 1/4) Vol(B^2) = 0.675 pi; at alpha = 0 and rho = 1 the
    # bound is c1^2 for every gap
    for delta in (0.1, 1.0):
        c1 = math.sqrt(lambda_bound(2, 0.0, delta, 1.0))
        assert c1 == pytest.approx(0.675 * math.pi, rel=1e-12)
    assert unit_ball_volume(1) == pytest.approx(2.0)
    assert unit_ball_volume(2) == pytest.approx(math.pi)


def test_lambda_bound_formula():
    c1 = 0.675 * math.pi
    # delta = rho: lambda = 2^(2 alpha) c1^2 rho^(2m+alpha)
    for alpha in (-4.0, -5.0):
        for rho in (0.25, 1.0):
            val = lambda_bound(2, alpha, rho, rho)
            assert val == pytest.approx(
                2.0 ** (2 * alpha) * c1 ** 2 * rho ** (4 + alpha), rel=1e-12)


def test_lambda_monotone_in_gap():
    vals = [lambda_bound(2, -4.0, d, 0.5) for d in (0.4, 0.2, 0.1, 0.05)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    # delta -> 0 limit: 2^alpha c1^2 rho^(2m+alpha)
    c1 = 0.675 * math.pi
    tiny = lambda_bound(2, -4.0, 1e-12, 0.5)
    assert tiny == pytest.approx(2.0 ** -4 * c1 ** 2 * 0.5 ** 0, rel=1e-9)


def test_lambda_bound_preconditions():
    with pytest.raises(PreconditionError):
        lambda_bound(2, -4.0, 0.0, 1.0)
    with pytest.raises(PreconditionError):
        lambda_bound(2, -4.0, 0.1, np.array([1.0, 0.0]))
    with pytest.raises(PreconditionError):
        lambda_bound(2, -4.0, np.array([[0.1], [0.0]]), np.array([1.0, 0.5]))


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_lambda_bound_refuses_a_non_finite_alpha(alpha):
    with pytest.raises(PreconditionError):
        lambda_bound(2, alpha, 0.1, 1.0)
    with pytest.raises(PreconditionError):
        models.lambda_bound_sum(2, alpha, np.array([0.1, 0.01]), 1.0)


def test_lambda_bound_refuses_a_nan_delta():
    # lambda_bound_sum(2, -4, nan, 1) returned NaN
    with pytest.raises(PreconditionError):
        models.lambda_bound_sum(2, -4.0, math.nan, 1.0)
    with pytest.raises(PreconditionError):
        lambda_bound(2, -4.0, np.array([0.1, math.nan]), 1.0)


def test_lambda_bound_sum_is_the_scalar_cascade():
    # one array pass over the CASCADE_TERMS radii, against scalar calls
    for m, alpha, delta, rho0 in ((1, -2.0, 1e-3, 1.0), (2, -5.0, 0.05, 0.7)):
        terms = [lambda_bound(m, alpha, delta, rho0 / 2.0 ** j)
                 for j in range(models.CASCADE_TERMS)]
        assert models.lambda_bound_sum(m, alpha, delta, rho0) == \
            pytest.approx(math.fsum(terms), rel=1e-15)


@pytest.mark.parametrize("m,alpha", [(1, -2.0), (1, -3.0), (2, -4.0),
                                     (2, -5.5)])
def test_lambda_bound_sum_of_an_array_is_its_scalar_calls(m, alpha):
    # each delta's row is still one compensated sum, so the bits agree
    deltas = np.geomspace(0.1, 1e-4, 10) * np.exp(
        np.random.default_rng(3).uniform(-0.1, 0.1, 10))
    for rho0 in (1.0, 0.5):
        sums = models.lambda_bound_sum(m, alpha, deltas, rho0)
        assert sums.shape == deltas.shape
        assert sums.tolist() == [models.lambda_bound_sum(m, alpha, d, rho0)
                                 for d in deltas.tolist()]
    assert type(models.lambda_bound_sum(m, alpha, 0.1, 1.0)) is float


@pytest.mark.parametrize("values", [
    np.random.default_rng(0).normal(size=3000),
    np.random.default_rng(1).lognormal(0.0, 8.0, size=(40, 25)),
    np.array([1e16, 1.0, -1e16]),
    np.array([]),
], ids=["normal", "lognormal-2d", "cancelling", "empty"])
def test_compensated_sum_is_the_exact_rounding_of_the_terms(values):
    total = compensated_sum(values)
    assert type(total) is float
    assert total.hex() == math.fsum(float(v) for v in values.ravel()).hex()


# ----------------------------------------------------------------------
# two-body sweeps
# ----------------------------------------------------------------------

def _sphere_pair_nodes(m, radius, gap, n_polar, n_azimuth):
    """Quadrature for two round m-spheres with poles facing across the gap.

    Returns (points_a, weights_a, points_b, weights_b). Gauss-Legendre in
    the polar cosine clusters nodes at the facing poles, resolving the
    near-contact concentration scale sqrt(gap * radius).
    """
    r = float(radius)
    if m == 1:
        # two GL panels meeting at theta = 0, the facing point
        n_half = max(16, n_polar)
        x, wx = gauss_legendre(n_half)
        half = 0.5 * math.pi
        th = np.concatenate([-math.pi + half * (x + 1.0), half * (x + 1.0)])
        w = np.concatenate([half * wx, half * wx])
        pa = r * np.stack([np.cos(th), np.sin(th)], axis=-1)
        pa[:, 0] -= (r + gap / 2.0)
        pb = pa.copy()
        pb[:, 0] = -pb[:, 0]
        return pa, w * r, pb, w * r
    x, wx = np.polynomial.legendre.leggauss(n_polar)
    theta = np.arccos(x[::-1])
    wth = wx[::-1]                      # weight already in d(cos theta)
    phi = 2.0 * math.pi * np.arange(n_azimuth) / n_azimuth
    wph = np.full(n_azimuth, 2.0 * math.pi / n_azimuth)
    T, P = np.meshgrid(theta, phi, indexing="ij")
    W = np.outer(wth, wph).ravel() * r ** 2
    # pole theta=0 along +x; sphere A centered at x = -(r + gap/2)
    pts = np.stack([np.cos(T.ravel()),
                    np.sin(T.ravel()) * np.cos(P.ravel()),
                    np.sin(T.ravel()) * np.sin(P.ravel())], axis=-1) * r
    pa = pts.copy()
    pa[:, 0] -= (r + gap / 2.0)
    pb = pts.copy()
    pb[:, 0] = -pb[:, 0] + (r + gap / 2.0) + 0.0
    return pa, W, pb, W


def sphere_pair_cross_energy_bruteforce(m, alpha, radius, gap, n_polar=48,
                                        n_azimuth=96):
    """Reference: the cross interaction by direct product quadrature.

    Resolves the near-contact concentration only while the polar node
    spacing at the facing poles stays below the gap, so it serves only at
    resolvable gaps.
    """
    pa, wa, pb, wb = _sphere_pair_nodes(m, radius, gap, n_polar, n_azimuth)
    total = 0.0
    block = 1024
    for lo in range(0, len(pa), block):
        d = np.linalg.norm(pa[lo:lo + block, None, :] - pb[None, :, :], axis=-1)
        total += float(wa[lo:lo + block] @ d ** alpha @ wb)
    return total


def test_cross_energy_dual_route():
    # reduced evaluator vs brute-force product quadrature at resolvable gaps
    for m, alpha in ((2, -4.0), (2, -5.0), (1, -2.0)):
        red = sphere_pair_cross_energy(m, alpha, 1.0, 0.5)
        brute = sphere_pair_cross_energy_bruteforce(m, alpha, 1.0, 0.5,
                                                    64, 128)
        assert red == pytest.approx(brute, rel=1e-10)


def _two_circle_cross_energy(alpha, gap, r=1.0):
    """Cross energy of two unit-speed round circles of radius r at a gap.

    From a point at distance D from the centre of a circle, the integral
    of |x - y|^alpha over that circle is int_0^(2 pi) (a - b cos t)^(alpha/2)
    r dt with a = D^2 + r^2, b = 2 D r, which is 2 pi r / ((D - r)(D + r))
    at alpha = -2 and 4 r E(k) / ((D - r)^2 (D + r)) at alpha = -3, E the
    complete elliptic integral of the second kind with parameter
    k = 4 D r / (D + r)^2. At any other alpha with alpha / 2 + 1 / 2 not an
    integer it is 2 pi r (D + r)^alpha 2F1(-alpha/2, 1/2; 1; k), taken
    through the connection formula at 1 - k = ((D - r) / (D + r))^2. The
    outer circle is even about the line of centres and its points at angle
    s from the facing point lie at D^2 - r^2 = L (gap + 4 r sin^2(s / 2)),
    L = 2r + gap; so D - r is formed as that over D + r, which neither
    cancels nor rounds the gap through L. The outer integral is an adaptive
    quadrature on [0, pi], split at multiples of sqrt(gap / r).
    """
    from scipy.integrate import quad
    from scipy.special import ellipe, gamma, hyp2f1

    p = -0.5 * alpha
    if alpha not in (-2.0, -3.0):
        c_reg = gamma(0.5 - p) / (gamma(1.0 - p) * gamma(0.5))
        c_sing = gamma(p - 0.5) / (gamma(p) * gamma(0.5))

    def inner(s):
        q = (2.0 * r + gap) * (gap + 4.0 * r * math.sin(0.5 * s) ** 2)
        D = math.sqrt(r * r + q)
        near = q / (D + r)                      # D - r
        if alpha == -2.0:
            return 2.0 * math.pi * r / (near * (D + r))
        if alpha == -3.0:
            return 4.0 * r * ellipe(4.0 * D * r / (D + r) ** 2) / (
                near ** 2 * (D + r))
        w = (q / (D + r) ** 2) ** 2             # 1 - k
        F = (c_reg * hyp2f1(p, 0.5, p + 0.5, w)
             + w ** (0.5 - p) * c_sing * hyp2f1(1.0 - p, 0.5, 1.5 - p, w))
        return 2.0 * math.pi * r * (D + r) ** alpha * F

    w = math.sqrt(gap / r)
    cuts = [0.0] + [c * w for c in (0.3, 1.0, 3.0, 10.0, 30.0) if c * w < 1.0]
    cuts.append(math.pi)
    return 2.0 * r * sum(quad(inner, lo, hi, epsabs=0.0, epsrel=1e-13,
                              limit=200)[0]
                         for lo, hi in zip(cuts[:-1], cuts[1:]))


@pytest.mark.parametrize("alpha", [-2.0, -3.0])
def test_circle_pair_cross_energy_at_small_gap(alpha):
    # the facing arcs: a product rule graded only toward the facing points
    # was 7e-4 (alpha = -2) and 2.4e-3 (alpha = -3) off at gap 1e-3, and
    # chords formed as 2r + g - r (cos th + cos tb) lost up to 2.5e-9
    for gap in (1e-3, 1e-5, 1e-7):
        value = sphere_pair_cross_energy(1, alpha, 1.0, gap)
        assert value == pytest.approx(_two_circle_cross_energy(alpha, gap),
                                      rel=1e-13)


# The m = 1 grid grades the outer angle to 0.25 sqrt(g / r) and the inner
# angle to 0.25 g / r. Made 16 times coarser, the outer grading misses
# these references by up to 3.4e-10 and the inner one by up to 8.5e-12.

@pytest.mark.parametrize("alpha", [-2.0, -3.0])
def test_circle_pair_cross_energy_at_bench_gaps(alpha):
    for gap in np.geomspace(0.1, 1e-3, 7):
        value = sphere_pair_cross_energy(1, alpha, 1.0, gap)
        assert value == pytest.approx(_two_circle_cross_energy(alpha, gap),
                                      rel=1e-13)


@pytest.mark.parametrize("alpha", [-1.75, -2.5])
def test_circle_pair_cross_energy_at_fractional_alpha(alpha):
    for gap in (0.1, 1e-2, 1e-3, 1e-4, 1e-5):
        value = sphere_pair_cross_energy(1, alpha, 1.0, gap)
        assert value == pytest.approx(
            _two_circle_cross_energy(alpha, gap), rel=1e-13)


@pytest.mark.parametrize("alpha", [-2.0, -3.0])
@pytest.mark.parametrize("radius", [0.5, 2.0])
def test_circle_pair_cross_energy_radius_law(alpha, radius):
    # E(r, g) = r^(2 + alpha) E(1, g / r): both gradings scale with g / r
    for gap in (0.1, 1e-2, 1e-3):
        value = sphere_pair_cross_energy(1, alpha, radius, gap)
        unit = sphere_pair_cross_energy(1, alpha, 1.0, gap / radius)
        assert value == pytest.approx(radius ** (2.0 + alpha) * unit,
                                      rel=1e-13)
        assert value == pytest.approx(
            _two_circle_cross_energy(alpha, gap, radius), rel=1e-13)


@pytest.mark.parametrize("radius", [0.5, 1.0, 2.0])
def test_circle_pair_cross_energy_closed_form_at_minus_two(radius):
    # an oracle apart from the scipy reference: at alpha = -2 the inner
    # integral is 2 pi r / (D^2 - r^2), and int_(-pi)^pi dth / (a + b
    # sin^2(th / 2)) = 2 pi / sqrt(a (a + b)) gives 4 pi^2 r^2 / ((g + 2r)
    # sqrt(g (g + 4r)))
    for gap in np.geomspace(10.0, 1e-9, 21).tolist():
        closed = 4.0 * math.pi ** 2 * radius ** 2 / (
            (gap + 2.0 * radius) * math.sqrt(gap * (gap + 4.0 * radius)))
        assert sphere_pair_cross_energy(1, -2.0, radius, gap) == \
            pytest.approx(closed, rel=1e-13)


def _two_sphere_closed_form(alpha, gap, r=1.0):
    """Archimedes' hat-box theorem on both spheres, centres L = 2r + gap
    apart: 4 pi^2 r^2 / (L (a+2)(a+3)) [(L+2r)^(a+3) - 2 L^(a+3) +
    gap^(a+3)] for alpha not in {-2, -3}."""
    a, L = float(alpha), 2.0 * r + gap
    return (4.0 * math.pi ** 2 * r ** 2 / (L * (a + 2.0) * (a + 3.0))
            * ((L + 2.0 * r) ** (a + 3.0) - 2.0 * L ** (a + 3.0)
               + gap ** (a + 3.0)))


@pytest.mark.parametrize("alpha", [-4.0, -5.0, -6.0])
@pytest.mark.parametrize("gap", [1e-2, 1e-4, 1e-6, 1e-8])
def test_sphere_pair_cross_energy_at_small_gap(alpha, gap):
    # subtracting D - r directly loses 1.8e-10 to 1e-8 at gaps 1e-6, 1e-8
    value = sphere_pair_cross_energy(2, alpha, 1.0, gap)
    assert value == pytest.approx(_two_sphere_closed_form(alpha, gap),
                                  rel=1e-13)


def test_cross_energy_gap_precondition():
    with pytest.raises(PreconditionError):
        sphere_pair_cross_energy(2, -4.0, 1.0, 0.0)
    # a NaN gap returned NaN, a negative radius raised a math domain error
    # and a zero one divided by zero
    for m in (1, 2):
        for radius, gap in ((1.0, math.nan), (1.0, math.inf), (-1.0, 0.1),
                            (0.0, 0.1), (math.nan, 0.1), (math.inf, 0.1)):
            with pytest.raises(PreconditionError):
                sphere_pair_cross_energy(m, -2.0 * m, radius, gap)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_cross_energy_and_sweep_refuse_a_non_finite_alpha(m, alpha):
    # an infinite alpha warned and returned NaN, a NaN one returned NaN
    with pytest.raises(PreconditionError):
        sphere_pair_cross_energy(m, alpha, 1.0, 0.1)
    with pytest.raises(PreconditionError):
        two_body_sweep(m, alpha, 1.0, [0.1, 0.01, 0.001])


def test_sweep_dominates_annulus_bound():
    res = two_body_sweep(2, -4.0, 1.0, [0.1, 0.05, 0.025, 0.0125])
    assert res.dominates_bound
    assert np.all(res.energies >= res.lambda_sums)
    res5 = two_body_sweep(2, -5.0, 1.0, [0.1, 0.05, 0.025, 0.0125])
    assert res5.dominates_bound


def test_sweep_lambda_sum_follows_count_law():
    # the annulus cascade bound itself is linear in log(1/gap) at the
    # critical exponent: one term of size ~2^(2 alpha) c1^2 per dyadic scale
    res = two_body_sweep(2, -4.0, 1.0, [0.1, 0.05, 0.025, 0.0125])
    x = np.log(1.0 / res.gaps)
    A = np.stack([x, np.ones_like(x)], axis=-1)
    sol, residuals, *_ = np.linalg.lstsq(A, res.lambda_sums, rcond=None)
    ss_tot = np.sum((res.lambda_sums - res.lambda_sums.mean()) ** 2)
    r2 = 1.0 - float(residuals[0]) / ss_tot
    assert r2 > 0.99


def test_sweep_energy_exceeds_count_law():
    # the measured cross energy of round spheres blows up faster than the
    # annulus-count lower bound: near-diagonal scaling of the facing caps
    # gives gap^(alpha + 3m/2); at alpha=-4, m=2 that is 1/gap with
    # coefficient pi^2 (checked directly), so a lin-log fit cannot stay
    # above R^2 = 0.99 while the power fit does
    res = two_body_sweep(2, -4.0, 1.0, [0.1, 0.05, 0.025, 0.0125])
    assert res.law == "logarithmic"    # fit family mandated at alpha = -2m
    assert res.r2 < 0.99               # ... and the data rejects it
    scaled = res.energies * res.gaps
    assert scaled[-1] == pytest.approx(math.pi ** 2, rel=0.02)
    res5 = two_body_sweep(2, -5.0, 1.0, [0.1, 0.05, 0.025, 0.0125])
    assert res5.law == "power"
    assert res5.exponent == pytest.approx(-5.0 + 3.0, abs=0.05)
    assert res5.r2 > 0.999


def test_sweep_m1_critical():
    res = two_body_sweep(1, -2.0, 1.0, [0.1, 0.05, 0.025, 0.0125])
    assert res.dominates_bound
    # true circle-pair law is gap^(alpha + 3m/2) = gap^(-1/2)
    slope = np.polyfit(np.log(res.gaps), np.log(res.energies), 1)[0]
    assert slope == pytest.approx(-0.5, abs=0.06)


def test_sweep_preconditions():
    with pytest.raises(PreconditionError):
        two_body_sweep(2, -4.0, 1.0, [0.1, -0.05])
    # a repeated gap fitted the law through a duplicated point
    for gaps in ([0.1, 0.1, 0.01], [0.01, 0.1, 0.01], [0.1, math.nan, 0.01]):
        with pytest.raises(PreconditionError):
            two_body_sweep(1, -2.0, 1.0, gaps)
