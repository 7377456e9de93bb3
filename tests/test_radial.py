import collections
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from rieszlab.errors import (NumericalError, PreconditionError,
                             ProfileFitError)
import rieszlab.radial
from rieszlab.geometry import (TriMesh, default_patch_radius, graph_patch_at,
                               icosphere, make_circle, make_ellipsoid,
                               make_sphere, make_torus, polygon_circle,
                               torus_mesh)
from rieszlab.radial import (ANGULAR_NODES, ANGULAR_START, EnergyParams,
                             ProfileStack, _angular_rule, _chord_rows,
                             _density_rows, _profile_batch, finite_part,
                             radial_profile)
from rieszlab.riesz import riesz_energy


# ----------------------------------------------------------------------
# parameters
# ----------------------------------------------------------------------

@pytest.mark.parametrize("alpha,m,pole", [
    (-2.0, 1, False),
    (-1.0, 1, True),
    (-3.0, 1, True),
    (-2.0, 2, True),
    (-4.0, 2, True),
    (-3.0, 2, False),
    (-3.5, 2, False),
    (1.0, 2, False),
    (-0.5, 1, False),
])
def test_energy_params(alpha, m, pole):
    p = EnergyParams(alpha, m)
    assert p.at_pole == pole


@given(m=st.sampled_from([1, 2]), k=st.integers(0, 10),
       offset=st.floats(-1e-13, 1e-13))
def test_energy_params_at_pole_on_even_steps(m, k, offset):
    # alpha = -m - 2k is a pole exactly and under perturbations < 1e-13
    assert EnergyParams(-m - 2 * k, m).at_pole
    assert EnergyParams(-m - 2 * k + offset, m).at_pole


@given(m=st.sampled_from([1, 2]), k=st.integers(0, 10),
       offset=st.floats(1e-9, 0.49), sign=st.sampled_from([-1.0, 1.0]))
def test_energy_params_off_pole(m, k, offset, sign):
    # offsets above 1e-9 and odd steps below -m are regular points
    assert not EnergyParams(-m - 2 * k + sign * offset, m).at_pole
    assert not EnergyParams(-m - 2 * k - 1, m).at_pole


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_energy_params_reject_non_finite_alpha(alpha):
    with pytest.raises(PreconditionError):
        EnergyParams(alpha, 2)


# ----------------------------------------------------------------------
# chord solves
# ----------------------------------------------------------------------

def _height_data(stack, eta):
    """(h, grad h) of node 0 of a patch stack at eta (K, m)."""
    node = np.zeros(len(eta), dtype=int)
    return stack.height(node, eta), stack.height_jacobian(node, eta)


def _radial_inverse(stack, v, t, tol_factor=1e-12, max_iter=50):
    """Reference ray solve on the explicit height of node 0 of a stack:
    xi^2 + |h(xi v)|^2 = t^2 by a Newton in xi bracketed on [0, t], with one
    more Newton step once a row meets the tolerance. Returns (xi, dxi/dt)."""
    K = len(v)
    t = np.broadcast_to(np.asarray(t, dtype=float), (K,)).copy()
    xi, lo, hi = t.copy(), np.zeros(K), t.copy()
    active = t > 0
    for _ in range(max_iter):
        if not active.any():
            break
        va, xa = v[active], xi[active]
        h, dh = _height_data(stack, xa[:, None] * va)
        hv = np.einsum("kcj,kj->kc", dh, va)
        F = xa ** 2 + np.sum(h * h, axis=-1) - t[active] ** 2
        step = F / (2.0 * (xa + np.einsum("kc,kc->k", hv, h)))
        done = np.abs(F) <= tol_factor * t[active] ** 2
        la = np.where(F < 0, xa, lo[active])
        ha = np.where(F > 0, xa, hi[active])
        cand = xa - step
        bad = (cand <= la) | (cand >= ha) | ~np.isfinite(cand)
        lo[active], hi[active] = la, ha
        xi[active] = np.where(done, xa - step, np.where(bad, 0.5 * (la + ha),
                                                        cand))
        sub = active.copy()
        sub[active] = ~done
        active = sub
    assert not active.any(), "reference ray solve did not converge"
    h, dh = _height_data(stack, xi[:, None] * v)
    hv = np.einsum("kcj,kj->kc", dh, v)
    return xi, t / (xi + np.einsum("kc,kc->k", hv, h))


@pytest.mark.parametrize("surface,locator,radius", [
    (make_sphere(1.0, center=(0.3, -0.2, 0.4)), (0, [0.9, 2.0]), 0.9),
    (make_ellipsoid(1.0, 1.0, 1.2), (0, [1.0, 0.7]), 0.5),
    (make_torus(), (0, [0.4, 1.0]), 0.4),
    (make_circle(), (0, [1.1]), 0.9),
    (icosphere(2), 17, None),
    (polygon_circle(64), 5, None),
], ids=["sphere", "ellipsoid", "torus", "circle", "icosphere2", "polygon64"])
def test_chord_solve_matches_nested_inversion(surface, locator, radius):
    # each patch's chord solve against the reference ray solve on the same
    # patch's explicit height, on a dense t grid down to 1e-4 eps0
    stack = graph_patch_at(surface, [locator], radius)
    ts = stack.radius * np.concatenate([np.geomspace(1e-4, 0.08, 14),
                                        np.linspace(0.1, 1.0, 96)])
    v, _ = _angular_rule(stack.m, 16)
    vv = np.tile(v, (len(ts), 1))
    tt = np.repeat(ts, len(v))
    xi, dxi, dh = _chord_rows(stack, vv, tt, np.zeros(len(tt), dtype=int))
    xi_ref, dxi_ref = _radial_inverse(stack, vv, tt)
    dh_ref = _height_data(stack, xi_ref[:, None] * vv)[1]
    np.testing.assert_allclose(xi, xi_ref, rtol=1e-12, atol=0)
    np.testing.assert_allclose(dxi, dxi_ref, rtol=1e-12, atol=0)
    # grad h ~ curvature * t: at t = 1e-4 eps0 both solves place the point
    # to ~1e-14 absolute, so grad h is compared at the patch's own scale
    dh_err = np.linalg.norm(dh - dh_ref, axis=(-2, -1))
    assert dh_err.max() <= 1e-12 * np.linalg.norm(dh_ref, axis=(-2, -1)).max()


@pytest.mark.parametrize("mesh", [icosphere(2), torus_mesh(12, 24),
                                  polygon_circle(64)],
                         ids=["icosphere2", "torus_mesh", "polygon64"])
def test_mesh_chord_solve_on_the_chord_sphere(mesh):
    v, _ = _angular_rule(mesh.m, 16)
    for vertex in (0, mesh.num_vertices // 2):
        stack = graph_patch_at(mesh, [vertex], None)
        ts = stack.radius * np.geomspace(1e-4, 1.0, 24)
        vv = np.tile(v, (len(ts), 1))
        tt = np.repeat(ts, len(v))
        xi, h, dh = stack.chord_solve(np.zeros(len(tt), dtype=int), vv, tt)
        assert np.all(xi > 0)
        res = xi ** 2 + np.sum(h * h, axis=-1) - tt ** 2
        assert np.all(np.abs(res) <= 1e-14 * tt ** 2)
        h_ref, dh_ref = _height_data(stack, xi[:, None] * vv)
        np.testing.assert_allclose(h, h_ref, rtol=1e-14, atol=0)
        np.testing.assert_allclose(dh, dh_ref, rtol=1e-14, atol=0)


def test_mesh_chord_solve_flat_rows():
    # a planar grid: every fitted height vanishes, so each row has xi = t
    g = np.arange(5.0)
    x, y = np.meshgrid(g, 0.8 * g, indexing="ij")
    verts = np.stack([x.ravel(), y.ravel(), np.zeros(25)], axis=-1)
    quads = [(5 * i + j, 5 * i + j + 5, 5 * i + j + 6, 5 * i + j + 1)
             for i in range(4) for j in range(4)]
    faces = [f for a, b, c, d in quads for f in ((a, b, c), (a, c, d))]
    mesh = TriMesh(verts, faces, 2)
    v, _ = _angular_rule(2, 16)
    for vertex in (0, 12, 24):
        stack = graph_patch_at(mesh, [vertex], None)
        tt = np.repeat(stack.radius * np.geomspace(1e-4, 1.0, 8), len(v))
        xi, h, dh = stack.chord_solve(np.zeros(len(tt), dtype=int),
                                      np.tile(v, (8, 1)), tt)
        assert np.array_equal(xi, tt)


def test_chord_solve_circle_rays_keep_their_side():
    circ = make_circle()
    theta0 = 1.1
    stack = graph_patch_at(circ, [(0, [theta0])], 0.9)
    ts = np.array([1e-4, 0.05, 0.4, 0.85])
    for sign in (1.0, -1.0):
        v = np.full((len(ts), 1), sign)
        xi, h, _ = stack.chord_solve(np.zeros(len(ts), dtype=int), v, ts)
        points = (stack.base_point[0] + (xi[:, None] * v) @ stack.tangent[0].T
                  + h @ stack.normal[0].T)
        # chord t subtends 2 asin(t / 2) on the unit circle, on the ray's side
        theta = theta0 + sign * 2.0 * np.arcsin(ts / 2.0)
        expected = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        np.testing.assert_allclose(points, expected, atol=1e-14)
        assert np.all(xi > 0)


def test_chord_solve_beyond_patch_raises():
    sph = make_sphere()
    stack = graph_patch_at(sph, [(0, [1.3, 0.4])], 0.9)
    v = np.array([[1.0, 0.0], [0.6, 0.8]])
    # no point of the unit sphere lies at chord distance 2.5
    with pytest.raises(NumericalError, match="did not converge on 1 rows"):
        stack.chord_solve(np.zeros(2, dtype=int), v, np.array([0.5, 2.5]))


def _scaled_sphere():
    lam = 1.7
    return make_sphere().transformed(
        lambda x: lam * x,
        lambda x: np.broadcast_to(lam * np.eye(3), x.shape[:-1] + (3, 3)),
        None)


@pytest.mark.parametrize("surface,locators,radius", [
    (make_ellipsoid(1.3, 0.9, 1.1), [(0, [0.7, 0.3]), (0, [1.9, 4.0])], 0.5),
    (make_torus(1.0, 0.5), [(0, [0.4, 1.0]), (0, [2.5, 5.5])], 0.3),
    (make_circle(), [(0, [1.1]), (0, [4.0])], 0.9),
    (_scaled_sphere(), [(0, [1.2, 0.5]), (0, [2.2, 3.0])], 1.0),
], ids=["spheroid-stack", "torus", "circle", "transformed-sphere"])
def test_chord_solve_against_per_row_chart_reference(surface, locators,
                                                     radius):
    # every row's (xi, h, grad h) against a per-row Gauss-Newton on the
    # surface's own chart: the point x0 + T xi v + N h lies on it at chord
    # distance t on the ray's side, and grad h is (N^T J)(T^T J)^-1 there
    chart = surface.charts[0]
    stack = surface.patches_at(locators, radius)
    v, _ = _angular_rule(surface.m, 8)
    ts = np.geomspace(1e-3, 0.95, 6)
    node = np.repeat(np.arange(len(locators)), len(ts) * len(v))
    vv = np.tile(v, (len(ts) * len(locators), 1))
    tt = np.tile(np.repeat(ts, len(v)), len(locators)) * stack.radii[node]
    xi, h, dh = stack.chord_solve(node, vv, tt)
    for r in range(len(tt)):
        k = node[r]
        x0, T, N = stack.base_point[k], stack.tangent[k], stack.normal[k]
        point = x0 + T @ (xi[r] * vv[r]) + N @ h[r]
        u = np.array(locators[k][1], dtype=float)
        for _ in range(30):
            J = chart.jacobian(u)
            u = u + np.linalg.lstsq(J, point - chart.value(u), rcond=None)[0]
        x = chart.value(u)
        assert np.linalg.norm(x - point) <= 1e-14
        assert abs(np.linalg.norm(x - x0) - tt[r]) <= 1e-14
        assert (T.T @ (x - x0)) @ vv[r] > 0.0
        J = chart.jacobian(u)
        ref = np.einsum("ci,ij->cj", N.T @ J, np.linalg.inv(T.T @ J))
        # the chord Newton stops at a residual of 1e-13 t above its floor
        assert np.max(np.abs(dh[r] - ref)) <= 1e-14 + 1e-13 * tt[r]


# ----------------------------------------------------------------------
# radial profiles
# ----------------------------------------------------------------------

def test_profile_flat_patch():
    class Flat:
        m = 2
        radii = np.array([1.0])
        def chord_solve(self, node, v, t):
            return t, np.zeros((len(t), 1)), np.zeros((len(t), 1, 2))
    prof = radial_profile(Flat())
    np.testing.assert_allclose(prof.samples[0], 2 * math.pi, atol=1e-13)
    np.testing.assert_allclose(prof.taylor[0, 1:], 0.0, atol=1e-10)


def test_profile_circle_closed_form():
    circ = make_circle()
    patch = graph_patch_at(circ, [(0, [1.1])], 0.9)
    prof = radial_profile(patch)
    ts = np.array([0.1, 0.4, 0.8])
    expected = 2.0 / np.sqrt(1 - ts ** 2 / 4)
    np.testing.assert_allclose(prof.evaluate(ts)[0], expected, rtol=1e-10)
    assert prof.samples[0][0] == 2.0
    # even Taylor data: phi = 2 + t^2/4 + (3/64) t^4 + ...
    assert prof.taylor[0, 2] == pytest.approx(0.25, rel=1e-4)
    assert prof.taylor[0, 4] == pytest.approx(3.0 / 64.0, rel=0.05)


def test_profile_sphere_constant():
    sph = make_sphere()
    patch = graph_patch_at(sph, [(0, [0.9, 2.0])], 0.9)
    prof = radial_profile(patch)
    np.testing.assert_allclose(prof.samples[0], 2 * math.pi, rtol=1e-11)
    # umbilic: phi''(0) = pi Delta / 4 = 0
    assert abs(prof.taylor[0, 2]) < 1e-9


def test_profile_odd_coefficient_suppression():
    # phi is even: a least-squares fit of odd and even powers to sampled phi
    # gives order-1 and order-3 coefficients below 1e-6 of the even ones
    ell = make_ellipsoid(1.0, 1.0, 1.2)
    patch = graph_patch_at(ell, [(0, [1.0, 0.7])], 0.5)
    scale = 0.5 * patch.radius
    ts = np.linspace(scale / 64, scale, 64)
    sigma = 2 * math.pi
    y = _profile_batch(patch, np.array([0]), ts[None])[0] - sigma
    powers = np.arange(1, 11)
    sol, *_ = np.linalg.lstsq((ts[:, None] / scale) ** powers, y, rcond=None)
    coef = dict(zip(powers, sol / scale ** powers))
    even_scale = max(sigma, abs(coef[2]), abs(coef[4]))
    assert abs(coef[1]) < 1e-6 * even_scale
    assert abs(coef[3]) < 1e-6 * even_scale


def test_profile_curvature_link_ellipsoid():
    # phi''(0) = pi Delta / 4 on five ellipsoid points, to 1e-8 (c07 in
    # the acceptance suite checks the same identity at 1%)
    from rieszlab.geometry.patches import umbilicity_defect
    ell = make_ellipsoid(1.0, 1.0, 1.2)
    for u in ([0.9, 0.3], [1.4, 2.2], [1.9, 4.0], [0.6, 1.0], [2.3, 5.5]):
        patch = graph_patch_at(ell, [(0, u)], 0.45)
        prof = radial_profile(patch)
        delta = umbilicity_defect(ell.curvatures([(0, u)])[2][0])
        expected = math.pi * delta / 4.0
        assert 2.0 * prof.taylor[0, 2] == pytest.approx(expected, rel=1e-8)


# ----------------------------------------------------------------------
# the adaptive angular rule
# ----------------------------------------------------------------------

def _counting(stack):
    """stack whose chord solve counts its rows per (node, t) sample."""
    rows = collections.Counter()
    solve = stack.chord_solve

    def chord_solve(node, v, t):
        rows.update(zip(node.tolist(), t.tolist()))
        return solve(node, v, t)

    return dataclasses.replace(stack, chord_solve=chord_solve), rows


def _outer_stack(surface):
    """The patch stack of riesz_energy's outer nodes at the default config."""
    nodes = surface.nodes(0.25)
    return graph_patch_at(surface, nodes.locators,
                          default_patch_radius(surface))


def test_angular_rule_refines_only_where_the_samples_disagree():
    # on the round sphere phi does not depend on the direction: every
    # sample stays at the start rule. On the torus and the prolate
    # ellipsoid samples double once or go to the cap.
    counts = {}
    for name, surface in (("sphere", make_sphere()),
                          ("torus", make_torus(1.0, 0.5)),
                          ("ellipsoid", make_ellipsoid(1.0, 1.0, 2.0))):
        stack, rows = _counting(_outer_stack(surface))
        radial_profile(stack)
        counts[name] = collections.Counter(rows.values())
    assert set(counts["sphere"]) == {ANGULAR_START}
    for name in ("torus", "ellipsoid"):
        assert set(counts[name]) <= {16, 32, 64}
        assert counts[name][32] + counts[name][64] > 0


def test_refined_sample_matches_the_plain_cap_rule():
    torus = make_torus(1.0, 0.5)
    stack, rows = _counting(graph_patch_at(torus, [(0, [0.3, 2.0])], 0.4))
    ts = np.linspace(0.05, 0.4, 8)
    phi = _profile_batch(stack, np.array([0]), ts[None])[0]
    capped = [j for j, t in enumerate(ts) if rows[(0, t)] == ANGULAR_NODES]
    assert capped
    v, w = _angular_rule(2, ANGULAR_NODES)
    node = np.zeros(len(capped), dtype=int)
    plain = _density_rows(stack, v, ts[capped], node) @ w
    np.testing.assert_allclose(phi[capped], plain, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("surface,alpha", [
    pytest.param(make_sphere(), -4.0, id="sphere"),
    pytest.param(make_ellipsoid(1.0, 1.0, 1.2), -4.0, id="ellipsoid-1.2"),
    pytest.param(make_ellipsoid(1.3, 0.9, 1.1), -3.0, id="ellipsoid-3axes"),
    pytest.param(make_ellipsoid(1.0, 1.0, 2.0), -4.0, id="ellipsoid-2"),
    pytest.param(make_torus(1.0, 0.5), -4.0, id="torus"),
    pytest.param(icosphere(2), -2.5, id="icosphere"),
])
def test_adaptive_rule_moves_energies_less_than_their_estimate(
        surface, alpha, monkeypatch):
    report = riesz_energy(surface, alpha)
    monkeypatch.setattr(rieszlab.radial, "ANGULAR_START", ANGULAR_NODES)
    reference = riesz_energy(surface, alpha)
    assert abs(report.value - reference.value) < report.error_estimate


@pytest.mark.parametrize("alpha,value", [(-2.5, 3.883164924318681),
                                         (-4.5, 0.6934223133289933)])
def test_circle_energies_do_not_see_the_angular_rule(alpha, value,
                                                     monkeypatch):
    # m = 1 samples the two directions of S^0, whatever the surface rule
    assert riesz_energy(make_circle(), alpha).value == value
    monkeypatch.setattr(rieszlab.radial, "ANGULAR_START", ANGULAR_NODES)
    assert riesz_energy(make_circle(), alpha).value == value


# ----------------------------------------------------------------------
# finite parts
# ----------------------------------------------------------------------

def _const_profile(value, m, eps0):
    return ProfileStack.from_function(
        lambda t: value * np.ones_like(np.asarray(t, dtype=float)), m, eps0)


def test_finite_part_knot_energy_subtraction():
    # m=1, alpha=-2, phi == 2, eps0 = 1: value -2 with coefficient -2 on 1/eps
    prof = _const_profile(2.0, 1, 1.0)
    res = finite_part(EnergyParams(-2.0, 1), prof)
    assert res.value[0] == pytest.approx(-2.0, abs=1e-12)
    assert res.log_coefficient[0] == 0.0


def test_finite_part_pole_log_convention():
    prof = _const_profile(2.0, 1, 1.0)
    res = finite_part(EnergyParams(-1.0, 1), prof)
    assert res.value[0] == pytest.approx(0.0, abs=1e-12)   # 2 log 1
    assert res.log_coefficient[0] == pytest.approx(2.0)
    res2 = finite_part(EnergyParams(-1.0, 1), prof, eps0=0.5)
    assert res2.value[0] == pytest.approx(2.0 * math.log(0.5), abs=1e-12)


def test_finite_part_unregularized():
    prof = _const_profile(2 * math.pi, 2, 0.5)
    res = finite_part(EnergyParams(1.0, 2), prof)
    assert res.value[0] == pytest.approx(math.pi / 12.0, rel=1e-12)
    assert res.log_coefficient[0] == 0.0


def _random_profile(rng, m, eps0):
    sigma = 2.0 if m == 1 else 2 * math.pi
    c = rng.uniform(-0.5, 0.5, size=3)
    amp = rng.uniform(-0.3, 0.3)
    freq = rng.uniform(0.5, 3.0)

    def fn(t):
        t = np.asarray(t, dtype=float)
        out = sigma + c[0] * t ** 2 + c[1] * t ** 4 + c[2] * t ** 6
        return out + amp * (np.cos(freq * t) - 1.0)

    return ProfileStack.from_function(fn, m, eps0)


def test_finite_part_consistency_with_plain_integration():
    # for alpha > -m the finite part equals the direct integral
    rng = np.random.default_rng(7)
    for _ in range(10):
        m = int(rng.integers(1, 3))
        alpha = float(rng.uniform(-m + 0.05, 1.5))
        eps0 = float(rng.uniform(0.4, 1.2))
        prof = _random_profile(rng, m, eps0)
        res = finite_part(EnergyParams(alpha, m), prof)
        direct, _ = quad(lambda t: t ** (alpha + m - 1) * prof.evaluate(t)[0],
                         0.0, eps0, epsabs=1e-13, epsrel=1e-12, limit=400)
        assert res.value[0] == pytest.approx(direct, rel=1e-9)


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
        outer, _ = quad(lambda t: t ** (alpha + m - 1) * prof.evaluate(t)[0],
                        eps1, eps0, epsabs=1e-14, epsrel=1e-13, limit=400)
        lhs = full.value[0]
        rhs = inner.value[0] + outer
        scale = max(abs(lhs), abs(rhs), abs(outer), 1.0)
        assert abs(lhs - rhs) / scale < 1e-8, (alpha, m, lhs, rhs)


@pytest.mark.parametrize("noise", [0.0, 3e-14])
@pytest.mark.parametrize("alpha", [-0.5, -2.5, -4.5, -6.5])
def test_finite_part_error_estimate_covers_truncation_and_noise(alpha, noise):
    # the circle's density 2 / sqrt(1 - t^2/4) = sum_k a_k t^(2k) with
    # a_k = 2 C(2k, k) / 16^k gives the exact finite part as a series; the
    # estimate must cover the chopped tail and noise added to the samples
    eps0 = 0.9
    rng = np.random.default_rng(5)

    def fn(t):
        t = np.asarray(t, dtype=float)
        return (2.0 / np.sqrt(1.0 - t * t / 4.0)
                + noise * rng.standard_normal(t.shape))

    res = finite_part(EnergyParams(alpha, 1),
                      ProfileStack.from_function(fn, 1, eps0))
    exact = math.fsum(2.0 * math.comb(2 * k, k) / 16.0 ** k
                      * eps0 ** (alpha + 1 + 2 * k) / (alpha + 1 + 2 * k)
                      for k in range(80))
    assert abs(res.value[0] - exact) <= res.error_estimate[0]


def test_profile_unresolved_raises():
    # a kink at t = 0.5 keeps the Chebyshev coefficients above the chop
    # level at every sampling level
    with pytest.raises(ProfileFitError, match="unresolved at 65"):
        ProfileStack.from_function(lambda t: 2.0 + np.abs(t - 0.5), 1, 1.0)


def _failing_beyond(stack, node, radius):
    """stack whose chord rows of one node fail beyond a chord radius, and
    the largest chord radius asked of that node in each failing call."""
    solve, asked = stack.chord_solve, []

    def chord_solve(nodes, v, t):
        mine = nodes == node
        if np.any(t[mine] > radius):
            asked.append(float(t[mine].max()))
            raise NumericalError("chord rows fail", node=[node])
        return solve(nodes, v, t)

    return dataclasses.replace(stack, chord_solve=chord_solve), asked


def test_profile_shrinks_only_the_node_whose_rows_fail():
    # node 1's rows fail beyond 0.45: it alone shrinks, to 0.5 * 0.85, and
    # node 0 keeps 0.5 and the samples of its own profile
    stack = graph_patch_at(make_sphere(), [(0, [1.0, 0.5]), (0, [1.2, 2.0])],
                           0.5)
    spoiled, asked = _failing_beyond(stack, 1, 0.45)
    profiles = radial_profile(spoiled)
    assert asked == [0.5]
    np.testing.assert_array_equal(profiles.eps0, [0.5, 0.5 * 0.85])
    np.testing.assert_array_equal(stack.radii, 0.5)
    alone = radial_profile(stack.take([0]))
    np.testing.assert_array_equal(profiles.samples[0], alone.samples[0])
    again = radial_profile(graph_patch_at(make_sphere(), [(0, [1.2, 2.0])],
                                          0.5 * 0.85))
    np.testing.assert_allclose(profiles.samples[1], again.samples[0],
                               rtol=1e-14)


def test_profile_refuses_a_node_whose_rows_fail_at_every_radius():
    # the node is tried at its radius and after each of 40 shrinks by 0.85,
    # then the error of its last attempt names it
    stack = graph_patch_at(make_sphere(), [(0, [1.0, 0.5]), (0, [1.2, 2.0])],
                           0.5)
    spoiled, asked = _failing_beyond(stack, 1, 0.0)
    with pytest.raises(NumericalError, match="after 40 shrinks") as exc:
        radial_profile(spoiled)
    assert exc.value.nodes == [1]
    want = [0.5]
    for _ in range(40):
        want.append(want[-1] * 0.85)
    assert asked == want


def test_profile_refuses_a_fold_along_the_ray():
    # rows past the unit circle's fold at chord sqrt(2) converge on the far
    # side of its angle chart, where xi + <grad_v h, h> < 0
    stack = graph_patch_at(make_circle(), [(0, [0.3])], 2.0)
    with pytest.raises(NumericalError, match="folds along 1 chord rays"):
        _chord_rows(stack, np.array([[1.0]]), np.array([1.6]),
                    np.zeros(1, dtype=int))
    assert radial_profile(stack).eps0[0] < math.sqrt(2.0)


@st.composite
def _even_polynomial_cases(draw):
    m = draw(st.sampled_from([1, 2]))
    alpha = draw(st.one_of(
        st.floats(-m - 5.0, 1.0),
        st.sampled_from([-m, -m - 2.0, -m - 4.0])))   # the pole set
    coef = draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=5))
    eps0 = draw(st.floats(0.3, 1.5))
    eps1 = draw(st.floats(0.2, 0.95)) * eps0
    return m, alpha, coef, eps0, eps1


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_even_polynomial_cases())
def test_finite_part_properties_on_even_polynomials(case):
    # phi = sigma + sum_k c_k t^(2k): the interpolant is exact, so the
    # splitting identity Pf[0, eps0] = Pf[0, eps1] + int_[eps1, eps0] holds
    # to rounding, and for alpha > -m the finite part is the plain integral
    m, alpha, coef, eps0, eps1 = case
    sigma = 2.0 if m == 1 else 2 * math.pi

    def fn(t):
        t = np.asarray(t, dtype=float)
        return sigma + sum(c * t ** (2 * k + 2) for k, c in enumerate(coef))

    prof = ProfileStack.from_function(fn, m, eps0)
    params = EnergyParams(alpha, m)
    gamma = alpha + m - 1
    full = finite_part(params, prof, eps0).value[0]
    inner = finite_part(params, prof, eps1).value[0]
    outer, _ = quad(lambda t: t ** gamma * fn(t), eps1, eps0,
                    epsabs=1e-14, epsrel=1e-13, limit=200)
    scale = max(abs(full), abs(inner + outer), abs(outer), 1.0)
    assert abs(full - (inner + outer)) <= 1e-9 * scale
    if alpha > -m:
        # QUADPACK's algebraic weight t^gamma handles the endpoint exactly
        plain, _ = quad(fn, 0.0, eps0, weight="alg", wvar=(gamma, 0.0),
                        epsabs=1e-14, epsrel=1e-13, limit=200)
        assert abs(full - plain) <= 1e-9 * max(abs(plain), 1.0)
