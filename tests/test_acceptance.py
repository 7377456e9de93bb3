"""Acceptance suite: one test per criterion, printed as pass/fail lines.

Each criterion is asserted at its stated tolerance. Criterion 6 checks that
the cross energy of two round unit 2-spheres blows up as the gap between
them closes. c06a (alpha = -2m) and c06b (alpha < -2m) compare the sweep
with the closed form of the cross energy, `_two_sphere_cross_energy`
below, and check its blow-up law gap^(alpha + 3m/2). c06c keeps the
paper's annulus-cascade lower bound: the energy dominates the summed bound
at every gap. The log(1/gap) and gap^(2m + alpha) laws belong to that
bound, not to the energy; tests/test_models.py checks them on the bound.
"""

import math
import time

import numpy as np
import pytest

from rieszlab.flow import FlowState, energy_gradient, run_flow
from rieszlab.geometry import (graph_patch_at, icosphere, make_circle,
                               make_ellipsoid, make_saddle_surface,
                               make_sphere)
from rieszlab.geometry.patches import umbilicity_defect
from rieszlab.models import (cone_model_scan, orthogonal_model_closed_form,
                             orthogonal_model_integral, tangent_model_scan,
                             two_body_sweep)
from rieszlab.moebius import (MoebiusMap, apply_moebius, as_energy,
                              combined_angle_cos, combined_angle_cos_frames,
                              ks_energy, moebius_invariance_check)
from rieszlab.radial import (EnergyParams, ProfileStack, finite_part,
                             radial_profile)
from rieszlab.riesz import QuadratureConfig, beta_oracle, riesz_energy


def _report(num, label, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {num:>2}: {label} ({elapsed:.1f}s)"
    if detail:
        line += f" -- {detail}"
    print(line)
    return ok


def test_c01_circle_beta_oracle():
    t0 = time.time()
    circ = make_circle()
    ok = True
    details = []
    for alpha in (1.0, 0.5, -0.5):
        rep = riesz_energy(circ, alpha)
        oracle = beta_oracle("circle", 1.0, alpha)
        rel = abs(rep.value - oracle) / abs(oracle)
        details.append(f"a={alpha}: rel={rel:.1e}")
        ok &= rel < 1e-6
    rep = riesz_energy(circ, -2.0)
    details.append(f"a=-2: |E|={abs(rep.value):.1e}")
    ok &= abs(rep.value) < 1e-3
    assert _report(1, "circle beta oracle", ok, time.time() - t0,
                   "; ".join(details))


def test_c02_sphere_energy():
    t0 = time.time()
    r1 = riesz_energy(make_sphere(1.0), -4.0)
    r2 = riesz_energy(make_sphere(2.0), -4.0)
    rel1 = abs(r1.value + math.pi ** 2) / math.pi ** 2
    rel2 = abs(r2.value + math.pi ** 2) / math.pi ** 2
    ok = rel1 < 0.01 and rel2 < 0.01
    assert _report(2, "sphere E_-4 = -pi^2 (radius 1 and 2)", ok,
                   time.time() - t0, f"rel r=1: {rel1:.1e}, r=2: {rel2:.1e}")


def test_c03_auckly_sadun_sphere():
    t0 = time.time()
    sph = make_sphere()
    cfg = QuadratureConfig(outer_scale=0.15, inner_scale=0.6)
    rep = as_energy(sph, s=2.5, config=cfg)
    base = riesz_energy(sph, -4.0, config=cfg)
    # decomposition pieces
    q = sph.quadrature(0.3)
    deltas = umbilicity_defect(sph.curvatures(q.locators)[2])
    curv_terms = float(np.dot(q.weights, deltas))
    topo = 0.5 * math.pi ** 2 * 2
    ok = (abs(rep.value) < 0.01 * math.pi ** 2
          and abs(base.value + math.pi ** 2) / math.pi ** 2 < 0.01
          and topo == pytest.approx(math.pi ** 2)
          and abs(curv_terms) < 1e-6)
    assert _report(3, "Auckly-Sadun sphere assembly", ok, time.time() - t0,
                   f"E_AS={rep.value:.2e}, E_-4 rel="
                   f"{abs(base.value + math.pi ** 2) / math.pi ** 2:.1e}, "
                   f"curv={curv_terms:.1e}")


def test_c04_orthogonal_model():
    t0 = time.time()
    ok = True
    worst = 0.0
    for alpha in (-3.5, -3.0, -1.0, 0.0):
        for rho in (0.5, 1.0):
            res = orthogonal_model_integral(alpha, rho)
            cf = orthogonal_model_closed_form(alpha, rho)
            rel = abs(res.value - cf) / abs(cf)
            worst = max(worst, rel)
            ok &= rel < 5e-3 and not res.diverged
    for alpha, flag in ((-3.9, False), (-4.0, True), (-4.5, True), (-5.0, True)):
        ok &= orthogonal_model_integral(alpha, 1.0).diverged == flag
    assert _report(4, "orthogonal model closed form + divergence onset", ok,
                   time.time() - t0, f"worst rel={worst:.1e}")


def test_c05_tangent_cone_thresholds():
    t0 = time.time()
    tan_fin = tangent_model_scan(-2.5, 0.5)
    tan_log = tangent_model_scan(-3.0, 0.5)
    tan_pow = tangent_model_scan(-4.0, 0.5)
    cone_fin = cone_model_scan(-3.5)
    cone_log = cone_model_scan(-4.0)
    cone_pow = cone_model_scan(-5.0)
    ok = (tan_fin.law == "finite" and tan_log.law == "log"
          and tan_pow.law == "power"
          and abs(tan_pow.exponent - (2 * -4.0 + 6.0)) < 0.1
          and cone_fin.law == "finite" and cone_log.law == "log"
          and cone_pow.law == "power"
          and abs(cone_pow.exponent - (-5.0 + 4.0)) < 0.1)
    assert _report(5, "tangential (-3) and cone (-4) finiteness onsets", ok,
                   time.time() - t0,
                   f"tangent exps {tan_pow.exponent:.2f}, "
                   f"cone {cone_pow.exponent:.2f}")


def _two_sphere_cross_energy(alpha, radius, gap):
    """Cross energy of two round 2-spheres of radius r whose gap is `gap`.

    Archimedes' hat-box theorem: seen from a point at distance D > r from
    the centre of a round 2-sphere of radius r, the sphere's area between
    chord distances t and t + dt is (2 pi r / D) t dt. So the inner integral
    over sphere B is

        (2 pi r / D) int_{D-r}^{D+r} t^(alpha+1) dt
            = 2 pi r [(D+r)^(alpha+2) - (D-r)^(alpha+2)] / (D (alpha+2)).

    The centres are L = 2r + gap apart. The same theorem applied to
    sphere A, seen from the centre of B, gives area (2 pi r / L) D dD for
    D in [L-r, L+r]. The D factors cancel, and with L - 2r = gap, for
    alpha not in {-2, -3}:

        E = 4 pi^2 r^2 / (L (alpha+2)(alpha+3))
            * [(L+2r)^(alpha+3) - 2 L^(alpha+3) + gap^(alpha+3)].

    For alpha < -3 the leading term as the gap closes is
    2 pi^2 r / ((alpha+2)(alpha+3)) gap^(alpha+3), with alpha + 3 equal to
    alpha + 3m/2 at m = 2: pi^2 r / gap at alpha = -4.
    """
    r, a = float(radius), float(alpha)
    L = 2.0 * r + gap
    return (4.0 * math.pi ** 2 * r ** 2 / (L * (a + 2.0) * (a + 3.0))
            * ((L + 2.0 * r) ** (a + 3.0) - 2.0 * L ** (a + 3.0)
               + gap ** (a + 3.0)))


def _max_rel_to_closed_form(res):
    oracle = np.array([_two_sphere_cross_energy(res.alpha, res.radius, g)
                       for g in res.gaps])
    return float(np.max(np.abs(res.energies - oracle) / np.abs(oracle)))


def test_c06a_two_body_critical_lin_log():
    # Criterion 6 at the critical exponent alpha = -2m = -4: the cross
    # energy blows up like pi^2 / gap, the closed form's leading term. The
    # log(1/gap) law belongs to the annulus-count lower bound (see
    # test_models.test_sweep_lambda_sum_follows_count_law); res.law names
    # the sweep's fit family at alpha = -2m and is not checked here.
    t0 = time.time()
    m, alpha = 2, -4.0
    res = two_body_sweep(m, alpha, 1.0, [0.1, 0.05, 0.025, 0.0125])
    rel = _max_rel_to_closed_form(res)
    scaled = res.energies * res.gaps
    limit = math.pi ** 2 * res.radius
    slope = float(np.polyfit(np.log(res.gaps), np.log(res.energies), 1)[0])
    expected_slope = alpha + 1.5 * m
    towards_limit = bool(np.all(np.diff(scaled) > 0) and np.all(scaled < limit)
                  and scaled[-1] == pytest.approx(limit, rel=0.02))
    ok = rel <= 1e-10 and towards_limit and abs(slope - expected_slope) < 0.1
    _report("6a", "two-body alpha=-4 closed form, E*gap -> pi^2, "
            "slope -1 +- 0.1", ok, time.time() - t0,
            f"max rel={rel:.1e}, slope={slope:.3f}")
    assert ok, (
        f"cross energy at alpha=-4: max rel. deviation from the closed form "
        f"{rel:.1e} (bound 1e-10); E*gap = "
        f"{[round(float(v), 4) for v in scaled]} (must rise strictly towards "
        f"pi^2 = {limit:.4f}); log-log slope {slope:.3f} (must be "
        f"alpha + 3m/2 = {expected_slope} +- 0.1)")


def test_c06b_two_body_subcritical_exponent():
    # Criterion 6 below the critical exponent, alpha = -5: the cross energy
    # blows up like gap^(alpha + 3m/2) = gap^-2, the closed form's leading
    # term pi^2 r / (3 gap^2). The annulus-bound exponent 2m + alpha = -1
    # is the law of the lower bound, not of the energy.
    t0 = time.time()
    m, alpha = 2, -5.0
    res = two_body_sweep(m, alpha, 1.0, [0.1, 0.05, 0.025, 0.0125])
    rel = _max_rel_to_closed_form(res)
    expected = alpha + 1.5 * m
    ok = (res.law == "power" and abs(res.exponent - expected) < 0.1
          and rel <= 1e-10)
    _report("6b", "two-body alpha=-5 closed form, power exponent -2 +- 0.1",
            ok, time.time() - t0,
            f"measured exponent={res.exponent:.3f}, max rel={rel:.1e}")
    assert ok, (
        f"cross energy at alpha=-5: law {res.law!r} (must be 'power'), "
        f"fitted exponent {res.exponent:.3f} (must be alpha + 3m/2 = "
        f"{expected} +- 0.1), max rel. deviation from the closed form "
        f"{rel:.1e} (bound 1e-10)")


def test_c06c_two_body_dominates_bound():
    t0 = time.time()
    ok = True
    for alpha in (-4.0, -5.0):
        res = two_body_sweep(2, alpha, 1.0, [0.1, 0.05, 0.025, 0.0125])
        ok &= res.dominates_bound
    assert _report("6c", "cross energy >= summed annulus bound everywhere",
                   ok, time.time() - t0)


def test_c07_radial_curvature_link():
    t0 = time.time()
    ell = make_ellipsoid(1.0, 1.0, 1.2)
    ok = True
    worst = 0.0
    for u in ([0.9, 0.3], [1.4, 2.2], [1.9, 4.0], [0.6, 1.0], [2.3, 5.5]):
        patch = graph_patch_at(ell, [(0, u)], 0.45)
        prof = radial_profile(patch)
        delta = umbilicity_defect(ell.curvatures([(0, u)])[2][0])
        expected = math.pi * delta / 4.0
        rel = abs(2.0 * prof.taylor[0, 2] - expected) / abs(expected)
        worst = max(worst, rel)
        ok &= rel < 0.01
    assert _report(7, "phi''(0) = pi Delta / 4 on the ellipsoid", ok,
                   time.time() - t0, f"worst rel={worst:.1e}")


def test_c08_combined_angle_suite():
    t0 = time.time()
    ell = make_ellipsoid(1.0, 1.0, 1.2)
    rng = np.random.default_rng(17)
    ok = True
    for _ in range(100):
        u1 = [rng.uniform(0.2, 2.9), rng.uniform(0, 2 * math.pi)]
        u2 = [rng.uniform(0.2, 2.9), rng.uniform(0, 2 * math.pi)]
        c1 = combined_angle_cos(ell, (0, u1), (0, u2))
        c2 = combined_angle_cos(ell, (0, u2), (0, u1))
        ok &= abs(c1 - c2) < 1e-10
    T = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    ok &= abs(combined_angle_cos_frames(np.zeros(3), T,
                                        np.array([0, 0, 1.0]), T) + 1) < 1e-12
    ok &= abs(combined_angle_cos_frames(np.zeros(3), T,
                                        np.array([1.0, 0, 0]), T) - 1) < 1e-12
    sad = make_saddle_surface()
    ratios = []
    for t in (0.04, 0.02, 0.01):
        c = combined_angle_cos(sad, (0, [0.0, 0.0]), (0, [t, 0.0]))
        ratios.append(math.acos(max(-1.0, min(1.0, c))) / t)
    ok &= abs(ratios[-1] - 1.0) < 1e-3 and ratios[-1] > 0.05
    for n in (2, 4):
        a = rng.standard_normal(n)
        ev = np.sort(np.linalg.eigvalsh(np.outer(a, a)))
        ok &= abs(ev[-1] - a @ a) < 1e-10 and np.all(np.abs(ev[:-1]) < 1e-10)
    assert _report(8, "combined-angle symmetry/parallel/saddle/eigen suite",
                   ok, time.time() - t0,
                   f"saddle theta/d -> {ratios[-1]:.4f}")


def test_c09_ks_properties():
    t0 = time.time()
    ok = abs(ks_energy(make_sphere()).value) < 1e-8
    ell = make_ellipsoid(1.0, 1.0, 1.2)
    e0 = ks_energy(ell).value
    scaled = apply_moebius(ell, MoebiusMap("similarity", center=(0, 0, 0),
                                           scale=2.0))
    ok &= abs(ks_energy(scaled).value - e0) <= 1e-12 * abs(e0)
    rep = moebius_invariance_check(
        ell, MoebiusMap("inversion", center=(3.0, 0.2, 0.1), radius=2.0), "ks")
    # both differences are rounding-level, so their order is noise
    ok &= rep.rel_difference <= 1e-10
    ok &= rep.refined_rel_difference <= 1e-10
    assert _report(9, "E_KS: sphere zero, similarity exact, inversion 1e-10",
                   ok, time.time() - t0,
                   f"inversion rel={rep.rel_difference:.2e} -> "
                   f"{rep.refined_rel_difference:.2e}")


def test_c10_flow_properties():
    t0 = time.time()
    ico = icosphere(1)
    rng = np.random.default_rng(42)
    pert = ico.with_vertices(
        ico.vertices * (1 + 0.05 * rng.standard_normal((ico.num_vertices, 1))))
    grad = energy_gradient(FlowState(mesh=pert))
    ok = np.linalg.norm(grad.sum(axis=0)) < 1e-6 * np.linalg.norm(grad)
    state = run_flow(FlowState(mesh=pert, step_size=1e-2), 50)
    energies = [p.energy for p in state.trajectory]
    ok &= all(b < a for a, b in zip(energies, energies[1:]))
    ok &= energies[-1] < 0.5 * energies[0]
    assert _report(10, "flow: monotone descent, translation-free gradient, "
                       "halving in 50 steps", ok, time.time() - t0,
                   f"E {energies[0]:.3g} -> {energies[-1]:.3g}")


def test_c11_finite_part_splitting():
    t0 = time.time()
    from scipy.integrate import quad
    rng = np.random.default_rng(11)
    ok = True
    cases = []
    for _ in range(14):
        m = int(rng.integers(1, 3))
        cases.append((float(rng.uniform(-m - 3.2, -m + 0.8)), m))
    cases += [(-1.0, 1), (-3.0, 1), (-2.0, 2), (-4.0, 2), (-6.0, 2), (-5.0, 1)]
    worst = 0.0
    for alpha, m in cases:
        sigma = 2.0 if m == 1 else 2 * math.pi
        c = rng.uniform(-0.5, 0.5, size=3)
        eps0 = float(rng.uniform(0.6, 1.4))
        eps1 = float(rng.uniform(0.25, 0.9)) * eps0

        def fn(t, c=c, sigma=sigma):
            t = np.asarray(t, dtype=float)
            return sigma + c[0] * t ** 2 + c[1] * t ** 4 + c[2] * t ** 6

        prof = ProfileStack.from_function(fn, m, eps0)
        params = EnergyParams(alpha, m)
        lhs = finite_part(params, prof, eps0).value[0]
        inner = finite_part(params, prof, eps1).value[0]
        outer, _ = quad(lambda t: t ** (alpha + m - 1) * fn(t), eps1, eps0,
                        epsabs=1e-14, epsrel=1e-13, limit=300)
        rel = abs(lhs - (inner + outer)) / max(abs(lhs), abs(inner + outer),
                                               abs(outer), 1.0)
        worst = max(worst, rel)
        ok &= rel < 1e-8
    assert _report(11, "finite-part splitting invariance (20 cases)", ok,
                   time.time() - t0, f"worst rel={worst:.1e}")
