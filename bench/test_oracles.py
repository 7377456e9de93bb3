"""Each oracle of the benchmark against scipy's adaptive quadrature, at one point.

Run with `python -m pytest bench/test_oracles.py`.
"""

import math

import pytest
from scipy.integrate import dblquad, quad, tplquad

import oracles


def test_sphere_energy():
    alpha = -1.0
    # a point of the unit sphere sees the point at polar angle theta at
    # chord 2 sin(theta/2); the outer integral contributes the area 4 pi
    inner, _ = quad(lambda th: (2.0 * math.sin(th / 2.0)) ** alpha
                    * 2.0 * math.pi * math.sin(th), 0.0, math.pi,
                    epsrel=1e-12)
    assert oracles.sphere_energy(alpha) == pytest.approx(4.0 * math.pi * inner,
                                                         rel=1e-10)


def test_circle_energy():
    alpha = -0.5
    inner, _ = quad(lambda th: (2.0 * math.sin(th / 2.0)) ** alpha,
                    0.0, 2.0 * math.pi, epsrel=1e-12, limit=200)
    assert oracles.circle_energy(alpha) == pytest.approx(2.0 * math.pi * inner,
                                                         rel=1e-9)


def test_two_sphere_cross_energy():
    alpha, gap = -1.0, 0.3
    c = 1.0 + gap / 2.0

    def kernel(phi, tb, ta):
        # point a at azimuth 0 on sphere A (pole facing +x), b on sphere B
        xa = (-c + math.cos(ta), math.sin(ta), 0.0)
        xb = (c - math.cos(tb), math.sin(tb) * math.cos(phi),
              math.sin(tb) * math.sin(phi))
        d = math.dist(xa, xb)
        return d ** alpha * math.sin(ta) * math.sin(tb)

    val, _ = tplquad(kernel, 0.0, math.pi, 0.0, math.pi, 0.0, 2.0 * math.pi,
                     epsabs=0.0, epsrel=1e-9)
    # the azimuth of point a is free: a factor 2 pi
    assert oracles.two_sphere_cross_energy(alpha, gap) == pytest.approx(
        2.0 * math.pi * val, rel=1e-7)


def test_orthogonal_sheet_energy():
    alpha, rho = -1.0, 0.7
    val, _ = dblquad(lambda s, t: (t * t + s * s) ** (alpha / 2.0)
                     * (2.0 * math.pi) ** 2 * t * s,
                     0.0, rho, 0.0, rho, epsabs=0.0, epsrel=1e-11)
    assert oracles.orthogonal_sheet_energy(alpha, rho) == pytest.approx(val,
                                                                        rel=1e-9)


def test_annulus_bound_term():
    m, alpha, gap, rho = 2, -5.0, 1e-3, 1.0
    # volume of the annulus rho/2 < |x| < rho in R^m, per rho^m
    shell, _ = quad(lambda r: m * oracles.unit_ball_volume(m) * r ** (m - 1),
                    0.5, 1.0, epsrel=1e-12)
    c1 = 0.9 * shell
    expected = (2.0 ** alpha * c1 ** 2 * rho ** (2 * m + alpha)
                * (1.0 + gap / rho) ** alpha)
    assert oracles.annulus_bound_sum(m, alpha, gap, rho, terms=1) == pytest.approx(
        expected, rel=1e-12)


def test_two_circle_cross_energy():
    alpha, gap = -1.5, 0.3
    c = 1.0 + gap / 2.0

    def kernel(tb, ta):
        return math.dist((-c + math.cos(ta), math.sin(ta)),
                         (c - math.cos(tb), math.sin(tb))) ** alpha

    val, _ = dblquad(kernel, -math.pi, math.pi, -math.pi, math.pi,
                     epsabs=0.0, epsrel=1e-11)
    assert oracles.two_circle_cross_energy(alpha, gap) == pytest.approx(val,
                                                                        rel=1e-9)
