"""Reference values for the benchmark's correctness checks.

Everything here is derived and coded apart from `rieszlab`: no import from
the package, so a fault in the program cannot hide in its own oracle.
`test_oracles.py` checks each one at one point against scipy's `quad`.
"""

import math

import numpy as np


def sphere_energy(alpha, radius=1.0):
    """E_alpha of the round 2-sphere: 2^(alpha+5) pi^2 / (alpha+2) r^(alpha+4).

    Archimedes: from a point of the unit sphere the area between chord
    lengths t and t + dt is 2 pi t dt, so the inner integral is
    2 pi 2^(alpha+2) / (alpha+2); the analytic continuation is the
    Hadamard-regularized energy for alpha <= -2.
    """
    a = float(alpha)
    return 2.0 ** (a + 5.0) * math.pi ** 2 / (a + 2.0) * radius ** (a + 4.0)


def circle_energy(alpha, radius=1.0):
    """E_alpha of the round circle: 2 pi 2^(alpha+1) sqrt(pi) G((a+1)/2) / G(a/2+1).

    The chord at angle theta is 2 sin(theta/2), and the integral of
    sin(u)^alpha over [0, pi] is sqrt(pi) G((a+1)/2) / G(a/2+1).
    """
    a = float(alpha)
    return (2.0 * math.pi * 2.0 ** (a + 1.0) * math.sqrt(math.pi)
            * math.gamma((a + 1.0) / 2.0) / math.gamma(a / 2.0 + 1.0)
            * radius ** (a + 2.0))


def two_sphere_cross_energy(alpha, gap, radius=1.0):
    """Cross energy of two round 2-spheres of radius r at the given gap.

    Archimedes' hat-box theorem applied to both spheres (centres L = 2r + gap
    apart) gives, for alpha not in {-2, -3},
    4 pi^2 r^2 / (L (a+2)(a+3)) [(L+2r)^(a+3) - 2 L^(a+3) + gap^(a+3)].
    """
    r, a = float(radius), float(alpha)
    L = 2.0 * r + gap
    return (4.0 * math.pi ** 2 * r ** 2 / (L * (a + 2.0) * (a + 3.0))
            * ((L + 2.0 * r) ** (a + 3.0) - 2.0 * L ** (a + 3.0)
               + gap ** (a + 3.0)))


def orthogonal_sheet_energy(alpha, rho):
    """Closed form of the orthogonal-sheet model, alpha > -4, alpha != -2.

    Integral of (t^2+s^2)^(a/2) (2 pi)^2 t s over [0, rho]^2 in polar
    coordinates: 8 pi^2 rho^(a+4) (sqrt(2)^(a+2) - 1) / ((a+2)(a+4)).
    """
    a = float(alpha)
    return (8.0 * math.pi ** 2 * rho ** (a + 4.0)
            * (math.sqrt(2.0) ** (a + 2.0) - 1.0) / ((a + 2.0) * (a + 4.0)))


def unit_ball_volume(m):
    return math.pi ** (m / 2.0) / math.gamma(m / 2.0 + 1.0)


def annulus_bound_sum(m, alpha, gap, rho0, terms=80):
    """Sum over rho = rho0 / 2^j of the annulus-pair bound lambda(gap, rho).

    lambda = 2^a c1^2 rho^(2m+a) (1 + gap/rho)^a, with c1 = 0.9 (1 - 2^-m)
    Vol(B^m) the volume of the annulus between rho/2 and rho (shrunk by
    0.9) per rho^m.
    """
    c1 = 0.9 * (1.0 - 0.5 ** m) * unit_ball_volume(m)
    total = 0.0
    for j in range(terms):
        rho = rho0 / 2.0 ** j
        total += (2.0 ** alpha * c1 ** 2 * rho ** (2 * m + alpha)
                  * (1.0 + gap / rho) ** alpha)
    return total


def _graded_nodes(length, feature, xg, wg):
    """Gauss-Legendre panels on [0, length], halved toward 0 down to feature."""
    edges = [length]
    while edges[-1] > feature:
        edges.append(0.5 * edges[-1])
    edges.append(0.0)
    hi = np.array(edges[:-1])[:, None]
    lo = np.array(edges[1:])[:, None]
    nodes = 0.5 * (hi - lo) * (xg + 1.0) + lo
    weights = 0.5 * (hi - lo) * wg
    return nodes.ravel(), weights.ravel()


def two_circle_cross_energy(alpha, gap, radius=1.0, order=24):
    """Cross energy of two round circles of radius r at the given gap.

    Angles theta_a, theta_b are measured from the facing points. In the
    coordinates s = (theta_a + theta_b)/2, d = theta_a - theta_b (unit
    Jacobian, and [-pi, pi)^2 is still a period cell) the squared chord is
    (2r + g - 2r cos s cos(d/2))^2 + (2r cos s sin(d/2))^2, even in s and d.
    The kernel concentrates on the diagonal d = 0 near s = 0, with width
    (g + 2r(1 - cos s))/r in d and sqrt(g/r) in s; both directions get
    dyadic Gauss-Legendre panels graded below those widths.
    """
    r, a, g = float(radius), float(alpha), float(gap)
    xg, wg = np.polynomial.legendre.leggauss(order)
    s, ws = _graded_nodes(math.pi, 0.25 * math.sqrt(g / r), xg, wg)
    total = 0.0
    for s_k, w_k in zip(s, ws):
        cs = math.cos(s_k)
        width = (g + 2.0 * r * (1.0 - cs)) / r
        d, wd = _graded_nodes(math.pi, 0.25 * width, xg, wg)
        x = 2.0 * r + g - 2.0 * r * cs * np.cos(0.5 * d)
        y = 2.0 * r * cs * np.sin(0.5 * d)
        total += w_k * float(np.dot(wd, (x * x + y * y) ** (0.5 * a)))
    return 4.0 * r * r * total
