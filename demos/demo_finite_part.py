"""Radial chord densities and Hadamard finite parts on an ellipsoid.

Builds the chord density phi(t) at a few ellipsoid points, shows the
curvature link phi''(0) = pi Delta / 4, and demonstrates the splitting
identity Pf[0, eps0] = Pf[0, eps1] + plain integral over [eps1, eps0].
Each point is a patch stack of one node, so every profile and finite part
is read at index 0.
"""

import math

from scipy.integrate import quad

from rieszlab import (EnergyParams, finite_part, graph_patch_at,
                      make_ellipsoid, radial_profile)
from rieszlab.geometry.patches import umbilicity_defect


def main():
    ell = make_ellipsoid(1.0, 1.0, 1.2)
    print("phi''(0) against the umbilicity defect (pi Delta / 4):")
    for u in ([0.9, 0.3], [1.6, 2.0], [2.2, 4.4]):
        patch = graph_patch_at(ell, [(0, u)], 0.45)
        prof = radial_profile(patch)
        delta = umbilicity_defect(ell.curvatures([(0, u)])[2][0])
        print(f"  point theta={u[0]:.2f} phi={u[1]:.2f}: "
              f"phi''(0) = {2 * prof.taylor[0, 2]:+.6f}   "
              f"pi Delta/4 = {math.pi * delta / 4:+.6f}")

    print("splitting identity at alpha = -4 (pole of the m=2 family):")
    patch = graph_patch_at(ell, [(0, [1.2, 0.8])], 0.5)
    prof = radial_profile(patch)
    params = EnergyParams(-4.0, 2)
    full = finite_part(params, prof, 0.5)
    inner = finite_part(params, prof, 0.3)
    outer, _ = quad(lambda t: t ** -3 * prof.evaluate(t)[0], 0.3, 0.5,
                    epsabs=1e-12)
    print(f"  Pf[0, 0.50]                = {full.value[0]:+.10f}")
    print(f"  Pf[0, 0.30] + int[0.3,0.5] = {inner.value[0] + outer:+.10f}")
    print(f"  log coefficient (pole bookkeeping): "
          f"{full.log_coefficient[0]:+.6f}"
          f"  [= phi''(0)/2 = pi Delta/8 at this point]")


if __name__ == "__main__":
    main()
