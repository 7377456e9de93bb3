import json
import math
from dataclasses import dataclass

import numpy as np
import pytest

from rieszlab.cli import dump_json
from rieszlab.errors import (PoleError, PreconditionError,
                             UnsupportedInputError)
from rieszlab.geometry import (graph_patch_at, icosphere, make_circle,
                               make_disjoint_union, make_ellipsoid,
                               make_sphere)
from rieszlab.geometry.charts import Chart, ChartSurface
from rieszlab.moebius import MoebiusMap, apply_moebius
from rieszlab.radial import (ANGULAR_NODES, _angular_rule, _lobatto_radii,
                             radial_profile)
from rieszlab.riesz import (QuadratureConfig, beta_oracle, beta_residue,
                            finite_part_at_pole, riesz_energy, scaling_check)


@dataclass
class BetaOracle:
    """Reference: the closed-form beta function of a round manifold,
    bound to a radius."""

    tag: str
    radius: float = 1.0

    def __call__(self, z: float) -> float:
        return beta_oracle(self.tag, self.radius, z)

    def residue(self, z: float) -> float:
        return beta_residue(self.tag, self.radius, z)

    def finite_part(self, z: float) -> float:
        return finite_part_at_pole(self.tag, self.radius, z)


# ----------------------------------------------------------------------
# closed-form oracles
# ----------------------------------------------------------------------

def test_circle_oracle_values():
    assert beta_oracle("circle", 1.0, 1.0) == pytest.approx(16 * math.pi,
                                                            rel=1e-14)
    assert beta_oracle("circle", 1.0, -2.0) == pytest.approx(0.0, abs=1e-13)
    assert beta_oracle("circle", 1.0, 0.0) == pytest.approx(4 * math.pi ** 2,
                                                            rel=1e-14)


def test_sphere_oracle_values():
    assert beta_oracle("sphere", 1.0, 0.0) == pytest.approx(16 * math.pi ** 2,
                                                            rel=1e-14)
    assert beta_oracle("sphere", 1.0, -4.0) == pytest.approx(-math.pi ** 2,
                                                             rel=1e-14)


def test_oracle_direct_quadrature_agreement():
    # the closed forms agree with direct double quadrature for z > -m
    from scipy.integrate import quad
    for z in (1.0, 0.3, -0.5):
        direct = 2 * math.pi * quad(
            lambda th: (2 * math.sin(th / 2)) ** z, 0, 2 * math.pi)[0]
        assert beta_oracle("circle", 1.0, z) == pytest.approx(direct, rel=1e-8)
    for z in (1.0, -0.5, -1.5):
        # chord reduction: 2 pi integral_0^2 t^(z+1) dt on the unit sphere
        direct = 4 * math.pi * 2 * math.pi * 2.0 ** (z + 2) / (z + 2)
        assert beta_oracle("sphere", 1.0, z) == pytest.approx(direct, rel=1e-12)


def test_radius_scaling_exponent():
    for r in (0.5, 2.0):
        assert beta_oracle("circle", r, 1.0) == pytest.approx(
            r ** 3 * 16 * math.pi, rel=1e-13)
        assert beta_oracle("sphere", r, -4.0) == pytest.approx(
            -math.pi ** 2, rel=1e-13)   # 2m + alpha = 0


def test_oracle_pole_error_carries_residue():
    with pytest.raises(PoleError) as exc:
        beta_oracle("circle", 1.0, -1.0)
    assert exc.value.residue == pytest.approx(4 * math.pi, rel=1e-12)
    with pytest.raises(PoleError) as exc:
        beta_oracle("sphere", 1.0, -2.0)
    assert exc.value.residue == pytest.approx(8 * math.pi ** 2, rel=1e-12)


def test_finite_part_at_pole_sphere():
    val = finite_part_at_pole("sphere", 1.0, -2.0)
    assert val == pytest.approx(8 * math.pi ** 2 * math.log(2), rel=1e-7)


def test_finite_part_at_pole_circle():
    # Laurent constant of the circle oracle at z = -1 is 8 pi log 2
    # (digamma expansion of the closed form)
    val = finite_part_at_pole("circle", 1.0, -1.0)
    assert val == pytest.approx(8 * math.pi * math.log(2), rel=1e-7)


def test_finite_part_at_pole_rejects_regular_points():
    with pytest.raises(PreconditionError):
        finite_part_at_pole("circle", 1.0, 0.5)
    with pytest.raises(PreconditionError):
        beta_residue("sphere", 1.0, -4.0)


def test_beta_oracle_object():
    oracle = BetaOracle("sphere", 2.0)
    assert oracle(-4.0) == pytest.approx(-math.pi ** 2, rel=1e-13)
    assert oracle.residue(-2.0) == pytest.approx(8 * math.pi ** 2 * 4.0,
                                                 rel=1e-12)


# ----------------------------------------------------------------------
# assembled energies vs oracles
# ----------------------------------------------------------------------

def test_circle_energy_unregularized():
    circ = make_circle()
    for alpha in (1.0, 0.5, -0.5):
        rep = riesz_energy(circ, alpha)
        oracle = beta_oracle("circle", 1.0, alpha)
        assert rep.value == pytest.approx(oracle, rel=1e-6)
        assert rep.value == pytest.approx(rep.near + rep.far, rel=1e-12)
        assert rep.error_estimate >= 0


def test_circle_knot_energy_is_zero():
    rep = riesz_energy(make_circle(), -2.0)
    assert abs(rep.value) < 1e-3
    assert rep.pole_residue is None   # -2 is not in the m=1 pole set


def test_sphere_energy_regularized():
    cfg = QuadratureConfig(outer_scale=0.12, inner_scale=0.5)
    rep = riesz_energy(make_sphere(), -4.0, config=cfg)
    assert rep.value == pytest.approx(-math.pi ** 2, rel=0.01)


@pytest.mark.parametrize("alpha", [-2.5, -3.5, -4.5, -5.5])
def test_circle_energy_below_critical_exponent(alpha):
    # alpha <= -2m, the regime of the self-repulsiveness theorem
    rep = riesz_energy(make_circle(), alpha)
    err = abs(rep.value - beta_oracle("circle", 1.0, alpha))
    assert err <= 1e-7 * abs(rep.value)
    assert err <= rep.error_estimate


@pytest.mark.parametrize("alpha", [-4.5, -5.0, -5.5, -6.0, -7.0])
def test_sphere_energy_below_critical_exponent(alpha):
    # the finer far-field rule leaves the finite part as the error's source
    rep = riesz_energy(make_sphere(), alpha,
                       config=QuadratureConfig(inner_scale=2.0))
    err = abs(rep.value - beta_oracle("sphere", 1.0, alpha))
    assert err <= 1e-8 * abs(rep.value)
    assert err <= rep.error_estimate


def test_sphere_energy_at_pole_matches_continuation():
    cfg = QuadratureConfig(outer_scale=0.15, inner_scale=0.6)
    rep = riesz_energy(make_sphere(), -2.0, config=cfg)
    assert rep.value == pytest.approx(8 * math.pi ** 2 * math.log(2), rel=1e-6)
    assert rep.pole_residue == pytest.approx(8 * math.pi ** 2, rel=1e-8)


def test_eps0_independence():
    circ = make_circle()
    a = riesz_energy(circ, -2.0, config=QuadratureConfig(patch_radius=0.8))
    b = riesz_energy(circ, -2.0, config=QuadratureConfig(patch_radius=0.4))
    tol = a.error_estimate + b.error_estimate + 1e-9
    assert abs(a.value - b.value) <= max(tol, 1e-6)


def test_far_field_symmetry():
    # pairwise true-kernel contribution is symmetric in the two roles
    # the default rule at scale 0.25: 12 x 24 nodes
    sph = make_sphere()
    q = sph.quadrature(0.25)
    d = np.linalg.norm(q.points[:, None] - q.points[None, :], axis=-1)
    np.fill_diagonal(d, 1.0)
    k = d ** -1.0
    np.fill_diagonal(k, 0.0)
    forward = q.weights @ k @ q.weights
    backward = q.weights @ k.T @ q.weights
    assert forward == pytest.approx(backward, rel=1e-13)


def test_mesh_energy_convergence_to_oracle():
    # refining the mesh quadrature halves the error for at least 3 levels
    oracle = beta_oracle("sphere", 1.0, 1.0)
    errors = []
    for subdiv in (1, 2, 3):
        mesh = icosphere(subdiv)
        rep = riesz_energy(mesh, 1.0)
        errors.append(abs(rep.value - oracle))
    assert errors[1] <= 0.5 * errors[0]
    assert errors[2] <= 0.5 * errors[1]


def test_scaling_check_regular():
    circ = make_circle()
    rep = scaling_check(circ, 1.0, 2.0)
    assert rep.exponent == pytest.approx(3.0)
    assert rep.energy_scaled / rep.energy_base == pytest.approx(8.0, rel=1e-6)
    assert rep.passed


def test_scaling_check_scale_invariant_point():
    cfg = QuadratureConfig(outer_scale=0.12, inner_scale=0.5)
    rep = scaling_check(make_sphere(), -4.0, 2.0, config=cfg)
    assert rep.exponent == pytest.approx(0.0)
    assert rep.energy_scaled == pytest.approx(rep.energy_base, rel=0.01)


def test_scaling_check_identity():
    rep = scaling_check(make_circle(), 0.5, 1.0)
    assert rep.energy_scaled == pytest.approx(rep.energy_base, rel=1e-12)


def test_scaling_check_pole_log_coefficient():
    # at a pole the anomaly coefficient equals the beta residue
    cfg = QuadratureConfig(outer_scale=0.12, inner_scale=0.5)
    rep = scaling_check(make_sphere(), -2.0, 2.0, config=cfg)
    assert rep.at_pole
    assert rep.log_lambda_coefficient == pytest.approx(8 * math.pi ** 2,
                                                       rel=1e-5)


def test_report_json_roundtrip():
    rep = riesz_energy(make_circle(), 1.0)
    data = json.loads(dump_json(rep.as_dict()))
    assert data["pole"] is None
    assert data["value"] == pytest.approx(rep.value, rel=1e-15)


def _pad(a, axis):
    """a with one zero appended along axis."""
    width = [(0, 0)] * a.ndim
    width[axis] = (0, 1)
    return np.pad(a, width)


@pytest.mark.parametrize("radius", [None, 0.5])
def test_unsupported_chart_is_refused_at_every_patch_radius(radius):
    # the unit sphere in R^4 has no orthonormal frame rule; with a set
    # patch radius the refusal came out of the patch build as a
    # NumericalError (exit 3) instead of an UnsupportedInputError (exit 4)
    c = make_sphere().charts[0]
    chart = Chart(2, 4, lambda u: _pad(c.value(u), -1),
                  lambda u: _pad(c.jacobian(u), -2),
                  lambda u: _pad(c.hessian(u), -3), c.param_rule)
    surface = ChartSurface(2, 4, [chart], True, 2)
    with pytest.raises(UnsupportedInputError, match=r"got \(4, 2\)"):
        riesz_energy(surface, -4.0,
                     config=QuadratureConfig(patch_radius=radius))


def test_union_energy_is_the_same_with_each_circles_row_fill():
    # the second circle keeps its own row fill in the union; the fill has
    # the bits of value and jacobian, so the energy does not move against
    # a chart of the same maps without it
    union = make_disjoint_union(make_circle(), make_circle(1.0, (2.5, 0.0)))
    assert all(c.both is not None for c in union.charts)
    c = union.charts[1]
    plain = Chart(1, 2, c.value, c.jacobian, c.hessian, c.param_rule)
    without = make_disjoint_union(make_circle(),
                                  ChartSurface(1, 2, [plain], True, 0))
    assert without.charts[1].both is None
    assert (dump_json(riesz_energy(union, -2.5).as_dict())
            == dump_json(riesz_energy(without, -2.5).as_dict()))


def test_inverted_ellipsoid_energy_at_set_patch_radii():
    # some patch rims of this image at radii 0.5 and 1.0 reach points whose
    # pre-images lie beyond the hemisphere of the ellipsoid's unit sphere
    # around the base point's, where chord rows do not converge, also
    # between directions where others do. Each such node's profile must
    # shrink its radius until every one of its chord rows converges and its
    # profile is resolved, and the energy must agree with the default
    # radius's. The outer rule at scale 0.15 has such nodes as the default
    # rule does.
    surface = apply_moebius(make_ellipsoid(1.0, 1.0, 1.2),
                            MoebiusMap("inversion", center=(3.0, 0.2, 0.1),
                                       radius=2.0))
    ref = riesz_energy(surface, -4.0,
                       config=QuadratureConfig(outer_scale=0.15))
    for radius in (0.5, 1.0):
        rep = riesz_energy(surface, -4.0,
                           config=QuadratureConfig(outer_scale=0.15,
                                                   patch_radius=radius))
        assert math.isfinite(rep.value), radius
        assert abs(rep.value - ref.value) <= ref.error_estimate, radius


def _shrunk(radius, times):
    for _ in range(times):
        radius *= 0.85
    return radius


def test_circle_radius_shrinks_below_its_fold():
    # the unit circle's graph over a tangent line folds at chord sqrt(2);
    # its angle chart still solves the chord rows beyond the fold, so the
    # fold check alone shrinks every radius of 1.5 once, and the energy
    # keeps its closed form
    rep = riesz_energy(make_circle(), -2.5,
                       config=QuadratureConfig(patch_radius=1.5))
    assert rep.eps0 == pytest.approx(_shrunk(1.5, 1), rel=1e-15)
    assert (abs(rep.value - beta_oracle("circle", 1.0, -2.5))
            <= rep.error_estimate)


def test_two_spheres_radius_shrinks_below_the_fold():
    # two unit spheres at gap 0.05: a requested radius of 1.9 reaches past
    # each sphere's fold at chord sqrt(2), where the chord rows do not
    # converge, and shrinks twice to 1.37275; the energy agrees with the
    # default radius's
    two = make_disjoint_union(make_sphere(1.0),
                              make_sphere(1.0, center=(2.05, 0.0, 0.0)))
    ref = riesz_energy(two, -4.0)
    rep = riesz_energy(two, -4.0, config=QuadratureConfig(patch_radius=1.9))
    assert rep.eps0 == pytest.approx(_shrunk(1.9, 2), rel=1e-15)
    assert rep.eps0 < math.sqrt(2.0)
    assert abs(rep.value - ref.value) <= ref.error_estimate


def test_profile_resolution_shrinks_a_radius_whose_rows_converge():
    # the ellipsoid (1, 1, 2) at a requested radius of 3.0: every chord row
    # of outer node 103's 65-point rule converges at 3.0 * 0.85^5 = 1.331,
    # but its profile is resolved only at 1.131; the energy agrees with the
    # default radius's
    ell = make_ellipsoid(1.0, 1.0, 2.0)
    stack = graph_patch_at(ell, [ell.nodes(0.25).locators[103]], 3.0)
    v = np.repeat(_angular_rule(2, ANGULAR_NODES)[0], 64, axis=0)
    t = np.tile(_lobatto_radii(64, np.array([_shrunk(3.0, 5)]))[0, 1:], 64)
    stack.chord_solve(np.zeros(len(t), dtype=int), v, t)
    assert radial_profile(stack).eps0[0] == _shrunk(3.0, 6)
    ref = riesz_energy(ell, -4.0)
    rep = riesz_energy(ell, -4.0, config=QuadratureConfig(patch_radius=3.0))
    assert abs(rep.value - ref.value) <= ref.error_estimate
