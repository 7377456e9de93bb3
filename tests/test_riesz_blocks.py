"""The blocked Riesz energy pass against a per-node reference.

`_per_node_energy` is the per-node assembly rebuilt from public calls on
stacks of one node (`graph_patch_at`, `radial_profile`, `finite_part`) and
direct kernel sums over the inner rules; `riesz_energy` takes the outer
nodes in blocks and must reproduce it.
"""

import dataclasses
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

import rieszlab
from rieszlab import (QuadratureConfig, icosphere, make_circle,
                      make_disjoint_union, make_ellipsoid, make_sphere,
                      riesz_energy)
from rieszlab.errors import (NumericalError, PatchRadiusError,
                             ProfileFitError)
from rieszlab.geometry import NodeSet, default_patch_radius, graph_patch_at
from rieszlab.quadrature import BlendKernel
from rieszlab.radial import EnergyParams, finite_part, radial_profile
from rieszlab.riesz import _kernel_sums as blocked_kernel_sums


def _kernel_sums(nodes, x, comp, alpha, blend, eps):
    d = np.linalg.norm(nodes.points - x, axis=-1)
    same = nodes.component == comp
    w = nodes.weights
    in_ball = d < eps
    with np.errstate(divide="ignore"):
        kernel = np.where(d > 0, d, 1.0) ** alpha
    return (float(np.sum(w[~in_ball] * kernel[~in_ball])),
            float(np.sum(w[in_ball & same] * blend(d[in_ball & same]))),
            float(np.sum(w[in_ball & ~same] * kernel[in_ball & ~same])))


@pytest.mark.parametrize("alpha", [-4.0, -2.5])
def test_kernel_sums_equal_the_dense_blend_reference(alpha):
    # the blend polynomial, evaluated only in the same-component balls,
    # against the dense kernel over every (outer, inner) pair: bit for bit,
    # with a coincident node (d = 0) and in-ball pairs on another component
    rng = np.random.default_rng(3)
    points = rng.normal(size=(40, 3))
    component = (np.arange(40) % 3 == 0).astype(int)
    inner = NodeSet(points=points, weights=rng.uniform(0.5, 1.5, 40),
                    component=component, volume=1.0)
    x = np.concatenate([points[:2], points[:4] + 1e-3 * rng.normal(size=(4, 3)),
                        rng.normal(size=(3, 3))])
    comp = np.array([0, 1, 1, 0, 0, 1, 0, 1, 0])
    eps = rng.uniform(0.5, 1.2, len(x))
    blend = BlendKernel(alpha, eps)
    d = np.sqrt(sum((y[None] - c[:, None]) ** 2
                    for y, c in zip(points.T, x.T)))
    in_ball = d < eps[:, None]
    same = component[None] == comp[:, None]
    assert (d == 0).any() and (in_ball & ~same).any()
    with np.errstate(divide="ignore"):
        kernel = np.where(d > 0, d, 1.0) ** alpha
    w = inner.weights
    expected = (np.where(in_ball, 0.0, kernel) @ w,
                np.where(in_ball & same, blend(d), 0.0) @ w,
                np.where(in_ball & ~same, kernel, 0.0) @ w)
    for got, ref in zip(blocked_kernel_sums(inner, x, comp, blend), expected):
        assert np.array_equal(got, ref)


def _per_node_energy(surface, alpha, config):
    m = surface.m
    params = EnergyParams(alpha, m)
    outer = surface.nodes(config.outer_scale)
    inner = surface.nodes(config.inner_scale, subdiv=config.mesh_inner_subdiv)
    inner_half = surface.nodes(config.inner_scale * 0.5,
                               subdiv=max(config.mesh_inner_subdiv - 1, 0))
    requested = config.patch_radius or default_patch_radius(surface)
    near, far, err, logc, eps_used = [], [], [], [], []
    for i, loc in enumerate(outer.locators):
        patch = graph_patch_at(surface, [loc], requested)
        eps = patch.radius
        profile = radial_profile(patch, eps)
        pf = finite_part(params, profile, eps)
        blend = BlendKernel(alpha, eps)
        weight = np.zeros(m + 2 * len(blend.coeffs) - 2)     # t^(m-1) p(t)
        weight[m - 1::2] = blend.coeffs
        corr = P.polyval(eps, P.polyint(np.convolve(weight,
                                                    profile.taylor[0])))
        corr_err = (profile.kept[0] * profile.fit_residual[0]
                    * P.polyval(eps, P.polyint(np.abs(weight))))
        x, comp = outer.points[i], outer.component[i]
        far_i, ball, cross = _kernel_sums(inner, x, comp, alpha, blend, eps)
        rule = abs(far_i + ball + cross
                   - sum(_kernel_sums(inner_half, x, comp, alpha, blend, eps)))
        near.append(pf.value[0] + ball - corr)
        far.append(far_i + cross)
        err.append(pf.error_estimate[0] + corr_err + rule)
        logc.append(pf.log_coefficient[0])
        eps_used.append(eps)
    w = outer.weights
    near, far = np.array(near), np.array(far)
    return {"value": math.fsum(w * (near + far)), "near": math.fsum(w * near),
            "far": math.fsum(w * far), "error_estimate": math.fsum(w * err),
            "residue": math.fsum(w * logc), "eps": np.array(eps_used)}


def _two_spheres():
    # gap 0.05 and a requested radius of 1.5: every patch shrinks
    return make_disjoint_union(
        make_sphere(1.0, base_nodes=(24, 48)),
        make_sphere(1.0, center=(2.05, 0.0, 0.0), base_nodes=(24, 48),
                    component=1))


CASES = {
    "ellipsoid_a-4": (lambda: make_ellipsoid(1.0, 1.0, 1.2), -4.0,
                      QuadratureConfig(outer_scale=0.15, inner_scale=0.6)),
    "circle_a-4.5": (make_circle, -4.5, QuadratureConfig()),
    "two_spheres_shrunk": (_two_spheres, -4.0,
                           QuadratureConfig(inner_scale=0.5, patch_radius=1.5)),
    "icosphere2_a-2.5": (lambda: icosphere(2), -2.5, QuadratureConfig()),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_blocked_pass_matches_per_node_reference(name):
    build, alpha, config = CASES[name]
    surface = build()
    ref = _per_node_energy(surface, alpha, config)
    rep = riesz_energy(surface, alpha, config=config)
    for key in ("value", "near", "far", "error_estimate"):
        assert getattr(rep, key) == pytest.approx(ref[key], rel=1e-12), key
    assert rep.eps0 == pytest.approx(float(np.mean(ref["eps"])), rel=1e-15)
    if rep.pole_residue is not None:
        assert rep.pole_residue == pytest.approx(ref["residue"], rel=1e-12,
                                                 abs=1e-12)
    if name == "two_spheres_shrunk":
        assert ref["eps"].max() < 1.5 * 0.85 ** 2


def test_threads_map_blocks_to_the_same_energy():
    config = QuadratureConfig(outer_scale=0.15, inner_scale=0.6)
    one = riesz_energy(make_sphere(), -4.0, config=config)
    two = riesz_energy(make_sphere(), -4.0,
                       config=dataclasses.replace(config, threads=2))
    assert one == two


def test_profile_stack_refines_only_the_nodes_that_need_it():
    # on the ellipsoid (1, 1, 2) some profiles need 33 Lobatto points
    ell = make_ellipsoid(1.0, 1.0, 2.0)
    locators = ell.nodes(0.25).locators
    radius = default_patch_radius(ell)
    levels = [len(p.samples[0]) for p in (
        radial_profile(graph_patch_at(ell, [loc], radius)) for loc in locators)]
    fine = levels.index(33)
    coarse = [i for i, n in enumerate(levels) if n == 17][:2]
    stack = graph_patch_at(ell, [locators[i] for i in [coarse[0], fine,
                                                       coarse[1]]], radius)
    profiles = radial_profile(stack)
    assert [len(v) for v in profiles.samples] == [17, 33, 17]
    for k, i in enumerate([coarse[0], fine, coarse[1]]):
        one = radial_profile(graph_patch_at(ell, [locators[i]], radius))
        np.testing.assert_allclose(profiles.samples[k], one.samples[0],
                                   rtol=1e-15, atol=0)
        taylor = profiles.taylor[k, :one.taylor.shape[1]]
        np.testing.assert_allclose(taylor, one.taylor[0], rtol=1e-14,
                                   atol=1e-14 * np.abs(one.taylor).max())
        assert not profiles.taylor[k, one.taylor.shape[1]:].any()


def _spoiled(mesh, vertex, kind):
    """mesh whose patch stacks fail at one vertex: the patch itself, its
    chord solve, or its profile (noisy chord rows)."""
    build = mesh.patches_at

    def patches_at(locators, radius, shrink=True):
        stack = build(locators, radius, shrink)
        if vertex not in locators:
            return stack
        k = list(locators).index(vertex)
        if kind == "patch":
            raise PatchRadiusError("graph-patch Newton did not converge", node=k)
        solve = stack.chord_solve

        def chord_solve(node, v, t):
            if kind == "chord" and np.any(node == k):
                raise NumericalError("chord Newton did not converge on 1 rows",
                                     node=k)
            xi, h, dh = solve(node, v, t)
            noise = np.where(node == k, 1e-6 * np.sin(1e3 * t), 0.0)
            return xi * (1.0 + noise), h, dh

        return dataclasses.replace(stack, chord_solve=chord_solve)

    mesh.patches_at = patches_at
    return mesh


@pytest.mark.parametrize("kind,error", [("patch", NumericalError),
                                        ("chord", NumericalError),
                                        ("profile", ProfileFitError)])
def test_failures_name_the_outer_node(kind, error):
    vertex = 100                      # the fifth node of the fourth block
    mesh = _spoiled(icosphere(2), vertex, kind)
    with pytest.raises(error, match=f"outer node {vertex} ") as exc:
        riesz_energy(mesh, -2.5)
    assert exc.value.node == vertex


def test_import_and_chart_energy_load_no_scipy():
    src = Path(rieszlab.__file__).resolve().parents[1]
    code = ("import sys, rieszlab\n"
            "rieszlab.riesz_energy(rieszlab.make_circle(), -2.5)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={"PYTHONPATH": str(src)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
