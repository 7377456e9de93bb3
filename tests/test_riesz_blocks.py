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
import tracemalloc
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
from rieszlab import riesz
from rieszlab.quadrature import PAIR_BLOCK, BlendKernel, PairPass
from rieszlab.radial import EnergyParams, finite_part, radial_profile
from rieszlab.riesz import _block_size, _kernel_power
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


def _kernel_sum_case(seed, n_inner, near, far, alpha):
    """two inner rules, on two components each: the first of n_inner nodes,
    the second of 333; outer nodes on the first rule's nodes and on the
    second's (d = 0), near some more and far away (no node in their balls);
    random ball radii"""
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n_inner, 3))
    x = np.concatenate([points[:2],
                        points[:near] + 1e-3 * rng.normal(size=(near, 3)),
                        rng.normal(size=(far, 3)) + (20.0, 0.0, 0.0)])
    second = np.concatenate([x[2:3], rng.normal(size=(332, 3))])
    rules = tuple(NodeSet(points=p, weights=rng.uniform(0.5, 1.5, len(p)),
                          component=(np.arange(len(p)) % 3 == 0).astype(int),
                          volume=1.0) for p in (points, second))
    return rules, x, BlendKernel(alpha, rng.uniform(0.5, 1.2, len(x)))


def _dense_kernel_sums(rule, x, comp, blend):
    """(far, ball, cross) of one rule as dense products over the block, on
    the squared distances s as the pair pass forms them: the kernel
    s^(alpha/2) of `_kernel_power`, 1 at coincident nodes, and the blend
    polynomial by Horner in s"""
    s = sum((y[None] - c[:, None]) ** 2 for y, c in zip(rule.points.T, x.T))
    in_ball = s < blend.eps[:, None] ** 2
    same = rule.component[None] == comp[:, None]
    assert (s == 0).any()
    kernel = _kernel_power(np.where(s > 0, s, 1.0), 0.5 * blend.alpha,
                           np.empty_like(s))
    poly = np.zeros_like(s)
    for c in blend.coeffs.T[::-1]:
        poly = poly * s + c[:, None]
    w = rule.weights
    return (np.where(in_ball, 0.0, kernel) @ w,
            np.where(in_ball & same, poly, 0.0) @ w,
            np.where(in_ball & ~same, kernel, 0.0) @ w)


def _distance_kernel_sums(rule, x, comp, blend):
    """(far, ball, cross) of one rule in the distance form: d^alpha and
    blend(d) on d = |y - x|"""
    d = np.linalg.norm(rule.points[None] - x[:, None], axis=-1)
    in_ball = d < blend.eps[:, None]
    same = rule.component[None] == comp[:, None]
    with np.errstate(divide="ignore"):
        kernel = np.where(d > 0, d, 1.0) ** blend.alpha
    w = rule.weights
    return (np.where(in_ball, 0.0, kernel) @ w,
            np.where(in_ball & same, blend(d), 0.0) @ w,
            np.where(in_ball & ~same, kernel, 0.0) @ w)


def _kernel_sum_blocks(alpha):
    """a block of 9 rows and one of 23, each on two rules with a coincident
    node and in-ball pairs on another component, and their components"""
    small = (_kernel_sum_case(3, 41, 4, 3, alpha),
             np.array([0, 1, 1, 0, 0, 1, 0, 1, 0]))
    large = _kernel_sum_case(5, 2999, 14, 7, alpha), np.arange(23) % 2
    return small, large


@pytest.mark.parametrize("alpha", [-2.0, -2.5, -4.0, -6.0])
def test_kernel_sums_equal_the_dense_blend_reference(alpha):
    # one pass over two rules side by side against the dense kernel over
    # every (outer, inner) pair of each rule: bit for bit, with a
    # coincident node (s = 0) and in-ball pairs on another component in
    # each rule, a second rule 333 columns wide at an odd column offset
    # (41 and 2999) and blocks of 9 and 23 rows. The large block has more
    # than 2 PAIR_BLOCK pairs: its rows go in chunks of 4, 4, 4, 4, 4 and 3,
    # and the last two chunks, far away, have no cross-component pair in a
    # ball. One rule alone is the one-part case. alpha/2 = -1, -2 and -3
    # take one division after no product, a square and a square and a
    # product; -1.25 takes np.power.
    small, large = _kernel_sum_blocks(alpha)
    assert len(large[1]) * 3332 > 2 * PAIR_BLOCK
    for (rules, x, blend), comp in (small, large):
        expected = [_dense_kernel_sums(rule, x, comp, blend) for rule in rules]
        assert all(cross.any() for _, _, cross in expected)
        if len(x) == 23:
            assert not any(cross[16:].any() for _, _, cross in expected)
        for part in (slice(0, 2), slice(0, 1), slice(1, 2)):
            got = blocked_kernel_sums(rules[part], x, comp, blend)
            assert got.shape == (len(expected[part]), 3, len(x))
            for sums, ref in zip(got, expected[part]):
                for a, b in zip(sums, ref):
                    assert np.array_equal(a, b)


@pytest.mark.parametrize("alpha", [-2.0, -2.5, -4.0, -6.0])
def test_kernel_sums_match_the_distance_form(alpha):
    # the squared-distance pass against d^alpha and blend(d) on
    # d = np.linalg.norm(y - x): each sum within 1e-14 of the largest sum
    # of its kind (far, ball, cross) in its rule
    for (rules, x, blend), comp in _kernel_sum_blocks(alpha):
        got = blocked_kernel_sums(rules, x, comp, blend)
        for sums, rule in zip(got, rules):
            for a, b in zip(sums, _distance_kernel_sums(rule, x, comp, blend)):
                np.testing.assert_allclose(a, b, rtol=0,
                                           atol=1e-14 * np.abs(b).max())


@pytest.mark.parametrize("alpha", [-2.5, -4.0])
def test_one_component_block_has_no_cross_sums(alpha):
    # every row and column on one component: no pair is cross-component,
    # the cross sums are exact zeros and the far and ball sums are the
    # dense reference's, bit for bit
    (rules, x, blend), comp = _kernel_sum_blocks(alpha)[1]
    rules = tuple(dataclasses.replace(rule, component=np.zeros(
        len(rule.points), dtype=int)) for rule in rules)
    comp = np.zeros(len(x), dtype=int)
    got = blocked_kernel_sums(rules, x, comp, blend)
    assert not got[:, 2].any()
    for sums, rule in zip(got, rules):
        ref = _dense_kernel_sums(rule, x, comp, blend)
        assert np.array_equal(sums[0], ref[0])
        assert np.array_equal(sums[1], ref[1])
        assert not ref[2].any()


def _sphere_block():
    """The default sphere's first outer block at alpha = -4: its inner rules
    (scales 1 and 0.5), points, components and blend kernel."""
    sphere = make_sphere()
    outer = sphere.nodes(0.25)
    rules = sphere.nodes(1.0), sphere.nodes(0.5)
    size = _block_size(2, sum(len(rule.points) for rule in rules))
    patches = graph_patch_at(sphere, outer.locators[:size],
                             default_patch_radius(sphere))
    return (rules, outer.points[:size], outer.component[:size],
            BlendKernel(-4.0, patches.radii))


def _traced_peak(call):
    call()                            # caches and rules of a first call
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kernel_sums_run_in_cache_sized_chunks():
    # 32 outer rows x (4608 + 1152) inner nodes: every (rows, N) temporary
    # of the whole block would be 1.5 MB
    rules, x, comp, blend = _sphere_block()
    assert x.shape == (32, 3)
    assert [len(rule.points) for rule in rules] == [4608, 1152]
    peak = _traced_peak(lambda: blocked_kernel_sums(rules, x, comp, blend))
    assert peak <= 2 * 2 ** 20


def test_sphere_energy_takes_one_pair_pass_per_block(monkeypatch):
    # the default sphere's 288 outer nodes go in 9 blocks, and each block's
    # kernel sums over both inner rules are one pass
    passes = []

    class Counted(PairPass):
        def __init__(self, *args):
            passes.append(len(args[1]))
            super().__init__(*args)

    monkeypatch.setattr(riesz, "PairPass", Counted)
    riesz_energy(make_sphere(), -4.0)
    assert passes == [4608 + 1152] * 9


def test_sphere_energy_runs_in_bounded_memory():
    sphere = make_sphere()
    assert _traced_peak(lambda: riesz_energy(sphere, -4.0)) <= 7 * 2 ** 20


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
        profile = radial_profile(graph_patch_at(surface, [loc], requested))
        eps = profile.eps0[0]
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
    # gap 0.05 and a requested radius of 1.5: every patch shrinks once, as
    # the unit sphere's graph folds at chord sqrt(2)
    return make_disjoint_union(make_sphere(1.0),
                               make_sphere(1.0, center=(2.05, 0.0, 0.0)))


CASES = {
    "ellipsoid_a-4": (lambda: make_ellipsoid(1.0, 1.0, 1.2), -4.0,
                      QuadratureConfig(outer_scale=0.15, inner_scale=0.6)),
    "circle_a-4.5": (make_circle, -4.5, QuadratureConfig()),
    # the default sphere rule at half scale: 6 x 12 outer, 12 x 24 inner
    # and 6 x 12 half-inner nodes
    "two_spheres_shrunk": (_two_spheres, -4.0,
                           QuadratureConfig(outer_scale=0.125,
                                            inner_scale=0.25,
                                            patch_radius=1.5)),
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
        np.testing.assert_array_equal(ref["eps"], 1.5 * 0.85)


def test_threads_map_blocks_to_the_same_energy():
    # the default config takes the sphere's 288 outer nodes in 9 blocks of
    # one patch stack
    for config in (QuadratureConfig(outer_scale=0.15, inner_scale=0.6),
                   QuadratureConfig()):
        one = riesz_energy(make_sphere(), -4.0, config=config)
        two = riesz_energy(make_sphere(), -4.0,
                           config=dataclasses.replace(config, threads=2))
        assert one == two, config


def test_block_profiles_from_the_call_wide_stack_match_a_block_stack():
    # riesz_energy builds one stack for all outer nodes and profiles each
    # block's nodes of it; on the ellipsoid (1, 1, 2), whose profiles and
    # radii differ from node to node and those near the poles refine to 33
    # points, the last block must profile as a stack built from its nodes
    # alone
    ell = make_ellipsoid(1.0, 1.0, 2.0)
    outer = ell.nodes(0.25)
    radius = default_patch_radius(ell)
    size = _block_size(2, len(ell.nodes(1.0).points)
                       + len(ell.nodes(0.5).points))
    idx = np.arange(len(outer.points) - size, len(outer.points))
    stack = graph_patch_at(ell, outer.locators, radius)
    alone = graph_patch_at(ell, [outer.locators[i] for i in idx], radius)
    block = stack.take(idx)
    for field in ("base_point", "tangent", "normal", "radii"):
        np.testing.assert_array_equal(getattr(block, field),
                                      getattr(alone, field))
    got, want = radial_profile(block), radial_profile(alone)
    assert {len(s) for s in want.samples} == {17, 33}
    for a, b in zip(got.samples, want.samples):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(got.taylor, want.taylor)
    np.testing.assert_array_equal(got.kept, want.kept)


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
    chord solve at every radius, or its profile at every radius: chord
    rows with noise periodic in log t, the same at every radius up to its
    phase, so that no shrink resolves it (the profile sees the noise of xi
    damped by about (t |kappa|)^2, as xi / dxi/dt cancels it to first
    order)."""
    build = mesh.patches_at

    def patches_at(locators, radius):
        stack = build(locators, radius)
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
            noise = np.where(node == k, 1e-3 * np.sin(50.0 * np.log(t)), 0.0)
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
