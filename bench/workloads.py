"""The benchmark's workloads: seeded inputs, timed operations and checks.

Each workload builds its inputs from the seed (`build`), then lists its
operations (`ops`). An operation is one call into rieszlab's public API;
its check runs after the pass, untimed, against the oracles in
`oracles.py` or against properties the method guarantees. Every pass
attempts the same operations, so the share of failed ones does not depend
on the run length.

Operations named in KNOWN_FAULTS fail on every pass because of a fault in
the program, on inputs that do not depend on the seed; they count as
failed without making the run incorrect.
"""

import math
import statistics
from dataclasses import dataclass

import numpy as np

import oracles
import rieszlab


@dataclass
class Op:
    name: str
    fn: object            # (results so far in the pass) -> result, timed
    check: object         # (result, results of the pass) -> (ok, detail)


@dataclass
class Workload:
    name: str
    build: object         # seed -> inputs
    ops: object           # inputs -> [Op]
    named: object         # (times by op, results by op) -> {metric: seconds}
    primary: str          # named metric reported as primary_s
    secondary: str        # named metric reported as secondary_s


# The circle operations are short, so each pass repeats them; their metric
# is the median over the repeats.
CIRCLE_REPEATS = 3

KNOWN_FAULTS = {
    # riesz_energy of the round circle at alpha = -4.5 returns -14.531
    # against the closed form +0.6934 (error estimate 2.1e-3).
    *(f"circle_riesz_a-4.5_r{k}" for k in range(1, CIRCLE_REPEATS + 1)),
    # two_body_sweep(m=1) reads sphere_pair_cross_energy at order=16, which
    # under-resolves gaps <= 1e-3 (2.4e-3 relative at alpha = -3).
    "sweep_m1_a-2",
    "sweep_m1_a-3",
}


def _config():
    return rieszlab.QuadratureConfig(threads=1)


def _rel(value, reference):
    return abs(value - reference) / abs(reference)


def _rel_check(value, reference, tol):
    rel = _rel(value, reference)
    return rel <= tol, f"value {value:.12g} vs {reference:.12g}, rel {rel:.2e} (tol {tol:g})"


# ----------------------------------------------------------------------
# chart_riesz
# ----------------------------------------------------------------------

def _chart_riesz_build(seed):
    rng = np.random.default_rng(seed)
    # E_alpha is translation invariant: the seed moves the sphere only
    return {"sphere": rieszlab.make_sphere(1.0, center=rng.uniform(-0.5, 0.5, 3)),
            "circle": rieszlab.make_circle()}


def _chart_riesz_ops(inp):
    def circle(alpha, k):
        return Op(f"circle_riesz_a{alpha:g}_r{k}",
                  lambda _: rieszlab.riesz_energy(inp["circle"], alpha,
                                                  config=_config()),
                  lambda rep, _: _rel_check(rep.value,
                                            oracles.circle_energy(alpha), 1e-6))

    return [
        Op("sphere_e4",
           lambda _: rieszlab.riesz_energy(inp["sphere"], -4.0, config=_config()),
           lambda rep, _: _rel_check(rep.value, oracles.sphere_energy(-4.0), 1e-6)),
        *(circle(alpha, k) for k in range(1, CIRCLE_REPEATS + 1)
          for alpha in (-2.5, -4.5)),
    ]


def _chart_riesz_named(t, _):
    circles = [t[f"circle_riesz_a-2.5_r{k}"] + t[f"circle_riesz_a-4.5_r{k}"]
               for k in range(1, CIRCLE_REPEATS + 1)]
    return {"sphere_e4_s": t["sphere_e4"],
            "circle_riesz_s": statistics.median(circles)}


# ----------------------------------------------------------------------
# ks_static
# ----------------------------------------------------------------------

def _rotation(rng):
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _ks_static_build(seed):
    rng = np.random.default_rng(seed)
    rot = _rotation(rng)
    shift = rng.uniform(-0.5, 0.5, 3)

    def stretched(subdiv):
        mesh = rieszlab.icosphere(subdiv)
        # KS energy is invariant under the seeded rigid motion
        return mesh.with_vertices((mesh.vertices * [1.0, 1.0, 1.2]) @ rot.T
                                  + shift)

    return {
        "ico2": stretched(2),
        "ico3": stretched(3),
        "similarity": rieszlab.MoebiusMap("similarity", scale=2.0,
                                          center=rng.uniform(-1.0, 1.0, 3)),
        "ellipsoid": rieszlab.make_ellipsoid(
            1.0, 1.0, 1.2, center=rng.uniform(-0.1, 0.1, 3)),
        "inversion": rieszlab.MoebiusMap("inversion", center=(3.0, 0.2, 0.1),
                                         radius=2.0),
    }


def _mesh_error(value, results):
    chart = results.get("ks_chart_invariance")
    if chart is None:
        return None
    return _rel(value, chart.energy_original)


def _check_ks_positive(rep, _):
    return rep.value > 0 and math.isfinite(rep.value), f"value {rep.value:.12g}"


def _check_ks_similarity(rep, results):
    base = results.get("ks_ico2")
    if base is None:
        return False, "no icosphere(2) value to compare with"
    return _rel_check(rep.value, base.value, 1e-12)


def _check_ks_refinement(rep, results):
    err3 = _mesh_error(rep.value, results)
    base = results.get("ks_ico2")
    if err3 is None or base is None:
        return False, "no chart or icosphere(2) value to compare with"
    err2 = _mesh_error(base.value, results)
    ok = rep.value > 0 and err3 < err2 and err3 <= 0.10
    return ok, f"error vs chart: icosphere(2) {err2:.3f}, icosphere(3) {err3:.3f}"


def _check_invariance(rep, _):
    ok = (rep.rel_difference <= 1e-6 and rep.energy_original > 0
          and rep.energy_transformed > 0)
    return ok, (f"E {rep.energy_original:.8g}, image {rep.energy_transformed:.8g}, "
                f"rel {rep.rel_difference:.2e}")


def _ks_static_ops(inp):
    return [
        Op("ks_ico2", lambda _: rieszlab.ks_energy(inp["ico2"], config=_config()),
           _check_ks_positive),
        Op("ks_ico2_similarity",
           lambda _: rieszlab.ks_energy(
               rieszlab.apply_moebius(inp["ico2"], inp["similarity"]),
               config=_config()),
           _check_ks_similarity),
        Op("ks_ico3", lambda _: rieszlab.ks_energy(inp["ico3"], config=_config()),
           _check_ks_refinement),
        Op("ks_chart_invariance",
           lambda _: rieszlab.moebius_invariance_check(
               inp["ellipsoid"], inp["inversion"], config=_config(),
               refine=False),
           _check_invariance),
    ]


def _ks_static_named(t, _):
    return {"ks_mesh_s": t["ks_ico2"] + t["ks_ico2_similarity"] + t["ks_ico3"],
            "ks_chart_s": t["ks_chart_invariance"]}


# ----------------------------------------------------------------------
# ks_flow
# ----------------------------------------------------------------------

FLOW_STEPS = 4
GRADIENT_REPEATS = 3
FLOW_STEP_SIZE = 1e-2


def _ks_flow_build(seed):
    rng = np.random.default_rng(seed)
    mesh = rieszlab.icosphere(1)
    factor = 1.0 + rng.uniform(-0.05, 0.05, (mesh.num_vertices, 1))
    return {"mesh": mesh.with_vertices(mesh.vertices * factor)}


def _flow_state(inp):
    return rieszlab.FlowState(mesh=inp["mesh"], step_size=FLOW_STEP_SIZE)


def _check_gradient(grad, _):
    total = float(np.linalg.norm(grad.sum(axis=0)))
    norm = float(np.linalg.norm(grad))
    ok = np.all(np.isfinite(grad)) and norm > 0 and total <= 1e-6 * norm
    return ok, f"|sum grad| {total:.2e}, |grad| {norm:.3e}"


def _check_flow_step(k):
    def check(state, _):
        energies = [p.energy for p in state.trajectory]
        ok = (state.iteration == k and not state.stationary
              and energies[-1] < energies[-2])
        detail = f"step {k}: energy {energies[-2]:.6g} -> {energies[-1]:.6g}"
        if k == FLOW_STEPS:
            decreasing = all(b < a for a, b in zip(energies, energies[1:]))
            ok = ok and decreasing and energies[-1] < 0.5 * energies[0]
            detail = (f"{state.iteration} of {FLOW_STEPS} steps accepted, "
                      f"energy {energies[0]:.6g} -> {energies[-1]:.6g}")
        return ok, detail
    return check


def _ks_flow_ops(inp):
    # run_flow(state, 1) applied FLOW_STEPS times does the work of
    # run_flow(state, FLOW_STEPS); one call per step lets each step be timed
    # against the machine speed of its own moment (see speed.py)
    ops = [Op(f"energy_gradient_r{k}",
              lambda _: rieszlab.energy_gradient(_flow_state(inp)),
              _check_gradient) for k in range(1, GRADIENT_REPEATS + 1)]
    for k in range(1, FLOW_STEPS + 1):
        prev = f"run_flow_step{k - 1}"
        ops.append(Op(f"run_flow_step{k}",
                      lambda res, prev=prev: rieszlab.run_flow(
                          res.get(prev) or _flow_state(inp), 1),
                      _check_flow_step(k)))
    return ops


def _ks_flow_named(t, results):
    state = results.get(f"run_flow_step{FLOW_STEPS}")
    accepted = getattr(state, "iteration", 0)
    gradient = statistics.median(t[f"energy_gradient_r{k}"]
                                 for k in range(1, GRADIENT_REPEATS + 1))
    steps = sum(t[f"run_flow_step{k}"] for k in range(1, FLOW_STEPS + 1))
    return {"flow_step_s": (gradient + steps) / max(accepted, 1),
            "gradient_s": gradient}


# ----------------------------------------------------------------------
# degeneration
# ----------------------------------------------------------------------

M2_ALPHAS = (-4.0, -5.0, -6.0)
M1_ALPHAS = (-2.0, -3.0)
M1_GAPS = tuple(np.geomspace(0.1, 1e-3, 7))
TANGENT_ALPHAS = (-2.5, -3.0, -4.0)
CONE_ALPHAS = (-3.5, -4.0, -5.0)
ORTHO_FINITE = tuple((a, rho) for a in (-3.5, -3.0, -1.0, 0.0)
                     for rho in (0.5, 1.0))
ORTHO_DIVERGENT = (-4.0, -5.0)

_two_circle_cache = {}


def _two_circle(alpha, gap):
    key = (alpha, gap)
    if key not in _two_circle_cache:
        _two_circle_cache[key] = oracles.two_circle_cross_energy(alpha, gap)
    return _two_circle_cache[key]


def _degeneration_build(seed):
    rng = np.random.default_rng(seed)
    ladder = np.geomspace(0.1, 1e-4, 10)
    # interior rungs move by up to 10%; the ladder stays strictly decreasing
    ladder[1:-1] *= np.exp(rng.uniform(-0.1, 0.1, len(ladder) - 2))
    return {"m2_gaps": ladder, "m1_gaps": np.array(M1_GAPS)}


def _check_sweep(alpha, oracle, tol, bound):
    def check(res, _):
        ref = np.array([oracle(alpha, g) for g in res.gaps])
        rel = float(np.max(np.abs(res.energies - ref) / np.abs(ref)))
        ok = rel <= tol
        detail = f"max rel vs oracle {rel:.2e} (tol {tol:g})"
        if bound:
            lam = np.array([oracles.annulus_bound_sum(2, alpha, g,
                                                      min(res.radius, 1.0))
                            for g in res.gaps])
            dominates = bool(np.all(res.energies >= lam))
            ok = ok and dominates
            detail += f", dominates lambda sum: {dominates}"
        return ok, detail
    return check


def _check_law(alpha, exponent):
    expected = "finite" if exponent > 0 else "log" if exponent == 0 else "power"

    def check(fit, _):
        ok = fit.law == expected
        if expected == "power":
            ok = ok and abs(fit.exponent - exponent) <= 0.1
        return ok, f"law {fit.law} exponent {fit.exponent:.4f} (expected {expected} {exponent:g})"
    return check


def _check_orthogonal(alpha, rho):
    def check(res, _):
        if res.diverged:
            return False, "diverged flag set on a finite case"
        return _rel_check(res.value, oracles.orthogonal_sheet_energy(alpha, rho),
                          5e-3)
    return check


def _check_divergent(res, _):
    return bool(res.diverged), f"diverged {res.diverged}"


def _degeneration_ops(inp):
    ops = []
    for a in M2_ALPHAS:
        ops.append(Op(f"sweep_m2_a{a:g}",
                      lambda _, a=a: rieszlab.two_body_sweep(2, a, 1.0, inp["m2_gaps"]),
                      _check_sweep(a, oracles.two_sphere_cross_energy, 1e-10, True)))
    for a in M1_ALPHAS:
        ops.append(Op(f"sweep_m1_a{a:g}",
                      lambda _, a=a: rieszlab.two_body_sweep(1, a, 1.0, inp["m1_gaps"]),
                      _check_sweep(a, _two_circle, 1e-6, False)))
    for a in TANGENT_ALPHAS:
        ops.append(Op(f"tangent_scan_a{a:g}",
                      lambda _, a=a: rieszlab.tangent_model_scan(a),
                      _check_law(a, 2 * a + 6)))
    for a in CONE_ALPHAS:
        ops.append(Op(f"cone_scan_a{a:g}", lambda _, a=a: rieszlab.cone_model_scan(a),
                      _check_law(a, a + 4)))
    for a, rho in ORTHO_FINITE:
        ops.append(Op(f"orthogonal_a{a:g}_rho{rho:g}",
                      lambda _, a=a, rho=rho: rieszlab.orthogonal_model_integral(a, rho),
                      _check_orthogonal(a, rho)))
    for a in ORTHO_DIVERGENT:
        ops.append(Op(f"orthogonal_a{a:g}_rho1",
                      lambda _, a=a: rieszlab.orthogonal_model_integral(a, 1.0),
                      _check_divergent))
    return ops


def _degeneration_named(t, _):
    return {"sweep_s": sum(v for k, v in t.items() if k.startswith("sweep_")),
            "model_scan_s": sum(v for k, v in t.items()
                                if not k.startswith("sweep_"))}


WORKLOADS = {w.name: w for w in [
    Workload("chart_riesz", _chart_riesz_build, _chart_riesz_ops,
             _chart_riesz_named, "sphere_e4_s", "circle_riesz_s"),
    Workload("ks_static", _ks_static_build, _ks_static_ops, _ks_static_named,
             "ks_mesh_s", "ks_chart_s"),
    Workload("ks_flow", _ks_flow_build, _ks_flow_ops, _ks_flow_named,
             "flow_step_s", "gradient_s"),
    Workload("degeneration", _degeneration_build, _degeneration_ops,
             _degeneration_named, "sweep_s", "model_scan_s"),
]}
