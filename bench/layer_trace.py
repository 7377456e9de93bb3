"""Span tracing of rieszlab's layers, installed from outside the package.

`install()` replaces public functions and methods of each layer module with
wrappers that record one span per call: (name, start, end, parent span).
A layer's self time is its spans' durations minus the time their child
spans cover. Some wrappers also count work observed at the call (rows of a
radial inversion, shrunk patches, accepted flow steps); counts that need
extra computation (node pairs) are deferred until the pass has ended, so
they add nothing to any span.

The tracer assumes one thread: the benchmark runs with
`QuadratureConfig.threads = 1`. A target that a later change removes is
skipped, and its metrics read zero.
"""

import functools
import importlib
import inspect
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute, metric group). Attributes with a dot are methods.
TARGETS = [
    ("rieszlab.geometry.charts", "ChartSurface.quadrature", "charts.quadrature"),
    ("rieszlab.geometry.meshes", "TriMesh.vertex_neighbors", "meshes.adjacency"),
    ("rieszlab.geometry.meshes", "TriMesh.vertex_rings", "meshes.adjacency"),
    ("rieszlab.geometry.meshes", "TriMesh.vertex_faces", "meshes.adjacency"),
    ("rieszlab.geometry.meshes", "TriMesh.components", "meshes.adjacency"),
    ("rieszlab.geometry.meshes", "TriMesh.local_scale", "meshes.adjacency"),
    ("rieszlab.geometry.meshes", "TriMesh.vertex_weights", "meshes.adjacency"),
    # with_vertices builds its mesh through __init__, so it is counted there
    ("rieszlab.geometry.meshes", "TriMesh.__init__", "meshes.construct"),
    ("rieszlab.geometry.meshes", "TriMesh.min_nonneighbor_distance",
     "meshes.min_nonneighbor"),
    ("rieszlab.geometry.patches", "graph_patch_at", "patches.graph_patch_at"),
    ("rieszlab.geometry.patches", "curvature_at", "patches.curvature_at"),
    ("rieszlab.radial", "radial_profile", "radial.radial_profile"),
    ("rieszlab.radial", "radial_inverse", "radial.radial_inverse"),
    ("rieszlab.radial", "finite_part", "radial.finite_part"),
    ("rieszlab.quadrature", "poly_weighted_spline_integral",
     "quadrature.spline_integral"),
    ("rieszlab.quadrature", "power_deflated_spline_integral",
     "quadrature.spline_integral"),
    ("rieszlab.riesz", "riesz_energy", "riesz.riesz_energy"),
    ("rieszlab.moebius", "ks_energy", "moebius.ks_energy"),
    ("rieszlab.moebius", "apply_moebius", "moebius.apply_moebius"),
    ("rieszlab.flow", "energy_gradient", "flow.energy_gradient"),
    ("rieszlab.flow", "EnergySelector.evaluate", "flow.energy_eval"),
    # spans that only give the line-search evaluations their parent
    ("rieszlab.flow", "flow_step", "flow.flow_step"),
    ("rieszlab.flow", "FlowState.energy", "flow.state_energy"),
    ("rieszlab.models", "sphere_pair_cross_energy", "models.cross_energy"),
    ("rieszlab.models", "lambda_bound_sum", "models.lambda_bound_sum"),
    ("rieszlab.models", "tangent_model_scan", "models.model_scan"),
    ("rieszlab.models", "cone_model_scan", "models.model_scan"),
    ("rieszlab.models", "orthogonal_model_integral", "models.model_scan"),
]

# (metric name, unit, how it is read from one pass). Kinds: "calls" and
# "self_s" of a group, or a counter.
PER_LAYER = [
    ("charts.quadrature.calls", "count", ("calls", "charts.quadrature")),
    ("charts.quadrature.self_s", "s", ("self_s", "charts.quadrature")),
    ("meshes.adjacency.calls", "count", ("calls", "meshes.adjacency")),
    ("meshes.adjacency.self_s", "s", ("self_s", "meshes.adjacency")),
    ("meshes.construct.calls", "count", ("calls", "meshes.construct")),
    ("meshes.construct.self_s", "s", ("self_s", "meshes.construct")),
    ("meshes.min_nonneighbor.calls", "count", ("calls", "meshes.min_nonneighbor")),
    ("meshes.min_nonneighbor.self_s", "s", ("self_s", "meshes.min_nonneighbor")),
    ("patches.graph_patch_at.calls", "count", ("calls", "patches.graph_patch_at")),
    ("patches.graph_patch_at.self_s", "s", ("self_s", "patches.graph_patch_at")),
    ("patches.shrunk", "count", ("counter", "patches.shrunk")),
    ("patches.curvature_at.calls", "count", ("calls", "patches.curvature_at")),
    ("patches.curvature_at.self_s", "s", ("self_s", "patches.curvature_at")),
    ("radial.radial_profile.calls", "count", ("calls", "radial.radial_profile")),
    ("radial.radial_profile.self_s", "s", ("self_s", "radial.radial_profile")),
    ("radial.radial_inverse.calls", "count", ("calls", "radial.radial_inverse")),
    ("radial.radial_inverse.rows", "count", ("counter", "radial.radial_inverse.rows")),
    ("radial.radial_inverse.self_s", "s", ("self_s", "radial.radial_inverse")),
    ("radial.finite_part.calls", "count", ("calls", "radial.finite_part")),
    ("radial.finite_part.self_s", "s", ("self_s", "radial.finite_part")),
    ("quadrature.spline_integral.calls", "count", ("calls", "quadrature.spline_integral")),
    ("quadrature.spline_integral.self_s", "s", ("self_s", "quadrature.spline_integral")),
    ("riesz.riesz_energy.self_s", "s", ("self_s", "riesz.riesz_energy")),
    ("riesz.pairs", "count", ("counter", "riesz.pairs")),
    ("moebius.ks_energy.self_s", "s", ("self_s", "moebius.ks_energy")),
    ("moebius.pairs", "count", ("counter", "moebius.pairs")),
    ("moebius.apply_moebius.self_s", "s", ("self_s", "moebius.apply_moebius")),
    ("flow.energy_gradient.calls", "count", ("calls", "flow.energy_gradient")),
    ("flow.energy_gradient.self_s", "s", ("self_s", "flow.energy_gradient")),
    ("flow.energy_evals", "count", ("calls", "flow.energy_eval")),
    ("flow.energy_eval.self_s", "s", ("self_s", "flow.energy_eval")),
    ("flow.line_search.accept_ratio", "ratio", ("accept_ratio", None)),
    ("models.cross_energy.calls", "count", ("calls", "models.cross_energy")),
    ("models.cross_energy.self_s", "s", ("self_s", "models.cross_energy")),
    ("models.lambda_bound_sum.calls", "count", ("calls", "models.lambda_bound_sum")),
    ("models.lambda_bound_sum.self_s", "s", ("self_s", "models.lambda_bound_sum")),
    ("models.model_scan.self_s", "s", ("self_s", "models.model_scan")),
]


class Tracer:
    """Spans and counters of the current pass, plus summaries of past passes."""

    def __init__(self):
        self.enabled = True
        self.spans = []        # [name, group, start, end, parent index]
        self.stack = []
        self.counters = defaultdict(float)
        self.deferred = []     # callables run after the pass, untraced
        self.all_spans = []
        self.pass_summaries = []
        self.missing = []

    # -- installation ----------------------------------------------------

    def install(self):
        import rieszlab  # noqa: F401  (loads every layer module)
        hooks = _hooks()
        for mod_name, attr, group in TARGETS:
            try:
                mod = importlib.import_module(mod_name)
            except ImportError:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            orig = getattr(owner, name, None) if owner is not None else None
            if orig is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapper = self._wrap(f"{mod_name}.{attr}", group, orig,
                                 hooks.get(attr))
            if owner_name:
                setattr(owner, name, wrapper)
            else:
                _rebind(orig, wrapper)

    def _wrap(self, span_name, group, fn, hook):
        tracer = self
        sig = None
        if hook is not None:
            try:
                sig = inspect.signature(fn)
            except (TypeError, ValueError):
                sig = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            spans = tracer.spans
            idx = len(spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            span = [span_name, group, time.perf_counter(), 0.0, parent]
            spans.append(span)
            tracer.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                tracer.stack.pop()
            if hook is not None:
                bound = None
                if sig is not None:
                    try:
                        bound = sig.bind(*args, **kwargs)
                        bound.apply_defaults()
                    except TypeError:
                        bound = None
                hook(tracer, bound, result)
            return result

        return wrapper

    # -- passes ------------------------------------------------------------

    def end_pass(self, wall_s):
        """Close the pass: run deferred counts untraced, summarize spans."""
        self.enabled = False
        try:
            for job in self.deferred:
                job()
        finally:
            self.enabled = True
        spans = self.spans
        child = [0.0] * len(spans)
        for name, group, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for k, (name, group, start, end, parent) in enumerate(spans):
            calls[group] += 1
            self_s[group] += (end - start) - child[k]
        line_search = sum(1 for name, group, s, e, p in spans
                          if group == "flow.energy_eval" and p >= 0
                          and spans[p][1] == "flow.flow_step")
        accepted = self.counters.get("flow.accepted_steps", 0.0)
        self.pass_summaries.append({
            "wall_s": wall_s, "calls": dict(calls), "self_s": dict(self_s),
            "counters": dict(self.counters),
            "accept_ratio": accepted / line_search if line_search else 0.0,
        })
        self.all_spans.append(spans)
        self.spans, self.stack = [], []
        self.counters = defaultdict(float)
        self.deferred = []

    def metrics(self):
        """Per-layer metrics: the median over passes of each per-pass value."""
        out = {}
        for name, unit, (kind, key) in PER_LAYER:
            vals = []
            for p in self.pass_summaries:
                if kind == "calls":
                    vals.append(p["calls"].get(key, 0))
                elif kind == "self_s":
                    vals.append(p["self_s"].get(key, 0.0))
                elif kind == "counter":
                    vals.append(p["counters"].get(key, 0.0))
                else:
                    vals.append(p["accept_ratio"])
            out[name] = {"value": statistics.median(vals), "unit": unit}
        return out

    def shares(self):
        """Self time of each group as a share of the pass wall time (median)."""
        groups = sorted({g for p in self.pass_summaries for g in p["self_s"]})
        return {g: round(statistics.median(p["self_s"].get(g, 0.0) / p["wall_s"]
                                           for p in self.pass_summaries), 4)
                for g in groups}

    def span_records(self):
        return [{"pass": i, "spans": [
            {"name": n, "start": s, "end": e, "parent": p}
            for n, g, s, e, p in spans]}
            for i, spans in enumerate(self.all_spans)]


def _rebind(orig, wrapper):
    """Point every rieszlab module's reference to `orig` at `wrapper`."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "rieszlab"
                               or mod_name.startswith("rieszlab.")):
            continue
        for key, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, key, wrapper)


# ----------------------------------------------------------------------
# counters observed at the call
# ----------------------------------------------------------------------

def _arg(bound, name, default=None):
    return bound.arguments.get(name, default) if bound is not None else default


def _hooks():
    return {
        "graph_patch_at": _count_shrunk,
        "radial_inverse": _count_rows,
        "riesz_energy": _defer_riesz_pairs,
        "ks_energy": _defer_ks_pairs,
        "flow_step": _count_accepted,
    }


def _count_shrunk(tracer, bound, patch):
    requested = _arg(bound, "radius")
    if requested is not None and patch.radius < float(requested) * (1 - 1e-12):
        tracer.counters["patches.shrunk"] += 1


def _count_rows(tracer, bound, result):
    v = _arg(bound, "v")
    if v is not None:
        tracer.counters["radial.radial_inverse.rows"] += len(np.atleast_2d(v))


def _node_count(surface, scale=None, mesh_subdiv=None):
    """Outer or inner node count of a chart quadrature or of a mesh."""
    from rieszlab import ChartSurface, TriMesh
    if isinstance(surface, ChartSurface):
        return len(surface.quadrature(scale).points)
    if isinstance(surface, TriMesh):
        if mesh_subdiv is None:
            return surface.num_vertices
        per_face = 4 ** mesh_subdiv if surface.m == 2 else max(1, 2 ** mesh_subdiv)
        return surface.num_faces * per_face
    return 0


def _defer_riesz_pairs(tracer, bound, result):
    from rieszlab import QuadratureConfig
    surface = _arg(bound, "surface")
    config = _arg(bound, "config") or QuadratureConfig()

    def job():
        outer = _node_count(surface, config.outer_scale)
        inner = (_node_count(surface, config.inner_scale,
                             config.mesh_inner_subdiv)
                 + _node_count(surface, 0.5 * config.inner_scale,
                               max(config.mesh_inner_subdiv - 1, 0)))
        tracer.counters["riesz.pairs"] += outer * inner

    tracer.deferred.append(job)


def _defer_ks_pairs(tracer, bound, result):
    surface = _arg(bound, "surface")
    scale = _arg(bound, "scale")

    def job():
        n = _node_count(surface, 0.5 if scale is None else scale)
        tracer.counters["moebius.pairs"] += n * n

    tracer.deferred.append(job)


def _count_accepted(tracer, bound, new_state):
    old = _arg(bound, "state")
    if old is not None and new_state.iteration > old.iteration:
        tracer.counters["flow.accepted_steps"] += 1
