"""Command-line entry point: surface catalog, dispatch, serialization.

Commands: energy, beta, model {orthogonal|tangent|cone}, sweep, flow,
invariance, validate. Configuration comes from flags with an optional JSON
config file (flags override the file). All floats are printed with 17
significant digits so outputs round-trip losslessly and identical configs
produce byte-identical files.

Each command imports the layers it runs when it runs: a sweep or a model
scan loads `models` and no geometry, and the KS energy of a mesh loads no
Riesz engine, charts, models or flow.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import (ConfigError, NumericalError, PreconditionError,
                     RieszLabError, UnsupportedInputError)
from .quadrature import QuadratureConfig

if TYPE_CHECKING:
    from .moebius import MoebiusMap

__all__ = ["RunConfig", "run", "main"]

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_UNSUPPORTED = 4


def _fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def dump_json(obj) -> str:
    """Deterministic one-line JSON with 17-significant-digit floats."""
    if isinstance(obj, dict):
        items = sorted(obj.items())
        inner = ", ".join(f"{json.dumps(str(k))}: {dump_json(v)}"
                          for k, v in items)
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(dump_json(v) for v in obj) + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if x != x:
            return "NaN"
        if x in (float("inf"), float("-inf")):
            return "Infinity" if x > 0 else "-Infinity"
        return _fmt_float(x)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    return json.dumps(obj)


def _parse_kv(spec: str):
    """'name:key=val,key=val' -> (name, {key: val})."""
    if ":" in spec:
        name, rest = spec.split(":", 1)
        kv = {}
        for part in rest.split(","):
            if not part:
                continue
            if "=" not in part:
                raise ConfigError(f"malformed parameter {part!r} in {spec!r}")
            k, v = part.split("=", 1)
            try:
                kv[k] = float(v) if "." in v or "e" in v.lower() or v.lstrip("-").isdigit() is False else int(v)
            except ValueError:
                kv[k] = v
            _require_finite(f"{k} in {spec!r}", kv[k])
        return name, kv
    return spec, {}


def _number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


# The values each RunConfig annotation admits; bool is never a number.
_KINDS = {"str": lambda v: isinstance(v, str), "float": _number,
          "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
          "list": lambda v: isinstance(v, list) and all(map(_number, v)),
          "None": lambda v: v is None}


def _check_type(key, value):
    """ConfigError unless value fits the annotation of RunConfig.key."""
    kinds = RunConfig.__dataclass_fields__[key].type.split(" | ")
    if not any(_KINDS[k](value) for k in kinds):
        expected = " or ".join("a list of numbers" if k == "list" else k
                               for k in kinds)
        raise ConfigError(f"{key} must be {expected}, got {value!r}")


def _require_finite(name, value):
    """ConfigError unless every float in value (or its items) is finite."""
    items = value if isinstance(value, (list, tuple)) else [value]
    if any(isinstance(x, float) and not math.isfinite(x) for x in items):
        raise ConfigError(f"{name} must be finite, got {value!r}")


def _two_spheres(g, gap, r):
    a = g.make_sphere(r, (-(r + gap / 2.0), 0.0, 0.0))
    b = g.make_sphere(r, (r + gap / 2.0, 0.0, 0.0))
    return g.make_disjoint_union(a, b)


def _dumbbell(g, gap, r, subdiv):
    a = g.icosphere(int(subdiv), r, (-(r + gap / 2.0), 0.0, 0.0))
    b = g.icosphere(int(subdiv), r, (r + gap / 2.0, 0.0, 0.0))
    return g.mesh_disjoint_union(a, b)


def _mesh_file(g, path):
    if not path or not os.path.exists(str(path)):
        raise ConfigError(f"mesh path {path!r} does not exist")
    path = str(path)
    return g.read_off(path) if path.endswith(".off") else g.read_obj(path)


# The catalog: each surface's parameters with their defaults, in the order
# its builder takes them and an unknown-key message lists them. Any other
# key is a ConfigError, so a misspelt key never silently runs the default.
# A builder takes the geometry package first, whose names load only their
# own modules (charts or meshes).
_SURFACES = {
    "circle": ({"r": 1.0}, lambda g, r: g.make_circle(r)),
    "sphere": ({"r": 1.0, "cx": 0.0, "cy": 0.0, "cz": 0.0},
               lambda g, r, cx, cy, cz: g.make_sphere(r, (cx, cy, cz))),
    "ellipsoid": ({"a": 1.0, "b": 1.0, "c": 1.2},
                  lambda g, a, b, c: g.make_ellipsoid(a, b, c)),
    "torus": ({"R": 2.0, "r": 0.5}, lambda g, R, r: g.make_torus(R, r)),
    "cylinder": ({"r": 1.0, "L": 1.0},
                 lambda g, r, L: g.make_cylinder_patch(r, L)),
    "saddle": ({"extent": 1.0},
               lambda g, extent: g.make_saddle_surface(extent)),
    "two-spheres": ({"gap": 0.5, "r": 1.0}, _two_spheres),
    "icosphere": ({"subdiv": 1, "r": 1.0, "cx": 0.0, "cy": 0.0, "cz": 0.0},
                  lambda g, subdiv, r, cx, cy, cz:
                  g.icosphere(int(subdiv), r, (cx, cy, cz))),
    "torusmesh": ({"nu": 24, "nv": 48, "R": 2.0, "r": 0.5},
                  lambda g, nu, nv, R, r: g.torus_mesh(int(nu), int(nv), R, r)),
    "polygon": ({"n": 64, "r": 1.0},
                lambda g, n, r: g.polygon_circle(int(n), r)),
    "dumbbell": ({"gap": 0.5, "r": 1.0, "subdiv": 1}, _dumbbell),
    "mesh": ({"path": None}, _mesh_file),
}
_MAP_KEYS = {"inversion": ("cx", "cy", "cz", "r"),
             "similarity": ("cx", "cy", "cz", "scale")}


# Catalog keys that are sizes (positive) and counts with their least value.
_SIZE_KEYS = ("r", "a", "b", "c", "R", "L", "extent", "gap")
_LEAST_COUNT = {"subdiv": 0, "n": 3, "nu": 3, "nv": 3}


def _check_sizes(kv, values, spec):
    """ConfigError naming the key unless every size in kv is positive, every
    count at least its least value and a torus's tube radius r below R;
    values holds every parameter, given or at its default."""
    for key, value in kv.items():
        if key in _SIZE_KEYS and not (_number(value) and value > 0):
            raise ConfigError(f"{key} in {spec!r} must be positive, "
                              f"got {value!r}")
        least = _LEAST_COUNT.get(key)
        if least is not None and not (_number(value) and value >= least):
            raise ConfigError(f"{key} in {spec!r} must be at least {least}, "
                              f"got {value!r}")
    if "R" in values and values["r"] >= values["R"]:
        raise ConfigError(f"r in {spec!r} must be below R, got "
                          f"r={values['r']!r} and R={values['R']!r}")


def _check_keys(kind, name, kv, spec, keys):
    """ConfigError unless name is known (keys, its parameter names, is not
    None) and takes every key of kv."""
    if keys is None:
        raise ConfigError(f"unknown {kind} {name!r}")
    unknown = sorted(set(kv) - set(keys))
    if unknown:
        raise ConfigError(f"unknown {kind} parameter {', '.join(unknown)} "
                          f"in {spec!r}; {name} takes {' '.join(keys)}")


def parse_surface(spec: str):
    """Build a catalog surface or load a mesh from an OFF/OBJ path.

    An unknown surface or parameter key, a size or count out of range (see
    `_check_sizes`) and a missing or malformed mesh file are
    ConfigErrors."""
    if spec.endswith((".off", ".obj")) and not spec.startswith("mesh:"):
        name, kv = "mesh", {"path": spec}
    else:
        name, kv = _parse_kv(spec)
        name = name.lower()
    params, build = _SURFACES.get(name, (None, None))
    _check_keys("surface", name, kv, spec, params)
    values = {**params, **kv}
    _check_sizes(kv, values, spec)
    from . import geometry
    try:
        return build(geometry, *values.values())
    except RieszLabError:
        raise
    except Exception as exc:
        raise ConfigError(f"bad surface spec {spec!r}: {exc}") from exc


def parse_map(spec: str, n: int) -> MoebiusMap:
    """A Moebius map of R^n, n in {2, 3}; its centre is (cx, cy), or
    (cx, cy, cz) in R^3."""
    from .moebius import MoebiusMap
    name, kv = _parse_kv(spec)
    _check_keys("map", name, kv, spec, _MAP_KEYS.get(name))
    for k, v in kv.items():
        if isinstance(v, str):
            raise ConfigError(f"map parameter {k} in {spec!r} must be a "
                              f"number, got {v!r}")
    if "cz" in kv and n < 3:
        raise ConfigError(f"cz in {spec!r} needs a surface in R^3")
    center = tuple(kv.get(c, 0.0) for c in ("cx", "cy", "cz")[:n])
    if name == "inversion":
        return MoebiusMap("inversion", center=center, radius=kv.get("r", 1.0))
    return MoebiusMap("similarity", center=center, scale=kv.get("scale", 2.0))


@dataclass
class RunConfig:
    """Parsed run configuration (flags merged over an optional JSON file)."""

    command: str
    surface: str | None = None
    alpha: float | None = None
    # riesz | ks | as; unset, invariance checks ks and the others run riesz
    energy: str | None = None
    s: float = 0.0
    z: float | None = None
    radius: float = 1.0
    rho: float = 1.0
    extent: float = 0.5
    model: str | None = None
    m: int = 2
    gaps: list = field(default_factory=lambda: [0.1, 0.05, 0.025, 0.0125])
    steps: int = 50
    step_size: float = 1e-2
    map_spec: str | None = None
    eps0: float | None = None
    outer_scale: float | None = None
    inner_scale: float | None = None
    threads: int = 1
    output: str | None = None
    csv: str | None = None
    data: str | None = None
    trajectory: str | None = None
    mesh_out: str | None = None
    b: float = 10.0
    volume_bound: float = 100.0

    def quad_config(self) -> QuadratureConfig:
        cfg = QuadratureConfig(threads=self.threads)
        if self.outer_scale is not None:
            cfg.outer_scale = self.outer_scale
        if self.inner_scale is not None:
            cfg.inner_scale = self.inner_scale
        if self.eps0 is not None:
            cfg.patch_radius = self.eps0
        return cfg


def _emit(config: RunConfig, payload: dict) -> None:
    text = dump_json(payload)
    print(text)
    if config.output:
        with open(config.output, "w") as fh:
            fh.write(text + "\n")
    if config.data and "columns" in payload:
        cols = payload["columns"]
        with open(config.data, "w") as fh:
            for row in zip(*cols.values()):
                fh.write(" ".join(_fmt_float(v) for v in row) + "\n")


def _cmd_energy(config: RunConfig) -> dict:
    surface = parse_surface(config.surface)
    qc = config.quad_config()
    energy = config.energy or "riesz"
    if energy == "ks":
        from .moebius import ks_energy
        rep = ks_energy(surface, qc)
    elif energy == "as":
        from .moebius import as_energy
        rep = as_energy(surface, config.s, qc)
    else:
        if config.alpha is None:
            raise ConfigError("energy command needs --alpha (or --energy ks/as)")
        from .riesz import riesz_energy
        rep = riesz_energy(surface, config.alpha, config=qc)
    return {"command": "energy", "surface": config.surface,
            "energy": energy, "alpha": config.alpha,
            "report": rep.as_dict()}


def _cmd_beta(config: RunConfig) -> dict:
    if config.surface not in ("circle", "sphere"):
        raise ConfigError("beta oracle supports --surface circle|sphere")
    if config.z is None:
        raise ConfigError("beta command needs --z")
    from .riesz import beta_oracle
    value = beta_oracle(config.surface, config.radius, config.z)
    return {"command": "beta", "surface": config.surface,
            "radius": config.radius, "z": config.z, "value": value}


def _cmd_model(config: RunConfig) -> dict:
    from .models import (cone_model_scan, orthogonal_model_integral,
                         tangent_model_scan)
    kind = config.model
    if kind == "orthogonal":
        res = orthogonal_model_integral(config.alpha, config.rho)
        out = {"value": res.value, "diverged": res.diverged}
        if res.cutoff_fit is not None:
            out["cutoff_fit"] = res.cutoff_fit.as_dict()
        return {"command": "model", "model": kind, "alpha": config.alpha,
                "rho": config.rho, "result": out}
    if kind == "tangent":
        fit = tangent_model_scan(config.alpha, config.extent)
    elif kind == "cone":
        fit = cone_model_scan(config.alpha)
    else:
        raise ConfigError("model kind must be orthogonal, tangent or cone")
    return {"command": "model", "model": kind, "alpha": config.alpha,
            "result": fit.as_dict()}


def _cmd_sweep(config: RunConfig) -> dict:
    if config.alpha is None:
        raise ConfigError("sweep needs --alpha")
    if not config.radius > 0:
        raise ConfigError("radius must be a positive number, got "
                          f"{config.radius!r}")
    if not (all(g > 0 for g in config.gaps)
            and len(set(config.gaps)) == len(config.gaps)):
        raise ConfigError("gaps must be positive and distinct, got "
                          f"{config.gaps!r}")
    from .models import two_body_sweep
    res = two_body_sweep(config.m, config.alpha, config.radius, config.gaps)
    if config.csv:
        with open(config.csv, "w") as fh:
            fh.write("alpha,delta,energy,lambda_bound_sum\n")
            for g, e, l in zip(res.gaps, res.energies, res.lambda_sums):
                fh.write(",".join(_fmt_float(v)
                                  for v in (config.alpha, g, e, l)) + "\n")
    out = res.as_dict()
    out["columns"] = {"delta": list(res.gaps), "energy": list(res.energies)}
    return {"command": "sweep", "result": out,
            "columns": {"delta": list(res.gaps), "energy": list(res.energies)}}


def _cmd_flow(config: RunConfig) -> dict:
    mesh = parse_surface(config.surface)
    if not hasattr(mesh, "vertices"):
        raise UnsupportedInputError("flow needs a mesh surface "
                                    "(icosphere, polygon, dumbbell, file)")
    from .flow import (EnergySelector, FlowState, contact_monitor, run_flow,
                       write_trajectory_csv)
    from .geometry import write_off
    if config.energy == "ks":
        selector = EnergySelector("ks")
    elif config.energy == "as":
        selector = EnergySelector("as", s=config.s)
    else:
        if config.alpha is None:
            raise ConfigError("riesz flow needs --alpha")
        selector = EnergySelector("riesz", alpha=config.alpha)
    state = FlowState(mesh=mesh, selector=selector,
                      step_size=config.step_size, config=config.quad_config())
    initial_mesh = state.mesh
    state = run_flow(state, config.steps)
    if config.trajectory:
        write_trajectory_csv(state, config.trajectory)
    if config.mesh_out:
        write_off(state.mesh, config.mesh_out)
        stem, dot, ext = config.mesh_out.rpartition(".")
        write_off(initial_mesh, (stem or ext) + ".initial.off")
    monitor = contact_monitor(state)
    return {"command": "flow", "selector": selector.label(),
            "iterations": state.iteration, "stationary": state.stationary,
            "energy_initial": state.trajectory[0].energy,
            "energy_final": state.trajectory[-1].energy,
            "monitor": monitor.as_dict()}


def _cmd_invariance(config: RunConfig) -> dict:
    surface = parse_surface(config.surface)
    mmap = parse_map(config.map_spec or "inversion:cx=3.0,r=2.0", surface.n)
    selector = config.energy or "ks"
    if selector not in ("ks", "as"):
        raise ConfigError("invariance checks a Moebius-invariant energy, "
                          f"ks or as, not {selector!r}")
    from .moebius import moebius_invariance_check
    rep = moebius_invariance_check(surface, mmap, selector, config.s,
                                   config.quad_config())
    return {"command": "invariance", "report": rep.as_dict()}


def _cmd_validate(config: RunConfig) -> dict:
    surface = parse_surface(config.surface)
    radius = 0.1 if config.eps0 is None else config.eps0
    from .geometry import PatchClassParams, validate_patch_class
    params = PatchClassParams(radius=radius, derivative_bound=config.b,
                              volume_bound=config.volume_bound)
    report = validate_patch_class(surface, params)
    return {"command": "validate", "report": report.as_dict()}


_COMMANDS = {
    "energy": _cmd_energy,
    "beta": _cmd_beta,
    "model": _cmd_model,
    "sweep": _cmd_sweep,
    "flow": _cmd_flow,
    "invariance": _cmd_invariance,
    "validate": _cmd_validate,
}


def run(config: RunConfig) -> int:
    """Dispatch a parsed configuration; returns the process exit status."""
    try:
        handler = _COMMANDS.get(config.command)
        if handler is None:
            raise ConfigError(f"unknown command {config.command!r}")
        payload = handler(config)
        _emit(config, payload)
        return 0
    except ConfigError as exc:
        _emit_error(exc)
        return EXIT_CONFIG
    except UnsupportedInputError as exc:
        _emit_error(exc)
        return EXIT_UNSUPPORTED
    except (NumericalError, PreconditionError, RieszLabError) as exc:
        _emit_error(exc)
        return EXIT_NUMERICAL


def _emit_error(exc: Exception) -> None:
    sys.stderr.write(dump_json({"error": type(exc).__name__,
                                "message": str(exc)}) + "\n")


def _build_parser() -> argparse.ArgumentParser:
    # Defaults live in RunConfig: a flag the user did not give leaves no
    # attribute, so it overrides neither the config file nor the same flag
    # given before the subcommand.
    def parser(**kw):
        return argparse.ArgumentParser(argument_default=argparse.SUPPRESS,
                                       **kw)

    common = parser(add_help=False)
    common.add_argument("--config", help="JSON config file (flags override it)")
    common.add_argument("--threads", type=int)
    p = parser(prog="rieszlab", parents=[common],
               description="Regularized Riesz, Kusner-Sullivan and "
                           "Auckly-Sadun energies of closed curves and "
                           "surfaces")
    sub = p.add_subparsers(dest="command", parser_class=lambda **kw:
                           parser(parents=[common], **kw))

    def add_common(sp):
        sp.add_argument("--surface")
        sp.add_argument("--alpha", type=float)
        sp.add_argument("--energy", choices=["riesz", "ks", "as"])
        sp.add_argument("--s", type=float)
        sp.add_argument("--eps0", type=float)
        sp.add_argument("--outer-scale", type=float, dest="outer_scale")
        sp.add_argument("--inner-scale", type=float, dest="inner_scale")
        sp.add_argument("--output", "-o")

    sp = sub.add_parser("energy", help="Riesz/KS/AS energy of a surface")
    add_common(sp)

    sp = sub.add_parser("beta", help="closed-form beta oracle")
    sp.add_argument("--surface", choices=["circle", "sphere"], required=True)
    sp.add_argument("--z", type=float, required=True)
    sp.add_argument("--radius", type=float)
    sp.add_argument("--output", "-o")

    sp = sub.add_parser("model", help="double-point model integrals")
    sp.add_argument("model", choices=["orthogonal", "tangent", "cone"])
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--rho", type=float)
    sp.add_argument("--extent", type=float)
    sp.add_argument("--output", "-o")

    sp = sub.add_parser("sweep", help="two-body blow-up sweep")
    sp.add_argument("--m", type=int, choices=[1, 2])
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--radius", type=float)
    sp.add_argument("--gaps", type=lambda s: [float(x) for x in s.split(",")])
    sp.add_argument("--csv")
    sp.add_argument("--output", "-o")
    sp.add_argument("--data", help="gnuplot two-column output file")

    sp = sub.add_parser("flow", help="gradient descent of a mesh embedding")
    add_common(sp)
    sp.add_argument("--steps", type=int)
    sp.add_argument("--step-size", type=float, dest="step_size")
    sp.add_argument("--trajectory", help="trajectory CSV path")
    sp.add_argument("--mesh-out", dest="mesh_out", help="final mesh OFF path")

    sp = sub.add_parser("invariance", help="Moebius invariance check")
    add_common(sp)
    sp.add_argument("--map", dest="map_spec",
                    help="inversion:cx=..,cy=..,cz=..,r=.. or "
                         "similarity:scale=.. (cz only in R^3)")

    sp = sub.add_parser("validate", help="uniform patch-class validation")
    sp.add_argument("--surface", required=True)
    sp.add_argument("--eps0", type=float)
    sp.add_argument("--b", type=float)
    sp.add_argument("--V", type=float, dest="volume_bound")
    sp.add_argument("--output", "-o")
    return p


def parse_args(argv=None) -> RunConfig:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    if ns.command is None:
        parser.print_help()
        raise ConfigError("no command given")
    # RunConfig defaults < RIESZ_LAB_THREADS < config file < given flags
    merged = {}
    env_threads = os.environ.get("RIESZ_LAB_THREADS")
    if env_threads is not None:
        try:
            merged["threads"] = int(env_threads)
        except ValueError:
            raise ConfigError("RIESZ_LAB_THREADS must be an integer, got "
                              f"{env_threads!r}") from None
    flags = vars(ns)
    if "config" in flags:
        try:
            with open(flags.pop("config")) as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object, got "
                              f"{type(loaded).__name__}")
        merged.update(loaded)
    merged.update(flags)
    unknown = set(merged) - set(RunConfig.__dataclass_fields__)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key, val in merged.items():
        _check_type(key, val)
        _require_finite(key, val)
    for key in ("eps0", "outer_scale", "inner_scale", "step_size"):
        val = merged.get(key)
        if val is not None and not val > 0:
            raise ConfigError(f"{key} must be a positive number, got {val!r}")
    if merged.get("steps", 0) < 0:
        raise ConfigError(f"steps must be at least 0, got {merged['steps']!r}")
    if merged.get("threads", 1) < 1:
        raise ConfigError("threads must be at least 1, got "
                          f"{merged['threads']!r}")
    if merged.get("data") is not None and merged["command"] != "sweep":
        raise ConfigError("only sweep writes a data file")
    return RunConfig(**merged)


def main(argv=None) -> int:
    try:
        config = parse_args(argv)
    except ConfigError as exc:
        _emit_error(exc)
        return EXIT_CONFIG
    except SystemExit as exc:   # argparse errors
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
