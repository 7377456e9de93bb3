"""Every name that a rieszlab module exports resolves, and loads only its
layer.

`from module import *` reads `__all__` name by name, so a name left in it
after its definition went raises. `__main__` runs the CLI on import and
is not a library module. The packages `rieszlab` and `rieszlab.geometry`
import a name's defining module when the name is first read, so what an
entry point loads is checked in a fresh interpreter.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import rieszlab
import rieszlab.geometry

MODULES = sorted({"rieszlab", "rieszlab.geometry", *(
    info.name for pkg in (rieszlab, rieszlab.geometry)
    for info in pkgutil.iter_modules(pkg.__path__, pkg.__name__ + ".")
    if not info.name.endswith(".__main__"))})

# The names that `import rieszlab` and `import rieszlab.geometry` bound
# when both packages imported every layer on import.
EXPORTS = {
    "rieszlab": {
        "ConfigError", "NumericalError", "PatchRadiusError", "PoleError",
        "PreconditionError", "ProfileFitError", "RieszLabError",
        "SingularMapError", "SingularPairError", "TopologyError",
        "UnsupportedInputError",
        "ContactReport", "EnergySelector", "FlowState", "contact_monitor",
        "energy_gradient", "flow_step", "ks_flow_energy", "run_flow",
        "write_trajectory_csv",
        "ChartSurface", "PatchClassParams", "PatchStack", "TriMesh",
        "default_patch_radius", "euler_characteristic", "graph_patch_at",
        "icosphere", "make_circle", "make_cylinder_patch",
        "make_disjoint_union", "make_disk", "make_ellipsoid",
        "make_saddle_surface", "make_sphere", "make_torus",
        "mesh_disjoint_union", "polygon_circle", "read_obj", "read_off",
        "torus_mesh", "validate_patch_class", "write_obj", "write_off",
        "CutoffFit", "classify_cutoff_law", "cone_model_scan", "lambda_bound",
        "lambda_bound_sum", "orthogonal_model_closed_form",
        "orthogonal_model_integral", "sphere_pair_cross_energy",
        "tangent_model_scan", "two_body_sweep",
        "InvarianceReport", "MoebiusMap", "apply_moebius", "as_energy",
        "combined_angle_cos", "combined_angle_cos_frames", "ks_cross_energy",
        "ks_energy", "moebius_invariance_check",
        "EnergyParams", "FinitePartResult", "ProfileStack", "finite_part",
        "radial_profile",
        "EnergyReport", "QuadratureConfig", "beta_oracle", "beta_residue",
        "finite_part_at_pole", "riesz_energy", "scaling_check",
    },
    "rieszlab.geometry": {
        "Chart", "ChartSurface", "make_circle", "make_sphere",
        "make_ellipsoid", "make_torus", "make_cylinder_patch",
        "make_saddle_surface", "make_disk", "make_disjoint_union",
        "orthonormal_frames",
        "MeshTopology", "TriMesh", "euler_characteristic", "icosphere",
        "torus_mesh", "polygon_circle", "mesh_disjoint_union", "read_off",
        "write_off", "read_obj", "write_obj",
        "PatchStack", "PatchClassParams", "PatchValidationReport",
        "graph_patch_at", "validate_patch_class", "default_patch_radius",
        "NodeSet", "Surface", "as_surface",
    },
}
PACKAGES = sorted(EXPORTS)


def test_every_module_is_listed():
    assert {"rieszlab.cli", "rieszlab.geometry.patches"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_star_import_resolves_every_export(module):
    namespace = {}
    exec(f"from {module} import *", namespace)
    assert len(namespace) > 1


@pytest.mark.parametrize("package", PACKAGES)
def test_lazy_exports_are_the_eager_ones(package):
    assert set(importlib.import_module(package).__all__) == EXPORTS[package]


@pytest.mark.parametrize("package", PACKAGES)
def test_each_export_is_its_defining_module_object(package):
    pkg = importlib.import_module(package)
    for name in pkg.__all__:
        obj = getattr(pkg, name)
        assert obj.__module__ == f"{package}.{pkg._EXPORTS[name]}"
        assert getattr(sys.modules[obj.__module__], name) is obj


@pytest.mark.parametrize("package", PACKAGES)
def test_dir_lists_each_name_once(package):
    names = dir(importlib.import_module(package))
    assert len(names) == len(set(names))
    assert EXPORTS[package] <= set(names)


@pytest.mark.parametrize("package", PACKAGES)
def test_unknown_name_is_an_attribute_error(package):
    pkg = importlib.import_module(package)
    with pytest.raises(AttributeError, match=f"'{package}'.*'no_such_name'"):
        pkg.no_such_name
    assert not hasattr(pkg, "no_such_name")
    assert not hasattr(pkg, "__main__")


def test_shared_energy_types_resolve_where_they_did():
    # defined in quadrature since the KS path stopped loading riesz.py;
    # the old import path still names the same classes
    from rieszlab.riesz import EnergyReport, QuadratureConfig
    assert QuadratureConfig is rieszlab.QuadratureConfig
    assert EnergyReport is rieszlab.EnergyReport
    assert rieszlab._EXPORTS["QuadratureConfig"] == "quadrature"


def _run_fresh(code):
    """The JSON that `code` prints in a fresh interpreter on this rieszlab."""
    src = str(Path(rieszlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_submodules_resolve_after_a_bare_import():
    names = _run_fresh("""
        import json, sys
        import rieszlab
        before = "rieszlab.flow" in sys.modules
        print(json.dumps([before, rieszlab.flow.__name__,
                          rieszlab.geometry.charts.__name__]))
    """)
    assert names == [False, "rieszlab.flow", "rieszlab.geometry.charts"]


ENTRY_POINTS = {
    "bare": "",
    "models": """
        rieszlab.two_body_sweep(2, -4.0, 1.0, [0.1, 0.01])
        rieszlab.two_body_sweep(1, -2.0, 1.0, [0.1, 0.01])
        rieszlab.tangent_model_scan(-3.0)
        rieszlab.cone_model_scan(-4.0)
        rieszlab.orthogonal_model_integral(-3.0, 1.0)
    """,
    "chart_riesz": """
        rieszlab.riesz_energy(rieszlab.make_circle(), -2.5)
    """,
    "ks_flow": """
        mesh = rieszlab.icosphere(1)
        mesh = mesh.with_vertices(mesh.vertices * [1.0, 1.0, 1.3])
        state = rieszlab.run_flow(rieszlab.FlowState(mesh=mesh), 2)
        assert state.iteration == 2
    """,
    "ks_static": """
        mesh = rieszlab.icosphere(2)
        rieszlab.ks_energy(mesh.with_vertices(mesh.vertices * [1.0, 1.0, 1.2]))
        inversion = rieszlab.MoebiusMap("inversion", center=(3.0, 0.2, 0.1),
                                        radius=2.0)
        rieszlab.moebius_invariance_check(
            rieszlab.make_ellipsoid(1.0, 1.0, 1.2), inversion, refine=False)
    """,
    "cli_sweep": """
        from rieszlab import cli
        assert cli.main(["sweep", "--m", "1", "--alpha", "-2", "--gaps",
                         "0.1,0.01"]) == 0
    """,
    "cli_model": """
        from rieszlab import cli
        assert cli.main(["model", "cone", "--alpha", "-4"]) == 0
    """,
    "cli_ks_mesh": """
        from rieszlab import cli
        assert cli.main(["energy", "--surface", "icosphere",
                         "--energy", "ks"]) == 0
    """,
}

# the Riesz engine: riesz_energy and the radial finite part under it
RIESZ_ENGINE = {"rieszlab.riesz", "rieszlab.radial"}


def _loaded_by(entry):
    return set(_run_fresh(
        "import json, sys\nimport rieszlab\n"
        + textwrap.dedent(ENTRY_POINTS[entry])
        + "\nprint(json.dumps(sorted(m for m in sys.modules"
          " if m.split('.')[0] == 'rieszlab')))\n"))


def test_bare_import_loads_no_layer():
    assert _loaded_by("bare") == {"rieszlab"}


def test_models_load_only_their_layers():
    assert _loaded_by("models") == {"rieszlab", "rieszlab.errors",
                                    "rieszlab.quadrature", "rieszlab.models"}


def test_chart_riesz_loads_no_mesh_flow_or_models():
    loaded = _loaded_by("chart_riesz")
    assert "rieszlab.riesz" in loaded
    assert not loaded & {"rieszlab.flow", "rieszlab.moebius",
                         "rieszlab.geometry.meshes", "rieszlab.models"}


def test_ks_flow_loads_no_charts_or_models():
    loaded = _loaded_by("ks_flow")
    assert "rieszlab.flow" in loaded
    assert not loaded & {"rieszlab.geometry.charts", "rieszlab.models",
                         *RIESZ_ENGINE}


def test_ks_static_loads_no_riesz_engine_models_or_flow():
    loaded = _loaded_by("ks_static")
    assert {"rieszlab.moebius", "rieszlab.geometry.charts",
            "rieszlab.geometry.meshes"} <= loaded
    assert not loaded & {"rieszlab.models", "rieszlab.flow", *RIESZ_ENGINE}


@pytest.mark.parametrize("entry", ["cli_sweep", "cli_model"])
def test_cli_sweep_and_model_load_only_their_layers(entry):
    assert _loaded_by(entry) == {"rieszlab", "rieszlab.cli",
                                 "rieszlab.errors", "rieszlab.quadrature",
                                 "rieszlab.models"}


def test_cli_ks_of_a_mesh_loads_no_riesz_engine_charts_models_or_flow():
    loaded = _loaded_by("cli_ks_mesh")
    assert {"rieszlab.moebius", "rieszlab.geometry.meshes"} <= loaded
    assert not loaded & {"rieszlab.geometry.charts", "rieszlab.models",
                         "rieszlab.flow", *RIESZ_ENGINE}
