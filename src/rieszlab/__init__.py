"""rieszlab: regularized Riesz, Kusner-Sullivan and Auckly-Sadun energies.

Numerical library for Hadamard-regularized Riesz energies of closed curves
and surfaces in R^n, Moebius-invariant surface energies, and a degeneration
laboratory that measures blow-up laws near double points.

`import rieszlab` loads no layer module: each public name imports its
defining module when it is first read (PEP 562), so a call loads only the
layers it uses.
"""

import sys

__version__ = "0.1.0"


def _lazy_exports(package, exports, submodules):
    """The module `__getattr__` and `__dir__` of a package with lazy names.

    `exports` maps each public name to its defining module, relative to
    `package`; the module is imported when the name is first read, and the
    value is then cached in the package. `submodules` are the modules that
    resolve as attributes before anything imported them.
    """
    namespace = sys.modules[package].__dict__

    def load(module):
        # through the import statement's entry point, which `python -X
        # importtime` logs (importlib.import_module is not logged)
        __import__(f"{package}.{module}")
        return sys.modules[f"{package}.{module}"]

    def __getattr__(name):
        if name in submodules:
            return load(name)
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = getattr(load(module), name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted({*namespace, *exports, *submodules})

    return __getattr__, __dir__


_EXPORTS = {
    **dict.fromkeys((
        "ConfigError", "NumericalError", "PatchRadiusError", "PoleError",
        "PreconditionError", "ProfileFitError", "RieszLabError",
        "SingularMapError", "SingularPairError", "TopologyError",
        "UnsupportedInputError"), "errors"),
    **dict.fromkeys((
        "ContactReport", "EnergySelector", "FlowState", "contact_monitor",
        "energy_gradient", "flow_step", "ks_flow_energy", "run_flow",
        "write_trajectory_csv"), "flow"),
    **dict.fromkeys((
        "ChartSurface", "make_circle", "make_cylinder_patch",
        "make_disjoint_union", "make_disk", "make_ellipsoid",
        "make_saddle_surface", "make_sphere", "make_torus"), "geometry.charts"),
    **dict.fromkeys((
        "TriMesh", "euler_characteristic", "icosphere", "mesh_disjoint_union",
        "polygon_circle", "read_obj", "read_off", "torus_mesh", "write_obj",
        "write_off"), "geometry.meshes"),
    **dict.fromkeys((
        "PatchClassParams", "PatchStack", "default_patch_radius",
        "graph_patch_at", "validate_patch_class"), "geometry.patches"),
    **dict.fromkeys((
        "CutoffFit", "classify_cutoff_law", "cone_model_scan", "lambda_bound",
        "lambda_bound_sum", "orthogonal_model_closed_form",
        "orthogonal_model_integral", "sphere_pair_cross_energy",
        "tangent_model_scan", "two_body_sweep"), "models"),
    **dict.fromkeys((
        "InvarianceReport", "MoebiusMap", "apply_moebius", "as_energy",
        "combined_angle_cos", "combined_angle_cos_frames", "ks_cross_energy",
        "ks_energy", "moebius_invariance_check"), "moebius"),
    **dict.fromkeys((
        "EnergyParams", "FinitePartResult", "ProfileStack", "finite_part",
        "radial_profile"), "radial"),
    **dict.fromkeys(("EnergyReport", "QuadratureConfig"), "quadrature"),
    **dict.fromkeys((
        "beta_oracle", "beta_residue", "finite_part_at_pole", "riesz_energy",
        "scaling_check"), "riesz"),
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS, (
    "errors", "flow", "geometry", "models", "moebius", "quadrature",
    "radial", "riesz"))
