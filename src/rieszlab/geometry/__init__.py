"""Geometry layer: chart surfaces, simplicial meshes, patches, curvature.

Each name imports its defining module when it is first read, like the
names of the `rieszlab` package.
"""

from .. import _lazy_exports

_EXPORTS = {
    **dict.fromkeys((
        "Chart", "ChartSurface", "make_circle", "make_sphere",
        "make_ellipsoid", "make_torus", "make_cylinder_patch",
        "make_saddle_surface", "make_disk", "make_disjoint_union"), "charts"),
    **dict.fromkeys((
        "MeshTopology", "TriMesh", "euler_characteristic", "icosphere",
        "torus_mesh", "polygon_circle", "mesh_disjoint_union", "read_off",
        "write_off", "read_obj", "write_obj"), "meshes"),
    **dict.fromkeys((
        "orthonormal_frames", "PatchStack", "PatchClassParams",
        "PatchValidationReport", "graph_patch_at", "validate_patch_class",
        "default_patch_radius"), "patches"),
    **dict.fromkeys(("NodeSet", "Surface", "as_surface"), "surface"),
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS, (
    "charts", "meshes", "patches", "surface"))
