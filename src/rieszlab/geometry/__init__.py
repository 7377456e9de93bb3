"""Geometry layer: chart surfaces, simplicial meshes, patches, curvature."""

from .charts import (Chart, ChartSurface, make_circle, make_cylinder_patch,
                     make_disjoint_union, make_disk, make_ellipsoid,
                     make_saddle_surface, make_sphere, make_torus,
                     orthonormal_frames)
from .meshes import (MeshTopology, TriMesh, euler_characteristic, icosphere,
                     mesh_disjoint_union, polygon_circle, read_obj, read_off,
                     torus_mesh, write_obj, write_off)
from .patches import (PatchClassParams, PatchStack, PatchValidationReport,
                      default_patch_radius, graph_patch_at,
                      validate_patch_class)
from .surface import NodeSet, Surface, as_surface

__all__ = [
    "Chart", "ChartSurface",
    "make_circle", "make_sphere", "make_ellipsoid", "make_torus",
    "make_cylinder_patch", "make_saddle_surface", "make_disk",
    "make_disjoint_union",
    "orthonormal_frames",
    "MeshTopology", "TriMesh", "euler_characteristic", "icosphere", "torus_mesh",
    "polygon_circle", "mesh_disjoint_union",
    "read_off", "write_off", "read_obj", "write_obj",
    "PatchStack", "PatchClassParams", "PatchValidationReport",
    "graph_patch_at", "validate_patch_class", "default_patch_radius",
    "NodeSet", "Surface", "as_surface",
]
