"""The surface protocol shared by chart surfaces and simplicial meshes.

The energies, patches and curvature routines reach a surface only through
the members below, so none of them branches on the kind of surface.
`ChartSurface` and `TriMesh` implement them; `as_surface` is the one gate
that turns any other object away. Patches and curvatures are asked for a
list of located points at once; one point is a list of one.

- `m`, `n`, `closed`, `oriented`.
- `nodes(scale, subdiv=None)`: a quadrature `NodeSet`. Charts use their
  parameter rules at `scale`; meshes use their vertices, or with `subdiv`
  the centroids of every face subdivided `subdiv` times.
- `patches_at(locators, radius)`: the `PatchStack` of a list of located
  points, built in one batch, with its `chord_solve`: charts solve chord
  rows by Newton in their parameters, meshes in closed form on the
  vertex's quadratic fit. Every node gets the requested radius (meshes cap
  it), which `radial_profile` shrinks where it fails.
- `basis_at(locator)`: the point and a positively oriented tangent basis.
- `curvatures(locators)`: the oriented orthonormal frames and second
  fundamental forms at a list of located points, in one batch, as arrays
  tangent (N, n, m), normal (N, n, n-m) and second_fundamental
  (N, m, m, n-m) with h_ij = II(T e_i, T e_j). Charts make one Jacobian
  and one Hessian call per run of points on the same chart; meshes slice
  their vertex fits.
- `transformed(value_map, jac_map, hess_map)`: the image under an ambient
  map with the given derivatives (hess_map None when affine).
- `euler_characteristic()` and `min_nonneighbor_distance()` (inf on charts,
  which carry no neighbour relation).
- `topology`: the `MeshTopology` of a mesh, whose vertex nodes share faces;
  None on charts.
- `distance_to(point)`: distance from a point of R^n to the surface; on
  meshes to the nearest simplex (edge or triangle), on charts to the
  nearest quadrature node at scale 0.25, polished on closed chart surfaces
  to a foot point on that node's graph patch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..errors import UnsupportedInputError

if TYPE_CHECKING:
    from .charts import ChartLocators

__all__ = ["Surface", "NodeSet", "as_surface"]


class Surface:
    """Base of the surfaces that implement the protocol above."""


@dataclass
class NodeSet:
    """Quadrature nodes of a surface.

    locators are what `patches_at` and `curvatures` accept, held as
    arrays: on charts a `ChartLocators`, which indexes, slices and iterates
    like the list of its (chart index, u) pairs; on mesh vertex nodes the
    integer array of vertex indices; None for subdivided mesh faces. The
    str of one locator prints a pair as its repr and a vertex index as a
    plain int. spacing is the mean incident edge length of each vertex on
    mesh vertex nodes, and None otherwise.
    """

    points: np.ndarray       # (N, n)
    weights: np.ndarray      # (N,) includes the volume element
    component: np.ndarray    # (N,) connected-component id
    volume: float            # total volume of the surface under this rule
    locators: ChartLocators | np.ndarray | None = None
    spacing: np.ndarray | None = None


def as_surface(obj) -> Surface:
    """obj itself when it implements the surface protocol."""
    if not isinstance(obj, Surface):
        raise UnsupportedInputError(f"unsupported surface type {type(obj)!r}")
    return obj
