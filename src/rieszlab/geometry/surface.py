"""The surface protocol shared by chart surfaces and simplicial meshes.

The energies, patches and curvature routines reach a surface only through
the members below, so none of them branches on the kind of surface.
`ChartSurface` and `TriMesh` implement them; `as_surface` is the one gate
that turns any other object away.

- `m`, `n`, `name`, `closed`, `oriented`; `patches_fitted` is true when graph
  patches are least-squares fits of discrete data rather than exact.
- `nodes(scale, subdiv=None)`: a quadrature `NodeSet`. Charts use their
  parameter rules at `scale`; meshes use their vertices, or with `subdiv`
  the centroids of every face subdivided `subdiv` times.
- `tangent_nodes(scale)`: `nodes(scale)` with oriented orthonormal tangent
  frames (N, n, m) and a probe: `probe(i, e, scales)` yields, for each s,
  the point a fraction s of node i's spacing away along the tangent
  direction e and a positively oriented tangent basis there.
- `patch_at(locator, radius, shrink=True, measure_bound=True)`: a
  `GraphPatch` at the located point.
- `basis_at(locator)`: the point and a positively oriented tangent basis.
- `frame_at(locator)`: oriented orthonormal (tangent, normal) frames.
- `curvature_at(locator)`: `CurvatureData` at the located point.
- `transformed(value_map, jac_map, hess_map, name=None)`: the image under
  an ambient map with the given derivatives (hess_map None when affine).
- `euler_characteristic()` and `min_nonneighbor_distance()` (inf on charts,
  which carry no neighbour relation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import UnsupportedInputError

__all__ = ["Surface", "NodeSet", "as_surface"]


class Surface:
    """Base of the surfaces that implement the protocol above."""


@dataclass
class NodeSet:
    """Quadrature nodes of a surface.

    locators are what `patch_at` accepts at each node (None for subdivided
    mesh faces); spacing is the local node spacing.
    """

    points: np.ndarray       # (N, n)
    weights: np.ndarray      # (N,) includes the volume element
    component: np.ndarray    # (N,) connected-component id
    volume: float            # total volume of the surface under this rule
    locators: list | None = None
    spacing: np.ndarray | None = None


def as_surface(obj) -> Surface:
    """obj itself when it implements the surface protocol."""
    if not isinstance(obj, Surface):
        raise UnsupportedInputError(f"unsupported surface type {type(obj)!r}")
    return obj
