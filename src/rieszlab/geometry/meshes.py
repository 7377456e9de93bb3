"""Simplicial meshes for curves (m=1) and surfaces (m=2) in R^n.

Faces are oriented simplices given by vertex index tuples; a mesh is closed
when every (m-1)-face is shared by exactly two m-faces with opposite induced
orientation. The connectivity is computed once per set of faces
(`MeshTopology`). OFF and OBJ readers/writers round-trip coordinates
losslessly.
"""

from __future__ import annotations

import copy
import math
from functools import cached_property

import numpy as np

from ..errors import PreconditionError, TopologyError, UnsupportedInputError
from ..quadrature import PairPass, box_middle
from .patches import (PatchStack, cross, dot, fit_curvature,
                      fit_tangent_frames, orthonormal_frames,
                      orthonormal_frames_adjoint, unit_adjoint)
from .surface import NodeSet, Surface

__all__ = [
    "MeshTopology",
    "TriMesh",
    "seed_frames",
    "seed_frames_adjoint",
    "face_vectors",
    "face_vectors_adjoint",
    "face_sizes",
    "euler_characteristic",
    "icosphere",
    "torus_mesh",
    "polygon_circle",
    "mesh_disjoint_union",
    "read_off",
    "write_off",
    "read_obj",
    "write_obj",
]


class MeshTopology:
    """Connectivity of a simplicial mesh, built once from its faces.

    Everything here depends on the faces alone, so meshes on the same faces
    (`TriMesh.with_vertices`, `translated`) share one instance. Every
    vertex lies in some face. The faces are read-only; the adjacency,
    rings, the 2-ring table and components are built on first use, with
    numpy alone (importing scipy.sparse.csgraph would add about 33 MB to
    a process's resident set).
    """

    def __init__(self, faces, m, num_vertices):
        outside = np.flatnonzero(((faces < 0) | (faces >= num_vertices))
                                 .any(axis=1))
        if len(outside):
            f = int(outside[0])
            raise UnsupportedInputError(
                f"face {f} {faces[f].tolist()} has a vertex id outside "
                f"[0, {num_vertices})")
        unused = np.flatnonzero(np.bincount(faces.ravel(),
                                            minlength=num_vertices) == 0)
        if len(unused):
            # it would have no tangent, no ring and no weight
            raise TopologyError(f"vertex {int(unused[0])} is in no face")
        self.faces = faces
        self.faces.flags.writeable = False
        self.m = m
        self.num_vertices = num_vertices
        self._rings = {}
        V = num_vertices
        if m == 1:
            heads = np.bincount(faces[:, 1], minlength=V)
            tails = np.bincount(faces[:, 0], minlength=V)
            closed = bool(np.all(heads == 1) and np.all(tails == 1))
            self.closed = self.oriented = closed
            return
        # each directed edge (a, b) of the triangles, counted with (b, a)
        e = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])
        keys, count = np.unique(e[:, 0] * V + e[:, 1], return_counts=True)
        rev_keys = keys % V * V + keys // V
        pos = np.minimum(np.searchsorted(keys, rev_keys), len(keys) - 1)
        rev = np.where(keys[pos] == rev_keys, count[pos], 0)
        self.oriented = not np.any((count > 1) | (rev > 1))
        self.closed = self.oriented and bool(np.all(count + rev == 2))

    @cached_property
    def adjacency(self):
        """The vertex pairs that share a face in compressed rows, (indptr
        (V + 1,), indices): each vertex's neighbours, sorted."""
        k = np.arange(self.m + 1)
        a, b = np.nonzero(k[:, None] != k[None, :])
        return _compressed_rows(self.faces[:, a].ravel(),
                                self.faces[:, b].ravel(), self.num_vertices)

    def rings(self, depth):
        """Sorted vertex ids within `depth` edges of each vertex, itself
        excluded (depth 1: the vertices sharing a face with it)."""
        if depth not in self._rings:
            indptr, indices = self.adjacency
            V, degree = self.num_vertices, np.diff(indptr)
            rows, cols = np.repeat(np.arange(V), degree), indices
            for _ in range(depth - 1):
                # each pair (a, b) reached, extended by every neighbour of b
                n = degree[cols]
                pos = np.arange(n.sum()) + np.repeat(
                    indptr[cols] - np.cumsum(n) + n, n)
                rows = np.concatenate([rows, np.repeat(rows, n)])
                cols = np.concatenate([cols, indices[pos]])
            keep = rows != cols
            indptr, indices = _compressed_rows(rows[keep], cols[keep], V)
            self._rings[depth] = np.split(indices, indptr[1:-1])
        return self._rings[depth]

    @cached_property
    def ring_table(self):
        """The 2-rings padded to one width: ids (V, R), padding id 0, and a
        float mask (V, R), 1 on ring entries and 0 on padding."""
        rings = self.rings(2)
        count = np.array([len(r) for r in rings])
        mask = np.arange(count.max(initial=0)) < count[:, None]
        idx = np.zeros(mask.shape, dtype=int)
        idx[mask] = np.concatenate(rings)
        return idx, mask.astype(float)

    @cached_property
    def components(self):
        """Connected-component id per vertex (via shared faces), numbered
        in the order of each component's smallest vertex."""
        # hook and jump (Shiloach and Vishkin 1982): every root hooks onto
        # the smallest root next to its tree, then each vertex jumps to its
        # root. Every tree with a neighbour merges, so O(log V) rounds;
        # hooks only go down, so each root is its component's smallest id
        indptr, indices = self.adjacency
        V = self.num_vertices
        rows = np.repeat(np.arange(V), np.diff(indptr))
        parent = np.arange(V)
        while True:
            hooked = parent.copy()
            np.minimum.at(hooked, parent[rows], parent[indices])
            if np.array_equal(hooked, parent):
                break
            parent = hooked
            up = parent[parent]
            while not np.array_equal(up, parent):
                parent, up = up, up[up]
        root = parent == np.arange(V)
        return (np.cumsum(root) - 1)[parent]

    def nonneighbor_min(self, d2, lo):
        """Smallest entry of d2, squared distances from the vertices lo:lo +
        len(d2) to the vertices lo:, once its diagonal and its pairs that
        share a face are set to inf in place (inf when no pair is left)."""
        k, (indptr, indices) = len(d2), self.adjacency
        d2[np.arange(k), np.arange(k)] = math.inf
        row = np.repeat(np.arange(k), np.diff(indptr[lo:lo + k + 1]))
        col = indices[indptr[lo]:indptr[lo + k]] - lo
        d2[row[col >= 0], col[col >= 0]] = math.inf
        return float(d2.min())

    def lumped_weights(self, measures):
        """Vertex weights: 1/(m+1) of the measures (F,) of their faces."""
        return self.vertex_sums(measures / (self.m + 1))

    def vertex_sums(self, values):
        """Sums (V, ...) over each vertex's faces of face values (F, ...),
        added in face order: one gather of `_vertex_faces` and one sum
        over its rows, which numpy adds in row order."""
        zero = np.zeros((1, *values.shape[1:]), dtype=values.dtype)
        return np.concatenate([values, zero])[self._vertex_faces].sum(axis=0)

    def face_sums(self, values):
        """Sums (F, ...) over each face's corners of vertex values (V, ...),
        added in vertex order: the adjoint of `vertex_sums`."""
        return values[self._sorted_corners].sum(axis=0)

    @cached_property
    def _vertex_faces(self):
        """Each vertex's face ids in increasing order, one row per rank
        (D, V), D the most faces at a vertex, padded with the id F: the
        zero row that `vertex_sums` appends."""
        corners = self.faces.ravel()
        order = np.argsort(corners, kind="stable")
        vertex, face = corners[order], order // (self.m + 1)
        count = np.bincount(vertex, minlength=self.num_vertices)
        rank = np.arange(len(order)) - np.repeat(np.cumsum(count) - count,
                                                 count)
        table = np.full((count.max(initial=0), self.num_vertices),
                        len(self.faces))
        table[rank, vertex] = face
        return table

    @cached_property
    def _sorted_corners(self):
        """Each face's vertex ids in increasing order, one row per corner
        (m + 1, F)."""
        return np.sort(self.faces, axis=1).T


def _compressed_rows(rows, cols, V):
    """The distinct pairs (rows, cols) of ids below V in compressed rows,
    (indptr (V + 1,), indices), each row's columns sorted."""
    keys = np.sort(rows * V + cols)
    # np.unique, which hashes, takes 3x as long on a 2-ring's 10^5 keys
    keys = keys[np.diff(keys, prepend=-1) != 0]
    indptr = np.zeros(V + 1, dtype=int)
    np.cumsum(np.bincount(keys // V, minlength=V), out=indptr[1:])
    return indptr, keys % V


def face_vectors(vertices, topology):
    """Per-face vectors (F, n): the edge p1 - p0 of each segment (m = 1),
    (p1 - p0) x (p2 - p0), twice the area vector, of each triangle
    (m = 2). Plain products, so complex-step derivatives go through."""
    p = vertices[topology.faces]
    e = p[:, 1] - p[:, 0]
    return e if topology.m == 1 else cross(e, p[:, 2] - p[:, 0])


def face_vectors_adjoint(vertices, topology, face_bar):
    """Gradient of <face_bar, face_vectors(vertices, topology)> with
    respect to the vertices (V, n)."""
    faces = topology.faces
    if topology.m == 1:
        corners = [-face_bar, face_bar]
    else:
        p = vertices[faces]
        u_bar = cross(p[:, 2] - p[:, 0], face_bar)
        s_bar = cross(face_bar, p[:, 1] - p[:, 0])
        corners = [-u_bar - s_bar, u_bar, s_bar]
    grad = np.zeros(vertices.shape)
    for k, g in enumerate(corners):
        np.add.at(grad, faces[:, k], g)
    return grad


def face_sizes(faces, m):
    """The `face_vectors` faces (F, n) of an m-mesh halved on triangles,
    and their lengths, the faces' m-volumes (F,): no Gram determinant to
    cancel on thin triangles."""
    e = 0.5 * faces if m == 2 else faces
    return e, np.sqrt(dot(e, e))


def _unit(a):
    return a / np.sqrt(dot(a, a))[:, None]


def seed_frames(vertices, topology, faces):
    """Oriented orthonormal seed frames of every vertex, from its faces'
    `face_vectors` faces (F, n): (tangent (V, n, m), normal (V, n, n-m),
    (units, sums)), the last what `seed_frames_adjoint` reads: the unit
    face vectors (F, n) and their sums at each vertex (V, n).

    m = 1: the tangent is the sum of the unit winding directions of its
    edges. m = 2 (in R^3 only): the normal is the normalised sum of the
    unit face normals at the vertex, the first tangent the offset to its
    first 2-ring vertex projected off that normal, the second normal x
    first tangent. Every product is a plain one, so complex-step
    derivatives go through.
    """
    f = _unit(faces)
    a = topology.vertex_sums(f)
    if topology.m == 1:
        return (*orthonormal_frames(a[..., None]), (f, a))
    nrm = _unit(a)
    e = vertices[topology.ring_table[0][:, 0]] - vertices
    e = _unit(e - dot(e, nrm)[:, None] * nrm)
    return np.stack([e, cross(nrm, e)], axis=-1), nrm[..., None], (f, a)


def seed_frames_adjoint(vertices, topology, faces, seed, tangent_bar,
                        normal_bar):
    """Reverse-mode derivative of `seed_frames`: from its faces and its
    output seed, the gradient of <tangent_bar, T> + <normal_bar, N> with
    respect to the vertices (V, n). Real input."""
    tangent, normal, (f, a) = seed
    grad = np.zeros(vertices.shape)
    if topology.m == 1:
        a_bar = orthonormal_frames_adjoint(a[..., None], tangent_bar,
                                           normal_bar)[..., 0]
    else:
        nrm, t = normal[..., 0], tangent[..., 0]
        first = topology.ring_table[0][:, 0]
        e = vertices[first] - vertices
        proj = dot(e, nrm)[:, None]
        e0 = e - proj * nrm
        t_bar, u_bar = tangent_bar[..., 0], tangent_bar[..., 1]
        # u = nrm x t, t = unit(e - <e, nrm> nrm)
        nrm_bar = normal_bar[..., 0] + cross(t, u_bar)
        e0_bar = unit_adjoint(e0, t, t_bar + cross(u_bar, nrm))
        proj_bar = -dot(e0_bar, nrm)[:, None]
        e_bar = e0_bar + proj_bar * nrm
        nrm_bar = nrm_bar - proj * e0_bar + proj_bar * e
        a_bar = unit_adjoint(a, nrm, nrm_bar)
        np.add.at(grad, first, e_bar)
        grad -= e_bar
    f_bar = unit_adjoint(faces, f, topology.face_sums(a_bar))
    return grad + face_vectors_adjoint(vertices, topology, f_bar)


def _segment_distance(x, a, b):
    """Distance from the point x to each segment [a, b] (stacks (F, n))."""
    e = b - a
    t = np.clip(np.sum((x - a) * e, axis=-1) / np.sum(e * e, axis=-1), 0.0, 1.0)
    return np.linalg.norm(x - a - t[:, None] * e, axis=-1)


class TriMesh(Surface):
    """Oriented simplicial m-manifold mesh (m in {1, 2}).

    Implements the surface protocol (`surface.py`); a locator is a vertex
    id. The connectivity lives in a `MeshTopology` shared by every mesh
    made from this one by `with_vertices` or `translated`; each new vertex
    array is checked: in R^3 for triangles, finite, no degenerate simplex.
    The quadratic vertex fits behind `patches_at`, `basis_at` and
    `curvatures` are made for all vertices at once, on first use, and
    dropped with the vertex array they fit: the face seed (`seed_frames`),
    the frame step (`fit_tangent_frames`, which the KS flow runs too) and
    the curvature step (`fit_curvature`).
    """

    def __init__(self, vertices, faces, m):
        if m not in (1, 2):
            raise UnsupportedInputError("mesh dimension m must be 1 or 2")
        faces = np.array(faces, dtype=int)
        if faces.size == 0:
            raise UnsupportedInputError("mesh has no faces")
        if faces.shape[1] != m + 1:
            raise UnsupportedInputError("face tuples must have m+1 vertex ids")
        self.m = m
        self.faces = faces
        self.topology = MeshTopology(faces, m, len(vertices))
        self._set_vertices(vertices, None)
        self.closed = self.topology.closed
        self.oriented = self.topology.oriented

    def _set_vertices(self, vertices, faces):
        """Take the vertex array vertices, whose `face_vectors` are faces
        (None: computed here), and check it."""
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        if self.m == 2 and self.n != 3:
            # face_vectors takes a cross product
            raise UnsupportedInputError("triangle meshes need vertices in R^3")
        if not np.all(np.isfinite(self.vertices)):
            raise UnsupportedInputError("mesh has non-finite vertex coordinates")
        if faces is None:
            faces = face_vectors(self.vertices, self.topology)
        if np.any(face_sizes(faces, self.m)[1] <= 0.0):
            raise TopologyError("mesh contains a degenerate simplex")
        # with_vertices copies the mesh, and with it the fit and the local
        # scale of the old vertices
        self.__dict__.pop("_fits", None)
        self.__dict__.pop("_local_scale", None)

    # -- structure -----------------------------------------------------

    @property
    def n(self) -> int:
        return self.vertices.shape[1]

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_faces(self) -> int:
        return len(self.faces)

    def measures(self) -> np.ndarray:
        """Per-face m-volume (edge lengths / triangle areas)."""
        return face_sizes(face_vectors(self.vertices, self.topology),
                          self.m)[1]

    def face_centroids(self) -> np.ndarray:
        return self.vertices[self.faces].mean(axis=1)

    def face_normals(self) -> np.ndarray:
        """Unit normals from the face winding (m=2 only)."""
        if self.m != 2:
            raise UnsupportedInputError("face normals need m=2 meshes")
        return _unit(face_vectors(self.vertices, self.topology))

    def vertex_weights(self) -> np.ndarray:
        """Lumped quadrature weights: 1/(m+1) of adjacent face measures."""
        return self.topology.lumped_weights(self.measures())

    def local_scale(self) -> np.ndarray:
        """Mean incident edge length per vertex."""
        return self._local_scale

    @cached_property
    def _local_scale(self):
        # each edge's length once, summed onto both of its ends
        (indptr, b), V = self.topology.adjacency, self.num_vertices
        degree = np.diff(indptr)
        a = np.repeat(np.arange(V), degree)
        a, b = a[a < b], b[a < b]
        length = np.linalg.norm(self.vertices[b] - self.vertices[a], axis=-1)
        out = (np.bincount(a, length, minlength=V)
               + np.bincount(b, length, minlength=V))
        out /= degree
        out.flags.writeable = False
        return out

    def min_nonneighbor_distance(self) -> float:
        """Min distance between vertices not sharing any face (inf when
        every pair shares one), over each unordered pair once, one triangle
        pair pass (`PairPass`) on the vertices centred on their bounding
        box's middle (`box_middle`). The KS pair pass centres its points
        the same way, so `ks_energy` and the KS flow, which take the
        separation from their own pass, have its bits; this pass serves
        `ks_energy`'s fallback and every other flow energy."""
        v = self.vertices - box_middle(self.vertices)
        pair_pass = PairPass(v, v, None, 2, float)
        return math.sqrt(min(self.topology.nonneighbor_min(s, lo)
                             for lo, _, _, _, s in pair_pass))

    def distance_to(self, point) -> float:
        """Distance from a point to the nearest simplex of the mesh."""
        p = self.vertices[self.faces]                       # (F, m+1, n)
        x = np.asarray(point, dtype=float)
        if self.m == 1:
            return float(np.min(_segment_distance(x, p[:, 0], p[:, 1])))
        # foot point on each triangle's plane, in barycentric coordinates
        e1, e2, d = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0], x - p[:, 0]
        g11, g12, g22 = (np.sum(e1 * e1, -1), np.sum(e1 * e2, -1),
                         np.sum(e2 * e2, -1))
        b1, b2 = np.sum(d * e1, -1), np.sum(d * e2, -1)
        det = g11 * g22 - g12 * g12
        s = (g22 * b1 - g12 * b2) / det
        t = (g11 * b2 - g12 * b1) / det
        inside = (s >= 0.0) & (t >= 0.0) & (s + t <= 1.0)
        plane = np.linalg.norm(d - s[:, None] * e1 - t[:, None] * e2, axis=-1)
        # outside the triangle the nearest point lies on its boundary
        rim = np.minimum.reduce([_segment_distance(x, p[:, k], p[:, (k + 1) % 3])
                                 for k in range(3)])
        return float(np.min(np.where(inside, plane, rim)))

    def translated(self, shift) -> "TriMesh":
        return self.with_vertices(self.vertices + np.asarray(shift, dtype=float))

    def with_vertices(self, vertices) -> "TriMesh":
        """Mesh on the same faces, sharing this mesh's topology."""
        return self._with_vertices(vertices, None)

    def _with_vertices(self, vertices, faces):
        """`with_vertices`, given the `face_vectors` faces of vertices
        (None: computed), as the flow's line search has them."""
        if len(vertices) != self.num_vertices:
            raise UnsupportedInputError("with_vertices needs one row per vertex")
        mesh = copy.copy(self)
        mesh._set_vertices(vertices, faces)
        return mesh

    # -- surface protocol ----------------------------------------------

    def nodes(self, scale=None, subdiv=None) -> NodeSet:
        """Vertex nodes with lumped weights, or with subdiv the centroids of
        every face subdivided subdiv times; scale is not used."""
        comp, measures = self.topology.components, self.measures()
        volume = float(np.sum(measures))
        if subdiv is None:
            return NodeSet(points=self.vertices,
                           weights=self.topology.lumped_weights(measures),
                           component=comp, volume=volume,
                           locators=np.arange(self.num_vertices),
                           spacing=self.local_scale())
        p = self.vertices[self.faces]                       # (F, m+1, n)
        if self.m == 1:
            k = max(1, 2 ** subdiv)
            ts = ((np.arange(k) + 0.5) / k)[:, None]
            pts = p[:, None, 0] + ts * (p[:, None, 1] - p[:, None, 0])
        else:
            tris = p[:, None]                               # (F, T, 3, n)
            for _ in range(subdiv):
                a, b, c = tris[:, :, 0], tris[:, :, 1], tris[:, :, 2]
                ab, bc, ca = 0.5 * (a + b), 0.5 * (b + c), 0.5 * (c + a)
                kids = [(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)]
                tris = np.stack([np.stack(t, axis=2) for t in kids], axis=2)
                tris = tris.reshape(len(p), -1, 3, self.n)
            pts = (tris[:, :, 0] + tris[:, :, 1] + tris[:, :, 2]) / 3.0
        k = pts.shape[1]
        return NodeSet(points=pts.reshape(-1, self.n),
                       weights=np.repeat(measures / k, k),
                       component=np.repeat(comp[self.faces[:, 0]], k),
                       volume=volume)

    @cached_property
    def _fits(self):
        """Quadratic graph fits of every vertex over its 2-ring, seeded by
        `seed_frames`, as arrays (tangent, normal, coeffs, rms, extent),
        extent 0.9x the ring's largest offset."""
        idx, mask = self.topology.ring_table
        d = self.vertices[idx] - self.vertices[:, None]      # (V, R, n)
        seed = seed_frames(self.vertices, self.topology,
                           face_vectors(self.vertices, self.topology))
        tangent, normal, solve = fit_tangent_frames(d, mask, *seed[:2])
        extent = 0.9 * np.max(np.linalg.norm(d, axis=-1) * mask, axis=1)
        fits = (tangent, normal, *fit_curvature(tangent, normal, solve),
                extent)
        for a in fits:
            a.flags.writeable = False      # patches and frames are views
        return fits

    def basis_at(self, locator):
        return self.vertices[int(locator)], self._fits[0][int(locator)]

    def curvatures(self, locators):
        tangent, normal, coeffs = (a[np.asarray(locators, dtype=int)]
                                   for a in self._fits[:3])
        return tangent, normal, np.moveaxis(coeffs, 1, -1)

    def transformed(self, value_map, jac_map, hess_map):
        return self.with_vertices(value_map(self.vertices))

    def euler_characteristic(self) -> int:
        return euler_characteristic(self)

    def patches_at(self, locators, radius) -> PatchStack:
        """The vertices' quadratic graph fits, each radius capped at 0.9x
        its 2-ring's extent (radius None takes the cap).

        Chord rows are solved in closed form: along eta = xi v the height
        is xi^2 kappa / 2 with kappa_c = v^T C_c v, so xi^2 + |h|^2 = t^2
        gives xi^2 = 2 t^2 / (1 + sqrt(1 + |kappa|^2 t^2)).
        """
        vertex = np.asarray(locators, dtype=int)
        tangent, normal, coeffs, rms, extent = (a[vertex] for a in self._fits)
        radii = extent.copy() if radius is None else np.minimum(radius, extent)

        def height(node, eta):
            eta = np.asarray(eta, dtype=float)
            return 0.5 * np.einsum("...i,...cij,...j->...c", eta,
                                   coeffs[node], eta)

        def height_jacobian(node, eta):
            eta = np.asarray(eta, dtype=float)
            return np.einsum("...cij,...j->...ci", coeffs[node], eta)

        def chord_solve(node, v, t):
            cv = np.einsum("kcij,kj->kci", coeffs[node], v)     # C_c v
            kappa = np.einsum("kci,ki->kc", cv, v)
            kt = np.linalg.norm(kappa, axis=-1) * t
            xi = t * np.sqrt(2.0 / (1.0 + np.sqrt(1.0 + kt * kt)))
            return xi, 0.5 * xi[:, None] ** 2 * kappa, xi[:, None, None] * cv

        return PatchStack(base_point=self.vertices[vertex], tangent=tangent,
                          normal=normal, radii=radii, height=height,
                          height_jacobian=height_jacobian,
                          chord_solve=chord_solve, fit_residual=rms)


def euler_characteristic(mesh: TriMesh) -> int:
    """V - E + F for closed surface meshes; 0 for closed curves. On a closed
    triangle mesh every edge lies in exactly two faces, so E = 3F/2 and
    V - E + F = V - F/2."""
    if not mesh.closed:
        raise TopologyError("Euler characteristic requires a closed mesh")
    if mesh.m == 1:
        return 0
    return mesh.num_vertices - mesh.num_faces // 2


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------

def icosphere(subdiv=1, radius=1.0, center=(0.0, 0.0, 0.0)) -> TriMesh:
    """Subdivided icosahedron projected to the sphere, outward oriented.

    Each subdivision is one array pass: the midpoint of every edge is a new
    vertex, numbered in the order the edge first appears over the faces'
    (ab, bc, ca), and each face (a, b, c) becomes (a, ab, ca), (b, bc, ab),
    (c, ca, bc) and (ab, bc, ca).
    """
    if not (subdiv >= 0 and radius > 0):
        raise PreconditionError(f"icosphere needs subdiv >= 0 and radius > 0, "
                                f"got {subdiv!r} and {radius!r}")
    t = (1.0 + math.sqrt(5.0)) / 2.0
    verts = np.array([
        [-1, t, 0], [1, t, 0], [-1, -t, 0], [1, -t, 0],
        [0, -1, t], [0, 1, t], [0, -1, -t], [0, 1, -t],
        [t, 0, -1], [t, 0, 1], [-t, 0, -1], [-t, 0, 1],
    ], dtype=float)
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    faces = np.array([
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ])
    for _ in range(subdiv):
        # the edges ab, bc, ca of each face, face by face
        edges = np.stack([faces, np.roll(faces, -1, axis=1)], axis=-1)
        edges = edges.reshape(-1, 2)
        key = edges.min(axis=1) * len(verts) + edges.max(axis=1)
        _, first, slot = np.unique(key, return_index=True,
                                   return_inverse=True)
        # the slots where an edge first appears, in order, number the
        # new vertices
        is_first = np.zeros(len(edges), dtype=bool)
        is_first[first] = True
        number = np.cumsum(is_first) + (len(verts) - 1)
        i, j = edges[is_first].T
        p = verts[i] + verts[j]
        # the bits of np.linalg.norm of each row, which a row-wise sum of
        # squares or einsum does not always give
        p /= np.sqrt(p[:, None, :] @ p[:, :, None])[:, 0]
        verts = np.concatenate([verts, p])
        ab, bc, ca = number[first][slot.reshape(-1, 3)].T
        a, b, c = faces.T
        faces = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca],
                         axis=-1).reshape(-1, 3)
    pts = verts * float(radius) + np.asarray(center, dtype=float)
    mesh = TriMesh(pts, faces, 2)
    # Ensure outward orientation.
    ctr = np.asarray(center, dtype=float)
    nrm = mesh.face_normals()
    outward = np.einsum("ij,ij->i", nrm, mesh.face_centroids() - ctr)
    if np.mean(outward > 0) < 0.5:
        mesh = TriMesh(pts, mesh.faces[:, ::-1], 2)
    return mesh


def torus_mesh(n_u=24, n_v=48, major=2.0, minor=0.5) -> TriMesh:
    th = 2 * math.pi * np.arange(n_u) / n_u
    ph = 2 * math.pi * np.arange(n_v) / n_v
    T, P = np.meshgrid(th, ph, indexing="ij")
    w = major + minor * np.cos(T)
    pts = np.stack([w * np.cos(P), w * np.sin(P), minor * np.sin(T)],
                   axis=-1).reshape(-1, 3)
    # the quad (i, j) is split into (a, b, c) and (a, c, d), with a at
    # (i, j), b at (i + 1, j), c at (i + 1, j + 1) and d at (i, j + 1)
    i = np.arange(n_u)[:, None] * n_v
    i1 = np.roll(i, -1, axis=0)
    j = np.arange(n_v)
    j1 = np.roll(j, -1)
    a, b, c, d = i + j, i1 + j, i1 + j1, i + j1
    faces = np.stack([a, b, c, a, c, d], axis=-1).reshape(-1, 3)
    return TriMesh(pts, faces, 2)


def polygon_circle(n=64, radius=1.0) -> TriMesh:
    if not (n >= 3 and radius > 0):
        raise PreconditionError(f"a polygon needs n >= 3 and radius > 0, "
                                f"got {n!r} and {radius!r}")
    th = 2 * math.pi * np.arange(n) / n
    pts = np.stack([radius * np.cos(th), radius * np.sin(th)], axis=-1)
    faces = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=-1)
    return TriMesh(pts, faces, 1)


def mesh_disjoint_union(a: TriMesh, b: TriMesh) -> TriMesh:
    if a.m != b.m or a.n != b.n:
        raise UnsupportedInputError("disjoint union requires matching dimensions")
    verts = np.concatenate([a.vertices, b.vertices])
    faces = np.concatenate([a.faces, b.faces + a.num_vertices])
    return TriMesh(verts, faces, a.m)


# ----------------------------------------------------------------------
# file IO (ASCII OFF / OBJ); floats printed with 17 significant digits
# ----------------------------------------------------------------------

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_off(mesh: TriMesh, path) -> None:
    lines = ["OFF", f"{mesh.num_vertices} {mesh.num_faces} 0"]
    for v in mesh.vertices:
        lines.append(" ".join(_fmt(x) for x in v))
    for f in mesh.faces:
        lines.append(str(len(f)) + " " + " ".join(str(int(i)) for i in f))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_off(path) -> TriMesh:
    with open(path) as fh:
        tokens = []
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                tokens.extend(line.split())
    if not tokens or tokens[0] != "OFF":
        raise UnsupportedInputError(f"{path}: not an OFF file")
    nv, nf = int(tokens[1]), int(tokens[2])
    pos = 4
    # Vertex dimensionality is inferred from the layout.
    remaining = tokens[pos:]
    # try n=3 first, fall back to n=2
    for n in (3, 2):
        need = nv * n
        if len(remaining) > need:
            try:
                cnt = int(remaining[need])
            except ValueError:
                continue
            if cnt in (2, 3):
                verts = np.array(remaining[:need], dtype=float).reshape(nv, n)
                idx = need
                faces = []
                for _ in range(nf):
                    c = int(remaining[idx])
                    faces.append([int(t) for t in remaining[idx + 1: idx + 1 + c]])
                    idx += 1 + c
                faces = np.asarray(faces)
                return TriMesh(verts, faces, faces.shape[1] - 1)
    raise UnsupportedInputError(f"{path}: malformed OFF file")


def write_obj(mesh: TriMesh, path) -> None:
    lines = []
    for v in mesh.vertices:
        coords = list(v) + [0.0] * (3 - len(v))
        lines.append("v " + " ".join(_fmt(x) for x in coords))
    tag = "l" if mesh.m == 1 else "f"
    for f in mesh.faces:
        lines.append(tag + " " + " ".join(str(int(i) + 1) for i in f))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_obj(path) -> TriMesh:
    verts, faces, m = [], [], None
    with open(path) as fh:
        for line in fh:
            parts = line.split("#", 1)[0].split()
            if not parts:
                continue
            if parts[0] == "v":
                verts.append([float(x) for x in parts[1:4]])
            elif parts[0] in ("f", "l"):
                ids = [int(tok.split("/")[0]) - 1 for tok in parts[1:]]
                faces.append(ids)
                m = len(ids) - 1
    if m is None:
        raise UnsupportedInputError(f"{path}: no faces found")
    verts = np.asarray(verts, dtype=float)
    if m == 1 and np.allclose(verts[:, 2], 0.0):
        verts = verts[:, :2]
    return TriMesh(verts, np.asarray(faces), m)
