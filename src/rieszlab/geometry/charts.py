"""Parametric chart surfaces: catalog, quadrature rules, and map wrappers.

A chart is a smooth map from a parameter box in R^m into R^n carrying
analytic first and second derivatives (batched over parameter arrays).
A ChartSurface is a list of charts with orientation fixed by parameter
order, plus per-chart quadrature rules used for global integration. Its
graph patches are one `PatchStack` for all located points, whatever their
charts, and one Newton in chart parameters solves every row of it: the
graph points of `height` and `height_jacobian` and the chord rows of
`chord_solve`, each with its own residual.
"""

from __future__ import annotations

import copy
import itertools
import math
import threading
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..errors import (NumericalError, PatchRadiusError, PreconditionError,
                      UnsupportedInputError)
from ..quadrature import gauss_legendre
from .patches import (PatchStack, curvature_radius, dot,
                      orthonormal_frames)
from .surface import NodeSet, Surface

__all__ = [
    "Chart",
    "ChartLocators",
    "ChartSurface",
    "make_circle",
    "make_sphere",
    "make_ellipsoid",
    "make_torus",
    "make_cylinder_patch",
    "make_saddle_surface",
    "make_disk",
    "make_disjoint_union",
    "orthonormal_frames",
]


# Newton iterations of the chart patch Newton before it gives up.
NEWTON_MAX_ITER = 60


def _inv_small(A):
    """Batched inverse of (..., m, m) stacks, m in {1, 2}, in closed form."""
    if A.shape[-1] == 1:
        return 1.0 / A
    det = A[..., 0, 0] * A[..., 1, 1] - A[..., 0, 1] * A[..., 1, 0]
    inv = np.stack([np.stack([A[..., 1, 1], -A[..., 0, 1]], axis=-1),
                    np.stack([-A[..., 1, 0], A[..., 0, 0]], axis=-1)],
                   axis=-2)
    return inv / det[..., None, None]


def _tdots(M, x):
    """The components of M^T x per row of M (..., a, b), x (..., a), each
    summed in component order (no conjugation)."""
    return [dot(M[..., j], x) for j in range(M.shape[-1])]


def _dot_rows(a, b, out, tmp):
    """out = sum_i a[i] b[i] for rows a[i], b[i] (R,), summed in row order
    in place; tmp is an (R,) scratch row."""
    np.multiply(a[0], b[0], out=out)
    for ai, bi in zip(a[1:], b[1:]):
        out += np.multiply(ai, bi, out=tmp)
    return out


def _heights(N, d):
    """N^T d per row of N (..., n, c), d (..., n): one einsum on a
    contiguous N, whose summation order (it pairs the terms of a contiguous
    axis of 3 as (0 + 2) + 1) every graph patch's heights carry."""
    return np.einsum("...ij,...i->...j", np.ascontiguousarray(N), d)


def _pull_back(N, H, A):
    """h_abc = sum over n, p, q of N_nc H_npq A_pa A_qb per row of N
    (K, n, c), H (K, n, m, m), A (K, m, m): plain products taken left to
    right and summed in (n, p, q) order, the order of numpy's unoptimized
    four-operand einsum, so its bits."""
    n, m, c = H.shape[1], H.shape[-1], N.shape[-1]
    out = np.empty((len(H), m, m, c))
    for a in range(m):
        for b in range(m):
            for k in range(c):
                out[:, a, b, k] = sum(
                    N[:, i, k] * H[:, i, p, q] * A[:, p, a] * A[:, q, b]
                    for i in range(n) for p in range(m) for q in range(m))
    return out


def _chain_hessian(H, J):
    """h_ipq = sum over j, k of H_ijk J_jp J_kq per row of H (..., n, n, n),
    J (..., n, m): plain products taken left to right and summed in (j, k)
    order, the order of numpy's unoptimized three-operand einsum, so its
    bits. The rows go last, so that every product runs along them."""
    n = J.shape[-2]
    H = np.ascontiguousarray(np.moveaxis(H, (-3, -2, -1), (0, 1, 2)))
    J = np.ascontiguousarray(np.moveaxis(J, (-2, -1), (0, 1)))
    out = sum(H[:, j, k, None, None] * J[j, None, :, None]
              * J[k, None, None, :] for j in range(n) for k in range(n))
    return np.moveaxis(out, (0, 1, 2), (-3, -2, -1))


def _solve_steps(A, b, s, tmp):
    """The Newton steps s of A s = b per row, in closed form and in place:
    A (m, m, R), b and s (m, R), tmp (2, R) scratch rows, m in {1, 2}
    (`orthonormal_frames` admits no other m)."""
    if len(b) == 1:
        np.divide(b[0], A[0, 0], out=s[0])
        return
    det, t = tmp[0], tmp[1]
    np.multiply(A[0, 0], A[1, 1], out=det)
    det -= np.multiply(A[0, 1], A[1, 0], out=t)
    np.multiply(b[0], A[1, 1], out=s[0])
    s[0] -= np.multiply(b[1], A[0, 1], out=t)
    s[0] /= det
    np.multiply(b[1], A[0, 0], out=s[1])
    s[1] -= np.multiply(b[0], A[1, 0], out=t)
    s[1] /= det


def _grad_height(J, T, N):
    """grad h = (N^T J)(T^T J)^-1 per row of J and T, both (n, m, R) by
    component rows, and N (R, n, c), m in {1, 2}, the inverse in closed
    form by component: (R, c, m)."""
    n, m = J.shape[:2]
    # tj[k][i] = (T^T J)_ik, nj[k][c] = (N^T J)_ck
    tj = [[sum(T[a, i] * J[a, k] for a in range(n)) for i in range(m)]
          for k in range(m)]
    if m == 1:
        inv = [[1.0 / tj[0][0]]]
    else:
        det = tj[0][0] * tj[1][1] - tj[1][0] * tj[0][1]
        inv = [[tj[1][1] / det, -tj[1][0] / det],
               [-tj[0][1] / det, tj[0][0] / det]]
    nj = [[sum(N[:, a, c] * J[a, k] for a in range(n))
           for c in range(N.shape[-1])] for k in range(m)]
    out = np.empty((J.shape[-1], N.shape[-1], m))
    for c in range(N.shape[-1]):
        for j in range(m):
            out[:, c, j] = sum(nj[i][c] * inv[i][j] for i in range(m))
    return out


def _volume_element(jac):
    """The volume element of a chart per row of its Jacobian (..., n, m),
    m in {1, 2}, in closed form: |d_0 x| on curves and, on surfaces, the
    square root of the sum of the squared 2 x 2 minors of the Jacobian,
    in the order of their row pairs (Lagrange's identity: sqrt(det J^T J),
    in R^3 |d_0 x x d_1 x|). A sum of squares cannot cancel or go negative,
    as the Gram determinant EG - F^2 does on a thin chart."""
    a = jac[..., 0]
    if jac.shape[-1] == 1:
        return np.sqrt(dot(a, a))
    b = jac[..., 1]
    return np.sqrt(sum((a[..., i] * b[..., j] - a[..., j] * b[..., i]) ** 2
                       for i, j in itertools.combinations(range(jac.shape[-2]),
                                                          2)))


class Chart:
    """One smooth parametric piece of a surface.

    value/jacobian/hessian accept parameter arrays of shape (..., m) and
    return (..., n), (..., n, m), (..., n, m, m). repatch, when set, maps a
    stack of base parameters u0 (B, m) to a stack of B equivalent charts,
    each well conditioned around its point (used to move coordinate poles
    away from patch centers), and the points' parameters in them. The maps
    of a stack take one parameter row per chart, u (B, m), and its
    take(idx) is the stack of the charts idx; take is None on a single
    chart. `fill` is the one evaluation of a chart's rows, the patch
    Newton's: both, when set, is that evaluation, both(u, x, jac) writing
    value(u) and jacobian(u) for parameters u (m, R) into the rows x[i] and
    jac[i, j] of x (n, R) and jac (n, m, R), with the bits of the two
    separate maps; a chart without it is evaluated by value and jacobian
    and copied into the rows. A spheroid stack (a central projection)
    serves only the patch Newton, so it has both alone: trig-free, it writes
    each output component straight into the Newton's component buffers,
    and its value, jacobian, hessian and param_rule are None. component is
    the chart's connected-component label, 0 until `make_disjoint_union`
    renumbers it.
    """

    def __init__(self, m, n, value, jacobian, hessian, param_rule,
                 repatch=None, take=None, both=None):
        self.m = int(m)
        self.n = int(n)
        self.value = value
        self.jacobian = jacobian
        self.hessian = hessian
        self.param_rule = param_rule
        self.component = 0
        self.repatch = repatch
        self.take = take
        self.both = both

    def fill(self, u, x, jac):
        """value(u) and jacobian(u) into the rows of x (n, R) and jac
        (n, m, R), for parameters u (m, R) given by component rows."""
        if self.both is not None:
            self.both(u, x, jac)
            return
        uu = u.T.copy()
        x[...] = self.value(uu).T
        jac[...] = self.jacobian(uu).transpose(1, 2, 0)


class ChartLocators(Sequence):
    """The locators of chart nodes as arrays: chart index (N,) and
    parameters u (N, m), read-only. Indexed like the list of pairs it
    stands for: item i is (chart index, row i of u) as a Python int and a
    view, a slice is again ChartLocators, and iteration yields the items in
    order. `ChartSurface._runs` reads the arrays themselves."""

    def __init__(self, index, params):
        self.index, self.params = index, params
        for a in (index, params):
            a.flags.writeable = False

    def __len__(self):
        return len(self.index)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return ChartLocators(self.index[i], self.params[i])
        return int(self.index[i]), self.params[i]


@dataclass
class ChartSurface(Surface):
    """Closed (or open) m-submanifold of R^n given by parametric charts.

    Implements the surface protocol (`surface.py`). A locator is a pair
    (chart index, parameter u) or a bare u on chart 0. Every node of a chart
    carries that chart's component label (`make_disjoint_union`); every
    row of a graph patch is evaluated by `Chart.fill`.
    """

    m: int
    n: int
    charts: list
    closed: bool
    euler_char: int | None

    oriented = True          # by the parameter order of every chart
    topology = None          # no neighbour relation between nodes

    def quadrature(self, scale: float) -> NodeSet:
        """Every chart's parameter rule at scale, weighted by its volume
        element in closed form (`_volume_element`); the locators are the
        `ChartLocators` of (chart index, u)."""
        pts, wts, index, params, comp = [], [], [], [], []
        for k, chart in enumerate(self.charts):
            u, w = chart.param_rule(scale)
            pts.append(chart.value(u))
            wts.append(w * _volume_element(chart.jacobian(u)))
            index.append(np.full(len(w), k))
            params.append(np.reshape(u, (len(w), -1)))
            comp.append(np.full(len(w), chart.component, dtype=int))
        weights = np.concatenate(wts)
        return NodeSet(points=np.concatenate(pts), weights=weights,
                       component=np.concatenate(comp),
                       volume=float(np.sum(weights)),
                       locators=ChartLocators(np.concatenate(index),
                                              np.concatenate(params)))

    # -- surface protocol ----------------------------------------------

    def locate(self, locator):
        """(chart index, parameter u (m,)) of a locator."""
        (k, u), = self._runs([locator])
        return k, u[0]

    def _runs(self, locators):
        """(chart index, parameters (B, m)) of each run of located points
        on the same chart, in order. The one reader of locators: it reads
        the arrays of `ChartLocators` as they are, and first turns any
        other list, of pairs (chart index, u) or bare u on chart 0, into
        them."""
        if not isinstance(locators, ChartLocators):
            located = [loc if isinstance(loc, tuple) and len(loc) == 2
                       and np.isscalar(loc[0]) else (0, loc)
                       for loc in locators]
            us = [u for _, u in located]
            try:
                u = np.array(us, dtype=float).reshape(len(us), -1)
            except ValueError:          # scalar and (1,) parameters mixed
                u = np.array([np.atleast_1d(x) for x in us], dtype=float)
            locators = ChartLocators(
                np.array([k for k, _ in located], dtype=int), u)
        ks, u = locators.index, locators.params
        cuts = [0, *(np.flatnonzero(np.diff(ks)) + 1), len(ks)]
        return [(int(ks[a]), u[a:b]) for a, b in zip(cuts[:-1], cuts[1:])]

    def nodes(self, scale, subdiv=None) -> NodeSet:
        return self.quadrature(scale)

    def basis_at(self, locator):
        idx, u = self.locate(locator)
        chart = self.charts[idx]
        return chart.value(u), chart.jacobian(u)

    def curvatures(self, locators):
        """Frames and second fundamental forms at the located points, one
        Jacobian and one Hessian call per run of points on the same chart:
        h = N^T H(A., A.) with A = (T^T J)^-1, the Hessian pulled back to
        the coordinates of the orthonormal tangent frame."""
        out = []
        for k, u in self._runs(locators):
            chart = self.charts[k]
            jac = chart.jacobian(u)
            tangent, normal = orthonormal_frames(jac)
            A = _inv_small(np.swapaxes(tangent, -1, -2) @ jac)
            out.append((tangent, normal,
                        _pull_back(normal, chart.hessian(u), A)))
        return tuple(np.concatenate(parts) for parts in zip(*out))

    def transformed(self, value_map, jac_map, hess_map):
        """Every chart composed with an ambient map given by its rules.

        value_map(x) -> y, jac_map(x) -> (..., n, n), hess_map(x) ->
        (..., n, n, n) with hess_map[..., i, a, b] = d^2 y_i / dx_a dx_b
        (None for affine maps). Quadrature weights are rebuilt from the
        composed Jacobians, so the rule stays consistent on the image.
        """
        def wrap_chart(chart):
            f, J, H = chart.value, chart.jacobian, chart.hessian

            def value(u):
                return value_map(f(u))

            def jacobian(u):
                return np.einsum("...ij,...jp->...ip", jac_map(f(u)), J(u))

            def hessian(u):
                x = f(u)
                Ju = J(u)
                first = np.einsum("...ij,...jpq->...ipq", jac_map(x), H(u))
                if hess_map is None:
                    return first
                return first + _chain_hessian(hess_map(x), Ju)

            def both(u, x, jac):
                # the chart's rows, then the maps on contiguous (R, n) and
                # (R, n, m) copies, which fix the einsum's summation order
                y = np.empty((chart.n, u.shape[-1]))
                Ju = np.empty((chart.n, chart.m, u.shape[-1]))
                chart.fill(u, y, Ju)
                y = np.ascontiguousarray(y.T)
                x[...] = value_map(y).T
                jac[...] = np.einsum(
                    "...ij,...jp->...ip", jac_map(y),
                    np.ascontiguousarray(Ju.transpose(2, 0, 1))
                ).transpose(1, 2, 0)

            repatch = take = None
            if chart.repatch is not None:
                def repatch(u0):
                    base2, u02 = chart.repatch(u0)
                    return wrap_chart(base2), u02
            if chart.take is not None:
                def take(idx):
                    return wrap_chart(chart.take(idx))

            wrapped = Chart(chart.m, chart.n, value, jacobian, hessian,
                            chart.param_rule, repatch=repatch, take=take,
                            both=both)
            wrapped.component = chart.component
            return wrapped

        return ChartSurface(self.m, self.n, [wrap_chart(c) for c in self.charts],
                            self.closed, self.euler_char)

    def euler_characteristic(self) -> int:
        if self.euler_char is None:
            raise PreconditionError("surface needs a known Euler characteristic")
        return self.euler_char

    def min_nonneighbor_distance(self) -> float:
        return math.inf

    def distance_to(self, point) -> float:
        """Distance from a point to the nearest quadrature node at scale
        0.25 (an upper bound of its distance to the surface), polished on
        closed surfaces when the point lies within that node's curvature
        radius: then the distance to the foot point over its tangent
        coordinates on the node's graph patch, trusted only inside the
        patch radius, is exact up to rounding for points of the surface.
        Open charts carry no parameter domain, so a foot point there could
        lie beyond the edge; they keep the node distance."""
        x = np.asarray(point, dtype=float)
        rule = self.quadrature(0.25)
        dist = np.linalg.norm(rule.points - x, axis=-1)
        i = int(np.argmin(dist))
        near = float(dist[i])
        loc = rule.locators[i]
        if not self.closed:
            return near
        radius = curvature_radius(self.curvatures([loc])[2])
        if near >= radius:
            return near
        stack = self.patches_at([loc], radius)
        eta = (x - stack.base_point[0]) @ stack.tangent[0]
        if np.linalg.norm(eta) >= radius:
            return near
        foot = (stack.base_point[0] + stack.tangent[0] @ eta
                + stack.normal[0] @ stack.height(np.zeros(1, dtype=int),
                                                 eta[None])[0])
        return min(near, float(np.linalg.norm(x - foot)))

    def patches_at(self, locators, radius) -> PatchStack:
        """Graph patches at the located points, one stack for all of them.

        Each run of points on the same chart is repatched once; one row map
        then sends every row of the stack to its own chart, or to its own
        chart of a chart stack (`Chart.take`). The build solves nothing:
        every node gets the requested radius, which `radial_profile`
        validates on the node's own chord rows. The graph points of
        `height` and `height_jacobian` and the chord rows of `chord_solve`
        are all solved by one Newton in chart parameters. A failure names
        the chart of its first failing run and every failing node."""
        runs = []                   # (chart index, chart, parameters (B_k, m))
        for k, u0 in self._runs(locators):
            chart = self.charts[k]
            if chart.repatch is not None:
                chart, u0 = chart.repatch(u0)
            runs.append((k, chart, u0))
        sizes = [len(u) for *_, u in runs]
        start = np.cumsum([0, *sizes])                # each run's first node
        run = np.repeat(np.arange(len(runs)), sizes)  # each node's run
        m, n = self.m, self.n
        nm = n * m

        def on_run(k, node):
            chart = runs[k][1]
            return chart if chart.take is None else chart.take(node - start[k])

        def maps(node):
            """The `Chart.fill` of the charts of rows of the stack nodes
            node."""
            if len(runs) == 1:
                return on_run(0, node).fill
            part, calls = run.take(node), []
            for k in np.unique(part):
                sel = np.flatnonzero(part == k)
                calls.append((sel, on_run(k, node[sel])))

            def fill(u, x, jac):
                for sel, chart in calls:
                    xs = np.empty((n, len(sel)))
                    js = np.empty((n, m, len(sel)))
                    chart.fill(u[:, sel], xs, js)
                    x[:, sel] = xs
                    jac[:, :, sel] = js
            return fill

        def first_run(nodes):
            """The chart of the first run among failing nodes, and them."""
            return f"chart {runs[run.take(nodes).min()][0]}", np.unique(nodes)

        u0 = np.concatenate([u for *_, u in runs])
        x0 = np.empty((len(u0), n))
        jac0 = np.empty((len(u0), n, m))
        maps(np.arange(len(u0)))(u0.T, x0.T, jac0.transpose(1, 2, 0))
        tangent, normal = orthonormal_frames(jac0)
        A0 = _inv_small(np.stack([np.stack(_tdots(tangent, jac0[..., k]), -1)
                                  for k in range(m)], axis=-1))
        tx0 = np.stack(_tdots(tangent, x0), axis=-1)
        # the per-node data of the Newton's rows, by component
        u0_rows, x0_rows = u0.T, x0.T
        A0_rows, T_rows = A0.transpose(1, 2, 0), tangent.transpose(1, 2, 0)
        # Absolute stopping floor of the chord Newton: 16 ulps of the
        # coordinates, above the rounding that x(u) - x0 leaves in the residuals
        # (a floor near one ulp stalls at the smallest radii).
        floor = 16.0 * np.finfo(float).eps * (np.linalg.norm(x0, axis=-1)
                                               + float(radius))
        # each thread's row buffer of the Newton, kept across its solves
        work = threading.local()
        chord_k = n + 3 + (n if m == 2 else 0)  # data rows of a chord solve

        def width(k):
            """Rows of the Newton's buffer with k data rows: u, data, tol,
            x, jac and the residual, which retiring rows compacts, then
            the system, the steps, two scratch rows and the outputs."""
            return 3 * m + m * m + 3 + 2 * (n + nm) + k

        def buffer(count):
            """This thread's row buffer, as wide as a chord solve's and at
            least count long: grown to a multiple of 1024 rows, so that the
            chord solves of one call of `riesz_energy` share it."""
            buf = getattr(work, "rows", None)
            if buf is None or buf.shape[1] < count:
                work.rows = buf = None          # free the old buffer first
                work.rows = buf = np.empty((width(chord_k),
                                            -(-count // 1024) * 1024))
            return buf

        def newton(node, w, tol, k, data, residual, system):
            """The one Newton in chart parameters, over R rows of the stack
            nodes node (R,), started at u0 + A0 w for w (m, R).

            Every row quantity is a contiguous (R,) row of this thread's
            buffer, written in place: u, the k data rows that data(rows)
            writes into rows (k, R) and the residual reads, tol (R,), the
            chart values x (n, R) and jac (n, m, R) (`Chart.fill`), the
            residual (m, R), the m x m system and the steps. residual(x,
            data, res, tmp) writes the residual components and may leave
            another vector in x, which is what is returned; system(jac, x,
            data, A, tmp) writes the rows A (m, m, R) of the Newton system;
            tmp is scratch. The step is solved in closed form and clamped to
            +-1 against wild steps near chart degeneracies. Converged rows
            are retired once they are a quarter of the batch: their x and
            jac go to the output rows, and the rows left are compacted in
            place; until then they stay in the batch with a zero step.
            Returns x (n, R) and jac (n, m, R) of every converged row, views
            of the buffer valid until the thread's next solve, and the rows
            still unconverged at the last check.
            """
            R = len(node)
            o_x = m + k + 1                       # u, data, tol
            live = o_x + n + nm + m               # x, jac, res
            o_out = live + m * m + m + 2          # A, steps, tmp
            buf = buffer(R)[:width(k), :R]
            for a in range(m):                    # u = u0 + A0 w
                u = buf[a]
                np.multiply(A0_rows[a, 0].take(node), w[0], out=u)
                for b in range(1, m):
                    u += A0_rows[a, b].take(node) * w[b]
                u += u0_rows[a].take(node)
            data(buf[m:m + k])
            buf[m + k] = tol
            out_x = buf[o_out:o_out + n]
            out_jac = buf[o_out + n:].reshape(n, m, R)

            def views(rows):
                b = buf[:, :rows]
                return (b[:m], b[m:m + k], b[m + k], b[o_x:o_x + n],
                        b[o_x + n:o_x + n + nm].reshape(n, m, rows),
                        b[live - m:live],
                        b[live:live + m * m].reshape(m, m, rows),
                        b[live + m * m:live + m * m + m],
                        b[live + m * m + m:o_out])

            u, data, tol, x, jac, res, A, steps, tmp = views(R)
            idx, at = np.arange(R), maps(node)
            for _ in range(NEWTON_MAX_ITER):
                at(u, x, jac)
                residual(x, data, res, tmp[0])
                bad = np.abs(res[0]) > tol
                for r in res[1:]:
                    bad |= np.abs(r) > tol
                n_bad = int(np.count_nonzero(bad))
                if n_bad == 0 or 4 * n_bad < 3 * len(bad):
                    done = np.flatnonzero(~bad)
                    rows = idx[done]
                    for out, row in zip((*out_x, *out_jac.reshape(nm, R)),
                                        (*x, *jac.reshape(nm, -1))):
                        out[rows] = row[done]
                    if not n_bad:
                        return out_x, out_jac, idx[:0]
                    keep = np.flatnonzero(bad)
                    for row in buf[:live, :len(bad)]:
                        row[:n_bad] = row[keep]
                    idx, bad = idx[keep], bad[keep]
                    u, data, tol, x, jac, res, A, steps, tmp = views(n_bad)
                    at = maps(node.take(idx))
                system(jac, x, data, A, tmp[0])
                _solve_steps(A, res, steps, tmp)
                for j in range(m):
                    s = np.clip(steps[j], -1.0, 1.0, out=steps[j])
                    if n_bad == len(bad):
                        u[j] -= s
                    else:
                        np.subtract(u[j], s, out=u[j], where=bad)
            return out_x, out_jac, idx[bad]

        def graph_residual(x, data, res, tmp):
            """T^T x(u) - (T^T x0 + eta), data the rows of T and then of
            the target."""
            for i in range(m):
                _dot_rows(data[i:nm:m], x, res[i], tmp)
                res[i] -= data[nm + i]

        def graph_system(jac, x, data, A, tmp):
            for i in range(m):
                for j in range(m):
                    _dot_rows(jac[:, j], data[i:nm:m], A[i, j], tmp)

        def graph_solve(node, eta):
            """x and jac at the graph points over eta (R, m) of the stack
            nodes node (R,), and the rows left unconverged."""
            tol = 1e-13 * (1.0 + np.linalg.norm(eta, axis=-1))

            def data(rows):
                # mode="clip" (the nodes are in range): take writes into
                # out unbuffered
                for c in range(n):
                    for i in range(m):
                        T_rows[c, i].take(node, out=rows[c * m + i],
                                          mode="clip")
                for i in range(m):
                    np.add(eta[:, i], tx0[:, i].take(node), out=rows[nm + i])
            return newton(node, eta.T, tol, nm + m, data, graph_residual,
                          graph_system)

        def graph_rows(node, eta):
            node, eta = np.ravel(node), np.asarray(eta, dtype=float)
            x, jac, failed = graph_solve(node, eta.reshape(len(node), -1))
            if len(failed):
                where, nodes = first_run(node[failed])
                raise PatchRadiusError(
                    "graph-patch Newton did not converge inside the requested "
                    f"radius ({where})", node=nodes.tolist())
            return node, x, jac

        def height(node, eta):
            node, x, _ = graph_rows(node, eta)
            d = np.ascontiguousarray(x.T) - x0[node]
            return _heights(normal[node], d).reshape(
                np.shape(eta)[:-1] + (-1,))

        def height_jacobian(node, eta):
            node, _, jac = graph_rows(node, eta)
            dh = _grad_height(jac, T_rows[..., node], normal[node])
            return dh.reshape(np.shape(eta)[:-1] + dh.shape[1:])

        def chord_residual(x, data, res, tmp):
            """(|d|^2 - t^2) / (2 t), the distance residual in length units,
            and for m = 2 <d, T v_perp>, with d = x(u) - x0 left in x; data
            the rows x0, t, t^2, 2 t and for m = 2 T v_perp."""
            x -= data[:n]
            r = _dot_rows(x, x, res[0], tmp)
            r -= data[n + 1]
            r /= data[n + 2]
            if m == 2:
                _dot_rows(x, data[n + 3:], res[1], tmp)

        def chord_system(jac, d, data, A, tmp):
            """Rows J^T d / t and, for m = 2, J^T T v_perp."""
            for j in range(m):
                _dot_rows(jac[:, j], d, A[0, j], tmp)
                A[0, j] /= data[n]
                if m == 2:
                    _dot_rows(jac[:, j], data[n + 3:], A[1, j], tmp)

        def chord_solve(node, v, t):
            """(xi, h, grad h) at chord distance t along tangent directions v.

            Newton in the chart parameter u, one row per (node, v, t), on
            |x(u) - x0| = t together with <v_perp, T^T (x(u) - x0)> = 0 for
            m = 2 (the distance equation alone for m = 1); the converged point
            must lie on the ray's side, <v, T^T (x(u) - x0)> > 0. xi is read
            as sqrt(t^2 - |h|^2): reading it from T^T (x(u) - x0) cancels to
            about 1e-12 relative at the smallest radii.
            """
            node = np.asarray(node)
            v = np.asarray(v, dtype=float)
            t = np.asarray(t, dtype=float)

            def data(rows):
                for i in range(n):
                    x0_rows[i].take(node, out=rows[i], mode="clip")
                rows[n] = t
                np.multiply(t, t, out=rows[n + 1])
                np.multiply(2.0, t, out=rows[n + 2])
                if m == 2:              # T v_perp, v_perp = (-v_1, v_0)
                    perp = (-v[:, 1], v[:, 0])
                    for c in range(n):
                        rows[n + 3 + c] = sum(T_rows[c, j].take(node) * p
                                              for j, p in enumerate(perp))
            d, jac, failed = newton(node, [t * v[:, j] for j in range(m)],
                                    1e-13 * t + floor.take(node),
                                    chord_k, data,
                                    chord_residual, chord_system)
            if len(failed):
                where, nodes = first_run(node[failed])
                raise NumericalError(
                    f"chord Newton did not converge on {len(failed)} rows "
                    f"({where}); is t beyond the patch?", node=nodes.tolist())
            T = T_rows.take(node, axis=-1)
            wrong = sum(sum(T[i, j] * d[i] for i in range(n)) * v[:, j]
                        for j in range(m)) <= 0.0
            if wrong.any():
                where, nodes = first_run(node[wrong])
                raise NumericalError(
                    f"chord Newton left the ray's side ({where})",
                    node=nodes.tolist())
            N = normal.take(node, axis=0)
            h = _heights(N, d.T.copy())
            xi = np.sqrt(np.maximum(t * t - dot(h, h), 0.0))
            return xi, h, _grad_height(jac, T, N)

        return PatchStack(base_point=x0, tangent=tangent, normal=normal,
                          radii=np.full(len(u0), float(radius)),
                          height=height, height_jacobian=height_jacobian,
                          chord_solve=chord_solve,
                          fit_residual=np.zeros(len(u0)))


# ----------------------------------------------------------------------
# parameter rules
# ----------------------------------------------------------------------

def _trapezoid_rule(n_base):
    def rule(scale):
        n = max(8, int(round(n_base * scale)))
        t = np.arange(n) * (2.0 * math.pi / n)
        return t[:, None], np.full(n, 2.0 * math.pi / n)
    return rule


def _sphere_rule(n_theta, n_phi):
    # Gauss-Legendre in cos(theta) avoids the coordinate poles and is
    # spectrally accurate for smooth integrands on spheroidal charts.
    def rule(scale):
        nu = max(6, int(round(n_theta * scale)))
        nv = max(8, int(round(n_phi * scale)))
        x, wx = gauss_legendre(nu)
        theta = np.arccos(x[::-1])              # ascending in theta
        wtheta = wx[::-1] / np.sin(theta)       # d(cos theta) -> d(theta)
        phi = np.arange(nv) * (2.0 * math.pi / nv)
        wphi = np.full(nv, 2.0 * math.pi / nv)
        T, P = np.meshgrid(theta, phi, indexing="ij")
        W = np.outer(wtheta, wphi)
        return np.stack([T.ravel(), P.ravel()], axis=-1), W.ravel()
    return rule


def _product_rule(ranges, counts, periodic):
    """GL (aperiodic) x trapezoid (periodic) product rule on a 2D box."""
    def rule(scale):
        axes = []
        for (a, b), nb, per in zip(ranges, counts, periodic):
            nn = max(4, int(round(nb * scale)))
            if per:
                t = a + (b - a) * np.arange(nn) / nn
                w = np.full(nn, (b - a) / nn)
            else:
                x, wx = gauss_legendre(nn)
                t = a + 0.5 * (b - a) * (x + 1.0)
                w = 0.5 * (b - a) * wx
            axes.append((t, w))
        (t1, w1), (t2, w2) = axes
        U1, U2 = np.meshgrid(t1, t2, indexing="ij")
        return (np.stack([U1.ravel(), U2.ravel()], axis=-1),
                np.outer(w1, w2).ravel())
    return rule


# ----------------------------------------------------------------------
# catalog
# ----------------------------------------------------------------------

def make_circle(radius=1.0, center=(0.0, 0.0)):
    r = float(radius)
    c = np.asarray(center, dtype=float)

    def value(u):
        th = u[..., 0]
        return c + r * np.stack([np.cos(th), np.sin(th)], axis=-1)

    def jacobian(u):
        th = u[..., 0]
        return r * np.stack([-np.sin(th), np.cos(th)], axis=-1)[..., None]

    def hessian(u):
        th = u[..., 0]
        return -r * np.stack([np.cos(th), np.sin(th)], axis=-1)[..., None, None]

    def both(u, x, jac):
        co, si = np.cos(u[0]), np.sin(u[0])
        np.multiply(r, co, out=x[0])
        x[0] += c[0]
        np.multiply(r, si, out=x[1])
        x[1] += c[1]
        np.multiply(r, np.negative(si, out=si), out=jac[0, 0])
        np.multiply(r, co, out=jac[1, 0])

    chart = Chart(1, 2, value, jacobian, hessian, _trapezoid_rule(256),
                  both=both)
    return ChartSurface(1, 2, [chart], True, 0)


def _rotations_taking_ex(target):
    """Proper rotations R (B, 3, 3) with R e_x = target (B, 3) unit vectors:
    the rotations about the axis e_x x t, I + [v]x + [v]x^2 (1 - c) / s^2
    with [v]x the cross-product matrix of v = e_x x t, c = t_x, s = |v|."""
    t = target / np.linalg.norm(target, axis=-1)[:, None]
    zero = np.zeros(len(t))
    vx = np.stack([np.stack([zero, -t[:, 1], -t[:, 2]], axis=-1),
                   np.stack([t[:, 1], zero, zero], axis=-1),
                   np.stack([t[:, 2], zero, zero], axis=-1)], axis=-2)
    c, s2 = t[:, 0], t[:, 1] ** 2 + t[:, 2] ** 2
    aligned = s2 < 1e-24
    with np.errstate(divide="ignore", invalid="ignore"):
        R = np.eye(3) + vx + vx @ vx * ((1.0 - c) / s2)[:, None, None]
    # t = +-e_x: the identity, or the half turn about e_y
    flip = np.where(c[aligned] > 0, 1.0, -1.0)
    R[aligned] = np.eye(3) * np.stack([flip, np.ones_like(flip), flip],
                                      axis=-1)[:, None]
    return R


def _unit_sphere_maps():
    def value(u):
        th, ph = u[..., 0], u[..., 1]
        s, co = np.sin(th), np.cos(th)
        return np.stack([s * np.cos(ph), s * np.sin(ph), co], axis=-1)

    def tangents(u):
        th, ph = u[..., 0], u[..., 1]
        s, co = np.sin(th), np.cos(th)
        sp, cp = np.sin(ph), np.cos(ph)
        d_th = np.stack([co * cp, co * sp, -s], axis=-1)
        d_ph = np.stack([-s * sp, s * cp, np.zeros_like(s)], axis=-1)
        return d_th, d_ph

    def hessian(u):
        th, ph = u[..., 0], u[..., 1]
        s, co = np.sin(th), np.cos(th)
        sp, cp = np.sin(ph), np.cos(ph)
        z = np.zeros_like(s)
        d_tt = np.stack([-s * cp, -s * sp, -co], axis=-1)
        d_tp = np.stack([-co * sp, co * cp, z], axis=-1)
        d_pp = np.stack([-s * cp, -s * sp, z], axis=-1)
        return np.stack([np.stack([d_tt, d_tp], axis=-1),
                         np.stack([d_tp, d_pp], axis=-1)], axis=-1)

    return value, tangents, hessian


def _spheroid_chart(ax, ctr):
    """Chart u -> ctr + diag(ax) sph(u) in spherical angles, on the rule of
    48 x 96 nodes at scale 1; repatch turns each basepoint's pre-image into
    e_x of a central-projection chart (`_spheroid_stack`)."""
    sval, stangents, shess = _unit_sphere_maps()
    A = np.diag(ax)

    def value(u):
        return ctr + sval(u) @ A.T

    def jacobian(u):
        # one plain matrix product per column keeps A off (..., 3, 3) stacks
        return np.stack([c @ A.T for c in stangents(u)], axis=-1)

    def hessian(u):
        return np.einsum("ij,...jpq->...ipq", A, shess(u))

    def repatch(u0):
        s0 = sval(u0)
        cols = np.transpose(ax[:, None] * _rotations_taking_ex(s0), (2, 1, 0))
        return (_spheroid_stack(np.ascontiguousarray(cols), ctr),
                np.zeros((len(s0), 2)))

    return Chart(2, 3, value, jacobian, hessian, _sphere_rule(48, 96),
                 repatch=repatch)


def _spheroid_stack(cols, ctr):
    """The stack of spheroid charts u -> ctr + A_r p(u), one per row r, with
    p(u) = (e_x + u_1 e_y - u_0 e_z) / sqrt(1 + |u|^2) the central
    projection onto the hemisphere around e_x (p(0) = e_x exactly, axes
    -e_z and e_y there) and cols[j] (3, R) the j-th columns a_j of the A_r,
    stored by component. Its both is trig-free and writes each component
    from its (R,) rows of cols straight into the Newton's buffers: with
    g = 1 / sqrt(1 + |u|^2) and d = g (a_0 + u_1 a_1 - u_0 a_2) = x - ctr,
    J_0 = -g (a_2 + g u_0 d) and J_1 = g (a_1 - g u_1 d)."""

    def both(u, x, jac):
        u0, u1 = u[0], u[1]
        g = 1.0 / np.sqrt(u0 * u0 + u1 * u1 + 1.0)
        g0, g1, neg, tmp = g * u0, g * u1, -g, np.empty_like(g)
        for i, (a0, a1, a2) in enumerate(zip(*cols)):
            xi, j0, j1 = x[i], jac[i, 0], jac[i, 1]
            np.multiply(u1, a1, out=xi)             # d = x - ctr
            xi += a0
            xi -= np.multiply(u0, a2, out=tmp)
            xi *= g
            np.multiply(g0, xi, out=j0)             # -g (a2 + g u0 d)
            j0 += a2
            j0 *= neg
            np.multiply(g1, xi, out=j1)             # g (a1 - g u1 d)
            np.subtract(a1, j1, out=j1)
            j1 *= g
            xi += ctr[i]

    def take(idx):
        return _spheroid_stack(np.take(cols, idx, axis=-1), ctr)

    return Chart(2, 3, None, None, None, None, take=take, both=both)


def make_ellipsoid(a=1.0, b=1.0, c=1.0, center=(0.0, 0.0, 0.0)):
    ax = np.array([a, b, c], dtype=float)
    if not np.all(ax > 0.0):
        raise PreconditionError(f"semi-axes must be positive, got {a!r}, "
                                f"{b!r}, {c!r}")
    ctr = np.asarray(center, dtype=float)
    chart = _spheroid_chart(ax, ctr)
    return ChartSurface(2, 3, [chart], True, 2)


def make_sphere(radius=1.0, center=(0.0, 0.0, 0.0)):
    r = float(radius)
    return make_ellipsoid(r, r, r, center)


def make_torus(major=2.0, minor=0.5):
    R, r = float(major), float(minor)
    if not 0.0 < r < R:
        raise PreconditionError(f"a torus needs 0 < minor < major, got "
                                f"major={major!r}, minor={minor!r}")

    def value(u):
        th, ph = u[..., 0], u[..., 1]
        w = R + r * np.cos(th)
        return np.stack([w * np.cos(ph), w * np.sin(ph), r * np.sin(th)],
                        axis=-1)

    def jacobian(u):
        th, ph = u[..., 0], u[..., 1]
        w = R + r * np.cos(th)
        d_th = np.stack([-r * np.sin(th) * np.cos(ph),
                         -r * np.sin(th) * np.sin(ph),
                         r * np.cos(th)], axis=-1)
        d_ph = np.stack([-w * np.sin(ph), w * np.cos(ph),
                         np.zeros_like(w)], axis=-1)
        return np.stack([d_th, d_ph], axis=-1)

    def hessian(u):
        th, ph = u[..., 0], u[..., 1]
        w = R + r * np.cos(th)
        z = np.zeros_like(w)
        d_tt = np.stack([-r * np.cos(th) * np.cos(ph),
                         -r * np.cos(th) * np.sin(ph),
                         -r * np.sin(th)], axis=-1)
        d_tp = np.stack([r * np.sin(th) * np.sin(ph),
                         -r * np.sin(th) * np.cos(ph), z], axis=-1)
        d_pp = np.stack([-w * np.cos(ph), -w * np.sin(ph), z], axis=-1)
        return np.stack([np.stack([d_tt, d_tp], axis=-1),
                         np.stack([d_tp, d_pp], axis=-1)], axis=-1)

    rule = _product_rule([(0.0, 2 * math.pi), (0.0, 2 * math.pi)],
                         (48, 96), [True, True])
    chart = Chart(2, 3, value, jacobian, hessian, rule)
    return ChartSurface(2, 3, [chart], True, 0)


def make_cylinder_patch(radius=1.0, half_length=1.0):
    """Half a cylinder mantle: angles in [-pi/2, pi/2], heights in [-L, L]."""
    r = float(radius)

    def value(u):
        th, zz = u[..., 0], u[..., 1]
        return np.stack([r * np.cos(th), r * np.sin(th), zz], axis=-1)

    def jacobian(u):
        th = u[..., 0]
        z = np.zeros_like(th)
        d_th = np.stack([-r * np.sin(th), r * np.cos(th), z], axis=-1)
        d_z = np.stack([z, z, np.ones_like(th)], axis=-1)
        return np.stack([d_th, d_z], axis=-1)

    def hessian(u):
        th = u[..., 0]
        z = np.zeros_like(th)
        d_tt = np.stack([-r * np.cos(th), -r * np.sin(th), z], axis=-1)
        zero = np.stack([z, z, z], axis=-1)
        return np.stack([np.stack([d_tt, zero], axis=-1),
                         np.stack([zero, zero], axis=-1)], axis=-1)

    rule = _product_rule([(-math.pi / 2, math.pi / 2),
                          (-half_length, half_length)],
                         (24, 24), [False, False])
    chart = Chart(2, 3, value, jacobian, hessian, rule)
    return ChartSurface(2, 3, [chart], False, None)


def _graph_patch_surface(g, grad_g, hess_g, extent):
    """Surface z = g(x, y) over the square [-extent, extent]^2.

    g, grad_g, hess_g are batched callables over (..., 2) parameter arrays
    returning (...,), (..., 2) and (..., 2, 2).
    """

    def value(u):
        return np.concatenate([u, g(u)[..., None]], axis=-1)

    def jacobian(u):
        gg = grad_g(u)
        shape = u.shape[:-1]
        jac = np.zeros(shape + (3, 2))
        jac[..., 0, 0] = 1.0
        jac[..., 1, 1] = 1.0
        jac[..., 2, :] = gg
        return jac

    def hessian(u):
        hg = hess_g(u)
        shape = u.shape[:-1]
        h = np.zeros(shape + (3, 2, 2))
        h[..., 2, :, :] = hg
        return h

    rule = _product_rule([(-extent, extent), (-extent, extent)],
                         (24, 24), [False, False])
    chart = Chart(2, 3, value, jacobian, hessian, rule)
    return ChartSurface(2, 3, [chart], False, None)


def make_saddle_surface(extent=1.0):
    """The graph z = x*y (tangent plane at the origin is the xy-plane)."""
    def g(u):
        return u[..., 0] * u[..., 1]

    def grad_g(u):
        return np.stack([u[..., 1], u[..., 0]], axis=-1)

    def hess_g(u):
        shape = u.shape[:-1]
        h = np.zeros(shape + (2, 2))
        h[..., 0, 1] = 1.0
        h[..., 1, 0] = 1.0
        return h

    return _graph_patch_surface(g, grad_g, hess_g, extent)


def make_disk(radius=1.0, z=0.0):
    """Flat horizontal disk at height z, oriented by (rho, phi) parameter order."""
    r1 = float(radius)

    def value(u):
        rho, ph = u[..., 0], u[..., 1]
        return np.stack([rho * np.cos(ph), rho * np.sin(ph),
                         np.full_like(rho, float(z))], axis=-1)

    def jacobian(u):
        rho, ph = u[..., 0], u[..., 1]
        zz = np.zeros_like(rho)
        d_r = np.stack([np.cos(ph), np.sin(ph), zz], axis=-1)
        d_p = np.stack([-rho * np.sin(ph), rho * np.cos(ph), zz], axis=-1)
        return np.stack([d_r, d_p], axis=-1)

    def hessian(u):
        rho, ph = u[..., 0], u[..., 1]
        zz = np.zeros_like(rho)
        zero = np.stack([zz, zz, zz], axis=-1)
        d_rp = np.stack([-np.sin(ph), np.cos(ph), zz], axis=-1)
        d_pp = np.stack([-rho * np.cos(ph), -rho * np.sin(ph), zz], axis=-1)
        return np.stack([np.stack([zero, d_rp], axis=-1),
                         np.stack([d_rp, d_pp], axis=-1)], axis=-1)

    rule = _product_rule([(1e-3, r1), (0.0, 2 * math.pi)],
                         (16, 48), [False, True])
    chart = Chart(2, 3, value, jacobian, hessian, rule)
    return ChartSurface(2, 3, [chart], False, None)


def make_disjoint_union(a: ChartSurface, b: ChartSurface) -> ChartSurface:
    """Disjoint union: b's charts are copied with their component labels
    shifted past a's, the one place where chart labels are set, so the
    parts stay identifiable."""
    if a.m != b.m or a.n != b.n:
        raise UnsupportedInputError("disjoint union requires matching dimensions")
    charts = list(a.charts)
    shift = max((c.component for c in a.charts), default=0) + 1
    for c in b.charts:
        c = copy.copy(c)
        c.component += shift
        charts.append(c)
    chi = None
    if a.euler_char is not None and b.euler_char is not None:
        chi = a.euler_char + b.euler_char
    return ChartSurface(a.m, a.n, charts, a.closed and b.closed, chi)
