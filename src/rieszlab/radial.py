"""Radial chord-density profiles and Hadamard finite parts.

For a point x with graph patch h, the volume psi(t) of the patch within
chord distance t satisfies psi'(t) = t^(m-1) * phi(t), where the density
phi is smooth and even at t = 0 with phi(0) = sigma_{m-1}. phi is
therefore a smooth function of s = t^2, and a profile holds it as one
Chebyshev interpolant in s on [0, eps0^2]: samples at 17, 33 or 65
Chebyshev-Lobatto points (each level reuses the samples of the one
before), chopped where the coefficients fall below CHOP_TOL. The s = 0
sample is sigma_{m-1} itself; the smallest positive radius sampled is
about 0.1 eps0 (0.025 eps0 at 65 points). The interpolant's monomial
coefficients give the finite part Pf. of integral_0^eps t^(alpha+m-1)
phi(t) dt in closed form for every alpha and every eps <= eps0, with the
convention x^0/0 = log x at exponent collisions.

Each (direction v, chord radius t) row of the angular quadrature needs the
radius xi with xi^2 + |h(xi v)|^2 = t^2, its derivative dxi/dt and grad h
there. A `PatchStack` answers these rows through its `chord_solve`: chart
stacks by one Newton solve in the chart parameters, the quadratic
patches of meshes in closed form. `radial_profile` gives the profiles of
all nodes of a stack in one pass (`ProfileStack`): the rows of every node
at a level go to one chord solve, one DCT-I fits them all, and only the
nodes left unresolved are sampled at the next level; `finite_part` of a
profile stack is one array sum. One point is a stack of one node, and a
node whose chord rows or profile fail shrinks its radius.

On surfaces a sample of phi is a trapezoid rule over tangent directions,
which converges geometrically on the smooth periodic integrand. The rule
refines itself per sample: it starts at ANGULAR_START = 16 directions,
whose even subset gives the 8-direction sum for free. A sample whose two
sums differ by more than CHOP_TOL of its value gets the 16 odd directions
of the 32-direction rule in one more chord solve, and the same test runs
again for 32 -> 64; a sample whose first difference exceeds sqrt(CHOP_TOL)
takes the other 48 directions of the cap at once. ANGULAR_NODES = 64 is
the cap, and a sample at the cap is the plain 64-direction sum up to
rounding. The round sphere stays at 16 directions everywhere. Curves
(m = 1) sum the two directions of S^0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NumericalError, PreconditionError, ProfileFitError
from .geometry.patches import PatchStack

__all__ = [
    "EnergyParams",
    "ProfileStack",
    "FinitePartResult",
    "radial_profile",
    "finite_part",
]

POLE_SNAP_TOL = 1e-12
# Chebyshev coefficients below CHOP_TOL of the largest are dropped; a
# profile is resolved when its last quarter of coefficients is dropped.
CHOP_TOL = 1e-14
# Chebyshev intervals of the sampling levels (17, 33, 65 points).
_LEVELS = (16, 32, 64)


@dataclass(frozen=True)
class EnergyParams:
    """Kernel exponent alpha together with derived regularization data."""

    alpha: float
    m: int

    def __post_init__(self):
        if not math.isfinite(float(self.alpha)):
            raise PreconditionError(f"alpha must be finite, got {self.alpha!r}")

    @property
    def at_pole(self) -> bool:
        """-alpha - m a non-negative even integer: a finite-part pole."""
        a = -float(self.alpha)
        a_int = round(a)
        if abs(a - a_int) < POLE_SNAP_TOL:
            a = float(a_int)
        d = a - self.m
        return bool(d > -POLE_SNAP_TOL and abs(d - round(d)) < POLE_SNAP_TOL
                    and round(d) % 2 == 0)


# Directions of the S^1 rule of a radial profile sample on surfaces: every
# sample starts at ANGULAR_START and doubles up to ANGULAR_NODES where its
# angular sum is not yet settled (see `_profile_batch`).
ANGULAR_START = 16
ANGULAR_NODES = 64


def _angular_rule(m: int, nodes: int):
    if m == 1:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    if m == 2:
        th = 2.0 * math.pi * np.arange(nodes) / nodes
        v = np.stack([np.cos(th), np.sin(th)], axis=-1)
        w = np.full(nodes, 2.0 * math.pi / nodes)
        return v, w
    raise PreconditionError("radial profiles support m in {1, 2}")


# ----------------------------------------------------------------------
# radial profile
# ----------------------------------------------------------------------

def _lobatto_radii(n: int, eps0) -> np.ndarray:
    """Radii t_j with s_j = t_j^2 the n + 1 Chebyshev-Lobatto points of
    [0, eps0^2], ascending: t_j = eps0 sin(pi j / 2n); eps0 (B,) gives one
    row per radius."""
    return np.multiply.outer(eps0, np.sin(0.5 * math.pi * np.arange(n + 1) / n))


@lru_cache(maxsize=None)
def _shifted_chebyshev(n: int) -> np.ndarray:
    """Row j holds the coefficients of T_j(2u - 1) in powers of u, j < n."""
    out = np.zeros((n, n))
    out[0, 0] = 1.0
    if n > 1:
        out[1, :2] = (-1.0, 2.0)
    for j in range(1, n - 1):
        out[j + 1, 1:] = 4.0 * out[j, :-1]
        out[j + 1] -= 2.0 * out[j] + out[j - 1]
    out.flags.writeable = False
    return out


def _chebyshev_fit(values, eps0):
    """Chebyshev data of profiles sampled at one Lobatto level, batched.

    values (B, n + 1) holds each profile's samples at `_lobatto_radii(n,
    eps0)`. Returns (coefficients (B, n + 1), zero past each profile's kept
    count, kept counts (B,), resolved (B,): the last quarter chopped and
    the Taylor row finite, fit residuals (B,), taylor (B, 2n + 3), zero
    past each 2 * kept).
    """
    n = values.shape[-1] - 1
    # DCT-I of the samples ordered by x = -cos(pi j / n): the real FFT of
    # their even extension
    c = np.fft.rfft(np.concatenate([values, values[:, -2:0:-1]], axis=-1),
                    axis=-1).real / n
    c[:, [0, -1]] *= 0.5
    c[:, 1::2] *= -1.0
    size = np.abs(c)
    big = size > CHOP_TOL * size.max(axis=-1, keepdims=True)
    keep = np.where(big.any(axis=-1), n + 1 - np.argmax(big[:, ::-1], axis=-1),
                    1)
    tail = np.arange(n + 1) >= keep[:, None]
    residual = np.where(tail, size, 0.0).max(axis=-1)
    c[tail] = 0.0
    taylor = np.zeros((len(c), 2 * n + 3))
    with np.errstate(all="ignore"):     # out of range at tiny radii
        taylor[:, :-2:2] = np.where(
            tail, 0.0, c @ _shifted_chebyshev(n + 1)
            / np.power.outer(eps0 ** 2, np.arange(n + 1)))
    resolved = (4 * (keep - 1) <= 3 * n) & np.isfinite(taylor).all(axis=-1)
    return c, keep, resolved, residual, taylor


@dataclass
class ProfileStack:
    """Chord densities phi of B nodes, each a Chebyshev interpolant in s = t^2.

    eps0 (B,) are the profiles' radii and samples their values at the
    Chebyshev-Lobatto radii `_lobatto_radii(n, eps0)` (one array per node,
    17, 33 or 65 long, samples[i][0] at t = 0). coefficients (one array per
    node, as long as its samples) are each interpolant's Chebyshev
    coefficients in x = 2 s / eps0^2 - 1, zero past the node's kept (B,)
    count; fit_residual (B,) is the largest chopped coefficient, the level
    of truncation error and sampling noise per coefficient. taylor (B, W)
    holds each interpolant's coefficient of t^j, up to the first power past
    its degree and zero past it (odd ones zero, so taylor[:, 2] is
    phi''(0) / 2). From `radial_profile`, eps0 are the accepted radii.
    """

    m: int
    eps0: np.ndarray
    samples: list
    coefficients: list
    taylor: np.ndarray
    kept: np.ndarray
    fit_residual: np.ndarray

    def evaluate(self, t):
        """phi of every node at radii t: shape (B,) + t.shape."""
        t = np.asarray(t, dtype=float)
        return np.array([np.polynomial.chebyshev.chebval(
            2.0 * (t / eps0) ** 2 - 1.0, c)
            for eps0, c in zip(self.eps0, self.coefficients)])

    @staticmethod
    def from_function(fn, m, eps0) -> "ProfileStack":
        """Stack of one profile of a given even density fn(t), sampled like
        a patch's."""
        def sample(node, t):
            return np.asarray(fn(t.ravel()), dtype=float).reshape(t.shape)

        return _interpolate(sample, m, np.array([float(eps0)]), 0)


def _interpolate(sample, m, eps0, shrinks) -> ProfileStack:
    """Sample phi at 17, 33 and then 65 Chebyshev-Lobatto points in s until
    each node's interpolant is resolved; each level reuses the earlier
    samples and samples only the nodes still unresolved. sample(node, t)
    gives phi at radii t (b, T) of the nodes node (b,). A NumericalError
    that names nodes, raised by sample or for the nodes that 65 points do
    not resolve, shrinks their radii by 0.85, and every node not yet
    resolved is sampled again, up to shrinks times."""
    B = len(eps0)
    eps0 = np.array(eps0, dtype=float)
    width = 2 * _LEVELS[-1] + 3
    samples = [None] * B
    coefficients = [None] * B
    taylor = np.zeros((B, width))
    kept = np.zeros(B, dtype=int)
    residual = np.zeros(B)
    for attempt in range(shrinks + 1):
        todo = np.flatnonzero(kept == 0)
        n = _LEVELS[0]
        try:
            values = sample(todo, _lobatto_radii(n, eps0[todo]))
            while True:
                c, keep, done, res, tay = _chebyshev_fit(values, eps0[todo])
                for j in np.flatnonzero(done):
                    samples[todo[j]] = values[j]
                    coefficients[todo[j]] = c[j]
                taylor[todo[done], :tay.shape[1]] = tay[done]
                kept[todo[done]] = keep[done]
                residual[todo[done]] = res[done]
                if done.all():
                    return ProfileStack(m=m, eps0=eps0, samples=samples,
                                        coefficients=coefficients,
                                        taylor=taylor[:, :2 * kept.max() + 1],
                                        kept=kept, fit_residual=residual)
                if n == _LEVELS[-1]:
                    size = np.abs(c[np.argmin(done)])
                    tail = float(np.max(size[3 * n // 4 + 1:]))
                    raise ProfileFitError(
                        f"radial profile unresolved at {n + 1} Chebyshev "
                        f"points: its last quarter of coefficients reaches "
                        f"{tail / size.max():.3g} of the largest (chop level "
                        f"{CHOP_TOL:g})", residual=tail,
                        node=todo[~done].tolist())
                todo, values = todo[~done], values[~done]
                finer = np.empty((len(todo), 2 * n + 1))
                finer[:, ::2] = values
                finer[:, 1::2] = sample(
                    todo, _lobatto_radii(2 * n, eps0[todo])[:, 1::2])
                values, n = finer, 2 * n
        except NumericalError as exc:
            if not exc.nodes or attempt == shrinks:
                if shrinks:
                    exc.args = (f"{exc} (after {shrinks} shrinks by 0.85)",)
                raise
            eps0[exc.nodes] *= 0.85


def _chord_rows(patches, v, t, node):
    """xi, dxi/dt and grad h at rows of directions v and chord radii t > 0
    of the `PatchStack` nodes node. NumericalError names the nodes whose
    graph folds along a ray, xi + <grad_v h, h> <= 0."""
    xi, h, dh = patches.chord_solve(node, v, t)
    # dxi/dt = t / (xi + <grad_v h, h>)
    hv = np.einsum("kcj,kj->kc", dh, v)
    den = xi + np.einsum("kc,kc->k", hv, h)
    fold = ~(den > 0.0)
    if fold.any():
        raise NumericalError(f"the graph folds along {fold.sum()} chord rays",
                             node=np.unique(node[fold]).tolist())
    return xi, t / den, dh


def _density_rows(patches, v, t, node):
    """The angular integrand of phi, (xi / t)^(m-1) dxi/dt times the graph's
    area element, at K directions v (K, m) for each chord radius t > 0 of
    the stack nodes node: shape (len(t), K)."""
    K = len(v)
    tt = np.repeat(t, K)
    xi, dxi, dh = _chord_rows(patches, np.tile(v, (len(t), 1)), tt,
                              np.repeat(node, K))
    # area element sqrt(det(I + dh^T dh)) of the graph, in closed form
    d0 = dh[..., 0]
    g00 = 1.0 + np.einsum("kc,kc->k", d0, d0)
    if patches.m == 1:
        return (np.sqrt(g00) * dxi).reshape(-1, K)
    d1 = dh[..., 1]
    g11 = 1.0 + np.einsum("kc,kc->k", d1, d1)
    jac = np.sqrt(g00 * g11 - np.einsum("kc,kc->k", d0, d1) ** 2)
    return (jac * (xi / tt) * dxi).reshape(-1, K)


def _profile_batch(patches, node, ts):
    """phi at chord radii ts (b, T) of the stack nodes node (b,).

    On surfaces each sample starts at ANGULAR_START directions and doubles,
    up to ANGULAR_NODES, while its sum moves by more than CHOP_TOL of itself
    against the sum on half the directions. The doubled rule adds only the
    odd directions to a kept unweighted sum, and each doubling is one chord
    solve of the samples still moving. A sample whose first difference
    exceeds sqrt(CHOP_TOL) of itself takes all the cap's other directions
    in one solve.
    """
    m = patches.m
    v, w = _angular_rule(m, ANGULAR_START)
    vals = np.full(ts.shape, float(np.sum(w)))    # phi(0) = sigma_{m-1}
    pos = ts > 0
    if not pos.any():
        return vals
    t = ts[pos]
    node = np.broadcast_to(node[:, None], ts.shape)[pos]
    f = _density_rows(patches, v, t, node)
    if m == 1:
        vals[pos] = f @ w
        return vals
    K = len(v)
    total = f.sum(axis=-1)
    phi = total * (2.0 * math.pi / K)
    moved = np.abs(phi - f[:, ::2].sum(axis=-1) * (4.0 * math.pi / K))
    far = moved > math.sqrt(CHOP_TOL) * np.abs(phi)
    if far.any() and K < ANGULAR_NODES:
        rest = _angular_rule(2, ANGULAR_NODES)[0].reshape(K, -1, 2)[:, 1:]
        total[far] += _density_rows(patches, rest.reshape(-1, 2), t[far],
                                    node[far]).sum(axis=-1)
        phi[far] = total[far] * (2.0 * math.pi / ANGULAR_NODES)
    todo = np.flatnonzero(~far & (moved > CHOP_TOL * np.abs(phi)))
    while len(todo) and K < ANGULAR_NODES:
        odd = _angular_rule(2, 2 * K)[0][1::2]
        total[todo] += _density_rows(patches, odd, t[todo],
                                     node[todo]).sum(axis=-1)
        K *= 2
        coarse, phi[todo] = phi[todo], total[todo] * (2.0 * math.pi / K)
        todo = todo[np.abs(phi[todo] - coarse) > CHOP_TOL * np.abs(phi[todo])]
    vals[pos] = phi
    return vals


def radial_profile(patches: PatchStack) -> ProfileStack:
    """The chord densities phi of every node of a `PatchStack`, each on
    [0, the radius that its own chord rows and profile accept].

    phi is sampled by the angular rule at Chebyshev-Lobatto points in
    s = t^2 (see `ProfileStack`), every level's chord rows solved at once.
    It is the one check of a patch radius: a node whose chord row does not
    converge or leaves the ray's side, whose graph folds along a ray
    (`_chord_rows`) or whose profile 65 points do not resolve shrinks its
    radius by 0.85, up to 40 times, and then its error names it. To
    profile some nodes of a larger stack, pass `patches.take(nodes)`: its
    rows go to the larger stack's chord solve, and errors name the
    positions in nodes.
    """
    return _interpolate(lambda node, t: _profile_batch(patches, node, t),
                        patches.m, patches.radii, 40)


# ----------------------------------------------------------------------
# Hadamard finite part
# ----------------------------------------------------------------------

@dataclass
class FinitePartResult:
    """Pf. integral values of a `ProfileStack` with their regularization
    bookkeeping, one entry per node.

    The truncated integral over [eps, eps0] expands as
    value - sum_j c_j eps^(e_j) - log_coefficient * log(eps) + o(1), with
    e_j < 0.
    """

    value: np.ndarray
    log_coefficient: np.ndarray
    error_estimate: np.ndarray


def finite_part(params: EnergyParams, profiles: ProfileStack,
                eps0=None) -> FinitePartResult:
    """Pf. of integral_0^eps0 t^(alpha+m-1) phi(t) dt, in closed form.

    With phi = sum_k a_k t^(2k) (profiles.taylor) this is
    sum_k a_k eps0^(e_k) / e_k, e_k = alpha + m + 2k, where a collision
    e_k = 0 contributes a_k log(eps0) (the convention x^0/0 = log x). Any
    eps0 up to each profile's own radius may be used, one per node. The
    error estimate pushes the profile's tail level through the same sum for
    each Chebyshev basis polynomial up to one past the kept degree (the
    last entry of its taylor row), and adds the rounding of the sum.
    """
    alpha, m = params.alpha, params.m
    if m != profiles.m:
        raise PreconditionError("profile dimension does not match params")
    radius = profiles.eps0
    eps0 = np.broadcast_to(np.asarray(radius if eps0 is None else eps0,
                                      dtype=float), radius.shape)
    if np.any(eps0 > radius * (1 + 1e-12)):
        raise PreconditionError("eps0 exceeds the profile range")
    a = profiles.taylor[:, ::2]
    k = np.arange(a.shape[1])
    e = alpha + m + 2.0 * k
    pole = np.abs(e) < POLE_SNAP_TOL
    with np.errstate(divide="ignore"):
        w = np.where(pole, np.log(eps0)[:, None],
                     np.power.outer(eps0, e) / np.where(pole, 1.0, e))
    terms = a * w
    # basis polynomials j <= kept of each node; T_j has no power past j
    basis = (w / np.power.outer(radius ** 2, k)) @ _shifted_chebyshev(
        len(k)).T
    own = k <= profiles.kept[:, None]
    err = (profiles.fit_residual
           * np.where(own, np.abs(basis), 0.0).sum(axis=-1)
           + 8.0 * np.finfo(float).eps * np.abs(terms).sum(axis=-1))
    return FinitePartResult(value=terms.sum(axis=-1),
                            log_coefficient=a[:, pole].sum(axis=-1),
                            error_estimate=err)
