"""Exception hierarchy shared across the library.

The CLI maps these onto exit codes: ConfigError -> 2, NumericalError -> 3,
UnsupportedInputError -> 4. `checked_arithmetic` turns numpy's overflow,
division-by-zero and invalid-operation warnings into NumericalErrors, and
`finite_energy`, on top of it, also an energy report whose value or error
estimate is not finite; every energy (Riesz, Kusner-Sullivan,
Auckly-Sadun) is wrapped in it.
"""

import functools
import math

import numpy as np


class RieszLabError(Exception):
    """Base class for all library errors."""


class ConfigError(RieszLabError):
    """Malformed run configuration or command-line input."""


class NumericalError(RieszLabError):
    """An iteration or quadrature failed to reach its tolerance.

    node, when given, is the index of the failing point in a batched call
    (a patch stack or a profile stack), or the list of indices of all its
    failing points; nodes keeps them as a list and node reads the first
    (None when the error names no point).
    """

    def __init__(self, message, node=None):
        super().__init__(message)
        self.nodes = (node if isinstance(node, list)
                      else [] if node is None else [node])

    @property
    def node(self):
        return self.nodes[0] if self.nodes else None


def checked_arithmetic(func):
    """Decorator: when numpy arithmetic inside func overflows, divides by
    zero or is invalid, func raises NumericalError instead of warning and
    returning inf or NaN. Underflow stays silent."""
    @functools.wraps(func)
    def checked(*args, **kwargs):
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                return func(*args, **kwargs)
        except FloatingPointError as exc:
            raise NumericalError(
                f"{func.__name__} is not finite: {exc}") from exc

    return checked


def finite_energy(energy):
    """Decorator: an energy function returning an `EnergyReport` raises
    NumericalError, not NaN or inf, when its arithmetic overflows or is
    invalid (`checked_arithmetic`), or when its value or error estimate is
    not finite."""
    arithmetic = checked_arithmetic(energy)

    @functools.wraps(energy)
    def checked(*args, **kwargs):
        report = arithmetic(*args, **kwargs)
        if not (math.isfinite(report.value)
                and math.isfinite(report.error_estimate)):
            raise NumericalError(
                f"{energy.__name__} is not finite: value {report.value}, "
                f"error estimate {report.error_estimate}")
        return report

    return checked


class UnsupportedInputError(RieszLabError):
    """Input is structurally valid but outside the supported feature set."""


class PreconditionError(RieszLabError):
    """An operation was called with inputs violating its contract."""


class RankDeficiencyError(NumericalError):
    """Chart Jacobian (or fitted frame) has rank below the manifold dimension."""


class PatchRadiusError(NumericalError):
    """Requested graph-patch radius exceeds graph representability."""


class TopologyError(UnsupportedInputError):
    """Mesh is not closed/consistently oriented where the operation needs it."""


class OrientationError(UnsupportedInputError):
    """Orientation data is missing or inconsistent."""


class SingularPairError(PreconditionError):
    """Two evaluation points coincide where a distinct pair is required."""


class SingularMapError(PreconditionError):
    """Moebius map is singular on the surface (inversion center on it)."""


class ProfileFitError(NumericalError):
    """Radial profile not resolved by its largest Chebyshev interpolant."""

    def __init__(self, message, residual=None, node=None):
        super().__init__(message, node=node)
        self.residual = residual


class PoleError(PreconditionError):
    """Evaluation requested exactly at a pole of a closed-form beta function.

    Carries the residue of the simple pole so callers can regularize.
    """

    def __init__(self, message, residue):
        super().__init__(message)
        self.residue = residue
