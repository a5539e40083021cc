"""Exception hierarchy shared by all engines."""

from __future__ import annotations


class LabError(Exception):
    """Base class for all periodiclab errors."""


class ConfigError(LabError):
    """Scenario/configuration file is malformed or inconsistent.

    Carries the JSON path of the offending entry when known.
    """

    def __init__(self, message: str, path: str = ""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class NonPositiveDefinite(LabError):
    """The diffusion matrix failed positive definiteness at a sample point."""

    def __init__(self, t: float, x, smallest_eigenvalue: float):
        self.t = t
        self.x = x
        self.smallest_eigenvalue = smallest_eigenvalue
        super().__init__(
            f"diffusion matrix not positive definite at t={t}, x={x} "
            f"(lambda_min={smallest_eigenvalue:.3e})"
        )


class UnboundedDrift(LabError):
    """Drift evaluation overflowed at a sample point."""


class MissingGradient(LabError):
    """A coefficient gradient is required but unavailable."""


class IntegratorFailure(LabError):
    """Adaptive ODE/quadrature step control collapsed."""


class NotDissipative(LabError):
    """No dissipativity certificate: the requested construction needs one."""


class DimensionTooLarge(LabError):
    """Tensorized quadrature is limited to low dimension."""


class Blowup(LabError):
    """A particle left the overflow guard region during simulation."""

    def __init__(self, t: float, max_abs: float):
        self.t = t
        self.max_abs = max_abs
        super().__init__(f"particle blowup at t={t} (max |X| = {max_abs:.3e})")


class QNotXIndependent(LabError):
    """Tangent-flow gradients need diffusion coefficients independent of x."""


class SolverDivergence(LabError):
    """The implicit time stepper produced non-finite values."""


class SingularSystem(LabError):
    """A sparse LU factorization met an exactly singular matrix."""


class PerronFailure(LabError):
    """The discrete invariant density has sign changes above tolerance."""


class EigSolverFailure(LabError):
    """The eigenvalue solver failed to converge."""


class NoiseFloor(LabError):
    """Too few curve points above the sampling noise floor to fit a rate."""


class DegenerateWindow(LabError):
    """The requested fit window selects fewer than the minimum points."""


class NotApplicable(LabError):
    """The requested check's standing assumptions do not hold for this field."""
