"""Time-periodic drift-diffusion coefficient fields and sampling plans.

A field packages the diffusion matrix ``Q(t, x)`` and the drift ``b(t, x)`` of
the second-order operator

    L(t) u = Tr(Q(t,x) D^2 u) + <b(t,x), grad u>,

with ``Q`` and ``b`` periodic in ``t`` with period ``T``.  All coefficient
callables are vectorized over a batch of points: ``q(t, X)`` takes ``X`` of
shape ``(n, d)`` and returns ``(n, d, d)``; ``b(t, X)`` returns ``(n, d)``.
Optional gradients follow the same convention (see the field docstrings).
Callables must be pure: every consumer may call them concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

Coefficient = Callable[[float, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class PeriodicCoefficientField:
    """Evaluable T-periodic coefficient pair (Q, b) with optional gradients.

    Attributes
    ----------
    dim : int
        Space dimension d.
    period : float
        Time period T > 0.
    q : callable
        ``q(t, X) -> (n, d, d)`` symmetric diffusion matrices.
    b : callable
        ``b(t, X) -> (n, d)`` drift vectors.
    grad_q : callable or None
        ``grad_q(t, X) -> (n, d, d, d)`` with ``[m, k, i, j] = D_k q_ij``.
    grad_b : callable or None
        ``grad_b(t, X) -> (n, d, d)`` with ``[m, i, j] = D_j b_i`` (spatial
        Jacobian of the drift).
    q_independent_of_x : bool
        Smoothness hint: Q depends on t only (then zeta == 0).
    name : str
        Identifier used in reports.
    """

    dim: int
    period: float
    q: Coefficient
    b: Coefficient
    grad_q: Coefficient | None = None
    grad_b: Coefficient | None = None
    q_independent_of_x: bool = False
    name: str = "custom"

    def phase(self, t: float) -> float:
        """Reduce a time to the canonical phase in [0, T)."""
        p = math.fmod(t, self.period)
        return p + self.period if p < 0 else p

    def grad_b_at(self, t: float, points: np.ndarray) -> np.ndarray:
        """Drift Jacobians at a batch of points, by formula or central differences.

        The fallback step is ``1e-5 * (1 + |x|)`` per point.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if self.grad_b is not None:
            return np.asarray(self.grad_b(t, points), dtype=float)
        n, d = points.shape
        h = 1e-5 * (1.0 + np.linalg.norm(points, axis=1))  # (n,)
        jac = np.empty((n, d, d))
        for j in range(d):
            step = np.zeros_like(points)
            step[:, j] = h
            jac[:, :, j] = (self.b(t, points + step) - self.b(t, points - step)) / (2.0 * h)[:, None]
        return jac


@dataclass(frozen=True)
class SamplePlan:
    """Deterministic space-time sample set used by the hypothesis checkers.

    Spatial samples are a box lattice (covering ``[-r_max, r_max]^d``) plus
    radial shells, along unit directions, used for the unboundedness
    heuristic.  The checkers extremize quadratic forms via eigendecompositions,
    which dominate any finite direction set.
    """

    times: np.ndarray            # (nt,) in [0, T)
    lattice: np.ndarray          # (m, d)
    shell_radii: np.ndarray      # (ns,), increasing
    shell_points: np.ndarray     # (ns, ms, d)
    r_max: float

    def __post_init__(self):
        if len(self.times) == 0 or len(self.lattice) == 0:
            raise ValueError("sample plan must contain times and spatial points")
        if self.r_max <= 0:
            raise ValueError("r_max must be positive")

    @property
    def points(self) -> np.ndarray:
        """All spatial samples: lattice plus every shell point."""
        shells = self.shell_points.reshape(-1, self.lattice.shape[1])
        return np.vstack([self.lattice, shells])


def _odd(n: int) -> int:
    return n if n % 2 == 1 else n + 1


def _sphere_directions(d: int, n: int) -> np.ndarray:
    if d == 1:
        return np.array([[1.0], [-1.0]])
    if d == 2:
        angles = 2.0 * np.pi * np.arange(n) / n
        return np.column_stack([np.cos(angles), np.sin(angles)])
    # Fibonacci sphere, d == 3
    i = np.arange(n) + 0.5
    phi = np.arccos(1.0 - 2.0 * i / n)
    theta = np.pi * (1.0 + math.sqrt(5.0)) * i
    return np.column_stack(
        [np.cos(theta) * np.sin(phi), np.sin(theta) * np.sin(phi), np.cos(phi)]
    )


def build_plan(
    dim: int,
    period: float,
    r_max: float,
    n_times: int = 64,
    n_axis: int = 21,
    n_shells: int = 6,
    n_shell_dirs: int = 16,
) -> SamplePlan:
    """Build the default box-lattice-plus-shells sample plan.

    The lattice per axis is odd so the origin is always sampled; shells sit at
    radii ``r_max * j / n_shells`` so the outermost shell realizes ``r_max``.
    """
    if dim > 3:
        raise ValueError("sample plans are built for d <= 3")
    n_axis = _odd(n_axis)
    axis = np.linspace(-r_max, r_max, n_axis)
    grids = np.meshgrid(*([axis] * dim), indexing="ij")
    lattice = np.stack([g.ravel() for g in grids], axis=-1)
    dirs = _sphere_directions(dim, n_shell_dirs)
    radii = r_max * np.arange(1, n_shells + 1) / n_shells
    shell_points = radii[:, None, None] * dirs[None, :, :]
    times = period * np.arange(n_times) / n_times
    return SamplePlan(
        times=times,
        lattice=lattice,
        shell_radii=radii,
        shell_points=shell_points,
        r_max=float(r_max),
    )


# ---------------------------------------------------------------------------
# Builtin field families (the JSON scenario "kind"s).
# ---------------------------------------------------------------------------


def _fourier_scalar(const: float, sin_c: float, cos_c: float, period: float) -> Callable[[float], float]:
    w = 2.0 * np.pi / period
    return lambda t: const + sin_c * math.sin(w * t) + cos_c * math.cos(w * t)


@dataclass(frozen=True)
class DriftTerm:
    """One odd-power drift monomial g(t) * x * |x|^(power-1)."""

    power: int
    const: float
    sin: float = 0.0
    cos: float = 0.0


def polynomial_field(
    dim: int,
    period: float,
    q_const: float,
    q_sin: float = 0.0,
    q_cos: float = 0.0,
    drift_terms: tuple[DriftTerm, ...] = (),
    name: str = "custom-polynomial",
) -> PeriodicCoefficientField:
    """Scalar-diffusion field with odd-polynomial radial drift.

    Q(t) = (q_const + q_sin sin(2 pi t / T) + q_cos cos(2 pi t / T)) I and
    b(t, x) = sum_k g_k(t) x |x|^(p_k - 1) with odd powers p_k.  Gradients are
    analytic, so every hypothesis checker runs without finite differences.
    """
    qt = _fourier_scalar(q_const, q_sin, q_cos, period)
    coeffs = [(term.power, _fourier_scalar(term.const, term.sin, term.cos, period)) for term in drift_terms]
    eye = np.eye(dim)

    def q(t, X):
        X = np.atleast_2d(X)
        return qt(t) * np.broadcast_to(eye, (X.shape[0], dim, dim)).copy()

    def b(t, X):
        X = np.atleast_2d(X)
        r2 = np.sum(X * X, axis=1, keepdims=True)
        out = np.zeros_like(X)
        for power, g in coeffs:
            out += g(t) * X * r2 ** ((power - 1) // 2)
        return out

    def grad_b(t, X):
        # D_j [g x_i |x|^(p-1)] = g (|x|^(p-1) delta_ij + (p-1) x_i x_j |x|^(p-3))
        X = np.atleast_2d(X)
        n = X.shape[0]
        r2 = np.sum(X * X, axis=1)
        jac = np.zeros((n, dim, dim))
        outer = X[:, :, None] * X[:, None, :]
        for power, g in coeffs:
            k = (power - 1) // 2
            jac += g(t) * (r2 ** k)[:, None, None] * eye
            if power >= 3:
                jac += g(t) * (power - 1) * (r2 ** (k - 1))[:, None, None] * outer
        return jac

    def grad_q(t, X):
        X = np.atleast_2d(X)
        return np.zeros((X.shape[0], dim, dim, dim))

    return PeriodicCoefficientField(
        dim=dim,
        period=period,
        q=q,
        b=b,
        grad_q=grad_q,
        grad_b=grad_b,
        q_independent_of_x=True,
        name=name,
    )


def grad1d_field(period: float = 1.0) -> PeriodicCoefficientField:
    """The 1-d cubic-drift benchmark: Q(t) = 1 + 0.25 sin(2 pi t),
    b(t, x) = -x^3 - (1 + 0.5 cos(2 pi t)) x."""
    return polynomial_field(
        dim=1,
        period=period,
        q_const=1.0,
        q_sin=0.25,
        drift_terms=(DriftTerm(power=3, const=-1.0), DriftTerm(power=1, const=-1.0, cos=-0.5)),
        name="grad1d",
    )


def gen_field(
    dim: int = 2,
    period: float = 1.0,
    rate_const: float = 2.0,
    rate_cos: float = 0.5,
    q_const: float = 1.0,
    q_sin: float = 0.1,
    q_bump: float = 0.25,
    name: str = "gen2d",
) -> PeriodicCoefficientField:
    """General-diffusion benchmark: Q varies in x through a rational bump.

    Q(t, x) = (q_const + q_sin sin(2 pi t / T) + q_bump / (1 + |x|^2)) I and
    b(t, x) = -(rate_const + rate_cos cos(2 pi t / T)) x.  Q is bounded and
    strictly elliptic; the drift is linear and strongly dissipative so ell_2
    stays negative despite the x-dependent diffusion.
    """
    w = 2.0 * np.pi / period
    eye = np.eye(dim)

    def q(t, X):
        # column by column: numpy's reductions over a short axis and
        # broadcasting against eye cost several times more per point
        X = np.atleast_2d(X)
        r2 = X[:, 0] * X[:, 0]
        for i in range(1, dim):
            r2 += X[:, i] * X[:, i]
        scalar = q_const + q_sin * math.sin(w * t) + q_bump / (1.0 + r2)
        out = np.zeros((len(X), dim, dim))
        for i in range(dim):
            out[:, i, i] = scalar
        return out

    def b(t, X):
        X = np.atleast_2d(X)
        return -(rate_const + rate_cos * math.cos(w * t)) * X

    def grad_b(t, X):
        X = np.atleast_2d(X)
        rate = rate_const + rate_cos * math.cos(w * t)
        return np.broadcast_to(-rate * eye, (X.shape[0], dim, dim)).copy()

    def grad_q(t, X):
        # D_k q_ij = -2 q_bump x_k / (1 + |x|^2)^2 * delta_ij
        X = np.atleast_2d(X)
        r2 = np.sum(X * X, axis=1)
        dk = -2.0 * q_bump * X / ((1.0 + r2) ** 2)[:, None]  # (n, d)
        return dk[:, :, None, None] * eye

    return PeriodicCoefficientField(
        dim=dim,
        period=period,
        q=q,
        b=b,
        grad_q=grad_q,
        grad_b=grad_b,
        q_independent_of_x=False,
        name=name,
    )
