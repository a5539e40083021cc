"""Quadrature-grade engine for time-periodic linear-drift Gaussian dynamics.

For the family  dX = (A(t) X + f(t)) dt + B(t) dW  with T-periodic data, the
transition law started at (s, x) is Gaussian,

    N( U(t,s) x + m(t,s),  S(t,s) ),

where U solves dU/dt = A(t) U, U(s,s) = I, and the shift and covariance solve
the companion linear equations.  Everything downstream (closed-form action
on exponentials, Gauss-Hermite expectations) is built from one adaptive
high-order ODE solve per (t, s) pair.  The periodic system of measures is
exact at every phase: mu_s is the fixed point of the one-period map from s,
one ODE solve plus a discrete Lyapunov equation, with no interpolation.  So
this module serves as the reference oracle against which the stochastic and
grid engines are validated.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import solve_discrete_lyapunov

from .errors import DimensionTooLarge, IntegratorFailure, NotDissipative
from .fields import PeriodicCoefficientField

DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class OUModel:
    """T-periodic linear model: matrices A(t), B(t) and forcing f(t)."""

    dim: int
    period: float
    A: Callable[[float], np.ndarray]
    B: Callable[[float], np.ndarray]
    f: Callable[[float], np.ndarray] | None = None
    name: str = "ou"

    def forcing(self, t: float) -> np.ndarray:
        if self.f is None:
            return np.zeros(self.dim)
        return np.asarray(self.f(t), dtype=float)

    def check_ellipticity(self, n_times: int = 64) -> None:
        """det B(t) != 0 on a dense phase grid, else the model is degenerate."""
        for t in self.period * np.arange(n_times) / n_times:
            if abs(np.linalg.det(np.asarray(self.B(t)))) < 1e-14:
                raise ValueError(f"det B(t) vanishes at t={t}: degenerate diffusion")


def fourier_matrix_model(
    dim: int = 1,
    period: float = 1.0,
    a0=None,
    a_sin=None,
    a_cos=None,
    b0=None,
    b_sin=None,
    b_cos=None,
    f0=None,
    f_sin=None,
    f_cos=None,
    name: str = "ou",
) -> OUModel:
    """OUModel with first-harmonic Fourier data (the JSON scenario encoding)."""
    w = 2.0 * np.pi / period

    def mat(const, msin, mcos, default):
        const = default if const is None else np.asarray(const, dtype=float)
        msin = np.zeros((dim, dim)) if msin is None else np.asarray(msin, dtype=float)
        mcos = np.zeros((dim, dim)) if mcos is None else np.asarray(mcos, dtype=float)
        return lambda t: const + np.sin(w * t) * msin + np.cos(w * t) * mcos

    def vec(const, vsin, vcos):
        if const is None and vsin is None and vcos is None:
            return None
        const = np.zeros(dim) if const is None else np.asarray(const, dtype=float)
        vsin = np.zeros(dim) if vsin is None else np.asarray(vsin, dtype=float)
        vcos = np.zeros(dim) if vcos is None else np.asarray(vcos, dtype=float)
        return lambda t: const + np.sin(w * t) * vsin + np.cos(w * t) * vcos

    return OUModel(
        dim=dim,
        period=period,
        A=mat(a0, a_sin, a_cos, np.zeros((dim, dim))),
        B=mat(b0, b_sin, b_cos, np.eye(dim)),
        f=vec(f0, f_sin, f_cos),
        name=name,
    )


def ou1d_model(period: float = 1.0) -> OUModel:
    """The scalar benchmark a(t) = -1 + 0.5 sin(2 pi t), B = 1."""
    return fourier_matrix_model(1, period, a0=[[-1.0]], a_sin=[[0.5]], name="ou1d")


@dataclass(frozen=True)
class GaussianMeasure:
    """Mean vector plus symmetric PSD covariance."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        cov = 0.5 * (cov + cov.T)
        w, v = np.linalg.eigh(cov)
        if w.min() < -1e-12 * max(1.0, w.max()):
            raise ValueError(f"covariance has negative eigenvalue {w.min():.3e}")
        cov = (v * np.clip(w, 0.0, None)) @ v.T
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", 0.5 * (cov + cov.T))

    @property
    def dim(self) -> int:
        return len(self.mean)

    def sqrt_cov(self) -> np.ndarray:
        w, v = np.linalg.eigh(self.cov)
        return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T


def _transition_ode(model: OUModel, t: float, s: float, tol: float):
    """One DOP853 solve for (U(t,s), S(t,s), m(t,s)) jointly."""
    d = model.dim
    if t == s:
        return np.eye(d), np.zeros((d, d)), np.zeros(d)
    if t < s:
        raise ValueError("transition requires t >= s")

    def rhs(r, y):
        u = y[: d * d].reshape(d, d)
        sig = y[d * d : 2 * d * d].reshape(d, d)
        m = y[2 * d * d :]
        a = np.asarray(model.A(r))
        bbt = np.asarray(model.B(r))
        bbt = bbt @ bbt.T
        du = a @ u
        dsig = a @ sig + sig @ a.T + bbt
        dm = a @ m + model.forcing(r)
        return np.concatenate([du.ravel(), dsig.ravel(), dm])

    y0 = np.concatenate([np.eye(d).ravel(), np.zeros(d * d), np.zeros(d)])
    sol = solve_ivp(rhs, (s, t), y0, method="DOP853", rtol=tol, atol=tol * 1e-2)
    if not sol.success:
        raise IntegratorFailure(f"propagator solve failed on [{s}, {t}]: {sol.message}")
    y = sol.y[:, -1]
    u = y[: d * d].reshape(d, d)
    sig = y[d * d : 2 * d * d].reshape(d, d)
    return u, 0.5 * (sig + sig.T), y[2 * d * d :]


def propagator(model: OUModel, t: float, s: float, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Linear-flow matrix U(t, s) with dU/dt = A(t) U, U(s, s) = I."""
    return _transition_ode(model, t, s, tol)[0]


def covariance(model: OUModel, t: float, s: float, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Transition covariance  S(t,s) = int_s^t U(t,r) B(r) B(r)^T U(t,r)^T dr.

    Computed as the unique solution of the matrix equation
    dS/dt = A(t) S + S A(t)^T + B(t) B(t)^T, S(s)=0, integrated with the same
    adaptive tolerance; the quadrature form above is its variation-of-constants
    representation and is used as the independent oracle in the test suite.
    """
    return _transition_ode(model, t, s, tol)[1]


def growth_bound(model: OUModel, tol: float = DEFAULT_TOL) -> float:
    """Floquet growth bound: log spectral radius of the monodromy over T."""
    return _floquet_exponent(propagator(model, model.period, 0.0, tol), model.period)


def _floquet_exponent(mono: np.ndarray, period: float) -> float:
    return float(np.log(np.abs(np.linalg.eigvals(mono)).max()) / period)


class PeriodicGaussianSystem:
    """The T-periodic Gaussian system of measures, one phase at a time.

    mu_s is the invariant law of the one-period map P(s+T, s): its covariance
    solves the discrete Lyapunov equation Sigma = M Sigma M^T + S_per, with M
    the one-period flow from s and S_per the one-period transition
    covariance, and its mean solves (I - M) m = shift.  Both solutions are
    unique because the growth bound is negative.  Each canonical phase is
    solved once, on first request, under a lock shared by concurrent callers.
    ``growth_bound`` is the Floquet exponent of the phase-0 monodromy.
    """

    def __init__(self, model: OUModel, tol: float = DEFAULT_TOL):
        self.model = model
        self.period = model.period
        self.tol = tol
        self._lock = threading.Lock()
        law = _transition_ode(model, model.period, 0.0, tol)
        self.growth_bound = _floquet_exponent(law[0], model.period)
        if self.growth_bound >= 0.0:
            raise NotDissipative(f"growth bound {self.growth_bound:.4f} is not negative")
        self._measures = {0.0: self._fixed_point(*law)}

    def _fixed_point(self, mono, s_per, shift) -> GaussianMeasure:
        mean = np.linalg.solve(np.eye(self.model.dim) - mono, shift)
        return GaussianMeasure(mean, solve_discrete_lyapunov(mono, s_per))

    def measure(self, s: float) -> GaussianMeasure:
        """The invariant law of the one-period map at the canonical phase of s."""
        key = s % self.period
        with self._lock:
            if key not in self._measures:
                law = _transition_ode(self.model, key + self.period, key, self.tol)
                self._measures[key] = self._fixed_point(*law)
            return self._measures[key]


def periodic_system(model: OUModel, tol: float = DEFAULT_TOL) -> PeriodicGaussianSystem:
    """The periodic Gaussian system of measures; raises NotDissipative unless
    the Floquet growth bound is negative."""
    return PeriodicGaussianSystem(model, tol)


def apply_to_exponential(model: OUModel, h, t: float, s: float, x, tol: float = DEFAULT_TOL) -> complex:
    """Closed-form action of the transition operator on exp(i <., h>).

    Returns exp(-<S(t,s) h, h>/2 + i <U(t,s) x + m(t,s), h>); the modulus
    tends to the stationary characteristic function as t - s grows.
    """
    h = np.atleast_1d(np.asarray(h, dtype=float))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u, sig, m = _transition_ode(model, t, s, tol)
    return complex(np.exp(-0.5 * h @ sig @ h + 1j * np.dot(u @ x + m, h)))


def hermite_nodes(dim: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensorized Gauss-Hermite nodes/weights for the standard normal, d <= 3."""
    if dim > 3:
        raise DimensionTooLarge("tensorized Gauss-Hermite is limited to d <= 3")
    if not 1 <= order <= 300:
        raise ValueError("order must be in [1, 300] (hermgauss loses accuracy beyond)")
    nodes1, weights1 = np.polynomial.hermite.hermgauss(order)
    nodes1 = nodes1 * np.sqrt(2.0)
    weights1 = weights1 / np.sqrt(np.pi)
    grids = np.meshgrid(*([nodes1] * dim), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    w = np.ones(len(pts))
    for axis in range(dim):
        wg = np.meshgrid(*([weights1] * dim), indexing="ij")[axis].ravel()
        w = w * wg
    return pts, w


def gaussian_nodes(measure: GaussianMeasure, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes/weights for integrating against a Gaussian measure."""
    z, w = hermite_nodes(measure.dim, order)
    return measure.mean + z @ measure.sqrt_cov().T, w


def gaussian_expectation(measure: GaussianMeasure, phi, order: int = 40) -> float:
    """Gauss-Hermite expectation of phi (exact for degree <= 2*order - 1)."""
    pts, w = gaussian_nodes(measure, order)
    vals = np.asarray(phi(pts))
    return complex(w @ vals) if np.iscomplexobj(vals) else float(w @ vals)


def transition_cloud(xs, u, sig, m, z) -> np.ndarray:
    """Quadrature points of the transition laws N(U x + m, S) from each row x of xs.

    ``z`` holds standard-normal nodes (q, d); the result is (q, n, d), node
    major, so a weight vector over the first axis integrates each law.
    """
    noise = z @ GaussianMeasure(np.zeros(len(m)), sig).sqrt_cov().T  # (q, d)
    return xs @ u.T + m + noise[:, None, :]


def apply(model: OUModel, phi, t: float, s: float, x, order: int = 40, tol: float = DEFAULT_TOL):
    """Quadrature-grade evaluation of the transition expectation at points x.

    ``x`` may be one point ``(d,)`` or a batch ``(n, d)``; the shared flow is
    solved once and phi is integrated against each transition Gaussian.
    """
    z, w = hermite_nodes(model.dim, order)
    xs = np.atleast_2d(np.asarray(x, dtype=float))
    pts = transition_cloud(xs, *_transition_ode(model, t, s, tol), z)
    vals = np.asarray(phi(pts.reshape(-1, model.dim))).reshape(len(w), len(xs))
    out = w @ vals
    return out if np.ndim(x) > 1 else out[0]


def as_field(model: OUModel) -> PeriodicCoefficientField:
    """Adapter to the generic coefficient-field interface.

    The operator convention carries a factor one half on the second-order
    term, so Q = B B^T / 2; the drift Jacobian is exactly A(t) and zeta == 0.
    """
    d = model.dim

    def q(t, X):
        X = np.atleast_2d(X)
        bb = np.asarray(model.B(t))
        return np.broadcast_to(0.5 * bb @ bb.T, (X.shape[0], d, d)).copy()

    def b(t, X):
        X = np.atleast_2d(X)
        return X @ np.asarray(model.A(t)).T + model.forcing(t)

    def grad_b(t, X):
        X = np.atleast_2d(X)
        return np.broadcast_to(np.asarray(model.A(t)), (X.shape[0], d, d)).copy()

    return PeriodicCoefficientField(
        dim=d,
        period=model.period,
        q=q,
        b=b,
        grad_b=grad_b,
        q_independent_of_x=True,
        name=model.name,
    )
