"""Quadrature-grade engine for time-periodic linear-drift Gaussian dynamics.

For the family  dX = (A(t) X + f(t)) dt + B(t) dW  with T-periodic data, the
transition law started at (s, x) is Gaussian,

    N( U(t,s) x + m(t,s),  S(t,s) ),

where U solves dU/dt = A(t) U, U(s,s) = I, and the shift and covariance solve
the companion linear equations.  The three are one linear system, solved
without iteration by Chebyshev-Lobatto collocation: one dense solve on 16,
32, ... nodes until two in a row agree to the tolerance, with the interval
halved when that would outgrow a dense solve.  Everything downstream (the
periodic measures, and transition expectations by Gauss-Hermite quadrature
over ``transition_cloud``) is built from these laws; the data are
T-periodic, so ``PeriodicGaussianSystem`` solves one per canonical phase of s
and length t - s up to one period, and raises the one-period law to the
number of whole periods by squaring, so a law's cost grows like the log of
its length.  The periodic system of measures is exact at every phase: mu_s
is the fixed point of the one-period map from s, plus a discrete Lyapunov
equation, with no interpolation.  So this module serves as the reference
oracle against which the stochastic and grid engines are validated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionTooLarge, IntegratorFailure, NotDissipative
from .fields import PeriodicCoefficientField
from .once import Once

DEFAULT_TOL = 1e-10
_MAX_UNKNOWNS = 2000     # of one dense collocation system
_MAX_SPLITS = 12         # halvings of a law's interval before it counts as unresolved


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
        """det B(t) != 0 on a dense phase grid, else the model is degenerate.

        B is continuous, so a sign change of det B between consecutive
        samples (wrapping round the period) also proves a zero.
        """
        step = self.period / n_times
        dets = [np.linalg.det(np.asarray(self.B(k * step))) for k in range(n_times)]
        for k, det in enumerate(dets):
            if abs(det) < 1e-14:
                raise ValueError(f"det B(t) vanishes at t={k * step}: degenerate diffusion")
            if det * dets[(k + 1) % n_times] < 0:
                raise ValueError(f"det B(t) changes sign between t={k * step} and "
                                 f"t={(k + 1) * step}: degenerate diffusion")


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


def _chebyshev(n: int):
    """Chebyshev-Lobatto points cos(pi j / n), j = 0..n, and their differentiation
    matrix (Trefethen, Spectral Methods in MATLAB, SIAM 2000, ``cheb.m``), with
    the node differences taken as products of sines, which keeps them accurate
    where two nodes crowd together at large n."""
    j = np.arange(n + 1)
    x = np.cos(np.pi * j / n)
    c = np.where((j == 0) | (j == n), 2.0, 1.0) * (-1.0) ** j
    half = 0.5 * np.pi / n
    dx = -2.0 * np.sin((j[:, None] + j) * half) * np.sin((j[:, None] - j) * half)
    diff = np.outer(c, 1.0 / c) / (dx + np.eye(n + 1))
    return x, diff - np.diag(diff.sum(axis=1))


def _collocate(model: OUModel, s: float, t: float, n: int) -> np.ndarray:
    """(vec U, vec S, m) at t from one collocation solve on n + 1 nodes of [s, t].

    The stacked state y obeys y' = L(r) y + g(r), block by block U' = A U,
    S' = A S + S A^T + B B^T and m' = A m + f, with U and S raveled row-major.
    Its equations at the nodes, with those of the first node (r = s) replaced
    by the initial condition U = I, S = 0, m = 0, are one dense linear system.
    """
    d, dd = model.dim, model.dim * model.dim
    size = 2 * dd + d
    x, diff = _chebyshev(n)
    nodes = s + 0.5 * (t - s) * (1.0 - x)           # nodes[0] = s, nodes[n] = t
    a = np.array([model.A(r) for r in nodes], dtype=float).reshape(n + 1, d, d)
    b = np.array([model.B(r) for r in nodes], dtype=float).reshape(n + 1, d, d)
    f = np.array([model.forcing(r) for r in nodes], dtype=float).reshape(n + 1, d)
    if not (np.isfinite(a).all() and np.isfinite(b).all() and np.isfinite(f).all()):
        raise IntegratorFailure(f"non-finite model coefficient on [{s}, {t}]")
    eye = np.eye(d)
    a_left = np.einsum("nil,km->niklm", a, eye).reshape(n + 1, dd, dd)   # vec(A X)
    a_right = np.einsum("il,nkm->niklm", eye, a).reshape(n + 1, dd, dd)  # vec(X A^T)
    op = np.zeros((n + 1, size, size))
    op[:, :dd, :dd] = a_left
    op[:, dd:2 * dd, dd:2 * dd] = a_left + a_right
    op[:, 2 * dd:, 2 * dd:] = a
    rhs = np.concatenate([np.zeros((n + 1, dd)), (b @ b.transpose(0, 2, 1)).reshape(n + 1, dd), f],
                         axis=1)
    system = np.kron(diff * (-2.0 / (t - s)), np.eye(size))    # d/dr, as x runs from 1 to -1
    at_node = np.arange(n + 1)
    system.reshape(n + 1, size, n + 1, size)[at_node, :, at_node, :] -= op
    system[:size] = np.eye(size, (n + 1) * size)
    rhs[0] = np.concatenate([eye.ravel(), np.zeros(dd + d)])
    try:
        y = np.linalg.solve(system, rhs.ravel())[-size:]
    except np.linalg.LinAlgError as exc:
        raise IntegratorFailure(f"singular collocation system on [{s}, {t}]") from exc
    if not np.isfinite(y).all():
        raise IntegratorFailure(f"non-finite law on [{s}, {t}]")
    return y


def compose_laws(first, then):
    """The law over [r0, r2] from the laws over [r0, r1] (first) and [r1, r2] (then):
    (U2 U1, U2 S1 U2^T + S2, U2 m1 + m2)."""
    u1, s1, m1 = first
    u2, s2, m2 = then
    return u2 @ u1, u2 @ s1 @ u2.T + s2, u2 @ m1 + m2


def _law_power(law, k: int):
    """The law composed with itself k >= 1 times, by repeated squaring: the law
    over k periods when ``law`` is a one-period law."""
    power = None
    while True:
        if k & 1:
            power = law if power is None else compose_laws(power, law)
        k >>= 1
        if not k:
            return power
        law = compose_laws(law, law)


def _collocated_law(model: OUModel, s: float, t: float, tol: float, depth: int = 0):
    """Collocation solves on 16, 32, ... nodes until two in a row agree within
    tol * max(1, |y|); an interval whose dense system would outgrow
    ``_MAX_UNKNOWNS`` before that is split in two, at most ``_MAX_SPLITS`` deep."""
    d, dd = model.dim, model.dim * model.dim
    size = 2 * dd + d
    previous, n = None, 16
    while size * (n + 1) <= _MAX_UNKNOWNS:
        y = _collocate(model, s, t, n)
        if previous is not None and np.abs(y - previous).max() <= tol * max(1.0, np.abs(y).max()):
            return y[:dd].reshape(d, d), y[dd:2 * dd].reshape(d, d), y[2 * dd:]
        previous, n = y, 2 * n
    if depth == _MAX_SPLITS:
        raise IntegratorFailure(f"collocation does not resolve the law on [{s}, {t}]")
    mid = 0.5 * (s + t)
    return compose_laws(_collocated_law(model, s, mid, tol, depth + 1),
                        _collocated_law(model, mid, t, tol, depth + 1))


def _transition_ode(model: OUModel, t: float, s: float, tol: float):
    """(U(t,s), S(t,s), m(t,s)) jointly, by Chebyshev collocation on [s, t]."""
    d = model.dim
    if t == s:
        return np.eye(d), np.zeros((d, d)), np.zeros(d)
    if t < s:
        raise ValueError("transition requires t >= s")
    u, sig, m = _collocated_law(model, s, t, tol)
    return u, 0.5 * (sig + sig.T), m


def solve_discrete_lyapunov(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """X with X = A X A^T + Q, by one dense solve of (I - A kron A) vec X = vec Q
    (vec stacks rows).  At the lab's d <= 3, at most 9 unknowns, this is the
    method ``scipy.linalg.solve_discrete_lyapunov`` picks too."""
    lhs = np.eye(a.size) - np.kron(a, a)
    return np.linalg.solve(lhs, q.flatten()).reshape(q.shape)


def _floquet_exponent(mono: np.ndarray, period: float) -> float:
    return float(np.log(np.abs(np.linalg.eigvals(mono)).max()) / period)


class PeriodicGaussianSystem:
    """The T-periodic Gaussian system of measures, one phase at a time.

    mu_s is the invariant law of the one-period map P(s+T, s): its covariance
    solves the discrete Lyapunov equation Sigma = M Sigma M^T + S_per, with M
    the one-period flow from s and S_per the one-period transition
    covariance, and its mean solves (I - M) m = shift.  Both solutions are
    unique because the growth bound is negative.  Each law and each measure is
    solved once, on first request, also for concurrent callers.
    ``growth_bound`` is the Floquet exponent of the phase-0 monodromy.
    """

    def __init__(self, model: OUModel, tol: float = DEFAULT_TOL):
        self.model = model
        self.period = model.period
        self.tol = tol
        self._memo = Once()
        self.growth_bound = _floquet_exponent(self.law(0.0, model.period)[0], model.period)
        if self.growth_bound >= 0.0:
            raise NotDissipative(f"growth bound {self.growth_bound:.4f} is not negative")

    def _fixed_point(self, mono, s_per, shift) -> GaussianMeasure:
        mean = np.linalg.solve(np.eye(self.model.dim) - mono, shift)
        return GaussianMeasure(mean, solve_discrete_lyapunov(mono, s_per))

    def law(self, s: float, t: float):
        """(U(t,s), S(t,s), m(t,s)), solved once per canonical phase of s and length t - s."""
        return self._law(s % self.period, t - s)

    def _law(self, phase: float, length: float):
        return self._memo.get(("law", phase, length), lambda: self._solve_law(phase, length))

    def _solve_law(self, phase: float, length: float):
        """A law over at most one period is one solve; a longer one is the
        one-period law from its phase raised to the number of whole periods by
        squaring, then composed with the law over the remainder."""
        periods, rest = divmod(length, self.period)
        if periods == 0 or length == self.period:
            return _transition_ode(self.model, phase + length, phase, self.tol)
        law = _law_power(self._law(phase, self.period), int(periods))
        return law if rest == 0 else compose_laws(law, self._law(phase, rest))

    def measure(self, s: float) -> GaussianMeasure:
        """The invariant law of the one-period map at the canonical phase of s."""
        key = s % self.period
        return self._memo.get(("measure", key), lambda: self._fixed_point(
            *self.law(key, key + self.period)))


def periodic_system(model: OUModel, tol: float = DEFAULT_TOL) -> PeriodicGaussianSystem:
    """The periodic Gaussian system of measures; raises NotDissipative unless
    the Floquet growth bound is negative."""
    return PeriodicGaussianSystem(model, tol)


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
