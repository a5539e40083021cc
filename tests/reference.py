"""Reference instruments of the acceptance gate (AC1-AC11) and the unit tests.

These are independent oracles the tests compare the lab against: a point-mass
Monte Carlo transition estimate, the Gaussian transition law (U, S, m) by an
adaptive DOP853 solve, and from it the linear flow U(t, s), the transition
covariance S(t, s), the Floquet growth bound and the closed-form action on
exponentials, Gauss-Hermite expectations against a Gaussian measure, and
scipy's discrete Lyapunov solve (the oracle of the lab's numpy one).  No
lab code calls them; the engines reach the same numbers through
``engines.OUExactEngine``, ``engines.MonteCarloEngine`` and
``ougaussian.PeriodicGaussianSystem``, whose laws come from Chebyshev
collocation.  Their bodies are kept as they were when they lived in
``periodiclab``, so that the gate's instruments stay bit-identical.
``evolve``, which pushes an ensemble from s to t on the lab's own march, is
the harness of the march tests and of the transition estimate.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import solve_discrete_lyapunov  # noqa: F401  (an oracle)

from periodiclab.errors import IntegratorFailure
from periodiclab.fields import PeriodicCoefficientField
from periodiclab.montecarlo import ParticleEnsemble, SimConfig, _march
from periodiclab.ougaussian import (
    DEFAULT_TOL,
    GaussianMeasure,
    OUModel,
    _floquet_exponent,
    hermite_nodes,
)


def evolve(
    field: PeriodicCoefficientField,
    ensemble: ParticleEnsemble,
    s: float,
    t: float,
    config: SimConfig,
    stream: tuple = ("evolve",),
) -> ParticleEnsemble:
    """Push an ensemble from its time stamp s to t >= s, one RNG block on the stream ``stream``."""
    if not math.isclose(ensemble.t, s, rel_tol=0.0, abs_tol=1e-12):
        raise ValueError(f"ensemble time stamp {ensemble.t} does not match s={s}")
    (t_out, pos, _), = _march(field, ensemble.positions, None, s, [t], config, stream)
    return ParticleEnsemble(t_out, pos)


def point_mass(x, n: int, t: float = 0.0) -> ParticleEnsemble:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return ParticleEnsemble(t, np.tile(x, (n, 1)))


def estimate_P(
    field: PeriodicCoefficientField,
    phi,
    t: float,
    s: float,
    x,
    config: SimConfig,
    stream: tuple = ("transition",),
):
    """Monte Carlo transition expectation started from the point mass at x.

    Returns (value, stderr); complex-valued test functions are supported and
    the standard error then combines both components.
    """
    ens = evolve(field, point_mass(x, config.n_particles, s), s, t, config, stream)
    vals = np.asarray(phi(ens.positions))
    value = vals.mean()
    if np.iscomplexobj(vals):
        se = math.sqrt(vals.real.var(ddof=1) + vals.imag.var(ddof=1)) / math.sqrt(len(vals))
        return complex(value), se
    return float(value), float(vals.std(ddof=1) / math.sqrt(len(vals)))


def dop853_law(model: OUModel, t: float, s: float, tol: float = DEFAULT_TOL):
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
    return dop853_law(model, t, s, tol)[0]


def covariance(model: OUModel, t: float, s: float, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Transition covariance  S(t,s) = int_s^t U(t,r) B(r) B(r)^T U(t,r)^T dr.

    Computed as the unique solution of the matrix equation
    dS/dt = A(t) S + S A(t)^T + B(t) B(t)^T, S(s)=0, integrated with the same
    DOP853 tolerance; the quadrature form above is its variation-of-constants
    representation and is used as the independent oracle in the test suite.
    """
    return dop853_law(model, t, s, tol)[1]


def growth_bound(model: OUModel, tol: float = DEFAULT_TOL) -> float:
    """Floquet growth bound: log spectral radius of the monodromy over T."""
    return _floquet_exponent(propagator(model, model.period, 0.0, tol), model.period)


def apply_to_exponential(model: OUModel, h, t: float, s: float, x, tol: float = DEFAULT_TOL) -> complex:
    """Closed-form action of the transition operator on exp(i <., h>).

    Returns exp(-<S(t,s) h, h>/2 + i <U(t,s) x + m(t,s), h>); the modulus
    tends to the stationary characteristic function as t - s grows.
    """
    h = np.atleast_1d(np.asarray(h, dtype=float))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u, sig, m = dop853_law(model, t, s, tol)
    return complex(np.exp(-0.5 * h @ sig @ h + 1j * np.dot(u @ x + m, h)))


def gaussian_nodes(measure: GaussianMeasure, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes/weights for integrating against a Gaussian measure."""
    z, w = hermite_nodes(measure.dim, order)
    return measure.mean + z @ measure.sqrt_cov().T, w


def gaussian_expectation(measure: GaussianMeasure, phi, order: int = 40) -> float:
    """Gauss-Hermite expectation of phi (exact for degree <= 2*order - 1)."""
    pts, w = gaussian_nodes(measure, order)
    vals = np.asarray(phi(pts))
    return complex(w @ vals) if np.iscomplexobj(vals) else float(w @ vals)
