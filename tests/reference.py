"""Reference instruments of the acceptance gate (AC1-AC11) and the unit tests.

These are independent oracles the tests compare the lab against: a point-mass
Monte Carlo transition estimate, the Gaussian transition law (U, S, m) by an
adaptive DOP853 solve, and from it the linear flow U(t, s), the transition
covariance S(t, s), the Floquet growth bound and the closed-form action on
exponentials, Gauss-Hermite expectations against a Gaussian measure,
scipy's discrete Lyapunov solve (the oracle of the lab's numpy one), and
the grid's former loops and sparse assembly: the slice operator by
COO-to-CSR conversion, the Crank-Nicolson step by sparse sums and
``spsolve``, the shift-invert gap by two complex solves, and the non-axis
filter of the spectral-mapping check as a loop.  No lab code calls them; the engines reach the same numbers through
``engines.OUExactEngine``, ``engines.MonteCarloEngine`` and
``ougaussian.PeriodicGaussianSystem``, whose laws come from Chebyshev
collocation.  Their bodies are kept as they were when they lived in
``periodiclab``, so that the gate's instruments stay bit-identical.
``evolve``, which pushes an ensemble from s to t on the lab's own march, is
the harness of the march tests and of the transition estimate;
``tangent_march`` carries identity Jacobians along the same march, and
``pointwise_sample_check`` is the per-sample pointwise gradient check the lab
ran before it read that check off its transfer profile.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.integrate import solve_ivp
from scipy.linalg import solve_discrete_lyapunov  # noqa: F401  (an oracle)

from periodiclab.errors import IntegratorFailure
from periodiclab.fields import PeriodicCoefficientField
from periodiclab.grid import ARNOLDI_TOL, DiscreteGenerator, SpaceTimeGrid
from periodiclab.montecarlo import ParticleEnsemble, SimConfig, _march, mean_and_stderr
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


def tangent_march(
    field: PeriodicCoefficientField,
    positions,
    s: float,
    t: float,
    config: SimConfig,
    stream: tuple = ("evolve-tangent",),
):
    """Positions and Jacobians at t of particles started at ``positions`` at s with
    identity Jacobians: one RNG block on the stream ``stream``; needs x-independent
    diffusion."""
    pos = np.atleast_2d(np.asarray(positions, dtype=float))
    n, d = pos.shape
    (_, pos, jac), = _march(field, pos, np.broadcast_to(np.eye(d), (n, d, d)), s, [t], config,
                            stream)
    return pos, jac


def grad_norm(phi, t: float, points) -> np.ndarray:
    """|grad_x phi(t, x)| at each of the points."""
    return np.linalg.norm(phi.grad_at(t, points), axis=1)


def pointwise_sample_check(
    field: PeriodicCoefficientField,
    phi,
    t: float,
    s: float,
    x,
    config: SimConfig,
    r0: float,
    stream: tuple,
) -> dict:
    """One sample of |grad_x P phi| <= exp(r0 (t-s)) P |grad phi| + 4 stderr.

    Both sides are estimated on the same tangent march from the point mass at
    x, on the stream named ``stream``, so the pathwise inequality transfers to
    the estimators up to time-discretization error.
    """
    pos, jac = tangent_march(field, np.tile(np.atleast_1d(x), (config.n_particles, 1)), s, t,
                             config, stream=stream)
    pulled = np.einsum("nij,ni->nj", jac, phi.grad_at(t, pos))
    lhs_vec, lhs_ses = mean_and_stderr(pulled.T)
    lhs = float(np.linalg.norm(lhs_vec))
    rhs_mean, rhs_se = mean_and_stderr(grad_norm(phi, t, pos))
    rhs = math.exp(r0 * (t - s)) * float(rhs_mean)
    stderr = math.hypot(float(np.linalg.norm(lhs_ses)), math.exp(r0 * (t - s)) * float(rhs_se))
    return {
        "t": t, "s": s, "x": np.atleast_1d(x).tolist(), "phi": phi.fid,
        "lhs": lhs, "rhs": rhs, "stderr": stderr,
        "holds": lhs <= rhs + 4.0 * stderr,
    }


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


def coo_spatial_operator(field: PeriodicCoefficientField, t: float, grid: SpaceTimeGrid) -> sp.csr_matrix:
    """The slice operator assembled as COO triplets and converted to CSR."""
    n = grid.points_per_axis
    d = grid.dim
    h = grid.h
    nodes = grid.nodes()
    q = np.asarray(field.q(t, nodes))        # (m, d, d)
    b = np.asarray(field.b(t, nodes))        # (m, d)
    m = grid.n_space

    strides = [n ** (d - 1 - axis) for axis in range(d)]
    idx = np.indices((n,) * d).reshape(d, -1)

    rows, cols, vals = [], [], []
    diag = np.zeros(m)

    def add(r, c, v):
        rows.append(r)
        cols.append(c)
        vals.append(v)

    for axis in range(d):
        qa = q[:, axis, axis]
        ba = b[:, axis]
        pe = np.abs(ba) * h / (2.0 * qa)
        central = pe <= 1.0
        conv_low = np.where(central, -ba / (2.0 * h), np.where(ba < 0.0, -ba / h, 0.0))
        conv_up = np.where(central, ba / (2.0 * h), np.where(ba > 0.0, ba / h, 0.0))
        lower = qa / h**2 + conv_low
        upper = qa / h**2 + conv_up
        has_lower = idx[axis] > 0
        has_upper = idx[axis] < n - 1
        r_all = np.arange(m)
        add(r_all[has_lower], r_all[has_lower] - strides[axis], lower[has_lower])
        add(r_all[has_upper], r_all[has_upper] + strides[axis], upper[has_upper])
        diag -= lower + upper

    # mixed second derivatives 2 q_ab D_ab via the centered 4-point stencil
    for a_ax in range(d):
        for b_ax in range(a_ax + 1, d):
            qab = q[:, a_ax, b_ax]
            if not np.any(qab):
                continue
            coeff = qab / (2.0 * h * h)
            for sa in (-1, 1):
                for sb in (-1, 1):
                    mask = (
                        ((idx[a_ax] > 0) if sa < 0 else (idx[a_ax] < n - 1))
                        & ((idx[b_ax] > 0) if sb < 0 else (idx[b_ax] < n - 1))
                    )
                    shift = sa * strides[a_ax] + sb * strides[b_ax]
                    sign = 1.0 if sa == sb else -1.0
                    r_all = np.arange(m)[mask]
                    add(r_all, r_all + shift, sign * coeff[mask])
            # corner couplings sum to zero, so no diagonal contribution

    add(np.arange(m), np.arange(m), diag)
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    return sp.csr_matrix((vals, (rows, cols)), shape=(m, m))


def spsolve_cn_step(a_now, a_next, dt: float, u):
    """One Crank-Nicolson step from the assembled sums I +- dt/2 A and ``spsolve``."""
    m = a_now.shape[0]
    eye = sp.identity(m, format="csr")
    rhs = (eye + 0.5 * dt * a_now) @ u
    return spla.spsolve(sp.csc_matrix(eye - 0.5 * dt * a_next), rhs)


def two_shift_gap(gen: DiscreteGenerator, k: int = 12, cluster_tol: float = 1e-3) -> float:
    """The shift-invert gap from complex solves at 0.25 and 0.25 + 2 pi i / T.

    The conjugates of the second solve stand for the one at 0.25 - 2 pi i / T,
    near-duplicates are merged, the axis cluster is matched as ``grid.spectrum``
    matches it, and the gap is the largest real part outside it.
    """
    g_mat = gen.matrix
    n = gen.size
    w = 2.0 * np.pi / gen.grid.period
    g_complex = g_mat.astype(complex)
    start = np.random.default_rng(7).standard_normal(n) + 0j
    found = [spla.eigs(g_complex, k=min(k, n - 2), sigma=sigma, v0=start, tol=ARNOLDI_TOL,
                       return_eigenvectors=False)
             for sigma in (0.25, 0.25 + 1j * w)]
    found.append(np.conj(found[1]))
    keep = []
    for z in np.concatenate(found):
        if not any(abs(z - y) < 1e-9 * (1 + abs(z)) for y in keep):
            keep.append(z)
    eigs = np.array(keep)
    eigs = eigs[np.lexsort((eigs.imag, np.abs(eigs.imag), -np.round(eigs.real, 3)))]
    n_t = gen.grid.time_slices
    max_k = (n_t - 1) // 2 if n_t % 2 == 1 else n_t // 2 - 1
    used = np.zeros(len(eigs), dtype=bool)
    for kk in range(-max_k, max_k + 1):
        dist = np.abs(eigs - 1j * w * kk)
        dist[used] = np.inf
        j = int(np.argmin(dist))
        if dist[j] <= cluster_tol:
            used[j] = True
    return float(eigs[~used].real.max())


def loop_nonaxis(report, period: float) -> list:
    """The eigenvalues of a spectrum report outside its axis cluster with
    |Im| <= 2 * 2 pi / T, in report order, filtered one at a time."""
    cluster_set = [z for _, z in report.axis_cluster]
    w0 = 2.0 * np.pi / period
    return [
        z for z in report.eigenvalues
        if not any(abs(z - c) < 1e-12 for c in cluster_set)
        and abs(z.imag) <= 2 * w0
    ]
