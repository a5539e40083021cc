"""Uniform engine interface consumed by the diagnostics layer, and the test functions.

Every engine exposes the same five members:

* ``name``: the engine id written into reports;
* ``period``: the period T of the coefficients;
* ``stochastic``: True when the phase nodes are samples (standard errors
  are meaningful), False for deterministic quadrature;
* ``phase_nodes(phase)``: quadrature nodes and weights for the periodic
  invariant measure at a phase;
* ``transfer_profile``: the transition expectation (and, up to the horizon
  ``gradients``, its pathwise gradient) evaluated at measure-distributed
  points for a list of horizons, with per-point standard errors (zero for
  the deterministic engines).

The exact Gaussian engine reads its phase measures and transition laws from
one ``PeriodicGaussianSystem``, which solves each law once per (phase,
length), so a profile over horizons 1..8 from phase 0 reads the period map
that mu_0 solved.

The Monte Carlo engine runs one burn-in per run: one march from the far
past through phase 0 and on through every phase the run integrates over,
so particle i of every phase shares one ancestor and diagnostics that
average over phases take standard errors per particle.  Each of its marches
names its noise stream by what it estimates (the burn-in, a profile), and
``montecarlo.generator`` keys Philox by that name.

Engines only transport.  A profile evaluates the transported test function,
for every horizon, at one set of points distributed like the measure at the
*starting* time s, which is what the decay norms ``L^p(mu_s)`` integrate
against, and carries no centering: diagnostics takes every integral against
the measure from ``phase_nodes``, and centres with its ``phase_mean`` at the
target time.  A run's rate fits on one engine, contraction rows included,
read one profile (``TransferProfile.at``).

This is the one module that defines test functions, all of one type:
``TestFunction``, u(s, x) with ``fn(s, X) -> (n,)`` and ``grad(s, X) -> (n, d)``,
which every caller evaluates at an explicit time (a profile at the capture
time, diagnostics at the phase it integrates at).  Members that do not
depend on time, the decay battery and ``TANH_SLOPE``, ignore s.
``BumpWindow`` is the envelope of the core element and the carre du champ check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from . import montecarlo as mc
from . import ougaussian as ou
from .fields import PeriodicCoefficientField
from .hypotheses import LyapunovResult
from .once import Once

if TYPE_CHECKING:
    from . import grid as gridmod


@dataclass(frozen=True)
class TestFunction:
    """Vectorized scalar test function u(s, x) with its spatial gradient; a
    member that does not depend on time ignores s."""

    fid: str
    fn: Callable                 # (s, (n, d)) -> (n,)
    grad: Callable               # (s, (n, d)) -> (n, d)

    def __call__(self, s: float, points) -> np.ndarray:
        return np.asarray(self.fn(s, np.atleast_2d(points)))

    def grad_at(self, s: float, points) -> np.ndarray:
        return np.asarray(self.grad(s, np.atleast_2d(points)))


def battery() -> list[TestFunction]:
    """The documented time-free test-function battery (ids are stable report keys)."""
    return [
        TestFunction("const", lambda s, X: np.ones(len(X)), lambda s, X: np.zeros_like(X)),
        TestFunction("coord0", lambda s, X: X[:, 0], lambda s, X: _axis0_grad(X, 1.0)),
        TestFunction(
            "tanh",
            lambda s, X: np.tanh(X[:, 0]),
            lambda s, X: _axis0_grad(X, 1.0 / np.cosh(X[:, 0]) ** 2),
        ),
        TestFunction(
            "sin",
            lambda s, X: np.sin(X[:, 0]),
            lambda s, X: _axis0_grad(X, np.cos(X[:, 0])),
        ),
        TestFunction(
            "bump",
            lambda s, X: np.exp(-0.5 * np.sum(X * X, axis=1)),
            lambda s, X: -X * np.exp(-0.5 * np.sum(X * X, axis=1))[:, None],
        ),
        TestFunction(
            "ratio",
            lambda s, X: X[:, 0] / (1.0 + np.sum(X * X, axis=1)),
            _ratio_grad,
        ),
    ]


def _axis0_grad(X, vals):
    g = np.zeros_like(X)
    g[:, 0] = vals
    return g


def _ratio_grad(s, X):
    r2 = np.sum(X * X, axis=1)
    g = -2.0 * X * (X[:, 0] / (1.0 + r2) ** 2)[:, None]
    g[:, 0] += 1.0 / (1.0 + r2)
    return g


# |grad tanh(x_0)| in any d: the right side's member of the pointwise gradient check
TANH_SLOPE = TestFunction(
    "tanh-slope",
    lambda s, X: 1.0 / np.cosh(X[:, 0]) ** 2,
    lambda s, X: _axis0_grad(X, -2.0 * np.tanh(X[:, 0]) / np.cosh(X[:, 0]) ** 2),
)


def st_battery(period: float) -> list[TestFunction]:
    """Periodic-in-time battery for the inequality checks."""
    w = 2.0 * np.pi / period

    def mod(s):
        return 1.0 + 0.5 * math.cos(w * s)

    return [
        TestFunction("st-coord", lambda s, X: X[:, 0], lambda s, X: _axis0_grad(X, 1.0)),
        TestFunction(
            "st-sin-mod",
            lambda s, X: np.sin(X[:, 0]) * mod(s),
            lambda s, X: _axis0_grad(X, np.cos(X[:, 0]) * mod(s)),
        ),
        TestFunction(
            "st-bump-mod",
            lambda s, X: np.exp(-0.5 * np.sum(X * X, axis=1)) * (1.0 + 0.5 * math.sin(w * s)),
            lambda s, X: -X
            * (np.exp(-0.5 * np.sum(X * X, axis=1)) * (1.0 + 0.5 * math.sin(w * s)))[:, None],
        ),
    ]


def positive_battery() -> list[TestFunction]:
    """Strictly positive bounded functions for the entropy inequality."""
    return [
        TestFunction("pos-const", lambda s, X: np.full(len(X), 1.5), lambda s, X: np.zeros_like(X)),
        TestFunction(
            "pos-bump",
            lambda s, X: 1.0 + 0.5 * np.exp(-np.sum(X * X, axis=1)),
            lambda s, X: -X * np.exp(-np.sum(X * X, axis=1))[:, None],
        ),
        TestFunction(
            "pos-sin",
            lambda s, X: 2.0 + np.sin(X[:, 0]),
            lambda s, X: _axis0_grad(X, np.cos(X[:, 0])),
        ),
    ]


@dataclass(frozen=True)
class BumpWindow:
    """Smooth compactly supported envelope on (lo, hi) with closed-form slope."""

    lo: float
    hi: float

    def _z(self, s):
        mid = 0.5 * (self.lo + self.hi)
        return (np.asarray(s, dtype=float) - mid) / (0.5 * (self.hi - self.lo))

    def __call__(self, s):
        z = self._z(s)
        out = np.zeros_like(z)
        inside = np.abs(z) < 1.0
        out[inside] = np.exp(-1.0 / (1.0 - z[inside] ** 2))
        return out if out.shape else float(out)

    def deriv(self, s):
        z = self._z(s)
        out = np.zeros_like(z)
        inside = np.abs(z) < 1.0
        zi = z[inside]
        out[inside] = np.exp(-1.0 / (1.0 - zi**2)) * (-2.0 * zi / (1.0 - zi**2) ** 2)
        out = out / (0.5 * (self.hi - self.lo))
        return out if out.shape else float(out)


@dataclass
class TransferProfile:
    """Transition expectations over measure-distributed points per horizon."""

    horizons: np.ndarray                     # offsets tau, increasing
    weights: np.ndarray                      # (M,) measure at the start time, sums to 1
    values: dict                             # fid -> list of (g, se) arrays (M,)
    grads: dict                              # fid -> list of (gvec (M,d), se (M,)) or {}

    def at(self, horizons) -> "TransferProfile":
        """The rows of ``horizons``, gradients up to the span; a missing one is a ValueError."""
        ks = [list(self.horizons).index(tau) for tau in sorted(horizons)]
        return TransferProfile(self.horizons[ks], self.weights, *(
            {fid: [rows[k] for k in ks if k < len(rows)] for fid, rows in table.items()}
            for table in (self.values, self.grads)))


class OUExactEngine:
    """Quadrature-grade engine backed by the Gaussian transition law, with one
    Gauss-Hermite rule of the given order for every phase and transition."""

    name = "ou-exact"
    stochastic = False

    def __init__(self, model: ou.OUModel, order: int = 60):
        self.model = model
        self.period = model.period
        self.system = ou.periodic_system(model)
        self._z, self._weights = ou.hermite_nodes(model.dim, order)

    def phase_nodes(self, phase: float):
        measure = self.system.measure(phase)
        return measure.mean + self._z @ measure.sqrt_cov().T, self._weights

    def transfer_profile(self, phis: Sequence[TestFunction], s: float, horizons, gradients=None):
        """Transport by the exact Gaussian law from s, one system law per horizon increment.

        Each horizon's law (U, S, m) is the previous one composed with the
        law over the increment, and gradients run to the horizon ``gradients``.
        """
        horizons = np.asarray(sorted(horizons), dtype=float)
        pts, w = self.phase_nodes(s)
        z, zw = self._z, self._weights
        d = self.model.dim
        law = np.eye(d), np.zeros((d, d)), np.zeros(d)
        t_prev = s
        values = {phi.fid: [] for phi in phis}
        grads = {phi.fid: [] for phi in phis} if gradients else {}
        for tau in horizons:
            t = s + tau
            law = ou.compose_laws(law, self.system.law(t_prev, t))
            t_prev = t
            flat = ou.transition_cloud(pts, *law, z).reshape(-1, d)
            for phi in phis:
                vals = phi(t, flat).reshape(len(zw), len(pts))
                values[phi.fid].append((zw @ vals, np.zeros(len(pts))))
                if gradients and tau <= gradients:
                    gv = phi.grad_at(t, flat).reshape(len(zw), len(pts), -1)
                    inner = np.einsum("q,qmd->md", zw, gv)
                    grads[phi.fid].append((inner @ law[0], np.zeros(len(pts))))
        return TransferProfile(horizons, w, values, grads)


class MonteCarloEngine:
    """Stochastic engine: phase ensembles plus joint inner-replica evolution."""

    name = "montecarlo"
    stochastic = True

    def __init__(
        self,
        field: PeriodicCoefficientField,
        config: mc.SimConfig,
        certificate: LyapunovResult,
        n_outer: int,
        n_inner: int,
        phases: Sequence[float] = (0.0,),
    ):
        self.field = field
        self.period = field.period
        self.config = config
        self.n_outer = n_outer
        self.n_inner = n_inner
        self.certificate = certificate
        # the canonical phases the burn-in captures, phase 0 always among them
        self.phases = tuple(sorted({0.0, *(field.phase(s) for s in phases)}))
        self._ensembles = Once()

    def phase_ensemble(self, phase: float) -> mc.ParticleEnsemble:
        """The particle ensemble of the periodic invariant measure at one of the engine's phases.

        Every phase comes from one march, built on first request: the burn-in
        ``sample_periodic_measure(field, phases, ...)`` on the stream
        ("burn-in",), which runs ``horizon_periods`` periods up to phase 0
        and on through the engine's other phases, since the measures form an
        evolution system (mu_s = mu_0 P_{0,s}).  So particle i of every phase
        descends from particle i at phase 0, and since the march is one RNG
        block, antithetic pairs stay pairs.  A phase the engine was not given
        raises ``ValueError``.
        """
        key = self.field.phase(phase)
        if key not in self.phases:
            raise ValueError(f"phase {phase} is not among the Monte Carlo phases {self.phases}")

        def build():
            ensembles = mc.sample_periodic_measure(self.field, self.phases, self.config,
                                                   self.certificate, stream=("burn-in",))
            return dict(zip(self.phases, ensembles))

        return self._ensembles.get("burn-in", build)[key]

    def phase_nodes(self, phase: float):
        ens = self.phase_ensemble(phase)
        return ens.positions, np.full(ens.n, 1.0 / ens.n)

    def transfer_profile(self, phis: Sequence[TestFunction], s: float, horizons, gradients=None):
        """Evaluate inner-replica transition means at mu_s-distributed points.

        One joint ensemble starts at time s from outer points spread evenly
        through the phase-s ensemble and is marched once through every
        horizon, so every decay norm integrates against points distributed
        like the measure at the starting time.  Jacobians ride the march only
        up to the horizon ``gradients`` and leave the positions as they are,
        so the stream is ("profile", "value", s, *horizons).  Each snapshot is
        reduced to per-point means and standard errors as the march yields it;
        each outer point's inner replicas are one RNG block.
        """
        horizons = np.asarray(sorted(horizons), dtype=float)
        values = {phi.fid: [] for phi in phis}
        grads = {phi.fid: [] for phi in phis} if gradients else {}
        ens = self.phase_ensemble(s)
        n, d = self.n_outer * self.n_inner, self.field.dim
        # the march copies its start and lets go of it: no name here keeps
        # the replicated points alive, and the identity Jacobians are a view
        march = mc._march(
            self.field,
            np.repeat(ens.positions[np.arange(self.n_outer) * (ens.n // self.n_outer)],
                      self.n_inner, axis=0),
            np.broadcast_to(np.eye(d), (n, d, d)) if gradients else None,
            s, s + horizons, self.config, stream=("profile", "value", float(s), *horizons),
            blocks=self.n_outer, jacobians_until=s + gradients if gradients else None)
        for t, pos, jac in march:
            for phi in phis:
                vals = phi(t, pos).reshape(self.n_outer, self.n_inner)
                values[phi.fid].append(mc.mean_and_stderr(vals))
                if jac is not None:
                    pulled = np.einsum("nij,ni->nj", jac, phi.grad_at(t, pos))
                    # contiguous inner rows sum each component as a 1-d reduction would
                    pulled = np.ascontiguousarray(
                        pulled.reshape(self.n_outer, self.n_inner, d).transpose(0, 2, 1))
                    comp_mean, comp_se = mc.mean_and_stderr(pulled)
                    grads[phi.fid].append((comp_mean, np.linalg.norm(comp_se, axis=1)))
        weights = np.full(self.n_outer, 1.0 / self.n_outer)
        return TransferProfile(horizons, weights, values, grads)


class GridEngine:
    """Deterministic engine: Crank-Nicolson slice maps weighted by rho."""

    name = "grid"
    stochastic = False

    def __init__(
        self,
        field: PeriodicCoefficientField,
        generator: gridmod.DiscreteGenerator,
        substeps: int = 2,
    ):
        self.field = field
        self.period = field.period
        self.grid = generator.grid
        self.substeps = substeps
        self.gen = generator

    def _rho_at(self, phase: float) -> np.ndarray:
        """Slice masses linearly interpolated in phase, normalized."""
        n_t = self.grid.time_slices
        masses = self.gen.rho_slices()
        pos = self.field.phase(phase) / self.grid.period * n_t
        i = int(np.floor(pos)) % n_t
        j = (i + 1) % n_t
        w = pos - np.floor(pos)
        row = (1.0 - w) * masses[i] + w * masses[j]
        return row / row.sum()

    def phase_nodes(self, phase: float):
        return self.grid.nodes(), self._rho_at(phase)

    def transfer_profile(self, phis: Sequence[TestFunction], s: float, horizons, gradients=None):
        from . import grid as gridmod

        horizons = np.asarray(sorted(horizons), dtype=float)
        values = {phi.fid: [] for phi in phis}
        grads = {phi.fid: [] for phi in phis} if gradients else {}
        mat = np.eye(self.grid.n_space)
        t_prev = s
        nodes = self.grid.nodes()
        for tau in horizons:
            t = s + tau
            step = gridmod.transition_matrix(self.field, self.grid, t_prev, t,
                                             np.eye(self.grid.n_space), self.substeps)
            mat = mat @ step
            t_prev = t
            for phi in phis:
                g = mat @ phi(t, nodes)
                values[phi.fid].append((g, np.zeros_like(g)))
                if gradients and tau <= gradients:
                    gv = gridmod.spatial_gradient(self.grid, g)
                    grads[phi.fid].append((gv, np.zeros(len(g))))
        return TransferProfile(horizons, self._rho_at(s), values, grads)
