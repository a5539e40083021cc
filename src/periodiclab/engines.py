"""Uniform engine interface consumed by the diagnostics layer, and the test functions.

Every engine exposes the same five members:

* ``name``: the engine id written into reports;
* ``period``: the period T of the coefficients;
* ``stochastic``: True when the phase nodes are samples (standard errors
  are meaningful), False for deterministic quadrature;
* ``phase_nodes(phase)``: quadrature nodes and weights for the periodic
  invariant measure at a phase;
* ``transfer_profile``: the transition expectation (and optionally its
  pathwise gradient) evaluated at measure-distributed points for a list of
  horizons, with per-point standard errors (zero for the deterministic
  engines).

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
target time.  One profile serves a whole decay experiment, including
its contraction and invariance rows.  The test functions the
diagnostics apply (the space-only battery and the space-time batteries of
the inequality checks) live here too.
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
    """Vectorized scalar test function with its spatial gradient."""

    fid: str
    fn: object                   # (n, d) -> (n,)
    grad: object                 # (n, d) -> (n, d)

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(np.atleast_2d(points)))

    def grad_at(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(self.grad(np.atleast_2d(points)))

    def grad_norm(self, points: np.ndarray) -> np.ndarray:
        return np.linalg.norm(self.grad_at(points), axis=1)


def battery() -> list[TestFunction]:
    """The documented test-function battery (ids are stable report keys)."""
    fns = [
        TestFunction("const", lambda X: np.ones(len(X)), lambda X: np.zeros_like(X)),
        TestFunction("coord0", lambda X: X[:, 0], lambda X: _axis0_grad(X, 1.0)),
        TestFunction(
            "tanh",
            lambda X: np.tanh(X[:, 0]),
            lambda X: _axis0_grad(X, 1.0 / np.cosh(X[:, 0]) ** 2),
        ),
        TestFunction(
            "sin",
            lambda X: np.sin(X[:, 0]),
            lambda X: _axis0_grad(X, np.cos(X[:, 0])),
        ),
        TestFunction(
            "bump",
            lambda X: np.exp(-0.5 * np.sum(X * X, axis=1)),
            lambda X: -X * np.exp(-0.5 * np.sum(X * X, axis=1))[:, None],
        ),
        TestFunction(
            "ratio",
            lambda X: X[:, 0] / (1.0 + np.sum(X * X, axis=1)),
            _ratio_grad,
        ),
    ]
    return fns


def _axis0_grad(X, vals):
    g = np.zeros_like(X)
    g[:, 0] = vals
    return g


def _ratio_grad(X):
    r2 = np.sum(X * X, axis=1)
    g = -2.0 * X * (X[:, 0] / (1.0 + r2) ** 2)[:, None]
    g[:, 0] += 1.0 / (1.0 + r2)
    return g


@dataclass(frozen=True)
class SpaceTimeFunction:
    """Periodic-in-time test function u(s, x) with spatial gradient."""

    fid: str
    u: Callable            # (s, (n,d)) -> (n,)
    grad: Callable         # (s, (n,d)) -> (n,d)

    def __call__(self, s, points):
        return np.asarray(self.u(s, np.atleast_2d(points)))

    def grad_at(self, s, points):
        return np.asarray(self.grad(s, np.atleast_2d(points)))


def st_battery(period: float) -> list[SpaceTimeFunction]:
    """Space-time battery for the inequality checks."""
    w = 2.0 * np.pi / period

    def mod(s):
        return 1.0 + 0.5 * math.cos(w * s)

    return [
        SpaceTimeFunction("st-coord", lambda s, X: X[:, 0], lambda s, X: _axis0_grad(X, 1.0)),
        SpaceTimeFunction(
            "st-sin-mod",
            lambda s, X: np.sin(X[:, 0]) * mod(s),
            lambda s, X: _axis0_grad(X, np.cos(X[:, 0]) * mod(s)),
        ),
        SpaceTimeFunction(
            "st-bump-mod",
            lambda s, X: np.exp(-0.5 * np.sum(X * X, axis=1)) * (1.0 + 0.5 * math.sin(w * s)),
            lambda s, X: -X
            * (np.exp(-0.5 * np.sum(X * X, axis=1)) * (1.0 + 0.5 * math.sin(w * s)))[:, None],
        ),
    ]


def positive_battery() -> list[SpaceTimeFunction]:
    """Strictly positive bounded functions for the entropy inequality."""
    return [
        SpaceTimeFunction("pos-const", lambda s, X: np.full(len(X), 1.5), lambda s, X: np.zeros_like(X)),
        SpaceTimeFunction(
            "pos-bump",
            lambda s, X: 1.0 + 0.5 * np.exp(-np.sum(X * X, axis=1)),
            lambda s, X: -X * np.exp(-np.sum(X * X, axis=1))[:, None],
        ),
        SpaceTimeFunction(
            "pos-sin",
            lambda s, X: 2.0 + np.sin(X[:, 0]),
            lambda s, X: _axis0_grad(X, np.cos(X[:, 0])),
        ),
    ]


@dataclass
class TransferProfile:
    """Transition expectations over measure-distributed points per horizon."""

    horizons: np.ndarray                     # offsets tau, increasing
    weights: np.ndarray                      # (M,) measure at the start time, sums to 1
    values: dict                             # fid -> list of (g, se) arrays (M,)
    grads: dict                              # fid -> list of (gvec (M,d), se (M,)) or {}


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

    def transfer_profile(self, phis: Sequence[TestFunction], s: float, horizons, gradients=False):
        """Transport by the exact Gaussian law from s, one system law per horizon increment.

        Each horizon's law (U, S, m) is the previous one composed with the
        law over the increment.
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
                vals = np.asarray(phi(flat)).reshape(len(zw), len(pts))
                values[phi.fid].append((zw @ vals, np.zeros(len(pts))))
                if gradients:
                    gv = np.asarray(phi.grad_at(flat)).reshape(len(zw), len(pts), -1)
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

    def transfer_profile(self, phis: Sequence[TestFunction], s: float, horizons, gradients=False):
        """Evaluate inner-replica transition means at mu_s-distributed points.

        One joint ensemble starts at time s from outer points spread evenly
        through the phase-s ensemble and is marched once through every
        horizon, so every decay norm integrates against points distributed
        like the measure at the starting time.  The march's stream is named by
        its kind (value or tangent), s and the horizons, so two profiles
        share noise only when they are the same estimate.  Each snapshot is
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
            s, s + horizons, self.config,
            stream=("profile", "tangent" if gradients else "value", float(s), *horizons),
            blocks=self.n_outer)
        for _, pos, jac in march:
            for phi in phis:
                vals = np.asarray(phi(pos)).reshape(self.n_outer, self.n_inner)
                values[phi.fid].append(mc.mean_and_stderr(vals, self.config.antithetic))
                if gradients:
                    pulled = np.einsum("nij,ni->nj", jac, phi.grad_at(pos))
                    # contiguous inner rows sum each component as a 1-d reduction would
                    pulled = np.ascontiguousarray(
                        pulled.reshape(self.n_outer, self.n_inner, d).transpose(0, 2, 1))
                    comp_mean, comp_se = mc.mean_and_stderr(pulled, self.config.antithetic)
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

    def transfer_profile(self, phis: Sequence[TestFunction], s: float, horizons, gradients=False):
        from . import grid as gridmod

        horizons = np.asarray(sorted(horizons), dtype=float)
        values = {phi.fid: [] for phi in phis}
        grads = {phi.fid: [] for phi in phis} if gradients else {}
        mat = np.eye(self.grid.n_space)
        t_prev = s
        nodes = self.grid.nodes()
        phi_vecs = {phi.fid: np.asarray(phi(nodes)) for phi in phis}
        for tau in horizons:
            t = s + tau
            step = gridmod.transition_matrix(self.field, self.grid, t_prev, t,
                                             np.eye(self.grid.n_space), self.substeps)
            mat = mat @ step
            t_prev = t
            for phi in phis:
                g = mat @ phi_vecs[phi.fid]
                values[phi.fid].append((g, np.zeros_like(g)))
                if gradients:
                    gv = gridmod.spatial_gradient(self.grid, g)
                    grads[phi.fid].append((gv, np.zeros(len(g))))
        return TransferProfile(horizons, self._rho_at(s), values, grads)
