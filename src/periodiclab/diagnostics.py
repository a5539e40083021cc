"""Verdict layer: decay curves, fitted rates, and functional-inequality residuals.

Conventions shared by every diagnostic:

* decay values are ``|| P(s+tau, s) phi - m_{s+tau} phi ||_{L^p(mu_s)}``,
  integrated against the invariant measure at the starting time s.  Since
  ``int P(s+tau, s) phi dmu_s = m_{s+tau} phi``, the centred function is
  mean-zero under that measure at every horizon.  Engines only transport;
  every integral against a phase measure (``phase_mean``, ``phase_lp``, the
  centering) is taken here from the engine's ``phase_nodes``, with the one
  stderr rule of ``PhaseMeasures.phase_means``.  The integrals of a transfer
  profile over its outer points take theirs by two other rules: an L^p norm
  from the weighted spread of its debiased p-th powers
  (``debiased_power_mean``), and the contraction rows' transported mean from
  that spread plus the inner standard errors;
* no diagnostic calls ``transfer_profile``: the rate and transport checks
  read the profile they are given (a run's one profile of their engine), so
  the contraction and invariance rows cost no extra transport;
* inequality checks are one-sided with a ``5 x stderr`` statistical slack:
  the inequalities must never be violated beyond sampling noise, but they
  are not expected to be tight;
* rate fits run on log values, exclude the transient ``tau < 1`` and points
  within ten standard errors of the noise floor, and refuse to fit when
  fewer than five points survive; a battery's curve is the pointwise max
  over the members above their own floor, so a noise-only member never caps
  the window; ``fit_battery``, the one fit path, returns that refusal so it
  fails the checks that need the fit, never a whole run.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field as dc_field
from typing import Sequence

import numpy as np

from . import montecarlo as mc
from .engines import TANH_SLOPE, BumpWindow, TestFunction, TransferProfile
from .errors import DegenerateWindow, NoiseFloor, NotApplicable, NotDissipative
from .fields import PeriodicCoefficientField

MIN_FIT_POINTS = 5
NOISE_MULTIPLE = 10.0
SLACK = 5.0              # one-sided inequality slack, in combined standard errors


def _roundoff(*values) -> float:
    """Relative roundoff allowance of a comparison between the given values."""
    return 1e-12 * max(1.0, *(abs(v) for v in values))


@dataclass(frozen=True)
class DecayCurve:
    """L^p distance to equilibrium (or gradient norm) per horizon."""

    taus: np.ndarray
    values: np.ndarray
    stderrs: np.ndarray
    p: float
    phi_id: str
    engine_id: str
    kind: str = "value"   # "value" | "gradient"

    def __post_init__(self):
        if np.any(np.diff(self.taus) <= 0):
            raise ValueError("horizons must be strictly increasing")
        if np.any(self.values < 0):
            raise ValueError("curve values must be nonnegative")

    def rows(self):
        for tau, v, se in zip(self.taus, self.values, self.stderrs):
            yield {"tau": tau, "value": v, "stderr": se, "p": self.p,
                   "phi": self.phi_id, "engine": self.engine_id, "kind": self.kind}


@dataclass(frozen=True)
class RateEstimate:
    """Log-linear fitted decay rate with fit diagnostics."""

    rate: float
    intercept: float
    window: tuple
    r_squared: float
    n_points: int
    references: dict = dc_field(default_factory=dict)

    def to_jsonable(self) -> dict:
        return {**asdict(self), "window": list(self.window)}


@dataclass(frozen=True)
class InequalityReport:
    """Two sides of a functional inequality plus the verdict material."""

    left: float
    right: float
    stderr: float
    constant: float
    witness: tuple          # (function id, phase of the weakest margin)

    @property
    def residual(self) -> float:
        return self.right - self.left

    def holds(self) -> bool:
        return self.residual >= -(SLACK * self.stderr + _roundoff(self.left, self.right))

    def to_jsonable(self) -> dict:
        return {
            "left": self.left,
            "right": self.right,
            "residual": self.residual,
            "stderr": self.stderr,
            "constant": self.constant,
            "witness": list(self.witness),
        }


def debiased_power_mean(g, se, weights, p: float, stochastic: bool):
    """Weighted p-th power mean of |g| with inner-noise bias removed.

    For p in {2, 4} the leading Monte Carlo bias of |g_hat|^p is subtracted
    using the per-point standard errors; other exponents use the plain
    estimator.  Returns (value, stderr) with a delta-method stderr; a mean
    that debiasing leaves at or below zero reads 0 with stderr ``se_y^(1/p)``,
    the p-th root of the power mean's own.  For deterministic quadrature data
    (``stochastic=False``) the stderr is zero."""
    g = np.asarray(g, dtype=float)
    se = np.asarray(se, dtype=float)
    if g.ndim == 1:
        sq = g * g
        se_sq = se * se
    else:
        sq = np.sum(g * g, axis=1)
        se_sq = se * se  # se is already the aggregated component norm
    if p == 2:
        y = sq - se_sq
    elif p == 4:
        y = sq * sq - 6.0 * sq * se_sq + 3.0 * se_sq**2
    else:
        base = np.sqrt(sq)
        y = base**p
    mean_y = float(np.dot(weights, y))
    var_y = float(np.dot(weights**2, (y - mean_y) ** 2)) if stochastic else 0.0
    mean_y = max(mean_y, 0.0)
    value = mean_y ** (1.0 / p)
    if not stochastic:
        return value, 0.0
    if mean_y > 0.0:
        stderr = math.sqrt(var_y) / (p * mean_y ** (1.0 - 1.0 / p))
    else:
        stderr = math.sqrt(var_y) ** (1.0 / p)
    return value, stderr


def decay_curve(
    engine,
    phi: TestFunction,
    s: float,
    p: float,
    profile: TransferProfile,
    gradient: bool = False,
) -> DecayCurve:
    """Distance-to-equilibrium curve (or, with ``gradient``, gradient-norm curve)
    of one test function from a transfer profile started at time s.

    Value curves centre each horizon with ``phase_mean`` at the target time;
    gradient curves need every horizon at one period of separation or
    more (the gradient envelope statements start at unit separation)."""
    if gradient and np.any(profile.horizons < 1.0):
        raise DegenerateWindow("gradient curves need horizons with tau >= 1")
    values = np.empty(len(profile.horizons))
    errs = np.empty(len(profile.horizons))
    entry = profile.grads[phi.fid] if gradient else profile.values[phi.fid]
    w = profile.weights
    for k, tau in enumerate(profile.horizons):
        g, se = entry[k]
        if gradient:
            values[k], errs[k] = debiased_power_mean(g, se, w, p, engine.stochastic)
        else:
            mean, mean_se = phase_mean(engine, phi, s + tau)
            values[k], errs[k] = debiased_power_mean(g - mean, se, w, p, engine.stochastic)
            errs[k] = math.hypot(errs[k], mean_se)
    return DecayCurve(
        taus=profile.horizons.copy(),
        values=values,
        stderrs=errs,
        p=p,
        phi_id=phi.fid,
        engine_id=engine.name,
        kind="gradient" if gradient else "value",
    )


def _resolved(values, stderrs):
    """Where a curve stands above its noise floor: positive and more than
    ``NOISE_MULTIPLE`` standard errors."""
    return (values > NOISE_MULTIPLE * stderrs) & (values > 0)


def max_over_curves(curves: Sequence[DecayCurve]) -> DecayCurve:
    """Pointwise max over a battery of curves (used by the rate fits).

    At each horizon the max runs over the members resolved there (above
    their own noise floor), so a member that is pure noise at some horizon
    never becomes the max and hides a resolved one.  Where no member is
    resolved, the plain max stands, unresolved."""
    taus = curves[0].taus
    stacked = np.stack([c.values for c in curves])
    errs = np.stack([c.stderrs for c in curves])
    resolved = _resolved(stacked, errs)
    idx = np.where(resolved.any(axis=0), np.argmax(np.where(resolved, stacked, -np.inf), axis=0),
                   np.argmax(stacked, axis=0))
    return DecayCurve(
        taus=taus.copy(),
        values=stacked[idx, np.arange(len(taus))],
        stderrs=errs[idx, np.arange(len(taus))],
        p=curves[0].p,
        phi_id="max[" + ",".join(c.phi_id for c in curves) + "]",
        engine_id=curves[0].engine_id,
        kind=curves[0].kind,
    )


def fit_rate(
    curve: DecayCurve,
    window: tuple = (1.0, np.inf),
    references: dict | None = None,
) -> RateEstimate:
    """Least-squares slope of log(value) over the window, above the noise floor."""
    lo, hi = window
    in_window = (curve.taus >= lo - 1e-12) & (curve.taus <= hi + 1e-12)
    if in_window.sum() < MIN_FIT_POINTS:
        raise DegenerateWindow(
            f"window [{lo}, {hi}] selects {int(in_window.sum())} < {MIN_FIT_POINTS} points"
        )
    visible = in_window & _resolved(curve.values, curve.stderrs)
    if visible.sum() < MIN_FIT_POINTS:
        raise NoiseFloor(
            f"only {int(visible.sum())} points above {NOISE_MULTIPLE} stderr in the window"
        )
    t = curve.taus[visible]
    y = np.log(curve.values[visible])
    coeffs = np.polyfit(t, y, 1)
    fitted = np.polyval(coeffs, t)
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return RateEstimate(
        rate=float(coeffs[0]),
        intercept=float(coeffs[1]),
        window=(float(t.min()), float(t.max())),
        r_squared=r2,
        n_points=int(visible.sum()),
        references=references or {},
    )


@dataclass(frozen=True)
class BatteryFit:
    """A battery's pointwise-max curve with its fitted rate, or why the fit was refused."""

    curve: DecayCurve
    fit: RateEstimate | None
    refused: str | None = None

    def to_jsonable(self) -> dict:
        return {"refused": self.refused} if self.fit is None else self.fit.to_jsonable()


def fit_battery(curves: Sequence[DecayCurve], window: tuple,
                references: dict | None = None) -> BatteryFit:
    """The one rate-fit path: ``fit_rate`` on the pointwise max of a battery's
    curves, with a refusal (noise floor, too few points) returned, not raised."""
    curve = max_over_curves(curves)
    try:
        return BatteryFit(curve, fit_rate(curve, window, references=references))
    except (NoiseFloor, DegenerateWindow) as exc:
        return BatteryFit(curve, None, str(exc))


def rate_equivalence_check(
    engine,
    phis: Sequence[TestFunction],
    s: float,
    p: float,
    profile: TransferProfile,
    window: tuple = (1.0, np.inf),
    tolerance: float = 0.1,
) -> dict:
    """Fit omega (value decay) and gamma (gradient decay) on the same window,
    both from ``profile``, which starts at s and carries gradients at every
    horizon.

    Requires bounded diffusion and p >= 2 (the regime where the two decay
    exponents provably coincide); the report flags agreement at the given
    tolerance.  A refused fit leaves its rate and the difference None: no agreement.
    """
    if p < 2:
        raise NotApplicable("rate equivalence is checked for p >= 2")
    omega, gamma = (
        fit_battery([decay_curve(engine, phi, s, p, profile, gradient=g) for phi in phis], window)
        for g in (False, True))
    rates = [None if f.fit is None else f.fit.rate for f in (omega, gamma)]
    difference = None if None in rates else abs(rates[0] - rates[1])
    return {
        "omega_hat": rates[0],
        "gamma_hat": rates[1],
        "difference": difference,
        "agree": difference is not None and difference <= tolerance,
        "omega_fit": omega,
        "gamma_fit": gamma,
    }


@dataclass(frozen=True)
class PhaseMeasures:
    """Phase-indexed quadrature for the space-time invariant measure.

    ``phase_means`` holds the one stderr rule of every phase integral here,
    ``phase_mean`` and ``phase_lp`` included (a transfer profile's integrals
    over its outer points are not phase integrals; see the module docstring).  Stochastic phase nodes are one
    ensemble carried forward (node i of every phase descends from the same
    particle), so a phase average takes its standard error per node: each
    node's contribution is averaged over the phases first, then the spread is
    taken over antithetic pair units (``mc.mean_and_stderr``).
    Deterministic quadrature has stderr 0.
    """

    phases: np.ndarray
    nodes: list          # per phase (m, d)
    weights: list        # per phase (m,), each summing to 1
    stochastic: bool     # True when weights are empirical (stderr meaningful)

    @staticmethod
    def at(engine, phases) -> "PhaseMeasures":
        """The engine's phase nodes at the given phases."""
        nodes, weights = zip(*(engine.phase_nodes(ph) for ph in phases))
        return PhaseMeasures(
            phases=np.asarray(phases, dtype=float),
            nodes=list(nodes),
            weights=list(weights),
            stochastic=engine.stochastic,
        )

    @staticmethod
    def from_engine(engine, n_phases: int) -> "PhaseMeasures":
        """The engine's phase nodes at ``n_phases`` equispaced phases of one period."""
        return PhaseMeasures.at(engine, engine.period * np.arange(n_phases) / n_phases)

    def phase_means(self, per_phase: Sequence[np.ndarray]):
        """Per-phase weighted means of node values, and the stderr of their average.

        ``per_phase[k]`` holds one value per node of phase k.  A stochastic
        phase mean is the plain mean of its node contributions ``m w_i v_i``,
        so a constant integrates to itself exactly."""
        if not self.stochastic:
            return np.array([np.dot(w, v) for w, v in zip(self.weights, per_phase)]), 0.0
        contrib = np.array([len(w) * w * v for w, v in zip(self.weights, per_phase)])
        _, se = mc.mean_and_stderr(contrib.mean(axis=0))
        return contrib.mean(axis=1), float(se)


def phase_mean(engine, fn, s: float):
    """``int fn(s, .) d mu_s`` on the engine's phase nodes, with its stderr."""
    measures = PhaseMeasures.at(engine, [s])
    means, se = measures.phase_means([np.asarray(fn(s, measures.nodes[0]))])
    return float(means[0]), se


def phase_lp(engine, fn, s: float, p: float):
    """``||fn(s, .)||_{L^p(mu_s)}`` with a delta-method stderr from that of ``int |fn|^p``."""
    mean, se = phase_mean(engine, lambda t, X: np.abs(np.asarray(fn(t, X))) ** p, s)
    return max(mean, 0.0) ** (1.0 / p), se / (p * max(mean, 1e-300) ** (1.0 - 1.0 / p))


def poincare_ratio(
    u: TestFunction,
    measures: PhaseMeasures,
    lam: float,
    ell2: float,
) -> InequalityReport:
    """Variance vs gradient-energy comparison with constant Lambda / |ell_2|.

    left  = phase average of int |u - Pi u|^2 d mu_s,
    right = (Lambda / |ell_2|) * phase average of int |grad_x u|^2 d mu_s.
    Each term's stderr is the per-node one of ``PhaseMeasures.phase_means``.
    """
    if ell2 >= 0.0:
        raise NotDissipative(f"Poincare check needs ell_2 < 0, got {ell2}")
    const = lam / abs(ell2)
    dev2, mean_terms, energy = [], [], []
    for k, s in enumerate(measures.phases):
        vals = u(s, measures.nodes[k])
        m = float(np.dot(measures.weights[k], vals))
        dev2.append((vals - m) ** 2)
        mean_terms.append(2 * abs(m) * vals)
        energy.append(np.sum(u.grad_at(s, measures.nodes[k]) ** 2, axis=1))
    var, var_se = measures.phase_means(dev2)
    energies, energy_se = measures.phase_means(energy)
    _, mean_se = measures.phase_means(mean_terms)
    worst = int(np.argmin(const * energies - var))
    return InequalityReport(
        left=float(np.mean(var)),
        right=float(np.mean(const * energies)),
        stderr=math.hypot(var_se, const * energy_se, mean_se),
        constant=const,
        witness=(u.fid, float(measures.phases[worst])),
    )


def logsob_ratio(
    field: PeriodicCoefficientField,
    u: TestFunction,
    p: float,
    measures: PhaseMeasures,
    lam: float,
    r0: float,
) -> InequalityReport:
    """Entropy vs gradient comparison with constant p^2 Lambda / (2 |r0|).

    left  = int |u|^p log(|u|^p) d mu,
    right = phase average of (Pi |u|^p) log(Pi |u|^p)
            + p^2 Lambda / (2 |r0|) * int |u|^(p-2) |grad_x u|^2 d mu.
    Signed u is handled through |u| (gradient term clipped away from u = 0).
    Each term's stderr is the per-node one of ``PhaseMeasures.phase_means``.
    """
    if not field.q_independent_of_x:
        raise NotApplicable("entropy inequality needs diffusion independent of x")
    if r0 >= 0.0:
        raise NotDissipative(f"entropy check needs r0 < 0, got {r0}")
    if p < 1.0:
        raise ValueError("p must be >= 1")
    const = p * p * lam / (2.0 * abs(r0))
    ent, powers, grad = [], [], []
    for k, s in enumerate(measures.phases):
        absu = np.abs(u(s, measures.nodes[k]))
        up = absu**p
        ent.append(np.where(up > 0.0, up * np.log(np.maximum(up, 1e-300)), 0.0))
        powers.append(up)
        g2 = np.sum(u.grad_at(s, measures.nodes[k]) ** 2, axis=1)
        weight = np.where(absu > 1e-150, absu ** (p - 2.0), 0.0) if p != 2.0 else 1.0
        grad.append(weight * g2)
    a, a_se = measures.phase_means(ent)
    pi_up, _ = measures.phase_means(powers)
    c, c_se = measures.phase_means(grad)
    log_pi = np.log(np.maximum(pi_up, 1e-300))
    b = pi_up * log_pi
    # delta method: d(x log x)/dx = 1 + log x, per phase
    _, b_se = measures.phase_means([abs(1.0 + lk) * up for lk, up in zip(log_pi, powers)])
    worst = int(np.argmin(b + const * c - a))
    return InequalityReport(
        left=float(np.mean(a)),
        right=float(np.mean(b) + np.mean(const * c)),
        stderr=math.hypot(a_se, b_se, const * c_se),
        constant=const,
        witness=(u.fid, float(measures.phases[worst])),
    )


def pointwise_gradient_check(profile: TransferProfile, r0: float) -> list[dict]:
    """|grad_x P_{0,tau} tanh| <= e^{r0 tau} P_{0,tau} |grad tanh| + 4 stderr at every
    outer point of a Monte Carlo ``profile`` started at s = 0, per horizon.

    The left side is the norm of the profile's pathwise gradient of ``tanh``
    (the inner mean of J^T grad tanh(X)), the right side reads the value member
    ``tanh-slope`` (|grad tanh|) off the same paths, and the stderr combines
    both sides' inner standard errors.  Returns one summary per horizon: the
    points, how many hold, the smallest rhs/lhs and the smallest margin
    (rhs - lhs) in stderrs.
    """
    rows = []
    for k, tau in enumerate(profile.horizons):
        gvec, lhs_se = profile.grads["tanh"][k]
        slope, slope_se = profile.values[TANH_SLOPE.fid][k]
        lhs = np.linalg.norm(gvec, axis=1)
        rhs = math.exp(r0 * tau) * slope
        stderr = np.hypot(lhs_se, math.exp(r0 * tau) * slope_se)
        rows.append({"tau": float(tau), "points": len(lhs),
                     "held": int(np.sum(lhs <= rhs + 4.0 * stderr)),
                     "min_ratio": float(np.min(rhs / lhs)),
                     "min_margin_se": float(np.min((rhs - lhs) / stderr))})
    return rows


def contraction_invariance_report(
    engine,
    phis: Sequence[TestFunction],
    s: float,
    ps: Sequence[float],
    profile: TransferProfile,
) -> list[dict]:
    """Transport vs measure checks at the separations of ``profile``'s horizons.

    Per (phi, p, gap), with each horizon of ``profile`` (one started at time
    s) as a gap: the L^p norm of the transported function against
    the starting measure must not exceed the L^p norm of phi against the target
    measure (contraction), and the two measure means must agree (invariance
    under push-forward), each within ``SLACK`` combined standard errors.  The
    target-measure sides are ``phase_lp`` and ``phase_mean`` at time s + gap.
    Deterministic engines have no standard errors, so their slack is the
    roundoff allowance ``1e-12 max(1, |lhs|, |rhs|)`` instead.
    """
    w = profile.weights

    def slack(se_a, se_b, a, b):
        return SLACK * math.hypot(se_a, se_b) if engine.stochastic else _roundoff(a, b)

    rows = []
    for k, gap in enumerate(profile.horizons):
        for phi in phis:
            g, se = profile.values[phi.fid][k]
            mean_p = float(np.dot(w, g))
            mean_p_se = 0.0
            if engine.stochastic:
                mean_p_se = math.sqrt(float(np.dot(w**2, se**2))
                                      + float(np.dot(w**2, (g - mean_p) ** 2)))
            mean_phi, mean_phi_se = phase_mean(engine, phi, s + gap)
            mean_slack = slack(mean_p_se, mean_phi_se, mean_p, mean_phi)
            for p in ps:
                lhs, lhs_se = debiased_power_mean(g, se, w, p, engine.stochastic)
                rhs, rhs_se = phase_lp(engine, phi, s + gap, p)
                lp_slack = slack(lhs_se, rhs_se, lhs, rhs)
                rows.append({
                    "phi": phi.fid, "p": p, "gap": float(gap),
                    "contraction_lhs": lhs, "contraction_rhs": rhs,
                    "contraction_slack": lp_slack,
                    "contraction_ok": lhs <= rhs + lp_slack,
                    "invariance_gap": abs(mean_p - mean_phi),
                    "invariance_slack": mean_slack,
                    "invariance_ok": abs(mean_p - mean_phi) <= mean_slack,
                })
    return rows


def core_on_grid(
    field: PeriodicCoefficientField,
    grid,
    tau: float,
    chi: TestFunction,
    alpha: BumpWindow,
    substeps: int = 2,
):
    """Grid realization of the core element and its generator image.

    One downward sweep from the anchor captures the transported factor
    ``chi(tau, .)`` at every canonical slice phase; returns ``(u, image)`` as grid functions
    with ``image`` the expected generator action (envelope slope times the
    transported factor).
    """
    from . import grid as gridmod

    if alpha.hi > tau + 1e-12:
        raise ValueError("envelope support must end at or before the anchor time")
    canon = [alpha.lo + (s - alpha.lo) % grid.period for s in grid.slice_times()]
    order = np.argsort(canon)[::-1]          # sweep from the anchor downward
    u_vals = np.zeros((grid.time_slices, grid.n_space))
    img_vals = np.zeros_like(u_vals)
    vec = chi(tau, grid.nodes())
    t_hi = tau
    for j in order:
        sc = canon[j]
        if sc < t_hi:
            vec = gridmod.transition_matrix(field, grid, sc, t_hi, vec, substeps)
            t_hi = sc
        a = float(alpha(sc))
        da = float(alpha.deriv(sc))
        u_vals[j] = a * vec
        img_vals[j] = da * vec
    return gridmod.GridFunction(grid, u_vals), gridmod.GridFunction(grid, img_vals)
