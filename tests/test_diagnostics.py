"""Decay curves, rate fits, inequality residuals, and core elements."""

import dataclasses
import functools
import json
import math

import numpy as np
import pytest

from periodiclab import diagnostics as dg
from periodiclab import engines as eng
from periodiclab import grid as gridmod
from periodiclab import montecarlo as mc
from periodiclab import ougaussian as ou
from periodiclab.errors import DegenerateWindow, NoiseFloor, NotApplicable

import reference as ref


class FakeExpEngine:
    """Deterministic engine whose value and gradient profiles share one decay."""

    name = "synthetic"
    stochastic = False

    def __init__(self, rate=-1.0):
        self.rate = rate

    def phase_nodes(self, phase):
        # a point mass at the origin, where the odd test functions vanish
        return np.zeros((1, 1)), np.ones(1)

    def transfer_profile(self, phis, s, horizons, gradients=False):
        horizons = np.asarray(sorted(horizons), dtype=float)
        pts = np.linspace(-1.0, 1.0, 9)[:, None]
        w = np.full(9, 1.0 / 9)
        values, grads = {}, {}
        for phi in phis:
            values[phi.fid] = [(np.exp(self.rate * tau) * pts[:, 0], np.zeros(9))
                               for tau in horizons]
            grads[phi.fid] = [(np.exp(self.rate * tau) * np.ones((9, 1)), np.zeros(9))
                              for tau in horizons]
        return eng.TransferProfile(
            horizons=horizons, weights=w, values=values,
            grads=grads if gradients else {},
        )


class TestDecayCurve:
    def test_constant_function_is_flat_zero(self, ou_engine, battery1):
        const = next(p for p in battery1 if p.fid == "const")
        profile = ou_engine.transfer_profile([const], 0.0, [1, 2, 3])
        curve = dg.decay_curve(ou_engine, const, 0.0, 2.0, profile)
        assert np.all(curve.values <= 1e-12)

    def test_ou_coordinate_matches_closed_form(self, ou_model, ou_engine, battery1):
        coord = next(p for p in battery1 if p.fid == "coord0")
        horizons = [0.0, 1.0, 2.0, 3.0]
        profile = ou_engine.transfer_profile([coord], 0.0, horizons)
        curve = dg.decay_curve(ou_engine, coord, 0.0, 2.0, profile)
        system = ou_engine.system
        for tau, value in zip(curve.taus, curve.values):
            u = 1.0 if tau == 0 else ref.propagator(ou_model, tau, 0.0)[0, 0]
            expected = abs(u) * math.sqrt(system.measure(tau).cov[0, 0])
            assert abs(value - expected) < 1e-7
        # whole-period ratios collapse to the Floquet factor
        ratios = curve.values[1:] / curve.values[0]
        assert np.allclose(ratios, np.exp(-curve.taus[1:]), rtol=1e-7)

    def test_gradient_curve_is_propagator(self, ou_model, ou_engine, battery1):
        coord = next(p for p in battery1 if p.fid == "coord0")
        profile = ou_engine.transfer_profile([coord], 0.0, [1, 2, 3], gradients=3)
        curve = dg.decay_curve(ou_engine, coord, 0.0, 2.0, profile, gradient=True)
        for tau, value in zip(curve.taus, curve.values):
            assert abs(value - abs(ref.propagator(ou_model, tau, 0.0)[0, 0])) < 1e-9

    def test_gradient_curve_constant_zero(self, ou_engine, battery1):
        const = next(p for p in battery1 if p.fid == "const")
        profile = ou_engine.transfer_profile([const], 0.0, [1, 2], gradients=2)
        curve = dg.decay_curve(ou_engine, const, 0.0, 2.0, profile, gradient=True)
        assert np.all(curve.values <= 1e-13)

    def test_gradient_needs_unit_separation(self, ou_engine, battery1):
        profile = ou_engine.transfer_profile(battery1[:1], 0.0, [0.25, 0.5], gradients=0.5)
        with pytest.raises(DegenerateWindow):
            dg.decay_curve(ou_engine, battery1[0], 0.0, 2.0, profile, gradient=True)


@pytest.mark.parametrize("p", [2.0, 4.0])
def test_clipped_power_mean_stderr_is_the_pth_root(p):
    """A debiased mean of |g|^p at or below zero reads 0, and its stderr is
    the p-th root of the power mean's own stderr."""
    g = np.array([1.0, 1.2, 0.9, 1.1])
    se = np.full(4, 1.3)
    w = np.full(4, 0.25)
    sq, se_sq = g * g, se * se
    y = sq - se_sq if p == 2 else sq * sq - 6.0 * sq * se_sq + 3.0 * se_sq**2
    assert np.dot(w, y) < 0.0
    se_y = math.sqrt(np.dot(w**2, (y - np.dot(w, y)) ** 2))
    assert dg.debiased_power_mean(g, se, w, p, True) == (0.0, pytest.approx(se_y ** (1.0 / p)))


class TestFitRate:
    def test_exact_exponential(self):
        taus = np.arange(1.0, 9.0)
        curve = dg.DecayCurve(taus=taus, values=np.exp(-2.0 * taus),
                              stderrs=np.zeros(8), p=2.0, phi_id="synthetic",
                              engine_id="synthetic")
        fit = dg.fit_rate(curve, (1.0, 8.0))
        assert abs(fit.rate + 2.0) < 1e-12
        assert fit.r_squared == 1.0

    def test_flat_noisy_curve_refused(self):
        taus = np.arange(1.0, 9.0)
        curve = dg.DecayCurve(taus=taus, values=np.full(8, 1e-4),
                              stderrs=np.full(8, 5e-5), p=2.0, phi_id="noise",
                              engine_id="synthetic")
        with pytest.raises(NoiseFloor):
            dg.fit_rate(curve, (1.0, 8.0))

    def test_degenerate_window(self):
        taus = np.arange(1.0, 9.0)
        curve = dg.DecayCurve(taus=taus, values=np.exp(-taus), stderrs=np.zeros(8),
                              p=2.0, phi_id="x", engine_id="synthetic")
        with pytest.raises(DegenerateWindow):
            dg.fit_rate(curve, (1.0, 3.0))


class TestFitBattery:
    """The one rate-fit path returns a refusal instead of raising it."""

    @staticmethod
    def _curves(values, stderrs):
        taus = np.arange(1.0, 9.0)
        return [dg.DecayCurve(taus=taus, values=v, stderrs=se, p=2.0, phi_id=f"c{i}",
                              engine_id="synthetic")
                for i, (v, se) in enumerate(zip(values, stderrs))]

    def test_fits_the_pointwise_max(self):
        taus = np.arange(1.0, 9.0)
        curves = self._curves([np.exp(-2.0 * taus), 0.5 * np.exp(-taus)], [np.zeros(8)] * 2)
        fitted = dg.fit_battery(curves, (1.0, 8.0), {"ref": 1.0})
        combined = dg.max_over_curves(curves)
        assert np.array_equal(fitted.curve.values, combined.values)
        assert fitted.fit == dg.fit_rate(combined, (1.0, 8.0), references={"ref": 1.0})
        assert fitted.refused is None
        assert fitted.to_jsonable() == fitted.fit.to_jsonable()

    def test_noisy_curve_refused(self):
        curves = self._curves([np.full(8, 1e-4)], [np.full(8, 5e-5)])
        fitted = dg.fit_battery(curves, (1.0, 8.0))
        assert fitted.fit is None
        assert fitted.refused == "only 0 points above 10.0 stderr in the window"
        assert fitted.to_jsonable() == {"refused": fitted.refused}
        assert np.array_equal(fitted.curve.values, curves[0].values)

    def test_noise_only_member_never_caps_the_window(self):
        # c1 is pure noise (value 0.02 within 2 stderr of 0) and beats the
        # resolved c0 = exp(-tau) from tau = 4 on: the fit reads c0 over the
        # whole window, and falls back to c1 only where nothing is resolved
        taus = np.arange(1.0, 9.0)
        resolved = np.exp(-taus)
        curves = self._curves([resolved, np.full(8, 0.02)], [1e-4 * resolved, np.full(8, 0.01)])
        fitted = dg.fit_battery(curves, (1.0, 8.0))
        assert fitted.refused is None
        assert fitted.fit.n_points == 8 and fitted.fit.window == (1.0, 8.0)
        assert abs(fitted.fit.rate + 1.0) < 1e-12
        assert np.array_equal(fitted.curve.values, resolved)
        unresolved = self._curves([np.full(8, 1e-4), np.full(8, 2e-4)], [np.full(8, 5e-5)] * 2)
        assert np.array_equal(dg.max_over_curves(unresolved).values, np.full(8, 2e-4))

    def test_short_window_refused(self):
        curves = self._curves([np.exp(-np.arange(1.0, 9.0))], [np.zeros(8)])
        fitted = dg.fit_battery(curves, (1.0, 3.0))
        assert fitted.fit is None
        assert fitted.refused == "window [1.0, 3.0] selects 3 < 5 points"


class TestRateEquivalence:
    def test_refused_fit_disagrees_without_raising(self, battery1):
        phis = [p for p in battery1 if p.fid in ("tanh", "sin")]
        engine = FakeExpEngine(rate=-1.0)
        profile = engine.transfer_profile(phis, 0.0, [1, 2, 3], gradients=3)
        out = dg.rate_equivalence_check(engine, phis, 0.0, 2.0, profile, (1.0, 3.0))
        assert out["agree"] is False
        assert out["omega_hat"] is None and out["gamma_hat"] is None
        assert out["difference"] is None
        for key in ("omega_fit", "gamma_fit"):
            assert out[key].to_jsonable() == {"refused": "window [1.0, 3.0] selects 3 < 5 points"}

    def test_synthetic_shared_source(self, battery1):
        engine = FakeExpEngine(rate=-1.0)
        phis = [p for p in battery1 if p.fid in ("tanh", "sin")]
        profile = engine.transfer_profile(phis, 0.0, [1, 2, 3, 4, 5], gradients=5)
        out = dg.rate_equivalence_check(engine, phis, 0.0, 2.0, profile, (1.0, 5.0))
        assert out["difference"] < 1e-12
        assert out["agree"]

    def test_ou_exact(self, ou_engine, battery1):
        phis = [p for p in battery1 if p.fid in ("tanh", "sin", "ratio")]
        profile = ou_engine.transfer_profile(phis, 0.0, list(range(1, 9)), gradients=8)
        out = dg.rate_equivalence_check(ou_engine, phis, 0.0, 2.0, profile, (1.0, 8.0))
        assert abs(out["omega_hat"] + 1.0) < 0.05
        assert abs(out["gamma_hat"] + 1.0) < 0.05
        assert out["difference"] <= 0.1

    def test_needs_p_at_least_two(self, ou_engine, battery1):
        with pytest.raises(NotApplicable):
            dg.rate_equivalence_check(ou_engine, battery1[:2], 0.0, 1.5, [1, 2, 3, 4, 5])


def test_exact_engine_integrates_each_period_once(ou_model, battery1, monkeypatch):
    """Construction solves phase 0's period map; a profile over horizons 1..8
    from phase 0 reads that law and integrates no further period, and each
    distinct (phase, length) is integrated once."""
    spans = []
    transition = ou._transition_ode

    def counted(model, t, s, tol):
        spans.append((s, t - s))
        return transition(model, t, s, tol)

    monkeypatch.setattr(ou, "_transition_ode", counted)
    engine = eng.OUExactEngine(ou_model)
    assert spans == [(0.0, 1.0)]
    engine.transfer_profile(battery1[:2], 0.0, range(1, 9), gradients=8)
    assert spans == [(0.0, 1.0)]
    # mu_0.25, then increments from phases 0.25, 0.75, 0.25 (read) and 0.75
    engine.transfer_profile(battery1[:2], 0.25, [0.5, 1.0, 1.5, 2.5], gradients=2.5)
    assert spans == [(0.0, 1.0), (0.25, 1.0), (0.25, 0.5), (0.75, 0.5), (0.75, 1.0)]


@pytest.mark.parametrize("kind", ["ou-exact", "grid", "montecarlo"])
def test_engine_protocol(kind, ou_model, ou_field, ou_generator, ou_report, battery1):
    if kind == "ou-exact":
        engine = eng.OUExactEngine(ou_model, order=20)
    elif kind == "grid":
        engine = eng.GridEngine(ou_field, ou_generator)
    else:
        # at 2000 particles np.dot(w, 1) is 1 + 7e-16: the plain mean keeps constants exact
        config = mc.SimConfig(n_particles=2000, dt=0.02, seed=3, horizon_periods=2)
        engine = eng.MonteCarloEngine(ou_field, config, n_outer=8, n_inner=16,
                                      certificate=ou_report.lyapunov, phases=[0.3, 0.25, 0.5, 0.75])
    assert engine.name == kind
    assert engine.period == 1.0
    assert engine.stochastic is (kind == "montecarlo")
    for member in ("phase_mean", "phase_lp", "_stats"):
        assert not hasattr(engine, member)     # phase integrals live in diagnostics
    pts, w = engine.phase_nodes(0.3)
    for phi in battery1:
        vals = phi(0.3, pts)
        mean, se = dg.phase_mean(engine, phi, 0.3)
        if engine.stochastic:
            assert mean == vals.mean()
            assert se == mc.mean_and_stderr(vals)[1]
            if phi.fid == "const":
                assert (mean, se) == (1.0, 0.0) == dg.phase_lp(engine, phi, 0.3, 2.0)
        else:
            assert mean == float(np.dot(w, vals))
            assert se == 0.0
            for p in (1.0, 2.0, 4.0):
                lp = float(np.dot(w, np.abs(vals) ** p) ** (1.0 / p))
                assert dg.phase_lp(engine, phi, 0.3, p) == (lp, 0.0)
    assert dg.PhaseMeasures.from_engine(engine, 4).stochastic is engine.stochastic


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_battery_gradients_match_central_differences(dim):
    """Every test function's gradient at phases 0, 0.3 and 0.7 agrees with
    central differences of step 1e-6."""
    X = np.random.default_rng(dim).uniform(-2.0, 2.0, size=(32, dim))
    members = [(f"{u.fid}@{s}", functools.partial(u, s), functools.partial(u.grad_at, s))
               for u in eng.battery() + eng.st_battery(1.0) + eng.positive_battery()
               for s in (0.0, 0.3, 0.7)]
    h = 1e-6
    for fid, fn, grad in members:
        fd = np.stack([(fn(X + h * e) - fn(X - h * e)) / (2.0 * h) for e in np.eye(dim)], axis=1)
        assert np.max(np.abs(grad(X) - fd)) <= 1e-6, fid


class TestPoincare:
    def test_x_independent_function_trivial(self, grad_mc):
        measures = dg.PhaseMeasures.from_engine(grad_mc, 4)
        u = eng.TestFunction("flat", lambda s, X: np.full(len(X), 2.0),
                             lambda s, X: np.zeros_like(X))
        rep = dg.poincare_ratio(u, measures, 1.25, -0.5)
        assert rep.left <= 1e-24 and rep.right == 0.0 and abs(rep.residual) <= 1e-24
        assert rep.holds()

    def test_grad1d_coordinate(self, grad_mc, grad_report):
        measures = dg.PhaseMeasures.from_engine(grad_mc, 8)
        u = eng.st_battery(1.0)[0]
        lam = grad_report.lambda_hat
        ell2 = grad_report.ell_p_hat[2.0]
        rep = dg.poincare_ratio(u, measures, lam, ell2)
        assert abs(rep.constant - 2.5) < 1e-12
        assert abs(rep.right - 2.5) < 1e-12      # |grad u| = 1 exactly
        assert rep.holds()
        assert rep.left < 1.0                     # variance well below the bound

    def test_modulated_battery(self, grad_mc, grad_report):
        measures = dg.PhaseMeasures.from_engine(grad_mc, 8)
        for u in eng.st_battery(1.0):
            rep = dg.poincare_ratio(u, measures, grad_report.lambda_hat, grad_report.ell_p_hat[2.0])
            assert rep.holds(), (u.fid, rep.residual, rep.stderr)


class OneEnsembleEngine:
    """Stochastic engine whose every phase holds one and the same paired ensemble."""

    name = "one-ensemble"
    stochastic = True
    period = 1.0

    def __init__(self, positions):
        self.positions = positions

    def phase_nodes(self, phase):
        return self.positions, np.full(len(self.positions), 1.0 / len(self.positions))


class TestPhaseAverageStderr:
    """Phases that share particles pool per particle, over antithetic pair units."""

    @pytest.fixture(scope="class")
    def engine(self):
        return OneEnsembleEngine(np.random.default_rng(11).standard_normal((1000, 1)))

    def test_poincare_copies_report_the_single_phase_stderr(self, engine):
        u = eng.st_battery(1.0)[0]              # u = x, |grad u| = 1
        one = dg.poincare_ratio(u, dg.PhaseMeasures.from_engine(engine, 1), 2.0, -1.0)
        eight = dg.poincare_ratio(u, dg.PhaseMeasures.from_engine(engine, 8), 2.0, -1.0)
        x = engine.positions[:, 0]
        m = x.mean()
        want = math.hypot(mc.mean_and_stderr((x - m) ** 2)[1],
                          mc.mean_and_stderr(2 * abs(m) * x)[1])
        assert one.stderr == pytest.approx(want, rel=1e-12)
        assert eight.stderr == pytest.approx(want, rel=1e-12)   # not want / sqrt(8)

    def test_logsob_copies_report_the_single_phase_stderr(self, grad_field, engine):
        u = next(f for f in eng.positive_battery() if f.fid == "pos-sin")
        one, eight = (dg.logsob_ratio(grad_field, u, 1.0, dg.PhaseMeasures.from_engine(engine, k),
                                      1.0, -1.0) for k in (1, 8))
        assert one.stderr > 0.0
        assert eight.stderr == pytest.approx(one.stderr, rel=1e-12)


class TestLogSob:
    def test_constant_equality(self, grad_field, grad_mc, grad_report):
        measures = dg.PhaseMeasures.from_engine(grad_mc, 4)
        u = eng.positive_battery()[0]
        rep = dg.logsob_ratio(grad_field, u, 2.0, measures,
                              grad_report.lambda_hat, grad_report.r0_hat)
        assert abs(rep.residual) < 1e-12
        assert rep.holds()

    def test_grad1d_p2_constant_five(self, grad_field, grad_mc, grad_report):
        measures = dg.PhaseMeasures.from_engine(grad_mc, 8)
        u = next(f for f in eng.positive_battery() if f.fid == "pos-bump")
        rep = dg.logsob_ratio(grad_field, u, 2.0, measures,
                              grad_report.lambda_hat, grad_report.r0_hat)
        assert abs(rep.constant - 5.0) < 1e-12
        assert rep.holds()

    def test_grad1d_p1_positive_sine(self, grad_field, grad_mc, grad_report):
        measures = dg.PhaseMeasures.from_engine(grad_mc, 8)
        u = next(f for f in eng.positive_battery() if f.fid == "pos-sin")
        rep = dg.logsob_ratio(grad_field, u, 1.0, measures,
                              grad_report.lambda_hat, grad_report.r0_hat)
        assert abs(rep.constant - 1.25) < 1e-12
        assert rep.holds()

    def test_rejects_x_dependent_diffusion(self, gen_field, gen_mc, gen_report):
        measures = dg.PhaseMeasures.from_engine(gen_mc, 2)
        with pytest.raises(NotApplicable):
            dg.logsob_ratio(gen_field, eng.positive_battery()[0], 2.0, measures,
                            gen_report.lambda_hat, gen_report.r0_hat)


class TestProjectionProperties:
    def test_contractivity_ou_exact(self, ou_engine, battery1):
        """|| Pi u ||_p <= || u ||_p on the quadrature measure."""
        for fid in ("tanh", "bump", "coord0"):
            phi = next(p for p in battery1 if p.fid == fid)
            for p in (1.0, 2.0, 4.0):
                pis, raws = [], []
                for k in range(8):
                    phase = k / 8.0
                    mean, _ = dg.phase_mean(ou_engine, phi, phase)
                    lp, _ = dg.phase_lp(ou_engine, phi, phase, p)
                    pis.append(abs(mean) ** p)
                    raws.append(lp**p)
                assert np.mean(pis) ** (1 / p) <= np.mean(raws) ** (1 / p) + 1e-12

    def test_shift_commutes_with_projection(self, ou_model, ou_engine):
        """Projection of the transported function equals the shifted projection."""
        system = ou_engine.system
        t_shift = 2.0 / 33.0
        pairs = [(k / 33, k / 33 + t_shift) for k in (0, 5, 11)] + [(0.0, 0.5), (0.0, 1.3)]
        for phi in (lambda X: np.tanh(X[:, 0]), lambda X: np.exp(-0.5 * np.sum(X * X, axis=1))):
            for s, target in pairs:
                # m_s[P(target, s) phi] via push-forward quadrature
                mu_s = system.measure(s)
                u, sig, shift = ou._transition_ode(ou_model, target, s, 1e-10)
                push = ou.GaussianMeasure(u @ mu_s.mean + shift, u @ mu_s.cov @ u.T + sig)
                lhs = ref.gaussian_expectation(push, phi, order=60)
                rhs, _ = dg.phase_mean(ou_engine, lambda s, X: phi(X), target)
                assert abs(lhs - rhs) < 1e-8

    def test_commutation_montecarlo(self, ou_mc, battery1):
        tanh = next(p for p in battery1 if p.fid == "tanh")
        profile = ou_mc.transfer_profile([tanh], 0.25, [1.0])
        g, se = profile.values["tanh"][0]
        mean_p = float(np.mean(g))
        se_p = math.sqrt(float(np.mean(se**2)) / len(g) + g.var(ddof=1) / len(g))
        rhs, rhs_se = dg.phase_mean(ou_mc, tanh, 1.25)
        assert abs(mean_p - rhs) <= 5 * math.hypot(se_p, rhs_se) + 1e-4


def test_deterministic_contraction_rows_allow_roundoff(ou_engine, decay_battery1):
    """Exact quadrature meets both sides up to roundoff; the slack is that roundoff."""
    profile = ou_engine.transfer_profile(decay_battery1, 0.0, [1, 2])
    rows = dg.contraction_invariance_report(ou_engine, decay_battery1, 0.0, [1.0, 2.0, 4.0],
                                            profile)
    assert len(rows) == 30
    for row in rows:
        assert row["contraction_ok"] and row["invariance_ok"], row
        assert row["contraction_slack"] == 1e-12 * max(
            1.0, abs(row["contraction_lhs"]), abs(row["contraction_rhs"]))
        assert 0.0 < row["invariance_slack"] <= 1e-11


class TestThetaInterpolation:
    def test_grad1d_p15_rate_below_theta(self, grad_mc, grad_heavy_profile, decay_battery1):
        """Fractional-p decay rate sits below the interpolated bound."""
        theta = 2.0 * (-0.5) * (1.0 - 1.0 / 1.5)
        curves = [dg.decay_curve(grad_mc, phi, 0.0, 1.5, grad_heavy_profile)
                  for phi in decay_battery1]
        fit = dg.fit_rate(dg.max_over_curves(curves), (1.0, 8.0))
        assert fit.rate <= theta + 0.1


class TestShortTimeSingularity:
    def test_gradient_supnorm_slope(self, ou_model):
        """Sup-norm gradients of a sharp bounded function scale like
        (t - s)^(-1/2) at short separations."""
        eps = 0.05
        phi = lambda X: np.tanh(X[:, 0] / eps)
        taus = np.array([0.01, 0.02, 0.04, 0.08])
        probes = np.linspace(-0.3, 0.3, 31)[:, None]
        h = 1e-4
        sups = []
        for tau in taus:
            up = ou.apply(ou_model, phi, tau, 0.0, probes + h, order=180)
            dn = ou.apply(ou_model, phi, tau, 0.0, probes - h, order=180)
            sups.append(np.abs((up - dn) / (2 * h)).max())
        slope = np.polyfit(np.log(taus), np.log(sups), 1)[0]
        assert slope >= -0.6
        assert slope <= -0.4


class TestCoreElement:
    def test_grid_generator_image_converges(self, ou_field, battery1):
        chi = next(p for p in battery1 if p.fid == "bump")
        alpha = eng.BumpWindow(0.1, 0.9)
        rels = []
        # the envelope is resolved in time, so the refinement doubles both axes
        for n_x, n_t in ((31, 33), (63, 65)):
            grid = gridmod.SpaceTimeGrid(half_width=4.5, points_per_axis=n_x,
                                         time_slices=n_t, period=1.0)
            gen = gridmod.build_generator(ou_field, grid, "spectral")
            u, image = dg.core_on_grid(ou_field, grid, 1.0, chi, alpha, substeps=2)
            applied = (gen.matrix @ u.ravel()).reshape(u.values.shape)
            err = math.sqrt(float(np.dot(gen.rho, ((applied - image.values).ravel()) ** 2)))
            scale = math.sqrt(float(np.dot(gen.rho, image.values.ravel() ** 2)))
            rels.append(err / scale)
        assert rels[1] < rels[0] / 2.0        # at least first-order decrease
        assert rels[1] < 0.05

    def test_bump_window_slope(self):
        alpha = eng.BumpWindow(0.0, 1.0)
        s = np.linspace(0.05, 0.95, 19)
        h = 1e-6
        fd = (alpha(s + h) - alpha(s - h)) / (2 * h)
        assert np.abs(fd - alpha.deriv(s)).max() < 1e-6


class TestRateConsistency:
    def test_gen2d_rate_below_ell2(self, gen_mc, gen_report):
        """Bounded-diffusion scenarios decay at least as fast as ell_2."""
        phis = [p for p in eng.battery() if p.fid in ("tanh", "sin", "coord0", "bump")]
        horizons = [1, 1.25, 1.5, 1.75, 2, 2.25, 2.5]
        profile = gen_mc.transfer_profile(phis, 0.0, horizons)
        curves = [dg.decay_curve(gen_mc, phi, 0.0, 2.0, profile) for phi in phis]
        fit = dg.fit_rate(dg.max_over_curves(curves), (1.0, 2.5))
        assert fit.rate <= gen_report.ell_p_hat[2.0] + 0.1


class TestCrossEngineConsistency:
    def test_grad1d_transition_grid_vs_montecarlo(self, grad_field, grad_grid):
        """The two generic engines must agree pointwise on the nonlinear field."""
        s, t = 0.0, 1.5
        probes = np.array([[0.7], [-1.1], [0.0]])
        g_grid = gridmod.transition_matrix(grad_field, grad_grid, s, t,
                                           np.tanh(grad_grid.nodes()[:, 0]), substeps=4)
        x_nodes = grad_grid.nodes()[:, 0]
        config = mc.SimConfig(n_particles=40000, dt=0.004, seed=77)
        for probe in probes:
            value, se = ref.estimate_P(grad_field, lambda X: np.tanh(X[:, 0]),
                                       t, s, probe, config, stream=("transition",))
            on_grid = float(np.interp(probe[0], x_nodes, g_grid))
            assert abs(value - on_grid) <= 4 * se + 2e-3, (probe, value, on_grid, se)


class TestPointwiseGradientCheck:
    def test_holds_at_every_point_of_benchmark_grad1d(self, grad1d_benchmark_run):
        run = grad1d_benchmark_run
        (profile, r0), = run.checks
        rows = dg.pointwise_gradient_check(profile, r0)
        horizons = next(spec["horizons"] for spec in run.doc["experiments"]
                        if spec["name"] == "gradient-decay")
        assert [row["tau"] for row in rows] == horizons
        assert all(row["held"] == row["points"] == run.doc["sim"]["n_outer"] for row in rows)
        assert all(row["min_ratio"] > 1.0 and row["min_margin_se"] > 4.0 for row in rows)
        report = json.loads((run.out / "gradient-decay.json").read_text())
        assert report["pointwise"] == rows
        check = next(c for c in report["checks"] if c["rule"] == "gradient-pointwise")
        assert check == {"rule": "gradient-pointwise", "passed": True,
                         "detail": f"{128 * len(horizons)}/{128 * len(horizons)} points"}

    def test_fails_when_the_gradient_rows_drop_the_jacobian(self, grad1d_benchmark_run):
        # in d = 1, grad tanh = sech^2 = tanh-slope: a profile whose gradient rows
        # drop J, so that lhs = mean grad tanh(X), has tanh-slope's value rows there
        (profile, r0), = grad1d_benchmark_run.checks
        slope = profile.values["tanh-slope"][: len(profile.grads["tanh"])]
        dropped = dataclasses.replace(
            profile, grads={**profile.grads, "tanh": [(g[:, None], se) for g, se in slope]})
        rows = dg.pointwise_gradient_check(dropped, r0)
        assert all(row["held"] < row["points"] and row["min_ratio"] < 1.0 for row in rows)
