"""Acceptance gate: every shipped criterion at its stated tolerance.

Each test prints one PASS line so the gate reads as a checklist under
``pytest -v -s``.  All stochastic inputs run on counter-based streams, so the
suite is bit-reproducible.
"""

import json
import math

import numpy as np
import pytest

from periodiclab import cli
from periodiclab import diagnostics as dg
from periodiclab import engines as eng
from periodiclab import grid as gridmod
from periodiclab import montecarlo as mc
from periodiclab import ougaussian as ou
from periodiclab import scenarios as sc


def _report(criterion: str, detail: str):
    print(f"[PASS] {criterion}: {detail}")


class TestAC1OUExactness:
    def test_montecarlo_matches_exact_engine(self, ou_model, ou_field):
        config = mc.SimConfig(n_particles=30000, dt=0.0025, seed=101)
        rng = np.random.default_rng(2026)
        worst = 0.0
        for i in range(20):
            s = float(rng.uniform(0.0, 1.0))
            t = s + float(rng.uniform(0.25, 2.5))
            x = float(rng.uniform(-2.0, 2.0))
            u, sig, _ = ou._transition_ode(ou_model, t, s, 1e-10)
            phi_kind = i % 3
            if phi_kind == 0:
                value, se = mc.estimate_P(ou_field, lambda X: X[:, 0], t, s, [x],
                                          config, stream=300 + i)
                exact = u[0, 0] * x
            elif phi_kind == 1:
                value, se = mc.estimate_P(ou_field, lambda X: X[:, 0] ** 2, t, s, [x],
                                          config, stream=300 + i)
                exact = (u[0, 0] * x) ** 2 + sig[0, 0]
            else:
                value, se = mc.estimate_P(ou_field, lambda X: np.exp(1j * X[:, 0]),
                                          t, s, [x], config, stream=300 + i)
                exact = ou.apply_to_exponential(ou_model, 1.0, t, s, [x])
            err = abs(value - exact)
            assert err <= 4.0 * se, (i, err, se)
            worst = max(worst, err / se if se > 0 else 0.0)
        _report("AC1", f"20 transition expectations within 4 stderr (worst {worst:.2f})")

    def test_exact_engine_self_checks(self, ou_model):
        rng = np.random.default_rng(4)
        worst_cocycle = 0.0
        for _ in range(5):
            s, r, t = np.sort(rng.uniform(0.0, 3.0, size=3))
            lhs = ou.propagator(ou_model, t, s)
            rhs = ou.propagator(ou_model, t, r) @ ou.propagator(ou_model, r, s)
            worst_cocycle = max(worst_cocycle, float(np.abs(lhs - rhs).max()))
        assert worst_cocycle <= 1e-8

        h, x = 0.7, np.array([0.3])
        s, r, t = 0.2, 1.0, 2.1
        u_tr, sig_tr, m_tr = ou._transition_ode(ou_model, t, r, 1e-10)
        inner = np.exp(-0.5 * h * sig_tr[0, 0] * h + 1j * m_tr[0] * h)
        composed = inner * ou.apply_to_exponential(ou_model, u_tr[0, 0] * h, r, s, x)
        direct = ou.apply_to_exponential(ou_model, h, t, s, x)
        assert abs(direct - composed) <= 1e-8

        system = ou.periodic_system(ou_model)
        worst_iden = 0.0
        for s0, t0 in ((0.0, 1.375), (0.25, 2.25), (0.5, 1.5)):
            mu_s, mu_t = system.measure(s0), system.measure(t0)
            u, sig, shift = ou._transition_ode(ou_model, t0, s0, 1e-10)
            push = ou.GaussianMeasure(u @ mu_s.mean + shift, u @ mu_s.cov @ u.T + sig)
            for deg in (1, 2, 3, 4):
                lhs = ou.gaussian_expectation(push, lambda X: X[:, 0] ** deg, 8)
                rhs = ou.gaussian_expectation(mu_t, lambda X: X[:, 0] ** deg, 8)
                worst_iden = max(worst_iden, abs(lhs - rhs))
        assert worst_iden <= 1e-8
        _report("AC1", f"cocycle {worst_cocycle:.1e}, composition and "
                       f"measure-transport identity {worst_iden:.1e} at 1e-8")


class TestAC2RateReproduction:
    def test_omega2_matches_floquet_bound(self, ou_model, ou_engine, decay_battery1):
        omega0 = ou.growth_bound(ou_model)
        assert abs(omega0 + 1.0) < 1e-6
        horizons = list(range(1, 9))
        profile = ou_engine.transfer_profile(decay_battery1, 0.0, horizons)
        curves = [dg.decay_curve(ou_engine, phi, 0.0, 2.0, profile) for phi in decay_battery1]
        fit = dg.fit_rate(dg.max_over_curves(curves), (1.0, 8.0))
        assert -1.1 <= fit.rate <= -0.9
        _report("AC2", f"omega_hat = {fit.rate:.4f} in [-1.1, -0.9] "
                       f"against the Floquet bound {omega0:.4f}")


class TestAC3ExponentialEnvelope:
    @pytest.mark.parametrize("p", [2.0, 4.0])
    def test_grad1d_envelope_and_rate(self, grad_mc, grad_heavy_profile,
                                      decay_battery1, p):
        curves = [dg.decay_curve(grad_mc, phi, 0.0, p, grad_heavy_profile)
                  for phi in decay_battery1]
        combined = dg.max_over_curves(curves)
        fit = dg.fit_rate(combined, (1.0, 8.0))
        assert fit.rate <= -0.4
        _report("AC3", f"p={p:g}: omega_hat={fit.rate:.3f} <= -0.4 over [1,8] "
                       f"({fit.n_points} pts)")


class TestAC4RateEquivalence:
    def test_ou1d(self, ou_engine, battery1):
        phis = [p for p in battery1 if p.fid in ("tanh", "sin", "ratio")]
        out = dg.rate_equivalence_check(ou_engine, phis, 0.0, 2.0,
                                        list(range(1, 9)), (1.0, 8.0))
        assert out["difference"] <= 0.1
        _report("AC4", f"ou1d |omega-gamma| = {out['difference']:.4f} <= 0.1")

    def test_grad1d(self, grad_field, grad_generator, battery1):
        engine = eng.GridEngine(grad_field, grad_generator, substeps=2)
        phis = [p for p in battery1 if p.fid in ("tanh", "sin", "ratio")]
        horizons = [1 + 0.25 * k for k in range(13)]
        out = dg.rate_equivalence_check(engine, phis, 0.0, 2.0, horizons, (1.0, 4.0))
        assert out["difference"] <= 0.1
        _report("AC4", f"grad1d |omega-gamma| = {out['difference']:.4f} <= 0.1 "
                       f"(omega={out['omega_hat']:.3f})")


class TestAC5PointwiseGradient:
    def test_fifty_random_samples(self, grad_field, grad_report, battery1):
        config = mc.SimConfig(n_particles=4000, dt=0.008, seed=55, antithetic=True)
        tanh = next(p for p in battery1 if p.fid == "tanh")
        sin_phi = next(p for p in battery1 if p.fid == "sin")
        rng = np.random.default_rng(31)
        r0 = grad_report.r0_hat
        hard_violations = 0
        for i in range(50):
            s = float(rng.uniform(0.0, 1.0))
            t = s + float(rng.uniform(0.1, 3.0))
            x = rng.uniform(-2.0, 2.0, size=1)
            phi = tanh if i % 2 == 0 else sin_phi
            out = dg.pointwise_gradient_check(grad_field, phi, t, s, x, config, r0,
                                              stream=400 + i)
            if not out["holds"]:
                hard_violations += 1
        assert hard_violations == 0
        _report("AC5", "50/50 pointwise gradient bounds with ell_1 = r0 = -0.5")


class TestAC6ContractionInvariance:
    def test_all_three_scenarios(self, ou_mc, grad_mc, gen_mc, battery1):
        total = 0
        for engine, gaps in ((ou_mc, [1.0, 2.0, 4.0]), (grad_mc, [1.0, 2.0, 4.0]),
                             (gen_mc, [1.0, 2.0])):
            phis = eng.battery()
            profile = engine.transfer_profile(phis, 0.0, gaps)
            rows = dg.contraction_invariance_report(engine, phis, 0.0, gaps,
                                                    [1.0, 2.0, 4.0], profile)
            assert all(r["contraction_ok"] for r in rows), engine.field.name
            assert all(r["invariance_ok"] for r in rows), engine.field.name
            total += len(rows)
        _report("AC6", f"{total} contraction/invariance rows within 5 stderr "
                       "on ou1d, grad1d, gen2d")


class TestAC7MomentBound:
    def test_eight_phases_each_field(self, ou_mc, grad_mc, gen_mc,
                                     ou_report, grad_report, gen_report):
        for engine, report in ((ou_mc, ou_report), (grad_mc, grad_report),
                               (gen_mc, gen_report)):
            bound = report.lyapunov.moment_bound()
            for k in range(8):
                phase = engine.field.period * k / 8.0
                ens = engine.phase_ensemble(phase)
                v = 1.0 + np.sum(ens.positions**2, axis=1)
                se = v.std(ddof=1) / math.sqrt(ens.n)
                assert v.mean() <= bound + 4.0 * se, (engine.field.name, phase)
        _report("AC7", "int V d(mu_s) <= min V + a/c + 4 stderr at 8 phases x 3 fields")


class TestAC8FunctionalInequalities:
    def test_poincare_battery(self, grad_mc, grad_report):
        measures = dg.PhaseMeasures.from_engine(grad_mc, 8)
        lam, ell2 = grad_report.lambda_hat, grad_report.ell_p_hat[2.0]
        assert abs(lam / abs(ell2) - 2.5) < 1e-12
        worst = math.inf
        for u in eng.st_battery(1.0):
            rep = dg.poincare_ratio(u, measures, lam, ell2)
            assert rep.holds(), (u.fid, rep.residual, rep.stderr)
            worst = min(worst, rep.residual)
        _report("AC8", f"variance inequality with constant 2.5: min residual {worst:.3f}")

    def test_logsob_battery(self, grad_field, grad_mc, grad_report):
        measures = dg.PhaseMeasures.from_engine(grad_mc, 8)
        lam, r0 = grad_report.lambda_hat, grad_report.r0_hat
        for p, expected_const in ((1.0, 1.25), (2.0, 5.0)):
            for u in eng.positive_battery():
                rep = dg.logsob_ratio(grad_field, u, p, measures, lam, r0)
                assert abs(rep.constant - expected_const) < 1e-12
                assert rep.holds(), (u.fid, p, rep.residual, rep.stderr)
        _report("AC8", "entropy inequality at p in {1, 2} with constants "
                       "p^2 Lambda / (2 |r0|) = 1.25 and 5.0")


class TestAC9Spectrum:
    def _axis_ok(self, report, period):
        cluster = dict(report.axis_cluster)
        w0 = 2 * math.pi / period
        assert 0 in cluster and 1 in cluster and -1 in cluster
        return max(abs(cluster[0]), abs(cluster[1] - 1j * w0), abs(cluster[-1] + 1j * w0))

    def test_ou1d(self, ou_field, ou_grid, ou_generator, ou_spectrum, ou_report):
        err = self._axis_ok(ou_spectrum, 1.0)
        assert err <= 1e-3
        cap = ou_report.ell_p_hat[2.0] + 0.1
        assert ou_spectrum.gap_estimate <= cap
        mapping = gridmod.spectral_mapping_check(ou_generator, ou_field, ou_spectrum,
                                                 substeps=4)
        assert mapping["worst_mismatch"] <= 1e-3
        fine = gridmod.build_generator(ou_field, ou_grid.refined(), "spectral")
        fine_rep = gridmod.spectrum(fine, k=12, dense_cutoff=0)
        drift = abs(fine_rep.gap_estimate - ou_spectrum.gap_estimate)
        assert drift <= 0.05
        _report("AC9", f"ou1d axis {err:.1e}, gap {ou_spectrum.gap_estimate:.4f} <= {cap}, "
                       f"mapping {mapping['worst_mismatch']:.1e}, doubling drift {drift:.4f}")

    def test_grad1d(self, grad_field, grad_grid, grad_generator, grad_spectrum, grad_report):
        err = self._axis_ok(grad_spectrum, 1.0)
        assert err <= 1e-3
        cap = grad_report.ell_p_hat[2.0] + 0.1
        assert grad_spectrum.gap_estimate <= cap
        mapping = gridmod.spectral_mapping_check(grad_generator, grad_field, grad_spectrum,
                                                 substeps=4)
        assert mapping["worst_mismatch"] <= 1e-3
        fine = gridmod.build_generator(grad_field, grad_grid.refined(), "spectral")
        fine_rep = gridmod.spectrum(fine, k=12, dense_cutoff=0)
        drift = abs(fine_rep.gap_estimate - grad_spectrum.gap_estimate)
        assert drift <= 0.05
        _report("AC9", f"grad1d axis {err:.1e}, gap {grad_spectrum.gap_estimate:.4f} <= {cap}, "
                       f"mapping {mapping['worst_mismatch']:.1e}, doubling drift {drift:.4f}")

    def test_solvability_dichotomy(self, ou_field, grad_field):
        for field, half_width in ((ou_field, 4.5), (grad_field, 3.0)):
            g = gridmod.SpaceTimeGrid(half_width=half_width, points_per_axis=31,
                                      time_slices=17, period=1.0)
            gen = gridmod.build_generator(field, g, "spectral")
            f = gridmod.GridFunction.sample(
                g, lambda s, X: np.sin(X[:, 0]) * (1 + 0.5 * math.sin(2 * math.pi * s))
                + 0.2 * X[:, 0]).ravel()
            sol = gridmod.solvability_residual(gen, f)
            gap = abs(gridmod.spectrum(gen, k=40).gap_estimate)
            assert sol["residual"] <= 1e-6
            assert sol["zero_mean"] <= 10.0 * sol["data"] / gap
            assert sol["unit_mean"] >= 1e3 * sol["zero_mean"]
        _report("AC9", "mean-zero solvability dichotomy on ou1d and grad1d")


class TestAC10CarreDuChamp:
    def test_residual_quarters_under_halving(self, ou_field):
        def u_fn(s, X):
            prof = np.exp(-1.0 / np.clip(1.0 - (X[:, 0] / 2.25) ** 2, 1e-12, None))
            prof = np.where(np.abs(X[:, 0]) < 2.25, prof, 0.0)
            return prof * (1.0 + 0.5 * math.cos(2 * math.pi * s))

        residuals = []
        for n_x in (63, 127):
            g = gridmod.SpaceTimeGrid(half_width=4.5, points_per_axis=n_x,
                                      time_slices=33, period=1.0)
            gen = gridmod.build_generator(ou_field, g, "spectral")
            u = gridmod.GridFunction.sample(g, u_fn)
            residuals.append(gridmod.carre_du_champ_residual(gen, ou_field, u))
        ratio = residuals[0] / residuals[1]
        assert 3.5 <= ratio <= 4.5
        _report("AC10", f"carre-du-champ residual halving ratio {ratio:.3f} in [3.5, 4.5]")


class TestAC11Determinism:
    def test_cli_runs_byte_identical(self, tmp_path, capsys):
        args = ["run", "ou1d", "--seed", "424242", "--particles", "2000", "--dt", "0.01"]
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert cli.main(args + ["--out", str(out_a)]) == 0
        assert cli.main(args + ["--out", str(out_b)]) == 0
        capsys.readouterr()
        names = sorted(p.name for p in (out_a / "ou1d").iterdir())
        assert names == sorted(p.name for p in (out_b / "ou1d").iterdir())
        assert "summary.json" in names and "spectrum.json" in names
        for name in names:
            a = (out_a / "ou1d" / name).read_bytes()
            b = (out_b / "ou1d" / name).read_bytes()
            assert a == b, name
        _report("AC11", f"two seeded runs: all {len(names)} report files byte-identical")
