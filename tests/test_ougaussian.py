"""Exact Gaussian engine against quadrature and closed-form oracles."""

import time

import numpy as np
import pytest
from scipy.integrate import quad, quad_vec, solve_ivp

from periodiclab import ougaussian as ou
from periodiclab.errors import DimensionTooLarge, IntegratorFailure, NotDissipative
from periodiclab.hypotheses import check_hypotheses
from periodiclab.fields import build_plan

import reference as ref

TOL = 10 * ou.DEFAULT_TOL


def _a_ou1d(t):
    return -1.0 + 0.5 * np.sin(2 * np.pi * t)


def _a_integral(r):
    """Antiderivative of a(t) = -1 + 0.5 sin(2 pi t)."""
    return -r - np.cos(2 * np.pi * r) / (4 * np.pi)


class TestPropagator:
    def test_identity_for_zero_drift(self):
        model = ou.fourier_matrix_model(2, 1.0, a0=np.zeros((2, 2)))
        assert np.allclose(ref.propagator(model, 1.7, 0.3), np.eye(2), atol=TOL)

    def test_scalar_quadrature_oracle(self, ou_model):
        for t in (1.0, 0.5):
            oracle, _ = quad(_a_ou1d, 0.0, t, limit=200)
            assert abs(ref.propagator(ou_model, t, 0.0)[0, 0] - np.exp(oracle)) < 1e-8

    def test_cocycle(self, ou_model):
        rng = np.random.default_rng(3)
        for _ in range(6):
            s, r, t = np.sort(rng.uniform(0.0, 3.0, size=3))
            lhs = ref.propagator(ou_model, t, s)
            rhs = ref.propagator(ou_model, t, r) @ ref.propagator(ou_model, r, s)
            assert np.abs(lhs - rhs).max() <= TOL

    def test_periodicity(self, ou_model):
        for s, t in ((0.2, 1.1), (0.7, 2.3)):
            a = ref.propagator(ou_model, t, s)
            b = ref.propagator(ou_model, t + 1.0, s + 1.0)
            assert np.abs(a - b).max() <= TOL

    def test_orientation_rejected(self, ou_model):
        with pytest.raises(ValueError):
            ref.propagator(ou_model, 0.0, 1.0)


class TestCovariance:
    def test_empty_integral(self, ou_model):
        assert np.all(ref.covariance(ou_model, 0.4, 0.4) == 0.0)

    def test_stationary_limit(self):
        model = ou.fourier_matrix_model(1, 1.0, a0=[[-1.0]])
        assert abs(ref.covariance(model, 20.0, 0.0)[0, 0] - 0.5) < 1e-9

    def test_brownian_variance(self):
        model = ou.fourier_matrix_model(1, 1.0, a0=[[0.0]])
        assert abs(ref.covariance(model, 2.0, 0.0)[0, 0] - 2.0) < 1e-9

    def test_additivity(self, ou_model):
        s, r, t = 0.1, 0.9, 2.0
        u_tr = ref.propagator(ou_model, t, r)
        lhs = ref.covariance(ou_model, t, s)
        rhs = u_tr @ ref.covariance(ou_model, r, s) @ u_tr.T + ref.covariance(ou_model, t, r)
        assert np.abs(lhs - rhs).max() <= TOL

    def test_quadrature_route_oracle(self, ou_model):
        """Independent oracle: adaptive quadrature of U(t,r) B B^T U(t,r)^T."""
        s, t = 0.2, 1.5

        def kernel(r):
            u_tr = np.exp(_a_integral(t) - _a_integral(r))
            return np.array([[u_tr * u_tr]])

        oracle, _ = quad_vec(kernel, s, t, epsabs=1e-12)
        assert np.abs(ref.covariance(ou_model, t, s) - oracle).max() < 1e-9

    def test_2d_quadrature_route(self):
        model = ou.fourier_matrix_model(
            2, 1.0, a0=[[-0.6, 0.8], [-0.8, -0.6]], a_sin=[[0.2, 0.0], [0.0, -0.1]],
            b0=[[1.0, 0.3], [0.0, 0.7]])
        s, t = 0.0, 1.3

        def u_mat(t1, s1):
            def rhs(r, y):
                return (np.asarray(model.A(r)) @ y.reshape(2, 2)).ravel()
            sol = solve_ivp(rhs, (s1, t1), np.eye(2).ravel(), rtol=1e-12, atol=1e-13,
                            method="DOP853")
            return sol.y[:, -1].reshape(2, 2)

        def kernel(r):
            u_tr = u_mat(t, r)
            bb = np.asarray(model.B(r))
            return u_tr @ bb @ bb.T @ u_tr.T

        oracle, _ = quad_vec(kernel, s, t, epsabs=1e-10, epsrel=1e-10)
        assert np.abs(ref.covariance(model, t, s) - oracle).max() < 1e-7


class TestGrowthBound:
    def test_constant_contraction(self):
        model = ou.fourier_matrix_model(2, 1.0, a0=(-np.eye(2)).tolist())
        assert abs(ref.growth_bound(model) + 1.0) < 1e-9

    def test_ou1d_mean_rate(self, ou_model):
        assert abs(ref.growth_bound(ou_model) + 1.0) < 1e-9

    def test_rotation_plus_decay(self):
        model = ou.fourier_matrix_model(2, 1.0, a0=[[-0.2, 1.0], [-1.0, -0.2]])
        assert abs(ref.growth_bound(model) + 0.2) < 1e-9


class TestPeriodicSystem:
    def test_constant_coefficients(self):
        model = ou.fourier_matrix_model(1, 1.0, a0=[[-1.0]])
        system = ou.periodic_system(model)
        mus = [system.measure(k / 8) for k in range(8)]
        assert np.allclose([mu.cov[0, 0] for mu in mus], 0.5, atol=1e-10)
        assert np.allclose([mu.mean for mu in mus], 0.0, atol=1e-12)

    def test_zero_forcing_zero_mean(self, ou_model):
        system = ou.periodic_system(ou_model)
        assert np.allclose([system.measure(k / 16).mean for k in range(16)], 0.0, atol=1e-10)

    def test_far_past_quadrature_oracle(self, ou_model):
        """Sigma(0) = int_{-inf}^0 U(0,r)^2 dr truncated at r = -40."""
        oracle, _ = quad(lambda r: np.exp(2.0 * (_a_integral(0.0) - _a_integral(r))),
                         -40.0, 0.0, limit=2000)
        system = ou.periodic_system(ou_model)
        assert abs(system.measure(0.0).cov[0, 0] - oracle) < 1e-8

    def test_rotation_plus_decay_solves_lyapunov(self):
        model = ou.fourier_matrix_model(2, 1.0, a0=[[-0.2, 1.0], [-1.0, -0.2]])
        system = ou.periodic_system(model)
        for s in (0.0, 0.25, 0.3, 0.5, 0.75):
            mono, s_per, _ = ou._transition_ode(model, s + 1.0, s, ou.DEFAULT_TOL)
            sigma = system.measure(s).cov
            residual = sigma - (mono @ sigma @ mono.T + s_per)
            assert np.abs(residual).max() <= 1e-12 * np.abs(sigma).max()

    def test_slow_contraction(self):
        """Stationary variance 1 / (2 |a|) = 1000, where a fixed-point iteration stalls."""
        model = ou.fourier_matrix_model(1, 1.0, a0=[[-0.0005]])
        system = ou.periodic_system(model)
        assert np.allclose([system.measure(s).cov[0, 0] for s in (0.0, 0.5)], 1000.0,
                           rtol=1e-9, atol=0.0)

    def test_not_dissipative_rejected(self):
        model = ou.fourier_matrix_model(1, 1.0, a0=[[0.1]])
        with pytest.raises(NotDissipative):
            ou.periodic_system(model)

    def test_interpolation_periodic(self, ou_model):
        system = ou.periodic_system(ou_model)
        m0 = system.measure(0.3)
        m1 = system.measure(0.3 + ou_model.period)
        assert np.allclose(m0.cov, m1.cov) and np.allclose(m0.mean, m1.mean)

    def test_forced_mean_fixed_point(self):
        model = ou.fourier_matrix_model(1, 1.0, a0=[[-1.0]], f0=[0.5], f_sin=[0.2])
        system = ou.periodic_system(model)
        # fixed point: m(s) = U m(s) + shift over one period
        for s in (0.0, 3 / 8):
            u, _, shift = ou._transition_ode(model, s + 1.0, s, 1e-10)
            mean = system.measure(s).mean
            assert abs(mean - (u[0, 0] * mean + shift[0])) < 1e-8


COLLOCATION_MODELS = {
    "ou1d": dict(dim=1, a0=[[-1.0]], a_sin=[[0.5]], b0=[[1.0]]),
    "rotating-2d-forced": dict(dim=2, a0=[[-1.0, 1.5], [-1.5, -1.0]], a_sin=[[0.5, 0.0], [0.0, 0.0]],
                               b0=[[1.0, 0.0], [0.3, 0.8]], f0=[0.2, -0.1], f_sin=[0.3, 0.0],
                               f_cos=[0.0, 0.4]),
    "stiff": dict(dim=1, a0=[[-500.0]], a_sin=[[100.0]], b0=[[1.0]], b_sin=[[0.3]], f0=[1.0],
                  f_cos=[2.0]),
}


class TestCollocation:
    @pytest.mark.parametrize("name", sorted(COLLOCATION_MODELS))
    @pytest.mark.parametrize("length", [0.25, 1.0, 2.5])
    @pytest.mark.parametrize("s", [0.0, 0.3])
    def test_matches_dop853(self, name, length, s):
        """(U, S, m) against a DOP853 solve at rtol 1e-12."""
        model = ou.fourier_matrix_model(period=1.0, **COLLOCATION_MODELS[name])
        got = ou._transition_ode(model, s + length, s, ou.DEFAULT_TOL)
        want = ref.dop853_law(model, s + length, s, 1e-12)
        for x, y in zip(got, want):
            assert np.all(np.abs(x - y) <= 1e-10 * np.maximum(1.0, np.abs(y)))


class TestCollocationSplit:
    """An interval whose dense collocation system would outgrow ``_MAX_UNKNOWNS``
    before two solves agree is halved, at most ``_MAX_SPLITS`` deep."""

    @staticmethod
    def counted_depths(monkeypatch) -> list:
        """The depth of every ``_collocated_law`` call from here on."""
        depths, law = [], ou._collocated_law

        def counted(model, s, t, tol, depth=0):
            depths.append(depth)
            return law(model, s, t, tol, depth)

        monkeypatch.setattr(ou, "_collocated_law", counted)
        return depths

    @staticmethod
    def room_for_two_solves(monkeypatch, model):
        """Unknowns for the 16- and 32-node solves of ``model``'s state only."""
        monkeypatch.setattr(ou, "_MAX_UNKNOWNS", (2 * model.dim**2 + model.dim) * 33)

    @pytest.mark.parametrize("name", sorted(COLLOCATION_MODELS))
    def test_split_law_matches_the_unsplit_one(self, name, monkeypatch):
        model = ou.fourier_matrix_model(period=1.0, **COLLOCATION_MODELS[name])
        depths = self.counted_depths(monkeypatch)
        unsplit = ou._transition_ode(model, 2.8, 0.3, ou.DEFAULT_TOL)
        assert depths == [0]
        self.room_for_two_solves(monkeypatch, model)
        split = ou._transition_ode(model, 2.8, 0.3, ou.DEFAULT_TOL)
        assert max(depths) >= 2
        for x, y in zip(split, unsplit):
            assert np.all(np.abs(x - y) <= ou.DEFAULT_TOL * np.maximum(1.0, np.abs(y)))

    def test_an_unresolved_law_without_splits_raises(self, monkeypatch):
        model = ou.fourier_matrix_model(period=1.0, **COLLOCATION_MODELS["stiff"])
        self.room_for_two_solves(monkeypatch, model)
        monkeypatch.setattr(ou, "_MAX_SPLITS", 0)
        with pytest.raises(IntegratorFailure, match="does not resolve the law on"):
            ou._transition_ode(model, 2.8, 0.3, ou.DEFAULT_TOL)


class TestLongLaws:
    def test_a_million_periods_in_under_a_second(self, ou_model):
        system = ou.periodic_system(ou_model)
        start = time.perf_counter()
        u, sig, m = system.law(0.0, 1e6 * ou_model.period)
        assert time.perf_counter() - start < 1.0
        assert u[0, 0] == 0.0 and m[0] == 0.0
        assert abs(sig[0, 0] - system.measure(0.0).cov[0, 0]) < 1e-12

    @pytest.mark.parametrize("name", ["ou1d", "rotating-2d-forced"])
    def test_whole_periods_are_the_period_law_composed(self, name):
        """The law over k periods plus a remainder, squared up from one period,
        equals the one-period law composed k times, then the remainder."""
        model = ou.fourier_matrix_model(period=1.0, **COLLOCATION_MODELS[name])
        system = ou.periodic_system(model)
        s = 0.3
        period = system.law(s, s + 1.0)
        rest = system.law(s, s + 0.4)
        composed = period
        for k in range(2, 10):
            composed = ou.compose_laws(composed, period)
            for length, want in ((k, composed), (k + 0.4, ou.compose_laws(composed, rest))):
                got = system.law(s, s + length)
                for x, y in zip(got, want):
                    assert np.all(np.abs(x - y) <= 1e-12 * np.maximum(1.0, np.abs(y))), (k, length)


class TestDiscreteLyapunov:
    """The numpy Kronecker solve against scipy's, to 1e-12 relative."""

    @staticmethod
    def assert_matches_scipy(a, q):
        got, want = ou.solve_discrete_lyapunov(a, q), ref.solve_discrete_lyapunov(a, q)
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("name", ["ou1d", "rotating-2d-forced"])
    def test_one_period_maps(self, name):
        model = ou.fourier_matrix_model(period=1.0, **COLLOCATION_MODELS[name])
        system = ou.periodic_system(model)
        for s in (0.0, 0.3):
            mono, s_per, _ = system.law(s, s + 1.0)
            self.assert_matches_scipy(mono, s_per)

    def test_stable_3x3(self):
        a = np.array([[0.5, 0.3, -0.2], [0.1, -0.4, 0.6], [0.0, 0.2, 0.7]])   # spectral radius 0.80
        b = np.array([[1.0, 0.0, 0.0], [0.4, 0.9, 0.0], [-0.3, 0.2, 0.5]])
        self.assert_matches_scipy(a, b @ b.T)


class TestExponentials:
    def test_zero_frequency(self, ou_model):
        assert ref.apply_to_exponential(ou_model, 0.0, 2.0, 0.0, [1.3]) == 1.0

    def test_stationary_modulus(self):
        model = ou.fourier_matrix_model(1, 1.0, a0=[[-1.0]])
        val = ref.apply_to_exponential(model, 1.0, 30.0, 0.0, [0.0])
        assert abs(abs(val) - np.exp(-0.25)) < 1e-10

    def test_unit_separation_value(self):
        model = ou.fourier_matrix_model(1, 1.0, a0=[[-1.0]])
        val = ref.apply_to_exponential(model, 1.0, 1.0, 0.0, [0.0])
        expected = np.exp(-0.25 * (1.0 - np.exp(-2.0)))
        assert abs(val - expected) < 1e-9

    def test_chapman_kolmogorov_composition(self):
        model = ou.fourier_matrix_model(1, 1.0, a0=[[-1.0]], a_sin=[[0.5]],
                                        f0=[0.3], f_cos=[0.1])
        h, x = 0.8, np.array([0.4])
        s, r, t = 0.1, 0.8, 1.9
        direct = ref.apply_to_exponential(model, h, t, s, x)
        u_tr, sig_tr, m_tr = ou._transition_ode(model, t, r, 1e-10)
        inner_const = np.exp(-0.5 * h * sig_tr[0, 0] * h + 1j * m_tr[0] * h)
        h1 = u_tr[0, 0] * h
        composed = inner_const * ref.apply_to_exponential(model, h1, r, s, x)
        assert abs(direct - composed) < 1e-9

    def test_evolution_system_identity_polynomials(self, ou_model):
        """Push-forward of mu_s over [s, t] reproduces mu_t for deg <= 4."""
        system = ou.periodic_system(ou_model)
        polys = [lambda X: X[:, 0], lambda X: X[:, 0] ** 2,
                 lambda X: X[:, 0] ** 3, lambda X: X[:, 0] ** 4]
        for s, t in ((0.0, 1.375), (0.25, 2.25)):
            mu_s = system.measure(s)
            mu_t = system.measure(t)
            u, sig, shift = ou._transition_ode(ou_model, t, s, 1e-10)
            push = ou.GaussianMeasure(u @ mu_s.mean + shift, u @ mu_s.cov @ u.T + sig)
            for phi in polys:
                lhs = ref.gaussian_expectation(push, phi, order=8)
                rhs = ref.gaussian_expectation(mu_t, phi, order=8)
                assert abs(lhs - rhs) <= 1e-8


class TestGaussianExpectation:
    def test_constant(self):
        g = ou.GaussianMeasure([0.0, 0.0], np.eye(2))
        assert ref.gaussian_expectation(g, lambda X: np.full(len(X), 7.0), 4) == 7.0

    def test_variance(self):
        g = ou.GaussianMeasure([0.0], [[0.5]])
        assert abs(ref.gaussian_expectation(g, lambda X: X[:, 0] ** 2, 2) - 0.5) < 1e-12

    def test_mean(self):
        g = ou.GaussianMeasure([3.0], [[1.0]])
        assert abs(ref.gaussian_expectation(g, lambda X: X[:, 0], 3) - 3.0) < 1e-12

    def test_polynomial_exactness_threshold(self):
        g = ou.GaussianMeasure([0.0], [[1.0]])
        # E x^6 = 15; order 4 integrates degree <= 7 exactly, order 3 does not
        assert abs(ref.gaussian_expectation(g, lambda X: X[:, 0] ** 6, 4) - 15.0) < 1e-10
        assert abs(ref.gaussian_expectation(g, lambda X: X[:, 0] ** 6, 3) - 15.0) > 1e-3

    def test_dimension_guard(self):
        with pytest.raises(DimensionTooLarge):
            ou.hermite_nodes(4, 5)

    def test_negative_covariance_rejected(self):
        with pytest.raises(ValueError):
            ou.GaussianMeasure([0.0], [[-1.0]])


class TestAsField:
    def test_half_convention(self):
        model = ou.fourier_matrix_model(2, 1.0, a0=(-np.eye(2)).tolist())
        field = ou.as_field(model)
        q = field.q(0.3, np.zeros((1, 2)))[0]
        assert np.allclose(q, 0.5 * np.eye(2))

    def test_r0_through_checker(self):
        model = ou.fourier_matrix_model(1, 1.0, a0=[[-1.0]])
        field = ou.as_field(model)
        plan = build_plan(1, 1.0, r_max=4.0, n_times=8, n_axis=9)
        assert check_hypotheses(field, plan).r0_hat == -1.0

    def test_ell_p_worst_phase(self, ou_field):
        plan = build_plan(1, 1.0, r_max=4.0, n_times=64, n_axis=9)
        # sup over t of a(t) = -1 + 0.5 max sin = -0.5
        assert check_hypotheses(ou_field, plan, p_values=(2.0,)).ell_p_hat[2.0] == -0.5
        assert ou_field.q_independent_of_x

    def test_degenerate_diffusion_flagged(self):
        model = ou.fourier_matrix_model(1, 1.0, a0=[[-1.0]], b0=[[1.0]], b_cos=[[1.0]])
        with pytest.raises(ValueError):
            model.check_ellipticity()

