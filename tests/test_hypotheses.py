"""Hypothesis checkers against closed-form and brute-force oracles."""

import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from periodiclab import fields as fl
from periodiclab import hypotheses as hyp
from periodiclab.errors import MissingGradient, NonPositiveDefinite, UnboundedDrift


def _const_matrix_field(mat):
    mat = np.asarray(mat, dtype=float)
    d = len(mat)

    def q(t, X):
        X = np.atleast_2d(X)
        return np.broadcast_to(mat, (X.shape[0], d, d)).copy()

    def b(t, X):
        return -np.atleast_2d(X)

    def grad_b(t, X):
        X = np.atleast_2d(X)
        return np.broadcast_to(-np.eye(d), (X.shape[0], d, d)).copy()

    return fl.PeriodicCoefficientField(
        dim=d, period=1.0, q=q, b=b, grad_b=grad_b,
        q_independent_of_x=True, name="const-matrix")


def test_ellipticity_constant_diagonal():
    field = _const_matrix_field(np.diag([2.0, 3.0]))
    plan = fl.build_plan(2, 1.0, r_max=3.0, n_times=8, n_axis=5)
    report = hyp.check_hypotheses(field, plan)
    assert report.eta0_hat == 2.0 and report.lambda_hat == 3.0


def test_ellipticity_oscillating_vs_dense_grid_oracle():
    field = fl.polynomial_field(1, 1.0, q_const=1.0, q_sin=0.25,
                                drift_terms=(fl.DriftTerm(1, -1.0),))
    # independent oracle: extremize the scalar coefficient over a 1e4 grid
    tgrid = np.arange(10000) / 10000.0
    vals = 1.0 + 0.25 * np.sin(2 * np.pi * tgrid)
    oracle = (vals.min(), vals.max())
    assert oracle == (0.75, 1.25)
    plan = fl.build_plan(1, 1.0, r_max=5.0, n_times=64, n_axis=9)
    report = hyp.check_hypotheses(field, plan)
    assert (report.eta0_hat, report.lambda_hat) == oracle


def test_ellipticity_degenerate_raises():
    field = _const_matrix_field([[0.0]])
    plan = fl.build_plan(1, 1.0, r_max=2.0, n_times=4, n_axis=5)
    with pytest.raises(NonPositiveDefinite):
        hyp.check_hypotheses(field, plan)


def test_lyapunov_linear_drift_certificate():
    # Q = 1/2, b = -x: L(1 + x^2) = 1 - 2 x^2 = 3 - 2 V exactly
    field = fl.polynomial_field(1, 1.0, q_const=0.5, drift_terms=(fl.DriftTerm(1, -1.0),))
    plan = fl.build_plan(1, 1.0, r_max=5.0, n_times=8, n_axis=21)
    res = hyp.check_hypotheses(field, plan).lyapunov
    assert res.accepted
    assert res.c == 2.0
    assert abs(res.a - 3.0) < 1e-12
    assert abs(res.moment_bound() - 2.5) < 1e-12


def test_lyapunov_antidissipative_violations():
    field = fl.polynomial_field(1, 1.0, q_const=0.5, drift_terms=(fl.DriftTerm(1, 1.0),))
    plan = fl.build_plan(1, 1.0, r_max=5.0, n_times=8, n_axis=21)
    res = hyp.check_hypotheses(field, plan).lyapunov
    assert not res.accepted
    assert res.violations
    t, x, quantity, value = res.violations[0]
    assert quantity == "LV+cV" and value > 0


def test_lyapunov_grad1d_accepts(grad_field, grad_plan):
    res = hyp.check_hypotheses(grad_field, grad_plan).lyapunov
    assert res.accepted and res.a > 0 and res.c > 0
    # brute oracle on the same samples: the certificate must actually hold,
    # with L V = 2 q + 2 b x in one dimension
    x = grad_plan.points
    for t in grad_plan.times[::8]:
        av = 2.0 * grad_field.q(t, x)[:, 0, 0] + 2.0 * grad_field.b(t, x)[:, 0] * x[:, 0]
        assert np.all(av <= res.a - res.c * (1.0 + x[:, 0] ** 2) + 1e-9)


def test_dissipativity_examples(grad_field, grad_plan):
    lin = fl.polynomial_field(1, 1.0, q_const=0.5, drift_terms=(fl.DriftTerm(1, -1.0),))
    plan1 = fl.build_plan(1, 1.0, r_max=4.0, n_times=8, n_axis=9)
    assert hyp.check_hypotheses(lin, plan1).r0_hat == -1.0
    # grad1d: max over t, x of -3x^2 - 1 - 0.5 cos(2 pi t) = -0.5
    assert hyp.check_hypotheses(grad_field, grad_plan).r0_hat == -0.5


def test_dissipativity_matrix_drift_fd():
    def b(t, X):
        X = np.atleast_2d(X)
        return np.column_stack([-X[:, 0] + X[:, 1], -X[:, 1]])

    def q(t, X):
        X = np.atleast_2d(X)
        return np.broadcast_to(np.eye(2), (X.shape[0], 2, 2)).copy()

    field = fl.PeriodicCoefficientField(dim=2, period=1.0, q=q, b=b,
                                        q_independent_of_x=True)
    plan = fl.build_plan(2, 1.0, r_max=3.0, n_times=4, n_axis=5)
    # largest eigenvalue of sym [[-1, 1], [0, -1]] is -1 + 1/2
    assert abs(hyp.check_hypotheses(field, plan).r0_hat - (-0.5)) < 1e-9


def _synthetic_zeta_field(zeta=0.1):
    """Q = I (eta = 1), |D_k q_ij| <= zeta, b = -x (r = -1), d = 2."""

    def q(t, X):
        X = np.atleast_2d(X)
        return np.broadcast_to(np.eye(2), (X.shape[0], 2, 2)).copy()

    def grad_q(t, X):
        X = np.atleast_2d(X)
        out = np.zeros((X.shape[0], 2, 2, 2))
        out[:, 0, 0, 0] = zeta
        return out

    def b(t, X):
        return -np.atleast_2d(X)

    def grad_b(t, X):
        X = np.atleast_2d(X)
        return np.broadcast_to(-np.eye(2), (X.shape[0], 2, 2)).copy()

    return fl.PeriodicCoefficientField(dim=2, period=1.0, q=q, b=b,
                                       grad_q=grad_q, grad_b=grad_b)


def test_ell_p_formula_arithmetic():
    field = _synthetic_zeta_field(0.1)
    plan = fl.build_plan(2, 1.0, r_max=3.0, n_times=4, n_axis=5)
    # r + d^3 zeta^2 eta / (4 min(p-1, 1)) = -1 + 8 * 0.01 / 4
    ell_2 = hyp.check_hypotheses(field, plan, p_values=(2.0,)).ell_p_hat[2.0]
    assert abs(ell_2 - (-0.98)) < 1e-12


def test_ell_p_zero_case():
    field = fl.polynomial_field(1, 1.0, q_const=1.0)  # b = 0, zeta = 0
    plan = fl.build_plan(1, 1.0, r_max=3.0, n_times=4, n_axis=9)
    assert hyp.check_hypotheses(field, plan, p_values=(2.0,)).ell_p_hat[2.0] == 0.0


def test_ell_p_grad1d_equals_r0(grad_field, grad_plan):
    ells = hyp.check_hypotheses(grad_field, grad_plan, p_values=(1.5, 2.0, 4.0, 7.0)).ell_p_hat
    assert ells == {1.5: -0.5, 2.0: -0.5, 4.0: -0.5, 7.0: -0.5}


@settings(max_examples=20, deadline=None)
@given(st.floats(1.05, 1.95), st.floats(0.0, 0.9))
def test_ell_p_monotone_in_p(p_small, delta):
    field = _synthetic_zeta_field(0.1)
    plan = fl.build_plan(2, 1.0, r_max=3.0, n_times=4, n_axis=5)
    p_large = p_small + delta
    ells = hyp.check_hypotheses(field, plan, p_values=(p_small, p_large, 2.0, 2.0 + delta)).ell_p_hat
    assert ells[p_small] >= ells[p_large] - 1e-12
    # constant on [2, infinity)
    assert abs(ells[2.0] - ells[2.0 + delta]) < 1e-12


def test_ell_p_dominates_r0(gen_report):
    r0 = gen_report.r0_hat
    for p in (1.5, 2.0, 4.0):
        assert gen_report.ell_p_hat[p] >= r0
    # strict inequality since zeta > 0 for the x-dependent diffusion
    assert gen_report.ell_p_hat[2.0] > r0


def test_refinement_stability(grad_field, grad_plan, gen_field, gen_plan):
    for field, plan in ((grad_field, grad_plan), (gen_field, gen_plan)):
        base = hyp.check_hypotheses(field, plan, p_values=(2.0,))
        n_axis = round(len(plan.lattice) ** (1.0 / field.dim))
        denser = fl.build_plan(field.dim, field.period, plan.r_max, n_times=2 * len(plan.times),
                               n_axis=2 * n_axis + 1, n_shells=len(plan.shell_radii),
                               n_shell_dirs=2 * plan.shell_points.shape[1])
        fine = hyp.check_hypotheses(field, denser, p_values=(2.0,))
        for attr in ("eta0_hat", "lambda_hat", "r0_hat"):
            a, b = getattr(base, attr), getattr(fine, attr)
            assert abs(a - b) <= 0.01 * max(abs(a), abs(b), 1e-12)


def test_report_serialization(grad_report):
    import json

    payload = json.loads(json.dumps(grad_report.to_jsonable()))
    assert payload["eta0_hat"] == 0.75
    assert payload["lambda_hat"] == 1.25
    assert payload["r0_hat"] == -0.5
    assert payload["lyapunov"]["accepted"] is True
    assert payload["ell_p_hat"]["2.0"] == -0.5
    assert grad_report.eta0_hat <= grad_report.lambda_hat
    # zeta == 0 forces ell_p == r0 for every recorded p
    assert all(v == grad_report.r0_hat for v in grad_report.ell_p_hat.values())


def test_zeta_requires_diffusion_gradient():
    base = fl.gen_field()
    bare = fl.PeriodicCoefficientField(dim=2, period=1.0, q=base.q, b=base.b,
                                       grad_b=base.grad_b, name="bare-gen")
    plan = fl.build_plan(2, 1.0, r_max=3.0, n_times=4, n_axis=5)
    with pytest.raises(MissingGradient):
        hyp.check_hypotheses(bare, plan, p_values=(2.0,))


def _counted(field):
    """The field with every coefficient callable it has wrapped in a call counter."""
    calls = Counter()

    def wrap(name, fn):
        def counted(t, X):
            calls[name] += 1
            return fn(t, X)
        return counted

    names = [n for n in ("q", "b", "grad_b", "grad_q") if getattr(field, n) is not None]
    return dataclasses.replace(field, **{n: wrap(n, getattr(field, n)) for n in names}), calls


def test_one_pass_reads_each_coefficient_once_per_time(gen_field, gen_plan, grad_field, grad_plan):
    counted, calls = _counted(gen_field)
    hyp.check_hypotheses(counted, gen_plan)
    nt = len(gen_plan.times)
    assert dict(calls) == {"q": nt, "b": nt, "grad_b": nt, "grad_q": nt}
    # x-independent Q: a diffusion gradient, even when present, is never read
    spy = dataclasses.replace(grad_field, grad_q=lambda t, X: np.zeros((len(X), 1, 1, 1)))
    counted, calls = _counted(spy)
    hyp.check_hypotheses(counted, grad_plan)
    nt = len(grad_plan.times)
    assert dict(calls) == {"q": nt, "b": nt, "grad_b": nt}


def test_faults_raise_in_order():
    """Indefinite Q first, then a missing diffusion gradient, then p <= 1 with
    zeta > 0, then drift overflow, whichever other faults the field has."""

    def q(t, X):
        # diag(1, 1 - |x|^2 / 2): x-dependent, indefinite beyond |x| = sqrt 2
        X = np.atleast_2d(X)
        out = np.zeros((len(X), 2, 2))
        out[:, 0, 0] = 1.0
        out[:, 1, 1] = 1.0 - 0.5 * np.sum(X * X, axis=1)
        return out

    def b(t, X):
        # overflows on the x-axis far out
        X = np.atleast_2d(X)
        out = -X.copy()
        out[np.abs(X[:, 0]) > 2.5, 0] = np.inf
        return out

    def grad_b(t, X):
        return np.broadcast_to(-np.eye(2), (len(X), 2, 2)).copy()

    plan = fl.build_plan(2, 1.0, r_max=3.0, n_times=4, n_axis=5)
    faulty = fl.PeriodicCoefficientField(dim=2, period=1.0, q=q, b=b, grad_b=grad_b)
    with pytest.raises(NonPositiveDefinite) as exc:
        hyp.check_hypotheses(faulty, plan, p_values=(1.0,))
    # reported at the smallest eigenvalue over the plan: a lattice corner
    assert exc.value.smallest_eigenvalue == -8.0
    assert np.abs(exc.value.x).tolist() == [3.0, 3.0]
    gen = fl.gen_field()
    elliptic = dataclasses.replace(gen, b=b, grad_b=grad_b, grad_q=None)
    with pytest.raises(MissingGradient):
        hyp.check_hypotheses(elliptic, plan, p_values=(1.0,))
    with pytest.raises(ValueError, match="p > 1"):
        hyp.check_hypotheses(dataclasses.replace(elliptic, grad_q=gen.grad_q), plan,
                             p_values=(2.0, 1.0))
    with pytest.raises(UnboundedDrift, match="drift overflow"):
        hyp.check_hypotheses(dataclasses.replace(elliptic, grad_q=gen.grad_q), plan)
