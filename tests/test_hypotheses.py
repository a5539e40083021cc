"""Hypothesis checkers against closed-form and brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from periodiclab import fields as fl
from periodiclab import hypotheses as hyp
from periodiclab.errors import NonPositiveDefinite


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
    eta0, lam = hyp.ellipticity_bounds(field, plan)
    assert eta0 == 2.0 and lam == 3.0


def test_ellipticity_oscillating_vs_dense_grid_oracle():
    field = fl.polynomial_field(1, 1.0, q_const=1.0, q_sin=0.25,
                                drift_terms=(fl.DriftTerm(1, -1.0),))
    # independent oracle: extremize the scalar coefficient over a 1e4 grid
    tgrid = np.arange(10000) / 10000.0
    vals = 1.0 + 0.25 * np.sin(2 * np.pi * tgrid)
    oracle = (vals.min(), vals.max())
    assert oracle == (0.75, 1.25)
    plan = fl.build_plan(1, 1.0, r_max=5.0, n_times=64, n_axis=9)
    eta0, lam = hyp.ellipticity_bounds(field, plan)
    assert (eta0, lam) == oracle


def test_ellipticity_degenerate_raises():
    field = _const_matrix_field([[0.0]])
    plan = fl.build_plan(1, 1.0, r_max=2.0, n_times=4, n_axis=5)
    with pytest.raises(NonPositiveDefinite):
        hyp.ellipticity_bounds(field, plan)


def test_lyapunov_linear_drift_certificate():
    # Q = 1/2, b = -x: L(1 + x^2) = 1 - 2 x^2 = 3 - 2 V exactly
    field = fl.polynomial_field(1, 1.0, q_const=0.5, drift_terms=(fl.DriftTerm(1, -1.0),))
    plan = fl.build_plan(1, 1.0, r_max=5.0, n_times=8, n_axis=21)
    res = hyp.lyapunov_check(field, plan)
    assert res.accepted
    assert res.c == 2.0
    assert abs(res.a - 3.0) < 1e-12
    assert abs(res.moment_bound() - 2.5) < 1e-12


def test_lyapunov_antidissipative_violations():
    field = fl.polynomial_field(1, 1.0, q_const=0.5, drift_terms=(fl.DriftTerm(1, 1.0),))
    plan = fl.build_plan(1, 1.0, r_max=5.0, n_times=8, n_axis=21)
    res = hyp.lyapunov_check(field, plan)
    assert not res.accepted
    assert res.violations
    t, x, quantity, value = res.violations[0]
    assert quantity == "LV+cV" and value > 0


def test_lyapunov_grad1d_accepts(grad_field, grad_plan):
    res = hyp.lyapunov_check(grad_field, grad_plan)
    assert res.accepted and res.a > 0 and res.c > 0
    # brute oracle on the same samples: the certificate must actually hold
    pts = grad_plan.points
    for t in grad_plan.times[::8]:
        av, v = hyp._lyapunov_terms(grad_field, t, pts)
        assert np.all(av <= res.a - res.c * v + 1e-9)


def test_dissipativity_examples(grad_field, grad_plan):
    lin = fl.polynomial_field(1, 1.0, q_const=0.5, drift_terms=(fl.DriftTerm(1, -1.0),))
    plan1 = fl.build_plan(1, 1.0, r_max=4.0, n_times=8, n_axis=9)
    assert hyp.dissipativity_r0(lin, plan1) == -1.0
    # grad1d: max over t, x of -3x^2 - 1 - 0.5 cos(2 pi t) = -0.5
    assert hyp.dissipativity_r0(grad_field, grad_plan) == -0.5


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
    assert abs(hyp.dissipativity_r0(field, plan) - (-0.5)) < 1e-9


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
    assert abs(hyp.ell_p(field, plan, 2.0) - (-0.98)) < 1e-12


def test_ell_p_zero_case():
    field = fl.polynomial_field(1, 1.0, q_const=1.0)  # b = 0, zeta = 0
    plan = fl.build_plan(1, 1.0, r_max=3.0, n_times=4, n_axis=9)
    assert hyp.ell_p(field, plan, 2.0) == 0.0


def test_ell_p_grad1d_equals_r0(grad_field, grad_plan):
    for p in (1.5, 2.0, 4.0, 7.0):
        assert hyp.ell_p(grad_field, grad_plan, p) == -0.5


@settings(max_examples=20, deadline=None)
@given(st.floats(1.05, 1.95), st.floats(0.0, 0.9))
def test_ell_p_monotone_in_p(p_small, delta):
    field = _synthetic_zeta_field(0.1)
    plan = fl.build_plan(2, 1.0, r_max=3.0, n_times=4, n_axis=5)
    p_large = p_small + delta
    assert hyp.ell_p(field, plan, p_small) >= hyp.ell_p(field, plan, p_large) - 1e-12
    # constant on [2, infinity)
    assert abs(hyp.ell_p(field, plan, 2.0) - hyp.ell_p(field, plan, 2.0 + delta)) < 1e-12


def test_ell_p_dominates_r0(gen_field, gen_plan):
    r0 = hyp.dissipativity_r0(gen_field, gen_plan)
    for p in (1.5, 2.0, 4.0):
        assert hyp.ell_p(gen_field, gen_plan, p) >= r0
    # strict inequality since zeta > 0 for the x-dependent diffusion
    assert hyp.ell_p(gen_field, gen_plan, 2.0) > r0


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
    from periodiclab.errors import MissingGradient

    base = fl.gen_field()
    bare = fl.PeriodicCoefficientField(dim=2, period=1.0, q=base.q, b=base.b,
                                       grad_b=base.grad_b, name="bare-gen")
    plan = fl.build_plan(2, 1.0, r_max=3.0, n_times=4, n_axis=5)
    with pytest.raises(MissingGradient):
        hyp.ell_p(bare, plan, 2.0)
