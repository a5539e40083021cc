"""Coefficient-field invariants and sample-plan construction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from periodiclab import fields as fl


@settings(max_examples=25, deadline=None)
@given(st.floats(-3.0, 3.0), st.floats(-4.0, 4.0))
def test_grad1d_periodicity_pointwise(t, x):
    f = fl.grad1d_field()
    pts = np.array([[x]])
    assert np.allclose(f.q(t, pts), f.q(t + f.period, pts), rtol=1e-12, atol=1e-12)
    assert np.allclose(f.b(t, pts), f.b(t + f.period, pts), rtol=1e-12, atol=1e-12)


def test_periodicity_and_symmetry_on_plans(grad_field, grad_plan, gen_field, gen_plan):
    for field, plan in ((grad_field, grad_plan), (gen_field, gen_plan)):
        pts = plan.points
        for t in plan.times:
            q0, q1 = np.asarray(field.q(t, pts)), np.asarray(field.q(t + field.period, pts))
            b0, b1 = np.asarray(field.b(t, pts)), np.asarray(field.b(t + field.period, pts))
            assert np.abs(q1 - q0).max() <= 1e-12 * np.abs(q0).max()
            assert np.abs(b1 - b0).max() <= 1e-12 * max(np.abs(b0).max(), 1e-30)
            assert np.abs(q0 - np.swapaxes(q0, 1, 2)).max() <= 1e-12 * np.abs(q0).max()


def test_grad1d_values():
    f = fl.grad1d_field()
    pts = np.array([[2.0]])
    # Q(0.25) = 1.25, b(0, 2) = -8 - (1 + 0.5) * 2 = -11
    assert np.isclose(f.q(0.25, pts)[0, 0, 0], 1.25)
    assert np.isclose(f.b(0.0, pts)[0, 0], -11.0)
    jac = f.grad_b(0.5, pts)
    # d/dx b = -3 x^2 - (1 + 0.5 cos(pi)) = -12 - 0.5
    assert np.isclose(jac[0, 0, 0], -12.5)


def test_gen_field_gradq_matches_fd(gen_field):
    t = 0.3
    pts = np.array([[0.7, -0.4], [1.2, 0.1]])
    analytic = np.asarray(gen_field.grad_q(t, pts))
    h = 1e-6
    for k in range(2):
        step = np.zeros_like(pts)
        step[:, k] = h
        fd = (np.asarray(gen_field.q(t, pts + step)) - np.asarray(gen_field.q(t, pts - step))) / (2 * h)
        assert np.allclose(analytic[:, k], fd, atol=1e-7)


def test_grad_b_finite_difference_fallback():
    base = fl.grad1d_field()
    bare = fl.PeriodicCoefficientField(
        dim=1, period=1.0, q=base.q, b=base.b, name="bare")
    pts = np.array([[0.5], [-1.0]])
    fd = bare.grad_b_at(0.2, pts)
    exact = base.grad_b_at(0.2, pts)
    assert np.allclose(fd, exact, atol=1e-8)


def test_plan_shapes_and_refinement():
    plan = fl.build_plan(2, 1.0, r_max=4.0, n_times=8, n_axis=5, n_shells=3, n_shell_dirs=8)
    assert plan.lattice.shape == (25, 2)
    assert plan.shell_points.shape == (3, 8, 2)
    assert np.isclose(plan.shell_radii[-1], 4.0)
    assert np.allclose(np.linalg.norm(plan.shell_points[-1], axis=1), 4.0)
    with pytest.raises(ValueError):
        fl.SamplePlan(times=np.array([]), lattice=plan.lattice,
                      shell_radii=plan.shell_radii, shell_points=plan.shell_points,
                      r_max=4.0)


def test_phase_canonicalization(grad_field):
    assert grad_field.phase(1.25) == grad_field.phase(0.25)
    assert 0.0 <= grad_field.phase(-0.3) < grad_field.period


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_gen_field_q_matches_broadcast_formula(dim):
    """Q(t, x) = (1 + 0.1 sin(2 pi t) + 0.25 / (1 + |x|^2)) I, bit for bit."""
    f = fl.gen_field(dim=dim)
    X = 3.0 * np.random.default_rng(dim).standard_normal((500, dim))
    for t in (0.0, 0.3, 0.77):
        scalar = 1.0 + 0.1 * math.sin(2.0 * np.pi * t) + 0.25 / (1.0 + np.sum(X * X, axis=1))
        assert np.array_equal(f.q(t, X), scalar[:, None, None] * np.eye(dim))
