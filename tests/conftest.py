"""Shared fixtures: fields, engines, and cached heavy computations.

Everything here is deterministic (counter-based RNG streams), so fixture
values are bit-stable across runs and safe to share between test modules.
"""

from __future__ import annotations

import pytest

from periodiclab import engines as eng
from periodiclab import fields as fl
from periodiclab import grid as gridmod
from periodiclab import hypotheses as hyp
from periodiclab import montecarlo as mc
from periodiclab import ougaussian as ou
from periodiclab import scenarios as sc

# the phases a shipped builtin's Monte Carlo experiments integrate over
EIGHT_PHASES = [k / 8 for k in range(8)]


@pytest.fixture(scope="session")
def ou_model():
    return sc.build_field(sc.load_scenario("ou1d")["field"])[1]


@pytest.fixture(scope="session")
def ou_field(ou_model):
    return ou.as_field(ou_model)


@pytest.fixture(scope="session")
def grad_field():
    return fl.grad1d_field()


@pytest.fixture(scope="session")
def gen_field():
    return fl.gen_field()


@pytest.fixture(scope="session")
def ou_plan(ou_field):
    return fl.build_plan(1, ou_field.period, r_max=6.0, n_times=64, n_axis=41, n_shell_dirs=2)


@pytest.fixture(scope="session")
def grad_plan(grad_field):
    return fl.build_plan(1, grad_field.period, r_max=6.0, n_times=64, n_axis=41, n_shell_dirs=2)


@pytest.fixture(scope="session")
def gen_plan(gen_field):
    return fl.build_plan(2, gen_field.period, r_max=5.0, n_times=32, n_axis=11)


@pytest.fixture(scope="session")
def ou_report(ou_field, ou_plan):
    return hyp.check_hypotheses(ou_field, ou_plan)


@pytest.fixture(scope="session")
def grad_report(grad_field, grad_plan):
    return hyp.check_hypotheses(grad_field, grad_plan)


@pytest.fixture(scope="session")
def gen_report(gen_field, gen_plan):
    return hyp.check_hypotheses(gen_field, gen_plan)


@pytest.fixture(scope="session")
def ou_engine(ou_model):
    return eng.OUExactEngine(ou_model, order=60)


@pytest.fixture(scope="session")
def ou_mc(ou_field, ou_report):
    config = mc.SimConfig(n_particles=20000, dt=0.004, seed=20260811,
                          horizon_periods=18, antithetic=True)
    return eng.MonteCarloEngine(ou_field, config, n_outer=128, n_inner=1024,
                                certificate=ou_report.lyapunov, phases=EIGHT_PHASES)


@pytest.fixture(scope="session")
def grad_mc(grad_field, grad_report):
    config = mc.SimConfig(n_particles=30000, dt=0.008, seed=20260812,
                          horizon_periods=16, antithetic=True)
    return eng.MonteCarloEngine(grad_field, config, n_outer=128, n_inner=8192,
                                certificate=grad_report.lyapunov, phases=EIGHT_PHASES)


@pytest.fixture(scope="session")
def gen_mc(gen_field, gen_report):
    config = mc.SimConfig(n_particles=20000, dt=0.004, seed=20260813,
                          horizon_periods=10, antithetic=True)
    return eng.MonteCarloEngine(gen_field, config, n_outer=128, n_inner=1024,
                                certificate=gen_report.lyapunov, phases=EIGHT_PHASES)


@pytest.fixture(scope="session")
def battery1():
    return eng.battery()


@pytest.fixture(scope="session")
def decay_battery1(battery1):
    return [phi for phi in battery1 if phi.fid != "const"]


@pytest.fixture(scope="session")
def ou_grid():
    return gridmod.SpaceTimeGrid(half_width=4.5, points_per_axis=63, time_slices=33,
                                 period=1.0)


@pytest.fixture(scope="session")
def grad_grid():
    return gridmod.SpaceTimeGrid(half_width=3.0, points_per_axis=63, time_slices=33,
                                 period=1.0)


@pytest.fixture(scope="session")
def ou_generator(ou_field, ou_grid):
    return gridmod.build_generator(ou_field, ou_grid, "spectral")


@pytest.fixture(scope="session")
def grad_generator(grad_field, grad_grid):
    return gridmod.build_generator(grad_field, grad_grid, "spectral")


@pytest.fixture(scope="session")
def ou_spectrum(ou_generator):
    return gridmod.spectrum(ou_generator, k=40)


@pytest.fixture(scope="session")
def grad_spectrum(grad_generator):
    return gridmod.spectrum(grad_generator, k=40)


@pytest.fixture(scope="session")
def grad_heavy_profile(grad_mc, decay_battery1):
    """Shared grad1d Monte Carlo transfer profile over 8 periods (the most
    expensive object in the suite; reused by decay, envelope, and acceptance
    checks)."""
    horizons = [1, 1.25, 1.5, 1.75, 2, 2.25, 2.5, 3, 4, 6, 8]
    return grad_mc.transfer_profile(decay_battery1, 0.0, horizons)


@pytest.fixture(scope="session")
def grad_gradient_profile(grad_mc, decay_battery1):
    phis = [phi for phi in decay_battery1 if phi.fid in ("coord0", "tanh", "sin", "ratio")]
    horizons = [1, 1.25, 1.5, 1.75, 2, 2.5, 3]
    return phis, grad_mc.transfer_profile(phis, 0.0, horizons, gradients=True)
