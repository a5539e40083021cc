"""Stochastic engine against exact transition laws and pathwise bounds."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from periodiclab import diagnostics as dg
from periodiclab import engines as eng
from periodiclab import fields as fl
from periodiclab import hypotheses as hyp
from periodiclab import montecarlo as mc
from periodiclab import ougaussian as ou
from periodiclab.errors import Blowup, NonPositiveDefinite, NotDissipative, QNotXIndependent

import reference as ref


def brownian_field():
    return fl.polynomial_field(1, 1.0, q_const=0.5, name="bm")


def stream_key(seed, name):
    """The Philox key of the stream ``name`` by the documented rule, derived
    here without ``mc.generator``: each part of the name is one spawn-key
    word (a string's UTF-8 bytes read little-endian, a float's IEEE-754
    bits, an integer itself), and the key is the first two 64-bit words the
    ``SeedSequence`` of the seed mod 2**64 and those words generates."""
    words = []
    for part in name:
        if isinstance(part, str):
            words.append(sum(byte << (8 * j) for j, byte in enumerate(part.encode("utf-8"))))
        elif isinstance(part, float):
            words.append(int(np.array(part, dtype="<f8").view("<u8")))
        else:
            words.append(int(part))
    return np.random.SeedSequence(seed % 2**64, spawn_key=words).generate_state(2, np.uint64)


def reference_march(field, positions, jacobians, s, capture_times, config, stream, blocks=1):
    """Plain Euler-Maruyama loop with the arithmetic ``mc._march`` must reproduce.

    The particles form ``blocks`` equal blocks; block b draws the normals of
    its first half, rounded up, from the stream ``stream + (b,)`` and gives
    the rest their mirrors.  One Philox call per block and step,
    out-of-place ``x + dt*b + noise``, the 2x2 noise factor as a lower
    Cholesky (n, 2, 2) stack, einsum noise and an einsum Jacobian update.
    Each segment takes ``floor((target - r)/dt + 1e-9)`` full steps and then one partial step
    when more than ``1e-9 dt`` is left.  The SPD sampling check is left out:
    it changes no number.
    """
    n, d = positions.shape
    m = n // blocks
    assert m * blocks == n
    gens = [np.random.Generator(np.random.Philox(key=stream_key(config.seed, (*stream, blk))))
            for blk in range(blocks)]

    def draw():
        out = np.empty((n, d))
        for blk, gen in enumerate(gens):
            lo, hi = blk * m, blk * m + m
            half = (m + 1) // 2
            z = gen.standard_normal((half, d))
            out[lo : lo + half] = z
            out[lo + half : hi] = -z[: m - half]
        return out

    def sqrt_spd(mats):
        if d == 1:
            return np.sqrt(mats)
        if d == 2:
            out = np.zeros_like(mats)
            out[:, 0, 0] = np.sqrt(mats[:, 0, 0])
            out[:, 1, 0] = mats[:, 1, 0] / out[:, 0, 0]
            out[:, 1, 1] = np.sqrt(np.maximum(mats[:, 1, 1] - out[:, 1, 0] ** 2, 0.0))
            return out
        w, v = np.linalg.eigh(mats)
        return (v * np.sqrt(np.clip(w, 0.0, None))[:, None, :]) @ np.swapaxes(v, -1, -2)

    def noise(r, x, z, sqrt_dt):
        if field.q_independent_of_x:
            sig = sqrt_spd((2.0 * field.q(r, np.zeros((1, d)))[0])[None])[0]
            return sqrt_dt * z @ sig.T
        return sqrt_dt * np.einsum("nij,nj->ni", sqrt_spd(2.0 * field.q(r, x)), z)

    x = positions.copy()
    jac = None if jacobians is None else jacobians.copy()
    out = []
    r = s
    for target in sorted(set(capture_times)):
        n_full = math.floor((target - r) / config.dt + 1e-9)
        rest = (target - r) - n_full * config.dt
        for dt in [config.dt] * n_full + ([rest] if rest > 1e-9 * config.dt else []):
            z = draw()
            if jac is not None:
                jac = jac + dt * np.einsum("nij,njk->nik", field.grad_b_at(r, x), jac)
            x = x + dt * field.b(r, x) + noise(r, x, z, math.sqrt(dt))
            r = r + dt
            peak = np.abs(x).max()
            if not np.isfinite(peak) or peak > mc.OVERFLOW_GUARD:
                raise Blowup(r, float(peak))
        r = target
        out.append((target, x.copy(), None if jac is None else jac.copy()))
    return out


def nan_drift_field():
    """Stable 1-d field whose drift turns NaN from t = 0.5 on."""
    def b(t, X):
        return -np.atleast_2d(X) + (np.nan if t >= 0.5 else 0.0)

    return fl.PeriodicCoefficientField(
        dim=1, period=1.0, q=lambda t, X: np.full((len(np.atleast_2d(X)), 1, 1), 0.5),
        b=b, q_independent_of_x=True, name="nan-drift")


def tilted_field(q00=lambda t, r2: 1.0 + 0.2 * math.sin(2.0 * math.pi * t) + 0.3 / (1.0 + r2)):
    """2-d field whose Q(t, x) has an x-dependent off-diagonal entry.

    Q = [[q00, c], [c, 0.8 + 0.1 cos(2 pi t)]] with c = 0.4 x0 x1 / (1 + |x|^2),
    so |c| <= 0.2, and b = -(2 + 0.5 cos(2 pi t)) x.  With the default q00 >= 0.8
    Q is SPD everywhere.
    """
    def q(t, X):
        X = np.atleast_2d(X)
        r2 = X[:, 0] ** 2 + X[:, 1] ** 2
        out = np.empty((len(X), 2, 2))
        out[:, 0, 0] = q00(t, r2)
        out[:, 0, 1] = out[:, 1, 0] = 0.4 * X[:, 0] * X[:, 1] / (1.0 + r2)
        out[:, 1, 1] = 0.8 + 0.1 * math.cos(2.0 * math.pi * t)
        return out

    def b(t, X):
        return -(2.0 + 0.5 * math.cos(2.0 * math.pi * t)) * np.atleast_2d(X)

    return fl.PeriodicCoefficientField(dim=2, period=1.0, q=q, b=b, name="tilted")


def random_spd_2x2(n, seed):
    m = np.random.default_rng(seed).standard_normal((n, 2, 2))
    return m @ np.swapaxes(m, 1, 2) + 0.05 * np.eye(2)


class TestEvolve:
    def test_brownian_variance(self):
        config = mc.SimConfig(n_particles=40000, dt=0.005, seed=7)
        ens = ref.evolve(brownian_field(), ref.point_mass(0.0, 40000), 0.0, 1.0, config)
        var = ens.positions[:, 0].var(ddof=1)
        se = math.sqrt(2.0 / ens.n)  # stderr of the variance of a unit normal
        assert abs(var - 1.0) <= 4 * se

    def test_ou_mean_against_propagator(self, ou_model, ou_field):
        config = mc.SimConfig(n_particles=40000, dt=0.0025, seed=8)
        ens = ref.evolve(ou_field, ref.point_mass(2.0, 40000), 0.0, 1.0, config)
        mean, se = mc.mean_and_stderr(ens.positions[:, 0])
        expected = 2.0 * ref.propagator(ou_model, 1.0, 0.0)[0, 0]
        assert abs(mean - expected) <= 4 * se + 2e-3

    def test_blowup_guard(self):
        # particles leaving upwards, downwards, and a drift that turns NaN at t = 0.5
        explode = fl.polynomial_field(1, 1.0, q_const=0.5,
                                      drift_terms=(fl.DriftTerm(3, 1.0),), name="explode")
        config = mc.SimConfig(n_particles=200, dt=0.02, seed=0)
        for field, x0 in ((explode, 3.0), (explode, -3.0), (nan_drift_field(), 0.0)):
            with pytest.raises(Blowup) as got:
                ref.evolve(field, ref.point_mass(x0, 200), 0.0, 5.0, config)
            with pytest.raises(Blowup) as want:
                reference_march(field, ref.point_mass(x0, 200).positions, None, 0.0, [5.0],
                                config, ("evolve",))
            assert got.value.t == want.value.t
            assert np.array_equal(got.value.max_abs, want.value.max_abs, equal_nan=True)
            if field is explode:
                assert got.value.max_abs > mc.OVERFLOW_GUARD
            else:
                assert got.value.t >= 0.5 and math.isnan(got.value.max_abs)

    def test_q_negative_between_spd_checks(self):
        # Q(t) = 0.9 + sin(2 pi t) is negative only on (0.68, 0.82), between the
        # sampled SPD checks at t = 0 and 0.63: the NaN noise must end as Blowup
        field = fl.polynomial_field(1, 1.0, q_const=0.9, q_sin=1.0, name="q-dips")
        config = mc.SimConfig(n_particles=100, dt=0.01, seed=0)
        with np.errstate(invalid="ignore"), pytest.raises(Blowup) as got:
            ref.evolve(field, ref.point_mass(0.0, 100), 0.0, 1.0, config)
        assert 0.68 < got.value.t < 0.83 and math.isnan(got.value.max_abs)

    def test_q_indefinite_2d_between_spd_checks(self):
        # q00 = 0.9 + sin(2 pi t) + 0.05 / (1 + |x|^2) with an x-dependent
        # off-diagonal entry: q00 < 0, so Q is indefinite, only inside (0.68, 0.82),
        # between the SPD checks at t = 0 and 0.63; l00 turns NaN and the march
        # ends as Blowup, not as a ValueError or finite noise
        field = tilted_field(lambda t, r2: 0.9 + math.sin(2.0 * math.pi * t) + 0.05 / (1.0 + r2))
        config = mc.SimConfig(n_particles=100, dt=0.01, seed=0)
        with np.errstate(invalid="ignore"), pytest.raises(Blowup) as got:
            ref.evolve(field, ref.point_mass([0.3, -0.2], 100), 0.0, 1.0, config)
        assert 0.68 < got.value.t < 0.83 and math.isnan(got.value.max_abs)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_q_indefinite_in_last_entry_between_spd_checks(self, dim):
        # Q = diag(1, ..., 1, q_last) with q_last = 0.9 + sin(2 pi t), plus
        # 0.05 / (1 + |x|^2) in 2-d so Q depends on x there: q00 stays 1 while
        # q_last < 0 inside (0.68, 0.82), between the SPD checks at t = 0 and
        # 0.63; l11 (2-d) or the negative eigenvalue's root (3-d) turns NaN and
        # the march ends as Blowup, not with finite noise
        def q(t, X):
            X = np.atleast_2d(X)
            out = np.broadcast_to(np.eye(dim), (len(X), dim, dim)).copy()
            out[:, -1, -1] = 0.9 + math.sin(2.0 * math.pi * t)
            if dim == 2:
                out[:, -1, -1] += 0.05 / (1.0 + np.sum(X * X, axis=1))
            return out

        field = fl.PeriodicCoefficientField(dim=dim, period=1.0, q=q,
                                            b=lambda t, X: -np.atleast_2d(X),
                                            q_independent_of_x=dim == 3, name="q-last-dips")
        config = mc.SimConfig(n_particles=100, dt=0.01, seed=0)
        with np.errstate(invalid="ignore"), pytest.raises(Blowup) as got:
            ref.evolve(field, ref.point_mass(np.full(dim, 0.3), 100), 0.0, 1.0, config)
        assert 0.68 < got.value.t < 0.83 and math.isnan(got.value.max_abs)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_isotropic_q_negative_between_spd_checks(self, dim):
        # q = 0.9 + sin(2 pi t) + 0.05 / (1 + |x|^2) is negative only inside
        # (0.68, 0.82), between the SPD checks at t = 0 and 0.63: the root per
        # particle turns NaN and the march ends as Blowup, as on the matrix path
        field = fl.gen_field(dim=dim, q_const=0.9, q_sin=1.0, q_bump=0.05)
        config = mc.SimConfig(n_particles=100, dt=0.01, seed=0)
        x0 = ref.point_mass(np.full(dim, 0.3), 100)
        ends = []
        for f in (field, dataclasses.replace(field, q_scalar=None)):
            with np.errstate(invalid="ignore"), pytest.raises(Blowup) as got:
                ref.evolve(f, x0, 0.0, 1.0, config)
            ends.append(got.value)
        scalar, matrix = ends
        assert 0.68 < scalar.t < 0.83 and math.isnan(scalar.max_abs)
        assert scalar.t == matrix.t and math.isnan(matrix.max_abs)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_isotropic_q_negative_at_spd_check(self, dim):
        # q = 0.7 + sin(2 pi t) + 0.01 / (1 + |x|^2) is positive at every step
        # up to r = 0.62 and negative at the step-64 check, r = 0.63: the check
        # names the sampled point and its q, as the eigenvalue check does
        field = fl.gen_field(dim=dim, q_const=0.7, q_sin=1.0, q_bump=0.01)
        config = mc.SimConfig(n_particles=100, dt=0.01, seed=0)
        x0 = ref.point_mass(np.full(dim, 0.3), 100)
        errors = []
        for f in (field, dataclasses.replace(field, q_scalar=None)):
            with pytest.raises(NonPositiveDefinite) as got:
                ref.evolve(f, x0, 0.0, 1.0, config)
            errors.append(got.value)
        scalar, matrix = errors
        assert 0.625 < scalar.t < 0.635
        value = scalar.smallest_eigenvalue
        assert value < 0.0 and value == field.q_scalar(scalar.t, scalar.x[None])[0]
        assert (scalar.t, value) == (matrix.t, matrix.smallest_eigenvalue)
        assert np.array_equal(scalar.x, matrix.x)
        assert f"x={scalar.x}" in str(scalar) and f"lambda_min={value:.3e}" in str(scalar)

    def test_time_stamp_mismatch(self, ou_field):
        config = mc.SimConfig(n_particles=100, dt=0.01, seed=0)
        with pytest.raises(ValueError):
            ref.evolve(ou_field, ref.point_mass(0.0, 100, t=0.5), 0.0, 1.0, config)

    def test_dt_guard(self, ou_field):
        config = mc.SimConfig(n_particles=100, dt=0.05, seed=0)
        with pytest.raises(ValueError):
            ref.evolve(ou_field, ref.point_mass(0.0, 100), 0.0, 1.0, config)

    def test_seeded_determinism(self, ou_field):
        config = mc.SimConfig(n_particles=500, dt=0.01, seed=42)
        a = ref.evolve(ou_field, ref.point_mass(1.0, 500), 0.0, 0.7, config)
        b = ref.evolve(ou_field, ref.point_mass(1.0, 500), 0.0, 0.7, config)
        assert np.array_equal(a.positions, b.positions)

    def test_partial_final_step(self, ou_field):
        config = mc.SimConfig(n_particles=200, dt=0.01, seed=1)
        ens = ref.evolve(ou_field, ref.point_mass(0.0, 200), 0.0, 0.105, config)
        assert ens.t == 0.105


class TestMarchMatchesReference:
    """``_march`` keeps the Philox streams, draw order and arithmetic of the plain loop."""

    @staticmethod
    def assert_same(field, x0, jac0, s, captures, config, stream=("march",), blocks=1):
        # the march yields its live state: copy each capture before resuming
        got = [(t, x.copy(), None if jac is None else jac.copy())
               for t, x, jac in mc._march(field, x0, jac0, s, captures, config, stream, blocks)]
        want = reference_march(field, x0, jac0, s, captures, config, stream, blocks)
        assert len(got) == len(want)
        for (t_a, x_a, j_a), (t_b, x_b, j_b) in zip(got, want):
            assert t_a == t_b
            assert np.array_equal(x_a, x_b)
            assert (j_a is None and j_b is None) or np.array_equal(j_a, j_b)

    def test_polynomial_1d_value(self, grad_field):
        config = mc.SimConfig(n_particles=600, dt=0.01, seed=21)
        x0 = np.linspace(-2.0, 2.0, 600)[:, None]
        self.assert_same(grad_field, x0, None, 0.1, [0.55, 1.3], config, blocks=3)

    def test_polynomial_1d_tangent(self, grad_field):
        config = mc.SimConfig(n_particles=600, dt=0.01, seed=22)
        x0 = np.linspace(-2.0, 2.0, 600)[:, None]
        self.assert_same(grad_field, x0, np.ones((600, 1, 1)), 0.0, [0.4, 1.0], config, blocks=3)

    def test_polynomial_2d_tangent(self):
        field = fl.polynomial_field(2, 1.0, q_const=0.7, q_sin=0.2,
                                    drift_terms=(fl.DriftTerm(3, -1.0), fl.DriftTerm(1, -0.5)))
        config = mc.SimConfig(n_particles=300, dt=0.01, seed=23)
        x0 = np.random.default_rng(3).standard_normal((300, 2))
        jac0 = np.broadcast_to(np.eye(2), (300, 2, 2)).copy()
        self.assert_same(field, x0, jac0, 0.0, [0.6], config, blocks=2)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_gen_field_x_dependent_q(self, dim):
        config = mc.SimConfig(n_particles=800, dt=0.01, seed=24)
        x0 = np.random.default_rng(4).standard_normal((800, dim))
        self.assert_same(fl.gen_field(dim=dim), x0, None, 0.0, [0.5, 1.0], config, blocks=2)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(dim=st.integers(1, 2), q_const=st.floats(0.2, 1.5), q_sin=st.floats(-0.15, 0.15),
           powers=st.lists(st.sampled_from([1, 3, 5]), min_size=1, max_size=3),
           rate=st.floats(0.1, 1.5), block_size=st.integers(16, 96),
           n_blocks=st.integers(1, 3),
           offsets=st.lists(st.floats(0.0, 0.4), min_size=1, max_size=3))
    def test_tangent_march_property(self, dim, q_const, q_sin, powers, rate, block_size,
                                    n_blocks, offsets):
        # polynomial fields carry Jacobians through equal blocks of odd and
        # even size, with captures anywhere, the start time included; the
        # drift stays dissipative and the start near the origin, so no march
        # blows up
        terms = tuple(fl.DriftTerm(p, -rate / k, cos=0.2 * rate / k)
                      for k, p in enumerate(powers, 1))
        field = fl.polynomial_field(dim, 1.0, q_const=q_const, q_sin=q_sin, drift_terms=terms)
        n = n_blocks * block_size
        # the march reads n from x0; n_particles only has to pass its floor
        config = mc.SimConfig(n_particles=max(n, 100), dt=0.01, seed=32)
        rng = np.random.default_rng(10)
        x0 = 0.5 * rng.standard_normal((n, dim))
        jac0 = np.eye(dim) + 0.3 * rng.standard_normal((n, dim, dim))
        self.assert_same(field, x0, jac0, 0.3, [0.3 + off for off in offsets], config,
                         blocks=n_blocks)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(dim=st.integers(1, 3), floor=st.floats(0.05, 1.0), q_sin=st.floats(-1.0, 1.0),
           q_bump=st.floats(-0.5, 1.0), block_size=st.integers(16, 128),
           n_blocks=st.integers(1, 3),
           offsets=st.lists(st.floats(0.0, 0.4), min_size=1, max_size=3))
    def test_isotropic_march_property(self, dim, floor, q_sin, q_bump, block_size, n_blocks,
                                      offsets):
        # the one-root-per-particle noise of an isotropic Q reproduces the
        # reference's Cholesky (d = 2) and eigh (d = 3) arithmetic bit for bit;
        # q_const keeps Q elliptic, blocks are equal, captures land anywhere
        n = n_blocks * block_size
        field = fl.gen_field(dim=dim, q_const=floor + abs(q_sin) - min(q_bump, 0.0),
                             q_sin=q_sin, q_bump=q_bump)
        config = mc.SimConfig(n_particles=max(n, 100), dt=0.01, seed=31)
        x0 = np.random.default_rng(9).standard_normal((n, dim))
        self.assert_same(field, x0, None, 0.2, [0.2 + off for off in offsets], config,
                         blocks=n_blocks)

    def test_isotropic_march_builds_no_matrix(self, gen_field):
        # one period at dt 0.01: the matrix path calls q once per step and
        # once per SPD check (t = 0 and step 64); the isotropic path never
        calls = []

        def q(t, X):
            calls.append(t)
            return gen_field.q(t, X)

        config = mc.SimConfig(n_particles=500, dt=0.01, seed=29)
        x0 = np.random.default_rng(8).standard_normal((500, 2))
        counts = []
        for field in (dataclasses.replace(gen_field, q=q),
                      dataclasses.replace(gen_field, q=q, q_scalar=None)):
            calls.clear()
            list(mc._march(field, x0, None, 0.0, [1.0], config, stream=("march",)))
            counts.append(len(calls))
        assert counts == [0, 100 + 2]

    def test_x_dependent_off_diagonal_q(self):
        config = mc.SimConfig(n_particles=1001, dt=0.01, seed=28)
        x0 = np.random.default_rng(7).standard_normal((1001, 2))
        self.assert_same(tilted_field(), x0, None, 0.1, [0.45, 1.0], config, blocks=7)

    @pytest.mark.parametrize("case", ["grad-value", "grad-tangent", "gen2d"])
    def test_antithetic_odd_blocks_off_grid_captures(self, case, grad_field, gen_field):
        # 1001 particles in 7 blocks of 143 (an unpaired middle in each),
        # 33 steps to the first capture, captures off the dt grid and one at
        # the start time
        field = gen_field if case == "gen2d" else grad_field
        n, d = 1001, field.dim
        config = mc.SimConfig(n_particles=n, dt=0.01, seed=25)
        x0 = np.random.default_rng(5).standard_normal((n, d))
        jac0 = np.ones((n, 1, 1)) if case == "grad-tangent" else None
        name = ("profile", "tangent", 0.2, 0.5)
        self.assert_same(field, x0, jac0, 0.2, [0.2, 0.5237, 0.6111, 1.0049], config, stream=name,
                         blocks=7)

    def test_blocks_must_split_the_particles_evenly(self, grad_field):
        config = mc.SimConfig(n_particles=1001, dt=0.01, seed=0)
        march = mc._march(grad_field, np.zeros((1001, 1)), None, 0.0, [0.5], config,
                          ("march",), blocks=4)
        with pytest.raises(ValueError, match="1001 particles do not split into 4 equal blocks"):
            next(march)

    @pytest.mark.parametrize("cap", [1, 3 * 1001])
    def test_capped_draw_buffer(self, cap, grad_field, monkeypatch):
        # large ensembles draw fewer steps per call (here 1 and 3): same numbers
        monkeypatch.setattr(mc, "_DRAW_FLOATS", cap)
        config = mc.SimConfig(n_particles=1001, dt=0.01, seed=26)
        x0 = np.random.default_rng(6).standard_normal((1001, 1))
        self.assert_same(grad_field, x0, np.ones((1001, 1, 1)), 0.0, [0.1049, 0.3], config,
                         blocks=7)

    def test_schedule_ignores_other_captures(self, grad_field):
        # 1 + 1 + 1 + 1, 1 + 1 + 2 and 4 periods at dt 0.01 are 400 steps each
        config = mc.SimConfig(n_particles=200, dt=0.01, seed=27)
        x0 = np.linspace(-2.0, 2.0, 200)[:, None]
        calls, finals = [], []
        for captures in ([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 4.0], [4.0]):
            times = []

            def b(t, X):
                times.append(t)
                return grad_field.b(t, X)

            field = dataclasses.replace(grad_field, b=b)
            *_, (t, x, _) = mc._march(field, x0, None, 0.0, captures, config,
                                      stream=("march",))
            assert t == 4.0
            calls.append(len(times))
            finals.append(x)
        assert calls == [400, 400, 400]
        for x in finals[1:]:
            assert np.abs(x - finals[0]).max() <= 1e-12

    def test_draw_buffer_bounded(self):
        # a large ensemble's steps per draw call hold at most _DRAW_FLOATS
        # normals, or one step, and it buffers only what it draws, half of
        # each block rounded up, beside its (n, 1) step array
        next(mc._block_normals(0, ("warm-up",), 100, 1, 4))
        for n, blocks in ((1001, 1), (200_000, 16), (2 * mc._DRAW_FLOATS, 64)):
            steps = min(mc._DRAW_STEPS, max(1, mc._DRAW_FLOATS // n))
            tracemalloc.start()
            try:
                z = next(mc._block_normals(0, ("march",), n, 1, blocks))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert z.shape == (n, 1)
            drawn = steps * (n + blocks) // 2
            # the generators themselves take about 1 KiB each
            assert peak <= 8 * (drawn + n) + 2048 * (blocks + 1), (n, peak)


class TestNoiseFactor2d:
    """The d = 2 noise is L z with L the lower Cholesky factor of 2 Q."""

    @staticmethod
    def factor(q, independent):
        # L read off the noise of the unit normals e0 and e1 at sqrt(dt) = 1
        field = fl.PeriodicCoefficientField(dim=2, period=1.0, q=lambda t, X: q, b=None,
                                            q_independent_of_x=independent)
        x = np.zeros((len(q), 2))
        cols = [mc._noise_increment(field, 0.0, x, np.tile(e, (len(q), 1)), 1.0,
                                    np.empty(len(q)))
                for e in np.eye(2)]
        return np.stack(cols, axis=-1)

    @pytest.mark.parametrize("independent", [False, True])
    def test_factor_squares_to_2q(self, independent):
        q = random_spd_2x2(500, 11)
        if independent:
            lower = np.concatenate([self.factor(q[i : i + 1], True) for i in range(50)])
            q = q[:50]
        else:
            lower = self.factor(q, False)
        assert np.all(lower[:, 0, 1] == 0.0)
        assert np.all(lower[:, 0, 0] > 0.0) and np.all(lower[:, 1, 1] > 0.0)
        err = np.abs(lower @ np.swapaxes(lower, 1, 2) - 2.0 * q).max(axis=(1, 2))
        assert np.all(err <= 1e-14 * np.abs(2.0 * q).max(axis=(1, 2)))

    def test_one_step_covariance(self):
        # from a point mass the increments of one step have covariance 2 Q dt
        n, dt, x0 = 40000, 0.01, np.array([0.8, -0.6])
        field = tilted_field()
        config = mc.SimConfig(n_particles=n, dt=dt, seed=29)
        ens = ref.evolve(field, ref.point_mass(x0, n, 0.1), 0.1, 0.1 + dt, config)
        want = 2.0 * dt * field.q(0.1, x0[None])[0]
        assert abs(want[0, 1]) > 0.1 * dt
        got = np.cov(ens.positions, rowvar=False)
        se = np.sqrt((np.outer(np.diag(want), np.diag(want)) + want ** 2) / n)
        assert np.all(np.abs(got - want) <= 5.0 * se), (got, want)


class TestEstimateP:
    def test_constant(self, ou_field):
        config = mc.SimConfig(n_particles=1000, dt=0.01, seed=2)
        value, se = ref.estimate_P(ou_field, lambda X: np.full(len(X), 3.5),
                                   1.0, 0.0, [0.0], config)
        assert value == 3.5 and se == 0.0

    def test_ou_coordinate(self, ou_model, ou_field):
        config = mc.SimConfig(n_particles=30000, dt=0.0025, seed=3)
        value, se = ref.estimate_P(ou_field, lambda X: X[:, 0], 1.0, 0.0, [1.0], config)
        expected = ref.propagator(ou_model, 1.0, 0.0)[0, 0]
        assert abs(value - expected) <= 4 * se + 2e-3

    def test_ou_exponential(self, ou_model, ou_field):
        config = mc.SimConfig(n_particles=30000, dt=0.0025, seed=4)
        value, se = ref.estimate_P(ou_field, lambda X: np.exp(1j * X[:, 0]),
                                   1.0, 0.0, [0.0], config)
        expected = ref.apply_to_exponential(ou_model, 1.0, 1.0, 0.0, [0.0])
        assert abs(value - expected) <= 4 * se + 2e-3


def _certificate(field):
    """The Lyapunov certificate of a 1-d field on a radius-8 plan."""
    return hyp.check_hypotheses(field, fl.build_plan(1, field.period, r_max=8.0, n_times=16,
                                                     n_axis=9)).lyapunov


class TestPeriodicMeasure:
    def test_constant_ou_variance(self):
        model = ou.fourier_matrix_model(1, 1.0, a0=[[-1.0]])
        field = ou.as_field(model)
        config = mc.SimConfig(n_particles=40000, dt=0.005, seed=5, horizon_periods=15)
        ens, = mc.sample_periodic_measure(field, [0.0], config, _certificate(field))
        var = ens.positions[:, 0].var(ddof=1)
        se = math.sqrt(2.0) * 0.5 / math.sqrt(ens.n)
        assert abs(var - 0.5) <= 5 * se

    def test_period_shift_bit_identity(self, grad_field, grad_report):
        config = mc.SimConfig(n_particles=1000, dt=0.005, seed=6, horizon_periods=6)
        a, = mc.sample_periodic_measure(grad_field, [0.25], config, grad_report.lyapunov)
        b, = mc.sample_periodic_measure(grad_field, [1.25], config, grad_report.lyapunov)
        assert np.array_equal(a.positions, b.positions)

    def test_one_ensemble_per_canonical_phase_in_order(self, grad_field, grad_report):
        # repeats, periodic copies and the order of the phases change nothing
        config = mc.SimConfig(n_particles=200, dt=0.01, seed=6, horizon_periods=2)
        got = mc.sample_periodic_measure(grad_field, [1.5, 0.25, 0.5, 2.25], config,
                                         grad_report.lyapunov)
        want = mc.sample_periodic_measure(grad_field, [0.25, 0.5], config, grad_report.lyapunov)
        assert [ens.t for ens in got] == [ens.t for ens in want] == [0.25, 0.5]
        for a, b in zip(got, want):
            assert np.array_equal(a.positions, b.positions)
        assert not np.array_equal(got[0].positions, got[1].positions)

    def test_moment_bound_certificate(self, grad_field, grad_report):
        lyap = grad_report.lyapunov
        config = mc.SimConfig(n_particles=30000, dt=0.008, seed=7, horizon_periods=12)
        ens, = mc.sample_periodic_measure(grad_field, [0.5], config, lyap)
        v = 1.0 + ens.positions[:, 0] ** 2
        se = v.std(ddof=1) / math.sqrt(ens.n)
        assert v.mean() <= lyap.moment_bound() + 4 * se

    def test_refuses_without_certificate(self):
        field = fl.polynomial_field(1, 1.0, q_const=0.5,
                                    drift_terms=(fl.DriftTerm(1, 1.0),), name="bad")
        config = mc.SimConfig(n_particles=200, dt=0.01, seed=0)
        certificate = _certificate(field)
        assert not certificate.accepted
        with pytest.raises(NotDissipative):
            mc.sample_periodic_measure(field, [0.0], config, certificate)


def _pathwise_gradient(field, phi_grad, t, s, x, config):
    """Mean and scalar stderr of J^T grad phi(X_t) over a tangent flow started at x."""
    pos, jac = ref.tangent_march(field, np.tile(x, (config.n_particles, 1)), s, t, config,
                                 stream=("pathwise-gradient",))
    pulled = np.einsum("nij,ni->nj", jac, phi_grad(pos))
    se = float(np.linalg.norm(pulled.std(axis=0, ddof=1)) / math.sqrt(len(pos)))
    return pulled.mean(axis=0), se


class TestTangentFlow:
    def test_constant_gradient_zero(self, ou_field):
        config = mc.SimConfig(n_particles=500, dt=0.01, seed=12)
        grad, se = _pathwise_gradient(ou_field, lambda X: np.zeros_like(X),
                                      1.0, 0.0, [0.3], config)
        assert np.all(grad == 0.0) and se == 0.0

    def test_ou_linear_jacobian(self, ou_model, ou_field):
        config = mc.SimConfig(n_particles=2000, dt=0.0025, seed=13)
        grad, _ = _pathwise_gradient(ou_field, lambda X: np.ones((len(X), 1)),
                                     1.0, 0.0, [0.5], config)
        expected = ref.propagator(ou_model, 1.0, 0.0)[0, 0]
        assert abs(grad[0] - expected) < 3e-3  # deterministic Jacobian, Euler bias only

    def test_refuses_x_dependent_diffusion(self, gen_field):
        config = mc.SimConfig(n_particles=200, dt=0.01, seed=0)
        with pytest.raises(QNotXIndependent):
            ref.tangent_march(gen_field, np.zeros((200, 2)), 0.0, 0.5, config)

    def test_pointwise_gradient_bound_grad1d(self, grad_field, grad_report):
        config = mc.SimConfig(n_particles=4000, dt=0.008, seed=14)
        sin_phi = next(p for p in eng.battery() if p.fid == "sin")
        rng = np.random.default_rng(15)
        for i in range(5):
            s = float(rng.uniform(0, 1))
            t = s + float(rng.uniform(0.2, 2.0))
            x = rng.uniform(-1.5, 1.5, size=1)
            out = ref.pointwise_sample_check(grad_field, sin_phi, t, s, x, config,
                                             grad_report.r0_hat, stream=("pointwise", i))
            assert out["holds"], out

    def test_pointwise_stderr_uses_pair_units(self):
        # odd drift from x = 0 with mirrored noise: every pair is (x, -x), and
        # both sides average even functions of x, so pairs are the units
        field = fl.polynomial_field(1, 1.0, q_const=0.5, drift_terms=(fl.DriftTerm(1, -1.0),))
        config = mc.SimConfig(n_particles=2000, dt=0.01, seed=8)
        tanh = next(p for p in eng.battery() if p.fid == "tanh")
        out = ref.pointwise_sample_check(field, tanh, 1.0, 0.0, [0.0], config, -1.0,
                                         stream=("pointwise", 0))
        pos, jac = ref.tangent_march(field, np.zeros((2000, 1)), 0.0, 1.0, config,
                                     stream=("pointwise", 0))
        assert np.array_equal(pos[1000:], -pos[:1000])
        lhs_vals = jac[:, 0, 0] * tanh.grad_at(1.0, pos)[:, 0]
        rhs_vals = math.exp(-1.0) * ref.grad_norm(tanh, 1.0, pos)
        paired = math.hypot(mc.mean_and_stderr(lhs_vals)[1],
                            mc.mean_and_stderr(rhs_vals)[1])
        naive = math.hypot(lhs_vals.std(ddof=1), rhs_vals.std(ddof=1)) / math.sqrt(2000)
        assert paired > 1.4 * naive
        assert out["stderr"] == pytest.approx(paired, rel=1e-12)


class TestPhaseEnsembles:
    PHASES = [k / 8 for k in range(8)]

    @classmethod
    def engine(cls, field, report):
        config = mc.SimConfig(n_particles=200, dt=0.02, seed=3, horizon_periods=2)
        return eng.MonteCarloEngine(field, config, n_outer=8, n_inner=16,
                                    certificate=report.lyapunov, phases=cls.PHASES)

    def test_phase_zero_is_the_burn_in(self, grad_field, grad_report):
        # the march on through the other phases leaves phase 0 as the burn-in alone
        engine = self.engine(grad_field, grad_report)
        want, = mc.sample_periodic_measure(grad_field, [0.0], engine.config, grad_report.lyapunov,
                                           stream=("burn-in",))
        assert np.array_equal(engine.phase_ensemble(0.0).positions, want.positions)

    def test_other_phases_carry_phase_zero_forward(self, grad_field, grad_report):
        calls = []

        def counted_b(t, X):
            calls.append(t)
            return grad_field.b(t, X)

        field = dataclasses.replace(grad_field, b=counted_b)
        engine = self.engine(field, grad_report)
        for k in range(8):
            engine.phase_ensemble(k / 8)
        dt, burn_in = engine.config.dt, engine.config.horizon_periods * field.period
        # one march: the burn-in, then 7/8 of a period in steps of T/8
        want = round(burn_in / dt) + 7 * math.ceil(field.period / (8 * dt))
        assert len(calls) == want == 149

    def test_phases_are_captures_of_one_burn_in_march(self, grad_field, grad_report):
        # each declared phase is the burn-in stream's state there, and a
        # phase the engine was not given is refused
        engine = self.engine(grad_field, grad_report)
        config = engine.config
        start = -config.horizon_periods * grad_field.period
        want = reference_march(grad_field, np.zeros((config.n_particles, 1)), None, start,
                               self.PHASES, config, ("burn-in",))
        for t, x, _ in want:
            ens = engine.phase_ensemble(t + 2.0)       # any period's copy of the phase
            assert ens.t == t and np.array_equal(ens.positions, x)
        for phase in (0.1, 0.12500001):
            with pytest.raises(ValueError, match="not among the Monte Carlo phases"):
                engine.phase_ensemble(phase)


class TestEnsembleIO:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            mc.ParticleEnsemble(0.0, np.array([[np.nan]]))


class TestAntitheticStats:
    def test_pairing_preserves_mean(self):
        rng = np.random.default_rng(2)
        vals = rng.standard_normal(1000)
        mean, se = mc.mean_and_stderr(vals)
        assert abs(mean - vals.mean()) < 1e-12

    @pytest.mark.parametrize("vals, units", [
        # m = 5: sample i pairs with i + 3, and the middle sample stands alone
        ([1.0, 2.0, 4.0, 7.0, 11.0], [(1.0 + 7.0) / 2, (2.0 + 11.0) / 2, 4.0]),
        # m = 6: sample i pairs with i + 3
        ([1.0, 2.0, 4.0, 7.0, 11.0, 16.0], [(1.0 + 7.0) / 2, (2.0 + 11.0) / 2, (4.0 + 16.0) / 2]),
    ])
    def test_stderr_over_pair_units_by_hand(self, vals, units):
        mean, se = mc.mean_and_stderr(np.array(vals))
        k = len(units)
        want_mean = sum(units) / k
        want_se = math.sqrt(sum((u - want_mean) ** 2 for u in units) / (k - 1) / k)
        assert mean == pytest.approx(want_mean, rel=1e-15)
        assert se == pytest.approx(want_se, rel=1e-14)
        # a block of rows reduces each row alone
        rows = np.array([vals, [2.0 * v for v in vals]])
        row_mean, row_se = mc.mean_and_stderr(rows)
        assert row_mean == pytest.approx([want_mean, 2.0 * want_mean], rel=1e-15)
        assert row_se == pytest.approx([want_se, 2.0 * want_se], rel=1e-14)

    def test_component_rows_reduce_as_the_per_component_loop(self):
        # the tangent profile reduces all d gradient components in one call
        pulled = np.random.default_rng(5).standard_normal((16, 1024, 3))
        rows = np.ascontiguousarray(pulled.transpose(0, 2, 1))
        mean, se = mc.mean_and_stderr(rows)
        for c in range(3):
            m_c, se_c = mc.mean_and_stderr(pulled[..., c])
            assert np.array_equal(mean[:, c], m_c) and np.array_equal(se[:, c], se_c)

    def test_odd_function_collapses(self, grad_mc, battery1):
        tanh = next(p for p in battery1 if p.fid == "tanh")
        mean, se = dg.phase_mean(grad_mc, tanh, 0.0)
        assert abs(mean) < 1e-14 and se < 1e-14


class TestTransportChecks:
    def test_contraction_and_invariance_ou(self, ou_mc, battery1):
        phis = [p for p in battery1 if p.fid in ("tanh", "sin", "bump", "coord0")]
        gaps = [0.5, 1.0, 2.0]
        profile = ou_mc.transfer_profile(phis, 0.0, gaps)
        rows = dg.contraction_invariance_report(ou_mc, phis, 0.0, [1.0, 2.0, 4.0], profile)
        assert all(r["contraction_ok"] for r in rows)
        assert all(r["invariance_ok"] for r in rows)

    @pytest.mark.parametrize("kind", ["ou-exact", "grid"])
    def test_profile_weights_are_the_starting_measure(self, kind, ou_engine, ou_field,
                                                      ou_generator):
        # int P(s, s + tau) phi dmu_s = int phi dmu_{s + tau} at fractional horizons too
        engine = ou_engine if kind == "ou-exact" else eng.GridEngine(ou_field, ou_generator)
        square = eng.TestFunction("square", lambda s, X: X[:, 0] ** 2, lambda s, X: 2.0 * X)
        profile = engine.transfer_profile([square], 0.0, [0.5, 1.25])
        for k, tau in enumerate(profile.horizons):
            g, _ = profile.values["square"][k]
            want, _ = dg.phase_mean(engine, square, tau)
            assert abs(float(np.dot(profile.weights, g)) - want) <= 2e-3 * want, (tau, want)

    def test_one_march_per_profile(self, grad_field, grad_report, monkeypatch):
        marches, march = [], mc._march

        def counted(*args, **kwargs):
            marches.append(args[4])          # the capture times
            return march(*args, **kwargs)

        monkeypatch.setattr(mc, "_march", counted)
        config = mc.SimConfig(n_particles=200, dt=0.02, seed=3, horizon_periods=2)
        engine = eng.MonteCarloEngine(grad_field, config, n_outer=8, n_inner=16,
                                      certificate=grad_report.lyapunov)
        engine.phase_ensemble(0.0)
        marches.clear()
        horizons = [1, 1.25, 1.5, 1.75, 2, 2.25, 2.5, 3, 4, 6, 8]
        profile = engine.transfer_profile(eng.battery()[1:3], 0.0, horizons)
        assert len(marches) == 1 and list(marches[0]) == horizons
        assert [len(profile.values[fid]) for fid in profile.values] == [11, 11]

    def test_jacobians_stop_at_the_gradient_span(self, grad_field, grad_report, monkeypatch):
        # with gradients 2 the values are a value-only profile's bit for bit, the
        # gradient rows stop at tau = 2, each one a profile's that carries Jacobians
        # to the end, and grad b is evaluated on the steps before tau = 2 only
        config = mc.SimConfig(n_particles=200, dt=0.02, seed=3, horizon_periods=2)
        engine = eng.MonteCarloEngine(grad_field, config, n_outer=8, n_inner=16,
                                      certificate=grad_report.lyapunov)
        phis, horizons = eng.battery()[1:3], [1.0, 1.5, 2.0, 3.0, 4.0]
        plain = engine.transfer_profile(phis, 0.0, horizons)
        to_end = engine.transfer_profile(phis, 0.0, horizons, gradients=4.0)
        times, grad_b_at = [], fl.PeriodicCoefficientField.grad_b_at

        def counted(field, t, points):
            times.append(t)
            return grad_b_at(field, t, points)

        monkeypatch.setattr(fl.PeriodicCoefficientField, "grad_b_at", counted)
        stopped = engine.transfer_profile(phis, 0.0, horizons, gradients=2.0)
        for phi in phis:
            assert [len(stopped.values[phi.fid]), len(stopped.grads[phi.fid])] == [5, 3]
            for got, want in [*zip(stopped.values[phi.fid], plain.values[phi.fid]),
                              *zip(stopped.grads[phi.fid], to_end.grads[phi.fid])]:
                assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert len(times) == round(2.0 / config.dt) and max(times) < 2.0

    def test_tanh_slope_leaves_the_other_members_bit_identical(self, grad_field, grad_report):
        # the stream names horizons, not members, so one more member reads the same paths
        config = mc.SimConfig(n_particles=256, dt=0.01, seed=4, horizon_periods=2)
        engine = eng.MonteCarloEngine(grad_field, config, n_outer=8, n_inner=64,
                                      certificate=grad_report.lyapunov)
        phis, horizons = eng.battery()[1:], [1.0, 1.5, 2.0, 3.0]
        without = engine.transfer_profile(phis, 0.0, horizons, gradients=2.0)
        with_slope = engine.transfer_profile([*phis, eng.TANH_SLOPE], 0.0, horizons,
                                             gradients=2.0)
        for table in ("values", "grads"):
            got, want = getattr(with_slope, table), getattr(without, table)
            assert list(got) == [*want, "tanh-slope"]
            for fid, rows in want.items():
                assert len(got[fid]) == len(rows)
                for got_row, want_row in zip(got[fid], rows):
                    assert all(np.array_equal(a, b) for a, b in zip(got_row, want_row))

    def test_gap_missing_from_profile_rejected(self, ou_engine, battery1):
        profile = ou_engine.transfer_profile(battery1[:1], 0.0, [1.0])
        with pytest.raises(ValueError):
            profile.at([2.0])


class TestMarchWorkingSet:
    def test_gen2d_profile_march_traced_peak(self, gen_field, gen_report):
        # a gen2d-size decay profile: 128 x 256 particles in d = 2, antithetic
        # blocks of 256, horizons 1-3 at dt 0.01 and the five decay functions
        # reduced per capture; tracing starts just before the profile and
        # numpy's data allocations are traced, so the peak repeats
        config = mc.SimConfig(n_particles=256, dt=0.01, seed=1, horizon_periods=1)
        engine = eng.MonteCarloEngine(gen_field, config, n_outer=128, n_inner=256,
                                      certificate=gen_report.lyapunov)
        engine.phase_ensemble(0.0)
        phis = [phi for phi in eng.battery() if phi.fid != "const"]
        tracemalloc.start()
        try:
            engine.transfer_profile(phis, 0.0, [1, 1.5, 2, 2.5, 3])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5.5 * 2**20, peak / 2**20


class TestBlockLayout:
    def test_grad1d_marches_whole_blocks(self, grad1d_benchmark_run):
        # grad1d at benchmark sizes, seed 1: the transfer profile marches n_outer
        # blocks of n_inner, one block per outer point; the burn-in, which runs on
        # through every phase, is one block
        sim = grad1d_benchmark_run.doc["sim"]
        n_outer, n_inner, particles = sim["n_outer"], sim["n_inner"], sim["particles"]
        layouts = {}
        for kind, n, blocks in grad1d_benchmark_run.layouts:
            layouts.setdefault(kind, set()).add((n, blocks))
        assert layouts == {"burn-in": {(particles, 1)},
                           "profile": {(n_outer * n_inner, n_outer)}}

    def test_grad1d_run_marches_twice(self, grad1d_benchmark_run):
        # the burn-in and the one profile: gradient-decay and its pointwise check
        # read the profile that decay's fits read, with no march of their own
        assert [stream[0] for stream in grad1d_benchmark_run.marches] == ["burn-in", "profile"]
