"""Finite-difference engine: stepping oracles, generator, spectrum, projections."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from periodiclab import engines as eng
from periodiclab import fields as fl
from periodiclab import grid as gr
from periodiclab import ougaussian as ou
from periodiclab.errors import EigSolverFailure, PerronFailure

HEAT = fl.polynomial_field(1, 1.0, q_const=0.5, name="heat")


class TestStepForward:
    """Crank-Nicolson stepping through the transition slice map."""

    def test_constants_are_caloric(self):
        g = gr.SpaceTimeGrid(half_width=6.0, points_per_axis=127, time_slices=32, period=1.0)
        x = g.nodes()[:, 0]
        u0 = np.exp(-((x / 4.0) ** 16))
        out = gr.transition_matrix(HEAT, g, 0.0, 0.05, u0, substeps=4)
        assert np.abs(out - 1.0)[np.abs(x) < 1.0].max() < 1e-4

    def test_heat_kernel_oracle(self):
        g = gr.SpaceTimeGrid(half_width=6.0, points_per_axis=191, time_slices=32, period=1.0)
        x = g.nodes()[:, 0]
        u0 = np.exp(-(x**2) / 0.2) / math.sqrt(0.2 * np.pi)
        out = gr.transition_matrix(HEAT, g, 0.0, 0.5, u0, substeps=4)
        exact = np.exp(-(x**2) / 1.2) / math.sqrt(1.2 * np.pi)
        assert np.abs(out - exact)[np.abs(x) < 3.0].max() < 1e-3

    def test_ou_coordinate_oracle(self, ou_model, ou_field):
        g = gr.SpaceTimeGrid(half_width=5.0, points_per_axis=191, time_slices=32, period=1.0)
        x = g.nodes()[:, 0]
        taper = np.exp(-((x / 4.0) ** 20))
        phi = x * taper
        out = gr.transition_matrix(ou_field, g, 0.0, 0.7, phi, substeps=4)
        # quadrature oracle for the same (tapered) data
        exact = ou.apply(ou_model, lambda X: X[:, 0] * np.exp(-((X[:, 0] / 4.0) ** 20)),
                         0.7, 0.0, g.nodes(), order=80)
        assert np.abs(out - exact)[np.abs(x) < 2.0].max() < 1e-3

    def test_ou_nonlinear_oracle_off_phase(self, ou_model, ou_field):
        """A nonlinear phi away from phase 0 tells the transition clock from the
        reversed one (for the linear phi above the two agree)."""
        g = gr.SpaceTimeGrid(half_width=5.0, points_per_axis=191, time_slices=32, period=1.0)
        x = g.nodes()[:, 0]
        tanh = next(phi for phi in eng.battery() if phi.fid == "tanh")
        out = gr.transition_matrix(ou_field, g, 0.2, 0.7, tanh(g.nodes()), substeps=4)
        exact = ou.apply(ou_model, tanh, 0.7, 0.2, g.nodes(), order=80)
        assert np.abs(out - exact)[np.abs(x) < 2.0].max() < 1e-3

    def test_block_matches_dense_map(self, ou_field):
        g = gr.SpaceTimeGrid(half_width=4.5, points_per_axis=31, time_slices=17, period=1.0)
        block = np.random.default_rng(3).standard_normal((g.n_space, 3))
        dense = gr.transition_matrix(ou_field, g, 0.1, 0.6, np.eye(g.n_space))
        out = gr.transition_matrix(ou_field, g, 0.1, 0.6, block)
        assert out.shape == block.shape
        assert np.abs(out - dense @ block).max() <= 1e-12 * np.abs(dense @ block).max()

    def test_max_principle(self):
        g = gr.SpaceTimeGrid(half_width=6.0, points_per_axis=127, time_slices=64, period=1.0)
        x = g.nodes()[:, 0]
        u0 = np.exp(-(x**2) / 0.5)
        out = gr.transition_matrix(HEAT, g, 0.0, 0.25, u0, substeps=8)
        assert out.min() >= u0.min() - 1e-8
        assert out.max() <= u0.max() + 1e-8

    def test_heat_2d(self):
        field = fl.polynomial_field(2, 1.0, q_const=0.5, name="heat2")
        g = gr.SpaceTimeGrid(half_width=5.0, points_per_axis=63, time_slices=32,
                             period=1.0, dim=2)
        pts = g.nodes()
        r2 = np.sum(pts**2, axis=1)
        u0 = np.exp(-r2 / 0.4) / (0.4 * np.pi)
        out = gr.transition_matrix(field, g, 0.0, 0.3, u0, substeps=4)
        exact = np.exp(-r2 / 1.0) / (1.0 * np.pi)
        mask = r2 < 4.0
        # coarser 2-d lattice than the pinned 1-d case: second-order in h
        assert np.abs(out - exact)[mask].max() < 3e-3


@pytest.mark.parametrize("half_width", [3.0, 3.3, 4.5, 5.0, 6.0])
@pytest.mark.parametrize("n", [16, 17, 31, 32, 40, 41, 63, 127])
def test_axis_is_point_symmetric(n, half_width):
    """Node k and node n-1-k are exact negatives, so x -> -x maps the lattice
    onto itself bit for bit."""
    ax = gr.SpaceTimeGrid(half_width, n, 17, 1.0).axis()
    assert np.array_equal(ax, -ax[::-1])
    assert np.allclose(ax, -half_width + np.arange(1, n + 1) * 2 * half_width / (n + 1),
                       rtol=0, atol=1e-14)


class TestTimeDerivative:
    def test_spectral_exactness(self):
        mat = gr.time_derivative_matrix(17, 2.0, "spectral")
        t = 2.0 * np.arange(17) / 17
        f = np.cos(2 * np.pi * t / 2.0)
        fp = -np.pi * np.sin(np.pi * t)
        assert np.abs(mat @ f - fp).max() < 1e-12

    def test_spectral_eigenvalues_pure_imaginary_ladder(self):
        n, period = 17, 1.0
        mat = gr.time_derivative_matrix(n, period, "spectral")
        ev = np.linalg.eigvals(-mat)
        expected = np.array(sorted(2 * np.pi * k / period
                                   for k in range(-(n - 1) // 2, (n - 1) // 2 + 1)))
        assert np.abs(ev.real).max() < 1e-10
        assert np.abs(np.sort(ev.imag) - expected).max() < 1e-10

    def test_spectral_requires_odd(self):
        with pytest.raises(ValueError):
            gr.time_derivative_matrix(16, 1.0, "spectral")

    def test_upwind_differentiates_forward_in_time(self):
        n = 256
        t = np.arange(n) / n
        mat = gr.time_derivative_matrix(n, 1.0, "upwind")
        deriv = 2 * np.pi * np.cos(2 * np.pi * t)
        assert np.abs(mat @ np.sin(2 * np.pi * t) - deriv).max() < 0.1

    def test_upwind_left_half_plane(self):
        mat = gr.time_derivative_matrix(24, 1.0, "upwind")
        assert np.linalg.eigvals(mat).real.max() <= 1e-12
        assert np.abs(mat @ np.ones(24)).max() == 0.0


class TestGenerator:
    def test_constants_annihilated_interior(self, ou_generator, ou_grid):
        r = ou_generator.matrix @ np.ones(ou_generator.size)
        edge = np.zeros(ou_grid.n_space, dtype=bool)
        edge[[0, -1]] = True                  # 1-d: first and last node
        interior = ~np.tile(edge, ou_grid.time_slices)
        assert np.abs(r[interior]).max() <= 1e-10

    def test_rho_invariance_residual(self, ou_generator, grad_generator):
        assert ou_generator.rho_residual <= 1e-8
        assert grad_generator.rho_residual <= 1e-8

    def test_rho_positive_normalized(self, ou_generator):
        assert ou_generator.rho.min() >= 0.0
        assert abs(ou_generator.rho.sum() - 1.0) < 1e-12

    def test_symmetric_field_rho_uniform_in_time(self):
        g = gr.SpaceTimeGrid(half_width=5.0, points_per_axis=31, time_slices=17, period=1.0)
        lin = fl.polynomial_field(1, 1.0, q_const=0.5, drift_terms=(fl.DriftTerm(1, -1.0),))
        gen = gr.build_generator(lin, g, "spectral")
        slices = gen.rho_slices()
        # autonomous coefficients: identical slices; odd drift: even in x
        assert np.abs(slices - slices[0]).max() < 1e-12 * slices.max()
        assert np.abs(slices[0] - slices[0][::-1]).max() < 1e-9 * slices.max()

    def test_ou_rho_matches_gaussian(self, ou_model, ou_field):
        g = gr.SpaceTimeGrid(half_width=4.5, points_per_axis=159, time_slices=33, period=1.0)
        gen = gr.build_generator(ou_field, g, "spectral")
        system = ou.periodic_system(ou_model)
        x = g.nodes()[:, 0]
        mask = np.abs(x) <= g.half_width / 2
        worst = 0.0
        for j in range(0, 33, 4):
            masses = gen.rho_slices()[j]
            dens = masses / masses.sum() / g.h
            sig = system.measure(j / 33).cov[0, 0]
            gauss = np.exp(-(x**2) / (2 * sig)) / math.sqrt(2 * np.pi * sig)
            worst = max(worst, (np.abs(dens - gauss)[mask] / gauss[mask]).max())
        assert worst <= 0.02

    def test_perron_nonconvergence_raises(self, monkeypatch):
        class Alternating:
            """LU stand-in whose solves flip between two distinct positive vectors."""

            def __init__(self, n):
                self.vecs = [np.ones(n), np.linspace(1.0, 2.0, n)]
                self.calls = 0

            def solve(self, v):
                self.calls += 1
                return self.vecs[self.calls % 2]

        monkeypatch.setattr(gr.spla, "splu", lambda mat: Alternating(mat.shape[0]))
        g = gr.SpaceTimeGrid(half_width=4.5, points_per_axis=16, time_slices=17, period=1.0)
        with pytest.raises(PerronFailure, match="200 steps"):
            gr.build_generator(HEAT, g, "spectral")

    def test_upwind_scheme_spectrum_left(self, ou_field):
        g = gr.SpaceTimeGrid(half_width=4.5, points_per_axis=31, time_slices=16, period=1.0)
        gen = gr.build_generator(ou_field, g, "upwind")
        ev = np.linalg.eigvals(gen.matrix.toarray())
        assert ev.real.max() <= 1e-8

    def test_upwind_rho_matches_gaussian_variance(self, ou_model, ou_field):
        """An upwind generator's mass has the exact variance at every slice, to
        the first-order time error (a backward difference misses by 0.14)."""
        g = gr.SpaceTimeGrid(half_width=4.5, points_per_axis=63, time_slices=65, period=1.0)
        gen = gr.build_generator(ou_field, g, "upwind")
        system = ou.periodic_system(ou_model)
        x = g.nodes()[:, 0]
        weights = gen.rho_slices() / gen.rho_slices().sum(axis=1, keepdims=True)
        variances = weights @ x**2 - (weights @ x) ** 2
        exact = [system.measure(s).cov[0, 0] for s in g.slice_times()]
        assert np.abs(variances - exact).max() <= 5e-3


class TestSpectrum:
    def test_ou_axis_cluster_and_gap(self, ou_spectrum):
        cluster = dict(ou_spectrum.axis_cluster)
        w0 = 2 * np.pi
        assert abs(cluster[0]) <= 1e-6
        assert abs(cluster[1] - 1j * w0) <= 1e-3
        assert abs(cluster[-1] + 1j * w0) <= 1e-3
        assert ou_spectrum.gap_estimate <= -0.4
        assert abs(ou_spectrum.gap_estimate - (-1.0)) < 5e-3

    def test_conjugation_closure(self, ou_spectrum):
        eigs = ou_spectrum.eigenvalues
        for z in eigs[:20]:
            assert np.abs(eigs - z.conjugate()).min() < 1e-8

    def test_grad_gap_below_ell2(self, grad_spectrum):
        assert grad_spectrum.gap_estimate <= -0.4

    def test_shift_invert_matches_dense(self, ou_generator, ou_spectrum):
        sparse_rep = gr.spectrum(ou_generator, k=8, dense_cutoff=0)
        cluster_s = dict(sparse_rep.axis_cluster)
        cluster_d = dict(ou_spectrum.axis_cluster)
        assert abs(cluster_s[0] - cluster_d[0]) < 1e-8
        assert abs(sparse_rep.gap_estimate - ou_spectrum.gap_estimate) < 1e-5

    def test_shift_invert_solves_two_targets(self, ou_generator, monkeypatch):
        """The solve at 0.25 - 2 pi i / T is the conjugate of the one at
        0.25 + 2 pi i / T, so it is not made; the set stays conjugation-closed."""
        eigs, sigmas = gr.spla.eigs, []

        def counted(*args, **kwargs):
            sigmas.append(kwargs["sigma"])
            return eigs(*args, **kwargs)

        monkeypatch.setattr(gr.spla, "eigs", counted)
        rep = gr.spectrum(ou_generator, k=8, dense_cutoff=0)
        assert sigmas == [0.25, 0.25 + 2j * np.pi]
        for z in rep.eigenvalues:
            assert np.abs(rep.eigenvalues - z.conjugate()).min() <= 1e-8 * (1 + abs(z))

    def test_residuals_reported(self, ou_generator):
        rep = gr.spectrum(ou_generator, k=6, with_residuals=True)
        assert len(rep.residuals) > 0
        assert np.nanmax(rep.residuals) < 1e-6


class TestDenseSolvedOnce:
    """The dense eigenvalues belong to the generator: one solve serves every
    report, whatever its k, cluster tolerance or residuals."""

    @staticmethod
    def small_generator(ou_field):
        g = gr.SpaceTimeGrid(half_width=4.5, points_per_axis=31, time_slices=17, period=1.0)
        return gr.build_generator(ou_field, g, "spectral")

    def test_two_reports_one_solve(self, ou_field, monkeypatch):
        eigvals, solves = gr.scipy.linalg.eigvals, []

        def counted(a):
            solves.append(a.shape)
            return eigvals(a)

        monkeypatch.setattr(gr.scipy.linalg, "eigvals", counted)
        gen = self.small_generator(ou_field)
        asks = [{"k": 40}, {"k": 6, "cluster_tol": 1e-2, "with_residuals": True}]
        reports = [gr.spectrum(gen, **kwargs) for kwargs in asks]
        assert solves == [(16 * 17, 16 * 17), (15 * 17, 15 * 17)]  # the even and odd blocks
        for report, kwargs in zip(reports, asks):
            fresh = gr.spectrum(self.small_generator(ou_field), **kwargs)
            assert report.to_jsonable() == fresh.to_jsonable()
        assert len(reports[1].residuals) > 0
        with pytest.raises(ValueError):
            gen.dense_eigenvalues[0] = 0.0

    def test_failure_is_not_cached(self, ou_field, monkeypatch):
        solves = []

        def failing(a):
            solves.append(a.shape)
            raise np.linalg.LinAlgError("did not converge")

        gen = self.small_generator(ou_field)
        with monkeypatch.context() as patch:
            patch.setattr(gr.scipy.linalg, "eigvals", failing)
            for _ in range(2):
                with pytest.raises(EigSolverFailure, match="did not converge"):
                    gr.spectrum(gen)
        assert len(solves) == 2
        assert gr.spectrum(gen).method == "dense"


def recorded_eigvals(monkeypatch, solve=True):
    """Record each array ``scipy.linalg.eigvals`` is given in the grid module;
    without ``solve`` return zeros in place of its eigenvalues."""
    eigvals, inputs = gr.scipy.linalg.eigvals, []

    def recorded(a):
        inputs.append(a)
        return eigvals(a) if solve else np.zeros(len(a), dtype=complex)

    monkeypatch.setattr(gr.scipy.linalg, "eigvals", recorded)
    return inputs


ROTATING_OU = ou.as_field(ou.fourier_matrix_model(
    dim=2, a0=[[-1.0, 1.5], [-1.5, -1.0]], a_sin=[[0.5, 0.0], [0.0, 0.0]],
    b0=[[1.0, 0.0], [0.3, 0.8]], name="ou2d"))


class TestParitySplit:
    """A generator that commutes with x -> -x is solved as its even and odd
    blocks; the union of their eigenvalues is the whole spectrum."""

    @pytest.mark.parametrize("n", [31, 32])
    @pytest.mark.parametrize("which", ["ou", "grad"])
    def test_split_matches_one_full_solve(self, which, n, ou_field, grad_field, monkeypatch):
        field, half_width = (ou_field, 4.5) if which == "ou" else (grad_field, 3.0)
        g = gr.SpaceTimeGrid(half_width=half_width, points_per_axis=n, time_slices=17,
                             period=1.0)
        with monkeypatch.context() as patch:
            inputs = recorded_eigvals(patch)
            split = gr.spectrum(gr.build_generator(field, g, "spectral"), k=40)
        assert [a.shape for a in inputs] == [(17 * ((n + 1) // 2),) * 2, (17 * (n // 2),) * 2]
        with monkeypatch.context() as patch:
            patch.setattr(gr, "_parity_blocks", lambda *args: None)
            inputs = recorded_eigvals(patch)
            full = gr.spectrum(gr.build_generator(field, g, "spectral"), k=40)
        assert [a.shape for a in inputs] == [(17 * n, 17 * n)]
        assert len(split.eigenvalues) == len(full.eigenvalues) == 17 * n
        # the far-left tail is ill-conditioned, so only the right-most 40 are compared
        for z in split.eigenvalues[:40]:
            assert np.abs(full.eigenvalues - z).min() <= 1e-9 * (1 + abs(z))
        for z in full.eigenvalues[:40]:
            assert np.abs(split.eigenvalues - z).min() <= 1e-9 * (1 + abs(z))
        assert abs(split.gap_estimate - full.gap_estimate) <= 1e-10
        assert [k for k, _ in split.axis_cluster] == [k for k, _ in full.axis_cluster]
        for (_, a), (_, b) in zip(split.axis_cluster, full.axis_cluster):
            assert abs(a - b) <= 1e-10

    def test_field_without_parity_is_solved_whole(self, monkeypatch):
        forced = ou.as_field(ou.fourier_matrix_model(
            dim=1, a0=[[-1.0]], a_sin=[[0.5]], f0=[0.5], name="forced"))
        g = gr.SpaceTimeGrid(half_width=4.5, points_per_axis=31, time_slices=17, period=1.0)
        gen = gr.build_generator(forced, g, "spectral")
        inputs = recorded_eigvals(monkeypatch)
        assert len(gen.dense_eigenvalues) == gen.size
        assert len(inputs) == 1
        assert np.array_equal(inputs[0], gen.matrix.toarray())

    @pytest.mark.parametrize("n", [16, 17])
    def test_2d_blocks_intertwine_with_the_generator(self, n, monkeypatch):
        """On the rotating 2-d OU field (mixed-derivative stencil included),
        G P = P B holds exactly for the even and the odd basis."""
        g = gr.SpaceTimeGrid(half_width=4.5, points_per_axis=n, time_slices=17, period=1.0,
                             dim=2)
        m = g.n_space
        a_part = sp.block_diag([gr.spatial_operator(ROTATING_OU, s, g) for s in g.slice_times()])
        d_time = sp.kron(gr.time_derivative_matrix(17, 1.0), sp.identity(m))
        # the coarse rotating stencil has no positive Perron vector, so the
        # generator is assembled here with a placeholder mass and no LU
        mat = (a_part + d_time).tocsr()
        gen = gr.DiscreteGenerator(g, mat, np.full(mat.shape[0], 1.0 / mat.shape[0]),
                                   "spectral", 0.0, None)
        blocks = recorded_eigvals(monkeypatch, solve=False)
        assert len(gen.dense_eigenvalues) == gen.size
        assert [b.shape[0] for b in blocks] == [17 * ((m + 1) // 2), 17 * (m // 2)]
        assert sum(b.shape[0] for b in blocks) == gen.size
        for sign, block in zip((1.0, -1.0), blocks):
            rows, cols, vals = [], [], []
            for t in range(17):
                for k in range((m + 1) // 2 if sign > 0 else m // 2):
                    col = t * ((m + 1) // 2 if sign > 0 else m // 2) + k
                    rows.append(t * m + k)
                    cols.append(col)
                    vals.append(1.0)
                    if k != m - 1 - k:
                        rows.append(t * m + m - 1 - k)
                        cols.append(col)
                        vals.append(sign)
            basis = sp.csr_matrix((vals, (rows, cols)), shape=(gen.size, len(block)))
            assert (mat @ basis != basis @ sp.csr_matrix(block)).nnz == 0


class TestSpectralMapping:
    def test_ou_mapping(self, ou_generator, ou_field, ou_grid, ou_spectrum):
        out = gr.spectral_mapping_check(ou_generator, ou_field, ou_spectrum, substeps=4)
        assert out["worst_mismatch"] <= 1e-3
        leading = [r for r in out["rows"] if r["kind"] == "leading"]
        # eigenvalue 0 and the +-2 pi i / T pair all map to multiplier 1
        for row in leading[:3]:
            target = np.exp(row["lambda"])
            assert abs(target - 1.0) < 1e-4

    def test_multiplier_one_aliases_axis(self, ou_field, ou_grid):
        mono = gr.transition_matrix(ou_field, ou_grid, 0.0, 1.0, np.eye(ou_grid.n_space),
                                    substeps=4)
        mults = np.linalg.eigvals(mono)
        assert np.abs(mults - 1.0).min() < 1e-6


class TestCarreDuChamp:
    def test_residual_halves_at_second_order(self, ou_field):
        def u_fn(s, X):
            prof = np.exp(-1.0 / np.clip(1.0 - (X[:, 0] / 2.25) ** 2, 1e-12, None))
            prof = np.where(np.abs(X[:, 0]) < 2.25, prof, 0.0)
            return prof * (1.0 + 0.5 * math.cos(2 * np.pi * s))

        grids = [gr.SpaceTimeGrid(half_width=4.5, points_per_axis=n, time_slices=33,
                                  period=1.0) for n in (63, 127)]
        residuals = []
        for g in grids:
            gen = gr.build_generator(ou_field, g, "spectral")
            u = gr.GridFunction.sample(g, u_fn)
            residuals.append(gr.carre_du_champ_residual(gen, ou_field, u))
        ratio = residuals[0] / residuals[1]
        assert 3.5 <= ratio <= 4.5


class TestSolvability:
    def test_dichotomy(self, ou_field):
        g = gr.SpaceTimeGrid(half_width=4.5, points_per_axis=31, time_slices=17, period=1.0)
        gen = gr.build_generator(ou_field, g, "spectral")
        f = gr.GridFunction.sample(
            g, lambda s, X: np.sin(X[:, 0]) * (1.0 + 0.5 * math.sin(2 * np.pi * s))
            + 0.2 * X[:, 0]).ravel()
        sol = gr.solvability_residual(gen, f)
        gap = abs(gr.spectrum(gen, k=40).gap_estimate)
        assert sol["residual"] <= 1e-6
        assert sol["zero_mean"] <= 10.0 * sol["data"] / gap
        assert sol["unit_mean"] >= 1e3 * sol["zero_mean"]


class TestBoxTightness:
    def test_shipped_grids_capture_the_measure(self, ou_mc, grad_mc, ou_grid, grad_grid):
        for engine, grid in ((ou_mc, ou_grid), (grad_mc, grad_grid)):
            ens = engine.phase_ensemble(0.0)
            assert np.mean(np.any(np.abs(ens.positions) > grid.half_width, axis=1)) <= 1e-6


class TestAliasing:
    def test_every_phase_block_carries_multiplier_one(self, ou_field, ou_grid):
        """All axis eigenvalues alias onto multiplier 1; the one-period map is
        block diagonal over phases, so each block contributes one such
        multiplier and the total multiplicity dominates the axis count."""
        for phase in (0.0, 0.25, 0.5):
            mono = gr.transition_matrix(ou_field, ou_grid, phase, phase + 1.0,
                                        np.eye(ou_grid.n_space))
            mults = np.linalg.eigvals(mono)
            assert np.abs(mults - 1.0).min() < 1e-6
