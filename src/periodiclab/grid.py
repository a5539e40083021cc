"""Finite-difference realization on a truncated box.

Two deterministic engines live here:

* the transition slice map ``phi -> E[phi(X_t) | X_s = .]`` on
  ``[-L, L]^d`` with homogeneous Dirichlet closure: a Crank-Nicolson sweep
  that carries the columns it is given from t down to s, with first-order
  terms upwinded wherever the cell Peclet number exceeds 2;
* the discrete realization of the periodic space-time generator: per-slice
  spatial operators coupled by a periodic time derivative (spectral
  differencing by default for smooth data, first-order upwind as the
  roughness-robust option), its right-most spectrum, its positive invariant
  mass vector, and the spectral-mapping check of that spectrum against the
  one-period slice map.

The generator is assembled as spatial part plus time derivative, i.e. the
generator of the semigroup that composes the transition operator with the
periodic time shift; its left Perron vector is the forward-invariant
space-time mass, which is what the stochastic engine samples.  The sparse LU
that finds that vector is kept with the generator and serves every later
solve, so a generator is factored once.

Lattice nodes come from centred indices, so the box is point symmetric bit
for bit.  A field with odd drift and even diffusion then assembles to a
generator that commutes exactly with x -> -x, and its dense spectrum is the
union of the spectra of its even and odd blocks, each about half the size.
The two blocks are solved side by side on two threads, whatever ``--jobs``
is; each OpenBLAS runs one thread (see :mod:`periodiclab.blas`), so the
eigenvalues do not depend on the core count.

This is the only module of the package that imports scipy, and the package
imports it only when a document first needs a grid object, so a run that
never touches the grid never loads scipy.  Importing ``scipy.sparse.linalg``
maps scipy's own OpenBLAS, so this module pins it to one thread right after.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dataclass_field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .blas import pin_openblas_threads
from .errors import EigSolverFailure, PerronFailure, SingularSystem, SolverDivergence
from .fields import PeriodicCoefficientField
from .once import Once

pin_openblas_threads()     # scipy's OpenBLAS is mapped by now

# relative accuracy of the shift-invert Arnoldi Ritz values; the gaps they
# give are compared at 0.05 (spectrum-stability), so machine precision buys nothing
ARNOLDI_TOL = 1e-10


@dataclass(frozen=True)
class SpaceTimeGrid:
    """Uniform periodic-in-time lattice on a symmetric box."""

    half_width: float
    points_per_axis: int
    time_slices: int
    period: float
    dim: int = 1

    def __post_init__(self):
        if self.points_per_axis < 16 or self.time_slices < 16:
            raise ValueError("need at least 16 spatial points per axis and 16 time slices")
        if not 1 <= self.dim <= 3:
            raise ValueError("grid supports 1 <= d <= 3")

    @property
    def h(self) -> float:
        return 2.0 * self.half_width / (self.points_per_axis + 1)

    @property
    def dt(self) -> float:
        return self.period / self.time_slices

    @property
    def n_space(self) -> int:
        return self.points_per_axis**self.dim

    def axis(self) -> np.ndarray:
        """Interior nodes from centred indices: nodes k and n-1-k are exact negatives."""
        n = self.points_per_axis
        return self.h * (np.arange(1, n + 1) - (n + 1) / 2)

    def nodes(self) -> np.ndarray:
        ax = self.axis()
        grids = np.meshgrid(*([ax] * self.dim), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)

    def slice_times(self) -> np.ndarray:
        return self.period * np.arange(self.time_slices) / self.time_slices

    def refined(self) -> "SpaceTimeGrid":
        """The same box and time slices with half the spatial step."""
        return SpaceTimeGrid(
            half_width=self.half_width,
            points_per_axis=2 * (self.points_per_axis + 1) - 1,
            time_slices=self.time_slices,
            period=self.period,
            dim=self.dim,
        )


@dataclass(frozen=True)
class GridFunction:
    """Values of a T-periodic function on the space-time lattice."""

    grid: SpaceTimeGrid
    values: np.ndarray  # (n_t, n_space)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.time_slices, self.grid.n_space):
            raise ValueError("values must have shape (time_slices, n_space)")
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid function contains non-finite values")
        object.__setattr__(self, "values", vals)

    @staticmethod
    def sample(grid: SpaceTimeGrid, fn) -> "GridFunction":
        """Sample a callable u(s, X)->(n_space,) on every slice."""
        nodes = grid.nodes()
        vals = np.stack([np.asarray(fn(s, nodes), dtype=float) for s in grid.slice_times()])
        return GridFunction(grid, vals)

    def ravel(self) -> np.ndarray:
        return self.values.ravel()


def spatial_operator(field: PeriodicCoefficientField, t: float, grid: SpaceTimeGrid) -> sp.csr_matrix:
    """Second-order FD discretization of L(t) with hybrid upwinding.

    Along each axis the first-order term is centred while ``|b| h / (2 q) <= 1``,
    where both central couplings ``q/h^2 -+ b/(2h)`` are nonnegative, and
    upwinded beyond, where one of them would turn negative.  Interior row
    sums vanish exactly (diagonals are assembled as the negative sum of the
    off-diagonal couplings), so constants are annihilated away from the
    Dirichlet boundary.
    """
    n = grid.points_per_axis
    d = grid.dim
    h = grid.h
    nodes = grid.nodes()
    q = np.asarray(field.q(t, nodes))        # (m, d, d)
    b = np.asarray(field.b(t, nodes))        # (m, d)
    m = grid.n_space

    strides = [n ** (d - 1 - axis) for axis in range(d)]
    idx = np.indices((n,) * d).reshape(d, -1)

    rows, cols, vals = [], [], []
    diag = np.zeros(m)

    def add(r, c, v):
        rows.append(r)
        cols.append(c)
        vals.append(v)

    for axis in range(d):
        qa = q[:, axis, axis]
        ba = b[:, axis]
        pe = np.abs(ba) * h / (2.0 * qa)
        central = pe <= 1.0
        conv_low = np.where(central, -ba / (2.0 * h), np.where(ba < 0.0, -ba / h, 0.0))
        conv_up = np.where(central, ba / (2.0 * h), np.where(ba > 0.0, ba / h, 0.0))
        lower = qa / h**2 + conv_low
        upper = qa / h**2 + conv_up
        has_lower = idx[axis] > 0
        has_upper = idx[axis] < n - 1
        r_all = np.arange(m)
        add(r_all[has_lower], r_all[has_lower] - strides[axis], lower[has_lower])
        add(r_all[has_upper], r_all[has_upper] + strides[axis], upper[has_upper])
        diag -= lower + upper

    # mixed second derivatives 2 q_ab D_ab via the centered 4-point stencil
    for a_ax in range(d):
        for b_ax in range(a_ax + 1, d):
            qab = q[:, a_ax, b_ax]
            if not np.any(qab):
                continue
            coeff = qab / (2.0 * h * h)
            for sa in (-1, 1):
                for sb in (-1, 1):
                    mask = (
                        ((idx[a_ax] > 0) if sa < 0 else (idx[a_ax] < n - 1))
                        & ((idx[b_ax] > 0) if sb < 0 else (idx[b_ax] < n - 1))
                    )
                    shift = sa * strides[a_ax] + sb * strides[b_ax]
                    sign = 1.0 if sa == sb else -1.0
                    r_all = np.arange(m)[mask]
                    add(r_all, r_all + shift, sign * coeff[mask])
            # corner couplings sum to zero, so no diagonal contribution

    add(np.arange(m), np.arange(m), diag)
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    return sp.csr_matrix((vals, (rows, cols)), shape=(m, m))


def _cn_step(a_now, a_next, dt: float, u):
    """One Crank-Nicolson step u -> u_next (supports multiple columns)."""
    m = a_now.shape[0]
    eye = sp.identity(m, format="csr")
    rhs = (eye + 0.5 * dt * a_now) @ u
    out = spla.spsolve(sp.csc_matrix(eye - 0.5 * dt * a_next), rhs)
    if not np.all(np.isfinite(out)):
        raise SolverDivergence("Crank-Nicolson produced non-finite values")
    return out


def transition_matrix(
    field: PeriodicCoefficientField,
    grid: SpaceTimeGrid,
    s: float,
    t: float,
    u: np.ndarray,
    substeps: int = 2,
) -> np.ndarray:
    """The transition slice map phi -> E[phi(X_t) | X_s = .] applied to u.

    ``u`` is one ``(n_space,)`` slice at time t or an ``(n_space, k)`` block
    of them; pass ``np.eye(n_space)`` for the dense map.  The map solves the
    terminal-value problem for each column, which is a forward Crank-Nicolson
    sweep with the coefficient clock running from t down to s.  ``t == s``
    returns ``u`` itself; ``t < s`` raises ``ValueError``.
    """
    if t < s:
        raise ValueError(f"the slice map runs from t = {t} down to s = {s}: needs t >= s")
    if t == s:
        return u
    n_steps = max(1, math.ceil((t - s) / (grid.dt / substeps)))
    dt = (t - s) / n_steps
    a_now = spatial_operator(field, t, grid)
    for k in range(n_steps):
        a_next = spatial_operator(field, t - (k + 1) * dt, grid)
        u = _cn_step(a_now, a_next, dt, u)
        a_now = a_next
    return u


def time_derivative_matrix(n_t: int, period: float, scheme: str = "spectral") -> np.ndarray:
    """Periodic differentiation matrix on n_t uniform slices.

    ``spectral`` is exact for resolvable trigonometric polynomials;
    ``upwind`` is the first-order one-sided difference whose circulant
    spectrum lies in the closed left half-plane.  Row sums are forced to
    vanish so constants-in-time are annihilated exactly.
    """
    if scheme == "spectral":
        if n_t % 2 == 0:
            # even counts carry a sawtooth null vector that duplicates the
            # whole time-constant spectral branch
            raise ValueError("spectral time differencing needs an odd slice count")
        j = np.arange(n_t)
        diff = j[:, None] - j[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            mat = (np.pi / period) * (-1.0) ** diff / np.sin(np.pi * diff / n_t)
        np.fill_diagonal(mat, 0.0)
        np.fill_diagonal(mat, -mat.sum(axis=1))
        return mat
    if scheme == "upwind":
        # forward difference (u_{j+1} - u_j) / dt: +d/dt, upwind for the
        # terminal-value flow, which carries information from later slices
        dt = period / n_t
        return (-np.eye(n_t) + np.roll(np.eye(n_t), 1, axis=1)) / dt
    raise ValueError(f"unknown time scheme {scheme!r}")


def _parity_blocks(g_mat: sp.csr_matrix, n_space: int) -> list[np.ndarray] | None:
    """The dense even and odd blocks of a generator that commutes with x -> -x.

    The reflection maps flat spatial index k to n_space - 1 - k within each
    time slice, which is x -> -x in any dimension on a centred lattice.  When
    it commutes with ``g_mat`` exactly, ``G P_e = P_e G_e`` and
    ``G P_o = P_o G_o`` for the bases ``e_k +- e_{m-1-k}`` (the centre node
    alone in the even basis when m is odd), and each block is the top-half
    rows of ``G P``: ``G[i, j] +- G[i, m-1-j]``, and ``G[i, c]`` once for the
    centre column c.  The union of the block spectra is the spectrum of
    ``g_mat``.  Returns None when the reflection does not commute exactly.
    """
    flat = np.arange(g_mat.shape[0])
    k = flat % n_space
    mirror = flat + (n_space - 1 - 2 * k)
    if (g_mat[mirror][:, mirror] != g_mat).nnz:
        return None
    blocks = []
    for sign, top in ((1.0, flat[2 * k <= n_space - 1]), (-1.0, flat[2 * k < n_space - 1])):
        rows = g_mat[top]
        block = (rows[:, top] + sign * rows[:, mirror[top]]).toarray()
        block[:, top == mirror[top]] /= 2.0     # the centre node pairs with itself
        blocks.append(block)
    return blocks


@dataclass(frozen=True)
class DiscreteGenerator:
    """Sparse space-time generator with its invariant mass vector.

    ``adjoint_lu``, the sparse LU of G^T that found rho, serves every later
    solve with G or G^T.  The dense eigenvalues are solved once, on first
    request, also for concurrent callers; every dense :func:`spectrum` reads them.
    """

    grid: SpaceTimeGrid
    matrix: sp.csr_matrix
    rho: np.ndarray                 # (n_t * n_space,), nonnegative, sums to 1
    time_scheme: str
    rho_residual: float             # ||rho^T G||_2 / ||G||_fro
    perron_iterations: int          # inverse-iteration steps that found rho
    adjoint_lu: spla.SuperLU = dataclass_field(repr=False, compare=False)
    _memo: Once = dataclass_field(default_factory=Once, init=False, repr=False, compare=False)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    @property
    def dense_eigenvalues(self) -> np.ndarray:
        """Every eigenvalue of the generator, unsorted and read-only.

        A generator that commutes bit for bit with the reflection x -> -x
        (odd drift and even diffusion on the centred lattice) is solved as its
        even and odd blocks, of sizes n_t * ceil(m/2) and n_t * floor(m/2),
        on two threads (``np.linalg.eigvals`` releases the GIL, and each
        call runs on one BLAS thread), and their eigenvalues are concatenated
        in block order; any other generator is solved whole.  Either way the
        result is the whole spectrum.

        Raises :class:`EigSolverFailure` when the dense solve fails; a failure
        is not cached, so the next request solves again.
        """
        def solve():
            blocks = _parity_blocks(self.matrix, self.grid.n_space)
            if blocks is None:
                blocks = [self.matrix.toarray()]
            try:
                # every block runs to its end, and the first failure in block
                # order is the one raised
                with ThreadPoolExecutor(max_workers=len(blocks)) as pool:
                    solving = [pool.submit(np.linalg.eigvals, b) for b in blocks]
                eigs = np.concatenate([s.result() for s in solving], dtype=complex)
            except Exception as exc:
                raise EigSolverFailure(str(exc)) from exc
            eigs.setflags(write=False)
            return eigs

        return self._memo.get("dense", solve)

    def rho_slices(self) -> np.ndarray:
        return self.rho.reshape(self.grid.time_slices, self.grid.n_space)


def build_generator(
    field: PeriodicCoefficientField,
    grid: SpaceTimeGrid,
    time_scheme: str = "spectral",
) -> DiscreteGenerator:
    """Assemble the periodic space-time generator and its Perron mass vector.

    The invariant vector is computed by inverse iteration on the adjoint (the
    truncated problem is nonsingular because mass leaks through the Dirichlet
    boundary, so the eigenvalue nearest zero is a well-defined target).
    Raises :class:`SingularSystem` when the LU meets an exactly singular
    generator, and :class:`PerronFailure` when the iteration does not converge
    in 200 steps, or when the computed vector changes sign beyond rounding,
    which signals a discretization too coarse for positivity.
    """
    if grid.dim > 2:
        raise ValueError("generator assembly is limited to d <= 2")
    n_t = grid.time_slices
    blocks = [spatial_operator(field, s, grid) for s in grid.slice_times()]
    a_part = sp.block_diag(blocks, format="csr")
    d_time = sp.csr_matrix(time_derivative_matrix(n_t, grid.period, time_scheme))
    g_mat = (a_part + sp.kron(d_time, sp.identity(grid.n_space, format="csr"), format="csr")).tocsr()

    try:
        lu = spla.splu(sp.csc_matrix(g_mat.T))
    except RuntimeError as exc:  # "Factor is exactly singular"
        raise SingularSystem(f"LU of the generator: {exc}") from exc
    v = np.full(g_mat.shape[0], 1.0 / g_mat.shape[0])
    for iterations in range(1, 201):
        w = lu.solve(v)
        w = w / np.abs(w).sum()
        converged = np.abs(w - v).max() <= 1e-14 or np.abs(w + v).max() <= 1e-14
        v = w
        if converged:
            break
    else:
        raise PerronFailure("inverse iteration for the invariant vector did not converge "
                            "in 200 steps")
    if v.sum() < 0:
        v = -v
    neg_mass = -v[v < 0].sum()
    if neg_mass > 1e-4 or v.min() < -1e-3 * v.max():
        raise PerronFailure(
            f"invariant vector has sign changes (negative mass {neg_mass:.2e}, "
            f"min {v.min():.2e} vs max {v.max():.2e})"
        )
    v = np.clip(v, 0.0, None)
    v = v / v.sum()
    residual = float(np.linalg.norm(g_mat.T @ v) / spla.norm(g_mat))
    return DiscreteGenerator(
        grid=grid,
        matrix=g_mat,
        rho=v,
        time_scheme=time_scheme,
        rho_residual=residual,
        perron_iterations=iterations,
        adjoint_lu=lu,
    )


@dataclass(frozen=True)
class SpectrumReport:
    """Right-most spectrum of the discrete generator."""

    eigenvalues: np.ndarray          # sorted by real part, descending
    axis_cluster: list               # [(k, eigenvalue), ...] matched to 2 pi i k / T
    gap_estimate: float              # max Re over eigenvalues outside the cluster
    residuals: np.ndarray            # residual norms of the reported leading pairs
    method: str

    def leading(self, m: int) -> np.ndarray:
        return self.eigenvalues[:m]

    def to_jsonable(self) -> dict:
        return {
            "eigenvalues": [[z.real, z.imag] for z in self.eigenvalues],
            "axis_cluster": [[int(k), z.real, z.imag] for k, z in self.axis_cluster],
            "gap_estimate": self.gap_estimate,
            "residuals": self.residuals.tolist(),
            "method": self.method,
        }


def _eig_residuals(g_mat: sp.csr_matrix, eigs: np.ndarray, n: int) -> np.ndarray:
    """Residual norms via one shifted inverse iteration per reported eigenvalue.

    G and the start vector are real, so the iteration at the conjugate of an
    eigenvalue is the conjugate of its own, and an exact conjugate of an
    eigenvalue already done reads that residual instead of a new factorization.
    """
    out = np.empty(len(eigs))
    eye = sp.identity(n, format="csc", dtype=complex)
    scale = spla.norm(g_mat)
    done = {}
    for i, lam in enumerate(eigs):
        if np.conj(lam) in done:
            out[i] = done[np.conj(lam)]
            continue
        shift = lam + 1e-8 * (1.0 + abs(lam))
        try:
            lu = spla.splu(sp.csc_matrix(g_mat.astype(complex) - shift * eye))
            v = lu.solve(np.random.default_rng(7).standard_normal(n) + 0j)
            for _ in range(2):
                v = lu.solve(v / np.linalg.norm(v))
            v = v / np.linalg.norm(v)
            out[i] = np.linalg.norm(g_mat @ v - lam * v) / scale
        except RuntimeError:
            out[i] = np.nan
        done[lam] = out[i]
    return out


def spectrum(
    gen: DiscreteGenerator,
    k: int = 25,
    cluster_tol: float = 1e-3,
    dense_cutoff: int = 4500,
    with_residuals: bool = False,
) -> SpectrumReport:
    """Right-most eigenvalues of the generator and the axis-cluster split.

    Dense below ``dense_cutoff`` unknowns, reading ``gen.dense_eigenvalues``,
    which solves the generator once however often it is asked; otherwise
    shift-inverted Arnoldi around 0.25 and 0.25 + 2 pi i / T to the relative
    tolerance ``ARNOLDI_TOL``, with the conjugates of the second solve
    standing for the one at 0.25 - 2 pi i / T.
    Sorting, cluster matching, the gap and the residuals run on every call.  The cluster is
    matched against the expected axis points ``2 pi i k / T`` for every
    resolvable k; the spectral-gap estimate is the largest real part outside
    the matched cluster.
    """
    g_mat = gen.matrix
    n = gen.size
    if n <= dense_cutoff:
        eigs = gen.dense_eigenvalues
        method = "dense"
    else:
        w = 2.0 * np.pi / gen.grid.period
        g_complex = g_mat.astype(complex)
        # a fixed pseudo-random Arnoldi start vector: without one ARPACK seeds
        # it from OS entropy, and a structured one (such as constants, which the
        # generator annihilates) can miss eigenvectors it is orthogonal to
        start = np.random.default_rng(7).standard_normal(n) + 0j
        found = []
        for sigma in (0.25, 0.25 + 1j * w):
            try:
                vals = spla.eigs(
                    g_complex, k=min(k, n - 2), sigma=sigma, v0=start, tol=ARNOLDI_TOL,
                    return_eigenvectors=False,
                )
            except Exception as exc:
                raise EigSolverFailure(f"shift-invert at {sigma}: {exc}") from exc
            found.append(vals)
        # G and the start vector are real, so the solve at 0.25 - i w would
        # return the conjugates of the one at 0.25 + i w, bit for bit
        found.append(np.conj(found[1]))
        eigs = np.concatenate(found)
        keep = []
        for z in eigs:
            if not any(abs(z - y) < 1e-9 * (1 + abs(z)) for y in keep):
                keep.append(z)
        eigs = np.array(keep)
        method = "shift-invert"

    # rounded-Re descending, then |Im| ascending: ladder bases come first
    order = np.lexsort((eigs.imag, np.abs(eigs.imag), -np.round(eigs.real, 3)))
    eigs = eigs[order]

    n_t = gen.grid.time_slices
    max_k = (n_t - 1) // 2 if n_t % 2 == 1 else n_t // 2 - 1
    w0 = 2.0 * np.pi / gen.grid.period
    cluster = []
    used = np.zeros(len(eigs), dtype=bool)
    for kk in range(-max_k, max_k + 1):
        target = 1j * w0 * kk
        dist = np.abs(eigs - target)
        dist[used] = np.inf
        j = int(np.argmin(dist))
        if dist[j] <= cluster_tol:
            cluster.append((kk, complex(eigs[j])))
            used[j] = True
    outside = eigs[~used]
    gap = float(outside.real.max()) if len(outside) else -np.inf

    leading = eigs[: min(k, len(eigs))]
    residuals = (
        _eig_residuals(g_mat, leading[: min(5, len(leading))], n)
        if with_residuals
        else np.zeros(0)
    )
    return SpectrumReport(
        eigenvalues=eigs,
        axis_cluster=cluster,
        gap_estimate=gap,
        residuals=residuals,
        method=method,
    )


def spectral_mapping_check(
    gen: DiscreteGenerator,
    field: PeriodicCoefficientField,
    report: SpectrumReport,
    substeps: int = 4,
) -> dict:
    """Compare exp(T * lambda_j) against the spectrum of the one-period slice map.

    Checks the 5 right-most generator eigenvalues of ``report`` plus the 3
    right-most eigenvalues outside the axis cluster (the axis points all map
    to the multiplier 1, so the non-axis rows carry the information).
    Returns the worst relative mismatch and per-row details; raises
    :class:`EigSolverFailure` when the eigensolve of the map fails.
    """
    grid = gen.grid
    mono = transition_matrix(field, grid, 0.0, grid.period, np.eye(grid.n_space), substeps)
    try:
        mults = np.linalg.eigvals(mono)
    except np.linalg.LinAlgError as exc:
        raise EigSolverFailure(f"one-period map: {exc}") from exc
    cluster_set = [z for _, z in report.axis_cluster]

    def mismatch(lam: complex) -> float:
        target = np.exp(grid.period * lam)
        return float(np.abs(mults - target).min() / max(abs(target), 1e-12))

    rows = []
    for lam in report.leading(5):
        rows.append({"lambda": complex(lam), "kind": "leading", "mismatch": mismatch(lam)})
    # only low-frequency ladder members test the mapping: near-Nyquist
    # collocation modes carry the time-discretization phase error instead
    w0 = 2.0 * np.pi / grid.period
    nonaxis = [
        z for z in report.eigenvalues
        if not any(abs(z - c) < 1e-12 for c in cluster_set)
        and abs(z.imag) <= 2 * w0
    ]
    for lam in nonaxis[:3]:
        rows.append({"lambda": complex(lam), "kind": "non-axis", "mismatch": mismatch(lam)})
    worst = max(r["mismatch"] for r in rows) if rows else np.nan
    return {"worst_mismatch": worst, "rows": rows}


def spatial_gradient(grid: SpaceTimeGrid, values: np.ndarray) -> np.ndarray:
    """Centered spatial gradient with Dirichlet zero padding: (..., n_space) -> (..., n_space, d)."""
    lead = values.shape[:-1]
    vals = values.reshape(lead + (grid.points_per_axis,) * grid.dim)
    out = np.zeros(vals.shape + (grid.dim,))
    for axis in range(len(lead), vals.ndim):
        padded = np.moveaxis(vals, axis, -1)
        zeros = np.zeros(padded.shape[:-1] + (1,))
        ext = np.concatenate([zeros, padded, zeros], axis=-1)
        der = (ext[..., 2:] - ext[..., :-2]) / (2.0 * grid.h)
        out[..., axis - len(lead)] = np.moveaxis(der, -1, axis)
    return out.reshape(lead + (grid.n_space, grid.dim))


def carre_du_champ_residual(
    gen: DiscreteGenerator, field: PeriodicCoefficientField, u: GridFunction
) -> float:
    """|sum rho (u G u) + sum rho <Q grad_h u, grad_h u>| for a grid function.

    Both terms are evaluated with the generator's own mass vector, so the
    exact space-time integration-by-parts identity holds up to the
    discretization defect, which is second order for smooth compactly
    supported data.
    """
    g_u = (gen.matrix @ u.ravel()).reshape(u.values.shape)
    grads = spatial_gradient(u.grid, u.values)
    nodes = u.grid.nodes()
    rho = gen.rho_slices()
    total = 0.0
    for j, s in enumerate(u.grid.slice_times()):
        q = np.asarray(field.q(s, nodes))
        qgrad = np.einsum("mij,mj->mi", q, grads[j])
        total += np.dot(rho[j], u.values[j] * g_u[j] + np.einsum("mi,mi->m", qgrad, grads[j]))
    return abs(float(total))


def solvability_residual(gen: DiscreteGenerator, f: np.ndarray) -> dict:
    """Solve G u = f0 and G u = f0 + 1 by ``gen.adjoint_lu``, f0 the rho-mean-zero part of f.

    The truncated generator leaks mass through the boundary, so it is
    nonsingular, and the Fredholm dichotomy shows in the solution sizes:
    ``||u|| <~ ||f0|| / |gap|`` for mean-zero data, while a unit mean excites
    the near-null invariant direction.  Returns the L^2(rho) norms ``data`` of
    f0 and ``zero_mean``, ``unit_mean`` of the solutions, and the relative
    L^2(rho) ``residual`` of the mean-zero solve.
    """
    f = np.asarray(f, dtype=float).ravel()
    f_zero = f - float(np.dot(gen.rho, f))
    u = gen.adjoint_lu.solve(np.column_stack([f_zero, f_zero + 1.0]), trans="T")
    u_zero, u_one = np.sqrt(gen.rho @ u**2)
    data = math.sqrt(float(gen.rho @ f_zero**2))
    misfit = gen.matrix @ u[:, 0] - f_zero
    residual = math.sqrt(float(gen.rho @ misfit**2)) / max(data, 1e-300)
    return {"data": data, "zero_mean": float(u_zero), "unit_mean": float(u_one),
            "residual": residual}
