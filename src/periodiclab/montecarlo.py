"""Euler-Maruyama particle realization of the evolution operator.

Particles follow  X <- X + b(r, X) dt + sigma(r, X) sqrt(dt) xi  with
sigma sigma^T = 2 Q (the operator carries Q, not Q/2, on second derivatives).
The law of the walk depends on sigma only through sigma sigma^T, so sigma is
sqrt(2 Q) in d = 1, the lower Cholesky factor of 2 Q in d = 2 and the
symmetric square root in d >= 3.  A field that declares its diffusion
isotropic (``q_scalar``, Q = q I) gets sigma = sqrt(2 q) I: one root per
particle scales its normals, with no matrix built or factored.
Noise is drawn from counter-based Philox streams, one per RNG block.  This
module is the one place that keys them: a caller names what a stream
estimates, a tuple such as ("phase", 0.375), and ``generator`` turns the
seed and the name plus its block index into a Philox key (after Salmon et
al., SC'11), so two estimates share a stream only if they share a name.
Ensembles are bit-reproducible for a fixed schedule regardless of how
particle blocks are traversed; reductions are plain fixed-order sums.  Each
block's generator draws the normals of several steps in one call; a Philox
stream is a pure function of its key and counter, so this yields exactly
the numbers of one call per step, however the draws are buffered.
A march holds one copy of its state, updated in place one step at a time
and yielded live at each capture; a draw buffer with only the drawn half
of each antithetic block; one (n, d) step array that the mirrored halves
are written into and the noise factor scales in place; and drift, work and
Jacobian-step arrays reused across steps.  The arrays the field callables
return are only read.
"""

from __future__ import annotations

import math
import operator
import struct
from dataclasses import dataclass

import numpy as np

from .errors import Blowup, NonPositiveDefinite, NotDissipative, QNotXIndependent
from .fields import PeriodicCoefficientField
from .hypotheses import LyapunovResult

OVERFLOW_GUARD = 1e8
_DRAW_STEPS = 8  # steps of normals each block generator draws per call ...
_DRAW_FLOATS = 1 << 19  # ... unless that many unpaired normals pass 4 MiB


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo knobs shared by every stochastic operation."""

    n_particles: int = 10000
    dt: float = 0.005
    seed: int = 0
    horizon_periods: int = 20
    antithetic: bool = False
    block_size: int = 16384

    def __post_init__(self):
        if self.n_particles < 100:
            raise ValueError("n_particles must be >= 100")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.block_size < 1:
            raise ValueError("block_size must be >= 1")

    def validated_for(self, field: PeriodicCoefficientField) -> "SimConfig":
        if self.dt > field.period / 50.0:
            raise ValueError(f"dt={self.dt} exceeds T/50={field.period / 50.0}")
        return self


@dataclass(frozen=True)
class ParticleEnsemble:
    """Equal-weight particle cloud at one time stamp."""

    t: float
    positions: np.ndarray  # (n, d)

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2:
            raise ValueError("positions must have shape (n, d)")
        if not np.all(np.isfinite(pos)) or not math.isfinite(self.t):
            raise ValueError("ensemble contains non-finite entries")
        object.__setattr__(self, "positions", pos)

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    @property
    def dim(self) -> int:
        return self.positions.shape[1]


@dataclass(frozen=True)
class TangentEnsemble(ParticleEnsemble):
    """Particles carrying the Jacobian of the stochastic flow."""

    jacobians: np.ndarray = None  # (n, d, d)

    def __post_init__(self):
        super().__post_init__()
        jac = np.asarray(self.jacobians, dtype=float)
        if jac.shape != (self.n, self.dim, self.dim) or not np.all(np.isfinite(jac)):
            raise ValueError("jacobians must be finite with shape (n, d, d)")
        object.__setattr__(self, "jacobians", jac)

    @staticmethod
    def identity(t: float, positions: np.ndarray) -> "TangentEnsemble":
        pos = np.atleast_2d(np.asarray(positions, dtype=float))
        n, d = pos.shape
        return TangentEnsemble(t, pos, np.broadcast_to(np.eye(d), (n, d, d)).copy())


def _word(part) -> int:
    """One part of a stream name as a nonnegative integer: a string's UTF-8
    bytes read little-endian, a float's IEEE-754 bits, an integer itself."""
    if isinstance(part, str):
        return int.from_bytes(part.encode(), "little")
    if isinstance(part, float):
        return struct.unpack("<Q", struct.pack("<d", part))[0]
    return operator.index(part)


def generator(seed: int, *name) -> np.random.Generator:
    """The Philox generator of the stream ``name`` under ``seed``.

    A name is a tuple of strings, integers and floats that says what the
    stream estimates.  The 128-bit key is ``generate_state(2, uint64)`` of
    ``SeedSequence(seed mod 2**64, spawn_key=words)``, with each part of the
    name as one word (``_word``), and the counter starts at 0; so distinct
    names give independent streams, and no stream id is chosen by hand.
    """
    words = tuple(_word(part) for part in name)
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence(seed & 0xFFFFFFFFFFFFFFFF, spawn_key=words)))


def _block_normals(seed: int, name: tuple, n: int, dim: int, block_size: int, antithetic: bool):
    """Endless iterator of per-step (n, dim) normals; block b of the particles
    draws from the stream ``name + (b,)``.

    Each block's generator draws up to ``_DRAW_STEPS`` steps in one call,
    fewer for large ensembles (where the per-call overhead is negligible),
    so that unpaired normals would fill at most ``_DRAW_FLOATS`` numbers or
    one step.  The draw buffer holds only what is drawn: under antithetic
    pairing the first half (rounded up) of each block, else the whole block.
    Blocks of one size lie side by side, each a contiguous (steps, half, dim)
    slab that its generator fills in place in one call; a Philox stream is
    a pure function of its key and counter, so the numbers equal those of
    one call per step.  Each step copies the drawn halves into one reused
    (n, dim) array and writes their mirrors with one negation per block
    size.  The yielded array is the reused one: it may be overwritten in
    place and is valid until the next step.
    """
    gens = [generator(seed, *name, blk) for blk in range((n + block_size - 1) // block_size)]
    steps = min(_DRAW_STEPS, max(1, _DRAW_FLOATS // (n * dim)))
    # (count, size, drawn) of the whole blocks and of a ragged last block
    groups = [(count, m, (m + 1) // 2 if antithetic else m)
              for count, m in ((n // block_size, block_size), (1, n % block_size)) if count and m]
    z = np.empty((n, dim))
    rows, lo = [], 0
    for count, m, _ in groups:
        rows.append(z[lo : lo + count * m].reshape(count, m, dim))
        lo += count * m
    buf = np.empty(steps * dim * sum(count * half for count, _, half in groups))
    slabs, off = [], 0
    for count, _, half in groups:
        size = count * steps * half * dim
        slabs.append(buf[off : off + size].reshape(count, steps, half, dim))
        off += size
    while True:
        for gen, block in zip(gens, (block for slab in slabs for block in slab)):
            gen.standard_normal(out=block)
        for k in range(steps):
            for (_, m, half), slab, row in zip(groups, slabs, rows):
                row[:, :half] = slab[:, k]
                np.negative(slab[:, k, : m - half], out=row[:, half:])
            yield z


def _lower_factor_2x2(q: np.ndarray, normals: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Overwrite (n, 2) ``normals`` z by L z, with L the lower Cholesky factor of 2 q.

    ``q`` is an (m, 2, 2) stack with m = n or 1; L is applied row by row on
    (n,) columns: l00 = sqrt(2 q00), l10 = 2 q10 / l00 and
    l11 = sqrt(2 q11 - l10^2).  A Q that is not positive semidefinite makes a
    negative q00 or 2 q11 - l10^2, so the noise turns NaN.  ``work`` is an
    (n,) scratch array for l10 z0.
    """
    l00 = q[:, 0, 0] * 2.0
    np.sqrt(l00, out=l00)
    l10 = q[:, 1, 0] * 2.0
    l10 /= l00
    l11 = q[:, 1, 1] * 2.0
    l11 -= l10 * l10
    np.sqrt(l11, out=l11)
    z0, z1 = normals.T
    z1 *= l11
    z1 += np.multiply(l10, z0, out=work)
    z0 *= l00
    return normals


def _sqrt_spd_batch(mats: np.ndarray) -> np.ndarray:
    """Symmetric square roots of a batch of SPD matrices; a negative eigenvalue gives NaN."""
    if mats.shape[-1] == 1:
        return np.sqrt(mats)
    w, v = np.linalg.eigh(mats)
    return (v * np.sqrt(w)[:, None, :]) @ np.swapaxes(v, -1, -2)


def _noise_increment(field, r, positions, normals, sqrt_dt, work):
    """sqrt(dt) sigma(r, x) xi with sigma sigma^T = 2 Q; ``normals`` may be overwritten.

    Only sigma sigma^T enters the law of the walk, so sigma is whichever
    factor is cheapest: sqrt(2 q) I for an x-dependent isotropic Q (one root
    per particle, applied in place one column at a time), sqrt(2 Q) in
    d = 1, the lower Cholesky factor of 2 Q in d = 2 (applied in place) and
    the symmetric root in d >= 3.  The isotropic path keeps the Cholesky
    path's operation order (its l10 is 0 and l11 = l00), so it gives the
    same numbers bit for bit.  ``work`` is an (n,) scratch array.
    """
    d = field.dim
    if field.q_independent_of_x:
        q = np.asarray(field.q(r, np.zeros((1, d))))
        normals *= sqrt_dt
        if d == 1:
            normals *= np.sqrt(2.0 * q[0, 0, 0])
            return normals
        if d == 2:
            return _lower_factor_2x2(q, normals, work)
        return normals @ _sqrt_spd_batch(2.0 * q)[0].T
    if field.q_scalar is not None:
        root = np.multiply(field.q_scalar(r, positions), 2.0, out=work)
        np.sqrt(root, out=root)
        for j in range(d):
            normals[:, j] *= root
        normals *= sqrt_dt
        return normals
    q = np.asarray(field.q(r, positions))
    if d == 2:
        normals = _lower_factor_2x2(q, normals, work)
        normals *= sqrt_dt
        return normals
    return sqrt_dt * np.einsum("nij,nj->ni", _sqrt_spd_batch(2.0 * q), normals)


def _check_spd(field, r, positions):
    """Raise ``NonPositiveDefinite`` at the least eigenvalue of Q on a sample of positions."""
    sample = positions[:: max(1, len(positions) // 16)]
    if field.q_scalar is not None:
        low = np.asarray(field.q_scalar(r, sample))
    else:
        low = np.linalg.eigvalsh(np.asarray(field.q(r, sample)))[:, 0]
    if low.min() <= 0.0:
        bad = int(np.argmin(low))
        raise NonPositiveDefinite(r, sample[bad], float(low[bad]))


def _march(field, positions, jacobians, s, capture_times, config, stream):
    """Shared Euler-Maruyama loop on the noise of the stream named ``stream``;
    yields the live state at each requested time.

    Each segment from r to the next capture takes
    ``floor((target - r)/dt + 1e-9)`` full steps of config.dt, then one
    partial step when more than ``1e-9 dt`` is left, so a segment's schedule
    (and the noise it draws) depends on its start, its target and dt alone,
    not on the other captures.  Yields (t, positions, jacobians) in time
    order; the arrays are the march's one copy of its state, updated in
    place, so a caller reads (or copies) them before it resumes the march.
    Do not collect the captures unread (``list(_march(...))``): every one
    of them would hold the final state.
    The march drops its references to the starting arrays once it has
    copied them, and reuses its drift, noise and Jacobian scratch arrays
    across steps; arrays returned by the field callables are only read.
    """
    captures = sorted(set(float(t) for t in capture_times))
    if captures and captures[0] < s:
        raise ValueError("capture times must be >= start time")
    x = np.array(positions, dtype=float)
    jac = None if jacobians is None else np.array(jacobians, dtype=float)
    del positions, jacobians
    normals = _block_normals(config.seed, stream, len(x), field.dim, config.block_size,
                             config.antithetic)
    drift = np.empty_like(x)
    work = np.empty(len(x))
    jac_step = None if jac is None else np.empty_like(jac)
    r = s
    step_count = 0
    _check_spd(field, s, x)
    for target in captures:
        n_full = math.floor((target - r) / config.dt + 1e-9)
        rest = (target - r) - n_full * config.dt
        for dt in [config.dt] * n_full + ([rest] if rest > 1e-9 * config.dt else []):
            step_count += 1
            if step_count % 64 == 0:
                _check_spd(field, r, x)
            z = next(normals)
            if jac is not None:
                gb = field.grad_b_at(r, x)
                if field.dim == 1:
                    np.multiply(gb, jac, out=jac_step)
                else:
                    np.einsum("nij,njk->nik", gb, jac, out=jac_step)
                jac_step *= dt
                jac += jac_step
            # the noise is read at the old positions before x moves
            noise = _noise_increment(field, r, x, z, math.sqrt(dt), work)
            x += np.multiply(field.b(r, x), dt, out=drift)
            x += noise
            r = r + dt
            peak = max(x.max(), -x.min())
            if not np.isfinite(peak) or peak > OVERFLOW_GUARD:
                raise Blowup(r, float(peak))
        r = target
        yield target, x, jac


def evolve(
    field: PeriodicCoefficientField,
    ensemble: ParticleEnsemble,
    s: float,
    t: float,
    config: SimConfig,
    stream: tuple = ("evolve",),
) -> ParticleEnsemble:
    """Push an ensemble from its time stamp s to t >= s on the stream ``stream``."""
    if not math.isclose(ensemble.t, s, rel_tol=0.0, abs_tol=1e-12):
        raise ValueError(f"ensemble time stamp {ensemble.t} does not match s={s}")
    if t < s:
        raise ValueError("evolve requires t >= s")
    config.validated_for(field)
    (t_out, pos, _), = _march(field, ensemble.positions, None, s, [t], config, stream)
    return ParticleEnsemble(t_out, pos)


def sample_periodic_measure(
    field: PeriodicCoefficientField,
    s: float,
    config: SimConfig,
    certificate: LyapunovResult,
    stream: tuple = ("periodic-measure",),
) -> ParticleEnsemble:
    """Far-past approximation of the periodic invariant measure at phase s.

    A point mass at the origin is evolved over ``horizon_periods`` full
    periods ending at the canonical phase of s, on the stream ``stream``;
    dissipativity erases the initialization.  The Lyapunov ``certificate``
    (``check_hypotheses(field, plan).lyapunov``) must be accepted.
    """
    config.validated_for(field)
    if not certificate.accepted:
        raise NotDissipative(f"no Lyapunov certificate for field {field.name!r}")
    phase = field.phase(s)
    start = phase - config.horizon_periods * field.period
    (t_out, pos, _), = _march(
        field,
        np.zeros((config.n_particles, field.dim)),
        None,
        start,
        [phase],
        config,
        stream,
    )
    return ParticleEnsemble(t_out, pos)


def antithetic_units(vals: np.ndarray, block_size: int) -> np.ndarray:
    """Collapse antithetically paired samples into independent units.

    Pairs live at (lo + i, lo + half + i) within each RNG block; averaging a
    pair before computing spread gives the honest standard error under the
    mirrored-noise coupling.  ``vals`` is indexed by particle along the last
    axis.
    """
    n = vals.shape[-1]
    units = []
    lo = 0
    while lo < n:
        hi = min(lo + block_size, n)
        m = hi - lo
        half = (m + 1) // 2
        paired = m - half
        a = vals[..., lo : lo + paired]
        b = vals[..., lo + half : hi]
        units.append(0.5 * (a + b))
        if half > paired:
            units.append(vals[..., lo + paired : lo + half])
        lo = hi
    return np.concatenate(units, axis=-1)


def mean_and_stderr(vals: np.ndarray, antithetic: bool, block_size: int):
    """Mean and standard error along the particle axis, pairing-aware."""
    units = antithetic_units(vals, block_size) if antithetic else vals
    mean = units.mean(axis=-1)
    se = units.std(axis=-1, ddof=1) / math.sqrt(units.shape[-1])
    return mean, se


def evolve_tangent(
    field: PeriodicCoefficientField,
    ensemble: TangentEnsemble,
    s: float,
    t: float,
    config: SimConfig,
    stream: tuple = ("evolve-tangent",),
) -> TangentEnsemble:
    """Joint particle/Jacobian flow on the stream ``stream``; needs x-independent diffusion."""
    if not field.q_independent_of_x:
        raise QNotXIndependent(
            "tangent flow requires diffusion independent of x; use finite differences instead"
        )
    config.validated_for(field)
    (t_out, pos, jac), = _march(field, ensemble.positions, ensemble.jacobians, s, [t], config, stream)
    return TangentEnsemble(t_out, pos, jac)

