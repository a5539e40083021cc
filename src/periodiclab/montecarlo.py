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
estimates, a tuple such as ("burn-in",), and ``generator`` turns the
seed and the name plus its block index into a Philox key (after Salmon et
al., SC'11), so two estimates share a stream only if they share a name.
A march is one block unless its caller splits it into equal blocks, and a
reduction reads one block.  Ensembles are bit-reproducible for a fixed
schedule; reductions are plain fixed-order sums.  Each block's generator
draws the normals of several steps in one call; a Philox stream is a pure
function of its key and counter, so this yields exactly the numbers of one
call per step, however the draws are buffered.
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
    """Monte Carlo knobs shared by every stochastic operation; the RNG block
    layout is an argument of each march instead (``_march``)."""

    n_particles: int = 10000
    dt: float = 0.005
    seed: int = 0
    horizon_periods: int = 20
    antithetic: bool = False

    def __post_init__(self):
        if self.n_particles < 100:
            raise ValueError("n_particles must be >= 100")
        if self.dt <= 0:
            raise ValueError("dt must be positive")

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


def _block_normals(seed: int, name: tuple, n: int, dim: int, blocks: int, antithetic: bool):
    """Endless iterator of per-step (n, dim) normals; the particles form
    ``blocks`` equal blocks, and block b draws from the stream ``name + (b,)``.

    Each block's generator draws up to ``_DRAW_STEPS`` steps in one call,
    fewer for large ensembles (where the per-call overhead is negligible),
    so that unpaired normals would fill at most ``_DRAW_FLOATS`` numbers or
    one step.  The draw buffer holds only what is drawn: under antithetic
    pairing the first half (rounded up) of each block, else the whole block.
    Each block is a contiguous (steps, half, dim) slab that its generator
    fills in place in one call; a Philox stream is a pure function of its
    key and counter, so the numbers equal those of one call per step.  Each
    step copies the drawn halves into one reused (n, dim) array and writes
    their mirrors with one negation.  The yielded array is the reused one:
    it may be overwritten in place and is valid until the next step.
    """
    m = n // blocks
    half = (m + 1) // 2 if antithetic else m
    gens = [generator(seed, *name, blk) for blk in range(blocks)]
    steps = min(_DRAW_STEPS, max(1, _DRAW_FLOATS // (n * dim)))
    z = np.empty((n, dim))
    rows = z.reshape(blocks, m, dim)
    slabs = np.empty((blocks, steps, half, dim))
    while True:
        for gen, slab in zip(gens, slabs):
            gen.standard_normal(out=slab)
        for k in range(steps):
            rows[:, :half] = slabs[:, k]
            np.negative(slabs[:, k, : m - half], out=rows[:, half:])
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


def _march(field, positions, jacobians, s, capture_times, config, stream, blocks=1):
    """Shared Euler-Maruyama loop on the noise of the stream named ``stream``;
    yields the live state at each requested time.

    The particles form ``blocks`` equal RNG blocks (``_block_normals``).  The
    march checks its preconditions when its first capture is asked for: dt
    at most T/50, no capture before s, blocks that split the particles
    evenly, and x-independent diffusion when it carries Jacobians.
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
    config.validated_for(field)
    if jacobians is not None and not field.q_independent_of_x:
        raise QNotXIndependent("tangent flow requires diffusion independent of x; "
                               "use finite differences instead")
    captures = sorted(set(float(t) for t in capture_times))
    if captures and captures[0] < s:
        raise ValueError("capture times must be >= start time")
    if len(positions) % blocks:
        raise ValueError(f"{len(positions)} particles do not split into {blocks} equal blocks")
    x = np.array(positions, dtype=float)
    jac = None if jacobians is None else np.array(jacobians, dtype=float)
    del positions, jacobians
    normals = _block_normals(config.seed, stream, len(x), field.dim, blocks, config.antithetic)
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


def sample_periodic_measure(
    field: PeriodicCoefficientField,
    phases,
    config: SimConfig,
    certificate: LyapunovResult,
    stream: tuple = ("periodic-measure",),
) -> list[ParticleEnsemble]:
    """Far-past approximations of the periodic invariant measures at ``phases``.

    One march starts a point mass at the origin ``horizon_periods`` full
    periods before phase 0 and runs on through the period, on the stream
    ``stream``; dissipativity erases the initialization, and since the
    measures form an evolution system (mu_t = mu_s P_{s,t}) its state at
    each phase is a sample of that phase's measure.  Returns one ensemble
    per distinct canonical phase (``field.phase``), in increasing order;
    each is stamped with its phase.  Particle i of every ensemble is one
    path, and the particles march as one RNG block.  The step schedule, and
    so the ensemble at a phase, depends on the other phases asked for, but
    not on the order they are given in.  The Lyapunov ``certificate``
    (``check_hypotheses(field, plan).lyapunov``) must be accepted.
    """
    if not certificate.accepted:
        raise NotDissipative(f"no Lyapunov certificate for field {field.name!r}")
    captures = sorted({field.phase(s) for s in phases})
    origin = np.zeros((config.n_particles, field.dim))
    start = -config.horizon_periods * field.period
    # the march yields its live state: copy each capture before resuming it
    return [ParticleEnsemble(t, pos.copy())
            for t, pos, _ in _march(field, origin, None, start, captures, config, stream)]


def antithetic_units(vals: np.ndarray) -> np.ndarray:
    """Collapse antithetically paired samples into independent units.

    ``vals`` is indexed by particle along its last axis, which is one RNG
    block of m samples: sample i pairs with sample i + ceil(m/2), and an odd
    block's middle sample stands alone.  Averaging a pair before computing
    spread gives the honest standard error under the mirrored-noise coupling.
    """
    m = vals.shape[-1]
    half = (m + 1) // 2
    pairs = 0.5 * (vals[..., : m - half] + vals[..., half:])
    return np.concatenate([pairs, vals[..., m - half : half]], axis=-1)


def mean_and_stderr(vals: np.ndarray, antithetic: bool):
    """Mean and standard error along the particle axis, one RNG block, pairing-aware."""
    units = antithetic_units(vals) if antithetic else vals
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
    """Joint particle/Jacobian flow, one RNG block on ``stream``; needs x-independent diffusion."""
    (t_out, pos, jac), = _march(field, ensemble.positions, ensemble.jacobians, s, [t], config, stream)
    return TangentEnsemble(t_out, pos, jac)

