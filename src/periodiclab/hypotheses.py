"""Numerical certification of the standing assumptions on a coefficient field.

:func:`check_hypotheses` estimates, in one pass over the times of a
:class:`~periodiclab.fields.SamplePlan` that reads Q, b, D b and (for
x-dependent Q) D Q once per time on all plan points,

* the ellipticity window ``eta0 = inf lambda_min(Q)``, ``Lambda = sup
  lambda_max(Q)``,
* a Lyapunov certificate ``L V <= a - c V`` for ``V = 1 + |x|^2``,
* the drift dissipativity bound ``r0 = sup lambda_max(sym grad b)``,
* the gradient-envelope constant
  ``ell_p = sup ( r(s,x) + d^3 zeta(s)^2 eta(s,x) / (4 min(p-1, 1)) )``,
  where ``zeta(s) = sup_x max_ijk |D_k q_ij(s,x)| / eta(s,x)``.

All suprema are over the plan, so a report certifies the field on the
declared radius only; the radial-shell growth test is the heuristic that
flags certificates that would fail at infinity.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Sequence

import numpy as np

from .errors import MissingGradient, NonPositiveDefinite, UnboundedDrift
from .fields import PeriodicCoefficientField, SamplePlan

#: log-spaced 1-2-5 candidate decay rates for the Lyapunov certificate
C_GRID = (0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0)


@dataclass(frozen=True)
class LyapunovResult:
    """Outcome of the Lyapunov search for V = 1 + |x|^2."""

    accepted: bool
    a: float | None
    c: float | None
    violations: list = dc_field(default_factory=list)

    def moment_bound(self) -> float:
        """The certified bound on int V d(mu_s): min V + a / c."""
        if not self.accepted:
            raise ValueError("no certificate accepted")
        return 1.0 + self.a / self.c


@dataclass
class HypothesisReport:
    """Aggregated certification of a field over one sample plan."""

    field_name: str
    r_max: float
    eta0_hat: float
    lambda_hat: float
    r0_hat: float
    zeta_times: np.ndarray
    zeta_values: np.ndarray
    ell_p_hat: dict
    lyapunov: LyapunovResult
    violations: list

    def to_jsonable(self) -> dict:
        return {
            "field": self.field_name,
            "r_max": self.r_max,
            "eta0_hat": self.eta0_hat,
            "lambda_hat": self.lambda_hat,
            "r0_hat": self.r0_hat,
            "zeta": {"times": self.zeta_times.tolist(), "values": self.zeta_values.tolist()},
            "ell_p_hat": {str(p): v for p, v in self.ell_p_hat.items()},
            "lyapunov": {
                "accepted": self.lyapunov.accepted,
                "a": self.lyapunov.a,
                "c": self.lyapunov.c,
                "V": "1+|x|^2",
            },
            "violations": self.violations,
        }


def _generator_of_v(t: float, pts: np.ndarray, q: np.ndarray, b: np.ndarray) -> np.ndarray:
    """L V for V = 1 + |x|^2, in closed form from Q and b at the points."""
    if not np.all(np.isfinite(b)):
        bad = pts[~np.all(np.isfinite(b), axis=1)][0]
        raise UnboundedDrift(f"drift overflow at t={t}, x={bad}")
    return 2.0 * (np.trace(q, axis1=1, axis2=2) + np.sum(b * pts, axis=1))


def _lyapunov_fit(lv: np.ndarray, v: np.ndarray, plan: SamplePlan) -> LyapunovResult:
    """Search the 1-2-5 rate grid for the strongest certificate L V <= a - c V.

    ``lv`` holds L V per (time, point of ``plan.points``) and ``v`` holds V
    per point; the lattice and the shells are the two slices of the points.
    For each candidate c the radial-shell growth test rejects certificates
    whose slack ``L V + c V`` still increases at the outermost shells (the
    numerical signature of unboundedness).  Among surviving candidates the
    pair minimizing the moment bound a / c wins; ties prefer smaller c, then
    smaller a.  When every candidate fails, the worst offending shell samples
    are returned as violations.
    """
    ns, ms, _ = plan.shell_points.shape
    n_lat = len(plan.lattice)
    candidates = []
    for c in C_GRID:
        g = lv + c * v
        shell_max = g[:, n_lat:].reshape(len(plan.times), ns, ms).max(axis=(0, 2))  # (ns,)
        tol = 1e-9 * max(1.0, abs(float(shell_max[-1])))
        if ns >= 2 and shell_max[-1] > shell_max[-2] + tol:
            continue
        a = float(g.max())
        candidates.append((a / c, c, a))
    if candidates:
        _, c_best, a_best = min(candidates)
        return LyapunovResult(accepted=True, a=a_best, c=c_best)

    g_sh = (lv + C_GRID[0] * v)[:, n_lat:].reshape(len(plan.times), ns, ms)
    i, j, k = np.unravel_index(np.argmax(g_sh), g_sh.shape)
    violations = [
        (float(plan.times[i]), plan.shell_points[j, k].tolist(), "LV+cV", float(g_sh[i, j, k]))
    ]
    return LyapunovResult(accepted=False, a=None, c=None, violations=violations)


def check_hypotheses(
    field: PeriodicCoefficientField,
    plan: SamplePlan,
    p_values: Sequence[float] = (1.5, 2.0, 4.0),
) -> HypothesisReport:
    """Certify every standing assumption in one pass over the plan times.

    Each time reads Q, b and D b once on the plan points, and D Q once when
    Q depends on x.  Faults are raised after the pass, most basic first:
    :class:`NonPositiveDefinite` at the smallest eigenvalue of Q over the
    plan, :class:`MissingGradient` for x-dependent Q without its gradient,
    ``ValueError`` for p <= 1 when zeta does not vanish, and
    :class:`UnboundedDrift` at the first drift overflow.
    """
    pts = plan.points
    shape = (len(plan.times), len(pts))
    eta, lam, r, lv = (np.empty(shape) for _ in range(4))
    need_grad_q = not field.q_independent_of_x
    grad_q_max = np.zeros(shape)
    overflow = None
    for i, t in enumerate(plan.times):
        q = np.asarray(field.q(t, pts))
        w = np.linalg.eigvalsh(q)
        eta[i], lam[i] = w[:, 0], w[:, -1]
        jac = field.grad_b_at(t, pts)
        r[i] = np.linalg.eigvalsh(0.5 * (jac + np.swapaxes(jac, 1, 2)))[:, -1]
        if need_grad_q and field.grad_q is not None:
            grad_q_max[i] = np.abs(np.asarray(field.grad_q(t, pts))).max(axis=(1, 2, 3))
        try:
            lv[i] = _generator_of_v(t, pts, q, np.asarray(field.b(t, pts)))
        except UnboundedDrift as exc:
            overflow = overflow or exc

    i, j = np.unravel_index(np.argmin(eta), shape)
    if eta[i, j] <= 0.0:
        raise NonPositiveDefinite(float(plan.times[i]), pts[j], float(eta[i, j]))
    if need_grad_q and field.grad_q is None:
        raise MissingGradient(
            f"field {field.name!r} has x-dependent diffusion but no diffusion gradient"
        )
    # zeta(s) = sup_x max_ijk |D_k q_ij| / eta(s, x); zero makes every ell_p equal r0
    zeta = (grad_q_max / eta).max(axis=1)
    zeta_vanishes = np.all(zeta == 0.0)
    ells = {}
    for p in p_values:
        if zeta_vanishes:
            ells[float(p)] = float(r.max())
        elif p <= 1.0:
            raise ValueError("ell_p needs p > 1 unless the diffusion is x-independent")
        else:
            envelope = field.dim**3 * zeta[:, None] ** 2 * eta / (4.0 * min(p - 1.0, 1.0))
            ells[float(p)] = float((r + envelope).max())
    if overflow is not None:
        raise overflow
    lyap = _lyapunov_fit(lv, 1.0 + np.sum(pts * pts, axis=1), plan)
    return HypothesisReport(
        field_name=field.name,
        r_max=plan.r_max,
        eta0_hat=float(eta.min()),
        lambda_hat=float(lam.max()),
        r0_hat=float(r.max()),
        zeta_times=plan.times.copy(),
        zeta_values=zeta,
        ell_p_hat=ells,
        lyapunov=lyap,
        violations=list(lyap.violations),
    )
