"""Numerical certification of the standing assumptions on a coefficient field.

The checkers estimate, over a :class:`~periodiclab.fields.SamplePlan`,

* the ellipticity window ``eta0 = inf lambda_min(Q)``, ``Lambda = sup
  lambda_max(Q)``,
* a Lyapunov certificate ``L V <= a - c V`` for ``V = 1 + |x|^(2n)``,
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
    """Outcome of the Lyapunov search for V = 1 + |x|^(2n)."""

    n: int
    accepted: bool
    a: float | None
    c: float | None
    violations: list = dc_field(default_factory=list)

    @property
    def v_descriptor(self) -> str:
        return f"1+|x|^{2 * self.n}"

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
    lyapunov: LyapunovResult | None
    violations: list

    def to_jsonable(self) -> dict:
        payload = {
            "field": self.field_name,
            "r_max": self.r_max,
            "eta0_hat": self.eta0_hat,
            "lambda_hat": self.lambda_hat,
            "r0_hat": self.r0_hat,
            "zeta": {"times": self.zeta_times.tolist(), "values": self.zeta_values.tolist()},
            "ell_p_hat": {str(p): v for p, v in self.ell_p_hat.items()},
            "lyapunov": None,
            "violations": self.violations,
        }
        if self.lyapunov is not None:
            payload["lyapunov"] = {
                "accepted": self.lyapunov.accepted,
                "a": self.lyapunov.a,
                "c": self.lyapunov.c,
                "V": self.lyapunov.v_descriptor,
            }
        return payload


def _q_eigen_range(field: PeriodicCoefficientField, plan: SamplePlan):
    """Per-(time, point) extreme eigenvalues of Q over the whole plan."""
    pts = plan.points
    mins = np.empty((len(plan.times), len(pts)))
    maxs = np.empty_like(mins)
    for i, t in enumerate(plan.times):
        w = np.linalg.eigvalsh(np.asarray(field.q(t, pts)))
        mins[i] = w[:, 0]
        maxs[i] = w[:, -1]
    return mins, maxs


def ellipticity_bounds(field: PeriodicCoefficientField, plan: SamplePlan) -> tuple[float, float]:
    """Estimate (eta0, Lambda) = (inf lambda_min Q, sup lambda_max Q) on the plan.

    Raises :class:`NonPositiveDefinite` at the first sample where the smallest
    eigenvalue is nonpositive.
    """
    mins, maxs = _q_eigen_range(field, plan)
    i, j = np.unravel_index(np.argmin(mins), mins.shape)
    if mins[i, j] <= 0.0:
        raise NonPositiveDefinite(float(plan.times[i]), plan.points[j], float(mins[i, j]))
    return float(mins.min()), float(maxs.max())


def _lyapunov_terms(field: PeriodicCoefficientField, t: float, pts: np.ndarray, n: int):
    """(L V, V) for V = 1 + |x|^(2n), in closed form from Q and b."""
    q = np.asarray(field.q(t, pts))
    b = np.asarray(field.b(t, pts))
    if not np.all(np.isfinite(b)):
        bad = pts[~np.all(np.isfinite(b), axis=1)][0]
        raise UnboundedDrift(f"drift overflow at t={t}, x={bad}")
    r2 = np.sum(pts * pts, axis=1)
    tr_q = np.trace(q, axis1=1, axis2=2)
    bx = np.sum(b * pts, axis=1)
    av = 2.0 * n * r2 ** (n - 1) * (tr_q + bx)
    if n >= 2:
        qxx = np.einsum("mij,mi,mj->m", q, pts, pts)
        av += 2.0 * n * (2.0 * n - 2.0) * r2 ** (n - 2) * qxx
    v = 1.0 + r2**n
    return av, v


def lyapunov_check(field: PeriodicCoefficientField, plan: SamplePlan, n: int = 1) -> LyapunovResult:
    """Search the 1-2-5 rate grid for the strongest certificate L V <= a - c V.

    For each candidate c the radial-shell growth test rejects certificates
    whose slack ``L V + c V`` still increases at the outermost shells (the
    numerical signature of unboundedness).  Among surviving candidates the
    pair minimizing the moment bound a / c wins; ties prefer smaller c, then
    smaller a.  When every candidate fails, the worst offending shell samples
    are returned as violations.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    av_lat = np.empty((len(plan.times), len(plan.lattice)))
    v_lat = None
    ns, ms, d = plan.shell_points.shape
    shells_flat = plan.shell_points.reshape(ns * ms, d)
    av_sh = np.empty((len(plan.times), ns * ms))
    for i, t in enumerate(plan.times):
        av_lat[i], v_l = _lyapunov_terms(field, t, plan.lattice, n)
        av_sh[i], v_s = _lyapunov_terms(field, t, shells_flat, n)
        if v_lat is None:
            v_lat, v_shell = v_l, v_s

    candidates = []
    for c in C_GRID:
        g_lat = av_lat + c * v_lat
        g_sh = (av_sh + c * v_shell).reshape(len(plan.times), ns, ms)
        shell_max = g_sh.max(axis=(0, 2))  # (ns,)
        tol = 1e-9 * max(1.0, abs(float(shell_max[-1])))
        if ns >= 2 and shell_max[-1] > shell_max[-2] + tol:
            continue
        a = float(max(g_lat.max(), g_sh.max()))
        candidates.append((a / c, c, a))
    if candidates:
        _, c_best, a_best = min(candidates)
        return LyapunovResult(n=n, accepted=True, a=a_best, c=c_best)

    c = C_GRID[0]
    g_sh = (av_sh + c * v_shell).reshape(len(plan.times), ns, ms)
    i, j, k = np.unravel_index(np.argmax(g_sh), g_sh.shape)
    violations = [
        (float(plan.times[i]), plan.shell_points[j, k].tolist(), "LV+cV", float(g_sh[i, j, k]))
    ]
    return LyapunovResult(n=n, accepted=False, a=None, c=None, violations=violations)


def _r_values(field: PeriodicCoefficientField, plan: SamplePlan) -> np.ndarray:
    """r(s, x) = lambda_max of the symmetrized drift Jacobian, per (time, point)."""
    pts = plan.points
    out = np.empty((len(plan.times), len(pts)))
    for i, t in enumerate(plan.times):
        jac = field.grad_b_at(t, pts)
        sym = 0.5 * (jac + np.swapaxes(jac, 1, 2))
        out[i] = np.linalg.eigvalsh(sym)[:, -1]
    return out


def dissipativity_r0(field: PeriodicCoefficientField, plan: SamplePlan) -> float:
    """Estimate r0 = sup over the plan of the drift dissipativity quadratic form."""
    return float(_r_values(field, plan).max())


def _zeta_values(field: PeriodicCoefficientField, plan: SamplePlan) -> np.ndarray:
    """zeta(s) = sup_x max_ijk |D_k q_ij| / eta(s, x), one value per plan time."""
    if field.q_independent_of_x:
        return np.zeros(len(plan.times))
    if field.grad_q is None:
        raise MissingGradient(
            f"field {field.name!r} has x-dependent diffusion but no diffusion gradient"
        )
    pts = plan.points
    zeta = np.empty(len(plan.times))
    for i, t in enumerate(plan.times):
        gq = np.abs(np.asarray(field.grad_q(t, pts))).max(axis=(1, 2, 3))  # (m,)
        eta = np.linalg.eigvalsh(np.asarray(field.q(t, pts)))[:, 0]
        zeta[i] = float((gq / eta).max())
    return zeta


def ell_p(field: PeriodicCoefficientField, plan: SamplePlan, p: float) -> float:
    """Gradient-envelope constant ell_p over the plan.

    For x-independent diffusion zeta vanishes and the estimate collapses to
    r0 for every p (that case is also the only one where p = 1 is allowed).
    """
    r = _r_values(field, plan)
    zeta = _zeta_values(field, plan)
    if np.all(zeta == 0.0):
        return float(r.max())
    if p <= 1.0:
        raise ValueError("ell_p needs p > 1 unless the diffusion is x-independent")
    d3 = field.dim**3
    denom = 4.0 * min(p - 1.0, 1.0)
    eta = np.empty_like(r)
    for i, t in enumerate(plan.times):
        eta[i] = np.linalg.eigvalsh(np.asarray(field.q(t, plan.points)))[:, 0]
    return float((r + d3 * zeta[:, None] ** 2 * eta / denom).max())


def check_hypotheses(
    field: PeriodicCoefficientField,
    plan: SamplePlan,
    p_values: Sequence[float] = (1.5, 2.0, 4.0),
) -> HypothesisReport:
    """Run every checker, with the Lyapunov function 1 + |x|^2, and aggregate the report."""
    eta0, lam = ellipticity_bounds(field, plan)
    r0 = dissipativity_r0(field, plan)
    zeta = _zeta_values(field, plan)
    ells = {float(p): ell_p(field, plan, p) for p in p_values}
    lyap = lyapunov_check(field, plan)
    return HypothesisReport(
        field_name=field.name,
        r_max=plan.r_max,
        eta0_hat=eta0,
        lambda_hat=lam,
        r0_hat=r0,
        zeta_times=plan.times.copy(),
        zeta_values=zeta,
        ell_p_hat=ells,
        lyapunov=lyap,
        violations=list(lyap.violations),
    )
