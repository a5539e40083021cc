"""In-memory span recorder and the wrappers that put it around periodiclab's layers.

Nothing under ``src/`` knows about tracing: ``install`` replaces public
functions and methods of the package's modules with wrappers that open a span
(name, start, end, parent) around each call and bump exact work counters.
Spans stay in memory until the run ends; ``derive_metrics`` then turns them
into per-layer total time, self time, call counts and work ratios.

A span's self time is its duration minus the part of its interval covered by
its child spans.  Every span of one scenario run nests below the experiment
dispatch, so the layer self times plus ``scenarios.unattributed_s`` (run time
outside any span: the runner and report writing) add up to the run time.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import time
from collections import Counter

import numpy as np

# Wrapped calls, in the order the per-layer metrics are listed.  The Monte
# Carlo profile is named by its ``gradients`` argument when it is called, the
# spectrum by ``report.method`` when it returns.
SPAN_NAMES = [
    "montecarlo.sample_periodic_measure",
    "montecarlo.evolve_tangent",
    "engines.MonteCarloEngine.transfer_profile",
    "engines.MonteCarloEngine.transfer_profile_grad",
    "engines.MonteCarloEngine.phase_ensemble",
    "engines.GridEngine.transfer_profile",
    "engines.OUExactEngine.transfer_profile",
    "grid.build_generator",
    "grid.spectrum_dense",
    "grid.spectrum_shift_invert",
    "grid.transition_matrix",
    "grid.spectral_mapping_check",
    "grid.solvability_residual",
    "grid.carre_du_champ_residual",
    "ougaussian.periodic_system",
    "ougaussian.apply",
    "hypotheses.check_hypotheses",
    "diagnostics.contraction_invariance_report",
    "diagnostics.pointwise_gradient_check",
    "diagnostics.rate_equivalence_check",
    "diagnostics.PhaseMeasures.from_engine",
    "diagnostics.poincare_ratio",
    "diagnostics.logsob_ratio",
    "diagnostics.core_on_grid",
    "diagnostics.fit_rate",
    "fields.b",
    "fields.q",
    "fields.grad_b",
    "scenarios.dispatch",
]

LAYERS = ["montecarlo", "engines", "grid", "ougaussian", "hypotheses", "diagnostics",
          "fields", "scenarios"]

# Monte Carlo spans that march particles, by the kind of step they take.
VALUE_SPANS = {"montecarlo.sample_periodic_measure",
               "engines.MonteCarloEngine.transfer_profile",
               "engines.MonteCarloEngine.phase_ensemble"}
TANGENT_SPANS = {"montecarlo.evolve_tangent",
                 "engines.MonteCarloEngine.transfer_profile_grad"}
MC_SPANS = VALUE_SPANS | TANGENT_SPANS

COUNT_NAMES = [
    "montecarlo.value_particle_steps",
    "montecarlo.tangent_particle_steps",
    "grid.generator_unknowns",
    "grid.generator_nnz",
    "grid.cn_column_steps",
    "grid.spectrum_repeat_calls",
    "ougaussian.quadrature_points",
    "hypotheses.plan_points",
    "diagnostics.fit_refusals",
    "fields.b.points",
    "fields.q.points",
    "fields.grad_b.points",
]
# exact counts, which must repeat between runs of one seed
WORK_COUNTS = COUNT_NAMES + [f"{name}.calls" for name in SPAN_NAMES]


class Recorder:
    """Spans of one run kept in memory: ``[name, start, end, parent]`` rows.

    ``parent`` is the row index of the enclosing span, or -1 at top level;
    every span of the recorder belongs to the run ``run_id``.  Counters are
    bumped at the same boundaries as the spans.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._solved: dict = {}     # (id(generator), k) -> generator, kept alive

    def call(self, name, fn, args, kwargs, on_return=None):
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        row = [name, 0.0, 0.0, parent]
        self.spans.append(row)
        self.stack.append(idx)
        row[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            row[2] = time.perf_counter()
            self.stack.pop()
        if on_return is not None:
            renamed = on_return(args, kwargs, result)
            if renamed:
                row[0] = renamed
        return result

    def nearest_mc_span(self) -> str | None:
        for idx in reversed(self.stack):
            name = self.spans[idx][0]
            if name in MC_SPANS:
                return name
        return None

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "columns": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)


def _rows(points) -> int:
    return int(np.atleast_2d(np.asarray(points)).shape[0])


def _span_wrapper(rec: Recorder, name, fn, on_return=None, on_call=None):
    """``name`` is a span name, or a function of the call's arguments giving one."""
    def wrapper(*args, **kwargs):
        if on_call is not None:
            on_call(args, kwargs)
        span_name = name(args, kwargs) if callable(name) else name
        return rec.call(span_name, fn, args, kwargs, on_return)
    return wrapper


def _patch(missing: list, owner, attr: str, make):
    """Replace ``owner.attr`` with ``make(original)``; note names that are gone."""
    original = getattr(owner, attr, None)
    if original is None:
        missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return
    setattr(owner, attr, make(original))


def install(rec: Recorder, pkg) -> list[str]:
    """Wrap the public calls of ``pkg``'s modules; returns names not found.

    ``pkg`` is a namespace with the modules ``montecarlo``, ``engines``,
    ``grid``, ``ougaussian``, ``hypotheses``, ``diagnostics`` and
    ``scenarios``.  The field built for the run is wrapped through
    ``scenarios.build_field``, so every consumer sees the traced callables.
    """
    from periodiclab.errors import DegenerateWindow, NoiseFloor

    missing: list[str] = []
    mc, eng, grid, ou = pkg.montecarlo, pkg.engines, pkg.grid, pkg.ougaussian
    hyp, dg, sc = pkg.hypotheses, pkg.diagnostics, pkg.scenarios

    def span(name, on_return=None, on_call=None):
        return lambda fn: _span_wrapper(rec, name, fn, on_return, on_call)

    # montecarlo + engines (Monte Carlo)
    _patch(missing, mc, "sample_periodic_measure", span("montecarlo.sample_periodic_measure"))
    _patch(missing, mc, "evolve_tangent", span("montecarlo.evolve_tangent"))

    def mc_profile_name(args, kwargs):
        # named before the call: the step counters read the kind of march
        grads = kwargs.get("gradients", args[4] if len(args) > 4 else False)
        return ("engines.MonteCarloEngine.transfer_profile_grad" if grads
                else "engines.MonteCarloEngine.transfer_profile")

    _patch(missing, eng.MonteCarloEngine, "transfer_profile", span(mc_profile_name))
    _patch(missing, eng.MonteCarloEngine, "phase_ensemble",
           span("engines.MonteCarloEngine.phase_ensemble"))
    _patch(missing, eng.GridEngine, "transfer_profile", span("engines.GridEngine.transfer_profile"))
    _patch(missing, eng.OUExactEngine, "transfer_profile",
           span("engines.OUExactEngine.transfer_profile"))

    # grid
    def count_generator(args, kwargs, gen):
        rec.counts["grid.generator_unknowns"] += int(gen.matrix.shape[0])
        rec.counts["grid.generator_nnz"] += int(gen.matrix.nnz)

    _patch(missing, grid, "build_generator", span("grid.build_generator", count_generator))

    spectrum_sig = inspect.signature(grid.spectrum) if hasattr(grid, "spectrum") else None

    def count_repeat(args, kwargs):
        bound = spectrum_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        gen = bound.arguments["gen"]
        key = (id(gen), bound.arguments["k"])
        if key in rec._solved:
            rec.counts["grid.spectrum_repeat_calls"] += 1
        rec._solved[key] = gen

    def spectrum_name(args, kwargs, report):
        return "grid.spectrum_dense" if report.method == "dense" else "grid.spectrum_shift_invert"

    _patch(missing, grid, "spectrum", span("grid.spectrum", spectrum_name, count_repeat))
    for attr in ("transition_matrix", "spectral_mapping_check", "solvability_residual",
                 "carre_du_champ_residual"):
        _patch(missing, grid, attr, span(f"grid.{attr}"))

    def counting_cn_step(fn):
        def wrapper(a_now, a_next, dt, u):
            rec.counts["grid.cn_column_steps"] += 1 if np.ndim(u) == 1 else int(np.shape(u)[1])
            return fn(a_now, a_next, dt, u)
        return wrapper

    # one Crank-Nicolson solve, counted per right-hand side (no span)
    _patch(missing, grid, "_cn_step", counting_cn_step)

    # ougaussian + engines (exact)
    _patch(missing, ou, "periodic_system", span("ougaussian.periodic_system"))
    _patch(missing, ou, "apply", span("ougaussian.apply"))

    def counting_hermite(fn):
        def wrapper(*args, **kwargs):
            pts, w = fn(*args, **kwargs)
            rec.counts["ougaussian.quadrature_points"] += len(w)
            return pts, w
        return wrapper

    # every Gauss-Hermite rule built, counted in nodes (no span)
    _patch(missing, ou, "hermite_nodes", counting_hermite)

    # hypotheses
    def count_plan(args, kwargs):
        plan = kwargs.get("plan", args[1] if len(args) > 1 else None)
        rec.counts["hypotheses.plan_points"] += len(plan.points) * len(plan.times)

    _patch(missing, hyp, "check_hypotheses", span("hypotheses.check_hypotheses",
                                                   on_call=count_plan))

    # diagnostics
    for attr in ("contraction_invariance_report", "pointwise_gradient_check",
                 "rate_equivalence_check", "poincare_ratio", "logsob_ratio", "core_on_grid"):
        _patch(missing, dg, attr, span(f"diagnostics.{attr}"))
    if hasattr(dg, "PhaseMeasures") and hasattr(dg.PhaseMeasures, "from_engine"):
        dg.PhaseMeasures.from_engine = staticmethod(_span_wrapper(
            rec, "diagnostics.PhaseMeasures.from_engine", dg.PhaseMeasures.from_engine))
    else:
        missing.append("diagnostics.PhaseMeasures.from_engine")

    def counting_fit(fn):
        def wrapper(*args, **kwargs):
            try:
                return rec.call("diagnostics.fit_rate", fn, args, kwargs)
            except (NoiseFloor, DegenerateWindow):
                rec.counts["diagnostics.fit_refusals"] += 1
                raise
        return wrapper

    _patch(missing, dg, "fit_rate", counting_fit)

    # fields: the callables of the field the run builds
    def field_wrapper(attr, fn):
        name = f"fields.{attr}"

        def wrapper(t, X, *rest):
            rows = _rows(X)
            rec.counts[f"{name}.points"] += rows
            if attr in ("b", "grad_b"):
                kind = rec.nearest_mc_span()
                if attr == "b" and kind in VALUE_SPANS:
                    rec.counts["montecarlo.value_particle_steps"] += rows
                elif attr == "grad_b" and kind in TANGENT_SPANS:
                    rec.counts["montecarlo.tangent_particle_steps"] += rows
            return rec.call(name, fn, (t, X, *rest), {})
        return wrapper

    def traced_build_field(fn):
        def wrapper(*args, **kwargs):
            field, model = fn(*args, **kwargs)
            changes = {attr: field_wrapper(attr, getattr(field, attr))
                       for attr in ("b", "q", "grad_b") if getattr(field, attr) is not None}
            return dataclasses.replace(field, **changes), model
        return wrapper

    _patch(missing, sc, "build_field", traced_build_field)
    return missing


def wrap_dispatch(scenarios, on_experiment, rec: Recorder | None = None):
    """Time every experiment at the runner's dispatch boundary.

    ``on_experiment(name, seconds)`` receives the report name of each
    experiment (a repeated experiment gets ``-2``, ``-3`` as in the report
    files).  With a recorder the dispatch is also a ``scenarios.dispatch`` span.
    A package without the runner table is left as it is.
    """
    runners = getattr(scenarios, "_RUNNERS", {})
    for exp_name, runner in list(runners.items()):
        def timed(ctx, spec, _runner=runner):
            specs = ctx.doc["experiments"]
            i = next(k for k, other in enumerate(specs) if other is spec)
            n = sum(1 for other in specs[: i + 1] if other["name"] == spec["name"])
            report_name = spec["name"] if n == 1 else f"{spec['name']}-{n}"
            t0 = time.perf_counter()
            try:
                if rec is None:
                    return _runner(ctx, spec)
                return rec.call("scenarios.dispatch", _runner, (ctx, spec), {})
            finally:
                on_experiment(report_name, time.perf_counter() - t0)
        runners[exp_name] = timed


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[list]) -> list[float]:
    """Per span: duration minus the part of it covered by its child spans."""
    children: dict[int, list] = {}
    for row in spans:
        if row[3] >= 0:
            children.setdefault(row[3], []).append((row[1], row[2]))
    return [(row[2] - row[1]) - covered(children.get(i, []), row[1], row[2])
            for i, row in enumerate(spans)]


def derive_metrics(spans: list[list], counts: Counter, run_s: float) -> dict:
    """Per-layer metrics (plain floats) from one run's spans and counters."""
    own = self_times(spans)
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}.s"] = 0.0
        out[f"{name}.self_s"] = 0.0
        out[f"{name}.calls"] = 0
    for row, self_s in zip(spans, own):
        name = row[0]
        out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + (row[2] - row[1])
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + self_s
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = sum(
            s for row, s in zip(spans, own) if row[0].split(".", 1)[0] == layer)
    top = sum(row[2] - row[1] for row in spans if row[3] < 0)
    out["scenarios.unattributed_s"] = run_s - top
    for name in COUNT_NAMES:
        out[name] = int(counts.get(name, 0))

    # Monte Carlo time per particle-step: each marching span's time outside
    # nested marching spans, over the steps taken directly under it.
    mc_child_time: dict[int, float] = {}
    for i, row in enumerate(spans):
        if row[0] in MC_SPANS:
            parent = row[3]
            while parent >= 0 and spans[parent][0] not in MC_SPANS:
                parent = spans[parent][3]
            if parent >= 0:
                mc_child_time[parent] = mc_child_time.get(parent, 0.0) + (row[2] - row[1])
    value_s = tangent_s = 0.0
    for i, row in enumerate(spans):
        if row[0] in MC_SPANS:
            excl = (row[2] - row[1]) - mc_child_time.get(i, 0.0)
            if row[0] in VALUE_SPANS:
                value_s += excl
            else:
                tangent_s += excl
    steps_v = out["montecarlo.value_particle_steps"]
    steps_t = out["montecarlo.tangent_particle_steps"]
    out["montecarlo.value_ns_per_particle_step"] = 1e9 * value_s / steps_v if steps_v else 0.0
    out["montecarlo.tangent_ns_per_particle_step"] = 1e9 * tangent_s / steps_t if steps_t else 0.0

    # a phase-ensemble call that marched nothing was served from the cache
    has_child = {row[3] for row in spans if row[3] >= 0}
    pe = [i for i, row in enumerate(spans) if row[0] == "engines.MonteCarloEngine.phase_ensemble"]
    hits = sum(1 for i in pe if i not in has_child)
    out["engines.phase_ensemble_hit_ratio"] = hits / len(pe) if pe else 0.0

    for attr in ("b", "q", "grad_b"):
        points = out[f"fields.{attr}.points"]
        out[f"fields.{attr}.ns_per_point"] = (
            1e9 * out[f"fields.{attr}.s"] / points if points else 0.0)
    return out

