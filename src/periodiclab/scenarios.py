"""Scenario files, their validation, and the named experiment suites.

A scenario is a versioned JSON document declaring one coefficient field,
engine sizes, and a list of experiments.  Validation is strict, and a run
validates after applying its overrides: unknown keys anywhere, values of the
wrong type or range, and bad experiment/field pairings (the entropy inequality
needs x-independent diffusion, the exact engine needs a linear-drift model,
and so on) are rejected up front with their JSON path.  Each plan, sim, grid
and experiment key is one entry of ``_SECTIONS`` or ``_EXPERIMENTS``, holding
its default and the rule of a written value; a field kind accepts its
builder's parameters.  A run fills the unset keys of every experiment once,
after validation, and the runners read only those filled-in specs.  The
members they share (field, plan, hypothesis report, engines, generator) are
built once per run through ``once.Once``, also under ``--jobs``.

Each experiment writes ``<name>.json`` and ``<name>.csv`` into the output
directory and contributes pass/fail check lines; ``summary.json`` aggregates
them.  All artifacts are byte-deterministic for a fixed scenario and seed.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dataclass_field, replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import diagnostics as dg
from . import engines as eng
from . import fields as fl
from . import hypotheses as hyp
from . import montecarlo as mc
from . import ougaussian as ou
from .errors import ConfigError
from .once import Once

if TYPE_CHECKING:
    from . import grid as gridmod

SCHEMA_VERSION = 1

_TOP_KEYS = {"schema", "id", "description", "seed", "field", "plan", "sim", "grid",
             "experiments", "output"}
# The builder of each field kind; a kind accepts "kind" and its builder's
# parameters but "name", and an unset coefficient takes the builder's default.
_FIELD_BUILDERS = {"ou": ou.fourier_matrix_model, "grad1d": fl.grad1d_field,
                   "gen": fl.gen_field, "custom-polynomial": fl.polynomial_field}


def _require(cond: bool, message: str, path: str):
    if not cond:
        raise ConfigError(message, path)


def _check_keys(obj, allowed: set, path: str):
    _require(isinstance(obj, dict), "expected an object", path)
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r}", f"{path}.{key}")


def _number(value, path: str, low: float, integer: bool = False, above: bool = False):
    """Require a finite JSON number (an integer with ``integer``) that is at
    least ``low``, or greater than it with ``above``."""
    typed = isinstance(value, int if integer else (int, float)) and not isinstance(value, bool)
    _require(typed and (isinstance(value, int) or math.isfinite(value)),
             f"expected {'an integer' if integer else 'a number'}, got {value!r}", path)
    _require(value > low if above else value >= low,
             f"must be {'>' if above else '>='} {low:g}, got {value!r}", path)


def _numbers(values, path: str, low: float, above: bool = False):
    """Require a nonempty list of distinct numbers, each checked as by ``_number``."""
    _require(isinstance(values, list) and values, "expected a nonempty list", path)
    for j, value in enumerate(values):
        _number(value, f"{path}[{j}]", low, above=above)
    _require(len(set(values)) == len(values), "entries must be distinct", path)


def _array(value, path: str, shape: tuple):
    """Require nested lists of finite numbers with the given shape."""
    if not shape:
        return _number(value, path, -math.inf)
    _require(isinstance(value, list) and len(value) == shape[0],
             f"expected a list of {shape[0]}, got {value!r}", path)
    for j, entry in enumerate(value):
        _array(entry, f"{path}[{j}]", shape[1:])


# Value rules: each is called as rule(value, path) on a value a document writes.
def _int(low):
    return lambda value, path: _number(value, path, low, integer=True)


def _real(low, above=False):
    return lambda value, path: _number(value, path, low, above=above)


def _list(low, above=False):
    return lambda values, path: _numbers(values, path, low, above=above)


def _choice(what: str, choices: tuple):
    return lambda value, path: _require(value in choices, f"unknown {what} {value!r}", path)


def _flag(value, path: str):
    _require(isinstance(value, bool), "expected true or false", path)


def _window(window, path: str):
    _require(isinstance(window, list) and len(window) == 2,
             f"expected [lo, hi], got {window!r}", path)
    _number(window[0], f"{path}[0]", -math.inf)
    _number(window[1], f"{path}[1]", window[0], above=True)


def _rate_bounds(bounds, path: str):
    _require(isinstance(bounds, dict), "expected an object", path)
    for key, pair in bounds.items():
        key_path = f"{path}.{key}"
        _require(isinstance(pair, list) and len(pair) == 2,
                 f"expected [lo|null, hi|null], got {pair!r}", key_path)
        for j, end in enumerate(pair):
            if end is not None:
                _number(end, f"{key_path}[{j}]", -math.inf)


# the experiments that run on the grid whatever their keys say
_GRID_ONLY = ("spectrum", "spectral-mapping", "core-consistency")
# each engine name and the RunContext member that builds it
_ENGINE_MEMBERS = {"montecarlo": "_mc_engine", "grid": "_grid_engine", "ou-exact": "_ou_engine"}
_ENGINE = _choice("engine", tuple(_ENGINE_MEMBERS))
_POSITIVE = _real(0, above=True)

# Every plan, sim and grid key: (the value its reader takes when the key is
# unset, its value rule).
_SECTIONS = {
    "plan": {"r_max": (6.0, _POSITIVE), "n_times": (64, _int(1)), "n_axis": (21, _int(1)),
             # the radial growth test compares the two outermost shells
             "n_shells": (6, _int(2)), "n_shell_dirs": (16, _int(1))},
    "sim": {"particles": (20000, _int(100)), "dt": (0.004, _POSITIVE),
            "horizon_periods": (16, _int(1)), "antithetic": (False, _flag),
            "n_outer": (128, _int(1)),
            # at least two antithetic units per outer point, for a standard error
            "n_inner": (2048, _int(4))},
    "grid": {"half_width": (4.5, _POSITIVE), "points_per_axis": (63, _int(16)),
             "time_slices": (33, _int(16)),
             "time_scheme": ("spectral", _choice("time scheme", ("spectral", "upwind"))),
             "substeps": (2, _int(1))},
}
# Each experiment's keys besides "name", as (the value its runner reads when the
# key is unset, its value rule).  A None engine or window is resolved from the
# other values: the rate-equivalence engine by field kind, the fit window as
# [1, max(horizons)].  A None gap_cap means no gap check.  Gradient horizons
# start at 1, since gradient envelopes start at unit separation.
_EXPERIMENTS = {
    "hypothesis-check": {"moment_phases": (8, _int(1))},
    "decay": {"engine": ("montecarlo", _ENGINE), "ps": ([2.0], _list(1)),
              "horizons": ([1, 2, 3, 4, 5, 6, 7, 8], _list(0, above=True)),
              "window": (None, _window), "rate_bounds": ({}, _rate_bounds),
              "contraction_gaps": ([], _list(0, above=True)),
              "contraction_ps": ([1, 2, 4], _list(1))},
    "gradient-decay": {"engine": ("montecarlo", _ENGINE), "ps": ([2.0], _list(1)),
                       "horizons": ([1, 2, 3, 4], _list(1)), "window": (None, _window),
                       "rate_bounds": ({}, _rate_bounds), "pointwise_samples": (0, _int(0))},
    "rate-equivalence": {"engine": (None, _ENGINE), "p": (2.0, _real(2)),
                         "horizons": ([1, 2, 3, 4, 5, 6], _list(1)),
                         "window": (None, _window), "tolerance": (0.1, _POSITIVE)},
    "poincare": {"n_phases": (8, _int(1))},
    "logsob": {"ps": ([1.0, 2.0], _list(1)), "n_phases": (8, _int(1))},
    "spectrum": {"k": (40, _int(1)), "cluster_tol": (1e-3, _POSITIVE),
                 "gap_cap": (None, _real(-math.inf)), "refine": (False, _flag),
                 "carre": (False, _flag), "solvability": (False, _flag)},
    "spectral-mapping": {"tol": (1e-3, _POSITIVE), "substeps": (4, _int(1))},
    "core-consistency": {"tol": (5e-2, _POSITIVE)},
}


def _defaults(table: dict) -> dict:
    return {key: default for key, (default, _) in table.items()}


def _check_entries(obj, table: dict, path: str, fixed: tuple = ()):
    """``obj`` has only ``fixed`` and ``table`` keys, and each value of a
    ``table`` key passes its rule."""
    _check_keys(obj, {*fixed, *table}, path)
    for key, value in obj.items():
        if key in table:
            table[key][1](value, f"{path}.{key}")


def _section(doc: dict, name: str) -> dict:
    """The ``plan``, ``sim`` or ``grid`` section with every unset key at its default."""
    return {**_defaults(_SECTIONS[name]), **doc.get(name, {})}


def _check_field(field: dict) -> float:
    """Keys, types, shapes and ellipticity of the field values; returns the period."""
    params = inspect.signature(_FIELD_BUILDERS[field["kind"]]).parameters
    _check_keys(field, {"kind", *params} - {"name"}, "$.field")
    period = field.get("period", 1.0)
    _number(period, "$.field.period", 0.0, above=True)
    if "dim" in field:
        _number(field["dim"], "$.field.dim", 1, integer=True)
        _require(field["dim"] <= 3, "the lab supports d <= 3", "$.field.dim")
    dim = field.get("dim", 1)
    # the keys were checked against the field kind, so each name has one shape
    shapes = {**dict.fromkeys(("a0", "a_sin", "a_cos", "b0", "b_sin", "b_cos"), (dim, dim)),
              **dict.fromkeys(("f0", "f_sin", "f_cos"), (dim,)),
              **dict.fromkeys(("rate_const", "rate_cos", "q_bump", "q_const", "q_sin", "q_cos"),
                              ())}
    for key, shape in shapes.items():
        if key in field:
            _array(field[key], f"$.field.{key}", shape)
    terms = field.get("drift_terms", [])
    _require(isinstance(terms, list), "expected a list", "$.field.drift_terms")
    for j, term in enumerate(terms):
        path = f"$.field.drift_terms[{j}]"
        _check_keys(term, {"power", "const", "sin", "cos"}, path)
        _number(term.get("power"), f"{path}.power", 1, integer=True)
        _require(term["power"] % 2 == 1, f"must be odd, got {term['power']}", f"{path}.power")
        for key in ("const", "sin", "cos"):
            if key in term:
                _number(term[key], f"{path}.{key}", -math.inf)
    if field["kind"] == "ou":
        try:
            build_field(field)[1].check_ellipticity()
        except ValueError as exc:
            raise ConfigError(str(exc), "$.field") from None
    elif field["kind"] != "grad1d":
        # Q = q I with inf q = q_const - |(q_sin, q_cos)| + min(q_bump, 0) over (t, x);
        # an unset coefficient takes its builder's default
        q = {**{k: v.default for k, v in params.items()}, **field}
        floor = q["q_const"] - math.hypot(q.get("q_sin", 0.0), q.get("q_cos", 0.0)) \
            + min(q.get("q_bump", 0.0), 0.0)
        _require(floor > 0.0, f"the diffusion infimum {floor:g} must be > 0", "$.field.q_const")
    return period


def validate_scenario(doc: dict) -> dict:
    """Strict validation of keys, value types and ranges, and experiment/field
    pairings; returns the document unchanged.  Each experiment's values are
    checked as given, and its cross-key rules read the spec with every unset
    key at its ``_EXPERIMENTS`` default, as its runner does."""
    _resolved_experiments(doc)
    return doc


def _resolved_experiments(doc: dict) -> list[dict]:
    """Validate ``doc``; returns new experiment specs with every unset key at
    the value its runner reads."""
    _check_keys(doc, _TOP_KEYS, "$")
    _require(doc.get("schema") == SCHEMA_VERSION, f"schema must be {SCHEMA_VERSION}", "$.schema")
    _require(isinstance(doc.get("id"), str) and doc["id"], "id must be a nonempty string", "$.id")
    if "seed" in doc:
        _number(doc["seed"], "$.seed", -math.inf, integer=True)
    if "description" in doc:
        _require(isinstance(doc["description"], str), "expected a string", "$.description")
    if "output" in doc:
        _require(isinstance(doc["output"], str) and doc["output"], "expected a nonempty string",
                 "$.output")
    field = doc.get("field")
    _require(isinstance(field, dict), "field section required", "$.field")
    kind = field.get("kind")
    _require(isinstance(kind, str) and kind in _FIELD_BUILDERS, f"unknown field kind {kind!r}",
             "$.field.kind")
    period = _check_field(field)
    for name, table in _SECTIONS.items():
        _check_entries(doc.get(name, {}), table, f"$.{name}")
    sim = _section(doc, "sim")
    _require(sim["dt"] <= period / 50.0, f"must be <= period/50 = {period / 50.0:g}", "$.sim.dt")
    _require(sim["n_outer"] <= sim["particles"],
             f"n_outer {sim['n_outer']} exceeds the {sim['particles']} particles it is drawn from",
             "$.sim.n_outer")
    grid = _section(doc, "grid")
    _require(grid["time_scheme"] != "spectral" or grid["time_slices"] % 2 == 1,
             "spectral time differencing needs an odd slice count", "$.grid.time_slices")
    exps = doc.get("experiments")
    _require(isinstance(exps, list) and exps, "experiments must be a nonempty list", "$.experiments")
    q_varies = kind == "gen"
    dim = field.get("dim", 1)
    resolved = []
    for i, spec in enumerate(exps):
        path = f"$.experiments[{i}]"
        _require(isinstance(spec, dict), "experiment entries must be objects", path)
        name = spec.get("name")
        _require(isinstance(name, str) and name in _EXPERIMENTS, f"unknown experiment {name!r}",
                 f"{path}.name")
        _check_entries(spec, _EXPERIMENTS[name], path, fixed=("name",))
        params = {**_defaults(_EXPERIMENTS[name]), **spec}
        if "window" in params:           # a rate fit
            if params["engine"] is None:
                params["engine"] = "ou-exact" if kind == "ou" else "grid"
            if params["window"] is None:
                params["window"] = [1.0, max(params["horizons"])]
        if q_varies:
            _require(name != "logsob",
                     "the entropy inequality needs diffusion independent of x", path)
            _require(not params.get("pointwise_samples"),
                     "pathwise gradients need diffusion independent of x",
                     f"{path}.pointwise_samples")
            _require(name == "decay" or params.get("engine") != "montecarlo",
                     "pathwise gradients need diffusion independent of x", path)
        if params.get("engine") == "ou-exact":
            _require(kind == "ou", "the exact engine needs a linear-drift field", f"{path}.engine")
            # its order-60 tensor rule has 60^d nodes per measure point
            _require(dim <= 2, "the exact engine is limited to d <= 2", f"{path}.engine")
        if name in _GRID_ONLY or params.get("engine") == "grid":
            _require(dim <= 2, "grid experiments are limited to d <= 2",
                     f"{path}.{'name' if name in _GRID_ONLY else 'engine'}")
        if "rate_bounds" in params:
            ps = {f"{float(p):g}" for p in params["ps"]}
            for key in params["rate_bounds"]:
                _require(key in ps, f"no exponent {key!r} among ps", f"{path}.rate_bounds.{key}")
        if "contraction_gaps" in params:
            for j, gap in enumerate(params["contraction_gaps"]):
                _require(gap in params["horizons"], "contraction gaps must be decay horizons",
                         f"{path}.contraction_gaps[{j}]")
        resolved.append(params)
    return resolved


def build_field(field_spec: dict):
    """Instantiate (field, model-or-None) from the field section; an unset
    coefficient takes its builder's default."""
    kwargs = {key: value for key, value in field_spec.items() if key != "kind"}
    if "drift_terms" in kwargs:
        kwargs["drift_terms"] = tuple(fl.DriftTerm(**term) for term in kwargs["drift_terms"])
    built = _FIELD_BUILDERS[field_spec["kind"]](**kwargs)
    return (ou.as_field(built), built) if field_spec["kind"] == "ou" else (built, None)


# ---------------------------------------------------------------------------
# Shared run context
# ---------------------------------------------------------------------------


def _built_once(build):
    """A read-only member that ``build`` makes once per context, also under ``--jobs``."""
    return property(lambda ctx: ctx._memo.get(build.__name__, lambda: build(ctx)),
                    doc=build.__doc__)


@dataclass
class RunContext:
    """Lazily built shared state for one scenario run; each lazy member is
    built once, also under ``--jobs``."""

    doc: dict
    seed: int
    _memo: Once = dataclass_field(default_factory=Once, init=False, repr=False, compare=False)

    def config_hash(self) -> str:
        """Digest of everything that determines the numbers in a report."""
        canon = json.dumps(
            {"field": self.doc.get("field"), "plan": self.doc.get("plan"),
             "sim": self.doc.get("sim"), "grid": self.doc.get("grid"),
             "seed": self.seed},
            sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()[:16]

    @_built_once
    def _field_and_model(self):
        return build_field(self.doc["field"])

    @property
    def field(self):
        return self._field_and_model[0]

    @property
    def model(self):
        return self._field_and_model[1]

    @_built_once
    def plan(self):
        return fl.build_plan(dim=self.field.dim, period=self.field.period,
                             **_section(self.doc, "plan"))

    @_built_once
    def hypothesis_report(self) -> hyp.HypothesisReport:
        return hyp.check_hypotheses(self.field, self.plan)

    def sim_config(self) -> mc.SimConfig:
        s = _section(self.doc, "sim")
        return mc.SimConfig(
            n_particles=s["particles"],
            dt=s["dt"],
            seed=self.seed,
            horizon_periods=s["horizon_periods"],
            antithetic=s["antithetic"],
        )

    def engine(self, name: str):
        return getattr(self, _ENGINE_MEMBERS[name])

    def _montecarlo_phases(self) -> list[float]:
        """Every time whose Monte Carlo measure an experiment integrates
        against, up to whole periods: 0, k T / n for each ``moment_phases``
        and ``n_phases`` n, and each horizon of a Monte Carlo value-decay
        curve, which starts at 0 and centres at its horizon."""
        period = self.field.period
        phases = [0.0]
        for spec in self.doc["experiments"]:
            params = {**_defaults(_EXPERIMENTS[spec["name"]]), **spec}
            n = params.get("moment_phases") or params.get("n_phases")
            if n:
                phases += [period * k / n for k in range(n)]
            if params["name"] in ("decay", "rate-equivalence") \
                    and params["engine"] == "montecarlo":
                phases += params["horizons"]
        return phases

    @_built_once
    def _mc_engine(self):
        s = _section(self.doc, "sim")
        return eng.MonteCarloEngine(self.field, self.sim_config(), self.hypothesis_report.lyapunov,
                                    n_outer=s["n_outer"], n_inner=s["n_inner"],
                                    phases=self._montecarlo_phases())

    @_built_once
    def _ou_engine(self):
        if self.model is None:
            raise ConfigError("ou-exact engine needs a linear-drift field", "$.field")
        return eng.OUExactEngine(self.model)

    @_built_once
    def _grid_engine(self):
        return eng.GridEngine(self.field, self.generator,
                              substeps=_section(self.doc, "grid")["substeps"])

    def space_time_grid(self) -> gridmod.SpaceTimeGrid:
        """The lattice of the grid section for this field."""
        from . import grid as gridmod

        g = _section(self.doc, "grid")
        return gridmod.SpaceTimeGrid(
            half_width=g["half_width"],
            points_per_axis=g["points_per_axis"],
            time_slices=g["time_slices"],
            period=self.field.period,
            dim=self.field.dim,
        )

    @_built_once
    def generator(self) -> gridmod.DiscreteGenerator:
        """The space-time generator, the one source of the grid for every grid experiment."""
        from . import grid as gridmod

        return gridmod.build_generator(self.field, self.space_time_grid(),
                                       _section(self.doc, "grid")["time_scheme"])


@dataclass
class ExperimentResult:
    payload: dict
    csv_rows: list                    # dicts; the CSV columns are their keys, first seen first
    checks: list                      # [{"rule", "passed", "detail"}], also written to the payload


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "" if value is None else str(value)     # None: a rate whose fit was refused


def _check(rule: str, passed: bool, detail: str) -> dict:
    return {"rule": rule, "passed": bool(passed), "detail": detail}


def _fit_check(rule: str, fits: list, verdict) -> dict:
    """A check that needs fitted rates: ``verdict()`` gives (passed, detail),
    and a refused fit among ``fits`` fails the check with its reason."""
    refused = [f.refused for f in fits if f.fit is None]
    return _check(rule, False, f"fit refused: {refused[0]}") if refused else _check(rule, *verdict())


def _rate_check(params: dict, rule: str, p: float, fitted, detail: str) -> list:
    """The ``rate_bounds`` check of exponent p (null ends open); without bounds,
    a check only if the fit was refused, which fails it."""
    bounds = params["rate_bounds"].get(f"{p:g}")
    if bounds is None and fitted.fit is not None:
        return []
    lo, hi = bounds or (None, None)
    lo = -math.inf if lo is None else lo
    hi = math.inf if hi is None else hi
    return [_fit_check(f"{rule}-p{p:g}", [fitted], lambda: (
        lo <= fitted.fit.rate <= hi, detail.format(fit=fitted.fit, lo=lo, hi=hi)))]


# ---------------------------------------------------------------------------
# Experiment runners
# ---------------------------------------------------------------------------


def _run_hypothesis_check(ctx: RunContext, params: dict) -> ExperimentResult:
    report = ctx.hypothesis_report
    checks = [
        _check("hyp-ellipticity", report.eta0_hat > 0.0,
               f"eta0={report.eta0_hat:.6g} Lambda={report.lambda_hat:.6g}"),
        _check("hyp-lyapunov", report.lyapunov.accepted,
               f"a={report.lyapunov.a} c={report.lyapunov.c}"),
    ]
    rows = [
        {"metric": "eta0", "value": report.eta0_hat},
        {"metric": "Lambda", "value": report.lambda_hat},
        {"metric": "r0", "value": report.r0_hat},
        {"metric": "ell_2", "value": report.ell_p_hat.get(2.0, float("nan"))},
        {"metric": "lyapunov_a", "value": report.lyapunov.a},
        {"metric": "lyapunov_c", "value": report.lyapunov.c},
    ]
    n_phases = params["moment_phases"]
    if report.lyapunov.accepted:
        bound = report.lyapunov.moment_bound()
        mc_engine = ctx.engine("montecarlo")
        worst = -math.inf
        ok = True

        def moment(X):
            return 1.0 + np.sum(X**2, axis=1)

        for k in range(n_phases):
            mean, se = dg.phase_mean(mc_engine, moment, ctx.field.period * k / n_phases)
            ok = ok and mean <= bound + 4.0 * se
            worst = max(worst, mean - bound)
            rows.append({"metric": f"moment_phase_{k}", "value": mean})
        checks.append(_check("moment-bound", ok,
                             f"bound={bound:.4g} worst_excess={worst:.4g}"))
    payload = report.to_jsonable()
    return ExperimentResult(payload, rows, checks)


# the battery ids each rate-fit experiment fits
_FIT_IDS = {
    "decay": ("coord0", "tanh", "sin", "bump", "ratio"),
    "gradient-decay": ("coord0", "tanh", "sin", "ratio"),
    "rate-equivalence": ("tanh", "sin", "ratio"),
}


def _fit_setup(ctx: RunContext, params: dict):
    """Engine and battery of a rate-fit experiment."""
    phis = [phi for phi in eng.battery() if phi.fid in _FIT_IDS[params["name"]]]
    return ctx.engine(params["engine"]), phis


def _battery_fits(ctx: RunContext, params: dict, gradient: bool, references: dict | None = None):
    """What decay and gradient-decay share: one transfer profile from s = 0, per
    exponent of ``ps`` (p, curves, fit), a payload of fit records, and CSV rows."""
    engine, phis = _fit_setup(ctx, params)
    profile = engine.transfer_profile(phis, 0.0, params["horizons"], gradients=gradient)
    fits = []
    for p in [float(p) for p in params["ps"]]:
        curves = [dg.decay_curve(engine, phi, 0.0, p, profile, gradient=gradient) for phi in phis]
        fits.append((p, curves, dg.fit_battery(curves, tuple(params["window"]), references)))
    payload = {"engine": engine.name, "fits": {f"p={p:g}": f.to_jsonable() for p, _, f in fits}}
    rows = [row for _, curves, _ in fits for curve in curves for row in curve.rows()]
    return engine, phis, profile, fits, payload, rows


def _run_decay(ctx: RunContext, params: dict) -> ExperimentResult:
    refs = {"ell_2": ctx.hypothesis_report.ell_p_hat.get(2.0)}
    if ctx.model is not None:
        refs["omega0"] = ctx.engine("ou-exact").system.growth_bound
    engine, phis, profile, fits, payload, rows = _battery_fits(ctx, params, False, refs)
    checks = []
    for p, _, fitted in fits:
        checks += _rate_check(params, "decay-rate", p, fitted,
                              "omega_hat={fit.rate:.4f} in [{lo}, {hi}] R2={fit.r_squared:.3f}")
    gaps = params["contraction_gaps"]
    if gaps:
        report = dg.contraction_invariance_report(
            engine, phis, 0.0, gaps, [float(p) for p in params["contraction_ps"]], profile)
        payload["contraction"] = report
        for rule in ("contraction", "invariance"):
            passed = [r[f"{rule}_ok"] for r in report]
            checks.append(_check(rule, all(passed), f"{sum(passed)}/{len(passed)} rows"))
    return ExperimentResult(payload, rows, checks)


def _run_gradient_decay(ctx: RunContext, params: dict) -> ExperimentResult:
    _, _, _, fits, payload, rows = _battery_fits(ctx, params, True)
    checks = [check for p, _, fitted in fits for check in _rate_check(
        params, "gradient-rate", p, fitted, "gamma_hat={fit.rate:.4f} in [{lo}, {hi}]")]
    n_point = params["pointwise_samples"]
    if n_point:
        rng = mc.generator(ctx.seed, "pointwise-locations")
        r0 = ctx.hypothesis_report.r0_hat
        config = replace(ctx.sim_config(), n_particles=4000)
        tanh = next(phi for phi in eng.battery() if phi.fid == "tanh")
        results = []
        for i in range(n_point):
            s = float(rng.uniform(0.0, ctx.field.period))
            t = s + float(rng.uniform(0.1, 3.0))
            x = rng.uniform(-2.0, 2.0, size=ctx.field.dim)
            results.append(dg.pointwise_gradient_check(
                ctx.field, tanh, t, s, x, config, r0, stream=("pointwise", i)))
        payload["pointwise"] = results
        checks.append(_check(
            "gradient-pointwise", all(r["holds"] for r in results),
            f"{sum(r['holds'] for r in results)}/{len(results)} samples"))
    return ExperimentResult(payload, rows, checks)


def _run_rate_equivalence(ctx: RunContext, params: dict) -> ExperimentResult:
    engine, phis = _fit_setup(ctx, params)
    p, tol = float(params["p"]), params["tolerance"]
    report = dg.rate_equivalence_check(engine, phis, 0.0, p, params["horizons"],
                                       tuple(params["window"]), tol)
    fits = [report["omega_fit"], report["gamma_fit"]]
    checks = [_fit_check("rate-equivalence", fits, lambda: (
        report["agree"], f"|omega-gamma|={report['difference']:.4f} <= {tol}"))]
    row = {key: report[key] for key in ("omega_hat", "gamma_hat", "difference")}
    payload = {**row, "engine": engine.name, "omega_fit": fits[0].to_jsonable(),
               "gamma_fit": fits[1].to_jsonable()}
    return ExperimentResult(payload, [{**row, "p": p}], checks)


def _run_poincare(ctx: RunContext, params: dict) -> ExperimentResult:
    report_h = ctx.hypothesis_report
    measures = dg.PhaseMeasures.from_engine(ctx.engine("montecarlo"), params["n_phases"])
    lam = report_h.lambda_hat
    ell2 = report_h.ell_p_hat[2.0]
    rows, checks = [], []
    payload = {"constant": lam / abs(ell2), "reports": {}}
    for u in eng.st_battery(ctx.field.period):
        rep = dg.poincare_ratio(u, measures, lam, ell2)
        payload["reports"][u.fid] = rep.to_jsonable()
        rows.append({"fid": u.fid, "left": rep.left, "right": rep.right,
                     "residual": rep.residual, "stderr": rep.stderr})
        checks.append(_check(f"poincare-{u.fid}", rep.holds(),
                             f"residual={rep.residual:.4g} stderr={rep.stderr:.3g}"))
    return ExperimentResult(payload, rows, checks)


def _run_logsob(ctx: RunContext, params: dict) -> ExperimentResult:
    report_h = ctx.hypothesis_report
    measures = dg.PhaseMeasures.from_engine(ctx.engine("montecarlo"), params["n_phases"])
    lam = report_h.lambda_hat
    r0 = report_h.r0_hat
    rows, checks = [], []
    payload = {"reports": {}}
    for p in [float(q) for q in params["ps"]]:
        for u in eng.positive_battery():
            rep = dg.logsob_ratio(ctx.field, u, p, measures, lam, r0)
            key = f"{u.fid}:p={p:g}"
            payload["reports"][key] = rep.to_jsonable()
            rows.append({"fid": u.fid, "p": p, "left": rep.left, "right": rep.right,
                         "residual": rep.residual, "stderr": rep.stderr})
            checks.append(_check(f"logsob-{key}", rep.holds(),
                                 f"residual={rep.residual:.4g} stderr={rep.stderr:.3g}"))
    return ExperimentResult(payload, rows, checks)


def _run_spectrum(ctx: RunContext, params: dict) -> ExperimentResult:
    from . import grid as gridmod

    gen = ctx.generator
    cluster_tol = params["cluster_tol"]
    report = gridmod.spectrum(gen, k=params["k"], cluster_tol=cluster_tol,
                              with_residuals=True)
    cluster = {k: z for k, z in report.axis_cluster}
    w0 = 2.0 * math.pi / ctx.field.period
    have_axis = (0 in cluster) and (1 in cluster) and (-1 in cluster)
    axis_err = max(
        abs(cluster.get(0, math.inf)),
        abs(cluster.get(1, 1j * math.inf) - 1j * w0),
        abs(cluster.get(-1, 1j * math.inf) + 1j * w0),
    ) if have_axis else math.inf
    checks = [
        _check("spectrum-axis-cluster", have_axis and axis_err <= cluster_tol,
               f"axis error {axis_err:.2e}"),
        _check("rho-invariance", gen.rho_residual <= 1e-8,
               f"rho residual {gen.rho_residual:.2e}"),
    ]
    gap_cap = params["gap_cap"]
    if gap_cap is not None:
        checks.append(_check("spectrum-gap", report.gap_estimate <= gap_cap,
                             f"gap {report.gap_estimate:.4f} <= {gap_cap}"))
    payload = {"spectrum": report.to_jsonable(), "rho_residual": gen.rho_residual,
               "perron_iterations": gen.perron_iterations}
    refine, carre = params["refine"], params["carre"]
    fine = (gridmod.build_generator(ctx.field, gen.grid.refined(), gen.time_scheme)
            if refine or carre else None)
    if refine:
        fine_rep = gridmod.spectrum(fine, k=12, cluster_tol=cluster_tol,
                                    dense_cutoff=0)
        drift = abs(fine_rep.gap_estimate - report.gap_estimate)
        payload["refined_gap"] = fine_rep.gap_estimate
        checks.append(_check("spectrum-stability", drift <= 0.05,
                             f"gap drift {drift:.4f} under refinement"))
    if carre:
        bump = dg.BumpWindow(-0.5 * gen.grid.half_width, 0.5 * gen.grid.half_width)
        w = 2.0 * math.pi / ctx.field.period

        def u_fn(s, X):
            prof = np.ones(len(X))
            for axis in range(ctx.field.dim):
                prof = prof * bump(X[:, axis])
            return prof * (1.0 + 0.5 * math.cos(w * s)) / bump(0.0) ** ctx.field.dim

        u_grid = gridmod.GridFunction.sample(gen.grid, u_fn)
        res = gridmod.carre_du_champ_residual(gen, ctx.field, u_grid)
        u_fine = gridmod.GridFunction.sample(fine.grid, u_fn)
        res_fine = gridmod.carre_du_champ_residual(fine, ctx.field, u_fine)
        ratio = res / res_fine if res_fine > 0 else math.inf
        payload["carre_residuals"] = [res, res_fine]
        checks.append(_check("carre-du-champ", 3.5 <= ratio <= 4.5,
                             f"halving ratio {ratio:.3f}"))
    if params["solvability"]:
        w = 2.0 * math.pi / ctx.field.period

        def f_raw(s, X):
            return np.sin(X[:, 0]) * (1.0 + 0.5 * math.sin(w * s)) + 0.2 * X[:, 0]

        sol = gridmod.solvability_residual(
            gen, gridmod.GridFunction.sample(gen.grid, f_raw).ravel())
        gap = report.gap_estimate      # the resolvent on mean-zero data is about 1/|gap|
        bound = -10.0 * sol["data"] / gap if gap < 0 else 0.0
        ok = sol["zero_mean"] <= bound and sol["unit_mean"] >= 1e3 * sol["zero_mean"]
        payload["solvability"] = {**sol, "bound": bound}
        checks.append(_check("mean-zero-solvability", ok,
                             f"zero-mean |u| {sol['zero_mean']:.3g} <= {bound:.3g}, "
                             f"unit-mean |u| {sol['unit_mean']:.3g}"))
    rows = []
    for i, z in enumerate(report.eigenvalues[:50]):
        res = report.residuals[i] if i < len(report.residuals) else ""
        rows.append({"re": z.real, "im": z.imag, "residual": res})
    return ExperimentResult(payload, rows, checks)


def _run_spectral_mapping(ctx: RunContext, params: dict) -> ExperimentResult:
    from . import grid as gridmod

    gen = ctx.generator
    report = gridmod.spectrum(gen, k=40)
    result = gridmod.spectral_mapping_check(gen, ctx.field, report,
                                            substeps=params["substeps"])
    tol = params["tol"]
    checks = [_check("spectral-mapping", result["worst_mismatch"] <= tol,
                     f"worst mismatch {result['worst_mismatch']:.2e} <= {tol}")]
    rows = [{"re": r["lambda"].real, "im": r["lambda"].imag, "kind": r["kind"],
             "mismatch": r["mismatch"]} for r in result["rows"]]
    payload = {"worst_mismatch": result["worst_mismatch"], "rows": rows}
    return ExperimentResult(payload, rows, checks)


def _run_core_consistency(ctx: RunContext, params: dict) -> ExperimentResult:
    period = ctx.field.period
    alpha = dg.BumpWindow(0.1 * period, 0.9 * period)
    chi = next(phi for phi in eng.battery() if phi.fid == "bump")
    tol = params["tol"]
    gen = ctx.generator
    u_fn, image = dg.core_on_grid(ctx.field, gen.grid, period, chi, alpha,
                                  substeps=_section(ctx.doc, "grid")["substeps"])
    applied = (gen.matrix @ u_fn.ravel()).reshape(u_fn.values.shape)
    err = float(np.sqrt(np.dot(gen.rho, ((applied - image.values).ravel()) ** 2)))
    scale = float(np.sqrt(np.dot(gen.rho, (image.values.ravel()) ** 2)))
    rel = err / max(scale, 1e-300)
    payload = {"grid_residual": {"abs": err, "rel": rel}}
    checks = [_check("core-generator", rel <= tol, f"relative residual {rel:.3e}")]
    rows = [{"metric": "grid_rel_residual", "value": rel}]
    return ExperimentResult(payload, rows, checks)


_RUNNERS = {
    "hypothesis-check": _run_hypothesis_check,
    "decay": _run_decay,
    "gradient-decay": _run_gradient_decay,
    "rate-equivalence": _run_rate_equivalence,
    "poincare": _run_poincare,
    "logsob": _run_logsob,
    "spectrum": _run_spectrum,
    "spectral-mapping": _run_spectral_mapping,
    "core-consistency": _run_core_consistency,
}


# ---------------------------------------------------------------------------
# Scenario execution
# ---------------------------------------------------------------------------


def _unique_names(specs: list[dict]) -> list[str]:
    seen: dict[str, int] = {}
    out = []
    for spec in specs:
        name = spec["name"]
        seen[name] = seen.get(name, 0) + 1
        out.append(name if seen[name] == 1 else f"{name}-{seen[name]}")
    return out


def _write_csv(path: Path, rows: list):
    header = list(dict.fromkeys(key for row in rows for key in row))
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(row.get(col, "")) for col in header))
    path.write_text("\n".join(lines) + "\n")


class _ComplexEncoder(json.JSONEncoder):
    def default(self, obj):
        if isinstance(obj, complex):
            return [obj.real, obj.imag]
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        if isinstance(obj, (np.floating, np.integer)):
            return obj.item()
        return super().default(obj)


def run_scenario(doc: dict, out_dir: str | Path, jobs: int = 1,
                 overrides: dict | None = None) -> dict:
    """Execute every experiment of a scenario, validated with the overrides
    applied; returns the summary.  ``jobs`` below 1 is a :class:`ConfigError`."""
    if jobs < 1:
        raise ConfigError(f"must be at least 1, got {jobs}", "--jobs")
    overrides = overrides or {}
    if overrides:
        doc = json.loads(json.dumps(doc))  # deep copy before mutating
        sim = doc.setdefault("sim", {})
        for key, section, target in (("seed", doc, "seed"), ("particles", sim, "particles"),
                                     ("dt", sim, "dt"), ("horizon", sim, "horizon_periods")):
            if overrides.get(key) is not None:
                section[target] = overrides[key]
    # the runners read the resolved specs, and ctx.doc holds those very objects
    specs = _resolved_experiments(doc)
    seed = doc.get("seed", 0)
    ctx = RunContext(doc={**doc, "experiments": specs}, seed=seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    def run(spec: dict) -> ExperimentResult:
        return _RUNNERS[spec["name"]](ctx, spec)

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run, specs))
    else:
        results = [run(spec) for spec in specs]

    summary = {"scenario": doc["id"], "seed": seed, "schema": SCHEMA_VERSION,
               "config_hash": ctx.config_hash(), "experiments": {}, "checks": [],
               "pass": True}
    for name, result in zip(_unique_names(specs), results):
        result.payload.update(checks=result.checks, config_hash=ctx.config_hash())
        (out / f"{name}.json").write_text(
            json.dumps(result.payload, indent=2, sort_keys=True, cls=_ComplexEncoder))
        _write_csv(out / f"{name}.csv", result.csv_rows)
        passed = all(c["passed"] for c in result.checks)
        summary["experiments"][name] = {"checks": result.checks, "pass": passed}
        summary["checks"].extend({**c, "experiment": name} for c in result.checks)
        summary["pass"] = summary["pass"] and passed
    # every runner that builds the Monte Carlo engine asks it for a phase, so
    # a built engine has marched its burn-in through all of its phases
    mc_engine = ctx._memo.peek("_mc_engine")
    summary["montecarlo_phases"] = [] if mc_engine is None else list(mc_engine.phases)
    (out / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True, cls=_ComplexEncoder))
    return summary


# ---------------------------------------------------------------------------
# Builtin scenarios
# ---------------------------------------------------------------------------


def data_dir() -> Path:
    return Path(__file__).parent / "data"


def builtin_ids() -> list[str]:
    return sorted(p.stem for p in data_dir().glob("*.json"))


def load_scenario(ref: str | Path) -> dict:
    """Load a scenario from a file path, else by builtin id (so a directory
    named like a builtin, such as its default output, does not shadow it)."""
    path = Path(ref)
    if not path.is_file():
        candidate = data_dir() / f"{ref}.json"
        if candidate.is_file():
            path = candidate
        elif not path.exists():
            raise ConfigError(f"no scenario file or builtin id {ref!r}", "$")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}", str(path)) from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read the scenario file: {exc}", str(path)) from exc
    return validate_scenario(doc)
