"""Scenario schema validation, CLI behavior, and report determinism."""

import ast
import dataclasses
import functools
import hashlib
import inspect
import json
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from periodiclab import cli
from periodiclab import engines as eng
from periodiclab import grid as gr
from periodiclab import hypotheses as hyp
from periodiclab import montecarlo as mc
from periodiclab import ougaussian as ou
from periodiclab import scenarios as sc
from periodiclab.errors import ConfigError

TINY = {
    "schema": 1,
    "id": "tiny",
    "description": "reduced custom scenario for plumbing tests",
    "seed": 7,
    "field": {"kind": "custom-polynomial", "dim": 1, "period": 1.0, "q_const": 0.5,
              "drift_terms": [{"power": 1, "const": -1.0}]},
    "plan": {"r_max": 5.0, "n_times": 16, "n_axis": 11, "n_shells": 4, "n_shell_dirs": 2},
    "sim": {"particles": 1500, "dt": 0.01, "horizon_periods": 8,
            "antithetic": True, "n_outer": 32, "n_inner": 128},
    "experiments": [
        {"name": "hypothesis-check", "moment_phases": 4},
        {"name": "decay", "engine": "montecarlo", "ps": [2], "horizons": [1, 2, 3],
         "contraction_gaps": [1], "contraction_ps": [2]},
        {"name": "poincare", "n_phases": 4},
    ],
}

OU3D = {"kind": "ou", "dim": 3, "a0": [[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]]}


class TestValidation:
    def test_unknown_top_key(self):
        doc = dict(TINY, extra=1)
        with pytest.raises(ConfigError) as err:
            sc.validate_scenario(doc)
        assert "$.extra" in str(err.value)

    def test_unknown_field_key_path(self):
        doc = json.loads(json.dumps(TINY))
        doc["field"]["a_sinn"] = [[0.5]]
        with pytest.raises(ConfigError) as err:
            sc.validate_scenario(doc)
        assert "$.field.a_sinn" in str(err.value)

    def test_schema_version_enforced(self):
        doc = dict(TINY, schema=2)
        with pytest.raises(ConfigError) as err:
            sc.validate_scenario(doc)
        assert "$.schema" in str(err.value)

    def test_logsob_needs_flat_diffusion(self):
        doc = json.loads(json.dumps(sc.load_scenario("gen2d")))
        doc["experiments"].append({"name": "logsob", "ps": [2]})
        with pytest.raises(ConfigError) as err:
            sc.validate_scenario(doc)
        assert "independent of x" in str(err.value)

    def test_exact_engine_needs_linear_drift(self):
        doc = json.loads(json.dumps(sc.load_scenario("grad1d")))
        doc["experiments"][1]["engine"] = "ou-exact"
        with pytest.raises(ConfigError):
            sc.validate_scenario(doc)

    def test_montecarlo_gradients_need_flat_diffusion(self):
        doc = json.loads(json.dumps(sc.load_scenario("gen2d")))
        doc["experiments"].append({"name": "gradient-decay", "engine": "montecarlo"})
        with pytest.raises(ConfigError):
            sc.validate_scenario(doc)

    def test_montecarlo_rate_equivalence_needs_flat_diffusion(self):
        doc = json.loads(json.dumps(sc.load_scenario("gen2d")))
        doc["experiments"].append({"name": "rate-equivalence", "engine": "montecarlo"})
        i = len(doc["experiments"]) - 1
        with pytest.raises(ConfigError) as err:
            sc.validate_scenario(doc)
        assert str(err.value).startswith(f"$.experiments[{i}]:")
        # without an engine key rate equivalence runs on the grid, as the runner does
        doc["experiments"][i] = {"name": "rate-equivalence"}
        sc.validate_scenario(doc)

    @pytest.mark.parametrize("name", ["gradient-decay", "rate-equivalence"])
    def test_gradient_horizons_start_at_one_period(self, name):
        doc = json.loads(json.dumps(sc.load_scenario("grad1d")))
        i = next(k for k, e in enumerate(doc["experiments"]) if e["name"] == name)
        doc["experiments"][i]["horizons"] = [0.5, 1, 2, 3, 4, 5]
        with pytest.raises(ConfigError) as err:
            sc.validate_scenario(doc)
        assert f"$.experiments[{i}].horizons" in str(err.value)

    @pytest.mark.parametrize("gaps", [[0.5], [5]])
    def test_contraction_gaps_are_decay_horizons(self, gaps):
        doc = json.loads(json.dumps(TINY))
        doc["experiments"][1]["contraction_gaps"] = gaps
        with pytest.raises(ConfigError) as err:
            sc.validate_scenario(doc)
        assert "$.experiments[1].contraction_gaps" in str(err.value)
        # any decay horizon is a valid gap, whole period or not
        doc["experiments"][1]["horizons"] = [0.5, 1, 2, 3, 5]
        sc.validate_scenario(doc)

    @pytest.mark.parametrize("sid, where, value, path", [
        ("grad1d", ("sim", "particles"), 50, "$.sim.particles"),
        ("grad1d", ("sim", "particles"), "x", "$.sim.particles"),
        ("grad1d", ("sim", "dt"), 0.1, "$.sim.dt"),
        ("grad1d", ("field", "period"), -1, "$.field.period"),
        ("gen2d", ("field", "dim"), 4, "$.field.dim"),
        ("grad1d", ("grid", "points_per_axis"), 2, "$.grid.points_per_axis"),
        ("grad1d", ("grid", "time_slices"), 32, "$.grid.time_slices"),
        ("grad1d", ("grid", "substeps"), 0, "$.grid.substeps"),
        ("grad1d", ("experiments", 1, "horizons"), [], "$.experiments[1].horizons"),
        ("grad1d", ("experiments", 1, "ps"), ["two"], "$.experiments[1].ps"),
        ("grad1d", ("experiments", 0, "moment_phases"), 0, "$.experiments[0].moment_phases"),
        ("grad1d", ("experiments", 4, "n_phases"), 0, "$.experiments[4].n_phases"),
        ("grad1d", ("experiments", 5, "n_phases"), 2.5, "$.experiments[5].n_phases"),
        ("grad1d", ("experiments", 1, "window"), "x", "$.experiments[1].window"),
        ("grad1d", ("experiments", 1, "window"), [3, 1], "$.experiments[1].window"),
        ("grad1d", ("experiments", 2, "window"), [1, "4"], "$.experiments[2].window"),
        ("grad1d", ("experiments", 3, "tolerance"), "big", "$.experiments[3].tolerance"),
        ("grad1d", ("experiments", 6, "cluster_tol"), 0, "$.experiments[6].cluster_tol"),
        ("grad1d", ("experiments", 7, "tol"), -1e-3, "$.experiments[7].tol"),
        ("grad1d", ("experiments", 6, "k"), 0, "$.experiments[6].k"),
        ("grad1d", ("experiments", 6, "gap_cap"), None, "$.experiments[6].gap_cap"),
        ("grad1d", ("experiments", 1, "envelope_rate"), "fast",
         "$.experiments[1].envelope_rate"),
        ("grad1d", ("experiments", 1, "rate_bounds"), {"3": [None, -0.4]},
         "$.experiments[1].rate_bounds.3"),
        ("grad1d", ("experiments", 2, "rate_bounds"), {"2": [-0.4]},
         "$.experiments[2].rate_bounds.2"),
        ("grad1d", ("experiments", 2, "rate_bounds"), {"2": [None, "x"]},
         "$.experiments[2].rate_bounds.2[1]"),
        ("grad1d", ("experiments", 2, "rate_bounds"), [None, -0.4],
         "$.experiments[2].rate_bounds"),
        ("grad1d", ("plan", "r_max"), 0, "$.plan.r_max"),
        ("grad1d", ("plan", "n_times"), 0, "$.plan.n_times"),
        ("grad1d", ("plan", "n_axis"), 1.5, "$.plan.n_axis"),
        ("grad1d", ("plan", "n_shells"), 1, "$.plan.n_shells"),
        ("grad1d", ("plan", "n_shell_dirs"), "16", "$.plan.n_shell_dirs"),
        ("ou1d", ("experiments", 5, "refine"), "no", "$.experiments[5].refine"),
        ("ou1d", ("experiments", 5, "carre"), 1, "$.experiments[5].carre"),
        ("grad1d", ("experiments", 6, "solvability"), "yes", "$.experiments[6].solvability"),
        ("grad1d", ("experiments", 2, "pointwise_samples"), -1,
         "$.experiments[2].pointwise_samples"),
        ("grad1d", ("experiments", 2, "pointwise_samples"), 2.5,
         "$.experiments[2].pointwise_samples"),
        ("gen2d", ("experiments", 2),
         {"name": "gradient-decay", "engine": "grid", "pointwise_samples": 5},
         "$.experiments[2].pointwise_samples"),
        ("grad1d", ("field",), {"kind": "custom-polynomial", "q_const": 0.5,
                                "drift_terms": [{"power": 1, "const": -1.0, "tan": 1.0}]},
         "$.field.drift_terms[0].tan"),
        ("grad1d", ("field",), {"kind": "custom-polynomial", "q_const": 0.5,
                                "drift_terms": [{"power": 2, "const": -1.0}]},
         "$.field.drift_terms[0].power"),
        ("grad1d", ("field",), {"kind": "custom-polynomial", "q_const": 0.5,
                                "drift_terms": [{"const": -1.0}]},
         "$.field.drift_terms[0].power"),
        ("grad1d", ("field",), {"kind": "custom-polynomial", "q_const": 0.5,
                                "drift_terms": [{"power": 3, "sin": "0.5"}]},
         "$.field.drift_terms[0].sin"),
        ("ou1d", ("field", "a0"), [[-1.0, 0.0]], "$.field.a0[0]"),
        ("ou1d", ("field", "a_sin"), [0.5], "$.field.a_sin[0]"),
        ("ou1d", ("field", "a_cos"), [[0.1], [0.2]], "$.field.a_cos"),
        ("ou1d", ("field", "b0"), [["x"]], "$.field.b0[0][0]"),
        ("ou1d", ("field", "b_sin"), 0.5, "$.field.b_sin"),
        ("ou1d", ("field", "b_cos"), [[True]], "$.field.b_cos[0][0]"),
        ("ou1d", ("field", "f0"), [1.0, 2.0], "$.field.f0"),
        ("ou1d", ("field", "f_sin"), ["1"], "$.field.f_sin[0]"),
        ("ou1d", ("field", "f_cos"), [[1.0]], "$.field.f_cos[0]"),
        ("gen2d", ("field", "rate_const"), "2", "$.field.rate_const"),
        ("gen2d", ("field", "rate_cos"), None, "$.field.rate_cos"),
        ("gen2d", ("field", "q_const"), [1.0], "$.field.q_const"),
        ("gen2d", ("field", "q_sin"), float("nan"), "$.field.q_sin"),
        ("gen2d", ("field", "q_bump"), "0.25", "$.field.q_bump"),
        ("grad1d", ("field",), {"kind": "custom-polynomial", "q_const": "x"},
         "$.field.q_const"),
        ("grad1d", ("field",), {"kind": "custom-polynomial", "q_sin": [0.1]},
         "$.field.q_sin"),
        ("grad1d", ("field",), {"kind": "custom-polynomial", "q_cos": False},
         "$.field.q_cos"),
    ])
    def test_bad_values_name_their_path(self, sid, where, value, path):
        doc = json.loads(json.dumps(sc.load_scenario(sid)))
        target = doc
        for key in where[:-1]:
            target = target[key]
        target[where[-1]] = value
        with pytest.raises(ConfigError) as err:
            sc.validate_scenario(doc)
        assert path in str(err.value)

    def test_unknown_experiment(self):
        doc = json.loads(json.dumps(TINY))
        doc["experiments"] = [{"name": "frobnicate"}]
        with pytest.raises(ConfigError):
            sc.validate_scenario(doc)

    def test_builtins_validate(self):
        for sid in sc.builtin_ids():
            sc.load_scenario(sid)

    def test_unknown_reference(self):
        with pytest.raises(ConfigError):
            sc.load_scenario("not-a-scenario")

    @pytest.mark.parametrize("name, key, value", [
        ("hypothesis-check", "lyapunov_n", 2),
        ("core-consistency", "engine", "grid"),
    ])
    def test_unread_experiment_keys_rejected(self, name, key, value):
        doc = json.loads(json.dumps(sc.load_scenario("grad1d")))
        i = next(k for k, e in enumerate(doc["experiments"]) if e["name"] == name)
        doc["experiments"][i][key] = value
        with pytest.raises(ConfigError) as err:
            sc.validate_scenario(doc)
        assert f"$.experiments[{i}].{key}" in str(err.value)


_NUMERIC_KEYS = (
    [("sim", key) for key in ("particles", "dt", "horizon_periods", "n_outer", "n_inner")]
    + [("grid", key) for key in ("half_width", "points_per_axis", "time_slices", "substeps")])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(sid=st.sampled_from(sc.builtin_ids()), where=st.sampled_from(_NUMERIC_KEYS),
       value=st.one_of(st.integers(-10**6, 10**6), st.floats(), st.booleans(), st.none(),
                       st.text(max_size=3)))
def test_mutated_numbers_fail_validation_or_build(sid, where, value):
    """A mutated sim/grid number is a ConfigError naming its key, or the
    simulation config and the grid build from it."""
    section, key = where
    doc = json.loads(json.dumps(sc.load_scenario(sid)))
    doc.setdefault(section, {})[key] = value
    try:
        sc.validate_scenario(doc)
    except ConfigError as err:
        # a particle count below n_outer is reported at n_outer
        allowed = {f"$.{section}.{key}"} | ({"$.sim.n_outer"} if key == "particles" else set())
        assert err.path in allowed
        return
    ctx = sc.RunContext(doc=doc, seed=1)
    ctx.sim_config().validated_for(ctx.field)
    ctx.space_time_grid()


def _params_keys(func, param: str, seen: set) -> tuple[set, set]:
    """String keys a function reads from its dict argument ``param``: those it
    subscripts, and those it reads with ``.get``.

    Follows module-level helpers of ``scenarios`` that receive the dict.
    """
    tree = ast.parse(inspect.getsource(func).lstrip())
    read, got = set(), set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get" and isinstance(node.func.value, ast.Name)
                and node.func.value.id == param and isinstance(node.args[0], ast.Constant)):
            got.add(node.args[0].value)
        elif (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
              and node.value.id == param and isinstance(node.slice, ast.Constant)):
            read.add(node.slice.value)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            helper = getattr(sc, node.func.id, None)
            for pos, arg in enumerate(node.args):
                if (isinstance(arg, ast.Name) and arg.id == param and inspect.isfunction(helper)
                        and helper not in seen):
                    name = list(inspect.signature(helper).parameters)[pos]
                    helper_read, helper_got = _params_keys(helper, name, seen | {helper})
                    read |= helper_read
                    got |= helper_got
    return read, got


@pytest.mark.parametrize("name", sorted(sc._RUNNERS))
def test_every_accepted_experiment_key_is_read(name):
    """A runner subscripts every key of its ``_EXPERIMENTS`` entry and reads
    none with ``.get``: run_scenario hands it the spec with every default set."""
    assert set(sc._RUNNERS) == set(sc._EXPERIMENTS)
    runner = sc._RUNNERS[name]
    params = list(inspect.signature(runner).parameters)[1]
    read, got = _params_keys(runner, params, {runner})
    assert read - {"name"} == set(sc._EXPERIMENTS[name])
    assert not got


def _readme_table(header: str) -> list[tuple[str, str, str]]:
    """The rows of the README table under ``header``, with the first two cells
    unquoted."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    rows = []
    for line in lines[lines.index(header) + 2:]:
        if not line.startswith("|"):
            break
        owner, key, default = (cell.strip() for cell in line.strip("|").split("|"))
        rows.append((owner.strip("`"), key.strip("`"), default))
    return rows


def test_readme_lists_every_section_key_default():
    """The README's table of plan, sim and grid keys matches ``_SECTIONS``."""
    want = [(section, key, f"`{json.dumps(default)}`") for section, table in sc._SECTIONS.items()
            for key, (default, _) in table.items()]
    assert _readme_table("| section | key | default |") == want


def test_readme_lists_every_experiment_key_default():
    """The README's table of experiment keys matches ``_EXPERIMENTS``: each
    default is its JSON value, and a null default is followed by what it means."""
    rows = _readme_table("| experiment | key | default |")
    want = [(experiment, key, value) for experiment, table in sc._EXPERIMENTS.items()
            for key, (value, _) in table.items()]
    assert [row[:2] for row in rows] == [row[:2] for row in want]
    for (experiment, key, default), (_, _, value) in zip(rows, want):
        code = f"`{json.dumps(value)}`"
        ok = default.startswith(code + ": ") if value is None else default == code
        assert ok, (experiment, key, default)


_TABLE_KEYS = ([(section, None, key) for section, table in sc._SECTIONS.items() for key in table]
               + [("experiments", name, key) for name, table in sc._EXPERIMENTS.items()
                  for key in table])


@pytest.mark.parametrize("section, name, key", _TABLE_KEYS,
                         ids=[f"{name or section}.{key}" for section, name, key in _TABLE_KEYS])
def test_every_table_key_rejects_a_wrong_type_at_its_path(section, name, key):
    """The string "x" written for any plan, sim, grid or experiment key is a
    ConfigError at exactly that key's path."""
    doc = json.loads(json.dumps(sc.load_scenario("grad1d")))
    if name is None:
        doc.setdefault(section, {})[key] = "x"
        path = f"$.{section}.{key}"
    else:
        doc["experiments"].append({"name": name, key: "x"})
        path = f"$.experiments[{len(doc['experiments']) - 1}].{key}"
    with pytest.raises(ConfigError) as err:
        sc.validate_scenario(doc)
    assert err.value.path == path


@pytest.mark.parametrize("name, key, count", [
    ("hypothesis-check", "moment_phases", 5000), ("poincare", "n_phases", 5000),
    ("logsob", "n_phases", 5000), ("gradient-decay", "pointwise_samples", 801)])
def test_phase_and_sample_counts_have_no_cap(name, key, count):
    """Every phase and every pointwise sample has a stream of its own name, so
    no count is capped to keep hand-numbered streams apart."""
    doc = json.loads(json.dumps(sc.load_scenario("grad1d")))
    doc["experiments"] = [{"name": name, key: count}]
    sc.validate_scenario(doc)


def test_decay_and_gradient_profiles_march_apart(tmp_path, monkeypatch):
    """At benchmark sizes on grad1d, seed 1, the Monte Carlo decay (value) and
    gradient-decay (tangent) profiles march different positions at every
    horizon they share, so their rate fits are separate estimates."""
    captures, march = {}, mc._march

    def hashed(field, positions, jacobians, *args, **kwargs):
        kind = "value" if jacobians is None else "tangent"
        for t, pos, jac in march(field, positions, jacobians, *args, **kwargs):
            captures.setdefault(kind, {})[t] = hashlib.sha256(pos.tobytes()).hexdigest()
            yield t, pos, jac

    monkeypatch.setattr(mc, "_march", hashed)
    doc = json.loads(json.dumps(sc.load_scenario("grad1d")))
    doc["sim"].update(particles=2000, dt=0.01, n_inner=256)
    doc["experiments"] = [{**spec, "pointwise_samples": 0} if spec["name"] == "gradient-decay"
                          else spec for spec in doc["experiments"]
                          if spec["name"] in ("decay", "gradient-decay")]
    sc.run_scenario(doc, tmp_path, overrides={"seed": 1})
    value, tangent = captures["value"], captures["tangent"]
    shared = sorted(value.keys() & tangent.keys())
    assert shared == [1.0, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0]
    assert all(value[t] != tangent[t] for t in shared)


def test_exact_law_over_a_million_periods_ends(tmp_path):
    """A decay horizon of a million periods squares the one-period law up
    instead of integrating each period."""
    doc = json.loads(json.dumps(sc.load_scenario("ou1d")))
    doc["experiments"] = [{"name": "decay", "engine": "ou-exact", "horizons": [1, 1e6]}]
    path = tmp_path / "ou1d.json"
    path.write_text(json.dumps(doc))
    start = time.monotonic()
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) in (0, 1)
    assert time.monotonic() - start < 10.0


def test_unresolvable_exact_law_exits_3(tmp_path, monkeypatch, capsys):
    """An ou coefficient that turns infinite partway through the period ends
    the exact engine's law solve in IntegratorFailure, a numerical failure."""
    build = sc._FIELD_BUILDERS["ou"]

    @functools.wraps(build)
    def poisoned(**kwargs):
        model = build(**kwargs)
        return dataclasses.replace(model, A=lambda t: (
            model.A(t) if t % model.period < 0.5 else np.full((model.dim, model.dim), np.inf)))

    monkeypatch.setitem(sc._FIELD_BUILDERS, "ou", poisoned)
    doc = json.loads(json.dumps(sc.load_scenario("ou1d")))
    doc["plan"]["n_times"] = 1    # the hypothesis checker samples t = 0 only
    doc["experiments"] = [{"name": "decay", "engine": "ou-exact", "horizons": [1, 2, 3, 4, 5]}]
    path = tmp_path / "ou1d.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
    assert "non-finite model coefficient" in capsys.readouterr().err


def test_jobs_build_the_generator_once_for_grid_rate_fits(tmp_path, monkeypatch):
    """Two grid-engine rate fits under --jobs 2 share one generator build, and
    their reports are the serial run's bytes."""
    builds = []
    build = gr.build_generator

    def slow_build(*args, **kwargs):
        builds.append(args)
        time.sleep(0.2)    # holds the build open while the other worker asks
        return build(*args, **kwargs)

    monkeypatch.setattr(gr, "build_generator", slow_build)
    doc = json.loads(json.dumps(sc.load_scenario("grad1d")))
    doc["grid"].update(points_per_axis=31, time_slices=17, substeps=1)
    doc["experiments"] = [{"name": "rate-equivalence"}, {"name": "decay", "engine": "grid"}]
    sc.run_scenario(doc, tmp_path / "par", jobs=2)
    assert len(builds) == 1
    sc.run_scenario(doc, tmp_path / "serial", jobs=1)
    names = sorted(p.name for p in (tmp_path / "serial").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "par").iterdir())
    for name in names:
        assert (tmp_path / "par" / name).read_bytes() == \
            (tmp_path / "serial" / name).read_bytes(), name


class TestCli:
    def test_list_includes_builtins(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        for sid in ("ou1d", "grad1d", "gen2d"):
            assert sid in out

    def test_describe_prints_field(self, capsys):
        assert cli.main(["describe", "ou1d"]) == 0
        out = capsys.readouterr().out
        assert "a_sin" in out and "kind" in out

    def test_describe_unknown_fails(self, capsys):
        assert cli.main(["describe", "nope"]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_output_directory_does_not_shadow_its_builtin(self, tmp_path, monkeypatch, capsys):
        # ``lab run gen2d`` writes into ./gen2d/; the id still names the builtin
        (tmp_path / "gen2d").mkdir()
        monkeypatch.chdir(tmp_path)
        assert cli.main(["describe", "gen2d"]) == 0
        assert "id: gen2d" in capsys.readouterr().out

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_is_a_config_error(self, tmp_path, capsys, jobs):
        assert cli.main(["run", "ou1d", "--out", str(tmp_path), "--jobs", jobs]) == 2
        assert "--jobs" in capsys.readouterr().err
        assert not (tmp_path / "ou1d").exists()

    def test_bad_override_is_a_config_error(self, tmp_path, capsys):
        argv = ["run", "ou1d", "--out", str(tmp_path), "--particles", "50"]
        assert cli.main(argv) == 2
        assert "$.sim.particles" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [True, "abc"])
    def test_bad_seed_override_is_a_config_error(self, tmp_path, seed):
        # the seed override is validated at $.seed like the document's seed
        with pytest.raises(ConfigError) as err:
            sc.run_scenario(json.loads(json.dumps(TINY)), tmp_path, overrides={"seed": seed})
        assert err.value.path == "$.seed"
        assert not any(tmp_path.iterdir())

    def test_montecarlo_rate_equivalence_on_x_dependent_q_exits_2(self, tmp_path, capsys):
        doc = json.loads(json.dumps(sc.load_scenario("gen2d")))
        doc["experiments"] = [{"name": "rate-equivalence", "engine": "montecarlo"}]
        path = tmp_path / "gen2d.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "$.experiments[0]" in capsys.readouterr().err

    @pytest.mark.parametrize("sid, field, path", [
        ("ou1d", {"b0": [[0.0]]}, "$.field"),
        ("grad1d", {"kind": "custom-polynomial", "q_const": 0.1, "q_sin": 0.5,
                    "drift_terms": [{"power": 1, "const": -1.0}]}, "$.field.q_const"),
        ("gen2d", {"q_bump": -0.95}, "$.field.q_const"),
        # det B(t) changes sign between the sampled phases, so it vanishes there
        ("ou1d", {"b0": [[0.4]], "b_sin": [[0.5]], "b_cos": [[0.2]]}, "$.field"),
        ("ou1d", {"kind": "ou", "dim": 2, "period": 1.0, "a0": [[-1.0, 0.0], [0.0, -1.0]],
                  "b0": [[1.0, 0.0], [0.0, 0.4]], "b_sin": [[0.0, 0.0], [0.0, 0.5]]},
         "$.field"),
    ])
    def test_degenerate_diffusion_exits_2(self, tmp_path, capsys, sid, field, path):
        doc = json.loads(json.dumps(sc.load_scenario(sid)))
        doc["field"] = field if "kind" in field else {**doc["field"], **field}
        scenario = tmp_path / "degenerate.json"
        scenario.write_text(json.dumps(doc))
        assert cli.main(["run", str(scenario), "--out", str(tmp_path / "out")]) == 2
        assert f"configuration error: {path}:" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment, path", [
        ({"name": "spectrum"}, "$.experiments[0].name"),
        ({"name": "decay", "engine": "grid"}, "$.experiments[0].engine"),
    ])
    def test_grid_experiment_on_3d_field_exits_2(self, tmp_path, capsys, experiment, path):
        doc = json.loads(json.dumps(sc.load_scenario("ou1d")))
        doc["field"] = OU3D
        doc["experiments"] = [experiment]
        scenario = tmp_path / "ou3d.json"
        scenario.write_text(json.dumps(doc))
        assert cli.main(["run", str(scenario), "--out", str(tmp_path / "out")]) == 2
        assert f"configuration error: {path}: grid experiments are limited to d <= 2" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("experiment", [
        {"name": "decay", "engine": "ou-exact"},
        {"name": "rate-equivalence"},          # the engine resolves to ou-exact on ou
    ])
    def test_exact_engine_on_3d_field_fails_validation(self, experiment):
        # validation only: a run would need ~1 TB of quadrature points per horizon
        doc = json.loads(json.dumps(sc.load_scenario("ou1d")))
        doc["field"] = OU3D
        doc["experiments"] = [experiment]
        with pytest.raises(ConfigError, match=r"\$\.experiments\[0\]\.engine: the exact engine"):
            sc.validate_scenario(doc)

    @pytest.mark.parametrize("value", [["decay"], {"decay": 1}])
    @pytest.mark.parametrize("where, path", [
        (("field", "kind"), "$.field.kind"),
        (("experiments", 1, "name"), "$.experiments[1].name"),
    ])
    def test_unhashable_kind_or_name_exits_2(self, tmp_path, capsys, where, path, value):
        # a JSON list or object is unhashable: it must fail validation, not the lookup
        doc = json.loads(json.dumps(TINY))
        target = doc
        for key in where[:-1]:
            target = target[key]
        target[where[-1]] = value
        scenario = tmp_path / "unhashable.json"
        scenario.write_text(json.dumps(doc))
        assert cli.main(["run", str(scenario), "--out", str(tmp_path / "out")]) == 2
        assert f"configuration error: {path}:" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("output", 5), ("output", ""), ("seed", "abc"), ("seed", True), ("seed", 1.5),
        ("description", 5)])
    def test_bad_top_level_value_exits_2(self, tmp_path, capsys, key, value):
        scenario = tmp_path / "bad.json"
        scenario.write_text(json.dumps({**TINY, key: value}))
        assert cli.main(["run", str(scenario), "--out", str(tmp_path / "out")]) == 2
        assert f"configuration error: $.{key}:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["directory", "not-utf8"])
    def test_unreadable_scenario_file_exits_2(self, tmp_path, capsys, kind):
        scenario = tmp_path / "scenario.json"
        if kind == "directory":
            scenario.mkdir()
        else:
            scenario.write_bytes(json.dumps(TINY).encode("utf-8").replace(b"plumbing", b"\xff"))
        assert cli.main(["run", str(scenario), "--out", str(tmp_path / "out")]) == 2
        assert f"configuration error: {scenario}:" in capsys.readouterr().err


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("tinyrun")
    path = root / "tiny.json"
    path.write_text(json.dumps(TINY))
    out = root / "out"
    summary = sc.run_scenario(sc.load_scenario(path), out)
    return out, summary


class TestRun:

    def test_reports_written(self, tiny_run):
        out, summary = tiny_run
        for name in ("hypothesis-check", "decay", "poincare"):
            assert (out / f"{name}.json").exists()
            assert (out / f"{name}.csv").exists()
        assert (out / "summary.json").exists()

    def test_summary_cites_rules(self, tiny_run):
        _, summary = tiny_run
        # three horizons cannot hold a rate fit, and the refusal is the one failed check
        failed = [c for c in summary["checks"] if not c["passed"]]
        assert failed == [{"rule": "decay-rate-p2", "passed": False, "experiment": "decay",
                           "detail": "fit refused: window [1.0, 3] selects 3 < 5 points"}]
        assert summary["pass"] is False
        assert all("rule" in c and "experiment" in c for c in summary["checks"])
        rules = {c["rule"] for c in summary["checks"]}
        assert {"hyp-ellipticity", "moment-bound", "contraction", "invariance"} <= rules

    def test_health_numbers(self, tiny_run, tmp_path):
        # summary.json lists the phases the one burn-in march captured:
        # k/4 for the moment and Poincare checks, 0 for the decay horizons
        out, summary = tiny_run
        assert summary["montecarlo_phases"] == [0.0, 0.25, 0.5, 0.75]
        assert json.loads((out / "summary.json").read_text())["montecarlo_phases"] == \
            [0.0, 0.25, 0.5, 0.75]
        # spectrum.json gives the Perron inverse-iteration count beside its residual,
        # and a run without a Monte Carlo experiment lists no phases
        doc = json.loads(json.dumps(TINY))
        doc["grid"] = {"half_width": 4.5, "points_per_axis": 31, "time_slices": 17}
        doc["experiments"] = [{"name": "spectrum", "k": 10}]
        summary = sc.run_scenario(doc, tmp_path)
        assert summary["montecarlo_phases"] == []
        report = json.loads((tmp_path / "spectrum.json").read_text())
        ctx = sc.RunContext(doc=doc, seed=7)
        assert report["perron_iterations"] == ctx.generator.perron_iterations
        assert isinstance(report["perron_iterations"], int)
        assert 1 <= report["perron_iterations"] < 200
        assert report["rho_residual"] == ctx.generator.rho_residual

    def test_csv_headers_present(self, tiny_run):
        out, _ = tiny_run
        body = (out / "decay.csv").read_text()
        assert body.splitlines()[0] == "tau,value,stderr,p,phi,engine,kind"
        assert body.endswith("\n")

    def test_determinism_bytes(self, tiny_run, tmp_path):
        out, _ = tiny_run
        doc = json.loads(json.dumps(TINY))
        again = tmp_path / "again"
        sc.run_scenario(doc, again)
        names = sorted(p.name for p in out.iterdir())
        assert names == sorted(p.name for p in again.iterdir())
        assert len(names) == 7  # an experiment JSON and CSV each, plus summary.json
        for name in names:
            assert (again / name).read_bytes() == (out / name).read_bytes(), name

    def test_jobs_parallel_same_bytes(self, tiny_run, tmp_path):
        out, _ = tiny_run
        doc = json.loads(json.dumps(TINY))
        par = tmp_path / "par"
        sc.run_scenario(doc, par, jobs=3)
        for name in ("hypothesis-check", "decay", "poincare"):
            assert (par / f"{name}.csv").read_bytes() == (out / f"{name}.csv").read_bytes()

    def test_cli_run_exit_status_and_env(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(TINY))
        monkeypatch.setenv("LAB_DATA_DIR", str(tmp_path / "envroot"))
        assert cli.main(["run", str(path)]) == 1     # the refused decay fit
        assert (tmp_path / "envroot" / "tiny" / "summary.json").exists()
        out = capsys.readouterr().out
        assert "checks passed" in out

    def test_n_outer_above_particles_is_a_config_error(self, tmp_path, capsys):
        doc = json.loads(json.dumps(TINY))
        doc["sim"]["n_outer"] = 128
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(doc))
        argv = ["run", str(path), "--out", str(tmp_path / "out"), "--particles", "100"]
        assert cli.main(argv) == 2
        assert "$.sim.n_outer" in capsys.readouterr().err

    def test_jobs_build_each_phase_ensemble_once(self, tmp_path, monkeypatch):
        # one burn-in march builds every phase the document integrates over
        builds = Counter()
        sample = mc.sample_periodic_measure

        def slow_sample(field, phases, *args, **kwargs):
            builds[tuple(phases)] += 1
            time.sleep(0.2)    # holds the build open while the other worker asks
            return sample(field, phases, *args, **kwargs)

        monkeypatch.setattr(mc, "sample_periodic_measure", slow_sample)
        doc = json.loads(json.dumps(TINY))
        doc["experiments"] = [TINY["experiments"][0], TINY["experiments"][2]]
        sc.run_scenario(doc, tmp_path / "par", jobs=2)
        assert builds == Counter({(0.0, 0.25, 0.5, 0.75): 1})
        sc.run_scenario(doc, tmp_path / "serial", jobs=1)
        names = sorted(p.name for p in (tmp_path / "serial").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "par").iterdir())
        for name in names:
            assert (tmp_path / "par" / name).read_bytes() == \
                (tmp_path / "serial" / name).read_bytes(), name

    @pytest.mark.parametrize("naive_multiple, passed", [(5.0, True), (6.0, False)])
    def test_moment_bound_slack_uses_pair_units(self, naive_multiple, passed, monkeypatch):
        # exact mirror pairs (x, -x): 1 + |x|^2 has one independent value per
        # pair, so its stderr is about sqrt(2) times the per-particle one
        ctx = sc.RunContext(doc=sc.validate_scenario(json.loads(json.dumps(TINY))), seed=7)
        half = np.random.default_rng(4).standard_normal((750, 1))
        ens = mc.ParticleEnsemble(0.0, np.concatenate([half, -half]))
        monkeypatch.setattr(mc, "sample_periodic_measure",
                            lambda field, phases, *args, **kwargs: [ens for _ in phases])
        v = 1.0 + ens.positions[:, 0] ** 2
        naive = v.std(ddof=1) / np.sqrt(len(v))
        paired = mc.mean_and_stderr(v, True)[1]
        assert 5.0 * naive < 4.0 * paired < 6.0 * naive
        report = hyp.check_hypotheses(ctx.field, ctx.plan)
        bound = v.mean() - naive_multiple * naive
        monkeypatch.setattr(hyp, "check_hypotheses", lambda field, plan: dataclasses.replace(
            report, lyapunov=dataclasses.replace(report.lyapunov, a=bound - 1.0, c=1.0)))
        result = sc._run_hypothesis_check(ctx, {"moment_phases": 1})
        assert next(c["passed"] for c in result.checks if c["rule"] == "moment-bound") is passed

    def test_contraction_reads_the_decay_profile(self, tmp_path, monkeypatch):
        calls = []
        profile = eng.MonteCarloEngine.transfer_profile

        def counted(self, *args, **kwargs):
            calls.append(args[2])
            return profile(self, *args, **kwargs)

        monkeypatch.setattr(eng.MonteCarloEngine, "transfer_profile", counted)
        doc = json.loads(json.dumps(TINY))
        doc["experiments"] = [TINY["experiments"][1]]
        summary = sc.run_scenario(doc, tmp_path)
        assert calls == [[1, 2, 3]]
        assert {"contraction", "invariance"} <= {c["rule"] for c in summary["checks"]}

    def test_seed_override_changes_numbers(self, tiny_run, tmp_path):
        out, _ = tiny_run
        doc = json.loads(json.dumps(TINY))
        other = tmp_path / "seeded"
        sc.run_scenario(doc, other, overrides={"seed": 99})
        assert (other / "decay.csv").read_bytes() != (out / "decay.csv").read_bytes()


def test_jobs_parallel_same_bytes_grid_scenario(tmp_path):
    """ou1d at toy sizes: the generator built once, by the first worker that
    asks, gives the same bytes as a serial run."""
    doc = json.loads(json.dumps(sc.load_scenario("ou1d")))
    doc["sim"] = {"particles": 200, "dt": 0.02, "horizon_periods": 2, "n_outer": 8,
                  "n_inner": 16, "antithetic": True}
    doc["grid"] = {"half_width": 4.5, "points_per_axis": 31, "time_slices": 17,
                   "time_scheme": "spectral", "substeps": 1}
    doc["plan"] = {"r_max": 6.0, "n_times": 8, "n_axis": 9, "n_shells": 2, "n_shell_dirs": 2}
    sc.run_scenario(doc, tmp_path / "serial", jobs=1)
    sc.run_scenario(doc, tmp_path / "par", jobs=3)
    names = sorted(p.name for p in (tmp_path / "serial").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "par").iterdir())
    assert len(names) == 17  # eight experiments, a JSON and a CSV each, plus summary.json
    for name in names:
        assert (tmp_path / "par" / name).read_bytes() == (tmp_path / "serial" / name).read_bytes()


def test_jobs_solve_each_exact_phase_once(tmp_path, monkeypatch):
    """ou1d's exact-engine experiments on two workers: one Lyapunov solve per
    phase measure asked for, the periods integrated of a serial run, and the
    same bytes."""
    phases, solves, periods = set(), [], []
    measure, lyapunov, transition = (ou.PeriodicGaussianSystem.measure,
                                     ou.solve_discrete_lyapunov, ou._transition_ode)

    def recorded(self, s):
        phases.add(s % self.period)
        return measure(self, s)

    def slow_lyapunov(*args):
        solves.append(args)
        time.sleep(0.1)    # holds the solve open while the other worker asks
        return lyapunov(*args)

    def counted(model, t, s, tol):
        periods.append((t - s) / model.period)
        return transition(model, t, s, tol)

    monkeypatch.setattr(ou.PeriodicGaussianSystem, "measure", recorded)
    monkeypatch.setattr(ou, "solve_discrete_lyapunov", slow_lyapunov)
    monkeypatch.setattr(ou, "_transition_ode", counted)
    doc = json.loads(json.dumps(sc.load_scenario("ou1d")))
    doc["plan"] = {"r_max": 6.0, "n_times": 8, "n_axis": 9, "n_shells": 2, "n_shell_dirs": 2}
    doc["experiments"] = [spec for spec in doc["experiments"] if spec.get("engine") == "ou-exact"]
    sc.run_scenario(doc, tmp_path / "par", jobs=2)
    assert len(solves) == len(phases | {0.0})
    parallel = sum(periods)
    periods.clear()
    sc.run_scenario(doc, tmp_path / "serial", jobs=1)
    assert sum(periods) == pytest.approx(parallel)
    names = sorted(p.name for p in (tmp_path / "serial").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "par").iterdir())
    for name in names:
        assert (tmp_path / "par" / name).read_bytes() == (tmp_path / "serial" / name).read_bytes()


def test_jobs_solve_the_dense_spectrum_once(tmp_path, monkeypatch):
    """ou1d's spectrum and spectral-mapping on two workers share one dense
    eigensolve of the generator (one LAPACK call per parity block), and give
    the bytes of a serial run."""
    eigvals, solves = np.linalg.eigvals, []

    def slow_eigvals(a):
        if len(a) > 31:    # a generator block, not a one-period map of 31 or 1 rows
            solves.append(a.shape)
            time.sleep(0.2)    # holds the solve open while the other worker asks
        return eigvals(a)

    monkeypatch.setattr(gr.np.linalg, "eigvals", slow_eigvals)
    doc = json.loads(json.dumps(sc.load_scenario("ou1d")))
    doc["grid"] = {"half_width": 4.5, "points_per_axis": 31, "time_slices": 17,
                   "time_scheme": "spectral", "substeps": 1}
    doc["plan"] = {"r_max": 6.0, "n_times": 8, "n_axis": 9, "n_shells": 2, "n_shell_dirs": 2}
    doc["experiments"] = [dict(spec, refine=False) if spec["name"] == "spectrum" else spec
                          for spec in doc["experiments"]
                          if spec["name"] in ("spectrum", "spectral-mapping")]
    sc.run_scenario(doc, tmp_path / "par", jobs=2)
    # the odd and even blocks, solved side by side, so in either order
    assert sorted(solves) == [(15 * 17, 15 * 17), (16 * 17, 16 * 17)]
    sc.run_scenario(doc, tmp_path / "serial", jobs=1)
    assert len(solves) == 4
    names = sorted(p.name for p in (tmp_path / "serial").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "par").iterdir())
    for name in names:
        assert (tmp_path / "par" / name).read_bytes() == (tmp_path / "serial" / name).read_bytes()


def grid_only_ou1d(tmp_path, experiment: dict) -> Path:
    """ou1d at toy grid size running one grid experiment, written to a file."""
    doc = json.loads(json.dumps(sc.load_scenario("ou1d")))
    doc["grid"] = {"half_width": 4.5, "points_per_axis": 31, "time_slices": 17,
                   "time_scheme": "spectral", "substeps": 1}
    doc["experiments"] = [experiment]
    path = tmp_path / "ou1d.json"
    path.write_text(json.dumps(doc))
    return path


def test_failed_monodromy_eigensolve_exits_3(tmp_path, capsys, monkeypatch):
    """A LAPACK failure on the one-period map is a numerical failure (exit 3),
    not a traceback."""
    eigvals = np.linalg.eigvals

    def failing(a):
        if len(a) != 31:    # the generator's blocks solve; the 31-node map fails
            return eigvals(a)
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    path = grid_only_ou1d(tmp_path, {"name": "spectral-mapping"})
    monkeypatch.setattr(gr.np.linalg, "eigvals", failing)
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
    assert "one-period map: Eigenvalues did not converge" in capsys.readouterr().err


def test_diverging_crank_nicolson_step_exits_3(tmp_path, capsys, monkeypatch):
    """A Crank-Nicolson step that produces non-finite values is a numerical
    failure (exit 3), not a traceback."""
    path = grid_only_ou1d(tmp_path, {"name": "spectral-mapping"})
    monkeypatch.setattr(gr.spla, "spsolve", lambda mat, rhs: np.full(np.shape(rhs), np.nan))
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
    assert "Crank-Nicolson produced non-finite values" in capsys.readouterr().err


def test_singular_solvability_lu_exits_3(tmp_path, capsys, monkeypatch):
    """An exactly singular generator is a numerical failure (exit 3), not a
    traceback: its one LU, factored at build and read by the solvability
    check, meets the singular matrix."""
    splu, real_factors = gr.spla.splu, []

    def singular(mat):
        if mat.dtype.kind == "f":
            real_factors.append(mat.shape)
            raise RuntimeError("Factor is exactly singular")
        return splu(mat)

    path = grid_only_ou1d(tmp_path, {"name": "spectrum", "solvability": True})
    monkeypatch.setattr(gr.spla, "splu", singular)
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
    assert real_factors == [(31 * 17, 31 * 17)]
    assert "LU of the generator: Factor is exactly singular" in capsys.readouterr().err


def test_refused_rate_equivalence_fit_is_a_failed_check(tmp_path, capsys):
    """Too few horizons in the window refuse both fits: the run still writes
    every report and exits 1 (checks failed), not 3 (numerical failure)."""
    doc = json.loads(json.dumps(sc.load_scenario("ou1d")))
    doc["sim"] = {"particles": 200, "dt": 0.02, "horizon_periods": 2, "n_outer": 8,
                  "n_inner": 16, "antithetic": True}
    doc["plan"] = {"r_max": 6.0, "n_times": 8, "n_axis": 9, "n_shells": 2, "n_shell_dirs": 2}
    doc["experiments"] = [
        {"name": "hypothesis-check", "moment_phases": 2},
        {"name": "rate-equivalence", "engine": "ou-exact", "horizons": [1, 2, 3, 4, 5, 6],
         "window": [1, 3]},
    ]
    path = tmp_path / "ou1d.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    out = tmp_path / "out" / "ou1d"
    for name in ("hypothesis-check", "rate-equivalence"):
        assert (out / f"{name}.json").exists() and (out / f"{name}.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    check = next(c for c in summary["checks"] if c["experiment"] == "rate-equivalence")
    assert check["rule"] == "rate-equivalence" and not check["passed"]
    refusal = "window [1, 3] selects 3 < 5 points"
    assert check["detail"] == f"fit refused: {refusal}"
    text = (out / "rate-equivalence.json").read_text()
    assert "NaN" not in text
    report = json.loads(text)
    assert report["omega_hat"] is None and report["difference"] is None
    assert report["omega_fit"] == report["gamma_fit"] == {"refused": refusal}
    assert (out / "rate-equivalence.csv").read_text().splitlines()[1] == ",,,2.0"
    assert "[FAIL] rate-equivalence/rate-equivalence: fit refused" in capsys.readouterr().out


def test_refused_decay_fit_without_bounds_is_a_failed_check(tmp_path, capsys):
    """A decay with no rate bounds and no contraction rows still reports a fit
    it refused: one failing check, exit 1, never "0/0 checks passed"."""
    doc = json.loads(json.dumps(sc.load_scenario("ou1d")))
    doc["experiments"] = [{"name": "decay", "engine": "ou-exact", "horizons": [1, 1e6]}]
    path = tmp_path / "ou1d.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    summary = json.loads((tmp_path / "out" / "ou1d" / "summary.json").read_text())
    refusal = "window [1.0, 1000000.0] selects 2 < 5 points"
    assert summary["checks"] == [{"experiment": "decay", "rule": "decay-rate-p2",
                                  "passed": False, "detail": f"fit refused: {refusal}"}]
    assert "0/1 checks passed" in capsys.readouterr().out


def test_solvability_check_fails_when_rho_is_not_invariant(monkeypatch):
    """A perturbed mass vector puts mean-zero data on the near-null direction;
    the dichotomy on solution norms sees it."""
    build = gr.build_generator
    for sid in ("ou1d", "grad1d"):
        doc = json.loads(json.dumps(sc.load_scenario(sid)))
        doc["grid"].update(points_per_axis=31, time_slices=17)
        verdicts = []
        for scale in (0.0, 0.2):
            def perturbed(*args, scale=scale):
                gen = build(*args)
                rho = gen.rho * (1.0 + scale * np.sin(np.arange(gen.size)))
                return dataclasses.replace(gen, rho=rho / rho.sum())

            monkeypatch.setattr(gr, "build_generator", perturbed)
            ctx = sc.RunContext(doc=doc, seed=1)
            spec = {**sc._defaults(sc._EXPERIMENTS["spectrum"]), "solvability": True}
            result = sc._run_spectrum(ctx, spec)
            verdicts += [c["passed"] for c in result.checks
                         if c["rule"] == "mean-zero-solvability"]
        assert verdicts == [True, False], sid
