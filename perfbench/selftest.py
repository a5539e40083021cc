"""Fast self-test of the benchmark harness (a few seconds).

    python3 perfbench/selftest.py        # from the root of a checkout

Checks the self-time arithmetic on hand-built spans, the report digest
comparison, that BENCHMARK.json lists the metrics run.py emits, and one
traced toy-sized scenario run twice in this process: spans nest, layer self
times add up to the run time, work counts repeat exactly and the reports
match byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import child
import run
import tracing

ROOT = Path.cwd()


def check(cond: bool, message: str):
    if not cond:
        raise SystemExit(f"FAIL: {message}")
    print(f"ok: {message}")


def test_self_time_arithmetic():
    check(tracing.covered([(1, 3), (2, 4), (5, 6)], 0, 10) == 4.0, "overlapping children merge")
    check(tracing.covered([(1, 3), (8, 12)], 0, 10) == 4.0, "children clip to the parent")
    spans = [
        ["scenarios.dispatch", 0.0, 10.0, -1],
        ["engines.MonteCarloEngine.transfer_profile", 1.0, 7.0, 0],
        ["montecarlo.sample_periodic_measure", 2.0, 5.0, 1],
        ["fields.b", 3.0, 4.0, 2],
        ["grid.spectrum_dense", 8.0, 9.5, 0],
        ["scenarios.dispatch", 11.0, 12.0, -1],
    ]
    own = tracing.self_times(spans)
    check(own == [2.5, 3.0, 2.0, 1.0, 1.5, 1.0], f"self times {own}")
    counts = Counter({"montecarlo.value_particle_steps": 4000})
    out = tracing.derive_metrics(spans, counts, run_s=12.5)
    check(out["scenarios.unattributed_s"] == 1.5, "unattributed = run_s - top-level spans")
    total = sum(out[f"layer.{layer}.self_s"] for layer in tracing.LAYERS)
    check(abs(total + out["scenarios.unattributed_s"] - 12.5) < 1e-12,
          "layer self times + unattributed = run_s")
    check(out["scenarios.dispatch.calls"] == 2 and out["scenarios.dispatch.self_s"] == 3.5,
          "per-call totals add over calls")
    # marching time of the profile excludes its nested ensemble (6 - 3 s), plus the
    # ensemble's 3 s, over 4000 steps
    check(abs(out["montecarlo.value_ns_per_particle_step"] - 1e9 * 6.0 / 4000) < 1e-6,
          "ns per particle-step")


def test_digest_check():
    with tempfile.TemporaryDirectory() as tmp:
        runs = []
        for i, (gap, value) in enumerate([("-1.0000008857940932", "0.5"),
                                          ("-1.0000008857940932", "0.5"),
                                          ("-1.0000008857940919", "0.5"),
                                          ("-1.0000009", "0.5"),
                                          ("-1.0000008857940932", "0.50000001")]):
            d = Path(tmp, f"run{i}")
            d.mkdir()
            (d / "summary.json").write_text('{"pass": true}')
            (d / "spectrum.json").write_text(f'{{"refined_gap": {gap}}}')
            (d / "decay.csv").write_text(f"tau,value\n1,{value}\n")
            runs.append({"files": child.report_digests(d), "reports": str(d)})

        def problems(pair):
            inv = run.Invocation("toy", 0, Path(tmp), time.monotonic())
            return run.compare_reports(inv, pair), inv.problems

        check(problems(runs[0:2]) == ([], []), "identical reports pass")
        check(problems([runs[0], runs[2]]) == (["spectrum.json"], []),
              "a last-digit JSON difference is counted and named, not fatal")
        noisy, found = problems([runs[0], runs[3]])
        check(not noisy and "spectrum.json" in found[0], "a larger JSON difference fails")
        noisy, found = problems([runs[0], runs[4]])
        check(not noisy and "decay.csv" in found[0], "any CSV byte difference fails")


def test_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(e2e == run.END_TO_END, "BENCHMARK.json end_to_end matches run.py")
    check(layer == run.per_layer_units(), "BENCHMARK.json per_layer matches run.py")
    workloads = json.loads((Path(run.__file__).parent / "workloads.json").read_text())
    check({w["name"] for w in spec["workloads"]} == set(workloads["workloads"]),
          "BENCHMARK.json workloads match workloads.json")


def toy_doc(scenarios) -> dict:
    doc = json.loads(json.dumps(scenarios.load_scenario("ou1d")))
    doc["sim"] = {"particles": 200, "dt": 0.02, "horizon_periods": 2, "n_outer": 8,
                  "n_inner": 16, "antithetic": True}
    doc["grid"] = {"half_width": 4.5, "points_per_axis": 31, "time_slices": 17,
                   "time_scheme": "spectral", "substeps": 1}
    doc["plan"] = {"r_max": 6.0, "n_times": 8, "n_axis": 9, "n_shells": 2, "n_shell_dirs": 2}
    keep = [e for e in doc["experiments"]
            if e["name"] in ("hypothesis-check", "decay", "gradient-decay", "spectrum",
                             "spectral-mapping")]
    for e in keep:
        if e["name"] == "gradient-decay":    # a Monte Carlo tangent-flow profile
            e.update(engine="montecarlo", horizons=[1, 2], window=[1, 2])
        e.pop("refine", None)
        e.pop("carre", None)
        e.pop("solvability", None)
        e.pop("contraction_gaps", None)
    doc["experiments"] = keep
    return scenarios.validate_scenario(doc)


def test_toy_traced_runs():
    sys.path.insert(0, str(ROOT / "src"))
    from periodiclab import (diagnostics, engines, grid, hypotheses, montecarlo,
                             ougaussian, scenarios)

    rec = tracing.Recorder("selftest")
    pkg = argparse.Namespace(montecarlo=montecarlo, engines=engines, grid=grid,
                             ougaussian=ougaussian, hypotheses=hypotheses,
                             diagnostics=diagnostics, scenarios=scenarios)
    check(tracing.install(rec, pkg) == [], "every listed call is found and wrapped")
    exp_s = {}
    tracing.wrap_dispatch(scenarios, exp_s.__setitem__, rec)
    doc = toy_doc(scenarios)
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(2):
            rec.spans, rec.counts, rec._solved = [], Counter(), {}
            out = Path(tmp, f"run{i}")
            t0 = time.perf_counter()
            scenarios.run_scenario(doc, out, overrides={"seed": 7})
            run_s = time.perf_counter() - t0
            layers = tracing.derive_metrics(rec.spans, rec.counts, run_s)
            results.append((layers, child.report_digests(out), run_s))
    layers, digests, run_s = results[0]
    check(sorted(exp_s) == ["decay", "decay-2", "gradient-decay", "hypothesis-check",
                            "spectral-mapping", "spectrum"],
          "experiments are timed under their report names")
    check(all(row[3] < i for i, row in enumerate(rec.spans)), "parents open before children")
    total = sum(layers[f"layer.{layer}.self_s"] for layer in tracing.LAYERS)
    total += layers["scenarios.unattributed_s"]
    check(abs(total - run_s) <= 0.01 * run_s, "layer self times + unattributed within 1%")
    check(layers["engines.MonteCarloEngine.transfer_profile_grad.calls"] == 1,
          "the gradient profile is its own span")
    for name in ("montecarlo.value_particle_steps", "montecarlo.tangent_particle_steps",
                 "grid.cn_column_steps",
                 "grid.generator_unknowns", "ougaussian.quadrature_points",
                 "hypotheses.plan_points", "grid.spectrum_repeat_calls"):
        check(layers[name] > 0, f"{name} counted ({layers[name]})")
    check(all(results[0][0][n] == results[1][0][n] for n in tracing.WORK_COUNTS),
          "work counts repeat exactly")
    check(results[0][1] == results[1][1], "same-seed reports match byte for byte")


if __name__ == "__main__":
    t0 = time.perf_counter()
    test_self_time_arithmetic()
    test_digest_check()
    test_benchmark_json()
    test_toy_traced_runs()
    print(f"selftest passed in {time.perf_counter() - t0:.1f} s")
