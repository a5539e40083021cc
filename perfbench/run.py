"""Scenario benchmark for periodiclab: time to all verdicts, per workload and per layer.

Run from the root of a checkout (nothing needs building; ``src/`` is put on
the path of each run):

    python3 perfbench/run.py --workload ou1d --seed 1 --seconds 20 --trace 0

Every sample is a fresh interpreter (``perfbench/child.py``) that imports
``periodiclab``, loads and validates the workload scenario, and runs it
through ``scenarios.run_scenario`` with ``jobs=1``.  All runs of one
invocation use the same seed, and their report files must match byte for
byte.

``--trace 0`` repeats untraced runs until ``--seconds`` have passed (at
least two) and reports the end-to-end metrics as medians.  ``--trace 1`` makes
one untraced run and then traced runs (at least two), which wrap the
package's public calls in spans (see ``tracing.py``), and reports the
per-layer metrics.  Work counts must repeat exactly across traced runs.

Lines before the last one are for people: the machine, then each metric
with its unit and sample count.  The last line is one JSON object with the
keys ``correct``, ``attempted`` (scenario runs started), ``failed`` (runs
that raised, crashed or timed out) and ``metrics``.  Scenario checks that
fail are a verdict of the program, not a failed run: they are counted in
``scenarios.check_fail_ratio`` and listed above the JSON line.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
RUNS_DIR = ".perfbench_runs"
DEADLINE_S = 165.0          # an invocation must end within 180 s
SETUP_PROBES = 2            # setup-only interpreters, besides one per run
MIN_RUNS = 3                # untraced same-seed runs: a median that one slow run cannot move
MIN_TRACED_RUNS = 2         # traced runs whose work counts are compared
FLOAT_NOISE = 1e-12         # relative; last-digit differences of one computation

# Per-experiment times are printed but not listed here: an end-to-end metric
# must exist on every workload, and the sub-second and one-second experiments
# spread too much between seeds to carry a bound.
END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
# experiments that take a second or more on some workload
EXPERIMENTS = ["hypothesis-check", "decay", "decay-2", "gradient-decay", "spectrum",
               "spectral-mapping"]


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in tracing.SPAN_NAMES:
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    for name in tracing.COUNT_NAMES:
        units[name] = "count"
    units.update({
        "montecarlo.value_ns_per_particle_step": "ns",
        "montecarlo.tangent_ns_per_particle_step": "ns",
        "engines.phase_ensemble_hit_ratio": "ratio",
        "fields.b.ns_per_point": "ns",
        "fields.q.ns_per_point": "ns",
        "fields.grad_b.ns_per_point": "ns",
        "scenarios.unattributed_s": "s",
    })
    for layer in tracing.LAYERS:
        units[f"layer.{layer}.self_s"] = "s"
    units.update({
        "scenarios.check_fail_ratio": "ratio",
        "scenarios.report_mismatch_files": "count",
        "trace.run_s": "s",
        "trace.overhead_ratio": "ratio",
    })
    for exp in EXPERIMENTS:
        units[f"exp.{exp}_s"] = "s"
    return units


def environment() -> dict:
    """The machine and library versions, for every result."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": blas_name,
    }


class Invocation:
    """The fresh-process runs of one benchmark invocation."""

    def __init__(self, workload: str, seed: int, root: Path, started: float):
        self.workload = workload
        self.seed = seed
        self.root = root
        self.started = started
        self.runs: list[dict] = []          # every scenario run started
        self.problems: list[str] = []

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def child(self, tag: str, *flags: str) -> dict | None:
        out = self.root / tag
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--out", str(out), *flags]
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd + ["--spawned", repr(spawned)], capture_output=True,
                                  text=True, timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            self.problems.append(f"{tag}: timed out")
            return None
        wall = time.monotonic() - spawned
        lines = proc.stdout.strip().splitlines()
        result = None
        if lines:
            try:
                result = json.loads(lines[-1])
            except json.JSONDecodeError:
                pass
        if proc.returncode != 0 or result is None or "error" in result:
            detail = (result or {}).get("error") or proc.stderr.strip()[-2000:]
            self.problems.append(f"{tag}: exit {proc.returncode}\n{detail}")
            return None
        result["wall_s"] = wall
        result["reports"] = str(out / "reports")
        return result

    def setup_probe(self, tag: str) -> float | None:
        result = self.child(tag, "--setup-only")
        return None if result is None else result["setup_s"]

    def scenario_run(self, tag: str, traced: bool) -> dict | None:
        result = self.child(tag, *(["--trace"] if traced else []))
        self.runs.append(result)
        if result is not None and result["missing_reports"]:
            self.problems.append(f"{tag}: missing reports {result['missing_reports']}")
        return result

    def repeat_runs(self, seconds: float, prefix: str, traced: bool) -> list[dict]:
        """Runs until ``seconds`` have passed and the minimum number completed."""
        least = MIN_TRACED_RUNS if traced else MIN_RUNS
        done: list[dict] = []
        t0 = time.monotonic()
        last = 0.0
        while len(done) < least or time.monotonic() - t0 < seconds:
            if len(done) >= least and last > self.remaining():
                break
            begun = time.monotonic()
            result = self.scenario_run(f"{prefix}-{len(self.runs)}", traced)
            last = time.monotonic() - begun
            if result is None:
                break
            done.append(result)
        return done


def print_metric(name: str, values: list[float], unit: str):
    print(f"  {name:<48} {statistics.median(values):>14.6g} {unit:<6} n={len(values)} "
          f"min={min(values):.6g} max={max(values):.6g}")


def same_numbers(a, b) -> bool:
    """Equal JSON values, with numbers allowed to differ by FLOAT_NOISE (relative)."""
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(
            same_numbers(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(map(same_numbers, a, b))
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (a != a and b != b) or math.isclose(a, b, rel_tol=FLOAT_NOISE)
    return a == b


def compare_reports(inv: Invocation, done: list[dict]) -> list[str]:
    """Same-seed runs must write byte-identical reports.

    Any CSV or ``summary.json`` difference is a problem, and so is any
    experiment JSON difference beyond floating-point noise.  Experiment JSON
    files that differ only within FLOAT_NOISE are returned: they are counted
    and named, but do not fail the run.
    """
    first = done[0]
    noisy = set()
    for i, result in enumerate(done[1:], start=1):
        for name in sorted(set(first["files"]) | set(result["files"])):
            if first["files"].get(name) == result["files"].get(name):
                continue
            if (name.endswith(".json") and name != "summary.json"
                    and name in first["files"] and name in result["files"]
                    and same_numbers(*(json.loads(Path(r["reports"], name).read_text())
                                       for r in (first, result)))):
                noisy.add(name)
            else:
                inv.problems.append(f"report {name} differs between same-seed runs 0 and {i}")
    print(f"  report files that differ between same-seed runs within float noise: "
          f"{', '.join(sorted(noisy)) or 'none'}")
    return sorted(noisy)


def check_summary(done: list[dict]) -> float:
    """Failed over attempted scenario checks of the runs; prints the failures."""
    attempted = sum(r["checks_attempted"] for r in done)
    failed = sum(len(r["checks_failed"]) for r in done)
    names = sorted({name for r in done for name in r["checks_failed"]})
    ratio = failed / attempted if attempted else 1.0
    print(f"  {'check_fail_ratio':<48} {ratio:>14.6g} ratio  "
          f"{failed} of {attempted} checks over {len(done)} runs")
    print(f"  failed checks: {', '.join(names) or 'none'}")
    return ratio


def end_to_end(inv: Invocation, seconds: float) -> dict | None:
    setups = [inv.setup_probe(f"setup-{i}") for i in range(SETUP_PROBES)]
    done = inv.repeat_runs(seconds, "run", traced=False)
    if not done:
        return None
    samples = {
        "run_s": [r["run_s"] for r in done],
        "setup_s": [s for s in setups if s is not None] + [r["setup_s"] for r in done],
        "cpu_s": [r["cpu_s"] for r in done],
        "peak_rss_mb": [r["peak_rss_mb"] for r in done],
    }
    for exp in sorted({e for r in done for e in r["exp_s"]}):
        samples[f"exp.{exp}_s"] = [r["exp_s"][exp] for r in done if exp in r["exp_s"]]
    compare_reports(inv, done)
    print(f"end-to-end metrics, medians over {len(done)} same-seed runs (untraced):")
    for name, values in samples.items():
        print_metric(name, values, END_TO_END.get(name, "s"))
    check_summary(done)
    return {name: statistics.median(samples[name]) for name in END_TO_END}


def per_layer(inv: Invocation, seconds: float) -> dict | None:
    plain = inv.scenario_run("untraced-0", traced=False)
    done = inv.repeat_runs(seconds, "traced", traced=True)
    if plain is None or not done:
        return None
    noisy = compare_reports(inv, [plain] + done)
    for result in done:
        if result["missing_wrappers"]:
            print(f"note: not traced (gone from the package): {result['missing_wrappers']}",
                  file=sys.stderr)
    for name in tracing.WORK_COUNTS:
        seen = {r["layers"].get(name, 0) for r in done}
        if len(seen) > 1:
            inv.problems.append(f"work count {name} differs between traced runs: {sorted(seen)}")
    for i, r in enumerate(done):
        layers = r["layers"]
        total = sum(layers[f"layer.{layer}.self_s"] for layer in tracing.LAYERS)
        total += layers["scenarios.unattributed_s"]
        if abs(total - r["run_s"]) > 0.01 * r["run_s"]:
            inv.problems.append(f"traced run {i}: layer self times sum to {total:.4f} s, "
                                f"not run_s {r['run_s']:.4f} s")

    units = per_layer_units()
    trace_run_s = statistics.median(r["run_s"] for r in done)
    metrics = {}
    for name in units:
        if name in tracing.WORK_COUNTS:
            metrics[name] = done[0]["layers"].get(name, 0)
        elif name.startswith("exp."):
            metrics[name] = plain["exp_s"].get(name[4:-2], 0.0)
        elif name in done[0]["layers"]:
            metrics[name] = statistics.median(r["layers"][name] for r in done)
    metrics["scenarios.report_mismatch_files"] = len(noisy)
    metrics["trace.run_s"] = trace_run_s
    metrics["trace.overhead_ratio"] = trace_run_s / plain["run_s"] - 1.0
    print(f"per-layer metrics, medians over {len(done)} traced runs; exp.* from one "
          f"untraced run of {plain['run_s']:.3f} s; counts identical in every traced run:")
    for name in units:
        if name in metrics:
            print(f"  {name:<48} {metrics[name]:>14.6g} {units[name]}")
    metrics["scenarios.check_fail_ratio"] = check_summary([plain] + done)
    return metrics


def main(argv=None) -> int:
    load_1m = os.getloadavg()[0]
    started = time.monotonic()
    workloads = json.loads((HERE / "workloads.json").read_text())["workloads"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "periodiclab" / "__init__.py").is_file():
        print(f"no periodiclab sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    runs = root / RUNS_DIR / args.workload
    shutil.rmtree(runs, ignore_errors=True)
    runs.mkdir(parents=True)

    env = environment() | {"loadavg_1m": load_1m}
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload}: sizes {json.dumps(workloads[args.workload]['sizes'])}, "
          f"seed {args.seed}")
    inv = Invocation(args.workload, args.seed, runs, started)
    if inv.setup_probe("warmup") is None:     # byte-compiles and warms the file cache
        print("\n".join(inv.problems), file=sys.stderr)
        return 2
    if args.trace:
        metrics = per_layer(inv, args.seconds)
        units = per_layer_units()
    else:
        metrics = end_to_end(inv, args.seconds)
        units = END_TO_END
    failed = sum(1 for r in inv.runs if r is None)
    for problem in inv.problems:
        print(f"problem: {problem}", file=sys.stderr)
    correct = metrics is not None and not inv.problems
    (runs / "result.json").write_text(json.dumps(
        {"environment": env, "workload": args.workload, "seed": args.seed,
         "trace": args.trace, "problems": inv.problems, "runs": inv.runs}, indent=1))
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, len(inv.runs)),
        "failed": failed if inv.runs else 1,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if metrics and name in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
