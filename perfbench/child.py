"""One benchmark run in a fresh interpreter: set up, run a workload scenario, report.

run.py starts this file once per sample, from the root of a checkout:

    python3 perfbench/child.py --workload ou1d --seed 1 --spawned <time.monotonic()> \
        --out .perfbench_runs/ou1d/run-0 [--trace] [--setup-only]

Set-up time runs from the parent's spawn timestamp (``time.monotonic`` is one
clock for every process on the machine) until ``periodiclab`` is imported
and the workload scenario is loaded and validated.  The scenario then runs
through ``scenarios.run_scenario`` with ``jobs=1``; its reports go to
``<out>/reports``.  The last line on stdout is one JSON object.
"""

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()


def load_workload(scenarios, name: str) -> dict:
    """The builtin scenario of a workload with the benchmark's sizes applied."""
    spec = json.loads((HERE / "workloads.json").read_text())["workloads"][name]
    doc = json.loads(json.dumps(scenarios.load_scenario(spec["builtin"])))
    for section, values in spec["sizes"].items():
        doc.setdefault(section, {}).update(values)
    return scenarios.validate_scenario(doc)


def report_digests(reports: Path) -> dict:
    """sha256 of every report file (``*.json``, ``*.csv``) by file name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(reports.iterdir()) if p.suffix in (".json", ".csv")}


def missing_reports(summary: dict, files: dict, n_experiments: int) -> list[str]:
    """Report files a complete run must have written but did not."""
    names = list(summary.get("experiments", {}))
    missing = [] if len(names) == n_experiments else [f"{n_experiments} experiments"]
    want = ["summary.json"] + [f"{n}{ext}" for n in names for ext in (".json", ".csv")]
    return missing + [f for f in want if f not in files]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import periodiclab
    from periodiclab import scenarios

    doc = load_workload(scenarios, args.workload)
    setup_s = time.monotonic() - args.spawned
    src = (ROOT / "src").resolve()
    if src not in Path(periodiclab.__file__).resolve().parents:
        raise RuntimeError(f"periodiclab imported from {periodiclab.__file__}, not {src}")
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # the harness is imported after set-up so that setup_s covers only the package
    import tracing
    from periodiclab import diagnostics, engines, grid, hypotheses, montecarlo, ougaussian

    out = Path(args.out)
    reports = out / "reports"
    exp_s: dict[str, float] = {}
    rec = None
    missing_wrappers: list[str] = []
    if args.trace:
        rec = tracing.Recorder(run_id=f"{args.workload}:{args.seed}:{out.name}")
        pkg = argparse.Namespace(montecarlo=montecarlo, engines=engines, grid=grid,
                                 ougaussian=ougaussian, hypotheses=hypotheses,
                                 diagnostics=diagnostics, scenarios=scenarios)
        missing_wrappers = tracing.install(rec, pkg)
    tracing.wrap_dispatch(scenarios, exp_s.__setitem__, rec)

    result = {"setup_s": setup_s, "exp_s": exp_s, "missing_wrappers": missing_wrappers}
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    try:
        summary = scenarios.run_scenario(doc, reports, jobs=1, overrides={"seed": args.seed})
    except Exception:
        result["error"] = traceback.format_exc()
        print(json.dumps(result))
        return 1
    run_s = time.perf_counter() - t0
    r1 = resource.getrusage(resource.RUSAGE_SELF)

    files = report_digests(reports)
    result.update(
        run_s=run_s,
        cpu_s=(r1.ru_utime + r1.ru_stime) - (r0.ru_utime + r0.ru_stime),
        peak_rss_mb=r1.ru_maxrss / 1024.0,
        checks_attempted=len(summary["checks"]),
        checks_failed=[f"{c['experiment']}/{c['rule']}" for c in summary["checks"]
                       if not c["passed"]],
        files=files,
        missing_reports=missing_reports(summary, files, len(doc["experiments"])),
    )
    if rec is not None:
        rec.dump(out / "spans.json")
        result["layers"] = tracing.derive_metrics(rec.spans, rec.counts, run_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
