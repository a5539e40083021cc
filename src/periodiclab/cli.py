"""Batch front door: run scenario suites, list and describe builtins."""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .errors import ConfigError, LabError
from .scenarios import builtin_ids, load_scenario, run_scenario


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lab",
        description="Numerical experiments for time-periodic drift-diffusion operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario file or builtin id")
    run_p.add_argument("scenario", help="path to a scenario JSON file or a builtin id")
    run_p.add_argument("--jobs", type=int, default=1,
                       help="concurrent experiments, at least 1; BLAS runs one thread per "
                            "lab thread, and the dense spectrum solves its two parity "
                            "blocks on two threads whatever this is")
    run_p.add_argument("--out", default=None, help="output directory root")
    run_p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run_p.add_argument("--particles", type=int, default=None, help="override particle count")
    run_p.add_argument("--dt", type=float, default=None, help="override the time step")
    run_p.add_argument("--horizon", type=int, default=None,
                       help="override the far-past horizon (periods)")

    sub.add_parser("list", help="list builtin scenarios")

    desc_p = sub.add_parser("describe", help="describe one builtin scenario")
    desc_p.add_argument("id", help="builtin scenario id")
    return parser


def _output_dir(doc: dict, out_flag: str | None) -> Path:
    root = out_flag or os.environ.get("LAB_DATA_DIR") or "."
    return Path(root) / doc.get("output", doc["id"])


def _cmd_run(args) -> int:
    doc = load_scenario(args.scenario)
    out_dir = _output_dir(doc, args.out)
    overrides = {"seed": args.seed, "particles": args.particles,
                 "dt": args.dt, "horizon": args.horizon}
    summary = run_scenario(doc, out_dir, jobs=args.jobs, overrides=overrides)
    n_pass = sum(1 for c in summary["checks"] if c["passed"])
    for check in summary["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        print(f"[{status}] {check['experiment']}/{check['rule']}: {check['detail']}")
    print(f"{n_pass}/{len(summary['checks'])} checks passed; reports in {out_dir}")
    return 0 if summary["pass"] else 1


def _cmd_list() -> int:
    for sid in builtin_ids():
        doc = load_scenario(sid)
        print(f"{sid}: {doc.get('description', '')}")
    return 0


def _cmd_describe(scenario_id: str) -> int:
    doc = load_scenario(scenario_id)
    print(f"id: {doc['id']}")
    print(f"description: {doc.get('description', '')}")
    print("field:")
    for key in sorted(doc["field"]):
        print(f"  {key}: {json.dumps(doc['field'][key])}")
    print(f"experiments: {', '.join(spec['name'] for spec in doc['experiments'])}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "list":
            return _cmd_list()
        return _cmd_describe(args.id)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except LabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
