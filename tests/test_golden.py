"""Pinned behaviour of the three builtin scenarios at benchmark sizes, seed 1.

Each builtin runs through ``run_scenario`` and is compared with
``tests/golden/<id>.json``: every check's rule name and pass flag exactly,
and the verdict numbers (fitted rates, spectral gaps, mapping mismatch,
inequality residuals, hypothesis metrics, core residual) to
``1e-6 * max(1, |x|)``.  Roundoff-level values and eigenvalue lists are left
out, since they would make the pin machine-dependent.

Regenerate the pin on purpose, and say why in CHANGES.md:

    python tests/test_golden.py

A regeneration keeps each old number that the new run matches within the
tolerance above, so it rewrites only the numbers that moved.
"""

import json
import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import pytest

from periodiclab import scenarios as sc

SEED = 1
RTOL = 1e-6
GOLDEN = Path(__file__).resolve().parent / "golden"
SIZES = {
    "ou1d": {"sim": {"particles": 2000, "dt": 0.01, "n_inner": 128},
             "grid": {"points_per_axis": 41}},
    "grad1d": {"sim": {"particles": 2000, "dt": 0.01, "n_inner": 256},
               "grid": {"points_per_axis": 41}},
    "gen2d": {"sim": {"particles": 4000, "dt": 0.01, "horizon_periods": 5, "n_inner": 256}},
}


def _verdict_numbers(kind: str, payload: dict, csv_text: str) -> dict:
    """The pinned numbers of one experiment report, by key."""
    if kind == "hypothesis-check":
        rows = [line.split(",") for line in csv_text.splitlines()[1:]]
        return {metric: float(value) for metric, value in rows}
    if kind in ("decay", "gradient-decay"):
        return {f"{key}/rate": fit["rate"] for key, fit in payload["fits"].items()
                if "rate" in fit}
    if kind == "rate-equivalence":
        return {"omega_hat": payload["omega_hat"], "gamma_hat": payload["gamma_hat"]}
    if kind in ("poincare", "logsob"):
        return {f"{fid}/residual": rep["residual"] for fid, rep in payload["reports"].items()}
    if kind == "spectrum":
        out = {"gap_estimate": payload["spectrum"]["gap_estimate"]}
        if "refined_gap" in payload:
            out["refined_gap"] = payload["refined_gap"]
        return out
    if kind == "spectral-mapping":
        return {"worst_mismatch": payload["worst_mismatch"]}
    if kind == "core-consistency":
        return {"grid_rel_residual": payload["grid_residual"]["rel"]}
    raise KeyError(kind)


def run_builtin(sid: str, out: Path) -> dict:
    """Run one builtin at its benchmark sizes; returns what the pin holds."""
    doc = json.loads(json.dumps(sc.load_scenario(sid)))
    for section, values in SIZES[sid].items():
        doc.setdefault(section, {}).update(values)
    summary = sc.run_scenario(doc, out, overrides={"seed": SEED})
    numbers = {}
    for name, spec in zip(summary["experiments"], doc["experiments"]):
        payload = json.loads((out / f"{name}.json").read_text())
        csv_text = (out / f"{name}.csv").read_text()
        for key, value in _verdict_numbers(spec["name"], payload, csv_text).items():
            numbers[f"{name}/{key}"] = value
    checks = [[c["experiment"], c["rule"], c["passed"]] for c in summary["checks"]]
    return {"scenario": sid, "seed": SEED, "sizes": SIZES[sid], "checks": checks,
            "numbers": numbers}


@pytest.mark.parametrize("sid", sorted(SIZES))
def test_builtin_matches_golden(sid, tmp_path):
    pinned = json.loads((GOLDEN / f"{sid}.json").read_text())
    got = run_builtin(sid, tmp_path)
    assert got["checks"] == pinned["checks"]
    assert sorted(got["numbers"]) == sorted(pinned["numbers"])
    for key, want in pinned["numbers"].items():
        assert abs(got["numbers"][key] - want) <= RTOL * max(1.0, abs(want)), (
            key, got["numbers"][key], want)


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for sid in sorted(SIZES):
        with tempfile.TemporaryDirectory() as tmp:
            pin = run_builtin(sid, Path(tmp))
        path = GOLDEN / f"{sid}.json"
        old = json.loads(path.read_text()) if path.exists() else {"checks": [], "numbers": {}}
        # what moved, old -> new, before the pin is overwritten
        old_checks = {(name, rule): passed for name, rule, passed in old["checks"]}
        new_checks = {(name, rule): passed for name, rule, passed in pin["checks"]}
        for key in sorted(old_checks.keys() | new_checks.keys()):
            if old_checks.get(key) != new_checks.get(key):
                print(f"{sid}: check {'/'.join(key)}: {old_checks.get(key)} -> "
                      f"{new_checks.get(key)}")
        for key in sorted(old["numbers"].keys() | pin["numbers"].keys()):
            was, now = old["numbers"].get(key), pin["numbers"].get(key)
            if was is None or now is None or abs(now - was) > RTOL * max(1.0, abs(was)):
                print(f"{sid}: {key}: {was!r} -> {now!r}")
            else:
                pin["numbers"][key] = was    # unmoved: keep the old digits
        path.write_text(json.dumps(pin, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}: {len(pin['checks'])} checks, {len(pin['numbers'])} numbers")
