"""Tier-1 slice of tools/parity.py: the 17 benchmark channels against a stored run.

The stored run, tests/data/parity_slice.json, comes from the same panel
function, without its wall times; after a change that is meant to move
these values, rewrite it with

    PYTHONPATH=src python tests/test_parity.py

Values, checks and float stats are compared within 1e-9 rather than bit
for bit, because BLAS builds round differently.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIXTURE = ROOT / "tests" / "data" / "parity_slice.json"
_spec = importlib.util.spec_from_file_location("parity", ROOT / "tools" / "parity.py")
parity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(parity)


def run_slice() -> list:
    return parity.run_panel(parity.qubit_capacity_panel() + parity.qudit_capacity_panel(), passes=1)


def test_benchmark_channels_match_the_stored_run():
    records = run_slice()
    stored = json.loads(FIXTURE.read_text())["channels"]
    # Q1's search path (certified single start or multi-start) follows the verdict
    assert [r["degradable"] for r in records] == [r["degradable"] for r in stored]
    for solver, diff in parity.compare(records, stored).items():
        for name, field in diff["fields"].items():
            assert field["max_abs_delta"] <= 1e-9, (solver, name, field)
    for record in records:
        for solver in ("hsw_numeric", "hsw_geometric"):
            checks = record[solver].get("checks", {})
            assert checks.get("ensemble_gap", 0.0) <= 1e-9, (record["name"], solver, checks)


if __name__ == "__main__":
    records = run_slice()
    for record in records:
        for solver in parity.SOLVERS:
            record[solver].pop("wall_s", None)  # timings are never compared
    FIXTURE.write_text(json.dumps({"channels": records}, indent=1) + "\n")
