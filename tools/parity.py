"""Run every capacity solver once per channel of a fixed panel, and compare two such runs.

Usage (from the repository root):

    OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1 \
        PYTHONPATH=src python tools/parity.py --write after.json [--against before.json]

To record the parent commit, run the same command with PYTHONPATH set to
that commit's src directory.

Panel (113 channels): criterion 02's 66 qubit channels (six families on
p = 0, 0.1, ..., 1), then tools/concave_panel.py's 47 (the 12
qubit_capacity channels, the 5 qudit_capacity channels and 30 random
draws from default_rng(5)).

Each solver named in qchan.capacity.MEASURES runs once per channel with
the default OptimizerConfig. --write stores, per channel and solver, the
report fields its measures take (by repr, so parity is exact), its
OptimizerStats and its wall time, or the Unsupported message. --against
prints, per solver, the largest |delta value| and the largest drop below
the reference, the number of channels whose converged flag changed, and
the summed evaluations, unconverged count and wall time on each side.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import time

import qchan
from qchan import capacity
from concave_panel import qudit_capacity_panel, random_panel
from hsw_geometric_panel import criterion_02_panel, qubit_capacity_panel

# solver name -> the fields of every measure that runs it, in MEASURES order
SOLVERS: dict = {}
for _solver, _fields in capacity.MEASURES.values():
    SOLVERS[_solver] = SOLVERS.get(_solver, ()) + _fields


def panel():
    return criterion_02_panel() + qubit_capacity_panel() + qudit_capacity_panel() + random_panel()


def run_panel() -> list:
    records = []
    for i, channel in enumerate(panel()):
        record = {"name": f"{i:03d}:{channel.label}", "shape": f"{channel.dim_in}->{channel.dim_out}"}
        for solver, fields in SOLVERS.items():
            start = time.perf_counter()
            try:
                rep = getattr(capacity, solver)(channel, capacity.DEFAULT_CONFIG)
            except qchan.Unsupported as err:
                record[solver] = {"unsupported": str(err)}
                continue
            record[solver] = {
                "wall_s": time.perf_counter() - start,
                "values": {name: repr(getattr(rep, name)) for name in fields},
                "stats": dataclasses.asdict(rep.optimizer),
            }
        records.append(record)
    return records


def summarize(records: list, solver: str) -> dict:
    rows = [r[solver] for r in records if "stats" in r[solver]]
    return {
        "solves": len(rows),
        "evaluations": sum(r["stats"]["evaluations"] for r in rows),
        "unconverged": sum(not r["stats"]["converged"] for r in rows),
        "wall_s": round(sum(r["wall_s"] for r in rows), 3),
    }


def compare(ours: list, theirs: list) -> dict:
    """Per solver: value differences, converged flips and both sides' totals."""
    if [r["name"] for r in ours] != [r["name"] for r in theirs]:
        raise SystemExit("the two runs cover different panels")
    out = {}
    for solver in SOLVERS:
        worst, drop, flipped = 0.0, 0.0, 0
        for mine, ref in zip(ours, theirs):
            a, b = mine[solver], ref[solver]
            if "stats" not in a or "stats" not in b:
                continue
            for name, value in a["values"].items():
                if value == "None" or b["values"][name] == "None":
                    continue
                delta = float(value) - float(b["values"][name])
                worst, drop = max(worst, abs(delta)), max(drop, -delta)
            flipped += a["stats"]["converged"] != b["stats"]["converged"]
        out[solver] = {
            "max_abs_delta": worst,
            "max_drop": drop,
            "converged_changed": flipped,
            "reference": summarize(theirs, solver),
            "this_run": summarize(ours, solver),
        }
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", metavar="FILE", help="store this run's records as JSON")
    parser.add_argument("--against", metavar="FILE", help="a stored run to compare this one with")
    args = parser.parse_args()
    if not (args.write or args.against):
        parser.error("give --write, --against or both")
    records = run_panel()
    if args.write:
        with open(args.write, "w") as fh:
            json.dump({"channels": records}, fh, indent=1)
    if args.against:
        with open(args.against) as fh:
            reference = json.load(fh)["channels"]
        print(json.dumps(compare(records, reference), indent=1))
    else:
        print(json.dumps({s: summarize(records, s) for s in SOLVERS}, indent=1))


if __name__ == "__main__":
    main()
