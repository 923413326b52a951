"""Run every capacity solver on a fixed channel panel, check its certificates, and compare two runs.

Usage (from the repository root):

    OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1 \
        PYTHONPATH=src python tools/parity.py --write after.json [--against before.json]

To record the parent commit, run the same command with PYTHONPATH set to
that commit's src directory.

Panel (113 channels, numbered in this order):
  000-065  criterion 02's 66 qubit channels (six families on p = 0, 0.1, ..., 1)
  066-077  perfbench's qubit_capacity channels: six Pauli-type families,
           amplitude damping at 0.2, 0.4, 0.7, three random 2->2 draws
           from default_rng(1)
  078-082  perfbench's qudit_capacity channels: erasure at 0.2 and 0.6,
           mixed erasure, random 2->3 and 3->2 draws from default_rng(0)
  083-112  30 random channels from default_rng(5), d_in and d_out in 2..4,
           up to 4 Kraus operators

Each record holds the channel's shape and is_degradable status. Each
solver named in qchan.capacity.MEASURES runs twice with the default
OptimizerConfig; its record holds the report fields its measures take (by
repr, so parity is exact), its OptimizerStats, the lower wall time, and
whether both runs gave the same repr; or the Unsupported message. The
ensemble certificates are recomputed through the public API: hsw_numeric's
C_hsw - chi(ensemble), and hsw_geometric's r* - chi(ensemble) and
|r* - C_hsw|.

Without --against the tool prints per solver: solves, evaluations,
restarts, single-start solves, the worst certificate_residual and check,
the channels whose winner reports converged=False, the summed wall time
and whether every rerun was identical. --against prints, per solver and
field (report values, checks, restart_spread, certificate_residual), the
largest |delta| and the largest drop below the stored run; the number of
channels whose converged flag changed and whose other stats (iterations,
restarts, evaluations) changed; and both runs' summaries. A field missing
from the stored run is skipped; a None on one side only counts as an
infinite |delta|.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import time

import numpy as np

import qchan
from qchan import capacity

# solver name -> the fields of every measure that runs it, in MEASURES order
SOLVERS: dict = {}
for _solver, _fields in capacity.MEASURES.values():
    SOLVERS[_solver] = SOLVERS.get(_solver, ()) + _fields
# stats that --against counts as changed; the float stats are fields with a |delta|
COUNTED_STATS = ("iterations", "restarts", "evaluations")


def criterion_02_panel():
    kinds = ("depolarizing", "bit_flip", "phase_flip", "bit_phase_flip", "dephasing", "amplitude_damping")
    grid = [round(0.1 * k, 10) for k in range(11)]
    return [qchan.make_channel(kind, p=p) for kind in kinds for p in grid]


def qubit_capacity_panel():
    channels = [
        qchan.make_channel(kind, p=p)
        for kind, p in (
            ("depolarizing", 0.1),
            ("depolarizing", 0.4),
            ("bit_flip", 0.2),
            ("phase_flip", 0.3),
            ("bit_phase_flip", 0.15),
            ("dephasing", 0.4),
        )
    ]
    channels += [qchan.make_channel("amplitude_damping", gamma=g) for g in (0.2, 0.4, 0.7)]
    rng = np.random.default_rng(1)
    for _ in range(3):
        channels.append(qchan.random_cptp_channel(2, 2, int(rng.integers(2, 5)), rng))
    return channels


def qudit_capacity_panel():
    rng = np.random.default_rng(0)
    return [
        qchan.make_channel("erasure", p=0.2),
        qchan.make_channel("erasure", p=0.6),
        qchan.make_channel("mixed_erasure", p=0.2, q=0.3),
        qchan.random_cptp_channel(2, 3, 2, rng),
        qchan.random_cptp_channel(3, 2, 2, rng),
    ]


def random_panel():
    rng = np.random.default_rng(5)
    channels = []
    for _ in range(30):
        d_in, d_out = (int(v) for v in rng.integers(2, 5, size=2))
        k = int(rng.integers(-(-d_in // d_out), 5))  # a Stinespring isometry needs d_out k >= d_in
        channels.append(qchan.random_cptp_channel(d_in, d_out, k, rng))
    return channels


def panel():
    return criterion_02_panel() + qubit_capacity_panel() + qudit_capacity_panel() + random_panel()


def ensemble_chi(channel, ensemble) -> float:
    outputs = [qchan.apply(channel, state) for state in ensemble.states]
    return float(qchan.holevo_quantity(qchan.Ensemble(ensemble.weights, outputs)))


def solve(solver: str, channel, passes: int):
    """(record, last report) of one solver on one channel; the report is None if unsupported."""
    times, reprs = [], set()
    for _ in range(passes):
        start = time.perf_counter()
        try:
            rep = getattr(capacity, solver)(channel, capacity.DEFAULT_CONFIG)
        except qchan.Unsupported as err:
            return {"unsupported": str(err)}, None
        times.append(time.perf_counter() - start)
        reprs.add(repr(rep))
    record = {
        "wall_s": min(times),
        "values": {name: repr(getattr(rep, name)) for name in SOLVERS[solver]},
        "stats": dataclasses.asdict(rep.optimizer),
        "rerun_identical": len(reprs) == 1,
    }
    return record, rep


def run_panel(channels, passes: int = 2) -> list:
    records = []
    for i, channel in enumerate(channels):
        record = {
            "name": f"{i:03d}:{channel.label}",
            "shape": f"{channel.dim_in}->{channel.dim_out}",
            "degradable": qchan.is_degradable(channel).status,
        }
        reports = {}
        for solver in SOLVERS:
            record[solver], reports[solver] = solve(solver, channel, passes)
        numeric, geometric = reports["hsw_numeric"], reports["hsw_geometric"]
        record["hsw_numeric"]["checks"] = {
            "ensemble_gap": numeric.C_hsw - ensemble_chi(channel, numeric.optimal_ensemble),
        }
        if geometric is not None:
            record["hsw_geometric"]["checks"] = {
                "ensemble_gap": geometric.r_star - ensemble_chi(channel, geometric.optimal_ensemble),
                "abs_minus_C_hsw": abs(geometric.r_star - numeric.C_hsw),
            }
        records.append(record)
    return records


def summarize(records: list, solver: str) -> dict:
    rows = [(r["name"], r[solver]) for r in records if "stats" in r[solver]]
    stats = [row["stats"] for _, row in rows]
    residuals = [s["certificate_residual"] for s in stats if s["certificate_residual"] is not None]
    out = {
        "solves": len(rows),
        "evaluations": sum(s["evaluations"] for s in stats),
        "restarts": sum(s["restarts"] for s in stats),
        "single_start": sum(s["restarts"] == 1 for s in stats),
        "worst_certificate_residual": max(residuals, default=None),
    }
    for name in dict.fromkeys(k for _, row in rows for k in row.get("checks", {})):
        out[f"worst_{name}"] = max(row["checks"][name] for _, row in rows)
    out["unconverged"] = [name for name, row in rows if not row["stats"]["converged"]]
    out["reruns_identical"] = all(row.get("rerun_identical", True) for _, row in rows)
    if all("wall_s" in row for _, row in rows):  # a stored run may leave timings out
        out["wall_s"] = round(sum(row["wall_s"] for _, row in rows), 3)
    return out


def fields(row: dict) -> dict:
    """The numbers of one solver record that --against measures by |delta|."""
    floats = {k: row["stats"][k] for k in ("restart_spread", "certificate_residual")}
    return {**row["values"], **row.get("checks", {}), **floats}


def compare(ours: list, theirs: list) -> dict:
    """Per solver: the largest |delta| and drop per field, changed stats and both summaries."""
    if [r["name"] for r in ours] != [r["name"] for r in theirs]:
        raise SystemExit("the two runs cover different panels")
    out = {}
    for solver in SOLVERS:
        deltas: dict = {}
        converged_changed = stats_changed = 0
        for mine, ref in zip(ours, theirs):
            a, b = mine[solver], ref[solver]
            if "stats" not in a or "stats" not in b:
                continue
            fa, fb = fields(a), fields(b)
            for name in (n for n in fa if n in fb):
                x, y = (None if v in (None, "None") else float(v) for v in (fa[name], fb[name]))
                if x is None and y is None:
                    continue
                delta = math.inf if x is None or y is None else x - y
                worst, drop = deltas.get(name, (0.0, 0.0))
                deltas[name] = (max(worst, abs(delta)), max(drop, -delta))
            converged_changed += a["stats"]["converged"] != b["stats"]["converged"]
            stats_changed += any(a["stats"][k] != b["stats"][k] for k in COUNTED_STATS)
        out[solver] = {
            "fields": {name: {"max_abs_delta": w, "max_drop": d} for name, (w, d) in deltas.items()},
            "converged_changed": converged_changed,
            "stats_changed": stats_changed,
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
    records = run_panel(panel())
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
