"""Time C_E and Q1 on a fixed channel panel and report their certificates and parity.

Usage (from the repository root):

    OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1 \
        PYTHONPATH=src python tools/concave_panel.py [--passes 3] [--reference before.json]

Panel: the 17 channels of perfbench's capacity workloads (the 12 of
qubit_capacity with its random draws from default_rng(1), the 5 of
qudit_capacity), then 30 random channels from default_rng(5), d_in and
d_out in 2..4 with up to 4 Kraus operators.

Prints one JSON object. Per channel and solver (entanglement_assisted as
"C_E", quantum_capacity_single_use as "Q1"): the best wall time over the
passes, the values (repr, so that parity is exact), the optimizer stats,
and whether every pass returned the same report. The summary sums time,
evaluations and restarts per solver and gives the worst
certificate_residual. With --reference, the output of an earlier run
(for instance on the parent commit, through PYTHONPATH), each record gains
the value differences from it and whether the stats other than
certificate_residual are equal to it; the summary gives the worst
difference and the channels that ran more than one start with stats that
differ (a certified single start differs from a multi-start by design).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import time

import numpy as np

import qchan
from hsw_geometric_panel import qubit_capacity_panel

SOLVERS = {
    "C_E": (qchan.entanglement_assisted, ("C_E",)),
    "Q1": (qchan.quantum_capacity_single_use, ("Q1", "Q1_raw", "P1")),
}


def qudit_capacity_panel():
    panel = np.random.default_rng(0)
    return [
        qchan.make_channel("erasure", p=0.2),
        qchan.make_channel("erasure", p=0.6),
        qchan.make_channel("mixed_erasure", p=0.2, q=0.3),
        qchan.random_cptp_channel(2, 3, 2, panel),
        qchan.random_cptp_channel(3, 2, 2, panel),
    ]


def random_panel(count: int = 30, seed: int = 5):
    rng = np.random.default_rng(seed)
    channels = []
    for _ in range(count):
        d_in, d_out = (int(v) for v in rng.integers(2, 5, size=2))
        k = int(rng.integers(-(-d_in // d_out), 5))  # a Stinespring isometry needs d_out k >= d_in
        channels.append(qchan.random_cptp_channel(d_in, d_out, k, rng))
    return channels


def solve(solver, fields, channel, passes: int) -> dict:
    times, reports = [], []
    for _ in range(passes):
        start = time.perf_counter()
        reports.append(solver(channel))
        times.append(time.perf_counter() - start)
    rep = reports[-1]
    stats = dataclasses.asdict(rep.optimizer)
    return {
        "wall_s": min(times),
        "values": {name: repr(getattr(rep, name)) for name in fields},
        "stats": stats,
        "reruns_identical": len({repr(r) for r in reports}) == 1,
    }


def compare(record: dict, before: dict) -> None:
    record["value_diff"] = {
        name: abs(float(value) - float(before["values"][name]))
        for name, value in record["values"].items()
    }
    ours = {k: v for k, v in record["stats"].items() if k != "certificate_residual"}
    # the parent named the restart spread achieved_tolerance
    theirs = {
        {"achieved_tolerance": "restart_spread"}.get(k, k): v
        for k, v in before["stats"].items()
        if k != "certificate_residual"
    }
    record["stats_equal"] = ours == theirs


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--passes", type=int, default=3)
    parser.add_argument("--reference", help="JSON output of an earlier run to compare with")
    args = parser.parse_args()
    reference = None
    if args.reference:
        with open(args.reference) as fh:
            reference = json.load(fh)["channels"]
    channels = qubit_capacity_panel() + qudit_capacity_panel() + random_panel()
    qchan.entanglement_assisted(channels[0])  # warm up outside the timings
    records = []
    for i, channel in enumerate(channels):
        record = {
            "name": f"{i:02d}:{channel.label}",
            "shape": f"{channel.dim_in}->{channel.dim_out}",
            "degradable": qchan.is_degradable(channel).status,
        }
        for key, (solver, fields) in SOLVERS.items():
            record[key] = solve(solver, fields, channel, args.passes)
            if reference is not None:
                compare(record[key], reference[i][key])
        records.append(record)
    summary = {}
    for key in SOLVERS:
        rows = [r[key] for r in records]
        residuals = [r["stats"].get("certificate_residual") for r in rows]
        summary[key] = {
            "wall_s_total": round(sum(r["wall_s"] for r in rows), 4),
            "evaluations": sum(r["stats"]["evaluations"] for r in rows),
            "restarts": sum(r["stats"]["restarts"] for r in rows),
            "single_start": sum(r["stats"]["restarts"] == 1 for r in rows),
            "certified": sum(v is not None for v in residuals),
            "worst_certificate_residual": max((v for v in residuals if v is not None), default=None),
            "reruns_identical": all(r["reruns_identical"] for r in rows),
        }
        if reference is not None:
            summary[key]["worst_value_diff"] = max(max(r["value_diff"].values()) for r in rows)
            # a certified single start differs from the multi-start by design
            summary[key]["full_search_stats_differ"] = [
                rec["name"]
                for rec in records
                if rec[key]["stats"]["restarts"] > 1 and not rec[key]["stats_equal"]
            ]
    print(json.dumps({"summary": summary, "channels": records}, indent=1))


if __name__ == "__main__":
    main()
