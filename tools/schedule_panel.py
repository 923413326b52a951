"""Time the seeded schedule simulator on the cases of one benchmark pass and digest its traces.

Usage (from the repository root):

    OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1 \
        PYTHONPATH=src:. python tools/schedule_panel.py [--passes 5] [--seed 1]

Panel: the 220 simulate_schedule operations, (policy, F0, seed) each, that
one pass of perfbench's graphs_and_chains workload runs at --seed, in the
workload's order. Each pass runs them all once.

Prints one JSON object: the median over passes of the panel's wall time,
the time of every pass, the total rounds and events, the runs that
exhausted their rounds, and the sha256 over all the traces'
trace_events_jsonl in panel order (from one more, untimed pass). The digest is the
accuracy column: two versions of the simulator agree on the panel only
if their digests are equal.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import time

import qchan
from perfbench.workloads import UNTRACED, graphs_and_chains


def panel(seed: int):
    """The workload's simulator operations at seed, in its order."""
    return [op for op in graphs_and_chains(seed, UNTRACED) if op.id.startswith("simulate_schedule:")]


def measure(ops, passes: int):
    times = []
    for _ in range(passes):
        # each trace is dropped once made, as the workload does
        start = time.perf_counter()
        for op in ops:
            op.call(UNTRACED)
        times.append(time.perf_counter() - start)
    digest = hashlib.sha256()
    rounds = events = exhausted = 0
    for op in ops:  # untimed pass for the counts and the digest
        trace = op.call(UNTRACED)
        digest.update(qchan.trace_events_jsonl(trace).encode())
        rounds += trace.rounds
        events += len(trace.events)
        exhausted += trace.outcome == "exhausted"
    return {
        "cases": len(ops),
        "wall_s_median": round(statistics.median(times), 4),
        "wall_s_passes": [round(t, 4) for t in times],
        "rounds": rounds,
        "events": events,
        "exhausted": exhausted,
        "jsonl_sha256": digest.hexdigest(),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--passes", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1, help="graphs_and_chains seed that draws the cases")
    args = parser.parse_args()
    print(json.dumps(measure(panel(args.seed), args.passes), indent=2))


if __name__ == "__main__":
    main()
