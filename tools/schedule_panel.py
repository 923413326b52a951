"""Time the seeded schedule simulator on the cases of one benchmark pass, digest its traces, and compare two runs.

Usage (from the repository root):

    OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1 \
        PYTHONPATH=src:. python tools/schedule_panel.py [--passes 5] [--seed 1] \
        [--write after.json] [--against before.json]

To record the parent commit, run the same command with PYTHONPATH set to
that commit's src directory (and "." for perfbench).

Panel: the 220 simulate_schedule operations, (policy, F0, seed) each, that
one pass of perfbench's graphs_and_chains workload runs at --seed, in the
workload's order. Each pass runs them all once.

Prints one JSON object: the median over passes of the panel's wall time,
the time of every pass, the median over passes of the time spent on each
(policy, F0) case, the total rounds and events, the runs that exhausted
their rounds, and the sha256 over all the traces' trace_events_jsonl in
panel order (from one more, untimed pass). The digest is the accuracy
column: two versions of the simulator agree on the panel only if their
digests are equal.

--write stores that object as JSON. --against prints instead, next to a
stored run: whether the digests are equal, both runs' events and exhausted
counts, and this run's wall time over the stored one's, in all and per
(policy, F0) case.
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


def case(op) -> str:
    """The (policy, F0) part of an operation id: "pumping,F0=0.638"."""
    return op.id.split(":", 1)[1].rsplit(",seed=", 1)[0]


def measure(ops, passes: int):
    times = []
    by_case = {key: [] for key in sorted({case(op) for op in ops})}
    for _ in range(passes):
        # each trace is dropped once made, as the workload does
        spent = dict.fromkeys(by_case, 0.0)
        start = time.perf_counter()
        for op in ops:
            t = time.perf_counter()
            op.call(UNTRACED)
            spent[case(op)] += time.perf_counter() - t
        times.append(time.perf_counter() - start)
        for key, s in spent.items():
            by_case[key].append(s)
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
        "wall_s_by_case": {key: round(statistics.median(s), 5) for key, s in by_case.items()},
        "rounds": rounds,
        "events": events,
        "exhausted": exhausted,
        "jsonl_sha256": digest.hexdigest(),
    }


def compare(ours: dict, stored: dict) -> dict:
    """This run against a stored one: digest equality, counts side by side, wall-time ratios."""

    def ratio(a, b):
        return round(a / b, 3) if b else None

    return {
        "digest_equal": ours["jsonl_sha256"] == stored["jsonl_sha256"],
        "events": {"stored": stored["events"], "this_run": ours["events"]},
        "exhausted": {"stored": stored["exhausted"], "this_run": ours["exhausted"]},
        "wall_ratio": ratio(ours["wall_s_median"], stored["wall_s_median"]),
        "wall_ratio_by_case": {
            key: ratio(s, stored["wall_s_by_case"][key])
            for key, s in ours["wall_s_by_case"].items()
            if key in stored.get("wall_s_by_case", {})
        },
        "wall_s_median": {"stored": stored["wall_s_median"], "this_run": ours["wall_s_median"]},
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--passes", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1, help="graphs_and_chains seed that draws the cases")
    parser.add_argument("--write", metavar="FILE", help="store this run's result as JSON")
    parser.add_argument("--against", metavar="FILE", help="a stored run to compare this one with")
    args = parser.parse_args()
    result = measure(panel(args.seed), args.passes)
    if args.write:
        with open(args.write, "w") as fh:
            json.dump(result, fh, indent=2)
    if args.against:
        with open(args.against) as fh:
            result = compare(result, json.load(fh))
    print(json.dumps(result, indent=2))


if __name__ == "__main__":
    main()
