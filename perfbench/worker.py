"""One workload in one process: build the inputs, run the operations in
a closed loop with a single client, check every output, and print one
JSON summary line.

Invoked by perfbench/run.py, which sets the thread pins and PYTHONPATH
before this process starts. Prints "ready" once the inputs are built,
so the parent can time set-up from its own launch of this process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

import numpy
import scipy

import qchan
from perfbench import workloads
from perfbench.spans import Tracer

ROOT = Path(__file__).resolve().parents[1]

SOLVERS = (
    "hsw_numeric",
    "hsw_geometric",
    "quantum_capacity_single_use",
    "entanglement_assisted",
    "private_information",
)
CLI_VERBS = ("channel-inspect", "capacity", "zero-error", "repeater-rate", "repeater-sim")
PROBES = 3


@dataclass
class Record:
    op: str
    latency: float
    outcome: workloads.Outcome


def _outcome(op: workloads.Op, result, error, tr: Tracer) -> workloads.Outcome:
    if op.refuses is not None:
        if isinstance(error, op.refuses):
            return workloads.Outcome(True)
        if error is None:
            return op.check(result, tr)
        return workloads.Outcome(False, f"raised {type(error).__name__}, expected {op.refuses.__name__}")
    if error is not None:
        return workloads.Outcome(False, f"raised {type(error).__name__}: {error}")
    try:
        return op.check(result, tr)
    except Exception:  # a malformed output fails this operation; the run goes on
        return workloads.Outcome(False, "check raised: " + traceback.format_exc(limit=2).strip()[-300:])


def run_pass(ops: List[workloads.Op], tr: Tracer, split: bool = False):
    """Run every operation once; returns its records and the split counters."""
    records: List[Record] = []
    split_counters: Dict[str, float] = {}
    for op in ops:
        with tr.operation(op.id):
            error = result = None
            start = time.perf_counter()
            try:
                with tr.span("op"):
                    result = op.call(tr)
            except Exception as exc:  # a raising operation is a failed one
                error = exc
            latency = time.perf_counter() - start
            outcome = _outcome(op, result, error, tr)
            if split and op.split is not None:
                for key, value in op.split(tr).items():
                    split_counters[key] = split_counters.get(key, 0) + value
        records.append(Record(op.id, latency, outcome))
    return records, split_counters


def _median_launch(argv: List[str]) -> float:
    times = []
    for _ in range(PROBES):
        start = time.perf_counter()
        subprocess.run(argv, check=True, capture_output=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _import_split() -> Dict[str, float]:
    """Cumulative import time of qchan and scipy.optimize from -X importtime."""
    samples: Dict[str, List[float]] = {"qchan": [], "scipy.optimize": []}
    for _ in range(PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import qchan"],
            check=True,
            capture_output=True,
            text=True,
        )
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] in samples:
                samples[parts[2]].append(int(parts[1]) * 1e-6)
    # A module that import qchan no longer loads has no line: it cost nothing.
    return {name: statistics.median(values) if values else 0.0 for name, values in samples.items()}


def per_layer(workload: str, tr: Tracer, records: List[Record], untraced: List[Record], split) -> Dict[str, float]:
    spans = tr.summary()
    counters: Dict[str, float] = dict(split)
    for rec in records:
        for key, value in rec.outcome.counters.items():
            counters[key] = counters.get(key, 0) + value

    def count(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def busy(name):
        return spans.get(name, (0, 0.0, 0.0))[2]

    def ratio(a, b):
        return a / b if b else 0.0

    out: Dict[str, float] = {}
    for solver in SOLVERS:
        layer = f"capacity.{solver}"
        calls, iterations = count(layer), counters.get(f"{layer}.iterations", 0)
        out[f"{layer}.calls"] = calls
        out[f"{layer}.busy_s"] = busy(layer)
        out[f"{layer}.iterations_per_call"] = ratio(iterations, calls)
        out[f"{layer}.restarts_per_call"] = ratio(counters.get(f"{layer}.restarts", 0), calls)
        out[f"{layer}.s_per_iteration"] = ratio(busy(layer), iterations)
    out["channels.min_output_entropy.calls"] = count("channels.min_output_entropy")
    out["channels.min_output_entropy.busy_s"] = busy("channels.min_output_entropy")
    out["channels.input_build_s"] = busy("channels.make_channel") + busy("channels.random_cptp_channel")
    out["entropy.holevo_quantity.calls"] = count("entropy.holevo_quantity")
    out["entropy.holevo_quantity.us_per_call"] = ratio(busy("entropy.holevo_quantity") * 1e6, count("entropy.holevo_quantity"))
    for name in ("zero_error_lower_bound", "confusability_graph", "strong_product", "max_independent_set"):
        out[f"zero_error.{name}.busy_s"] = busy(f"zero_error.{name}")
    for name in ("strong_product", "max_independent_set"):
        out[f"zero_error.{name}.vertices"] = counters.get(f"zero_error.{name}.vertices", 0)
    out["zero_error.refused_s"] = sum(r.latency for r in records if r.op.startswith("zero_error_refused:"))
    out["repeater.expected_rounds.calls"] = count("repeater.expected_rounds")
    out["repeater.expected_rounds.busy_s"] = busy("repeater.expected_rounds")
    out["repeater.expected_rounds.series_busy_s"] = spans.get("repeater.expected_rounds.series", (0, 0.0, 0.0))[1]
    sim = "repeater.simulate_schedule"
    out[f"{sim}.calls"] = count(sim)
    out[f"{sim}.busy_s"] = busy(sim)
    out[f"{sim}.rounds"] = counters.get(f"{sim}.rounds", 0)
    out[f"{sim}.events"] = counters.get(f"{sim}.events", 0)
    out[f"{sim}.rounds_per_s"] = ratio(out[f"{sim}.rounds"], busy(sim))
    for verb in CLI_VERBS:
        out[f"cli.{verb}.latency_s"] = ratio(busy(f"cli.{verb}"), count(f"cli.{verb}"))
    out["cli.interpreter_s"] = out["cli.import_qchan_s"] = out["cli.import_scipy_optimize_s"] = 0.0
    if workload == "cli_verbs":
        out["cli.interpreter_s"] = _median_launch([sys.executable, "-c", "pass"])
        split_s = _import_split()
        out["cli.import_qchan_s"] = split_s["qchan"]
        out["cli.import_scipy_optimize_s"] = split_s["scipy.optimize"]
    traced_thr = len(records) / sum(r.latency for r in records)
    untraced_thr = len(untraced) / sum(r.latency for r in untraced)
    out["trace.overhead_frac"] = 1.0 - traced_thr / untraced_thr
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if Path(qchan.__file__).resolve().parent != src / "qchan":
        print(f"qchan imported from {qchan.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = Tracer(bool(args.trace))
    if args.workload == "cli_verbs":
        ops = workloads.cli_verbs(args.seed, tracer, dict(os.environ))
    else:
        ops = workloads.IN_PROCESS[args.workload](args.seed, tracer)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    # Whole passes only, so every run measures the same mix: as many as
    # fill --seconds of operation time, and at least one.
    untraced = Tracer(False)
    passes = [run_pass(ops, untraced)[0]]
    summary = {}
    if args.trace:
        traced, split = run_pass(ops, tracer, split=True)
        summary["per_layer"] = per_layer(args.workload, tracer, traced, passes[0], split)
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(str(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"))
        passes.append(traced)
    else:
        first = sum(r.latency for r in passes[0])
        for _ in range(max(1, round(args.seconds / first)) - 1):
            passes.append(run_pass(ops, untraced)[0])
    records = [r for one in passes for r in one]

    who = resource.RUSAGE_CHILDREN if args.workload == "cli_verbs" else resource.RUSAGE_SELF
    accuracy: Dict[str, float] = {}
    for rec in records:
        for key, value in rec.outcome.accuracy.items():
            accuracy[key] = max(accuracy.get(key, value), value)
    summary.update(
        {
            "ops_per_pass": len(ops),
            "latencies": [[r.latency for r in one] for one in passes],
            "failures": {r.op: r.outcome.why for r in records if not r.outcome.ok},
            "failed": sum(not r.outcome.ok for r in records),
            "accuracy": accuracy,
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
            "versions": {
                "python": sys.version.split()[0],
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
            },
        }
    )
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
