"""qchan benchmark: one workload per invocation.

    python3 perfbench/run.py --workload qubit_capacity --seed 1 --seconds 20 --trace 0
    for w in qubit_capacity qudit_capacity graphs_and_chains cli_verbs; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 20 --trace 0; done

Runs from the root of a source checkout and imports qchan from its src/
directory. Set-up is timed over several fresh launches and reported as
their median. The workload runs in one child process (see worker.py)
with BLAS and OpenMP threads pinned to 1, as a closed loop with one
client. It runs whole passes over the workload's fixed operation mix:
as many as fill --seconds of operation time, and at least one, so a
pass longer than --seconds is still run to its end.

The last line of standard output is one JSON object: with --trace 0 it
carries the end-to-end metrics of BENCHMARK.json, with --trace 1 (one
untraced and one traced pass) the per-layer ones. The lines before it
are a readable report: versions, every metric with its unit, the
accuracy figures, and every failed operation. "correct" is false when
an operation fails that manifest.json does not list as a known failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 7
DEADLINE_S = 170.0

QMATH_NOTE = (
    "qmath: no public qmath call sits on a timed path; its cost shows only inside "
    "capacity.*.s_per_iteration and setup_s until the program records its own spans"
)


def _env() -> dict:
    env = dict(os.environ)
    for name in THREAD_PINS:
        env[name] = "1"
    # Time imports the way an installed package runs them: from bytecode
    # caches, which the untimed warm-up launch writes under src/.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    return env


def _child(argv, env, deadline: float, wait_ready: bool):
    """Run argv to its end; returns (seconds to its ready line, or to its exit, and its stdout).

    The child and everything it starts run in their own process group,
    which is killed if the run's deadline passes first.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True, start_new_session=True)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), os.killpg, (proc.pid, signal.SIGKILL))
    watchdog.start()
    try:
        if wait_ready and proc.stdout.readline().strip() != "ready":
            raise RuntimeError(f"{argv[-1]} did not report ready")
        elapsed = time.perf_counter() - start
        out, _ = proc.communicate()
        if not wait_ready:
            elapsed = time.perf_counter() - start
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:4])} exited with status {proc.returncode}")
    return elapsed, out


def tail(latencies):
    """The highest percentile with at least 10 samples beyond it: (value, percentile, beyond)."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = n - 10 if n > 10 else n  # too few samples: the maximum, with none beyond
    return ordered[k - 1], 100.0 * k / n, n - k


def pass_tail(passes):
    """tail() of each pass of the fixed mix, then the median over passes.

    Taken per pass, not over the whole run: the number of passes follows
    the machine's speed, and a percentile over all samples would change
    with it (p72 of one qubit_capacity pass, p86 of two).
    """
    tails = [tail(one) for one in passes]
    _, pct, beyond = tails[0]
    return statistics.median(t[0] for t in tails), pct, beyond


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in _bench("workloads")])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qchan" / "__init__.py").is_file():
        print(f"no qchan sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    manifest = json.loads((ROOT / "perfbench" / "manifest.json").read_text())["workloads"][args.workload]
    known = manifest["known_failures"]

    env = _env()
    deadline = time.monotonic() + DEADLINE_S
    worker = [
        sys.executable, "-m", "perfbench.worker",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    cli = args.workload == "cli_verbs"
    if cli:
        probe, ready, probes = [sys.executable, "-c", "import qchan"], False, SETUP_SAMPLES
    else:  # the worker's own launch gives the last set-up sample
        probe, ready, probes = worker + ["--setup-only"], True, SETUP_SAMPLES - 1
    try:
        _child(probe, env, deadline, ready)  # untimed: writes the bytecode caches
        setups = [_child(probe, env, deadline, ready)[0] for _ in range(probes)]
        elapsed, out = _child(worker, env, deadline, True)
        if not cli:
            setups.append(elapsed)
        result = json.loads(out.strip().splitlines()[-1])
    except (RuntimeError, OSError, ValueError, IndexError) as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1

    lat = [x for one in result["latencies"] for x in one]
    attempted, failed = len(lat), result["failed"]
    unexpected = sorted(set(result["failures"]) - set(known))
    correct = not unexpected

    v = result["versions"]
    print(
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"python {v['python']}  numpy {v['numpy']}  scipy {v['scipy']}  nproc {os.cpu_count()}  "
        f"threads {'/'.join(n + '=1' for n in THREAD_PINS)}  closed loop, 1 client"
    )
    tail_value, tail_pct, beyond = pass_tail(result["latencies"])
    e2e = {
        "setup_s": statistics.median(setups),
        "throughput_ops_s": attempted / sum(lat),
        "latency_p50_s": statistics.median(lat),
        "latency_tail_s": tail_value,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    print(f"  setup_s              {e2e['setup_s']:.4f} s   (median of {len(setups)} launches)")
    print(f"  throughput_ops_s     {e2e['throughput_ops_s']:.4f} ops/s   ({attempted} ops, {result['ops_per_pass']} per pass)")
    print(f"  latency_p50_s        {e2e['latency_p50_s']:.6f} s")
    print(
        f"  latency_tail_s       {tail_value:.6f} s   (p{tail_pct:.1f} of each pass, {beyond} of "
        f"{result['ops_per_pass']} samples beyond; median over {len(result['latencies'])} passes)"
    )
    print(f"  fail_frac            {failed / attempted:.4f} ratio   ({failed} of {attempted} failed)")
    print(f"  peak_rss_mb          {e2e['peak_rss_mb']:.1f} MB")
    for name, unit in manifest["accuracy"].items():
        print(f"  {name:<20} {result['accuracy'].get(name, math.nan):.3e} {unit}")
    for op, why in sorted(result["failures"].items()):
        cause = known.get(op)
        tag = f"known: {cause}" if cause else "UNEXPECTED"
        print(f"  failed {op}: {why}  [{tag}]")
    if args.trace:
        print(f"  {QMATH_NOTE}")
        for name, value in result["per_layer"].items():
            print(f"  {name:<50} {value:.6g}")

    if args.trace:
        metrics = {m["name"]: {"value": result["per_layer"][m["name"]], "unit": m["unit"]} for m in _bench("per_layer")}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]} for m in _bench("end_to_end")}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def _bench(key: str):
    return json.loads((ROOT / "BENCHMARK.json").read_text())[key]


if __name__ == "__main__":
    sys.exit(main())
