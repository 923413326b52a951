"""The four workloads: generated inputs, the operations run on them, and
the check that decides whether each operation's output is correct.

An operation is one public qchan call (or one CLI process) on one
generated input. Its latency is the wall time of the program calls only;
the checks run after it, outside the timed region. Checks compare
against perfbench.refs, which never calls qchan for an expected value.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import numpy as np

import qchan
from qchan.errors import TooLarge

from perfbench import refs
from perfbench.spans import Tracer

# Budgets pinned in tests/test_acceptance.py; 1e-3 where no test pins one.
DEPOLARIZING_C_BUDGET = 1e-4
C_BUDGET = 1e-3
RSTAR_BUDGET = 1e-3
Q1_BUDGET = 1e-3
Q1_ORDER_SLACK = 1e-6
ORDER_SLACK = 1e-3
CERTIFICATE_SLACK = 1e-9
ROUNDS_REL_BUDGET = 1e-9

# The random channels of qudit_capacity come from this fixed generator
# seed, not from --seed: on a 2-core box the five solvers take 3.5 to
# 6.4 s on one 2->3 draw and 8 to 15 s on one 3->2 draw, which
# would make the seed-to-seed spread of every timing wider than any
# bound. A 3->3 channel (10 to 28 s per draw) does not fit the run
# length and is left out.
PANEL_SEED = 0

UNTRACED = Tracer(False)

SCHEDULE_TARGET = 0.9999
# Simulator seeds per (policy, F0). The many short runs at F0 = 0.75 put
# the median operation inside one dense cluster of short trials. About
# half the pumping and greedy runs at 0.638 exhaust their 20000 rounds;
# thirty of each make those exhausted runs, not the boundary between
# exhausted and finished runs, set the tail on every seed.
SCHEDULE_COUNTS = {
    0.638: {"symmetric": 10, "pumping": 30, "greedy": 30, "banded": 10},
    0.75: {"symmetric": 35, "pumping": 35, "greedy": 35, "banded": 35},
}


@dataclass
class Outcome:
    ok: bool
    why: str = ""
    accuracy: Dict[str, float] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)


@dataclass
class Op:
    """One operation: call(tr) makes the program calls, check(result, tr) judges them.

    refuses names the exception the call must raise. split(tr), run only
    in the traced pass and outside the timed region, repeats the work
    through finer public calls and returns their counters.
    """

    id: str
    call: Callable[[Tracer], Any]
    check: Callable[[Any, Tracer], Outcome]
    refuses: Optional[type] = None
    split: Optional[Callable[[Tracer], Dict[str, float]]] = None


def _judge(problems: List[str], acc: Dict[str, float], counters=None) -> Outcome:
    return Outcome(not problems, "; ".join(problems), acc, counters or {})


def _build(tr: Tracer, kind: str, **params):
    return tr.call("channels.make_channel", qchan.make_channel, kind, **params)


def _random(tr: Tracer, d_in: int, d_out: int, k: int, rng):
    return tr.call("channels.random_cptp_channel", qchan.random_cptp_channel, d_in, d_out, k, rng)


def _over(what: str, value: float, limit: float) -> List[str]:
    return [f"{what} = {value:.3e} > {limit:g}"] if value > limit else []


# ---------------------------------------------------------------- capacity


@dataclass
class ChannelCase:
    """A channel, the references that exist for it, and its C_hsw once solved."""

    name: str
    channel: Any
    c_ref: Optional[float] = None
    c_budget: float = C_BUDGET
    q1_ref: Optional[float] = None
    s_min_ref: Optional[float] = None
    c_hsw: Optional[float] = None


def _judge_hsw(case: ChannelCase, report, tr: Tracer):
    """Certificate: chi of the returned ensemble, pushed through the channel, is >= C_hsw."""
    problems: List[str] = []
    acc: Dict[str, float] = {}
    with tr.span("check.certificate"):
        ens = report.optimal_ensemble
        outs = [tr.call("channels.apply", qchan.apply, case.channel, s) for s in ens.states]
        chi = float(tr.call("entropy.holevo_quantity", qchan.holevo_quantity, qchan.Ensemble(ens.weights, outs)))
    problems += _over("C_hsw - certified chi", report.C_hsw - chi, CERTIFICATE_SLACK)
    if case.c_ref is not None:
        acc["hsw_err_max"] = abs(report.C_hsw - case.c_ref)
        problems += _over("|C_hsw - ref|", acc["hsw_err_max"], case.c_budget)
    case.c_hsw = report.C_hsw
    return problems, acc


def _judge_geometric(case: ChannelCase, report, tr: Tracer):
    gap = abs(report.r_star - case.c_hsw)
    return _over("|r* - C_hsw|", gap, RSTAR_BUDGET), {"rstar_gap_max": gap}


def _judge_q1(case: ChannelCase, report, tr: Tracer):
    violation = report.Q1 - case.c_hsw
    problems = _over("Q1 - C_hsw", violation, Q1_ORDER_SLACK)
    acc = {"order_violation_max": violation}
    if case.q1_ref is not None:
        acc["q1_err_max"] = abs(report.Q1 - case.q1_ref)
        problems += _over("|Q1 - ref|", acc["q1_err_max"], Q1_BUDGET)
    return problems, acc


def _judge_ea(case: ChannelCase, report, tr: Tracer):
    violation = case.c_hsw - report.C_E
    return _over("C_hsw - C_E", violation, ORDER_SLACK), {"order_violation_max": violation}


def _judge_private(case: ChannelCase, report, tr: Tracer):
    violation = report.P1 - case.c_hsw
    return _over("P1 - C_hsw", violation, ORDER_SLACK), {"order_violation_max": violation}


def _solver_op(case: ChannelCase, solver: str, judge) -> Op:
    """One capacity solver on one channel; hsw_numeric must run first on the channel."""
    layer = f"capacity.{solver}"
    fn = getattr(qchan, solver)

    def check(report, tr):
        problems, acc = judge(case, report, tr)
        stats = report.optimizer
        counters = {f"{layer}.iterations": stats.iterations, f"{layer}.restarts": stats.restarts}
        return _judge(problems, acc, counters)

    return Op(f"{solver}:{case.name}", lambda tr: tr.call(layer, fn, case.channel), check)


QUBIT_SOLVERS = (
    ("hsw_numeric", _judge_hsw),
    ("hsw_geometric", _judge_geometric),
    ("quantum_capacity_single_use", _judge_q1),
)
QUDIT_SOLVERS = (
    ("hsw_numeric", _judge_hsw),
    ("quantum_capacity_single_use", _judge_q1),
    ("entanglement_assisted", _judge_ea),
    ("private_information", _judge_private),
)


def _min_entropy_op(case: ChannelCase) -> Op:
    d_out = case.channel.dim_out

    def check(value, tr):
        value = float(value)
        problems = []
        if not -1e-9 <= value <= math.log2(d_out) + 1e-9:
            problems.append(f"S_min = {value:.6g} outside [0, log2 {d_out}]")
        if case.s_min_ref is not None:
            problems += _over("|S_min - ref|", abs(value - case.s_min_ref), C_BUDGET)
        return _judge(problems, {})

    return Op(
        f"min_output_entropy:{case.name}",
        lambda tr: tr.call("channels.min_output_entropy", qchan.min_output_entropy, case.channel),
        check,
    )


def _unital_case(tr, kind: str, p: float) -> ChannelCase:
    channel = _build(tr, kind, p=p)
    budget = DEPOLARIZING_C_BUDGET if kind == "depolarizing" else C_BUDGET
    q1 = None if kind == "depolarizing" else refs.dephasing_type_q1(p)
    return ChannelCase(f"{kind}(p={p:g})", channel, refs.unital_qubit_capacity(channel.kraus), budget, q1)


def qubit_capacity(seed: int, tr: Tracer) -> List[Op]:
    cases = [
        _unital_case(tr, "depolarizing", 0.1),
        _unital_case(tr, "depolarizing", 0.4),
        _unital_case(tr, "bit_flip", 0.2),
        _unital_case(tr, "phase_flip", 0.3),
        _unital_case(tr, "bit_phase_flip", 0.15),
        _unital_case(tr, "dephasing", 0.4),
    ]
    for gamma in (0.2, 0.4, 0.7):
        channel = _build(tr, "amplitude_damping", gamma=gamma)
        cases.append(
            ChannelCase(f"amplitude_damping(gamma={gamma:g})", channel, q1_ref=refs.amplitude_damping_q1(gamma))
        )
    rng = np.random.default_rng(seed)
    for j in range(3):
        k = int(rng.integers(2, 5))
        cases.append(ChannelCase(f"random(2,2,k={k})#{j}", _random(tr, 2, 2, k, rng)))
    return [_solver_op(case, solver, judge) for case in cases for solver, judge in QUBIT_SOLVERS]


def qudit_capacity(seed: int, tr: Tracer) -> List[Op]:
    """Fixed inputs: the seed is unused here (see PANEL_SEED)."""
    cases = []
    for p in (0.2, 0.6):
        c, q1 = refs.erasure_refs(p)
        cases.append(ChannelCase(f"erasure(p={p:g})", _build(tr, "erasure", p=p), c, C_BUDGET, q1, refs.h2(p)))
    p, q = 0.2, 0.3
    c, q1 = refs.mixed_erasure_refs(p, q)
    cases.append(
        ChannelCase(
            f"mixed_erasure(p={p:g},q={q:g})",
            _build(tr, "mixed_erasure", p=p, q=q),
            c,
            C_BUDGET,
            q1,
            refs.shannon((p, q, 1.0 - p - q)),
        )
    )
    panel = np.random.default_rng(PANEL_SEED)
    for d_in, d_out in ((2, 3), (3, 2)):
        cases.append(ChannelCase(f"panel({d_in},{d_out},k=2)", _random(tr, d_in, d_out, 2, panel)))
    ops: List[Op] = []
    for case in cases:
        ops += [_solver_op(case, solver, judge) for solver, judge in QUDIT_SOLVERS]
        ops.append(_min_entropy_op(case))
    return ops


# ------------------------------------------------------- zero error, repeater


def _zero_error_op(name: str, base_adj, graph_of: Callable[[Tracer], Any], n: int, alpha=None, at_least=1) -> Op:
    """alpha is the known independence number; at_least a lower bound on K where alpha is not known."""
    def call(tr):
        g = graph_of(tr)
        return tr.call("zero_error.zero_error_lower_bound", qchan.zero_error_lower_bound, g, n)

    def check(report, tr):
        problems = []
        if report.K != len(report.witness):
            problems.append(f"K = {report.K} but witness has {len(report.witness)} members")
        if not refs.independent_under(base_adj, report.witness):
            problems.append("witness is not independent")
        if abs(report.rate - math.log2(report.K) / n) > 1e-12:
            problems.append(f"rate {report.rate} != log2(K)/n")
        if alpha is not None and report.K != alpha:
            problems.append(f"K = {report.K}, expected alpha = {alpha}")
        if report.K < at_least:
            problems.append(f"K = {report.K} < {at_least}")
        return _judge(problems, {})

    def split(tr):
        g = graph_of(UNTRACED)
        g_n = tr.call("zero_error.strong_product", qchan.strong_product, g, n) if n > 1 else g
        tr.call("zero_error.max_independent_set", qchan.max_independent_set, g_n)
        vertices = g_n.vertex_count
        return {
            "zero_error.strong_product.vertices": vertices if n > 1 else 0,
            "zero_error.max_independent_set.vertices": vertices,
        }

    return Op(f"zero_error:{name}^{n}", call, check, split=split)


def _channel_graph(channel):
    return lambda tr: tr.call("zero_error.confusability_graph", qchan.confusability_graph, channel)


def _refusal_op(channel, n: int) -> Op:
    """A request past the exact-search limit, which must raise TooLarge."""
    graph_of = _channel_graph(channel)

    def call(tr):
        return tr.call("zero_error.zero_error_lower_bound", qchan.zero_error_lower_bound, graph_of(tr), n)

    return Op(f"zero_error_refused:{channel.label}^{n}", call, lambda r, tr: Outcome(False, "returned instead of refusing"), TooLarge)


EXPECTED_ROUNDS_GRID = (
    [(n, p0) for n in (1, 2, 3, 4) for p0 in (0.5, 0.1, 1e-3)]
    + [(4, 1e-6), (4, 1e-9)]
    + [(n, p0) for n in (5, 6) for p0 in (0.5, 0.1, 1e-3)]
    + [(5, 1e-6), (6, 1e-7)]
)


def _rounds_op(n: int, p0: float, exact_cache: Dict) -> Op:
    series = 2**n > 16
    layer = "repeater.expected_rounds"

    def check(value, tr):
        key = (n, p0)
        if key not in exact_cache:
            exact_cache[key] = refs.expected_rounds_exact(n, p0)
        exact = exact_cache[key]
        rel = float(abs((value - exact) / exact)) if math.isfinite(value) else math.inf
        problems = _over(f"relative error (exact {float(exact):.10g}, got {value:.10g})", rel, ROUNDS_REL_BUDGET)
        return _judge(problems, {"rounds_rel_err_max": rel})

    def call(tr):
        if not series:
            return tr.call(layer, qchan.expected_rounds, n, p0)
        with tr.span(layer + ".series"):
            return tr.call(layer, qchan.expected_rounds, n, p0)

    return Op(f"expected_rounds:n={n},P0={p0:g}", call, check)


def _schedule_op(policy: str, f0: float, sim_seed: int, replay: bool) -> Op:
    cfg = qchan.RepeaterConfig(L=20000.0, segments=1, P0=0.5, eta=0.5, F0=f0)
    layer = "repeater.simulate_schedule"

    def run():
        return qchan.simulate_schedule(policy, SCHEDULE_TARGET, cfg, seed=sim_seed)

    def check(trace, tr):
        problems = []
        if trace.outcome not in ("reached", "exhausted"):
            problems.append(f"outcome {trace.outcome!r}")
        if trace.outcome == "reached" and trace.final_fidelity < SCHEDULE_TARGET:
            problems.append(f"reached with fidelity {trace.final_fidelity} below target")
        if trace.rounds > 20000 or len(trace.events) > trace.rounds + trace.raw_pairs_consumed:
            problems.append("round or event count out of range")
        if replay:
            with tr.span("check.replay"):
                again = run()
            if qchan.trace_events_jsonl(again) != qchan.trace_events_jsonl(trace):
                problems.append("rerun with the same seed gave different trace_events_jsonl")
        counters = {f"{layer}.rounds": trace.rounds, f"{layer}.events": len(trace.events)}
        return _judge(problems, {}, counters)

    return Op(f"simulate_schedule:{policy},F0={f0:g},seed={sim_seed}", lambda tr: tr.call(layer, run), check)


def graphs_and_chains(seed: int, tr: Tracer) -> List[Op]:
    rng = np.random.default_rng(seed)
    channels = [_build(tr, kind, p=0.3) for kind in ("depolarizing", "bit_flip", "phase_flip", "bit_phase_flip", "dephasing")]
    channels.append(_build(tr, "amplitude_damping", gamma=0.3))
    for _ in range(2):
        channels.append(_random(tr, 2, 2, int(rng.integers(1, 5)), rng))
    ops: List[Op] = []
    for j, channel in enumerate(channels):
        adj = refs.confusability_adjacency(channel.kraus)
        alpha = refs.independence_number(adj)
        name = f"{channel.label}#{j}" if channel.kind == "custom" else channel.label
        graph_of = _channel_graph(channel)
        # A product of independent sets is independent in the strong
        # product, so alpha(G^2) >= alpha(G)^2.
        ops.append(_zero_error_op(name, adj, graph_of, 1, alpha=alpha))
        ops.append(_zero_error_op(name, adj, graph_of, 2, at_least=alpha**2))
    pentagon = qchan.pentagon_graph()
    for n in (1, 2, 3):
        ops.append(_zero_error_op("pentagon", refs.pentagon_adjacency(), lambda tr: pentagon, n, refs.PENTAGON_ALPHA[n]))
    ops.append(_refusal_op(channels[4], 5))
    exact_cache: Dict = {}
    ops += [_rounds_op(n, p0, exact_cache) for n, p0 in EXPECTED_ROUNDS_GRID]
    for f0, counts in SCHEDULE_COUNTS.items():
        for policy, count in counts.items():
            for k in range(count):
                ops.append(_schedule_op(policy, f0, int(rng.integers(0, 2**31)), replay=(f0, k) == (0.638, 0)))
    # A fixed interleaving spreads the short operations over the whole
    # pass, so the median and the tail do not sample one brief stretch
    # of machine speed.
    random.Random(0).shuffle(ops)
    return ops


# --------------------------------------------------------------------- CLI


def _csv_rows(text: str) -> List[Dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def _launch(argv: List[str], env: Dict[str, str]):
    """Run one CLI process to completion; returns (exit status, stdout, stderr)."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "qchan.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    out, err = proc.communicate()
    return proc.returncode, out.decode(), err.decode()


def _cli_op(verb: str, argv: List[str], env, judge: Callable[[str], List[str]]) -> Op:
    layer = f"cli.{verb}"

    def check(result, tr):
        status, out, err = result
        if status != 0:
            return Outcome(False, f"exit status {status}: {err.strip()[-300:]}")
        return _judge(judge(out), {})

    return Op(f"cli:{verb}", lambda tr: tr.call(layer, _launch, [verb, *argv], env), check)


def cli_verbs(seed: int, tr: Tracer, env: Dict[str, str]) -> List[Op]:
    gamma = 0.3
    ad_kraus = [
        np.array([[math.sqrt(1.0 - gamma), 0.0], [0.0, 1.0]], dtype=complex),
        np.array([[0.0, 0.0], [math.sqrt(gamma), 0.0]], dtype=complex),
    ]
    ad_affine = refs.affine_matrix(ad_kraus)
    dep_c = refs.unital_qubit_capacity(
        [math.sqrt(1.0 - 0.75 * 0.2) * np.eye(2)] + [math.sqrt(0.05) * s for s in refs.PAULIS]
    )
    z_exact = refs.expected_rounds_exact(3, 0.1)
    t0 = 2.0 * 20000.0 / 2e8
    sim_cfg = qchan.RepeaterConfig(L=20000.0, segments=1, P0=0.5, eta=0.5, F0=0.9)
    sims = [qchan.simulate_schedule("banded", 0.95, sim_cfg, seed=3 + k) for k in range(5)]

    def inspect(out):
        info = json.loads(out)
        problems = []
        if abs(info["min_output_entropy"]) > C_BUDGET:
            problems.append(f"min_output_entropy {info['min_output_entropy']} != 0")
        if np.abs(np.array(info["affine"]["A"]) - ad_affine).max() > 1e-9:
            problems.append("affine matrix differs from the Kraus-derived one")
        return problems

    def capacity(out):
        c = float(_csv_rows(out)[0]["C_hsw"])
        return [f"|C_hsw - ref| = {abs(c - dep_c):.3e}"] if abs(c - dep_c) > DEPOLARIZING_C_BUDGET else []

    def zero_error(out):
        row = _csv_rows(out)[0]
        ok = int(row["K"]) == refs.PENTAGON_ALPHA[2] and abs(float(row["rate"]) - math.log2(5) / 2) < 1e-12
        return [] if ok else [f"K = {row['K']}, rate = {row['rate']}"]

    def rate(out):
        row = _csv_rows(out)[0]
        z = float(row["Z_n"])
        rel = float(abs((z - z_exact) / z_exact))
        problems = [f"Z_n relative error {rel:.3e}"] if rel > ROUNDS_REL_BUDGET else []
        if abs(float(row["R_n"]) * t0 * z - 1.0) > 1e-12:
            problems.append("R_n != 1 / (T0 Z_n)")
        return problems

    def sim(out):
        rows = _csv_rows(out)
        want = [(t.seed, t.outcome, t.rounds, t.raw_pairs_consumed, t.final_fidelity) for t in sims]
        got = [
            (int(r["seed"]), r["outcome"], int(r["rounds"]), int(r["raw_pairs"]), float(r["final_fidelity"]))
            for r in rows
        ]
        return [] if got == want else ["rows differ from the in-process simulation"]

    return [
        _cli_op("channel-inspect", ["--kind", "amplitude_damping", "--gamma", str(gamma)], env, inspect),
        _cli_op("capacity", ["--kind", "depolarizing", "--p", "0.2"], env, capacity),
        _cli_op("zero-error", ["--graph", "pentagon", "--uses", "2"], env, zero_error),
        _cli_op("repeater-rate", ["--segments", "8", "--l0", "20km", "--p0", "0.1"], env, rate),
        _cli_op(
            "repeater-sim",
            ["--policy", "banded", "--target", "0.95", "--p0", "0.5", "--trials", "5", "--seed", "3"],
            env,
            sim,
        ),
    ]


IN_PROCESS = {
    "qubit_capacity": qubit_capacity,
    "qudit_capacity": qudit_capacity,
    "graphs_and_chains": graphs_and_chains,
}
WORKLOADS = (*IN_PROCESS, "cli_verbs")
