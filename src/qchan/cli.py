"""Command-line front end (`qchan`, or `python -m qchan`).

Five verbs: channel-inspect, capacity, zero-error, repeater-rate, and
repeater-sim. Results are emitted as CSV (stable column order) or JSON
(sorted keys) to stdout or --out. Exit codes: 0 success, 1 solver
failure, 2 invalid arguments or parameters.

A verb imports only the modules it uses, and only its own options are
built, so the repeater verbs and `zero-error --graph` never load numpy.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
from typing import TYPE_CHECKING, List, Optional, Sequence

from .errors import InvalidParameter, SolverError, ValidationError

if TYPE_CHECKING:  # the verbs import these when they run
    from . import capacity as cap, channels as ch, repeater as rep

RATE_COLUMNS = ("F0", "P0", "n", "Z_n", "R_n", "R_approx")
ZERO_ERROR_COLUMNS = ("graph", "n", "K", "rate", "witness")
SIM_COLUMNS = ("trial", "seed", "outcome", "rounds", "raw_pairs", "final_fidelity")

# Most points a --sweep may ask for
SWEEP_LIMIT = 10_000


def _parse_distance(text: str) -> float:
    """Meters, or kilometers with a km suffix (e.g. '20km')."""
    value = text.strip().lower()
    try:
        if value.endswith("km"):
            return float(value[:-2]) * 1000.0
        return float(value.removesuffix("m"))
    except ValueError:
        raise InvalidParameter(f"distance {text!r} is not a number of meters or km") from None


def _parse_sweep(text: str) -> List[float]:
    """start, start + step, ... up to end; more than SWEEP_LIMIT points are refused up front."""
    parts = text.split(":")
    if len(parts) != 3:
        raise InvalidParameter(f"sweep {text!r} must look like start:end:step")
    try:
        start, end, step = (float(x) for x in parts)
    except ValueError:
        raise InvalidParameter(f"sweep {text!r} has a bound or step that is not a number") from None
    if not all(math.isfinite(x) for x in (start, end, step)):
        raise InvalidParameter(f"sweep {text!r} has a non-finite bound or step")
    if step <= 0.0:
        raise InvalidParameter(f"sweep step {step} must be positive")
    if start > end:
        raise InvalidParameter(f"sweep start {start} exceeds end {end}")
    count = (end - start) / step + 1.0
    if count > SWEEP_LIMIT + 0.5:
        raise InvalidParameter(f"sweep {text!r} has {count:.6g} points, over {SWEEP_LIMIT}")
    # rounding may put the last point on either side of the quotient's floor
    values = (start + k * step for k in range(int(count) + 1))
    return [round(v, 12) for v in values if v <= end + 1e-9 * step]


def _csv_text(columns, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow(["" if v is None else v for v in row])
    return buf.getvalue()


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _emit(text: str, out: Optional[str], mode: str = "w") -> None:
    """Write text to the file out, or to stdout when out is not given."""
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, mode, encoding="utf-8") as handle:
            handle.write(text)
    except OSError as err:
        raise InvalidParameter(f"cannot write {out}: {err}") from err


def _parameters() -> tuple:
    """One --option per channel parameter of the table, which checks the values."""
    from .channels import CHANNEL_KINDS

    return tuple(
        dict.fromkeys(n for k in CHANNEL_KINDS.values() for n in (*k.params, k.complement) if n)
    )


def _channel_params(args) -> dict:
    return {name: getattr(args, name) for name in _parameters() if getattr(args, name) is not None}


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as err:
        raise InvalidParameter(f"cannot read {path}: {err}") from err


def _build_channel(args) -> ch.QuantumChannel:
    from . import channels as ch

    if getattr(args, "channel_file", None):
        return ch.channel_from_json(_load_json(args.channel_file))
    if getattr(args, "kind", None):
        return ch.make_channel(args.kind, **_channel_params(args))
    raise InvalidParameter("give --kind or --channel-file")


def _capacity_report_dict(report: cap.CapacityReport) -> dict:
    from . import capacity as cap

    data = {
        "channel_label": report.channel_label,
        "notes": list(report.notes),
    }
    for name in cap.REPORT_FIELDS:
        value = getattr(report, name)
        if value is not None:
            data[name] = float(value)
    if report.optimizer is not None:
        data["optimizer"] = dataclasses.asdict(report.optimizer)
    return data


def _cmd_channel_inspect(args) -> str:
    from . import capacity as cap
    from . import channels as ch

    channel = _build_channel(args)
    info: dict = {
        "label": channel.label,
        "kind": channel.kind,
        "dim_in": channel.dim_in,
        "dim_out": channel.dim_out,
        "has_kraus": channel.kraus is not None,
    }
    report = ch.is_cptp(channel)
    info["cptp"] = dataclasses.asdict(report)
    info["unital"] = ch.is_unital(channel)
    if report:
        deg = ch.is_degradable(channel)
        info["degradable"] = {
            "status": deg.status,
            "condition_number": deg.condition_number,
            "residual": deg.residual,
        }
    if channel.dim_in == 2 and channel.dim_out == 2:
        aff = ch.affine_representation(channel)
        info["affine"] = {
            "A": [[float(x) for x in row] for row in aff.A],
            "b": [float(x) for x in aff.b],
        }
        if report:
            info["entanglement_breaking"] = ch.is_entanglement_breaking(channel)
            info["min_output_entropy"] = float(cap.min_output_entropy(channel))
    if args.format == "json":
        return _json_text(info)
    flat = []

    def walk(prefix, value):
        if isinstance(value, dict):
            for key in sorted(value):
                walk(f"{prefix}.{key}" if prefix else key, value[key])
        else:
            flat.append((prefix, value))

    walk("", info)
    return _csv_text(("field", "value"), flat)


def _capacity_targets(args):
    """Yield (param_value, channel) pairs for a single point or a sweep."""
    from . import channels as ch

    if args.channel_file:
        yield None, _build_channel(args)
        return
    if not args.kind:
        raise InvalidParameter("give --kind or --channel-file")
    name = ch.CHANNEL_KINDS[args.kind].sweep
    params = _channel_params(args)
    if not args.sweep:
        yield params.get(name), ch.make_channel(args.kind, **params)
        return
    if name is None:
        raise InvalidParameter(f"{args.kind} has no parameter to sweep")
    for value in _parse_sweep(args.sweep):
        yield value, ch.make_channel(args.kind, **{**params, name: value})


def _cmd_capacity(args) -> str:
    from . import capacity as cap

    measures = tuple(args.measure.split(","))
    cfg = cap.OptimizerConfig(seed=args.seed)
    rows = []
    reports = []
    for value, channel in _capacity_targets(args):
        report = cap.full_report(channel, cfg, measures)
        data = _capacity_report_dict(report)
        if value is not None:
            data["param"] = value
        reports.append(data)
        rows.append((channel.kind, value, *(data.get(name) for name in cap.REPORT_FIELDS)))
    if args.format == "json":
        return _json_text(reports)
    return _csv_text(("kind", "param") + cap.REPORT_FIELDS, rows)


def _cmd_zero_error(args) -> str:
    from . import zero_error as ze

    # a --graph line that names no channel option was parsed without them (see build_parser)
    from_channel = hasattr(args, "kind") and (args.kind or args.channel_file or _channel_params(args))
    channel = None
    if args.graph and from_channel:
        raise InvalidParameter("give --graph or a channel (--kind, --channel-file), not both")
    if args.graph == "pentagon":
        graph = ze.pentagon_graph()
        label = "pentagon"
    elif args.graph:
        data = _load_json(args.graph)
        labels = data.get("labels") if isinstance(data, dict) else None
        if isinstance(labels, list) and labels:  # refused before graph_from_json allocates n x n
            ze._require_size(len(labels), args.uses, ze._EXACT_MIS_LIMIT, "the exact-search limit")
        graph = ze.graph_from_json(data)
        label = args.graph
    elif from_channel:
        channel = _build_channel(args)
        graph = ze.confusability_graph(channel)
        label = channel.label
    else:
        raise InvalidParameter("give --graph, --kind, or --channel-file")

    hsw_upper = None
    if channel is not None and channel.kraus is not None:
        from . import capacity as cap

        hsw_upper = cap.hsw_numeric(channel, cap.OptimizerConfig(seed=args.seed)).C_hsw

    report = ze.zero_error_lower_bound(graph, args.uses, hsw_upper=hsw_upper)
    data = {
        "graph": label,
        "vertices": graph.vertex_count,
        "edges": graph.edge_count,
        "n": report.n,
        "K": report.K,
        "rate": report.rate,
        "witness": list(report.witness),
        "notes": list(report.notes),
        "nodes": report.nodes,
    }
    if hsw_upper is not None:
        data["hsw_upper"] = float(hsw_upper)
    if args.format == "json":
        return _json_text(data)
    row = (label, report.n, report.K, report.rate, ";".join(report.witness))
    return _csv_text(ZERO_ERROR_COLUMNS, [row])


def _repeater_config(args, p0: float) -> rep.RepeaterConfig:
    from . import repeater as rep

    # checked at L = l0 first, so a segment count past the float range is
    # refused before l0 * segments would overflow
    cfg = rep.RepeaterConfig(
        L=_parse_distance(args.l0), segments=args.segments, P0=p0, eta=args.eta, F0=args.f0
    )
    return dataclasses.replace(cfg, L=cfg.L * cfg.segments)


def _cmd_repeater_rate(args) -> str:
    from . import repeater as rep

    dicts = []
    for p0 in _parse_sweep(args.sweep) if args.sweep else [args.p0]:
        cfg = _repeater_config(args, p0)
        report = rep.generation_rate(cfg)
        dicts.append(
            {
                "F0": cfg.F0,
                "P0": cfg.P0,
                "n": cfg.levels,
                "T0": report.T0,
                "Z_n": report.Z_n,
                "R_n": report.R_n,
                "R_approx": report.R_n_approx,
            }
        )
    if args.format == "json":
        return _json_text(dicts)
    return _csv_text(RATE_COLUMNS, [[row[name] for name in RATE_COLUMNS] for row in dicts])


def _cmd_repeater_sim(args) -> str:
    if args.trials < 1:
        raise InvalidParameter(f"--trials {args.trials} must be at least 1")
    from . import repeater as rep

    cfg = _repeater_config(args, args.p0)
    traces, rows = [], []
    for trial in range(args.trials):
        t = rep.simulate_schedule(
            args.policy,
            args.target,
            cfg,
            seed=args.seed + trial,
            force_success=args.force_success,
            bands=args.bands,
        )
        rows.append((trial, t.seed, t.outcome, t.rounds, t.raw_pairs_consumed, t.final_fidelity))
        # JSON prints every trace; CSV needs trial 0's alone, and only for --trace
        if args.format == "json" or (args.trace and not traces):
            traces.append(t)
    if args.trace:
        _emit(rep.trace_events_jsonl(traces[0]), args.trace)
    if args.format == "json":
        return _json_text([rep.trace_to_json(t) for t in traces])
    return _csv_text(SIM_COLUMNS, rows)


def _add_channel_options(sub, with_sweep: bool) -> None:
    from .channels import CHANNEL_KINDS

    sub.add_argument("--kind", choices=tuple(CHANNEL_KINDS))
    for name in _parameters():
        sub.add_argument(f"--{name}", type=float)
    sub.add_argument("--channel-file", metavar="JSON")
    if with_sweep:
        sub.add_argument("--sweep", metavar="START:END:STEP")


def _add_output_options(sub, default_format: str) -> None:
    sub.add_argument("--format", choices=("csv", "json"), default=default_format)
    sub.add_argument("--out", metavar="PATH")


def _inspect_options(sub) -> None:
    _add_channel_options(sub, with_sweep=False)
    _add_output_options(sub, "json")


def _capacity_options(sub) -> None:
    from .capacity import MEASURES

    _add_channel_options(sub, with_sweep=True)
    sub.add_argument(
        "--measure",
        default="hsw",
        help=f"comma-separated subset of {','.join(MEASURES)} or all",
    )
    sub.add_argument("--seed", type=int, default=0)
    _add_output_options(sub, "csv")


def _zero_error_options(sub, channel: bool = True) -> None:
    sub.add_argument("--graph", help="'pentagon' or a graph JSON path")
    if channel:
        _add_channel_options(sub, with_sweep=False)
    sub.add_argument("--uses", type=int, default=1)
    sub.add_argument("--seed", type=int, default=0)
    _add_output_options(sub, "csv")


def _rate_options(sub) -> None:
    sub.add_argument("--segments", type=int, required=True)
    sub.add_argument("--l0", required=True, help="segment length (meters, or e.g. 20km)")
    sub.add_argument("--p0", type=float, default=0.1)
    sub.add_argument("--eta", type=float, default=0.5)
    sub.add_argument("--f0", type=float, default=0.9)
    sub.add_argument("--sweep", metavar="START:END:STEP", help="sweep P0")
    _add_output_options(sub, "csv")


def _sim_options(sub) -> None:
    from .repeater import POLICIES

    sub.add_argument("--policy", choices=POLICIES, required=True)
    sub.add_argument("--target", type=float, required=True)
    sub.add_argument("--segments", type=int, default=1)
    sub.add_argument("--l0", default="20km")
    sub.add_argument("--p0", type=float, default=0.1)
    sub.add_argument("--eta", type=float, default=0.5)
    sub.add_argument("--f0", type=float, default=0.9)
    sub.add_argument("--trials", type=int, default=1)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--force-success", action="store_true")
    sub.add_argument("--bands", type=int, default=8)
    sub.add_argument("--trace", metavar="PATH", help="write events of trial 0 as JSON lines")
    _add_output_options(sub, "csv")


# Each verb: its help line, the function that adds its options, and its handler
_VERBS = {
    "channel-inspect": ("validate and classify a channel", _inspect_options, _cmd_channel_inspect),
    "capacity": ("run capacity solvers, single point or sweep", _capacity_options, _cmd_capacity),
    "zero-error": ("zero-error rate lower bounds", _zero_error_options, _cmd_zero_error),
    "repeater-rate": ("expected rounds and pair rates", _rate_options, _cmd_repeater_rate),
    "repeater-sim": ("simulate a purification schedule", _sim_options, _cmd_repeater_sim),
}


def build_parser(argv: Optional[Sequence[str]] = None) -> argparse.ArgumentParser:
    """The qchan parser, with the options of argv's verb alone when it names one, else of every verb.

    Building a verb's options imports the tables they read, so parsing one
    verb loads no module that only another verb uses. A zero-error line that
    gives --graph and no option but --uses, --seed, --format and --out (any
    dashed token counts, -h and negative values too) gets no channel option.
    """
    verb = argv[0] if argv and argv[0] in _VERBS else None
    names = {token.split("=", 1)[0] for token in argv[1:] if token.startswith("-")} if verb else set()
    graph_only = "--graph" in names and names <= {"--graph", "--uses", "--seed", "--format", "--out"}
    parser = argparse.ArgumentParser(
        prog="qchan",
        description="Quantum channel toolbox: inspection, capacities, "
        "zero-error codes, repeater rates.",
    )
    subs = parser.add_subparsers(dest="verb", required=True)
    for name, (text, add_options, func) in _VERBS.items():
        sub = subs.add_parser(name, help=text)
        if verb == name == "zero-error" and graph_only:
            _zero_error_options(sub, channel=False)
        elif verb in (None, name):
            add_options(sub)
        sub.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv).parse_args(argv)
    try:
        # refuse an unwritable output path before the verb runs; appending keeps a file as it is
        for path in filter(None, (args.out, getattr(args, "trace", None))):
            made = not os.path.lexists(path)
            _emit("", path, "a")
            if made:
                os.remove(path)
        _emit(args.func(args), args.out)
    except ValidationError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except SolverError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
