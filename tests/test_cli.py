import csv
import functools
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qchan
from qchan import channel_to_json, make_channel
from qchan.cli import SWEEP_LIMIT, _parse_sweep, build_parser, main
from qchan.errors import InvalidParameter


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestCapacityVerb:
    def test_single_point_csv(self, capsys):
        code, out, err = run(
            capsys, "capacity", "--kind", "depolarizing", "--p", "0.0"
        )
        assert code == 0
        assert err == ""
        rows = csv_rows(out)
        assert len(rows) == 1
        assert rows[0]["kind"] == "depolarizing"
        assert np.isclose(float(rows[0]["C_hsw"]), 1.0, atol=1e-6)

    def test_header_order_is_stable(self, capsys):
        _, out, _ = run(capsys, "capacity", "--kind", "identity")
        header = out.splitlines()[0]
        assert header == "kind,param,chi,C_hsw,Q1,Q1_raw,C_E,P1,r_star,S_min"

    @pytest.mark.parametrize("measure,field", [("minent", "S_min"), ("qcap", "Q1_raw")])
    def test_csv_row_carries_the_json_value(self, capsys, measure, field):
        args = ("capacity", "--kind", "depolarizing", "--p", "0.2", "--measure", measure)
        code, out, _ = run(capsys, *args)
        assert code == 0
        (row,) = csv_rows(out)
        _, out, _ = run(capsys, *args, "--format", "json")
        (report,) = json.loads(out)
        assert float(row[field]) == report[field]

    def test_all_on_a_qudit_channel_notes_what_it_left_out(self, capsys):
        args = ("capacity", "--kind", "erasure", "--p", "0.3", "--d", "3", "--measure", "all")
        code, out, err = run(capsys, *args, "--format", "json")
        assert code == 0 and err == ""
        (report,) = json.loads(out)
        assert report.get("r_star") is None
        assert report["P1"] is not None and report["S_min"] is not None
        assert any(note.startswith("hsw-geo left out") for note in report["notes"])

    @pytest.mark.parametrize("sweep", ["0:nan:0.1", "0:inf:0.1", "nan:1:0.1", "0:1:nan"])
    def test_non_finite_sweep_exits_two(self, capsys, sweep):
        code, _, err = run(capsys, "capacity", "--kind", "depolarizing", "--sweep", sweep)
        assert code == 2
        assert "non-finite" in err
        code, _, err = run(
            capsys, "repeater-rate", "--segments", "2", "--l0", "20km", "--sweep", sweep
        )
        assert code == 2
        assert "non-finite" in err

    def test_sweep_emits_one_row_per_point(self, capsys):
        code, out, _ = run(
            capsys,
            "capacity",
            "--kind",
            "depolarizing",
            "--sweep",
            "0:1:0.25",
            "--format",
            "json",
        )
        assert code == 0
        reports = json.loads(out)
        assert [r["param"] for r in reports] == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert np.isclose(reports[2]["C_hsw"], 0.18872187554086717, atol=1e-6)

    def test_damping_sweep_drives_gamma(self, capsys):
        code, out, _ = run(
            capsys,
            "capacity",
            "--kind",
            "amplitude_damping",
            "--sweep",
            "0.6:0.8:0.1",
            "--measure",
            "qcap",
            "--format",
            "json",
        )
        assert code == 0
        for report in json.loads(out):
            assert report["Q1"] <= 1e-6

    def test_reruns_are_byte_identical(self, capsys):
        args = ("capacity", "--kind", "amplitude_damping", "--gamma", "0.3",
                "--measure", "hsw,qcap")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_unknown_kind_exits_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["capacity", "--kind", "teleporter"])
        assert info.value.code == 2

    def test_bad_sweep_exits_two(self, capsys):
        code, out, err = run(
            capsys, "capacity", "--kind", "depolarizing", "--sweep", "1:0:0.1"
        )
        assert code == 2
        assert "error" in err

    def test_missing_channel_exits_two(self, capsys):
        code, _, err = run(capsys, "capacity")
        assert code == 2
        assert "error" in err

    def test_affine_only_channel_exits_two(self, capsys):
        code, _, err = run(capsys, "capacity", "--kind", "pancake")
        assert code == 2
        assert "error" in err

    def test_out_file_receives_the_csv(self, capsys, tmp_path):
        path = tmp_path / "rows.csv"
        code, out, _ = run(
            capsys, "capacity", "--kind", "identity", "--out", str(path)
        )
        assert code == 0
        assert out == ""
        rows = csv_rows(path.read_text())
        assert np.isclose(float(rows[0]["C_hsw"]), 1.0, atol=1e-6)

    def test_json_reports_objective_evaluations(self, capsys):
        for argv in (
            ("--kind", "amplitude_damping", "--gamma", "0.3"),
            ("--kind", "erasure", "--p", "0.3", "--measure", "minent"),
        ):
            code, out, _ = run(capsys, "capacity", *argv, "--format", "json")
            assert code == 0
            (report,) = json.loads(out)
            assert report["optimizer"]["evaluations"] > 0
            assert report["optimizer"]["converged"] is True

    def test_qubit_min_entropy_reports_zero_stats(self, capsys):
        code, out, _ = run(
            capsys, "capacity", "--kind", "depolarizing", "--p", "0.3",
            "--measure", "minent", "--format", "json",
        )
        assert code == 0
        (report,) = json.loads(out)
        assert report["optimizer"] == {
            "certificate_residual": 0.0,
            "converged": True,
            "evaluations": 0,
            "iterations": 0,
            "restart_spread": None,
            "restarts": 0,
        }

    def test_useless_erasure_prints_positive_zero(self, capsys):
        code, out, _ = run(
            capsys, "capacity", "--kind", "erasure", "--p", "1.0", "--measure", "qcap"
        )
        assert code == 0
        (row,) = csv_rows(out)
        assert row["Q1"] == "0.0"
        assert math.copysign(1.0, float(row["Q1"])) == 1.0

    def test_channel_file_input(self, capsys, tmp_path):
        path = tmp_path / "chan.json"
        path.write_text(json.dumps(channel_to_json(make_channel("dephasing", p=0.3))))
        code, out, _ = run(
            capsys, "capacity", "--channel-file", str(path), "--format", "json"
        )
        assert code == 0
        (report,) = json.loads(out)
        assert np.isclose(report["C_hsw"], 1.0, atol=1e-6)


class TestChannelInspect:
    def test_json_classification(self, capsys):
        code, out, _ = run(
            capsys, "channel-inspect", "--kind", "amplitude_damping", "--gamma", "0.3"
        )
        assert code == 0
        info = json.loads(out)
        assert info["cptp"]["trace_preserving"]
        assert info["cptp"]["completely_positive"]
        assert info["unital"] is False
        assert info["degradable"]["status"] == "degradable"
        assert info["entanglement_breaking"] is False

    @pytest.mark.parametrize("argv", [
        ("--kind", "depolarizing", "--p", "1"),
        ("--kind", "erasure", "--p", "1"),
    ], ids=" ".join)
    def test_json_is_strict(self, capsys, argv):
        # both once printed an Infinity condition number, which strict JSON has no word for
        def refuse(name):
            raise ValueError(f"non-standard JSON constant {name}")

        code, out, _ = run(capsys, "channel-inspect", *argv)
        assert code == 0
        info = json.loads(out, parse_constant=refuse)
        assert info["degradable"]["status"] == "not_degradable"

    def test_affine_witness_reported_without_kraus_fields(self, capsys):
        code, out, _ = run(capsys, "channel-inspect", "--kind", "pancake")
        assert code == 0
        info = json.loads(out)
        assert info["has_kraus"] is False
        assert info["cptp"]["trace_preserving"] is True
        assert info["cptp"]["completely_positive"] is False
        assert abs(info["cptp"]["choi_min_eigenvalue"] + 0.25) <= 1e-12
        assert info["unital"] is True
        assert "degradable" not in info
        assert np.allclose(info["affine"]["A"], np.diag([1.0, 1.0, 0.0]))

    def test_csv_flattens_nested_fields(self, capsys):
        code, out, _ = run(
            capsys, "channel-inspect", "--kind", "identity", "--format", "csv"
        )
        assert code == 0
        fields = {row["field"]: row["value"] for row in csv_rows(out)}
        assert fields["kind"] == "identity"
        assert fields["cptp.trace_preserving"] == "True"

    def test_non_qubit_reports_choi_spectrum(self, capsys):
        code, out, _ = run(capsys, "channel-inspect", "--kind", "erasure", "--p", "0.5")
        assert code == 0
        info = json.loads(out)
        assert abs(info["cptp"]["choi_min_eigenvalue"]) <= 1e-12
        assert "choi_min_eigenvalue" not in info
        assert "affine" not in info


class TestZeroErrorVerb:
    def test_pentagon_two_uses(self, capsys):
        code, out, _ = run(
            capsys, "zero-error", "--graph", "pentagon", "--uses", "2"
        )
        assert code == 0
        (row,) = csv_rows(out)
        assert row["graph"] == "pentagon"
        assert row["K"] == "5"
        assert np.isclose(float(row["rate"]), 1.160964047443681, atol=1e-9)
        assert len(row["witness"].split(";")) == 5

    def test_oversized_block_exits_one(self, capsys):
        code, _, err = run(capsys, "zero-error", "--graph", "pentagon", "--uses", "8")
        assert code == 1
        assert "error" in err

    def test_channel_input_attaches_capacity_bound(self, capsys):
        code, out, _ = run(
            capsys,
            "zero-error",
            "--kind",
            "dephasing",
            "--p",
            "0.3",
            "--format",
            "json",
        )
        assert code == 0
        info = json.loads(out)
        assert info["K"] == 2
        assert np.isclose(info["hsw_upper"], 1.0, atol=1e-6)
        assert any("holds" in note for note in info["notes"])

    def test_graph_file_input(self, capsys, tmp_path):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps({"labels": ["a", "b", "c"], "edges": [[0, 1]]}))
        code, out, _ = run(capsys, "zero-error", "--graph", str(path))
        assert code == 0
        (row,) = csv_rows(out)
        assert row["K"] == "2"

    def test_json_reports_search_nodes_and_fixed_vertex(self, capsys):
        code, out, _ = run(capsys, "zero-error", "--graph", "pentagon", "--uses", "2", "--format", "json")
        assert code == 0
        info = json.loads(out)
        assert info["K"] == 5
        assert isinstance(info["nodes"], int) and info["nodes"] > 0
        assert info["witness"][0] == "(v0,v0)"
        assert "vertex-transitive base: (v0,v0) fixed" in info["notes"]

    def test_oversized_graph_file_refused_before_it_is_built(self, capsys, tmp_path, monkeypatch):
        from qchan import zero_error

        def unexpected(data):
            raise AssertionError("graph_from_json called for a refused request")

        monkeypatch.setattr(zero_error, "graph_from_json", unexpected)
        path = tmp_path / "graph.json"
        path.write_text(json.dumps({"labels": [f"u{k}" for k in range(5000)], "edges": []}))
        code, out, err = run(capsys, "zero-error", "--graph", str(path))
        assert code == 1
        assert out == ""
        assert "5000 vertices exceeds the exact-search limit 130" in err

    def test_no_input_exits_two(self, capsys):
        code, _, err = run(capsys, "zero-error")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("channel", [
        ("--kind", "depolarizing", "--p", "0.3"),
        ("--channel-file", "chan.json"),
        ("--p", "0.3"),
        ("--gamma", "0.3"),
        ("--q", "0.3"),
        ("--d", "3"),
    ])
    def test_graph_with_a_channel_exits_two(self, capsys, channel):
        code, out, err = run(capsys, "zero-error", "--graph", "pentagon", *channel)
        assert code == 2
        assert out == ""
        assert "not both" in err

    @pytest.mark.parametrize("argv", [
        ("--graph", "pentagon", "--uses", "2"),
        ("--graph=pentagon", "--uses=3", "--seed", "4", "--format", "json", "--out", "x.csv"),
    ])
    def test_graph_line_parses_as_with_every_option(self, argv):
        """A --graph line parsed without the channel options reads as the full parser reads it."""
        argv = ["zero-error", *argv]
        short, full = vars(build_parser(argv).parse_args(argv)), vars(build_parser().parse_args(argv))
        assert "kind" not in short
        assert short == {name: full[name] for name in short}
        assert all(full[name] is None for name in full.keys() - short.keys())

    @pytest.mark.parametrize("argv", [
        ("--gra", "pentagon"),
        ("--graph", "pentagon", "--p", "0.3"),
        ("--graph", "pentagon", "--seed", "-1"),
        ("--graph", "pentagon", "--out", "-"),
        ("--uses", "2"),
    ])
    def test_other_lines_get_the_channel_options(self, argv):
        argv = ["zero-error", *argv]
        assert vars(build_parser(argv).parse_args(argv)).keys() == vars(build_parser().parse_args(argv)).keys()

    def test_help_of_a_graph_line_lists_the_channel_options(self, capsys):
        with pytest.raises(SystemExit):
            main(["zero-error", "--graph", "pentagon", "-h"])
        assert "--kind" in capsys.readouterr().out


class TestRepeaterRateVerb:
    def test_kilometer_suffix_sets_round_trip_time(self, capsys):
        code, out, _ = run(
            capsys,
            "repeater-rate",
            "--segments",
            "8",
            "--l0",
            "20km",
            "--p0",
            "0.1",
            "--format",
            "json",
        )
        assert code == 0
        (entry,) = json.loads(out)
        assert entry["T0"] == 2e-4
        assert entry["n"] == 3
        assert np.isclose(entry["Z_n"], 26.295784368397804, rtol=1e-12)

    def test_csv_columns(self, capsys):
        code, out, _ = run(
            capsys, "repeater-rate", "--segments", "4", "--l0", "10000"
        )
        assert code == 0
        assert out.splitlines()[0] == "F0,P0,n,Z_n,R_n,R_approx"

    def test_sweep_runs_each_probability(self, capsys):
        code, out, _ = run(
            capsys,
            "repeater-rate",
            "--segments",
            "2",
            "--l0",
            "20km",
            "--sweep",
            "0.1:0.3:0.1",
        )
        assert code == 0
        rows = csv_rows(out)
        assert [row["P0"] for row in rows] == ["0.1", "0.2", "0.3"]

    def test_zero_probability_exits_two(self, capsys):
        code, _, err = run(
            capsys, "repeater-rate", "--segments", "2", "--l0", "20km", "--p0", "0.0"
        )
        assert code == 2
        assert "error" in err

    def test_rounds_past_the_float_range_exit_one(self, capsys):
        code, out, err = run(
            capsys, "repeater-rate", "--segments", "64", "--l0", "20km", "--p0", "1e-320"
        )
        assert code == 1
        assert out == ""
        assert "float range" in err

    @pytest.mark.parametrize("l0", ["nan", "inf", "nankm"])
    def test_non_finite_distance_exits_two(self, capsys, l0):
        code, out, err = run(capsys, "repeater-rate", "--segments", "2", "--l0", l0)
        assert code == 2
        assert out == ""
        assert "distance" in err


class TestRepeaterSimVerb:
    def test_forced_symmetric_run(self, capsys):
        code, out, _ = run(
            capsys,
            "repeater-sim",
            "--policy",
            "symmetric",
            "--target",
            "0.9999",
            "--f0",
            "0.638",
            "--force-success",
        )
        assert code == 0
        (row,) = csv_rows(out)
        assert row["outcome"] == "reached"
        assert row["raw_pairs"] == "32"
        assert row["rounds"] == "63"

    def test_trials_advance_the_seed(self, capsys):
        code, out, _ = run(
            capsys,
            "repeater-sim",
            "--policy",
            "greedy",
            "--target",
            "0.95",
            "--p0",
            "0.5",
            "--trials",
            "3",
            "--seed",
            "10",
        )
        assert code == 0
        rows = csv_rows(out)
        assert [row["trial"] for row in rows] == ["0", "1", "2"]
        assert [row["seed"] for row in rows] == ["10", "11", "12"]

    def test_trace_file_holds_first_trial_events(self, capsys, tmp_path):
        path = tmp_path / "events.jsonl"
        code, _, _ = run(
            capsys,
            "repeater-sim",
            "--policy",
            "pumping",
            "--target",
            "0.95",
            "--p0",
            "0.5",
            "--trace",
            str(path),
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines
        first = json.loads(lines[0])
        assert first["action"] == "generate"
        assert first["round"] >= 1

    def test_json_format_carries_full_traces(self, capsys):
        code, out, _ = run(
            capsys,
            "repeater-sim",
            "--policy",
            "banded",
            "--target",
            "0.95",
            "--p0",
            "0.5",
            "--format",
            "json",
        )
        assert code == 0
        (trace,) = json.loads(out)
        assert trace["policy"] == "banded"
        assert isinstance(trace["events"], list)

    @pytest.mark.parametrize("trace", [False, True])
    def test_csv_trials_do_not_hold_their_traces(self, capsys, monkeypatch, tmp_path, trace):
        # exhausted pumping runs: every trial's trace is as long as the round cap
        # allows; the cap keeps the cost of tracing each allocation small
        from qchan import repeater

        monkeypatch.setattr(
            repeater, "simulate_schedule", functools.partial(repeater.simulate_schedule, max_rounds=600)
        )
        argv = ["repeater-sim", "--policy", "pumping", "--f0", "0.638", "--target", "0.9999", "--p0", "0.5"]
        if trace:
            argv += ["--trace", str(tmp_path / "events.jsonl")]

        def peak(trials):
            tracemalloc.start()
            try:
                assert main([*argv, "--trials", str(trials)]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                capsys.readouterr()

        one = peak(1)
        assert peak(30) < 2 * one

    def test_target_below_base_fidelity_exits_two(self, capsys):
        code, _, err = run(
            capsys,
            "repeater-sim",
            "--policy",
            "symmetric",
            "--target",
            "0.5",
            "--f0",
            "0.9",
        )
        assert code == 2
        assert "error" in err

    def test_unknown_policy_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["repeater-sim", "--policy", "eager", "--target", "0.9"])
        assert info.value.code == 2


def _src_env():
    """The environment with this checkout's src/ first on PYTHONPATH, for fresh interpreters."""
    env = dict(os.environ)
    src = str(Path(qchan.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _probe(code: str) -> str:
    """What a fresh interpreter running code prints, stripped."""
    out = subprocess.run(
        [sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


def test_import_leaves_scipy_optimize_unloaded():
    """The graph and repeater verbs never optimize, so start-up skips scipy.optimize."""
    assert _probe("import sys, qchan, qchan.cli; print('scipy.optimize' in sys.modules)") == "False"


def test_channel_inspect_leaves_scipy_optimize_unloaded():
    """Inspecting a qubit channel finds its output radius in closed form, without scipy.optimize."""
    probe = (
        "import os, sys; from qchan.cli import main; "
        "code = main(['channel-inspect', '--kind', 'amplitude_damping', '--gamma', '0.3', "
        "'--out', os.devnull]); print(code, 'scipy.optimize' in sys.modules)"
    )
    assert _probe(probe) == "0 False"


def test_capacity_solvers_never_import_scipy():
    """Every search, and the amplitude-damping closed form, runs on numpy and the stdlib."""
    probe = (
        "import os, sys; from qchan import analytic_capacity; from qchan.cli import main; "
        "code = main(['capacity', '--kind', 'depolarizing', '--p', '0.2', '--measure', 'all', "
        "'--out', os.devnull]); analytic_capacity('amplitude_damping', gamma=0.3); "
        "print(code, 'scipy' in sys.modules)"
    )
    assert _probe(probe) == "0 False"


@pytest.mark.parametrize("argv,module", [
    ((), "numpy"),
    (("repeater-rate", "--segments", "8", "--l0", "20km", "--p0", "0.1"), "numpy"),
    (("repeater-sim", "--policy", "banded", "--target", "0.95", "--p0", "0.5", "--trials", "5"),
     "numpy"),
    (("capacity", "--kind", "depolarizing", "--p", "0.2"), "qchan.repeater"),
    (("channel-inspect", "--kind", "amplitude_damping", "--gamma", "0.3"), "qchan.repeater"),
    (("zero-error", "--graph", "pentagon", "--uses", "2"), "numpy"),
], ids=["import qchan", "repeater-rate", "repeater-sim", "capacity", "channel-inspect", "zero-error"])
def test_start_up_leaves_unused_modules_unloaded(argv, module):
    """The package imports an export on first use and a verb imports only the modules it uses."""
    probe = "import os, sys, qchan; code = 0"
    if argv:
        probe = "import os, sys; from qchan.cli import main; "
        probe += f"code = main([*{argv!r}, '--out', os.devnull])"
    assert _probe(f"{probe}; print(code, {module!r} in sys.modules)") == "0 False"


def _run_cli_process(*argv, module="qchan.cli", timeout=60):
    return subprocess.run(
        [sys.executable, "-m", module, *argv],
        env=_src_env(), capture_output=True, text=True, timeout=timeout,
    )


@pytest.mark.parametrize("verb", [
    ("capacity", "--kind", "depolarizing"),
    ("repeater-rate", "--segments", "2", "--l0", "20km"),
])
def test_oversized_sweep_is_refused_before_it_is_built(verb):
    """10^18 points would fill memory; the count is checked before any is made."""
    out = _run_cli_process(*verb, "--sweep", "0:1e9:1e-9")
    assert out.returncode == 2
    assert f"over {SWEEP_LIMIT}" in out.stderr


def test_python_dash_m_qchan_runs_the_cli():
    argv = ("repeater-rate", "--segments", "8", "--l0", "20km", "--p0", "0.1")
    package, module = _run_cli_process(*argv, module="qchan"), _run_cli_process(*argv)
    assert package.returncode == module.returncode == 0
    assert package.stdout.startswith("F0,P0,n,Z_n,R_n,R_approx\n")
    assert package.stdout == module.stdout


def test_help_lists_every_verb(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    listed = {line.split()[0] for line in capsys.readouterr().out.splitlines() if line.strip()}
    assert {"channel-inspect", "capacity", "zero-error", "repeater-rate", "repeater-sim"} <= listed


def test_capacity_help_lists_kinds_parameters_and_measures(capsys):
    """A verb parsed alone still gets the options built from the channel and measure tables."""
    from qchan.capacity import MEASURES
    from qchan.channels import CHANNEL_KINDS

    with pytest.raises(SystemExit) as info:
        main(["capacity", "--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    flat = "".join(out.split())  # help wraps at the terminal width
    assert "--kind{" + ",".join(CHANNEL_KINDS) + "}" in flat
    assert ",".join(MEASURES) + "orall" in flat
    for row in CHANNEL_KINDS.values():
        for name in filter(None, (*row.params, row.complement)):
            assert f"--{name} {name.upper()}" in out


@pytest.mark.parametrize("argv", [["bogus"], ["capacty", "--kind", "depolarizing"]])
def test_unknown_verb_is_an_argparse_error(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert f"invalid choice: {argv[0]!r}" in capsys.readouterr().err


def test_sweep_limit_is_inclusive():
    assert len(_parse_sweep(f"0:{SWEEP_LIMIT - 1}:1")) == SWEEP_LIMIT
    with pytest.raises(InvalidParameter):
        _parse_sweep(f"0:{SWEEP_LIMIT}:1")


def test_tenth_steps_still_give_eleven_points(capsys):
    code, out, _ = run(
        capsys, "capacity", "--kind", "depolarizing", "--sweep", "0:1:0.1", "--measure", "hsw-geo"
    )
    assert code == 0
    assert [row["param"] for row in csv_rows(out)] == [str(k / 10) for k in range(11)]


def test_pure_output_entropies_print_positive_zero(capsys):
    code, out, _ = run(capsys, "capacity", "--kind", "identity", "--measure", "minent")
    assert code == 0
    (row,) = csv_rows(out)
    assert row["S_min"] == "0.0"
    code, out, _ = run(capsys, "channel-inspect", "--kind", "amplitude_damping", "--gamma", "0.3")
    assert code == 0
    assert '"min_output_entropy": 0.0,' in out
    assert math.copysign(1.0, json.loads(out)["min_output_entropy"]) == 1.0


# Malformed commands, each with the exit code it must give: 2 for invalid
# input, 1 for a request past a size limit (TooLarge). "{file}" stands for a
# file holding the given text, or a missing file when the text is None.
MALFORMED_COMMANDS = [
    (("capacity", "--kind", "depolarizing"), None, 2),
    (("capacity", "--kind", "identity", "--d", "2.7"), None, 2),
    (("capacity", "--kind", "identity", "--d", "1e9"), None, 2),
    (("capacity", "--kind", "depolarizing", "--p", "nan"), None, 2),
    (("capacity", "--kind", "depolarizing", "--p", "inf"), None, 2),
    (("capacity", "--kind", "identity", "--sweep", "0:1:0.5"), None, 2),
    (("capacity", "--kind", "mixed_erasure", "--sweep", "0:0.5:0.25"), None, 2),
    (("capacity", "--channel-file", "{file}"), '{"kind": "depolarizing", "p": "abc"}', 2),
    (("capacity", "--channel-file", "{file}"), '{"kind": "depolarizing", "p": null}', 2),
    (("capacity", "--channel-file", "{file}"), '{"kind": "depolarizing", "p": NaN}', 2),
    (("capacity", "--channel-file", "{file}"), '{"kind": "identity", "d": 2.7}', 2),
    (("capacity", "--channel-file", "{file}"), '{"kind": "identity", "d": 1000000000}', 2),
    (("capacity", "--channel-file", "{file}"), '{"kind": "depolarizing", "p": 0.2', 2),
    (("capacity", "--channel-file", "{file}"), '"kind"', 2),
    (("capacity", "--channel-file", "{file}"), None, 2),
    (("capacity", "--kind", "depolarizing", "--p", "0.2", "--seed", "-1"), None, 2),
    (("zero-error", "--kind", "dephasing", "--p", "0.3", "--seed", "-1"), None, 2),
    (("repeater-sim", "--policy", "greedy", "--target", "0.95", "--trials", "0"), None, 2),
    (("repeater-sim", "--policy", "greedy", "--target", "0.95", "--trials", "0",
      "--trace", "{file}"), "", 2),
    (("repeater-rate", "--segments", str(2**1100), "--l0", "20km"), None, 2),
    (("repeater-rate", "--segments", "1", "--l0", "abc"), None, 2),
    (("repeater-rate", "--segments", "1", "--l0", "20km", "--sweep", "a:b:c"), None, 2),
    (("repeater-sim", "--policy", "banded", "--target", "0.95", "--l0", "zz"), None, 2),
    (("capacity", "--kind", "depolarizing", "--sweep", "x:1:0.1"), None, 2),
    (("zero-error", "--graph", "pentagon", "--uses", str(10**8)), None, 1),
    (("zero-error", "--graph", "pentagon", "--p", "0.3"), None, 2),
    (("zero-error", "--graph", "{file}"), '{"labels": ["a", "b"], "edges": [["x", 1]]}', 2),
    (("zero-error", "--graph", "{file}"), '{"labels": ["a", "b"], "edges": [[0]]}', 2),
    (("zero-error", "--graph", "{file}"), '{"labels": 5}', 2),
    (("zero-error", "--graph", "{file}"), '{"labels": ["a", "b"], "edges": 7}', 2),
    (("zero-error", "--graph", "{file}"), '["a", "b"]', 2),
]


@pytest.mark.parametrize(
    "argv,text,code",
    MALFORMED_COMMANDS,
    ids=[" ".join(argv)[:60] + (f" <{text}>" if text else "") for argv, text, _ in MALFORMED_COMMANDS],
)
def test_malformed_command_exits_cleanly(capsys, tmp_path, argv, text, code):
    """No malformed command may end in a traceback: each prints one error line.

    The commands run in process through main, as python -m qchan.cli runs
    them; an exception that escapes main fails the case.
    """
    path = tmp_path / "input.json"
    if text is not None:
        path.write_text(text)
    argv = [str(path) if arg == "{file}" else arg for arg in argv]
    try:
        returncode = main(argv)
    except SystemExit as exit_:  # argparse's own exits
        returncode = exit_.code
    out, err = capsys.readouterr()
    assert returncode == code
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("capacity", "--kind", "depolarizing", "--sweep", "0:1:0.05", "--measure", "all", "--out"),
    ("repeater-sim", "--policy", "greedy", "--target", "0.95", "--trace"),
], ids=["out", "trace"])
def test_unwritable_output_path_exits_two(capsys, tmp_path, monkeypatch, argv):
    from qchan import capacity, repeater

    def unexpected(*args, **kwargs):
        raise AssertionError("the verb ran before its output path was checked")

    monkeypatch.setattr(capacity, "full_report", unexpected)
    monkeypatch.setattr(repeater, "simulate_schedule", unexpected)
    path = str(tmp_path / "missing" / "x.csv")
    code, out, err = run(capsys, *argv, path)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {path}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--out", "--trace"])
def test_failed_verb_leaves_output_paths_as_they_were(capsys, tmp_path, flag):
    kept, fresh = tmp_path / "kept.txt", tmp_path / "fresh.txt"
    kept.write_text("earlier result\n")
    for path in (kept, fresh):
        argv = ("repeater-sim", "--policy", "greedy", "--target", "0.95", "--trials", "0")
        code, out, err = run(capsys, *argv, flag, str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: --trials 0")
    assert kept.read_text() == "earlier result\n"
    assert not fresh.exists()


def test_mixed_erasure_sweep_holds_the_other_probability(capsys):
    code, out, _ = run(
        capsys, "capacity", "--kind", "mixed_erasure", "--q", "0.3", "--sweep", "0:0.5:0.25",
        "--format", "json",
    )
    assert code == 0
    reports = json.loads(out)
    assert [r["param"] for r in reports] == [0.0, 0.25, 0.5]
    assert [r["channel_label"] for r in reports][1] == "mixed_erasure(p=0.25,q=0.3)"


def test_kind_choices_come_from_the_table(capsys):
    from qchan.channels import CHANNEL_KINDS

    with pytest.raises(SystemExit):
        main(["capacity", "--kind", "bsc", "--p", "0.1"])
    for kind, row in CHANNEL_KINDS.items():
        if row.sweep is None:
            assert main(["capacity", "--kind", kind, "--sweep", "0:1:1"]) == 2
