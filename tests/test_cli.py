"""Tests for the command-line interface, driven in process through
``main(argv)``: outputs, determinism, config files, and exit codes."""

import csv
import json

import numpy as np
import pytest

from fairforest.cli import TRAJECTORY_COLUMNS, main
from fairforest.data import SyntheticConfig, generate_synthetic, read_stream
from fairforest.learner import OnlineForestLearner
from oracles import default_schema


def run_argv(out_dir, n=60, extra=()):
    return [
        "run", "--synthetic", "--n", str(n), "--dim", "4",
        "--bias", "0.6", "--seed", "3", "--out", str(out_dir), *extra,
    ]


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class TestRun:
    """The single-run subcommand."""

    def test_writes_trajectory_and_summary(self, tmp_path):
        out = tmp_path / "out"
        assert main(run_argv(out)) == 0
        rows = read_rows(out / "trajectory.csv")
        assert tuple(rows[0]) == TRAJECTORY_COLUMNS
        assert len(rows) == 61
        summary = json.loads((out / "summary.json").read_text())
        assert summary["final"]["steps"] == 60
        assert summary["config"]["baseline"] == "aranyani"
        assert summary["config"]["height"] == 4
        assert summary["config"]["synthetic"]["n"] == 60
        assert summary["wall_time_s"] > 0

    def test_reruns_are_byte_identical(self, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        assert main(run_argv(first)) == 0
        assert main(run_argv(second)) == 0
        assert (first / "trajectory.csv").read_bytes() == (
            second / "trajectory.csv"
        ).read_bytes()

    def test_emitted_metrics_recompute_from_the_rows(self, tmp_path):
        """Running accuracy and the hard parity gap can be rebuilt from the
        raw (y, a, pred) columns of the trajectory itself."""
        out = tmp_path / "out"
        assert main(run_argv(out, extra=("--lambda", "0.5"))) == 0
        rows = read_rows(out / "trajectory.csv")[1:]
        hits = 0
        group_n = {0: 0, 1: 0}
        group_pred = {0: 0, 1: 0}
        for i, row in enumerate(rows, start=1):
            step, y, a, pred = (int(v) for v in row[:4])
            assert step == i
            hits += pred == y
            group_n[a] += 1
            group_pred[a] += pred
            assert abs(float(row[4]) - hits / i) < 1e-12
            if group_n[0] and group_n[1]:
                dp = abs(
                    group_pred[0] / group_n[0] - group_pred[1] / group_n[1]
                )
                assert abs(float(row[5]) - dp) < 1e-9
            else:
                assert row[5] == ""

    def test_summary_final_matches_last_row(self, tmp_path):
        out = tmp_path / "out"
        assert main(run_argv(out)) == 0
        last = read_rows(out / "trajectory.csv")[-1]
        final = json.loads((out / "summary.json").read_text())["final"]
        assert float(last[4]) == final["accuracy"]
        assert float(last[5]) == final["dp_hard"]
        assert float(last[7]) == final["grad_norm_total"]

    def test_csv_stream_reproduces_the_synthetic_run(self, tmp_path):
        """Writing the stream to CSV and training from the file gives the
        same trajectory as training from the generator directly."""
        data = tmp_path / "stream.csv"
        assert main([
            "synth", "--n", "50", "--dim", "4", "--bias", "0.6",
            "--seed", "3", "--out", str(data),
        ]) == 0
        from_file = tmp_path / "from_file"
        from_gen = tmp_path / "from_gen"
        assert main([
            "run", "--data", str(data), "--seed", "3",
            "--out", str(from_file),
        ]) == 0
        assert main(run_argv(from_gen, n=50)) == 0
        assert (from_file / "trajectory.csv").read_bytes() == (
            from_gen / "trajectory.csv"
        ).read_bytes()

    def test_checkpoint_interval_writes_resumable_state(self, tmp_path):
        out = tmp_path / "out"
        assert main(run_argv(out, n=50,
                             extra=("--checkpoint-interval", "20"))) == 0
        learner = OnlineForestLearner.load_checkpoint(out / "checkpoint.json")
        assert learner.step_count == 40  # last multiple of 20 within 50

    def test_negative_checkpoint_interval_exits_two(self, tmp_path):
        """A negative interval is refused before anything is written (it
        used to checkpoint every |N| steps, Python's ``%`` taking the
        divisor's sign); 0 is accepted and writes no checkpoint."""
        out = tmp_path / "refused"
        assert main(run_argv(out, n=50,
                             extra=("--checkpoint-interval", "-10"))) == 2
        assert not out.exists()
        out = tmp_path / "disabled"
        assert main(run_argv(out, n=50,
                             extra=("--checkpoint-interval", "0"))) == 0
        assert (out / "trajectory.csv").exists()
        assert not (out / "checkpoint.json").exists()

    def test_checkpoint_interval_needs_the_main_learner(self, tmp_path):
        """Every other baseline is refused before any row is written."""
        for name in ("leaf", "reservoir", "mlp", "majority"):
            out = tmp_path / name
            code = main(run_argv(out, extra=(
                "--baseline", name, "--checkpoint-interval", "10",
            )))
            assert code == 2, name
            assert not (out / "trajectory.csv").exists(), name

    def test_every_baseline_runs(self, tmp_path):
        """Every baseline runs with the default flags, and with a penalty
        under the class-conditioned and the multigroup notions."""
        for name in ("leaf", "reservoir", "mlp", "majority"):
            for notion in ((), ("--fairness", "eo", "--lambda", "1"),
                           ("--fairness", "multi", "--lambda", "1")):
                out = tmp_path / "-".join((name, *notion))
                code = main(run_argv(out, n=30, extra=("--baseline", name,
                                                       *notion)))
                assert code == 0, (name, notion)
                summary = json.loads((out / "summary.json").read_text())
                assert summary["config"]["baseline"] == name

    def test_missing_data_file_exits_one(self, tmp_path):
        code = main([
            "run", "--data", str(tmp_path / "absent.csv"),
            "--out", str(tmp_path / "out"),
        ])
        assert code == 1

    def test_header_naming_a_column_twice_exits_one(self, tmp_path, capsys):
        """With header ``f0,y,f1,a,y`` the run used to train on the last
        ``y`` column; it now exits 1 before a row is written, naming the
        column."""
        data = tmp_path / "twice.csv"
        data.write_text("f0,y,f1,a,y\n0.5,1,0.25,0,1\n1.5,0,0.75,1,1\n")
        out = tmp_path / "out"
        assert main(["run", "--data", str(data), "--out", str(out)]) == 1
        assert "['y']" in capsys.readouterr().err
        assert not (out / "trajectory.csv").exists()

    def test_header_only_stream_exits_one(self, tmp_path):
        data = tmp_path / "empty.csv"
        data.write_text("f0,y,a\n")
        code = main(["run", "--data", str(data),
                     "--out", str(tmp_path / "out")])
        assert code == 1

    def test_bad_learner_configuration_exits_two(self, tmp_path):
        code = main(run_argv(tmp_path / "out", extra=("--height", "0")))
        assert code == 2

    def test_online_normalization_needs_a_data_file(self, tmp_path):
        """The synthetic stream is never normalized, so ``--normalize
        online`` without ``--data`` is refused before anything is
        written, by ``run`` and by ``sweep``."""
        out = tmp_path / "out"
        assert main(run_argv(out, extra=("--normalize", "online"))) == 2
        assert main(["sweep", "--synthetic", "--n", "30", "--lambdas", "0",
                     "--normalize", "online", "--out", str(out)]) == 2
        assert not out.exists()

    def test_majority_label_outside_the_classes_exits_two(self, tmp_path):
        out = tmp_path / "out"
        code = main(run_argv(out, extra=("--baseline", "majority",
                                          "--majority-label", "5")))
        assert code == 2
        assert not (out / "trajectory.csv").exists()

    @pytest.mark.parametrize("baseline, flags", [
        (None, ("--majority-p", "1.5", "--hidden", "0")),
        (None, ("--hidden", "64")),
        ("mlp", ("--majority-label", "1")),
        ("majority", ("--hidden", "8")),
        ("leaf", ("--majority-p", "0.5")),
    ], ids=["aranyani-both", "aranyani-hidden", "mlp-label",
            "majority-hidden", "leaf-p"])
    def test_baseline_flag_under_another_baseline_exits_two(
            self, tmp_path, capsys, baseline, flags):
        """``--hidden``, ``--majority-p`` and ``--majority-label`` have no
        default: given under a baseline that does not read them, the run
        exits 2 before a row is written and names the flag, for ``run``
        and for ``sweep``."""
        out = tmp_path / "out"
        chosen = () if baseline is None else ("--baseline", baseline)
        assert main(run_argv(out, extra=(*chosen, *flags))) == 2
        assert not (out / "trajectory.csv").exists()
        err = capsys.readouterr().err
        for flag in flags[::2]:
            assert flag in err
        assert main(["sweep", "--synthetic", "--n", "30", "--lambdas", "0",
                     *chosen, *flags, "--out", str(out)]) == 2

    def test_baseline_flags_apply_to_their_baseline(self, tmp_path):
        """Under the baseline that reads them the flags are accepted, and
        ``summary.json`` echoes the values in force, defaults included."""
        runs = {
            "mlp": (("--hidden", "8"), {"hidden": 8}),
            "majority": (("--majority-p", "0.25", "--majority-label", "1"),
                         {"majority_p": 0.25, "majority_label": 1}),
            "mlp-default": ((), {"hidden": 64}),
            "majority-default": ((), {"majority_p": 0.5,
                                      "majority_label": None}),
        }
        for name, (flags, echoed) in runs.items():
            out = tmp_path / name
            baseline = name.split("-")[0]
            assert main(run_argv(out, n=30, extra=("--baseline", baseline,
                                                   *flags))) == 0, name
            config = json.loads((out / "summary.json").read_text())["config"]
            assert {key: config[key] for key in echoed} == echoed, name


class TestSweep:
    """The fairness-weight sweep subcommand."""

    def test_single_weight_matches_run(self, tmp_path):
        sweep_out = tmp_path / "sweep"
        run_out = tmp_path / "run"
        assert main([
            "sweep", "--synthetic", "--n", "60", "--dim", "4",
            "--bias", "0.6", "--seed", "3", "--lambdas", "0.5",
            "--out", str(sweep_out),
        ]) == 0
        assert main(run_argv(run_out, extra=("--lambda", "0.5"))) == 0
        header, row = read_rows(sweep_out / "sweep.csv")
        assert header == ["lambda", "final_accuracy", "final_dp_hard",
                          "final_dp_soft"]
        final = json.loads((run_out / "summary.json").read_text())["final"]
        assert float(row[1]) == final["accuracy"]
        assert float(row[2]) == final["dp_hard"]
        assert float(row[3]) == final["dp_soft"]

    def test_rows_are_ordered_by_weight(self, tmp_path):
        out = tmp_path / "sweep"
        assert main([
            "sweep", "--synthetic", "--n", "30", "--dim", "4",
            "--lambdas", "1,0,0.5", "--out", str(out),
        ]) == 0
        rows = read_rows(out / "sweep.csv")[1:]
        assert [float(r[0]) for r in rows] == [0.0, 0.5, 1.0]

    def test_duplicate_weights_give_identical_rows(self, tmp_path):
        out = tmp_path / "sweep"
        assert main([
            "sweep", "--synthetic", "--n", "30", "--dim", "4",
            "--lambdas", "0.5,0.5", "--out", str(out),
        ]) == 0
        rows = read_rows(out / "sweep.csv")[1:]
        assert rows[0][1:] == rows[1][1:]

    def test_checkpoint_interval_is_refused(self, tmp_path):
        """A sweep writes no checkpoint, so it has no
        ``--checkpoint-interval`` flag: argparse exits 2."""
        out = tmp_path / "sweep"
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "--synthetic", "--n", "30", "--lambdas", "0",
                  "--checkpoint-interval", "10", "--out", str(out)])
        assert exit_info.value.code == 2
        assert not out.exists()

    def test_bad_weight_list_exits_two(self, tmp_path):
        assert main([
            "sweep", "--synthetic", "--lambdas", "0.1,abc",
            "--out", str(tmp_path / "out"),
        ]) == 2
        assert main([
            "sweep", "--synthetic", "--lambdas", ",",
            "--out", str(tmp_path / "out"),
        ]) == 2

    @pytest.mark.parametrize("weights", ["0.5,nan", "0.5,-1", "inf", "-0.5"])
    def test_negative_or_non_finite_weight_exits_two_before_training(
            self, tmp_path, weights):
        """Every weight is checked before ``--out`` is created, so no
        weight is trained and no partial ``sweep.csv`` is left behind."""
        out = tmp_path / "sweep"
        assert main(["sweep", "--synthetic", "--n", "30", "--lambdas",
                     weights, "--out", str(out)]) == 2
        assert not out.exists()


class TestGradcheck:
    """The gradient-checking subcommand."""

    def test_report_to_file(self, tmp_path):
        report_path = tmp_path / "report.json"
        assert main([
            "gradcheck", "--trials", "5", "--out", str(report_path),
        ]) == 0
        report = json.loads(report_path.read_text())
        assert report["passed"]
        assert report["trials"] == 5
        assert report["max_relative_error"] <= 1e-4

    def test_report_to_stdout(self, capsys):
        assert main(["gradcheck", "--trials", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"]

    def test_corrupted_gradients_exit_three(self, tmp_path):
        code = main([
            "gradcheck", "--trials", "3", "--corrupt-gradients",
            "--out", str(tmp_path / "report.json"),
        ])
        assert code == 3
        report = json.loads((tmp_path / "report.json").read_text())
        assert not report["passed"]


class TestSynth:
    """The stream-materializing subcommand."""

    def test_round_trips_through_the_reader(self, tmp_path):
        path = tmp_path / "stream.csv"
        assert main([
            "synth", "--n", "40", "--dim", "3", "--bias", "0.7",
            "--noise", "0.1", "--seed", "11", "--out", str(path),
        ]) == 0
        direct = list(generate_synthetic(SyntheticConfig(
            n=40, n_features=3, bias=0.7, noise=0.1, seed=11,
        )))
        loaded = list(read_stream(path, default_schema(3)))
        assert len(loaded) == 40
        for (x1, y1, a1), (x2, y2, a2) in zip(direct, loaded):
            np.testing.assert_array_equal(x1, x2)
            assert (y1, a1) == (y2, a2)

    def test_bad_parameters_exit_two(self, tmp_path):
        assert main([
            "synth", "--n", "10", "--bias", "1.5",
            "--out", str(tmp_path / "s.csv"),
        ]) == 2


class TestConfigFile:
    """key=value defaults expanded behind explicit flags."""

    def test_config_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# defaults for the experiment\n"
            "synthetic = true\n"
            "n = 30\n"
            "dim = 4\n"
            "height = 2\n"
            "lambda = 0.5\n"
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["height"] == 2
        assert summary["config"]["fairness_weight"] == 0.5
        assert summary["final"]["steps"] == 30

    def test_explicit_flags_beat_the_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("synthetic = true\nn = 30\ndim = 4\nheight = 2\n")
        out = tmp_path / "out"
        assert main([
            "run", "--config", str(cfg), "--height", "3", "--out", str(out),
        ]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["height"] == 3

    def test_false_leaves_a_boolean_flag_unset(self, tmp_path):
        """``synthetic = false`` used to become ``--synthetic false``
        (exit 2); it now leaves ``--synthetic`` unset, so a ``--data``
        run goes ahead, and ``true`` on a flag given explicitly changes
        nothing."""
        data = tmp_path / "stream.csv"
        assert main(["synth", "--n", "30", "--dim", "4",
                     "--out", str(data)]) == 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text("synthetic = False\nheight = 2\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--data", str(data),
                     "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["data"] == str(data)
        assert summary["final"]["steps"] == 30
        cfg.write_text("synthetic = false\nn = 30\ndim = 4\n")
        assert main(["run", "--config", str(cfg), "--synthetic",
                     "--out", str(tmp_path / "synthetic")]) == 0

    @pytest.mark.parametrize("line", ["height = false", "lambda = True",
                                      "synthetic = yes"])
    def test_boolean_value_of_the_wrong_kind_exits_two(self, tmp_path,
                                                      capsys, line):
        """``true``/``false`` on a flag that takes a value, or another
        value on a switch, is refused with the file and line instead of
        being dropped or passed on."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"n = 30\n{line}\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--synthetic",
                     "--out", str(out)]) == 2
        assert f"{cfg}:2:" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_file_exits_two(self, tmp_path):
        assert main([
            "run", "--config", str(tmp_path / "absent.cfg"),
            "--synthetic", "--out", str(tmp_path / "out"),
        ]) == 2

    def test_malformed_config_line_exits_two(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("synthetic\n")
        assert main([
            "run", "--config", str(cfg), "--out", str(tmp_path / "out"),
        ]) == 2

    def test_nested_config_line_exits_two(self, tmp_path, capsys):
        """A ``config`` key in a config file used to be dropped without a
        word, so the run kept the height the nested file changed; it is
        refused with the file and line."""
        inner = tmp_path / "inner.cfg"
        inner.write_text("height = 3\n")
        cfg = tmp_path / "outer.cfg"
        cfg.write_text(f"synthetic = true\nn = 30\nconfig = {inner}\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"{cfg}:3:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("second", ["--config", "--config="])
    def test_second_config_flag_exits_two(self, tmp_path, capsys, second):
        """A second ``--config`` used to replace the first, dropping its
        ``synthetic = true``; it is refused, naming both files."""
        first = tmp_path / "a.cfg"
        first.write_text("synthetic = true\nn = 30\n")
        other = tmp_path / "inner.cfg"
        other.write_text("height = 3\n")
        tail = ([second, str(other)] if second == "--config"
                else [f"{second}{other}"])
        out = tmp_path / "out"
        assert main(["run", "--config", str(first), *tail,
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "--config given twice" in err
        assert str(first) in err and str(other) in err
        assert not out.exists()
