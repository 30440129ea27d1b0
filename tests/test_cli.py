"""Tests for the command-line interface, driven in process through
``main(argv)``: outputs, determinism, config files, and exit codes."""

import csv
import json

import numpy as np
import pytest

from fairforest.cli import TRAJECTORY_COLUMNS, main
from fairforest.data import SyntheticConfig, default_schema, generate_synthetic, read_stream
from fairforest.learner import OnlineForestLearner


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
        for name in ("leaf", "reservoir", "mlp", "majority"):
            out = tmp_path / name
            assert main(run_argv(out, n=30, extra=("--baseline", name))) == 0
            summary = json.loads((out / "summary.json").read_text())
            assert summary["config"]["baseline"] == name

    def test_missing_data_file_exits_one(self, tmp_path):
        code = main([
            "run", "--data", str(tmp_path / "absent.csv"),
            "--out", str(tmp_path / "out"),
        ])
        assert code == 1

    def test_header_only_stream_exits_one(self, tmp_path):
        data = tmp_path / "empty.csv"
        data.write_text("f0,y,a\n")
        code = main(["run", "--data", str(data),
                     "--out", str(tmp_path / "out")])
        assert code == 1

    def test_bad_learner_configuration_exits_two(self, tmp_path):
        code = main(run_argv(tmp_path / "out", extra=("--height", "0")))
        assert code == 2


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

    def test_bad_weight_list_exits_two(self, tmp_path):
        assert main([
            "sweep", "--synthetic", "--lambdas", "0.1,abc",
            "--out", str(tmp_path / "out"),
        ]) == 2
        assert main([
            "sweep", "--synthetic", "--lambdas", ",",
            "--out", str(tmp_path / "out"),
        ]) == 2


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
