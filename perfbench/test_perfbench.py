"""Smoke tests of the benchmark.

Every workload runs at smoke-test size (``--quick``) in both modes and
must report exactly the metrics ``BENCHMARK.json`` declares, with their
units, and pass its own correctness gate.  An injected failing step must
fail the gate, and a directory without the program must not produce a
result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# Every workload the benchmark defines, declared or not.
WORKLOADS = ["online-small", "online-deep", "cli-multigroup", "baseline-leaf"]

# Spans that run inside OnlineForestLearner.step, reported per step.
STEP_CHILDREN = (
    "forest.gates_us", "forest.routing_us", "gradients.forward_us",
    "gradients.task_us", "gradients.fairness_us", "gradients.sum_norm_us",
    "stats.fold_us", "learner.adam_us", "learner.metrics_us",
    "baselines.leaf_fold_us", "baselines.leaf_fairness_us",
)


def bench(workload: str, trace: int, *extra: str, cwd: Path = ROOT):
    """Run the benchmark; returns (exit code, info dict, result dict)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "5", "--seconds", "0.2", "--trace", str(trace), "--quick",
         *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        return proc.returncode, None, None
    assert lines[-2].startswith("info "), proc.stdout
    return proc.returncode, json.loads(lines[-2][5:]), json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_with_its_unit(workload, trace):
    code, info, result = bench(workload, trace)
    assert code == 0, info
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert info["error_rate"] == 0.0
    assert info["blas_threads"] in (1, None)
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in declared]
    for metric in declared:
        value = metrics[metric["name"]]
        assert value["unit"] == metric["unit"]
        assert isinstance(value["value"], (int, float))
        assert math.isfinite(value["value"])
    if trace:
        assert info["absent_spans"] == []
        parts = sum(metrics[name]["value"] for name in STEP_CHILDREN)
        parts += metrics["learner.self_us"]["value"]
        assert parts == pytest.approx(metrics["learner.step_us"]["value"],
                                      rel=1e-9)
    else:
        for name in ("steps_per_s", "step_us_p50", "setup_s", "peak_rss_mb"):
            assert metrics[name]["value"] > 0


@pytest.mark.parametrize("workload,kind", [
    ("online-small", "raise"),
    ("online-small", "nan"),
    ("cli-multigroup", "raise"),
])
def test_injected_failure_fails_the_gate(workload, kind):
    code, info, result = bench(workload, 0, "--inject-failure", kind)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert info["error_rate"] > 0


def test_no_result_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, info, result = bench("online-small", 0, cwd=tmp_path)
    assert code != 0
    assert result is None


def test_missing_target_is_absent_and_its_time_stays_in_the_parent(
        monkeypatch):
    monkeypatch.syspath_prepend(str(HERE))
    import tracing

    layer = types.ModuleType("perfbench_fake_layer")
    layer.inner = lambda: time.sleep(0.01)
    layer.outer = lambda: layer.inner()
    monkeypatch.setitem(sys.modules, layer.__name__, layer)
    monkeypatch.setattr(tracing, "TARGETS", (
        ("outer", layer.__name__, "outer"),
        ("inner", layer.__name__, "inner"),
        ("gone", layer.__name__, "Renamed.method"),
    ))
    tracer = tracing.Tracer()
    tracer.install()
    layer.outer()
    tracer.remove()
    assert tracer.absent == [f"{layer.__name__}.Renamed.method"]
    assert tracer.calls == {"outer": 1, "inner": 1}
    assert (tracer.self_ns["outer"] + tracer.inclusive_ns["inner"]
            == tracer.inclusive_ns["outer"])
    assert tracer.self_ns["outer"] < tracer.inclusive_ns["inner"]

    # With the inner call renamed away, its time is the parent's self time.
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS[::2])
    renamed = tracing.Tracer()
    renamed.install()
    layer.outer()
    renamed.remove()
    assert renamed.absent == [f"{layer.__name__}.Renamed.method"]
    assert renamed.self_ns["outer"] >= 10_000_000
    assert layer.outer.__name__ == "<lambda>"  # remove() restored it
