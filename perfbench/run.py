"""fairforest benchmark: one workload, measured and checked in this process.

    python3 perfbench/run.py --workload online-small --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; the program is imported from ``src/``
and nowhere else.  The inputs come from ``--seed`` and are generated
before timing starts.  Each workload is a closed loop: the next instance
is sent only when the previous step returns.

With ``--trace 0`` the metrics are the end-to-end ones.  With
``--trace 1`` they are the per-layer ones, from spans recorded around the
program's calls (``tracing.py``); traced and untraced blocks alternate,
and their throughput ratio is reported as the tracing overhead.

The second-to-last stdout line is ``info`` JSON (versions, BLAS threads,
load average, sample counts, error rate, absent spans).  The last line is
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when every step and every output check passed.  See README.md.
"""

from __future__ import annotations

import os

# Pinned before numpy is first imported: BLAS pools size themselves at load.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import csv  # noqa: E402
import ctypes  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from probe import peak_rss_kib  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    N_FEATURES,
    WORKLOADS,
    cli_argv,
    learner_config,
    spec,
    synthetic,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Probes before and after the timed loop, so set-up time is sampled at two
# moments of the host's load.
PROBES_BEFORE, PROBES_AFTER = 4, 3
HOLDOUT = 256
# Held-out rows whose leaf Jacobian is counted after a traced run.
JAC_SCANS = 16
# The step that --inject-failure corrupts.
INJECT_AT = 3

END_TO_END = {
    "steps_per_s": "1/s",
    "step_us_p50": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "final_accuracy": "ratio",
}

PER_LAYER = {
    "forest.gates_us": "us",
    "forest.routing_us": "us",
    "forest.jac_bytes": "bytes",
    "forest.jac_nonzero_ratio": "ratio",
    "gradients.forward_us": "us",
    "gradients.task_us": "us",
    "gradients.fairness_us": "us",
    "gradients.sum_norm_us": "us",
    "stats.fold_us": "us",
    "stats.state_bytes": "bytes",
    "learner.step_us": "us",
    "learner.self_us": "us",
    "learner.adam_us": "us",
    "learner.metrics_us": "us",
    "learner.checkpoint_ms": "ms",
    "learner.checkpoint_bytes": "bytes",
    "data.read_us": "us",
    "cli.self_us": "us",
    "cli.trajectory_bytes": "bytes",
    "baselines.leaf_fold_us": "us",
    "baselines.leaf_fairness_us": "us",
    "baselines.leaf_state_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}

# Per-step time metrics: (metric, span, self time instead of inclusive).
STEP_SPANS = (
    ("forest.gates_us", "forest.gates", False),
    ("forest.routing_us", "forest.routing", False),
    ("gradients.forward_us", "gradients.forward", True),
    ("gradients.task_us", "gradients.task", False),
    ("gradients.fairness_us", "gradients.fairness", False),
    ("gradients.sum_norm_us", "gradients.sum_norm", False),
    ("stats.fold_us", "stats.fold", False),
    ("learner.step_us", "learner.step", False),
    ("learner.self_us", "learner.step", True),
    ("learner.adam_us", "learner.adam", False),
    ("learner.metrics_us", "learner.metrics", False),
    ("data.read_us", "data.read", False),
    ("cli.self_us", "cli.run", True),
    ("baselines.leaf_fold_us", "baselines.leaf_fold", False),
    ("baselines.leaf_fairness_us", "baselines.leaf_fairness", False),
)


class ProgramMissing(RuntimeError):
    """The checkout holds no program to measure."""


class Gate:
    """Attempted and failed steps, plus output checks that did not hold."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def step(self, ok: bool, why: str) -> None:
        self.steps(1, 0 if ok else 1, why)

    def steps(self, attempted: int, failed: int, why: str) -> None:
        if failed and self.failed < 3:
            self.problems.append(f"step {self.attempted + 1}: {why}")
        self.attempted += attempted
        self.failed += failed

    def check(self, ok: bool, why: str) -> None:
        if not ok:
            self.problems.append(why)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


# -- environment ------------------------------------------------------------


def import_program():
    """Import ``fairforest`` from this checkout's ``src/``."""
    if not (SRC / "fairforest" / "__init__.py").is_file():
        raise ProgramMissing(f"no program at {SRC / 'fairforest'}")
    sys.path.insert(0, str(SRC))
    import fairforest

    found = Path(fairforest.__file__).resolve().parent
    if found != SRC / "fairforest":
        raise ProgramMissing(f"imported fairforest from {found}, not {SRC}")


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "loadavg_1m_start": os.getloadavg()[0],
    }


def probe(name: str, seed: int, quick: bool, count: int,
          cli_paths: tuple[Path, Path] | None = None) -> list[tuple[float, float]]:
    """Run ``count`` fresh processes (``probe.py``); for each, the time
    from spawn to ready to step, in seconds, and its peak RSS, in MiB."""
    command = [sys.executable, str(HERE / "probe.py"), name, str(seed),
               "1" if quick else "0"]
    figures = []
    for index in range(count):
        extra = []
        if cli_paths is not None:
            extra = [str(cli_paths[0]), str(cli_paths[1] / f"probe-{index}")]
        start = time.perf_counter()
        with subprocess.Popen(command + extra, stdout=subprocess.PIPE,
                              cwd=ROOT) as proc:
            ready = proc.stdout.readline()
            seconds = time.perf_counter() - start
            peak = proc.stdout.read()
            code = proc.wait(timeout=120)
        if ready.strip() != b"ready" or code != 0:
            raise RuntimeError(f"probe for {name} exited with {code}")
        figures.append((seconds, int(peak) / 1024))
    return figures


# -- inputs -------------------------------------------------------------------


def holdout_seed(seed: int) -> int:
    return seed + 7_919


def multigroup(n: int, seed: int, groups: int):
    """A stream whose label prevalence rises with the group index and whose
    last half of the features mark the group: ``(x, y, a)`` arrays."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, groups, size=n)
    y = (rng.random(n) < 0.2 + 0.6 * a / (groups - 1)).astype(np.int64)
    x = rng.standard_normal((n, N_FEATURES))
    half = N_FEATURES // 2
    x[:, :half] += 0.5 * (2 * y - 1)[:, None]
    x[:, half:] += 0.5 * a[:, None]
    return x, y, a


def write_csv(path: Path, x: np.ndarray, y: np.ndarray, a: np.ndarray) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(x.shape[1])] + ["y", "a"])
        for row, label, group in zip(x, y, a):
            writer.writerow([repr(float(v)) for v in row] + [int(label), int(group)])


# -- checks -------------------------------------------------------------------


def step_problem(prediction, snap, n_outputs: int) -> str:
    """Why one step's output is invalid, or '' when it is valid."""
    if not isinstance(prediction, (int, np.integer)) or not 0 <= prediction < n_outputs:
        return f"prediction {prediction!r} is not a class"
    for field in dataclasses.fields(snap):
        value = getattr(snap, field.name)
        if value is not None and not math.isfinite(value):
            return f"snapshot {field.name}={value!r}"
    return ""


def holdout_disagreements(learner, features: np.ndarray) -> int:
    """Held-out rows where ``forward_batch`` and ``predict`` pick different
    classes, not counting near-ties of the batch output."""
    from fairforest.forest import forward_batch

    outputs = forward_batch(learner.forest, features, learner.mask)
    count = 0
    for x, out in zip(features, outputs):
        top2 = np.sort(out)[-2:]
        if learner.predict(x) != int(np.argmax(out)) and top2[1] - top2[0] > 1e-9:
            count += 1
    return count


def array_bytes(obj) -> int:
    """Bytes held in the numpy arrays among an object's attributes."""
    if obj is None:
        return 0
    return sum(v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray))


def file_bytes(path: Path) -> int:
    return path.stat().st_size if path.exists() else 0


def inject_failure(kind: str) -> None:
    """Make step INJECT_AT raise, or return a non-finite snapshot."""
    from fairforest.errors import NumericalError
    from fairforest.learner import OnlineForestLearner

    original = OnlineForestLearner.step
    calls = [0]

    def step(self, x, y, a):
        calls[0] += 1
        if calls[0] != INJECT_AT:
            return original(self, x, y, a)
        if kind == "raise":
            raise NumericalError("injected failure")
        prediction, snap = original(self, x, y, a)
        return prediction, dataclasses.replace(snap, grad_norm_total=math.nan)

    OnlineForestLearner.step = step


# -- tracing ------------------------------------------------------------------


def jacobian_counts(learner, features: np.ndarray, absent: list[str]) -> dict:
    """Size and nonzero share of the leaf Jacobian that the forward pass
    builds, over the first JAC_SCANS held-out rows; 0 and listed in
    ``absent`` when the forward pass no longer keeps one."""
    import fairforest.gradients as gradients

    nbytes = nonzero = size = 0
    forward = getattr(gradients, "_ForwardCache", None)
    if learner is not None and forward is not None:
        for x in features[:JAC_SCANS]:
            jac = getattr(forward(learner.forest, x, learner.mask), "leaf_jac", None)
            if jac is None:
                break
            nbytes = jac.nbytes
            nonzero += int(np.count_nonzero(jac))
            size += jac.size
    if not size:
        absent.append("fairforest.gradients._ForwardCache.leaf_jac")
    return {"forest.jac_bytes": nbytes,
            "forest.jac_nonzero_ratio": nonzero / size if size else 0.0}


def layer_metrics(tracer: Tracer, rows: int, overhead: float,
                  counts: dict) -> tuple[dict, list[str]]:
    """Per-layer values (means per step or per row) and the unreached ones."""
    rows = max(rows, 1)
    values = {}
    for metric, span, own in STEP_SPANS:
        total = (tracer.self_ns if own else tracer.inclusive_ns).get(span, 0)
        values[metric] = total / rows / 1e3
    checkpoints = tracer.calls.get("learner.checkpoint", 0)
    values["learner.checkpoint_ms"] = (
        tracer.inclusive_ns["learner.checkpoint"] / checkpoints / 1e6
        if checkpoints else 0.0
    )
    values.update(counts)
    values["trace.overhead_ratio"] = overhead
    unreached = sorted(name for name, value in values.items() if not value)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in PER_LAYER.items()}
    return metrics, unreached


# -- workloads ----------------------------------------------------------------


def run_learner(name: str, settings: dict, seed: int, seconds: float,
                trace: bool, quick: bool, gate: Gate, info: dict) -> dict:
    from fairforest.baselines import make_learner
    from fairforest.learner import LearnerConfig

    stream = synthetic(settings["stream"], seed)
    holdout = np.array([x for x, _, _ in synthetic(HOLDOUT, holdout_seed(seed))])
    probes = [] if trace else probe(name, seed, quick,
                                    1 if quick else PROBES_BEFORE)
    learner = make_learner(settings["baseline"],
                           LearnerConfig(**learner_config(settings, seed)))
    n_outputs = learner.config.n_outputs
    block, quality_steps = settings["block"], settings["quality_steps"]
    tracer = Tracer() if trace else None
    period = 2 * block if trace else block
    durations = []
    quality = None
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        if tracer is not None and index % block == 0:
            if (index // block) % 2:
                tracer.install()
            else:
                tracer.remove()
        x, y, a = stream[index % len(stream)]
        start = time.perf_counter_ns()
        try:
            prediction, snap = learner.step(x, y, a)
        except Exception as exc:  # a failed step is counted, not fatal
            elapsed = math.nan
            why = "".join(traceback.format_exception_only(exc)).strip()
        else:
            elapsed = time.perf_counter_ns() - start
            why = step_problem(prediction, snap, n_outputs)
        gate.step(not why, why)
        durations.append(math.nan if why else elapsed)
        index += 1
        if index == quality_steps:
            quality = (learner.metrics.accuracy, learner.metrics.dp_hard)
        if (index % period == 0 and index >= quality_steps
                and time.perf_counter() >= deadline):
            break
    if tracer is not None:
        tracer.remove()
    info["bench_peak_rss_mb"] = peak_rss_kib() / 1024
    gate.check(holdout_disagreements(learner, holdout) == 0,
               "forward_batch and predict disagree on held-out rows")

    first = -(-settings["warmup"] // block)
    blocks = np.array(durations, dtype=np.float64)
    blocks = blocks[: len(blocks) // block * block].reshape(-1, block)[first:]
    if trace:
        rates = block_rates(blocks)
        traced = (np.arange(first, first + len(blocks)) % 2).astype(bool)
        overhead = float(np.median(rates[traced]) / np.median(rates[~traced]))
        counts = {
            **jacobian_counts(learner, holdout, tracer.absent),
            "stats.state_bytes": array_bytes(learner.store),
            "baselines.leaf_state_bytes": array_bytes(
                getattr(learner, "leaf_store", None)),
            "learner.checkpoint_bytes": 0,
            "cli.trajectory_bytes": 0,
        }
        metrics, info["unreached"] = layer_metrics(
            tracer, tracer.calls["learner.step"], overhead, counts)
        info["absent_spans"] = tracer.absent
        return metrics
    if not quick:
        probes += probe(name, seed, quick, PROBES_AFTER)
    return end_to_end(blocks, probes, quality, gate, info)


def trajectory_row(record: list[str], step: int) -> list | None:
    """The metric values of one trajectory row, or None if it is invalid:
    wrong step, a prediction that is not a class, or a value that is
    non-finite or missing where it is always defined."""
    try:
        values = [None if cell == "" else float(cell) for cell in record[4:]]
        ok = (int(record[0]) == step and 0 <= int(record[3]) < 2
              and len(values) == 5 and None not in (values[0], *values[3:])
              and all(v is None or math.isfinite(v) for v in values))
    except (ValueError, IndexError):
        return None
    return values if ok else None


def check_cli_output(out: Path, rows: int, gate: Gate) -> dict | None:
    """Count the trajectory's rows into ``gate``; return summary's final
    values if they match the last trajectory row."""
    valid, last = 0, None
    trajectory = out / "trajectory.csv"
    if trajectory.exists():
        with open(trajectory, newline="", encoding="utf-8") as fh:
            records = list(csv.reader(fh))[1:]
        for step, record in enumerate(records, start=1):
            last = trajectory_row(record, step)
            valid += last is not None
    gate.steps(rows, rows - valid, "trajectory row missing or invalid")
    summary_path = out / "summary.json"
    if valid != rows or last is None or not summary_path.exists():
        return None
    with open(summary_path, encoding="utf-8") as fh:
        final = json.load(fh)["final"]
    keys = ("accuracy", "dp_hard", "dp_soft", "grad_norm_total", "grad_norm_fair")
    matches = final["steps"] == rows and all(
        final[key] == value for key, value in zip(keys, last))
    gate.check(matches, "summary.json final values differ from the last trajectory row")
    return final


def run_cli(name: str, settings: dict, seed: int, seconds: float, trace: bool,
            quick: bool, gate: Gate, info: dict) -> dict:
    import fairforest.cli as cli
    from fairforest.learner import OnlineForestLearner

    rows = settings["rows"]
    work = OUT / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        data, prefix, out = work / "stream.csv", work / "prefix.csv", work / "run"
        x, y, a = multigroup(rows, seed, settings["groups"])
        write_csv(data, x, y, a)
        head = settings["probe_steps"]
        write_csv(prefix, x[:head], y[:head], a[:head])
        holdout = multigroup(HOLDOUT, holdout_seed(seed), settings["groups"])[0]
        probes = [] if trace else probe(name, seed, quick,
                                        1 if quick else PROBES_BEFORE,
                                        (prefix, work))
        argv = cli_argv(settings, str(data), str(out), seed)
        tracer = Tracer() if trace else None
        intervals: list[int] = []
        original_run_stream = cli.run_stream

        def timed_run_stream(learner, stream):
            # A row's interval runs until the CLI asks for the next row, so
            # it holds reading and stepping the row, writing its trajectory
            # line and the checkpoint that follows it, if any.
            last = time.perf_counter_ns()
            for row in original_run_stream(learner, stream):
                yield row
                now = time.perf_counter_ns()
                intervals.append(now - last)
                last = now

        rates, traced_calls, first_final = [], [], None
        deadline = time.perf_counter() + seconds
        while True:
            traced = tracer is not None and len(rates) % 2 == 1
            if traced:
                tracer.install()
            elif tracer is None:
                cli.run_stream = timed_run_stream
            start = time.perf_counter_ns()
            try:
                code = cli.main(argv)
            except Exception as exc:  # a crash fails the gate, not the run
                code = "".join(traceback.format_exception_only(exc)).strip()
            finally:
                elapsed = time.perf_counter_ns() - start
                cli.run_stream = original_run_stream
                if tracer is not None:
                    tracer.remove()
            gate.check(code == 0, f"fairforest run exited with {code}")
            final = check_cli_output(out, rows, gate)
            if first_final is None:
                first_final = final
            gate.check(final == first_final, "a rerun gave other final values")
            rates.append(rows * 1e9 / elapsed)
            traced_calls.append(traced)
            if (time.perf_counter() >= deadline
                    and (tracer is None or len(rates) % 2 == 0)):
                break
        info["bench_peak_rss_mb"] = peak_rss_kib() / 1024

        checkpoint = out / "checkpoint.json"
        restored = None
        if checkpoint.exists():
            restored = OnlineForestLearner.load_checkpoint(checkpoint)
            gate.check(holdout_disagreements(restored, holdout) == 0,
                       "forward_batch and predict disagree on held-out rows")
            gate.check(
                first_final is not None
                and restored.step_count == rows
                and restored.metrics.accuracy == first_final["accuracy"]
                and restored.metrics.dp_hard == first_final["dp_hard"],
                "the last checkpoint is not the final state")
        else:
            gate.check(False, "no checkpoint was written")
        if trace:
            traced = np.array(traced_calls)
            rates = np.array(rates)
            overhead = float(np.median(rates[traced]) / np.median(rates[~traced]))
            counts = {
                **jacobian_counts(restored, holdout, tracer.absent),
                "stats.state_bytes": array_bytes(restored and restored.store),
                "baselines.leaf_state_bytes": 0,
                "learner.checkpoint_bytes": file_bytes(checkpoint),
                "cli.trajectory_bytes": file_bytes(out / "trajectory.csv"),
            }
            metrics, info["unreached"] = layer_metrics(
                tracer, rows * int(traced.sum()), overhead, counts)
            info["absent_spans"] = tracer.absent
            return metrics
        quality = None if first_final is None else (
            first_final["accuracy"], first_final["dp_hard"])
        # Blocks of one checkpoint interval; each run's rows are a whole
        # number of them, so every block ends with its checkpoint.
        block = settings["checkpoint_interval"]
        blocks = np.array(intervals[: len(intervals) // block * block],
                          dtype=np.float64).reshape(-1, block)
        if not quick:
            probes += probe(name, seed, quick, PROBES_AFTER, (prefix, work))
        return end_to_end(blocks, probes, quality, gate, info)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def block_rates(blocks: np.ndarray) -> np.ndarray:
    """Steps per second of each block of per-step nanoseconds (NaN = failed)."""
    return np.isfinite(blocks).sum(axis=1) * 1e9 / np.nansum(blocks, axis=1)


def end_to_end(blocks: np.ndarray, probes: list, quality, gate: Gate,
               info: dict) -> dict:
    """End-to-end metrics from per-step times in blocks of consecutive steps.

    On a shared VM the speed swings by a third over a few seconds, so the
    timing metrics describe the run's quieter stretches: throughput is the
    95th percentile over blocks, and the median latency is taken over the
    steps of the fastest tenth of blocks.  Medians and tails over all
    steps go to the info line.

    ``probes`` holds (set-up seconds, peak RSS MiB) per probe process.
    Set-up time is their median.  Peak RSS is their highest, because at
    h=10 glibc keeps either one or two 33.5 MB Jacobian buffers resident,
    at random from one process to the next, and a median over a few
    processes would flip between the two.
    """
    gate.check(quality is not None and quality[1] is not None,
               "no quality figures at the quality step")
    accuracy, info["final_dp_gap"] = quality if quality else (0.0, None)
    rates = block_rates(blocks)
    quiet = blocks[rates >= np.percentile(rates, 90)] / 1e3
    steps = blocks[np.isfinite(blocks)] / 1e3
    info["samples"] = int(steps.size)
    info["quiet_samples"] = int(np.isfinite(quiet).sum())
    info["step_us_p50_all"] = float(np.percentile(steps, 50))
    info["step_us_p99_all"] = float(np.percentile(steps, 99))
    info["setup_s_probes"] = [round(seconds, 4) for seconds, _ in probes]
    values = {
        "steps_per_s": float(np.percentile(rates, 95)),
        "step_us_p50": float(np.nanmedian(quiet)),
        "setup_s": statistics.median(seconds for seconds, _ in probes),
        "peak_rss_mb": max(peak for _, peak in probes),
        "final_accuracy": accuracy,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()}


# -- entry point --------------------------------------------------------------


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="smoke-test sizes: short streams, one probe")
    parser.add_argument("--inject-failure", choices=("raise", "nan"),
                        help=f"corrupt step {INJECT_AT}, to show the gate fails")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        import_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if args.inject_failure:
        inject_failure(args.inject_failure)
    settings = spec(args.workload, quick=args.quick)
    gate = Gate()
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            **environment()}
    runner = run_cli if settings["kind"] == "cli" else run_learner
    metrics = runner(args.workload, settings, args.seed, args.seconds,
                     bool(args.trace), args.quick, gate, info)
    info["loadavg_1m_end"] = os.getloadavg()[0]
    info["error_rate"] = gate.failed / max(gate.attempted, 1)
    info["problems"] = gate.problems
    print("info " + json.dumps(info))
    print(json.dumps({
        "correct": gate.correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }))
    return 0 if gate.correct else 1


if __name__ == "__main__":
    sys.exit(main())
