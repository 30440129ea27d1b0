"""Command-line interface: run, sweep, gradcheck, synth."""

from __future__ import annotations

import argparse
import csv
import json
import os
import resource
import sys
import time

from .baselines import BASELINE_NAMES, MajorityConfig, make_learner
from .data import (
    DatasetSchema,
    SyntheticConfig,
    generate_synthetic,
    read_stream,
)
from .errors import (
    ConfigurationError,
    DataError,
    DomainError,
    FairForestError,
    NumericalError,
    ShapeError,
)
from .learner import LearnerConfig, run_stream
from .verify import gradcheck

FAIRNESS_CHOICES = {
    "none": "none",
    "dp": "dp",
    "eo": "equalized_odds",
    "multi": "multigroup",
}

TRAJECTORY_COLUMNS = (
    "step", "y", "a", "pred", "running_accuracy", "dp_hard", "dp_soft",
    "grad_norm_total", "grad_norm_fair",
)

PROGRESS_EVERY = 1000


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _add_stream_flags(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--data", metavar="PATH",
                        help="CSV file with feature columns plus y and a")
    source.add_argument("--synthetic", action="store_true",
                        help="use the built-in biased synthetic stream")
    parser.add_argument("--n", type=int, default=5000,
                        help="synthetic stream length")
    parser.add_argument("--dim", type=int, default=10,
                        help="synthetic feature count")
    parser.add_argument("--bias", type=float, default=0.5,
                        help="synthetic group-label coupling in [0, 1]")
    parser.add_argument("--noise", type=float, default=0.0,
                        help="synthetic label flip probability")
    parser.add_argument("--sep", type=float, default=0.5,
                        help="synthetic class separation")
    parser.add_argument("--normalize", choices=["none", "online"],
                        default="none", help="feature normalization for --data")


def _add_learner_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--height", type=int, default=4, help="tree height")
    parser.add_argument("--trees", type=int, default=3, help="trees per forest")
    parser.add_argument("--lambda", dest="fairness_weight", type=float,
                        default=0.0, help="fairness penalty weight")
    parser.add_argument("--delta", dest="huber_delta", type=float, default=0.01,
                        help="Huber smoothing width")
    parser.add_argument("--fairness", choices=sorted(FAIRNESS_CHOICES),
                        default="dp", help="fairness notion")
    parser.add_argument("--groups", type=int, default=2,
                        help="number of protected groups")
    parser.add_argument("--classes", type=int, default=2,
                        help="number of task classes")
    parser.add_argument("--lr", type=float, default=2e-3, help="Adam step size")
    parser.add_argument("--baseline", choices=BASELINE_NAMES,
                        default="aranyani", help="model variant to train")
    parser.add_argument("--hidden", type=int, default=64,
                        help="hidden width of the mlp baseline")
    parser.add_argument("--majority-p", type=float, default=0.5,
                        help="model-prediction probability of the majority baseline")
    parser.add_argument("--majority-label", type=int, default=None,
                        help="fixed majority label (default: running majority)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for parameters and the synthetic stream")
    parser.add_argument("--checkpoint-interval", type=int, default=0,
                        help="write a checkpoint every N steps (0 disables)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairforest",
        description="Online fair learning with soft-routed oblique forests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="train one model over a stream")
    run.add_argument("--config", metavar="FILE",
                     help="key=value file of defaults for any long flag")
    _add_stream_flags(run)
    _add_learner_flags(run)
    run.add_argument("--out", required=True, metavar="DIR",
                     help="output directory for trajectory.csv and summary.json")

    sweep = sub.add_parser("sweep", help="run a fairness-weight sweep")
    sweep.add_argument("--config", metavar="FILE",
                       help="key=value file of defaults for any long flag")
    _add_stream_flags(sweep)
    _add_learner_flags(sweep)
    sweep.add_argument("--lambdas", required=True,
                       help="comma-separated fairness weights")
    sweep.add_argument("--out", required=True, metavar="DIR",
                       help="output directory for sweep.csv")

    grad = sub.add_parser("gradcheck",
                          help="compare analytic and numeric gradients")
    grad.add_argument("--trials", type=int, default=20)
    grad.add_argument("--seed", type=int, default=0)
    grad.add_argument("--out", metavar="FILE", default=None,
                      help="report JSON path (default: stdout)")
    grad.add_argument("--corrupt-gradients", action="store_true",
                      help=argparse.SUPPRESS)

    synth = sub.add_parser("synth", help="write a synthetic stream to CSV")
    synth.add_argument("--n", type=int, required=True)
    synth.add_argument("--dim", type=int, default=10)
    synth.add_argument("--bias", type=float, default=0.5)
    synth.add_argument("--noise", type=float, default=0.0)
    synth.add_argument("--sep", type=float, default=0.5)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out", required=True, metavar="FILE")
    return parser


def _apply_config_file(argv: list[str]) -> list[str]:
    """Expand ``--config FILE`` into flags inserted right after the
    subcommand, so explicit command-line flags keep precedence."""
    if not argv:
        return argv
    path = None
    rest = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if token == "--config":
            if i + 1 >= len(argv):
                raise ConfigurationError("--config needs a file path")
            path = argv[i + 1]
            i += 2
            continue
        if token.startswith("--config="):
            path = token.split("=", 1)[1]
            i += 1
            continue
        rest.append(token)
        i += 1
    if path is None:
        return argv
    if not os.path.exists(path):
        raise ConfigurationError(f"no such config file: {path}")
    flags: list[str] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigurationError(
                    f"{path}:{lineno}: expected key=value, got {line!r}"
                )
            key, value = line.split("=", 1)
            key = key.strip()
            value = value.strip()
            if not key:
                raise ConfigurationError(f"{path}:{lineno}: empty key")
            if value.lower() == "true":
                flags.append(f"--{key}")
            else:
                flags.extend([f"--{key}", value])
    return rest[:1] + flags + rest[1:]


def _build_stream(args):
    """Returns (stream iterator factory, n_features)."""
    if args.data:
        schema = _infer_schema(args.data, args.normalize)
        return (lambda: read_stream(args.data, schema)), schema.n_features
    cfg = SyntheticConfig(
        n=args.n, n_features=args.dim, bias=args.bias,
        separation=args.sep, noise=args.noise, seed=args.seed,
    )
    return (lambda: generate_synthetic(cfg)), cfg.n_features


def _infer_schema(path: str, normalization: str) -> DatasetSchema:
    if not os.path.exists(path):
        raise DataError(f"no such data file: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh), None)
    if header is None:
        raise DataError(f"{path}: empty file, expected a header row")
    for required in ("y", "a"):
        if required not in header:
            raise DataError(f"{path}: header is missing column {required!r}")
    features = [name for name in header if name not in ("y", "a")]
    if not features:
        raise DataError(f"{path}: no feature columns besides y and a")
    return DatasetSchema(feature_columns=features, normalization=normalization)


def _build_learner(args, n_features: int):
    config = LearnerConfig(
        n_features=n_features,
        n_outputs=args.classes,
        height=args.height,
        tree_count=args.trees,
        fairness=FAIRNESS_CHOICES[args.fairness],
        fairness_weight=args.fairness_weight,
        huber_delta=args.huber_delta,
        n_groups=args.groups,
        learning_rate=args.lr,
        seed=args.seed,
    )
    majority = None
    if args.baseline == "majority":
        if args.majority_label is not None:
            majority = MajorityConfig(p=args.majority_p, source="fixed",
                                      fixed_label=args.majority_label)
        else:
            majority = MajorityConfig(p=args.majority_p)
    return make_learner(args.baseline, config, mlp_hidden=args.hidden,
                        majority=majority), config


def _echo_config(args, config: LearnerConfig) -> dict:
    echo = config.to_dict()
    echo["baseline"] = args.baseline
    if args.baseline == "mlp":
        echo["hidden"] = args.hidden
    if args.baseline == "majority":
        echo["majority_p"] = args.majority_p
        echo["majority_label"] = args.majority_label
    if args.data:
        echo["data"] = args.data
        echo["normalize"] = args.normalize
    else:
        echo["synthetic"] = {
            "n": args.n, "dim": args.dim, "bias": args.bias,
            "noise": args.noise, "sep": args.sep, "seed": args.seed,
        }
    return echo


def _drive(learner, stream, writer, checkpoint_interval: int = 0,
           checkpoint_path: str | None = None):
    """Run the stream, writing trajectory rows; returns the last row."""
    last = None
    for row in run_stream(learner, stream):
        writer.writerow([
            row.step, row.y, row.a, row.prediction,
            _fmt(row.accuracy), _fmt(row.dp_hard), _fmt(row.dp_soft),
            _fmt(row.grad_norm_total), _fmt(row.grad_norm_fair),
        ])
        if row.step % PROGRESS_EVERY == 0:
            print(f"step {row.step}: accuracy={row.accuracy:.4f}",
                  file=sys.stderr)
        if (checkpoint_interval and checkpoint_path
                and row.step % checkpoint_interval == 0):
            learner.save_checkpoint(checkpoint_path)
        last = row
    return last


def cmd_run(args) -> int:
    if args.checkpoint_interval and args.baseline != "aranyani":
        raise ConfigurationError(
            "--checkpoint-interval is supported for the aranyani baseline only"
        )
    make_stream, n_features = _build_stream(args)
    learner, config = _build_learner(args, n_features)
    os.makedirs(args.out, exist_ok=True)
    trajectory_path = os.path.join(args.out, "trajectory.csv")
    checkpoint_path = os.path.join(args.out, "checkpoint.json")
    started = time.perf_counter()
    with open(trajectory_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRAJECTORY_COLUMNS)
        last = _drive(
            learner, make_stream(), writer,
            checkpoint_interval=args.checkpoint_interval,
            checkpoint_path=checkpoint_path,
        )
    wall = time.perf_counter() - started
    if last is None:
        raise DataError("the input stream was empty")
    summary = {
        "config": _echo_config(args, config),
        "final": {
            "steps": last.step,
            "accuracy": last.accuracy,
            "dp_hard": last.dp_hard,
            "dp_soft": last.dp_soft,
            "grad_norm_total": last.grad_norm_total,
            "grad_norm_fair": last.grad_norm_fair,
        },
        "wall_time_s": wall,
        "peak_memory_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    with open(os.path.join(args.out, "summary.json"), "w",
              encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    print(f"wrote {trajectory_path}", file=sys.stderr)
    return 0


def cmd_sweep(args) -> int:
    try:
        lambdas = sorted(float(tok) for tok in args.lambdas.split(",") if tok)
    except ValueError:
        raise ConfigurationError(
            f"--lambdas must be comma-separated numbers, got {args.lambdas!r}"
        ) from None
    if not lambdas:
        raise ConfigurationError("--lambdas must name at least one weight")
    os.makedirs(args.out, exist_ok=True)
    sweep_path = os.path.join(args.out, "sweep.csv")
    with open(sweep_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda", "final_accuracy", "final_dp_hard",
                         "final_dp_soft"])
        fh.flush()
        for weight in lambdas:
            args.fairness_weight = weight
            make_stream, n_features = _build_stream(args)
            learner, _ = _build_learner(args, n_features)
            last = None
            for row in run_stream(learner, make_stream()):
                last = row
            if last is None:
                raise DataError("the input stream was empty")
            writer.writerow([
                _fmt(weight), _fmt(last.accuracy), _fmt(last.dp_hard),
                _fmt(last.dp_soft),
            ])
            fh.flush()
            print(f"lambda={weight:g}: accuracy={last.accuracy:.4f}",
                  file=sys.stderr)
    print(f"wrote {sweep_path}", file=sys.stderr)
    return 0


def cmd_gradcheck(args) -> int:
    report = gradcheck(seed=args.seed, trials=args.trials,
                       corrupt=args.corrupt_gradients)
    text = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if not report["passed"]:
        print(
            f"gradcheck failed: max relative error "
            f"{report['max_relative_error']:.3e} exceeds {report['tolerance']:.0e}",
            file=sys.stderr,
        )
        return 3
    return 0


def cmd_synth(args) -> int:
    cfg = SyntheticConfig(
        n=args.n, n_features=args.dim, bias=args.bias,
        separation=args.sep, noise=args.noise, seed=args.seed,
    )
    parent = os.path.dirname(os.path.abspath(args.out))
    os.makedirs(parent, exist_ok=True)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(cfg.n_features)] + ["y", "a"])
        for x, y, a in generate_synthetic(cfg):
            writer.writerow([repr(float(v)) for v in x] + [y, a])
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        argv = _apply_config_file(list(argv))
        args = build_parser().parse_args(argv)
        handler = {
            "run": cmd_run,
            "sweep": cmd_sweep,
            "gradcheck": cmd_gradcheck,
            "synth": cmd_synth,
        }[args.command]
        return handler(args)
    except (DataError, DomainError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 1
    except (ConfigurationError, ShapeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except FairForestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
