"""Workload table shared by the benchmark and its set-up probe.

Imports nothing heavy: the set-up probe reads it before it imports the
program, so the probe's timing covers the program's imports only.
"""

from __future__ import annotations

# Every learner sees d=10 features and a penalty weight of 1.
N_FEATURES = 10
FAIRNESS_WEIGHT = 1.0

# Synthetic stream of the in-process workloads (the CLI's --bias/--noise).
STREAM_BIAS = 0.6
STREAM_NOISE = 0.1

WORKLOADS = {
    # The CLI default shape: per-call overhead and bookkeeping dominate.
    "online-small": {
        "kind": "learner", "baseline": "aranyani", "height": 4, "trees": 3,
        "fairness": "dp", "groups": 2,
        "stream": 20000, "quality_steps": 8000, "block": 200, "warmup": 200,
        "probe_steps": 300,
    },
    # The dense (T, 2^h-1, 2^h) leaf Jacobian dominates.
    "online-deep": {
        "kind": "learner", "baseline": "aranyani", "height": 10, "trees": 4,
        "fairness": "equalized_odds", "groups": 2,
        "stream": 4000, "quality_steps": 1200, "block": 20, "warmup": 10,
        "probe_steps": 30,
    },
    # CSV parsing, trajectory writing and checkpoints on the path.
    "cli-multigroup": {
        "kind": "cli", "height": 6, "trees": 4, "fairness": "multigroup",
        "groups": 4, "rows": 3000, "checkpoint_interval": 500,
        "probe_steps": 500,
    },
    # The leaf-penalty baseline and its (T, G, 2^h, m, d) store.
    "baseline-leaf": {
        "kind": "learner", "baseline": "leaf", "height": 6, "trees": 8,
        "fairness": "dp", "groups": 2,
        "stream": 8000, "quality_steps": 2000, "block": 40, "warmup": 20,
        "probe_steps": 40,
    },
}

# Sizes for the benchmark's own smoke tests (--quick): same shapes, short
# streams, so every code path runs in about a second.
QUICK = {
    "online-small": {"stream": 400, "quality_steps": 200, "block": 20,
                     "warmup": 5, "probe_steps": 20},
    "online-deep": {"stream": 40, "quality_steps": 12, "block": 4, "warmup": 2,
                    "probe_steps": 4},
    "cli-multigroup": {"rows": 500, "probe_steps": 100},
    "baseline-leaf": {"stream": 60, "quality_steps": 20, "block": 4,
                      "warmup": 2, "probe_steps": 4},
}


def spec(name: str, quick: bool = False) -> dict:
    """The workload's settings, with the smoke-test sizes when ``quick``."""
    settings = dict(WORKLOADS[name])
    if quick:
        settings.update(QUICK[name])
    return settings


def cli_argv(settings: dict, data: str, out: str, seed: int) -> list[str]:
    """Arguments of the ``fairforest run`` call of the CLI workload."""
    return [
        "run", "--data", data, "--normalize", "online",
        "--fairness", "multi", "--groups", str(settings["groups"]),
        "--height", str(settings["height"]), "--trees", str(settings["trees"]),
        "--lambda", "1", "--checkpoint-interval",
        str(settings["checkpoint_interval"]), "--seed", str(seed),
        "--out", out,
    ]


def learner_config(settings: dict, seed: int) -> dict:
    """Keyword arguments of ``LearnerConfig`` for a learner workload."""
    return {
        "n_features": N_FEATURES,
        "height": settings["height"],
        "tree_count": settings["trees"],
        "fairness": settings["fairness"],
        "fairness_weight": FAIRNESS_WEIGHT,
        "n_groups": settings["groups"],
        "seed": seed,
    }


def synthetic(n: int, seed: int) -> list[tuple]:
    """The first ``n`` instances of the in-process workloads' stream,
    from the program's own biased synthetic generator."""
    from fairforest.data import SyntheticConfig, generate_synthetic

    return list(generate_synthetic(SyntheticConfig(
        n=n, n_features=N_FEATURES, bias=STREAM_BIAS, noise=STREAM_NOISE,
        seed=seed,
    )))
