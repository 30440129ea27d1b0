"""Online learning loop: predict, observe, update.

Every arriving instance is handled in a fixed order: predict from the
current parameters, fold the outcome into the running metrics, feed the
gate statistics to the aggregate store, assemble the total gradient, and
take one Adam step.  The loop is fully deterministic given the seed, the
configuration, and the instance stream.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from dataclasses import asdict, dataclass, fields
from typing import Iterable, Iterator

import numpy as np

from .errors import (
    ConfigurationError,
    DataError,
    DomainError,
    FairForestError,
    ShapeError,
)
from .forest import ObliqueForest, _block_views, predict as predict_class
from .gradients import (
    ForestGradient,
    HuberPenalty,
    _ForwardCache,
    _task_gradient_cached,
    fairness_gradient,
    gradient_norm,
    total_gradient,
)
from .stats import AggregateStore

FAIRNESS_NOTIONS = ("none", "dp", "equalized_odds", "multigroup")


@dataclass(frozen=True)
class AdamParams:
    """Adam hyperparameters."""

    learning_rate: float = 2e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8


class AdamState:
    """First and second moment estimates of one flat parameter vector.

    ``shapes`` are the shapes of the vector's consecutive blocks; they lay
    out snapshots, which keep the moments block by block.
    """

    def __init__(self, shapes: tuple, hyper: AdamParams):
        self.hyper = hyper
        self.shapes = shapes
        size = sum(math.prod(shape) for shape in shapes)
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def apply(self, params: np.ndarray, grads: np.ndarray) -> None:
        """One bias-corrected Adam update, in place on the vector ``params``."""
        self.t += 1
        h = self.hyper
        c1 = 1.0 - h.beta1**self.t
        c2 = 1.0 - h.beta2**self.t
        m, v = self.m, self.v
        m *= h.beta1
        m += (1.0 - h.beta1) * grads
        v *= h.beta2
        v += (1.0 - h.beta2) * grads * grads
        params -= h.learning_rate * (m / c1) / (np.sqrt(v / c2) + h.epsilon)

    def snapshot(self) -> dict:
        return {
            "t": self.t,
            "m": [a.tolist() for a in _block_views(self.m, self.shapes)],
            "v": [a.tolist() for a in _block_views(self.v, self.shapes)],
        }

    def restore(self, data: dict) -> None:
        """Load a snapshot, refusing moments that do not match ``shapes``
        block by block or that are not finite."""
        _check_keys(data, ("t", "m", "v"), "adam")
        t = _count(data["t"], "adam.t")
        _load_blocks(_block_views(self.m, self.shapes), data["m"], "adam.m")
        _load_blocks(_block_views(self.v, self.shapes), data["v"], "adam.v")
        self.t = t


def _load_blocks(views: list[np.ndarray], blocks, name: str) -> None:
    """Copy each of ``blocks`` into its view, raising DataError unless it
    is a finite array of that view's shape."""
    if not isinstance(blocks, list) or len(blocks) != len(views):
        raise DataError(f"{name} must hold {len(views)} arrays")
    for i, (view, block) in enumerate(zip(views, blocks)):
        try:
            array = np.asarray(block, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise DataError(f"{name}[{i}] is malformed: {exc}") from exc
        if array.shape != view.shape or not np.isfinite(array).all():
            raise DataError(f"{name}[{i}] must be finite with shape "
                            f"{view.shape}, got shape {array.shape}")
        view[...] = array


def _check_keys(data, keys, name: str) -> None:
    """Raise DataError unless ``data`` is a dict with exactly ``keys``."""
    if not isinstance(data, dict):
        raise DataError(f"{name} must be an object, got {type(data).__name__}")
    missing = [k for k in keys if k not in data]
    unknown = sorted(set(data) - set(keys))
    if missing or unknown:
        raise DataError(f"{name}: missing keys {missing}, unknown keys {unknown}")


def _count(value, name: str) -> int:
    """``value`` if it is a non-negative integer, else DataError."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise DataError(f"{name} must be a non-negative integer, got {value!r}")
    return value


class MetricsTracker:
    """Running accuracy and demographic-parity gaps of the prediction stream.

    The hard gap compares per-group rates of the predicted label; the
    soft gap compares per-group means of the raw forest output.  Both are
    undefined (``None``) while fewer than two groups have been observed.
    """

    def __init__(self, n_groups: int = 2, n_outputs: int = 2):
        self.n_groups = n_groups
        self.n_outputs = n_outputs
        self.total = 0
        self.correct = 0
        self.group_counts = np.zeros(n_groups, dtype=np.int64)
        self.group_label_sums = np.zeros(n_groups)
        self.group_output_sums = np.zeros((n_groups, n_outputs))

    def update(self, prediction: int, soft_output: np.ndarray, y: int,
               a: int) -> None:
        self.total += 1
        if prediction == y:
            self.correct += 1
        self.group_counts[a] += 1
        self.group_label_sums[a] += prediction
        self.group_output_sums[a] += soft_output

    @property
    def accuracy(self) -> float:
        return self.correct / self.total if self.total else 0.0

    def _two_group_gap(self, sums: np.ndarray):
        """``sums[0] / n0 - sums[1] / n1``, or None until both groups of a
        two-group tracker have been seen."""
        n0, n1 = self.group_counts
        return sums[0] / n0 - sums[1] / n1 if n0 and n1 else None

    @property
    def dp_hard(self) -> float | None:
        if self.n_groups == 2:
            gap = self._two_group_gap(self.group_label_sums)
            return None if gap is None else float(abs(gap))
        seen = self.group_counts > 0
        if seen.sum() < 2:
            return None
        rates = np.zeros(self.n_groups)
        rates[seen] = self.group_label_sums[seen] / self.group_counts[seen]
        overall = self.group_label_sums.sum() / self.total
        return float(np.max(np.abs(overall - rates[seen])))

    @property
    def dp_soft(self) -> float | None:
        if self.n_groups == 2:
            gap = self._two_group_gap(self.group_output_sums)
            return None if gap is None else math.sqrt(gap @ gap)
        seen = self.group_counts > 0
        if seen.sum() < 2:
            return None
        means = self.group_output_sums[seen] / self.group_counts[seen, None]
        overall = self.group_output_sums.sum(axis=0) / self.total
        return float(np.max(np.linalg.norm(overall - means, axis=1)))

    def snapshot(self) -> dict:
        return {
            "n_groups": self.n_groups,
            "n_outputs": self.n_outputs,
            "total": self.total,
            "correct": self.correct,
            "group_counts": self.group_counts.tolist(),
            "group_label_sums": self.group_label_sums.tolist(),
            "group_output_sums": self.group_output_sums.tolist(),
        }

    @classmethod
    def from_snapshot(cls, data: dict, n_groups: int,
                      n_outputs: int) -> "MetricsTracker":
        """Rebuild a tracker of ``n_groups`` groups and ``n_outputs``
        outputs, raising DataError unless the snapshot is one: the counts
        non-negative integers ``(G,)`` summing to ``total``, the sums
        finite ``(G,)`` and ``(G, c)``, and ``correct <= total``."""
        _check_keys(data, _METRICS_KEYS, "metrics")
        if (data["n_groups"], data["n_outputs"]) != (n_groups, n_outputs):
            raise DataError(
                f"metrics are for {data['n_groups']} groups and "
                f"{data['n_outputs']} outputs, the configuration has "
                f"{n_groups} and {n_outputs}"
            )
        tracker = cls(n_groups, n_outputs)
        total = _count(data["total"], "metrics.total")
        correct = _count(data["correct"], "metrics.correct")
        if correct > total:
            raise DataError(f"metrics.correct {correct} exceeds total {total}")
        try:
            counts = np.asarray(data["group_counts"])
        except (TypeError, ValueError) as exc:
            raise DataError(f"metrics.group_counts is malformed: {exc}") from exc
        if (counts.shape != tracker.group_counts.shape
                or not np.issubdtype(counts.dtype, np.integer)
                or (counts < 0).any() or counts.sum() != total):
            raise DataError(
                f"metrics.group_counts must be {n_groups} non-negative "
                f"integers summing to total {total}, got {data['group_counts']!r}"
            )
        tracker.total, tracker.correct = total, correct
        tracker.group_counts[...] = counts
        _load_blocks([tracker.group_label_sums, tracker.group_output_sums],
                     [data["group_label_sums"], data["group_output_sums"]],
                     "metrics sums")
        return tracker


@dataclass(frozen=True)
class StepSnapshot:
    """Metrics emitted after one learning step."""

    step: int
    accuracy: float
    dp_hard: float | None
    dp_soft: float | None
    grad_norm_total: float
    grad_norm_fair: float


@dataclass(frozen=True)
class TrajectoryRow:
    """One row of a run's trajectory."""

    step: int
    y: int
    a: int
    prediction: int
    accuracy: float
    dp_hard: float | None
    dp_soft: float | None
    grad_norm_total: float
    grad_norm_fair: float


@dataclass
class LearnerConfig:
    """Full configuration of an online forest learner."""

    n_features: int
    n_outputs: int = 2
    height: int = 4
    tree_count: int = 3
    fairness: str = "dp"
    fairness_weight: float = 0.0
    huber_delta: float = 0.01
    n_groups: int = 2
    learning_rate: float = 2e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_epsilon: float = 1e-8
    seed: int = 0
    aggregate_decay: float | None = None

    def __post_init__(self) -> None:
        if self.n_features < 1:
            raise ConfigurationError(f"n_features must be >= 1, got {self.n_features}")
        if self.n_outputs < 2:
            raise ConfigurationError(f"n_outputs must be >= 2, got {self.n_outputs}")
        if self.tree_count < 1:
            raise ConfigurationError(f"tree_count must be >= 1, got {self.tree_count}")
        if self.fairness not in FAIRNESS_NOTIONS:
            raise ConfigurationError(f"unknown fairness notion {self.fairness!r}")
        if self.fairness_weight < 0:
            raise ConfigurationError("fairness_weight must be non-negative")
        if self.huber_delta <= 0:
            raise ConfigurationError("huber_delta must be positive")
        if self.n_groups < 2:
            raise ConfigurationError(f"n_groups must be >= 2, got {self.n_groups}")
        if self.learning_rate <= 0:
            raise ConfigurationError("learning_rate must be positive")
        if self.fairness == "dp" and self.n_groups != 2:
            raise ConfigurationError(
                "the dp notion compares exactly 2 groups; use multigroup for more"
            )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "LearnerConfig":
        """The configuration ``to_dict`` wrote; DataError unless ``data``
        holds exactly the config fields."""
        _check_keys(data, [f.name for f in fields(cls)], "config")
        return cls(**data)

    def adam_params(self) -> AdamParams:
        return AdamParams(self.learning_rate, self.beta1, self.beta2,
                          self.adam_epsilon)


def _check_instance(config: LearnerConfig, x) -> np.ndarray:
    """``x`` as a float vector, refusing a length other than the
    configured feature count (ShapeError) and non-finite values
    (DataError)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (config.n_features,):
        raise ShapeError(
            f"expected feature vector of shape ({config.n_features},), "
            f"got {x.shape}"
        )
    if not np.isfinite(x).all():
        raise DataError("feature vector contains non-finite values")
    return x


def _check_step(config: LearnerConfig, x, y: int, a: int) -> np.ndarray:
    """``_check_instance(config, x)``, also refusing a label or group
    outside the configured range (DomainError)."""
    x = _check_instance(config, x)
    if not 0 <= y < config.n_outputs:
        raise DomainError(f"label {y} outside [0, {config.n_outputs})")
    if not 0 <= a < config.n_groups:
        raise DomainError(f"group {a} outside [0, {config.n_groups})")
    return x


@dataclass
class TraceStep:
    """One recorded step: parameters in force plus the instance."""

    forest: ObliqueForest
    x: np.ndarray
    a: int


CHECKPOINT_FORMAT = "fairforest-checkpoint-v2"
_CHECKPOINT_KEYS = ("format", "config", "step_count", "forest", "adam", "store",
                    "metrics")
_FOREST_KEYS = ("height", "weights", "biases", "leaves")
_METRICS_KEYS = ("n_groups", "n_outputs", "total", "correct", "group_counts",
                 "group_label_sums", "group_output_sums")


class OnlineForestLearner:
    """Per-instance fair learner over an oblique forest.

    Each ``step`` runs the normative order: predict, update metrics, feed
    the aggregate store, build the total gradient, Adam-update.  With
    ``record_trace=True`` the pre-step parameters and the instance are
    kept for later estimation-error audits.
    """

    # Always None: perfbench/run.py passes ``learner.mask`` to forward_batch.
    mask = None

    def __init__(self, config: LearnerConfig, record_trace: bool = False):
        self.config = config
        rng = np.random.default_rng(config.seed)
        self.forest = ObliqueForest.random(
            config.height, config.n_features, config.n_outputs,
            config.tree_count, rng=rng,
        )
        self.penalty = HuberPenalty(config.huber_delta, config.fairness_weight)
        self.store = self._build_store()
        shape = self.forest.shape
        self.adam = AdamState(shape.param_shapes, config.adam_params())
        self.metrics = MetricsTracker(config.n_groups, config.n_outputs)
        self.step_count = 0
        self.trace: list[TraceStep] | None = [] if record_trace else None
        self._last_total_norm = 0.0
        self._last_fair_norm = 0.0
        # Gradient buffers, rewritten every step; ``_last_total`` is the
        # total gradient of the latest step.
        self._task = ForestGradient.zeros(shape)
        self._fair = ForestGradient.zeros(shape)
        self._last_total = ForestGradient.zeros(shape)

    def _build_store(self) -> AggregateStore | None:
        cfg = self.config
        if cfg.fairness == "none":
            return None
        return AggregateStore(
            self.forest.shape,
            n_groups=cfg.n_groups,
            notion=cfg.fairness,
            n_classes=cfg.n_outputs if cfg.fairness == "equalized_odds" else None,
            decay=cfg.aggregate_decay,
        )

    # -- stepping ----------------------------------------------------------

    def predict(self, x: np.ndarray) -> int:
        """Prediction only, no state change."""
        return predict_class(self.forest, _check_instance(self.config, x))

    def step(self, x: np.ndarray, y: int, a: int) -> tuple[int, StepSnapshot]:
        """Process one instance; returns the prediction made before any
        parameter update, plus the post-step metrics."""
        x = _check_step(self.config, x, y, a)
        if self.trace is not None:
            self.trace.append(TraceStep(self.forest.copy(), x.copy(), int(a)))
        cache = _ForwardCache(self.forest, x)
        prediction = self._emit(int(np.argmax(cache.output)))
        self.metrics.update(prediction, cache.output, y, a)
        self._update_fairness_state(x, y, a, cache)
        task = _task_gradient_cached(self.forest, x, y, cache, self._task)
        fair = self._fairness_gradient()
        total = total_gradient(task, fair, self._last_total)
        self._last_fair_norm = gradient_norm(fair)
        self._last_total_norm = gradient_norm(total)
        self.adam.apply(self.forest.vector, total.vector)
        self.step_count += 1
        self._after_feedback(int(y))
        return prediction, self.snapshot()

    def _emit(self, prediction: int) -> int:
        return prediction

    def _after_feedback(self, y: int) -> None:
        pass

    def _update_fairness_state(self, x: np.ndarray, y: int, a: int,
                               cache: _ForwardCache) -> None:
        if self.store is None:
            return
        self.store.update_all(a, y, cache.gates, cache.slope, x)

    def _fairness_gradient(self) -> ForestGradient:
        if self.store is None:
            return self._fair
        return fairness_gradient(self.store, self.penalty, self.forest.shape,
                                 self._fair)

    def snapshot(self) -> StepSnapshot:
        return StepSnapshot(
            step=self.step_count,
            accuracy=self.metrics.accuracy,
            dp_hard=self.metrics.dp_hard,
            dp_soft=self.metrics.dp_soft,
            grad_norm_total=self._last_total_norm,
            grad_norm_fair=self._last_fair_norm,
        )

    # -- checkpointing -------------------------------------------------------

    def checkpoint(self) -> dict:
        """JSON-serializable full state; restoring reproduces the run."""
        return {
            "format": CHECKPOINT_FORMAT,
            "config": self.config.to_dict(),
            "step_count": self.step_count,
            "forest": {
                "height": self.forest.height,
                "weights": self.forest.weights.tolist(),
                "biases": self.forest.biases.tolist(),
                "leaves": self.forest.leaves.tolist(),
            },
            "adam": self.adam.snapshot(),
            "store": None if self.store is None else self.store.snapshot(),
            "metrics": self.metrics.snapshot(),
        }

    def save_checkpoint(self, path) -> None:
        """Write the checkpoint atomically: the state goes to a temporary
        file in the same directory, which then replaces ``path`` in one
        rename, so a failure mid-write leaves the previous checkpoint."""
        tmp = f"{os.fspath(path)}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(self.checkpoint(), fh)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
            raise

    @classmethod
    def restore(cls, data: dict) -> "OnlineForestLearner":
        """Rebuild a learner from ``checkpoint()`` data.  The schema is
        closed: a missing or unknown section or key, a configuration the
        learner refuses, or an array or count that does not fit the
        configuration is a DataError."""
        if not isinstance(data, dict) or data.get("format") != CHECKPOINT_FORMAT:
            found = data.get("format") if isinstance(data, dict) else data
            raise DataError(f"unrecognized checkpoint format: {found!r}")
        _check_keys(data, _CHECKPOINT_KEYS, "checkpoint")
        try:
            learner = cls(LearnerConfig.from_dict(data["config"]))
        except (TypeError, ValueError, ConfigurationError) as exc:
            raise DataError(f"checkpoint config is invalid: {exc}") from exc
        config, forest = learner.config, learner.forest
        _check_keys(data["forest"], _FOREST_KEYS, "forest")
        if data["forest"]["height"] != config.height:
            raise DataError(f"forest height {data['forest']['height']!r} "
                            f"disagrees with the config's {config.height}")
        names = _FOREST_KEYS[1:]
        _load_blocks([getattr(forest, k) for k in names],
                     [data["forest"][k] for k in names], "forest")
        learner.adam.restore(data["adam"])
        store = data["store"]
        if store is not None:
            try:
                store = AggregateStore.from_snapshot(store)
            except (KeyError, TypeError, ValueError, ConfigurationError) as exc:
                raise DataError(f"store snapshot is malformed: {exc!r}") from exc
        if _store_layout(store) != _store_layout(learner.store):
            raise DataError("the store snapshot does not fit the configuration")
        learner.store = store
        learner.metrics = MetricsTracker.from_snapshot(
            data["metrics"], config.n_groups, config.n_outputs)
        learner.step_count = _count(data["step_count"], "step_count")
        if learner.adam.t != learner.step_count:
            raise DataError(f"adam.t {learner.adam.t} disagrees with step_count "
                            f"{learner.step_count}: every step is one Adam step")
        return learner

    @classmethod
    def load_checkpoint(cls, path) -> "OnlineForestLearner":
        with open(path, encoding="utf-8") as fh:
            return cls.restore(json.load(fh))


def _store_layout(store: AggregateStore | None):
    """What a store's configuration fixes: restoring may change only its
    counts and means."""
    if store is None:
        return None
    return store.shape, store.notion, store.n_groups, store.n_classes, store.decay


def run_stream(learner, stream: Iterable[tuple]) -> Iterator[TrajectoryRow]:
    """Drive a learner over an instance stream, yielding one row per step.

    Errors raised by a step propagate with the 1-based failing step index
    prefixed to the message.
    """
    for index, (x, y, a) in enumerate(stream, start=1):
        try:
            prediction, snap = learner.step(x, y, a)
        except FairForestError as exc:
            raise type(exc)(f"step {index}: {exc}") from exc
        yield TrajectoryRow(
            step=index,
            y=int(y),
            a=int(a),
            prediction=prediction,
            accuracy=snap.accuracy,
            dp_hard=snap.dp_hard,
            dp_soft=snap.dp_soft,
            grad_norm_total=snap.grad_norm_total,
            grad_norm_fair=snap.grad_norm_fair,
        )
