"""Online learning loop: predict, observe, update.

Every arriving instance is handled in a fixed order: predict from the
current parameters, fold the outcome into the running metrics, feed the
gate statistics to the aggregate store, assemble the total gradient, and
take one Adam step.  The loop is fully deterministic given the seed, the
configuration, and the instance stream.
"""

from __future__ import annotations

import base64
import binascii
import contextlib
import json
import math
import os
from dataclasses import asdict, dataclass, fields
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import (
    ConfigurationError,
    DataError,
    DomainError,
    FairForestError,
    NumericalError,
    ShapeError,
)
from .forest import ObliqueForest, _check_height, predict as predict_class
from .gradients import (
    ForestGradient,
    _ForwardCache,
    _Workspace,
    _task_gradient_cached,
    fairness_gradient,
    gradient_norm,
    total_gradient,
)
from .stats import AggregateStore, NotionTable

_INTEGER_FIELDS = ("n_features", "n_outputs", "height", "tree_count", "n_groups",
                   "seed")
_REAL_FIELDS = ("fairness_weight", "huber_delta", "learning_rate")

# Adam's decay rates and epsilon, Kingma and Ba's defaults
# (arXiv:1412.6980); only the step size is configured.
ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8


class AdamState:
    """First and second moment estimates of one flat parameter vector of
    ``size`` values, and two scratch vectors of that size, so an update
    allocates nothing of the vector's size.  The step size is read from
    ``config``; the decay rates and epsilon are the module's constants.

    Every scalar factor is a 0-d float64 array, so no ufunc call converts
    a Python float: the decay rates and their complements are built once,
    and the two bias-corrected factors are refilled each step."""

    def __init__(self, size: int, config: LearnerConfig):
        self.config = config
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0
        self._step = np.zeros(size)
        self._scale = np.zeros(size)
        self._beta1, self._beta2, self._rest1, self._rest2 = (
            np.array(value, dtype=np.float64) for value in (
                ADAM_BETA1, ADAM_BETA2, 1.0 - ADAM_BETA1, 1.0 - ADAM_BETA2))
        self._eps_t = np.zeros(())
        self._alpha_t = np.zeros(())

    def apply(self, params: np.ndarray, grads: np.ndarray) -> None:
        """One bias-corrected Adam update, in place on the vector ``params``,
        in Kingma and Ba's efficient form (arXiv:1412.6980, section 2):
        ``params -= alpha_t * m / (sqrt(v) + eps_t)`` with ``alpha_t = lr *
        sqrt(c2) / c1`` and ``eps_t = eps * sqrt(c2)``, which is ``lr * (m /
        c1) / (sqrt(v / c2) + eps)`` without dividing either moment."""
        self.t += 1
        c1 = 1.0 - ADAM_BETA1**self.t
        root_c2 = math.sqrt(1.0 - ADAM_BETA2**self.t)
        self._eps_t.fill(ADAM_EPSILON * root_c2)
        self._alpha_t.fill(self.config.learning_rate * root_c2 / c1)
        m, v, step, scale = self.m, self.v, self._step, self._scale
        m *= self._beta1
        np.multiply(grads, self._rest1, out=step)
        m += step
        v *= self._beta2
        np.multiply(grads, self._rest2, out=step)
        step *= grads
        v += step
        np.sqrt(v, out=scale)
        scale += self._eps_t
        np.multiply(m, self._alpha_t, out=step)
        step /= scale
        params -= step


def _check_keys(data, keys, name: str) -> None:
    """Raise DataError unless ``data`` is a dict with exactly ``keys``."""
    if not isinstance(data, dict):
        raise DataError(f"{name} must be an object, got {type(data).__name__}")
    missing = [k for k in keys if k not in data]
    unknown = sorted(set(data) - set(keys))
    if missing or unknown:
        raise DataError(f"{name}: missing keys {missing}, unknown keys {unknown}")


class MetricsTracker:
    """Running accuracy and demographic-parity gaps of the prediction stream.

    The hard gap compares per-group rates of the predicted label; the
    soft gap compares per-group means of the raw forest output.  Both are
    undefined (``None``) while fewer than two groups have been observed.
    The running sums are Python lists, one entry per group (a list of
    output sums per group): a step touches a handful of numbers, for
    which numpy's per-call cost outweighs the arithmetic.
    """

    def __init__(self, n_groups: int = 2, n_outputs: int = 2):
        self.n_groups = n_groups
        self.total = 0
        self.correct = 0
        self.group_counts = [0] * n_groups
        self.group_label_sums = [0.0] * n_groups
        self.group_output_sums = [[0.0] * n_outputs for _ in range(n_groups)]

    def update(self, prediction: int, soft_output: list[float], y: int,
               a: int) -> None:
        self.total += 1
        if prediction == y:
            self.correct += 1
        self.group_counts[a] += 1
        self.group_label_sums[a] += prediction
        sums = self.group_output_sums
        sums[a] = [s + v for s, v in zip(sums[a], soft_output)]

    @property
    def accuracy(self) -> float:
        return self.correct / self.total if self.total else 0.0

    @property
    def dp_hard(self) -> float | None:
        return self.gaps()[0]

    @property
    def dp_soft(self) -> float | None:
        return self.gaps()[1]

    def gaps(self) -> tuple[float | None, float | None]:
        """``(dp_hard, dp_soft)`` from one pass over the groups: the
        largest gap of a group's predicted-label rate, and the largest
        Euclidean norm of a group's mean-output gap, each against the
        other group when there are two and against the overall figure
        when there are more.  Both are None while fewer than two groups
        have been seen.

        Every sum runs in order, as numpy's ``sum(axis=0)`` over groups
        and its ``np.linalg.norm(..., axis=-1)`` over fewer than eight
        outputs sum, so unlike a BLAS dot the soft gap does not depend on
        the CPU.  The label sums are whole numbers, so any order is exact
        for them."""
        counts = self.group_counts
        seen = [g for g, n in enumerate(counts) if n]
        if len(seen) < 2:
            return None, None
        label_sums, output_sums = self.group_label_sums, self.group_output_sums
        if self.n_groups == 2:
            n0, n1 = counts
            squares = 0.0
            for u, v in zip(*output_sums):
                gap = u / n0 - v / n1
                squares += gap * gap
            return (abs(label_sums[0] / n0 - label_sums[1] / n1),
                    math.sqrt(squares))
        total = self.total
        overall_rate = sum(label_sums) / total
        overall = []
        for column in zip(*output_sums):
            column_sum = 0.0
            for value in column:
                column_sum += value
            overall.append(column_sum / total)
        hard = largest = 0.0
        for g in seen:
            n = counts[g]
            gap = abs(overall_rate - label_sums[g] / n)
            if gap > hard:
                hard = gap
            squares = 0.0
            for o, s in zip(overall, output_sums[g]):
                gap = o - s / n
                squares += gap * gap
            if squares > largest:
                largest = squares
        # sqrt is monotonic: the root of the largest sum is the largest norm.
        return hard, math.sqrt(largest)


@dataclass(slots=True)
class StepSnapshot:
    """Metrics emitted after one learning step.  Slotted, not frozen: a
    frozen dataclass sets each field through ``object.__setattr__``, which
    makes it about four times as costly to build, once per step."""

    step: int
    accuracy: float
    dp_hard: float | None
    dp_soft: float | None
    grad_norm_total: float
    grad_norm_fair: float


class TrajectoryRow(NamedTuple):
    """One row of a run's trajectory, its fields in the order of the
    trajectory's columns (``TRAJECTORY_COLUMNS``), so a CSV writer writes
    it as it is."""

    step: int
    y: int
    a: int
    prediction: int
    accuracy: float
    dp_hard: float | None
    dp_soft: float | None
    grad_norm_total: float
    grad_norm_fair: float


# The trajectory's header: one column per ``TrajectoryRow`` field, in order.
TRAJECTORY_COLUMNS = (
    "step", "y", "a", "pred", "running_accuracy", "dp_hard", "dp_soft",
    "grad_norm_total", "grad_norm_fair",
)


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
    seed: int = 0

    def __post_init__(self) -> None:
        for name in _INTEGER_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise ConfigurationError(f"{name} must be an integer, got {value!r}")
            setattr(self, name, int(value))
        for name in _REAL_FIELDS:
            value = getattr(self, name)
            if (not isinstance(value, (int, float, np.integer, np.floating))
                    or isinstance(value, bool) or not math.isfinite(value)):
                raise ConfigurationError(f"{name} must be a finite number, "
                                         f"got {value!r}")
        _check_height(self.height)
        if self.n_features < 1:
            raise ConfigurationError(f"n_features must be >= 1, got {self.n_features}")
        if self.n_outputs < 2:
            raise ConfigurationError(f"n_outputs must be >= 2, got {self.n_outputs}")
        if self.tree_count < 1:
            raise ConfigurationError(f"tree_count must be >= 1, got {self.tree_count}")
        if self.fairness_weight < 0:
            raise ConfigurationError("fairness_weight must be non-negative")
        for name in ("huber_delta", "learning_rate"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(
                    f"{name} must be positive, got {getattr(self, name)}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be non-negative, got {self.seed}")
        self.notion_table()

    def notion_table(self) -> NotionTable:
        """The keys and contrast weights of the configured notion over the
        configured groups and output classes."""
        return NotionTable(self.fairness, self.n_groups, self.n_outputs)

    @property
    def has_penalty(self) -> bool:
        """Whether a fairness penalty acts: a notion with contrasts at a
        positive weight.  Without one, no learner keeps a store."""
        return self.fairness_weight > 0 and self.notion_table().n_contrasts > 0

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "LearnerConfig":
        """The configuration ``to_dict`` wrote; DataError unless ``data``
        holds exactly the config fields."""
        _check_keys(data, [f.name for f in fields(cls)], "config")
        return cls(**data)


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
    # Any NaN or infinity makes the sum non-finite, so a finite sum clears
    # every entry in one reduction.  A non-finite sum may also come from
    # finite values whose sum overflows, so only then is each entry
    # checked.  An overflow or ``inf - inf`` in the sum is numpy's warning
    # (or error, under an error filter or ``np.seterr``); one raised here
    # also leaves it to the element-wise check.
    try:
        total = np.add.reduce(x)
    except (RuntimeWarning, FloatingPointError):
        total = math.nan
    if not math.isfinite(total) and not np.isfinite(x).all():
        raise DataError("feature vector contains non-finite values")
    return x


def _check_step(config: LearnerConfig, x, y: int, a: int) -> np.ndarray:
    """``_check_instance(config, x)``, also refusing a label or group that
    is not an integer (``bool`` included) or lies outside the configured
    range (DomainError)."""
    x = _check_instance(config, x)
    for name, value, size in (("label", y, config.n_outputs),
                              ("group", a, config.n_groups)):
        if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
            raise DomainError(f"{name} must be an integer, got {value!r}")
        if not 0 <= value < size:
            raise DomainError(f"{name} {value} outside [0, {size})")
    return x


CHECKPOINT_FORMAT = "fairforest-checkpoint-v9"
_CHECKPOINT_KEYS = ("format", "config", "step_count", "correct", "floats",
                    "counts")


def encode_floats(array: np.ndarray) -> str:
    """Base64 text of ``array``'s values as little-endian float64, in C
    order; the shape is not stored."""
    data = np.ascontiguousarray(array, dtype="<f8").tobytes()
    return base64.b64encode(data).decode("ascii")


def decode_floats(text, out: np.ndarray, name: str) -> None:
    """Copy the values ``encode_floats`` wrote into ``out``, raising
    DataError unless ``text`` is a string of valid base64 holding exactly
    ``out.size`` float64 values, all finite."""
    if not isinstance(text, str):
        raise DataError(f"{name} must be a base64 string, "
                        f"got {type(text).__name__}")
    try:
        data = base64.b64decode(text, validate=True)
    except (binascii.Error, ValueError) as exc:
        raise DataError(f"{name} is not valid base64: {exc}") from exc
    if len(data) != 8 * out.size:
        raise DataError(f"{name} must hold {out.size} float64 values "
                        f"({8 * out.size} bytes), got {len(data)} bytes")
    values = np.frombuffer(data, dtype="<f8").reshape(out.shape)
    if not np.isfinite(values).all():
        raise DataError(f"{name} holds non-finite values")
    out[...] = values


def _count(value, name: str) -> int:
    """``value`` if it is a non-negative integer, else DataError."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise DataError(f"{name} must be a non-negative integer, got {value!r}")
    return value


def _counts(value, size: int, name: str) -> np.ndarray:
    """``value`` as an int64 array if it is a list of ``size`` non-negative
    integers, else DataError."""
    if not isinstance(value, list) or len(value) != size:
        raise DataError(f"{name} must be a list of {size} counts, got {value!r}")
    return np.array([_count(v, f"{name}[{i}]") for i, v in enumerate(value)],
                    dtype=np.int64)


class OnlineForestLearner:
    """Per-instance fair learner over an oblique forest.

    Each ``step`` runs the normative order: predict, update metrics, feed
    the aggregate store, build the total gradient, Adam-update.
    """

    # Always None: perfbench/run.py passes ``learner.mask`` to forward_batch.
    mask = None

    def __init__(self, config: LearnerConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        self.forest = ObliqueForest.random(
            config.height, config.n_features, config.n_outputs,
            config.tree_count, rng=rng,
        )
        self.store = self._build_store()
        shape = self.forest.shape
        self.adam = AdamState(shape.n_params, config)
        self.metrics = MetricsTracker(config.n_groups, config.n_outputs)
        self.step_count = 0
        self._last_total_norm = 0.0
        self._last_fair_norm = 0.0
        # Gradient buffers and the forward and task-gradient scratch,
        # rewritten every step; ``_last_total`` is the total gradient of
        # the latest step.
        self._workspace = _Workspace(shape)
        self._task = ForestGradient.zeros(shape)
        self._fair = ForestGradient.zeros(shape)
        self._last_total = ForestGradient.zeros(shape)

    def _build_store(self) -> AggregateStore | None:
        cfg = self.config
        return (AggregateStore(cfg.notion_table(), self.forest.shape)
                if cfg.has_penalty else None)

    # -- stepping ----------------------------------------------------------

    def predict(self, x: np.ndarray) -> int:
        """Prediction only, no state change."""
        return predict_class(self.forest, _check_instance(self.config, x))

    def step(self, x: np.ndarray, y: int, a: int) -> tuple[int, StepSnapshot]:
        """Process one instance; returns the prediction made before any
        parameter update, plus the post-step metrics."""
        x = _check_step(self.config, x, y, a)
        cache = _ForwardCache(self.forest, x, None, self._workspace)
        output = cache.output.tolist()
        if not all(map(math.isfinite, output)):
            raise NumericalError(f"forest output is not finite: {output!r}")
        # The first index of the maximum, as np.argmax gives.
        prediction = self._emit(output.index(max(output)))
        self.metrics.update(prediction, output, y, a)
        self._update_fairness_state(x, y, a, cache)
        task = _task_gradient_cached(self.forest, y, cache, self._task)
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
        self.store.update_all(a, y, cache.gates, cache.slope,
                              cache.workspace.xa)

    def _fairness_gradient(self) -> ForestGradient:
        if self.store is None:
            return self._fair
        return fairness_gradient(self.store, self.config.huber_delta,
                                 self.config.fairness_weight, self._fair)

    def snapshot(self) -> StepSnapshot:
        metrics = self.metrics
        return StepSnapshot(self.step_count, metrics.accuracy, *metrics.gaps(),
                            self._last_total_norm, self._last_fair_norm)

    # -- checkpointing -------------------------------------------------------

    def _state(self) -> tuple[dict, dict]:
        """The arrays a checkpoint holds, by name: this learner's float
        arrays, its last gradient norms (which ``snapshot()`` reports) and
        its count arrays.  The config fixes their shapes."""
        metrics = self.metrics
        floats = {
            "forest": self.forest.vector,
            "adam.m": self.adam.m,
            "adam.v": self.adam.v,
            "metrics.label_sums": np.array(metrics.group_label_sums),
            "metrics.output_sums": np.array(metrics.group_output_sums),
            "grad_norms": np.array([self._last_total_norm, self._last_fair_norm]),
        }
        counts = {"metrics.groups": np.array(metrics.group_counts,
                                             dtype=np.int64)}
        if self.store is not None:
            floats["store.sums"] = self.store.sums
            counts["store"] = self.store.counts
        return floats, counts

    def checkpoint(self) -> dict:
        """JSON-serializable full state; restoring reproduces the run."""
        floats, counts = self._state()
        return {
            "format": CHECKPOINT_FORMAT,
            "config": self.config.to_dict(),
            "step_count": self.step_count,
            "correct": self.metrics.correct,
            "floats": {name: encode_floats(a) for name, a in floats.items()},
            "counts": {name: a.tolist() for name, a in counts.items()},
        }

    def save_checkpoint(self, path) -> None:
        """Write the checkpoint atomically: the state goes to a temporary
        file in the same directory, which then replaces ``path`` in one
        rename, so a failure mid-write leaves the previous checkpoint; the
        file and then its directory are synced, so the rename survives a
        power loss."""
        tmp = f"{os.fspath(path)}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(self.checkpoint()))
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
            raise
        if os.name == "posix":
            # The rename is on disk only once its directory is.
            directory = os.open(os.path.dirname(os.path.abspath(path)),
                                os.O_RDONLY)
            try:
                os.fsync(directory)
            finally:
                os.close(directory)

    @classmethod
    def restore(cls, data: dict) -> "OnlineForestLearner":
        """Rebuild a learner from ``checkpoint()`` data.  The schema is
        closed: a missing or unknown key, a configuration the learner
        refuses, an array or count that does not fit the configuration or
        disagrees with ``step_count``, or a negative second moment in
        ``adam.v`` is a DataError."""
        if not isinstance(data, dict) or data.get("format") != CHECKPOINT_FORMAT:
            found = data.get("format") if isinstance(data, dict) else data
            raise DataError(f"unrecognized checkpoint format: {found!r}")
        _check_keys(data, _CHECKPOINT_KEYS, "checkpoint")
        try:
            learner = cls(LearnerConfig.from_dict(data["config"]))
        except (TypeError, ValueError, ConfigurationError) as exc:
            raise DataError(f"checkpoint config is invalid: {exc}") from exc
        step_count = _count(data["step_count"], "step_count")
        correct = _count(data["correct"], "correct")
        if correct > step_count:
            raise DataError(f"correct {correct} exceeds step_count {step_count}")
        floats, counts = learner._state()
        _check_keys(data["floats"], floats, "floats")
        _check_keys(data["counts"], counts, "counts")
        for name, out in floats.items():
            decode_floats(data["floats"][name], out, name)
        if (learner.adam.v < 0.0).any():
            raise DataError("adam.v holds negative second moments")
        for name, out in counts.items():
            out[...] = _counts(data["counts"][name], out.size, name)
        metrics = learner.metrics
        metrics.group_counts = counts["metrics.groups"].tolist()
        metrics.group_label_sums = floats["metrics.label_sums"].tolist()
        metrics.group_output_sums = floats["metrics.output_sums"].tolist()
        norms = floats["grad_norms"].tolist()
        learner._last_total_norm, learner._last_fair_norm = norms
        if sum(metrics.group_counts) != step_count:
            raise DataError(f"metrics.groups {metrics.group_counts} "
                            f"do not sum to step_count {step_count}")
        learner.step_count = learner.adam.t = metrics.total = step_count
        metrics.correct = correct
        store = learner.store
        if store is not None:
            if not store.table.counts_agree(store.counts, metrics.group_counts):
                raise DataError(f"store counts {store.counts.tolist()} disagree "
                                f"with the metrics' group counts "
                                f"{metrics.group_counts}")
            store.reweigh()
        return learner

    @classmethod
    def load_checkpoint(cls, path) -> "OnlineForestLearner":
        with open(path, encoding="utf-8") as fh:
            return cls.restore(json.load(fh))


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
        yield TrajectoryRow(index, int(y), int(a), prediction, snap.accuracy,
                            snap.dp_hard, snap.dp_soft, snap.grad_norm_total,
                            snap.grad_norm_fair)
