"""Alternative constraint placements and reference baselines.

Four contrast points against the node-level penalty:

* ``OnlineMlpLearner``: a two-layer ReLU network with one fairness
  constraint on the output vector itself, its running means kept in the
  same store as the forest's, one row per output.
* ``LeafPenaltyLearner``: the same forest learner, but the penalty sits
  on the leaf probabilities (products of gates) instead of on the gates.
* ``ReservoirLearner``: stores every past instance and recomputes the
  exact batch fairness gradient at the current parameters each step.
* ``MajorityLearner``: emits the model's prediction with probability
  ``p`` and a majority label otherwise.

Every learner exposes the same ``step``/``snapshot`` protocol as
``OnlineForestLearner``, so all of them run under ``run_stream``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import expit

from .errors import ConfigurationError
from .forest import ObliqueForest, _ancestor_rows, _block_views, _path_nodes
from .gradients import ForestGradient, HuberPenalty, huber_slope, softmax
from .learner import (
    AdamState,
    LearnerConfig,
    MetricsTracker,
    OnlineForestLearner,
    StepSnapshot,
    _check_instance,
    _check_step,
)
from .stats import RunningMeans

BASELINE_NAMES = ("aranyani", "mlp", "leaf", "reservoir", "majority")


def _require_dp(config: LearnerConfig, name: str) -> None:
    """Refuse every fairness notion but ``dp`` and ``none``."""
    if config.fairness not in ("dp", "none"):
        raise ConfigurationError(f"the {name} supports the dp notion only")


# ---------------------------------------------------------------------------
# Reservoir: exact batch recomputation over the full history.
# ---------------------------------------------------------------------------


class Reservoir:
    """Unbounded store of every instance seen so far."""

    def __init__(self, n_features: int):
        self.n_features = n_features
        self.features: list[np.ndarray] = []
        self.groups: list[int] = []
        self.labels: list[int] = []

    def add(self, x: np.ndarray, a: int, y: int | None = None) -> None:
        self.features.append(np.asarray(x, dtype=np.float64))
        self.groups.append(int(a))
        self.labels.append(-1 if y is None else int(y))

    def __len__(self) -> int:
        return len(self.features)

    def group_features(self, group: int) -> np.ndarray:
        rows = [x for x, g in zip(self.features, self.groups) if g == group]
        if not rows:
            return np.empty((0, self.n_features))
        return np.stack(rows)


def reservoir_fairness_gradient(
    reservoir: Reservoir, forest: ObliqueForest, penalty: HuberPenalty,
) -> tuple[ForestGradient, bool]:
    """Exact weighted fairness gradient over the stored history.

    Recomputes every gate output and gate gradient at the current
    parameters, takes exact per-group means, and applies the Huber slope
    to the exact gap.  Returns ``(gradient, cold)``; the gradient is zero
    and ``cold`` is True while either group is absent from the history.
    """
    grad = ForestGradient.zeros(forest.shape)
    x0 = reservoir.group_features(0)
    x1 = reservoir.group_features(1)
    if len(x0) == 0 or len(x1) == 0:
        return grad, True
    if penalty.weight == 0.0:
        return grad, False
    stats = [_reservoir_group_stats(forest, x) for x in (x0, x1)]
    gap = stats[0][0] - stats[1][0]  # (T, m)
    coeff = huber_slope(gap, penalty.delta) * penalty.weight
    grad.weights += coeff[:, :, None] * (stats[0][1] - stats[1][1])
    grad.biases += coeff * (stats[0][2] - stats[1][2])
    return grad, False


def _reservoir_group_stats(forest: ObliqueForest, features: np.ndarray):
    """Per-node means of gate outputs and gate gradients over a batch."""
    z = (np.einsum("tmd,nd->tnm", forest.weights, features)
         + forest.biases[:, None, :])  # (T, n, m)
    gates = expit(z)
    slopes = gates * expit(-z)
    n = features.shape[0]
    mean_out = gates.mean(axis=1)
    mean_gw = np.einsum("tnm,nd->tmd", slopes, features) / n
    mean_gb = slopes.mean(axis=1)
    return mean_out, mean_gw, mean_gb


class ReservoirLearner(OnlineForestLearner):
    """Forest learner whose fairness gradient is recomputed from scratch
    over the full history each step.  The task path is unchanged."""

    def __init__(self, config: LearnerConfig, record_trace: bool = False):
        _require_dp(config, "reservoir baseline")
        super().__init__(config, record_trace=record_trace)
        self.store = None
        self.reservoir = Reservoir(config.n_features)

    def _update_fairness_state(self, x, y, a, cache) -> None:
        self.reservoir.add(x, a, y)

    def _fairness_gradient(self) -> ForestGradient:
        """The exact penalty gradient; the zero ``self._fair`` when there
        is no penalty, without touching the history."""
        if self.config.fairness == "none" or self.penalty.weight == 0.0:
            return self._fair
        grad, _ = reservoir_fairness_gradient(
            self.reservoir, self.forest, self.penalty
        )
        return grad

    def checkpoint(self) -> dict:
        raise ConfigurationError(
            "checkpointing is implemented for the node-statistics learner only"
        )


# ---------------------------------------------------------------------------
# Leaf-level constraint.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _leaf_store_rows(tree_count: int, height: int, width: int) -> np.ndarray:
    """Flat output position of every ``(t, l, k, j)`` entry of a leaf-store
    array with trailing width ``width``, summed onto ``(T, m, width)``."""
    nodes = _path_nodes(tree_count, height).transpose(0, 2, 1)  # (T, L, h)
    rows = (nodes[..., None] * width + np.arange(width)).ravel()
    rows.setflags(write=False)
    return rows


def _sum_onto_nodes(values: np.ndarray, height: int) -> np.ndarray:
    """Sum leaf-store shaped ``values`` (T, L, h, *trailing) onto the nodes
    they belong to, giving (T, m, *trailing)."""
    tree_count = values.shape[0]
    trailing = values.shape[3:]
    width = int(np.prod(trailing))
    n_nodes = 2**height - 1
    sums = np.bincount(
        _leaf_store_rows(tree_count, height, width), weights=values.ravel(),
        minlength=tree_count * n_nodes * width,
    )
    return sums.reshape(tree_count, n_nodes, *trailing)


class LeafPenaltyLearner(OnlineForestLearner):
    """Forest learner with the Huber penalty on per-leaf probability gaps.

    The constrained quantity is the signed difference of group-conditional
    mean leaf probabilities; its parameter gradient reaches every gate on
    the leaf's path.  Leaf rows still receive no fairness gradient.
    """

    def __init__(self, config: LearnerConfig, record_trace: bool = False):
        _require_dp(config, "leaf-penalty baseline")
        super().__init__(config, record_trace=record_trace)
        self.store = None
        shape = self.forest.shape
        # Per group, one row per (tree, leaf): the leaf probability, then
        # for each depth-k ancestor of the leaf its Jacobian in that
        # ancestor's bias and weights, (h, d + 1) flattened.
        self.leaf_store = RunningMeans(
            config.n_groups, (shape.tree_count, shape.n_leaves),
            1 + shape.height * (shape.n_features + 1), ((0, 1),),
            config.aggregate_decay,
        )

    def _update_fairness_state(self, x, y, a, cache) -> None:
        t, h = self.forest.tree_count, self.forest.height
        # d p_l / d w_i = (d p_l / d n_i) * n_i (1 - n_i) * x, for the path
        # nodes i of leaf l only.
        path_slope = np.take(cache.slope, _ancestor_rows(h), axis=1)
        jac_b = np.swapaxes(cache.leaf_jac * path_slope, 1, 2)  # (T, L, h)
        values = np.empty(self.leaf_store.means.shape[1:])
        values[..., 0] = cache.leaf_probs
        # A view: splitting the contiguous last axis copies nothing.
        path = values[..., 1:].reshape(t, 2**h, h, x.size + 1)
        path[..., 0] = jac_b
        np.multiply(jac_b[..., None], x, out=path[..., 1:])
        self.leaf_store.fold((a,), values)

    def _fairness_gradient(self) -> ForestGradient:
        """The penalty gradient, written into ``self._fair``; its leaf rows
        are never written and stay zero."""
        if self.config.fairness == "none" or self.penalty.weight == 0.0:
            return self._fair
        t, h = self.forest.tree_count, self.forest.height
        total = self.leaf_store.contrast_sum(self.penalty.delta)
        per_node = _sum_onto_nodes(
            total.reshape(t, 2**h, h, self.forest.n_features + 1), h
        )  # (T, m, d + 1)
        grad = self._fair
        np.multiply(per_node[..., 1:], self.penalty.weight, out=grad.weights)
        np.multiply(per_node[..., 0], self.penalty.weight, out=grad.biases)
        return grad

    def checkpoint(self) -> dict:
        raise ConfigurationError(
            "checkpointing is implemented for the node-statistics learner only"
        )


# ---------------------------------------------------------------------------
# Two-layer MLP with an output-level constraint.
# ---------------------------------------------------------------------------


class MlpParams:
    """Parameters of the two-layer ReLU network: one flat ``vector`` with
    ``w1`` (d, hidden), ``b1`` (hidden,), ``w2`` (hidden, c) and ``b2``
    (c,) as reshaped views into it."""

    def __init__(self, n_features: int, hidden: int, n_outputs: int):
        d, h, c = n_features, hidden, n_outputs
        self.shapes = ((d, h), (h,), (h, c), (c,))
        self.vector = np.zeros(d * h + h + h * c + c)
        self.w1, self.b1, self.w2, self.b2 = _block_views(self.vector, self.shapes)


class OnlineMlpLearner:
    """Two-layer ReLU network with the fairness penalty on the mean
    output gap between groups (``dp`` or ``none`` only), trained one
    instance at a time.  Per group, the store row of output ``k`` holds
    ``out_k``, then its Jacobian in the flat parameter vector."""

    snapshot = OnlineForestLearner.snapshot

    def __init__(self, config: LearnerConfig, hidden: int = 64):
        _require_dp(config, "MLP baseline")
        if hidden < 1:
            raise ConfigurationError(f"hidden width must be >= 1, got {hidden}")
        self.config = config
        rng = np.random.default_rng(config.seed)
        d, h, c = config.n_features, hidden, config.n_outputs
        self.params = MlpParams(d, h, c)
        self.params.w1[...] = rng.uniform(-1 / np.sqrt(d), 1 / np.sqrt(d), size=(d, h))
        self.params.w2[...] = rng.uniform(-1 / np.sqrt(h), 1 / np.sqrt(h), size=(h, c))
        self.penalty = HuberPenalty(config.huber_delta, config.fairness_weight)
        size = self.params.vector.size
        self.store = None if config.fairness == "none" else RunningMeans(
            config.n_groups, (c,), 1 + size, ((0, 1),), config.aggregate_decay,
        )
        self.adam = AdamState(self.params.shapes, config.adam_params())
        self.metrics = MetricsTracker(config.n_groups, c)
        self.step_count = 0
        self._last_total_norm = 0.0
        self._last_fair_norm = 0.0
        self._fair = np.zeros(size)

    def forward(self, x: np.ndarray) -> np.ndarray:
        hidden = np.maximum(x @ self.params.w1 + self.params.b1, 0.0)
        return hidden @ self.params.w2 + self.params.b2

    def predict(self, x: np.ndarray) -> int:
        """Prediction only, no state change."""
        return int(np.argmax(self.forward(_check_instance(self.config, x))))

    def step(self, x: np.ndarray, y: int, a: int) -> tuple[int, StepSnapshot]:
        x = _check_step(self.config, x, y, a)
        pre = x @ self.params.w1 + self.params.b1
        hidden = np.maximum(pre, 0.0)
        active = (pre > 0.0).astype(np.float64)
        out = hidden @ self.params.w2 + self.params.b2
        prediction = int(np.argmax(out))
        self.metrics.update(prediction, out, y, a)
        if self.store is not None:
            gate = active[:, None] * self.params.w2  # (h, c): d out_k / d pre_j
            rows = np.zeros(self.store.means.shape[1:])
            rows[:, 0] = out
            for k, row in enumerate(rows):
                j_w1, j_b1, j_w2, j_b2 = _block_views(row[1:], self.params.shapes)
                np.outer(x, gate[:, k], out=j_w1)
                j_b1[...] = gate[:, k]
                j_w2[:, k] = hidden
                j_b2[k] = 1.0
            self.store.fold((a,), rows)
        # Task gradient, written block by block into one vector.
        task = np.empty(self.params.vector.size)
        g_w1, g_b1, g_w2, g_b2 = _block_views(task, self.params.shapes)
        residual = softmax(out)
        residual[y] -= 1.0
        g_b2[...] = residual
        np.outer(hidden, residual, out=g_w2)
        np.multiply(self.params.w2 @ residual, active, out=g_b1)
        np.outer(x, g_b1, out=g_w1)
        fair = self._fairness_gradient()
        total = task + fair
        self._last_fair_norm = math.sqrt(fair @ fair)
        self._last_total_norm = math.sqrt(total @ total)
        self.adam.apply(self.params.vector, total)
        self.step_count += 1
        return prediction, self.snapshot()

    def _fairness_gradient(self) -> np.ndarray:
        """The penalty gradient, summed over the outputs and written into
        ``self._fair``; zero without a store or a weight."""
        if self.store is None or self.penalty.weight == 0.0:
            return self._fair
        total = self.store.contrast_sum(self.penalty.delta)  # (c, P)
        np.multiply(total.sum(axis=0), self.penalty.weight, out=self._fair)
        return self._fair


# ---------------------------------------------------------------------------
# Majority post-processing.
# ---------------------------------------------------------------------------


@dataclass
class MajorityConfig:
    """Mixture weight and majority source for the post-processing baseline."""

    p: float = 0.5
    source: str = "running"  # "running" or "fixed"
    fixed_label: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ConfigurationError(f"mixing probability must be in [0, 1], got {self.p}")
        if self.source not in ("running", "fixed"):
            raise ConfigurationError(f"unknown majority source {self.source!r}")
        if self.source == "fixed" and self.fixed_label is None:
            raise ConfigurationError("fixed majority source needs fixed_label")


def majority_postprocess(prediction: int, p: float, majority_label: int,
                         rng: np.random.Generator) -> int:
    """Emit the model's prediction with probability ``p``, else the
    majority label.  One uniform draw per call."""
    return prediction if rng.random() < p else majority_label


class MajorityLearner(OnlineForestLearner):
    """Forest learner whose emitted predictions are mixed with a majority
    label.  Training is unaffected; only the emitted stream (and hence the
    metrics) changes."""

    def __init__(self, config: LearnerConfig, majority: MajorityConfig,
                 record_trace: bool = False):
        super().__init__(config, record_trace=record_trace)
        self.majority = majority
        self._mix_rng = np.random.default_rng((config.seed, 1))
        self._label_counts = np.zeros(config.n_outputs, dtype=np.int64)

    def _majority_label(self) -> int | None:
        if self.majority.source == "fixed":
            return self.majority.fixed_label
        if self._label_counts.sum() == 0:
            return None
        return int(np.argmax(self._label_counts))

    def _emit(self, prediction: int) -> int:
        label = self._majority_label()
        if label is None:
            return prediction
        return majority_postprocess(prediction, self.majority.p, label,
                                    self._mix_rng)

    def _after_feedback(self, y: int) -> None:
        self._label_counts[y] += 1

    def checkpoint(self) -> dict:
        raise ConfigurationError(
            "checkpointing is implemented for the node-statistics learner only"
        )


# ---------------------------------------------------------------------------
# Factory used by the command-line interface.
# ---------------------------------------------------------------------------


def make_learner(name: str, config: LearnerConfig, mlp_hidden: int = 64,
                 majority: MajorityConfig | None = None):
    """Build a learner by baseline name."""
    if name == "aranyani":
        return OnlineForestLearner(config)
    if name == "mlp":
        return OnlineMlpLearner(config, mlp_hidden)
    if name == "leaf":
        return LeafPenaltyLearner(config)
    if name == "reservoir":
        return ReservoirLearner(config)
    if name == "majority":
        return MajorityLearner(config, majority or MajorityConfig())
    raise ConfigurationError(
        f"unknown baseline {name!r}; expected one of {BASELINE_NAMES}"
    )
