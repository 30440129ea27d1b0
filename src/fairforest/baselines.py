"""Alternative constraint placements and reference baselines.

Four contrast points against the node-level penalty:

* ``OnlineMlpLearner``: a two-layer ReLU network with one fairness
  constraint on the output vector itself, its running sums kept in the
  same store as the forest's, one row per output.
* ``LeafPenaltyLearner``: the same forest learner, but the penalty sits
  on the leaf probabilities (products of gates) instead of on the gates.
* ``ReservoirLearner``: stores every past instance and recomputes the
  exact batch fairness gradient at the current parameters each step.
* ``MajorityLearner``: emits the model's prediction with probability
  ``p`` and a majority label otherwise.

Every learner exposes the same ``step``/``snapshot`` protocol as
``OnlineForestLearner``, so all of them run under ``run_stream``, and
every penalized one takes its keys and contrast weights from the
configured notion's ``NotionTable``, so each runs under every notion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericalError
from .forest import ObliqueForest, _block_views, _evaluate
from .gradients import (
    ForestGradient,
    _leaf_jacobian,
    _leaf_jacobian_index,
    _vector_norm,
    softmax,
)
from .learner import (
    AdamState,
    LearnerConfig,
    MetricsTracker,
    OnlineForestLearner,
    StepSnapshot,
    _check_instance,
    _check_step,
)
from .stats import NotionTable, RunningMeans, huber_contrast_sum

BASELINE_NAMES = ("aranyani", "mlp", "leaf", "reservoir", "majority")


# ---------------------------------------------------------------------------
# Reservoir: exact batch recomputation over the full history.
# ---------------------------------------------------------------------------


class Reservoir:
    """Unbounded store of every instance seen so far, each kept once under
    the key of ``table`` it folds into (as ``AggregateStore`` keys it), in
    a row buffer that doubles when full, so ``key_features`` is a view.
    ``sizes`` counts the rows per key."""

    def __init__(self, table: NotionTable, n_features: int):
        self.table = table
        self._rows = [np.empty((16, n_features)) for _ in range(table.n_keys)]
        self.sizes = np.zeros(table.n_keys, dtype=np.int64)

    def add(self, x: np.ndarray, group: int, task_class: int) -> None:
        key = self.table.key(group, task_class)
        rows, size = self._rows[key], self.sizes[key]
        if size == len(rows):
            self._rows[key] = rows = np.concatenate([rows, np.empty_like(rows)])
        rows[size] = x
        self.sizes[key] = size + 1

    def __len__(self) -> int:
        return int(self.sizes.sum())

    def key_features(self, key: int) -> np.ndarray:
        """Read-only view of the key's rows, in arrival order."""
        view = self._rows[key][:self.sizes[key]]
        view.flags.writeable = False
        return view


def reservoir_fairness_gradient(
    reservoir: Reservoir, forest: ObliqueForest, delta: float, weight: float,
) -> tuple[ForestGradient, bool]:
    """Exact fairness gradient over the stored history: the Huber penalty
    of width ``delta``, times ``weight``.

    Recomputes every gate output and gate gradient at the current
    parameters, takes exact per-key sums in the node store's layout,
    and sums the Huber contrast product (``stats.huber_contrast_sum``)
    over the table's weights at the reservoir's key sizes, divided by
    those sizes, as the node store does over its running sums.  Returns
    ``(gradient, cold)``; the gradient is zero and ``cold`` is True while
    every weight is zero: no contrast is warm yet, or under
    ``multigroup`` one group alone has been seen, so its gap is exactly
    zero.
    """
    grad = ForestGradient.zeros(forest.shape)
    weights = reservoir.table.weights(reservoir.sizes)
    if not weights.any():
        return grad, True
    weights /= np.maximum(reservoir.sizes, 1)
    t, m, d = forest.tree_count, forest.shape.n_nodes, forest.n_features
    sums = np.zeros((reservoir.table.n_keys, d + 2, t * m))
    # Keys no warm contrast weighs are never evaluated.
    for key in np.flatnonzero(weights.any(axis=0)):
        sums[key] = _reservoir_key_sums(forest, reservoir.key_features(key))
    huber_contrast_sum(weights, sums, delta, weight, grad.node_rows)
    return grad, False


def _reservoir_key_sums(forest: ObliqueForest, features: np.ndarray):
    """Sums over a batch of ``[n, n (1 - n), n (1 - n) x]``, the node
    store's ``(d + 2, T * m)`` rows."""
    p = _evaluate(forest, features)  # gates and right edges (n, T, m)
    slopes = p.gates * p.right
    return np.concatenate([
        p.gates.sum(axis=0)[None], slopes.sum(axis=0)[None],
        np.einsum("ntm,nd->dtm", slopes, features),
    ]).reshape(forest.n_features + 2, -1)


class ReservoirLearner(OnlineForestLearner):
    """Forest learner whose fairness gradient is recomputed from scratch
    over the full history each step.  The task path is unchanged.
    Without a penalty nothing reads the history, so none is kept."""

    def __init__(self, config: LearnerConfig):
        super().__init__(config)
        self.reservoir = (Reservoir(config.notion_table(), config.n_features)
                          if config.has_penalty else None)

    def _build_store(self) -> None:
        """No gate store: the penalty reads the reservoir."""
        return None

    def _update_fairness_state(self, x, y, a, cache) -> None:
        if self.reservoir is not None:
            self.reservoir.add(x, a, y)

    def _fairness_gradient(self) -> ForestGradient:
        """The exact penalty gradient; the zero ``self._fair`` when there
        is no penalty."""
        if self.reservoir is None:
            return self._fair
        grad, _ = reservoir_fairness_gradient(
            self.reservoir, self.forest, self.config.huber_delta,
            self.config.fairness_weight,
        )
        return grad

    def checkpoint(self) -> dict:
        raise ConfigurationError(
            "checkpointing is implemented for the node-statistics learner only"
        )


# ---------------------------------------------------------------------------
# Leaf-level constraint.
# ---------------------------------------------------------------------------


class _LeafNodeSum:
    """Sums a contiguous ``(width, h, T, 2**h)`` block of leaf rows onto
    the nodes: each depth-``k`` node gets its depth's row summed over the
    ``2**(h - k)`` leaves below it, laid out as a gradient's node block
    ``(width, T, m)``, which shares the rows.

    Per depth the leaves below each node are one contiguous run, so the
    depth's rows are ``width`` stacked ``(T * 2**k, 2**(h - k))``
    matrices, and one matrix-vector product with ones sums every node of
    the depth.  The products fill ``sums`` depth by depth and ``order``
    takes them to the node block.  The views are built once over
    ``rows``, so a sum reads whatever ``rows`` holds when it runs.
    """

    def __init__(self, rows: np.ndarray):
        width, height, t, leaves = rows.shape
        flat = rows.reshape(width, height, t * leaves)
        ones = np.ones(leaves)
        self.sums = np.empty(width * t * (leaves - 1))
        # Writable on purpose: ``np.take`` copies a read-only index.
        order = np.empty((width, t, leaves - 1), dtype=np.intp)
        self.depths = []
        start = 0
        for k in range(height):
            n, below = t << k, leaves >> k
            stop = start + width * n
            self.depths.append((flat[:, k].reshape(width, n, below),
                                ones[:below],
                                self.sums[start:stop].reshape(width, n)))
            order[:, :, (1 << k) - 1:(2 << k) - 1] = np.arange(
                start, stop).reshape(width, t, 1 << k)
            start = stop
        self.order = order.ravel()

    def into(self, out: np.ndarray) -> None:
        """Write the node sums into the flat node block ``out``."""
        for rows, ones, sums in self.depths:
            np.matmul(rows, ones, out=sums)
        # Every index is in range; "clip" skips the copy that "raise"
        # makes of the output before writing it.
        np.take(self.sums, self.order, out=out, mode="clip")


class LeafPenaltyLearner(OnlineForestLearner):
    """Forest learner with the Huber penalty on per-leaf probability gaps.

    The constrained quantity is each contrast's signed difference of
    per-key mean leaf probabilities; its parameter gradient reaches every
    gate on the leaf's path.  Leaf rows still receive no fairness gradient.
    """

    def __init__(self, config: LearnerConfig):
        super().__init__(config)
        shape = self.forest.shape
        # Per key, rows over every (tree, leaf) cell: the leaf
        # probability, then its Jacobian in the bias and each weight
        # (feature-or-bias major) of its depth-k ancestor, (d + 1, h)
        # flattened.  Without a penalty nothing reads it, so none is built.
        self.leaf_store = None
        if config.has_penalty:
            width = shape.n_features + 1
            self.leaf_store = RunningMeans(
                config.notion_table(), (shape.tree_count, shape.n_leaves),
                1 + width * shape.height,
            )
            self._jacobian_index = _leaf_jacobian_index(
                shape.height, shape.tree_count)
            # The contrast sum's rows, (bias or weight, depth) by (tree,
            # leaf), summed onto the gradient's node block; its leaf rows
            # stay zero.
            self._leaf_grad = np.zeros((width * shape.height,
                                        shape.tree_count * shape.n_leaves))
            self._node_sum = _LeafNodeSum(self._leaf_grad.reshape(
                width, shape.height, shape.tree_count, shape.n_leaves))
            self._node_grad = self._fair.nodes.reshape(-1)

    def _build_store(self) -> None:
        """No gate store: the penalty reads ``leaf_store``."""
        return None

    def _update_fairness_state(self, x, y, a, cache) -> None:
        if self.leaf_store is None:
            return
        t, h = self.forest.tree_count, self.forest.height
        values = self.leaf_store.values
        values[0] = cache.leaf_probs
        # A view: splitting the contiguous leading axis copies nothing.
        # d p_l / d w_i = (d p_l / d b_i) * x, for the path nodes i of l.
        path = values[1:].reshape(x.size + 1, h, t, 2**h)
        _leaf_jacobian(cache.edges, cache.leaf_probs, self._jacobian_index,
                       out=path[0])
        np.multiply(x[:, None, None, None], path[0], out=path[1:])
        self.leaf_store.fold(a, y, values)

    def _fairness_gradient(self) -> ForestGradient:
        """The penalty gradient, written into ``self._fair``; its leaf rows
        are never written and stay zero."""
        if self.leaf_store is None:
            return self._fair
        self.leaf_store.contrast_sum(self.config.huber_delta,
                                     self.config.fairness_weight,
                                     self._leaf_grad)
        self._node_sum.into(self._node_grad)
        return self._fair

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
    """Two-layer ReLU network with the fairness penalty on each
    contrast's mean output gap, trained one instance at a time.  Per
    key, the store holds the outputs in row 0,
    then their Jacobian in the flat parameter vector, one row per
    parameter and one column per output."""

    snapshot = OnlineForestLearner.snapshot

    def __init__(self, config: LearnerConfig, hidden: int = 64):
        if hidden < 1:
            raise ConfigurationError(f"hidden width must be >= 1, got {hidden}")
        self.config = config
        rng = np.random.default_rng(config.seed)
        d, h, c = config.n_features, hidden, config.n_outputs
        self.params = MlpParams(d, h, c)
        self.params.w1[...] = rng.uniform(-1 / np.sqrt(d), 1 / np.sqrt(d), size=(d, h))
        self.params.w2[...] = rng.uniform(-1 / np.sqrt(h), 1 / np.sqrt(h), size=(h, c))
        size = self.params.vector.size
        self.store = RunningMeans(
            config.notion_table(), (c,), 1 + size,
        ) if config.has_penalty else None
        self.adam = AdamState(size, config)
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
        output = out.tolist()
        if not all(map(math.isfinite, output)):
            raise NumericalError(f"MLP output is not finite: {output!r}")
        prediction = int(np.argmax(out))
        self.metrics.update(prediction, output, y, a)
        if self.store is not None:
            gate = active[:, None] * self.params.w2  # (h, c): d out_k / d pre_j
            rows = self.store.values  # (1 + P, c)
            rows.fill(0.0)
            rows[0] = out
            outputs = np.arange(out.size)
            j_w1, j_b1, j_w2, j_b2 = _block_views(rows[1:].reshape(-1), [
                (*shape, out.size) for shape in self.params.shapes])
            np.multiply(x[:, None, None], gate, out=j_w1)
            j_b1[...] = gate
            j_w2[:, outputs, outputs] = hidden[:, None]
            j_b2[outputs, outputs] = 1.0
            self.store.fold(a, y, rows)
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
        self._last_fair_norm = _vector_norm(fair)
        self._last_total_norm = _vector_norm(total)
        self.adam.apply(self.params.vector, total)
        self.step_count += 1
        return prediction, self.snapshot()

    def _fairness_gradient(self) -> np.ndarray:
        """The penalty gradient, summed over the outputs and written into
        ``self._fair``; zero without a store."""
        if self.store is None:
            return self._fair
        total = self.store.contrast_sum(self.config.huber_delta)  # (P, c)
        np.multiply(total.sum(axis=1), self.config.fairness_weight,
                    out=self._fair)
        return self._fair


# ---------------------------------------------------------------------------
# Majority post-processing.
# ---------------------------------------------------------------------------


@dataclass
class MajorityConfig:
    """Mixture weight and majority label of the post-processing baseline:
    ``fixed_label`` when given, else the running majority of the labels
    seen so far."""

    p: float = 0.5
    fixed_label: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ConfigurationError(f"mixing probability must be in [0, 1], got {self.p}")


def majority_postprocess(prediction: int, p: float, majority_label: int,
                         rng: np.random.Generator) -> int:
    """Emit the model's prediction with probability ``p``, else the
    majority label.  One uniform draw per call."""
    return prediction if rng.random() < p else majority_label


class MajorityLearner(OnlineForestLearner):
    """Forest learner whose emitted predictions are mixed with a majority
    label.  Training is unaffected; only the emitted stream (and hence the
    metrics) changes."""

    def __init__(self, config: LearnerConfig, majority: MajorityConfig):
        label = majority.fixed_label
        if label is not None and not 0 <= label < config.n_outputs:
            raise ConfigurationError(f"fixed majority label {label} outside "
                                     f"the classes [0, {config.n_outputs})")
        super().__init__(config)
        self.majority = majority
        self._mix_rng = np.random.default_rng((config.seed, 1))
        self._label_counts = np.zeros(config.n_outputs, dtype=np.int64)

    def _majority_label(self) -> int | None:
        if self.majority.fixed_label is not None:
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
