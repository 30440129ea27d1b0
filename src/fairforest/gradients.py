"""Closed-form gradients: task loss, fairness penalty, and their sum.

The task loss is cross-entropy of a softmax over the forest output.  Its
gradient is assembled analytically from the leaf probabilities and their
derivatives in the gate outputs, never by automatic differentiation.

The fairness penalty is a Huber surrogate applied to each node's
group-output gap as estimated by an ``AggregateStore``.  Its gradient
touches node weights and biases only; leaf rows carry no fairness
gradient under any notion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericalError, ShapeError
from .forest import (
    ForestShape,
    ObliqueForest,
    _all_node_outputs,
    _block_views,
    _check_features,
    _leaf_probability_gradients_stacked,
    _path_nodes,
)
from .stats import AggregateStore


@dataclass(frozen=True)
class HuberPenalty:
    """Huber smoothing width and overall weight of the fairness penalty."""

    delta: float
    weight: float

    def __post_init__(self) -> None:
        if not self.delta > 0 or not np.isfinite(self.delta):
            raise ConfigurationError(f"delta must be positive, got {self.delta}")
        if self.weight < 0 or not np.isfinite(self.weight):
            raise ConfigurationError(
                f"penalty weight must be non-negative, got {self.weight}"
            )


class ForestGradient:
    """Gradient over every parameter of a forest, in the forest's layout:
    one flat ``vector`` with ``weights`` (T, m, d), ``biases`` (T, m) and
    ``leaves`` (T, 2**h, c) as reshaped views into it."""

    def __init__(self, shape: ForestShape, vector: np.ndarray):
        self.shape = shape
        self.vector = vector
        self.weights, self.biases, self.leaves = _block_views(
            vector, shape.param_shapes
        )

    @classmethod
    def zeros(cls, shape: ForestShape) -> "ForestGradient":
        return cls(shape, np.zeros(shape.n_params))

    def tree_norm(self, index: int) -> float:
        """Euclidean norm of one tree's slice of the gradient."""
        return float(np.sqrt(
            np.sum(self.weights[index] ** 2)
            + np.sum(self.biases[index] ** 2)
            + np.sum(self.leaves[index] ** 2)
        ))


def huber(gap: float, delta: float) -> float:
    """Huber surrogate of the absolute gap: quadratic inside ``|gap| < delta``,
    linear outside."""
    if abs(gap) < delta:
        return 0.5 * gap * gap
    return delta * (abs(gap) - 0.5 * delta)


def huber_slope(gap, delta: float):
    """Derivative of the Huber surrogate in the gap, for a scalar gap or
    an array of gaps: the gap clipped to ``[-delta, delta]``, so the gap
    itself inside the quadratic region and ``delta`` times its sign
    outside (``+-delta`` at both kinks)."""
    return np.clip(gap, -delta, delta)


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max()
    exps = np.exp(shifted)
    return exps / exps.sum()


def cross_entropy(logits: np.ndarray, label: int) -> float:
    """Negative log softmax probability of the label."""
    shifted = logits - logits.max()
    return float(np.log(np.exp(shifted).sum()) - shifted[label])


class _ForwardCache:
    """Per-instance forward intermediates shared by the gradient paths:
    both edges of every gate, the gate slopes, the leaf probabilities and
    their path-form Jacobian, and the forest output."""

    __slots__ = ("gates", "slope", "leaf_probs", "leaf_jac", "output")

    # Ignored ``mask``: perfbench/run.py jacobian_counts passes one.
    def __init__(self, forest: ObliqueForest, x: np.ndarray, mask=None):
        n_nodes = forest.shape.n_nodes
        edges = _all_node_outputs(forest, x)  # (T, 2m)
        self.gates = edges[:, :n_nodes]  # (T, m)
        # The gate slope n (1 - n), from both edges so a saturated gate
        # keeps its tiny slope instead of cancelling to 0.
        self.slope = self.gates * edges[:, n_nodes:]
        # leaf_jac is in path form, (T, h, 2**h).
        self.leaf_probs, self.leaf_jac = _leaf_probability_gradients_stacked(
            edges, forest.height
        )
        self.output = np.einsum(
            "tl,tlc->c", self.leaf_probs, forest.leaves
        ) / forest.tree_count


def task_gradient(forest: ObliqueForest, x: np.ndarray, y: int) -> ForestGradient:
    """Cross-entropy gradient for one labeled instance.

    Leaf rows receive their own leaf probability times the softmax
    residual; gate parameters receive the residual backpropagated through
    the leaf-probability products, with the product over each path
    assembled exclusive of the differentiated node so saturated gates
    never divide by zero.
    """
    x = _check_features(forest, x)
    if not 0 <= y < forest.n_outputs:
        raise ShapeError(f"label {y} outside [0, {forest.n_outputs})")
    cache = _ForwardCache(forest, x)
    return _task_gradient_cached(forest, x, y, cache,
                                 ForestGradient.zeros(forest.shape))


def _task_gradient_cached(forest: ObliqueForest, x: np.ndarray, y: int,
                          cache: _ForwardCache,
                          out: ForestGradient) -> ForestGradient:
    """The task gradient from a forward cache, written into ``out``."""
    if not np.isfinite(cache.output).all():
        raise NumericalError(
            f"forest output is not finite: {cache.output!r}"
        )
    residual = softmax(cache.output)
    residual[y] -= 1.0
    t = forest.tree_count
    np.multiply(cache.leaf_probs[:, :, None], residual, out=out.leaves)
    out.leaves /= t
    leaf_sensitivity = np.einsum("tlc,c->tl", forest.leaves, residual) / t
    # Each path entry adds its leaf's sensitivity to the node it differentiates.
    path_terms = cache.leaf_jac * leaf_sensitivity[:, None, :]
    dldn = np.bincount(
        _path_nodes(t, forest.height).ravel(), weights=path_terms.ravel(),
        minlength=cache.gates.size,
    ).reshape(cache.gates.shape)
    np.multiply(dldn, cache.slope, out=out.biases)
    np.multiply(out.biases[:, :, None], x, out=out.weights)
    return out


def fairness_gradient(store: AggregateStore, penalty: HuberPenalty,
                      shape: ForestShape,
                      out: ForestGradient | None = None) -> ForestGradient:
    """Weighted Huber-penalty gradient from the store's running means,
    written into ``out`` when given.

    One sum over the notion's warm contrasts (see
    ``RunningMeans.contrast_sum``); cold contrasts contribute zero.  The
    penalty weight is folded in here; leaf rows are zero.
    """
    if (store.shape.tree_count, store.shape.n_nodes, store.shape.n_features) != (
        shape.tree_count, shape.n_nodes, shape.n_features
    ):
        raise ShapeError("store and forest shapes disagree")
    if out is None:
        out = ForestGradient.zeros(shape)
    if penalty.weight == 0.0:
        out.vector.fill(0.0)
        return out
    grad_w, grad_b = store.gap_gradients(penalty.delta)
    np.multiply(grad_w, penalty.weight, out=out.weights)
    np.multiply(grad_b, penalty.weight, out=out.biases)
    out.leaves.fill(0.0)
    return out


def total_gradient(task: ForestGradient, fairness: ForestGradient,
                   out: ForestGradient | None = None) -> ForestGradient:
    """Sum of the task and fairness gradients, written into ``out`` when
    given."""
    if out is None:
        out = ForestGradient.zeros(task.shape)
    np.add(task.vector, fairness.vector, out=out.vector)
    return out


def gradient_norm(grad: ForestGradient) -> float:
    """Euclidean norm over every parameter of the forest."""
    return math.sqrt(grad.vector @ grad.vector)
