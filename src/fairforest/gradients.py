"""Closed-form gradients: task loss, fairness penalty, and their sum.

The task loss is cross-entropy of a softmax over the forest output.  Its
gradient is assembled analytically from the leaf probabilities and the
gate edges, never by automatic differentiation and without forming a
leaf Jacobian.

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
    _check_features,
    _forest_views,
    _leaf_probability_gradients_stacked,
    _mix_leaves,
    _path_edges,
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
    one flat ``vector`` with the same four views as ``ObliqueForest``."""

    def __init__(self, shape: ForestShape, vector: np.ndarray):
        self.shape = shape
        self.vector = vector
        self.nodes, self.leaves, self.weights, self.biases = _forest_views(
            vector, shape)

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
    the forest output.  The path-form leaf Jacobian ``leaf_jac`` is built
    only when read; the task gradient never reads it."""

    __slots__ = ("edges", "gates", "slope", "leaf_probs", "output")

    # Ignored ``mask``: perfbench/run.py jacobian_counts passes one.
    def __init__(self, forest: ObliqueForest, x: np.ndarray, mask=None):
        n_nodes = forest.shape.n_nodes
        self.edges = _all_node_outputs(forest, x)  # (T, 2m)
        self.gates = self.edges[:, :n_nodes]  # (T, m)
        # The gate slope n (1 - n), from both edges so a saturated gate
        # keeps its tiny slope instead of cancelling to 0.
        self.slope = self.gates * self.edges[:, n_nodes:]
        self.leaf_probs = _leaf_probability_gradients_stacked(self.edges, forest)
        self.output = _mix_leaves(forest, self.leaf_probs)

    @property
    def leaf_jac(self) -> np.ndarray:
        """Path-form Jacobian of the leaf probabilities in the node biases,
        (T, h, 2**h): ``_leaf_jacobian``, seen tree-major."""
        tree_count, n_nodes = self.gates.shape
        index = _leaf_jacobian_index(_path_edges(n_nodes.bit_length()), tree_count)
        return _leaf_jacobian(self.edges, self.leaf_probs, index).transpose(1, 0, 2)


def _leaf_jacobian_index(path_columns: np.ndarray, tree_count: int) -> np.ndarray:
    """Flat position, in a ``(T, 2m)`` edge array, of the path factor of
    every (depth, tree, leaf): a forest's ``path_columns`` offset by each
    tree's row, shape (h, T, 2**h)."""
    row = 2 * (path_columns.shape[1] - 1)
    return path_columns[:, None, :] + row * np.arange(tree_count)[:, None]


def _leaf_jacobian(edges: np.ndarray, leaf_probs: np.ndarray,
                   index: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Path-form Jacobian of the leaf probabilities in the node biases,
    (h, T, 2**h), from the ``(T, 2m)`` edges, the ``(T, 2**h)`` leaf
    probabilities and ``_leaf_jacobian_index``: entry ``[k, t, l]`` is the
    derivative of leaf ``l``'s probability in the bias of its depth-``k``
    ancestor, ``p_l`` times the ancestor's other edge, signed by the side
    the leaf hangs on.

    One gather of the signed other-edge row ``[right | -left]`` through
    the path columns (a leaf hanging left of a node reads the node's left
    column, so there it finds ``+right``), written into ``out`` when
    given, then one multiply by ``p`` in place.
    """
    m = edges.shape[-1] // 2
    signed = np.concatenate([edges[:, m:], -edges[:, :m]], axis=-1)
    # Every index is in range; "clip" skips the copy that "raise" makes
    # of the output before writing it.
    out = np.take(signed, index, out=out, mode="clip")
    out *= leaf_probs
    return out


def task_gradient(forest: ObliqueForest, x: np.ndarray, y: int) -> ForestGradient:
    """Cross-entropy gradient for one labeled instance.

    Leaf rows receive their own leaf probability times the softmax
    residual; a node's bias receives the residual-weighted probability
    below its left child times its right edge, minus that below its right
    child times its left edge, which never divides, so saturated gates
    keep their exact gradient.  Weights receive the bias gradient times x.
    """
    x = _check_features(forest, x)
    if not isinstance(y, (int, np.integer)) or isinstance(y, bool):
        raise ShapeError(f"label must be an integer, got {y!r}")
    if not 0 <= y < forest.n_outputs:
        raise ShapeError(f"label {y} outside [0, {forest.n_outputs})")
    cache = _ForwardCache(forest, x)
    if not np.isfinite(cache.output).all():
        raise NumericalError(f"forest output is not finite: {cache.output!r}")
    return _task_gradient_cached(forest, x, y, cache,
                                 ForestGradient.zeros(forest.shape))


def _task_gradient_cached(forest: ObliqueForest, x: np.ndarray, y: int,
                          cache: _ForwardCache,
                          out: ForestGradient) -> ForestGradient:
    """The task gradient from a forward cache, written into ``out``.  The
    caller has checked that the forest output is finite."""
    residual = softmax(cache.output)
    residual[y] -= 1.0
    t, m = forest.tree_count, forest.shape.n_nodes
    residual /= t
    np.multiply(cache.leaf_probs[:, :, None], residual, out=out.leaves)
    # Each tree's leaf terms sensitivity * probability, padded with one
    # zero, summed below every node's right and left child at once
    # (``forest._subtree_plan``).
    terms = np.zeros((t, m + 2))
    np.matmul(forest.leaves, residual, out=terms[:, :-1])
    terms[:, :-1] *= cache.leaf_probs
    below = np.add.reduceat(terms, forest.subtree_bounds, axis=1).take(
        forest.subtree_order, axis=1)
    # d p_l / d b_i is +p_l times the right edge of node i for the leaves
    # below its left child, -p_l times its left edge below its right child.
    below *= cache.edges
    np.subtract(below[:, m:], below[:, :m], out=out.biases)
    # Weight rows: x times the bias gradient, feature-major, as the
    # store stages its gradient rows.
    np.multiply(x[:, None, None], out.biases, out=out.nodes[1:])
    return out


def fairness_gradient(store: AggregateStore, penalty: HuberPenalty,
                      shape: ForestShape,
                      out: ForestGradient | None = None) -> ForestGradient:
    """Weighted Huber-penalty gradient from the store's running sums,
    written into ``out`` when given.

    One Huber contrast product over the notion's contrast weights (see
    ``RunningMeans.contrast_sum``), laid out as the node block, times the
    penalty weight; cold contrasts contribute zero, leaf rows are zero.
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
    np.multiply(store.contrast_sum(penalty.delta), penalty.weight,
                out=out.nodes)
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
