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
from functools import lru_cache

import numpy as np

from .errors import NumericalError, ShapeError
from .forest import (
    ForestShape,
    ObliqueForest,
    _Pass,
    _all_node_outputs,
    _check_features,
    _forest_views,
    _leaf_probability_gradients_stacked,
    _mix_leaves,
    _path_edges,
    _path_signs,
)
from .stats import AggregateStore


class ForestGradient:
    """Gradient over every parameter of a forest, in the forest's layout:
    one flat ``vector`` with the same four views as ``ObliqueForest``."""

    def __init__(self, shape: ForestShape, vector: np.ndarray):
        self.shape = shape
        self.vector = vector
        (self.nodes, self.leaves, self.node_rows,
         self.leaf_rows) = _forest_views(vector, shape)

    @classmethod
    def zeros(cls, shape: ForestShape) -> "ForestGradient":
        return cls(shape, np.zeros(shape.n_params))


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max()
    exps = np.exp(shifted)
    return exps / exps.sum()


def cross_entropy(logits: np.ndarray, label: int) -> float:
    """Negative log softmax probability of the label."""
    shifted = logits - logits.max()
    return float(np.log(np.exp(shifted).sum()) - shifted[label])


class _Workspace(_Pass):
    """One instance's forward pass (``forest._Pass``) and the scratch of
    its task gradient over forests of one shape, built once, so a step
    allocates nothing of the forest's size.  The task gradient's
    ``terms`` end in one pad entry, so the segmented sum's last sentinel
    is a valid index; no sum that is used reads it."""

    def __init__(self, shape: ForestShape):
        super().__init__(shape)
        t, h = shape.tree_count, shape.height
        m, leaves = shape.n_nodes, shape.n_leaves
        self.slope = np.empty((t, m))
        self.residual = np.empty(shape.n_outputs)
        self.terms = np.zeros(t * leaves + 1)
        self.sums = np.empty(t * (2 * m + h))
        self.below = np.empty((2, t, m))
        self.bias_grad = np.empty((1, t * m))
        # Views laid out as the products that read them.
        self.residual_row = self.residual[None, :]
        self.leaf_flat = self.leaf_probs.reshape(-1)
        self.leaf_column = self.leaf_flat[:, None]
        self.leaf_terms = self.terms[:-1]
        self.below_right, self.below_left = self.below.reshape(2, 1, -1)
        self.xa_column = self.xa[:, None]


class _ForwardCache:
    """Per-instance forward intermediates shared by the gradient paths:
    both edges of every gate ``(2, T, m)``, the gates, the gate slopes,
    the leaf probabilities and the forest output, all held in
    ``workspace``.  Without a workspace the cache
    builds its own, so a later step cannot overwrite it.  The path-form
    leaf Jacobian ``leaf_jac`` is built only when read; the task gradient
    never reads it."""

    __slots__ = ("workspace", "edges", "gates", "slope", "leaf_probs", "output")

    # Ignored ``mask``: perfbench/run.py jacobian_counts passes one.
    def __init__(self, forest: ObliqueForest, x: np.ndarray, mask=None,
                 workspace: _Workspace | None = None):
        if workspace is None:
            workspace = _Workspace(forest.shape)
        ws = self.workspace = workspace
        ws.x[...] = x
        self.edges = _all_node_outputs(forest, ws)
        self.gates = ws.gates
        # The gate slope n (1 - n), from both edges so a saturated gate
        # keeps its tiny slope instead of cancelling to 0.
        self.slope = np.multiply(ws.gates, ws.right, out=ws.slope)
        self.leaf_probs = _leaf_probability_gradients_stacked(forest, ws)
        self.output = _mix_leaves(forest, ws)

    @property
    def leaf_jac(self) -> np.ndarray:
        """Path-form Jacobian of the leaf probabilities in the node biases,
        (T, h, 2**h): ``_leaf_jacobian``, seen tree-major."""
        tree_count, n_nodes = self.gates.shape
        index = _leaf_jacobian_index(n_nodes.bit_length(), tree_count)
        return _leaf_jacobian(self.edges, self.leaf_probs, index).transpose(1, 0, 2)


def _leaf_jacobian_index(height: int, tree_count: int) -> np.ndarray:
    """Flat position, in a ``(2, T, m)`` edge array, of the other edge of
    every (depth, tree, leaf) path factor: ``forest._path_edges``
    depth-major with the left and right halves swapped, shape
    (h, T, 2**h), writable."""
    half = tree_count * (2**height - 1)  # the left edges, then the right
    index = _path_edges(height, tree_count).transpose(1, 0, 2) + half
    return np.ascontiguousarray(index % (2 * half))


@lru_cache(maxsize=None)
def _leaf_jacobian_signs(height: int, tree_count: int) -> np.ndarray:
    """``forest._path_signs`` of every (depth, tree, leaf), shape
    (h, T, 2**h), contiguous so the sign multiply needs no broadcast."""
    signs = np.repeat(_path_signs(height)[:, None], tree_count, axis=1)
    signs.setflags(write=False)
    return signs


def _leaf_jacobian(edges: np.ndarray, leaf_probs: np.ndarray,
                   index: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Path-form Jacobian of the leaf probabilities in the node biases,
    (h, T, 2**h), from the ``(2, T, m)`` edges, the ``(T, 2**h)`` leaf
    probabilities and ``_leaf_jacobian_index``: entry ``[k, t, l]`` is the
    derivative of leaf ``l``'s probability in the bias of its depth-``k``
    ancestor, ``p_l`` times the ancestor's other edge, signed by the side
    the leaf hangs on.

    One gather of the other edges through the index, written into ``out``
    when given, then two multiplies in place: by ``p`` and by the exact
    ±1 path sign (``_leaf_jacobian_signs``), so no signed copy of the
    edges is made.
    """
    # Every index is in range; "clip" skips the copy that "raise" makes
    # of the output before writing it.
    out = edges.reshape(-1).take(index, None, out, "clip")
    np.multiply(out, leaf_probs, out=out)
    np.multiply(out, _leaf_jacobian_signs(*index.shape[:2]), out=out)
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
    return _task_gradient_cached(forest, y, cache,
                                 ForestGradient.zeros(forest.shape))


def _task_gradient_cached(forest: ObliqueForest, y: int,
                          cache: _ForwardCache,
                          out: ForestGradient) -> ForestGradient:
    """The task gradient from a forward cache, written into ``out``
    through the cache's workspace.  The caller has checked that the
    forest output is finite."""
    ws = cache.workspace
    # The softmax residual over a handful of outputs, in Python: numpy's
    # per-call cost outweighs the arithmetic.
    logits = cache.output.tolist()
    top = max(logits)
    exps = [math.exp(v - top) for v in logits]
    total = sum(exps)
    residual = [e / total for e in exps]
    residual[y] -= 1.0
    t = forest.tree_count
    ws.residual[:] = [r / t for r in residual]
    # Leaf rows: each leaf's probability times the residual, one product
    # per entry, as a K=1 matrix product (a broadcast multiply stages its
    # operands through numpy's iteration buffers).
    np.matmul(ws.leaf_column, ws.residual_row, out=out.leaf_rows)
    # Every leaf's term sensitivity * probability, trees end to end and
    # followed by the pad, summed below every node's right and left child
    # at once (``forest._subtree_plan``), in the edges' layout.
    np.matmul(forest.leaf_rows, ws.residual, out=ws.leaf_terms)
    np.multiply(ws.leaf_terms, ws.leaf_flat, out=ws.leaf_terms)
    np.add.reduceat(ws.terms, forest.subtree_bounds, out=ws.sums)
    ws.sums.take(forest.subtree_order, None, ws.below, "clip")
    # d p_l / d b_i is +p_l times the right edge of node i for the leaves
    # below its left child, -p_l times its left edge below its right child.
    np.multiply(ws.below, cache.edges, out=ws.below)
    np.subtract(ws.below_left, ws.below_right, out=ws.bias_grad)
    # The node block: [1, x] times the bias gradient, feature-major, as
    # the store stages its gradient rows.
    np.multiply(ws.xa_column, ws.bias_grad, out=out.node_rows)
    return out


def fairness_gradient(store: AggregateStore, delta: float, weight: float,
                      out: ForestGradient) -> ForestGradient:
    """Huber-penalty gradient of width ``delta`` from the store's running
    sums, times the penalty ``weight``, written into ``out``.

    One Huber contrast product over the notion's contrast weights (see
    ``RunningMeans.contrast_sum``), its slopes scaled by the penalty
    weight, written straight into the node block; cold contrasts
    contribute zero.  Leaf rows carry no fairness gradient: they are zero
    in a new gradient and never written here, so a buffer only this
    function writes keeps them zero.
    """
    # Trees, height and features: everything but the outputs.
    if store.shape[:3] != out.shape[:3]:
        raise ShapeError("store and forest shapes disagree")
    store.contrast_sum(delta, weight, out.node_rows)
    return out


def total_gradient(task: ForestGradient, fairness: ForestGradient,
                   out: ForestGradient | None = None) -> ForestGradient:
    """Sum of the task and fairness gradients, written into ``out`` when
    given."""
    if out is None:
        out = ForestGradient.zeros(task.shape)
    np.add(task.vector, fairness.vector, out=out.vector)
    return out


# OpenBLAS splits a dot product over its threads above about 10,000
# entries, and the split changes the summation order with the thread
# count; a dot of at most this many entries is never split.
_NORM_CHUNK = 8192


def _vector_norm(vector: np.ndarray) -> float:
    """Euclidean norm of a flat vector that does not depend on the BLAS
    thread count: one dot up to ``_NORM_CHUNK`` entries, else the dots
    of consecutive ``_NORM_CHUNK``-entry chunks summed in order.  Each
    dot is ``ndarray.dot``, the same BLAS call as ``@`` at about half
    its fixed cost."""
    if vector.size <= _NORM_CHUNK:
        return math.sqrt(vector.dot(vector))
    total = 0.0
    for start in range(0, vector.size, _NORM_CHUNK):
        chunk = vector[start:start + _NORM_CHUNK]
        total += chunk.dot(chunk)
    return math.sqrt(total)


def gradient_norm(grad: ForestGradient) -> float:
    """Euclidean norm over every parameter of the forest
    (``_vector_norm``)."""
    return _vector_norm(grad.vector)
