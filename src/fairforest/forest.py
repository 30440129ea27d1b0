"""Soft-routed oblique decision trees and their forests.

A tree of height ``h`` has ``2**h - 1`` internal nodes stored in
breadth-first order and ``2**h`` leaves.  Each internal node gates on a
linear function of the full feature vector through a logistic, so every
instance reaches every leaf with some probability: the product of the
gate outputs (left edges) and their complements (right edges) along the
root-to-leaf path.  A tree's output is the probability-weighted mix of
its leaf rows; a forest averages its trees.

The routing structure is read off the bits of the leaf index, in path
form: leaf ``l``'s depth-``k`` ancestor is node ``2**k - 1 + (l >> (h - k))``,
and bit ``h - 1 - k`` of ``l`` says whether the path turns left (0, sign
+1) or right (1, sign -1) below it.  Per height this is two cached
``(h, 2**h)`` arrays (ancestor rows and signs), and per forest shape one
``(T, h, 2**h)`` index of every path factor in the forest's edge array;
nothing of the size ``(2**h - 1) x 2**h`` of a dense ancestor mask is
ever built.  The sums of any per-leaf quantity below every node's two
children come from one segmented sum over the trees' leaf rows
(``_subtree_plan``).

One evaluation, for one instance or a batch, is three products over the
forest's flat blocks: one gemv of the augmented features ``[1, x]`` with
the node block ``(d + 1, T * m)`` (row 0 the biases, so no bias add),
written as the right-edge row of a ``(2, T, m)`` edge array and negated
into its left-edge row, then the logistic over both in place; one gather
of every leaf's path factors and their product; one gemv of the flat leaf
probabilities with the leaf rows ``(T * 2**h, c)``, divided by ``T``.

A leaf probability's derivative in a node's bias is read off the same
path, without dividing: ``+p_l`` times the node's right edge when leaf
``l`` hangs left of it, ``-p_l`` times its left edge when it hangs right.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, ShapeError

MAX_HEIGHT = 16

# The logistic's 1, as a read-only 0-d operand: a ufunc call converts a
# Python float operand every time.
_ONE = np.array(1.0)
_ONE.setflags(write=False)


class ForestShape(NamedTuple):
    """Static dimensions shared by every tree of a forest."""

    tree_count: int
    height: int
    n_features: int
    n_outputs: int

    @property
    def n_nodes(self) -> int:
        return 2**self.height - 1

    @property
    def n_leaves(self) -> int:
        return 2**self.height

    @property
    def param_shapes(self) -> tuple:
        """Shapes of the node block (biases, then weights feature-major)
        and the leaf block of a parameter vector."""
        t, m = self.tree_count, self.n_nodes
        return ((self.n_features + 1, t, m), (t, m + 1, self.n_outputs))

    @property
    def n_params(self) -> int:
        return sum(math.prod(shape) for shape in self.param_shapes)


def _check_height(height) -> None:
    """Raise ConfigurationError unless ``height`` is an integer in
    ``[1, MAX_HEIGHT]``."""
    if not isinstance(height, (int, np.integer)) or isinstance(height, bool):
        raise ConfigurationError(f"tree height must be an integer, got {height!r}")
    if not 1 <= height <= MAX_HEIGHT:
        raise ConfigurationError(
            f"tree height must be in [1, {MAX_HEIGHT}], got {height}"
        )


@lru_cache(maxsize=None)
def _ancestor_rows(height: int) -> np.ndarray:
    """Flat index of the depth-``i`` ancestor of each leaf, shape (h, 2**h)."""
    leaf = np.arange(2**height)
    rows = np.stack([(1 << d) - 1 + (leaf >> (height - d)) for d in range(height)])
    rows.setflags(write=False)
    return rows


@lru_cache(maxsize=None)
def _path_signs(height: int) -> np.ndarray:
    """Sign of each leaf's path factor at its depth-``i`` ancestor, shape
    (h, 2**h): +1 where the leaf hangs left of that ancestor, -1 where it
    hangs right.  The turn below depth ``i`` is bit ``h - 1 - i`` of the
    leaf index."""
    leaf = np.arange(2**height)
    turn = (leaf >> (height - 1 - np.arange(height))[:, None]) & 1
    signs = (1 - 2 * turn).astype(np.float64)
    signs.setflags(write=False)
    return signs


@lru_cache(maxsize=None)
def _path_edges(height: int, tree_count: int) -> np.ndarray:
    """Position of each path factor in a forest's flat edge array, shape
    (T, h, 2**h).

    The edge array is ``(2, T, m)``: the left-edge factor of every node,
    then its right-edge factor (see ``_node_edges``), so tree ``t``'s
    depth-``i`` ancestor ``node`` contributes position ``t * m + node``
    where the leaf hangs left of it and ``(T + t) * m + node`` where it
    hangs right.
    """
    m = 2**height - 1
    right = _path_signs(height) < 0
    edges = _ancestor_rows(height) + m * (
        np.arange(tree_count)[:, None, None] + tree_count * right)
    edges.setflags(write=False)
    return edges


@lru_cache(maxsize=None)
def _subtree_plan(height: int,
                  tree_count: int) -> tuple[np.ndarray, np.ndarray]:
    """Segment bounds and gather order that sum every tree's leaf row
    below every node's left and right child, shapes (T (2m + h),) and
    (2, T, m).

    ``np.add.reduceat(row, bounds)`` over the trees' leaf rows end to end
    plus one trailing pad entry (length ``T * 2**h + 1``; the pad makes
    the last sentinel a valid index and no used sum reads it) gives, per
    tree and
    per depth ``k`` from the root down, the sum over each child's leaves
    (the children start at the multiples of ``2**(h - k - 1)``), then an
    unused entry for the sentinel at the tree's end that closes the
    depth's last segment.  ``order`` takes those sums to the layout of an
    edge array: the sums below every node's right child, then below its
    left child, nodes breadth-first.
    """
    # Every non-root node breadth-first, its depth, and its position in
    # one tree's ``bounds``: one sentinel follows each depth.
    leaves = 2**height
    child = np.arange(1, 2 * leaves - 1)
    depth = np.repeat(np.arange(1, height + 1), 2 ** np.arange(1, height + 1))
    position = child + depth - 2
    tree_bounds = np.full(child.size + height, leaves)
    tree_bounds[position] = (child + 1 - (1 << depth)) << (height - depth)
    # Node i's children are 2i + 1 (left) and 2i + 2 (right).
    tree_order = np.stack([position[1::2], position[0::2]])[:, None, :]
    tree = np.arange(tree_count)[:, None]
    bounds = (tree_bounds + tree * leaves).ravel()
    order = tree_order + tree * tree_bounds.size
    bounds.setflags(write=False)
    order.setflags(write=False)
    return bounds, order


def _block_views(vector: np.ndarray, shapes) -> list[np.ndarray]:
    """Reshaped views of the consecutive blocks of a flat vector."""
    views, start = [], 0
    for shape in shapes:
        stop = start + math.prod(shape)
        views.append(vector[start:stop].reshape(shape))
        start = stop
    return views


def _forest_views(vector: np.ndarray, shape: ForestShape) -> tuple:
    """The node block ``(d + 1, T, m)`` and leaf rows ``(T, 2**h, c)`` of
    a forest-layout vector, and the same two blocks flat as the
    evaluation's matrices, ``node_rows`` ``(d + 1, T * m)`` and
    ``leaf_rows`` ``(T * 2**h, c)``."""
    nodes, leaves = _block_views(vector, shape.param_shapes)
    return (nodes, leaves, nodes.reshape(shape.n_features + 1, -1),
            leaves.reshape(-1, shape.n_outputs))


class ObliqueForest:
    """An ensemble of soft-routed oblique trees sharing one geometry.

    Every parameter lives in one contiguous float64 ``vector``: the node
    block ``nodes`` ``(d + 1, T, m)``, laid out as the stores' gradient
    rows (row 0 the biases, rows 1..d the weights, feature-major), then
    ``leaves`` ``(T, 2**h, c)``.  These and the same blocks flat
    (``node_rows``, ``leaf_rows``) are contiguous views into it, so an
    in-place update through any of them is seen by all.
    """

    def __init__(self, shape: ForestShape):
        """An all-zero forest of the given shape."""
        _check_height(shape.height)
        if shape.tree_count < 1:
            raise ConfigurationError("a forest needs at least one tree")
        if shape.n_features < 1 or shape.n_outputs < 1:
            raise ConfigurationError("n_features and n_outputs must be >= 1")
        self.shape = ForestShape(*(int(n) for n in shape))
        self.height = self.shape.height
        self.vector = np.zeros(self.shape.n_params)
        (self.nodes, self.leaves, self.node_rows,
         self.leaf_rows) = _forest_views(self.vector, self.shape)
        # The routing core's gather index and the task gradient's
        # segmented-sum indices, writable on purpose: ``take`` and
        # ``np.add.reduceat`` copy a read-only index on every call.
        plan = self.height, self.tree_count
        self.path_index = np.array(_path_edges(*plan))
        self.subtree_bounds, self.subtree_order = (
            np.array(index) for index in _subtree_plan(*plan))

    @classmethod
    def random(cls, height: int, n_features: int, n_outputs: int,
               tree_count: int = 3,
               rng: np.random.Generator | int | None = 0) -> "ObliqueForest":
        """Draw a fresh forest: node weights uniform on ±2/sqrt(d), biases
        zero, leaf rows uniform on ±0.1.

        The weight bound keeps freshly drawn gates responsive even when
        callers feed inputs rescaled into the unit ball, where a tighter
        bound would leave every gate stuck near one half for thousands of
        steps.
        """
        forest = cls(ForestShape(tree_count, height, n_features, n_outputs))
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        bound = 2.0 / np.sqrt(n_features)
        # Drawn per tree, (T, m, d), so a seed gives the same forest
        # whatever the storage layout.
        weights = rng.uniform(-bound, bound,
                              size=(tree_count, forest.shape.n_nodes, n_features))
        forest.nodes[1:] = np.moveaxis(weights, -1, 0)
        forest.leaves[...] = rng.uniform(-0.1, 0.1, size=forest.leaves.shape)
        return forest

    @property
    def tree_count(self) -> int:
        return self.shape.tree_count

    @property
    def n_features(self) -> int:
        return self.shape.n_features

    @property
    def n_outputs(self) -> int:
        return self.shape.n_outputs

    def copy(self) -> "ObliqueForest":
        clone = ObliqueForest(self.shape)
        clone.vector[...] = self.vector
        # The indices are never written; share them.
        clone.path_index = self.path_index
        clone.subtree_bounds = self.subtree_bounds
        clone.subtree_order = self.subtree_order
        return clone


def _check_features(forest: ObliqueForest, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (forest.n_features,):
        raise ShapeError(
            f"expected feature vector of shape ({forest.n_features},), got {x.shape}"
        )
    return x


class _Pass:
    """The buffers of one evaluation of a forest of ``shape`` over
    instances of batch shape ``batch`` (``()`` for one instance), and the
    views of them that the evaluation's products read and write, built
    once, so an evaluation over a kept pass allocates nothing.

    ``xa`` ``(..., d + 1)`` holds the augmented instances ``[1, x]``:
    write the features into ``x``; the leading 1 is never overwritten.
    ``edges`` ``(..., 2, T, m)`` holds every node's left edge (its gate
    output, also seen as ``gates``) and right edge (``right``),
    ``gathered`` ``(..., T, h, 2**h)`` the path factors, ``leaf_probs``
    ``(..., T, 2**h)`` their products and ``output`` ``(..., c)`` the
    forest output.
    """

    def __init__(self, shape: ForestShape, batch: tuple = ()):
        t, h, d, c = shape
        m, leaves = shape.n_nodes, shape.n_leaves
        self.xa = np.ones(batch + (d + 1,))
        self.x = self.xa[..., 1:]
        self.edges = np.empty(batch + (2, t, m))
        self.gates = self.edges[..., 0, :, :]
        self.right = self.edges[..., 1, :, :]
        self.gathered = np.empty(batch + (t, h, leaves))
        self.leaf_probs = np.empty(batch + (t, leaves))
        self.output = np.empty(batch + (c,))
        # The mix's divisor T as a 0-d float, exact in float64: an int
        # operand costs a ufunc call a conversion.
        self.tree_divisor = np.array(float(t))
        self.tree_divisor.setflags(write=False)
        # Row-vector views for the stacked vector-matrix products, and the
        # edges flat for the gather.
        self.xa_rows = self.xa[..., None, :]
        edge_rows = self.edges.reshape(batch + (2, t * m))
        self.z_rows = edge_rows[..., 1:, :]
        self.left_row = edge_rows[..., 0, :]
        self.right_row = edge_rows[..., 1, :]
        self.flat_edges = self.edges.reshape(batch + (-1,))
        self.prob_rows = self.leaf_probs.reshape(batch + (1, t * leaves))
        self.output_rows = self.output[..., None, :]


def _node_edges(edges: np.ndarray) -> np.ndarray:
    """The logistic of ``[-z, z]``, in place: from the negated and the
    plain pre-activations, the gate outputs ``1 / (1 + exp(-z))`` (left
    edges) and ``1 / (1 + exp(z))`` (right edges).

    The right edge is never formed as ``1 - left``, which cancels to
    exactly 0 once ``z`` exceeds about 37.  Past about 709.8 ``exp``
    overflows to ``inf`` and the edge is exactly 0; no clamp, so a
    saturated gate keeps that exact 0.  The overflow is silenced only
    when some edge can overflow: entering ``np.errstate`` costs more than
    a small ``exp``.
    """
    if np.maximum.reduce(edges, axis=None) > 709.0:
        with np.errstate(over="ignore"):
            np.exp(edges, out=edges)
    else:
        np.exp(edges, out=edges)
    np.add(edges, _ONE, out=edges)
    return np.reciprocal(edges, out=edges)


def _all_node_outputs(forest: ObliqueForest, p: _Pass) -> np.ndarray:
    """Edge factors of every node of every tree, from the pass's
    augmented instances into its ``edges`` ``(..., 2, T, m)``: the gate
    outputs, then their complements.

    The package's one pre-activation expression: a stacked
    vector-matrix product of each row ``[1, x]`` with the node block,
    written as the right-edge row and negated into the left-edge row.  It
    rounds the same for an instance alone and as a batch row, so the
    training step, ``forward`` and ``forward_batch`` agree bit for bit.
    """
    np.matmul(p.xa_rows, forest.node_rows, out=p.z_rows)
    np.negative(p.right_row, out=p.left_row)
    _node_edges(p.flat_edges)
    return p.edges


def _leaf_probability_gradients_stacked(forest: ObliqueForest,
                                        p: _Pass) -> np.ndarray:
    """Leaf probabilities from the pass's edges into its ``leaf_probs``
    ``(..., T, 2**h)``: the product of each leaf's path factors in
    root-to-leaf order, gathered through the forest's ``path_index``.
    The routing core of every evaluation, one instance or a batch; no
    Jacobian is formed (gradients come from ``gradients._ForwardCache``).
    """
    # Every index is in range; "clip" skips the copy that "raise" makes
    # of the output before writing it.
    p.flat_edges.take(forest.path_index, -1, p.gathered, "clip")
    return np.multiply.reduce(p.gathered, axis=-2, out=p.leaf_probs)


def _mix_leaves(forest: ObliqueForest, p: _Pass) -> np.ndarray:
    """Forest output from the pass's leaf probabilities into its
    ``output`` ``(..., c)``: one stacked vector-matrix product of the flat
    leaf probabilities with the leaf rows, divided by the pass's ``T``,
    the same for an instance alone and as a batch row."""
    np.matmul(p.prob_rows, forest.leaf_rows, out=p.output_rows)
    return np.true_divide(p.output, p.tree_divisor, out=p.output)


def _evaluate(forest: ObliqueForest, features: np.ndarray) -> _Pass:
    """A new pass of ``forest`` over ``features`` ``(..., d)``: its edges,
    leaf probabilities and outputs."""
    p = _Pass(forest.shape, features.shape[:-1])
    p.x[...] = features
    _all_node_outputs(forest, p)
    _leaf_probability_gradients_stacked(forest, p)
    _mix_leaves(forest, p)
    return p


def forward(forest: ObliqueForest, x: np.ndarray) -> np.ndarray:
    """Forest output for one instance: arithmetic mean of tree outputs."""
    return forward_batch(forest, _check_features(forest, x)[None])[0]


def forward_batch(forest: ObliqueForest, features: np.ndarray,
                  mask=None) -> np.ndarray:
    """Forest outputs for a batch of instances, shape (n, c)."""
    # Ignored ``mask``: perfbench/run.py holdout_disagreements passes one.
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != forest.n_features:
        raise ShapeError(
            f"expected feature matrix of shape (n, {forest.n_features}), "
            f"got {features.shape}"
        )
    if not len(features):
        return np.zeros((0, forest.n_outputs))
    return _evaluate(forest, features).output


def predict(forest: ObliqueForest, x: np.ndarray) -> int:
    """Class prediction: argmax of the forest output, lowest index on ties."""
    if forest.n_outputs < 2:
        raise ConfigurationError(
            "predict needs at least two output classes; "
            f"this forest has {forest.n_outputs}"
        )
    return int(np.argmax(forward(forest, x)))
