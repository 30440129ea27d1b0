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
+1) or right (1, sign -1) below it.  Per height this is three cached
``(h, 2**h)`` arrays (ancestor rows, signs, edge columns); nothing of the
size ``(2**h - 1) x 2**h`` of a dense ancestor mask is ever built.
The sums of any per-leaf quantity below every node's two children come
from one segmented sum over each tree's leaf row (``_subtree_plan``).

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
def _path_edges(height: int) -> np.ndarray:
    """Column of each path factor in a tree's edge array, shape (h, 2**h).

    The edge array holds the left-edge factor of every node followed by
    its right-edge factor (see ``_node_edges``), so the depth-``i``
    ancestor contributes column ``node`` where the leaf hangs left of it
    and column ``m + node`` where it hangs right.
    """
    right = _path_signs(height) < 0
    edges = _ancestor_rows(height) + right * (2**height - 1)
    edges.setflags(write=False)
    return edges


@lru_cache(maxsize=None)
def _subtree_plan(height: int) -> tuple[np.ndarray, np.ndarray]:
    """Segment bounds and gather order that sum a tree's leaf row below
    every node's left and right child, shapes (2m + h,) and (2m,).

    ``np.add.reduceat(row, bounds, axis=-1)`` over a leaf row padded
    with one trailing zero (length ``2**h + 1``) gives, per depth ``k``
    from the root down, the sum over each child's leaves (the children
    start at the multiples of ``2**(h - k - 1)``), then an unused entry
    for the sentinel ``2**h`` that closes the depth's last segment at the
    tree's end.  ``order`` takes those sums to ``[below right child of
    every node | below left child of every node]``, nodes breadth-first.
    """
    # Every non-root node breadth-first, its depth, and its position in
    # ``bounds``: one sentinel follows each depth.
    child = np.arange(1, 2 ** (height + 1) - 1)
    depth = np.repeat(np.arange(1, height + 1), 2 ** np.arange(1, height + 1))
    position = child + depth - 2
    bounds = np.full(child.size + height, 2**height)
    bounds[position] = (child + 1 - (1 << depth)) << (height - depth)
    # Node i's children are 2i + 1 (left) and 2i + 2 (right).
    order = np.concatenate([position[1::2], position[0::2]])
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
    a forest-layout vector, and the per-tree views of the node block:
    ``weights`` ``(T, m, d)`` (strided) and ``biases`` ``(T, m)``."""
    nodes, leaves = _block_views(vector, shape.param_shapes)
    return nodes, leaves, np.moveaxis(nodes[1:], 0, -1), nodes[0]


class ObliqueForest:
    """An ensemble of soft-routed oblique trees sharing one geometry.

    Every parameter lives in one contiguous float64 ``vector``: the node
    block ``nodes`` ``(d + 1, T, m)``, laid out as the stores' gradient
    rows, then ``leaves`` ``(T, 2**h, c)``.  These, and the node block's
    per-tree ``weights`` ``(T, m, d)`` and ``biases`` ``(T, m)``, are
    views into it, so an in-place update through any of them is seen by
    all.
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
        self.nodes, self.leaves, self.weights, self.biases = _forest_views(
            self.vector, self.shape)
        # The routing core's gather index, writable on purpose: ``np.take``
        # copies a read-only index array on every call.
        self.path_columns = np.array(_path_edges(self.height))
        # The task gradient's segmented-sum indices, writable for the same
        # reason (``np.add.reduceat`` copies a read-only one too).
        self.subtree_bounds, self.subtree_order = (
            np.array(index) for index in _subtree_plan(self.height))

    @classmethod
    def from_arrays(cls, height: int, weights: np.ndarray, biases: np.ndarray,
                    leaves: np.ndarray) -> "ObliqueForest":
        """Pack stacked per-tree arrays into a new forest's vector.

        Refuses arrays that do not describe ``T`` trees of one geometry
        (``ShapeError``) or that hold non-finite values
        (``ConfigurationError``).
        """
        arrays = [np.asarray(a, dtype=np.float64) for a in (weights, biases, leaves)]
        if arrays[0].ndim != 3 or arrays[2].ndim != 3:
            raise ShapeError(
                "weights and leaves must be stacked per tree, (T, m, d) and "
                f"(T, 2**h, c), got {arrays[0].shape} and {arrays[2].shape}"
            )
        forest = cls(ForestShape(arrays[0].shape[0], height, arrays[0].shape[2],
                                 arrays[2].shape[2]))
        for name, view, array in zip(("weights", "biases", "leaves"),
                                     (forest.weights, forest.biases, forest.leaves),
                                     arrays):
            if array.shape != view.shape:
                raise ShapeError(
                    f"{name} must have shape {view.shape}, got {array.shape}"
                )
            if not np.isfinite(array).all():
                raise ConfigurationError(f"forest {name} contain non-finite values")
            view[...] = array
        return forest

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
        forest.weights[...] = rng.uniform(-bound, bound, size=forest.weights.shape)
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
        clone.path_columns = self.path_columns
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


def _node_edges(z: np.ndarray) -> np.ndarray:
    """Routing factors of both edges of every node, from pre-activations.

    ``z`` is ``(..., m)``; the result is ``(..., 2m)``: the gate outputs
    ``1 / (1 + exp(-z))`` (left edges) followed by ``1 / (1 + exp(z))``
    (right edges).  The right edge is never formed as ``1 - left``, which
    cancels to exactly 0 once ``z`` exceeds about 37.  Past about 709.8
    ``exp`` overflows to ``inf`` and the edge is exactly 0; no clamp, so
    a saturated gate keeps that exact 0.  The logistic runs in place: for
    a batch, a second array of the edges' size costs more than the
    logistic itself, and the overflow is silenced only when some edge
    can overflow: entering ``np.errstate`` costs more than a small ``exp``.
    """
    edges = np.concatenate([-z, z], axis=-1)
    if edges.max() > 709.0:
        with np.errstate(over="ignore"):
            np.exp(edges, out=edges)
    else:
        np.exp(edges, out=edges)
    edges += 1.0
    return np.reciprocal(edges, out=edges)


def _all_node_outputs(forest: ObliqueForest, features: np.ndarray) -> np.ndarray:
    """Edge factors of every node of every tree, ``(..., d)`` ->
    ``(..., T, 2m)``: the gate outputs in the first ``m`` columns, their
    complements after.

    The package's one pre-activation expression.  A stacked vector-matrix
    product rounds the same for an instance alone and as a batch row, so
    the training step, ``forward`` and ``forward_batch`` agree bit for bit.
    """
    rows = forest.nodes[1:].reshape(forest.n_features, -1)  # (d, T * m)
    z = np.matmul(features[..., None, :], rows)
    return _node_edges(z.reshape(features.shape[:-1] + forest.biases.shape)
                       + forest.biases)


def _leaf_probability_gradients_stacked(edges: np.ndarray,
                                        forest: ObliqueForest) -> np.ndarray:
    """Leaf probabilities from ``forest``'s edge factors, ``(..., 2m)`` ->
    ``(..., 2**h)``: the product of each leaf's path factors in
    root-to-leaf order, gathered through the forest's ``path_columns``.
    The routing core of every evaluation, one instance or a batch; no
    Jacobian is formed (gradients come from ``gradients._ForwardCache``).
    """
    return np.take(edges, forest.path_columns, axis=-1).prod(axis=-2)


def _mix_leaves(forest: ObliqueForest, leaf_probs: np.ndarray) -> np.ndarray:
    """Forest output from leaf probabilities, ``(..., T, 2**h)`` ->
    ``(..., c)``: each tree's probability-weighted leaf rows, averaged."""
    return np.einsum("...tl,tlc->...c", leaf_probs, forest.leaves) / forest.tree_count


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
    edges = _all_node_outputs(forest, features)
    return _mix_leaves(forest,
                       _leaf_probability_gradients_stacked(edges, forest))


def predict(forest: ObliqueForest, x: np.ndarray) -> int:
    """Class prediction: argmax of the forest output, lowest index on ties."""
    if forest.n_outputs < 2:
        raise ConfigurationError(
            "predict needs at least two output classes; "
            f"this forest has {forest.n_outputs}"
        )
    return int(np.argmax(forward(forest, x)))
