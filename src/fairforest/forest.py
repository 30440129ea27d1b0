"""Soft-routed oblique decision trees and their forests.

A tree of height ``h`` has ``2**h - 1`` internal nodes stored in
breadth-first order and ``2**h`` leaves.  Each internal node gates on a
linear function of the full feature vector through a logistic, so every
instance reaches every leaf with some probability: the product of the
gate outputs (left edges) and their complements (right edges) along the
root-to-leaf path.  A tree's output is the probability-weighted mix of
its leaf rows; a forest averages its trees.

The routing structure is captured once per height by an ancestor mask:
entry ``(i, j)`` is ``+1`` when leaf ``j`` sits in the left subtree of
node ``i``, ``-1`` when it sits in the right subtree, and ``0`` when
node ``i`` is not an ancestor of leaf ``j``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.special import expit

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
        """Shapes of the weight, bias and leaf blocks of a parameter vector."""
        t, m = self.tree_count, self.n_nodes
        return ((t, m, self.n_features), (t, m), (t, m + 1, self.n_outputs))

    @property
    def n_params(self) -> int:
        return sum(math.prod(shape) for shape in self.param_shapes)


@dataclass
class AncestorMask:
    """Ancestor/descendant structure of a complete binary tree.

    ``entries`` has shape ``(2**height - 1, 2**height)`` with values in
    ``{-1, 0, +1}`` as described in the module docstring.  The array is
    read-only and shared between masks of the same height.
    """

    height: int
    entries: np.ndarray

    @property
    def n_nodes(self) -> int:
        return 2**self.height - 1

    @property
    def n_leaves(self) -> int:
        return 2**self.height


def build_mask(height: int) -> AncestorMask:
    """Build the ancestor mask for a complete tree of the given height.

    Raises ConfigurationError unless ``1 <= height <= 16``.  Entry
    ``(i, j)`` is +1 / -1 / 0 according to whether leaf ``j`` lies in the
    left subtree, the right subtree, or outside the subtree of node ``i``.
    """
    if not isinstance(height, (int, np.integer)) or isinstance(height, bool):
        raise ConfigurationError(f"tree height must be an integer, got {height!r}")
    if not 1 <= height <= MAX_HEIGHT:
        raise ConfigurationError(
            f"tree height must be in [1, {MAX_HEIGHT}], got {height}"
        )
    return AncestorMask(height=int(height), entries=_mask_entries(int(height)))


@lru_cache(maxsize=None)
def _mask_entries(height: int) -> np.ndarray:
    n_nodes = 2**height - 1
    n_leaves = 2**height
    node = np.arange(n_nodes)[:, None]
    # Depth of each node: exponent of the leading bit of (node + 1).
    depth = np.frexp(node + 1)[1] - 1
    # Leaves spanned by each node, in the leaf-absolute numbering where
    # leaf j sits at position 2**height + j.
    span = 2 ** (height - depth)
    first = span * (node + 1)
    pos = n_leaves + np.arange(n_leaves)[None, :]
    entries = np.zeros((n_nodes, n_leaves), dtype=np.int8)
    entries[(pos >= first) & (pos < first + span // 2)] = 1
    entries[(pos >= first + span // 2) & (pos < first + span)] = -1
    entries.setflags(write=False)
    return entries


@lru_cache(maxsize=None)
def _ancestor_rows(height: int) -> np.ndarray:
    """Flat index of the depth-``i`` ancestor of each leaf, shape (h, 2**h)."""
    leaf = np.arange(2**height)
    rows = np.stack([(1 << d) - 1 + (leaf >> (height - d)) for d in range(height)])
    rows.setflags(write=False)
    return rows


@lru_cache(maxsize=None)
def _path_signs(height: int) -> np.ndarray:
    """Mask entry of the depth-``i`` ancestor of each leaf, shape (h, 2**h)."""
    anc = _ancestor_rows(height)
    signs = _mask_entries(height)[anc, np.arange(2**height)[None, :]]
    signs = signs.astype(np.float64)
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
def _path_nodes(tree_count: int, height: int) -> np.ndarray:
    """Flat (tree, node) row ``t * m + ancestor`` of every path entry.

    Shape (T, h, 2**h), matching the path-form leaf Jacobian, so a
    ``bincount`` over it sums per-path values onto their nodes.
    """
    n_nodes = 2**height - 1
    rows = np.arange(tree_count)[:, None, None] * n_nodes + _ancestor_rows(height)
    rows.setflags(write=False)
    return rows


def _block_views(vector: np.ndarray, shapes) -> list[np.ndarray]:
    """Reshaped views of the consecutive blocks of a flat vector."""
    views, start = [], 0
    for shape in shapes:
        stop = start + math.prod(shape)
        views.append(vector[start:stop].reshape(shape))
        start = stop
    return views


class ObliqueForest:
    """An ensemble of soft-routed oblique trees sharing one geometry.

    Every parameter lives in one contiguous float64 ``vector``: the node
    weights, then the node biases, then the leaf rows.  ``weights``
    ``(T, m, d)``, ``biases`` ``(T, m)`` and ``leaves`` ``(T, 2**h, c)``
    are reshaped views into it, so an in-place update through the vector
    or through a view is seen by both.
    """

    def __init__(self, shape: ForestShape):
        """An all-zero forest of the given shape."""
        build_mask(shape.height)  # validates the height range
        if shape.tree_count < 1:
            raise ConfigurationError("a forest needs at least one tree")
        if shape.n_features < 1 or shape.n_outputs < 1:
            raise ConfigurationError("n_features and n_outputs must be >= 1")
        self.shape = ForestShape(*(int(n) for n in shape))
        self.height = self.shape.height
        self.vector = np.zeros(self.shape.n_params)
        self.weights, self.biases, self.leaves = _block_views(
            self.vector, self.shape.param_shapes
        )

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
        return clone


def _check_features(forest: ObliqueForest, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (forest.n_features,):
        raise ShapeError(
            f"expected feature vector of shape ({forest.n_features},), got {x.shape}"
        )
    return x


def node_outputs(forest: ObliqueForest, x: np.ndarray) -> np.ndarray:
    """Logistic gate outputs of every node of every tree for one instance,
    shape (T, m)."""
    return expit(forest.weights @ _check_features(forest, x) + forest.biases)


def _node_edges(z: np.ndarray) -> np.ndarray:
    """Routing factors of both edges of every node, from pre-activations.

    ``z`` is ``(..., m)``; the result is ``(..., 2m)``: the gate outputs
    ``expit(z)`` (left edges) followed by ``expit(-z)`` (right edges).
    The right edge is never formed as ``1 - expit(z)``, which cancels to
    exactly 0 once ``z`` exceeds about 37.
    """
    return expit(np.concatenate([z, -z], axis=-1))


def _all_node_outputs(forest: ObliqueForest, x: np.ndarray) -> np.ndarray:
    """Edge factors of every node for every tree at once, shape (T, 2m):
    the gate outputs in the first ``m`` columns, their complements after."""
    return _node_edges(forest.weights @ x + forest.biases)


def _path_factors(edges: np.ndarray, height: int) -> np.ndarray:
    """Routing factor of each depth-level ancestor per leaf.

    ``edges`` is ``(..., 2m)`` as built by ``_node_edges``; the result
    replaces the last axis with the path structure ``(..., h, 2**h)``.
    """
    return np.take(edges, _path_edges(height), axis=-1)


def _gate_edges(outputs: np.ndarray, mask: AncestorMask) -> np.ndarray:
    """Edge arrays ``(..., 2m)`` from gate outputs ``(..., m)``, for the
    public functions that take gate outputs rather than pre-activations."""
    outputs = np.asarray(outputs, dtype=np.float64)
    if outputs.shape[-1:] != (mask.n_nodes,):
        raise ShapeError(
            f"expected {mask.n_nodes} node outputs, got shape {outputs.shape}"
        )
    return np.concatenate([outputs, 1.0 - outputs], axis=-1)


def leaf_probabilities(outputs: np.ndarray, mask: AncestorMask) -> np.ndarray:
    """Probability of each leaf given the node gate outputs: the product of
    the routing factors along its root-to-leaf path.  ``outputs`` is one
    tree's ``(m,)`` or a stack ``(..., m)`` such as ``node_outputs``
    gives; the result is ``(2**h,)`` or ``(..., 2**h)``."""
    return _path_factors(_gate_edges(outputs, mask), mask.height).prod(axis=-2)


def leaf_probability_gradients(
    outputs: np.ndarray, mask: AncestorMask
) -> tuple[np.ndarray, np.ndarray]:
    """Leaf probabilities and their derivatives in the node outputs.

    Returns ``(probs, jac)`` where ``probs`` has shape ``(2**h,)`` and
    ``jac[i, j]`` is the derivative of leaf probability ``j`` in node
    output ``i``: the signed product of the other routing factors along
    the path, zero where node ``i`` is not an ancestor of leaf ``j``.
    Built from prefix/suffix products, so saturated gates (outputs at 0
    or 1) never trigger a division.
    """
    if np.ndim(outputs) != 1:
        raise ShapeError(f"expected one tree's node outputs, got {np.shape(outputs)}")
    probs, path_jac = _leaf_probability_gradients_stacked(
        _gate_edges(outputs, mask)[None, :], mask.height
    )
    jac = np.zeros((mask.n_nodes, mask.n_leaves))
    jac[_ancestor_rows(mask.height), np.arange(mask.n_leaves)] = path_jac[0]
    return probs[0], jac


def _leaf_probability_gradients_stacked(
    edges: np.ndarray, height: int
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized core of leaf_probability_gradients over a tree axis, in
    path form.

    ``edges``: (T, 2m) -> probs (T, 2**h), jac (T, h, 2**h).  Entry
    ``jac[t, k, l]`` is the derivative of leaf ``l``'s probability in the
    gate output of its depth-``k`` ancestor; every other node has zero
    derivative, so the dense (T, m, 2**h) Jacobian is never formed.
    """
    factors = _path_factors(edges, height)  # (T, h, L)
    n_trees, _, n_leaves = factors.shape
    prefix = np.ones((n_trees, height + 1, n_leaves))
    np.cumprod(factors, axis=1, out=prefix[:, 1:])
    suffix = np.ones((n_trees, height + 1, n_leaves))
    np.cumprod(factors[:, ::-1], axis=1, out=suffix[:, height - 1::-1])
    jac = prefix[:, :height] * suffix[:, 1:]
    jac *= _path_signs(height)
    return prefix[:, height], jac


def _tree_leaf_probabilities(forest: ObliqueForest, x: np.ndarray) -> np.ndarray:
    """Leaf probabilities of every tree for one instance, (T, 2**h)."""
    edges = _all_node_outputs(forest, _check_features(forest, x))
    return _path_factors(edges, forest.height).prod(axis=1)


def tree_outputs(forest: ObliqueForest, x: np.ndarray) -> np.ndarray:
    """Each tree's leaf-probability-weighted mix of its leaf rows for one
    instance, shape (T, c), routed from the pre-activations like
    ``forward``."""
    return np.einsum("tl,tlc->tc", _tree_leaf_probabilities(forest, x),
                     forest.leaves)


def forward(forest: ObliqueForest, x: np.ndarray,
            mask: AncestorMask | None = None) -> np.ndarray:
    """Forest output for one instance: arithmetic mean of tree outputs."""
    probs = _tree_leaf_probabilities(forest, x)
    return np.einsum("tl,tlc->c", probs, forest.leaves) / forest.tree_count


def forward_batch(forest: ObliqueForest, features: np.ndarray,
                  mask: AncestorMask | None = None) -> np.ndarray:
    """Forest outputs for a batch of instances, shape (n, c)."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != forest.n_features:
        raise ShapeError(
            f"expected feature matrix of shape (n, {forest.n_features}), "
            f"got {features.shape}"
        )
    edges = _node_edges(
        np.einsum("tmd,nd->tnm", forest.weights, features) + forest.biases[:, None, :]
    )
    factors = _path_factors(edges, forest.height)  # (T, n, h, L)
    probs = factors.prod(axis=2)  # (T, n, L)
    return np.einsum("tnl,tlc->nc", probs, forest.leaves) / forest.tree_count


def predict(forest: ObliqueForest, x: np.ndarray,
            mask: AncestorMask | None = None) -> int:
    """Class prediction: argmax of the forest output, lowest index on ties."""
    if forest.n_outputs < 2:
        raise ConfigurationError(
            "predict needs at least two output classes; "
            f"this forest has {forest.n_outputs}"
        )
    return int(np.argmax(forward(forest, x, mask)))
