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


@dataclass
class TreeParams:
    """Parameters of one tree: node hyperplanes and leaf output rows."""

    height: int
    weights: np.ndarray  # (2**h - 1, d)
    biases: np.ndarray  # (2**h - 1,)
    leaves: np.ndarray  # (2**h, c)

    def __post_init__(self) -> None:
        if not 1 <= self.height <= MAX_HEIGHT:
            raise ConfigurationError(f"tree height out of range: {self.height}")
        n_nodes = 2**self.height - 1
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.biases = np.asarray(self.biases, dtype=np.float64)
        self.leaves = np.asarray(self.leaves, dtype=np.float64)
        if self.weights.ndim != 2 or self.weights.shape[0] != n_nodes:
            raise ShapeError(
                f"weights must have shape ({n_nodes}, d), got {self.weights.shape}"
            )
        if self.biases.shape != (n_nodes,):
            raise ShapeError(
                f"biases must have shape ({n_nodes},), got {self.biases.shape}"
            )
        if self.leaves.ndim != 2 or self.leaves.shape[0] != n_nodes + 1:
            raise ShapeError(
                f"leaves must have shape ({n_nodes + 1}, c), got {self.leaves.shape}"
            )
        for name, arr in (("weights", self.weights), ("biases", self.biases),
                          ("leaves", self.leaves)):
            if not np.isfinite(arr).all():
                raise ConfigurationError(f"tree {name} contain non-finite values")

    @property
    def n_nodes(self) -> int:
        return 2**self.height - 1

    @property
    def n_leaves(self) -> int:
        return 2**self.height

    @property
    def n_features(self) -> int:
        return self.weights.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.leaves.shape[1]

    def copy(self) -> "TreeParams":
        return TreeParams(self.height, self.weights.copy(), self.biases.copy(),
                          self.leaves.copy())


class ObliqueForest:
    """An ensemble of soft-routed oblique trees sharing one geometry.

    Internally the per-tree parameters are stacked along a leading tree
    axis (``weights`` is ``(T, m, d)`` and so on); the ``trees`` list
    holds ``TreeParams`` views into the stacked arrays, so in-place
    updates through either representation stay consistent.
    """

    def __init__(self, trees: list[TreeParams]):
        if not trees:
            raise ConfigurationError("a forest needs at least one tree")
        first = trees[0]
        for t in trees[1:]:
            if (t.height, t.n_features, t.n_outputs) != (
                first.height, first.n_features, first.n_outputs
            ):
                raise ShapeError("all trees in a forest must share (height, d, c)")
        self.weights = np.stack([t.weights for t in trees])
        self.biases = np.stack([t.biases for t in trees])
        self.leaves = np.stack([t.leaves for t in trees])
        self.height = first.height
        self.trees = [
            TreeParams(self.height, self.weights[i], self.biases[i], self.leaves[i])
            for i in range(len(trees))
        ]

    @classmethod
    def from_arrays(cls, height: int, weights: np.ndarray, biases: np.ndarray,
                    leaves: np.ndarray) -> "ObliqueForest":
        trees = [
            TreeParams(height, weights[i], biases[i], leaves[i])
            for i in range(weights.shape[0])
        ]
        return cls(trees)

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
        if tree_count < 1:
            raise ConfigurationError(f"tree_count must be >= 1, got {tree_count}")
        if n_features < 1 or n_outputs < 1:
            raise ConfigurationError("n_features and n_outputs must be >= 1")
        build_mask(height)  # validates the height range
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        n_nodes = 2**height - 1
        bound = 2.0 / np.sqrt(n_features)
        weights = rng.uniform(-bound, bound, size=(tree_count, n_nodes, n_features))
        biases = np.zeros((tree_count, n_nodes))
        leaves = rng.uniform(-0.1, 0.1, size=(tree_count, n_nodes + 1, n_outputs))
        return cls.from_arrays(height, weights, biases, leaves)

    @property
    def tree_count(self) -> int:
        return len(self.trees)

    @property
    def n_features(self) -> int:
        return self.weights.shape[2]

    @property
    def n_outputs(self) -> int:
        return self.leaves.shape[2]

    @property
    def shape(self) -> ForestShape:
        return ForestShape(self.tree_count, self.height, self.n_features,
                           self.n_outputs)

    def copy(self) -> "ObliqueForest":
        return ObliqueForest.from_arrays(
            self.height, self.weights.copy(), self.biases.copy(), self.leaves.copy()
        )

    def param_arrays(self) -> list[np.ndarray]:
        """The stacked parameter arrays, in a fixed order."""
        return [self.weights, self.biases, self.leaves]


def _pre_activations(tree: TreeParams, x: np.ndarray) -> np.ndarray:
    """Gate pre-activations ``w . x + b`` of every internal node."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (tree.n_features,):
        raise ShapeError(
            f"expected feature vector of shape ({tree.n_features},), got {x.shape}"
        )
    return tree.weights @ x + tree.biases


def node_outputs(tree: TreeParams, x: np.ndarray) -> np.ndarray:
    """Logistic gate outputs of every internal node for one instance."""
    return expit(_pre_activations(tree, x))


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
    """Edge array of one tree from its gate outputs, for the public
    functions that take gate outputs rather than pre-activations."""
    outputs = np.asarray(outputs, dtype=np.float64)
    if outputs.shape != (mask.n_nodes,):
        raise ShapeError(
            f"expected {mask.n_nodes} node outputs, got shape {outputs.shape}"
        )
    return np.concatenate([outputs, 1.0 - outputs])


def leaf_probabilities(outputs: np.ndarray, mask: AncestorMask) -> np.ndarray:
    """Probability of each leaf given the node gate outputs of one tree:
    the product of the routing factors along its root-to-leaf path."""
    return _path_factors(_gate_edges(outputs, mask), mask.height).prod(axis=0)


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


def tree_output(tree: TreeParams, x: np.ndarray,
                mask: AncestorMask | None = None) -> np.ndarray:
    """Leaf-probability-weighted mix of one tree's leaf rows, routed from
    the pre-activations like ``forward``."""
    edges = _node_edges(_pre_activations(tree, x))
    return _path_factors(edges, tree.height).prod(axis=0) @ tree.leaves


def forward(forest: ObliqueForest, x: np.ndarray,
            mask: AncestorMask | None = None) -> np.ndarray:
    """Forest output for one instance: arithmetic mean of tree outputs."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (forest.n_features,):
        raise ShapeError(
            f"expected feature vector of shape ({forest.n_features},), got {x.shape}"
        )
    probs = _path_factors(_all_node_outputs(forest, x), forest.height).prod(axis=1)
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
