"""Reference constructions shared by the tests, built independently of
the package's vectorized routing."""

import numpy as np


def mask_oracle(height):
    """Dense ancestor mask built by climbing parent pointers, one leaf at a
    time: entry ``(i, j)`` is +1 when leaf ``j`` sits in the left subtree
    of node ``i``, -1 in the right subtree, 0 when ``i`` is no ancestor.

    Each leaf starts at heap position ``2**height + leaf`` and walks up,
    recording +1 when it came out of a left child and -1 out of a right
    child.
    """
    n_nodes = 2**height - 1
    n_leaves = 2**height
    entries = np.zeros((n_nodes, n_leaves), dtype=np.int8)
    for leaf in range(n_leaves):
        pos = n_leaves + leaf
        while pos > 1:
            parent = pos // 2
            entries[parent - 1, leaf] = 1 if pos == 2 * parent else -1
            pos = parent
    return entries


def dense_leaf_jacobian(left, right, height):
    """Leaf probabilities (2**h,) and the dense Jacobian (m, 2**h) of one
    tree in its gate outputs, read off the oracle mask entry by entry.

    ``left`` and ``right`` are each node's left- and right-edge factors.
    A leaf's probability is the product over every node of the left
    factor, the right factor or 1, as the mask entry says; its derivative
    in node ``i`` drops that node's factor and takes the entry's sign.
    """
    entries = mask_oracle(height)
    factors = np.where(entries > 0, left[:, None],
                       np.where(entries < 0, right[:, None], 1.0))
    jac = np.zeros(entries.shape)
    for i in range(len(left)):
        below = entries[i] != 0
        others = np.delete(factors[:, below], i, axis=0)
        jac[i, below] = entries[i, below] * others.prod(axis=0)
    return factors.prod(axis=0), jac


class MlpBlockStore:
    """Per-group running means of a two-layer ReLU network's output vector
    and of its Jacobian in each parameter block, one array per block:
    ``j_w1`` (G, d, h, c), ``j_b1`` (G, h, c), ``j_w2`` (G, h, c, c) and
    ``j_b2`` (G, c, c), the trailing axis being the output."""

    def __init__(self, n_features, hidden, n_outputs, n_groups=2):
        d, h, c = n_features, hidden, n_outputs
        self.counts = np.zeros(n_groups, dtype=np.int64)
        self.mean_out = np.zeros((n_groups, c))
        self.blocks = [np.zeros((n_groups, d, h, c)), np.zeros((n_groups, h, c)),
                       np.zeros((n_groups, h, c, c)), np.zeros((n_groups, c, c))]

    def fold(self, group, x, w1, b1, w2, b2):
        """Fold the instance ``x`` of ``group`` at the given parameters."""
        pre = x @ w1 + b1
        hidden = np.maximum(pre, 0.0)
        gate = (pre > 0.0)[:, None] * w2  # (h, c): d out_k / d pre_j
        eye = np.eye(w2.shape[1])
        values = (hidden @ w2 + b2, x[:, None, None] * gate[None],
                  gate, hidden[:, None, None] * eye[None], eye)
        self.counts[group] += 1
        n = self.counts[group]
        for mean, value in zip([self.mean_out, *self.blocks], values):
            mean[group] += (value - mean[group]) / n


def mlp_block_fairness_gradient(store, delta, weight):
    """Flat Huber-penalty gradient of the two-group output gap: per block,
    the group difference of the mean Jacobian contracted with the clipped
    gap times the weight, blocks in parameter order.  Zero while a group
    is unseen."""
    if weight == 0.0 or store.counts.min() == 0:
        return np.zeros(sum(b[0, ..., 0].size for b in store.blocks))
    coeff = np.clip(store.mean_out[0] - store.mean_out[1], -delta, delta) * weight
    return np.concatenate([
        np.einsum("...c,c->...", b[0] - b[1], coeff).ravel()
        for b in store.blocks
    ])
