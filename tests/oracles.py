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
