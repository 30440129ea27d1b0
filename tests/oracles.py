"""Reference constructions shared by the tests, built independently of
the package's vectorized routing."""

import math

import numpy as np
from scipy.special import expit

from fairforest.data import DatasetSchema
from fairforest.forest import ForestShape, ObliqueForest
from fairforest.learner import ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON


def huber(gap, delta):
    """Huber surrogate of the absolute gap: quadratic inside ``|gap| < delta``,
    linear outside."""
    if abs(gap) < delta:
        return 0.5 * gap * gap
    return delta * (abs(gap) - 0.5 * delta)


def augment(x):
    """The augmented features ``[1, x]`` as the column ``(d + 1, 1)`` a
    store's ``update_all`` takes."""
    return np.concatenate(([1.0], np.asarray(x, dtype=np.float64)))[:, None]


def adam_python_scalars(config, params, grad_steps):
    """Adam in Kingma and Ba's efficient form, in the order
    ``AdamState.apply`` runs it, with every scalar factor a Python float;
    returns ``params`` after one update per gradient in ``grad_steps``,
    and both moments."""
    params = np.array(params, dtype=np.float64)
    m, v = np.zeros_like(params), np.zeros_like(params)
    for t, grads in enumerate(grad_steps, start=1):
        c1 = 1.0 - ADAM_BETA1**t
        root_c2 = math.sqrt(1.0 - ADAM_BETA2**t)
        m *= ADAM_BETA1
        m += grads * (1.0 - ADAM_BETA1)
        v *= ADAM_BETA2
        v += grads * (1.0 - ADAM_BETA2) * grads
        params -= (m * (config.learning_rate * root_c2 / c1)
                   / (np.sqrt(v) + ADAM_EPSILON * root_c2))
    return params, m, v


def multigroup_weights(counts):
    """``multigroup``'s contrast weights, the row ``n / N - e_g`` per
    group ``g`` and zero while ``g`` is unseen, as one allocating numpy
    expression of the counts."""
    listed = counts.tolist()
    weights = np.add(counts / (sum(listed) or 1), -np.eye(len(listed)))
    if 0 in listed:
        weights *= (counts > 0)[:, None]
    return weights


def default_schema(n_features, normalization="none"):
    """Schema for the package's own CSV convention: features ``f0..f{d-1}``,
    label column ``y``, group column ``a``."""
    return DatasetSchema(
        feature_columns=[f"f{i}" for i in range(n_features)],
        normalization=normalization,
    )


class ReferenceScaler:
    """Running per-feature standardization written plainly, one fresh
    array per operation: each row updates the running mean and sum of
    squared deviations, then is centred on the new mean and divided by
    the population deviation (1 where it is below 1e-12; the first row is
    only centred)."""

    def __init__(self, n_features):
        self.count = 0
        self.mean = np.zeros(n_features)
        self.m2 = np.zeros(n_features)

    def transform(self, x):
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (x - self.mean)
        if self.count < 2:
            return x - self.mean
        scale = np.sqrt(self.m2 / self.count)
        scale = np.where(scale < 1e-12, 1.0, scale)
        return (x - self.mean) / scale


def reference_rows(cells, normalize):
    """``(x, y, a)`` of each row of string ``cells`` (features, then the
    label and the group), each feature cell parsed on its own into a
    float64 vector, then standardized by a ``ReferenceScaler`` when
    ``normalize``."""
    scaler = ReferenceScaler(len(cells[0]) - 2) if normalize else None
    rows = []
    for row in cells:
        x = np.empty(len(row) - 2)
        for j, cell in enumerate(row[:-2]):
            x[j] = float(cell)
        if scaler is not None:
            x = scaler.transform(x)
        rows.append((x, int(row[-2]), int(row[-1])))
    return rows


def reference_gaps(tracker):
    """``(dp_hard, dp_soft)`` of a ``MetricsTracker``'s sums, one gap at
    a time: per-group rates and mean outputs against the other group's
    (two groups) or the overall ones (more), every sum in group or
    output order, the soft gap the largest Euclidean norm.  Both None
    while fewer than two groups are seen."""
    counts = tracker.group_counts
    seen = [g for g, n in enumerate(counts) if n]
    if len(seen) < 2:
        return None, None
    rates = tracker.group_label_sums
    sums = tracker.group_output_sums
    if tracker.n_groups == 2:
        hard = abs(rates[0] / counts[0] - rates[1] / counts[1])
        gaps = [[u / counts[0] - v / counts[1] for u, v in zip(*sums)]]
    else:
        overall_rate = sum(rates) / tracker.total
        hard = max(abs(overall_rate - rates[g] / counts[g]) for g in seen)
        overall = []
        for column in zip(*sums):
            total = 0.0
            for value in column:
                total += value
            overall.append(total / tracker.total)
        gaps = [[o - s / counts[g] for o, s in zip(overall, sums[g])]
                for g in seen]
    norms = []
    for gap in gaps:
        squares = 0.0
        for value in gap:
            squares += value * value
        norms.append(math.sqrt(squares))
    return hard, max(norms)


def tree_weights(nodes):
    """Per-tree weights ``(T, m, d)`` of a node block ``(d + 1, T, m)``
    (a forest's or a gradient's): a strided view, so writing through it
    writes the block.  The per-tree biases are ``nodes[0]``."""
    return np.moveaxis(nodes[1:], 0, -1)


def forest_from_arrays(height, weights, biases, leaves):
    """A forest holding stacked per-tree arrays: weights ``(T, m, d)``,
    biases ``(T, m)`` and leaf rows ``(T, 2**h, c)``."""
    weights = np.asarray(weights, dtype=np.float64)
    leaves = np.asarray(leaves, dtype=np.float64)
    forest = ObliqueForest(ForestShape(weights.shape[0], height,
                                       weights.shape[2], leaves.shape[2]))
    tree_weights(forest.nodes)[...] = weights
    forest.nodes[0] = biases
    forest.leaves[...] = leaves
    return forest


def huber_slope(gap, delta):
    """Derivative of the Huber surrogate in the gap, for a scalar gap or
    an array of gaps: the gap clipped to ``[-delta, delta]``, so the gap
    itself inside the quadratic region and ``delta`` times its sign
    outside (``+-delta`` at both kinks)."""
    return np.clip(gap, -delta, delta)


def tree_norm(grad, index):
    """Euclidean norm of one tree's slice of a ``ForestGradient``: its
    weights, biases and leaf rows."""
    return float(np.sqrt(
        np.sum(tree_weights(grad.nodes)[index] ** 2)
        + np.sum(grad.nodes[0, index] ** 2)
        + np.sum(grad.leaves[index] ** 2)
    ))


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


def climbed_subtree_sums(terms, height):
    """Per tree, the sums of the integer leaf ``terms`` ``(T, 2**h)``
    below every node's right child, then below its left child, shape
    ``(2, T, m)``, by climbing parent pointers as ``mask_oracle`` does,
    every leaf at once: a leaf at heap position ``pos`` adds its term
    below node ``pos // 2 - 1``'s left child when ``pos`` is even, below
    its right child when odd."""
    terms = np.asarray(terms, dtype=np.int64)
    tree_count, n_leaves = terms.shape
    below = np.zeros((2, tree_count, n_leaves - 1), dtype=np.int64)
    tree = np.arange(tree_count)[:, None]
    pos = np.broadcast_to(n_leaves + np.arange(n_leaves), terms.shape)
    for _ in range(height):
        parent = pos // 2
        np.add.at(below, (1 - pos % 2, tree, parent - 1), terms)
        pos = parent
    return below


def matmul_task_products(forest, ws):
    """The task gradient's three small products in the forms they had
    before they ran through ``ndarray.dot``, from the operands a task
    gradient left in its workspace ``ws``: the leaf rows, ``np.matmul`` of
    the leaf probabilities as a column with the residual as a row; the
    leaf terms, ``np.matmul`` of the leaf rows with the residual, times
    the leaf probabilities; and the node block, the broadcast multiply of
    ``[1, x]`` as a column with the bias gradient row."""
    leaf_rows = np.matmul(ws.leaf_column, ws.residual_row)
    terms = np.matmul(forest.leaf_rows, ws.residual) * ws.leaf_flat
    node_rows = np.multiply(ws.xa[:, None], ws.bias_grad)
    return leaf_rows, terms, node_rows


def broadcast_staging(xa, slope):
    """A node store's staged slope rows in the form they had before they
    ran through ``ndarray.dot``: the broadcast multiply of ``[1, x]``
    ``(d + 1,)`` with the slopes ``(T, m)``, shape ``(d + 1, T, m)``."""
    return np.multiply(xa[:, None, None], slope)


def matmul_huber_product(weights, quantity, gradient, delta, scale):
    """``stats._huber_product`` with its slope product through
    ``np.matmul``, as before it ran through ``ndarray.dot``: the gaps
    ``weights @ quantity`` clipped to ``[-delta, delta]``, the key slopes
    ``weights.T @ gaps`` times ``scale``, and their ``einsum`` with the
    gradient rows."""
    gaps = np.matmul(weights, quantity)
    np.minimum(gaps, delta, out=gaps)
    np.maximum(gaps, -delta, out=gaps)
    slopes = np.matmul(weights.T, gaps) * scale
    return np.einsum("kc,kwc->wc", slopes, gradient)


def leaf_node_plan(height, tree_count, width):
    """Segment bounds and gather order that sum the leaf store's gradient
    rows onto the nodes with one ``np.add.reduceat``, ``width * T * m``
    entries each: the leaf learner's node sum before it took one
    matrix-vector product per depth.

    The rows are ``(width, h, T, 2**h)`` (bias or weight, depth, tree,
    leaf), flattened; per (row, depth ``k``, tree) the leaves below each
    depth-``k`` node are one contiguous block of ``2**(h - k)``.
    ``np.add.reduceat(rows.ravel(), bounds)`` sums every block, in
    (row, depth, tree, node) order, and ``order`` takes those sums to a
    gradient vector's node block ``(width, T, m)``.
    """
    t, leaves, nodes = tree_count, 2**height, 2**height - 1
    node = np.arange(nodes, dtype=np.intp)
    depth = np.repeat(np.arange(height), 2 ** np.arange(height))
    place = node - ((1 << depth) - 1)  # the node's place in its depth
    tree = np.arange(t)[:, None]
    # Within one row the sums run depth by depth, each depth tree by
    # tree, each tree its depth's nodes left to right: (tree, node) is
    # sum ``rank``, and its block starts at ``starts[rank]``.
    rank = (t * ((1 << depth) - 1) + tree * (1 << depth) + place).ravel()
    starts = np.empty(t * nodes, dtype=np.intp)
    starts[rank] = ((depth * t + tree) * leaves
                    + (place << (height - depth))).ravel()
    row = np.arange(width, dtype=np.intp)[:, None]
    bounds = (row * (height * t * leaves) + starts).ravel()
    order = (rank + row * (t * nodes)).ravel()
    return bounds, order


def reduceat_leaf_node_gradient(learner):
    """The leaf learner's fairness node block ``(d + 1, T, m)`` in the
    form it had before: the unscaled contrast sum of its store, summed
    onto the nodes by one ``np.add.reduceat`` over ``leaf_node_plan``'s
    segments, then times the penalty weight."""
    shape = learner.forest.shape
    width = shape.n_features + 1
    total = learner.leaf_store.contrast_sum(learner.config.huber_delta)
    bounds, order = leaf_node_plan(shape.height, shape.tree_count, width)
    sums = np.add.reduceat(total.ravel(), bounds).take(order)
    sums *= learner.config.fairness_weight
    return sums.reshape(width, shape.tree_count, shape.n_nodes)


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


def path_form_task_gradient(forest, x, y):
    """Bias and weight task gradients ``(T, m)`` and ``(T, m, d)`` by the
    path-form Jacobian the package used before the bias identity: prefix
    and suffix products of each leaf's path factors give the derivative of
    its probability in each ancestor's gate output; each path entry adds
    its leaf's sensitivity to that ancestor (one ``bincount``), and the
    gate slope ``n (1 - n)`` takes the sum to the bias."""
    height, t = forest.height, forest.tree_count
    m = 2**height - 1
    z = tree_weights(forest.nodes) @ x + forest.nodes[0]
    edges = expit(np.concatenate([z, -z], axis=-1))  # (T, 2m)
    leaf = np.arange(2**height)
    depth = np.arange(height)[:, None]
    ancestors = (1 << depth) - 1 + (leaf >> (height - depth))  # (h, L)
    signs = 1.0 - 2.0 * ((leaf >> (height - 1 - depth)) & 1)
    factors = np.take(edges, ancestors + (signs < 0) * m, axis=-1)  # (T, h, L)
    prefix = np.ones((t, height + 1, 2**height))
    np.cumprod(factors, axis=1, out=prefix[:, 1:])
    suffix = np.ones((t, height + 1, 2**height))
    np.cumprod(factors[:, ::-1], axis=1, out=suffix[:, height - 1::-1])
    jac = prefix[:, :height] * suffix[:, 1:] * signs
    probs = prefix[:, height]
    output = np.einsum("tl,tlc->c", probs, forest.leaves) / t
    residual = np.exp(output - output.max())
    residual /= residual.sum()
    residual[y] -= 1.0
    sensitivity = np.einsum("tlc,c->tl", forest.leaves, residual) / t
    nodes = np.arange(t)[:, None, None] * m + ancestors
    dldn = np.bincount(nodes.ravel(), weights=(jac * sensitivity[:, None]).ravel(),
                       minlength=t * m).reshape(t, m)
    biases = dldn * edges[:, :m] * edges[:, m:]
    return biases, biases[:, :, None] * x


def contrast_selections(notion, n_groups, n_classes):
    """(plus, minus) instance predicates ``(a, y) -> bool`` of each
    contrast, from the notions' definitions: ``dp`` group 0 against group
    1; ``equalized_odds`` group 0 against group 1 within each true label;
    ``multigroup`` every instance against each group."""
    if notion == "dp":
        return [(lambda a, y: a == 0, lambda a, y: a == 1)]
    if notion == "equalized_odds":
        return [((lambda a, y, c=c: a == 0 and y == c),
                 (lambda a, y, c=c: a == 1 and y == c))
                for c in range(n_classes)]
    return [((lambda a, y: True), (lambda a, y, k=k: a == k))
            for k in range(n_groups)]


def keyed_penalty_gradient(log, notion, n_groups, n_classes, delta, weight):
    """Huber-penalty gradient from plain means of logged rows, one
    contrast at a time.

    ``log`` holds ``(a, y, value, jac)``: a row's constrained values (any
    shape S) and their Jacobian ``(*S, P)`` in P parameters.  Each
    contrast whose two selections both hold a row adds, for every value,
    ``clip(mean value+ - mean value-, -delta, delta)`` times
    ``mean jac+ - mean jac-``; the sum is scaled by ``weight``.  (P,)."""
    total = np.zeros(log[0][3].shape[-1])
    for plus, minus in contrast_selections(notion, n_groups, n_classes):
        rows_p = [(v, j) for a, y, v, j in log if plus(a, y)]
        rows_m = [(v, j) for a, y, v, j in log if minus(a, y)]
        if not rows_p or not rows_m:
            continue
        gap = (np.mean([v for v, _ in rows_p], axis=0)
               - np.mean([v for v, _ in rows_m], axis=0))
        jac = (np.mean([j for _, j in rows_p], axis=0)
               - np.mean([j for _, j in rows_m], axis=0))
        total += np.tensordot(np.clip(gap, -delta, delta), jac, axes=gap.ndim)
    return weight * total


def _gate_bias_rows(forest, x):
    """Gates ``(T, m)``, their left and right edges, and the forest
    vector's flat positions of each node's bias and weights: the vector
    opens with every bias, tree by tree, then one such block per
    feature."""
    t, m, d = forest.tree_count, 2**forest.height - 1, forest.n_features
    z = tree_weights(forest.nodes) @ x + forest.nodes[0]
    left, right = expit(z), expit(-z)
    bias_at = np.arange(t * m).reshape(t, m)
    weight_at = bias_at[..., None] + t * m * np.arange(1, d + 1)
    return left, right, bias_at, weight_at


def gate_rows(forest, x):
    """Gate outputs ``(T, m)`` at ``x`` and their full Jacobian
    ``(T, m, P)`` in the forest's flat vector (node block, leaves):
    ``n (1 - n)`` in the node's own bias, times ``x`` in its weights."""
    left, right, bias_at, weight_at = _gate_bias_rows(forest, x)
    jac = np.zeros((*left.shape, forest.vector.size))
    for t, i in np.ndindex(left.shape):
        slope = left[t, i] * right[t, i]
        jac[t, i, bias_at[t, i]] = slope
        jac[t, i, weight_at[t, i]] = slope * x
    return left, jac


def leaf_rows(forest, x):
    """Leaf probabilities ``(T, 2**h)`` at ``x`` and their full Jacobian
    ``(T, 2**h, P)`` in the forest's flat vector, from the oracle mask's
    dense leaf Jacobian times each gate's slope (and ``x``)."""
    left, right, bias_at, weight_at = _gate_bias_rows(forest, x)
    probs = np.zeros((forest.tree_count, 2**forest.height))
    jac = np.zeros((*probs.shape, forest.vector.size))
    for t in range(forest.tree_count):
        probs[t], dense = dense_leaf_jacobian(left[t], right[t], forest.height)
        tree = jac[t]  # (2**h, P)
        for i, slope in enumerate(left[t] * right[t]):
            tree[:, bias_at[t, i]] = dense[i] * slope
            tree[:, weight_at[t, i]] = np.outer(dense[i] * slope, x)
    return probs, jac


def mlp_rows(x, w1, b1, w2, b2):
    """A two-layer ReLU network's outputs ``(c,)`` at ``x`` and their
    Jacobian ``(c, P)`` in the flat parameters ``w1, b1, w2, b2``."""
    pre = x @ w1 + b1
    hidden = np.maximum(pre, 0.0)
    gate = (pre > 0.0)[:, None] * w2  # (h, c): d out_k / d pre_j
    eye = np.eye(w2.shape[1])
    blocks = (x[:, None, None] * gate[None], gate,
              hidden[:, None, None] * eye[None], eye)
    jac = np.concatenate([b.reshape(-1, eye.shape[0]) for b in blocks])
    return hidden @ w2 + b2, jac.T
