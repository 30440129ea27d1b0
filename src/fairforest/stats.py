"""Streaming keyed statistics behind the fairness penalties.

The online fairness penalty never touches raw instances: it works off
running sums and counts, per key (a protected group, optionally
conditioned on the task class), of a constrained quantity and of its
parameter gradient.  This module owns them in one packed, width-first
layout:

* ``counts`` is ``(K,)``: every instance folds into exactly one key and
  updates every cell of it, so one count per key serves them all;
* ``sums`` is ``(K, width, *cells)``: row 0 of each key is the
  constrained quantity, the other rows its parameter gradient, so every
  pass over a key runs over long contiguous rows of cells.

``NotionTable`` is the package's only definition of a fairness notion:
its keys, the one key each instance folds into, and its contrasts, each
a row of signed weights over the key means (``NotionTable.weights``):

* ``dp`` - demographic parity over two groups: ``[1, -1]``.
* ``equalized_odds`` - two groups, keys ``g * C + c``; per task class
  ``c`` the row ``e_c - e_{C+c}``.
* ``multigroup`` - one key per group; per group ``g`` the row
  ``n / N - e_g``, the overall mean (the count-weighted mean of the
  group means, ``n`` the per-key counts and ``N`` their sum) minus the
  group's own.
* ``none`` - one key per group and no contrasts.

A row that names an unseen key is zero: a contrast is warm once every
key it compares holds an instance.  ``huber_contrast_sum`` is the one
penalty-gradient product over those weights, shared by every store and
by the exact reference.  Sums are cumulative over the whole stream: a
fold is one add of the instance's values into its key's sums, and the
``1 / n`` of each key's mean rides in the ``(C, K)`` contrast weights,
which the store divides column-wise by the counts, so no pass over the
key blocks ever forms a mean.  Over 2e5 folds of normal values of mean
0.3 and unit variance, ``sums / n`` stayed within 1.2e-14 of the
``math.fsum`` mean (three seeds), and the incremental mean
``mean += (value - mean) / n`` it replaces within 8.7e-15.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError, DomainError, ShapeError
from .forest import ForestShape


class NotionTable:
    """What the notion ``name`` compares among ``n_groups`` groups and
    ``n_classes`` task classes: ``n_keys`` keys, the key an instance
    folds into (``key``), ``n_contrasts`` contrasts as signed weights
    over the keys (``weights``), and per key the group whose instances
    it counts (``key_groups``).  ``n_classes`` is None unless the keys
    are class-conditioned."""

    def __init__(self, name: str, n_groups: int = 2,
                 n_classes: int | None = None):
        if n_groups < 2:
            raise ConfigurationError(f"n_groups must be >= 2, got {n_groups}")
        if name in ("dp", "equalized_odds") and n_groups != 2:
            raise ConfigurationError(f"the {name} notion compares exactly 2 "
                                     f"groups; use multigroup for more")
        if name == "equalized_odds":
            if n_classes is None or n_classes < 2:
                raise ConfigurationError("equalized_odds needs n_classes >= 2")
            eye = np.eye(n_classes)
            signs = np.concatenate([eye, -eye], axis=1)
        elif name == "dp":
            signs = np.array([[1.0, -1.0]])
        elif name == "multigroup":
            # The n / N part of each row follows the counts (``weights``).
            signs = -np.eye(n_groups)
        elif name == "none":
            signs = np.zeros((0, n_groups))
        else:
            raise ConfigurationError(f"unknown fairness notion {name!r}")
        self.name, self.n_groups = name, n_groups
        self.n_classes = n_classes if name == "equalized_odds" else None
        self.n_contrasts, self.n_keys = signs.shape
        per_group = self.n_keys // n_groups
        self.key_groups = tuple(k // per_group for k in range(self.n_keys))
        self.count_weighted = name == "multigroup"
        self._signs = signs
        self._unnamed = signs == 0.0

    def key(self, group: int, task_class: int) -> int:
        """The key an instance of ``group`` with label ``task_class`` folds
        into; DomainError for a group or class outside the table."""
        if not 0 <= group < self.n_groups:
            raise DomainError(f"group {group} outside [0, {self.n_groups})")
        if self.n_classes is None:
            return group
        if not 0 <= task_class < self.n_classes:
            raise DomainError(f"task class {task_class} outside [0, {self.n_classes})")
        return group * self.n_classes + task_class

    def weights(self, counts: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
        """``(n_contrasts, n_keys)`` signed weights of every contrast over
        the key means, given per-key ``counts``: a contrast's gap is its
        row times the key means.  Rows that name an unseen key are zero.
        Under ``multigroup`` the rows depend on every count, not only on
        which keys have been seen (``count_weighted``)."""
        if self.count_weighted:
            if out is None:
                out = np.empty(self._signs.shape)
            # The shares n / N into every row, each the correctly rounded
            # quotient numpy's divide gives too, then the signs' -e_g: -1
            # on the diagonal, and -0.0 elsewhere, which leaves x as it is.
            # At a few groups Python divides faster than a ufunc call casts.
            listed = counts.tolist()
            total = sum(listed) or 1
            out[...] = [count / total for count in listed]
            np.add(out, self._signs, out=out)
            if 0 in listed:
                # Row g names key g alone, so it is warm once g is seen.
                out *= (counts > 0)[:, None]
            return out
        warm = ((counts > 0) | self._unnamed).all(axis=1)
        return np.multiply(self._signs, warm[:, None], out=out)

    def counts_agree(self, counts: np.ndarray, group_counts: list) -> bool:
        """Whether per-key ``counts`` are what a stream with these
        per-group instance counts leaves: a group's keys count its
        instances between them."""
        folded = [0] * self.n_groups
        for group, count in zip(self.key_groups, counts.tolist()):
            folded[group] += count
        return folded == list(group_counts)


def huber_contrast_sum(weights: np.ndarray, blocks: np.ndarray, delta: float,
                       scale: float, out: np.ndarray) -> np.ndarray:
    """Huber-penalty gradient summed over the contrasts of ``weights``,
    times ``scale``, written into ``out``.

    ``blocks`` is ``(K, width, n)``: per key, row 0 the constrained
    quantity and rows ``1:`` its gradient over ``n`` cells, as means
    under the table's weights or as sums under weights divided
    column-wise by the key counts; the product is linear in each key, so
    both give the same gaps.  The gaps are ``weights @ blocks[:, 0]``,
    their Huber slopes the gaps clipped to ``[-delta, delta]``, and the
    result ``(width - 1, n)`` is ``sum_k s[k] * blocks[k, 1:]`` with
    ``s = scale * (weights.T @ slopes)``: one product that reads each key
    block once, whatever the contrast count, and scales only the ``(K,
    n)`` key slopes.  A zero row adds exactly nothing.
    """
    return _huber_product(weights, weights.T, blocks[:, 0], blocks[:, 1:],
                          delta, -delta, scale, out, None, None)


def _huber_product(weights, weights_t, quantity, gradient, delta, low,
                   scale, out, gaps, slopes) -> np.ndarray:
    """``huber_contrast_sum`` over operands a caller may build once: the
    weights and their transpose, the blocks' row 0 ``(K, n)`` and rows
    ``1:`` ``(K, width - 1, n)``, and the clip bounds ``delta`` and
    ``low = -delta``."""
    # The quantity rows are strided inside the sums, which ``ndarray.dot``
    # would copy; the slope product's operands are whole arrays, so it
    # takes ``dot``, the BLAS call of ``np.matmul`` at less fixed cost.
    gaps = np.matmul(weights, quantity, out=gaps)
    np.minimum(gaps, delta, out=gaps)
    np.maximum(gaps, low, out=gaps)
    slopes = weights_t.dot(gaps, out=slopes)
    np.multiply(slopes, scale, out=slopes)
    return np.einsum("kc,kwc->wc", slopes, gradient, out=out)


class RunningMeans:
    """Packed running sums and counts under the keys of a
    ``NotionTable``, with the contrast weights a penalty compares their
    means by.

    Block ``sums[k]`` holds one ``(width, *cells)`` block per key; row 0
    is the constrained quantity and rows ``1:`` its gradient.
    ``contrast_weights`` is the table's ``weights`` at the current
    counts, each key's column divided by its count (by 1 while unseen,
    where the column is zero), so the weights times the sums are the
    contrasts of the means.  ``fold`` rebuilds the table's weights when a
    key's count leaves 0 (and every fold when they are count-weighted),
    then divides them by the counts; whoever writes ``counts`` directly
    calls ``reweigh``.  ``values`` is a block a caller may stage an
    instance's values in before ``fold``; with the scratch blocks it
    means a step allocates nothing of a block's size.  None of them is
    state.  The contrast product's operands are views built once, and
    its constants 0-d arrays that change only when a caller's ``delta``
    or ``scale`` does.
    """

    def __init__(self, table: NotionTable, cells: tuple, width: int):
        if not table.n_contrasts:
            raise ConfigurationError(
                f"no aggregates for fairness notion {table.name!r}"
            )
        self.table = table
        self.counts = np.zeros(table.n_keys, dtype=np.int64)
        self.sums = np.zeros((table.n_keys, width, *cells))
        self.values = np.zeros((width, *cells))
        self.contrast_weights = np.zeros((table.n_contrasts, table.n_keys))
        # The table's weights over the means, and per key its count, or 1
        # while unseen (its column of weights is zero).
        self._table_weights = np.zeros((table.n_contrasts, table.n_keys))
        self._divisors = np.ones(table.n_keys)
        n = math.prod(cells)
        self._gaps = np.zeros((table.n_contrasts, n))
        self._slopes = np.zeros((table.n_keys, n))
        # The result block of a ``contrast_sum`` without ``out``, built on
        # its first use: the forest and leaf learners never need it.
        self._total = None
        # The contrast product's operands, with the cells flattened.
        flat_sums = self.sums.reshape(table.n_keys, width, n)
        self._quantity, self._gradient = flat_sums[:, 0], flat_sums[:, 1:]
        self._weights_t = self.contrast_weights.T
        # Its constants: the last delta and scale, and as 0-d operands
        # delta, -delta and scale.
        self._constants = None
        self._delta, self._low, self._scale = (np.zeros(()) for _ in range(3))

    def fold(self, group: int, task_class: int, values: np.ndarray) -> None:
        """Fold one instance's ``(width, *cells)`` values into its key:
        one add into the key's sums."""
        key = self.table.key(group, task_class)
        self.counts[key] += 1
        # ``sums[key] += values`` would also copy the block onto itself.
        block = self.sums[key]
        block += values
        count = self._divisors[key] = self.counts[key]
        if count == 1 or self.table.count_weighted:
            self.table.weights(self.counts, out=self._table_weights)
        np.divide(self._table_weights, self._divisors, out=self.contrast_weights)

    def reweigh(self) -> None:
        """Rebuild ``contrast_weights`` from ``counts``."""
        self.table.weights(self.counts, out=self._table_weights)
        np.maximum(self.counts, 1, out=self._divisors)
        np.divide(self._table_weights, self._divisors, out=self.contrast_weights)

    def contrast_sum(self, delta: float, scale: float = 1.0,
                     out: np.ndarray | None = None) -> np.ndarray:
        """Huber-penalty gradient summed over the contrasts, times
        ``scale`` (``huber_contrast_sum``), shape ``(width - 1, *cells)``;
        cold contrasts add nothing.  Written into ``out`` when given, laid
        out ``(width - 1, prod(cells))``.

        Without ``out`` the result is a scratch block: the next
        ``contrast_sum`` overwrites it, so use it before calling again.
        """
        if (delta, scale) != self._constants:
            self._constants = delta, scale
            self._delta.fill(delta)
            self._low.fill(-delta)
            self._scale.fill(scale)
        if out is None:
            if self._total is None:
                width, *cells = self.values.shape
                self._total = np.zeros((width - 1, *cells))
                self._flat_total = self._total.reshape(self._gradient.shape[1:])
            flat = self._flat_total
        else:
            flat = out
        _huber_product(self.contrast_weights, self._weights_t, self._quantity,
                       self._gradient, self._delta, self._low, self._scale,
                       flat, self._gaps, self._slopes)
        return self._total if out is None else out


class AggregateStore(RunningMeans):
    """Running sums of every (tree, node) gate of a forest of ``shape``,
    under the keys of ``table``.

    ``sums`` is ``(K, d + 2, T, m)``; its rows hold the sums of
    ``[n, n (1 - n), n (1 - n) x]``: the gate output, then its gradient in
    the node's bias and weights.  The footprint is fixed by the
    configuration and never grows with the stream.
    """

    def __init__(self, table: NotionTable, shape: ForestShape):
        self.shape = shape
        t, m = shape.tree_count, shape.n_nodes
        super().__init__(table, (t, m), shape.n_features + 2)
        self._input_shapes = (t, m), (1, t * m), (shape.n_features + 1, 1)
        # The staging rows of the slope and its products with x, as the
        # product writes them.
        self._slope_rows = self.values[1:].reshape(shape.n_features + 1, -1)

    def update_all(self, group: int, task_class: int, gates: np.ndarray,
                   slope: np.ndarray, xa: np.ndarray) -> None:
        """Fold one instance into every (tree, node) cell of its key.

        ``gates`` are (T, m), their slopes ``n (1 - n)`` a row (1, T * m)
        and ``xa`` the augmented features ``[1, x]`` a column (d + 1, 1),
        as a caller's workspace holds them: one K=1 product ``xa ⊗ slope``
        stages the slope and its products with x at once, since 1.0 times
        the slope is exactly the slope.
        """
        cells, row, column = self._input_shapes
        if gates.shape != cells or slope.shape != row or xa.shape != column:
            raise ShapeError(
                f"expected gates of shape {cells}, their slopes as a row "
                f"{row} and [1, x] as a column {column}, got {gates.shape}, "
                f"{slope.shape}, {xa.shape}"
            )
        values = self.values
        values[0] = gates
        xa.dot(slope, out=self._slope_rows)
        self.fold(group, task_class, values)
