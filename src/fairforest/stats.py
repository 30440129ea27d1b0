"""Streaming keyed statistics behind the fairness penalties.

The online fairness penalty never touches raw instances: it works off
running means, per key (a protected group, optionally conditioned on the
task class), of a constrained quantity and of its parameter gradient.
This module owns those running means in one packed, width-first layout:

* ``counts`` is ``(K,)``: every instance updates every cell of its keys,
  so one count per key serves them all;
* ``means`` is ``(K, width, *cells)``: row 0 of each key is the
  constrained quantity, the other rows its parameter gradient, so every
  pass over a key runs over long contiguous rows of cells.

``NotionTable`` is the package's only definition of a fairness notion:
its keys, the keys each instance folds into, and the (plus, minus) key
contrasts its penalty gradient sums over (``RunningMeans.contrast_sum``):

* ``dp`` - demographic parity over two groups: ``(g0, g1)``.
* ``equalized_odds`` - two groups, keys ``g * C + c``; one ``(g0, g1)``
  contrast per task class ``c``.
* ``multigroup`` - any number of groups plus an "overall" key that every
  instance folds into; one ``(overall, k)`` contrast per group ``k``.
* ``none`` - no keys and no contrasts.

Means are cumulative over the whole stream and advance by the
numerically stable increment ``mean += (value - mean) / count``.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, DomainError, ShapeError
from .forest import ForestShape


class NotionTable:
    """What the notion ``name`` compares among ``n_groups`` groups and
    ``n_classes`` task classes: ``n_keys`` keys, the keys an instance
    folds into (``keys``), the (plus, minus) ``contrasts``, and per key
    the group whose instances it counts (``key_groups``; None for a key
    every instance folds into).  ``n_classes`` is None unless the keys
    are class-conditioned."""

    def __init__(self, name: str, n_groups: int = 2,
                 n_classes: int | None = None):
        if n_groups < 2:
            raise ConfigurationError(f"n_groups must be >= 2, got {n_groups}")
        if name in ("dp", "equalized_odds") and n_groups != 2:
            raise ConfigurationError(f"the {name} notion compares exactly 2 "
                                     f"groups; use multigroup for more")
        groups = range(n_groups)
        if name == "equalized_odds":
            if n_classes is None or n_classes < 2:
                raise ConfigurationError("equalized_odds needs n_classes >= 2")
            classes = range(n_classes)
            self._keys = [[(g * n_classes + c,) for c in classes] for g in groups]
            self.key_groups = tuple(g for g in groups for _ in classes)
            self.contrasts = tuple((c, n_classes + c) for c in classes)
        elif name == "dp":
            self._keys, self.key_groups, self.contrasts = [(0,), (1,)], (0, 1), ((0, 1),)
        elif name == "multigroup":
            self._keys = [(g, n_groups) for g in groups]
            self.key_groups = (*groups, None)
            self.contrasts = tuple((n_groups, g) for g in groups)
        elif name == "none":
            self._keys, self.key_groups, self.contrasts = [()] * n_groups, (), ()
        else:
            raise ConfigurationError(f"unknown fairness notion {name!r}")
        self.name, self.n_groups, self.n_keys = name, n_groups, len(self.key_groups)
        self.n_classes = n_classes if name == "equalized_odds" else None

    def keys(self, group: int, task_class: int) -> tuple:
        """Keys an instance of ``group`` with label ``task_class`` folds
        into; DomainError for a group or class outside the table."""
        if not 0 <= group < self.n_groups:
            raise DomainError(f"group {group} outside [0, {self.n_groups})")
        if self.n_classes is None:
            return self._keys[group]
        if not 0 <= task_class < self.n_classes:
            raise DomainError(f"task class {task_class} outside [0, {self.n_classes})")
        return self._keys[group][task_class]

    def counts_agree(self, counts: np.ndarray, group_counts: list) -> bool:
        """Whether per-key ``counts`` are what a stream with these
        per-group instance counts leaves: a group's keys count its
        instances between them, a key of every group counts them all."""
        folded = [0] * self.n_groups
        for group, count in zip(self.key_groups, counts.tolist()):
            if group is None:
                if count != sum(group_counts):
                    return False
            else:
                folded[group] += count
        return folded == list(group_counts)


class RunningMeans:
    """Packed running means under the keys of a ``NotionTable``, with the
    key contrasts a penalty compares.

    Block ``means[k]`` holds one ``(width, *cells)`` block per key; row 0
    is the constrained quantity and rows ``1:`` its gradient.  ``values``
    is a block a caller may stage an instance's values in before
    ``fold``; with the two scratch blocks it means a step allocates
    nothing of a block's size.  None of them is state.
    """

    def __init__(self, table: NotionTable, cells: tuple, width: int):
        if not table.contrasts:
            raise ConfigurationError(
                f"no aggregates for fairness notion {table.name!r}"
            )
        self.table = table
        self.keys = table.keys
        self.contrasts = table.contrasts
        self.counts = np.zeros(table.n_keys, dtype=np.int64)
        self.means = np.zeros((table.n_keys, width, *cells))
        self.values = np.zeros((width, *cells))
        self._total = np.zeros((width, *cells))
        self._term = np.zeros((width, *cells))

    def fold(self, group: int, task_class: int, values: np.ndarray) -> None:
        """Fold one instance's ``(width, *cells)`` values into each of its
        keys."""
        term = self._term
        for key in self.keys(group, task_class):
            self.counts[key] += 1
            row = self.means[key]
            # row += (values - row) / count
            np.subtract(values, row, out=term)
            term /= self.counts[key]
            row += term

    def contrast_sum(self, delta: float) -> np.ndarray:
        """Huber-penalty gradient summed over the warm contrasts.

        Each contrast whose keys have both been seen adds
        ``clip(gap, -delta, delta) * (mean[plus] - mean[minus])[1:]``
        with ``gap`` the difference of row 0; the clip is the Huber slope.
        Cold contrasts add nothing.  Shape ``(width - 1, *cells)``.

        The result is a view of a scratch block: the next ``fold`` or
        ``contrast_sum`` overwrites it, so use it before either.
        """
        total = None
        for plus, minus in self.contrasts:
            if self.counts[plus] == 0 or self.counts[minus] == 0:
                continue
            diff = self._total if total is None else self._term
            np.subtract(self.means[plus], self.means[minus], out=diff)
            # Row 0 becomes the Huber slope; only rows 1: are summed.
            np.clip(diff[:1], -delta, delta, out=diff[:1])
            diff[1:] *= diff[:1]
            if total is None:
                total = diff
            else:
                total[1:] += diff[1:]
        if total is None:
            total = self._total
            total.fill(0.0)
        return total[1:]


class AggregateStore(RunningMeans):
    """Running group-conditional means of every (tree, node) gate.

    ``means`` is ``(K, d + 2, T, m)``; its rows hold the means of
    ``[n, n (1 - n), n (1 - n) x]``: the gate output, then its gradient in
    the node's bias and weights.  The footprint is fixed by the
    configuration and never grows with the stream.
    """

    def __init__(self, shape: ForestShape, n_groups: int = 2,
                 notion: str = "dp", n_classes: int | None = None):
        table = NotionTable(notion, n_groups, n_classes)
        self.shape = shape
        self.notion, self.n_groups, self.n_classes = (
            table.name, table.n_groups, table.n_classes)
        super().__init__(table, (shape.tree_count, shape.n_nodes),
                         shape.n_features + 2)

    def update_all(self, group: int, task_class: int, gates: np.ndarray,
                   slope: np.ndarray, x: np.ndarray) -> None:
        """Fold one instance into every (tree, node) cell of its keys.

        ``gates`` and their slopes ``n (1 - n)`` are (T, m), ``x`` (d,).
        """
        t, m, d = self.shape.tree_count, self.shape.n_nodes, self.shape.n_features
        if gates.shape != (t, m) or slope.shape != (t, m) or x.shape != (d,):
            raise ShapeError(
                f"expected gates and slopes of shape ({t}, {m}) and x of "
                f"shape ({d},), got {gates.shape}, {slope.shape}, {x.shape}"
            )
        values = self.values
        values[0], values[1] = gates, slope
        np.multiply(x[:, None, None], slope, out=values[2:])
        self.fold(group, task_class, values)
