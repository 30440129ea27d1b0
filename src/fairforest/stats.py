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

A fairness notion is a list of (plus, minus) key contrasts, and its
penalty gradient is one sum over them (``RunningMeans.contrast_sum``):

* ``dp`` - demographic parity over two groups: ``(g0, g1)``.
* ``equalized_odds`` - keys ``g * C + c``; one ``(g0, g1)`` contrast per
  task class ``c``.
* ``multigroup`` - any number of groups plus an "overall" key that every
  instance folds into; one ``(overall, k)`` contrast per group ``k``.

Means are cumulative over the whole stream by default (an optional
exponential decay can be configured) and advance by the numerically
stable increment ``mean += (value - mean) / count``.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, DomainError, ShapeError
from .forest import ForestShape


class RunningMeans:
    """Packed running means under ``n_keys`` keys, with the key contrasts
    a penalty compares.

    Block ``means[k]`` holds one ``(width, *cells)`` block per key; row 0
    is the constrained quantity and rows ``1:`` its gradient.  ``values``
    is a block a caller may stage an instance's values in before
    ``fold``; with the two scratch blocks it means a step allocates
    nothing of a block's size.  None of them is state.
    """

    def __init__(self, n_keys: int, cells: tuple, width: int,
                 contrasts: tuple, decay: float | None = None):
        if decay is not None and not 0.0 < decay < 1.0:
            raise ConfigurationError(f"decay must lie in (0, 1), got {decay}")
        self.decay = decay
        self.contrasts = contrasts
        self.counts = np.zeros(n_keys, dtype=np.int64)
        self.means = np.zeros((n_keys, width, *cells))
        self.values = np.zeros((width, *cells))
        self._total = np.zeros((width, *cells))
        self._term = np.zeros((width, *cells))

    def fold(self, keys: tuple, values: np.ndarray) -> None:
        """Fold one instance's ``(width, *cells)`` values into each key."""
        term = self._term
        for key in keys:
            self.counts[key] += 1
            count = self.counts[key]
            row = self.means[key]
            if self.decay is not None and count > 1:
                # row = decay * row + (1 - decay) * values
                np.multiply(row, self.decay, out=self._total)
                np.multiply(values, 1 - self.decay, out=term)
                np.add(self._total, term, out=row)
            else:
                # row += (values - row) / count
                np.subtract(values, row, out=term)
                term /= count
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
                 notion: str = "dp", n_classes: int | None = None,
                 decay: float | None = None):
        if n_groups < 2:
            raise ConfigurationError(f"n_groups must be >= 2, got {n_groups}")
        if notion == "dp":
            if n_groups != 2:
                raise ConfigurationError("the dp notion compares exactly 2 groups")
            n_keys, contrasts = 2, ((0, 1),)
        elif notion == "equalized_odds":
            if n_classes is None or n_classes < 2:
                raise ConfigurationError("equalized_odds needs n_classes >= 2")
            n_keys = n_groups * n_classes
            contrasts = tuple((c, n_classes + c) for c in range(n_classes))
        elif notion == "multigroup":
            n_keys = n_groups + 1
            contrasts = tuple((n_groups, k) for k in range(n_groups))
        else:
            raise ConfigurationError(
                f"no aggregates for fairness notion {notion!r}"
            )
        if notion != "equalized_odds":
            n_classes = None
        self.shape = shape
        self.notion = notion
        self.n_groups = n_groups
        self.n_classes = n_classes
        super().__init__(
            n_keys, (shape.tree_count, shape.n_nodes), shape.n_features + 2,
            contrasts, decay,
        )

    def keys(self, group: int, task_class: int) -> tuple:
        """Key rows an instance of ``group`` with label ``task_class``
        folds into."""
        if not 0 <= group < self.n_groups:
            raise DomainError(
                f"group {group} outside configured range [0, {self.n_groups})"
            )
        if self.notion == "equalized_odds":
            if not 0 <= task_class < self.n_classes:
                raise DomainError(
                    f"task class {task_class} outside [0, {self.n_classes})"
                )
            return (group * self.n_classes + task_class,)
        if self.notion == "multigroup":
            return (group, self.n_groups)
        return (group,)

    def update_all(self, group: int, task_class: int, gates: np.ndarray,
                   slope: np.ndarray, x: np.ndarray) -> None:
        """Fold one instance into every (tree, node) cell of its keys.

        ``gates`` and their slopes ``n (1 - n)`` are (T, m), ``x`` (d,).
        """
        keys = self.keys(group, task_class)
        t, m, d = self.shape.tree_count, self.shape.n_nodes, self.shape.n_features
        if gates.shape != (t, m) or slope.shape != (t, m) or x.shape != (d,):
            raise ShapeError(
                f"expected gates and slopes of shape ({t}, {m}) and x of "
                f"shape ({d},), got {gates.shape}, {slope.shape}, {x.shape}"
            )
        values = self.values
        values[0], values[1] = gates, slope
        np.multiply(x[:, None, None], slope, out=values[2:])
        self.fold(keys, values)
