"""Instance streams: CSV readers and a seeded synthetic generator.

Streams yield ``(x, y, a)`` tuples one instance at a time: a float64
feature vector, an integer task label, and an integer protected-group
label.  The CSV reader never buffers more than one row; categorical
features are expected to be pre-encoded by the caller.
"""

from __future__ import annotations

import csv
import math
import os
from collections import Counter
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ConfigurationError, DataError, DomainError

NORMALIZATION_MODES = ("none", "online")
LABEL_COLUMN = "y"
GROUP_COLUMN = "a"


@dataclass
class DatasetSchema:
    """Feature columns and normalization policy of a CSV stream whose
    label sits in column ``y`` and protected group in column ``a``.

    ``normalization`` is ``none`` or ``online`` (running standardization
    using only rows seen so far).
    """

    feature_columns: list[str]
    normalization: str = "none"

    def __post_init__(self) -> None:
        if not self.feature_columns:
            raise ConfigurationError("schema needs at least one feature column")
        if {LABEL_COLUMN, GROUP_COLUMN} & set(self.feature_columns):
            raise ConfigurationError(
                "label/group columns cannot double as feature columns"
            )
        if len(set(self.feature_columns)) != len(self.feature_columns):
            raise ConfigurationError("duplicate feature column names")
        if self.normalization not in NORMALIZATION_MODES:
            raise ConfigurationError(
                f"unknown normalization mode {self.normalization!r}"
            )

    @property
    def n_features(self) -> int:
        return len(self.feature_columns)


class _OnlineScaler:
    """Streaming per-feature standardization with no lookahead.

    Each row first updates the running mean/variance, then is transformed
    with the updated statistics, so the output at step ``t`` depends only
    on rows ``1..t``.  The intermediates live in buffers built once and
    the result is written into the row, so a row costs no allocation.
    Every scalar operand is a 0-d float64 array, as a Python scalar costs
    a ufunc call a conversion; the count is exact in float64 up to 2**53.
    """

    def __init__(self, n_features: int):
        self.count = 0
        self._count = np.zeros(())
        self._floor = np.array(1e-12)
        self._one = np.array(1.0)
        self.mean = np.zeros(n_features)
        self.m2 = np.zeros(n_features)
        self._delta = np.zeros(n_features)
        self._centered = np.zeros(n_features)
        self._scratch = np.zeros(n_features)
        self._flat = np.zeros(n_features, dtype=bool)

    def transform(self, x: np.ndarray) -> np.ndarray:
        """Fold the row ``x`` into the statistics and standardize it in
        place; returns ``x``."""
        self.count += 1
        self._count.fill(self.count)
        mean, scratch, centered = self.mean, self._scratch, self._centered
        delta = np.subtract(x, mean, out=self._delta)
        mean += np.divide(delta, self._count, out=scratch)
        np.subtract(x, mean, out=centered)
        self.m2 += np.multiply(delta, centered, out=scratch)
        if self.count < 2:
            x[...] = centered
            return x
        scale = np.sqrt(np.divide(self.m2, self._count, out=scratch), out=scratch)
        np.copyto(scale, self._one, where=np.less(scale, self._floor, out=self._flat))
        return np.divide(centered, scale, out=x)


def _parse_int(cell: str, row: int, column: str) -> int:
    text = cell.strip()
    try:
        value = int(text)
    except ValueError:
        raise DomainError(
            f"row {row}, column {column!r}: expected an integer label, got {cell!r}"
        ) from None
    if value < 0:
        raise DomainError(
            f"row {row}, column {column!r}: labels must be non-negative, got {value}"
        )
    return value


def read_stream(path, schema: DatasetSchema) -> Iterator[tuple]:
    """Stream ``(x, y, a)`` instances from a headered CSV file.

    Raises DataError naming the row and column on any malformed cell, and
    DomainError on label or group values that are not non-negative
    integers.  Rows are parsed and yielded one at a time.
    """
    if not os.path.exists(path):
        raise DataError(f"no such data file: {path}")
    return _read_stream_rows(path, schema)


def _read_header(path, reader) -> list[str]:
    """The header row of the CSV ``reader`` over ``path``; DataError when
    the file is empty or the header names a column twice, since columns
    are matched by name."""
    header = next(reader, None)
    if header is None:
        raise DataError(f"{path}: empty file, expected a header row")
    repeated = sorted(name for name, n in Counter(header).items() if n > 1)
    if repeated:
        raise DataError(f"{path}: header names columns {repeated} more than once")
    return header


def _bad_cell(row: list[str], row_number: int, columns: list[str],
              indices: list[int]) -> DataError:
    """The error naming the first feature cell of ``row`` that is not a
    finite number."""
    for column, idx in zip(columns, indices):
        cell = row[idx]
        try:
            value = float(cell)
        except ValueError:
            return DataError(f"row {row_number}, column {column!r}: "
                             f"could not parse {cell!r} as a number")
        if not math.isfinite(value):
            return DataError(f"row {row_number}, column {column!r}: "
                             f"non-finite value {cell!r}")
    raise AssertionError("every feature cell is a finite number")


def _read_stream_rows(path, schema: DatasetSchema) -> Iterator[tuple]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = _read_header(path, reader)
        positions = {name: i for i, name in enumerate(header)}
        missing = [
            name
            for name in schema.feature_columns + [LABEL_COLUMN, GROUP_COLUMN]
            if name not in positions
        ]
        if missing:
            raise DataError(f"{path}: header is missing columns {missing}")
        columns = schema.feature_columns
        feat_idx = [positions[name] for name in columns]
        label_idx = positions[LABEL_COLUMN]
        group_idx = positions[GROUP_COLUMN]
        width = len(header)
        transform = (
            _OnlineScaler(schema.n_features).transform
            if schema.normalization == "online"
            else None
        )
        for row_number, row in enumerate(reader, start=2):
            if len(row) != width:
                raise DataError(
                    f"row {row_number}: expected {width} fields, got {len(row)}"
                )
            try:
                values = [float(row[i]) for i in feat_idx]
            except ValueError:
                raise _bad_cell(row, row_number, columns, feat_idx) from None
            if not all(map(math.isfinite, values)):
                raise _bad_cell(row, row_number, columns, feat_idx)
            y = _parse_int(row[label_idx], row_number, LABEL_COLUMN)
            a = _parse_int(row[group_idx], row_number, GROUP_COLUMN)
            x = np.array(values)
            if transform is not None:
                x = transform(x)
            yield x, y, a


GROUP_MARKER_SHIFT = 0.2
GROUP_MARKER_SCALE = 0.2


@dataclass
class SyntheticConfig:
    """Parameters of the built-in biased binary stream.

    ``bias`` couples the label to the group: the label starts equal to
    the group with probability ``(1 + bias) / 2``.  ``noise`` then flips
    the observed label.  The first half of the coordinates carry the task
    signal: a label-dependent shift of ``±separation/2`` under unit
    Gaussian noise, following the pre-flip label so that ``noise``
    behaves as irreducible label noise.  The remaining coordinates are
    low-variance demographic markers: a small group-dependent shift of
    ``±GROUP_MARKER_SHIFT`` under Gaussian noise of scale
    ``GROUP_MARKER_SCALE``.  The markers still carry some task signal
    through the label-group correlation, so an unconstrained learner
    picks them up and inherits their group disparity.
    """

    n: int
    n_features: int = 10
    bias: float = 0.5
    separation: float = 0.5
    noise: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigurationError(f"n must be >= 1, got {self.n}")
        if self.n_features < 1:
            raise ConfigurationError(
                f"n_features must be >= 1, got {self.n_features}"
            )
        if not 0.0 <= self.bias <= 1.0:
            raise ConfigurationError(f"bias must be in [0, 1], got {self.bias}")
        if not 0.0 <= self.noise <= 0.5:
            raise ConfigurationError(f"noise must be in [0, 0.5], got {self.noise}")
        if self.separation < 0:
            raise ConfigurationError("separation must be non-negative")


def generate_synthetic(config: SyntheticConfig) -> Iterator[tuple]:
    """Yield ``config.n`` seeded instances of the biased binary stream."""
    rng = np.random.default_rng(config.seed)
    d = config.n_features
    n_label_coords = (d + 1) // 2
    label_shift = np.zeros(d)
    label_shift[:n_label_coords] = config.separation / 2.0
    group_shift = np.zeros(d)
    group_shift[n_label_coords:] = GROUP_MARKER_SHIFT
    noise_scale = np.ones(d)
    noise_scale[n_label_coords:] = GROUP_MARKER_SCALE
    p_match = (1.0 + config.bias) / 2.0
    for _ in range(config.n):
        a = int(rng.integers(0, 2))
        y_clean = a if rng.random() < p_match else 1 - a
        y = 1 - y_clean if rng.random() < config.noise else y_clean
        center = (
            (2 * y_clean - 1) * label_shift + (2 * a - 1) * group_shift
        )
        x = center + noise_scale * rng.standard_normal(d)
        yield x, y, a
