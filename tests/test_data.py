"""Tests for instance streams: CSV parsing, normalization policies, and
the seeded synthetic generator."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairforest.data import (
    GROUP_COLUMN,
    GROUP_MARKER_SCALE,
    GROUP_MARKER_SHIFT,
    LABEL_COLUMN,
    DatasetSchema,
    SyntheticConfig,
    generate_synthetic,
    read_stream,
)
from fairforest.errors import ConfigurationError, DataError, DomainError
from oracles import default_schema, reference_rows


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


class TestDatasetSchema:
    """Column-layout validation."""

    def test_default_schema_columns(self):
        schema = default_schema(3)
        assert schema.feature_columns == ["f0", "f1", "f2"]
        assert (LABEL_COLUMN, GROUP_COLUMN) == ("y", "a")
        assert schema.n_features == 3

    def test_rejects_bad_layouts(self):
        with pytest.raises(ConfigurationError):
            DatasetSchema(feature_columns=[])
        with pytest.raises(ConfigurationError):
            DatasetSchema(feature_columns=["y", "f1"])
        with pytest.raises(ConfigurationError):
            DatasetSchema(feature_columns=["f0", "a"])
        with pytest.raises(ConfigurationError):
            DatasetSchema(feature_columns=["f0", "f0"])
        for mode in ("zscore", "fixed"):
            with pytest.raises(ConfigurationError):
                DatasetSchema(feature_columns=["f0"], normalization=mode)


class TestReadStream:
    """CSV parsing, error naming, and laziness."""

    def test_round_trip(self, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(
            path,
            ["f0", "f1", "y", "a"],
            [[0.5, -1.25, 1, 0], [2.0, 3.5, 0, 1]],
        )
        rows = list(read_stream(path, default_schema(2)))
        assert len(rows) == 2
        np.testing.assert_array_equal(rows[0][0], [0.5, -1.25])
        assert rows[0][1:] == (1, 0)
        np.testing.assert_array_equal(rows[1][0], [2.0, 3.5])
        assert rows[1][1:] == (0, 1)

    def test_columns_are_matched_by_name(self, tmp_path):
        path = tmp_path / "shuffled.csv"
        write_csv(path, ["a", "f1", "y", "f0", "extra"],
                  [[1, 20.0, 0, 10.0, 99]])
        (x, y, a), = read_stream(path, default_schema(2))
        np.testing.assert_array_equal(x, [10.0, 20.0])
        assert (y, a) == (0, 1)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="no such data file"):
            read_stream(tmp_path / "absent.csv", default_schema(2))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError, match="empty"):
            list(read_stream(path, default_schema(2)))

    def test_missing_columns_are_named(self, tmp_path):
        path = tmp_path / "short.csv"
        write_csv(path, ["f0", "y"], [[1.0, 0]])
        with pytest.raises(DataError, match="f1"):
            list(read_stream(path, default_schema(2)))

    def test_bad_number_names_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_csv(path, ["f0", "f1", "y", "a"],
                  [[1.0, 2.0, 0, 0], [1.0, "oops", 1, 1]])
        with pytest.raises(DataError, match="row 3, column 'f1'"):
            list(read_stream(path, default_schema(2)))

    @pytest.mark.parametrize("cells, message", [
        ((1.0, 2.0, "oops"), "row 3, column 'f2': could not parse 'oops'"),
        ((1.0, 2.0, "nan"), "row 3, column 'f2': non-finite value 'nan'"),
        ((1.0, "-inf", "oops"), "row 3, column 'f1': non-finite value '-inf'"),
        ((1.0, "oops", "inf"), "row 3, column 'f1': could not parse 'oops'"),
    ], ids=["unparsable", "non-finite", "non-finite-first", "unparsable-first"])
    def test_bad_cell_past_the_first_column_is_named(self, tmp_path, cells,
                                                     message):
        """A cell that is not a finite number is named by its row and
        column wherever it sits; with two such cells in a row, the first
        in column order is named."""
        path = tmp_path / "bad.csv"
        write_csv(path, ["f0", "f1", "f2", "y", "a"],
                  [[1.0, 2.0, 3.0, 0, 0], [*cells, 1, 1]])
        stream = read_stream(path, default_schema(3))
        next(stream)
        with pytest.raises(DataError, match=message):
            next(stream)

    def test_header_naming_a_column_twice_is_refused(self, tmp_path):
        """Columns are matched by name, so a repeated name would leave
        one of its columns unread: the header is refused, naming it."""
        path = tmp_path / "twice.csv"
        write_csv(path, ["f0", "y", "f1", "a", "y"], [[1.0, 1, 2.0, 0, 0]])
        with pytest.raises(DataError, match=r"\['y'\]"):
            list(read_stream(path, default_schema(2)))
        write_csv(path, ["f0", "f1", "y", "a", "extra", "extra"],
                  [[1.0, 2.0, 1, 0, 5, 6]])
        with pytest.raises(DataError, match=r"\['extra'\]"):
            list(read_stream(path, default_schema(2)))

    def test_non_finite_feature_is_rejected(self, tmp_path):
        path = tmp_path / "inf.csv"
        write_csv(path, ["f0", "y", "a"], [["inf", 0, 0]])
        with pytest.raises(DataError, match="non-finite"):
            list(read_stream(path, default_schema(1)))

    def test_bad_labels_name_row_and_column(self, tmp_path):
        path = tmp_path / "labels.csv"
        write_csv(path, ["f0", "y", "a"], [[1.0, 1.5, 0]])
        with pytest.raises(DomainError, match="row 2, column 'y'"):
            list(read_stream(path, default_schema(1)))
        write_csv(path, ["f0", "y", "a"], [[1.0, 0, -1]])
        with pytest.raises(DomainError, match="non-negative"):
            list(read_stream(path, default_schema(1)))

    def test_ragged_row_is_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("f0,y,a\n1.0,0\n")
        with pytest.raises(DataError, match="row 2"):
            list(read_stream(path, default_schema(1)))

    def test_rows_stream_lazily(self, tmp_path):
        """Early rows are served before a later malformed row is reached."""
        path = tmp_path / "lazy.csv"
        write_csv(path, ["f0", "y", "a"],
                  [[1.0, 0, 0], [2.0, 1, 1], ["bad", 0, 0]])
        stream = read_stream(path, default_schema(1))
        assert next(stream)[1] == 0
        assert next(stream)[1] == 1
        with pytest.raises(DataError):
            next(stream)

    def test_online_normalization_matches_prefix_statistics(self, tmp_path):
        """Row t is standardized with the mean and population deviation of
        rows 1..t, recomputed here from scratch."""
        rng = np.random.default_rng(20)
        raw = rng.uniform(-5, 5, size=(10, 3))
        path = tmp_path / "norm.csv"
        write_csv(path, ["f0", "f1", "f2", "y", "a"],
                  [list(row) + [0, 0] for row in raw])
        schema = default_schema(3, normalization="online")
        got = [x for x, _, _ in read_stream(path, schema)]
        for t in range(10):
            prefix = raw[: t + 1]
            mean = prefix.mean(axis=0)
            if t == 0:
                expected = raw[0] - mean
            else:
                scale = prefix.std(axis=0)
                scale = np.where(scale < 1e-12, 1.0, scale)
                expected = (raw[t] - mean) / scale
            np.testing.assert_allclose(got[t], expected, atol=1e-10,
                                       err_msg=f"row {t}")

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n_features=st.integers(1, 5),
           n_rows=st.integers(1, 12), normalize=st.booleans())
    def test_rows_equal_the_cell_by_cell_reference(self, data, n_features,
                                                   n_rows, normalize):
        """Every row the reader yields, normalized or not, equals bit for
        bit what parsing each cell on its own and the plain running
        scaler give: from the first row on, with constant columns (whose
        deviation stays below 1e-12) and a single feature."""
        finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
        constant = data.draw(st.lists(st.booleans(), min_size=n_features,
                                      max_size=n_features))
        first = data.draw(st.lists(finite, min_size=n_features,
                                   max_size=n_features))
        cells = []
        for _ in range(n_rows):
            values = [first[j] if constant[j] else data.draw(finite)
                      for j in range(n_features)]
            cells.append([repr(v) for v in values]
                         + [str(data.draw(st.integers(0, 2))) for _ in "ya"])
        schema = default_schema(n_features,
                                "online" if normalize else "none")
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "rows.csv")
            write_csv(path, schema.feature_columns + ["y", "a"], cells)
            got = list(read_stream(path, schema))
        expected = reference_rows(cells, normalize)
        assert len(got) == len(expected)
        for (x, y, a), (ref_x, ref_y, ref_a) in zip(got, expected):
            assert x.dtype == ref_x.dtype and x.tobytes() == ref_x.tobytes()
            assert (y, a) == (ref_y, ref_a)


class TestSyntheticGenerator:
    """The seeded biased stream."""

    def test_deterministic_in_the_seed(self):
        config = SyntheticConfig(n=20, seed=3)
        first = list(generate_synthetic(config))
        second = list(generate_synthetic(config))
        for (x1, y1, a1), (x2, y2, a2) in zip(first, second):
            np.testing.assert_array_equal(x1, x2)
            assert (y1, a1) == (y2, a2)
        third = list(generate_synthetic(SyntheticConfig(n=20, seed=4)))
        assert any(
            not np.array_equal(x1, x3) for (x1, _, _), (x3, _, _) in zip(first, third)
        )

    def test_yields_exactly_n_instances(self):
        assert sum(1 for _ in generate_synthetic(SyntheticConfig(n=17))) == 17

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            SyntheticConfig(n=0)
        with pytest.raises(ConfigurationError):
            SyntheticConfig(n=1, n_features=0)
        with pytest.raises(ConfigurationError):
            SyntheticConfig(n=1, bias=1.1)
        with pytest.raises(ConfigurationError):
            SyntheticConfig(n=1, noise=0.6)
        with pytest.raises(ConfigurationError):
            SyntheticConfig(n=1, separation=-0.1)

    def test_full_bias_ties_label_to_group(self):
        rows = generate_synthetic(SyntheticConfig(n=500, bias=1.0, seed=1))
        assert all(y == a for _, y, a in rows)

    def test_zero_bias_decouples_label_from_group(self):
        rows = list(generate_synthetic(SyntheticConfig(n=4000, bias=0.0, seed=2)))
        match = np.mean([y == a for _, y, a in rows])
        assert abs(match - 0.5) < 0.03
        group_rate = np.mean([a for _, _, a in rows])
        assert abs(group_rate - 0.5) < 0.03

    def test_reference_stream_label_group_agreement(self):
        """Frozen check of a pinned configuration: at bias 0.6 the label
        matches the group in 80 percent of draws, up to sampling noise."""
        rows = generate_synthetic(SyntheticConfig(n=5000, bias=0.6, seed=7))
        match = np.mean([y == a for _, y, a in rows])
        assert abs(match - 0.8) <= 0.02
        np.testing.assert_allclose(match, 0.7974, atol=1e-12)

    def test_coordinate_geometry(self):
        """The first half of the coordinates carries the label shift under
        unit noise; the rest carries the small group shift under small
        noise."""
        config = SyntheticConfig(n=3000, n_features=4, bias=0.5,
                                 separation=0.5, seed=9)
        rows = list(generate_synthetic(config))
        features = np.stack([x for x, _, _ in rows])
        labels = np.array([y for _, y, _ in rows])
        groups = np.array([a for _, _, a in rows])
        # Label coordinate: mean tracks the label, unit spread.
        np.testing.assert_allclose(
            features[labels == 1, 0].mean(), 0.25, atol=0.1
        )
        np.testing.assert_allclose(
            features[labels == 0, 0].mean(), -0.25, atol=0.1
        )
        assert abs(features[:, 0].std() - 1.0) < 0.1
        # Marker coordinate: mean tracks the group, small spread.
        np.testing.assert_allclose(
            features[groups == 1, 3].mean(), GROUP_MARKER_SHIFT, atol=0.02
        )
        np.testing.assert_allclose(
            features[groups == 0, 3].mean(), -GROUP_MARKER_SHIFT, atol=0.02
        )
        assert abs(features[groups == 1, 3].std() - GROUP_MARKER_SCALE) < 0.02

    def test_odd_feature_count_rounds_label_block_up(self):
        rows = list(generate_synthetic(
            SyntheticConfig(n=2000, n_features=3, seed=5)
        ))
        features = np.stack([x for x, _, _ in rows])
        assert features[:, 1].std() > 0.8  # label block includes coord 1
        assert features[:, 2].std() < 0.4  # marker block starts at coord 2

    def test_label_noise_flips_observations_not_geometry(self):
        """With bias 1 the clean label equals the group, so under heavy
        flip noise the feature centers still follow the group."""
        config = SyntheticConfig(n=3000, n_features=2, bias=1.0, noise=0.4,
                                 separation=1.0, seed=11)
        rows = list(generate_synthetic(config))
        features = np.stack([x for x, _, _ in rows])
        labels = np.array([y for _, y, _ in rows])
        groups = np.array([a for _, _, a in rows])
        flip_rate = np.mean(labels != groups)
        assert abs(flip_rate - 0.4) < 0.03
        np.testing.assert_allclose(
            features[groups == 1, 0].mean(), 0.5, atol=0.1
        )
        # Observed labels alone do not separate the flipped instances.
        flipped = features[(groups == 1) & (labels == 0), 0]
        np.testing.assert_allclose(flipped.mean(), 0.5, atol=0.15)
