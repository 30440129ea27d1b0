"""Tests for the packed running-mean store and its key contrasts, for
the float codec that checkpoints write arrays with (``learner.py``), and
for the allocation-free passes over store blocks and the parameter
vector."""

import base64
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fairforest.baselines import LeafPenaltyLearner, OnlineMlpLearner
from fairforest.errors import ConfigurationError, DataError, DomainError, ShapeError
from fairforest.forest import (
    ForestShape,
    ObliqueForest,
    _evaluate,
    _leaf_probability_gradients_stacked,
)
from fairforest.gradients import ForestGradient, fairness_gradient
from fairforest.learner import (
    AdamState,
    LearnerConfig,
    OnlineForestLearner,
    decode_floats,
    encode_floats,
)
from fairforest.stats import AggregateStore, NotionTable, RunningMeans
from oracles import (augment, contrast_selections, keyed_penalty_gradient,
                     multigroup_weights, tree_weights)

SHAPE = ForestShape(tree_count=2, height=2, n_features=3, n_outputs=2)
DP = NotionTable("dp")


def feed(store, group, task_class, gate, slope=0.0, x=None):
    """Fold one instance whose every gate outputs ``gate`` with slope
    ``slope`` (not necessarily gate * (1 - gate), so tests can pick it)."""
    t, m, d = store.shape.tree_count, store.shape.n_nodes, store.shape.n_features
    x = np.ones(d) if x is None else np.asarray(x, dtype=np.float64)
    store.update_all(group, task_class, np.full((t, m), gate),
                     np.full((t, m), slope), augment(x))


def feed_random(store, n, seed, n_groups=2, n_classes=2):
    """Stream n random instances into the store and return them."""
    rng = np.random.default_rng(seed)
    log = []
    t, m, d = store.shape.tree_count, store.shape.n_nodes, store.shape.n_features
    for _ in range(n):
        group = int(rng.integers(0, n_groups))
        task_class = int(rng.integers(0, n_classes))
        gates = rng.uniform(0, 1, size=(t, m))
        slope = gates * (1.0 - gates)
        x = rng.standard_normal(d)
        store.update_all(group, task_class, gates, slope, augment(x))
        log.append((group, task_class, gates, slope, x))
    return log


def gaps(store):
    """Row-0 gap of every contrast, its count-scaled weights times the
    key sums, (n_contrasts, T, m)."""
    return np.einsum("ck,ktm->ctm", store.contrast_weights, store.sums[:, 0])


class TestConstruction:
    """Configuration validation."""

    def test_rejects_unknown_notion(self):
        with pytest.raises(ConfigurationError):
            NotionTable("parity")

    def test_rejects_single_group(self):
        with pytest.raises(ConfigurationError):
            NotionTable("dp", n_groups=1)

    def test_equalized_odds_needs_class_count(self):
        with pytest.raises(ConfigurationError):
            NotionTable("equalized_odds")
        with pytest.raises(ConfigurationError):
            NotionTable("equalized_odds", n_classes=1)

    def test_equalized_odds_compares_exactly_two_groups(self):
        """With a third group its keys would fill and never be compared:
        the contrasts pair group 0 with group 1 within each class."""
        for n_groups in (3, 4):
            with pytest.raises(ConfigurationError):
                NotionTable("equalized_odds", n_groups, n_classes=2)
            with pytest.raises(ConfigurationError):
                LearnerConfig(n_features=2, fairness="equalized_odds",
                              n_groups=n_groups)

    def test_class_count_ignored_outside_equalized_odds(self):
        assert NotionTable("dp", n_classes=7).n_classes is None

    def test_layout_is_key_leading(self):
        """Counts per key; per key, d + 2 width-first rows of cell sums."""
        t, m, d = SHAPE.tree_count, SHAPE.n_nodes, SHAPE.n_features
        for notion, kwargs, keys in (
            ("dp", {}, 2),
            ("equalized_odds", {"n_classes": 3}, 6),
            ("multigroup", {"n_groups": 4}, 4),
        ):
            store = AggregateStore(NotionTable(notion, **kwargs), SHAPE)
            assert store.counts.shape == (keys,)
            assert store.sums.shape == (keys, d + 2, t, m)


class TestKeyValidation:
    """Domain and shape checks on an update."""

    def test_group_out_of_range(self):
        store = AggregateStore(DP, SHAPE)
        with pytest.raises(DomainError):
            feed(store, 2, 0, 0.5)
        with pytest.raises(DomainError):
            feed(store, -1, 0, 0.5)

    def test_dp_key_must_not_carry_a_class(self):
        """The dp key is the group alone: the task class does not split it."""
        store = AggregateStore(DP, SHAPE)
        assert store.table.key(1, 0) == store.table.key(1, 1) == 1
        feed(store, 1, 0, 0.2)
        feed(store, 1, 1, 0.6)
        np.testing.assert_array_equal(store.counts, [0, 2])

    def test_equalized_odds_key_needs_a_class(self):
        store = AggregateStore(NotionTable("equalized_odds", n_classes=2), SHAPE)
        with pytest.raises(DomainError):
            feed(store, 0, 2, 0.5)
        with pytest.raises(DomainError):
            feed(store, 0, -1, 0.5)
        assert store.table.key(1, 1) == 3

    def test_indices_and_values_are_checked(self):
        store = AggregateStore(DP, SHAPE)
        good = np.zeros((2, 3))
        with pytest.raises(ShapeError):
            store.update_all(0, 0, np.zeros((2, 4)), good, np.ones(4))
        with pytest.raises(ShapeError):
            store.update_all(0, 0, good, np.zeros((3, 3)), np.ones(4))
        with pytest.raises(ShapeError):
            # x without its leading 1.
            store.update_all(0, 0, good, good, np.zeros(3))
        np.testing.assert_array_equal(store.counts, 0)


class TestRunningMeans:
    """Running sums over counts agree with batch recomputation."""

    def test_updates_match_list_mean(self):
        """One key's sums over its count equal the plain average of the
        values fed into it, in every column of the packed row."""
        store = AggregateStore(DP, SHAPE)
        log = [entry for entry in feed_random(store, 40, seed=5)
               if entry[0] == 0]
        assert store.counts[0] == len(log)
        gates = np.stack([g for _, _, g, _, _ in log])
        slope = np.stack([s for _, _, _, s, _ in log])
        xs = np.stack([x for _, _, _, _, x in log])
        means = store.sums[0] / store.counts[0]
        np.testing.assert_allclose(means[0], gates.mean(axis=0),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(means[1], slope.mean(axis=0),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            means[2:],
            np.einsum("ntm,nd->dtm", slope, xs) / len(log), rtol=0, atol=1e-12,
        )

    def test_long_stream_sums_stay_near_the_exact_mean(self):
        """Over 2e5 folds of values of either sign, ``sums / n`` stays
        within 1e-13 of the correctly rounded mean (``math.fsum`` over
        ``n``) in every cell: each fold adds one rounding of at most half
        an ulp of the sum, and those errors mostly cancel."""
        n = 200_000
        values = np.random.default_rng(8).normal(0.3, 1.0, size=(n, 2, 4))
        store = RunningMeans(NotionTable("dp"), (4,), 2)
        for row in values:
            store.fold(1, 0, row)
        assert store.counts.tolist() == [0, n]
        exact = np.array([math.fsum(column) / n for column in
                          values.reshape(n, -1).T]).reshape(2, 4)
        np.testing.assert_allclose(store.sums[1] / n, exact, rtol=0,
                                   atol=1e-13)


class TestGapEstimators:
    """Contrasts of the three fairness notions."""

    def test_cold_until_both_groups_seen(self):
        store = AggregateStore(DP, SHAPE)
        np.testing.assert_array_equal(store.contrast_sum(1.0), 0.0)
        feed(store, 0, 0, 0.9, slope=1.0)
        np.testing.assert_array_equal(store.contrast_sum(1.0), 0.0)
        feed(store, 1, 0, 0.4, slope=0.5)
        assert (store.contrast_sum(1.0) != 0.0).all()

    def test_dp_gap_is_group_zero_minus_group_one(self):
        store = AggregateStore(DP, SHAPE)
        for v in (0.8, 0.6):
            feed(store, 0, 0, v, slope=v, x=np.full(3, 1.0))
        for v in (0.1, 0.3):
            feed(store, 1, 0, v, slope=v, x=np.full(3, 1.0))
        # The table's [1, -1] over the means, each column over its count.
        np.testing.assert_array_equal(store.counts, [2, 2])
        np.testing.assert_array_equal(store.contrast_weights * store.counts,
                                      [[1.0, -1.0]])
        np.testing.assert_allclose(gaps(store), 0.7 - 0.2, atol=1e-12)
        total = store.contrast_sum(delta=10.0)
        grad_w, grad_b = total[1:], total[0]
        np.testing.assert_allclose(grad_w, 0.5 * 0.5, atol=1e-12)
        np.testing.assert_allclose(grad_b, 0.5 * 0.5, atol=1e-12)

    def test_gap_sign_flips_with_group_order(self):
        store = AggregateStore(DP, SHAPE)
        feed(store, 0, 0, 0.2)
        feed(store, 1, 0, 0.9)
        assert (gaps(store) < 0).all()

    def test_multigroup_gap_compares_against_overall_mean(self):
        store = AggregateStore(NotionTable("multigroup", 3), SHAPE)
        observations = {0: 0.9, 1: 0.5, 2: 0.1}
        for group, v in observations.items():
            feed(store, group, 0, v, slope=v)
        # The overall mean is the count-weighted group means, not a key.
        np.testing.assert_array_equal(store.counts, [1, 1, 1])
        np.testing.assert_array_equal(store.contrast_weights,
                                      np.full((3, 3), 1 / 3) - np.eye(3))
        overall = np.mean(list(observations.values()))
        for gap, v in zip(gaps(store), observations.values()):
            np.testing.assert_allclose(gap, overall - v, atol=1e-12)
        grad_b = store.contrast_sum(delta=10.0)[0]
        np.testing.assert_allclose(
            grad_b, sum((overall - v) ** 2 for v in observations.values()),
            atol=1e-12,
        )

    def test_multigroup_cold_for_unseen_group(self):
        """A contrast with an unseen group adds nothing; the others do."""
        store = AggregateStore(NotionTable("multigroup", 3), SHAPE)
        feed(store, 0, 0, 0.5, slope=1.0)
        feed(store, 1, 0, 0.1, slope=0.0)
        grad_b = store.contrast_sum(delta=10.0)[0]
        # overall = (0.3, 0.5): group 0 adds -0.2 * -0.5, group 1 adds
        # 0.2 * 0.5, group 2 is cold.
        np.testing.assert_allclose(grad_b, 0.2, atol=1e-12)

    def test_multigroup_weights_equal_the_numpy_expression_bit_for_bit(self):
        """The shares divided in Python and broadcast into every row, then
        the signs added, give the bits of the one numpy expression: for 2
        to 8 groups and counts with zeros, all zeros, and large counts."""
        rng = np.random.default_rng(51)
        for n_groups in range(2, 9):
            table = NotionTable("multigroup", n_groups)
            buffer = np.full((n_groups, n_groups), np.nan)
            cases = [np.zeros(n_groups, dtype=np.int64)]
            cases += [rng.integers(0, high, n_groups)
                      for high in (2, 3, 10, 1000, 10**9) for _ in range(8)]
            for counts in cases:
                want = multigroup_weights(counts).tobytes()
                assert table.weights(counts).tobytes() == want
                assert table.weights(counts, out=buffer) is buffer
                assert buffer.tobytes() == want

    def test_contrast_sum_follows_each_change_of_delta_and_scale(self):
        """A store's contrast sum after a change of ``delta``, of
        ``scale`` or of both, and after a change back, equals a fresh
        store's first: the constants follow the caller's values."""
        log_seed, calls = 8, [(0.01, 1.0), (0.05, 1.0), (0.05, 0.7),
                              (0.02, 1.3), (0.01, 1.0), (0.01, 1.0)]
        store = AggregateStore(NotionTable("multigroup", 3), SHAPE)
        feed_random(store, 40, log_seed, n_groups=3)
        for delta, scale in calls:
            fresh = AggregateStore(NotionTable("multigroup", 3), SHAPE)
            feed_random(fresh, 40, log_seed, n_groups=3)
            want = fresh.contrast_sum(delta, scale).tobytes()
            assert store.contrast_sum(delta, scale).tobytes() == want
            out = np.empty((SHAPE.n_features + 1, SHAPE.tree_count * SHAPE.n_nodes))
            assert store.contrast_sum(delta, scale, out).tobytes() == want
        # Every delta clips some gap, so each change moves the sum.
        sums = {store.contrast_sum(delta, scale).tobytes() for delta, scale in calls}
        assert len(sums) == len(set(calls))

    def test_conditional_gap_keys_on_group_and_class(self):
        store = AggregateStore(NotionTable("equalized_odds", n_classes=2), SHAPE)
        feed(store, 0, 0, 0.9, slope=1.0)
        feed(store, 1, 0, 0.4, slope=0.0)
        feed(store, 0, 1, 0.3, slope=5.0)
        # Class 1's row names key 3 (group 1, class 1), still unseen.
        np.testing.assert_array_equal(store.contrast_weights,
                                      [[1, 0, -1, 0], [0, 0, 0, 0]])
        np.testing.assert_allclose(gaps(store)[0], 0.5, atol=1e-12)
        grad_b = store.contrast_sum(delta=10.0)[0]
        # Class 1 is cold: group 1 has not been seen with it.
        np.testing.assert_allclose(grad_b, 0.5 * 1.0, atol=1e-12)

    def test_dp_estimators_need_exactly_two_groups(self):
        with pytest.raises(ConfigurationError):
            NotionTable("dp", n_groups=3)


def oracle_gradient(log, notion, n_groups, n_classes, delta, weight):
    """Huber-penalty gradient from plain means of the logged instances,
    one contrast at a time, independent of the store."""

    def stats(select):
        chosen = [(g, s, x) for a, y, g, s, x in log if select(a, y)]
        if not chosen:
            return None
        return (np.mean([g for g, _, _ in chosen], axis=0),
                np.mean([s[:, :, None] * x for _, s, x in chosen], axis=0),
                np.mean([s for _, s, _ in chosen], axis=0))

    grad_w, grad_b = 0.0, 0.0
    for plus, minus in contrast_selections(notion, n_groups, n_classes):
        sp, sm = stats(plus), stats(minus)
        if sp is None or sm is None:
            continue
        coeff = np.clip(sp[0] - sm[0], -delta, delta)
        grad_w = grad_w + coeff[:, :, None] * (sp[1] - sm[1])
        grad_b = grad_b + coeff * (sp[2] - sm[2])
    return weight * grad_w, weight * grad_b


class TestVectorizedPath:
    """The fold and the contrast sum against an oracle, over random
    notions, shapes and streams that leave keys unseen."""

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_gradient_matches_oracle(self, data):
        notion = data.draw(st.sampled_from(["dp", "equalized_odds", "multigroup"]))
        n_groups = data.draw(st.integers(2, 4)) if notion == "multigroup" else 2
        n_classes = data.draw(st.integers(2, 3))
        shape = ForestShape(data.draw(st.integers(1, 3)),
                            data.draw(st.integers(1, 4)),
                            data.draw(st.integers(1, 4)), n_classes)
        delta = data.draw(st.floats(1e-3, 1.0))
        weight = data.draw(st.floats(0.1, 3.0))
        # Draw from subsets of the groups and classes so some keys stay
        # unseen and their contrasts cold.
        groups = data.draw(st.lists(st.integers(0, n_groups - 1), min_size=1,
                                    max_size=n_groups, unique=True))
        classes = data.draw(st.lists(st.integers(0, n_classes - 1), min_size=1,
                                     max_size=n_classes, unique=True))
        n = data.draw(st.integers(0, 30))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))

        store = AggregateStore(NotionTable(notion, n_groups, n_classes),
                               shape)
        t, m, d = shape.tree_count, shape.n_nodes, shape.n_features
        log = []
        for _ in range(n):
            a = int(rng.choice(groups))
            y = int(rng.choice(classes))
            gates = rng.uniform(0, 1, size=(t, m))
            slope = gates * (1.0 - gates)
            x = rng.standard_normal(d)
            store.update_all(a, y, gates, slope, augment(x))
            log.append((a, y, gates, slope, x))

        grad = fairness_gradient(store, delta, weight,
                                 ForestGradient.zeros(shape))
        want_w, want_b = oracle_gradient(log, notion, n_groups, n_classes,
                                         delta, weight)
        np.testing.assert_allclose(tree_weights(grad.nodes), np.broadcast_to(
            want_w, tree_weights(grad.nodes).shape), rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(grad.nodes[0], np.broadcast_to(
            want_b, grad.nodes[0].shape), rtol=1e-9, atol=1e-12)
        np.testing.assert_array_equal(grad.leaves, 0.0)


    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_width_first_rows_match_naive_key_means(self, data):
        """Each key's ``(d + 2, T, m)`` block of sums, over its count, is
        the naive mean of ``[n, n (1 - n), n (1 - n) x]`` over the
        instances that fold into that key, and the contrast sum is the
        clipped row-0 gap times the other rows, summed over warm
        contrasts, for every notion."""
        notion = data.draw(st.sampled_from(["dp", "equalized_odds", "multigroup"]))
        n_groups = data.draw(st.integers(2, 4)) if notion == "multigroup" else 2
        n_classes = data.draw(st.integers(2, 3))
        shape = ForestShape(data.draw(st.integers(1, 3)),
                            data.draw(st.integers(1, 4)),
                            data.draw(st.integers(1, 4)), n_classes)
        delta = data.draw(st.floats(1e-3, 1.0))
        n = data.draw(st.integers(0, 30))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        store = AggregateStore(NotionTable(notion, n_groups, n_classes),
                               shape)
        t, m, d = shape.tree_count, shape.n_nodes, shape.n_features
        rows = {k: [] for k in range(len(store.counts))}
        for _ in range(n):
            a = int(rng.integers(0, n_groups))
            y = int(rng.integers(0, n_classes))
            gates = rng.uniform(0, 1, size=(t, m))
            slope = gates * (1.0 - gates)
            x = rng.standard_normal(d)
            store.update_all(a, y, gates, slope, augment(x))
            row = np.concatenate([gates[None], slope[None],
                                  x[:, None, None] * slope[None]])
            rows[a * n_classes + y if notion == "equalized_odds" else a].append(row)

        want = np.zeros((d + 1, t, m))
        for key, values in rows.items():
            assert store.counts[key] == len(values)
            expected = np.mean(values, axis=0) if values else 0.0
            np.testing.assert_allclose(store.sums[key] / max(len(values), 1),
                                       expected,
                                       rtol=1e-12, atol=1e-15)
        for plus, minus in naive_contrasts(notion, rows):
            if plus is not None and minus is not None:
                diff = plus - minus
                want += np.clip(diff[0], -delta, delta) * diff[1:]
        np.testing.assert_allclose(store.contrast_sum(delta), want,
                                   rtol=1e-9, atol=1e-12)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_weighted_product_matches_keyed_oracle(self, data):
        """The one weighted product equals the keyed oracle, whose
        ``multigroup`` side is the true mean of every instance, to 1e-12;
        contrasts naming an unseen key have an exactly zero weight row, and
        an unseen key's block adds exactly nothing, whatever it holds."""
        notion = data.draw(st.sampled_from(["dp", "equalized_odds", "multigroup"]))
        n_groups = data.draw(st.integers(2, 6)) if notion == "multigroup" else 2
        n_classes = data.draw(st.integers(2, 3))
        shape = ForestShape(data.draw(st.integers(1, 2)),
                            data.draw(st.integers(1, 3)),
                            data.draw(st.integers(1, 3)), n_classes)
        delta = data.draw(st.floats(1e-3, 1.0))
        groups = data.draw(st.lists(st.integers(0, n_groups - 1), min_size=1,
                                    max_size=n_groups, unique=True))
        classes = data.draw(st.lists(st.integers(0, n_classes - 1), min_size=1,
                                     max_size=n_classes, unique=True))
        n = data.draw(st.integers(1, 30))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        store = AggregateStore(NotionTable(notion, n_groups, n_classes),
                               shape)
        t, m, d = shape.tree_count, shape.n_nodes, shape.n_features
        cells = np.arange(t * m)
        log = []
        for _ in range(n):
            a, y = int(rng.choice(groups)), int(rng.choice(classes))
            gates = rng.uniform(0, 1, size=(t, m))
            slope = gates * (1.0 - gates)
            x = rng.standard_normal(d)
            store.update_all(a, y, gates, slope, augment(x))
            # Each cell's rows are its own parameters: P = (d + 1) T m.
            rows = np.concatenate([slope[None], x[:, None, None] * slope])
            jac = np.zeros((t * m, d + 1, t * m))
            jac[cells, :, cells] = rows.reshape(d + 1, t * m).T
            log.append((a, y, gates, jac.reshape(t, m, -1)))

        total = store.contrast_sum(delta).copy()
        want = keyed_penalty_gradient(log, notion, n_groups, n_classes, delta, 1.0)
        np.testing.assert_allclose(total.ravel(), want, rtol=0, atol=1e-12)

        # Row g of multigroup names key g; row c of the others keys c, C + c.
        unseen = store.counts == 0
        half = len(unseen) // 2
        cold = unseen if notion == "multigroup" else unseen[:half] | unseen[half:]
        weights = store.contrast_weights
        np.testing.assert_array_equal(weights[cold], 0.0)
        np.testing.assert_array_equal(weights[:, unseen], 0.0)
        store.sums[unseen] = rng.uniform(-1e3, 1e3, store.sums[unseen].shape)
        np.testing.assert_array_equal(store.contrast_sum(delta), total)


def naive_contrasts(notion, rows):
    """(plus, minus) plain means of each contrast over per-key row lists,
    None for a side with no rows: dp keys 0 and 1, equalized_odds keys
    c and C + c, multigroup the mean of every row against each group."""
    def mean(values):
        return np.mean(values, axis=0) if values else None

    keys = len(rows)
    if notion == "multigroup":
        every = mean([row for values in rows.values() for row in values])
        return [(every, mean(rows[k])) for k in range(keys)]
    half = keys // 2
    return [(mean(rows[c]), mean(rows[half + c])) for c in range(half)]


def traced_peak(call) -> int:
    """Peak bytes ``tracemalloc`` sees allocated during ``call()`` beyond
    what was held before it, after one untraced warm-up call."""
    call()
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


# The paper-width shape (h=6, T=8, d=384): a node store block of 1.5 MB.
# numpy's broadcasting ufuncs stage a broadcast operand through a fixed
# buffer of ``np.getbufsize()`` values (64 kB) whatever the array's size,
# so a block must be several such buffers wide before a quarter of it
# tells a fixed buffer from a block-sized temporary.
WIDE = ForestShape(tree_count=8, height=6, n_features=384, n_outputs=2)


class TestNoBlockSizedTemporaries:
    """Once warm, the per-step passes write into buffers their owner
    holds: the store's staging and scratch blocks, Adam's two scratch
    vectors.  Each pass peaks below a quarter of the block (or vector) it
    runs over, where a single temporary of the block's size would not;
    the routing core allocates only its gather and its result."""

    @pytest.mark.parametrize("notion, n_groups", [
        ("dp", 2), ("equalized_odds", 2), ("multigroup", 3), ("multigroup", 4),
    ])
    def test_node_store_passes(self, notion, n_groups):
        """Under multigroup every fold also refreshes the count-weighted
        contrast rows; with four groups the last is never seen, so the
        contrast pass also runs over a cold row."""
        store = AggregateStore(NotionTable(notion, n_groups, 2), WIDE)
        rng = np.random.default_rng(0)
        t, m, d = WIDE.tree_count, WIDE.n_nodes, WIDE.n_features
        gates = rng.uniform(size=(t, m))
        slope = gates * (1 - gates)
        xa = augment(rng.normal(size=d))
        for group in range(min(n_groups, 3)):
            for task_class in range(2):
                store.update_all(group, task_class, gates, slope, xa)
        block = store.sums[0].nbytes
        peaks = {
            "update_all": traced_peak(
                lambda: store.update_all(1, 0, gates, slope, xa)),
            "fold": traced_peak(lambda: store.fold(0, 1, store.values)),
            "contrast_sum": traced_peak(lambda: store.contrast_sum(0.01)),
        }
        assert max(peaks.values()) < block / 4, (peaks, block)

    def test_routing_core_peaks_at_its_gather(self):
        """The routing core writes its ``(T, h, 2^h)`` gather and the leaf
        probabilities into the pass's buffers, and allocates nothing of
        its index's size: at h=10, T=4 ``take`` with a read-only index
        would copy all 328 kB of it."""
        forest = ObliqueForest.random(10, 10, 2, tree_count=4, rng=0)
        p = _evaluate(forest, np.ones(10))
        peak = traced_peak(
            lambda: _leaf_probability_gradients_stacked(forest, p))
        assert peak < forest.path_index.nbytes / 4, peak

    def test_leaf_store_passes(self):
        """The leaf baseline's store at h=6, T=8 (d=32: a 0.8 MB block)."""
        learner = LeafPenaltyLearner(LearnerConfig(
            n_features=32, height=6, tree_count=8, fairness_weight=1.0))
        store = learner.leaf_store
        values = np.random.default_rng(1).normal(size=store.values.shape)
        store.fold(0, 0, values)
        store.fold(1, 0, values)
        block = store.sums[0].nbytes
        peaks = {
            "fold": traced_peak(lambda: store.fold(1, 0, values)),
            "contrast_sum": traced_peak(lambda: store.contrast_sum(0.01)),
        }
        assert max(peaks.values()) < block / 4, (peaks, block)

    def test_warm_leaf_step(self):
        """A whole warm step of the leaf baseline (h=6, T=8, d=32: a
        0.8 MB key block) stays below a quarter of a key block: the
        Jacobian is gathered straight into the staging block, the fold
        adds in place, and the node sums and their gather into the
        gradient write into blocks the learner holds."""
        learner = LeafPenaltyLearner(LearnerConfig(
            n_features=32, height=6, tree_count=8, fairness_weight=1.0))
        x = np.random.default_rng(3).normal(size=32)
        for group in (0, 1, 0, 1):
            learner.step(x, 0, group)
        block = learner.leaf_store.sums[0].nbytes
        peak = traced_peak(lambda: learner.step(x, 1, 0))
        assert peak < block / 4, (peak, block)

    def test_learners_never_build_the_scratch_result_block(self):
        """The result block of a ``contrast_sum`` without ``out`` is built
        on its first use: a run of the forest or the leaf learner, each
        summing into its own gradient, never builds it; the MLP baseline,
        which reads it, does."""
        config = LearnerConfig(n_features=4, height=3, tree_count=2,
                               fairness_weight=1.0, seed=3)
        forest = OnlineForestLearner(config)
        leaf = LeafPenaltyLearner(config)
        mlp = OnlineMlpLearner(config, hidden=8)
        rng = np.random.default_rng(4)
        stores = (forest.store, leaf.leaf_store, mlp.store)
        assert all(store._total is None for store in stores)
        for _ in range(30):
            x, y, a = rng.normal(size=4), int(rng.integers(0, 2)), int(rng.integers(0, 2))
            for learner in (forest, leaf, mlp):
                learner.step(x, y, a)
        assert forest.store._total is None
        assert leaf.leaf_store._total is None
        assert mlp.store._total is not None

    def test_adam_update(self):
        rng = np.random.default_rng(2)
        params = rng.normal(size=WIDE.n_params)
        grads = rng.normal(size=WIDE.n_params)
        adam = AdamState(WIDE.n_params, LearnerConfig(n_features=WIDE.n_features))
        peak = traced_peak(lambda: adam.apply(params, grads))
        assert peak < params.nbytes / 4, (peak, params.nbytes)


class TestSnapshot:
    """The store's part of a learner checkpoint: its counts under
    ``store`` and its sums under ``store.sums``; the config fixes the
    rest of its layout."""

    @staticmethod
    def _learner(fairness, n_groups=2, n_outputs=2, n=10, seed=2):
        learner = OnlineForestLearner(LearnerConfig(
            n_features=SHAPE.n_features, n_outputs=n_outputs,
            height=SHAPE.height, tree_count=SHAPE.tree_count,
            fairness=fairness, fairness_weight=0.5, n_groups=n_groups,
            seed=3))
        rng = np.random.default_rng(seed)
        for _ in range(n):
            learner.step(rng.standard_normal(SHAPE.n_features),
                         int(rng.integers(0, n_outputs)),
                         int(rng.integers(0, n_groups)))
        return learner

    def test_round_trip_preserves_state(self):
        learner = self._learner("dp", n=30, seed=17)
        store = learner.store
        restored = OnlineForestLearner.restore(
            json.loads(json.dumps(learner.checkpoint()))).store
        np.testing.assert_array_equal(store.counts, restored.counts)
        np.testing.assert_array_equal(store.sums, restored.sums)
        np.testing.assert_array_equal(restored.contrast_weights,
                                      store.contrast_weights)
        table, again = store.table, restored.table
        assert (again.name, again.n_groups, again.n_classes, restored.shape) == (
            table.name, table.n_groups, table.n_classes, store.shape)

    def test_malformed_snapshots_are_refused(self):
        """Truncated, wrong-length, non-finite, non-string or non-base64
        sums, and truncated, negative or non-integer counts, raise
        DataError instead of loading into a store they do not fit, for
        the store of every notion."""
        for learner in (
            self._learner("dp"),
            self._learner("equalized_odds", n_outputs=3),
            self._learner("multigroup", n_groups=3),
        ):
            good = json.loads(json.dumps(learner.checkpoint()))
            OnlineForestLearner.restore(good)
            sums = learner.store.sums
            non_finite = sums.copy()
            non_finite[0, 1, 1, 0] = np.nan
            text = good["floats"]["store.sums"]
            counts = good["counts"]["store"]
            for section, name, value in (
                ("floats", "store.sums", text[:-12]),
                ("floats", "store.sums", encode_floats(sums[:-1])),
                ("floats", "store.sums", encode_floats(non_finite)),
                ("floats", "store.sums", sums.tolist()),
                ("floats", "store.sums", text.replace("A", "*", 1)),
                ("counts", "store", counts[:-1]),
                ("counts", "store", [-1] + counts[1:]),
                ("counts", "store", [2.9, 3.5] + counts[2:]),
                ("counts", "store", [float(c) for c in counts]),
                ("counts", "store", [True] + counts[1:]),
                ("counts", "store", "5"),
            ):
                data = json.loads(json.dumps(good))
                data[section][name] = value
                with pytest.raises(DataError):
                    OnlineForestLearner.restore(data)


finite_floats = st.floats(allow_nan=False, allow_infinity=False,
                          allow_subnormal=True)


class TestFloatCodec:
    """``encode_floats``/``decode_floats``: base64 of little-endian
    float64 bytes, refusing anything else."""

    @given(st.lists(finite_floats, max_size=64).map(np.array))
    @settings(max_examples=200, deadline=None)
    def test_finite_arrays_round_trip_bit_for_bit(self, values):
        values = values.astype(np.float64)
        out = np.full(values.shape, np.nan)
        decode_floats(json.loads(json.dumps(encode_floats(values))), out, "x")
        assert out.tobytes() == values.tobytes()

    def test_edge_values_round_trip_bit_for_bit(self):
        info = np.finfo(np.float64)
        values = np.array([-0.0, 0.0, info.smallest_subnormal,
                           -info.smallest_subnormal, info.tiny, info.max,
                           -info.max, 1 / 3]).reshape(2, 4)
        out = np.empty((2, 4))
        decode_floats(encode_floats(values), out, "x")
        assert out.tobytes() == values.tobytes()
        assert np.signbit(out[0, 0])

    def test_bytes_are_little_endian_float64_in_c_order(self):
        values = np.arange(6.0).reshape(2, 3)
        text = encode_floats(values.T.astype(">f8"))
        assert text == encode_floats(np.ascontiguousarray(values.T))
        assert base64.b64decode(text) == np.ascontiguousarray(
            values.T, dtype="<f8").tobytes()

    @given(st.lists(finite_floats, min_size=1, max_size=16),
           st.integers(0, 15),
           st.sampled_from([np.nan, np.inf, -np.inf]))
    @settings(max_examples=100, deadline=None)
    def test_non_finite_values_are_refused(self, values, index, bad):
        values = np.array(values)
        values[index % values.size] = bad
        with pytest.raises(DataError, match="non-finite"):
            decode_floats(encode_floats(values), np.empty(values.size), "x")

    @given(st.lists(finite_floats, max_size=16), st.integers(-3, 3))
    @settings(max_examples=100, deadline=None)
    def test_wrong_length_is_refused(self, values, offset):
        size = len(values) + offset
        assume(offset != 0 and size >= 0)
        with pytest.raises(DataError):
            decode_floats(encode_floats(np.array(values)), np.empty(size), "x")

    @pytest.mark.parametrize("text", [
        "AAAAAAAA8D8",  # missing padding
        "AAAAAAAA8D8=\n",
        "AAAA AAAA8D8=",
        "AAAAAAAA*D8=",
        "AAAAAAAA8D8==",
        "ÀAAAAAAA8D8=",
    ])
    def test_invalid_base64_is_refused(self, text):
        out = np.empty(1)
        decode_floats("AAAAAAAA8D8=", out, "x")
        assert out[0] == 1.0
        with pytest.raises(DataError):
            decode_floats(text, np.empty(1), "x")

    @pytest.mark.parametrize("value", [None, 1.0, [1.0], {"x": 1.0},
                                       b"AAAAAAAA8D8="])
    def test_non_string_is_refused(self, value):
        with pytest.raises(DataError, match="base64 string"):
            decode_floats(value, np.empty(1), "x")
