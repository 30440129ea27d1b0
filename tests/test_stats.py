"""Tests for the packed running-mean store and its key contrasts."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairforest.errors import ConfigurationError, DataError, DomainError, ShapeError
from fairforest.forest import ForestShape
from fairforest.gradients import HuberPenalty, fairness_gradient
from fairforest.stats import AggregateStore

SHAPE = ForestShape(tree_count=2, height=2, n_features=3, n_outputs=2)


def feed(store, group, task_class, gate, slope=0.0, x=None):
    """Fold one instance whose every gate outputs ``gate`` with slope
    ``slope`` (not necessarily gate * (1 - gate), so tests can pick it)."""
    t, m, d = store.shape.tree_count, store.shape.n_nodes, store.shape.n_features
    x = np.ones(d) if x is None else np.asarray(x, dtype=np.float64)
    store.update_all(group, task_class, np.full((t, m), gate),
                     np.full((t, m), slope), x)


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
        store.update_all(group, task_class, gates, slope, x)
        log.append((group, task_class, gates, slope, x))
    return log


def gaps(store):
    """Column-0 difference of every contrast, (n_contrasts, T, m)."""
    return np.stack([store.means[p, ..., 0] - store.means[q, ..., 0]
                     for p, q in store.contrasts])


class TestConstruction:
    """Configuration validation."""

    def test_rejects_unknown_notion(self):
        with pytest.raises(ConfigurationError):
            AggregateStore(SHAPE, notion="parity")

    def test_rejects_single_group(self):
        with pytest.raises(ConfigurationError):
            AggregateStore(SHAPE, n_groups=1)

    def test_rejects_decay_outside_unit_interval(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ConfigurationError):
                AggregateStore(SHAPE, decay=bad)

    def test_equalized_odds_needs_class_count(self):
        with pytest.raises(ConfigurationError):
            AggregateStore(SHAPE, notion="equalized_odds")
        with pytest.raises(ConfigurationError):
            AggregateStore(SHAPE, notion="equalized_odds", n_classes=1)

    def test_class_count_ignored_outside_equalized_odds(self):
        store = AggregateStore(SHAPE, notion="dp", n_classes=7)
        assert store.n_classes is None

    def test_layout_is_key_leading(self):
        """Counts per key; one packed row of d + 2 means per cell."""
        t, m, d = SHAPE.tree_count, SHAPE.n_nodes, SHAPE.n_features
        for notion, kwargs, keys in (
            ("dp", {}, 2),
            ("equalized_odds", {"n_groups": 3, "n_classes": 2}, 6),
            ("multigroup", {"n_groups": 4}, 5),
        ):
            store = AggregateStore(SHAPE, notion=notion, **kwargs)
            assert store.counts.shape == (keys,)
            assert store.means.shape == (keys, t, m, d + 2)


class TestKeyValidation:
    """Domain and shape checks on an update."""

    def test_group_out_of_range(self):
        store = AggregateStore(SHAPE)
        with pytest.raises(DomainError):
            feed(store, 2, 0, 0.5)
        with pytest.raises(DomainError):
            feed(store, -1, 0, 0.5)

    def test_dp_key_must_not_carry_a_class(self):
        """The dp key is the group alone: the task class does not split it."""
        store = AggregateStore(SHAPE)
        assert store.keys(1, 0) == store.keys(1, 1) == (1,)
        feed(store, 1, 0, 0.2)
        feed(store, 1, 1, 0.6)
        np.testing.assert_array_equal(store.counts, [0, 2])

    def test_equalized_odds_key_needs_a_class(self):
        store = AggregateStore(SHAPE, notion="equalized_odds", n_classes=2)
        with pytest.raises(DomainError):
            feed(store, 0, 2, 0.5)
        with pytest.raises(DomainError):
            feed(store, 0, -1, 0.5)
        assert store.keys(1, 1) == (3,)

    def test_indices_and_values_are_checked(self):
        store = AggregateStore(SHAPE)
        good = np.zeros((2, 3))
        with pytest.raises(ShapeError):
            store.update_all(0, 0, np.zeros((2, 4)), good, np.zeros(3))
        with pytest.raises(ShapeError):
            store.update_all(0, 0, good, np.zeros((3, 3)), np.zeros(3))
        with pytest.raises(ShapeError):
            store.update_all(0, 0, good, good, np.zeros(4))
        np.testing.assert_array_equal(store.counts, 0)


class TestRunningMeans:
    """Incremental means agree with batch recomputation."""

    def test_updates_match_list_mean(self):
        """The incremental mean of one key equals the plain average of the
        values fed into it, in every column of the packed row."""
        store = AggregateStore(SHAPE)
        log = [entry for entry in feed_random(store, 40, seed=5)
               if entry[0] == 0]
        assert store.counts[0] == len(log)
        gates = np.stack([g for _, _, g, _, _ in log])
        slope = np.stack([s for _, _, _, s, _ in log])
        xs = np.stack([x for _, _, _, _, x in log])
        np.testing.assert_allclose(store.means[0, ..., 0], gates.mean(axis=0),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(store.means[0, ..., 1], slope.mean(axis=0),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            store.means[0, ..., 2:],
            np.einsum("ntm,nd->tmd", slope, xs) / len(log), rtol=0, atol=1e-12,
        )

    def test_decay_follows_exponential_recursion(self):
        """With decay, the mean obeys m_k = d*m_{k-1} + (1-d)*v_k after the
        first observation seeds it directly."""
        decay = 0.9
        store = AggregateStore(SHAPE, decay=decay)
        rng = np.random.default_rng(3)
        values = rng.uniform(0, 1, size=10)
        feed(store, 1, 0, values[0])
        np.testing.assert_array_equal(store.means[1, ..., 0], values[0])
        expected = values[0]
        for v in values[1:]:
            feed(store, 1, 0, v)
            expected = decay * expected + (1 - decay) * v
        np.testing.assert_allclose(store.means[1, ..., 0], expected, atol=1e-12)
        np.testing.assert_array_equal(store.means[0], 0.0)


class TestGapEstimators:
    """Contrasts of the three fairness notions."""

    def test_cold_until_both_groups_seen(self):
        store = AggregateStore(SHAPE)
        np.testing.assert_array_equal(store.contrast_sum(1.0), 0.0)
        feed(store, 0, 0, 0.9, slope=1.0)
        np.testing.assert_array_equal(store.contrast_sum(1.0), 0.0)
        feed(store, 1, 0, 0.4, slope=0.5)
        assert (store.contrast_sum(1.0) != 0.0).all()

    def test_dp_gap_is_group_zero_minus_group_one(self):
        store = AggregateStore(SHAPE)
        for v in (0.8, 0.6):
            feed(store, 0, 0, v, slope=v, x=np.full(3, 1.0))
        for v in (0.1, 0.3):
            feed(store, 1, 0, v, slope=v, x=np.full(3, 1.0))
        assert store.contrasts == ((0, 1),)
        np.testing.assert_allclose(gaps(store), 0.7 - 0.2, atol=1e-12)
        total = store.contrast_sum(delta=10.0)
        grad_w, grad_b = total[..., 1:], total[..., 0]
        np.testing.assert_allclose(grad_w, 0.5 * 0.5, atol=1e-12)
        np.testing.assert_allclose(grad_b, 0.5 * 0.5, atol=1e-12)

    def test_gap_sign_flips_with_group_order(self):
        store = AggregateStore(SHAPE)
        feed(store, 0, 0, 0.2)
        feed(store, 1, 0, 0.9)
        assert (gaps(store) < 0).all()

    def test_multigroup_gap_compares_against_overall_mean(self):
        store = AggregateStore(SHAPE, n_groups=3, notion="multigroup")
        observations = {0: 0.9, 1: 0.5, 2: 0.1}
        for group, v in observations.items():
            feed(store, group, 0, v, slope=v)
        assert store.contrasts == ((3, 0), (3, 1), (3, 2))
        np.testing.assert_array_equal(store.counts, [1, 1, 1, 3])
        overall = np.mean(list(observations.values()))
        for gap, v in zip(gaps(store), observations.values()):
            np.testing.assert_allclose(gap, overall - v, atol=1e-12)
        grad_b = store.contrast_sum(delta=10.0)[..., 0]
        np.testing.assert_allclose(
            grad_b, sum((overall - v) ** 2 for v in observations.values()),
            atol=1e-12,
        )

    def test_multigroup_cold_for_unseen_group(self):
        """A contrast with an unseen group adds nothing; the others do."""
        store = AggregateStore(SHAPE, n_groups=3, notion="multigroup")
        feed(store, 0, 0, 0.5, slope=1.0)
        feed(store, 1, 0, 0.1, slope=0.0)
        grad_b = store.contrast_sum(delta=10.0)[..., 0]
        # overall = (0.3, 0.5): group 0 adds -0.2 * -0.5, group 1 adds
        # 0.2 * 0.5, group 2 is cold.
        np.testing.assert_allclose(grad_b, 0.2, atol=1e-12)

    def test_conditional_gap_keys_on_group_and_class(self):
        store = AggregateStore(SHAPE, notion="equalized_odds", n_classes=2)
        feed(store, 0, 0, 0.9, slope=1.0)
        feed(store, 1, 0, 0.4, slope=0.0)
        feed(store, 0, 1, 0.3, slope=5.0)
        assert store.contrasts == ((0, 2), (1, 3))
        np.testing.assert_allclose(gaps(store)[0], 0.5, atol=1e-12)
        grad_b = store.contrast_sum(delta=10.0)[..., 0]
        # Class 1 is cold: group 1 has not been seen with it.
        np.testing.assert_allclose(grad_b, 0.5 * 1.0, atol=1e-12)

    def test_dp_estimators_need_exactly_two_groups(self):
        with pytest.raises(ConfigurationError):
            AggregateStore(SHAPE, n_groups=3, notion="dp")


def oracle_gradient(log, notion, n_groups, n_classes, decay, delta, weight):
    """Huber-penalty gradient from plain (or exponential) means of the
    logged instances, one contrast at a time, independent of the store."""

    def mean(rows):
        if decay is None:
            return np.mean(rows, axis=0)
        acc = rows[0]
        for row in rows[1:]:
            acc = decay * acc + (1 - decay) * row
        return acc

    def stats(select):
        chosen = [(g, s, x) for a, y, g, s, x in log if select(a, y)]
        if not chosen:
            return None
        return (mean([g for g, _, _ in chosen]),
                mean([s[:, :, None] * x for _, s, x in chosen]),
                mean([s for _, s, _ in chosen]))

    if notion == "dp":
        pairs = [(lambda a, y: a == 0, lambda a, y: a == 1)]
    elif notion == "equalized_odds":
        pairs = [((lambda a, y, c=c: a == 0 and y == c),
                  (lambda a, y, c=c: a == 1 and y == c))
                 for c in range(n_classes)]
    else:
        pairs = [((lambda a, y: True), (lambda a, y, k=k: a == k))
                 for k in range(n_groups)]
    grad_w, grad_b = 0.0, 0.0
    for plus, minus in pairs:
        sp, sm = stats(plus), stats(minus)
        if sp is None or sm is None:
            continue
        coeff = np.clip(sp[0] - sm[0], -delta, delta)
        grad_w = grad_w + coeff[:, :, None] * (sp[1] - sm[1])
        grad_b = grad_b + coeff * (sp[2] - sm[2])
    return weight * grad_w, weight * grad_b


class TestVectorizedPath:
    """The fold and the contrast sum against an oracle, over random
    notions, shapes, decays and streams that leave keys unseen."""

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_gradient_matches_oracle(self, data):
        notion = data.draw(st.sampled_from(["dp", "equalized_odds", "multigroup"]))
        n_groups = 2 if notion == "dp" else data.draw(st.integers(2, 4))
        n_classes = data.draw(st.integers(2, 3))
        shape = ForestShape(data.draw(st.integers(1, 3)),
                            data.draw(st.integers(1, 4)),
                            data.draw(st.integers(1, 4)), n_classes)
        decay = data.draw(st.none() | st.floats(0.05, 0.95))
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

        store = AggregateStore(shape, n_groups=n_groups, notion=notion,
                               n_classes=n_classes, decay=decay)
        t, m, d = shape.tree_count, shape.n_nodes, shape.n_features
        log = []
        for _ in range(n):
            a = int(rng.choice(groups))
            y = int(rng.choice(classes))
            gates = rng.uniform(0, 1, size=(t, m))
            slope = gates * (1.0 - gates)
            x = rng.standard_normal(d)
            store.update_all(a, y, gates, slope, x)
            log.append((a, y, gates, slope, x))

        grad = fairness_gradient(store, HuberPenalty(delta, weight), shape)
        want_w, want_b = oracle_gradient(log, notion, n_groups, n_classes,
                                         decay, delta, weight)
        np.testing.assert_allclose(grad.weights, np.broadcast_to(
            want_w, grad.weights.shape), rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(grad.biases, np.broadcast_to(
            want_b, grad.biases.shape), rtol=1e-9, atol=1e-12)
        np.testing.assert_array_equal(grad.leaves, 0.0)


class TestSnapshot:
    """Serialization round-trips and validation."""

    def test_round_trip_preserves_state(self):
        store = AggregateStore(SHAPE)
        feed_random(store, 30, seed=17)
        data = json.loads(json.dumps(store.snapshot()))
        restored = AggregateStore.from_snapshot(data)
        np.testing.assert_array_equal(store.counts, restored.counts)
        np.testing.assert_array_equal(store.means, restored.means)
        assert restored.contrasts == store.contrasts

    def test_round_trip_preserves_future_updates(self):
        """A restored store continues the stream exactly like the original."""
        original = AggregateStore(SHAPE, notion="equalized_odds", n_classes=2)
        feed_random(original, 12, seed=31)
        restored = AggregateStore.from_snapshot(
            json.loads(json.dumps(original.snapshot()))
        )
        rng = np.random.default_rng(99)
        for _ in range(5):
            a, y = int(rng.integers(0, 2)), int(rng.integers(0, 2))
            gates = rng.uniform(0, 1, size=(2, 3))
            slope = gates * (1.0 - gates)
            x = rng.standard_normal(3)
            original.update_all(a, y, gates, slope, x)
            restored.update_all(a, y, gates, slope, x)
        np.testing.assert_array_equal(original.counts, restored.counts)
        np.testing.assert_array_equal(original.means, restored.means)

    def test_malformed_snapshots_are_refused(self):
        """Truncated, ragged, negative or non-finite arrays raise DataError
        instead of loading into a store they do not fit."""
        store = AggregateStore(SHAPE, n_groups=3, notion="multigroup")
        feed_random(store, 10, seed=2, n_groups=3)
        good = json.loads(json.dumps(store.snapshot()))

        def broken(**changes):
            data = json.loads(json.dumps(good))
            data.update(changes)
            return data

        ragged = json.loads(json.dumps(good["means"]))
        ragged[1][0][2] = ragged[1][0][2][:-1]
        non_finite = json.loads(json.dumps(good["means"]))
        non_finite[0][1][1][0] = float("nan")
        for data in (
            broken(means=good["means"][:-1]),
            broken(means=ragged),
            broken(means=non_finite),
            broken(counts=good["counts"][:-1]),
            broken(counts=[-1] + good["counts"][1:]),
        ):
            with pytest.raises(DataError):
                AggregateStore.from_snapshot(data)
