"""Tests for the online learning loop: Adam, metrics, stepping,
checkpointing, and the stream driver."""

import base64
import contextlib
import itertools
import json
import os
import stat
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairforest.errors import (
    ConfigurationError,
    DataError,
    DomainError,
    NumericalError,
    ShapeError,
)
from fairforest.forest import ForestShape, _block_views, _check_instances, forward
from fairforest.gradients import _ForwardCache, task_gradient
from fairforest.learner import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    AdamState,
    LearnerConfig,
    TRAJECTORY_COLUMNS,
    MetricsTracker,
    OnlineForestLearner,
    decode_floats,
    encode_floats,
    run_stream,
)
from oracles import adam_python_scalars, reference_gaps, tree_weights


def adam_oracle(grads, lr, b1=0.9, b2=0.999, eps=1e-8, x0=0.0):
    """Scalar Adam recursion written out longhand."""
    m = v = 0.0
    x = x0
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1**t)
        vhat = v / (1 - b2**t)
        x -= lr * mhat / (np.sqrt(vhat) + eps)
    return x


@contextlib.contextmanager
def floating_point_regime(regime):
    """numpy's overflow and invalid-value warnings as errors (``error``),
    ignored (``ignore``), or raised as FloatingPointError (``raise``)."""
    with warnings.catch_warnings(), np.errstate(
            all="raise" if regime == "raise" else "warn"):
        warnings.simplefilter("ignore" if regime == "ignore" else "error")
        yield


def store_means(store):
    """The store's per-key means, its sums over its counts (0 for an
    unseen key)."""
    divisors = np.maximum(store.counts, 1)
    return store.sums / divisors.reshape(-1, *[1] * (store.sums.ndim - 1))


def biased_stream(n, seed, noise=0.1):
    """Instances whose label equals the group and whose first coordinate
    leaks the group."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        a = int(rng.integers(0, 2))
        x = np.array([2.0 * a - 1.0, 1.0]) + noise * rng.standard_normal(2)
        yield x, a, a


class TestAdam:
    """The optimizer against a longhand recursion."""

    def test_matches_scalar_recursion(self):
        rng = np.random.default_rng(6)
        grads = rng.standard_normal(5)
        param = np.array([0.3])
        state = AdamState(1, LearnerConfig(n_features=1, learning_rate=0.01))
        for g in grads:
            state.apply(param, np.array([g]))
        np.testing.assert_allclose(
            param[0], adam_oracle(grads, lr=0.01, x0=0.3), rtol=1e-12
        )

    def test_first_step_moves_by_roughly_the_learning_rate(self):
        """Bias correction makes the first update lr * sign(gradient)."""
        param = np.array([0.0])
        state = AdamState(1, LearnerConfig(n_features=1, learning_rate=0.005))
        state.apply(param, np.array([0.37]))
        np.testing.assert_allclose(param[0], -0.005, rtol=1e-6)

    def test_updates_in_place(self):
        param = np.zeros(4)
        state = AdamState(4, LearnerConfig(n_features=1))
        ref = param
        state.apply(param, np.ones(4))
        assert ref is param
        assert (ref != 0.0).all()

    def test_snapshot_restore_continues_identically(self):
        """A learner's checkpoint carries both moments and sets ``t`` from
        the step count, so the restored state's next updates, bias
        correction included, equal the original's bit for bit."""
        learner = OnlineForestLearner(LearnerConfig(n_features=2, seed=10))
        for x, y, a in biased_stream(3, seed=10):
            learner.step(x, y, a)
        state = learner.adam
        clone = OnlineForestLearner.restore(
            json.loads(json.dumps(learner.checkpoint()))).adam
        assert clone.t == state.t == 3
        rng = np.random.default_rng(10)
        p1 = rng.standard_normal(state.m.size)
        p2 = p1.copy()
        for _ in range(3):
            g = rng.standard_normal(state.m.size)
            state.apply(p1, g)
            clone.apply(p2, g)
        np.testing.assert_array_equal(p1, p2)
        np.testing.assert_array_equal(clone.m, state.m)
        np.testing.assert_array_equal(clone.v, state.v)

    def test_flat_step_equals_per_array_reference(self):
        """One update of the flat vector gives exactly what the same
        element-wise expressions give block by block, in Kingma and Ba's
        efficient form: the bias corrections folded into the step size and
        epsilon, so neither moment is divided."""
        shapes = ForestShape(3, 4, 10, 2).param_shapes
        hyper = LearnerConfig(n_features=10, learning_rate=0.01)
        rng = np.random.default_rng(12)
        state = AdamState(ForestShape(3, 4, 10, 2).n_params, hyper)
        flat = rng.standard_normal(state.m.size)
        blocks = [b.copy() for b in _block_views(flat.copy(), shapes)]
        moments = [(np.zeros(s), np.zeros(s)) for s in shapes]
        for t in range(1, 8):
            grad = rng.standard_normal(flat.size)
            state.apply(flat, grad)
            c1 = 1.0 - ADAM_BETA1**t
            root_c2 = np.sqrt(1.0 - ADAM_BETA2**t)
            alpha = hyper.learning_rate * root_c2 / c1
            eps = ADAM_EPSILON * root_c2
            for p, g, (m, v) in zip(blocks, _block_views(grad, shapes), moments):
                m *= ADAM_BETA1
                m += (1.0 - ADAM_BETA1) * g
                v *= ADAM_BETA2
                v += (1.0 - ADAM_BETA2) * g * g
                p -= alpha * m / (np.sqrt(v) + eps)
        for p, block, (m, v), mv, vv in zip(
            _block_views(flat, shapes), blocks, moments,
            _block_views(state.m, shapes), _block_views(state.v, shapes),
        ):
            np.testing.assert_array_equal(p, block)
            np.testing.assert_array_equal(mv, m)
            np.testing.assert_array_equal(vv, v)

    def test_equals_the_python_scalar_reference_bit_for_bit(self):
        """The update's 0-d operands give the bits the Python-float
        scalars gave: 50 steps at a non-default step size, over the
        moments as well as the parameters."""
        config = LearnerConfig(n_features=1, learning_rate=0.03)
        rng = np.random.default_rng(41)
        start = rng.standard_normal(591)
        grad_steps = [rng.standard_normal(591) * rng.uniform(1e-4, 10)
                      for _ in range(50)]
        params = start.copy()
        state = AdamState(params.size, config)
        for grads in grad_steps:
            state.apply(params, grads)
        want, m, v = adam_python_scalars(config, start, grad_steps)
        assert params.tobytes() == want.tobytes()
        assert state.m.tobytes() == m.tobytes()
        assert state.v.tobytes() == v.tobytes()

    def test_moment_blocks_share_memory_with_the_moments(self):
        learner = OnlineForestLearner(LearnerConfig(n_features=3, seed=2))
        adam = learner.adam
        assert adam.m.shape == adam.v.shape == learner.forest.vector.shape
        for moment in (adam.m, adam.v):
            for view in _block_views(moment, learner.forest.shape.param_shapes):
                assert np.shares_memory(view, moment)

    def test_restore_refuses_malformed_moments(self):
        """Each moment in a checkpoint must be one base64 string of exactly
        ``n_params`` finite float64 values, and ``t``, set from
        ``step_count``, must come from a non-negative integer; anything
        else is a DataError at restore."""
        learner = OnlineForestLearner(LearnerConfig(n_features=2, seed=3))
        for x, y, a in biased_stream(5, seed=11):
            learner.step(x, y, a)
        good = json.loads(json.dumps(learner.checkpoint()))
        assert OnlineForestLearner.restore(good).adam.t == 5
        size = learner.adam.m.size
        for name in ("adam.m", "adam.v"):
            for value in (
                good["floats"][name][:-4],
                encode_floats(np.zeros(size - 1)),
                encode_floats(np.r_[np.ones(size - 1), np.nan]),
                [0.0] * size,
                "not base64!",
            ):
                data = json.loads(json.dumps(good))
                data["floats"][name] = value
                with pytest.raises(DataError):
                    OnlineForestLearner.restore(data)
        with pytest.raises(DataError):
            OnlineForestLearner.restore({**good, "step_count": -1})

    def test_restore_refuses_a_negative_second_moment(self):
        """A negative entry in ``adam.v`` used to restore and turn every
        parameter into NaN at the next step, which still returned a normal
        snapshot; it is a DataError at restore that names ``adam.v``."""
        learner = OnlineForestLearner(LearnerConfig(n_features=2, seed=3))
        for x, y, a in biased_stream(5, seed=11):
            learner.step(x, y, a)
        data = json.loads(json.dumps(learner.checkpoint()))
        v = learner.adam.v.copy()
        v[7] = -1.0
        data["floats"]["adam.v"] = encode_floats(v)
        with pytest.raises(DataError, match="adam.v"):
            OnlineForestLearner.restore(data)

class TestMetricsTracker:
    """Running accuracy and parity gaps."""

    def test_hard_gap_hand_tally(self):
        """Group rates 0.9 and 0.4 give a gap of 0.5."""
        tracker = MetricsTracker()
        out = np.zeros(2)
        for i in range(10):
            tracker.update(1 if i < 9 else 0, out, 1, 0)
        for i in range(5):
            tracker.update(1 if i < 2 else 0, out, 1, 1)
        np.testing.assert_allclose(tracker.dp_hard, 0.5, atol=1e-12)

    def test_gaps_undefined_until_two_groups(self):
        tracker = MetricsTracker()
        assert tracker.dp_hard is None
        tracker.update(1, np.zeros(2), 1, 0)
        assert tracker.dp_hard is None
        assert tracker.dp_soft is None
        tracker.update(0, np.zeros(2), 1, 1)
        assert tracker.dp_hard is not None

    def test_accuracy_counts_matches(self):
        tracker = MetricsTracker()
        outcomes = [(1, 1), (0, 1), (1, 1), (0, 0)]
        for pred, y in outcomes:
            tracker.update(pred, np.zeros(2), y, 0)
        np.testing.assert_allclose(tracker.accuracy, 0.75)

    def test_soft_gap_is_norm_of_mean_output_difference(self):
        tracker = MetricsTracker()
        tracker.update(0, np.array([1.0, 0.0]), 0, 0)
        tracker.update(0, np.array([0.0, 0.0]), 0, 0)
        tracker.update(0, np.array([0.0, 1.0]), 0, 1)
        diff = np.array([0.5, -1.0])
        np.testing.assert_allclose(tracker.dp_soft, np.linalg.norm(diff))

    def test_multigroup_gap_compares_to_overall_rate(self):
        tracker = MetricsTracker(n_groups=3)
        for pred, a in ((1, 0), (1, 0), (0, 1), (1, 2)):
            tracker.update(pred, np.zeros(2), pred, a)
        overall = 3 / 4
        expected = max(abs(overall - 1.0), abs(overall - 0.0), abs(overall - 1.0))
        np.testing.assert_allclose(tracker.dp_hard, expected)

    def test_two_group_gaps_equal_the_masked_reference(self):
        """The two-group shortcut gives bit for bit what the masked
        per-group rates and means give."""
        rng = np.random.default_rng(14)
        tracker = MetricsTracker(n_groups=2, n_outputs=3)
        for _ in range(200):
            tracker.update(int(rng.integers(0, 3)), rng.standard_normal(3),
                           0, int(rng.integers(0, 2)))
            counts = np.array(tracker.group_counts)
            seen = counts > 0
            rates = np.array(tracker.group_label_sums)[seen] / counts[seen]
            means = (np.array(tracker.group_output_sums)[seen]
                     / counts[seen, None])
            if seen.sum() < 2:
                assert tracker.dp_hard is None and tracker.dp_soft is None
                continue
            assert tracker.dp_hard == float(abs(rates[0] - rates[1]))
            assert tracker.dp_soft == float(
                np.linalg.norm(means[0] - means[1], axis=-1))

    @settings(max_examples=60, deadline=None)
    @given(n_groups=st.integers(2, 6), n_outputs=st.integers(2, 4),
           n_updates=st.integers(0, 60), seed=st.integers(0, 2**32 - 1),
           data=st.data())
    def test_gaps_equal_the_masked_reference(self, n_groups, n_outputs,
                                             n_updates, seed, data):
        """Over 2 to 6 groups, some never seen, both gaps equal bit for bit
        the masked per-group rates and means in numpy: the rate gap, and
        ``np.linalg.norm(..., axis=-1)`` of the mean gap.  ``gaps()``,
        one pass over the groups, equals bit for bit the gaps taken one
        at a time (``reference_gaps``), None included."""
        groups = data.draw(st.lists(st.integers(0, n_groups - 1), min_size=1,
                                    max_size=n_groups, unique=True))
        # Outputs with full mantissas, so that summation order shows.
        rng = np.random.default_rng(seed)
        tracker = MetricsTracker(n_groups, n_outputs)
        for _ in range(n_updates):
            tracker.update(int(rng.integers(0, n_outputs)),
                           rng.standard_normal(n_outputs).tolist(),
                           int(rng.integers(0, n_outputs)),
                           groups[int(rng.integers(0, len(groups)))])
            assert tracker.gaps() == reference_gaps(tracker)
            counts = np.array(tracker.group_counts)
            seen = counts > 0
            if seen.sum() < 2:
                assert tracker.dp_hard is None and tracker.dp_soft is None
                continue
            label_sums = np.array(tracker.group_label_sums)
            output_sums = np.array(tracker.group_output_sums)
            rates = label_sums[seen] / counts[seen]
            means = output_sums[seen] / counts[seen, None]
            if n_groups == 2:
                hard = abs(rates[0] - rates[1])
                soft = np.linalg.norm(means[0] - means[1], axis=-1)
            else:
                hard = np.max(np.abs(label_sums.sum() / tracker.total - rates))
                overall = output_sums.sum(axis=0) / tracker.total
                soft = np.max(np.linalg.norm(overall - means, axis=-1))
            assert tracker.dp_hard == float(hard)
            assert tracker.dp_soft == float(soft)

    @settings(max_examples=25, deadline=None)
    @given(steps=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 3)),
                          max_size=60), seed=st.integers(0, 2**16))
    def test_checkpoint_round_trip_keeps_both_gaps(self, steps, seed):
        """A four-group learner restored from its checkpoint reports the
        same gaps, bit for bit, whichever groups it has seen."""
        learner = OnlineForestLearner(LearnerConfig(
            n_features=2, height=2, tree_count=2, fairness="multigroup",
            n_groups=4, fairness_weight=0.5, seed=1))
        rng = np.random.default_rng(seed)
        for y, a in steps:
            learner.step(rng.standard_normal(2), y, a)
        clone = OnlineForestLearner.restore(
            json.loads(json.dumps(learner.checkpoint()))).metrics
        assert clone.dp_hard == learner.metrics.dp_hard
        assert clone.dp_soft == learner.metrics.dp_soft

    def test_snapshot_round_trip(self):
        """A learner's checkpoint restores the tracker: ``total`` from the
        step count, the rest from its own keys."""
        learner = OnlineForestLearner(LearnerConfig(n_features=2, seed=1))
        for x, y, a in biased_stream(7, seed=17):
            learner.step(x, y, a)
        tracker = learner.metrics
        clone = OnlineForestLearner.restore(
            json.loads(json.dumps(learner.checkpoint()))).metrics
        assert (clone.total, clone.correct) == (tracker.total, tracker.correct)
        np.testing.assert_array_equal(clone.group_counts, tracker.group_counts)
        assert clone.dp_hard == tracker.dp_hard
        assert clone.dp_soft == tracker.dp_soft
        assert clone.accuracy == tracker.accuracy


class TestLearnerConfig:
    """Configuration validation and round-trips."""

    def test_rejects_bad_values(self):
        bad = [
            dict(n_features=0),
            dict(n_features=3, n_outputs=1),
            dict(n_features=3, tree_count=0),
            dict(n_features=3, fairness="parity"),
            dict(n_features=3, fairness_weight=-1.0),
            dict(n_features=3, huber_delta=0.0),
            dict(n_features=3, n_groups=1),
            dict(n_features=3, learning_rate=0.0),
            dict(n_features=3, fairness="dp", n_groups=3),
        ]
        for kwargs in bad:
            with pytest.raises(ConfigurationError):
                LearnerConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        dict(learning_rate=float("nan")), dict(learning_rate=float("inf")),
        dict(learning_rate=-1e-3), dict(fairness_weight=float("inf")),
        dict(huber_delta=float("nan")), dict(learning_rate="0.1"),
        dict(tree_count=2.5),
        dict(height=3.0), dict(n_groups=2.0), dict(n_outputs=True),
        dict(seed=-1), dict(seed=1.5), dict(seed=True), dict(height=0),
    ], ids=lambda kwargs: "-".join(f"{k}={v!r}" for k, v in kwargs.items()))
    def test_rejects_values_that_fail_later(self, kwargs):
        """Non-finite or out-of-range optimizer settings used to be
        accepted and fail with a NumericalError at step 2; a fractional
        tree count silently trained fewer trees and a negative seed
        raised numpy's ValueError."""
        with pytest.raises(ConfigurationError):
            LearnerConfig(n_features=3, **kwargs)

    def test_numpy_integers_become_ints(self):
        cfg = LearnerConfig(n_features=np.int64(3), seed=np.int32(2))
        assert type(cfg.n_features) is int and type(cfg.seed) is int
        json.dumps(cfg.to_dict())

    def test_checkpoint_with_a_refused_config_is_refused(self):
        """A checkpoint whose config has a learning rate of 0 is refused
        at restore, as the config is."""
        learner = OnlineForestLearner(LearnerConfig(n_features=2, seed=3))
        data = json.loads(json.dumps(learner.checkpoint()))
        data["config"]["learning_rate"] = 0.0
        with pytest.raises(DataError):
            OnlineForestLearner.restore(data)

    @pytest.mark.parametrize("key, value", [
        ("beta1", 0.9), ("beta2", 0.999), ("adam_epsilon", 1e-8),
    ])
    def test_from_dict_refuses_the_adam_constants(self, key, value):
        """Adam's decay rates and epsilon are constants, Kingma and Ba's
        defaults, not settings: a config dict that names one, even at its
        value, is refused."""
        assert (ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON) == (0.9, 0.999, 1e-8)
        data = LearnerConfig(n_features=3).to_dict()
        with pytest.raises(DataError, match=key):
            LearnerConfig.from_dict({**data, key: value})

    def test_dict_round_trip(self):
        cfg = LearnerConfig(n_features=5, fairness_weight=0.7, seed=9)
        clone = LearnerConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert clone == cfg

    def test_multigroup_allows_more_groups(self):
        cfg = LearnerConfig(n_features=3, fairness="multigroup", n_groups=4,
                            fairness_weight=1.0)
        learner = OnlineForestLearner(cfg)
        assert learner.store.table.n_groups == 4

    def test_equalized_odds_store_is_class_conditioned(self):
        cfg = LearnerConfig(n_features=3, fairness="equalized_odds",
                            n_outputs=3, fairness_weight=1.0)
        learner = OnlineForestLearner(cfg)
        assert learner.store.table.n_classes == 3


class TestStepping:
    """The predict-observe-update cycle."""

    def _config(self, **kwargs):
        base = dict(n_features=2, fairness="dp", fairness_weight=0.0, seed=1)
        base.update(kwargs)
        return LearnerConfig(**base)

    def test_prediction_uses_pre_update_parameters(self):
        learner = OnlineForestLearner(self._config())
        x = np.array([0.4, -0.2])
        before = learner.predict(x)
        prediction, _ = learner.step(x, 1, 0)
        assert prediction == before

    def test_predict_builds_no_jacobian(self, monkeypatch):
        """Prediction routes through the forest's evaluation core, not
        through the forward cache that the step's gradients read."""
        import fairforest.gradients

        learner = OnlineForestLearner(self._config())
        x = np.array([0.4, -0.2])
        expected = int(np.argmax(_ForwardCache(learner.forest, x).output))

        def refuse(*args):
            raise AssertionError("predict built a forward cache")

        monkeypatch.setattr(fairforest.gradients,
                            "_leaf_probability_gradients_stacked", refuse)
        assert learner.predict(x) == expected

    def test_step_builds_no_jacobian(self, monkeypatch):
        """The forest learner's step takes its gradients from the leaf
        probabilities and gate edges alone: with ``leaf_jac`` refusing to
        be built, steps under every notion still run, and match steps
        with it available bit for bit."""
        def refuse(self):
            raise AssertionError("the step built the leaf Jacobian")

        configs = [self._config(fairness_weight=1.0),
                   self._config(fairness="equalized_odds", fairness_weight=1.0),
                   self._config(fairness="multigroup", n_groups=3,
                                fairness_weight=1.0)]
        reference = [OnlineForestLearner(cfg) for cfg in configs]
        for learner in reference:
            for x, y, a in biased_stream(20, seed=6):
                learner.step(x, y, a)
        monkeypatch.setattr(_ForwardCache, "leaf_jac", property(refuse))
        for cfg, want in zip(configs, reference):
            learner = OnlineForestLearner(cfg)
            for x, y, a in biased_stream(20, seed=6):
                learner.step(x, y, a)
            np.testing.assert_array_equal(learner.forest.vector,
                                          want.forest.vector)

    def test_deterministic_given_seed_and_stream(self):
        runs = []
        for _ in range(2):
            learner = OnlineForestLearner(self._config(fairness_weight=0.5))
            for x, y, a in biased_stream(50, seed=2):
                learner.step(x, y, a)
            runs.append(learner.forest.nodes[1:].copy())
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_one_optimizer_step_per_instance(self):
        learner = OnlineForestLearner(self._config())
        for i, (x, y, a) in enumerate(biased_stream(7, seed=3), start=1):
            learner.step(x, y, a)
            assert learner.adam.t == i
            assert learner.step_count == i

    def test_zero_weight_matches_no_fairness(self):
        """With the penalty weight at zero the parameter trajectory is the
        same as with fairness disabled outright."""
        with_store = OnlineForestLearner(self._config(fairness_weight=0.0))
        without = OnlineForestLearner(self._config(fairness="none"))
        for x, y, a in biased_stream(20, seed=4):
            with_store.step(x, y, a)
            without.step(x, y, a)
        np.testing.assert_array_equal(with_store.forest.nodes[1:],
                                      without.forest.nodes[1:])
        np.testing.assert_array_equal(with_store.forest.leaves,
                                      without.forest.leaves)

    def test_fair_norm_zero_at_zero_weight(self):
        learner = OnlineForestLearner(self._config())
        for x, y, a in biased_stream(5, seed=5):
            _, snap = learner.step(x, y, a)
            assert snap.grad_norm_fair == 0.0
            assert snap.grad_norm_total > 0.0

    def test_constant_label_is_learned(self):
        """A degenerate stream with one label drives accuracy to one."""
        rng = np.random.default_rng(0)
        learner = OnlineForestLearner(
            LearnerConfig(n_features=3, fairness="none", seed=1)
        )
        predictions = []
        snap = None
        for i in range(300):
            x = rng.standard_normal(3)
            p, snap = learner.step(x, 0, i % 2)
            predictions.append(p)
        assert snap.accuracy >= 0.95
        assert all(p == 0 for p in predictions[-100:])

    def test_penalty_suppresses_group_gap(self):
        """On a stream whose label equals the group, a heavy penalty pulls
        both parity gaps well below the unconstrained run."""
        def run(weight):
            learner = OnlineForestLearner(
                self._config(fairness_weight=weight)
            )
            snap = None
            for x, y, a in biased_stream(600, seed=3):
                _, snap = learner.step(x, y, a)
            return snap

        free = run(0.0)
        constrained = run(50.0)
        assert constrained.dp_hard < 0.6 * free.dp_hard
        assert constrained.dp_soft < 0.3 * free.dp_soft

    def test_height_twelve_step(self):
        """A deep tree steps without forming the dense leaf Jacobian: the
        forward pass keeps h entries per leaf, not 2**h - 1."""
        learner = OnlineForestLearner(LearnerConfig(
            n_features=2, height=12, tree_count=2, fairness="dp",
            fairness_weight=1.0, seed=1,
        ))
        for x, y, a in biased_stream(3, seed=2):
            prediction, snap = learner.step(x, y, a)
            assert prediction in (0, 1)
        assert learner.step_count == 3
        assert np.isfinite(snap.grad_norm_total)
        assert np.isfinite(learner.forest.vector).all()
        cache = _ForwardCache(learner.forest, x)
        assert cache.leaf_jac.shape == (2, 12, 2**12)

    def test_height_thirteen_builds_and_steps_in_little_memory(self):
        """Building and stepping at h=13 allocates only path-form arrays,
        (h, 2**h) each, never a (2**h - 1, 2**h) ancestor mask, so the
        traced peak stays far below the 67 MB that one int8 mask takes."""
        config = LearnerConfig(n_features=4, height=13, tree_count=1,
                               fairness="dp", fairness_weight=1.0, seed=1)
        rng = np.random.default_rng(2)
        stream = [(rng.standard_normal(4), i, i) for i in (0, 1)]
        tracemalloc.start()
        try:
            learner = OnlineForestLearner(config)
            for x, y, a in stream:
                learner.step(x, y, a)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert learner.step_count == 2
        assert peak < 32 * 2**20

    def test_height_sixteen_step(self):
        """The largest supported height builds and steps, and every
        parameter stays finite."""
        learner = OnlineForestLearner(LearnerConfig(
            n_features=2, height=16, tree_count=1, fairness="dp",
            fairness_weight=1.0, seed=1,
        ))
        x, y, a = next(biased_stream(1, seed=2))
        prediction, snap = learner.step(x, y, a)
        assert prediction in (0, 1)
        assert np.isfinite(snap.grad_norm_total)
        assert np.isfinite(learner.forest.vector).all()

    def test_overflowing_edges_mid_stream_warn_nothing(self):
        """An instance whose pre-activations pass exp's overflow at about
        709.8 mid-stream steps without a warning (the logistic silences
        the overflow only then) and leaves the gradient and the
        parameters finite; the gate it saturates has an exact 0 edge."""
        learner = OnlineForestLearner(self._config(fairness_weight=0.5))
        stream = list(biased_stream(6, seed=3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for i, (x, y, a) in enumerate(stream):
                if i == 3:
                    x = x * 1e4
                    assert (_ForwardCache(learner.forest, x).edges == 0.0).any()
                    nodes = learner.forest.nodes
                    z = tree_weights(nodes) @ x + nodes[0]
                    assert np.abs(z).max() > 709.8
                _, snap = learner.step(x, y, a)
                assert np.isfinite(learner._last_total.vector).all()
                assert np.isfinite([snap.grad_norm_total,
                                    snap.grad_norm_fair]).all()
        assert np.isfinite(learner.forest.vector).all()
        assert learner.step_count == 6

    def test_instance_validation(self):
        learner = OnlineForestLearner(self._config())
        with pytest.raises(ShapeError):
            learner.step(np.zeros(3), 0, 0)
        with pytest.raises(DomainError):
            learner.step(np.zeros(2), 2, 0)
        with pytest.raises(DomainError):
            learner.step(np.zeros(2), 0, 2)
        with pytest.raises(DataError):
            learner.step(np.array([np.nan, 0.0]), 0, 0)

    @pytest.mark.parametrize("values", [
        [np.nan, 0.0], [np.inf, 0.0], [-np.inf, 0.0], [np.inf, -np.inf],
    ], ids=["nan", "inf", "-inf", "inf-and-minus-inf"])
    @pytest.mark.parametrize("regime", ["error", "ignore", "raise"])
    def test_non_finite_instance_is_refused(self, values, regime):
        """NaN, either infinity and an infinity of each sign (whose sum is
        ``inf - inf``) are each refused with the one message, whether
        numpy's warnings are errors, ignored or raised as
        FloatingPointError."""
        config = self._config()
        with floating_point_regime(regime):
            with pytest.raises(DataError, match=r"^feature vector contains "
                               r"non-finite values$"):
                _check_instances(config.n_features, np.array(values))

    @pytest.mark.parametrize("regime", ["error", "ignore", "raise"])
    def test_finite_values_whose_sum_overflows_are_accepted(self, regime):
        """Finite entries whose squares sum to infinity, near the largest
        float or past its square root (about 1.3e154), and whose plain
        sum may be finite; the element-wise check then accepts them."""
        config = self._config()
        for values in ([1e308, 1e308], [1e200, -1e200]):
            x = np.array(values)
            with floating_point_regime(regime):
                assert _check_instances(config.n_features, x) is x

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.floats(), st.sampled_from(
        [1e308, -1e308, 1.7976931348623157e308, np.inf, -np.inf, np.nan])),
        min_size=1, max_size=6))
    def test_check_agrees_with_isfinite(self, values):
        """The check accepts exactly the vectors every entry of which is
        finite."""
        x = np.array(values)
        config = LearnerConfig(n_features=x.size)
        if np.isfinite(x).all():
            assert _check_instances(config.n_features, x) is x
        else:
            with pytest.raises(DataError):
                _check_instances(config.n_features, x)

    @pytest.mark.parametrize("y, a", [
        (1.0, 0), (1, True), (True, 0), (1, 0.0), (np.float64(1), 0),
        (1, np.bool_(True)), (1, "0"),
    ], ids=["float-label", "bool-group", "bool-label", "float-group",
            "numpy-float-label", "numpy-bool-group", "str-group"])
    def test_refused_step_changes_nothing(self, y, a):
        """A label or group that is not an integer, bools included, is a
        DomainError before the metrics or the store see the instance; a
        float label used to be counted and then fail at ``residual[y]``,
        and a bool group to add 1 to every group's count."""
        learner = OnlineForestLearner(self._config(fairness_weight=0.5))
        for x, yy, aa in biased_stream(5, seed=2):
            learner.step(x, yy, aa)
        before = learner.checkpoint()
        with pytest.raises(DomainError):
            learner.step(np.zeros(2), y, a)
        assert learner.checkpoint() == before

    def test_numpy_integer_label_and_group_are_accepted(self):
        plain = OnlineForestLearner(self._config(fairness_weight=0.5))
        numpy = OnlineForestLearner(self._config(fairness_weight=0.5))
        for x, y, a in biased_stream(5, seed=2):
            assert (numpy.step(x, np.int64(y), np.int32(a))
                    == plain.step(x, y, a))
        assert numpy.checkpoint() == plain.checkpoint()

    def test_non_finite_output_changes_nothing(self):
        """A forest whose output is not finite raises NumericalError before
        the metrics, the store or the parameters change."""
        learner = OnlineForestLearner(self._config(fairness_weight=0.5))
        for x, y, a in biased_stream(5, seed=2):
            learner.step(x, y, a)
        learner.forest.leaves[0, 0, 0] = np.inf
        before = learner.checkpoint()
        with pytest.raises(NumericalError):
            learner.step(np.zeros(2), 1, 0)
        assert learner.checkpoint() == before

class TestStepWorkspace:
    """Each learner steps over one workspace it keeps: the augmented
    instance, the edges, the routing gather, the leaf probabilities, the
    output and the task gradient's scratch, built once."""

    @staticmethod
    def _learner(notion="dp", n_groups=2, **kwargs):
        base = dict(n_features=3, height=3, tree_count=2, fairness=notion,
                    n_groups=n_groups, fairness_weight=1.0, seed=1)
        base.update(kwargs)
        return OnlineForestLearner(LearnerConfig(**base))

    @staticmethod
    def _stream(n, d, n_groups, n_classes, seed):
        rng = np.random.default_rng(seed)
        return [(rng.standard_normal(d), int(rng.integers(0, n_classes)),
                 int(rng.integers(0, n_groups))) for _ in range(n)]

    @settings(max_examples=40, deadline=None)
    @given(height=st.integers(1, 8), trees=st.integers(1, 5),
           d=st.integers(1, 12), c=st.integers(2, 4),
           notion=st.sampled_from(["dp", "equalized_odds", "multigroup"]),
           groups=st.integers(2, 4), seed=st.integers(0, 2**16))
    def test_step_predicts_and_evaluates_as_forward(self, height, trees, d, c,
                                                    notion, groups, seed):
        """Each step returns the ``predict(x)`` taken before it, and the
        forward output it left in its workspace is ``forward(forest, x)``
        at the parameters before the step, bit for bit."""
        n_groups = groups if notion == "multigroup" else 2
        learner = self._learner(notion, n_groups, n_features=d, n_outputs=c,
                                height=height, tree_count=trees, seed=seed)
        for x, y, a in self._stream(4, d, n_groups, c, seed):
            want = forward(learner.forest, x)
            predicted = learner.predict(x)
            prediction, _ = learner.step(x, y, a)
            assert prediction == predicted
            assert learner._workspace.output.tobytes() == want.tobytes()

    def test_interleaved_learners_match_solo_runs(self):
        """Two learners of one shape and a third of another, stepped in
        turn, end bit for bit where each ends stepped alone, with the same
        snapshots: no scratch is shared between learners."""
        def build():
            return [self._learner(seed=1), self._learner(seed=2),
                    self._learner("multigroup", 3, height=4, tree_count=3)]
        stream = self._stream(30, 3, 2, 2, seed=5)
        solo = []
        for learner in build():
            snaps = [learner.step(x, y, a) for x, y, a in stream]
            solo.append((learner.forest.vector.copy(), snaps))
        together = build()
        snaps = [[] for _ in together]
        for x, y, a in stream:
            for learner, log in zip(together, snaps):
                log.append(learner.step(x, y, a))
        for learner, log, (vector, want) in zip(together, snaps, solo):
            assert learner.forest.vector.tobytes() == vector.tobytes()
            assert log == want

    def test_cache_without_workspace_is_not_overwritten(self):
        """A forward cache built without a workspace owns its arrays, so
        the learner's next steps, and other caches and task gradients
        built without one, leave it as it was."""
        learner = self._learner(notion="equalized_odds")
        stream = self._stream(5, 3, 2, 2, seed=6)
        cache = _ForwardCache(learner.forest, stream[0][0])
        assert cache.workspace is not learner._workspace
        names = ("edges", "gates", "slope", "leaf_probs", "output")
        before = {name: getattr(cache, name).copy() for name in names}
        for x, y, a in stream:
            learner.step(x, y, a)
            _ForwardCache(learner.forest, x)
            task_gradient(learner.forest, x, y)
        for name in names:
            np.testing.assert_array_equal(getattr(cache, name), before[name],
                                          err_msg=name)

    def test_warm_steps_allocate_no_block(self):
        """After warm-up, 50 steps at h=6, T=4 under multigroup with four
        groups allocate less than a quarter of one ``(d + 1, T, m)`` node
        block (22 kB): a step's forward pass, task gradient and store fold
        write into buffers their owners keep, where the routing gather
        alone used to allocate 12 kB each step.  The steps run at numpy's
        default buffer size: a broadcast multiply on the step stages its
        operands through an iteration buffer of ``np.getbufsize()``
        values (64 kB), which this peak would show."""
        learner = self._learner("multigroup", 4, n_features=10, height=6,
                                tree_count=4)
        stream = self._stream(150, 10, 4, 2, seed=7)
        for x, y, a in stream[:100]:
            learner.step(x, y, a)
        block = learner.forest.nodes.nbytes
        assert block == 11 * 4 * 63 * 8
        tracemalloc.start()
        try:
            for x, y, a in stream[100:]:
                learner.step(x, y, a)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < block / 4, (peak, block)


class TestCheckpoint:
    """Suspend and resume."""

    def _run(self, learner, stream):
        snap = None
        for x, y, a in stream:
            _, snap = learner.step(x, y, a)
        return snap

    @pytest.mark.parametrize("name, values, match", [
        ("metrics.label_sums", [-50.0, 1e6], r"metrics\.label_sums\[0\]"),
        ("metrics.label_sums", [0.0, 1e6], r"metrics\.label_sums\[1\]"),
        ("metrics.label_sums", [-1e-9, 0.0], r"metrics\.label_sums\[0\]"),
        ("grad_norms", [-1.0, -2.0], "grad_norms"),
        ("grad_norms", [0.5, -1e-300], "grad_norms"),
    ], ids=["negative-and-huge", "huge", "barely-negative", "both-norms",
            "fair-norm"])
    def test_restore_refuses_metric_state_no_stream_leaves(self, name,
                                                           values, match):
        """A group's label sum outside ``[0, (n_outputs - 1) * count]`` or
        a negative gradient norm used to restore, and the snapshot then
        reported a ``dp_hard`` far above 1 or negative norms; each is a
        DataError at restore naming the array."""
        learner = OnlineForestLearner(LearnerConfig(n_features=2, seed=3))
        self._run(learner, biased_stream(10, seed=11))
        data = json.loads(json.dumps(learner.checkpoint()))
        data["floats"][name] = encode_floats(np.array(values))
        with pytest.raises(DataError, match=match):
            OnlineForestLearner.restore(data)

    def test_label_sum_bound_is_the_largest_class_index_per_instance(self):
        """The tracker adds each prediction's class index, so with three
        classes a group's label sum may reach twice its count, and not
        one more."""
        cfg = LearnerConfig(n_features=2, n_outputs=3, seed=3)
        learner = OnlineForestLearner(cfg)
        rng = np.random.default_rng(4)
        for step in range(12):
            learner.step(rng.standard_normal(2), step % 3, step % 2)
        counts = learner.metrics.group_counts
        data = json.loads(json.dumps(learner.checkpoint()))
        top = 2.0 * np.array(counts)
        data["floats"]["metrics.label_sums"] = encode_floats(top)
        restored = OnlineForestLearner.restore(data)
        assert restored.metrics.group_label_sums == top.tolist()
        data["floats"]["metrics.label_sums"] = encode_floats(top + [0.0, 1.0])
        with pytest.raises(DataError, match=r"metrics\.label_sums\[1\]"):
            OnlineForestLearner.restore(data)

    def test_resume_reproduces_uninterrupted_run(self):
        cfg = LearnerConfig(n_features=2, fairness="dp", fairness_weight=0.5,
                            seed=8)
        straight = OnlineForestLearner(cfg)
        part1 = list(biased_stream(15, seed=9))
        part2 = list(biased_stream(15, seed=10))
        final_straight = self._run(straight, part1 + part2)

        first = OnlineForestLearner(cfg)
        self._run(first, part1)
        resumed = OnlineForestLearner.restore(
            json.loads(json.dumps(first.checkpoint()))
        )
        final_resumed = self._run(resumed, part2)

        np.testing.assert_array_equal(straight.forest.nodes[1:],
                                      resumed.forest.nodes[1:])
        np.testing.assert_array_equal(straight.forest.leaves,
                                      resumed.forest.leaves)
        assert final_straight == final_resumed

    def test_file_round_trip(self, tmp_path):
        cfg = LearnerConfig(n_features=2, seed=3)
        learner = OnlineForestLearner(cfg)
        self._run(learner, biased_stream(5, seed=11))
        path = tmp_path / "state.json"
        learner.save_checkpoint(path)
        clone = OnlineForestLearner.load_checkpoint(path)
        np.testing.assert_array_equal(learner.forest.nodes[1:],
                                      clone.forest.nodes[1:])
        assert clone.step_count == learner.step_count

    def test_failed_write_keeps_the_previous_checkpoint(self, tmp_path,
                                                         monkeypatch):
        """A save that fails mid-write leaves the last good checkpoint in
        place and no temporary file behind."""
        learner = OnlineForestLearner(LearnerConfig(n_features=2, seed=3))
        path = tmp_path / "state.json"
        self._run(learner, biased_stream(5, seed=11))
        learner.save_checkpoint(path)
        saved_weights = learner.forest.nodes[1:].copy()
        self._run(learner, biased_stream(5, seed=12))

        def fail(*args):
            raise OSError("disk full")

        # The encoder failing before a byte is written, and the sync
        # failing after the whole document went to the temporary file.
        for target in ("fairforest.learner.json.dumps",
                       "fairforest.learner.os.fsync"):
            monkeypatch.setattr(target, fail)
            with pytest.raises(OSError):
                learner.save_checkpoint(path)
            monkeypatch.undo()
            clone = OnlineForestLearner.load_checkpoint(path)
            assert clone.step_count == 5
            np.testing.assert_array_equal(clone.forest.nodes[1:], saved_weights)
            assert [p.name for p in tmp_path.iterdir()] == ["state.json"]

    def test_identical_runs_write_identical_files(self, tmp_path):
        cfg = LearnerConfig(n_features=2, fairness="dp", fairness_weight=0.5,
                            seed=8)
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            learner = OnlineForestLearner(cfg)
            self._run(learner, biased_stream(25, seed=9))
            learner.save_checkpoint(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_unknown_format_is_rejected(self):
        """Version 1 kept the store layout before the packed one, version
        2 wrote every array as nested lists, version 3 repeated the
        layout the config fixes, version 4 held a config with a decay
        field and no gradient norms, version 5 held a multigroup store with
        an overall key, version 6 held running means instead of sums,
        version 7 held the forest vector as weights ``(T, m, d)``, biases,
        leaves, version 8 held a config with Adam's decay rates and
        epsilon; all are refused like any other unknown format, so a v7
        vector is never read into the v9 node block."""
        learner = OnlineForestLearner(LearnerConfig(n_features=2))
        data = learner.checkpoint()
        assert data["format"] == "fairforest-checkpoint-v9"
        for unknown in ("something-else", "fairforest-checkpoint-v1",
                        "fairforest-checkpoint-v2", "fairforest-checkpoint-v3",
                        "fairforest-checkpoint-v4", "fairforest-checkpoint-v5",
                        "fairforest-checkpoint-v6", "fairforest-checkpoint-v7",
                        "fairforest-checkpoint-v8"):
            data["format"] = unknown
            with pytest.raises(DataError):
                OnlineForestLearner.restore(data)

    def test_v2_checkpoint_is_refused(self):
        """A file in the v2 layout (nested lists) is a DataError, and so
        is the same content relabelled v3 to v9."""
        learner = OnlineForestLearner(LearnerConfig(n_features=2,
                                                    fairness_weight=0.5, seed=3))
        self._run(learner, biased_stream(5, seed=11))
        forest, adam, metrics = learner.forest, learner.adam, learner.metrics
        shapes = forest.shape.param_shapes
        data = {
            "format": "fairforest-checkpoint-v2",
            "config": learner.config.to_dict(),
            "step_count": learner.step_count,
            "forest": {"height": forest.height,
                       "weights": tree_weights(forest.nodes).tolist(),
                       "biases": forest.nodes[0].tolist(),
                       "leaves": forest.leaves.tolist()},
            "adam": {"t": adam.t, **{
                name: [a.tolist() for a in _block_views(getattr(adam, name), shapes)]
                for name in ("m", "v")}},
            "store": {"counts": learner.store.counts.tolist(),
                      "means": store_means(learner.store).tolist()},
            "metrics": {"total": metrics.total, "correct": metrics.correct,
                        "group_counts": metrics.group_counts,
                        "group_label_sums": metrics.group_label_sums,
                        "group_output_sums": metrics.group_output_sums},
        }
        for label in ("fairforest-checkpoint-v2", "fairforest-checkpoint-v3",
                      "fairforest-checkpoint-v4", "fairforest-checkpoint-v5",
                      "fairforest-checkpoint-v6", "fairforest-checkpoint-v7",
                      "fairforest-checkpoint-v8", "fairforest-checkpoint-v9"):
            data["format"] = label
            with pytest.raises(DataError):
                OnlineForestLearner.restore(json.loads(json.dumps(data)))

    def test_v3_checkpoint_is_refused(self):
        """A file in the v3 layout (sections that repeat the height, the
        store's shape and notion, the metrics' group and output counts
        and ``adam.t``) is a DataError, and so is the same content
        relabelled v4 to v9."""
        learner = OnlineForestLearner(LearnerConfig(n_features=2,
                                                    fairness_weight=0.5, seed=3))
        self._run(learner, biased_stream(5, seed=11))
        store, metrics = learner.store, learner.metrics
        data = {
            "format": "fairforest-checkpoint-v3",
            "config": learner.config.to_dict(),
            "step_count": learner.step_count,
            "forest": {"height": learner.forest.height,
                       "vector": encode_floats(learner.forest.vector)},
            "adam": {"t": learner.adam.t, "m": encode_floats(learner.adam.m),
                     "v": encode_floats(learner.adam.v)},
            "store": {"notion": store.table.name,
                      "n_groups": store.table.n_groups,
                      "n_classes": store.table.n_classes, "decay": None,
                      "shape": list(store.shape),
                      "counts": store.counts.tolist(),
                      "means": encode_floats(np.moveaxis(store_means(store), 1, -1))},
            "metrics": {"n_groups": 2, "n_outputs": 2, "total": metrics.total,
                        "correct": metrics.correct,
                        "group_counts": metrics.group_counts,
                        "group_label_sums": encode_floats(metrics.group_label_sums),
                        "group_output_sums": encode_floats(metrics.group_output_sums)},
        }
        for label in ("fairforest-checkpoint-v3", "fairforest-checkpoint-v4",
                      "fairforest-checkpoint-v5", "fairforest-checkpoint-v6",
                      "fairforest-checkpoint-v7", "fairforest-checkpoint-v8",
                      "fairforest-checkpoint-v9"):
            data["format"] = label
            with pytest.raises(DataError):
                OnlineForestLearner.restore(json.loads(json.dumps(data)))

    def test_v3_layout_restores_and_steps_identically(self):
        """v9 keeps the v3 encoding of every float array: one base64 string
        of its float64 bytes, the forest and each Adam moment as one flat
        vector.  Restoring gives the same bits, and stepping matches the
        learner that was never interrupted."""
        cfg = LearnerConfig(n_features=2, height=3, tree_count=3,
                            fairness="dp", fairness_weight=0.7, seed=4)
        straight = OnlineForestLearner(cfg)
        self._run(straight, biased_stream(20, seed=13))
        data = json.loads(json.dumps(straight.checkpoint()))
        n_params = straight.forest.shape.n_params
        for name, size in (
            ("forest", n_params),
            ("adam.m", n_params),
            ("adam.v", n_params),
            ("store.sums", straight.store.sums.size),
            ("metrics.label_sums", 2),
            ("metrics.output_sums", 4),
        ):
            assert isinstance(data["floats"][name], str)
            decode_floats(data["floats"][name], np.empty(size), name)
        assert data["counts"]["store"] == straight.store.counts.tolist()
        resumed = OnlineForestLearner.restore(data)
        np.testing.assert_array_equal(resumed.adam.m, straight.adam.m)
        np.testing.assert_array_equal(resumed.adam.v, straight.adam.v)
        np.testing.assert_array_equal(resumed.store.sums, straight.store.sums)
        np.testing.assert_array_equal(resumed.forest.vector, straight.forest.vector)
        tail = list(biased_stream(20, seed=14))
        assert self._run(resumed, tail) == self._run(straight, tail)
        np.testing.assert_array_equal(resumed.forest.vector, straight.forest.vector)
        np.testing.assert_array_equal(resumed.adam.m, straight.adam.m)
        np.testing.assert_array_equal(resumed.adam.v, straight.adam.v)

    def test_v6_checkpoint_is_refused(self):
        """A v6 file held the store's running means under ``store.means``;
        it is a DataError, and so is the same content relabelled v7 to v9,
        whose store entry is ``store.sums``."""
        learner = OnlineForestLearner(LearnerConfig(n_features=2,
                                                    fairness_weight=0.5, seed=3))
        self._run(learner, biased_stream(5, seed=11))
        data = json.loads(json.dumps(learner.checkpoint()))
        del data["floats"]["store.sums"]
        data["floats"]["store.means"] = encode_floats(store_means(learner.store))
        for label in ("fairforest-checkpoint-v6", "fairforest-checkpoint-v7",
                      "fairforest-checkpoint-v8", "fairforest-checkpoint-v9"):
            data["format"] = label
            with pytest.raises(DataError):
                OnlineForestLearner.restore(json.loads(json.dumps(data)))

    def test_v8_checkpoint_is_refused(self):
        """A v8 file held Adam's decay rates and epsilon in its config; it
        is a DataError, and so is the same content relabelled v9."""
        learner = OnlineForestLearner(LearnerConfig(n_features=2,
                                                    fairness_weight=0.5, seed=3))
        self._run(learner, biased_stream(5, seed=11))
        data = json.loads(json.dumps(learner.checkpoint()))
        data["config"].update(beta1=0.9, beta2=0.999, adam_epsilon=1e-8)
        for label in ("fairforest-checkpoint-v8", "fairforest-checkpoint-v9"):
            data["format"] = label
            with pytest.raises(DataError):
                OnlineForestLearner.restore(json.loads(json.dumps(data)))

    @pytest.mark.skipif(os.name != "posix", reason="directories sync on POSIX")
    def test_save_syncs_the_directory_after_the_rename(self, tmp_path,
                                                       monkeypatch):
        """The rename is durable only once its directory is on disk: the
        save syncs the file, renames it over ``path``, then syncs the
        directory."""
        learner = OnlineForestLearner(LearnerConfig(n_features=2, seed=3))
        events = []
        fsync, replace = os.fsync, os.replace

        def record_fsync(fd):
            mode = os.fstat(fd).st_mode
            events.append("fsync-dir" if stat.S_ISDIR(mode) else "fsync-file")
            fsync(fd)

        def record_replace(src, dst):
            events.append("replace")
            replace(src, dst)

        monkeypatch.setattr(os, "fsync", record_fsync)
        monkeypatch.setattr(os, "replace", record_replace)
        learner.save_checkpoint(tmp_path / "state.json")
        assert events == ["fsync-file", "replace", "fsync-dir"]

    @pytest.mark.parametrize("notion, n_outputs, n_groups", [
        ("dp", 2, 2), ("equalized_odds", 3, 2), ("multigroup", 2, 4),
    ], ids=["dp", "eo-C3", "multigroup-G4"])
    def test_round_trip_restores_the_store_bit_for_bit(self, notion,
                                                       n_outputs, n_groups):
        """The restored store's sums, counts and count-scaled contrast
        weights are the saved store's bits; with four multigroup groups on
        a three-group stream one key stays unseen."""
        cfg = LearnerConfig(n_features=3, n_outputs=n_outputs, height=3,
                            fairness=notion, fairness_weight=0.7,
                            n_groups=n_groups, seed=5)
        learner = OnlineForestLearner(cfg)
        rng = np.random.default_rng(21)
        for _ in range(40):
            learner.step(rng.standard_normal(3), int(rng.integers(0, n_outputs)),
                         int(rng.integers(0, min(n_groups, 3))))
        data = json.loads(json.dumps(learner.checkpoint()))
        assert data["format"] == "fairforest-checkpoint-v9"
        restored = OnlineForestLearner.restore(data).store
        store = learner.store
        assert (store.counts > 1).sum() >= 2
        for name in ("sums", "counts", "contrast_weights"):
            got, want = getattr(restored, name), getattr(store, name)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("weight", [0.7, 0.0], ids=["penalty", "weight0"])
    @pytest.mark.parametrize("notion, n_outputs, n_groups", [
        ("dp", 2, 2), ("equalized_odds", 3, 2), ("multigroup", 2, 4),
        ("none", 2, 2),
    ], ids=["dp", "eo-C3", "multigroup-G4", "none"])
    def test_round_trip_continues_bit_for_bit(self, notion, n_outputs,
                                               n_groups, weight):
        """Serialize with ``json.dumps``, restore, and take 20 more steps:
        the restored ``snapshot()`` (its gradient norms included) and then
        every prediction, snapshot and array match the learner that was
        never interrupted, bit for bit.  At weight 0, or under ``none``,
        there is no store and the file holds none."""
        cfg = LearnerConfig(n_features=3, n_outputs=n_outputs, height=3,
                            fairness=notion, fairness_weight=weight,
                            n_groups=n_groups, seed=4)
        rng = np.random.default_rng(13)
        stream = [(rng.standard_normal(3), int(rng.integers(0, n_outputs)),
                   int(rng.integers(0, n_groups))) for _ in range(50)]
        straight = OnlineForestLearner(cfg)
        self._run(straight, stream[:30])
        resumed = OnlineForestLearner.restore(
            json.loads(json.dumps(straight.checkpoint())))
        assert (resumed.store is None) == (not cfg.has_penalty)
        assert resumed.snapshot() == straight.snapshot()
        for x, y, a in stream[30:]:
            assert resumed.step(x, y, a) == straight.step(x, y, a)
        assert resumed.adam.t == resumed.metrics.total == 50
        assert resumed.metrics.correct == straight.metrics.correct
        for got, want in zip(resumed._state(), straight._state()):
            assert got.keys() == want.keys()
            for name in want:
                assert got[name].dtype == want[name].dtype
                assert got[name].tobytes() == want[name].tobytes(), name

    def test_v4_holds_only_the_config_and_the_learner_arrays(self):
        """A v9 file keeps the v4 layout, which repeats nothing the config
        or the step count fixes: besides them it holds the number of
        correct predictions, the last step's gradient norms and the
        learner's own arrays by name, each float array one base64 string
        of its float64 bytes in the array's own order (store sums
        width-first, as the store keeps them) and each count array a list
        of JSON integers.  A multigroup store holds one block and one count
        per group."""
        cfg = LearnerConfig(n_features=2, height=3, tree_count=3,
                            fairness="multigroup", n_groups=3,
                            fairness_weight=0.7, seed=4)
        learner = OnlineForestLearner(cfg)
        rng = np.random.default_rng(16)
        for _ in range(20):
            learner.step(rng.standard_normal(2), int(rng.integers(0, 2)),
                         int(rng.integers(0, 3)))
        data = json.loads(json.dumps(learner.checkpoint()))
        assert set(data) == {"format", "config", "step_count", "correct",
                             "floats", "counts"}
        assert (data["step_count"], data["correct"]) == (20, learner.metrics.correct)
        floats = {"forest": learner.forest.vector, "adam.m": learner.adam.m,
                  "adam.v": learner.adam.v,
                  "metrics.label_sums": np.array(learner.metrics.group_label_sums),
                  "metrics.output_sums": np.array(learner.metrics.group_output_sums),
                  "grad_norms": np.array([learner._last_total_norm,
                                          learner._last_fair_norm]),
                  "store.sums": learner.store.sums}
        assert data["floats"].keys() == floats.keys()
        for name, array in floats.items():
            assert base64.b64decode(data["floats"][name]) == array.tobytes()
        assert data["counts"] == {
            "metrics.groups": learner.metrics.group_counts,
            "store": learner.store.counts.tolist(),
        }
        assert learner.store.sums.shape[0] == len(data["counts"]["store"]) == 3
        assert data["counts"]["store"] == learner.metrics.group_counts

    def test_malformed_forest_and_adam_arrays_are_refused(self):
        """Each restored array must be one base64 string of exactly the
        configured number of finite float64 values; anything else is a
        DataError at load, not a numpy error at the next step."""
        learner = OnlineForestLearner(LearnerConfig(n_features=2, seed=3))
        self._run(learner, biased_stream(5, seed=11))
        good = json.loads(json.dumps(learner.checkpoint()))
        vector = learner.forest.vector
        non_finite = vector.copy()
        non_finite[5] = np.inf
        edits = [
            ("adam.m", good["floats"]["adam.m"][:-8]),
            ("adam.m", [0.0] * vector.size),
            ("adam.m", "not base64!"),
            ("adam.v", encode_floats(vector[:-1])),
            ("adam.v", encode_floats(np.r_[vector[:-1], np.nan])),
            ("adam.v", vector.tolist()),
            ("forest", good["floats"]["forest"][:40]),
            ("forest", encode_floats(np.r_[vector, 0.0])),
            ("forest", encode_floats(non_finite)),
            ("forest", None),
            ("forest", "@" * 8 * vector.size),
        ]
        for name, value in edits:
            data = json.loads(json.dumps(good))
            data["floats"][name] = value
            with pytest.raises(DataError):
                OnlineForestLearner.restore(data)

    def test_truncated_store_is_refused(self):
        """Truncated, wrong-length, non-finite, non-string or non-base64
        store sums, and truncated, negative or non-integer store counts,
        are a DataError at load."""
        learner = OnlineForestLearner(LearnerConfig(
            n_features=2, fairness="multigroup", n_groups=3,
            fairness_weight=0.5, seed=3))
        rng = np.random.default_rng(2)
        for _ in range(10):
            learner.step(rng.standard_normal(2), int(rng.integers(0, 2)),
                         int(rng.integers(0, 3)))
        good = json.loads(json.dumps(learner.checkpoint()))
        sums = learner.store.sums
        non_finite = sums.copy()
        non_finite[0, 1, 1, 0] = np.nan
        text = good["floats"]["store.sums"]
        counts = good["counts"]["store"]
        edits = [
            ("floats", "store.sums", text[:8]),
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
        ]
        for section, name, value in edits:
            data = json.loads(json.dumps(good))
            data[section][name] = value
            with pytest.raises(DataError):
                OnlineForestLearner.restore(data)

    @pytest.mark.parametrize("fairness, n_groups, edit", [
        ("dp", 2, lambda c, g, t: [c[0] + 1, c[1] - 1]),
        ("dp", 2, lambda c, g, t: [t, 0]),
        ("multigroup", 3, lambda c, g, t: c + [t]),
        ("multigroup", 3, lambda c, g, t: [c[1], c[0], c[2]]),
        ("equalized_odds", 2, lambda c, g, t: [c[0] + 1, c[1], c[2], c[3] - 1]),
        ("equalized_odds", 2, lambda c, g, t: [c[0], c[1], c[2], c[3] + 2]),
    ], ids=["dp-moved", "dp-all-in-one", "multigroup-overall",
            "multigroup-swapped", "eo-moved", "eo-extra"])
    def test_store_counts_must_agree_with_the_metrics(self, fairness, n_groups,
                                                       edit):
        """Every instance folds into its group's store key and is counted
        by the metrics: ``dp`` and ``multigroup`` counts equal the group
        counts (a v5 ``multigroup`` layout, with the step count appended as
        an overall key, is refused), and ``equalized_odds`` counts sum over
        the classes to the group counts."""
        learner = OnlineForestLearner(LearnerConfig(
            n_features=2, fairness=fairness, fairness_weight=0.5,
            n_groups=n_groups, seed=3))
        rng = np.random.default_rng(15)
        for _ in range(40):
            learner.step(rng.standard_normal(2), int(rng.integers(0, 2)),
                         int(rng.integers(0, n_groups)))
        good = json.loads(json.dumps(learner.checkpoint()))
        OnlineForestLearner.restore(good)
        counts = good["counts"]["store"]
        edited = edit(counts, good["counts"]["metrics.groups"],
                      good["step_count"])
        assert edited != counts and min(edited) >= 0
        good["counts"]["store"] = edited
        with pytest.raises(DataError):
            OnlineForestLearner.restore(good)

    def _good_checkpoint(self):
        learner = OnlineForestLearner(LearnerConfig(n_features=2,
                                                    fairness_weight=0.5, seed=3))
        self._run(learner, biased_stream(5, seed=11))
        return json.loads(json.dumps(learner.checkpoint()))

    def test_malformed_metrics_are_refused(self):
        """The metrics arrays must fit the configuration and agree with
        the step count; a group count list cut to one entry used to load
        and then fail with an IndexError at the first step."""
        good = self._good_checkpoint()
        total = good["step_count"]

        def put(section, name, value):
            return lambda d: d[section].__setitem__(name, value)

        def counts(values):
            return put("counts", "metrics.groups", values)

        edits = [
            counts(good["counts"]["metrics.groups"][:1]),
            counts([total + 1, -1]),
            counts([total, 1]),
            counts([total / 2, total / 2]),
            counts("five"),
            counts([True, total - 1]),
            lambda d: d.__setitem__("step_count", total + 1),
            lambda d: d.__setitem__("correct", total + 1),
            lambda d: d.__setitem__("correct", -1),
            lambda d: d.__setitem__("correct", 2.0),
            put("floats", "metrics.label_sums",
                good["floats"]["metrics.label_sums"][:-4]),
            put("floats", "metrics.label_sums", encode_floats(np.r_[np.nan, 0.0])),
            put("floats", "metrics.label_sums", np.zeros(2).tolist()),
            put("floats", "metrics.output_sums", encode_floats(np.zeros(5))),
            put("floats", "metrics.output_sums",
                encode_floats(np.r_[np.inf, np.zeros(3)])),
            put("floats", "metrics.output_sums", np.zeros((2, 2)).tolist()),
        ]
        for edit in edits:
            data = json.loads(json.dumps(good))
            edit(data)
            with pytest.raises(DataError):
                OnlineForestLearner.restore(data)

    def test_missing_sections_are_refused(self):
        """A checkpoint without one of its keys, or without an array of
        either map, is a DataError, not a bare KeyError."""
        good = self._good_checkpoint()
        paths = [(key,) for key in good if key != "format"]
        paths += [(section, key) for section in ("floats", "counts")
                  for key in good[section]]
        for path in paths:
            data = json.loads(json.dumps(good))
            *parents, last = path
            owner = data
            for key in parents:
                owner = owner[key]
            del owner[last]
            with pytest.raises(DataError):
                OnlineForestLearner.restore(data)

    def test_unknown_keys_are_refused(self):
        """The schema is closed: an unknown config key is a DataError, not
        a TypeError from the config constructor, and so is an unknown
        key at the top or in either map."""
        good = self._good_checkpoint()
        for owner in ("config", None, "floats", "counts"):
            data = json.loads(json.dumps(good))
            (data if owner is None else data[owner])["extra"] = 1
            with pytest.raises(DataError):
                OnlineForestLearner.restore(data)
        data = json.loads(json.dumps(good))
        data["config"]["height"] = "4"
        with pytest.raises(DataError):
            OnlineForestLearner.restore(data)

    def test_store_must_fit_the_configuration(self):
        """No store where the penalty needs one, or a store where a
        weight of 0 or the ``none`` notion leaves no penalty, is refused
        rather than silently dropped."""
        good = self._good_checkpoint()

        def no_store(d):
            del d["floats"]["store.sums"], d["counts"]["store"]

        for edit in (no_store,
                     lambda d: d["config"].__setitem__("fairness_weight", 0.0),
                     lambda d: d["config"].__setitem__("fairness", "none")):
            data = json.loads(json.dumps(good))
            edit(data)
            with pytest.raises(DataError):
                OnlineForestLearner.restore(data)

    def test_step_count_must_be_a_non_negative_integer(self):
        good = self._good_checkpoint()
        for bad in ("5", 5.5, None, True, -1, [5]):
            data = json.loads(json.dumps(good))
            data["step_count"] = bad
            with pytest.raises(DataError):
                OnlineForestLearner.restore(data)


class TestRunStream:
    """The generator-driving front end."""

    def test_rows_carry_running_metrics(self):
        cfg = LearnerConfig(n_features=2, seed=4)
        learner = OnlineForestLearner(cfg)
        rows = list(run_stream(learner, biased_stream(30, seed=12)))
        assert [r.step for r in rows] == list(range(1, 31))
        hits = 0
        for i, row in enumerate(rows, start=1):
            hits += row.prediction == row.y
            np.testing.assert_allclose(row.accuracy, hits / i, atol=1e-12)

    def test_rows_come_in_the_trajectory_column_order(self):
        """A row is the tuple a CSV writer writes under the trajectory's
        header: the step, the instance's label and group, the prediction,
        then the step's snapshot metrics, in that order."""
        assert TRAJECTORY_COLUMNS == (
            "step", "y", "a", "pred", "running_accuracy", "dp_hard",
            "dp_soft", "grad_norm_total", "grad_norm_fair")
        cfg = LearnerConfig(n_features=2, fairness_weight=0.5, seed=4)
        learner, twin = OnlineForestLearner(cfg), OnlineForestLearner(cfg)
        stream = list(biased_stream(20, seed=12))
        rows = list(run_stream(learner, stream))
        assert len(rows) == len(stream)
        for row, (x, y, a) in zip(rows, stream):
            prediction, snap = twin.step(x, y, a)
            assert len(row) == len(TRAJECTORY_COLUMNS)
            assert tuple(row) == (snap.step, y, a, prediction, snap.accuracy,
                                  snap.dp_hard, snap.dp_soft,
                                  snap.grad_norm_total, snap.grad_norm_fair)

    def test_rows_are_numbered_by_the_learners_step(self):
        """A learner restored at step 10 and fed 5 rows yields rows
        numbered 11-15, equal to those of an uninterrupted run, and an
        error names the failing step by the learner's count too."""
        cfg = LearnerConfig(n_features=2, fairness_weight=0.5, seed=4)
        stream = list(biased_stream(15, seed=12))
        straight = list(run_stream(OnlineForestLearner(cfg), stream))
        first = OnlineForestLearner(cfg)
        for _ in run_stream(first, stream[:10]):
            pass
        checkpoint = json.loads(json.dumps(first.checkpoint()))
        resumed = list(run_stream(OnlineForestLearner.restore(checkpoint),
                                  stream[10:]))
        assert [row.step for row in resumed] == list(range(11, 16))
        assert resumed == straight[10:]
        bad = stream[10:12] + [(np.zeros(2), 5, 0)]
        with pytest.raises(DomainError, match="^step 13:"):
            list(run_stream(OnlineForestLearner.restore(checkpoint), bad))

    def test_errors_name_the_failing_step(self):
        cfg = LearnerConfig(n_features=2, seed=4)
        learner = OnlineForestLearner(cfg)
        stream = [
            (np.zeros(2), 0, 0),
            (np.zeros(2), 1, 1),
            (np.zeros(2), 5, 0),
        ]
        with pytest.raises(DomainError, match="step 3:"):
            list(run_stream(learner, stream))

    def test_consumes_the_stream_lazily(self):
        cfg = LearnerConfig(n_features=2, seed=4)
        learner = OnlineForestLearner(cfg)
        pulled = 0

        def infinite():
            nonlocal pulled
            rng = np.random.default_rng(13)
            while True:
                pulled += 1
                yield rng.standard_normal(2), 0, pulled % 2

        rows = list(itertools.islice(run_stream(learner, infinite()), 5))
        assert len(rows) == 5
        assert pulled == 5
