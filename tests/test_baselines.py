"""Tests for the comparison learners: exact reservoir recomputation,
leaf-level penalty, output-constrained MLP, and majority mixing."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fairforest.baselines import (
    BASELINE_NAMES,
    LeafPenaltyLearner,
    MajorityConfig,
    MajorityLearner,
    OnlineMlpLearner,
    Reservoir,
    ReservoirLearner,
    majority_postprocess,
    make_learner,
    reservoir_fairness_gradient,
)
from fairforest.errors import (
    ConfigurationError,
    DataError,
    DomainError,
    ShapeError,
)
from fairforest.forest import ObliqueForest, _all_node_outputs
from fairforest.gradients import (
    HuberPenalty,
    _ForwardCache,
    cross_entropy,
    huber_slope,
)
from fairforest.learner import LearnerConfig, OnlineForestLearner
from fairforest.stats import AggregateStore
from oracles import (
    MlpBlockStore,
    dense_leaf_jacobian,
    mlp_block_fairness_gradient,
)


def biased_stream(n, seed, d=2, noise=0.1):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        a = int(rng.integers(0, 2))
        x = np.zeros(d)
        x[0] = 2.0 * a - 1.0
        x[1] = 1.0
        x += noise * rng.standard_normal(d)
        yield x, a, a


class TestReservoir:
    """The growing instance store and its exact gradient."""

    def test_group_features_partition(self):
        res = Reservoir(2)
        res.add(np.array([1.0, 0.0]), 0)
        res.add(np.array([2.0, 0.0]), 1)
        res.add(np.array([3.0, 0.0]), 0)
        np.testing.assert_array_equal(
            res.group_features(0)[:, 0], [1.0, 3.0]
        )
        assert res.group_features(1).shape == (1, 2)
        assert len(res) == 3

    def test_empty_group_has_zero_rows(self):
        res = Reservoir(3)
        res.add(np.zeros(3), 0)
        assert res.group_features(1).shape == (0, 3)

    def test_gradient_cold_until_both_groups(self):
        forest = ObliqueForest.random(2, 3, 2, rng=1)
        res = Reservoir(3)
        res.add(np.ones(3), 0)
        grad, cold = reservoir_fairness_gradient(
            res, forest, HuberPenalty(0.01, 1.0)
        )
        assert cold
        np.testing.assert_array_equal(grad.weights, 0.0)

    def test_zero_weight_short_circuits_warm(self):
        forest = ObliqueForest.random(2, 3, 2, rng=1)
        res = Reservoir(3)
        res.add(np.ones(3), 0)
        res.add(-np.ones(3), 1)
        grad, cold = reservoir_fairness_gradient(
            res, forest, HuberPenalty(0.01, 0.0)
        )
        assert not cold
        np.testing.assert_array_equal(grad.weights, 0.0)

    def test_matches_aggregate_store_under_frozen_parameters(self):
        """With parameters held fixed, the running-mean store reproduces
        the exact recomputed gradient to floating-point accuracy."""
        rng = np.random.default_rng(44)
        forest = ObliqueForest.random(3, 5, 2, tree_count=2, rng=7)
        store = AggregateStore(forest.shape)
        res = Reservoir(5)
        penalty = HuberPenalty(delta=0.01, weight=1.3)
        for _ in range(60):
            x = rng.standard_normal(5)
            a = int(rng.integers(0, 2))
            cache = _ForwardCache(forest, x)
            store.update_all(a, a, cache.gates, cache.slope, x)
            res.add(x, a)
        from fairforest.gradients import fairness_gradient

        g_store = fairness_gradient(store, penalty, forest.shape)
        g_exact, cold = reservoir_fairness_gradient(res, forest, penalty)
        assert not cold
        np.testing.assert_allclose(g_store.weights, g_exact.weights,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(g_store.biases, g_exact.biases,
                                   rtol=0, atol=1e-12)


class TestReservoirLearner:
    """The exact-recomputation learner variant."""

    def _config(self, weight=0.0):
        return LearnerConfig(n_features=2, fairness="dp",
                             fairness_weight=weight, seed=5)

    def test_task_path_matches_main_learner_at_zero_weight(self):
        main = OnlineForestLearner(self._config())
        exact = ReservoirLearner(self._config())
        for x, y, a in biased_stream(25, seed=6):
            main.step(x, y, a)
            exact.step(x, y, a)
        np.testing.assert_array_equal(main.forest.weights,
                                      exact.forest.weights)
        np.testing.assert_array_equal(main.forest.leaves,
                                      exact.forest.leaves)

    def test_reservoir_grows_with_the_stream(self):
        learner = ReservoirLearner(self._config(weight=1.0))
        for x, y, a in biased_stream(10, seed=7):
            learner.step(x, y, a)
        assert len(learner.reservoir) == 10

    def test_supports_dp_only(self):
        with pytest.raises(ConfigurationError):
            ReservoirLearner(
                LearnerConfig(n_features=2, fairness="equalized_odds")
            )

    def test_no_penalty_never_reads_the_history(self, monkeypatch):
        """Without a penalty the fairness gradient is zero and the stored
        history is only appended to, never stacked."""
        def refuse(self, group):
            raise AssertionError("group_features called without a penalty")

        monkeypatch.setattr(Reservoir, "group_features", refuse)
        for cfg in (self._config(weight=0.0),
                    LearnerConfig(n_features=2, fairness="none",
                                  fairness_weight=1.0, seed=5)):
            learner = ReservoirLearner(cfg)
            for x, y, a in biased_stream(50, seed=8):
                _, snap = learner.step(x, y, a)
                assert snap.grad_norm_fair == 0.0
            assert len(learner.reservoir) == 50

    def test_checkpoint_unsupported(self):
        learner = ReservoirLearner(self._config())
        with pytest.raises(ConfigurationError):
            learner.checkpoint()


class TestLeafPenaltyLearner:
    """The per-leaf constraint variant."""

    def _frozen_pair(self, delta):
        cfg = dict(n_features=3, height=1, tree_count=1, fairness="dp",
                   fairness_weight=1.0, huber_delta=delta, seed=2)
        return (
            OnlineForestLearner(LearnerConfig(**cfg)),
            LeafPenaltyLearner(LearnerConfig(**cfg)),
        )

    def test_height_one_gradient_is_twice_the_node_gradient(self):
        """With two leaves the constraint is counted once per leaf and the
        two leaf gaps mirror each other, so in the quadratic regime the
        leaf-level gradient is exactly twice the node-level one."""
        node_learner, leaf_learner = self._frozen_pair(delta=10.0)
        forest = node_learner.forest
        rng = np.random.default_rng(3)
        for _ in range(30):
            x = rng.standard_normal(3)
            a = int(rng.integers(0, 2))
            cache = _ForwardCache(forest, x)
            node_learner._update_fairness_state(x, a, a, cache)
            leaf_learner._update_fairness_state(x, a, a, cache)
        g_node = node_learner._fairness_gradient()
        g_leaf = leaf_learner._fairness_gradient()
        np.testing.assert_allclose(g_leaf.weights, 2.0 * g_node.weights,
                                   rtol=1e-12)
        np.testing.assert_allclose(g_leaf.biases, 2.0 * g_node.biases,
                                   rtol=1e-12)

    def test_gradient_matches_dense_oracle(self):
        """Heights 2 to 5 under frozen parameters: the path-form store
        gives the gradient of per-instance dense leaf Jacobians averaged
        per group, with the Huber slope of each leaf's mean gap."""
        rng = np.random.default_rng(21)
        weight, delta = 1.7, 0.01
        for height in range(2, 6):
            learner = LeafPenaltyLearner(LearnerConfig(
                n_features=3, height=height, tree_count=2, fairness="dp",
                fairness_weight=weight, huber_delta=delta, seed=height,
            ))
            forest = learner.forest
            sums = {g: [0.0, 0.0, 0.0] for g in (0, 1)}  # probs, jac_w, jac_b
            counts = {0: 0, 1: 0}
            for _ in range(40):
                x = rng.standard_normal(3)
                a = int(rng.integers(0, 2))
                learner._update_fairness_state(
                    x, a, a, _ForwardCache(forest, x))
                edges = _all_node_outputs(forest, x)
                gates, right = np.split(edges, 2, axis=1)
                probs, jac_b = [], []
                for t in range(forest.tree_count):
                    p, jac = dense_leaf_jacobian(gates[t], right[t], height)
                    probs.append(p)
                    jac_b.append(jac.T * (gates[t] * (1.0 - gates[t])))
                probs, jac_b = np.stack(probs), np.stack(jac_b)  # (T, L, m)
                for k, v in enumerate((probs, jac_b[..., None] * x, jac_b)):
                    sums[a][k] = sums[a][k] + v
                counts[a] += 1
            means = {g: [v / counts[g] for v in sums[g]] for g in (0, 1)}
            coeff = weight * huber_slope(
                means[0][0] - means[1][0], delta)  # (T, L)
            want_w = np.einsum("tl,tlmd->tmd", coeff, means[0][1] - means[1][1])
            want_b = np.einsum("tl,tlm->tm", coeff, means[0][2] - means[1][2])
            grad = learner._fairness_gradient()
            np.testing.assert_allclose(grad.weights, want_w, rtol=1e-9,
                                       atol=1e-15, err_msg=f"height {height}")
            np.testing.assert_allclose(grad.biases, want_b, rtol=1e-9,
                                       atol=1e-15, err_msg=f"height {height}")

    def test_leaf_rows_carry_no_fairness_gradient(self):
        _, leaf_learner = self._frozen_pair(delta=0.01)
        rng = np.random.default_rng(4)
        for _ in range(10):
            x = rng.standard_normal(3)
            a = int(rng.integers(0, 2))
            cache = _ForwardCache(leaf_learner.forest, x)
            leaf_learner._update_fairness_state(x, a, a, cache)
        grad = leaf_learner._fairness_gradient()
        np.testing.assert_array_equal(grad.leaves, 0.0)

    def test_cold_store_gives_zero_gradient(self):
        _, leaf_learner = self._frozen_pair(delta=0.01)
        grad = leaf_learner._fairness_gradient()
        np.testing.assert_array_equal(grad.weights, 0.0)

    def test_fairness_gradient_reuses_its_buffer(self):
        """Both the zero-weight path and the contrast path write into the
        learner's own fairness buffer instead of a fresh gradient."""
        for weight in (0.0, 1.0):
            learner = LeafPenaltyLearner(LearnerConfig(
                n_features=2, height=3, tree_count=2, fairness="dp",
                fairness_weight=weight, seed=4,
            ))
            for x, y, a in biased_stream(20, seed=5):
                learner.step(x, y, a)
            grad = learner._fairness_gradient()
            assert grad is learner._fair
            np.testing.assert_array_equal(grad.leaves, 0.0)
            assert (np.abs(grad.vector).max() > 0.0) == (weight > 0.0)

    def test_aggregate_decay_reaches_the_leaf_store(self):
        """A configured decay weights recent instances in the leaf store
        too, so training differs from cumulative means."""
        def run(decay):
            learner = LeafPenaltyLearner(LearnerConfig(
                n_features=2, height=3, tree_count=2, fairness="dp",
                fairness_weight=0.7, aggregate_decay=decay, seed=4,
            ))
            for x, y, a in biased_stream(300, seed=5):
                learner.step(x, y, a)
            return learner

        decayed, cumulative = run(0.95), run(None)
        assert decayed.leaf_store.decay == 0.95
        assert cumulative.leaf_store.decay is None
        assert not np.array_equal(decayed.forest.weights,
                                  cumulative.forest.weights)

    def test_supports_dp_only(self):
        with pytest.raises(ConfigurationError):
            LeafPenaltyLearner(
                LearnerConfig(n_features=2, fairness="multigroup", n_groups=3)
            )

    def test_checkpoint_unsupported(self):
        _, leaf_learner = self._frozen_pair(delta=0.01)
        with pytest.raises(ConfigurationError):
            leaf_learner.checkpoint()


def mlp_numeric_grads(learner, scalar, step=1e-6):
    """Central differences of ``scalar(learner)`` in every MLP parameter;
    ``scalar`` reads the network through its public forward pass."""
    flat = learner.params.vector
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        up = scalar(learner)
        flat[i] = orig - step
        down = scalar(learner)
        flat[i] = orig
        grad[i] = (up - down) / (2 * step)
    return grad


def mlp(hidden=64, **config):
    return OnlineMlpLearner(LearnerConfig(**config), hidden)


class TestMlp:
    """The flat network used for contrast runs."""

    def test_forward_hand_value(self):
        learner = mlp(n_features=2, hidden=2)
        learner.params.w1[:] = [[1.0, -1.0], [0.0, 1.0]]
        learner.params.b1[:] = [0.0, 0.5]
        learner.params.w2[:] = [[1.0, 0.0], [0.0, 2.0]]
        learner.params.b2[:] = [0.1, -0.1]
        out = learner.forward(np.array([1.0, 1.0]))
        # pre = [1, 0.5]; relu keeps both; out = [1 + 0.1, 2*0.5 - 0.1]
        np.testing.assert_allclose(out, [1.1, 0.9])

    def test_relu_clamps_negative_preactivations(self):
        learner = mlp(n_features=1, hidden=1)
        learner.params.w1[:] = [[-5.0]]
        learner.params.b1[:] = [0.0]
        learner.params.w2[:] = [[3.0, -3.0]]
        learner.params.b2[:] = [0.0, 0.0]
        np.testing.assert_array_equal(learner.forward(np.array([1.0])), 0.0)

    def test_first_step_follows_the_task_gradient(self):
        """One optimizer step from a fresh network moves each parameter by
        the learning rate against the sign of the finite-difference
        gradient (the first bias-corrected update has unit magnitude)."""
        learner = mlp(n_features=3, hidden=4, learning_rate=1e-3, seed=5)
        x = np.array([1.0, 1.0, 1.0])
        pre = x @ learner.params.w1 + learner.params.b1
        assert np.abs(pre).min() > 1e-3  # away from the ReLU kink
        numeric = mlp_numeric_grads(
            learner, lambda net: cross_entropy(net.forward(x), 0))
        before = learner.params.vector.copy()
        learner.step(x, 0, 0)
        moved = np.abs(numeric) > 1e-4
        np.testing.assert_allclose(
            (before - learner.params.vector)[moved],
            1e-3 * np.sign(numeric)[moved], atol=1e-6,
        )

    def test_penalty_suppresses_group_gap(self):
        def run(weight):
            learner = mlp(n_features=2, hidden=8, fairness_weight=weight,
                          seed=3)
            snap = None
            for x, y, a in biased_stream(600, seed=3):
                _, snap = learner.step(x, y, a)
            return snap

        free = run(0.0)
        constrained = run(50.0)
        assert constrained.dp_soft < 0.5 * free.dp_soft

    def test_validation(self):
        learner = mlp(n_features=2)
        with pytest.raises(ShapeError):
            learner.step(np.zeros(3), 0, 0)
        with pytest.raises(DomainError):
            learner.step(np.zeros(2), 5, 0)
        with pytest.raises(DomainError):
            learner.step(np.zeros(2), 0, 5)
        with pytest.raises(DataError):
            learner.step(np.array([np.inf, 0.0]), 0, 0)
        for hidden, config in (
            (0, {}),
            (64, {"n_features": 0}),
            (64, {"n_outputs": 1}),
            (64, {"n_groups": 3}),
            (64, {"fairness_weight": -1.0}),
            (64, {"huber_delta": 0.0}),
        ):
            with pytest.raises(ConfigurationError):
                mlp(hidden, **{"n_features": 2, **config})

    def test_supports_dp_only(self):
        for notion, groups in (("equalized_odds", 2), ("multigroup", 2),
                               ("multigroup", 3)):
            with pytest.raises(ConfigurationError):
                mlp(n_features=2, fairness=notion, n_groups=groups)

    def test_no_notion_means_no_fairness_gradient(self):
        """Under ``none`` a positive weight trains no penalty."""
        learner = mlp(n_features=2, hidden=8, fairness="none",
                      fairness_weight=50.0, seed=3)
        plain = mlp(n_features=2, hidden=8, seed=3)
        for x, y, a in biased_stream(100, seed=3):
            _, snap = learner.step(x, y, a)
            plain.step(x, y, a)
            assert snap.grad_norm_fair == 0.0
        np.testing.assert_array_equal(learner.params.vector,
                                      plain.params.vector)

    def test_predict_validates_its_input(self):
        learner = mlp(n_features=2)
        with pytest.raises(ShapeError):
            learner.predict(np.zeros(3))
        with pytest.raises(DataError):
            learner.predict(np.array([np.nan, 0.0]))

    def test_predict_is_argmax_of_forward(self):
        learner = mlp(n_features=2, seed=9)
        rng = np.random.default_rng(14)
        for _ in range(5):
            x = rng.standard_normal(2)
            assert learner.predict(x) == int(np.argmax(learner.forward(x)))

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(1, 5), hidden=st.integers(1, 8),
           c=st.integers(2, 4), n=st.integers(2, 12),
           weight=st.sampled_from([0.0, 1.0, 50.0]),
           delta=st.sampled_from([0.01, 0.1, 10.0]),
           seed=st.integers(0, 2**16))
    def test_fairness_gradient_matches_the_per_block_oracle(
            self, d, hidden, c, n, weight, delta, seed):
        """The packed store and its one contrast sum give the per-block
        store's gradient on a short two-group stream."""
        learner = mlp(hidden, n_features=d, n_outputs=c,
                      fairness_weight=weight, huber_delta=delta, seed=seed)
        oracle = MlpBlockStore(d, hidden, c)
        rng = np.random.default_rng(seed)
        groups = rng.permutation([0, 1, *rng.integers(0, 2, size=n - 2)])
        p = learner.params
        for a in groups:
            x = rng.standard_normal(d)
            oracle.fold(a, x, p.w1.copy(), p.b1.copy(), p.w2.copy(),
                        p.b2.copy())
            learner.step(x, int(rng.integers(0, c)), int(a))
        np.testing.assert_array_equal(learner.store.counts, oracle.counts)
        want = mlp_block_fairness_gradient(oracle, delta, weight)
        got = learner._fairness_gradient()
        if weight == 0.0:
            assert not got.any()
        np.testing.assert_allclose(got, want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(1, 5), hidden=st.integers(1, 8),
           c=st.integers(2, 4), seed=st.integers(0, 2**16))
    def test_stored_rows_are_output_jacobians(self, d, hidden, c, seed):
        """After one instance, row ``k`` of its group holds ``out_k`` and
        the central differences of ``forward(x)[k]`` in every parameter."""
        learner = mlp(hidden, n_features=d, n_outputs=c, seed=seed)
        rng = np.random.default_rng(seed)
        learner.params.b1[...] = rng.uniform(-0.5, 0.5, size=hidden)
        learner.params.b2[...] = rng.uniform(-0.5, 0.5, size=c)
        x = rng.standard_normal(d)
        pre = x @ learner.params.w1 + learner.params.b1
        assume(np.abs(pre).min() >= 1e-3)  # away from the ReLU kink
        before = learner.params.vector.copy()
        learner.step(x, 0, 0)
        learner.params.vector[...] = before
        rows = learner.store.means[0]  # (c, 1 + P)
        np.testing.assert_array_equal(rows[:, 0], learner.forward(x))
        for k in range(c):
            numeric = mlp_numeric_grads(
                learner, lambda net: net.forward(x)[k])
            np.testing.assert_allclose(rows[k, 1:], numeric, rtol=0,
                                       atol=1e-8, err_msg=f"output {k}")


class TestMajority:
    """Prediction mixing that leaves training untouched."""

    def _config(self, seed=1):
        return LearnerConfig(n_features=2, fairness="dp", seed=seed)

    def test_postprocess_extremes(self):
        rng = np.random.default_rng(0)
        assert all(
            majority_postprocess(1, 1.0, 0, rng) == 1 for _ in range(20)
        )
        assert all(
            majority_postprocess(1, 0.0, 0, rng) == 0 for _ in range(20)
        )

    def test_p_one_emits_the_model_prediction(self):
        plain = OnlineForestLearner(self._config())
        mixed = MajorityLearner(self._config(), MajorityConfig(p=1.0))
        for x, y, a in biased_stream(30, seed=15):
            p_plain, _ = plain.step(x, y, a)
            p_mixed, _ = mixed.step(x, y, a)
            assert p_plain == p_mixed

    def test_fixed_label_at_p_zero_flattens_the_gap(self):
        """Always emitting one label makes the hard parity gap zero."""
        mixed = MajorityLearner(
            self._config(),
            MajorityConfig(p=0.0, source="fixed", fixed_label=1),
        )
        snap = None
        for x, y, a in biased_stream(40, seed=16):
            prediction, snap = mixed.step(x, y, a)
            assert prediction == 1
        assert snap.dp_hard == 0.0

    def test_training_ignores_the_mixing(self):
        plain = OnlineForestLearner(self._config())
        mixed = MajorityLearner(self._config(), MajorityConfig(p=0.2))
        for x, y, a in biased_stream(30, seed=17):
            plain.step(x, y, a)
            mixed.step(x, y, a)
        np.testing.assert_array_equal(plain.forest.weights,
                                      mixed.forest.weights)

    def test_running_majority_tracks_label_counts(self):
        mixed = MajorityLearner(
            self._config(), MajorityConfig(p=0.0, source="running")
        )
        x = np.zeros(2)
        mixed.step(x, 1, 0)  # no majority yet on the first step
        for _ in range(5):
            prediction, _ = mixed.step(x, 1, 1)
            assert prediction == 1

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            MajorityConfig(p=1.5)
        with pytest.raises(ConfigurationError):
            MajorityConfig(source="oracle")
        with pytest.raises(ConfigurationError):
            MajorityConfig(source="fixed")

    def test_checkpoint_unsupported(self):
        mixed = MajorityLearner(self._config(), MajorityConfig())
        with pytest.raises(ConfigurationError):
            mixed.checkpoint()


class TestMakeLearner:
    """The name-to-learner factory."""

    def test_dispatch(self):
        cfg = LearnerConfig(n_features=2)
        assert type(make_learner("aranyani", cfg)) is OnlineForestLearner
        assert isinstance(make_learner("mlp", cfg), OnlineMlpLearner)
        assert isinstance(make_learner("leaf", cfg), LeafPenaltyLearner)
        assert isinstance(make_learner("reservoir", cfg), ReservoirLearner)
        assert isinstance(make_learner("majority", cfg), MajorityLearner)

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            make_learner("boosting", LearnerConfig(n_features=2))

    def test_name_list_matches_dispatch(self):
        assert set(BASELINE_NAMES) == {
            "aranyani", "mlp", "leaf", "reservoir", "majority"
        }
