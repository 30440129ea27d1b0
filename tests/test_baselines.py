"""Tests for the comparison learners: exact reservoir recomputation,
leaf-level penalty, output-constrained MLP, and majority mixing."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fairforest.baselines import (
    BASELINE_NAMES,
    LeafPenaltyLearner,
    MajorityConfig,
    MajorityLearner,
    OnlineMlpLearner,
    Reservoir,
    ReservoirLearner,
    _LeafNodeSum,
    majority_postprocess,
    make_learner,
    reservoir_fairness_gradient,
)
from fairforest.errors import (
    ConfigurationError,
    DataError,
    DomainError,
    NumericalError,
    ShapeError,
)
from fairforest.forest import ObliqueForest, _evaluate
from fairforest.gradients import (
    ForestGradient,
    _ForwardCache,
    cross_entropy,
    fairness_gradient,
)
from fairforest.learner import LearnerConfig, OnlineForestLearner
from fairforest.stats import AggregateStore, NotionTable
from oracles import (
    MlpBlockStore,
    dense_leaf_jacobian,
    gate_rows,
    huber_slope,
    keyed_penalty_gradient,
    leaf_rows,
    mask_oracle,
    mlp_block_fairness_gradient,
    mlp_rows,
    reduceat_leaf_node_gradient,
    tree_weights,
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


def keyed_stream(n, seed, n_groups, n_classes, d=2):
    """Gaussian instances with uniform labels and groups."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        yield (rng.standard_normal(d), int(rng.integers(0, n_classes)),
               int(rng.integers(0, n_groups)))


# The notions beyond dp, with a class and a group count the table allows.
OTHER_NOTIONS = pytest.mark.parametrize("notion, n_groups, n_outputs", [
    ("equalized_odds", 2, 3), ("multigroup", 3, 2),
], ids=["eo-C3", "multigroup-G3"])


def keyed_config(notion, n_groups, n_outputs, **kwargs):
    return LearnerConfig(n_features=2, n_outputs=n_outputs, fairness=notion,
                         fairness_weight=0.7, huber_delta=0.05,
                         n_groups=n_groups, seed=4, **kwargs)


class TestReservoir:
    """The growing instance store and its exact gradient."""

    def test_group_features_partition(self):
        res = Reservoir(NotionTable("dp"), 2)
        res.add(np.array([1.0, 0.0]), 0, 1)
        res.add(np.array([2.0, 0.0]), 1, 0)
        res.add(np.array([3.0, 0.0]), 0, 0)
        np.testing.assert_array_equal(
            res.key_features(0)[:, 0], [1.0, 3.0]
        )
        assert res.key_features(1).shape == (1, 2)
        assert len(res) == 3

    def test_group_features_are_views_of_growing_rows(self):
        """Rows are kept per key (under dp, per group) in a buffer that
        doubles when full: ``key_features`` returns a read-only view of
        the rows added so far, in arrival order, equal to stacking them,
        and later calls share the same memory until the buffer grows."""
        rng = np.random.default_rng(2)
        res = Reservoir(NotionTable("dp"), 3)
        added = {0: [], 1: []}
        for _ in range(100):
            x = rng.standard_normal(3)
            a = int(rng.integers(0, 2))
            res.add(x, a, 0)
            added[a].append(x)
            for group in (0, 1):
                rows = res.key_features(group)
                want = np.stack(added[group]) if added[group] else np.empty((0, 3))
                np.testing.assert_array_equal(rows, want)
        assert len(res) == 100
        first, again = res.key_features(0), res.key_features(0)
        assert np.shares_memory(first, again)
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0] = 1.0

    def test_empty_group_has_zero_rows(self):
        res = Reservoir(NotionTable("dp"), 3)
        res.add(np.zeros(3), 0, 0)
        assert res.key_features(1).shape == (0, 3)

    def test_gradient_cold_until_both_groups(self):
        forest = ObliqueForest.random(2, 3, 2, rng=1)
        res = Reservoir(NotionTable("dp"), 3)
        res.add(np.ones(3), 0, 0)
        grad, cold = reservoir_fairness_gradient(
            res, forest, 0.01, 1.0
        )
        assert cold
        np.testing.assert_array_equal(grad.nodes[1:], 0.0)

    def test_zero_weight_short_circuits_warm(self):
        forest = ObliqueForest.random(2, 3, 2, rng=1)
        res = Reservoir(NotionTable("dp"), 3)
        res.add(np.ones(3), 0, 0)
        res.add(-np.ones(3), 1, 0)
        grad, cold = reservoir_fairness_gradient(
            res, forest, 0.01, 0.0
        )
        assert not cold
        np.testing.assert_array_equal(grad.nodes[1:], 0.0)

    def test_matches_aggregate_store_under_frozen_parameters(self):
        """With parameters held fixed, the running-mean store reproduces
        the exact recomputed gradient to floating-point accuracy."""
        rng = np.random.default_rng(44)
        forest = ObliqueForest.random(3, 5, 2, tree_count=2, rng=7)
        table = NotionTable("dp")
        store = AggregateStore(table, forest.shape)
        res = Reservoir(table, 5)
        for _ in range(60):
            x = rng.standard_normal(5)
            a = int(rng.integers(0, 2))
            cache = _ForwardCache(forest, x)
            store.update_all(a, a, cache.gates, cache.slope,
                             cache.workspace.xa)
            res.add(x, a, a)
        g_store = fairness_gradient(store, 0.01, 1.3,
                                    ForestGradient.zeros(forest.shape))
        g_exact, cold = reservoir_fairness_gradient(res, forest, 0.01, 1.3)
        assert not cold
        np.testing.assert_allclose(g_store.nodes[1:], g_exact.nodes[1:],
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(g_store.nodes[0], g_exact.nodes[0],
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
        np.testing.assert_array_equal(main.forest.nodes[1:],
                                      exact.forest.nodes[1:])
        np.testing.assert_array_equal(main.forest.leaves,
                                      exact.forest.leaves)

    def test_reservoir_grows_with_the_stream(self):
        learner = ReservoirLearner(self._config(weight=1.0))
        for x, y, a in biased_stream(10, seed=7):
            learner.step(x, y, a)
        assert len(learner.reservoir) == 10

    @OTHER_NOTIONS
    def test_penalty_matches_keyed_oracle(self, notion, n_groups, n_outputs):
        """The exact gradient is the Huber contrast sum of plain per-key
        means of every stored instance's gates and their Jacobian, taken
        at the current parameters."""
        learner = ReservoirLearner(keyed_config(notion, n_groups, n_outputs,
                                                height=2, tree_count=2))
        log = list(keyed_stream(40, 5, n_groups, n_outputs))
        for x, y, a in log:
            learner.step(x, y, a)
        # Each instance is stored once, under its one key.
        assert learner.reservoir.sizes.sum() == len(learner.reservoir) == len(log)
        rows = [(a, y, *gate_rows(learner.forest, x)) for x, y, a in log]
        want = keyed_penalty_gradient(rows, notion, n_groups, n_outputs,
                                      0.05, 0.7)
        np.testing.assert_allclose(learner._fairness_gradient().vector, want,
                                   rtol=1e-9, atol=1e-12)

    def test_no_penalty_never_reads_the_history(self, monkeypatch):
        """Without a penalty the fairness gradient is zero and no history
        is kept to read: neither appended to nor stacked."""
        def refuse(self, *args):
            raise AssertionError("the reservoir used without a penalty")

        monkeypatch.setattr(Reservoir, "add", refuse)
        monkeypatch.setattr(Reservoir, "key_features", refuse)
        for cfg in (self._config(weight=0.0),
                    LearnerConfig(n_features=2, fairness="none",
                                  fairness_weight=1.0, seed=5)):
            learner = ReservoirLearner(cfg)
            for x, y, a in biased_stream(50, seed=8):
                _, snap = learner.step(x, y, a)
                assert snap.grad_norm_fair == 0.0
            assert learner.reservoir is None

    @pytest.mark.parametrize("fairness, weight", [("dp", 0.0), ("none", 1.0)])
    def test_no_penalty_trains_as_the_main_learner(self, fairness, weight):
        """Without a penalty the reservoir learner keeps no rows, and its
        predictions, snapshots and parameters equal the main learner's bit
        for bit."""
        cfg = LearnerConfig(n_features=2, fairness=fairness,
                            fairness_weight=weight, seed=5)
        main, exact = OnlineForestLearner(cfg), ReservoirLearner(cfg)
        for x, y, a in biased_stream(200, seed=9):
            assert exact.step(x, y, a) == main.step(x, y, a)
        assert exact.reservoir is None
        np.testing.assert_array_equal(exact.forest.vector, main.forest.vector)

    @pytest.mark.parametrize("weight", [0.0, 1.0])
    def test_penalty_is_decided_at_construction(self, monkeypatch, weight):
        """Whether a penalty acts is read from the config once, when the
        learner is built (reading it builds a notion table), not on every
        step; steps after that match a learner that never had it patched."""
        learner, reference = (ReservoirLearner(self._config(weight))
                              for _ in range(2))
        steps = [reference.step(x, y, a) for x, y, a in biased_stream(20, seed=4)]

        def refuse(config):
            raise AssertionError("has_penalty read during a step")

        monkeypatch.setattr(LearnerConfig, "has_penalty", property(refuse))
        assert [learner.step(x, y, a)
                for x, y, a in biased_stream(20, seed=4)] == steps
        np.testing.assert_array_equal(learner.forest.vector,
                                      reference.forest.vector)

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
        np.testing.assert_allclose(g_leaf.nodes[1:], 2.0 * g_node.nodes[1:],
                                   rtol=1e-12)
        np.testing.assert_allclose(g_leaf.nodes[0], 2.0 * g_node.nodes[0],
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
                gates, right = _evaluate(forest, x).edges
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
            np.testing.assert_allclose(tree_weights(grad.nodes), want_w,
                                       rtol=1e-9, atol=1e-15,
                                       err_msg=f"height {height}")
            np.testing.assert_allclose(grad.nodes[0], want_b, rtol=1e-9,
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
        np.testing.assert_array_equal(grad.nodes[1:], 0.0)

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

    def test_no_leaf_store_without_a_penalty(self):
        """Without a penalty (``none``, or ``dp`` at weight 0) nothing
        reads the leaf store, so none is built or folded; training is what
        the store never touched: both leaf learners and the node learner
        under ``none`` end with the same forest vector bit for bit."""
        cfg = dict(n_features=2, height=3, tree_count=2, seed=4)
        bare = LeafPenaltyLearner(LearnerConfig(fairness="none", **cfg))
        assert bare.leaf_store is None
        references = [
            OnlineForestLearner(LearnerConfig(fairness="none", **cfg)),
            LeafPenaltyLearner(LearnerConfig(fairness="dp", fairness_weight=0.0,
                                             **cfg)),
        ]
        for x, y, a in biased_stream(50, seed=5):
            for learner in (bare, *references):
                learner.step(x, y, a)
        assert bare.leaf_store is None
        assert references[1].leaf_store is None
        for reference in references:
            np.testing.assert_array_equal(bare.forest.vector,
                                          reference.forest.vector)

    @OTHER_NOTIONS
    def test_penalty_matches_keyed_oracle(self, notion, n_groups, n_outputs):
        """The leaf penalty gradient is the Huber contrast sum of plain
        per-key means of each step's leaf probabilities and their
        Jacobian, both taken at that step's parameters."""
        learner = LeafPenaltyLearner(keyed_config(notion, n_groups, n_outputs,
                                                  height=2, tree_count=2))
        rows = []
        for x, y, a in keyed_stream(40, 5, n_groups, n_outputs):
            rows.append((a, y, *leaf_rows(learner.forest, x)))
            learner.step(x, y, a)
        want = keyed_penalty_gradient(rows, notion, n_groups, n_outputs,
                                      0.05, 0.7)
        np.testing.assert_allclose(learner._fairness_gradient().vector, want,
                                   rtol=1e-9, atol=1e-12)

    @given(height=st.integers(1, 10), trees=st.integers(1, 3),
           width=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_node_plan_sums_what_the_ancestor_mask_says(self, height, trees,
                                                        width, seed):
        """The per-depth matrix-vector products, taken through their
        order, give every node the sum of its depth's row over the leaves
        below it, as the dense ancestor mask says, laid out as the
        gradient's node block ``(width, T, m)``.  Integer values make
        every summation order exact, so the match is exact."""
        rng = np.random.default_rng(seed)
        leaves, nodes = 2**height, 2**height - 1
        rows = rng.integers(-2**20, 2**20, size=(width, height, trees, leaves))
        rows = rows.astype(np.float64)
        got = np.full(width * trees * nodes, np.nan)
        _LeafNodeSum(rows).into(got)
        below = (mask_oracle(height) != 0).astype(np.float64)  # (m, L)
        want = np.zeros((width, trees, nodes))
        for depth in range(height):
            level = slice(2**depth - 1, 2 ** (depth + 1) - 1)
            want[:, :, level] = rows[:, depth] @ below[level].T
        np.testing.assert_array_equal(got, want.ravel())

    @pytest.mark.parametrize("notion, n_groups, n_outputs", [
        ("dp", 2, 2), ("equalized_odds", 2, 3), ("multigroup", 3, 2),
    ], ids=["dp", "eo-C3", "multigroup-G3"])
    def test_gradient_matches_the_reduceat_form(self, notion, n_groups,
                                                n_outputs):
        """The per-depth node sum with the penalty weight riding on the
        Huber slopes gives, every step, the gradient of the segmented
        ``np.add.reduceat`` sum scaled afterwards, to 1e-13 of its
        largest entry, and leaves the leaf rows zero."""
        learner = LeafPenaltyLearner(LearnerConfig(
            n_features=4, n_outputs=n_outputs, height=6, tree_count=3,
            fairness=notion, fairness_weight=0.7, huber_delta=0.05,
            n_groups=n_groups, seed=4))
        for x, y, a in keyed_stream(60, 17, n_groups, n_outputs, d=4):
            learner.step(x, y, a)
            got = learner._fairness_gradient()
            want = reduceat_leaf_node_gradient(learner)
            scale = np.abs(want).max()
            assert np.abs(got.nodes - want).max() <= 1e-13 * scale
            np.testing.assert_array_equal(got.leaves, 0.0)
        assert scale > 0.0

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

    def test_non_finite_output_changes_nothing(self):
        """An output of inf (an infinite output weight on an active hidden
        unit) is a NumericalError before the metrics, the store, the Adam
        moments or the parameters change; it used to train on and leave
        NaN in the parameters and the store."""
        learner = mlp(n_features=3, hidden=4, fairness_weight=1.0, seed=2)
        rng = np.random.default_rng(0)
        for step in range(6):
            learner.step(rng.normal(size=3), step % 2, (step // 2) % 2)
        learner.params.w2[0, 0] = np.inf
        learner.params.b1[...] = 1.0
        arrays = (learner.params.vector, learner.store.sums,
                  learner.store.counts, learner.adam.m, learner.adam.v)
        before = [a.copy() for a in arrays]
        metrics = dict(vars(learner.metrics))
        snapshot = learner.snapshot()
        with pytest.raises(NumericalError):
            learner.step(np.zeros(3), 1, 0)
        for array, old in zip(arrays, before):
            np.testing.assert_array_equal(array, old)
        assert vars(learner.metrics) == metrics
        assert learner.adam.t == learner.step_count == 6
        assert learner.snapshot() == snapshot

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

    @OTHER_NOTIONS
    def test_penalty_matches_keyed_oracle(self, notion, n_groups, n_outputs):
        """The output penalty gradient is the Huber contrast sum of plain
        per-key means of each step's outputs and their Jacobian, both
        taken at that step's parameters."""
        learner = OnlineMlpLearner(keyed_config(notion, n_groups, n_outputs),
                                   hidden=5)
        rows = []
        for x, y, a in keyed_stream(40, 5, n_groups, n_outputs):
            p = learner.params
            rows.append((a, y, *mlp_rows(x, p.w1, p.b1, p.w2, p.b2)))
            learner.step(x, y, a)
        want = keyed_penalty_gradient(rows, notion, n_groups, n_outputs,
                                      0.05, 0.7)
        np.testing.assert_allclose(learner._fairness_gradient(), want,
                                   rtol=1e-9, atol=1e-12)

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
    # A block whose group means agree exactly: the oracle's gradient is 0.
    @example(d=1, hidden=1, c=3, n=4, weight=1.0, delta=0.01, seed=10781)
    def test_fairness_gradient_matches_the_per_block_oracle(
            self, d, hidden, c, n, weight, delta, seed):
        """The packed store and its one contrast sum give the per-block
        store's gradient on a short two-group stream.

        Where two groups' mean Jacobians agree (``b2``'s rows are 1 in
        every instance), the oracle's running means cancel to exactly 0,
        but the packed store computes ``(g / n0) * sum0 - (g / n1) *
        sum1`` from running sums, and the rounding of ``g / n`` leaves a
        residue of about one ulp of the terms that cancel (4.3e-19 at
        ``seed=10781``, where the exact value is 0).  So the absolute term
        follows the size of those terms, at most ``weight * delta`` times
        the largest key mean, not the largest wanted entry, which is 0
        there."""
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
        got = learner._fairness_gradient()
        if weight == 0.0:
            assert learner.store is None
            assert not got.any()
            return
        np.testing.assert_array_equal(learner.store.counts, oracle.counts)
        want = mlp_block_fairness_gradient(oracle, delta, weight)
        cancelling = weight * delta * max(np.abs(b).max() for b in oracle.blocks)
        np.testing.assert_allclose(
            got, want, rtol=1e-12,
            atol=1e-12 * max(np.abs(want).max(), cancelling))

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(1, 5), hidden=st.integers(1, 8),
           c=st.integers(2, 4), seed=st.integers(0, 2**16))
    def test_stored_rows_are_output_jacobians(self, d, hidden, c, seed):
        """After one instance, row 0 of its group holds the outputs and
        column ``k`` of the other rows the central differences of
        ``forward(x)[k]`` in every parameter."""
        learner = mlp(hidden, n_features=d, n_outputs=c, fairness_weight=1.0,
                      seed=seed)
        rng = np.random.default_rng(seed)
        learner.params.b1[...] = rng.uniform(-0.5, 0.5, size=hidden)
        learner.params.b2[...] = rng.uniform(-0.5, 0.5, size=c)
        x = rng.standard_normal(d)
        pre = x @ learner.params.w1 + learner.params.b1
        assume(np.abs(pre).min() >= 1e-3)  # away from the ReLU kink
        before = learner.params.vector.copy()
        learner.step(x, 0, 0)
        learner.params.vector[...] = before
        rows = learner.store.sums[0]  # (1 + P, c): one instance, its own rows
        np.testing.assert_array_equal(rows[0], learner.forward(x))
        for k in range(c):
            numeric = mlp_numeric_grads(
                learner, lambda net: net.forward(x)[k])
            np.testing.assert_allclose(rows[1:, k], numeric, rtol=0,
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
            MajorityConfig(p=0.0, fixed_label=1),
        )
        snap = None
        for x, y, a in biased_stream(40, seed=16):
            prediction, snap = mixed.step(x, y, a)
            assert prediction == 1
        assert snap.dp_hard == 0.0

    def test_fixed_label_must_be_a_class(self):
        """A fixed majority label outside ``[0, n_outputs)`` is refused at
        construction: it was emitted as a prediction, so every step
        returned a class the learner does not have."""
        for label in (5, 2, -1):
            with pytest.raises(ConfigurationError):
                MajorityLearner(self._config(), MajorityConfig(
                    p=0.0, fixed_label=label))
        for label in (0, 1):
            MajorityLearner(self._config(), MajorityConfig(
                p=0.0, fixed_label=label))

    def test_training_ignores_the_mixing(self):
        plain = OnlineForestLearner(self._config())
        mixed = MajorityLearner(self._config(), MajorityConfig(p=0.2))
        for x, y, a in biased_stream(30, seed=17):
            plain.step(x, y, a)
            mixed.step(x, y, a)
        np.testing.assert_array_equal(plain.forest.nodes[1:],
                                      mixed.forest.nodes[1:])

    def test_running_majority_tracks_label_counts(self):
        mixed = MajorityLearner(
            self._config(), MajorityConfig(p=0.0)
        )
        x = np.zeros(2)
        mixed.step(x, 1, 0)  # no majority yet on the first step
        for _ in range(5):
            prediction, _ = mixed.step(x, 1, 1)
            assert prediction == 1

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            MajorityConfig(p=1.5)

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

    @settings(max_examples=30, deadline=None)
    @given(height=st.integers(1, 8), trees=st.integers(1, 5),
           d=st.integers(1, 12), n=st.integers(1, 9),
           seed=st.integers(0, 2**32 - 1))
    def test_predict_is_the_step_prediction(self, height, trees, d, n, seed):
        """Before each step, ``predict`` returns the prediction that the
        step itself makes, for every forest learner that predicts with
        the forest."""
        config = LearnerConfig(n_features=d, height=height, tree_count=trees,
                               fairness="dp", fairness_weight=1.0,
                               seed=seed)
        rng = np.random.default_rng(seed)
        stream = [(rng.standard_normal(d), int(rng.integers(0, 2)),
                   int(rng.integers(0, 2))) for _ in range(n)]
        for name in ("aranyani", "leaf", "reservoir"):
            learner = make_learner(name, config)
            for x, y, a in stream:
                expected = learner.predict(x)
                assert learner.step(x, y, a)[0] == expected


class TestNoPenalty:
    """A penalty acts only under a notion at a positive weight; without
    one, no learner keeps a store."""

    @pytest.mark.parametrize("name", ["aranyani", "leaf", "mlp"])
    def test_zero_weight_keeps_no_store_and_steps_like_none(self, name):
        """At weight 0 under ``dp`` the forest, leaf and MLP learners build
        no store and step bit for bit as under ``none``."""
        cfg = dict(n_features=2, height=3, tree_count=2, seed=6)
        runs = [make_learner(name, LearnerConfig(fairness=fairness,
                                                 fairness_weight=0.0, **cfg))
                for fairness in ("dp", "none")]
        for learner in runs:
            assert learner.config.has_penalty is False
            assert getattr(learner, "leaf_store", None) is None
            assert learner.store is None
        for x, y, a in biased_stream(40, seed=7):
            assert runs[0].step(x, y, a) == runs[1].step(x, y, a)
        vectors = [learner.params.vector if name == "mlp"
                   else learner.forest.vector for learner in runs]
        np.testing.assert_array_equal(vectors[0], vectors[1])

    def test_positive_weight_keeps_a_store(self):
        cfg = LearnerConfig(n_features=2, fairness="dp", fairness_weight=0.5)
        assert cfg.has_penalty
        assert make_learner("aranyani", cfg).store is not None
        assert make_learner("leaf", cfg).leaf_store is not None
        assert make_learner("mlp", cfg).store is not None

    def test_leaf_and_reservoir_build_no_gate_store(self, monkeypatch):
        """The leaf and reservoir penalties read their own state, so
        neither learner builds the forest's ``AggregateStore``, even with
        a penalty acting."""
        def refuse(*args, **kwargs):
            raise AssertionError("an AggregateStore was built")

        monkeypatch.setattr(AggregateStore, "__init__", refuse)
        cfg = LearnerConfig(n_features=10, height=6, tree_count=8,
                            fairness="dp", fairness_weight=1.0)
        for name in ("leaf", "reservoir"):
            learner = make_learner(name, cfg)
            assert learner.store is None
            x, y, a = next(biased_stream(1, seed=9, d=10))
            learner.step(x, y, a)
