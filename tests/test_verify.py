"""Tests for the independent checking tools: finite differences, the
gradient checker, input rescaling, and the theoretical-bound audits."""

import tracemalloc

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from fairforest.errors import ConfigurationError, DomainError, ShapeError
from fairforest.forest import ObliqueForest
from fairforest.gradients import ForestGradient
from fairforest.learner import LearnerConfig, OnlineForestLearner
from fairforest.stats import RunningMeans
from fairforest.verify import (
    TraceStep,
    audit_estimation_error,
    check_dp_bound,
    finite_difference,
    gradcheck,
    max_relative_error,
    rescale_inputs,
)


class TestFiniteDifference:
    """The brute-force gradient against hand-differentiable losses."""

    def test_linear_loss_gives_constant_gradient(self):
        forest = ObliqueForest.random(2, 3, 2, rng=1)
        grad = finite_difference(lambda f: float(f.nodes[1:].sum()), forest)
        np.testing.assert_allclose(grad.nodes[1:], 1.0, atol=1e-9)
        np.testing.assert_allclose(grad.nodes[0], 0.0, atol=1e-9)
        np.testing.assert_allclose(grad.leaves, 0.0, atol=1e-9)

    def test_quadratic_loss_recovers_the_parameters(self):
        forest = ObliqueForest.random(2, 3, 2, rng=2)
        grad = finite_difference(
            lambda f: float(0.5 * (f.leaves**2).sum()), forest
        )
        np.testing.assert_allclose(grad.leaves, forest.leaves, atol=1e-8)

    def test_leaves_the_forest_untouched(self):
        forest = ObliqueForest.random(2, 3, 2, rng=3)
        before = forest.nodes[1:].copy()
        finite_difference(lambda f: float(f.nodes[1:].sum()), forest)
        np.testing.assert_array_equal(forest.nodes[1:], before)

    def test_step_validation(self):
        forest = ObliqueForest.random(1, 2, 2)
        with pytest.raises(ConfigurationError):
            finite_difference(lambda f: 0.0, forest, step=0.0)


class TestMaxRelativeError:
    """The deviation metric used by the gradient checker."""

    def _pair(self, shape=(1, 1, 2)):
        from fairforest.forest import ForestShape

        fs = ForestShape(tree_count=1, height=1, n_features=2, n_outputs=2)
        return ForestGradient.zeros(fs), ForestGradient.zeros(fs)

    def test_hand_value(self):
        candidate, reference = self._pair()
        reference.nodes[1, 0, 0] = 2.0
        candidate.nodes[1, 0, 0] = 2.1
        np.testing.assert_allclose(
            max_relative_error(candidate, reference), 0.1 / 2.0
        )

    def test_identical_gradients_have_zero_error(self):
        candidate, reference = self._pair()
        reference.nodes[0, 0, 0] = 1.5
        candidate.nodes[0, 0, 0] = 1.5
        assert max_relative_error(candidate, reference) == 0.0

    def test_zero_reference_uses_floor_scale(self):
        candidate, reference = self._pair()
        candidate.nodes[1, 0, 0] = 1e-6
        np.testing.assert_allclose(
            max_relative_error(candidate, reference), 1e-6 / 1e-12
        )


class TestGradcheck:
    """The self-contained analytic-vs-numeric battery."""

    def test_passes_on_correct_gradients(self):
        report = gradcheck(seed=0, trials=10)
        assert report["passed"]
        assert report["max_relative_error"] < 1e-6
        assert not report["corrupted"]

    def test_catches_a_corrupted_gradient(self):
        report = gradcheck(seed=0, trials=3, corrupt=True)
        assert not report["passed"]
        assert report["corrupted"]

    def test_deterministic_in_the_seed(self):
        a = gradcheck(seed=5, trials=5)
        b = gradcheck(seed=5, trials=5)
        assert a == b

    def test_trials_validation(self):
        with pytest.raises(ConfigurationError):
            gradcheck(trials=0)


class TestRescaleInputs:
    """Scaling a feature matrix into a norm ball."""

    def test_max_row_norm_becomes_the_bound(self):
        features = np.array([[3.0, 0.0], [0.0, 4.0], [1.0, 1.0]])
        scaled = rescale_inputs(features)
        norms = np.linalg.norm(scaled, axis=1)
        np.testing.assert_allclose(norms.max(), 1.0)
        # Direction and relative magnitude survive.
        np.testing.assert_allclose(scaled, features / 4.0)

    def test_custom_bound(self):
        features = np.array([[0.0, 2.0]])
        scaled = rescale_inputs(features, bound=0.5)
        np.testing.assert_allclose(np.linalg.norm(scaled, axis=1), [0.5])

    def test_zero_matrix_passes_through(self):
        features = np.zeros((3, 2))
        scaled = rescale_inputs(features)
        np.testing.assert_array_equal(scaled, 0.0)
        assert scaled is not features

    def test_returns_a_copy(self):
        features = np.ones((2, 2))
        scaled = rescale_inputs(features)
        scaled[0, 0] = 99.0
        assert features[0, 0] == 1.0


class TestCheckDpBound:
    """The routing bound on the soft-output parity gap."""

    def test_holds_on_random_forests(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            h = int(rng.integers(1, 4))
            d = int(rng.integers(2, 5))
            forest = ObliqueForest.random(
                h, d, 2, tree_count=int(rng.integers(1, 4)),
                rng=int(rng.integers(0, 2**31)),
            )
            n_per = int(rng.integers(4, 12))
            features = rng.standard_normal((2 * n_per, d))
            groups = np.repeat([0, 1], n_per)
            report = check_dp_bound(forest, features, groups)
            assert report.passed
            assert report.theoretical > 0.0
            assert report.slack == report.theoretical - report.observed

    def test_identical_groups_have_zero_gap(self):
        rng = np.random.default_rng(34)
        forest = ObliqueForest.random(2, 3, 2, rng=8)
        block = rng.standard_normal((5, 3))
        features = np.vstack([block, block])
        groups = np.repeat([0, 1], 5)
        report = check_dp_bound(forest, features, groups)
        assert report.observed == 0.0
        assert report.passed

    def test_leaf_normalization_happens_on_a_copy(self):
        rng = np.random.default_rng(35)
        forest = ObliqueForest.random(2, 3, 2, rng=9)
        forest.leaves *= 1000.0
        before = forest.leaves.copy()
        features = rng.standard_normal((8, 3))
        report = check_dp_bound(forest, features, np.repeat([0, 1], 4))
        assert report.passed
        np.testing.assert_array_equal(forest.leaves, before)

    def test_group_requirements(self):
        forest = ObliqueForest.random(1, 2, 2)
        features = np.zeros((4, 2))
        with pytest.raises(DomainError, match="equal group counts"):
            check_dp_bound(forest, features, np.array([0, 0, 0, 1]))
        with pytest.raises(DomainError, match="both groups"):
            check_dp_bound(forest, features, np.zeros(4, dtype=int))
        with pytest.raises(ShapeError):
            check_dp_bound(forest, features, np.zeros(3, dtype=int))
        # A third group used to be dropped, leaving 2 of the 3 pairs.
        with pytest.raises(DomainError, match="0 or 1"):
            check_dp_bound(forest, np.zeros((6, 2)), np.array([0, 1, 2, 2, 0, 1]))
        with pytest.raises(ShapeError):
            check_dp_bound(forest, np.zeros((4, 3)), np.array([0, 0, 1, 1]))

    def test_pair_cap(self):
        forest = ObliqueForest.random(1, 2, 2)
        n_per = 1001
        features = np.zeros((2 * n_per, 2))
        groups = np.repeat([0, 1], n_per)
        with pytest.raises(DomainError, match="pairs"):
            check_dp_bound(forest, features, groups)


    def test_bound_memory_stays_bounded(self):
        """300 + 300 rows at h=4, T=3 are 9e4 pairs of 45 gates: one
        array of every gate difference peaked at 65 MB.  Summed in chunks
        of group-0 rows, the traced peak stays under 16 MB, and the
        result equals the mean of that one array to 1e-13 relative."""
        rng = np.random.default_rng(36)
        forest = ObliqueForest.random(4, 4, 2, tree_count=3, rng=10)
        features = rng.uniform(-1.5, 1.5, size=(600, 4))
        groups = np.repeat([0, 1], 300)
        tracemalloc.start()
        try:
            report = check_dp_bound(forest, features, groups)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"
        capped = forest.copy()
        capped.leaves /= np.linalg.norm(capped.leaves, axis=2, keepdims=True)
        gates = [scipy.special.expit(np.einsum("dtm,nd->ntm", capped.nodes[1:],
                                               features[groups == g])
                                     + capped.nodes[0]) for g in (0, 1)]
        eps = np.abs(gates[0][:, None] - gates[1][None]).mean(axis=(0, 1)).max()
        np.testing.assert_allclose(report.theoretical, 4 * 2**4 * eps,
                                   rtol=1e-13)
        assert report.passed


class TestAuditEstimationError:
    """Replay audits of the aggregate gradient estimate."""

    def test_empty_trace(self):
        assert audit_estimation_error([], delta=0.01) == []

    def test_delta_validation(self):
        forest = ObliqueForest.random(1, 2, 2)
        trace = [TraceStep(forest, np.zeros(2), 0, 0)]
        for delta in (0.0, -0.01, np.nan, np.inf):
            with pytest.raises(ConfigurationError):
                audit_estimation_error(trace, delta=delta)

    @staticmethod
    def _frozen_trace(height, trees, d, steps, seed, n_groups=2, n_classes=2):
        """``steps`` instances under one fixed forest: one of every group
        with label 0, so every notion has a warm contrast, and random
        others."""
        rng = np.random.default_rng(seed)
        forest = ObliqueForest.random(height, d, n_classes, trees, rng=rng)
        labelled = [(a, 0) for a in range(n_groups)] + [
            (int(rng.integers(0, n_groups)), int(rng.integers(0, n_classes)))
            for _ in range(steps - n_groups)]
        return [TraceStep(forest, rng.standard_normal(d), labelled[i][1],
                          labelled[i][0])
                for i in rng.permutation(steps)]

    @settings(max_examples=40, deadline=None)
    @given(height=st.integers(1, 4), trees=st.integers(1, 3),
           d=st.integers(1, 4), steps=st.integers(4, 40),
           seed=st.integers(0, 2**16),
           notion=st.sampled_from([("dp", 2, 2), ("equalized_odds", 2, 3),
                                   ("multigroup", 4, 2)]))
    def test_frozen_parameters_have_no_estimation_error(
            self, height, trees, d, steps, seed, notion):
        """When the parameters never move, the running means equal the
        exact batch recomputation under every notion, so the observed
        error is numerical noise only."""
        name, n_groups, n_classes = notion
        trace = self._frozen_trace(height, trees, d, steps, seed, n_groups,
                                   n_classes)
        reports = audit_estimation_error(trace, 0.01, name, n_groups)
        assert reports
        assert max(r.observed for r in reports) < 1e-12
        assert all(r.passed for r in reports)

    def test_audits_the_production_store(self, monkeypatch):
        """The audit reads the store the learner trains with: a contrast
        sum that is off by a factor of two shows as estimation error on
        a trace that has none."""
        original = RunningMeans.contrast_sum
        monkeypatch.setattr(RunningMeans, "contrast_sum",
                            lambda store, delta: 2.0 * original(store, delta))
        trace = self._frozen_trace(2, 3, 3, 30, seed=40)
        reports = audit_estimation_error(trace, delta=0.01)
        assert max(r.observed for r in reports) > 1e-6

    def test_drifting_run_stays_within_the_bound(self):
        """A live learner with unit-ball inputs keeps the per-node gradient
        estimation error under n_contrasts * delta * B / 2, under every
        notion (the multigroup run spreads the stream over three groups,
        so three contrasts; equalized odds has one per class, two)."""
        from fairforest.data import SyntheticConfig, generate_synthetic

        stream = list(generate_synthetic(
            SyntheticConfig(n=80, bias=0.6, noise=0.1, seed=5)
        ))
        features = rescale_inputs(np.stack([x for x, _, _ in stream]))
        for notion, n_groups, n_contrasts in (("dp", 2, 1),
                                              ("equalized_odds", 2, 2),
                                              ("multigroup", 3, 3)):
            learner = OnlineForestLearner(LearnerConfig(
                n_features=10, fairness=notion, fairness_weight=1.0,
                n_groups=n_groups, seed=0))
            trace = []
            for i, (row, (_, y, a)) in enumerate(zip(features, stream)):
                a = (a + i) % n_groups
                trace.append(TraceStep(learner.forest.copy(), row.copy(), y, a))
                learner.step(row, y, a)
            reports = audit_estimation_error(trace, 0.01, notion, n_groups)
            assert reports
            np.testing.assert_allclose(reports[0].theoretical,
                                       0.005 * n_contrasts)
            assert all(r.passed for r in reports), notion

    @pytest.mark.parametrize("notion, n_groups, n_classes, n_contrasts", [
        ("dp", 2, 2, 1), ("equalized_odds", 2, 3, 3), ("multigroup", 4, 2, 4),
    ])
    def test_bound_sums_one_term_per_contrast(self, notion, n_groups,
                                              n_classes, n_contrasts):
        """The contrast sum adds one Huber term per contrast, each within
        delta * B / 2, so the stated bound is their sum: one term under
        ``dp``, one per class under ``equalized_odds`` and one per group
        under ``multigroup``, with B the largest instance norm."""
        trace = self._frozen_trace(2, 2, 3, 20, seed=42, n_groups=n_groups,
                                   n_classes=n_classes)
        norm = max(np.linalg.norm(step.x) for step in trace)
        reports = audit_estimation_error(trace, 0.01, notion, n_groups)
        assert reports
        for report in reports:
            np.testing.assert_allclose(report.theoretical,
                                       n_contrasts * 0.01 * norm / 2,
                                       rtol=1e-15)

    def test_report_serialization(self):
        forest = ObliqueForest.random(1, 2, 2, rng=11)
        rng = np.random.default_rng(41)
        trace = [
            TraceStep(forest, rng.standard_normal(2), 0, i % 2) for i in range(4)
        ]
        report = audit_estimation_error(trace, delta=0.01)[0]
        data = report.to_dict()
        assert set(data) == {"name", "theoretical", "observed", "slack",
                             "passed"}
        assert data["slack"] == data["theoretical"] - data["observed"]
