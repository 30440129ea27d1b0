"""Tests for the analytic gradients: Huber penalty pieces, softmax loss,
per-instance task gradient, and aggregate-driven fairness gradient."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairforest.errors import ConfigurationError, NumericalError, ShapeError
from fairforest.forest import (
    ForestShape,
    ObliqueForest,
    _ancestor_rows,
    _path_signs,
    forward,
)
from fairforest.gradients import (
    ForestGradient,
    _ForwardCache,
    _leaf_jacobian,
    _leaf_jacobian_index,
    _task_gradient_cached,
    _vector_norm,
    cross_entropy,
    fairness_gradient,
    gradient_norm,
    softmax,
    task_gradient,
    total_gradient,
)
from fairforest.learner import LearnerConfig, OnlineForestLearner
from fairforest.stats import AggregateStore, NotionTable
from fairforest.verify import finite_difference
from oracles import (
    augment,
    dense_leaf_jacobian,
    forest_from_arrays,
    huber,
    huber_slope,
    path_form_task_gradient,
    tree_norm,
    tree_weights,
)


def numeric_task_gradient(forest, x, y, step=1e-6):
    """Central finite differences of the cross-entropy loss in every
    forest parameter, perturbing the live vector in place."""
    flat = forest.vector
    grad = ForestGradient.zeros(forest.shape)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        up = cross_entropy(forward(forest, x), y)
        flat[i] = orig - step
        down = cross_entropy(forward(forest, x), y)
        flat[i] = orig
        grad.vector[i] = (up - down) / (2 * step)
    return grad


class TestHuber:
    """The smoothed absolute-gap penalty and its derivative."""

    def test_quadratic_region(self):
        np.testing.assert_allclose(huber(0.005, 0.01), 0.5 * 0.005**2)
        np.testing.assert_allclose(huber(-0.005, 0.01), 0.5 * 0.005**2)

    def test_linear_region(self):
        np.testing.assert_allclose(huber(0.5, 0.01), 0.01 * abs(0.5 - 0.005))

    def test_branches_meet_at_the_positive_kink(self):
        """Both formulas give delta**2 / 2 at gap = delta."""
        delta = 0.07
        quad = 0.5 * delta * delta
        np.testing.assert_allclose(huber(delta, delta), quad, rtol=1e-15)
        eps = 1e-10
        np.testing.assert_allclose(huber(delta - eps, delta), quad, atol=1e-9)

    def test_value_is_continuous_at_both_kinks(self):
        """The quadratic and linear pieces meet at gap = +delta and at
        gap = -delta, where both give delta**2 / 2."""
        delta, eps = 0.01, 1e-12
        quad = 0.5 * delta * delta
        for kink in (delta, -delta):
            inside = kink - np.sign(kink) * eps
            outside = kink + np.sign(kink) * eps
            np.testing.assert_allclose(huber(inside, delta), quad, atol=1e-13)
            np.testing.assert_allclose(huber(kink, delta), quad, rtol=1e-15)
            np.testing.assert_allclose(huber(outside, delta), quad, atol=1e-13)

    def test_slope_inside_is_the_gap(self):
        assert huber_slope(0.004, 0.01) == 0.004
        assert huber_slope(-0.009, 0.01) == -0.009
        assert huber_slope(0.0, 0.01) == 0.0

    def test_slope_outside_is_capped_at_delta(self):
        assert huber_slope(5.0, 0.01) == 0.01
        assert huber_slope(-5.0, 0.01) == -0.01
        assert huber_slope(0.01, 0.01) == 0.01
        assert huber_slope(-0.01, 0.01) == -0.01

    def test_slope_matches_finite_differences(self):
        """Away from the kinks the closed-form slope is the derivative."""
        delta, step = 0.05, 1e-7
        for gap in (-0.3, -0.04, -0.001, 0.002, 0.03, 0.2):
            numeric = (huber(gap + step, delta) - huber(gap - step, delta)) / (
                2 * step
            )
            np.testing.assert_allclose(huber_slope(gap, delta), numeric,
                                       atol=1e-6)

    def test_vectorized_slope_matches_scalar(self):
        """One function serves scalars and arrays: an array of gaps gives
        the slope of each gap on its own."""
        rng = np.random.default_rng(2)
        gaps = np.concatenate([rng.uniform(-0.3, 0.3, 50), [0.0, 0.01, -0.01]])
        vec = huber_slope(gaps, 0.01)
        assert vec.shape == gaps.shape
        scalar = np.array([huber_slope(float(g), 0.01) for g in gaps])
        np.testing.assert_array_equal(vec, scalar)


class TestSoftmaxLoss:
    """Softmax and cross-entropy stability and correctness."""

    def test_softmax_matches_scipy(self):
        rng = np.random.default_rng(4)
        logits = rng.standard_normal(6)
        np.testing.assert_allclose(
            softmax(logits), scipy.special.softmax(logits), rtol=1e-12
        )

    def test_softmax_shift_invariance(self):
        logits = np.array([0.2, -1.0, 3.0])
        np.testing.assert_allclose(
            softmax(logits), softmax(logits + 1000.0), rtol=1e-12
        )

    def test_softmax_handles_extreme_logits(self):
        probs = softmax(np.array([1e4, -1e4, 0.0]))
        assert np.isfinite(probs).all()
        np.testing.assert_allclose(probs.sum(), 1.0)

    def test_cross_entropy_is_negative_log_probability(self):
        logits = np.array([0.5, -0.2, 1.3])
        for label in range(3):
            np.testing.assert_allclose(
                cross_entropy(logits, label),
                -np.log(scipy.special.softmax(logits)[label]),
                rtol=1e-12,
            )

    def test_cross_entropy_stays_finite(self):
        assert np.isfinite(cross_entropy(np.array([1e6, -1e6]), 1))


class TestNodeGrad:
    """Gate-output derivative in the gate parameters, as the step forms it:
    the slope ``n (1 - n)`` in the forward cache, times the input for the
    weights."""

    @staticmethod
    def _one_gate(bias, d):
        return forest_from_arrays(
            1, np.zeros((1, 1, d)), np.array([[bias]]),
            np.array([[[1.0, -0.5], [-0.2, 0.8]]]),
        )

    def test_hand_values(self):
        x = np.array([2.0, -1.0])
        forest = self._one_gate(scipy.special.logit(0.3), 2)
        cache = _ForwardCache(forest, x)
        np.testing.assert_allclose(cache.gates, [[0.3]], rtol=1e-14)
        np.testing.assert_allclose(cache.slope, [[0.21]], rtol=1e-14)
        grad = task_gradient(forest, x, 0)
        np.testing.assert_array_equal(tree_weights(grad.nodes)[0, 0],
                                      grad.nodes[0, 0, 0] * x)

    def test_saturated_gate_has_zero_gradient(self):
        """At pre-activation 800 the right edge underflows to 0, so the
        slope and every gate-parameter gradient are exactly 0."""
        forest = self._one_gate(800.0, 3)
        cache = _ForwardCache(forest, np.ones(3))
        assert cache.slope[0, 0] == 0.0
        grad = task_gradient(forest, np.ones(3), 1)
        np.testing.assert_array_equal(grad.nodes[1:], 0.0)
        assert grad.nodes[0, 0, 0] == 0.0


class TestTaskGradient:
    """Analytic cross-entropy gradient against finite differences."""

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        for height, d, c, t_count in ((1, 2, 2, 1), (2, 3, 2, 2), (3, 4, 3, 2)):
            forest = ObliqueForest.random(
                height, d, c, tree_count=t_count, rng=rng
            )
            x = rng.standard_normal(d)
            y = int(rng.integers(0, c))
            analytic = task_gradient(forest, x, y)
            numeric = numeric_task_gradient(forest, x, y)
            for name in ("nodes", "leaves"):
                np.testing.assert_allclose(
                    getattr(analytic, name), getattr(numeric, name),
                    rtol=1e-5, atol=1e-9,
                )

    @settings(max_examples=40, deadline=None)
    @given(
        height=st.integers(1, 8),
        trees=st.integers(1, 4),
        d=st.integers(1, 6),
        c=st.integers(2, 4),
        log_scale=st.floats(-2.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_path_form_matches_dense_reference(self, height, trees, d, c,
                                               log_scale, seed):
        """Over random shapes, with gate pre-activations up to about 1e3,
        the path-form forward pass gives leaf probabilities that sum to
        one, finite intermediates, and the task gradient of a dense
        Jacobian built from the oracle ancestor mask.  Where every |z| is
        at most 8, central differences of the loss agree too, on at most
        32 drawn coordinates, at the gradcheck tolerance."""
        rng = np.random.default_rng(seed)
        forest = ObliqueForest.random(height, d, c, tree_count=trees, rng=rng)
        scale = 10.0**log_scale
        forest.nodes[1:] *= scale * np.sqrt(d)
        forest.nodes[0] += rng.uniform(-scale, scale, size=forest.nodes[0].shape)
        x = rng.standard_normal(d)
        y = int(rng.integers(0, c))

        cache = _ForwardCache(forest, x)
        assert cache.leaf_jac.shape == (trees, height, 2**height)
        for arr in (cache.leaf_probs, cache.leaf_jac, cache.output):
            assert np.isfinite(arr).all()
        np.testing.assert_allclose(cache.leaf_probs.sum(axis=1), 1.0,
                                   rtol=0, atol=1e-12)
        grad = task_gradient(forest, x, y)
        assert np.isfinite(grad.vector).all()

        z = tree_weights(forest.nodes) @ x + forest.nodes[0]
        gates = scipy.special.expit(z)
        dense = [dense_leaf_jacobian(gates[t], scipy.special.expit(-z[t]),
                                     height) for t in range(trees)]
        probs = np.stack([p for p, _ in dense])
        np.testing.assert_allclose(cache.leaf_probs, probs, rtol=1e-12,
                                   atol=1e-300)
        output = np.einsum("tl,tlc->c", probs, forest.leaves) / trees
        residual = softmax(output)
        residual[y] -= 1.0
        sensitivity = forest.leaves @ residual / trees  # (T, L)
        dldn = np.stack([jac @ sensitivity[t]
                         for t, (_, jac) in enumerate(dense)])
        grad_b = dldn * gates * (1.0 - gates)
        np.testing.assert_allclose(grad.nodes[0], grad_b, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(tree_weights(grad.nodes),
                                   grad_b[:, :, None] * x,
                                   rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(
            grad.leaves, probs[:, :, None] * residual / trees,
            rtol=1e-12, atol=1e-300,
        )

        if np.abs(z).max() <= 8.0:
            n_params = forest.shape.n_params
            coords = rng.choice(n_params, size=min(32, n_params), replace=False)
            numeric = finite_difference(
                lambda f: cross_entropy(forward(f, x), y), forest, indices=coords
            )
            scale = max(np.abs(grad.vector).max(), 1e-12)
            error = np.abs(grad.vector[coords] - numeric.vector[coords]).max()
            assert error <= 1e-4 * scale

    @settings(max_examples=60, deadline=None)
    @given(
        height=st.integers(1, 8),
        trees=st.integers(1, 4),
        d=st.integers(1, 6),
        c=st.integers(2, 4),
        log_scale=st.floats(-2.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
        saturation=st.sampled_from([None, 40.0, 800.0]),
    )
    @example(height=4, trees=2, d=3, c=2, log_scale=-2.0, seed=1,
             saturation=40.0)
    @example(height=6, trees=3, d=2, c=3, log_scale=-1.0, seed=2,
             saturation=800.0)
    @example(height=8, trees=1, d=4, c=2, log_scale=0.0, seed=3,
             saturation=40.0)
    @example(height=8, trees=2, d=1, c=4, log_scale=-2.0, seed=4,
             saturation=800.0)
    def test_bias_identity_matches_the_path_form_gradient(
            self, height, trees, d, c, log_scale, seed, saturation):
        """Over heights 1 to 8 (gradcheck draws at most 3), with gate
        pre-activations up to about 1e3, the subtree-sum identity gives
        the bias and weight gradients of the path-form Jacobian it
        replaced (``oracles.path_form_task_gradient``) to 1e-12 of each
        block's largest entry.  With ``saturation``, half the nodes get a
        bias of that size and a random sign: at 40 their far edge is about
        4e-18, at 800 exactly 0, and the segmented sum, which never
        divides, keeps both exact."""
        rng = np.random.default_rng(seed)
        forest = ObliqueForest.random(height, d, c, tree_count=trees, rng=rng)
        scale = 10.0**log_scale
        forest.nodes[1:] *= scale * np.sqrt(d)
        forest.nodes[0] += rng.uniform(-scale, scale, size=forest.nodes[0].shape)
        if saturation is not None:
            saturated = rng.random(forest.nodes[0].shape) < 0.5
            forest.nodes[0, saturated] = saturation * rng.choice(
                [-1.0, 1.0], size=saturated.sum())
        x = rng.standard_normal(d)
        y = int(rng.integers(0, c))
        grad = task_gradient(forest, x, y)
        for got, want in zip((grad.nodes[0], tree_weights(grad.nodes)),
                             path_form_task_gradient(forest, x, y)):
            assert np.isfinite(got).all()
            bound = 1e-12 * np.abs(want).max()
            assert np.abs(got - want).max() <= bound

    def test_leaf_gradient_structure(self):
        """Each leaf row's gradient is its leaf probability times the
        softmax residual, averaged over trees."""
        rng = np.random.default_rng(12)
        forest = ObliqueForest.random(2, 3, 3, tree_count=2, rng=rng)
        x = rng.standard_normal(3)
        y = 1
        grad = task_gradient(forest, x, y)
        residual = softmax(forward(forest, x))
        residual[y] -= 1.0
        from fairforest.forest import _evaluate
        from oracles import dense_leaf_jacobian

        gates, right = _evaluate(forest, x).edges
        for t in range(2):
            probs, _ = dense_leaf_jacobian(gates[t], right[t], forest.height)
            expected = probs[:, None] * residual[None, :] / forest.tree_count
            np.testing.assert_allclose(grad.leaves[t], expected, rtol=1e-12)

    def test_segmented_sum_copies_no_index(self):
        """At h=10, T=4 the task gradient writes its padded leaf terms, the
        segmented sums and their gathered halves into the cache's
        workspace, and allocates nothing of its indices' size either: with
        a read-only index, ``np.add.reduceat`` and ``take`` would each copy
        one (16 kB here) on every call.  numpy's broadcasting ufuncs stage
        operands through a fixed buffer of ``np.getbufsize()`` values, 64
        kB each by default, which would hide a 16 kB copy in the peak, so
        the buffer is shrunk while the gradient is traced."""
        forest = ObliqueForest.random(10, 10, 2, tree_count=4, rng=0)
        x = np.ones(10)
        cache = _ForwardCache(forest, x)
        out = ForestGradient.zeros(forest.shape)
        index = min(forest.subtree_bounds.nbytes, forest.subtree_order.nbytes)
        buffer = np.setbufsize(64)
        try:
            _task_gradient_cached(forest, 1, cache, out)
            tracemalloc.start()
            try:
                _task_gradient_cached(forest, 1, cache, out)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        finally:
            np.setbufsize(buffer)
        assert peak < index / 4, (peak, index)

    def test_saturated_gate_keeps_its_slope(self):
        """At pre-activation +40 the gate slope is expit(40) * expit(-40)
        = 4.2e-18, not the 0 that n * (1 - n) cancels to, so the bias
        gradient is about 6.2e-18 rather than exactly 0."""
        forest = forest_from_arrays(
            1, np.zeros((1, 1, 2)), np.array([[40.0]]), np.eye(2)[None]
        )
        x = np.zeros(2)
        grad = task_gradient(forest, x, 1)
        residual = softmax(forward(forest, x))
        residual[1] -= 1.0
        dldn = residual[0] - residual[1]
        slope = scipy.special.expit(40.0) * scipy.special.expit(-40.0)
        np.testing.assert_allclose(grad.nodes[0, 0, 0], dldn * slope, rtol=1e-12)
        assert 6.1e-18 < grad.nodes[0, 0, 0] < 6.3e-18

    def test_height_one_hand_derivation(self):
        """Fully hand-derived gradient for a single gate and two leaves."""
        w = np.array([[0.4, -0.3]])
        b = np.array([0.1])
        leaves = np.array([[1.0, -0.5], [-0.2, 0.8]])
        forest = forest_from_arrays(
            1, w[None], b[None], leaves[None]
        )
        x = np.array([0.6, 0.2])
        z = w[0] @ x + b[0]
        g = 1.0 / (1.0 + np.exp(-z))
        out = g * leaves[0] + (1 - g) * leaves[1]
        residual = softmax(out)
        residual[0] -= 1.0
        dldg = residual @ (leaves[0] - leaves[1])
        slope = g * (1 - g)
        grad = task_gradient(forest, x, 0)
        np.testing.assert_allclose(grad.nodes[0, 0, 0], dldg * slope, rtol=1e-12)
        np.testing.assert_allclose(tree_weights(grad.nodes)[0, 0],
                                   dldg * slope * x,
                                   rtol=1e-12)
        np.testing.assert_allclose(grad.leaves[0, 0], g * residual, rtol=1e-12)
        np.testing.assert_allclose(grad.leaves[0, 1], (1 - g) * residual,
                                   rtol=1e-12)

    def test_validation(self):
        forest = ObliqueForest.random(2, 3, 2)
        with pytest.raises(ShapeError):
            task_gradient(forest, np.zeros(4), 0)
        with pytest.raises(ShapeError):
            task_gradient(forest, np.zeros(3), 2)

    @pytest.mark.parametrize("label", [1.0, True, np.float64(1), np.bool_(True)],
                             ids=["float", "bool", "numpy-float", "numpy-bool"])
    def test_label_must_be_an_integer(self, label):
        """A float label used to fail at ``residual[y]`` with a bare
        IndexError and a bool label was taken as class 1; both are the
        ShapeError an out-of-range label gets."""
        forest = ObliqueForest.random(2, 3, 2)
        with pytest.raises(ShapeError, match="integer"):
            task_gradient(forest, np.zeros(3), label)

    def test_numpy_integer_label_is_accepted(self):
        forest = ObliqueForest.random(2, 3, 2)
        x = np.linspace(-1.0, 1.0, 3)
        np.testing.assert_array_equal(task_gradient(forest, x, np.int64(1)).vector,
                                      task_gradient(forest, x, 1).vector)

    def test_non_finite_output_is_reported(self):
        forest = ObliqueForest.random(1, 2, 2)
        forest.leaves[:] = np.inf
        with pytest.raises(NumericalError):
            task_gradient(forest, np.zeros(2), 0)


class TestLeafJacobian:
    """The path-form leaf Jacobian: one gather of the other edges, then a
    multiply by the leaf probabilities and one by the path signs."""

    def test_writes_into_out_without_allocating(self):
        """Into a caller's block, as the leaf baseline stages it, the
        Jacobian allocates nothing of the edges' size: no signed copy of
        the edges is formed.  Numpy's iteration buffer, which the
        broadcast multiplies may allocate, is shrunk while it is traced."""
        forest = ObliqueForest.random(8, 3, 2, tree_count=4, rng=0)
        cache = _ForwardCache(forest, np.ones(3))
        index = _leaf_jacobian_index(8, 4)
        block = np.empty(index.shape)
        buffer = np.setbufsize(64)
        try:
            _leaf_jacobian(cache.edges, cache.leaf_probs, index, out=block)
            tracemalloc.start()
            try:
                _leaf_jacobian(cache.edges, cache.leaf_probs, index, out=block)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        finally:
            np.setbufsize(buffer)
        assert peak < cache.edges.nbytes / 4, (peak, cache.edges.nbytes)

    @settings(max_examples=60, deadline=None)
    @given(
        height=st.integers(1, 8),
        trees=st.integers(1, 4),
        log_scale=st.floats(-2.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_the_signed_product_bit_for_bit(self, height, trees,
                                                   log_scale, seed):
        """``_leaf_jacobian`` and ``leaf_jac`` give exactly the bits of
        the other edge gathered by the path columns, times ``p``, times
        the path sign (signed zeros included), with pre-activations up to
        about 1e3 so some gates saturate to exact 0 and 1."""
        rng = np.random.default_rng(seed)
        forest = ObliqueForest.random(height, 3, 2, tree_count=trees, rng=rng)
        scale = 10.0**log_scale
        forest.nodes[1:] *= scale
        forest.nodes[0] += rng.uniform(-scale, scale, size=forest.nodes[0].shape)
        cache = _ForwardCache(forest, rng.standard_normal(3))
        left, right = cache.edges
        ancestors, signs = _ancestor_rows(height), _path_signs(height)
        other = np.where(signs > 0, right[:, ancestors], left[:, ancestors])
        want = other * cache.leaf_probs[:, None] * signs
        index = _leaf_jacobian_index(height, trees)
        got = _leaf_jacobian(cache.edges, cache.leaf_probs, index)
        assert got.shape == (height, trees, 2**height)
        assert got.transpose(1, 0, 2).tobytes() == want.tobytes()
        assert cache.leaf_jac.tobytes() == want.tobytes()
        # Written into a caller's block, as the leaf baseline stages it.
        block = np.full((height, trees, 2**height), np.nan)
        assert _leaf_jacobian(cache.edges, cache.leaf_probs, index,
                              out=block) is block
        assert block.tobytes() == got.tobytes()


class TestFairnessGradient:
    """Penalty gradient assembled from the aggregate store."""

    SHAPE = ForestShape(tree_count=1, height=1, n_features=2, n_outputs=2)

    def _store_with_gap(self, notion="dp", **kwargs):
        return AggregateStore(NotionTable(notion, **kwargs), self.SHAPE)

    @staticmethod
    def _gradient(store, delta, weight, shape=SHAPE):
        """The fairness gradient written into a new, zero gradient."""
        return fairness_gradient(store, delta, weight,
                                 ForestGradient.zeros(shape))

    @staticmethod
    def _feed(store, group, task_class, n_value, slope, x):
        """Fold one instance into the single (tree, node) cell: its bias
        gradient is ``slope`` and its weight gradient ``slope * x``."""
        store.update_all(group, task_class, np.array([[n_value]]),
                         np.array([[slope]]), augment(x))

    def test_dp_hand_oracle(self):
        """One warm cell: gradient = weight * slope(gap) * mean-grad gap."""
        store = self._store_with_gap()
        self._feed(store, 0, 0, 0.9, 0.5, [0.6, 0.2])  # grad_w [0.3, 0.1]
        self._feed(store, 1, 0, 0.2, 0.2, [0.5, 0.5])  # grad_w [0.1, 0.1]
        grad = self._gradient(store, 0.01, 2.0)
        coeff = 2.0 * huber_slope(0.9 - 0.2, 0.01)
        np.testing.assert_allclose(tree_weights(grad.nodes)[0, 0],
                                   coeff * np.array([0.2, 0.0]), atol=1e-12)
        np.testing.assert_allclose(grad.nodes[0, 0, 0], coeff * 0.3, atol=1e-12)

    def test_quadratic_region_uses_raw_gap(self):
        store = self._store_with_gap()
        self._feed(store, 0, 0, 0.504, 1.0, np.zeros(2))
        self._feed(store, 1, 0, 0.5, 0.0, np.zeros(2))
        grad = self._gradient(store, 0.01, 1.0)
        np.testing.assert_allclose(grad.nodes[0, 0, 0], 0.004 * 1.0, atol=1e-12)

    def test_cold_cells_contribute_zero(self):
        store = self._store_with_gap()
        self._feed(store, 0, 0, 0.9, 1.0, np.ones(2))
        grad = self._gradient(store, 0.01, 1.0)
        np.testing.assert_array_equal(grad.nodes[1:], 0.0)
        np.testing.assert_array_equal(grad.nodes[0], 0.0)

    def test_zero_weight_short_circuits(self):
        store = self._store_with_gap()
        self._feed(store, 0, 0, 0.9, 1.0, np.ones(2))
        self._feed(store, 1, 0, 0.1, 1.0, np.ones(2))
        grad = self._gradient(store, 0.01, 0.0)
        np.testing.assert_array_equal(grad.nodes[1:], 0.0)

    def test_weight_scales_linearly(self):
        store = self._store_with_gap()
        self._feed(store, 0, 0, 0.8, 0.7, [1.0, -1.0])
        self._feed(store, 1, 0, 0.3, 0.1, [2.0, 1.0])
        g1 = self._gradient(store, 0.01, 1.0)
        g3 = self._gradient(store, 0.01, 3.0)
        np.testing.assert_allclose(g3.nodes[1:], 3.0 * g1.nodes[1:], rtol=1e-12)
        np.testing.assert_allclose(g3.nodes[0], 3.0 * g1.nodes[0], rtol=1e-12)

    def test_leaf_rows_never_carry_fairness_gradient(self):
        store = self._store_with_gap()
        self._feed(store, 0, 0, 0.8, 1.0, np.ones(2))
        self._feed(store, 1, 0, 0.1, 1.0, np.ones(2))
        grad = self._gradient(store, 0.01, 5.0)
        np.testing.assert_array_equal(grad.leaves, 0.0)

    def test_multigroup_sums_per_group_deviations(self):
        shape = self.SHAPE
        store = AggregateStore(NotionTable("multigroup", 3), shape)
        values = {0: (0.9, 1.0), 1: (0.5, 0.0), 2: (0.1, -1.0)}
        for group, (v, gb) in values.items():
            self._feed(store, group, 0, v, gb, np.zeros(2))
        grad = self._gradient(store, 10.0, 1.0)
        overall_v = np.mean([v for v, _ in values.values()])
        overall_gb = np.mean([gb for _, gb in values.values()])
        expected = sum(
            (overall_v - v) * (overall_gb - gb) for v, gb in values.values()
        )
        np.testing.assert_allclose(grad.nodes[0, 0, 0], expected, atol=1e-12)

    def test_equalized_odds_sums_per_class_gaps(self):
        shape = self.SHAPE
        store = AggregateStore(NotionTable("equalized_odds", n_classes=2), shape)
        self._feed(store, 0, 0, 0.9, 1.0, np.zeros(2))
        self._feed(store, 1, 0, 0.5, 0.5, np.zeros(2))
        self._feed(store, 0, 1, 0.2, 0.1, np.zeros(2))
        self._feed(store, 1, 1, 0.6, 0.9, np.zeros(2))
        grad = self._gradient(store, 10.0, 1.0)
        expected = (0.9 - 0.5) * (1.0 - 0.5) + (0.2 - 0.6) * (0.1 - 0.9)
        np.testing.assert_allclose(grad.nodes[0, 0, 0], expected, atol=1e-12)

    @pytest.mark.parametrize("notion, n_groups, n_classes", [
        ("dp", 2, 2), ("equalized_odds", 2, 3), ("multigroup", 4, 2),
    ], ids=["dp", "eo-C3", "multigroup-G4"])
    def test_nodes_are_the_weighted_contrast_sum_bit_for_bit(
            self, notion, n_groups, n_classes):
        """The store's contrast sum is laid out as the gradient's node
        block, so the gradient is that sum with its key slopes scaled by
        the penalty weight, bit for bit, written straight into the block:
        at weight 1 it is the unweighted sum exactly, at 0.7 that sum
        times 0.7 up to rounding.  Leaf rows are never written: zero in a
        new gradient, and left as they were in a caller's buffer."""
        shape = ForestShape(tree_count=2, height=3, n_features=4,
                            n_outputs=n_classes)
        forest = ObliqueForest.random(3, 4, n_classes, 2, rng=8)
        store = AggregateStore(NotionTable(notion, n_groups, n_classes), shape)
        rng = np.random.default_rng(8)
        for _ in range(30):
            x = rng.standard_normal(4)
            cache = _ForwardCache(forest, x)
            store.update_all(int(rng.integers(0, n_groups)),
                             int(rng.integers(0, n_classes)),
                             cache.gates, cache.slope, cache.workspace.xa)
        weights = store.contrast_weights
        sums = store.sums.reshape(weights.shape[1], 6, -1)
        gaps = np.clip(weights @ sums[:, 0], -0.05, 0.05)
        slopes = (weights.T @ gaps) * 0.7
        want = np.einsum("kc,kwc->wc", slopes, sums[:, 1:]).reshape(5, 2, 7)
        assert np.abs(want).max() > 0.0
        out = ForestGradient.zeros(shape)
        out.vector.fill(np.nan)
        grad = fairness_gradient(store, 0.05, 0.7, out)
        assert grad.nodes.shape == want.shape == (5, 2, 7)
        assert grad.nodes.tobytes() == want.tobytes()
        np.testing.assert_allclose(grad.nodes, store.contrast_sum(0.05) * 0.7,
                                   rtol=1e-12, atol=1e-14 * np.abs(want).max())
        assert np.isnan(grad.leaves).all()
        unit = self._gradient(store, 0.05, 1.0, shape)
        assert unit.nodes.tobytes() == store.contrast_sum(0.05).tobytes()
        np.testing.assert_array_equal(unit.leaves, 0.0)

    def test_shape_mismatch_is_rejected(self):
        store = self._store_with_gap()
        other = ForestShape(tree_count=2, height=1, n_features=2, n_outputs=2)
        with pytest.raises(ShapeError):
            self._gradient(store, 0.01, 1.0, other)

    def test_notion_none_has_no_gradient(self):
        """Notion "none" has no contrasts, so no store is built for it."""
        with pytest.raises(ConfigurationError):
            AggregateStore(NotionTable("none"), self.SHAPE)


class TestGradientContainers:
    """ForestGradient arithmetic and norms."""

    def test_zeros_shapes(self):
        shape = ForestShape(tree_count=2, height=3, n_features=4, n_outputs=3)
        grad = ForestGradient.zeros(shape)
        assert grad.nodes.shape == (5, 2, 7)
        assert grad.leaves.shape == (2, 8, 3)
        assert grad.node_rows.shape == (5, 14)
        assert grad.leaf_rows.shape == (16, 3)

    def test_total_gradient_adds_componentwise(self):
        shape = ForestShape(tree_count=1, height=1, n_features=2, n_outputs=2)
        a = ForestGradient.zeros(shape)
        b = ForestGradient.zeros(shape)
        a.nodes[1:] += 1.0
        b.nodes[1:] += 2.0
        b.leaves += 0.5
        total = total_gradient(a, b)
        np.testing.assert_array_equal(total.nodes[1:], 3.0)
        np.testing.assert_array_equal(total.leaves, 0.5)
        # Inputs are untouched.
        np.testing.assert_array_equal(a.nodes[1:], 1.0)

    def test_views_share_memory_with_the_vector(self):
        """Every gradient the learner keeps, and every fresh one, is a flat
        vector with the node block and the leaf rows, and both flat, as
        views into it."""
        learner = OnlineForestLearner(LearnerConfig(
            n_features=3, fairness="dp", fairness_weight=1.0, seed=5))
        rng = np.random.default_rng(5)
        for i in range(4):
            learner.step(rng.standard_normal(3), i % 2, (i // 2) % 2)
        shape = learner.forest.shape
        grads = [learner._task, learner._fair, learner._last_total,
                 ForestGradient.zeros(shape),
                 task_gradient(learner.forest, np.ones(3), 1)]
        for grad in grads:
            assert grad.vector.shape == (shape.n_params,)
            for view in (grad.nodes, grad.leaves, grad.node_rows, grad.leaf_rows):
                assert np.shares_memory(view, grad.vector)

    def test_norm_matches_per_array_sum_of_squares(self):
        rng = np.random.default_rng(31)
        for shape in (ForestShape(3, 4, 10, 2), ForestShape(4, 6, 10, 3)):
            grad = ForestGradient.zeros(shape)
            grad.vector[:] = rng.standard_normal(grad.vector.size)
            grad.vector[::7] *= 1e-9
            reference = np.sqrt(
                np.sum(grad.nodes[1:]**2) + np.sum(grad.nodes[0]**2)
                + np.sum(grad.leaves**2)
            )
            np.testing.assert_allclose(gradient_norm(grad), reference,
                                       rtol=1e-15, atol=0)

    def test_norms_hand_value(self):
        shape = ForestShape(tree_count=2, height=1, n_features=1, n_outputs=1)
        grad = ForestGradient.zeros(shape)
        grad.nodes[1, 0] = 3.0  # tree 0's weight
        grad.nodes[0, 0] = 4.0  # and its bias
        assert gradient_norm(grad) == 5.0
        assert tree_norm(grad, 0) == 5.0
        assert tree_norm(grad, 1) == 0.0

    def test_norm_up_to_a_chunk_is_one_dot_bit_for_bit(self):
        """Up to 8192 entries the norm is the one BLAS dot it always was:
        ``ndarray.dot`` reads the bits of ``@`` at every size checked, so
        every declared benchmark shape (591, 3284 and 6568 parameters)
        reports the same bits."""
        rng = np.random.default_rng(32)
        for shape in (ForestShape(3, 4, 10, 2), ForestShape(4, 6, 10, 2),
                      ForestShape(8, 6, 10, 2)):
            grad = ForestGradient.zeros(shape)
            grad.vector[:] = rng.standard_normal(grad.vector.size)
            assert gradient_norm(grad) == math.sqrt(grad.vector @ grad.vector)
        # Every size up to 80, around the BLAS kernels' unrolling widths,
        # and random sizes up to a whole chunk.
        sizes = [*range(1, 81), 8191, 8192, *rng.integers(81, 8192, 60)]
        for size in sizes:
            vector = rng.standard_normal(size) * rng.uniform(1e-3, 1e3)
            assert _vector_norm(vector) == math.sqrt(vector @ vector), size

    def test_norm_above_a_chunk_sums_chunk_dots_in_order(self):
        """Above 8192 entries the squares are the dots of consecutive
        8192-entry chunks, summed first to last.  The square root often
        rounds a last-bit change in the squares away, so many vectors
        are checked."""
        rng = np.random.default_rng(33)
        sizes = [8193, 3 * 8192, 136_696, *rng.integers(8193, 140_000, 20)]
        for size in sizes:
            vector = rng.standard_normal(size)
            squares = 0.0
            for start in range(0, size, 8192):
                chunk = vector[start:start + 8192]
                squares += chunk @ chunk
            assert _vector_norm(vector) == math.sqrt(squares)
            np.testing.assert_allclose(_vector_norm(vector),
                                       np.linalg.norm(vector), rtol=1e-14)

    def test_norm_does_not_depend_on_the_blas_thread_count(self):
        """OpenBLAS splits one dot over its threads above about 10,000
        entries; the chunked norms of 136,696 entries (h=8, T=8, d=64)
        read the same bits on one thread and on two.  The square root
        often rounds a last-bit change away, so ten vectors are read."""
        src = Path(__file__).resolve().parent.parent / "src"
        code = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "import numpy as np; "
                "from fairforest.gradients import _vector_norm; "
                "rng = np.random.default_rng(0); "
                "print([_vector_norm(rng.standard_normal(136_696)) "
                "for _ in range(10)])")
        reads = set()
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads)
            result = subprocess.run([sys.executable, "-c", code, str(src)],
                                    capture_output=True, text=True,
                                    check=True, env=env)
            reads.add(result.stdout.strip())
        assert len(reads) == 1, reads
