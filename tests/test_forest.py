"""Tests for the soft-routed tree structure: the path-form routing
structure derived from leaf bits, leaf probabilities and their
derivatives, forward evaluation, prediction."""

import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from fairforest.errors import ConfigurationError, ShapeError
from fairforest.forest import (
    ForestShape,
    ObliqueForest,
    _ancestor_rows,
    _evaluate,
    _node_edges,
    _path_edges,
    _path_signs,
    _subtree_order,
    forward,
    forward_batch,
    predict,
)
from fairforest.gradients import (
    ForestGradient,
    _ForwardCache,
    _sum_below,
    _Workspace,
    task_gradient,
)
from oracles import (
    dense_leaf_jacobian,
    forest_from_arrays,
    climbed_subtree_sums,
    mask_oracle,
    tree_weights,
)


def mask_from_paths(height):
    """The dense ancestor mask scattered from the package's path form:
    each leaf's signs placed at its ancestor rows."""
    entries = np.zeros((2**height - 1, 2**height), dtype=np.int8)
    entries[_ancestor_rows(height), np.arange(2**height)] = _path_signs(height)
    return entries


X0 = np.zeros(1)


def gate_forest(outputs):
    """A one-tree forest over one feature whose gates at ``X0`` are
    ``outputs``: zero weights and biases ``logit(n)``, so a gate of 0 or
    1 is a bias of -inf or +inf."""
    outputs = np.asarray(outputs, dtype=np.float64)
    forest = ObliqueForest(ForestShape(1, outputs.size.bit_length(), 1, 1))
    forest.nodes[0, 0] = scipy.special.logit(outputs)
    return forest


def route(forest, x):
    """Leaf probabilities of every tree at ``x``, ``(..., d)`` ->
    ``(..., T, 2**h)``: the edges and the routing core of every
    evaluation."""
    return _evaluate(forest, x).leaf_probs


def leaf_probabilities(outputs):
    """One tree's leaf probabilities at the given gate outputs."""
    return route(gate_forest(outputs), X0)[0]


def bias_jacobian(forest):
    """Leaf probabilities and the dense (m, 2**h) Jacobian in the node
    biases of a one-tree forest at ``X0``, scattered from the path-form
    ``_ForwardCache.leaf_jac``, and the tree's left and right edges."""
    height = forest.height
    cache = _ForwardCache(forest, X0)
    jac = np.zeros((forest.shape.n_nodes, 2**height))
    jac[_ancestor_rows(height), np.arange(2**height)] = cache.leaf_jac[0]
    return cache.leaf_probs[0], jac, cache.edges[:, 0]


def leaf_jacobian(outputs):
    """``bias_jacobian`` of the one-tree forest whose gates are
    ``outputs``."""
    return bias_jacobian(gate_forest(outputs))


def tree_outputs(forest, x):
    """Each tree's leaf-probability-weighted mix of its leaf rows, (T, c)."""
    return np.einsum("tl,tlc->tc", route(forest, x), forest.leaves)


class TestBuildMask:
    """The routing structure read off the leaf bits (ancestor rows and
    path signs) against the dense ancestor mask it replaces."""

    def test_height_two_exact(self):
        """At height 2 the path form is known, and scattered it gives the
        known 3x4 mask."""
        np.testing.assert_array_equal(_ancestor_rows(2), [[0, 0, 0, 0],
                                                          [1, 1, 2, 2]])
        np.testing.assert_array_equal(_path_signs(2), [[1, 1, -1, -1],
                                                       [1, -1, 1, -1]])
        np.testing.assert_array_equal(_path_edges(2, 1), [[[0, 0, 3, 3],
                                                           [1, 4, 2, 5]]])
        expected = np.array([
            [1, 1, -1, -1],
            [1, -1, 0, 0],
            [0, 0, 1, -1],
        ])
        np.testing.assert_array_equal(mask_from_paths(2), expected)

    def test_height_one_exact(self):
        np.testing.assert_array_equal(mask_from_paths(1), [[1, -1]])

    def test_matches_parent_pointer_oracle(self):
        """Heights 1 through 8 agree with the leaf-climbing construction,
        and each path factor's position in a ``(2, T, m)`` edge array is
        its ancestor's left edge (``t * m + node``) or right edge (``(T +
        t) * m + node``) by sign."""
        for h in range(1, 9):
            np.testing.assert_array_equal(
                mask_from_paths(h), mask_oracle(h), err_msg=f"height {h}",
            )
            right = _path_signs(h) < 0
            for trees in (1, 3):
                edges = np.arange(2 * trees * (2**h - 1)).reshape(2, trees, -1)
                want = np.stack([np.where(right, edges[1, t][_ancestor_rows(h)],
                                          edges[0, t][_ancestor_rows(h)])
                                 for t in range(trees)])
                np.testing.assert_array_equal(_path_edges(h, trees), want)

    def test_each_leaf_has_height_many_ancestors(self):
        """Each leaf has one distinct ancestor per depth, on that depth."""
        for h in range(1, 9):
            nonzero = np.count_nonzero(mask_from_paths(h), axis=0)
            np.testing.assert_array_equal(nonzero, h)
            depth = np.arange(h)[:, None]
            rows = _ancestor_rows(h)
            assert ((rows >= 2**depth - 1) & (rows < 2 ** (depth + 1) - 1)).all()

    def test_entries_are_read_only(self):
        """The cached path arrays are shared, so none of them is writable."""
        for array in (_ancestor_rows(3), _path_signs(3), _path_edges(3, 2)[0]):
            with pytest.raises(ValueError):
                array[0, 0] = 0
        with pytest.raises(ValueError):
            _subtree_order(3, 2).flat[0] = 0

    def test_forest_indices_are_writable_and_shared_by_copies(self):
        """``take`` copies a read-only index on every call, so each forest
        holds writable copies of the cached indices, which its copies
        share."""
        forest = ObliqueForest.random(3, 2, 2)
        clone = forest.copy()
        for name, cached in (("path_index", _path_edges(3, 3)),
                             ("subtree_order", _subtree_order(3, 3))):
            index = getattr(forest, name)
            assert index.flags.writeable, name
            np.testing.assert_array_equal(index, cached)
            assert getattr(clone, name) is index, name

    def test_subtree_order_height_two_exact(self):
        """At height 2 the sums below the non-root nodes run depth by
        depth: nodes 1 and 2 at 0 and 1, then the leaves, nodes 3 to 6, at
        2 to 5.  The order takes the sums below the right children (nodes
        2, 4 and 6), then the left (nodes 1, 3 and 5).  With a second tree
        each depth holds both trees' sums in turn: depth 1 at 0 to 3,
        the leaves at 4 to 11, the second tree's after the first's."""
        np.testing.assert_array_equal(_subtree_order(2, 1),
                                      [[[1, 3, 5]], [[0, 2, 4]]])
        np.testing.assert_array_equal(
            _subtree_order(2, 2),
            [[[1, 5, 7], [3, 9, 11]], [[0, 4, 6], [2, 8, 10]]])

    @settings(max_examples=40, deadline=None)
    @given(height=st.integers(1, 12), trees=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1))
    def test_per_depth_sums_select_each_childs_leaves(self, height, trees,
                                                      seed):
        """The per-depth products and the gather give, per node, exactly
        the sum over the leaves that climbing parent pointers puts in its
        right subtree, then in its left subtree
        (``oracles.climbed_subtree_sums``).  Integer leaf values make
        every sum exact in any order, so any leaf taken or missed
        shows."""
        forest = ObliqueForest(ForestShape(trees, height, 1, 1))
        ws = _Workspace(forest.shape)
        rng = np.random.default_rng(seed)
        terms = rng.integers(-2**20, 2**20, size=(trees, 2**height))
        ws.leaf_terms[:] = terms.ravel()
        below = _sum_below(ws, forest.subtree_order)
        assert below is ws.below
        np.testing.assert_array_equal(below,
                                      climbed_subtree_sums(terms, height))

    def test_rejects_out_of_range_heights(self):
        for bad in (0, -1, 17, 2.5, "3", True):
            with pytest.raises(ConfigurationError):
                ObliqueForest(ForestShape(1, bad, 2, 2))
            with pytest.raises(ConfigurationError):
                ObliqueForest.random(bad, 2, 2)

    def test_shape_properties(self):
        shape = ForestShape(3, 4, 2, 2)
        assert shape.n_nodes == 15
        assert shape.n_leaves == 16
        for array in (_ancestor_rows(4), _path_signs(4), _path_edges(4, 1)[0]):
            assert array.shape == (4, 16)
        assert _path_signs(4).dtype == np.float64


class TestLeafProbabilities:
    """Path products over the gate outputs, routed from biases that set
    each gate."""

    def test_height_one_hand_values(self):
        probs = leaf_probabilities(np.array([0.3]))
        np.testing.assert_allclose(probs, [0.3, 0.7], rtol=0, atol=1e-15)

    def test_height_two_hand_values(self):
        """Each leaf probability is the product of its two path factors."""
        n1, n2, n3 = 0.8, 0.25, 0.6
        probs = leaf_probabilities(np.array([n1, n2, n3]))
        expected = [n1 * n2, n1 * (1 - n2), (1 - n1) * n3, (1 - n1) * (1 - n3)]
        np.testing.assert_allclose(probs, expected, rtol=0, atol=1e-15)

    def test_sums_to_one(self):
        """Leaf probabilities form a distribution at every height."""
        rng = np.random.default_rng(11)
        for h in range(1, 7):
            for _ in range(30):
                outputs = rng.uniform(0.0, 1.0, size=2**h - 1)
                probs = leaf_probabilities(outputs)
                assert abs(probs.sum() - 1.0) <= 1e-9
                assert probs.min() >= 0.0
                assert probs.max() <= 1.0

    def test_hard_gates_route_to_one_leaf(self):
        """With every gate saturated at 0 or 1, exactly one leaf gets mass."""
        outputs = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
        probs = leaf_probabilities(outputs)
        assert probs.sum() == 1.0
        assert np.count_nonzero(probs) == 1
        # Root goes left, node 1 goes right, node 4 goes left: leaf 2.
        assert probs[2] == 1.0

    def test_deep_saturated_paths_stay_finite(self):
        """Tiny routing factors multiplied along eight levels leave no
        underflow artifacts: the result is finite, non-negative, and sums
        to one."""
        outputs = np.full(2**8 - 1, 1e-14)
        probs = leaf_probabilities(outputs)
        assert np.isfinite(probs).all()
        assert probs.min() >= 0.0
        np.testing.assert_allclose(probs.sum(), 1.0, rtol=1e-9)


class TestLeafProbabilityGradients:
    """The path-form derivatives of leaf probabilities in the node biases
    (``_ForwardCache.leaf_jac``: ``+-p_l`` times the other edge), scattered
    to the dense Jacobian."""

    def test_height_one_jacobian(self):
        """At n = 0.4 both leaves move by n (1 - n) = 0.24, in opposite
        directions."""
        probs, jac, _ = leaf_jacobian(np.array([0.4]))
        np.testing.assert_allclose(probs, [0.4, 0.6])
        np.testing.assert_allclose(jac, [[0.24, -0.24]], rtol=1e-14)

    def test_probs_match_direct_computation(self):
        """The core's probabilities equal the path products, and the bias
        Jacobian equals the gate-output Jacobian read off the oracle mask
        times each gate's slope."""
        rng = np.random.default_rng(7)
        for h in (1, 2, 3, 4):
            outputs = rng.uniform(0.05, 0.95, size=2**h - 1)
            probs, jac, (left, right) = leaf_jacobian(outputs)
            np.testing.assert_allclose(
                probs, leaf_probabilities(outputs), rtol=0, atol=1e-14
            )
            want_probs, want_jac = dense_leaf_jacobian(left, right, h)
            np.testing.assert_allclose(probs, want_probs, rtol=1e-12, atol=0)
            np.testing.assert_allclose(jac, want_jac * (left * right)[:, None],
                                       rtol=1e-12, atol=0)

    def test_jacobian_matches_finite_differences(self):
        """Central differences in each node bias reproduce the analytic
        Jacobian to first order."""
        rng = np.random.default_rng(13)
        step = 1e-6
        for h in (1, 2, 3):
            forest = gate_forest(rng.uniform(0.1, 0.9, size=2**h - 1))
            _, jac, _ = bias_jacobian(forest)
            for i in range(forest.shape.n_nodes):
                bias = forest.nodes[0, 0, i]
                forest.nodes[0, 0, i] = bias + step
                up = route(forest, X0)[0]
                forest.nodes[0, 0, i] = bias - step
                down = route(forest, X0)[0]
                forest.nodes[0, 0, i] = bias
                np.testing.assert_allclose(jac[i], (up - down) / (2 * step),
                                           atol=1e-9)

    def test_saturated_gates_keep_finite_jacobian(self):
        """Biases of +-40 and +-800 (gates that round to 0 or 1, or whose
        far edge underflows to 0) produce no division artifacts, and each
        entry is +-p_l times the other edge exactly."""
        forest = gate_forest(np.full(7, 0.5))
        forest.nodes[0, 0] = [40.0, 40.0, -800.0, 40.0, 800.0, -40.0, -800.0]
        probs, jac, (left, right) = bias_jacobian(forest)
        assert np.isfinite(probs).all()
        assert np.isfinite(jac).all()
        signs = mask_oracle(3)
        other = np.where(signs > 0, right[:, None], left[:, None])
        np.testing.assert_array_equal(jac, signs * other * probs)
        # Leaf 0 holds nearly all the mass and the root's right edge is
        # about 4.2e-18, so its root derivative is that tiny slope, not 0.
        assert 4.1e-18 < jac[0, 0] < 4.3e-18

    def test_jacobian_rows_sum_to_zero(self):
        """Total probability is conserved, so each bias's row sums to 0."""
        rng = np.random.default_rng(19)
        outputs = rng.uniform(0.0, 1.0, size=15)
        _, jac, _ = leaf_jacobian(outputs)
        np.testing.assert_allclose(jac.sum(axis=1), 0.0, atol=1e-12)


def ulps_apart(a, b):
    """Distance in units in the last place between arrays of
    non-negative floats: their bit patterns, read as integers, ordered
    as the floats are."""
    return np.abs(np.asarray(a).view(np.int64) - np.asarray(b).view(np.int64))


class TestNodeEdges:
    """The logistic behind every gate: numpy's own, not scipy's."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=24),
           st.integers(1, 3))
    def test_both_edges_are_the_logistic(self, values, rows):
        """Left edges are ``1 / (1 + exp(-z))`` and right edges
        ``1 / (1 + exp(z))`` bit for bit, with no warning where ``exp``
        overflows, and within 4 ulp of ``scipy.special.expit``.  At +-800,
        past the overflow, they are exactly 0 and 1: a clamp would leave
        5.6e-309 instead of 0."""
        z = np.tile(np.array(values + [800.0, -800.0]), (rows, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            edges = _node_edges(np.concatenate([-z, z], axis=-1))
        left, right = np.split(edges, 2, axis=-1)
        with np.errstate(over="ignore"):
            np.testing.assert_array_equal(left, 1 / (1 + np.exp(-z)))
            np.testing.assert_array_equal(right, 1 / (1 + np.exp(z)))
        np.testing.assert_array_equal(left[:, -2:], [[1.0, 0.0]] * rows)
        np.testing.assert_array_equal(right[:, -2:], [[0.0, 1.0]] * rows)
        assert ulps_apart(left, scipy.special.expit(z)).max() <= 4
        assert ulps_apart(right, scipy.special.expit(-z)).max() <= 4

    @pytest.mark.parametrize("peak", [709.0, 709.78, 709.79, 745.2])
    def test_no_warning_on_either_side_of_the_overflow(self, peak):
        """The overflow is silenced only when some edge passes 709; just
        below exp's overflow at about 709.78, just past it and past the
        underflow of ``exp(-z)`` no warning escapes either way."""
        z = np.array([[peak, -peak, 0.5], [1.0, -2.0, peak - 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            edges = _node_edges(np.concatenate([-z, z], axis=-1))
        with np.errstate(over="ignore"):
            np.testing.assert_array_equal(
                edges, 1 / (1 + np.exp(np.concatenate([-z, z], axis=-1))))

    def test_package_imports_without_scipy(self):
        """The logistic was the package's one scipy call; scipy is a test
        dependency now, so importing the package and its command line
        must not load any scipy module."""
        src = Path(__file__).resolve().parent.parent / "src"
        code = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "import fairforest, fairforest.cli; "
                "print(sorted(m for m in sys.modules "
                "if m.partition('.')[0] == 'scipy'))")
        result = subprocess.run([sys.executable, "-c", code, str(src)],
                                capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "[]"


class TestForward:
    """Forest evaluation and prediction."""

    def _tiny_tree(self, leaves):
        """A one-tree forest of height 1."""
        return forest_from_arrays(
            1, np.array([[[1.0, -2.0]]]), np.array([[0.5]]),
            np.asarray(leaves, dtype=np.float64)[None],
        )

    def test_height_one_hand_forward(self):
        """One gate mixes the two leaf rows."""
        tree = self._tiny_tree([[1.0, 0.0], [0.0, 1.0]])
        x = np.array([0.3, 0.1])
        g = 1.0 / (1.0 + np.exp(-(0.3 - 0.2 + 0.5)))
        out = forward(tree, x)
        np.testing.assert_allclose(out, [g, 1.0 - g], rtol=1e-12)

    def test_forest_output_is_mean_of_trees(self):
        rng = np.random.default_rng(23)
        forest = ObliqueForest.random(3, 4, 2, tree_count=3, rng=rng)
        x = rng.standard_normal(4)
        per_tree = tree_outputs(forest, x)
        assert per_tree.shape == (3, 2)
        np.testing.assert_allclose(
            forward(forest, x), per_tree.mean(axis=0), rtol=1e-12
        )

    def test_forward_batch_matches_single(self):
        rng = np.random.default_rng(29)
        forest = ObliqueForest.random(2, 5, 3, tree_count=2, rng=rng)
        features = rng.standard_normal((8, 5))
        batch = forward_batch(forest, features)
        single = np.stack([forward(forest, row) for row in features])
        np.testing.assert_allclose(batch, single, rtol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(height=st.integers(1, 8), trees=st.integers(1, 5),
           d=st.integers(1, 12), n=st.integers(1, 9),
           seed=st.integers(0, 2**32 - 1))
    def test_every_evaluation_shares_the_routing(self, height, trees, d, n,
                                                 seed):
        """``forward``, ``forward_batch``, the training step's forward
        cache and ``predict`` evaluate one expression: a batch row, the
        instance alone and the cache's output are equal bit for bit, and
        the per-tree outputs average to them.  That average sums in
        another order; with leaf rows within +-0.1 its rounding error is
        about 1e-17, so an entry that cancels to near 0 is compared
        absolutely."""
        rng = np.random.default_rng(seed)
        forest = ObliqueForest.random(height, d, 3, tree_count=trees, rng=rng)
        features = rng.standard_normal((n, d))
        batch = forward_batch(forest, features)
        for x, row in zip(features, batch):
            out = forward(forest, x)
            np.testing.assert_array_equal(row, out)
            np.testing.assert_array_equal(_ForwardCache(forest, x).output, out)
            np.testing.assert_allclose(tree_outputs(forest, x).mean(axis=0),
                                       out, rtol=1e-12, atol=1e-15)
            assert predict(forest, x) == int(np.argmax(out))

    def test_saturated_gate_keeps_its_right_edge(self):
        """At pre-activation +40 the right leaf gets the logistic of -40,
        1 / (1 + exp(40)) = 4.2e-18, not the 0 that one minus the left
        edge cancels to; single and batch evaluation agree and the task
        gradient stays finite."""
        forest = forest_from_arrays(
            1, np.zeros((1, 1, 2)), np.array([[40.0]]), np.eye(2)[None]
        )
        x = np.zeros(2)
        out = forward(forest, x)
        assert out[1] == 1 / (1 + np.exp(40.0))
        np.testing.assert_array_equal(forward_batch(forest, x[None]), out[None])
        grad = task_gradient(forest, x, 1)
        assert np.isfinite(grad.vector).all()
        assert grad.leaves[0, 1, 1] != 0.0

    def test_saturated_tree_output_matches_forward(self):
        """The per-tree output routes from the pre-activations as
        ``forward`` does: at +40 the right leaf gets 4.2e-18, not
        1 - 1 / (1 + exp(-40)) = 0."""
        forest = forest_from_arrays(
            1, np.zeros((1, 1, 2)), np.array([[40.0]]), np.eye(2)[None]
        )
        x = np.zeros(2)
        out = tree_outputs(forest, x)[0]
        np.testing.assert_array_equal(out, forward(forest, x))
        assert out[1] == 1 / (1 + np.exp(40.0))

    def test_gate_outputs_hand_value(self):
        tree = self._tiny_tree([[1.0, 0.0], [0.0, 1.0]])
        out = _ForwardCache(tree, np.array([1.0, 1.0])).gates
        np.testing.assert_allclose(out, [[1.0 / (1.0 + np.exp(0.5))]])

    def test_predict_argmax(self):
        forest = self._tiny_tree([[5.0, 0.0], [5.0, 0.0]])
        assert predict(forest, np.array([0.0, 0.0])) == 0

    def test_predict_breaks_ties_toward_lowest_index(self):
        forest = self._tiny_tree([[2.0, 2.0, 0.0], [2.0, 2.0, 0.0]])
        assert predict(forest, np.array([1.0, -1.0])) == 0

    def test_predict_needs_two_classes(self):
        forest = self._tiny_tree([[1.0], [0.0]])
        with pytest.raises(ConfigurationError):
            predict(forest, np.array([0.0, 0.0]))

    def test_forward_batch_of_no_rows(self):
        """An empty batch evaluates to an empty ``(0, c)`` output, not a
        reshape error."""
        forest = ObliqueForest.random(2, 4, 3)
        out = forward_batch(forest, np.zeros((0, 4)))
        assert out.shape == (0, 3)
        assert out.dtype == np.float64

    def test_forward_rejects_wrong_feature_count(self):
        forest = ObliqueForest.random(2, 4, 2)
        with pytest.raises(ShapeError):
            forward(forest, np.zeros(5))
        with pytest.raises(ShapeError):
            forward_batch(forest, np.zeros((3, 5)))


class TestObliqueForest:
    """Construction, random initialization, and parameter sharing."""

    def test_random_is_deterministic_in_the_seed(self):
        a = ObliqueForest.random(3, 6, 2, tree_count=3, rng=42)
        b = ObliqueForest.random(3, 6, 2, tree_count=3, rng=42)
        np.testing.assert_array_equal(a.nodes, b.nodes)
        np.testing.assert_array_equal(a.leaves, b.leaves)

    @pytest.mark.parametrize("height,d,c,trees,seed",
                             [(1, 1, 2, 1, 0), (3, 6, 2, 3, 42), (4, 10, 3, 2, 7)])
    def test_random_draws_weights_then_leaves_per_tree(self, height, d, c,
                                                       trees, seed):
        """The seed's generator draws the per-tree ``(T, m, d)`` weights
        first and the leaf rows after, whatever the storage layout: the
        node block's weight rows hold those draws feature-major, and its
        bias row is zero."""
        forest = ObliqueForest.random(height, d, c, trees, rng=seed)
        rng = np.random.default_rng(seed)
        bound = 2.0 / np.sqrt(d)
        m = 2**height - 1
        draws = rng.uniform(-bound, bound, size=(trees, m, d))
        np.testing.assert_array_equal(forest.nodes[1:], draws.transpose(2, 0, 1))
        np.testing.assert_array_equal(forest.nodes[0], 0.0)
        np.testing.assert_array_equal(
            forest.leaves, rng.uniform(-0.1, 0.1, size=(trees, m + 1, c)))

    def test_random_respects_documented_ranges(self):
        forest = ObliqueForest.random(4, 9, 2, tree_count=5, rng=3)
        bound = 2.0 / np.sqrt(9)
        assert np.abs(forest.nodes[1:]).max() <= bound
        np.testing.assert_array_equal(forest.nodes[0], 0.0)
        assert np.abs(forest.leaves).max() <= 0.1

    def test_shape_property(self):
        forest = ObliqueForest.random(3, 4, 2, tree_count=2)
        shape = forest.shape
        assert shape == (2, 3, 4, 2)
        assert shape.n_nodes == 7
        assert shape.n_leaves == 8

    def test_views_share_storage_with_the_vector(self):
        """The parameter arrays are views into the one flat vector, laid
        out as the node block (biases, then the weights feature-major)
        and the leaves, so an update of the vector (what the optimizer
        does) is seen through the views and back."""
        forest = ObliqueForest.random(2, 3, 2, tree_count=2)
        weights = tree_weights(forest.nodes)
        assert forest.vector.shape == (forest.shape.n_params,)
        assert forest.vector.flags.c_contiguous
        for view in (forest.nodes, forest.leaves, forest.node_rows,
                     forest.leaf_rows):
            assert np.shares_memory(view, forest.vector)
        assert forest.shape.param_shapes == ((4, 2, 3), (2, 4, 2))
        np.testing.assert_array_equal(forest.vector, np.concatenate([
            forest.nodes[0].ravel(),
            weights.transpose(2, 0, 1).ravel(),
            forest.leaves.ravel(),
        ]))
        weights[1, 0, 2] = 123.0
        # Feature 2's row (block 3), tree 1, node 0.
        assert forest.vector[3 * 2 * 3 + 1 * 3] == 123.0
        assert forest.nodes[3, 1, 0] == 123.0
        forest.nodes[0, 1, 2] = 5.0
        assert forest.vector[1 * 3 + 2] == 5.0
        forest.vector[-1] = -7.0
        assert forest.leaves[1, 3, 1] == -7.0

    @pytest.mark.parametrize("make", [
        lambda: ObliqueForest.random(3, 4, 2, tree_count=2),
        lambda: ForestGradient.zeros(ForestShape(2, 3, 4, 2)),
    ], ids=["forest", "gradient"])
    def test_one_layout(self, make):
        """Every float array a forest or a gradient holds is a
        C-contiguous view of its ``vector``: the parameters have one
        layout and no strided second view.  (A forest's integer routing
        indices are not parameters.)"""
        holder = make()
        arrays = {name: value for name, value in vars(holder).items()
                  if isinstance(value, np.ndarray) and value.dtype.kind == "f"}
        assert set(arrays) >= {"vector", "nodes", "leaves", "node_rows",
                               "leaf_rows"}
        for name, array in arrays.items():
            assert array.flags.c_contiguous, name
            assert array.base is holder.vector or array is holder.vector, name

    def test_copy_is_independent(self):
        forest = ObliqueForest.random(2, 3, 2, tree_count=2)
        clone = forest.copy()
        clone.nodes[1, 0, 0] += 1.0
        assert forest.nodes[1, 0, 0] != clone.nodes[1, 0, 0]

    def test_empty_forest_is_rejected(self):
        with pytest.raises(ConfigurationError):
            ObliqueForest(ForestShape(0, 2, 4, 2))

    def test_random_rejects_bad_counts(self):
        with pytest.raises(ConfigurationError):
            ObliqueForest.random(2, 3, 2, tree_count=0)
        with pytest.raises(ConfigurationError):
            ObliqueForest.random(2, 0, 2)
