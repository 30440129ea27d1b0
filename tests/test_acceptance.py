"""Acceptance battery: twelve numbered behavioral guarantees, each checked
end to end at a fixed tolerance and reported as one line on the real
stdout.

The expensive learning runs are shared through a module-scoped fixture.
The final criterion recomputes every deterministic result from scratch
and requires byte-identical serialization, so nothing in criteria 1
through 9 may depend on wall time, object identity, or iteration order.
"""

import json
import sys
import time

import numpy as np
import pytest
from scipy.special import expit

from fairforest.baselines import (
    Reservoir,
    make_learner,
    reservoir_fairness_gradient,
)
from fairforest.data import SyntheticConfig, generate_synthetic
from fairforest.forest import (
    ObliqueForest,
    _ancestor_rows,
    _evaluate,
    _path_signs,
)
from fairforest.gradients import ForestGradient, fairness_gradient
from fairforest.learner import LearnerConfig, OnlineForestLearner
from fairforest.stats import AggregateStore, NotionTable
from fairforest.verify import (
    TraceStep,
    audit_estimation_error,
    check_dp_bound,
    gradcheck,
    rescale_inputs,
)
from oracles import augment, tree_norm, tree_weights

STANDARD_STREAM = dict(n=5000, n_features=10, bias=0.6, noise=0.1, seed=7)
HEIGHT = 4
TREES = 3
HUBER_DELTA = 0.01


def _line(capfd, number: int, ok: bool, detail: str) -> None:
    """One battery line on the real stdout, past the capture machinery."""
    status = "PASS" if ok else "FAIL"
    with capfd.disabled():
        print(f"criterion {number:2d}: {status}  {detail}",
              file=sys.stdout, flush=True)


def mask_oracle(height):
    """Ancestor mask via parent pointers, one leaf at a time; independent
    of the vectorized construction."""
    n_leaves = 2**height
    entries = np.zeros((n_leaves - 1, n_leaves), dtype=np.int8)
    for leaf in range(n_leaves):
        pos = n_leaves + leaf
        while pos > 1:
            parent = pos // 2
            entries[parent - 1, leaf] = 1 if pos == 2 * parent else -1
            pos = parent
    return entries


def mask_from_paths(height):
    """The package's routing structure, ancestor rows and bit-derived
    path signs, scattered into a dense mask."""
    entries = np.zeros((2**height - 1, 2**height), dtype=np.int8)
    entries[_ancestor_rows(height), np.arange(2**height)] = _path_signs(height)
    return entries


def standard_stream():
    """The shared evaluation stream: a biased synthetic run rescaled so
    every instance has norm at most one."""
    rows = list(generate_synthetic(SyntheticConfig(**STANDARD_STREAM)))
    features = rescale_inputs(np.stack([x for x, _, _ in rows]))
    return [(features[i], y, a) for i, (_, y, a) in enumerate(rows)]


def forest_config(weight: float) -> LearnerConfig:
    return LearnerConfig(
        n_features=STANDARD_STREAM["n_features"],
        height=HEIGHT,
        tree_count=TREES,
        fairness="dp",
        fairness_weight=weight,
        huber_delta=HUBER_DELTA,
        seed=0,
    )


def run_forest(weight: float, stream, track_trees: bool = False):
    learner = OnlineForestLearner(forest_config(weight))
    fair_norms = np.empty(len(stream))
    max_tree_norm = 0.0
    for i, (x, y, a) in enumerate(stream):
        _, snap = learner.step(x, y, a)
        fair_norms[i] = snap.grad_norm_fair
        if track_trees:
            grad = learner._last_total
            max_tree_norm = max(
                max_tree_norm,
                max(tree_norm(grad, t) for t in range(TREES)),
            )
    return learner, fair_norms, max_tree_norm


def run_baseline(name: str, weight: float, stream):
    learner = make_learner(name, forest_config(weight))
    for x, y, a in stream:
        learner.step(x, y, a)
    return learner


def compute_results():
    """Criteria 1 through 9.  Returns (results, artifacts): ``results``
    holds only deterministic numbers and is what the reproducibility
    criterion serializes; ``artifacts`` carries timings and raw series."""
    results = {}
    artifacts = {}

    # 1: analytic task gradient vs central differences on 100 random
    # small configurations.
    start = time.perf_counter()
    report = gradcheck(seed=0, trials=100)
    artifacts["c1_seconds"] = time.perf_counter() - start
    results["gradient_check"] = {
        "trials": report["trials"],
        "max_relative_error": float(report["max_relative_error"]),
        "tolerance": 1e-4,
        "passed": bool(report["passed"]),
    }

    # 2: routing structure (ancestor rows and bit-derived path signs),
    # exact at height 2 and against the parent-pointer oracle for heights
    # 1 through 8.
    expected_h2 = np.array([[1, 1, -1, -1], [1, -1, 0, 0], [0, 0, 1, -1]])
    height_2_exact = (
        np.array_equal(_ancestor_rows(2), [[0, 0, 0, 0], [1, 1, 2, 2]])
        and np.array_equal(_path_signs(2), [[1, 1, -1, -1], [1, -1, 1, -1]])
        and np.array_equal(mask_from_paths(2), expected_h2)
    )
    oracle_match = all(
        np.array_equal(mask_from_paths(h), mask_oracle(h))
        for h in range(1, 9)
    )
    results["routing_structure"] = {
        "height_2_exact": bool(height_2_exact),
        "oracle_match_heights_1_to_8": bool(oracle_match),
        "passed": height_2_exact and bool(oracle_match),
    }

    # 3: leaf probabilities form a distribution on 10^4 random
    # (forest, instance) pairs.
    rng = np.random.default_rng(3)
    worst_sum = 0.0
    lowest = 1.0
    highest = 0.0
    for _ in range(10_000):
        h = int(rng.integers(1, 5))
        d = int(rng.integers(1, 6))
        c = int(rng.integers(2, 4))
        t = int(rng.integers(1, 4))
        forest = ObliqueForest.random(h, d, c, t, rng=rng)
        x = rng.uniform(-3.0, 3.0, size=d)
        probs = _evaluate(forest, x).leaf_probs  # (T, L)
        worst_sum = max(worst_sum, float(np.abs(probs.sum(axis=1) - 1.0).max()))
        lowest = min(lowest, float(probs.min()))
        highest = max(highest, float(probs.max()))
    results["leaf_simplex"] = {
        "pairs": 10_000,
        "worst_sum_deviation": worst_sum,
        "min_probability": lowest,
        "max_probability": highest,
        "passed": worst_sum <= 1e-9 and lowest >= 0.0 and highest <= 1.0,
    }

    # 4: with parameters frozen, the running-aggregate fairness gradient
    # equals the exact gradient recomputed over the stored history.
    forest = ObliqueForest.random(3, 6, 2, 3, rng=11)
    table = NotionTable("dp")
    store = AggregateStore(table, forest.shape)
    reservoir = Reservoir(table, 6)
    rng4 = np.random.default_rng(4)
    for _ in range(50):
        x = rng4.uniform(-2.0, 2.0, size=6)
        a = int(rng4.integers(0, 2))
        z = tree_weights(forest.nodes) @ x + forest.nodes[0]
        gates = expit(z)
        store.update_all(a, 0, gates, (gates * expit(-z)).reshape(1, -1),
                         augment(x))
        reservoir.add(x, a, 0)
    from_store = fairness_gradient(store, 0.01, 0.7,
                                   ForestGradient.zeros(forest.shape))
    from_reservoir, cold = reservoir_fairness_gradient(
        reservoir, forest, 0.01, 0.7)
    agreement = float(np.abs(from_store.vector - from_reservoir.vector).max())
    results["aggregate_vs_exact"] = {
        "instances": 50,
        "max_difference": agreement,
        "passed": not cold and agreement <= 1e-10,
    }

    # 5: estimation error of the aggregates while parameters drift stays
    # within delta * B / 2 at every audited step.
    rows = list(generate_synthetic(SyntheticConfig(
        n=500, n_features=10, bias=0.6, noise=0.1, seed=5)))
    drift_features = rescale_inputs(np.stack([x for x, _, _ in rows]))
    driftee = OnlineForestLearner(forest_config(1.0))
    trace = []
    for i, (_, y, a) in enumerate(rows):
        trace.append(TraceStep(driftee.forest.copy(), drift_features[i].copy(),
                               y, a))
        driftee.step(drift_features[i], y, a)
    reports = audit_estimation_error(trace, delta=HUBER_DELTA)
    results["estimation_error"] = {
        "steps": 500,
        "audited_steps": len(reports),
        "worst_observed": max(r.observed for r in reports),
        "bound": max(r.theoretical for r in reports),
        "passed": bool(reports) and all(r.passed for r in reports),
    }

    # 6: the demographic-parity routing bound h * 2^h * eps holds on 100
    # random forests with unit-norm leaves.
    rng6 = np.random.default_rng(6)
    min_slack = np.inf
    bound_ok = True
    for _ in range(100):
        h = int(rng6.integers(1, 4))
        d = int(rng6.integers(2, 6))
        c = int(rng6.integers(2, 4))
        t = int(rng6.integers(1, 4))
        forest = ObliqueForest.random(h, d, c, t, rng=rng6)
        weights = tree_weights(forest.nodes)
        weights += rng6.uniform(-1.0, 1.0, size=weights.shape)
        features = rng6.uniform(-1.5, 1.5, size=(40, d))
        groups = np.repeat([0, 1], 20)
        report = check_dp_bound(forest, features, groups)
        bound_ok = bound_ok and report.passed
        min_slack = min(min_slack, report.slack)
    results["parity_bound"] = {
        "forests": 100,
        "min_slack": float(min_slack),
        "passed": bool(bound_ok),
    }

    # 7, 8, 11 share the two standard-stream runs of the main learner.
    stream = standard_stream()
    start = time.perf_counter()
    plain, _, _ = run_forest(0.0, stream)
    penalized, fair_norms, max_tree_norm = run_forest(
        1.0, stream, track_trees=True)
    artifacts["c7_seconds"] = time.perf_counter() - start
    dp_plain = float(plain.metrics.dp_hard)
    dp_penalized = float(penalized.metrics.dp_hard)
    acc_plain = float(plain.metrics.accuracy)
    acc_penalized = float(penalized.metrics.accuracy)
    results["fairness_tradeoff"] = {
        "dp_unpenalized": dp_plain,
        "dp_penalized": dp_penalized,
        "dp_ratio": dp_penalized / dp_plain,
        "accuracy_unpenalized": acc_plain,
        "accuracy_penalized": acc_penalized,
        "passed": dp_penalized <= 0.5 * dp_plain
        and abs(acc_penalized - acc_plain) <= 0.10,
    }

    # 8: the fairness gradient shrinks as the penalty takes hold.
    first_500 = float(fair_norms[:500].mean())
    last_500 = float(fair_norms[-500:].mean())
    results["penalty_decay"] = {
        "first_500_mean": first_500,
        "last_500_mean": last_500,
        "passed": last_500 < first_500,
    }
    artifacts["fair_norms"] = fair_norms

    # 9: the leaf-only penalty and the MLP improve parity less than the
    # gate-level penalty does, relative to their own unpenalized runs.
    improvements = {"main": (dp_plain - dp_penalized) / dp_plain}
    for name in ("leaf", "mlp"):
        base = run_baseline(name, 0.0, stream)
        fair = run_baseline(name, 1.0, stream)
        d0 = float(base.metrics.dp_hard)
        d1 = float(fair.metrics.dp_hard)
        improvements[name] = (d0 - d1) / d0
    results["baseline_comparison"] = {
        "main_improvement": improvements["main"],
        "leaf_improvement": improvements["leaf"],
        "mlp_improvement": improvements["mlp"],
        "passed": improvements["leaf"] < improvements["main"]
        and improvements["mlp"] < improvements["main"],
    }

    # 11: every per-tree gradient stays under sqrt(2) + 2^(h-2) * lambda
    # * delta * B with B = 1 on the rescaled stream.
    tree_bound = float(np.sqrt(2.0)) + 2 ** (HEIGHT - 2) * 1.0 * HUBER_DELTA
    results["gradient_bound"] = {
        "max_tree_norm": float(max_tree_norm),
        "bound": tree_bound,
        "passed": max_tree_norm <= tree_bound + 1e-6,
    }

    artifacts["stream"] = stream
    return results, artifacts


def serialize(results: dict) -> bytes:
    return json.dumps(results, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


@pytest.fixture(scope="module")
def battery():
    results, artifacts = compute_results()
    return {
        "results": results,
        "artifacts": artifacts,
        "bytes": serialize(results),
    }


def test_criterion_01_gradient_check(battery, capfd):
    r = battery["results"]["gradient_check"]
    seconds = battery["artifacts"]["c1_seconds"]
    ok = r["passed"] and seconds < 30.0
    _line(capfd, 1, ok, f"max relative error {r['max_relative_error']:.2e} over "
                 f"{r['trials']} configurations (tolerance 1e-4), "
                 f"{seconds:.1f}s")
    assert ok


def test_criterion_02_ancestor_mask(battery, capfd):
    r = battery["results"]["routing_structure"]
    _line(capfd, 2, r["passed"], "height-2 path structure exact, heights 1-8 "
                          "match the parent-pointer oracle")
    assert r["passed"]


def test_criterion_03_leaf_simplex(battery, capfd):
    r = battery["results"]["leaf_simplex"]
    _line(capfd, 3, r["passed"],
          f"{r['pairs']} pairs, worst |sum - 1| = "
          f"{r['worst_sum_deviation']:.2e} (tolerance 1e-9), probabilities "
          f"in [{r['min_probability']:.2e}, {r['max_probability']:.6f}]")
    assert r["passed"]


def test_criterion_04_aggregate_matches_exact(battery, capfd):
    r = battery["results"]["aggregate_vs_exact"]
    _line(capfd, 4, r["passed"],
          f"store vs full-history gradient, max difference "
          f"{r['max_difference']:.2e} (tolerance 1e-10)")
    assert r["passed"]


def test_criterion_05_estimation_error(battery, capfd):
    r = battery["results"]["estimation_error"]
    _line(capfd, 5, r["passed"],
          f"{r['audited_steps']} audited steps, worst observed "
          f"{r['worst_observed']:.2e} within bound {r['bound']:.3e}")
    assert r["passed"]


def test_criterion_06_parity_bound(battery, capfd):
    r = battery["results"]["parity_bound"]
    _line(capfd, 6, r["passed"],
          f"{r['forests']} random forests, min slack {r['min_slack']:.3f}")
    assert r["passed"]


def test_criterion_07_fairness_tradeoff(battery, capfd):
    r = battery["results"]["fairness_tradeoff"]
    seconds = battery["artifacts"]["c7_seconds"]
    ok = r["passed"] and seconds < 60.0
    _line(capfd, 7, ok,
          f"parity gap {r['dp_unpenalized']:.4f} -> {r['dp_penalized']:.4f} "
          f"(ratio {r['dp_ratio']:.3f} <= 0.5), accuracy "
          f"{r['accuracy_unpenalized']:.4f} -> {r['accuracy_penalized']:.4f},"
          f" {seconds:.1f}s")
    assert ok


def test_criterion_08_penalty_decay(battery, capfd):
    r = battery["results"]["penalty_decay"]
    _line(capfd, 8, r["passed"],
          f"fairness gradient norm mean {r['first_500_mean']:.5f} (first "
          f"500) -> {r['last_500_mean']:.5f} (last 500)")
    assert r["passed"]


def test_criterion_09_baseline_comparison(battery, capfd):
    r = battery["results"]["baseline_comparison"]
    _line(capfd, 9, r["passed"],
          f"relative parity improvement: main {r['main_improvement']:+.3f}, "
          f"leaf {r['leaf_improvement']:+.3f}, "
          f"mlp {r['mlp_improvement']:+.3f}")
    assert r["passed"]


def test_criterion_10_reservoir_cost(battery, capfd):
    """Informational: per-step cost of the exact-history baseline at step
    5000 against the aggregate learner's steady-state cost.  The measured
    ratio is logged; timing noise must never gate the battery."""
    stream = battery["artifacts"]["stream"]
    main = OnlineForestLearner(forest_config(1.0))
    for x, y, a in stream[:100]:
        main.step(x, y, a)
    start = time.perf_counter()
    for x, y, a in stream[100:150]:
        main.step(x, y, a)
    main_per_step = (time.perf_counter() - start) / 50

    exact = make_learner("reservoir", forest_config(1.0))
    for x, y, a in stream[:4999]:
        exact.reservoir.add(x, a, y)
    exact.step_count = 4999
    x, y, a = stream[4999]
    start = time.perf_counter()
    exact.step(x, y, a)
    exact_per_step = time.perf_counter() - start

    ratio = exact_per_step / main_per_step
    ok = main_per_step > 0.0 and exact_per_step > 0.0
    _line(capfd, 10, ok,
          f"(informational, not gating) exact history {exact_per_step * 1e3:.2f}ms"
          f" vs aggregate {main_per_step * 1e3:.3f}ms per step at step 5000,"
          f" ratio {ratio:.1f}x (expected >= 2x)")
    assert ok


def test_criterion_11_gradient_bound(battery, capfd):
    r = battery["results"]["gradient_bound"]
    _line(capfd, 11, r["passed"],
          f"max per-tree gradient norm {r['max_tree_norm']:.4f} <= "
          f"{r['bound']:.4f}")
    assert r["passed"]


def test_criterion_12_reproducibility(battery, capfd):
    again, _ = compute_results()
    ok = serialize(again) == battery["bytes"]
    _line(capfd, 12, ok, "criteria 1-9 recomputed from scratch are byte-identical")
    assert ok
