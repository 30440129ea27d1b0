"""Independent checks: finite differences and theoretical-bound audits.

Everything here re-derives quantities the production code computes in
closed form, by brute force or by a definitionally different route, and
reports agreement.  The estimation audit replays the production store
against the exact reservoir recomputation.  Nothing in this module is
used by the learning loop.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .baselines import Reservoir, reservoir_fairness_gradient
from .errors import ConfigurationError, DomainError, ShapeError
from .forest import (
    ObliqueForest,
    _evaluate,
    forward,
)
from .gradients import (
    ForestGradient,
    _ForwardCache,
    cross_entropy,
    task_gradient,
)
from .stats import AggregateStore, NotionTable

MAX_PAIRS = 10**6
_CHUNK_VALUES = 2**18  # gate differences held at once by check_dp_bound


@dataclass
class TraceStep:
    """One step of a run to audit: the parameters in force when the
    instance arrived, the instance, its label and its group."""

    forest: ObliqueForest
    x: np.ndarray
    y: int
    a: int


@dataclass
class BoundReport:
    """Outcome of checking one theoretical bound on one dataset."""

    name: str
    theoretical: float
    observed: float
    slack: float
    passed: bool

    def to_dict(self) -> dict:
        return asdict(self)


def _make_report(name: str, theoretical: float, observed: float,
                 tolerance: float = 1e-9) -> BoundReport:
    return BoundReport(
        name=name,
        theoretical=float(theoretical),
        observed=float(observed),
        slack=float(theoretical - observed),
        passed=bool(observed <= theoretical + tolerance),
    )


def finite_difference(loss_fn, forest: ObliqueForest, step: float = 1e-5,
                      indices=None) -> ForestGradient:
    """Central-difference gradient of a scalar loss over every forest
    parameter, or over the flat positions ``indices`` only (the others
    stay 0).  ``loss_fn`` takes a forest and returns a float."""
    if step <= 0:
        raise ConfigurationError(f"step must be positive, got {step}")
    work = forest.copy()
    grad = ForestGradient.zeros(forest.shape)
    flat = work.vector
    for i in range(flat.size) if indices is None else indices:
        original = flat[i]
        flat[i] = original + step
        high = loss_fn(work)
        flat[i] = original - step
        low = loss_fn(work)
        flat[i] = original
        grad.vector[i] = (high - low) / (2.0 * step)
    return grad


def max_relative_error(candidate: ForestGradient,
                       reference: ForestGradient) -> float:
    """Largest componentwise deviation, scaled by the reference gradient's
    largest component."""
    scale = max(np.max(np.abs(reference.vector)), 1e-12)
    worst = np.max(np.abs(candidate.vector - reference.vector))
    return float(worst / scale)


def gradcheck(seed: int = 0, trials: int = 20, tolerance: float = 1e-4,
              corrupt: bool = False) -> dict:
    """Compare the analytic task gradient against central differences on
    randomly drawn small configurations.

    ``corrupt=True`` deliberately perturbs the analytic gradient first;
    it exists so the harness itself can be shown to catch a wrong
    gradient.  Returns a JSON-ready report.
    """
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        height = int(rng.integers(1, 4))
        d = int(rng.integers(1, 6))
        c = int(rng.integers(2, 4))
        tree_count = int(rng.integers(1, 4))
        forest = ObliqueForest.random(height, d, c, tree_count, rng=rng)
        # Spread the gates away from 0.5 so the check exercises the
        # product structure, not just the linearization at the root.
        # The weights are drawn per tree, (T, m, d).
        forest.nodes[1:] += np.moveaxis(rng.uniform(
            -1.0, 1.0, size=(tree_count, forest.shape.n_nodes, d)), -1, 0)
        forest.nodes[0] += rng.uniform(-0.5, 0.5, size=forest.nodes[0].shape)
        forest.leaves += rng.uniform(-1.0, 1.0, size=forest.leaves.shape)
        x = rng.uniform(-2.0, 2.0, size=d)
        y = int(rng.integers(0, c))
        analytic = task_gradient(forest, x, y)
        if corrupt:
            analytic.nodes[1:] += 1e-2
        numeric = finite_difference(
            lambda f: cross_entropy(forward(f, x), y), forest
        )
        worst = max(worst, max_relative_error(analytic, numeric))
    return {
        "seed": seed,
        "trials": trials,
        "tolerance": tolerance,
        "max_relative_error": worst,
        "passed": bool(worst <= tolerance),
        "corrupted": bool(corrupt),
    }


def rescale_inputs(features: np.ndarray, bound: float = 1.0) -> np.ndarray:
    """Scale a feature matrix so every row norm is at most ``bound``."""
    features = np.asarray(features, dtype=np.float64)
    norms = np.linalg.norm(features, axis=-1)
    top = norms.max()
    if top == 0.0:
        return features.copy()
    return features * (bound / top)


def check_dp_bound(forest: ObliqueForest, features: np.ndarray,
                   groups: np.ndarray) -> BoundReport:
    """Check that the soft-output parity gap is within the routing bound.

    The bound is ``h * 2**h * eps`` where ``eps`` is the worst per-node
    mean absolute gate difference over all cross-group instance pairs.
    The forest's leaf rows are first normalized to unit norm (on a copy),
    matching the regime in which the bound is stated.  Requires groups 0
    and 1 only, equally sized; refuses more than 10**6 pairs.
    """
    features = np.asarray(features, dtype=np.float64)
    groups = np.asarray(groups)
    if features.shape != (len(groups), forest.n_features):
        raise ShapeError(
            f"expected features of shape ({len(groups)}, {forest.n_features}), "
            f"one row per group entry, got {features.shape}"
        )
    if not np.isin(groups, (0, 1)).all():
        raise DomainError(f"groups must be 0 or 1, got {np.unique(groups)}")
    x0 = features[groups == 0]
    x1 = features[groups == 1]
    if len(x0) == 0 or len(x1) == 0:
        raise DomainError("both groups must be present")
    if len(x0) != len(x1):
        raise DomainError(
            f"the bound check needs equal group counts, got {len(x0)} and {len(x1)}"
        )
    if len(x0) * len(x1) > MAX_PAIRS:
        raise DomainError(
            f"too many cross-group pairs ({len(x0) * len(x1)}); cap is {MAX_PAIRS}"
        )
    capped = forest.copy()
    norms = np.linalg.norm(capped.leaves, axis=2, keepdims=True)
    capped.leaves /= np.where(norms < 1e-12, 1.0, norms)
    # One evaluation of both (equally sized) groups gives their outputs
    # and their gates.
    evaluation = _evaluate(capped, np.stack([x0, x1]))  # batch (2, n)
    outputs = evaluation.output.mean(axis=1)
    parity_gap = float(np.linalg.norm(outputs[0] - outputs[1]))
    gates0, gates1 = evaluation.gates
    # Mean absolute gate difference over all (x0, x1) pairs, per node,
    # summed over chunks of group-0 rows so memory stays bounded.
    total = np.zeros(gates1.shape[1:])
    rows = max(1, _CHUNK_VALUES // gates1.size)
    for start in range(0, len(x0), rows):
        diff = np.abs(gates0[start:start + rows, None] - gates1[None, :])
        total += diff.sum(axis=(0, 1))
    eps = float((total / (len(x0) * len(x1))).max())
    h = forest.height
    return _make_report("dp-routing-bound", h * 2**h * eps, parity_gap)


def audit_estimation_error(trace: list[TraceStep], delta: float,
                           notion: str = "dp",
                           n_groups: int = 2) -> list[BoundReport]:
    """Replay a recorded run and bound the aggregate-vs-exact gradient gap.

    ``trace`` holds one ``TraceStep`` per step, recorded before the step:
    ``TraceStep(learner.forest.copy(), x.copy(), y, a)``.
    Each step folds the gates that were current when its instance arrived
    into the production ``AggregateStore`` of ``notion`` over ``n_groups``
    groups and adds the instance to a ``Reservoir`` of the same notion.
    Once a contrast is warm, the store's Huber contrast sum is compared
    with ``reservoir_fairness_gradient``, the exact gradient recomputed at
    that step's parameters over the full history; both are the one
    weighted product ``stats.huber_contrast_sum``, over running and over
    exact key sums.  The observed value per
    step is the largest per-node Euclidean distance between the two (bias
    and weights together, both at unit penalty weight).  The theoretical
    value is ``n_contrasts * delta * B / 2`` with ``B`` the largest
    instance norm in the trace: each contrast adds one Huber term, whose
    error is at most ``delta * B / 2``, so by the triangle inequality the
    sum's error is at most their sum (one contrast under ``dp``, one per
    class under ``equalized_odds``, one per group under ``multigroup``).
    """
    if not trace:
        return []
    if not 0 < delta < np.inf:
        raise ConfigurationError(f"delta must be positive and finite, got {delta}")
    shape = trace[0].forest.shape
    table = NotionTable(notion, n_groups, shape.n_outputs)
    store = AggregateStore(table, shape)
    theoretical = table.n_contrasts * delta * max(
        float(np.linalg.norm(step.x)) for step in trace) / 2.0
    reservoir = Reservoir(table, shape.n_features)
    reports = []
    for step in trace:
        cache = _ForwardCache(step.forest, step.x)
        store.update_all(step.a, step.y, cache.gates, cache.slope,
                         cache.workspace.xa)
        reservoir.add(step.x, step.a, step.y)
        exact, cold = reservoir_fairness_gradient(reservoir, step.forest,
                                                  delta, 1.0)
        if cold:
            continue
        diff = store.contrast_sum(delta) - exact.nodes
        worst = float(np.linalg.norm(diff, axis=0).max())
        reports.append(
            _make_report("fairness-gradient-estimation-error", theoretical, worst)
        )
    return reports
