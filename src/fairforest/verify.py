"""Independent checks: finite differences and theoretical-bound audits.

Everything here re-derives quantities the production code computes in
closed form, by brute force or by a definitionally different route, and
reports agreement.  Nothing in this module is used by the learning loop.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
from scipy.special import expit

from .errors import ConfigurationError, DomainError, ShapeError
from .forest import ObliqueForest, forward, forward_batch
from .gradients import ForestGradient, cross_entropy, task_gradient
from .learner import TraceStep

MAX_PAIRS = 10**6


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
        forest.weights += rng.uniform(-1.0, 1.0, size=forest.weights.shape)
        forest.biases += rng.uniform(-0.5, 0.5, size=forest.biases.shape)
        forest.leaves += rng.uniform(-1.0, 1.0, size=forest.leaves.shape)
        x = rng.uniform(-2.0, 2.0, size=d)
        y = int(rng.integers(0, c))
        analytic = task_gradient(forest, x, y)
        if corrupt:
            analytic.weights += 1e-2
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
    matching the regime in which the bound is stated.  Requires equally
    sized groups; refuses more than 10**6 pairs.
    """
    features = np.asarray(features, dtype=np.float64)
    groups = np.asarray(groups)
    if features.ndim != 2 or features.shape[0] != groups.shape[0]:
        raise ShapeError("features and groups must have matching first dimension")
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
    out0 = forward_batch(capped, x0)
    out1 = forward_batch(capped, x1)
    parity_gap = float(np.linalg.norm(out0.mean(axis=0) - out1.mean(axis=0)))
    gates0 = expit(
        np.einsum("tmd,nd->tnm", capped.weights, x0) + capped.biases[:, None, :]
    )
    gates1 = expit(
        np.einsum("tmd,nd->tnm", capped.weights, x1) + capped.biases[:, None, :]
    )
    # Mean absolute gate difference over all (x0, x1) pairs, per node.
    abs_diff = np.abs(gates0[:, :, None, :] - gates1[:, None, :, :])
    eps = float(abs_diff.mean(axis=(1, 2)).max())
    h = forest.height
    return _make_report("dp-routing-bound", h * 2**h * eps, parity_gap)


def audit_estimation_error(trace: list[TraceStep], delta: float,
                           weight: float = 1.0) -> list[BoundReport]:
    """Replay a recorded run and bound the aggregate-vs-exact gradient gap.

    For every step the running-mean estimate of each node's group gap
    (built from the gate values that were current when each instance
    arrived) is compared with the exact gap recomputed at that step's
    parameters over the full history.  The observed value per step is the
    largest per-node Euclidean distance between the two Huber-penalty
    gradients; the theoretical value is ``delta * B / 2`` with ``B`` the
    largest instance norm in the trace.  ``weight`` is ignored for the
    bound itself (the penalty weight multiplies both sides identically).
    """
    if not trace:
        return []
    if delta <= 0:
        raise ConfigurationError(f"delta must be positive, got {delta}")
    sample = trace[0]
    forest0 = sample.forest
    t_count, n_nodes = forest0.tree_count, forest0.shape.n_nodes
    d = forest0.n_features
    bound_b = max(float(np.linalg.norm(step.x)) for step in trace)
    theoretical = delta * bound_b / 2.0
    counts = np.zeros(2, dtype=np.int64)
    mean_out = np.zeros((2, t_count, n_nodes))
    mean_gw = np.zeros((2, t_count, n_nodes, d))
    mean_gb = np.zeros((2, t_count, n_nodes))
    history_x: list[np.ndarray] = []
    history_a: list[int] = []
    reports = []
    for step in trace:
        forest = step.forest
        gates = expit(forest.weights @ step.x + forest.biases)  # (T, m)
        slope = gates * (1.0 - gates)
        counts[step.a] += 1
        k = counts[step.a]
        mean_out[step.a] += (gates - mean_out[step.a]) / k
        mean_gw[step.a] += (
            slope[:, :, None] * step.x[None, None, :] - mean_gw[step.a]
        ) / k
        mean_gb[step.a] += (slope - mean_gb[step.a]) / k
        history_x.append(step.x)
        history_a.append(step.a)
        if counts[0] == 0 or counts[1] == 0:
            continue
        features = np.stack(history_x)
        group_arr = np.asarray(history_a)
        exact = []
        for g in (0, 1):
            rows = features[group_arr == g]
            all_gates = expit(
                np.einsum("tmd,nd->tnm", forest.weights, rows)
                + forest.biases[:, None, :]
            )
            all_slopes = all_gates * (1.0 - all_gates)
            exact.append((
                all_gates.mean(axis=1),
                np.einsum("tnm,nd->tmd", all_slopes, rows) / len(rows),
                all_slopes.mean(axis=1),
            ))
        worst = _penalty_gradient_distance(
            delta,
            mean_out[0] - mean_out[1],
            mean_gw[0] - mean_gw[1],
            mean_gb[0] - mean_gb[1],
            exact[0][0] - exact[1][0],
            exact[0][1] - exact[1][1],
            exact[0][2] - exact[1][2],
        )
        reports.append(
            _make_report("fairness-gradient-estimation-error", theoretical, worst)
        )
    return reports


def _penalty_gradient_distance(delta, est_gap, est_gw, est_gb,
                               exact_gap, exact_gw, exact_gb) -> float:
    """Largest per-node distance between estimated and exact Huber-penalty
    gradients (weights and bias concatenated)."""
    est_coeff = np.where(
        np.abs(est_gap) < delta, est_gap, delta * np.sign(est_gap - delta / 2)
    )
    exact_coeff = np.where(
        np.abs(exact_gap) < delta, exact_gap, delta * np.sign(exact_gap - delta / 2)
    )
    dw = est_coeff[:, :, None] * est_gw - exact_coeff[:, :, None] * exact_gw
    db = est_coeff * est_gb - exact_coeff * exact_gb
    per_node = np.sqrt((dw**2).sum(axis=2) + db**2)
    return float(per_node.max())
