"""The input contract: every public entry point that takes an instance
refuses each fault of its input with the one error class of that fault,
through the package's one input check."""

import numpy as np
import pytest

from fairforest.baselines import BASELINE_NAMES, make_learner
from fairforest.errors import DataError, DomainError, ShapeError
from fairforest.forest import ObliqueForest, forward, forward_batch, predict
from fairforest.gradients import task_gradient
from fairforest.learner import LearnerConfig
from fairforest.verify import check_dp_bound

D = 3
CONFIG = LearnerConfig(n_features=D, height=2, tree_count=2, seed=5)


def _forest():
    return ObliqueForest.random(2, D, 2, rng=5)


def _pair(x):
    """A batch of two rows, each the instance under test."""
    return np.stack([x, x])


# Entry point: (call with one instance, its label and its group; whether
# it takes a label; whether it takes a group).  A batch entry point gets
# the instance twice, one row in each group.
ENTRY_POINTS = {
    "forward": (lambda x, y, a: forward(_forest(), x), False, False),
    "forward_batch": (lambda x, y, a: forward_batch(_forest(), _pair(x)),
                      False, False),
    "predict": (lambda x, y, a: predict(_forest(), x), False, False),
    "task_gradient": (lambda x, y, a: task_gradient(_forest(), x, y),
                      True, False),
    "check_dp_bound": (lambda x, y, a: check_dp_bound(
        _forest(), _pair(x), np.array([a, 1 - a])), False, True),
}
for _name in BASELINE_NAMES:
    ENTRY_POINTS[f"{_name}.step"] = (
        lambda x, y, a, name=_name: make_learner(name, CONFIG).step(x, y, a),
        True, True)
    ENTRY_POINTS[f"{_name}.predict"] = (
        lambda x, y, a, name=_name: make_learner(name, CONFIG).predict(x),
        False, False)

VALID = np.linspace(-1.0, 1.0, D)


def _with_first(value):
    x = VALID.copy()
    x[0] = value
    return x


# Fault: (instance, label, group, the error class; whether it faults the
# label, the group, or neither).
FAULTS = {
    "too-many-features": (np.zeros(D + 1), 0, 0, ShapeError, None),
    "too-few-features": (np.zeros(D - 1), 0, 0, ShapeError, None),
    "extra-axis": (VALID[None], 0, 0, ShapeError, None),
    "nan": (_with_first(np.nan), 0, 0, DataError, None),
    "inf": (_with_first(np.inf), 0, 0, DataError, None),
    "-inf": (_with_first(-np.inf), 0, 0, DataError, None),
    "bool-label": (VALID, True, 0, DomainError, "label"),
    "float-label": (VALID, 1.0, 0, DomainError, "label"),
    "label-too-large": (VALID, 2, 0, DomainError, "label"),
    "negative-label": (VALID, -1, 0, DomainError, "label"),
    "group-too-large": (VALID, 0, 2, DomainError, "group"),
    "negative-group": (VALID, 0, -1, DomainError, "group"),
}


def _cases():
    for entry, (_, takes_label, takes_group) in ENTRY_POINTS.items():
        for fault, (*_, faulted) in FAULTS.items():
            if ((faulted == "label" and not takes_label)
                    or (faulted == "group" and not takes_group)):
                continue
            yield pytest.param(entry, fault, id=f"{entry}-{fault}")


@pytest.mark.parametrize("entry, fault", _cases())
def test_each_fault_raises_its_one_error_class(entry, fault):
    call = ENTRY_POINTS[entry][0]
    x, y, a, error, _ = FAULTS[fault]
    with pytest.raises(error) as caught:
        call(x, y, a)
    assert caught.type is error


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_valid_input_is_accepted(entry):
    """The same calls on a valid instance, label and group raise
    nothing, so each refusal above comes from its fault."""
    ENTRY_POINTS[entry][0](VALID, 1, 0)
