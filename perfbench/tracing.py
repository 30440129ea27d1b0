"""Spans recorded from outside the program, by wrapping the calls each
layer receives.

Nothing under ``src/`` knows about the tracer: ``Tracer.install`` replaces
module functions and class methods with timing wrappers and ``remove``
puts the originals back.  A target whose module attribute no longer
exists is recorded as absent instead of failing; the time it used to
cover then shows up as the self time of the enclosing span.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter_ns

# (span, module, attribute path).  A span may wrap several calls, and the
# module is the one the call is looked up in at run time.
TARGETS = (
    ("cli.run", "fairforest.cli", "_drive"),
    ("data.read", "fairforest.cli", "read_stream"),
    ("learner.step", "fairforest.learner", "OnlineForestLearner.step"),
    ("learner.checkpoint", "fairforest.learner",
     "OnlineForestLearner.save_checkpoint"),
    ("gradients.forward", "fairforest.gradients", "_ForwardCache.__init__"),
    ("forest.gates", "fairforest.gradients", "_all_node_outputs"),
    ("forest.routing", "fairforest.gradients",
     "_leaf_probability_gradients_stacked"),
    ("learner.metrics", "fairforest.learner", "MetricsTracker.update"),
    ("learner.metrics", "fairforest.learner", "OnlineForestLearner.snapshot"),
    ("stats.fold", "fairforest.stats", "AggregateStore.update_all"),
    ("gradients.task", "fairforest.learner", "_task_gradient_cached"),
    ("gradients.fairness", "fairforest.learner", "fairness_gradient"),
    ("gradients.sum_norm", "fairforest.learner", "total_gradient"),
    ("gradients.sum_norm", "fairforest.learner", "gradient_norm"),
    ("learner.adam", "fairforest.learner", "AdamState.apply"),
    ("baselines.leaf_fold", "fairforest.baselines",
     "LeafPenaltyLearner._update_fairness_state"),
    ("baselines.leaf_fairness", "fairforest.baselines",
     "LeafPenaltyLearner._fairness_gradient"),
)

# Targets that return an iterator: each ``next`` on it is one span.
ITERATOR_SPANS = frozenset({"data.read"})


class Tracer:
    """Inclusive time, self time and call count per span name.

    Spans nest through a stack of child-time accumulators, so a span's
    self time is its duration minus the durations of the spans it caused.
    """

    def __init__(self):
        self.inclusive_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self._children: list[int] = []
        self._patches: list[tuple] = []

    def install(self) -> None:
        """Wrap every target that exists; record the others as absent."""
        if self._patches:
            return
        absent = []
        for name, module_name, path in TARGETS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                absent.append(f"{module_name}.{path}")
                continue
            wrapper = (self._iterator_wrapper(name, original)
                       if name in ITERATOR_SPANS
                       else self.wrap(name, original))
            self._patches.append((owner, attr, original, attr in vars(owner)))
            setattr(owner, attr, wrapper)
        self.absent = absent

    def remove(self) -> None:
        """Put back every original the last ``install`` replaced."""
        for owner, attr, original, owned in reversed(self._patches):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches = []

    def wrap(self, name: str, fn):
        tracer = self

        def spanned(*args, **kwargs):
            tracer._children.append(0)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                children = tracer._children.pop()
                tracer.inclusive_ns[name] += elapsed
                tracer.self_ns[name] += elapsed - children
                tracer.calls[name] += 1
                if tracer._children:
                    tracer._children[-1] += elapsed

        return spanned

    def _iterator_wrapper(self, name: str, fn):
        tracer = self

        def spanned_iterator(*args, **kwargs):
            return _until_stop(tracer.wrap(name, iter(fn(*args, **kwargs)).__next__))

        return spanned_iterator


def _until_stop(step):
    while True:
        try:
            item = step()
        except StopIteration:
            return
        yield item
