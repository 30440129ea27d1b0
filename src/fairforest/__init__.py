"""Online fair learning with soft-routed oblique decision forests."""

from .baselines import (
    LeafPenaltyLearner,
    MajorityConfig,
    MajorityLearner,
    OnlineMlpLearner,
    Reservoir,
    ReservoirLearner,
    make_learner,
    reservoir_fairness_gradient,
)
from .data import (
    DatasetSchema,
    SyntheticConfig,
    default_schema,
    generate_synthetic,
    read_stream,
)
from .errors import (
    ConfigurationError,
    DataError,
    DomainError,
    FairForestError,
    NumericalError,
    ShapeError,
)
from .forest import (
    ForestShape,
    ObliqueForest,
    forward,
    forward_batch,
    leaf_probabilities,
    node_outputs,
    predict,
    tree_outputs,
)
from .gradients import (
    ForestGradient,
    HuberPenalty,
    cross_entropy,
    fairness_gradient,
    gradient_norm,
    huber,
    huber_slope,
    softmax,
    task_gradient,
    total_gradient,
)
from .learner import (
    AdamParams,
    AdamState,
    LearnerConfig,
    MetricsTracker,
    OnlineForestLearner,
    StepSnapshot,
    TrajectoryRow,
    run_stream,
)
from .stats import AggregateStore
from .verify import (
    BoundReport,
    audit_estimation_error,
    check_dp_bound,
    finite_difference,
    gradcheck,
    max_relative_error,
    rescale_inputs,
)

__version__ = "0.1.0"
