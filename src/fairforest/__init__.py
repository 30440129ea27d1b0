"""Online fair learning with soft-routed oblique decision forests."""

from .baselines import (
    LeafPenaltyLearner,
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
    predict,
)
from .gradients import (
    ForestGradient,
    cross_entropy,
    fairness_gradient,
    gradient_norm,
    softmax,
    task_gradient,
    total_gradient,
)
from .learner import (
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
