"""Monte-Carlo zero-shot outcome prediction."""

from .tasks import TaskConfig, ConceptAncestry, expand_outcomes  # noqa: F401
from .simulate import (  # noqa: F401
    SimulationEstimate, WindowRule, classify_continuation, simulate_cohort, simulate_probability,
)
from .evaluate import TaskMetrics, evaluate_task  # noqa: F401
