"""Monte-Carlo zero-shot outcome prediction."""

from .tasks import TaskConfig, ConceptAncestry, expand_outcomes, load_task_config  # noqa: F401
from .simulate import SimulationEstimate, WindowRule, classify_continuation, simulate_probability  # noqa: F401
from .evaluate import TaskMetrics, evaluate_task, write_task_metrics  # noqa: F401
