"""Score a labeled cohort with simulated probabilities, then AUROC/AUPRC + bootstrap."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..evalharness.metrics import BootstrapResult, auprc, auroc, bootstrap_metric
from .simulate import SimulationEstimate, simulate_cohort
from .tasks import TaskConfig, expand_outcomes

__all__ = ["TaskMetrics", "evaluate_task"]


@dataclass
class TaskMetrics:
    task_name: str
    n_examples: int
    n_positive_labels: int
    auroc: BootstrapResult
    auprc: BootstrapResult
    scores: list[float]
    labels: list[int]
    estimates: list[SimulationEstimate]
    n_capped: int
    decode_steps: int = 0  # batched sampling steps
    lane_tokens: int = 0  # tokens sampled over all lanes and steps


def evaluate_task(
    model,
    cohort,
    task: TaskConfig,
    seed: int = 0,
    n_bootstrap: int = 1000,
    ancestry=None,
    n_threads: int = 1,
) -> TaskMetrics:
    """cohort: iterable of (prefix_tokens, label). The patients' futures run
    in one shared lane batch. Patient i draws from its own stream keyed by
    (seed, i), so its estimate depends neither on the other patients nor on
    their order. n_threads must be 1; it is kept only for the call in
    perfbench/workloads.py."""
    if n_threads != 1:
        raise ValueError(f"n_threads must be 1, got {n_threads}")
    if n_bootstrap < 1:
        raise ValueError(f"n_bootstrap must be at least 1, got {n_bootstrap}")
    cohort = list(cohort)
    labels = [int(lbl) for _, lbl in cohort]
    if len(set(labels)) < 2:
        raise ValueError("cohort must contain both classes")
    outcome_ids = expand_outcomes(task, ancestry)
    rngs = [np.random.default_rng(np.random.SeedSequence([seed, i])) for i in range(len(cohort))]
    run = simulate_cohort(model, [prefix for prefix, _ in cohort], rngs, task, outcome_ids)
    estimates = run.estimates
    scores = [e.probability for e in estimates]
    return TaskMetrics(
        task_name=task.task_name,
        n_examples=len(cohort),
        n_positive_labels=sum(labels),
        auroc=bootstrap_metric(scores, labels, auroc, n_bootstrap, seed),
        auprc=bootstrap_metric(scores, labels, auprc, n_bootstrap, seed),
        scores=scores,
        labels=labels,
        estimates=estimates,
        n_capped=sum(1 for e in estimates if e.capped),
        decode_steps=run.decode_steps,
        lane_tokens=run.lane_tokens,
    )
