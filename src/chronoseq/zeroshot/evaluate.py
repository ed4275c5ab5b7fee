"""Score a labeled cohort with simulated probabilities, then AUROC/AUPRC + bootstrap."""
from __future__ import annotations

import csv
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ..evalharness.metrics import BootstrapResult, auprc, auroc, bootstrap_metric
from ..generation.sampling import SamplingConfig
from .simulate import SimulationEstimate, simulate_cohort
from .tasks import TaskConfig, expand_outcomes

__all__ = ["TaskMetrics", "evaluate_task", "write_task_metrics"]


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
    decode_steps: int = 0  # batched sampling steps, summed over threads
    lane_tokens: int = 0  # tokens sampled over all lanes and steps


def evaluate_task(
    model,
    cohort,
    task: TaskConfig,
    seed: int = 0,
    n_bootstrap: int = 1000,
    ancestry=None,
    sampling: SamplingConfig | None = None,
    n_threads: int = 1,
) -> TaskMetrics:
    """cohort: iterable of (prefix_tokens, label). The patients' futures run
    in one shared lane batch (per thread; each thread takes every n_threads-th
    patient). Patient i draws from its own stream keyed by (seed, i), so its
    estimate depends neither on the other patients, nor on their order, nor
    on the thread count."""
    cohort = list(cohort)
    labels = [int(lbl) for _, lbl in cohort]
    if len(set(labels)) < 2:
        raise ValueError("cohort must contain both classes")
    outcome_ids = expand_outcomes(task, ancestry)

    def shard(t):
        indices = range(t, len(cohort), max(n_threads, 1))
        rngs = [np.random.default_rng(np.random.SeedSequence([seed, i])) for i in indices]
        return indices, simulate_cohort(model, [cohort[i][0] for i in indices], rngs, task, outcome_ids, sampling)

    if n_threads > 1:
        with ThreadPoolExecutor(max_workers=n_threads) as ex:
            runs = list(ex.map(shard, range(n_threads)))
    else:
        runs = [shard(0)]
    estimates = [None] * len(cohort)
    for indices, run in runs:
        for i, e in zip(indices, run.estimates):
            estimates[i] = e
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
        decode_steps=sum(run.decode_steps for _, run in runs),
        lane_tokens=sum(run.lane_tokens for _, run in runs),
    )


def write_task_metrics(path, metrics: TaskMetrics):
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["metric", "value", "sd", "ci_low", "ci_high"])
        for name, b in (("auroc", metrics.auroc), ("auprc", metrics.auprc)):
            w.writerow([name, b.point, b.sd, b.ci_low, b.ci_high])
        w.writerow(["n_examples", metrics.n_examples, "", "", ""])
        w.writerow(["n_positive_labels", metrics.n_positive_labels, "", "", ""])
        w.writerow(["n_capped_estimates", metrics.n_capped, "", "", ""])
