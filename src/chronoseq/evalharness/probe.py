"""Linear probing: frozen-model representations into a logistic classifier."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..model import TimelineModel, extract_representation
from .logistic import fit_logistic
from .metrics import BootstrapResult, auprc, auroc, bootstrap_metric

__all__ = ["ProbeResult", "linear_probe"]


@dataclass
class ProbeResult:
    auroc: BootstrapResult
    auprc: BootstrapResult
    n_train: int
    n_test: int
    train_accuracy: float
    params_hash_before: str
    params_hash_after: str
    converged: bool  # the logistic fit reached its gradient tolerance
    n_iterations: int


def linear_probe(
    model: TimelineModel,
    labeled_sequences,
    l2: float = 1e-2,
    seed: int = 0,
    test_fraction: float = 0.5,
    n_bootstrap: int = 1000,
    max_iter: int = 5000,
) -> ProbeResult:
    """labeled_sequences: iterable of (tokens, label). The model stays frozen;
    only the logistic layer is trained, on a seeded split, and metrics are
    reported on the held-out part with bootstrap uncertainty."""
    data = list(labeled_sequences)
    if len(data) < 4:
        raise ValueError("need at least 4 labeled sequences to split")
    hash_before = model.params_hash()
    X = np.stack([extract_representation(model, tokens) for tokens, _ in data])
    y = np.array([int(lbl) for _, lbl in data])
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x9086]))
    order = rng.permutation(len(data))
    n_test = max(1, int(round(len(data) * test_fraction)))
    test_idx, train_idx = order[:n_test], order[n_test:]
    if len(set(y[train_idx])) < 2 or len(set(y[test_idx])) < 2:
        raise ValueError("split left a single-class side; adjust seed or test_fraction")
    clf = fit_logistic(X[train_idx], y[train_idx], l2=l2, max_iter=max_iter)
    scores = clf.decision(X[test_idx])
    return ProbeResult(
        auroc=bootstrap_metric(scores, y[test_idx], auroc, n_bootstrap, seed),
        auprc=bootstrap_metric(scores, y[test_idx], auprc, n_bootstrap, seed),
        n_train=len(train_idx),
        n_test=len(test_idx),
        train_accuracy=float((clf.predict(X[train_idx]) == y[train_idx]).mean()),
        params_hash_before=hash_before,
        params_hash_after=model.params_hash(),
        converged=clf.converged,
        n_iterations=clf.n_iterations,
    )
