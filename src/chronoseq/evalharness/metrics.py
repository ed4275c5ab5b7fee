"""AUROC / AUPRC estimators and bootstrap uncertainty.

AUROC is the Mann-Whitney statistic with ties counted half; AUPRC integrates
the precision envelope over recall steps. Both are pinned to O(n^2)
brute-force oracles in the test suite. Each is computed for a whole block of
bootstrap resamples at once, from every resample's counts of positives and
negatives at each distinct score; a plain call is the one-row case.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..codec import write_csv

__all__ = ["auroc", "auprc", "BootstrapResult", "bootstrap_metric", "write_metrics_csv"]


def _validate(scores, labels):
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.shape != y.shape or s.ndim != 1:
        raise ValueError("scores and labels must be 1-D and equal length")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be binary")
    y = y.astype(np.int64)
    n_pos = int(y.sum())
    if n_pos == 0 or n_pos == len(y):
        raise ValueError("need at least one positive and one negative example")
    return s, y, n_pos


def auroc(scores, labels) -> float:
    """Probability a random positive outscores a random negative (ties = 1/2)."""
    return float(_auroc_rows(*_one_row(scores, labels))[0])


def auprc(scores, labels) -> float:
    """Area under the precision envelope across recall steps."""
    return float(_auprc_rows(*_one_row(scores, labels))[0])


def _score_keys(s, y):
    """Each example's key 2 * (rank of its score among the distinct scores) + label,
    and the number of distinct scores."""
    values, rank = np.unique(s, return_inverse=True)
    return 2 * rank.reshape(-1) + y, values.size


def _counts(keys, n_values, idx):
    """Positives and negatives of each resample (a row of example indices) at
    each distinct score, lowest score first: two (R, n_values) integer arrays."""
    R = idx.shape[0]
    key = keys[idx]
    key += np.arange(0, R * 2 * n_values, 2 * n_values)[:, None]
    c = np.bincount(key.reshape(-1), minlength=R * 2 * n_values).reshape(R, n_values, 2)
    return c[:, :, 1], c[:, :, 0]


def _one_row(scores, labels):
    """The checked inputs' own counts, as one resample."""
    s, y, _ = _validate(scores, labels)
    return _counts(*_score_keys(s, y), np.arange(len(y))[None])


def _auroc_rows(pos, neg):
    """auroc of each row of counts. Each positive counts the negatives below it
    and half those tied with it; the numerator is an exact half-integer."""
    below = (pos * (np.cumsum(neg, axis=1) - neg)).sum(axis=1)
    tied = (pos * neg).sum(axis=1)
    return (below + 0.5 * tied) / (pos.sum(axis=1) * neg.sum(axis=1))


def _auprc_rows(pos, neg):
    """auprc of each row of counts. A threshold sits at each distinct score a
    row holds, highest first; its term is the recall step times the best
    precision at or beyond it."""
    pos, neg = pos[:, ::-1], neg[:, ::-1]
    held = np.logical_or(pos, neg)
    tp = np.cumsum(pos, axis=1)
    seen = np.cumsum(neg, axis=1)
    seen += tp
    # Before a row's first held score tp and seen are 0: a divisor of 1 reads precision 0 there. An unheld
    # score after it repeats the precision of the held score before it. Neither changes a held score's envelope.
    np.maximum(seen, 1, out=seen)
    env = tp / seen
    np.maximum.accumulate(env[:, ::-1], axis=1, out=env[:, ::-1])
    step = tp / tp[:, -1:]  # recall; an unheld score repeats the recall before it
    np.subtract(step[:, 1:], step[:, :-1], out=step[:, 1:])
    step *= env
    return _run_sums(np.compress(held.ravel(), step.ravel()), held.sum(axis=1))  # compress: a faster step[held]


def _run_sums(terms, lengths):
    """The sum of each row's run of terms, the runs laid end to end. Rows of one
    length are summed as one 2-D block over its last axis, which numpy sums
    pairwise per row exactly as np.sum sums that row alone."""
    out = np.empty(lengths.size)
    starts = np.cumsum(lengths) - lengths
    for k in np.unique(lengths):
        rows = np.flatnonzero(lengths == k)
        out[rows] = terms[starts[rows, None] + np.arange(k)].sum(axis=1)
    return out


_ROWS = {auroc: _auroc_rows, auprc: _auprc_rows}  # metric -> the same metric over rows of counts
_DRAW_CELLS = 1 << 17  # resample indices per block, to bound memory: a block takes under 100 bytes a cell


@dataclass(frozen=True)
class BootstrapResult:
    point: float
    sd: float
    ci_low: float
    ci_high: float
    n_resamples: int
    n_valid: int


def bootstrap_metric(scores, labels, metric_fn, n_resamples: int = 1000, seed: int = 0) -> BootstrapResult:
    """Percentile bootstrap of auroc or auprc: resample pairs, skip single-class resamples.

    Resample indices come from one rng call per block of resamples, which
    draws the same stream as one call per resample; the metric then runs
    over the whole block at once.
    """
    if metric_fn not in _ROWS:
        raise ValueError("metric_fn must be auroc or auprc")
    if n_resamples < 1:
        raise ValueError(f"n_resamples must be at least 1, got {n_resamples}")
    s, y, _ = _validate(scores, labels)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xB007]))
    point = metric_fn(s, y)
    rows, (keys, n_values) = _ROWS[metric_fn], _score_keys(s, y)
    n = len(s)
    values = []
    block = max(1, _DRAW_CELLS // n)
    for start in range(0, n_resamples, block):
        idx = rng.integers(0, n, size=(min(block, n_resamples - start), n))
        n_pos = y[idx].sum(axis=1)
        idx = idx[(n_pos > 0) & (n_pos < n)]
        if idx.size:
            values.append(rows(*_counts(keys, n_values, idx)))
    if not values:
        raise ValueError("every bootstrap resample was single-class")
    arr = np.concatenate(values)
    return BootstrapResult(
        point=point,
        sd=float(arr.std(ddof=1)) if len(arr) > 1 else 0.0,
        ci_low=float(np.percentile(arr, 2.5)),
        ci_high=float(np.percentile(arr, 97.5)),
        n_resamples=n_resamples,
        n_valid=len(arr),
    )


def write_metrics_csv(path, roc: BootstrapResult, prc: BootstrapResult, **values) -> None:
    """metric,value,sd,ci_low,ci_high rows: bootstrapped AUROC and AUPRC, then each
    plain value (in keyword order) with empty spread columns."""
    rows = [[name, b.point, b.sd, b.ci_low, b.ci_high] for name, b in (("auroc", roc), ("auprc", prc))]
    rows += [[name, value, "", "", ""] for name, value in values.items()]
    write_csv(path, ["metric", "value", "sd", "ci_low", "ci_high"], rows)
