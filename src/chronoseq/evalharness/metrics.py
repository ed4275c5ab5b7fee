"""AUROC / AUPRC estimators and bootstrap uncertainty.

AUROC is the Mann-Whitney statistic with ties counted half; AUPRC integrates
the precision envelope over recall steps. Both are pinned to O(n^2)
brute-force oracles in the test suite.
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
    return _auroc(*_validate(scores, labels))


def _auroc(s, y, n_pos) -> float:
    """auroc of validated inputs. Each positive counts the negatives below it
    and half those tied with it; the numerator is an exact half-integer."""
    neg = np.sort(s[y == 0])
    pos = s[y == 1]
    below = np.searchsorted(neg, pos, side="left")
    tied = np.searchsorted(neg, pos, side="right") - below
    return float((below.sum() + 0.5 * tied.sum()) / (n_pos * (len(y) - n_pos)))


def auprc(scores, labels) -> float:
    """Area under the precision envelope across recall steps."""
    return _auprc(*_validate(scores, labels))


def _auprc(s, y, n_pos) -> float:
    """auprc of validated inputs."""
    order = np.argsort(-s, kind="mergesort")
    s_sorted = s[order]
    y_sorted = y[order]
    tp = np.cumsum(y_sorted)
    fp = np.cumsum(1 - y_sorted)
    # thresholds sit at the last index of each tied score group
    last_of_group = np.nonzero(np.append(np.diff(s_sorted) != 0, True))[0]
    precision = tp[last_of_group] / (tp[last_of_group] + fp[last_of_group])
    recall = tp[last_of_group] / n_pos
    # envelope: best precision achievable at or beyond each recall level
    env = np.maximum.accumulate(precision[::-1])[::-1]
    prev_recall = np.concatenate([[0.0], recall[:-1]])
    return float(np.sum((recall - prev_recall) * env))


_VALIDATED = {auroc: _auroc, auprc: _auprc}  # metric -> the same metric without input checks
_DRAW_CELLS = 1 << 20  # resample indices drawn per rng call, to bound memory


@dataclass(frozen=True)
class BootstrapResult:
    point: float
    sd: float
    ci_low: float
    ci_high: float
    n_resamples: int
    n_valid: int


def bootstrap_metric(scores, labels, metric_fn, n_resamples: int = 1000, seed: int = 0) -> BootstrapResult:
    """Percentile bootstrap: resample pairs, skip single-class resamples.

    Resample indices come from one rng call per block of resamples, which
    draws the same stream as one call per resample. The inputs are checked
    once; auroc and auprc then run without re-checking each resample.
    """
    s, y, _ = _validate(scores, labels)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xB007]))
    point = metric_fn(s, y)
    fn = _VALIDATED.get(metric_fn) or (lambda s_, y_, _n_pos: metric_fn(s_, y_))
    n = len(s)
    values = []
    block = max(1, _DRAW_CELLS // n)
    for start in range(0, n_resamples, block):
        idx = rng.integers(0, n, size=(min(block, n_resamples - start), n))
        ys = y[idx]
        n_pos = ys.sum(axis=1)
        for row in np.nonzero((n_pos > 0) & (n_pos < n))[0]:
            values.append(fn(s[idx[row]], ys[row], int(n_pos[row])))
    if not values:
        raise ValueError("every bootstrap resample was single-class")
    arr = np.array(values)
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
