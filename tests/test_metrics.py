import numpy as np
import pytest

from chronoseq.evalharness import BootstrapResult, auprc, auroc, bootstrap_metric, metrics
from helpers import auprc_bruteforce, auroc_bruteforce


def test_hand_case_auroc_eight_ninths():
    scores = [0.9, 0.8, 0.7, 0.6, 0.5, 0.4]
    labels = [1, 1, 0, 1, 0, 0]
    assert auroc(scores, labels) == pytest.approx(8 / 9, abs=1e-12)
    assert auroc_bruteforce(scores, labels) == pytest.approx(8 / 9, abs=1e-12)


def test_perfect_and_inverted_ordering():
    scores = [0.9, 0.8, 0.2, 0.1]
    assert auroc(scores, [1, 1, 0, 0]) == 1.0
    assert auroc(scores, [0, 0, 1, 1]) == 0.0
    assert auprc(scores, [1, 1, 0, 0]) == 1.0


def test_constant_scores_give_half_and_prevalence():
    scores = [0.5] * 10
    labels = [1, 0, 1, 0, 0, 0, 1, 0, 0, 0]
    assert auroc(scores, labels) == pytest.approx(0.5)
    assert auprc(scores, labels) == pytest.approx(0.3)  # prevalence


def test_single_class_rejected():
    with pytest.raises(ValueError):
        auroc([0.1, 0.2], [1, 1])
    with pytest.raises(ValueError):
        auprc([0.1, 0.2], [0, 0])


@pytest.mark.parametrize("n", [5, 17, 60, 200])
def test_auroc_matches_bruteforce_with_ties(n):
    rng = np.random.default_rng(n)
    for _ in range(8):
        scores = np.round(rng.random(n), 1)  # heavy ties
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        assert auroc(scores, labels) == pytest.approx(auroc_bruteforce(scores, labels), abs=1e-12)


@pytest.mark.parametrize("n", [5, 17, 60, 200])
def test_auprc_matches_bruteforce_with_ties(n):
    rng = np.random.default_rng(1000 + n)
    for _ in range(8):
        scores = np.round(rng.random(n), 1)
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        assert auprc(scores, labels) == pytest.approx(auprc_bruteforce(scores, labels), abs=1e-12)


def test_bootstrap_contains_point_and_is_deterministic():
    rng = np.random.default_rng(4)
    scores = rng.random(80)
    labels = (scores + rng.normal(scale=0.4, size=80) > 0.5).astype(int)
    b1 = bootstrap_metric(scores, labels, auroc, n_resamples=300, seed=11)
    b2 = bootstrap_metric(scores, labels, auroc, n_resamples=300, seed=11)
    assert b1 == b2
    assert b1.ci_low <= b1.point <= b1.ci_high
    assert b1.sd > 0


def test_bootstrap_width_shrinks_with_n():
    rng = np.random.default_rng(5)

    def width(n):
        scores = rng.random(n)
        labels = (scores + rng.normal(scale=0.6, size=n) > 0.5).astype(int)
        b = bootstrap_metric(scores, labels, auroc, n_resamples=400, seed=0)
        return b.ci_high - b.ci_low

    w_small = np.median([width(40) for _ in range(5)])
    w_big = np.median([width(640) for _ in range(5)])
    assert w_big < w_small


def _auroc_tie_loop(scores, labels):
    """AUROC by average ranks with a Python loop over tie groups (the former implementation)."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels).astype(np.int64)
    n_pos = int(y.sum())
    n_neg = len(y) - n_pos
    order = np.argsort(s, kind="mergesort")
    ranks = np.empty(len(s), dtype=np.float64)
    sorted_s = s[order]
    i = 0
    while i < len(s):
        j = i
        while j + 1 < len(s) and sorted_s[j + 1] == sorted_s[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    r_pos = ranks[y == 1].sum()
    return float((r_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def _bootstrap_one_draw_per_resample(scores, labels, metric_fn, n_resamples, seed):
    """The former bootstrap_metric: one rng call and one checked metric call per resample."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels).astype(np.int64)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xB007]))
    point = metric_fn(s, y)
    values = []
    for _ in range(n_resamples):
        idx = rng.integers(0, len(s), size=len(s))
        yt = y[idx]
        if yt.min() == yt.max():
            continue
        values.append(metric_fn(s[idx], yt))
    arr = np.array(values)
    return BootstrapResult(point=point, sd=float(arr.std(ddof=1)), ci_low=float(np.percentile(arr, 2.5)),
                           ci_high=float(np.percentile(arr, 97.5)), n_resamples=n_resamples, n_valid=len(arr))


@pytest.mark.parametrize("draw_cells", [None, 50])
@pytest.mark.parametrize("tied", [False, True])
@pytest.mark.parametrize("n", [7, 21, 150])
def test_bootstrap_matches_one_draw_per_resample_bit_for_bit(n, tied, draw_cells, monkeypatch):
    if draw_cells is not None:  # many small blocks of resamples per bootstrap
        monkeypatch.setattr(metrics, "_DRAW_CELLS", draw_cells)
    rng = np.random.default_rng(100 + n)
    scores = rng.random(n)
    if tied:
        scores = np.round(scores, 1)
    labels = (rng.random(n) < 0.3).astype(int)
    labels[:2] = (0, 1)
    for new_fn, old_fn in ((auroc, _auroc_tie_loop), (auprc, auprc)):
        assert new_fn(scores, labels) == old_fn(scores, labels)
        new = bootstrap_metric(scores, labels, new_fn, n_resamples=400, seed=n)
        old = _bootstrap_one_draw_per_resample(scores, labels, old_fn, 400, n)
        assert new == old
        if n == 7:  # some resamples of 7 pairs are single-class and skipped
            assert new.n_valid < 400
