"""Shared test fixtures: rigged models, independent oracles, tiny corpora."""
from __future__ import annotations

import numpy as np

from chronoseq.codec.vocab import Vocabulary

SPECIALS = ["[PAD]", "[VS]", "[VE]", "[LT]", "[END]"]


# ---------------------------------------------------------------------------
# rigged autoregressive model with a known transition matrix


class MarkovSession:
    def __init__(self, model, ids=None):
        self.model = model
        self._ids = list(ids or [])

    @property
    def context_ids(self):
        return self._ids

    @property
    def length(self):
        return len(self._ids)

    def prefill(self, ids):
        self._ids.extend(int(t) for t in ids)

    def append(self, tid):
        self._ids.append(int(tid))

    def fork(self, n):
        return MarkovLanes(self.model, self._ids, n)

    def next_logits(self):
        return self.model.logits_after(self._ids[-1])


class MarkovLanes:
    """n lanes over the Markov rows after a shared prefix, with the LaneBatch interface."""

    def __init__(self, model, prefix, n):
        self.model = model
        self._prefix = list(prefix)
        self._suffixes = [[] for _ in range(n)]

    @property
    def n_lanes(self):
        return len(self._suffixes)

    @property
    def context_ids(self):
        return [self._prefix + s for s in self._suffixes]

    def next_logits(self):
        return np.stack([self.model.logits_after((s or self._prefix)[-1]) for s in self._suffixes])

    def append(self, ids):
        for s, t in zip(self._suffixes, ids, strict=True):
            s.append(int(t))

    def keep(self, idx):
        self._suffixes = [self._suffixes[i] for i in idx]


class MarkovModel:
    """First-order chain exposed through the generation-session interface.

    transition maps token -> {next_token: probability}; tokens absent from a
    row are impossible (log-prob -1e30). States without a row fall back to
    the 'default' row.
    """

    def __init__(self, transition: dict, context_window: int = 4096, extra_tokens=()):
        tokens = list(SPECIALS)
        seen = set(tokens)
        for src, row in transition.items():
            for t in [src, *row]:
                if t not in seen and t != "default":
                    tokens.append(t)
                    seen.add(t)
        for t in extra_tokens:
            if t not in seen:
                tokens.append(t)
                seen.add(t)
        self.vocab = Vocabulary(tokens)
        self.transition = transition

        class _Cfg:
            pass

        self.config = _Cfg()
        self.config.context_window = context_window
        self._logit_cache = {}

    def row_for(self, token: str) -> dict:
        return self.transition.get(token) or self.transition["default"]

    def logits_after(self, last_id: int) -> np.ndarray:
        if last_id in self._logit_cache:
            return self._logit_cache[last_id]
        row = self.row_for(self.vocab.token_of(last_id))
        z = np.full(len(self.vocab), -1e30)
        for tok, p in row.items():
            z[self.vocab.id_of(tok)] = np.log(p)
        self._logit_cache[last_id] = z
        return z

    def open_session(self):
        return MarkovSession(self)


def enumerate_outcome_probability(model: MarkovModel, prompt_last: str, outcome_ids, window_start, window_end,
                                  max_new_tokens: int):
    """Exact (P_positive, P_negative, P_censored) by exhaustive continuation
    enumeration, mirroring the simulator's classification rules."""
    from chronoseq.codec.tokens import TokenClass, att_days_of, classify_token, concept_id_of

    totals = {"positive": 0.0, "negative": 0.0, "censored": 0.0}

    def walk(last_tok, accrued, depth, prob):
        if depth == max_new_tokens:
            totals["censored"] += prob
            return
        for tok, p in model.row_for(last_tok).items():
            pr = prob * p
            cls = classify_token(tok)
            if cls is TokenClass.END:
                totals["censored"] += pr
                continue
            if cls in (TokenClass.ATT_DAY, TokenClass.ATT_LT):
                acc2 = accrued + att_days_of(tok)
                if acc2 > window_end:
                    totals["negative"] += pr
                else:
                    walk(tok, acc2, depth + 1, pr)
                continue
            if cls in (TokenClass.CONCEPT, TokenClass.VT) and concept_id_of(tok) in outcome_ids \
                    and window_start <= accrued <= window_end:
                totals["positive"] += pr
                continue
            walk(tok, accrued, depth + 1, pr)

    walk(prompt_last, 0, 0, 1.0)
    return totals["positive"], totals["negative"], totals["censored"]


# ---------------------------------------------------------------------------
# independent metric oracles (quadratic, threshold-sweep based)


def auroc_bruteforce(scores, labels) -> float:
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = ties = 0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1
            elif p == n:
                ties += 1
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def auprc_bruteforce(scores, labels) -> float:
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    n_pos = int(labels.sum())
    points = []
    for t in sorted(set(scores.tolist()), reverse=True):
        pred = scores >= t
        tp = int((pred & (labels == 1)).sum())
        fp = int((pred & (labels == 0)).sum())
        points.append((tp / n_pos, tp / (tp + fp)))
    points.sort()
    area = 0.0
    prev_r = 0.0
    for i, (r, _) in enumerate(points):
        env = max(p for rr, p in points if rr >= r)
        area += (r - prev_r) * env
        prev_r = r
    return area


# ---------------------------------------------------------------------------
# exact chi-square survival function for even degrees of freedom


def chi2_sf_even(x: float, dof: int) -> float:
    """P(X > x) for chi-square with even dof: exp(-x/2) * sum (x/2)^k / k!."""
    if dof % 2 != 0 or dof <= 0:
        raise ValueError("even positive dof only")
    m = dof // 2
    half = x / 2.0
    term = 1.0
    acc = 1.0
    for k in range(1, m):
        term *= half / k
        acc += term
    return float(np.exp(-half) * acc)
