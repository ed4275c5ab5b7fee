"""Monte-Carlo outcome estimation over simulated patient futures.

A simulation walks generated tokens, accruing elapsed days from time tokens.
It turns positive the moment an outcome concept (event or visit type) lands
inside the prediction window, negative once accrued time passes the window
end, and censored when the timeline ends ([END], or the new-token budget)
while the window is still open. Censored runs are discarded and replaced,
up to a resample cap so degenerate prefixes cannot livelock.

The patient's prefix is prefilled once; futures then run in waves of
decoding lanes forked from it, every lane advancing one token per step. The
first wave has n_simulations lanes; each later one has as many as the
completion rate observed so far says the missing futures need (the rate
floored at 1/RESAMPLE_CAP_FACTOR), at most MAX_LANES and never past the
attempt cap. Lanes count as attempts in lane order, up to the future that
completes the estimate; later lanes are discarded uncounted, so the
stopping rule and the estimate's distribution are those of running the
futures one after another. Each step draws one uniform per live lane from
the patient's own stream.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..codec.tokens import TokenClass, att_days_of, classify_token, concept_id_of
from ..generation.sampling import SamplingConfig, apply_decoding_controls, sample_token_id
from .tasks import TaskConfig, expand_outcomes

__all__ = ["SimulationEstimate", "WindowRule", "classify_continuation", "simulate_probability",
           "RESAMPLE_CAP_FACTOR", "MAX_LANES"]

RESAMPLE_CAP_FACTOR = 4
MAX_LANES = 64

POSITIVE = "positive"
NEGATIVE = "negative"
CENSORED = "censored"

_OPEN, _POSITIVE, _NEGATIVE, _CENSORED = 0, 1, 2, 3  # verdict codes of WindowRule.step
_NAMES = {_POSITIVE: POSITIVE, _NEGATIVE: NEGATIVE, _CENSORED: CENSORED}

_NEUTRAL = SamplingConfig(max_tokens=10**9, min_tokens=0)


@dataclass(frozen=True)
class SimulationEstimate:
    probability: float
    n_positive: int
    n_completed: int
    n_censored: int
    n_attempts: int
    capped: bool
    n_lanes: int = 0  # lanes launched (0: not recorded); those past n_attempts were discarded uncounted


@lru_cache(maxsize=8)
def _token_table(tokens: tuple) -> tuple[np.ndarray, ...]:
    """(days, is_time, is_concept, concept id, is_end) per token, read-only; built once per vocabulary."""
    classes = [classify_token(t) for t in tokens]
    is_time = [c in (TokenClass.ATT_DAY, TokenClass.ATT_LT) for c in classes]
    is_concept = [c in (TokenClass.CONCEPT, TokenClass.VT) for c in classes]
    table = (np.array([att_days_of(t) if time else 0 for t, time in zip(tokens, is_time)], dtype=np.int64),
             np.array(is_time, dtype=bool),
             np.array(is_concept, dtype=bool),
             np.array([concept_id_of(t) if c else 0 for t, c in zip(tokens, is_concept)], dtype=np.int64),
             np.array([c is TokenClass.END for c in classes], dtype=bool))
    for column in table:
        column.flags.writeable = False
    return table


class WindowRule:
    """The in-window outcome rule as a per-token table of (days, is_time, is_outcome, is_end).

    Time accrues only at time tokens (inter-visit and intra-visit); events
    inside a visit share the visit's accumulated time. Occurrences before
    window_start do not count.
    """

    def __init__(self, tokens, outcome_ids, window_start: int, window_end: int):
        self.days, self.is_time, is_concept, concepts, self.is_end = _token_table(tuple(tokens))
        self.is_outcome = is_concept & np.isin(concepts, list(outcome_ids))
        self.window_start, self.window_end = window_start, window_end

    def step(self, accrued, rows):
        """Advance futures by one token each: rows index the table.

        Returns (accrued days, verdict codes): 0 while the window is still
        open, then 1 positive, 2 negative, 3 censored.
        """
        accrued = accrued + self.days[rows]
        verdict = np.where(self.is_end[rows], _CENSORED, _OPEN)
        in_window = (self.window_start <= accrued) & (accrued <= self.window_end)
        verdict = np.where(self.is_outcome[rows] & in_window, _POSITIVE, verdict)
        verdict = np.where(self.is_time[rows] & (accrued > self.window_end), _NEGATIVE, verdict)
        return accrued, verdict


def classify_continuation(tokens, outcome_ids, window_start: int, window_end: int,
                          exhausted_budget: bool = True) -> str:
    """Classify one generated continuation against a prediction window (see WindowRule).

    exhausted_budget tells how to read a continuation that simply stops:
    True means the token budget ran out (censored, same as [END] inside the
    window).
    """
    tokens = tuple(tokens)
    rule = WindowRule(tokens, outcome_ids, window_start, window_end)
    accrued = 0
    for j in range(len(tokens)):
        accrued, verdict = rule.step(accrued, j)
        if verdict != _OPEN:
            return _NAMES[int(verdict)]
    return CENSORED if exhausted_budget else NEGATIVE


def simulate_probability(
    model,
    prefix_tokens,
    task: TaskConfig,
    rng: np.random.Generator,
    ancestry=None,
    sampling: SamplingConfig | None = None,
    outcome_ids=None,
) -> SimulationEstimate:
    """Fraction of uncensored simulated futures in which the outcome occurs in-window.

    Runs until task.n_simulations uncensored trajectories are collected or
    the attempt cap (4x) is reached; a capped run reports the probability
    over the simulations that did complete, with the censoring counts as the
    diagnostic.
    """
    if outcome_ids is None:
        outcome_ids = expand_outcomes(task, ancestry)
    sampling = sampling or _NEUTRAL
    vocab = model.vocab
    base = model.open_session() if hasattr(model, "open_session") else None
    if base is None:
        from ..model.inference import InferenceSession

        base = InferenceSession(model)
    base.prefill([vocab.id_of(t) for t in prefix_tokens])
    rule = WindowRule(vocab.tokens, outcome_ids, task.prediction_window_start, task.prediction_window_end)
    budget = min(task.max_new_tokens, model.config.context_window - base.length)

    n = task.n_simulations
    cap = RESAMPLE_CAP_FACTOR * n
    positives = completed = censored = attempts = lanes = 0
    while completed < n and attempts < cap:
        need = n - completed
        if attempts == 0:
            width = need
        elif RESAMPLE_CAP_FACTOR * completed <= attempts:
            width = RESAMPLE_CAP_FACTOR * need
        else:
            width = -(-need * attempts // completed)  # ceil(need / observed completion rate)
        width = min(width, cap - attempts, MAX_LANES)
        lanes += width
        wave = _run_wave(base, width, need, rule, budget, sampling, rng)
        attempts += wave.size
        censored += int((wave == _CENSORED).sum())
        positives += int((wave == _POSITIVE).sum())
        completed = attempts - censored
    prob = positives / completed if completed else 0.0
    return SimulationEstimate(
        probability=prob,
        n_positive=positives,
        n_completed=completed,
        n_censored=censored,
        n_attempts=attempts,
        capped=completed < n,
        n_lanes=lanes,
    )


def _run_wave(session, width, need, rule, budget, sampling, rng) -> np.ndarray:
    """Verdicts of `width` futures forked from session, in lane order, up to the need-th completion.

    A lane stops early once `need` futures before it have completed: the
    estimate will never count it. Lanes still open when the token budget
    runs out are censored.
    """
    verdicts = np.full(width, _OPEN)
    live = np.arange(width)  # lane number of each row of the batch
    accrued = np.zeros(width, dtype=np.int64)
    batch = session.fork(width) if budget > 0 else None
    for step in range(budget):
        ids = sample_token_id(apply_decoding_controls(batch.next_logits(), batch.context_ids, sampling), rng)
        accrued, verdicts[live] = rule.step(accrued, ids)
        completions = np.cumsum((verdicts == _POSITIVE) | (verdicts == _NEGATIVE))
        still = (verdicts[live] == _OPEN) & (completions[live] < need)  # need-th completion not yet behind
        if not still.any() or step == budget - 1:
            break
        if not still.all():
            keep = np.flatnonzero(still)
            batch.keep(keep)
            live, accrued, ids = live[keep], accrued[keep], ids[keep]
        batch.append(ids)
    completions = np.cumsum((verdicts == _POSITIVE) | (verdicts == _NEGATIVE))
    verdicts[verdicts == _OPEN] = _CENSORED
    return verdicts[: np.searchsorted(completions, need) + 1]  # through the need-th completion, if any
