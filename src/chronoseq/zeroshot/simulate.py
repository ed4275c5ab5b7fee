"""Monte-Carlo outcome estimation over simulated patient futures.

A simulation walks generated tokens, accruing elapsed days from time tokens.
It turns positive the moment an outcome concept (event or visit type) lands
inside the prediction window, negative once accrued time passes the window
end, and censored when the timeline ends ([END], or the new-token budget)
while the window is still open. Censored runs are discarded and replaced,
up to a resample cap so degenerate prefixes cannot livelock.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..codec.tokens import TokenClass, att_days_of, classify_token, concept_id_of
from ..generation.sampling import SamplingConfig, apply_decoding_controls, sample_token_id
from .tasks import TaskConfig, expand_outcomes

__all__ = ["SimulationEstimate", "classify_continuation", "simulate_probability", "RESAMPLE_CAP_FACTOR"]

RESAMPLE_CAP_FACTOR = 4

POSITIVE = "positive"
NEGATIVE = "negative"
CENSORED = "censored"

_NEUTRAL = SamplingConfig(max_tokens=10**9, min_tokens=0)


@dataclass(frozen=True)
class SimulationEstimate:
    probability: float
    n_positive: int
    n_completed: int
    n_censored: int
    n_attempts: int
    capped: bool


def classify_continuation(tokens, outcome_ids, window_start: int, window_end: int,
                          exhausted_budget: bool = True) -> str:
    """Classify one generated continuation against a prediction window.

    Time accrues only at time tokens (inter-visit and intra-visit); events
    inside a visit share the visit's accumulated time. Occurrences before
    window_start do not count. exhausted_budget tells how to read a
    continuation that simply stops: True means the token budget ran out
    (censored, same as [END] inside the window).
    """
    accrued = 0
    for tok in tokens:
        cls = classify_token(tok)
        if cls in (TokenClass.ATT_DAY, TokenClass.ATT_LT):
            accrued += att_days_of(tok)
            if accrued > window_end:
                return NEGATIVE
        elif cls in (TokenClass.CONCEPT, TokenClass.VT):
            if concept_id_of(tok) in outcome_ids and window_start <= accrued <= window_end:
                return POSITIVE
        elif cls is TokenClass.END:
            return CENSORED
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
    prefix_ids = [vocab.id_of(t) for t in prefix_tokens]
    base = model.open_session() if hasattr(model, "open_session") else None
    if base is None:
        from ..model.inference import InferenceSession

        base = InferenceSession(model)
    base.prefill(prefix_ids)

    n = task.n_simulations
    cap = RESAMPLE_CAP_FACTOR * n
    positives = completed = censored = attempts = 0
    while completed < n and attempts < cap:
        attempts += 1
        session = base.clone()
        verdict = _run_one(session, model, task, outcome_ids, sampling, rng)
        if verdict == CENSORED:
            censored += 1
            continue
        completed += 1
        if verdict == POSITIVE:
            positives += 1
    prob = positives / completed if completed else 0.0
    return SimulationEstimate(
        probability=prob,
        n_positive=positives,
        n_completed=completed,
        n_censored=censored,
        n_attempts=attempts,
        capped=completed < n,
    )


def _run_one(session, model, task, outcome_ids, sampling, rng) -> str:
    budget = min(task.max_new_tokens, model.config.context_window - session.length)
    tokens = _sampled_tokens(session, model.vocab, sampling, rng, budget)
    return classify_continuation(tokens, outcome_ids, task.prediction_window_start, task.prediction_window_end)


def _sampled_tokens(session, vocab, sampling, rng, budget):
    """Up to budget sampled tokens; each is fed back only when the next one is asked for."""
    for _ in range(budget):
        probs = apply_decoding_controls(session.next_logits(), session.context_ids, sampling)
        tid = sample_token_id(probs, rng)
        yield vocab.token_of(tid)
        session.append(tid)
