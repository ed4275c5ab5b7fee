"""Monte-Carlo outcome estimation over simulated patient futures.

A simulation walks generated tokens, accruing elapsed days from time tokens.
It turns positive the moment an outcome concept (event or visit type) lands
inside the prediction window, negative once accrued time passes the window
end, and censored when the timeline ends ([END], or the new-token budget)
while the window is still open. Censored runs are discarded and replaced,
up to a resample cap so degenerate prefixes cannot livelock.

A patient's prefix is prefilled once; its futures then run in waves of
decoding lanes over that prefix, every lane advancing one token per step.
The first wave has n_simulations lanes; each later one has as many as the
completion rate observed so far says the missing futures need (the rate
floored at 1/RESAMPLE_CAP_FACTOR), at most MAX_LANES and never past the
attempt cap. Lanes count as attempts in lane order, up to the future that
completes the estimate; later lanes are discarded uncounted, so the
stopping rule and the estimate's distribution are those of running the
futures one after another. Each step draws every live lane's next token
from the model's own next-token distribution (the softmax of its logits, no
temperature, top-k, top-p or penalty), with one uniform per live lane from
the patient's own stream.

The waves of a whole cohort share one lane batch (simulate_cohort):
patients join while it has room, up to BATCH_LANES lanes, and leave once
their estimate is done, so a step carries the lanes of several patients
instead of one patient's stragglers. The batch cap is wider than the wave
cap, so the next patient's first wave can join before the running one is
down to its last few lanes.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..codec.tokens import TokenClass, att_days_of, classify_token, concept_id_of
from ..generation.sampling import sample_token_id
from ..model.inference import _softmax
from .tasks import TaskConfig, expand_outcomes

__all__ = ["SimulationEstimate", "CohortRun", "WindowRule", "classify_continuation", "simulate_probability",
           "simulate_cohort", "RESAMPLE_CAP_FACTOR", "MAX_LANES", "BATCH_LANES"]

RESAMPLE_CAP_FACTOR = 4
MAX_LANES = 64  # lanes of one wave; it fixes how a patient consumes its uniforms, and so its estimate
# Lanes of the whole batch, chosen by peak RSS on the benchmark's zeroshot
# cohorts (seed 1): 48.7 MB with a 64-lane batch, 50.1 MB at 96 and 52.2 MB
# at 128, against a 10% bound; 128 lanes ran about as fast as 96.
BATCH_LANES = 96

POSITIVE = "positive"
NEGATIVE = "negative"
CENSORED = "censored"

_OPEN, _POSITIVE, _NEGATIVE, _CENSORED = 0, 1, 2, 3  # verdict codes of WindowRule.step
_NAMES = {_POSITIVE: POSITIVE, _NEGATIVE: NEGATIVE, _CENSORED: CENSORED}
_COMPLETES = np.array([0, 1, 1, 0])  # per verdict code: does the future complete?


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


def classify_continuation(tokens, outcome_ids, window_start: int, window_end: int) -> str:
    """Classify one generated continuation against a prediction window (see WindowRule).

    A continuation that stops with the window still open ran out of token
    budget: censored, the same as [END] inside the window.
    """
    tokens = tuple(tokens)
    rule = WindowRule(tokens, outcome_ids, window_start, window_end)
    accrued = 0
    for j in range(len(tokens)):
        accrued, verdict = rule.step(accrued, j)
        if verdict != _OPEN:
            return _NAMES[int(verdict)]
    return CENSORED


def simulate_probability(
    model,
    prefix_tokens,
    task: TaskConfig,
    rng: np.random.Generator,
) -> SimulationEstimate:
    """Fraction of uncensored simulated futures in which the outcome occurs in-window.

    Runs until task.n_simulations uncensored trajectories are collected or
    the attempt cap (4x) is reached; a capped run reports the probability
    over the simulations that did complete, with the censoring counts as the
    diagnostic. This is simulate_cohort with one patient and no concept hierarchy.
    """
    return simulate_cohort(model, [prefix_tokens], [rng], task, expand_outcomes(task)).estimates[0]


@dataclass(frozen=True)
class CohortRun:
    estimates: list[SimulationEstimate]  # one per patient, in cohort order
    decode_steps: int  # batched sampling steps
    lane_tokens: int  # tokens sampled, summed over the lanes of every step


def simulate_cohort(model, prefixes, rngs, task: TaskConfig, outcome_ids) -> CohortRun:
    """One estimate per prefix, all patients' futures decoded in one shared lane batch.

    Patient i draws only from rngs[i]. A wave (at most MAX_LANES lanes)
    joins the batch when the batch has room for it, that is when its lanes
    and the live ones number at most BATCH_LANES, or when the batch is
    empty. A patient's next wave waits from the step its previous wave
    decides; waiting waves join first, in that order, and while none waits
    the next patients are admitted as long as their first wave fits: a
    patient's prefix is prefilled on admission, and its session is released
    once its estimate is done. Each step samples one token per lane from one
    batched logits call, each patient drawing rng.random(its live lanes), so
    a patient's estimate does not depend on which patients share the batch,
    nor on BATCH_LANES; only the number of steps does. One WindowRule pass
    then classifies every live lane's token.
    """
    vocab = model.vocab
    rule = WindowRule(vocab.tokens, outcome_ids, task.prediction_window_start, task.prediction_window_end)
    estimates: list[SimulationEstimate | None] = [None] * len(prefixes)
    queue = iter(range(len(prefixes)))
    batch = None
    active: list[_Patient] = []  # patients with a wave in the batch, in row order
    waiting: deque[_Patient] = deque()  # patients whose next wave waits for room, oldest first
    steps = lane_tokens = 0

    def room_for(width):
        return not active or batch.n_lanes + width <= BATCH_LANES

    while True:
        while waiting and room_for(waiting[0].width):
            p = waiting.popleft()
            batch = p.join(batch)
            active.append(p)
        while not waiting and room_for(min(task.n_simulations, MAX_LANES)):
            i = next(queue, None)
            if i is None:
                break
            p = _Patient(i, model, prefixes[i], task, rngs[i])
            if p.done:
                estimates[i] = p.estimate()
            else:
                batch = p.join(batch)
                active.append(p)
        if not active:
            return CohortRun(estimates, steps, lane_tokens)
        uniforms = np.concatenate([p.rng.random(p.n_live) for p in active])
        ids = sample_token_id(_softmax(batch.next_logits()), uniforms)
        steps += 1
        lane_tokens += ids.size
        accrued, verdict = rule.step(np.concatenate([p.accrued for p in active]), ids)
        kept, stepping, lo = [], [], 0
        for p in active:
            hi = lo + p.n_live
            rows = p.step(accrued[lo:hi], verdict[lo:hi])
            if rows.size:
                kept.append(lo + rows)
                stepping.append(p)
            elif p.done:
                estimates[p.index] = p.estimate()
            else:
                waiting.append(p)
            lo = hi
        active = stepping
        idx = np.concatenate(kept) if kept else np.empty(0, dtype=np.int64)
        if idx.size < ids.size:
            batch.keep(idx)
        if active:
            batch.append(ids[idx])


class _Patient:
    """One patient's futures as a state machine of waves over a shared lane batch.

    The first wave has n_simulations lanes; each later one as many as the
    completion rate so far says the missing futures need. A wave's lanes
    count in lane order up to the need-th completion; a lane stops as soon
    as `need` completions lie before it, and lanes still open when the token
    budget runs out are censored.
    """

    def __init__(self, index, model, prefix_tokens, task, rng):
        session = model.open_session()
        session.prefill([model.vocab.id_of(t) for t in prefix_tokens])
        self.index, self.session, self.rng = index, session, rng
        self.budget = min(task.max_new_tokens, model.config.context_window - session.length)
        self.n = task.n_simulations
        self.cap = RESAMPLE_CAP_FACTOR * self.n
        self.positives = self.completed = self.censored = self.attempts = self.lanes = 0
        self.live = np.empty(0, dtype=np.int64)
        while self.budget == 0 and not self.done:  # no room to decode: every wave censors at once
            self._launch()
            self._close()

    @property
    def done(self) -> bool:
        return self.completed >= self.n or self.attempts >= self.cap

    @property
    def n_live(self) -> int:
        return self.live.size

    @property
    def width(self) -> int:
        """Lanes of the next wave."""
        need = self.n - self.completed
        if self.attempts == 0:
            width = need
        elif RESAMPLE_CAP_FACTOR * self.completed <= self.attempts:
            width = RESAMPLE_CAP_FACTOR * need
        else:
            width = -(-need * self.attempts // self.completed)  # ceil(need / observed completion rate)
        return min(width, self.cap - self.attempts, MAX_LANES)

    def join(self, batch):
        """Launch the next wave into batch (forked from the session when there is none yet)."""
        width = self._launch()
        if batch is None:
            return self.session.fork(width)
        batch.join(self.session, width)
        return batch

    def _launch(self) -> int:
        width = self.width
        self.lanes += width
        self.need, self.steps = self.n - self.completed, 0
        self.verdicts = np.full(width, _OPEN)
        self.live = np.arange(width)  # lane number of each of this patient's rows
        self.accrued = np.zeros(width, dtype=np.int64)
        return width

    def step(self, accrued, verdict) -> np.ndarray:
        """Take the live lanes' accrued days and verdicts after one token each
        (WindowRule.step); returns the positions of the lanes that go on
        stepping (none once the wave has decided)."""
        self.verdicts[self.live] = verdict
        completions = np.cumsum(_COMPLETES[self.verdicts])
        still = (verdict == _OPEN) & (completions[self.live] < self.need)
        self.steps += 1
        if not still.any() or self.steps == self.budget:
            self._close()
            return np.empty(0, dtype=np.int64)
        rows = np.flatnonzero(still)
        self.live, self.accrued = self.live[rows], accrued[rows]
        return rows

    def _close(self) -> None:
        """Count the wave's verdicts through the need-th completion, if any."""
        v = self.verdicts
        completions = np.cumsum(_COMPLETES[v])
        v[v == _OPEN] = _CENSORED
        wave = v[: np.searchsorted(completions, self.need) + 1]
        self.attempts += wave.size
        self.censored += int((wave == _CENSORED).sum())
        self.positives += int((wave == _POSITIVE).sum())
        self.completed = self.attempts - self.censored
        self.live = np.empty(0, dtype=np.int64)

    def estimate(self) -> SimulationEstimate:
        return SimulationEstimate(
            probability=self.positives / self.completed if self.completed else 0.0,
            n_positive=self.positives,
            n_completed=self.completed,
            n_censored=self.censored,
            n_attempts=self.attempts,
            capped=self.completed < self.n,
            n_lanes=self.lanes,
        )
