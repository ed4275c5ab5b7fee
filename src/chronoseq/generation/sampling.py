"""Autoregressive sampling with the standard decoding controls.

Control order is fixed and load-bearing: repetition penalty on the raw
logits, then temperature, then top-k, then nucleus (top-p), then a final
renormalization before drawing. With all controls neutral (penalty 1, T=1,
k=0, p=1) the draw follows the raw softmax distribution.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..codec import TokenSequence, parse_prefix
from ..model import InferenceSession, TimelineModel

__all__ = ["SamplingConfig", "apply_decoding_controls", "sample_token_id", "sample_sequence"]


@dataclass(frozen=True)
class SamplingConfig:
    temperature: float = 1.0
    top_k: int = 0  # 0 disables
    top_p: float = 1.0
    repetition_penalty: float = 1.0
    max_tokens: int = 1024  # total sequence length cap
    min_tokens: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.temperature <= 0:
            raise ValueError("temperature must be > 0")
        if self.top_k < 0:
            raise ValueError("top_k must be >= 0")
        if not (0.0 < self.top_p <= 1.0):
            raise ValueError("top_p must lie in (0, 1]")
        if self.repetition_penalty < 1.0:
            raise ValueError("repetition_penalty must be >= 1")
        if self.max_tokens <= 0 or self.min_tokens < 0:
            raise ValueError("token limits must be positive")


_NUCLEUS_CANDIDATES = 64  # tokens sorted before falling back to a full-vocabulary sort


def apply_decoding_controls(logits, context_ids, cfg: SamplingConfig) -> np.ndarray:
    """Raw (V,) next-token logits and the ids read so far -> normalized sampling distribution."""
    z = np.array(logits, dtype=np.float64)
    if cfg.repetition_penalty != 1.0 and len(context_ids) > 0:
        seen = np.unique(np.asarray(context_ids, dtype=np.int64))
        vals = z[seen]
        z[seen] = np.where(vals > 0, vals / cfg.repetition_penalty, vals * cfg.repetition_penalty)
    if cfg.temperature != 1.0:  # dividing by 1 changes nothing
        z /= cfg.temperature
    if cfg.top_k and cfg.top_k < z.shape[-1]:
        cutoff = np.partition(z, -cfg.top_k)[-cfg.top_k]
        z[z < cutoff] = -np.inf
    top = z.max()
    if not np.isfinite(top):  # +inf or nan among the logits: subtract the largest finite one
        top = np.where(np.isfinite(z), z, -np.inf).max()
    z -= top
    probs = np.exp(z, out=z)  # exp(-inf) underflows to an exact zero
    probs /= probs.sum()
    if cfg.top_p < 1.0:
        mask = np.zeros(probs.shape, dtype=bool)
        mask[_nucleus(probs, cfg.top_p)] = True
        probs[~mask] = 0.0
        probs /= probs.sum()
    return probs


def _nucleus(p: np.ndarray, top_p: float) -> np.ndarray:
    """The smallest run of tokens, taken by (-p, index), whose mass reaches top_p (at least one).

    Only the candidates at or above the _NUCLEUS_CANDIDATES-th largest
    probability are sorted; their running sums are those of a full stable
    sort, so the full sort is needed only when they fall short of top_p.
    """
    if p.shape[0] > _NUCLEUS_CANDIDATES:
        kth = np.partition(p, -_NUCLEUS_CANDIDATES)[-_NUCLEUS_CANDIDATES]
        cand = np.flatnonzero(p >= kth)
        order = cand[np.argsort(-p[cand], kind="stable")]
        csum = np.cumsum(p[order])
        if csum[-1] >= top_p:
            return order[: int(np.searchsorted(csum, top_p, side="left")) + 1]
    order = np.argsort(-p, kind="stable")
    csum = np.cumsum(p[order])
    return order[: int(np.searchsorted(csum, top_p, side="left")) + 1]


_SPAN = 32  # tokens per span of a draw's first-level search


def sample_token_id(probs: np.ndarray, rng):
    """One draw from a (V,) distribution with a Generator, or one per row of a
    (B, V) batch with the (B,) uniforms already drawn. Row i draws what the
    (V,) call would from a Generator whose next uniform is the i-th.

    The draw inverts the running sum by indexed search: it sums each
    _SPAN-token span (the short tail span last), takes the running sum of
    those sums, finds the span where it passes u times the total, and runs
    the sum inside that span only. The (V,) draw is the one-row case of the
    (B, V) one, with the same arithmetic. Should rounding leave the target
    at or past the span's own running total, the draw is the span's last
    token of nonzero weight, so it is never a zero-weight or out-of-range id.
    """
    if probs.ndim == 1:
        csum = _span_sums(probs).cumsum()  # array methods: generation calls this once per token
        target = rng.random() * csum[-1]
        k = min(int(csum.searchsorted(target, side="right")), csum.size - 1)
        span = probs[k * _SPAN : (k + 1) * _SPAN]
        if k:
            target -= csum[k - 1]
        j = int(span.cumsum().searchsorted(target, side="right"))
        if j == span.size:
            j -= 1 + int((span[::-1] > 0).argmax())
        return k * _SPAN + j
    B, V = probs.shape
    csum = np.cumsum(_span_sums(probs), axis=1)
    target = np.asarray(rng) * csum[:, -1]
    k = np.minimum((csum <= target[:, None]).sum(axis=1), csum.shape[1] - 1)  # searchsorted(side="right") per row
    rows = np.arange(B)
    target -= np.where(k > 0, csum[rows, k - 1], 0.0)
    cols = (k * _SPAN)[:, None] + np.arange(_SPAN)
    span = probs[rows[:, None], np.minimum(cols, V - 1)]
    if V % _SPAN:
        span[cols >= V] = 0.0  # the tail span's missing tokens
    j = (np.cumsum(span, axis=1) <= target[:, None]).sum(axis=1)
    last = _SPAN - 1 - np.argmax(span[:, ::-1] > 0, axis=1)
    return k * _SPAN + np.minimum(j, last)


def _span_sums(probs):
    """The sums of each row's _SPAN-token spans, the tail span last."""
    full = probs.shape[-1] - probs.shape[-1] % _SPAN
    sums = probs[..., :full].reshape(*probs.shape[:-1], -1, _SPAN).sum(axis=-1)
    if full == probs.shape[-1]:
        return sums
    return np.concatenate((sums, probs[..., full:].sum(axis=-1, keepdims=True)), axis=-1)


def sample_sequence(
    model: TimelineModel,
    prompt_tokens,
    cfg: SamplingConfig,
    rng: np.random.Generator,
    person_id: str | None = None,
) -> TokenSequence:
    """Generate until [END] or the length cap; a capped sequence is flagged, not dropped."""
    prompt = tuple(prompt_tokens)
    parse_prefix(prompt)
    limit = min(cfg.max_tokens, model.config.context_window)
    if len(prompt) >= limit:
        raise ValueError(f"prompt of {len(prompt)} tokens leaves no room under the {limit}-token cap")
    ids = [model.vocab.id_of(t) for t in prompt]
    session = InferenceSession(model)
    session.prefill(ids)
    tokens = list(prompt)
    end_id = model.vocab.end_id
    hit_max = False
    while True:
        probs = apply_decoding_controls(session.next_logits(), ids, cfg)
        tid = sample_token_id(probs, rng)
        tokens.append(model.vocab.token_of(tid))
        if tid == end_id:
            break
        if len(tokens) >= limit:
            hit_max = True
            break
        session.append(tid)
        ids.append(tid)
    return TokenSequence(tuple(tokens), person_id=person_id, hit_max_tokens=hit_max)
