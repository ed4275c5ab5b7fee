"""Autoregressive sampling with the standard decoding controls.

Control order is fixed and load-bearing: repetition penalty on the raw
logits, then temperature, then top-k, then nucleus (top-p), then a final
renormalization before drawing. With all controls neutral (penalty 1, T=1,
k=0, p=1) the draw follows the raw softmax distribution.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..codec import TokenSequence
from ..codec.tokens import TokenClass, classify_token
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
    checkpoint_id: str = ""
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
    """Raw next-token logits -> normalized sampling distribution.

    logits is one (V,) row with its context ids, or a (B, V) batch with one
    context per row; each row of a batch comes out bit-identical to the call
    on that row alone.
    """
    z = np.array(logits, dtype=np.float64)
    rows = z.reshape(-1, z.shape[-1])  # a view: edits below land in z
    contexts = [context_ids] if z.ndim == 1 else context_ids
    if cfg.repetition_penalty != 1.0:
        for row, context in zip(rows, contexts):
            if len(context) > 0:
                seen = np.unique(np.asarray(context, dtype=np.int64))
                vals = row[seen]
                row[seen] = np.where(vals > 0, vals / cfg.repetition_penalty, vals * cfg.repetition_penalty)
    z /= cfg.temperature
    if cfg.top_k and cfg.top_k < z.shape[-1]:
        cutoff = np.partition(z, -cfg.top_k, axis=-1)[..., -cfg.top_k, None]
        z[z < cutoff] = -np.inf
    top = z.max(axis=-1, keepdims=True)
    if not np.isfinite(top).all():  # a row holding +inf or nan: subtract its largest finite logit
        top = np.where(np.isfinite(z), z, -np.inf).max(axis=-1, keepdims=True)
    z -= top
    probs = np.exp(z, out=z)  # exp(-inf) underflows to an exact zero
    probs /= probs.sum(axis=-1, keepdims=True)
    if cfg.top_p < 1.0:
        for row in probs.reshape(-1, probs.shape[-1]):
            mask = np.zeros(row.shape, dtype=bool)
            mask[_nucleus(row, cfg.top_p)] = True
            row[~mask] = 0.0
            row /= row.sum()
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


def sample_token_id(probs: np.ndarray, rng: np.random.Generator):
    """One draw from a (V,) distribution, or one per row of a (B, V) batch
    from rng.random(B); row i draws what the (V,) call would with the i-th
    uniform."""
    csum = np.cumsum(probs, axis=-1)
    if csum.ndim == 1:
        return int(np.searchsorted(csum, rng.random() * csum[-1], side="right"))
    target = rng.random(csum.shape[0]) * csum[:, -1]
    return (csum <= target[:, None]).sum(axis=1)  # searchsorted(side="right") per row


def _check_prompt(tokens):
    if len(tokens) < 4:
        raise ValueError("prompt must start with the 4-token demographic prefix")
    want = (TokenClass.YEAR, TokenClass.AGE, TokenClass.GENDER, TokenClass.RACE)
    for i, cls in enumerate(want):
        if classify_token(tokens[i]) is not cls:
            raise ValueError(f"prompt token {i} ({tokens[i]!r}) is not a {cls.value} token")


def sample_sequence(
    model: TimelineModel,
    prompt_tokens,
    cfg: SamplingConfig,
    rng: np.random.Generator,
    person_id: str | None = None,
) -> TokenSequence:
    """Generate until [END] or the length cap; a capped sequence is flagged, not dropped."""
    prompt = tuple(prompt_tokens)
    _check_prompt(prompt)
    limit = min(cfg.max_tokens, model.config.context_window)
    if len(prompt) >= limit:
        raise ValueError(f"prompt of {len(prompt)} tokens leaves no room under the {limit}-token cap")
    session = InferenceSession(model)
    session.prefill([model.vocab.id_of(t) for t in prompt])
    tokens = list(prompt)
    end_id = model.vocab.end_id
    hit_max = False
    while True:
        probs = apply_decoding_controls(session.next_logits(), session.context_ids, cfg)
        tid = sample_token_id(probs, rng)
        tokens.append(model.vocab.token_of(tid))
        if tid == end_id:
            break
        if len(tokens) >= limit:
            hit_max = True
            break
        session.append(tid)
    return TokenSequence(tuple(tokens), person_id=person_id, hit_max_tokens=hit_max)
