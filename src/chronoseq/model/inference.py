"""Plain-numpy inference: an incremental KV-cached decoding session.

The session computes what the differentiable forward computes (pre-norm
blocks, tanh GELU, tied output head) but builds no graph, so token-by-token
generation stays cheap. One block loop serves a whole prompt and a single
new token alike; a unit test pins it to the autodiff forward. Per-session
caches only; the causal mask is built once per context size and shared.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .bundle import TimelineModel

__all__ = ["InferenceSession", "extract_representation"]


def _gelu(x):
    c = np.sqrt(2.0 / np.pi)
    return 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x * x * x)))


def _layer_norm(x, g, b, eps=1e-5):
    xc = x - x.mean(axis=-1, keepdims=True)
    var = (xc * xc).mean(axis=-1, keepdims=True)  # what x.var computes, without its Python overhead
    return g * xc / np.sqrt(var + eps) + b


def _softmax(x):
    m = x.max(axis=-1, keepdims=True)
    e = np.exp(x - m)
    return e / e.sum(axis=-1, keepdims=True)


@lru_cache(maxsize=8)
def _causal_mask(n: int) -> np.ndarray:
    """(n, n) additive mask: row i sees columns 0..i."""
    mask = np.triu(np.full((n, n), -np.inf), k=1)
    mask.flags.writeable = False
    return mask


class InferenceSession:
    """Autoregressive decoding state over frozen parameters (dropout off)."""

    def __init__(self, model: TimelineModel):
        self.model = model
        cfg = model.config
        self._w = {name: t.data for name, t in model.params.items()}
        self._H, self._dh = cfg.n_heads, cfg.head_dim
        cap = cfg.context_window
        self._k = [np.empty((self._H, cap, self._dh)) for _ in range(cfg.n_layers)]
        self._v = [np.empty((self._H, cap, self._dh)) for _ in range(cfg.n_layers)]
        self._len = 0
        self._ids: list[int] = []
        self._last_hidden: np.ndarray | None = None
        self._last_logits: np.ndarray | None = None

    @property
    def length(self) -> int:
        return self._len

    @property
    def context_ids(self) -> list[int]:
        return self._ids

    def clone(self) -> "InferenceSession":
        """Independent copy of the decoding state (shares the frozen weights)."""
        other = object.__new__(InferenceSession)
        other.model = self.model
        other._w = self._w
        other._H, other._dh = self._H, self._dh
        other._k = [k.copy() for k in self._k]
        other._v = [v.copy() for v in self._v]
        other._len = self._len
        other._ids = list(self._ids)
        other._last_hidden = None if self._last_hidden is None else self._last_hidden.copy()
        other._last_logits = None if self._last_logits is None else self._last_logits.copy()
        return other

    def prefill(self, token_ids) -> None:
        """Process a prompt, or the next chunk of one, in one pass."""
        self._advance(np.asarray(token_ids, dtype=np.int64))

    def append(self, token_id: int) -> None:
        """Advance the session by one token."""
        self._advance(np.array([int(token_id)]))

    def _advance(self, ids) -> None:
        """Run the pre-norm blocks over ids at positions length.., filling the caches."""
        T = ids.shape[0]
        base = self._len
        cfg = self.model.config
        if base + T > cfg.context_window:
            raise ValueError(f"{base} + {T} tokens exceed the {cfg.context_window}-token context window")
        if T == 0:
            return
        w = self._w
        H, dh = self._H, self._dh
        causal = _causal_mask(cfg.context_window)[base : base + T, : base + T]
        x = w["tok_emb"][ids]
        for i in range(cfg.n_layers):
            p = f"block{i}."
            a = _layer_norm(x, w[p + "ln1.g"], w[p + "ln1.b"])
            qkv = a @ w[p + "qkv.w"] + w[p + "qkv.b"]
            qkv = qkv.reshape(T, 3, H, dh).transpose(1, 2, 0, 3)  # (3, H, T, dh)
            q, k, v = qkv[0], qkv[1], qkv[2]
            self._k[i][:, base : base + T] = k
            self._v[i][:, base : base + T] = v
            keys = self._k[i][:, : base + T]
            vals = self._v[i][:, : base + T]
            scores = q @ keys.transpose(0, 2, 1) / np.sqrt(dh) + causal
            ctx = _softmax(scores) @ vals  # (H, T, dh)
            ctx = ctx.transpose(1, 0, 2).reshape(T, H * dh)
            x = x + ctx @ w[p + "proj.w"] + w[p + "proj.b"]
            b = _layer_norm(x, w[p + "ln2.g"], w[p + "ln2.b"])
            x = x + _gelu(b @ w[p + "ff1.w"] + w[p + "ff1.b"]) @ w[p + "ff2.w"] + w[p + "ff2.b"]
        self._len = base + T
        self._ids.extend(int(t) for t in ids)
        self._last_hidden = _layer_norm(x[-1], w["final_ln.g"], w["final_ln.b"])
        self._last_logits = self._last_hidden @ w["tok_emb"].T

    def next_logits(self) -> np.ndarray:
        if self._last_logits is None:
            raise RuntimeError("session is empty; prefill or append first")
        return self._last_logits

    def last_hidden(self) -> np.ndarray:
        if self._last_hidden is None:
            raise RuntimeError("session is empty; prefill or append first")
        return self._last_hidden


def extract_representation(model: TimelineModel, tokens) -> np.ndarray:
    """Final-layer hidden state at the last non-pad position; dimension embed_dim."""
    if len(tokens) == 0:
        raise ValueError("cannot extract a representation from an empty sequence")
    pad_id = model.vocab.pad_id
    if tokens and isinstance(tokens[0], str):
        ids = [model.vocab.id_of(t) for t in tokens]
    else:
        ids = [int(t) for t in tokens]
    while ids and ids[-1] == pad_id:
        ids.pop()
    if not ids:
        raise ValueError("sequence contains only padding")
    session = InferenceSession(model)
    session.prefill(ids)
    return session.last_hidden().copy()
