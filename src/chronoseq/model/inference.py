"""Plain-numpy inference: an incremental KV-cached decoding session and decoding lanes.

The session computes what the differentiable forward computes (pre-norm
blocks, tanh GELU, tied output head) but builds no graph, so token-by-token
generation stays cheap. One block function serves a whole prompt, a single
new token and a batch of lanes alike; only the attention step differs. A unit
test pins it to the autodiff forward. Per-session caches only; the causal
mask is built once per context size and shared.

A session's prefix can be forked into lanes that decode in lockstep: every
lane reads the prefix keys and values from the session in place and keeps
only its own suffix, so many futures of one prompt share one prefix cache.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .bundle import TimelineModel

__all__ = ["InferenceSession", "LaneBatch", "extract_representation"]

_LANE_START_CAP = 8  # suffix slots per lane before the first doubling


def _gelu(x):
    c = np.sqrt(2.0 / np.pi)
    return 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x * x * x)))


def _layer_norm(x, g, b, eps=1e-5):
    n = x.shape[-1]  # sum / n is what mean computes, without its Python overhead
    xc = x - x.sum(axis=-1, keepdims=True) / n
    var = (xc * xc).sum(axis=-1, keepdims=True) / n
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


def _blocks(w, cfg, x, attend) -> np.ndarray:
    """The pre-norm blocks over x (..., T, d); returns the final-normed last row (..., d).

    attend(layer, q, k, v) gets the (..., H, T, dh) projections of the new
    tokens, caches k and v, and returns the (..., H, T, dh) attention context.
    """
    *lead, T, _ = x.shape
    H, dh = cfg.n_heads, cfg.head_dim
    n = len(lead)
    to_heads = (n + 1, *range(n), n + 2, n, n + 3)  # (..., T, 3, H, dh) -> (3, ..., H, T, dh)
    for i in range(cfg.n_layers):
        p = f"block{i}."
        a = _layer_norm(x, w[p + "ln1.g"], w[p + "ln1.b"])
        qkv = (a @ w[p + "qkv.w"] + w[p + "qkv.b"]).reshape(*lead, T, 3, H, dh).transpose(to_heads)
        ctx = attend(i, qkv[0], qkv[1], qkv[2]).swapaxes(-3, -2).reshape(*lead, T, H * dh)
        x = x + ctx @ w[p + "proj.w"] + w[p + "proj.b"]
        b = _layer_norm(x, w[p + "ln2.g"], w[p + "ln2.b"])
        x = x + _gelu(b @ w[p + "ff1.w"] + w[p + "ff1.b"]) @ w[p + "ff2.w"] + w[p + "ff2.b"]
    return _layer_norm(x[..., -1, :], w["final_ln.g"], w["final_ln.b"])


def _check_room(used: int, adding: int, window: int) -> None:
    if used + adding > window:
        raise ValueError(f"{used} + {adding} tokens exceed the {window}-token context window")


class InferenceSession:
    """Autoregressive decoding state over frozen parameters (dropout off)."""

    def __init__(self, model: TimelineModel):
        self.model = model
        cfg = model.config
        self._w = {name: t.data for name, t in model.params.items()}
        shape = (cfg.n_heads, cfg.context_window, cfg.head_dim)
        self._k = [np.empty(shape) for _ in range(cfg.n_layers)]
        self._v = [np.empty(shape) for _ in range(cfg.n_layers)]
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

    def prefill(self, token_ids) -> None:
        """Process a prompt, or the next chunk of one, in one pass."""
        self._advance(np.asarray(token_ids, dtype=np.int64))

    def append(self, token_id: int) -> None:
        """Advance the session by one token."""
        self._advance(np.array([int(token_id)]))

    def fork(self, n: int) -> "LaneBatch":
        """n lanes that decode in lockstep after this session's tokens.

        The lanes read this session's caches in place; advancing the session
        afterwards leaves them unaffected, since they look only at the first
        `length` positions.
        """
        return LaneBatch(self, n)

    def _advance(self, ids) -> None:
        """Run the blocks over ids at positions length.., filling the caches."""
        T = ids.shape[0]
        base = self._len
        cfg = self.model.config
        _check_room(base, T, cfg.context_window)
        if T == 0:
            return
        causal = _causal_mask(cfg.context_window)[base : base + T, : base + T]
        scale = np.sqrt(cfg.head_dim)

        def attend(i, q, k, v):
            self._k[i][:, base : base + T] = k
            self._v[i][:, base : base + T] = v
            keys = self._k[i][:, : base + T]
            scores = q @ keys.transpose(0, 2, 1) / scale + causal
            return _softmax(scores) @ self._v[i][:, : base + T]

        self._last_hidden = _blocks(self._w, cfg, self._w["tok_emb"][ids], attend)
        self._last_logits = self._last_hidden @ self._w["tok_emb"].T
        self._len = base + T
        self._ids.extend(int(t) for t in ids)

    def next_logits(self) -> np.ndarray:
        if self._last_logits is None:
            raise RuntimeError("session is empty; prefill or append first")
        return self._last_logits

    def last_hidden(self) -> np.ndarray:
        if self._last_hidden is None:
            raise RuntimeError("session is empty; prefill or append first")
        return self._last_hidden


class LaneBatch:
    """B lanes decoding in lockstep after a parent session's prefix.

    Each lane has its own suffix cache of shape (B, H, cap, dh) per layer,
    which starts small and doubles as the lanes grow; the prefix keys and
    values are never copied. A lane attends over the prefix and its own
    suffix with one softmax.
    """

    def __init__(self, parent: InferenceSession, n: int):
        if n < 1:
            raise ValueError("a lane batch needs at least one lane")
        hidden = parent.last_hidden()  # raises on an empty session
        cfg = parent.model.config
        self._parent, self._cfg, self._w = parent, cfg, parent._w
        self._prefix_len = parent.length
        self._prefix_ids = np.asarray(parent.context_ids, dtype=np.int64)
        cap = max(1, min(_LANE_START_CAP, cfg.context_window - self._prefix_len))
        shape = (n, cfg.n_heads, cap, cfg.head_dim)
        self._k = [np.empty(shape) for _ in range(cfg.n_layers)]
        self._v = [np.empty(shape) for _ in range(cfg.n_layers)]
        self._ids = np.empty((n, cap), dtype=np.int64)
        self._len = 0
        self._hidden = np.broadcast_to(hidden, (n, hidden.shape[0]))

    @property
    def n_lanes(self) -> int:
        return self._ids.shape[0]

    @property
    def length(self) -> int:
        """Tokens per lane, prefix included."""
        return self._prefix_len + self._len

    @property
    def context_ids(self) -> np.ndarray:
        """(B, length) token ids of every lane, prefix included."""
        B = self.n_lanes
        return np.concatenate([np.broadcast_to(self._prefix_ids, (B, self._prefix_len)),
                               self._ids[:, : self._len]], axis=1)

    def next_logits(self) -> np.ndarray:
        """(B, V) next-token logits, one row per lane, computed on each call
        (the batch keeps only the (B, d) final hidden states)."""
        return self._hidden @ self._w["tok_emb"].T

    def keep(self, idx) -> None:
        """Compact the batch to the lanes at idx, in that order."""
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size == 0:
            raise ValueError("a lane batch needs at least one lane")
        self._k = [k[idx] for k in self._k]
        self._v = [v[idx] for v in self._v]
        self._ids = self._ids[idx]
        self._hidden = self._hidden[idx]

    def append(self, ids) -> None:
        """Advance every lane by one token; ids holds one token id per lane."""
        ids = np.asarray(ids, dtype=np.int64)
        if ids.shape != (self.n_lanes,):
            raise ValueError(f"expected {self.n_lanes} token ids, got shape {ids.shape}")
        cfg, w = self._cfg, self._w
        _check_room(self.length, 1, cfg.context_window)
        if self._len == self._ids.shape[1]:
            self._grow()
        P, L = self._prefix_len, self._len
        scale = 1.0 / np.sqrt(cfg.head_dim)

        def attend(i, q, k, v):
            sk, sv = self._k[i], self._v[i]
            sk[:, :, L] = k[:, :, 0]
            sv[:, :, L] = v[:, :, 0]
            q = q[:, :, 0] * scale  # (B, H, dh)
            pre = q.transpose(1, 0, 2) @ self._parent._k[i][:, :P].transpose(0, 2, 1)  # (H, B, P)
            suf = q[:, :, None] @ sk[:, :, : L + 1].transpose(0, 1, 3, 2)  # (B, H, 1, L + 1)
            probs = _softmax(np.concatenate([pre.transpose(1, 0, 2)[:, :, None], suf], axis=-1))
            pre_ctx = probs[:, :, 0, :P].transpose(1, 0, 2) @ self._parent._v[i][:, :P]  # (H, B, dh)
            return probs[..., P:] @ sv[:, :, : L + 1] + pre_ctx.transpose(1, 0, 2)[:, :, None]

        self._hidden = _blocks(w, cfg, w["tok_emb"][ids][:, None], attend)
        self._ids[:, L] = ids
        self._len = L + 1

    def _grow(self) -> None:
        cap = self._ids.shape[1]
        new = min(2 * cap, self._cfg.context_window - self._prefix_len)
        pad = [(0, 0)] * 2 + [(0, new - cap), (0, 0)]
        self._k = [np.pad(k, pad) for k in self._k]
        self._v = [np.pad(v, pad) for v in self._v]
        self._ids = np.pad(self._ids, [(0, 0), (0, new - cap)])


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
