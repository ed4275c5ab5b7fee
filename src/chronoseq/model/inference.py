"""Plain-numpy inference: an incremental KV-cached decoding session and decoding lanes.

The session computes what the differentiable forward computes (pre-norm
blocks, tanh GELU, tied output head) but builds no graph, so token-by-token
generation stays cheap. One block function serves a whole prompt, a single
new token and a batch of lanes alike; only the attention step differs. A unit
test pins it to the autodiff forward. Per-session caches only, grown by
doubling; the causal mask is built once per context size and shared.

Sessions' prefixes can be joined into one batch of lanes that decode in
lockstep: every lane reads its prefix keys and values from its session in
place and keeps only its own suffix, so many futures of one prompt share one
prefix cache, and lanes of different prompts share each step's dense work.
"""
from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from ..autodiff import GELU_A, GELU_C, LAYER_NORM_EPS

if TYPE_CHECKING:
    from .bundle import TimelineModel

__all__ = ["InferenceSession", "LaneBatch", "extract_representation"]

_LANE_START_CAP = 8  # suffix slots per lane before the first doubling


def _gelu(x):
    return 0.5 * x * (1.0 + np.tanh(GELU_C * (x + GELU_A * x * x * x)))


def _layer_norm(x, g, b):
    n = x.shape[-1]  # sum / n is what mean computes, without its Python overhead
    xc = x - x.sum(axis=-1, keepdims=True) / n
    var = (xc * xc).sum(axis=-1, keepdims=True) / n
    return g * xc / np.sqrt(var + LAYER_NORM_EPS) + b


def _softmax(x):
    """Softmax over the last axis, computed in x's own buffer: x is overwritten
    and returned, so callers pass an array nothing else reads (every caller
    passes one it has just computed) and a step holds no second copy of it."""
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


@lru_cache(maxsize=8)
def _causal_mask(n: int) -> np.ndarray:
    """(n, n) additive mask: row i sees columns 0..i."""
    mask = np.triu(np.full((n, n), -np.inf), k=1)
    mask.flags.writeable = False
    return mask


def _grown(a, axis: int, size: int) -> np.ndarray:
    """a with its `axis` extended to `size` slots; the new slots are left unset."""
    shape = list(a.shape)
    shape[axis] = size
    out = np.empty(shape, dtype=a.dtype)
    out[(slice(None),) * axis + (slice(0, a.shape[axis]),)] = a
    return out


def _dense(x, w, b):
    """x @ w + b over the last axis of x, as one 2-D matmul whatever the leading axes."""
    if x.ndim == 2:
        return x @ w + b
    return (x.reshape(-1, x.shape[-1]) @ w + b).reshape(*x.shape[:-1], w.shape[1])


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
        qkv = _dense(a, w[p + "qkv.w"], w[p + "qkv.b"]).reshape(*lead, T, 3, H, dh).transpose(to_heads)
        ctx = attend(i, qkv[0], qkv[1], qkv[2]).swapaxes(-3, -2).reshape(*lead, T, H * dh)
        x = x + _dense(ctx, w[p + "proj.w"], w[p + "proj.b"])
        b = _layer_norm(x, w[p + "ln2.g"], w[p + "ln2.b"])
        x = x + _dense(_gelu(_dense(b, w[p + "ff1.w"], w[p + "ff1.b"])), w[p + "ff2.w"], w[p + "ff2.b"])
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
        shape = (cfg.n_heads, 0, cfg.head_dim)  # grown by doubling, up to the context window
        self._k = [np.empty(shape) for _ in range(cfg.n_layers)]
        self._v = [np.empty(shape) for _ in range(cfg.n_layers)]
        self._len = 0
        self._last_hidden: np.ndarray | None = None

    @property
    def length(self) -> int:
        return self._len

    def prefill(self, token_ids) -> None:
        """Process a prompt, or the next chunk of one, in one pass."""
        self._advance(np.asarray(token_ids, dtype=np.int64))

    def append(self, token_id: int) -> None:
        """Advance the session by one token."""
        self._advance(np.array([int(token_id)]))

    def fork(self, n: int) -> "LaneBatch":
        """A batch of n lanes that decode in lockstep after this session's tokens (see LaneBatch.join)."""
        batch = LaneBatch(self.model)
        batch.join(self, n)
        return batch

    def _advance(self, ids) -> None:
        """Run the blocks over ids at positions length.., filling the caches."""
        T = ids.shape[0]
        base = self._len
        cfg = self.model.config
        _check_room(base, T, cfg.context_window)
        if T == 0:
            return
        cap = self._k[0].shape[1]
        if base + T > cap:
            cap = min(max(base + T, 2 * cap), cfg.context_window)
            self._k = [_grown(k, 1, cap) for k in self._k]
            self._v = [_grown(v, 1, cap) for v in self._v]
        causal = _causal_mask(cfg.context_window)[base : base + T, : base + T]
        scale = np.sqrt(cfg.head_dim)

        def attend(i, q, k, v):
            self._k[i][:, base : base + T] = k
            self._v[i][:, base : base + T] = v
            keys = self._k[i][:, : base + T]
            scores = q @ keys.transpose(0, 2, 1) / scale + causal
            return _softmax(scores) @ self._v[i][:, : base + T]

        self._last_hidden = _blocks(self._w, cfg, self._w["tok_emb"][ids], attend)
        self._len = base + T

    def next_logits(self) -> np.ndarray:
        """(V,) next-token logits, computed on each call from the last hidden state."""
        return self.last_hidden() @ self._w["tok_emb"].T

    def last_hidden(self) -> np.ndarray:
        if self._last_hidden is None:
            raise RuntimeError("session is empty; prefill or append first")
        return self._last_hidden


class _LaneGroup:
    """The lanes of one prefix: the prefix session, read in place, and the
    lanes' own suffix caches of shape (B, H, cap, dh) per layer, which start
    small and double as the lanes grow."""

    def __init__(self, session: InferenceSession, n: int):
        cfg = session.model.config
        self.session = session
        self.prefix_len = session.length
        self.len = 0
        cap = max(1, min(_LANE_START_CAP, cfg.context_window - self.prefix_len))
        shape = (n, cfg.n_heads, cap, cfg.head_dim)
        self.k = [np.empty(shape) for _ in range(cfg.n_layers)]
        self.v = [np.empty(shape) for _ in range(cfg.n_layers)]

    @property
    def n_lanes(self) -> int:
        return self.k[0].shape[0]

    def keep(self, idx) -> None:
        if idx.size == self.n_lanes and (idx == np.arange(idx.size)).all():
            return
        for cache in (self.k, self.v):  # one array at a time: each old one goes before the next copy
            for i in range(len(cache)):
                cache[i] = cache[i][idx]

    def grow(self, window: int) -> None:
        cap = min(2 * self.k[0].shape[2], window - self.prefix_len)
        for cache in (self.k, self.v):
            for i in range(len(cache)):
                cache[i] = _grown(cache[i], 2, cap)

    def attend(self, i, q, k, v):
        """One score block over the prefix and this group's suffix; q is (B, H, dh), pre-scaled."""
        P, L = self.prefix_len, self.len
        sk, sv = self.k[i], self.v[i]
        sk[:, :, L] = k[:, :, 0]
        sv[:, :, L] = v[:, :, 0]
        scores = np.empty((q.shape[0], q.shape[1], 1, P + L + 1))  # prefix then suffix, written in place
        np.matmul(q.transpose(1, 0, 2), self.session._k[i][:, :P].transpose(0, 2, 1),
                  out=scores[:, :, 0, :P].transpose(1, 0, 2))  # (H, B, P)
        np.matmul(q[:, :, None], sk[:, :, : L + 1].transpose(0, 1, 3, 2), out=scores[..., P:])  # (B, H, 1, L + 1)
        probs = _softmax(scores)
        pre_ctx = probs[:, :, 0, :P].transpose(1, 0, 2) @ self.session._v[i][:, :P]  # (H, B, dh)
        ctx = probs[..., P:] @ sv[:, :, : L + 1]
        ctx += pre_ctx.transpose(1, 0, 2)[:, :, None]
        return ctx


class LaneBatch:
    """Decoding lanes that advance together, one token each per step.

    Lanes are grouped by prefix: a group is joined from an InferenceSession,
    whose prefix keys and values are read in place (never copied), and keeps
    its own suffix caches. Groups of one batch may have different prefix and
    suffix lengths. A step runs the dense block work over every lane at once
    and one attention score block per group. Rows are ordered by group, in
    joining order; `InferenceSession.fork(n)` is a batch of one group.
    """

    def __init__(self, model: TimelineModel):
        self._cfg = model.config
        self._w = {name: t.data for name, t in model.params.items()}
        self._groups: list[_LaneGroup] = []
        self._hidden = np.empty((0, self._cfg.embed_dim))

    @property
    def n_lanes(self) -> int:
        return self._hidden.shape[0]

    @property
    def length(self) -> int:
        """Tokens of the longest lane, prefix included."""
        return max((g.prefix_len + g.len for g in self._groups), default=0)

    def join(self, session: InferenceSession, n: int) -> None:
        """Add n lanes after session's tokens, as the last rows of the batch.

        Advancing the session afterwards leaves them unaffected, since they
        look only at its first `length` positions.
        """
        if n < 1:
            raise ValueError("a lane group needs at least one lane")
        hidden = session.last_hidden()  # raises on an empty session
        self._groups.append(_LaneGroup(session, n))
        self._hidden = np.concatenate([self._hidden, np.broadcast_to(hidden, (n, hidden.shape[0]))])

    def next_logits(self) -> np.ndarray:
        """(B, V) next-token logits, one row per lane, computed on each call
        (the batch keeps only the (B, d) final hidden states)."""
        return self._hidden @ self._w["tok_emb"].T

    def keep(self, idx) -> None:
        """Compact the batch to the rows at idx, in that order.

        Each group's rows must stay together and groups keep their order;
        a group with no row left leaves the batch.
        """
        idx = np.asarray(idx, dtype=np.int64)
        bounds = np.cumsum([0] + [g.n_lanes for g in self._groups])
        owner = np.searchsorted(bounds, idx, side="right") - 1
        if idx.size and (idx.min() < 0 or idx.max() >= self.n_lanes or (np.diff(owner) < 0).any()):
            raise ValueError("kept rows must be lanes of the batch, grouped in batch order")
        cuts = np.searchsorted(owner, np.arange(len(self._groups) + 1))
        groups = []
        for j, g in enumerate(self._groups):
            if cuts[j + 1] > cuts[j]:
                g.keep(idx[cuts[j] : cuts[j + 1]] - bounds[j])
                groups.append(g)
        self._groups = groups
        self._hidden = self._hidden[idx]

    def append(self, ids) -> None:
        """Advance every lane by one token; ids holds one token id per lane."""
        ids = np.asarray(ids, dtype=np.int64)
        if ids.shape != (self.n_lanes,):
            raise ValueError(f"expected {self.n_lanes} token ids, got shape {ids.shape}")
        cfg, w, groups = self._cfg, self._w, self._groups
        _check_room(self.length, 1, cfg.context_window)
        for g in groups:
            if g.len == g.k[0].shape[2]:
                g.grow(cfg.context_window)
        bounds = np.cumsum([0] + [g.n_lanes for g in groups])
        scale = 1.0 / np.sqrt(cfg.head_dim)

        def attend(i, q, k, v):
            q = q[:, :, 0] * scale  # (B, H, dh)
            ctx = np.empty(k.shape)
            for g, lo, hi in zip(groups, bounds, bounds[1:]):
                ctx[lo:hi] = g.attend(i, q[lo:hi], k[lo:hi], v[lo:hi])
            return ctx

        self._hidden = _blocks(w, cfg, w["tok_emb"][ids][:, None], attend)
        for g in groups:
            g.len += 1


def extract_representation(model: TimelineModel, tokens) -> np.ndarray:
    """Final-layer hidden state at the last of the tokens (strings); dimension embed_dim."""
    if len(tokens) == 0:
        raise ValueError("cannot extract a representation from an empty sequence")
    session = InferenceSession(model)
    session.prefill([model.vocab.id_of(t) for t in tokens])
    return session.last_hidden().copy()
