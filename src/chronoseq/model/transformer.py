"""Differentiable forward pass of the decoder over one (possibly packed) row or a stack of rows."""
from __future__ import annotations

import numpy as np

from ..autodiff import (
    add,
    attention,
    dropout,
    gather_rows,
    gelu,
    layer_norm,
    linear,
    matmul,
    reshape,
    transpose,
)
from .config import ModelConfig
from .params import ModelParams

__all__ = ["forward", "hidden_states", "tied_head", "segment_causal_mask", "MASK_NEG"]

MASK_NEG = -1e30


def segment_causal_mask(n_tokens: int, segment_bounds) -> np.ndarray:
    """Block-diagonal causal additive mask: position i sees j iff j <= i and
    both fall inside the same packed segment."""
    mask = np.full((n_tokens, n_tokens), MASK_NEG)
    for lo, hi in segment_bounds:
        block = mask[lo:hi, lo:hi]
        block[np.tril_indices(hi - lo)] = 0.0
    return mask


def forward(params: ModelParams, cfg: ModelConfig, token_ids, attn_mask):
    """Token ids (T,) + additive mask (T,T) -> (logits (T,V), final hidden (T,d)), dropout off."""
    hidden = hidden_states(params, cfg, token_ids, attn_mask)
    return tied_head(params, hidden), hidden


def tied_head(params: ModelParams, hidden):
    """Vocabulary logits of hidden rows (N, d) -> (N, V); the head shares tok_emb."""
    return matmul(hidden, transpose(params["tok_emb"], (1, 0)))


def hidden_states(params: ModelParams, cfg: ModelConfig, token_ids, attn_mask, dropout_rng=None):
    """Token ids (..., T) + additive mask (T,T) -> final hidden (..., T, d), after the final layer norm.

    Leading axes stack independent sequences that share the one mask (a
    length block: right-padded rows under a causal mask). Hidden state at a
    position depends only on earlier positions of the same segment; there is
    no positional-embedding lookup anywhere in this path.
    """
    ids = np.asarray(token_ids, dtype=np.int64)
    lead, T = ids.shape[:-1], ids.shape[-1]
    if T > cfg.context_window:
        raise ValueError(f"input length {T} exceeds context window {cfg.context_window}")
    if attn_mask.shape != (T, T):
        raise ValueError(f"mask shape {attn_mask.shape} does not match {T} tokens")
    rate = cfg.dropout_rate if dropout_rng is not None else 0.0
    H, dh = cfg.n_heads, cfg.head_dim
    scale_qk = 1.0 / np.sqrt(dh)
    n = len(lead)
    N = ids.size  # the dense layers run on all N tokens as one (N, d) matrix
    qkv_axes = (n + 1, *range(n), n + 2, n, n + 3)  # (..., T, 3, H, dh) -> (3, ..., H, T, dh)
    ctx_axes = (*range(n), n + 1, n, n + 2)  # (..., H, T, dh) -> (..., T, H, dh)

    x = gather_rows(params["tok_emb"], ids.reshape(N))
    x = dropout(x, rate, dropout_rng)
    for i in range(cfg.n_layers):
        p = f"block{i}."
        a = layer_norm(x, params[p + "ln1.g"], params[p + "ln1.b"])
        qkv = linear(a, params[p + "qkv.w"], params[p + "qkv.b"])
        qkv = transpose(reshape(qkv, (*lead, T, 3, H, dh)), qkv_axes)
        ctx = attention(qkv, attn_mask, scale_qk, rate, dropout_rng)  # (..., H, T, dh); mask (T, T)
        ctx = reshape(transpose(ctx, ctx_axes), (N, H * dh))
        attn_out = linear(ctx, params[p + "proj.w"], params[p + "proj.b"])
        x = add(x, dropout(attn_out, rate, dropout_rng))
        b = layer_norm(x, params[p + "ln2.g"], params[p + "ln2.b"])
        h = gelu(linear(b, params[p + "ff1.w"], params[p + "ff1.b"]))
        ff_out = linear(h, params[p + "ff2.w"], params[p + "ff2.b"])
        x = add(x, dropout(ff_out, rate, dropout_rng))
    out = layer_norm(x, params["final_ln.g"], params["final_ln.b"])
    return reshape(out, (*lead, T, cfg.embed_dim)) if n else out
