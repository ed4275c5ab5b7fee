"""Differentiable forward pass of the decoder over one (possibly packed) row."""
from __future__ import annotations

import numpy as np

from ..autodiff import (
    add,
    constant,
    dropout,
    gather_rows,
    gelu,
    index_axis0,
    layer_norm,
    matmul,
    reshape,
    scale,
    softmax,
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


def forward(params: ModelParams, cfg: ModelConfig, token_ids, attn_mask, dropout_rng=None):
    """Token ids (T,) + additive mask (T,T) -> (logits (T,V), final hidden (T,d))."""
    hidden = hidden_states(params, cfg, token_ids, attn_mask, dropout_rng)
    return tied_head(params, hidden), hidden


def tied_head(params: ModelParams, hidden):
    """Vocabulary logits of hidden rows (N, d) -> (N, V); the head shares tok_emb."""
    return matmul(hidden, transpose(params["tok_emb"], (1, 0)))


def hidden_states(params: ModelParams, cfg: ModelConfig, token_ids, attn_mask, dropout_rng=None):
    """Token ids (T,) + additive mask (T,T) -> final hidden (T,d), after the final layer norm.

    Hidden state at a position depends only on earlier positions of the same
    segment; there is no positional-embedding lookup anywhere in this path.
    """
    ids = np.asarray(token_ids, dtype=np.int64)
    T = ids.shape[0]
    if T > cfg.context_window:
        raise ValueError(f"input length {T} exceeds context window {cfg.context_window}")
    if attn_mask.shape != (T, T):
        raise ValueError(f"mask shape {attn_mask.shape} does not match {T} tokens")
    rate = cfg.dropout_rate if dropout_rng is not None else 0.0
    H, dh = cfg.n_heads, cfg.head_dim
    scale_qk = 1.0 / np.sqrt(dh)
    mask_t = constant(attn_mask, name="attn_mask")

    x = gather_rows(params["tok_emb"], ids)
    x = dropout(x, rate, dropout_rng)
    for i in range(cfg.n_layers):
        p = f"block{i}."
        a = layer_norm(x, params[p + "ln1.g"], params[p + "ln1.b"])
        qkv = add(matmul(a, params[p + "qkv.w"]), params[p + "qkv.b"])
        qkv = transpose(reshape(qkv, (T, 3, H, dh)), (1, 2, 0, 3))  # (3, H, T, dh)
        q = index_axis0(qkv, 0)
        k = index_axis0(qkv, 1)
        v = index_axis0(qkv, 2)
        scores = add(scale(matmul(q, transpose(k, (0, 2, 1))), scale_qk), mask_t)  # (H, T, T) + (T, T)
        weights = softmax(scores)
        weights = dropout(weights, rate, dropout_rng)
        ctx = matmul(weights, v)  # (H, T, dh)
        ctx = reshape(transpose(ctx, (1, 0, 2)), (T, H * dh))
        attn_out = add(matmul(ctx, params[p + "proj.w"]), params[p + "proj.b"])
        x = add(x, dropout(attn_out, rate, dropout_rng))
        b = layer_norm(x, params[p + "ln2.g"], params[p + "ln2.b"])
        h = gelu(add(matmul(b, params[p + "ff1.w"]), params[p + "ff1.b"]))
        ff_out = add(matmul(h, params[p + "ff2.w"]), params[p + "ff2.b"])
        x = add(x, dropout(ff_out, rate, dropout_rng))
    return layer_norm(x, params["final_ln.g"], params["final_ln.b"])
