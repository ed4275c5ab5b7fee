"""Tiny bidirectional transformer encoders for the time-token vs summation test.

Both models share one architecture (post-norm encoder blocks, learned
positional embeddings, a classification read-out at a prepended CLS
position) and one embedding table layout; they differ only in how the two
events and their times enter: as three tokens (x1, delta-t, x2) or as two
summed embeddings (x1+t1, x2+t2).
"""
from __future__ import annotations

import numpy as np

from ..autodiff import (
    Tensor,
    add,
    attention,
    concat,
    cross_entropy,
    gather_rows,
    gelu,
    index_axis0,
    layer_norm,
    linear,
    mean_all,
    reshape,
    transpose,
)
from ..model.params import ModelParams, init_params
from .logic import LOGIC_DOMAIN

__all__ = ["CLS_ID", "X_BASE", "T_BASE", "VOCAB_SIZE", "init_encoder_params",
           "encode_timetoken_batch", "encode_summation_batch", "classifier_logits", "batch_loss", "batch_accuracy"]

CLS_ID = 0
X_BASE = 1  # ids 1..2 for the binary event values
T_BASE = 3  # ids 3..31 for time values 0..28 (shared by t and delta-t)
VOCAB_SIZE = T_BASE + LOGIC_DOMAIN["t_max"] + 1
_MAX_LEN = 4

# the one encoder recipe of the study, shared by both models
_EMBED_DIM = 16
_N_LAYERS = 2
_N_HEADS = 2
_INTERMEDIATE_DIM = 32


def init_encoder_params(seed: int) -> ModelParams:
    d, f = _EMBED_DIM, _INTERMEDIATE_DIM
    shapes = {"tok_emb": (VOCAB_SIZE, d), "pos_emb": (_MAX_LEN, d)}
    for i in range(_N_LAYERS):
        p = f"enc{i}."
        shapes.update({
            p + "qkv.w": (d, 3 * d), p + "qkv.b": (3 * d,),
            p + "proj.w": (d, d), p + "proj.b": (d,),
            p + "ln1.g": (d,), p + "ln1.b": (d,),
            p + "ff1.w": (d, f), p + "ff1.b": (f,),
            p + "ff2.w": (f, d), p + "ff2.b": (d,),
            p + "ln2.g": (d,), p + "ln2.b": (d,),
        })
    shapes.update({"head.w": (d, 2), "head.b": (2,)})
    return init_params(shapes, seed)


def _encoder_stack(params: ModelParams, x: Tensor) -> Tensor:
    """(B, L, d) -> (B, L, d), bidirectional post-norm blocks."""
    B, L, d = x.data.shape
    H, dh = _N_HEADS, _EMBED_DIM // _N_HEADS
    for i in range(_N_LAYERS):
        p = f"enc{i}."
        qkv = linear(x, params[p + "qkv.w"], params[p + "qkv.b"])
        qkv = transpose(reshape(qkv, (B, L, 3, H, dh)), (2, 0, 3, 1, 4))  # (3, B, H, L, dh)
        ctx = attention(qkv, None, 1.0 / np.sqrt(dh))  # (B, H, L, dh)
        ctx = reshape(transpose(ctx, (0, 2, 1, 3)), (B, L, d))
        attn_out = linear(ctx, params[p + "proj.w"], params[p + "proj.b"])
        x = layer_norm(add(x, attn_out), params[p + "ln1.g"], params[p + "ln1.b"])
        h = gelu(linear(x, params[p + "ff1.w"], params[p + "ff1.b"]))
        ff_out = linear(h, params[p + "ff2.w"], params[p + "ff2.b"])
        x = layer_norm(add(x, ff_out), params[p + "ln2.g"], params[p + "ln2.b"])
    return x


def encode_timetoken_batch(params: ModelParams, x1, t1, x2, t2) -> Tensor:
    """Inputs as three tokens: e_x1, e_dt, e_x2 (plus CLS); only the interval enters."""
    B = len(x1)
    dt = np.asarray(t2) - np.asarray(t1)
    ids = np.stack(
        [
            np.full(B, CLS_ID, dtype=np.int64),
            X_BASE + np.asarray(x1, dtype=np.int64),
            T_BASE + dt.astype(np.int64),
            X_BASE + np.asarray(x2, dtype=np.int64),
        ],
        axis=1,
    )
    x = gather_rows(params["tok_emb"], ids)  # (B, 4, d)
    x = add(x, gather_rows(params["pos_emb"], np.arange(4)))
    return _encoder_stack(params, x)


def encode_summation_batch(params: ModelParams, x1, t1, x2, t2) -> Tensor:
    """Inputs as two positions carrying e_x + e_t sums (plus CLS)."""
    B = len(x1)
    x_ids = np.stack([X_BASE + np.asarray(x1, np.int64), X_BASE + np.asarray(x2, np.int64)], axis=1)
    t_ids = np.stack([T_BASE + np.asarray(t1, np.int64), T_BASE + np.asarray(t2, np.int64)], axis=1)
    summed = add(gather_rows(params["tok_emb"], x_ids), gather_rows(params["tok_emb"], t_ids))  # (B, 2, d)
    cls = gather_rows(params["tok_emb"], np.full((B, 1), CLS_ID, dtype=np.int64))
    x = concat([cls, summed], axis=1)  # (B, 3, d)
    x = add(x, gather_rows(params["pos_emb"], np.arange(3)))
    return _encoder_stack(params, x)


def classifier_logits(params: ModelParams, hidden: Tensor) -> Tensor:
    """Linear read-out at the prepended classification position."""
    cls = index_axis0(transpose(hidden, (1, 0, 2)), 0)  # (B, d)
    return linear(cls, params["head.w"], params["head.b"])


def batch_loss(params: ModelParams, encode_fn, batch) -> Tensor:
    x1, t1, x2, t2, y = batch
    hidden = encode_fn(params, x1, t1, x2, t2)
    logits = classifier_logits(params, hidden)
    return mean_all(cross_entropy(logits, np.asarray(y, dtype=np.int64)))


def batch_accuracy(params: ModelParams, encode_fn, batch) -> float:
    x1, t1, x2, t2, y = batch
    hidden = encode_fn(params, x1, t1, x2, t2)
    logits = classifier_logits(params, hidden)
    return float((logits.data.argmax(axis=1) == np.asarray(y)).mean())
