"""Next-token, time-decomposition, and time-to-event objectives.

The combined objective sums per-token next-token cross-entropy with, at time
token positions only, the decomposition cross-entropies and the Gamma
negative log-likelihood; the sum is normalized by the non-pad token count so
the scale transfers across batch sizes.

Training differentiates total_loss; evaluate_loss runs the same function over
parameters wrapped as constants, so evaluation builds no graph and touches no
gradient.
"""
from __future__ import annotations

from ..autodiff import (
    Tensor,
    add,
    constant,
    cross_entropy,
    gamma_nll,
    gather_rows,
    gelu,
    index_axis0,
    linear,
    matmul,
    reshape,
    scale,
    tied_cross_entropy,
    total_sum,
    transpose,
)
from .bundle import TimelineModel
from .config import ModelConfig
from .params import ModelParams
from .transformer import hidden_states, segment_causal_mask

__all__ = ["td_loss", "tte_loss", "total_loss", "evaluate_loss"]


def td_loss(params: ModelParams, cfg: ModelConfig, hidden_at_att: Tensor, year_t, month_t, day_t) -> Tensor:
    """Sum over ATT positions of the three sub-embedding cross-entropies.

    The final hidden state at each ATT position is split into contiguous
    thirds; each third is mapped linearly onto its class space (years 0..max,
    months 0..12, days 0..29).
    """
    K = hidden_at_att.data.shape[0]
    d3 = cfg.sub_embed_dim
    thirds = transpose(reshape(hidden_at_att, (K, 3, d3)), (1, 0, 2))  # (3, K, d3)
    e_year = index_axis0(thirds, 0)
    e_month = index_axis0(thirds, 1)
    e_day = index_axis0(thirds, 2)
    loss_y = cross_entropy(matmul(e_year, params["td.year.w"]), year_t)
    loss_m = cross_entropy(matmul(e_month, params["td.month.w"]), month_t)
    loss_d = cross_entropy(matmul(e_day, params["td.day.w"]), day_t)
    return add(total_sum(loss_y), add(total_sum(loss_m), total_sum(loss_d)))


def tte_loss(params: ModelParams, hidden_at_att: Tensor, tte_t) -> Tensor:
    """Sum over ATT positions of -log Gamma(t; alpha, beta), alpha and beta from the feed-forward head.

    t carries the half-day offset.
    """
    h = gelu(linear(hidden_at_att, params["tte.fc1.w"], params["tte.fc1.b"]))
    return total_sum(gamma_nll(linear(h, params["tte.fc2.w"], params["tte.fc2.b"]), tte_t))


def total_loss(params: ModelParams, cfg: ModelConfig, batch, dropout_rng=None):
    """Combined objective over one packed batch -> (scalar Tensor, dict of
    total/ntp/td/tte, each already normalized per non-pad token).

    Per-token next-token cross-entropy everywhere it has a same-sequence
    target, plus TD and TTE at time-token positions only, summed and divided
    by the batch's non-pad token count. The decoder runs once per length
    block of the batch, (B, L) right-padded sequences under one causal mask.
    """
    n_tokens = batch.n_tokens
    if n_tokens <= 0:
        raise ValueError("batch has no non-pad tokens")
    if all(len(b.ntp_positions) == 0 for b in batch.blocks):
        raise ValueError("batch has no next-token targets")
    ntp_terms, td_terms, tte_terms = [], [], []
    for block in batch.blocks:
        B, L = block.token_ids.shape
        hidden = hidden_states(params, cfg, block.token_ids, segment_causal_mask(L, ((0, L),)), dropout_rng)
        hidden = reshape(hidden, (B * L, cfg.embed_dim))
        h_ntp = gather_rows(hidden, block.ntp_positions)  # only rows with a next-token target
        ntp_terms.append(total_sum(tied_cross_entropy(h_ntp, params["tok_emb"], block.ntp_targets)))
        if len(block.att_positions) > 0:
            h_att = gather_rows(hidden, block.att_positions)
            td_terms.append(td_loss(params, cfg, h_att, block.year_target, block.month_target, block.day_target))
            tte_terms.append(tte_loss(params, h_att, block.tte_t))

    def tree_sum(terms):
        acc = terms[0]
        for t in terms[1:]:
            acc = add(acc, t)
        return acc

    total = tree_sum(ntp_terms + td_terms + tte_terms)
    total = scale(total, 1.0 / n_tokens)
    breakdown = dict(
        total=float(total.data),
        ntp=sum(float(t.data) for t in ntp_terms) / n_tokens,
        td=sum(float(t.data) for t in td_terms) / n_tokens,
        tte=sum(float(t.data) for t in tte_terms) / n_tokens,
    )
    return total, breakdown


def evaluate_loss(model: TimelineModel, batches) -> dict:
    """Token-weighted average loss components over a batch list, dropout off, no graph."""
    frozen = ModelParams({name: constant(t.data, name=name) for name, t in model.params.items()})
    total = {"total": 0.0, "ntp": 0.0, "td": 0.0, "tte": 0.0}
    n = 0
    for b in batches:
        _, parts = total_loss(frozen, model.config, b)
        for k in total:
            total[k] += parts[k] * b.n_tokens
        n += b.n_tokens
    if n == 0:
        raise ValueError("no tokens to evaluate")
    return {k: v / n for k, v in total.items()}
