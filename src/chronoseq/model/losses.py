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

import numpy as np

from ..autodiff import (
    Tensor,
    add,
    add_const,
    constant,
    cross_entropy,
    gelu,
    index_axis0,
    matmul,
    neg,
    reshape,
    scale,
    softplus,
    take_rows,
    total_sum,
    transpose,
)
from ..autodiff.special import gamma_log_pdf
from .bundle import TimelineModel
from .config import ModelConfig
from .params import ModelParams
from .transformer import hidden_states, tied_head

__all__ = ["td_loss", "tte_loss", "gamma_heads", "total_loss", "evaluate_loss", "LossBreakdown"]

_POSITIVE_EPS = 1e-6


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


def gamma_heads(params: ModelParams, hidden_at_att: Tensor) -> tuple[Tensor, Tensor]:
    """(alpha, beta) from the feed-forward head, mapped positive via softplus + 1e-6."""
    h = gelu(add(matmul(hidden_at_att, params["tte.fc1.w"]), params["tte.fc1.b"]))
    pre = add(matmul(h, params["tte.fc2.w"]), params["tte.fc2.b"])  # (K, 2)
    pre_t = transpose(pre, (1, 0))
    alpha = add_const(softplus(index_axis0(pre_t, 0)), _POSITIVE_EPS)
    beta = add_const(softplus(index_axis0(pre_t, 1)), _POSITIVE_EPS)
    return alpha, beta


def tte_loss(params: ModelParams, hidden_at_att: Tensor, tte_t) -> Tensor:
    """Sum over ATT positions of -log Gamma(t; alpha, beta); t carries the half-day offset."""
    alpha, beta = gamma_heads(params, hidden_at_att)
    return neg(total_sum(gamma_log_pdf(alpha, beta, np.asarray(tte_t, dtype=np.float64))))


class LossBreakdown(dict):
    """total/ntp/td/tte components, each already normalized per non-pad token."""


def _row_sums(params: ModelParams, cfg: ModelConfig, row, dropout_rng):
    hidden = hidden_states(params, cfg, row.token_ids, row.attention_mask(), dropout_rng)
    ntp_logits = tied_head(params, take_rows(hidden, row.ntp_positions))  # only rows with a next-token target
    ntp_sum = total_sum(cross_entropy(ntp_logits, row.ntp_targets))
    td_sum = tte_sum = None
    if len(row.att_positions) > 0:
        h_att = take_rows(hidden, row.att_positions)
        td_sum = td_loss(params, cfg, h_att, row.year_target, row.month_target, row.day_target)
        tte_sum = tte_loss(params, h_att, row.tte_t)
    return ntp_sum, td_sum, tte_sum


def total_loss(params: ModelParams, cfg: ModelConfig, batch, dropout_rng=None):
    """Combined objective over one packed batch -> (scalar Tensor, LossBreakdown).

    Per-token next-token cross-entropy everywhere it has a same-segment
    target, plus TD and TTE at time-token positions only, summed and divided
    by the batch's non-pad token count.
    """
    rows = batch.rows if hasattr(batch, "rows") else (batch,)
    n_tokens = int(getattr(batch, "n_tokens", sum(r.n_tokens for r in rows)))
    if n_tokens <= 0:
        raise ValueError("batch has no non-pad tokens")
    if all(len(r.ntp_positions) == 0 for r in rows):
        raise ValueError("batch has no next-token targets")
    ntp_terms, td_terms, tte_terms = [], [], []
    for row in rows:
        ntp_sum, td_sum, tte_sum = _row_sums(params, cfg, row, dropout_rng)
        ntp_terms.append(ntp_sum)
        if td_sum is not None:
            td_terms.append(td_sum)
            tte_terms.append(tte_sum)

    def tree_sum(terms):
        acc = terms[0]
        for t in terms[1:]:
            acc = add(acc, t)
        return acc

    total = tree_sum(ntp_terms + td_terms + tte_terms)
    total = scale(total, 1.0 / n_tokens)
    breakdown = LossBreakdown(
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
