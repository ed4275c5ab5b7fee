"""Sample packing: first-fit-decreasing into rows, rows grouped under a token budget.

A row is one concatenated sequence of whole examples with a block-diagonal
causal mask (never longer than the model's context window). A batch is the
unit of one optimizer step: one or more rows totalling at most
tokens_per_batch tokens. The batch's rows fix its composition; training runs
its sequences as length blocks: the sequences sorted by length, cut into
groups of similar length, each group right-padded into one (B, L) array under
a plain causal mask.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..model.supervision import AttSupervision
from ..model.transformer import segment_causal_mask

__all__ = ["EncodedExample", "PackedRow", "LengthBlock", "PackedBatch", "pack", "BLOCK_SPLIT"]

# A sequence shorter than this share of its block's longest starts a new block,
# so a block wastes under 1 - BLOCK_SPLIT of a row on padding.
BLOCK_SPLIT = 0.8
# The id right padding carries. Any id would do: under a causal mask a real
# query never attends a later (pad) key, and pad positions carry no target.
_PAD_ID = 0


@dataclass
class EncodedExample:
    person_id: str | None
    token_ids: np.ndarray  # (L,) int64
    sup: AttSupervision

    def __len__(self):
        return len(self.token_ids)


@dataclass
class PackedRow:
    """One concatenated row of whole sequences; nothing crosses a segment boundary."""

    token_ids: np.ndarray
    segment_bounds: tuple[tuple[int, int], ...]
    n_tokens: int
    _mask: np.ndarray | None = field(default=None, repr=False, compare=False)

    def attention_mask(self) -> np.ndarray:
        if self._mask is None:
            self._mask = segment_causal_mask(self.n_tokens, self.segment_bounds)
        return self._mask


@dataclass
class LengthBlock:
    """Whole sequences of one batch, longest first, right-padded to (B, L).

    Positions index the flattened B*L tokens (sequence r starts at r*L); pad
    positions carry no target.
    """

    token_ids: np.ndarray  # (B, L) int64
    lengths: np.ndarray  # (B,) real tokens per sequence
    ntp_positions: np.ndarray
    ntp_targets: np.ndarray
    att_positions: np.ndarray
    year_target: np.ndarray
    month_target: np.ndarray
    day_target: np.ndarray
    tte_t: np.ndarray


@dataclass
class PackedBatch:
    rows: tuple[PackedRow, ...]
    n_tokens: int
    blocks: tuple[LengthBlock, ...]  # the same sequences as rows, as the loss runs them


def _targets(examples, offsets) -> dict:
    """NTP and ATT positions (shifted by each example's offset) with their targets."""
    ntp_pos, ntp_tgt = [], []
    att_pos, yt, mt, dt_, tt = [], [], [], [], []
    for e, offset in zip(examples, offsets):
        L = len(e.token_ids)
        if L >= 2:
            ntp_pos.append(np.arange(offset, offset + L - 1, dtype=np.int64))
            ntp_tgt.append(e.token_ids[1:])
        s = e.sup
        if s.n_att:
            att_pos.append(s.att_positions + offset)
            yt.append(s.year_target)
            mt.append(s.month_target)
            dt_.append(s.day_target)
            tt.append(s.tte_t)

    def cat(parts, dtype):
        return np.concatenate(parts) if parts else np.array([], dtype=dtype)

    return dict(
        ntp_positions=cat(ntp_pos, np.int64),
        ntp_targets=cat(ntp_tgt, np.int64),
        att_positions=cat(att_pos, np.int64),
        year_target=cat(yt, np.int64),
        month_target=cat(mt, np.int64),
        day_target=cat(dt_, np.int64),
        tte_t=cat(tt, np.float64),
    )


def _build_row(examples) -> PackedRow:
    lengths = [len(e) for e in examples]
    starts = np.cumsum([0] + lengths[:-1]).tolist()
    ids = np.concatenate([e.token_ids for e in examples])
    return PackedRow(
        token_ids=ids,
        segment_bounds=tuple((lo, lo + n) for lo, n in zip(starts, lengths)),
        n_tokens=int(ids.shape[0]),
    )


def _build_block(examples) -> LengthBlock:
    B, L = len(examples), len(examples[0])
    ids = np.full((B, L), _PAD_ID, dtype=np.int64)
    for r, e in enumerate(examples):
        ids[r, : len(e)] = e.token_ids
    return LengthBlock(
        token_ids=ids,
        lengths=np.array([len(e) for e in examples], dtype=np.int64),
        **_targets(examples, range(0, B * L, L)),
    )


def _length_blocks(examples) -> tuple[LengthBlock, ...]:
    """Cut the sequences, longest first, wherever one falls under BLOCK_SPLIT of its block's longest."""
    groups: list[list] = []
    for e in sorted(examples, key=len, reverse=True):  # stable: equal lengths keep packing order
        if groups and len(e) >= BLOCK_SPLIT * len(groups[-1][0]):
            groups[-1].append(e)
        else:
            groups.append([e])
    return tuple(_build_block(g) for g in groups)


def _build_batch(bins) -> PackedBatch:
    rows = tuple(_build_row(b) for b in bins)
    return PackedBatch(rows, sum(r.n_tokens for r in rows), _length_blocks([e for b in bins for e in b]))


def pack(examples, tokens_per_batch: int, row_capacity: int | None = None) -> list[PackedBatch]:
    """First-fit-decreasing packing; every input token lands in exactly one batch.

    Rows are capped at row_capacity (default: the whole batch budget, which
    callers should set to the model's context window when it is smaller).
    """
    cap = min(row_capacity, tokens_per_batch) if row_capacity else tokens_per_batch
    for e in examples:
        if len(e) > cap:
            raise ValueError(f"sequence of {len(e)} tokens exceeds the {cap}-token packing capacity")
    order = sorted(range(len(examples)), key=lambda i: (-len(examples[i]), i))
    bins: list[list] = []
    room: list[int] = []
    for i in order:
        e = examples[i]
        L = len(e)
        for b, free in enumerate(room):
            if L <= free:
                bins[b].append(e)
                room[b] -= L
                break
        else:
            bins.append([e])
            room.append(cap - L)
    batches: list[PackedBatch] = []
    group: list[list] = []
    total = 0
    for b in bins:
        n = sum(len(e) for e in b)
        if group and total + n > tokens_per_batch:
            batches.append(_build_batch(group))
            group, total = [], 0
        group.append(b)
        total += n
    if group:
        batches.append(_build_batch(group))
    return batches
