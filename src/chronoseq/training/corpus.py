"""Corpus preparation: encode, filter short sequences, truncate, split."""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..codec import TokenSequence, build_vocabulary, encode_patient
from ..codec.vocab import Vocabulary
from ..model.supervision import build_att_supervision
from .packing import EncodedExample

__all__ = ["CorpusReport", "PreparedCorpus", "prepare_corpus", "encode_examples"]


@dataclass
class CorpusReport:
    n_records: int = 0
    n_dropped_short: int = 0
    n_truncated: int = 0
    n_train: int = 0
    n_eval: int = 0


@dataclass
class PreparedCorpus:
    train: list[EncodedExample]
    eval: list[EncodedExample]
    vocab: Vocabulary
    report: CorpusReport = field(default_factory=CorpusReport)


def _truncate(seq: TokenSequence, limit: int) -> TokenSequence:
    if len(seq.tokens) <= limit:
        return seq
    return replace(
        seq,
        tokens=seq.tokens[:limit],
        att_days=tuple((p, d) for p, d in seq.att_days if p < limit),
    )


def encode_examples(sequences, vocab: Vocabulary, max_year_class: int) -> list[EncodedExample]:
    out = []
    for seq in sequences:
        sup = build_att_supervision(seq, max_year_class)
        ids = np.array(vocab.encode(seq.tokens), dtype=np.int64)
        out.append(EncodedExample(seq.person_id, ids, sup))
    return out


def prepare_corpus(
    records,
    codec_cfg=None,
    *,
    context_window: int,
    min_seq_tokens: int = 20,
    eval_fraction: float = 0.1,
    seed: int = 0,
    max_year_class: int = 10,
) -> PreparedCorpus:
    """Encode records, drop sequences under min_seq_tokens, truncate to the
    context window, and split train/eval with a seeded shuffle.

    The vocabulary is built over every retained sequence. codec_cfg is
    unused, since the timeline grammar is fixed; it is kept only for the
    calls in perfbench/, which still pass a CodecConfig().
    """
    if not (0.0 < eval_fraction < 1.0):
        raise ValueError(f"eval_fraction out of range: {eval_fraction}")
    report = CorpusReport()
    kept: list[TokenSequence] = []
    for r in records:
        report.n_records += 1
        seq = encode_patient(r)
        if len(seq.tokens) < min_seq_tokens:
            report.n_dropped_short += 1
            continue
        if len(seq.tokens) > context_window:
            report.n_truncated += 1
            seq = _truncate(seq, context_window)
        kept.append(seq)
    if not kept:
        raise ValueError("no sequences left after the minimum-length filter")
    vocab = build_vocabulary(kept)
    order = np.random.default_rng(np.random.SeedSequence([seed, 0x5EED])).permutation(len(kept))
    n_eval = max(1, int(round(len(kept) * eval_fraction))) if len(kept) > 1 else 0
    eval_idx = set(order[:n_eval].tolist())
    train_seqs = [kept[i] for i in range(len(kept)) if i not in eval_idx]
    eval_seqs = [kept[i] for i in sorted(eval_idx)]
    report.n_train = len(train_seqs)
    report.n_eval = len(eval_seqs)
    return PreparedCorpus(
        train=encode_examples(train_seqs, vocab, max_year_class),
        eval=encode_examples(eval_seqs, vocab, max_year_class),
        vocab=vocab,
        report=report,
    )
