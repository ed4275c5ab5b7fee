"""Self-contained gradient-check harness over a tiny fixed batch.

Builds a miniature vocabulary (full time-token coverage is pointless when
finite-differencing every embedding row) and a three-sequence packed batch
that exercises all three loss heads and two length blocks, one of them
padded, then compares analytic gradients of the combined objective against
central differences.
"""
from __future__ import annotations

from ..autodiff.gradcheck import grad_check
from ..codec import TokenSequence
from ..codec.tokens import SPECIAL_TOKENS
from ..codec.vocab import Vocabulary
from ..training.corpus import encode_examples
from ..training.packing import pack
from .bundle import TimelineModel
from .config import ModelConfig
from .losses import total_loss

__all__ = ["toy_batch", "toy_grad_check"]

_TOKENS_A = (
    "year:2000", "age:50", "gender:8532", "race:8527",
    "[VS]", "v:9202", "c:320128", "[VE]", "D7",
    "[VS]", "v:9201", "i-D2", "d:1125315", "dis:8536", "[VE]", "[LT]",
    "[VS]", "v:9202", "[VE]", "[END]",
)
_TOKENS_B = (
    "year:2001", "age:40", "gender:8507", "race:8516",
    "[VS]", "v:9202", "d:1125316", "[VE]", "D0",
    "[VS]", "v:9202", "c:320129", "[VE]", "[END]",
)
_TOKENS_C = (  # no time token: no ATT position; pads out B's length block
    "year:2000", "age:40", "gender:8507", "race:8516",
    "[VS]", "v:9201", "c:320128", "c:320129", "d:1125316", "dis:8536", "[VE]", "[END]",
)


def toy_batch():
    """(vocabulary, packed batch) covering NTP, TD, TTE, [LT], D0 and no-ATT cases.

    The 20-token sequence fills one length block; the 14- and 12-token ones
    share a second, padded one.
    """
    seqs = [
        TokenSequence(_TOKENS_A, person_id="a", att_days=((8, 7), (15, 2000))),
        TokenSequence(_TOKENS_B, person_id="b", att_days=((8, 0),)),
        TokenSequence(_TOKENS_C, person_id="c"),
    ]
    used = sorted({t for s in seqs for t in s.tokens})
    vocab = Vocabulary(SPECIAL_TOKENS + tuple(t for t in used if t not in SPECIAL_TOKENS))
    return vocab, pack(encode_examples(seqs, vocab, max_year_class=10), tokens_per_batch=64)[0]


def toy_grad_check(embed_dim: int = 6, n_layers: int = 2, n_heads: int = 2, seed: int = 0,
                   epsilon: float = 1e-5) -> float:
    """Max relative gradient error of total_loss on the toy batch."""
    vocab, batch = toy_batch()
    cfg = ModelConfig(
        vocab_size=len(vocab),
        embed_dim=embed_dim,
        n_layers=n_layers,
        n_heads=n_heads,
        context_window=64,
    )
    model = TimelineModel.initialize(cfg, vocab, seed=seed)

    def build():
        return total_loss(model.params, cfg, batch)[0]

    return grad_check(build, model.params.values(), epsilon=epsilon)
