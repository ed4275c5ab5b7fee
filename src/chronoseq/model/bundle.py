"""The trained artifact: config + parameters + the vocabulary they index."""
from __future__ import annotations

from dataclasses import dataclass

from ..codec.vocab import Vocabulary
from .config import ModelConfig
from .inference import InferenceSession
from .params import ModelParams, init_params, param_shapes, params_sha256

__all__ = ["TimelineModel"]


@dataclass
class TimelineModel:
    config: ModelConfig
    params: ModelParams
    vocab: Vocabulary

    @classmethod
    def initialize(cls, config: ModelConfig, vocab: Vocabulary, seed: int) -> "TimelineModel":
        if config.vocab_size != len(vocab):
            raise ValueError(f"config.vocab_size {config.vocab_size} != |vocab| {len(vocab)}")
        return cls(config=config, params=init_params(param_shapes(config), seed), vocab=vocab)

    def open_session(self) -> InferenceSession:
        """A fresh decoding session over these parameters."""
        return InferenceSession(self)

    def params_hash(self) -> str:
        return params_sha256(self.params)
