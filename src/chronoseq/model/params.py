"""Trainable tensors of the decoder and its three heads.

There is deliberately no positional-embedding table: order information
reaches the model only through the causal mask and the time tokens in the
sequence itself. The next-token projection is weight-tied to the embedding
table. The time-decomposition maps are pure linear maps (no bias); the
time-to-event head is a small feed-forward stack emitting the two Gamma
pre-activations.
"""
from __future__ import annotations

import hashlib

import numpy as np

from ..autodiff import Tensor, parameter
from .config import ModelConfig, TD_DAY_CLASSES, TD_MONTH_CLASSES

__all__ = ["ModelParams", "init_params", "param_shapes", "params_sha256"]

_INIT_STD = 0.02


class ModelParams:
    """Ordered name -> Tensor mapping; order is the checkpoint layout."""

    def __init__(self, tensors: dict[str, Tensor]):
        self.tensors = dict(tensors)

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def names(self):
        return list(self.tensors.keys())

    def values(self):
        return list(self.tensors.values())

    def items(self):
        return self.tensors.items()

    def zero_grads(self):
        for t in self.tensors.values():
            t.zero_grad()


def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter, in checkpoint layout order."""
    d = cfg.embed_dim
    shapes = {"tok_emb": (cfg.vocab_size, d)}
    for i in range(cfg.n_layers):
        p = f"block{i}."
        shapes.update({
            p + "ln1.g": (d,), p + "ln1.b": (d,),
            p + "qkv.w": (d, 3 * d), p + "qkv.b": (3 * d,),
            p + "proj.w": (d, d), p + "proj.b": (d,),
            p + "ln2.g": (d,), p + "ln2.b": (d,),
            p + "ff1.w": (d, 4 * d), p + "ff1.b": (4 * d,),
            p + "ff2.w": (4 * d, d), p + "ff2.b": (d,),
        })
    shapes.update({
        "final_ln.g": (d,), "final_ln.b": (d,),
        "td.year.w": (cfg.sub_embed_dim, cfg.td_year_classes),
        "td.month.w": (cfg.sub_embed_dim, TD_MONTH_CLASSES),
        "td.day.w": (cfg.sub_embed_dim, TD_DAY_CLASSES),
        "tte.fc1.w": (d, d), "tte.fc1.b": (d,),
        "tte.fc2.w": (d, 2), "tte.fc2.b": (2,),
    })
    return shapes


def init_params(shapes: dict[str, tuple[int, ...]], seed: int) -> ModelParams:
    """Parameters of a name -> shape table: gains (".g") start at one, biases (".b") at zero,
    everything else at N(0, 0.02^2), drawn in table order."""
    rng = np.random.default_rng(seed)
    tensors: dict[str, Tensor] = {}
    for name, shape in shapes.items():
        if name.endswith(".g"):
            data = np.ones(shape)
        elif name.endswith(".b"):
            data = np.zeros(shape)
        else:
            data = rng.normal(0.0, _INIT_STD, size=shape)
        tensors[name] = parameter(data, name=name)
    return ModelParams(tensors)


def params_sha256(params: ModelParams) -> str:
    h = hashlib.sha256()
    for name, t in params.items():
        h.update(name.encode("utf-8"))
        h.update(np.ascontiguousarray(t.data).tobytes())
    return h.hexdigest()
