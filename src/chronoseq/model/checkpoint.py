"""Versioned, atomic checkpoints: config + vocabulary + parameters + optimizer state.

Arrays are stored raw (float64), so a reloaded model reproduces logits
bit-for-bit. Files are written to a temp path and renamed into place.
"""
from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import numpy as np

from ..autodiff import parameter
from ..codec.vocab import Vocabulary
from .bundle import TimelineModel
from .config import ModelConfig
from .params import ModelParams, param_shapes

__all__ = ["save_checkpoint", "load_checkpoint", "CheckpointError"]

FORMAT_VERSION = 1

_KINDS = {"p:": "parameter", "om:": "optimizer first-moment", "ov:": "optimizer second-moment"}


class CheckpointError(RuntimeError):
    pass


def save_checkpoint(path, model: TimelineModel, optimizer_state: dict | None = None, extra: dict | None = None):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    meta = {
        "format_version": FORMAT_VERSION,
        "model_config": model.config.to_dict(),
        "vocab_sha256": model.vocab.sha256(),
        "param_names": model.params.names(),
        "extra": extra or {},
    }
    arrays = {"vocab_tokens": np.array(model.vocab.tokens, dtype=np.str_)}
    for name, t in model.params.items():
        arrays[f"p:{name}"] = t.data
    if optimizer_state is not None:
        meta["optimizer"] = {k: v for k, v in optimizer_state.items() if k not in ("m", "v")}
        for name, arr in optimizer_state["m"].items():
            arrays[f"om:{name}"] = arr
        for name, arr in optimizer_state["v"].items():
            arrays[f"ov:{name}"] = arr
    arrays["meta_json"] = np.array(json.dumps(meta, sort_keys=True))
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".ckpt.tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            np.savez(f, **arrays)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def load_checkpoint(path):
    """Returns (model, optimizer_state or None, extra dict)."""
    path = Path(path)
    with np.load(path, allow_pickle=False) as z:
        try:
            meta = json.loads(str(z["meta_json"]))
        except KeyError:
            raise CheckpointError(f"{path}: not a checkpoint (missing metadata)") from None
        if meta.get("format_version") != FORMAT_VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version {meta.get('format_version')}")
        vocab = Vocabulary([str(t) for t in z["vocab_tokens"]])
        if vocab.sha256() != meta["vocab_sha256"]:
            raise CheckpointError(f"{path}: vocabulary hash mismatch")
        cfg = ModelConfig.from_dict(meta["model_config"])
        shapes = param_shapes(cfg)
        if meta["param_names"] != list(shapes):
            raise CheckpointError(f"{path}: parameter names do not match the model config")
        params = ModelParams({name: parameter(arr, name=name) for name, arr in _arrays(z, "p:", shapes, path).items()})
        optimizer_state = None
        if "optimizer" in meta:
            optimizer_state = dict(meta["optimizer"])
            optimizer_state["m"] = _arrays(z, "om:", shapes, path)
            optimizer_state["v"] = _arrays(z, "ov:", shapes, path)
    model = TimelineModel(config=cfg, params=params, vocab=vocab)
    return model, optimizer_state, meta.get("extra", {})


def _arrays(z, prefix, shapes, path) -> dict:
    """The arrays stored under prefix, checked name by name and shape by shape against shapes."""
    kind = _KINDS[prefix]
    stored = {key[len(prefix):] for key in z.files if key.startswith(prefix)}
    missing, extra = [n for n in shapes if n not in stored], sorted(stored - set(shapes))
    if missing or extra:
        raise CheckpointError(f"{path}: {kind} arrays missing {missing}, unexpected {extra}")
    out = {}
    for name, shape in shapes.items():
        arr = z[prefix + name]
        if arr.shape != shape:
            raise CheckpointError(f"{path}: {kind} {name} has shape {arr.shape}, the model config needs {shape}")
        out[name] = arr
    return out
