"""Adam with decoupled weight decay and linear warmup into a constant rate."""
from __future__ import annotations

import numpy as np

from ..model.params import ModelParams

__all__ = ["AdamW"]

_EPS = 1e-8  # keeps the update finite where the second moment is zero


class AdamW:
    """Decoupled-weight-decay Adam over a named parameter set.

    The effective rate at step s is lr * min(1, s / warmup_steps); after
    warmup it stays constant. With zero gradients throughout, a step changes
    each weight by exactly -lr_eff * weight_decay * w (the decay is applied
    outside the moment update).
    """

    def __init__(self, params: ModelParams, lr=1e-3, weight_decay=0.01, beta1=0.9, beta2=0.999, warmup_steps=0):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.beta1 = beta1
        self.beta2 = beta2
        self.warmup_steps = warmup_steps
        self.step_count = 0
        self.m = {name: np.zeros_like(t.data) for name, t in params.items()}
        self.v = {name: np.zeros_like(t.data) for name, t in params.items()}

    def effective_lr(self, step: int) -> float:
        if self.warmup_steps > 0 and step <= self.warmup_steps:
            return self.lr * step / self.warmup_steps
        return self.lr

    def step(self):
        self.step_count += 1
        t = self.step_count
        lr_t = self.effective_lr(t)
        c1 = 1.0 - self.beta1**t
        c2 = 1.0 - self.beta2**t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            update = (m / c1) / (np.sqrt(v / c2) + _EPS)
            if self.weight_decay:
                update = update + self.weight_decay * p.data
            p.data -= lr_t * update

    def state_dict(self) -> dict:
        return {
            "step_count": self.step_count,
            "m": {k: v.copy() for k, v in self.m.items()},
            "v": {k: v.copy() for k, v in self.v.items()},
        }

    def load_state_dict(self, state: dict):
        self.step_count = int(state["step_count"])
        for k in self.m:
            self.m[k][...] = state["m"][k]
            self.v[k][...] = state["v"][k]
