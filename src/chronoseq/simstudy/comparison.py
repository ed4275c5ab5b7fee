"""Train the time-token and summation encoders on one dataset; emit accuracy curves."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..autodiff import backward
from ..autodiff.tensor import first_nonfinite
from ..codec import write_csv
from ..training.optimizer import AdamW
from .encoder import (
    batch_accuracy,
    batch_loss,
    encode_summation_batch,
    encode_timetoken_batch,
    init_encoder_params,
)
from .logic import LOGIC_DOMAIN, logic_label

__all__ = ["SimDataset", "sample_dataset", "AccuracyCurve", "ComparisonResult", "run_comparison", "write_curves_csv"]

TARGET_ACCURACY = 0.99  # full-train accuracy that counts as converged

# the one training recipe of the study, shared by both models
_BATCH_SIZE = 128
_EVAL_EVERY = 100  # steps between full-train accuracy evaluations
_LEARNING_RATE = 1e-3
_WEIGHT_DECAY = 0.01
_WARMUP_STEPS = 500


@dataclass
class SimDataset:
    x1: np.ndarray
    t1: np.ndarray
    x2: np.ndarray
    t2: np.ndarray
    y: np.ndarray

    def __len__(self):
        return len(self.y)

    def batch(self, idx):
        return self.x1[idx], self.t1[idx], self.x2[idx], self.t2[idx], self.y[idx]

    def full(self):
        return self.x1, self.t1, self.x2, self.t2, self.y


def sample_dataset(n_samples: int, seed: int) -> SimDataset:
    """Uniform samples of (x1, x2, t1, t2) with t1 <= t2, labeled by the rule list."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xDA7A]))
    t_max = LOGIC_DOMAIN["t_max"]
    x1 = rng.integers(0, 2, size=n_samples)
    x2 = rng.integers(0, 2, size=n_samples)
    ta = rng.integers(0, t_max + 1, size=n_samples)
    tb = rng.integers(0, t_max + 1, size=n_samples)
    t1 = np.minimum(ta, tb)
    t2 = np.maximum(ta, tb)
    y = np.array([logic_label(int(a), int(b), int(u), int(v)) for a, b, u, v in zip(x1, x2, t1, t2)])
    return SimDataset(x1=x1, t1=t1, x2=x2, t2=t2, y=y)


@dataclass
class AccuracyCurve:
    model: str
    points: list[tuple[int, float]] = field(default_factory=list)  # (step, full-train accuracy)

    def accuracy_at(self, step: int) -> float:
        best = None
        for s, acc in self.points:
            if s <= step:
                best = acc
        if best is None:
            raise ValueError(f"no accuracy recorded at or before step {step}")
        return best

    def first_step_reaching(self, target: float):
        for s, acc in self.points:
            if acc >= target:
                return s
        return None


@dataclass
class ComparisonResult:
    timetoken: AccuracyCurve
    summation: AccuracyCurve
    convergence_step: int | None  # first eval step where the time-token model clears the target
    target_accuracy: float
    seed: int


def _train_one(name, encode_fn, dataset, seed: int, max_steps: int, stop_at=None) -> AccuracyCurve:
    params = init_encoder_params(seed)
    opt = AdamW(params, lr=_LEARNING_RATE, weight_decay=_WEIGHT_DECAY, warmup_steps=_WARMUP_STEPS)
    curve = AccuracyCurve(model=name)
    full = dataset.full()
    curve.points.append((0, batch_accuracy(params, encode_fn, full)))
    if stop_at is not None and curve.points[-1][1] >= stop_at:
        return curve
    n = len(dataset)
    step = 0
    epoch = 0
    while step < max_steps:
        order = np.random.default_rng(np.random.SeedSequence([seed, 0xE90C, epoch])).permutation(n)
        epoch += 1
        for lo in range(0, n, _BATCH_SIZE):
            idx = order[lo : lo + _BATCH_SIZE]
            params.zero_grads()
            loss = batch_loss(params, encode_fn, dataset.batch(idx))
            if not np.isfinite(loss.data):
                raise RuntimeError(f"{name}: non-finite loss at step {step + 1} (op {first_nonfinite(loss)!r})")
            backward(loss)
            opt.step()
            step += 1
            if step % _EVAL_EVERY == 0:
                acc = batch_accuracy(params, encode_fn, full)
                curve.points.append((step, acc))
                if stop_at is not None and acc >= stop_at:
                    return curve
            if step >= max_steps:
                break
    return curve


def run_comparison(
    steps: int = 20000,
    n_samples: int = 1000,
    seed: int = 0,
    stop_at_convergence: bool = False,
) -> ComparisonResult:
    """Train both models on identical data for up to steps steps; record
    full-train accuracy every _EVAL_EVERY steps (step 0 included).

    With stop_at_convergence, the time-token model halts at its first
    evaluation >= TARGET_ACCURACY and the summation model trains only up to
    that step, which is all the convergence comparison needs.
    """
    dataset = sample_dataset(n_samples, seed)
    tt_curve = _train_one(
        "timetoken",
        encode_timetoken_batch,
        dataset,
        seed,
        steps,
        stop_at=TARGET_ACCURACY if stop_at_convergence else None,
    )
    conv = tt_curve.first_step_reaching(TARGET_ACCURACY)
    sum_steps = steps if not stop_at_convergence else (conv if conv is not None else steps)
    sum_curve = _train_one("summation", encode_summation_batch, dataset, seed, max(sum_steps, 0))
    return ComparisonResult(
        timetoken=tt_curve,
        summation=sum_curve,
        convergence_step=conv,
        target_accuracy=TARGET_ACCURACY,
        seed=seed,
    )


def write_curves_csv(path, result: ComparisonResult):
    tt = dict(result.timetoken.points)
    sm = dict(result.summation.points)
    write_csv(path, ["step", "acc_timetoken", "acc_sum"],
              ([s, tt.get(s, ""), sm.get(s, "")] for s in sorted(set(tt) | set(sm))))
