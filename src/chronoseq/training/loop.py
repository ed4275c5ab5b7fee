"""The optimization loop: warmup, per-epoch evaluation, early stopping, checkpoints."""
from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..autodiff import backward
from ..autodiff.tensor import first_nonfinite
from ..model import TimelineModel, evaluate_loss, save_checkpoint, total_loss
from .optimizer import AdamW
from .packing import pack

__all__ = ["TrainConfig", "TrainingDiverged", "TrainResult", "train", "write_loss_curves"]


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    warmup_steps: int = 500
    max_epochs: int = 10
    tokens_per_batch: int = 16384
    checkpoint_every_steps: int = 20000
    early_stop_patience: int = 1
    early_stop_rel_improvement: float = 0.001
    eval_fraction: float = 0.1
    min_seq_tokens: int = 20
    seed: int = 0
    max_steps: int = 0  # 0 = no step cap

    def __post_init__(self):
        for name in ("learning_rate", "weight_decay", "beta1", "beta2", "warmup_steps", "max_epochs",
                     "tokens_per_batch", "checkpoint_every_steps", "early_stop_patience", "min_seq_tokens"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if not (0.0 < self.eval_fraction < 1.0):
            raise ValueError("eval_fraction must lie in (0, 1)")


class TrainingDiverged(RuntimeError):
    def __init__(self, step, batch_index, op_name):
        super().__init__(f"non-finite loss at step {step}, batch {batch_index}, op {op_name!r}")
        self.step = step
        self.batch_index = batch_index
        self.op_name = op_name


@dataclass
class TrainResult:
    steps: int
    epochs: int
    best_eval_loss: float
    stopped_early: bool
    history: list[dict] = field(default_factory=list)  # step/epoch/train_loss/eval_loss/ntp/td/tte
    checkpoints: list[Path] = field(default_factory=list)


def train(
    model: TimelineModel,
    train_examples,
    eval_examples,
    cfg: TrainConfig,
    out_dir=None,
    resume_state: dict | None = None,
    log=None,
    stop_when=None,
) -> TrainResult:
    """Run AdamW with linear warmup until max_epochs or early stopping.

    Evaluation happens at every epoch end; training halts once the relative
    eval-loss improvement stays under the configured threshold for
    `early_stop_patience` consecutive evaluations, or when the optional
    stop_when(eval_components) target fires. Checkpoints are written on the
    step cadence and whenever the eval loss improves. Two runs with the same
    seed produce identical loss curves; resuming from a cadence checkpoint
    replays the interrupted run exactly.
    """
    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    row_cap = model.config.context_window
    train_batches = pack(train_examples, cfg.tokens_per_batch, row_capacity=row_cap)
    eval_batches = pack(eval_examples, cfg.tokens_per_batch, row_capacity=row_cap)
    opt = AdamW(
        model.params,
        lr=cfg.learning_rate,
        weight_decay=cfg.weight_decay,
        beta1=cfg.beta1,
        beta2=cfg.beta2,
        warmup_steps=cfg.warmup_steps,
    )
    start_epoch = 0
    skip_batches = 0
    best = float("inf")
    bad_evals = 0
    if resume_state is not None:
        opt.load_state_dict(resume_state["optimizer"])
        start_epoch = int(resume_state["epoch"])
        skip_batches = int(resume_state["batch_index"])
        best = float(resume_state.get("best_eval_loss", float("inf")))
        bad_evals = int(resume_state.get("bad_evals", 0))

    result = TrainResult(steps=opt.step_count, epochs=start_epoch, best_eval_loss=best, stopped_early=False)
    stop = False
    for epoch in range(start_epoch, cfg.max_epochs):
        order = np.random.default_rng(np.random.SeedSequence([cfg.seed, epoch])).permutation(len(train_batches))
        for j, bi in enumerate(order):
            if epoch == start_epoch and j < skip_batches:
                continue
            batch = train_batches[bi]
            model.params.zero_grads()
            drop_rng = (
                np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xD0, opt.step_count]))
                if model.config.dropout_rate > 0
                else None
            )
            loss, parts = total_loss(model.params, model.config, batch, dropout_rng=drop_rng)
            if not np.isfinite(parts["total"]):
                raise TrainingDiverged(opt.step_count + 1, int(bi), first_nonfinite(loss))
            backward(loss)
            opt.step()
            row = {
                "step": opt.step_count,
                "epoch": epoch,
                "train_loss": parts["total"],
                "eval_loss": "",
                "ntp": parts["ntp"],
                "td": parts["td"],
                "tte": parts["tte"],
            }
            result.history.append(row)
            if log:
                log(row)
            if out_dir is not None and cfg.checkpoint_every_steps and opt.step_count % cfg.checkpoint_every_steps == 0:
                path = out_dir / f"step{opt.step_count}.ckpt"
                save_checkpoint(
                    path,
                    model,
                    optimizer_state=opt.state_dict(),
                    extra={
                        "epoch": epoch,
                        "batch_index": j + 1,
                        "best_eval_loss": best,
                        "bad_evals": bad_evals,
                    },
                )
                result.checkpoints.append(path)
            if cfg.max_steps and opt.step_count >= cfg.max_steps:
                stop = True
                break
        result.epochs = epoch + 1
        ev = evaluate_loss(model, eval_batches)
        result.history.append(
            {
                "step": opt.step_count,
                "epoch": epoch,
                "train_loss": "",
                "eval_loss": ev["total"],
                "ntp": ev["ntp"],
                "td": ev["td"],
                "tte": ev["tte"],
            }
        )
        if log:
            log(result.history[-1])
        rel_improvement = (best - ev["total"]) / best if np.isfinite(best) and best > 0 else float("inf")
        if ev["total"] < best:
            best = ev["total"]
            result.best_eval_loss = best
            if out_dir is not None:
                path = out_dir / "best.ckpt"
                save_checkpoint(path, model, optimizer_state=opt.state_dict(),
                                extra={"epoch": epoch + 1, "batch_index": 0,
                                       "best_eval_loss": best, "bad_evals": bad_evals})
                if path not in result.checkpoints:
                    result.checkpoints.append(path)
        if rel_improvement < cfg.early_stop_rel_improvement:
            bad_evals += 1
            if bad_evals >= cfg.early_stop_patience:
                result.stopped_early = True
                stop = True
        else:
            bad_evals = 0
        if stop_when is not None and stop_when(ev):
            stop = True
        if stop:
            break
    result.steps = opt.step_count
    result.best_eval_loss = best
    if out_dir is not None:
        path = out_dir / "final.ckpt"
        save_checkpoint(path, model, optimizer_state=opt.state_dict(),
                        extra={"epoch": result.epochs, "batch_index": 0,
                               "best_eval_loss": best, "bad_evals": bad_evals})
        result.checkpoints.append(path)
        write_loss_curves(result.history, out_dir / "loss_curves.csv")
    return result


def write_loss_curves(history, path):
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.DictWriter(f, fieldnames=["step", "epoch", "train_loss", "eval_loss", "ntp", "td", "tte"])
        w.writeheader()
        for row in history:
            w.writerow(row)
