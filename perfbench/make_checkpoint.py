"""Rebuild the checkpoint fixture used by the generate and zeroshot workloads.

Trains the README demo recipe (500 synthworld patients, seed 42; embed_dim 48,
2 layers, 4 heads, context 256; 2048 tokens per batch) to early stop, then
re-saves the best checkpoint with weights only (no optimizer moments).

    PYTHONPATH=src python3 perfbench/make_checkpoint.py --work-dir <scratch dir>

After a rebuild, put the printed SHA-256 into CHECKPOINT_SHA256 in
perfbench/workloads.py.
"""
from __future__ import annotations

import argparse
import hashlib
from pathlib import Path

from chronoseq.codec import CodecConfig
from chronoseq.model import ModelConfig, TimelineModel, load_checkpoint, save_checkpoint
from chronoseq.synthworld import sample_hospital_records
from chronoseq.training import TrainConfig, prepare_corpus, train

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "demo_best.ckpt"

DEMO_TRAIN = TrainConfig(learning_rate=2e-3, warmup_steps=150, max_epochs=80, tokens_per_batch=2048,
                         early_stop_patience=5, eval_fraction=0.1, seed=0)
DEMO_MODEL = dict(embed_dim=48, n_layers=2, n_heads=4, context_window=256)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--work-dir", required=True, help="directory for the training run's checkpoints")
    ap.add_argument("--out", default=str(FIXTURE))
    args = ap.parse_args()
    corpus = prepare_corpus(sample_hospital_records(500, seed=42), CodecConfig(),
                            context_window=DEMO_MODEL["context_window"], min_seq_tokens=DEMO_TRAIN.min_seq_tokens,
                            eval_fraction=DEMO_TRAIN.eval_fraction, seed=DEMO_TRAIN.seed)
    model = TimelineModel.initialize(ModelConfig(vocab_size=len(corpus.vocab), **DEMO_MODEL), corpus.vocab,
                                     seed=DEMO_TRAIN.seed)
    result = train(model, corpus.train, corpus.eval, DEMO_TRAIN, out_dir=args.work_dir)
    best, _, _ = load_checkpoint(Path(args.work_dir) / "best.ckpt")
    save_checkpoint(args.out, best)
    digest = hashlib.sha256(Path(args.out).read_bytes()).hexdigest()
    print(f"trained {result.steps} steps over {result.epochs} epochs; best eval loss {result.best_eval_loss:.4f}")
    print(f"{args.out} sha256 {digest}")


if __name__ == "__main__":
    main()
