"""Mixture-of-experts pooling: many sampling configurations, one synthetic corpus."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..codec import TokenSequence
from ..model import TimelineModel
from .sampling import SamplingConfig, sample_sequence

__all__ = ["Provenance", "ExpertReport", "SyntheticCorpus", "generate_pool"]


@dataclass(frozen=True)
class Provenance:
    expert: int
    index: int
    seed: int


@dataclass
class ExpertReport:
    expert: int
    requested: int
    generated: int
    kept: int
    dropped_short: int
    hit_max_tokens: int
    generated_tokens: int  # tokens sampled after the prompt, summed over every sequence, kept or dropped


@dataclass
class SyntheticCorpus:
    sequences: list[TokenSequence]
    provenance: list[Provenance]
    per_expert: list[ExpertReport]

    def __len__(self):
        return len(self.sequences)


def _prompt_for(pool, rng):
    return pool[int(rng.integers(0, len(pool)))]


def generate_pool(
    model: TimelineModel,
    experts: list[SamplingConfig],
    counts: list[int],
    demographic_pool,
    n_threads: int = 1,
) -> SyntheticCorpus:
    """Generate counts[i] sequences under experts[i], pool them, filter short ones.

    Demographic prompts are drawn from the empirical (year, age, gender,
    race) pool of the training corpus. Each sequence has its own random
    stream derived from (expert seed, index), so a sequence does not depend
    on how many others the pool holds; sequences come in (expert, index)
    order. n_threads must be 1; it is kept only for the call in
    perfbench/workloads.py.
    """
    if n_threads != 1:
        raise ValueError(f"n_threads must be 1, got {n_threads}")
    if not experts:
        raise ValueError("at least one expert sampling configuration is required")
    if len(experts) != len(counts):
        raise ValueError("experts and counts differ in length")
    if not demographic_pool:
        raise ValueError("empty demographic prompt pool")
    # prompts with tokens the model never saw (e.g. filtered out of the
    # training corpus) cannot be fed to it
    prompts = [p for p in demographic_pool if all(t in model.vocab for t in p)]
    if not prompts:
        raise ValueError("no demographic prompt is fully covered by the model vocabulary")

    sequences: list[TokenSequence] = []
    provenance: list[Provenance] = []
    reports = []
    for e_idx, (cfg, count) in enumerate(zip(experts, counts)):
        rep = ExpertReport(expert=e_idx, requested=count, generated=0, kept=0, dropped_short=0, hit_max_tokens=0,
                           generated_tokens=0)
        reports.append(rep)
        for s_idx in range(count):
            rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, s_idx]))
            prompt = _prompt_for(prompts, rng)
            seq = sample_sequence(model, prompt, cfg, rng, person_id=f"syn-{e_idx}-{s_idx}")
            rep.generated += 1
            rep.generated_tokens += len(seq.tokens) - len(prompt)
            if seq.hit_max_tokens:
                rep.hit_max_tokens += 1
            if len(seq.tokens) < cfg.min_tokens:
                rep.dropped_short += 1
                continue
            rep.kept += 1
            sequences.append(seq)
            provenance.append(Provenance(expert=e_idx, index=s_idx, seed=cfg.seed))
    return SyntheticCorpus(sequences=sequences, provenance=provenance, per_expert=reports)
