"""Four privacy attacks over binary profiles, each yielding one risk score.

These are declared approximations of the published attack metrics: Hamming
distance on indicator profiles, with scores framed as improvement over a
naive baseline (floored at zero) so that statistically independent synthetic
data scores near 0 and memorized data scores high. The PASS rule compares
every score against the 0.333 threshold.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "RISK_THRESHOLD",
    "NnaaResult",
    "MembershipResult",
    "AttributeResult",
    "IdentityResult",
    "nnaa_risk",
    "membership_inference",
    "attribute_inference",
    "identity_disclosure",
    "PrivacySuiteResult",
    "run_privacy_suite",
]

RISK_THRESHOLD = 0.333


def _as_matrix(profiles, name: str) -> np.ndarray:
    """A 0/1 profile matrix as float64; `name` is the argument an error reports."""
    m = np.asarray(profiles, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name}: profiles must be a 2-D binary matrix")
    bad = ~((m == 0.0) | (m == 1.0))  # NaN is neither
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ValueError(f"{name}: profiles must hold only 0 and 1; found {m[i, j]} at row {i}, column {j}")
    return m


def _canonical_sort(m: np.ndarray) -> np.ndarray:
    """Lexicographic row order so scores cannot depend on input record order."""
    return m[np.lexsort(m.T[::-1])]


# Rows of `a` per distance block: memory is O(_CHUNK x len(b)), never N x N.
_CHUNK = 256


def _nearest(a: np.ndarray, b: np.ndarray, self_pairs: bool = False):
    """Exact Hamming nearest neighbours between binary matrices, streamed in row blocks.

    Returns (row minima over b, column minima over a, row argmins into b);
    argmin ties go to the lowest index of b. With self_pairs (b is a), a row's
    distance to itself is excluded. The operands are augmented once per call,
    to [a, |a|, 1] and [-2b, 1, |b|], so that each block is one float32 product
    giving |a| + |b| - 2 a.b^T directly: its entries are small integers and
    every partial sum is an integer of magnitude below 4 x the profile width,
    so the distances are exact integers under any BLAS summation order.
    """
    if len(b) == 0:
        raise ValueError("empty synthetic set")
    w = a.shape[1]
    left = np.ones((len(a), w + 2), dtype=np.float32)  # [a, |a|, 1]
    left[:, :w] = a
    left[:, w] = left[:, :w].sum(axis=1)
    right = np.ones((len(b), w + 2), dtype=np.float32)  # [-2b, 1, |b|]
    right[:, :w] = b
    right[:, w + 1] = right[:, :w].sum(axis=1)
    right[:, :w] *= -2.0
    row_min = np.empty(len(a), dtype=np.float32)
    col_min = np.full(len(b), np.inf, dtype=np.float32)
    row_arg = np.empty(len(a), dtype=np.intp)
    for i in range(0, len(a), _CHUNK):
        d = left[i:i + _CHUNK] @ right.T
        k = np.arange(len(d))
        if self_pairs:
            d[k, i + k] = np.inf
        arg = d.argmin(axis=1)
        row_arg[i:i + len(d)] = arg
        row_min[i:i + len(d)] = d[k, arg]
        np.minimum(col_min, d.min(axis=0), out=col_min)
    return row_min, col_min, row_arg


@dataclass(frozen=True)
class NnaaResult:
    score: float
    aa_eval_synth: float
    aa_train_synth: float
    n: int


def _adversarial_accuracy(a: np.ndarray, b: np.ndarray, b_self: np.ndarray) -> float:
    """AA(A,B): how often the nearest cross-set neighbor is farther than the
    nearest leave-self-out within-set neighbor, averaged over both directions.
    b_self holds b's leave-self-out minima, shared between calls."""
    a_to_b, b_to_a, _ = _nearest(a, b)
    term_a = (a_to_b > _nearest(a, a, self_pairs=True)[0]).mean()
    term_b = (b_to_a > b_self).mean()
    return 0.5 * float(term_a + term_b)


def nnaa_risk(train, eval_, synthetic, seed: int = 0, sample_size: int | None = None) -> NnaaResult:
    """AA(eval, synthetic) - AA(train, synthetic); positive means synthetic
    records sit closer to training data than held-out data (memorization).
    All three sets are subsampled (seeded, order-invariant) to one size n."""
    train, eval_, synthetic = _as_matrix(train, "train"), _as_matrix(eval_, "eval_"), _as_matrix(synthetic, "synthetic")
    n = min(len(train), len(eval_), len(synthetic))
    if sample_size is not None:
        n = min(n, int(sample_size))
    if n < 10:
        raise ValueError(f"sample size {n} too small for a stable NNAA estimate (need >= 10)")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x44AA]))
    parts = []
    for m in (train, eval_, synthetic):
        m = _canonical_sort(m)
        idx = rng.choice(len(m), size=n, replace=False)
        parts.append(m[np.sort(idx)])
    train_s, eval_s, synth_s = parts
    synth_self = _nearest(synth_s, synth_s, self_pairs=True)[0]
    aa_es = _adversarial_accuracy(eval_s, synth_s, synth_self)
    aa_ts = _adversarial_accuracy(train_s, synth_s, synth_self)
    return NnaaResult(score=float(aa_es - aa_ts), aa_eval_synth=aa_es, aa_train_synth=aa_ts, n=n)


@dataclass(frozen=True)
class MembershipResult:
    score: float
    best_threshold: int
    best_f1: float
    baseline_f1: float


def membership_inference(targets, membership_truth, synthetic) -> MembershipResult:
    """Distance-threshold membership attack, scored as best-F1 gain.

    A target counts as 'member' when its nearest synthetic record lies within
    tau Hamming bits; tau sweeps the full range and the score is the best F1
    minus the F1 of the classify-everyone-positive baseline, floored at 0.
    """
    targets = _as_matrix(targets, "targets")
    synthetic = _as_matrix(synthetic, "synthetic")
    if len(synthetic) == 0:
        raise ValueError("empty synthetic set")
    truth = np.asarray(membership_truth, dtype=bool)
    if truth.shape != (len(targets),):
        raise ValueError("membership_truth must align with targets")
    if not truth.any():
        raise ValueError("no true members among targets")
    min_d = _nearest(targets, synthetic)[0]
    n_pos = int(truth.sum())
    baseline_f1 = 2.0 * n_pos / (len(targets) + n_pos)  # all-positive classifier
    best_f1, best_tau = 0.0, 0
    for tau in range(0, targets.shape[1] + 1):
        pred = min_d <= tau
        tp = float(np.sum(pred & truth))
        if tp == 0.0:
            continue
        precision = tp / pred.sum()
        recall = tp / n_pos
        f1 = 2.0 * precision * recall / (precision + recall)
        if f1 > best_f1:
            best_f1, best_tau = f1, tau
    return MembershipResult(
        score=float(max(0.0, best_f1 - baseline_f1)),
        best_threshold=best_tau,
        best_f1=float(best_f1),
        baseline_f1=float(baseline_f1),
    )


@dataclass(frozen=True)
class AttributeResult:
    score: float
    per_attribute: tuple[tuple[int, float, float], ...]  # (column, accuracy, baseline)


def attribute_inference(targets, synthetic, key_attrs, sensitive_attrs) -> AttributeResult:
    """Nearest synthetic neighbor on key attributes predicts the sensitive bits.

    Score is the entropy-weighted mean accuracy improvement over each
    attribute's majority rate, floored at zero; constant attributes carry no
    weight.
    """
    targets = _as_matrix(targets, "targets")
    synthetic = _as_matrix(synthetic, "synthetic")
    key = np.asarray(key_attrs, dtype=np.int64)
    sens = np.asarray(sensitive_attrs, dtype=np.int64)
    if len(key) == 0 or len(sens) == 0:
        raise ValueError("key and sensitive attribute sets must be nonempty")
    if set(key.tolist()) & set(sens.tolist()):
        raise ValueError("key and sensitive attribute sets must be disjoint")
    nn = _nearest(targets[:, key], synthetic[:, key])[2]  # ties: lowest synthetic index, deterministic
    pred = synthetic[np.ix_(nn, sens)]
    true = targets[:, sens]
    acc = (pred == true).mean(axis=0)
    p = true.mean(axis=0)
    base = np.maximum(p, 1.0 - p)
    with np.errstate(divide="ignore", invalid="ignore"):
        ent = -np.where(p > 0, p * np.log2(p), 0.0) - np.where(p < 1, (1 - p) * np.log2(1 - p), 0.0)
    if ent.sum() == 0.0:
        return AttributeResult(score=0.0, per_attribute=tuple(zip(sens.tolist(), acc.tolist(), base.tolist())))
    score = float(np.sum(ent * (acc - base)) / ent.sum())
    return AttributeResult(
        score=max(0.0, score),
        per_attribute=tuple(zip(sens.tolist(), acc.tolist(), base.tolist())),
    )


@dataclass(frozen=True)
class IdentityResult:
    score: float
    n_disclosed: int


def identity_disclosure(population, synthetic, quasi_identifiers, match_tolerance: float = 0.8) -> IdentityResult:
    """Simplified meaningful-identity-disclosure rate.

    A synthetic record disclosing: its quasi-identifier bits match exactly one
    population record, and at least match_tolerance of the remaining
    attributes agree with that record. Score averages 1/group_size over
    disclosing records (group_size is 1 by construction here; the
    simplification is declared, not hidden).
    """
    population = _as_matrix(population, "population")
    synthetic = _as_matrix(synthetic, "synthetic")
    qi = np.asarray(quasi_identifiers, dtype=np.int64)
    if len(qi) == 0:
        raise ValueError("quasi-identifier set must be nonempty")
    rest = np.array([j for j in range(population.shape[1]) if j not in set(qi.tolist())], dtype=np.int64)
    groups: dict[bytes, list[int]] = {}
    for i, row in enumerate(population[:, qi].astype(np.uint8)):
        groups.setdefault(row.tobytes(), []).append(i)
    disclosed = 0
    total = 0.0
    for srow in synthetic.astype(np.uint8):
        members = groups.get(srow[qi].tobytes())
        if members is None or len(members) != 1:
            continue
        if len(rest) == 0:
            agree = 1.0
        else:
            agree = float((population[members[0], rest] == srow[rest]).mean())
        if agree >= match_tolerance:
            disclosed += 1
            total += 1.0  # 1/group_size with group_size == 1
    n = len(synthetic)
    return IdentityResult(score=total / n if n else 0.0, n_disclosed=disclosed)


@dataclass
class PrivacySuiteResult:
    nnaa: NnaaResult
    membership: MembershipResult
    attribute: AttributeResult
    identity: IdentityResult
    counters: dict[str, int] = field(default_factory=dict)  # input sizes, for run manifests

    @property
    def passed(self) -> bool:
        return all(
            s < RISK_THRESHOLD
            for s in (self.nnaa.score, self.membership.score, self.attribute.score, self.identity.score)
        )

    def rows(self):
        return [
            ("nnaa_risk", self.nnaa.score),
            ("membership_inference", self.membership.score),
            ("attribute_inference", self.attribute.score),
            ("identity_disclosure", self.identity.score),
        ]


def run_privacy_suite(
    train,
    eval_,
    synthetic,
    key_attrs,
    sensitive_attrs,
    quasi_identifiers,
    seed: int = 0,
    match_tolerance: float = 0.8,
    sample_size: int | None = None,
) -> PrivacySuiteResult:
    """All four attacks; the membership targets are the first k train and the first k eval persons."""
    train = _as_matrix(train, "train")
    eval_ = _as_matrix(eval_, "eval_")
    synthetic = _as_matrix(synthetic, "synthetic")
    k = min(len(train), len(eval_))
    membership_targets = np.concatenate([train[:k], eval_[:k]])
    membership_truth = np.concatenate([np.ones(k, dtype=bool), np.zeros(k, dtype=bool)])
    nnaa = nnaa_risk(train, eval_, synthetic, seed=seed, sample_size=sample_size)
    return PrivacySuiteResult(
        nnaa=nnaa,
        membership=membership_inference(membership_targets, membership_truth, synthetic),
        attribute=attribute_inference(
            np.concatenate([train, eval_]), synthetic, key_attrs, sensitive_attrs
        ),
        identity=identity_disclosure(train, synthetic, quasi_identifiers, match_tolerance),
        counters=dict(
            profile_bits=train.shape[1],
            train_persons=len(train),
            eval_persons=len(eval_),
            synthetic_persons=len(synthetic),
            nnaa_sample=nnaa.n,
            membership_targets=len(membership_targets),
        ),
    )
