"""Four privacy attacks over binary profiles, each yielding one risk score.

These are declared approximations of the published attack metrics: Hamming
distance on indicator profiles, with scores framed as improvement over a
naive baseline (floored at zero) so that statistically independent synthetic
data scores near 0 and memorized data scores high. The PASS rule compares
every score against the 0.333 threshold.

The suite computes each distance once: `PrivacyReference` holds the train
and eval side, and one streamed pass over [train; eval] x synthetic serves
NNAA and membership. `nnaa_risk` runs that same pass; `membership_inference`
and `attribute_inference` score targets of the caller's choosing through the
suite's score code.
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
    "PrivacySuiteResult",
    "PrivacyReference",
]

RISK_THRESHOLD = 0.333


def _as_matrix(profiles, name: str) -> np.ndarray:
    """A 0/1 profile matrix as uint8; `name` is the argument an error reports."""
    m = np.asarray(profiles)
    if m.ndim != 2:
        raise ValueError(f"{name}: profiles must be a 2-D binary matrix")
    if m.dtype != np.uint8:
        m = m.astype(np.float64)
    bad = ~((m == 0) | (m == 1))  # NaN is neither
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ValueError(f"{name}: profiles must hold only 0 and 1; found {float(m[i, j])} at row {i}, column {j}")
    return m.astype(np.uint8, copy=False)


def _canonical_order(m: np.ndarray) -> np.ndarray:
    """Row indices in lexicographic row order, so scores cannot depend on input record order."""
    return np.lexsort(m.T[::-1])


# Rows of the left operand per distance block: memory is O(_CHUNK x len(right)), never N x N.
_CHUNK = 256


def _augment(m: np.ndarray) -> np.ndarray:
    """The left operand [m, |m|, 1] of a distance product, as float32."""
    w = m.shape[1]
    left = np.ones((len(m), w + 2), dtype=np.float32)
    left[:, :w] = m
    left[:, w] = left[:, :w].sum(axis=1)
    return left


def _mirror(left: np.ndarray) -> np.ndarray:
    """The right operand [-2m, 1, |m|] of the rows of a left operand [m, |m|, 1]."""
    right = np.empty_like(left)
    right[:, :-2] = -2.0 * left[:, :-2]
    right[:, -2] = 1.0
    right[:, -1] = left[:, -2]
    return right


def _blocks(left: np.ndarray, right: np.ndarray, self_pairs: bool = False):
    """Yield (first row, float32 Hamming distances of left's next _CHUNK rows to every row of right).

    Each block is one product [a, |a|, 1] . [-2b, 1, |b|]^T = |a| + |b| - 2 a.b^T:
    its entries are small integers and every partial sum is an integer of
    magnitude below 4 x the profile width, so the distances are exact
    integers under any BLAS summation order, in whichever block a pair falls.
    With self_pairs (right mirrors left), a row's distance to itself is inf.
    """
    for i in range(0, len(left), _CHUNK):
        d = left[i:i + _CHUNK] @ right.T
        if self_pairs:
            k = np.arange(len(d))
            d[k, i + k] = np.inf
        yield i, d


def _self_minima(left: np.ndarray) -> np.ndarray:
    """Each row's distance to its nearest other row (leave-self-out)."""
    out = np.empty(len(left), dtype=np.float32)
    for i, d in _blocks(left, _mirror(left), self_pairs=True):
        d.min(axis=1, out=out[i:i + len(d)])
    return out


def _minima(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Each left row's distance to its nearest right row."""
    out = np.empty(len(left), dtype=np.float32)
    for i, d in _blocks(left, right):
        d.min(axis=1, out=out[i:i + len(d)])
    return out


def _argmins(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Each left row's nearest right row; ties go to the lowest index of right."""
    out = np.empty(len(left), dtype=np.intp)
    for i, d in _blocks(left, right):
        d.argmin(axis=1, out=out[i:i + len(d)])
    return out


@dataclass(frozen=True)
class NnaaResult:
    score: float
    aa_eval_synth: float
    aa_train_synth: float
    n: int


def _nnaa_size(n_train: int, n_eval: int, n_synthetic: int, sample_size: int | None) -> int:
    """The one size n that NNAA subsamples all three sets to."""
    n = min(n_train, n_eval, n_synthetic)
    if sample_size is not None:
        n = min(n, int(sample_size))
    if n < 10:
        raise ValueError(f"sample size {n} too small for a stable NNAA estimate (need >= 10)")
    return n


def _sample_rows(order: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """Row indices of a seeded n-row sample, drawn from positions in canonical order, in that order."""
    return order[np.sort(rng.choice(len(order), size=n, replace=False))]


def _nnaa_result(n: int, synth_self: np.ndarray, eval_side, train_side) -> NnaaResult:
    """AA(eval, synthetic) - AA(train, synthetic) from minima over the samples.

    Each side is (its rows' minima over the synthetic sample, its own
    leave-self-out minima, the synthetic rows' minima over it); AA(A,B) is how
    often the nearest cross-set neighbour is farther than the nearest
    within-set one, averaged over both directions.
    """
    aa_es, aa_ts = (0.5 * float((to_synth > own).mean() + (from_synth > synth_self).mean())
                    for to_synth, own, from_synth in (eval_side, train_side))
    return NnaaResult(score=float(aa_es - aa_ts), aa_eval_synth=aa_es, aa_train_synth=aa_ts, n=n)


class _TrainEval:
    """The [train; eval] side that NNAA and membership share, and the one pass over it.

    It holds the [train; eval] operand over all columns and the canonical
    orders; per (seed, n) it draws the NNAA train and eval samples once and
    keeps their leave-self-out minima and the rng state from which the
    synthetic sample is drawn.
    """

    def __init__(self, train: np.ndarray, eval_: np.ndarray):
        self.n_train, self.n_eval = len(train), len(eval_)
        self.both = _augment(np.concatenate([train, eval_]))
        self.orders = (_canonical_order(train), _canonical_order(eval_))
        self._samples: dict = {}

    def _nnaa_side(self, seed: int, n: int):
        """(mask of the sampled [train; eval] rows, their leave-self-out minima in row order,
        the rng state after the train and eval draws, distance pairs computed now) for (seed, n)."""
        if (seed, n) in self._samples:
            return (*self._samples[seed, n], 0)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x44AA]))  # train sample, then eval, then synthetic
        sampled = np.zeros(len(self.both), dtype=bool)
        own = []
        for offset, order in zip((0, self.n_train), self.orders):
            rows = np.sort(offset + _sample_rows(order, n, rng))
            sampled[rows] = True
            own.append(_self_minima(self.both[rows]))
        self._samples[seed, n] = sampled, np.concatenate(own), rng.bit_generator.state
        return (*self._samples[seed, n], 2 * n * n)

    def cross(self, synthetic: np.ndarray, seed: int, sample_size: int | None):
        """(the NNAA result, each [train; eval] row's distance to its nearest synthetic row,
        distance pairs computed) from one streamed pass over [train; eval] x synthetic."""
        n_train, n_both, n_synth = self.n_train, len(self.both), len(synthetic)
        n = _nnaa_size(n_train, self.n_eval, n_synth, sample_size)
        sampled, own, state, pairs = self._nnaa_side(seed, n)
        bits = np.random.PCG64()
        bits.state = state
        cols = _sample_rows(_canonical_order(synthetic), n, np.random.Generator(bits))

        # the synthetic sample first, in its canonical order, then the rows it left out: its columns are a slice
        left_out = np.setdiff1d(np.arange(n_synth), cols, assume_unique=True)
        synth_left = _augment(synthetic[np.concatenate([cols, left_out])])
        nearest = np.empty(n_both, dtype=np.float32)  # over all synthetic rows: membership
        to_sample = np.empty(2 * n, dtype=np.float32)  # sampled rows, over the synthetic sample
        from_train, from_eval = (np.full(n, np.inf, dtype=np.float32) for _ in range(2))  # synthetic sample rows
        done = 0
        for i, d in _blocks(self.both, _mirror(synth_left)):
            near = d[:, :n].min(axis=1)  # over the synthetic sample
            np.minimum(near, d[:, n:].min(axis=1, initial=np.inf), out=nearest[i:i + len(d)])
            rows = sampled[i:i + len(d)]
            ds = d[:, :n] if rows.all() else d[rows, :n]  # a block may straddle the train/eval boundary
            to_sample[done:done + len(ds)] = near[rows]
            n_t = np.count_nonzero(rows[:max(0, n_train - i)])
            if n_t:
                np.minimum(from_train, ds[:n_t].min(axis=0), out=from_train)
            if n_t < len(ds):
                np.minimum(from_eval, ds[n_t:].min(axis=0), out=from_eval)
            done += len(ds)
        nnaa = _nnaa_result(n, _self_minima(synth_left[:n]),
                            (to_sample[n:], own[n:], from_eval), (to_sample[:n], own[:n], from_train))
        return nnaa, nearest, pairs + n_both * n_synth + n * n


def nnaa_risk(train, eval_, synthetic, seed: int = 0, sample_size: int | None = None) -> NnaaResult:
    """AA(eval, synthetic) - AA(train, synthetic); positive means synthetic
    records sit closer to training data than held-out data (memorization).
    All three sets are subsampled (seeded, order-invariant) to one size n."""
    train, eval_, synthetic = _as_matrix(train, "train"), _as_matrix(eval_, "eval_"), _as_matrix(synthetic, "synthetic")
    return _TrainEval(train, eval_).cross(synthetic, seed, sample_size)[0]


@dataclass(frozen=True)
class MembershipResult:
    score: float
    best_threshold: int
    best_f1: float
    baseline_f1: float


def _membership_result(min_d: np.ndarray, truth: np.ndarray, width: int) -> MembershipResult:
    """Best-F1 gain of 'member iff the nearest synthetic record lies within tau bits', tau over 0..width."""
    n_pos = int(truth.sum())
    baseline_f1 = 2.0 * n_pos / (len(truth) + n_pos)  # all-positive classifier
    bits = min_d.astype(np.intp)  # distances are exact integers in 0..width
    # predicted and true-positive counts at each tau: members within tau bits
    predicted = np.cumsum(np.bincount(bits, minlength=width + 1))
    hits = np.cumsum(np.bincount(bits[truth], minlength=width + 1))
    best_f1, best_tau = 0.0, 0
    for tau in range(0, width + 1):
        tp = float(hits[tau])
        if tp == 0.0:
            continue
        precision = tp / predicted[tau]
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
    min_d = _minima(_augment(targets), _mirror(_augment(synthetic)))
    return _membership_result(min_d, truth, targets.shape[1])


@dataclass(frozen=True)
class AttributeResult:
    score: float
    per_attribute: tuple[tuple[int, float, float], ...]  # (column, accuracy, baseline)


def _profile_columns(width: int, **index_sets) -> list[np.ndarray]:
    """Each named set of profile columns as an int64 array, checked: nonempty, every index in
    0..width-1 (a negative index is an error, not a count from the end), and key_attrs
    disjoint from sensitive_attrs."""
    out = {}
    for name, attrs in index_sets.items():
        cols = out[name] = np.asarray(attrs, dtype=np.int64).reshape(-1)
        if len(cols) == 0:
            raise ValueError(f"{name}: must name at least one profile column")
        bad = cols[(cols < 0) | (cols >= width)]
        if len(bad):
            raise ValueError(f"{name}: column {bad[0]} is outside the {width}-bit profile (columns 0 to {width - 1})")
    if set(out["key_attrs"].tolist()) & set(out["sensitive_attrs"].tolist()):
        raise ValueError("key_attrs and sensitive_attrs must be disjoint")
    return list(out.values())


def _attribute_result(pred: np.ndarray, true: np.ndarray, sens: np.ndarray) -> AttributeResult:
    """Entropy-weighted mean accuracy gain of predicted over true sensitive bits, floored at zero."""
    acc = (pred == true).mean(axis=0)
    p = true.mean(axis=0)
    base = np.maximum(p, 1.0 - p)
    with np.errstate(divide="ignore", invalid="ignore"):
        ent = -np.where(p > 0, p * np.log2(p), 0.0) - np.where(p < 1, (1 - p) * np.log2(1 - p), 0.0)
    per_attribute = tuple(zip(sens.tolist(), acc.tolist(), base.tolist()))
    if ent.sum() == 0.0:
        return AttributeResult(score=0.0, per_attribute=per_attribute)
    score = float(np.sum(ent * (acc - base)) / ent.sum())
    return AttributeResult(score=max(0.0, score), per_attribute=per_attribute)


def attribute_inference(targets, synthetic, key_attrs, sensitive_attrs) -> AttributeResult:
    """Nearest synthetic neighbor on key attributes predicts the sensitive bits.

    Score is the entropy-weighted mean accuracy improvement over each
    attribute's majority rate, floored at zero; constant attributes carry no
    weight.
    """
    targets = _as_matrix(targets, "targets")
    synthetic = _as_matrix(synthetic, "synthetic")
    key, sens = _profile_columns(targets.shape[1], key_attrs=key_attrs, sensitive_attrs=sensitive_attrs)
    if len(synthetic) == 0:
        raise ValueError("empty synthetic set")
    nn = _argmins(_augment(targets[:, key]), _mirror(_augment(synthetic[:, key])))
    return _attribute_result(synthetic[np.ix_(nn, sens)], targets[:, sens], sens)


@dataclass(frozen=True)
class IdentityResult:
    score: float
    n_disclosed: int


def _identity_groups(population: np.ndarray, qi: np.ndarray) -> dict[bytes, int]:
    """Quasi-identifier bytes -> the population row holding them, or -1 when several rows do."""
    groups: dict[bytes, int] = {}
    for i, row in enumerate(population[:, qi]):
        key = row.tobytes()
        groups[key] = -1 if key in groups else i
    return groups


def _identity_result(population, groups, qi, synthetic, match_tolerance: float) -> IdentityResult:
    """A synthetic record discloses when its quasi-identifiers match exactly one
    population row and at least match_tolerance of the other columns agree with it."""
    rest = np.setdiff1d(np.arange(population.shape[1]), qi)
    match = np.array([groups.get(row.tobytes(), -1) for row in synthetic[:, qi]], dtype=np.intp)
    hit = np.flatnonzero(match >= 0)
    if len(rest) == 0:
        agree = np.ones(len(hit))
    else:
        agree = (population[np.ix_(match[hit], rest)] == synthetic[np.ix_(hit, rest)]).mean(axis=1)
    disclosed = int(np.count_nonzero(agree >= match_tolerance))
    n = len(synthetic)
    return IdentityResult(score=float(disclosed) / n if n else 0.0, n_disclosed=disclosed)  # 1/group_size == 1


@dataclass
class PrivacySuiteResult:
    nnaa: NnaaResult
    membership: MembershipResult
    attribute: AttributeResult
    identity: IdentityResult
    counters: dict[str, int] = field(default_factory=dict)  # input sizes and work done, for run manifests

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


class PrivacyReference:
    """The train/eval side of the suite, built once and read by every synthetic set audited against it.

    It holds the side NNAA and membership share (`_TrainEval`), the
    [train; eval] operand over the key columns, the sensitive columns and the
    identity groups of train. audit() then costs one `_TrainEval.cross` pass,
    the key-column argmin pass and the identity lookups.
    """

    def __init__(self, train, eval_, key_attrs, sensitive_attrs, quasi_identifiers):
        train, eval_ = _as_matrix(train, "train"), _as_matrix(eval_, "eval_")
        self.width = train.shape[1]
        self.key, self.sens, self.qi = _profile_columns(
            self.width, key_attrs=key_attrs, sensitive_attrs=sensitive_attrs, quasi_identifiers=quasi_identifiers)
        self.side = _TrainEval(train, eval_)
        both = np.concatenate([train, eval_])
        self.key_both = _augment(both[:, self.key])
        self.truth = both[:, self.sens]
        self.train = train
        self.groups = _identity_groups(train, self.qi)

    def audit(self, synthetic, seed: int, match_tolerance: float, sample_size: int | None) -> PrivacySuiteResult:
        """All four attacks on one synthetic set.

        The membership targets are the first k train and the first k eval persons.
        """
        if not 0.0 <= match_tolerance <= 1.0:
            raise ValueError(f"match_tolerance: must lie in [0, 1], got {match_tolerance}")
        synthetic = _as_matrix(synthetic, "synthetic")
        nnaa, nearest, pairs = self.side.cross(synthetic, seed, sample_size)
        n_train, n_eval = self.side.n_train, self.side.n_eval
        k = min(n_train, n_eval)
        truth = np.zeros(2 * k, dtype=bool)
        truth[:k] = True
        membership = _membership_result(np.concatenate([nearest[:k], nearest[n_train:n_train + k]]), truth, self.width)

        nn = _argmins(self.key_both, _mirror(_augment(synthetic[:, self.key])))
        attribute = _attribute_result(synthetic[np.ix_(nn, self.sens)], self.truth, self.sens)
        identity = _identity_result(self.train, self.groups, self.qi, synthetic, match_tolerance)
        return PrivacySuiteResult(
            nnaa=nnaa,
            membership=membership,
            attribute=attribute,
            identity=identity,
            counters=dict(
                profile_bits=self.width,
                train_persons=n_train,
                eval_persons=n_eval,
                synthetic_persons=len(synthetic),
                nnaa_sample=nnaa.n,
                membership_targets=2 * k,
                distance_pairs=pairs + len(self.key_both) * len(synthetic),
            ),
        )
