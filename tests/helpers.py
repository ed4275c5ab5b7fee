"""Shared test fixtures: rigged models, independent oracles, tiny corpora."""
from __future__ import annotations

import numpy as np

from chronoseq.autodiff.tensor import (
    GELU_A,
    GELU_C,
    LAYER_NORM_EPS,
    Tensor,
    _accum,
    _accum_unbroadcast,
    _dropped,
    _keep_mask,
    _unbroadcast,
)
from chronoseq.codec.vocab import Vocabulary

SPECIALS = ["[PAD]", "[VS]", "[VE]", "[LT]", "[END]"]


# ---------------------------------------------------------------------------
# rigged autoregressive model with a known transition matrix


class MarkovSession:
    def __init__(self, model, ids=None):
        self.model = model
        self._ids = list(ids or [])

    @property
    def length(self):
        return len(self._ids)

    def prefill(self, ids):
        self._ids.extend(int(t) for t in ids)

    def append(self, tid):
        self._ids.append(int(tid))

    def fork(self, n):
        lanes = MarkovLanes(self.model)
        lanes.join(self, n)
        return lanes

    def next_logits(self):
        return self.model.logits_after(self._ids[-1])


class MarkovLanes:
    """Lanes over the Markov rows, with the LaneBatch interface: groups of
    lanes joined from different sessions, rows ordered by group."""

    def __init__(self, model):
        self.model = model
        self._groups = []  # [prefix, suffixes] per group, in row order

    @property
    def n_lanes(self):
        return sum(len(suffixes) for _, suffixes in self._groups)

    def join(self, session, n):
        self._groups.append([list(session._ids), [[] for _ in range(n)]])

    def next_logits(self):
        return np.stack([self.model.logits_after((s or prefix)[-1])
                         for prefix, suffixes in self._groups for s in suffixes])

    def append(self, ids):
        rows = [s for _, suffixes in self._groups for s in suffixes]
        for s, t in zip(rows, ids, strict=True):
            s.append(int(t))

    def keep(self, idx):
        owners = [(g, j) for g, (_, suffixes) in enumerate(self._groups) for j in range(len(suffixes))]
        kept = [owners[i] for i in idx]
        assert [g for g, _ in kept] == sorted(g for g, _ in kept), "rows must stay grouped in batch order"
        groups = []
        for g, (prefix, suffixes) in enumerate(self._groups):
            mine = [suffixes[j] for h, j in kept if h == g]
            if mine:
                groups.append([prefix, mine])
        self._groups = groups


class MarkovModel:
    """First-order chain exposed through the generation-session interface.

    transition maps token -> {next_token: probability}; tokens absent from a
    row are impossible (log-prob -1e30). States without a row fall back to
    the 'default' row.
    """

    def __init__(self, transition: dict, context_window: int = 4096, extra_tokens=()):
        tokens = list(SPECIALS)
        seen = set(tokens)
        for src, row in transition.items():
            for t in [src, *row]:
                if t not in seen and t != "default":
                    tokens.append(t)
                    seen.add(t)
        for t in extra_tokens:
            if t not in seen:
                tokens.append(t)
                seen.add(t)
        self.vocab = Vocabulary(tokens)
        self.transition = transition

        class _Cfg:
            pass

        self.config = _Cfg()
        self.config.context_window = context_window
        self._logit_cache = {}

    def row_for(self, token: str) -> dict:
        return self.transition.get(token) or self.transition["default"]

    def logits_after(self, last_id: int) -> np.ndarray:
        if last_id in self._logit_cache:
            return self._logit_cache[last_id]
        row = self.row_for(self.vocab.token_of(last_id))
        z = np.full(len(self.vocab), -1e30)
        for tok, p in row.items():
            z[self.vocab.id_of(tok)] = np.log(p)
        self._logit_cache[last_id] = z
        return z

    def open_session(self):
        return MarkovSession(self)


def enumerate_outcome_probability(model: MarkovModel, prompt_last: str, outcome_ids, window_start, window_end,
                                  max_new_tokens: int):
    """Exact (P_positive, P_negative, P_censored) by exhaustive continuation
    enumeration, mirroring the simulator's classification rules."""
    from chronoseq.codec.tokens import TokenClass, att_days_of, classify_token, concept_id_of

    totals = {"positive": 0.0, "negative": 0.0, "censored": 0.0}

    def walk(last_tok, accrued, depth, prob):
        if depth == max_new_tokens:
            totals["censored"] += prob
            return
        for tok, p in model.row_for(last_tok).items():
            pr = prob * p
            cls = classify_token(tok)
            if cls is TokenClass.END:
                totals["censored"] += pr
                continue
            if cls in (TokenClass.ATT_DAY, TokenClass.ATT_LT):
                acc2 = accrued + att_days_of(tok)
                if acc2 > window_end:
                    totals["negative"] += pr
                else:
                    walk(tok, acc2, depth + 1, pr)
                continue
            if cls in (TokenClass.CONCEPT, TokenClass.VT) and concept_id_of(tok) in outcome_ids \
                    and window_start <= accrued <= window_end:
                totals["positive"] += pr
                continue
            walk(tok, accrued, depth + 1, pr)

    walk(prompt_last, 0, 0, 1.0)
    return totals["positive"], totals["negative"], totals["censored"]


# ---------------------------------------------------------------------------
# independent metric oracles (quadratic, threshold-sweep based)


def auroc_bruteforce(scores, labels) -> float:
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = ties = 0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1
            elif p == n:
                ties += 1
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def auprc_bruteforce(scores, labels) -> float:
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    n_pos = int(labels.sum())
    points = []
    for t in sorted(set(scores.tolist()), reverse=True):
        pred = scores >= t
        tp = int((pred & (labels == 1)).sum())
        fp = int((pred & (labels == 0)).sum())
        points.append((tp / n_pos, tp / (tp + fp)))
    points.sort()
    area = 0.0
    prev_r = 0.0
    for i, (r, _) in enumerate(points):
        env = max(p for rr, p in points if rr >= r)
        area += (r - prev_r) * env
        prev_r = r
    return area


def auroc_per_resample(s, y, n_pos) -> float:
    """AUROC of one checked resample, as bootstrap_metric computed it once per
    resample before it computed a whole block of resamples at once."""
    neg = np.sort(s[y == 0])
    pos = s[y == 1]
    below = np.searchsorted(neg, pos, side="left")
    tied = np.searchsorted(neg, pos, side="right") - below
    return float((below.sum() + 0.5 * tied.sum()) / (n_pos * (len(y) - n_pos)))


def auprc_per_resample(s, y, n_pos) -> float:
    """AUPRC of one checked resample, as bootstrap_metric computed it once per
    resample before it computed a whole block of resamples at once."""
    order = np.argsort(-s, kind="mergesort")
    s_sorted = s[order]
    y_sorted = y[order]
    tp = np.cumsum(y_sorted)
    fp = np.cumsum(1 - y_sorted)
    # thresholds sit at the last index of each tied score group
    last_of_group = np.nonzero(np.append(np.diff(s_sorted) != 0, True))[0]
    precision = tp[last_of_group] / (tp[last_of_group] + fp[last_of_group])
    recall = tp[last_of_group] / n_pos
    # envelope: best precision achievable at or beyond each recall level
    env = np.maximum.accumulate(precision[::-1])[::-1]
    prev_recall = np.concatenate([[0.0], recall[:-1]])
    return float(np.sum((recall - prev_recall) * env))


# ---------------------------------------------------------------------------
# exact chi-square survival function for even degrees of freedom


def chi2_sf_even(x: float, dof: int) -> float:
    """P(X > x) for chi-square with even dof: exp(-x/2) * sum (x/2)^k / k!."""
    if dof % 2 != 0 or dof <= 0:
        raise ValueError("even positive dof only")
    m = dof // 2
    half = x / 2.0
    term = 1.0
    acc = 1.0
    for k in range(1, m):
        term *= half / k
        acc += term
    return float(np.exp(-half) * acc)


# ---------------------------------------------------------------------------
# per-row table oracles: the loops prevalence_report, ProfileSpec.from_tables
# and build_profiles ran before they shared codec.concept_incidence


def kept_events(tables):
    """The event rows tables_to_records keeps, tested one row at a time: a known
    concept, a visit that exists and is the event person's, and that person in the
    persons table."""
    persons = {p.person_id for p in tables.persons}
    visit_person = {v.visit_id: v.person_id for v in tables.visits}
    return [e for e in tables.events
            if e.concept_id != 0 and visit_person.get(e.visit_id) == e.person_id and e.person_id in persons]


def prevalence_reference(real, synthetic):
    """[PrevalenceRow] from per-person concept sets and per-stratum member sets."""
    from chronoseq.codec import INPATIENT_CONCEPTS
    from chronoseq.evalharness import PrevalenceRow
    from chronoseq.evalharness.fidelity import STRATA
    from chronoseq.generation.stats import GENDER_FEMALE

    def person_concepts(tables):
        out = {p.person_id: set() for p in tables.persons}
        for e in kept_events(tables):
            out[e.person_id].add((e.domain, e.concept_id))
        for v in tables.visits:
            if v.person_id in out:
                out[v.person_id].add(("visit", v.visit_concept_id))
        return out

    def strata_members(tables):
        full = {p.person_id for p in tables.persons}
        return {
            "full": full,
            "female": {p.person_id for p in tables.persons if p.gender_concept_id == GENDER_FEMALE},
            "hospitalized": {v.person_id for v in tables.visits if v.visit_concept_id in INPATIENT_CONCEPTS} & full,
        }

    pc_real, pc_syn = person_concepts(real), person_concepts(synthetic)
    concepts = sorted({dc for s in pc_real.values() for dc in s} | {dc for s in pc_syn.values() for dc in s})
    strata_real, strata_syn = strata_members(real), strata_members(synthetic)
    rows = []
    for stratum in STRATA:
        members_r, members_s = strata_real[stratum], strata_syn[stratum]
        counts_r = {dc: 0 for dc in concepts}
        counts_s = {dc: 0 for dc in concepts}
        for pid in members_r:
            for dc in pc_real[pid]:
                counts_r[dc] += 1
        for pid in members_s:
            for dc in pc_syn[pid]:
                counts_s[dc] += 1
        for domain, concept in concepts:
            rows.append(PrevalenceRow(
                stratum, domain, concept,
                counts_r[(domain, concept)] / len(members_r) if members_r else 0.0,
                counts_s[(domain, concept)] / len(members_s) if members_s else 0.0,
            ))
    return rows


def concept_person_counts(tables):
    """{(domain, concept_id): number of distinct persons with a kept event of it}."""
    seen = {}
    for e in kept_events(tables):
        seen.setdefault((e.domain, e.concept_id), set()).add(e.person_id)
    return {dc: len(pids) for dc, pids in seen.items()}


def profile_spec_reference(tables, top_k_concepts):
    """ProfileSpec with the concepts ranked by (-persons, domain, id)."""
    from chronoseq.privacy import ProfileSpec

    ranked = sorted(concept_person_counts(tables).items(), key=lambda kv: (-kv[1], kv[0][0], kv[0][1]))
    return ProfileSpec(gender_concepts=tuple(sorted({p.gender_concept_id for p in tables.persons})),
                       race_concepts=tuple(sorted({p.race_concept_id for p in tables.persons})),
                       concepts=tuple(dc for dc, _ in ranked[:top_k_concepts]))


def build_profiles_reference(tables, spec):
    """The (n_persons, spec.dimension) uint8 profiles, set one bit at a time."""
    n_demo = spec.dimension - len(spec.concepts)
    n_gender, n_race = len(spec.gender_concepts), len(spec.race_concepts)
    first_year = {}
    for v in tables.visits:
        first_year[v.person_id] = min(first_year.get(v.person_id, v.start_date.year), v.start_date.year)
    rows = np.zeros((len(tables.persons), spec.dimension), dtype=np.uint8)
    person_row = {p.person_id: i for i, p in enumerate(tables.persons)}
    for i, p in enumerate(tables.persons):
        if p.gender_concept_id in spec.gender_concepts:
            rows[i, spec.gender_concepts.index(p.gender_concept_id)] = 1
        if p.race_concept_id in spec.race_concepts:
            rows[i, n_gender + spec.race_concepts.index(p.race_concept_id)] = 1
        if p.person_id in first_year:
            rows[i, n_gender + n_race + min(max((first_year[p.person_id] - p.birth_year) // 10, 0), 11)] = 1
    for e in kept_events(tables):
        if (e.domain, e.concept_id) in spec.concepts:
            rows[person_row[e.person_id], n_demo + spec.concepts.index((e.domain, e.concept_id))] = 1
    return rows


# ---------------------------------------------------------------------------
# per-record oracles: summary_stats and pathway_cohort as they ran on PatientRecords


def sequence_length(record) -> int:
    """len(encode_patient(record).tokens) of a record that passes validate_record, without building the tokens.

    Four prefix tokens and [END]; per visit [VS], the visit type, its events
    and [VE], and a gap token before each later visit; an inpatient visit
    adds its discharge token and an i-D token at each date its day cursor
    moves forward to (each later event date, then the end date).
    """
    from chronoseq.codec import INPATIENT_CONCEPTS

    n = 4 + 4 * len(record.visits)
    for visit in record.visits:
        n += len(visit.events)
        if visit.visit_concept_id in INPATIENT_CONCEPTS:
            cursor = visit.start_date
            for e in visit.events:
                if e.date > cursor:
                    n += 1
                    cursor = e.date
            n += 1 + (visit.end_date > cursor)
    return n


def summary_stats_reference(tables):
    """SummaryStats from the records: tables_to_records, then validate_record and sequence_length per record."""
    from chronoseq.codec import tables_to_records, validate_record
    from chronoseq.generation import SummaryStats
    from chronoseq.generation.stats import GENDER_FEMALE

    records, _ = tables_to_records(tables)
    if not records:
        raise ValueError("empty tables")
    ages, visit_counts, token_counts, female = [], [], [], 0
    for r in records:
        validate_record(r)
        token_counts.append(sequence_length(r))
        ages.append(r.visits[0].start_date.year - r.birth_year)
        visit_counts.append(len(r.visits))
        if r.gender_concept == GENDER_FEMALE:
            female += 1
    vq = np.percentile(visit_counts, [25, 50, 75])
    tq = np.percentile(token_counts, [25, 50, 75])
    return SummaryStats(n_persons=len(records), age_median=float(np.median(ages)),
                        female_fraction=female / len(records),
                        visit_q1=float(vq[0]), visit_q2=float(vq[1]), visit_q3=float(vq[2]),
                        token_q1=float(tq[0]), token_q2=float(tq[1]), token_q3=float(tq[2]))


def pathway_cohort_reference(tables, spec):
    """The cohort's person ids, in persons-table order, from each record's visits and events."""
    from chronoseq.codec import tables_to_records

    cohort = []
    for rec in tables_to_records(tables)[0]:
        events = [e for v in rec.visits for e in v.events]
        dates = [e.date for e in events if e.domain == spec.domain and e.concept_id in spec.index_concepts]
        if not dates:
            continue
        index = min(dates)
        first_event = min([v.start_date for v in rec.visits] + [e.date for e in events])
        if (index - first_event).days < spec.lookback_days:
            continue
        offsets = [(d - index).days for d in dates]
        if all(any(k * spec.interval_days <= off < (k + 1) * spec.interval_days for off in offsets)
               for k in range(spec.n_intervals)):
            cohort.append(rec.person_id)
    return cohort


# ---------------------------------------------------------------------------
# whole-array autodiff ops: the reference the row-tiled ops must match bit for bit


def layer_norm_whole(x, gain, bias):
    """layer_norm over the whole array at once, with var recomputing the row mean."""
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = (x.data - mu) * inv
    out = Tensor(gain.data * xhat + bias.data, parents=(x, gain, bias), name="layer_norm")

    def bw(g):
        if gain.requires_grad:
            _accum(gain, _unbroadcast(g * xhat, gain.data.shape), owned=True)
        if bias.requires_grad:
            _accum_unbroadcast(bias, g)
        if x.requires_grad:
            gx = g * gain.data
            m1 = gx.mean(axis=-1, keepdims=True)
            m2 = (gx * xhat).mean(axis=-1, keepdims=True)
            _accum(x, (gx - m1 - xhat * m2) * inv, owned=True)

    out.backward_fn = bw if out.requires_grad else None
    return out


def gelu_whole(x):
    """tanh-GELU over the whole array at once, keeping x^2 and the tanh for backward."""
    xd = x.data
    x2 = xd * xd
    th = np.tanh(GELU_C * (xd + GELU_A * x2 * xd))
    out = Tensor(0.5 * xd * (1.0 + th), parents=(x,), name="gelu")

    def bw(g):
        du = GELU_C * (1.0 + 3.0 * GELU_A * x2)
        local = 0.5 * (1.0 + th) + 0.5 * xd * (1.0 - th * th) * du
        _accum(x, g * local, owned=True)

    out.backward_fn = bw if out.requires_grad else None
    return out


def attention_whole(qkv, mask, scale, rate=0.0, rng=None):
    """Fused attention over all (sequence, head) score matrices at once."""
    q, k, v = qkv.data[0], qkv.data[1], qkv.data[2]
    p = np.matmul(q, np.swapaxes(k, -1, -2))
    p *= scale
    if mask is not None:
        p += mask
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    keep = _keep_mask(p.shape, rate, rng)
    out = Tensor(np.matmul(_dropped(p, keep, rate), v), parents=(qkv,), name="attention")

    def bw(g):
        dv = np.matmul(np.swapaxes(_dropped(p, keep, rate), -1, -2), g)
        ds = _dropped(np.matmul(g, np.swapaxes(v, -1, -2)), keep, rate)
        ds -= (ds * p).sum(axis=-1, keepdims=True)
        ds *= p
        ds *= scale
        gqkv = np.zeros_like(qkv.data)
        gqkv[0] += np.matmul(ds, k)
        gqkv[1] += np.swapaxes(np.matmul(np.swapaxes(q, -1, -2), ds), -1, -2)
        gqkv[2] += dv
        _accum(qkv, gqkv, owned=True)

    out.backward_fn = bw if out.requires_grad else None
    return out


def nll_whole(z, t):
    """_nll over all logit rows at once (z is shifted in place)."""
    z -= z.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1))
    return lse, lse - z[np.arange(len(t)), t]


def nll_grad_whole(z, lse, t, g):
    """_nll_grad over all logit rows at once (z is overwritten)."""
    z -= lse[:, None]
    np.exp(z, out=z)
    z *= g[:, None]
    z[np.arange(len(t)), t] -= g
    return z


def tied_head_tiles(hidden, emb, t, g, rows):
    """The tied head in tiles of `rows` rows, each tile's logits built whole.

    -> (NLL, hidden gradient, the embedding-gradient contribution of each tile) under output weights g.
    """
    nll, gh, gemb_parts = [], [], []
    for lo in range(0, len(hidden), rows):
        h, tt, gt = hidden[lo:lo + rows], t[lo:lo + rows], g[lo:lo + rows]
        z = h @ emb.T
        lse, nll_t = nll_whole(z, tt)
        gz = nll_grad_whole(z, lse, tt, gt)
        nll.append(nll_t)
        gh.append(gz @ emb)
        gemb_parts.append((h.T @ gz).T)
    return np.concatenate(nll), np.concatenate(gh), gemb_parts


# ---------------------------------------------------------------------------
# the privacy suite over dense float64 distance matrices: the reference the streamed suite must equal


def hamming_dense(a, b):
    """The (len(a), len(b)) Hamming distances of 0/1 rows, as one dense float64 matrix."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a @ (1.0 - b).T + (1.0 - a) @ b.T


def self_minima_dense(m):
    """Each row's distance to its nearest other row."""
    d = hamming_dense(m, m)
    np.fill_diagonal(d, np.inf)
    return d.min(axis=1)


def nnaa_dense(train, eval_, synthetic, seed, sample_size):
    """AA(eval, synthetic) - AA(train, synthetic), with NNAA's sampling spelled out."""
    from chronoseq.privacy import NnaaResult

    # one stream draws n rows of train, then eval, then synthetic, each set in lexicographic row order
    n = min(len(train), len(eval_), len(synthetic), *(() if sample_size is None else (sample_size,)))
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x44AA]))
    samples = []
    for m in (train, eval_, synthetic):
        m = np.asarray(m, dtype=np.float64)
        m = m[np.lexsort(m.T[::-1])]
        samples.append(m[np.sort(rng.choice(len(m), size=n, replace=False))])
    ts, es, ss = samples

    def aa(a, b):
        d = hamming_dense(a, b)
        term_a = (d.min(axis=1) > self_minima_dense(a)).mean()
        return 0.5 * float(term_a + (d.min(axis=0) > self_minima_dense(b)).mean())

    aa_es, aa_ts = aa(es, ss), aa(ts, ss)
    return NnaaResult(float(aa_es - aa_ts), aa_es, aa_ts, n)


def membership_dense(targets, truth, synthetic):
    """Best-F1 gain of 'member iff the nearest synthetic row lies within tau bits', tau over 0..width."""
    from chronoseq.privacy import MembershipResult

    truth = np.asarray(truth, dtype=bool)
    min_d = hamming_dense(targets, synthetic).min(axis=1)
    n_pos = int(truth.sum())
    baseline = 2.0 * n_pos / (len(truth) + n_pos)
    best_f1, best_tau = 0.0, 0
    for tau in range(np.shape(targets)[1] + 1):
        pred = min_d <= tau
        tp = float(np.sum(pred & truth))
        if tp == 0.0:
            continue
        precision, recall = tp / pred.sum(), tp / n_pos
        f1 = 2.0 * precision * recall / (precision + recall)
        if f1 > best_f1:
            best_f1, best_tau = f1, tau
    return MembershipResult(float(max(0.0, best_f1 - baseline)), best_tau, float(best_f1), float(baseline))


def attribute_dense(targets, synthetic, key_attrs, sensitive_attrs):
    """Each target's nearest synthetic row on the key columns (lowest index on ties) predicts its sensitive bits."""
    from chronoseq.privacy import AttributeResult

    t, s = np.asarray(targets, dtype=np.float64), np.asarray(synthetic, dtype=np.float64)
    key, sens = np.asarray(key_attrs), np.asarray(sensitive_attrs)
    nn = hamming_dense(t[:, key], s[:, key]).argmin(axis=1)
    true = t[:, sens]
    acc = (s[np.ix_(nn, sens)] == true).mean(axis=0)
    p = true.mean(axis=0)
    base = np.maximum(p, 1.0 - p)
    with np.errstate(divide="ignore", invalid="ignore"):
        ent = -np.where(p > 0, p * np.log2(p), 0.0) - np.where(p < 1, (1 - p) * np.log2(1 - p), 0.0)
    score = 0.0 if ent.sum() == 0.0 else max(0.0, float(np.sum(ent * (acc - base)) / ent.sum()))
    return AttributeResult(score, tuple(zip(sens.tolist(), acc.tolist(), base.tolist())))


def identity_dense(population, synthetic, quasi_identifiers, match_tolerance):
    """Synthetic rows whose quasi-identifiers match exactly one population row, with enough other columns agreeing."""
    from chronoseq.privacy import IdentityResult

    t, s = np.asarray(population), np.asarray(synthetic)
    qi = list(quasi_identifiers)
    rest = [j for j in range(t.shape[1]) if j not in qi]
    disclosed = 0
    for row in s:
        matches = np.flatnonzero((t[:, qi] == row[qi]).all(axis=1))
        if len(matches) == 1 and (not rest or (t[matches[0], rest] == row[rest]).mean() >= match_tolerance):
            disclosed += 1
    return IdentityResult(disclosed / len(s), disclosed)


def privacy_suite_dense(train, eval_, synthetic, key_attrs, sensitive_attrs, quasi_identifiers, seed,
                        match_tolerance, sample_size):
    """The four attacks as one composition, each distance matrix whole: (nnaa, membership, attribute, identity).

    The membership targets are the first k train and the first k eval rows; the attribute targets are all of them.
    """
    k = min(len(train), len(eval_))
    return (
        nnaa_dense(train, eval_, synthetic, seed, sample_size),
        membership_dense(np.concatenate([train[:k], eval_[:k]]), np.repeat([True, False], k), synthetic),
        attribute_dense(np.concatenate([train, eval_]), synthetic, key_attrs, sensitive_attrs),
        identity_dense(train, synthetic, quasi_identifiers, match_tolerance),
    )
