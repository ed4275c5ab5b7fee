"""Correctness checks the benchmark applies to the program's outputs.

Every check is computed apart from the program (its own parser, sampler
support, metric oracles and counts) or is a property the method must have.
Each raises CheckFailed with a message naming what disagreed. The functions
take plain values so that the tests can feed them deliberately wrong outputs.
"""
from __future__ import annotations

import math
from collections import Counter

import numpy as np

END, VS, VE, LT = "[END]", "[VS]", "[VE]", "[LT]"
LONG_GAP_DAYS = 1081
RISK_THRESHOLD = 0.333


class CheckFailed(AssertionError):
    pass


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# train


def directional_derivative(loss_at, arrays, grads, rng, eps=1e-5):
    """(central difference, <grad, d>) along a random unit direction d.

    loss_at() evaluates the scalar loss at the current contents of `arrays`,
    which are perturbed in place and restored bit for bit afterwards.
    """
    direction = [rng.standard_normal(a.shape) for a in arrays]
    norm = math.sqrt(sum(float((d * d).sum()) for d in direction))
    direction = [d / norm for d in direction]
    saved = [a.copy() for a in arrays]
    try:
        for a, d in zip(arrays, direction):
            a += eps * d
        up = loss_at()
        for a, s, d in zip(arrays, saved, direction):
            a[...] = s - eps * d
        down = loss_at()
    finally:
        for a, s in zip(arrays, saved):
            a[...] = s
    analytic = sum(float((g * d).sum()) for g, d in zip(grads, direction))
    return (up - down) / (2.0 * eps), analytic


def check_directional_derivative(fd, analytic, rtol=1e-5, atol=1e-7):
    require(abs(fd - analytic) <= atol + rtol * max(abs(fd), abs(analytic)),
            f"gradient disagrees with finite differences: <grad,d>={analytic!r}, central difference={fd!r}")


def check_training_history(history, step_tokens, corpus_tokens, step_cap):
    """history: the train/eval rows seen through the log hook; step_tokens: the
    token count of every step in order; corpus_tokens: the benchmark's own sum
    over the training examples."""
    steps = [r for r in history if r["train_loss"] != ""]
    evals = [r for r in history if r["eval_loss"] != ""]
    require(len(steps) == step_cap, f"{len(steps)} optimizer steps, expected the cap of {step_cap}")
    require(len(step_tokens) == len(steps), "token counts do not align with the steps")
    for r in steps:
        require(math.isfinite(r["train_loss"]), f"non-finite train loss at step {r['step']}")
    for r in evals:
        require(math.isfinite(r["eval_loss"]), f"non-finite eval loss after epoch {r['epoch']}")
    epochs = sorted({r["epoch"] for r in steps})
    require(len(epochs) >= 2, "the step cap must span at least two epochs")
    per_epoch = Counter()
    losses = {}
    for r, n in zip(steps, step_tokens):
        per_epoch[r["epoch"]] += n
        losses.setdefault(r["epoch"], []).append(r["train_loss"])
    for e in epochs[:-1]:
        require(per_epoch[e] == corpus_tokens, f"epoch {e} trained {per_epoch[e]} tokens, corpus has {corpus_tokens}")
    require(per_epoch[epochs[-1]] <= corpus_tokens, f"last epoch trained more tokens than the corpus holds")
    first, last = np.mean(losses[epochs[0]]), np.mean(losses[epochs[-1]])
    require(last < first, f"mean train loss did not fall: epoch {epochs[0]} {first:.4f}, epoch {epochs[-1]} {last:.4f}")


# ---------------------------------------------------------------------------
# generate


def allowed_next_tokens(logits, temperature=1.0, top_k=0, top_p=1.0, slack=1e-9):
    """Boolean mask of the tokens a sampler may draw under temperature, top-k
    and nucleus filtering, from raw next-token logits.

    `slack` admits tokens that sit on a cut within float round-off, since the
    program computes its logits on another (KV-cached) path.
    """
    z = np.asarray(logits, dtype=np.float64) / temperature
    allowed = np.ones(z.shape, dtype=bool)
    if top_k and top_k < len(z):
        kth = np.sort(z)[-top_k]
        allowed &= z >= kth - slack * max(1.0, abs(kth))
    if top_p < 1.0:
        w = np.where(allowed, np.exp(z - z[allowed].max()), 0.0)
        p = w / w.sum()
        order = np.argsort(-p, kind="stable")
        mass_before = np.concatenate([[0.0], np.cumsum(p[order])[:-1]])
        nucleus = np.zeros_like(allowed)
        nucleus[order[mass_before < top_p + slack]] = True
        allowed &= nucleus
    return allowed


def check_in_support(token_ids, logits_rows, start, temperature, top_k, top_p):
    """Every sampled id token_ids[t] (t >= start) lies in the support computed
    from logits_rows[t - 1], the model's logits after reading token_ids[:t]."""
    for t in range(start, len(token_ids)):
        mask = allowed_next_tokens(logits_rows[t - 1], temperature, top_k, top_p)
        require(mask[token_ids[t]],
                f"token {token_ids[t]} at position {t} lies outside the top-k/nucleus support")


def check_expert_reports(reports):
    for r in reports:
        require(r.requested == r.generated, f"expert {r.expert}: requested {r.requested}, generated {r.generated}")
        require(r.kept + r.dropped_short == r.generated,
                f"expert {r.expert}: kept {r.kept} + dropped {r.dropped_short} != generated {r.generated}")


def check_sequence_frame(tokens, hit_max, prompts, limit):
    require(tuple(tokens[:4]) in prompts, f"sequence starts with {tokens[:4]}, not a pool prompt")
    if hit_max:
        require(len(tokens) == limit, f"capped sequence has {len(tokens)} tokens, cap is {limit}")
    else:
        require(tokens[-1] == END, f"uncapped sequence ends in {tokens[-1]!r}, not [END]")


def _day_count(tok):
    if tok == LT:
        return LONG_GAP_DAYS
    body = tok[3:] if tok.startswith("i-D") else tok[1:]
    return int(body)


def canonical_timeline(tokens, inpatient=("v:9201", "v:262")):
    """A timeline reduced to what the table form keeps, by the benchmark's own
    reading of the grammar: demographics, then per visit its type, discharge,
    stay length and the multiset of (day, event) pairs, and the gaps between
    visits. Same-day events within a visit compare in any order. A tail cut
    off inside a visit is dropped, as lenient conversion does."""
    try:
        return _canonical(list(tokens), inpatient)
    except (IndexError, ValueError):
        return ("unparsed",) + tuple(tokens)


def _canonical(tokens, inpatient):
    if tokens and tokens[-1] != END:
        last_ve = max((i for i, t in enumerate(tokens) if t == VE), default=None)
        tokens = tokens[: last_ve + 1] + [END] if last_ve is not None else []
    visits, gaps = [], []
    i = 4
    while i < len(tokens) and tokens[i] == VS:
        vtype = tokens[i + 1]
        i += 2
        day, events, discharge = 0, [], None
        while tokens[i] != VE:
            tok = tokens[i]
            if tok.startswith("i-D"):
                day += _day_count(tok)
            elif tok.startswith("dis:"):
                discharge = tok
            else:
                events.append((day, tok))
            i += 1
        if vtype not in inpatient:
            events = [(0, tok) for _, tok in events]
            day = 0
        visits.append((vtype, discharge, day, tuple(sorted(events))))
        i += 1
        if i < len(tokens) and tokens[i] != END:
            gaps.append(min(_day_count(tokens[i]), LONG_GAP_DAYS))
            i += 1
    return tuple(tokens[:4]), tuple(visits), tuple(gaps)


def check_reencoding(generated, reencoded):
    """Every converted record, re-encoded, equals one generated sequence
    (each generated sequence matched at most once)."""
    pool = Counter(canonical_timeline(t) for t in generated)
    for tokens in reencoded:
        key = canonical_timeline(tokens)
        require(pool[key] > 0, f"re-encoded record matches no generated sequence: {' '.join(tokens[:12])} ...")
        pool[key] -= 1


def check_conversion_rate(succeeded, attempted, floor=0.9):
    require(attempted > 0 and succeeded >= floor * attempted,
            f"only {succeeded}/{attempted} sequences converted (need {floor:.0%})")


# ---------------------------------------------------------------------------
# zeroshot


def check_estimates(estimates, n_simulations):
    for i, e in enumerate(estimates):
        require(e.n_completed + e.n_censored == e.n_attempts,
                f"patient {i}: completed {e.n_completed} + censored {e.n_censored} != attempts {e.n_attempts}")
        require(e.capped or e.n_completed == n_simulations,
                f"patient {i}: {e.n_completed} futures completed, expected {n_simulations}")
        expected = e.n_positive / e.n_completed if e.n_completed else 0.0
        require(e.probability == expected, f"patient {i}: probability {e.probability} != {e.n_positive}/{e.n_completed}")


def auroc_oracle(scores, labels):
    """Pairwise Mann-Whitney count, ties counted half: O(n^2)."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    wins = sum(1.0 if p > n else 0.5 if p == n else 0.0 for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def auprc_oracle(scores, labels):
    """Threshold sweep over the distinct scores, area under the precision
    envelope (best precision at that recall or beyond) across recall steps."""
    n_pos = sum(labels)
    points = []
    for t in sorted(set(scores), reverse=True):
        tp = sum(1 for s, y in zip(scores, labels) if s >= t and y == 1)
        fp = sum(1 for s, y in zip(scores, labels) if s >= t and y == 0)
        points.append((tp / n_pos, tp / (tp + fp)))
    area, prev_recall = 0.0, 0.0
    for i, (recall, _) in enumerate(points):
        area += (recall - prev_recall) * max(p for _, p in points[i:])
        prev_recall = recall
    return area


def check_metric(name, reported, oracle, tol=1e-12):
    require(abs(reported - oracle) <= tol, f"{name} {reported!r} differs from the oracle {oracle!r}")


def classify_future(tokens, outcome_ids, window_start, window_end):
    """The benchmark's own window rule for the tokens of one sampled future so
    far: positive once an outcome concept lands inside the window, negative
    once time passes its end, censored when the timeline ends first, and
    open while none of these has happened."""
    accrued = 0
    for tok in tokens:
        if tok == END:
            return "censored"
        if tok == LT or (tok[:1] == "D" and tok[1:].isdigit()) or tok.startswith("i-D"):
            accrued += _day_count(tok)
            if accrued > window_end:
                return "negative"
        elif tok.partition(":")[0] in ("c", "d", "p", "v"):
            if int(tok.partition(":")[2]) in outcome_ids and window_start <= accrued <= window_end:
                return "positive"
    return "open"


def check_binomial_agreement(x1, n1, x2, n2, k=4.0):
    """Two estimates of one probability agree within k pooled binomial standard errors."""
    require(n1 > 0 and n2 > 0, "an estimate has no completed futures")
    p = (x1 + x2) / (n1 + n2)
    var = max(p * (1.0 - p), 1.0 / (n1 + n2)) * (1.0 / n1 + 1.0 / n2)
    diff = abs(x1 / n1 - x2 / n2)
    require(diff <= k * math.sqrt(var),
            f"estimates {x1}/{n1} and {x2}/{n2} differ by {diff:.3f}, over {k} standard errors")


# ---------------------------------------------------------------------------
# audit


def check_privacy(independent, copy, margin=0.1):
    """independent: {name: PrivacySuiteResult} of sets drawn apart from the
    training data; copy: the result for a copy of the training tables."""
    for name, res in independent.items():
        for attack, score in res.rows():
            require(score < RISK_THRESHOLD, f"independent set {name}: {attack} {score:.4f} >= {RISK_THRESHOLD}")
    for attack in ("nnaa_risk", "membership_inference"):
        worst = max(dict(r.rows())[attack] for r in independent.values())
        got = dict(copy.rows())[attack]
        require(got >= worst + margin,
                f"copy of the training tables: {attack} {got:.4f} not clearly above independent sets ({worst:.4f})")


def prevalence_oracle(tables, female=8532, inpatient=(9201, 262)):
    """{(stratum, domain, concept): prevalence} counted straight from the tables."""
    has = {p.person_id: set() for p in tables.persons}
    for e in tables.events:
        has[e.person_id].add((e.domain, e.concept_id))
    for v in tables.visits:
        has[v.person_id].add(("visit", v.visit_concept_id))
    strata = {
        "full": [p.person_id for p in tables.persons],
        "female": [p.person_id for p in tables.persons if p.gender_concept_id == female],
        "hospitalized": sorted({v.person_id for v in tables.visits if v.visit_concept_id in inpatient}),
    }
    out = {}
    for stratum, members in strata.items():
        counts = Counter(dc for pid in members for dc in has[pid])
        for (domain, concept), n in counts.items():
            out[(stratum, domain, concept)] = n / len(members)
    return out


def check_prevalence(rows, real_oracle, synthetic_oracle):
    seen = set()
    for r in rows:
        key = (r.stratum, r.domain, r.concept_id)
        seen.add(key)
        require(r.real_prevalence == real_oracle.get(key, 0.0), f"real prevalence of {key}: {r.real_prevalence}")
        require(r.synthetic_prevalence == synthetic_oracle.get(key, 0.0),
                f"synthetic prevalence of {key}: {r.synthetic_prevalence}")
    missing = (set(real_oracle) | set(synthetic_oracle)) - seen
    require(not missing, f"prevalence report lacks {len(missing)} concept rows, e.g. {sorted(missing)[:1]}")


def check_summary(stats, tables):
    first_year = {}
    for v in tables.visits:
        y = v.start_date.year
        first_year[v.person_id] = min(y, first_year.get(v.person_id, y))
    ages = [first_year[p.person_id] - p.birth_year for p in tables.persons]
    require(stats.n_persons == len(tables.persons), f"summary counts {stats.n_persons} persons, tables hold {len(tables.persons)}")
    require(stats.age_median == float(np.median(ages)), f"median age {stats.age_median}, tables give {np.median(ages)}")
