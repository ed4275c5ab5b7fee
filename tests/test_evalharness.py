import datetime as dt

import numpy as np
import pytest

from chronoseq.codec import (
    ClinicalEvent,
    CodecConfig,
    PatientRecord,
    Visit,
    encode_patient,
    records_to_tables,
)
from chronoseq.evalharness import (
    CohortSpec,
    bow_features,
    build_labeled_cohort,
    cohort_prefixes,
    concept_vocabulary,
    fit_logistic,
    linear_probe,
    pathway_cohort,
    prevalence_report,
    truncate_record,
)
from chronoseq.evalharness.fidelity import STRATA
from chronoseq.model import ModelConfig, TimelineModel
from chronoseq.synthworld import WorldConfig, sample_hospital_records


# ---------------------------------------------------------------------------
# bag of words


def outpatient(day, events):
    return Visit(9202, day, day, None, tuple(events))


def test_bow_counts_and_window():
    d0 = dt.date(2000, 1, 1)
    rec = PatientRecord(
        "p", 1950, 8532, 8527,
        (
            outpatient(d0, [ClinicalEvent(d0, "condition", 1)]),
            outpatient(d0 + dt.timedelta(days=10),
                       [ClinicalEvent(d0 + dt.timedelta(days=10), "condition", 1),
                        ClinicalEvent(d0 + dt.timedelta(days=10), "drug", 2)]),
            outpatient(d0 + dt.timedelta(days=400),
                       [ClinicalEvent(d0 + dt.timedelta(days=400), "condition", 1)]),
        ),
    )
    concepts = [1, 2, 3]
    index = d0 + dt.timedelta(days=20)
    counts = bow_features(rec, index, (-30, 0), concepts)
    assert counts.tolist() == [2, 1, 0]
    # empty window -> zero vector
    assert bow_features(rec, index, (-5, -1), concepts).tolist() == [0, 0, 0]
    # shrinking the window never increases any count
    wide = bow_features(rec, index, (-400, 400), concepts)
    narrow = bow_features(rec, index, (-100, 100), concepts)
    assert (narrow <= wide).all()


def test_concept_vocabulary_sorted():
    records = sample_hospital_records(10, seed=0)
    vocab = concept_vocabulary(records)
    assert vocab == sorted(set(vocab))


# ---------------------------------------------------------------------------
# logistic regression


def test_logistic_separates_two_points():
    X = np.array([[0.0], [1.0]])
    y = np.array([0, 1])
    clf = fit_logistic(X, y, l2=0.0, max_iter=3000)
    assert (clf.predict(X) == y).all()


def test_logistic_permutation_null_auroc():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(2000, 5))
    y = rng.integers(0, 2, size=2000)  # independent of X
    clf = fit_logistic(X[:1000], y[:1000], l2=1e-2, max_iter=500)
    from chronoseq.evalharness import auroc

    a = auroc(clf.decision(X[1000:]), y[1000:])
    assert abs(a - 0.5) < 0.05


def test_logistic_feature_scaling_reparameterization():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(300, 4))
    w_true = np.array([1.0, -2.0, 0.5, 0.0])
    y = (X @ w_true + rng.normal(scale=0.5, size=300) > 0).astype(int)
    m1 = fit_logistic(X, y, l2=0.0, max_iter=20000, tol=1e-9)
    m2 = fit_logistic(2.0 * X, y, l2=0.0, max_iter=20000, tol=1e-9)
    np.testing.assert_allclose(m1.decision(X), m2.decision(2.0 * X), atol=1e-4)
    np.testing.assert_allclose(m2.weights, m1.weights / 2.0, atol=1e-5)


def test_logistic_rejects_single_class():
    with pytest.raises(ValueError):
        fit_logistic(np.zeros((3, 2)), np.ones(3))


# ---------------------------------------------------------------------------
# linear probe


def test_linear_probe_separable_task_and_frozen_weights():
    # labels = deterministic function of the final token
    records = sample_hospital_records(40, seed=21)
    seqs = [encode_patient(r) for r in records]
    from chronoseq.codec import build_vocabulary

    vocab = build_vocabulary(seqs)
    cfg = ModelConfig(vocab_size=len(vocab), embed_dim=12, n_layers=1, n_heads=2, context_window=256)
    model = TimelineModel.initialize(cfg, vocab, seed=0)
    labeled = []
    for i, s in enumerate(seqs):
        tokens = list(s.tokens[:-1]) + (["c:320128"] if i % 2 == 0 else ["d:1125315"])
        labeled.append((tuple(tokens), 1 if i % 2 == 0 else 0))
    res = linear_probe(model, labeled, l2=1e-3, seed=0, n_bootstrap=50)
    assert res.auroc.point > 0.95
    assert res.params_hash_before == res.params_hash_after
    res2 = linear_probe(model, labeled, l2=1e-3, seed=0, n_bootstrap=50)
    assert res2.auroc.point == res.auroc.point  # deterministic under seed


def test_linear_probe_fit_converges_on_synthworld_cohort():
    records = sample_hospital_records(60, seed=5)
    rows = [(r.person_id, r.visits[len(r.visits) // 2 - 1].end_date, int(len(r.visits) % 2 == 0))
            for r in records if len(r.visits) >= 3]
    data, _ = cohort_prefixes(records, rows, CodecConfig(), 256)
    from chronoseq.codec import build_vocabulary

    vocab = build_vocabulary([encode_patient(r) for r in records])
    cfg = ModelConfig(vocab_size=len(vocab), embed_dim=12, n_layers=1, n_heads=2, context_window=256)
    res = linear_probe(TimelineModel.initialize(cfg, vocab, seed=0), data, seed=0, n_bootstrap=20)
    assert res.converged
    assert res.n_iterations < 50


# ---------------------------------------------------------------------------
# prevalence


def test_prevalence_identity_absent_and_rowcount():
    records = sample_hospital_records(30, seed=31)
    tables = records_to_tables(records)
    rows = prevalence_report(tables, tables)
    concepts = {(r.domain, r.concept_id) for r in rows}
    assert len(rows) == len(STRATA) * len(concepts)
    for r in rows:
        assert r.real_prevalence == r.synthetic_prevalence  # identical datasets sit on the diagonal

    # a concept absent from the synthetic side reports (p_real, 0)
    synth_records = [r for r in records if all(e.concept_id != records[0].visits[0].events[0].concept_id
                                               for v in r.visits for e in v.events)]
    if synth_records:
        rows2 = prevalence_report(tables, records_to_tables(synth_records))
        target = records[0].visits[0].events[0].concept_id
        full_rows = [r for r in rows2 if r.stratum == "full" and r.concept_id == target]
        assert any(r.synthetic_prevalence == 0.0 and r.real_prevalence > 0.0 for r in full_rows)


def test_prevalence_rejects_empty():
    records = sample_hospital_records(3, seed=1)
    with pytest.raises(ValueError):
        prevalence_report(records_to_tables(records), records_to_tables([]))


# ---------------------------------------------------------------------------
# treatment pathway


def drug_event(day):
    return ClinicalEvent(day, "drug", 555)


def pathway_person(pid, first_event_offset, exposure_offsets, anchor=dt.date(2000, 1, 1)):
    """first recorded event at anchor; exposures at anchor + first_event_offset + each offset."""
    visits = [outpatient(anchor, [ClinicalEvent(anchor, "condition", 9)])]
    start = anchor + dt.timedelta(days=first_event_offset)
    for off in exposure_offsets:
        day = start + dt.timedelta(days=off)
        visits.append(outpatient(day, [drug_event(day)]))
    visits.sort(key=lambda v: v.start_date)
    return PatientRecord(pid, 1950, 8532, 8527, tuple(visits))


SPEC = CohortSpec(name="pathway", index_concepts=frozenset({555}))


def test_pathway_six_person_fixture():
    # hand-labeled membership per the 365-day lookback and nine 120-day intervals
    persons = [
        # 1: textbook inclusion: exposures every ~120 days for 3 years
        pathway_person("in1", 400, [0, 100, 220, 340, 460, 580, 700, 820, 940, 1060]),
        # 2: boundary inclusion: exposures exactly at interval starts
        pathway_person("in2", 365, [0, 120, 240, 360, 480, 600, 720, 840, 960]),
        # 3: missing interval 5 ([600, 720)) entirely
        pathway_person("ex_gap", 400, [0, 100, 220, 340, 460, 720, 840, 960, 1060]),
        # 4: lookback failure: first exposure 100 days after record start
        pathway_person("ex_lookback", 100, [0, 100, 220, 340, 460, 580, 700, 820, 940, 1060]),
        # 5: exposure at day 1080 lands outside interval 8 ([960, 1080))
        pathway_person("ex_tail", 400, [0, 120, 240, 360, 480, 600, 720, 840, 1080]),
        # 6: interval-1 miss: days 119 then 240 skip [120, 240)
        pathway_person("ex_skip1", 400, [0, 119, 240, 360, 480, 600, 720, 840, 960, 1070]),
    ]
    tables = records_to_tables(persons)
    result = pathway_cohort(tables, SPEC)
    assert sorted(result.cohort) == ["in1", "in2"]
    assert result.prevalence == pytest.approx(2 / 6)


def test_pathway_invariant_to_same_day_event_order():
    p = pathway_person("a", 400, [0, 100, 220, 340, 460, 580, 700, 820, 940, 1060])
    tables = records_to_tables([p])
    ev = list(tables.events)
    tables.events = list(reversed(ev))
    assert pathway_cohort(tables, SPEC).cohort == ["a"]


# ---------------------------------------------------------------------------
# cohort construction helpers


def test_truncate_record_and_prefixes():
    records = sample_hospital_records(5, seed=77)
    rec = records[0]
    cutoff = rec.visits[0].end_date
    trunc = truncate_record(rec, cutoff)
    assert trunc is not None and len(trunc.visits) >= 1
    assert all(v.end_date <= cutoff for v in trunc.visits)
    assert truncate_record(rec, rec.visits[0].start_date - dt.timedelta(days=1)) is None

    rows = [(rec.person_id, cutoff, 1), ("missing", cutoff, 0)]
    prefixes, skipped = cohort_prefixes(records, rows, CodecConfig())
    assert skipped == 1
    assert len(prefixes) == 1
    assert prefixes[0][0][-1] == "[VE]"  # prompt ends at a visit boundary


def test_cohort_prefixes_skip_prompts_that_fill_the_window():
    short = sample_hospital_records(3, seed=77, cfg=WorldConfig(visits_range=(2, 3)))
    long_rec = sample_hospital_records(1, seed=78, cfg=WorldConfig(visits_range=(40, 45)))[0]
    long_rec = PatientRecord("long", long_rec.birth_year, long_rec.gender_concept, long_rec.race_concept,
                             long_rec.visits)
    rows = [(r.person_id, r.visits[-1].end_date, i % 2) for i, r in enumerate([*short, long_rec])]
    everything, skipped = cohort_prefixes([*short, long_rec], rows, CodecConfig())
    assert skipped == 0
    n_long = len(everything[-1][0])
    n_short = max(len(p) for p, _ in everything[:-1])
    assert n_long > 128 > n_short
    prefixes, skipped = cohort_prefixes([*short, long_rec], rows, CodecConfig(), 128)
    assert skipped == 1
    assert prefixes == everything[:-1]
    # a prompt of exactly context_window tokens leaves no room for one simulated token
    _, skipped = cohort_prefixes([long_rec], rows[-1:], CodecConfig(), n_long)
    assert skipped == 1
    kept, skipped = cohort_prefixes([long_rec], rows[-1:], CodecConfig(), n_long + 1)
    assert skipped == 0 and len(kept) == 1


def test_build_labeled_cohort():
    anchor = dt.date(2000, 1, 1)
    idx_day = anchor + dt.timedelta(days=400)

    def person(pid, with_outcome):
        visits = [
            outpatient(anchor, [ClinicalEvent(anchor, "condition", 1)]),
            outpatient(idx_day, [ClinicalEvent(idx_day, "condition", 777)]),
        ]
        if with_outcome:
            d = idx_day + dt.timedelta(days=30)
            visits.append(outpatient(d, [ClinicalEvent(d, "condition", 888)]))
        return PatientRecord(pid, 1950, 8532, 8527, tuple(visits))

    spec = CohortSpec(name="c", index_concepts=frozenset({777}), outcome_concepts=frozenset({888}),
                      outcome_window=(1, 365))
    tables = records_to_tables([person("a", True), person("b", False)])
    rows = build_labeled_cohort(tables, spec)
    assert rows == [("a", idx_day, 1), ("b", idx_day, 0)]
