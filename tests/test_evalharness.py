import datetime as dt
from dataclasses import replace

import numpy as np
import pytest

from chronoseq.codec import (
    ClinicalEvent,
    PatientRecord,
    Visit,
    encode_patient,
    records_to_tables,
    tables_to_records,
)
from chronoseq.evalharness import (
    CohortSpec,
    cohort_prefixes,
    fit_logistic,
    linear_probe,
    pathway_cohort,
    prevalence_report,
    truncate_record,
)
from chronoseq.evalharness.fidelity import STRATA
from chronoseq.model import ModelConfig, TimelineModel
from chronoseq.synthworld import WorldConfig, sample_hospital_records
from helpers import prevalence_reference


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
    data, _ = cohort_prefixes(records, rows, context_window=256)
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


def test_prevalence_ignores_the_visits_of_a_person_missing_from_the_persons_table():
    from chronoseq.codec import VisitRow

    tables = records_to_tables(sample_hospital_records(30, seed=31))
    expected = prevalence_report(tables, tables)
    d0 = tables.visits[0].start_date
    tables = replace(tables, visits=tables.visits + (VisitRow("vg", "ghost", 9201, d0, d0, 8536),))
    assert prevalence_report(tables, tables) == expected


def _without_events(records, every):
    """records with the events of every `every`-th person removed (visits kept)."""
    return [replace(r, visits=tuple(replace(v, events=()) for v in r.visits)) if k % every == 0 else r
            for k, r in enumerate(records)]


@pytest.mark.parametrize("n,seed", [(40, 1), (120, 2), (300, 3)])
def test_prevalence_matches_the_per_row_reference(n, seed):
    real = sample_hospital_records(n, seed=seed)
    synthetic = _without_events(sample_hospital_records(n // 2 + 7, seed=seed + 100), every=5)
    cases = {
        "independent": (real, synthetic),
        "identical": (real, real),
        # a side with no female and a side with no inpatient person: empty strata
        "no female": (real, [r for r in synthetic if r.gender_concept != 8532]),
        "no inpatient": ([r for r in real if all(v.visit_concept_id not in (9201, 262) for v in r.visits)],
                         synthetic),
        # a drug the synthetic side never records: a concept in one dataset only
        "one-sided concept": (real, [replace(r, visits=tuple(
            replace(v, events=tuple(e for e in v.events if e.concept_id != 1125315)) for v in r.visits))
            for r in synthetic]),
    }
    by_case = {}
    for name, (a, b) in cases.items():
        real_t, syn_t = records_to_tables(a), records_to_tables(b)
        by_case[name] = prevalence_report(real_t, syn_t)
        assert by_case[name] == prevalence_reference(real_t, syn_t), name  # every field, exactly
    assert all(r.synthetic_prevalence == 0.0 for r in by_case["no female"] if r.stratum == "female")
    assert all(r.real_prevalence == 0.0 for r in by_case["no inpatient"] if r.stratum == "hospitalized")
    one_sided = [r for r in by_case["one-sided concept"] if r.concept_id == 1125315]
    assert one_sided and all(r.synthetic_prevalence == 0.0 for r in one_sided)
    assert any(r.real_prevalence > 0.0 for r in one_sided)


def _two_person_tables():
    """Persons a and b, one outpatient visit each, one condition event each."""
    from chronoseq.codec import EventRow, EventTables, PersonRow, VisitRow

    d = dt.date(2001, 5, 1)
    return EventTables(
        persons=[PersonRow("a", 1950, 8532, 8527), PersonRow("b", 1960, 8507, 8527)],
        visits=[VisitRow("va", "a", 9202, d, d, None), VisitRow("vb", "b", 9202, d, d, None)],
        events=[EventRow("a", "va", "condition", 320128, d), EventRow("b", "vb", "condition", 320129, d)],
    )


def test_prevalence_ignores_the_events_tables_to_records_drops():
    from chronoseq.codec import EventRow, tables_to_records

    tables = _two_person_tables()
    clean = prevalence_report(tables, tables)
    d = tables.events[0].date
    tables = replace(tables, events=tables.events + (
        EventRow("b", "va", "drug", 1125315, d),  # b's drug filed under a's visit
        EventRow("a", "va", "drug", 0, d),  # an unknown concept
        EventRow("a", "v-missing", "drug", 1125316, d),  # a visit that does not exist
    ))
    _, report = tables_to_records(tables)
    assert (report.n_orphan_events_dropped, report.n_unknown_concept_events_dropped) == (2, 1)
    rows = prevalence_report(tables, tables)
    assert rows == clean
    assert rows == prevalence_reference(tables, tables)
    assert not [r for r in rows if r.domain == "drug"]


def test_prevalence_rejects_empty():
    records = sample_hospital_records(3, seed=1)
    with pytest.raises(ValueError):
        prevalence_report(records_to_tables(records), records_to_tables([]))


# ---------------------------------------------------------------------------
# treatment pathway


def outpatient(day, events):
    return Visit(9202, day, day, None, tuple(events))


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
    tables = replace(tables, events=tuple(reversed(tables.events)))
    assert pathway_cohort(tables, SPEC).cohort == ["a"]


def test_pathway_counts_only_the_events_ingestion_keeps():
    """Exposures filed under another person's visit are dropped by tables_to_records, so they qualify no one."""
    a = pathway_person("a", 400, [0, 100, 220, 340, 460, 580, 700, 820, 940, 1060])
    tables = records_to_tables([a, pathway_person("b", 400, [])])
    b_visit = next(v.visit_id for v in tables.visits if v.person_id == "b")
    tables = replace(tables, events=[e._replace(visit_id=b_visit) if e.domain == "drug" else e for e in tables.events])
    assert tables_to_records(tables)[1].n_orphan_events_dropped == 10
    assert pathway_cohort(tables, SPEC).cohort == []


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
    prefixes, skipped = cohort_prefixes(records, rows)
    assert skipped == 1
    assert len(prefixes) == 1
    assert prefixes[0][0][-1] == "[VE]"  # prompt ends at a visit boundary


def test_cohort_prefixes_skip_prompts_that_fill_the_window():
    short = sample_hospital_records(3, seed=77, cfg=WorldConfig(visits_range=(2, 3)))
    long_rec = sample_hospital_records(1, seed=78, cfg=WorldConfig(visits_range=(40, 45)))[0]
    long_rec = PatientRecord("long", long_rec.birth_year, long_rec.gender_concept, long_rec.race_concept,
                             long_rec.visits)
    rows = [(r.person_id, r.visits[-1].end_date, i % 2) for i, r in enumerate([*short, long_rec])]
    everything, skipped = cohort_prefixes([*short, long_rec], rows)
    assert skipped == 0
    n_long = len(everything[-1][0])
    n_short = max(len(p) for p, _ in everything[:-1])
    assert n_long > 128 > n_short
    prefixes, skipped = cohort_prefixes([*short, long_rec], rows, context_window=128)
    assert skipped == 1
    assert prefixes == everything[:-1]
    # a prompt of exactly context_window tokens leaves no room for one simulated token
    _, skipped = cohort_prefixes([long_rec], rows[-1:], context_window=n_long)
    assert skipped == 1
    kept, skipped = cohort_prefixes([long_rec], rows[-1:], context_window=n_long + 1)
    assert skipped == 0 and len(kept) == 1
