"""summary_stats and pathway_cohort on the ingestion's kept-row arrays, against the per-record oracles.

The oracles in helpers.py build every PatientRecord with tables_to_records and
walk it; the pipeline never builds a record on a valid table set. Seeded
synthworld tables are corrupted one way or several, and both sides must
return equal results or raise the same exception with the same message.
"""
import datetime as dt
import sys
from dataclasses import replace
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronoseq.codec import EventRow, EventTables, PersonRow, VisitRow, records_to_tables
from chronoseq.evalharness import CohortSpec, pathway_cohort, prevalence_report
from chronoseq.generation import summary_stats
from chronoseq.privacy import audit_tables
from chronoseq.synthworld import sample_hospital_records
from helpers import pathway_cohort_reference, summary_stats_reference

DRUGS = tuple(range(1125315, 1125315 + 12))
DAY = dt.timedelta(days=1)


@lru_cache(maxsize=None)
def _base(seed):
    return records_to_tables(sample_hospital_records(8, seed=seed))


def _index(draw, rows, label):
    return draw(st.integers(0, len(rows) - 1), label=label)


def _insert(draw, rows, new, label):
    """rows with the tuple new inserted at a drawn position."""
    i = draw(st.integers(0, len(rows)), label=label)
    return rows[:i] + tuple(new) + rows[i:]


def _events_on(draw, pid, vid, days, label):
    n = draw(st.integers(0, 4), label=f"{label}: events")
    return tuple(EventRow(pid, vid, draw(st.sampled_from(("condition", "drug", "procedure"))),
                          draw(st.sampled_from(DRUGS)), draw(st.sampled_from(days))) for _ in range(n))


def no_visit(t, draw):
    if draw(st.booleans(), label="new person"):
        return replace(t, persons=_insert(draw, t.persons, [PersonRow("lonely", 1950, 8532, 8527)], "lonely at"))
    pid = t.persons[_index(draw, t.persons, "person")].person_id
    return replace(t, visits=tuple(v for v in t.visits if v.person_id != pid))  # its events become orphans


def _edit_person(t, draw, edit):
    i = _index(draw, t.persons, "person")
    return replace(t, persons=t.persons[:i] + (edit(t.persons[i]),) + t.persons[i + 1:])


def birth_after_first_visit(t, draw):
    after = draw(st.integers(1, 3), label="years after")

    def edit(p):
        years = [v.start_date.year for v in t.visits if v.person_id == p.person_id]
        return p._replace(birth_year=min(years, default=2000) + after)

    return _edit_person(t, draw, edit)


def birth_year_past_int64(t, draw):
    birth = draw(st.sampled_from((10**20, -10**20)), label="birth year")
    return _edit_person(t, draw, lambda p: p._replace(birth_year=birth))


def _edit_visit(t, draw, edit):
    i = _index(draw, t.visits, "visit")
    return replace(t, visits=t.visits[:i] + (edit(t.visits[i]),) + t.visits[i + 1:])


def _edit_event(t, draw, edit):
    i = _index(draw, t.events, "event")
    return replace(t, events=t.events[:i] + (edit(t.events[i]),) + t.events[i + 1:])


def ends_before_start(t, draw):
    days = draw(st.integers(1, 5), label="days")
    return _edit_visit(t, draw, lambda v: v._replace(end_date=v.start_date - days * DAY))


def inpatient_without_discharge(t, draw):
    concept = draw(st.sampled_from((9201, 262)), label="type")
    return _edit_visit(t, draw, lambda v: v._replace(visit_concept_id=concept, discharge_concept_id=None))


def discharge_on_another_visit(t, draw):
    concept = draw(st.sampled_from((9202, 9203)), label="type")
    return _edit_visit(t, draw, lambda v: v._replace(visit_concept_id=concept, discharge_concept_id=8536))


def event_outside_its_visit(t, draw):
    span = {v.visit_id: (v.start_date, v.end_date) for v in t.visits}
    days = draw(st.integers(1, 400), label="days outside")
    before = draw(st.booleans(), label="before")

    def edit(e):
        start, end = span.get(e.visit_id, (e.date, e.date))
        return e._replace(date=start - days * DAY if before else end + days * DAY)

    return _edit_event(t, draw, edit)


def unknown_concept(t, draw):
    return _edit_event(t, draw, lambda e: e._replace(concept_id=0))


def orphan_event(t, draw):
    if draw(st.booleans(), label="missing visit"):
        return _edit_event(t, draw, lambda e: e._replace(visit_id="v-missing"))
    other = t.persons[_index(draw, t.persons, "other person")].person_id
    return _edit_event(t, draw, lambda e: e._replace(person_id=other))  # dropped unless it is the owner


def visit_of_unknown_person(t, draw):
    if draw(st.booleans(), label="reassign"):
        return _edit_visit(t, draw, lambda v: v._replace(person_id="ghost"))
    d = dt.date(2001, 1, 1)
    return replace(t, visits=_insert(draw, t.visits, [VisitRow("vg", "ghost", 9201, d, d, None)], "ghost at"),
                   events=t.events + _events_on(draw, "ghost", "vg", [d, d + DAY], "ghost"))


def same_day_visit(t, draw):
    v = t.visits[_index(draw, t.visits, "visit")]
    new = VisitRow(f"{v.visit_id}-same", v.person_id, draw(st.sampled_from((9202, 9203))), v.start_date,
                   v.start_date, None)
    return replace(t, visits=_insert(draw, t.visits, [new], "same-day at"),
                   events=t.events + _events_on(draw, v.person_id, new.visit_id, [v.start_date], "same day"))


def stay_with_shared_dates(t, draw):
    """An inpatient stay after the person's last visit, with events on its start, its end and repeated dates."""
    pid = t.persons[_index(draw, t.persons, "person")].person_id
    last = max((v.end_date for v in t.visits if v.person_id == pid), default=dt.date(2000, 1, 1))
    start = last + draw(st.integers(0, 60), label="gap") * DAY
    end = start + draw(st.integers(0, 6), label="stay") * DAY
    stay = VisitRow(f"stay-{pid}", pid, draw(st.sampled_from((9201, 262))), start, end, 8863)
    days = [start + k * DAY for k in range((end - start).days + 1)]
    shared = draw(st.sampled_from(days), label="shared date")
    events = _events_on(draw, pid, stay.visit_id, days, "stay") + tuple(
        EventRow(pid, stay.visit_id, "drug", concept, day)
        for concept, day in ((DRUGS[0], start), (DRUGS[1], end), (DRUGS[2], shared), (DRUGS[3], shared)))
    order = draw(st.permutations(range(len(events))), label="event order")
    return replace(t, visits=_insert(draw, t.visits, [stay], "stay at"),
                   events=t.events + tuple(events[k] for k in order))


def all_events_dropped(t, draw):
    pid = t.persons[_index(draw, t.persons, "person")].person_id
    return replace(t, events=tuple(e._replace(concept_id=0) if e.person_id == pid else e for e in t.events))


def empty_persons(t, draw):
    t = replace(t, persons=())
    if draw(st.booleans(), label="unknown domain"):
        e = t.events[_index(draw, t.events, "event")]
        t = replace(t, events=_insert(draw, t.events, [e._replace(domain="lab")], "lab event at"))
    return t  # the unknown domain must be reported before the empty persons table


CORRUPTIONS = [no_visit, birth_after_first_visit, birth_year_past_int64, ends_before_start,
               inpatient_without_discharge, discharge_on_another_visit, event_outside_its_visit, unknown_concept,
               orphan_event, visit_of_unknown_person, same_day_visit, stay_with_shared_dates, all_events_dropped,
               empty_persons]


def _outcome(fn, *args):
    try:
        return "returned", fn(*args)
    except Exception as e:  # the comparison is of type and message
        return "raised", type(e), str(e)


def _assert_like_the_records(tables, draw):
    assert _outcome(summary_stats, tables) == _outcome(summary_stats_reference, replace(tables))
    spec = CohortSpec("p", frozenset(draw(st.sets(st.sampled_from(DRUGS), min_size=1), label="index concepts")),
                      lookback_days=draw(st.integers(1, 400), label="lookback"),
                      interval_days=draw(st.integers(1, 200), label="interval"),
                      n_intervals=draw(st.integers(1, 4), label="intervals"))
    got = _outcome(lambda: pathway_cohort(tables, spec).cohort)
    assert got == _outcome(pathway_cohort_reference, replace(tables), spec)


@pytest.mark.parametrize("corrupt", CORRUPTIONS, ids=lambda f: f.__name__)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_each_corruption_matches_the_record_oracles(corrupt, data):
    tables = corrupt(_base(data.draw(st.integers(0, 20), label="seed")), data.draw)
    _assert_like_the_records(tables, data.draw)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_corruptions_in_combination_match_the_record_oracles(data):
    tables = _base(data.draw(st.integers(0, 20), label="seed"))
    for corrupt in data.draw(st.lists(st.sampled_from(CORRUPTIONS), min_size=1, max_size=4), label="corruptions"):
        if tables.persons and tables.visits and tables.events:
            tables = corrupt(tables, data.draw)
    _assert_like_the_records(tables, data.draw)


@pytest.mark.parametrize("n, seed", [(150, 11), (90, 21), (400, 5)])
def test_pathway_cohorts_match_the_record_oracle_on_synthworld_sets(n, seed):
    tables = records_to_tables(sample_hospital_records(n, seed=seed))
    for spec in (CohortSpec("wide", frozenset(DRUGS), lookback_days=30, interval_days=30, n_intervals=1),
                 CohortSpec("narrow", frozenset(DRUGS[:3]), lookback_days=90, interval_days=60, n_intervals=2),
                 CohortSpec("default", frozenset({DRUGS[0]}))):
        assert pathway_cohort(tables, spec).cohort == pathway_cohort_reference(tables, spec)
    assert summary_stats(tables) == summary_stats_reference(tables)


def test_pathway_history_counts_an_event_dated_before_its_visit():
    """Prior observation runs from the earliest kept visit or event, even an event outside its visit's span."""
    d = dt.date(2000, 1, 1)
    visits = tuple(VisitRow(f"v{k}", "p", 9202, d + 30 * k * DAY, d + 30 * k * DAY, None) for k in range(3))
    events = (EventRow("p", "v0", "condition", 9, d - 400 * DAY),
              *(EventRow("p", v.visit_id, "drug", DRUGS[0], v.start_date) for v in visits))
    tables = EventTables((PersonRow("p", 1950, 8532, 8527),), visits, events)
    spec = CohortSpec("p", frozenset({DRUGS[0]}), lookback_days=365, interval_days=30, n_intervals=3)
    assert pathway_cohort(tables, spec).cohort == pathway_cohort_reference(tables, spec) == ["p"]


def test_the_audit_path_builds_no_record(monkeypatch):
    """With tables_to_records made to raise, the audit, prevalence, summary and pathway all still run."""
    def no_records(tables):
        raise AssertionError("tables_to_records called")

    for name, module in list(sys.modules.items()):
        if name.startswith("chronoseq") and hasattr(module, "tables_to_records"):
            monkeypatch.setattr(module, "tables_to_records", no_records)
    train, eval_, synthetic = (records_to_tables(sample_hospital_records(60, seed=s)) for s in (1, 2, 3))
    audit_tables(train, eval_, synthetic, seed=0)
    prevalence_report(train, synthetic)
    summary_stats(synthetic)
    pathway_cohort(synthetic, CohortSpec("p", frozenset(DRUGS), lookback_days=30, interval_days=30, n_intervals=1))
