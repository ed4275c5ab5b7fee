import datetime as dt
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronoseq.codec import (
    DOMAINS,
    INPATIENT_CONCEPTS,
    ClinicalEvent,
    LONG_GAP_DAYS,
    DecodeError,
    PatientRecord,
    RecordValidationError,
    Visit,
    decode_sequence,
    encode_patient,
    encode_prefix,
    read_csv_table,
    read_tables,
    records_to_tables,
    sequence_length,
    sorted_events,
    tables_to_records,
    validate_sequence,
    write_csv,
    write_tables,
)
from chronoseq.synthworld import sample_hospital_records
from conftest import random_record


def test_encode_one_visit_outpatient(one_visit_record):
    seq = encode_patient(one_visit_record)
    assert seq.tokens == (
        "year:1995",
        "age:45",
        "gender:8532",
        "race:8527",
        "[VS]",
        "v:9202",
        "c:320128",
        "[VE]",
        "[END]",
    )


def test_encode_gap_tokens():
    def rec(gap_days):
        d0 = dt.date(1995, 3, 1)
        d1 = d0 + dt.timedelta(days=gap_days)
        return PatientRecord(
            "p", 1950, 8532, 8527,
            (Visit(9202, d0, d0, None, ()), Visit(9202, d1, d1, None, ())),
        )

    assert encode_patient(rec(7)).tokens[7] == "D7"
    assert encode_patient(rec(1200)).tokens[7] == "[LT]"
    assert encode_patient(rec(0)).tokens[7] == "D0"
    assert encode_patient(rec(1200)).att_day_map() == {7: 1200}


def test_encode_inpatient_discharge_and_intra_visit_time():
    d0 = dt.date(2000, 1, 1)
    rec = PatientRecord(
        "p", 1950, 8532, 8527,
        (
            Visit(
                9201, d0, d0 + dt.timedelta(days=5), 8536,
                (
                    ClinicalEvent(d0, "condition", 100),
                    ClinicalEvent(d0 + dt.timedelta(days=2), "drug", 200),
                ),
            ),
        ),
    )
    seq = encode_patient(rec)
    assert seq.tokens == (
        "year:2000", "age:50", "gender:8532", "race:8527",
        "[VS]", "v:9201", "c:100", "i-D2", "d:200", "i-D3", "dis:8536", "[VE]", "[END]",
    )


def test_one_inpatient_set_in_every_consumer():
    """A 262 visit is inpatient for the encoder, the decoder, validate_record and the hospitalized stratum."""
    from chronoseq.codec import validate_record
    from chronoseq.evalharness import prevalence_report

    assert INPATIENT_CONCEPTS == {9201, 262}
    d0 = dt.date(2000, 1, 1)
    stay = Visit(262, d0, d0 + dt.timedelta(days=4), 8863, (ClinicalEvent(d0 + dt.timedelta(days=1), "drug", 200),))
    rec = PatientRecord("in", 1950, 8532, 8527, (stay,))
    tokens = encode_patient(rec).tokens
    assert tokens[4:] == ("[VS]", "v:262", "i-D1", "d:200", "i-D3", "dis:8863", "[VE]", "[END]")
    assert decode_sequence(tokens, anchor=d0, person_id="in") == rec  # the stay's end date survives
    with pytest.raises(RecordValidationError, match="inpatient visit 0 lacks discharge type"):
        validate_record(PatientRecord("in", 1950, 8532, 8527, (replace(stay, discharge_concept_id=None),)))
    out = PatientRecord("out", 1950, 8532, 8527, (Visit(9202, d0, d0, None, (ClinicalEvent(d0, "drug", 200),)),))
    tables = records_to_tables([rec, out])
    hospitalized = {(r.domain, r.concept_id): r.real_prevalence
                    for r in prevalence_report(tables, tables) if r.stratum == "hospitalized"}
    assert hospitalized[("visit", 262)] == 1.0 and hospitalized[("visit", 9202)] == 0.0


def test_encode_validates(one_visit_record):
    with pytest.raises(RecordValidationError):
        encode_patient(PatientRecord("p", 1950, 8532, 8527, ()))
    bad = PatientRecord(
        "p", 1950, 8532, 8527,
        (Visit(9202, dt.date(1995, 3, 1), dt.date(1995, 3, 1), None,
               (ClinicalEvent(dt.date(1995, 3, 5), "condition", 1),)),),
    )
    with pytest.raises(RecordValidationError):
        encode_patient(bad)


def test_encode_prefix_drops_end(one_visit_record):
    assert encode_prefix(one_visit_record).tokens == encode_patient(one_visit_record).tokens[:-1]


def test_grammar_validator_accepts_encoder_output():
    rng = np.random.default_rng(5)
    for _ in range(100):
        rec = random_record(rng, allow_long_gaps=True)
        validate_sequence(encode_patient(rec).tokens)


@pytest.mark.parametrize(
    "tokens, position, reason",
    [
        (("year:1995", "age:45"), 0, "missing_prefix"),
        (("year:1995", "age:45", "gender:1", "c:5", "[VS]", "v:9202", "[VE]", "[END]"), 3, "bad_prefix"),
        (("year:1995", "age:45", "gender:1", "race:2", "v:9202", "[VE]", "[END]"), 4, "expected_vs"),
        (("year:1995", "age:45", "gender:1", "race:2", "[VS]", "c:5", "[VE]", "[END]"), 5, "expected_visit_type"),
        (("year:1995", "age:45", "gender:1", "race:2", "[VS]", "v:9202", "[VS]", "[VE]", "[END]"), 6,
         "unexpected_token_in_visit"),
        (("year:1995", "age:45", "gender:1", "race:2", "[VS]", "v:9202", "D7", "[VE]", "[END]"), 6,
         "att_inside_visit"),
        (("year:1995", "age:45", "gender:1", "race:2", "[VS]", "v:9202", "i-D3", "[VE]", "[END]"), 6,
         "intra_visit_time_not_allowed"),
        (("year:1995", "age:45", "gender:1", "race:2", "[VS]", "v:9201", "[VE]", "[END]"), 6, "missing_discharge"),
        (("year:1995", "age:45", "gender:1", "race:2", "[VS]", "v:9202", "dis:8536", "[VE]", "[END]"), 6,
         "unexpected_discharge"),
        (("year:1995", "age:45", "gender:1", "race:2", "[VS]", "v:9202", "[VE]", "D7", "[END]"), 8,
         "att_without_following_visit"),
        (("year:1995", "age:45", "gender:1", "race:2", "[VS]", "v:9202", "[VE]", "[VS]", "v:9202", "[VE]",
          "[END]"), 7, "expected_gap_or_end"),
        (("year:1995", "age:45", "gender:1", "race:2", "[VS]", "v:9202", "[VE]"), 6, "truncated"),
        (("year:1995", "age:45", "gender:1", "race:2", "[VS]", "v:9202", "[VE]", "[END]", "c:5"), 8,
         "trailing_tokens"),
        (("year:1995", "age:45", "gender:1", "race:2", "[VS]", "v:9202", "blah", "[VE]", "[END]"), 6,
         "unknown_token"),
    ],
)
def test_decode_errors_name_position_and_reason(tokens, position, reason):
    with pytest.raises(DecodeError) as exc:
        decode_sequence(tokens)
    assert exc.value.reason == reason
    assert exc.value.position == position


def test_decode_lenient_tail_salvages_last_visit():
    tokens = (
        "year:1995", "age:45", "gender:1", "race:2",
        "[VS]", "v:9202", "c:5", "[VE]", "D7", "[VS]", "v:9202", "c:6",
    )
    from chronoseq.codec import TokenSequence

    rec = decode_sequence(TokenSequence(tokens, hit_max_tokens=True), lenient_tail=True)
    assert len(rec.visits) == 1
    with pytest.raises(DecodeError):
        decode_sequence(TokenSequence(tokens))


def test_roundtrip_with_anchor_random_records():
    rng = np.random.default_rng(123)
    n_ok = 0
    for _ in range(300):
        rec = random_record(rng)
        seq = encode_patient(rec)
        back = decode_sequence(seq, anchor=rec.visits[0].start_date)
        assert back == rec
        n_ok += 1
    assert n_ok == 300


def test_roundtrip_default_anchor_for_jan1_records():
    rng = np.random.default_rng(9)
    for _ in range(200):
        rec = random_record(rng, anchor_jan1=True)
        assert decode_sequence(encode_patient(rec)) == rec


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_roundtrip_property(seed):
    rng = np.random.default_rng(seed)
    rec = random_record(rng, anchor_jan1=True)
    assert decode_sequence(encode_patient(rec)) == rec


@st.composite
def _records_with_stays(draw):
    """Valid records whose inpatient stays hold same-day and multi-day events (start and end days included)."""
    start = dt.date(2000, 1, 1) + dt.timedelta(days=draw(st.integers(0, 3000)))
    visits = []
    for _ in range(draw(st.integers(1, 5))):
        inpatient = draw(st.booleans())
        stay = draw(st.integers(0, 12)) if inpatient else 0
        offsets = draw(st.lists(st.integers(0, stay), max_size=6))  # repeats: events on one day
        domains = draw(st.lists(st.sampled_from(DOMAINS), min_size=len(offsets), max_size=len(offsets)))
        events = sorted_events(ClinicalEvent(start + dt.timedelta(days=o), d, 1 + k)
                               for k, (o, d) in enumerate(zip(offsets, domains)))
        vtype = draw(st.sampled_from(sorted(INPATIENT_CONCEPTS))) if inpatient else 9202
        end = start + dt.timedelta(days=stay)
        visits.append(Visit(vtype, start, end, 8536 if inpatient else None, events))
        start = end + dt.timedelta(days=draw(st.integers(0, 1500)))
    return PatientRecord("p", 1940, 8532, 8527, tuple(visits))


@given(_records_with_stays())
@settings(max_examples=200, deadline=None)
def test_sequence_length_counts_the_tokens_encode_builds(record):
    assert sequence_length(record) == len(encode_patient(record).tokens)


def test_sequence_length_on_stays_and_synthworld_records():
    d0, d3, d5 = dt.date(2000, 1, 1), dt.date(2000, 1, 4), dt.date(2000, 1, 6)
    stay = Visit(9201, d0, d5, 8536, (ClinicalEvent(d0, "drug", 1), ClinicalEvent(d3, "condition", 2),
                                      ClinicalEvent(d3, "drug", 3), ClinicalEvent(d5, "procedure", 4)))
    same_day = Visit(262, d5, d5, 8863, (ClinicalEvent(d5, "drug", 5), ClinicalEvent(d5, "drug", 6)))
    record = PatientRecord("p", 1950, 8532, 8527, (stay, same_day))
    # prefix 4; stay: [VS] v: drug i-D3 condition drug i-D2 procedure dis: [VE]; gap; [VS] v: 2 events dis: [VE]; [END]
    assert sequence_length(record) == len(encode_patient(record).tokens) == 4 + 10 + 1 + 6 + 1
    for seed in (1, 2, 3):
        for rec in sample_hospital_records(60, seed=seed):
            assert sequence_length(rec) == len(encode_patient(rec).tokens)


def test_long_gap_roundtrip_is_lossy_but_consistent():
    d0 = dt.date(2000, 1, 1)
    rec = PatientRecord(
        "p", 1950, 8532, 8527,
        (Visit(9202, d0, d0, None, ()),
         Visit(9202, d0 + dt.timedelta(days=2000), d0 + dt.timedelta(days=2000), None, ())),
    )
    back = decode_sequence(encode_patient(rec), anchor=d0)
    gap = (back.visits[1].start_date - back.visits[0].end_date).days
    assert gap == LONG_GAP_DAYS  # [LT] decodes to the day count the time targets use


def test_tables_roundtrip(tmp_path):
    rng = np.random.default_rng(77)
    records = [random_record(rng) for _ in range(40)]
    tables = records_to_tables(records)
    paths = write_tables(tables, tmp_path)
    back = read_tables(paths["persons"], paths["visits"], paths["events"])
    records2, report = tables_to_records(back)
    assert records2 == records
    assert report.n_unknown_concept_events_dropped == 0

    rows = [("a", 1.5), ('say "hi", then go', "")]
    write_csv(tmp_path / "quoted.csv", ["text", "value"], (list(r) for r in rows))
    assert (tmp_path / "quoted.csv").read_bytes() == b'text,value\r\na,1.5\r\n"say ""hi"", then go",\r\n'
    back_rows = read_csv_table(tmp_path / "quoted.csv", ("text", "value"), tuple)
    assert back_rows == [("a", "1.5"), ('say "hi", then go', "")]


def test_tables_drop_unknown_concepts():
    d0 = dt.date(2000, 1, 1)
    rec = PatientRecord("p", 1950, 8532, 8527, (Visit(9202, d0, d0, None,
                                                      (ClinicalEvent(d0, "condition", 5),)),))
    tables = records_to_tables([rec])
    from chronoseq.codec import EventRow

    tables = replace(tables, events=tables.events + (EventRow("p", tables.visits[0].visit_id, "condition", 0, d0),))
    records, report = tables_to_records(tables)
    assert report.n_unknown_concept_events_dropped == 1
    assert len(records[0].visits[0].events) == 1


def _two_person_tables():
    d0 = dt.date(2000, 1, 1)
    return records_to_tables([
        PatientRecord(pid, 1950, 8532, 8527, (Visit(9202, d0, d0, None, (ClinicalEvent(d0, "condition", c),)),))
        for pid, c in (("a", 5), ("b", 6))
    ])


@pytest.mark.parametrize("table, column", [("persons", "person_id"), ("visits", "visit_id")])
def test_tables_reject_a_repeated_id(table, column):
    from chronoseq.codec import concept_incidence

    tables = _two_person_tables()
    rows = getattr(tables, table)
    repeated = getattr(rows[0], column)
    tables = replace(tables, **{table: (rows[0], rows[1]._replace(**{column: repeated}))})
    for ingest in (tables_to_records, concept_incidence):
        with pytest.raises(RecordValidationError,
                           match=f"{table} table: {column} '{repeated}' appears more than once"):
            ingest(tables)


def test_tables_drop_an_event_filed_under_another_persons_visit():
    from chronoseq.codec import EventRow

    tables = _two_person_tables()
    a_visit = tables.visits[0]
    tables = replace(tables, events=tables.events + (EventRow("b", a_visit.visit_id, "drug", 7, a_visit.start_date),))
    records, report = tables_to_records(tables)
    assert report.n_orphan_events_dropped == 1
    assert [[e.concept_id for e in r.visits[0].events] for r in records] == [[5], [6]]


def test_tables_count_a_visit_of_a_person_missing_from_the_persons_table():
    from chronoseq.codec import EventRow, VisitRow

    tables = _two_person_tables()
    d0 = tables.visits[0].start_date
    tables = replace(tables, visits=tables.visits + (VisitRow("vg", "ghost", 9201, d0, d0, 8536),),
                     events=tables.events + (EventRow("ghost", "vg", "drug", 7, d0),))
    records, report = tables_to_records(tables)
    assert (report.n_orphan_visits_dropped, report.n_orphan_events_dropped) == (1, 1)
    assert [r.person_id for r in records] == ["a", "b"]
    assert [[e.concept_id for e in r.visits[0].events] for r in records] == [[5], [6]]


def test_an_unknown_domain_in_tables_built_in_memory_raises():
    from chronoseq.codec import EventRow, concept_incidence, ingest_report

    tables = _two_person_tables()
    d0 = tables.visits[0].start_date
    tables = replace(tables, events=tables.events + (EventRow("b", tables.visits[1].visit_id, "measurement", 7, d0),))
    for ingest in (tables_to_records, concept_incidence, ingest_report):
        with pytest.raises(RecordValidationError, match="person b: unknown domain 'measurement'"):
            ingest(tables)


def test_ingestion_results_are_kept_and_read_only():
    from chronoseq.codec import concept_incidence, ingest_report

    tables = records_to_tables(sample_hospital_records(20, seed=5))
    records, report = tables_to_records(tables)
    assert ingest_report(tables) is report and tables_to_records(tables)[0] == records
    rows, codes, concepts = concept_incidence(tables, visit_types=True)
    assert concept_incidence(tables, visit_types=True)[0] is rows
    assert not rows.flags.writeable and not codes.flags.writeable
    # without visit types: the same pairs less the visit concepts, which sort last
    plain = concept_incidence(tables)
    n = len(plain[2])
    assert concepts[:n] == plain[2] and all(d == "visit" for d, _ in concepts[n:])
    assert np.array_equal(plain[0], rows[codes < n]) and np.array_equal(plain[1], codes[codes < n])


def test_row_types_are_slotted_value_objects():
    import dataclasses
    import pickle

    from chronoseq.codec import EventRow, EventTables, PersonRow, VisitRow

    d0, d1 = dt.date(2000, 1, 1), dt.date(2000, 1, 3)
    event = ClinicalEvent(d0, "drug", 7)
    for row in (event, Visit(9201, d0, d1, 8536, (event,)),
                PatientRecord("a", 1950, 8532, 8527, (Visit(9202, d0, d0, None, (event,)),))):
        cls = type(row)
        assert "__slots__" in vars(cls) and not hasattr(row, "__dict__"), cls.__name__
        twin = dataclasses.replace(row)
        assert twin == row and twin is not row, cls.__name__
        assert pickle.loads(pickle.dumps(row)) == row, cls.__name__
        first = dataclasses.fields(cls)[0].name
        assert dataclasses.replace(row, **{first: None}) != row, cls.__name__
    # the table rows are immutable values: named tuples
    for row in (PersonRow("a", 1950, 8532, 8527), VisitRow("v1", "a", 9201, d0, d1, 8536),
                EventRow("a", "v1", "drug", 7, d0)):
        cls = type(row)
        first = row._fields[0]
        with pytest.raises(AttributeError):
            setattr(row, first, None)
        assert not hasattr(row, "__dict__"), cls.__name__
        assert row._replace(**{first: None}) != row and row._replace() == row, cls.__name__
        assert pickle.loads(pickle.dumps(row)) == row, cls.__name__
        assert cls(*row) == row and cls(*row) is not row, cls.__name__
    tables = EventTables([PersonRow("a", 1950, 8532, 8527)], [VisitRow("v1", "a", 9201, d0, d1, 8536)],
                         [EventRow("a", "v1", "drug", 7, d0)])
    assert all(type(getattr(tables, name)) is tuple for name in ("persons", "visits", "events"))
    with pytest.raises(dataclasses.FrozenInstanceError):
        tables.events = ()
    events = [ClinicalEvent(d1, "condition", 1), ClinicalEvent(d0, "procedure", 2), ClinicalEvent(d0, "drug", 9),
              ClinicalEvent(d0, "drug", 3)]
    assert sorted(events) == [events[3], events[2], events[1], events[0]]  # by date, then domain name, then id
