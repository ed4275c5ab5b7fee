"""Patient records and their flat relational (event-table) form."""
from __future__ import annotations

import csv
import datetime as dt
import functools
import gc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "DOMAINS",
    "DOMAIN_RANK",
    "INPATIENT_CONCEPTS",
    "ClinicalEvent",
    "Visit",
    "PatientRecord",
    "PersonRow",
    "VisitRow",
    "EventRow",
    "EventTables",
    "IngestReport",
    "RecordValidationError",
    "gc_paused",
    "validate_record",
    "records_to_tables",
    "tables_to_records",
    "concept_incidence",
    "csv_rows",
    "read_csv_table",
    "write_csv",
    "read_tables",
    "write_tables",
]

DOMAINS = ("condition", "drug", "procedure")
DOMAIN_RANK = {d: i for i, d in enumerate(DOMAINS)}
# visit types of the timeline grammar's inpatient visits: they carry a discharge type and i-D day tokens
INPATIENT_CONCEPTS = frozenset({9201, 262})


class RecordValidationError(ValueError):
    """A PatientRecord, or a row of its event tables, violates a structural invariant."""


@dataclass(slots=True, order=True)
class ClinicalEvent:
    date: dt.date
    domain: str
    concept_id: int


@dataclass(slots=True)
class Visit:
    visit_concept_id: int
    start_date: dt.date
    end_date: dt.date
    discharge_concept_id: int | None
    events: tuple[ClinicalEvent, ...]


@dataclass(slots=True)
class PatientRecord:
    person_id: str
    birth_year: int
    gender_concept: int
    race_concept: int
    visits: tuple[Visit, ...]


def sorted_events(events) -> tuple[ClinicalEvent, ...]:
    return tuple(sorted(events, key=lambda e: (e.date, DOMAIN_RANK[e.domain], e.concept_id)))


def validate_record(record: PatientRecord):
    """Raise RecordValidationError on any invariant violation."""
    if not record.visits:
        raise RecordValidationError(f"person {record.person_id}: no visits")
    prev_start = None
    first_year = record.visits[0].start_date.year
    if record.birth_year > first_year:
        raise RecordValidationError(
            f"person {record.person_id}: birth year {record.birth_year} after first visit"
        )
    for k, v in enumerate(record.visits):
        if prev_start is not None and v.start_date < prev_start:
            raise RecordValidationError(f"person {record.person_id}: visit {k} starts before visit {k - 1}")
        prev_start = v.start_date
        if v.end_date < v.start_date:
            raise RecordValidationError(f"person {record.person_id}: visit {k} ends before it starts")
        inpatient = v.visit_concept_id in INPATIENT_CONCEPTS
        if inpatient and v.discharge_concept_id is None:
            raise RecordValidationError(f"person {record.person_id}: inpatient visit {k} lacks discharge type")
        if not inpatient and v.discharge_concept_id is not None:
            raise RecordValidationError(f"person {record.person_id}: non-inpatient visit {k} has discharge type")
        prev_key = None
        for e in v.events:
            if e.domain not in DOMAIN_RANK:
                raise RecordValidationError(f"person {record.person_id}: unknown domain {e.domain!r}")
            if e.concept_id == 0:
                raise RecordValidationError(f"person {record.person_id}: unknown concept (id 0) in visit {k}")
            if not (v.start_date <= e.date <= v.end_date):
                raise RecordValidationError(
                    f"person {record.person_id}: event {e.concept_id} on {e.date} outside visit {k} span"
                )
            key = (e.date, DOMAIN_RANK[e.domain], e.concept_id)
            if prev_key is not None and key < prev_key:
                raise RecordValidationError(f"person {record.person_id}: events out of order in visit {k}")
            prev_key = key


# ---------------------------------------------------------------------------
# flat relational form


@dataclass(slots=True)
class PersonRow:
    person_id: str
    birth_year: int
    gender_concept_id: int
    race_concept_id: int


@dataclass(slots=True)
class VisitRow:
    visit_id: str
    person_id: str
    visit_concept_id: int
    start_date: dt.date
    end_date: dt.date
    discharge_concept_id: int | None


@dataclass(slots=True)
class EventRow:
    person_id: str
    visit_id: str
    domain: str
    concept_id: int
    date: dt.date


def gc_paused(fn):
    """Run fn with the cyclic garbage collector disabled, then restore the caller's setting.

    Decorates the functions that build or walk whole event tables. Their rows,
    records and per-person indexes are slotted dataclasses, tuples, arrays and
    dicts of ints, strings and dates, which form no reference cycles, so
    reference counting frees them all, and a collection during such a pass
    only rescans every live row. The collector is enabled again on return and
    on exception; a call made with it already disabled (a nested call) leaves
    it alone. The pipeline is single-threaded, so no other thread allocates
    during a pause.
    """
    @functools.wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    return paused


@dataclass
class EventTables:
    persons: list[PersonRow] = field(default_factory=list)
    visits: list[VisitRow] = field(default_factory=list)
    events: list[EventRow] = field(default_factory=list)


@dataclass
class IngestReport:
    n_persons: int = 0
    n_visits: int = 0
    n_events: int = 0
    n_unknown_concept_events_dropped: int = 0
    n_orphan_events_dropped: int = 0
    n_orphan_visits_dropped: int = 0


@gc_paused
def records_to_tables(records) -> EventTables:
    tables = EventTables()
    visit_seq = 0
    for r in records:
        tables.persons.append(PersonRow(r.person_id, r.birth_year, r.gender_concept, r.race_concept))
        for v in r.visits:
            visit_seq += 1
            vid = f"v{visit_seq}"
            tables.visits.append(
                VisitRow(vid, r.person_id, v.visit_concept_id, v.start_date, v.end_date, v.discharge_concept_id)
            )
            for e in v.events:
                tables.events.append(EventRow(r.person_id, vid, e.domain, e.concept_id, e.date))
    return tables


def _first_repeat(ids):
    seen = set()
    for i in ids:
        if i in seen:
            return i
        seen.add(i)
    return None


def _check_unique_ids(tables: EventTables):
    """Raise RecordValidationError on a person_id repeated in the persons table or a visit_id in the visits table."""
    for table, column, rows in (("persons", "person_id", tables.persons), ("visits", "visit_id", tables.visits)):
        repeat = _first_repeat(getattr(r, column) for r in rows)
        if repeat is not None:
            raise RecordValidationError(f"{table} table: {column} {repeat!r} appears more than once")


@gc_paused
def tables_to_records(tables: EventTables):
    """Group the flat tables into PatientRecords (events sorted, visits by start date).

    A person_id repeated in the persons table, or a visit_id repeated in the
    visits table, raises RecordValidationError. Events with concept_id 0,
    events whose visit is missing or belongs to another person, and visits
    of a person missing from the persons table with their events, are
    dropped and counted.
    """
    _check_unique_ids(tables)
    report = IngestReport(
        n_persons=len(tables.persons), n_visits=len(tables.visits), n_events=len(tables.events)
    )
    visits_by_person: dict[str, list[VisitRow]] = {p.person_id: [] for p in tables.persons}
    visit_person = {}
    for v in tables.visits:
        if v.person_id not in visits_by_person:
            report.n_orphan_visits_dropped += 1
            continue
        visits_by_person[v.person_id].append(v)
        visit_person[v.visit_id] = v.person_id
    by_visit: dict[str, list[ClinicalEvent]] = {}
    for e in tables.events:
        if e.concept_id == 0:
            report.n_unknown_concept_events_dropped += 1
            continue
        if visit_person.get(e.visit_id) != e.person_id:
            report.n_orphan_events_dropped += 1
            continue
        by_visit.setdefault(e.visit_id, []).append(ClinicalEvent(e.date, e.domain, e.concept_id))
    records = []
    for p in tables.persons:
        rows = sorted(visits_by_person[p.person_id], key=lambda v: (v.start_date, v.visit_id))
        visits = tuple(
            Visit(
                v.visit_concept_id,
                v.start_date,
                v.end_date,
                v.discharge_concept_id,
                sorted_events(by_visit.get(v.visit_id, [])),
            )
            for v in rows
        )
        records.append(PatientRecord(p.person_id, p.birth_year, p.gender_concept_id, p.race_concept_id, visits))
    return records, report


@gc_paused
def concept_incidence(tables: EventTables, visit_types: bool = False):
    """The distinct (person, concept) pairs of a table set, as int arrays.

    Returns (rows, codes, concepts): person tables.persons[rows[k]] has at
    least one event of concept concepts[codes[k]], a (domain, concept_id)
    pair. concepts is sorted and lists each concept of some pair once; the
    pairs are sorted by row, then code. With visit_types, each visit also
    gives its person the concept ("visit", visit_concept_id). Only what
    tables_to_records keeps counts: events with concept_id 0, events whose
    visit is missing or belongs to another person, and the visits of a
    person missing from the persons table, with their events, give nothing.
    Repeated ids raise RecordValidationError, as there.
    """
    person_row = {p.person_id: i for i, p in enumerate(tables.persons)}
    # visit_id -> (person_id, persons-table row of that person or None)
    visit_row = {v.visit_id: (v.person_id, person_row.get(v.person_id)) for v in tables.visits}
    if len(person_row) != len(tables.persons) or len(visit_row) != len(tables.visits):
        _check_unique_ids(tables)
    code: dict[tuple[str, int], int] = {}  # concept -> code, in first-seen order
    rows, codes = [], []
    for e in tables.events:
        owner = visit_row.get(e.visit_id)
        if owner is None or owner[0] != e.person_id or owner[1] is None or e.concept_id == 0:
            continue
        rows.append(owner[1])
        codes.append(code.setdefault((e.domain, e.concept_id), len(code)))
    if visit_types:
        for v in tables.visits:
            if v.person_id in person_row:
                rows.append(person_row[v.person_id])
                codes.append(code.setdefault(("visit", v.visit_concept_id), len(code)))
    if not code:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), []
    concepts = sorted(code)
    rank = np.empty(len(concepts), dtype=np.intp)
    rank[[code[c] for c in concepts]] = np.arange(len(concepts))
    pairs = np.sort(np.array(rows, dtype=np.intp) * len(concepts) + rank[np.array(codes, dtype=np.intp)])
    pairs = pairs[np.concatenate(([True], pairs[1:] != pairs[:-1]))]  # distinct; np.unique is slower here
    return pairs // len(concepts), pairs % len(concepts), concepts


# ---------------------------------------------------------------------------
# delimited-file ingestion and output (UTF-8, header row, ISO dates)

PERSON_COLUMNS = ("person_id", "birth_year", "gender_concept_id", "race_concept_id")
VISIT_COLUMNS = ("visit_id", "person_id", "visit_concept_id", "start_date", "end_date", "discharge_concept_id")
EVENT_COLUMNS = ("person_id", "visit_id", "domain", "concept_id", "date")


def csv_rows(reader, path, n_fields: int, error=ValueError):
    """(line number, fields) of each remaining non-blank row of a csv.reader over path.

    Rows holding only whitespace are skipped; any other row with other than
    n_fields fields raises error naming the file and line.
    """
    for row in reader:
        if len(row) != n_fields:
            if not "".join(row).strip():
                continue
            raise error(f"{path}, line {reader.line_num}: expected {n_fields} fields, got {len(row)}")
        yield reader.line_num, row


def read_csv_table(path, columns, parse, error=RecordValidationError) -> list:
    """parse(fields) of each data row of the CSV file at path, whose header must be columns.

    Blank rows are skipped. A row with the wrong field count, or one that
    parse rejects with a ValueError, raises error naming the file and line.
    """
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader, [])
        if tuple(h.strip() for h in header) != tuple(columns):
            raise error(f"{path}: expected header {','.join(columns)}, got {','.join(header)}")
        out = []
        for line, row in csv_rows(reader, path, len(columns), error):
            try:
                out.append(parse(row))
            except ValueError as e:
                raise error(f"{path}, line {line}: {e}") from None
        return out


def write_csv(path, header, rows) -> None:
    """Write the header row, then each row of the iterable rows, to a UTF-8 CSV file at path."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def _visit_row(row) -> VisitRow:
    discharge = int(row[5]) if row[5] not in ("", "NA") else None
    return VisitRow(row[0], row[1], int(row[2]), dt.date.fromisoformat(row[3]), dt.date.fromisoformat(row[4]),
                    discharge)


@gc_paused
def read_tables(persons_path, visits_path, events_path) -> EventTables:
    return EventTables(
        persons=read_csv_table(persons_path, PERSON_COLUMNS,
                               lambda r: PersonRow(r[0], int(r[1]), int(r[2]), int(r[3]))),
        visits=read_csv_table(visits_path, VISIT_COLUMNS, _visit_row),
        events=read_csv_table(events_path, EVENT_COLUMNS,
                              lambda r: EventRow(r[0], r[1], r[2], int(r[3]), dt.date.fromisoformat(r[4]))),
    )


def write_tables(tables: EventTables, out_dir) -> dict[str, Path]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "persons": out_dir / "persons.csv",
        "visits": out_dir / "visits.csv",
        "events": out_dir / "events.csv",
    }
    write_csv(paths["persons"], PERSON_COLUMNS,
              ([p.person_id, p.birth_year, p.gender_concept_id, p.race_concept_id] for p in tables.persons))
    write_csv(paths["visits"], VISIT_COLUMNS,
              ([v.visit_id, v.person_id, v.visit_concept_id, v.start_date.isoformat(), v.end_date.isoformat(),
                "" if v.discharge_concept_id is None else v.discharge_concept_id] for v in tables.visits))
    write_csv(paths["events"], EVENT_COLUMNS,
              ([e.person_id, e.visit_id, e.domain, e.concept_id, e.date.isoformat()] for e in tables.events))
    return paths
