"""Patient records and their flat relational (event-table) form."""
from __future__ import annotations

import csv
import datetime as dt
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "DOMAINS",
    "DOMAIN_RANK",
    "ClinicalEvent",
    "Visit",
    "PatientRecord",
    "PersonRow",
    "VisitRow",
    "EventRow",
    "EventTables",
    "IngestReport",
    "RecordValidationError",
    "validate_record",
    "records_to_tables",
    "tables_to_records",
    "csv_rows",
    "read_csv_table",
    "read_tables",
    "write_tables",
]

DOMAINS = ("condition", "drug", "procedure")
DOMAIN_RANK = {d: i for i, d in enumerate(DOMAINS)}


class RecordValidationError(ValueError):
    """A PatientRecord, or a row of its event tables, violates a structural invariant."""


@dataclass(frozen=True, order=True)
class ClinicalEvent:
    date: dt.date
    domain: str
    concept_id: int


@dataclass(frozen=True)
class Visit:
    visit_concept_id: int
    start_date: dt.date
    end_date: dt.date
    discharge_concept_id: int | None
    events: tuple[ClinicalEvent, ...]


@dataclass(frozen=True)
class PatientRecord:
    person_id: str
    birth_year: int
    gender_concept: int
    race_concept: int
    visits: tuple[Visit, ...]


def sorted_events(events) -> tuple[ClinicalEvent, ...]:
    return tuple(sorted(events, key=lambda e: (e.date, DOMAIN_RANK[e.domain], e.concept_id)))


def validate_record(record: PatientRecord, inpatient_concepts=frozenset({9201, 262})):
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
        inpatient = v.visit_concept_id in inpatient_concepts
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


@dataclass(frozen=True)
class PersonRow:
    person_id: str
    birth_year: int
    gender_concept_id: int
    race_concept_id: int


@dataclass(frozen=True)
class VisitRow:
    visit_id: str
    person_id: str
    visit_concept_id: int
    start_date: dt.date
    end_date: dt.date
    discharge_concept_id: int | None


@dataclass(frozen=True)
class EventRow:
    person_id: str
    visit_id: str
    domain: str
    concept_id: int
    date: dt.date


@dataclass
class EventTables:
    persons: list[PersonRow] = field(default_factory=list)
    visits: list[VisitRow] = field(default_factory=list)
    events: list[EventRow] = field(default_factory=list)

    def n_persons(self) -> int:
        return len(self.persons)


@dataclass
class IngestReport:
    n_persons: int = 0
    n_visits: int = 0
    n_events: int = 0
    n_unknown_concept_events_dropped: int = 0
    n_orphan_events_dropped: int = 0


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


def tables_to_records(tables: EventTables, drop_unknown_concepts=True):
    """Group the flat tables into PatientRecords (events sorted, visits by start date).

    Events with concept_id 0 are dropped and counted when drop_unknown_concepts
    is set; events referencing a missing visit are dropped and counted.
    """
    report = IngestReport(
        n_persons=len(tables.persons), n_visits=len(tables.visits), n_events=len(tables.events)
    )
    by_visit: dict[str, list[ClinicalEvent]] = {}
    visit_ids = {v.visit_id for v in tables.visits}
    for e in tables.events:
        if drop_unknown_concepts and e.concept_id == 0:
            report.n_unknown_concept_events_dropped += 1
            continue
        if e.visit_id not in visit_ids:
            report.n_orphan_events_dropped += 1
            continue
        by_visit.setdefault(e.visit_id, []).append(ClinicalEvent(e.date, e.domain, e.concept_id))
    visits_by_person: dict[str, list[VisitRow]] = {}
    for v in tables.visits:
        visits_by_person.setdefault(v.person_id, []).append(v)
    records = []
    for p in tables.persons:
        rows = sorted(visits_by_person.get(p.person_id, []), key=lambda v: (v.start_date, v.visit_id))
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


def _visit_row(row) -> VisitRow:
    discharge = int(row[5]) if row[5] not in ("", "NA") else None
    return VisitRow(row[0], row[1], int(row[2]), dt.date.fromisoformat(row[3]), dt.date.fromisoformat(row[4]),
                    discharge)


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
    with open(paths["persons"], "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(PERSON_COLUMNS)
        for p in tables.persons:
            w.writerow([p.person_id, p.birth_year, p.gender_concept_id, p.race_concept_id])
    with open(paths["visits"], "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(VISIT_COLUMNS)
        for v in tables.visits:
            w.writerow(
                [
                    v.visit_id,
                    v.person_id,
                    v.visit_concept_id,
                    v.start_date.isoformat(),
                    v.end_date.isoformat(),
                    "" if v.discharge_concept_id is None else v.discharge_concept_id,
                ]
            )
    with open(paths["events"], "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(EVENT_COLUMNS)
        for e in tables.events:
            w.writerow([e.person_id, e.visit_id, e.domain, e.concept_id, e.date.isoformat()])
    return paths
