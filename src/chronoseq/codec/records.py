"""Patient records and their flat relational (event-table) form."""
from __future__ import annotations

import csv
import datetime as dt
import functools
import gc
import operator
import sys
from dataclasses import dataclass, field
from itertools import starmap
from pathlib import Path
from typing import NamedTuple

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
    "ingest_report",
    "concept_incidence",
    "csv_rows",
    "read_csv_table",
    "write_csv",
    "read_tables",
    "write_tables",
]

DOMAINS = ("condition", "drug", "procedure")  # in name order, so name order is rank order; all before "visit"
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


class PersonRow(NamedTuple):
    person_id: str
    birth_year: int
    gender_concept_id: int
    race_concept_id: int


class VisitRow(NamedTuple):
    visit_id: str
    person_id: str
    visit_concept_id: int
    start_date: dt.date
    end_date: dt.date
    discharge_concept_id: int | None


class EventRow(NamedTuple):
    person_id: str
    visit_id: str
    domain: str
    concept_id: int
    date: dt.date


def gc_paused(fn):
    """Run fn with the cyclic garbage collector disabled, then restore the caller's setting.

    Decorates the functions that build or walk whole event tables. Their rows,
    records and per-person indexes are named tuples, slotted dataclasses,
    tuples, arrays and dicts of ints, strings and dates, which form no
    reference cycles, so reference counting frees them all, and a collection
    during such a pass only rescans every live row. The collector is enabled
    again on return and on exception; a call made with it already disabled (a
    nested call) leaves it alone. The pipeline is single-threaded, so no other
    thread allocates during a pause.
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


@dataclass(frozen=True)
class EventTables:
    """The persons, visits and events tables of one dataset, as an immutable value.

    Each table is a tuple of named-tuple rows; a list passed in is converted
    once. Because nothing can change a table set, what is derived from it
    holds for its lifetime: derived() computes each product on first use and
    keeps it on the set. A changed table set is a new EventTables, e.g.
    dataclasses.replace(tables, events=tables.events + (row,)).
    """

    persons: tuple[PersonRow, ...] = ()
    visits: tuple[VisitRow, ...] = ()
    events: tuple[EventRow, ...] = ()
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("persons", "visits", "events"):
            rows = getattr(self, name)
            if type(rows) is not tuple:
                object.__setattr__(self, name, tuple(rows))

    def derived(self, compute, *args):
        """compute(self, *args), computed on the first call with these arguments and kept with the table set.

        compute must be a function of the tables and args alone; an exception
        is raised again on the next call, since nothing is kept for it.
        """
        key = (compute, *args)
        try:
            return self._derived[key]
        except KeyError:
            value = self._derived[key] = compute(self, *args)
            return value


@dataclass(frozen=True)
class IngestReport:
    n_persons: int
    n_visits: int
    n_events: int
    n_unknown_concept_events_dropped: int
    n_orphan_events_dropped: int
    n_orphan_visits_dropped: int


@gc_paused
def records_to_tables(records) -> EventTables:
    persons, visits, events = [], [], []
    visit_seq = 0
    for r in records:
        persons.append(PersonRow(r.person_id, r.birth_year, r.gender_concept, r.race_concept))
        for v in r.visits:
            visit_seq += 1
            vid = f"v{visit_seq}"
            visits.append(VisitRow(vid, r.person_id, v.visit_concept_id, v.start_date, v.end_date,
                                   v.discharge_concept_id))
            for e in v.events:
                events.append(EventRow(r.person_id, vid, e.domain, e.concept_id, e.date))
    return EventTables(tuple(persons), tuple(visits), tuple(events))


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


class _Ingestion(NamedTuple):
    """What the one pass of _ingest yields for a table set."""

    visits: tuple[VisitRow, ...]  # the kept visits, in table order
    events: tuple[EventRow, ...]  # the kept events, in table order
    report: IngestReport
    # concept_incidence(tables, visit_types=True), arrays read-only
    person: np.ndarray
    codes: np.ndarray
    concepts: tuple[tuple[str, int], ...]
    n_event_concepts: int  # concepts[:n_event_concepts] are the event concepts; the visit types sort after them


@gc_paused
def _ingest(tables: EventTables) -> _Ingestion:
    """The drop rules, applied once to a table set.

    A person_id repeated in the persons table, or a visit_id repeated in the
    visits table, raises RecordValidationError, and so does an event of a
    domain outside DOMAINS. Events with concept_id 0, events whose visit is
    missing or belongs to another person, and visits of a person missing
    from the persons table with their events, are dropped and counted.
    """
    persons, visits, events = tables.persons, tables.visits, tables.events
    person_row = {p[0]: i for i, p in enumerate(persons)}
    if len(person_row) != len(persons) or len({v[0] for v in visits}) != len(visits):
        _check_unique_ids(tables)
    code: dict[tuple[str, int], int] = {}  # concept -> code, in first-seen order
    rows, codes = [], []
    kept_visits = []
    owner = {}  # visit_id of a kept visit -> (person_id, persons-table row)
    for v in visits:
        row = person_row.get(v[1])
        if row is not None:
            kept_visits.append(v)
            owner[v[0]] = (v[1], row)
            rows.append(row)
            codes.append(code.setdefault(("visit", v[2]), len(code)))
    kept_events = []
    n_unknown = 0
    for e in events:
        pid, vid, domain, concept, _ = e
        if domain not in DOMAIN_RANK:
            raise RecordValidationError(f"person {pid}: unknown domain {domain!r}")
        if concept == 0:
            n_unknown += 1
            continue
        o = owner.get(vid)
        if o is None or o[0] != pid:
            continue
        kept_events.append(e)
        rows.append(o[1])
        codes.append(code.setdefault((domain, concept), len(code)))
    report = IngestReport(
        n_persons=len(persons), n_visits=len(visits), n_events=len(events),
        n_unknown_concept_events_dropped=n_unknown,
        n_orphan_events_dropped=len(events) - n_unknown - len(kept_events),
        n_orphan_visits_dropped=len(visits) - len(kept_visits),
    )
    concepts = tuple(sorted(code))
    n = len(concepts)
    if n:
        rank = np.empty(n, dtype=np.intp)
        rank[[code[c] for c in concepts]] = np.arange(n)
        pairs = np.sort(np.array(rows, dtype=np.intp) * n + rank[np.array(codes, dtype=np.intp)])
        pairs = pairs[np.concatenate(([True], pairs[1:] != pairs[:-1]))]  # distinct; np.unique is slower here
        person, codes = (pairs // n).astype(np.int32), (pairs % n).astype(np.int32)  # int32: half the memory kept
    else:
        person = codes = np.zeros(0, dtype=np.int32)
    person.setflags(write=False)
    codes.setflags(write=False)
    # the domains of DOMAINS all sort before "visit"
    n_event_concepts = sum(1 for d, _ in concepts if d != "visit")
    # a table from which nothing was dropped is kept as itself
    kept_visits = visits if len(kept_visits) == len(visits) else tuple(kept_visits)
    kept_events = events if len(kept_events) == len(events) else tuple(kept_events)
    return _Ingestion(kept_visits, kept_events, report, person, codes, concepts, n_event_concepts)


_VISIT_ORDER = operator.itemgetter(3, 0)  # (start_date, visit_id)


@gc_paused
def tables_to_records(tables: EventTables):
    """Group the flat tables into PatientRecords (events sorted, visits by start date).

    Only the rows the ingestion keeps count, and its IngestReport is
    returned: a person_id repeated in the persons table, a visit_id repeated
    in the visits table, or an event of a domain outside DOMAINS raises
    RecordValidationError. Events with concept_id 0, events whose visit is
    missing or belongs to another person, and visits of a person missing
    from the persons table with their events, are dropped and counted.
    """
    ingestion = tables.derived(_ingest)
    visits_by_person: dict[str, list[VisitRow]] = {p[0]: [] for p in tables.persons}
    for v in ingestion.visits:
        visits_by_person[v[1]].append(v)
    # (date, domain, concept_id) of each visit's events: as tuples they sort in sorted_events order
    by_visit: dict[str, list[tuple]] = {}
    for _, vid, domain, concept, date in ingestion.events:
        by_visit.setdefault(vid, []).append((date, domain, concept))
    records = []
    for pid, birth_year, gender, race in tables.persons:
        visits = tuple(
            Visit(concept, start, end, discharge, tuple(starmap(ClinicalEvent, sorted(by_visit.get(vid, ())))))
            for vid, _, concept, start, end, discharge in sorted(visits_by_person[pid], key=_VISIT_ORDER)
        )
        records.append(PatientRecord(pid, birth_year, gender, race, visits))
    return records, ingestion.report


def ingest_report(tables: EventTables) -> IngestReport:
    """The IngestReport of tables_to_records(tables), without building the records."""
    return tables.derived(_ingest).report


def concept_incidence(tables: EventTables, visit_types: bool = False):
    """The distinct (person, concept) pairs of a table set, as int32 arrays (read-only with visit_types).

    Returns (rows, codes, concepts): person tables.persons[rows[k]] has at
    least one event of concept concepts[codes[k]], a (domain, concept_id)
    pair. concepts is a sorted tuple and lists each concept of some pair
    once; the pairs are sorted by row, then code. With visit_types, each
    visit also gives its person the concept ("visit", visit_concept_id).
    Only the rows tables_to_records keeps count, and its errors are raised.
    """
    ingestion = tables.derived(_ingest)
    if visit_types:
        return ingestion.person, ingestion.codes, ingestion.concepts
    n = ingestion.n_event_concepts
    keep = ingestion.codes < n
    return ingestion.person[keep], ingestion.codes[keep], ingestion.concepts[:n]


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


_row = tuple.__new__  # a named-tuple row from a tuple of exactly its fields, skipping the generated __new__
_date = dt.date.fromisoformat
# Ids are interned: the rows that repeat an id share one string, which holds its hash once computed.
_id = sys.intern


def _visit_row(r) -> VisitRow:
    discharge = int(r[5]) if r[5] not in ("", "NA") else None
    return _row(VisitRow, (_id(r[0]), _id(r[1]), int(r[2]), _date(r[3]), _date(r[4]), discharge))


_DOMAIN = {d: d for d in DOMAINS}  # a field's text -> the one DOMAINS string


def _event_row(r) -> EventRow:
    domain = _DOMAIN.get(r[2])
    if domain is None:
        raise ValueError(f"unknown domain {r[2]!r}, expected one of {', '.join(DOMAINS)}")
    return _row(EventRow, (_id(r[0]), _id(r[1]), domain, int(r[3]), _date(r[4])))


@gc_paused
def read_tables(persons_path, visits_path, events_path) -> EventTables:
    """The event tables of the three CSV files. A malformed row, or an event of a domain outside DOMAINS,
    raises RecordValidationError naming the file and line."""
    return EventTables(
        persons=read_csv_table(persons_path, PERSON_COLUMNS,
                               lambda r: _row(PersonRow, (_id(r[0]), int(r[1]), int(r[2]), int(r[3])))),
        visits=read_csv_table(visits_path, VISIT_COLUMNS, _visit_row),
        events=read_csv_table(events_path, EVENT_COLUMNS, _event_row),
    )


def write_tables(tables: EventTables, out_dir) -> dict[str, Path]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "persons": out_dir / "persons.csv",
        "visits": out_dir / "visits.csv",
        "events": out_dir / "events.csv",
    }
    # csv writes a date as str(date), its ISO form, and None as an empty field
    write_csv(paths["persons"], PERSON_COLUMNS, tables.persons)
    write_csv(paths["visits"], VISIT_COLUMNS, tables.visits)
    write_csv(paths["events"], EVENT_COLUMNS, tables.events)
    return paths
