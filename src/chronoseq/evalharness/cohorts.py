"""Cohort construction: record truncation at a prediction time, labeled examples."""
from __future__ import annotations

import datetime as dt

from ..codec import CodecConfig, PatientRecord, encode_prefix, read_csv_table, tables_to_records
from .fidelity import CohortSpec

__all__ = ["truncate_record", "load_cohort_csv", "cohort_prefixes", "build_labeled_cohort"]


def truncate_record(record: PatientRecord, cutoff: dt.date) -> PatientRecord | None:
    """The record as known at the prediction time: visits fully ended by cutoff."""
    visits = tuple(v for v in record.visits if v.end_date <= cutoff)
    if not visits:
        return None
    return PatientRecord(record.person_id, record.birth_year, record.gender_concept, record.race_concept, visits)


def load_cohort_csv(path) -> list[tuple[str, dt.date, int]]:
    """person_id,cutoff_date,label rows (header required)."""
    return read_csv_table(path, ("person_id", "cutoff_date", "label"),
                          lambda r: (r[0], dt.date.fromisoformat(r[1]), int(r[2])), ValueError)


def cohort_prefixes(records, cohort_rows, cfg: CodecConfig, context_window: int | None = None):
    """(prefix_tokens, label) pairs; persons missing or empty at cutoff are skipped (counted).

    With a context_window, a prefix of that many tokens or more is skipped
    (counted) too: it leaves the model no room for a simulated token.
    """
    by_id = {r.person_id: r for r in records}
    out = []
    skipped = 0
    for person_id, cutoff, label in cohort_rows:
        rec = by_id.get(person_id)
        trunc = None if rec is None else truncate_record(rec, cutoff)
        if trunc is None:
            skipped += 1
            continue
        tokens = encode_prefix(trunc, cfg).tokens
        if context_window is not None and len(tokens) >= context_window:
            skipped += 1
            continue
        out.append((tokens, label))
    return out, skipped


def build_labeled_cohort(tables, spec: CohortSpec):
    """Prediction examples from tables: index at the first index-concept event,
    lookback from the person's first record, outcome inside the window after index.

    Returns (person_id, cutoff_date, label) rows usable as a cohort CSV.
    """
    if not spec.outcome_concepts:
        raise ValueError("cohort spec has no outcome concepts")
    records, _ = tables_to_records(tables)
    rows = []
    lo, hi = spec.outcome_window
    for rec in records:
        events = [e for v in rec.visits for e in v.events]
        index_dates = [e.date for e in events if e.concept_id in spec.index_concepts]
        if not index_dates:
            continue
        index = min(index_dates)
        first = min(min(e.date for e in events), rec.visits[0].start_date) if events else rec.visits[0].start_date
        if (index - first).days < spec.lookback_days:
            continue
        label = 0
        for e in events:
            off = (e.date - index).days
            if e.concept_id in spec.outcome_concepts and lo <= off <= hi:
                label = 1
                break
        rows.append((rec.person_id, index, label))
    return rows
