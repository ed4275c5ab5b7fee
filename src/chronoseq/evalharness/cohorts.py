"""Cohort construction: cohort CSVs and record truncation at a prediction time."""
from __future__ import annotations

import datetime as dt

from ..codec import PatientRecord, encode_prefix, read_csv_table

__all__ = ["truncate_record", "load_cohort_csv", "cohort_prefixes"]


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


def cohort_prefixes(records, cohort_rows, cfg=None, context_window: int | None = None):
    """(prefix_tokens, label) pairs; persons missing or empty at cutoff are skipped (counted).

    With a context_window, a prefix of that many tokens or more is skipped
    (counted) too: it leaves the model no room for a simulated token. cfg
    is unused, since the timeline grammar is fixed; it is kept only for the
    calls in perfbench/, which still pass a CodecConfig().
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
        tokens = encode_prefix(trunc).tokens
        if context_window is not None and len(tokens) >= context_window:
            skipped += 1
            continue
        out.append((tokens, label))
    return out, skipped
