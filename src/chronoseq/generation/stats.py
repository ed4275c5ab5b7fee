"""Side-by-side summary statistics for real vs synthetic event tables."""
from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from ..codec import EventTables, gc_paused, kept_arrays, tables_to_records, validate_record, write_csv

__all__ = ["SummaryStats", "summary_stats", "write_stats_csv", "GENDER_FEMALE"]

GENDER_FEMALE = 8532


@dataclass(frozen=True)
class SummaryStats:
    n_persons: int
    age_median: float
    female_fraction: float
    visit_q1: float
    visit_q2: float
    visit_q3: float
    token_q1: float
    token_q2: float
    token_q3: float

    def rows(self):
        return [
            ("n_persons", self.n_persons),
            ("age_median", self.age_median),
            ("female_fraction", self.female_fraction),
            ("visit_q1", self.visit_q1),
            ("visit_q2", self.visit_q2),
            ("visit_q3", self.visit_q3),
            ("token_q1", self.token_q1),
            ("token_q2", self.token_q2),
            ("token_q3", self.token_q3),
        ]


@gc_paused
def summary_stats(tables: EventTables) -> SummaryStats:
    """Median age, percent female, and visit/token count quartiles.

    Age is taken at the first recorded visit. A token count is the length
    of the person's sequence under the codec used for training, counted on
    the ingestion's kept-row arrays without building records or tokens, so
    real and synthetic tables are measured with one yardstick. Invariant
    under person_id relabeling.

    Raises what tables_to_records raises, then ValueError on empty tables,
    then the RecordValidationError of validate_record for the first invalid
    person in persons-table order.
    """
    a = kept_arrays(tables)
    n = len(tables.persons)
    if not n:
        raise ValueError("empty tables")
    birth_year = np.array(list(map(itemgetter(1), tables.persons)))  # int64, or Python ints past its range
    visit_counts = np.bincount(a.visit_person, minlength=n)
    first_year = a.first_visit_year(n)
    span_start, span_end = a.visit_start[a.event_visit], a.visit_end[a.event_visit]  # per event, of its visit
    if ((visit_counts == 0).any() or (birth_year > first_year).any() or (a.visit_end < a.visit_start).any()
            or (a.visit_inpatient != a.visit_discharged).any()
            or ((a.event_day < span_start) | (a.event_day > span_end)).any()):
        # what validate_record can still find in the sorted, filtered records: build them to name the first
        for record in tables_to_records(tables)[0]:
            validate_record(record)
    # sequence length: 4 prefix tokens and [END]; per visit [VS], the type, its events, [VE] and (after
    # the first) a gap token. An inpatient visit adds its discharge token and an i-D token at each date
    # its day cursor moves forward to: each distinct event date after its start, then its end if no
    # event falls on it (events lie within the span) and it is after the start.
    visit_tokens = 4 + np.bincount(a.event_visit, minlength=len(a.visit_person))
    stay = a.visit_inpatient[a.event_visit]
    visit, day = a.event_visit[stay], a.event_day[stay]
    later = day > span_start[stay]
    dates = np.unique(visit[later].astype(np.int64) << 32 | day[later])  # distinct (visit, date) pairs
    on_end = np.zeros(len(visit_tokens), dtype=bool)
    on_end[visit[day == span_end[stay]]] = True
    visit_tokens += a.visit_inpatient * (1 + np.bincount(dates >> 32, minlength=len(visit_tokens))
                                         + ((a.visit_end > a.visit_start) & ~on_end))
    token_counts = (4 + np.bincount(a.visit_person, weights=visit_tokens, minlength=n)).astype(np.int64)
    female = list(map(itemgetter(2), tables.persons)).count(GENDER_FEMALE)
    vq = np.percentile(visit_counts, [25, 50, 75])
    tq = np.percentile(token_counts, [25, 50, 75])
    return SummaryStats(
        n_persons=n,
        age_median=float(np.median(first_year - birth_year)),
        female_fraction=female / n,
        visit_q1=float(vq[0]),
        visit_q2=float(vq[1]),
        visit_q3=float(vq[2]),
        token_q1=float(tq[0]),
        token_q2=float(tq[1]),
        token_q3=float(tq[2]),
    )


def write_stats_csv(path, named_stats: dict[str, SummaryStats]):
    """One column per dataset, metrics as rows."""
    names = list(named_stats)
    metrics = [m for m, _ in named_stats[names[0]].rows()]
    values = [dict(s.rows()) for s in named_stats.values()]
    write_csv(path, ["metric", *names], ([m, *(v[m] for v in values)] for m in metrics))
