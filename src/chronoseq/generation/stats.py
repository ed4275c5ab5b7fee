"""Side-by-side summary statistics for real vs synthetic event tables."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..codec import EventTables, encode_patient, gc_paused, tables_to_records, write_csv

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

    Age is taken at the first recorded visit. Token counts re-encode each
    person with the same codec used for training, so real and synthetic
    tables are measured with one yardstick. Invariant under person_id
    relabeling.
    """
    records, _ = tables_to_records(tables)
    if not records:
        raise ValueError("empty tables")
    ages, visit_counts, token_counts, female = [], [], [], 0
    for r in records:
        # encode_patient validates first: a person with no visit row raises RecordValidationError naming them
        token_counts.append(len(encode_patient(r).tokens))
        ages.append(r.visits[0].start_date.year - r.birth_year)
        visit_counts.append(len(r.visits))
        if r.gender_concept == GENDER_FEMALE:
            female += 1
    vq = np.percentile(visit_counts, [25, 50, 75])
    tq = np.percentile(token_counts, [25, 50, 75])
    return SummaryStats(
        n_persons=len(records),
        age_median=float(np.median(ages)),
        female_fraction=female / len(records),
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
