"""Fidelity checks: concept prevalence comparison and treatment-pathway cohorts."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..codec import INPATIENT_CONCEPTS, EventTables, concept_incidence, gc_paused, kept_arrays, min_by_row, write_csv
from ..generation.stats import GENDER_FEMALE

__all__ = ["PrevalenceRow", "prevalence_report", "write_prevalence_csv", "CohortSpec", "PathwayResult", "pathway_cohort"]

STRATA = ("full", "female", "hospitalized")


@dataclass(frozen=True)
class PrevalenceRow:
    stratum: str
    domain: str
    concept_id: int
    real_prevalence: float
    synthetic_prevalence: float


def _stratum_counts(tables: EventTables, incidence, index: dict) -> dict[str, tuple[list[int], int]]:
    """{stratum: (the stratum's persons with each concept, in index order; the stratum's size)}.

    incidence is concept_incidence(tables, visit_types=True). Only persons of
    the persons table are members; the hospitalized are those with a kept
    inpatient visit.
    """
    person, codes, concepts = incidence
    inpatient = np.array([d == "visit" and c in INPATIENT_CONCEPTS for d, c in concepts], dtype=bool)
    hospitalized = np.zeros(len(tables.persons), dtype=bool)
    hospitalized[person[inpatient[codes]]] = True
    members = {
        "full": np.ones(len(tables.persons), dtype=bool),
        "female": np.array([p.gender_concept_id == GENDER_FEMALE for p in tables.persons], dtype=bool),
        "hospitalized": hospitalized,
    }
    codes = np.array([index[dc] for dc in concepts], dtype=np.intp)[codes]
    return {stratum: (np.bincount(codes[mask[person]], minlength=len(index)).tolist(), int(mask.sum()))
            for stratum, mask in members.items()}


@gc_paused
def prevalence_report(real: EventTables, synthetic: EventTables) -> list[PrevalenceRow]:
    """Per-concept person-prevalence in both datasets, stratified by domain and
    by sub-population (full / female / hospitalized).

    Prevalence is the fraction of stratum persons with at least one
    occurrence; every concept in the union of the two datasets gets a row in
    every stratum (absent means 0.0). An empty stratum yields prevalence 0.
    Occurrences are those of concept_incidence: rows that tables_to_records
    drops count for nothing.
    """
    if not real.persons or not synthetic.persons:
        raise ValueError("both datasets must be nonempty")
    inc_real = concept_incidence(real, visit_types=True)
    inc_syn = concept_incidence(synthetic, visit_types=True)
    concepts = sorted(set(inc_real[2]) | set(inc_syn[2]))
    index = {dc: j for j, dc in enumerate(concepts)}
    counts_real = _stratum_counts(real, inc_real, index)
    counts_syn = _stratum_counts(synthetic, inc_syn, index)
    rows = []
    for stratum in STRATA:
        (with_real, n_real), (with_syn, n_syn) = counts_real[stratum], counts_syn[stratum]
        for j, (domain, concept) in enumerate(concepts):
            rows.append(
                PrevalenceRow(
                    stratum=stratum,
                    domain=domain,
                    concept_id=concept,
                    real_prevalence=with_real[j] / n_real if n_real else 0.0,
                    synthetic_prevalence=with_syn[j] / n_syn if n_syn else 0.0,
                )
            )
    return rows


def write_prevalence_csv(path, rows):
    write_csv(path, ["stratum", "domain", "concept_id", "real_prevalence", "synthetic_prevalence"],
              ([r.stratum, r.domain, r.concept_id, r.real_prevalence, r.synthetic_prevalence] for r in rows))


# ---------------------------------------------------------------------------
# treatment-pathway cohort


@dataclass(frozen=True)
class CohortSpec:
    """Treatment-pathway cohort definition for pathway_cohort: lookback at the
    first index exposure, then >= 1 qualifying exposure in each of n_intervals
    consecutive interval_days windows."""

    name: str
    index_concepts: frozenset[int]
    lookback_days: int = 365
    interval_days: int = 120
    n_intervals: int = 9
    domain: str = "drug"

    def __post_init__(self):
        if self.lookback_days <= 0 or self.interval_days <= 0 or self.n_intervals <= 0:
            raise ValueError("cohort windows must be positive")
        if not self.index_concepts:
            raise ValueError("index concept set must be nonempty")


@dataclass
class PathwayResult:
    cohort: list[str]
    n_persons: int
    prevalence: float


def pathway_cohort(tables: EventTables, spec: CohortSpec) -> PathwayResult:
    """Persons whose first index exposure has >= lookback_days of recorded
    history before it and who have >= 1 qualifying exposure in each of the
    n_intervals consecutive windows [index + k*interval, index + (k+1)*interval).

    Prior observation is measured from the person's first recorded visit or
    event. Event order within a day never matters (only dates are compared).
    Only the rows tables_to_records keeps count, as in concept_incidence.
    """
    a = kept_arrays(tables)
    _, _, concepts = concept_incidence(tables)
    n = len(tables.persons)
    index_concept = np.array([d == spec.domain and c in spec.index_concepts for d, c in concepts], dtype=bool)
    event_person = a.visit_person[a.event_visit]
    exposed = index_concept[a.event_concept]
    person, day = event_person[exposed], a.event_day[exposed]
    never = np.iinfo(np.int32).max
    index_day = min_by_row(person, day, n, never)
    first_day = min_by_row(np.concatenate((a.visit_person, event_person)), np.concatenate((a.visit_start, a.event_day)),
                           n, never)
    eligible = (index_day != never) & (index_day.astype(np.int64) - first_day >= spec.lookback_days)
    window = (day - index_day[person]).astype(np.int64) // spec.interval_days
    keep = eligible[person] & (window < spec.n_intervals)
    person, window = person[keep], window[keep]
    order = np.lexsort((window, person))
    person, window = person[order], window[order]
    distinct = np.ones(len(person), dtype=bool)
    distinct[1:] = (person[1:] != person[:-1]) | (window[1:] != window[:-1])
    filled = np.bincount(person[distinct], minlength=n)  # windows with an exposure, per person
    cohort = [tables.persons[i][0] for i in np.flatnonzero(eligible & (filled == spec.n_intervals)).tolist()]
    return PathwayResult(cohort=cohort, n_persons=n, prevalence=len(cohort) / n if n else 0.0)
