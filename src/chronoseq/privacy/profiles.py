"""Fixed-width binary profiles derived from event tables.

The attack literature operates on fixed-dimension binary records, so each
person is flattened to indicator bits: one per gender/race concept, one per
age decade, one per concept in a chosen set. The attribute layout comes from
a ProfileSpec so train/eval/synthetic datasets share one feature space.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..codec import EventTables, concept_incidence, kept_arrays

__all__ = ["ProfileSpec", "build_profiles"]

_AGE_DECADES = 12  # 0-9 ... 110+


@dataclass(frozen=True)
class ProfileSpec:
    gender_concepts: tuple[int, ...]
    race_concepts: tuple[int, ...]
    concepts: tuple[tuple[str, int], ...]  # (domain, concept_id)

    @property
    def dimension(self) -> int:
        return len(self.gender_concepts) + len(self.race_concepts) + _AGE_DECADES + len(self.concepts)

    @classmethod
    def from_tables(cls, tables: EventTables, top_k_concepts: int = 64) -> "ProfileSpec":
        """Deterministic spec from a reference dataset: the top-k concepts by
        person prevalence (ties by domain then id), plus observed demographics.
        Computed once per table set and k."""
        if top_k_concepts < 1:
            raise ValueError(f"top_k_concepts: must be at least 1, got {top_k_concepts}")
        return tables.derived(_ranked_spec, top_k_concepts)


def _ranked_spec(tables: EventTables, top_k_concepts: int) -> ProfileSpec:
    genders = tuple(sorted({p.gender_concept_id for p in tables.persons}))
    races = tuple(sorted({p.race_concept_id for p in tables.persons}))
    _, codes, concepts = concept_incidence(tables)
    # concepts is sorted by (domain, id), so a stable sort keeps that order among ties
    ranked = np.argsort(-np.bincount(codes, minlength=len(concepts)), kind="stable")[:top_k_concepts]
    return ProfileSpec(gender_concepts=genders, race_concepts=races, concepts=tuple(concepts[j] for j in ranked))


def build_profiles(tables: EventTables, spec: ProfileSpec) -> np.ndarray:
    """(n_persons, spec.dimension) read-only uint8 matrix, person order = persons table order.
    Computed once per table set and spec."""
    return tables.derived(_profiles, spec)


def _profiles(tables: EventTables, spec: ProfileSpec) -> np.ndarray:
    gender_index = {g: i for i, g in enumerate(spec.gender_concepts)}
    race_index = {r: i for i, r in enumerate(spec.race_concepts)}
    n_gender, n_race = len(spec.gender_concepts), len(spec.race_concepts)
    base_concepts = n_gender + n_race + _AGE_DECADES
    first_visit_year = kept_arrays(tables).first_visit_year(len(tables.persons)).tolist()
    rows = np.zeros((len(tables.persons), spec.dimension), dtype=np.uint8)
    for i, ((_, birth_year, gender, race), year) in enumerate(zip(tables.persons, first_visit_year)):
        g = gender_index.get(gender)
        if g is not None:
            rows[i, g] = 1
        r = race_index.get(race)
        if r is not None:
            rows[i, n_gender + r] = 1
        if year:  # 0: no kept visit
            decade = min(max((year - birth_year) // 10, 0), _AGE_DECADES - 1)
            rows[i, n_gender + n_race + decade] = 1
    person, codes, concepts = concept_incidence(tables)
    spec_column = {dc: base_concepts + j for j, dc in enumerate(spec.concepts)}
    column = np.array([spec_column.get(dc, -1) for dc in concepts], dtype=np.intp)[codes]
    rows[person[column >= 0], column[column >= 0]] = 1
    rows.setflags(write=False)
    return rows
