from __future__ import annotations

import datetime as dt

import numpy as np
import pytest

from chronoseq.codec import ClinicalEvent, PatientRecord, Visit


@pytest.fixture
def one_visit_record():
    return PatientRecord(
        "p1",
        1950,
        8532,
        8527,
        (
            Visit(
                9202,
                dt.date(1995, 3, 1),
                dt.date(1995, 3, 1),
                None,
                (ClinicalEvent(dt.date(1995, 3, 1), "condition", 320128),),
            ),
        ),
    )


def random_record(rng: np.random.Generator, anchor_jan1=False, allow_long_gaps=False,
                  inpatient=frozenset({9201, 262})) -> PatientRecord:
    """Valid record inside the codec's representable class (used by round-trip tests)."""
    year = int(rng.integers(1950, 2020))
    start = dt.date(year, 1, 1)
    if not anchor_jan1:
        start += dt.timedelta(days=int(rng.integers(0, 365)))
    birth_year = year - int(rng.integers(0, 100))
    gender = int(rng.choice([8532, 8507, 0]))
    race = int(rng.choice([8527, 8516, 8515, 0]))
    visits = []
    cursor = start
    for _ in range(int(rng.integers(1, 7))):
        is_inpatient = rng.random() < 0.35
        vtype = int(rng.choice(sorted(inpatient))) if is_inpatient else int(rng.choice([9202, 9203, 581477]))
        stay = int(rng.integers(0, 15)) if is_inpatient else 0
        end = cursor + dt.timedelta(days=stay)
        events = []
        for _ in range(int(rng.integers(0, 5))):
            offset = int(rng.integers(0, stay + 1)) if stay else 0
            domain = str(rng.choice(["condition", "drug", "procedure"]))
            events.append(ClinicalEvent(cursor + dt.timedelta(days=offset), domain, int(rng.integers(1, 5000))))
        from chronoseq.codec import sorted_events

        visits.append(Visit(vtype, cursor, end, int(rng.choice([8536, 8863])) if is_inpatient else None,
                            sorted_events(events)))
        gap_hi = 2500 if allow_long_gaps else 1080
        cursor = end + dt.timedelta(days=int(rng.integers(0, gap_hi + 1)))
    return PatientRecord(f"p{int(rng.integers(1, 10**6))}", birth_year, gender, race, tuple(visits))
