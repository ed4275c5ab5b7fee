"""Per-position time-supervision targets extracted from a token sequence."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..codec import TokenSequence, att_days_of, classify_token, decompose_interval
from ..codec.tokens import TokenClass

__all__ = ["AttSupervision", "build_att_supervision"]

TTE_OFFSET = 0.5  # half-day continuity correction: Gamma support excludes zero


@dataclass
class AttSupervision:
    """Supervision at time-token positions of one sequence.

    att_positions are exactly the ATT_DAY / ATT_LT positions; the target
    arrays are aligned with them. tte_t already carries the half-day offset.
    """

    att_positions: np.ndarray
    year_target: np.ndarray
    month_target: np.ndarray
    day_target: np.ndarray
    tte_t: np.ndarray
    n_year_clamped: int = 0

    @property
    def n_att(self) -> int:
        return len(self.att_positions)


def build_att_supervision(seq: TokenSequence, max_year_class: int = 10) -> AttSupervision:
    """Targets from token text plus the encoder's true day counts where known.

    [LT] positions fall back to 1081 days when the true gap was not recorded;
    the year component clamps at max_year_class (only [LT]-range gaps can
    clamp, and the clamp count is reported).
    """
    tokens = seq.tokens
    known = seq.att_day_map()
    positions, years, months, days, tte = [], [], [], [], []
    clamped = 0
    for i, tok in enumerate(tokens):
        cls = classify_token(tok)
        if cls not in (TokenClass.ATT_DAY, TokenClass.ATT_LT):
            continue
        delta = known.get(i, att_days_of(tok))
        triple = decompose_interval(delta)
        y = triple.years
        if y > max_year_class:
            y = max_year_class
            clamped += 1
        positions.append(i)
        years.append(y)
        months.append(triple.months)
        days.append(triple.days)
        tte.append(delta + TTE_OFFSET)
    return AttSupervision(
        att_positions=np.array(positions, dtype=np.int64),
        year_target=np.array(years, dtype=np.int64),
        month_target=np.array(months, dtype=np.int64),
        day_target=np.array(days, dtype=np.int64),
        tte_t=np.array(tte, dtype=np.float64),
        n_year_clamped=clamped,
    )
