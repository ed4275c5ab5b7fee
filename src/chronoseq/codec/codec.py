"""Bidirectional conversion between patient records and token sequences.

The sequence grammar:

    year:Y age:A gender:G race:R
    ( [VS] v:ID body [VE] gap )* [VS] v:ID body [VE] [END]

where ``gap`` is D0..D1080 or [LT] (next visit start minus previous visit
end, floored at zero) and ``body`` is the visit's events. Inpatient visits
(visit types ``INPATIENT_CONCEPTS``) close their body with a ``dis:`` discharge
token, and inside them ``i-D{n}`` tokens advance a day cursor between dated
positions (visit start, each event, the discharge token) so stay durations
survive the round trip at day granularity. Non-inpatient visits are
represented as single-day encounters: their events collapse onto the start
date on decode. The grammar is fixed: a checkpoint means something only
under the grammar it was trained on.
"""
from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field, replace

from .records import (
    INPATIENT_CONCEPTS,
    ClinicalEvent,
    PatientRecord,
    Visit,
    sorted_events,
    validate_record,
)
from .tokens import (
    END,
    TokenClass,
    UnknownTokenError,
    att_days_of,
    att_token,
    classify_token,
    concept_id_of,
    concept_token,
    domain_of_concept_token,
    VE,
    VS,
)

__all__ = ["CodecConfig", "TokenSequence", "DecodeError", "encode_patient", "encode_prefix", "decode_sequence",
           "parse_prefix", "validate_sequence"]


class CodecConfig:
    """No fields: the timeline grammar is fixed. Kept only for the calls in
    perfbench/ that still pass one to prepare_corpus and cohort_prefixes."""


@dataclass(frozen=True)
class TokenSequence:
    """An encoded timeline plus the true day count behind each time token.

    att_days maps token position -> interval days. For [LT] positions it
    stores the real (possibly > 1080) gap when known, which is what the
    time-supervision targets use. Sequences parsed from text fall back to
    reading day counts out of the token surface forms.
    """

    tokens: tuple[str, ...]
    person_id: str | None = None
    att_days: tuple[tuple[int, int], ...] = ()
    hit_max_tokens: bool = False

    def __len__(self):
        return len(self.tokens)

    def att_day_map(self) -> dict[int, int]:
        return dict(self.att_days)


class DecodeError(ValueError):
    """Grammar or range violation while decoding; names the first bad position."""

    def __init__(self, position: int, reason: str, message: str):
        super().__init__(f"position {position}: {message}")
        self.position = position
        self.reason = reason


def encode_patient(record: PatientRecord) -> TokenSequence:
    """Encode a validated record into its token sequence."""
    validate_record(record)
    tokens: list[str] = []
    att_days: list[tuple[int, int]] = []
    first = record.visits[0]
    start_year = first.start_date.year
    tokens.append(f"year:{start_year}")
    tokens.append(f"age:{start_year - record.birth_year}")
    tokens.append(f"gender:{record.gender_concept}")
    tokens.append(f"race:{record.race_concept}")
    for k, visit in enumerate(record.visits):
        tokens.append(VS)
        tokens.append(f"v:{visit.visit_concept_id}")
        inpatient = visit.visit_concept_id in INPATIENT_CONCEPTS
        cursor = visit.start_date
        for e in visit.events:
            if inpatient:
                gap = (e.date - cursor).days
                if gap > 0:
                    att_days.append((len(tokens), gap))
                    tokens.append(f"i-D{gap}")
                    cursor = e.date
            tokens.append(concept_token(e.domain, e.concept_id))
        if inpatient:
            gap = (visit.end_date - cursor).days
            if gap > 0:
                att_days.append((len(tokens), gap))
                tokens.append(f"i-D{gap}")
            tokens.append(f"dis:{visit.discharge_concept_id}")
        tokens.append(VE)
        if k + 1 < len(record.visits):
            gap = max(0, (record.visits[k + 1].start_date - visit.end_date).days)
            att_days.append((len(tokens), gap))
            tokens.append(att_token(gap))
    tokens.append(END)
    return TokenSequence(tuple(tokens), person_id=record.person_id, att_days=tuple(att_days))


def encode_prefix(record: PatientRecord) -> TokenSequence:
    """Encode a record as a generation prompt: same sequence without the [END]."""
    seq = encode_patient(record)
    return replace(seq, tokens=seq.tokens[:-1])


# ---------------------------------------------------------------------------
# decoding


@dataclass
class _VisitBlock:
    visit_concept_id: int
    # items: ("gap", days) | ("event", domain, concept_id) | ("discharge", concept_id)
    items: list = field(default_factory=list)
    has_discharge: bool = False


def _classify(tokens, i):
    try:
        return classify_token(tokens[i])
    except UnknownTokenError as e:
        raise DecodeError(i, "unknown_token", str(e)) from None


def parse_prefix(tokens) -> tuple[int, int, int, int]:
    """(year, age, gender, race) of the 4-token demographic prefix that opens every sequence and prompt."""
    if len(tokens) < 4:
        raise DecodeError(0, "missing_prefix", "sequence shorter than the 4-token demographic prefix")
    prefix = []
    for i, want in enumerate((TokenClass.YEAR, TokenClass.AGE, TokenClass.GENDER, TokenClass.RACE)):
        if _classify(tokens, i) is not want:
            raise DecodeError(i, "bad_prefix", f"expected {want.value} token, got {tokens[i]!r}")
        prefix.append(concept_id_of(tokens[i]))
    return tuple(prefix)


def _parse(tokens):
    """Grammar pass: returns (prefix ints, visit blocks, inter-visit gaps)."""
    n = len(tokens)
    year, age, gender, race = parse_prefix(tokens)

    visits: list[_VisitBlock] = []
    gaps: list[int] = []  # inter-visit gaps, len == len(visits) - 1
    i = 4
    state = "expect_vs"
    block: _VisitBlock | None = None
    while True:
        if i >= n:
            raise DecodeError(n - 1, "truncated", "sequence ended without [END]")
        cls = _classify(tokens, i)
        if state == "expect_vs":
            if cls is not TokenClass.VS:
                raise DecodeError(i, "expected_vs", f"expected [VS], got {tokens[i]!r}")
            block = _VisitBlock(visit_concept_id=-1)
            state = "expect_vt"
        elif state == "expect_vt":
            if cls is not TokenClass.VT:
                raise DecodeError(i, "expected_visit_type", f"expected visit-type token, got {tokens[i]!r}")
            block.visit_concept_id = concept_id_of(tokens[i])
            state = "body"
        elif state == "body":
            inpatient = block.visit_concept_id in INPATIENT_CONCEPTS
            if cls is TokenClass.CONCEPT:
                if block.has_discharge:
                    raise DecodeError(i, "event_after_discharge", "event token after discharge type")
                block.items.append(("event", domain_of_concept_token(tokens[i]), concept_id_of(tokens[i])))
            elif cls is TokenClass.ATT_DAY and tokens[i].startswith("i-D"):
                if not inpatient:
                    raise DecodeError(i, "intra_visit_time_not_allowed", f"{tokens[i]!r} outside an inpatient visit")
                if block.has_discharge:
                    raise DecodeError(i, "event_after_discharge", "time token after discharge type")
                block.items.append(("gap", att_days_of(tokens[i])))
            elif cls is TokenClass.DISCHARGE:
                if not inpatient:
                    raise DecodeError(i, "unexpected_discharge", "discharge type in non-inpatient visit")
                if block.has_discharge:
                    raise DecodeError(i, "duplicate_discharge", "second discharge type in one visit")
                block.items.append(("discharge", concept_id_of(tokens[i])))
                block.has_discharge = True
            elif cls is TokenClass.VE:
                if inpatient and not block.has_discharge:
                    raise DecodeError(i, "missing_discharge", "inpatient visit closed without discharge type")
                visits.append(block)
                block = None
                state = "after_ve"
            elif cls in (TokenClass.ATT_DAY, TokenClass.ATT_LT):
                raise DecodeError(i, "att_inside_visit", f"inter-visit time token {tokens[i]!r} inside a visit")
            else:
                raise DecodeError(i, "unexpected_token_in_visit", f"{tokens[i]!r} not valid inside a visit")
        elif state == "after_ve":
            if cls is TokenClass.END:
                if i != n - 1:
                    raise DecodeError(i + 1, "trailing_tokens", "tokens after [END]")
                return (year, age, gender, race), visits, gaps
            if cls is TokenClass.ATT_LT or (cls is TokenClass.ATT_DAY and not tokens[i].startswith("i-D")):
                gaps.append(att_days_of(tokens[i]))
                state = "expect_vs_after_gap"
            else:
                raise DecodeError(i, "expected_gap_or_end", f"expected time gap or [END] after [VE], got {tokens[i]!r}")
        elif state == "expect_vs_after_gap":
            if cls is not TokenClass.VS:
                raise DecodeError(i, "att_without_following_visit", f"expected [VS] after time gap, got {tokens[i]!r}")
            block = _VisitBlock(visit_concept_id=-1)
            state = "expect_vt"
        i += 1


def validate_sequence(tokens):
    """Grammar check only; raises DecodeError on the first offending position."""
    _parse(tuple(tokens))


def _truncate_to_last_visit(tokens):
    """Drop an unterminated tail: keep through the last [VE] and close with [END]."""
    for i in range(len(tokens) - 1, -1, -1):
        if tokens[i] == VE:
            return tuple(tokens[: i + 1]) + (END,)
    raise DecodeError(len(tokens) - 1, "no_complete_visit", "no complete visit block to salvage")


def decode_sequence(
    seq,
    anchor: dt.date | None = None,
    person_id: str | None = None,
    lenient_tail: bool = False,
) -> PatientRecord:
    """Rebuild a PatientRecord from tokens.

    The representation stores intervals, not absolute dates, so decoding
    anchors the first visit somewhere: at ``anchor`` when given, otherwise at
    January 1 of the year token. Every other date follows from accumulated
    time tokens, so all intervals are preserved exactly for gaps <= 1080
    days; an [LT] gap decodes as LONG_GAP_DAYS, the day count the time
    targets use. With lenient_tail, a sequence cut off by a generation budget is
    truncated back to its last complete visit block.
    """
    tokens = tuple(seq.tokens) if isinstance(seq, TokenSequence) else tuple(seq)
    pid = person_id or (seq.person_id if isinstance(seq, TokenSequence) else None) or "decoded"
    if lenient_tail and (not tokens or tokens[-1] != END):
        tokens = _truncate_to_last_visit(tokens)
    (year, age, gender, race), blocks, gaps = _parse(tokens)

    try:
        cursor = anchor if anchor is not None else dt.date(year, 1, 1)
    except ValueError:
        raise DecodeError(0, "date_range", f"year token out of calendar range: {year}") from None
    birth_year = year - age
    visits = []
    try:
        for k, block in enumerate(blocks):
            start = cursor
            day = start
            events = []
            discharge = None
            for item in block.items:
                if item[0] == "gap":
                    day = day + dt.timedelta(days=item[1])
                elif item[0] == "event":
                    events.append(ClinicalEvent(day, item[1], item[2]))
                else:
                    discharge = item[1]
            end = day if block.visit_concept_id in INPATIENT_CONCEPTS else start
            visits.append(Visit(block.visit_concept_id, start, end, discharge, sorted_events(events)))
            if k < len(gaps):
                cursor = end + dt.timedelta(days=gaps[k])
    except OverflowError:
        raise DecodeError(len(tokens) - 1, "date_range", "accumulated intervals left the calendar range") from None
    record = PatientRecord(pid, birth_year, gender, race, tuple(visits))
    validate_record(record)
    return record
