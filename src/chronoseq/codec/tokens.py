"""Token surface forms, token classes, and day-interval arithmetic.

Surface forms are all self-describing so that any sequence file or generated
output can be parsed without side tables:

    [PAD] [VS] [VE] [LT] [END]     specials
    D0 .. D1080                    inter-visit gap in days
    i-D{n}                         intra-visit gap inside an inpatient stay
    year:{y} age:{a} gender:{g} race:{r}   demographic prefix
    v:{concept}                    visit-type token
    dis:{concept}                  discharge-type token (inpatient only)
    c:{concept} d:{concept} p:{concept}    condition / drug / procedure events
"""
from __future__ import annotations

import enum
from typing import NamedTuple

__all__ = [
    "TokenClass",
    "TimeTriple",
    "PAD",
    "VS",
    "VE",
    "LT",
    "END",
    "SPECIAL_TOKENS",
    "MAX_ATT_DAYS",
    "LONG_GAP_DAYS",
    "att_token",
    "att_days_of",
    "decompose_interval",
    "recompose_interval",
    "classify_token",
    "concept_token",
    "concept_id_of",
    "UnknownTokenError",
]

PAD = "[PAD]"
VS = "[VS]"
VE = "[VE]"
LT = "[LT]"
END = "[END]"
SPECIAL_TOKENS = (PAD, VS, VE, LT, END)

MAX_ATT_DAYS = 1080  # gaps above this collapse to [LT]
LONG_GAP_DAYS = 1081  # day value assigned to [LT] when a number is required


class TokenClass(enum.Enum):
    YEAR = "YEAR"
    AGE = "AGE"
    GENDER = "GENDER"
    RACE = "RACE"
    VS = "VS"
    VE = "VE"
    VT = "VT"
    DISCHARGE = "DISCHARGE"
    ATT_DAY = "ATT_DAY"
    ATT_LT = "ATT_LT"
    CONCEPT = "CONCEPT"
    END = "END"
    PAD = "PAD"


class TimeTriple(NamedTuple):
    years: int
    months: int
    days: int


class UnknownTokenError(ValueError):
    """Token text does not match any known surface form."""


_DOMAIN_PREFIX = {"condition": "c", "drug": "d", "procedure": "p"}
_PREFIX_DOMAIN = {v: k for k, v in _DOMAIN_PREFIX.items()}

_EXACT = {
    PAD: TokenClass.PAD,
    VS: TokenClass.VS,
    VE: TokenClass.VE,
    LT: TokenClass.ATT_LT,
    END: TokenClass.END,
}

_PREFIXED = {
    "year": TokenClass.YEAR,
    "age": TokenClass.AGE,
    "gender": TokenClass.GENDER,
    "race": TokenClass.RACE,
    "v": TokenClass.VT,
    "dis": TokenClass.DISCHARGE,
    "c": TokenClass.CONCEPT,
    "d": TokenClass.CONCEPT,
    "p": TokenClass.CONCEPT,
}


def att_token(interval_days: int) -> str:
    """Inter-visit time token for a nonnegative day count.

    D{n} for 0 <= n <= 1080 (D0 covers same-day successive visits);
    [LT] for anything longer. Negative input signals corrupted visit
    ordering upstream and is rejected.
    """
    if interval_days < 0:
        raise ValueError(f"negative inter-visit interval: {interval_days}")
    if interval_days > MAX_ATT_DAYS:
        return LT
    return f"D{interval_days}"


def att_days_of(token: str) -> int:
    """Day count represented by a time token ([LT] maps to 1081)."""
    if token == LT:
        return LONG_GAP_DAYS
    if token.startswith("i-D"):
        body = token[3:]
    elif token.startswith("D"):
        body = token[1:]
    else:
        raise UnknownTokenError(f"not a time token: {token!r}")
    if not body.isdigit():
        raise UnknownTokenError(f"not a time token: {token!r}")
    return int(body)


def decompose_interval(interval_days: int) -> TimeTriple:
    """Split a day count into (years, months, days) with 365-day years and 30-day months."""
    if interval_days < 0:
        raise ValueError(f"negative interval: {interval_days}")
    years, rem = divmod(interval_days, 365)
    months, days = divmod(rem, 30)
    return TimeTriple(years, months, days)


def recompose_interval(t: TimeTriple) -> int:
    return 365 * t.years + 30 * t.months + t.days


def classify_token(text: str) -> TokenClass:
    """Token class as a pure function of the surface form."""
    cls = _EXACT.get(text)
    if cls is not None:
        return cls
    if text.startswith("i-D"):
        if text[3:].isdigit() and int(text[3:]) >= 1:
            return TokenClass.ATT_DAY
        raise UnknownTokenError(f"malformed intra-visit token: {text!r}")
    if text.startswith("D") and text[1:].isdigit():
        n = int(text[1:])
        if 0 <= n <= MAX_ATT_DAYS:
            return TokenClass.ATT_DAY
        raise UnknownTokenError(f"day token out of range: {text!r}")
    head, sep, body = text.partition(":")
    if sep and head in _PREFIXED and body.lstrip("-").isdigit():
        return _PREFIXED[head]
    raise UnknownTokenError(f"unrecognized token: {text!r}")


def concept_token(domain: str, concept_id: int) -> str:
    return f"{_DOMAIN_PREFIX[domain]}:{concept_id}"


def concept_id_of(token: str) -> int:
    """Integer id carried by any prefixed token (concept, visit type, demographic)."""
    head, sep, body = token.partition(":")
    if not sep or head not in _PREFIXED:
        raise UnknownTokenError(f"token carries no concept id: {token!r}")
    return int(body)


def domain_of_concept_token(token: str) -> str:
    head, _, _ = token.partition(":")
    if head not in _PREFIX_DOMAIN:
        raise UnknownTokenError(f"not an event concept token: {token!r}")
    return _PREFIX_DOMAIN[head]
