"""Table-level privacy audit: profiles + attribute split + all four attacks.

The attribute roles follow the attack setting: demographics are the
quasi-identifiers an adversary can link on; keys are demographics plus the
commonest half of the concept bits (information an adversary plausibly
holds); the rarer half are the sensitive bits under inference.
"""
from __future__ import annotations

import numpy as np

from ..codec import EventTables, gc_paused, write_csv
from .attacks import RISK_THRESHOLD, PrivacyReference, PrivacySuiteResult
from .profiles import ProfileSpec, build_profiles

__all__ = ["audit_tables", "write_privacy_csv", "default_attribute_split"]


def default_attribute_split(spec: ProfileSpec):
    """(key_attrs, sensitive_attrs, quasi_identifiers) index arrays for a spec."""
    n_demo = spec.dimension - len(spec.concepts)
    n_concepts = len(spec.concepts)
    half = n_concepts // 2
    quasi = np.arange(n_demo)
    keys = np.concatenate([quasi, n_demo + np.arange(half)])
    sensitive = n_demo + np.arange(half, n_concepts)
    if len(sensitive) == 0:
        raise ValueError("profile spec has too few concept bits to split")
    return keys, sensitive, quasi


@gc_paused
def audit_tables(
    train: EventTables,
    eval_: EventTables,
    synthetic: EventTables,
    top_k_concepts: int = 64,
    seed: int = 0,
    match_tolerance: float = 0.8,
    sample_size: int | None = None,
    key_attrs=None,
    sensitive_attrs=None,
    quasi_identifiers=None,
) -> PrivacySuiteResult:
    spec = ProfileSpec.from_tables(train, top_k_concepts=top_k_concepts)
    keys, sensitive, quasi = default_attribute_split(spec)
    if key_attrs is not None:
        keys = np.asarray(key_attrs, dtype=np.int64)
    if sensitive_attrs is not None:
        sensitive = np.asarray(sensitive_attrs, dtype=np.int64)
    if quasi_identifiers is not None:
        quasi = np.asarray(quasi_identifiers, dtype=np.int64)
    split = tuple(tuple(a.tolist()) for a in (keys, sensitive, quasi))
    reference = train.derived(_reference, eval_, spec, *split)
    return reference.audit(build_profiles(synthetic, spec), seed, match_tolerance, sample_size)


def _reference(train: EventTables, eval_: EventTables, spec: ProfileSpec, keys, sensitive, quasi) -> PrivacyReference:
    """The train/eval side of the audit, kept with the train table set per (eval set, spec, attribute split)."""
    return PrivacyReference(build_profiles(train, spec), build_profiles(eval_, spec), keys, sensitive, quasi)


def write_privacy_csv(path, result: PrivacySuiteResult):
    rows = [[name, score, RISK_THRESHOLD, "PASS" if score < RISK_THRESHOLD else "FAIL"]
            for name, score in result.rows()]
    rows.append(["overall", "", RISK_THRESHOLD, "PASS" if result.passed else "FAIL"])
    write_csv(path, ["attack", "score", "threshold", "verdict"], rows)
