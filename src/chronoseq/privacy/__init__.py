"""Privacy risk auditing of synthetic corpora."""

from .profiles import ProfileSpec, build_profiles  # noqa: F401
from .attacks import (  # noqa: F401
    RISK_THRESHOLD,
    AttributeResult,
    IdentityResult,
    MembershipResult,
    NnaaResult,
    PrivacyReference,
    PrivacySuiteResult,
    attribute_inference,
    membership_inference,
    nnaa_risk,
)
from .runner import audit_tables, write_privacy_csv, default_attribute_split  # noqa: F401
