"""Representation, metric, and fidelity evaluation utilities."""

from .metrics import auroc, auprc, BootstrapResult, bootstrap_metric, write_metrics_csv  # noqa: F401
from .logistic import LogisticModel, fit_logistic  # noqa: F401
from .probe import ProbeResult, linear_probe  # noqa: F401
from .fidelity import (  # noqa: F401
    CohortSpec,
    PathwayResult,
    PrevalenceRow,
    pathway_cohort,
    prevalence_report,
    write_prevalence_csv,
)
from .cohorts import truncate_record, load_cohort_csv, cohort_prefixes  # noqa: F401
