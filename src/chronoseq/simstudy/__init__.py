"""Time-token vs time-embedding simulation study."""

from .logic import logic_label, handcrafted_forward, handcrafted_activations, LOGIC_DOMAIN  # noqa: F401
from .comparison import (  # noqa: F401
    AccuracyCurve,
    ComparisonResult,
    SimDataset,
    run_comparison,
    sample_dataset,
    write_curves_csv,
)
