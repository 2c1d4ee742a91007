"""Root-growth feature extraction for labeled 1D signals.

The pipeline: 12 time-domain base features per segment, min-max
normalization, information-gain column ordering, a discrete soil grid,
two smoothing kernel passes, then simulated root growth whose absorption
total (NF) and hull area (RF) become two extra features. Spectral
features, four binary classifiers, and a repeated-split evaluation
harness round out the package.

The top level exports the documented entry points; everything else is
reached through its module (``prs.pipeline``, ``prs.evaluation``, ...).
"""

from .classifiers import CLASSIFIER_KINDS
from .dataset import (
    LabeledDataset,
    SignalSegment,
    generate_synthetic,
    load_dataset,
    write_dataset,
)
from .errors import DatasetError, DegenerateDataError, PrsError
from .evaluation import (
    VARIANTS,
    build_feature_table,
    correlation_matrix,
    run_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "CLASSIFIER_KINDS",
    "LabeledDataset",
    "SignalSegment",
    "generate_synthetic",
    "load_dataset",
    "write_dataset",
    "DatasetError",
    "DegenerateDataError",
    "PrsError",
    "VARIANTS",
    "build_feature_table",
    "correlation_matrix",
    "run_experiment",
    "__version__",
]
