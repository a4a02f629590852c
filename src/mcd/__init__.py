"""Multiresolution cluster detection on regular grids.

Detects spatially clustered signal by combining a per-pixel
multi-scale likelihood-ratio statistic with a neighborhood-variability
threshold rule, alongside FDR and circular scan baselines and a
simulation harness for power studies.
"""

from .baselines import circular_scan, pixel_pvalues, storey_fdr
from .errors import (
    ConfigurationError,
    DegenerateDataError,
    GridParseError,
    InternalInvariantError,
    InvalidInputError,
    McdError,
    NoSignalError,
    UndefinedMetricError,
)
from .grid import Grid
from .gridio import read_grid_csv
from .simulate import SimConfig, run_experiment, theorem_checks
from .stats import ModelSpec
from .threshold import run_detection

__all__ = [
    "ConfigurationError",
    "DegenerateDataError",
    "Grid",
    "GridParseError",
    "InternalInvariantError",
    "InvalidInputError",
    "McdError",
    "ModelSpec",
    "NoSignalError",
    "SimConfig",
    "UndefinedMetricError",
    "circular_scan",
    "pixel_pvalues",
    "read_grid_csv",
    "run_detection",
    "run_experiment",
    "storey_fdr",
    "theorem_checks",
]
