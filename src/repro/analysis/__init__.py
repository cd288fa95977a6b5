"""Statistics and reporting helpers shared by tests and benchmarks."""

from repro.analysis.stats import (
    LinearFit,
    empirical_cdf,
    linear_fit,
    summarize,
)
from repro.analysis.asymmetry import AsymmetryReport, asymmetry_report

__all__ = [
    "LinearFit",
    "linear_fit",
    "empirical_cdf",
    "summarize",
    "AsymmetryReport",
    "asymmetry_report",
]
