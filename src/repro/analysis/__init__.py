"""Analysis helpers: metrics, distributions and plain-text rendering."""

from repro.analysis.metrics import (
    harmonic_mean,
    geometric_mean,
    speedup,
    relative_series,
    percent_change,
)
from repro.analysis.distributions import (
    cumulative_distribution,
    average_cdfs,
    percentile_from_cdf,
)
from repro.analysis.tables import format_table, format_series, format_figure

__all__ = [
    "harmonic_mean",
    "geometric_mean",
    "speedup",
    "relative_series",
    "percent_change",
    "cumulative_distribution",
    "average_cdfs",
    "percentile_from_cdf",
    "format_table",
    "format_series",
    "format_figure",
]
