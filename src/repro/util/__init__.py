"""Shared utilities: units, seeded RNG streams, statistics, rendering."""

from repro.util.rng import SeedBank, derive_seed
from repro.util.stats import (
    Summary,
    coefficient_of_variation,
    fraction_below,
    fraction_between,
    percent_histogram,
    percentile,
    rms,
    summarize,
)
from repro.util.svg import svg_grouped_bars, svg_histogram, svg_line_chart
from repro.util.tables import render_histogram, render_kv, render_series, render_table
from repro.util.trend import TrendResult, mann_kendall, theil_sen_slope
from repro.util.units import (
    GB,
    HOUR,
    KB,
    MB,
    MINUTE,
    bytes_per_s_to_mbps,
    kb,
    mb,
    mbps_to_bytes_per_s,
)

__all__ = [
    "SeedBank",
    "derive_seed",
    "Summary",
    "summarize",
    "rms",
    "percent_histogram",
    "fraction_between",
    "fraction_below",
    "percentile",
    "coefficient_of_variation",
    "TrendResult",
    "mann_kendall",
    "theil_sen_slope",
    "render_table",
    "svg_histogram",
    "svg_line_chart",
    "svg_grouped_bars",
    "render_histogram",
    "render_series",
    "render_kv",
    "KB",
    "MB",
    "GB",
    "MINUTE",
    "HOUR",
    "kb",
    "mb",
    "mbps_to_bytes_per_s",
    "bytes_per_s_to_mbps",
]
