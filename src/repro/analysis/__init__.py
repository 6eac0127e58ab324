"""Security and performance analysis: leakage (k distinct victim views
over a set of co-runner worlds leak log2 k bits), covert channels,
metrics."""

from .leakage import (
    InterferenceReport,
    VictimView,
    count_views,
    figure4_profiles,
    interference_report,
    victim_view,
)
from .bandwidth import (
    LoadPoint,
    bandwidth_latency_curve,
    measure_load_point,
    saturation_bandwidth,
)
from .covert import (
    CovertChannelResult,
    run_covert_channel,
    threshold_decode,
    window_latency_means,
)
from .exhaustive import ExhaustiveReport, exhaustive_noninterference
from .metrics import (
    SchemeSummary,
    arithmetic_mean,
    geometric_mean,
    normalized,
    sum_weighted_ipc,
)
from .report import format_comparison, format_series, format_table

__all__ = [
    "LoadPoint", "bandwidth_latency_curve", "measure_load_point",
    "saturation_bandwidth",
    "InterferenceReport", "VictimView", "count_views",
    "figure4_profiles", "interference_report", "victim_view",
    "CovertChannelResult", "run_covert_channel",
    "threshold_decode", "window_latency_means",
    "ExhaustiveReport", "exhaustive_noninterference",
    "SchemeSummary", "arithmetic_mean", "geometric_mean",
    "normalized", "sum_weighted_ipc",
    "format_comparison", "format_series", "format_table",
]
