"""Post-run analysis of :class:`~repro.runtime.stats.RunStats`.

Turns a run trace into the derived views used by the examples and the
robustness discussion of the paper: stride timelines, update-delay
histograms, accuracy-over-time series, traffic accounting, and an
ASCII line plot for terminal-friendly Figure-4-style output.
"""

from repro.analysis.traces import (
    accuracy_timeline,
    delay_histogram,
    keyframe_intervals,
    stride_timeline,
    traffic_timeline,
    summarize_run,
)
from repro.analysis.ascii_plot import ascii_plot

__all__ = [
    "accuracy_timeline",
    "delay_histogram",
    "keyframe_intervals",
    "stride_timeline",
    "traffic_timeline",
    "summarize_run",
    "ascii_plot",
]
