"""Telemetry: the measurement apparatus behind the paper's Section 2
histograms and the Section 4 code-size study, plus the structured JIT
event tracer ("spew") documented in docs/TRACING.md."""

from repro.telemetry.histograms import (
    CallProfiler,
    histogram,
    percent_histogram,
    type_distribution,
)
from repro.telemetry.codesize import CodeSizeReport
from repro.telemetry.metrics import (
    METRIC_SCHEMA,
    MetricsRegistry,
    empty_payload,
    format_dashboard,
    merge_payloads,
    to_prometheus,
    write_metrics_jsonl,
    write_prometheus,
)
from repro.telemetry.tracing import (
    CHANNELS,
    EVENT_SCHEMA,
    Tracer,
    format_timeline,
    to_chrome_trace,
    to_jsonl,
    write_chrome_trace,
    write_jsonl,
)

__all__ = [
    "CallProfiler",
    "histogram",
    "percent_histogram",
    "type_distribution",
    "CodeSizeReport",
    "METRIC_SCHEMA",
    "MetricsRegistry",
    "empty_payload",
    "format_dashboard",
    "merge_payloads",
    "to_prometheus",
    "write_metrics_jsonl",
    "write_prometheus",
    "CHANNELS",
    "EVENT_SCHEMA",
    "Tracer",
    "format_timeline",
    "to_chrome_trace",
    "to_jsonl",
    "write_chrome_trace",
    "write_jsonl",
]
