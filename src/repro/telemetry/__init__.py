"""Unified telemetry: metrics registry, trace export, run spans.

The observability layer for the whole simulation stack.  One
:class:`TelemetrySession` attaches to a controller and streams every
slot grant, DRAM command, fault strike, and invariant violation into
its two surfaces, a deterministic :class:`MetricsRegistry` and an
optional cycle-accurate :class:`TraceCollector`; after the run, the
legacy stat structs are harvested into the same registry
(:mod:`repro.telemetry.compat`), and the timeline can be exported as
Chrome trace-event JSON (:func:`export_chrome_trace`) for Perfetto.  A
:class:`SpanTracer` belongs to the driver, never the controller: it
records the run/phase/epoch span tree and the run's wall time, so
tracing never changes the code path a run takes.

Design rules:

* **inert when absent** — controllers guard each hook behind one
  ``is None`` check; a run without a session allocates nothing;
* **passive when present** — collection never feeds back into any
  simulated observable, so enabling telemetry cannot perturb a run;
* **deterministic** — :meth:`MetricsRegistry.snapshot` excludes every
  wall-clock-derived (volatile) metric and sorts everything else, so
  the fast and reference engines produce byte-identical snapshots
  (pinned by ``tests/test_differential.py``).
"""

from .chrome import (
    chrome_trace_dict,
    export_chrome_trace,
    export_span_trace,
    write_trace_dict,
)
from .collector import TraceCollector, TraceEvent, open_sink
from .compat import harvest_run
from .html_report import render_report, write_report
from .log import configure, get_logger, get_run_id, set_run_id
from .registry import (
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    Metric,
    MetricsRegistry,
    parse_prometheus_text,
)
from .report import (
    certification_report,
    histogram_report,
    histogram_to_registry,
    inter_service_histogram,
    is_degenerate,
)
from .session import KIND_NAMES, TelemetrySession
from .spans import (
    EPOCH_CYCLES,
    SpanRecord,
    SpanTracer,
    scrub_volatile_args,
    spans_to_events,
)

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "EPOCH_CYCLES",
    "Gauge",
    "Histogram",
    "KIND_NAMES",
    "Metric",
    "MetricsRegistry",
    "SpanRecord",
    "SpanTracer",
    "TelemetrySession",
    "TraceCollector",
    "TraceEvent",
    "certification_report",
    "chrome_trace_dict",
    "configure",
    "export_chrome_trace",
    "export_span_trace",
    "get_logger",
    "get_run_id",
    "harvest_run",
    "histogram_report",
    "histogram_to_registry",
    "inter_service_histogram",
    "is_degenerate",
    "open_sink",
    "parse_prometheus_text",
    "render_report",
    "scrub_volatile_args",
    "set_run_id",
    "spans_to_events",
    "write_report",
    "write_trace_dict",
]
