"""Telemetry subsystem: modeled-time tracing, metrics, trace export.

The recording pieces (see ``docs/OBSERVABILITY.md``):

* :class:`Tracer` / :class:`Span` — a modeled-time span tracer with one
  lane per modeled resource and per pipeline stage, zero-cost when
  disabled, checkpointable for seamless resumed traces;
* :class:`TraceContext` — causal identity minted per serving request /
  fleet step / sweep step, stamped onto every event recorded while
  active and exported as Chrome-trace flow events;
* :class:`MetricsRegistry` with :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` (fixed log-spaced buckets, p50/p95/p99);
* the track-name registry (:func:`declare_track`, :data:`KNOWN_TRACKS`)
  every lane name is declared in.

The streaming/forensics pieces, sinks a tracer is built with
(``Tracer(flight=..., snapshotter=...)``) and owns:

* :class:`MetricsSnapshotter` — periodic modeled-time registry
  snapshots to JSONL + Prometheus text exposition (``repro top``);
* :class:`FlightRecorder` — bounded ring of recent events dumped as
  ``blackbox.json`` on crash / SLO breach / invariant violation.

And the exporters — Chrome trace-event JSON (``chrome://tracing`` /
Perfetto) with causal flow events, an ASCII lane renderer for
``python -m repro trace``, a single-request causal renderer
(``--request``), and a plain-text per-run summary.
"""

from .context import TraceContext, request_trace_id, step_trace_id
from .flight import BLACKBOX_SCHEMA, FlightRecorder
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .prometheus import (
    parse_prometheus_text,
    prometheus_name,
    to_prometheus_text,
)
from .snapshot import SNAPSHOT_SCHEMA, MetricsSnapshotter, read_snapshots
from .tracer import DETAIL_LEVELS, Instant, Span, Tracer
from .tracks import (
    ALERTS_TRACK,
    BREAKERS_TRACK,
    FLEET_EVENTS_TRACK,
    FULLGRAPH_TRACK,
    HA_TRACK,
    INTEGRITY_TRACK,
    KNOWN_TRACKS,
    SERVING_TRACK,
    STAGE_TRACKS,
    TRACKS,
    declare_track,
    is_known_track,
    require_known_track,
)
from .export import (
    list_trace_ids,
    render_request_trace,
    render_trace,
    summarize,
    summarize_chrome_trace,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)

__all__ = [
    "ALERTS_TRACK",
    "BLACKBOX_SCHEMA",
    "BREAKERS_TRACK",
    "Counter",
    "DETAIL_LEVELS",
    "FLEET_EVENTS_TRACK",
    "FULLGRAPH_TRACK",
    "FlightRecorder",
    "Gauge",
    "HA_TRACK",
    "Histogram",
    "INTEGRITY_TRACK",
    "Instant",
    "KNOWN_TRACKS",
    "MetricsRegistry",
    "MetricsSnapshotter",
    "SERVING_TRACK",
    "SNAPSHOT_SCHEMA",
    "STAGE_TRACKS",
    "Span",
    "TRACKS",
    "TraceContext",
    "Tracer",
    "declare_track",
    "is_known_track",
    "list_trace_ids",
    "parse_prometheus_text",
    "prometheus_name",
    "read_snapshots",
    "render_request_trace",
    "render_trace",
    "request_trace_id",
    "require_known_track",
    "step_trace_id",
    "summarize",
    "summarize_chrome_trace",
    "to_chrome_trace",
    "validate_chrome_trace",
    "write_chrome_trace",
]
