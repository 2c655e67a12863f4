"""Performance observatory: interprets telemetry instead of just storing it.

Four parts layered on the existing report/telemetry plumbing:

* :mod:`~repro.observatory.attribution` — per-resource achieved-vs-peak
  utilization, a roofline-style bottleneck verdict, and an Eq. 2-3 what-if
  sensitivity table.
* :mod:`~repro.observatory.history` — append-only JSONL store of report
  summaries keyed by config fingerprint + git revision.
* :mod:`~repro.observatory.regression` — baseline and noise-band
  comparison with CI-friendly exit codes.
* :mod:`~repro.observatory.slo` — declarative alert rules fired over
  reports, iteration metrics and the metrics registry.
"""

from .attribution import (
    AGGREGATION_RESOURCES,
    CPU_BUFFER_ABSORPTION,
    attribute_summary,
    system_spec_block,
    validate_summary,
)
from .history import (
    DEFAULT_HISTORY_DIR,
    HISTORY_FILE,
    RunHistory,
    RunRecord,
    config_fingerprint,
    git_revision,
    record_from_summary,
)
from .regression import (
    COMPARED_METRICS,
    DEFAULT_SIGMA,
    DEFAULT_THRESHOLD,
    REGRESSION_EXIT_CODE,
    ComparisonResult,
    MetricDelta,
    compare_summaries,
    compare_to_history,
)
from .slo import (
    ALERTS_TRACK,
    OPS,
    SEVERITIES,
    AlertRule,
    SLOMonitor,
    load_alert_rules,
)

__all__ = [
    "AGGREGATION_RESOURCES",
    "ALERTS_TRACK",
    "COMPARED_METRICS",
    "CPU_BUFFER_ABSORPTION",
    "DEFAULT_HISTORY_DIR",
    "DEFAULT_SIGMA",
    "DEFAULT_THRESHOLD",
    "HISTORY_FILE",
    "OPS",
    "REGRESSION_EXIT_CODE",
    "SEVERITIES",
    "AlertRule",
    "ComparisonResult",
    "MetricDelta",
    "RunHistory",
    "RunRecord",
    "SLOMonitor",
    "attribute_summary",
    "compare_summaries",
    "compare_to_history",
    "config_fingerprint",
    "git_revision",
    "load_alert_rules",
    "record_from_summary",
    "system_spec_block",
    "validate_summary",
]
