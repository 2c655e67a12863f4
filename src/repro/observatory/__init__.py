"""Performance observatory: interprets telemetry instead of just storing it.

Three parts layered on the existing report/telemetry plumbing:

* :mod:`~repro.observatory.attribution` — per-resource achieved-vs-peak
  utilization, a roofline-style bottleneck verdict, and an Eq. 2-3 what-if
  sensitivity table.
* :mod:`~repro.observatory.regression` — baseline comparison with
  CI-friendly exit codes.
* :mod:`~repro.observatory.slo` — declarative alert rules fired over
  reports, iteration metrics and the metrics registry.
"""

from .attribution import (
    AGGREGATION_RESOURCES,
    attribute_summary,
    system_spec_block,
    validate_summary,
)
from .regression import (
    COMPARED_METRICS,
    DEFAULT_THRESHOLD,
    REGRESSION_EXIT_CODE,
    ComparisonResult,
    MetricDelta,
    compare_summaries,
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
    "DEFAULT_THRESHOLD",
    "OPS",
    "REGRESSION_EXIT_CODE",
    "SEVERITIES",
    "AlertRule",
    "ComparisonResult",
    "MetricDelta",
    "SLOMonitor",
    "attribute_summary",
    "compare_summaries",
    "load_alert_rules",
    "system_spec_block",
    "validate_summary",
]
