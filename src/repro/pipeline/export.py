"""Serialize run reports to dictionaries, JSON and CSV.

Benchmark pipelines usually post-process loader measurements elsewhere
(plotting, regression tracking); these helpers flatten a
:class:`~repro.pipeline.metrics.RunReport` into stable, versioned records.

The record's layout is one table, :data:`DOCUMENT`: one row per top-level
key, in output order, with the schema version the key arrived in and the
JSON shape readers rely on.  The writer (:func:`run_document`) walks it,
and so does the one reader gate,
:func:`~repro.observatory.attribution.validate_summary`.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import NamedTuple

from ..errors import PipelineError
from ..telemetry.tracer import Tracer, ensure_tracer
from ..utils import package_version
from .metrics import STAGES, RunReport

#: Bump when the exported record layout changes; a new key also gets a
#: :data:`DOCUMENT` row.
EXPORT_SCHEMA_VERSION = 11

#: A JSON number (``bool`` is never one).
NUMBER = (int, float)
#: A number, or ``null`` where :func:`_finite` dropped a NaN / infinity.
OPT_NUMBER = (int, float, type(None))

#: The ``counters`` block: these :class:`~repro.sim.counters.TransferCounters`
#: fields, in order.
_COUNTER_FIELDS = (
    "storage_requests", "storage_bytes", "cpu_buffer_requests",
    "cpu_buffer_bytes", "gpu_cache_hits", "gpu_cache_bytes", "page_faults",
    "page_cache_hits",
)

#: The ``faults`` block (v10 appended the four storage-HA counters).
_FAULT_FIELDS = (
    "injected_faults", "storage_retries", "latency_spikes",
    "fallback_requests", "fallback_bytes", "fallback_fraction",
    "retry_timeouts", "replica_redirects", "parity_reconstructs",
    "reconstruct_reads", "rebuild_pages",
)


class Block(NamedTuple):
    """One top-level key of the run-report document."""

    name: str
    #: Schema version the key arrived in.
    since: int
    #: The JSON shape readers rely on (see :func:`shape_error`).
    shape: object
    #: Readers refuse a document without it.
    required: bool = False
    #: Only training exports carry it; a serving export has no such key.
    training_only: bool = False


#: The run-report document, in output order.
DOCUMENT = (
    Block("schema_version", 1, int, required=True),
    Block("repro_version", 4, str),
    Block("loader", 1, str, required=True),
    Block("iterations", 1, int, required=True),
    Block("overlapped", 1, bool),
    Block("e2e_seconds", 1, NUMBER),
    Block("seconds_per_iteration", 1, NUMBER),
    Block("stage_seconds", 1, {str: OPT_NUMBER}, required=True),
    Block("counters", 1, dict.fromkeys(_COUNTER_FIELDS, int), required=True),
    Block("faults", 2, {str: OPT_NUMBER}),
    # All-zero with ``consistent: true`` when the layer is off.
    Block("integrity_summary", 5, dict, training_only=True),
    Block("gpu_cache_hit_ratio", 1, NUMBER),
    Block("redirect_fraction", 1, NUMBER),
    Block("effective_aggregation_bandwidth", 1, NUMBER, training_only=True),
    Block("pcie_ingress_bandwidth", 1, NUMBER, training_only=True),
    Block("total_input_nodes", 1, int, training_only=True),
    # CheckpointSummary of a supervised run.
    Block("checkpoint_summary", 3, dict),
    # Tracer.export_block: per-track span seconds and the metrics registry.
    Block("telemetry", 4, dict),
    # Spec snapshot, utilization, bottleneck verdict and what-if table; v7
    # added the capacity row, v10 the degraded-capacity row.  Older exports
    # may carry rows no longer emitted (+CPU buffer, capacity @N GPUs,
    # 2x HBM); readers re-attribute and ignore them.
    Block("attribution", 6, {"specs": dict, "bottleneck": str}),
    # SLOMonitor.evaluate of --alerts rules.
    Block("alerts", 6, dict),
    # ServingReport.to_dict: admission ledger, latency, breakers, brownout.
    Block("serving", 7, dict),
    # ElasticFleetTrainer.fleet_block: per-worker counters and elasticity
    # events.
    Block("fleet", 8, dict, training_only=True),
    # FullGraphTrainer.fullgraph_block: plan, traffic, epoch trajectory
    # (older exports may also carry a ``what_if_2x_hbm`` object, unread).
    Block(
        "fullgraph", 9, {"traffic": {str: OPT_NUMBER}}, training_only=True
    ),
    # StorageHA.summary_block: placement, device health, rebuild progress.
    Block("storage_ha", 10, dict),
    # Tracer.observability_block: snapshot cadence, dropped events, flight
    # recorder state.
    Block("observability", 11, dict),
)

#: The rows a serving export walks.
SERVING_ROWS = tuple(row for row in DOCUMENT if not row.training_only)

_JSON_NAMES = {
    dict: "an object", list: "an array", str: "a string",
    bool: "a boolean", int: "an integer", float: "a number",
    type(None): "null",
}


def shape_error(value, shape, where: str) -> str | None:
    """Why ``value`` does not have ``shape``; ``None`` when it does.

    A shape is a type or a tuple of types (a ``bool`` matches only
    ``bool``), or a dict for a JSON object: each named key must be present
    with its own shape, and the key ``str`` shapes every value.
    """
    if isinstance(shape, dict):
        if not isinstance(value, dict):
            return f"{where} must be an object, got {_json_name(value)}"
        missing = [key for key in shape if key is not str and key not in value]
        if missing:
            return f"{where} is missing keys: {missing}"
        for key, inner in shape.items():
            items = value.items() if key is str else [(key, value[key])]
            for name, item in items:
                problem = shape_error(item, inner, f"{where}.{name}")
                if problem is not None:
                    return problem
        return None
    types = shape if isinstance(shape, tuple) else (shape,)
    if isinstance(value, types) and (
        bool in types or not isinstance(value, bool)
    ):
        return None
    wanted = [t for t in types if not (t is int and float in types)]
    return (
        f"{where} must be "
        f"{' or '.join(_JSON_NAMES[t] for t in wanted)}, "
        f"got {_json_name(value)}"
    )


def _json_name(value) -> str:
    return _JSON_NAMES.get(type(value), type(value).__name__)


def _finite(value: float) -> float | None:
    """Return ``value`` if it is a finite number, else ``None``.

    ``json.dumps`` happily emits ``NaN``/``Infinity`` — tokens that are
    *not* valid JSON and break strict parsers downstream.  Every float
    that could be contaminated (ratios of zero totals, degenerate runs)
    goes through here so the export is always syntactically valid JSON.
    """
    if value is None:
        return None
    value = float(value)
    return value if math.isfinite(value) else None


def run_document(
    traffic,
    rows: tuple,
    blocks: dict,
    *,
    tracer: "Tracer | None" = None,
    system=None,
    **measured,
) -> dict:
    """The versioned run-report document, for every exporter.

    Walks ``rows`` (:data:`DOCUMENT`, or :data:`SERVING_ROWS`).
    ``measured`` are the workload's own entries (loader, timings);
    ``blocks`` are the caller's optional blocks by row name — one with a
    ``to_dict`` is exported as its dict, and a row given neither way is
    ``null``.  This adds the version stamps, the ``counters`` / ``faults``
    blocks and cache/redirect ratios of ``traffic`` (the run's
    :class:`~repro.sim.counters.TransferCounters`), the ``telemetry``
    block of an enabled ``tracer`` and, given the ``system`` the run was
    modeled on, the ``attribution`` block.
    """
    # Local import: the observatory analyzes the dicts this module emits,
    # so the reverse dependency stays off the module level.
    from ..observatory.attribution import attribute_summary, system_spec_block

    tracer = ensure_tracer(tracer)
    faults = {name: getattr(traffic, name) for name in _FAULT_FIELDS}
    faults["fallback_fraction"] = _finite(faults["fallback_fraction"])
    written = {
        **measured,
        "schema_version": EXPORT_SCHEMA_VERSION,
        "repro_version": package_version(),
        "counters": {n: getattr(traffic, n) for n in _COUNTER_FIELDS},
        "faults": faults,
        "gpu_cache_hit_ratio": _finite(traffic.gpu_cache_hit_ratio),
        "redirect_fraction": _finite(traffic.redirect_fraction),
        "telemetry": tracer.export_block() if tracer.enabled else None,
        "attribution": None,
    }
    names = [row.name for row in rows]
    unknown = sorted(
        name for name in blocks if name not in names or name in written
    )
    if unknown:
        takes = [name for name in names if name not in written]
        raise PipelineError(
            f"unknown run-document block(s) {unknown}; this export takes "
            f"{takes}"
        )
    for name, value in blocks.items():
        written[name] = value.to_dict() if hasattr(value, "to_dict") else value
    doc = {name: written.get(name) for name in names}
    if system is not None:
        doc["attribution"] = attribute_summary(doc, system_spec_block(system))
    return doc


def report_to_dict(
    report: RunReport,
    *,
    tracer: "Tracer | None" = None,
    system: "object | None" = None,
    **blocks,
) -> dict:
    """Flatten a run report into a JSON-serializable summary dict.

    ``blocks`` are the optional blocks by :data:`DOCUMENT` row name
    (``checkpoint_summary``, ``alerts``, ``fleet``, ``fullgraph``, ...);
    an absent one exports as ``None``.  An enabled ``tracer`` adds the
    ``telemetry`` block, and the ``system`` the run was modeled on the
    ``attribution`` block, so the saved report is analyzable offline.
    """
    totals = report.stage_totals
    return run_document(
        report.counters,
        DOCUMENT,
        blocks,
        tracer=tracer,
        system=system,
        loader=report.loader_name,
        iterations=report.num_iterations,
        overlapped=report.overlapped,
        e2e_seconds=_finite(report.e2e_time),
        seconds_per_iteration=_finite(report.time_per_iteration()),
        stage_seconds={
            stage: _finite(getattr(totals, stage)) for stage in STAGES
        },
        integrity_summary=report.integrity_summary(),
        effective_aggregation_bandwidth=_finite(
            report.effective_aggregation_bandwidth
        ),
        pcie_ingress_bandwidth=_finite(report.pcie_ingress_bandwidth),
        total_input_nodes=report.total_input_nodes,
    )


def report_to_json(report: RunReport, *, indent: int = 2, **blocks) -> str:
    """JSON rendering of :func:`report_to_dict`, which takes ``blocks``.

    ``allow_nan=False`` guarantees the output is strict JSON: any
    non-finite float that slipped past :func:`_finite` raises here
    instead of silently producing an unparseable document.
    """
    return json.dumps(
        report_to_dict(report, **blocks),
        indent=indent,
        sort_keys=True,
        allow_nan=False,
    )


def reports_to_comparison_csv(reports: list[RunReport]) -> str:
    """One summary row per loader, for side-by-side comparisons."""
    if not reports:
        raise PipelineError("at least one report is required")
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    columns = [
        "loader", "iterations", "e2e_seconds", "seconds_per_iteration",
        "gpu_cache_hit_ratio", "redirect_fraction",
        "effective_aggregation_bandwidth", "storage_requests",
    ]
    writer.writerow(columns)

    def fmt(value: float | None, digits: int) -> str:
        # Non-finite summary values export as an empty cell, mirroring the
        # JSON export's null.
        return "" if value is None else f"{value:.{digits}f}"

    for report in reports:
        summary = report_to_dict(report)
        writer.writerow(
            [
                summary["loader"],
                summary["iterations"],
                fmt(summary["e2e_seconds"], 9),
                fmt(summary["seconds_per_iteration"], 9),
                fmt(summary["gpu_cache_hit_ratio"], 6),
                fmt(summary["redirect_fraction"], 6),
                fmt(summary["effective_aggregation_bandwidth"], 3),
                summary["counters"]["storage_requests"],
            ]
        )
    return buffer.getvalue()
