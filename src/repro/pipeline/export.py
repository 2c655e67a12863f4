"""Serialize run reports to dictionaries, JSON and CSV.

Benchmark pipelines usually post-process loader measurements elsewhere
(plotting, regression tracking); these helpers flatten a
:class:`~repro.pipeline.metrics.RunReport` into stable, versioned records.
"""

from __future__ import annotations

import csv
import io
import json
import math

from ..errors import PipelineError
from ..telemetry.tracer import Tracer, ensure_tracer
from ..utils import package_version
from .metrics import STAGES, RunReport

#: Bump when the exported record layout changes.
#: v2: added the ``faults`` block and NaN/inf-safe float serialization.
#: v3: added the optional ``checkpoint_summary`` block (supervised runs).
#: v4: added ``repro_version`` and the optional ``telemetry`` block
#:     (traced runs: per-track span seconds and the metrics registry).
#: v5: added the ``integrity_summary`` block (verify-on-read and scrubber
#:     accounting; all-zero with ``consistent: true`` when the layer is
#:     off).
#: v6: added the optional ``attribution`` block (spec snapshot,
#:     per-resource utilization, bottleneck verdict, what-if table; runs
#:     exported with a ``system``) and the optional ``alerts`` block (SLO
#:     evaluation results; runs exported with ``--alerts``).
#: v7: added the optional ``serving`` block (``repro serve`` overload
#:     accounting: offered/admitted/shed/rejected counts, latency
#:     percentiles, breaker and brownout transitions) and the ``capacity``
#:     row of the attribution what-if table.
#: v8: added the optional ``fleet`` block (elastic multi-GPU runs:
#:     per-worker counters, peer-cache hit ratio, rebalance/steal/worker
#:     events, breaker transitions) and the per-fleet-size capacity rows
#:     of the attribution what-if table.
#: v9: added the optional ``fullgraph`` block (``repro fullgraph`` runs:
#:     memory plan, partition edge-cut stats, per-class spill/reload
#:     traffic, epoch loss/accuracy trajectories, 2x-HBM what-if) and the
#:     ``2x HBM`` row of the attribution what-if table for such runs.
#: v10: added the storage-HA counters (``replica_redirects``,
#:     ``parity_reconstructs``, ``reconstruct_reads``, ``rebuild_pages``)
#:     to the ``faults`` block, the optional ``storage_ha`` block
#:     (placement mode, device health states and transitions, rebuild
#:     progress from :meth:`~repro.storage_ha.StorageHA.summary_block`),
#:     and the degraded-capacity rows of the attribution what-if table.
#: v11: added the optional ``observability`` block
#:     (:meth:`~repro.telemetry.Tracer.observability_block`: live
#:     metric-snapshot cadence and file pointers, the tracer's
#:     ``telemetry.dropped_events`` count, and the flight recorder's state
#:     with its last dump trigger).
EXPORT_SCHEMA_VERSION = 11


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


#: Key order of a run-report document; a key a document lacks is skipped
#: (a serving export has no integrity, bandwidth, fleet or full-graph keys).
_DOCUMENT_KEYS = (
    "schema_version", "repro_version", "loader", "iterations", "overlapped",
    "e2e_seconds", "seconds_per_iteration", "stage_seconds", "counters",
    "faults", "integrity_summary", "gpu_cache_hit_ratio",
    "redirect_fraction", "effective_aggregation_bandwidth",
    "pcie_ingress_bandwidth", "total_input_nodes", "checkpoint_summary",
    "telemetry", "attribution", "alerts", "serving", "fleet", "fullgraph",
    "storage_ha", "observability",
)


def run_document(
    counters, *, tracer: "Tracer | None" = None, system=None, **keys
) -> dict:
    """The versioned run-report document, for every exporter.

    ``keys`` are the workload's own entries (loader, timings, optional
    blocks); this adds the version stamps, the ``counters`` / ``faults``
    blocks and cache/redirect ratios of ``counters``, the ``telemetry``
    block of an enabled ``tracer`` and, given the ``system`` the run was
    modeled on, the ``attribution`` block.  Keys come out in
    :data:`_DOCUMENT_KEYS` order.
    """
    # Local import: the observatory analyzes the dicts this module emits,
    # so the reverse dependency stays off the module level.
    from ..observatory.attribution import attribute_summary, system_spec_block

    tracer = ensure_tracer(tracer)
    doc = {
        **keys,
        "schema_version": EXPORT_SCHEMA_VERSION,
        "repro_version": package_version(),
        "counters": {
            "storage_requests": counters.storage_requests,
            "storage_bytes": counters.storage_bytes,
            "cpu_buffer_requests": counters.cpu_buffer_requests,
            "cpu_buffer_bytes": counters.cpu_buffer_bytes,
            "gpu_cache_hits": counters.gpu_cache_hits,
            "gpu_cache_bytes": counters.gpu_cache_bytes,
            "page_faults": counters.page_faults,
            "page_cache_hits": counters.page_cache_hits,
        },
        "faults": {
            "injected_faults": counters.injected_faults,
            "storage_retries": counters.storage_retries,
            "latency_spikes": counters.latency_spikes,
            "fallback_requests": counters.fallback_requests,
            "fallback_bytes": counters.fallback_bytes,
            "fallback_fraction": _finite(counters.fallback_fraction),
            "retry_timeouts": counters.retry_timeouts,
            "replica_redirects": counters.replica_redirects,
            "parity_reconstructs": counters.parity_reconstructs,
            "reconstruct_reads": counters.reconstruct_reads,
            "rebuild_pages": counters.rebuild_pages,
        },
        "gpu_cache_hit_ratio": _finite(counters.gpu_cache_hit_ratio),
        "redirect_fraction": _finite(counters.redirect_fraction),
        "telemetry": tracer.export_block() if tracer.enabled else None,
        "attribution": None,
    }
    doc = {key: doc[key] for key in _DOCUMENT_KEYS if key in doc}
    if system is not None:
        doc["attribution"] = attribute_summary(doc, system_spec_block(system))
    return doc


def report_to_dict(
    report: RunReport,
    *,
    checkpoint_summary: "object | None" = None,
    tracer: "Tracer | None" = None,
    system: "object | None" = None,
    alerts: "dict | None" = None,
    serving: "dict | None" = None,
    fleet: "dict | None" = None,
    fullgraph: "dict | None" = None,
    storage_ha: "dict | None" = None,
    observability: "dict | None" = None,
) -> dict:
    """Flatten a run report into a JSON-serializable summary dict.

    Args:
        report: the measured run.
        checkpoint_summary: optional
            :class:`~repro.checkpoint.supervisor.CheckpointSummary` (or a
            plain dict) from a supervised run; exported as the
            ``checkpoint_summary`` block.  ``None`` (unsupervised runs)
            exports the block as ``None`` so the schema stays uniform.
        tracer: optional :class:`~repro.telemetry.Tracer` whose
            :meth:`~repro.telemetry.Tracer.export_block` becomes the
            ``telemetry`` block; a disabled or absent one (untraced runs)
            exports the block as ``None``.
        system: optional :class:`~repro.config.SystemConfig` the run was
            modeled on; when given, the export embeds the ``attribution``
            block (spec snapshot, per-resource utilization, bottleneck
            verdict and what-if table) so the saved report is analyzable
            offline.  ``None`` exports the block as ``None``.
        alerts: optional ``alerts`` summary block from
            :meth:`~repro.observatory.slo.SLOMonitor.evaluate`; ``None``
            (no SLO evaluation) exports the block as ``None``.
        serving: optional ``serving`` block from
            :meth:`~repro.serving.report.ServingReport.to_dict`; ``None``
            (training runs) exports the block as ``None``.
        fleet: optional ``fleet`` block from
            :meth:`~repro.core.fleet.FleetResult.fleet_block` (elastic
            multi-GPU runs: per-worker counters, peer-cache hit ratio,
            rebalance/steal/worker events, breaker transitions); ``None``
            (single-GPU runs) exports the block as ``None``.
        fullgraph: optional ``fullgraph`` block from
            :meth:`~repro.fullgraph.FullGraphTrainer.fullgraph_block`
            (partition-sweep runs: memory plan, edge-cut stats,
            spill/reload traffic, epoch trajectories, 2x-HBM what-if);
            ``None`` (mini-batch runs) exports the block as ``None``.
        storage_ha: optional ``storage_ha`` block from
            :meth:`~repro.storage_ha.StorageHA.summary_block` (redundant
            runs: placement mode, device health states/transitions,
            rebuild progress); ``None`` (no redundancy) exports the
            block as ``None``.
        observability: optional ``observability`` block from
            :meth:`~repro.telemetry.Tracer.observability_block`
            (streamed/flight-recorded runs: snapshot cadence and file
            pointers, dropped-event count, flight-recorder state); ``None``
            exports the block as ``None``.
    """
    totals = report.stage_totals
    if hasattr(checkpoint_summary, "to_dict"):
        checkpoint_summary = checkpoint_summary.to_dict()
    return run_document(
        report.counters,
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
        checkpoint_summary=checkpoint_summary,
        alerts=alerts,
        serving=serving,
        fleet=fleet,
        fullgraph=fullgraph,
        storage_ha=storage_ha,
        observability=observability,
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


#: Column order of the per-iteration CSV export.
_CSV_COLUMNS = (
    "iteration",
    "sampling_s",
    "aggregation_s",
    "transfer_s",
    "training_s",
    "num_seeds",
    "num_input_nodes",
    "num_sampled",
    "num_edges",
    "storage_requests",
    "cpu_buffer_requests",
    "gpu_cache_hits",
    "page_faults",
)


def iterations_to_csv(report: RunReport) -> str:
    """Per-iteration CSV (one row per measured training iteration)."""
    if not report.iterations:
        raise PipelineError("run report holds no iterations")
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(_CSV_COLUMNS)
    for index, it in enumerate(report.iterations):
        writer.writerow(
            [
                index,
                f"{it.times.sampling:.9f}",
                f"{it.times.aggregation:.9f}",
                f"{it.times.transfer:.9f}",
                f"{it.times.training:.9f}",
                it.num_seeds,
                it.num_input_nodes,
                it.num_sampled,
                it.num_edges,
                it.counters.storage_requests,
                it.counters.cpu_buffer_requests,
                it.counters.gpu_cache_hits,
                it.counters.page_faults,
            ]
        )
    return buffer.getvalue()


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
