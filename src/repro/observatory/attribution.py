"""Bottleneck attribution: achieved-vs-peak utilization and what-if analysis.

The paper's core argument is a resource-balancing one: epoch time is governed
by whichever of SSD IOPS, PCIe ingress bandwidth, the CPU-buffer path, or GPU
cache service is the binding constraint (Figs. 5, 8-12), and GIDS wins by
shifting load between those resources.  This module turns a run-report export
into that analysis:

* **Utilization** — for each modeled resource, the rate the run actually
  achieved during its aggregation phase (straight from
  :class:`~repro.sim.counters.TransferCounters`) divided by the peak the sim
  specs allow.  A roofline-style verdict names the binding bottleneck.
* **What-if sensitivity** — the Eq. 2-3 analytic SSD model
  (:class:`~repro.sim.ssd.SSDArray`) plus the PCIe link-sharing formula
  predict how epoch time would move for +1 SSD, a larger constant CPU buffer,
  and a deeper look-ahead window.

Everything operates on the plain-dict summaries produced by
:func:`repro.pipeline.export.report_to_dict`, so the analysis works equally
on a live :class:`~repro.pipeline.metrics.RunReport` (via the export path)
and on a report JSON loaded from disk (``repro analyze``).
"""

from __future__ import annotations

import math

from ..config import SSDSpec, SystemConfig
from ..errors import ObservatoryError
from ..sim.pcie import PCIeLink
from ..sim.ssd import SSDArray, contended_ssd

#: Resources attributed over the aggregation phase, in display order.
AGGREGATION_RESOURCES = ("ssd", "pcie", "cpu.buffer", "gpu.hbm")

#: Fraction of storage reads the "+CPU buffer" what-if assumes the enlarged
#: hot set absorbs.  The report alone cannot say how much of the access
#: distribution's tail extra capacity would capture, so the scenario is a
#: sensitivity probe at a fixed, documented absorption, not a fit.
CPU_BUFFER_ABSORPTION = 0.25

#: Fraction of one GPU's storage reads the fleet what-if assumes a peer's
#: private cache already holds (partition-aware shards make neighboring
#: seeds land together, so workers share hot neighborhoods).  Like
#: :data:`CPU_BUFFER_ABSORPTION`, a documented sensitivity constant — the
#: measured ratio of a real fleet run lives in its ``fleet`` export block.
PEER_CACHE_ABSORPTION = 0.35

#: Data-parallel widths the fleet what-if rows are computed for.
FLEET_WHAT_IF_SIZES = (2, 4, 8)

#: Shape of every spec block (the export embeds one so a saved report
#: stays analyzable without the original :class:`SystemConfig`): the SSD's
#: name, then numbers.
_SPECS = {
    "ssd": str,
    **dict.fromkeys(
        (
            "ssd_read_latency_s",
            "ssd_peak_iops",
            "page_bytes",
            "num_ssds",
            "pcie_bandwidth",
            "cpu_path_efficiency",
            "hbm_bandwidth",
            "training_consumption_rate",
        ),
        (int, float),
    ),
}


def system_spec_block(system: SystemConfig) -> dict:
    """Flatten the peak-rate specs attribution needs into a JSON block.

    ``ssd_peak_iops`` is per device; collective peaks are derived from
    ``num_ssds`` so the what-if scenarios can re-solve Eq. 2-3 for a
    different array width.
    """
    link = PCIeLink(system.pcie)
    return {
        "ssd": system.ssd.name,
        "ssd_read_latency_s": system.ssd.read_latency_s,
        "ssd_peak_iops": system.ssd.peak_iops,
        "page_bytes": system.ssd.page_bytes,
        "num_ssds": system.num_ssds,
        "pcie_bandwidth": system.pcie.bandwidth_bytes,
        "cpu_path_efficiency": link.cpu_path_efficiency,
        "hbm_bandwidth": system.gpu.hbm_bandwidth,
        "training_consumption_rate": system.gpu.training_consumption_rate,
    }


def validate_summary(summary: object) -> dict:
    """Check that ``summary`` is a run-report export; return it.

    Walks the document table (:data:`repro.pipeline.export.DOCUMENT`):
    raises :class:`~repro.errors.ObservatoryError` on anything but an
    object with a schema version no newer than this code's, every
    required key and every present, non-null block in its row's shape.
    Used by every CLI analysis entry point so malformed inputs exit with
    a one-line message instead of a traceback.
    """
    # Local import: pipeline.export imports this module for the
    # ``attribution`` block, so the reverse import must stay off the
    # module level.
    from ..pipeline.export import DOCUMENT, EXPORT_SCHEMA_VERSION, shape_error

    if not isinstance(summary, dict):
        raise ObservatoryError(
            f"expected a run-report object, got {type(summary).__name__}"
        )
    version = summary.get("schema_version")
    if not isinstance(version, int) or isinstance(version, bool):
        raise ObservatoryError(
            "input is not a run-report export (no schema_version)"
        )
    if version > EXPORT_SCHEMA_VERSION:
        raise ObservatoryError(
            f"report schema_version {version} is newer than the supported "
            f"{EXPORT_SCHEMA_VERSION}; upgrade repro to analyze it"
        )
    missing = [
        row.name
        for row in DOCUMENT
        if row.required and summary.get(row.name) is None
    ]
    if missing:
        raise ObservatoryError(
            f"report export is missing required keys: {missing}"
        )
    for row in DOCUMENT:
        value = summary.get(row.name)
        problem = value is not None and shape_error(value, row.shape, row.name)
        if problem:
            raise ObservatoryError(f"malformed report export: {problem}")
    return summary


def _validate_specs(specs: dict) -> dict:
    from ..pipeline.export import shape_error

    problem = shape_error(specs, _SPECS, "spec block")
    if problem is not None:
        raise ObservatoryError(problem)
    return specs


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _finite(value: float | None) -> float | None:
    if value is None:
        return None
    value = float(value)
    return value if math.isfinite(value) else None


def _combine_e2e(prep_s: float, train_s: float, overlapped: bool) -> float:
    """End-to-end time rule shared with :class:`RunReport.e2e_time`."""
    return max(prep_s, train_s) if overlapped else prep_s + train_s


def _ssd_array(specs: dict, num_ssds: int) -> SSDArray:
    spec = SSDSpec(
        name=str(specs["ssd"]),
        read_latency_s=float(specs["ssd_read_latency_s"]),
        peak_iops=float(specs["ssd_peak_iops"]),
        page_bytes=int(specs["page_bytes"]),
    )
    return SSDArray(spec, num_ssds)


def attribute_summary(summary: dict, specs: dict) -> dict:
    """Compute the full attribution block for one run-report summary.

    Returns a JSON-ready dict with the spec snapshot, per-resource
    achieved/peak/utilization numbers, stage fractions, the binding
    bottleneck with a one-line verdict, and the what-if table.
    """
    validate_summary(summary)
    _validate_specs(specs)
    stage = summary["stage_seconds"]
    resources = _resources(summary, specs)
    bottleneck, verdict = _verdict(summary, stage, resources)
    return {
        "specs": dict(specs),
        "resources": resources,
        "stage_fractions": _stage_fractions(stage),
        "bottleneck": bottleneck,
        "verdict": verdict,
        "what_if": _what_if_rows(summary, specs, resources),
    }


def _resources(summary: dict, specs: dict) -> dict:
    """Achieved / peak / utilization per resource, over the run's
    aggregation (training for ``gpu.training``) seconds."""
    counters = summary["counters"]
    faults = summary.get("faults") or {}
    stage = summary["stage_seconds"]
    agg_s = float(stage.get("aggregation") or 0.0)
    train_s = float(stage.get("training") or 0.0)
    fallback_bytes = int(faults.get("fallback_bytes") or 0)

    storage_requests = int(counters["storage_requests"])
    storage_bytes = int(counters["storage_bytes"])
    cpu_bytes = int(counters["cpu_buffer_bytes"]) + fallback_bytes
    hbm_bytes = int(counters["gpu_cache_bytes"])
    ingress_bytes = storage_bytes + cpu_bytes

    num_ssds = int(specs["num_ssds"])
    peak_iops = float(specs["ssd_peak_iops"]) * num_ssds
    pcie_bw = float(specs["pcie_bandwidth"])
    cpu_path_bw = pcie_bw * float(specs["cpu_path_efficiency"])
    hbm_bw = float(specs["hbm_bandwidth"])
    train_rate = float(specs["training_consumption_rate"])

    total_input_nodes = int(summary.get("total_input_nodes") or 0)
    resources = {
        "ssd": {
            "achieved": _ratio(storage_requests, agg_s),
            "peak": peak_iops,
            "unit": "IOPS",
        },
        "pcie": {
            "achieved": _ratio(ingress_bytes, agg_s),
            "peak": pcie_bw,
            "unit": "B/s",
        },
        "cpu.buffer": {
            "achieved": _ratio(cpu_bytes, agg_s),
            "peak": cpu_path_bw,
            "unit": "B/s",
        },
        "gpu.hbm": {
            "achieved": _ratio(hbm_bytes, agg_s),
            "peak": hbm_bw,
            "unit": "B/s",
        },
        "gpu.training": {
            "achieved": _ratio(total_input_nodes, train_s),
            "peak": train_rate,
            "unit": "req/s",
        },
    }
    for entry in resources.values():
        entry["utilization"] = _ratio(entry["achieved"], entry["peak"])
    return resources


def _stage_fractions(stage: dict) -> dict:
    total = sum(float(stage.get(s) or 0.0) for s in stage)
    if total <= 0:
        return {name: 0.0 for name in stage}
    return {
        name: float(stage.get(name) or 0.0) / total for name in stage
    }


def _verdict(
    summary: dict, stage: dict, resources: dict
) -> tuple[str, str]:
    """Name the binding bottleneck and phrase the roofline verdict.

    The training and sampling stages run at their modeled rates by
    construction (utilization is 1.0 whenever they run at all), so the
    stage breakdown decides *which phase* binds, and the achieved-vs-peak
    ratios decide *which resource* within the aggregation phase.
    """
    sampling_s = float(stage.get("sampling") or 0.0)
    agg_s = float(stage.get("aggregation") or 0.0)
    transfer_s = float(stage.get("transfer") or 0.0)
    train_s = float(stage.get("training") or 0.0)
    prep_s = sampling_s + agg_s + transfer_s
    overlapped = bool(summary.get("overlapped"))

    if prep_s == 0.0 and train_s == 0.0:
        return "idle", "run recorded no modeled time"
    if overlapped and train_s >= prep_s:
        return (
            "gpu.training",
            "training-bound: data preparation overlaps and keeps up "
            f"(prep {prep_s:.4g}s <= training {train_s:.4g}s); faster "
            "storage would not shorten the epoch",
        )
    fullgraph = summary.get("fullgraph")
    if fullgraph and not (train_s >= prep_s and train_s > 0.0):
        # Partition-sweep runs stream features and spilled activations on
        # the sequential path; when that streaming dominates compute the
        # roofline answer is bandwidth (or HBM), not random IOPS — and it
        # outranks the generic stage dispatch, because halo gathers and
        # sequential streams are one data path in the sweep.
        traffic = fullgraph.get("traffic") or {}
        seq_s = (
            float(traffic.get("feature_sequential_s") or 0.0)
            + float(traffic.get("activation_reload_s") or 0.0)
            + float(traffic.get("activation_halo_s") or 0.0)
            + float(traffic.get("activation_spill_s") or 0.0)
        )
        compute_s = float(traffic.get("compute_s") or 0.0)
        if seq_s >= compute_s:
            return (
                "ssd.sequential",
                "sequential-read-bound: partition sweeps spend "
                f"{seq_s:.4g}s streaming features and spilled activations "
                f"vs {compute_s:.4g}s of sweep compute; more HBM (fewer "
                "spills) or faster sequential bandwidth shortens the epoch",
            )
    if not overlapped and train_s >= prep_s and train_s > 0.0:
        dominant_stage = "training"
    else:
        dominant_stage = max(
            ("sampling", "aggregation", "transfer"),
            key=lambda name: float(stage.get(name) or 0.0),
        )
    if dominant_stage == "training":
        return (
            "gpu.training",
            "training-bound: the serialized pipeline spends "
            f"{train_s:.4g}s of its time in model training",
        )
    if dominant_stage == "sampling":
        return (
            "gpu.sampling",
            "sampling-bound: graph sampling dominates data preparation "
            f"({sampling_s:.4g}s vs {agg_s:.4g}s aggregation)",
        )
    if dominant_stage == "transfer":
        return (
            "pcie",
            "transfer-bound: the explicit host-to-GPU copy stage "
            f"dominates ({transfer_s:.4g}s)",
        )
    name = max(
        AGGREGATION_RESOURCES,
        key=lambda r: resources[r]["utilization"],
    )
    entry = resources[name]
    return (
        name,
        f"{name}-bound: aggregation dominates and {name} runs at "
        f"{entry['utilization']:.1%} of its peak "
        f"({entry['achieved']:.4g} of {entry['peak']:.4g} {entry['unit']})",
    )


def what_if_table(summary: dict, specs: dict) -> list[dict]:
    """Predict epoch-time deltas for the paper's three balancing levers.

    Each scenario re-solves the Eq. 2-3 analytic SSD service model and the
    PCIe link-sharing formula at per-iteration granularity, then scales the
    *measured* aggregation time by the predicted ratio — so a scenario that
    leaves the model inputs unchanged predicts exactly the measured run.

    Scenarios:

    * ``+1 SSD`` — one more device striped into the array (collective peak
      IOPS and bandwidth grow, Eq. 2-3 steady state shortens).
    * ``+CPU buffer`` — the enlarged hot set absorbs
      :data:`CPU_BUFFER_ABSORPTION` of storage reads onto the CPU path.
    * ``2x window depth`` — a deeper look-ahead window lets the accumulator
      merge twice the iterations per storage kernel, halving the per-
      iteration share of the fixed T_i/T_t phases.
    * ``capacity`` — not a change at all but a headroom read-out: the max
      sustainable feature-request rate at the current bottleneck resource
      (achieved request rate divided by the bottleneck's utilization), the
      number that answers "how many req/s before this array saturates?".
      Its predicted times equal the measured run (delta 0) and it carries
      the extra ``max_sustainable_req_s``/``bottleneck`` keys.
    * ``capacity @{n} GPUs`` — one row per :data:`FLEET_WHAT_IF_SIZES`
      width: the epoch re-solved for ``n`` data-parallel GPUs sharing the
      SSD array (work / ``n``, per-GPU IOPS peak / ``n``), plus a
      peer-cache variant (:data:`PEER_CACHE_ABSORPTION` of storage reads
      served from peer caches) — the "would another GPU help, or do I
      need another SSD?" answer.
    * ``degraded capacity (1 SSD down)`` — the epoch re-solved with one
      device of the array gone: the redundant prediction keeps every
      read on storage (surviving replicas), the ``no_redundancy``
      variant sends the dead device's striping share to the CPU mirror;
      their gap is what the redundancy overhead buys during an outage.
    """
    validate_summary(summary)
    _validate_specs(specs)
    return _what_if_rows(summary, specs, _resources(summary, specs))


def _prediction(agg_s: float | None, e2e_s: float, base_e2e: float) -> dict:
    """The predicted-time columns of a what-if row, against the run's
    measured ``base_e2e``."""
    delta = e2e_s - base_e2e
    return {
        "predicted_aggregation_seconds": _finite(agg_s),
        "predicted_e2e_seconds": _finite(e2e_s),
        "delta_seconds": _finite(delta),
        "delta_fraction": _finite(delta / base_e2e if base_e2e > 0 else 0.0),
    }


def _what_if_rows(summary: dict, specs: dict, resources: dict) -> list[dict]:
    """:func:`what_if_table` of a validated summary whose
    :func:`_resources` are ``resources``."""
    iterations = int(summary["iterations"])
    stage = summary["stage_seconds"]
    sampling_s = float(stage.get("sampling") or 0.0)
    agg_s = float(stage.get("aggregation") or 0.0)
    transfer_s = float(stage.get("transfer") or 0.0)
    train_s = float(stage.get("training") or 0.0)
    overlapped = bool(summary.get("overlapped"))
    if iterations <= 0 or agg_s <= 0.0:
        return []

    counters = summary["counters"]
    faults = summary.get("faults") or {}
    page_bytes = int(specs["page_bytes"])
    pages = int(counters["storage_requests"]) / iterations
    storage_bytes = int(counters["storage_bytes"]) / iterations
    cpu_bytes = (
        int(counters["cpu_buffer_bytes"])
        + int(faults.get("fallback_bytes") or 0)
    ) / iterations
    hbm_bytes = int(counters["gpu_cache_bytes"]) / iterations

    pcie_bw = float(specs["pcie_bandwidth"])
    cpu_path_bw = pcie_bw * float(specs["cpu_path_efficiency"])
    hbm_bw = float(specs["hbm_bandwidth"])
    num_ssds = int(specs["num_ssds"])
    base_array = _ssd_array(specs, num_ssds)

    def predict(
        array: SSDArray,
        n_pages: float,
        s_bytes: float,
        c_bytes: float,
        merge: float = 1.0,
    ) -> float:
        """Per-iteration aggregation time from the analytic models."""
        n_merged = int(round(n_pages * merge))
        storage_time = array.batch_service_time(max(n_merged, 0)) / merge
        cpu_time = c_bytes / cpu_path_bw
        link_floor = (s_bytes + c_bytes) / pcie_bw
        return max(storage_time, cpu_time, link_floor) + hbm_bytes / hbm_bw

    base_pred = predict(base_array, pages, storage_bytes, cpu_bytes)
    base_e2e = _combine_e2e(
        sampling_s + agg_s + transfer_s, train_s, overlapped
    )

    def scaled(pred: float) -> tuple[float, float]:
        """``(aggregation, e2e)`` seconds with the measured aggregation
        scaled by ``pred`` over the base prediction."""
        new_agg = agg_s * (pred / base_pred if base_pred > 0 else 1.0)
        return new_agg, _combine_e2e(
            sampling_s + new_agg + transfer_s, train_s, overlapped
        )

    moved = CPU_BUFFER_ABSORPTION * pages
    scenarios = [
        (
            "+1 SSD",
            f"grow the array from {num_ssds} to {num_ssds + 1} devices",
            predict(
                _ssd_array(specs, num_ssds + 1),
                pages,
                storage_bytes,
                cpu_bytes,
            ),
        ),
        (
            "+CPU buffer",
            f"grow the hot set to absorb {CPU_BUFFER_ABSORPTION:.0%} of "
            "storage reads onto the CPU path",
            predict(
                base_array,
                pages - moved,
                storage_bytes - moved * page_bytes,
                cpu_bytes + moved * page_bytes,
            ),
        ),
        (
            "2x window depth",
            "merge twice the iterations per storage kernel (amortizes "
            "T_init/T_term)",
            predict(base_array, pages, storage_bytes, cpu_bytes, merge=2.0),
        ),
    ]
    table = [
        {
            "scenario": name,
            "description": description,
            **_prediction(*scaled(pred), base_e2e),
        }
        for name, description, pred in scenarios
    ]

    # Full-graph sweep runs carry their own memory-wall lever: the trainer
    # re-plans the sweep at double the HBM budget and re-prices activation
    # spill/reload at HBM bandwidth when the doubled budget makes them
    # resident.  The row surfaces that prediction next to the paper's
    # balancing levers.
    fullgraph = summary.get("fullgraph")
    if fullgraph:
        what_if_hbm = fullgraph.get("what_if_2x_hbm") or {}
        pred_e2e = what_if_hbm.get("predicted_e2e_seconds")
        if pred_e2e is not None:
            resident = bool(what_if_hbm.get("activations_resident"))
            table.append(
                {
                    "scenario": "2x HBM",
                    "description": (
                        "double the modeled HBM budget; "
                        + (
                            "activations become resident (spill/reload "
                            "repriced at HBM bandwidth)"
                            if resident
                            else "activations still spill, epoch unchanged"
                        )
                    ),
                    **_prediction(None, float(pred_e2e), base_e2e),
                    "activations_resident": resident,
                    "speedup": _finite(what_if_hbm.get("speedup")),
                }
            )

    # Capacity headroom at the binding aggregation resource: how far the
    # achieved request rate could scale before the busiest resource hits
    # its peak (the run-total utilizations of :func:`_resources`).
    bottleneck = max(
        AGGREGATION_RESOURCES, key=lambda r: resources[r]["utilization"]
    )
    utilization = resources[bottleneck]["utilization"]
    total_requests = (
        int(counters["storage_requests"])
        + int(counters["cpu_buffer_requests"])
        + int(counters["gpu_cache_hits"])
        + int(faults.get("fallback_requests") or 0)
    )
    achieved_req_s = _ratio(total_requests, agg_s)
    max_req_s = (
        achieved_req_s / utilization if utilization > 0 else None
    )
    table.append(
        {
            "scenario": "capacity",
            "description": (
                f"max sustainable feature-request rate before the "
                f"{bottleneck} resource saturates (currently at "
                f"{utilization:.1%})"
            ),
            **_prediction(agg_s, base_e2e, base_e2e),
            "bottleneck": bottleneck,
            "utilization": _finite(utilization),
            "achieved_req_s": _finite(achieved_req_s),
            "max_sustainable_req_s": _finite(max_req_s),
        }
    )

    # Per-fleet-size capacity rows: the epoch re-solved with the SSD array
    # shared by n concurrently aggregating GPUs.  Work divides by n, but
    # every GPU sees only peak/n IOPS (the shared-array contention model),
    # so aggregation shrinks sublinearly — the row quantifies exactly how
    # far from linear.  ``peer_cache_e2e_seconds`` repeats the solve with
    # PEER_CACHE_ABSORPTION of storage reads served from peer caches over
    # the interconnect instead of the SSD array.
    def fleet_e2e(pred: float, n: int) -> tuple[float, float]:
        """:func:`scaled` for ``n`` GPUs that split the run's work."""
        agg_n = agg_s * (pred / base_pred if base_pred > 0 else 1.0) / n
        return agg_n, _combine_e2e(
            (sampling_s + transfer_s) / n + agg_n, train_s / n, overlapped
        )

    kept = 1.0 - PEER_CACHE_ABSORPTION
    for n in FLEET_WHAT_IF_SIZES:
        shared = SSDArray(contended_ssd(base_array.spec, n), num_ssds)
        agg_n, e2e_n = fleet_e2e(
            predict(shared, pages, storage_bytes, cpu_bytes), n
        )
        _, peer_e2e_n = fleet_e2e(
            predict(shared, pages * kept, storage_bytes * kept, cpu_bytes), n
        )
        table.append(
            {
                "scenario": f"capacity @{n} GPUs",
                "description": (
                    f"epoch re-solved for {n} data-parallel GPUs sharing "
                    f"the SSD array (each sees 1/{n} of peak IOPS); "
                    f"peer-cache variant absorbs "
                    f"{PEER_CACHE_ABSORPTION:.0%} of storage reads"
                ),
                "num_gpus": n,
                **_prediction(agg_n, e2e_n, base_e2e),
                "peer_cache_e2e_seconds": _finite(peer_e2e_n),
                "speedup_vs_1gpu": _finite(
                    base_e2e / e2e_n if e2e_n > 0 else None
                ),
                "peer_cache_speedup_vs_1gpu": _finite(
                    base_e2e / peer_e2e_n if peer_e2e_n > 0 else None
                ),
            }
        )

    # Degraded-capacity row: one device of the array down mid-run.  With
    # redundancy every read is still storage-served off the surviving
    # n-1 devices (replica redirects); without it the dead device's share
    # of reads (1/n of pages, the striping share) falls back to the CPU
    # mirror path.  The gap between the two predictions is what the
    # redundancy overhead buys.
    if num_ssds >= 2:
        degraded_array = _ssd_array(specs, num_ssds - 1)
        lost_share = 1.0 / num_ssds
        lost_pages = pages * lost_share
        redundant_agg, redundant_e2e = scaled(
            predict(degraded_array, pages, storage_bytes, cpu_bytes)
        )
        _, bare_e2e = scaled(
            predict(
                degraded_array,
                pages - lost_pages,
                storage_bytes - lost_pages * page_bytes,
                cpu_bytes + lost_pages * page_bytes,
            )
        )
        table.append(
            {
                "scenario": "degraded capacity (1 SSD down)",
                "description": (
                    f"one of {num_ssds} devices down: with redundancy "
                    "reads redirect to surviving replicas "
                    f"({num_ssds - 1} devices); without it the dead "
                    f"device's {lost_share:.0%} of reads fall back to "
                    "the CPU mirror"
                ),
                **_prediction(redundant_agg, redundant_e2e, base_e2e),
                "no_redundancy_e2e_seconds": _finite(bare_e2e),
                "redundancy_benefit_seconds": _finite(
                    bare_e2e - redundant_e2e
                ),
            }
        )
    return table
