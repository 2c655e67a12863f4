"""Per-layer metrics: their names, units, and how the trace yields them.

Every number here covers the *prefix* of a traced run — a fixed op count —
so calls and counts repeat exactly for a seed and only the wall seconds
carry host noise.  ``wall_s`` is host time busy inside a layer's public
boundary (children included); ``self_wall_s`` excludes child spans.
"""

from __future__ import annotations

from tracing import SETUP, Recorder

#: (name, unit, better) in report order; BENCHMARK.json lists the same.
PER_LAYER: list[tuple[str, str, str]] = [
    ("sampling.calls", "count", "lower"),
    ("sampling.wall_s", "s", "lower"),
    ("sampling.sampled_nodes", "count", "lower"),
    ("sampling.nodes_per_s", "1/s", "higher"),
    ("cache.gpu.access_calls", "count", "lower"),
    ("cache.gpu.access_wall_s", "s", "lower"),
    ("cache.gpu.pages", "count", "lower"),
    ("cache.gpu.pages_per_s", "1/s", "higher"),
    ("cache.gpu.hit_ratio", "ratio", "higher"),
    ("cache.gpu.pin_calls", "count", "lower"),
    ("cache.gpu.pin_wall_s", "s", "lower"),
    ("cache.cpu_buffer.wall_s", "s", "lower"),
    ("cache.cpu_buffer.redirect_ratio", "ratio", "higher"),
    ("core.window.pushes", "count", "lower"),
    ("core.window.self_wall_s", "s", "lower"),
    ("core.accumulator.wall_s", "s", "lower"),
    ("core.accumulator.iters_per_group", "ratio", "higher"),
    ("core.gids.group_calls", "count", "lower"),
    ("core.gids.wall_s", "s", "lower"),
    ("core.gids.self_wall_s", "s", "lower"),
    ("sim.ssd.calls", "count", "lower"),
    ("sim.ssd.wall_s", "s", "lower"),
    ("sim.ssd.requests", "count", "lower"),
    ("sim.ssd.modeled_s", "s", "lower"),
    ("sim.pcie.wall_s", "s", "lower"),
    ("sim.pcie.modeled_s", "s", "lower"),
    ("sim.gpu.wall_s", "s", "lower"),
    ("sim.gpu.modeled_sampling_s", "s", "lower"),
    ("sim.gpu.modeled_hbm_s", "s", "lower"),
    ("sim.gpu.modeled_train_s", "s", "lower"),
    ("modeled.sampling_s_per_op", "s", "lower"),
    ("modeled.aggregation_s_per_op", "s", "lower"),
    ("modeled.training_s_per_op", "s", "lower"),
    ("storage.fetch_calls", "count", "lower"),
    ("storage.fetch_wall_s", "s", "lower"),
    ("storage.rows_per_s", "1/s", "higher"),
    ("storage.layout_wall_s", "s", "lower"),
    ("faults.calls", "count", "lower"),
    ("faults.wall_s", "s", "lower"),
    ("faults.retries", "count", "lower"),
    ("faults.fallback_requests", "count", "lower"),
    ("storage_ha.route_calls", "count", "lower"),
    ("storage_ha.wall_s", "s", "lower"),
    ("storage_ha.replica_redirects", "count", "lower"),
    ("storage_ha.rebuild_pages", "count", "lower"),
    ("integrity.verify_calls", "count", "lower"),
    ("integrity.verify_wall_s", "s", "lower"),
    ("integrity.verified_pages", "count", "lower"),
    ("integrity.pages_per_s", "1/s", "higher"),
    ("integrity.detected", "count", "lower"),
    ("integrity.repaired", "count", "higher"),
    ("integrity.scrub_wall_s", "s", "lower"),
    ("telemetry.events", "count", "lower"),
    ("telemetry.wall_s", "s", "lower"),
    ("telemetry.dropped_events", "count", "lower"),
    ("checkpoint.saves", "count", "lower"),
    ("checkpoint.wall_s", "s", "lower"),
    ("checkpoint.bytes", "count", "lower"),
    ("checkpoint.mb_per_s", "MB/s", "higher"),
    ("training.calls", "count", "lower"),
    ("training.wall_s", "s", "lower"),
    ("training.final_loss", "loss", "lower"),
    ("serving.steps", "count", "lower"),
    ("serving.wall_s", "s", "lower"),
    ("serving.self_wall_s", "s", "lower"),
    ("serving.shed_fraction", "ratio", "lower"),
    ("serving.degraded_fraction", "ratio", "lower"),
    ("serving.modeled_capacity_req_s", "1/s", "higher"),
    ("core.fleet.steps", "count", "lower"),
    ("core.fleet.wall_s", "s", "lower"),
    ("core.fleet.self_wall_s", "s", "lower"),
    ("core.fleet.peer_hit_ratio", "ratio", "higher"),
    ("core.fleet.ssd_pages", "count", "lower"),
    ("core.fleet.steals", "count", "lower"),
    ("fullgraph.steps", "count", "lower"),
    ("fullgraph.wall_s", "s", "lower"),
    ("fullgraph.self_wall_s", "s", "lower"),
    ("fullgraph.spill_pages", "count", "lower"),
    ("fullgraph.reload_pages", "count", "lower"),
    ("fullgraph.num_partitions", "count", "lower"),
    ("graph.generate_wall_s", "s", "lower"),
    ("graph.pagerank_wall_s", "s", "lower"),
    ("graph.partition_wall_s", "s", "lower"),
    ("harness.unattributed_wall_fraction", "ratio", "lower"),
    ("harness.trace_overhead_ratio", "ratio", "lower"),
]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_values(
    recorder: Recorder,
    prefix: dict,
    *,
    timed_s: float,
    trace_overhead_ratio: float,
) -> dict[str, float]:
    """Fill every :data:`PER_LAYER` metric (0 where a layer did no work).

    Args:
        recorder: the recorder of the traced prefix.
        prefix: the workload's ``prefix_summary()``.
        timed_s: host seconds of the prefix's public calls.
        trace_overhead_ratio: untraced over traced host ops per second.
    """
    count = recorder.counts
    extra = prefix["layer"]
    values: dict[str, float] = {}

    def layer(prefix_name: str, span: str, *, calls=None, wall=None,
              self_wall=None) -> None:
        n_calls, wall_s, self_s = recorder.layer(span)
        if calls:
            values[f"{prefix_name}.{calls}"] = n_calls
        if wall:
            values[f"{prefix_name}.{wall}"] = wall_s
        if self_wall:
            values[f"{prefix_name}.{self_wall}"] = self_s

    layer("sampling", "sampling", calls="calls", wall="wall_s")
    values["sampling.sampled_nodes"] = count["sampling.sampled_nodes"]
    values["sampling.nodes_per_s"] = _ratio(
        count["sampling.sampled_nodes"], values["sampling.wall_s"]
    )

    layer("cache.gpu", "cache.gpu.access", calls="access_calls",
          wall="access_wall_s")
    layer("cache.gpu", "cache.gpu.pin", calls="pin_calls", wall="pin_wall_s")
    values["cache.gpu.pages"] = count["cache.gpu.pages"]
    values["cache.gpu.pages_per_s"] = _ratio(
        count["cache.gpu.pages"], values["cache.gpu.access_wall_s"]
    )
    values["cache.gpu.hit_ratio"] = _ratio(
        count["cache.gpu.hits"], count["cache.gpu.pages"]
    )
    layer("cache.cpu_buffer", "cache.cpu_buffer", wall="wall_s")
    values["cache.cpu_buffer.redirect_ratio"] = _ratio(
        count["cache.cpu_buffer.redirected"], count["cache.cpu_buffer.nodes"]
    )

    values["core.window.pushes"] = count["core.window.pushes"]
    layer("core.window", "core.window", self_wall="self_wall_s")
    layer("core.accumulator", "core.accumulator", wall="wall_s")
    layer("core.gids", "core.gids", calls="group_calls", wall="wall_s",
          self_wall="self_wall_s")
    values["core.accumulator.iters_per_group"] = (
        _ratio(prefix["ops"], values["core.gids.group_calls"])
    )

    layer("sim.ssd", "sim.ssd", calls="calls", wall="wall_s")
    layer("sim.pcie", "sim.pcie", wall="wall_s")
    layer("sim.gpu", "sim.gpu", wall="wall_s")
    for key in ("sim.ssd.requests", "sim.ssd.modeled_s", "sim.pcie.modeled_s",
                "sim.gpu.modeled_sampling_s", "sim.gpu.modeled_hbm_s",
                "sim.gpu.modeled_train_s"):
        values[key] = count[key]

    layer("storage", "storage.fetch", calls="fetch_calls",
          wall="fetch_wall_s")
    values["storage.rows_per_s"] = _ratio(
        count["storage.rows"], values["storage.fetch_wall_s"]
    )
    layer("storage", "storage.layout", wall="layout_wall_s")

    layer("faults", "faults", calls="calls", wall="wall_s")
    values["faults.retries"] = count["faults.retries"]

    layer("storage_ha", "storage_ha.route", calls="route_calls")
    values["storage_ha.wall_s"] = (
        recorder.layer("storage_ha.route")[1]
        + recorder.layer("storage_ha")[1]
    )
    values["storage_ha.replica_redirects"] = count[
        "storage_ha.replica_redirects"
    ]
    values["storage_ha.rebuild_pages"] = count["storage_ha.rebuild_pages"]

    layer("integrity", "integrity.verify", calls="verify_calls",
          wall="verify_wall_s")
    layer("integrity", "integrity.scrub", wall="scrub_wall_s")
    for key in ("verified_pages", "detected", "repaired"):
        values[f"integrity.{key}"] = count[f"integrity.{key}"]
    values["integrity.pages_per_s"] = _ratio(
        count["integrity.verified_pages"], values["integrity.verify_wall_s"]
    )

    layer("telemetry", "telemetry", calls="events", wall="wall_s")
    values["checkpoint.wall_s"] = (
        recorder.layer("checkpoint")[1] + recorder.layer("checkpoint.save")[1]
    )
    values["checkpoint.bytes"] = count["checkpoint.bytes"]
    values["checkpoint.mb_per_s"] = _ratio(
        count["checkpoint.bytes"] / 1e6, values["checkpoint.wall_s"]
    )

    layer("training", "training", calls="calls", wall="wall_s")
    for driver in ("serving", "core.fleet", "fullgraph"):
        layer(driver, driver, calls="steps", wall="wall_s",
              self_wall="self_wall_s")

    for span in ("graph.generate", "graph.pagerank", "graph.partition"):
        values[f"{span}_wall_s"] = recorder.layer(span, SETUP)[1]

    values["harness.unattributed_wall_fraction"] = max(
        0.0, 1.0 - _ratio(recorder.attributed_s, timed_s)
    )
    values["harness.trace_overhead_ratio"] = trace_overhead_ratio

    # Numbers only the workload can report (modeled stage split, losses,
    # ratios its result objects hold); absent means the layer is idle.
    for name, _, _ in PER_LAYER:
        if name in extra:
            values[name] = extra[name]
        values.setdefault(name, 0)
    return values
