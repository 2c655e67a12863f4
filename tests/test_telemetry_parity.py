"""Turning telemetry on changes no modeled number — for all four drivers.

Each driver runs the same seeded short workload twice, planes on: once
built without a tracer and once with ``Tracer(detail="request")``.  The
two runs must agree on every per-op stage time and transfer counter, the
serving statistics, the modeled clock, the losses and the SHA-256 of the
driver's ``state_dict`` with the telemetry riders taken out — the rule
that would have caught a *traced* fleet run dying in ``TypeError`` on its
first elasticity event.  And "no tracer" has one meaning: the driver holds
a private disabled :class:`~repro.telemetry.Tracer` that records nothing,
is never called, and leaves no trace state in a snapshot.
"""

from __future__ import annotations

import pytest

from repro.config import (
    INTEL_OPTANE,
    SAMSUNG_980PRO,
    LoaderConfig,
    SystemConfig,
)
from repro.core.fleet import ElasticFleetTrainer, FleetConfig
from repro.core.gids import GIDSDataLoader
from repro.faults import DeviceEvent, FaultPlan, RetryPolicy
from repro.faults.plan import CorruptionEvent, WorkerEvent
from repro.fullgraph import FullGraphConfig, FullGraphTrainer
from repro.graph.datasets import load_scaled
from repro.serving import ArrivalConfig, InferenceServer, ServingConfig
from repro.telemetry import Tracer
from tests.test_readpath_golden import _report_digest, _sha


def _plan(**extra) -> FaultPlan:
    return FaultPlan(
        seed=9,
        read_failure_rate=0.02,
        retry_failure_rate=0.6,
        tail_latency_rate=0.01,
        bitflip_rate=2e-3,
        corruption_events=(CorruptionEvent(0, 0.0, 0.05),),
        **extra,
    )


def _loader(tracer):
    dataset = load_scaled("IGB-tiny", 0.03, seed=3)
    loader = GIDSDataLoader(
        dataset,
        SystemConfig(ssd=SAMSUNG_980PRO, num_ssds=4),
        LoaderConfig(
            gpu_cache_bytes=dataset.feature_data_bytes * 0.05,
            cpu_buffer_fraction=0.10,
            window_depth=3,
        ),
        batch_size=32,
        fanouts=(4, 4),
        seed=2,
        fault_plan=_plan(
            device_events=(
                DeviceEvent(1, "dropout", 0.001),
                DeviceEvent(1, "recovery", 0.003),
            )
        ),
        replication=2,
        rebuild_iops=1e6,
        verify_reads="full",
        scrub_iops=2e5,
        tracer=tracer,
    )
    produced = []
    while len(produced) < 24:
        produced += [
            m for _, m in loader.next_training_group(24 - len(produced))
        ]
    modeled = _report_digest(produced)
    modeled["clock_s"] = loader.sim_now_s
    modeled["fault_stats"] = loader.faults.stats.state_dict()
    modeled["storage_ha"] = loader.storage_ha.summary_block()
    return loader, modeled


def _server(tracer):
    dataset = load_scaled("IGB-tiny", 0.03, seed=3)
    server = InferenceServer(
        dataset,
        SystemConfig(ssd=INTEL_OPTANE, num_ssds=4),
        LoaderConfig(gpu_cache_bytes=dataset.feature_data_bytes * 0.02),
        arrival=ArrivalConfig(shape="bursty", rate=2500.0, seed=3),
        serving=ServingConfig(protection=True),
        fanouts=(4, 4),
        seed=4,
        fault_plan=_plan(device_events=(DeviceEvent(1, "dropout", 0.02),)),
        replication=2,
        rebuild_iops=1e6,
        tracer=tracer,
    )
    server.serve(300)
    server.drain()
    report = server.report()
    modeled = {
        "latencies": report.latencies,
        "stats": report.stats.state_dict(),
        "counters": report.counters.state_dict(),
        "stage_seconds": report.stage_seconds,
        "clock_s": report.duration_s,
        "busy_s": report.busy_s,
        "breaker_transitions": report.breaker_transitions,
        "brownout_transitions": report.brownout_transitions,
    }
    return server, modeled


def _fleet(tracer):
    dataset = load_scaled("IGB-tiny", 0.03, seed=3)
    trainer = ElasticFleetTrainer(
        dataset,
        SystemConfig(ssd=INTEL_OPTANE, num_ssds=4),
        FleetConfig(num_gpus=3, batch_size=2),
        seed=6,
        fanouts=(3, 3),
        gpu_cache_bytes=dataset.feature_data_bytes * 0.02,
        fault_plan=FaultPlan(
            seed=3,
            device_events=(DeviceEvent(1, "dropout", 0.0003),),
            worker_events=(
                WorkerEvent(worker=1, kind="dropout", at_time_s=0.0002),
                WorkerEvent(worker=1, kind="recovery", at_time_s=0.0008),
                WorkerEvent(worker=2, kind="straggle", at_time_s=0.0001,
                            factor=6.0),
            ),
        ),
        replication=2,
        tracer=tracer,
    )
    result = trainer.run_epoch(max_steps=12)
    assert result.fired_events and result.rebalance_events
    modeled = _report_digest(result.report.iterations)
    modeled["losses"] = list(result.losses)
    modeled["clock_s"] = result.epoch_time_s
    modeled["worker_stats"] = [dict(w) for w in result.worker_stats]
    modeled["events"] = [
        result.fired_events, result.rebalance_events, result.steal_events
    ]
    return trainer, modeled


def _fullgraph(tracer):
    trainer = FullGraphTrainer(
        load_scaled("IGB-tiny", 0.001, seed=3),
        SystemConfig(ssd=SAMSUNG_980PRO, num_ssds=2),
        FullGraphConfig(
            hidden_dim=8, num_classes=4, hbm_budget_bytes=6e6,
            num_partitions=4,
        ),
        fault_plan=_plan(retry=RetryPolicy(max_retries=1)),
        verify_reads="sample",
        replication=2,
        tracer=tracer,
    )
    trainer.run_steps(trainer.steps_per_epoch + 5)
    modeled = _report_digest(trainer.report.iterations)
    modeled["losses"] = list(trainer.losses)
    modeled["clock_s"] = trainer.clock_s
    modeled["traffic"] = trainer.traffic.state_dict()
    modeled["fault_stats"] = trainer.faults.stats.state_dict()
    return trainer, modeled


DRIVERS = {
    "loader": _loader,
    "server": _server,
    "fleet": _fleet,
    "fullgraph": _fullgraph,
}


@pytest.mark.parametrize("name", sorted(DRIVERS))
def test_telemetry_changes_no_modeled_number(name):
    plain, plain_modeled = DRIVERS[name](None)
    tracer = Tracer(detail="request")
    traced, traced_modeled = DRIVERS[name](tracer)

    assert plain_modeled["clock_s"] > 0.0
    assert _sha(traced_modeled) == _sha(plain_modeled)
    assert traced_modeled == plain_modeled  # names the field that moved

    # The traced run really was traced.
    assert traced.tracer is tracer
    assert tracer.spans and tracer.instants

    # "No tracer" is a disabled tracer nobody shares: nothing recorded,
    # nothing in the snapshot.
    off = plain.tracer
    assert off is not tracer and not off.enabled
    assert not off.want_request_detail
    assert off.spans == [] and off.instants == []
    plain_state = plain.state_dict()
    assert plain_state.get("tracer") is None

    # The state agrees once the telemetry riders are out: the loader's
    # ``tracer`` child, and the server's registry — an untraced server
    # saves it, a traced one's rides the tracer's state, same content.
    traced_state = traced.state_dict()
    traced_state.pop("tracer", None)
    plain_state.pop("tracer", None)
    registry = plain_state.pop("registry", None)
    if registry is not None:
        assert _sha(registry) == _sha(tracer.metrics.state_dict())
    assert _sha(traced_state) == _sha(plain_state)
