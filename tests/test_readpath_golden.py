"""Bit-identity oracle for the read-path configurations the benchmark skips.

``benchmarks/e2e`` pins the modeled digest of six workloads, but only
``loader-planes`` passes a fault plan, redundancy or a verify mode — the
serving breaker/redirect loop, the fleet's degraded routing, full-graph
fault/verify charging and most loader plane combinations never execute
there.  This module runs each of those configurations at a fixed seed and
compares everything modeled — per-op stage times, summed transfer
counters, fault and ledger totals, the SHA-256 of the full ``state_dict``
(RNG streams included, so draw order and checkpoint layout are covered)
and of the recorded trace — against ``tests/data/readpath_golden.json``.

The golden file was generated at the commit *before* the read path was
extracted into ``repro.core.readpath``; the three ``fullgraph-faults-*``
entries were regenerated when the sweep started taking its planes from a
``StorageStack`` (its verifier seeded by the plan and backed by the
checksummer, as ``repro fullgraph``'s already was).  Every move since is a
row of ``tests/data/digest_ledger.json``.  Regenerate only for a change
that is meant to move modeled numbers or losses, and only the cases it
moves, through the ledger's entry point (it calls :func:`main` below)::

    PYTHONPATH=src python -m tests.ledger --pr N --reason "why" \\
        readpath_golden.json:CASE ...
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import DGLMmapLoader, GinexLoader
from repro.config import (
    INTEL_OPTANE,
    SAMSUNG_980PRO,
    LoaderConfig,
    SystemConfig,
)
from repro.core.bam import BaMDataLoader
from repro.core.fleet import ElasticFleetTrainer, FleetConfig
from repro.core.gids import GIDSDataLoader
from repro.faults import DeviceEvent, FaultPlan, RetryPolicy
from repro.faults.plan import CorruptionEvent
from repro.fullgraph import FullGraphConfig, FullGraphTrainer
from repro.graph.datasets import load_scaled
from repro.serving import ArrivalConfig, InferenceServer, ServingConfig
from repro.sim.counters import TransferCounters
from repro.telemetry import Tracer
from tests.ledger import canonical_text

GOLDEN_PATH = Path(__file__).parent / "data" / "readpath_golden.json"


def _canonical(obj):
    """JSON-ready copy: arrays to lists, numpy scalars to Python, str keys."""
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [str(obj.dtype), list(obj.shape), _canonical(obj.tolist())]
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def _sha(obj) -> str:
    text = json.dumps(_canonical(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _report_digest(iterations) -> dict:
    total = TransferCounters()
    for metrics in iterations:
        total.merge(metrics.counters)
    return {
        "stage_times": [m.times.state_dict() for m in iterations],
        "counters": total.state_dict(),
    }


def _trace_digest(tracer: Tracer) -> dict:
    return {
        "events": len(tracer.spans) + len(tracer.instants),
        "sha256": _sha(tracer.state_dict()),
    }


# ----------------------------------------------------------------------
# Loader configurations

_LOADER_SYSTEM = SystemConfig(ssd=SAMSUNG_980PRO, num_ssds=4)

#: Few retries that mostly fail again: some reads exhaust the policy.
_HARSH_RETRY = RetryPolicy(max_retries=1)


def _loader_plans() -> dict[str, dict]:
    events = (
        DeviceEvent(1, "dropout", 0.002),
        DeviceEvent(1, "recovery", 0.005),
        DeviceEvent(2, "slowdown", 0.003, factor=6.0),
        DeviceEvent(2, "recovery", 0.0065),
    )
    faulty = FaultPlan(
        seed=5,
        read_failure_rate=0.02,
        retry_failure_rate=0.6,
        tail_latency_rate=0.01,
        device_events=events,
        pcie_degradation_factor=1.5,
    )
    corrupting = FaultPlan(
        seed=9,
        read_failure_rate=0.01,
        bitflip_rate=2e-3,
        torn_page_rate=1e-3,
        device_events=events[:2],
        corruption_events=(CorruptionEvent(3, 0.001, 0.05),),
    )
    return {
        "loader-faults": {
            "fault_plan": faulty, "retry_policy": _HARSH_RETRY,
        },
        "loader-ha-only": {"replication": 2, "rebuild_iops": 1e6},
        "loader-faults-replication": {
            "fault_plan": faulty, "replication": 2, "rebuild_iops": 1e6,
        },
        "loader-faults-parity-verify-full": {
            "fault_plan": corrupting, "parity": True, "verify_reads": "full",
        },
        "loader-verify-sample-scrub": {
            "fault_plan": corrupting,
            "verify_reads": "sample",
            "verify_sample_rate": 0.5,
            "scrub_iops": 2e5,
        },
        "loader-rebuild-only": {
            "fault_plan": faulty, "rebuild_iops": 1e6,
        },
    }


def _run_loader(cls, iterations: int = 64, **kwargs) -> dict:
    dataset = load_scaled("IGB-tiny", 0.05, seed=3)
    tracer = Tracer(detail="request")
    loader = cls(
        dataset,
        _LOADER_SYSTEM,
        LoaderConfig(
            gpu_cache_bytes=dataset.feature_data_bytes * 0.05,
            cpu_buffer_fraction=0.10,
            window_depth=4,
        ),
        batch_size=64,
        fanouts=(5, 5),
        seed=2,
        tracer=tracer,
        **kwargs,
    )
    produced = []
    mid_state = None
    while len(produced) < iterations:
        if mid_state is None and len(produced) >= iterations // 2:
            mid_state = _sha(loader.state_dict())
        for _, metrics in loader.next_training_group(
            iterations - len(produced)
        ):
            produced.append(metrics)
    out = _report_digest(produced)
    out["sim_now_s"] = loader.sim_now_s
    out["fault_stats"] = (
        None if loader.faults is None else loader.faults.stats.state_dict()
    )
    out["ledger"] = (
        None
        if loader.ledger is None
        else {
            "detected": loader.ledger.total_detected,
            "repaired": loader.ledger.total_repaired,
            "unrepairable": loader.ledger.total_unrepairable,
            "quarantined": loader.ledger.num_quarantined,
        }
    )
    out["storage_ha"] = (
        None
        if loader.storage_ha is None
        else loader.storage_ha.summary_block()
    )
    out["mid_state_sha256"] = mid_state
    out["state_sha256"] = _sha(loader.state_dict())
    out["trace"] = _trace_digest(tracer)
    return out


# ----------------------------------------------------------------------
# Baseline loaders (DGL-mmap, Ginex)


def _run_baseline(cls, system: SystemConfig, **kwargs) -> dict:
    """One baseline configuration, three ways: ``run()`` at the loader's
    default warm-up, ``iter_batches`` and a ``TrainingPipeline``, each on a
    fresh loader with the same seed."""
    dataset = load_scaled("IGB-tiny", 0.05, seed=3)

    def make():
        return cls(dataset, system, batch_size=64, seed=2, **kwargs)

    loader = make()
    report = loader.run(24)
    out = _report_digest(report.iterations)
    out["loader_name"] = report.loader_name
    out["overlapped"] = report.overlapped
    faults = getattr(loader, "faults", None)
    out["fault_stats"] = None if faults is None else faults.stats.state_dict()

    digest = hashlib.sha256()
    for batch, features in make().iter_batches(12):
        for array in (batch.seeds, batch.input_nodes, features):
            digest.update(np.ascontiguousarray(array).tobytes())
    out["features_sha256"] = digest.hexdigest()

    from repro.pipeline.runner import TrainingPipeline
    from repro.training.graphsage import GraphSAGE

    pipeline = TrainingPipeline(
        make(),
        GraphSAGE(dataset.feature_dim, 8, 4, num_layers=2, seed=3),
        num_classes=4,
    )
    out["losses"] = pipeline.train(12).losses
    return out


def _tight_system(num_ssds: int = 1) -> SystemConfig:
    """Optane array whose CPU memory caches a sliver of the features, so
    the measured iterations still miss after the default warm-up."""
    dataset = load_scaled("IGB-tiny", 0.05, seed=3)
    return SystemConfig(
        ssd=INTEL_OPTANE,
        num_ssds=num_ssds,
        cpu_memory_limit_bytes=dataset.structure_data_bytes
        + 0.15 * dataset.feature_data_bytes,
    )


def _ginex_plan() -> FaultPlan:
    return FaultPlan(
        seed=13,
        read_failure_rate=0.03,
        retry_failure_rate=0.5,
        tail_latency_rate=0.02,
        bitflip_rate=5e-3,
        torn_page_rate=2e-3,
        device_events=(
            DeviceEvent(1, "dropout", 0.125),
            DeviceEvent(1, "recovery", 0.14),
        ),
        pcie_degradation_factor=1.5,
    )


# ----------------------------------------------------------------------
# Serving


def _run_server(requests: int = 900, **kwargs) -> dict:
    dataset = load_scaled("IGB-tiny", 0.05, seed=3)
    tracer = Tracer(detail="request")
    server = InferenceServer(
        dataset,
        SystemConfig(ssd=INTEL_OPTANE, num_ssds=4),
        LoaderConfig(
            gpu_cache_bytes=dataset.feature_data_bytes * 0.02,
            cpu_buffer_fraction=0.05,
        ),
        arrival=ArrivalConfig(shape="bursty", rate=2500.0, seed=3),
        fanouts=(5, 5),
        seed=4,
        tracer=tracer,
        **kwargs,
    )
    server.serve(requests // 2)
    mid_state = _sha(server.state_dict())
    server.serve(requests - requests // 2)
    server.drain()
    report = server.report()
    return {
        "latencies": report.latencies,
        "stats": report.stats.state_dict(),
        "counters": report.counters.state_dict(),
        "stage_seconds": report.stage_seconds,
        "duration_s": report.duration_s,
        "busy_s": report.busy_s,
        "hedge": report.hedge,
        "breaker_transitions": report.breaker_transitions,
        "stale_pages": report.stale_pages,
        "fault_stats": (
            None
            if server.faults is None
            else server.faults.stats.state_dict()
        ),
        "storage_ha": (
            None
            if server.storage_ha is None
            else server.storage_ha.summary_block()
        ),
        "mid_state_sha256": mid_state,
        "state_sha256": _sha(server.state_dict()),
        "trace": _trace_digest(tracer),
    }


def _serving_plan() -> FaultPlan:
    return FaultPlan(
        seed=7,
        read_failure_rate=0.02,
        retry_failure_rate=0.6,
        tail_latency_rate=0.02,
        device_events=(
            DeviceEvent(1, "dropout", 0.03),
            DeviceEvent(1, "recovery", 0.20),
            DeviceEvent(2, "slowdown", 0.10, factor=8.0),
        ),
    )


# ----------------------------------------------------------------------
# Fleet


def _run_fleet(**kwargs) -> dict:
    dataset = load_scaled("IGB-tiny", 0.05, seed=3)
    tracer = Tracer(detail="request")
    trainer = ElasticFleetTrainer(
        dataset,
        SystemConfig(ssd=INTEL_OPTANE, num_ssds=4),
        FleetConfig(num_gpus=3, batch_size=2),
        seed=6,
        fanouts=(4, 4),
        gpu_cache_bytes=dataset.feature_data_bytes * 0.02,
        tracer=tracer,
        **kwargs,
    )
    trainer.run_epoch(max_steps=8)
    mid_state = _sha(trainer.state_dict())
    result = trainer.run_epoch(max_steps=16)
    out = _report_digest(result.report.iterations)
    out["losses"] = list(result.losses)
    out["epoch_time_s"] = result.epoch_time_s
    out["worker_stats"] = result.fleet_block()["workers"]
    out["storage_ha"] = (
        None
        if trainer.storage_ha is None
        else trainer.storage_ha.summary_block()
    )
    out["mid_state_sha256"] = mid_state
    out["state_sha256"] = _sha(trainer.state_dict())
    out["trace"] = _trace_digest(tracer)
    return out


def _fleet_plan() -> FaultPlan:
    # Read-failure rates ride along on purpose: the fleet consumes only
    # the device timeline, and must keep ignoring the per-read process.
    return FaultPlan(
        seed=3,
        read_failure_rate=0.05,
        device_events=(
            DeviceEvent(1, "dropout", 0.0003),
            DeviceEvent(1, "recovery", 0.0012),
            DeviceEvent(3, "slowdown", 0.0006, factor=4.0),
        ),
    )


# ----------------------------------------------------------------------
# Full-graph


def _run_fullgraph(**planes) -> dict:
    dataset = load_scaled("IGB-tiny", 0.001, seed=3)
    plan = FaultPlan(
        seed=11,
        read_failure_rate=0.05,
        retry_failure_rate=0.7,
        tail_latency_rate=0.05,
        bitflip_rate=0.01,
        corruption_events=(CorruptionEvent(0, 0.0, 0.02),),
        retry=_HARSH_RETRY,
    )
    tracer = Tracer(detail="request")
    trainer = FullGraphTrainer(
        dataset,
        SystemConfig(ssd=SAMSUNG_980PRO, num_ssds=2),
        FullGraphConfig(
            hidden_dim=8,
            num_classes=4,
            num_layers=2,
            hbm_budget_bytes=6e6,
            num_partitions=4,
        ),
        fault_plan=plan,
        tracer=tracer,
        **planes,
    )
    trainer.run_steps(13)
    mid_state = _sha(trainer.state_dict())
    trainer.run_steps(2 * trainer.steps_per_epoch - 13)
    out = _report_digest(trainer.report.iterations)
    out["losses"] = list(trainer.losses)
    out["clock_s"] = trainer.clock_s
    out["traffic"] = trainer.traffic.state_dict()
    out["fault_stats"] = trainer.faults.stats.state_dict()
    out["mid_state_sha256"] = mid_state
    out["state_sha256"] = _sha(trainer.state_dict())
    out["trace"] = _trace_digest(tracer)
    return out


# ----------------------------------------------------------------------
# The case table

CASES = {
    **{
        name: (lambda kw=kw: _run_loader(GIDSDataLoader, **kw))
        for name, kw in _loader_plans().items()
    },
    "bam-faults": lambda: _run_loader(
        BaMDataLoader, **_loader_plans()["loader-faults"]
    ),
    "serve-protected-kill-replication": lambda: _run_server(
        serving=ServingConfig(protection=True),
        fault_plan=_serving_plan(),
        replication=2,
        rebuild_iops=1e6,
    ),
    "serve-protected-kill-bare": lambda: _run_server(
        serving=ServingConfig(protection=True),
        fault_plan=_serving_plan(),
        retry_policy=_HARSH_RETRY,
    ),
    "serve-unprotected-kill-parity": lambda: _run_server(
        serving=ServingConfig(protection=False),
        fault_plan=_serving_plan(),
        parity=True,
    ),
    "fleet-dropout-replication": lambda: _run_fleet(
        fault_plan=_fleet_plan(), replication=2, rebuild_iops=1e6
    ),
    "fleet-dropout-bare": lambda: _run_fleet(fault_plan=_fleet_plan()),
    "fleet-dropout-rebuild-only": lambda: _run_fleet(
        fault_plan=_fleet_plan(), rebuild_iops=1e6
    ),
    "fullgraph-faults-verify-replication": lambda: _run_fullgraph(
        verify_reads="full", replication=2
    ),
    "fullgraph-faults-sample-parity": lambda: _run_fullgraph(
        verify_reads="sample", parity=True
    ),
    # The plan corrupts reads, so the stack's integrity plane is up even
    # with verification off: spill reloads are drawn and left unverified.
    "fullgraph-faults-bare": lambda: _run_fullgraph(),
    "baseline-mmap-neighbor": lambda: _run_baseline(
        DGLMmapLoader, _tight_system(), fanouts=(5, 5)
    ),
    # Roomy memory: the whole feature file fits the page cache, so run()
    # takes the preload branch.
    "baseline-mmap-ladies": lambda: _run_baseline(
        DGLMmapLoader, SystemConfig(),
        sampler_kind="ladies", layer_sizes=(64, 64),
    ),
    "baseline-ginex": lambda: _run_baseline(
        GinexLoader, _tight_system(), fanouts=(5, 5)
    ),
    "baseline-ginex-faults-verify-sample": lambda: _run_baseline(
        GinexLoader, _tight_system(num_ssds=2), fanouts=(5, 5),
        fault_plan=_ginex_plan(),
        retry_policy=_HARSH_RETRY, verify_reads="sample",
        verify_sample_rate=0.5,
    ),
}

#: Counters that must be non-zero in the golden, per case: the proof that
#: the fork each case exists for was actually taken.
EXERCISED = {
    "loader-faults": (
        "storage_retries", "fallback_requests", "latency_spikes",
    ),
    "loader-faults-replication": ("replica_redirects", "rebuild_pages"),
    "loader-faults-parity-verify-full": (
        "parity_reconstructs", "corrupt_detected", "verified_pages",
    ),
    "loader-verify-sample-scrub": (
        "unverified_pages", "scrubbed_pages", "fallback_requests",
    ),
    "loader-rebuild-only": ("fallback_requests",),
    "bam-faults": ("storage_retries", "fallback_requests"),
    "serve-protected-kill-replication": (
        "replica_redirects", "storage_retries",
    ),
    "serve-protected-kill-bare": ("fallback_requests", "storage_retries"),
    "fleet-dropout-replication": ("replica_redirects",),
    "fullgraph-faults-verify-replication": (
        "replica_redirects", "corrupt_detected", "storage_retries",
    ),
    "fullgraph-faults-sample-parity": (
        "parity_reconstructs", "unverified_pages",
    ),
    "fullgraph-faults-bare": ("fallback_requests",),
    "baseline-mmap-neighbor": ("page_faults", "page_cache_hits"),
    "baseline-mmap-ladies": ("page_cache_hits",),
    "baseline-ginex": ("storage_requests", "page_cache_hits"),
    "baseline-ginex-faults-verify-sample": (
        "storage_retries", "fallback_requests", "latency_spikes",
        "verified_pages", "corrupt_detected",
    ),
}


def _load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("case", sorted(CASES))
def test_matches_golden(case):
    golden = _load_golden()[case]
    # Round-trip through JSON so tuples/lists and int/float keys compare
    # the way they were stored; floats survive exactly (repr round-trip).
    actual = json.loads(json.dumps(_canonical(CASES[case]())))
    assert sorted(actual) == sorted(golden)
    for key in golden:
        assert actual[key] == golden[key], f"{case}: {key} diverged"


@pytest.mark.parametrize("case", sorted(EXERCISED))
def test_golden_exercises_its_fork(case):
    counters = _load_golden()[case]["counters"]
    for name in EXERCISED[case]:
        assert counters[name] > 0, f"{case} never exercised {name}"


def main(names: list[str]) -> None:
    """Rewrite the named cases (all of them without names), keeping every
    other entry as it is; a named case no longer in :data:`CASES` is
    dropped."""
    golden = _load_golden() if names else {}
    for name in names or sorted(CASES):
        if name in CASES:
            golden[name] = _canonical(CASES[name]())
        else:
            del golden[name]
    GOLDEN_PATH.write_text(canonical_text(golden), encoding="utf-8")
    print(f"wrote {len(names or CASES)} case(s) to {GOLDEN_PATH}")
