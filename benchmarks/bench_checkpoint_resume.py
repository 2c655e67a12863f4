"""Checkpoint/resume overhead and crash-recovery benchmarks.

Two experiments:

* a cadence sweep measuring snapshot size on disk and the wall-clock cost
  of a supervised run as ``checkpoint_every`` shrinks (checkpointing every
  iteration vs every 16), reporting bytes/snapshot and save/restore
  throughput;
* the acceptance scenario — a run killed twice by crash events and resumed
  from the snapshot ring — verifying losses and exported counters are
  bit-identical to an uninterrupted run.
"""

from __future__ import annotations

import os
import time

from repro import (
    INTEL_OPTANE,
    CheckpointStore,
    CrashEvent,
    FaultPlan,
    GIDSDataLoader,
    GraphSAGE,
    LoaderConfig,
    RunSupervisor,
    SupervisorConfig,
    SystemConfig,
    TrainingPipeline,
    load_scaled,
    report_to_dict,
)
from repro.bench.tables import render_table
from repro.checkpoint import read_snapshot, write_snapshot

BATCH_SIZE = 64
FANOUTS = (5, 5)
ITERATIONS = 32
CADENCES = (1, 4, 16)

_DATASET = load_scaled("IGB-tiny", 0.05, seed=3)
_SYSTEM = SystemConfig(ssd=INTEL_OPTANE, num_ssds=1)
_CONFIG = LoaderConfig(
    gpu_cache_bytes=_DATASET.feature_data_bytes * 0.05,
    cpu_buffer_fraction=0.10,
    window_depth=4,
)


def _make_pipeline(fault_plan=None):
    loader = GIDSDataLoader(
        _DATASET, _SYSTEM, _CONFIG,
        batch_size=BATCH_SIZE, fanouts=FANOUTS, seed=1,
        fault_plan=fault_plan,
    )
    model = GraphSAGE(_DATASET.feature_dim, 16, 8, num_layers=2, seed=7)
    return TrainingPipeline(loader, model, num_classes=8)


def sweep_cadence(tmp_root):
    """Supervised run cost and snapshot volume per checkpoint cadence."""
    cells = {}
    for cadence in CADENCES:
        directory = os.path.join(tmp_root, f"cadence-{cadence}")
        supervisor = RunSupervisor(
            _make_pipeline,
            CheckpointStore(directory),
            config=SupervisorConfig(checkpoint_every=cadence),
        )
        start = time.perf_counter()
        pipeline = supervisor.run(ITERATIONS)
        elapsed = time.perf_counter() - start
        cells[cadence] = (pipeline.losses, supervisor.summary, elapsed)
    return cells


def test_checkpoint_cadence_sweep(benchmark, tmp_path):
    cells = benchmark.pedantic(
        sweep_cadence, args=(str(tmp_path),), rounds=1, iterations=1
    )
    baseline = None
    rows = []
    for cadence in CADENCES:
        losses, summary, elapsed = cells[cadence]
        per_snapshot = summary.snapshot_bytes / summary.snapshots_written
        rows.append(
            [
                cadence,
                summary.snapshots_written,
                f"{per_snapshot / 1e6:.2f}",
                f"{summary.snapshot_bytes / 1e6:.2f}",
                f"{elapsed * 1e3:.1f}",
            ]
        )
        if baseline is None:
            baseline = losses
        else:
            # Cadence is pure persistence policy: it must not perturb the
            # training trajectory in any way.
            assert losses == baseline, cadence
        assert summary.snapshots_written >= ITERATIONS // cadence
    print()
    print(
        render_table(
            ["every N iters", "snapshots", "MB/snapshot", "MB total",
             "run ms"],
            rows,
            title="Checkpoint cadence sweep (32 training iterations)",
        )
    )


def measure_save_restore(tmp_root):
    """Raw snapshot write/read throughput for one mid-run pipeline state."""
    pipeline = _make_pipeline()
    pipeline.train(10)
    payload = pipeline.state_dict()
    path = os.path.join(tmp_root, "probe.bin")

    start = time.perf_counter()
    written = write_snapshot(path, payload)
    save_s = time.perf_counter() - start

    start = time.perf_counter()
    restored = read_snapshot(path)
    load_s = time.perf_counter() - start

    fresh = _make_pipeline()
    start = time.perf_counter()
    fresh.load_state_dict(restored)
    apply_s = time.perf_counter() - start
    return written, save_s, load_s, apply_s, fresh


def test_snapshot_save_restore_overhead(benchmark, tmp_path):
    written, save_s, load_s, apply_s, fresh = benchmark.pedantic(
        measure_save_restore, args=(str(tmp_path),), rounds=1, iterations=1
    )
    assert written > 0
    assert fresh.completed_steps == 10
    print()
    print(
        f"snapshot {written / 1e6:.2f} MB: "
        f"save {save_s * 1e3:.2f} ms "
        f"({written / save_s / 1e9:.2f} GB/s), "
        f"read {load_s * 1e3:.2f} ms, "
        f"apply {apply_s * 1e3:.2f} ms"
    )


def run_crash_recovery(tmp_root):
    """The acceptance scenario: two crashes, resume, compare bit-for-bit."""
    reference = _make_pipeline().train(ITERATIONS)

    plan = FaultPlan(crash_events=(CrashEvent(9), CrashEvent(23)))
    supervisor = RunSupervisor(
        lambda: _make_pipeline(plan),
        CheckpointStore(os.path.join(tmp_root, "crashes")),
        config=SupervisorConfig(checkpoint_every=6),
    )
    pipeline = supervisor.run(ITERATIONS)
    return reference, pipeline, supervisor.summary


def test_crash_recovery_bit_identical(benchmark, tmp_path):
    reference, pipeline, summary = benchmark.pedantic(
        run_crash_recovery, args=(str(tmp_path),), rounds=1, iterations=1
    )
    assert summary.crashes == 2
    assert summary.restores == 2
    assert pipeline.losses == reference.losses
    assert (
        pipeline.final_train_accuracy()
        == reference.final_train_accuracy()
    )
    supervised = report_to_dict(pipeline.report)
    unsupervised = report_to_dict(reference.report)
    assert supervised == unsupervised
    print()
    print(
        f"survived {summary.crashes} crashes with "
        f"{summary.snapshots_written} snapshots "
        f"({summary.snapshot_bytes / 1e6:.1f} MB), "
        f"losses bit-identical across "
        f"{pipeline.completed_steps} iterations"
    )
