"""Snapshot save/restore throughput: host wall time, so it stays a bench.

Writes, reads back and applies one mid-run training-pipeline snapshot and
prints the size and each phase's time.  The modeled claims about
supervised runs (cadence, crash recovery) are the ``checkpoint-resume``
experiment (``repro figure checkpoint-resume``).
"""

from __future__ import annotations

import os
import time

from repro import (
    INTEL_OPTANE,
    GIDSDataLoader,
    GraphSAGE,
    LoaderConfig,
    SystemConfig,
    TrainingPipeline,
    load_scaled,
)
from repro.checkpoint import read_snapshot, write_snapshot

_DATASET = load_scaled("IGB-tiny", 0.05, seed=3)
_SYSTEM = SystemConfig(ssd=INTEL_OPTANE, num_ssds=1)
_CONFIG = LoaderConfig(
    gpu_cache_bytes=_DATASET.feature_data_bytes * 0.05,
    cpu_buffer_fraction=0.10,
    window_depth=4,
)


def _make_pipeline():
    loader = GIDSDataLoader(
        _DATASET, _SYSTEM, _CONFIG, batch_size=64, fanouts=(5, 5), seed=1,
    )
    model = GraphSAGE(_DATASET.feature_dim, 16, 8, num_layers=2, seed=7)
    return TrainingPipeline(loader, model, num_classes=8)


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
