"""Crash-safe checkpoint/resume and supervised runs.

Every stateful component of the stack exposes ``state_dict`` /
``load_state_dict`` (model weights + momentum, sampler and seed-stream RNG
positions, GPU cache contents and pinning counters, accumulator phase
state, window entries, simulated clocks, fault-injector stream), so a
training run snapshotted at iteration ``k`` and resumed continues
*bit-identically* — same losses, same counters, same report.

This package adds the persistence and lifecycle layers on top:

* :mod:`~repro.checkpoint.snapshot` — the versioned, CRC-checksummed,
  atomically-written on-disk format;
* :mod:`~repro.checkpoint.store` — a retained-snapshot ring that loads the
  newest snapshot passing its integrity check, skipping corrupted ones;
* :mod:`~repro.checkpoint.supervisor` — the one checkpoint loop: cadence,
  simulated crash events, a modeled-time watchdog and a bounded restart
  budget with exponential backoff, around any driver (the loader training
  pipeline, the full-graph sweep).
"""

from .snapshot import (
    SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
    read_snapshot,
    write_snapshot,
)
from .store import CheckpointStore, LoadedSnapshot
from .supervisor import (
    CheckpointSummary,
    RunSupervisor,
    SupervisorConfig,
)

__all__ = [
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_VERSION",
    "CheckpointStore",
    "CheckpointSummary",
    "LoadedSnapshot",
    "RunSupervisor",
    "SupervisorConfig",
    "read_snapshot",
    "write_snapshot",
]
