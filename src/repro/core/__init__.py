"""The paper's contribution: the GIDS dataloader and its three techniques.

* :class:`DynamicAccessAccumulator` — iteration merging to keep enough
  storage requests in flight (Section 3.2).
* :class:`WindowBuffer` — mini-batch look-ahead that drives the GPU software
  cache's pinning ("USE") state (Section 3.4).
* :class:`GIDSDataLoader` — the full dataloader; :class:`BaMDataLoader` is
  the plain-BaM baseline (same storage path, none of the GIDS techniques).
"""

from .accumulator import DynamicAccessAccumulator
from .window import WindowBuffer
from .gids import GIDSDataLoader
from .bam import BaMDataLoader
from ..sim.ssd import contended_ssd
from .fleet import (
    CHAOS_SCENARIOS,
    ElasticFleetTrainer,
    FleetConfig,
    InterconnectSpec,
    check_invariants,
    partition_shards,
    replay_schedule,
    run_chaos_suite,
    shard_train_ids,
)

__all__ = [
    "DynamicAccessAccumulator",
    "WindowBuffer",
    "GIDSDataLoader",
    "BaMDataLoader",
    "contended_ssd",
    "partition_shards",
    "shard_train_ids",
    "CHAOS_SCENARIOS",
    "ElasticFleetTrainer",
    "FleetConfig",
    "InterconnectSpec",
    "check_invariants",
    "replay_schedule",
    "run_chaos_suite",
]
