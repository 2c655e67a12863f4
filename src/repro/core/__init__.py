"""The paper's contribution: the GIDS dataloader and its three techniques.

* :mod:`repro.core.model` — the Eq. 2-3 analytic bandwidth model.
* :class:`DynamicAccessAccumulator` — iteration merging to keep enough
  storage requests in flight (Section 3.2).
* :class:`WindowBuffer` — mini-batch look-ahead that drives the GPU software
  cache's pinning ("USE") state (Section 3.4).
* :class:`GIDSDataLoader` — the full dataloader; :class:`BaMDataLoader` is
  the plain-BaM baseline (same storage path, none of the GIDS techniques).
"""

from .model import expected_iops, required_overlapping_accesses
from .accumulator import DynamicAccessAccumulator
from .window import WindowBuffer
from .gids import GIDSDataLoader
from .bam import BaMDataLoader
from .autotune import (
    WindowRecommendation,
    best_window_depth,
    measure_window_depths,
    recommend_window_depth,
)
from .multi_gpu import contended_ssd, partition_shards, shard_train_ids
from .fleet import (
    CHAOS_SCENARIOS,
    ElasticFleetTrainer,
    FleetConfig,
    FleetResult,
    InterconnectSpec,
    check_invariants,
    replay_schedule,
    run_chaos_suite,
)

__all__ = [
    "expected_iops",
    "required_overlapping_accesses",
    "DynamicAccessAccumulator",
    "WindowBuffer",
    "GIDSDataLoader",
    "BaMDataLoader",
    "WindowRecommendation",
    "best_window_depth",
    "measure_window_depths",
    "recommend_window_depth",
    "contended_ssd",
    "partition_shards",
    "shard_train_ids",
    "CHAOS_SCENARIOS",
    "ElasticFleetTrainer",
    "FleetConfig",
    "FleetResult",
    "InterconnectSpec",
    "check_invariants",
    "replay_schedule",
    "run_chaos_suite",
]
