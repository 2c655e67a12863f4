"""Full-graph training workload: partition sweeps with activation offload.

See :mod:`repro.fullgraph.trainer` for the workload model and
``docs/FULLGRAPH.md`` for the accounting story.
"""

from .activations import ActivationStore
from .planner import MemoryPlan, MemoryPlanner
from .scheduler import PartitionSweepScheduler, SweepStep
from .trainer import (
    FULLGRAPH_LOADER_NAME,
    FullGraphConfig,
    FullGraphTrainer,
)

__all__ = [
    "ActivationStore",
    "MemoryPlan",
    "MemoryPlanner",
    "PartitionSweepScheduler",
    "SweepStep",
    "FULLGRAPH_LOADER_NAME",
    "FullGraphConfig",
    "FullGraphTrainer",
]
