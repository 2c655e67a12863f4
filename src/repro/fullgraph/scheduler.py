"""Deterministic sweep schedule over graph partitions.

An epoch of full-graph training is a fixed sequence of *partition steps*:
layer-synchronous forward sweeps (layer 0 over every partition, then
layer 1, ...) followed by the mirror-image backward sweeps (last layer
over partitions in reverse, down to layer 0).  Layer synchronicity makes
the blocked computation *exact*: every row of ``h_{l-1}`` exists before
any partition of layer ``l`` reads it, so halo exchange is a read of
already-final values, never a stale one.

The scheduler precomputes, per partition, the member rows, the halo
(boundary in-neighbors) and the in-edge block in CSR order — keeping the
per-destination edge order identical to the monolithic forward, which is
what makes sweep results independent of the partition count — and the
block's :class:`~repro.training.scatter.BlockPlan`: the graph is static, so
the index sorts behind aggregation happen here once, not in every step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import FullGraphError
from ..graph.csr import CSRGraph
from ..graph.partition import PartitionResult
from ..training.scatter import BlockPlan

#: Sweep phases in schedule order.
PHASES = ("forward", "backward")


@dataclass(frozen=True)
class SweepStep:
    """One partition step of an epoch's sweep schedule."""

    index: int
    phase: str
    layer: int
    part: int


class PartitionSweepScheduler:
    """Orders forward/backward sweeps and serves per-partition blocks.

    Args:
        graph: the full graph (CSR of in-edges).
        partition: node-to-part assignment covering the graph.
        num_layers: model depth; an epoch has
            ``2 * num_layers * num_parts`` steps.
    """

    def __init__(
        self,
        graph: CSRGraph,
        partition: PartitionResult,
        num_layers: int,
    ) -> None:
        if num_layers <= 0:
            raise FullGraphError("num_layers must be positive")
        if len(partition.parts) != graph.num_nodes:
            raise FullGraphError("partition does not cover this graph")
        self.graph = graph
        self.partition = partition
        self.num_layers = int(num_layers)

        src = graph.indices
        dst = np.repeat(
            np.arange(graph.num_nodes, dtype=np.int64), graph.degrees
        )
        dp = partition.parts[dst]
        self._members: list[np.ndarray] = []
        self._halos: list[np.ndarray] = []
        self._block_src: list[np.ndarray] = []
        self._block_dst: list[np.ndarray] = []
        self._block_plan: list[BlockPlan] = []
        for p in range(partition.num_parts):
            # Boolean-mask selection preserves CSR order, so each
            # destination sees its in-edges in exactly the monolithic
            # order (bit-identical aggregation).
            sel = dp == p
            self._members.append(partition.members(p))
            self._halos.append(partition.halo_nodes(graph, p))
            self._block_src.append(src[sel])
            self._block_dst.append(dst[sel])
            self._block_plan.append(
                BlockPlan.of_partition(
                    self._members[p], self._block_src[p], self._block_dst[p]
                )
            )
        self._steps = self._build_steps()

    # ------------------------------------------------------------------
    # Schedule

    def _build_steps(self) -> list[SweepStep]:
        steps: list[SweepStep] = []
        num_parts = self.partition.num_parts
        for layer in range(self.num_layers):
            for part in range(num_parts):
                steps.append(
                    SweepStep(len(steps), "forward", layer, part)
                )
        for layer in range(self.num_layers - 1, -1, -1):
            for part in range(num_parts - 1, -1, -1):
                steps.append(
                    SweepStep(len(steps), "backward", layer, part)
                )
        return steps

    @property
    def steps_per_epoch(self) -> int:
        return len(self._steps)

    def step(self, index: int) -> SweepStep:
        """The epoch-relative step at ``index`` (wraps across epochs)."""
        if index < 0:
            raise FullGraphError("step index must be non-negative")
        return self._steps[index % len(self._steps)]

    def steps(self) -> list[SweepStep]:
        """One epoch's steps, in execution order."""
        return list(self._steps)

    # ------------------------------------------------------------------
    # Per-partition blocks

    def members(self, part: int) -> np.ndarray:
        """Sorted node rows computed when sweeping ``part``."""
        return self._members[part]

    def halo(self, part: int) -> np.ndarray:
        """Sorted outside in-neighbors whose values ``part`` must fetch."""
        return self._halos[part]

    def block_edges(self, part: int) -> tuple[np.ndarray, np.ndarray]:
        """Global ``(src, dst)`` in-edges with every dst inside ``part``."""
        return self._block_src[part], self._block_dst[part]

    def block_plan(self, part: int) -> BlockPlan:
        """Aggregation index plan of :meth:`block_edges` over
        :meth:`members`, built once at construction."""
        return self._block_plan[part]

    def visitation_counts(self) -> np.ndarray:
        """How often each node is computed in one layer sweep.

        The exactly-once invariant of partition sweeps: this is all-ones
        for any valid partition (asserted by the trainer each epoch).
        """
        counts = np.zeros(self.graph.num_nodes, dtype=np.int64)
        for members in self._members:
            counts[members] += 1
        return counts

    def edge_cut_stats(self) -> list[dict]:
        """Per-partition cut/halo accounting (delegates to the partition)."""
        return self.partition.edge_cut_stats(self.graph)
