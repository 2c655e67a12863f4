"""Dynamic storage access accumulator (Section 3.2).

Graph sampling and feature aggregation of iteration ``i+k`` are logically
independent of model training of iteration ``i`` — training only updates
model weights.  The accumulator exploits this: it keeps sampling future
iterations and merging their feature-aggregation work into one storage batch
until the number of outstanding *storage* accesses crosses the threshold the
Eq. 2-3 model says is needed for the target fraction of peak SSD IOPS.

Because GIDS redirects part of the accesses to the GPU software cache and
the constant CPU buffer, the threshold is expressed in *node* accesses and
continuously re-scaled by the observed redirect fraction: if 40% of accesses
never reach storage, 1/0.6 times more node accesses must be accumulated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigError
from ..sim.ssd import SSDArray
from ..state import Stateful, guard, scalar
from ..telemetry.tracer import Tracer, ensure_tracer


@dataclass
class DynamicAccessAccumulator(Stateful):
    """Tracks the iteration-merging threshold for one SSD array.

    Args:
        array: the attached SSD array.
        target_fraction: fraction of peak IOPS to aim for (0.95 default,
            matching Section 4.2's working point).
        max_merged_iterations: safety cap on run-ahead depth, bounding the
            mini-batch buffer memory (Section 3.2 warns against unbounded
            merging).
        redirect_smoothing: exponential smoothing factor for the observed
            redirect fraction.
    """

    array: SSDArray
    target_fraction: float = 0.95
    max_merged_iterations: int = 64
    redirect_smoothing: float = 0.3

    _redirect_fraction: float = field(default=0.0, init=False)
    _observed: bool = field(default=False, init=False)
    #: Telemetry tracer (the owning loader attaches its own; excluded
    #: from comparison/repr so instrumented accumulators still compare
    #: equal to untraced ones).
    tracer: Tracer = field(
        default_factory=ensure_tracer, init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if not 0.0 < self.target_fraction < 1.0:
            raise ConfigError("target_fraction must be in (0, 1)")
        if self.max_merged_iterations <= 0:
            raise ConfigError("max_merged_iterations must be positive")
        if not 0.0 < self.redirect_smoothing <= 1.0:
            raise ConfigError("redirect_smoothing must be in (0, 1]")

    @property
    def storage_threshold(self) -> int:
        """Outstanding *storage* accesses required (Eq. 2-3 inversion)."""
        return self.array.required_overlapping(self.target_fraction)

    @property
    def redirect_fraction(self) -> float:
        """Smoothed estimate of accesses served without touching storage."""
        return self._redirect_fraction

    @property
    def node_threshold(self) -> int:
        """Node accesses to accumulate, compensating for redirects.

        With redirect fraction ``r``, only ``1 - r`` of accumulated node
        accesses become storage requests, so the node-level threshold is the
        storage threshold scaled by ``1 / (1 - r)`` (Section 3.2: the
        accumulator "tracks the number of redirected storage accesses and
        dynamically adjusts the threshold value accordingly").
        """
        survivors = max(1.0 - self._redirect_fraction, 0.05)
        return int(round(self.storage_threshold / survivors))

    def observe(self, storage_accesses: int, total_accesses: int) -> None:
        """Feed back one merged batch's redirect outcome.

        Args:
            storage_accesses: requests that actually went to the SSDs.
            total_accesses: all feature requests of the batch.
        """
        if storage_accesses < 0 or total_accesses < 0:
            raise ConfigError("access counts must be non-negative")
        if storage_accesses > total_accesses:
            raise ConfigError("storage accesses cannot exceed total accesses")
        if total_accesses == 0:
            return
        sample = 1.0 - storage_accesses / total_accesses
        if not self._observed:
            self._redirect_fraction = sample
            self._observed = True
        else:
            alpha = self.redirect_smoothing
            self._redirect_fraction = (
                alpha * sample + (1.0 - alpha) * self._redirect_fraction
            )
        tracer = self.tracer
        if tracer.want_request_detail:
            tracer.instant(
                "accumulator.observe",
                "accumulator",
                redirect_fraction=self._redirect_fraction,
                node_threshold=self.node_threshold,
            )

    def should_merge_more(
        self, accumulated_nodes: int, merged_iterations: int
    ) -> bool:
        """Whether another future iteration should join the current batch."""
        if merged_iterations >= self.max_merged_iterations:
            return False
        return accumulated_nodes < self.node_threshold

    # ------------------------------------------------------------------
    # Checkpointing

    #: The adaptive phase state (smoothed redirect fraction).
    STATE = (
        guard("target_fraction"),
        guard("max_merged_iterations"),
        scalar("redirect_fraction", float, attr="_redirect_fraction"),
        scalar("observed", bool, attr="_observed"),
    )
