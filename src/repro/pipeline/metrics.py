"""Per-iteration and per-run metrics for the GNN training pipeline.

The paper's pipeline has four stages (Section 2.2): graph sampling, feature
aggregation, data transfer and model training.  Every loader reports modeled
time per stage per iteration; :class:`RunReport` aggregates them into the
quantities the figures plot (stage breakdowns, effective bandwidths,
end-to-end time with or without prep/train overlap).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import PipelineError
from ..sim.counters import TransferCounters
from ..state import StateRecord, child, children, scalar

#: Pipeline stage names in execution order.
STAGES = ("sampling", "aggregation", "transfer", "training")


@dataclass
class StageTimes(StateRecord):
    """Modeled seconds spent in each pipeline stage for one iteration."""

    sampling: float = 0.0
    aggregation: float = 0.0
    transfer: float = 0.0
    training: float = 0.0

    def __post_init__(self) -> None:
        for stage in STAGES:
            if getattr(self, stage) < 0:
                raise PipelineError(f"negative time for stage {stage!r}")

    @property
    def preparation(self) -> float:
        """Data-preparation time: everything except model training."""
        return self.sampling + self.aggregation + self.transfer

    @property
    def total(self) -> float:
        return self.preparation + self.training

    def add(self, other: "StageTimes") -> None:
        self.sampling += other.sampling
        self.aggregation += other.aggregation
        self.transfer += other.transfer
        self.training += other.training

    STATE = tuple(scalar(stage, float) for stage in STAGES)


@dataclass
class IterationMetrics(StateRecord):
    """One training iteration's work and modeled time."""

    times: StageTimes
    num_seeds: int
    num_input_nodes: int
    num_sampled: int
    num_edges: int
    counters: TransferCounters

    STATE = (
        child("times", cls=StageTimes),
        scalar("num_seeds", int),
        scalar("num_input_nodes", int),
        scalar("num_sampled", int),
        scalar("num_edges", int),
        child("counters", cls=TransferCounters),
    )


@dataclass
class RunReport(StateRecord):
    """Aggregated results of a measured training run.

    ``overlapped`` marks loaders whose data preparation runs ahead of
    training (GIDS with the accumulator decouples the stages, Section 3.2),
    in which case end-to-end time is the maximum of the two streams rather
    than their sum.
    """

    loader_name: str
    iterations: list[IterationMetrics] = field(default_factory=list)
    overlapped: bool = False

    def append(self, metrics: IterationMetrics) -> None:
        self.iterations.append(metrics)

    @property
    def num_iterations(self) -> int:
        return len(self.iterations)

    @property
    def stage_totals(self) -> StageTimes:
        totals = StageTimes()
        for it in self.iterations:
            totals.add(it.times)
        return totals

    @property
    def e2e_time(self) -> float:
        """End-to-end modeled time of the measured iterations."""
        totals = self.stage_totals
        if self.overlapped:
            return max(totals.preparation, totals.training)
        return totals.total

    @property
    def counters(self) -> TransferCounters:
        merged = TransferCounters()
        for it in self.iterations:
            merged.merge(it.counters)
        return merged

    @property
    def total_input_nodes(self) -> int:
        return sum(it.num_input_nodes for it in self.iterations)

    @property
    def aggregation_time(self) -> float:
        return self.stage_totals.aggregation

    @property
    def effective_aggregation_bandwidth(self) -> float:
        """Feature bytes served per second of aggregation time (Fig. 10)."""
        agg = self.aggregation_time
        if agg == 0:
            return 0.0
        return self.counters.total_feature_bytes / agg

    @property
    def pcie_ingress_bandwidth(self) -> float:
        """Bytes crossing PCIe per second of aggregation time (Fig. 9)."""
        agg = self.aggregation_time
        if agg == 0:
            return 0.0
        return self.counters.ingress_bytes / agg

    @property
    def gpu_cache_hit_ratio(self) -> float:
        return self.counters.gpu_cache_hit_ratio

    @property
    def total_retries(self) -> int:
        """Storage commands re-issued after injected failures."""
        return self.counters.storage_retries

    @property
    def total_fallbacks(self) -> int:
        """Reads served by the degraded-mode CPU/feature-store path."""
        return self.counters.fallback_requests

    def resilience_summary(self) -> dict[str, float]:
        """Fault/retry/fallback view of the run (all zero when healthy)."""
        counters = self.counters
        return {
            "injected_faults": counters.injected_faults,
            "storage_retries": counters.storage_retries,
            "latency_spikes": counters.latency_spikes,
            "fallback_requests": counters.fallback_requests,
            "fallback_bytes": counters.fallback_bytes,
            "fallback_fraction": counters.fallback_fraction,
            "retry_timeouts": counters.retry_timeouts,
            "replica_redirects": counters.replica_redirects,
            "parity_reconstructs": counters.parity_reconstructs,
            "reconstruct_reads": counters.reconstruct_reads,
            "rebuild_pages": counters.rebuild_pages,
        }

    def integrity_summary(self) -> dict[str, float]:
        """Data-integrity view of the run (all zero when the layer is off).

        ``consistent`` asserts the layer's core invariant: every detected
        corruption ended as a repair or a quarantine.
        """
        counters = self.counters
        return {
            "verified_pages": counters.verified_pages,
            "unverified_pages": counters.unverified_pages,
            "corrupt_detected": counters.corrupt_detected,
            "corrupt_repaired": counters.corrupt_repaired,
            "corrupt_quarantined": counters.corrupt_quarantined,
            "integrity_rereads": counters.integrity_rereads,
            "scrubbed_pages": counters.scrubbed_pages,
            "consistent": (
                counters.corrupt_detected
                == counters.corrupt_repaired + counters.corrupt_quarantined
            ),
        }

    def breakdown_fractions(self) -> dict[str, float]:
        """Share of serialized time per stage (the Fig. 5 bars)."""
        totals = self.stage_totals
        if totals.total == 0:
            return {stage: 0.0 for stage in STAGES}
        return {
            stage: getattr(totals, stage) / totals.total for stage in STAGES
        }

    def time_per_iteration(self) -> float:
        if not self.iterations:
            raise PipelineError("run report holds no iterations")
        return self.e2e_time / self.num_iterations

    # ------------------------------------------------------------------
    # Checkpointing

    STATE = (
        scalar("loader_name", str),
        scalar("overlapped", bool),
        children("iterations", cls=IterationMetrics),
    )
