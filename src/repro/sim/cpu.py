"""CPU-side execution model for data preparation.

The baseline dataloaders (DGL mmap, Ginex) run graph sampling and feature
gathering on the CPU.  Figure 3 of the paper shows that CPU request
generation plateaus at 4.1M feature requests/s (16 threads) — far below the
GPU training kernels' 29M/s consumption rate — and that page faults on
memory-mapped feature files add storage latency that the CPU cannot hide.
This model turns counted work (requests generated, pages faulted) into
simulated time using those calibrated rates.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import CPUSpec, SSDSpec
from ..errors import ConfigError


@dataclass(frozen=True)
class CPUModel:
    """Rate-based CPU execution model.

    Args:
        spec: calibrated CPU characteristics.
        threads: worker threads used for data preparation (16 in the paper's
            measurements, beyond which throughput plateaus).
    """

    spec: CPUSpec = CPUSpec()
    threads: int = 16

    def __post_init__(self) -> None:
        if self.threads <= 0:
            raise ConfigError(f"threads must be positive, got {self.threads}")

    @property
    def request_rate(self) -> float:
        """Feature-request generation rate (requests/s) at this thread count."""
        return self.spec.request_rate(self.threads)

    def sampling_time(self, n_sampled: int) -> float:
        """Time to run neighborhood sampling producing ``n_sampled`` nodes.

        Sampling is a pointer-chasing traversal; its throughput is bounded by
        the same request-generation plateau as gathering (Fig. 3 measures
        the two stages together as "data preparation").
        """
        if n_sampled < 0:
            raise ConfigError("n_sampled must be non-negative")
        return n_sampled / self.request_rate

    def gather_time_resident(self, n_features: int) -> float:
        """Time to gather ``n_features`` vectors that are memory-resident."""
        if n_features < 0:
            raise ConfigError("n_features must be non-negative")
        return n_features / self.request_rate

    def fault_service_time(
        self, n_faults: int, ssd: SSDSpec, *, threads: int | None = None
    ) -> float:
        """Time the OS paging path needs to fault in ``n_faults`` pages.

        Each fault costs the handler overhead plus a full device read; the
        on-demand paging path keeps only ``fault_queue_depth_per_thread``
        I/Os in flight per faulting thread, so faults are almost serial per
        thread — the reason mmap cannot hide storage latency (Section 2.3).

        Args:
            n_faults: pages to fault in.
            ssd: the backing device.
            threads: concurrently faulting threads; defaults to the model's
                worker count.  NumPy's ``memmap`` fancy-indexing gather — the
                paper's baseline implementation — faults from a *single*
                thread, so the mmap loader passes 1 here.
        """
        if n_faults < 0:
            raise ConfigError("n_faults must be non-negative")
        if n_faults == 0:
            return 0.0
        fault_threads = self.threads if threads is None else threads
        if fault_threads <= 0:
            raise ConfigError("fault thread count must be positive")
        per_fault = self.spec.page_fault_overhead_s + ssd.read_latency_s
        concurrency = fault_threads * self.spec.fault_queue_depth_per_thread
        # Faults also cannot exceed what the device itself can deliver.
        device_floor = n_faults / ssd.peak_iops
        return max(n_faults * per_fault / concurrency, device_floor)

    def async_io_rate(
        self,
        ssd: SSDSpec,
        num_ssds: int = 1,
        *,
        queue_depth_per_thread: int = 8,
        submit_overhead_s: float = 20e-6,
    ) -> float:
        """Achievable IOPS of CPU-initiated asynchronous storage reads.

        Used by the Ginex baseline, which issues batched async reads instead
        of faulting.  Three ceilings apply: the in-flight window over device
        latency (Little's law), the CPU cost of submitting and completing
        each I/O through the kernel storage stack, and the devices' peak.
        This is what "the CPU cannot fully hide storage latency" (Section 5)
        amounts to quantitatively.
        """
        if queue_depth_per_thread <= 0:
            raise ConfigError("queue depth must be positive")
        if submit_overhead_s <= 0:
            raise ConfigError("submit overhead must be positive")
        if num_ssds <= 0:
            raise ConfigError("num_ssds must be positive")
        in_flight = self.threads * queue_depth_per_thread
        latency_bound = in_flight / ssd.read_latency_s
        submit_bound = self.threads / submit_overhead_s
        device_bound = ssd.peak_iops * num_ssds
        return min(latency_bound, submit_bound, device_bound)
