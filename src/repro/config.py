"""Hardware specifications and calibrated presets.

Every constant that the simulation substrate depends on lives here, sourced
from the GIDS paper (Table 1, Section 4.1 and 4.2, Figure 3):

* Intel Optane SSD: 11 us read latency, 1.5M peak IOPS at 4 KB.
* Samsung 980 Pro SSD: 324 us read latency, 0.7M peak IOPS at 4 KB.
* Kernel launch / initial software overhead: 25 us; termination: 5 us.
* PCIe Gen4 x16 GPU ingress: 32 GB/s.
* CPU data preparation plateaus at 4.1M feature requests/s (16 threads).
* GPU request generation: 77M req/s; training consumption: 29M req/s.
* NVIDIA A100: 40 GB HBM2 at 1555 GB/s.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import ConfigError

#: Storage page (cache-line) granularity used throughout the paper.
PAGE_BYTES = 4096


@dataclass(frozen=True)
class SSDSpec:
    """A single NVMe SSD as seen by the GPU.

    ``peak_iops`` and ``read_latency_s`` are for 4 KB random reads; the
    device-internal parallelism implied by Little's law
    (``peak_iops * read_latency_s``) determines how many requests must be in
    flight before the device saturates.

    ``seq_read_bandwidth`` / ``seq_write_bandwidth`` describe the *large
    sequential transfer* path (128 KB+ requests streaming through every
    channel), which on real NVMe devices is far faster than
    ``peak_iops * 4 KB``.  Mini-batch sampling never sees that path — it is
    exercised by full-graph partition sweeps and activation spill/reload
    (``repro.fullgraph``).  ``None`` falls back to the random-read ceiling
    so specs that predate the field stay valid.
    """

    name: str
    read_latency_s: float
    peak_iops: float
    page_bytes: int = PAGE_BYTES
    seq_read_bandwidth: float | None = None
    seq_write_bandwidth: float | None = None

    def __post_init__(self) -> None:
        if self.read_latency_s <= 0:
            raise ConfigError(f"{self.name}: read latency must be positive")
        if self.peak_iops <= 0:
            raise ConfigError(f"{self.name}: peak IOPS must be positive")
        if self.page_bytes <= 0:
            raise ConfigError(f"{self.name}: page size must be positive")
        if self.seq_read_bandwidth is not None and self.seq_read_bandwidth <= 0:
            raise ConfigError(
                f"{self.name}: sequential read bandwidth must be positive"
            )
        if self.seq_write_bandwidth is not None and self.seq_write_bandwidth <= 0:
            raise ConfigError(
                f"{self.name}: sequential write bandwidth must be positive"
            )

    @property
    def peak_bandwidth(self) -> float:
        """Peak sequential-equivalent read bandwidth in bytes/s."""
        return self.peak_iops * self.page_bytes

    @property
    def sequential_read_bandwidth(self) -> float:
        """Large-transfer sequential read bandwidth in bytes/s.

        Falls back to the 4 KB random-read ceiling when the spec does not
        model a distinct sequential path.
        """
        if self.seq_read_bandwidth is not None:
            return self.seq_read_bandwidth
        return self.peak_bandwidth

    @property
    def sequential_write_bandwidth(self) -> float:
        """Large-transfer sequential write bandwidth in bytes/s.

        Falls back to the sequential *read* bandwidth (and transitively to
        the random-read ceiling) when unspecified.
        """
        if self.seq_write_bandwidth is not None:
            return self.seq_write_bandwidth
        return self.sequential_read_bandwidth

    @property
    def internal_parallelism(self) -> float:
        """Requests that must be in flight to sustain peak IOPS (Little's law)."""
        return self.peak_iops * self.read_latency_s


@dataclass(frozen=True)
class PCIeSpec:
    """A PCIe link between the GPU and the rest of the system."""

    name: str = "PCIe Gen4 x16"
    bandwidth_bytes: float = 32e9

    def __post_init__(self) -> None:
        if self.bandwidth_bytes <= 0:
            raise ConfigError("PCIe bandwidth must be positive")


@dataclass(frozen=True)
class CPUSpec:
    """CPU-side data-preparation capability.

    The request-generation rate scales nearly linearly with threads up to
    ``plateau_threads`` and is flat beyond it (Figure 3: 4.1M req/s at 16
    threads on an EPYC 7702).
    """

    name: str = "AMD EPYC 7702"
    cores: int = 64
    memory_bytes: float = 1e12
    memory_bandwidth: float = 190e9
    plateau_threads: int = 16
    plateau_request_rate: float = 4.1e6
    #: CPU-side software cost of an OS page-fault (handler + page-table walk),
    #: paid on top of the storage device latency for every faulted page.
    page_fault_overhead_s: float = 15e-6
    #: Outstanding storage I/Os the OS paging path can keep in flight per
    #: faulting thread.  mmap-style on-demand random paging is synchronous
    #: (no useful readahead), which is why it cannot hide storage latency
    #: (Section 2.3).
    fault_queue_depth_per_thread: int = 1

    def __post_init__(self) -> None:
        if self.cores <= 0 or self.plateau_threads <= 0:
            raise ConfigError("CPU core/thread counts must be positive")
        if self.memory_bytes <= 0 or self.memory_bandwidth <= 0:
            raise ConfigError("CPU memory size/bandwidth must be positive")
        if self.plateau_request_rate <= 0:
            raise ConfigError("CPU request rate must be positive")

    def request_rate(self, threads: int) -> float:
        """Feature-request generation rate for ``threads`` worker threads."""
        if threads <= 0:
            raise ConfigError(f"thread count must be positive, got {threads}")
        effective = min(threads, self.plateau_threads)
        return self.plateau_request_rate * effective / self.plateau_threads


@dataclass(frozen=True)
class GPUSpec:
    """GPU execution-rate model (NVIDIA A100-40GB by default)."""

    name: str = "NVIDIA A100-40GB"
    memory_bytes: float = 40e9
    hbm_bandwidth: float = 1555e9
    sm_count: int = 108
    #: Feature-request generation rate of GPU sampling+aggregation (Fig. 3).
    request_generation_rate: float = 77e6
    #: Feature consumption rate of the training kernels (Fig. 3).
    training_consumption_rate: float = 29e6
    #: Software overhead from the start of a feature-aggregation kernel until
    #: the first storage request is issued (Section 4.2).
    kernel_launch_overhead_s: float = 25e-6
    #: Time between the last storage completion and kernel end (Section 4.2).
    kernel_termination_overhead_s: float = 5e-6

    def __post_init__(self) -> None:
        if self.memory_bytes <= 0 or self.hbm_bandwidth <= 0:
            raise ConfigError("GPU memory size/bandwidth must be positive")
        if self.request_generation_rate <= 0:
            raise ConfigError("GPU request generation rate must be positive")
        if self.training_consumption_rate <= 0:
            raise ConfigError("GPU consumption rate must be positive")


#: Intel Optane SSD (Section 4.2): 11 us latency, 1.5M IOPS @4 KB (~6 GB/s).
#: Sequential path from the P5800X datasheet: 7.2 GB/s read, 6.2 GB/s write.
INTEL_OPTANE = SSDSpec(
    name="Intel Optane SSD",
    read_latency_s=11e-6,
    peak_iops=1.5e6,
    seq_read_bandwidth=7.2e9,
    seq_write_bandwidth=6.2e9,
)

#: Samsung 980 Pro (Section 4.2): 324 us latency, 0.7M IOPS @4 KB (~2.8 GB/s).
#: Sequential path from the datasheet: 7.0 GB/s read, 5.0 GB/s write.
SAMSUNG_980PRO = SSDSpec(
    name="Samsung 980 Pro SSD",
    read_latency_s=324e-6,
    peak_iops=0.7e6,
    seq_read_bandwidth=7.0e9,
    seq_write_bandwidth=5.0e9,
)

#: A100 + EPYC presets matching Table 1.
A100 = GPUSpec()
EPYC_7702 = CPUSpec()
PCIE_GEN4_X16 = PCIeSpec()


@dataclass(frozen=True)
class SystemConfig:
    """A full evaluation system: one GPU, one CPU, one or more SSDs.

    ``cpu_memory_limit_bytes`` mirrors the paper's trick of locking part of
    CPU DRAM away so that large datasets exceed the usable CPU memory
    (Section 4.1: 512 GB usable out of 1 TB).
    """

    gpu: GPUSpec = A100
    cpu: CPUSpec = EPYC_7702
    pcie: PCIeSpec = PCIE_GEN4_X16
    ssd: SSDSpec = INTEL_OPTANE
    num_ssds: int = 1
    cpu_memory_limit_bytes: float | None = None

    def __post_init__(self) -> None:
        if self.num_ssds <= 0:
            raise ConfigError(f"need at least one SSD, got {self.num_ssds}")
        if self.cpu_memory_limit_bytes is not None:
            if self.cpu_memory_limit_bytes <= 0:
                raise ConfigError("CPU memory limit must be positive")
            if self.cpu_memory_limit_bytes > self.cpu.memory_bytes:
                raise ConfigError(
                    "CPU memory limit exceeds the physical CPU memory"
                )

    @property
    def usable_cpu_memory(self) -> float:
        """CPU memory available to the training process, in bytes."""
        if self.cpu_memory_limit_bytes is None:
            return self.cpu.memory_bytes
        return self.cpu_memory_limit_bytes

    def with_ssd(self, ssd: SSDSpec, num_ssds: int | None = None) -> "SystemConfig":
        """Return a copy of this system with a different storage setup."""
        return replace(
            self, ssd=ssd, num_ssds=self.num_ssds if num_ssds is None else num_ssds
        )


@dataclass(frozen=True)
class LoaderConfig:
    """Tunable knobs of the GIDS dataloader (Section 4.1 defaults).

    Sizes are expressed in bytes of *simulated* hardware; dataset-relative
    quantities (CPU buffer fraction) are resolved against the dataset by the
    loader at construction time.
    """

    gpu_cache_bytes: float = 8e9
    cpu_buffer_fraction: float = 0.10
    window_depth: int = 8
    accumulator_enabled: bool = True
    #: Fraction of peak SSD IOPS the accumulator targets when sizing the
    #: required number of outstanding storage accesses (Section 4.2 uses 95%).
    accumulator_target: float = 0.95
    #: Hot-node ranking used to fill the constant CPU buffer.
    hot_node_metric: str = "reverse_pagerank"
    #: Upper bound on iterations the accumulator may merge/run ahead.
    max_merged_iterations: int = 64

    def __post_init__(self) -> None:
        if self.gpu_cache_bytes < 0:
            raise ConfigError("GPU cache size must be non-negative")
        if not 0.0 <= self.cpu_buffer_fraction <= 1.0:
            raise ConfigError("CPU buffer fraction must be within [0, 1]")
        if self.window_depth < 0:
            raise ConfigError("window depth must be non-negative")
        if not 0.0 < self.accumulator_target < 1.0:
            raise ConfigError("accumulator target must be within (0, 1)")
        if self.max_merged_iterations <= 0:
            raise ConfigError("max merged iterations must be positive")
        if self.hot_node_metric not in ("reverse_pagerank", "out_degree", "random"):
            raise ConfigError(
                f"unknown hot node metric {self.hot_node_metric!r}; expected "
                "'reverse_pagerank', 'out_degree' or 'random'"
            )
