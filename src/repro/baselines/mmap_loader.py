"""DGL baseline dataloader with memory-mapped feature files (Fig. 4).

Graph structure is pinned in CPU memory; node features are memory-mapped
from storage.  Data preparation runs on the CPU: sampling traverses the
structure at the CPU's plateau request rate, and feature gathering reads the
mapped table through the OS page cache — a hit costs a DRAM access, a miss
costs a page fault whose latency the nearly synchronous paging path cannot
hide (Section 2.3).  Gathered features then cross PCIe to the GPU.

The page cache is *functional*: real page ids stream through a real LRU, so
the fault count reflects the actual locality of the sampled workload and
datasets smaller than CPU memory fault only until warm (which is why the
baseline is competitive on ogbn-papers100M and MAG240M, Figs. 13-14).
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from ..config import SystemConfig
from ..core import readpath
from ..graph.datasets import ScaledDataset
from ..pipeline.loader import MiniBatchLoader
from ..pipeline.metrics import IterationMetrics, StageTimes
from ..sampling.minibatch import MiniBatch
from ..sim.counters import TransferCounters
from ..sim.cpu import CPUModel
from ..sim.pagecache import PageCache

#: DGL's mmap path gathers with NumPy memmap fancy indexing, which faults
#: from a single thread.
FAULT_THREADS = 1


class DGLMmapLoader(MiniBatchLoader):
    """CPU data preparation over memory-mapped feature files.

    The paper warms the baseline for 1000 iterations; at our scaled dataset
    sizes the page cache reaches steady state much sooner, so :meth:`run`
    warms it for 100 by default.
    """

    name = "DGL-mmap"
    WARMUP = 100

    def __init__(
        self,
        dataset: ScaledDataset,
        system: SystemConfig,
        *,
        batch_size: int = 1024,
        fanouts: tuple[int, ...] = (10, 5, 5),
        sampler_kind: str = "neighbor",
        layer_sizes: tuple[int, ...] | None = None,
        threads: int = 16,
        features: np.ndarray | None = None,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        super().__init__(dataset, system, batch_size=batch_size, seed=seed)

        stack = readpath.StorageStack(dataset, system, features=features)
        self.store, self.layout = stack.store, stack.layout
        self.gpu, self.pcie = stack.gpu, stack.pcie
        self.cpu = CPUModel(system.cpu, threads=threads)
        self.sampler = self._build_sampler(sampler_kind, fanouts, layer_sizes)

        # The OS page cache gets whatever CPU memory the pinned structure
        # data leaves free.
        free_bytes = max(
            0.0, system.usable_cpu_memory - dataset.structure_data_bytes
        )
        self.page_cache = PageCache(
            capacity_pages=int(free_bytes // self.layout.page_bytes)
        )

    def next_training_group(
        self, remaining: int
    ) -> list[tuple[MiniBatch, IterationMetrics]]:
        """Sample one mini-batch and gather it through the page cache."""
        batch = self._sample()
        nodes = batch.input_nodes
        pages = self.layout.pages_for_nodes(nodes)
        hits, misses = self.page_cache.access(pages)

        sampling_time = self.cpu.sampling_time(batch.num_sampled)
        aggregation_time = self.cpu.gather_time_resident(
            len(nodes)
        ) + self.cpu.fault_service_time(
            misses, self.system.ssd, threads=FAULT_THREADS
        )
        feature_bytes = len(nodes) * self.store.feature_bytes
        transfer_time = self.pcie.transfer_time(feature_bytes)
        training_time = self.gpu.training_time(len(nodes))

        counters = TransferCounters(
            storage_requests=misses,
            storage_bytes=misses * self.layout.page_bytes,
            page_faults=misses,
            page_cache_hits=hits,
        )
        times = StageTimes(
            sampling=sampling_time,
            aggregation=aggregation_time,
            transfer=transfer_time,
            training=training_time,
        )
        return self._advance([(batch, self._metrics(batch, times, counters))])

    @contextmanager
    def _measurement(self):
        if self.page_cache.capacity_pages >= self.layout.total_pages:
            # The whole feature file fits in the page cache: after the
            # paper's 1000-iteration warmup the OS has effectively loaded
            # it (sequential faults at device bandwidth), so the measured
            # window sees no faults — the behavior Figs. 13-14 report for
            # ogbn-papers100M and MAG240M.  Nothing is ever evicted from a
            # cache this large, so loading after the warm-up leaves the
            # same resident set as loading before it.
            self.page_cache.access(
                np.arange(self.layout.total_pages, dtype=np.int64)
            )
        self.page_cache.reset_stats()
        yield
