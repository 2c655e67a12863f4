"""UVA zero-copy baseline: the whole dataset pinned in CPU memory.

DGL's UVA mode (Section 2.3) pins both the structure and the feature table
in CPU memory and lets GPU kernels sample and gather through zero-copy
accesses.  It is fast — data preparation runs on the GPU — but only valid
when the entire dataset fits in (usable) CPU memory; constructing this
loader for a larger dataset raises :class:`~repro.errors.CapacityError`,
mirroring the hard limit that motivates GIDS.
"""

from __future__ import annotations

import numpy as np

from ..config import SystemConfig
from ..core import readpath
from ..errors import CapacityError
from ..graph.datasets import ScaledDataset
from ..pipeline.loader import MiniBatchLoader
from ..pipeline.metrics import IterationMetrics, StageTimes
from ..sampling.minibatch import MiniBatch
from ..sim.counters import TransferCounters


class UVALoader(MiniBatchLoader):
    """GPU data preparation over CPU-pinned memory (no storage involved).

    UVA needs no cache warm-up, so :meth:`run` measures from the first
    iteration by default.
    """

    name = "DGL-UVA"

    def __init__(
        self,
        dataset: ScaledDataset,
        system: SystemConfig,
        *,
        batch_size: int = 1024,
        fanouts: tuple[int, ...] = (10, 5, 5),
        features: np.ndarray | None = None,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        if dataset.total_bytes > system.usable_cpu_memory:
            raise CapacityError(
                f"{dataset.name} needs {dataset.total_bytes} bytes pinned but "
                f"only {system.usable_cpu_memory:.0f} bytes of CPU memory are "
                "usable; UVA requires the whole dataset in CPU memory"
            )
        super().__init__(dataset, system, batch_size=batch_size, seed=seed)
        stack = readpath.StorageStack(dataset, system, features=features)
        self.store, self.gpu, self.pcie = stack.store, stack.gpu, stack.pcie
        self.sampler = self._build_sampler("neighbor", fanouts)

    def next_training_group(
        self, remaining: int
    ) -> list[tuple[MiniBatch, IterationMetrics]]:
        """Sample and serve one mini-batch."""
        batch = self._sample()
        n_nodes = batch.num_input_nodes
        feature_bytes = n_nodes * self.store.feature_bytes
        times = StageTimes(
            sampling=self.gpu.sampling_time(
                batch.num_sampled, n_kernels=batch.num_layers
            ),
            # Zero-copy gather streams features from pinned DRAM over PCIe.
            aggregation=feature_bytes / self.pcie.cpu_path_bandwidth,
            transfer=0.0,
            training=self.gpu.training_time(n_nodes),
        )
        counters = TransferCounters(
            cpu_buffer_requests=n_nodes,
            cpu_buffer_bytes=feature_bytes,
        )
        return self._advance([(batch, self._metrics(batch, times, counters))])
