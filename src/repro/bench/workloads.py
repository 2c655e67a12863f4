"""Scaled evaluation workloads with the paper's capacity ratios preserved.

Every experiment in the paper is defined by a dataset plus a set of
capacities (usable CPU memory, GPU cache size, CPU buffer fraction) and a
sampling workload (batch size, fanouts).  Shrinking the dataset by a factor
``s`` while shrinking all byte capacities by the *same* factor preserves
every ratio the results depend on — cache:dataset, page-cache:dataset,
buffer:dataset.

One more ratio matters for temporal locality: the fraction of the dataset a
single mini-batch touches.  At full scale a 4096-seed, 3-layer batch
gathers on the order of :data:`FULL_SCALE_BATCH_INPUTS` unique node
features; we calibrate the scaled batch size so the scaled footprint
fraction matches, which keeps the GPU-cache and page-cache hit dynamics
comparable.

Datasets and hot-node rankings are cached per process so a benchmark
session pays graph generation and PageRank once per workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..config import (
    INTEL_OPTANE,
    LoaderConfig,
    SSDSpec,
    SystemConfig,
)
from ..errors import ConfigError
from ..graph.datasets import ScaledDataset, get_dataset_spec, load_scaled
from ..graph.pagerank import hot_node_ranking
from ..sampling.neighbor import NeighborSampler

#: Paper capacities (Table 1 / Section 4.1), in bytes at full scale.
PAPER_CPU_MEMORY = 512e9
PAPER_GPU_CACHE = 8e9
#: Assumed unique input nodes of one full-scale mini-batch (4096 seeds,
#: three sampling layers) — the calibration constant behind scaled batch
#: sizes.
FULL_SCALE_BATCH_INPUTS = 500_000

#: Default dataset shrink factors: chosen so benchmark graphs have a few
#: hundred thousand nodes (seconds of wall clock) while batch footprints
#: stay statistically meaningful (>= several hundred unique inputs).
DEFAULT_SCALES = {
    "IGB-Full": 0.002,
    "IGBH-Full": 0.001,
    "ogbn-papers100M": 0.005,
    "MAG240M": 0.002,
    "IGB-tiny": 1.0,
    "IGB-small": 0.3,
    "IGB-medium": 0.05,
    "IGB-large": 0.005,
}


@dataclass(frozen=True)
class Workload:
    """A ready-to-run scaled replica of one paper evaluation setup."""

    dataset: ScaledDataset
    batch_size: int
    fanouts: tuple[int, ...]
    hot_nodes: np.ndarray
    #: Shrink factor applied to all byte capacities.
    capacity_scale: float

    @property
    def name(self) -> str:
        return self.dataset.name

    def system(
        self, ssd: SSDSpec = INTEL_OPTANE, num_ssds: int = 1
    ) -> SystemConfig:
        """System config with the paper's CPU memory limit, scaled."""
        limit = min(
            PAPER_CPU_MEMORY * self.capacity_scale,
            SystemConfig().cpu.memory_bytes,
        )
        return SystemConfig(
            ssd=ssd, num_ssds=num_ssds, cpu_memory_limit_bytes=limit
        )

    def loader_config(self, **overrides) -> LoaderConfig:
        """GIDS defaults (8 GB cache, 10% buffer, depth 8), scaled."""
        kwargs = {
            "gpu_cache_bytes": PAPER_GPU_CACHE * self.capacity_scale,
            "cpu_buffer_fraction": 0.10,
            "window_depth": 8,
        }
        kwargs.update(overrides)
        return LoaderConfig(**kwargs)


def calibrate_batch_size(
    dataset: ScaledDataset,
    fanouts: tuple[int, ...],
    target_inputs: int,
    *,
    seed: int = 0,
    min_batch: int = 8,
    max_batch: int = 8192,
) -> int:
    """Batch size whose sampled footprint is roughly ``target_inputs``.

    Uses two secant steps on the (monotone) batch-size -> unique-inputs
    relation, measured on real sampled batches.
    """
    if target_inputs <= 0:
        raise ConfigError("target_inputs must be positive")
    sampler = NeighborSampler(dataset.graph, fanouts, seed=seed)
    rng = np.random.default_rng(seed)

    def inputs_for(batch: int) -> int:
        seeds = rng.choice(
            dataset.train_ids,
            size=min(batch, len(dataset.train_ids)),
            replace=False,
        )
        return sampler.sample(seeds).num_input_nodes

    batch = max(min_batch, min(max_batch, target_inputs // 20))
    for _ in range(3):
        measured = inputs_for(batch)
        if measured == 0:
            break
        ratio = target_inputs / measured
        if 0.8 <= ratio <= 1.25:
            break
        batch = int(np.clip(batch * ratio, min_batch, max_batch))
    return batch


@lru_cache(maxsize=16)
def get_workload(
    name: str,
    *,
    scale: float | None = None,
    fanouts: tuple[int, ...] = (10, 5, 5),
    seed: int = 0,
    batch_size: int | None = None,
) -> Workload:
    """Build (and cache) the scaled workload for dataset ``name``.

    Args:
        name: paper dataset name.
        scale: shrink factor; defaults to :data:`DEFAULT_SCALES`.
        fanouts: neighbor-sampling fanouts of the workload.
        seed: generation seed.
        batch_size: explicit batch size; calibrated from the footprint
            ratio when omitted.
    """
    if scale is None:
        scale = DEFAULT_SCALES.get(name, 0.01)
    spec = get_dataset_spec(name)
    dataset = load_scaled(name, scale, seed=seed)
    # Ratio capacities against the *published* on-disk size (Table 4) where
    # available: the original MAG240M/papers100M fit in the paper's 512 GB
    # CPU memory, and the fits-in-memory behavior must carry over.
    full_total = (
        spec.reported_total_bytes
        if spec.reported_total_bytes is not None
        else spec.total_bytes
    )
    capacity_scale = dataset.total_bytes / full_total

    if batch_size is None:
        footprint_fraction = FULL_SCALE_BATCH_INPUTS / spec.num_nodes
        target_inputs = max(200, int(dataset.num_nodes * footprint_fraction))
        batch_size = calibrate_batch_size(
            dataset, fanouts, target_inputs, seed=seed
        )

    seed_weights = np.zeros(dataset.num_nodes)
    seed_weights[dataset.train_ids] = 1.0
    hot = hot_node_ranking(
        dataset.graph, "reverse_pagerank", seed_weights=seed_weights
    )
    return Workload(
        dataset=dataset,
        batch_size=batch_size,
        fanouts=fanouts,
        hot_nodes=hot,
        capacity_scale=capacity_scale,
    )
