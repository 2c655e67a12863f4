"""Section 4.7: the ClusterGCN partitioning trade-off, quantified.

The paper declines to evaluate subgraph-based sampling because the
prerequisite METIS partitioning "is an extremely time-consuming process
for large-scale graph datasets like IGB (more than 2 days)", while GIDS
maps arbitrarily large datasets with no preprocessing.  This experiment
measures real partitioning cost (wall-clock of our from-scratch
partitioner) on growing IGB replicas, fits the per-edge cost, and
extrapolates to the full-scale edge counts — then contrasts it with the
GIDS dataloader's zero preprocessing plus warmup time on the same graph.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..config import INTEL_OPTANE
from ..core.gids import GIDSDataLoader
from ..graph.datasets import get_dataset_spec, load_scaled
from ..graph.partition import edge_cut, partition_graph
from ..sampling.cluster import ClusterSampler
from .experiments import ExperimentResult
from .workloads import get_workload


def section47_clustergcn(
    scales: tuple[float, ...] = (1e-4, 2e-4, 4e-4),
    num_parts: int = 32,
) -> ExperimentResult:
    """Partitioning cost vs graph size, extrapolated to IGB-Full."""
    rows = []
    per_edge_costs = []
    for scale in scales:
        dataset = load_scaled("IGB-Full", scale, seed=0)
        start = time.perf_counter()
        partition = partition_graph(
            dataset.graph, num_parts, refine_passes=1, seed=0
        )
        elapsed = time.perf_counter() - start
        cut = edge_cut(dataset.graph, partition.parts)
        per_edge = elapsed / max(1, dataset.num_edges)
        per_edge_costs.append(per_edge)
        rows.append(
            [
                f"IGB-Full x{scale:g}",
                f"{dataset.num_nodes:,}",
                f"{dataset.num_edges:,}",
                f"{elapsed:.2f}",
                f"{100 * cut / max(1, dataset.num_edges):.1f}",
                f"{partition.balance:.2f}",
            ]
        )

    per_edge = float(np.median(per_edge_costs))
    spec = get_dataset_spec("IGB-Full")
    extrapolated_hours = per_edge * spec.num_edges / 3600.0
    rows.append(
        [
            "IGB-Full x1 (extrapolated)",
            f"{spec.num_nodes:,}",
            f"{spec.num_edges:,}",
            f"~{extrapolated_hours:.1f} h",
            "-",
            "-",
        ]
    )

    # GIDS on the same (largest measured) replica: no preprocessing, only
    # its short cache warmup.
    workload = get_workload("IGB-Full")
    system = workload.system(INTEL_OPTANE)
    loader = GIDSDataLoader(
        workload.dataset,
        system,
        workload.loader_config(),
        batch_size=workload.batch_size,
        fanouts=workload.fanouts,
        hot_nodes=workload.hot_nodes,
        seed=0,
    )
    warm_report = loader.run(10, warmup=0)
    rows.append(
        [
            "GIDS preprocessing (none) + 10-iter warmup",
            f"{workload.dataset.num_nodes:,}",
            f"{workload.dataset.num_edges:,}",
            f"{warm_report.e2e_time:.4f}",
            "-",
            "-",
        ]
    )
    return ExperimentResult(
        experiment=f"Section 4.7: ClusterGCN partitioning cost "
        f"({num_parts} parts)",
        headers=["graph", "nodes", "edges", "seconds", "edge cut %",
                 "balance"],
        rows=rows,
        extras={
            "per_edge_seconds": per_edge,
            "extrapolated_hours": extrapolated_hours,
            "gids_warmup_seconds": warm_report.e2e_time,
        },
    )


@dataclass
class ClusterTrainingCheck:
    """Outcome of the functional ClusterGCN sanity run."""

    losses: list[float]
    batches: int


def clustergcn_functional_check(
    num_parts: int = 16,
    batches: int = 20,
) -> ClusterTrainingCheck:
    """Train GraphSAGE on ClusterGCN batches (functional completeness).

    Demonstrates the sampler integrates with the model even though the
    paper skips its evaluation — the losses must be finite and decreasing.
    """
    from ..storage.feature_store import FeatureStore
    from ..training.graphsage import GraphSAGE, synthetic_labels

    dataset = load_scaled("IGB-tiny", 0.03, seed=0)
    partition = partition_graph(dataset.graph, num_parts, seed=0)
    # All cluster members serve as seeds: cluster batches are few and
    # large, so a lower learning rate keeps full-batch updates stable.
    sampler = ClusterSampler(
        dataset.graph,
        partition,
        clusters_per_batch=2,
        num_layers=2,
        seed=1,
    )
    store = FeatureStore(dataset.num_nodes, dataset.feature_dim)
    model = GraphSAGE(
        dataset.feature_dim, 32, 4, num_layers=2, lr=0.01, seed=0
    )
    losses = []
    for _ in range(batches):
        batch = sampler.sample()
        features = store.fetch(batch.input_nodes)
        labels = synthetic_labels(store, batch.seeds, 4, seed=0)
        losses.append(model.train_step(batch, features, labels))
    return ClusterTrainingCheck(losses=losses, batches=batches)
