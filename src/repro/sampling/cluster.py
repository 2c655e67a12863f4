"""ClusterGCN-style subgraph sampling (Chiang et al., KDD'19).

The graph is partitioned ahead of time; each training iteration unions a
fixed number of randomly chosen clusters and trains on the *induced*
subgraph (every layer reuses the same induced edge set).  GIDS can serve
such batches too (Section 4.7), but the paper declines to evaluate the
scheme because the prerequisite partitioning step takes days at IGB
scale — the trade-off quantified by ``benchmarks/bench_clustergcn.py``.
"""

from __future__ import annotations

import numpy as np

from ..errors import SamplingError
from ..graph.csr import CSRGraph
from ..graph.partition import PartitionResult
from ..utils import as_rng
from .frontier import check_edge_keys, row_positions, unique_edges
from .minibatch import MiniBatch, SampledLayer


class ClusterSampler:
    """Samples mini-batches as unions of pre-computed clusters.

    Args:
        graph: the full CSR graph.
        partition: a node-to-cluster assignment (see
            :mod:`repro.graph.partition`).
        clusters_per_batch: clusters unioned per mini-batch.
        num_layers: message-passing layers (the induced edge set is reused
            for each).
        train_mask: optional boolean mask of labeled nodes; seeds are the
            labeled nodes inside the chosen clusters (all members when
            omitted).
        seed: RNG seed or generator.
    """

    def __init__(
        self,
        graph: CSRGraph,
        partition: PartitionResult,
        *,
        clusters_per_batch: int = 1,
        num_layers: int = 3,
        train_mask: np.ndarray | None = None,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        if len(partition.parts) != graph.num_nodes:
            raise SamplingError("partition does not cover this graph")
        if clusters_per_batch <= 0:
            raise SamplingError("clusters_per_batch must be positive")
        if clusters_per_batch > partition.num_parts:
            raise SamplingError("clusters_per_batch exceeds the part count")
        if num_layers <= 0:
            raise SamplingError("num_layers must be positive")
        if train_mask is not None:
            train_mask = np.asarray(train_mask, dtype=bool)
            if train_mask.shape != (graph.num_nodes,):
                raise SamplingError("train_mask must cover every node")
        check_edge_keys(graph.num_nodes)
        self.graph = graph
        self.partition = partition
        self.clusters_per_batch = clusters_per_batch
        self.num_layers = num_layers
        self.train_mask = train_mask
        self._rng = as_rng(seed)

    def sample(self, cluster_ids: np.ndarray | None = None) -> MiniBatch:
        """Build the mini-batch for a union of clusters.

        Args:
            cluster_ids: explicit clusters to union; drawn uniformly at
                random when omitted.
        """
        if cluster_ids is None:
            cluster_ids = self._rng.choice(
                self.partition.num_parts,
                size=self.clusters_per_batch,
                replace=False,
            )
        cluster_ids = np.unique(np.asarray(cluster_ids, dtype=np.int64))
        if len(cluster_ids) == 0:
            raise SamplingError("at least one cluster is required")
        if cluster_ids.min() < 0 or cluster_ids.max() >= self.partition.num_parts:
            raise SamplingError("cluster ids out of range")

        in_batch = np.isin(self.partition.parts, cluster_ids)
        nodes = np.flatnonzero(in_batch).astype(np.int64)
        if len(nodes) == 0:
            raise SamplingError("chosen clusters are empty")

        src, dst = self._induced_edges(nodes, in_batch)
        layer = SampledLayer(src=src, dst=dst)
        seeds = nodes
        if self.train_mask is not None:
            labeled = nodes[self.train_mask[nodes]]
            if len(labeled):
                seeds = labeled
        # Each layer reuses the induced subgraph; sampling work counts the
        # edge expansion once per layer (the cost ClusterGCN actually pays).
        num_sampled = len(nodes) + self.num_layers * layer.num_edges
        return MiniBatch(
            seeds=seeds,
            layers=tuple([layer] * self.num_layers),
            input_nodes=nodes,
            num_sampled=num_sampled,
        )

    def _induced_edges(
        self, nodes: np.ndarray, in_batch: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        graph = self.graph
        starts = graph.indptr[nodes]
        degrees = graph.indptr[nodes + 1] - starts
        total = int(degrees.sum())
        if total == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        dst = np.repeat(nodes, degrees)
        src = graph.indices[row_positions(starts, degrees)]
        keep = in_batch[src]
        keys = dst[keep] * graph.num_nodes + src[keep]
        return unique_edges(keys, graph.num_nodes)
