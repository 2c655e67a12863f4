"""Graph substrate: adjacency structures, synthetic generators, datasets.

The generators produce power-law graphs with the node/edge/feature-dimension
ratios of the datasets used in the GIDS paper (IGB family, ogbn-papers100M,
MAG240M), scaled down by a configurable factor so the evaluation runs on a
laptop while preserving the cache-to-dataset size ratios that drive the
paper's results.
"""

from .csr import CSRGraph, from_coo
from .generators import power_law_graph
from .hetero import HeteroGraph
from .datasets import (
    DATASETS,
    DatasetSpec,
    ScaledDataset,
    get_dataset_spec,
    load_scaled,
)
from .pagerank import hot_node_ranking, pagerank, reverse_pagerank
from .partition import (
    PartitionResult,
    bfs_partition,
    edge_cut,
    partition_graph,
    refine_partition,
)

__all__ = [
    "CSRGraph",
    "from_coo",
    "power_law_graph",
    "HeteroGraph",
    "DATASETS",
    "DatasetSpec",
    "ScaledDataset",
    "get_dataset_spec",
    "load_scaled",
    "hot_node_ranking",
    "pagerank",
    "reverse_pagerank",
    "PartitionResult",
    "bfs_partition",
    "edge_cut",
    "partition_graph",
    "refine_partition",
]
