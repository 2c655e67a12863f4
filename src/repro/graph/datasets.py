"""Dataset registry: the paper's graphs (Tables 2-4) and scaled replicas.

Each :class:`DatasetSpec` records the *published* characteristics of a paper
dataset; :func:`load_scaled` synthesizes a graph with the same average degree,
degree skew, feature dimension and node-type mix, shrunk by ``scale``.  All
derived sizes (feature bytes, structure bytes) are computed from the actual
generated graph, so cache/buffer/memory ratios configured against them are
exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DatasetError
from ..utils import as_rng
from .csr import CSRGraph
from .generators import power_law_graph
from .hetero import HeteroGraph, stack_types

#: Bytes per feature element (float32 features throughout the paper).
FEATURE_ELEMENT_BYTES = 4
#: Bytes per structure index (int64 indptr/indices).
INDEX_BYTES = 8


@dataclass(frozen=True)
class DatasetSpec:
    """Published characteristics of one evaluation dataset.

    ``node_type_mix`` lists (type name, fraction of nodes) for heterogeneous
    graphs; homogeneous graphs use a single implicit type.
    ``train_fraction`` is the share of nodes used as mini-batch seeds.
    """

    name: str
    num_nodes: int
    num_edges: int
    feature_dim: int
    heterogeneous: bool = False
    node_type_mix: tuple[tuple[str, float], ...] = ()
    train_fraction: float = 0.01
    #: Degree skew passed to the generator; citation graphs are heavy-tailed.
    skew: float = 0.8
    #: Total on-disk size published in Table 4 of the paper, in bytes.
    #: Differs from our computed size where the original stores features at
    #: reduced precision or only for a subset of node types (MAG240M).
    #: Capacity ratios (CPU memory vs dataset) are derived from this number
    #: so fits-in-memory behavior matches the paper.  ``None`` falls back to
    #: the computed size.
    reported_total_bytes: float | None = None
    #: Feature-data share of the total published in Table 4 (percent).
    reported_feature_pct: float | None = None
    #: Structure-data share published in Table 4 (percent).
    reported_structure_pct: float | None = None

    def __post_init__(self) -> None:
        if self.num_nodes <= 0 or self.num_edges < 0:
            raise DatasetError(f"{self.name}: invalid node/edge counts")
        if self.feature_dim <= 0:
            raise DatasetError(f"{self.name}: feature dim must be positive")
        if not 0.0 < self.train_fraction <= 1.0:
            raise DatasetError(f"{self.name}: bad train fraction")
        if self.heterogeneous and not self.node_type_mix:
            raise DatasetError(
                f"{self.name}: heterogeneous datasets need a node type mix"
            )

    @property
    def avg_degree(self) -> float:
        return self.num_edges / self.num_nodes

    @property
    def feature_bytes_per_node(self) -> int:
        return self.feature_dim * FEATURE_ELEMENT_BYTES

    @property
    def feature_data_bytes(self) -> int:
        """Size of the full-scale feature table in bytes."""
        return self.num_nodes * self.feature_bytes_per_node

    @property
    def structure_data_bytes(self) -> int:
        """Size of the full-scale CSR structure in bytes."""
        return INDEX_BYTES * (self.num_nodes + 1 + self.num_edges)

    @property
    def total_bytes(self) -> int:
        return self.feature_data_bytes + self.structure_data_bytes


#: Table 2 (real-world) and Table 3 (IGB micro-benchmark) datasets.
DATASETS: dict[str, DatasetSpec] = {
    spec.name: spec
    for spec in (
        # --- Table 2 ---
        DatasetSpec(
            name="ogbn-papers100M",
            num_nodes=111_059_956,
            num_edges=1_615_685_872,
            feature_dim=128,
            reported_total_bytes=77.4e9,
            reported_feature_pct=68.3,
            reported_structure_pct=31.0,
        ),
        DatasetSpec(
            name="IGB-Full",
            num_nodes=269_364_174,
            num_edges=3_995_777_033,
            feature_dim=1024,
            reported_total_bytes=1084e9,
            reported_feature_pct=94.7,
            reported_structure_pct=5.1,
        ),
        DatasetSpec(
            name="MAG240M",
            num_nodes=244_160_499,
            num_edges=1_728_364_232,
            feature_dim=768,
            heterogeneous=True,
            node_type_mix=(
                ("paper", 0.499),
                ("author", 0.5),
                ("institution", 0.001),
            ),
            reported_total_bytes=200e9,
            reported_feature_pct=86.7,
            reported_structure_pct=12.8,
        ),
        DatasetSpec(
            name="IGBH-Full",
            num_nodes=547_306_935,
            num_edges=5_812_005_639,
            feature_dim=1024,
            heterogeneous=True,
            node_type_mix=(
                ("paper", 0.492),
                ("author", 0.506),
                ("fos", 0.0015),
                ("institute", 0.0005),
            ),
            reported_total_bytes=2773e9,
            reported_feature_pct=96.0,
            reported_structure_pct=3.8,
        ),
        # --- Table 3 ---
        DatasetSpec(
            name="IGB-tiny",
            num_nodes=100_000,
            num_edges=547_416,
            feature_dim=1024,
        ),
        DatasetSpec(
            name="IGB-small",
            num_nodes=1_000_000,
            num_edges=12_070_502,
            feature_dim=1024,
        ),
        DatasetSpec(
            name="IGB-medium",
            num_nodes=10_000_000,
            num_edges=120_077_694,
            feature_dim=1024,
        ),
        DatasetSpec(
            name="IGB-large",
            num_nodes=100_000_000,
            num_edges=1_223_571_364,
            feature_dim=1024,
        ),
    )
}


def get_dataset_spec(name: str) -> DatasetSpec:
    """Look up a dataset by its paper name (case sensitive)."""
    try:
        return DATASETS[name]
    except KeyError:
        known = ", ".join(sorted(DATASETS))
        raise DatasetError(f"unknown dataset {name!r}; known: {known}") from None


@dataclass(frozen=True)
class ScaledDataset:
    """A synthetic replica of a paper dataset, shrunk by ``scale``.

    The graph is fully materialized; sizes below refer to the *generated*
    graph, so experiment configs built from them keep the paper's ratios.
    """

    spec: DatasetSpec
    scale: float
    graph: CSRGraph
    hetero: HeteroGraph | None
    train_ids: np.ndarray
    feature_dim: int

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges

    @property
    def feature_bytes_per_node(self) -> int:
        return self.feature_dim * FEATURE_ELEMENT_BYTES

    @property
    def feature_data_bytes(self) -> int:
        return self.num_nodes * self.feature_bytes_per_node

    @property
    def structure_data_bytes(self) -> int:
        return self.graph.structure_bytes(INDEX_BYTES)

    @property
    def total_bytes(self) -> int:
        return self.feature_data_bytes + self.structure_data_bytes


def load_scaled(
    name: str,
    scale: float,
    *,
    seed: int | np.random.Generator | None = 0,
    min_nodes: int = 1_000,
) -> ScaledDataset:
    """Generate a scaled replica of the dataset ``name``.

    Node and edge counts are multiplied by ``scale`` (preserving average
    degree); feature dimension, heterogeneity and degree skew are preserved.

    Args:
        name: a key of :data:`DATASETS`.
        scale: shrink factor in (0, 1]; 1.0 reproduces the published counts.
        seed: RNG seed or generator (generation is deterministic per seed).
        min_nodes: floor on the generated node count.
    """
    spec = get_dataset_spec(name)
    if not 0.0 < scale <= 1.0:
        raise DatasetError(f"scale must be in (0, 1], got {scale}")
    rng = as_rng(seed)
    num_nodes = max(min_nodes, int(round(spec.num_nodes * scale)))
    num_edges = int(round(spec.avg_degree * num_nodes))
    graph = power_law_graph(
        num_nodes, num_edges, skew=spec.skew, seed=rng
    )
    hetero: HeteroGraph | None = None
    if spec.heterogeneous:
        counts = _type_counts(spec, graph.num_nodes)
        hetero = stack_types(counts, graph)
    n_train = max(1, int(round(graph.num_nodes * spec.train_fraction)))
    if hetero is not None:
        # Seeds come from the primary (first-listed) node type, as in the
        # paper's node classification workloads (papers are the labeled type).
        candidates = hetero.nodes_of_type(spec.node_type_mix[0][0])
    else:
        candidates = np.arange(graph.num_nodes, dtype=np.int64)
    n_train = min(n_train, len(candidates))
    train_ids = rng.choice(candidates, size=n_train, replace=False)
    train_ids.sort()
    return ScaledDataset(
        spec=spec,
        scale=scale,
        graph=graph,
        hetero=hetero,
        train_ids=train_ids,
        feature_dim=spec.feature_dim,
    )


def _type_counts(spec: DatasetSpec, num_nodes: int) -> dict[str, int]:
    """Distribute ``num_nodes`` across the spec's node types by fraction."""
    fractions = np.array([f for _, f in spec.node_type_mix], dtype=np.float64)
    fractions = fractions / fractions.sum()
    counts = np.floor(fractions * num_nodes).astype(np.int64)
    counts[np.argmax(counts)] += num_nodes - counts.sum()
    return {
        name: int(count)
        for (name, _), count in zip(spec.node_type_mix, counts)
    }
