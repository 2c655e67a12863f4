"""Mini-batch containers produced by the samplers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SamplingError
from ..state import StateRecord, array, children, scalar


@dataclass(frozen=True)
class SampledLayer(StateRecord):
    """One message-passing layer of a sampled subgraph.

    Edges are stored in COO form over *global* node ids: message flows from
    ``src[i]`` to ``dst[i]``; ``dst`` nodes belong to the layer above.
    """

    src: np.ndarray
    dst: np.ndarray

    STATE = (array("src", np.int64), array("dst", np.int64))

    def __post_init__(self) -> None:
        src = np.ascontiguousarray(self.src, dtype=np.int64)
        dst = np.ascontiguousarray(self.dst, dtype=np.int64)
        if src.shape != dst.shape or src.ndim != 1:
            raise SamplingError("src and dst must be 1-D arrays of equal length")
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)

    @property
    def num_edges(self) -> int:
        return len(self.src)


@dataclass(frozen=True)
class MiniBatch(StateRecord):
    """A sampled computational graph for one training iteration.

    Attributes:
        seeds: the labeled target nodes of this iteration.
        layers: sampled bipartite layers ordered from the *input* layer (the
            k-hop frontier) to the layer feeding the seeds, the order a GNN
            forward pass consumes them.
        input_nodes: unique node ids whose feature vectors must be gathered
            (the union of seeds and every sampled node).
        num_sampled: total sampled node *instances* across layers, i.e. the
            amount of sampling work (drives the rate-based time models).
    """

    seeds: np.ndarray
    layers: tuple[SampledLayer, ...]
    input_nodes: np.ndarray
    num_sampled: int

    def __post_init__(self) -> None:
        seeds = np.ascontiguousarray(self.seeds, dtype=np.int64)
        inputs = np.ascontiguousarray(self.input_nodes, dtype=np.int64)
        object.__setattr__(self, "seeds", seeds)
        object.__setattr__(self, "input_nodes", inputs)
        object.__setattr__(self, "layers", tuple(self.layers))
        if len(seeds) == 0:
            raise SamplingError("a mini-batch needs at least one seed")
        if self.num_sampled < 0:
            raise SamplingError("num_sampled must be non-negative")

    @property
    def num_input_nodes(self) -> int:
        return len(self.input_nodes)

    @property
    def num_edges(self) -> int:
        return sum(layer.num_edges for layer in self.layers)

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    # ------------------------------------------------------------------
    # Checkpointing

    STATE = (
        array("seeds", np.int64),
        children("layers", cls=SampledLayer, into=tuple),
        array("input_nodes", np.int64),
        scalar("num_sampled", int),
    )
