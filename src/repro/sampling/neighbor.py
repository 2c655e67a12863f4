"""GraphSAGE uniform neighborhood sampling (Section 2.2.2).

For every node in the current frontier, up to ``fanout`` in-neighbors are
selected uniformly at random; the union of the frontier and the sampled
neighbors becomes the frontier of the next (lower) layer, exactly like DGL's
``MultiLayerNeighborSampler`` blocks.

What a layer does: rows whose degree is at most the fanout contribute their
whole neighbor list; every other row contributes ``fanout`` draws *with
replacement*.  Both kinds become ``dst * num_nodes + src`` keys in one
array, which is sorted once; dropping adjacent equal keys removes repeated
draws and the generator's multi-edges together, and the surviving keys
decode to a block in ``(dst, src)`` order.  For high-degree rows the
collision probability is negligible, so the block matches GraphSAGE's "up
to k distinct neighbors" in all but a vanishing fraction of draws.
"""

from __future__ import annotations

import numpy as np

from ..errors import SamplingError
from ..graph.csr import CSRGraph
from ..utils import as_rng
from .frontier import (
    check_edge_keys,
    row_positions,
    sample_blocks,
    unique_edges,
)
from .minibatch import MiniBatch


class NeighborSampler:
    """Multi-layer uniform neighborhood sampler over a CSR graph.

    Args:
        graph: adjacency in in-neighbor orientation.
        fanouts: neighbors to sample per layer, ordered from the layer
            closest to the seeds outward (DGL convention), e.g. ``(10, 5, 5)``
            for three layers.
        seed: RNG seed or generator.
    """

    def __init__(
        self,
        graph: CSRGraph,
        fanouts: tuple[int, ...],
        *,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        if len(fanouts) == 0:
            raise SamplingError("fanouts must contain at least one layer")
        if any(f <= 0 for f in fanouts):
            raise SamplingError(f"fanouts must be positive, got {fanouts}")
        check_edge_keys(graph.num_nodes)
        self.graph = graph
        self.fanouts = tuple(int(f) for f in fanouts)
        self._rng = as_rng(seed)

    @property
    def num_layers(self) -> int:
        return len(self.fanouts)

    def sample(self, seeds: np.ndarray) -> MiniBatch:
        """Sample the computational graph for one batch of seed nodes."""
        return sample_blocks(
            self.graph, seeds, self.fanouts, self._sample_layer
        )

    def _sample_layer(
        self, frontier: np.ndarray, fanout: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sample up to ``fanout`` in-neighbors of every frontier node."""
        graph = self.graph
        num_nodes = graph.num_nodes
        starts = graph.indptr[frontier]
        degrees = graph.indptr[frontier + 1] - starts
        key_base = frontier * num_nodes

        # Low-degree nodes contribute their full neighbor list.
        is_big = degrees > fanout
        small = np.flatnonzero(~is_big)
        small_deg = degrees[small]
        positions = row_positions(starts[small], small_deg)
        keys = np.repeat(key_base[small], small_deg)

        # High-degree nodes: fanout draws with replacement, dedup after.
        big = np.flatnonzero(is_big)
        if big.size:
            picks = self._rng.integers(
                0, degrees[big][:, None], size=(len(big), fanout)
            )
            picks += starts[big][:, None]
            positions = np.concatenate([positions, picks.ravel()])
            keys = np.concatenate([keys, np.repeat(key_base[big], fanout)])

        keys += graph.indices[positions]
        return unique_edges(keys, num_nodes)
