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

A layer of only a few rows — a served request's one seed — does the same
over Python lists instead: the array set-up costs more than the rows do.
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

#: A layer of fewer candidate edges than this (frontier rows x fanout) is
#: walked as Python lists: the array path costs 35-100 us of NumPy set-up
#: whatever its size.  ``benchmarks/bench_sampler.py`` sweeps both paths at
#: 5-160 edges on a sparse and a dense graph (``cutover_sweep`` in
#: ``BENCH_sampler.json``): lists win at every point up to 40 edges
#: (1.0-2.1x), the two are level at 80 (0.85-1.1x) and arrays win at 160
#: (1.15-1.85x).  The test is on edges, not rows: a loader's 8 seeds x
#: fanout 10 must stay on the array path, where a 16-row cutover cost
#: ``loader-miss`` 9%.  A served request (one seed, fanouts 5/5) is 5 edges,
#: then at most 30.
_LIST_PATH_MAX_EDGES = 48


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
        if len(frontier) * fanout < _LIST_PATH_MAX_EDGES:
            return self._sample_layer_lists(frontier, fanout)
        return self._sample_layer_arrays(frontier, fanout)

    def _sample_layer_arrays(
        self, frontier: np.ndarray, fanout: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """A layer as whole-frontier array operations and one key sort."""
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

    def _sample_layer_lists(
        self, frontier: np.ndarray, fanout: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """The same layer for a handful of rows, walked as Python lists.

        One ``integers`` call of the array path's shape and bounds, so the
        generator advances identically; a set stands in for the key sort.
        """
        graph = self.graph
        num_nodes = graph.num_nodes
        starts = graph.indptr[frontier].tolist()
        ends = graph.indptr[frontier + 1].tolist()
        positions: list[int] = []
        key_base: list[int] = []
        big: list[tuple[int, int]] = []
        big_degrees: list[int] = []
        for node, start, end in zip(frontier.tolist(), starts, ends):
            if end - start > fanout:
                big.append((node * num_nodes, start))
                big_degrees.append(end - start)
            else:
                positions.extend(range(start, end))
                key_base.extend([node * num_nodes] * (end - start))
        if big:
            picks = self._rng.integers(
                0,
                np.array(big_degrees, dtype=np.int64)[:, None],
                size=(len(big), fanout),
            )
            for (base, start), row in zip(big, picks.tolist()):
                positions.extend([start + pick for pick in row])
                key_base.extend([base] * fanout)
        sources = graph.indices[positions].tolist()
        keys = np.array(
            sorted({base + src for base, src in zip(key_base, sources)}),
            dtype=np.int64,
        )
        dst = keys // num_nodes
        return keys - dst * num_nodes, dst
