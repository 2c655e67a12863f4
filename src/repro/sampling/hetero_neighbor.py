"""Typed neighborhood sampling for heterogeneous graphs.

DGL's heterogeneous dataloaders sample a (possibly different) number of
neighbors *per node type* at each layer; GIDS itself is type-agnostic —
it only sees the unified node-id space — but the IGBH-Full and MAG240M
workloads are driven by typed samplers, so the reproduction provides one.

The sampler wraps the unified CSR of a :class:`HeteroGraph` and applies a
per-type fanout: a frontier node's sampled in-neighbors are grouped by
their type and each group is capped at that type's fanout.  With a single
fanout for all types it degenerates to :class:`NeighborSampler` semantics.
"""

from __future__ import annotations

import numpy as np

from ..errors import SamplingError
from ..graph.hetero import HeteroGraph
from ..utils import as_rng
from .frontier import (
    check_edge_keys,
    row_positions,
    sample_blocks,
    unique_edges,
)
from .minibatch import MiniBatch


class HeteroNeighborSampler:
    """Multi-layer typed neighborhood sampler.

    Args:
        hetero: the typed graph (sampling runs on its unified CSR).
        fanouts: one entry per layer, ordered from the layer closest to the
            seeds outward.  Each entry is either an ``int`` (same cap for
            every neighbor type) or a ``dict`` mapping type names to caps;
            types absent from the dict are not sampled at that layer.
        seed: RNG seed or generator.
    """

    def __init__(
        self,
        hetero: HeteroGraph,
        fanouts: tuple[int | dict[str, int], ...],
        *,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        if len(fanouts) == 0:
            raise SamplingError("fanouts must contain at least one layer")
        check_edge_keys(hetero.csr.num_nodes)
        self.hetero = hetero
        self.graph = hetero.csr
        self._rng = as_rng(seed)
        self._layer_caps = [
            self._normalize_fanout(f) for f in fanouts
        ]

    def _normalize_fanout(
        self, fanout: int | dict[str, int]
    ) -> np.ndarray:
        """Per-type neighbor caps as an array indexed by type id.

        A cap of 0 disables sampling of that type at the layer.
        """
        caps = np.zeros(self.hetero.num_types, dtype=np.int64)
        if isinstance(fanout, dict):
            for type_name, cap in fanout.items():
                if cap < 0:
                    raise SamplingError(
                        f"fanout for type {type_name!r} must be >= 0"
                    )
                if type_name not in self.hetero.type_names:
                    raise SamplingError(
                        f"unknown node type {type_name!r}; known: "
                        f"{self.hetero.type_names}"
                    )
                caps[self.hetero._type_index(type_name)] = cap
        else:
            if fanout <= 0:
                raise SamplingError(f"fanout must be positive, got {fanout}")
            caps[:] = fanout
        return caps

    @property
    def num_layers(self) -> int:
        return len(self._layer_caps)

    def sample(self, seeds: np.ndarray) -> MiniBatch:
        """Sample a typed computational graph for one batch of seeds."""
        return sample_blocks(
            self.graph, seeds, self._layer_caps, self._sample_layer
        )

    def _sample_layer(
        self, frontier: np.ndarray, caps: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sample in-neighbors of the frontier with per-type caps.

        Strategy: expand all in-edges of the frontier, group per
        (destination, neighbor type), and keep a uniformly chosen subset of
        at most ``caps[type]`` edges per group.  This is exact
        without-replacement sampling (unlike the homogeneous sampler's
        dedup-after-replacement fast path) because typed groups are small.
        """
        graph = self.graph
        starts = graph.indptr[frontier]
        degrees = graph.indptr[frontier + 1] - starts
        total = int(degrees.sum())
        if total == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty

        dst_all = np.repeat(frontier, degrees)
        src_all = graph.indices[row_positions(starts, degrees)]
        src_types = self.hetero.type_of(src_all)

        # Shuffle edges once; then a stable sort by (dst, type) makes each
        # group's first `cap` entries a uniform without-replacement pick.
        perm = self._rng.permutation(total)
        dst_all = dst_all[perm]
        src_all = src_all[perm]
        src_types = src_types[perm]

        group_key = dst_all * np.int64(self.hetero.num_types) + src_types
        order = np.argsort(group_key, kind="stable")
        dst_sorted = dst_all[order]
        src_sorted = src_all[order]
        key_sorted = group_key[order]
        type_sorted = src_types[order]

        # Rank of each edge within its (dst, type) group.
        new_group = np.ones(total, dtype=bool)
        new_group[1:] = key_sorted[1:] != key_sorted[:-1]
        group_ids = np.cumsum(new_group) - 1
        group_starts = np.flatnonzero(new_group)
        rank = np.arange(total) - group_starts[group_ids]

        keep = rank < caps[type_sorted]
        keys = dst_sorted[keep] * graph.num_nodes + src_sorted[keep]
        return unique_edges(keys, graph.num_nodes)
