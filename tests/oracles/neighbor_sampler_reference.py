"""Reference oracle: the two-``np.unique``-per-layer neighbor samplers.

These are ``repro.sampling.NeighborSampler`` and
``repro.sampling.HeteroNeighborSampler`` as they shipped in PRs 0-13, before
the sort-once rewrite, kept verbatim as the *specification* the rewritten
classes are checked against: per layer, the high-degree draws are
deduplicated with ``np.unique(keys, return_index=True)``, everything is
deduplicated again the same way, and the frontier grows by
``np.unique(np.concatenate(...))``.  ``tests/test_sampler_differential.py``
and ``benchmarks/bench_sampler.py`` drive both with the same seeds and
require equal blocks, input nodes, sampling work (:func:`assert_same_batch`)
and RNG state.

Test-only: nothing under ``src/`` may import this module.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SamplingError
from repro.graph.csr import CSRGraph
from repro.graph.hetero import HeteroGraph
from repro.sampling.minibatch import MiniBatch, SampledLayer
from repro.utils import as_rng


def assert_same_batch(got: MiniBatch, want: MiniBatch) -> None:
    """Equal seeds, per-layer ``src``/``dst``, input nodes and sampling work."""
    np.testing.assert_array_equal(got.seeds, want.seeds)
    np.testing.assert_array_equal(got.input_nodes, want.input_nodes)
    assert got.num_sampled == want.num_sampled
    assert got.num_layers == want.num_layers
    for have, expect in zip(got.layers, want.layers):
        np.testing.assert_array_equal(have.src, expect.src)
        np.testing.assert_array_equal(have.dst, expect.dst)
        assert have.src.dtype == expect.src.dtype == np.int64


class ReferenceNeighborSampler:
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
        self.graph = graph
        self.fanouts = tuple(int(f) for f in fanouts)
        self._rng = as_rng(seed)

    @property
    def num_layers(self) -> int:
        return len(self.fanouts)

    def sample(self, seeds: np.ndarray) -> MiniBatch:
        """Sample the computational graph for one batch of seed nodes."""
        seeds = np.unique(np.asarray(seeds, dtype=np.int64))
        if len(seeds) == 0:
            raise SamplingError("seed set must not be empty")
        if seeds.min() < 0 or seeds.max() >= self.graph.num_nodes:
            raise SamplingError("seed ids out of range for this graph")

        layers: list[SampledLayer] = []
        frontier = seeds
        num_sampled = len(seeds)
        for fanout in self.fanouts:
            src, dst = self._sample_layer(frontier, fanout)
            layers.append(SampledLayer(src=src, dst=dst))
            num_sampled += len(src)
            frontier = np.unique(np.concatenate([frontier, src]))
        input_nodes = frontier
        # The GNN consumes layers input-first; we sampled seeds-first.
        layers.reverse()
        return MiniBatch(
            seeds=seeds,
            layers=tuple(layers),
            input_nodes=input_nodes,
            num_sampled=num_sampled,
        )

    def _sample_layer(
        self, frontier: np.ndarray, fanout: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sample up to ``fanout`` in-neighbors of every frontier node."""
        graph = self.graph
        starts = graph.indptr[frontier]
        degrees = graph.indptr[frontier + 1] - starts

        small = degrees <= fanout
        # Low-degree nodes contribute their full neighbor list.
        small_nodes = frontier[small]
        small_deg = degrees[small]
        if small_nodes.size:
            small_dst = np.repeat(small_nodes, small_deg)
            offsets = _run_offsets(small_deg)
            small_src = graph.indices[
                np.repeat(starts[small], small_deg) + offsets
            ]
        else:
            small_dst = np.empty(0, dtype=np.int64)
            small_src = np.empty(0, dtype=np.int64)

        # High-degree nodes: fanout draws with replacement, dedup after.
        big_nodes = frontier[~small]
        if big_nodes.size:
            big_deg = degrees[~small]
            picks = self._rng.integers(
                0, big_deg[:, None], size=(len(big_nodes), fanout)
            )
            big_src = graph.indices[(starts[~small][:, None] + picks).ravel()]
            big_dst = np.repeat(big_nodes, fanout)
            keys = big_dst * np.int64(graph.num_nodes) + big_src
            _, unique_idx = np.unique(keys, return_index=True)
            big_src = big_src[unique_idx]
            big_dst = big_dst[unique_idx]
        else:
            big_src = np.empty(0, dtype=np.int64)
            big_dst = np.empty(0, dtype=np.int64)

        src = np.concatenate([small_src, big_src])
        dst = np.concatenate([small_dst, big_dst])
        if len(src):
            # The generator may produce multi-edges; a sampled block carries
            # each (dst, src) pair at most once, like DGL's blocks.
            keys = dst * np.int64(graph.num_nodes) + src
            _, unique_idx = np.unique(keys, return_index=True)
            src = src[unique_idx]
            dst = dst[unique_idx]
        return src, dst


class ReferenceHeteroNeighborSampler:
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
        seeds = np.unique(np.asarray(seeds, dtype=np.int64))
        if len(seeds) == 0:
            raise SamplingError("seed set must not be empty")
        if seeds.min() < 0 or seeds.max() >= self.graph.num_nodes:
            raise SamplingError("seed ids out of range for this graph")

        layers: list[SampledLayer] = []
        frontier = seeds
        num_sampled = len(seeds)
        for caps in self._layer_caps:
            src, dst = self._sample_layer(frontier, caps)
            layers.append(SampledLayer(src=src, dst=dst))
            num_sampled += len(src)
            frontier = np.unique(np.concatenate([frontier, src]))
        layers.reverse()
        return MiniBatch(
            seeds=seeds,
            layers=tuple(layers),
            input_nodes=frontier,
            num_sampled=num_sampled,
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
        gather = np.repeat(starts, degrees) + _run_offsets(degrees)
        src_all = graph.indices[gather]
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
        src = src_sorted[keep]
        dst = dst_sorted[keep]
        if len(src):
            keys = dst * np.int64(graph.num_nodes) + src
            _, unique_idx = np.unique(keys, return_index=True)
            src = src[unique_idx]
            dst = dst[unique_idx]
        return src, dst


def _run_offsets(run_lengths: np.ndarray) -> np.ndarray:
    """``[0..r0-1, 0..r1-1, ...]`` for the given run lengths."""
    total = int(run_lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    starts = np.zeros(len(run_lengths), dtype=np.int64)
    np.cumsum(run_lengths[:-1], out=starts[1:])
    return np.arange(total, dtype=np.int64) - np.repeat(starts, run_lengths)
