"""Frontier-at-once building blocks shared by the samplers.

A sampler handles a whole frontier as arrays, the way DGL's on-device
sampler does: the CSR positions of every frontier row are gathered in one
indexing pass, every candidate edge becomes one ``dst * num_nodes + src``
key, and a layer is deduplicated with a single key sort.  The helpers here
are the only copies of that machinery; each sampler supplies just the rule
that picks which positions of a row survive.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

import numpy as np

from ..errors import SamplingError
from ..graph.csr import CSRGraph
from ..utils import sorted_unique
from .minibatch import MiniBatch, SampledLayer

#: ``(src, dst)`` arrays of one sampled block.
Edges = tuple[np.ndarray, np.ndarray]


def check_edge_keys(num_nodes: int) -> None:
    """Reject graphs whose ``dst * num_nodes + src`` keys would wrap int64."""
    if num_nodes * num_nodes > 2**63:
        raise SamplingError(
            f"cannot sample a graph of {num_nodes} nodes: edge keys "
            "dst * num_nodes + src overflow int64 once num_nodes**2 > 2**63"
        )


def checked_seeds(graph: CSRGraph, seeds: np.ndarray) -> np.ndarray:
    """The sorted distinct seed ids, or :class:`SamplingError`."""
    seeds = sorted_unique(np.asarray(seeds, dtype=np.int64))
    if len(seeds) == 0:
        raise SamplingError("seed set must not be empty")
    if seeds[0] < 0 or seeds[-1] >= graph.num_nodes:
        raise SamplingError("seed ids out of range for this graph")
    return seeds


def row_positions(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``[s0..s0+l0-1, s1..s1+l1-1, ...]``: the CSR slots of whole rows."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if len(ends) else 0
    # Row start minus the row's offset in the output, spread over the row.
    positions = np.repeat(starts - (ends - lengths), lengths)
    positions += np.arange(total, dtype=np.int64)
    return positions


def unique_edges(keys: np.ndarray, num_nodes: int) -> Edges:
    """Distinct ``(src, dst)`` pairs of ``dst * num_nodes + src`` keys.

    One in-place sort, one adjacent-compare mask, one decode; the pairs come
    back in ``(dst, src)`` order, each at most once, like DGL's blocks.
    """
    keys.sort()
    keys = sorted_unique(keys)
    dst = keys // num_nodes
    return keys - dst * num_nodes, dst


def sample_blocks(
    graph: CSRGraph,
    seeds: np.ndarray,
    layer_specs: Iterable,
    sample_layer: Callable[[np.ndarray, object], Edges],
) -> MiniBatch:
    """Grow a frontier from ``seeds``, one ``sample_layer`` call per spec.

    ``sample_layer(frontier, spec)`` returns the ``(src, dst)`` edges of one
    block; the union of the frontier and ``src`` is the next layer's
    frontier, exactly like DGL's ``MultiLayerNeighborSampler`` blocks.
    """
    seeds = checked_seeds(graph, seeds)
    layers: list[SampledLayer] = []
    frontier = seeds
    num_sampled = len(seeds)
    for spec in layer_specs:
        src, dst = sample_layer(frontier, spec)
        layers.append(SampledLayer(src=src, dst=dst))
        num_sampled += len(src)
        frontier = sorted_unique(np.concatenate([frontier, src]))
    # The GNN consumes layers input-first; we sampled seeds-first.
    layers.reverse()
    return MiniBatch(
        seeds=seeds,
        layers=tuple(layers),
        input_nodes=frontier,
        num_sampled=num_sampled,
    )
