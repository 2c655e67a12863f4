"""Synthetic graph generators with controllable degree skew.

Real-world citation/academic graphs (IGB, ogbn-papers100M, MAG240M) have
heavy-tailed degree distributions; the skew is what makes hot-node caching
(constant CPU buffer, Fig. 10) and cross-batch locality (window buffering,
Figs. 11-12) effective.  We generate graphs with a Chung-Lu style model: each
edge endpoint is drawn from a Zipf-like node weight distribution, giving a
power-law in-degree distribution without the cost of full RMAT recursion.
"""

from __future__ import annotations

import numpy as np

from ..errors import GraphError
from ..utils import as_rng
from .csr import CSRGraph, from_coo


def _zipf_weights(num_nodes: int, exponent: float) -> np.ndarray:
    """Normalized Zipf weights ``rank^-exponent`` over ``num_nodes`` ranks."""
    ranks = np.arange(1, num_nodes + 1, dtype=np.float64)
    weights = ranks ** (-exponent)
    return weights / weights.sum()


def power_law_graph(
    num_nodes: int,
    num_edges: int,
    *,
    skew: float = 0.8,
    seed: int | np.random.Generator | None = None,
    self_loops: bool = False,
) -> CSRGraph:
    """Generate a directed power-law graph in CSR (in-neighbor) form.

    Edge sources follow a Zipf(``skew``) distribution over node ranks while
    destinations are drawn with a milder skew, mimicking citation graphs
    where a few seminal papers are cited by many others.  Node ids are
    shuffled so that "hotness" is not correlated with id order (real dataset
    ids are arbitrary too).

    Args:
        num_nodes: node count.
        num_edges: directed edge count (before optional self-loop removal).
        skew: Zipf exponent of the source distribution; 0 degenerates to a
            uniform graph, larger values concentrate edges on fewer nodes.
        seed: RNG seed or generator.
        self_loops: keep self-loop edges when True.
    """
    if num_nodes <= 0:
        raise GraphError(f"num_nodes must be positive, got {num_nodes}")
    if num_edges < 0:
        raise GraphError(f"num_edges must be non-negative, got {num_edges}")
    if skew < 0:
        raise GraphError(f"skew must be non-negative, got {skew}")
    rng = as_rng(seed)

    src_weights = _zipf_weights(num_nodes, skew)
    dst_weights = _zipf_weights(num_nodes, skew * 0.4)
    src = rng.choice(num_nodes, size=num_edges, p=src_weights)
    dst = rng.choice(num_nodes, size=num_edges, p=dst_weights)

    # Decorrelate hotness from node id order.
    perm = rng.permutation(num_nodes)
    src = perm[src]
    dst = perm[dst]

    if not self_loops:
        keep = src != dst
        src = src[keep]
        dst = dst[keep]
    return from_coo(src, dst, num_nodes)
