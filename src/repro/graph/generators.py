"""Synthetic graph generators with controllable degree skew.

Real-world citation/academic graphs (IGB, ogbn-papers100M, MAG240M) have
heavy-tailed degree distributions; the skew is what makes hot-node caching
(constant CPU buffer, Fig. 10) and cross-batch locality (window buffering,
Figs. 11-12) effective.  We generate graphs with a Chung-Lu style model: each
edge endpoint is drawn from a Zipf-like node weight distribution, giving a
power-law in-degree distribution without the cost of full RMAT recursion.

Endpoints are drawn by :func:`_choice`, which returns exactly what
``Generator.choice(num_nodes, size, p=weights)`` returns and leaves the
generator in the same state: the same normalized CDF, the same uniform
doubles, the same first index whose CDF exceeds each double.  Only the
search differs — a guide table over equal-width buckets of ``[0, 1)``
starts each draw next to its answer, so the draws take linear time instead
of a binary search each.  ``tests/test_graph_setup_differential.py`` checks
the two against each other.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import GraphError
from ..utils import as_rng
from .csr import CSRGraph, from_coo


def _zipf_weights(num_nodes: int, exponent: float) -> np.ndarray:
    """Normalized Zipf weights ``rank^-exponent`` over ``num_nodes`` ranks."""
    ranks = np.arange(1, num_nodes + 1, dtype=np.float64)
    weights = ranks ** (-exponent)
    return weights / weights.sum()


#: Guide-table buckets per node.
_GUIDE_PER_NODE = 4
#: Uniform doubles drawn per block; a double takes one 64-bit output of the
#: bit generator, so the blocks concatenate to one ``rng.random(size)``.
_DRAW_BLOCK = 2**17
#: Step-ups before a draw falls back to bisection.  Zipf skews up to 0.8
#: take at most 3; heavier skews crowd tail nodes into a few buckets.
_MAX_STEPS = 8


def _choice(rng: np.random.Generator, p: np.ndarray, size: int) -> np.ndarray:
    """``rng.choice(len(p), size=size, p=p)`` (with replacement), bit for
    bit, with a guided inverse-CDF search; ``p`` must be a valid
    probability vector."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    # guide[j]: the first index whose CDF exceeds j / buckets, built a block
    # at a time.  An int32 guide and block-sized temporaries keep what the
    # draws leave on the heap small.
    buckets = _GUIDE_PER_NODE * len(cdf)
    guide = np.empty(buckets, np.int32 if len(cdf) < 2**31 else np.int64)
    for lo in range(0, buckets, _DRAW_BLOCK):
        edges = np.arange(lo, min(lo + _DRAW_BLOCK, buckets)) / buckets
        guide[lo : lo + len(edges)] = np.searchsorted(cdf, edges, "right")
    out = np.empty(size, dtype=np.int64)
    for lo in range(0, size, _DRAW_BLOCK):
        u = rng.random(min(_DRAW_BLOCK, size - lo))
        out[lo : lo + len(u)] = _search(cdf, guide, u)
    return out


def _search(cdf: np.ndarray, guide: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cdf, u, side="right")`` from the guide table."""
    # floor(u * buckets) may round up across a bucket edge; one bucket
    # lower is a lower bound on the answer whatever the rounding.
    start = (u * len(guide)).astype(np.int64) - 1
    np.maximum(start, 0, out=start)
    idx = guide[start]
    todo = np.flatnonzero(cdf[idx] <= u)
    for _ in range(_MAX_STEPS):
        if not len(todo):
            return idx
        idx[todo] += 1
        todo = todo[cdf[idx[todo]] <= u[todo]]
    # A bucket crowded with near-zero weights: bisect what is left.
    idx[todo] = np.searchsorted(cdf, u[todo], side="right")
    return idx


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
        skew: finite Zipf exponent of the source distribution; 0
            degenerates to a uniform graph, larger values concentrate edges
            on fewer nodes.
        seed: RNG seed or generator.
        self_loops: keep self-loop edges when True.
    """
    if num_nodes <= 0:
        raise GraphError(f"num_nodes must be positive, got {num_nodes}")
    if num_edges < 0:
        raise GraphError(f"num_edges must be non-negative, got {num_edges}")
    if not math.isfinite(skew) or skew < 0:
        raise GraphError(f"skew must be finite and non-negative, got {skew}")
    rng = as_rng(seed)

    src_weights = _zipf_weights(num_nodes, skew)
    dst_weights = _zipf_weights(num_nodes, skew * 0.4)
    src = _choice(rng, src_weights, num_edges)
    dst = _choice(rng, dst_weights, num_edges)

    # Decorrelate hotness from node id order.
    perm = rng.permutation(num_nodes)
    src = perm[src]
    dst = perm[dst]

    if not self_loops:
        keep = src != dst
        src = src[keep]
        dst = dst[keep]
    return from_coo(src, dst, num_nodes)
