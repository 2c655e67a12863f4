"""Compressed sparse row adjacency structure.

GNN frameworks store the graph structure in CSC/CSR form (Section 2.1).  We
use a single CSR object and interpret ``indices[indptr[v]:indptr[v+1]]`` as
the *in-neighbors* of ``v`` — the direction neighborhood sampling traverses
(a training node gathers messages from the nodes that point at it).  The
reverse orientation (out-edges) is available via :meth:`CSRGraph.reverse` and
is what reverse PageRank runs on.

Both builders (:func:`from_coo` and :meth:`CSRGraph.reverse`) place edges in
the stable order of their row ids.  :func:`_stable_order` computes that
order with an LSD radix sort over 16-bit digits, one NumPy counting sort
per digit, in time linear in the edge count.  A stable sort has exactly one
permutation, so every graph is bit-identical to the one
``np.argsort(ids, kind="stable")`` (a timsort on int64 ids) would build;
``tests/test_graph_setup_differential.py`` checks the two orders against
each other.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..errors import GraphError

#: Bits of one radix digit: NumPy's stable sort of a ``uint16`` array is a
#: counting sort.
_DIGIT_BITS = 16


def _stable_order(ids: np.ndarray, num_nodes: int) -> np.ndarray:
    """``np.argsort(ids, kind="stable")`` for int32 or int64 ids in
    ``[0, num_nodes)``, in linear time.

    Sorts by one 16-bit digit at a time, lowest first, each digit read as a
    strided ``uint16`` view of the keys rather than a shifted copy; passes
    after the first compose in an int32 order when that can index ``ids``.
    """
    ids = np.ascontiguousarray(ids)
    lanes = ids.view(np.uint16)
    width = ids.itemsize // 2
    bits = int(num_nodes - 1).bit_length()
    passes = min(width, max(1, -(-bits // _DIGIT_BITS)))

    def digit(d: int) -> np.ndarray:
        lane = d if sys.byteorder == "little" else width - 1 - d
        return lanes[lane::width]

    order = np.argsort(digit(0), kind="stable")
    if passes > 1 and len(ids) < 2**31:
        order = order.astype(np.int32)
    for d in range(1, passes):
        order = order[np.argsort(digit(d)[order], kind="stable")]
    return order


@dataclass(frozen=True)
class CSRGraph:
    """An immutable CSR adjacency structure.

    Attributes:
        indptr: ``int64[num_nodes + 1]`` monotone offsets into ``indices``.
        indices: ``int64[num_edges]`` neighbor ids, all in ``[0, num_nodes)``.
    """

    indptr: np.ndarray
    indices: np.ndarray

    def __post_init__(self) -> None:
        indptr = np.ascontiguousarray(self.indptr, dtype=np.int64)
        indices = np.ascontiguousarray(self.indices, dtype=np.int64)
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        self._validate()

    def _validate(self) -> None:
        if self.indptr.ndim != 1 or self.indices.ndim != 1:
            raise GraphError("indptr and indices must be one-dimensional")
        if len(self.indptr) < 1:
            raise GraphError("indptr must have at least one entry")
        if self.indptr[0] != 0:
            raise GraphError(f"indptr must start at 0, got {self.indptr[0]}")
        if self.indptr[-1] != len(self.indices):
            raise GraphError(
                f"indptr must end at len(indices)={len(self.indices)}, "
                f"got {self.indptr[-1]}"
            )
        if np.any(np.diff(self.indptr) < 0):
            raise GraphError("indptr must be non-decreasing")
        num_nodes = len(self.indptr) - 1
        if len(self.indices) > 0:
            lo = self.indices.min()
            hi = self.indices.max()
            if lo < 0 or hi >= num_nodes:
                raise GraphError(
                    f"neighbor ids must lie in [0, {num_nodes}), "
                    f"found range [{lo}, {hi}]"
                )

    @property
    def num_nodes(self) -> int:
        return len(self.indptr) - 1

    @property
    def num_edges(self) -> int:
        return len(self.indices)

    @cached_property
    def degrees(self) -> np.ndarray:
        """In-degree of every node (length of each adjacency list)."""
        return np.diff(self.indptr)

    def neighbors(self, node: int) -> np.ndarray:
        """Adjacency list of ``node`` (a read-only view)."""
        if not 0 <= node < self.num_nodes:
            raise GraphError(
                f"node {node} out of range [0, {self.num_nodes})"
            )
        view = self.indices[self.indptr[node] : self.indptr[node + 1]]
        view.flags.writeable = False
        return view

    def reverse(self) -> "CSRGraph":
        """Return the graph with every edge direction flipped.

        If this graph stores in-neighbors, the result stores out-neighbors
        (and vice versa).
        """
        num_nodes = self.num_nodes
        counts = np.bincount(self.indices, minlength=num_nodes)
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        indices = np.empty(self.num_edges, dtype=np.int64)
        # Destination of each original edge, expanded from indptr runs.
        dst = np.repeat(np.arange(num_nodes, dtype=np.int64), self.degrees)
        indices[:] = dst[_stable_order(self.indices, num_nodes)]
        return CSRGraph(indptr=indptr, indices=indices)

    def structure_bytes(self, index_bytes: int = 8) -> int:
        """Size of the structure data (indptr + indices) in bytes."""
        return index_bytes * (len(self.indptr) + len(self.indices))


def from_coo(
    src: np.ndarray, dst: np.ndarray, num_nodes: int, *, dedup: bool = False
) -> CSRGraph:
    """Build a :class:`CSRGraph` from COO edge arrays.

    Edge ``(src[i], dst[i])`` makes ``src[i]`` an in-neighbor of ``dst[i]``,
    i.e. ``src[i]`` appears in ``neighbors(dst[i])``.

    Args:
        src: source node of every edge.
        dst: destination node of every edge.
        num_nodes: total node count (ids must be smaller than this).
        dedup: drop duplicate (src, dst) pairs when True.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if src.shape != dst.shape or src.ndim != 1:
        raise GraphError("src and dst must be 1-D arrays of equal length")
    if num_nodes <= 0:
        raise GraphError(f"num_nodes must be positive, got {num_nodes}")
    if len(src) > 0:
        if src.min() < 0 or dst.min() < 0:
            raise GraphError("edge endpoints must be non-negative")
        if src.max() >= num_nodes or dst.max() >= num_nodes:
            raise GraphError("edge endpoints must be smaller than num_nodes")
    if dedup and len(src) > 0:
        keys = dst * np.int64(num_nodes) + src
        _, unique_idx = np.unique(keys, return_index=True)
        src = src[unique_idx]
        dst = dst[unique_idx]
    counts = np.bincount(dst, minlength=num_nodes)
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    indices = src[_stable_order(dst, num_nodes)]
    return CSRGraph(indptr=indptr, indices=indices)
