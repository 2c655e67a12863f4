"""Graph partitioning for subgraph-based (ClusterGCN) training.

Section 4.7 of the paper explains why GIDS does not evaluate ClusterGCN:
subgraph sampling requires partitioning the graph (METIS) so each cluster
fits in memory, and "Metis-based graph dataset partition is an extremely
time-consuming process for large-scale graph datasets like IGB (more than
2 days)".  To make that argument quantitative, this module provides a
from-scratch partitioner in the same family — balanced seeded-BFS growth
followed by greedy boundary refinement (the uncoarsened core of
multilevel partitioners) — along with quality metrics, so the ClusterGCN
benchmark can measure real partitioning cost on the scaled replicas and
extrapolate it to full scale.

Both phases run on arrays, not one node at a time, and are *exact*: for
every graph, part count, seed, pass count and balance slack they return
the ``parts`` that growing one neighbour at a time and re-counting one
node at a time would, bit for bit.  That one-at-a-time specification is
kept in ``tests/oracles/partition_reference.py``, and
``tests/test_partition_differential.py`` holds the two equal.  Growth
takes one array step per (part, BFS level); refinement screens every
node at the start of a pass and re-counts only the nodes an earlier move
in the pass touched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import GraphError
from ..sampling.frontier import row_positions
from ..utils import as_rng
from .csr import CSRGraph


@dataclass(frozen=True)
class PartitionResult:
    """A node-to-part assignment plus quality metrics."""

    parts: np.ndarray
    num_parts: int

    def __post_init__(self) -> None:
        parts = np.ascontiguousarray(self.parts, dtype=np.int64)
        object.__setattr__(self, "parts", parts)
        if self.num_parts <= 0:
            raise GraphError("num_parts must be positive")
        if len(parts) and (parts.min() < 0 or parts.max() >= self.num_parts):
            raise GraphError("part ids out of range")

    @property
    def part_sizes(self) -> np.ndarray:
        return np.bincount(self.parts, minlength=self.num_parts)

    @property
    def balance(self) -> float:
        """Max part size over the ideal size (1.0 = perfectly balanced)."""
        sizes = self.part_sizes
        ideal = len(self.parts) / self.num_parts
        return float(sizes.max() / ideal) if ideal > 0 else 1.0

    def members(self, part: int) -> np.ndarray:
        """Node ids assigned to ``part``."""
        if not 0 <= part < self.num_parts:
            raise GraphError(f"part {part} out of range")
        return np.flatnonzero(self.parts == part).astype(np.int64)

    def halo_nodes(self, graph: CSRGraph, part: int) -> np.ndarray:
        """Boundary in-neighbors of ``part``: the halo a sweep must fetch.

        Sorted unique node ids that live *outside* ``part`` but feed at
        least one in-edge into it.  A partition-sweep step computing
        ``part`` needs the previous layer's values for exactly
        ``members(part) + halo_nodes(part)``.
        """
        return halo_nodes(graph, self, part)

    def edge_cut_stats(self, graph: CSRGraph) -> list[dict]:
        """Per-partition edge-cut/halo accounting (one dict per part).

        Keys: ``part``, ``nodes``, ``internal_edges`` (both endpoints
        inside), ``cut_in_edges`` (src outside, dst inside — the halo
        traffic the sweep pays), ``cut_out_edges`` (src inside, dst
        outside), ``halo_nodes`` (unique outside in-neighbors).
        """
        if len(self.parts) != graph.num_nodes:
            raise GraphError("partition does not cover this graph")
        num_parts = self.num_parts
        src = graph.indices
        dst = np.repeat(
            np.arange(graph.num_nodes, dtype=np.int64), graph.degrees
        )
        sp = self.parts[src]
        dp = self.parts[dst]
        cut = sp != dp
        internal = np.bincount(dp[~cut], minlength=num_parts)
        cut_in = np.bincount(dp[cut], minlength=num_parts)
        cut_out = np.bincount(sp[cut], minlength=num_parts)
        # Unique (src node, destination part) pairs over cut edges — the
        # same source node feeding several parts counts once per part.
        pairs = np.unique(src[cut] * np.int64(num_parts) + dp[cut])
        halo = np.bincount(
            (pairs % num_parts).astype(np.int64), minlength=num_parts
        )
        sizes = self.part_sizes
        return [
            {
                "part": p,
                "nodes": int(sizes[p]),
                "internal_edges": int(internal[p]),
                "cut_in_edges": int(cut_in[p]),
                "cut_out_edges": int(cut_out[p]),
                "halo_nodes": int(halo[p]),
            }
            for p in range(num_parts)
        ]


def halo_nodes(
    graph: CSRGraph, partition: PartitionResult, part: int
) -> np.ndarray:
    """Sorted unique in-neighbors of ``part`` assigned to other parts."""
    if len(partition.parts) != graph.num_nodes:
        raise GraphError("partition does not cover this graph")
    if not 0 <= part < partition.num_parts:
        raise GraphError(f"part {part} out of range")
    dst = np.repeat(
        np.arange(graph.num_nodes, dtype=np.int64), graph.degrees
    )
    sel = partition.parts[dst] == part
    srcs = graph.indices[sel]
    outside = srcs[partition.parts[srcs] != part]
    return np.unique(outside).astype(np.int64)


def edge_cut(graph: CSRGraph, parts: np.ndarray) -> int:
    """Number of edges whose endpoints live in different parts."""
    parts = np.asarray(parts, dtype=np.int64)
    if len(parts) != graph.num_nodes:
        raise GraphError("parts must assign every node")
    dst = np.repeat(np.arange(graph.num_nodes, dtype=np.int64), graph.degrees)
    return int(np.count_nonzero(parts[dst] != parts[graph.indices]))


#: ``(indptr, indices)`` of a CSR adjacency.
_Adjacency = tuple[np.ndarray, np.ndarray]


def _undirected(graph: CSRGraph) -> _Adjacency:
    """The graph with every edge both ways: row ``v`` is
    ``graph.neighbors(v)`` followed by ``graph.reverse().neighbors(v)``.

    The ids are int32 when they fit: twice the edges at half the bytes,
    so partitioning holds no more than the int64 reverse graph it
    replaces.
    """
    n = graph.num_nodes
    reverse = graph.reverse()
    in_degrees = graph.degrees
    out_degrees = reverse.degrees
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(in_degrees + out_degrees, out=indptr[1:])
    indices = np.empty(
        int(indptr[-1]), dtype=np.int32 if n < 2**31 else np.int64
    )
    starts = indptr[:-1]
    indices[row_positions(starts, in_degrees)] = graph.indices
    indices[row_positions(starts + in_degrees, out_degrees)] = reverse.indices
    return indptr, indices


def _smallest_first(sizes: np.ndarray, count: int) -> np.ndarray:
    """Parts of ``count`` nodes that each join the smallest part so far.

    One ``np.argmin(sizes)`` per node (lowest id on ties), at once: the
    greedy takes the free ``(size, part)`` slots in sorted order, so the
    answer is the first ``count`` slots below the lowest size level that
    holds that many.
    """
    lo = int(sizes.min())
    hi = lo + count  # the smallest part alone has ``count`` slots below
    while lo < hi:
        mid = (lo + hi) // 2
        if int(np.maximum(mid - sizes, 0).sum()) >= count:
            hi = mid
        else:
            lo = mid + 1
    slots = np.maximum(lo - sizes, 0)
    part = np.repeat(np.arange(len(sizes), dtype=np.int64), slots)
    level = row_positions(sizes, slots)
    return part[np.lexsort((part, level))[:count]]


def _grow(
    undirected: _Adjacency,
    num_parts: int,
    seed: int | np.random.Generator | None,
) -> PartitionResult:
    """:func:`bfs_partition` over a prebuilt :func:`_undirected` graph."""
    indptr, indices = undirected
    n = len(indptr) - 1
    if num_parts <= 0:
        raise GraphError("num_parts must be positive")
    if num_parts > n:
        raise GraphError("more parts than nodes")
    rng = as_rng(seed)
    parts = np.full(n, -1, dtype=np.int64)
    capacity = int(np.ceil(n / num_parts))

    seeds = rng.choice(n, size=num_parts, replace=False)
    parts[seeds] = np.arange(num_parts)
    frontiers = [seeds[p : p + 1] for p in range(num_parts)]
    sizes = [1] * num_parts
    degrees = np.diff(indptr)

    active = True
    while active:
        active = False
        for p in range(num_parts):
            frontier = frontiers[p]
            room = capacity - sizes[p]
            if not len(frontier) or room <= 0:
                continue
            active = True
            # One level of part ``p``: nothing else moves meanwhile, so it
            # claims the first occurrences of unassigned nodes in
            # frontier-neighbour order, up to its room.
            reached = indices[
                row_positions(indptr[frontier], degrees[frontier])
            ]
            reached = reached[parts[reached] == -1]
            _, first = np.unique(reached, return_index=True)
            taken = reached[np.sort(first)[:room]]
            parts[taken] = p
            sizes[p] += len(taken)
            frontiers[p] = taken

    unassigned = np.flatnonzero(parts == -1)
    if len(unassigned):
        parts[unassigned] = _smallest_first(
            np.array(sizes, dtype=np.int64), len(unassigned)
        )
    return PartitionResult(parts=parts, num_parts=num_parts)


def bfs_partition(
    graph: CSRGraph,
    num_parts: int,
    *,
    seed: int | np.random.Generator | None = 0,
) -> PartitionResult:
    """Balanced seeded-BFS partitioning.

    ``num_parts`` seeds grow breadth-first in round-robin order; each part
    stops accepting nodes at the ideal size (plus slack for the last
    part), and any node unreachable from the seeds is assigned to the
    currently smallest part.  This is the classic "graph growing" scheme
    used to initialize multilevel partitioners.
    """
    return _grow(_undirected(graph), num_parts, seed)


def _screen(
    undirected: _Adjacency, parts: np.ndarray, num_parts: int
) -> tuple[np.ndarray, np.ndarray]:
    """Every node's best neighbour part and its gain, in one array pass.

    ``best[v]`` is ``np.argmax`` of ``v``'s neighbour-part counts (the
    lowest part on ties; ``parts[v]`` for a node without neighbours) and
    ``gain[v]`` that count minus the count of ``v``'s own part.  The
    ``(node, part)`` pairs are counted by sorting their keys.
    """
    indptr, indices = undirected
    n = len(indptr) - 1
    best = parts.copy()
    gain = np.zeros(n, dtype=np.int64)
    if not len(indices):
        return best, gain
    # Key ``v * num_parts + part`` per neighbour; int32 when it fits, as
    # these are the pass's largest arrays.
    key_type = np.int32 if n * num_parts < 2**31 else np.int64
    keys = np.repeat(
        np.arange(0, n * num_parts, num_parts, dtype=key_type),
        np.diff(indptr),
    )
    keys += parts.astype(key_type)[indices]
    keys.sort()
    new_pair = np.empty(len(keys), dtype=bool)
    new_pair[0] = True
    np.not_equal(keys[1:], keys[:-1], out=new_pair[1:])
    starts = np.flatnonzero(new_pair)
    pair = keys[starts]
    del keys, new_pair
    # One score per pair, highest for the largest count and, among equal
    # counts, the lowest part: a node's maximum score is its argmax.
    score = np.empty_like(starts)
    np.subtract(starts[1:], starts[:-1], out=score[:-1])
    score[-1] = len(indices) - starts[-1]
    del starts
    score *= num_parts
    score += num_parts - 1
    score -= pair % num_parts
    owners = np.flatnonzero(np.diff(indptr))
    top = np.maximum.reduceat(
        score, np.searchsorted(pair, owners * num_parts)
    )
    best[owners] = num_parts - 1 - top % num_parts
    gain[owners] = top // num_parts
    own_key = np.arange(0, n * num_parts, num_parts, dtype=key_type)
    own_key += parts.astype(key_type)
    at = np.minimum(np.searchsorted(pair, own_key), len(pair) - 1)
    gain -= np.where(pair[at] == own_key, score[at] // num_parts, 0)
    return best, gain


def _refine(
    undirected: _Adjacency,
    partition: PartitionResult,
    passes: int,
    balance_slack: float,
) -> PartitionResult:
    """:func:`refine_partition` over a prebuilt :func:`_undirected` graph."""
    if passes < 0:
        raise GraphError("passes must be non-negative")
    if balance_slack < 1.0:
        raise GraphError("balance_slack must be >= 1.0")
    indptr, indices = undirected
    n = len(indptr) - 1
    num_parts = partition.num_parts
    parts = partition.parts.copy()
    sizes = np.bincount(parts, minlength=num_parts).tolist()
    limit = int(np.ceil(n / num_parts * balance_slack))
    indptr = indptr.tolist()

    for _ in range(passes):
        # Nodes visit in id order and only a visit moves one, so a node
        # no earlier mover neighbours still sees its pass-start counts:
        # its screened verdict stands, and only the rest are re-counted.
        best, gain = _screen(undirected, parts, num_parts)
        best = best.tolist()
        visit = bytearray((gain > 0).tobytes())
        dirty = bytearray(n)
        visit_mask = np.frombuffer(visit, dtype=np.uint8)
        dirty_mask = np.frombuffer(dirty, dtype=np.uint8)
        moved = 0
        v = visit.find(1)
        while v != -1:
            current = int(parts[v])
            neighbors = indices[indptr[v] : indptr[v + 1]]
            if dirty[v]:
                counts = np.bincount(parts[neighbors], minlength=num_parts)
                target = int(counts.argmax())
                favoured = counts[target] > counts[current]
            else:
                target = best[v]
                favoured = True
            if favoured and sizes[target] < limit:
                sizes[current] -= 1
                sizes[target] += 1
                parts[v] = target
                moved += 1
                later = neighbors[neighbors > v]
                visit_mask[later] = 1
                dirty_mask[later] = 1
            v = visit.find(1, v + 1)
        if moved == 0:
            break
    return PartitionResult(parts=parts, num_parts=num_parts)


def refine_partition(
    graph: CSRGraph,
    partition: PartitionResult,
    *,
    passes: int = 2,
    balance_slack: float = 1.1,
) -> PartitionResult:
    """Greedy boundary refinement (Kernighan-Lin style, one-sided moves).

    Each pass scans boundary nodes and moves a node to the neighboring
    part holding the majority of its (undirected) neighbors when the move
    reduces the edge cut and keeps the destination part within
    ``balance_slack`` of the ideal size.
    """
    return _refine(_undirected(graph), partition, passes, balance_slack)


def partition_graph(
    graph: CSRGraph,
    num_parts: int,
    *,
    refine_passes: int = 2,
    seed: int | np.random.Generator | None = 0,
) -> PartitionResult:
    """BFS growth followed by boundary refinement — the full pipeline."""
    undirected = _undirected(graph)
    initial = _grow(undirected, num_parts, seed)
    if refine_passes == 0:
        return initial
    return _refine(undirected, initial, refine_passes, 1.1)
