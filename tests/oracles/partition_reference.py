"""Reference oracle: the one-node-at-a-time BFS partitioner and refiner.

These are ``repro.graph.partition.bfs_partition`` and ``refine_partition``
as they shipped before growth became one array step per (part, level) and
refinement a screened worklist, kept verbatim as the *specification* the
rewritten functions are checked against: growth visits every frontier
node's neighbours (``graph.neighbors(v)`` then ``reverse.neighbors(v)``) one
at a time, and refinement re-counts every node's neighbour parts with a
``np.bincount`` in id order.  ``tests/test_partition_differential.py``
drives both with the same graphs and seeds and requires equal ``parts``.

Test-only: nothing under ``src/`` may import this module.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import CSRGraph
from repro.graph.partition import PartitionResult
from repro.utils import as_rng


def reference_bfs_partition(
    graph: CSRGraph,
    num_parts: int,
    *,
    seed: int | np.random.Generator | None = 0,
) -> PartitionResult:
    """Balanced seeded-BFS partitioning, one neighbour at a time."""
    n = graph.num_nodes
    if num_parts <= 0:
        raise GraphError("num_parts must be positive")
    if num_parts > n:
        raise GraphError("more parts than nodes")
    rng = as_rng(seed)
    parts = np.full(n, -1, dtype=np.int64)
    capacity = int(np.ceil(n / num_parts))

    seeds = rng.choice(n, size=num_parts, replace=False)
    frontiers: list[list[int]] = [[int(s)] for s in seeds]
    sizes = np.zeros(num_parts, dtype=np.int64)
    for p, s in enumerate(seeds):
        parts[s] = p
        sizes[p] = 1

    # Treat edges as undirected for growth: out-neighbors come from the
    # reversed graph.
    reverse = graph.reverse()

    active = True
    while active:
        active = False
        for p in range(num_parts):
            if not frontiers[p] or sizes[p] >= capacity:
                continue
            active = True
            next_frontier: list[int] = []
            for node in frontiers[p]:
                for neighbor_list in (
                    graph.neighbors(node),
                    reverse.neighbors(node),
                ):
                    for v in neighbor_list:
                        v = int(v)
                        if parts[v] == -1 and sizes[p] < capacity:
                            parts[v] = p
                            sizes[p] += 1
                            next_frontier.append(v)
            frontiers[p] = next_frontier

    unassigned = np.flatnonzero(parts == -1)
    for v in unassigned:
        p = int(np.argmin(sizes))
        parts[v] = p
        sizes[p] += 1
    return PartitionResult(parts=parts, num_parts=num_parts)


def reference_refine_partition(
    graph: CSRGraph,
    partition: PartitionResult,
    *,
    passes: int = 2,
    balance_slack: float = 1.1,
) -> PartitionResult:
    """Greedy boundary refinement, re-counting every node in id order."""
    if passes < 0:
        raise GraphError("passes must be non-negative")
    if balance_slack < 1.0:
        raise GraphError("balance_slack must be >= 1.0")
    n = graph.num_nodes
    num_parts = partition.num_parts
    parts = partition.parts.copy()
    sizes = np.bincount(parts, minlength=num_parts)
    limit = int(np.ceil(n / num_parts * balance_slack))
    reverse = graph.reverse()

    for _ in range(passes):
        moved = 0
        for v in range(n):
            neighbors = np.concatenate(
                [graph.neighbors(v), reverse.neighbors(v)]
            )
            if len(neighbors) == 0:
                continue
            counts = np.bincount(parts[neighbors], minlength=num_parts)
            current = parts[v]
            best = int(np.argmax(counts))
            if best == current:
                continue
            gain = counts[best] - counts[current]
            if gain > 0 and sizes[best] < limit:
                sizes[current] -= 1
                sizes[best] += 1
                parts[v] = best
                moved += 1
        if moved == 0:
            break
    return PartitionResult(parts=parts, num_parts=num_parts)
