"""Sharding and SSD-contention helpers for data-parallel training.

The paper evaluates a single GPU and notes that multi-GPU scaling "requires
significant additional hardware resources" (Section 5).  The
:class:`~repro.core.fleet.ElasticFleetTrainer` quantifies why with the same
device models; this module holds the pieces it is built from: ``k`` GPUs
train disjoint shards of the seeds (:func:`shard_train_ids`,
:func:`partition_shards`), but all GPU storage traffic contends for one SSD
array, so each GPU's achievable IOPS is the device peak divided by the
number of concurrently aggregating GPUs (:func:`contended_ssd`).
"""

from __future__ import annotations

import numpy as np

from ..config import SSDSpec
from ..errors import ConfigError
from ..graph.datasets import ScaledDataset
from ..utils import rendezvous_weights


def _rebalance(assignment: np.ndarray, num_shards: int, rank):
    """Largest-remainder rebalance of ``assignment`` (shard per id), in place.

    Every shard gets ``n // k`` ids and the ``n % k`` shards with the
    largest natural population absorb the remainder — deterministic (ties
    broken by shard index) and minimizing moves.  Each overfull shard
    sheds its excess members of lowest ``rank(members, shard)`` (stable),
    leaving them ``-1``.  Returns the shed ids' positions, sorted, and
    each shard's remaining room.
    """
    base, remainder = divmod(len(assignment), num_shards)
    sizes = np.bincount(assignment, minlength=num_shards)
    order = np.lexsort((np.arange(num_shards), -sizes))
    capacity = np.full(num_shards, base, dtype=np.int64)
    capacity[order[:remainder]] += 1

    evicted: list[int] = []
    for s in range(num_shards):
        members = np.flatnonzero(assignment == s)
        excess = len(members) - capacity[s]
        if excess > 0:
            lowest = np.argsort(rank(members, s), kind="stable")[:excess]
            shed = members[lowest]
            assignment[shed] = -1
            evicted.extend(int(i) for i in shed)
    room = capacity - np.bincount(
        assignment[assignment >= 0], minlength=num_shards
    )
    return sorted(evicted), room


def shard_train_ids(
    train_ids: np.ndarray, num_shards: int, *, seed: int = 0
) -> list[np.ndarray]:
    """Split labeled nodes into ``num_shards`` disjoint, balanced shards.

    Assignment is rendezvous (highest-random-weight) hashing followed by a
    deterministic largest-remainder rebalance, which gives two documented
    properties:

    * **Balance** — shard sizes differ by at most one, exactly: with
      ``n = q * num_shards + r`` ids, ``r`` shards hold ``q + 1`` ids and
      the rest hold ``q``.
    * **Growth stability** — each id's shard preference is a pure hash of
      ``(seed, id, shard)``, independent of ``num_shards``; growing the
      fleet from ``k`` to ``k + 1`` shards therefore reassigns only
      ``O(n / k)`` ids (those whose best shard becomes the new one, plus
      rebalance spill), instead of the ``O(n)`` reshuffle a strided or
      modular split suffers.  An elastic fleet that scales out keeps most
      of every worker's cache warm.

    The old strided split satisfied balance only incidentally and moved
    almost every id on any ``num_shards`` change.
    """
    if num_shards <= 0:
        raise ConfigError("num_shards must be positive")
    train_ids = np.asarray(train_ids, dtype=np.int64)
    if len(train_ids) != len(np.unique(train_ids)):
        raise ConfigError("train ids must be unique")
    if len(train_ids) < num_shards:
        raise ConfigError("fewer labeled nodes than shards")

    weights = rendezvous_weights(train_ids, num_shards, seed)
    assignment = np.argmax(weights, axis=1)

    # Overfull shards evict their weakest members (smallest rendezvous
    # weight for that shard); evicted ids re-home to their best shard with
    # room.  Everything is sorted, so the result is reproducible.
    evicted, room = _rebalance(
        assignment, num_shards, lambda members, s: weights[members, s]
    )
    for i in evicted:
        open_shards = np.flatnonzero(room > 0)
        best = open_shards[np.argmax(weights[i, open_shards])]
        assignment[i] = best
        room[best] -= 1

    return [
        np.sort(train_ids[assignment == s]) for s in range(num_shards)
    ]


def partition_shards(
    dataset: ScaledDataset,
    num_shards: int,
    *,
    seed: int = 0,
    refine_passes: int = 2,
) -> list[np.ndarray]:
    """Partition-aware seed sharding: co-locate neighboring seeds.

    The graph is partitioned with :func:`~repro.graph.partition.partition_graph`
    (seeded-BFS growth + boundary refinement) and each training seed goes
    to the shard of its partition, so the seeds a GPU trains share
    neighborhoods — which is exactly what makes its private cache and the
    peer-cache tier effective (LSM-GNN's locality argument).  A final
    largest-remainder rebalance moves boundary seeds (deterministically,
    lowest ids first) so shard sizes still differ by at most one.
    """
    if num_shards <= 0:
        raise ConfigError("num_shards must be positive")
    train_ids = np.asarray(dataset.train_ids, dtype=np.int64)
    if len(train_ids) < num_shards:
        raise ConfigError("fewer labeled nodes than shards")
    if num_shards == 1:
        return [np.sort(train_ids)]
    # Local import: graph.partition pulls in CSR machinery the plain
    # hash-sharding path never needs.
    from ..graph.partition import partition_graph

    result = partition_graph(
        dataset.graph,
        num_shards,
        refine_passes=refine_passes,
        seed=seed,
    )
    assignment = result.parts[train_ids].copy()

    # Shed the highest ids: deterministic, and BFS growth assigns ids in
    # locality order so low ids are the partition core.
    overflow, room = _rebalance(
        assignment, num_shards, lambda members, s: -members
    )
    open_shards = [s for s in range(num_shards) for _ in range(room[s])]
    for i, s in zip(overflow, open_shards):
        assignment[i] = s

    return [
        np.sort(train_ids[assignment == s]) for s in range(num_shards)
    ]


def contended_ssd(spec: SSDSpec, num_gpus: int) -> SSDSpec:
    """The SSD as seen by one of ``num_gpus`` concurrently reading GPUs.

    Fair sharing of the device's command throughput: each GPU observes
    ``peak / num_gpus`` IOPS at unchanged latency.  This is the worst case
    (all GPUs aggregating at once), which data-parallel training with
    synchronized steps approximates well.
    """
    if num_gpus <= 0:
        raise ConfigError("num_gpus must be positive")
    return SSDSpec(
        name=f"{spec.name} (shared by {num_gpus} GPUs)",
        read_latency_s=spec.read_latency_s,
        peak_iops=spec.peak_iops / num_gpus,
        page_bytes=spec.page_bytes,
    )
