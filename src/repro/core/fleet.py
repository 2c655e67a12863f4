"""Elastic multi-GPU sharded training with failure domains (extension).

The paper evaluates a single GPU; LSM-GNN (the sequel, same authors) shows
the multi-GPU design point: every GPU keeps a private software cache over
the shared SSD array, and before paying an SSD read a GPU checks its
*peers'* caches over the NVLink/PCIe interconnect — peer-cache hits replace
redundant storage reads.  This module builds that fleet in modeled time
and, on top of it, the robustness a production fleet needs:

* **Partition-aware sharding** — training seeds are split across GPUs
  along graph partitions (:func:`partition_shards`; :func:`shard_train_ids`
  is the rendezvous-hash alternative), so each worker's cache sees a
  coherent neighborhood.
* **Failure domains** — a :class:`~repro.faults.plan.WorkerEvent` dropout
  removes a worker mid-epoch; its remaining batches are re-assigned to the
  survivors deterministically, and a later recovery event re-admits the
  worker with a cold cache and a fair share of the remaining work.
* **Straggler mitigation** — per-worker modeled-time skew (a degraded
  local PCIe/SSD path) is detected against the fleet median, and bounded
  work-stealing moves queued batches from the straggler to the fastest
  survivor.
* **Breaker-guarded peer reads** — each worker is fronted by a PR 6
  :class:`~repro.serving.breaker.CircuitBreaker`; probes into a dropped or
  pathologically slow peer fail, the breaker opens, and subsequent reads
  short-circuit straight to SSD instead of stalling the fleet.
* **Coordinated checkpoints** — :meth:`ElasticFleetTrainer.state_dict`
  captures a consistent cut across every worker plus the shared model,
  breakers and schedule at a global-step boundary, so a fleet-wide kill
  and resume is bit-identical.
* **Deterministic replay** — the executed schedule (which worker trained
  which batch at which step) fully determines the loss trajectory:
  :func:`replay_schedule` re-runs only the training math and reproduces
  the losses bit-for-bit, which is how the chaos harness
  (:func:`run_chaos_suite`) proves no seed was lost or double-trained.

Determinism is anchored by giving every *batch* (not worker) its own
sampling RNG stream derived from ``(fleet seed, batch index)``: a batch
produces the same minibatch no matter which worker executes it, so
rebalancing and work-stealing change *where* work runs, never *what* runs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace as dc_replace

import numpy as np

from ..config import SystemConfig
from ..errors import ConfigError, PipelineError
from ..faults.plan import FaultPlan, WorkerEvent
from ..graph.datasets import ScaledDataset
from ..pipeline.metrics import (
    IterationMetrics,
    RunReport,
    StageTimes,
)
from ..sampling.neighbor import NeighborSampler
from ..serving.breaker import BreakerBoard
from ..sim.counters import TransferCounters
from ..sim.ssd import SSDArray, contended_ssd
from ..state import (
    Stateful,
    child,
    children,
    each,
    group,
    guard,
    mapping,
    records,
    retired,
    scalar,
    seq,
)
from ..storage.feature_store import FeatureStore
from ..training.graphsage import (
    GraphSAGE,
    average_gradients,
    label_projection,
    project_labels,
)
from ..telemetry.tracer import ensure_tracer
from ..telemetry.context import TraceContext, step_trace_id
from ..telemetry.tracks import (
    FLEET_ALLREDUCE_TRACK,
    FLEET_EVENTS_TRACK,
    declare_track,
)
from ..utils import rendezvous_weights
from . import readpath

#: Loader name fleet runs export under.
FLEET_LOADER_NAME = "GIDS-fleet"


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


@dataclass(frozen=True)
class InterconnectSpec:
    """The GPU-to-GPU link peer-cache reads travel over.

    Defaults model an NVLink 3.0 pair: far lower latency than an SSD read
    and bandwidth well above the PCIe storage path — which is why a peer
    hit beats a redundant SSD read (LSM-GNN's core claim).
    """

    name: str = "NVLink 3.0"
    bandwidth_bytes: float = 100e9
    latency_s: float = 5e-6
    #: Modeled cost of a probe into a peer that never answers (dropped or
    #: pathologically slow); the breaker exists to stop paying this.
    probe_timeout_s: float = 1e-3

    def __post_init__(self) -> None:
        if self.bandwidth_bytes <= 0:
            raise ConfigError("interconnect bandwidth must be positive")
        if self.latency_s < 0 or self.probe_timeout_s < 0:
            raise ConfigError("interconnect times must be non-negative")

    def transfer_time(self, n_bytes: float) -> float:
        """Time to move ``n_bytes`` from a peer's cache, one hop."""
        if n_bytes < 0:
            raise ConfigError("byte count must be non-negative")
        if n_bytes == 0:
            return 0.0
        return self.latency_s + n_bytes / self.bandwidth_bytes


#: The peer-read link every fleet uses.
NVLINK = InterconnectSpec()
#: A worker whose step time exceeds the fleet median by this factor is
#: suspect.
STRAGGLER_THRESHOLD = 1.75
#: Fraction of a flagged straggler's queued batches moved per steal.
STEAL_FRACTION = 0.5
#: Hard cap on how often one worker can be stolen from (keeps the
#: rebalancer itself bounded).
MAX_STEALS_PER_VICTIM = 2
#: A peer whose I/O slowdown reaches this factor serves probes too slowly
#: to count; probes into it fail and feed its breaker.
PEER_SICK_FACTOR = 4.0
#: Modeled open time of a peer's breaker before half-open probing.
BREAKER_COOLDOWN_S = 0.02


@dataclass(frozen=True)
class FleetConfig:
    """Knobs of the elastic fleet.

    Args:
        num_gpus: data-parallel width.
        batch_size: training seeds per mini-batch per worker.
        shard_mode: ``"partition"`` (graph-partition-aware, the default)
            or ``"hash"`` (rendezvous-hash sharding).
        peer_cache: enable the peer-cache tier; off, every local cache
            miss goes to the shared SSD array (the contention baseline).
        straggler_patience: consecutive suspect steps before the worker is
            flagged and stolen from.
        breaker_min_samples: peer-read outcomes a peer's circuit breaker
            needs before its failure ratio is trusted.
    """

    num_gpus: int = 2
    batch_size: int = 64
    shard_mode: str = "partition"
    peer_cache: bool = True
    straggler_patience: int = 3
    breaker_min_samples: int = 8

    def __post_init__(self) -> None:
        if self.num_gpus <= 0:
            raise ConfigError("num_gpus must be positive")
        if self.batch_size <= 0:
            raise ConfigError("batch_size must be positive")
        if self.shard_mode not in ("partition", "hash"):
            raise ConfigError(
                f"unknown shard_mode {self.shard_mode!r}; expected "
                "'partition' or 'hash'"
            )
        if self.straggler_patience <= 0:
            raise ConfigError("straggler_patience must be positive")
        if self.breaker_min_samples <= 0:
            raise ConfigError("breaker_min_samples must be positive")


class _Worker(Stateful):
    """One modeled GPU worker: cache, queue, health, counters."""

    def __init__(self, index: int, cache_lines: int, seed: int) -> None:
        self.index = index
        self.cache_lines = cache_lines
        self.seed = seed
        self.generation = 0
        self.cache = self._fresh_cache()
        self.active = True
        self.slow_factor = 1.0
        self.queue: deque[int] = deque()
        self.skew_streak = 0
        self.times_stolen_from = 0
        self.counters = {
            "iterations": 0,
            "seeds_trained": 0,
            "ssd_pages": 0,
            "peer_hit_pages": 0,
            "cache_hit_pages": 0,
            "peer_probe_failures": 0,
            "stolen_in": 0,
            "stolen_out": 0,
            "busy_s": 0.0,
        }

    def _fresh_cache(self):
        from ..cache.gpu_cache import GPUSoftwareCache

        rng = np.random.default_rng(
            [self.seed, 0xCAC4E, self.index, self.generation]
        )
        return GPUSoftwareCache(self.cache_lines, seed=rng)

    def reset_cache(self) -> None:
        """Cold-start the cache (a recovered worker lost its HBM)."""
        self.generation += 1
        self.cache = self._fresh_cache()

    @property
    def name(self) -> str:
        return f"gpu:{self.index}"

    STATE = (
        guard("index"),
        scalar("generation", int),
        scalar("active", bool),
        scalar("slow_factor", float),
        seq("queue", int, into=deque, save=each(int)),
        scalar("skew_streak", int),
        scalar("times_stolen_from", int),
        retired("last_step_s"),
        mapping("counters"),
        # Built for the restored generation, then filled.
        child("cache", fresh=lambda self: self._fresh_cache()),
    )


@dataclass(frozen=True)
class _Served:
    """One batch's pass through cache -> peers -> SSD: times and traffic."""

    hbm_s: float
    peer_s: float
    ssd_s: float
    counters: TransferCounters


class ElasticFleetTrainer(Stateful):
    """Data-parallel GraphSAGE training over an elastic modeled GPU fleet.

    Args:
        dataset: the shared graph dataset.
        system: hardware configuration; the SSD array is shared across the
            fleet (per-step contention divides its IOPS among the workers
            aggregating that step), PCIe links and GPU caches are private.
        fleet: the :class:`FleetConfig`.
        seed: root seed; sampling, sharding, cache eviction and model
            initialization all derive private streams from it.
        fault_plan: optional :class:`~repro.faults.plan.FaultPlan`; its
            ``worker_events`` drive GPU dropout/recovery/straggle, and its
            ``device_events`` degrade the shared SSD array via the PR 1
            fault machinery.
        fanouts: sampler fanouts (also the GNN depth).
        gpu_cache_bytes: per-worker private cache size.
        hidden_dim / num_classes / lr: model hyper-parameters.
        label_seed: seed of the synthetic-label projection.
        tracer: optional telemetry tracer (per-worker step spans on
            ``fleet.gpu<k>`` tracks, lifecycle instants on
            ``fleet.events``, breaker transitions on the PR 6 track).
    """

    def __init__(
        self,
        dataset: ScaledDataset,
        system: SystemConfig,
        fleet: FleetConfig | None = None,
        *,
        seed: int = 0,
        fault_plan: FaultPlan | None = None,
        fanouts: tuple[int, ...] = (5, 5),
        gpu_cache_bytes: float = 64e6,
        hidden_dim: int = 32,
        num_classes: int = 8,
        lr: float = 0.05,
        label_seed: int = 0,
        replication: int = 1,
        parity: bool = False,
        rebuild_iops: float = 0.0,
        tracer=None,
    ) -> None:
        self.dataset = dataset
        self.system = system
        self.fleet = fleet if fleet is not None else FleetConfig()
        self.seed = seed
        self.fanouts = tuple(int(f) for f in fanouts)
        self.hidden_dim = hidden_dim
        self.num_classes = num_classes
        self.lr = lr
        self.label_seed = label_seed
        self.tracer = tracer = ensure_tracer(tracer)
        # Per-worker span lanes are dynamic; declare them so strict
        # tracers accept the fleet's tracks.
        for index in range(self.fleet.num_gpus):
            declare_track(f"fleet.gpu{index}")

        # Worker-scoped events come from the fault plan; device events
        # degrade the shared array through the stack's fault machinery
        # (the fleet consumes only the device timeline, never the plan's
        # per-read failure process).
        self.fault_plan = fault_plan
        self._events: list[WorkerEvent] = []
        device_plan = None
        if fault_plan is not None:
            problems = fault_plan.target_errors(
                num_ssds=system.num_ssds, fleet_size=self.fleet.num_gpus
            )
            if problems:
                raise ConfigError(f"fault plan: {'; '.join(problems)}")
            self._events = sorted(
                fault_plan.worker_events,
                key=lambda e: (e.at_time_s, e.worker),
            )
            if fault_plan.device_events:
                device_plan = fault_plan

        # Storage HA over the shared array is pay-for-what-you-use — the
        # defaults keep the fleet's storage accounting bit-identical.
        self.stack = readpath.StorageStack(
            dataset,
            system,
            fault_plan=device_plan,
            replication=replication,
            parity=parity,
            rebuild_iops=rebuild_iops,
            tracer=tracer,
            page_bytes=system.ssd.page_bytes,
        )
        self.store = self.stack.store
        self.layout = self.stack.layout
        self.gpu = self.stack.gpu
        self.fault_array = self.stack.fault_array
        self.storage_ha = self.stack.storage_ha
        #: The shared array as one of ``n`` concurrently aggregating
        #: workers sees it, per (array state, ``n``).
        self._contended: dict[tuple[SSDArray, int], SSDArray] = {}
        self.model = GraphSAGE(
            in_dim=dataset.feature_dim,
            hidden_dim=hidden_dim,
            num_classes=num_classes,
            num_layers=len(self.fanouts),
            lr=lr,
            seed=seed,
        )
        self._label_projection = label_projection(
            dataset.feature_dim, num_classes, seed=label_seed
        )

        cache_lines = int(gpu_cache_bytes // self.layout.page_bytes)
        self.workers = [
            _Worker(k, cache_lines, seed)
            for k in range(self.fleet.num_gpus)
        ]
        self.breakers = BreakerBoard(
            self.fleet.num_gpus,
            min_samples=self.fleet.breaker_min_samples,
            cooldown_s=BREAKER_COOLDOWN_S,
        )

        # ----- epoch schedule: shards -> fixed global batch list --------
        if self.fleet.shard_mode == "partition":
            shards = partition_shards(
                dataset, self.fleet.num_gpus, seed=seed
            )
        else:
            shards = shard_train_ids(
                dataset.train_ids, self.fleet.num_gpus, seed=seed
            )
        self.batches: list[np.ndarray] = []
        for k, shard in enumerate(shards):
            rng = np.random.default_rng([seed, 0x0B47C4, k])
            order = rng.permutation(len(shard))
            for start in range(0, len(shard), self.fleet.batch_size):
                batch = np.sort(shard[order[start:start + self.fleet.batch_size]])
                self.workers[k].queue.append(len(self.batches))
                self.batches.append(batch)

        self.clock_s = 0.0
        self.step_index = 0
        self._event_cursor = 0
        self.losses: list[float] = []
        self.schedule: list[list[tuple[int, int]]] = []
        self.rebalance_events: list[dict] = []
        self.steal_events: list[dict] = []
        self.fired_events: list[dict] = []
        self.report = RunReport(loader_name=FLEET_LOADER_NAME)
        self._param_bytes = sum(
            p.w_self.nbytes + p.w_neigh.nbytes + p.bias.nbytes
            for p in self.model.layers
        )

    # ------------------------------------------------------------------
    # Deterministic per-batch streams

    def _sample_batch(self, batch_index: int):
        """Sample batch ``batch_index``; identical on any worker, any run."""
        rng = np.random.default_rng([self.seed, 0x5A3B1E, batch_index])
        sampler = NeighborSampler(
            self.dataset.graph, self.fanouts, seed=rng
        )
        return sampler.sample(self.batches[batch_index])

    # ------------------------------------------------------------------
    # Elasticity: events, rebalancing, stealing

    def _active_workers(self) -> list[_Worker]:
        return [w for w in self.workers if w.active]

    def _instant(self, name: str, *, at_s: float, **args) -> None:
        """Mirror one elasticity event record (it carries its own
        ``at_s``) onto the fleet-events lane."""
        if self.tracer.enabled:
            self.tracer.instant(name, FLEET_EVENTS_TRACK, at_s=at_s, **args)

    def _fire_due_events(self) -> None:
        while (
            self._event_cursor < len(self._events)
            and self._events[self._event_cursor].at_time_s <= self.clock_s
        ):
            event = self._events[self._event_cursor]
            self._event_cursor += 1
            worker = self.workers[event.worker]
            record = {
                "worker": event.worker,
                "kind": event.kind,
                "at_s": self.clock_s,
                "planned_at_s": event.at_time_s,
            }
            if event.kind == "dropout" and worker.active:
                worker.active = False
                worker.slow_factor = 1.0
                worker.skew_streak = 0
                self._redistribute(worker, reason="dropout")
            elif event.kind == "recovery" and not worker.active:
                worker.active = True
                worker.slow_factor = 1.0
                worker.reset_cache()
                self._steal_back(worker)
            elif event.kind == "straggle":
                worker.slow_factor = event.factor
                record["factor"] = event.factor
            elif event.kind == "recovery" and worker.active:
                # Recovery of a straggler: the degraded path healed.
                worker.slow_factor = 1.0
            self.fired_events.append(record)
            self._instant(f"fleet.{event.kind}", **record)

    def _redistribute(self, source: _Worker, *, reason: str) -> None:
        """Hand ``source``'s queued batches to the active survivors.

        Round-robin over survivors in ascending index order — a pure
        function of the queue and fleet state, so a replayed or resumed
        run rebalances identically.
        """
        moved = list(source.queue)
        source.queue.clear()
        if not moved:
            return
        survivors = [w for w in self._active_workers() if w is not source]
        if not survivors:
            # Nobody to give the work to; the batches wait for a recovery.
            source.queue.extend(moved)
            return
        for i, batch in enumerate(moved):
            survivors[i % len(survivors)].queue.append(batch)
        event = {
            "at_s": self.clock_s,
            "reason": reason,
            "from": source.index,
            "to": [w.index for w in survivors],
            "batches_moved": len(moved),
        }
        self.rebalance_events.append(event)
        self._instant("fleet.rebalance", **event)

    def _steal_back(self, joined: _Worker) -> None:
        """A recovered worker reclaims a fair share of the remaining work."""
        donors = [w for w in self._active_workers() if w is not joined]
        remaining = sum(len(w.queue) for w in donors)
        if remaining == 0:
            return
        fair = remaining // (len(donors) + 1)
        taken = 0
        while taken < fair:
            donors.sort(key=lambda w: (-len(w.queue), w.index))
            donor = donors[0]
            if len(donor.queue) <= 1:
                break
            joined.queue.append(donor.queue.pop())
            taken += 1
        if taken:
            event = {
                "at_s": self.clock_s,
                "reason": "recovery",
                "from": [w.index for w in donors],
                "to": joined.index,
                "batches_moved": taken,
            }
            self.rebalance_events.append(event)
            self._instant("fleet.rebalance", **event)

    def _detect_stragglers(self, step_times: dict[int, float]) -> None:
        """Flag skewed workers and steal bounded work from them."""
        if len(step_times) < 2:
            return
        median = float(np.median(list(step_times.values())))
        if median <= 0:
            return
        for index, elapsed in sorted(step_times.items()):
            worker = self.workers[index]
            if elapsed > STRAGGLER_THRESHOLD * median:
                worker.skew_streak += 1
            else:
                worker.skew_streak = 0
                continue
            if worker.skew_streak < self.fleet.straggler_patience:
                continue
            if worker.times_stolen_from >= MAX_STEALS_PER_VICTIM:
                continue
            n_steal = int(len(worker.queue) * STEAL_FRACTION)
            if n_steal == 0:
                continue
            fastest = min(
                (
                    w
                    for w in self._active_workers()
                    if w.index != index and w.index in step_times
                ),
                key=lambda w: (step_times[w.index], w.index),
                default=None,
            )
            if fastest is None:
                continue
            moved = [worker.queue.pop() for _ in range(n_steal)]
            moved.reverse()
            fastest.queue.extend(moved)
            worker.times_stolen_from += 1
            worker.skew_streak = 0
            worker.counters["stolen_out"] += n_steal
            fastest.counters["stolen_in"] += n_steal
            event = {
                "at_s": self.clock_s,
                "from": index,
                "to": fastest.index,
                "batches_moved": n_steal,
                "skew": elapsed / median,
            }
            self.steal_events.append(event)
            self._instant("fleet.steal", **event)

    # ------------------------------------------------------------------
    # The peer-cache tier

    def _serve_pages(
        self, worker: _Worker, pages: np.ndarray, n_active: int
    ) -> _Served:
        """Serve one batch's pages through cache -> peers -> SSD."""
        page_bytes = self.layout.page_bytes
        counters = TransferCounters()
        remaining = readpath.probe(self.stack, worker.cache, pages, counters)
        hbm_s = self.gpu.hbm_read_time(counters.gpu_cache_bytes)

        peer_s = 0.0
        n_peer = 0
        if self.fleet.peer_cache and len(self.workers) > 1:
            order = [
                (worker.index + off) % len(self.workers)
                for off in range(1, len(self.workers))
            ]
            for peer_index in order:
                if len(remaining) == 0:
                    break
                peer = self.workers[peer_index]
                breaker = self.breakers[peer_index]
                if not breaker.allows_storage(self.clock_s, self.tracer):
                    continue  # open: short-circuit straight to SSD
                sick = (
                    not peer.active
                    or peer.slow_factor >= PEER_SICK_FACTOR
                )
                if sick:
                    # The probe times out; the breaker learns the peer is
                    # gone and stops the fleet paying this again.
                    peer_s += NVLINK.probe_timeout_s
                    worker.counters["peer_probe_failures"] += len(remaining)
                    breaker.record(
                        0, len(remaining), self.clock_s, self.tracer
                    )
                    continue
                found = peer.cache.resident_mask(remaining)
                n_found = int(found.sum())
                breaker.record(
                    len(remaining), 0, self.clock_s, self.tracer
                )
                if n_found:
                    peer_s += (
                        NVLINK.transfer_time(
                            n_found * page_bytes
                        )
                        * peer.slow_factor
                    )
                    n_peer += n_found
                    remaining = remaining[~found]

        n_ssd = len(remaining)
        shared = self.stack.advance(self.clock_s).effective()
        array = self._contended.get((shared, n_active))
        if array is None:
            array = self._contended[shared, n_active] = dc_replace(
                shared, spec=contended_ssd(shared.spec, n_active)
            )
        # Pages behind an unavailable device come off replicas (counted)
        # or cost parity member reads (added to device service).  The
        # fleet models no CPU-mirror tier: a page with no live copy still
        # queues on the shared array.
        lost = readpath.route(self.stack, remaining, counters).n_lost
        counters.storage_requests += lost
        counters.storage_bytes += lost * page_bytes
        counters.fallback_requests -= lost
        counters.fallback_bytes -= lost * page_bytes
        n_service = counters.device_reads
        ssd_s = array.batch_service_time(n_service) if n_service else 0.0

        worker.counters["cache_hit_pages"] += counters.gpu_cache_hits
        worker.counters["peer_hit_pages"] += n_peer
        worker.counters["ssd_pages"] += n_ssd
        return _Served(hbm_s, peer_s, ssd_s, counters)

    # ------------------------------------------------------------------
    # The global step

    def _next_event_time(self) -> float | None:
        if self._event_cursor < len(self._events):
            return self._events[self._event_cursor].at_time_s
        return None

    def _run_step(self) -> None:
        tracer = self.tracer
        if tracer.want_request_detail:
            # Root one causal chain per global step: breaker probes, HA
            # routing, rebalance/steal instants and the per-GPU step spans
            # all land in the same trace.
            ctx = TraceContext(
                step_trace_id("fleet", self.step_index), origin="fleet"
            )
            with tracer.context(ctx):
                self._step_impl()
        else:
            self._step_impl()
        tracer.clock_s = self.clock_s
        if tracer.enabled:
            tracer.poll(self.clock_s)

    def _step_impl(self) -> None:
        self._fire_due_events()
        participants = [
            w for w in self._active_workers() if w.queue
        ]
        if not participants:
            pending = self._next_event_time()
            if pending is None:
                raise PipelineError(
                    "fleet stalled: batches remain but every worker is "
                    "dropped and no recovery event is pending"
                )
            # Idle until the next scheduled event (e.g. a recovery).
            self.clock_s = max(self.clock_s, pending)
            self._fire_due_events()
            participants = [w for w in self._active_workers() if w.queue]
            if not participants:
                return  # another event may still unblock us next call
        n_active = len(participants)
        page_bytes = self.layout.page_bytes
        step_start = self.clock_s

        assignments: list[tuple[int, int]] = []
        step_times: dict[int, float] = {}
        step_losses: list[float] = []
        grads_list = []
        stage_max = StageTimes()
        counters = TransferCounters()
        work_stats = []

        for worker in participants:
            batch_index = worker.queue.popleft()
            minibatch = self._sample_batch(batch_index)
            sampling_s = self.gpu.sampling_time(
                minibatch.num_sampled, n_kernels=len(self.fanouts)
            )
            pages = self.layout.pages_for_nodes(minibatch.input_nodes)
            served = self._serve_pages(worker, pages, n_active)
            hbm_s, peer_s, ssd_s = served.hbm_s, served.peer_s, served.ssd_s
            transfer_s = (
                served.counters.storage_requests
                * page_bytes
                / self.system.pcie.bandwidth_bytes
            )
            training_s = self.gpu.training_time(minibatch.num_input_nodes)
            io_s = (peer_s + ssd_s + transfer_s + hbm_s) * worker.slow_factor
            elapsed = sampling_s + io_s + training_s

            features, labels = _batch_inputs(
                self.store, minibatch, self._label_projection
            )
            loss, grads = self.model.gradients(minibatch, features, labels)
            grads_list.append(grads)
            step_losses.append(loss)

            assignments.append((worker.index, batch_index))
            step_times[worker.index] = elapsed
            worker.counters["iterations"] += 1
            worker.counters["seeds_trained"] += len(minibatch.seeds)
            worker.counters["busy_s"] += elapsed

            times = StageTimes(
                sampling=sampling_s,
                aggregation=(peer_s + ssd_s) * worker.slow_factor,
                transfer=(transfer_s + hbm_s) * worker.slow_factor,
                training=training_s,
            )
            stage_max.sampling = max(stage_max.sampling, times.sampling)
            stage_max.aggregation = max(
                stage_max.aggregation, times.aggregation
            )
            stage_max.transfer = max(stage_max.transfer, times.transfer)
            stage_max.training = max(stage_max.training, times.training)
            counters.merge(served.counters)
            work_stats.append(
                (worker, minibatch, times, batch_index, elapsed)
            )

        # All-reduce: average in ascending worker order (participants are
        # already ordered), apply once per step — every model replica
        # stays bit-identical, so one shared copy suffices in the model.
        averaged = average_gradients(grads_list)
        self.model.apply_gradients(averaged)
        allreduce_s = 0.0
        if n_active > 1:
            allreduce_s = (
                2.0
                * (n_active - 1)
                / n_active
                * self._param_bytes
                / NVLINK.bandwidth_bytes
            )
        self.losses.append(float(np.mean(step_losses)))
        self.schedule.append(assignments)

        step_time = max(step_times.values()) + allreduce_s
        if self.tracer.enabled:
            for worker, minibatch, times, batch_index, elapsed in work_stats:
                self.tracer.record(
                    "fleet.step",
                    f"fleet.gpu{worker.index}",
                    start_s=step_start,
                    duration_s=elapsed,
                    batch=batch_index,
                    seeds=len(minibatch.seeds),
                )
            if allreduce_s:
                self.tracer.record(
                    "fleet.allreduce",
                    FLEET_ALLREDUCE_TRACK,
                    start_s=step_start + max(step_times.values()),
                    duration_s=allreduce_s,
                    workers=n_active,
                )

        totals = StageTimes(
            sampling=stage_max.sampling,
            aggregation=stage_max.aggregation,
            transfer=stage_max.transfer,
            training=stage_max.training + allreduce_s,
        )
        self.report.append(
            IterationMetrics(
                times=totals,
                num_seeds=sum(
                    len(mb.seeds) for _, mb, _, _, _ in work_stats
                ),
                num_input_nodes=sum(
                    mb.num_input_nodes for _, mb, _, _, _ in work_stats
                ),
                num_sampled=sum(
                    mb.num_sampled for _, mb, _, _, _ in work_stats
                ),
                num_edges=sum(
                    sum(len(layer.src) for layer in mb.layers)
                    for _, mb, _, _, _ in work_stats
                ),
                counters=counters,
            )
        )

        self.stack.background(
            step_time, self.clock_s + step_time, counters
        )

        self.clock_s += step_time
        self.step_index += 1
        self._detect_stragglers(step_times)

    def run_epoch(
        self, *, max_steps: int | None = None
    ) -> "ElasticFleetTrainer":
        """Run (or resume) the epoch until every batch has been trained;
        returns the trainer.

        Args:
            max_steps: stop after this many *additional* global steps
                (used by kill/resume tests to interrupt mid-epoch).
        """
        steps_done = 0
        guard = 0
        limit = 10 * max(1, len(self.batches)) + len(self._events) + 16
        while not self.completed:
            if max_steps is not None and steps_done >= max_steps:
                break
            before = self.step_index
            self._run_step()
            guard += 1
            if guard > limit:
                raise PipelineError(
                    "fleet failed to make progress; event plan likely "
                    "leaves all workers dropped"
                )
            if self.step_index == before:
                continue  # idled to an event boundary, no step executed
            steps_done += 1
        return self

    # ------------------------------------------------------------------
    # What the run produced, read off the live state

    @property
    def epoch_time_s(self) -> float:
        """The modeled clock: the epoch's length once it completes."""
        return self.clock_s

    @property
    def completed(self) -> bool:
        """No batch is left queued on any worker."""
        return not any(w.queue for w in self.workers)

    @property
    def final_loss(self) -> float | None:
        return self.losses[-1] if self.losses else None

    def trained_seeds(self) -> np.ndarray:
        """Every seed id trained, duplicates preserved."""
        ids = [b for step in self.schedule for _, b in step]
        if not ids:
            return np.empty(0, dtype=np.int64)
        return np.concatenate([self.batches[b] for b in ids])

    @property
    def total_ssd_pages(self) -> int:
        return sum(w.counters["ssd_pages"] for w in self.workers)

    @property
    def peer_cache_hit_ratio(self) -> float:
        """Peer hits over all pages that missed the local cache."""
        peer = sum(w.counters["peer_hit_pages"] for w in self.workers)
        total = peer + self.total_ssd_pages
        return peer / total if total else 0.0

    def fleet_block(self) -> dict:
        """The schema-v8 ``fleet`` export block."""
        return {
            "num_gpus": self.fleet.num_gpus,
            "completed": self.completed,
            "epoch_time_s": self.clock_s,
            "global_steps": len(self.schedule),
            "final_loss": self.final_loss,
            "peer_cache_hit_ratio": self.peer_cache_hit_ratio,
            "workers": [
                {"worker": w.index, "active": w.active, **w.counters}
                for w in self.workers
            ],
            "rebalance_events": [dict(e) for e in self.rebalance_events],
            "steal_events": [dict(e) for e in self.steal_events],
            "worker_events": [dict(e) for e in self.fired_events],
            "breaker_transitions": [
                dict(t) for t in self.breakers.transitions()
            ],
            "config": {
                "num_gpus": self.fleet.num_gpus,
                "batch_size": self.fleet.batch_size,
                "shard_mode": self.fleet.shard_mode,
                "peer_cache": self.fleet.peer_cache,
                "seed": self.seed,
                "fanouts": list(self.fanouts),
                "hidden_dim": self.hidden_dim,
                "num_classes": self.num_classes,
                "lr": self.lr,
                "label_seed": self.label_seed,
            },
        }

    # ------------------------------------------------------------------
    # Coordinated checkpoint (consistent cut at the step barrier)

    #: A consistent cut across every worker and shared component.
    STATE = (
        group(
            "fleet",
            (
                guard("num_gpus", "fleet.num_gpus"),
                guard("batch_size", "fleet.batch_size"),
                guard("shard_mode", "fleet.shard_mode"),
                guard("peer_cache", "fleet.peer_cache"),
                guard("seed"),
                guard("num_batches", lambda self: len(self.batches)),
                guard(
                    "seed_checksum",
                    lambda self: int(sum(int(b.sum()) for b in self.batches)),
                ),
            ),
        ),
        scalar("clock_s", float),
        scalar("step_index", int),
        scalar("event_cursor", int, attr="_event_cursor"),
        seq("losses", float),
        seq(
            "schedule",
            lambda step: [(int(w), int(b)) for w, b in step],
            save=each(lambda step: [[int(w), int(b)] for w, b in step]),
        ),
        records("rebalance_events"),
        records("steal_events"),
        records("fired_events"),
        child("model"),
        children("workers"),
        child("breakers"),
        child("fault_array", optional=True),
        child("storage_ha", optional=True),
        child("report", cls=RunReport),
    )


def _batch_inputs(store: FeatureStore, minibatch, projection: np.ndarray):
    """Input features of one sampled batch and the labels of its seeds.

    The seeds are among the (sorted) input nodes, so their labels come
    from the rows just fetched rather than a second fetch.
    """
    features = store.fetch(minibatch.input_nodes)
    seed_rows = np.searchsorted(minibatch.input_nodes, minibatch.seeds)
    return features, project_labels(features[seed_rows], projection)


def replay_schedule(trainer: ElasticFleetTrainer) -> list[float]:
    """Re-execute a fleet's schedule with training math only.

    The schedule — which batches ran in which global step, in which
    worker order — fully determines the loss trajectory: sampling RNG is
    per-batch, labels and features are pure functions of node ids, and
    gradient averaging follows the recorded order.  The returned losses
    are bit-identical to ``trainer.losses`` for any genuine run; the
    chaos harness uses the comparison as its replay invariant.
    """
    dataset = trainer.dataset
    model = GraphSAGE(
        in_dim=dataset.feature_dim,
        hidden_dim=trainer.hidden_dim,
        num_classes=trainer.num_classes,
        num_layers=len(trainer.fanouts),
        lr=trainer.lr,
        seed=trainer.seed,
    )
    store = FeatureStore(dataset.num_nodes, dataset.feature_dim)
    projection = label_projection(
        dataset.feature_dim, trainer.num_classes, seed=trainer.label_seed
    )
    losses = []
    for step in trainer.schedule:
        grads_list = []
        step_losses = []
        for _, batch_index in step:
            rng = np.random.default_rng([trainer.seed, 0x5A3B1E, batch_index])
            sampler = NeighborSampler(dataset.graph, trainer.fanouts, seed=rng)
            minibatch = sampler.sample(trainer.batches[batch_index])
            features, labels = _batch_inputs(store, minibatch, projection)
            loss, grads = model.gradients(minibatch, features, labels)
            grads_list.append(grads)
            step_losses.append(loss)
        model.apply_gradients(average_gradients(grads_list))
        losses.append(float(np.mean(step_losses)))
    return losses


def check_invariants(trainer: ElasticFleetTrainer) -> list[str]:
    """The chaos harness's invariants; returns violations (empty = pass).

    * every training seed trained exactly once (none lost to a dropout,
      none double-trained by a rebalance or steal);
    * the loss trajectory equals a deterministic replay of the executed
      schedule, bit for bit.
    """
    violations: list[str] = []
    if not trainer.completed:
        violations.append("epoch did not complete")
    trained = trainer.trained_seeds()
    expected = np.sort(np.asarray(trainer.dataset.train_ids, dtype=np.int64))
    if len(trained) != len(expected):
        violations.append(
            f"trained {len(trained)} seeds, expected {len(expected)}"
        )
    unique = np.unique(trained)
    if len(unique) != len(trained):
        violations.append(
            f"{len(trained) - len(unique)} seeds trained more than once"
        )
    if not np.array_equal(np.sort(trained), expected):
        violations.append("trained seed set differs from the train set")
    if trainer.losses != replay_schedule(trainer):
        violations.append(
            "loss trajectory diverges from the schedule replay"
        )
    return violations


def _chaos_plan(
    scenario: str, epoch_time_s: float, num_gpus: int, seed: int
) -> FaultPlan | None:
    """The fault plan a chaos scenario injects.

    Dropouts, recoveries and storms land mid-epoch.  The straggler is slow
    from the first step: it is stolen from only after
    ``straggler_patience`` skewed steps, and on a small fleet a mid-epoch
    onset leaves it too few queued batches by then to steal any.
    """
    mid = 0.35 * epoch_time_s
    early = 0.15 * epoch_time_s
    straggle = WorkerEvent(
        worker=(num_gpus - 1), kind="straggle", at_time_s=0.0, factor=8.0
    )
    if scenario == "baseline":
        return None
    if scenario == "dropout":
        return FaultPlan(
            seed=seed,
            worker_events=(
                WorkerEvent(worker=1 % num_gpus, kind="dropout",
                            at_time_s=mid),
            ),
        )
    if scenario == "dropout+recovery":
        return FaultPlan(
            seed=seed,
            worker_events=(
                WorkerEvent(worker=1 % num_gpus, kind="dropout",
                            at_time_s=early),
                WorkerEvent(worker=1 % num_gpus, kind="recovery",
                            at_time_s=mid),
            ),
        )
    if scenario == "straggler":
        return FaultPlan(seed=seed, worker_events=(straggle,))
    if scenario == "dropout+straggler":
        return FaultPlan(
            seed=seed,
            worker_events=(
                straggle,
                WorkerEvent(worker=1 % num_gpus, kind="dropout",
                            at_time_s=mid),
            ),
        )
    if scenario == "corruption-storm":
        # A media storm on the shared array: the fleet's modeled schedule
        # must not care (feature integrity is the single-GPU loaders'
        # verify-on-read concern) — the invariants still have to hold.
        from ..faults.plan import CorruptionEvent

        return FaultPlan(
            seed=seed,
            corruption_events=(
                CorruptionEvent(device=0, at_time_s=early,
                                page_fraction=0.05),
            ),
        )
    raise ConfigError(f"unknown chaos scenario {scenario!r}")


#: Scenarios :func:`run_chaos_suite` sweeps by default.
CHAOS_SCENARIOS = (
    "baseline",
    "dropout",
    "dropout+recovery",
    "straggler",
    "dropout+straggler",
    "corruption-storm",
)


def run_chaos_suite(
    dataset: ScaledDataset,
    system: SystemConfig,
    *,
    num_gpus: int = 4,
    seed: int = 0,
    scenarios: tuple[str, ...] = CHAOS_SCENARIOS,
    fleet: FleetConfig | None = None,
    resume_probe_step: int | None = None,
) -> dict:
    """Sweep failure scenarios and assert the fleet's invariants.

    Every scenario runs a full epoch under its fault plan and checks:
    exactly-once seed training, bit-identical schedule replay, and a
    bit-identical fleet-wide kill/resume at a mid-epoch step.  Scenario
    extras: a dropout must trigger a rebalance; a straggler must trigger
    a bounded steal, so a fleet too small for any steal raises
    :class:`~repro.errors.ConfigError` before a scenario runs.

    Returns a report dict with per-scenario verdicts; ``report["passed"]``
    is the overall result.
    """
    if fleet is None:
        # About 8 batches per worker, so that mid-epoch events land
        # mid-epoch; the batch size floors at 1, so a small train set
        # gives fewer.
        batch_size = max(1, len(dataset.train_ids) // (num_gpus * 8))
        fleet = FleetConfig(
            num_gpus=num_gpus,
            batch_size=batch_size,
            straggler_patience=2,
            breaker_min_samples=4,
        )

    def build(plan: FaultPlan | None) -> ElasticFleetTrainer:
        return ElasticFleetTrainer(
            dataset, system, fleet, seed=seed, fault_plan=plan
        )

    # Probe run: scenario event times are fractions of the healthy epoch.
    baseline = build(None).run_epoch()
    epoch_time = baseline.epoch_time_s
    if "straggler" in scenarios:
        # A steal needs the straggler's skew streak to reach the patience
        # while it still holds two queued batches, and a skew measured
        # against a median of more than two step times.
        needed = fleet.straggler_patience + 2
        own = sum(
            index == num_gpus - 1
            for step in baseline.schedule
            for index, _ in step
        )
        if num_gpus < 3 or own < needed:
            raise ConfigError(
                f"the straggler scenario needs at least 3 GPUs and "
                f"{needed} batches on the straggler; this fleet has "
                f"{num_gpus} GPUs and {own} batches on gpu:{num_gpus - 1}"
            )

    results: dict[str, dict] = {}
    for scenario in scenarios:
        plan = _chaos_plan(scenario, epoch_time, num_gpus, seed)
        trainer = build(plan)
        outcome = trainer.run_epoch()
        violations = check_invariants(outcome)

        if "dropout" in scenario and not outcome.rebalance_events:
            violations.append("dropout fired but nothing was rebalanced")
        if scenario == "straggler" and not outcome.steal_events:
            violations.append(
                "straggler configured but no work was stolen"
            )
        if scenario == "corruption-storm" and (
            outcome.losses != baseline.losses
        ):
            violations.append(
                "a media storm perturbed the fleet's loss trajectory"
            )

        # Fleet-wide kill/resume at a mid-epoch step boundary.
        probe = resume_probe_step
        if probe is None:
            probe = max(1, len(outcome.schedule) // 2)
        first = build(plan)
        first.run_epoch(max_steps=probe)
        cut = first.state_dict()
        resumed = build(plan)
        resumed.load_state_dict(cut)
        resumed_outcome = resumed.run_epoch()
        if resumed_outcome.losses != outcome.losses:
            violations.append(
                f"kill/resume at step {probe} diverged from the "
                "uninterrupted run"
            )

        results[scenario] = {
            "passed": not violations,
            "violations": violations,
            "global_steps": len(outcome.schedule),
            "epoch_time_s": outcome.epoch_time_s,
            "final_loss": outcome.final_loss,
            "peer_cache_hit_ratio": outcome.peer_cache_hit_ratio,
            "ssd_pages": outcome.total_ssd_pages,
            "rebalance_events": len(outcome.rebalance_events),
            "steal_events": len(outcome.steal_events),
            "breaker_transitions": len(outcome.breakers.transitions()),
        }

    return {
        "num_gpus": num_gpus,
        "seed": seed,
        "scenarios": results,
        "passed": all(r["passed"] for r in results.values()),
    }
