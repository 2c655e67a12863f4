"""Host-time spans recorded from outside the program.

The benchmark owns its tracing: :func:`install` swaps the public functions
of every layer for shims that open a span (name, start, end, parent, op id)
around the original call, and :meth:`Recorder.uninstall` puts the original
objects back.  Nothing in ``src/repro`` knows it is being timed, and a
traced run's modeled outputs are bit-identical to an untraced run's.

A layer's *self* time is its span minus the part covered by child spans.
*Driver* layers (the stepping entry points) wrap everything else, so their
self time is exactly the host time no leaf layer accounts for.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter

#: Phases a run moves through; aggregates are kept per phase so that
#: set-up, warm-up and end-of-run work never leak into the per-layer numbers.
SETUP, WARMUP, TIMED, AFTER = "setup", "warmup", "timed", "after"


class Recorder:
    """Span store plus per-(phase, layer) aggregates."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        #: one row per span: [name id, start, end, parent row, op id]
        self.spans: list[list] = []
        self.phase = SETUP
        self.op = -1
        #: (phase, layer) -> [calls, wall seconds, self seconds]
        self.stats: dict[tuple[str, str], list] = defaultdict(
            lambda: [0, 0.0, 0.0]
        )
        #: counts taken at the same boundaries, timed phase only
        self.counts: dict[str, float] = defaultdict(float)
        #: timed seconds inside outermost non-driver spans
        self.attributed_s = 0.0
        self._stack: list[tuple[int, bool]] = []
        self._child_s: list[float] = []
        self._leaf_depth = 0
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Span bookkeeping (called by the shims)

    def _begin(self, name: str, driver: bool) -> None:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append((len(self.spans), driver))
        self._child_s.append(0.0)
        if not driver:
            self._leaf_depth += 1
        row = [name_id, 0.0, 0.0, parent, self.op]
        self.spans.append(row)
        row[1] = perf_counter()

    def _end(self) -> None:
        end = perf_counter()
        index, driver = self._stack.pop()
        row = self.spans[index]
        row[2] = end
        duration = end - row[1]
        child_s = self._child_s.pop()
        if self._child_s:
            self._child_s[-1] += duration
        stat = self.stats[(self.phase, self.names[row[0]])]
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - child_s
        if not driver:
            self._leaf_depth -= 1
            if self._leaf_depth == 0 and self.phase == TIMED:
                self.attributed_s += duration

    def layer(self, name: str, phase: str = TIMED) -> tuple[int, float, float]:
        """``(calls, wall_s, self_wall_s)`` of one layer in one phase."""
        calls, wall, self_wall = self.stats.get((phase, name), (0, 0.0, 0.0))
        return calls, wall, self_wall

    # ------------------------------------------------------------------
    # Installing and removing the shims

    def wrap(self, owner, attr: str, name: str, *, driver=False, observe=None):
        """Replace ``owner.attr`` (a class or module attribute) by a shim."""
        original = vars(owner).get(attr)
        if not inspect.isfunction(original):
            raise RuntimeError(
                f"{owner.__name__}.{attr} is not a plain function defined "
                "there; the shim table no longer matches the program"
            )
        recorder = self

        @functools.wraps(original)
        def shim(*args, **kwargs):
            recorder._begin(name, driver)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder._end()
            if observe is not None and recorder.phase == TIMED:
                observe(recorder.counts, result, args, kwargs)
            return result

        setattr(owner, attr, shim)
        self._saved.append((owner, attr, original))

    def wrap_function(self, function, name: str) -> None:
        """Shim a module-level function wherever ``repro`` imported it."""
        owners = [
            module
            for key, module in list(sys.modules.items())
            if (key == "repro" or key.startswith("repro."))
            and module is not None
            and vars(module).get(function.__name__) is function
        ]
        if not owners:
            raise RuntimeError(f"no module holds {function.__name__}")
        # One shim object shared by every importing module, so a call is
        # recorded once however it is reached.
        self.wrap(owners[0], function.__name__, name)
        shim = vars(owners[0])[function.__name__]
        for module in owners[1:]:
            setattr(module, function.__name__, shim)
            self._saved.append((module, function.__name__, function))

    def uninstall(self) -> None:
        """Put every original attribute back (identity, not a copy)."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    @property
    def wrapped(self) -> list[tuple[object, str, object]]:
        """``(owner, attribute, original)`` of every live shim."""
        return list(self._saved)

    def trace_document(self, **header) -> dict:
        """Everything recorded, in a compact columnar form."""
        return {
            **header,
            "columns": ["name", "start_s", "end_s", "parent", "op"],
            "names": self.names,
            "spans": self.spans,
        }


def _arg(args, kwargs, name):
    """First non-self argument of a call, however it was passed."""
    return args[1] if len(args) > 1 else kwargs[name]


def _add(key, value=lambda result, args, kwargs: result):
    def observe(counts, result, args, kwargs):
        counts[key] += value(result, args, kwargs)

    return observe


def _observe_access(counts, result, args, kwargs):
    counts["cache.gpu.pages"] += len(_arg(args, kwargs, "pages"))
    counts["cache.gpu.hits"] += int(result.sum())


def _observe_contains(counts, result, args, kwargs):
    counts["cache.cpu_buffer.nodes"] += len(_arg(args, kwargs, "node_ids"))
    counts["cache.cpu_buffer.redirected"] += int(result.sum())


def _observe_ssd_batch(counts, result, args, kwargs):
    counts["sim.ssd.requests"] += int(_arg(args, kwargs, "n_requests"))
    counts["sim.ssd.modeled_s"] += result


def _observe_verify(counts, result, args, kwargs):
    counts["integrity.verified_pages"] += result.verified
    counts["integrity.detected"] += result.detected
    counts["integrity.repaired"] += result.repaired


def _observe_scrub(counts, result, args, kwargs):
    counts["integrity.detected"] += result.detected
    counts["integrity.repaired"] += result.repaired


def _observe_rebuild(counts, result, args, kwargs):
    if result is not None:
        counts["storage_ha.rebuild_pages"] += result.pages_rebuilt


def install() -> Recorder:
    """Shim every layer's public boundary; returns the live recorder."""
    from repro.cache.cpu_buffer import ConstantCPUBuffer
    from repro.cache.gpu_cache import GPUSoftwareCache
    from repro.checkpoint.store import CheckpointStore
    from repro.core.accumulator import DynamicAccessAccumulator
    from repro.core.fleet import ElasticFleetTrainer
    from repro.core.gids import GIDSDataLoader
    from repro.core.window import WindowBuffer
    from repro.faults import FaultInjector, FaultySSDArray
    from repro.fullgraph import FullGraphTrainer
    from repro.graph.datasets import load_scaled
    from repro.graph.pagerank import hot_node_ranking
    from repro.graph.partition import partition_graph
    from repro.integrity import ReadVerifier, Scrubber
    from repro.sampling.neighbor import NeighborSampler
    from repro.serving import InferenceServer
    from repro.sim.gpu import GPUModel
    from repro.sim.pcie import PCIeLink
    from repro.sim.ssd import SSDArray
    from repro.storage.feature_store import FeatureStore
    from repro.storage.layout import PageLayout
    from repro.storage_ha import StorageHA
    from repro.telemetry import Tracer
    from repro.training.graphsage import GraphSAGE, average_gradients

    recorder = Recorder()
    wrap = recorder.wrap
    try:
        # Drivers: the stepping entry points the harness calls.
        wrap(GIDSDataLoader, "next_training_group", "core.gids", driver=True)
        wrap(InferenceServer, "step", "serving", driver=True)
        wrap(InferenceServer, "drain", "serving", driver=True)
        wrap(ElasticFleetTrainer, "run_epoch", "core.fleet", driver=True)
        wrap(FullGraphTrainer, "run_steps", "fullgraph", driver=True)

        wrap(NeighborSampler, "sample", "sampling",
             observe=_add("sampling.sampled_nodes",
                          lambda r, a, k: r.num_sampled))
        wrap(GPUSoftwareCache, "access", "cache.gpu.access",
             observe=_observe_access)
        wrap(GPUSoftwareCache, "register_future", "cache.gpu.pin")
        wrap(GPUSoftwareCache, "forget_future", "cache.gpu.pin")
        wrap(ConstantCPUBuffer, "contains", "cache.cpu_buffer",
             observe=_observe_contains)
        wrap(WindowBuffer, "push", "core.window",
             observe=_add("core.window.pushes", lambda r, a, k: 1))
        wrap(WindowBuffer, "pop", "core.window")
        wrap(DynamicAccessAccumulator, "should_merge_more",
             "core.accumulator")
        wrap(DynamicAccessAccumulator, "observe", "core.accumulator")

        wrap(SSDArray, "batch_service_time", "sim.ssd",
             observe=_observe_ssd_batch)
        wrap(SSDArray, "sequential_read_time", "sim.ssd",
             observe=_add("sim.ssd.modeled_s"))
        wrap(SSDArray, "sequential_write_time", "sim.ssd",
             observe=_add("sim.ssd.modeled_s"))
        wrap(PCIeLink, "ingress_time", "sim.pcie",
             observe=_add("sim.pcie.modeled_s"))
        wrap(PCIeLink, "transfer_time", "sim.pcie",
             observe=_add("sim.pcie.modeled_s"))
        wrap(GPUModel, "sampling_time", "sim.gpu",
             observe=_add("sim.gpu.modeled_sampling_s"))
        wrap(GPUModel, "request_generation_time", "sim.gpu",
             observe=_add("sim.gpu.modeled_sampling_s"))
        wrap(GPUModel, "hbm_read_time", "sim.gpu",
             observe=_add("sim.gpu.modeled_hbm_s"))
        wrap(GPUModel, "training_time", "sim.gpu",
             observe=_add("sim.gpu.modeled_train_s"))

        wrap(FeatureStore, "fetch", "storage.fetch",
             observe=_add("storage.rows", lambda r, a, k: len(r)))
        wrap(PageLayout, "pages_for_nodes", "storage.layout")

        wrap(FaultInjector, "resolve_batch", "faults",
             observe=_add("faults.retries", lambda r, a, k: r.retries))
        wrap(FaultySSDArray, "advance_to", "faults")
        wrap(FaultySSDArray, "unavailable_page_mask", "faults")
        wrap(StorageHA, "route", "storage_ha.route",
             observe=_add("storage_ha.replica_redirects",
                          lambda r, a, k: r.n_replica))
        wrap(StorageHA, "advance", "storage_ha")
        wrap(StorageHA, "background_sweep", "storage_ha",
             observe=_observe_rebuild)
        wrap(ReadVerifier, "process", "integrity.verify",
             observe=_observe_verify)
        wrap(Scrubber, "sweep", "integrity.scrub", observe=_observe_scrub)
        for attr in ("record", "instant", "span"):
            wrap(Tracer, attr, "telemetry")
        wrap(GIDSDataLoader, "state_dict", "checkpoint")
        wrap(CheckpointStore, "save", "checkpoint.save",
             observe=_add("checkpoint.bytes"))

        for attr in ("gradients", "apply_gradients", "layer_forward_block",
                     "layer_backward_block"):
            wrap(GraphSAGE, attr, "training")
        recorder.wrap_function(average_gradients, "training")

        recorder.wrap_function(load_scaled, "graph.generate")
        recorder.wrap_function(hot_node_ranking, "graph.pagerank")
        recorder.wrap_function(partition_graph, "graph.partition")
    except BaseException:
        recorder.uninstall()
        raise
    return recorder
