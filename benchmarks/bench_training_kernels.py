"""Aggregation scatter: the prefix accumulator against what it replaced.

Times one ``training.scatter.scatter`` call — host microseconds per call,
min of ``REPEATS`` passes — on the edge blocks the two training workloads
of the end-to-end benchmark aggregate over:

* ``fullgraph-spill layer 0`` / ``hidden`` — every fourth of the 64
  partition blocks of IGB-tiny@0.08 (``FullGraphTrainer`` at a 10 MB HBM
  budget), at the feature width (1,024) and the hidden width (32);
* ``fleet-4gpu layer 0`` — the layer-0 blocks of the fleet's first
  sampled mini-batches (IGB-tiny@0.3, four seeds, fanouts 10/10), 1,024
  wide: sources among the batch's input nodes, destinations among the
  rows layer 1 reads (``graphsage.frontiers``).

Each block is timed *forward* (neighbor rows into the block's rows, the
``into_dst`` plan, a fresh output per block) and *backward* (the block's
row gradients into their sources, ``into_src``; the full-graph sweep
accumulates every block into one ``(num_nodes, width)`` buffer).  The
workloads run the forward scatter of every block and the backward one of
the hidden blocks (a layer-0 input gradient has no reader).  Three kernels
must leave bit-identical outputs (``uint64`` views):

* ``write_back`` — rank peeling as it was before the accumulator: each
  rank level gathers its target rows out of ``out``, adds, and
  fancy-index writes them back;
* ``prefix`` — the kernel in the tree: the receiving rows gathered once
  into a degree-ordered accumulator, one in-place add on a contiguous
  prefix per level, one write-back;
* ``ufunc_at`` — ``np.add.at``.

The ``min_level_sweep`` block times ``prefix`` at other values of
``_MIN_LEVEL_ELEMENTS`` (the level width below which the tail goes to
``ufunc.at``); the constant in ``training/scatter.py`` is read off it.

The ``gradients`` block times whole ``GraphSAGE.gradients`` calls on the
same fleet mini-batches, with the float32 feature blocks and labels the
fleet feeds them: ``fleet-4gpu gradient batch`` is host microseconds per
call of the frontier-pruned model against the unpruned ``np.add.at``
oracle (``tests/oracles/graphsage_reference.py``), whose losses and
gradients it must match within 1e-9 relative.

Blocks that are used once are timed with their plan's sort counted:

* ``use_once`` — ``fleet-4gpu layer 1`` forward / backward (about 20 edges
  x 32 wide per block, what ``GraphSAGE`` builds per batch) through the
  tree's ``scatter`` on a fresh plan, against the same call forced through
  the rank plan (``planned``) and ``np.add.at``;
* ``plan_crossover`` — ``planned`` against the plan-free ``ufunc.at`` tail
  (``unplanned``) on random blocks over edges x width x value dtype
  (float64, and float32 feature rows into float64), fan-in 10; the
  ``_PLAN_MIN_ELEMENTS`` constant in ``training/scatter.py`` is read off it.

``synthetic_fetch`` times a synthetic store's hash
(``FeatureStore._synthetic``, what ``fetch`` runs after checking the ids)
at rows {1, 8, 145, 254, 4096} x dim {128, 1024} against the
1,024-row-chunk hash it replaced (``row_chunk``, kept here; the two must
agree bit for bit), and at other ``_BLOCK_ELEMENTS`` values — the sweep the
constant in ``storage/feature_store.py`` is read off.

``fleet_step`` runs ``FLEET_STEPS`` global ``fleet-4gpu`` steps and splits
their host time by self time: feature ``fetch``, block ``plans`` (index
mapping and rank sorts), ``aggregate`` (the scatters), ``sample``,
``serve`` (the modeled page path) and ``other`` (GEMMs, gradient
averaging, bookkeeping).

``BENCH_training_kernels.json`` at the repo root records every block.
Its ``layer0_reuse_e2e`` block is not this script's: it records
``fullgraph-spill`` end to end before and after the full-graph trainer
began to keep each partition's layer-0 aggregate (alternating 15 s
``--trace 0`` pairs of ``benchmarks/e2e/run.py``), and a rewrite keeps it.

    PYTHONPATH=src python benchmarks/bench_training_kernels.py
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from repro.bench.tables import render_table
from repro.config import INTEL_OPTANE, SAMSUNG_980PRO, SystemConfig
from repro.core import fleet
from repro.fullgraph import FullGraphConfig, FullGraphTrainer
from repro.graph import datasets
from repro.storage import feature_store
from repro.training import graphsage
from repro.training import scatter as kernels
from repro.training.graphsage import frontiers

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:  # the oracle lives with the tests
    sys.path.insert(0, str(ROOT))

from tests.oracles.graphsage_reference import (  # noqa: E402
    ReferenceGraphSAGE,
)

ARTIFACT = ROOT / "BENCH_training_kernels.json"
#: Blocks measured end to end (pairs through ``benchmarks/e2e/run.py
#: compare``), not by this script: a rewrite of the artifact keeps them.
RECORDED = ("layer0_reuse_e2e",)
REPEATS = 5
PARTITION_STRIDE = 4
FLEET_BATCHES = 16
FEATURE_WIDTH, HIDDEN_WIDTH = 1024, 32
#: ``_MIN_LEVEL_ELEMENTS`` values timed; the one in the tree is among them.
SWEEP = (64, 128, 256, 512, 1024, 2048)
#: The ``plan_crossover`` grid and the random blocks timed per point.
CROSSOVER_EDGES = (5, 10, 20, 40, 80, 160, 320, 640)
CROSSOVER_WIDTHS = (1, 8, 32, 128, 1024)
CROSSOVER_BLOCKS = 8
#: ``synthetic_fetch``: request shapes, and ``_BLOCK_ELEMENTS`` values timed
#: on ``BLOCK_SWEEP_SHAPES`` (the one in the tree is among them).
FETCH_ROWS = (1, 8, 145, 254, 4096)
FETCH_DIMS = (128, 1024)
FETCH_NODES = 30_000
BLOCK_SWEEP = tuple(1 << bits for bits in range(12, 18))
BLOCK_SWEEP_SHAPES = ((145, 1024), (4096, 1024), (254, 128), (2500, 100))
#: Global steps ``fleet_step`` splits (after ``FLEET_WARMUP``).
FLEET_STEPS, FLEET_WARMUP = 100, 10


@dataclasses.dataclass
class Call:
    """One scatter: ``ufunc.at(outs[out], index, values[rows])``."""

    plan: kernels.ScatterPlan
    index: np.ndarray
    rows: np.ndarray
    values: np.ndarray
    out: int


def write_back_scatter(call: Call, out, order, cut_off: int) -> None:
    """Rank peeling with a gather / add / write-back of ``out`` per level
    (``order``: each level's edges in array order)."""
    take = call.rows[order]
    targets = call.index[order]
    width = math.prod(call.values.shape[1:])
    done = 0
    for lo, hi in call.plan.levels:
        if (hi - lo) * width < cut_off:
            break
        current = out[targets[lo:hi]]
        np.add(current, call.values[take[lo:hi]], out=current)
        out[targets[lo:hi]] = current
        done = hi
    if done < len(take):
        np.add.at(out, targets[done:], call.values[take[done:]])


def array_order(plan: kernels.ScatterPlan) -> np.ndarray:
    """``plan.order`` with each rank level back in array order."""
    sizes = [hi - lo for lo, hi in plan.levels]
    level = np.repeat(np.arange(len(sizes)), sizes)
    return plan.order[np.lexsort((plan.order, level))]


def partition_blocks() -> list:
    """``(plan, num_nodes)`` of every ``PARTITION_STRIDE``-th partition."""
    dataset = datasets.load_scaled("IGB-tiny", 0.08, seed=0)
    trainer = FullGraphTrainer(
        dataset,
        SystemConfig(ssd=SAMSUNG_980PRO, num_ssds=1),
        FullGraphConfig(hbm_budget_bytes=10e6, partition_seed=0),
    )
    parts = range(0, trainer.partition.num_parts, PARTITION_STRIDE)
    return [(trainer.scheduler.block_plan(p), dataset.num_nodes) for p in parts]


def fleet_trainer() -> fleet.ElasticFleetTrainer:
    """The ``fleet-4gpu`` workload's trainer at seed 0."""
    dataset = datasets.load_scaled("IGB-tiny", 0.3, seed=0)
    rng = np.random.default_rng([0, 0xF1EE7])
    train_ids = rng.choice(dataset.num_nodes, size=4000, replace=False)
    return fleet.ElasticFleetTrainer(
        dataclasses.replace(dataset, train_ids=np.sort(train_ids)),
        SystemConfig(ssd=INTEL_OPTANE, num_ssds=2),
        fleet.FleetConfig(num_gpus=4, batch_size=4),
        seed=0,
        fanouts=(10, 10),
    )


def fleet_batches() -> tuple:
    """The fleet's model and its first sampled mini-batches, each with the
    features and labels the fleet trains it on."""
    trainer = fleet_trainer()
    batches = []
    for i in range(FLEET_BATCHES):
        batch = trainer._sample_batch(i)
        features, labels = fleet._batch_inputs(
            trainer.store, batch, trainer._label_projection
        )
        batches.append((batch, features, labels))
    return trainer.model, batches


def fleet_blocks(batches) -> list:
    """``(plan, num_sources)`` of each batch's layer-0 block, as
    ``GraphSAGE`` builds it."""
    blocks = []
    for batch, _, _ in batches:
        nodes, layer = batch.input_nodes, batch.layers[0]
        rows = frontiers(batch)[0]
        blocks.append((
            kernels.BlockPlan(
                np.searchsorted(nodes, layer.src),
                np.searchsorted(rows, layer.dst),
                len(rows),
            ),
            len(nodes),
        ))
    return blocks


def fleet_layer1_blocks(batches) -> list:
    """``(plan, num_sources)`` of each batch's layer-1 block, as
    ``GraphSAGE`` builds it: sources among the rows layer 0 computed,
    destinations among the seeds."""
    blocks = []
    for batch, _, _ in batches:
        rows = frontiers(batch)
        blocks.append((
            graphsage._block_plan(batch.layers[1], rows[0], rows[1], 1),
            len(rows[0]),
        ))
    return blocks


def forward(blocks, shared, width, rng):
    """``(calls, initial outputs)``: source rows into each block's rows; a
    full-graph sweep's blocks read one shared source array."""
    calls, outs = [], []
    common = rng.standard_normal((blocks[0][1], width)) if shared else None
    for block, num_src in blocks:
        values = common if shared else rng.standard_normal((num_src, width))
        calls.append(
            Call(block.into_dst, block.dst, block.src, values, len(outs))
        )
        outs.append(np.zeros((block.num_dst, width)))
    return calls, outs


def backward(blocks, shared, width, rng):
    """Each block's row gradients into its sources: one shared buffer for
    a full-graph sweep, one per mini-batch block otherwise."""
    calls, outs = [], []
    if shared:
        outs.append(rng.standard_normal((blocks[0][1], width)))
    for block, num_src in blocks:
        values = rng.standard_normal((block.num_dst, width))
        if not shared:
            outs.append(rng.standard_normal((num_src, width)))
        calls.append(
            Call(block.into_src, block.src, block.dst, values, len(outs) - 1)
        )
    return calls, outs


def time_kernels(named, calls, outs) -> tuple[dict, dict]:
    """Host us per call of each kernel (min over passes; the kernels take
    turns inside every pass, so drift on the box hits all of them alike)
    and a digest of each kernel's outputs."""
    best = dict.fromkeys(named, float("inf"))
    digests = {}
    for repeat in range(REPEATS):
        for name, kernel in named.items():
            working = [out.copy() for out in outs]
            elapsed = 0.0
            for call in calls:
                start = time.perf_counter()
                kernel(call, working[call.out])
                elapsed += time.perf_counter() - start
            best[name] = min(best[name], elapsed / len(calls) * 1e6)
            if repeat == 0:
                digest = hashlib.sha256()
                for out in working:
                    digest.update(out.view(np.uint64).tobytes())
                digests[name] = digest.hexdigest()
    return best, digests


def at_cut_off(value):
    """The tree's kernel with ``_MIN_LEVEL_ELEMENTS`` set to ``value``."""

    def kernel(call, out):
        kernels._MIN_LEVEL_ELEMENTS = value
        kernels.scatter(np.add, out, call.plan, call.values, call.rows)

    return kernel


def bench_shape(calls, outs) -> dict:
    chosen = kernels._MIN_LEVEL_ELEMENTS
    orders = {id(call): array_order(call.plan) for call in calls}
    named = {
        "ufunc_at": lambda call, out: np.add.at(
            out, call.index, call.values[call.rows]
        ),
        "write_back": lambda call, out: write_back_scatter(
            call, out, orders[id(call)], chosen
        ),
        **{str(value): at_cut_off(value) for value in SWEEP},
    }
    try:
        us, digests = time_kernels(named, calls, outs)
    finally:
        kernels._MIN_LEVEL_ELEMENTS = chosen
    if len(set(digests.values())) != 1:
        raise AssertionError(f"kernels disagree bitwise: {digests}")
    levels = [len(call.plan.levels) for call in calls]
    return {
        "blocks": len(calls),
        "width": calls[0].values.shape[1],
        "edges_per_block": float(np.mean([len(c.index) for c in calls])),
        "rows_per_block": float(np.mean([len(c.plan.rows) for c in calls])),
        "levels_per_block": [min(levels), max(levels)],
        "ufunc_at_us": us["ufunc_at"],
        "write_back_us": us["write_back"],
        "prefix_us": us[str(chosen)],
        "speedup_vs_write_back": us["write_back"] / us[str(chosen)],
        "speedup_vs_ufunc_at": us["ufunc_at"] / us[str(chosen)],
        "min_level_sweep_us": {str(v): us[str(v)] for v in SWEEP},
    }


def bench_gradients(model, batches) -> dict:
    """Host us per ``gradients`` call, pruned model against the oracle
    (min over passes; the two take turns inside every pass)."""
    oracle = ReferenceGraphSAGE(
        model.layers[0].w_self.shape[0],
        model.layers[0].w_self.shape[1],
        model.layers[-1].w_self.shape[1],
        num_layers=model.num_layers,
    )
    oracle.layers = model.layers
    named = {"pruned": model, "oracle": oracle}
    best = dict.fromkeys(named, float("inf"))
    for _ in range(REPEATS):
        for name, net in named.items():
            start = time.perf_counter()
            for batch, features, labels in batches:
                net.gradients(batch, features, labels)
            elapsed = time.perf_counter() - start
            best[name] = min(best[name], elapsed / len(batches) * 1e6)
    worst = 0.0
    for batch, features, labels in batches:
        loss, grads = model.gradients(batch, features, labels)
        want_loss, want = oracle.gradients(batch, features, labels)
        worst = max(worst, abs(loss - want_loss) / abs(want_loss))
        for got_layer, want_layer in zip(grads, want):
            for name, array in want_layer.items():
                scale = np.abs(array).max()
                worst = max(
                    worst, np.abs(got_layer[name] - array).max() / scale
                )
    if not worst <= 1e-9:
        raise AssertionError(f"pruned gradients off the oracle by {worst}")
    sizes = [
        [batch.num_input_nodes, *(len(rows) for rows in frontiers(batch))]
        for batch, _, _ in batches
    ]
    return {
        "batches": len(batches),
        "rows_per_layer": np.mean(sizes, axis=0).tolist(),
        "pruned_us": best["pruned"],
        "oracle_us": best["oracle"],
        "speedup_vs_oracle": best["oracle"] / best["pruned"],
        "max_relative_error": worst,
    }


def use_once(min_elements):
    """The tree's kernel on a fresh plan of the call's index (its sort
    timed), with ``_PLAN_MIN_ELEMENTS`` set to ``min_elements``: 0 always
    sorts, ``math.inf`` never does."""

    def kernel(call, out):
        kernels._PLAN_MIN_ELEMENTS = min_elements
        kernels.scatter(
            np.add, out, kernels.ScatterPlan(call.index), call.values,
            call.rows,
        )

    return kernel


def bench_use_once(calls, outs) -> dict:
    """One use-once block shape: the tree, forced planned, ``np.add.at``."""
    chosen = kernels._PLAN_MIN_ELEMENTS
    named = {
        "ufunc_at": lambda call, out: np.add.at(
            out, call.index, call.values[call.rows]
        ),
        "planned": use_once(0),
        "in_tree": use_once(chosen),
    }
    try:
        us, digests = time_kernels(named, calls, outs)
    finally:
        kernels._PLAN_MIN_ELEMENTS = chosen
    if len(set(digests.values())) != 1:
        raise AssertionError(f"kernels disagree bitwise: {digests}")
    return {
        "blocks": len(calls),
        "width": calls[0].values.shape[1],
        "edges_per_block": float(np.mean([len(c.index) for c in calls])),
        "ufunc_at_us": us["ufunc_at"],
        "planned_us": us["planned"],
        "in_tree_us": us["in_tree"],
        "speedup_vs_planned": us["planned"] / us["in_tree"],
    }


def bench_crossover() -> dict:
    """``planned`` against ``unplanned`` on random fan-in-10 blocks, per
    edges x width x value dtype (host us per call, min of passes)."""
    chosen = kernels._PLAN_MIN_ELEMENTS
    named = {"planned": use_once(0), "unplanned": use_once(math.inf)}
    points = []
    rng = np.random.default_rng(0)
    try:
        for dtype, label in (
            (np.float64, "float64"), (np.float32, "float32->float64"),
        ):
            for edges in CROSSOVER_EDGES:
                for width in CROSSOVER_WIDTHS:
                    num_dst = max(1, edges // 10)
                    calls, outs = [], []
                    for _ in range(CROSSOVER_BLOCKS):
                        index = rng.integers(0, num_dst, edges)
                        values = rng.standard_normal((2 * edges, width))
                        calls.append(Call(
                            kernels.ScatterPlan(index), index,
                            rng.integers(0, 2 * edges, edges),
                            values.astype(dtype), len(outs),
                        ))
                        outs.append(np.zeros((num_dst, width)))
                    us, digests = time_kernels(named, calls, outs)
                    if len(set(digests.values())) != 1:
                        raise AssertionError(
                            f"kernels disagree bitwise: {digests}"
                        )
                    points.append({
                        "values": label,
                        "edges": edges,
                        "width": width,
                        "elements": edges * width,
                        "planned_us": us["planned"],
                        "unplanned_us": us["unplanned"],
                    })
    finally:
        kernels._PLAN_MIN_ELEMENTS = chosen
    return {"plan_min_elements": chosen, "points": points}


def row_chunk_fetch(store, node_ids) -> np.ndarray:
    """``FeatureStore._synthetic`` of a seed-0 store as it was: 1,024-row
    chunks of uint64 state, converted with a uint64 -> float32 cast."""
    gamma, mix_1, mix_2 = (
        np.uint64(0x9E3779B97F4A7C15),
        np.uint64(0xBF58476D1CE4E5B9),
        np.uint64(0x94D049BB133111EB),
    )
    dim = store.feature_dim
    out = np.empty((len(node_ids), dim), dtype=np.float32)
    cols = np.arange(dim, dtype=np.uint64)
    for lo in range(0, len(node_ids), 1024):
        ids = node_ids[lo:lo + 1024].astype(np.uint64)
        x = ids[:, None] * np.uint64(dim) + cols
        shifted = np.empty_like(x)
        x += gamma
        x ^= np.right_shift(x, np.uint64(30), out=shifted)
        x *= mix_1
        x ^= np.right_shift(x, np.uint64(27), out=shifted)
        x *= mix_2
        x >>= np.uint64(40)
        unit = out[lo:lo + 1024]
        unit[...] = x
        unit *= np.float32(2.0**-23)
        unit -= np.float32(1.0)
    return out


def best_us(fn, passes) -> float:
    best = float("inf")
    for _ in range(passes):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best * 1e6


def bench_synthetic_fetch() -> dict:
    """Host us per hash of sorted distinct ids (what a batch asks for),
    the tree against ``row_chunk``, and the block-size sweep."""
    rng = np.random.default_rng(0)
    requests = {}
    for dim in FETCH_DIMS:
        for rows in FETCH_ROWS:
            ids = np.sort(rng.choice(FETCH_NODES, rows, replace=False))
            requests[f"{rows} x {dim}"] = (
                feature_store.FeatureStore(FETCH_NODES, dim), ids
            )
    for rows, dim in BLOCK_SWEEP_SHAPES:
        ids = np.sort(rng.choice(FETCH_NODES, rows, replace=False))
        requests.setdefault(
            f"{rows} x {dim}",
            (feature_store.FeatureStore(FETCH_NODES, dim), ids),
        )
    shapes = {}
    for name, (store, ids) in requests.items():
        if store.fetch(ids).tobytes() != row_chunk_fetch(store, ids).tobytes():
            raise AssertionError(f"{name}: blocked hash moved a bit")
        passes = 20 if len(ids) * store.feature_dim > 1e6 else 200
        tree = old = float("inf")
        for _ in range(REPEATS):  # the two take turns
            tree = min(tree, best_us(lambda: store._synthetic(ids), passes))
            old = min(old, best_us(
                lambda: row_chunk_fetch(store, ids), passes
            ))
        shapes[name] = {
            "rows": len(ids),
            "dim": store.feature_dim,
            "tree_us": tree,
            "row_chunk_us": old,
            "speedup_vs_row_chunk": old / tree,
        }
    chosen = feature_store._BLOCK_ELEMENTS
    sweep = {str(size): {} for size in BLOCK_SWEEP}
    try:
        for _ in range(REPEATS):
            for size in BLOCK_SWEEP:
                feature_store._BLOCK_ELEMENTS = size
                for rows, dim in BLOCK_SWEEP_SHAPES:
                    name = f"{rows} x {dim}"
                    store, ids = requests[name]
                    us = best_us(lambda: store._synthetic(ids), 5)
                    point = sweep[str(size)]
                    point[name] = min(point.get(name, us), us)
    finally:
        feature_store._BLOCK_ELEMENTS = chosen
    return {
        "block_elements": chosen,
        "shapes": shapes,
        "block_sweep_us": sweep,
    }


class SelfTimer:
    """Self host time per part: a part's time excludes the parts it
    calls, so the parts and ``other`` add up to the steps' time."""

    def __init__(self) -> None:
        self.self_s = defaultdict(float)
        self._stack: list[float] = []
        self._restore: list = []

    def timed(self, fn, part):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.self_s[part] += elapsed - self._stack.pop()
                if self._stack:
                    self._stack[-1] += elapsed
        return wrapper

    def wrap(self, owner, attr, part) -> None:
        original = vars(owner)[attr]
        if isinstance(original, functools.cached_property):
            wrapped = functools.cached_property(
                self.timed(original.func, part)
            )
            wrapped.__set_name__(owner, attr)
        else:
            wrapped = self.timed(original, part)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)


def bench_fleet_step() -> dict:
    """Host ms per global ``fleet-4gpu`` step, split by self time."""
    trainer = fleet_trainer()
    for _ in range(FLEET_WARMUP):
        trainer.run_epoch(max_steps=1)
    timer = SelfTimer()
    for owner, attr, part in (
        (feature_store.FeatureStore, "fetch", "fetch"),
        (graphsage, "_block_plan", "plans"),
        (kernels.ScatterPlan, "_ranked", "plans"),
        (graphsage, "scatter", "aggregate"),
        (fleet.ElasticFleetTrainer, "_sample_batch", "sample"),
        (fleet.ElasticFleetTrainer, "_serve_pages", "serve"),
    ):
        timer.wrap(owner, attr, part)
    try:
        start = time.perf_counter()
        for _ in range(FLEET_STEPS):
            trainer.run_epoch(max_steps=1)
        total = time.perf_counter() - start
    finally:
        timer.restore()
    parts = {
        part: timer.self_s[part] / FLEET_STEPS * 1e3
        for part in ("fetch", "plans", "aggregate", "sample", "serve")
    }
    parts["other"] = total / FLEET_STEPS * 1e3 - sum(parts.values())
    return {
        "steps": FLEET_STEPS,
        "step_ms": total / FLEET_STEPS * 1e3,
        "self_ms": parts,
    }


def run_all() -> dict:
    partitions = partition_blocks()
    model, batches = fleet_batches()
    fleet_layer0 = fleet_blocks(batches)
    fleet_layer1 = fleet_layer1_blocks(batches)
    results, once = {}, {}
    for direction in (forward, backward):
        for name, blocks, shared, width in (
            ("fullgraph-spill layer 0", partitions, True, FEATURE_WIDTH),
            ("fullgraph-spill hidden", partitions, True, HIDDEN_WIDTH),
            ("fleet-4gpu layer 0", fleet_layer0, False, FEATURE_WIDTH),
        ):
            calls, outs = direction(
                blocks, shared, width, np.random.default_rng(0)
            )
            results[f"{name} {direction.__name__}"] = bench_shape(calls, outs)
        calls, outs = direction(
            fleet_layer1, False, HIDDEN_WIDTH, np.random.default_rng(0)
        )
        once[f"fleet-4gpu layer 1 {direction.__name__}"] = bench_use_once(
            calls, outs
        )
    return {
        "min_level_elements": kernels._MIN_LEVEL_ELEMENTS,
        "shapes": results,
        "use_once": once,
        "plan_crossover": bench_crossover(),
        "gradients": {
            "fleet-4gpu gradient batch": bench_gradients(model, batches),
        },
        "synthetic_fetch": bench_synthetic_fetch(),
        "fleet_step": bench_fleet_step(),
    }


def report(results: dict) -> None:
    print()
    print(
        render_table(
            [
                "block", "edges", "rows", "levels", "np.add.at [us]",
                "write-back [us]", "prefix [us]", "vs write-back",
            ],
            [
                [
                    name,
                    f"{row['edges_per_block']:,.0f}",
                    f"{row['rows_per_block']:,.0f}",
                    "{}-{}".format(*row["levels_per_block"]),
                    f"{row['ufunc_at_us']:,.1f}",
                    f"{row['write_back_us']:,.1f}",
                    f"{row['prefix_us']:,.1f}",
                    f"{row['speedup_vs_write_back']:.2f}x",
                ]
                for name, row in results["shapes"].items()
            ],
            title=f"One scatter call, per block (min of {REPEATS} passes; "
            "all three bit-identical)",
        )
    )
    print(
        render_table(
            ["block", *(str(value) for value in SWEEP)],
            [
                [
                    name,
                    *(
                        f"{us:,.1f}"
                        for us in row["min_level_sweep_us"].values()
                    ),
                ]
                for name, row in results["shapes"].items()
            ],
            title="prefix [us per call] by _MIN_LEVEL_ELEMENTS (in the "
            f"tree: {results['min_level_elements']}; every value "
            "bit-identical)",
        )
    )
    print(
        render_table(
            ["batch", "rows per layer", "pruned [us]", "oracle [us]",
             "vs oracle", "max rel. error"],
            [
                [
                    name,
                    " / ".join(f"{rows:,.0f}" for rows in row["rows_per_layer"]),
                    f"{row['pruned_us']:,.0f}",
                    f"{row['oracle_us']:,.0f}",
                    f"{row['speedup_vs_oracle']:.2f}x",
                    f"{row['max_relative_error']:.1e}",
                ]
                for name, row in results["gradients"].items()
            ],
            title=f"One GraphSAGE.gradients call (min of {REPEATS} passes; "
            "input nodes / layer-0 rows / seeds)",
        )
    )
    print(
        render_table(
            ["block", "edges", "width", "np.add.at [us]", "planned [us]",
             "in tree [us]", "vs planned"],
            [
                [
                    name,
                    f"{row['edges_per_block']:,.0f}",
                    str(row["width"]),
                    f"{row['ufunc_at_us']:,.1f}",
                    f"{row['planned_us']:,.1f}",
                    f"{row['in_tree_us']:,.1f}",
                    f"{row['speedup_vs_planned']:.2f}x",
                ]
                for name, row in results["use_once"].items()
            ],
            title="One use-once scatter, plan sort counted (min of "
            f"{REPEATS} passes; all three bit-identical)",
        )
    )
    crossover = results["plan_crossover"]
    print(
        render_table(
            ["values", "edges", *(f"w={w}" for w in CROSSOVER_WIDTHS)],
            [
                [
                    label,
                    str(edges),
                    *(
                        "{planned_us:,.0f} / {unplanned_us:,.0f}".format(**p)
                        for p in crossover["points"]
                        if p["values"] == label and p["edges"] == edges
                    ),
                ]
                for label in ("float64", "float32->float64")
                for edges in CROSSOVER_EDGES
            ],
            title="planned / unplanned [us per use-once call] (in the tree: "
            f"plan from {crossover['plan_min_elements']:,} elements)",
        )
    )
    fetch = results["synthetic_fetch"]
    print(
        render_table(
            ["request", "blocked [us]", "row chunks [us]", "speedup"],
            [
                [
                    name,
                    f"{row['tree_us']:,.1f}",
                    f"{row['row_chunk_us']:,.1f}",
                    f"{row['speedup_vs_row_chunk']:.2f}x",
                ]
                for name, row in fetch["shapes"].items()
            ],
            title="FeatureStore._synthetic (min of passes; bit-identical)",
        )
    )
    print(
        render_table(
            ["_BLOCK_ELEMENTS", *(
                f"{rows} x {dim}" for rows, dim in BLOCK_SWEEP_SHAPES
            )],
            [
                [size, *(f"{us:,.0f}" for us in row.values())]
                for size, row in fetch["block_sweep_us"].items()
            ],
            title="_synthetic [us] by block size (in the tree: "
            f"{fetch['block_elements']:,})",
        )
    )
    step = results["fleet_step"]
    print(
        render_table(
            ["part", "ms per step", "share"],
            [
                [part, f"{ms:.2f}", f"{ms / step['step_ms']:.0%}"]
                for part, ms in step["self_ms"].items()
            ],
            title=f"fleet-4gpu global step, {step['steps']} steps: "
            f"{step['step_ms']:.2f} ms host (self time per part)",
        )
    )
    recorded = json.loads(ARTIFACT.read_text()) if ARTIFACT.exists() else {}
    ARTIFACT.write_text(
        json.dumps(
            {
                **{name: recorded[name] for name in RECORDED if name in recorded},
                "benchmark": "training_kernels",
                "numpy": np.__version__,
                "kernel": "src/repro/training/scatter.py",
                **results,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )


def test_prefix_accumulator_is_bit_exact_and_faster(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    report(results)
    # The layer-0 partition blocks are what the accumulator is for.
    shapes_ = results["shapes"]
    assert shapes_["fullgraph-spill layer 0 forward"][
        "speedup_vs_write_back"
    ] > 1.3
    # A layer-1 block is what skipping the plan is for.
    for row in results["use_once"].values():
        assert row["speedup_vs_planned"] > 1.5


if __name__ == "__main__":
    report(run_all())
