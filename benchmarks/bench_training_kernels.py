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
``BENCH_training_kernels.json`` at the repo root records all three.

    PYTHONPATH=src python benchmarks/bench_training_kernels.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from repro.bench.tables import render_table
from repro.config import INTEL_OPTANE, SAMSUNG_980PRO, SystemConfig
from repro.core import fleet
from repro.fullgraph import FullGraphConfig, FullGraphTrainer
from repro.graph import datasets
from repro.training import scatter as kernels
from repro.training.graphsage import frontiers

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:  # the oracle lives with the tests
    sys.path.insert(0, str(ROOT))

from tests.oracles.graphsage_reference import (  # noqa: E402
    ReferenceGraphSAGE,
)

ARTIFACT = ROOT / "BENCH_training_kernels.json"
REPEATS = 5
PARTITION_STRIDE = 4
FLEET_BATCHES = 16
FEATURE_WIDTH, HIDDEN_WIDTH = 1024, 32
#: ``_MIN_LEVEL_ELEMENTS`` values timed; the one in the tree is among them.
SWEEP = (64, 128, 256, 512, 1024, 2048)


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


def fleet_batches() -> tuple:
    """The fleet's model and its first sampled mini-batches, each with the
    features and labels the fleet trains it on."""
    dataset = datasets.load_scaled("IGB-tiny", 0.3, seed=0)
    rng = np.random.default_rng([0, 0xF1EE7])
    train_ids = rng.choice(dataset.num_nodes, size=4000, replace=False)
    trainer = fleet.ElasticFleetTrainer(
        dataclasses.replace(dataset, train_ids=np.sort(train_ids)),
        SystemConfig(ssd=INTEL_OPTANE, num_ssds=2),
        fleet.FleetConfig(num_gpus=4, batch_size=4),
        seed=0,
        fanouts=(10, 10),
    )
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


def run_all() -> dict:
    partitions = partition_blocks()
    model, batches = fleet_batches()
    fleet_layer0 = fleet_blocks(batches)
    results = {}
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
    return {
        "min_level_elements": kernels._MIN_LEVEL_ELEMENTS,
        "shapes": results,
        "gradients": {
            "fleet-4gpu gradient batch": bench_gradients(model, batches),
        },
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
    ARTIFACT.write_text(
        json.dumps(
            {
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


if __name__ == "__main__":
    report(run_all())
