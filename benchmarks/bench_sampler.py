"""Neighbor sampler: the sort-once class against its two-unique oracle.

Draws the seed batches ``SeedBatchStream`` would hand the sampler on the
three frontier shapes the end-to-end benchmark produces, then runs each
stream through ``tests/oracles/neighbor_sampler_reference.py`` (two
``np.unique(keys, return_index=True)`` per layer, ``np.unique`` frontiers)
and through ``repro.sampling.NeighborSampler`` (one key sort per layer):

* ``loader-hit`` — IGB-tiny, batch 256, fanouts 10/5/5: ~24k sampled nodes
  per call, frontiers of thousands of rows;
* ``loader-miss`` — the IGB-Full replica at its calibrated batch of 8:
  hundreds of sampled nodes per call;
* ``serving`` — IGB-tiny, one seed per request, fanouts 5/5: ~23 sampled
  nodes per call, so call overhead and not sorting.

Blocks, input nodes and sampling work must be equal call by call, and so
must the generator state at the end of the stream.  ``BENCH_sampler.json``
at the repo root records sampled nodes per host second before (oracle) and
after (class), so the trajectory is tracked across commits.

A layer of few rows is walked as Python lists instead
(``NeighborSampler._sample_layer_lists``).  The ``cutover_sweep`` block
times both layer paths on the same frontiers at 5-160 candidate edges
(rows x fanout) — equal edges and RNG state required — and is what
``_LIST_PATH_MAX_EDGES`` in ``sampling/neighbor.py`` was read off.

    PYTHONPATH=src python benchmarks/bench_sampler.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:  # the oracle lives with the tests
    sys.path.insert(0, str(ROOT))

from repro.bench.tables import render_table  # noqa: E402
from repro.bench.workloads import get_workload  # noqa: E402
from repro.sampling import NeighborSampler  # noqa: E402
from repro.sampling.neighbor import _LIST_PATH_MAX_EDGES  # noqa: E402
from repro.sampling.seeds import SeedBatchStream  # noqa: E402
from tests.oracles.neighbor_sampler_reference import (  # noqa: E402
    ReferenceNeighborSampler,
    assert_same_batch,
)

ARTIFACT = ROOT / "BENCH_sampler.json"
REPEATS = 3

#: shape name -> (dataset, get_workload kwargs, batch size or None for the
#: calibrated one, fanouts or None for the workload's, calls per stream)
SHAPES = {
    "loader-hit": ("IGB-tiny", {"batch_size": 256}, None, None, 60),
    "loader-miss": ("IGB-Full", {"scale": 0.0005}, None, None, 600),
    "serving": ("IGB-tiny", {}, 1, (5, 5), 3000),
}

#: the cutover sweep: rows x fanout candidate edges per layer call
SWEEP_EDGES = (5, 10, 20, 40, 80, 160)
SWEEP_FANOUTS = (5, 10)
SWEEP_CALLS = 500
#: sparse and dense: a row above the fanout costs the list path a draw row
SWEEP_GRAPHS = {"IGB-tiny": {}, "IGB-Full": {"scale": 0.0005}}


def seed_stream(name: str):
    """``(graph, fanouts, seed batches)`` of one frontier shape."""
    dataset, kwargs, batch_size, fanouts, calls = SHAPES[name]
    spec = get_workload(dataset, **kwargs)
    stream = SeedBatchStream(
        spec.dataset.train_ids,
        batch_size or spec.batch_size,
        np.random.default_rng(0),
    )
    batches = [stream.next() for _ in range(calls)]
    return spec.dataset.graph, fanouts or spec.fanouts, batches


def run_stream(sampler, batches) -> tuple[float, list]:
    """Host seconds for the whole stream, and every sampled batch."""
    start = time.perf_counter()
    sampled = [sampler.sample(seeds) for seeds in batches]
    return time.perf_counter() - start, sampled


def compare_shape(name: str) -> dict:
    graph, fanouts, batches = seed_stream(name)
    seconds = {"before": float("inf"), "after": float("inf")}
    for _ in range(REPEATS):  # min of N filters scheduler noise
        oracle = ReferenceNeighborSampler(graph, fanouts, seed=7)
        sampler = NeighborSampler(graph, fanouts, seed=7)
        before_s, expected = run_stream(oracle, batches)
        after_s, got = run_stream(sampler, batches)
        seconds["before"] = min(seconds["before"], before_s)
        seconds["after"] = min(seconds["after"], after_s)
        for want, have in zip(expected, got):
            assert_same_batch(have, want)
        if oracle._rng.bit_generator.state != sampler._rng.bit_generator.state:
            raise AssertionError(f"{name}: sampler RNG state differs")
    sampled_nodes = sum(batch.num_sampled for batch in got)
    return {
        "num_nodes": graph.num_nodes,
        "fanouts": list(fanouts),
        "seeds_per_call": len(batches[0]),
        "calls": len(batches),
        "sampled_nodes": sampled_nodes,
        "sampled_nodes_per_call": sampled_nodes / len(batches),
        "before_nodes_per_s": sampled_nodes / seconds["before"],
        "after_nodes_per_s": sampled_nodes / seconds["after"],
        "speedup": seconds["before"] / seconds["after"],
    }


def _time_layers(layer, frontiers, fanout) -> tuple[float, list]:
    start = time.perf_counter()
    edges = [layer(frontier, fanout) for frontier in frontiers]
    return (time.perf_counter() - start) / len(frontiers) * 1e6, edges


def sweep_graph(dataset: str, kwargs: dict) -> dict:
    """Host us per layer call for both paths, by candidate-edge volume."""
    graph = get_workload(dataset, **kwargs).dataset.graph
    points = []
    for fanout in SWEEP_FANOUTS:
        for edges in SWEEP_EDGES:
            rows = edges // fanout
            if rows == 0:
                continue
            draw = np.random.default_rng(edges)
            frontiers = [
                np.unique(draw.integers(0, graph.num_nodes, rows))
                for _ in range(SWEEP_CALLS)
            ]
            best = {"array": float("inf"), "list": float("inf")}
            for _ in range(REPEATS):
                by_array = NeighborSampler(graph, (fanout,), seed=7)
                by_list = NeighborSampler(graph, (fanout,), seed=7)
                array_us, want = _time_layers(
                    by_array._sample_layer_arrays, frontiers, fanout
                )
                list_us, got = _time_layers(
                    by_list._sample_layer_lists, frontiers, fanout
                )
                best["array"] = min(best["array"], array_us)
                best["list"] = min(best["list"], list_us)
                for (src, dst), (want_src, want_dst) in zip(got, want):
                    np.testing.assert_array_equal(src, want_src)
                    np.testing.assert_array_equal(dst, want_dst)
                if (
                    by_array._rng.bit_generator.state
                    != by_list._rng.bit_generator.state
                ):
                    raise AssertionError("layer paths left the RNG apart")
            points.append(
                {
                    "fanout": fanout,
                    "rows": rows,
                    "edges": rows * fanout,
                    "array_us": best["array"],
                    "list_us": best["list"],
                }
            )
    return {
        "mean_degree": graph.num_edges / graph.num_nodes,
        "points": points,
    }


def cutover_sweep() -> dict:
    return {
        "calls": SWEEP_CALLS,
        "list_path_below_edges": _LIST_PATH_MAX_EDGES,
        "graphs": {
            dataset: sweep_graph(dataset, kwargs)
            for dataset, kwargs in SWEEP_GRAPHS.items()
        },
    }


def run_all() -> dict:
    return {
        "shapes": {name: compare_shape(name) for name in SHAPES},
        "cutover_sweep": cutover_sweep(),
    }


def report(results: dict) -> None:
    sweep = results["cutover_sweep"]
    print()
    print(
        render_table(
            ["graph", "fanout", "rows", "edges", "array [us]", "list [us]"],
            [
                [
                    dataset, point["fanout"], point["rows"], point["edges"],
                    f"{point['array_us']:.1f}", f"{point['list_us']:.1f}",
                ]
                for dataset, block in sweep["graphs"].items()
                for point in block["points"]
            ],
            title="One layer call, both paths (list path below "
            f"{sweep['list_path_below_edges']} edges; min of {REPEATS})",
        )
    )
    print(
        render_table(
            [
                "shape", "seeds/call", "sampled/call",
                "before [nodes/s]", "after [nodes/s]", "speedup",
            ],
            [
                [
                    name,
                    row["seeds_per_call"],
                    f"{row['sampled_nodes_per_call']:,.0f}",
                    f"{row['before_nodes_per_s']:,.0f}",
                    f"{row['after_nodes_per_s']:,.0f}",
                    f"{row['speedup']:.2f}x",
                ]
                for name, row in results["shapes"].items()
            ],
            title="Neighbor sampler: two-unique oracle vs one key sort "
            f"per layer (min of {REPEATS})",
        )
    )
    ARTIFACT.write_text(
        json.dumps(
            {
                "benchmark": "sampler",
                "numpy": np.__version__,
                "before": "tests/oracles/neighbor_sampler_reference.py",
                "after": "src/repro/sampling/neighbor.py",
                **results,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )


def test_sort_once_sampler_matches_oracle_and_is_faster(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    report(results)
    # Large frontiers are what the key sort is for; one-seed requests are
    # call overhead, which the list path is for.
    shapes = results["shapes"]
    assert shapes["loader-hit"]["speedup"] > 1.5
    assert shapes["loader-miss"]["speedup"] > 1.0
    assert shapes["serving"]["speedup"] > 1.3


if __name__ == "__main__":
    report(run_all())
