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


def run_all() -> dict:
    return {name: compare_shape(name) for name in SHAPES}


def report(results: dict) -> None:
    print()
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
                for name, row in results.items()
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
                "shapes": results,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )


def test_sort_once_sampler_matches_oracle_and_is_faster(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    report(results)
    # Large frontiers are what the change is for; one-seed requests are
    # call overhead and must not pay for it.
    assert results["loader-hit"]["speedup"] > 1.5
    assert results["loader-miss"]["speedup"] > 1.0
    assert results["serving"]["speedup"] > 0.9


if __name__ == "__main__":
    report(run_all())
