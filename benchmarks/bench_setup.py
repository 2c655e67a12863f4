"""Graph set-up: CPU seconds per phase, before and after the linear passes.

Every benchmark workload starts by generating a graph (``load_scaled``) and,
for the loader workloads, ranking its hot nodes by reverse PageRank; the
fleet and the full-graph trainer also partition it.  Two primitives carry
most of that cost, and both are replaced by exact linear passes:

* the stable order of row ids in ``graph/csr.from_coo`` and
  ``CSRGraph.reverse`` — ``csr._stable_order`` (radix) after,
  ``np.argsort(ids, kind="stable")`` (timsort) before;
* the endpoint draws of ``power_law_graph`` — ``generators._choice``
  (guided inverse-CDF search) after, ``Generator.choice(n, size, p=)``
  (a binary search per draw) before.

The ``parent`` column runs the same set-up with the two primitives swapped
back, which is the code before the change; the graph, the hot ranking and
the partition must come out equal in both columns.  Phases, in CPU seconds
(median of three runs): ``draws`` (both endpoint draws), ``from_coo``,
``reverse`` (PageRank's edge reversal), ``pagerank`` (the power iteration)
and ``partition`` (``partition_graph`` with the workload's arguments, its
own edge reversal included).  ``peak_traced_mib`` is the tracemalloc peak
of the whole set-up, in a separate untimed run.  Recipes are the datasets
the six workloads of ``BENCHMARK.json`` build; ``BENCH_setup.json`` at the
repo root records the result::

    PYTHONPATH=src python benchmarks/bench_setup.py
"""

from __future__ import annotations

import contextlib
import importlib
import json
import statistics
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np

from repro.bench.tables import render_table
from repro.graph import csr, generators
from repro.graph.datasets import load_scaled
from repro.graph.partition import partition_graph

#: the module (``repro.graph.pagerank`` the attribute is its function)
pagerank = importlib.import_module("repro.graph.pagerank")

ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_setup.json"
REPEATS = 3
SEEDS = (0, 1)
PHASES = ("draws", "from_coo", "reverse", "pagerank", "partition")

#: recipe -> (dataset, scale, partition count or None, workloads)
RECIPES = {
    "IGB-Full@0.0005": ("IGB-Full", 0.0005, None, ["loader-miss"]),
    "IGB-tiny@1.0": (
        "IGB-tiny", 1.0, None,
        ["loader-hit", "loader-planes", "serve-diurnal"],
    ),
    # fleet-4gpu shards its labeled nodes over 4 GPUs by partition.
    "IGB-tiny@0.3": ("IGB-tiny", 0.3, 4, ["fleet-4gpu"]),
    # fullgraph-spill sweeps 64 partitions.
    "IGB-tiny@0.08": ("IGB-tiny", 0.08, 64, ["fullgraph-spill"]),
}


def _parent_choice(rng, p, size):
    return rng.choice(len(p), size=size, p=p)


def _parent_order(ids, num_nodes):
    return np.argsort(ids, kind="stable")


@contextlib.contextmanager
def _swapped(owner, name, value):
    old = getattr(owner, name)
    setattr(owner, name, value)
    try:
        yield
    finally:
        setattr(owner, name, old)


def _timed(owner, name, clock: Counter, phase: str):
    """Swap ``owner.name`` for a wrapper adding its CPU time to ``clock``."""
    fn = getattr(owner, name)

    def timed(*args, **kwargs):
        start = time.process_time()
        try:
            return fn(*args, **kwargs)
        finally:
            clock[phase] += time.process_time() - start

    return _swapped(owner, name, timed)


def set_up(recipe: str, seed: int, parent: bool) -> tuple[Counter, list]:
    """One workload set-up: CPU seconds per phase, and what it built."""
    name, scale, num_parts, _ = RECIPES[recipe]
    clock: Counter = Counter()
    with contextlib.ExitStack() as stack:
        if parent:
            stack.enter_context(
                _swapped(generators, "_choice", _parent_choice)
            )
            stack.enter_context(_swapped(csr, "_stable_order", _parent_order))
        with _timed(generators, "_choice", clock, "draws"), _timed(
            generators, "from_coo", clock, "from_coo"
        ):
            dataset = load_scaled(name, scale, seed=seed)
        weights = np.zeros(dataset.num_nodes)
        weights[dataset.train_ids] = 1.0
        with _timed(csr.CSRGraph, "reverse", clock, "reverse"), _timed(
            pagerank, "pagerank", clock, "pagerank"
        ):
            hot = pagerank.hot_node_ranking(
                dataset.graph, "reverse_pagerank", seed_weights=weights
            )
        built = [dataset.graph.indptr, dataset.graph.indices, hot]
        if num_parts is not None:
            start = time.process_time()
            parts = partition_graph(dataset.graph, num_parts, seed=seed)
            clock["partition"] = time.process_time() - start
            built.append(parts.parts)
    return clock, built


def peak_traced_mib(recipe: str, seed: int, parent: bool) -> float:
    tracemalloc.start()
    try:
        set_up(recipe, seed, parent)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def measure(recipe: str, seed: int) -> dict:
    runs = {"parent": [], "change": []}
    built = {}
    for _ in range(REPEATS):
        for column in runs:
            clock, built[column] = set_up(recipe, seed, column == "parent")
            runs[column].append(clock)
    for want, got in zip(built["parent"], built["change"]):
        np.testing.assert_array_equal(got, want)
    result = {}
    for column, clocks in runs.items():
        phases = {
            phase: statistics.median(clock[phase] for clock in clocks)
            for phase in PHASES
            if phase in clocks[0]
        }
        result[column] = {
            "cpu_s": phases,
            "total_cpu_s": sum(phases.values()),
            "peak_traced_mib": peak_traced_mib(
                recipe, seed, column == "parent"
            ),
        }
    result["speedup"] = (
        result["parent"]["total_cpu_s"] / result["change"]["total_cpu_s"]
    )
    return result


def run_all() -> dict:
    return {
        recipe: {
            "workloads": RECIPES[recipe][3],
            "seeds": {str(seed): measure(recipe, seed) for seed in SEEDS},
        }
        for recipe in RECIPES
    }


def report(results: dict) -> None:
    rows = []
    for recipe, block in results.items():
        for seed, result in block["seeds"].items():
            for phase in PHASES:
                if phase not in result["parent"]["cpu_s"]:
                    continue
                before = result["parent"]["cpu_s"][phase]
                after = result["change"]["cpu_s"][phase]
                rows.append(
                    [recipe, seed, phase, f"{before:.3f}", f"{after:.3f}",
                     f"{before / max(after, 1e-9):.2f}x"]
                )
            rows.append(
                [recipe, seed, "peak traced MiB",
                 f"{result['parent']['peak_traced_mib']:.1f}",
                 f"{result['change']['peak_traced_mib']:.1f}", ""]
            )
    print()
    print(
        render_table(
            ["recipe", "seed", "phase", "parent [s]", "change [s]", "ratio"],
            rows,
            title=f"Graph set-up CPU seconds (median of {REPEATS})",
        )
    )
    ARTIFACT.write_text(
        json.dumps(
            {
                "benchmark": "setup",
                "numpy": np.__version__,
                "parent": "np.argsort(kind='stable') and Generator.choice",
                "change": "csr._stable_order and generators._choice",
                "recipes": results,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )


def test_linear_set_up_builds_the_same_graphs_faster(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    report(results)
    miss = results["IGB-Full@0.0005"]["seeds"]
    assert all(result["speedup"] > 1.2 for result in miss.values())


if __name__ == "__main__":
    report(run_all())
