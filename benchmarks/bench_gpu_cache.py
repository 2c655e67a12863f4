"""GPU software cache: the array-backed class against its per-page oracle.

Records the cache calls (``register_future`` / ``access`` /
``forget_future``, with their page arrays) that ``GIDSDataLoader`` makes on
three configurations, then replays each recorded stream through
``tests/oracles/gpu_cache_reference.py`` (the dict-backed implementation the
class replaced) and through ``repro.cache.GPUSoftwareCache``:

* ``miss`` — IGB-Full replica, paper cache/window defaults (window 8): ~88%
  of accesses miss and evict, the fig-13 regime;
* ``hit`` — IGB-tiny, batch 256, cache larger than the feature table and
  warmed with all of it: every access hits, pinning dominates;
* ``pinned`` — IGB-tiny, batch 256, cache 2% of the features: the window's
  pins exceed the capacity, so most misses stream through (bypass).

Hit masks must be equal call by call, and so must the final statistics and
eviction RNG state.  ``BENCH_gpu_cache.json`` at the repo root records pages
per host second before (oracle) and after (array-backed), ``register_future``
time included, so the trajectory is tracked across commits.

    PYTHONPATH=src python benchmarks/bench_gpu_cache.py
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
from repro.cache.gpu_cache import GPUSoftwareCache  # noqa: E402
from repro.config import SAMSUNG_980PRO  # noqa: E402
from repro.core.gids import GIDSDataLoader  # noqa: E402
from tests.oracles.gpu_cache_reference import (  # noqa: E402
    ReferenceGPUSoftwareCache,
)

ARTIFACT = ROOT / "BENCH_gpu_cache.json"
REPEATS = 3

#: stream name -> (dataset, get_workload kwargs, cache share of the feature
#: table or None for the paper default, iterations recorded)
STREAMS = {
    "miss": ("IGB-Full", {"scale": 0.0005}, None, 400),
    "hit": ("IGB-tiny", {"batch_size": 256}, None, 60),
    "pinned": ("IGB-tiny", {"batch_size": 256}, 0.02, 60),
}


def record_stream(
    name: str,
) -> tuple[int, np.ndarray, list[tuple[str, np.ndarray]]]:
    """Run the loader once: ``(capacity_lines, warm pages, cache calls)``.

    The warm pages (every page, when the cache holds the whole table) are
    admitted before the replay is timed.
    """
    dataset, kwargs, cache_share, iterations = STREAMS[name]
    spec = get_workload(dataset, **kwargs)
    overrides = {}
    if cache_share is not None:
        overrides["gpu_cache_bytes"] = (
            cache_share * spec.dataset.feature_data_bytes
        )
    loader = GIDSDataLoader(
        spec.dataset,
        spec.system(ssd=SAMSUNG_980PRO),
        spec.loader_config(**overrides),
        batch_size=spec.batch_size,
        fanouts=spec.fanouts,
        hot_nodes=spec.hot_nodes,
        seed=0,
    )
    calls: list[tuple[str, np.ndarray]] = []
    cache = loader.cache
    for method in ("register_future", "forget_future", "access"):
        bound = getattr(cache, method)

        def recorder(pages, _bound=bound, _method=method):
            calls.append((_method, np.array(pages, dtype=np.int64)))
            return _bound(pages)

        setattr(cache, method, recorder)
    loader.run(iterations, warmup=0)
    total_pages = loader.layout.total_pages
    fits = cache.capacity_lines >= total_pages
    warm = np.arange(total_pages if fits else 0, dtype=np.int64)
    return cache.capacity_lines, warm, calls


def replay(cache, calls) -> tuple[float, list[np.ndarray]]:
    """Host seconds for the whole stream, and every ``access`` hit mask."""
    masks = []
    start = time.perf_counter()
    for method, pages in calls:
        result = getattr(cache, method)(pages)
        if result is not None:
            masks.append(result)
    return time.perf_counter() - start, masks


def compare_stream(name: str) -> dict:
    capacity, warm, calls = record_stream(name)
    accessed = sum(len(p) for method, p in calls if method == "access")
    seconds = {"before": float("inf"), "after": float("inf")}
    for _ in range(REPEATS):  # min of N filters scheduler noise
        oracle = ReferenceGPUSoftwareCache(capacity, seed=7)
        cache = GPUSoftwareCache(capacity, seed=7)
        oracle.warm(warm)
        cache.warm(warm)
        before_s, expected = replay(oracle, calls)
        after_s, got = replay(cache, calls)
        seconds["before"] = min(seconds["before"], before_s)
        seconds["after"] = min(seconds["after"], after_s)
        for call, (want, have) in enumerate(zip(expected, got)):
            if not np.array_equal(want, have):
                raise AssertionError(
                    f"{name}: hit mask differs on access call {call}"
                )
        if oracle.stats != cache.stats:
            raise AssertionError(f"{name}: {oracle.stats} != {cache.stats}")
        if oracle._rng.bit_generator.state != cache._rng.bit_generator.state:
            raise AssertionError(f"{name}: eviction RNG state differs")
    stats = cache.stats
    return {
        "capacity_lines": capacity,
        "calls": len(calls),
        "pages_accessed": accessed,
        "pages_per_access_call": accessed
        / sum(1 for method, _ in calls if method == "access"),
        "hit_ratio": stats.hit_ratio,
        "bypass_ratio": stats.bypasses / max(stats.misses, 1),
        "before_pages_per_s": accessed / seconds["before"],
        "after_pages_per_s": accessed / seconds["after"],
        "speedup": seconds["before"] / seconds["after"],
    }


def run_all() -> dict:
    return {name: compare_stream(name) for name in STREAMS}


def report(results: dict) -> None:
    print()
    print(
        render_table(
            [
                "stream", "pages", "hit", "bypass/miss",
                "before [pages/s]", "after [pages/s]", "speedup",
            ],
            [
                [
                    name,
                    row["pages_accessed"],
                    f"{row['hit_ratio']:.3f}",
                    f"{row['bypass_ratio']:.3f}",
                    f"{row['before_pages_per_s']:,.0f}",
                    f"{row['after_pages_per_s']:,.0f}",
                    f"{row['speedup']:.2f}x",
                ]
                for name, row in results.items()
            ],
            title="GPU software cache: dict oracle vs array-backed "
            f"(register_future included, min of {REPEATS})",
        )
    )
    ARTIFACT.write_text(
        json.dumps(
            {
                "benchmark": "gpu_cache",
                "numpy": np.__version__,
                "before": "tests/oracles/gpu_cache_reference.py",
                "after": "src/repro/cache/gpu_cache.py",
                "streams": results,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )


def test_array_backed_cache_matches_oracle_and_is_faster(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    report(results)
    # The miss path is what the change is for; the other two must not pay.
    assert results["miss"]["speedup"] > 2.0
    assert results["hit"]["speedup"] > 1.0
    assert results["pinned"]["speedup"] > 1.0


if __name__ == "__main__":
    report(run_all())
