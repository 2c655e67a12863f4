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

Its ``run_min_sweep`` block chooses ``gpu_cache._RUN_MIN``, the batch length
below which a batch is walked page by page: the head of each stream is
re-cut into ``access`` calls of k pages and replayed once walked and once
through the array path, both forced, and the access time per page of each
is recorded.

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
from repro.cache import gpu_cache  # noqa: E402
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


#: Call lengths, in pages, that the cut-over sweep re-cuts the streams into.
SWEEP_PAGES = (4, 8, 16, 24, 32, 48, 64, 96, 128, 256)
#: Accessed pages of each stream's head that the sweep replays.
SWEEP_HEAD = 60_000


def recut(calls, k: int) -> list[tuple[str, np.ndarray]]:
    """The head of a stream with each ``access`` call cut into calls of
    ``k`` pages (the window calls are kept whole)."""
    out, accessed = [], 0
    for method, pages in calls:
        if method == "access":
            if accessed >= SWEEP_HEAD:
                break
            accessed += len(pages)
            out += [(method, pages[i : i + k]) for i in range(0, len(pages), k)]
        else:
            out.append((method, pages))
    return out


def access_seconds(capacity, warm, calls, run_min: int) -> float:
    """Host seconds in ``access`` with ``_RUN_MIN`` set to ``run_min``."""
    saved = gpu_cache._RUN_MIN
    gpu_cache._RUN_MIN = run_min
    try:
        cache = GPUSoftwareCache(capacity, seed=7)
        cache.warm(warm)
        seconds = 0.0
        for method, pages in calls:
            start = time.perf_counter()
            getattr(cache, method)(pages)
            if method == "access":
                seconds += time.perf_counter() - start
    finally:
        gpu_cache._RUN_MIN = saved
    return seconds


def sweep_stream(capacity, warm, calls) -> dict:
    """Per call length k: access microseconds per page, walked and through
    the array path (min of ``REPEATS``), and the array path's speed-up."""
    points = {}
    for k in SWEEP_PAGES:
        cut = recut(calls, k)
        pages = sum(len(p) for method, p in cut if method == "access")
        walk = batch = float("inf")
        for _ in range(REPEATS):
            walk = min(walk, access_seconds(capacity, warm, cut, 2**62))
            batch = min(batch, access_seconds(capacity, warm, cut, 0))
        points[str(k)] = {
            "walk_us_per_page": 1e6 * walk / pages,
            "batch_us_per_page": 1e6 * batch / pages,
            "batch_speedup": walk / batch,
        }
    return points


def replay(cache, calls) -> tuple[float, list[np.ndarray]]:
    """Host seconds for the whole stream, and every ``access`` hit mask."""
    masks = []
    start = time.perf_counter()
    for method, pages in calls:
        result = getattr(cache, method)(pages)
        if result is not None:
            masks.append(result)
    return time.perf_counter() - start, masks


def compare_stream(name: str) -> tuple[dict, dict]:
    """The stream's before/after row and its cut-over sweep."""
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
    return sweep_stream(capacity, warm, calls), {
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


def run_all() -> tuple[dict, dict]:
    """``(before/after row per stream, run_min_sweep block)``."""
    rows, sweeps = {}, {}
    for name in STREAMS:
        sweeps[name], rows[name] = compare_stream(name)
    return rows, {"run_min": gpu_cache._RUN_MIN, "streams": sweeps}


def report(results: dict, sweep: dict) -> None:
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
    print()
    print(
        render_table(
            ["pages per call"] + [f"{name} batch/walk" for name in STREAMS],
            [
                [k]
                + [
                    f"{sweep['streams'][name][str(k)]['batch_speedup']:.2f}x"
                    for name in STREAMS
                ]
                for k in SWEEP_PAGES
            ],
            title=f"Walk/batch cut-over (_RUN_MIN = {sweep['run_min']}): "
            "array-path speed over the walk's",
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
                "run_min_sweep": sweep,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )


def test_array_backed_cache_matches_oracle_and_is_faster(benchmark):
    results, sweep = benchmark.pedantic(run_all, rounds=1, iterations=1)
    report(results, sweep)
    # The miss path is what the change is for; the other two must not pay.
    assert results["miss"]["speedup"] > 2.0
    assert results["hit"]["speedup"] > 1.0
    assert results["pinned"]["speedup"] > 1.0


if __name__ == "__main__":
    report(*run_all())
