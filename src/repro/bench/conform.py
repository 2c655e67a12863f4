"""The paper's expected results as one band table.

:data:`EXPERIMENTS` names every reproduced figure, table and ablation, and
:data:`BANDS` holds one row per claim the reproduction makes about them:
the claim, the paper's value, a measure (a function of the experiment's
:class:`~repro.bench.experiments.ExperimentResult` returning one number)
and the interval it must fall in.  :func:`run` attaches an experiment's
evaluated bands to its result, so ``render()`` prints them under the
table.  ``repro figure NAME`` prints one such block, and::

    PYTHONPATH=src python -m repro.bench.conform EXPERIMENTS.md

prints them all and rewrites EXPERIMENTS.md's generated blocks (between
``<!-- conform:NAME -->`` and ``<!-- /conform -->``).  Both exit 1 on a
red band; the module exits 2 when the document's blocks are not exactly
the registered experiments.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import re
import sys
from collections.abc import Callable
from itertools import pairwise
from typing import NamedTuple

import numpy as np

from . import experiments as ex
from . import time_to_accuracy as tta
from .experiments import ExperimentResult

#: ``repro figure`` name -> experiment, in EXPERIMENTS.md order.
EXPERIMENTS: dict[str, Callable[[], ExperimentResult]] = {
    "fig03": ex.fig03_request_rates,
    "fig05": ex.fig05_breakdown,
    "fig07": ex.fig07_sampling,
    "fig08": ex.fig08_ssd_model,
    "fig09": ex.fig09_accumulator,
    "fig10": ex.fig10_cpu_buffer,
    "fig11": ex.fig11_window_depth,
    "fig12": ex.fig12_cache_sizes,
    "fig13": ex.fig13_e2e_980pro,
    "fig14": ex.fig14_e2e_optane,
    "fig15": ex.fig15_ladies,
    "table01": ex.table01_config,
    "table02": ex.table02_datasets,
    "table03": ex.table03_igb_microbench,
    "table04": ex.table04_sizes,
    "ablation-target": ex.ablation_accumulator_target,
    "ablation-ssd-scaling": ex.ablation_ssd_scaling,
    "ablation-feature-dimension": ex.ablation_feature_dimension,
    "ablation-structure-placement": ex.ablation_structure_placement,
    "ablation-eviction": ex.ablation_eviction_policy,
    "observatory-ssd-sweep": ex.observatory_ssd_sweep,
    "observatory-what-if": ex.observatory_what_if,
    "fleet-scaling": ex.fleet_scaling,
    "tta-gids-vs-mmap": tta.time_to_accuracy,
    "tta-fullgraph": tta.fullgraph_vs_minibatch,
    "storage-ha-degraded": ex.storage_ha_degraded,
    "faults-sweep": ex.faults_sweep,
    "faults-dropout": ex.faults_dropout,
    "integrity-verify": ex.integrity_verify,
    "integrity-storm": ex.integrity_storm,
    "serving-overload": ex.serving_overload,
    "checkpoint-resume": ex.checkpoint_resume,
    "scale-invariance": ex.scale_invariance,
}


@dataclasses.dataclass(frozen=True)
class Band:
    """One claim: ``measure(result)`` must lie between ``lo`` and ``hi``
    (``None`` leaves that end open), the ends included when ``closed``."""

    experiment: str
    claim: str
    paper: str
    measure: Callable[[ExperimentResult], float]
    lo: float | None = None
    hi: float | None = None
    closed: bool = False

    def holds(self, value: float) -> bool:
        if self.closed:
            return (self.lo is None or value >= self.lo) and (
                self.hi is None or value <= self.hi)
        return (self.lo is None or value > self.lo) and (
            self.hi is None or value < self.hi)

    def text(self) -> str:
        if self.lo is None:
            return f"{'<=' if self.closed else '<'} {self.hi:g}"
        if self.hi is None:
            return f"{'>=' if self.closed else '>'} {self.lo:g}"
        left, right = "[]" if self.closed else "()"
        return f"{left}{self.lo:g}, {self.hi:g}{right}"


class Check(NamedTuple):
    """A band evaluated on one result."""

    band: Band
    measured: float

    @property
    def passed(self) -> bool:
        return self.band.holds(self.measured)

    def cells(self) -> list[str]:
        band = self.band
        return [band.claim, band.paper, band.text(), f"{self.measured:.4g}",
                "PASS" if self.passed else "FAIL"]


@functools.cache
def _result(name: str) -> ExperimentResult:
    """``EXPERIMENTS[name]()``, run once per process."""
    return EXPERIMENTS[name]()


def run(name: str) -> ExperimentResult:
    """Experiment ``name``'s result with its bands evaluated."""
    result = _result(name)
    checks = [Check(band, float(band.measure(result)))
              for band in BANDS if band.experiment == name]
    return dataclasses.replace(result, checks=checks)


# ---------------------------------------------------------------------------
# Measures: rows are looked up by their leading cells, columns by header.


def _at(result: ExperimentResult, column: str, *key: object) -> object:
    """The ``column`` cell of the first row whose leading cells are ``key``."""
    index = result.headers.index(column)
    return next(row[index] for row in result.rows
                if tuple(row[:len(key)]) == key)


def _col(result: ExperimentResult, column: str) -> list:
    index = result.headers.index(column)
    return [row[index] for row in result.rows]


def _ratio(column: str, num: object, den: object, den_column: str = ""):
    """``column`` at row ``num`` over ``den_column`` (default: the same) at
    row ``den``; a tuple key names several leading cells."""
    def key(k):
        return k if isinstance(k, tuple) else (k,)
    return lambda r: (_at(r, column, *key(num))
                      / _at(r, den_column or column, *key(den)))


def _over(pick, column: str, keys):
    """``pick`` (min or max) of ``column`` over the rows ``keys``."""
    return lambda r: pick(_at(r, column, k) for k in keys)


def _is(column: str, key: object, value: object):
    """1 when the cell equals ``value``, else 0."""
    return lambda r: float(_at(r, column, key) == value)


def _max_step(column: str):
    """The largest ratio of a ``column`` cell to the one above it."""
    return lambda r: max(b / a for a, b in pairwise(_col(r, column)))


def _fig08_series(r: ExperimentResult, column: str, ssd: str) -> np.ndarray:
    return np.array([value for name, value in zip(_col(r, "SSD"), _col(r, column))
                     if name == ssd])


def _fig08_error(upper_half: bool):
    """The worst model-vs-measured relative error of either SSD, over the
    whole sweep or its upper half."""
    def worst(r: ExperimentResult) -> float:
        errors = []
        for ssd in (_OPTANE, _FLASH):
            model = _fig08_series(r, "model MIOPS", ssd)
            measured = _fig08_series(r, "measured MIOPS", ssd)
            error = np.abs(model - measured) / np.maximum(measured, 1e-6)
            errors.append(error[len(error) // 2:] if upper_half else error)
        return max(e.max() for e in errors)
    return worst


def _fig08_min_step(r: ExperimentResult) -> float:
    return min(np.diff(_fig08_series(r, "model MIOPS", ssd)).min()
               for ssd in (_OPTANE, _FLASH))


def _optane_overlap(r: ExperimentResult) -> float:
    return _at(r, "95% overlap", _OPTANE)


def _acc_gain(r: ExperimentResult, loader: str, batch: int) -> float:
    return _at(r, f"{loader}+acc", batch) / _at(r, loader, batch)


def _e2e_ordering(r: ExperimentResult) -> float:
    """Smallest step of IGB-Full's GIDS < BaM < Ginex < DGL-mmap chain."""
    times = [_at(r, loader, "IGB-Full")
             for loader in ("GIDS", "BaM", "Ginex", "DGL-mmap")]
    return min(b / a for a, b in pairwise(times))


def _latency_contrast(r: ExperimentResult) -> float:
    """Fig. 13's GIDS-over-mmap gap over Fig. 14's (this result's)."""
    flash = _result("fig13")
    return min(_at(flash, "vs mmap", name) / _at(r, "vs mmap", name)
               for name in _LARGE)


def _worst_error(driver: str, what_if: str):
    """The largest ``|predicted / achieved - 1|`` of one driver's what-if
    row, over every base run it was checked on."""
    return lambda r: max(abs(row[-1]) for row in r.rows
                         if row[:2] == [driver, what_if])


def _threshold_drift(count: int):
    return lambda r: abs(_at(r, "95% threshold", count)
                         - count * _at(r, "95% threshold", 1))


def _cell(column: str, *key: object):
    """The cell as a number, ``nan`` (a red band) where it is ``None``."""
    def measure(r: ExperimentResult) -> float:
        value = _at(r, column, *key)
        return float("nan") if value is None else value
    return measure


def _among(pick, column: str, key_column: str, test):
    """``pick`` of ``column`` over the rows whose ``key_column`` cell
    passes ``test``."""
    def measure(r: ExperimentResult) -> float:
        value, key = r.headers.index(column), r.headers.index(key_column)
        return pick(row[value] for row in r.rows if test(row[key]))
    return measure


def _all(column: str):
    """1 when every cell of ``column`` is true, else 0."""
    return lambda r: float(all(_col(r, column)))


def _healthy_cost(r: ExperimentResult) -> float:
    """The largest |healthy e2e of a redundant run / the bare run's - 1|."""
    return max(abs(_at(r, "healthy ms", n, mode) / _at(r, "healthy ms", n, "none")
                   - 1) for n, mode, *_ in r.rows if mode != "none")


def _parity_reads(r: ExperimentResult) -> float:
    """The largest |member reads - (SSDs - 1) x reconstructs| of a parity run."""
    return max(abs(_at(r, "member reads", n, "parity")
                   - (n - 1) * _at(r, "reconstructs", n, "parity"))
               for n in set(_col(r, "SSDs")))


def _fault_steps(r: ExperimentResult) -> float:
    """The smallest ratio of a cell's e2e to the next-lower fault rate's, over
    every loader and retry policy."""
    runs: dict = {}
    for loader, policy, _, e2e, *_ in r.rows:
        runs.setdefault((loader, policy), []).append(e2e)
    return min(b / a for times in runs.values() for a, b in pairwise(times))


def _checked_snapshots(r: ExperimentResult) -> float:
    """The fewest snapshots of a run over its steps / cadence."""
    return min(snapshots / (steps // every) for every, steps, snapshots in zip(
        _col(r, "every"), _col(r, "steps"), _col(r, "snapshots")))


def _off(value: float, measure):
    """How far ``measure`` is from ``value``: a band ``<= 0`` is equality."""
    return lambda r: abs(measure(r) - value)


_OPTANE, _FLASH = "Intel Optane SSD", "Samsung 980 Pro SSD"
_CONSUME = "GPU consumption (training)"
_LARGE = ("IGB-Full", "IGBH-Full")
_FITS = ("ogbn-papers100M", "MAG240M")
_PREP = ("sampling", "aggregation", "transfer")
_RP20 = ("20% buffer", "reverse_pagerank")
_RP10 = ("10% buffer", "reverse_pagerank")
_PAGES = "storage pages per requested node"
_FULLGRAPH = "GIDS-fullgraph"
_DROPOUT = "1% failures + SSD 1 dropout"
_CRASHES = "crashes at 9, 23"
_STORM = "integrity-storm"
_PEERS = "extension: peers absorb redundant reads"
_OUTAGE = "extension: one SSD down at t=0"

BANDS: tuple[Band, ...] = (
    Band("fig03", "GPU consumption over the 16-thread CPU plateau",
         "29 vs 4.1 M req/s", _ratio("Mreq/s", _CONSUME, "CPU (16 threads)"), lo=1),
    Band("fig03", "GPU generation over GPU consumption", "77 vs 29 M req/s",
         _ratio("Mreq/s", "GPU generation", _CONSUME), lo=1),
    Band("fig05", "IGB-Full/IGBH-Full data-prep share, % (min)",
         "sampling + aggregation dominate",
         lambda r: min(sum(_at(r, s, n) for s in _PREP) for n in _LARGE), lo=90),
    Band("fig05", "IGB-Full/IGBH-Full training share, % (max)", "barely visible",
         _over(max, "training", _LARGE), hi=5),
    Band("fig07", "GPU sampling speedup (min over datasets)", "GPU faster everywhere",
         lambda r: min(_col(r, "GPU speedup")), lo=1),
    Band("fig07", "GPU sampling speedup on IGB-medium", "> 3x",
         lambda r: _at(r, "GPU speedup", "IGB-medium"), lo=3),
    Band("fig07", "IGB-medium over IGB-tiny speedup", "grows with graph size",
         _ratio("GPU speedup", "IGB-medium", "IGB-tiny"), lo=1),
    Band("fig08", "model vs measured error, upper half (max)", "accurate near peak",
         _fig08_error(upper_half=True), hi=0.15),
    Band("fig08", "model vs measured error, whole sweep (max)",
         "model tracks measurement", _fig08_error(upper_half=False), hi=0.5),
    Band("fig08", "model MIOPS step per overlap doubling (min)",
         "rises with overlap", _fig08_min_step, lo=0),
    Band("fig08", "Optane 95%-of-peak overlap", "812 model / 1024 measured",
         _optane_overlap, lo=500, hi=2000, closed=True),
    Band("fig08", "Optane 95%-of-peak overlap, paper's 812-1024 +/- 25%",
         "812 model / 1024 measured", _optane_overlap, lo=609, hi=1280,
         closed=True),
    Band("fig08", "980 Pro over Optane 95%-of-peak overlap",
         "more latency, more overlap", _ratio("95% overlap", _FLASH, _OPTANE), lo=3),
    Band("fig09", "with over without accumulator (min, loaders x batches)",
         "helps both loaders",
         lambda r: min(_acc_gain(r, loader, batch) for loader in ("BaM", "GIDS")
                       for batch in (32, 64, 128)), lo=0.98, closed=True),
    Band("fig09", "GIDS accumulator gain, batch 32 over 128",
         "most at the smallest batch",
         lambda r: _acc_gain(r, "GIDS", 32) / _acc_gain(r, "GIDS", 128), lo=1),
    Band("fig09", "GIDS accumulator gain at batch 32", "1.95x",
         lambda r: _acc_gain(r, "GIDS", 32), lo=1.3),
    Band("fig09", "GIDS accumulator gain at batch 32, 1.95x +/- 1/3", "1.95x",
         lambda r: _acc_gain(r, "GIDS", 32), lo=1.3, hi=2.6),
    Band("fig09", "GIDS over BaM accumulator gain at batch 32", "1.95x vs 1.25x",
         lambda r: _acc_gain(r, "GIDS", 32) / _acc_gain(r, "BaM", 32), lo=1),
    Band("fig10", "20% over 10% buffer, reverse PageRank", "10.4 -> 23.4 GB/s",
         _ratio("GB/s", _RP20, _RP10), lo=1),
    Band("fig10", "reverse PageRank over random, 10% buffer", "reverse PageRank wins",
         _ratio("GB/s", _RP10, ("10% buffer", "random")), lo=1),
    Band("fig10", "20% reverse PageRank over no buffer", "3.53x",
         lambda r: _at(r, "vs baseline", *_RP20), lo=2.5),
    Band("fig10", "reverse PageRank over out-degree, 20% buffer",
         "reverse PageRank wins",
         _ratio("GB/s", _RP20, ("20% buffer", "out_degree")), lo=0.95, closed=True),
    Band("fig11", "hit ratio, depth 4 over depth 0", "1.2x",
         lambda r: _at(r, "hit vs depth0", 4), lo=1),
    Band("fig11", "hit ratio, depth 8 over depth 4", "2.19x vs 1.2x",
         _ratio("hit %", 8, 4), lo=1),
    Band("fig11", "hit ratio, depth 8 over depth 0", "2.19x",
         lambda r: _at(r, "hit vs depth0", 8), lo=1.5),
    Band("fig11", "aggregation speedup, depth 8 over depth 0", "1.13x",
         lambda r: _at(r, "agg speedup", 8), lo=1),
    Band("fig12", "aggregation speedup (min over cache sizes)", "1.20x / 1.18x / 1.12x",
         lambda r: min(_col(r, "agg speedup")), lo=1.05),
    Band("fig12", "window over random hit ratio (min over cache sizes)",
         "window wins at every size",
         lambda r: min(np.divide(_col(r, "hit % (window)"), _col(r, "hit % (random)"))),
         lo=1),
    Band("fig12", "4 GB + window over 16 GB random, hit ratio", "4 GB + WB beats 16 GB",
         _ratio("hit % (window)", "4 GB", "16 GB", "hit % (random)"), lo=1),
    Band("fig12", "4 GB + window over 16 GB random, agg time", "4 GB + WB beats 16 GB",
         _ratio("agg ms/iter (window)", "4 GB", "16 GB", "agg ms/iter (random)"), hi=1),
    Band("fig13", "GIDS vs DGL-mmap, IGB-Full/IGBH-Full (min)", "up to 582x",
         _over(min, "vs mmap", _LARGE), lo=50),
    Band("fig13", "GIDS vs BaM, IGB-Full/IGBH-Full (min)", "~3.1x",
         _over(min, "vs BaM", _LARGE), lo=1.5),
    Band("fig13", "GIDS vs Ginex on IGB-Full", "10.6-37x",
         lambda r: _at(r, "vs Ginex", "IGB-Full"), lo=5),
    Band("fig13", "GIDS vs DGL-mmap, papers100M/MAG240M (max)", "~1x: no page faults",
         _over(max, "vs mmap", _FITS), hi=5),
    Band("fig13", "Ginex skips IGBH-Full (1 = yes)", "homogeneous only",
         _is("Ginex", "IGBH-Full", None), lo=0.5),
    Band("fig13", "Ginex skips MAG240M (1 = yes)", "homogeneous only",
         _is("Ginex", "MAG240M", None), lo=0.5),
    Band("fig13", "IGB-Full GIDS < BaM < Ginex < mmap (min step)",
         "GIDS > BaM > Ginex > mmap", _e2e_ordering, lo=1),
    Band("fig14", "GIDS vs DGL-mmap, IGB-Full/IGBH-Full (min)", "up to 17.3x",
         _over(min, "vs mmap", _LARGE), lo=10),
    Band("fig14", "GIDS vs BaM, IGB-Full/IGBH-Full (min)", "~3.2x",
         _over(min, "vs BaM", _LARGE), lo=1.5),
    Band("fig14", "GIDS vs Ginex on IGB-Full", "10.6x",
         lambda r: _at(r, "vs Ginex", "IGB-Full"), lo=3),
    Band("fig14", "980 Pro over Optane mmap gap, IGB-Full/IGBH-Full (min)",
         "582x vs 17.3x", _latency_contrast, lo=3),
    Band("fig14", "IGB-Full GIDS < BaM < Ginex < mmap (min step)",
         "GIDS > BaM > Ginex > mmap", _e2e_ordering, lo=1),
    Band("fig15", "GIDS vs DGL-mmap (min over samplers)", "412x (LADIES)",
         lambda r: min(_col(r, "vs mmap")), lo=50),
    Band("fig15", "GIDS vs BaM (min over samplers)", "1.92x (LADIES)",
         lambda r: min(_col(r, "vs BaM")), lo=1.5),
    Band("table01", "cells naming the A100", "NVIDIA A100-40GB",
         lambda r: sum("A100" in str(c) for row in r.rows for c in row), lo=0),
    Band("table02", "datasets listed", "4", lambda r: len(r.rows), lo=3, hi=5),
    Band("table03", "IGB sizes listed", "4", lambda r: len(r.rows), lo=3, hi=5),
    Band("table04", "replica feature share, % (min)", "68-96%",
         lambda r: min(_col(r, "feature % (replica)")), lo=60),
    Band("ablation-target", "ms/iter, target 0.95 over 0.80",
         "§3.2: merge to 95% of peak", _ratio("ms/iter", 0.95, 0.80),
         hi=1.05, closed=True),
    Band("ablation-target", "gain to 0.95 over gain past it",
         "§3.2: buffer memory trade-off",
         lambda r: _ratio("ms/iter", 0.80, 0.95)(r) / _ratio("ms/iter", 0.95, 0.99)(r),
         lo=0.5, closed=True),
    Band("ablation-ssd-scaling", "95% threshold off 2 x its 1-SSD value",
         "§3.2: linear in SSDs", _threshold_drift(2), hi=2, closed=True),
    Band("ablation-ssd-scaling", "95% threshold off 4 x its 1-SSD value",
         "§3.2: linear in SSDs", _threshold_drift(4), hi=4, closed=True),
    Band("ablation-ssd-scaling", "ms/iter, 2 over 1 SSD", "§3.2: more SSDs, more IOPS",
         _ratio("ms/iter", 2, 1), hi=1.02, closed=True),
    Band("ablation-ssd-scaling", "ms/iter, 4 over 2 SSDs", "§3.2: more SSDs, more IOPS",
         _ratio("ms/iter", 4, 2), hi=1.02, closed=True),
    Band("ablation-feature-dimension", "pages per requested node, dim 128 over 1024",
         "§2.1: small vectors share pages", _ratio(_PAGES, 128, 1024), hi=0.95),
    Band("ablation-feature-dimension", "pages per requested node, dim 2048 over 1024",
         "§2.1: large vectors span pages", _ratio(_PAGES, 2048, 1024), lo=1.3),
    Band("ablation-structure-placement", "SSD placement I/O amplification",
         "§3.5: 8-16 B reads, 4 KB pages",
         lambda r: _at(r, "amplification", "stored on SSD"), lo=20),
    Band("ablation-structure-placement", "SSD over UVA structure time",
         "§3.5: pin structure in CPU memory",
         _ratio("time ms", "stored on SSD", "pinned in CPU memory (UVA, GIDS)"), lo=5),
    Band("ablation-structure-placement", "structure share of the data, %",
         "Table 4: 3.8-31%", lambda r: _col(r, "structure % of data")[0], hi=10),
    Band("ablation-eviction", "random vs LRU hit-ratio gap, points",
         "BaM ships random eviction",
         lambda r: abs(_at(r, "hit %", "random") - _at(r, "hit %", "lru")), hi=10),
    Band("observatory-ssd-sweep", "bottleneck at 1 SSD is the SSD (1 = yes)",
         "§3.3: one SSD cannot fill PCIe", _is("bottleneck", 1, "ssd"), lo=0.5),
    Band("observatory-ssd-sweep", "bottleneck at 8 SSDs is PCIe (1 = yes)",
         "§3.2: striped SSDs reach PCIe", _is("bottleneck", 8, "pcie"), lo=0.5),
    Band("observatory-ssd-sweep", "SSD utilization at 1 SSD, %",
         "§3.3: one SSD cannot fill PCIe", lambda r: _at(r, "ssd %", 1), lo=80),
    Band("observatory-ssd-sweep", "PCIe utilization at 8 SSDs, %",
         "§3.2: striped SSDs reach PCIe", lambda r: _at(r, "pcie %", 8), lo=90),
    Band("observatory-ssd-sweep", "E2E ratio per SSD doubling (max)",
         "improves until PCIe saturates", _max_step("E2E ms"), hi=1, closed=True),
    Band("observatory-what-if", "GIDS +1 SSD, worst abs error vs its run",
         "Eq. 2-3: more SSDs, more IOPS", _worst_error("GIDS", "+1 SSD"), hi=0.3),
    Band("observatory-what-if", "GIDS 2x window depth, worst abs error",
         "Eq. 2-3: merging amortizes T_i/T_t",
         _worst_error("GIDS", "2x window depth"), hi=0.3),
    Band("observatory-what-if", "GIDS 1 SSD down, replicated, worst abs error",
         "extension: replicas absorb an outage",
         _worst_error("GIDS", "degraded, replicated"), hi=0.3),
    Band("observatory-what-if", "GIDS 1 SSD down, bare, worst abs error",
         "extension: lost share reads the CPU mirror",
         _worst_error("GIDS", "degraded, no redundancy"), hi=0.3),
    Band("observatory-what-if", "fleet +1 SSD, abs error vs its run",
         "extension: GPUs share the array",
         _worst_error("GIDS-fleet", "+1 SSD"), hi=0.3),
    Band("observatory-what-if", "full-graph +1 SSD, abs error vs its run",
         "extension: offloaded sweep", _worst_error("GIDS-fullgraph", "+1 SSD"),
         hi=0.3),
    Band("fleet-scaling", "SSD pages, peer over no-peer, 2-4 GPUs (max)", _PEERS,
         lambda r: max(_ratio("peer SSD pages", n, n, "no-peer SSD pages")(r)
                       for n in (2, 4)), hi=1),
    Band("fleet-scaling", "peer hit %, 2-4 GPUs (min)", _PEERS,
         _over(min, "peer hit %", (2, 4)), lo=0),
    Band("fleet-scaling", "same losses with and without peers (1 = yes)",
         "extension: peers change cost, not content", _all("same losses"), lo=0.5),
    Band("fleet-scaling", "4-GPU speedup, peer over no-peer",
         "LSM-GNN: share the cache across GPUs",
         _ratio("peer speedup", 4, 4, "no-peer speedup"), lo=1),
    Band("fleet-scaling", "4-GPU peer speedup over 1 GPU",
         "LSM-GNN: share the cache across GPUs",
         lambda r: _at(r, "peer speedup", 4), lo=1),
    Band("fleet-scaling", "no-peer speedup over GPU count, 2-4 GPUs (max)",
         "§5: more GPUs need more SSDs",
         lambda r: max(_at(r, "no-peer speedup", n) / n for n in (2, 4)), hi=1),
    Band("tta-gids-vs-mmap", "DGL-mmap over GIDS time to 60%",
         "extension: the data path is the whole gap", _cell("vs GIDS", "DGL-mmap"),
         lo=10),
    Band("tta-gids-vs-mmap", "same accuracy per step (1 = yes)",
         "extension: identical batch sequences", _all("same acc curve"), lo=0.5),
    Band("tta-fullgraph", "full-graph over mini-batch time to 60%",
         "GriNNder: the memory wall", _cell("vs mini-batch", _FULLGRAPH), lo=10),
    Band("tta-fullgraph", "activations resident (1 = yes)",
         "extension: 21 MiB forces offload", _is("resident", _FULLGRAPH, True),
         hi=0.5),
    Band("tta-fullgraph", "activation pages spilled",
         "extension: 21 MiB forces offload", _cell("spill pages", _FULLGRAPH),
         lo=0),
    Band("storage-ha-degraded", "bare mirror reads (min)", _OUTAGE,
         _among(min, "mirror reads", "mode", lambda m: m == "none"), lo=0),
    Band("storage-ha-degraded", "redundant mirror reads (max)", _OUTAGE,
         _among(max, "mirror reads", "mode", lambda m: m != "none"), hi=0,
         closed=True),
    Band("storage-ha-degraded", "healthy e2e, redundant over bare, off 1 (max)",
         "extension: pay for what you use", _healthy_cost, hi=0, closed=True),
    Band("storage-ha-degraded", "same batches as the healthy bare run (1 = yes)",
         "extension: redundancy changes cost, not content", _all("same batches"),
         lo=0.5),
    Band("storage-ha-degraded", "replica reads, replication 2 (min)", _OUTAGE,
         _among(min, "replica reads", "mode", lambda m: m == "replication-2"),
         lo=0),
    Band("storage-ha-degraded", "rebuilt pages, replication 2 (min)",
         "extension: re-protect onto survivors",
         _among(min, "rebuilt pages", "mode", lambda m: m == "replication-2"),
         lo=0),
    Band("storage-ha-degraded", "parity reconstructs (min)", _OUTAGE,
         _among(min, "reconstructs", "mode", lambda m: m == "parity"), lo=0),
    Band("storage-ha-degraded", "member reads off (SSDs - 1) x reconstructs (max)",
         "extension: k reads per reconstruct", _parity_reads, hi=0, closed=True),
    Band("faults-sweep", "e2e per fault-rate step (min, loaders x policies)",
         "extension: faults cost time", _fault_steps, lo=0.999, closed=True),
    Band("faults-sweep", "injected faults at a 5% rate (min)",
         "extension: faults land on storage reads",
         _among(min, "injected", "fault rate", lambda rate: rate == 0.05), lo=0),
    Band("faults-dropout", "iterations, faulted off healthy",
         "extension: the epoch completes",
         lambda r: abs(_at(r, "iterations", _DROPOUT)
                       - _at(r, "iterations", "healthy")), hi=0, closed=True),
    Band("faults-dropout", "e2e slowdown", "extension: bounded slowdown",
         _ratio("e2e ms", _DROPOUT, "healthy"), lo=1, closed=True),
    Band("faults-dropout", "e2e slowdown, upper bound", "extension: bounded slowdown",
         _ratio("e2e ms", _DROPOUT, "healthy"), hi=5),
    Band("faults-dropout", "exported storage retries", "extension: faults observable",
         lambda r: _at(r, "retries", _DROPOUT), lo=0),
    Band("faults-dropout", "exported fallback reads", "extension: faults observable",
         lambda r: _at(r, "fallbacks", _DROPOUT), lo=0),
    Band("faults-dropout", "exported injected faults", "extension: faults observable",
         lambda r: _at(r, "injected", _DROPOUT), lo=0),
    Band("integrity-verify", "verify off, e2e over no integrity (max)",
         "extension: pay for what you use",
         _among(max, "vs off", "verify", lambda m: m == "off"), hi=1.02,
         closed=True),
    Band("integrity-verify", "full verify, detected off emitted (max)",
         "extension: full verify catches every flip",
         lambda r: max(abs(_at(r, "detected", "full", rate)
                           - _at(r, "emitted", "full", rate))
                       for rate in set(_col(r, "bitflip rate"))),
         hi=0, closed=True),
    Band("integrity-verify", "ledger consistent (1 = yes)",
         "extension: each detection repaired or quarantined", _all("consistent"),
         lo=0.5),
    Band("integrity-verify", "corruptions emitted, full verify at 1e-3",
         "extension: full verify catches every flip",
         lambda r: _at(r, "emitted", "full", 1e-3), lo=0),
    Band("integrity-verify", "full over off e2e (min over rates)",
         "extension: checking costs time",
         lambda r: min(_at(r, "e2e ms", "full", rate) / _at(r, "e2e ms", "off", rate)
                       for rate in set(_col(r, "bitflip rate"))), lo=1, closed=True),
    Band(_STORM, "corruptions detected", "extension: scrub + verify find the storm",
         lambda r: _col(r, "detected")[0], lo=0),
    Band(_STORM, "detected off emitted", "extension: scrub + verify find the storm",
         lambda r: abs(_col(r, "detected")[0] - _col(r, "emitted")[0]), hi=0,
         closed=True),
    Band(_STORM, "ledger consistent (1 = yes)",
         "extension: each detection repaired or quarantined", _all("consistent"),
         lo=0.5),
    Band(_STORM, "p50 detection latency, ms", "extension: ordered percentiles",
         lambda r: _col(r, "p50 ms")[0], lo=0, closed=True),
    Band(_STORM, "p95 - p50 and p99 - p95, ms (min)", "extension: ordered percentiles",
         lambda r: min(_col(r, "p95 ms")[0] - _col(r, "p50 ms")[0],
                       _col(r, "p99 ms")[0] - _col(r, "p95 ms")[0]), lo=0,
         closed=True),
    Band("serving-overload", "unprotected p99 over the SLO at 2x capacity",
         "extension: the queueing hockey stick",
         lambda r: _at(r, "p99 / SLO (off)", 2.0), lo=3),
    Band("serving-overload", "unprotected p99, 2x over 0.5x capacity",
         "extension: the queueing hockey stick",
         _ratio("p99 ms (off)", 2.0, 0.5), lo=10),
    Band("serving-overload", "protected p99 over the SLO (max)",
         "extension: admission keeps the tail", lambda r: max(_col(r, "p99 / SLO (on)")),
         hi=1, closed=True),
    Band("serving-overload", "protected goodput over capacity, > 1x (min)",
         "extension: goodput plateaus",
         _among(min, "on / capacity", "load", lambda load: load > 1), lo=0.9,
         closed=True),
    Band("serving-overload", "protected shed %, > 1x (min)",
         "extension: overload is shed", _among(min, "shed %", "load", lambda load: load > 1),
         lo=0),
    Band("serving-overload", "protected degraded % (min)", "extension: brownout",
         lambda r: min(_col(r, "degraded %")), lo=0, closed=True),
    Band("checkpoint-resume", "snapshots over steps / cadence (min)",
         "extension: a snapshot every N steps", _checked_snapshots, lo=1,
         closed=True),
    Band("checkpoint-resume", "crashes survived, off the plan's 2",
         "extension: crash-safe runs", _off(2, lambda r: _at(r, "crashes", _CRASHES)),
         hi=0, closed=True),
    Band("checkpoint-resume", "restores, off the plan's 2", "extension: crash-safe runs",
         _off(2, lambda r: _at(r, "restores", _CRASHES)), hi=0, closed=True),
    Band("checkpoint-resume", "same losses as unsupervised (1 = yes)",
         "extension: bit-identical resume", _all("same losses"), lo=0.5),
    Band("checkpoint-resume", "same final accuracy (1 = yes)",
         "extension: bit-identical resume", _all("same accuracy"), lo=0.5),
    Band("checkpoint-resume", "same exported report (1 = yes)",
         "extension: bit-identical resume", _all("same export"), lo=0.5),
    Band("scale-invariance", "redirect fraction gap across 2x scale",
         "methodology: scaling keeps ratios",
         lambda r: _at(r, "gap", "CPU-buffer redirect fraction"), hi=0.12),
    Band("scale-invariance", "GIDS-over-BaM gap over its x0.002 value",
         "methodology: scaling keeps ratios",
         lambda r: _at(r, "gap / larger-scale value", "GIDS over BaM"), hi=0.5),
)


#: One generated block of EXPERIMENTS.md.
BLOCK = re.compile(
    r"(<!-- conform:(?P<name>[\w-]+) -->\n).*?(<!-- /conform -->)", re.S)


def rewrite(doc: str, renders: dict[str, str]) -> str:
    """``doc`` with each generated block holding its experiment's render."""
    def block(match: re.Match) -> str:
        text = "\n".join(
            line.rstrip() for line in renders[match["name"]].splitlines())
        return f"{match[1]}```text\n{text}\n```\n{match[3]}"
    return BLOCK.sub(block, doc)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.conform",
        description="Run every reproduced experiment and check its bands.")
    parser.add_argument(
        "doc", nargs="?", help="markdown file whose generated blocks to rewrite")
    args = parser.parse_args(argv)
    if args.doc:
        with open(args.doc, encoding="utf-8") as handle:
            doc = handle.read()
        named = [match["name"] for match in BLOCK.finditer(doc)]
        if sorted(named) != sorted(EXPERIMENTS):
            print(f"error: {args.doc}: generated blocks {named} are not the "
                  f"registered experiments {list(EXPERIMENTS)}", file=sys.stderr)
            return 2
    renders, red = {}, 0
    for name in EXPERIMENTS:
        result = run(name)
        renders[name] = result.render()
        red += sum(not check.passed for check in result.checks)
        print(renders[name], end="\n\n", flush=True)
    if args.doc:
        with open(args.doc, "w", encoding="utf-8") as handle:
            handle.write(rewrite(doc, renders))
    print(f"{len(BANDS)} bands: {len(BANDS) - red} green, {red} red")
    return 1 if red else 0


if __name__ == "__main__":
    sys.exit(main())
