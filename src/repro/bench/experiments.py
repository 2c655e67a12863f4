"""One function per paper figure/table.

Each function builds its workload through :func:`repro.bench.get_workload`
(cached per process), runs the loaders involved, and returns an
:class:`ExperimentResult` whose rows hold the raw values of the series the
paper plots.  :mod:`repro.bench.conform` names each experiment and holds the
bands its rows must fall in; ``python -m repro.bench.conform`` runs them all.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from dataclasses import replace as dc_replace

import numpy as np

from ..baselines.ginex import GinexLoader
from ..baselines.mmap_loader import DGLMmapLoader
from ..config import (
    INTEL_OPTANE,
    SAMSUNG_980PRO,
    LoaderConfig,
    SSDSpec,
    SystemConfig,
)
from ..core.bam import BaMDataLoader
from ..core.gids import GIDSDataLoader
from ..graph.datasets import get_dataset_spec
from ..sampling.neighbor import NeighborSampler
from ..sampling.seeds import epoch_seed_batches
from ..sim.cpu import CPUModel
from ..sim.gpu import GPUModel
from ..sim.pcie import PCIeLink
from ..sim.ssd import SSDArray, SSDMicrobench
from ..utils import format_bytes
from .tables import render_table
from .workloads import Workload, get_workload

#: Iterations measured per loader run (the paper measures 100 at full
#: scale; 40 keeps every benchmark in seconds at our scale).
MEASURE_ITERS = 40
#: Warmup iterations: the paper uses 1000 for CPU baselines and 10 for
#: GIDS (Section 4.1); our page caches reach steady state sooner.
WARMUP_BASELINE = 150
WARMUP_GIDS = 10
#: The four real-world datasets, in the order Figs. 5, 13 and 14 plot them.
_E2E_DATASETS = ("ogbn-papers100M", "MAG240M", "IGB-Full", "IGBH-Full")


@dataclass
class ExperimentResult:
    """Tabular result of one reproduced figure or table.

    ``rows`` hold raw values; ``formats`` gives one format spec per column
    (``""`` for plain ``str``), and ``None`` renders as ``-``.  ``checks``
    are the band outcomes :func:`repro.bench.conform.run` attaches; they
    print under the table.
    """

    experiment: str
    headers: list[str]
    rows: list[list[object]]
    formats: Sequence[str] = ()
    extras: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)

    def render(self) -> str:
        formats = self.formats or [""] * len(self.headers)
        cells = [
            ["-" if value is None else format(value, spec)
             for value, spec in zip(row, formats)]
            for row in self.rows
        ]
        table = render_table(self.headers, cells, title=self.experiment)
        if self.checks:
            table += "\n" + render_table(
                ["claim", "paper", "band", "measured", "verdict"],
                [check.cells() for check in self.checks],
            )
        return table


def _gids(
    workload: Workload,
    system: SystemConfig,
    config: LoaderConfig,
    *,
    seed: int,
    hot: bool = False,
    **kwargs,
) -> GIDSDataLoader:
    """A GIDS loader on ``workload``'s replica at its batch size and fanouts
    (``kwargs`` override them), given its hot nodes when ``hot``."""
    kwargs = {
        "batch_size": workload.batch_size, "fanouts": workload.fanouts,
        **kwargs,
    }
    return GIDSDataLoader(
        workload.dataset, system, config,
        hot_nodes=workload.hot_nodes if hot else None, seed=seed, **kwargs,
    )


# ---------------------------------------------------------------------------
# Figure 3 — request generation/consumption rates


def fig03_request_rates(
    thread_counts: tuple[int, ...] = (1, 2, 4, 8, 16, 32),
) -> ExperimentResult:
    """Data-preparation request rates on CPU vs GPU (IGB-small workload).

    The calibrated rate models give requests/second per source.
    """
    gpu = GPUModel()
    rows: list[list[object]] = [
        [f"CPU ({threads} threads)", CPUModel(threads=threads).request_rate / 1e6]
        for threads in thread_counts
    ]
    rows.append(["GPU generation", gpu.spec.request_generation_rate / 1e6])
    rows.append(
        ["GPU consumption (training)",
         gpu.spec.training_consumption_rate / 1e6]
    )
    return ExperimentResult(
        experiment="Figure 3: feature-request rates (IGB-small)",
        headers=["source", "Mreq/s"],
        rows=rows,
        formats=["", ".2f"],
    )


# ---------------------------------------------------------------------------
# Figure 5 — baseline training-time breakdown


def fig05_breakdown(
    dataset_names: tuple[str, ...] = _E2E_DATASETS,
    iters: int = MEASURE_ITERS,
) -> ExperimentResult:
    """Stage breakdown of the DGL-mmap baseline across the four datasets."""
    rows = []
    for name in dataset_names:
        workload = get_workload(name)
        system = workload.system(INTEL_OPTANE)
        loader = DGLMmapLoader(
            workload.dataset,
            system,
            batch_size=workload.batch_size,
            fanouts=workload.fanouts,
            seed=1,
        )
        report = loader.run(iters, warmup=WARMUP_BASELINE)
        fractions = report.breakdown_fractions()
        rows.append(
            [name]
            + [100 * fractions[stage] for stage in (
                "sampling", "aggregation", "transfer", "training")]
            + [report.time_per_iteration() * 1e3]
        )
    return ExperimentResult(
        experiment="Figure 5: DGL-mmap training-time breakdown (%)",
        headers=[
            "dataset", "sampling", "aggregation", "transfer", "training",
            "ms/iter",
        ],
        rows=rows,
        formats=["", ".1f", ".1f", ".1f", ".1f", ".2f"],
    )


# ---------------------------------------------------------------------------
# Figure 7 — CPU vs GPU graph sampling time


def fig07_sampling(
    dataset_names: tuple[str, ...] = ("IGB-tiny", "IGB-small", "IGB-medium"),
    iters: int = 20,
) -> ExperimentResult:
    """Graph sampling time on CPU vs GPU for growing graph sizes."""
    cpu = CPUModel(threads=16)
    gpu = GPUModel()
    rows = []
    for name in dataset_names:
        workload = get_workload(name)
        sampler = NeighborSampler(
            workload.dataset.graph, workload.fanouts, seed=2
        )
        batches = epoch_seed_batches(
            workload.dataset.train_ids, workload.batch_size, seed=2
        )
        total = int(np.sum(
            [sampler.sample(seeds).num_sampled
             for _, seeds in zip(range(iters), batches)]
        ))
        cpu_time = cpu.sampling_time(total)
        gpu_time = gpu.sampling_time(
            total, n_kernels=len(workload.fanouts) * iters
        )
        rows.append(
            [name, cpu_time * 1e3, gpu_time * 1e3, cpu_time / gpu_time]
        )
    return ExperimentResult(
        experiment="Figure 7: graph sampling time, CPU vs GPU",
        headers=["dataset", "CPU ms", "GPU ms", "GPU speedup"],
        rows=rows,
        formats=["", ".3f", ".3f", ".2f"],
    )


# ---------------------------------------------------------------------------
# Figure 8 — SSD bandwidth vs overlapping accesses (model vs measured)


def fig08_ssd_model(
    overlaps: tuple[int, ...] = (32, 64, 128, 256, 512, 1024, 2048, 4096, 8192),
    repeats: int = 3,
) -> ExperimentResult:
    """Eq. 2-3 model vs event-driven measurement for both SSDs."""
    rows = []
    for spec in (INTEL_OPTANE, SAMSUNG_980PRO):
        arr = SSDArray(spec)
        bench = SSDMicrobench(spec, seed=0)
        measured = bench.sweep(list(overlaps), repeats=repeats)
        required = arr.required_overlapping(0.95)
        for n, meas in zip(overlaps, measured):
            model = arr.achieved_iops(n)
            rows.append(
                [spec.name, n, model / 1e6, meas / 1e6,
                 model * spec.page_bytes / 1e9, required]
            )
    return ExperimentResult(
        experiment="Figure 8: SSD IOPS vs overlapping accesses",
        headers=["SSD", "overlapping", "model MIOPS", "measured MIOPS",
                 "model GB/s", "95% overlap"],
        rows=rows,
        formats=["", "", ".3f", ".3f", ".2f", ""],
    )


# ---------------------------------------------------------------------------
# Figure 9 — dynamic storage access accumulator


def fig09_accumulator(
    batch_sizes: tuple[int, ...] = (32, 64, 128),
    iters: int = MEASURE_ITERS,
) -> ExperimentResult:
    """PCIe ingress bandwidth with/without the accumulator (2 Optane SSDs,
    fanout (5,5), IGB-Full), for both the BaM and GIDS dataloaders."""
    workload = get_workload("IGB-Full", fanouts=(5, 5))
    system = workload.system(INTEL_OPTANE, num_ssds=2)
    rows = []
    for batch_size in batch_sizes:
        row = [batch_size]
        for loader_name, gids_features in (("BaM", False), ("GIDS", True)):
            for accumulate in (False, True):
                config = workload.loader_config(
                    accumulator_enabled=accumulate,
                    cpu_buffer_fraction=0.10 if gids_features else 0.0,
                    window_depth=8 if gids_features else 0,
                )
                loader = _gids(
                    workload, system, config, seed=3, hot=gids_features,
                    batch_size=batch_size, fanouts=(5, 5),
                )
                loader.name = loader_name
                report = loader.run(iters, warmup=WARMUP_GIDS)
                row.append(report.pcie_ingress_bandwidth / 1e9)
        rows.append(row)
    return ExperimentResult(
        experiment="Figure 9: PCIe ingress bandwidth, GB/s "
        "(2x Intel Optane, fanout (5,5))",
        headers=["batch", "BaM", "BaM+acc", "GIDS", "GIDS+acc"],
        rows=rows,
        formats=["", ".2f", ".2f", ".2f", ".2f"],
    )


# ---------------------------------------------------------------------------
# Figure 10 — constant CPU buffer


def fig10_cpu_buffer(
    fractions: tuple[float, ...] = (0.10, 0.20),
    iters: int = MEASURE_ITERS,
) -> ExperimentResult:
    """Effective aggregation bandwidth vs CPU buffer size and hot-node
    metric (single SSD, window buffering off, as in Section 4.4)."""
    workload = get_workload("IGB-Full")
    system = workload.system(INTEL_OPTANE, num_ssds=1)

    def run(fraction: float, metric: str) -> float:
        config = workload.loader_config(
            cpu_buffer_fraction=fraction,
            window_depth=0,
            hot_node_metric=metric,
        )
        loader = _gids(
            workload, system, config, seed=4,
            hot=metric == "reverse_pagerank",
        )
        report = loader.run(iters, warmup=WARMUP_GIDS)
        return report.effective_aggregation_bandwidth / 1e9

    baseline = run(0.0, "reverse_pagerank")
    rows = [["no CPU buffer", None, baseline, baseline / baseline]]
    for fraction in fractions:
        for metric in ("random", "out_degree", "reverse_pagerank"):
            bw = run(fraction, metric)
            rows.append(
                [f"{int(fraction * 100)}% buffer", metric, bw, bw / baseline]
            )
    return ExperimentResult(
        experiment="Figure 10: feature aggregation bandwidth with the "
        "constant CPU buffer (GB/s, 1x Optane)",
        headers=["buffer", "hot-node metric", "GB/s", "vs baseline"],
        rows=rows,
        formats=["", "", ".2f", ".2f"],
    )


# ---------------------------------------------------------------------------
# Figures 11 & 12 — window buffering


def fig11_window_depth(
    depths: tuple[int, ...] = (0, 4, 8),
    iters: int = 60,
) -> ExperimentResult:
    """Cache hit ratio and aggregation time vs window depth (8 GB-scaled
    cache; CPU buffer off so cache behavior is isolated)."""
    workload = get_workload("IGB-Full")
    system = workload.system(INTEL_OPTANE, num_ssds=1)
    rows = []
    base_hit = None
    base_time = None
    for depth in depths:
        config = workload.loader_config(
            window_depth=depth, cpu_buffer_fraction=0.0
        )
        loader = _gids(workload, system, config, seed=5)
        report = loader.run(iters, warmup=2 * WARMUP_GIDS)
        hit = report.gpu_cache_hit_ratio
        agg = report.aggregation_time / iters
        if depth == depths[0]:
            base_hit, base_time = max(hit, 1e-9), agg
        rows.append(
            [depth, 100 * hit, hit / base_hit, agg * 1e3, base_time / agg]
        )
    return ExperimentResult(
        experiment="Figure 11: window buffering vs depth (8 GB-scaled cache)",
        headers=["depth", "hit %", "hit vs depth0", "agg ms/iter", "agg speedup"],
        rows=rows,
        formats=["", ".2f", ".2f", ".3f", ".3f"],
    )


def fig12_cache_sizes(
    cache_gb: tuple[float, ...] = (4.0, 8.0, 16.0),
    depth: int = 16,
    iters: int = 60,
) -> ExperimentResult:
    """Window buffering (depth 16) vs random eviction across cache sizes."""
    workload = get_workload("IGB-Full")
    system = workload.system(INTEL_OPTANE, num_ssds=1)
    rows = []
    for gb in cache_gb:
        cache_bytes = gb * 1e9 * workload.capacity_scale
        results = {}
        for window in (0, depth):
            config = workload.loader_config(
                gpu_cache_bytes=cache_bytes,
                window_depth=window,
                cpu_buffer_fraction=0.0,
            )
            loader = _gids(workload, system, config, seed=6)
            results[window] = loader.run(iters, warmup=2 * WARMUP_GIDS)
        base = results[0]
        buffered = results[depth]
        rows.append(
            [
                f"{gb:.0f} GB",
                100 * base.gpu_cache_hit_ratio,
                100 * buffered.gpu_cache_hit_ratio,
                base.aggregation_time / buffered.aggregation_time,
                base.aggregation_time / iters * 1e3,
                buffered.aggregation_time / iters * 1e3,
            ]
        )
    return ExperimentResult(
        experiment=f"Figure 12: window buffering (depth {depth}) vs cache size",
        headers=["cache", "hit % (random)", "hit % (window)", "agg speedup",
                 "agg ms/iter (random)", "agg ms/iter (window)"],
        rows=rows,
        formats=["", ".2f", ".2f", ".3f", ".3f", ".3f"],
    )


# ---------------------------------------------------------------------------
# Figures 13 & 14 — end-to-end training time


def _e2e_for_ssd(
    figure: str,
    ssd: SSDSpec,
    dataset_names: tuple[str, ...],
    iters: int,
) -> ExperimentResult:
    rows = []
    for name in dataset_names:
        workload = get_workload(name)
        # IGBH-Full uses two SSDs in the paper (storage capacity).
        num_ssds = 2 if name == "IGBH-Full" else 1
        system = workload.system(ssd, num_ssds=num_ssds)
        common = dict(
            batch_size=workload.batch_size, fanouts=workload.fanouts, seed=7
        )
        config = workload.loader_config()
        gids = _gids(workload, system, config, seed=7, hot=True).run(
            iters, warmup=WARMUP_GIDS
        )
        bam = BaMDataLoader(
            workload.dataset, system, config, **common
        ).run(iters, warmup=WARMUP_GIDS)
        mmap = DGLMmapLoader(workload.dataset, system, **common).run(
            iters, warmup=WARMUP_BASELINE
        )
        heterogeneous = workload.dataset.hetero is not None
        if heterogeneous:
            ginex_time = None  # Ginex supports only homogeneous graphs.
        else:
            ginex = GinexLoader(workload.dataset, system, **common).run(
                iters, warmup=WARMUP_BASELINE
            )
            ginex_time = ginex.e2e_time
        g = gids.e2e_time
        rows.append(
            [
                name,
                g * 1e3,
                bam.e2e_time * 1e3,
                None if ginex_time is None else ginex_time * 1e3,
                mmap.e2e_time * 1e3,
                mmap.e2e_time / g,
                None if ginex_time is None else ginex_time / g,
                bam.e2e_time / g,
            ]
        )
    return ExperimentResult(
        experiment=f"{figure}: E2E training time for {MEASURE_ITERS} "
        f"iterations, ms ({ssd.name})",
        headers=[
            "dataset", "GIDS", "BaM", "Ginex", "DGL-mmap",
            "vs mmap", "vs Ginex", "vs BaM",
        ],
        rows=rows,
        formats=["", ".2f", ".2f", ".2f", ".2f", ".1f", ".1f", ".2f"],
    )


def fig13_e2e_980pro(
    dataset_names: tuple[str, ...] = _E2E_DATASETS,
    iters: int = MEASURE_ITERS,
) -> ExperimentResult:
    """End-to-end comparison on Samsung 980 Pro SSDs."""
    return _e2e_for_ssd("Figure 13", SAMSUNG_980PRO, dataset_names, iters)


def fig14_e2e_optane(
    dataset_names: tuple[str, ...] = _E2E_DATASETS,
    iters: int = MEASURE_ITERS,
) -> ExperimentResult:
    """End-to-end comparison on Intel Optane SSDs."""
    return _e2e_for_ssd("Figure 14", INTEL_OPTANE, dataset_names, iters)


# ---------------------------------------------------------------------------
# Figure 15 — LADIES layer-wise sampling


def fig15_ladies(
    iters: int = MEASURE_ITERS,
    layer_sizes: tuple[int, ...] = (256, 256, 256),
) -> ExperimentResult:
    """Feature aggregation time with neighborhood vs LADIES sampling."""
    workload = get_workload("IGB-Full")
    system = workload.system(SAMSUNG_980PRO, num_ssds=1)
    rows = []
    for kind, kwargs in (
        ("neighborhood", dict(sampler_kind="neighbor", fanouts=workload.fanouts)),
        ("LADIES", dict(sampler_kind="ladies", layer_sizes=layer_sizes)),
    ):
        common = dict(batch_size=workload.batch_size, seed=8, **kwargs)
        config = workload.loader_config()
        gids = _gids(workload, system, config, hot=True, **common).run(
            iters, warmup=WARMUP_GIDS
        )
        bam = BaMDataLoader(
            workload.dataset, system, config, **common
        ).run(iters, warmup=WARMUP_GIDS)
        mmap = DGLMmapLoader(workload.dataset, system, **common).run(
            iters, warmup=WARMUP_BASELINE
        )
        g = gids.aggregation_time
        rows.append(
            [
                kind,
                g * 1e3,
                bam.aggregation_time * 1e3,
                mmap.aggregation_time * 1e3,
                mmap.aggregation_time / g,
                bam.aggregation_time / g,
            ]
        )
    return ExperimentResult(
        experiment="Figure 15: feature aggregation time, ms "
        "(Samsung 980 Pro)",
        headers=["sampling", "GIDS", "BaM", "DGL-mmap", "vs mmap", "vs BaM"],
        rows=rows,
        formats=["", ".2f", ".2f", ".2f", ".1f", ".2f"],
    )


# ---------------------------------------------------------------------------
# Tables


def table01_config() -> ExperimentResult:
    """Table 1: the evaluation system configuration (encoded presets)."""
    system = SystemConfig()
    rows = [
        ["CPU", system.cpu.name],
        ["CPU memory", format_bytes(system.cpu.memory_bytes)],
        ["GPU", system.gpu.name],
        ["GPU memory", format_bytes(system.gpu.memory_bytes)],
        ["HBM bandwidth", f"{system.gpu.hbm_bandwidth / 1e9:.0f} GB/s"],
        ["PCIe", system.pcie.name],
        ["PCIe bandwidth", f"{system.pcie.bandwidth_bytes / 1e9:.0f} GB/s"],
        [
            "SSDs",
            f"{INTEL_OPTANE.name} (11us, 1.5M IOPS) / "
            f"{SAMSUNG_980PRO.name} (324us, 0.7M IOPS)",
        ],
    ]
    return ExperimentResult(
        experiment="Table 1: evaluation system configuration",
        headers=["component", "specification"],
        rows=rows,
    )


def table02_datasets() -> ExperimentResult:
    """Table 2: real-world dataset characteristics (full scale)."""
    rows = []
    for name in ("ogbn-papers100M", "IGB-Full", "MAG240M", "IGBH-Full"):
        spec = get_dataset_spec(name)
        rows.append(
            [
                name,
                "heterogeneous" if spec.heterogeneous else "homogeneous",
                spec.num_nodes,
                spec.num_edges,
                spec.feature_dim,
            ]
        )
    return ExperimentResult(
        experiment="Table 2: real-world datasets",
        headers=["dataset", "type", "nodes", "edges", "feature dim"],
        rows=rows,
        formats=["", "", ",", ",", ""],
    )


def table03_igb_microbench() -> ExperimentResult:
    """Table 3: IGB micro-benchmark datasets (full scale)."""
    rows = []
    for name in ("IGB-tiny", "IGB-small", "IGB-medium", "IGB-large"):
        spec = get_dataset_spec(name)
        rows.append([name, spec.num_nodes, spec.num_edges, spec.feature_dim])
    return ExperimentResult(
        experiment="Table 3: IGB micro-benchmark datasets",
        headers=["dataset", "nodes", "edges", "feature dim"],
        rows=rows,
        formats=["", ",", ",", ""],
    )


def table04_sizes() -> ExperimentResult:
    """Table 4: feature vs structure size split, full scale and scaled."""
    rows = []
    for name in ("ogbn-papers100M", "IGB-Full", "MAG240M", "IGBH-Full"):
        spec = get_dataset_spec(name)
        workload = get_workload(name)
        rows.append(
            [
                name,
                spec.reported_feature_pct,
                spec.reported_structure_pct,
                100 * spec.feature_data_bytes / spec.total_bytes,
                format_bytes(spec.reported_total_bytes),
                format_bytes(workload.dataset.total_bytes),
            ]
        )
    return ExperimentResult(
        experiment="Table 4: dataset size distribution",
        headers=[
            "dataset", "feature % (paper)", "structure % (paper)",
            "feature % (replica)", "full-scale size", "scaled replica",
        ],
        rows=rows,
        formats=["", ".1f", ".1f", ".1f", "", ""],
    )


# ---------------------------------------------------------------------------
# Ablations beyond the paper's figures


def ablation_accumulator_target(
    targets: tuple[float, ...] = (0.80, 0.90, 0.95, 0.99),
    iters: int = MEASURE_ITERS,
) -> ExperimentResult:
    """Sensitivity of GIDS to the accumulator's peak-IOPS target."""
    workload = get_workload("IGB-Full")
    system = workload.system(INTEL_OPTANE, num_ssds=1)
    rows = []
    for target in targets:
        config = workload.loader_config(accumulator_target=target)
        loader = _gids(workload, system, config, seed=9, hot=True)
        report = loader.run(iters, warmup=WARMUP_GIDS)
        rows.append(
            [
                target,
                loader.accumulator.storage_threshold,
                report.pcie_ingress_bandwidth / 1e9,
                report.time_per_iteration() * 1e3,
            ]
        )
    return ExperimentResult(
        experiment="Ablation: accumulator target fraction",
        headers=["target", "storage threshold", "PCIe GB/s", "ms/iter"],
        rows=rows,
        formats=[".2f", "", ".2f", ".3f"],
    )


def ablation_ssd_scaling(
    ssd_counts: tuple[int, ...] = (1, 2, 4),
    iters: int = MEASURE_ITERS,
) -> ExperimentResult:
    """Multi-SSD scaling (Section 3.2): collective bandwidth and the
    accumulator's threshold both scale with the SSD count."""
    workload = get_workload("IGB-Full")
    rows = []
    for num_ssds in ssd_counts:
        system = workload.system(INTEL_OPTANE, num_ssds=num_ssds)
        array = SSDArray(INTEL_OPTANE, num_ssds)
        loader = _gids(
            workload, system, workload.loader_config(), seed=11, hot=True
        )
        report = loader.run(iters, warmup=WARMUP_GIDS)
        rows.append(
            [
                num_ssds,
                array.peak_bandwidth / 1e9,
                array.required_overlapping(0.95),
                report.pcie_ingress_bandwidth / 1e9,
                report.time_per_iteration() * 1e3,
            ]
        )
    return ExperimentResult(
        experiment="Ablation: SSD count scaling (Intel Optane, GIDS)",
        headers=["SSDs", "peak GB/s", "95% threshold", "PCIe GB/s",
                 "ms/iter"],
        rows=rows,
        formats=["", ".2f", "", ".2f", ".3f"],
    )


def ablation_feature_dimension(
    dims: tuple[int, ...] = (128, 512, 1024, 2048),
    iters: int = MEASURE_ITERS,
) -> ExperimentResult:
    """Feature dimension vs storage traffic (Section 2.1's 512 B - 4 KB
    range).

    Small vectors pack several nodes per 4 KB page (helpful spatial
    sharing), dim-1024 vectors fill a page exactly, and larger vectors
    span pages.  The same sampled workload is served at every dimension so
    the page-count differences isolate the layout effect.
    """
    base = get_workload("IGB-Full")
    system = base.system(INTEL_OPTANE)
    rows = []
    for dim in dims:
        spec = dc_replace(base.dataset.spec, feature_dim=dim)
        dataset = type(base.dataset)(
            spec=spec,
            scale=base.dataset.scale,
            graph=base.dataset.graph,
            hetero=base.dataset.hetero,
            train_ids=base.dataset.train_ids,
            feature_dim=dim,
        )
        # The GPU cache keeps its byte size (hardware is fixed); what
        # changes with the dimension is how many vectors it can hold.
        loader = _gids(
            dc_replace(base, dataset=dataset), system, base.loader_config(),
            seed=13, hot=True,
        )
        report = loader.run(iters, warmup=WARMUP_GIDS)
        nodes = report.total_input_nodes
        pages = report.counters.storage_requests
        rows.append(
            [
                dim,
                loader.layout.nodes_per_page,
                loader.layout.pages_per_node,
                pages / max(1, nodes),
                report.effective_aggregation_bandwidth / 1e9,
                report.time_per_iteration() * 1e3,
            ]
        )
    return ExperimentResult(
        experiment="Ablation: feature dimension vs storage traffic",
        headers=["dim", "nodes/page", "pages/node", "storage pages per "
                 "requested node", "eff GB/s", "ms/iter"],
        rows=rows,
        formats=["", "", "", ".3f", ".2f", ".3f"],
    )


def ablation_structure_placement(
    iters: int = MEASURE_ITERS,
) -> ExperimentResult:
    """Section 3.5: why graph structure belongs in CPU memory, not storage.

    The paper's two arguments, made quantitative on a real sampled
    workload: (1) structure reads are 8-16 B but storage moves 4 KB pages
    — massive I/O amplification; (2) those fine-grained random pages would
    pollute the GPU software cache.  We count the actual structure
    accesses of the sampled iterations and model two placements: pinned
    in CPU memory over UVA (GIDS's choice) and fetched from storage.
    """
    workload = get_workload("IGB-Full")
    dataset = workload.dataset
    system = workload.system(INTEL_OPTANE)
    array = SSDArray(INTEL_OPTANE)
    sampler = NeighborSampler(dataset.graph, workload.fanouts, seed=12)
    batches = epoch_seed_batches(
        dataset.train_ids, workload.batch_size, seed=12
    )
    structure_accesses = 0
    structure_pages = 0
    rng = np.random.default_rng(12)
    for _, seeds in zip(range(iters), batches):
        batch = sampler.sample(seeds)
        # One adjacency-list lookup per sampled node instance: an indptr
        # pair (16 B) plus the touched neighbor entries (8 B each).
        structure_accesses += batch.num_sampled
        # Each lookup lands on an effectively random 4 KB page of the
        # structure file (neighbor lists are small vs the page size).
        structure_pages += len(
            np.unique(
                rng.integers(
                    0,
                    max(1, dataset.structure_data_bytes // 4096),
                    size=batch.num_sampled,
                )
            )
        )

    entry_bytes = 16  # indptr pair per lookup
    useful_bytes = structure_accesses * entry_bytes
    page_bytes_moved = structure_pages * 4096
    amplification = page_bytes_moved / max(1, useful_bytes)

    pcie = PCIeLink(system.pcie)
    uva_time = useful_bytes / pcie.cpu_path_bandwidth
    storage_time = array.batch_service_time(structure_pages)
    structure_pct = 100 * dataset.structure_data_bytes / dataset.total_bytes

    useful_mb = useful_bytes / 1e6
    rows = [
        ["pinned in CPU memory (UVA, GIDS)", useful_mb, useful_mb, 1.0,
         uva_time * 1e3, structure_pct],
        ["stored on SSD", useful_mb, page_bytes_moved / 1e6, amplification,
         storage_time * 1e3, structure_pct],
    ]
    return ExperimentResult(
        experiment="Ablation (Section 3.5): graph structure placement, "
        f"{iters} iterations",
        headers=["placement", "useful MB", "moved MB", "amplification",
                 "time ms", "structure % of data"],
        rows=rows,
        formats=["", ".2f", ".2f", ".1f", ".3f", ".2f"],
    )


def ablation_eviction_policy(iters: int = 60) -> ExperimentResult:
    """GPU cache eviction policy: random (BaM default) vs LRU."""
    workload = get_workload("IGB-Full")
    system = workload.system(INTEL_OPTANE, num_ssds=1)
    rows = []
    for policy in ("random", "lru"):
        config = workload.loader_config(cpu_buffer_fraction=0.0)
        loader = _gids(workload, system, config, seed=10)
        loader.cache.policy = policy  # set before any access
        report = loader.run(iters, warmup=2 * WARMUP_GIDS)
        rows.append(
            [
                policy,
                100 * report.gpu_cache_hit_ratio,
                report.aggregation_time / iters * 1e3,
            ]
        )
    return ExperimentResult(
        experiment="Ablation: GPU cache eviction policy (window depth 8)",
        headers=["policy", "hit %", "agg ms/iter"],
        rows=rows,
        formats=["", ".2f", ".3f"],
    )


def observatory_ssd_sweep(
    num_ssds: tuple[int, ...] = (1, 2, 4, 8),
    iters: int = 20,
) -> ExperimentResult:
    """Bottleneck attribution across an SSD-array sweep (GIDS, 980 Pro).

    One Samsung 980 Pro cannot keep the aggregation stage fed, so the
    observatory attributes the run to the SSD; striping more devices in
    shifts the binding constraint to the PCIe link (the Fig. 8 story,
    read through the attribution layer instead of the bandwidth model).
    """
    from ..pipeline.export import report_to_dict

    workload = get_workload("IGB-Full")
    rows = []
    for count in num_ssds:
        system = workload.system(SAMSUNG_980PRO, num_ssds=count)
        loader = _gids(workload, system, workload.loader_config(), seed=1)
        report = loader.run(iters, warmup=WARMUP_GIDS)
        summary = report_to_dict(report, system=system)
        block = summary["attribution"]
        resources = block["resources"]
        rows.append(
            [count, block["bottleneck"]]
            + [100 * resources[name]["utilization"]
               for name in ("ssd", "pcie", "cpu.buffer")]
            + [summary["e2e_seconds"] * 1e3]
        )
    return ExperimentResult(
        experiment="Observatory: bottleneck attribution vs SSD count",
        headers=["SSDs", "bottleneck", "ssd %", "pcie %", "cpu.buf %", "E2E ms"],
        rows=rows,
        formats=["", "", ".1f", ".1f", ".1f", ".2f"],
    )
