"""GIDS reproduction: GPU-initiated direct storage access for GNN training.

A faithful, laptop-scale reproduction of "GIDS: Accelerating Sampling and
Aggregation Operations in GNN Frameworks with GPU Initiated Direct Storage
Accesses" (PVLDB 17(6), 2024).  The GPU/NVMe hardware is replaced by
calibrated device models (see ``DESIGN.md``); everything algorithmic —
sampling, caching, hot-node ranking, the accumulator, window buffering, the
GraphSAGE model — executes for real.

Quickstart::

    from repro import GIDSDataLoader, SystemConfig, load_scaled

    dataset = load_scaled("IGB-tiny", scale=1.0, seed=0)
    loader = GIDSDataLoader(dataset, SystemConfig())
    report = loader.run(num_iterations=20)
    print(report.e2e_time, report.gpu_cache_hit_ratio)
"""

from .config import (
    A100,
    EPYC_7702,
    INTEL_OPTANE,
    LoaderConfig,
    PCIE_GEN4_X16,
    SAMSUNG_980PRO,
    CPUSpec,
    GPUSpec,
    PCIeSpec,
    SSDSpec,
    SystemConfig,
)
from .errors import (
    CapacityError,
    CheckpointCorruptError,
    CheckpointError,
    ConfigError,
    DatasetError,
    FaultError,
    FaultPlanError,
    GraphError,
    IntegrityError,
    ObservatoryError,
    PipelineError,
    ReproError,
    RestartLimitError,
    RetryExhaustedError,
    SamplingError,
    ServingError,
    SimulatedCrashError,
    StalledRunError,
    StorageError,
    TelemetryError,
    UnrepairablePageError,
)
from .faults import (
    CorruptionEvent,
    CrashEvent,
    DeviceEvent,
    FaultInjector,
    FaultPlan,
    FaultySSDArray,
    RetryPolicy,
)
from .integrity import (
    CorruptionLedger,
    PageChecksummer,
    ReadVerifier,
    Scrubber,
)
from .checkpoint import (
    CheckpointStore,
    CheckpointSummary,
    RunSupervisor,
    SupervisedRunResult,
    SupervisorConfig,
    read_snapshot,
    write_snapshot,
)
from .graph import (
    DATASETS,
    CSRGraph,
    DatasetSpec,
    HeteroGraph,
    PartitionResult,
    ScaledDataset,
    bfs_partition,
    edge_cut,
    get_dataset_spec,
    hot_node_ranking,
    load_scaled,
    pagerank,
    partition_graph,
    power_law_graph,
    refine_partition,
    reverse_pagerank,
    uniform_graph,
)
from .core import (
    BaMDataLoader,
    DynamicAccessAccumulator,
    GIDSDataLoader,
    WindowBuffer,
)
from .baselines import DGLMmapLoader, GinexLoader, UVALoader
from .cache import BeladyCache, ConstantCPUBuffer, GPUSoftwareCache
from .pipeline import (
    RunReport,
    StageTimes,
    TrainingPipeline,
    TrainingResult,
    iterations_to_csv,
    report_to_dict,
    report_to_json,
    reports_to_comparison_csv,
)
from .sampling import (
    ClusterSampler,
    HeteroNeighborSampler,
    LadiesSampler,
    MiniBatch,
    NeighborSampler,
)
from .sim import CPUModel, GPUModel, PageCache, PCIeLink, SSDArray, SSDMicrobench
from .storage import FeatureStore, PageLayout
from .telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Tracer,
    render_trace,
    summarize,
    summarize_chrome_trace,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from .observatory import (
    AlertRule,
    ComparisonResult,
    RunHistory,
    RunRecord,
    SLOMonitor,
    attribute_summary,
    compare_summaries,
    compare_to_history,
    config_fingerprint,
    load_alert_rules,
    system_spec_block,
    what_if_table,
)
from .serving import (
    ArrivalConfig,
    ArrivalProcess,
    InferenceServer,
    ServingConfig,
    ServingReport,
    ServingStats,
)
from .training import GraphSAGE, synthetic_labels

__version__ = "1.0.0"

__all__ = [
    # configuration
    "A100",
    "EPYC_7702",
    "INTEL_OPTANE",
    "PCIE_GEN4_X16",
    "SAMSUNG_980PRO",
    "CPUSpec",
    "GPUSpec",
    "LoaderConfig",
    "PCIeSpec",
    "SSDSpec",
    "SystemConfig",
    # errors
    "CapacityError",
    "CheckpointCorruptError",
    "CheckpointError",
    "ConfigError",
    "DatasetError",
    "FaultError",
    "FaultPlanError",
    "GraphError",
    "IntegrityError",
    "ObservatoryError",
    "PipelineError",
    "ReproError",
    "RestartLimitError",
    "RetryExhaustedError",
    "SamplingError",
    "ServingError",
    "SimulatedCrashError",
    "StalledRunError",
    "StorageError",
    "TelemetryError",
    "UnrepairablePageError",
    # fault injection & resilience
    "CorruptionEvent",
    "CrashEvent",
    "DeviceEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultySSDArray",
    "RetryPolicy",
    # data integrity
    "CorruptionLedger",
    "PageChecksummer",
    "ReadVerifier",
    "Scrubber",
    # checkpoint / supervised runs
    "CheckpointStore",
    "CheckpointSummary",
    "RunSupervisor",
    "SupervisedRunResult",
    "SupervisorConfig",
    "read_snapshot",
    "write_snapshot",
    # graphs & datasets
    "DATASETS",
    "CSRGraph",
    "DatasetSpec",
    "HeteroGraph",
    "ScaledDataset",
    "get_dataset_spec",
    "PartitionResult",
    "bfs_partition",
    "edge_cut",
    "hot_node_ranking",
    "load_scaled",
    "pagerank",
    "partition_graph",
    "power_law_graph",
    "refine_partition",
    "reverse_pagerank",
    "uniform_graph",
    # the GIDS core
    "BaMDataLoader",
    "DynamicAccessAccumulator",
    "GIDSDataLoader",
    "WindowBuffer",
    # baselines
    "DGLMmapLoader",
    "GinexLoader",
    "UVALoader",
    # caches
    "BeladyCache",
    "ConstantCPUBuffer",
    "GPUSoftwareCache",
    # pipeline
    "RunReport",
    "StageTimes",
    "TrainingPipeline",
    "TrainingResult",
    "iterations_to_csv",
    "report_to_dict",
    "report_to_json",
    "reports_to_comparison_csv",
    # sampling
    "ClusterSampler",
    "HeteroNeighborSampler",
    "LadiesSampler",
    "MiniBatch",
    "NeighborSampler",
    # simulation substrate
    "CPUModel",
    "GPUModel",
    "PCIeLink",
    "PageCache",
    "SSDArray",
    "SSDMicrobench",
    # storage
    "FeatureStore",
    "PageLayout",
    # telemetry
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Tracer",
    "render_trace",
    "summarize",
    "summarize_chrome_trace",
    "to_chrome_trace",
    "validate_chrome_trace",
    "write_chrome_trace",
    # observatory
    "AlertRule",
    "ComparisonResult",
    "RunHistory",
    "RunRecord",
    "SLOMonitor",
    "attribute_summary",
    "compare_summaries",
    "compare_to_history",
    "config_fingerprint",
    "load_alert_rules",
    "system_spec_block",
    "what_if_table",
    # serving
    "ArrivalConfig",
    "ArrivalProcess",
    "InferenceServer",
    "ServingConfig",
    "ServingReport",
    "ServingStats",
    # training
    "GraphSAGE",
    "synthetic_labels",
]
