"""End-to-end GNN training pipeline: the loader contract, runner and
reporting."""

from .metrics import IterationMetrics, RunReport, StageTimes
from .loader import MiniBatchLoader
from .runner import TrainingPipeline, TrainingResult
from .export import (
    report_to_dict,
    report_to_json,
    reports_to_comparison_csv,
)
from .timeline import render_timeline

__all__ = [
    "render_timeline",
    "IterationMetrics",
    "MiniBatchLoader",
    "RunReport",
    "StageTimes",
    "TrainingPipeline",
    "TrainingResult",
    "report_to_dict",
    "report_to_json",
    "reports_to_comparison_csv",
]
