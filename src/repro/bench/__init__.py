"""Benchmark harness: workloads, experiment functions and the band table.

``workloads`` builds scaled replicas of the paper's evaluation setups with
all capacity ratios preserved; ``experiments`` contains one function per
paper figure/table, each returning the raw rows the paper reports;
``conform`` names them and holds the bands their rows must fall in
(``python -m repro.bench.conform``, ``repro figure NAME``).
"""

from .workloads import Workload, get_workload
from .tables import render_table

__all__ = ["Workload", "get_workload", "render_table"]
