"""One storage stack for every driver: what it decides for all five.

``StorageStack`` builds the store, the device models, the planes and the
placement for GIDS, BaM, the server, the fleet and the full-graph sweep,
so its range checks guard all five, and a redundancy knob means the same
thing in each.  ``--rebuild-iops`` alone brings the HA coordinator up
over a single-copy placement: there is nothing to re-read a lost page
from, so the sweep must recompute it — a rebuild-only sweep used to
count every unrecovered spill read as a replica redirect and price it as
one (15x the modeled time of the same run without the flag).
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.config import SAMSUNG_980PRO, LoaderConfig, SystemConfig
from repro.core.bam import BaMDataLoader
from repro.core.fleet import ElasticFleetTrainer
from repro.core.gids import GIDSDataLoader
from repro.errors import ConfigError
from repro.faults import FaultPlan, RetryPolicy
from repro.fullgraph import FullGraphConfig, FullGraphTrainer
from repro.graph.datasets import load_scaled
from repro.serving import InferenceServer

#: Every spill read that fails once stays failed: no retries.
_PLAN = {"seed": 3, "read_failure_rate": 0.3, "retry": {"max_retries": 0}}


@pytest.fixture(scope="module")
def dataset():
    return load_scaled("IGB-tiny", 0.001, seed=3)


@pytest.fixture(scope="module")
def system():
    return SystemConfig(ssd=SAMSUNG_980PRO, num_ssds=1)


def _sweep(dataset, system, **planes) -> FullGraphTrainer:
    trainer = FullGraphTrainer(
        dataset,
        system,
        FullGraphConfig(
            hidden_dim=8, num_classes=4, hbm_budget_bytes=6e6,
            num_partitions=4,
        ),
        fault_plan=FaultPlan(
            seed=3, read_failure_rate=0.3, retry=RetryPolicy(max_retries=0)
        ),
        **planes,
    )
    trainer.run_epochs(2)
    return trainer


def test_rebuild_only_sweep_recomputes_lost_spill_pages(dataset, system):
    bare = _sweep(dataset, system)
    rebuild = _sweep(dataset, system, rebuild_iops=10.0)
    assert rebuild.placement.storage_overhead_factor == 1.0
    counters = rebuild.report.counters
    assert counters.replica_redirects == counters.reconstruct_reads == 0
    assert counters.fallback_requests == rebuild.faults.stats.unrecovered > 0
    assert rebuild.report.e2e_time == bare.report.e2e_time
    assert rebuild.report.state_dict() == bare.report.state_dict()


def test_rebuild_iops_alone_adds_no_replica_to_repro_fullgraph(
    tmp_path, capsys
):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(_PLAN))
    argv = [
        "fullgraph", "--dataset", "IGB-tiny", "--scale", "0.002",
        "--epochs", "2", "--hbm-mb", "4", "--fault-plan", str(path),
        "--format", "json",
    ]
    exports = []
    for extra in ([], ["--rebuild-iops", "10"]):
        assert main(argv + extra) == 0
        exports.append(json.loads(capsys.readouterr().out))
    bare, rebuild = exports
    faults = rebuild["faults"]
    assert faults["replica_redirects"] == faults["reconstruct_reads"] == 0
    assert faults["storage_retries"] == 0
    assert faults["fallback_requests"] == faults["injected_faults"] > 0
    assert rebuild["e2e_seconds"] == bare["e2e_seconds"]
    assert round(rebuild["e2e_seconds"], 3) == 0.225
    assert rebuild == bare


_DRIVERS = {
    "gids": lambda dataset, system, **kw: GIDSDataLoader(
        dataset, system, LoaderConfig(gpu_cache_bytes=1e6), **kw
    ),
    "bam": lambda dataset, system, **kw: BaMDataLoader(
        dataset, system, LoaderConfig(gpu_cache_bytes=1e6), **kw
    ),
    "server": lambda dataset, system, **kw: InferenceServer(
        dataset, system, LoaderConfig(gpu_cache_bytes=1e6), **kw
    ),
    "fleet": lambda dataset, system, **kw: ElasticFleetTrainer(
        dataset, system, **kw
    ),
    "fullgraph": lambda dataset, system, **kw: FullGraphTrainer(
        dataset, system, FullGraphConfig(hbm_budget_bytes=6e6), **kw
    ),
}


@pytest.mark.parametrize("knob", [
    {"replication": 0}, {"replication": -3}, {"rebuild_iops": -1.0},
    {"rebuild_iops": float("nan")},
], ids=["replication=0", "replication=-3", "rebuild_iops=-1",
        "rebuild_iops=nan"])
@pytest.mark.parametrize("driver", sorted(_DRIVERS))
def test_every_driver_rejects_a_redundancy_knob_out_of_range(
    dataset, system, driver, knob
):
    """These used to pass silently as "no redundancy" everywhere but in
    the sweep's own config."""
    with pytest.raises(ConfigError, match="replication|rebuild"):
        _DRIVERS[driver](dataset, system, **knob)
