"""Cross-driver composition: a read that exhausts its retries.

Under a harsh retry policy some storage reads fail on every attempt.  Such
a read was issued, so it stays a storage request and occupies an SSD
service slot; its bytes never arrive, so the fallback tier re-serves it
and it is a fallback request too.  GIDS, BaM and the inference server
must agree on all three, because the slot rule exists once
(``TransferCounters.device_reads``).  The server used to subtract the
exhausted reads from its storage requests and so charged them no slot.

Each driver runs one faulted plan with no device events, so every
fallback is an exhausted read, and the test checks

* request conservation with the exhausted reads counted twice: every
  requested page is served by exactly one tier, except the exhausted
  reads, which are storage requests *and* fallbacks;
* ``fallback_requests == unrecovered > 0``;
* the SSD slots priced on the array equal the summed ``device_reads``,
  which include every storage request.
"""

from __future__ import annotations

import pytest

from repro.config import INTEL_OPTANE, LoaderConfig, SystemConfig
from repro.core.bam import BaMDataLoader
from repro.core.gids import GIDSDataLoader
from repro.faults import FaultPlan, FaultySSDArray, RetryPolicy
from repro.graph.datasets import load_scaled
from repro.serving import ArrivalConfig, InferenceServer
from repro.sim.counters import TransferCounters

_SYSTEM = SystemConfig(ssd=INTEL_OPTANE, num_ssds=2)

#: Frequent failures whose one retry mostly fails again.
_PLAN = FaultPlan(seed=5, read_failure_rate=0.05, retry_failure_rate=0.9)
_HARSH_RETRY = RetryPolicy(max_retries=1)


@pytest.fixture(scope="module")
def dataset():
    return load_scaled("IGB-tiny", 0.02, seed=3)


@pytest.fixture
def slots(monkeypatch):
    """The request counts every storage batch is priced at."""
    priced: list[int] = []
    charge = FaultySSDArray.batch_service_time

    def recorded(self, n_requests):
        priced.append(n_requests)
        return charge(self, n_requests)

    monkeypatch.setattr(FaultySSDArray, "batch_service_time", recorded)
    return priced


def _config(dataset) -> LoaderConfig:
    return LoaderConfig(
        gpu_cache_bytes=dataset.feature_data_bytes * 0.05,
        cpu_buffer_fraction=0.10,
    )


def _check(counters: TransferCounters, unrecovered: int, priced) -> None:
    assert unrecovered > 0, "the plan exhausted no read"
    assert counters.fallback_requests == unrecovered
    assert sum(priced) == counters.device_reads


@pytest.mark.parametrize("cls", [GIDSDataLoader, BaMDataLoader])
def test_a_loader_counts_an_exhausted_read_and_charges_it_a_slot(
    cls, dataset, slots
):
    loader = cls(
        dataset,
        _SYSTEM,
        _config(dataset),
        batch_size=32,
        fanouts=(5, 5),
        seed=2,
        fault_plan=_PLAN,
        retry_policy=_HARSH_RETRY,
    )
    assert loader.layout.nodes_per_page == 1
    total, input_nodes, steps = TransferCounters(), 0, 0
    while steps < 40:
        for _, metrics in loader.next_training_group(40 - steps):
            total.merge(metrics.counters)
            input_nodes += metrics.num_input_nodes
            steps += 1
    unrecovered = loader.faults.stats.unrecovered
    # One page per input node: each is one request of one tier, and the
    # exhausted reads are counted by two.
    assert total.total_requests == input_nodes + unrecovered
    _check(total, unrecovered, slots)


def test_the_server_counts_an_exhausted_read_and_charges_it_a_slot(
    dataset, slots
):
    server = InferenceServer(
        dataset,
        _SYSTEM,
        _config(dataset),
        arrival=ArrivalConfig(shape="poisson", rate=2000.0, seed=3),
        fanouts=(5, 5),
        seed=4,
        fault_plan=_PLAN,
        retry_policy=_HARSH_RETRY,
    )
    server.serve(300)
    server.drain()
    counters = server.counters
    unrecovered = server.faults.stats.unrecovered
    # Every page left after the CPU buffer is a cache hit, a storage
    # request, or stale under a cache-only brownout; an exhausted read
    # stays a storage request.
    assert counters.page_faults == (
        counters.gpu_cache_hits + counters.storage_requests
        + server.stale_pages
    )
    _check(counters, unrecovered, slots)
