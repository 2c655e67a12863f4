"""Determinism audit: same seed, same run — bit for bit.

Every stochastic component (samplers, cache eviction, latency draws,
fault injection) must derive all randomness from explicit seeds, so that
two runs with identical arguments produce identical modeled times and
counters.  These tests repeat runs and compare exactly — no tolerances.
"""

import numpy as np

from repro import (
    INTEL_OPTANE,
    DeviceEvent,
    FaultInjector,
    FaultPlan,
    GIDSDataLoader,
    GinexLoader,
    SSDMicrobench,
    SystemConfig,
)
from repro.baselines.mmap_loader import DGLMmapLoader


def assert_identical_reports(a, b):
    assert a.num_iterations == b.num_iterations
    for x, y in zip(a.iterations, b.iterations):
        assert x.times == y.times
        assert x.num_input_nodes == y.num_input_nodes
        assert x.num_sampled == y.num_sampled
        assert x.counters.snapshot() == y.counters.snapshot()
    assert a.e2e_time == b.e2e_time


class TestLoaderDeterminism:
    def _run_gids(self, dataset, system, config, plan=None):
        return GIDSDataLoader(
            dataset, system, config,
            batch_size=32, fanouts=(5, 5), seed=1, fault_plan=plan,
        ).run(8, warmup=2)

    def test_gids_repeat_run_identical(
        self, small_dataset, tight_system, small_loader_config
    ):
        a = self._run_gids(small_dataset, tight_system, small_loader_config)
        b = self._run_gids(small_dataset, tight_system, small_loader_config)
        assert_identical_reports(a, b)

    def test_gids_repeat_run_identical_under_faults(
        self, small_dataset, small_loader_config
    ):
        system = SystemConfig(
            ssd=INTEL_OPTANE,
            num_ssds=2,
            cpu_memory_limit_bytes=small_dataset.total_bytes * 0.5,
        )
        plan = FaultPlan(
            seed=17,
            read_failure_rate=0.05,
            tail_latency_rate=0.02,
            device_events=(DeviceEvent(1, "dropout", 1e-3),),
        )
        a = self._run_gids(small_dataset, system, small_loader_config, plan)
        b = self._run_gids(small_dataset, system, small_loader_config, plan)
        assert_identical_reports(a, b)

    def test_ginex_repeat_run_identical_under_faults(
        self, small_dataset, tight_system
    ):
        plan = FaultPlan(seed=17, read_failure_rate=0.05)

        def run():
            return GinexLoader(
                small_dataset, tight_system,
                batch_size=32, fanouts=(5, 5), seed=1, fault_plan=plan,
            ).run(8, warmup=8)

        assert_identical_reports(run(), run())

    def test_mmap_repeat_run_identical(self, small_dataset, tight_system):
        def run():
            return DGLMmapLoader(
                small_dataset, tight_system,
                batch_size=32, fanouts=(5, 5), seed=1,
            ).run(8, warmup=20)

        assert_identical_reports(run(), run())


class TestSimDeterminism:
    def test_microbench_same_seed_identical(self):
        a = SSDMicrobench(INTEL_OPTANE, seed=4).run(2048)
        b = SSDMicrobench(INTEL_OPTANE, seed=4).run(2048)
        assert a == b

    def test_microbench_same_seed_identical_with_faults(self):
        plan = FaultPlan(seed=4, read_failure_rate=0.1, tail_latency_rate=0.1)

        def run():
            return SSDMicrobench(
                INTEL_OPTANE, seed=4, fault_injector=FaultInjector(plan)
            ).run(2048)

        assert run() == run()

    def test_nvme_same_seed_identical_with_faults(self):
        """CQ-error retries replay identically, down to the injector stats."""
        plan = FaultPlan(seed=4, read_failure_rate=0.1)

        def run():
            injector = FaultInjector(plan)
            result = SSDMicrobench(
                INTEL_OPTANE, seed=4, fault_injector=injector
            ).run(2048)
            return result, injector.stats.state_dict()

        first = run()
        assert first[1]["retries"] > 0
        assert run() == first

    def test_injector_stream_is_independent_of_global_state(self):
        """Fault draws must never read the global NumPy RNG."""
        plan = FaultPlan(seed=6, read_failure_rate=0.3)
        np.random.seed(0)
        a = FaultInjector(plan).failure_mask(256)
        np.random.seed(12345)
        np.random.random(1000)
        b = FaultInjector(plan).failure_mask(256)
        assert np.array_equal(a, b)
