"""Unit tests for the fault-injection and resilience subsystem."""

import numpy as np
import pytest

from repro import (
    INTEL_OPTANE,
    DeviceEvent,
    FaultInjector,
    FaultPlan,
    FaultySSDArray,
    GIDSDataLoader,
    RetryPolicy,
    SSDArray,
    SSDMicrobench,
    SystemConfig,
)
from repro.errors import ConfigError, FaultError, RetryExhaustedError
from repro.sim.pcie import PCIeLink
from repro.config import PCIE_GEN4_X16


class TestDeviceEvent:
    def test_valid_kinds(self):
        for kind in ("slowdown", "dropout", "recovery"):
            DeviceEvent(device=0, kind=kind, at_time_s=1.0, factor=2.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(device=-1, kind="dropout", at_time_s=0.0),
            dict(device=0, kind="explode", at_time_s=0.0),
            dict(device=0, kind="dropout", at_time_s=-1.0),
            dict(device=0, kind="slowdown", at_time_s=0.0, factor=0.5),
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            DeviceEvent(**kwargs)


class TestFaultPlan:
    def test_default_plan_is_null(self):
        assert FaultPlan().is_null()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(read_failure_rate=0.01),
            dict(tail_latency_rate=0.05),
            dict(device_events=(DeviceEvent(0, "dropout", 1.0),)),
            dict(pcie_degradation_factor=2.0),
        ],
    )
    def test_any_fault_breaks_nullness(self, kwargs):
        assert not FaultPlan(**kwargs).is_null()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(read_failure_rate=1.0),
            dict(read_failure_rate=-0.1),
            dict(tail_latency_rate=1.5),
            dict(tail_latency_multiplier=0.5),
            dict(pcie_degradation_factor=0.9),
            dict(retry_failure_rate=-0.5),
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            FaultPlan(**kwargs)

    def test_retry_rate_defaults_to_read_rate(self):
        assert FaultPlan(
            read_failure_rate=0.2
        ).effective_retry_failure_rate == pytest.approx(0.2)
        assert FaultPlan(
            read_failure_rate=0.2, retry_failure_rate=0.7
        ).effective_retry_failure_rate == pytest.approx(0.7)

    def test_json_round_trip_exact(self):
        plan = FaultPlan(
            seed=42,
            read_failure_rate=0.02,
            retry_failure_rate=0.5,
            tail_latency_rate=0.01,
            tail_latency_multiplier=8.0,
            device_events=(
                DeviceEvent(1, "slowdown", 0.5, factor=3.0),
                DeviceEvent(1, "dropout", 1.0),
                DeviceEvent(1, "recovery", 2.0),
            ),
            pcie_degradation_factor=1.5,
            retry=RetryPolicy(max_retries=5, backoff_base_s=1e-4),
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_from_json_file(self, tmp_path):
        plan = FaultPlan(seed=7, read_failure_rate=0.1)
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        assert FaultPlan.from_json_file(str(path)) == plan

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            FaultPlan.from_json_file(str(tmp_path / "nope.json"))

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan.from_json("{not json")

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown fault plan keys"):
            FaultPlan.from_dict({"read_failure_rate": 0.1, "typo_key": 1})

    def test_non_object_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan.from_dict([1, 2, 3])


class TestRetryPolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(max_retries=-1),
            dict(backoff_base_s=-1.0),
            dict(backoff_multiplier=0.5),
            dict(backoff_jitter=1.0),
            dict(batch_timeout_s=0.0),
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            RetryPolicy(**kwargs)

    def test_backoff_grows_exponentially(self):
        policy = RetryPolicy(
            backoff_base_s=1e-4, backoff_multiplier=2.0, backoff_jitter=0.0
        )
        assert policy.backoff_s(1) == pytest.approx(1e-4)
        assert policy.backoff_s(2) == pytest.approx(2e-4)
        assert policy.backoff_s(3) == pytest.approx(4e-4)

    def test_jitter_bounds(self, rng):
        policy = RetryPolicy(backoff_base_s=1e-4, backoff_jitter=0.1)
        draws = [policy.backoff_s(1, rng) for _ in range(200)]
        assert all(0.9e-4 <= d <= 1.1e-4 for d in draws)
        assert len(set(draws)) > 1  # actually jittered

    def test_max_backoff_total_bounds_each_request(self, rng):
        policy = RetryPolicy(max_retries=4, backoff_jitter=0.1)
        bound = policy.max_backoff_total_s()
        total = sum(policy.backoff_s(a, rng) for a in range(1, 5))
        assert total <= bound

    def test_invalid_attempt_rejected(self):
        with pytest.raises(ConfigError):
            RetryPolicy().backoff_s(0)


class TestFaultInjector:
    def test_same_seed_same_draws(self):
        plan = FaultPlan(seed=5, read_failure_rate=0.3, tail_latency_rate=0.2)
        a, b = FaultInjector(plan), FaultInjector(plan)
        assert np.array_equal(a.failure_mask(500), b.failure_mask(500))
        assert np.array_equal(
            a.latency_multipliers(500), b.latency_multipliers(500)
        )
        assert a.spike_count(1000) == b.spike_count(1000)

    def test_zero_rate_consumes_no_randomness(self):
        plan = FaultPlan(seed=5)
        inj = FaultInjector(plan)
        assert not inj.failure_mask(100).any()
        assert (inj.latency_multipliers(100) == 1.0).all()
        assert inj.spike_count(100) == 0
        # The stream is untouched: the next draw equals a fresh stream's.
        assert inj.rng.random() == np.random.default_rng(5).random()

    def test_negative_counts_rejected(self):
        inj = FaultInjector(FaultPlan(read_failure_rate=0.1))
        for method in (inj.failure_mask, inj.latency_multipliers,
                       inj.spike_count):
            with pytest.raises(ConfigError):
                method(-1)
        with pytest.raises(ConfigError):
            inj.resolve_batch(-1)

    def test_stats_accumulate(self):
        plan = FaultPlan(seed=0, read_failure_rate=0.5, tail_latency_rate=0.5)
        inj = FaultInjector(plan)
        inj.failure_mask(1000)
        inj.latency_multipliers(1000)
        assert inj.stats.injected_failures > 300
        assert inj.stats.latency_spikes > 300


class TestResolveBatch:
    def test_zero_rate_is_free(self):
        outcome = FaultInjector(FaultPlan(seed=0)).resolve_batch(1000)
        assert outcome.injected_failures == 0
        assert outcome.retries == 0
        assert outcome.backoff_s == 0.0

    def test_retries_recover_when_retry_rate_zero(self):
        plan = FaultPlan(
            seed=0, read_failure_rate=0.9, retry_failure_rate=0.0
        )
        outcome = FaultInjector(plan).resolve_batch(1000)
        assert outcome.injected_failures > 800
        assert outcome.retries == outcome.injected_failures
        assert outcome.unrecovered == 0
        assert outcome.backoff_s > 0

    def test_retry_exhaustion_without_fallback_raises(self):
        plan = FaultPlan(seed=0, read_failure_rate=0.9, retry_failure_rate=1.0)
        policy = RetryPolicy(max_retries=2, fallback_to_cpu=False)
        with pytest.raises(RetryExhaustedError):
            FaultInjector(plan, policy).resolve_batch(100)

    def test_retry_exhaustion_with_fallback_reports_unrecovered(self):
        plan = FaultPlan(seed=0, read_failure_rate=0.9, retry_failure_rate=1.0)
        policy = RetryPolicy(max_retries=2, fallback_to_cpu=True)
        outcome = FaultInjector(plan, policy).resolve_batch(100)
        assert outcome.unrecovered > 0
        assert outcome.retries == 2 * outcome.unrecovered

    def test_timeout_stops_retrying(self):
        plan = FaultPlan(seed=0, read_failure_rate=0.9, retry_failure_rate=1.0)
        policy = RetryPolicy(
            max_retries=10, backoff_base_s=1.0, batch_timeout_s=0.5
        )
        outcome = FaultInjector(plan, policy).resolve_batch(100)
        assert outcome.timed_out
        assert outcome.retries == 0  # first backoff already over budget
        assert outcome.unrecovered > 0

    def test_fault_error_is_catchable_as_fault_error(self):
        assert issubclass(RetryExhaustedError, FaultError)


class TestDeviceStates:
    def _injector(self, events):
        return FaultInjector(FaultPlan(device_events=tuple(events)))

    def test_dropout_then_recovery(self):
        inj = self._injector([
            DeviceEvent(1, "dropout", 1.0),
            DeviceEvent(1, "recovery", 2.0),
        ])
        active, _ = inj.device_states(0.5, 2)
        assert active.all()
        active, _ = inj.device_states(1.5, 2)
        assert list(active) == [True, False]
        active, factors = inj.device_states(2.5, 2)
        assert active.all()
        assert factors[1] == 1.0

    def test_slowdown_factor(self):
        inj = self._injector([DeviceEvent(0, "slowdown", 0.0, factor=4.0)])
        _, factors = inj.device_states(0.0, 2)
        assert list(factors) == [4.0, 1.0]

    def test_out_of_range_device_ignored(self):
        inj = self._injector([DeviceEvent(7, "dropout", 0.0)])
        active, _ = inj.device_states(10.0, 2)
        assert active.all()

    def test_lost_page_mask_follows_striping(self):
        inj = self._injector([DeviceEvent(1, "dropout", 5.0)])
        pages = np.arange(10)
        lost = inj.lost_page_mask(pages, 6.0, 2)
        assert np.array_equal(lost, pages % 2 == 1)
        # Before the event nothing is lost.
        assert not inj.lost_page_mask(pages, 4.0, 2).any()


class TestFaultySSDArray:
    def _view(self, events, num_ssds=2):
        base = SSDArray(INTEL_OPTANE, num_ssds)
        inj = FaultInjector(FaultPlan(device_events=tuple(events)))
        return base, FaultySSDArray(base, inj)

    def test_healthy_view_delegates_to_base(self):
        base, view = self._view([])
        assert view.effective() is base
        assert view.peak_iops == base.peak_iops
        assert view.batch_service_time(1024) == base.batch_service_time(1024)

    def test_dropout_halves_peak_iops(self):
        base, view = self._view([DeviceEvent(1, "dropout", 0.0)])
        assert view.num_active == 1
        assert view.peak_iops == pytest.approx(base.peak_iops / 2)
        assert view.batch_service_time(1024) > base.batch_service_time(1024)

    def test_slowdown_reduces_iops_and_raises_latency(self):
        base, view = self._view([DeviceEvent(0, "slowdown", 0.0, factor=2.0)])
        assert view.peak_iops < base.peak_iops
        assert view.spec.read_latency_s > base.spec.read_latency_s

    def test_accumulator_threshold_resolves_against_survivors(self):
        base, view = self._view([DeviceEvent(1, "dropout", 0.0)])
        # Eq. 2-3 re-solved for the surviving single device.
        assert view.required_overlapping(0.95) == SSDArray(
            INTEL_OPTANE, 1
        ).required_overlapping(0.95)

    def test_all_devices_dropped(self):
        base, view = self._view([
            DeviceEvent(0, "dropout", 0.0),
            DeviceEvent(1, "dropout", 0.0),
        ])
        assert view.num_active == 0
        with pytest.raises(FaultError):
            view.effective()
        # Zero-sized batches and the accumulator stay well-defined.
        assert view.batch_service_time(0) == 0.0
        assert view.required_overlapping(0.95) == base.required_overlapping(
            0.95
        )

    def test_recovery_restores_base(self):
        base, view = self._view([
            DeviceEvent(1, "dropout", 1.0),
            DeviceEvent(1, "recovery", 2.0),
        ])
        view.advance_to(1.5)
        assert view.num_active == 1
        view.advance_to(2.5)
        assert view.effective() is base

    def test_negative_time_rejected(self):
        _, view = self._view([])
        with pytest.raises(FaultError):
            view.advance_to(-1.0)

    def test_tail_extra_time_scales_with_spikes(self):
        base = SSDArray(INTEL_OPTANE, 2)
        inj = FaultInjector(
            FaultPlan(tail_latency_rate=0.1, tail_latency_multiplier=10.0)
        )
        view = FaultySSDArray(base, inj)
        assert view.tail_extra_time(0) == 0.0
        assert view.tail_extra_time(20) == pytest.approx(
            2 * view.tail_extra_time(10)
        )


class TestPCIeDegradation:
    def test_degraded_link_bandwidth(self):
        healthy = PCIeLink(PCIE_GEN4_X16)
        degraded = PCIeLink(PCIE_GEN4_X16, degradation_factor=2.0)
        assert degraded.bandwidth == pytest.approx(healthy.bandwidth / 2)
        assert degraded.cpu_path_bandwidth < healthy.cpu_path_bandwidth

    def test_invalid_factor_rejected(self):
        with pytest.raises(ConfigError):
            PCIeLink(PCIE_GEN4_X16, degradation_factor=0.5)


class TestMicrobenchInjection:
    def test_failures_slow_the_kernel(self):
        plan = FaultPlan(seed=3, read_failure_rate=0.2, retry_failure_rate=0.0)
        healthy, _ = SSDMicrobench(INTEL_OPTANE, seed=0).run(2048)
        inj = FaultInjector(plan)
        faulty, _ = SSDMicrobench(
            INTEL_OPTANE, seed=0, fault_injector=inj
        ).run(2048)
        assert faulty > healthy
        assert inj.stats.injected_failures > 0
        assert inj.stats.retries > 0

    def test_no_injector_means_no_change(self):
        a = SSDMicrobench(INTEL_OPTANE, seed=0).run(1024)
        b = SSDMicrobench(INTEL_OPTANE, seed=0, fault_injector=None).run(1024)
        assert a == b

    def test_nvme_cq_errors_counted(self):
        """Every command completing with CQ error status is counted and
        re-issued in its slot; retries that fail again count as well."""
        plan = FaultPlan(seed=3, read_failure_rate=0.2, retry_failure_rate=0.0)
        inj = FaultInjector(plan)
        healthy = SSDMicrobench(INTEL_OPTANE, seed=0).run(2048)[0]
        faulty = SSDMicrobench(
            INTEL_OPTANE, seed=0, fault_injector=inj
        ).run(2048)[0]
        assert inj.stats.injected_failures > 0
        assert inj.stats.retries == inj.stats.injected_failures
        assert inj.stats.unrecovered == 0
        assert faulty > healthy

        stubborn = FaultInjector(
            FaultPlan(seed=3, read_failure_rate=0.2, retry_failure_rate=1.0),
            RetryPolicy(max_retries=2),
        )
        SSDMicrobench(INTEL_OPTANE, seed=0, fault_injector=stubborn).run(2048)
        first = stubborn.stats.unrecovered
        assert first > 0
        assert stubborn.stats.retries == 2 * first
        assert stubborn.stats.injected_failures == 3 * first


class TestLoaderIntegration:
    @pytest.fixture
    def system(self, small_dataset):
        return SystemConfig(
            ssd=INTEL_OPTANE,
            num_ssds=2,
            cpu_memory_limit_bytes=small_dataset.total_bytes * 0.5,
        )

    def test_null_plan_is_bit_identical_to_no_plan(
        self, small_dataset, system, small_loader_config
    ):
        common = dict(batch_size=32, fanouts=(5, 5), seed=1)
        bare = GIDSDataLoader(
            small_dataset, system, small_loader_config, **common
        ).run(8, warmup=2)
        null = GIDSDataLoader(
            small_dataset, system, small_loader_config,
            fault_plan=FaultPlan(), **common,
        ).run(8, warmup=2)
        for a, b in zip(bare.iterations, null.iterations):
            assert a.times == b.times
        assert bare.e2e_time == null.e2e_time

    def test_dropout_routes_lost_pages_to_fallback(
        self, small_dataset, system, small_loader_config
    ):
        plan = FaultPlan(
            seed=2, device_events=(DeviceEvent(1, "dropout", 0.0),)
        )
        loader = GIDSDataLoader(
            small_dataset, system, small_loader_config,
            batch_size=32, fanouts=(5, 5), seed=1, fault_plan=plan,
        )
        report = loader.run(8, warmup=2)
        assert report.num_iterations == 8
        assert report.counters.fallback_requests > 0
        assert report.counters.fallback_bytes > 0
        summary = report.resilience_summary()
        assert summary["fallback_fraction"] > 0

    def test_retry_exhaustion_surfaces_from_loader(
        self, small_dataset, system, small_loader_config
    ):
        plan = FaultPlan(seed=2, read_failure_rate=0.5, retry_failure_rate=1.0)
        loader = GIDSDataLoader(
            small_dataset, system, small_loader_config,
            batch_size=32, fanouts=(5, 5), seed=1,
            fault_plan=plan,
            retry_policy=RetryPolicy(max_retries=1, fallback_to_cpu=False),
        )
        with pytest.raises(RetryExhaustedError):
            loader.run(8, warmup=0)

    def test_faults_never_perturb_sampling(
        self, small_dataset, system, small_loader_config
    ):
        """The injector's private RNG guarantees the sampled workload is
        identical with and without faults — only modeled times differ."""
        common = dict(batch_size=32, fanouts=(5, 5), seed=1)
        bare = GIDSDataLoader(
            small_dataset, system, small_loader_config, **common
        ).run(8, warmup=2)
        plan = FaultPlan(seed=9, read_failure_rate=0.1, tail_latency_rate=0.1)
        faulty = GIDSDataLoader(
            small_dataset, system, small_loader_config,
            fault_plan=plan, **common,
        ).run(8, warmup=2)
        for a, b in zip(bare.iterations, faulty.iterations):
            assert a.num_input_nodes == b.num_input_nodes
            assert a.num_sampled == b.num_sampled
            assert a.num_edges == b.num_edges
