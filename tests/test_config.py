"""Unit tests for hardware specs and presets (repro.config)."""

import pytest

from repro.config import (
    A100,
    EPYC_7702,
    INTEL_OPTANE,
    PAGE_BYTES,
    SAMSUNG_980PRO,
    LoaderConfig,
    SSDSpec,
    SystemConfig,
)
from repro.errors import ConfigError


class TestSSDSpec:
    def test_optane_calibration(self):
        """Section 4.2: 11 us latency, 1.5M IOPS at 4 KB (~6 GB/s)."""
        assert INTEL_OPTANE.read_latency_s == pytest.approx(11e-6)
        assert INTEL_OPTANE.peak_iops == pytest.approx(1.5e6)
        assert INTEL_OPTANE.peak_bandwidth == pytest.approx(6.144e9)

    def test_980pro_calibration(self):
        """Section 4.2: 324 us latency, 700K IOPS at 4 KB."""
        assert SAMSUNG_980PRO.read_latency_s == pytest.approx(324e-6)
        assert SAMSUNG_980PRO.peak_iops == pytest.approx(0.7e6)

    def test_internal_parallelism_littles_law(self):
        spec = SSDSpec(name="x", read_latency_s=100e-6, peak_iops=1e6)
        assert spec.internal_parallelism == pytest.approx(100.0)

    def test_invalid_latency(self):
        with pytest.raises(ConfigError):
            SSDSpec(name="bad", read_latency_s=0.0, peak_iops=1e6)

    def test_invalid_iops(self):
        with pytest.raises(ConfigError):
            SSDSpec(name="bad", read_latency_s=1e-6, peak_iops=-1)


class TestCPUSpec:
    def test_rate_plateaus_at_16_threads(self):
        """Figure 3: 4.1M requests/s at 16 threads, flat beyond."""
        assert EPYC_7702.request_rate(16) == pytest.approx(4.1e6)
        assert EPYC_7702.request_rate(32) == pytest.approx(4.1e6)

    def test_rate_scales_below_plateau(self):
        assert EPYC_7702.request_rate(8) == pytest.approx(4.1e6 / 2)

    def test_zero_threads_rejected(self):
        with pytest.raises(ConfigError):
            EPYC_7702.request_rate(0)


class TestGPUSpec:
    def test_a100_calibration(self):
        """Figure 3 / Table 1 rates."""
        assert A100.request_generation_rate == pytest.approx(77e6)
        assert A100.training_consumption_rate == pytest.approx(29e6)
        assert A100.memory_bytes == pytest.approx(40e9)

    def test_generation_exceeds_consumption(self):
        """The premise of GPU-oriented preparation (Section 2.3)."""
        assert A100.request_generation_rate > A100.training_consumption_rate


class TestSystemConfig:
    def test_defaults(self):
        sys = SystemConfig()
        assert sys.num_ssds == 1
        assert sys.usable_cpu_memory == sys.cpu.memory_bytes

    def test_memory_limit(self):
        sys = SystemConfig(cpu_memory_limit_bytes=512e9)
        assert sys.usable_cpu_memory == pytest.approx(512e9)

    def test_limit_above_physical_rejected(self):
        with pytest.raises(ConfigError):
            SystemConfig(cpu_memory_limit_bytes=2e12)

    def test_aggregate_bandwidth_scales_with_ssds(self):
        one = SystemConfig(num_ssds=1)
        two = SystemConfig(num_ssds=2)
        assert two.num_ssds * two.ssd.peak_bandwidth == pytest.approx(
            2 * one.num_ssds * one.ssd.peak_bandwidth
        )

    def test_with_ssd_swaps_device(self):
        sys = SystemConfig().with_ssd(SAMSUNG_980PRO, num_ssds=2)
        assert sys.ssd is SAMSUNG_980PRO
        assert sys.num_ssds == 2

    def test_zero_ssds_rejected(self):
        with pytest.raises(ConfigError):
            SystemConfig(num_ssds=0)


class TestLoaderConfig:
    def test_paper_defaults(self):
        """Section 4.1: 8 GB cache, 10% CPU buffer, window depth 8."""
        cfg = LoaderConfig()
        assert cfg.gpu_cache_bytes == pytest.approx(8e9)
        assert cfg.cpu_buffer_fraction == pytest.approx(0.10)
        assert cfg.window_depth == 8
        assert cfg.accumulator_enabled

    def test_bad_buffer_fraction(self):
        with pytest.raises(ConfigError):
            LoaderConfig(cpu_buffer_fraction=1.5)

    def test_bad_metric(self):
        with pytest.raises(ConfigError):
            LoaderConfig(hot_node_metric="degree_squared")

    def test_bad_target(self):
        with pytest.raises(ConfigError):
            LoaderConfig(accumulator_target=1.0)

    def test_negative_window(self):
        with pytest.raises(ConfigError):
            LoaderConfig(window_depth=-1)


def test_page_size_constant():
    assert PAGE_BYTES == 4096
