"""Unit tests for the Eq. 2-3 analytic bandwidth model on ``SSDArray``."""

import pytest

from repro.config import INTEL_OPTANE, SAMSUNG_980PRO
from repro.errors import ConfigError
from repro.sim.ssd import SSDArray


class TestExpectedIops:
    def test_zero(self):
        assert SSDArray(INTEL_OPTANE).achieved_iops(0) == 0.0

    def test_per_ssd_rate(self):
        """Eq. 2: IOP_achieved is a per-SSD quantity."""
        one = SSDArray(INTEL_OPTANE, 1).achieved_iops(2048)
        two = SSDArray(INTEL_OPTANE, 2).achieved_iops(4096) / 2
        assert two == pytest.approx(one, rel=1e-9)

    def test_bounded_by_peak(self):
        arr = SSDArray(INTEL_OPTANE)
        for n in (10, 100, 10_000, 10**6):
            assert arr.achieved_iops(n) < INTEL_OPTANE.peak_iops

    def test_bandwidth_is_iops_times_page(self):
        arr = SSDArray(INTEL_OPTANE)
        assert arr.achieved_bandwidth(1024) == pytest.approx(
            arr.achieved_iops(1024) * 1 * 4096
        )

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            SSDArray(INTEL_OPTANE).achieved_iops(-1)


class TestRequiredAccesses:
    def test_round_trip(self):
        arr = SSDArray(SAMSUNG_980PRO)
        n = arr.required_overlapping(0.9)
        assert arr.achieved_iops(n) >= 0.9 * arr.peak_iops

    def test_monotone_in_target(self):
        arr = SSDArray(INTEL_OPTANE)
        n90 = arr.required_overlapping(0.90)
        n99 = arr.required_overlapping(0.99)
        assert n99 > n90
