"""NVMe queue-level properties of the event-driven SSD engine.

``SSDMicrobench`` is the single mechanism-level simulation of overlapping
NVMe reads; these tests pin the device-level behaviour that the
storage-access accumulator relies on.
"""

import pytest

from repro import FaultInjector, FaultPlan
from repro.config import INTEL_OPTANE
from repro.errors import ConfigError
from repro.sim.ssd import SSDArray, SSDMicrobench


class TestNVMeQueueSim:
    def test_zero_requests(self):
        """An empty kernel takes no time and never touches the injector."""
        inj = FaultInjector(FaultPlan(seed=0, read_failure_rate=0.5))
        before = inj.stats.state_dict()
        sim = SSDMicrobench(INTEL_OPTANE, 2, seed=0, fault_injector=inj)
        assert sim.run(0) == (0.0, 0.0)
        assert inj.stats.state_dict() == before

    def test_sustained_iops_near_device_peak(self):
        """With enough overlapping reads in flight, the mechanism-level sim
        must reach the device's rated peak — the BaM design point."""
        sim = SSDMicrobench(INTEL_OPTANE, latency_cv=0.0, seed=0)
        _, iops = sim.run(16384)
        assert iops == pytest.approx(INTEL_OPTANE.peak_iops, rel=0.10)
        assert iops <= INTEL_OPTANE.peak_iops

    def test_agrees_with_phase_model_at_scale(self):
        """Mechanism-level and Eq. 2-3 phase model agree at high overlap
        (the regime the accumulator creates)."""
        arr = SSDArray(INTEL_OPTANE, t_init_extra_s=0.0, t_term_s=0.0)
        sim = SSDMicrobench(INTEL_OPTANE, latency_cv=0.0, seed=0)
        n = 32768
        _, mech = sim.run(n)
        model = arr.achieved_iops(n)
        assert mech == pytest.approx(model, rel=0.10)

    def test_negative_requests_rejected(self):
        with pytest.raises(ConfigError):
            SSDMicrobench(INTEL_OPTANE).run(-1)

    def test_invalid_cv(self):
        with pytest.raises(ConfigError):
            SSDMicrobench(INTEL_OPTANE, latency_cv=-0.1)
