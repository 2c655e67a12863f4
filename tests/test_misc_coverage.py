"""Edge-case coverage: CLI corners, model helpers, report corners."""

import pytest

from repro.cli import main
from repro.config import INTEL_OPTANE
from repro.errors import ConfigError
from repro.pipeline.metrics import RunReport
from repro.sim.cpu import CPUModel
from repro.sim.ssd import SSDArray


class TestCLICorners:
    def test_run_all_on_tiny(self, capsys):
        code = main(
            [
                "run", "--dataset", "IGB-tiny", "--scale", "0.02",
                "--iterations", "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        for loader in ("GIDS", "BaM", "Ginex", "DGL-mmap"):
            assert loader in out
        assert "speedup vs slowest" in out

    def test_run_hetero_skips_ginex(self, capsys):
        """Requesting only Ginex on a heterogeneous graph must explain
        itself and exit non-zero instead of crashing."""
        code = main(
            [
                "run", "--dataset", "MAG240M", "--scale", "0.00002",
                "--loader", "ginex", "--iterations", "3",
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "homogeneous" in err
        assert "no loader" in err


class TestModelHelpers:
    def test_expected_bandwidth_collective(self):
        arr = SSDArray(INTEL_OPTANE, num_ssds=2)
        bw = arr.achieved_bandwidth(4096)
        assert bw == pytest.approx(arr.achieved_iops(4096) * 4096)
        assert bw == pytest.approx(
            2 * SSDArray(INTEL_OPTANE).achieved_bandwidth(2048)
        )

    def test_dram_read_time(self):
        cpu = CPUModel()
        assert cpu.dram_read_time(190e9) == pytest.approx(1.0)
        with pytest.raises(ConfigError):
            cpu.dram_read_time(-1)

    def test_gather_negative_rejected(self):
        with pytest.raises(ConfigError):
            CPUModel().gather_time_resident(-1)


class TestReportCorners:
    def test_empty_report_bandwidths_are_zero(self):
        report = RunReport("x")
        assert report.effective_aggregation_bandwidth == 0.0
        assert report.pcie_ingress_bandwidth == 0.0
        assert report.gpu_cache_hit_ratio == 0.0
        assert report.breakdown_fractions() == {
            "sampling": 0.0,
            "aggregation": 0.0,
            "transfer": 0.0,
            "training": 0.0,
        }
