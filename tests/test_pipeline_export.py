"""Unit tests for run-report export (dict/JSON/CSV)."""

import csv
import io
import json

import pytest

from repro.errors import PipelineError
from repro.pipeline.export import (
    report_to_dict,
    report_to_json,
    reports_to_comparison_csv,
)
from repro.pipeline.metrics import IterationMetrics, RunReport, StageTimes
from repro.sim.counters import TransferCounters


@pytest.fixture
def report():
    r = RunReport("GIDS", overlapped=True)
    for i in range(3):
        r.append(
            IterationMetrics(
                times=StageTimes(
                    sampling=0.001, aggregation=0.004, transfer=0.0,
                    training=0.002,
                ),
                num_seeds=16,
                num_input_nodes=100 + i,
                num_sampled=200,
                num_edges=150,
                counters=TransferCounters(
                    storage_requests=60, storage_bytes=60 * 4096,
                    gpu_cache_hits=40, gpu_cache_bytes=40 * 4096,
                ),
            )
        )
    return r


class TestReportToDict:
    def test_summary_fields(self, report):
        d = report_to_dict(report)
        assert d["loader"] == "GIDS"
        assert d["iterations"] == 3
        assert d["overlapped"] is True
        assert d["e2e_seconds"] == pytest.approx(0.015)  # max(prep, train)
        assert d["counters"]["storage_requests"] == 180
        assert d["gpu_cache_hit_ratio"] == pytest.approx(0.4)

    def test_stage_seconds(self, report):
        d = report_to_dict(report)
        assert d["stage_seconds"]["aggregation"] == pytest.approx(0.012)

    def test_json_round_trip(self, report):
        parsed = json.loads(report_to_json(report))
        assert parsed == report_to_dict(report)

    def test_json_takes_every_block_the_dict_takes(self, report):
        """``report_to_json`` forwards its blocks; ``serving=`` used to be
        missing from a hand-copied list and raised ``TypeError``."""
        blocks = {
            "serving": {"completed": 7, "p99_s": 0.004},
            "fleet": {"num_gpus": 2},
            "alerts": {"ok": True, "fired": []},
        }
        parsed = json.loads(report_to_json(report, **blocks))
        assert parsed == report_to_dict(report, **blocks)
        assert parsed["serving"] == blocks["serving"]


def degenerate_report(value: float) -> RunReport:
    """A report whose derived ratios/bandwidths are contaminated by
    ``value`` (NaN or an infinity) via the stage times."""
    r = RunReport("degenerate")
    r.append(
        IterationMetrics(
            times=StageTimes(
                sampling=0.0, aggregation=value, transfer=0.0, training=0.0
            ),
            num_seeds=1,
            num_input_nodes=1,
            num_sampled=1,
            num_edges=1,
            counters=TransferCounters(),
        )
    )
    return r


class TestNonFiniteSafety:
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_exports_as_null(self, value):
        d = report_to_dict(degenerate_report(value))
        assert d["stage_seconds"]["aggregation"] is None
        assert d["e2e_seconds"] is None

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_json_round_trip_is_strict_json(self, value):
        text = report_to_json(degenerate_report(value))
        assert "NaN" not in text and "Infinity" not in text
        parsed = json.loads(text)
        assert parsed["e2e_seconds"] is None
        assert parsed == json.loads(report_to_json(degenerate_report(value)))

    def test_negative_infinity_rejected_at_the_source(self):
        # StageTimes validates sign, so -inf can never reach the export.
        with pytest.raises(PipelineError):
            degenerate_report(-float("inf"))

    def test_comparison_csv_emits_empty_cells(self):
        text = reports_to_comparison_csv([degenerate_report(float("nan"))])
        rows = list(csv.reader(io.StringIO(text)))
        header, row = rows
        assert row[header.index("e2e_seconds")] == ""


class TestFaultFields:
    def test_fault_block_present_and_zero_by_default(self, report):
        d = report_to_dict(report)
        faults = d["faults"]
        assert faults["injected_faults"] == 0
        assert faults["storage_retries"] == 0
        assert faults["fallback_requests"] == 0
        assert faults["retry_timeouts"] == 0

    def test_fault_counters_flow_through(self):
        r = RunReport("faulty")
        r.append(
            IterationMetrics(
                times=StageTimes(
                    sampling=0.0, aggregation=0.01, transfer=0.0,
                    training=0.0,
                ),
                num_seeds=1,
                num_input_nodes=10,
                num_sampled=10,
                num_edges=10,
                counters=TransferCounters(
                    storage_requests=90, storage_bytes=90 * 4096,
                    storage_retries=7, injected_faults=9, latency_spikes=3,
                    fallback_requests=10, fallback_bytes=10 * 4096,
                    retry_timeouts=1,
                ),
            )
        )
        parsed = json.loads(report_to_json(r))
        faults = parsed["faults"]
        assert faults["injected_faults"] == 9
        assert faults["storage_retries"] == 7
        assert faults["latency_spikes"] == 3
        assert faults["fallback_requests"] == 10
        assert faults["fallback_bytes"] == 10 * 4096
        assert faults["fallback_fraction"] == pytest.approx(0.1)
        assert faults["retry_timeouts"] == 1
        assert parsed["schema_version"] == 11


class TestCSV:
    def test_comparison_csv(self, report):
        other = RunReport("BaM")
        other.append(report.iterations[0])
        text = reports_to_comparison_csv([report, other])
        rows = list(csv.reader(io.StringIO(text)))
        assert len(rows) == 3
        assert rows[1][0] == "GIDS"
        assert rows[2][0] == "BaM"

    def test_comparison_csv_empty_rejected(self):
        with pytest.raises(PipelineError):
            reports_to_comparison_csv([])
