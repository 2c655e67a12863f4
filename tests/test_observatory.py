"""Unit tests for the performance observatory.

Covers the three observatory parts (attribution, regression detection,
SLO alerts) plus the schema-v6 export wiring.  The attribution
scenarios follow the acceptance criteria: one SSD-bound and one PCIe/CPU-
bound synthetic run, with utilization fractions cross-checked against the
counters and the sim peak specs.
"""

from __future__ import annotations

import json

import pytest

from repro import (
    INTEL_OPTANE,
    AlertRule,
    ObservatoryError,
    SLOMonitor,
    SystemConfig,
    Tracer,
    attribute_summary,
    compare_summaries,
    load_alert_rules,
    system_spec_block,
)
from repro.core.gids import GIDSDataLoader
from repro.observatory.regression import REGRESSION_EXIT_CODE
from repro.observatory.slo import ALERTS_TRACK
from repro.pipeline.export import EXPORT_SCHEMA_VERSION, report_to_dict
from repro.pipeline.metrics import (
    IterationMetrics,
    RunReport,
    StageTimes,
)
from repro.sim.counters import TransferCounters


def make_summary(
    *,
    loader="GIDS",
    iterations=10,
    overlapped=False,
    sampling=0.01,
    aggregation=1.0,
    transfer=0.0,
    training=0.05,
    storage_requests=0,
    storage_bytes=0,
    cpu_buffer_bytes=0,
    gpu_cache_bytes=0,
    fallback_bytes=0,
    total_input_nodes=1000,
    gpu_cache_hit_ratio=0.5,
) -> dict:
    """A minimal schema-v6 report summary with controllable counters."""
    e2e = (
        max(sampling + aggregation + transfer, training)
        if overlapped
        else sampling + aggregation + transfer + training
    )
    return {
        "schema_version": EXPORT_SCHEMA_VERSION,
        "loader": loader,
        "iterations": iterations,
        "overlapped": overlapped,
        "e2e_seconds": e2e,
        "seconds_per_iteration": e2e / iterations,
        "stage_seconds": {
            "sampling": sampling,
            "aggregation": aggregation,
            "transfer": transfer,
            "training": training,
        },
        "counters": {
            "storage_requests": storage_requests,
            "storage_bytes": storage_bytes,
            "cpu_buffer_requests": 0,
            "cpu_buffer_bytes": cpu_buffer_bytes,
            "gpu_cache_hits": 0,
            "gpu_cache_bytes": gpu_cache_bytes,
            "page_faults": 0,
            "page_cache_hits": 0,
        },
        "faults": {"fallback_bytes": fallback_bytes},
        "gpu_cache_hit_ratio": gpu_cache_hit_ratio,
        "redirect_fraction": 0.9,
        "total_input_nodes": total_input_nodes,
        "attribution": None,
        "alerts": None,
    }


@pytest.fixture(scope="module")
def optane_specs():
    return system_spec_block(SystemConfig(ssd=INTEL_OPTANE, num_ssds=1))


class TestAttributionScenarios:
    def test_ssd_bound_scenario(self, optane_specs):
        # 1.4M storage IOPS against a single Optane's 1.5M peak, with only
        # ~5.7 GB crossing PCIe: the SSD is the binding constraint.
        n = 1_400_000
        summary = make_summary(
            storage_requests=n, storage_bytes=n * 4096, aggregation=1.0
        )
        block = attribute_summary(summary, optane_specs)
        assert block["bottleneck"] == "ssd"
        assert "ssd-bound" in block["verdict"]
        ssd = block["resources"]["ssd"]
        # Utilization must be consistent with counters / peak specs.
        assert ssd["achieved"] == pytest.approx(n / 1.0)
        assert ssd["peak"] == INTEL_OPTANE.peak_iops
        assert ssd["utilization"] == pytest.approx(n / INTEL_OPTANE.peak_iops)
        assert ssd["utilization"] > block["resources"]["pcie"]["utilization"]

    def test_cpu_path_bound_scenario(self, optane_specs):
        # 26 GB/s on the CPU-buffer path (peak 27.2 GB/s at 85% PCIe
        # efficiency) with almost no storage traffic: CPU path binds.
        summary = make_summary(
            storage_requests=1000,
            storage_bytes=1000 * 4096,
            cpu_buffer_bytes=26_000_000_000,
            aggregation=1.0,
        )
        block = attribute_summary(summary, optane_specs)
        assert block["bottleneck"] == "cpu.buffer"
        cpu = block["resources"]["cpu.buffer"]
        assert cpu["achieved"] == pytest.approx(26e9)
        assert cpu["peak"] == pytest.approx(32e9 * 0.85)
        assert cpu["utilization"] == pytest.approx(26e9 / (32e9 * 0.85))

    def test_pcie_bound_scenario(self):
        # 8 SSDs push 30 GB/s of storage traffic through the 32 GB/s link:
        # the array could go faster, the link cannot.
        specs = system_spec_block(SystemConfig(ssd=INTEL_OPTANE, num_ssds=8))
        n_bytes = 30_000_000_000
        summary = make_summary(
            storage_requests=n_bytes // 4096,
            storage_bytes=n_bytes,
            aggregation=1.0,
        )
        block = attribute_summary(summary, specs)
        assert block["bottleneck"] == "pcie"
        pcie = block["resources"]["pcie"]
        assert pcie["utilization"] == pytest.approx(30e9 / 32e9)
        assert pcie["utilization"] > block["resources"]["ssd"]["utilization"]

    def test_training_bound_when_overlapped(self, optane_specs):
        summary = make_summary(
            overlapped=True, aggregation=0.2, training=5.0
        )
        block = attribute_summary(summary, optane_specs)
        assert block["bottleneck"] == "gpu.training"
        assert "training-bound" in block["verdict"]

    def test_sampling_bound(self, optane_specs):
        summary = make_summary(sampling=3.0, aggregation=0.5, training=0.1)
        block = attribute_summary(summary, optane_specs)
        assert block["bottleneck"] == "gpu.sampling"

    def test_fallback_bytes_count_toward_cpu_path(self, optane_specs):
        base = make_summary(cpu_buffer_bytes=1_000_000)
        degraded = make_summary(
            cpu_buffer_bytes=1_000_000, fallback_bytes=2_000_000
        )
        a = attribute_summary(base, optane_specs)
        b = attribute_summary(degraded, optane_specs)
        assert (
            b["resources"]["cpu.buffer"]["achieved"]
            == a["resources"]["cpu.buffer"]["achieved"] + 2e6
        )

    def test_stage_fractions_sum_to_one(self, optane_specs):
        block = attribute_summary(make_summary(), optane_specs)
        assert sum(block["stage_fractions"].values()) == pytest.approx(1.0)


def what_if(summary, specs):
    return attribute_summary(summary, specs)["what_if"]


class TestWhatIf:
    def test_plus_one_ssd_helps_ssd_bound_run(self, optane_specs):
        n = 1_400_000
        summary = make_summary(
            storage_requests=n, storage_bytes=n * 4096, aggregation=1.0
        )
        table = what_if(summary, optane_specs)
        assert [row["scenario"] for row in table] == [
            "+1 SSD",
            "2x window depth",
            "capacity",
        ]
        plus_one = table[0]
        assert plus_one["predicted_aggregation_seconds"] < 1.0
        assert plus_one["delta_seconds"] < 0
        assert plus_one["delta_fraction"] < 0

    def test_capacity_row_names_bottleneck_and_headroom(self, optane_specs):
        n = 1_400_000
        summary = make_summary(
            storage_requests=n, storage_bytes=n * 4096, aggregation=1.0
        )
        rows = what_if(summary, optane_specs)
        row = next(r for r in rows if r["scenario"] == "capacity")
        assert row["bottleneck"] == "ssd"
        assert 0.0 < row["utilization"] <= 1.0 + 1e-9
        # Headroom scales inversely with utilization: max sustainable
        # req/s is the achieved rate divided by the binding utilization.
        assert row["max_sustainable_req_s"] == pytest.approx(
            row["achieved_req_s"] / row["utilization"]
        )
        assert row["max_sustainable_req_s"] >= row["achieved_req_s"]
        assert row["delta_seconds"] == 0.0

    def test_empty_table_for_idle_run(self, optane_specs):
        summary = make_summary(aggregation=0.0)
        assert what_if(summary, optane_specs) == []

    def test_deeper_window_amortizes_fixed_phases(self, optane_specs):
        # Small batches per iteration: T_init/T_term are a visible share,
        # so merging two iterations per kernel strictly helps.
        summary = make_summary(
            iterations=1000,
            storage_requests=32_000,
            storage_bytes=32_000 * 4096,
            aggregation=1.0,
        )
        table = what_if(summary, optane_specs)
        deeper = table[1]
        assert deeper["scenario"] == "2x window depth"
        assert deeper["predicted_aggregation_seconds"] < 1.0

    #: Export ``loader`` -> the scenarios a 2-SSD run of it emits: only the
    #: rows a run of the driver can check (conform's observatory-what-if
    #: bands), plus the capacity read-out.
    EMITTED = {
        "GIDS": [
            "+1 SSD", "2x window depth", "capacity",
            "degraded capacity (1 SSD down)",
        ],
        "GIDS-fleet": ["+1 SSD", "capacity"],
        "GIDS-fullgraph": ["+1 SSD", "capacity"],
        "GIDS-serve": ["capacity"],
        "BaM": ["capacity"],
        "DGL-mmap": ["capacity"],
    }

    @pytest.mark.parametrize("loader", sorted(EMITTED))
    def test_each_driver_emits_only_the_rows_a_run_checks(self, loader):
        specs = system_spec_block(SystemConfig(ssd=INTEL_OPTANE, num_ssds=2))
        n = 1_400_000
        summary = make_summary(
            loader=loader, storage_requests=n, storage_bytes=n * 4096
        )
        table = what_if(summary, specs)
        assert [row["scenario"] for row in table] == self.EMITTED[loader]
        # A row a driver keeps is the same prediction whichever driver ran.
        gids = {r["scenario"]: r for r in what_if(
            make_summary(storage_requests=n, storage_bytes=n * 4096), specs
        )}
        for row in table:
            assert row == gids[row["scenario"]]


class TestValidateSummary:
    def test_rejects_non_dict(self, optane_specs):
        with pytest.raises(ObservatoryError):
            attribute_summary([1, 2], optane_specs)

    def test_rejects_missing_schema_version(self, optane_specs):
        summary = make_summary()
        del summary["schema_version"]
        with pytest.raises(ObservatoryError, match="schema_version"):
            attribute_summary(summary, optane_specs)

    def test_rejects_newer_schema(self, optane_specs):
        summary = make_summary()
        summary["schema_version"] = EXPORT_SCHEMA_VERSION + 1
        with pytest.raises(ObservatoryError, match="newer"):
            attribute_summary(summary, optane_specs)

    def test_rejects_missing_blocks(self, optane_specs):
        summary = make_summary()
        del summary["counters"]
        with pytest.raises(ObservatoryError, match="counters"):
            attribute_summary(summary, optane_specs)

    def test_rejects_incomplete_specs(self):
        with pytest.raises(ObservatoryError, match="missing keys"):
            attribute_summary(make_summary(), {"ssd": "x"})


class TestExportIntegration:
    def test_real_run_attribution_matches_counters(
        self, small_dataset, small_loader_config
    ):
        system = SystemConfig(ssd=INTEL_OPTANE, num_ssds=1)
        loader = GIDSDataLoader(
            small_dataset, system, small_loader_config,
            batch_size=128, fanouts=(5, 5), seed=1,
        )
        report = loader.run(8, warmup=2)
        summary = report_to_dict(report, system=system)
        assert summary["schema_version"] == EXPORT_SCHEMA_VERSION
        block = summary["attribution"]
        counters = report.counters
        agg = report.stage_totals.aggregation
        res = block["resources"]
        assert res["ssd"]["achieved"] == pytest.approx(
            counters.storage_requests / agg
        )
        assert res["pcie"]["achieved"] == pytest.approx(
            counters.ingress_bytes / agg
        )
        assert res["gpu.hbm"]["achieved"] == pytest.approx(
            counters.gpu_cache_bytes / agg
        )
        assert res["ssd"]["peak"] == system.ssd.peak_iops * system.num_ssds
        assert res["pcie"]["peak"] == system.pcie.bandwidth_bytes
        # The export stays strict JSON.
        json.dumps(summary, allow_nan=False)

    def test_attribution_block_absent_without_system(self, small_dataset):
        report = RunReport("GIDS")
        report.append(
            IterationMetrics(
                times=StageTimes(0.1, 0.2, 0.0, 0.1),
                num_seeds=1, num_input_nodes=10, num_sampled=10,
                num_edges=20, counters=TransferCounters(),
            )
        )
        summary = report_to_dict(report)
        assert summary["attribution"] is None
        assert summary["alerts"] is None

    def test_alerts_block_passthrough(self):
        report = RunReport("GIDS")
        report.append(
            IterationMetrics(
                times=StageTimes(0.1, 0.2, 0.0, 0.1),
                num_seeds=1, num_input_nodes=10, num_sampled=10,
                num_edges=20, counters=TransferCounters(),
            )
        )
        block = {"rules": 1, "fired": [], "missing": [], "ok": True}
        assert report_to_dict(report, alerts=block)["alerts"] == block


class TestRegression:
    def test_identical_reports_are_neutral(self):
        result = compare_summaries(make_summary(), make_summary())
        assert result.verdict == "neutral"
        assert result.exit_code == 0
        assert not result.drifting

    def test_synthetic_slowdown_is_a_regression(self):
        slow = make_summary()
        for stage in slow["stage_seconds"]:
            slow["stage_seconds"][stage] *= 1.5
        slow["e2e_seconds"] *= 1.5
        slow["seconds_per_iteration"] *= 1.5
        result = compare_summaries(make_summary(), slow)
        assert result.verdict == "regression"
        assert result.exit_code == REGRESSION_EXIT_CODE
        regressed = {
            d.metric for d in result.deltas if d.verdict == "regression"
        }
        assert "e2e_seconds" in regressed

    def test_speedup_is_an_improvement(self):
        fast = make_summary()
        fast["e2e_seconds"] *= 0.5
        result = compare_summaries(make_summary(), fast)
        assert result.verdict == "improvement"
        assert result.exit_code == 0

    def test_small_drift_stays_neutral_but_is_reported(self):
        drift = make_summary()
        drift["e2e_seconds"] *= 1.01
        result = compare_summaries(make_summary(), drift, threshold=0.05)
        assert result.verdict == "neutral"
        assert "e2e_seconds" in result.drifting

    def test_cache_hit_ratio_drop_is_a_regression(self):
        worse = make_summary(gpu_cache_hit_ratio=0.2)
        result = compare_summaries(
            make_summary(gpu_cache_hit_ratio=0.5), worse
        )
        assert result.verdict == "regression"

    def test_loader_mismatch_rejected(self):
        with pytest.raises(ObservatoryError, match="loaders"):
            compare_summaries(make_summary(), make_summary(loader="BaM"))

    def test_iteration_mismatch_rejected(self):
        with pytest.raises(ObservatoryError, match="iteration counts"):
            compare_summaries(make_summary(), make_summary(iterations=20))


def make_report(*, aggregation=0.2, hit_ratio_hits=0) -> RunReport:
    """A 3-iteration report with controllable aggregation time."""
    report = RunReport("GIDS")
    for _ in range(3):
        counters = TransferCounters(
            storage_requests=10,
            storage_bytes=40960,
            gpu_cache_hits=hit_ratio_hits,
        )
        report.append(
            IterationMetrics(
                times=StageTimes(0.1, aggregation, 0.0, 0.05),
                num_seeds=4, num_input_nodes=100, num_sampled=100,
                num_edges=200, counters=counters,
            )
        )
    return report


class TestAlertRules:
    def test_bad_op_rejected(self):
        with pytest.raises(ObservatoryError, match="unknown op"):
            AlertRule("r", "report.e2e_seconds", "~", 1.0)

    def test_bad_severity_rejected(self):
        with pytest.raises(ObservatoryError, match="severity"):
            AlertRule("r", "report.e2e_seconds", "<", 1.0, severity="loud")

    def test_bad_namespace_rejected(self):
        with pytest.raises(ObservatoryError, match="must start with"):
            AlertRule("r", "bogus.thing", "<", 1.0)

    def test_non_finite_threshold_rejected(self):
        with pytest.raises(ObservatoryError, match="finite"):
            AlertRule("r", "report.e2e_seconds", "<", float("nan"))

    def test_from_dict_rejects_unknown_and_missing_fields(self):
        with pytest.raises(ObservatoryError, match="unknown fields"):
            AlertRule.from_dict(
                {"name": "r", "metric": "report.e2e_seconds", "op": "<",
                 "threshold": 1, "bogus": True}
            )
        with pytest.raises(ObservatoryError, match="missing fields"):
            AlertRule.from_dict({"name": "r"})

    def test_load_rules_file(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(
            json.dumps(
                {
                    "rules": [
                        {"name": "a", "metric": "report.e2e_seconds",
                         "op": ">", "threshold": 10},
                    ]
                }
            )
        )
        rules = load_alert_rules(str(path))
        assert [r.name for r in rules] == ["a"]

    def test_load_rules_rejects_duplicates(self, tmp_path):
        path = tmp_path / "rules.json"
        rule = {"name": "a", "metric": "report.e2e_seconds", "op": ">",
                "threshold": 10}
        path.write_text(json.dumps([rule, rule]))
        with pytest.raises(ObservatoryError, match="duplicate"):
            load_alert_rules(str(path))

    def test_load_rules_rejects_bad_json(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text("{nope")
        with pytest.raises(ObservatoryError, match="not valid JSON"):
            load_alert_rules(str(path))


class TestSLOMonitor:
    def test_report_rule_fires(self):
        monitor = SLOMonitor(
            [AlertRule("cold", "report.gpu_cache_hit_ratio", "<", 0.9)]
        )
        block = monitor.evaluate(make_report())
        assert not block["ok"]
        assert block["fired"][0]["name"] == "cold"
        assert block["fired"][0]["value"] == pytest.approx(0.0)

    def test_quiet_run_is_ok(self):
        monitor = SLOMonitor(
            [AlertRule("slow", "report.e2e_seconds", ">", 100.0)]
        )
        block = monitor.evaluate(make_report())
        assert block["ok"] and block["fired"] == []
        assert block["rules"] == 1

    def test_missing_metric_is_reported_not_fired(self):
        monitor = SLOMonitor(
            [AlertRule("m", "metrics.no.such.metric.p99", ">", 1.0)]
        )
        block = monitor.evaluate(make_report())
        assert block["ok"]
        assert block["missing"] == ["metrics.no.such.metric.p99"]

    def test_registry_rule_reads_histogram_stat(self):
        tracer = Tracer(enabled=True)
        hist = tracer.metrics.histogram("ssd.read_s")
        for value in (0.001, 0.002, 0.5):
            hist.observe(value)
        monitor = SLOMonitor(
            [AlertRule("tail", "metrics.ssd.read_s.p99", ">", 0.1)],
            tracer=tracer,
        )
        block = monitor.evaluate(make_report())
        assert block["fired"][0]["name"] == "tail"

    def test_empty_histogram_does_not_fire(self):
        tracer = Tracer(enabled=True)
        tracer.metrics.histogram("ssd.read_s")
        monitor = SLOMonitor(
            [AlertRule("tail", "metrics.ssd.read_s.p99", ">", 0.0)],
            tracer=tracer,
        )
        block = monitor.evaluate(make_report())
        # Empty-percentile contract: p99 of an empty histogram is None,
        # which reads as "metric absent", not as zero.
        assert block["fired"] == []
        assert block["missing"] == ["metrics.ssd.read_s.p99"]

    def test_iteration_rule_lists_offenders_and_fires_instants(self):
        tracer = Tracer(enabled=True)
        tracer.advance(1.05)  # clock sits at the end of the traced run
        monitor = SLOMonitor(
            [AlertRule("slow-agg", "iteration.aggregation", ">", 0.1,
                       severity="critical")],
            tracer=tracer,
        )
        block = monitor.evaluate(make_report(aggregation=0.2))
        fired = block["fired"][0]
        assert fired["count"] == 3
        assert fired["iterations"] == [0, 1, 2]
        instants = [
            i for i in tracer.instants if i.track == ALERTS_TRACK
        ]
        assert len(instants) == 3
        assert instants[0].name == "slo.slow-agg"
        # Instants land inside the traced window, in iteration order.
        assert 0.0 <= instants[0].at_s <= tracer.clock_s
        assert instants[0].at_s < instants[1].at_s < instants[2].at_s

    def test_report_rule_fires_single_instant(self):
        tracer = Tracer(enabled=True)
        monitor = SLOMonitor(
            [AlertRule("cold", "report.gpu_cache_hit_ratio", "<", 0.9)],
            tracer=tracer,
        )
        monitor.evaluate(make_report())
        assert len(tracer.instants) == 1
        assert tracer.instants[0].args["severity"] == "warn"
