"""CLI exit-code contract for the observatory subcommands.

``analyze`` / ``compare`` plus the ``--json`` flags on
``ssd-model`` and ``trace`` and the ``--alerts`` hook on ``run``.  Exit
codes: 0 ok, 2 malformed input / usage, 3 regression verdict.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main


def summary_dict(
    *, loader="GIDS", iterations=10, e2e=1.16, aggregation=1.0
) -> dict:
    """A minimal, valid schema-v6 report export (single dict form)."""
    return {
        "schema_version": 6,
        "loader": loader,
        "iterations": iterations,
        "overlapped": False,
        "e2e_seconds": e2e,
        "seconds_per_iteration": e2e / iterations,
        "stage_seconds": {
            "sampling": 0.01,
            "aggregation": aggregation,
            "transfer": 0.0,
            "training": 0.05,
        },
        "counters": {
            "storage_requests": 1_400_000,
            "storage_bytes": 1_400_000 * 4096,
            "cpu_buffer_requests": 0,
            "cpu_buffer_bytes": 0,
            "gpu_cache_hits": 0,
            "gpu_cache_bytes": 0,
            "page_faults": 0,
            "page_cache_hits": 0,
        },
        "faults": {"fallback_bytes": 0},
        "gpu_cache_hit_ratio": 0.5,
        "redirect_fraction": 0.9,
        "total_input_nodes": 1000,
        "attribution": None,
        "alerts": None,
    }


def write_report(tmp_path, name, summary) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(summary))
    return str(path)


def rejected(capsys, argv) -> str:
    """``repro <argv>`` exits 2 through ``main()``'s one handler; returns
    its one ``error:`` line."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


class TestAnalyzeExitCodes:
    def test_valid_report_exits_zero(self, tmp_path, capsys):
        path = write_report(tmp_path, "r.json", summary_dict())
        assert main(["analyze", path]) == 0
        out = capsys.readouterr().out
        assert "bottleneck: ssd" in out

    def test_json_output_parses(self, tmp_path, capsys):
        path = write_report(tmp_path, "r.json", summary_dict())
        assert main(["analyze", path, "--json"]) == 0
        block = json.loads(capsys.readouterr().out)
        assert block["bottleneck"] == "ssd"
        assert set(block["resources"]) == {
            "ssd", "pcie", "cpu.buffer", "gpu.hbm", "gpu.training"
        }

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert "cannot read report" in rejected(
            capsys, ["analyze", str(tmp_path / "nope.json")]
        )

    def test_malformed_json_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert "cannot read report" in rejected(
            capsys, ["analyze", str(path)]
        )

    def test_schema_version_mismatch_exits_two(self, tmp_path, capsys):
        summary = summary_dict()
        summary["schema_version"] = 99
        path = write_report(tmp_path, "future.json", summary)
        assert "newer" in rejected(capsys, ["analyze", path])

    def test_multi_loader_export_needs_loader_flag(self, tmp_path, capsys):
        payload = [summary_dict(), summary_dict(loader="BaM")]
        path = write_report(tmp_path, "all.json", payload)
        assert "--loader" in rejected(capsys, ["analyze", path])
        assert main(["analyze", path, "--loader", "BaM"]) == 0


class TestCompareExitCodes:
    def test_identical_reports_exit_zero(self, tmp_path, capsys):
        a = write_report(tmp_path, "a.json", summary_dict())
        b = write_report(tmp_path, "b.json", summary_dict())
        assert main(["compare", a, b]) == 0
        assert "verdict: neutral" in capsys.readouterr().out

    def test_synthetic_slowdown_exits_three(self, tmp_path, capsys):
        slow = summary_dict(e2e=2.0)
        slow["stage_seconds"]["aggregation"] = 1.8
        slow["seconds_per_iteration"] = 0.2
        a = write_report(tmp_path, "a.json", summary_dict())
        b = write_report(tmp_path, "slow.json", slow)
        assert main(["compare", a, b]) == 3
        assert "verdict: regression" in capsys.readouterr().out

    def test_json_output_carries_verdict(self, tmp_path, capsys):
        a = write_report(tmp_path, "a.json", summary_dict())
        b = write_report(tmp_path, "b.json", summary_dict(e2e=0.3))
        assert main(["compare", a, b, "--json"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["verdict"] == "improvement"
        assert result["mode"] == "baseline"

    def test_malformed_candidate_exits_two(self, tmp_path, capsys):
        a = write_report(tmp_path, "a.json", summary_dict())
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2")
        assert str(bad) in rejected(capsys, ["compare", a, str(bad)])

    def test_wrong_report_count_exits_two(self, tmp_path, capsys):
        a = write_report(tmp_path, "a.json", summary_dict())
        assert main(["compare", a]) == 2
        assert "BASELINE and CANDIDATE" in capsys.readouterr().err

    def test_loader_mismatch_exits_two(self, tmp_path, capsys):
        a = write_report(tmp_path, "a.json", summary_dict())
        b = write_report(tmp_path, "b.json", summary_dict(loader="BaM"))
        assert main(["compare", a, b]) == 2
        assert "loaders" in capsys.readouterr().err

    @pytest.mark.parametrize("threshold", ["-0.1", "nan", "inf", "-inf"])
    def test_non_finite_or_negative_threshold_exits_two(
        self, tmp_path, capsys, threshold
    ):
        # A NaN threshold would turn every drift into a regression, and an
        # infinite one would leave the gate unable to fail.
        a = write_report(tmp_path, "a.json", summary_dict())
        b = write_report(tmp_path, "b.json", summary_dict(e2e=1.16 * 1.01))
        err = rejected(capsys, ["compare", a, b, f"--threshold={threshold}"])
        assert "threshold" in err


class TestJsonFlags:
    def test_ssd_model_json(self, capsys):
        assert main(["ssd-model", "--num-ssds", "2", "--json"]) == 0
        block = json.loads(capsys.readouterr().out)
        assert block["num_ssds"] == 2
        assert block["required_overlapping"] > 0
        assert {"overlapping", "iops", "bandwidth_bytes"} <= set(
            block["points"][0]
        )

    def test_trace_json(self, tmp_path, capsys):
        trace = str(tmp_path / "trace.json")
        assert main([
            "run", "--dataset", "IGB-tiny", "--scale", "0.05",
            "--loader", "gids", "--iterations", "5", "--trace", trace,
        ]) == 0
        capsys.readouterr()
        assert main(["trace", trace, "--json"]) == 0
        block = json.loads(capsys.readouterr().out)
        assert block["span_count"] > 0
        assert "stage.aggregation" in block["tracks"]

    def test_trace_json_malformed_exits_two(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps({"no": "events"}))
        assert "cannot read trace" in rejected(
            capsys, ["trace", str(path), "--json"]
        )


class TestRunAlerts:
    def test_bad_rules_file_exits_two_before_running(self, tmp_path, capsys):
        rules = tmp_path / "rules.json"
        rules.write_text("{not json")
        assert str(rules) in rejected(capsys, [
            "run", "--dataset", "IGB-tiny", "--scale", "0.05",
            "--loader", "gids", "--iterations", "5",
            "--alerts", str(rules),
        ])

    def test_alerts_land_in_json_export(self, tmp_path, capsys):
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps([
            {"name": "always", "metric": "report.e2e_seconds",
             "op": ">", "threshold": 0.0, "severity": "critical"},
        ]))
        assert main([
            "run", "--dataset", "IGB-tiny", "--scale", "0.05",
            "--loader", "gids", "--iterations", "5",
            "--format", "json", "--alerts", str(rules),
        ]) == 0
        captured = capsys.readouterr()
        assert "alert [critical]" in captured.err
        payload = json.loads(captured.out)
        block = payload[0]["alerts"]
        assert not block["ok"]
        assert block["fired"][0]["name"] == "always"


class TestCommittedBaselineFixture:
    """The regression-gate baseline shipped under tests/data/."""

    FIXTURE = "tests/data/baseline_report.json"

    def test_fixture_is_a_valid_v6_report(self):
        from repro.observatory import validate_summary

        with open(self.FIXTURE, encoding="utf-8") as handle:
            summary = json.load(handle)
        validate_summary(summary)
        assert summary["schema_version"] == 6
        assert summary["loader"] == "GIDS"
        assert summary["attribution"]["specs"] is not None

    def test_fixture_compares_neutral_against_itself(self, capsys):
        assert main(["compare", self.FIXTURE, self.FIXTURE]) == 0
        assert "verdict: neutral" in capsys.readouterr().out

    def test_fixture_gates_synthetic_slowdown(self, tmp_path, capsys):
        with open(self.FIXTURE, encoding="utf-8") as handle:
            slow = json.load(handle)
        slow["e2e_seconds"] *= 1.5
        slow["seconds_per_iteration"] *= 1.5
        for stage in slow["stage_seconds"]:
            slow["stage_seconds"][stage] *= 1.5
        path = write_report(tmp_path, "slow.json", slow)
        assert main(["compare", self.FIXTURE, path]) == 3
        assert "verdict: regression" in capsys.readouterr().out

    def test_fixture_analyzes_with_embedded_specs(self, capsys):
        assert main(["analyze", self.FIXTURE]) == 0
        captured = capsys.readouterr()
        assert "no embedded specs" not in captured.err
        assert "bottleneck:" in captured.out


class TestFaultsValidateExitCodes:
    """`faults validate` rides the same 0/2 contract as the new commands."""

    def test_good_plan_exits_zero(self, tmp_path, capsys):
        from repro.faults import FaultPlan

        path = tmp_path / "plan.json"
        path.write_text(FaultPlan(read_failure_rate=0.01).to_json())
        assert main(["faults", "validate", str(path)]) == 0
        assert "plan is valid" in capsys.readouterr().out

    def test_malformed_plan_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert str(path) in rejected(capsys, ["faults", "validate", str(path)])


class TestEndToEndRegressionGate:
    def test_identical_seed_reruns_compare_neutral(self, tmp_path, capsys):
        # Acceptance criterion: rerunning the same deterministic workload
        # yields bit-identical reports, and `compare` exits 0 on them.
        argv = [
            "run", "--dataset", "IGB-tiny", "--scale", "0.05",
            "--loader", "gids", "--iterations", "5", "--format", "json",
        ]
        paths = []
        for name in ("first.json", "second.json"):
            assert main(argv) == 0
            path = tmp_path / name
            path.write_text(capsys.readouterr().out)
            paths.append(str(path))
        assert json.loads(open(paths[0]).read()) == json.loads(
            open(paths[1]).read()
        )
        assert main(["compare", paths[0], paths[1]]) == 0
        assert "verdict: neutral" in capsys.readouterr().out

    def test_analyze_runs_on_real_export(self, tmp_path, capsys):
        assert main([
            "run", "--dataset", "IGB-tiny", "--scale", "0.05",
            "--loader", "gids", "--iterations", "5", "--format", "json",
        ]) == 0
        path = tmp_path / "report.json"
        path.write_text(capsys.readouterr().out)
        assert main(["analyze", str(path)]) == 0
        captured = capsys.readouterr()
        # Specs travel inside the export, so no fallback note is needed.
        assert "no embedded specs" not in captured.err
        assert "bottleneck:" in captured.out
