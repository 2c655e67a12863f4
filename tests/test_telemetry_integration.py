"""Loader-level and CLI integration tests for the telemetry subsystem.

The central invariant is exact agreement: stage spans are emitted from the
same floats that populate :class:`StageTimes`, so trace totals must equal
report sums with ``==``, never ``approx`` — on healthy runs, fault-injected
runs and kill/resume runs alike.
"""

import json

import pytest

from repro.cli import main
from repro.config import LoaderConfig, SystemConfig
from repro.core import GIDSDataLoader
from repro.faults import FaultPlan
from repro.pipeline.export import EXPORT_SCHEMA_VERSION
from repro.telemetry import Tracer, validate_chrome_trace


def make_loader(dataset, *, tracer=None, fault_plan=None, seed=0):
    config = LoaderConfig(
        gpu_cache_bytes=dataset.feature_data_bytes * 0.05,
        cpu_buffer_fraction=0.10,
        window_depth=4,
    )
    return GIDSDataLoader(
        dataset,
        SystemConfig(),
        config,
        batch_size=64,
        seed=seed,
        tracer=tracer,
        fault_plan=fault_plan,
    )


def stage_sums(report):
    return {
        "sampling": sum(m.times.sampling for m in report.iterations),
        "aggregation": sum(m.times.aggregation for m in report.iterations),
        "transfer": sum(m.times.transfer for m in report.iterations),
        "training": sum(m.times.training for m in report.iterations),
    }


class TestStageTotalAgreement:
    def test_healthy_run_exact(self, small_dataset):
        tracer = Tracer(enabled=True)
        loader = make_loader(small_dataset, tracer=tracer)
        report = loader.run(num_iterations=12, warmup=2)
        totals = tracer.stage_totals()
        # Exact float equality, not approx: spans reuse the report's floats.
        assert totals == stage_sums(report)
        assert tracer.iteration == 12

    def test_fault_injected_run_exact(self, small_dataset):
        tracer = Tracer(enabled=True, detail="request")
        plan = FaultPlan(
            seed=7, read_failure_rate=0.2, tail_latency_rate=0.2
        )
        loader = make_loader(small_dataset, tracer=tracer, fault_plan=plan)
        report = loader.run(num_iterations=10, warmup=2)
        assert report.counters.injected_faults > 0
        assert tracer.stage_totals() == stage_sums(report)
        # The injector's stats land in the registry as a measured-run
        # delta, so they agree with the report's fault counters.
        snap = tracer.metrics.to_dict()
        assert snap["faults.injected_failures"]["value"] == (
            report.counters.injected_faults
        )

    def test_export_block_matches_report(self, small_dataset):
        tracer = Tracer(enabled=True)
        loader = make_loader(small_dataset, tracer=tracer)
        report = loader.run(num_iterations=8, warmup=0)
        block = tracer.export_block()
        sums = stage_sums(report)
        for track, value in block["track_seconds"].items():
            if track.startswith("stage."):
                assert value == sums[track[len("stage."):]]
        assert block["span_count"] == len(tracer.spans)

    def test_warmup_excluded_from_trace(self, small_dataset):
        tracer = Tracer(enabled=True)
        loader = make_loader(small_dataset, tracer=tracer)
        report = loader.run(num_iterations=6, warmup=4)
        # reset() after warmup: measured trace covers measured report only.
        assert len(report.iterations) == 6
        assert tracer.iteration == 6
        assert tracer.stage_totals() == stage_sums(report)


class TestRequestDetail:
    def test_resource_spans_present(self, small_dataset):
        tracer = Tracer(enabled=True, detail="request")
        loader = make_loader(small_dataset, tracer=tracer)
        loader.run(num_iterations=8, warmup=0)
        tracks = {s.track for s in tracer.spans}
        assert "ssd" in tracks
        assert "pcie" in tracks
        assert "gpu.cache" in tracks
        names = {s.name for s in tracer.spans}
        assert {"storage_batch", "ingress", "hbm_read"} <= names

    def test_window_instants_present(self, small_dataset):
        tracer = Tracer(enabled=True, detail="request")
        loader = make_loader(small_dataset, tracer=tracer)
        loader.run(num_iterations=8, warmup=0)
        kinds = {i.name for i in tracer.instants}
        assert "window.pin" in kinds
        assert "window.pop" in kinds

    def test_stage_detail_omits_resource_spans(self, small_dataset):
        tracer = Tracer(enabled=True, detail="stage")
        loader = make_loader(small_dataset, tracer=tracer)
        loader.run(num_iterations=8, warmup=0)
        tracks = {s.track for s in tracer.spans}
        assert tracks <= {
            "stage.sampling", "stage.aggregation", "stage.transfer",
            "stage.training",
        }
        assert tracer.instants == []

    def test_fault_resolution_span(self, small_dataset):
        tracer = Tracer(enabled=True, detail="request")
        plan = FaultPlan(seed=3, read_failure_rate=0.4)
        loader = make_loader(small_dataset, tracer=tracer, fault_plan=plan)
        loader.run(num_iterations=10, warmup=0)
        fault_spans = [s for s in tracer.spans if s.track == "faults"]
        assert fault_spans
        assert all(s.name == "fault_resolution" for s in fault_spans)

    def test_counters_published_to_metrics(self, small_dataset):
        tracer = Tracer(enabled=True)
        loader = make_loader(small_dataset, tracer=tracer)
        report = loader.run(num_iterations=8, warmup=0)
        snap = tracer.metrics.to_dict()
        assert snap["transfer.storage_requests"]["value"] == (
            report.counters.storage_requests
        )
        assert "iteration.total_s" in snap
        assert snap["iteration.total_s"]["kind"] == "histogram"


class TestTracingIsObservationOnly:
    def test_traced_run_identical_to_untraced(self, small_dataset):
        plain = make_loader(small_dataset, seed=5)
        traced = make_loader(
            small_dataset, seed=5, tracer=Tracer(enabled=True, detail="request")
        )
        r1 = plain.run(num_iterations=10, warmup=2)
        r2 = traced.run(num_iterations=10, warmup=2)
        assert [m.times.total for m in r1.iterations] == [
            m.times.total for m in r2.iterations
        ]
        assert r1.counters == r2.counters


class TestCheckpointRoundTrip:
    def step(self, loader, n):
        done = 0
        while done < n:
            done += len(loader.next_training_group(n - done))

    def test_loader_round_trip_restores_trace(self, small_dataset):
        tracer = Tracer(enabled=True, detail="request")
        loader = make_loader(small_dataset, tracer=tracer)
        self.step(loader, 6)
        state = loader.state_dict()

        restored_tracer = Tracer(enabled=True, detail="request")
        restored = make_loader(small_dataset, tracer=restored_tracer)
        restored.load_state_dict(state)
        assert restored_tracer.spans == tracer.spans
        assert restored_tracer.instants == tracer.instants
        assert restored_tracer.clock_s == tracer.clock_s
        assert restored_tracer.iteration == tracer.iteration

    def test_kill_resume_trace_is_seamless(self, small_dataset):
        """A resumed trace is byte-identical to an uninterrupted one."""
        straight = Tracer(enabled=True)
        loader = make_loader(small_dataset, tracer=straight)
        self.step(loader, 4)
        state = loader.state_dict()
        self.step(loader, 8)

        resumed = Tracer(enabled=True)
        survivor = make_loader(small_dataset, tracer=resumed)
        survivor.load_state_dict(state)
        self.step(survivor, 8)

        assert resumed.spans == straight.spans
        assert resumed.clock_s == straight.clock_s
        assert resumed.stage_totals() == straight.stage_totals()

    def test_untraced_checkpoint_into_traced_loader(self, small_dataset):
        loader = make_loader(small_dataset)
        self.step(loader, 4)
        state = loader.state_dict()
        assert state["tracer"] is None

        tracer = Tracer(enabled=True)
        traced = make_loader(small_dataset, tracer=tracer)
        traced.load_state_dict(state)  # lenient: tracer left untouched
        assert tracer.spans == []

    def test_traced_checkpoint_into_untraced_loader(self, small_dataset):
        tracer = Tracer(enabled=True)
        loader = make_loader(small_dataset, tracer=tracer)
        self.step(loader, 4)
        state = loader.state_dict()
        assert state["tracer"] is not None

        plain = make_loader(small_dataset)
        plain.load_state_dict(state)  # lenient: trace state dropped
        assert not plain.tracer.enabled and plain.tracer.spans == []


class TestCLITracing:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0
        assert capsys.readouterr().out.startswith("repro ")

    def test_trace_requires_instrumented_loader(self, capsys):
        code = main(
            [
                "run", "--dataset", "IGB-tiny", "--scale", "0.02",
                "--loader", "mmap", "--iterations", "3",
                "--trace", "out.json",
            ]
        )
        assert code == 2
        assert "--loader gids" in capsys.readouterr().err

    def test_run_trace_and_json_telemetry(self, tmp_path, capsys):
        trace_path = tmp_path / "run.trace.json"
        code = main(
            [
                "run", "--dataset", "IGB-tiny", "--scale", "0.02",
                "--loader", "gids", "--iterations", "5",
                "--format", "json", "--trace", str(trace_path),
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)[0]
        assert payload["schema_version"] == EXPORT_SCHEMA_VERSION
        assert payload["repro_version"]
        telemetry = payload["telemetry"]
        for track, value in telemetry["track_seconds"].items():
            if track.startswith("stage."):
                stage = track[len("stage."):]
                assert value == pytest.approx(payload["stage_seconds"][stage])

        doc = json.loads(trace_path.read_text())
        validate_chrome_trace(doc)
        assert doc["otherData"]["detail"] == "stage"

    def test_train_trace_then_render(self, tmp_path, capsys):
        trace_path = tmp_path / "train.trace.json"
        code = main(
            [
                "train", "--dataset", "IGB-tiny", "--scale", "0.02",
                "--iterations", "8", "--classes", "3",
                "--hidden-dim", "8", "--batch-size", "32",
                "--trace", str(trace_path), "--trace-detail", "request",
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert main(["trace", str(trace_path), "--width", "60"]) == 0
        out = capsys.readouterr().out
        assert "stage.training" in out

    def test_trace_subcommand_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"traceEvents": [{"name": "x"}]}')
        for path in (bad, tmp_path / "missing.json"):
            assert main(["trace", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
