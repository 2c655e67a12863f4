"""Unit tests for the telemetry subsystem (tracer, metrics, exporters)."""

import json
import math
import os
import pickle
import subprocess
import sys
import tracemalloc

import pytest

import repro
from repro.errors import TelemetryError
from repro.faults.injector import FaultStats
from repro.sim.counters import TransferCounters
from repro.telemetry import (
    DETAIL_LEVELS,
    STAGE_TRACKS,
    TRACKS,
    Counter,
    Gauge,
    Histogram,
    Instant,
    MetricsRegistry,
    Span,
    Tracer,
    render_trace,
    summarize,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)


class TestSpan:
    def test_end_time(self):
        span = Span("a", "ssd", 1.0, 0.5)
        assert span.end_s == pytest.approx(1.5)

    def test_round_trip(self):
        span = Span("a", "ssd", 1.0, 0.5, {"n": 3})
        assert Span.from_dict(span.to_dict()) == span

    def test_instant_round_trip(self):
        inst = Instant("evict", "gpu.cache", 2.0, {"page": 7})
        assert Instant.from_dict(inst.to_dict()) == inst


class TestTracerValidation:
    def test_unknown_detail_rejected(self):
        with pytest.raises(TelemetryError):
            Tracer(detail="verbose")

    def test_non_positive_cap_rejected(self):
        with pytest.raises(TelemetryError):
            Tracer(max_events=0)

    def test_negative_duration_rejected(self):
        tracer = Tracer()
        with pytest.raises(TelemetryError):
            tracer.record("x", "ssd", start_s=0.0, duration_s=-1.0)

    def test_non_finite_time_rejected(self):
        tracer = Tracer()
        with pytest.raises(TelemetryError):
            tracer.record("x", "ssd", start_s=math.nan, duration_s=1.0)
        with pytest.raises(TelemetryError):
            tracer.instant("x", "ssd", at_s=math.inf)

    def test_clock_only_advances(self):
        tracer = Tracer()
        with pytest.raises(TelemetryError):
            tracer.advance(-0.1)


class TestDisabledTracer:
    def test_records_nothing(self):
        tracer = Tracer(enabled=False)
        tracer.record("x", "ssd", start_s=0.0, duration_s=1.0)
        tracer.instant("y", "ssd")
        with tracer.span("z", "pcie"):
            pass
        assert tracer.spans == []
        assert tracer.instants == []

    def test_request_detail_stays_off(self):
        tracer = Tracer(enabled=False, detail="request")
        assert not tracer.want_request_detail


class TestRecording:
    def test_instant_defaults_to_clock(self):
        tracer = Tracer()
        tracer.advance(2.5)
        tracer.instant("tick", "window")
        assert tracer.instants[0].at_s == pytest.approx(2.5)

    def test_span_context_manager_uses_clock(self):
        tracer = Tracer()
        with tracer.span("outer", "ssd"):
            tracer.advance(1.0)
        (span,) = tracer.spans
        assert span.duration_s == pytest.approx(1.0)

    def test_span_extends_to_children(self):
        tracer = Tracer()
        with tracer.span("outer", "ssd"):
            tracer.record("child", "pcie", start_s=0.0, duration_s=3.0)
        outer = tracer.spans[-1]
        assert outer.name == "outer"
        assert outer.duration_s == pytest.approx(3.0)

    def test_span_explicit_end(self):
        tracer = Tracer()
        with tracer.span("s", "ssd") as handle:
            handle.end(4.0)
        assert tracer.spans[0].duration_s == pytest.approx(4.0)

    def test_span_end_before_start_rejected(self):
        tracer = Tracer()
        tracer.clock_s = 5.0
        with pytest.raises(TelemetryError):
            with tracer.span("s", "ssd") as handle:
                handle.end(1.0)

    def test_detail_levels_exposed(self):
        assert DETAIL_LEVELS == ("stage", "request")
        assert set(STAGE_TRACKS) <= set(TRACKS)


class TestTruncation:
    def test_cap_sets_flag_instead_of_failing(self):
        tracer = Tracer(max_events=3)
        for i in range(5):
            tracer.record("s", "ssd", start_s=float(i), duration_s=1.0)
        assert len(tracer.spans) == 3
        assert tracer.truncated

    def test_truncation_surfaces_in_outputs(self):
        tracer = Tracer(max_events=1)
        tracer.record("s", "ssd", start_s=0.0, duration_s=1.0)
        tracer.instant("i", "ssd")
        assert "truncated" in summarize(tracer)
        assert "truncated" in render_trace(to_chrome_trace(tracer))


class TestAggregation:
    def test_track_totals_canonical_order(self):
        tracer = Tracer()
        tracer.record("a", "pcie", start_s=0.0, duration_s=2.0)
        tracer.record("b", "stage.sampling", start_s=0.0, duration_s=1.0)
        tracer.record("c", "custom.lane", start_s=0.0, duration_s=0.5)
        totals = tracer.track_totals()
        assert list(totals) == ["stage.sampling", "pcie", "custom.lane"]
        assert totals["pcie"] == pytest.approx(2.0)

    def test_stage_totals_cover_all_stages(self):
        tracer = Tracer()
        tracer.record("s", "stage.training", start_s=0.0, duration_s=1.0)
        totals = tracer.stage_totals()
        assert set(totals) == {
            "sampling", "aggregation", "transfer", "training",
        }
        assert totals["training"] == pytest.approx(1.0)
        assert totals["sampling"] == 0.0

    def test_reset_keeps_clock(self):
        tracer = Tracer()
        tracer.advance(3.0)
        tracer.record("s", "ssd", start_s=0.0, duration_s=1.0)
        tracer.metrics.counter("c").inc()
        tracer.reset()
        assert tracer.spans == [] and tracer.instants == []
        assert len(tracer.metrics) == 0
        assert tracer.clock_s == pytest.approx(3.0)


class TestTracerCheckpoint:
    def test_round_trip(self):
        tracer = Tracer(detail="request")
        tracer.advance(1.5)
        tracer.iteration = 7
        tracer.record("s", "ssd", start_s=0.0, duration_s=1.0, n=4)
        tracer.instant("i", "window", page=2)
        tracer.metrics.counter("c").inc(3)
        tracer.metrics.histogram("h").observe(0.01)

        restored = Tracer(detail="request")
        restored.load_state_dict(tracer.state_dict())
        assert restored.spans == tracer.spans
        assert restored.instants == tracer.instants
        assert restored.clock_s == tracer.clock_s
        assert restored.iteration == 7
        assert restored.metrics.to_dict() == tracer.metrics.to_dict()

    def test_detail_mismatch_rejected(self):
        state = Tracer(detail="request").state_dict()
        with pytest.raises(TelemetryError):
            Tracer(detail="stage").load_state_dict(state)

    def test_per_event_dict_snapshot_still_loads(self):
        """Snapshots used to hold ``Span.to_dict()`` per event."""
        tracer = Tracer(detail="request")
        tracer.record("s", "ssd", start_s=0.0, duration_s=1.0, n=4)
        tracer.instant("i", "window", page=2)
        state = tracer.state_dict()
        state["spans"] = [span.to_dict() for span in tracer.spans]
        state["instants"] = [inst.to_dict() for inst in tracer.instants]
        restored = Tracer(detail="request")
        restored.load_state_dict(pickle.loads(pickle.dumps(state)))
        assert restored.spans == tracer.spans
        assert restored.instants == tracer.instants

    def test_snapshot_rows_allocate_a_fraction_of_per_event_dicts(self):
        """A request-detail trace rides in every checkpoint, so what a
        snapshot allocates per event is what a traced, checkpointed run's
        peak memory grows by per iteration."""
        tracer = Tracer(detail="request")
        for k in range(25_000):
            tracer.record(
                "read", "ssd", start_s=k * 1e-3, duration_s=5e-4,
                requests=k, pages=2 * k,
            )
            tracer.instant("cache.evict", "gpu.cache", at_s=k * 1e-3, page=k)

        def allocated(build) -> int:
            tracemalloc.start()
            try:
                held = build()
                size, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            del held
            return size

        rows = allocated(tracer.state_dict)
        dicts = allocated(
            lambda: (
                [span.to_dict() for span in tracer.spans],
                [inst.to_dict() for inst in tracer.instants],
            )
        )
        assert rows < 0.4 * dicts, (rows, dicts)


class TestCounterGauge:
    def test_counter_monotonic(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(TelemetryError):
            counter.inc(-1)

    def test_gauge_rejects_non_finite(self):
        gauge = Gauge("g")
        gauge.set(-2.5)
        assert gauge.value == pytest.approx(-2.5)
        with pytest.raises(TelemetryError):
            gauge.set(math.nan)


class TestHistogram:
    def test_bounds_are_log_spaced(self):
        hist = Histogram("h", lo=1e-3, hi=1.0, buckets_per_decade=1)
        assert hist.bounds[0] == pytest.approx(1e-3)
        assert hist.bounds[1] == pytest.approx(1e-2)

    def test_invalid_layout_rejected(self):
        with pytest.raises(TelemetryError):
            Histogram("h", lo=0.0)
        with pytest.raises(TelemetryError):
            Histogram("h", lo=1.0, hi=0.5)
        with pytest.raises(TelemetryError):
            Histogram("h", buckets_per_decade=0)

    def test_rejects_bad_values(self):
        hist = Histogram("h")
        with pytest.raises(TelemetryError):
            hist.observe(-1.0)
        with pytest.raises(TelemetryError):
            hist.observe(math.inf)

    def test_percentiles_bracket_observations(self):
        hist = Histogram("h", lo=1e-6, hi=10.0)
        for value in (0.001, 0.002, 0.003, 0.004, 0.100):
            hist.observe(value)
        assert hist.count == 5
        assert hist.mean == pytest.approx(0.022)
        # p50 lands in the bucket holding the 3rd smallest sample.
        assert 0.002 <= hist.percentile(50) <= 0.004
        # p99 is clamped to the tracked maximum.
        assert hist.percentile(99) == pytest.approx(0.1)
        with pytest.raises(TelemetryError):
            hist.percentile(0.0)

    def test_empty_histogram_exports_cleanly(self):
        # Empty-percentile contract: no observations means no percentiles —
        # None, not 0.0 (0.0 is indistinguishable from a real all-zero
        # distribution and breaks threshold rules on untouched histograms).
        summary = Histogram("h").to_dict()
        assert summary["count"] == 0
        assert summary["min"] is None and summary["max"] is None
        assert summary["p50"] is None
        assert summary["p95"] is None and summary["p99"] is None

    def test_empty_histogram_percentile_is_none(self):
        hist = Histogram("h")
        assert hist.percentile(50) is None
        assert hist.percentile(99.9) is None
        # Out-of-range p still raises, even when empty.
        with pytest.raises(TelemetryError):
            hist.percentile(0.0)
        hist.observe(1.0)
        assert hist.percentile(50) is not None

    def test_state_round_trip(self):
        hist = Histogram("h")
        hist.observe(0.5)
        hist.observe(2.0)
        restored = Histogram("h")
        restored.load_state_dict(hist.state_dict())
        assert restored.to_dict() == hist.to_dict()

    def test_layout_mismatch_rejected(self):
        state = Histogram("h", lo=1e-5).state_dict()
        with pytest.raises(TelemetryError):
            Histogram("h", lo=1e-4).load_state_dict(state)


class TestMetricsRegistry:
    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")
        assert "c" in registry and len(registry) == 1

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TelemetryError):
            registry.gauge("x")

    def test_state_round_trip_all_kinds(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.gauge("g").set(1.5)
        registry.histogram("h").observe(0.01)
        restored = MetricsRegistry()
        restored.load_state_dict(registry.state_dict())
        assert restored.to_dict() == registry.to_dict()

    def test_unknown_kind_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(TelemetryError):
            registry.load_state_dict({"x": {"kind": "summary"}})


class TestPublish:
    def test_transfer_counters_publish_adds(self):
        registry = MetricsRegistry()
        counters = TransferCounters(storage_requests=5, storage_bytes=100)
        counters.publish(registry)
        counters.publish(registry)
        assert registry.counter("transfer.storage_requests").value == 10
        # Zero-valued fields create no metric noise.
        assert "transfer.page_faults" not in registry

    def test_fault_stats_publish(self):
        registry = MetricsRegistry()
        FaultStats(injected_failures=3, retries=2).publish(registry)
        assert registry.counter("faults.injected_failures").value == 3
        assert registry.counter("faults.retries").value == 2
        assert "faults.timeouts" not in registry


def traced_run() -> Tracer:
    tracer = Tracer(detail="request")
    tracer.record(
        "sampling", "stage.sampling", start_s=0.0, duration_s=1e-3,
        iteration=0,
    )
    tracer.record("storage_batch", "ssd", start_s=1e-3, duration_s=4e-3, n=64)
    tracer.instant("cache.evict", "gpu.cache", at_s=2e-3, page=11)
    tracer.clock_s = 5e-3
    tracer.metrics.histogram("iteration.total_s").observe(5e-3)
    return tracer


class TestChromeTrace:
    def test_document_structure(self):
        trace = to_chrome_trace(traced_run())
        events = trace["traceEvents"]
        phases = [e["ph"] for e in events]
        # Process metadata + 2 per-lane metadata events per track.
        assert phases.count("M") == 1 + 2 * 3
        assert phases.count("X") == 2
        assert phases.count("i") == 1
        lane_names = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert lane_names == {"stage.sampling", "ssd", "gpu.cache"}
        x = next(e for e in events if e["name"] == "storage_batch")
        assert x["ts"] == pytest.approx(1e3)  # modeled seconds -> us
        assert x["dur"] == pytest.approx(4e3)
        assert trace["otherData"]["detail"] == "request"
        assert trace["otherData"]["repro_version"]

    def test_write_and_validate(self, tmp_path):
        path = tmp_path / "trace.json"
        count = write_chrome_trace(traced_run(), str(path))
        loaded = json.loads(path.read_text())
        assert validate_chrome_trace(loaded) == count

    def test_lane_ids_do_not_follow_the_hash_seed(self):
        """Ad-hoc lanes are numbered in first-seen order (spans, then
        instants), not in the iteration order of a set of their names."""
        script = (
            "import json\n"
            "from repro.telemetry import Tracer, to_chrome_trace\n"
            "tracer = Tracer(detail='request')\n"
            "tracer.record('a', 'fleet.gpu1', start_s=0.0, duration_s=1.0)\n"
            "tracer.record('b', 'adhoc.lane', start_s=1.0, duration_s=1.0)\n"
            "tracer.instant('c', 'fleet.gpu0', at_s=0.5)\n"
            "tracer.record('d', 'ssd', start_s=0.0, duration_s=1.0)\n"
            "print(json.dumps(to_chrome_trace(tracer), sort_keys=True))\n"
        )
        exports = [
            subprocess.run(
                [sys.executable, "-c", script],
                env={
                    **os.environ,
                    "PYTHONHASHSEED": seed,
                    "PYTHONPATH": os.path.dirname(
                        os.path.dirname(repro.__file__)
                    ),
                },
                capture_output=True,
                check=True,
                timeout=60,
            ).stdout
            for seed in ("1", "2", "3")
        ]
        assert exports[0] == exports[1] == exports[2]
        lanes = [
            e["args"]["name"]
            for e in json.loads(exports[0])["traceEvents"]
            if e["name"] == "thread_name"
        ]
        assert lanes == ["ssd", "fleet.gpu1", "adhoc.lane", "fleet.gpu0"]

    @pytest.mark.parametrize(
        "document",
        [
            [],
            {},
            {"traceEvents": [{"ph": "X"}]},
            {"traceEvents": [{"name": "x", "ph": "Q", "pid": 0, "tid": 0}]},
            {
                "traceEvents": [
                    {"name": "x", "ph": "X", "pid": 0, "tid": 0,
                     "ts": -1.0, "dur": 1.0}
                ]
            },
            {
                "traceEvents": [
                    {"name": "x", "ph": "X", "pid": 0, "tid": 0,
                     "ts": 0.0, "dur": "fast"}
                ]
            },
        ],
    )
    def test_malformed_documents_rejected(self, document):
        with pytest.raises(TelemetryError):
            validate_chrome_trace(document)


class TestRenderTrace:
    def test_lanes_and_axis(self):
        text = render_trace(to_chrome_trace(traced_run()))
        assert "stage.sampling" in text
        assert "ssd" in text
        assert "!" in text  # instant marker
        assert "5.000 ms" in text  # format_time-labeled axis end

    def test_width_validated(self):
        with pytest.raises(TelemetryError):
            render_trace(to_chrome_trace(traced_run()), width=10)

    def test_empty_trace_rejected(self):
        with pytest.raises(TelemetryError):
            render_trace(to_chrome_trace(Tracer()))


class TestSummarize:
    def test_contains_tracks_and_percentiles(self):
        text = summarize(traced_run())
        assert "stage.sampling" in text
        assert "iteration.total_s" in text
        assert "p99" in text
