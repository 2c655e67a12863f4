"""Mission-control observability tests: causal tracing, streaming,
flight recorder, and the property tests the exposition and snapshot
formats are contractually bound to (ISSUE 10).
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TelemetryError
from repro.pipeline.export import EXPORT_SCHEMA_VERSION
from repro.telemetry import (
    BLACKBOX_SCHEMA,
    SNAPSHOT_SCHEMA,
    FlightRecorder,
    MetricsRegistry,
    MetricsSnapshotter,
    TraceContext,
    Tracer,
    declare_track,
    is_known_track,
    list_trace_ids,
    parse_prometheus_text,
    prometheus_name,
    read_snapshots,
    render_request_trace,
    request_trace_id,
    require_known_track,
    step_trace_id,
    to_chrome_trace,
    to_prometheus_text,
    validate_chrome_trace,
)

# ----------------------------------------------------------------------
# Hypothesis strategies for registry contents

_metric_names = st.lists(
    st.from_regex(r"[a-z][a-z0-9_]{0,8}(\.[a-z][a-z0-9_]{0,8}){0,2}",
                  fullmatch=True),
    min_size=1,
    max_size=6,
    unique=True,
)

_counter_values = st.integers(min_value=0, max_value=10**12)
_gauge_values = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)
_observations = st.lists(
    st.floats(min_value=0.0, max_value=99.0,
              allow_nan=False, allow_infinity=False),
    max_size=20,
)


def _build_registry(names, kinds, counters, gauges, observations):
    registry = MetricsRegistry()
    for name, kind in zip(names, kinds):
        if kind == "counter":
            registry.counter(name).inc(counters)
        elif kind == "gauge":
            registry.gauge(name).set(gauges)
        else:
            hist = registry.histogram(name)
            for value in observations:
                hist.observe(value)
    return registry


class TestPrometheusRoundTripProperties:
    """Satellite 3a: the exposition round-trips every instrument."""

    @given(
        names=_metric_names,
        kinds=st.lists(
            st.sampled_from(("counter", "gauge", "histogram")),
            min_size=6, max_size=6,
        ),
        counters=_counter_values,
        gauges=_gauge_values,
        observations=_observations,
    )
    @settings(max_examples=120, deadline=None)
    def test_every_instrument_survives(
        self, names, kinds, counters, gauges, observations
    ):
        registry = _build_registry(
            names, kinds, counters, gauges, observations
        )
        parsed = parse_prometheus_text(to_prometheus_text(registry))
        assert set(parsed) == set(names)
        for name, metric in registry.instruments():
            entry = parsed[name]
            assert entry["kind"] == metric.kind
            if metric.kind in ("counter", "gauge"):
                # repr() formatting makes the value exact, not approximate.
                assert entry["value"] == float(metric.value)
            else:
                assert entry["count"] == metric.count
                assert entry["sum"] == metric.sum
                assert entry["buckets"]["+Inf"] == metric.count
                # Cumulative buckets never decrease.
                counts = list(entry["buckets"].values())
                assert all(a <= b for a, b in zip(counts, counts[1:]))

    @given(names=_metric_names)
    @settings(max_examples=60, deadline=None)
    def test_family_names_are_valid_prometheus(self, names):
        for name in names:
            family = prometheus_name(name)
            assert family.startswith("repro_")
            assert "." not in family

    def test_empty_registry_round_trips(self):
        assert parse_prometheus_text(
            to_prometheus_text(MetricsRegistry())
        ) == {}

    def test_unparseable_sample_rejected(self):
        with pytest.raises(TelemetryError):
            parse_prometheus_text(
                "# TYPE repro_x counter\nrepro_x one_two_three\n"
            )

    def test_samples_without_type_rejected(self):
        with pytest.raises(TelemetryError):
            parse_prometheus_text("repro_x 3\n")


class TestSnapshotStreamProperties:
    """Satellite 3b: snapshot JSONL always parses, monotone across
    kill/resume."""

    @given(
        times=st.lists(
            st.floats(min_value=0.001, max_value=0.2,
                      allow_nan=False, allow_infinity=False),
            min_size=2,
            max_size=12,
        ),
        kill_after=st.integers(min_value=1, max_value=6),
        cadence=st.floats(min_value=0.005, max_value=0.05),
    )
    @settings(max_examples=60, deadline=None)
    def test_stream_parses_and_is_monotone_across_resume(
        self, tmp_path_factory, times, kill_after, cadence
    ):
        path = str(tmp_path_factory.mktemp("snap") / "stream.jsonl")
        clock = [0.0]

        def drive(snapshotter, registry, steps, checkpoint_at=None):
            state = None
            for index, dt in enumerate(steps):
                clock[0] += dt
                registry.counter("work.steps").inc()
                snapshotter.poll(clock[0], registry)
                if checkpoint_at is not None and index == checkpoint_at:
                    state = (
                        snapshotter.state_dict(),
                        registry.state_dict(),
                        clock[0],
                    )
            return state

        registry = MetricsRegistry()
        first = MetricsSnapshotter(every_s=cadence, jsonl_path=path)
        kill_at = min(kill_after, len(times) - 1)
        state = drive(registry=registry, snapshotter=first,
                      steps=times, checkpoint_at=kill_at - 1)
        snap_state, reg_state, resumed_clock = state

        # "Crash": rebuild from the checkpoint; the resumed snapshotter
        # rewinds the JSONL past what the killed run wrote after it.
        clock[0] = resumed_clock
        registry2 = MetricsRegistry()
        registry2.load_state_dict(reg_state)
        second = MetricsSnapshotter(every_s=cadence, jsonl_path=path)
        second.load_state_dict(snap_state)
        drive(registry=registry2, snapshotter=second, steps=times[kill_at:])
        second.take(clock[0], registry2)

        snapshots = read_snapshots(path)
        assert snapshots, "stream must hold at least the final snapshot"
        seqs = [line["seq"] for line in snapshots]
        stamps = [line["modeled_time_s"] for line in snapshots]
        assert seqs == list(range(len(seqs)))
        # Strictly ordered by seq, monotone in modeled time (the forced
        # end-of-run snapshot may share the last poll's timestamp).
        assert all(a <= b for a, b in zip(stamps, stamps[1:]))
        for line in snapshots:
            assert line["schema"] == SNAPSHOT_SCHEMA
            assert line["every_s"] == pytest.approx(cadence)

    def test_resumed_stream_matches_uninterrupted(self, tmp_path):
        """The rewind makes kill/resume byte-identical to a clean run."""

        def run(path, kill):
            registry = MetricsRegistry()
            snap = MetricsSnapshotter(every_s=0.01, jsonl_path=str(path))
            clock = 0.0
            state = None
            for step in range(10):
                clock += 0.004
                registry.counter("c").inc(step)
                snap.poll(clock, registry)
                if kill and step == 4:
                    state = (snap.state_dict(), registry.state_dict(), clock)
            if not kill:
                return None
            # Replay from the checkpoint (the killed run wrote steps 5..9
            # that must be rewound away).
            snap_state, reg_state, clock = state
            registry = MetricsRegistry()
            registry.load_state_dict(reg_state)
            snap = MetricsSnapshotter(every_s=0.01, jsonl_path=str(path))
            snap.load_state_dict(snap_state)
            for step in range(5, 10):
                clock += 0.004
                registry.counter("c").inc(step)
                snap.poll(clock, registry)
            return None

        clean = tmp_path / "clean.jsonl"
        resumed = tmp_path / "resumed.jsonl"
        run(clean, kill=False)
        run(resumed, kill=True)
        assert clean.read_text() == resumed.read_text()

    def test_bad_cadence_rejected(self):
        with pytest.raises(TelemetryError):
            MetricsSnapshotter(every_s=0.0)

    def test_read_snapshots_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(TelemetryError):
            read_snapshots(str(path))
        path.write_text('{"schema": "something/else"}\n')
        with pytest.raises(TelemetryError):
            read_snapshots(str(path))

    def test_prom_file_rewritten_per_snapshot(self, tmp_path):
        prom = tmp_path / "metrics.prom"
        registry = MetricsRegistry()
        snap = MetricsSnapshotter(every_s=0.01, prom_path=str(prom))
        registry.counter("a.b").inc(3)
        snap.take(0.02, registry)
        text = prom.read_text()
        assert text.startswith("# repro metrics exposition")
        parsed = parse_prometheus_text(text)
        assert parsed["a.b"]["value"] == 3.0


class TestTrackRegistry:
    """Satellite 2: one validated home for every lane name."""

    def test_core_lanes_are_declared(self):
        for name in (
            "stage.sampling", "ssd", "serving", "serving.breakers",
            "storage.ha", "fleet.events", "fullgraph", "integrity",
            "alerts",
        ):
            assert is_known_track(name)

    def test_declare_track_validates_spelling(self):
        for bad in ("", "Upper", "has space", "dot..dot", "9lead", None):
            with pytest.raises(TelemetryError):
                declare_track(bad)

    def test_require_known_track_raises_on_undeclared(self):
        with pytest.raises(TelemetryError):
            require_known_track("never.declared.lane")

    def test_strict_tracer_rejects_adhoc_lane(self):
        tracer = Tracer(enabled=True, strict_tracks=True)
        with pytest.raises(TelemetryError):
            tracer.record("x", "adhoc.lane", start_s=0.0, duration_s=1.0)
        # The library default stays permissive.
        Tracer(enabled=True).record(
            "x", "adhoc.lane", start_s=0.0, duration_s=1.0
        )


class TestTraceContextFlow:
    """Tentpole (a): causal stamping, flow events, request rendering."""

    @staticmethod
    def _traced_request(tracer, index):
        ctx = TraceContext(request_trace_id(index), origin="serve")
        with tracer.context(ctx):
            tracer.record("sample", "stage.sampling",
                          start_s=index * 1.0, duration_s=0.2)
            tracer.record("fetch", "ssd",
                          start_s=index * 1.0 + 0.2, duration_s=0.3)
            tracer.instant("ha.redirect", "storage.ha",
                           at_s=index * 1.0 + 0.3, replica=1)
            tracer.record("infer", "stage.training",
                          start_s=index * 1.0 + 0.5, duration_s=0.1)
        return ctx

    def test_deterministic_trace_ids(self):
        assert request_trace_id(42) == "req-000042"
        assert step_trace_id("fleet", 7) == "fleet-000007"

    def test_stamping_and_nesting(self):
        tracer = Tracer(enabled=True, detail="request")
        ctx = self._traced_request(tracer, 0)
        assert ctx.events_stamped == 4
        stamped = [s.args for s in tracer.spans]
        assert all(a["trace_id"] == "req-000000" for a in stamped)
        assert [a["trace_seq"] for a in stamped] == [0, 1, 3]
        assert tracer.instants[0].args["trace_seq"] == 2
        # Outside the with-block nothing is stamped.
        tracer.record("later", "ssd", start_s=9.0, duration_s=0.1)
        assert "trace_id" not in tracer.spans[-1].args

    def test_flow_events_validate_and_chain(self):
        tracer = Tracer(enabled=True, detail="request")
        for index in range(3):
            self._traced_request(tracer, index)
        trace = to_chrome_trace(tracer)
        validate_chrome_trace(trace)
        flows = [e for e in trace["traceEvents"]
                 if e["ph"] in ("s", "t", "f")]
        by_id = {}
        for event in flows:
            by_id.setdefault(event["id"], []).append(event)
        assert set(by_id) == {request_trace_id(i) for i in range(3)}
        for chain in by_id.values():
            phases = [e["ph"] for e in chain]
            assert phases[0] == "s" and phases[-1] == "f"
            assert all(p == "t" for p in phases[1:-1])
            assert chain[-1]["bp"] == "e"

    def test_list_and_render_request(self):
        tracer = Tracer(enabled=True, detail="request")
        for index in range(2):
            self._traced_request(tracer, index)
        trace = to_chrome_trace(tracer)
        assert list_trace_ids(trace) == ["req-000000", "req-000001"]
        text = render_request_trace(trace, "req-000001")
        assert "request req-000001: 4 events" in text
        for needle in ("sample", "fetch", "ha.redirect", "infer",
                       "replica=1"):
            assert needle in text
        # Causal order, not file order.
        assert text.index("sample") < text.index("infer")

    def test_render_unknown_id_lists_known(self):
        tracer = Tracer(enabled=True, detail="request")
        self._traced_request(tracer, 0)
        with pytest.raises(TelemetryError, match="req-000000"):
            render_request_trace(to_chrome_trace(tracer), "req-999999")

    def test_empty_trace_id_rejected(self):
        with pytest.raises(TelemetryError):
            TraceContext("")


class TestTraceCap:
    """Satellite 1: the cap is configurable and never silent."""

    def test_drops_are_counted(self):
        tracer = Tracer(enabled=True, max_events=3)
        for index in range(10):
            tracer.record("s", "ssd", start_s=float(index), duration_s=0.1)
        assert len(tracer.spans) == 3
        assert tracer.truncated
        assert tracer.metrics.counter("telemetry.dropped_events").value == 7
        assert tracer.observability_block() == {"dropped_events": 7}

    def test_cap_must_be_positive(self):
        with pytest.raises(TelemetryError):
            Tracer(enabled=True, max_events=0)

    def test_trace_cap_cli_flag(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["run", "--trace", "t.json", "--trace-cap", "123"]
        )
        assert args.trace_cap == 123


class TestFlightRecorder:
    """Tentpole (c): bounded ring, crash-last dump, checkpointing."""

    def test_ring_evicts_oldest(self):
        flight = FlightRecorder(capacity=3)
        for index in range(5):
            flight.note("instant", f"e{index}", "alerts", float(index))
        assert [e["name"] for e in flight.entries] == ["e2", "e3", "e4"]
        assert flight.noted_total == 5

    def test_tracer_feed(self):
        flight = FlightRecorder(capacity=8)
        tracer = Tracer(enabled=True, flight=flight)
        tracer.record("s", "ssd", start_s=0.0, duration_s=0.5)
        tracer.instant("i", "alerts", at_s=0.5)
        kinds = [(e["kind"], e["name"]) for e in flight.entries]
        assert kinds == [("span", "s"), ("instant", "i")]

    def test_dump_crash_last(self, tmp_path):
        path = tmp_path / "blackbox.json"
        flight = FlightRecorder(capacity=16)
        flight.note("span", "work", "ssd", 0.1)
        flight.note("crash", "SimulatedCrashError", "alerts", 0.2,
                    detail={"message": "boom"})
        doc = flight.dump(str(path), trigger="crash: boom", at_s=0.2,
                          context={"iteration": 12})
        on_disk = json.loads(path.read_text())
        assert on_disk == doc
        assert on_disk["schema"] == BLACKBOX_SCHEMA
        assert on_disk["trigger"] == "crash: boom"
        assert on_disk["context"] == {"iteration": 12}
        assert on_disk["entries"][-1]["kind"] == "crash"

    def test_state_roundtrip_rides_tracer(self):
        flight = FlightRecorder(capacity=4)
        tracer = Tracer(enabled=True, flight=flight)
        tracer.record("s", "ssd", start_s=0.0, duration_s=0.5)
        state = tracer.state_dict()
        assert "flight" in state

        restored = Tracer(enabled=True, flight=FlightRecorder(capacity=4))
        restored.load_state_dict(state)
        assert restored.flight.entries == flight.entries
        assert restored.flight.noted_total == flight.noted_total

    def test_capacity_mismatch_rejected(self):
        flight = FlightRecorder(capacity=4)
        other = FlightRecorder(capacity=8)
        with pytest.raises(TelemetryError):
            other.load_state_dict(flight.state_dict())

    def test_capacity_must_be_positive(self):
        with pytest.raises(TelemetryError):
            FlightRecorder(capacity=0)


class TestObservabilityExport:
    """Satellite 6: the v11 ``observability`` block."""

    def test_schema_version_is_11(self):
        assert EXPORT_SCHEMA_VERSION == 11

    def test_block_absent_without_telemetry(self):
        assert Tracer(enabled=False).observability_block() is None

    def test_block_assembles_all_parts(self, tmp_path):
        snap = MetricsSnapshotter(
            every_s=0.01, jsonl_path=str(tmp_path / "s.jsonl")
        )
        tracer = Tracer(
            enabled=True, max_events=1, flight=FlightRecorder(capacity=4),
            snapshotter=snap,
        )
        tracer.record("a", "ssd", start_s=0.0, duration_s=0.1)
        tracer.record("b", "ssd", start_s=0.1, duration_s=0.1)  # dropped
        tracer.poll(0.02)
        block = tracer.observability_block()
        assert block["dropped_events"] == 1
        assert block["snapshots"]["snapshots"] == 1
        assert block["snapshots"]["jsonl"] is True
        # The span, then the snapshot's counter deltas.
        assert block["flight_recorder"]["entries"] == 2
        assert block["flight_recorder"]["dumps"] == 0

    def test_report_to_dict_carries_block(self):
        from repro.pipeline.export import report_to_dict
        from repro.pipeline.metrics import (
            IterationMetrics,
            RunReport,
            StageTimes,
        )
        from repro.sim.counters import TransferCounters

        report = RunReport("unit")
        report.append(
            IterationMetrics(
                times=StageTimes(
                    sampling=0.001, aggregation=0.001, transfer=0.001,
                    training=0.001,
                ),
                num_seeds=1,
                num_input_nodes=1,
                num_sampled=1,
                num_edges=1,
                counters=TransferCounters(),
            )
        )
        summary = report_to_dict(
            report, observability={"dropped_events": 0}
        )
        assert summary["schema_version"] == EXPORT_SCHEMA_VERSION
        assert summary["observability"] == {"dropped_events": 0}
        # Omitting the block keeps the key present but null.
        assert report_to_dict(report)["observability"] is None


class TestTopAndProfileCli:
    """CLI surfaces: ``repro top`` one-shot and ``trace --request``."""

    def _write_stream(self, path):
        registry = MetricsRegistry()
        snap = MetricsSnapshotter(
            every_s=0.01, jsonl_path=str(path), source="serve"
        )
        registry.counter("serving.completed").inc(5)
        registry.gauge("queue.depth").set(2.0)
        snap.take(0.02, registry)
        registry.counter("serving.completed").inc(7)
        snap.take(0.04, registry)

    def test_top_renders_latest_snapshot(self, tmp_path, capsys):
        from repro.cli import main

        stream = tmp_path / "s.jsonl"
        self._write_stream(stream)
        assert main(["top", str(stream)]) == 0
        out = capsys.readouterr().out
        assert "serve" in out
        assert "serving.completed" in out
        assert "+7" in out  # busiest counter shows its delta

    def test_top_missing_file_fails(self, tmp_path, capsys):
        from repro.cli import main

        garbage = tmp_path / "garbage.jsonl"
        garbage.write_text("{not json\n")
        for path in (tmp_path / "nope.jsonl", garbage):
            assert main(["top", str(path)]) == 2
            assert capsys.readouterr().err.startswith("error: ")
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["top", str(empty)]) == 1

    def test_trace_request_subcommand(self, tmp_path, capsys):
        from repro.cli import main
        from repro.telemetry import write_chrome_trace

        tracer = Tracer(enabled=True, detail="request")
        TestTraceContextFlow._traced_request(tracer, 3)
        path = tmp_path / "trace.json"
        write_chrome_trace(tracer, str(path))

        assert main(["trace", str(path), "--request", "list"]) == 0
        assert "req-000003" in capsys.readouterr().out
        assert main(["trace", str(path), "--request", "req-000003"]) == 0
        assert "ha.redirect" in capsys.readouterr().out
        assert main(["trace", str(path), "--request", "req-000099"]) == 1
