"""Tests for the overload-resilient serving layer (``repro serve``)."""

from __future__ import annotations

import copy
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import INTEL_OPTANE, LoaderConfig, SystemConfig
from repro.errors import CheckpointError, ConfigError, ServingError
from repro.faults import Budget, DeviceEvent, FaultInjector, FaultPlan, RetryPolicy
from repro.graph.datasets import load_scaled
from repro.observatory import AlertRule, SLOMonitor, validate_summary
from repro.pipeline.export import EXPORT_SCHEMA_VERSION
from repro.serving import (
    ADMIT,
    CLOSED,
    HALF_OPEN,
    OPEN,
    PRIORITIES,
    AdmissionController,
    ArrivalConfig,
    ArrivalProcess,
    BreakerBoard,
    BrownoutController,
    CircuitBreaker,
    HedgePolicy,
    InferenceServer,
    ServingConfig,
    ServingStats,
    TokenBucket,
)
from repro.telemetry import Tracer
from repro.telemetry.metrics import MetricsRegistry

# Shared fixtures built once (hypothesis re-runs test bodies many times).
_DATASET = load_scaled("IGB-tiny", 0.05, seed=3)
_SYSTEM = SystemConfig(ssd=INTEL_OPTANE, num_ssds=2)
_CONFIG = LoaderConfig(
    gpu_cache_bytes=_DATASET.feature_data_bytes * 0.05,
    cpu_buffer_fraction=0.10,
)


def make_server(**kwargs):
    kwargs.setdefault("arrival", ArrivalConfig(rate=2000.0, seed=5))
    kwargs.setdefault("serving", ServingConfig())
    kwargs.setdefault("fanouts", (5, 5))
    kwargs.setdefault("seed", 1)
    return InferenceServer(_DATASET, _SYSTEM, _CONFIG, **kwargs)


class TestConfigValidation:
    def test_rejects_unknown_shape(self):
        with pytest.raises(ConfigError, match="shape"):
            ArrivalConfig(shape="lumpy")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0, 0.0])
    def test_rejects_bad_rate(self, bad):
        with pytest.raises(ConfigError):
            ArrivalConfig(rate=bad)

    def test_rejects_non_finite_deadline(self):
        with pytest.raises(ConfigError, match="deadline_s"):
            ArrivalConfig(deadline_s=float("nan"))

    def test_rejects_mix_not_summing_to_one(self):
        with pytest.raises(ConfigError, match="priority_mix"):
            ArrivalConfig(priority_mix=(0.5, 0.5, 0.5))

    def test_rejects_non_finite_slo(self):
        with pytest.raises(ConfigError, match="slo_p99_s"):
            ServingConfig(slo_p99_s=float("inf"))

    def test_rejects_nan_breaker_threshold(self):
        with pytest.raises(ConfigError, match="breaker_threshold"):
            ServingConfig(breaker_threshold=float("nan"))

    def test_retry_policy_rejects_non_finite_backoff(self):
        with pytest.raises(ConfigError, match="backoff_base_s"):
            RetryPolicy(backoff_base_s=float("nan"))

    def test_retry_policy_rejects_negative_timeout(self):
        with pytest.raises(ConfigError, match="batch_timeout_s"):
            RetryPolicy(batch_timeout_s=-1.0)

    def test_retry_policy_rejects_infinite_multiplier(self):
        with pytest.raises(ConfigError, match="backoff_multiplier"):
            RetryPolicy(backoff_multiplier=float("inf"))


class TestBudget:
    def test_spend_until_exhausted(self):
        budget = Budget(1.0)
        assert budget.try_spend(0.6)
        assert not budget.try_spend(0.6)
        assert budget.try_spend(0.4)
        assert budget.remaining_s == 0.0

    def test_grant_extends(self):
        budget = Budget(0.0)
        assert not budget.try_spend(0.1)
        budget.grant(0.25)
        assert budget.try_spend(0.1)

    def test_rejects_non_finite_total(self):
        with pytest.raises(ConfigError):
            Budget(float("nan"))

    def test_state_roundtrip(self):
        budget = Budget(2.0)
        budget.try_spend(0.5)
        clone = Budget(0.0)
        clone.load_state_dict(budget.state_dict())
        assert clone.total_s == 2.0
        assert clone.spent_s == 0.5

    def test_injector_timeout_unchanged_by_refactor(self):
        # The Budget extraction must preserve resolve_batch semantics: a
        # tiny budget times the retry loop out.
        plan = FaultPlan(seed=7, read_failure_rate=0.5)
        policy = RetryPolicy(
            max_retries=8, backoff_base_s=1.0, batch_timeout_s=1e-9
        )
        injector = FaultInjector(plan, policy)
        outcome = injector.resolve_batch(1000)
        assert outcome.timed_out
        assert outcome.retries == 0
        assert outcome.unrecovered > 0


class TestArrivalProcess:
    def test_deterministic_per_seed(self):
        a = ArrivalProcess(ArrivalConfig(seed=9), 100)
        b = ArrivalProcess(ArrivalConfig(seed=9), 100)
        for _ in range(50):
            assert a.next_request() == b.next_request()

    def test_arrivals_strictly_increase(self):
        proc = ArrivalProcess(ArrivalConfig(shape="diurnal", seed=2), 100)
        times = [proc.next_request().arrival_s for _ in range(200)]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_bursty_rate_lifts_inside_burst(self):
        cfg = ArrivalConfig(
            shape="bursty", rate=100.0, burst_multiplier=4.0,
            burst_start_s=1.0, burst_duration_s=2.0,
        )
        proc = ArrivalProcess(cfg, 10)
        assert proc.rate_at(0.5) == 100.0
        assert proc.rate_at(2.0) == 400.0
        assert proc.rate_at(3.5) == 100.0

    def test_state_roundtrip_resumes_identically(self):
        a = ArrivalProcess(ArrivalConfig(shape="bursty", seed=4), 50)
        for _ in range(30):
            a.next_request()
        b = ArrivalProcess(ArrivalConfig(shape="bursty", seed=4), 50)
        b.load_state_dict(copy.deepcopy(a.state_dict()))
        for _ in range(30):
            assert a.next_request() == b.next_request()

    def test_priority_mix_respected(self):
        proc = ArrivalProcess(
            ArrivalConfig(seed=1, priority_mix=(0.0, 0.0, 1.0)), 10
        )
        assert all(
            proc.next_request().priority == 2 for _ in range(50)
        )


class TestTokenBucket:
    def test_low_priority_sheds_first(self):
        bucket = TokenBucket(rate=10.0, burst=8.0, reserve=0.5)
        bucket.tokens = 2.0
        # Threshold grows with tier: high needs 1, low needs 1 + reserve.
        assert bucket.threshold(0) < bucket.threshold(2)
        assert bucket.try_take(0, now_s=0.0)
        assert not bucket.try_take(2, now_s=0.0)

    def test_uncalibrated_adaptive_bucket_admits(self):
        bucket = TokenBucket(rate=None, burst=4.0, reserve=0.3)
        assert bucket.try_take(2, now_s=0.0)

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate=100.0, burst=4.0, reserve=0.0)
        bucket.tokens = 0.0
        bucket.refill(10.0)
        assert bucket.tokens == 4.0


class TestAdmission:
    def test_queue_bound_rejects(self):
        ctrl = AdmissionController(ServingConfig(queue_capacity=2))
        verdict = ctrl.decide(0, 0.0, 1.0, queue_len=2, backlog_s=0.0)
        assert verdict == "reject_queue"

    def test_deadline_rejects_predicted_miss(self):
        ctrl = AdmissionController(ServingConfig())
        ctrl.observe_service(0.010)
        verdict = ctrl.decide(0, 0.0, 0.005, queue_len=3, backlog_s=0.01)
        assert verdict == "reject_deadline"

    def test_admits_when_feasible(self):
        ctrl = AdmissionController(ServingConfig())
        ctrl.observe_service(0.001)
        assert ctrl.decide(0, 1.0, 0.05, 0, 0.0) == ADMIT


class TestCircuitBreaker:
    def test_opens_on_failure_ratio(self):
        cfg = ServingConfig(breaker_min_samples=4, breaker_threshold=0.5)
        breaker = CircuitBreaker(0, cfg)
        breaker.record(2, 0, 0.0)
        assert breaker.state == CLOSED
        breaker.record(0, 4, 0.001)
        assert breaker.state == OPEN
        assert not breaker.allows_storage(0.001)

    def test_half_open_after_cooldown_then_closes(self):
        cfg = ServingConfig(
            breaker_min_samples=2, breaker_threshold=0.5,
            breaker_cooldown_s=0.1, breaker_probes=2,
        )
        breaker = CircuitBreaker(0, cfg)
        breaker.record(0, 2, 0.0)
        assert breaker.state == OPEN
        assert breaker.allows_storage(0.2)
        assert breaker.state == HALF_OPEN
        breaker.record(2, 0, 0.2)
        assert breaker.state == CLOSED
        assert [t["to"] for t in breaker.transitions] == [
            OPEN, HALF_OPEN, CLOSED,
        ]

    def test_half_open_failure_reopens(self):
        cfg = ServingConfig(
            breaker_min_samples=2, breaker_threshold=0.5,
            breaker_cooldown_s=0.1,
        )
        breaker = CircuitBreaker(0, cfg)
        breaker.record(0, 2, 0.0)
        breaker.allows_storage(0.15)
        breaker.record(0, 1, 0.15)
        assert breaker.state == OPEN
        # Cooldown restarts from the re-open.
        assert not breaker.allows_storage(0.2)
        assert breaker.allows_storage(0.26)

    def test_transitions_recorded_as_tracer_instants(self):
        from repro.serving import BREAKERS_TRACK

        tracer = Tracer(enabled=True, detail="request")
        cfg = ServingConfig(breaker_min_samples=2, breaker_threshold=0.5)
        breaker = CircuitBreaker(1, cfg)
        breaker.record(0, 2, 0.5, tracer)
        marks = [i for i in tracer.instants if i.track == BREAKERS_TRACK]
        assert len(marks) == 1
        assert marks[0].name == "breaker.open"
        assert marks[0].args["device"] == 1

    def test_board_state_roundtrip(self):
        cfg = ServingConfig(breaker_min_samples=2, breaker_threshold=0.5)
        board = BreakerBoard(3, cfg)
        board[1].record(0, 2, 0.0)
        clone = BreakerBoard(3, cfg)
        clone.load_state_dict(copy.deepcopy(board.state_dict()))
        assert clone[1].state == OPEN
        assert clone.open_count == 1
        assert clone.transitions() == board.transitions()

    def test_board_rejects_wrong_size_checkpoint(self):
        cfg = ServingConfig()
        board = BreakerBoard(2, cfg)
        with pytest.raises(CheckpointError, match="breakers"):
            BreakerBoard(3, cfg).load_state_dict(board.state_dict())


class TestHedging:
    def test_no_hedge_until_min_samples(self):
        policy = HedgePolicy(ServingConfig(hedge_min_samples=16))
        assert policy.hedge_point_s is None
        assert policy.maybe_hedge(5.0, 0.001) == 5.0
        assert policy.issued == 0

    def test_hedge_clips_straggler(self):
        policy = HedgePolicy(
            ServingConfig(hedge_min_samples=8, hedge_budget_fraction=0.5)
        )
        for _ in range(50):
            policy.maybe_hedge(0.001, 0.001)
        point = policy.hedge_point_s
        clipped = policy.maybe_hedge(1.0, 0.001)
        assert policy.issued == 1
        assert policy.won == 1
        assert clipped == pytest.approx(point + 0.001)

    def test_budget_caps_amplification(self):
        policy = HedgePolicy(
            ServingConfig(hedge_min_samples=8, hedge_budget_fraction=0.1)
        )
        for _ in range(20):
            policy.maybe_hedge(0.001, 0.001)
        # Stragglers forever: hedged device time can never exceed the
        # configured fraction of accrued base time.
        for _ in range(200):
            policy.maybe_hedge(1.0, 0.001)
        total_base = 220 * 0.001
        assert policy.issued * 0.001 <= (
            policy.config.hedge_budget_fraction * total_base + 0.001
        )
        assert policy.issued < 40


class TestBrownout:
    def _controller(self, **over):
        cfg = ServingConfig(
            slo_p99_s=0.01, brownout_eval_every=4, brownout_window=16,
            brownout_step_down_after=2, brownout_step_up_after=2, **over,
        )
        registry = MetricsRegistry()
        tracer = Tracer(enabled=True)
        return BrownoutController(cfg, registry, tracer=tracer), tracer

    def test_steps_down_on_sustained_violation_then_recovers(self):
        ctrl, tracer = self._controller()
        for i in range(16):
            ctrl.observe(0.05, now_s=float(i))
        assert ctrl.level_index > 0
        for i in range(32):
            ctrl.observe(0.001, now_s=16.0 + i)
        assert ctrl.level_index == 0
        downs = [t for t in ctrl.transitions if t["to"] > t["from"]]
        ups = [t for t in ctrl.transitions if t["to"] < t["from"]]
        assert downs and ups

    def test_transitions_emit_alerts_track_instants(self):
        from repro.observatory.slo import ALERTS_TRACK

        ctrl, tracer = self._controller()
        for i in range(16):
            ctrl.observe(0.05, now_s=float(i))
        marks = [
            i for i in tracer.instants
            if i.track == ALERTS_TRACK and i.name == "brownout.level"
        ]
        assert len(marks) == len(ctrl.transitions) > 0

    def test_scaled_fanouts_floor_at_one(self):
        ctrl, _ = self._controller()
        ctrl.level_index = 1  # reduced-fanout (scale 0.5)
        assert ctrl.scaled_fanouts((10, 5, 1)) == (5, 2, 1)

    def test_state_roundtrip(self):
        ctrl, _ = self._controller()
        for i in range(12):
            ctrl.observe(0.05, now_s=float(i))
        clone, _ = self._controller()
        clone.load_state_dict(copy.deepcopy(ctrl.state_dict()))
        assert clone.level_index == ctrl.level_index
        assert clone.transitions == ctrl.transitions
        clone.observe(0.05, now_s=12.0)
        ctrl.observe(0.05, now_s=12.0)
        assert clone.level_index == ctrl.level_index


class TestSLOMonitorServingMetrics:
    def test_rules_fire_on_serving_gauges(self):
        registry = MetricsRegistry()
        registry.gauge("serving.p99").set(0.2)
        registry.gauge("serving.shed_fraction").set(0.4)
        monitor = SLOMonitor([
            AlertRule(
                name="tail", metric="metrics.serving.p99.value",
                op=">", threshold=0.05, severity="critical",
            ),
            AlertRule(
                name="shedding", metric="metrics.serving.shed_fraction.value",
                op=">", threshold=0.25, severity="warn",
            ),
        ])
        block = monitor.evaluate(None, registry)
        assert not block["ok"]
        assert sorted(f["name"] for f in block["fired"]) == [
            "shedding", "tail",
        ]

    def test_report_scoped_rules_missing_without_report(self):
        registry = MetricsRegistry()
        monitor = SLOMonitor([
            AlertRule(
                name="slow", metric="report.seconds_per_iteration",
                op=">", threshold=1.0, severity="warn",
            ),
        ])
        block = monitor.evaluate(None, registry)
        assert block["ok"]
        assert block["missing"] == ["report.seconds_per_iteration"]


class TestServerEndToEnd:
    def test_ledger_invariant_and_consistency(self):
        server = make_server(
            arrival=ArrivalConfig(rate=20_000.0, seed=5, deadline_s=0.02)
        )
        server.serve(400)
        server.drain()
        stats = server.stats
        assert stats.consistent()
        assert stats.total("offered") == 400
        assert stats.total("admitted") == (
            stats.total("completed") + stats.total("expired")
        )

    def test_protection_off_admits_everything(self):
        server = make_server(
            serving=ServingConfig(protection=False),
            arrival=ArrivalConfig(rate=30_000.0, seed=5),
        )
        server.serve(300)
        server.drain()
        assert server.stats.total("admitted") == 300
        assert server.stats.total("completed") == 300

    def test_deterministic_under_seed(self):
        reports = []
        for _ in range(2):
            server = make_server()
            server.serve(200)
            server.drain()
            reports.append(server.report().to_dict())
        assert json.dumps(reports[0], sort_keys=True) == json.dumps(
            reports[1], sort_keys=True
        )

    def test_priority_queue_serves_high_first_under_load(self):
        server = make_server(
            serving=ServingConfig(protection=False),
            arrival=ArrivalConfig(rate=30_000.0, seed=5, deadline_s=0.02),
        )
        server.serve(600)
        server.drain()
        stats = server.stats
        # Saturated and unprotected: high priority keeps meeting deadlines
        # long after low priority has collapsed.
        high_met = stats.deadline_met[0] / max(1, stats.completed[0])
        low_met = stats.deadline_met[2] / max(1, stats.completed[2])
        assert high_met > low_met

    def test_breaker_opens_on_dropout_and_recovers(self):
        plan = FaultPlan(
            seed=5,
            device_events=(
                DeviceEvent(kind="dropout", device=0, at_time_s=0.05),
                DeviceEvent(kind="recovery", device=0, at_time_s=0.4),
            ),
        )
        server = make_server(
            arrival=ArrivalConfig(shape="bursty", rate=1000.0, seed=3),
            fault_plan=plan,
        )
        server.serve(1200)
        server.drain()
        report = server.report()
        states = [t["to"] for t in report.breaker_transitions]
        assert OPEN in states and HALF_OPEN in states and CLOSED in states
        # Open breaker rerouted reads to the CPU mirror.
        assert report.counters.fallback_requests > 0
        # After the recovery the board settles closed again.
        assert report.breaker_open_count == 0

    def test_kill_resume_bit_identical(self):
        plan = FaultPlan(
            seed=5,
            device_events=(
                DeviceEvent(kind="dropout", device=1, at_time_s=0.02),
            ),
        )

        def build():
            return make_server(
                arrival=ArrivalConfig(shape="diurnal", rate=3000.0, seed=3),
                fault_plan=plan,
            )

        full = build()
        full.serve(500)
        full.drain()

        first = build()
        first.serve(230)
        state = copy.deepcopy(first.state_dict())
        resumed = build()
        resumed.load_state_dict(state)
        resumed.serve(270)
        resumed.drain()

        a = full.report().to_dict()
        b = resumed.report().to_dict()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_checkpoint_rejects_mismatched_protection(self):
        protected = make_server()
        unprotected = make_server(serving=ServingConfig(protection=False))
        protected.serve(10)
        with pytest.raises(CheckpointError, match="configuration"):
            unprotected.load_state_dict(protected.state_dict())

    def test_checkpoint_rejects_missing_fields(self):
        server = make_server()
        server.serve(10)
        state = server.state_dict()
        del state["arrivals"]
        with pytest.raises(CheckpointError, match="arrivals"):
            make_server().load_state_dict(state)

    def test_negative_request_count_rejected(self):
        with pytest.raises(ServingError):
            make_server().serve(-1)

    def test_export_is_valid_schema_v7(self):
        tracer = Tracer(enabled=True)
        server = make_server(tracer=tracer)
        server.serve(150)
        server.drain()
        summary = server.report().export_dict(
            tracer=tracer, system=_SYSTEM
        )
        validate_summary(summary)
        assert summary["schema_version"] == EXPORT_SCHEMA_VERSION
        assert summary["loader"] == "GIDS-serve"
        assert summary["serving"]["requests"]["offered"]["total"] == 150
        assert summary["attribution"] is not None
        json.dumps(summary, allow_nan=False)

    def test_brownout_engages_under_overload(self):
        server = make_server(
            arrival=ArrivalConfig(rate=25_000.0, seed=5, deadline_s=0.05),
            serving=ServingConfig(slo_p99_s=0.002),
        )
        server.serve(900)
        server.drain()
        report = server.report()
        assert report.brownout_transitions
        assert report.degraded_requests > 0
        assert sum(report.brownout_level_seconds) == pytest.approx(
            report.busy_s
        )


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    rate=st.floats(min_value=100.0, max_value=50_000.0),
    shape=st.sampled_from(["poisson", "diurnal", "bursty"]),
    n=st.integers(min_value=1, max_value=120),
)
def test_admission_ledger_invariant_property(seed, rate, shape, n):
    """admitted + rejected + shed == offered for any seeded trace."""
    server = InferenceServer(
        _DATASET,
        _SYSTEM,
        _CONFIG,
        arrival=ArrivalConfig(shape=shape, rate=rate, seed=seed),
        serving=ServingConfig(),
        fanouts=(5, 5),
        seed=1,
    )
    server.serve(n)
    stats = server.stats
    assert stats.consistent()
    for tier in range(len(PRIORITIES)):
        assert stats.offered[tier] == (
            stats.admitted[tier]
            + stats.shed[tier]
            + stats.rejected_queue[tier]
            + stats.rejected_deadline[tier]
        )
    assert stats.total("offered") == n


class TestServingStats:
    def test_state_roundtrip(self):
        stats = ServingStats()
        stats.count("offered", 1)
        stats.count("admitted", 1)
        clone = ServingStats()
        clone.load_state_dict(stats.state_dict())
        assert clone.offered == stats.offered

    def test_rejects_unknown_fields(self):
        stats = ServingStats()
        state = stats.state_dict()
        state["bogus"] = [0, 0, 0]
        with pytest.raises(CheckpointError, match="bogus"):
            ServingStats().load_state_dict(state)

    def test_inconsistent_ledger_fails_export(self):
        stats = ServingStats()
        stats.count("offered", 0)  # offered but never resolved
        report_kwargs = dict(
            stats=stats, latencies=[], latency_priorities=[],
            deadline_flags=[], protection=True, arrival={}, slo_p99_s=0.05,
            duration_s=0.0, busy_s=0.0, stage_seconds={}, counters=None,
            degraded_requests=0, stale_requests=0, stale_pages=0,
            hedge={}, breaker_transitions=[], breaker_open_count=0,
            brownout_transitions=[], brownout_level_seconds=[],
            brownout_level_names=[],
        )
        from repro.serving import ServingReport

        with pytest.raises(ServingError, match="inconsistent"):
            ServingReport(**report_kwargs).to_dict()


class TestCLIServe:
    _FAST = [
        "serve", "--dataset", "IGB-tiny", "--scale", "0.05",
        "--requests", "120", "--rate", "2000", "--seed", "3",
    ]

    def test_table_output_exits_zero(self, capsys):
        from repro.cli import main

        assert main(list(self._FAST)) == 0
        out = capsys.readouterr().out
        assert "offered" in out
        for tier in PRIORITIES:
            assert tier in out
        assert "p99" in out

    def test_json_output_is_valid_export(self, capsys, tmp_path):
        from repro.cli import main

        out_path = tmp_path / "serve.json"
        assert main(
            list(self._FAST)
            + ["--format", "json", "-o", str(out_path)]
        ) == 0
        summary = json.loads(out_path.read_text())
        validate_summary(summary)
        assert summary["loader"] == "GIDS-serve"
        assert summary["serving"]["requests"]["offered"]["total"] == 120

    def test_bad_priority_mix_exits_two(self, capsys):
        from repro.cli import main

        rc = main(list(self._FAST) + ["--priority-mix", "0.9,0.9,0.9"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_non_positive_requests_exits_two(self, capsys):
        from repro.cli import main

        rc = main(["serve", "--requests", "0"])
        assert rc == 2

    def test_bad_rate_exits_two(self, capsys):
        from repro.cli import main

        rc = main(list(self._FAST[:-4]) + ["--rate", "-5"])
        assert rc == 2

    def test_alerts_fire_on_overload(self, capsys, tmp_path):
        from repro.cli import main

        rules = [
            {
                "name": "serving-tail",
                "metric": "metrics.serving.p99.value",
                "op": ">",
                "threshold": 0.0001,
                "severity": "warn",
            }
        ]
        rules_path = tmp_path / "rules.json"
        rules_path.write_text(json.dumps(rules))
        assert main(
            list(self._FAST) + ["--alerts", str(rules_path)]
        ) == 0
        err = capsys.readouterr().err
        assert "serving-tail" in err
        assert "[warn]" in err
