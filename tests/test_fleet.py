"""Tests for elastic multi-GPU sharded training (core/fleet.py).

The invariants under test are the chaos harness's: every training seed is
trained exactly once regardless of the dropout/straggler schedule, the
loss trajectory is bit-identical to a deterministic replay of the executed
schedule, and a fleet-wide kill/resume at any step boundary reproduces the
uninterrupted run bit for bit.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.checkpoint import CheckpointStore
from repro.config import SystemConfig
from repro.core.fleet import (
    CHAOS_SCENARIOS,
    MAX_STEALS_PER_VICTIM,
    STRAGGLER_THRESHOLD,
    ElasticFleetTrainer,
    FleetConfig,
    InterconnectSpec,
    check_invariants,
    replay_schedule,
    run_chaos_suite,
)
from repro.errors import CheckpointError, ConfigError
from repro.faults.plan import FaultPlan, WorkerEvent
from repro.graph.datasets import load_scaled
from repro.pipeline.export import EXPORT_SCHEMA_VERSION
from repro.telemetry import Tracer
from repro.training.graphsage import GraphSAGE, average_gradients

# Session-shared dataset: 50 training seeds -> with batch_size 4 the fleet
# runs ~13 batches, enough global steps for mid-epoch events.
_DATASET = load_scaled("IGB-tiny", 0.05, seed=3)
_SYSTEM = SystemConfig()


def make_fleet(num_gpus=4, **kwargs):
    defaults = dict(
        num_gpus=num_gpus,
        batch_size=4,
        straggler_patience=2,
        breaker_min_samples=4,
    )
    defaults.update(kwargs)
    return FleetConfig(**defaults)


def run_fleet(fleet=None, *, seed=0, fault_plan=None, **kwargs):
    trainer = ElasticFleetTrainer(
        _DATASET,
        _SYSTEM,
        fleet if fleet is not None else make_fleet(),
        seed=seed,
        fault_plan=fault_plan,
        **kwargs,
    )
    return trainer.run_epoch()


@pytest.fixture(scope="module")
def healthy_result():
    return run_fleet()


class TestWorkerEvent:
    def test_accepts_gpu_string_target(self):
        event = WorkerEvent(worker="gpu:3", kind="dropout", at_time_s=1.0)
        assert event.worker == 3
        assert event.target == "gpu:3"

    def test_accepts_plain_int(self):
        assert WorkerEvent(worker=2, kind="recovery", at_time_s=0.0).worker == 2

    @pytest.mark.parametrize(
        "bad", ["gpu:", "gpu:x", "worker:1", "-1", True, 1.5, None]
    )
    def test_rejects_bad_workers(self, bad):
        with pytest.raises(ConfigError):
            WorkerEvent(worker=bad, kind="dropout", at_time_s=0.0)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigError):
            WorkerEvent(worker=0, kind="explode", at_time_s=0.0)

    def test_rejects_negative_time_and_bad_factor(self):
        with pytest.raises(ConfigError):
            WorkerEvent(worker=0, kind="dropout", at_time_s=-1.0)
        with pytest.raises(ConfigError):
            WorkerEvent(worker=0, kind="straggle", at_time_s=0.0, factor=0.5)

    def test_plan_round_trip(self):
        plan = FaultPlan(
            seed=4,
            worker_events=(
                WorkerEvent(worker=1, kind="dropout", at_time_s=0.5),
                WorkerEvent(
                    worker=2, kind="straggle", at_time_s=0.1, factor=3.0
                ),
            ),
        )
        restored = FaultPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
        assert restored.worker_events == plan.worker_events

    def test_worker_events_keep_plan_null_for_storage(self):
        """Worker events are invisible to the storage stack: a plan with
        only worker events must stay a null plan for loaders."""
        plan = FaultPlan(
            worker_events=(
                WorkerEvent(worker=0, kind="dropout", at_time_s=0.1),
            )
        )
        assert plan.is_null()


class TestFleetConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            FleetConfig(num_gpus=0)
        with pytest.raises(ConfigError):
            FleetConfig(shard_mode="striped")
        with pytest.raises(ConfigError):
            FleetConfig(straggler_patience=0)
        with pytest.raises(ConfigError):
            FleetConfig(breaker_min_samples=0)
        with pytest.raises(ConfigError):
            InterconnectSpec(bandwidth_bytes=0.0)

    def test_interconnect_transfer_time(self):
        link = InterconnectSpec(bandwidth_bytes=1e9, latency_s=1e-6)
        assert link.transfer_time(0) == 0.0
        assert link.transfer_time(1e9) == pytest.approx(1.0 + 1e-6)

    def test_event_beyond_fleet_rejected(self):
        plan = FaultPlan(
            worker_events=(
                WorkerEvent(worker=7, kind="dropout", at_time_s=0.1),
            )
        )
        with pytest.raises(ConfigError):
            ElasticFleetTrainer(
                _DATASET, _SYSTEM, make_fleet(num_gpus=4), fault_plan=plan
            )


class TestHealthyEpoch:
    def test_every_seed_trained_exactly_once(self, healthy_result):
        assert healthy_result.completed
        trained = healthy_result.trained_seeds()
        assert len(trained) == len(np.unique(trained))
        assert np.array_equal(
            np.sort(trained), np.sort(np.asarray(_DATASET.train_ids))
        )

    def test_deterministic_rerun(self, healthy_result):
        again = run_fleet()
        assert again.losses == healthy_result.losses
        assert again.schedule == healthy_result.schedule
        assert again.epoch_time_s == healthy_result.epoch_time_s

    def test_replay_is_bit_identical(self, healthy_result):
        replayed = replay_schedule(healthy_result)
        assert list(healthy_result.losses) == replayed

    def test_invariants_pass(self, healthy_result):
        assert check_invariants(healthy_result) == []

    def test_loss_decreases(self, healthy_result):
        assert healthy_result.losses[-1] < healthy_result.losses[0]

    def test_report_merges_per_worker_counters(self, healthy_result):
        report = healthy_result.report
        assert report.loader_name == "GIDS-fleet"
        assert report.num_iterations == len(healthy_result.schedule)
        counters = report.counters
        assert counters.storage_requests == healthy_result.total_ssd_pages

    def test_fleet_block_shape(self, healthy_result):
        block = healthy_result.fleet_block()
        assert block["num_gpus"] == 4
        assert len(block["workers"]) == 4
        assert block["completed"] is True
        assert 0.0 <= block["peer_cache_hit_ratio"] <= 1.0
        # The block must be JSON-serializable as exported.
        json.dumps(block)

    def test_tracer_records_per_worker_tracks(self):
        tracer = Tracer()
        trainer = ElasticFleetTrainer(
            _DATASET, _SYSTEM, make_fleet(), seed=0, tracer=tracer
        )
        assert trainer.run_epoch() is trainer
        tracks = {span.track for span in tracer.spans}
        assert any(t.startswith("fleet.gpu") for t in tracks)

    def test_traced_elasticity_events_land_on_the_events_lane(self):
        """A traced run used to die in a TypeError on its first worker
        event: the event record's ``at_s`` collided with the tracer's."""
        plan = FaultPlan(
            worker_events=(
                WorkerEvent(worker="gpu:1", kind="dropout", at_time_s=0.0),
            )
        )
        tracer = Tracer()
        traced = run_fleet(make_fleet(), fault_plan=plan, tracer=tracer)
        names = [i.name for i in tracer.instants if i.track == "fleet.events"]
        assert "fleet.dropout" in names and "fleet.rebalance" in names
        # Tracing observes; it never changes the schedule.
        untraced = run_fleet(make_fleet(), fault_plan=plan)
        assert traced.schedule == untraced.schedule


class TestPeerCacheTier:
    def test_peer_tier_drops_ssd_reads(self):
        with_peers = run_fleet(make_fleet(peer_cache=True))
        without = run_fleet(make_fleet(peer_cache=False))
        assert with_peers.total_ssd_pages < without.total_ssd_pages
        assert with_peers.peer_cache_hit_ratio > 0.0
        assert without.peer_cache_hit_ratio == 0.0

    def test_peer_reads_do_not_change_losses(self):
        """The peer tier moves bytes, never math: the schedule and the
        loss trajectory are identical with the tier on or off."""
        with_peers = run_fleet(make_fleet(peer_cache=True))
        without = run_fleet(make_fleet(peer_cache=False))
        assert with_peers.losses == without.losses
        assert with_peers.schedule == without.schedule

    def test_peer_epoch_is_faster(self):
        with_peers = run_fleet(make_fleet(peer_cache=True))
        without = run_fleet(make_fleet(peer_cache=False))
        assert with_peers.epoch_time_s < without.epoch_time_s


class TestDropout:
    @pytest.fixture(scope="class")
    def dropout_plan(self, healthy_result):
        return FaultPlan(
            worker_events=(
                WorkerEvent(
                    worker=1,
                    kind="dropout",
                    at_time_s=0.3 * healthy_result.epoch_time_s,
                ),
            )
        )

    def test_dropout_rebalances_and_completes(self, dropout_plan):
        result = run_fleet(fault_plan=dropout_plan)
        assert check_invariants(result) == []
        assert len(result.rebalance_events) == 1
        event = result.rebalance_events[0]
        assert event["from"] == 1
        assert 1 not in event["to"]
        stats = {w["worker"]: w for w in result.fleet_block()["workers"]}
        assert stats[1]["active"] is False

    def test_dropout_replay_bit_identical(self, dropout_plan):
        result = run_fleet(fault_plan=dropout_plan)
        assert list(result.losses) == replay_schedule(result)

    def test_dropped_peer_opens_breaker(self, dropout_plan):
        result = run_fleet(fault_plan=dropout_plan)
        opened = [
            t
            for t in result.breakers.transitions()
            if t["to"] == "open" and t["device"] == 1
        ]
        assert opened, "survivors must stop probing the dead peer"

    def test_recovery_rejoins_with_cold_cache(self, healthy_result):
        plan = FaultPlan(
            worker_events=(
                WorkerEvent(
                    worker=1,
                    kind="dropout",
                    at_time_s=0.15 * healthy_result.epoch_time_s,
                ),
                WorkerEvent(
                    worker=1,
                    kind="recovery",
                    at_time_s=0.45 * healthy_result.epoch_time_s,
                ),
            )
        )
        result = run_fleet(fault_plan=plan)
        assert check_invariants(result) == []
        kinds = [e["kind"] for e in result.fired_events]
        assert kinds.count("dropout") == 1
        assert kinds.count("recovery") == 1
        stats = {w["worker"]: w for w in result.fleet_block()["workers"]}
        assert stats[1]["active"] is True

    def test_all_workers_dropped_raises(self):
        plan = FaultPlan(
            worker_events=tuple(
                WorkerEvent(worker=k, kind="dropout", at_time_s=0.0)
                for k in range(4)
            )
        )
        from repro.errors import PipelineError

        with pytest.raises(PipelineError):
            run_fleet(fault_plan=plan)


class TestStraggler:
    @pytest.fixture(scope="class")
    def straggle_plan(self, healthy_result):
        return FaultPlan(
            worker_events=(
                WorkerEvent(
                    worker=3,
                    kind="straggle",
                    at_time_s=0.05 * healthy_result.epoch_time_s,
                    factor=8.0,
                ),
            )
        )

    def test_straggler_triggers_bounded_steal(self, straggle_plan):
        # Finer batches -> more global steps, so the patience window
        # elapses while the straggler still has queued work to steal.
        fleet = make_fleet(batch_size=2)
        result = run_fleet(fleet, fault_plan=straggle_plan)
        assert check_invariants(result) == []
        assert result.steal_events
        assert len(result.steal_events) <= MAX_STEALS_PER_VICTIM
        for event in result.steal_events:
            assert event["from"] == 3
            assert event["skew"] > STRAGGLER_THRESHOLD
        stats = {w["worker"]: w for w in result.fleet_block()["workers"]}
        assert stats[3]["stolen_out"] > 0

    def test_straggler_slows_epoch_but_loses_nothing(
        self, straggle_plan, healthy_result
    ):
        result = run_fleet(fault_plan=straggle_plan)
        assert result.epoch_time_s > healthy_result.epoch_time_s

    def test_sick_peer_short_circuits_to_ssd(self, healthy_result):
        """A straggler above PEER_SICK_FACTOR serves probes too slowly;
        its peers' breakers open and reads go straight to SSD."""
        plan = FaultPlan(
            worker_events=(
                WorkerEvent(
                    worker=0, kind="straggle", at_time_s=0.0, factor=16.0
                ),
            )
        )
        result = run_fleet(fault_plan=plan)
        opened = [
            t
            for t in result.breakers.transitions()
            if t["to"] == "open" and t["device"] == 0
        ]
        assert opened
        assert check_invariants(result) == []


class TestCoordinatedCheckpoint:
    def test_kill_resume_bit_identical_every_boundary(self, healthy_result):
        total_steps = len(healthy_result.schedule)
        for cut_at in range(1, total_steps):
            first = ElasticFleetTrainer(
                _DATASET, _SYSTEM, make_fleet(), seed=0
            )
            first.run_epoch(max_steps=cut_at)
            state = first.state_dict()
            resumed = ElasticFleetTrainer(
                _DATASET, _SYSTEM, make_fleet(), seed=0
            )
            resumed.load_state_dict(state)
            result = resumed.run_epoch()
            assert result.losses == healthy_result.losses, f"cut at {cut_at}"
            assert result.schedule == healthy_result.schedule
            assert result.epoch_time_s == healthy_result.epoch_time_s

    def test_resume_through_checkpoint_store(self, tmp_path, healthy_result):
        """The consistent cut survives a real disk round-trip (CRC'd
        snapshot file via CheckpointStore), not just an in-memory dict."""
        store = CheckpointStore(tmp_path / "fleet", keep=2)
        trainer = ElasticFleetTrainer(_DATASET, _SYSTEM, make_fleet(), seed=0)
        trainer.run_epoch(max_steps=2)
        store.save(trainer.step_index, trainer.state_dict())
        loaded = store.load_latest()
        assert loaded is not None
        resumed = ElasticFleetTrainer(_DATASET, _SYSTEM, make_fleet(), seed=0)
        resumed.load_state_dict(loaded.payload)
        result = resumed.run_epoch()
        assert result.losses == healthy_result.losses
        assert result.schedule == healthy_result.schedule

    def test_mismatched_fleet_rejected(self):
        trainer = ElasticFleetTrainer(_DATASET, _SYSTEM, make_fleet(), seed=0)
        trainer.run_epoch(max_steps=1)
        state = trainer.state_dict()
        other = ElasticFleetTrainer(
            _DATASET, _SYSTEM, make_fleet(num_gpus=2), seed=0
        )
        with pytest.raises(CheckpointError):
            other.load_state_dict(state)

    def test_resume_under_faults_bit_identical(self, healthy_result):
        plan = FaultPlan(
            worker_events=(
                WorkerEvent(
                    worker=1,
                    kind="dropout",
                    at_time_s=0.3 * healthy_result.epoch_time_s,
                ),
                WorkerEvent(
                    worker=2,
                    kind="straggle",
                    at_time_s=0.1 * healthy_result.epoch_time_s,
                    factor=8.0,
                ),
            )
        )
        full = run_fleet(fault_plan=plan)
        cut_at = max(1, len(full.schedule) // 2)
        first = ElasticFleetTrainer(
            _DATASET, _SYSTEM, make_fleet(), seed=0, fault_plan=plan
        )
        first.run_epoch(max_steps=cut_at)
        resumed = ElasticFleetTrainer(
            _DATASET, _SYSTEM, make_fleet(), seed=0, fault_plan=plan
        )
        resumed.load_state_dict(first.state_dict())
        result = resumed.run_epoch()
        assert result.losses == full.losses
        assert result.schedule == full.schedule


class TestDropoutScheduleProperty:
    @given(
        schedule=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),  # worker
                st.floats(min_value=0.0, max_value=1.0),  # time fraction
                st.sampled_from(["dropout", "recovery", "straggle"]),
            ),
            min_size=0,
            max_size=5,
        ),
        seed=st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=20, deadline=None)
    def test_any_schedule_trains_every_seed_exactly_once(
        self, schedule, seed
    ):
        """For ANY dropout/recovery/straggle schedule that leaves at
        least one worker alive, the union of trained seeds equals the
        train set with no duplicates, replay is bit-identical, and a
        mid-epoch kill/resume reproduces the run."""
        epoch_hint = 2e-3  # healthy 4-GPU epoch is ~1.4 modeled ms
        events = []
        for worker, fraction, kind in schedule:
            factor = 6.0 if kind == "straggle" else 1.0
            events.append(
                WorkerEvent(
                    worker=worker,
                    kind=kind,
                    at_time_s=fraction * epoch_hint,
                    factor=factor,
                )
            )
        # Keep at least one worker alive at every point: drop plans that
        # wipe the fleet with nothing pending to revive it.
        dropped = set()
        doomed = False
        for event in sorted(events, key=lambda e: (e.at_time_s, e.worker)):
            if event.kind == "dropout":
                dropped.add(event.worker)
            elif event.kind == "recovery":
                dropped.discard(event.worker)
            if len(dropped) >= 4:
                doomed = True
        if doomed:
            return
        plan = FaultPlan(worker_events=tuple(events))
        result = run_fleet(seed=seed, fault_plan=plan)
        assert check_invariants(result) == []

        cut_at = max(1, len(result.schedule) // 2)
        first = ElasticFleetTrainer(
            _DATASET, _SYSTEM, make_fleet(), seed=seed, fault_plan=plan
        )
        first.run_epoch(max_steps=cut_at)
        resumed = ElasticFleetTrainer(
            _DATASET, _SYSTEM, make_fleet(), seed=seed, fault_plan=plan
        )
        resumed.load_state_dict(first.state_dict())
        assert resumed.run_epoch().losses == result.losses


class TestChaosSuite:
    def test_suite_passes_all_scenarios(self):
        suite = run_chaos_suite(_DATASET, _SYSTEM, num_gpus=4, seed=0)
        assert suite["passed"], suite
        assert set(suite["scenarios"]) == set(CHAOS_SCENARIOS)
        assert suite["scenarios"]["dropout"]["rebalance_events"] >= 1
        assert suite["scenarios"]["straggler"]["steal_events"] >= 1

    def test_corruption_storm_leaves_schedule_identical(self):
        """Pay-for-what-you-use: a media storm on the shared array must
        not perturb the fleet's modeled schedule (integrity is the
        single-GPU loaders' verify-on-read concern)."""
        suite = run_chaos_suite(
            _DATASET,
            _SYSTEM,
            num_gpus=2,
            seed=1,
            scenarios=("baseline", "corruption-storm"),
        )
        assert suite["passed"], suite

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigError):
            run_chaos_suite(
                _DATASET, _SYSTEM, num_gpus=2, scenarios=("earthquake",)
            )

    def test_straggler_is_stolen_from_on_a_small_fleet(self):
        # 20 train ids on 4 GPUs: batch size 1, five batches per GPU, so
        # the patience must trip within the first three steps for a
        # queued batch to be left to steal.
        small = load_scaled("IGB-tiny", 0.02, seed=3)
        suite = run_chaos_suite(
            small, _SYSTEM, num_gpus=4, scenarios=("straggler",)
        )
        assert suite["passed"], suite
        assert suite["scenarios"]["straggler"]["steal_events"] >= 1

    @pytest.mark.parametrize("scale,num_gpus", [(0.05, 2), (0.02, 8)])
    def test_fleet_too_small_for_the_straggler_rejected(
        self, scale, num_gpus
    ):
        with pytest.raises(ConfigError, match="straggler scenario needs"):
            run_chaos_suite(
                load_scaled("IGB-tiny", scale, seed=3),
                _SYSTEM,
                num_gpus=num_gpus,
                scenarios=("straggler",),
            )


class TestGradientSplit:
    def test_average_gradients_matches_single_worker_step(self):
        """gradients()+average+apply over one replica must equal the
        fused train_step bit for bit."""
        from repro.sampling.neighbor import NeighborSampler
        from repro.storage.feature_store import FeatureStore
        from repro.training.graphsage import synthetic_labels

        store = FeatureStore(_DATASET.num_nodes, _DATASET.feature_dim)
        sampler = NeighborSampler(_DATASET.graph, (4, 4), seed=0)
        batch = sampler.sample(np.asarray(_DATASET.train_ids[:8]))
        features = store.fetch(batch.input_nodes)
        labels = synthetic_labels(store, batch.seeds, 8)

        fused = GraphSAGE(_DATASET.feature_dim, 16, 8, 2, seed=0)
        split = GraphSAGE(_DATASET.feature_dim, 16, 8, 2, seed=0)
        loss_fused = fused.train_step(batch, features, labels)
        loss, grads = split.gradients(batch, features, labels)
        split.apply_gradients(average_gradients([grads]))
        assert loss == loss_fused
        for a, b in zip(fused.layers, split.layers):
            assert np.array_equal(a.w_self, b.w_self)
            assert np.array_equal(a.w_neigh, b.w_neigh)
            assert np.array_equal(a.bias, b.bias)

    def test_batch_inputs_label_the_seeds_from_the_fetched_rows(self):
        """One fetch per worker-step: the seeds' labels come from rows of
        the input-node fetch, and equal a fetch of their own."""
        from repro.core.fleet import _batch_inputs
        from repro.sampling.neighbor import NeighborSampler
        from repro.storage.feature_store import FeatureStore
        from repro.training.graphsage import (
            label_projection,
            synthetic_labels,
        )

        store = FeatureStore(_DATASET.num_nodes, _DATASET.feature_dim)
        sampler = NeighborSampler(_DATASET.graph, (4, 4), seed=0)
        # Unsorted, repeated seeds: a stolen or rebalanced batch.
        seeds = np.asarray(_DATASET.train_ids[:8])[[5, 0, 3, 3, 7]]
        batch = sampler.sample(seeds)
        features, labels = _batch_inputs(
            store, batch, label_projection(_DATASET.feature_dim, 8, seed=2)
        )
        assert np.array_equal(features, store.fetch(batch.input_nodes))
        assert np.array_equal(
            labels, synthetic_labels(store, batch.seeds, 8, seed=2)
        )

    def test_average_gradients_validates(self):
        with pytest.raises(ConfigError):
            average_gradients([])


class TestFleetCLI:
    def test_fleet_table_run(self, capsys):
        from repro.cli import main

        assert main(["fleet", "--gpus", "2", "--batch-size", "8"]) == 0
        out = capsys.readouterr().out
        assert "gpu:0" in out and "gpu:1" in out

    def test_fleet_json_export_is_schema_v8(self, tmp_path, capsys):
        from repro.cli import main

        out_path = tmp_path / "fleet.json"
        assert main([
            "fleet", "--gpus", "2", "--batch-size", "8",
            "--format", "json", "-o", str(out_path),
        ]) == 0
        capsys.readouterr()
        doc = json.loads(out_path.read_text())
        assert doc["schema_version"] == EXPORT_SCHEMA_VERSION
        assert doc["fleet"]["num_gpus"] == 2
        assert len(doc["fleet"]["workers"]) == 2
        rows = [r["scenario"] for r in doc["attribution"]["what_if"]]
        assert rows == ["+1 SSD", "capacity"]

    def test_traced_export_clock_is_the_epoch_time(self, tmp_path, capsys):
        """The fleet keeps its tracer's clock current, so a traced export's
        ``telemetry.clock_s`` is where the epoch ended."""
        from repro.cli import main

        assert main([
            "fleet", "--scale", "0.02", "--gpus", "2",
            "--trace", str(tmp_path / "t.json"), "--format", "json",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["fleet"]["epoch_time_s"] > 0.0
        assert doc["telemetry"]["clock_s"] == doc["fleet"]["epoch_time_s"]

    def test_fleet_chaos_smoke(self, capsys):
        from repro.cli import main

        assert main(["fleet", "--chaos", "--gpus", "4"]) == 0
        out = capsys.readouterr().out
        assert "dropout+straggler" in out

    def test_faults_validate_fleet_scope(self, tmp_path, capsys):
        from repro.cli import main

        plan = {
            "worker_events": [
                {"worker": "gpu:1", "kind": "dropout", "at_time_s": 0.01},
                {"worker": 3, "kind": "straggle", "at_time_s": 0.0,
                 "factor": 4.0},
            ]
        }
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan))
        assert main(["faults", "validate", str(path),
                     "--fleet-size", "4"]) == 0
        out = capsys.readouterr().out
        assert "gpu:1" in out and "gpu:3" in out
        assert main(["faults", "validate", str(path),
                     "--fleet-size", "2"]) == 2
        err = capsys.readouterr().err
        assert "gpu:3" in err

    def test_faults_validate_flags_fleet_wipe(self, tmp_path, capsys):
        from repro.cli import main

        plan = {
            "worker_events": [
                {"worker": 0, "kind": "dropout", "at_time_s": 0.0},
                {"worker": 1, "kind": "dropout", "at_time_s": 0.0},
            ]
        }
        path = tmp_path / "wipe.json"
        path.write_text(json.dumps(plan))
        assert main(["faults", "validate", str(path),
                     "--fleet-size", "2"]) == 2
        assert "stall" in capsys.readouterr().err
