"""Kill-and-resume bit-identity and supervised run lifecycle tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.checkpoint import (
    CheckpointStore,
    RunSupervisor,
    SupervisorConfig,
)
from repro.checkpoint.snapshot import _HEADER
from repro.checkpoint.supervisor import MAX_RESTARTS
from repro.config import (
    INTEL_OPTANE,
    SAMSUNG_980PRO,
    LoaderConfig,
    SystemConfig,
)
from repro.core.gids import GIDSDataLoader
from repro.errors import RestartLimitError, SimulatedCrashError
from repro.faults import CrashEvent, FaultPlan
from repro.fullgraph import FullGraphConfig, FullGraphTrainer
from repro.graph.datasets import load_scaled
from repro.pipeline.export import report_to_dict
from repro.pipeline.runner import TrainingPipeline
from repro.training.graphsage import GraphSAGE

_DATASET = load_scaled("IGB-tiny", 0.05, seed=3)
_SYSTEM = SystemConfig(ssd=INTEL_OPTANE, num_ssds=1)
_CONFIG = LoaderConfig(
    gpu_cache_bytes=_DATASET.feature_data_bytes * 0.05,
    cpu_buffer_fraction=0.10,
    window_depth=4,
)
_FAULTY_PLAN = FaultPlan(
    seed=9, read_failure_rate=0.05, tail_latency_rate=0.02
)


def make_pipeline(fault_plan=None):
    loader = GIDSDataLoader(
        _DATASET, _SYSTEM, _CONFIG,
        batch_size=64, fanouts=(5, 5), seed=1, fault_plan=fault_plan,
    )
    model = GraphSAGE(_DATASET.feature_dim, 16, 8, num_layers=2, seed=7)
    return TrainingPipeline(loader, model, num_classes=8)


def make_fullgraph():
    return FullGraphTrainer(
        load_scaled("IGB-tiny", 0.001, seed=3),
        SystemConfig(ssd=SAMSUNG_980PRO, num_ssds=1),
        FullGraphConfig(
            hidden_dim=8, num_classes=4, hbm_budget_bytes=6e6,
            num_partitions=4,
        ),
    )


def reference_run(num_iterations, fault_plan=None):
    pipeline = make_pipeline(fault_plan)
    result = pipeline.train(num_iterations)
    return result, pipeline.report


class Killed(Exception):
    """Stands in for the process death in kill-point tests."""


def killed_and_resumed(num_iterations, kill_at, fault_plan=None):
    """Train, die after ``kill_at`` steps, resume in a fresh pipeline."""
    snapshot = {}

    def kill_hook(pipe):
        if pipe.completed_steps == kill_at:
            snapshot.update(pipe.state_dict())
            raise Killed

    first = make_pipeline(fault_plan)
    with pytest.raises(Killed):
        first.run_until(num_iterations, on_step=kill_hook)

    second = make_pipeline(fault_plan)
    second.load_state_dict(snapshot)
    result = second.train(num_iterations - kill_at)
    return result, second.report


class TestKillResumeProperty:
    @given(
        num_iterations=st.integers(min_value=2, max_value=18),
        kill_fraction=st.floats(min_value=0.01, max_value=0.99),
        faulty=st.booleans(),
    )
    @settings(max_examples=12, deadline=None)
    def test_losses_bit_identical(
        self, num_iterations, kill_fraction, faulty
    ):
        kill_at = min(
            num_iterations - 1, max(1, int(num_iterations * kill_fraction))
        )
        plan = _FAULTY_PLAN if faulty else None
        ref_result, ref_report = reference_run(num_iterations, plan)
        result, report = killed_and_resumed(num_iterations, kill_at, plan)
        assert result.losses == ref_result.losses
        assert (
            result.final_train_accuracy()
            == ref_result.final_train_accuracy()
        )
        assert result.completed_steps == num_iterations
        assert repr(report.state_dict()) == repr(ref_report.state_dict())


class TestSupervisor:
    def test_crash_and_resume_bit_identical(self, tmp_path):
        n = 24
        ref_result, ref_report = reference_run(n)
        plan = FaultPlan(crash_events=(CrashEvent(5), CrashEvent(16)))
        supervisor = RunSupervisor(
            lambda: make_pipeline(plan),
            CheckpointStore(str(tmp_path)),
            config=SupervisorConfig(checkpoint_every=4),
        )
        pipeline = supervisor.run(n)
        summary = supervisor.summary
        assert pipeline.losses == ref_result.losses
        assert (
            pipeline.final_train_accuracy()
            == ref_result.final_train_accuracy()
        )
        assert summary.crashes == 2
        assert summary.restarts == 2
        assert summary.restores == 2
        assert summary.snapshots_written > 0
        assert summary.snapshot_bytes > 0
        # The exported report matches the uninterrupted run except for the
        # checkpoint_summary block describing the supervision itself.
        supervised = report_to_dict(
            pipeline.report, checkpoint_summary=summary
        )
        unsupervised = report_to_dict(ref_report)
        supervised.pop("checkpoint_summary")
        unsupervised.pop("checkpoint_summary")
        assert supervised == unsupervised

    def test_corrupted_latest_snapshot_falls_back(self, tmp_path):
        n = 20
        ref_result, _ = reference_run(n)
        store = CheckpointStore(str(tmp_path), keep=3)

        pipeline = make_pipeline()

        def hook(pipe):
            if pipe.completed_steps % 4 == 0:
                store.save(pipe.completed_steps, pipe.state_dict())
            if pipe.completed_steps == 12:
                raise SimulatedCrashError("test kill")

        with pytest.raises(SimulatedCrashError):
            pipeline.run_until(n, on_step=hook)
        assert store.iterations() == [4, 8, 12]
        with open(store.path_for(12), "r+b") as handle:
            handle.seek(_HEADER.size + 8)
            handle.write(b"\xba\xad")

        supervisor = RunSupervisor(
            make_pipeline,
            store,
            config=SupervisorConfig(checkpoint_every=4),
        )
        pipeline = supervisor.run(n)
        assert supervisor.summary.corrupted_skipped == 1
        assert supervisor.summary.restores == 1
        assert pipeline.losses == ref_result.losses

    def test_restart_budget_exhausts(self, tmp_path):
        # One crash more than the budget allows restarts for.
        plan = FaultPlan(
            crash_events=tuple(CrashEvent(i) for i in (2, 4, 6, 8))
        )
        supervisor = RunSupervisor(
            lambda: make_pipeline(plan),
            CheckpointStore(str(tmp_path)),
            config=SupervisorConfig(checkpoint_every=3),
        )
        with pytest.raises(RestartLimitError):
            supervisor.run(20)
        assert supervisor.summary.crashes == MAX_RESTARTS + 1
        assert supervisor.summary.restarts == MAX_RESTARTS
        # Exponential backoff: 1 + 2 + 4 modeled seconds.
        assert supervisor.summary.backoff_s == 7.0

    def test_crash_events_fire_once(self, tmp_path):
        plan = FaultPlan(crash_events=(CrashEvent(6),))
        supervisor = RunSupervisor(
            lambda: make_pipeline(plan),
            CheckpointStore(str(tmp_path)),
            # cadence > crash point: the restart replays from scratch and
            # passes iteration 6 again, which must not re-crash
            config=SupervisorConfig(checkpoint_every=50),
        )
        pipeline = supervisor.run(12)
        assert supervisor.summary.crashes == 1
        assert pipeline.completed_steps == 12

    @pytest.mark.parametrize(
        "factory", [make_pipeline, make_fullgraph],
        ids=["pipeline", "fullgraph"],
    )
    def test_watchdog_flags_stalled_iteration(self, factory, tmp_path):
        # Any real step consumes modeled time, so an absurdly small
        # threshold trips the watchdog immediately, on every attempt: the
        # run dies with RestartLimitError once the restarts run out.
        supervisor = RunSupervisor(
            factory,
            CheckpointStore(str(tmp_path)),
            config=SupervisorConfig(
                checkpoint_every=4,
                watchdog_stall_threshold_s=1e-12,
            ),
        )
        with pytest.raises(RestartLimitError):
            supervisor.run(10)
        assert supervisor.summary.watchdog_stalls == MAX_RESTARTS + 1

    def test_completed_run_resumes_to_noop(self, tmp_path):
        n = 10
        supervisor = RunSupervisor(
            make_pipeline,
            CheckpointStore(str(tmp_path)),
            config=SupervisorConfig(checkpoint_every=5),
        )
        first = supervisor.run(n)
        again = RunSupervisor(
            make_pipeline,
            CheckpointStore(str(tmp_path)),
            config=SupervisorConfig(checkpoint_every=5),
        ).run(n)
        assert again.losses == first.losses
        assert again.completed_steps == n


class TestInterruptedStepNeverRecorded:
    def test_loss_appended_only_after_step_completes(self):
        pipeline = make_pipeline()
        model = pipeline.model
        original = model.train_step
        calls = {"n": 0}

        def exploding(batch, features, labels):
            if calls["n"] == 3:
                raise RuntimeError("die mid-step")
            calls["n"] += 1
            return original(batch, features, labels)

        model.train_step = exploding
        with pytest.raises(RuntimeError):
            pipeline.train(10)
        assert pipeline.completed_steps == 3
        assert len(pipeline.losses) == 3
