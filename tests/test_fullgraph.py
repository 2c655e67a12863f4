"""Full-graph partition sweeps: planner, scheduler, offload, trainer.

The two load-bearing guarantees are exercised property-style:

* every sweep epoch computes every node of every layer **exactly once**
  (the exactness invariant that separates full-graph training from
  sampling), and
* a run killed at *any* partition-step boundary and resumed from its
  ``state_dict`` replays a **bit-identical** loss trajectory, report and
  final model.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import SAMSUNG_980PRO, SystemConfig, load_scaled
from repro.cli import main
from repro.errors import (
    CheckpointError,
    ConfigError,
    FullGraphError,
)
from repro.faults import FaultPlan
from repro.fullgraph import (
    ActivationStore,
    FullGraphConfig,
    FullGraphTrainer,
    MemoryPlanner,
    PartitionSweepScheduler,
)
from repro.graph.csr import from_coo
from repro.graph.generators import power_law_graph
from repro.graph.partition import halo_nodes, partition_graph
from repro.pipeline.export import EXPORT_SCHEMA_VERSION, report_to_dict
from repro.sampling.minibatch import MiniBatch, SampledLayer
from tests.oracles.graphsage_reference import ReferenceGraphSAGE
from tests.test_readpath_golden import _sha

#: Budget that fits a few partitions but not the activation arrays, so
#: the offload path is exercised (see the planner sizing in the tests).
OFFLOAD_BUDGET = 6e6


@pytest.fixture(scope="module")
def dataset():
    """A 1000-node IGB-tiny replica (feature dim 1024)."""
    return load_scaled("IGB-tiny", 0.001, seed=3)


@pytest.fixture(scope="module")
def system():
    return SystemConfig(ssd=SAMSUNG_980PRO, num_ssds=1)


def run_epochs(trainer, epochs):
    """Run ``epochs`` whole sweeps; returns the trainer."""
    trainer.run_steps(epochs * trainer.steps_per_epoch)
    return trainer


def make_config(**overrides):
    base = dict(
        hidden_dim=8,
        num_classes=4,
        num_layers=2,
        hbm_budget_bytes=OFFLOAD_BUDGET,
        num_partitions=4,
    )
    base.update(overrides)
    return FullGraphConfig(**base)


# ---------------------------------------------------------------------------
# Memory planner


class TestMemoryPlanner:
    def test_picks_smallest_fitting_candidate(self):
        planner = MemoryPlanner(1000, [1024, 8, 4], 6e6)
        plan = planner.plan()
        assert planner.fits(plan.num_partitions)
        # Every smaller candidate must genuinely not fit.
        for cand in (1, 2, 3):
            if cand < plan.num_partitions:
                assert not planner.fits(cand)
        assert not plan.forced

    def test_workspace_shrinks_with_partition_count(self):
        planner = MemoryPlanner(1000, [1024, 8, 4], 6e6)
        sizes = [planner.workspace_bytes(p) for p in (1, 2, 4, 8, 16)]
        assert sizes == sorted(sizes, reverse=True)

    def test_forced_count_is_respected_even_over_budget(self):
        planner = MemoryPlanner(1000, [1024, 8, 4], 1e5)
        plan = planner.plan(num_partitions=2)
        assert plan.num_partitions == 2
        assert plan.forced
        assert plan.workspace_bytes > plan.hbm_budget_bytes

    def test_huge_budget_makes_activations_resident(self):
        plan = MemoryPlanner(1000, [1024, 8, 4], 1e12).plan()
        assert plan.num_partitions == 1
        assert plan.activations_resident

    def test_nothing_fits_raises(self):
        with pytest.raises(FullGraphError):
            MemoryPlanner(100_000, [1024, 64, 4], 1e4).plan()

    def test_validation(self):
        with pytest.raises(FullGraphError):
            MemoryPlanner(0, [4, 2], 1e6)
        with pytest.raises(FullGraphError):
            MemoryPlanner(10, [4], 1e6)
        with pytest.raises(FullGraphError):
            MemoryPlanner(10, [4, 2], 0.0)


# ---------------------------------------------------------------------------
# Activation store


class TestActivationStore:
    def test_resident_moves_no_storage_bytes(self):
        store = ActivationStore(10, resident=True)
        store.allocate(0, 4)
        rows = np.array([1, 3, 5])
        spilled = store.write_rows(0, rows, np.ones((3, 4)))
        assert spilled == 0
        values, reloaded = store.read_rows(0, rows)
        assert reloaded == 0
        assert np.array_equal(values, np.ones((3, 4)))
        assert store.spill_pages == 0 and store.reload_pages == 0

    def test_offloaded_counts_bytes_and_pages(self):
        store = ActivationStore(10, resident=False, page_bytes=64)
        store.allocate(0, 4)
        rows = np.array([0, 2, 4])
        spilled = store.write_rows(0, rows, np.ones((3, 4)))
        assert spilled == 3 * 4 * 8
        assert store.spill_pages == -(-spilled // 64)
        _, reloaded = store.read_rows(0, rows)
        assert reloaded == spilled
        assert store.charge_scratch(100, read=True) == 100
        assert store.charge_scratch(0, read=False) == 0

    def test_values_exact_regardless_of_residency(self):
        rng = np.random.default_rng(0)
        block = rng.normal(size=(5, 3))
        for resident in (True, False):
            store = ActivationStore(8, resident=resident)
            store.allocate(1, 3)
            store.write_rows(1, np.arange(5), block)
            values, _ = store.read_rows(1, np.arange(5))
            assert np.array_equal(values, block)

    def test_state_dict_roundtrip_is_exact(self):
        store = ActivationStore(6, resident=False)
        store.allocate(0, 2)
        store.write_rows(0, np.arange(6), np.random.default_rng(1).normal(size=(6, 2)))
        clone = ActivationStore(6, resident=True)
        clone.load_state_dict(store.state_dict())
        assert clone.resident is False
        assert np.array_equal(clone.array(0), store.array(0))
        assert clone.spilled_bytes == store.spilled_bytes

    def test_wrong_graph_checkpoint_rejected(self):
        store = ActivationStore(6, resident=False)
        other = ActivationStore(7, resident=False)
        with pytest.raises(CheckpointError):
            other.load_state_dict(store.state_dict())

    def test_missing_layer_raises(self):
        store = ActivationStore(6, resident=False)
        with pytest.raises(FullGraphError):
            store.array(0)
        store.allocate(0, 2)
        store.drop(0)
        with pytest.raises(FullGraphError):
            store.array(0)


# ---------------------------------------------------------------------------
# Sweep scheduler


class TestScheduler:
    @pytest.fixture(scope="class")
    def graph(self):
        return power_law_graph(200, 1_500, skew=0.8, seed=5)

    @pytest.fixture(scope="class")
    def sched(self, graph):
        partition = partition_graph(graph, 4, seed=0)
        return PartitionSweepScheduler(graph, partition, num_layers=3)

    def test_epoch_shape(self, sched):
        assert sched.steps_per_epoch == 2 * 3 * 4
        steps = sched.steps()
        forward = steps[: 3 * 4]
        backward = steps[3 * 4 :]
        assert [s.phase for s in forward] == ["forward"] * 12
        assert [s.phase for s in backward] == ["backward"] * 12
        # Forward sweeps layers ascending; backward mirrors exactly.
        assert [(s.layer, s.part) for s in backward] == [
            (s.layer, s.part) for s in reversed(forward)
        ]
        # Step index wraps across epochs.
        assert sched.step(sched.steps_per_epoch) == sched.step(0)

    def test_members_partition_the_graph(self, sched, graph):
        counts = sched.visitation_counts()
        assert np.array_equal(counts, np.ones(graph.num_nodes, dtype=np.int64))

    def test_block_edges_preserve_csr_order(self, sched, graph):
        src = graph.indices
        dst = np.repeat(
            np.arange(graph.num_nodes, dtype=np.int64), graph.degrees
        )
        seen = []
        for p in range(4):
            bsrc, bdst = sched.block_edges(p)
            assert np.all(sched.partition.parts[bdst] == p)
            seen.append(np.stack([bsrc, bdst]))
        # The blocks partition the edge set, and within each destination
        # the edge order equals the monolithic CSR order (bit-identical
        # aggregation depends on this).
        total = sum(b.shape[1] for b in seen)
        assert total == graph.num_edges
        for p in range(4):
            bsrc, bdst = sched.block_edges(p)
            mask = sched.partition.parts[dst] == p
            assert np.array_equal(bsrc, src[mask])
            assert np.array_equal(bdst, dst[mask])

    def test_halo_is_outside_in_neighbors(self, sched, graph):
        for p in range(4):
            halo = sched.halo(p)
            expected = halo_nodes(graph, sched.partition, p)
            assert np.array_equal(halo, expected)
            assert not np.isin(halo, sched.members(p)).any()

    def test_validation(self, graph):
        partition = partition_graph(graph, 2, seed=0)
        with pytest.raises(FullGraphError):
            PartitionSweepScheduler(graph, partition, num_layers=0)
        with pytest.raises(FullGraphError):
            sched = PartitionSweepScheduler(graph, partition, 1)
            sched.step(-1)


@st.composite
def graph_and_parts(draw):
    n = draw(st.integers(min_value=2, max_value=60))
    m = draw(st.integers(min_value=0, max_value=200))
    src = draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1),
            min_size=m, max_size=m,
        )
    )
    dst = draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1),
            min_size=m, max_size=m,
        )
    )
    parts = draw(st.integers(min_value=1, max_value=min(8, n)))
    layers = draw(st.integers(min_value=1, max_value=3))
    graph = from_coo(
        np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64), n
    )
    return graph, parts, layers


class TestSweepProperties:
    @given(graph_and_parts())
    @settings(max_examples=50, deadline=None)
    def test_one_epoch_touches_every_node_exactly_once(self, case):
        graph, parts, layers = case
        partition = partition_graph(graph, parts, seed=1)
        sched = PartitionSweepScheduler(graph, partition, layers)
        assert np.array_equal(
            sched.visitation_counts(),
            np.ones(graph.num_nodes, dtype=np.int64),
        )
        # ...and the schedule visits every (phase, layer, part) once.
        combos = {(s.phase, s.layer, s.part) for s in sched.steps()}
        assert len(combos) == sched.steps_per_epoch
        assert sched.steps_per_epoch == 2 * layers * partition.num_parts


# ---------------------------------------------------------------------------
# Trainer: exactness


def monolithic_reference(dataset, trainer, config):
    """The unblocked full-graph gradient step on identical weights.

    Every node is an input and every edge feeds every layer, but only the
    training seeds reach the loss: the oracle's unpruned mini-batch step
    computes every layer on every node, as the sweep does.
    """
    graph = dataset.graph
    src = graph.indices
    dst = np.repeat(np.arange(graph.num_nodes, dtype=np.int64), graph.degrees)
    layer = SampledLayer(src=src, dst=dst)
    batch = MiniBatch(
        seeds=trainer.train_seeds,
        layers=tuple(layer for _ in range(config.num_layers)),
        input_nodes=np.arange(graph.num_nodes, dtype=np.int64),
        num_sampled=graph.num_nodes,
    )
    model = ReferenceGraphSAGE(
        dataset.feature_dim,
        config.hidden_dim,
        config.num_classes,
        num_layers=config.num_layers,
        aggregator=config.aggregator,
        lr=config.lr,
        momentum=config.momentum,
        seed=config.model_seed,
    )
    return model, batch


class TestExactness:
    @pytest.mark.parametrize("aggregator", ["mean", "gcn", "pool"])
    def test_sweep_equals_monolithic_full_graph_step(
        self, dataset, system, aggregator
    ):
        config = make_config(aggregator=aggregator)
        trainer = FullGraphTrainer(dataset, system, config)
        model, batch = monolithic_reference(dataset, trainer, config)
        loss, grads = model.gradients(
            batch, trainer._features, trainer._labels[trainer.train_seeds]
        )
        result = run_epochs(trainer, 1)
        assert result.losses[0] == pytest.approx(loss, rel=1e-12)
        model.apply_gradients(grads)
        for ours, ref in zip(trainer.model.layers, model.layers):
            for name in ("w_self", "w_neigh", "bias"):
                assert np.allclose(
                    getattr(ours, name), getattr(ref, name),
                    rtol=1e-9, atol=1e-12,
                )

    def test_loss_trajectory_independent_of_partition_count(
        self, dataset, system
    ):
        runs = {}
        for parts in (2, 6):
            trainer = FullGraphTrainer(
                dataset, system, make_config(num_partitions=parts)
            )
            runs[parts] = run_epochs(trainer, 2)
        assert np.allclose(
            runs[2].losses, runs[6].losses, rtol=1e-9, atol=1e-12
        )
        assert runs[2].accuracies == runs[6].accuracies

    def test_residency_does_not_change_numerics(self, dataset, system):
        offload = FullGraphTrainer(dataset, system, make_config())
        resident = FullGraphTrainer(
            dataset, system, make_config(hbm_budget_bytes=1e12,
                                         num_partitions=4)
        )
        assert not offload.plan.activations_resident
        assert resident.plan.activations_resident
        a = run_epochs(offload, 2)
        b = run_epochs(resident, 2)
        # Same partition count -> bit-identical math; only time differs.
        assert a.losses == b.losses
        assert a.report.e2e_time != b.report.e2e_time


# ---------------------------------------------------------------------------
# Trainer: kill/resume bit-identity


def straight_run(dataset, system, epochs=2, **overrides):
    trainer = FullGraphTrainer(dataset, system, make_config(**overrides))
    result = run_epochs(trainer, epochs)
    return trainer, result


class TestKillResume:
    @pytest.fixture(scope="class")
    def baseline(self, dataset, system):
        return straight_run(dataset, system)

    @pytest.mark.parametrize("kill_step", [1, 8, 16, 17, 23, 31])
    def test_resume_anywhere_is_bit_identical(
        self, dataset, system, baseline, kill_step
    ):
        base_trainer, base = baseline
        victim = FullGraphTrainer(dataset, system, make_config())
        victim.run_steps(kill_step)
        state = victim.state_dict()

        resumed = FullGraphTrainer(dataset, system, make_config())
        resumed.load_state_dict(state)
        total = 2 * base_trainer.steps_per_epoch
        resumed.run_steps(total - kill_step)

        assert resumed.losses == base.losses
        assert resumed.accuracies == base.accuracies
        assert resumed.epoch_end_times_s == base.epoch_end_times_s
        assert resumed.report.e2e_time == base.report.e2e_time
        assert (
            resumed.report.state_dict() == base.report.state_dict()
        )
        for ours, ref in zip(resumed.model.layers, base_trainer.model.layers):
            for name in ("w_self", "w_neigh", "bias"):
                assert np.array_equal(getattr(ours, name), getattr(ref, name))

    @given(kill=st.integers(min_value=0, max_value=31))
    @settings(max_examples=8, deadline=None)
    def test_property_resume_at_any_boundary(
        self, dataset, system, baseline, kill
    ):
        base_trainer, base = baseline
        victim = FullGraphTrainer(dataset, system, make_config())
        victim.run_steps(kill)
        resumed = FullGraphTrainer(dataset, system, make_config())
        resumed.load_state_dict(victim.state_dict())
        resumed.run_steps(2 * base_trainer.steps_per_epoch - kill)
        assert resumed.losses == base.losses
        assert resumed.report.e2e_time == base.report.e2e_time

    def test_resume_with_faults_and_verification(self, dataset, system):
        plan = FaultPlan(
            seed=11,
            read_failure_rate=0.05,
            tail_latency_rate=0.05,
            bitflip_rate=0.01,
        )

        def build():
            return FullGraphTrainer(
                dataset,
                system,
                make_config(),
                fault_plan=plan,
                verify_reads="sample",
            )

        straight = build()
        expected = run_epochs(straight, 2)

        victim = build()
        victim.run_steps(13)
        resumed = build()
        resumed.load_state_dict(victim.state_dict())
        resumed.run_steps(2 * straight.steps_per_epoch - 13)

        assert resumed.losses == expected.losses
        assert resumed.report.e2e_time == expected.report.e2e_time
        counters = expected.report.counters
        assert counters.injected_faults > 0
        assert counters.verified_pages > 0

    @pytest.mark.parametrize("kill_step", [13, 14, 15])
    def test_no_input_gradient_in_the_layer0_backward_window(
        self, dataset, system, baseline, kill_step
    ):
        """Layer 0's input gradient would be a gradient with respect to
        the features; nothing reads one, so none is held or snapshotted."""
        base_trainer, base = baseline
        assert base_trainer.scheduler.step(kill_step - 1).layer == 0
        assert base_trainer.scheduler.step(kill_step - 1).phase == "backward"
        victim = FullGraphTrainer(dataset, system, make_config())
        victim.run_steps(kill_step)
        state = victim.state_dict()
        assert state["d_prev"] is None
        assert state["d_cur"].shape == (dataset.num_nodes, 8)

        resumed = FullGraphTrainer(dataset, system, make_config())
        resumed.load_state_dict(state)
        resumed.run_steps(2 * base_trainer.steps_per_epoch - kill_step)
        assert resumed.losses == base.losses
        assert _sha(resumed.state_dict()) == _sha(base_trainer.state_dict())

    def test_older_snapshot_with_an_input_gradient_still_resumes(
        self, dataset, system, baseline
    ):
        """Snapshots written before the buffer was dropped carry an
        ``(n, d_in)`` array under ``d_prev`` in that window."""
        base_trainer, _ = baseline
        victim = FullGraphTrainer(dataset, system, make_config())
        victim.run_steps(13)
        state = victim.state_dict()
        rng = np.random.default_rng(0)
        state["d_prev"] = rng.standard_normal(
            (dataset.num_nodes, dataset.feature_dim)
        )

        resumed = FullGraphTrainer(dataset, system, make_config())
        resumed.load_state_dict(state)
        resumed.run_steps(1)
        assert resumed.state_dict()["d_prev"] is None  # dropped, not kept
        resumed.run_steps(2 * base_trainer.steps_per_epoch - 14)
        assert _sha(resumed.state_dict()) == _sha(base_trainer.state_dict())

    def test_wrong_loader_snapshot_rejected(self, dataset, system):
        trainer = FullGraphTrainer(dataset, system, make_config())
        state = trainer.state_dict()
        state["loader"] = "GIDS"
        with pytest.raises(CheckpointError):
            trainer.load_state_dict(state)


# ---------------------------------------------------------------------------
# Trainer: offload economics and faults


class TestOffloadAccounting:
    def test_spills_cost_storage_time(self, dataset, system):
        offload = FullGraphTrainer(dataset, system, make_config())
        resident = FullGraphTrainer(
            dataset, system,
            make_config(hbm_budget_bytes=1e12, num_partitions=4),
        )
        a = run_epochs(offload, 1)
        b = run_epochs(resident, 1)
        assert offload.traffic.act_spill_bytes > 0
        assert resident.traffic.act_spill_bytes == 0
        assert a.report.e2e_time > b.report.e2e_time
        # Storage counters only see storage traffic.
        assert (
            a.report.counters.storage_bytes
            > b.report.counters.storage_bytes
        )

    def test_sequential_path_respects_bandwidth_bounds(self, dataset, system):
        trainer = FullGraphTrainer(dataset, system, make_config())
        run_epochs(trainer, 1)
        t = trainer.traffic
        ssd = system.ssd
        # Streams can never beat the device's sequential bandwidth...
        assert t.act_spill_s >= t.act_spill_bytes / ssd.seq_write_bandwidth
        assert t.feat_seq_s >= t.feat_seq_bytes / ssd.seq_read_bandwidth
        assert t.act_reload_s > 0
        # ...and layer-0 halo gathers stay on the random 4K path.
        assert t.feat_halo_bytes > 0 and t.feat_halo_s > 0

    def test_faults_slow_the_run_and_count(self, dataset, system):
        clean = FullGraphTrainer(dataset, system, make_config())
        faulty = FullGraphTrainer(
            dataset,
            system,
            make_config(),
            fault_plan=FaultPlan(seed=2, read_failure_rate=0.2,
                                 tail_latency_rate=0.2),
        )
        a = run_epochs(clean, 1)
        b = run_epochs(faulty, 1)
        assert b.report.e2e_time > a.report.e2e_time
        assert b.report.counters.injected_faults > 0
        assert b.report.counters.latency_spikes > 0
        assert a.losses == b.losses  # faults never change the math

    def test_corruption_is_detected_on_reload(self, dataset, system):
        trainer = FullGraphTrainer(
            dataset,
            system,
            make_config(),
            fault_plan=FaultPlan(seed=3, bitflip_rate=0.3),
            verify_reads="full",
        )
        result = run_epochs(trainer, 1)
        counters = result.report.counters
        assert counters.verified_pages > 0
        assert counters.corrupt_detected > 0
        assert counters.corrupt_repaired + counters.corrupt_quarantined > 0


# ---------------------------------------------------------------------------
# Trainer: planning, results, export


class TestTrainerPlanning:
    def test_auto_plan_respects_actual_halo(self, dataset, system):
        trainer = FullGraphTrainer(
            dataset, system,
            make_config(num_partitions=None, hbm_budget_bytes=6e6),
        )
        assert (
            trainer._measured_workspace(trainer.partition)
            <= trainer.hbm_budget_bytes
        )

    def test_replan_runs_the_plan_it_returns(self, system):
        """3 MiB: the measured halo breaks the fit at 24, 32, 48 and 64
        parts; the re-plan goes on past a fourth try and partitions at
        the count its plan names."""
        trainer = FullGraphTrainer(
            load_scaled("IGB-tiny", 0.02, seed=0),
            system,
            FullGraphConfig(hbm_budget_bytes=3 * 2**20),
        )
        assert trainer.partition.num_parts == trainer.plan.num_partitions
        assert trainer.plan.num_partitions > 64
        assert (
            trainer._measured_workspace(trainer.partition)
            <= trainer.hbm_budget_bytes
        )

    def test_budget_no_count_fits_is_refused(self, system, capsys):
        """1.5 MiB: the estimate picks 96 parts, the measured halo fits
        neither 96 nor 128, and no larger count is left to try."""
        with pytest.raises(FullGraphError, match="--hbm-mb"):
            FullGraphTrainer(
                load_scaled("IGB-tiny", 0.02, seed=0),
                system,
                FullGraphConfig(hbm_budget_bytes=1.5 * 2**20),
            )
        argv = [
            "fullgraph", "--dataset", "IGB-tiny", "--scale", "0.02",
            "--epochs", "1", "--hbm-mb", "1.5",
        ]
        assert main(argv) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and "--hbm-mb" in line

    def test_run_to_accuracy_stops_at_target(self, dataset, system):
        trainer = FullGraphTrainer(dataset, system, make_config())
        assert trainer.run_to_accuracy(0.5, max_epochs=20) is trainer
        block = trainer.fullgraph_block(target_accuracy=0.5)
        assert block["target_accuracy"] == 0.5
        if block["time_to_target_s"] is not None:
            assert trainer.accuracies[-1] >= 0.5
            assert block["time_to_target_s"] == trainer.epoch_end_times_s[-1]

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigError):
            FullGraphConfig(num_layers=0)
        with pytest.raises(ConfigError):
            FullGraphConfig(aggregator="sum")
        with pytest.raises(ConfigError):
            FullGraphConfig(hbm_budget_bytes=-1.0)

    def test_run_args_validated(self, dataset, system):
        trainer = FullGraphTrainer(dataset, system, make_config())
        with pytest.raises(FullGraphError):
            trainer.run_steps(-1)
        with pytest.raises(FullGraphError):
            trainer.run_to_accuracy(0.5, max_epochs=0)
        with pytest.raises(FullGraphError):
            trainer.run_to_accuracy(1.5)


class TestExport:
    @pytest.fixture(scope="class")
    def exported(self, dataset, system):
        trainer = FullGraphTrainer(
            dataset, system, make_config(num_partitions=None)
        )
        result = run_epochs(trainer, 2)
        summary = report_to_dict(
            result.report, system=system, fullgraph=result.fullgraph_block()
        )
        return trainer, result, summary

    def test_schema_v9_with_fullgraph_block(self, exported):
        _, result, summary = exported
        assert summary["schema_version"] == EXPORT_SCHEMA_VERSION
        block = summary["fullgraph"]
        assert block["epochs_completed"] == 2
        assert block["epoch_losses"] == result.losses
        assert block["steps_per_epoch"] == (
            2 * block["num_layers"] * block["num_partitions"]
        )
        stats = block["partition"]["per_part"]
        assert sum(s["nodes"] for s in stats) == 1000
        from repro.observatory.attribution import validate_summary

        validate_summary(summary)

    def test_attribution_sequential_verdict_and_2x_hbm_row(self, exported):
        trainer, _, summary = exported
        attribution = summary["attribution"]
        assert attribution["bottleneck"] == "ssd.sequential"
        assert "sequential-read-bound" in attribution["verdict"]
        rows = {r["scenario"]: r for r in attribution["what_if"]}
        assert "2x HBM" in rows
        row = rows["2x HBM"]
        what_if = summary["fullgraph"]["what_if_2x_hbm"]
        assert row["predicted_e2e_seconds"] == pytest.approx(
            what_if["predicted_e2e_seconds"]
        )
        # Doubling the 6 MB budget lets the planner keep activations
        # resident, so the predicted epoch is strictly faster.
        assert what_if["activations_resident"]
        assert what_if["speedup"] > 1.0
        assert row["delta_seconds"] < 0.0

    def test_minibatch_reports_have_no_fullgraph_block(self, exported):
        trainer, result, _ = exported
        bare = report_to_dict(result.report)
        assert bare["fullgraph"] is None


class TestCLIIntegrityRule:
    """``repro fullgraph`` gets its injector and verifier from
    ``StorageStack``: one existence rule and one seeding rule for the
    integrity plane, the loader's."""

    @staticmethod
    def _integrity(tmp_path, capsys, plan: dict, *flags: str) -> tuple:
        import json

        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan))
        code = main(
            ["fullgraph", "--dataset", "IGB-tiny", "--scale", "0.002",
             "--epochs", "1", "--hbm-mb", "4", "--format", "json",
             "--fault-plan", str(path), *flags]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        return summary["integrity_summary"], summary["e2e_seconds"]

    def test_corruption_plan_is_drawn_with_verify_off(self, tmp_path, capsys):
        """A plan that can corrupt reads brings the verifier up even with
        ``--verify-reads off``: every spill page read goes through the
        corruption draw and is reported unverified.  (The hand-built copy
        built none, so the storm was silently never drawn.)"""
        storm = {
            "seed": 11,
            "corruption_events": [
                {"device": 0, "at_time_s": 0.0, "page_fraction": 0.05}
            ],
        }
        stormy, stormy_s = self._integrity(tmp_path, capsys, storm)
        assert stormy["unverified_pages"] > 0
        assert stormy["verified_pages"] == stormy["integrity_rereads"] == 0
        # Mode "off" verifies nothing and re-reads nothing: time holds.
        clean, clean_s = self._integrity(tmp_path, capsys, {"seed": 11})
        assert clean["unverified_pages"] == 0
        assert stormy_s == clean_s

    def test_sample_stream_is_seeded_by_the_plan(self, tmp_path, capsys):
        """``--verify-reads sample`` draws from the plan's seed, as the
        loader's verifier does — it used to ignore it (seed 0 always)."""
        sampled = [
            self._integrity(
                tmp_path, capsys, {"seed": seed, "bitflip_rate": 1e-4},
                "--verify-reads", "sample",
            )[0]
            for seed in (1, 2)
        ]
        total = [s["verified_pages"] + s["unverified_pages"] for s in sampled]
        assert total[0] == total[1] > 0
        assert sampled[0]["verified_pages"] != sampled[1]["verified_pages"]
