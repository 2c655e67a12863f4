"""Tests for the storage high-availability layer.

Covers the three moving parts of :mod:`repro.storage_ha` — placement,
fail-slow health, online rebuild — their :class:`StorageHA` coordinator,
the stale-generation contract on :class:`FaultySSDArray`, the loader and
serving integrations, and the CLI entry points (``repro storage`` and
``faults validate --num-ssds``).
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    INTEL_OPTANE,
    DeviceEvent,
    FaultInjector,
    FaultPlan,
    FaultySSDArray,
    GIDSDataLoader,
    SSDArray,
    SystemConfig,
)
from repro.cli import main
from repro.errors import CheckpointError, ConfigError
from repro.storage_ha import (
    HEALTH_STATES,
    DeviceHealthMonitor,
    ParityPlacement,
    Rebuilder,
    ReplicatedPlacement,
    StorageHA,
    make_placement,
)

_LAT = INTEL_OPTANE.read_latency_s


def _faulty_array(num_ssds, *events):
    plan = FaultPlan(device_events=tuple(events))
    return FaultySSDArray(
        SSDArray(INTEL_OPTANE, num_ssds=num_ssds), FaultInjector(plan)
    )


def _make_ha(num_ssds, fault_array, **kwargs):
    kwargs.setdefault("total_pages", 0)
    return StorageHA(
        num_devices=num_ssds,
        base_latency_s=_LAT,
        fault_array=fault_array,
        **kwargs,
    )


class TestReplicatedPlacement:
    def test_primary_matches_stripe_layout(self):
        """Redundancy never moves the first copy off ``p % N``."""
        pages = np.arange(1000, dtype=np.int64)
        for replication in (1, 2, 3):
            placement = ReplicatedPlacement(4, replication, seed=7)
            assert (placement.primary_device(pages) == pages % 4).all()

    def test_copies_distinct_and_primary_first(self):
        placement = ReplicatedPlacement(4, 3, seed=1)
        pages = np.arange(500, dtype=np.int64)
        copies = placement.copies(pages)
        assert copies.shape == (500, 3)
        assert (copies[:, 0] == pages % 4).all()
        assert ((copies >= 0) & (copies < 4)).all()
        for row in copies:
            assert len(set(row.tolist())) == 3

    def test_replication_one_is_a_single_column(self):
        placement = ReplicatedPlacement(4, 1)
        copies = placement.copies(np.arange(16))
        assert copies.shape == (16, 1)

    def test_copies_deterministic_in_seed(self):
        pages = np.arange(200, dtype=np.int64)
        a = ReplicatedPlacement(8, 2, seed=3).copies(pages)
        b = ReplicatedPlacement(8, 2, seed=3).copies(pages)
        c = ReplicatedPlacement(8, 2, seed=4).copies(pages)
        assert (a == b).all()
        assert (a != c).any()

    def test_pages_on_device_partitions_all_copies(self):
        placement = ReplicatedPlacement(4, 2, seed=0)
        total = 400
        counted = sum(
            placement.pages_on_device(d, total) for d in range(4)
        )
        assert counted == total * 2  # every copy counted exactly once

    def test_overhead_and_rebuild_cost(self):
        placement = ReplicatedPlacement(4, 3)
        assert placement.width == 3
        assert placement.storage_overhead_factor == 3.0
        assert placement.reconstruct_reads_per_page == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_devices=0, replication_factor=1),
            dict(num_devices=4, replication_factor=0),
            dict(num_devices=4, replication_factor=5),
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ReplicatedPlacement(**kwargs)

    def test_pages_on_device_rejects_out_of_range(self):
        with pytest.raises(ConfigError):
            ReplicatedPlacement(4, 2).pages_on_device(4, 100)


class TestParityPlacement:
    def test_group_geometry(self):
        placement = ParityPlacement(4)
        assert placement.k == 3
        assert placement.width == 1
        assert placement.storage_overhead_factor == pytest.approx(4 / 3)
        assert placement.reconstruct_reads_per_page == 3

    def test_data_never_shares_its_parity_device(self):
        placement = ParityPlacement(5)
        pages = np.arange(2000, dtype=np.int64)
        data = placement.primary_device(pages)
        parity = placement.parity_device(pages)
        assert ((data >= 0) & (data < 5)).all()
        assert (data != parity).all()

    def test_parity_rotates_across_stripes(self):
        placement = ParityPlacement(4)
        pages = np.arange(placement.k * 8, dtype=np.int64)
        parity = placement.parity_device(pages)
        assert (parity == (pages // placement.k) % 4).all()
        # Rotation spreads parity over every device.
        assert set(parity.tolist()) == {0, 1, 2, 3}

    def test_pages_on_device_partitions_data(self):
        placement = ParityPlacement(4)
        total = 600
        counted = sum(
            placement.pages_on_device(d, total) for d in range(4)
        )
        assert counted == total  # single data copy per page

    def test_needs_two_devices(self):
        with pytest.raises(ConfigError):
            ParityPlacement(1)


class TestMakePlacement:
    def test_modes(self):
        assert make_placement(4).mode == "replication"
        assert isinstance(
            make_placement(4, replication=2), ReplicatedPlacement
        )
        assert isinstance(make_placement(4, parity=True), ParityPlacement)

    def test_modes_are_mutually_exclusive(self):
        with pytest.raises(ConfigError, match="mutually exclusive"):
            make_placement(4, replication=2, parity=True)


class TestDeviceHealthMonitor:
    def _observe(self, monitor, factors, *, now=0.0, dead=(), stale=()):
        n = monitor.num_devices
        active = np.ones(n, dtype=bool)
        active[list(dead)] = False
        stale_mask = np.zeros(n, dtype=bool)
        stale_mask[list(stale)] = True
        monitor.observe(now, active, np.asarray(factors, float), stale_mask)

    def test_starts_healthy(self):
        monitor = DeviceHealthMonitor(4, _LAT)
        assert monitor.states() == ["healthy"] * 4

    def test_extreme_skew_degrades_immediately(self):
        monitor = DeviceHealthMonitor(4, _LAT)
        self._observe(monitor, [10.0, 1.0, 1.0, 1.0])
        assert monitor.state_of(0) == "degraded"
        assert monitor.degraded_mask().tolist() == [True, False, False, False]

    def test_moderate_skew_needs_patience(self):
        """A mild fail-slow walks healthy -> suspect -> degraded."""
        monitor = DeviceHealthMonitor(4, _LAT)
        self._observe(monitor, [4.0, 1.0, 1.0, 1.0], now=0.1)
        assert monitor.state_of(0) == "suspect"
        self._observe(monitor, [4.0, 1.0, 1.0, 1.0], now=0.2)
        assert monitor.state_of(0) == "suspect"
        self._observe(monitor, [4.0, 1.0, 1.0, 1.0], now=0.3)
        assert monitor.state_of(0) == "degraded"
        kinds = [(t["from"], t["to"]) for t in monitor.transitions]
        assert kinds == [("healthy", "suspect"), ("suspect", "degraded")]

    def test_recovered_latency_heals_the_device(self):
        monitor = DeviceHealthMonitor(4, _LAT)
        for step in range(3):
            self._observe(monitor, [4.0, 1.0, 1.0, 1.0], now=0.1 * step)
        assert monitor.state_of(0) == "degraded"
        for step in range(10):
            self._observe(monitor, [1.0, 1.0, 1.0, 1.0], now=1.0 + step)
        assert monitor.state_of(0) == "healthy"

    def test_dead_and_rebuilding_come_from_masks(self):
        monitor = DeviceHealthMonitor(4, _LAT)
        self._observe(monitor, [1.0] * 4, dead=[2])
        assert monitor.state_of(2) == "dead"
        self._observe(monitor, [1.0] * 4, stale=[2], now=1.0)
        assert monitor.state_of(2) == "rebuilding"
        assert all(s in HEALTH_STATES for s in monitor.states())

    def test_transition_record_shape(self):
        monitor = DeviceHealthMonitor(2, _LAT)
        self._observe(monitor, [1.0, 1.0], dead=[1], now=0.25)
        (transition,) = monitor.transitions
        assert transition == {
            "device": 1,
            "from": "healthy",
            "to": "dead",
            "at_time_s": 0.25,
        }

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_devices=0, base_latency_s=_LAT),
            dict(num_devices=2, base_latency_s=0.0),
            dict(num_devices=2, base_latency_s=_LAT, alpha=0.0),
            dict(num_devices=2, base_latency_s=_LAT, suspect_skew=0.9),
            dict(
                num_devices=2, base_latency_s=_LAT,
                suspect_skew=3.0, degraded_skew=2.0,
            ),
            dict(num_devices=2, base_latency_s=_LAT, patience=0),
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            DeviceHealthMonitor(**kwargs)

    def test_state_roundtrip(self):
        monitor = DeviceHealthMonitor(4, _LAT)
        for step in range(3):
            self._observe(monitor, [4.0, 1.0, 1.0, 1.0], now=0.1 * step)
        clone = DeviceHealthMonitor(4, _LAT)
        clone.load_state_dict(monitor.state_dict())
        assert clone.states() == monitor.states()
        assert clone.transitions == monitor.transitions
        assert (clone.ewma_latencies() == monitor.ewma_latencies()).all()

    def test_rejects_malformed_checkpoints(self):
        monitor = DeviceHealthMonitor(4, _LAT)
        with pytest.raises(CheckpointError, match="missing"):
            monitor.load_state_dict({})
        state = monitor.state_dict()
        state["bogus"] = 1
        with pytest.raises(CheckpointError, match="bogus"):
            monitor.load_state_dict(state)
        with pytest.raises(CheckpointError, match="different array"):
            DeviceHealthMonitor(2, _LAT).load_state_dict(
                monitor.state_dict()
            )


class TestStaleGenerations:
    """Satellite fix: a recovered device must not serve stale pages."""

    def test_recovered_device_is_stale_until_marked_clean(self):
        view = _faulty_array(
            2,
            DeviceEvent(1, "dropout", 1.0),
            DeviceEvent(1, "recovery", 2.0),
        )
        view.advance_to(0.5)
        assert not view.stale_device_mask().any()
        view.advance_to(1.5)
        active, _ = view.device_states()
        assert not active[1]
        view.advance_to(2.5)
        active, _ = view.device_states()
        assert active[1]  # back online...
        assert view.stale_device_mask()[1]  # ...but its pages are stale
        pages = np.arange(64, dtype=np.int64)
        assert view.stale_page_mask(pages)[pages % 2 == 1].all()
        view.mark_device_clean(1, 1)
        assert not view.stale_device_mask().any()
        assert not view.stale_page_mask(pages).any()

    def test_clean_generation_never_regresses(self):
        view = _faulty_array(2, DeviceEvent(1, "dropout", 1.0))
        view.mark_device_clean(1, 3)
        view.mark_device_clean(1, 1)
        assert view.clean_generation(1) == 3

    def test_stale_state_rides_the_checkpoint(self):
        view = _faulty_array(
            2,
            DeviceEvent(1, "dropout", 1.0),
            DeviceEvent(1, "recovery", 2.0),
        )
        view.advance_to(2.5)
        assert view.stale_device_mask()[1]
        clone = _faulty_array(
            2,
            DeviceEvent(1, "dropout", 1.0),
            DeviceEvent(1, "recovery", 2.0),
        )
        clone.load_state_dict(view.state_dict())
        assert clone.stale_device_mask()[1]
        view.mark_device_clean(1, 1)
        clone.load_state_dict(view.state_dict())
        assert not clone.stale_device_mask().any()


class TestRebuilder:
    def test_reprotect_budget_math(self):
        """Re-replication costs 2 ops/page against the accrued budget."""
        placement = ReplicatedPlacement(4, 2, seed=0)
        rebuilder = Rebuilder(placement, 100, iops_budget=20.0)
        view = _faulty_array(4, DeviceEvent(1, "dropout", 0.0))
        view.advance_to(1.0)
        outcome = rebuilder.sweep(1.0, view)
        assert outcome.pages_rebuilt == 10  # 20 ops / 2 per page
        assert outcome.read_requests == 10
        assert outcome.write_requests == 10
        assert not rebuilder.fully_redundant

    def test_fractional_budget_carries_between_sweeps(self):
        placement = ReplicatedPlacement(4, 2, seed=0)
        rebuilder = Rebuilder(placement, 100, iops_budget=3.0)
        view = _faulty_array(4, DeviceEvent(1, "dropout", 0.0))
        view.advance_to(1.0)
        first = rebuilder.sweep(1.0, view)
        assert first.pages_rebuilt == 1  # 3 ops buys 1 page, carry 1
        second = rebuilder.sweep(1.0, view)
        assert second.pages_rebuilt == 2  # carry 1 + 3 ops = 2 pages

    def test_zero_budget_never_progresses(self):
        placement = ReplicatedPlacement(4, 2, seed=0)
        rebuilder = Rebuilder(placement, 100, iops_budget=0.0)
        view = _faulty_array(4, DeviceEvent(1, "dropout", 0.0))
        view.advance_to(1.0)
        outcome = rebuilder.sweep(10.0, view)
        assert outcome.pages_rebuilt == 0
        assert not rebuilder.fully_redundant

    def test_restore_completion_marks_the_device_clean(self):
        placement = ReplicatedPlacement(4, 2, seed=0)
        rebuilder = Rebuilder(placement, 64, iops_budget=1e9)
        view = _faulty_array(
            4,
            DeviceEvent(1, "dropout", 0.0),
            DeviceEvent(1, "recovery", 1.0),
        )
        view.advance_to(2.0)
        assert view.stale_device_mask()[1]
        outcome = rebuilder.sweep(1.0, view)
        assert outcome.pages_rebuilt > 0
        assert ("restore" in {kind for _, kind, _ in outcome.completed_jobs})
        assert not view.stale_device_mask().any()
        assert rebuilder.fully_redundant
        # Carry is dropped once the queue drains: no banked budget.
        assert rebuilder.state_dict()["carry"] == 0.0

    def test_parity_restore_costs_k_reads_per_page(self):
        placement = ParityPlacement(4)
        rebuilder = Rebuilder(placement, 60, iops_budget=1e9)
        view = _faulty_array(
            4,
            DeviceEvent(0, "dropout", 0.0),
            DeviceEvent(0, "recovery", 1.0),
        )
        view.advance_to(2.0)
        outcome = rebuilder.sweep(1.0, view)
        assert outcome.pages_rebuilt > 0
        assert outcome.read_requests == placement.k * outcome.pages_rebuilt
        assert outcome.write_requests == outcome.pages_rebuilt

    def test_state_roundtrip(self):
        placement = ReplicatedPlacement(4, 2, seed=0)
        rebuilder = Rebuilder(placement, 100, iops_budget=3.0)
        view = _faulty_array(4, DeviceEvent(1, "dropout", 0.0))
        view.advance_to(1.0)
        rebuilder.sweep(1.0, view)
        clone = Rebuilder(placement, 100, iops_budget=3.0)
        clone.load_state_dict(rebuilder.state_dict())
        assert clone.state_dict() == rebuilder.state_dict()
        # The clone resumes exactly where the original would have.
        assert (
            clone.sweep(1.0, view).pages_rebuilt
            == rebuilder.sweep(1.0, view).pages_rebuilt
        )

    def test_rejects_malformed_checkpoints(self):
        placement = ReplicatedPlacement(4, 2, seed=0)
        rebuilder = Rebuilder(placement, 100, iops_budget=3.0)
        with pytest.raises(CheckpointError, match="missing"):
            rebuilder.load_state_dict({})
        state = rebuilder.state_dict()
        state["jobs"] = [{"device": 0}]
        with pytest.raises(CheckpointError, match="malformed"):
            rebuilder.load_state_dict(state)
        state = rebuilder.state_dict()
        state["carry"] = -1.0
        with pytest.raises(CheckpointError, match="carry"):
            rebuilder.load_state_dict(state)


class TestStorageHARouting:
    def test_no_fault_machinery_is_inert(self):
        ha = _make_ha(4, None, replication=2)
        out = ha.route(np.arange(40, dtype=np.int64))
        assert out.n_direct == 40
        assert out.n_replica == out.n_reconstruct == out.n_lost == 0
        assert ha.background_sweep(1.0, 1.0) is None
        ha.advance(5.0)  # no-op, must not raise

    def test_replicated_dropout_redirects_everything(self):
        view = _faulty_array(4, DeviceEvent(1, "dropout", 0.0))
        ha = _make_ha(4, view, replication=2)
        ha.advance(0.5)
        pages = np.arange(200, dtype=np.int64)
        out = ha.route(pages)
        assert out.n_replica == 50  # every page homed on device 1
        assert out.n_direct == 150
        assert out.n_lost == 0
        assert not out.lost_mask.any()
        assert out.n_storage == 200
        assert out.extra_service_reads == 0
        assert ha.unrepairable_count(pages) == 0

    def test_unreplicated_dropout_loses_the_stripe_share(self):
        view = _faulty_array(4, DeviceEvent(1, "dropout", 0.0))
        ha = _make_ha(4, view, replication=1)
        ha.advance(0.5)
        pages = np.arange(200, dtype=np.int64)
        out = ha.route(pages)
        assert out.n_lost == 50
        assert out.lost_mask.sum() == 50
        assert (pages[out.lost_mask] % 4 == 1).all()

    def test_parity_reconstructs_a_single_failure(self):
        view = _faulty_array(4, DeviceEvent(1, "dropout", 0.0))
        ha = _make_ha(4, view, parity=True)
        ha.advance(0.5)
        out = ha.route(np.arange(300, dtype=np.int64))
        assert out.n_reconstruct > 0
        assert out.n_lost == 0
        assert out.reconstruct_reads == 3 * out.n_reconstruct
        assert out.extra_service_reads == 2 * out.n_reconstruct

    def test_parity_cannot_survive_a_double_failure(self):
        view = _faulty_array(
            4,
            DeviceEvent(1, "dropout", 0.0),
            DeviceEvent(2, "dropout", 0.0),
        )
        ha = _make_ha(4, view, parity=True)
        ha.advance(0.5)
        out = ha.route(np.arange(300, dtype=np.int64))
        assert out.n_reconstruct == 0
        assert out.n_lost > 0

    def test_degraded_primary_without_copies_still_serves(self):
        """Soft failures never strand data: a slow primary with no better
        copy keeps serving direct rather than falling back."""
        view = _faulty_array(
            4, DeviceEvent(0, "fail_slow", 0.0, factor=10.0)
        )
        ha = _make_ha(4, view, replication=1)
        ha.advance(0.5)
        assert ha.health.state_of(0) == "degraded"
        out = ha.route(np.arange(200, dtype=np.int64))
        assert out.n_direct == 200
        assert out.n_lost == 0

    def test_degraded_primary_with_replica_soft_redirects(self):
        view = _faulty_array(
            4, DeviceEvent(0, "fail_slow", 0.0, factor=10.0)
        )
        ha = _make_ha(4, view, replication=2)
        ha.advance(0.5)
        out = ha.route(np.arange(200, dtype=np.int64))
        assert out.n_replica == 50
        assert out.n_direct == 150
        assert out.n_lost == 0

    def test_redirect_honors_the_avoid_mask(self):
        """The serving breaker board can forbid healthy devices."""
        ha = _make_ha(4, _faulty_array(4), replication=2)
        ha.advance(0.5)
        avoid = np.array([True, False, False, False])
        pages = np.arange(200, dtype=np.int64)
        out = ha.route(pages, avoid=avoid)
        assert out.n_replica == 50  # pages homed on the avoided device
        assert out.n_direct == 150
        assert out.n_lost == 0

    def test_summary_block_shapes(self):
        repl = _make_ha(4, None, replication=2)
        block = repl.summary_block()
        assert block["mode"] == "replication"
        assert block["replication_factor"] == 2
        assert block["num_devices"] == 4
        assert block["storage_overhead_factor"] == 2.0
        assert block["device_states"] == ["healthy"] * 4
        assert block["fully_redundant"] is True
        parity = _make_ha(4, None, parity=True)
        block = parity.summary_block()
        assert block["mode"] == "parity"
        assert block["parity_group_k"] == 3
        assert "replication_factor" not in block

    def test_state_roundtrip_resumes_identically(self):
        def build():
            view = _faulty_array(
                4,
                DeviceEvent(1, "dropout", 0.0),
                DeviceEvent(1, "recovery", 1.0),
            )
            return view, _make_ha(
                4, view, replication=2, rebuild_iops=30.0, total_pages=100
            )

        view, ha = build()
        ha.advance(2.0)
        ha.background_sweep(2.0, 2.0)
        snap = ha.state_dict()
        view2, clone = build()
        view2.load_state_dict(view.state_dict())
        clone.load_state_dict(snap)
        ha.advance(3.0)
        clone.advance(3.0)
        a = ha.background_sweep(1.0, 3.0)
        b = clone.background_sweep(1.0, 3.0)
        assert a.pages_rebuilt == b.pages_rebuilt
        assert ha.summary_block() == clone.summary_block()

    def test_rejects_malformed_checkpoints(self):
        ha = _make_ha(4, None, replication=2)
        with pytest.raises(CheckpointError, match="malformed"):
            ha.load_state_dict({"health": {}})


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_single_dropout_replicated_never_loses_pages(data):
    """Acceptance property: any single-device dropout under replication
    >= 2 leaves zero unrepairable pages, for every array width, victim
    device and placement seed."""
    num_ssds = data.draw(st.integers(2, 6), label="num_ssds")
    replication = data.draw(st.integers(2, num_ssds), label="replication")
    device = data.draw(st.integers(0, num_ssds - 1), label="device")
    seed = data.draw(st.integers(0, 2**31 - 1), label="seed")
    view = _faulty_array(num_ssds, DeviceEvent(device, "dropout", 0.0))
    ha = _make_ha(num_ssds, view, replication=replication, seed=seed)
    ha.advance(1.0)
    pages = np.arange(500, dtype=np.int64)
    assert ha.unrepairable_count(pages) == 0
    out = ha.route(pages)
    assert out.n_storage == len(pages)


@settings(max_examples=25, deadline=None)
@given(
    num_ssds=st.integers(2, 6),
    device=st.integers(0, 5),
)
def test_single_dropout_parity_never_loses_pages(num_ssds, device):
    device = device % num_ssds
    view = _faulty_array(num_ssds, DeviceEvent(device, "dropout", 0.0))
    ha = _make_ha(num_ssds, view, parity=True)
    ha.advance(1.0)
    assert ha.unrepairable_count(np.arange(500, dtype=np.int64)) == 0


class TestLoaderHA:
    """GIDS-loader integration: degraded-mode reads replace the CPU mirror."""

    @pytest.fixture
    def system(self, small_dataset):
        return SystemConfig(
            ssd=INTEL_OPTANE,
            num_ssds=4,
            cpu_memory_limit_bytes=small_dataset.total_bytes * 0.5,
        )

    def _loader(self, small_dataset, system, small_loader_config, **kwargs):
        return GIDSDataLoader(
            small_dataset, system, small_loader_config,
            batch_size=32, fanouts=(5, 5), seed=1, **kwargs,
        )

    def test_replication_without_faults_is_inert(
        self, small_dataset, system, small_loader_config
    ):
        """Pay-for-what-you-use: redundancy on a healthy run changes no
        modeled time."""
        bare = self._loader(
            small_dataset, system, small_loader_config
        ).run(8, warmup=2)
        redundant = self._loader(
            small_dataset, system, small_loader_config, replication=2
        ).run(8, warmup=2)
        for a, b in zip(bare.iterations, redundant.iterations):
            assert a.times == b.times
        assert bare.e2e_time == redundant.e2e_time

    def test_replicated_dropout_has_zero_fallback(
        self, small_dataset, system, small_loader_config
    ):
        plan = FaultPlan(
            seed=2, device_events=(DeviceEvent(1, "dropout", 0.0),)
        )
        bare = self._loader(
            small_dataset, system, small_loader_config
        ).run(8, warmup=2)
        unprotected = self._loader(
            small_dataset, system, small_loader_config, fault_plan=plan
        ).run(8, warmup=2)
        protected = self._loader(
            small_dataset, system, small_loader_config,
            fault_plan=plan, replication=2,
        ).run(8, warmup=2)
        # Without redundancy the lost stripe share hits the CPU mirror.
        assert unprotected.counters.fallback_requests > 0
        # With a replica every one of those reads stays on the array.
        assert protected.counters.fallback_requests == 0
        assert protected.counters.replica_redirects > 0
        summary = protected.resilience_summary()
        assert summary["replica_redirects"] > 0
        assert summary["fallback_fraction"] == 0
        # Redundancy never perturbs the sampled workload.
        for a, b in zip(bare.iterations, protected.iterations):
            assert a.num_input_nodes == b.num_input_nodes
            assert a.num_sampled == b.num_sampled
            assert a.num_edges == b.num_edges

    def test_parity_dropout_reconstructs(
        self, small_dataset, system, small_loader_config
    ):
        plan = FaultPlan(
            seed=2, device_events=(DeviceEvent(2, "dropout", 0.0),)
        )
        report = self._loader(
            small_dataset, system, small_loader_config,
            fault_plan=plan, parity=True,
        ).run(8, warmup=2)
        counters = report.counters
        assert counters.fallback_requests == 0
        assert counters.parity_reconstructs > 0
        # k = 3 member reads per reconstructed page on a 4-SSD array.
        assert (
            counters.reconstruct_reads == 3 * counters.parity_reconstructs
        )

    def test_rebuilder_reprotects_in_the_background(
        self, small_dataset, system, small_loader_config
    ):
        plan = FaultPlan(
            seed=2, device_events=(DeviceEvent(1, "dropout", 0.0),)
        )
        loader = self._loader(
            small_dataset, system, small_loader_config,
            fault_plan=plan, replication=2, rebuild_iops=1e9,
        )
        # warmup=0: the huge budget finishes the reprotect in the very
        # first group, and warmup iterations reset the counters.
        report = loader.run(8, warmup=0)
        assert report.counters.rebuild_pages > 0
        block = loader.storage_ha.summary_block()
        assert block["fully_redundant"] is True
        assert block["pages_rebuilt_total"] > 0

    def test_kill_resume_bit_identical_under_ha(
        self, small_dataset, system, small_loader_config
    ):
        plan = FaultPlan(
            seed=2, device_events=(DeviceEvent(1, "dropout", 0.0),)
        )
        kwargs = dict(fault_plan=plan, replication=2, rebuild_iops=2e5)

        def drain(loader, n):
            out = []
            remaining = n
            while remaining:
                pairs = loader.next_training_group(remaining)
                out.extend(m.state_dict() for _, m in pairs)
                remaining -= len(pairs)
            return out

        ref = drain(
            self._loader(small_dataset, system, small_loader_config, **kwargs),
            20,
        )
        first = self._loader(
            small_dataset, system, small_loader_config, **kwargs
        )
        got = []
        remaining = 20
        while remaining > 12:
            pairs = first.next_training_group(remaining)
            got.extend(m.state_dict() for _, m in pairs)
            remaining -= len(pairs)
        snap = first.state_dict()
        second = self._loader(
            small_dataset, system, small_loader_config, **kwargs
        )
        second.load_state_dict(snap)
        while remaining:
            pairs = second.next_training_group(remaining)
            got.extend(m.state_dict() for _, m in pairs)
            remaining -= len(pairs)
        assert repr(got) == repr(ref)


class TestServingHA:
    def test_replicas_beat_the_cpu_mirror(self, small_dataset):
        from repro import LoaderConfig
        from repro.serving import ArrivalConfig, InferenceServer, ServingConfig

        plan = FaultPlan(
            seed=2, device_events=(DeviceEvent(1, "dropout", 0.0),)
        )
        system = SystemConfig(ssd=INTEL_OPTANE, num_ssds=4)
        config = LoaderConfig(
            gpu_cache_bytes=small_dataset.feature_data_bytes * 0.05,
            cpu_buffer_fraction=0.10,
        )
        server = InferenceServer(
            small_dataset, system, config,
            arrival=ArrivalConfig(rate=2000.0, seed=5),
            serving=ServingConfig(),
            fanouts=(5, 5), seed=1,
            fault_plan=plan, replication=2,
        )
        server.serve(60)
        counters = server.report().counters
        assert counters.replica_redirects > 0
        assert counters.fallback_requests == 0


class TestStorageHACLI:
    def _plan_path(self, tmp_path, events):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"device_events": events}))
        return str(path)

    def test_storage_drill_table(self, tmp_path, capsys):
        path = self._plan_path(
            tmp_path,
            [
                {"device": 1, "kind": "dropout", "at_time_s": 0.1},
                {"device": 1, "kind": "recovery", "at_time_s": 0.4},
                {"device": 2, "kind": "fail_slow", "at_time_s": 0.2,
                 "factor": 8.0},
            ],
        )
        assert main([
            "storage", "--scale", "0.02", "--num-ssds", "4",
            "--replication", "2", "--rebuild-iops", "100000",
            "--fault-plan", path,
        ]) == 0
        out = capsys.readouterr().out
        assert "device" in out
        assert "degraded" in out or "suspect" in out
        assert "dropout" in out or "dead" in out or "rebuilding" in out

    def test_storage_drill_json(self, tmp_path, capsys):
        path = self._plan_path(
            tmp_path, [{"device": 1, "kind": "dropout", "at_time_s": 0.1}]
        )
        assert main([
            "storage", "--scale", "0.02", "--num-ssds", "4",
            "--replication", "2", "--fault-plan", path,
            "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "replication"
        assert len(payload["device_states"]) == 4
        assert "dead" in payload["device_states"]

    def test_ha_flag_validation_exits_two(self, capsys):
        for flags in (
            ["--replication", "0"],
            ["--replication", "2", "--parity"],
            ["--rebuild-iops", "-1"],
        ):
            assert main(["storage", *flags]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and flags[0] in err

    def test_validate_flags_out_of_range_device(self, tmp_path, capsys):
        path = self._plan_path(
            tmp_path, [{"device": 7, "kind": "dropout", "at_time_s": 0.1}]
        )
        assert main([
            "faults", "validate", path, "--num-ssds", "4",
        ]) == 2
        assert "device 7" in capsys.readouterr().err

    def test_validate_flags_full_array_wipe(self, tmp_path, capsys):
        path = self._plan_path(
            tmp_path,
            [
                {"device": 0, "kind": "dropout", "at_time_s": 0.1},
                {"device": 1, "kind": "dropout", "at_time_s": 0.2},
            ],
        )
        assert main([
            "faults", "validate", path, "--num-ssds", "2",
        ]) == 2
        assert "all 2 devices" in capsys.readouterr().err

    def test_validate_accepts_survivable_plan(self, tmp_path, capsys):
        path = self._plan_path(
            tmp_path,
            [
                {"device": 0, "kind": "dropout", "at_time_s": 0.1},
                {"device": 0, "kind": "recovery", "at_time_s": 0.5},
                {"device": 1, "kind": "dropout", "at_time_s": 0.6},
            ],
        )
        assert main([
            "faults", "validate", path, "--num-ssds", "2",
        ]) == 0
        assert "plan is valid" in capsys.readouterr().out
