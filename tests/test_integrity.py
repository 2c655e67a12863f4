"""Tests for the end-to-end data-integrity layer.

Covers the digest/ledger/verifier/scrubber building blocks, the
property-based guarantees the design leans on (digest determinism, CRC32
catching every single-bit flip, bit-exact ledger checkpointing), and the
acceptance behaviors of the threaded GIDS path: under ``verify_reads=
"full"`` every injected corruption is caught, training matches the
fault-free run bit-for-bit, and a killed-and-resumed run reports identical
integrity totals.  ``verify_reads="off"`` demonstrably lets corrupt
features through — the exposure the layer exists to close.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    CorruptionEvent,
    CorruptionLedger,
    FaultPlan,
    GIDSDataLoader,
    GraphSAGE,
    LoaderConfig,
    PageChecksummer,
    ReadVerifier,
    Scrubber,
    SystemConfig,
    Tracer,
    TrainingPipeline,
    load_scaled,
)
from repro.errors import (
    CheckpointError,
    IntegrityError,
    UnrepairablePageError,
)
from repro.faults import FaultInjector
from repro.faults.plan import (
    CORRUPT_BITFLIP,
    CORRUPT_NONE,
    CORRUPT_PERSISTENT,
    CORRUPT_TORN,
)
from repro.storage.feature_store import FeatureStore

# Shared fixtures built once (hypothesis re-runs test bodies many times).
_STORE = FeatureStore(512, 16)
_DATASET = load_scaled("IGB-tiny", 0.08, seed=0)


def _loader(fault_plan=None, **kwargs):
    system = SystemConfig(
        cpu_memory_limit_bytes=_DATASET.total_bytes * 0.5
    )
    config = LoaderConfig(
        gpu_cache_bytes=_DATASET.feature_data_bytes * 0.02,
        cpu_buffer_fraction=0.10,
        window_depth=2,
    )
    return GIDSDataLoader(
        _DATASET, system, config, batch_size=64, fanouts=(4, 4),
        seed=1, fault_plan=fault_plan, **kwargs,
    )


def _corrupt_plan(**overrides):
    kwargs = dict(
        seed=11,
        bitflip_rate=1e-3,
        corruption_events=(
            CorruptionEvent(device=0, at_time_s=0.0, page_fraction=0.02),
        ),
    )
    kwargs.update(overrides)
    return FaultPlan(**kwargs)


class TestChecksummerProperties:
    @given(page=st.integers(min_value=0, max_value=_STORE.layout.total_pages - 1))
    @settings(max_examples=50, deadline=None)
    def test_digest_stable_across_recomputation(self, page):
        """The digest of a page is a pure function of the store: two
        independent checksummers (memo cold and warm) always agree."""
        a = PageChecksummer(_STORE)
        b = PageChecksummer(_STORE, max_cached=0)  # never memoizes
        assert a.digest(page) == b.digest(page)
        assert a.digest(page) == a.digest(page)  # memo hit is identical

    @given(
        page=st.integers(min_value=0, max_value=_STORE.layout.total_pages - 1),
        bit=st.integers(min_value=0, max_value=_STORE.layout.page_bytes * 8 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_any_single_bit_flip_is_detected(self, page, bit):
        """CRC32 catches every 1-bit error: flipping any single bit of any
        page payload fails verification, and the pristine payload passes."""
        checker = PageChecksummer(_STORE)
        payload = _STORE.page_payload(page).copy()
        assert checker.verify_payload(page, payload)
        payload[bit // 8] ^= np.uint8(1 << (bit % 8))
        assert not checker.verify_payload(page, payload)

    def test_memo_bound_respected(self):
        checker = PageChecksummer(_STORE, max_cached=3)
        for page in range(8):
            checker.digest(page)
        assert len(checker) == 3
        assert checker.computed == 8

    def test_payload_length_checked(self):
        checker = PageChecksummer(_STORE)
        with pytest.raises(IntegrityError):
            checker.verify_payload(0, np.zeros(3, dtype=np.uint8))


class TestLedger:
    @given(
        num_devices=st.integers(min_value=1, max_value=4),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["detected", "repaired", "unrepairable"]),
                st.integers(min_value=0, max_value=63),
                st.floats(min_value=0.0, max_value=5.0),
            ),
            max_size=40,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_state_round_trip_is_bit_exact(self, num_devices, ops):
        """Any recording history survives state_dict/load_state_dict (and a
        JSON hop, as the checkpoint store serializes it) unchanged."""
        ledger = CorruptionLedger(num_devices=num_devices)
        for op, page, latency in ops:
            if op == "detected":
                ledger.record_detected(page, latency_s=latency)
            elif op == "repaired":
                ledger.record_repaired(page)
            else:
                ledger.record_unrepairable(page)
        state = json.loads(json.dumps(ledger.state_dict()))
        restored = CorruptionLedger(num_devices=num_devices)
        restored.load_state_dict(state)
        assert restored.state_dict() == ledger.state_dict()

    def test_detection_ends_as_repair_or_quarantine(self):
        ledger = CorruptionLedger(num_devices=2)
        ledger.record_detected(0)
        ledger.record_repaired(0)
        ledger.record_detected(1)
        ledger.record_unrepairable(1)
        assert ledger.is_consistent()
        assert ledger.is_quarantined(1)
        ledger.release(1)
        assert not ledger.is_quarantined(1)

    def test_device_mismatch_rejected(self):
        ledger = CorruptionLedger(num_devices=2)
        with pytest.raises(CheckpointError):
            ledger.load_state_dict(CorruptionLedger(num_devices=3).state_dict())


_PAGE = st.integers(min_value=0, max_value=95)
_PAGE_LISTS = st.lists(_PAGE, max_size=40)


class TestMembershipMasks:
    """The two per-call page masks are one vectorised membership each; the
    definition stays the set: empty set, empty ``pages``, repeated pages,
    after ``release`` / ``mark_repaired`` and after a state round trip."""

    @given(
        ops=st.lists(st.tuples(st.booleans(), _PAGE), max_size=40),
        pages=_PAGE_LISTS,
    )
    @settings(max_examples=60, deadline=None)
    def test_quarantined_mask_is_set_membership(self, ops, pages):
        ledger = CorruptionLedger(num_devices=3)
        model = set()
        for quarantine, page in ops:
            if quarantine:
                ledger.record_unrepairable(page)
                model.add(page)
            else:
                ledger.release(page)
                model.discard(page)
        restored = CorruptionLedger(num_devices=3)
        restored.load_state_dict(json.loads(json.dumps(ledger.state_dict())))
        want = [page in model for page in pages]
        for subject in (ledger, restored):
            mask = subject.quarantined_mask(np.asarray(pages, dtype=np.int64))
            assert mask.dtype == bool and mask.shape == (len(pages),)
            assert mask.tolist() == want
            assert want == [subject.is_quarantined(p) for p in pages]

    @given(
        fraction=st.sampled_from([0.3, 1.0]),
        repaired=_PAGE_LISTS,
        pages=_PAGE_LISTS,
    )
    @settings(max_examples=60, deadline=None)
    def test_poisoned_mask_drops_exactly_the_repaired_pages(
        self, fraction, repaired, pages
    ):
        plan = FaultPlan(
            seed=5, corruption_events=(CorruptionEvent(1, 0.5, fraction),)
        )
        never_repaired, injector = FaultInjector(plan), FaultInjector(plan)
        for page in repaired:
            injector.mark_repaired(page)
        restored = FaultInjector(plan)
        restored.load_state_dict(injector.state_dict())
        pages = np.asarray(pages, dtype=np.int64)
        storm, storm_origins = never_repaired.poisoned_info(pages, 1.0, 2)
        want = [
            bool(hit) and page not in set(repaired)
            for hit, page in zip(storm.tolist(), pages.tolist())
        ]
        for subject in (injector, restored):
            mask, origins = subject.poisoned_info(pages, 1.0, 2)
            assert mask.dtype == bool and mask.shape == (len(pages),)
            assert mask.tolist() == want
            np.testing.assert_array_equal(origins, storm_origins)
        if fraction == 1.0:  # the storm's whole device, so the mask is
            assert storm.tolist() == (pages % 2 == 1).tolist()  # not vacuous


class TestVerifier:
    def _fixtures(self, mode="full", **kwargs):
        ledger = CorruptionLedger(num_devices=1)
        return ledger, ReadVerifier(ledger, mode=mode, **kwargs)

    def test_full_mode_catches_everything(self):
        ledger, verifier = self._fixtures("full")
        pages = np.arange(6, dtype=np.int64)
        kinds = np.array(
            [CORRUPT_NONE, CORRUPT_BITFLIP, CORRUPT_TORN, CORRUPT_NONE,
             CORRUPT_PERSISTENT, CORRUPT_NONE],
            dtype=np.uint8,
        )
        outcome = verifier.process(pages, kinds)
        assert outcome.verified == 6
        assert outcome.unverified == 0
        assert outcome.detected == 3
        assert outcome.repaired == 2  # both transient kinds heal on re-read
        assert outcome.quarantined == 1
        assert len(outcome.undetected_pages) == 0
        assert ledger.is_consistent()
        assert ledger.is_quarantined(4)

    def test_off_mode_lets_corruption_through(self):
        _, verifier = self._fixtures("off")
        pages = np.arange(4, dtype=np.int64)
        kinds = np.array(
            [CORRUPT_BITFLIP, CORRUPT_NONE, CORRUPT_PERSISTENT, CORRUPT_NONE],
            dtype=np.uint8,
        )
        outcome = verifier.process(pages, kinds)
        assert outcome.verified == 0
        assert outcome.detected == 0
        assert sorted(outcome.undetected_pages) == [0, 2]

    def test_sample_mode_draws_are_checkpointable(self):
        ledger, verifier = self._fixtures("sample", sample_rate=0.5, seed=9)
        pages = np.arange(64, dtype=np.int64)
        kinds = np.zeros(64, dtype=np.uint8)
        verifier.process(pages, kinds)
        state = verifier.state_dict()
        first = verifier.process(pages, kinds).verified
        _, twin = self._fixtures("sample", sample_rate=0.5, seed=9)
        twin.load_state_dict(state)
        assert twin.process(pages, kinds).verified == first

    def test_fallback_disabled_raises(self):
        _, verifier = self._fixtures("full", allow_fallback=False)
        with pytest.raises(UnrepairablePageError):
            verifier.process(
                np.array([7], dtype=np.int64),
                np.array([CORRUPT_PERSISTENT], dtype=np.uint8),
            )


class TestScrubber:
    def test_sweep_finds_storm_pages_and_heals_media(self):
        from repro.faults.injector import FaultInjector

        plan = _corrupt_plan(bitflip_rate=0.0)
        injector = FaultInjector(plan)
        store = FeatureStore(2048, 16)
        total = store.layout.total_pages
        ledger = CorruptionLedger(num_devices=1)
        scrubber = Scrubber(
            total_pages=total, iops_budget=1e6, ledger=ledger,
            injector=injector, num_devices=1,
            checksummer=PageChecksummer(store),
        )
        outcome = scrubber.sweep((total + 1) / 1e6, 1.0)
        assert outcome.pages_scanned == total
        assert outcome.detected > 0
        assert outcome.repaired == outcome.detected
        assert ledger.is_consistent()
        # The media is healed: a second full pass finds nothing.
        second = scrubber.sweep((total + 1) / 1e6, 2.0)
        assert second.detected == 0

    def test_fractional_budget_carries_over(self):
        ledger = CorruptionLedger(num_devices=1)
        scrubber = Scrubber(
            total_pages=100, iops_budget=0.5, ledger=ledger
        )
        assert scrubber.sweep(1.0, 0.0).pages_scanned == 0
        assert scrubber.sweep(1.0, 1.0).pages_scanned == 1

    def test_cursor_state_round_trips(self):
        ledger = CorruptionLedger(num_devices=1)
        scrubber = Scrubber(total_pages=64, iops_budget=10.0, ledger=ledger)
        scrubber.sweep(1.7, 0.0)
        twin = Scrubber(total_pages=64, iops_budget=10.0, ledger=ledger)
        twin.load_state_dict(json.loads(json.dumps(scrubber.state_dict())))
        assert twin.cursor == scrubber.cursor


class TestGIDSIntegrityAcceptance:
    def test_full_verify_detects_every_emitted_corruption(self):
        """The headline guarantee: with ``verify_reads="full"`` the ledger
        accounts for exactly the corruption the injector emitted, every
        detection ends as a repair or a quarantine, and nothing is served
        unverified."""
        loader = _loader(_corrupt_plan(), verify_reads="full")
        report = loader.run(30)
        counters = report.counters
        assert loader.faults.stats.corruptions_emitted > 0
        assert (
            loader.ledger.total_detected
            == loader.faults.stats.corruptions_emitted
        )
        assert counters.unverified_pages == 0
        summary = report.integrity_summary()
        assert summary["consistent"]
        assert summary["corrupt_detected"] == (
            summary["corrupt_repaired"] + summary["corrupt_quarantined"]
        )

    def test_full_verify_trains_to_fault_free_losses(self):
        """Verification fully shields the model: the loss trajectory under
        heavy injected corruption matches the fault-free run exactly."""

        def losses(plan, **kwargs):
            loader = _loader(plan, **kwargs)
            model = GraphSAGE(
                _DATASET.feature_dim, 16, 4, num_layers=2, seed=3
            )
            pipeline = TrainingPipeline(loader, model, num_classes=4)
            return pipeline.train(12).losses

        clean = losses(None)
        shielded = losses(_corrupt_plan(), verify_reads="full")
        assert shielded == clean

    def test_verify_off_perturbs_delivered_features(self):
        """Without verification the corruption does real damage: the
        delivered feature matrix differs from the ground-truth store."""
        loader = _loader(
            _corrupt_plan(bitflip_rate=5e-2), verify_reads="off"
        )
        pairs = loader.next_training_group(3)
        perturbed = False
        for batch, _ in pairs:
            delivered = loader.fetch_features(batch)
            clean = loader.store.fetch(batch.input_nodes)
            if not np.array_equal(delivered, clean):
                perturbed = True
        assert perturbed
        assert loader.ledger.total_detected == 0  # nothing was checked

    def test_kill_resume_preserves_integrity_state_bit_exactly(self):
        """Checkpoint mid-run, restore into a fresh loader, finish: the
        ledger, emitted count and modeled clock match the uninterrupted
        run bit-for-bit."""
        plan = _corrupt_plan()
        continuous = _loader(plan, verify_reads="full", scrub_iops=1e5)
        for _ in range(10):
            continuous.next_training_group(1)

        first = _loader(plan, verify_reads="full", scrub_iops=1e5)
        for _ in range(5):
            first.next_training_group(1)
        state = first.state_dict()
        # The integrity block itself must survive a JSON hop (the
        # checkpoint store serializes snapshots); the loader's other
        # state carries ndarrays handled by the snapshot codec.
        state["integrity"] = json.loads(json.dumps(state["integrity"]))

        resumed = _loader(plan, verify_reads="full", scrub_iops=1e5)
        resumed.load_state_dict(state)
        for _ in range(5):
            resumed.next_training_group(1)

        assert (
            resumed.ledger.state_dict() == continuous.ledger.state_dict()
        )
        assert (
            resumed.faults.stats.corruptions_emitted
            == continuous.faults.stats.corruptions_emitted
        )

    def test_quarantined_pages_bypass_storage(self):
        """Once a page is quarantined its later reads are served from the
        fallback tier: a long run keeps the invariant that quarantined
        pages never count as storage-verified again (no double detection
        of the same poisoned media)."""
        loader = _loader(
            _corrupt_plan(
                bitflip_rate=0.0,
                corruption_events=(
                    CorruptionEvent(
                        device=0, at_time_s=0.0, page_fraction=0.05
                    ),
                ),
            ),
            verify_reads="full",
        )
        report = loader.run(30)
        counters = report.counters
        assert counters.corrupt_quarantined > 0
        assert counters.fallback_requests >= counters.corrupt_quarantined
        assert report.integrity_summary()["consistent"]

    def test_scrubber_heals_storm_before_reads_find_it(self):
        """A generous scrub budget sweeps the poisoned device region and
        repairs it in the background; the healed pages then verify clean."""
        loader = _loader(
            _corrupt_plan(bitflip_rate=0.0),
            verify_reads="full",
            scrub_iops=1e7,
        )
        report = loader.run(30)
        assert report.counters.scrubbed_pages > 0
        # The sweeps (which start during warmup) found and healed the whole
        # storm: the ledger repaired everything and the media is clean now.
        assert loader.ledger.total_detected > 0
        assert loader.ledger.total_repaired > 0
        assert loader.ledger.is_consistent()
        assert loader.ledger.num_quarantined == 0  # releases happened
        poisoned, _ = loader.faults.poisoned_info(
            np.arange(loader.layout.total_pages),
            loader._sim_now_s,
            loader.system.num_ssds,
        )
        assert poisoned.sum() == 0

    def test_quarantine_level_is_published_as_a_gauge(self):
        """Tracer + scrubber + corruption storm + warm-up: the scrubber
        releases, during the measured run, pages the warm-up quarantined,
        so the level ends below where the measurement started — which a
        counter delta cannot say (it raised ``TelemetryError``)."""
        plan = _corrupt_plan(bitflip_rate=0.0)
        twin = _loader(plan, verify_reads="full", scrub_iops=1e6)
        twin.run(10, warmup=0)
        tracer = Tracer()
        loader = _loader(
            plan, verify_reads="full", scrub_iops=1e6, tracer=tracer
        )
        loader.run(30, warmup=10)
        level = loader.ledger.num_quarantined
        assert level < twin.ledger.num_quarantined
        assert tracer.metrics.to_dict()["integrity.quarantined"] == {
            "kind": "gauge",
            "value": level,
        }

    def test_healthy_run_is_untouched_by_integrity_support(self):
        """Pay-for-what-you-use: a loader with no plan and verification off
        reports identical modeled time and zero integrity counters."""
        plain = _loader().run(10)
        audited = _loader(None, verify_reads="off").run(10)
        assert audited.e2e_time == plain.e2e_time
        summary = audited.integrity_summary()
        assert summary["consistent"]
        assert all(
            v == 0 for k, v in summary.items() if k != "consistent"
        )

    def test_verify_full_overhead_is_modeled_not_free(self):
        """Full verification charges modeled digest time: the audited run
        is slower than the identical unverified run, but only slightly."""
        base = _loader().run(10)
        # Clean media, full checks: every storage page is digest-checked,
        # nothing is ever detected.  At this shrunken scale iterations are
        # microseconds, so the 80 ns/page digest cost shows up as a few
        # percent; at paper scale it vanishes into the noise.
        audited = _loader(None, verify_reads="full").run(10)
        assert audited.counters.verified_pages > 0
        assert audited.e2e_time > base.e2e_time
        assert audited.e2e_time < base.e2e_time * 1.10


class TestExportAndCLI:
    def test_export_carries_integrity_summary(self):
        from repro.pipeline.export import EXPORT_SCHEMA_VERSION, report_to_dict

        loader = _loader(_corrupt_plan(), verify_reads="full")
        record = report_to_dict(loader.run(10))
        assert record["schema_version"] == EXPORT_SCHEMA_VERSION
        block = record["integrity_summary"]
        assert block["consistent"]
        assert block["corrupt_detected"] == (
            block["corrupt_repaired"] + block["corrupt_quarantined"]
        )

    def test_cli_faults_validate_accepts_good_plan(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "plan.json"
        path.write_text(_corrupt_plan().to_json())
        assert main(["faults", "validate", str(path)]) == 0
        assert "plan is valid" in capsys.readouterr().out

    def test_cli_faults_validate_rejects_malformed_plan(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["faults", "validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid fault plan") and str(path) in err

    def test_cli_faults_validate_flags_unreachable_crash(self, tmp_path):
        from repro.cli import main
        from repro.faults import CrashEvent

        path = tmp_path / "late.json"
        path.write_text(
            FaultPlan(crash_events=(CrashEvent(at_iteration=500),)).to_json()
        )
        assert main(
            ["faults", "validate", str(path), "--iterations", "100"]
        ) == 2

    def test_cli_scrub_reports_storm_damage(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "plan.json"
        path.write_text(_corrupt_plan(bitflip_rate=0.0).to_json())
        code = main(
            ["scrub", "--dataset", "IGB-tiny", "--scale", "0.05",
             "--fault-plan", str(path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "repaired" in out
