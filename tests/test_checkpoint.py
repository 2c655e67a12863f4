"""Unit tests for the checkpoint subsystem: snapshots, store, state dicts."""

import os
import pickle
import zlib

import numpy as np
import pytest

from repro.checkpoint import (
    SNAPSHOT_MAGIC,
    CheckpointStore,
    read_snapshot,
    write_snapshot,
)
from repro.checkpoint.snapshot import SNAPSHOT_VERSION, _HEADER
from repro.config import INTEL_OPTANE, LoaderConfig, SystemConfig
from repro.core.gids import GIDSDataLoader
from repro.errors import CheckpointCorruptError, CheckpointError, ConfigError
from repro.faults import FaultInjector, FaultPlan, CrashEvent
from repro.graph.datasets import load_scaled
from repro.sampling.seeds import SeedBatchStream
from repro.sim.counters import TransferCounters
from repro.training.graphsage import GraphSAGE


class TestSnapshotFormat:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "snap.bin")
        payload = {"a": 1, "b": [1.5, None], "arr": np.arange(5)}
        written = write_snapshot(path, payload)
        assert written == os.path.getsize(path)
        loaded = read_snapshot(path)
        assert loaded["a"] == 1
        assert loaded["b"] == [1.5, None]
        np.testing.assert_array_equal(loaded["arr"], np.arange(5))

    def test_rejects_non_dict_payload(self, tmp_path):
        with pytest.raises(CheckpointError):
            write_snapshot(str(tmp_path / "snap.bin"), [1, 2, 3])

    def test_write_leaves_no_temp_file(self, tmp_path):
        path = str(tmp_path / "snap.bin")
        write_snapshot(path, {"x": 1})
        assert os.listdir(tmp_path) == ["snap.bin"]

    def test_streamed_bytes_equal_header_plus_pickle_dumps(self, tmp_path):
        """Streaming changed how the file is produced, not the file."""
        rng = np.random.default_rng(0)
        payload = {
            # above pickle's 64 KiB frame size: written as PickleBuffer
            # chunks, 2-D / Fortran / strided so ``len`` != byte length
            "matrix": rng.random((300, 200)),
            "fortran": np.asfortranarray(rng.random((200, 300))),
            "strided": rng.random((400, 400))[::2, ::3],
            "ids": np.arange(200_000),
            "small": np.arange(5, dtype=np.int8),
            "text": "x" * 100_000,
            "nested": {"raw": [b"b" * 70_000, bytearray(b"q" * 80_000)]},
        }
        path = str(tmp_path / "snap.bin")
        written = write_snapshot(path, payload)
        body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        header = _HEADER.pack(
            SNAPSHOT_MAGIC, SNAPSHOT_VERSION, zlib.crc32(body), len(body)
        )
        assert open(path, "rb").read() == header + body
        assert written == len(header) + len(body)
        np.testing.assert_array_equal(
            read_snapshot(path)["strided"], payload["strided"]
        )

    def test_unpicklable_payload_leaves_nothing_behind(self, tmp_path):
        class Unpicklable:
            def __reduce__(self):
                raise RuntimeError("no")

        path = str(tmp_path / "snap.bin")
        write_snapshot(path, {"x": 1})
        # The large array is on disk before the reducer fails mid-stream.
        payload = {"big": np.arange(1_000_000), "bad": Unpicklable()}
        with pytest.raises(CheckpointError, match="not picklable"):
            write_snapshot(path, payload)
        assert os.listdir(tmp_path) == ["snap.bin"]
        assert read_snapshot(path) == {"x": 1}

    def test_detects_truncation(self, tmp_path):
        path = str(tmp_path / "snap.bin")
        write_snapshot(path, {"x": 1})
        data = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(data[: len(data) - 3])
        with pytest.raises(CheckpointCorruptError):
            read_snapshot(path)

    def test_detects_bad_magic(self, tmp_path):
        path = str(tmp_path / "snap.bin")
        write_snapshot(path, {"x": 1})
        data = bytearray(open(path, "rb").read())
        data[:4] = b"XXXX"
        open(path, "wb").write(bytes(data))
        with pytest.raises(CheckpointCorruptError):
            read_snapshot(path)

    def test_detects_flipped_payload_bytes(self, tmp_path):
        path = str(tmp_path / "snap.bin")
        write_snapshot(path, {"x": list(range(100))})
        data = bytearray(open(path, "rb").read())
        data[_HEADER.size + 10] ^= 0xFF
        open(path, "wb").write(bytes(data))
        with pytest.raises(CheckpointCorruptError):
            read_snapshot(path)

    def test_detects_unsupported_version(self, tmp_path):
        path = str(tmp_path / "snap.bin")
        write_snapshot(path, {"x": 1})
        data = bytearray(open(path, "rb").read())
        bad = _HEADER.pack(
            SNAPSHOT_MAGIC, SNAPSHOT_VERSION + 1, 0, len(data) - _HEADER.size
        )
        open(path, "wb").write(bad + bytes(data[_HEADER.size:]))
        with pytest.raises(CheckpointCorruptError):
            read_snapshot(path)

    def test_missing_file_is_checkpoint_error(self, tmp_path):
        with pytest.raises(CheckpointError):
            read_snapshot(str(tmp_path / "absent.bin"))


class TestCheckpointStore:
    def test_ring_retention(self, tmp_path):
        store = CheckpointStore(str(tmp_path), keep=2)
        for iteration in (5, 10, 15, 20):
            store.save(iteration, {"iteration": iteration})
        assert store.iterations() == [15, 20]

    def test_load_latest_returns_newest(self, tmp_path):
        store = CheckpointStore(str(tmp_path), keep=3)
        for iteration in (5, 10, 15):
            store.save(iteration, {"iteration": iteration})
        loaded = store.load_latest()
        assert loaded.iteration == 15
        assert loaded.payload == {"iteration": 15}
        assert loaded.corrupted_skipped == 0

    def test_load_latest_skips_corrupted(self, tmp_path):
        store = CheckpointStore(str(tmp_path), keep=3)
        for iteration in (5, 10, 15):
            store.save(iteration, {"iteration": iteration})
        with open(store.path_for(15), "r+b") as handle:
            handle.seek(_HEADER.size + 2)
            handle.write(b"\xde\xad")
        loaded = store.load_latest()
        assert loaded.iteration == 10
        assert loaded.corrupted_skipped == 1

    def test_load_latest_empty_dir(self, tmp_path):
        store = CheckpointStore(str(tmp_path), keep=3)
        assert store.load_latest() is None

    def test_keep_must_be_positive(self, tmp_path):
        with pytest.raises(ConfigError):
            CheckpointStore(str(tmp_path), keep=0)


class TestComponentStateDicts:
    def test_graphsage_round_trip(self):
        rng = np.random.default_rng(0)
        model = GraphSAGE(8, 16, 4, num_layers=2, seed=1)
        other = GraphSAGE(8, 16, 4, num_layers=2, seed=99)
        # advance the first model so the states genuinely differ
        from repro.sampling.neighbor import NeighborSampler
        from repro.graph.generators import power_law_graph

        graph = power_law_graph(200, 1000, seed=0)
        sampler = NeighborSampler(graph, (3, 3), seed=0)
        batch = sampler.sample(np.arange(16))
        features = rng.standard_normal((batch.num_input_nodes, 8))
        labels = rng.integers(0, 4, size=16)
        loss_before = model.train_step(batch, features, labels)
        assert loss_before > 0
        other.load_state_dict(model.state_dict())
        a = model.train_step(batch, features, labels)
        b = other.train_step(batch, features, labels)
        assert a == b

    def test_graphsage_shape_mismatch(self):
        model = GraphSAGE(8, 16, 4, num_layers=2, seed=1)
        wrong = GraphSAGE(8, 32, 4, num_layers=2, seed=1)
        with pytest.raises(CheckpointError):
            wrong.load_state_dict(model.state_dict())

    def test_seed_stream_round_trip(self):
        rng_a = np.random.default_rng(3)
        rng_b = np.random.default_rng(3)
        a = SeedBatchStream(np.arange(100), 32, rng_a)
        for _ in range(5):
            a.next()
        b = SeedBatchStream(np.arange(100), 32, rng_b)
        rng_b.bit_generator.state = rng_a.bit_generator.state
        b.load_state_dict(a.state_dict())
        for _ in range(7):
            np.testing.assert_array_equal(a.next(), b.next())

    def test_seed_stream_batch_size_mismatch(self):
        a = SeedBatchStream(np.arange(100), 32, np.random.default_rng(0))
        b = SeedBatchStream(np.arange(100), 16, np.random.default_rng(0))
        with pytest.raises(CheckpointError):
            b.load_state_dict(a.state_dict())

    def test_transfer_counters_rejects_unknown_fields(self):
        with pytest.raises(CheckpointError):
            TransferCounters.from_state_dict({"bogus_field": 1})

    def test_fault_injector_round_trip(self):
        plan = FaultPlan(seed=5, read_failure_rate=0.1, tail_latency_rate=0.05)
        a = FaultInjector(plan)
        a.resolve_batch(500)
        a.spike_count(500)
        b = FaultInjector(plan)
        b.load_state_dict(a.state_dict())
        assert b.stats.state_dict() == a.stats.state_dict()
        assert a.resolve_batch(300) == b.resolve_batch(300)

    def test_fault_injector_seed_mismatch(self):
        a = FaultInjector(FaultPlan(seed=5, read_failure_rate=0.1))
        b = FaultInjector(FaultPlan(seed=6, read_failure_rate=0.1))
        with pytest.raises(CheckpointError):
            b.load_state_dict(a.state_dict())


class TestCrashEvent:
    def test_validation(self):
        with pytest.raises(ConfigError):
            CrashEvent(at_iteration=0)

    def test_plan_round_trip(self):
        plan = FaultPlan(
            seed=2,
            read_failure_rate=0.01,
            crash_events=(CrashEvent(4), CrashEvent(11)),
        )
        restored = FaultPlan.from_json(plan.to_json())
        assert restored == plan
        assert restored.crash_events == (CrashEvent(4), CrashEvent(11))

    def test_crash_only_plan_is_null_for_storage(self):
        plan = FaultPlan(crash_events=(CrashEvent(3),))
        assert plan.is_null()


class TestLoaderStateDict:
    @pytest.fixture
    def parts(self):
        dataset = load_scaled("IGB-tiny", 0.05, seed=3)
        system = SystemConfig(ssd=INTEL_OPTANE, num_ssds=1)
        config = LoaderConfig(
            gpu_cache_bytes=dataset.feature_data_bytes * 0.05,
            cpu_buffer_fraction=0.10,
            window_depth=4,
        )
        return dataset, system, config

    def _make(self, parts, **kwargs):
        dataset, system, config = parts
        return GIDSDataLoader(
            dataset, system, config,
            batch_size=64, fanouts=(5, 5), seed=1, **kwargs,
        )

    def test_resume_bit_identical_metrics(self, parts):
        ref = self._make(parts)
        ref_metrics = []
        remaining = 20
        while remaining:
            pairs = ref.next_training_group(remaining)
            ref_metrics.extend(m.state_dict() for _, m in pairs)
            remaining -= len(pairs)

        first = self._make(parts)
        got = []
        remaining = 20
        while remaining > 12:
            pairs = first.next_training_group(remaining)
            got.extend(m.state_dict() for _, m in pairs)
            remaining -= len(pairs)
        snap = first.state_dict()

        second = self._make(parts)
        second.load_state_dict(snap)
        while remaining:
            pairs = second.next_training_group(remaining)
            got.extend(m.state_dict() for _, m in pairs)
            remaining -= len(pairs)
        assert repr(got) == repr(ref_metrics)

    def test_loader_kind_mismatch(self, parts):
        from repro.core.bam import BaMDataLoader

        dataset, system, config = parts
        gids = self._make(parts)
        bam = BaMDataLoader(
            dataset, system, config, batch_size=64, fanouts=(5, 5), seed=1
        )
        with pytest.raises(CheckpointError):
            bam.load_state_dict(gids.state_dict())

    def test_fault_support_mismatch(self, parts):
        healthy = self._make(parts)
        faulty = self._make(
            parts, fault_plan=FaultPlan(seed=1, read_failure_rate=0.05)
        )
        with pytest.raises(CheckpointError):
            faulty.load_state_dict(healthy.state_dict())
