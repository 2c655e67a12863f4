"""One skew sweep over every state table, and a parent-written snapshot.

``repro.state`` is the only place that decides what happens when a
snapshot and the live object disagree.  This module discovers every class
that declares a table, finds a live instance of it in a handful of small
running workloads, and checks

* the round trip: ``load(save(x))`` followed by ``save`` equals the first
  snapshot;
* the policy: dropping each key, adding a ``bogus`` key, perturbing each
  guard and nulling / un-nulling each optional component raises the
  table's typed error — never ``KeyError``, ``TypeError`` or
  ``AttributeError``; late keys (absent from older snapshots) and lenient
  telemetry riders load either way, and a retired key (present only in
  older snapshots) is accepted and dropped.

A current snapshot with its retired keys added back must also resume
bit-identically, for every driver that retired some.

``tests/data/parent_train_ckpt-00000006.bin`` was written by ``repro
train`` at the commit before the tables (the command is in
``TestParentSnapshot``), with every plane on; it must keep resuming to the
losses an uninterrupted run produces.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import shutil
from collections import deque
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import state as codec
from repro.checkpoint.snapshot import read_snapshot
from repro.cli import main
from repro.config import (
    INTEL_OPTANE,
    SAMSUNG_980PRO,
    LoaderConfig,
    SystemConfig,
)
from repro.core.fleet import ElasticFleetTrainer, FleetConfig
from repro.core.gids import GIDSDataLoader
from repro.errors import CheckpointError
from repro.faults import DeviceEvent, FaultPlan
from repro.faults.plan import CorruptionEvent
from repro.fullgraph import FullGraphConfig, FullGraphTrainer
from repro.graph.datasets import load_scaled
from repro.pipeline.runner import TrainingPipeline
from repro.serving import ArrivalConfig, InferenceServer, ServingConfig
from repro.telemetry import FlightRecorder, MetricsSnapshotter, Tracer
from repro.training.graphsage import GraphSAGE
from tests.test_readpath_golden import _canonical

DATA = Path(__file__).parent / "data"


# ----------------------------------------------------------------------
# Discovery


def table_classes() -> list[type]:
    """Every class under ``repro`` that declares its own ``STATE``."""
    found = set()
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            if (
                isinstance(value, type)
                and value.__module__ == module.__name__
                and vars(value).get("STATE")
            ):
                found.add(value)
    return sorted(found, key=lambda cls: (cls.__module__, cls.__name__))


TABLES = table_classes()


def _plan(**extra) -> FaultPlan:
    return FaultPlan(
        seed=9,
        read_failure_rate=0.02,
        bitflip_rate=2e-3,
        corruption_events=(CorruptionEvent(0, 0.0, 0.05),),
        **extra,
    )


def _worlds() -> list[object]:
    """Small live workloads that, between them, hold every table."""
    dataset = load_scaled("IGB-tiny", 0.02, seed=3)
    # The tracer owns both sinks; the loader's groups drive the stream.
    tracer = Tracer(
        detail="request",
        flight=FlightRecorder(capacity=16),
        snapshotter=MetricsSnapshotter(every_s=0.001),
    )
    loader = GIDSDataLoader(
        dataset,
        SystemConfig(ssd=SAMSUNG_980PRO, num_ssds=4),
        LoaderConfig(
            gpu_cache_bytes=dataset.feature_data_bytes * 0.05,
            cpu_buffer_fraction=0.10,
            window_depth=3,
        ),
        batch_size=16,
        fanouts=(3, 3),
        seed=2,
        tracer=tracer,
        fault_plan=_plan(
            device_events=(DeviceEvent(1, "dropout", 0.0005),)
        ),
        replication=2,
        rebuild_iops=1e6,
        verify_reads="full",
        scrub_iops=2e5,
    )
    pipeline = TrainingPipeline(
        loader,
        GraphSAGE(dataset.feature_dim, 4, 3, num_layers=2, seed=7),
        num_classes=3,
    )
    pipeline.train(5)

    server = InferenceServer(
        dataset,
        SystemConfig(ssd=INTEL_OPTANE, num_ssds=2),
        LoaderConfig(gpu_cache_bytes=dataset.feature_data_bytes * 0.02),
        arrival=ArrivalConfig(shape="bursty", rate=4000.0, seed=3),
        serving=ServingConfig(protection=True),
        fanouts=(3, 3),
        seed=4,
        fault_plan=_plan(),
        replication=2,
    )
    server.serve(60)

    fleet = ElasticFleetTrainer(
        dataset,
        SystemConfig(ssd=INTEL_OPTANE, num_ssds=2),
        FleetConfig(num_gpus=2, batch_size=4),
        seed=6,
        fanouts=(3, 3),
        gpu_cache_bytes=dataset.feature_data_bytes * 0.02,
        fault_plan=_plan(),
        replication=2,
    )
    fleet.run_epoch(max_steps=3)

    sweep = FullGraphTrainer(
        load_scaled("IGB-tiny", 0.001, seed=3),
        SystemConfig(ssd=SAMSUNG_980PRO, num_ssds=2),
        FullGraphConfig(
            hidden_dim=4, num_classes=3, hbm_budget_bytes=6e6,
            num_partitions=4,
        ),
        fault_plan=_plan(),
        verify_reads="full",
    )
    sweep.run_steps(5)  # mid-epoch: gradients and pending blocks are live

    # The recording tracer first: every untraced driver now holds a
    # (blank) disabled one, and the sweep should get the one with events.
    return [tracer, pipeline, server, fleet, sweep]


def _harvest(roots) -> dict[type, object]:
    """The first instance of each table class reachable from ``roots``."""
    wanted, found, seen = set(TABLES), {}, set()
    queue = deque(roots)
    while queue and len(found) < len(wanted):
        obj = queue.popleft()
        if id(obj) in seen or isinstance(
            obj, (str, bytes, int, float, bool, type(None), np.ndarray)
        ):
            continue
        seen.add(id(obj))
        if type(obj) in wanted:
            found.setdefault(type(obj), obj)
        if isinstance(obj, dict):
            queue.extend(obj.values())
        elif isinstance(obj, (list, tuple, deque, set)):
            queue.extend(obj)
        elif type(obj).__module__.startswith("repro."):
            queue.extend(getattr(obj, "__dict__", {}).values())
    return found


@pytest.fixture(scope="module")
def instances() -> dict[type, object]:
    return _harvest(_worlds())


# ----------------------------------------------------------------------
# The sweep

#: What a load must never die of: the policy's errors are typed.
_UNTYPED = (KeyError, TypeError, AttributeError, IndexError, ValueError)


def _text(state) -> str:
    return json.dumps(_canonical(state), sort_keys=True)


def _restore(cls, live, state):
    """Load ``state`` the way the class is loaded; returns the holder."""
    if issubclass(cls, codec.StateRecord):
        return cls.from_state_dict(state)
    live.load_state_dict(state)
    return live


def _mutations(fields, state: dict):
    """``(label, mutate(state), refused)`` for every skew of one layout.

    ``mutate`` edits a dict of this layout in place; ``refused`` says
    whether the policy must reject the result.
    """
    yield "bogus key", lambda s: s.update(bogus=1), True
    for field in fields:
        if field.kind == "retired":
            # What a snapshot written before the key was retired holds.
            yield (
                f"add retired {field.key!r}",
                lambda s, key=field.key: s.update({key: [0]}),
                False,
            )
            continue
        for key in field.keys_of(state):
            if key in state:
                yield (
                    f"drop {key!r}",
                    lambda s, key=key: s.pop(key),
                    not field.late and not field.lenient,
                )
        key = field.key
        if field.kind == "guard":
            yield (
                f"perturb guard {key!r}",
                lambda s, key=key: s.update({key: ("perturbed", s[key])}),
                True,
            )
        if field.optional:
            if state.get(key) is None:
                yield (
                    f"un-null {key!r}",
                    lambda s, key=key: s.update({key: {}}),
                    not field.lenient,
                )
            elif not field.omit or field.lenient:
                yield (
                    f"null {key!r}",
                    lambda s, key=key: s.update({key: None}),
                    not field.lenient,
                )
        if field.kind == "group" and isinstance(state.get(key), dict):
            for label, mutate, refused in _mutations(field.fields, state[key]):
                yield (
                    f"{key!r}: {label}",
                    lambda s, key=key, mutate=mutate: mutate(s[key]),
                    refused,
                )


def test_every_table_has_a_live_instance(instances):
    missing = [cls.__name__ for cls in TABLES if cls not in instances]
    assert not missing, (
        f"no live instance of {missing} in _worlds(); add one so the "
        "skew sweep covers the new table"
    )


@pytest.mark.parametrize("cls", TABLES, ids=lambda cls: cls.__name__)
def test_round_trip_reproduces_the_snapshot(cls, instances):
    live = instances[cls]
    first = live.state_dict()
    again = _restore(cls, live, live.state_dict()).state_dict()
    assert _text(again) == _text(first)
    assert list(again) == list(first), "key order is part of the layout"


@pytest.mark.parametrize("cls", TABLES, ids=lambda cls: cls.__name__)
def test_every_skew_raises_the_typed_error(cls, instances):
    live = instances[cls]
    reference = live.state_dict()
    swept = 0
    for label, mutate, refused in _mutations(cls.STATE, reference):
        state = live.state_dict()
        for field in cls.STATE:  # groups are edited in place: own copy
            if field.kind == "group" and isinstance(state[field.key], dict):
                state[field.key] = dict(state[field.key])
        mutate(state)
        try:
            _restore(cls, live, state)
        except cls.STATE_ERROR as exc:
            assert refused, f"{cls.__name__}: {label} was refused: {exc}"
            assert cls.__name__ in str(exc)
        except _UNTYPED as exc:  # pragma: no cover - the failure message
            pytest.fail(f"{cls.__name__}: {label} died of {exc!r}")
        else:
            assert not refused, f"{cls.__name__}: {label} was accepted"
        swept += 1
    assert swept >= 2
    # The refused loads left the object loadable and unchanged.
    assert _text(
        _restore(cls, live, live.state_dict()).state_dict()
    ) == _text(reference)


# ----------------------------------------------------------------------
# Retired keys


def _server(dataset) -> InferenceServer:
    return InferenceServer(
        dataset,
        SystemConfig(ssd=INTEL_OPTANE, num_ssds=2),
        LoaderConfig(gpu_cache_bytes=dataset.feature_data_bytes * 0.02),
        arrival=ArrivalConfig(shape="bursty", rate=4000.0, seed=3),
        serving=ServingConfig(protection=True),
        fanouts=(3, 3),
        seed=4,
        fault_plan=_plan(device_events=(DeviceEvent(1, "dropout", 0.004),)),
    )


def _fleet(dataset) -> ElasticFleetTrainer:
    return ElasticFleetTrainer(
        dataset,
        SystemConfig(ssd=INTEL_OPTANE, num_ssds=2),
        FleetConfig(num_gpus=2, batch_size=4),
        seed=6,
        fanouts=(3, 3),
        gpu_cache_bytes=dataset.feature_data_bytes * 0.02,
        fault_plan=_plan(),
        replication=2,
    )


def _sweep(dataset) -> FullGraphTrainer:
    return FullGraphTrainer(
        load_scaled("IGB-tiny", 0.001, seed=3),
        SystemConfig(ssd=SAMSUNG_980PRO, num_ssds=2),
        FullGraphConfig(
            hidden_dim=4, num_classes=3, hbm_budget_bytes=6e6,
            num_partitions=4,
        ),
        fault_plan=_plan(),
        verify_reads="full",
    )


def _add_server_keys(state: dict) -> None:
    n = len(state["latencies"])
    state["latency_priorities"] = [i % 3 for i in range(n)]
    state["deadline_flags"] = [i % 2 == 0 for i in range(n)]


def _add_fleet_keys(state: dict) -> None:
    for worker in state["workers"]:
        worker["last_step_s"] = 1e-3


def _add_sweep_keys(state: dict) -> None:
    state["activations"]["spilled_bytes"] = 4096
    state["activations"]["reloaded_bytes"] = 8192


#: ``(build(dataset), advance(driver), add the retired keys(state))``.
_RETIRING = {
    "server": (_server, lambda d: d.serve(40), _add_server_keys),
    "fleet": (_fleet, lambda d: d.run_epoch(max_steps=2), _add_fleet_keys),
    "fullgraph": (_sweep, lambda d: d.run_steps(3), _add_sweep_keys),
}


@pytest.mark.parametrize("name", sorted(_RETIRING))
def test_a_snapshot_with_retired_keys_resumes_bit_identically(name):
    build, advance, add_retired = _RETIRING[name]
    dataset = load_scaled("IGB-tiny", 0.02, seed=3)
    original = build(dataset)
    advance(original)
    state = original.state_dict()
    add_retired(state)
    resumed = build(dataset)
    resumed.load_state_dict(state)
    assert _text(resumed.state_dict()) == _text(original.state_dict())
    advance(original)
    advance(resumed)
    assert _text(resumed.state_dict()) == _text(original.state_dict())


# ----------------------------------------------------------------------
# Corners of the codec the live tables reach only partly


class TestCodec:
    def test_not_a_mapping(self):
        with pytest.raises(CheckpointError, match="not a mapping"):
            GraphSAGE(8, 4, 3, num_layers=2).load_state_dict([1, 2])

    def test_unconvertible_value_is_typed(self, instances):
        pipeline = instances[TrainingPipeline]
        state = pipeline.state_dict()
        state["completed_steps"] = "seven"
        with pytest.raises(CheckpointError, match="completed_steps"):
            pipeline.load_state_dict(state)

    def test_wrong_child_count_names_the_key(self):
        model = GraphSAGE(8, 4, 3, num_layers=2)
        state = model.state_dict()
        state["layers"] = state["layers"][:1]
        with pytest.raises(CheckpointError, match="layers"):
            model.load_state_dict(state)

    def test_component_without_the_protocol(self):
        from repro.baselines.mmap_loader import DGLMmapLoader

        dataset = load_scaled("IGB-tiny", 0.01, seed=3)
        loader = DGLMmapLoader(
            dataset, SystemConfig(ssd=INTEL_OPTANE, num_ssds=1)
        )
        pipeline = TrainingPipeline(
            loader,
            GraphSAGE(dataset.feature_dim, 4, 3, num_layers=2),
            num_classes=3,
        )
        with pytest.raises(CheckpointError, match="DGLMmapLoader"):
            pipeline.state_dict()

    def test_telemetry_tables_raise_telemetry_errors(self):
        from repro.errors import TelemetryError

        for cls in TABLES:
            expected = (
                TelemetryError
                if cls.__module__.startswith("repro.telemetry.")
                else CheckpointError
            )
            assert cls.STATE_ERROR is expected, cls


# ----------------------------------------------------------------------
# A snapshot written before the tables


class TestParentSnapshot:
    #: The generating run, at the parent commit, was this command with
    #: ``--iterations 7``; its ``ckpt-00000006.bin`` is the fixture.
    ARGV = [
        "train", "--dataset", "IGB-tiny", "--scale", "0.02",
        "--classes", "3", "--hidden-dim", "2", "--batch-size", "16",
        "--fault-plan", "plan.json", "--verify-reads", "full",
        "--scrub-iops", "1e5", "--rebuild-iops", "1e5",
        "--trace", "t.json", "--blackbox", "box.json",
        "--checkpoint-every", "3", "--iterations", "12",
    ]
    PLAN = {
        "seed": 5, "read_failure_rate": 0.02, "tail_latency_rate": 0.01,
        "bitflip_rate": 0.001,
        "corruption_events": [
            {"device": 0, "at_time_s": 0.0, "page_fraction": 0.02}
        ],
    }
    #: ``losses[-1]`` of the uninterrupted 12-step run; a ledgered pin
    #: (``tests/data/digest_ledger.json``), like the goldens.
    FINAL_LOSS = 0.5522107941001273

    def test_resumes_to_the_uninterrupted_losses(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "plan.json").write_text(json.dumps(self.PLAN))
        (tmp_path / "resumed").mkdir()
        shutil.copy(
            DATA / "parent_train_ckpt-00000006.bin",
            tmp_path / "resumed" / "ckpt-00000006.bin",
        )
        assert main(
            self.ARGV + ["--checkpoint-dir", "resumed", "--resume"]
        ) == 0
        assert "1 restore(s)" in capsys.readouterr().out
        assert main(self.ARGV + ["--checkpoint-dir", "straight"]) == 0

        resumed = read_snapshot(str(tmp_path / "resumed/ckpt-00000012.bin"))
        straight = read_snapshot(str(tmp_path / "straight/ckpt-00000012.bin"))
        assert resumed["losses"] == straight["losses"]
        assert resumed["losses"][-1] == self.FINAL_LOSS
        # Not only the losses: the whole model came back.  The fixture's
        # first six steps ran the unpruned training step, whose GEMMs
        # round their last bits differently, so the layer weights and
        # momentum buffers agree to 1e-9 of each tensor's scale; every
        # other key of the model, bit for bit.
        got = json.loads(_text(resumed["model"]))
        want = json.loads(_text(straight["model"]))
        assert {k: v for k, v in got.items() if k != "layers"} == {
            k: v for k, v in want.items() if k != "layers"
        }
        for ours, theirs in zip(got["layers"], want["layers"], strict=True):
            assert sorted(ours) == sorted(theirs)
            for name, (dtype, shape, values) in theirs.items():
                assert ours[name][:2] == [dtype, shape], name
                values = np.asarray(values)
                scale = np.abs(values).max(initial=0.0)
                assert np.all(
                    np.abs(np.asarray(ours[name][2]) - values)
                    <= 1e-9 * scale
                ), name

    def test_restoring_the_fixture_model_is_lossless(self):
        """What the resumed run starts from is the fixture's model, bit for
        bit: the tolerance above covers training steps, not the restore."""
        saved = read_snapshot(str(DATA / "parent_train_ckpt-00000006.bin"))
        layers = saved["model"]["layers"]
        model = GraphSAGE(
            layers[0]["w_self"].shape[0],
            layers[0]["w_self"].shape[1],
            layers[-1]["w_self"].shape[1],
            num_layers=saved["model"]["num_layers"],
            aggregator=saved["model"]["aggregator"],
            # Nothing the restore should keep: every value must come
            # from the fixture.
            lr=1.0, momentum=0.0, seed=99,
        )
        model.load_state_dict(saved["model"])
        assert _text(model.state_dict()) == _text(saved["model"])

    def test_fixture_is_small(self):
        size = (DATA / "parent_train_ckpt-00000006.bin").stat().st_size
        assert size <= 200 * 1024
