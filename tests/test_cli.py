"""Unit tests for the command-line interface."""

import dataclasses
import json

import pytest

from repro.cli import build_parser, main


def _band_cells(out: str, claim: str) -> list[str]:
    """The cells of ``claim``'s band line in a figure's output."""
    line = next(line for line in out.splitlines() if line.startswith(claim))
    return [cell.strip() for cell in line.split(" | ")]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.dataset == "IGB-Full"
        assert args.loader == "all"
        assert args.ssd == "optane"

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])


class TestCommands:
    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "IGB-Full" in out
        assert "MAG240M" in out

    def test_ssd_model(self, capsys):
        assert main(["ssd-model", "--ssd", "optane"]) == 0
        out = capsys.readouterr().out
        assert "Intel Optane" in out
        assert "95%" in out

    def test_ssd_model_multi(self, capsys):
        assert main(["ssd-model", "--ssd", "980pro", "--num-ssds", "2"]) == 0
        assert "x2" in capsys.readouterr().out

    def test_run_single_loader_json(self, capsys):
        code = main(
            [
                "run", "--dataset", "IGB-tiny", "--scale", "0.02",
                "--loader", "gids", "--iterations", "5",
                "--format", "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["loader"] == "GIDS"
        assert payload[0]["iterations"] == 5

    def test_run_csv(self, capsys):
        code = main(
            [
                "run", "--dataset", "IGB-tiny", "--scale", "0.02",
                "--loader", "bam", "--iterations", "5", "--format", "csv",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("loader,")
        assert "BaM" in out

    def test_figure_table(self, capsys):
        assert main(["figure", "table02"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert _band_cells(out, "datasets listed") == [
            "datasets listed", "4", "(3, 5)", "4", "PASS"
        ]

    def test_figure_exits_1_on_a_red_band(self, capsys, monkeypatch):
        from repro.bench import conform

        red = tuple(
            dataclasses.replace(band, hi=4)
            if band.experiment == "table02" else band
            for band in conform.BANDS
        )
        monkeypatch.setattr(conform, "BANDS", red)
        assert main(["figure", "table02"]) == 1
        cells = _band_cells(capsys.readouterr().out, "datasets listed")
        assert cells[2:] == ["(3, 4)", "4", "FAIL"]

    def test_train(self, capsys):
        code = main(
            [
                "train", "--dataset", "IGB-tiny", "--scale", "0.02",
                "--iterations", "10", "--classes", "3",
                "--hidden-dim", "8", "--batch-size", "32",
            ]
        )
        assert code == 0
        assert "accuracy" in capsys.readouterr().out


_TINY = ["--dataset", "IGB-tiny", "--scale", "0.02"]
_GIDS = ["run", *_TINY, "--loader", "gids", "--iterations", "3"]
_TRAIN = ["train", *_TINY, "--iterations", "3", "--hidden-dim", "16"]
_SWEEP = [
    "fullgraph", *_TINY, "--hbm-mb", "4", "--checkpoint-dir", "ckpt",
]
_WORKLOADS = ("run", "train", "fleet", "fullgraph", "serve")

#: Hostile invocations that used to end in a traceback (exit 1) or, for
#: the negative scrub budget, in a silently accepted run (exit 0).
HOSTILE = {
    "zero-iterations": _GIDS + ["--iterations", "0"],
    "zero-ssds": _GIDS + ["--num-ssds", "0"],
    "unknown-dataset": ["run", "--dataset", "NOPE"],
    "zero-trace-cap": _GIDS + ["--trace", "t.json", "--trace-cap", "0"],
    "nan-scale": _TRAIN + ["--scale", "nan"],
    "zero-checkpoint-cadence": (
        _TRAIN + ["--checkpoint-dir", "d", "--checkpoint-every", "0"]
    ),
    "nan-snapshot-cadence": (
        _TRAIN + ["--stream", "s.jsonl", "--snapshot-every", "nan"]
    ),
    "negative-scrub-budget": _GIDS + ["--scrub-iops", "-5"],
    "fullgraph-zero-epochs": _SWEEP + ["--epochs", "0"],
    # A NaN target used to die in the JSON writer, an out-of-range one to
    # run (exit 0), and --steps 0 to fail on an empty report naming no flag.
    "fullgraph-nan-target-acc": _SWEEP + ["--target-acc", "nan"],
    "fullgraph-negative-target-acc": _SWEEP + ["--target-acc", "-1"],
    "fullgraph-target-acc-above-one": _SWEEP + ["--target-acc", "1.5"],
    "fullgraph-zero-steps": _SWEEP + ["--steps", "0"],
    # "ckpt" holds snapshots of a model with a different --hidden-dim.
    "resume-skewed-checkpoint": (
        _TRAIN + ["--checkpoint-dir", "ckpt", "--resume"]
    ),
    # "ckpt" holds a sweep over the 48 partitions the planner picked; both
    # of these used to resume it (exit 0) under another configuration.
    "fullgraph-resume-other-partitions": (
        _SWEEP + ["--partitions", "32", "--resume"]
    ),
    "fullgraph-resume-other-planes": (
        _SWEEP + ["--fault-plan", "p.json", "--verify-reads", "full",
                  "--resume"]
    ),
}

#: The flag a hostile case's error line must name.
_NAMES_FLAG = {
    "fullgraph-nan-target-acc": "--target-acc",
    "fullgraph-negative-target-acc": "--target-acc",
    "fullgraph-target-acc-above-one": "--target-acc",
    "fullgraph-zero-steps": "--steps",
}

#: The run that fills "ckpt" before a hostile ``--resume``.
_WRITES_CKPT = {
    "resume-skewed-checkpoint": (
        _TRAIN + ["--hidden-dim", "8", "--checkpoint-dir", "ckpt",
                  "--checkpoint-every", "2"]
    ),
    "fullgraph-resume-other-partitions": _SWEEP + ["--steps", "10"],
    "fullgraph-resume-other-planes": _SWEEP + ["--steps", "10"],
}


class TestHostileInput:
    @pytest.mark.parametrize("name", sorted(HOSTILE))
    def test_exits_two_with_one_error_line(
        self, name, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "p.json").write_text('{"seed": 1}')
        if name in _WRITES_CKPT:
            assert main(_WRITES_CKPT[name]) == 0
            capsys.readouterr()
        assert main(HOSTILE[name]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        flag = _NAMES_FLAG.get(name)
        assert flag is None or flag in lines[0], lines

    @pytest.mark.parametrize(
        "flags, commands",
        [
            (["--scrub-iops", "-5"], ("run", "train")),
            (["--checkpoint-every", "-3"], ("run", "train", "fullgraph")),
            (["--snapshot-every", "inf"], _WORKLOADS),
            (["--trace-cap", "-1"], _WORKLOADS),
            (["--rebuild-iops", "nan"], _WORKLOADS),
        ],
    )
    def test_flag_families_are_validated_for_every_workload(
        self, flags, commands, capsys
    ):
        # One validator per family, in RunContext: the same bad value is
        # rejected by every command that carries the family's flags, as a
        # typed error through main()'s one handler.
        for command in commands:
            assert main([command, *flags]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err


class TestPlaneBlocksAndNotes:
    """Redundant runs export their ``storage_ha`` block on every path, and
    a workload with no integrity plane says so when a plan corrupts."""

    _HA = ["--num-ssds", "2", "--replication", "2", "--format", "json"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["fullgraph", "--dataset", "IGB-tiny", "--scale", "0.002",
             "--epochs", "1", "--hbm-mb", "4"],
            ["run", "--dataset", "IGB-tiny", "--scale", "0.02",
             "--loader", "gids", "--iterations", "4",
             "--checkpoint-dir", "ckpt"],
        ],
        ids=["fullgraph", "run-supervised"],
    )
    def test_redundant_export_carries_storage_ha(
        self, argv, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        assert main(argv + self._HA) == 0
        block = json.loads(capsys.readouterr().out)["storage_ha"]
        assert block["mode"] == "replication"
        assert block["replication_factor"] == 2
        assert block["device_states"] == ["healthy", "healthy"]

    @pytest.mark.parametrize("corrupt", [True, False], ids=["corrupt", "clean"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--dataset", "IGB-tiny", "--scale", "0.02",
             "--requests", "20"],
            ["fleet", "--dataset", "IGB-tiny", "--scale", "0.02",
             "--gpus", "2", "--batch-size", "8"],
        ],
        ids=["serve", "fleet"],
    )
    def test_ignored_corruption_is_noted(self, argv, corrupt, capsys, tmp_path):
        plan = {"seed": 1, "read_failure_rate": 0.01}
        if corrupt:
            plan.update(
                bitflip_rate=0.01,
                corruption_events=[
                    {"device": 0, "at_time_s": 0.0, "page_fraction": 0.5}
                ],
            )
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan))
        assert main(argv + ["--fault-plan", str(path)]) == 0
        noted = [
            line for line in capsys.readouterr().err.splitlines()
            if "corruption" in line
        ]
        assert len(noted) == corrupt
        if corrupt:
            assert noted[0].startswith(f"note: {argv[0]} does not model")
            assert "corruption, corruption storms;" in noted[0]


#: One of every part a fault plan can set, by the name notes give it.
_PLAN_PARTS = {
    "read failures": {"read_failure_rate": 0.05},
    "tail spikes": {"tail_latency_rate": 0.05},
    "device events": {"device_events": [
        {"device": 0, "kind": "slowdown", "at_time_s": 0.0, "factor": 2.0}
    ]},
    "PCIe degradation": {"pcie_degradation_factor": 2.0},
    "corruption": {"bitflip_rate": 0.001},
    "corruption storms": {"corruption_events": [
        {"device": 0, "at_time_s": 0.0, "page_fraction": 0.05}
    ]},
    "crash events": {"crash_events": [{"at_iteration": 2}]},
    "worker events": {"worker_events": [
        {"worker": "gpu:1", "kind": "straggle", "at_time_s": 0.0,
         "factor": 2.0}
    ]},
}

_RUN = ["run", "--dataset", "IGB-tiny", "--scale", "0.02", "--iterations",
        "4", "--format", "json"]

#: Driver -> (argv, the name its note gives it, the plan parts it does not
#: model), read from the drivers: each of these parts leaves the driver's
#: export as an empty plan's.
_UNMODELED = {
    "run": (_RUN + ["--loader", "gids"], "run",
            ("crash events", "worker events")),
    "run-supervised": (
        _RUN + ["--loader", "gids", "--checkpoint-dir", "ckpt"], "run",
        ("worker events",),
    ),
    "train": (["train", "--scale", "0.02", "--iterations", "4"], "train",
              ("crash events", "worker events")),
    "serve": (["serve", "--dataset", "IGB-tiny", "--scale", "0.02",
               "--requests", "20", "--format", "json"], "serve",
              ("corruption", "corruption storms", "crash events",
               "worker events")),
    "fleet": (["fleet", "--dataset", "IGB-tiny", "--scale", "0.02",
               "--gpus", "2", "--batch-size", "8", "--format", "json"],
              "fleet",
              ("read failures", "tail spikes", "PCIe degradation",
               "corruption", "corruption storms", "crash events")),
    "fullgraph": (["fullgraph", "--dataset", "IGB-tiny", "--scale", "0.002",
                   "--epochs", "1", "--hbm-mb", "4", "--format", "json"],
                  "fullgraph",
                  ("device events", "PCIe degradation", "crash events",
                   "worker events")),
    "fullgraph-supervised": (
        ["fullgraph", "--dataset", "IGB-tiny", "--scale", "0.002",
         "--epochs", "1", "--hbm-mb", "4", "--format", "json",
         "--checkpoint-dir", "ckpt"],
        "fullgraph",
        ("device events", "PCIe degradation", "worker events"),
    ),
    "ginex": (_RUN + ["--loader", "ginex"], "run --loader ginex",
              ("corruption storms", "crash events", "worker events")),
    "mmap": (_RUN + ["--loader", "mmap"], "run --loader mmap",
             tuple(_PLAN_PARTS)),
}


def _plan_notes(argv, parts, tmp_path, monkeypatch, capsys) -> list[str]:
    """The ``does not model`` notes of ``argv`` under a plan that sets
    exactly ``parts``."""
    plan = {"seed": 3}
    for part in parts:
        plan.update(_PLAN_PARTS[part])
    (tmp_path / "plan.json").write_text(json.dumps(plan))
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--fault-plan", "plan.json"]) == 0
    return [
        line for line in capsys.readouterr().err.splitlines()
        if "does not model" in line
    ]


@pytest.mark.parametrize("driver", sorted(_UNMODELED))
def test_each_command_names_the_plan_parts_it_ignores(
    driver, tmp_path, monkeypatch, capsys
):
    """No part of a fault plan is dropped silently: a plan setting every
    part gets exactly one note, naming the parts the driver ignores."""
    argv, name, unmodeled = _UNMODELED[driver]
    assert _plan_notes(argv, _PLAN_PARTS, tmp_path, monkeypatch, capsys) == [
        f"note: {name} does not model the plan's {', '.join(unmodeled)}; "
        "they are ignored"
    ]


@pytest.mark.parametrize("driver", sorted(_UNMODELED))
def test_a_fully_modeled_plan_prints_no_note(
    driver, tmp_path, monkeypatch, capsys
):
    argv, _, unmodeled = _UNMODELED[driver]
    modeled = [part for part in _PLAN_PARTS if part not in unmodeled]
    assert _plan_notes(argv, modeled, tmp_path, monkeypatch, capsys) == []


@pytest.mark.parametrize(
    "driver", sorted(set(_UNMODELED) - {"mmap"})  # mmap ignores every part
)
def test_a_plan_targeting_a_device_outside_the_array_exits_2(
    driver, tmp_path, monkeypatch, capsys
):
    """A device event past the array is refused by every driver that takes
    the plan, as ``faults validate --num-ssds`` flags it: one ``error:``
    line naming the event and exit 2, never a healthy run ignoring it."""
    argv, _, _ = _UNMODELED[driver]
    plan = {"device_events": [
        {"device": 5, "kind": "dropout", "at_time_s": 0.0}
    ]}
    (tmp_path / "plan.json").write_text(json.dumps(plan))
    monkeypatch.chdir(tmp_path)
    problem = "dropout event targets device 5 but a 1-SSD array only has " \
        "devices 0..0"
    assert main(["faults", "validate", "plan.json", "--num-ssds", "1"]) == 2
    assert f"error: {problem}" in capsys.readouterr().err.splitlines()
    assert main(argv + ["--fault-plan", "plan.json"]) == 2
    errors = capsys.readouterr().err.splitlines()
    assert [line for line in errors if line.startswith("error:")] == [
        f"error: fault plan: {problem}"
    ]


# ----------------------------------------------------------------------
# One checkpoint loop: every supervised command runs through
# RunSupervisor.run

_FULLGRAPH = ["fullgraph", "--dataset", "IGB-tiny", "--scale", "0.002",
              "--hbm-mb", "4"]

#: Driver -> a supervised invocation of it (``--checkpoint-dir`` added).
_SUPERVISED = {
    "pipeline": ["run", *_TINY, "--loader", "gids", "--iterations", "9"],
    "fullgraph": _FULLGRAPH + ["--epochs", "1"],
}


def _without_summary(doc: dict) -> dict:
    return {k: v for k, v in doc.items() if k != "checkpoint_summary"}


@pytest.mark.parametrize(
    "crash_at", [2, 5], ids=["before-first-snapshot", "after-a-snapshot"]
)
@pytest.mark.parametrize("driver", sorted(_SUPERVISED))
def test_a_crash_changes_nothing_but_the_checkpoint_summary(
    driver, crash_at, tmp_path, monkeypatch, capsys
):
    """A crash kills the driver, the supervisor restores the snapshot of
    step 3 (or, before it, starts over) in a fresh one, and the run ends as
    if nothing happened: export, table, trace file and metric stream are
    the uninterrupted run's."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "crash.json").write_text(
        json.dumps({"crash_events": [{"at_iteration": crash_at}]})
    )

    def invoke(arm: str, *extra: str) -> str:
        argv = _SUPERVISED[driver] + [
            "--checkpoint-dir", f"ckpt-{arm}", "--checkpoint-every", "3",
            *extra,
        ]
        if arm == "crashed":
            argv += ["--fault-plan", "crash.json"]
        assert main(argv) == 0
        return capsys.readouterr().out

    exports = {}
    for arm in ("crashed", "clean"):
        exports[arm] = json.loads(invoke(
            arm, "--format", "json", "--trace", f"{arm}.json",
            "--stream", f"{arm}.jsonl", "--snapshot-every", "0.002",
        ))
    summary = exports["crashed"]["checkpoint_summary"]
    assert summary["crashes"] == summary["restarts"] == 1
    assert summary["restores"] == (crash_at > 3)
    assert exports["clean"]["checkpoint_summary"]["crashes"] == 0
    assert _without_summary(exports["crashed"]) == _without_summary(
        exports["clean"]
    )
    for suffix in ("json", "jsonl"):
        crashed = (tmp_path / f"crashed.{suffix}").read_bytes()
        assert crashed == (tmp_path / f"clean.{suffix}").read_bytes()

    # The tables carry the losses: the full-graph epoch table, and the
    # supervised run's rows above its supervision counts.
    tables = {arm: invoke(arm).splitlines() for arm in ("crashed", "clean")}
    if driver == "pipeline":
        tables = {arm: lines[:6] for arm, lines in tables.items()}
        assert tables["clean"][4].startswith("final loss")
    assert tables["crashed"] == tables["clean"]


@pytest.mark.parametrize("traced", [False, True], ids=["bare", "traced"])
def test_a_fullgraph_snapshot_in_the_parent_layout_resumes(
    traced, tmp_path, monkeypatch, capsys
):
    """Snapshots written by the hand-rolled fullgraph loop this command
    used to have — ``{"plan", "trainer"}``, plus ``"tracer"`` when traced
    — resume bit-identically through the supervisor."""
    from repro import state
    from repro.bench.workloads import get_workload
    from repro.checkpoint import CheckpointStore
    from repro.cli.context import _SSDS
    from repro.fullgraph import FullGraphConfig, FullGraphTrainer
    from repro.telemetry import Tracer

    monkeypatch.chdir(tmp_path)
    workload = get_workload("IGB-tiny", scale=0.002)
    tracer = Tracer(enabled=traced, strict_tracks=True)
    trainer = FullGraphTrainer(
        workload.dataset,
        workload.system(_SSDS["980pro"], num_ssds=1),
        FullGraphConfig(hbm_budget_bytes=4 * 2**20),
        tracer=tracer,
    )
    trainer.run_steps(7)
    payload = {
        "plan": state.save(trainer, trainer.PLAN),
        "trainer": trainer.state_dict(),
    }
    if traced:
        payload["tracer"] = tracer.state_dict()
    CheckpointStore("parent").save(7, payload)

    argv = _FULLGRAPH + ["--epochs", "2", "--format", "json"]
    if traced:
        argv += ["--trace", "trace.json"]
    assert main(argv + ["--checkpoint-dir", "parent", "--resume"]) == 0
    captured = capsys.readouterr()
    assert "resumed from step 7" in captured.err
    resumed = json.loads(captured.out)
    assert resumed["checkpoint_summary"]["restores"] == 1
    trace = (tmp_path / "trace.json").read_bytes() if traced else None

    assert main(argv) == 0
    straight = json.loads(capsys.readouterr().out)
    assert _without_summary(resumed) == _without_summary(straight)
    if traced:
        assert trace == (tmp_path / "trace.json").read_bytes()


@pytest.mark.parametrize(
    "cadence", [None, "1", "10"], ids=["unsupervised", "every-1", "every-10"]
)
def test_target_acc_stops_at_the_first_epoch_that_reaches_it(
    cadence, tmp_path, monkeypatch, capsys
):
    """``--target-acc`` ends the run at the end of the first epoch whose
    eval accuracy reaches the target — the rule ``run_to_accuracy``
    applies — with or without checkpointing, at any cadence."""
    from repro.bench.workloads import get_workload
    from repro.cli.context import _SSDS
    from repro.fullgraph import FullGraphConfig, FullGraphTrainer

    monkeypatch.chdir(tmp_path)
    argv = _FULLGRAPH + ["--epochs", "6", "--target-acc", "0.5",
                         "-o", "out.json"]

    def invoke(*extra: str) -> tuple[str, dict]:
        assert main(argv + list(extra)) == 0
        export = json.loads((tmp_path / "out.json").read_text())
        return capsys.readouterr().out, _without_summary(export)

    table, export = invoke()
    if cadence is not None:
        assert invoke(
            "--checkpoint-dir", "ckpt", "--checkpoint-every", cadence
        ) == (table, export)
    assert "stopped mid-epoch" not in table
    assert "reached 50% accuracy" in table
    block = export["fullgraph"]

    workload = get_workload("IGB-tiny", scale=0.002)
    trainer = FullGraphTrainer(
        workload.dataset,
        workload.system(_SSDS["980pro"], num_ssds=1),
        FullGraphConfig(hbm_budget_bytes=4 * 2**20),
    )
    expected = trainer.run_to_accuracy(0.5, max_epochs=6)
    assert expected.epochs_completed < 6
    assert block["epochs_completed"] == expected.epochs_completed
    assert block["epoch_losses"] == expected.losses
    assert block["epoch_accuracies"] == expected.accuracies
    assert block["epoch_end_times_s"] == expected.epoch_end_times_s
