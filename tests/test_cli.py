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
            if "silent corruption is ignored" in line
        ]
        assert noted == (
            [f"note: {argv[0]} has no integrity plane; the plan's silent "
             "corruption is ignored"] if corrupt else []
        )
