"""The metrics stream follows the run the export reports.

The tracer owns its snapshotter: each line snapshots the tracer's
*current* registry, and the cadence rides the tracer's checkpoint state.
Three ways a stream used to stop tracking its run, each driven through
the CLI at tier-1 scale:

1. ``GIDSDataLoader.run`` resets the tracer after warm-up, which swaps in
   a blank registry — the stream must go on over it, with no negative
   counter delta at the boundary;
2. a supervised run restores the tracer after a simulated crash — the
   stream must come out byte-identical to the run without the crash;
3. ``fullgraph --steps`` then ``--resume`` in a second process — the
   stream and the exposition must equal an uninterrupted run's.
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest

from repro.cli import main
from repro.telemetry import read_snapshots

_TINY = ["--dataset", "IGB-tiny", "--scale", "0.02"]


def _repro(argv: list[str]) -> str:
    """Run ``repro argv`` in-process; return its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    return out.getvalue()


def test_stream_crosses_the_warmup_reset(tmp_path):
    stream = tmp_path / "s.jsonl"
    (export,) = json.loads(
        _repro(
            ["run", "--loader", "gids", *_TINY, "--iterations", "30",
             "--stream", str(stream), "--snapshot-every", "0.0002",
             "--format", "json"]
        )
    )
    lines = read_snapshots(str(stream))
    assert len(lines) > 3
    last = lines[-1]["metrics"]
    for name, value in export["counters"].items():
        published = last.get(f"transfer.{name}", {"value": 0})["value"]
        assert published == value, name
    assert last["iteration.total_s"]["count"] == export["iterations"]
    negative = [
        (line["seq"], name, delta)
        for line in lines
        for name, delta in line["counter_deltas"].items()
        if delta < 0
    ]
    assert not negative


def _train_supervised(tmp_path, name: str, plan: dict) -> bytes:
    (tmp_path / f"{name}.json").write_text(json.dumps(plan))
    stream = tmp_path / f"{name}.jsonl"
    _repro(
        ["train", *_TINY, "--iterations", "12", "--classes", "3",
         "--hidden-dim", "8", "--batch-size", "32",
         "--checkpoint-dir", str(tmp_path / f"{name}-ckpt"),
         "--checkpoint-every", "3",
         "--fault-plan", str(tmp_path / f"{name}.json"),
         "--stream", str(stream), "--snapshot-every", "0.0001"]
    )
    return stream.read_bytes()


def test_stream_survives_an_in_process_restore(tmp_path):
    plan = {"seed": 5, "read_failure_rate": 0.02}
    crashed = _train_supervised(
        tmp_path, "crash", {**plan, "crash_events": [{"at_iteration": 5}]}
    )
    clean = _train_supervised(tmp_path, "clean", plan)
    assert len(clean.splitlines()) > 2
    assert crashed == clean


_FULLGRAPH = [
    "fullgraph", "--dataset", "IGB-tiny", "--scale", "0.002",
    "--epochs", "2", "--hbm-mb", "4", "--checkpoint-every", "3",
    "--snapshot-every", "0.002",
]


@pytest.fixture(scope="module")
def fullgraph_streams(tmp_path_factory):
    """``(resumed, uninterrupted)`` ``(jsonl, prom)`` bytes."""
    streams = []
    for name, runs in (
        ("resumed", (["--steps", "7"], ["--resume"])),
        ("whole", ([],)),
    ):
        scratch = tmp_path_factory.mktemp(name)
        stream, prom = scratch / "s.jsonl", scratch / "m.prom"
        for extra in runs:
            _repro(
                _FULLGRAPH
                + ["--checkpoint-dir", str(scratch / "ckpt"),
                   "--stream", str(stream), "--prom", str(prom), *extra]
            )
        streams.append((stream.read_bytes(), prom.read_bytes()))
    return streams


def test_resumed_fullgraph_stream_equals_the_uninterrupted_one(
    fullgraph_streams,
):
    (resumed, _), (whole, _) = fullgraph_streams
    lines = [json.loads(line) for line in whole.splitlines()]
    assert len(lines) > 10 and all(line["metrics"] for line in lines)
    assert resumed == whole


def test_resumed_fullgraph_exposition_equals_the_uninterrupted_one(
    fullgraph_streams,
):
    (_, resumed), (_, whole) = fullgraph_streams
    assert resumed == whole
