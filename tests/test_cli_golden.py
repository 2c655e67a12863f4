"""Byte-identity oracle for the CLI's run lifecycle.

Every workload command (``run``, ``run --checkpoint-dir``, ``train``,
``fleet``, ``fullgraph``, ``serve``) is driven in-process through
``repro.cli.main`` twice — bare, and with every plane flag the command
accepts switched on (fault plan, replication, verify-on-read, scrub,
alerts, request-detail trace, metric stream, Prometheus exposition,
black box) — and compared against ``tests/data/cli_golden.json``: exit
code, stdout and stderr byte for byte, and every file the invocation
left behind (export, trace, snapshot stream, exposition, black box) as a
digest of its parsed content.  The same file pins every subparser's
option strings, dests, defaults, choices and help text.

The golden file was generated at the commit *before* the six hand-rolled
lifecycles were folded into ``RunContext`` (``repro profile`` was dropped
from the option dump by hand when the subcommand was deleted).  The
entries regenerated since:

* the ``box.json`` digests of ``train-planes`` and
  ``serve-planes-{table,json}``: the two black-box rings whose entry
  order now follows the canonical epilogue (alerts, final snapshot,
  black box) — ``train`` used to dump before its final snapshot,
  ``serve`` used to evaluate alerts after it;
* the ``snap.jsonl`` / ``metrics.prom`` / ``box.json`` digests of
  ``run-{gids,bam}-planes-*``, ``train-supervised-planes`` and
  ``train-resume-planes``, and the whole of
  ``fullgraph-steps-resume-planes`` and ``run-supervised-planes-json``:
  the stream used to keep the registry of the moment it was built, so it
  froze at the warm-up reset and at every tracer restore.  Now it reads
  the tracer's current registry, and its cadence rides the tracer's
  checkpoint state.  The last two cases also move in their JSON: the
  export's ``observability`` counts, and ``checkpoint_summary
  .snapshot_bytes``, since each snapshot now carries that cadence;
* the stdout digests of ``serve-json`` and ``serve-planes-json``: the
  serving export is now dumped like every other export (sorted keys,
  strict JSON).  Key order only — the parsed documents are unchanged,
  and so is every ``out.json`` digest.

Every move since is a row of ``tests/data/digest_ledger.json``.
Regenerate named cases, one artifact of a case, or the option dump
(``cli_golden.json:parser``, for a change that adds or changes an option)
through the ledger's entry point (it calls :func:`regenerate` below)::

    PYTHONPATH=src python -m tests.ledger --pr N --reason "why" \\
        cli_golden.json:CASE[:FILE] ...
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from tests.ledger import canonical_text

GOLDEN_PATH = Path(__file__).parent / "data" / "cli_golden.json"

_TINY = ["--dataset", "IGB-tiny", "--scale", "0.02"]

#: Files every case may reference by relative name.
_FIXTURES = {
    # Storage faults on a 2-SSD array: failures, spikes, silent
    # corruption, one device lost for good and one storm.
    "plan.json": {
        "seed": 5,
        "read_failure_rate": 0.02,
        "tail_latency_rate": 0.01,
        "bitflip_rate": 1e-3,
        "device_events": [
            {"device": 1, "kind": "dropout", "at_time_s": 0.0005},
        ],
        "corruption_events": [
            {"device": 0, "at_time_s": 0.0, "page_fraction": 0.02},
        ],
    },
    # The same faults plus one simulated process crash.
    "crash.json": {
        "seed": 5,
        "read_failure_rate": 0.02,
        "tail_latency_rate": 0.01,
        "bitflip_rate": 1e-3,
        "device_events": [
            {"device": 1, "kind": "dropout", "at_time_s": 0.0005},
        ],
        "crash_events": [{"at_iteration": 5}],
    },
    # Worker-scoped elasticity events for the fleet (run untraced: at the
    # generating commit a traced worker event dies in a TypeError inside
    # ``ElasticFleetTrainer._fire_due_events``).
    "fleet-plan.json": {
        "seed": 7,
        "read_failure_rate": 0.01,
        "device_events": [
            {"device": 1, "kind": "dropout", "at_time_s": 0.0005},
        ],
        "worker_events": [
            {"worker": "gpu:1", "kind": "dropout", "at_time_s": 0.0004},
            {"worker": "gpu:0", "kind": "straggle", "at_time_s": 0.0002,
             "factor": 6.0},
        ],
    },
    # One rule of each scope that fires, one that passes, and one whose
    # metric no run publishes.
    "rules.json": [
        {"name": "cold-cache", "metric": "report.gpu_cache_hit_ratio",
         "op": "<", "threshold": 0.999, "severity": "warn"},
        {"name": "slow-iteration", "metric": "iteration.total",
         "op": ">", "threshold": 1e-7, "severity": "critical"},
        {"name": "never", "metric": "report.e2e_seconds",
         "op": "<", "threshold": 0.0},
        {"name": "absent", "metric": "metrics.no.such.metric",
         "op": ">", "threshold": 1.0},
    ],
    # Serving has no RunReport: registry-scoped rules only.
    "serve-rules.json": [
        {"name": "serving-tail", "metric": "metrics.serving.p99.value",
         "op": ">", "threshold": 1e-6, "severity": "critical"},
        {"name": "report-scoped", "metric": "report.e2e_seconds",
         "op": ">", "threshold": 0.0},
    ],
}

_TELEMETRY = [
    "--trace", "trace.json", "--trace-detail", "request",
    "--stream", "snap.jsonl", "--prom", "metrics.prom",
    "--blackbox", "box.json", "--snapshot-every", "0.002",
]
_HA = ["--num-ssds", "2", "--replication", "2"]
_INTEGRITY = ["--verify-reads", "full", "--scrub-iops", "1e5"]
_CKPT = ["--checkpoint-dir", "ckpt", "--checkpoint-every", "3"]
_OUT = ["-o", "out.json"]


def _loader_planes(plan: str) -> list[str]:
    """Every plane flag ``run`` accepts besides the telemetry surfaces."""
    return (
        _HA + _INTEGRITY + ["--fault-plan", plan, "--alerts", "rules.json"]
    )


def _train_planes(plan: str) -> list[str]:
    """``train`` models one SSD, so redundancy is the rebuilder only."""
    return (
        ["--rebuild-iops", "1e5", "--fault-plan", plan,
         "--alerts", "rules.json"] + _INTEGRITY + _TELEMETRY
    )


_RUN = ["run", *_TINY, "--iterations", "6"]
_GIDS = _RUN + ["--loader", "gids"]
_TRAIN = [
    "train", *_TINY, "--iterations", "12", "--classes", "3",
    "--hidden-dim", "8", "--batch-size", "32",
]
_FLEET = ["fleet", *_TINY, "--gpus", "2", "--batch-size", "8"]
_FLEET_PLANES = _HA + ["--fault-plan", "plan.json"] + _OUT + _TELEMETRY
_FULLGRAPH = [
    "fullgraph", "--dataset", "IGB-tiny", "--scale", "0.002",
    "--epochs", "2", "--hbm-mb", "4",
]
_FULLGRAPH_PLANES = (
    _HA + ["--fault-plan", "plan.json", "--verify-reads", "full"] + _OUT
    + _TELEMETRY
)
_SERVE = [
    "serve", "--dataset", "IGB-tiny", "--scale", "0.05",
    "--requests", "150", "--rate", "6000", "--shape", "bursty",
    "--seed", "3", "--slo-p99-ms", "5",
]
# A cadence longer than the drain tail, so the final snapshot still has
# counter movement to note in the flight ring.
_SERVE_PLANES = (
    _HA + ["--fault-plan", "plan.json", "--alerts", "serve-rules.json"]
    + _OUT + _TELEMETRY + ["--snapshot-every", "0.02"]
)
_JSON = ["--format", "json"]
_CSV = ["--format", "csv"]

#: case name -> the invocations it runs, in order, in one scratch cwd
#: (argparse keeps the last occurrence of a repeated flag).
CASES: dict[str, list[list[str]]] = {
    "run-all-table": [_RUN],
    "run-all-json": [_RUN + _JSON],
    "run-all-csv": [_RUN + _CSV],
    # The baselines are not instrumented: no telemetry with --loader all.
    "run-all-planes-json": [_RUN + _JSON + _loader_planes("plan.json")],
    "run-gids-table": [_GIDS],
    "run-gids-json": [_GIDS + _JSON],
    "run-gids-csv": [_GIDS + _CSV],
    "run-gids-planes-table": [
        _GIDS + _loader_planes("plan.json") + _TELEMETRY
    ],
    "run-gids-planes-json": [
        _GIDS + _JSON + _loader_planes("plan.json") + _TELEMETRY
    ],
    "run-bam-planes-csv": [
        _RUN + ["--loader", "bam"] + _CSV + _loader_planes("plan.json")
        + _TELEMETRY
    ],
    "run-supervised-table": [_GIDS + _CKPT],
    "run-supervised-json": [_RUN + ["--loader", "bam"] + _JSON + _CKPT],
    "run-supervised-planes-json": [
        _GIDS + _JSON + ["--iterations", "9"] + _CKPT
        + _loader_planes("crash.json") + _TELEMETRY
    ],
    "train-plain": [_TRAIN],
    "train-planes": [_TRAIN + _train_planes("plan.json")],
    "train-supervised": [_TRAIN + _CKPT + ["--fault-plan", "crash.json"]],
    "train-supervised-planes": [
        _TRAIN + _CKPT + _train_planes("crash.json")
    ],
    "train-resume": [
        _TRAIN + _CKPT + ["--iterations", "7"],
        _TRAIN + _CKPT + ["--resume"],
        # Without --resume the stale snapshots are swept first.
        _TRAIN + _CKPT,
    ],
    "train-resume-planes": [
        _TRAIN + _CKPT + ["--iterations", "7"] + _train_planes("plan.json"),
        _TRAIN + _CKPT + ["--resume"] + _train_planes("plan.json"),
    ],
    "fleet-epoch-table": [_FLEET],
    "fleet-epoch-json": [_FLEET + _JSON],
    "fleet-epoch-workers-table": [
        _FLEET + _HA + ["--gpus", "3", "--fault-plan", "fleet-plan.json"]
    ],
    "fleet-epoch-planes-table": [_FLEET + _FLEET_PLANES],
    "fleet-epoch-planes-json": [_FLEET + _FLEET_PLANES + _JSON],
    # Too small for the straggler scenario to steal work: exit 1.
    "fleet-chaos-table": [_FLEET + ["--chaos", "--gpus", "4"]],
    "fleet-chaos-planes-json": [
        ["fleet", "--chaos", "--gpus", "4"] + _JSON + _FLEET_PLANES
    ],
    "fullgraph-table": [_FULLGRAPH],
    "fullgraph-json": [_FULLGRAPH + _JSON + _OUT],
    "fullgraph-planes-table": [_FULLGRAPH + _FULLGRAPH_PLANES],
    "fullgraph-planes-json": [_FULLGRAPH + _FULLGRAPH_PLANES + _JSON],
    "fullgraph-steps-resume": [
        _FULLGRAPH + _CKPT + ["--steps", "7"],
        _FULLGRAPH + _CKPT + ["--resume"] + _JSON,
        # Without --resume the stale snapshots are swept first.
        _FULLGRAPH + _CKPT + ["--steps", "2"],
    ],
    "fullgraph-steps-resume-planes": [
        _FULLGRAPH + _CKPT + ["--steps", "7"] + _FULLGRAPH_PLANES,
        _FULLGRAPH + _CKPT + ["--resume"] + _JSON + _FULLGRAPH_PLANES,
    ],
    "serve-table": [_SERVE],
    "serve-json": [_SERVE + _JSON + _OUT],
    "serve-planes-table": [_SERVE + _SERVE_PLANES],
    "serve-planes-json": [_SERVE + _SERVE_PLANES + _JSON],
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _canonical(doc) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def _text_entry(text: str) -> object:
    """Short output verbatim; a JSON export as its byte digest."""
    if len(text) <= 4096:
        return text
    return {"sha256": _sha(text.encode()), "chars": len(text)}


def _lanes_by_name(events: list[dict]) -> list[dict]:
    """Chrome-trace events with each ``tid`` replaced by its lane name.

    ``to_chrome_trace`` numbers the non-canonical lanes in set-iteration
    order, which follows the process's string-hash seed; the lane *names*
    and every event on them are deterministic.
    """
    names = {
        e["tid"]: e["args"]["name"]
        for e in events
        if e["ph"] == "M" and e["name"] == "thread_name"
    }
    named = []
    for event in events:
        if event["name"] != "process_name":
            event = dict(event, tid=names[event["tid"]])
        if event["ph"] == "M":
            event = {k: v for k, v in event.items() if k != "args"}
        named.append(event)
    lanes = sorted(
        (e for e in named if e["ph"] == "M"),
        key=lambda e: (str(e["tid"]), e["name"]),
    )
    return lanes + [e for e in named if e["ph"] != "M"]


def _file_entry(path: Path) -> dict:
    """Digest of one artifact's *parsed* content (text for .prom)."""
    raw = path.read_text(encoding="utf-8")
    if path.suffix == ".jsonl":
        docs = [json.loads(line) for line in raw.splitlines()]
        return {"lines": len(docs), "sha256": _sha(_canonical(docs))}
    if path.suffix == ".json":
        doc = json.loads(raw)
        if isinstance(doc, dict) and "traceEvents" in doc:
            events = _lanes_by_name(doc["traceEvents"])
            return {"events": len(events), "sha256": _sha(_canonical(events))}
        entry = {"sha256": _sha(_canonical(doc))}
        if isinstance(doc, dict) and "entries" in doc:
            # A black box: show the end of the ring, where the epilogue's
            # order (alerts, final snapshot, dump) is visible.
            entry["trigger"] = doc["trigger"]
            entry["tail"] = [
                f"{e['kind']}:{e['name']}@{e['at_s']!r}"
                for e in doc["entries"][-4:]
            ]
        return entry
    return {"sha256": _sha(raw.encode()), "chars": len(raw)}


def run_case(name: str, scratch: Path) -> dict:
    """Run one case's invocations inside ``scratch``; return its record."""
    for fixture, doc in _FIXTURES.items():
        (scratch / fixture).write_text(json.dumps(doc), encoding="utf-8")
    steps = []
    previous = os.getcwd()
    os.chdir(scratch)
    try:
        for argv in CASES[name]:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                try:
                    code = main(list(argv))
                except SystemExit as exc:
                    code = exc.code
            steps.append(
                {
                    "argv": list(argv),
                    "exit": code,
                    "stdout": _text_entry(out.getvalue()),
                    "stderr": _text_entry(err.getvalue()),
                }
            )
    finally:
        os.chdir(previous)
    files = {
        path.relative_to(scratch).as_posix(): (
            _file_entry(path) if path.suffix != ".bin" else {}
        )
        for path in sorted(scratch.rglob("*"))
        if path.is_file() and path.name not in _FIXTURES
    }
    return {"steps": steps, "files": files}


def parser_dump() -> dict:
    """Every subparser's options: strings, dest, default, choices, help."""
    dump: dict[str, list] = {}

    def walk(prefix: str, parser: argparse.ArgumentParser) -> None:
        options = []
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for sub_name, sub in action.choices.items():
                    walk(f"{prefix} {sub_name}".strip(), sub)
                continue
            if isinstance(action, argparse._HelpAction):
                continue
            choices = action.choices
            options.append(
                {
                    "flags": list(action.option_strings),
                    "dest": action.dest,
                    "default": action.default,
                    "choices": None if choices is None else list(choices),
                    "nargs": action.nargs,
                    "type": getattr(action.type, "__name__", None),
                    "metavar": action.metavar,
                    "help": action.help,
                }
            )
        dump[prefix or "repro"] = options

    walk("", build_parser())
    return dump


def _golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def test_every_case_has_a_golden_entry():
    assert set(_golden()["cases"]) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_matches_the_parent_commit(name, tmp_path):
    assert run_case(name, tmp_path) == _golden()["cases"][name]


def test_no_option_added_or_changed():
    assert json.loads(json.dumps(parser_dump())) == _golden()["parser"]


def regenerate(names: list[str]) -> None:
    """Rewrite the golden file: everything, named cases, the option dump
    (``parser``), or — given ``case:file`` — only one artifact's entry of
    a case."""
    golden = _golden() if names else {"cases": {}}
    for selector in names or [*sorted(CASES), "parser"]:
        name, _, artifact = selector.partition(":")
        if name == "parser":
            golden["parser"] = parser_dump()
        else:
            with tempfile.TemporaryDirectory() as scratch:
                record = run_case(name, Path(scratch))
            if artifact:
                files = golden["cases"][name]["files"]
                files[artifact] = record["files"][artifact]
            else:
                golden["cases"][name] = record
        print(f"generated {selector}", file=sys.stderr)
    GOLDEN_PATH.write_text(canonical_text(golden), encoding="utf-8")
