"""The run-report document table: every exporter writes it, every reader
checks against it.

``repro.pipeline.export.DOCUMENT`` is the export format — one row per
top-level key with the schema version it arrived in and the JSON shape
readers rely on.  These tests hold both ends to it:

* fresh exports of every workload command validate and carry exactly the
  rows their exporter walks;
* hostile input — each row given a value of the wrong type, in the
  committed v6 fixture or, for rows newer than v6, in a fresh v11 export
  — makes ``analyze`` and ``compare`` exit 2 with
  one ``error:`` line, never a traceback;
* the table itself agrees with the schema version and the v6 fixture,
  and an exporter refuses a block name the table does not give it.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import PipelineError
from repro.observatory import validate_summary
from repro.pipeline.export import (
    DOCUMENT,
    EXPORT_SCHEMA_VERSION,
    SERVING_ROWS,
    report_to_dict,
    run_document,
)
from repro.pipeline.metrics import IterationMetrics, RunReport, StageTimes
from repro.sim.counters import TransferCounters

V6_FIXTURE = Path(__file__).parent / "data" / "baseline_report.json"
#: A ``repro fullgraph --scale 0.002 --epochs 1 --hbm-mb 4`` export written
#: when the what-if table still carried +CPU buffer, 2x HBM and
#: capacity @N GPUs rows and ``fullgraph.what_if_2x_hbm``.
V11_FULLGRAPH = Path(__file__).parent / "data" / "v11_fullgraph_report.json"

_TINY = ["--dataset", "IGB-tiny", "--scale", "0.02"]

#: Workload command -> the invocation whose stdout is its JSON export.
_EXPORTS = {
    "run --loader gids": [
        "run", *_TINY, "--iterations", "6", "--loader", "gids",
        "--format", "json",
    ],
    "run --checkpoint-dir": [
        "run", *_TINY, "--iterations", "6", "--loader", "gids",
        "--format", "json", "--checkpoint-every", "3", "--checkpoint-dir",
    ],
    "serve": [
        "serve", *_TINY, "--requests", "100", "--rate", "3000",
        "--format", "json",
    ],
    "fleet": [
        "fleet", *_TINY, "--gpus", "2", "--batch-size", "8",
        "--format", "json",
    ],
    "fullgraph": [
        "fullgraph", "--dataset", "IGB-tiny", "--scale", "0.002",
        "--epochs", "2", "--hbm-mb", "4", "--format", "json",
    ],
}


def _main(argv: list[str]) -> tuple[int, str, str]:
    """``repro <argv>`` in-process: ``(exit code, stdout, stderr)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([str(arg) for arg in argv])
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def fresh(tmp_path_factory) -> dict[str, dict]:
    """One fresh export per workload command."""
    scratch = tmp_path_factory.mktemp("exports")
    docs = {}
    for name, argv in _EXPORTS.items():
        if argv[-1] == "--checkpoint-dir":
            argv = [*argv, scratch / "ckpt"]
        code, out, err = _main(argv)
        assert code == 0, err
        doc = json.loads(out)
        # ``run --format json`` prints one document per loader.
        docs[name] = doc[0] if isinstance(doc, list) else doc
    return docs


@pytest.mark.parametrize("name", sorted(_EXPORTS))
def test_fresh_exports_validate_and_emit_only_table_keys(fresh, name):
    doc = fresh[name]
    assert validate_summary(doc) is doc
    rows = SERVING_ROWS if name == "serve" else DOCUMENT
    assert set(doc) == {row.name for row in rows}
    assert doc["schema_version"] == EXPORT_SCHEMA_VERSION


#: Export -> the what-if scenarios it carries: the rows a run of its driver
#: checks (every export here runs one SSD, so no degraded row), and the
#: capacity read-out.
_WHAT_IF = {
    "run --loader gids": ["+1 SSD", "2x window depth", "capacity"],
    "run --checkpoint-dir": ["+1 SSD", "2x window depth", "capacity"],
    "serve": ["capacity"],
    "fleet": ["+1 SSD", "capacity"],
    "fullgraph": ["+1 SSD", "capacity"],
}


@pytest.mark.parametrize("name", sorted(_EXPORTS))
def test_fresh_exports_carry_only_the_checked_what_if_rows(fresh, name):
    rows = fresh[name]["attribution"]["what_if"]
    assert [row["scenario"] for row in rows] == _WHAT_IF[name]


def test_an_export_with_retired_what_if_rows_validates_and_renders(tmp_path):
    doc = json.loads(V11_FULLGRAPH.read_text(encoding="utf-8"))
    assert "2x HBM" in {r["scenario"] for r in doc["attribution"]["what_if"]}
    assert "what_if_2x_hbm" in doc["fullgraph"]
    assert validate_summary(doc) is doc
    code, out, err = _main(["analyze", V11_FULLGRAPH])
    assert code == 0 and err == "", err
    assert "+1 SSD" in out and "ssd.sequential" in out
    for retired in ("+CPU buffer", "2x HBM", "GPUs"):
        assert retired not in out
    code, out, _ = _main(["compare", V11_FULLGRAPH, V11_FULLGRAPH])
    assert code == 0


def _v6() -> dict:
    return json.loads(V6_FIXTURE.read_text(encoding="utf-8"))


def _wrong(shape) -> object:
    """A JSON value of the wrong type for ``shape``."""
    if shape is dict or isinstance(shape, dict):
        return ["wrong", "type"]
    return {"wrong": "type"}


def _assert_every_reader_exits_2(tmp_path: Path, base: dict, hostile: dict):
    base_path, hostile_path = tmp_path / "base.json", tmp_path / "bad.json"
    base_path.write_text(json.dumps(base), encoding="utf-8")
    hostile_path.write_text(json.dumps(hostile), encoding="utf-8")
    for argv in (
        ["analyze", hostile_path],
        ["compare", base_path, hostile_path],
    ):
        code, _, err = _main(argv)
        lines = err.splitlines()
        assert code == 2, (argv[0], err)
        assert len(lines) == 1 and lines[0].startswith("error: "), err


@pytest.mark.parametrize("row", DOCUMENT, ids=lambda row: row.name)
def test_a_wrong_type_in_any_block_exits_2(fresh, tmp_path, row):
    base = _v6() if row.since <= 6 else fresh["fullgraph"]
    _assert_every_reader_exits_2(
        tmp_path, base, {**base, row.name: _wrong(row.shape)}
    )


#: Case -> (base export, block, key inside it, wrong-typed value).
NESTED = {
    "counters.storage_requests": ("v6", "counters", "storage_requests", "x"),
    "stage_seconds.aggregation": ("v6", "stage_seconds", "aggregation", "x"),
    "faults.fallback_bytes": ("v6", "faults", "fallback_bytes", [0]),
    "attribution.specs": ("v6", "attribution", "specs", ["optane"]),
    "fullgraph.traffic": ("fullgraph", "fullgraph", "traffic", "none"),
}


@pytest.mark.parametrize("case", sorted(NESTED))
def test_a_wrong_type_inside_a_block_exits_2(fresh, tmp_path, case):
    source, block, key, value = NESTED[case]
    base = _v6() if source == "v6" else fresh[source]
    hostile = {**base, block: {**base[block], key: value}}
    _assert_every_reader_exits_2(tmp_path, base, hostile)


def test_analyze_rejects_a_malformed_spec_block(tmp_path):
    doc = _v6()
    doc["attribution"]["specs"]["ssd_peak_iops"] = "fast"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = _main(["analyze", path])
    assert code == 2
    assert err.startswith("error: spec block.ssd_peak_iops must be a number")


def test_the_v6_fixture_holds_exactly_the_rows_up_to_v6():
    assert set(_v6()) == {row.name for row in DOCUMENT if row.since <= 6}


def test_each_row_names_one_key_no_newer_than_the_schema():
    names = [row.name for row in DOCUMENT]
    assert len(names) == len(set(names))
    assert max(row.since for row in DOCUMENT) == EXPORT_SCHEMA_VERSION


@pytest.mark.parametrize(
    "blocks",
    [{"flet": {}}, {"loader": "other"}, {"attribution": {}}],
    ids=["misspelled", "measured", "stamped"],
)
def test_an_exporter_refuses_a_block_the_table_does_not_give_it(blocks):
    report = RunReport("GIDS")
    report.append(
        IterationMetrics(
            times=StageTimes(
                sampling=1e-3, aggregation=1e-3, transfer=0.0, training=1e-3
            ),
            num_seeds=1,
            num_input_nodes=1,
            num_sampled=1,
            num_edges=0,
            counters=TransferCounters(),
        )
    )
    with pytest.raises(PipelineError, match="unknown run-document block"):
        report_to_dict(report, **blocks)


def test_a_serving_export_has_no_training_only_blocks():
    with pytest.raises(PipelineError, match=r"\['fleet'\]"):
        run_document(TransferCounters(), SERVING_ROWS, {"fleet": {}})
