"""Self-test of the benchmark harness (not part of the tier-1 suite).

Run explicitly:  python -m pytest benchmarks/e2e -q
It drives the whole suite twice under ``--smoke`` (about a minute).
"""

from __future__ import annotations

import copy
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = [sys.executable, os.path.join(HERE, "run.py")]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _run(*args, cwd=ROOT):
    return subprocess.run(
        RUN + list(args), cwd=cwd, capture_output=True, text=True, timeout=900
    )


def _suite(directory, seed: int) -> tuple[str, dict]:
    path = os.path.join(directory, f"smoke-seed{seed}.json")
    proc = _run("--smoke", "--seed", str(seed), "--out", path)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    with open(path) as handle:
        return path, json.load(handle)


@pytest.fixture(scope="module")
def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    return _suite(tmp_path_factory.mktemp("smoke"), 0)


def test_metric_names_are_well_formed_and_unique(spec):
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert "setup_s" in {m["name"] for m in spec["end_to_end"]}


def _import_harness() -> None:
    for path in (HERE, os.path.join(ROOT, "src")):
        if path not in sys.path:
            sys.path.insert(0, path)


def test_benchmark_json_lists_what_the_harness_reports(spec):
    _import_harness()
    from layers import PER_LAYER
    from run import E2E_UNITS
    from workloads import WORKLOADS

    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        E2E_UNITS.items()
    )
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == PER_LAYER
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (name, cls.why) for name, cls in WORKLOADS.items()
    ]


def test_every_metric_present_with_its_unit_on_every_workload(smoke, spec):
    _, document = smoke
    assert document["problems"] == []
    for workload in spec["workloads"]:
        result = document["workloads"][workload["name"]]
        assert result["correct"] and result["failed"] == 0
        for block, metrics in (
            ("end_to_end", spec["end_to_end"]),
            ("per_layer", spec["per_layer"]),
        ):
            assert set(result[block]) == {m["name"] for m in metrics}
            for metric in metrics:
                entry = result[block][metric["name"]]
                assert entry["unit"] == metric["unit"]
                assert isinstance(entry["value"], (int, float))
        for metric in spec["end_to_end"]:
            assert result["end_to_end"][metric["name"]]["value"] > 0


def test_traced_and_untraced_digests_are_equal(smoke):
    _, document = smoke
    for name, result in document["workloads"].items():
        assert result["modeled_digest"] == result["traced_digest"], name


def test_a_second_seed_changes_digests_and_passes_every_check(
    smoke, tmp_path
):
    _, first = smoke
    _, second = _suite(tmp_path, 1)
    assert second["problems"] == []
    for name, result in second["workloads"].items():
        assert result["correct"], name
        assert result["modeled_digest"] != (
            first["workloads"][name]["modeled_digest"]
        ), name


def test_shims_restore_every_wrapped_attribute():
    _import_harness()
    import tracing

    recorder = tracing.install()
    wrapped = recorder.wrapped
    try:
        assert wrapped
        for owner, attr, original in wrapped:
            assert vars(owner)[attr] is not original
    finally:
        recorder.uninstall()
    for owner, attr, original in wrapped:
        assert vars(owner)[attr] is original, (owner, attr)


def test_one_run_ends_with_the_contract_line(spec):
    proc = _run("--workload", "serve-diurnal", "--seed", "5", "--smoke",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr[-4000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] >= 1
    assert set(last["metrics"]) == {m["name"] for m in spec["end_to_end"]}


def test_compare_verdicts_and_exit_codes(smoke, tmp_path):
    path, document = smoke
    same = _run("compare", path, path)
    assert same.returncode == 0, same.stdout + same.stderr
    assert "regressed" not in same.stdout and "DIFFERS" not in same.stdout

    slower = copy.deepcopy(document)
    entry = slower["workloads"]["loader-miss"]
    entry["end_to_end"]["host_ops_per_s"]["value"] *= 0.5
    entry["segment_ops_per_s"] = [v * 0.5 for v in entry["segment_ops_per_s"]]
    slow_path = tmp_path / "slower.json"
    slow_path.write_text(json.dumps(slower))
    worse = _run("compare", path, str(slow_path))
    assert worse.returncode == 3, worse.stdout + worse.stderr
    assert worse.stdout.count("regressed") == 1

    many = _run("compare", "--a", path, path, path, "--b", str(slow_path),
                str(slow_path), str(slow_path))
    assert many.returncode == 3, many.stdout + many.stderr


def test_a_tree_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE,
        tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "loader-hit",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
