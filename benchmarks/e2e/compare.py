"""Compare suite result files against the bounds in BENCHMARK.json.

    run.py compare A.json B.json
    run.py compare --a A1.json A2.json ... --b B1.json B2.json ...

Each (end-to-end metric, workload) pair gets one row: both values (medians
when a side has several files, with their quartiles), the ratio B/A with
its base, and a verdict.  ``regressed`` / ``improved`` mean B's median is
worse / better than A's by more than the metric's bound; ``unresolved``
means the inputs' own spread exceeds the bound, so they cannot tell
``unchanged`` from a change — unless every B run beats every A run.
Exit code 3 when any pair regressed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def _load(path: str) -> dict:
    with open(path) as handle:
        document = json.load(handle)
    if "workloads" not in document:
        raise SystemExit(f"error: {path} is not a suite result file")
    return document


def _spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def _side(documents: list[dict], workload: str, metric: str):
    """``(values, spread)`` of one metric on one side.

    A single file's run-to-run spread is unknown.  For the one metric that
    is a quartile of n segments, the segments' own spread over sqrt(n) —
    about how far such a quartile wanders — stands in.
    """
    values = [
        doc["workloads"][workload]["end_to_end"][metric]["value"]
        for doc in documents
    ]
    if len(values) == 1 and metric == "host_ops_per_s":
        segments = documents[0]["workloads"][workload]["segment_ops_per_s"]
        return values, _spread(segments) / math.sqrt(len(segments))
    return values, _spread(values)


def verdict(a: list[float], b: list[float], spread: float, bound: float,
            better: str) -> str:
    """Judge B's runs against A's by the metric's bound."""
    sign = 1.0 if better == "lower" else -1.0
    base = statistics.median(a)
    # the share of A's median by which B's median is worse
    worse_by = sign * (statistics.median(b) - base) / abs(base)
    if worse_by > bound:
        return "regressed"
    if spread > bound:
        clear_win = (
            max(b) < min(a) if better == "lower" else min(b) > max(a)
        )
        if not clear_win:
            return "unresolved"
    return "improved" if -worse_by > bound else "unchanged"


def _cell(values: list[float]) -> str:
    median = statistics.median(values)
    if len(values) < 2:
        return f"{median:.6g}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="*", help="A.json B.json")
    parser.add_argument("--a", nargs="+", default=[], help="parent's runs")
    parser.add_argument("--b", nargs="+", default=[], help="change's runs")
    args = parser.parse_args(argv)
    if args.files and (args.a or args.b or len(args.files) != 2):
        parser.error("give exactly A.json B.json, or --a ... --b ...")
    a_paths = args.a or args.files[:1]
    b_paths = args.b or args.files[1:]
    if not a_paths or not b_paths:
        parser.error("both sides need at least one result file")
    a_docs = [_load(path) for path in a_paths]
    b_docs = [_load(path) for path in b_paths]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)

    regressed = 0
    print(f"A: {len(a_docs)} run(s)   B: {len(b_docs)} run(s)   "
          "ratio = B / A, medians [q1, q3]")
    print(f"{'workload':16s} {'metric':18s} {'A':>28s} {'B':>28s} "
          f"{'B/A':>8s} {'bound':>6s}  verdict")
    for entry in spec["workloads"]:
        workload = entry["name"]
        if not all(workload in doc["workloads"] for doc in a_docs + b_docs):
            print(f"{workload:16s} missing from an input; skipped")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a, a_spread = _side(a_docs, workload, name)
            b, b_spread = _side(b_docs, workload, name)
            outcome = verdict(
                a, b, max(a_spread, b_spread), metric["bound"],
                metric["better"],
            )
            regressed += outcome == "regressed"
            ratio = statistics.median(b) / statistics.median(a)
            print(f"{workload:16s} {name:18s} {_cell(a):>28s} "
                  f"{_cell(b):>28s} {ratio:8.4f} {metric['bound']:6.2f}  "
                  f"{outcome}")
        digests = {
            doc["workloads"][workload]["modeled_digest"]
            for doc in a_docs + b_docs
        }
        seeds = {
            doc["workloads"][workload]["environment"]["seed"]
            for doc in a_docs + b_docs
        }
        if len(seeds) == 1:
            state = "equal" if len(digests) == 1 else "DIFFERS"
            print(f"{workload:16s} modeled_digest     {state}")
    return 3 if regressed else 0
