"""Bit-identity oracle for the open-loop arrival trace.

``ArrivalProcess.next_request`` draws a request's priority from a cdf it
builds once instead of calling ``Generator.choice(n, p=mix)`` per request.
``tests/data/arrival_golden.json`` holds, for each arrival shape, the first
requests, a SHA-256 over the first 2,000 and the generator state after
them, all recorded at the commit *before* that change — so a trace that
moves by one request, one bit of an arrival time or one consumed random
number fails here and not as digest drift in every serving test.
Regenerate only for a change that is meant to move the trace, through the
ledger's entry point (``tests/data/digest_ledger.json`` gets the row)::

    PYTHONPATH=src python -m tests.ledger --pr N --reason "why" \\
        arrival_golden.json
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.serving import ArrivalConfig, ArrivalProcess
from tests.ledger import canonical_text

GOLDEN_PATH = Path(__file__).parent / "data" / "arrival_golden.json"
NUM_REQUESTS = 2000
NUM_NODES = 100_000
HEAD = 8

#: one case per shape, each with a priority mix of its own (the default,
#: a skewed one, one with an empty tier)
CASES = {
    "poisson": ArrivalConfig(shape="poisson", rate=1500.0, seed=11),
    "diurnal": ArrivalConfig(
        shape="diurnal", rate=4000.0, period_s=0.1, amplitude=0.5,
        seed=12, priority_mix=(0.05, 0.25, 0.7),
    ),
    "bursty": ArrivalConfig(
        shape="bursty", rate=800.0, burst_multiplier=6.0,
        burst_start_s=0.4, burst_duration_s=0.5, seed=13,
        priority_mix=(0.5, 0.0, 0.5),
    ),
}


def record(config: ArrivalConfig) -> dict:
    process = ArrivalProcess(config, NUM_NODES)
    rows = []
    for _ in range(NUM_REQUESTS):
        r = process.next_request()
        # float.hex is exact; repr would be too, this is easier to diff.
        rows.append([
            r.index, r.arrival_s.hex(), r.priority, r.deadline_s.hex(), r.node,
        ])
    sha = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    state = process.state_dict()
    return {
        "head": rows[:HEAD],
        "sha256": sha,
        "priority_counts": [
            sum(1 for row in rows if row[2] == tier) for tier in range(3)
        ],
        "now_s": state["now_s"].hex(),
        "rng": state["rng"],
    }


@pytest.mark.parametrize("shape", sorted(CASES))
def test_arrival_trace_matches_the_parent_commit(shape):
    golden = json.loads(GOLDEN_PATH.read_text())
    got = record(CASES[shape])
    # The head first: a readable diff when the very first draws move.
    assert got["head"] == golden[shape]["head"]
    assert got == golden[shape]


def main() -> None:
    golden = {shape: record(config) for shape, config in CASES.items()}
    GOLDEN_PATH.write_text(canonical_text(golden))
    print(f"wrote {len(golden)} shapes to {GOLDEN_PATH}")
