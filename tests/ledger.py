"""The digest-move ledger: every pinned artifact, its hash, and why it moved.

The tests pin behaviour in a handful of files under ``tests/data/`` and in a
few named constants inside test modules.  ``tests/data/digest_ledger.json``
holds one row per intentional move of one of them — the artifact, its new
SHA-256, the change that moved it and the reason — and
``tests/test_digest_ledger.py`` fails whenever an artifact's current hash is
not its latest row's.  A moved artifact therefore cannot land unexplained,
and an artifact nobody meant to move cannot be regenerated "just in case".

Artifacts, by ledger name:

* ``readpath_golden.json:CASE`` and ``cli_golden.json:CASE`` (``parser``
  for the CLI option dump) — one entry of a keyed golden, hashed as
  canonical JSON;
* ``arrival_golden.json``, ``baseline_report.json`` and
  ``parent_train_ckpt-00000006.bin`` — whole files, hashed byte for byte;
* ``test_module.py::Class.NAME`` — a named in-test pin, hashed as its
  ``repr``.

The one regeneration entry point rewrites the named golden entries with
their own regenerators (``tests/test_readpath_golden.py``,
``tests/test_cli_golden.py``, ``tests/test_arrival_golden.py``; every other
entry is rewritten byte for byte), then appends a row for each named
artifact that moved::

    PYTHONPATH=src python -m tests.ledger --pr N --reason "why" ARTIFACT ...

A CLI case may be named down to one file (``cli_golden.json:CASE:FILE``);
its row is still the case's.  Fixtures written by hand and in-test pins
are not regenerated: edit them first, then name them to record the move.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import sys
from pathlib import Path

DATA = Path(__file__).parent / "data"
LEDGER_PATH = DATA / "digest_ledger.json"

#: Goldens whose top-level entries (``cases`` for the CLI golden) are
#: ledgered one by one.
KEYED = ("readpath_golden.json", "cli_golden.json")
#: Files ledgered whole.
WHOLE = (
    "arrival_golden.json",
    "baseline_report.json",
    "parent_train_ckpt-00000006.bin",
)
#: Named in-test pins.
PINS = (
    "test_state_tables.py::TestParentSnapshot.FINAL_LOSS",
    "test_storage.py::TestFeatureStore.SYNTHETIC_SHA256",
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def canonical_text(doc) -> str:
    """How every JSON golden is written (each writer calls this): sorted
    keys, one-space indent, a trailing newline."""
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def keyed_entries(name: str) -> dict:
    """``{entry: parsed value}`` of one keyed golden."""
    doc = json.loads((DATA / name).read_text(encoding="utf-8"))
    if name == "cli_golden.json":
        return {**doc["cases"], "parser": doc["parser"]}
    return doc


def pin_value(name: str):
    """The current value of a named in-test pin."""
    module, _, path = name.partition("::")
    value = importlib.import_module(f"tests.{module.removesuffix('.py')}")
    for attr in path.split("."):
        value = getattr(value, attr)
    return value


def current_hashes() -> dict[str, str]:
    """Every pinned artifact's ledger name and current hash."""
    hashes = {}
    for golden in KEYED:
        for key, value in keyed_entries(golden).items():
            text = json.dumps(value, sort_keys=True, separators=(",", ":"))
            hashes[f"{golden}:{key}"] = _sha(text.encode())
    for name in WHOLE:
        hashes[name] = _sha((DATA / name).read_bytes())
    for name in PINS:
        hashes[name] = _sha(repr(pin_value(name)).encode())
    return hashes


def load_rows() -> list[dict]:
    return json.loads(LEDGER_PATH.read_text(encoding="utf-8"))


def latest(rows: list[dict]) -> dict[str, dict]:
    """Each artifact's last row."""
    return {row["artifact"]: row for row in rows}


def write_rows(rows: list[dict]) -> None:
    """One row per line, so a move is a one-line diff."""
    lines = ",\n".join(json.dumps(row, sort_keys=True) for row in rows)
    LEDGER_PATH.write_text(f"[\n{lines}\n]\n", encoding="utf-8")


def parse(selectors: list[str]) -> tuple[dict[str, list[str]], list[str]]:
    """Each keyed golden's regenerator arguments, and the ledger names of
    the artifacts the selectors name; exits on a selector that names
    none."""
    from tests import test_cli_golden, test_readpath_golden

    known = {
        "readpath_golden.json": set(test_readpath_golden.CASES),
        "cli_golden.json": {*test_cli_golden.CASES, "parser"},
    }
    entries: dict[str, list[str]] = {golden: [] for golden in KEYED}
    artifacts = []
    for selector in selectors:
        golden, _, entry = selector.partition(":")
        case, _, file = entry.partition(":")
        if case in known.get(golden, ()) and not (file and case == "parser"):
            entries[golden].append(entry)
            artifacts.append(f"{golden}:{case}")
        elif selector in WHOLE or selector in PINS:
            artifacts.append(selector)
        else:
            raise SystemExit(
                f"not a pinned artifact: {selector} (a golden's entries "
                "are FILE:CASE)"
            )
    return entries, artifacts


def regenerate(selectors: list[str]) -> list[str]:
    """Rewrite the named golden entries; return their ledger names."""
    from tests import test_arrival_golden, test_cli_golden, test_readpath_golden

    entries, artifacts = parse(selectors)
    if entries["readpath_golden.json"]:
        test_readpath_golden.main(entries["readpath_golden.json"])
    if entries["cli_golden.json"]:
        test_cli_golden.regenerate(entries["cli_golden.json"])
    if "arrival_golden.json" in artifacts:
        test_arrival_golden.main()
    return artifacts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tests.ledger", description=__doc__.split("\n")[0]
    )
    parser.add_argument("--pr", type=int, required=True,
                        help="the change that moves the artifacts")
    parser.add_argument("--reason", required=True,
                        help="why they move (one line)")
    parser.add_argument("artifacts", nargs="+", metavar="ARTIFACT")
    args = parser.parse_args(argv)
    named = regenerate(args.artifacts)
    hashes = current_hashes()
    rows = load_rows()
    last = latest(rows)
    for artifact in dict.fromkeys(named):
        sha = hashes[artifact]
        if artifact in last and last[artifact]["sha256"] == sha:
            print(f"{artifact}: unchanged, no row written", file=sys.stderr)
            continue
        rows.append(
            {"artifact": artifact, "sha256": sha, "pr": args.pr,
             "reason": args.reason}
        )
        print(f"{artifact}: moved to {sha}", file=sys.stderr)
    write_rows(rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
