"""Every pinned artifact's hash is its ledger's latest row.

``tests/ledger.py`` names the pinned artifacts and holds the one
regeneration entry point; ``tests/data/digest_ledger.json`` records one
row per intentional move.  A golden regenerated without a row, a row
written for an artifact that then moved again, a hand-edited byte anywhere
in a JSON golden (its entries are hashed as parsed JSON, so the file must
also be in its writer's canonical form), a new file under ``tests/data/``
that no row covers and an artifact the entry point would not accept by
name all fail here.  ~0.1 s.
"""

from __future__ import annotations

import json

import pytest

from tests import ledger


@pytest.fixture(scope="module")
def hashes():
    return ledger.current_hashes()


@pytest.mark.parametrize(
    "name",
    ledger.KEYED + ledger.WHOLE + ledger.PINS,
    ids=lambda name: name.replace("::", "."),
)
def test_pinned_artifact_is_its_ledger_latest_row(name, hashes):
    last = ledger.latest(ledger.load_rows())
    moved = [
        f"{artifact}: {sha} (ledger: "
        f"{last[artifact]['sha256'] if artifact in last else 'no row'})"
        for artifact, sha in hashes.items()
        if (artifact == name or artifact.startswith(f"{name}:"))
        and (artifact not in last or last[artifact]["sha256"] != sha)
    ]
    assert not moved, (
        "pinned artifacts moved without a ledger row (regenerate them "
        "through `python -m tests.ledger`):\n" + "\n".join(moved)
    )


@pytest.mark.parametrize("name", ledger.KEYED + ("arrival_golden.json",))
def test_json_golden_is_in_canonical_form(name):
    text = (ledger.DATA / name).read_text(encoding="utf-8")
    assert text == ledger.canonical_text(json.loads(text))


def test_every_ledger_row_names_a_pinned_artifact(hashes):
    rows = ledger.load_rows()
    assert [row["artifact"] for row in rows if row["artifact"] not in hashes] \
        == []
    for row in rows:
        assert sorted(row) == ["artifact", "pr", "reason", "sha256"], row
        assert isinstance(row["pr"], int) and row["reason"].strip(), row


def test_every_artifact_can_be_named_to_the_entry_point(hashes):
    """``python -m tests.ledger`` accepts every artifact by its ledger
    name (selector parsing only: nothing is regenerated)."""
    entries, artifacts = ledger.parse(list(hashes))
    assert artifacts == list(hashes)
    assert "parser" in entries["cli_golden.json"]


def test_every_data_file_is_pinned():
    files = {path.name for path in ledger.DATA.iterdir()}
    assert files == {*ledger.KEYED, *ledger.WHOLE, ledger.LEDGER_PATH.name}
