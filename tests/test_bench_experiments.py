"""Unit tests for the fast paths of the experiments module, and the tier-1
guard on the band table (``repro.bench.conform``).

Nothing here builds a workload: the only experiments run are Fig. 8 and
Tables 1-3, and EXPERIMENTS.md's band rows are compared with ``BANDS`` as
text.
"""

import dataclasses
from pathlib import Path

import pytest

from repro.bench import conform
from repro.bench.conform import BANDS, BLOCK, EXPERIMENTS, Band, Check
from repro.bench.experiments import (
    ExperimentResult,
    fig03_request_rates,
    table01_config,
    table02_datasets,
    table03_igb_microbench,
)

DOC = Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"
#: The experiments that build no workload.
WORKLOAD_FREE = ("fig08", "table01", "table02", "table03")


def _cells(line: str) -> list[str]:
    return [cell.strip() for cell in line.split(" | ")]


class TestExperimentResult:
    def test_render_includes_title_and_bands(self):
        band = Band("demo", "the shape to expect", "2x", len, lo=1)
        result = ExperimentResult(
            experiment="Demo",
            headers=["a", "b"],
            rows=[[1, 1 / 3]],
            formats=["", ".1f"],
            checks=[Check(band, 2.5)],
        )
        lines = result.render().splitlines()
        assert lines[0] == "Demo"
        assert _cells(lines[3]) == ["1", "0.3"]
        assert _cells(lines[-1]) == [
            "the shape to expect", "2x", "> 1", "2.5", "PASS"
        ]

    def test_render_without_bands(self):
        result = ExperimentResult(
            experiment="Demo", headers=["a"], rows=[["x"], [None]]
        )
        lines = result.render().splitlines()
        assert [line.strip() for line in lines[3:]] == ["x", "-"]


class TestFigure3:
    def test_rates_and_ordering(self):
        result = fig03_request_rates(thread_counts=(1, 16))
        rates = dict(result.rows)
        assert rates["CPU (16 threads)"] == pytest.approx(4.1)
        assert rates["GPU generation"] == pytest.approx(77)
        assert rates["GPU consumption (training)"] == pytest.approx(29)
        # One row per CPU thread count plus the two GPU rows.
        assert len(result.rows) == 4


class TestTables:
    def test_table01_lists_both_ssds(self):
        result = table01_config()
        text = result.render()
        assert "Intel Optane" in text
        assert "Samsung 980 Pro" in text
        assert "A100" in text

    def test_table02_counts_match_registry(self):
        result = table02_datasets()
        by_name = {row[0]: row for row in result.rows}
        assert by_name["IGB-Full"][2] == 269_364_174
        assert "269,364,174" in result.render()
        assert by_name["MAG240M"][1] == "heterogeneous"

    def test_table03_four_igb_sizes(self):
        result = table03_igb_microbench()
        names = [row[0] for row in result.rows]
        assert names == ["IGB-tiny", "IGB-small", "IGB-medium", "IGB-large"]


class TestBandTable:
    """The guard on ``BANDS`` itself; it runs no heavy experiment."""

    def test_rows_are_well_formed(self):
        for band in BANDS:
            assert band.experiment in EXPERIMENTS, band.claim
            assert band.claim and band.paper, band.claim
            # " | " separates the cells of a rendered band table.
            assert "|" not in band.claim + band.paper, band.claim
            assert (band.lo, band.hi) != (None, None), band.claim
            if band.lo is not None and band.hi is not None:
                assert band.lo < band.hi, band.claim
        assert {band.experiment for band in BANDS} == set(EXPERIMENTS)

    def test_band_ends(self):
        open_band = Band("demo", "c", "p", len, lo=1, hi=2)
        closed = dataclasses.replace(open_band, closed=True)
        assert [open_band.holds(v) for v in (1, 1.5, 2)] == [False, True, False]
        assert [closed.holds(v) for v in (1, 1.5, 2)] == [True, True, True]
        assert not open_band.holds(float("nan"))
        assert (open_band.text(), closed.text()) == ("(1, 2)", "[1, 2]")
        assert dataclasses.replace(closed, lo=None).text() == "<= 2"

    def test_doc_blocks_list_the_table_rows_in_order(self):
        blocks = list(BLOCK.finditer(DOC.read_text(encoding="utf-8")))
        assert [block["name"] for block in blocks] == list(EXPERIMENTS)
        documented = []
        for block in blocks:
            lines = block[0].splitlines()
            header = next(
                i for i, line in enumerate(lines) if line.startswith("claim ")
            )
            # Band rows run from under the header's rule to the fence.
            for line in lines[header + 2:-2]:
                claim, paper, band, _, verdict = _cells(line)
                assert verdict == "PASS", (block["name"], claim)
                documented.append((block["name"], claim, paper, band))
        assert documented == [
            (band.experiment, band.claim, band.paper, band.text())
            for band in BANDS
        ]

    def test_workload_free_bands_are_green(self):
        for name in WORKLOAD_FREE:
            checks = conform.run(name).checks
            assert checks, name
            assert all(check.passed for check in checks), [
                check.cells() for check in checks
            ]

    def test_no_render_prints_paper_twice(self):
        # The doc holds every registered experiment's render.
        assert "paper: paper:" not in DOC.read_text(encoding="utf-8")
        for name in WORKLOAD_FREE:
            assert "paper:" not in conform.run(name).render()

    def test_a_doc_without_every_block_exits_2(self, tmp_path, capsys):
        doc = tmp_path / "doc.md"
        doc.write_text(
            "<!-- conform:fig03 -->\n<!-- /conform -->\n", encoding="utf-8"
        )
        assert conform.main([str(doc)]) == 2
        assert capsys.readouterr().err.startswith("error:")
