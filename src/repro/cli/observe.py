"""Read-only commands: the registries, paper figures and saved-artifact
analysis (``datasets``, ``figure``, ``trace``, ``top``, ``analyze``,
``compare``)."""

from __future__ import annotations

import argparse
import json
import sys

from ..bench.tables import render_table
from ..errors import ObservatoryError, TelemetryError
from .context import _SSDS, _dumps


def _load_report(path: str, loader: str | None = None) -> dict:
    """Load and validate a report export; an unreadable or malformed one
    raises :class:`~repro.errors.ObservatoryError`.

    ``repro run --format json`` writes a JSON *array* of reports (one per
    loader); ``loader`` selects one entry from such a file.  A single
    report object passes through unchanged.
    """
    from ..observatory import validate_summary

    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as exc:
        raise ObservatoryError(f"cannot read report {path!r}: {exc}") from exc
    if isinstance(payload, list):
        if loader is not None:
            payload = [
                entry
                for entry in payload
                if isinstance(entry, dict) and entry.get("loader") == loader
            ]
            if len(payload) != 1:
                raise ObservatoryError(
                    f"{path!r} holds no report for loader {loader!r}"
                )
            payload = payload[0]
        elif len(payload) == 1:
            payload = payload[0]
        else:
            names = [
                entry.get("loader")
                for entry in payload
                if isinstance(entry, dict)
            ]
            raise ObservatoryError(
                f"{path!r} holds {len(payload)} reports ({names}); pick "
                "one with --loader"
            )
    try:
        validate_summary(payload)
    except ObservatoryError as exc:
        raise ObservatoryError(f"{path}: {exc}") from exc
    return payload


def _cmd_datasets(args: argparse.Namespace) -> int:
    from ..graph.datasets import DATASETS

    rows = []
    for spec in DATASETS.values():
        rows.append(
            [
                spec.name,
                "hetero" if spec.heterogeneous else "homo",
                f"{spec.num_nodes:,}",
                f"{spec.num_edges:,}",
                spec.feature_dim,
                f"{spec.total_bytes / 1e9:.1f} GB",
            ]
        )
    print(
        render_table(
            ["dataset", "type", "nodes", "edges", "dim", "computed size"],
            rows,
            title="Dataset registry (Tables 2-3 of the paper)",
        )
    )
    return 0


def _args_figure(figure: argparse.ArgumentParser) -> None:
    from ..bench.conform import EXPERIMENTS

    figure.add_argument("name", choices=sorted(EXPERIMENTS))


def _cmd_figure(args: argparse.Namespace) -> int:
    """Print one experiment's table and bands; exit 1 on a red band."""
    from ..bench.conform import run

    result = run(args.name)
    print(result.render())
    return 0 if all(check.passed for check in result.checks) else 1


def _args_trace(trace: argparse.ArgumentParser) -> None:
    trace.add_argument("path", help="trace JSON written by --trace")
    trace.add_argument(
        "--width",
        type=int,
        default=72,
        metavar="COLS",
        help="timeline width in characters (default: 72)",
    )
    trace.add_argument(
        "--json",
        action="store_true",
        help="print a machine-readable summary (per-track seconds, event "
        "counts, metrics) instead of the ASCII timeline",
    )
    trace.add_argument(
        "--request",
        metavar="TRACE_ID",
        default=None,
        help="render one causal chain (e.g. req-000042) from a trace "
        "recorded with --trace-detail request; pass 'list' to enumerate "
        "the trace ids present",
    )


def _cmd_trace(args: argparse.Namespace) -> int:
    """``trace``: render a saved Chrome-trace file as an ASCII timeline.

    An unreadable or malformed file exits 2; a well-formed trace that
    lacks what was asked for (causal chains, a request id, events) exits 1.
    """
    from ..telemetry import (
        render_trace,
        summarize_chrome_trace,
        validate_chrome_trace,
    )

    try:
        with open(args.path, encoding="utf-8") as fh:
            trace = json.load(fh)
        validate_chrome_trace(trace)
    except (OSError, ValueError, TelemetryError) as exc:
        raise TelemetryError(
            f"cannot read trace {args.path!r}: {exc}"
        ) from exc
    try:
        if args.request is not None:
            from ..telemetry import list_trace_ids, render_request_trace

            if args.request == "list":
                ids = list_trace_ids(trace)
                if not ids:
                    print(
                        "no causal chains in this trace (record with "
                        "--trace-detail request)",
                        file=sys.stderr,
                    )
                    return 1
                for trace_id in ids:
                    print(trace_id)
            else:
                print(render_request_trace(trace, args.request))
        elif args.json:
            print(_dumps(summarize_chrome_trace(trace)))
        else:
            print(render_trace(trace, width=args.width))
    except TelemetryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _render_top(snapshots: list[dict], max_metrics: int) -> str:
    """One ``repro top`` frame from the latest snapshot of a stream."""
    latest = snapshots[-1]
    deltas = latest.get("counter_deltas", {})
    lines = [
        f"repro top — source {latest['source']}, snapshot "
        f"#{latest['seq']} at modeled {latest['modeled_time_s']:.3f}s "
        f"(cadence {latest['every_s']:g}s, {len(snapshots)} snapshot(s))"
    ]
    rows = []
    for name, summary in sorted(latest.get("metrics", {}).items()):
        kind = summary.get("kind")
        if kind in ("counter", "gauge"):
            value = summary.get("value", 0)
            rows.append(
                (abs(deltas.get(name, 0)), name, kind,
                 f"{value:g}", f"{deltas.get(name, 0):+g}"
                 if name in deltas else "")
            )
        elif kind == "histogram":
            count = summary.get("count", 0)
            mean = summary.get("mean")
            rows.append(
                (0, name, kind, f"n={count}",
                 f"mean={mean:.6g}" if mean is not None else "")
            )
    # Busiest first: largest counter movement since the last snapshot.
    rows.sort(key=lambda r: (-r[0], r[1]))
    shown = rows[:max_metrics]
    if not shown:
        lines.append("(registry is empty)")
        return "\n".join(lines)
    width = max(len(r[1]) for r in shown)
    for _, name, kind, value, extra in shown:
        lines.append(f"  {name:<{width}}  {kind:<9} {value:>14} {extra}")
    if len(rows) > len(shown):
        lines.append(f"  ... {len(rows) - len(shown)} more metric(s)")
    return "\n".join(lines)


def _args_top(top: argparse.ArgumentParser) -> None:
    top.add_argument("path", help="snapshot JSONL written by --stream")
    top.add_argument(
        "--follow",
        action="store_true",
        help="keep polling the file for new snapshots until interrupted",
    )
    top.add_argument(
        "--interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="wall-clock poll interval with --follow (default: 1.0)",
    )
    top.add_argument(
        "--metrics",
        type=int,
        default=12,
        metavar="N",
        help="show the N busiest counters/gauges (default: 12)",
    )


def _cmd_top(args: argparse.Namespace) -> int:
    """``top``: terminal view of a ``--stream`` snapshot JSONL file.

    An unreadable or malformed stream exits 2; an empty one exits 1.
    """
    import time

    from ..telemetry import read_snapshots

    last_seq = None
    while True:
        try:
            snapshots = read_snapshots(args.path)
        except OSError as exc:
            raise TelemetryError(f"cannot read {args.path!r}: {exc}") from exc
        if not snapshots:
            if not args.follow:
                print(f"error: {args.path!r} holds no snapshots",
                      file=sys.stderr)
                return 1
        else:
            seq = snapshots[-1]["seq"]
            if seq != last_seq:
                last_seq = seq
                print(_render_top(snapshots, args.metrics))
        if not args.follow:
            return 0
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0


def _args_analyze(analyze: argparse.ArgumentParser) -> None:
    analyze.add_argument("report", help="report JSON from run --format json")
    analyze.add_argument(
        "--loader",
        default=None,
        help="pick one report out of a multi-loader export",
    )
    analyze.add_argument(
        "--ssd",
        choices=sorted(_SSDS),
        default="optane",
        help="fallback hardware specs for reports without an embedded "
        "attribution block (default: optane)",
    )
    analyze.add_argument("--num-ssds", type=int, default=1)
    analyze.add_argument(
        "--json",
        action="store_true",
        help="print the attribution block as JSON",
    )


def _cmd_analyze(args: argparse.Namespace) -> int:
    """``analyze``: bottleneck attribution for a saved report export."""
    from ..observatory import attribute_summary, system_spec_block

    summary = _load_report(args.report, loader=args.loader)
    specs = (summary.get("attribution") or {}).get("specs")
    if specs is None:
        from ..config import SystemConfig

        specs = system_spec_block(
            SystemConfig(ssd=_SSDS[args.ssd], num_ssds=args.num_ssds)
        )
        print(
            f"note: report has no embedded specs; assuming "
            f"{specs['ssd']} x{specs['num_ssds']} (--ssd/--num-ssds)",
            file=sys.stderr,
        )
    block = attribute_summary(summary, specs)
    if args.json:
        print(_dumps(block))
        return 0

    rows = [
        [
            name,
            f"{entry['achieved']:.4g}",
            f"{entry['peak']:.4g}",
            entry["unit"],
            f"{entry['utilization']:.1%}",
        ]
        for name, entry in block["resources"].items()
    ]
    print(
        render_table(
            ["resource", "achieved", "peak", "unit", "utilization"],
            rows,
            title=f"{summary['loader']} on {specs['ssd']} "
            f"x{specs['num_ssds']} ({summary['iterations']} iterations)",
        )
    )
    fractions = ", ".join(
        f"{name} {fraction:.0%}"
        for name, fraction in block["stage_fractions"].items()
    )
    print(f"stage breakdown: {fractions}")
    print(f"bottleneck: {block['bottleneck']} — {block['verdict']}")
    if block["what_if"]:
        rows = [
            [
                row["scenario"],
                f"{row['predicted_e2e_seconds'] * 1e3:.3f}",
                f"{row['delta_seconds'] * 1e3:+.3f}",
                f"{row['delta_fraction']:+.1%}",
            ]
            for row in block["what_if"]
        ]
        print(
            render_table(
                ["what-if", "predicted E2E ms", "delta ms", "delta"],
                rows,
                title="Eq. 2-3 sensitivity (modeled)",
            )
        )
        # Every non-empty table carries the capacity read-out.
        row = next(r for r in block["what_if"] if r["scenario"] == "capacity")
        if row["max_sustainable_req_s"] is not None:
            from ..utils import format_rate

            print(
                f"capacity: ~{format_rate(row['max_sustainable_req_s'])} "
                f"feature requests sustainable at the {row['bottleneck']} "
                f"bottleneck (achieved {format_rate(row['achieved_req_s'])}, "
                f"{row['utilization']:.1%} utilized)"
            )
    return 0


def _args_compare(compare: argparse.ArgumentParser) -> None:
    compare.add_argument(
        "reports",
        nargs="+",
        metavar="REPORT",
        help="BASELINE and CANDIDATE report JSONs",
    )
    compare.add_argument(
        "--threshold",
        type=float,
        default=0.05,
        metavar="FRACTION",
        help="relative tolerance before a delta counts (default: 0.05)",
    )
    compare.add_argument(
        "--loader",
        default=None,
        help="pick one report out of multi-loader exports",
    )
    compare.add_argument(
        "--json",
        action="store_true",
        help="print the comparison result as JSON",
    )


def _cmd_compare(args: argparse.Namespace) -> int:
    """``compare``: regression gate of a candidate against a baseline."""
    from ..observatory import compare_summaries

    if len(args.reports) != 2:
        raise ObservatoryError(
            "compare takes BASELINE and CANDIDATE reports"
        )
    baseline = _load_report(args.reports[0], loader=args.loader)
    candidate = _load_report(args.reports[1], loader=args.loader)
    result = compare_summaries(baseline, candidate, threshold=args.threshold)

    if args.json:
        print(_dumps(result.to_dict()))
        return result.exit_code

    def fmt(value: float | None) -> str:
        return "-" if value is None else f"{value:.6g}"

    rows = [
        [
            delta.metric,
            fmt(delta.baseline),
            fmt(delta.candidate),
            fmt(delta.delta),
            "-" if delta.fraction is None else f"{delta.fraction:+.2%}",
            delta.verdict,
        ]
        for delta in result.deltas
    ]
    print(
        render_table(
            ["metric", "baseline", "candidate", "delta", "%", "verdict"],
            rows,
            title="comparison (baseline mode, "
            f"threshold {result.threshold:.0%})",
        )
    )
    if result.drifting:
        print(
            "warning: within tolerance but drifting: "
            + ", ".join(result.drifting),
            file=sys.stderr,
        )
    print(f"verdict: {result.verdict}")
    return result.exit_code
