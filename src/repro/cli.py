"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``datasets`` — print the dataset registry (Tables 2-3).
* ``run`` — run one or all dataloaders on a scaled workload and print a
  comparison (optionally JSON/CSV); ``--fault-plan plan.json`` injects
  storage faults and reports the retry/fallback counters;
  ``--checkpoint-dir`` switches to a supervised, crash-safe functional
  training run (with ``--checkpoint-every`` cadence and ``--resume``).
* ``figure`` — regenerate one paper figure/table by name.
* ``train`` — functional GraphSAGE training through the GIDS loader, with
  the same supervised checkpoint/resume flags.
* ``serve`` — overload-protected online inference in modeled time: a
  seeded open-loop arrival process (``--shape poisson|diurnal|bursty``)
  drives per-request sample→fetch→aggregate through admission control,
  priority load shedding, per-device circuit breakers, hedged reads and
  brownout degradation (``--no-protection`` disables all five layers;
  ``-o out.json`` writes the schema-v11 serving export).
* ``trace`` — render a saved Chrome-trace JSON as an ASCII timeline;
  ``--request <id>`` renders one request's causal chain instead
  (``--request list`` enumerates the stamped trace ids).
* ``top`` — render the latest line of a ``--stream`` snapshot JSONL as
  a terminal frame, busiest counters first (``--follow`` to keep
  refreshing).
* ``profile`` — run a bench experiment under the simulator
  self-profiler and report wall-clock seconds per modeled subsystem vs
  modeled time (ROADMAP item 4; feeds ``BENCH_sim_overhead.json``).
* ``ssd-model`` — print the Eq. 2-3 bandwidth model for an SSD.
* ``scrub`` — sweep a workload's feature pages against their digests,
  repairing storm-poisoned pages from the ground-truth store.
* ``faults validate`` — parse a FaultPlan JSON, cross-check its event
  windows against a planned iteration count and summarize it per device
  (exit 0 when valid, 2 when not).
* ``analyze`` — bottleneck attribution for a saved report JSON:
  per-resource achieved-vs-peak utilization, a roofline-style verdict
  naming the binding bottleneck, and the Eq. 2-3 what-if table.
* ``compare`` — regression gate between two report JSONs (or one report
  and a run history's noise band): per-metric deltas and a
  regression/improvement/neutral verdict.  Exit 0 on neutral or
  improvement, 3 on regression, 2 on malformed input.
* ``history record`` / ``history list`` — append report summaries to the
  local JSONL run history (keyed by config fingerprint + git revision)
  and inspect the recorded trends.

Analysis subcommands share exit-code conventions: 0 success, 1 runtime
error, 2 malformed/unsupported input, and 3 (``compare`` only) a
regression verdict.

``run`` and ``train`` accept ``--verify-reads off|sample|full`` and
``--scrub-iops N`` to enable the integrity layer (digest verification of
storage-served pages, bounded re-read repair, quarantine and background
scrubbing); a malformed ``--fault-plan`` file exits with status 2 and a
one-line message.

``run`` and ``train`` accept ``--trace out.json`` (plus ``--trace-detail
stage|request``) to record the run's modeled-time telemetry as a Chrome
trace-event file, loadable in ``chrome://tracing`` / Perfetto or rendered
with the ``trace`` subcommand, and ``--alerts rules.json`` to evaluate
declarative SLO rules against the finished run (fired rules print to
stderr, land in the JSON export's ``alerts`` block and — when tracing —
as instants on the ``alerts`` track).  ``repro --version`` prints the
package version.

The mission-control flags ride every workload command (``run``,
``train``, ``serve``, ``fleet``, ``fullgraph``): ``--trace-cap N``
bounds recorded events (drops are counted in
``telemetry.dropped_events``), ``--stream snap.jsonl`` /
``--prom metrics.prom`` / ``--snapshot-every S`` emit live modeled-time
metric snapshots, and ``--blackbox box.json`` dumps the flight
recorder's recent-event ring on a simulated crash, a fired SLO rule, or
a violated fleet invariant.  See ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import argparse
import sys

from .bench.tables import render_table
from .config import INTEL_OPTANE, SAMSUNG_980PRO, SSDSpec
from .utils import package_version

_SSDS: dict[str, SSDSpec] = {
    "optane": INTEL_OPTANE,
    "980pro": SAMSUNG_980PRO,
}

#: figure/table name -> experiment function name in repro.bench.experiments.
_EXPERIMENTS = {
    "fig03": "fig03_request_rates",
    "fig05": "fig05_breakdown",
    "fig07": "fig07_sampling",
    "fig08": "fig08_ssd_model",
    "fig09": "fig09_accumulator",
    "fig10": "fig10_cpu_buffer",
    "fig11": "fig11_window_depth",
    "fig12": "fig12_cache_sizes",
    "fig13": "fig13_e2e_980pro",
    "fig14": "fig14_e2e_optane",
    "fig15": "fig15_ladies",
    "table01": "table01_config",
    "table02": "table02_datasets",
    "table03": "table03_igb_microbench",
    "table04": "table04_sizes",
    "ablation-target": "ablation_accumulator_target",
    "ablation-eviction": "ablation_eviction_policy",
}


def _add_checkpoint_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        default=None,
        help="enable crash-safe supervised training: write snapshots to "
        "DIR and restart from the latest valid one after a crash",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=10,
        metavar="N",
        help="snapshot cadence in completed iterations (default: 10)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="continue from snapshots already in --checkpoint-dir instead "
        "of starting fresh",
    )


def _add_trace_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        metavar="JSON_PATH",
        default=None,
        help="record modeled-time telemetry and write a Chrome trace-event "
        "file (open in chrome://tracing / Perfetto, or render with "
        "'repro trace')",
    )
    parser.add_argument(
        "--trace-detail",
        choices=["stage", "request"],
        default="stage",
        help="trace granularity: per-iteration stage spans only, or also "
        "per-resource spans and instant events (default: stage)",
    )
    parser.add_argument(
        "--trace-cap",
        type=int,
        default=None,
        metavar="N",
        help="cap on recorded spans + instants (default: 200000); events "
        "past the cap are dropped and counted in the "
        "'telemetry.dropped_events' metric",
    )


def _add_stream_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--stream",
        metavar="JSONL_PATH",
        default=None,
        help="stream periodic modeled-time metric snapshots to this JSONL "
        "file during the run (view live with 'repro top')",
    )
    parser.add_argument(
        "--prom",
        metavar="PROM_PATH",
        default=None,
        help="keep a Prometheus text-exposition rendering of the metrics "
        "registry up to date in this file during the run",
    )
    parser.add_argument(
        "--snapshot-every",
        type=float,
        default=0.05,
        metavar="SECONDS",
        help="modeled seconds between metric snapshots (default: 0.05)",
    )
    parser.add_argument(
        "--blackbox",
        metavar="JSON_PATH",
        default=None,
        help="arm the black-box flight recorder: keep a bounded ring of "
        "recent telemetry and dump it to this file on a simulated crash, "
        "an SLO breach, or an invariant violation",
    )


def _add_integrity_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--verify-reads",
        choices=["off", "sample", "full"],
        default="off",
        help="verify storage-served pages against their digests: 'off' "
        "(default; corrupt bytes flow through), 'sample' (a seeded "
        "fraction of pages), or 'full' (every page)",
    )
    parser.add_argument(
        "--scrub-iops",
        type=float,
        default=0.0,
        metavar="N",
        help="page reads per modeled second granted to the background "
        "scrubber (default: 0, disabled)",
    )


def _load_fault_plan(path: str):
    """Load ``--fault-plan`` or exit 2 with a one-line message."""
    from .errors import FaultPlanError
    from .faults import FaultPlan

    try:
        return FaultPlan.from_json_file(path)
    except FaultPlanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _wants_telemetry(args: argparse.Namespace) -> bool:
    """True when any tracing/streaming/flight-recorder flag is set."""
    return any(
        getattr(args, flag, None) is not None
        for flag in ("trace", "stream", "prom", "blackbox")
    )


def _make_tracer(args: argparse.Namespace):
    """Build the tracer behind ``--trace``/``--stream``/``--prom``/
    ``--blackbox``, or ``None`` when no telemetry surface is requested.

    Streaming and the flight recorder ride the tracer's metrics registry
    and event feed, so any of the four flags brings the tracer up; only
    ``--trace`` additionally writes the Chrome trace file at run end.
    """
    if not _wants_telemetry(args):
        return None
    from .telemetry import Tracer

    kwargs = {}
    cap = getattr(args, "trace_cap", None)
    if cap is not None:
        kwargs["max_events"] = cap
    return Tracer(
        enabled=True,
        detail=args.trace_detail,
        strict_tracks=True,
        **kwargs,
    )


def _make_flight(args: argparse.Namespace, tracer):
    """Arm the flight recorder behind ``--blackbox`` (needs a tracer)."""
    if tracer is None or getattr(args, "blackbox", None) is None:
        return None
    from .telemetry import FlightRecorder

    flight = FlightRecorder()
    tracer.attach_flight(flight)
    return flight


def _make_snapshotter(args: argparse.Namespace, tracer, source, flight=None):
    """Build the live-metrics snapshotter behind ``--stream``/``--prom``."""
    stream = getattr(args, "stream", None)
    prom = getattr(args, "prom", None)
    if tracer is None or (stream is None and prom is None):
        return None
    if args.snapshot_every <= 0:
        print("error: --snapshot-every must be positive", file=sys.stderr)
        raise SystemExit(2)
    from .telemetry import MetricsSnapshotter

    return MetricsSnapshotter(
        tracer.metrics,
        every_s=args.snapshot_every,
        jsonl_path=stream,
        prom_path=prom,
        source=source,
        flight=flight,
    )


def _finish_snapshots(snapshotter, tracer) -> None:
    """Take one final snapshot so the stream reflects the finished run."""
    if snapshotter is not None and tracer is not None:
        last = snapshotter.last_taken_s
        snapshotter.take(max(tracer.clock_s, last if last is not None else 0.0))


def _breach_blackbox(args, flight, alerts_block, at_s: float) -> None:
    """Dump the flight recorder when SLO rules fired (``--blackbox``)."""
    if flight is None or alerts_block is None or alerts_block["ok"]:
        return
    names = [f["name"] for f in alerts_block["fired"]]
    flight.dump(
        args.blackbox,
        trigger=f"slo breach: {', '.join(names)}",
        at_s=at_s,
        context={"fired_rules": names},
    )
    print(f"wrote flight-recorder dump to {args.blackbox}", file=sys.stderr)


def _write_trace(tracer, path: str) -> None:
    from .telemetry import write_chrome_trace

    events = write_chrome_trace(tracer, path)
    print(f"wrote {events} trace events to {path}", file=sys.stderr)


def _add_ha_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--replication",
        type=int,
        default=1,
        metavar="R",
        help="keep R copies of every feature page across the SSD array "
        "(default: 1, no redundancy); degraded-mode reads then redirect "
        "to a surviving replica instead of the CPU mirror",
    )
    parser.add_argument(
        "--parity",
        action="store_true",
        help="protect the array with one parity page per stripe "
        "(RAID-5-style, needs --num-ssds >= 2); lost pages reconstruct "
        "inline from the surviving group members",
    )
    parser.add_argument(
        "--rebuild-iops",
        type=float,
        default=0.0,
        metavar="N",
        help="page operations per modeled second granted to the online "
        "rebuilder that re-protects pages after a device loss "
        "(default: 0, disabled)",
    )


def _ha_kwargs(args: argparse.Namespace) -> dict:
    """Validated HA constructor kwargs from the ``_add_ha_args`` flags."""
    if args.replication < 1:
        print("error: --replication must be >= 1", file=sys.stderr)
        raise SystemExit(2)
    if args.replication > 1 and args.parity:
        print(
            "error: choose --replication or --parity, not both",
            file=sys.stderr,
        )
        raise SystemExit(2)
    if args.rebuild_iops < 0:
        print("error: --rebuild-iops must be non-negative", file=sys.stderr)
        raise SystemExit(2)
    return {
        "replication": args.replication,
        "parity": args.parity,
        "rebuild_iops": args.rebuild_iops,
    }


def _add_alerts_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--alerts",
        metavar="RULES_JSON",
        default=None,
        help="evaluate declarative SLO alert rules against the finished "
        "run (fired rules print to stderr and land in the JSON export's "
        "'alerts' block)",
    )


def _load_alert_rules(path: str):
    """Load ``--alerts`` rules or exit 2 with a one-line message."""
    from .errors import ObservatoryError
    from .observatory import load_alert_rules

    try:
        return load_alert_rules(path)
    except ObservatoryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _print_alerts(loader_name: str, block: dict) -> None:
    """One stderr line per fired rule, plus an all-clear / missing note."""
    for fired in block["fired"]:
        where = (
            f" in {fired['count']} iteration(s)" if "count" in fired else ""
        )
        print(
            f"alert [{fired['severity']}] {loader_name}: {fired['name']} "
            f"— {fired['metric']} {fired['op']} {fired['threshold']:g} "
            f"(value {fired['value']:g}){where}",
            file=sys.stderr,
        )
    for metric in block["missing"]:
        print(
            f"note: alert metric {metric!r} not present in this run",
            file=sys.stderr,
        )
    if block["ok"]:
        print(
            f"alerts: {loader_name} passes all {block['rules']} rule(s)",
            file=sys.stderr,
        )


def _load_report(path: str, loader: str | None = None) -> dict:
    """Load and validate a report export, or exit 2 with a message.

    ``repro run --format json`` writes a JSON *array* of reports (one per
    loader); ``loader`` selects one entry from such a file.  A single
    report object passes through unchanged.
    """
    import json

    from .errors import ObservatoryError
    from .observatory import validate_summary

    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read report {path!r}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    if isinstance(payload, list):
        if loader is not None:
            payload = [
                entry
                for entry in payload
                if isinstance(entry, dict) and entry.get("loader") == loader
            ]
            if len(payload) != 1:
                print(
                    f"error: {path!r} holds no report for loader "
                    f"{loader!r}",
                    file=sys.stderr,
                )
                raise SystemExit(2)
            payload = payload[0]
        elif len(payload) == 1:
            payload = payload[0]
        else:
            names = [
                entry.get("loader")
                for entry in payload
                if isinstance(entry, dict)
            ]
            print(
                f"error: {path!r} holds {len(payload)} reports "
                f"({names}); pick one with --loader",
                file=sys.stderr,
            )
            raise SystemExit(2)
    try:
        validate_summary(payload)
    except ObservatoryError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    return payload


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GIDS reproduction (PVLDB 17(6), 2024)",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"repro {package_version()}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list the dataset registry")

    run = sub.add_parser("run", help="compare dataloaders on a workload")
    run.add_argument("--dataset", default="IGB-Full")
    run.add_argument("--scale", type=float, default=None,
                     help="dataset shrink factor (default: per-dataset)")
    run.add_argument("--ssd", choices=sorted(_SSDS), default="optane")
    run.add_argument("--num-ssds", type=int, default=1)
    run.add_argument(
        "--loader",
        choices=["gids", "bam", "mmap", "ginex", "all"],
        default="all",
    )
    run.add_argument("--iterations", type=int, default=40)
    run.add_argument("--format", choices=["table", "json", "csv"],
                     default="table")
    run.add_argument(
        "--fault-plan",
        metavar="JSON_PATH",
        default=None,
        help="inject storage faults from a FaultPlan JSON file "
        "(read failures, tail spikes, device dropout, PCIe degradation, "
        "simulated process crashes)",
    )
    _add_checkpoint_args(run)
    _add_trace_args(run)
    _add_stream_args(run)
    _add_integrity_args(run)
    _add_ha_args(run)
    _add_alerts_arg(run)

    figure = sub.add_parser("figure", help="regenerate one paper figure")
    figure.add_argument("name", choices=sorted(_EXPERIMENTS))

    train = sub.add_parser("train", help="functional GraphSAGE training")
    train.add_argument("--dataset", default="IGB-tiny")
    train.add_argument("--scale", type=float, default=0.1)
    train.add_argument("--iterations", type=int, default=60)
    train.add_argument("--classes", type=int, default=8)
    train.add_argument("--hidden-dim", type=int, default=64)
    train.add_argument("--batch-size", type=int, default=256)
    train.add_argument(
        "--fault-plan",
        metavar="JSON_PATH",
        default=None,
        help="inject storage faults / crash events from a FaultPlan JSON "
        "file",
    )
    _add_checkpoint_args(train)
    _add_trace_args(train)
    _add_stream_args(train)
    _add_integrity_args(train)
    _add_ha_args(train)
    _add_alerts_arg(train)

    fleet = sub.add_parser(
        "fleet",
        help="elastic multi-GPU sharded training in modeled time",
    )
    fleet.add_argument("--dataset", default="IGB-tiny")
    fleet.add_argument("--scale", type=float, default=0.05,
                       help="dataset shrink factor (default: 0.05)")
    fleet.add_argument("--ssd", choices=sorted(_SSDS), default="optane")
    fleet.add_argument("--num-ssds", type=int, default=1)
    fleet.add_argument("--gpus", type=int, default=4,
                       help="data-parallel width (default: 4)")
    fleet.add_argument("--batch-size", type=int, default=32)
    fleet.add_argument("--seed", type=int, default=0)
    fleet.add_argument(
        "--shard-mode", choices=["partition", "hash"], default="partition",
        help="seed sharding: graph-partition-aware (default) or "
        "rendezvous hash",
    )
    fleet.add_argument(
        "--no-peer-cache", action="store_true",
        help="disable the peer-cache tier (every local miss pays the "
        "shared SSD array: the contention baseline)",
    )
    fleet.add_argument(
        "--fault-plan", metavar="JSON_PATH", default=None,
        help="FaultPlan JSON; its worker events (gpu:<k> "
        "dropout/recovery/straggle) drive fleet elasticity, its device "
        "events degrade the shared SSD array",
    )
    fleet.add_argument(
        "--chaos", action="store_true",
        help="sweep the chaos scenarios (dropout, straggler, storm...) "
        "and assert the fleet invariants instead of one epoch",
    )
    _add_trace_args(fleet)
    _add_stream_args(fleet)
    _add_ha_args(fleet)
    fleet.add_argument("--format", choices=["table", "json"],
                       default="table")
    fleet.add_argument(
        "-o", "--output", metavar="JSON_PATH", default=None,
        help="also write the schema-v11 run export (with the fleet block) "
        "to this file",
    )

    fullgraph = sub.add_parser(
        "fullgraph",
        help="full-graph training as partition sweeps with activation "
        "offload",
    )
    fullgraph.add_argument("--dataset", default="IGB-tiny")
    fullgraph.add_argument("--scale", type=float, default=0.01,
                           help="dataset shrink factor (default: 0.01)")
    fullgraph.add_argument("--ssd", choices=sorted(_SSDS), default="980pro")
    fullgraph.add_argument("--num-ssds", type=int, default=1)
    fullgraph.add_argument("--epochs", type=int, default=5,
                           help="sweep epochs to run (default: 5)")
    fullgraph.add_argument(
        "--target-acc", type=float, default=None, metavar="FRAC",
        help="stop early once eval accuracy reaches FRAC (epochs becomes "
        "the cap)",
    )
    fullgraph.add_argument("--classes", type=int, default=8)
    fullgraph.add_argument("--hidden-dim", type=int, default=32)
    fullgraph.add_argument("--layers", type=int, default=2)
    fullgraph.add_argument(
        "--aggregator", choices=["mean", "gcn", "pool"], default="mean",
    )
    fullgraph.add_argument(
        "--partitions", type=int, default=None, metavar="P",
        help="force the partition count instead of letting the memory "
        "planner choose",
    )
    fullgraph.add_argument(
        "--hbm-mb", type=float, default=None, metavar="MB",
        help="modeled HBM budget in MiB (default: the GPU spec's full "
        "memory; small values force the activation-offload regime)",
    )
    fullgraph.add_argument(
        "--no-overlap", action="store_true",
        help="serialize spill/reload I/O with sweep compute instead of "
        "overlapping them",
    )
    fullgraph.add_argument(
        "--steps", type=int, default=None, metavar="N",
        help="run at most N partition steps this invocation (kill/resume "
        "drills; pair with --checkpoint-dir)",
    )
    fullgraph.add_argument(
        "--fault-plan", metavar="JSON_PATH", default=None,
        help="inject storage faults from a FaultPlan JSON file; spill "
        "pages ride the same failure/retry/corruption process as feature "
        "pages",
    )
    _add_checkpoint_args(fullgraph)
    _add_trace_args(fullgraph)
    _add_stream_args(fullgraph)
    fullgraph.add_argument(
        "--verify-reads", choices=["off", "sample", "full"], default="off",
        help="verify reloaded spill pages against their digests: 'off' "
        "(default), 'sample', or 'full'",
    )
    _add_ha_args(fullgraph)
    fullgraph.add_argument("--format", choices=["table", "json"],
                           default="table")
    fullgraph.add_argument(
        "-o", "--output", metavar="JSON_PATH", default=None,
        help="also write the schema-v11 run export (with the fullgraph "
        "block) to this file",
    )

    serve = sub.add_parser(
        "serve",
        help="overload-protected online inference in modeled time",
    )
    serve.add_argument("--dataset", default="IGB-tiny")
    serve.add_argument("--scale", type=float, default=0.1,
                       help="dataset shrink factor (default: 0.1)")
    serve.add_argument("--ssd", choices=sorted(_SSDS), default="optane")
    serve.add_argument("--num-ssds", type=int, default=1)
    serve.add_argument("--requests", type=int, default=2000,
                       help="arrivals to generate (default: 2000)")
    serve.add_argument(
        "--shape", choices=["poisson", "diurnal", "bursty"],
        default="poisson",
        help="arrival shape (default: poisson steady state)",
    )
    serve.add_argument("--rate", type=float, default=2000.0,
                       help="baseline offered rate in req/s (default: 2000)")
    serve.add_argument("--seed", type=int, default=0,
                       help="arrival-trace seed (default: 0)")
    serve.add_argument(
        "--priority-mix", default="0.2,0.6,0.2", metavar="HI,NORM,LOW",
        help="high/normal/low traffic fractions (default: 0.2,0.6,0.2)",
    )
    serve.add_argument("--deadline-ms", type=float, default=50.0,
                       help="per-request deadline (default: 50 ms)")
    serve.add_argument(
        "--slo-p99-ms", type=float, default=50.0,
        help="p99 objective driving brownout degradation (default: 50 ms)",
    )
    serve.add_argument(
        "--no-protection", action="store_true",
        help="disable every protection layer (shows the unprotected "
        "latency collapse past saturation)",
    )
    serve.add_argument(
        "--fault-plan", metavar="JSON_PATH", default=None,
        help="inject storage faults from a FaultPlan JSON file (device "
        "dropouts exercise the per-device circuit breakers)",
    )
    _add_ha_args(serve)
    serve.add_argument("--format", choices=["table", "json"],
                       default="table")
    serve.add_argument(
        "-o", "--output", metavar="JSON_PATH", default=None,
        help="also write the schema-v11 serving export to this file",
    )
    _add_trace_args(serve)
    _add_stream_args(serve)
    _add_alerts_arg(serve)

    scrub = sub.add_parser(
        "scrub",
        help="sweep a workload's feature pages against their digests",
    )
    scrub.add_argument("--dataset", default="IGB-tiny")
    scrub.add_argument("--scale", type=float, default=0.1,
                       help="dataset shrink factor (default: 0.1)")
    scrub.add_argument("--num-ssds", type=int, default=1)
    scrub.add_argument(
        "--scrub-iops", type=float, default=1e6, metavar="N",
        help="page reads per modeled second for the sweep (default: 1e6)",
    )
    scrub.add_argument(
        "--fault-plan", metavar="JSON_PATH", default=None,
        help="FaultPlan JSON whose corruption storms poison the media; "
        "omitted means a clean sweep",
    )
    scrub.add_argument(
        "--at-time", type=float, default=None, metavar="SECONDS",
        help="simulated time of the sweep (default: just after the last "
        "corruption storm in the plan)",
    )

    faults = sub.add_parser(
        "faults", help="fault-plan tooling (validate)"
    )
    faults_sub = faults.add_subparsers(dest="faults_command", required=True)
    validate = faults_sub.add_parser(
        "validate",
        help="parse a FaultPlan JSON and cross-check its event windows",
    )
    validate.add_argument("plan", help="path to the FaultPlan JSON file")
    validate.add_argument(
        "--iterations", type=int, default=None, metavar="N",
        help="planned run length; crash events beyond it are flagged",
    )
    validate.add_argument(
        "--fleet-size", type=int, default=None, metavar="N",
        help="planned fleet width; worker events targeting gpu:<k> with "
        "k >= N are flagged",
    )
    validate.add_argument(
        "--num-ssds", type=int, default=None, metavar="N",
        help="planned SSD-array width; device events targeting device "
        "k >= N are flagged, as is a plan that drops every device with "
        "no recovery (a full-array wipe nothing can serve through)",
    )

    storage = sub.add_parser(
        "storage",
        help="storage-HA drill: device health and rebuild report",
    )
    storage.add_argument("--dataset", default="IGB-tiny")
    storage.add_argument("--scale", type=float, default=0.05,
                         help="dataset shrink factor (default: 0.05)")
    storage.add_argument("--ssd", choices=sorted(_SSDS), default="optane")
    storage.add_argument("--num-ssds", type=int, default=4)
    storage.add_argument(
        "--fault-plan", metavar="JSON_PATH", default=None,
        help="FaultPlan JSON whose device events (dropout / recovery / "
        "fail_slow) drive the health state machine",
    )
    storage.add_argument(
        "--duration", type=float, default=1.0, metavar="SECONDS",
        help="simulated observation window (default: 1.0 s)",
    )
    storage.add_argument(
        "--steps", type=int, default=50, metavar="N",
        help="health observations across the window (default: 50)",
    )
    _add_ha_args(storage)
    storage.add_argument("--format", choices=["table", "json"],
                         default="table")

    trace = sub.add_parser(
        "trace", help="render a saved Chrome trace as an ASCII timeline"
    )
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

    top = sub.add_parser(
        "top",
        help="terminal view of a live metric-snapshot stream (--stream)",
    )
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

    profile = sub.add_parser(
        "profile",
        help="self-profile the simulator: wall-clock overhead vs modeled "
        "time per subsystem",
    )
    profile.add_argument(
        "--experiment",
        choices=sorted(_EXPERIMENTS),
        default="fig13",
        help="bench experiment to profile (default: fig13, the e2e "
        "980 Pro comparison)",
    )
    profile.add_argument(
        "--json",
        action="store_true",
        help="print the profile document as JSON instead of the table",
    )
    profile.add_argument(
        "-o", "--output", metavar="JSON_PATH", default=None,
        help="also write the profile document to this file (e.g. "
        "BENCH_sim_overhead.json)",
    )

    ssd = sub.add_parser("ssd-model", help="Eq. 2-3 bandwidth model")
    ssd.add_argument("--ssd", choices=sorted(_SSDS), default="optane")
    ssd.add_argument("--num-ssds", type=int, default=1)
    ssd.add_argument("--target", type=float, default=0.95)
    ssd.add_argument(
        "--json",
        action="store_true",
        help="print the model points as JSON instead of a table",
    )

    analyze = sub.add_parser(
        "analyze",
        help="bottleneck attribution for a saved report JSON",
    )
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

    compare = sub.add_parser(
        "compare",
        help="regression gate: compare reports or a report vs the history",
    )
    compare.add_argument(
        "reports",
        nargs="+",
        metavar="REPORT",
        help="BASELINE CANDIDATE report JSONs, or just CANDIDATE with "
        "--history",
    )
    compare.add_argument(
        "--history",
        metavar="DIR",
        default=None,
        help="compare against the noise band of same-fingerprint records "
        "in this run-history directory instead of a baseline file",
    )
    compare.add_argument(
        "--threshold",
        type=float,
        default=0.05,
        metavar="FRACTION",
        help="relative tolerance before a delta counts (default: 0.05)",
    )
    compare.add_argument(
        "--sigma",
        type=float,
        default=3.0,
        metavar="N",
        help="history noise-band width in standard deviations "
        "(default: 3.0)",
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

    history = sub.add_parser(
        "history", help="record and inspect the local run history"
    )
    history_sub = history.add_subparsers(
        dest="history_command", required=True
    )
    record = history_sub.add_parser(
        "record", help="append a report summary to the run history"
    )
    record.add_argument("report", help="report JSON from run --format json")
    record.add_argument(
        "--dir",
        default=".repro-history",
        metavar="DIR",
        help="history directory (default: .repro-history)",
    )
    record.add_argument(
        "--label",
        default=None,
        help="workload label folded into the config fingerprint",
    )
    record.add_argument(
        "--loader",
        default=None,
        help="pick one report out of a multi-loader export",
    )
    hist_list = history_sub.add_parser(
        "list", help="list recorded fingerprints or one trend"
    )
    hist_list.add_argument(
        "--dir",
        default=".repro-history",
        metavar="DIR",
        help="history directory (default: .repro-history)",
    )
    hist_list.add_argument(
        "--fingerprint",
        default=None,
        help="show the individual records of one config fingerprint",
    )
    hist_list.add_argument(
        "--json",
        action="store_true",
        help="print records as JSON",
    )
    return parser


def _cmd_datasets() -> int:
    from .graph.datasets import DATASETS

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


def _make_supervisor(args: argparse.Namespace, pipeline_factory):
    """Build the run supervisor behind the ``--checkpoint-*`` flags.

    Without ``--resume``, snapshots left over from a previous invocation
    are cleared so the run starts from iteration 0 (in-run crash recovery
    still resumes from the snapshots this run writes).
    """
    from .checkpoint import CheckpointStore, RunSupervisor, SupervisorConfig

    config = SupervisorConfig(checkpoint_every=args.checkpoint_every)
    store = CheckpointStore(
        args.checkpoint_dir, keep=config.keep_snapshots
    )
    if not args.resume:
        stale = store.iterations()
        if stale:
            print(
                f"note: clearing {len(stale)} old snapshot(s) from "
                f"{args.checkpoint_dir} (pass --resume to continue them)",
                file=sys.stderr,
            )
            import os

            for iteration in stale:
                os.unlink(store.path_for(iteration))
    return RunSupervisor(
        pipeline_factory,
        store,
        config=config,
        blackbox_path=getattr(args, "blackbox", None),
    )


def _cmd_run(args: argparse.Namespace) -> int:
    from .baselines.ginex import GinexLoader
    from .baselines.mmap_loader import DGLMmapLoader
    from .bench.workloads import get_workload
    from .core.bam import BaMDataLoader
    from .core.gids import GIDSDataLoader
    from .pipeline.export import report_to_json, reports_to_comparison_csv

    workload = get_workload(args.dataset, scale=args.scale)
    system = workload.system(_SSDS[args.ssd], num_ssds=args.num_ssds)
    config = workload.loader_config()
    common = dict(
        batch_size=workload.batch_size, fanouts=workload.fanouts, seed=1
    )
    fault_plan = None
    if args.fault_plan is not None:
        fault_plan = _load_fault_plan(args.fault_plan)
    ha = _ha_kwargs(args)
    ha_on = (
        ha["replication"] > 1 or ha["parity"] or ha["rebuild_iops"] > 0
    )
    if ha_on and args.loader not in ("gids", "bam", "all"):
        print(
            "error: --replication/--parity/--rebuild-iops require the "
            "gids or bam loader",
            file=sys.stderr,
        )
        return 2
    alert_rules = None
    if args.alerts is not None:
        alert_rules = _load_alert_rules(args.alerts)

    if _wants_telemetry(args) and args.loader not in ("gids", "bam"):
        print(
            "error: --trace/--stream/--prom/--blackbox require --loader "
            "gids or bam (the baseline loaders are not instrumented)",
            file=sys.stderr,
        )
        return 2
    tracer = _make_tracer(args)
    flight = _make_flight(args, tracer)
    snapshotter = _make_snapshotter(args, tracer, "run", flight=flight)

    if args.checkpoint_dir is not None:
        return _cmd_run_supervised(
            args, workload, system, config, common, fault_plan, tracer,
            alert_rules, flight=flight, snapshotter=snapshotter,
        )

    heterogeneous = workload.dataset.hetero is not None
    selected = (
        ["gids", "bam", "ginex", "mmap"]
        if args.loader == "all"
        else [args.loader]
    )
    integrity = dict(
        verify_reads=args.verify_reads, scrub_iops=args.scrub_iops
    )
    reports = []
    ha_blocks: list = []
    for kind in selected:
        if kind == "gids":
            loader = GIDSDataLoader(
                workload.dataset, system, config,
                hot_nodes=workload.hot_nodes, fault_plan=fault_plan,
                tracer=tracer, **integrity, **ha, **common,
            )
            loader.snapshotter = snapshotter
            reports.append(loader.run(args.iterations, warmup=10))
            ha_blocks.append(
                loader.storage_ha.summary_block()
                if loader.storage_ha is not None
                else None
            )
        elif kind == "bam":
            loader = BaMDataLoader(
                workload.dataset, system, config, fault_plan=fault_plan,
                tracer=tracer, **integrity, **ha, **common,
            )
            loader.snapshotter = snapshotter
            reports.append(loader.run(args.iterations, warmup=10))
            ha_blocks.append(
                loader.storage_ha.summary_block()
                if loader.storage_ha is not None
                else None
            )
        elif kind == "ginex":
            if heterogeneous:
                print(
                    "note: Ginex supports only homogeneous graphs; skipped",
                    file=sys.stderr,
                )
                continue
            loader = GinexLoader(
                workload.dataset, system, fault_plan=fault_plan,
                verify_reads=args.verify_reads, **common,
            )
            reports.append(loader.run(args.iterations, warmup=150))
            ha_blocks.append(None)
        else:
            if fault_plan is not None:
                print(
                    "note: the mmap loader has no fault-injection path; "
                    "running it healthy",
                    file=sys.stderr,
                )
            loader = DGLMmapLoader(workload.dataset, system, **common)
            reports.append(loader.run(args.iterations, warmup=150))
            ha_blocks.append(None)

    if not reports:
        print("no loader could run on this workload", file=sys.stderr)
        return 1
    alerts_blocks: list = [None] * len(reports)
    if alert_rules is not None:
        from .observatory import SLOMonitor

        # Evaluate before writing the trace so fired instants land in it.
        monitor = SLOMonitor(alert_rules, tracer=tracer)
        alerts_blocks = [monitor.evaluate(r) for r in reports]
        for report, block in zip(reports, alerts_blocks):
            _print_alerts(report.loader_name, block)
    _finish_snapshots(snapshotter, tracer)
    if tracer is not None and alerts_blocks and flight is not None:
        _breach_blackbox(args, flight, alerts_blocks[0], tracer.clock_s)
    if tracer is not None and args.trace is not None:
        _write_trace(tracer, args.trace)
    if args.format == "json":
        from .pipeline.export import observability_block

        # --trace implies a single traced loader, so the tracer (when
        # present) belongs to the one report in the list.
        obs = observability_block(
            tracer=tracer, snapshotter=snapshotter, flight=flight
        )
        print(
            "["
            + ",\n".join(
                report_to_json(
                    r, tracer=tracer, system=system, alerts=block,
                    storage_ha=ha_block, observability=obs,
                )
                for r, block, ha_block in zip(
                    reports, alerts_blocks, ha_blocks
                )
            )
            + "]"
        )
    elif args.format == "csv":
        print(reports_to_comparison_csv(reports), end="")
    else:
        slowest = max(r.e2e_time for r in reports)
        rows = [
            [
                r.loader_name,
                f"{r.e2e_time * 1e3:.2f}",
                f"{r.time_per_iteration() * 1e3:.3f}",
                f"{slowest / r.e2e_time:.1f}x",
            ]
            for r in reports
        ]
        print(
            render_table(
                ["loader", f"E2E ms ({args.iterations} iters)", "ms/iter",
                 "speedup vs slowest"],
                rows,
                title=f"{args.dataset} on {_SSDS[args.ssd].name} "
                f"x{args.num_ssds}",
            )
        )
    return 0


def _cmd_run_supervised(
    args, workload, system, config, common, fault_plan, tracer=None,
    alert_rules=None, flight=None, snapshotter=None,
) -> int:
    """``run --checkpoint-dir``: crash-safe supervised functional training.

    Snapshot/resume requires the stateful GIDS-family loaders; the run
    report covers every trained iteration (no warmup split) and the JSON
    export carries the ``checkpoint_summary`` block.  The tracer (if any)
    is created once out here and re-attached on every restart attempt:
    restoring a snapshot restores the trace recorded up to it, so a
    killed-and-resumed run still emits one seamless trace.
    """
    from .core.bam import BaMDataLoader
    from .core.gids import GIDSDataLoader
    from .pipeline.export import report_to_json
    from .pipeline.runner import TrainingPipeline
    from .training.graphsage import GraphSAGE

    loader_cls = {"gids": GIDSDataLoader, "bam": BaMDataLoader}.get(
        args.loader
    )
    if loader_cls is None:
        print(
            "error: --checkpoint-dir requires --loader gids or bam "
            "(the baseline loaders cannot be checkpointed mid-run)",
            file=sys.stderr,
        )
        return 2

    def pipeline_factory() -> TrainingPipeline:
        kwargs = dict(common)
        if loader_cls is GIDSDataLoader:
            kwargs["hot_nodes"] = workload.hot_nodes
        loader = loader_cls(
            workload.dataset, system, config,
            fault_plan=fault_plan, tracer=tracer,
            verify_reads=args.verify_reads, scrub_iops=args.scrub_iops,
            **_ha_kwargs(args), **kwargs,
        )
        loader.snapshotter = snapshotter
        model = GraphSAGE(
            workload.dataset.feature_dim, 32, 8, num_layers=len(
                workload.fanouts
            ), seed=0,
        )
        return TrainingPipeline(loader, model, num_classes=8)

    supervisor = _make_supervisor(args, pipeline_factory)
    outcome = supervisor.run(args.iterations)
    summary = outcome.summary
    alerts_block = None
    if alert_rules is not None:
        from .observatory import SLOMonitor

        monitor = SLOMonitor(alert_rules, tracer=tracer)
        alerts_block = monitor.evaluate(outcome.report)
        _print_alerts(outcome.report.loader_name, alerts_block)
    _finish_snapshots(snapshotter, tracer)
    if tracer is not None:
        _breach_blackbox(args, flight, alerts_block, tracer.clock_s)
    if tracer is not None and args.trace is not None:
        _write_trace(tracer, args.trace)

    if args.format == "json":
        from .pipeline.export import observability_block

        print(
            report_to_json(
                outcome.report, checkpoint_summary=summary, tracer=tracer,
                system=system, alerts=alerts_block,
                observability=observability_block(
                    tracer=tracer, snapshotter=snapshotter, flight=flight
                ),
            )
        )
    else:
        report = outcome.report
        rows = [
            ["completed iterations", outcome.result.completed_iterations],
            ["final loss", f"{outcome.result.losses[-1]:.4f}"],
            ["E2E modeled ms", f"{report.e2e_time * 1e3:.2f}"],
            ["snapshots written", summary.snapshots_written],
            ["snapshot bytes", summary.snapshot_bytes],
            ["restores", summary.restores],
            ["corrupted skipped", summary.corrupted_skipped],
            ["crashes survived", summary.crashes],
            ["restarts", summary.restarts],
        ]
        print(
            render_table(
                ["metric", "value"],
                rows,
                title=f"supervised {report.loader_name} run on "
                f"{args.dataset}",
            )
        )
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from .bench import experiments

    fn = getattr(experiments, _EXPERIMENTS[args.name])
    print(fn().render())
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from .config import LoaderConfig, SystemConfig
    from .core.gids import GIDSDataLoader
    from .graph.datasets import load_scaled
    from .pipeline.runner import TrainingPipeline
    from .training.graphsage import GraphSAGE

    dataset = load_scaled(args.dataset, args.scale, seed=0)
    system = SystemConfig(
        cpu_memory_limit_bytes=dataset.total_bytes * 0.5
    )
    config = LoaderConfig(
        gpu_cache_bytes=dataset.feature_data_bytes * 0.02,
        cpu_buffer_fraction=0.10,
        window_depth=4,
    )
    fault_plan = None
    if args.fault_plan is not None:
        fault_plan = _load_fault_plan(args.fault_plan)
    alert_rules = None
    if args.alerts is not None:
        alert_rules = _load_alert_rules(args.alerts)
    tracer = _make_tracer(args)
    flight = _make_flight(args, tracer)
    snapshotter = _make_snapshotter(args, tracer, "train", flight=flight)

    def pipeline_factory() -> TrainingPipeline:
        loader = GIDSDataLoader(
            dataset, system, config, batch_size=args.batch_size,
            fanouts=(5, 5), seed=1, fault_plan=fault_plan, tracer=tracer,
            verify_reads=args.verify_reads, scrub_iops=args.scrub_iops,
            **_ha_kwargs(args),
        )
        loader.snapshotter = snapshotter
        model = GraphSAGE(
            dataset.feature_dim, args.hidden_dim, args.classes,
            num_layers=2, lr=0.05, seed=0,
        )
        return TrainingPipeline(loader, model, num_classes=args.classes)

    if args.checkpoint_dir is not None:
        supervisor = _make_supervisor(args, pipeline_factory)
        outcome = supervisor.run(args.iterations)
        result = outcome.result
        summary = outcome.summary
        report = outcome.report
    else:
        pipeline = pipeline_factory()
        result = pipeline.train(args.iterations)
        summary = None
        report = pipeline.report
    if alert_rules is not None:
        from .observatory import SLOMonitor

        monitor = SLOMonitor(alert_rules, tracer=tracer)
        alerts_block = monitor.evaluate(report)
        _print_alerts(report.loader_name, alerts_block)
        if tracer is not None:
            _breach_blackbox(args, flight, alerts_block, tracer.clock_s)
    _finish_snapshots(snapshotter, tracer)
    if tracer is not None and args.trace is not None:
        _write_trace(tracer, args.trace)
    first = sum(result.losses[:5]) / 5
    last = sum(result.losses[-5:]) / 5
    print(f"trained {result.num_steps} steps: loss {first:.4f} -> {last:.4f}")
    print(f"final training accuracy: {result.final_train_accuracy:.1%}")
    integ = report.integrity_summary()
    if any(v for k, v in integ.items() if k != "consistent"):
        print(
            f"integrity: {integ['verified_pages']} verified, "
            f"{integ['corrupt_detected']} detected, "
            f"{integ['corrupt_repaired']} repaired, "
            f"{integ['corrupt_quarantined']} quarantined, "
            f"{integ['unverified_pages']} unverified "
            f"(consistent={integ['consistent']})"
        )
    if summary is not None:
        print(
            f"checkpointing: {summary.snapshots_written} snapshot(s), "
            f"{summary.restores} restore(s), {summary.crashes} crash(es) "
            f"survived, {summary.corrupted_skipped} corrupted skipped"
        )
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    """``fleet``: an elastic multi-GPU epoch (or the chaos sweep)."""
    import json

    from .bench.workloads import get_workload
    from .core.fleet import (
        ElasticFleetTrainer,
        FleetConfig,
        check_invariants,
        run_chaos_suite,
    )
    from .errors import ReproError
    from .pipeline.export import report_to_dict

    workload = get_workload(args.dataset, scale=args.scale)
    system = workload.system(_SSDS[args.ssd], num_ssds=args.num_ssds)
    dataset = workload.dataset

    fault_plan = None
    if args.fault_plan is not None:
        fault_plan = _load_fault_plan(args.fault_plan)
    tracer = _make_tracer(args)
    flight = _make_flight(args, tracer)
    snapshotter = _make_snapshotter(args, tracer, "fleet", flight=flight)

    if args.chaos:
        if fault_plan is not None:
            print(
                "note: --chaos sweeps its own fault plans; --fault-plan "
                "is ignored",
                file=sys.stderr,
            )
        try:
            suite = run_chaos_suite(
                dataset, system, num_gpus=args.gpus, seed=args.seed
            )
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.output is not None:
            with open(args.output, "w", encoding="utf-8") as fh:
                json.dump(suite, fh, indent=2, sort_keys=True)
        if args.format == "json":
            print(json.dumps(suite, indent=2, sort_keys=True))
        else:
            rows = [
                [
                    name,
                    "pass" if r["passed"] else "FAIL",
                    r["global_steps"],
                    r["rebalance_events"],
                    r["steal_events"],
                    f"{r['peer_cache_hit_ratio']:.1%}",
                    "; ".join(r["violations"]) or "-",
                ]
                for name, r in suite["scenarios"].items()
            ]
            print(
                render_table(
                    ["scenario", "verdict", "steps", "rebalances",
                     "steals", "peer hits", "violations"],
                    rows,
                    title=f"chaos sweep: {args.gpus}-GPU fleet on "
                    f"{args.dataset}",
                )
            )
        if not suite["passed"]:
            print("error: chaos invariants violated", file=sys.stderr)
            return 1
        return 0

    try:
        fleet_config = FleetConfig(
            num_gpus=args.gpus,
            batch_size=args.batch_size,
            shard_mode=args.shard_mode,
            peer_cache=not args.no_peer_cache,
        )
        trainer = ElasticFleetTrainer(
            dataset,
            system,
            fleet_config,
            seed=args.seed,
            fault_plan=fault_plan,
            fanouts=workload.fanouts,
            tracer=tracer,
            **_ha_kwargs(args),
        )
        trainer.snapshotter = snapshotter
        result = trainer.run_epoch()
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    violations = check_invariants(dataset, result)
    _finish_snapshots(snapshotter, tracer)
    if violations and flight is not None:
        flight.dump(
            args.blackbox,
            trigger=f"invariant violation: {'; '.join(violations)}",
            at_s=trainer.clock_s,
            context={"violations": list(violations)},
        )
        print(
            f"wrote flight-recorder dump to {args.blackbox}",
            file=sys.stderr,
        )
    if tracer is not None and args.trace is not None:
        _write_trace(tracer, args.trace)
    from .pipeline.export import observability_block

    summary = report_to_dict(
        result.report, system=system, fleet=result.fleet_block(),
        tracer=tracer,
        storage_ha=(
            trainer.storage_ha.summary_block()
            if trainer.storage_ha is not None
            else None
        ),
        observability=observability_block(
            tracer=tracer, snapshotter=snapshotter, flight=flight
        ),
    )
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True, allow_nan=False)
    if args.format == "json":
        print(json.dumps(summary, indent=2, sort_keys=True, allow_nan=False))
    else:
        rows = [
            [
                f"gpu:{w['worker']}",
                "up" if w["active"] else "down",
                w["iterations"],
                w["seeds_trained"],
                w["cache_hit_pages"],
                w["peer_hit_pages"],
                w["ssd_pages"],
                w["stolen_in"] - w["stolen_out"],
            ]
            for w in result.worker_stats
        ]
        print(
            render_table(
                ["worker", "state", "steps", "seeds", "local hits",
                 "peer hits", "ssd pages", "net stolen"],
                rows,
                title=f"{args.gpus}-GPU fleet on {args.dataset} "
                f"({_SSDS[args.ssd].name} x{args.num_ssds})",
            )
        )
        print(
            f"epoch: {len(result.schedule)} global steps, "
            f"{result.epoch_time_s * 1e3:.2f} modeled ms, final loss "
            f"{result.final_loss:.4f}, peer-cache hit ratio "
            f"{result.peer_cache_hit_ratio:.1%}"
        )
        if result.rebalance_events:
            print(f"rebalances: {len(result.rebalance_events)}")
        if result.steal_events:
            print(f"steals: {len(result.steal_events)}")
    for violation in violations:
        print(f"error: invariant violated: {violation}", file=sys.stderr)
    return 1 if violations else 0


def _cmd_fullgraph(args: argparse.Namespace) -> int:
    """``fullgraph``: sweep epochs over partitions with modeled offload."""
    import json

    from .bench.workloads import get_workload
    from .checkpoint import CheckpointStore
    from .errors import ReproError
    from .fullgraph import FullGraphConfig, FullGraphTrainer
    from .pipeline.export import report_to_dict
    from .utils import format_time

    workload = get_workload(args.dataset, scale=args.scale)
    system = workload.system(_SSDS[args.ssd], num_ssds=args.num_ssds)
    dataset = workload.dataset

    fault_injector = None
    if args.fault_plan is not None:
        from .faults import FaultInjector

        fault_injector = FaultInjector(_load_fault_plan(args.fault_plan))
    verifier = None
    if args.verify_reads != "off":
        from .integrity import CorruptionLedger, ReadVerifier

        verifier = ReadVerifier(
            CorruptionLedger(num_devices=args.num_ssds),
            mode=args.verify_reads,
        )

    tracer = _make_tracer(args)
    flight = _make_flight(args, tracer)
    snapshotter = _make_snapshotter(args, tracer, "fullgraph", flight=flight)
    trainer = None
    try:
        config = FullGraphConfig(
            hidden_dim=args.hidden_dim,
            num_classes=args.classes,
            num_layers=args.layers,
            aggregator=args.aggregator,
            hbm_budget_bytes=(
                None if args.hbm_mb is None else args.hbm_mb * 2**20
            ),
            num_partitions=args.partitions,
            io_overlap=not args.no_overlap,
            **_ha_kwargs(args),
        )
        trainer = FullGraphTrainer(
            dataset,
            system,
            config,
            tracer=tracer,
            fault_injector=fault_injector,
            verifier=verifier,
        )
        trainer.snapshotter = snapshotter

        store = None
        if args.checkpoint_dir is not None:
            store = CheckpointStore(args.checkpoint_dir)
            if args.resume:
                loaded = store.load_latest()
                if loaded is not None:
                    trainer.load_state_dict(loaded.payload["trainer"])
                    if tracer is not None and "tracer" in loaded.payload:
                        tracer.load_state_dict(loaded.payload["tracer"])
                    print(
                        f"resumed from step {loaded.iteration} "
                        f"({loaded.path})",
                        file=sys.stderr,
                    )
            else:
                stale = store.iterations()
                if stale:
                    import os

                    print(
                        f"note: clearing {len(stale)} old snapshot(s) "
                        f"from {args.checkpoint_dir} (pass --resume to "
                        "continue them)",
                        file=sys.stderr,
                    )
                    for iteration in stale:
                        os.unlink(store.path_for(iteration))

        total_steps = args.epochs * trainer.steps_per_epoch
        done = (
            trainer.epochs_completed * trainer.steps_per_epoch
            + trainer.step_index
        )
        budget = max(0, total_steps - done)
        if args.steps is not None:
            budget = min(budget, args.steps)
        every = max(1, args.checkpoint_every)
        ran = 0
        while ran < budget:
            if args.target_acc is not None and (
                trainer.accuracies
                and trainer.accuracies[-1] >= args.target_acc
            ):
                break
            chunk = min(every, budget - ran) if store else budget - ran
            trainer.run_steps(chunk)
            ran += chunk
            if store is not None:
                payload = {"trainer": trainer.state_dict()}
                if tracer is not None:
                    payload["tracer"] = tracer.state_dict()
                store.save(done + ran, payload)
        result = trainer.result(target_accuracy=args.target_acc)
    except ReproError as exc:
        from .errors import FaultError

        if isinstance(exc, FaultError) and flight is not None:
            now = trainer.clock_s if trainer is not None else 0.0
            flight.note(
                "crash", type(exc).__name__, "alerts", now,
                detail={"message": str(exc)},
            )
            flight.dump(
                args.blackbox,
                trigger=f"{type(exc).__name__}: {exc}",
                at_s=now,
            )
            print(
                f"wrote flight-recorder dump to {args.blackbox}",
                file=sys.stderr,
            )
        print(f"error: {exc}", file=sys.stderr)
        return 2

    from .pipeline.export import observability_block

    _finish_snapshots(snapshotter, tracer)
    summary = report_to_dict(
        result.report,
        tracer=tracer,
        system=system,
        fullgraph=result.block,
        observability=observability_block(
            tracer=tracer, snapshotter=snapshotter, flight=flight
        ),
    )
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True, allow_nan=False)
    if tracer is not None and args.trace is not None:
        _write_trace(tracer, args.trace)
    if args.format == "json":
        print(json.dumps(summary, indent=2, sort_keys=True, allow_nan=False))
        return 0

    block = result.block
    plan = block["plan"]
    rows = [
        [
            epoch + 1,
            f"{loss:.4f}",
            f"{acc:.1%}",
            format_time(end_s),
        ]
        for epoch, (loss, acc, end_s) in enumerate(
            zip(result.losses, result.accuracies, result.epoch_end_times_s)
        )
    ]
    print(
        render_table(
            ["epoch", "loss", "eval acc", "modeled time"],
            rows,
            title=f"full-graph sweep on {args.dataset} "
            f"({_SSDS[args.ssd].name} x{args.num_ssds}, "
            f"{block['num_partitions']} partitions)",
        )
    )
    residency = (
        "resident in HBM"
        if block["activations_resident"]
        else "spilled to SSD"
    )
    traffic = block["traffic"]
    print(
        f"plan: {block['num_partitions']} partitions, workspace "
        f"{plan['workspace_bytes'] / 2**20:.1f} MiB of "
        f"{plan['hbm_budget_bytes'] / 2**20:.1f} MiB HBM, activations "
        f"{residency}"
    )
    print(
        f"traffic: {traffic['feature_sequential_bytes'] / 2**20:.1f} MiB "
        f"features streamed, {traffic['activation_spill_bytes'] / 2**20:.1f}"
        f" MiB spilled, {traffic['spill_pages']} spill pages"
    )
    if trainer.step_index:
        print(
            f"stopped mid-epoch at step {trainer.step_index} of "
            f"{trainer.steps_per_epoch} (resume with --checkpoint-dir "
            "--resume)"
        )
    if result.target_accuracy is not None:
        if result.time_to_target_s is not None:
            print(
                f"reached {result.target_accuracy:.0%} accuracy at modeled "
                f"{format_time(result.time_to_target_s)}"
            )
        else:
            print(
                f"did not reach {result.target_accuracy:.0%} accuracy in "
                f"{result.epochs_completed} epochs"
            )
    what_if = block["what_if_2x_hbm"]
    if what_if.get("speedup") and what_if["speedup"] > 1.0:
        print(
            f"what-if 2x HBM: activations become resident, predicted "
            f"{what_if['speedup']:.2f}x faster epoch"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """``serve``: an overload-protected online inference run."""
    import json

    from .bench.workloads import get_workload
    from .errors import ConfigError
    from .serving import PRIORITIES, ArrivalConfig, InferenceServer, ServingConfig
    from .utils import format_rate, format_time

    try:
        mix = tuple(float(p) for p in args.priority_mix.split(","))
        arrival = ArrivalConfig(
            shape=args.shape,
            rate=args.rate,
            seed=args.seed,
            priority_mix=mix,
            deadline_s=args.deadline_ms / 1e3,
        )
        serving = ServingConfig(
            protection=not args.no_protection,
            slo_p99_s=args.slo_p99_ms / 1e3,
        )
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.requests <= 0:
        print("error: --requests must be positive", file=sys.stderr)
        return 2

    fault_plan = None
    if args.fault_plan is not None:
        fault_plan = _load_fault_plan(args.fault_plan)
    alert_rules = None
    if args.alerts is not None:
        alert_rules = _load_alert_rules(args.alerts)
    tracer = _make_tracer(args)
    flight = _make_flight(args, tracer)
    snapshotter = _make_snapshotter(args, tracer, "serve", flight=flight)

    workload = get_workload(args.dataset, scale=args.scale)
    system = workload.system(_SSDS[args.ssd], num_ssds=args.num_ssds)
    server = InferenceServer(
        workload.dataset,
        system,
        workload.loader_config(),
        arrival=arrival,
        serving=serving,
        fanouts=workload.fanouts,
        hot_nodes=workload.hot_nodes,
        seed=1,
        fault_plan=fault_plan,
        tracer=tracer,
        **_ha_kwargs(args),
    )
    server.snapshotter = snapshotter
    server.serve(args.requests)
    server.drain()
    report = server.report()
    _finish_snapshots(snapshotter, tracer)

    alerts_block = None
    if alert_rules is not None:
        from .observatory import SLOMonitor

        # Serving has no RunReport: rules are evaluated against the
        # metrics registry (report-scoped rules are listed as missing).
        monitor = SLOMonitor(alert_rules, tracer=tracer)
        alerts_block = monitor.evaluate(None, server.registry)
        _print_alerts(server.name, alerts_block)
        if tracer is not None:
            _breach_blackbox(args, flight, alerts_block, tracer.clock_s)
    from .pipeline.export import observability_block

    summary = report.export_dict(
        tracer=tracer, system=system, alerts=alerts_block,
        storage_ha=(
            server.storage_ha.summary_block()
            if server.storage_ha is not None
            else None
        ),
        observability=observability_block(
            tracer=tracer, snapshotter=snapshotter, flight=flight
        ),
    )
    if tracer is not None and args.trace is not None:
        _write_trace(tracer, args.trace)
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2)
        print(f"wrote serving export to {args.output}", file=sys.stderr)

    if args.format == "json":
        print(json.dumps(summary, indent=2))
        return 0

    stats = report.stats
    rows = [
        [
            PRIORITIES[tier],
            stats.offered[tier],
            stats.admitted[tier],
            stats.shed[tier],
            stats.rejected[tier],
            stats.completed[tier],
            stats.deadline_met[tier],
            stats.deadline_missed[tier],
        ]
        for tier in range(len(PRIORITIES))
    ]
    protection = "on" if report.protection else "OFF"
    print(
        render_table(
            ["priority", "offered", "admitted", "shed", "rejected",
             "completed", "met", "missed"],
            rows,
            title=f"{args.dataset} serving: {args.shape} @ "
            f"{format_rate(args.rate)}, protection {protection}",
        )
    )
    p50, p99 = report.latency_percentile(50), report.latency_percentile(99)
    if p99 is not None:
        within = "within" if p99 <= report.slo_p99_s else "VIOLATES"
        print(
            f"latency: p50 {format_time(p50)}, p99 {format_time(p99)} "
            f"({within} the {format_time(report.slo_p99_s)} SLO)"
        )
    print(
        f"goodput {format_rate(report.goodput_req_s)} of "
        f"{format_rate(report.capacity_req_s)} capacity; "
        f"shed {stats.shed_fraction:.1%}, degraded "
        f"{report.degraded_fraction:.1%} "
        f"({report.stale_requests} stale)"
    )
    if report.hedge["issued"]:
        print(
            f"hedged reads: {report.hedge['issued']} issued, "
            f"{report.hedge['won']} won"
        )
    if report.breaker_transitions:
        opens = sum(
            1 for t in report.breaker_transitions if t["to"] == "open"
        )
        print(
            f"breakers: {len(report.breaker_transitions)} transition(s), "
            f"{opens} open event(s), {report.breaker_open_count} "
            "currently not closed"
        )
    for t in report.brownout_transitions:
        print(
            f"brownout: {t['from_level']} -> {t['to_level']} at "
            f"{t['at_s']:.3f}s"
        )
    return 0


def _cmd_scrub(args: argparse.Namespace) -> int:
    """``scrub``: one offline integrity sweep over a workload's pages."""
    from .faults.injector import FaultInjector
    from .graph.datasets import load_scaled
    from .integrity import CorruptionLedger, PageChecksummer, Scrubber
    from .storage.feature_store import FeatureStore

    if args.scrub_iops <= 0:
        print("error: --scrub-iops must be positive", file=sys.stderr)
        return 2
    fault_plan = None
    if args.fault_plan is not None:
        fault_plan = _load_fault_plan(args.fault_plan)

    dataset = load_scaled(args.dataset, args.scale, seed=0)
    store = FeatureStore(dataset.num_nodes, dataset.feature_dim)
    total_pages = store.layout.total_pages
    injector = None
    if fault_plan is not None and not fault_plan.is_null():
        injector = FaultInjector(fault_plan)

    at_time = args.at_time
    if at_time is None:
        # Default: sweep just after every storm in the plan has landed, so
        # the scan observes the poisoned steady state.
        storms = () if fault_plan is None else fault_plan.corruption_events
        at_time = max((e.at_time_s for e in storms), default=0.0) + 1e-9

    ledger = CorruptionLedger(num_devices=args.num_ssds)
    scrubber = Scrubber(
        total_pages=total_pages,
        iops_budget=args.scrub_iops,
        ledger=ledger,
        injector=injector,
        num_devices=args.num_ssds,
        checksummer=PageChecksummer(store),
    )
    # Grant exactly one full pass worth of budget (+1 page of slack so
    # float truncation cannot round the last page away).
    outcome = scrubber.sweep((total_pages + 1) / args.scrub_iops, at_time)

    rows = [
        [r["device"], r["detected"], r["repaired"], r["unrepairable"]]
        for r in ledger.per_device_summary()
    ]
    print(
        render_table(
            ["device", "detected", "repaired", "unrepairable"],
            rows,
            title=f"scrub of {args.dataset} ({total_pages} pages, "
            f"t={at_time:.3f}s)",
        )
    )
    sweep_s = total_pages / args.scrub_iops
    print(
        f"scanned {outcome.pages_scanned} pages in {sweep_s:.3f} modeled "
        f"seconds ({args.scrub_iops:.0f} IOPS): {outcome.detected} "
        f"corrupt, {outcome.repaired} repaired, {outcome.released} "
        f"released from quarantine"
    )
    return 0


def _cmd_faults_validate(args: argparse.Namespace) -> int:
    """``faults validate``: parse a plan and cross-check its events."""
    plan = _load_fault_plan(args.plan)  # exits 2 on a malformed plan

    problems: list[str] = []
    if args.iterations is not None:
        for event in plan.crash_events:
            if event.at_iteration > args.iterations:
                problems.append(
                    f"crash event at iteration {event.at_iteration} never "
                    f"fires in a {args.iterations}-iteration run"
                )
    if args.fleet_size is not None:
        if args.fleet_size <= 0:
            print("error: --fleet-size must be positive", file=sys.stderr)
            return 2
        for event in plan.worker_events:
            if event.worker >= args.fleet_size:
                problems.append(
                    f"{event.kind} event targets {event.target} but a "
                    f"{args.fleet_size}-GPU fleet only has workers "
                    f"gpu:0..gpu:{args.fleet_size - 1}"
                )
        # A dropout with no later recovery strands the shard only if it
        # empties the whole fleet; flag the unrecoverable full wipe.
        dropped: set[int] = set()
        wiped = False
        for event in sorted(
            plan.worker_events, key=lambda e: (e.at_time_s, e.worker)
        ):
            if event.kind == "dropout":
                dropped.add(event.worker)
            elif event.kind == "recovery":
                dropped.discard(event.worker)
            if len(dropped) >= args.fleet_size:
                wiped = True
        if wiped and dropped and len(dropped) >= args.fleet_size:
            problems.append(
                f"the plan drops all {args.fleet_size} workers with no "
                "recovery: the fleet would stall with batches unassigned"
            )
    if args.num_ssds is not None:
        if args.num_ssds <= 0:
            print("error: --num-ssds must be positive", file=sys.stderr)
            return 2
        for event in plan.device_events:
            if event.device >= args.num_ssds:
                problems.append(
                    f"{event.kind} event targets device {event.device} "
                    f"but a {args.num_ssds}-SSD array only has devices "
                    f"0..{args.num_ssds - 1}"
                )
        for event in plan.corruption_events:
            if event.device >= args.num_ssds:
                problems.append(
                    f"corruption storm targets device {event.device} "
                    f"but a {args.num_ssds}-SSD array only has devices "
                    f"0..{args.num_ssds - 1}"
                )
        # A full-array wipe with no recovery leaves nothing to serve (or
        # rebuild) from; with redundancy a partial wipe is survivable,
        # but an all-devices-down plan cannot be routed around.
        down: set[int] = set()
        all_down = False
        for event in sorted(
            plan.device_events, key=lambda e: (e.at_time_s, e.device)
        ):
            if event.device >= args.num_ssds:
                continue
            if event.kind == "dropout":
                down.add(event.device)
            elif event.kind == "recovery":
                down.discard(event.device)
            if len(down) >= args.num_ssds:
                all_down = True
        if all_down and down and len(down) >= args.num_ssds:
            problems.append(
                f"the plan drops all {args.num_ssds} devices with no "
                "recovery: no replica or parity group survives to serve "
                "reads"
            )

    rates = [
        ["read_failure_rate", f"{plan.read_failure_rate:g}"],
        ["tail_latency_rate", f"{plan.tail_latency_rate:g}"],
        ["bitflip_rate", f"{plan.bitflip_rate:g}"],
        ["torn_page_rate", f"{plan.torn_page_rate:g}"],
        ["pcie_degradation_factor", f"{plan.pcie_degradation_factor:g}"],
        ["crash_events", len(plan.crash_events)],
    ]
    print(render_table(["knob", "value"], rates, title=f"plan {args.plan}"))

    devices: dict[int, list[str]] = {}
    for event in plan.device_events:
        devices.setdefault(event.device, []).append(
            f"{event.kind}@{event.at_time_s:g}s"
        )
    for event in plan.corruption_events:
        devices.setdefault(event.device, []).append(
            f"storm@{event.at_time_s:g}s"
            f" ({event.page_fraction:.2%} of pages)"
        )
    if devices:
        rows = [
            [device, "; ".join(notes)]
            for device, notes in sorted(devices.items())
        ]
        print(render_table(["device", "events"], rows,
                           title="per-device events"))

    workers: dict[int, list[str]] = {}
    for event in plan.worker_events:
        note = f"{event.kind}@{event.at_time_s:g}s"
        if event.kind == "straggle":
            note += f" (x{event.factor:g} I/O)"
        workers.setdefault(event.worker, []).append(note)
    if workers:
        rows = [
            [f"gpu:{worker}", "; ".join(notes)]
            for worker, notes in sorted(workers.items())
        ]
        print(render_table(["worker", "events"], rows,
                           title="per-worker events"))

    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    if problems:
        return 2
    print("plan is valid")
    return 0


def _cmd_storage(args: argparse.Namespace) -> int:
    """``storage``: a stepped device health / rebuild drill.

    Advances the fault timeline across ``--duration`` in ``--steps``
    observation ticks (the health monitor needs repeated EWMA samples to
    tell fail-slow from a blip), granting the rebuilder its budget each
    tick, then prints the per-device health table and rebuild progress.
    """
    import json

    from .bench.workloads import get_workload
    from .core.readpath import StorageStack
    from .errors import ReproError
    from .storage_ha import StorageHA

    if args.num_ssds <= 0:
        print("error: --num-ssds must be positive", file=sys.stderr)
        return 2
    if args.duration <= 0:
        print("error: --duration must be positive", file=sys.stderr)
        return 2
    if args.steps <= 0:
        print("error: --steps must be positive", file=sys.stderr)
        return 2
    ha_kwargs = _ha_kwargs(args)

    workload = get_workload(args.dataset, scale=args.scale)
    system = workload.system(_SSDS[args.ssd], num_ssds=args.num_ssds)

    device_plan = None
    if args.fault_plan is not None:
        plan = _load_fault_plan(args.fault_plan)
        if plan.device_events:
            device_plan = plan
        else:
            print(
                "note: the plan has no device events; the array stays "
                "healthy",
                file=sys.stderr,
            )
    try:
        stack = StorageStack(
            workload.dataset,
            system,
            fault_plan=device_plan,
            page_bytes=system.ssd.page_bytes,
            **ha_kwargs,
        )
        # The drill reports device health even for an unprotected array.
        ha = stack.storage_ha or StorageHA(
            num_devices=system.num_ssds,
            base_latency_s=system.ssd.read_latency_s,
            total_pages=stack.layout.total_pages,
            fault_array=stack.fault_array,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    dt = args.duration / args.steps
    now = 0.0
    for _ in range(args.steps):
        now += dt
        ha.advance(now)
        ha.background_sweep(dt, now)

    block = ha.summary_block()
    block["observed_seconds"] = args.duration
    block["observations"] = args.steps
    if args.format == "json":
        print(json.dumps(block, indent=2, sort_keys=True, allow_nan=False))
        return 0

    ewma = ha.health.ewma_latencies()
    states = block["device_states"]
    rows = [
        [
            f"ssd:{device}",
            states[device],
            f"{ewma[device] * 1e6:.1f}",
        ]
        for device in range(system.num_ssds)
    ]
    mode = block["mode"]
    width = (
        f"replication x{block['replication_factor']}"
        if mode == "replication"
        else f"parity k={block['parity_group_k']}+1"
    )
    print(
        render_table(
            ["device", "health", "EWMA latency (us)"],
            rows,
            title=f"{system.num_ssds}-SSD array after "
            f"{args.duration:g}s ({width}, overhead "
            f"{block['storage_overhead_factor']:.2f}x)",
        )
    )
    for t in block["health_transitions"]:
        print(
            f"health: ssd:{t['device']} {t['from']} -> {t['to']} at "
            f"{t['at_time_s']:.3f}s"
        )
    jobs = block["rebuild_jobs_open"]
    if jobs:
        for job in jobs:
            print(
                f"rebuild: {job['kind']} ssd:{job['device']} "
                f"{job['pages_done']}/{job['pages_total']} pages"
            )
    print(
        f"redundant: {'yes' if block['fully_redundant'] else 'NO'}; "
        f"{block['pages_rebuilt_total']} pages rebuilt on "
        f"{block['rebuild_iops_budget']:g} IOPS budget"
    )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """``trace``: render a saved Chrome-trace file as an ASCII timeline."""
    import json

    from .errors import TelemetryError
    from .telemetry import (
        render_trace,
        summarize_chrome_trace,
        validate_chrome_trace,
    )

    try:
        with open(args.path, encoding="utf-8") as fh:
            trace = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read trace {args.path!r}: {exc}",
              file=sys.stderr)
        return 1
    if args.request is not None:
        from .telemetry import list_trace_ids, render_request_trace

        try:
            validate_chrome_trace(trace)
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
        except TelemetryError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        return 0
    try:
        if args.json:
            print(
                json.dumps(
                    summarize_chrome_trace(trace),
                    indent=2,
                    sort_keys=True,
                    allow_nan=False,
                )
            )
        else:
            validate_chrome_trace(trace)
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


def _cmd_top(args: argparse.Namespace) -> int:
    """``top``: terminal view of a ``--stream`` snapshot JSONL file."""
    import time

    from .errors import TelemetryError
    from .telemetry import read_snapshots

    last_seq = None
    while True:
        try:
            snapshots = read_snapshots(args.path)
        except OSError as exc:
            print(f"error: cannot read {args.path!r}: {exc}",
                  file=sys.stderr)
            return 1
        except TelemetryError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
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


def _cmd_profile(args: argparse.Namespace) -> int:
    """``profile``: wall-clock-vs-modeled self-profile of one experiment."""
    import json
    import time

    from .bench import experiments
    from .telemetry import SimProfiler, render_profile

    fn = getattr(experiments, _EXPERIMENTS[args.experiment])
    profiler = SimProfiler()
    start = time.perf_counter()
    with profiler:
        result = fn()
    wall_s = time.perf_counter() - start

    # Modeled seconds the experiment simulated: sum every loader seconds
    # value its extras carry (the e2e experiments' common shape).
    modeled_s = 0.0
    for dataset_block in (result.extras or {}).values():
        if isinstance(dataset_block, dict):
            for value in dataset_block.values():
                if isinstance(value, (int, float)):
                    modeled_s += float(value)
    doc = profiler.report(
        modeled_s=modeled_s or None,
        baseline_wall_s=wall_s,
        workload=f"bench_{_EXPERIMENTS[args.experiment]}",
    )
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True,
                      allow_nan=False)
            handle.write("\n")
        print(f"wrote profile to {args.output}", file=sys.stderr)
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False))
    else:
        print(render_profile(doc))
    return 0


def _cmd_ssd_model(args: argparse.Namespace) -> int:
    from .sim.ssd import SSDArray

    array = SSDArray(_SSDS[args.ssd], args.num_ssds)
    points = [
        {
            "overlapping": n,
            "iops": array.achieved_iops(n),
            "bandwidth_bytes": array.achieved_bandwidth(n),
        }
        for n in (32, 128, 512, 2048, 8192, 32768)
    ]
    required = array.required_overlapping(args.target)
    if args.json:
        import json

        print(
            json.dumps(
                {
                    "ssd": array.spec.name,
                    "num_ssds": array.num_ssds,
                    "peak_iops": array.peak_iops,
                    "peak_bandwidth_bytes": array.peak_bandwidth,
                    "target": args.target,
                    "required_overlapping": required,
                    "points": points,
                },
                indent=2,
                sort_keys=True,
                allow_nan=False,
            )
        )
        return 0
    rows = [
        [
            p["overlapping"],
            f"{p['iops'] / 1e6:.3f}",
            f"{p['bandwidth_bytes'] / 1e9:.2f}",
        ]
        for p in points
    ]
    print(
        render_table(
            ["overlapping", "MIOPS", "GB/s"],
            rows,
            title=f"{array.spec.name} x{array.num_ssds}",
        )
    )
    print(
        f"{required} overlapping accesses reach "
        f"{args.target:.0%} of peak"
    )
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    """``analyze``: bottleneck attribution for a saved report export."""
    import json

    from .errors import ObservatoryError
    from .observatory import attribute_summary, system_spec_block

    summary = _load_report(args.report, loader=args.loader)
    specs = (summary.get("attribution") or {}).get("specs")
    if specs is None:
        from .config import SystemConfig

        specs = system_spec_block(
            SystemConfig(ssd=_SSDS[args.ssd], num_ssds=args.num_ssds)
        )
        print(
            f"note: report has no embedded specs; assuming "
            f"{specs['ssd']} x{specs['num_ssds']} (--ssd/--num-ssds)",
            file=sys.stderr,
        )
    try:
        block = attribute_summary(summary, specs)
    except ObservatoryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(block, indent=2, sort_keys=True, allow_nan=False))
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
        for row in block["what_if"]:
            if row["scenario"] != "capacity":
                continue
            max_req_s = row.get("max_sustainable_req_s")
            if max_req_s is not None:
                from .utils import format_rate

                print(
                    f"capacity: ~{format_rate(max_req_s)} feature requests "
                    f"sustainable at the {row['bottleneck']} bottleneck "
                    f"(achieved {format_rate(row['achieved_req_s'])}, "
                    f"{row['utilization']:.1%} utilized)"
                )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    """``compare``: regression gate between reports or vs the history."""
    import json

    from .errors import ObservatoryError
    from .observatory import (
        RunHistory,
        compare_summaries,
        compare_to_history,
    )

    try:
        if args.history is not None:
            if len(args.reports) != 1:
                print(
                    "error: --history takes exactly one CANDIDATE report",
                    file=sys.stderr,
                )
                return 2
            candidate = _load_report(args.reports[0], loader=args.loader)
            result = compare_to_history(
                candidate,
                RunHistory(args.history),
                sigma=args.sigma,
                threshold=args.threshold,
            )
        else:
            if len(args.reports) != 2:
                print(
                    "error: compare takes BASELINE and CANDIDATE reports "
                    "(or one CANDIDATE with --history)",
                    file=sys.stderr,
                )
                return 2
            baseline = _load_report(args.reports[0], loader=args.loader)
            candidate = _load_report(args.reports[1], loader=args.loader)
            result = compare_summaries(
                baseline, candidate, threshold=args.threshold
            )
    except ObservatoryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.json:
        print(
            json.dumps(
                result.to_dict(), indent=2, sort_keys=True, allow_nan=False
            )
        )
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
            title=f"comparison ({result.mode} mode, "
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


def _cmd_history_record(args: argparse.Namespace) -> int:
    """``history record``: append one report summary to the history."""
    from .errors import ObservatoryError
    from .observatory import RunHistory

    summary = _load_report(args.report, loader=args.loader)
    try:
        record = RunHistory(args.dir).append(summary, label=args.label)
    except (ObservatoryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    e2e = record.e2e_seconds
    print(
        f"recorded {record.loader} run as fingerprint "
        f"{record.fingerprint} (rev {record.git_rev}, "
        f"e2e {'-' if e2e is None else f'{e2e * 1e3:.2f} ms'}) "
        f"in {args.dir}"
    )
    return 0


def _cmd_history_list(args: argparse.Namespace) -> int:
    """``history list``: show recorded fingerprints or one trend."""
    import json

    from .errors import ObservatoryError
    from .observatory import RunHistory

    history = RunHistory(args.dir)
    try:
        records = history.records(args.fingerprint)
    except ObservatoryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(
            json.dumps(
                [record.to_dict() for record in records],
                indent=2,
                sort_keys=True,
                allow_nan=False,
            )
        )
        return 0
    if not records:
        print(f"history at {history.path} holds no records")
        return 0
    if args.fingerprint is not None:
        rows = [
            [
                record.git_rev,
                record.loader,
                record.iterations,
                "-"
                if record.e2e_seconds is None
                else f"{record.e2e_seconds * 1e3:.2f}",
                record.bottleneck or "-",
                record.label or "-",
            ]
            for record in records
        ]
        print(
            render_table(
                ["rev", "loader", "iters", "E2E ms", "bottleneck", "label"],
                rows,
                title=f"fingerprint {args.fingerprint}",
            )
        )
        return 0
    counts: dict[str, list] = {}
    for record in records:
        counts.setdefault(record.fingerprint, []).append(record)
    rows = [
        [
            fingerprint,
            len(group),
            group[-1].loader,
            group[-1].iterations,
            group[-1].label or "-",
        ]
        for fingerprint, group in counts.items()
    ]
    print(
        render_table(
            ["fingerprint", "runs", "loader", "iters", "label"],
            rows,
            title=f"run history ({history.path})",
        )
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "datasets":
        return _cmd_datasets()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "figure":
        return _cmd_figure(args)
    if args.command == "train":
        return _cmd_train(args)
    if args.command == "fullgraph":
        return _cmd_fullgraph(args)
    if args.command == "fleet":
        return _cmd_fleet(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "scrub":
        return _cmd_scrub(args)
    if args.command == "storage":
        return _cmd_storage(args)
    if args.command == "faults":
        if args.faults_command == "validate":
            return _cmd_faults_validate(args)
        raise AssertionError(
            f"unhandled faults command {args.faults_command!r}"
        )
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "top":
        return _cmd_top(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "ssd-model":
        return _cmd_ssd_model(args)
    if args.command == "analyze":
        return _cmd_analyze(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "history":
        if args.history_command == "record":
            return _cmd_history_record(args)
        if args.history_command == "list":
            return _cmd_history_list(args)
        raise AssertionError(
            f"unhandled history command {args.history_command!r}"
        )
    raise AssertionError(f"unhandled command {args.command!r}")
