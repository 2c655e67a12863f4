"""The one run lifecycle: shared flag families and :class:`RunContext`.

Everything the five workload commands have in common lives here — the
``--fault-plan`` / HA / integrity / checkpoint / telemetry / alerts flag
families with their validators, and the context that owns a run from the
parsed arguments to the end-of-run epilogue.  ``docs/API.md`` ("Run
lifecycle and exit codes") is the prose version.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from ..bench.workloads import get_workload
from ..checkpoint import CheckpointStore
from ..config import INTEL_OPTANE, SAMSUNG_980PRO, SSDSpec
from ..errors import ConfigError
from ..faults import FaultPlan
from ..observatory import SLOMonitor, load_alert_rules
from ..pipeline.export import EXPORT_SCHEMA_VERSION
from ..telemetry import (
    FlightRecorder,
    MetricsSnapshotter,
    Tracer,
    write_chrome_trace,
)


_SSDS: dict[str, SSDSpec] = {
    "optane": INTEL_OPTANE,
    "980pro": SAMSUNG_980PRO,
}


def _dumps(doc) -> str:
    """Strict, stable JSON: sorted keys, no ``NaN``/``Infinity`` tokens."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)


def _add_workload_args(
    parser: argparse.ArgumentParser,
    *,
    dataset: str = "IGB-tiny",
    scale: float | None,
    ssd: str = "optane",
    num_ssds: int = 1,
) -> None:
    """``--dataset/--scale/--ssd/--num-ssds``: what runs, on which array."""
    default = "per-dataset" if scale is None else f"{scale:g}"
    parser.add_argument("--dataset", default=dataset)
    parser.add_argument("--scale", type=float, default=scale,
                        help=f"dataset shrink factor (default: {default})")
    parser.add_argument("--ssd", choices=sorted(_SSDS), default=ssd)
    parser.add_argument("--num-ssds", type=int, default=num_ssds)


def _add_fault_plan_arg(parser: argparse.ArgumentParser, help: str) -> None:
    parser.add_argument(
        "--fault-plan", metavar="JSON_PATH", default=None, help=help
    )


def _add_export_args(
    parser: argparse.ArgumentParser, what: str | None = None
) -> None:
    """``--format table|json`` and, given ``what`` it holds, ``-o``."""
    parser.add_argument("--format", choices=["table", "json"],
                        default="table")
    if what is not None:
        parser.add_argument(
            "-o", "--output", metavar="JSON_PATH", default=None,
            help=f"also write the schema-v{EXPORT_SCHEMA_VERSION} {what} "
            "to this file",
        )


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


def _add_telemetry_args(parser: argparse.ArgumentParser) -> None:
    """The four surfaces that bring the tracer up, and their knobs."""
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


def _add_alerts_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--alerts",
        metavar="RULES_JSON",
        default=None,
        help="evaluate declarative SLO alert rules against the finished "
        "run (fired rules print to stderr and land in the JSON export's "
        "'alerts' block)",
    )


def _ha_kwargs(args: argparse.Namespace) -> dict:
    """Validated HA constructor kwargs from the ``_add_ha_args`` flags."""
    if args.replication < 1:
        raise ConfigError("--replication must be >= 1")
    if args.replication > 1 and args.parity:
        raise ConfigError("choose --replication or --parity, not both")
    if not args.rebuild_iops >= 0:
        raise ConfigError("--rebuild-iops must be non-negative")
    return {
        "replication": args.replication,
        "parity": args.parity,
        "rebuild_iops": args.rebuild_iops,
    }


def _integrity_kwargs(args: argparse.Namespace) -> dict:
    """Validated loader kwargs from the ``_add_integrity_args`` flags."""
    scrub_iops = getattr(args, "scrub_iops", 0.0)
    if not scrub_iops >= 0:
        raise ConfigError("--scrub-iops must be non-negative")
    return {
        "verify_reads": getattr(args, "verify_reads", "off"),
        "scrub_iops": scrub_iops,
    }


def _load_fault_plan(path: str | None):
    """Load a ``--fault-plan`` file (``None`` without one); a malformed or
    unreadable one raises :class:`~repro.errors.FaultPlanError`."""
    return None if path is None else FaultPlan.from_json_file(path)


def _resolve_workload(args: argparse.Namespace):
    """``--dataset/--scale/--ssd/--num-ssds`` as (workload, system)."""
    workload = get_workload(args.dataset, scale=args.scale)
    return workload, workload.system(_SSDS[args.ssd], num_ssds=args.num_ssds)


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


class RunContext:
    """One workload run's lifecycle, built once from the parsed args.

    Construction is everything that happens before a driver exists: the
    HA / integrity / checkpoint / telemetry flag families are validated,
    the fault plan and alert rules loaded, ``--dataset/--scale/--ssd/
    --num-ssds`` resolved into ``workload`` + ``system`` (``train``
    models its own system and passes it in), and the tracer built with
    the sinks it owns.  A command then builds its driver from these
    fields, runs it, and hands the result to :meth:`finish` — the single
    end-of-run epilogue.
    """

    #: Any of these enables the tracer: streaming and the flight recorder
    #: ride its metrics registry and event feed.  Only ``--trace``
    #: additionally writes the Chrome trace file at run end.
    TELEMETRY_FLAGS = ("trace", "stream", "prom", "blackbox")

    def __init__(self, args, source: str, *, system=None) -> None:
        self.args = args
        self.ha = _ha_kwargs(args)
        self.integrity = _integrity_kwargs(args)
        if getattr(args, "checkpoint_every", 1) <= 0:
            raise ConfigError("--checkpoint-every must be positive")
        if args.trace_cap is not None and args.trace_cap <= 0:
            raise ConfigError("--trace-cap must be positive")
        if not (math.isfinite(args.snapshot_every)
                and args.snapshot_every > 0):
            raise ConfigError("--snapshot-every must be positive")
        self.fault_plan = _load_fault_plan(args.fault_plan)
        self.alert_rules = None
        if getattr(args, "alerts", None) is not None:
            self.alert_rules = load_alert_rules(args.alerts)
        self.workload = None
        if system is None:
            self.workload, system = _resolve_workload(args)
        self.system = system

        cap = {} if args.trace_cap is None else {"max_events": args.trace_cap}
        streamed = args.stream is not None or args.prom is not None
        self.tracer = Tracer(
            enabled=any(
                getattr(args, flag) is not None
                for flag in self.TELEMETRY_FLAGS
            ),
            detail=args.trace_detail,
            strict_tracks=True,
            flight=FlightRecorder() if args.blackbox is not None else None,
            snapshotter=MetricsSnapshotter(
                every_s=args.snapshot_every,
                jsonl_path=args.stream,
                prom_path=args.prom,
                source=source,
            ) if streamed else None,
            **cap,
        )

    def checkpoint_store(self, **kwargs) -> CheckpointStore:
        """The ``--checkpoint-dir`` store.

        Without ``--resume``, snapshots left over from a previous
        invocation are cleared so the run starts from iteration 0
        (in-run crash recovery still resumes from the snapshots this
        run writes).
        """
        args = self.args
        store = CheckpointStore(args.checkpoint_dir, **kwargs)
        stale = [] if args.resume else store.iterations()
        if stale:
            print(
                f"note: clearing {len(stale)} old snapshot(s) from "
                f"{args.checkpoint_dir} (pass --resume to continue them)",
                file=sys.stderr,
            )
            for iteration in stale:
                os.unlink(store.path_for(iteration))
        return store

    def dump_blackbox(
        self, trigger: str, at_s: float, context=None, crash=None
    ) -> None:
        """Dump the flight recorder's ring (a no-op without ``--blackbox``);
        a ``crash`` is noted into it first."""
        if not self.tracer.dump_flight(
            self.args.blackbox, trigger=trigger, at_s=at_s, context=context,
            crash=crash,
        ):
            return
        print(
            f"wrote flight-recorder dump to {self.args.blackbox}",
            file=sys.stderr,
        )

    def finish(
        self, report, driver=None, *, name=None, registry=None, incident=None
    ) -> dict:
        """The end-of-run epilogue, in its one canonical order.

        SLO alerts are evaluated first, so fired instants land in the
        trace and the flight ring; then the final metric snapshot; then
        the black-box dump (on a fired rule, or on ``incident`` — a
        ``(trigger, at_s, context)`` the workload detected itself); then
        the Chrome trace file.  Returns the keywords every exporter
        takes (``report_to_dict``, ``ServingReport.export_dict``): the
        ``tracer`` and ``system``, and the lifecycle's blocks by
        document-table row name (``alerts``, ``storage_ha`` from
        ``driver``, ``observability``).

        ``report`` is ``None`` for serving, which has no ``RunReport``:
        rules are then evaluated against ``registry`` under ``name``
        (report-scoped rules are listed as missing).  Call once per
        finished report — only an untraced ``run --loader all`` has more
        than one.
        """
        args, tracer = self.args, self.tracer
        alerts = None
        if self.alert_rules is not None:
            monitor = SLOMonitor(self.alert_rules, tracer=tracer)
            alerts = monitor.evaluate(report, registry)
            _print_alerts(name or report.loader_name, alerts)
        tracer.final_snapshot()
        if alerts is not None and not alerts["ok"]:
            names = [fired["name"] for fired in alerts["fired"]]
            self.dump_blackbox(
                f"slo breach: {', '.join(names)}",
                tracer.clock_s,
                {"fired_rules": names},
            )
        if incident is not None:
            self.dump_blackbox(*incident)
        if args.trace is not None:
            events = write_chrome_trace(tracer, args.trace)
            print(
                f"wrote {events} trace events to {args.trace}",
                file=sys.stderr,
            )
        storage_ha = getattr(driver, "storage_ha", None)
        return {
            "tracer": tracer,
            "system": self.system,
            "alerts": alerts,
            "storage_ha": (
                None if storage_ha is None else storage_ha.summary_block()
            ),
            "observability": tracer.observability_block(),
        }

    def emit(self, text: str) -> bool:
        """Write ``text`` to ``-o`` and, under ``--format json``, stdout.

        Returns True when stdout was taken, so the caller skips its table.
        """
        output = getattr(self.args, "output", None)
        if output is not None:
            with open(output, "w", encoding="utf-8") as handle:
                handle.write(text)
        if self.args.format == "json":
            print(text)
        return self.args.format == "json"
