"""Command-line interface: ``python -m repro <command>``.

:data:`COMMANDS` is the command table — one entry per subcommand with
its one-line help, its argument declarations and its handler — and
``repro --help`` / ``repro <command> --help`` print it.  The five
workload commands (``run``, ``train``, ``fleet``, ``fullgraph``,
``serve``) share one run lifecycle, :class:`RunContext`; the read-only
and storage commands are plain functions of their arguments.

Which flags bring which plane up, the order of the end-of-run epilogue
and the 0/1/2/3 exit-code contract are written down once, in
``docs/API.md`` ("Run lifecycle and exit codes"); the telemetry flags
are described in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import NoReturn

from .bench.tables import render_table
from .bench.workloads import get_workload
from .checkpoint import CheckpointStore
from .config import INTEL_OPTANE, SAMSUNG_980PRO, SSDSpec
from .errors import (
    ConfigError,
    FaultError,
    FaultPlanError,
    ObservatoryError,
    ReproError,
)
from .faults import FaultPlan
from .observatory import SLOMonitor, load_alert_rules
from .pipeline.export import EXPORT_SCHEMA_VERSION, observability_block
from .telemetry import (
    FlightRecorder,
    MetricsSnapshotter,
    Tracer,
    write_chrome_trace,
)
from .utils import package_version

_SSDS: dict[str, SSDSpec] = {
    "optane": INTEL_OPTANE,
    "980pro": SAMSUNG_980PRO,
}


def _fail(message: str) -> NoReturn:
    """Reject bad input before anything runs: one ``error:`` line, exit 2."""
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _dumps(doc) -> str:
    """Strict, stable JSON: sorted keys, no ``NaN``/``Infinity`` tokens."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)


# ----------------------------------------------------------------------
# Flag families shared by the workload commands


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
        _fail("--replication must be >= 1")
    if args.replication > 1 and args.parity:
        _fail("choose --replication or --parity, not both")
    if not args.rebuild_iops >= 0:
        _fail("--rebuild-iops must be non-negative")
    return {
        "replication": args.replication,
        "parity": args.parity,
        "rebuild_iops": args.rebuild_iops,
    }


def _integrity_kwargs(args: argparse.Namespace) -> dict:
    """Validated loader kwargs from the ``_add_integrity_args`` flags."""
    scrub_iops = getattr(args, "scrub_iops", 0.0)
    if not scrub_iops >= 0:
        _fail("--scrub-iops must be non-negative")
    return {
        "verify_reads": getattr(args, "verify_reads", "off"),
        "scrub_iops": scrub_iops,
    }


def _load_fault_plan(path: str | None):
    """Load a ``--fault-plan`` file (``None`` without one) or exit 2."""
    if path is None:
        return None
    try:
        return FaultPlan.from_json_file(path)
    except FaultPlanError as exc:
        _fail(str(exc))


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


# ----------------------------------------------------------------------
# The one run lifecycle


class RunContext:
    """One workload run's lifecycle, built once from the parsed args.

    Construction is everything that happens before a driver exists: the
    HA / integrity / checkpoint / telemetry flag families are validated,
    the fault plan and alert rules loaded, ``--dataset/--scale/--ssd/
    --num-ssds`` resolved into ``workload`` + ``system`` (``train``
    models its own system and passes it in), and the tracer → flight
    recorder → snapshotter triple brought up.  A command then builds its
    driver from these fields, :meth:`attach`\\ es it, runs it, and hands
    the result to :meth:`finish` — the single end-of-run epilogue.
    """

    #: Any of these brings the tracer up: streaming and the flight
    #: recorder ride its metrics registry and event feed.  Only
    #: ``--trace`` additionally writes the Chrome trace file at run end.
    TELEMETRY_FLAGS = ("trace", "stream", "prom", "blackbox")

    def __init__(self, args, source: str, *, system=None) -> None:
        self.args = args
        self.ha = _ha_kwargs(args)
        self.integrity = _integrity_kwargs(args)
        if getattr(args, "checkpoint_every", 1) <= 0:
            _fail("--checkpoint-every must be positive")
        if args.trace_cap is not None and args.trace_cap <= 0:
            _fail("--trace-cap must be positive")
        if not (math.isfinite(args.snapshot_every)
                and args.snapshot_every > 0):
            _fail("--snapshot-every must be positive")
        self.fault_plan = _load_fault_plan(args.fault_plan)
        self.alert_rules = None
        if getattr(args, "alerts", None) is not None:
            try:
                self.alert_rules = load_alert_rules(args.alerts)
            except ObservatoryError as exc:
                _fail(str(exc))
        self.workload = None
        if system is None:
            self.workload, system = _resolve_workload(args)
        self.system = system

        self.tracer = self.flight = self.snapshotter = None
        if all(getattr(args, flag) is None for flag in self.TELEMETRY_FLAGS):
            return
        cap = {} if args.trace_cap is None else {"max_events": args.trace_cap}
        self.tracer = Tracer(
            enabled=True, detail=args.trace_detail, strict_tracks=True, **cap
        )
        if args.blackbox is not None:
            self.flight = FlightRecorder()
            self.tracer.attach_flight(self.flight)
        if args.stream is not None or args.prom is not None:
            self.snapshotter = MetricsSnapshotter(
                self.tracer.metrics,
                every_s=args.snapshot_every,
                jsonl_path=args.stream,
                prom_path=args.prom,
                source=source,
                flight=self.flight,
            )

    def attach(self, driver):
        """Wire the live-metrics snapshotter into ``driver``; returns it."""
        driver.snapshotter = self.snapshotter
        return driver

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

    def dump_blackbox(self, trigger: str, at_s: float, context=None) -> None:
        """Dump the flight recorder's ring (a no-op without ``--blackbox``)."""
        if self.flight is None:
            return
        self.flight.dump(
            self.args.blackbox, trigger=trigger, at_s=at_s, context=context
        )
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
        the Chrome trace file.  Returns the export blocks every
        ``report_to_dict``-style exporter takes: ``tracer``, ``system``,
        ``alerts``, ``storage_ha`` (from ``driver``) and
        ``observability``.

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
        if self.snapshotter is not None:
            last = self.snapshotter.last_taken_s
            self.snapshotter.take(
                max(tracer.clock_s, last if last is not None else 0.0)
            )
        if self.flight is not None and alerts is not None and not alerts["ok"]:
            names = [fired["name"] for fired in alerts["fired"]]
            self.dump_blackbox(
                f"slo breach: {', '.join(names)}",
                tracer.clock_s,
                {"fired_rules": names},
            )
        if incident is not None:
            self.dump_blackbox(*incident)
        if tracer is not None and args.trace is not None:
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
            "observability": observability_block(
                tracer=tracer, snapshotter=self.snapshotter,
                flight=self.flight,
            ),
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


# ----------------------------------------------------------------------
# Workload commands: build the driver, run it, render the table


def _pipeline_factory(make_loader, feature_dim, hidden_dim, classes, **model):
    """A zero-argument ``loader + GraphSAGE -> TrainingPipeline`` builder.

    The supervisor calls it once per (re)start attempt, so the loader is
    built fresh each time while the context's tracer carries over.
    """
    from .pipeline.runner import TrainingPipeline
    from .training.graphsage import GraphSAGE

    def factory() -> TrainingPipeline:
        loader = make_loader()
        net = GraphSAGE(feature_dim, hidden_dim, classes, seed=0, **model)
        return TrainingPipeline(loader, net, num_classes=classes)

    return factory


def _supervise(ctx: RunContext, pipeline_factory):
    """Run ``pipeline_factory`` under the ``--checkpoint-*`` supervisor."""
    from .checkpoint import RunSupervisor, SupervisorConfig

    config = SupervisorConfig(checkpoint_every=ctx.args.checkpoint_every)
    supervisor = RunSupervisor(
        pipeline_factory,
        ctx.checkpoint_store(keep=config.keep_snapshots),
        config=config,
        blackbox_path=ctx.args.blackbox,
    )
    return supervisor.run(ctx.args.iterations)


def _args_run(run: argparse.ArgumentParser) -> None:
    _add_workload_args(run, dataset="IGB-Full", scale=None)
    run.add_argument(
        "--loader",
        choices=["gids", "bam", "mmap", "ginex", "all"],
        default="all",
    )
    run.add_argument("--iterations", type=int, default=40)
    run.add_argument("--format", choices=["table", "json", "csv"],
                     default="table")
    _add_fault_plan_arg(
        run,
        "inject storage faults from a FaultPlan JSON file "
        "(read failures, tail spikes, device dropout, PCIe degradation, "
        "simulated process crashes)",
    )
    _add_checkpoint_args(run)
    _add_telemetry_args(run)
    _add_integrity_args(run)
    _add_ha_args(run)
    _add_alerts_arg(run)


def _cmd_run(args: argparse.Namespace) -> int:
    from .baselines.ginex import GinexLoader
    from .baselines.mmap_loader import DGLMmapLoader
    from .core.bam import BaMDataLoader
    from .core.gids import GIDSDataLoader
    from .pipeline.export import report_to_json, reports_to_comparison_csv

    ctx = RunContext(args, "run")
    # Only the GIDS-family loaders carry the planes; the baselines are
    # neither instrumented nor redundant nor checkpointable.
    instrumented = {"gids": GIDSDataLoader, "bam": BaMDataLoader}
    ha_on = args.replication > 1 or args.parity or args.rebuild_iops > 0
    if ha_on and args.loader not in (*instrumented, "all"):
        raise ConfigError(
            "--replication/--parity/--rebuild-iops require the gids or bam "
            "loader"
        )
    if ctx.tracer is not None and args.loader not in instrumented:
        raise ConfigError(
            "--trace/--stream/--prom/--blackbox require --loader gids or "
            "bam (the baseline loaders are not instrumented)"
        )
    if args.checkpoint_dir is not None and args.loader not in instrumented:
        raise ConfigError(
            "--checkpoint-dir requires --loader gids or bam (the baseline "
            "loaders cannot be checkpointed mid-run)"
        )

    workload, system = ctx.workload, ctx.system
    config = workload.loader_config()
    common = dict(
        batch_size=workload.batch_size, fanouts=workload.fanouts, seed=1
    )

    def instrumented_loader(kind: str):
        extra = {"hot_nodes": workload.hot_nodes} if kind == "gids" else {}
        return ctx.attach(
            instrumented[kind](
                workload.dataset, system, config, fault_plan=ctx.fault_plan,
                tracer=ctx.tracer, **ctx.integrity, **ctx.ha, **common,
                **extra,
            )
        )

    if args.checkpoint_dir is not None:
        return _run_supervised(ctx, lambda: instrumented_loader(args.loader))

    selected = (
        ["gids", "bam", "ginex", "mmap"]
        if args.loader == "all"
        else [args.loader]
    )
    reports, loaders = [], []
    for kind in selected:
        warmup = 150
        if kind in instrumented:
            loader, warmup = instrumented_loader(kind), 10
        elif kind == "ginex":
            if workload.dataset.hetero is not None:
                print(
                    "note: Ginex supports only homogeneous graphs; skipped",
                    file=sys.stderr,
                )
                continue
            loader = GinexLoader(
                workload.dataset, system, fault_plan=ctx.fault_plan,
                verify_reads=args.verify_reads, **common,
            )
        else:
            if ctx.fault_plan is not None:
                print(
                    "note: the mmap loader has no fault-injection path; "
                    "running it healthy",
                    file=sys.stderr,
                )
            loader = DGLMmapLoader(workload.dataset, system, **common)
        reports.append(loader.run(args.iterations, warmup=warmup))
        loaders.append(loader)

    if not reports:
        print("no loader could run on this workload", file=sys.stderr)
        return 1
    blocks = [
        ctx.finish(report, loader) for report, loader in zip(reports, loaders)
    ]
    if args.format == "json":
        print(
            "["
            + ",\n".join(
                report_to_json(report, **block)
                for report, block in zip(reports, blocks)
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


def _run_supervised(ctx: RunContext, make_loader) -> int:
    """``run --checkpoint-dir``: crash-safe supervised functional training.

    Snapshot/resume requires the stateful GIDS-family loaders; the run
    report covers every trained iteration (no warmup split) and the JSON
    export carries the ``checkpoint_summary`` block.  The context's
    tracer is created once and re-attached on every restart attempt:
    restoring a snapshot restores the trace recorded up to it, so a
    killed-and-resumed run still emits one seamless trace.
    """
    from .pipeline.export import report_to_json

    args, workload = ctx.args, ctx.workload
    outcome = _supervise(
        ctx,
        _pipeline_factory(
            make_loader, workload.dataset.feature_dim, 32, 8,
            num_layers=len(workload.fanouts),
        ),
    )
    summary = outcome.summary
    # The loader is rebuilt on every restart attempt, so no driver outlives
    # the run: the supervised export has never carried a storage_ha block.
    blocks = ctx.finish(outcome.report)

    if args.format == "json":
        print(
            report_to_json(
                outcome.report, checkpoint_summary=summary, **blocks
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


def _args_train(train: argparse.ArgumentParser) -> None:
    train.add_argument("--dataset", default="IGB-tiny")
    train.add_argument("--scale", type=float, default=0.1)
    train.add_argument("--iterations", type=int, default=60)
    train.add_argument("--classes", type=int, default=8)
    train.add_argument("--hidden-dim", type=int, default=64)
    train.add_argument("--batch-size", type=int, default=256)
    _add_fault_plan_arg(
        train,
        "inject storage faults / crash events from a FaultPlan JSON file",
    )
    _add_checkpoint_args(train)
    _add_telemetry_args(train)
    _add_integrity_args(train)
    _add_ha_args(train)
    _add_alerts_arg(train)


def _cmd_train(args: argparse.Namespace) -> int:
    from .config import LoaderConfig, SystemConfig
    from .core.gids import GIDSDataLoader
    from .graph.datasets import load_scaled

    dataset = load_scaled(args.dataset, args.scale, seed=0)
    system = SystemConfig(
        cpu_memory_limit_bytes=dataset.total_bytes * 0.5
    )
    config = LoaderConfig(
        gpu_cache_bytes=dataset.feature_data_bytes * 0.02,
        cpu_buffer_fraction=0.10,
        window_depth=4,
    )
    ctx = RunContext(args, "train", system=system)

    def make_loader() -> GIDSDataLoader:
        return ctx.attach(
            GIDSDataLoader(
                dataset, system, config, batch_size=args.batch_size,
                fanouts=(5, 5), seed=1, fault_plan=ctx.fault_plan,
                tracer=ctx.tracer, **ctx.integrity, **ctx.ha,
            )
        )

    pipeline_factory = _pipeline_factory(
        make_loader, dataset.feature_dim, args.hidden_dim, args.classes,
        num_layers=2, lr=0.05,
    )
    summary = None
    if args.checkpoint_dir is not None:
        outcome = _supervise(ctx, pipeline_factory)
        result, summary, report = (
            outcome.result, outcome.summary, outcome.report
        )
    else:
        pipeline = pipeline_factory()
        result = pipeline.train(args.iterations)
        report = pipeline.report
    ctx.finish(report)
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


def _args_fleet(fleet: argparse.ArgumentParser) -> None:
    _add_workload_args(fleet, scale=0.05)
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
    _add_fault_plan_arg(
        fleet,
        "FaultPlan JSON; its worker events (gpu:<k> "
        "dropout/recovery/straggle) drive fleet elasticity, its device "
        "events degrade the shared SSD array",
    )
    fleet.add_argument(
        "--chaos", action="store_true",
        help="sweep the chaos scenarios (dropout, straggler, storm...) "
        "and assert the fleet invariants instead of one epoch",
    )
    _add_telemetry_args(fleet)
    _add_ha_args(fleet)
    _add_export_args(fleet, "run export (with the fleet block)")


def _cmd_fleet(args: argparse.Namespace) -> int:
    """``fleet``: an elastic multi-GPU epoch (or the chaos sweep)."""
    from .core.fleet import (
        ElasticFleetTrainer,
        FleetConfig,
        check_invariants,
        run_chaos_suite,
    )
    from .pipeline.export import report_to_dict

    ctx = RunContext(args, "fleet")
    dataset, system = ctx.workload.dataset, ctx.system

    if args.chaos:
        if ctx.fault_plan is not None:
            print(
                "note: --chaos sweeps its own fault plans; --fault-plan "
                "is ignored",
                file=sys.stderr,
            )
        suite = run_chaos_suite(
            dataset, system, num_gpus=args.gpus, seed=args.seed
        )
        if not ctx.emit(json.dumps(suite, indent=2, sort_keys=True)):
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

    fleet_config = FleetConfig(
        num_gpus=args.gpus,
        batch_size=args.batch_size,
        shard_mode=args.shard_mode,
        peer_cache=not args.no_peer_cache,
    )
    trainer = ctx.attach(
        ElasticFleetTrainer(
            dataset,
            system,
            fleet_config,
            seed=args.seed,
            fault_plan=ctx.fault_plan,
            fanouts=ctx.workload.fanouts,
            tracer=ctx.tracer,
            **ctx.ha,
        )
    )
    result = trainer.run_epoch()

    violations = check_invariants(dataset, result)
    incident = None
    if violations:
        incident = (
            f"invariant violation: {'; '.join(violations)}",
            trainer.clock_s,
            {"violations": list(violations)},
        )
    blocks = ctx.finish(result.report, trainer, incident=incident)
    summary = report_to_dict(
        result.report, fleet=result.fleet_block(), **blocks
    )
    if not ctx.emit(_dumps(summary)):
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


def _args_fullgraph(fullgraph: argparse.ArgumentParser) -> None:
    _add_workload_args(fullgraph, scale=0.01, ssd="980pro")
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
    _add_fault_plan_arg(
        fullgraph,
        "inject storage faults from a FaultPlan JSON file; spill "
        "pages ride the same failure/retry/corruption process as feature "
        "pages",
    )
    _add_checkpoint_args(fullgraph)
    _add_telemetry_args(fullgraph)
    fullgraph.add_argument(
        "--verify-reads", choices=["off", "sample", "full"], default="off",
        help="verify reloaded spill pages against their digests: 'off' "
        "(default), 'sample', or 'full'",
    )
    _add_ha_args(fullgraph)
    _add_export_args(fullgraph, "run export (with the fullgraph block)")


def _cmd_fullgraph(args: argparse.Namespace) -> int:
    """``fullgraph``: sweep epochs over partitions with modeled offload."""
    from .fullgraph import FullGraphConfig, FullGraphTrainer
    from .pipeline.export import report_to_dict
    from .utils import format_time

    ctx = RunContext(args, "fullgraph")
    tracer = ctx.tracer

    fault_injector = None
    if ctx.fault_plan is not None:
        from .faults import FaultInjector

        fault_injector = FaultInjector(ctx.fault_plan)
    verifier = None
    if args.verify_reads != "off":
        from .integrity import CorruptionLedger, ReadVerifier

        verifier = ReadVerifier(
            CorruptionLedger(num_devices=args.num_ssds),
            mode=args.verify_reads,
        )

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
            **ctx.ha,
        )
        trainer = ctx.attach(
            FullGraphTrainer(
                ctx.workload.dataset,
                ctx.system,
                config,
                tracer=tracer,
                fault_injector=fault_injector,
                verifier=verifier,
            )
        )

        store = None
        if args.checkpoint_dir is not None:
            store = ctx.checkpoint_store()
            loaded = store.load_latest() if args.resume else None
            if loaded is not None:
                trainer.load_state_dict(loaded.payload["trainer"])
                if tracer is not None and "tracer" in loaded.payload:
                    tracer.load_state_dict(loaded.payload["tracer"])
                print(
                    f"resumed from step {loaded.iteration} "
                    f"({loaded.path})",
                    file=sys.stderr,
                )

        total_steps = args.epochs * trainer.steps_per_epoch
        done = (
            trainer.epochs_completed * trainer.steps_per_epoch
            + trainer.step_index
        )
        budget = max(0, total_steps - done)
        if args.steps is not None:
            budget = min(budget, args.steps)
        ran = 0
        while ran < budget:
            if args.target_acc is not None and (
                trainer.accuracies
                and trainer.accuracies[-1] >= args.target_acc
            ):
                break
            chunk = budget - ran
            if store is not None:
                chunk = min(args.checkpoint_every, chunk)
            trainer.run_steps(chunk)
            ran += chunk
            if store is not None:
                payload = {"trainer": trainer.state_dict()}
                if tracer is not None:
                    payload["tracer"] = tracer.state_dict()
                store.save(done + ran, payload)
        result = trainer.result(target_accuracy=args.target_acc)
    except FaultError as exc:
        # A fault the storage stack could not absorb: leave the black box
        # behind, crash site last, before main() reports the error.
        now = trainer.clock_s if trainer is not None else 0.0
        if ctx.flight is not None:
            ctx.flight.note(
                "crash", type(exc).__name__, "alerts", now,
                detail={"message": str(exc)},
            )
        ctx.dump_blackbox(f"{type(exc).__name__}: {exc}", now)
        raise

    # The fullgraph block carries the run's redundancy accounting itself;
    # this export has never had a separate storage_ha block.
    blocks = ctx.finish(result.report)
    summary = report_to_dict(
        result.report, fullgraph=result.block, **blocks
    )
    if ctx.emit(_dumps(summary)):
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


def _args_serve(serve: argparse.ArgumentParser) -> None:
    _add_workload_args(serve, scale=0.1)
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
    _add_fault_plan_arg(
        serve,
        "inject storage faults from a FaultPlan JSON file (device "
        "dropouts exercise the per-device circuit breakers)",
    )
    _add_ha_args(serve)
    _add_export_args(serve, "serving export")
    _add_telemetry_args(serve)
    _add_alerts_arg(serve)


def _cmd_serve(args: argparse.Namespace) -> int:
    """``serve``: an overload-protected online inference run."""
    from .serving import PRIORITIES, ArrivalConfig, InferenceServer, ServingConfig
    from .utils import format_rate, format_time

    try:
        mix = tuple(float(p) for p in args.priority_mix.split(","))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
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
    if args.requests <= 0:
        raise ConfigError("--requests must be positive")

    ctx = RunContext(args, "serve")
    workload = ctx.workload
    server = ctx.attach(
        InferenceServer(
            workload.dataset,
            ctx.system,
            workload.loader_config(),
            arrival=arrival,
            serving=serving,
            fanouts=workload.fanouts,
            hot_nodes=workload.hot_nodes,
            seed=1,
            fault_plan=ctx.fault_plan,
            tracer=ctx.tracer,
            **ctx.ha,
        )
    )
    server.serve(args.requests)
    server.drain()
    report = server.report()
    # Serving has no RunReport: rules are evaluated against the metrics
    # registry (report-scoped rules are listed as missing).
    blocks = ctx.finish(
        None, server, name=server.name, registry=server.registry
    )
    json_printed = ctx.emit(
        json.dumps(report.export_dict(**blocks), indent=2)
    )
    if args.output is not None:
        print(f"wrote serving export to {args.output}", file=sys.stderr)
    if json_printed:
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


# ----------------------------------------------------------------------
# Storage commands: scrub, fault-plan validation, HA drill, Eq. 2-3 model


def _args_scrub(scrub: argparse.ArgumentParser) -> None:
    scrub.add_argument("--dataset", default="IGB-tiny")
    scrub.add_argument("--scale", type=float, default=0.1,
                       help="dataset shrink factor (default: 0.1)")
    scrub.add_argument("--num-ssds", type=int, default=1)
    scrub.add_argument(
        "--scrub-iops", type=float, default=1e6, metavar="N",
        help="page reads per modeled second for the sweep (default: 1e6)",
    )
    _add_fault_plan_arg(
        scrub,
        "FaultPlan JSON whose corruption storms poison the media; "
        "omitted means a clean sweep",
    )
    scrub.add_argument(
        "--at-time", type=float, default=None, metavar="SECONDS",
        help="simulated time of the sweep (default: just after the last "
        "corruption storm in the plan)",
    )


def _cmd_scrub(args: argparse.Namespace) -> int:
    """``scrub``: one offline integrity sweep over a workload's pages."""
    from .faults.injector import FaultInjector
    from .graph.datasets import load_scaled
    from .integrity import CorruptionLedger, PageChecksummer, Scrubber
    from .storage.feature_store import FeatureStore

    if not args.scrub_iops > 0:
        raise ConfigError("--scrub-iops must be positive")
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


def _args_faults_validate(validate: argparse.ArgumentParser) -> None:
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


def _all_down_at_end(events, member: str, width: int) -> bool:
    """True when dropouts, net of later recoveries, leave all ``width``
    members (``event.<member>``) down once the plan's timeline ends."""
    down: set[int] = set()
    for event in sorted(
        events, key=lambda e: (e.at_time_s, getattr(e, member))
    ):
        if event.kind == "dropout":
            down.add(getattr(event, member))
        elif event.kind == "recovery":
            down.discard(getattr(event, member))
    return len(down) >= width


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
            raise ConfigError("--fleet-size must be positive")
        for event in plan.worker_events:
            if event.worker >= args.fleet_size:
                problems.append(
                    f"{event.kind} event targets {event.target} but a "
                    f"{args.fleet_size}-GPU fleet only has workers "
                    f"gpu:0..gpu:{args.fleet_size - 1}"
                )
        # A dropout with no later recovery strands the shard only if it
        # empties the whole fleet; flag the unrecoverable full wipe.
        if _all_down_at_end(plan.worker_events, "worker", args.fleet_size):
            problems.append(
                f"the plan drops all {args.fleet_size} workers with no "
                "recovery: the fleet would stall with batches unassigned"
            )
    if args.num_ssds is not None:
        if args.num_ssds <= 0:
            raise ConfigError("--num-ssds must be positive")
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
        in_range = [e for e in plan.device_events if e.device < args.num_ssds]
        if _all_down_at_end(in_range, "device", args.num_ssds):
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


def _args_storage(storage: argparse.ArgumentParser) -> None:
    _add_workload_args(storage, scale=0.05, num_ssds=4)
    _add_fault_plan_arg(
        storage,
        "FaultPlan JSON whose device events (dropout / recovery / "
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
    _add_export_args(storage)


def _cmd_storage(args: argparse.Namespace) -> int:
    """``storage``: a stepped device health / rebuild drill.

    Advances the fault timeline across ``--duration`` in ``--steps``
    observation ticks (the health monitor needs repeated EWMA samples to
    tell fail-slow from a blip), granting the rebuilder its budget each
    tick, then prints the per-device health table and rebuild progress.
    """
    from .core.readpath import StorageStack
    from .storage_ha import StorageHA

    for flag in ("num_ssds", "duration", "steps"):
        if getattr(args, flag) <= 0:
            raise ConfigError(
                f"--{flag.replace('_', '-')} must be positive"
            )
    ha_kwargs = _ha_kwargs(args)
    workload, system = _resolve_workload(args)

    plan = _load_fault_plan(args.fault_plan)
    if plan is not None and not plan.device_events:
        print(
            "note: the plan has no device events; the array stays "
            "healthy",
            file=sys.stderr,
        )
        plan = None
    stack = StorageStack(
        workload.dataset,
        system,
        fault_plan=plan,
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
        print(_dumps(block))
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


def _args_ssd_model(ssd: argparse.ArgumentParser) -> None:
    ssd.add_argument("--ssd", choices=sorted(_SSDS), default="optane")
    ssd.add_argument("--num-ssds", type=int, default=1)
    ssd.add_argument("--target", type=float, default=0.95)
    ssd.add_argument(
        "--json",
        action="store_true",
        help="print the model points as JSON instead of a table",
    )


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
        print(
            _dumps(
                {
                    "ssd": array.spec.name,
                    "num_ssds": array.num_ssds,
                    "peak_iops": array.peak_iops,
                    "peak_bandwidth_bytes": array.peak_bandwidth,
                    "target": args.target,
                    "required_overlapping": required,
                    "points": points,
                }
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


# ----------------------------------------------------------------------
# Read-only commands: registries, figures and saved-artifact analysis

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


def _load_report(path: str, loader: str | None = None) -> dict:
    """Load and validate a report export, or exit 2 with a message.

    ``repro run --format json`` writes a JSON *array* of reports (one per
    loader); ``loader`` selects one entry from such a file.  A single
    report object passes through unchanged.
    """
    from .observatory import validate_summary

    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as exc:
        _fail(f"cannot read report {path!r}: {exc}")
    if isinstance(payload, list):
        if loader is not None:
            payload = [
                entry
                for entry in payload
                if isinstance(entry, dict) and entry.get("loader") == loader
            ]
            if len(payload) != 1:
                _fail(f"{path!r} holds no report for loader {loader!r}")
            payload = payload[0]
        elif len(payload) == 1:
            payload = payload[0]
        else:
            names = [
                entry.get("loader")
                for entry in payload
                if isinstance(entry, dict)
            ]
            _fail(
                f"{path!r} holds {len(payload)} reports ({names}); pick "
                "one with --loader"
            )
    try:
        validate_summary(payload)
    except ObservatoryError as exc:
        _fail(f"{path}: {exc}")
    return payload


def _cmd_datasets(args: argparse.Namespace) -> int:
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


def _args_figure(figure: argparse.ArgumentParser) -> None:
    figure.add_argument("name", choices=sorted(_EXPERIMENTS))


def _cmd_figure(args: argparse.Namespace) -> int:
    from .bench import experiments

    fn = getattr(experiments, _EXPERIMENTS[args.name])
    print(fn().render())
    return 0


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
    """``trace``: render a saved Chrome-trace file as an ASCII timeline."""
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
    try:
        if args.request is not None:
            from .telemetry import list_trace_ids, render_request_trace

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
        elif args.json:
            print(_dumps(summarize_chrome_trace(trace)))
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


def _args_compare(compare: argparse.ArgumentParser) -> None:
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


def _cmd_compare(args: argparse.Namespace) -> int:
    """``compare``: regression gate between reports or vs the history."""
    from .observatory import (
        RunHistory,
        compare_summaries,
        compare_to_history,
    )

    if args.history is not None:
        if len(args.reports) != 1:
            raise ObservatoryError(
                "--history takes exactly one CANDIDATE report"
            )
        candidate = _load_report(args.reports[0], loader=args.loader)
        result = compare_to_history(
            candidate,
            RunHistory(args.history),
            sigma=args.sigma,
            threshold=args.threshold,
        )
    else:
        if len(args.reports) != 2:
            raise ObservatoryError(
                "compare takes BASELINE and CANDIDATE reports (or one "
                "CANDIDATE with --history)"
            )
        baseline = _load_report(args.reports[0], loader=args.loader)
        candidate = _load_report(args.reports[1], loader=args.loader)
        result = compare_summaries(
            baseline, candidate, threshold=args.threshold
        )

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


def _args_history_record(record: argparse.ArgumentParser) -> None:
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


def _cmd_history_record(args: argparse.Namespace) -> int:
    """``history record``: append one report summary to the history."""
    from .observatory import RunHistory

    summary = _load_report(args.report, loader=args.loader)
    try:
        record = RunHistory(args.dir).append(summary, label=args.label)
    except OSError as exc:
        raise ObservatoryError(str(exc)) from exc
    e2e = record.e2e_seconds
    print(
        f"recorded {record.loader} run as fingerprint "
        f"{record.fingerprint} (rev {record.git_rev}, "
        f"e2e {'-' if e2e is None else f'{e2e * 1e3:.2f} ms'}) "
        f"in {args.dir}"
    )
    return 0


def _args_history_list(hist_list: argparse.ArgumentParser) -> None:
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


def _cmd_history_list(args: argparse.Namespace) -> int:
    """``history list``: show recorded fingerprints or one trend."""
    from .observatory import RunHistory

    history = RunHistory(args.dir)
    records = history.records(args.fingerprint)
    if args.json:
        print(_dumps([record.to_dict() for record in records]))
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


# ----------------------------------------------------------------------
# Command table and entry point

#: name -> (help, add_args, handler).  ``add_args`` is ``None`` for a
#: flagless command; a dict in the handler slot is a nested command
#: group (its own table).
COMMANDS: dict[str, tuple] = {
    "datasets": ("list the dataset registry", None, _cmd_datasets),
    "run": ("compare dataloaders on a workload", _args_run, _cmd_run),
    "figure": ("regenerate one paper figure", _args_figure, _cmd_figure),
    "train": ("functional GraphSAGE training", _args_train, _cmd_train),
    "fleet": ("elastic multi-GPU sharded training in modeled time",
              _args_fleet, _cmd_fleet),
    "fullgraph": ("full-graph training as partition sweeps with activation "
                  "offload", _args_fullgraph, _cmd_fullgraph),
    "serve": ("overload-protected online inference in modeled time",
              _args_serve, _cmd_serve),
    "scrub": ("sweep a workload's feature pages against their digests",
              _args_scrub, _cmd_scrub),
    "faults": ("fault-plan tooling (validate)", None, {
        "validate": ("parse a FaultPlan JSON and cross-check its event "
                     "windows", _args_faults_validate, _cmd_faults_validate),
    }),
    "storage": ("storage-HA drill: device health and rebuild report",
                _args_storage, _cmd_storage),
    "trace": ("render a saved Chrome trace as an ASCII timeline",
              _args_trace, _cmd_trace),
    "top": ("terminal view of a live metric-snapshot stream (--stream)",
            _args_top, _cmd_top),
    "ssd-model": ("Eq. 2-3 bandwidth model", _args_ssd_model, _cmd_ssd_model),
    "analyze": ("bottleneck attribution for a saved report JSON",
                _args_analyze, _cmd_analyze),
    "compare": ("regression gate: compare reports or a report vs the history",
                _args_compare, _cmd_compare),
    "history": ("record and inspect the local run history", None, {
        "record": ("append a report summary to the run history",
                   _args_history_record, _cmd_history_record),
        "list": ("list recorded fingerprints or one trend",
                 _args_history_list, _cmd_history_list),
    }),
}


def _add_commands(
    parser: argparse.ArgumentParser, table: dict, dest: str
) -> None:
    """One subparser per table entry, recursing into command groups."""
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, (help_text, add_args, handler) in table.items():
        child = sub.add_parser(name, help=help_text)
        if add_args is not None:
            add_args(child)
        if isinstance(handler, dict):
            _add_commands(child, handler, f"{name}_command")
        else:
            child.set_defaults(handler=handler)


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
    _add_commands(parser, COMMANDS, "command")
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Every typed error a command lets escape ends here as one ``error:``
    line: exit 2 for bad input or configuration, exit 1 for the runtime
    :class:`~repro.errors.FaultError` family (a fault the run could not
    absorb — a plan *file* that does not parse is configuration).
    """
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        runtime = isinstance(exc, FaultError) and not isinstance(
            exc, ConfigError
        )
        return 1 if runtime else 2
