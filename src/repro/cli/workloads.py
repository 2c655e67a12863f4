"""The workload commands: ``run``, ``train``, ``fleet``, ``fullgraph`` and
``serve``.

Each is *build the driver → run it → render its table* around a
:class:`~repro.cli.context.RunContext`.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..bench.tables import render_table
from ..errors import ConfigError, FaultError
from .context import (
    _SSDS,
    RunContext,
    _add_alerts_arg,
    _add_checkpoint_args,
    _add_export_args,
    _add_fault_plan_arg,
    _add_ha_args,
    _add_integrity_args,
    _add_telemetry_args,
    _add_workload_args,
    _dumps,
)


def _pipeline_factory(make_loader, feature_dim, hidden_dim, classes, **model):
    """A zero-argument ``loader + GraphSAGE -> TrainingPipeline`` builder.

    The supervisor calls it once per (re)start attempt, so the loader is
    built fresh each time while the context's tracer carries over.
    """
    from ..pipeline.runner import TrainingPipeline
    from ..training.graphsage import GraphSAGE

    def factory() -> TrainingPipeline:
        loader = make_loader()
        net = GraphSAGE(feature_dim, hidden_dim, classes, seed=0, **model)
        return TrainingPipeline(loader, net, num_classes=classes)

    return factory


def _supervise(ctx: RunContext, pipeline_factory):
    """Run ``pipeline_factory`` under the ``--checkpoint-*`` supervisor."""
    from ..checkpoint import RunSupervisor, SupervisorConfig

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
    from ..baselines.ginex import GinexLoader
    from ..baselines.mmap_loader import DGLMmapLoader
    from ..core.bam import BaMDataLoader
    from ..core.gids import GIDSDataLoader
    from ..pipeline.export import report_to_json, reports_to_comparison_csv

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
    if ctx.tracer.enabled and args.loader not in instrumented:
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
        return instrumented[kind](
            workload.dataset, system, config, fault_plan=ctx.fault_plan,
            tracer=ctx.tracer, **ctx.integrity, **ctx.ha, **common, **extra,
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
    from ..pipeline.export import report_to_json

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
    from ..config import LoaderConfig, SystemConfig
    from ..core.gids import GIDSDataLoader
    from ..graph.datasets import load_scaled

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
        return GIDSDataLoader(
            dataset, system, config, batch_size=args.batch_size,
            fanouts=(5, 5), seed=1, fault_plan=ctx.fault_plan,
            tracer=ctx.tracer, **ctx.integrity, **ctx.ha,
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
    from ..core.fleet import (
        ElasticFleetTrainer,
        FleetConfig,
        check_invariants,
        run_chaos_suite,
    )
    from ..pipeline.export import report_to_dict

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
    trainer = ElasticFleetTrainer(
        dataset,
        system,
        fleet_config,
        seed=args.seed,
        fault_plan=ctx.fault_plan,
        fanouts=ctx.workload.fanouts,
        tracer=ctx.tracer,
        **ctx.ha,
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
    from .. import state
    from ..fullgraph import FullGraphConfig, FullGraphTrainer
    from ..pipeline.export import report_to_dict
    from ..utils import format_time

    ctx = RunContext(args, "fullgraph")
    tracer = ctx.tracer

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
        )
        trainer = FullGraphTrainer(
            ctx.workload.dataset,
            ctx.system,
            config,
            fault_plan=ctx.fault_plan,
            verify_reads=args.verify_reads,
            tracer=tracer,
            **ctx.ha,
        )

        store = None
        if args.checkpoint_dir is not None:
            store = ctx.checkpoint_store()
            loaded = store.load_latest() if args.resume else None
            if loaded is not None:
                # Snapshots written before the plan guards lack the entry.
                if "plan" in loaded.payload:
                    state.load(trainer, loaded.payload["plan"], trainer.PLAN)
                trainer.load_state_dict(loaded.payload["trainer"])
                if tracer.enabled and "tracer" in loaded.payload:
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
                payload = {
                    "plan": state.save(trainer, trainer.PLAN),
                    "trainer": trainer.state_dict(),
                }
                if tracer.enabled:
                    payload["tracer"] = tracer.state_dict()
                store.save(done + ran, payload)
        result = trainer.result(target_accuracy=args.target_acc)
    except FaultError as exc:
        # A fault the storage stack could not absorb: leave the black box
        # behind, crash site last, before main() reports the error.
        now = trainer.clock_s if trainer is not None else 0.0
        ctx.dump_blackbox(f"{type(exc).__name__}: {exc}", now, crash=exc)
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
    from ..serving import PRIORITIES, ArrivalConfig, InferenceServer, ServingConfig
    from ..utils import format_rate, format_time

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
    server = InferenceServer(
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
    server.serve(args.requests)
    server.drain()
    report = server.report()
    # Serving has no RunReport: rules are evaluated against the metrics
    # registry (report-scoped rules are listed as missing).
    blocks = ctx.finish(
        None, server, name=server.name, registry=server.registry
    )
    json_printed = ctx.emit(_dumps(report.export_dict(**blocks)))
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
