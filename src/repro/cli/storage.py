"""Storage commands: ``scrub``, ``faults validate``, ``storage`` and
``ssd-model``."""

from __future__ import annotations

import argparse
import sys

from ..bench.tables import render_table
from ..errors import ConfigError
from .context import (
    _SSDS,
    _add_export_args,
    _add_fault_plan_arg,
    _add_ha_args,
    _add_workload_args,
    _dumps,
    _ha_kwargs,
    _load_fault_plan,
    _resolve_workload,
)


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
    from ..config import SystemConfig
    from ..core.readpath import StorageStack
    from ..graph.datasets import load_scaled

    if not args.scrub_iops > 0:
        raise ConfigError("--scrub-iops must be positive")
    fault_plan = _load_fault_plan(args.fault_plan)

    # ``--scrub-iops > 0`` is what brings the stack's integrity plane up;
    # the sweep is driven by hand below, at one chosen instant.
    stack = StorageStack(
        load_scaled(args.dataset, args.scale, seed=0),
        SystemConfig(num_ssds=args.num_ssds),
        fault_plan=fault_plan,
        scrub_iops=args.scrub_iops,
    )
    ledger, scrubber = stack.ledger, stack.scrubber
    total_pages = stack.layout.total_pages

    at_time = args.at_time
    if at_time is None:
        # Default: sweep just after every storm in the plan has landed, so
        # the scan observes the poisoned steady state.
        storms = () if fault_plan is None else fault_plan.corruption_events
        at_time = max((e.at_time_s for e in storms), default=0.0) + 1e-9

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

    if args.fleet_size is not None and args.fleet_size <= 0:
        raise ConfigError("--fleet-size must be positive")
    if args.num_ssds is not None and args.num_ssds <= 0:
        raise ConfigError("--num-ssds must be positive")
    problems = plan.target_errors(
        num_ssds=args.num_ssds,
        fleet_size=args.fleet_size,
        iterations=args.iterations,
    )
    # A dropout with no later recovery strands the shard only if it empties
    # the whole fleet; flag the unrecoverable full wipe.
    if args.fleet_size is not None and _all_down_at_end(
        plan.worker_events, "worker", args.fleet_size
    ):
        problems.append(
            f"the plan drops all {args.fleet_size} workers with no "
            "recovery: the fleet would stall with batches unassigned"
        )
    # A full-array wipe with no recovery leaves nothing to serve (or
    # rebuild) from; with redundancy a partial wipe is survivable, but an
    # all-devices-down plan cannot be routed around.
    if args.num_ssds is not None and _all_down_at_end(
        [e for e in plan.device_events if e.device < args.num_ssds],
        "device",
        args.num_ssds,
    ):
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
    from ..core.readpath import StorageStack
    from ..storage_ha import StorageHA

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
    from ..sim.ssd import SSDArray

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
