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
import sys

from ..errors import ConfigError, FaultError, ReproError
from ..utils import package_version
from . import observe, storage, workloads
from .context import RunContext

__all__ = ["COMMANDS", "RunContext", "build_parser", "main"]


#: name -> (help, add_args, handler).  ``add_args`` is ``None`` for a
#: flagless command; a dict in the handler slot is a nested command
#: group (its own table).
COMMANDS: dict[str, tuple] = {
    "datasets": ("list the dataset registry", None, observe._cmd_datasets),
    "run": ("compare dataloaders on a workload",
            workloads._args_run, workloads._cmd_run),
    "figure": ("regenerate one paper figure",
               observe._args_figure, observe._cmd_figure),
    "train": ("functional GraphSAGE training",
              workloads._args_train, workloads._cmd_train),
    "fleet": ("elastic multi-GPU sharded training in modeled time",
              workloads._args_fleet, workloads._cmd_fleet),
    "fullgraph": ("full-graph training as partition sweeps with activation "
                  "offload",
                  workloads._args_fullgraph, workloads._cmd_fullgraph),
    "serve": ("overload-protected online inference in modeled time",
              workloads._args_serve, workloads._cmd_serve),
    "scrub": ("sweep a workload's feature pages against their digests",
              storage._args_scrub, storage._cmd_scrub),
    "faults": ("fault-plan tooling (validate)", None, {
        "validate": ("parse a FaultPlan JSON and cross-check its event "
                     "windows",
                     storage._args_faults_validate,
                     storage._cmd_faults_validate),
    }),
    "storage": ("storage-HA drill: device health and rebuild report",
                storage._args_storage, storage._cmd_storage),
    "trace": ("render a saved Chrome trace as an ASCII timeline",
              observe._args_trace, observe._cmd_trace),
    "top": ("terminal view of a live metric-snapshot stream (--stream)",
            observe._args_top, observe._cmd_top),
    "ssd-model": ("Eq. 2-3 bandwidth model",
                  storage._args_ssd_model, storage._cmd_ssd_model),
    "analyze": ("bottleneck attribution for a saved report JSON",
                observe._args_analyze, observe._cmd_analyze),
    "compare": ("regression gate: compare a candidate report against a "
                "baseline",
                observe._args_compare, observe._cmd_compare),
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
