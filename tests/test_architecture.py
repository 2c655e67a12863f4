"""Structure tests: one read path, one CLI run lifecycle.

Walks ``src/repro`` with :mod:`ast` and asserts that the calls which make
up the feature-read sequence — cache probe, HA routing, fault resolution,
verification, PCIe ingress — and the constructors of the storage stack
appear only in ``core/readpath.py`` (plus a short, named allow-list).  A
workload that re-sequences the path by hand fails here by name.

The same walk, restricted to the CLI sources, asserts that the pieces of
a run's lifecycle — fault-plan loading, the tracer / flight recorder /
snapshotter triple, SLO evaluation, the observability block, the trace
file, the stale-snapshot sweep — each have exactly one call site
(``RunContext``), and that every command in the table parses, has a
handler and answers ``--help``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.cli import COMMANDS, build_parser

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
READPATH = "core/readpath.py"
CLI = "cli/"

#: Method name -> files besides readpath.py that may call it.
STAGE_CALLS = {
    # Ginex is the CPU-initiated baseline: its own (non-GIDS) read path.
    "resolve_batch": {"baselines/ginex.py"},
    "spike_count": {"baselines/ginex.py"},
    "corruption_kinds": set(),
    "unavailable_page_mask": set(),
    # StorageHA.unrepairable_count asks its own router.
    "route": {"storage_ha/ha.py"},
    "process": set(),
    "ingress_time": set(),
    # The OS page cache of the mmap baseline, and GPUSoftwareCache.warm.
    "access": {"baselines/mmap_loader.py", "cache/gpu_cache.py"},
}

#: Constructor name -> files besides readpath.py that may call it.
STACK_CONSTRUCTORS = {
    "FaultySSDArray": set(),
    # The `repro storage` drill reports health on an unprotected array.
    "StorageHA": {"cli/storage.py"},
    "ConstantCPUBuffer": set(),
}


def _calls() -> list[tuple[str, str, int]]:
    """Every ``(called name, file, line)`` in the package."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=rel)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute):
                owner = func.value
                if isinstance(owner, ast.Name) and owner.id == "readpath":
                    continue  # a stage of the read path itself
                found.append((func.attr, rel, node.lineno))
            elif isinstance(func, ast.Name):
                found.append((func.id, rel, node.lineno))
    return found


CALLS = _calls()


RESTRICTED = {**STAGE_CALLS, **STACK_CONSTRUCTORS}


@pytest.mark.parametrize("name", sorted(RESTRICTED))
def test_only_the_read_path_calls(name):
    allowed = RESTRICTED[name]
    sites = [(rel, line) for called, rel, line in CALLS if called == name]
    assert any(rel == READPATH for rel, _ in sites), (
        f"{name}() is no longer called from {READPATH}; update this test"
    )
    strays = [
        f"{rel}:{line}"
        for rel, line in sites
        if rel != READPATH and rel not in allowed
    ]
    assert not strays, (
        f"{name}() belongs to the one read path ({READPATH}); "
        f"found it re-sequenced in {', '.join(strays)}"
    )


# ----------------------------------------------------------------------
# The CLI's one run lifecycle

#: Each of these is a step of the lifecycle ``RunContext`` owns; a second
#: call site under the CLI sources is a command re-forking it by hand.
LIFECYCLE_CALLS = (
    "Tracer",
    "FlightRecorder",
    "MetricsSnapshotter",
    "SLOMonitor",
    "observability_block",
    "write_chrome_trace",
    "from_json_file",  # FaultPlan.from_json_file
    "unlink",  # os.unlink: the stale-snapshot sweep
)


@pytest.mark.parametrize("name", LIFECYCLE_CALLS)
def test_cli_lifecycle_step_has_one_call_site(name):
    sites = [
        f"{rel}:{line}"
        for called, rel, line in CALLS
        if called == name and rel.startswith(CLI)
    ]
    assert len(sites) == 1, (
        f"{name}() belongs to the one run lifecycle (RunContext); "
        f"found {len(sites)} call sites: {', '.join(sites) or 'none'}"
    )


def _command_paths(table=COMMANDS, prefix=()):
    for name, (_, _, handler) in table.items():
        if isinstance(handler, dict):
            yield from _command_paths(handler, prefix + (name,))
        else:
            yield prefix + (name,)


@pytest.mark.parametrize("path", sorted(_command_paths()), ids=" ".join)
def test_every_command_has_a_handler_and_help(path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args([*path, "--help"])
    assert excinfo.value.code == 0
    assert "usage: repro " + " ".join(path) in capsys.readouterr().out
    table = COMMANDS
    for name in path[:-1]:
        table = table[name][2]
    _, add_args, handler = table[path[-1]]
    assert callable(handler)
    assert add_args is None or callable(add_args)


def test_typed_errors_exit_in_one_place():
    """``main()`` owns the only ``except ReproError`` in the CLI.

    Commands let typed errors escape (``fullgraph`` catches the narrower
    ``FaultError`` to leave its black box, then re-raises).
    """
    handlers = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if not rel.startswith(CLI):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                if "ReproError" in ast.unparse(node.type):
                    handlers.append(f"{rel}:{node.lineno}")
    assert len(handlers) == 1, handlers
