"""Structure tests: one read path, one CLI run lifecycle, one state codec.

Walks ``src/repro`` with :mod:`ast` and asserts that the calls which make
up the feature-read sequence — cache probe, HA routing, fault resolution,
verification, PCIe ingress — and the constructors of the storage stack
(store, device models, placement) and its planes appear only in
``core/readpath.py`` (plus a short, named allow-list of non-driver
sites).  A workload that re-sequences the path by hand fails here by
name — and so does one that goes back to asking, per group / request /
step, whether a plane exists: ``StorageStack`` decides that once, so the
read-path modules' ``<plane> is (not) None`` tests are pinned per module
(they only shrink) and ``tracer is (not) None`` is gone from every layer
that runs per step, from the CLI and from the exporters.  The tracer owns
its flight recorder and snapshotter: no module outside ``telemetry/``
names a ``snapshotter`` attribute.

The same walk, restricted to the CLI sources, asserts that the pieces of
a run's lifecycle — fault-plan loading, the tracer and the two sinks it
is built with, SLO evaluation, the observability block, the trace file,
the stale-snapshot sweep — each have exactly one call site
(``RunContext``), that every command in the table parses, has a
handler and answers ``--help``, and that a rejection leaves as a typed
error through ``main()``, never as a ``SystemExit`` of the CLI's own.

The third group keeps checkpoint state in one codec: what a load does
about unknown, missing or one-sided snapshot keys is decided in
``state.py`` only, every class that restores itself declares a table
there, and the benchmark's shim table still finds each method it wraps
on the class it names.

The fourth keeps aggregation in one kernel: under ``training/`` a
``ufunc.at`` call exists only as the tail of ``scatter.scatter``, its rank
levels update the prefix accumulator and never write into ``out`` (no
per-level ``_update`` write-back comes back), that helper knows no
aggregator, and the ``GraphSAGE`` methods the benchmark shims stay plain
functions on the class.

The fifth keeps per-request constants out of the serving path: no
per-page generator feeding ``np.fromiter`` in ``core/``, ``faults/`` or
``integrity/``, no ``dataclasses.fields()`` walk inside a
``TransferCounters`` method, gauge handles looked up in one place in
``serving/server.py``, and one sampler cutover constant whose comment
and ``BENCH_sampler.json`` block name the sweep that chose it.

The sixth keeps one mini-batch loader contract: only ``MiniBatchLoader``
defines the seed → sample → serve → report skeleton, and the training
pipeline and run supervisor never probe the loader they step.  It also
keeps one checkpoint loop: only the run supervisor saves or loads
snapshots, and it knows its drivers by their protocol alone.

The seventh keeps one run-report document table: no exporter names a
document key as a parameter; blocks arrive as ``**blocks`` and are checked
against ``pipeline/export.DOCUMENT``.

The eighth is the census: every field of the workload configs and every
parameter of the planes' and drivers' tunable constructors is pinned by
name, so a setting added later shows up in a diff — and needs a caller
outside the tests, or it is a module constant.  Every public function,
class and method of ``src/repro`` needs a caller too, and every optional
parameter of the pinned constructors a setting: only :data:`TEST_ONLY`
names what nothing but the tests reaches.
"""

from __future__ import annotations

import ast
import collections
import importlib
import inspect
import json
import re
import sys
from pathlib import Path

import pytest

from repro.cli import COMMANDS, build_parser

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
READPATH = "core/readpath.py"
CLI = "cli/"

#: Method name -> files besides readpath.py that may call it.
STAGE_CALLS = {
    "resolve_batch": set(),
    "spike_count": set(),
    "corruption_kinds": set(),
    "unavailable_page_mask": set(),
    # StorageHA.unrepairable_count asks its own router.
    "route": {"storage_ha/ha.py"},
    "process": set(),
    "ingress_time": set(),
    # The OS page cache of the mmap baseline, and GPUSoftwareCache.warm.
    "access": {"baselines/mmap_loader.py", "cache/gpu_cache.py"},
    # The bypass split.  `fetch_features` asks again which rows the CPU
    # buffer served, so that corruption never reaches them.
    "contains": {"core/gids.py"},
}

#: Non-driver sites that build bare storage-side models: the paper-figure
#: experiments and the observatory's what-if rows price hypothetical
#: arrays and links no workload reads through.
_EXPERIMENTS = "bench/experiments.py"
_WHAT_IFS = "observatory/attribution.py"

#: Constructor name -> files besides readpath.py that may call it.
STACK_CONSTRUCTORS = {
    "FaultInjector": set(),
    "FaultySSDArray": set(),
    # The `repro storage` drill reports health on an unprotected array.
    "StorageHA": {"cli/storage.py"},
    "ConstantCPUBuffer": set(),
    # The integrity plane: one existence rule, one seeding rule.
    "CorruptionLedger": set(),
    "PageChecksummer": set(),
    "ReadVerifier": set(),
    "Scrubber": set(),
    # The storage side every driver reads through.  The ClusterGCN
    # experiment gathers its cluster batches' features from a bare store,
    # and `replay_schedule` re-fetches a finished fleet epoch's from a
    # reference store.
    "FeatureStore": {"bench/clustergcn.py", "core/fleet.py"},
    # `FaultySSDArray.effective()` derates the array it wraps, and `repro
    # ssd-model` prints the bare Eq. 2-3 curve.
    "SSDArray": {_EXPERIMENTS, _WHAT_IFS, "faults/array.py", "cli/storage.py"},
    "GPUModel": {_EXPERIMENTS},
    "PCIeLink": {_EXPERIMENTS, _WHAT_IFS},
    "make_placement": set(),
}

#: Constructors the stack reaches one layer down: it builds the owner.
BUILT_BY = {"make_placement": "storage_ha/ha.py"}


#: ``(path relative to src/repro, parsed module)`` of every source file.
SOURCES = [
    (
        path.relative_to(SRC).as_posix(),
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path)),
    )
    for path in sorted(SRC.rglob("*.py"))
]


def _calls() -> list[tuple[str, str, int]]:
    """Every ``(called name, file, line)`` in the package."""
    found = []
    for rel, tree in SOURCES:
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
    home = BUILT_BY.get(name, READPATH)
    allowed = RESTRICTED[name]
    sites = [(rel, line) for called, rel, line in CALLS if called == name]
    assert any(rel == home for rel, _ in sites), (
        f"{name}() is no longer called from {home}; update this test"
    )
    strays = [
        f"{rel}:{line}"
        for rel, line in sites
        if rel != home and rel not in allowed
    ]
    assert not strays, (
        f"{name}() belongs to the one read path ({READPATH}); "
        f"found it re-sequenced in {', '.join(strays)}"
    )


# ----------------------------------------------------------------------
# Planes are decided once

#: A comparison ``<x> is None`` / ``<x> is not None`` is a *plane test*
#: when the name or attribute on its left ends in one of these.
PLANE_HANDLES = (
    "tracer", "faults", "fault_array", "storage_ha", "verifier", "ledger",
    "scrubber", "snapshotter", "registry", "checksummer", "flight",
)

#: Read-path module -> the plane tests it may hold (48 before the stack
#: owned the question, 8 before the tracer owned the snapshotter, 4
#: before the sweep took its planes from the stack, 2 before every router
#: honoured ``avoid`` and the server stopped choosing its reroute
#: target).  What is left: ``verify``'s own "is there an injector to draw
#: corruption from".  Entries only shrink.
PLANE_TESTS = {
    "core/gids.py": 0,
    "serving/server.py": 0,
    "core/readpath.py": 1,
    "core/fleet.py": 0,
    "fullgraph/trainer.py": 0,
}

#: Where ``tracer is (not) None`` may not appear at all: everything that
#: runs per group / request / step holds a tracer that is never ``None``,
#: and so do the CLI, the exporters and the SLO monitor it is handed to.
TRACER_NEVER_NONE = (
    "cache/", "core/", "sim/", "storage_ha/", "fullgraph/",
    "serving/server.py", "serving/breaker.py", "serving/brownout.py",
    "cli/", "pipeline/export.py", "observatory/slo.py", "serving/report.py",
)

#: The handles a tracer owns: outside ``telemetry/`` nothing tests for
#: them, probes for them with ``getattr`` or names a snapshotter.
SINK_HANDLES = ("tracer", "flight", "snapshotter")


def _none_tests(tree, handles) -> list[tuple[int, str]]:
    """``(line, source)`` of every ``<handle> is (not) None`` in ``tree``."""
    found = []
    for node in ast.walk(tree):
        if not _is_none_test(node):
            continue
        left = node.left
        name = (
            left.attr if isinstance(left, ast.Attribute)
            else left.id if isinstance(left, ast.Name)
            else ""
        )
        if name.endswith(handles):
            found.append((node.lineno, ast.unparse(node)))
    return found


@pytest.mark.parametrize("rel", sorted(PLANE_TESTS))
def test_plane_tests_only_shrink(rel):
    sites = _none_tests(dict(SOURCES)[rel], PLANE_HANDLES)
    assert len(sites) <= PLANE_TESTS[rel], (
        f"{rel} asks {len(sites)} times whether a plane exists (pinned: "
        f"{PLANE_TESTS[rel]}); StorageStack decides that at construction "
        f"— run what it hands out: {sites}"
    )


def test_plane_tests_stay_under_three():
    assert sum(PLANE_TESTS.values()) <= 1
    total = sum(
        len(_none_tests(dict(SOURCES)[rel], PLANE_HANDLES))
        for rel in PLANE_TESTS
    )
    assert total <= 1


#: The one home of the device-slot rule (``TransferCounters.device_reads``).
SLOT_RULE = "sim/counters.py"


def _slot_arithmetic(tree) -> list[tuple[int, str]]:
    """``(line, source)`` of every ``... reconstruct_reads -
    ...parity_reconstructs`` and every ``storage_requests -= ...``."""

    def name(node) -> str | None:
        while isinstance(node, ast.BinOp):  # the rightmost operand
            node = node.right
        if isinstance(node, ast.Attribute):
            return node.attr
        return node.id if isinstance(node, ast.Name) else None

    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.BinOp, ast.AugAssign)):
            continue
        if not isinstance(node.op, ast.Sub):
            continue
        if isinstance(node, ast.AugAssign):
            hit = name(node.target) == "storage_requests"
        else:
            hit = (
                name(node.left) == "reconstruct_reads"
                and name(node.right) == "parity_reconstructs"
            )
        if hit:
            found.append((node.lineno, ast.unparse(node)))
    return found


def test_the_slot_rule_has_one_site():
    sites = {
        rel: found for rel, tree in SOURCES if (found := _slot_arithmetic(tree))
    }
    assert set(sites) == {SLOT_RULE}, (
        "how many SSD slots a batch occupies is TransferCounters"
        f".device_reads ({SLOT_RULE}); price batches from it instead of "
        f"re-deriving it: {sites}"
    )


def test_the_tracer_is_never_none_where_it_runs_per_step():
    strays = [
        f"{rel}:{line} ({source})"
        for rel, tree in SOURCES
        if rel.startswith(TRACER_NEVER_NONE)
        for line, source in _none_tests(tree, ("tracer",))
    ]
    assert not strays, (
        "a disabled Tracer is the one off-state (telemetry.ensure_tracer); "
        f"guard with `if tracer.enabled:` instead of {', '.join(strays)}"
    )


def _sink_probes(tree) -> list[tuple[int, str]]:
    """``(line, source)`` of every ``<sink> is (not) None`` and every
    ``getattr(x, "<sink>", ...)`` / ``getattr(<sink>, ...)`` in ``tree``."""
    found = _none_tests(tree, SINK_HANDLES)
    for call in _calls_named(tree, "getattr"):
        target, name = call.args[0], call.args[1]
        probed = (
            isinstance(name, ast.Constant) and name.value in SINK_HANDLES
        ) or ast.unparse(target).endswith(SINK_HANDLES)
        if probed:
            found.append((call.lineno, ast.unparse(call)))
    return found


def test_only_telemetry_asks_whether_a_sink_exists():
    """The tracer owns its sinks: 24 ``is None`` tests and 4 ``getattr``
    probes on tracer / flight / snapshotter handles lived outside
    ``telemetry/`` before it did."""
    strays = [
        f"{rel}:{line} ({source})"
        for rel, tree in SOURCES
        if not rel.startswith("telemetry/")
        for line, source in _sink_probes(tree)
    ]
    assert not strays, (
        "ask the tracer (tracer.enabled, tracer.poll, tracer.dump_flight, "
        f"tracer.observability_block) instead of {', '.join(strays)}"
    )


def test_no_snapshotter_attribute_outside_telemetry():
    """Drivers hold only the tracer; ``tracer.poll(now_s)`` feeds the
    snapshotter it was built with."""
    strays = [
        f"{rel}:{node.lineno}"
        for rel, tree in SOURCES
        if not rel.startswith("telemetry/")
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "snapshotter"
    ]
    assert not strays, strays


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


def test_the_cli_raises_no_system_exit():
    """Pre-flight rejections are typed errors too: they leave through
    ``main()``'s one handler (one ``error:`` line, exit 2) instead of a
    ``SystemExit(2)`` or ``sys.exit`` of their own.  argparse's exits are
    argparse's."""
    strays = []
    for rel, tree in SOURCES:
        if not rel.startswith(CLI):
            continue
        exits = _calls_named(tree, "exit") + [
            node for node in ast.walk(tree)
            if isinstance(node, ast.Raise)
            and node.exc is not None
            and "SystemExit" in ast.unparse(node.exc)
        ]
        strays += [
            f"{rel}:{node.lineno} ({ast.unparse(node)})" for node in exits
        ]
    assert not strays, f"raise a ReproError instead: {strays}"


# ----------------------------------------------------------------------
# One checkpoint-state codec

CODEC = "state.py"
RESTORERS = ("load_state_dict", "from_state_dict")

#: ``file::Class`` -> why it restores itself by hand instead of declaring
#: a table.  Entries are only ever removed.
HAND_WRITTEN_RESTORERS = {
    "telemetry/metrics.py::MetricsRegistry": (
        "dynamic keys: one entry per registered metric name; each entry "
        "is restored through its instrument's own table"
    ),
}


def _is_set_call(node) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


def _is_none_test(node) -> bool:
    return (
        isinstance(node, ast.Compare)
        and len(node.ops) == 1
        and isinstance(node.ops[0], (ast.Is, ast.IsNot))
        and isinstance(node.comparators[0], ast.Constant)
        and node.comparators[0].value is None
    )


def _skew_decision(node) -> str | None:
    """Name the hand-rolled skew check ``node`` is, if it is one."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
        if _is_set_call(node.left) or _is_set_call(node.right):
            return "key-set difference"
    if isinstance(node, ast.Compare) and len(node.ops) == 1:
        sides = (node.left, node.comparators[0])
        if isinstance(node.ops[0], (ast.Eq, ast.NotEq)):
            if any(_is_set_call(side) for side in sides):
                return "key-set comparison"
            if all(_is_none_test(side) for side in sides):
                return "None-symmetry test"
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("issubset", "issuperset")
    ):
        return "key-subset test"
    return None


def _uses_the_codec(tree) -> bool:
    return any(
        isinstance(node, ast.ImportFrom)
        and node.module is not None
        and node.module.split(".")[-1] == "state"
        for node in ast.walk(tree)
    )


def test_skew_is_decided_in_the_codec_only():
    """No table-bearing module, and no hand-written restorer, compares
    key sets or tests one-sidedness itself."""
    strays = []
    for rel, tree in SOURCES:
        if rel == CODEC:
            continue
        if _uses_the_codec(tree):
            scopes = [tree]
        else:
            scopes = [
                node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef)
                and node.name in RESTORERS
            ]
        for scope in scopes:
            for node in ast.walk(scope):
                what = _skew_decision(node)
                if what is not None:
                    strays.append(f"{rel}:{node.lineno} ({what})")
    assert not strays, (
        "what a load does about unknown, missing or one-sided keys "
        f"belongs to {CODEC}; found {', '.join(strays)}"
    )
    codec = dict(SOURCES)[CODEC]
    assert any(_skew_decision(node) for node in ast.walk(codec)), (
        f"{CODEC} no longer holds the policy; update this test"
    )


def _owns_a_table(tree, cls: ast.ClassDef) -> bool:
    def assigns_state(targets) -> bool:
        return any(
            (isinstance(t, ast.Name) and t.id == "STATE")
            or (
                isinstance(t, ast.Attribute)
                and t.attr == "STATE"
                and isinstance(t.value, ast.Name)
                and t.value.id == cls.name
            )
            for t in targets
        )

    return any(
        isinstance(node, ast.Assign) and assigns_state(node.targets)
        for node in (*cls.body, *tree.body)
    )


def test_every_restorer_owns_a_table():
    by_hand = set()
    for rel, tree in SOURCES:
        if rel == CODEC:
            continue
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            restores = any(
                isinstance(node, ast.FunctionDef) and node.name in RESTORERS
                for node in cls.body
            )
            if restores and not _owns_a_table(tree, cls):
                by_hand.add(f"{rel}::{cls.name}")
    new = sorted(by_hand - set(HAND_WRITTEN_RESTORERS))
    assert not new, (
        f"{', '.join(new)} restore a snapshot by hand; declare a STATE "
        f"table (see {CODEC}) instead"
    )
    stale = sorted(set(HAND_WRITTEN_RESTORERS) - by_hand)
    assert not stale, f"{stale} now own a table; drop them from the list"
    assert len(HAND_WRITTEN_RESTORERS) <= 1, "the list only shrinks"


# ----------------------------------------------------------------------
# One mini-batch loader contract

LOADER_BASE = "MiniBatchLoader"

#: What every loader shares and only the base defines.
LOADER_SKELETON = ("run", "iter_batches", "_seed_batches", "_build_sampler")

#: Modules that step a loader and may not ask which protocol it speaks.
LOADER_CALLERS = ("pipeline/runner.py", "checkpoint/supervisor.py")


def _classes():
    for rel, tree in SOURCES:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                yield rel, node


def _methods(cls: ast.ClassDef) -> set[str]:
    return {
        node.name for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _loader_classes() -> set[str]:
    """Names of the base, its subclasses (to a fixpoint) and any class
    that serves groups (``next_training_group``) without deriving from it."""
    loaders = {LOADER_BASE}
    grew = True
    while grew:
        grew = False
        for _, cls in _classes():
            bases = {ast.unparse(base).split(".")[-1] for base in cls.bases}
            if cls.name not in loaders and (
                bases & loaders or "next_training_group" in _methods(cls)
            ):
                loaders.add(cls.name)
                grew = True
    return loaders


def test_the_loader_skeleton_exists_once():
    """GIDS, BaM, Ginex and DGL-mmap share one seed -> sample -> serve
    -> report loop; a loader that re-grows its own ``run``, batch iterator,
    seed generator or sampler factory fails here by name."""
    loaders = _loader_classes()
    assert {"GIDSDataLoader", "BaMDataLoader", "GinexLoader",
            "DGLMmapLoader"} <= loaders
    strays, base = [], None
    for rel, cls in _classes():
        if cls.name == LOADER_BASE:
            base = _methods(cls)
            continue
        # ``run`` is a common verb elsewhere; the other three are not.
        names = LOADER_SKELETON if cls.name in loaders else LOADER_SKELETON[1:]
        strays += [
            f"{rel}::{cls.name}.{name}"
            for name in sorted(_methods(cls) & set(names))
        ]
    assert not strays, f"the loader skeleton belongs to {LOADER_BASE}: {strays}"
    assert base is not None and {"run", "iter_batches", "_build_sampler"} <= base


@pytest.mark.parametrize("rel", LOADER_CALLERS)
def test_loader_callers_do_not_probe_the_loader(rel):
    """Every loader speaks one contract, so the training pipeline and the
    run supervisor ask it nothing through ``getattr`` / ``hasattr``."""
    tree = dict(SOURCES)[rel]
    probes = [
        f"{rel}:{call.lineno} ({ast.unparse(call)})"
        for name in ("getattr", "hasattr")
        for call in _calls_named(tree, name)
        if call.args and "loader" in ast.unparse(call.args[0])
    ]
    assert not probes, probes


def test_benchmark_shim_table_still_installs(monkeypatch):
    """``benchmarks/e2e/tracing.py`` wraps ~50 ``(class, method)`` pairs
    and refuses any that is inherited or generated.  Installing it here
    turns a method moved off its class into a tier-1 failure instead of a
    failed benchmark run (``benchmarks/e2e`` is outside ``testpaths``)."""
    monkeypatch.syspath_prepend(str(SRC.parent.parent / "benchmarks" / "e2e"))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    tracing = importlib.import_module("tracing")
    try:
        recorder = tracing.install()  # RuntimeError: a pair has moved
        wrapped = recorder.wrapped
        recorder.uninstall()
    finally:
        sys.modules.pop("tracing", None)
    assert len(wrapped) >= 50
    for owner, attr, original in wrapped:
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr}"


# ----------------------------------------------------------------------
# One checkpoint loop

SUPERVISOR = "checkpoint/supervisor.py"

#: The drivers the supervisor runs, and the other stepping drivers.
DRIVERS = {"TrainingPipeline", "FullGraphTrainer", "ElasticFleetTrainer",
           "InferenceServer"}


def _store_calls(tree) -> list[ast.Call]:
    """``CheckpointStore.load_latest()`` / ``.save(iteration, payload)``
    calls; ``state.save(obj, table)`` is the state codec, not the store."""
    return [
        call for call in ast.walk(tree)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and (
            call.func.attr == "load_latest"
            or (
                call.func.attr == "save"
                and len(call.args) == 2
                and ast.unparse(call.func.value) != "state"
            )
        )
    ]


def test_only_the_supervisor_saves_and_loads_checkpoints():
    """Cadence, crash restarts and resume are one loop,
    ``RunSupervisor.run``: a command or driver that writes or loads
    snapshots itself has re-forked it, and fails here by name."""
    strays = [
        f"{rel}:{call.lineno} ({ast.unparse(call)})"
        for rel, tree in SOURCES
        if rel != SUPERVISOR
        for call in _store_calls(tree)
    ]
    assert not strays, strays
    assert len(_store_calls(dict(SOURCES)[SUPERVISOR])) == 2


def test_the_supervisor_knows_its_drivers_only_by_the_protocol():
    """No driver or loader class is imported into the supervisor, and it
    reads no ``.loader``: what it needs is the ``Driver`` protocol."""
    tree = dict(SOURCES)[SUPERVISOR]
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert not imported & (DRIVERS | _loader_classes())
    reads = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "loader"
    ]
    assert not reads, reads


# ----------------------------------------------------------------------
# One aggregation kernel

SCATTER = "training/scatter.py"


def _training_trees():
    for path in sorted((SRC / "training").glob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        yield rel, ast.parse(path.read_text(encoding="utf-8"))


def test_ufunc_at_is_the_scatter_helpers_tail_only():
    """Twelve ``np.add.at`` / ``np.maximum.at`` sites became one: an
    aggregator that scatters by hand again fails here."""
    sites = []
    for rel, tree in _training_trees():
        for function in ast.walk(tree):
            if not isinstance(function, ast.FunctionDef):
                continue
            for node in ast.walk(function):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "at"
                ):
                    sites.append((rel, function.name))
    assert sites == [(SCATTER, "scatter")]


def _scatter_function():
    tree = ast.parse((SRC / SCATTER).read_text(encoding="utf-8"))
    (function,) = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "scatter"
    ]
    return tree, function


def test_scatter_levels_write_the_accumulator_not_out():
    """Each rank level is one ufunc on a prefix of the accumulator; the
    gather / op / fancy-index write-back per level stays gone."""
    tree, function = _scatter_function()
    (loop,) = [node for node in function.body if isinstance(node, ast.For)]
    stores = [
        f"line {node.lineno}"
        for node in ast.walk(loop)
        if isinstance(node, ast.Subscript)
        and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name)
        and node.value.id == "out"
    ]
    assert not stores, f"scatter's level loop writes into out: {stores}"
    defined = {
        node.name for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
    }
    assert "_update" not in defined
    writes = [
        node for node in ast.walk(function)
        if isinstance(node, ast.Assign)
        and isinstance(node.targets[0], ast.Subscript)
        and ast.unparse(node.targets[0].value) == "out"
    ]
    assert len(writes) == 1, "one write-back of the accumulator"


def test_scatter_helper_has_no_aggregator_branch():
    """No name, attribute or string literal of ``scatter.py`` is an
    aggregator: what differs per aggregator stays in ``graphsage.py``."""
    from repro.training.graphsage import AGGREGATORS

    tree = ast.parse((SRC / SCATTER).read_text(encoding="utf-8"))
    words = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            words.add(node.id)
        elif isinstance(node, ast.Attribute):
            words.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            words.add(node.value)
    assert not words & {*AGGREGATORS, "aggregator"}


def test_shimmed_graphsage_methods_are_plain_functions():
    """``benchmarks/e2e/tracing.py`` wraps these by name and refuses
    anything but a function defined on the class / in the module."""
    from repro.training import graphsage

    for name in (
        "gradients",
        "apply_gradients",
        "layer_forward_block",
        "layer_backward_block",
    ):
        assert inspect.isfunction(vars(graphsage.GraphSAGE).get(name)), name
    assert inspect.isfunction(vars(graphsage).get("average_gradients"))


# ----------------------------------------------------------------------
# No per-request constant on the serving path


def _functions(tree):
    return [
        node for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


def _calls_named(tree, name):
    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == name
    ]


def test_no_per_page_generator_feeds_fromiter_in_the_planes():
    """``np.fromiter(<genexpr>)`` steps the interpreter once per page:
    ``int(p) in set`` per page was 48% of a ``loader-planes`` profile, and
    the fleet's peer probe paid the same per page.  A page mask is one
    vectorised membership (``np.isin``, ``GPUSoftwareCache.resident_mask``)."""
    strays = [
        f"{rel}:{call.lineno}"
        for rel, tree in SOURCES
        if rel.startswith(("core/", "faults/", "integrity/"))
        for call in _calls_named(tree, "fromiter")
        if call.args and isinstance(call.args[0], ast.GeneratorExp)
    ]
    assert not strays, strays


def test_transfer_counters_methods_do_not_walk_dataclass_fields():
    """``merge`` / ``publish`` / ``snapshot`` run per iteration and per
    served request; the field names are a module-level tuple."""
    tree = dict(SOURCES)["sim/counters.py"]
    (cls,) = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == "TransferCounters"
    ]
    strays = [
        f"{function.name}:{call.lineno}"
        for function in _functions(cls)
        for call in _calls_named(function, "fields")
    ]
    assert not strays, strays
    assert _calls_named(tree, "fields"), "the module-level tuple is gone"


def test_server_resolves_gauge_handles_in_one_place():
    """``registry.gauge(name)`` is a dict lookup behind a closure; the
    server does it where it resolves its handles and nowhere per step."""
    tree = dict(SOURCES)["serving/server.py"]
    owners = {
        function.name
        for function in _functions(tree)
        if _calls_named(function, "gauge")
    }
    assert owners == {"_publish_gauges"}


def _one_documented_constant(name, rel, bench, block, artifact):
    """The value of a tuning constant assigned and read in ``rel`` only,
    whose comment names the benchmark and the artifact block that chose
    it; returns ``(value, that block)``."""
    path = SRC / rel
    assigned, read = [], []
    for source, tree in SOURCES:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id == name:
                (assigned if isinstance(node.ctx, ast.Store) else read).append(
                    source
                )
    assert assigned == [rel]
    assert read == [rel]
    (constant,) = [
        node for node in dict(SOURCES)[rel].body
        if isinstance(node, ast.Assign)
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id == name
    ]
    lines = path.read_text(encoding="utf-8").splitlines()
    comment = []
    for line in reversed(lines[: constant.lineno - 1]):
        if not line.startswith("#"):
            break
        comment.append(line)
    comment = " ".join(comment)
    assert bench in comment and block in comment
    recorded = json.loads((SRC.parent.parent / artifact).read_text())
    module = importlib.import_module("repro." + rel[:-3].replace("/", "."))
    return getattr(module, name), recorded[block]


def test_the_sampler_cutover_is_one_documented_constant():
    """One constant, one test of it, and the sweep that chose it named in
    its comment and recorded in ``BENCH_sampler.json`` at that value."""
    cutover, sweep = _one_documented_constant(
        "_LIST_PATH_MAX_EDGES", "sampling/neighbor.py", "bench_sampler.py",
        "cutover_sweep", "BENCH_sampler.json",
    )
    assert sweep["list_path_below_edges"] == cutover
    edges = {
        point["edges"]
        for block in sweep["graphs"].values()
        for point in block["points"]
    }
    assert min(edges) < cutover < max(edges), "sweep misses it"


def test_the_scatter_plan_crossover_is_one_documented_constant():
    """The element count below which ``scatter`` skips the rank plan: one
    constant, and the sweep that chose it — both value dtypes, points on
    both sides — recorded in ``BENCH_training_kernels.json`` at it."""
    crossover, sweep = _one_documented_constant(
        "_PLAN_MIN_ELEMENTS", "training/scatter.py",
        "bench_training_kernels.py", "plan_crossover",
        "BENCH_training_kernels.json",
    )
    assert sweep["plan_min_elements"] == crossover
    for dtype in ("float64", "float32->float64"):
        elements = {
            point["elements"]
            for point in sweep["points"]
            if point["values"] == dtype
        }
        assert min(elements) < crossover < max(elements), dtype


def test_one_eviction_draw_per_batch():
    """``GPUSoftwareCache`` draws a batch's victims in one call: one site
    reads the eviction RNG, and it calls ``choice``.  No RNG state is
    assigned (a rewind), and the per-event eviction walk — ``_evict_one``
    and the ``_EVICTS`` event flags — does not come back."""
    tree = dict(SOURCES)["cache/gpu_cache.py"]
    rewinds = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
        for target in (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        if isinstance(target, ast.Attribute) and target.attr == "state"
        and getattr(target.value, "attr", None) == "bit_generator"
    ]
    assert not rewinds, rewinds
    reads = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "_rng"
        and isinstance(node.ctx, ast.Load)
    ]
    draws = [
        call for call in ast.walk(tree)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
        and call.func.value in reads
    ]
    assert len(reads) == 1 and len(draws) == 1, [n.lineno for n in reads]
    assert draws[0].func.attr == "choice"
    names = {
        node.name for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    } | {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
    }
    assert not names & {"_evict_one", "_EVICTS", "_APPENDS"}


def test_the_run_min_cutover_is_one_documented_constant():
    """The batch length below which the cache walks page by page: one
    constant, and the sweep that chose it — each recorded stream re-cut
    into calls of k pages, on both sides of it — in
    ``BENCH_gpu_cache.json`` at that value."""
    run_min, sweep = _one_documented_constant(
        "_RUN_MIN", "cache/gpu_cache.py", "bench_gpu_cache.py",
        "run_min_sweep", "BENCH_gpu_cache.json",
    )
    assert sweep["run_min"] == run_min
    for name, points in sweep["streams"].items():
        swept = {int(k) for k in points}
        assert min(swept) < run_min < max(swept), name


def test_the_feature_hash_block_is_one_documented_constant():
    """``FeatureStore._synthetic``'s block size, and the sweep that chose
    it recorded in ``BENCH_training_kernels.json`` at that value."""
    block, fetch = _one_documented_constant(
        "_BLOCK_ELEMENTS", "storage/feature_store.py",
        "bench_training_kernels.py", "synthetic_fetch",
        "BENCH_training_kernels.json",
    )
    assert fetch["block_elements"] == block
    swept = {int(size) for size in fetch["block_sweep_us"]}
    assert min(swept) < block < max(swept), "sweep misses it"


# ----------------------------------------------------------------------
# One run-report document table

#: File -> the functions in it that write a run-report document.
EXPORTERS = {
    "pipeline/export.py": ("run_document", "report_to_dict", "report_to_json"),
    "serving/report.py": ("export_dict",),
}


def test_exporters_take_blocks_by_table_row_name():
    """Ten block keywords lived on ``report_to_dict`` and five on
    ``ServingReport.export_dict``; an exporter that names a document key
    as a parameter again fails here by name."""
    from repro.pipeline.export import DOCUMENT

    rows = {row.name for row in DOCUMENT}
    found = {}
    for rel, names in EXPORTERS.items():
        for node in ast.walk(dict(SOURCES)[rel]):
            if isinstance(node, ast.FunctionDef) and node.name in names:
                args = node.args
                params = {
                    arg.arg
                    for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs)
                }
                found[f"{rel}::{node.name}"] = (params & rows, args.kwarg)
    assert len(found) == sum(len(names) for names in EXPORTERS.values())
    strays = {name: sorted(keys) for name, (keys, _) in found.items() if keys}
    assert not strays, (
        "document keys are DOCUMENT rows, passed as **blocks: "
        f"{strays}"
    )
    assert all(kwarg is not None for _, kwarg in found.values())


# ----------------------------------------------------------------------
# The knob census

#: Config dataclass -> its fields, in order.
CONFIG_FIELDS = {
    "repro.serving:ServingConfig": ("protection", "slo_p99_s"),
    "repro.core.fleet:FleetConfig": (
        "num_gpus", "batch_size", "shard_mode", "peer_cache",
        "straggler_patience", "breaker_min_samples",
    ),
    "repro.serving:ArrivalConfig": (
        "shape", "rate", "seed", "priority_mix", "deadline_s", "period_s",
        "amplitude",
    ),
    "repro.checkpoint:SupervisorConfig": (
        "checkpoint_every", "watchdog_stall_threshold_s",
    ),
    "repro.fullgraph:FullGraphConfig": (
        "hidden_dim", "num_classes", "num_layers", "aggregator", "lr",
        "momentum", "hbm_budget_bytes", "num_partitions", "halo_fraction",
        "io_overlap", "model_seed", "partition_seed", "label_seed",
        "refine_passes",
    ),
    "repro.core:DynamicAccessAccumulator": (
        "array", "target_fraction", "max_merged_iterations",
    ),
}

#: Constructor -> its parameters, in order.
CONSTRUCTOR_PARAMETERS = {
    "repro.baselines:GinexLoader": (
        "dataset", "system", "batch_size", "fanouts", "features", "seed",
        "fault_plan", "retry_policy", "verify_reads", "verify_sample_rate",
    ),
    "repro.integrity:ReadVerifier": (
        "ledger", "mode", "sample_rate", "seed", "checksummer",
    ),
    "repro.storage_ha:DeviceHealthMonitor": (
        "num_devices", "base_latency_s", "tracer",
    ),
    "repro.sampling:ClusterSampler": (
        "graph", "partition", "clusters_per_batch", "num_layers", "seed",
    ),
    "repro.core:GIDSDataLoader": (
        "dataset", "system", "config", "batch_size", "fanouts",
        "sampler_kind", "layer_sizes", "hetero_fanouts", "features",
        "hot_nodes", "seed", "fault_plan", "retry_policy", "verify_reads",
        "verify_sample_rate", "scrub_iops", "replication", "parity",
        "rebuild_iops", "tracer",
    ),
    "repro.serving:InferenceServer": (
        "dataset", "system", "config", "arrival", "serving", "fanouts",
        "hot_nodes", "seed", "fault_plan", "retry_policy", "replication",
        "parity", "rebuild_iops", "tracer",
    ),
    "repro.baselines:DGLMmapLoader": (
        "dataset", "system", "batch_size", "fanouts", "sampler_kind",
        "layer_sizes", "threads", "features", "seed",
    ),
}


def _resolve(name: str):
    module, _, attr = name.partition(":")
    return getattr(importlib.import_module(module), attr)


def test_every_knob_is_in_the_census():
    """Fifty settings nothing but tests set became constants; a knob added
    back — or a new one — fails here by name until the census lists it."""
    import dataclasses

    fields = {
        name: tuple(
            f.name for f in dataclasses.fields(_resolve(name)) if f.init
        )
        for name in CONFIG_FIELDS
    }
    params = {
        name: tuple(inspect.signature(_resolve(name)).parameters)
        for name in CONSTRUCTOR_PARAMETERS
    }
    assert fields == CONFIG_FIELDS
    assert params == CONSTRUCTOR_PARAMETERS


# ----------------------------------------------------------------------
# The name census

ROOT = SRC.parent.parent
#: Where a reference makes a name live.  Tests are not callers.
CALLER_TREES = ("src/repro", "benchmarks", "examples")

#: Public names nothing but the tests reaches, each kept for a reason.
TEST_ONLY = {
    # Constructor parameters.
    "features": "the only way to train on real feature arrays; that "
    "waits until datasets can be in the repository",
    "verify_sample_rate": "the pinned sampled-verify goldens detect "
    "corruption only at its test value of 0.5: another value moves "
    "modeled artifacts",
    "watchdog_stall_threshold_s": "the supervisor's only stall trigger, "
    "on the driver's modeled clock for every driver; the exported "
    "checkpoint_summary counts its watchdog_stalls, so the path cannot go "
    "without changing the export",
    # Observation points their tests need.
    "verify_payload": "PageChecksummer's real CRC comparison, which the "
    "tests use to prove detection",
    "to_json": "FaultPlan's writer of a public input format",
    "pending_reuse": "the GPU cache's window-pin state",
    "num_pinned": "the GPU cache's window-pin state",
    "num_pending": "the GPU cache's window-pin state",
    "state_of": "DeviceHealthMonitor's per-device verdict",
    "unrepairable_count": "StorageHA's lost-page count",
    "with_ssd": "SystemConfig's storage swap",
    # Library phases.
    "bfs_partition": "partition_graph's growth phase, which it runs on the "
    "undirected CSR it shares with refinement instead of by name",
    "refine_partition": "partition_graph's refinement phase, which it runs "
    "on the undirected CSR it shares with growth instead of by name",
}


def _caller_modules():
    """Every parsed module a caller may live in, tests excluded."""
    trees = [tree for _, tree in SOURCES]
    for top in CALLER_TREES[1:]:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name.startswith("test_") or path.name == "conftest.py":
                continue
            trees.append(ast.parse(path.read_text(encoding="utf-8")))
    return trees


def _is_all(node) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    )


def _references() -> set[str]:
    """Every identifier a caller names: ``Name`` and ``Attribute`` nodes,
    keywords, identifier strings (``getattr`` / shim tables / state keys;
    ``__all__`` lists are re-exports, not callers) and the words of the CI
    workflow."""
    names, skip = set(), set()
    for tree in _caller_modules():
        for node in ast.walk(tree):
            if _is_all(node):
                skip.update(id(n) for n in ast.walk(node.value))
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.keyword) and node.arg:
                names.add(node.arg)
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and node.value.isidentifier()
                and id(node) not in skip
            ):
                names.add(node.value)
    for path in (ROOT / ".github").rglob("*.yml"):
        names.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    return names


def _public_definitions():
    """``(file, qualified name, name)`` of every public function, class
    and method of the package (dunders and ``_private`` names excluded)."""
    found = []

    def visit(rel, body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    found.append((rel, prefix + node.name, node.name))
                if isinstance(node, ast.ClassDef):
                    visit(rel, node.body, f"{prefix}{node.name}.")

    for rel, tree in SOURCES:
        visit(rel, tree.body, "")
    return found


def _defaulted(args) -> list[tuple[str, str]]:
    """``(parameter, dumped default)`` of each parameter with a default."""
    positional = [*args.posonlyargs, *args.args]
    pairs = list(zip(positional[len(positional) - len(args.defaults):],
                     args.defaults))
    pairs += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults)
              if d is not None]
    return [(arg.arg, ast.dump(default)) for arg, default in pairs]


def _settings() -> set[str]:
    """Every parameter a caller sets: a keyword, or a string key of a dict
    literal (passed on as ``**kwargs``).  ``x=x`` inside a function whose
    own ``x`` defaults to what another definition's ``x`` defaults to is
    a pass-through under the callee's default, not a setting."""
    shared = collections.Counter(
        pair
        for _, tree in SOURCES
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        for pair in _defaulted(node.args)
    )
    found = set()

    def visit(node, own):
        if isinstance(node, ast.FunctionDef):
            own = dict(_defaulted(node.args))
        elif isinstance(node, ast.keyword) and node.arg:
            passed_through = (
                isinstance(node.value, ast.Name)
                and node.value.id == node.arg
                and shared[node.arg, own.get(node.arg)] > 1
            )
            if not passed_through:
                found.add(node.arg)
        elif isinstance(node, ast.Dict):
            found.update(
                key.value for key in node.keys
                if isinstance(key, ast.Constant) and isinstance(key.value, str)
            )
        for child in ast.iter_child_nodes(node):
            visit(child, own)

    for tree in _caller_modules():
        visit(tree, {})
    return found


def test_every_public_name_has_a_caller():
    """A public function, class or method that only its own tests reach is
    deleted, or named in :data:`TEST_ONLY` with the reason it stays."""
    references = _references()
    orphans = sorted(
        f"{rel}:{qualified}"
        for rel, qualified, name in _public_definitions()
        if name not in references and name not in TEST_ONLY
    )
    assert not orphans, f"public names with no caller outside the tests: {orphans}"


def test_every_optional_parameter_of_the_census_is_set():
    """Each optional parameter of a pinned constructor or config is set
    by a caller outside the tests (a pass-through under the same default
    does not count), or named in :data:`TEST_ONLY`."""
    settings = _settings()
    unset = []
    for name in [*CONFIG_FIELDS, *CONSTRUCTOR_PARAMETERS]:
        for parameter in inspect.signature(_resolve(name)).parameters.values():
            if (
                parameter.default is not inspect.Parameter.empty
                and parameter.name not in settings
                and parameter.name not in TEST_ONLY
            ):
                unset.append(f"{name}({parameter.name})")
    assert not unset, f"knobs only the tests set: {unset}"


def test_test_only_names_still_exist():
    """The allow-list cannot outlive what it names."""
    defined = {name for _, _, name in _public_definitions()}
    for names in [*CONFIG_FIELDS.values(), *CONSTRUCTOR_PARAMETERS.values()]:
        defined.update(names)
    assert set(TEST_ONLY) <= defined
