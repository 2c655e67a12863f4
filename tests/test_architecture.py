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
pipeline and run supervisor never probe the loader they step.

The seventh keeps one run-report document table: no exporter names a
document key as a parameter; blocks arrive as ``**blocks`` and are checked
against ``pipeline/export.DOCUMENT``.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import json
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
#: before the sweep took its planes from the stack).  What is left: one
#: construction-time choice — the server's reroute target (storage_ha) —
#: plus ``verify``'s own "is there an injector to draw corruption from".
#: Entries only shrink.
PLANE_TESTS = {
    "core/gids.py": 0,
    "serving/server.py": 1,
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
    assert sum(PLANE_TESTS.values()) <= 2
    total = sum(
        len(_none_tests(dict(SOURCES)[rel], PLANE_HANDLES))
        for rel in PLANE_TESTS
    )
    assert total <= 2


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
    """GIDS, BaM, Ginex, DGL-mmap and UVA share one seed -> sample -> serve
    -> report loop; a loader that re-grows its own ``run``, batch iterator,
    seed generator or sampler factory fails here by name."""
    loaders = _loader_classes()
    assert {"GIDSDataLoader", "BaMDataLoader", "GinexLoader",
            "DGLMmapLoader", "UVALoader"} <= loaders
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


def test_the_sampler_cutover_is_one_documented_constant():
    """One constant, one test of it, and the sweep that chose it named in
    its comment and recorded in ``BENCH_sampler.json`` at that value."""
    name = "_LIST_PATH_MAX_EDGES"
    path = SRC / "sampling" / "neighbor.py"
    assigned, read = [], []
    for rel, tree in SOURCES:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id == name:
                (assigned if isinstance(node.ctx, ast.Store) else read).append(
                    rel
                )
    assert assigned == ["sampling/neighbor.py"]
    assert read == ["sampling/neighbor.py"]
    (cutover,) = [
        node for node in dict(SOURCES)["sampling/neighbor.py"].body
        if isinstance(node, ast.Assign) and node.targets[0].id == name
    ]
    lines = path.read_text(encoding="utf-8").splitlines()
    comment = []
    for line in reversed(lines[: cutover.lineno - 1]):
        if not line.startswith("#"):
            break
        comment.append(line)
    comment = " ".join(comment)
    assert "bench_sampler.py" in comment and "cutover_sweep" in comment
    artifact = json.loads(
        (SRC.parent.parent / "BENCH_sampler.json").read_text()
    )
    sweep = artifact["cutover_sweep"]
    assert sweep["list_path_below_edges"] == cutover.value.value
    edges = {
        point["edges"]
        for block in sweep["graphs"].values()
        for point in block["points"]
    }
    assert min(edges) < cutover.value.value < max(edges), "sweep misses it"


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
