"""Structure test: the read path exists once, in ``repro.core.readpath``.

Walks ``src/repro`` with :mod:`ast` and asserts that the calls which make
up the feature-read sequence — cache probe, HA routing, fault resolution,
verification, PCIe ingress — and the constructors of the storage stack
appear only in ``core/readpath.py`` (plus a short, named allow-list).  A
workload that re-sequences the path by hand fails here by name.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
READPATH = "core/readpath.py"

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
    "StorageHA": {"cli.py"},
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
