"""Central registry of tracer track (lane) names.

Every lane the tracer records on is declared here — the four pipeline
stages, one lane per modeled resource, and the event lanes the serving /
fleet / storage-HA / observatory layers add.  Producer modules import
their track constant from this module (or re-export it for backward
compatibility) instead of spelling the string locally, so a misspelled
lane is an import-time error rather than a silently-new Perfetto lane.

``declare_track`` is the single gate: it validates the spelling rules
(lowercase dotted identifiers) and records the name in
:data:`KNOWN_TRACKS`.  A :class:`~repro.telemetry.Tracer` constructed
with ``strict_tracks=True`` additionally rejects any span or instant
recorded on an undeclared lane at runtime.
"""

from __future__ import annotations

import re

from ..errors import TelemetryError

#: Pipeline-stage lanes (prefix ``stage.``) in execution order.
STAGE_TRACKS = (
    "stage.sampling",
    "stage.aggregation",
    "stage.transfer",
    "stage.training",
)

#: Canonical lane order of the Chrome-trace export: the four pipeline
#: stages first, then one lane per modeled resource.  Unknown tracks are
#: appended after these in first-use order.
TRACKS = STAGE_TRACKS + (
    "ssd",
    "pcie",
    "gpu.cache",
    "cpu.buffer",
    "window",
    "accumulator",
    "faults",
)

_TRACK_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)*$")

#: Every declared lane name.  Mutated only through :func:`declare_track`.
KNOWN_TRACKS: set[str] = set()


def declare_track(name: str) -> str:
    """Validate and register a track name; returns it for assignment.

    Raises :class:`~repro.errors.TelemetryError` when the name is not a
    lowercase dotted identifier — catching typos at module import time,
    where the declaration lives, instead of deep inside a run.
    """
    if not isinstance(name, str) or not _TRACK_RE.match(name):
        raise TelemetryError(
            f"invalid track name {name!r}: tracks are lowercase dotted "
            "identifiers like 'storage.ha'"
        )
    KNOWN_TRACKS.add(name)
    return name


def require_known_track(name: str) -> str:
    """Assert ``name`` is a declared lane (strict tracers call this)."""
    if name not in KNOWN_TRACKS:
        raise TelemetryError(
            f"undeclared track {name!r}; declare it in "
            "repro.telemetry.tracks (known: "
            f"{', '.join(sorted(KNOWN_TRACKS))})"
        )
    return name


for _name in TRACKS:
    declare_track(_name)

# ----------------------------------------------------------------------
# Event lanes added by the higher layers.  The owning modules re-export
# these constants so existing imports keep working; the strings live
# only here.

#: SLO alert instants (``slo.<rule>``) and brownout level changes.
ALERTS_TRACK = declare_track("alerts")

#: Per-request serving spans.
SERVING_TRACK = declare_track("serving")

#: Per-device circuit-breaker transitions.
BREAKERS_TRACK = declare_track("serving.breakers")

#: Storage high-availability: health transitions, rebuild sweeps,
#: degraded-read accounting.
HA_TRACK = declare_track("storage.ha")

#: Fleet-level events (failures, stragglers, recovery decisions).
FLEET_EVENTS_TRACK = declare_track("fleet.events")

#: Fleet gradient all-reduce spans.  Per-worker lanes (``fleet.gpu0``,
#: ``fleet.gpu1``, ...) are declared dynamically by the fleet trainer.
FLEET_ALLREDUCE_TRACK = declare_track("fleet.allreduce")

#: Per-step full-graph sweep spans.
FULLGRAPH_TRACK = declare_track("fullgraph")

#: Scrubber / digest-verification instants.
INTEGRITY_TRACK = declare_track("integrity")
