"""Black-box flight recorder: a bounded ring of the most recent events.

The tracer keeps *everything* (up to its event cap); the flight recorder
keeps only the last ``capacity`` happenings — spans, instants,
breaker/brownout/storage-HA transitions (which already flow through the
tracer as instants) and per-snapshot metric deltas — exactly the
evidence needed to reconstruct the seconds before a failure.  The tracer
owns it and it rides the tracer's ``state_dict()``, so a restored run
resumes with the same recent history, and it dumps ``blackbox.json``
when something goes wrong: a :class:`~repro.errors.SimulatedCrashError`,
a fired SLO rule, or a violated invariant.

The ring is pure modeled-time data: identical runs produce identical
rings, and the dump is deterministic except for the caller-supplied
trigger string.
"""

from __future__ import annotations

import json

from ..errors import TelemetryError
from ..state import Stateful, guard, records, scalar

#: Schema tag written into every ``blackbox.json``.
BLACKBOX_SCHEMA = "repro.blackbox/v1"


class FlightRecorder(Stateful):
    """Bounded ring buffer of recent telemetry events.

    Give it to a tracer (``Tracer(flight=recorder)``) and every
    span/instant the tracer records, and every metrics snapshot's counter
    deltas, are noted automatically; ``Tracer.dump_flight`` writes it out.
    ``capacity`` bounds memory and dump size — old entries fall off the
    front.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity <= 0:
            raise TelemetryError("flight recorder capacity must be positive")
        self.capacity = capacity
        self.entries: list[dict] = []
        self.noted_total = 0
        self.trigger: str | None = None
        self.dumps = 0

    def note(
        self,
        kind: str,
        name: str,
        track: str,
        at_s: float,
        detail: dict | None = None,
    ) -> None:
        """Append one entry, evicting the oldest beyond ``capacity``."""
        self.entries.append(
            {
                "kind": kind,
                "name": name,
                "track": track,
                "at_s": float(at_s),
                "detail": dict(detail or {}),
            }
        )
        self.noted_total += 1
        overflow = len(self.entries) - self.capacity
        if overflow > 0:
            del self.entries[:overflow]

    def note_metric_deltas(
        self, at_s: float, deltas: dict[str, float]
    ) -> None:
        """Record counter movement since the previous metrics snapshot."""
        if deltas:
            self.note(
                "metrics", "counter.deltas", "alerts", at_s, dict(deltas)
            )

    # ------------------------------------------------------------------
    # Dumping

    def dump(
        self,
        path: str,
        *,
        trigger: str,
        at_s: float,
        context: dict | None = None,
    ) -> dict:
        """Write ``blackbox.json`` and return the written document.

        ``trigger`` names what went wrong (``"crash: ..."``,
        ``"slo: ..."``, ``"invariant: ..."``); ``context`` carries any
        workload-specific forensics (iteration, restart attempt, fired
        rule names).  The entries list ends with the most recent event —
        for a crash dump the caller notes the crash itself last, so the
        file's final entry *is* the crash site.
        """
        self.trigger = str(trigger)
        self.dumps += 1
        doc = {
            "schema": BLACKBOX_SCHEMA,
            "trigger": self.trigger,
            "modeled_time_s": float(at_s),
            "entry_count": len(self.entries),
            "noted_total": self.noted_total,
            "capacity": self.capacity,
            "context": dict(context or {}),
            "entries": [dict(entry) for entry in self.entries],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=1, sort_keys=True, allow_nan=False)
            handle.write("\n")
        return doc

    # ------------------------------------------------------------------
    # Reporting / checkpointing

    def export_block(self) -> dict:
        """The flight-recorder part of the export's ``observability`` block."""
        return {
            "capacity": self.capacity,
            "entries": len(self.entries),
            "noted_total": self.noted_total,
            "trigger": self.trigger,
            "dumps": self.dumps,
        }

    STATE_ERROR = TelemetryError
    STATE = (
        guard("capacity"),
        records("entries"),
        scalar("noted_total", int),
        scalar("trigger"),
        scalar("dumps", int),
    )
