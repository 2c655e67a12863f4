"""Live metric streaming: periodic modeled-time registry snapshots.

A :class:`MetricsSnapshotter` is a sink its :class:`~repro.telemetry
.tracer.Tracer` owns: every ``every_s`` *modeled* seconds it snapshots
the tracer's *current* metrics registry, appends one JSON line to a
snapshot file and rewrites a Prometheus text-exposition file — so a
long ``repro serve`` or fleet run can be watched while it happens
(``repro top`` tails the JSONL; any Prometheus scraper can read the
exposition).  Workload loops call ``tracer.poll(now_s)`` with their
modeled clock; the snapshotter decides when a snapshot is due.  It
holds no registry or flight recorder of its own — the tracer hands
both to :meth:`poll` / :meth:`take` — so a registry the tracer replaces
(``Tracer.reset()`` at the warm-up boundary, a restore) is the one the
next line shows.

Determinism and kill/resume:

* Snapshots are taken on the modeled clock, never the wall clock, so
  identical runs emit identical snapshot sequences.
* The cadence state (``seq``, ``next_due_s``, last counter values)
  rides the tracer's ``state_dict()``.  On restore,
  :meth:`load_state_dict` rewinds the JSONL file to the checkpointed
  sequence number — dropping lines the killed run wrote after the
  checkpoint — so the finished file is byte-identical to an
  uninterrupted run's and strictly monotone in modeled time.
"""

from __future__ import annotations

import json
import os

from ..errors import TelemetryError
from ..state import Stateful, mapping, scalar
from .metrics import MetricsRegistry
from .prometheus import to_prometheus_text

#: Schema tag carried by every snapshot JSONL line.
SNAPSHOT_SCHEMA = "repro.metrics.snapshot/v1"


class MetricsSnapshotter(Stateful):
    """Emit periodic modeled-time snapshots of a metrics registry.

    Args:
        every_s: modeled-seconds cadence between snapshots.
        jsonl_path: append-mode snapshot stream (one JSON object per
            line), or ``None`` to skip.
        prom_path: Prometheus text-exposition file rewritten with the
            latest snapshot, or ``None`` to skip.
        source: workload label stamped into every line
            (``run``/``train``/``serve``/``fleet``/``fullgraph``).
    """

    def __init__(
        self,
        *,
        every_s: float,
        jsonl_path: str | None = None,
        prom_path: str | None = None,
        source: str = "run",
    ) -> None:
        if every_s <= 0:
            raise TelemetryError("snapshot cadence every_s must be positive")
        self.every_s = float(every_s)
        self.jsonl_path = jsonl_path
        self.prom_path = prom_path
        self.source = source
        self.seq = 0
        self.next_due_s = 0.0
        self.last_taken_s: float | None = None
        self._last_counters: dict[str, float] = {}
        self._truncated = False

    # ------------------------------------------------------------------
    # Streaming

    def poll(
        self, now_s: float, registry: MetricsRegistry, flight=None
    ) -> bool:
        """Snapshot ``registry`` if one is due at modeled time ``now_s``."""
        if now_s < self.next_due_s:
            return False
        self.take(now_s, registry, flight)
        return True

    def take(
        self, now_s: float, registry: MetricsRegistry, flight=None
    ) -> dict:
        """Snapshot ``registry`` unconditionally and write the outputs.

        ``flight``, when given, is noted one ``counter.deltas`` entry.
        """
        metrics = registry.to_dict()
        counters = {
            name: summary["value"]
            for name, summary in metrics.items()
            if summary["kind"] == "counter"
        }
        deltas = {
            name: value - self._last_counters.get(name, 0)
            for name, value in counters.items()
            if value != self._last_counters.get(name, 0)
        }
        line = {
            "schema": SNAPSHOT_SCHEMA,
            "source": self.source,
            "seq": self.seq,
            "modeled_time_s": float(now_s),
            "every_s": self.every_s,
            "metrics": metrics,
            "counter_deltas": deltas,
        }
        if self.jsonl_path is not None:
            mode = "a" if self._truncated or self.seq else "w"
            with open(self.jsonl_path, mode, encoding="utf-8") as handle:
                json.dump(line, handle, sort_keys=True, allow_nan=False)
                handle.write("\n")
        if self.prom_path is not None:
            with open(self.prom_path, "w", encoding="utf-8") as handle:
                handle.write(
                    f"# repro metrics exposition source={self.source} "
                    f"seq={self.seq} modeled_time_s={now_s!r}\n"
                )
                handle.write(to_prometheus_text(registry))
        if flight is not None:
            flight.note_metric_deltas(now_s, deltas)
        self.seq += 1
        self.last_taken_s = float(now_s)
        self._last_counters = counters
        self.next_due_s = float(now_s) + self.every_s
        return line

    def rebase(self) -> None:
        """Measure the next line's deltas from zero: the registry it
        reads was replaced by a blank one (``Tracer.reset()``)."""
        self._last_counters = {}

    # ------------------------------------------------------------------
    # Reporting

    def export_block(self) -> dict:
        """The snapshot part of the export's ``observability`` block."""
        return {
            "every_s": self.every_s,
            "snapshots": self.seq,
            "last_modeled_time_s": self.last_taken_s,
            "jsonl": bool(self.jsonl_path),
            "prometheus": bool(self.prom_path),
        }

    # ------------------------------------------------------------------
    # Checkpointing

    STATE_ERROR = TelemetryError
    STATE = (
        scalar("seq", int),
        scalar("next_due_s", float),
        scalar("last_taken_s", float, optional=True),
        mapping("last_counters", attr="_last_counters"),
    )

    def _state_loaded(self) -> None:
        """Drop JSONL lines a killed run wrote after this checkpoint.

        Keeping them would replay the post-checkpoint window twice and
        break the stream's modeled-time monotonicity; rewinding makes
        the resumed file byte-identical to an uninterrupted run's.
        """
        self._truncated = False
        if self.jsonl_path is None or not os.path.exists(self.jsonl_path):
            return
        kept: list[str] = []
        with open(self.jsonl_path, "r", encoding="utf-8") as handle:
            for raw in handle:
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    parsed = json.loads(raw)
                except json.JSONDecodeError as err:
                    raise TelemetryError(
                        f"corrupt snapshot line in {self.jsonl_path}: {err}"
                    ) from None
                if int(parsed.get("seq", -1)) < self.seq:
                    kept.append(raw)
        with open(self.jsonl_path, "w", encoding="utf-8") as handle:
            for raw in kept:
                handle.write(raw + "\n")
        self._truncated = True


def read_snapshots(path: str) -> list[dict]:
    """Parse a snapshot JSONL stream, validating every line.

    Raises :class:`~repro.errors.TelemetryError` on an unparseable line
    or a line with the wrong schema tag; used by ``repro top`` and the
    CI smoke job.
    """
    snapshots: list[dict] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                parsed = json.loads(raw)
            except json.JSONDecodeError as err:
                raise TelemetryError(
                    f"{path}:{lineno}: unparseable snapshot line ({err})"
                ) from None
            if parsed.get("schema") != SNAPSHOT_SCHEMA:
                raise TelemetryError(
                    f"{path}:{lineno}: unexpected schema "
                    f"{parsed.get('schema')!r}"
                )
            snapshots.append(parsed)
    return snapshots
