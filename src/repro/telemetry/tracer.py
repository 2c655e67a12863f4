"""Modeled-time span tracer.

Every duration this repository reports is *simulated hardware time*, so the
tracer records spans on the modeled clock rather than wall clock: the
instrumented code tells the tracer when (in modeled seconds) an activity
started and how long it took.  Spans live on named *tracks* — one lane per
modeled resource (SSD array, PCIe link, GPU software cache, constant CPU
buffer, window buffer, accumulator, fault machinery) plus one lane per
pipeline stage — which is exactly the lane layout the Chrome-trace exporter
emits.

Design constraints:

* **Zero cost when disabled, and one off-state.**  ``Tracer(enabled=False)``
  is the only "off": whoever holds a tracer holds one that is never
  ``None`` (:func:`ensure_tracer` turns an absent argument into a private
  disabled tracer), and guards its instrumentation with one attribute test
  — ``if tracer.enabled:`` / ``if tracer.want_request_detail:`` — so an
  untraced run makes no call into the tracer on any group, request or
  step.  Both switches are fixed at construction.
* **Deterministic.**  The tracer never reads the wall clock; identical runs
  produce byte-identical traces.
* **Checkpointable.**  ``state_dict``/``load_state_dict`` round-trip the
  full recorded state through the PR 2 snapshot path so a killed-and-resumed
  run emits one seamless trace.
* **One owner of the sinks.**  The flight recorder and the metrics
  snapshotter are given to the tracer at construction and ride its state;
  drivers hold only the tracer and call :meth:`Tracer.poll` where their
  modeled clock advances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

from ..errors import TelemetryError
from ..state import Stateful, child, guard, scalar, seq
from .context import TraceContext, _ActiveContext
from .metrics import MetricsRegistry
from .tracks import STAGE_TRACKS, TRACKS, require_known_track

#: Tracing granularities: ``stage`` records per-iteration stage spans only;
#: ``request`` additionally records per-group resource spans and instant
#: events (cache evictions, window pin/unpin, accumulator re-solves...).
DETAIL_LEVELS = ("stage", "request")


@dataclass(frozen=True, slots=True)
class Span:
    """One closed interval of modeled time on one track."""

    name: str
    track: str
    start_s: float
    duration_s: float
    args: dict = field(default_factory=dict)

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "track": self.track,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "args": dict(self.args),
        }

    @classmethod
    def from_dict(cls, state: dict) -> "Span":
        return cls(
            name=str(state["name"]),
            track=str(state["track"]),
            start_s=float(state["start_s"]),
            duration_s=float(state["duration_s"]),
            args=dict(state.get("args", {})),
        )


@dataclass(frozen=True, slots=True)
class Instant:
    """A zero-duration marker event on one track."""

    name: str
    track: str
    at_s: float
    args: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "track": self.track,
            "at_s": self.at_s,
            "args": dict(self.args),
        }

    @classmethod
    def from_dict(cls, state: dict) -> "Instant":
        return cls(
            name=str(state["name"]),
            track=str(state["track"]),
            at_s=float(state["at_s"]),
            args=dict(state.get("args", {})),
        )


class _NullSpan:
    """No-op handle returned by a disabled tracer's :meth:`Tracer.span`."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def end(self, end_s: float) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _OpenSpan:
    """Context-manager handle for a span whose end is not yet known.

    Child spans recorded while the handle is open extend the parent: on
    exit the span closes at the explicit :meth:`end` time if one was given,
    else at the maximum of its start, the tracer's modeled clock and its
    children's end times — so nested instrumentation composes without the
    outer code re-deriving totals.
    """

    __slots__ = ("_tracer", "_name", "_track", "_start_s", "_args", "_end_s",
                 "_mark")

    def __init__(self, tracer, name, track, start_s, args) -> None:
        self._tracer = tracer
        self._name = name
        self._track = track
        self._start_s = start_s
        self._args = args
        self._end_s: float | None = None
        self._mark = 0

    def end(self, end_s: float) -> None:
        """Close the span explicitly at modeled time ``end_s``."""
        if end_s < self._start_s:
            raise TelemetryError(
                f"span {self._name!r} cannot end at {end_s} before its "
                f"start {self._start_s}"
            )
        self._end_s = float(end_s)

    def __enter__(self) -> "_OpenSpan":
        self._mark = len(self._tracer.spans)
        return self

    def __exit__(self, *exc) -> bool:
        end = self._end_s
        if end is None:
            end = max(self._start_s, self._tracer.clock_s)
            for child in self._tracer.spans[self._mark:]:
                end = max(end, child.end_s)
        self._tracer.record(
            self._name,
            self._track,
            start_s=self._start_s,
            duration_s=end - self._start_s,
            **self._args,
        )
        return False


def _event(cls, stored):
    """One stored event back as a ``cls``: from its row, or from the
    per-event dict (``to_dict``) that snapshots held before rows."""
    if isinstance(stored, dict):
        return cls.from_dict(stored)
    return cls(*stored[:-1], dict(stored[-1]))


class Tracer(Stateful):
    """Collects modeled-time spans, instants and metrics for one run.

    Args:
        enabled: master switch; a disabled tracer records nothing and every
            entry point is a constant-time no-op.
        detail: ``"stage"`` or ``"request"`` (see :data:`DETAIL_LEVELS`).
        max_events: safety cap on recorded spans + instants (CLI:
            ``--trace-cap``).  When reached, further events are dropped,
            :attr:`truncated` is set and every drop increments the
            ``telemetry.dropped_events`` counter — the cap is never
            silent: exports, summaries and the metrics stream surface it.
        strict_tracks: reject spans/instants on tracks not declared in
            :mod:`repro.telemetry.tracks` (the CLI enables this; library
            users may record on ad-hoc lanes with the default ``False``).
        flight: optional :class:`~repro.telemetry.flight.FlightRecorder`
            fed every recorded event and every snapshot's counter deltas.
        snapshotter: optional :class:`~repro.telemetry.snapshot
            .MetricsSnapshotter` that :meth:`poll` drives over the tracer's
            current registry.  Both sinks need an enabled tracer.
    """

    def __init__(
        self,
        *,
        enabled: bool = True,
        detail: str = "stage",
        max_events: int = 200_000,
        strict_tracks: bool = False,
        flight=None,
        snapshotter=None,
    ) -> None:
        if detail not in DETAIL_LEVELS:
            raise TelemetryError(
                f"unknown trace detail {detail!r}; expected one of "
                f"{DETAIL_LEVELS}"
            )
        if max_events <= 0:
            raise TelemetryError("max_events must be positive")
        if not enabled and (flight is not None or snapshotter is not None):
            raise TelemetryError("a disabled tracer feeds no sinks")
        self.enabled = enabled
        self.detail = detail
        #: True when per-request/per-resource events should be recorded.
        self.want_request_detail = enabled and detail == "request"
        self.max_events = max_events
        self.strict_tracks = strict_tracks
        #: Modeled-time cursor components advance instants against.
        self.clock_s = 0.0
        #: Next pipeline-iteration index (used to label stage spans and
        #: checkpointed so resumed traces continue the numbering).
        self.iteration = 0
        self.spans: list[Span] = []
        self.instants: list[Instant] = []
        self.truncated = False
        self.metrics = MetricsRegistry()
        #: Active causal context; events record its trace_id + sequence.
        self._context: TraceContext | None = None
        #: Black-box flight recorder fed every recorded event, or None.
        self.flight = flight
        #: Live-metrics snapshotter driven by :meth:`poll`, or None.
        self.snapshotter = snapshotter

    # ------------------------------------------------------------------
    # Recording

    @property
    def recording(self) -> "Tracer | None":
        """``self`` while enabled, else ``None`` — what a holder's
        ``child("tracer", "tracer.recording", lenient=True)`` field saves,
        so a disabled tracer leaves a snapshot as an absent one did."""
        return self if self.enabled else None

    def _room(self) -> bool:
        if len(self.spans) + len(self.instants) >= self.max_events:
            self.truncated = True
            self.metrics.counter("telemetry.dropped_events").inc()
            return False
        return True

    # ------------------------------------------------------------------
    # Causal contexts / flight recorder

    def context(self, context: TraceContext | None) -> _ActiveContext:
        """Activate ``context`` for the duration of a ``with`` block.

        While active, every recorded span/instant is stamped with the
        context's ``trace_id``/``trace_seq``/``origin`` args, joining it
        to the causal chain the exporter renders as flow events.  Pass
        ``None`` to explicitly suspend stamping inside a block.  Nesting
        restores the previous context on exit.
        """
        return _ActiveContext(self, context)

    @property
    def active_context(self) -> TraceContext | None:
        return self._context

    def _stamp(self, args: dict) -> dict:
        ctx = self._context
        if ctx is None:
            return args
        stamped = dict(args)
        stamped["trace_id"] = ctx.trace_id
        stamped["trace_seq"] = ctx.next_seq()
        stamped["trace_origin"] = ctx.origin
        if ctx.parent is not None:
            stamped["trace_parent"] = ctx.parent
        return stamped

    def record(
        self,
        name: str,
        track: str,
        *,
        start_s: float,
        duration_s: float,
        **args,
    ) -> None:
        """Record one complete span of modeled time."""
        if not self.enabled:
            return
        if not (math.isfinite(start_s) and math.isfinite(duration_s)):
            raise TelemetryError(
                f"span {name!r} has non-finite time "
                f"(start={start_s}, duration={duration_s})"
            )
        if duration_s < 0:
            raise TelemetryError(
                f"span {name!r} has negative duration {duration_s}"
            )
        if self.strict_tracks:
            require_known_track(track)
        if self._room():
            args = self._stamp(args)
            self.spans.append(
                Span(name, track, float(start_s), float(duration_s), args)
            )
            if self.flight is not None:
                self.flight.note(
                    "span", name, track, float(start_s),
                    {"duration_s": float(duration_s), **args},
                )

    def instant(
        self, name: str, track: str, at_s: float | None = None, **args
    ) -> None:
        """Record a zero-duration marker (defaults to the modeled clock)."""
        if not self.enabled:
            return
        at = self.clock_s if at_s is None else float(at_s)
        if not math.isfinite(at):
            raise TelemetryError(f"instant {name!r} at non-finite time {at}")
        if self.strict_tracks:
            require_known_track(track)
        if self._room():
            args = self._stamp(args)
            self.instants.append(Instant(name, track, at, args))
            if self.flight is not None:
                self.flight.note("instant", name, track, at, args)

    def span(
        self, name: str, track: str, start_s: float | None = None, **args
    ):
        """Open a nestable span as a context manager.

        The span starts at ``start_s`` (default: the modeled clock) and —
        unless closed explicitly via ``handle.end(t)`` — ends at the latest
        of the clock and any child span recorded inside the ``with`` block.
        """
        if not self.enabled:
            return _NULL_SPAN
        start = self.clock_s if start_s is None else float(start_s)
        return _OpenSpan(self, name, track, start, args)

    def advance(self, duration_s: float) -> None:
        """Move the modeled clock forward by ``duration_s``."""
        if duration_s < 0:
            raise TelemetryError("clock can only advance forward")
        self.clock_s += duration_s

    def reset(self) -> None:
        """Drop all recorded events and metrics, keeping the clock.

        Loaders call this at the warmup/measurement boundary so trace
        totals match the measured :class:`~repro.pipeline.metrics.RunReport`
        exactly (the same reset their cache statistics get).  The stream
        goes on over the blank registry, its counter deltas measured from
        zero; the flight ring keeps the warm-up's last events.
        """
        self.spans.clear()
        self.instants.clear()
        self.truncated = False
        self.iteration = 0
        self.metrics = MetricsRegistry()
        if self.snapshotter is not None:
            self.snapshotter.rebase()

    # ------------------------------------------------------------------
    # Sinks

    def poll(self, now_s: float) -> None:
        """The driver's modeled clock reached ``now_s``: snapshot the
        registry if the snapshotter is due.  Leaves :attr:`clock_s` alone;
        drivers call it under ``if tracer.enabled:``."""
        if self.snapshotter is not None:
            self.snapshotter.poll(now_s, self.metrics, self.flight)

    def final_snapshot(self) -> None:
        """The end-of-run snapshot, at the later of the clock and the last
        snapshot (a no-op without a snapshotter)."""
        snapshotter = self.snapshotter
        if snapshotter is not None:
            now_s = max(self.clock_s, snapshotter.last_taken_s or 0.0)
            snapshotter.take(now_s, self.metrics, self.flight)

    def dump_flight(
        self, path: str, *, trigger: str, at_s: float, context=None,
        crash: Exception | None = None,
    ) -> bool:
        """Dump the flight ring to ``path``; False without a recorder.

        A ``crash`` is noted into the ring first, so the dump's last entry
        is the crash site.
        """
        flight = self.flight
        if flight is None:
            return False
        if crash is not None:
            flight.note(
                "crash", type(crash).__name__, "alerts", at_s,
                detail={"message": str(crash)},
            )
        flight.dump(path, trigger=trigger, at_s=at_s, context=context)
        return True

    # ------------------------------------------------------------------
    # Aggregation

    def track_totals(self) -> dict[str, float]:
        """Total span seconds per track (canonical tracks first)."""
        totals: dict[str, float] = {}
        for span in self.spans:
            totals[span.track] = totals.get(span.track, 0.0) + span.duration_s
        ordered = {t: totals.pop(t) for t in TRACKS if t in totals}
        ordered.update(totals)
        return ordered

    def stage_totals(self) -> dict[str, float]:
        """Total span seconds per pipeline stage (``stage.*`` lanes only)."""
        totals = self.track_totals()
        prefix = "stage."
        return {
            track[len(prefix):]: totals.get(track, 0.0)
            for track in STAGE_TRACKS
        }

    def export_block(self) -> dict:
        """The ``telemetry`` block of the run-report JSON export (v4)."""
        return {
            "detail": self.detail,
            "clock_s": self.clock_s,
            "span_count": len(self.spans),
            "instant_count": len(self.instants),
            "truncated": self.truncated,
            "track_seconds": self.track_totals(),
            "metrics": self.metrics.to_dict(),
        }

    def observability_block(self) -> dict | None:
        """The export's schema-v11 ``observability`` block: the dropped-event
        count and each sink's state; ``None`` on a disabled tracer."""
        if not self.enabled:
            return None
        dropped = "telemetry.dropped_events"
        block: dict = {
            "dropped_events": (
                int(self.metrics.counter(dropped).value)
                if dropped in self.metrics
                else 0
            )
        }
        if self.snapshotter is not None:
            block["snapshots"] = self.snapshotter.export_block()
        if self.flight is not None:
            block["flight_recorder"] = self.flight.export_block()
        return block

    # ------------------------------------------------------------------
    # Checkpointing

    STATE_ERROR = TelemetryError
    #: Everything recorded so far.  Events are one row each — ``(name,
    #: track, start_s, duration_s, args)`` per span, ``(name, track, at_s,
    #: args)`` per instant — that share the recorded ``args`` dicts: a
    #: request-detail trace is saved at every checkpoint, and a dict plus a
    #: copied ``args`` per event was most of what a snapshot allocated.
    #: The detail level is a guard: a ``request``-detail snapshot resumed at
    #: ``stage`` detail (or vice versa) would splice two incompatible
    #: granularities into one file.  The sinks ride along: the flight
    #: recorder's ring under ``"flight"``, the snapshotter's cadence under
    #: ``"snapshotter"`` (restoring it rewinds the stream's JSONL).
    STATE = (
        guard("detail"),
        scalar("clock_s", float),
        scalar("iteration", int),
        scalar("truncated", bool),
        seq(
            "spans", partial(_event, Span),
            save=lambda spans: [
                (s.name, s.track, s.start_s, s.duration_s, s.args)
                for s in spans
            ],
        ),
        seq(
            "instants", partial(_event, Instant),
            save=lambda instants: [
                (i.name, i.track, i.at_s, i.args) for i in instants
            ],
        ),
        child("metrics", fresh=lambda self: MetricsRegistry()),
        child("flight", omit=True, lenient=True),
        child("snapshotter", omit=True, lenient=True),
    )


def ensure_tracer(tracer: Tracer | None = None) -> Tracer:
    """``tracer``, or a private disabled one when the caller passed none —
    private because holders write to theirs (clock, iteration, metrics)."""
    return Tracer(enabled=False) if tracer is None else tracer
