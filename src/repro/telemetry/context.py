"""Causal trace contexts: one trace id per request / step, propagated.

A :class:`TraceContext` is minted at a causal root — one served
inference request, one fleet step, one full-graph sweep step, one
training-pipeline group — and *activated* on the tracer for the duration
of that unit of work.  While a context is active, every span and instant
the tracer records is stamped with the context's ``trace_id`` and a
monotonically increasing ``trace_seq``, so the instrumentation already
sitting inside the cache tiers, storage-HA router, fault retries and
hedged reads joins the causal chain without any signature changes.

The exporter turns the stamped spans into Chrome-trace *flow events*
(``ph`` ``"s"``/``"t"``/``"f"``) that Perfetto draws as arrows between
lanes, and ``repro trace --request <id>`` renders one trace id's chain
as text.

Trace ids are deterministic — derived from the workload's own indices
(``req-000042``, ``step-000007``) — never from wall clock or randomness,
so identical runs stamp identical ids and a killed-and-resumed run
continues the numbering seamlessly.
"""

from __future__ import annotations

from ..errors import TelemetryError


class TraceContext:
    """Identity and event ordering for one causal unit of work.

    Args:
        trace_id: deterministic identifier, e.g. ``req-000042``.
        origin: which workload minted it (``serve``, ``run``, ``fleet``,
            ``fullgraph``); exported with every stamped event.
        parent: optional enclosing trace id (a retry minted under a
            request, a step under an epoch).
    """

    __slots__ = ("trace_id", "origin", "parent", "_seq")

    def __init__(
        self, trace_id: str, *, origin: str = "run", parent: str | None = None
    ) -> None:
        if not trace_id or not isinstance(trace_id, str):
            raise TelemetryError(
                f"trace_id must be a non-empty string, got {trace_id!r}"
            )
        self.trace_id = trace_id
        self.origin = origin
        self.parent = parent
        self._seq = 0

    def next_seq(self) -> int:
        """The next event's position in this trace's causal order."""
        seq = self._seq
        self._seq += 1
        return seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceContext({self.trace_id!r}, origin={self.origin!r}, "
            f"events={self._seq})"
        )


def request_trace_id(index: int) -> str:
    """Canonical trace id for served request ``index``."""
    return f"req-{index:06d}"


def step_trace_id(kind: str, index: int) -> str:
    """Canonical trace id for step ``index`` of a stepped workload."""
    return f"{kind}-{index:06d}"


class _ActiveContext:
    """Context manager activating a :class:`TraceContext` on a tracer."""

    __slots__ = ("_tracer", "_context", "_previous")

    def __init__(self, tracer, context: TraceContext | None) -> None:
        self._tracer = tracer
        self._context = context
        self._previous = None

    def __enter__(self) -> TraceContext | None:
        self._previous = self._tracer._context
        self._tracer._context = self._context
        return self._context

    def __exit__(self, *exc) -> bool:
        self._tracer._context = self._previous
        return False
