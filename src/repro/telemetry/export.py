"""Trace exporters: Chrome trace-event JSON, ASCII rendering, text summary.

The Chrome trace-event format (the JSON ``traceEvents`` array understood by
``chrome://tracing`` and Perfetto) maps cleanly onto the tracer's model:
each track becomes one named thread lane, spans become complete (``"X"``)
events and instants become instant (``"i"``) events.  Timestamps are the
tracer's modeled seconds converted to the format's microseconds.

``render_trace`` draws a saved trace back as the repository's ASCII
timeline idiom (one labeled lane per track, digits identifying spans, a
``format_time``-labeled axis), so ``python -m repro trace out.json`` needs
no browser.
"""

from __future__ import annotations

import json

from ..errors import TelemetryError
from ..utils import format_time, package_version
from .tracer import TRACKS, Tracer

#: Microseconds per modeled second (trace-event timestamps are in us).
_US = 1e6

#: Category tag on the flow events binding one trace id's spans.
_FLOW_CATEGORY = "causal"


def _track_order(tracks) -> list[str]:
    """Canonical lanes first, then unknown tracks in first-seen order."""
    known = [t for t in TRACKS if t in tracks]
    extra = [t for t in tracks if t not in TRACKS]
    return known + extra


def to_chrome_trace(tracer: Tracer) -> dict:
    """Convert a tracer's recording into a Chrome trace-event document."""
    # Ordered (spans, then instants): a set would number the non-canonical
    # lanes in hash order, i.e. by PYTHONHASHSEED.
    tracks = _track_order(
        dict.fromkeys(e.track for e in (*tracer.spans, *tracer.instants))
    )
    tids = {track: index for index, track in enumerate(tracks)}
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": "repro modeled time"},
        }
    ]
    for track, tid in tids.items():
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": tid,
                "args": {"name": track},
            }
        )
        events.append(
            {
                "name": "thread_sort_index",
                "ph": "M",
                "pid": 0,
                "tid": tid,
                "args": {"sort_index": tid},
            }
        )
    for span in tracer.spans:
        events.append(
            {
                "name": span.name,
                "ph": "X",
                "pid": 0,
                "tid": tids[span.track],
                "ts": span.start_s * _US,
                "dur": span.duration_s * _US,
                "args": dict(span.args),
            }
        )
    for instant in tracer.instants:
        events.append(
            {
                "name": instant.name,
                "ph": "i",
                "s": "t",
                "pid": 0,
                "tid": tids[instant.track],
                "ts": instant.at_s * _US,
                "args": dict(instant.args),
            }
        )
    events.extend(_flow_events(tracer, tids))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "repro_version": package_version(),
            "detail": tracer.detail,
            "clock_s": tracer.clock_s,
            "span_count": len(tracer.spans),
            "instant_count": len(tracer.instants),
            "truncated": tracer.truncated,
            "metrics": tracer.metrics.to_dict(),
        },
    }


def _flow_events(tracer: Tracer, tids: dict[str, int]) -> list[dict]:
    """Chrome-trace flow events binding each trace id's spans causally.

    Spans stamped by an active :class:`~repro.telemetry.TraceContext`
    carry ``trace_id``/``trace_seq`` args; for every trace id with two
    or more spans this emits a flow chain — ``"s"`` (start) anchored on
    the first span, ``"t"`` (step) on each intermediate span, ``"f"``
    (finish, ``bp: "e"``) on the last — which Perfetto draws as arrows
    across the lanes the request touched.
    """
    chains: dict[str, list] = {}
    for span in tracer.spans:
        trace_id = span.args.get("trace_id")
        if trace_id is not None:
            chains.setdefault(str(trace_id), []).append(span)
    events: list[dict] = []
    for trace_id in sorted(chains):
        chain = sorted(
            chains[trace_id],
            key=lambda s: (s.args.get("trace_seq", 0), s.start_s),
        )
        if len(chain) < 2:
            continue
        last = len(chain) - 1
        for index, span in enumerate(chain):
            event = {
                "name": f"trace {trace_id}",
                "cat": _FLOW_CATEGORY,
                "ph": "s" if index == 0 else ("f" if index == last else "t"),
                "id": trace_id,
                "pid": 0,
                "tid": tids[span.track],
                # Flow arrows leave a span at its end and land at starts.
                "ts": (span.end_s if index == 0 else span.start_s) * _US,
                "args": {"trace_seq": span.args.get("trace_seq")},
            }
            if index == last:
                event["bp"] = "e"
            events.append(event)
    return events


def write_chrome_trace(tracer: Tracer, path: str) -> int:
    """Serialize :func:`to_chrome_trace` to ``path``; returns event count."""
    trace = to_chrome_trace(tracer)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace, handle, indent=1, sort_keys=True, allow_nan=False)
        handle.write("\n")
    return len(trace["traceEvents"])


def validate_chrome_trace(trace: dict) -> int:
    """Structurally validate a trace-event document; returns event count.

    Raises :class:`~repro.errors.TelemetryError` on the first malformed
    event.  Used by the CI smoke job and the ``repro trace`` subcommand so
    a corrupt file fails loudly instead of rendering garbage.
    """
    if not isinstance(trace, dict):
        raise TelemetryError("trace document must be a JSON object")
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        raise TelemetryError("trace document lacks a traceEvents array")
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            raise TelemetryError(f"traceEvents[{index}] is not an object")
        for key in ("name", "ph", "pid", "tid"):
            if key not in event:
                raise TelemetryError(
                    f"traceEvents[{index}] is missing {key!r}"
                )
        ph = event["ph"]
        if ph not in ("X", "i", "M", "C", "s", "t", "f"):
            raise TelemetryError(
                f"traceEvents[{index}] has unsupported phase {ph!r}"
            )
        if ph in ("X", "i", "s", "t", "f"):
            ts = event.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                raise TelemetryError(
                    f"traceEvents[{index}] has invalid ts {ts!r}"
                )
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise TelemetryError(
                    f"traceEvents[{index}] has invalid dur {dur!r}"
                )
        if ph in ("s", "t", "f"):
            flow_id = event.get("id")
            if not isinstance(flow_id, (str, int)):
                raise TelemetryError(
                    f"traceEvents[{index}] flow event has invalid id "
                    f"{flow_id!r}"
                )
    return len(events)


def summarize_chrome_trace(trace: dict) -> dict:
    """Machine-readable summary of a saved trace-event document.

    The JSON counterpart of :func:`render_trace` (``repro trace --json``):
    per-track span seconds and event counts plus the ``otherData`` header,
    so scripts can consume a trace without re-implementing the event
    format.  Validates the document first.
    """
    validate_chrome_trace(trace)
    events = trace["traceEvents"]
    names: dict[int, str] = {}
    for event in events:
        if event["ph"] == "M" and event["name"] == "thread_name":
            names[event["tid"]] = str(event.get("args", {}).get("name", ""))

    tracks: dict[str, dict] = {}

    def _track_entry(tid: int) -> dict:
        name = names.get(tid, f"tid{tid}")
        return tracks.setdefault(
            name, {"span_seconds": 0.0, "spans": 0, "instants": 0}
        )

    t_lo = None
    t_hi = None
    for event in events:
        if event["ph"] not in ("X", "i"):
            continue
        start = event["ts"] / _US
        end = start
        entry = _track_entry(event["tid"])
        if event["ph"] == "X":
            end = start + event["dur"] / _US
            entry["span_seconds"] += end - start
            entry["spans"] += 1
        else:
            entry["instants"] += 1
        t_lo = start if t_lo is None else min(t_lo, start)
        t_hi = end if t_hi is None else max(t_hi, end)

    other = trace.get("otherData", {})
    ordered = {name: tracks[name] for name in _track_order(tracks)}
    return {
        "span_count": sum(entry["spans"] for entry in tracks.values()),
        "instant_count": sum(
            entry["instants"] for entry in tracks.values()
        ),
        "start_s": t_lo,
        "end_s": t_hi,
        "duration_s": (t_hi - t_lo) if t_lo is not None else None,
        "tracks": ordered,
        "detail": other.get("detail"),
        "clock_s": other.get("clock_s"),
        "truncated": bool(other.get("truncated", False)),
        "metrics": other.get("metrics", {}),
    }


# ----------------------------------------------------------------------
# ASCII rendering


def render_trace(trace: dict, *, width: int = 72) -> str:
    """Render a saved Chrome trace as labeled ASCII lanes.

    One lane per track in the file, spans drawn with cycling digits (the
    same idiom as :func:`repro.pipeline.timeline.render_timeline`), a time
    axis labeled with :func:`~repro.utils.format_time`, and per-lane span
    totals.  Instants are drawn as ``!`` markers on their lane.
    """
    if width < 20:
        raise TelemetryError("width must be at least 20 characters")
    validate_chrome_trace(trace)
    events = trace["traceEvents"]

    names: dict[int, str] = {}
    for event in events:
        if event["ph"] == "M" and event["name"] == "thread_name":
            names[event["tid"]] = str(event.get("args", {}).get("name", ""))

    spans: dict[int, list[tuple[float, float, str]]] = {}
    instants: dict[int, list[float]] = {}
    for event in events:
        if event["ph"] == "X":
            start = event["ts"] / _US
            spans.setdefault(event["tid"], []).append(
                (start, start + event["dur"] / _US, event["name"])
            )
        elif event["ph"] == "i":
            instants.setdefault(event["tid"], []).append(event["ts"] / _US)
    if not spans and not instants:
        raise TelemetryError("trace holds no span or instant events")

    tids = sorted(set(spans) | set(instants))
    t_lo = min(
        [s for lane in spans.values() for s, _, _ in lane]
        + [t for lane in instants.values() for t in lane]
    )
    t_hi = max(
        [e for lane in spans.values() for _, e, _ in lane]
        + [t for lane in instants.values() for t in lane]
    )
    total = t_hi - t_lo
    if total <= 0:
        raise TelemetryError("trace spans no modeled time")
    scale = (width - 1) / total

    label_width = max(
        [len(names.get(tid, f"tid{tid}")) for tid in tids] + [5]
    )

    lines = [
        f"trace: {sum(len(v) for v in spans.values())} spans on "
        f"{len(tids)} lanes over {format_time(total)}"
    ]
    symbols = "0123456789ab"
    for tid in tids:
        cells = [" "] * width
        for index, (start, end, _) in enumerate(
            sorted(spans.get(tid, []))
        ):
            a = int((start - t_lo) * scale)
            b = max(a + 1, int((end - t_lo) * scale))
            mark = symbols[index % len(symbols)]
            for pos in range(a, min(b, width)):
                cells[pos] = mark
        for at in instants.get(tid, []):
            pos = min(int((at - t_lo) * scale), width - 1)
            cells[pos] = "!"
        busy = sum(e - s for s, e, _ in spans.get(tid, []))
        label = names.get(tid, f"tid{tid}").ljust(label_width)
        lines.append(
            f"{label} |{''.join(cells)}| {format_time(busy)}"
        )
    axis = _axis_line(width, total)
    lines.append(" " * label_width + " |" + axis)
    lines.append(
        "digits identify spans per lane; '!' marks instant events"
    )
    other = trace.get("otherData", {})
    if other.get("truncated"):
        lines.append(
            "warning: trace was truncated at the tracer's event cap"
        )
    return "\n".join(lines)


def _axis_line(width: int, total: float) -> str:
    """A ``0 ... total`` ruler labeled with adaptive time units."""
    cells = [" "] * width
    cells[0] = "0"
    right = format_time(total)
    start = max(1, width - len(right))
    for offset, char in enumerate(right[: width - start]):
        cells[start + offset] = char
    mid = format_time(total / 2)
    mid_start = (width - len(mid)) // 2
    if mid_start > 2 and mid_start + len(mid) < start - 1:
        for offset, char in enumerate(mid):
            cells[mid_start + offset] = char
    return "".join(cells)


# ----------------------------------------------------------------------
# Single-request causal rendering


def list_trace_ids(trace: dict) -> list[str]:
    """Trace ids present in a saved document, in first-seen order."""
    validate_chrome_trace(trace)
    seen: dict[str, None] = {}
    for event in trace["traceEvents"]:
        if event["ph"] in ("X", "i"):
            trace_id = event.get("args", {}).get("trace_id")
            if trace_id is not None:
                seen.setdefault(str(trace_id), None)
    return list(seen)


def render_request_trace(trace: dict, trace_id: str) -> str:
    """Render one trace id's causal chain from a saved Chrome trace.

    The text counterpart of the Perfetto flow arrows
    (``repro trace FILE --request <id>``): every span and instant
    stamped with ``trace_id``, in causal (``trace_seq``) order, with the
    lane it ran on, its modeled start and duration, and the event args
    that explain the routing decisions (redirects, retries, hedges).
    """
    validate_chrome_trace(trace)
    names: dict[int, str] = {}
    for event in trace["traceEvents"]:
        if event["ph"] == "M" and event["name"] == "thread_name":
            names[event["tid"]] = str(event.get("args", {}).get("name", ""))
    chain: list[tuple] = []
    for event in trace["traceEvents"]:
        if event["ph"] not in ("X", "i"):
            continue
        args = dict(event.get("args", {}))
        if str(args.get("trace_id")) != str(trace_id):
            continue
        seq = args.get("trace_seq", 0)
        start = event["ts"] / _US
        dur = event.get("dur", 0) / _US if event["ph"] == "X" else None
        detail = {
            k: v
            for k, v in args.items()
            if k not in ("trace_id", "trace_seq", "trace_origin",
                         "trace_parent")
        }
        chain.append(
            (seq, start, names.get(event["tid"], f"tid{event['tid']}"),
             event["name"], dur, detail)
        )
    if not chain:
        known = list_trace_ids(trace)
        hint = (
            f"; trace ids present: {', '.join(known[:8])}"
            f"{'...' if len(known) > 8 else ''}"
            if known
            else "; the trace holds no stamped events (was it recorded "
            "with --trace-detail request?)"
        )
        raise TelemetryError(f"no events stamped trace_id={trace_id!r}{hint}")
    chain.sort(key=lambda item: (item[0], item[1]))
    t0 = min(item[1] for item in chain)
    t1 = max(
        item[1] + (item[4] or 0.0) for item in chain
    )
    lane_width = max(len(item[2]) for item in chain)
    name_width = max(len(item[3]) for item in chain)
    lines = [
        f"request {trace_id}: {len(chain)} events over "
        f"{format_time(t1 - t0)}"
    ]
    for seq, start, lane, name, dur, detail in chain:
        when = f"+{format_time(start - t0)}"
        took = format_time(dur) if dur is not None else "instant"
        extras = " ".join(
            f"{key}={value}" for key, value in sorted(detail.items())
        )
        lines.append(
            f"  [{seq:3d}] {when:>10} {lane.ljust(lane_width)} "
            f"{name.ljust(name_width)} {took:>8}"
            + (f"  {extras}" if extras else "")
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Text summary


def summarize(tracer: Tracer) -> str:
    """Plain-text per-run summary: lane totals, metrics, percentiles."""
    lines = [
        f"telemetry summary (detail={tracer.detail}, "
        f"clock {format_time(tracer.clock_s)}, "
        f"{len(tracer.spans)} spans, {len(tracer.instants)} instants)"
    ]
    totals = tracer.track_totals()
    if totals:
        name_width = max(len(track) for track in totals)
        for track, seconds in totals.items():
            lines.append(
                f"  {track.ljust(name_width)}  {format_time(seconds)}"
            )
    for name, summary in tracer.metrics.to_dict().items():
        if summary["kind"] == "histogram":
            if summary["count"] == 0:
                # Empty histograms have no percentiles (they export null).
                lines.append(f"  {name}: n=0")
                continue
            lines.append(
                f"  {name}: n={summary['count']} "
                f"mean={format_time(summary['mean'])} "
                f"p50={format_time(summary['p50'])} "
                f"p95={format_time(summary['p95'])} "
                f"p99={format_time(summary['p99'])}"
            )
        else:
            lines.append(f"  {name}: {summary['value']}")
    if tracer.truncated:
        lines.append(
            "  warning: event cap reached; trace is truncated"
        )
    return "\n".join(lines)
