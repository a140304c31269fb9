"""Telemetry sinks: in-memory, JSONL, and Chrome trace-event output.

A sink observes one :class:`~repro.telemetry.core.Telemetry` context:

* ``span_started(span)`` / ``span_ended(span)`` fire as the instrumented
  code runs (``span_ended`` fires in completion order, children first);
* ``flush(telemetry)`` fires once from ``Telemetry.close()`` and is where
  file-writing sinks produce their output.

The no-op "sink" is the default :data:`~repro.telemetry.core.NULL_TELEMETRY`
context itself — a telemetry context with no sinks records in memory only,
and the null context records nothing at all.
"""

from __future__ import annotations

import json
from typing import Any, Dict, IO, List, Optional, Union

__all__ = [
    "Sink",
    "InMemorySink",
    "JsonlSink",
    "ChromeTraceSink",
    "chrome_trace_events",
    "validate_chrome_trace",
]


class Sink:
    """Base sink: every hook is optional."""

    def span_started(self, span) -> None:
        return None

    def span_ended(self, span) -> None:
        return None

    def flush(self, telemetry) -> None:
        return None


class InMemorySink(Sink):
    """Collects finished spans and the final snapshot (for tests)."""

    def __init__(self):
        self.spans: List = []
        self.snapshot: Optional[Dict] = None

    def span_ended(self, span) -> None:
        self.spans.append(span)

    def flush(self, telemetry) -> None:
        self.snapshot = telemetry.snapshot()


class JsonlSink(Sink):
    """One JSON object per line: span events as they finish, then metrics.

    Span lines carry ``{"event": "span", "name", "depth", "seq",
    "start_s", "duration_s", "attrs"}``; the flush appends one
    ``{"event": "counter", ...}`` line per counter and one
    ``{"event": "timing", ...}`` line per histogram.
    """

    def __init__(self, target: Union[str, IO]):
        self._own = isinstance(target, str)
        self._handle: IO = open(target, "w") if self._own else target

    def _emit(self, payload: Dict[str, Any]) -> None:
        self._handle.write(json.dumps(payload, sort_keys=True))
        self._handle.write("\n")

    def span_ended(self, span) -> None:
        self._emit({
            "event": "span",
            "name": span.name,
            "depth": span.depth,
            "seq": span.seq,
            "start_s": span.start_s,
            "duration_s": span.duration_s,
            "attrs": span.attrs,
        })

    def flush(self, telemetry) -> None:
        for name, counter in sorted(telemetry.counters.items()):
            self._emit({"event": "counter", "name": name,
                        "value": counter.value})
        for name, histogram in sorted(telemetry.histograms.items()):
            self._emit(dict({"event": "timing", "name": name},
                            **histogram.as_dict()))
        self._handle.flush()
        if self._own:
            self._handle.close()


def chrome_trace_events(telemetry) -> List[Dict[str, Any]]:
    """Chrome trace-event list (``ph: "X"`` complete events + counters).

    Timestamps are microseconds relative to the telemetry origin; the
    output loads directly in Perfetto / ``chrome://tracing``.
    """
    events: List[Dict[str, Any]] = [{
        "name": "process_name",
        "ph": "M",
        "pid": 1,
        "tid": 1,
        "ts": 0,
        "args": {"name": "repro pipeline"},
    }]
    last_ts = 0.0
    for span in telemetry.walk_spans():
        end_s = span.end_s if span.end_s is not None else span.start_s
        last_ts = max(last_ts, end_s * 1e6)
        event: Dict[str, Any] = {
            "name": span.name,
            "cat": "repro",
            "ph": "X",
            "pid": 1,
            "tid": 1,
            "ts": span.start_s * 1e6,
            "dur": max(0.0, (end_s - span.start_s) * 1e6),
        }
        if span.attrs:
            event["args"] = dict(span.attrs)
        events.append(event)
    for name, counter in sorted(telemetry.counters.items()):
        events.append({
            "name": name,
            "ph": "C",
            "pid": 1,
            "tid": 1,
            "ts": last_ts,
            "args": {"value": counter.value},
        })
    return events


class ChromeTraceSink(Sink):
    """Writes ``{"traceEvents": [...]}`` JSON at flush time."""

    def __init__(self, target: Union[str, IO]):
        self._target = target

    def flush(self, telemetry) -> None:
        payload = {
            "traceEvents": chrome_trace_events(telemetry),
            "displayTimeUnit": "ms",
        }
        if isinstance(self._target, str):
            with open(self._target, "w") as handle:
                json.dump(payload, handle, indent=1, sort_keys=True)
                handle.write("\n")
        else:
            json.dump(payload, self._target, indent=1, sort_keys=True)


def validate_chrome_trace(payload) -> List[str]:
    """Structural schema check of a Chrome trace-event JSON payload.

    Returns human-readable problems (empty list = valid).  Checks the
    container shape, per-event required keys, and phase-specific fields
    (``X`` events need a non-negative ``dur``).
    """
    problems: List[str] = []
    if not isinstance(payload, dict) or "traceEvents" not in payload:
        return ["payload is not an object with a 'traceEvents' key"]
    events = payload["traceEvents"]
    if not isinstance(events, list):
        return ["'traceEvents' is not a list"]
    if not events:
        problems.append("'traceEvents' is empty")
    for index, event in enumerate(events):
        where = f"event[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        for key in ("name", "ph", "pid", "tid", "ts"):
            if key not in event:
                problems.append(f"{where}: missing {key!r}")
        if not isinstance(event.get("name"), str):
            problems.append(f"{where}: 'name' is not a string")
        phase = event.get("ph")
        if phase not in ("X", "B", "E", "C", "M", "i"):
            problems.append(f"{where}: unsupported phase {phase!r}")
        for key in ("ts", "dur"):
            if key in event and not isinstance(event[key], (int, float)):
                problems.append(f"{where}: {key!r} is not numeric")
        if phase == "X":
            if "dur" not in event:
                problems.append(f"{where}: 'X' event missing 'dur'")
            elif isinstance(event["dur"], (int, float)) and event["dur"] < 0:
                problems.append(f"{where}: negative 'dur'")
        if "ts" in event and isinstance(event["ts"], (int, float)):
            if event["ts"] < 0:
                problems.append(f"{where}: negative 'ts'")
    return problems
