"""Tests for the telemetry sinks: in-memory, JSONL, Chrome trace."""

import io
import json

from repro.telemetry import (
    ChromeTraceSink,
    InMemorySink,
    JsonlSink,
    Telemetry,
    chrome_trace_events,
    validate_chrome_trace,
)


def _recorded_telemetry():
    tele = Telemetry()
    with tele.span("outer", workload="w"):
        with tele.span("inner"):
            pass
    tele.count("n", 3)
    tele.record("t", 0.25)
    return tele


class TestInMemorySink:
    def test_collects_spans_in_completion_order(self):
        sink = InMemorySink()
        tele = Telemetry(sinks=[sink])
        with tele.span("outer"):
            with tele.span("inner"):
                pass
        # Children finish before their parents.
        assert [span.name for span in sink.spans] == ["inner", "outer"]

    def test_flush_captures_snapshot(self):
        sink = InMemorySink()
        tele = Telemetry(sinks=[sink])
        tele.count("n")
        assert sink.snapshot is None
        tele.close()
        assert sink.snapshot["counters"] == {"n": 1}


class TestJsonlSink:
    def test_writes_span_and_metric_lines(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        sink = JsonlSink(path)
        tele = Telemetry(sinks=[sink])
        with tele.span("outer", k=1):
            with tele.span("inner"):
                pass
        tele.count("n", 2)
        tele.record("t", 0.5)
        tele.close()
        lines = [json.loads(line) for line in open(path)]
        events = [line["event"] for line in lines]
        assert events == ["span", "span", "counter", "timing"]
        spans = {line["name"]: line for line in lines if line["event"] == "span"}
        assert spans["inner"]["depth"] == 1
        assert spans["outer"]["depth"] == 0
        assert spans["outer"]["attrs"] == {"k": 1}
        counter = next(l for l in lines if l["event"] == "counter")
        assert counter == {"event": "counter", "name": "n", "value": 2}
        timing = next(l for l in lines if l["event"] == "timing")
        assert timing["count"] == 1 and timing["total"] == 0.5

    def test_accepts_open_handle(self):
        buffer = io.StringIO()
        sink = JsonlSink(buffer)
        tele = Telemetry(sinks=[sink])
        with tele.span("a"):
            pass
        tele.close()
        lines = [json.loads(line) for line in buffer.getvalue().splitlines()]
        assert lines and lines[0]["name"] == "a"


class TestChromeTrace:
    def test_events_cover_spans_and_counters(self):
        tele = _recorded_telemetry()
        events = chrome_trace_events(tele)
        phases = [event["ph"] for event in events]
        assert phases.count("M") == 1
        assert phases.count("X") == 2
        assert phases.count("C") == 1
        complete = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in complete} == {"outer", "inner"}
        for event in complete:
            assert event["ts"] >= 0 and event["dur"] >= 0
        counter = next(e for e in events if e["ph"] == "C")
        assert counter["args"] == {"value": 3}

    def test_sink_writes_valid_payload(self, tmp_path):
        path = str(tmp_path / "trace.json")
        sink = ChromeTraceSink(path)
        tele = Telemetry(sinks=[sink])
        with tele.span("outer"):
            pass
        tele.count("n")
        tele.close()
        payload = json.load(open(path))
        assert validate_chrome_trace(payload) == []
        assert payload["displayTimeUnit"] == "ms"

    def test_sink_accepts_handle(self):
        buffer = io.StringIO()
        sink = ChromeTraceSink(buffer)
        tele = Telemetry(sinks=[sink])
        with tele.span("a"):
            pass
        tele.close()
        assert validate_chrome_trace(json.loads(buffer.getvalue())) == []


class TestValidateChromeTrace:
    def test_valid_trace_is_empty(self):
        payload = {"traceEvents": chrome_trace_events(_recorded_telemetry())}
        assert validate_chrome_trace(payload) == []

    def test_rejects_non_object(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"events": []}) != []

    def test_rejects_non_list_events(self):
        assert validate_chrome_trace({"traceEvents": {}}) != []

    def test_flags_empty_events(self):
        assert validate_chrome_trace({"traceEvents": []}) != []

    def test_flags_missing_keys(self):
        problems = validate_chrome_trace(
            {"traceEvents": [{"ph": "X", "pid": 1, "tid": 1, "ts": 0}]}
        )
        assert any("missing 'name'" in p for p in problems)

    def test_flags_bad_phase_and_negative_dur(self):
        events = [
            {"name": "a", "ph": "Z", "pid": 1, "tid": 1, "ts": 0},
            {"name": "b", "ph": "X", "pid": 1, "tid": 1, "ts": 0, "dur": -1},
            {"name": "c", "ph": "X", "pid": 1, "tid": 1, "ts": -5, "dur": 0},
        ]
        problems = validate_chrome_trace({"traceEvents": events})
        assert any("unsupported phase" in p for p in problems)
        assert any("negative 'dur'" in p for p in problems)
        assert any("negative 'ts'" in p for p in problems)

    def test_flags_x_event_without_dur(self):
        problems = validate_chrome_trace({"traceEvents": [
            {"name": "a", "ph": "X", "pid": 1, "tid": 1, "ts": 0},
        ]})
        assert any("missing 'dur'" in p for p in problems)
