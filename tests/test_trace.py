"""Round-trip and strict-parsing behavior of the ND-JSON trace format."""

import pytest

from viewsync.simnet import Corruption, SimConfig, Simulation
from viewsync.trace import (
    TRACE_VERSION,
    TraceParseError,
    dumps_record,
    parse_jsonl,
    read_trace,
    to_jsonl,
    write_trace,
)


@pytest.fixture(scope="module")
def trace_text():
    cfg = SimConfig(n=4, delta_cap=2, gst=0, offsets="all_zero")
    return to_jsonl(Simulation(cfg).run())


def test_roundtrip_is_identity(trace_text):
    assert to_jsonl(parse_jsonl(trace_text)) == trace_text


def test_records_in_memory_are_their_json_values():
    # drifted clocks give "p/q" ticks; windows and corruptions fill the header
    cfg = SimConfig(
        n=4,
        delta_cap=2,
        gst=3,
        drift_epsilon="1/100",
        sync_windows=[(3, 40), (80, None)],
        corruptions=[Corruption(3, "silent", "5/2")],
        stop="horizon",
        horizon=100,
    )
    records = Simulation(cfg).run()
    assert any(isinstance(r["time"], str) for r in records)
    assert parse_jsonl(to_jsonl(records)) == records


def test_write_trace_matches_to_jsonl(trace_text, tmp_path):
    records = parse_jsonl(trace_text)
    path = tmp_path / "t.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        write_trace(records, fh)
    assert path.read_text(encoding="utf-8") == trace_text
    assert read_trace(path) == records


def test_serialisation_is_canonical():
    assert dumps_record({"b": 1, "a": "2"}) == '{"a":"2","b":1}'


def test_rejects_empty():
    with pytest.raises(TraceParseError):
        parse_jsonl("")


def test_rejects_invalid_json_with_line_number(trace_text):
    lines = trace_text.splitlines()
    lines[2] = lines[2][:-5]
    err = pytest.raises(TraceParseError, parse_jsonl, "\n".join(lines) + "\n").value
    assert err.line_no == 3


def test_rejects_blank_interior_line(trace_text):
    lines = trace_text.splitlines()
    lines.insert(4, "")
    err = pytest.raises(TraceParseError, parse_jsonl, "\n".join(lines) + "\n").value
    assert err.line_no == 5


def test_rejects_missing_header(trace_text):
    body = "\n".join(trace_text.splitlines()[1:]) + "\n"
    err = pytest.raises(TraceParseError, parse_jsonl, body).value
    assert err.line_no == 1


def test_rejects_wrong_version(trace_text):
    head, rest = trace_text.split("\n", 1)
    head = head.replace(f'"version":{TRACE_VERSION}', f'"version":{TRACE_VERSION + 1}')
    with pytest.raises(TraceParseError, match="version"):
        parse_jsonl(head + "\n" + rest)


def test_rejects_truncation(trace_text):
    body = "\n".join(trace_text.splitlines()[:-1]) + "\n"
    err = pytest.raises(TraceParseError, parse_jsonl, body).value
    assert "truncated" in str(err)


def test_rejects_record_without_kind(trace_text):
    lines = trace_text.splitlines()
    lines.insert(3, '{"time":"0"}')
    err = pytest.raises(TraceParseError, parse_jsonl, "\n".join(lines) + "\n").value
    assert err.line_no == 4
