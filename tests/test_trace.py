"""Round-trip and strict-parsing behavior of the ND-JSON trace format."""

import copy
import functools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viewsync import trace
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


# -- the writer: dumps_record is json.dumps with sorted keys -------------------


def reference(record):
    return json.dumps(record, sort_keys=True, separators=(",", ":"), allow_nan=False)


@functools.lru_cache(maxsize=None)
def sample_runs():
    """Records of runs that between them write every payload shape, drifted
    ``"p/q"`` ticks, sync windows, corruptions and a 31-way broadcast."""
    configs = [
        SimConfig(
            n=4,
            delta_cap=2,
            gst=3,
            drift_epsilon="1/100",
            sync_windows=[(3, 40), (80, None)],
            corruptions=[Corruption(3, "silent", "5/2")],
            network="uniform_random",
            stop="horizon",
            horizon=100,
        ),
        SimConfig(
            n=31,
            delta_cap=2,
            gst=3,
            network="uniform_random",
            seed=5,
            corruptions=(
                Corruption(0, "crash_leader"),
                Corruption(3, "vote_stuffer"),
                Corruption(6, "early_signer"),
                Corruption(9, "selective_vc"),
                Corruption(12, "late_qc_relayer"),
            ),
        ),
    ]
    return tuple(r for cfg in configs for r in Simulation(cfg).run())


def hot(records):
    return [r for r in records if r["kind"] in ("send", "deliver")]


# values to put in any field: floats json.dumps refuses (NaN, inf), types no
# send or deliver field has, and two that some fields may hold ("3/7" as a
# tick, a big int)
ODD = [True, False, 1.0, -0.0, float("nan"), float("inf"), None, "é", '"\\\n', "3/7", [1], {}, 2**70]
ODD_VALUES = st.sampled_from(ODD)


@st.composite
def edited_records(draw):
    """A record of the sample runs, whole or with one edit the simulator
    never makes: an odd value, a missing or an extra key, an odd item in a
    list, a tuple of signers, recipients or deliver times, an unknown payload
    type."""
    record = copy.deepcopy(draw(st.sampled_from(sample_runs())))
    payload = record.get("payload")
    lists = [k for k in ("recipients", "deliver_times") if k in record]
    edit = draw(
        st.sampled_from(
            ["none", "value", "drop", "extra", "item", "tuple", "payload", "signers", "type"]
        )
    )
    if edit == "value":
        record[draw(st.sampled_from(sorted(record)))] = draw(ODD_VALUES)
    elif edit == "drop":
        del record[draw(st.sampled_from(sorted(record)))]
    elif edit == "extra":
        record[draw(st.sampled_from(["zz", "a", "payloads", "\u00e9"]))] = draw(ODD_VALUES)
    elif edit == "item" and lists:
        items = record[draw(st.sampled_from(lists))]
        items[draw(st.integers(0, len(items) - 1))] = draw(ODD_VALUES)
    elif edit == "tuple" and lists:
        key = draw(st.sampled_from(lists))
        record[key] = tuple(record[key])
    elif edit == "payload" and payload is not None:
        key = draw(st.sampled_from(sorted(payload) + ["extra"]))
        if draw(st.booleans()) and key in payload:
            del payload[key]
        else:
            payload[key] = draw(ODD_VALUES)
    elif edit == "signers" and payload is not None and "signers" in payload:
        payload["signers"] = tuple(payload["signers"])
    elif edit == "type" and payload is not None:
        payload["type"] = draw(st.sampled_from(["telemetry", "Vote", "vote\u00e9"]))
    return record


def agrees_with_reference(record):
    try:
        want = reference(record)
    except ValueError as exc:  # NaN and infinities
        with pytest.raises(ValueError) as got:
            dumps_record(record)
        assert str(got.value) == str(exc)
        return
    assert dumps_record(record) == want, record


@settings(max_examples=400, deadline=None)
@given(record=edited_records())
def test_dumps_record_is_json_dumps(record):
    agrees_with_reference(record)


def test_every_odd_value_in_every_hot_field_matches_json_dumps():
    # one record per (kind, payload type, whole or "p/q" time), every field
    # of it, of its payload and the last item of each list set to every odd
    # value in turn
    shapes = {}
    for r in hot(sample_runs()):
        shapes.setdefault((r["kind"], r.get("payload", {}).get("type"), type(r["time"])), r)
    assert len(shapes) == 12
    for record in shapes.values():
        keys = [(k,) for k in record]
        keys += [("payload", k) for k in record.get("payload", ())]
        keys += [(k, -1) for k in ("recipients", "deliver_times") if k in record]
        for key in keys:
            for value in ODD:
                bad = copy.deepcopy(record)
                where = bad
                for step in key[:-1]:
                    where = where[step]
                where[key[-1]] = value
                agrees_with_reference(bad)


class HotKindsRefused(json.JSONEncoder):
    def encode(self, o):
        assert o.get("kind") not in ("send", "deliver"), o
        return super().encode(o)


def test_every_simulated_send_and_deliver_is_formatted_directly(monkeypatch):
    refusing = HotKindsRefused(sort_keys=True, separators=(",", ":"), allow_nan=False)
    monkeypatch.setattr(trace, "_ENCODER", refusing)
    records = sample_runs()
    types = {r["payload"]["type"] for r in hot(records) if r["kind"] == "send"}
    assert types == {"view_message", "vote", "proposal", "view_certificate", "quorum_certificate"}
    for field in ("time", "proc_clock"):
        assert any(isinstance(r.get(field), str) for r in hot(records)), field
    assert any(str in map(type, r.get("deliver_times", ())) for r in records)
    assert max(len(r.get("recipients", ())) for r in records) == 31
    assert to_jsonl(records) == "".join(reference(r) + "\n" for r in records)


# -- the reader: parse_jsonl is a json.loads per line ---------------------------


def reference_parse(text):
    """The reader as a plain json.loads per line."""
    records = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            raise TraceParseError(line_no, "blank line inside trace")
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceParseError(line_no, f"invalid JSON: {exc.msg}") from exc
        if not isinstance(rec, dict) or "kind" not in rec:
            raise TraceParseError(line_no, "record is not an object with a 'kind'")
        records.append(rec)
    if not records:
        raise TraceParseError(1, "empty trace")
    head = records[0]
    if head.get("kind") != "header":
        raise TraceParseError(1, "first record must be the header")
    if head.get("version") != TRACE_VERSION:
        raise TraceParseError(1, f"unsupported trace version {head.get('version')!r}")
    if records[-1].get("kind") != "end":
        raise TraceParseError(len(records), "trace truncated: no end record")
    return records


def outcome(parse, text):
    """What a reader makes of text: its records (as a repr, so NaN equals
    NaN and 1 differs from 1.0), or the line and message of its error."""
    try:
        return repr(parse(text))
    except TraceParseError as exc:
        return ("error", exc.line_no, str(exc))


def reads_like_json_loads(text):
    got = outcome(parse_jsonl, text)
    assert got == outcome(reference_parse, text)
    return got


@functools.lru_cache(maxsize=None)
def short_trace_lines():
    cfg = SimConfig(n=4, delta_cap=2, gst=0, stop="horizon", horizon=6)
    return tuple(to_jsonl(Simulation(cfg).run()).splitlines())


def with_line(at, edit):
    """The short trace with line ``at`` replaced by ``edit(line)``, whose
    result may hold several lines."""
    lines = list(short_trace_lines())
    lines[at] = edit(lines[at])
    return "\n".join(lines) + "\n"


ODD_LINES = {
    "leading spaces": with_line(2, lambda s: "  " + s),
    "leading tab": with_line(2, lambda s: "\t" + s),
    "trailing spaces": with_line(2, lambda s: s + "  "),
    "trailing spaces on the header": with_line(0, lambda s: s + " "),
    "CRLF line ends": "\r\n".join(short_trace_lines()) + "\r\n",
    "CR inside a record": with_line(2, lambda s: s[:5] + "\r" + s[5:]),
    "UTF-8 BOM": "\ufeff" + "\n".join(short_trace_lines()) + "\n",
    "BOM inside": with_line(2, lambda s: "\ufeff" + s),
    "NaN": with_line(2, lambda s: '{"kind":"wake","seq":2,"time":NaN}'),
    "Infinity in a list": with_line(2, lambda s: '{"kind":"wake","seq":2,"x":[-Infinity]}'),
    "raw U+2028 in a string": with_line(2, lambda s: '{"kind":"wake","s":"a\u2028b"}'),
    "raw U+0085 in a string": with_line(2, lambda s: '{"kind":"wake","s":"a\x85b"}'),
    "escaped U+2028": with_line(2, lambda s: '{"kind":"wake","s":"a\\u2028b"}'),
    "unterminated string": with_line(2, lambda s: '{"kind":"wake","s":"abc'),
    "unterminated object": with_line(2, lambda s: s[:-1]),
    "control character in a string": with_line(2, lambda s: '{"kind":"wake","s":"a\x01b"}'),
    "two objects on a line": with_line(2, lambda s: s + s),
    "two objects with a comma": with_line(2, lambda s: s + "," + s),
    "trailing garbage": with_line(2, lambda s: s + "x"),
    "blank line": with_line(2, lambda s: ""),
    "whitespace line": with_line(2, lambda s: " \t "),
    "a list": with_line(2, lambda s: "[" + s + "]"),
    "a string": with_line(2, lambda s: '"kind"'),
    "a number": with_line(2, lambda s: "3"),
    "null": with_line(2, lambda s: "null"),
    "no kind": with_line(2, lambda s: '{"time":0}'),
    "merge and split": with_line(
        2, lambda s: '{"kind":"x","a":[{}\n{"kind":"q"}]}\n{"kind":"y"},{"kind":"z"}'
    ),
    "duplicate keys": with_line(2, lambda s: '{"kind":"wake","kind":"end"}'),
    "big int": with_line(2, lambda s: '{"kind":"wake","x":' + "9" * 40 + "}"),
    "float forms": with_line(2, lambda s: '{"kind":"wake","x":[1.0,-0.0,1e3,1E-2]}'),
    "no header": "\n".join(short_trace_lines()[1:]) + "\n",
    "no end": "\n".join(short_trace_lines()[:-1]) + "\n",
    "empty": "",
}


@pytest.mark.parametrize("text", ODD_LINES.values(), ids=list(ODD_LINES))
def test_reader_matches_json_loads_per_line(text):
    reads_like_json_loads(text)


def test_reader_matches_json_loads_on_canonical_traces(trace_text):
    for text in (trace_text, to_jsonl(sample_runs()[:1]) + to_jsonl(sample_runs()[-1:])):
        assert isinstance(reads_like_json_loads(text), str)


FRAGMENTS = [
    " ", "\t", "\r", "\n", "\ufeff", "\u2028", "\x85", "\x1c", "\x00", "NaN", "Infinity",
    '"', "\\", "{", "}", "[", "]", ",", ":", "1", "-", ".", "e", "é", '{"kind":"z"}',
]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_reader_matches_json_loads_on_random_edits(data):
    lines = list(short_trace_lines())
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, len(lines) - 1))
        line = lines[at]
        pos = data.draw(st.integers(0, len(line)))
        edit = data.draw(st.sampled_from(["insert", "delete", "join"]))
        if edit == "insert":
            lines[at] = line[:pos] + data.draw(st.sampled_from(FRAGMENTS)) + line[pos:]
        elif edit == "delete":
            lines[at] = line[:pos] + line[pos + 1:]
        elif at + 1 < len(lines):
            lines[at : at + 2] = [line + lines[at + 1]]
    reads_like_json_loads("\n".join(lines) + "\n")
