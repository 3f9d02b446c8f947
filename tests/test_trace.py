"""Round-trip and strict-parsing behavior of the ND-JSON trace format."""

import copy
import dataclasses
import functools
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viewsync import simnet, trace
from viewsync.simnet import Corruption, SimConfig, Simulation
from viewsync.trace import (
    PAYLOAD_FIELDS,
    RECORD_FIELDS,
    TRACE_VERSION,
    TraceParseError,
    dumps_record,
    malformed_field,
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
    # drifted clocks give int ticks on a finer grid; windows and corruptions
    # fill the header
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
    assert all(type(r["time"]) is int for r in records if r["kind"] != "deliver")
    assert records[0]["grid"] > Simulation(SimConfig(n=4, delta_cap=2)).resolved.grid
    assert parse_jsonl(to_jsonl(records)) == records


def test_write_trace_matches_to_jsonl(trace_text, tmp_path):
    records = parse_jsonl(trace_text)
    path = tmp_path / "t.jsonl"
    write_trace(records, path)
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
    """Records of runs that between them write every record kind and payload
    shape, drifted clocks, sync windows, corruptions and a 31-way broadcast."""
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
        # a relayer corrupted before its stash fills wakes up to release it
        SimConfig(
            n=4, corruptions=[Corruption(3, "late_qc_relayer", 2)], stop="horizon", horizon=40
        ),
    ]
    return tuple(r for cfg in configs for r in Simulation(cfg).run())


HOT_KINDS = ("send", "deliver", "threshold")  # the kinds formatted directly


def hot(records):
    return [r for r in records if r["kind"] in HOT_KINDS]


# values to put in any field: floats json.dumps refuses (NaN, inf), types no
# hot field has, and two that some fields may hold ("3/7" as a trace v3
# tick, a big int)
ODD = [True, False, 1.0, -0.0, float("nan"), float("inf"), None, "é", '"\\\n', "3/7", [1], {}, 2**70]
ODD_VALUES = st.sampled_from(ODD)


@st.composite
def edited_records(draw, kind=None):
    """A record of the sample runs (of ``kind``, if given), whole or with one
    edit the simulator never makes: an odd value, a missing or an extra key,
    an odd item in a list, a tuple of signers, recipients or deliver times,
    an unknown payload type."""
    records = [r for r in sample_runs() if kind in (None, r["kind"])]
    record = copy.deepcopy(draw(st.sampled_from(records)))
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
        key = draw(st.sampled_from(["zz", "a", "payloads", "\u00e9", "seq", "time"]))
        record[key] = draw(st.one_of(ODD_VALUES, st.integers(0, 10**6)))
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


@settings(max_examples=400, deadline=None)
@given(record=st.sampled_from(HOT_KINDS).flatmap(edited_records))
def test_every_edited_hot_record_is_json_dumps(record):
    # as many of each hot kind, though a trace holds few threshold records
    agrees_with_reference(record)


def test_every_odd_value_in_every_hot_field_matches_json_dumps():
    # one record per (kind, payload type), every field of it, of its payload
    # and the last item of each list set to every odd value in turn
    shapes = {}
    for r in hot(sample_runs()):
        shapes.setdefault((r["kind"], r.get("payload", {}).get("type")), r)
    assert len(shapes) == 7
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
        assert o.get("kind") not in HOT_KINDS, o
        return super().encode(o)


def test_every_simulated_send_and_deliver_is_formatted_directly(monkeypatch):
    refusing = HotKindsRefused(sort_keys=True, separators=(",", ":"), allow_nan=False)
    monkeypatch.setattr(trace, "_ENCODER", refusing)
    records = sample_runs()
    types = {r["payload"]["type"] for r in hot(records) if r["kind"] == "send"}
    assert types == {"view_message", "vote", "proposal", "view_certificate", "quorum_certificate"}
    # the drifted run's times are ints too, and a "p/q" time, which trace v5
    # has no form for, goes to the encoder
    for r in hot(records):
        times = [r.get("time", 0), r.get("proc_clock", 0), *r.get("deliver_times", ())]
        assert {*map(type, times)} == {int}, r
    assert max(len(r.get("recipients", ())) for r in records) == 31
    assert to_jsonl(records) == "".join(reference(r) + "\n" for r in records)
    send, deliver, threshold = (next(r for r in hot(records) if r["kind"] == k) for k in HOT_KINDS)
    assert trace._send({**send, "time": "1/2"}) is None
    assert trace._send({**send, "deliver_times": ["1/2", *send["deliver_times"][1:]]}) is None
    assert trace._deliver({**deliver, "proc_clock": "1/2"}) is None
    assert trace._threshold({**threshold, "boundary_clock": "1/2"}) is None


FORMATTERS = {"send": trace._send, "deliver": trace._deliver, "threshold": trace._threshold}


def test_a_hot_record_that_carries_a_seq_goes_to_the_encoder():
    # a record in trace v4's shape, with its seq and a delivery's time put
    # back, is no record the simulator writes: its formatter refuses it, and
    # the encoder writes it; the simulator's own records are formatted
    for seq, record in enumerate(sample_runs()):
        formatter = FORMATTERS.get(record["kind"])
        if formatter is None:
            continue
        assert formatter(record) == reference(record), record
        v4 = [{**record, "seq": seq}]
        if record["kind"] == "deliver":
            v4 += [{**record, "seq": seq, "time": 0}, {**record, "time": 0}]
        for old in v4:
            assert formatter(old) is None, old
            assert dumps_record(old) == reference(old)


# -- the tables: RECORD_FIELDS and PAYLOAD_FIELDS are what the simulator writes --


def test_the_simulator_writes_the_tables():
    # every record but the header has "kind" and its kind's fields in table
    # order, and no "seq"; its payload "type", "view" and its type's field;
    # and every kind and payload type of the tables turns up
    seen = set()
    for r in sample_runs():
        if r["kind"] == "header":
            n = r["config"]["n"]
            continue
        assert list(r) == ["kind", *RECORD_FIELDS[r["kind"]]], r
        seen.add(r["kind"])
        if "payload" in r:
            assert list(r["payload"]) == ["type", "view", *PAYLOAD_FIELDS[r["payload"]["type"]]]
            seen.add(r["payload"]["type"])
        assert malformed_field(r, n) is None, r
    assert seen == {*RECORD_FIELDS, *PAYLOAD_FIELDS}


def test_the_simulators_payload_tables_are_the_payload_schema():
    # the payload classes the simulator receives and writes are exactly those
    # PAYLOAD_FIELDS names, each written as the type it names
    assert set(simnet._RECEIVERS) == set(simnet._PAYLOAD_DICTS)
    written = {}
    for cls in simnet._PAYLOAD_DICTS:
        fields = [f.name for f in dataclasses.fields(cls)]
        payload = cls(*(() if name == "signers" else 0 for name in fields))
        record = simnet.payload_to_dict(payload)
        assert record["type"] == re.sub(r"(?<!^)([A-Z])", r"_\1", cls.__name__).lower()
        assert list(record) == ["type", "view", *PAYLOAD_FIELDS[record["type"]]]
        written[record["type"]] = cls
    assert set(written) == set(PAYLOAD_FIELDS)


def test_each_payload_field_sorts_before_type_and_view():
    # which lets one f-string write every payload in sorted key order
    for fields in PAYLOAD_FIELDS.values():
        (name,) = fields
        assert name < "type" < "view"


@pytest.mark.parametrize(
    "edit,found",
    [
        (lambda r: r.update(sender=True), ("sender", "is malformed: True")),
        (lambda r: r["recipients"].append(4), ("recipients", "is malformed: [0, 1, 2, 3, 4]")),
        (lambda r: r["deliver_times"].pop(), ("deliver_times", "has 3 entries for 4 recipients")),
        (
            lambda r: r["deliver_times"].__setitem__(0, 0.5),
            ("deliver_times", "is malformed: [0.5, 1, 1, 1]"),
        ),
        (
            lambda r: r["deliver_times"].__setitem__(1, "1/2"),
            ("deliver_times", "is malformed: [0, '1/2', 1, 1]"),
        ),
        (lambda r: r.update(payload=[]), ("payload", "is not an object: []")),
        (lambda r: r["payload"].pop("type"), ("payload.type", "is missing or not a string")),
        (lambda r: r["payload"].update(leader=False), ("payload.leader", "is malformed: False")),
        (lambda r: r.update(time=1.0), ("time", "is malformed: 1.0")),
        (lambda r: r.pop("kind"), ("kind", "is missing or not a string")),
    ],
)
def test_malformed_field_names_the_first_field_out_of_shape(edit, found):
    record = {
        "kind": "send",
        "time": 0,
        "sender": 0,
        "recipients": [0, 1, 2, 3],
        "payload": {"type": "proposal", "view": 0, "leader": 0},
        "deliver_times": [0, 1, 1, 1],
    }
    assert malformed_field(record, 4) is None
    edit(record)
    assert malformed_field(record, 4) == found


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


# -- the file reader: read_trace reads as parse_jsonl reads the whole text -----

BLOCKS = [1, 7, 4096, trace._BLOCK]


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("text", ODD_LINES.values(), ids=list(ODD_LINES))
def test_file_reader_reads_as_the_whole_text(text, block, tmp_path, monkeypatch):
    path = tmp_path / "t.jsonl"
    path.write_bytes(text.encode("utf-8"))
    monkeypatch.setattr(trace, "_BLOCK", block)
    with open(path, encoding="utf-8") as fh:  # a text-mode read: universal newlines
        whole = fh.read()
    assert outcome(read_trace, path) == outcome(parse_jsonl, whole)


def undecodable(newline, bad_at, bad=b"\xff", json_error_at=None):
    """The short trace's lines joined by newline, with bad inserted into
    line bad_at (0-based) and line json_error_at cut short."""
    lines = [line.encode("utf-8") for line in short_trace_lines()]
    lines[bad_at] = lines[bad_at][:9] + bad + lines[bad_at][9:]
    if json_error_at is not None:
        lines[json_error_at] = lines[json_error_at][:-1]
    sep = newline.encode("utf-8")
    return sep.join(lines) + sep


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r", "\u2028", "\x85"])
@pytest.mark.parametrize("bad_at", [0, 3, -1])
def test_undecodable_bytes_are_an_error_on_their_line(block, newline, bad_at, tmp_path, monkeypatch):
    path = tmp_path / "t.jsonl"
    path.write_bytes(undecodable(newline, bad_at))
    monkeypatch.setattr(trace, "_BLOCK", block)
    line_no = range(1, len(short_trace_lines()) + 1)[bad_at]
    with pytest.raises(TraceParseError, match=f"^line {line_no}: not UTF-8: invalid start byte$"):
        read_trace(path)


@pytest.mark.parametrize("block", BLOCKS)
def test_undecodable_bytes_are_read_in_line_order(block, tmp_path, monkeypatch):
    monkeypatch.setattr(trace, "_BLOCK", block)
    path = tmp_path / "t.jsonl"
    path.write_bytes(undecodable("\n", 4, json_error_at=2))
    with pytest.raises(TraceParseError, match="^line 3: invalid JSON"):
        read_trace(path)
    path.write_bytes(undecodable("\n", 2, json_error_at=4))
    with pytest.raises(TraceParseError, match="^line 3: not UTF-8"):
        read_trace(path)
    whole = "".join(line + "\n" for line in short_trace_lines()).encode("utf-8")
    path.write_bytes(whole + b"\xe2\x82")  # a character cut off at the end
    line_no = len(short_trace_lines()) + 1
    with pytest.raises(TraceParseError, match=f"^line {line_no}: not UTF-8: unexpected end"):
        read_trace(path)
