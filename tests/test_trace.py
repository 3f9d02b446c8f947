"""Round-trip and strict-parsing behavior of the ND-JSON trace format."""

import copy
import dataclasses
import functools
import gc
import json
import re
import sys
import warnings
from contextlib import closing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viewsync import simnet, trace
from viewsync.cli import main
from viewsync.harness import replay_file
from viewsync.metrics import TraceAnalysisError, analyze
from viewsync.simnet import Corruption, SimConfig, Simulation
from viewsync.trace import (
    PAYLOAD_CODES,
    PAYLOAD_FIELDS,
    RECORD_CODES,
    RECORD_FIELDS,
    TRACE_VERSION,
    TraceParseError,
    dumps_record,
    iter_trace,
    iter_traces,
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
    with open(path, "w", encoding="utf-8") as out:
        write_trace(records, out)
        write_trace(records, out)  # appended: the file holds two traces
    assert path.read_text(encoding="utf-8") == trace_text * 2
    assert read_trace(path) == records * 2


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


# -- the writer: dumps_record is json.dumps of a record's array, or of it ------


def json_typed(value, shape):
    """Whether a value has a row shape's JSON type; no range is checked."""
    if shape in ("procs", "ints", "ticks"):
        return type(value) is list and all(type(v) is int for v in value)
    return type(value) is (str if shape == "str" else int)


def typed_array(record):
    """The record's array if its keys are exactly its row's, its payload's
    exactly its type's, and every value has its row's JSON type; else None."""
    kind = record.get("kind") if type(record) is dict else None
    row = RECORD_FIELDS.get(kind) if type(kind) is str else None
    if row is None or set(record) != {"kind", *row}:
        return None
    array = [RECORD_CODES[kind]]
    for name, shape in row.items():
        value = record[name]
        if shape == "payload":
            ptype = value.get("type") if type(value) is dict else None
            fields = PAYLOAD_FIELDS.get(ptype) if type(ptype) is str else None
            if fields is None or set(value) != {"type", "view", *fields}:
                return None
            ((field, field_shape),) = fields.items()
            if type(value["view"]) is not int or not json_typed(value[field], field_shape):
                return None
            value = [PAYLOAD_CODES[ptype], value["view"], value[field]]
        elif not json_typed(value, shape):
            return None
        array.append(value)
    return array


def reference(record):
    """Trace v7's line for a record, written plainly: a record that fits its
    row with every value of its row's type as its array, any other as an
    object."""
    array = typed_array(record)
    value = record if array is None else array
    return json.dumps(value, sort_keys=True, separators=(",", ":"), allow_nan=False)


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


HOT_KINDS = ("send", "deliver", "threshold")  # the kinds most of a trace is

# values to put in any field: floats json.dumps refuses (NaN, inf), types no
# field has, strings to escape, and two that some fields may hold ("3/7" as a
# trace v3 tick or a string, a big int)
ODD = [True, False, 1.0, -0.0, float("nan"), float("inf"), None, "é", '"\\\n', "3/7", [1], {}, 2**70]
ODD_VALUES = st.sampled_from(ODD)


@st.composite
def edited_records(draw, kind=None):
    """A record of the sample runs (of ``kind``, if given), whole or with one
    edit the simulator never makes: an odd value, a missing or an extra key,
    an odd item in a list, a tuple of signers, recipients or delays,
    an unknown payload type."""
    records = [r for r in sample_runs() if kind in (None, r["kind"])]
    record = copy.deepcopy(draw(st.sampled_from(records)))
    payload = record.get("payload")
    lists = [k for k in ("recipients", "delays") if k in record]
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
@given(record=st.sampled_from(sorted(RECORD_FIELDS)).flatmap(edited_records))
def test_every_edited_record_of_each_kind_is_json_dumps(record):
    # as many of each kind, though a trace holds few records of most kinds
    agrees_with_reference(record)


def one_record_of_each_shape(kinds):
    """One simulated record per (kind, payload type) of the given kinds."""
    shapes = {}
    for r in sample_runs():
        if r["kind"] in kinds:
            shapes.setdefault((r["kind"], r.get("payload", {}).get("type")), r)
    return shapes


def each_field_set_to_each_odd_value(record):
    # every field of the record, of its payload and the last item of each of
    # their lists set to every odd value in turn
    payload = record.get("payload", {})
    keys = [(k,) for k in record] + [("payload", k) for k in payload]
    keys += [(k, -1) for k, v in record.items() if type(v) is list]
    keys += [("payload", k, -1) for k, v in payload.items() if type(v) is list]
    for key in keys:
        for value in ODD:
            bad = copy.deepcopy(record)
            where = bad
            for step in key[:-1]:
                where = where[step]
            where[key[-1]] = value
            agrees_with_reference(bad)


def test_every_odd_value_in_every_hot_field_matches_json_dumps():
    shapes = one_record_of_each_shape(HOT_KINDS)
    assert len(shapes) == len(HOT_KINDS) - 1 + len(PAYLOAD_FIELDS)
    for record in shapes.values():
        each_field_set_to_each_odd_value(record)


def test_every_odd_value_in_every_field_of_a_cold_compiled_kind_matches_json_dumps():
    # the kinds few records are, each of which has a compiled formatter now
    cold = set(RECORD_FIELDS) - set(HOT_KINDS)
    shapes = one_record_of_each_shape(cold)
    assert {kind for kind, _ in shapes} == cold
    for record in shapes.values():
        each_field_set_to_each_odd_value(record)


KINDS = {code: kind for kind, code in RECORD_CODES.items()}  # code -> kind
PAYLOAD_TYPES = {code: ptype for ptype, code in PAYLOAD_CODES.items()}


class RowKindsRefused(json.JSONEncoder):
    """An encoder that refuses every record of a row's kind, as an object or
    as its array; a string alone, a str field's JSON, passes."""

    def encode(self, o):
        if type(o) is list:
            assert KINDS.get(o[0]) is None, o
        elif type(o) is not str:
            assert o.get("kind") not in RECORD_FIELDS, o
        return super().encode(o)


def test_every_simulated_send_and_deliver_is_formatted_directly(monkeypatch):
    refusing = RowKindsRefused(sort_keys=True, separators=(",", ":"), allow_nan=False)
    monkeypatch.setattr(trace, "_ENCODER", refusing)
    records = sample_runs()
    hot = [r for r in records if r["kind"] in HOT_KINDS]
    types = {r["payload"]["type"] for r in hot if r["kind"] == "send"}
    assert types == set(PAYLOAD_FIELDS)
    # the drifted run's times are ints too; a "p/q" time, which trace v5 has
    # no form for, is refused by its formatter
    for r in hot:
        times = [r.get("time", 0), r.get("proc_clock", 0), *r.get("delays", ())]
        assert {*map(type, times)} == {int}, r
    assert max(len(r.get("recipients", ())) for r in records) == 31
    assert to_jsonl(hot) == "".join(reference(r) + "\n" for r in hot)
    send, deliver, threshold = (next(r for r in hot if r["kind"] == k) for k in HOT_KINDS)
    assert trace._FORMATTERS["send"]({**send, "time": "1/2"}) is None
    times = ["1/2", *send["delays"][1:]]
    assert trace._FORMATTERS["send"]({**send, "delays": times}) is None
    assert trace._FORMATTERS["deliver"]({**deliver, "proc_clock": "1/2"}) is None
    assert trace._FORMATTERS["threshold"]({**threshold, "boundary_clock": "1/2"}) is None


def test_every_simulated_record_of_a_compiled_kind_is_formatted_directly(monkeypatch):
    refusing = RowKindsRefused(sort_keys=True, separators=(",", ":"), allow_nan=False)
    monkeypatch.setattr(trace, "_ENCODER", refusing)
    records = sample_runs()
    assert {r["kind"] for r in records} == {"header", *RECORD_FIELDS}
    for r in records:
        times = [r.get("time", 0), r.get("proc_clock", 0), *r.get("delays", ())]
        assert {*map(type, times)} == {int}, r
    assert to_jsonl(records) == "".join(reference(r) + "\n" for r in records)
    first = {}
    for r in records:
        first.setdefault(r["kind"], r)
    assert trace._FORMATTERS["corrupt"]({**first["corrupt"], "strategy": 3}) is None
    assert trace._FORMATTERS["end"]({**first["end"], "reason": None}) is None


def test_a_hot_record_that_carries_a_seq_goes_to_the_encoder():
    # a record in trace v4's shape, with its seq and a delivery's time put
    # back, is no record the simulator writes: its formatter refuses it, and
    # the encoder writes it; the simulator's own records are formatted
    for seq, record in enumerate(sample_runs()):
        if record["kind"] not in HOT_KINDS:
            continue
        formatter = trace._FORMATTERS[record["kind"]]
        assert formatter(record) == reference(record), record
        v4 = [{**record, "seq": seq}]
        if record["kind"] == "deliver":
            v4 += [{**record, "seq": seq, "time": 0}, {**record, "time": 0}]
        for old in v4:
            assert formatter(old) is None, old
            assert dumps_record(old) == reference(old)


# -- formatters compiled from the table --------------------------------------


def test_each_kind_has_a_compiled_formatter():
    assert set(trace._FORMATTERS) == set(RECORD_FIELDS)
    for kind, formatter in trace._FORMATTERS.items():
        assert formatter.__code__.co_filename == f"<trace formatter: {kind}>"


ESCAPED = 'é"\\\n\u2028\x01'  # a string the encoder escapes


@pytest.mark.parametrize("kind", [["send"], {"send": 1}, 7, None])
def test_a_kind_that_is_not_a_string_goes_to_the_encoder(kind):
    record = {**next(r for r in sample_runs() if r["kind"] == "send"), "kind": kind}
    assert dumps_record(record) == reference(record)


def test_each_payload_dict_is_compiled_for_its_type():
    names = {f.__code__.co_filename for f in simnet._PAYLOAD_DICTS.values()}
    assert names == {f"<payload dict: {ptype}>" for ptype in PAYLOAD_FIELDS}


def test_a_formatter_follows_its_table_row():
    # a formatter built from a row with one more int field, and one built for
    # a new kind of int fields only, write the record's array in row order for
    # a record of their row, and refuse a record of the shape before
    send = next(r for r in sample_runs() if r["kind"] == "send")
    grown = trace._formatter("send", "s", {**RECORD_FIELDS["send"], "extra": "int"})
    for extra in (7, -(2**70)):
        assert grown({**send, "extra": extra}) == reference(send)[:-1] + f",{extra}]"
    assert grown(send) is None
    assert grown({**send, "extra": True}) is None
    assert trace._FORMATTERS["send"]({**send, "extra": 7}) is None

    tally = trace._formatter("tally", "y", {"time": "tick", "proc": "proc", "count": "int"})
    record = {"kind": "tally", "proc": 1, "count": 3, "time": 12}
    assert tally(record) == '["y",12,1,3]'  # the row's order, not the record's
    assert tally({"kind": "tally", "time": 12, "proc": 1}) is None
    assert tally({**record, "count": 3.0}) is None
    assert tally.__code__.co_filename == "<trace formatter: tally>"

    note = trace._formatter("note", "n", {"time": "tick", "text": "str"})
    record = {"kind": "note", "time": 12, "text": ESCAPED}
    assert note(record) == json.dumps(["n", 12, ESCAPED], separators=(",", ":"))
    assert note({**record, "text": 7}) is None


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


def test_the_simulators_payload_tables_are_the_payload_schema(monkeypatch):
    # the payload classes the simulator writes are exactly those
    # PAYLOAD_FIELDS names, each written as the type it names, and a correct
    # recipient takes each of them, handed to its handler by the handler's
    # name on simnet, which a tracer rebinds
    for name in ("on_vote", "on_proposal", "on_qc", "on_view_message", "on_vc"):
        monkeypatch.setattr(simnet, name, lambda *args, name=name: [name])
    sim = Simulation(SimConfig(n=4))
    received, written = {}, {}
    for cls in simnet._PAYLOAD_DICTS:
        fields = [f.name for f in dataclasses.fields(cls)]
        payload = cls(*(() if name == "signers" else 0 for name in fields))
        [received[cls.__name__]] = sim._receive_correct(1, payload, 0)
        record = simnet.payload_to_dict(payload)
        assert record["type"] == re.sub(r"(?<!^)([A-Z])", r"_\1", cls.__name__).lower()
        assert list(record) == ["type", "view", *PAYLOAD_FIELDS[record["type"]]]
        written[record["type"]] = cls
    assert set(written) == set(PAYLOAD_FIELDS)
    assert received == {
        "Vote": "on_vote",
        "Proposal": "on_proposal",
        "QuorumCertificate": "on_qc",
        "ViewMessage": "on_view_message",
        "ViewCertificate": "on_vc",
    }


@pytest.mark.parametrize("codes", [RECORD_CODES, PAYLOAD_CODES], ids=["kinds", "payload types"])
def test_each_code_is_one_ascii_letter_unique_in_its_table(codes):
    # a code is written bare inside the line's quotes, so it needs no escape
    assert all(len(code) == 1 and code.isascii() and code.isalpha() for code in codes.values())
    assert len(set(codes.values())) == len(codes)


def test_each_payload_type_has_one_field():
    # which a payload's array [code, view, value] holds third
    for fields in PAYLOAD_FIELDS.values():
        (name,) = fields
        assert name not in ("type", "view")


@pytest.mark.parametrize(
    "edit,found",
    [
        (lambda r: r.update(sender=True), ("sender", "is malformed: True")),
        (lambda r: r["recipients"].append(4), ("recipients", "is malformed: [0, 1, 2, 3, 4]")),
        (lambda r: r["recipients"].__setitem__(3, 0), ("recipients", "is malformed: [0, 1, 2, 0]")),
        (lambda r: r.update(recipients=[], delays=[]), ("recipients", "is malformed: []")),
        # each id is checked before a set is built of them
        (lambda r: r["recipients"].append([0]), ("recipients", "is malformed: [0, 1, 2, 3, [0]]")),
        (lambda r: r["delays"].pop(), ("delays", "has 3 entries for 4 recipients")),
        (
            lambda r: r["delays"].__setitem__(0, 0.5),
            ("delays", "is malformed: [0.5, 1, 1, 1]"),
        ),
        (
            lambda r: r["delays"].__setitem__(1, "1/2"),
            ("delays", "is malformed: [0, '1/2', 1, 1]"),
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
        "delays": [0, 1, 1, 1],
    }
    assert malformed_field(record, 4) is None
    edit(record)
    assert malformed_field(record, 4) == found


# -- the reader: parse_jsonl is a json.loads per line, arrays made records -----


def reference_record(line_no, value):
    """The record a line's JSON value is under trace v7, written plainly."""
    if type(value) is dict and "kind" in value:
        return value
    if type(value) is not list:
        raise TraceParseError(line_no, "record is not an array or an object with a 'kind'")
    if not value or type(value[0]) is not str:
        raise TraceParseError(line_no, f"record array does not start with a kind code: {value!r}")
    code, *values = value
    if code not in KINDS:
        raise TraceParseError(line_no, f"no record kind is written as {code!r}")
    kind = KINDS[code]
    row = RECORD_FIELDS[kind]
    if len(values) != len(row):
        message = f"{kind} record array has {len(values)} fields, not {len(row)}"
        raise TraceParseError(line_no, message)
    record = {"kind": kind, **dict(zip(row, values))}
    for name, shape in row.items():
        p = record[name]
        if shape != "payload":
            continue
        known = type(p) is list and len(p) == 3 and type(p[0]) is str
        if not known or p[0] not in PAYLOAD_TYPES:
            raise TraceParseError(
                line_no,
                f"{kind} record's payload is not a [code, view, value] array of a known code: "
                f"{value!r}",
            )
        ptype = PAYLOAD_TYPES[p[0]]
        (field,) = PAYLOAD_FIELDS[ptype]
        record[name] = {"type": ptype, "view": p[1], field: p[2]}
    return record


def reference_parse(text):
    """The reader as a plain json.loads per line, under trace v7's rule:
    each line checked as it is read, the header with line 1."""
    records = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            raise TraceParseError(line_no, "blank line inside trace")
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceParseError(line_no, f"invalid JSON: {exc.msg}") from exc
        rec = reference_record(line_no, rec)
        records.append(rec)
        if line_no == 1:
            if rec.get("kind") != "header":
                raise TraceParseError(1, "first record must be the header")
            if rec.get("version") != TRACE_VERSION:
                raise TraceParseError(1, f"unsupported trace version {rec.get('version')!r}")
    if not records:
        raise TraceParseError(1, "empty trace")
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
    "spaces inside an array": with_line(2, lambda s: s.replace(",", " , ")),
    "floats in an array": with_line(2, lambda s: '["d",1.0,-0.0,1e3,1E-2]'),
    "an object of a kind with a row": with_line(
        2, lambda s: '{"kind":"deliver","back":1,"recipient":0,"proc_view":0,"proc_clock":0}'
    ),
    "an array of an unknown kind": with_line(2, lambda s: '["telemetry",1,2]'),
    "an array of a kind that is not a string": with_line(2, lambda s: "[7,1,2]"),
    "an empty array": with_line(2, lambda s: "[]"),
    "an array one field short": with_line(2, lambda s: '["d",1,0,0]'),
    "an array one field long": with_line(2, lambda s: '["d",1,0,0,0,0]'),
    "an array of a kind's name": with_line(2, lambda s: '["deliver",1,0,0,0]'),
    "a payload of an unknown type": with_line(2, lambda s: '["s",0,0,[0],["ping",0,0],[0]]'),
    "a payload of a type's name": with_line(2, lambda s: '["s",0,0,[0],["vote",0,0],[0]]'),
    "a payload one item short": with_line(2, lambda s: '["s",0,0,[0],["v",0],[0]]'),
    "a payload one item long": with_line(2, lambda s: '["s",0,0,[0],["v",0,0,1],[0]]'),
    "a payload as an object": with_line(
        2, lambda s: '["s",0,0,[0],{"type":"vote","view":0,"signer":0},[0]]'
    ),
    "a payload of three keys": with_line(2, lambda s: '["s",0,0,[0],{"v":0,"a":0,"b":0},[0]]'),
    "a payload of three characters": with_line(2, lambda s: '["s",0,0,[0],"abc",[0]]'),
    "an array on the header line": with_line(0, lambda s: '["header",7]'),
    "a record array on the header line": with_line(0, lambda s: '["w",0,1]'),
    "an array in a trace of another version": with_line(
        0, lambda s: s.replace(f'"version":{TRACE_VERSION}', '"version":6')
    ).replace('["s",', '["send",', 1),
    "a line that is no record in a trace of another version": with_line(
        0, lambda s: s.replace(f'"version":{TRACE_VERSION}', '"version":6')
    ).replace('["s",', '3\n["s",', 1),
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


PAYLOAD_REFUSED = "send record's payload is not a [code, view, value] array of a known code"

# ODD_LINES key -> (the line its error names, the start of its message)
MALFORMED_ARRAYS = {
    "an array of an unknown kind": (3, "no record kind is written as 'telemetry'"),
    "an array of a kind that is not a string": (
        3,
        "record array does not start with a kind code: [7, 1, 2]",
    ),
    "an empty array": (3, "record array does not start with a kind code: []"),
    "a list": (3, "record array does not start with a kind code: [["),
    "an array one field short": (3, "deliver record array has 3 fields, not 4"),
    "an array one field long": (3, "deliver record array has 5 fields, not 4"),
    "an array of a kind's name": (3, "no record kind is written as 'deliver'"),
    "a payload of an unknown type": (3, PAYLOAD_REFUSED),
    "a payload of a type's name": (3, PAYLOAD_REFUSED),
    "a payload one item short": (3, PAYLOAD_REFUSED),
    "a payload one item long": (3, PAYLOAD_REFUSED),
    "a payload as an object": (3, PAYLOAD_REFUSED),
    "a payload of three keys": (3, PAYLOAD_REFUSED),
    "a payload of three characters": (3, PAYLOAD_REFUSED),
    "an array on the header line": (1, "no record kind is written as 'header'"),
    "a record array on the header line": (1, "first record must be the header"),
    "an array in a trace of another version": (1, "unsupported trace version 6"),
}


@pytest.mark.parametrize("name", MALFORMED_ARRAYS)
def test_a_malformed_array_is_an_error_on_its_line(name, tmp_path):
    # the same error from a whole text and from a streamed file
    line_no, message = MALFORMED_ARRAYS[name]
    text = ODD_LINES[name]
    path = tmp_path / "t.jsonl"
    path.write_text(text, encoding="utf-8")
    pattern = f"^line {line_no}: {re.escape(message)}"
    with pytest.raises(TraceParseError, match=pattern) as whole:
        parse_jsonl(text)
    with pytest.raises(TraceParseError, match=pattern) as streamed:
        list(iter_trace(path))
    assert whole.value.line_no == streamed.value.line_no == line_no
    assert str(whole.value) == str(streamed.value)


def test_every_kind_reads_back_as_written():
    # each kind, each payload type and strings to escape in records that
    # fit their rows (arrays), and records that do not fit or hold a value of
    # the wrong type (objects), each written and read back as the dict it was
    runs = list(sample_runs())
    head, end = runs[0], runs[-1]
    send = next(r for r in runs if r["kind"] == "send")
    fitting = [r for r in runs if r["kind"] != "header"]
    fitting += [
        {"kind": "corrupt", "time": 3, "proc": 1, "strategy": ESCAPED},
        {"kind": "end", "time": 9, "reason": ESCAPED},
    ]
    misfits = [
        {"kind": "deliver", "back": True, "recipient": 1.5, "proc_view": None, "proc_clock": "1/2"},
        {**send, "payload": {"type": "vote", "view": "x", "signer": [1, {"b": 2, "a": 1}]}},
        {"kind": "corrupt", "time": 3, "proc": 1, "strategy": None},
        {**send, "seq": 4},
        {k: v for k, v in send.items() if k != "sender"},
        {**send, "payload": {**send["payload"], "extra": 0}},
        {**send, "payload": {"type": "ping", "view": 0, "signer": 0}},
        {**send, "payload": ["vote", 0, 0]},
        {"kind": "telemetry", "time": 0},
        {"kind": "end", "time": 9, "reason": ESCAPED, "seq": 10},
    ]
    assert {r["kind"] for r in fitting} == set(RECORD_FIELDS)
    types = {r["payload"]["type"] for r in fitting if r["kind"] == "send"}
    assert types == set(PAYLOAD_FIELDS)
    records = [head, *fitting, *misfits, end]
    lines = to_jsonl(records).splitlines()
    assert lines[0].startswith("{")
    assert all(line.startswith('["') for line in lines[1 : 1 + len(fitting)])
    assert all(line.startswith("{") for line in lines[1 + len(fitting) : -1])
    back = parse_jsonl("\n".join(lines) + "\n")
    assert back == records
    for got, want in zip(back[1 : 1 + len(fitting)], fitting):
        assert list(got) == ["kind", *RECORD_FIELDS[want["kind"]]]  # the row's order


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


# -- a file of several traces: a header right after an end starts the next ----


def two_runs():
    return [
        Simulation(SimConfig(n=4, delta_cap=2, stop="horizon", horizon=horizon)).run()
        for horizon in (20, 30)
    ]


def test_a_header_right_after_an_end_starts_the_next_trace(tmp_path):
    first, second = two_runs()
    text = to_jsonl(first) + to_jsonl(second)
    assert parse_jsonl(text) == first + second
    assert to_jsonl(parse_jsonl(text)) == text
    path = tmp_path / "t.jsonl"
    path.write_text(text, encoding="utf-8")
    assert read_trace(path) == first + second
    with closing(iter_traces(path)) as traces:
        assert [list(records) for records in traces] == [first, second]
    assert [row["t_star"] for row in replay_file(path)] == [
        str(analyze(first).t_star), str(analyze(second).t_star)
    ]


def test_what_a_reader_leaves_of_a_trace_is_read_before_the_next(tmp_path):
    first, second = two_runs()
    path = tmp_path / "t.jsonl"
    path.write_text(to_jsonl(first) + to_jsonl(second), encoding="utf-8")
    with closing(iter_traces(path)) as traces:
        assert next(next(traces)) == first[0]  # the first trace's header alone
        assert list(next(traces)) == second
        assert next(traces, None) is None
    lines = (to_jsonl(first) + to_jsonl(second)).splitlines(keepends=True)
    lines[5] = "{\n"
    path.write_text("".join(lines), encoding="utf-8")
    with closing(iter_traces(path)) as traces:
        next(traces)
        with pytest.raises(TraceParseError, match="^line 6: invalid JSON"):
            next(traces)


def test_each_trace_of_a_file_is_checked_at_its_header_and_its_end():
    first, second = two_runs()
    text = to_jsonl(first)
    bad_version = to_jsonl([{**second[0], "version": 6}, *second[1:]])
    at = len(first) + 1
    with pytest.raises(TraceParseError, match=f"^line {at}: unsupported trace version 6$"):
        parse_jsonl(text + bad_version)
    cut = to_jsonl(second[:-1])
    last = len(first) + len(second) - 1
    with pytest.raises(TraceParseError, match=f"^line {last}: trace truncated: no end record$"):
        parse_jsonl(text + cut)


def test_a_header_anywhere_but_after_an_end_and_a_record_after_an_end_stay_located(tmp_path):
    # the first is the second header a trace may not hold, and the second
    # the record after an end that a trace may not hold: a file whose second
    # trace lost its header, or whose first lost its end
    first, second = two_runs()
    path = tmp_path / "t.jsonl"
    path.write_text(to_jsonl(first) + to_jsonl(second[1:]), encoding="utf-8")
    end = len(first) - 1
    message = (
        f"{second[1]['kind']} record at seq {end + 1}: "
        f"a trace ends at its end record, at seq {end}"
    )
    with pytest.raises(TraceAnalysisError, match=f"^{re.escape(message)}$"):
        replay_file(path)
    path.write_text(to_jsonl(first[:-1]) + to_jsonl(second), encoding="utf-8")
    message = f"header record at seq {end}: a trace has one header, at seq 0"
    with pytest.raises(TraceAnalysisError, match=f"^{re.escape(message)}$"):
        replay_file(path)


# -- the file reader: read_trace reads as parse_jsonl reads the whole text -----

# block sizes in bytes: the last holds each of these files whole, as the
# reader's own block (trace._BLOCK) does
BLOCKS = [1, 7, 4096, 1 << 20]


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


# -- a read that stops on a fault closes its file at once ----------------------


def mid_file_fault(fault, path):
    """Write a trace to ``path`` with a fault half-way through it: a line
    that is no JSON, or a record the analyzer refuses (a send whose time is
    no tick), which parses; after a clean trace, if the fault is in the
    file's second trace."""
    records = Simulation(SimConfig(n=4, delta_cap=2, stop="horizon", horizon=30)).run()
    clean = to_jsonl(records) if fault.endswith("in the second trace") else ""
    mid = len(records) // 2
    if fault.startswith("analysis"):
        seq = next(i for i in range(mid, len(records)) if records[i]["kind"] == "send")
        records[seq]["time"] = "x"
    lines = to_jsonl(records).splitlines(keepends=True)
    if fault.startswith("line"):
        lines[mid] = "{\n"
    path.write_text(clean + "".join(lines), encoding="utf-8")


@pytest.mark.parametrize(
    "reader, fault",
    [
        ("read_trace", "line"),
        ("replay_cell", "line"),
        ("replay_cell", "analysis"),
        ("viewsync replay", "line"),
        ("viewsync replay", "analysis"),
        ("read_trace", "line in the second trace"),
        ("replay_cell", "line in the second trace"),
        ("replay_cell", "analysis in the second trace"),
        ("viewsync replay", "line in the second trace"),
        ("viewsync replay", "analysis in the second trace"),
    ],
)
def test_a_read_that_stops_on_a_fault_closes_its_file(reader, fault, tmp_path, monkeypatch,
                                                      capsys):
    path = tmp_path / "t.jsonl"
    mid_file_fault(fault, path)
    opened = []

    def tracked(*args, **kwargs):
        fh = open(*args, **kwargs)
        opened.append(fh)
        return fh

    monkeypatch.setattr(trace, "open", tracked, raising=False)
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        if reader == "viewsync replay":
            assert main(["replay", str(path)]) == 2
            assert capsys.readouterr().err.startswith("malformed trace: ")
        else:
            error = TraceParseError if fault.startswith("line") else TraceAnalysisError
            with pytest.raises(error) as info:
                # replay_file replays each trace of the file with replay_cell
                (read_trace if reader == "read_trace" else replay_file)(path)
        # closed as the read stopped: here the exception and its traceback,
        # which hold the stream's frames, are still alive
        assert len(opened) == 1 and opened[0].closed
        info = None  # let the collection below reach the stream's frames
        gc.collect()
    assert unraisable == []
