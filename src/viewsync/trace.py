"""Newline-delimited JSON traces: canonical serialization and strict parsing.

A trace is a list of flat dict records, one per simulation event. Version 2
carries every time as a JSON integer count of ticks on the grid the header
names; only a value that is not whole (a drifted clock's) is a ``"p/q"``
tick string, and clock rates take the same two forms (``timeutil.dump_ticks``).
Version 1 traces, with times as rational strings in real units, are not read.
The serialized form is the canonical identity of a run: determinism and
replay guarantees are stated over these bytes. A record's canonical line is
``json.dumps(record, sort_keys=True, separators=(",", ":"), allow_nan=False)``.
``send`` and ``deliver`` records, nearly all of a trace, are formatted
directly into those same bytes by one f-string each over their fixed sorted
key order; a record of another kind, or one whose keys or value types are
not exactly the simulator's, goes through the JSON encoder instead.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, IO, Iterable

TRACE_VERSION = 2

Record = dict[str, Any]


class TraceParseError(ValueError):
    """Malformed or wrong-version trace; carries the offending 1-based line."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)
_INT = {int}


def _str_tick(value) -> str | None:
    """A tick field that is not an int, as JSON: a quoted ``"p/q"`` string;
    None for any other type."""
    return _quote(value) if type(value) is str else None


def _payload(p) -> str | None:
    """A payload as JSON, for the five shapes the simulator writes; None otherwise."""
    if type(p) is not dict or len(p) != 3:
        return None
    try:
        ptype, view = p["type"], p["view"]
        if type(view) is not int:
            return None
        if ptype == "view_message" or ptype == "vote":
            signer = p["signer"]
            if type(signer) is not int:
                return None
            if ptype == "vote":
                return f'{{"signer":{signer},"type":"vote","view":{view}}}'
            return f'{{"signer":{signer},"type":"view_message","view":{view}}}'
        if ptype == "proposal":
            leader = p["leader"]
            if type(leader) is not int:
                return None
            return f'{{"leader":{leader},"type":"proposal","view":{view}}}'
        if ptype == "view_certificate" or ptype == "quorum_certificate":
            signers = p["signers"]
            if type(signers) is not list or not {*map(type, signers)} <= _INT:
                return None
            # the repr of a list of exact ints is its JSON with spaces
            signers = str(signers).replace(" ", "")
            if ptype == "view_certificate":
                return f'{{"signers":{signers},"type":"view_certificate","view":{view}}}'
            return f'{{"signers":{signers},"type":"quorum_certificate","view":{view}}}'
    except KeyError:
        pass
    return None


# The two hot kinds. Each reads every expected key of a record that has
# exactly that many, checks each value's type, and writes the bytes the
# encoder would; any other record gets None and goes to the encoder.


def _send(r: Record) -> str | None:
    if len(r) != 8:
        return None
    try:
        payload, deliver_time, time = _payload(r["payload"]), r["deliver_time"], r["time"]
        recipient, sender, seq, words = r["recipient"], r["sender"], r["seq"], r["words"]
    except KeyError:
        return None
    if type(deliver_time) is not int:
        deliver_time = _str_tick(deliver_time)
    if type(time) is not int:
        time = _str_tick(time)
    if (
        payload is None
        or deliver_time is None
        or time is None
        or type(recipient) is not int
        or type(sender) is not int
        or type(seq) is not int
        or type(words) is not int
    ):
        return None
    return (
        f'{{"deliver_time":{deliver_time},"kind":"send","payload":{payload},'
        f'"recipient":{recipient},"sender":{sender},"seq":{seq},"time":{time},"words":{words}}}'
    )


def _deliver(r: Record) -> str | None:
    if len(r) != 9:
        return None
    try:
        payload, proc_clock, proc_view = _payload(r["payload"]), r["proc_clock"], r["proc_view"]
        recipient, send_time, sender = r["recipient"], r["send_time"], r["sender"]
        seq, time = r["seq"], r["time"]
    except KeyError:
        return None
    if type(proc_clock) is not int:
        proc_clock = _str_tick(proc_clock)
    if type(send_time) is not int:
        send_time = _str_tick(send_time)
    if type(time) is not int:
        time = _str_tick(time)
    if (
        payload is None
        or proc_clock is None
        or send_time is None
        or time is None
        or type(proc_view) is not int
        or type(recipient) is not int
        or type(sender) is not int
        or type(seq) is not int
    ):
        return None
    return (
        f'{{"kind":"deliver","payload":{payload},"proc_clock":{proc_clock},'
        f'"proc_view":{proc_view},"recipient":{recipient},"send_time":{send_time},'
        f'"sender":{sender},"seq":{seq},"time":{time}}}'
    )


def dumps_record(record: Record) -> str:
    """The canonical JSON line of one record (without its newline)."""
    if type(record) is dict:
        kind = record.get("kind")
        line = _send(record) if kind == "send" else _deliver(record) if kind == "deliver" else None
        if line is not None:
            return line
    return _ENCODER.encode(record)


def to_jsonl(records: Iterable[Record]) -> str:
    return "".join(dumps_record(r) + "\n" for r in records)


def write_trace(records: Iterable[Record], fh: IO[str]) -> None:
    for r in records:
        fh.write(dumps_record(r) + "\n")


def parse_jsonl(text: str) -> list[Record]:
    """Parse a whole trace, validating shape enough to fail loudly, not deeply."""
    records: list[Record] = []
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


def read_trace(path: str) -> list[Record]:
    with open(path, encoding="utf-8") as fh:
        return parse_jsonl(fh.read())
