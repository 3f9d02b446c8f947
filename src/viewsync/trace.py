"""Newline-delimited JSON traces: canonical serialization and strict parsing.

A trace is a list of flat dict records, one per simulation event, each with
its position ``seq``. Version 3 carries every time as a JSON integer count of
ticks on the grid the header names; only a value that is not whole (a
drifted clock's) is a ``"p/q"`` tick string, and clock rates take the same
two forms (``timeutil.dump_ticks``). Each ``send()`` call is one ``send``
record, and each of its deliveries one ``deliver`` record that names it by
seq instead of repeating it::

    {"deliver_times":[…],"kind":"send","payload":{…},"recipients":[…],
     "sender":s,"seq":N,"time":T,"words":W}
    {"kind":"deliver","proc_clock":C,"proc_view":V,"recipient":p,"send":S,
     "seq":N,"time":T}

``deliver_times`` lists when each of ``recipients`` is due, and ``words`` is
the send's cost: one per recipient other than the sender. Versions 1 and 2,
which wrote one ``send`` record per recipient and repeated the sender,
payload and send time in every ``deliver``, are not read.

The serialized form is the canonical identity of a run: determinism and
replay guarantees are stated over these bytes. A record's canonical line is
``json.dumps(record, sort_keys=True, separators=(",", ":"), allow_nan=False)``.
``send`` and ``deliver`` records, nearly all of a trace, are formatted
directly into those same bytes by one f-string each over their fixed sorted
key order; a record of another kind, or one whose keys or value types are
not exactly the simulator's, goes through the JSON encoder instead.

The reader splits the text with ``str.splitlines`` and parses each line on
its own, so a record is one line and an error names its line. It calls the
JSON scanner of a default ``JSONDecoder`` at index 0 and keeps the result
only when that scan consumes the whole line. That is exactly what
``json.loads(line)`` returns: for a line with no leading whitespace it runs
the same scan at the same index, and then only checks that nothing but
whitespace follows. Any other line (leading or trailing whitespace, a BOM,
a second value, bad JSON, a blank line) goes through the blank-line check
and ``json.loads`` itself, for the same record or the same error. One
``json.loads`` over the whole text would not be exact: a bracket left open
on one line can swallow the next, and one line can hold two records.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, IO, Iterable

TRACE_VERSION = 3

Record = dict[str, Any]


class TraceParseError(ValueError):
    """Malformed or wrong-version trace; carries the offending 1-based line."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)
# The scanner json.loads uses: a fresh decoder has the default one's settings.
_scan_once = json.JSONDecoder().scan_once
_INT = {int}
_TICK = {int, str}


def _str_tick(value) -> str | None:
    """A tick field that is not an int, as JSON: a quoted ``"p/q"`` string;
    None for any other type."""
    return _quote(value) if type(value) is str else None


def _ints(values) -> str | None:
    """A list of exact ints as JSON; None for anything else."""
    if type(values) is not list or not {*map(type, values)} <= _INT:
        return None
    # the repr of a list of exact ints is its JSON with spaces
    return str(values).replace(" ", "")


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
            signers = _ints(p["signers"])
            if signers is None:
                return None
            if ptype == "view_certificate":
                return f'{{"signers":{signers},"type":"view_certificate","view":{view}}}'
            return f'{{"signers":{signers},"type":"quorum_certificate","view":{view}}}'
    except KeyError:
        pass
    return None


def _tick_list(values) -> str | None:
    """A list of tick fields as JSON, each an int or a ``"p/q"`` string;
    None for anything else."""
    if type(values) is not list:
        return None
    kinds = {*map(type, values)}
    if kinds <= _INT:
        return str(values).replace(" ", "")
    if kinds <= _TICK:
        return "[" + ",".join(str(v) if type(v) is int else _quote(v) for v in values) + "]"
    return None


# The two hot kinds. Each reads every expected key of a record that has
# exactly that many, checks each value's type, and writes the bytes the
# encoder would; any other record gets None and goes to the encoder.


def _send(r: Record) -> str | None:
    if len(r) != 8:
        return None
    try:
        payload, deliver_times, time = _payload(r["payload"]), r["deliver_times"], r["time"]
        recipients, sender, seq, words = r["recipients"], r["sender"], r["seq"], r["words"]
    except KeyError:
        return None
    deliver_times, recipients = _tick_list(deliver_times), _ints(recipients)
    if type(time) is not int:
        time = _str_tick(time)
    if (
        payload is None
        or deliver_times is None
        or recipients is None
        or time is None
        or type(sender) is not int
        or type(seq) is not int
        or type(words) is not int
    ):
        return None
    return (
        f'{{"deliver_times":{deliver_times},"kind":"send","payload":{payload},'
        f'"recipients":{recipients},"sender":{sender},"seq":{seq},"time":{time},"words":{words}}}'
    )


def _deliver(r: Record) -> str | None:
    if len(r) != 7:
        return None
    try:
        proc_clock, proc_view, recipient = r["proc_clock"], r["proc_view"], r["recipient"]
        send, seq, time = r["send"], r["seq"], r["time"]
    except KeyError:
        return None
    if type(proc_clock) is not int:
        proc_clock = _str_tick(proc_clock)
    if type(time) is not int:
        time = _str_tick(time)
    if (
        proc_clock is None
        or time is None
        or type(proc_view) is not int
        or type(recipient) is not int
        or type(send) is not int
        or type(seq) is not int
    ):
        return None
    return (
        f'{{"kind":"deliver","proc_clock":{proc_clock},"proc_view":{proc_view},'
        f'"recipient":{recipient},"send":{send},"seq":{seq},"time":{time}}}'
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
        # a scan that ends at the line's end is json.loads(line)'s record
        # (see the module docstring); any other line goes to json.loads
        try:
            rec, end = _scan_once(line, 0)
        except (StopIteration, json.JSONDecodeError):
            end = -1
        if end != len(line):
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
