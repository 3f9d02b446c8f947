"""Newline-delimited JSON traces: canonical serialization and strict parsing.

A trace is a list of flat dict records, one per simulation event. A record's
seq is its 0-based line index, the header's 0, and is not written. Version 5
carries every time, clock value and delivery time as a JSON int count of
ticks on the grid the header names; only the header's clock rates may be
``"p/q"`` strings (``timeutil.dump_ticks``). Each ``send()`` call is one
``send`` record, and each of its deliveries one ``deliver`` record that
names it by seq instead of repeating it::

    {"deliver_times":[…],"kind":"send","payload":{…},"recipients":[…],
     "sender":s,"time":T}
    {"kind":"deliver","proc_clock":C,"proc_view":V,"recipient":p,"send":S}

``deliver_times`` lists when each of ``recipients`` is due, and a
``deliver`` record has no time of its own: it happens at its send's entry
for its recipient. Every other record has a ``time``. A send costs one word
per recipient other than the sender, which the reader derives from
``recipients``. Versions 1 to 4 are not read: 1 and 2 wrote one ``send``
record per recipient and repeated the sender, payload and send time in every
``deliver``, 3 wrote a drifted clock's times as ``"p/q"`` strings on a
coarser grid and stored each send's word count, and 4 wrote every record's
seq and every deliver's time.

Two tables define every record but the header (whose one writer and reader
are ``simnet.Resolved.header`` and ``from_header``): ``RECORD_FIELDS`` gives
each kind's fields and their shapes, and ``PAYLOAD_FIELDS`` each payload
type's. Derived from them are the payload formatter and ``malformed_field``,
which the analyzer calls to name the first absent or malformed field once a
read has failed. The hot code is written out and tested against them, since
table-driven versions measured slower: the simulator's record literals and
``simnet.payload_to_dict`` (one entry per payload class), the ``send``,
``deliver`` and ``threshold`` formatters, and the analyzer's scan.

The serialized form is the canonical identity of a run: determinism and
replay guarantees are stated over these bytes. A record's canonical line is
``json.dumps(record, sort_keys=True, separators=(",", ":"), allow_nan=False)``.
``send``, ``deliver`` and ``threshold`` records, nearly all of a trace, are
formatted directly into those same bytes by one f-string each over their
fixed sorted key order. A list of exact ints is written as its repr without
spaces, with two short paths: a list of one int (a send's one recipient and
its delivery time) by an f-string, and ``list(range(n))`` (a broadcast's
recipients) as a string made once per ``n``. A record of another kind, or
one whose keys or value types are not exactly the simulator's, goes through
the JSON encoder instead.

The reader splits the text with ``str.splitlines`` and parses each line on
its own, so a record is one line and an error names its line. It yields each
record as soon as it is parsed, and checks the header (first, and of this
version) and the end record (last) after the last line, so reading it to the
end raises what a whole read would, in the same order: ``parse_jsonl`` and
``read_trace`` are lists of what it yields. ``iter_trace`` streams a file
through it, read a block at a time and cut after a newline byte, into exactly
the lines a whole read would give; bytes that are not UTF-8 are an error on
their line. A line is parsed by one call of the JSON scanner of a default
``JSONDecoder`` at index 0, whose result is kept only when that scan
consumes the whole line. That is exactly what
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
from functools import lru_cache
from itertools import chain
from typing import Any, Iterable, Iterator

TRACE_VERSION = 5

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

# -- the record format ---------------------------------------------------------

# Each kind the simulator writes, with its fields besides "kind", in the
# order the simulator writes them: every kind but "deliver" has a "time".
# Shapes are exact types, so a bool is not an int:
#   int      an int
#   proc     a processor id: an int in [0, n)
#   view     a view number: an int >= 0
#   tick     an int count of ticks
#   str      a string
#   payload  an object with a "type" string, an int "view" and the fields
#            PAYLOAD_FIELDS gives that type
#   procs, ints, ticks
#            a list of the shape without the "s"; "ticks" has one entry
#            per entry of "recipients"
RECORD_FIELDS = {
    "send": {
        "time": "tick",
        "sender": "proc",
        "recipients": "procs",
        "payload": "payload",
        "deliver_times": "ticks",
    },
    "deliver": {"send": "int", "recipient": "proc", "proc_view": "int", "proc_clock": "tick"},
    "threshold": {"time": "tick", "proc": "proc", "boundary_clock": "tick", "proc_view": "int"},
    "corrupt": {"time": "tick", "proc": "proc", "strategy": "str"},
    "form_qc": {"time": "tick", "proc": "proc", "view": "view", "signers": "ints"},
    "form_vc": {"time": "tick", "proc": "proc", "view": "view", "signers": "ints"},
    "wake": {"time": "tick", "proc": "proc"},
    "end": {"time": "tick", "reason": "str"},
}
# Each payload type's fields besides "type" and "view": exactly one, whose
# name sorts before both, which _payload relies on.
PAYLOAD_FIELDS = {
    "view_message": {"signer": "int"},
    "vote": {"signer": "int"},
    "proposal": {"leader": "int"},
    "view_certificate": {"signers": "ints"},
    "quorum_certificate": {"signers": "ints"},
}
_PAYLOAD_FIELD = {t: next(iter(fields.items())) for t, fields in PAYLOAD_FIELDS.items()}
_SCALAR_TYPES = {"int": _INT, "tick": _INT, "str": {str}, "payload": {dict}}


def _fits(value, shape: str, n: int) -> bool:
    if shape in ("procs", "ints", "ticks"):
        return type(value) is list and all(_fits(v, shape[:-1], n) for v in value)
    if shape == "proc":
        return type(value) is int and 0 <= value < n
    if shape == "view":
        return type(value) is int and value >= 0
    return type(value) in _SCALAR_TYPES[shape]


def malformed_field(rec, n: int) -> tuple[str, str] | None:
    """The first field of ``rec`` that is absent or not in its shape, as
    ``(name, problem)`` (``payload.<name>`` inside the payload), with
    processor ids checked against ``[0, n)``; None if there is none. A kind
    the table does not list has only its kind checked, and a payload type it
    does not list only its type and view."""
    if type(rec) is not dict or type(rec.get("kind")) is not str:
        return "kind", "is missing or not a string"
    for name, shape in RECORD_FIELDS.get(rec["kind"], {}).items():
        if name not in rec:
            return name, "is missing"
        value = rec[name]
        if not _fits(value, shape, n):
            problem = "is not an object" if shape == "payload" else "is malformed"
            return name, f"{problem}: {value!r}"
        if shape == "ticks" and len(value) != len(rec["recipients"]):
            return name, f"has {len(value)} entries for {len(rec['recipients'])} recipients"
        if shape != "payload":
            continue
        if type(value.get("type")) is not str:
            return "payload.type", "is missing or not a string"
        for sub, sub_shape in {"view": "int", **PAYLOAD_FIELDS.get(value["type"], {})}.items():
            if sub not in value:
                return f"payload.{sub}", "is missing"
            if not _fits(value[sub], sub_shape, n):
                return f"payload.{sub}", f"is malformed: {value[sub]!r}"
    return None


# -- the writer ----------------------------------------------------------------


@lru_cache(maxsize=64)
def _range(n: int) -> tuple[list[int], str]:
    """``list(range(n))`` and its JSON: a broadcast's recipients."""
    ids = list(range(n))
    return ids, str(ids).replace(" ", "")


def _ints(values) -> str | None:
    """A list of exact ints as JSON; None for anything else."""
    if type(values) is not list:
        return None
    if len(values) == 1:  # a send to one recipient
        (value,) = values
        return f"[{value}]" if type(value) is int else None
    if not {*map(type, values)} <= _INT:
        return None
    ids, text = _range(len(values))
    if values == ids:
        return text
    # the repr of a list of exact ints is its JSON with spaces
    return str(values).replace(" ", "")


def _payload(p) -> str | None:
    """A payload as JSON, for the shapes PAYLOAD_FIELDS gives; None otherwise."""
    if type(p) is not dict or len(p) != 3:
        return None
    try:
        ptype, view = p["type"], p["view"]
        name, shape = _PAYLOAD_FIELD[ptype]
        value = p[name]
    except (KeyError, TypeError):  # TypeError: an unhashable type
        return None
    value = _ints(value) if shape == "ints" else value if type(value) is int else None
    if value is None or type(ptype) is not str or type(view) is not int:
        return None
    return f'{{"{name}":{value},"type":"{ptype}","view":{view}}}'


# The hot kinds. Each formatter reads every expected key of a record that has
# exactly that many, checks each value's type, and writes the bytes the
# encoder would; any other record gets None and goes to the encoder.


def _send(r: Record) -> str | None:
    if len(r) != 6:
        return None
    try:
        payload, deliver_times, time = _payload(r["payload"]), r["deliver_times"], r["time"]
        recipients, sender = r["recipients"], r["sender"]
    except KeyError:
        return None
    deliver_times, recipients = _ints(deliver_times), _ints(recipients)
    if (
        payload is None
        or deliver_times is None
        or recipients is None
        or type(time) is not int
        or type(sender) is not int
    ):
        return None
    return (
        f'{{"deliver_times":{deliver_times},"kind":"send","payload":{payload},'
        f'"recipients":{recipients},"sender":{sender},"time":{time}}}'
    )


def _deliver(r: Record) -> str | None:
    if len(r) != 5:
        return None
    try:
        proc_clock, proc_view = r["proc_clock"], r["proc_view"]
        recipient, send = r["recipient"], r["send"]
    except KeyError:
        return None
    if (
        type(proc_clock) is not int
        or type(proc_view) is not int
        or type(recipient) is not int
        or type(send) is not int
    ):
        return None
    return (
        f'{{"kind":"deliver","proc_clock":{proc_clock},"proc_view":{proc_view},'
        f'"recipient":{recipient},"send":{send}}}'
    )


def _threshold(r: Record) -> str | None:
    if len(r) != 5:
        return None
    try:
        boundary_clock, proc, proc_view = r["boundary_clock"], r["proc"], r["proc_view"]
        time = r["time"]
    except KeyError:
        return None
    if (
        type(boundary_clock) is not int
        or type(proc) is not int
        or type(proc_view) is not int
        or type(time) is not int
    ):
        return None
    return (
        f'{{"boundary_clock":{boundary_clock},"kind":"threshold","proc":{proc},'
        f'"proc_view":{proc_view},"time":{time}}}'
    )


def dumps_record(record: Record) -> str:
    """The canonical JSON line of one record (without its newline)."""
    if type(record) is dict:
        kind = record.get("kind")
        if kind == "deliver":
            line = _deliver(record)
        elif kind == "send":
            line = _send(record)
        elif kind == "threshold":
            line = _threshold(record)
        else:
            line = None
        if line is not None:
            return line
    return _ENCODER.encode(record)


def to_jsonl(records: Iterable[Record]) -> str:
    return "".join(dumps_record(r) + "\n" for r in records)


def write_trace(records: Iterable[Record], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(dumps_record(r) + "\n")


def _records(lines: Iterable[str]) -> Iterator[Record]:
    """The records on the lines of a whole trace, each yielded as soon as
    its line is parsed, validating shape enough to fail loudly, not deeply.

    A line that is not a record raises as it is reached. The checks on the
    header (first, and of this version) and on the end record (last) run
    after the last line, so a consumer that reads to the end gets the same
    error, in the same order, as ``parse_jsonl``.
    """
    head = rec = None
    line_no = 0
    for line_no, line in enumerate(lines, start=1):
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
        if head is None:
            head = rec
        yield rec
    if head is None:
        raise TraceParseError(1, "empty trace")
    if head.get("kind") != "header":
        raise TraceParseError(1, "first record must be the header")
    if head.get("version") != TRACE_VERSION:
        raise TraceParseError(1, f"unsupported trace version {head.get('version')!r}")
    if rec.get("kind") != "end":
        raise TraceParseError(line_no, "trace truncated: no end record")


def parse_jsonl(text: str) -> list[Record]:
    """Parse a whole trace text (see ``_records``)."""
    return list(_records(text.splitlines()))


_BLOCK = 1 << 20  # bytes of a trace file read at a time


def _line_blocks(path) -> Iterator[list[str]]:
    """The lines of a trace file's UTF-8 text, as ``str.splitlines`` splits
    the whole of it, in lists of about a block's worth.

    Each block is cut after its last newline byte, which is part of no other
    UTF-8 character, so no line and no character straddles a cut. Bytes that
    are not UTF-8 are a TraceParseError on their line, raised once the lines
    before it are out.
    """
    line_no = 0
    rest = b""
    with open(path, "rb") as fh:
        while True:
            block = fh.read(_BLOCK)
            cut = block.rfind(b"\n") + 1
            if block and not cut:
                rest += block
                continue
            data, rest = rest + block[:cut], block[cut:]
            try:
                lines = data.decode("utf-8").splitlines()
            except UnicodeDecodeError as exc:
                lines = (data[: exc.start].decode("utf-8") + "_").splitlines()
                yield lines[:-1]
                raise TraceParseError(line_no + len(lines), f"not UTF-8: {exc.reason}") from None
            line_no += len(lines)
            yield lines
            if not block:
                return


def iter_trace(path) -> Iterator[Record]:
    """The records of the trace file at ``path``, each parsed as it is asked
    for, with ``read_trace``'s checks and errors. The file is opened when the
    first record is asked for, and read a block at a time."""
    return _records(chain.from_iterable(_line_blocks(path)))


def read_trace(path) -> list[Record]:
    return list(iter_trace(path))
