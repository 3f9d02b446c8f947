"""Newline-delimited JSON traces: canonical serialization and strict parsing.

A trace is a list of flat dict records, one per simulation event. A record's
seq is its 0-based line index, the header's 0, and is not written. Version 8
writes the header as a JSON object and every other record as one JSON array:
its kind's one-letter code, then its fields in the order of its
``RECORD_FIELDS`` row, which is the order the simulator builds them in. A
payload is the array ``[code, view, value]``: its type's one-letter code,
its view and its type's one ``PAYLOAD_FIELDS`` field::

    ["s",time,sender,[recipients…],[code,view,value],[delays…]]
    ["d",back,recipient,proc_view,proc_clock]

for instance ``["s",24,7,[1],["v",3,7],[3]]`` and ``["d",12,7,3,2703]``,
which read back as ``{"kind": "send", …}`` with the payload ``{"type":
"vote", …}`` and ``{"kind": "deliver", …}``. The codes are
(``RECORD_CODES`` and ``PAYLOAD_CODES``)::

    kinds  s send, d deliver, t threshold, c corrupt, q form_qc,
           v form_vc, w wake, e end
    types  p proposal, v vote, m view_message, q quorum_certificate,
           c view_certificate

Every time, clock value and delay is a JSON int count of ticks on the grid
the header names; only the header's clock rates may be ``"p/q"`` strings
(``timeutil.dump_ticks``). Each ``send()`` call is one ``send`` record, and
each of its deliveries one ``deliver`` record that names it instead of
repeating it: ``back`` is the deliver's seq minus its send's. ``delays``
lists, for each of ``recipients``, how long after the send's ``time`` it is
due (0 for the sender itself), and a ``deliver`` record has no time of its
own: it happens at its send's time plus its send's delay for its recipient.
Both fields are kept as written, differences the analyzer adds back when it
joins a deliver to its send (``metrics``), so neither reader nor writer
does arithmetic on them. Every other record has a ``time``. A send costs one
word per recipient other than the sender, which the reader derives from
``recipients``. Versions 1 to 7 are not read.

Two tables define every record but the header (whose one writer and reader
are ``simnet.Resolved.header`` and ``from_header``; ``harness.run_cell`` adds
its row's config digest as ``digest``, which ``harness.replay_cell`` reads
back as the row's ``config``): each kind's row gives
its code and its fields, in their written order, with their shapes
(``RECORD_CODES`` and ``RECORD_FIELDS``), and each payload type's row its
code and its field (``PAYLOAD_CODES`` and ``PAYLOAD_FIELDS``); a code is
unique within its table. Built from them are ``malformed_field``, which the
analyzer's scan calls to name the first absent or malformed field of the
record whose read failed, the writer's formatters, the reader's decoders and
``simnet.payload_to_dict``. Each formatter and decoder is a function compiled
at import from source text generated from a table row, the way
``dataclasses`` builds its methods, so it runs as a handwritten one would.
Two readers of the tables stay written out, and are tested against them: the
simulator's record literals, as a dict display is the quickest way to build a
record, and the analyzer's scan, whose per-kind code is the invariants, not
the schema.

The serialized form is the canonical identity of a run: determinism and
replay guarantees are stated over these bytes. Every kind has a formatter,
which writes a record as its array with one f-string when its keys are
exactly "kind" and its kind's fields, its payload's exactly "type", "view"
and its type's field, and every value has its row's type: an exact int for
``int``, ``tick``, ``proc`` and ``view`` (no range is checked), a string for
``str``, a list of exact ints for ``procs``, ``ints`` and ``ticks``, and an
int view and an int or int-list value in a payload. The line is
``json.dumps([code, *fields], sort_keys=True, separators=(",", ":"),
allow_nan=False)``, with the payload as its array. A list of exact ints is
written as its repr without spaces, with two short paths: a list of one int
(a send's one recipient and its delay) by an f-string, and
``list(range(n))`` (a broadcast's recipients) as a string made once per
``n``; a string is the encoder's JSON of it alone, which escapes it as it
would inside the array. Any other record (the header, or one edited or built
by hand) is written as ``json.dumps(record, sort_keys=True, separators=(",",
":"), allow_nan=False)``, an object with its kind's and payload type's full
names, and reads back as the same dict, so the analyzer still names its
absent, extra or malformed field.

The reader splits the text with ``str.splitlines`` and parses each line on
its own, so a record is one line and an error names its line. An array
becomes the dict its kind's decoder builds, with the fields in row order and
the payload a dict again; its values are kept as they are, for the analyzer
to check. An array whose first item is not a kind's code, whose length is not
its row's, or whose payload is not a ``[code, view, value]`` array of a
payload type's code, is an error on its line. An object is kept as it is, if
it has a ``kind``. The reader yields each record as soon as it is parsed,
and raises the first fault in file order: it checks the header (first, and
of this version) as line 1 is read, every line as it is read, and the end
record (last) after the last line.

A text may hold several traces back to back, as a measure pass writes every
cell's trace to one file: a ``header`` record directly after an ``end``
record starts the next trace, whose header is checked for this version as
its line is read. A header anywhere else, and any other record after an end,
is read as a record, for the analyzer to refuse (a trace has one header, and
ends at its end record). The reader looks for that split only where a header
can arrive, on the path of a record written as an object, so the arrays
every other record is written as pass no check for it. A one-trace text is
the degenerate case: there is one format, and no file name is read.
``iter_traces`` streams a file's traces, each as the stream of its records,
read a block at a time and cut after a newline byte, into exactly the lines
a whole read would give; bytes that are not UTF-8 are an error on their
line. ``iter_trace`` streams every record of a file, each trace's in turn,
and ``parse_jsonl`` and ``read_trace`` are lists of those, so a whole read
raises what a stream does. A line is parsed by one
call of the JSON scanner of a default ``JSONDecoder`` at index 0, whose
result is kept only when that scan consumes the whole line. That is exactly
what ``json.loads(line)`` returns: for a line with no leading whitespace it
runs the same scan at the same index, and then only checks that nothing but
whitespace follows. Any other line (leading or trailing whitespace, a BOM, a
second value, bad JSON, a blank line) goes through the blank-line check and
``json.loads`` itself, for the same value or the same error. One
``json.loads`` over the whole text would not be exact: a bracket left open on
one line can swallow the next, and one line can hold two records.
"""

from __future__ import annotations

import json
from contextlib import closing
from functools import lru_cache
from itertools import chain, islice
from typing import Any, Iterable, Iterator, TextIO

TRACE_VERSION = 8

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

# Each kind the simulator writes: the one-letter code a trace writes for it,
# unique among the kinds, and its fields besides "kind", in the order the
# simulator builds them and a trace writes them: every kind but "deliver"
# has a "time".
# Shapes are exact types, so a bool is not an int:
#   int      an int
#   proc     a processor id: an int in [0, n)
#   view     a view number: an int >= 0
#   tick     an int count of ticks
#   str      a string
#   payload  an object with a "type" string, an int "view" and the fields
#            PAYLOAD_FIELDS gives that type
#   procs, ints, ticks
#            a list of the shape without the "s"; "procs" is not empty and
#            lists no id twice, and "ticks" has one entry per entry of
#            "recipients"
_RECORD_ROWS = {
    "send": (
        "s",
        {
            "time": "tick",
            "sender": "proc",
            "recipients": "procs",
            "payload": "payload",
            "delays": "ticks",
        },
    ),
    "deliver": (
        "d",
        {"back": "int", "recipient": "proc", "proc_view": "int", "proc_clock": "tick"},
    ),
    "threshold": (
        "t",
        {"time": "tick", "proc": "proc", "boundary_clock": "tick", "proc_view": "int"},
    ),
    "corrupt": ("c", {"time": "tick", "proc": "proc", "strategy": "str"}),
    "form_qc": ("q", {"time": "tick", "proc": "proc", "view": "view", "signers": "ints"}),
    "form_vc": ("v", {"time": "tick", "proc": "proc", "view": "view", "signers": "ints"}),
    "wake": ("w", {"time": "tick", "proc": "proc"}),
    "end": ("e", {"time": "tick", "reason": "str"}),
}
# Each payload type: its one-letter code, unique among the types, and its
# fields besides "type" and "view": exactly one, the third item of its array.
_PAYLOAD_ROWS = {
    "view_message": ("m", {"signer": "int"}),
    "vote": ("v", {"signer": "int"}),
    "proposal": ("p", {"leader": "int"}),
    "view_certificate": ("c", {"signers": "ints"}),
    "quorum_certificate": ("q", {"signers": "ints"}),
}
RECORD_FIELDS = {kind: fields for kind, (_, fields) in _RECORD_ROWS.items()}
RECORD_CODES = {kind: code for kind, (code, _) in _RECORD_ROWS.items()}
PAYLOAD_FIELDS = {ptype: fields for ptype, (_, fields) in _PAYLOAD_ROWS.items()}
PAYLOAD_CODES = {ptype: code for ptype, (code, _) in _PAYLOAD_ROWS.items()}
# type -> (code, field, shape), for the writer
_PAYLOAD_FIELD = {
    ptype: (code, *next(iter(fields.items()))) for ptype, (code, fields) in _PAYLOAD_ROWS.items()
}
# code -> (type, field), for the reader
_PAYLOAD_TYPE = {code: (ptype, field) for ptype, (code, field, _) in _PAYLOAD_FIELD.items()}
_KIND = {code: kind for kind, code in RECORD_CODES.items()}  # code -> kind
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
        if shape == "procs" and not 0 < len(value) == len(set(value)):  # each id passed _fits
            return name, f"is malformed: {value!r}"
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
    """A payload as its JSON array ``[code, view, value]``, for the shapes
    PAYLOAD_FIELDS gives; None otherwise."""
    if type(p) is not dict or len(p) != 3:
        return None
    try:
        ptype, view = p["type"], p["view"]
        code, name, shape = _PAYLOAD_FIELD[ptype]
        value = p[name]
    except (KeyError, TypeError):  # TypeError: an unhashable type
        return None
    value = _ints(value) if shape == "ints" else value if type(value) is int else None
    if value is None or type(ptype) is not str or type(view) is not int:
        return None
    return f'["{code}",{view},{value}]'


def _str(value) -> str | None:
    """A string as its JSON, escaped as the encoder escapes it inside an
    array; None for anything else."""
    return _ENCODER.encode(value) if type(value) is str else None


# The function a formatter passes a field of each shape through: a string, a
# list or a payload becomes its JSON, or None if it is not in its shape. A
# field of any other shape must be an exact int.
_CONVERT = {"str": "_str", "procs": "_ints", "ints": "_ints", "ticks": "_ints", "payload": "_payload"}


def _formatter(kind: str, code: str, fields: dict[str, str]):
    """The formatter of a ``kind`` record with exactly ``fields``, a
    RECORD_FIELDS row, written with ``code``, compiled from source text built
    here, the way ``dataclasses`` builds its methods. Field names are local
    names in that source, so each must be an identifier other than ``r`` and
    the builtins it calls.

    It reads every field of a record that has exactly those keys and "kind",
    checks each value's type, and writes the record's array, the bytes the
    encoder would write for it, with one f-string over the row; any other
    record gets None.
    """
    names = list(fields)
    converted = [n for n in names if fields[n] in _CONVERT]
    checks = [f"{n} is None" if n in converted else f"type({n}) is not int" for n in names]
    line = f'["{code}",' + ",".join(f"{{{n}}}" for n in names) + "]"
    source = "\n".join(
        [
            f"def _{kind}(r):",
            f"    if len(r) != {len(names) + 1}:",
            "        return None",
            "    try:",
            # one statement a field: unpacking more than three builds a tuple
            *(f"        {n} = r[{n!r}]" for n in names),
            "    except KeyError:",
            "        return None",
            *(f"    {n} = {_CONVERT[fields[n]]}({n})" for n in converted),
            f"    if {' or '.join(checks)}:",
            "        return None",
            f"    return f{line!r}",
        ]
    )
    made: dict[str, Any] = {}
    exec(compile(source, f"<trace formatter: {kind}>", "exec"), globals(), made)
    return made[f"_{kind}"]


# kind -> its formatter, for every kind but the header
_FORMATTERS = {
    kind: _formatter(kind, code, fields) for kind, (code, fields) in _RECORD_ROWS.items()
}


def dumps_record(record: Record) -> str:
    """The canonical JSON line of one record (without its newline): its
    kind's formatter's line, or the record as an object if that refuses it."""
    if type(record) is dict:
        kind = record.get("kind")
        # only a string kind is looked up: another may be unhashable
        formatter = _FORMATTERS.get(kind) if type(kind) is str else None
        line = formatter(record) if formatter is not None else None
        if line is not None:
            return line
    return _ENCODER.encode(record)


def to_jsonl(records: Iterable[Record]) -> str:
    return "".join(dumps_record(r) + "\n" for r in records)


_CHUNK = 256  # records whose lines one write joins: a few dozen KiB


def write_trace(records: Iterable[Record], out: TextIO) -> None:
    """Append the lines of ``records`` to the open text stream ``out``."""
    lines = map(dumps_record, records)
    while chunk := list(islice(lines, _CHUNK)):
        chunk.append("")  # the last line's newline
        out.write("\n".join(chunk))


# -- the reader ----------------------------------------------------------------

def _decoder(kind: str, fields: dict[str, str]):
    """The decoder of a ``kind`` record's array, for the RECORD_FIELDS row
    ``fields``, compiled from source text built here like ``_formatter``, so
    each field name must be an identifier other than ``a``, ``pcode``,
    ``pview``, ``pvalue``, ``ptype`` and ``pname``.

    It returns the record's dict, fields in row order, with its payload a
    dict again, and raises LookupError, TypeError or ValueError for an array
    of another length or a payload that is not an array ``[code, view,
    value]`` of a code PAYLOAD_CODES lists. It checks no other value.
    """
    names = list(fields)
    payloads = [n for n in names if fields[n] == "payload"]
    values = {"kind": repr(kind), **{n: n for n in names}}
    source = "\n".join(
        [
            f"def _{kind}(a):",
            f"    _, {', '.join(names)} = a",
            *(
                line
                for n in payloads
                for line in (
                    f"    if type({n}) is not list:",
                    "        raise TypeError",
                    f"    pcode, pview, pvalue = {n}",
                    "    ptype, pname = _PAYLOAD_TYPE[pcode]",
                    f'    {n} = {{"type": ptype, "view": pview, pname: pvalue}}',
                )
            ),
            "    return {" + ", ".join(f"{k!r}: {v}" for k, v in values.items()) + "}",
        ]
    )
    made: dict[str, Any] = {}
    exec(compile(source, f"<trace decoder: {kind}>", "exec"), globals(), made)
    return made[f"_{kind}"]


# code -> the decoder of its kind's array, for every kind but the header
_DECODERS = {code: _decoder(kind, fields) for kind, (code, fields) in _RECORD_ROWS.items()}


def _array_problem(a: list) -> str:
    """What is wrong with an array that its decoder refused."""
    code = a[0] if a else None
    if type(code) is not str:
        return f"record array does not start with a kind code: {a!r}"
    kind = _KIND.get(code)
    if kind is None:
        return f"no record kind is written as {code!r}"
    row = RECORD_FIELDS[kind]
    if len(a) != len(row) + 1:
        return f"{kind} record array has {len(a) - 1} fields, not {len(row)}"
    return f"{kind} record's payload is not a [code, view, value] array of a known code: {a!r}"


def _version(line_no: int, header: Record) -> None:
    if header.get("version") != TRACE_VERSION:
        raise TraceParseError(line_no, f"unsupported trace version {header.get('version')!r}")


def _records(numbered: Iterator[tuple[int, str]], start, after: list) -> Iterator[Record]:
    """The records of one trace, read from the numbered lines of a text
    that may hold several traces back to back, each yielded as soon as its
    line is parsed, validating shape enough to fail loudly, not deeply.

    ``start`` is ``(line_no, header)`` of the trace's header when its line
    has been read already, and ``(0, None)`` for a text's first trace. A
    header directly after an end record starts the next trace (see the
    module docstring): it is appended to ``after`` as that trace's start,
    and this stream ends. Each check runs as its line is read, so the first
    fault in file order is the one raised: a line that is not a record, the
    header (first, and of this version) on line 1 and after each split, and
    the end record (last) after the last line.
    """
    line_no, rec = start
    if rec is not None:
        yield rec
    for line_no, line in numbered:
        # a scan that ends at the line's end is json.loads(line)'s value
        # (see the module docstring); any other line goes to json.loads
        try:
            value, end = _scan_once(line, 0)
        except (StopIteration, json.JSONDecodeError):
            end = -1
        if end != len(line):
            if not line.strip():
                raise TraceParseError(line_no, "blank line inside trace")
            try:
                value = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceParseError(line_no, f"invalid JSON: {exc.msg}") from exc
        if type(value) is list:
            try:
                rec = _DECODERS[value[0]](value)
            except (LookupError, TypeError, ValueError):
                raise TraceParseError(line_no, _array_problem(value)) from None
        elif type(value) is dict and "kind" in value:
            # rec is still the record before this one
            if value["kind"] == "header" and rec is not None and rec["kind"] == "end":
                _version(line_no, value)
                after.append((line_no, value))
                return
            rec = value
        else:
            raise TraceParseError(line_no, "record is not an array or an object with a 'kind'")
        if line_no == 1:
            if rec["kind"] != "header":
                raise TraceParseError(1, "first record must be the header")
            _version(1, rec)
        yield rec
    if rec is None:
        raise TraceParseError(1, "empty trace")
    if rec.get("kind") != "end":
        raise TraceParseError(line_no, "trace truncated: no end record")


def _traces(lines: Iterable[str]) -> Iterator[Iterator[Record]]:
    """Each trace on the lines of a whole text, in order, as the stream of
    its records (``_records``). What a reader leaves unread of one trace is
    read, and checked, before the next is given, as ``itertools.groupby``
    reads a group."""
    numbered = enumerate(lines, start=1)
    after = [(0, None)]
    while after:
        records = _records(numbered, after.pop(), after)
        yield records
        for _ in records:
            pass


def parse_jsonl(text: str) -> list[Record]:
    """Every record of a whole trace text, the records of each trace it
    holds in turn (see ``_records``)."""
    return list(chain.from_iterable(_traces(text.splitlines())))


_BLOCK = 1 << 16  # bytes of a trace file read at a time, whose lines are held at once


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


def iter_traces(path) -> Iterator[Iterator[Record]]:
    """Each trace in the file at ``path``, in file order, as the stream of
    its records, each parsed as it is asked for, with ``read_trace``'s checks
    and errors. The file is opened when the first record is asked for, and
    read a block at a time.

    The file is closed when the last trace ends, at its last record or at a
    fault, or when this generator is closed: a reader that stops early, on
    a fault of its own or of a trace's stream, closes it
    (``contextlib.closing``).
    """
    blocks = _line_blocks(path)
    try:
        yield from _traces(chain.from_iterable(blocks))
    finally:
        blocks.close()


def iter_trace(path) -> Iterator[Record]:
    """Every record of the file at ``path``, those of each trace it holds in
    turn (``iter_traces``), closed as ``iter_traces`` closes it, and at a
    fault that a trace's stream raises."""
    with closing(iter_traces(path)) as traces:
        yield from chain.from_iterable(traces)


def read_trace(path) -> list[Record]:
    return list(iter_trace(path))
