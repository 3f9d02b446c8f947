"""Newline-delimited JSON traces: canonical serialization and strict parsing.

A trace is a list of flat dict records, one per simulation event. Version 2
carries every time as a JSON integer count of ticks on the grid the header
names; only a value that is not whole (a drifted clock's) is a ``"p/q"``
tick string, and clock rates take the same two forms (``timeutil.dump_ticks``).
Version 1 traces, with times as rational strings in real units, are not read.
The serialized form is the canonical identity of a run: determinism and
replay guarantees are stated over these bytes, so serialization sorts keys
and never emits floats.
"""

from __future__ import annotations

import json
from typing import Any, IO, Iterable

TRACE_VERSION = 2

Record = dict[str, Any]


class TraceParseError(ValueError):
    """Malformed or wrong-version trace; carries the offending 1-based line."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def dumps_record(record: Record) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"), allow_nan=False)


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
