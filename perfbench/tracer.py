"""Outside-in span tracer for viewsync.

The tracer rebinds each layer's entry points, by name, to wrappers that
record spans (name, start, end, parent span, cell) in memory. Hot leaf
functions get call counters instead of spans. Nothing under ``src/`` knows
about it: ``install`` swaps attributes on the imported modules and classes,
``uninstall`` puts the originals back.

A cell is one ``run_cell`` call (phase ``measure``) or one ``replay_cell``
call (phase ``replay``); every span and count made inside it carries its id.
An entry point that no longer exists is reported as absent, never as zero.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter

# (metric name, [(module, owner attribute or "", attribute)], how)
#   how: "span", "count", or "root:<phase>" for the cell boundary.
# Functions that several modules import by name are rebound in each of them,
# so calls made through any of those names are seen.
ENTRY_POINTS = [
    ("harness.run_experiment", [("harness", "", "run_experiment")], "span"),
    ("harness.run_cell", [("harness", "", "run_cell")], "root:measure"),
    ("harness.replay_cell", [("harness", "", "replay_cell")], "root:replay"),
    ("harness.build_config", [("harness", "", "build_config")], "span"),
    ("simnet.resolve", [("simnet", "Simulation", "__init__")], "span"),
    ("simnet.run", [("simnet", "Simulation", "run")], "span"),
    ("simnet._real", [("simnet", "Simulation", "_real")], "count"),
    *(
        (f"core.{fn}", [("simnet", "", fn), ("core", "", fn)], "span")
        for fn in ("on_clock_reaches", "on_view_message", "on_qc", "on_vc")
    ),
    *(
        (f"underlying.{fn}", [("simnet", "", fn), ("underlying", "", fn)], "span")
        for fn in ("on_enter_view", "on_proposal", "on_vote")
    ),
    *(
        (f"certificates.{fn}", [("simnet", "", fn), ("certificates", "", fn)], "span")
        for fn in ("validate_qc", "validate_vc")
    ),
    *(
        (f"certificates.ledger.{fn}", [("certificates", "SignatureLedger", fn)], "count")
        for fn in ("record", "holds")
    ),
    *(
        (f"adversary.{fn}", [("adversary", "ByzantineControl", fn)], "span")
        for fn in ("transform", "on_wake", "on_corrupt")
    ),
    ("trace.write", [("harness", "", "write_trace")], "span"),
    ("trace.read", [("trace", "", "read_trace")], "span"),
    ("metrics.analyze", [("harness", "", "analyze")], "span"),
    ("metrics.scan", [("metrics", "_Analyzer", "scan")], "span"),
    *(
        (f"metrics.{fn}", [("metrics", "_Analyzer", fn)], "span")
        for fn in (
            "all_entries",
            "first_entry_times",
            "check_first_entry",
            "check_entry_identity",
            "check_qc_before_advance",
            "compute_t_star",
            "compute_f_star",
            "count_words",
            "check_bounds",
            "check_post_sync",
            "check_underlying_contract",
        )
    ),
    ("metrics._ticks", [("metrics", "", "_ticks")], "count"),
]

RECORD_KINDS = (
    "header", "corrupt", "send", "deliver", "threshold", "form_vc", "form_qc", "wake", "end",
)

_PROTOCOL_LAYERS = ("core", "underlying", "certificates", "adversary")
_ANALYZER_WHOLE = ("metrics.analyze", "metrics.scan")  # the rest of metrics.* are passes

# Return values worth a look: the records a cell produced or read back.
_RECORDS_FROM = {"simnet.run", "trace.read"}


class Tracer:
    """Spans and counters for one traced run, kept in memory until the end."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        # [name id, start ns, end ns, parent span index or -1, cell id or -1]
        self.spans: list[list[int]] = []
        self._stack: list[int] = []
        self.cell = -1
        self.cell_phase: list[str] = []
        self.cell_counts: list[Counter] = []  # per cell: counted calls and record kinds
        self.absent: set[str] = set()
        self._records: dict[int, list] = {}  # cell -> records it produced or read
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------------

    def _span(self, name: str, fn, phase=None):
        nid = self._name_id.setdefault(name, len(self._name_id))
        if nid == len(self.names):
            self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        wants_records = name in _RECORDS_FROM

        def wrapper(*args, **kwargs):
            outer_cell = self.cell
            if phase is not None:
                self.cell = len(self.cell_phase)
                self.cell_phase.append(phase)
                self.cell_counts.append(Counter())
            rec = [nid, 0, 0, stack[-1] if stack else -1, self.cell]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                if phase is not None:
                    # Counted once the cell's span is closed, so no span pays for it.
                    records = self._records.pop(self.cell, ())
                    self.cell_counts[self.cell].update("kind:" + r["kind"] for r in records)
                    self.cell = outer_cell
            if wants_records and self.cell >= 0:
                self._records[self.cell] = result
            return result

        return wrapper

    def _counter(self, name: str, fn):
        def wrapper(*args, **kwargs):
            if self.cell >= 0:
                self.cell_counts[self.cell][name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Rebind every entry point that exists; note the rest as absent."""
        for name, holders, how in ENTRY_POINTS:
            found = []
            for module, owner, attr in holders:
                obj = importlib.import_module(f"viewsync.{module}")
                if owner:
                    obj = getattr(obj, owner, None)
                if obj is not None and attr in vars(obj):
                    found.append((obj, attr))
            if not found:
                self.absent.add(name)
                continue
            original = vars(found[0][0])[found[0][1]]
            if how == "count":
                wrapped = self._counter(name, original)
            else:
                phase = how.split(":", 1)[1] if how.startswith("root:") else None
                wrapped = self._span(name, original, phase)
            for obj, attr in found:
                self._saved.append((obj, attr, vars(obj)[attr]))
                setattr(obj, attr, wrapped)

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._saved):
            setattr(obj, attr, original)
        self._saved.clear()

    # -- derived numbers ------------------------------------------------------

    def self_times(self) -> list[int]:
        """Each span's duration minus the time its child spans cover (ns)."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def write(self, path) -> None:
        """Dump the spans as JSON lines: a name table, then one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "cell_phase": self.cell_phase}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def summarize(tracer: Tracer, trace_bytes: int, error_rows: float) -> tuple[dict, dict]:
    """Per-layer metrics, and each layer's self time as a share of cell wall time.

    Stages of the measure pass are normalised per measure cell, the trace
    reader per replay cell. The base for ``*_per_msg`` is the number of
    ``deliver`` records, which a change in the trace format cannot move.
    """
    names, phase = tracer.names, tracer.cell_phase
    measure = [c for c, p in enumerate(phase) if p == "measure"]
    replay = [c for c, p in enumerate(phase) if p == "replay"]
    counts: Counter = Counter()  # counted calls and record kinds, over measure cells
    for c in measure:
        counts.update(tracer.cell_counts[c])
    cells = len(measure) or 1
    msgs = counts["kind:deliver"] or 1
    replay_msgs = sum(tracer.cell_counts[c]["kind:deliver"] for c in replay) or 1

    total: Counter = Counter()  # (name, phase) -> ns
    self_ns: Counter = Counter()
    spans: Counter = Counter()
    layer_self: Counter = Counter()
    root_ns = 0
    for s, own_ns in zip(tracer.spans, tracer.self_times()):
        name = names[s[0]]
        key = (name, phase[s[4]] if s[4] >= 0 else "none")
        total[key] += s[2] - s[1]
        self_ns[key] += own_ns
        spans[key] += 1
        if name in ("harness.run_cell", "harness.replay_cell"):
            root_ns += s[2] - s[1]
        elif s[4] >= 0:
            layer_self[name.split(".", 1)[0]] += own_ns

    out: dict[str, tuple] = {}

    def put(metric, value, unit, needs=None):
        out[metric] = (None if needs in tracer.absent else value, unit)

    def us(name, ph="measure"):
        return total[name, ph] / 1e3

    passes = spans["harness.run_experiment", "none"] or 1
    put("harness.build_config.us_per_cell", us("harness.build_config") / cells, "us/cell",
        "harness.build_config")
    put("harness.run_experiment.self_s", self_ns["harness.run_experiment", "none"] / 1e9 / passes,
        "s/pass", "harness.run_experiment")
    put("harness.run_cell.self_us_per_cell", self_ns["harness.run_cell", "measure"] / 1e3 / cells,
        "us/cell", "harness.run_cell")
    put("harness.error_rows", error_rows, "count")

    put("simnet.resolve.us_per_cell", us("simnet.resolve") / cells, "us/cell", "simnet.resolve")
    put("simnet.run.us_per_msg", us("simnet.run") / msgs, "us/msg", "simnet.run")
    put("simnet.run.self_us_per_msg", self_ns["simnet.run", "measure"] / 1e3 / msgs, "us/msg",
        "simnet.run")
    for kind in RECORD_KINDS:
        put(f"simnet.records.{kind}", counts["kind:" + kind] / cells, "records/cell", "simnet.run")
    put("simnet._real.calls", counts["simnet._real"] / cells, "calls/cell", "simnet._real")

    for name, _holders, how in ENTRY_POINTS:
        if how == "span" and name.split(".", 1)[0] in _PROTOCOL_LAYERS:
            put(f"{name}.calls", spans[name, "measure"] / cells, "calls/cell", name)
            put(f"{name}.us", us(name) / cells, "us/cell", name)
    for name in ("certificates.ledger.record", "certificates.ledger.holds"):
        put(f"{name}.calls", counts[name] / cells, "calls/cell", name)

    put("trace.write.us_per_msg", us("trace.write") / msgs, "us/msg", "trace.write")
    put("trace.read.us_per_msg", us("trace.read", "replay") / replay_msgs, "us/msg", "trace.read")
    put("trace.bytes_per_msg", trace_bytes / msgs, "B/msg")

    put("metrics.analyze.us_per_msg", us("metrics.analyze") / msgs, "us/msg", "metrics.analyze")
    put("metrics.scan.us_per_msg", us("metrics.scan") / msgs, "us/msg", "metrics.scan")
    for name, _holders, how in ENTRY_POINTS:
        if how == "span" and name.startswith("metrics.") and name not in _ANALYZER_WHOLE:
            put(f"{name}.s_per_cell", us(name) / 1e6 / cells, "s/cell", name)
    put("metrics._ticks.calls", counts["metrics._ticks"] / cells, "calls/cell", "metrics._ticks")

    put("coverage_frac", sum(layer_self.values()) / root_ns if root_ns else 0.0, "ratio")
    shares = {layer: ns / root_ns for layer, ns in sorted(layer_self.items())} if root_ns else {}
    return out, shares
