"""Batch experiment runner: sweeps, per-cell metrics, and roll-up summaries.

An experiment is a base configuration plus lists of values to sweep; the
cartesian product, crossed with a seed range (``seeds`` from ``base_seed``,
so a cell's ``seed`` is never given), gives the cells. Each cell is an
isolated single-threaded simulation, so cells parallelise trivially with a
worker pool. One flat metrics record is written per cell (JSON lines), a
per-(n, f) aggregate table is written as CSV, and unsatisfiable cells are
reported as error rows without aborting the batch. With a traces directory,
a measure pass appends every cell's trace to one file, ``traces.jsonl``, in
cell order, whatever the worker count. A stored trace is replayed by
streaming it through the analyzer once: a malformed one raises its first
fault in file order, as a parse error or a located analysis error.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import gc
import hashlib
import io
import json
import re
from collections.abc import Iterable, Mapping
from contextlib import closing, nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, islice, product
from pathlib import Path
from typing import Any, Optional, TextIO

from .constants import RESPONSE_STEPS_C, WORD_RATE_W
from .metrics import TraceAnalysisError, analyze
from .simnet import Corruption, SimConfig, Simulation, coerce
from .timeutil import from_ticks, to_frac
from .trace import Record, iter_traces, write_trace


class ExperimentError(Exception):
    """The experiment description itself is unusable."""


DEFAULT_MAX_CELLS = 20_000

# every key a cell may give: a SimConfig field, or ``f``, a knob that expands
# to silent corruption of the first f processors (the round-robin leaders of
# the first f groups)
_CELL_KEYS = frozenset({f.name for f in dataclasses.fields(SimConfig)} | {"f"})


def _check_fields(keys) -> None:
    """Refuse keys that are neither a SimConfig field nor ``f``."""
    for key in keys:
        if key not in _CELL_KEYS:
            raise ExperimentError(f"unknown config field {key!r}")


def check_shape(base, sweeps) -> None:
    """Refuse a ``base`` or ``sweeps`` that is not a mapping, and a sweep
    value that is not a list or tuple (a string included)."""
    for name, value in (("base", base), ("sweeps", sweeps)):
        if not isinstance(value, Mapping):
            raise ExperimentError(f"{name}: expected a mapping, got {value!r}")
    for key, values in sweeps.items():
        if not isinstance(values, (list, tuple)):
            raise ExperimentError(f"sweeps.{key}: expected a list or tuple, got {values!r}")


@dataclass
class ExperimentSpec:
    base: dict[str, Any] = field(default_factory=dict)
    sweeps: dict[str, list] = field(default_factory=dict)
    seeds: int = 1
    base_seed: int = 0
    mode: str = "measure"
    max_cells: int = DEFAULT_MAX_CELLS
    traces_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.mode not in ("measure", "verify", "replay"):
            raise ExperimentError(f"unknown mode {self.mode!r}")
        if self.seeds < 1:
            raise ExperimentError("seeds must be >= 1")
        if self.max_cells < 1:
            raise ExperimentError("max_cells must be >= 1")
        check_shape(self.base, self.sweeps)
        if "seed" in self.base or "seed" in self.sweeps:
            # cells() sets each cell's seed, from seeds and base_seed
            raise ExperimentError("seed: give seeds and base_seed instead")
        _check_fields(list(self.base) + list(self.sweeps))
        size = self.cell_count()
        if size > self.max_cells:
            raise ExperimentError(
                f"sweep expands to {size} cells, over the cap of {self.max_cells}"
            )

    def cell_count(self) -> int:
        size = self.seeds
        for values in self.sweeps.values():
            size *= len(values)
        return size

    def cells(self) -> list[dict[str, Any]]:
        keys = sorted(self.sweeps)
        out = []
        for combo in product(*(self.sweeps[k] for k in keys)):
            for s in range(self.seeds):
                cell = dict(self.base)
                cell.update(zip(keys, combo))
                cell["seed"] = self.base_seed + s
                out.append(cell)
        return out


def build_config(cell: dict[str, Any]) -> SimConfig:
    """Expand one cell description into a SimConfig of canonical values."""
    _check_fields(cell)
    kwargs = dict(cell)
    if "n" not in kwargs:
        raise ExperimentError("missing config field 'n'")
    f = kwargs.pop("f", None)
    if f is not None:
        if kwargs.get("corruptions"):
            raise ExperimentError("give either f or corruptions, not both")
        if isinstance(f, bool) or not isinstance(f, int) or f < 0:
            raise ExperimentError(f"f: expected a non-negative integer, got {f!r}")
        kwargs["corruptions"] = tuple(Corruption(i, "silent") for i in range(f))
    return SimConfig(**{key: coerce(key, value) for key, value in kwargs.items()})


def _enc(value):
    """One config value in the JSON form config_hash digests."""
    # most values, and isinstance(value, Fraction) is an abstract-class check
    if type(value) is int or type(value) is str or value is None:
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, Corruption):
        return {"proc": value.proc, "strategy": value.strategy, "time": str(value.time)}
    if isinstance(value, (tuple, list)):
        return [_enc(v) for v in value]
    return value


# json.dumps(doc, sort_keys=True, separators=(",", ":")), built once
_HASH_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def config_hash(config: SimConfig) -> str:
    """Stable digest of a fully resolved configuration."""
    doc = {k: _enc(v) for k, v in vars(config).items()}
    return hashlib.sha256(_HASH_ENCODER.encode(doc).encode()).hexdigest()[:16]


def _without_cyclic_gc(cell_fn):
    """Run each call of ``cell_fn`` with the cyclic garbage collector off.

    A cell frees its record dicts through reference counts, each as the
    analyzer's scan passes it, and leaves no reference cycle behind
    (tests/test_harness.py checks every kind of cell), so collection passes
    over its records only cost time. The collector is switched back on only
    if it was on at entry, and only once ``cell_fn`` has returned, with
    nothing allocated in between: a collection started there would traverse
    every record a caller still holds.
    """

    @functools.wraps(cell_fn)
    def cell(*args, **kwargs):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return cell_fn(*args, **kwargs)
        finally:
            if was_enabled:
                gc.enable()

    return cell


def _error_row(exc: Exception, cell: dict[str, Any]) -> dict[str, Any]:
    """The row of a cell that gave no metrics: the exception, with its
    type, and the cell as it was described."""
    return {"error": f"{type(exc).__name__}: {exc}", "cell": {k: str(v) for k, v in cell.items()}}


@_without_cyclic_gc
def run_cell(cell: dict[str, Any], out: Optional[TextIO] = None) -> dict[str, Any]:
    """One simulation plus analysis, reduced to the flat metrics record.

    Only a cell that cannot be configured is an error row here; anything
    the run or its analysis raises is a bug, and propagates. The simulation
    is freed once it has returned its records, and the trace, its header
    naming the row's config digest, is appended to the open text stream
    ``out`` before they are analyzed, so a cell whose analysis raises leaves
    its trace for ``viewsync replay`` to locate the fault in. The analysis
    reads a reversed copy of the records, popped as the scan takes each
    one: once this function has let go of the list the simulation
    returned, each record is freed as the scan passes it, and the
    analyzer's state grows into the memory they give back. That list is
    neither emptied nor reordered, for any other holder of it.
    """
    try:
        config = build_config(cell)
        sim = Simulation(config)
    except (ExperimentError, ValueError) as exc:
        return _error_row(exc, cell)
    records = sim.run()
    del sim  # its heap, ledger and states: nothing below reads them
    digest = config_hash(config)
    if out is not None:
        header = {**records[0], "digest": digest}
        write_trace(chain((header,), islice(records, 1, None)), out)
    pending = [None, *reversed(records)]  # popped from the end, down to the None
    del records
    return _row(digest, analyze(iter(pending.pop, None)))


def _row(digest: Optional[str], metrics) -> dict[str, Any]:
    """The flat metrics record of one cell, from its analysis."""
    run = metrics.run
    return {
        "config": digest,
        "seed": run.seed,
        "n": run.n,
        "t": run.t,
        "f": len(run.corruptions),
        "f_star": metrics.f_star,
        "gst": str(from_ticks(run.gst, run.grid)),
        "delta": str(from_ticks(run.delta_actual, run.grid)),
        "t_star": None if metrics.t_star is None else str(metrics.t_star),
        "latency": None if metrics.latency is None else str(metrics.latency),
        "words": metrics.words_counted,
        "violations_count": len(metrics.violations),
        "violations": [list(v) for v in metrics.violations],
    }


def _worker(cell: dict[str, Any], out: Optional[TextIO] = None) -> dict[str, Any]:
    try:
        return run_cell(cell, out)
    except Exception as exc:  # isolate the batch from any single blow-up
        return _error_row(exc, cell)


_POOL_CHUNK = 8  # cells per pool task, at most (see run_experiment)


def _pool_worker(args) -> tuple[dict[str, Any], str]:
    """A pool worker's cell: its row, and its trace's text if it is traced."""
    cell, traced = args
    out = io.StringIO() if traced else None
    row = _worker(cell, out)
    return row, out.getvalue() if traced else ""


# a config digest, as config_hash gives it and run_cell writes it in a header
_DIGEST = re.compile(r"[0-9a-f]{16}")


@_without_cyclic_gc
def replay_cell(records: Iterable[Record]) -> dict[str, Any]:
    """Recompute the flat metrics record from one stored trace alone.

    ``records`` is the trace's record stream, such as one of
    ``trace.iter_traces``. Each record is analyzed as it is read, and dropped
    once the scan has passed it, so a malformed trace raises its first fault
    in file order: a parse error on its line, or an analysis error at its
    record's seq, located as ``analyze`` locates it. The row's ``config`` is
    the digest the header names (``run_cell`` writes it), or None if it
    names none; a digest that is not 16 lowercase hex digits is an error at
    the header.
    """
    records = iter(records)
    head = next(records, None)
    digest = head.get("digest") if type(head) is dict else None
    if digest is not None and not (type(digest) is str and _DIGEST.fullmatch(digest)):
        raise TraceAnalysisError(f"header record at seq 0: field 'digest' is malformed: {digest!r}")
    return _row(digest, analyze(chain((head,), records)))


def replay_file(path) -> list[dict[str, Any]]:
    """The row of each trace in the file at ``path``, in file order
    (``replay_cell``). The file is read once, and closed at a fault too."""
    with closing(iter_traces(path)) as traces:
        return [replay_cell(records) for records in traces]


def summarize(rows: list[dict[str, Any]]) -> dict[str, Any]:
    """Aggregate flat records: per-(n, f) table plus empirical constants."""
    cells: dict[tuple[int, int], list[dict]] = {}
    errors = [r for r in rows if "error" in r]
    ok = [r for r in rows if "error" not in r]
    for r in ok:
        cells.setdefault((r["n"], r["f"]), []).append(r)
    table = []
    for (n, f), group in sorted(cells.items()):
        lat = [to_frac(r["latency"]) for r in group if r["latency"] is not None]
        words = [r["words"] for r in group]
        table.append(
            {
                "n": n,
                "f": f,
                "cells": len(group),
                "mean_latency": float(sum(lat) / len(lat)) if lat else None,
                "max_latency": float(max(lat)) if lat else None,
                "mean_words": sum(words) / len(words) if words else None,
                "max_words": max(words) if words else None,
                "violations": sum(r["violations_count"] for r in group),
            }
        )
    w_emp = max(
        (Fraction(r["words"], (r["f_star"] + 3) * r["n"]) for r in ok),
        default=Fraction(0),
    )
    return {
        "cells": len(rows),
        "errors": len(errors),
        "violations_total": sum(r["violations_count"] for r in ok),
        "per_nf": table,
        "word_rate_observed": float(w_emp),
        "word_rate_frozen": WORD_RATE_W,
        "response_steps_frozen": RESPONSE_STEPS_C,
    }


def run_experiment(
    spec: ExperimentSpec,
    metrics_path=None,
    summary_path=None,
    jobs: int = 1,
) -> dict[str, Any]:
    """Execute every cell, write metric records and the CSV summary."""
    if spec.mode == "replay":
        if spec.traces_dir is None:
            raise ExperimentError("replay mode needs traces_dir")
        if not Path(spec.traces_dir).is_dir():
            raise ExperimentError(f"replay mode: no directory {spec.traces_dir!r}")
        paths = sorted(Path(spec.traces_dir).glob("*.jsonl"))
        rows = [row for path in paths for row in replay_file(path)]
    else:
        cells = spec.cells()
        traces = nullcontext()
        if spec.traces_dir is not None:  # one file, every cell's trace appended in cell order
            Path(spec.traces_dir).mkdir(parents=True, exist_ok=True)
            traces = open(Path(spec.traces_dir) / "traces.jsonl", "w", encoding="utf-8")
        with traces as out:
            workers = min(jobs, len(cells))  # a worker beyond one per cell would idle
            if workers > 1:
                import multiprocessing  # here, so that a serial run's set-up skips it

                # imap gives each result back in cell order as it arrives, so
                # each trace is written as soon as the traces before it are,
                # whatever the worker count. A chunk's traces reach this
                # process together: the chunk size Pool.map picks, at most
                # _POOL_CHUNK cells, bounds what it holds at once
                chunksize = min(-(-len(cells) // (workers * 4)), _POOL_CHUNK)
                work = [(cell, out is not None) for cell in cells]
                rows = []
                with multiprocessing.Pool(workers) as pool:
                    for row, text in pool.imap(_pool_worker, work, chunksize):
                        if out is not None:
                            out.write(text)
                        rows.append(row)
            else:
                rows = [_worker(cell, out) for cell in cells]
    if metrics_path is not None:
        with open(metrics_path, "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row, sort_keys=True) + "\n")
    summary = summarize(rows)
    summary["mode"] = spec.mode
    if summary_path is not None:
        with open(summary_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(
                fh,
                fieldnames=[
                    "n",
                    "f",
                    "cells",
                    "mean_latency",
                    "max_latency",
                    "mean_words",
                    "max_words",
                    "violations",
                ],
            )
            writer.writeheader()
            for row in summary["per_nf"]:
                writer.writerow(row)
    return {"rows": rows, "summary": summary}
