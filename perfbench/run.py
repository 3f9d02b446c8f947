#!/usr/bin/env python3
"""Cell-throughput benchmark for viewsync.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 20 --trace 0

Run from the root of a checkout. The workload's ExperimentSpec goes through
``harness.run_experiment`` in measure mode with traces written, then in
replay mode over those traces, then (untraced runs only) in measure mode
again with ``jobs=2``. That iteration repeats for about ``--seconds``. Every
cell is checked: no error row, no violation, replay equal to measure, the
two-worker rows equal to the serial ones, and, at the default seed, equal to
the stored golden rows. Reported times are corrected to a fixed reference host
speed (see hostspeed.py).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced iterations and prints the per-layer metrics. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries the
provenance. The exit code is 1 if any cell failed and 2 if the benchmark
could not run at all.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer as tracing
import workloads
from hostspeed import Span, SpeedProbe, WorkerSampler, factor_of, timed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"  # scratch space and detailed results, inside the checkout

SETUP_REPEATS = 21

# Timed in a fresh interpreter, so the imports are paid in full each time, in
# CPU time (see hostspeed.py).
_SETUP_CHILD = """\
import time
t0 = time.process_time()
import shutil, sys, tempfile
sys.path[:0] = [{src!r}, {bench!r}]
import viewsync.harness
import workloads
spec = workloads.WORKLOADS[{workload!r}]({seed!r})
cells = spec.cells()
tmp = tempfile.mkdtemp(dir={work!r})
elapsed = time.process_time() - t0
shutil.rmtree(tmp)
print(repr(elapsed))
"""


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, bad arguments)."""


class CellTimer:
    """The Span of every ``run_cell`` call in this process, by rebinding the name in the harness.

    Each call is kept as (cell, span).
    """

    def __init__(self, harness) -> None:
        self.harness = harness
        self.calls: list[tuple[dict, Span]] = []
        self._saved = None

    def __enter__(self):
        fn = self._saved = self.harness.run_cell
        calls = self.calls

        def timed_cell(*args, **kwargs):
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                calls.append((args[0], Span(t0, time.perf_counter(), c0, time.process_time())))

        self.harness.run_cell = timed_cell
        return self

    def __exit__(self, *exc):
        self.harness.run_cell = self._saved

    def per_cell(self, seconds) -> dict:
        """Median over repeats of seconds(span), per cell."""
        out: dict[str, list] = {}
        for cell, span in self.calls:
            key = json.dumps(cell, sort_keys=True, default=str)
            out.setdefault(key, []).append(seconds(span))
        return {key: statistics.median(v) for key, v in out.items()}


@dataclasses.dataclass
class Iteration:
    rows: list
    replay_rows: list
    jobs2_rows: list | None
    spans: dict  # pass name -> Span
    trace_bytes: int
    jobs2_units: list  # probe units taken in the jobs=2 pass's workers, if sampled

    def seconds(self, *passes: str) -> float:
        return sum(self.spans[p].end - self.spans[p].start for p in passes)

    def cpu_seconds(self, *passes: str) -> float:
        return sum(self.spans[p].cpu_end - self.spans[p].cpu_start for p in passes)


def run_iteration(harness, spec, jobs2: bool, sample_workers: bool = False) -> Iteration:
    """One measure pass with traces, its replay pass, and optionally a jobs=2 pass.

    With ``sample_workers`` the host's speed during the jobs=2 pass is sampled
    in its worker processes (hostspeed.WorkerSampler).
    """
    tmp = Path(tempfile.mkdtemp(dir=WORK))
    spans = {}
    units = []
    try:
        spec = dataclasses.replace(spec, traces_dir=str(tmp / "traces"))
        out, spans["measure"] = timed(
            lambda: harness.run_experiment(spec, tmp / "metrics.jsonl", tmp / "summary.csv")
        )
        trace_bytes = sum(p.stat().st_size for p in (tmp / "traces").iterdir())

        replay = dataclasses.replace(spec, mode="replay")
        rout, spans["replay"] = timed(
            lambda: harness.run_experiment(replay, tmp / "replay.jsonl", tmp / "replay.csv")
        )

        jobs2_rows = None
        if jobs2:
            spec2 = dataclasses.replace(spec, traces_dir=str(tmp / "traces2"))
            sampler = WorkerSampler(harness, "run_cell", tmp) if sample_workers else None
            with sampler or contextlib.nullcontext():
                out2, spans["jobs2"] = timed(
                    lambda: harness.run_experiment(spec2, tmp / "m2.jsonl", tmp / "s2.csv", jobs=2)
                )
            units = sampler.durations if sampler else []
            jobs2_rows = out2["rows"]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return Iteration(out["rows"], rout["rows"], jobs2_rows, spans, trace_bytes, units)


def golden_view(row: dict) -> list:
    return [row["t_star"], row["latency"], row["words"], row["f_star"], row["violations"]]


def golden_key(row: dict) -> str:
    return f"{row['config']}-s{row['seed']}"


def load_golden(workload: str) -> dict:
    with open(BENCH / "golden" / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)["rows"]


def check_cells(it: Iteration, golden: dict | None) -> list[str]:
    """One problem string per failed cell of this iteration (empty: all good)."""
    replayed = {golden_key(r): r for r in it.replay_rows if "error" not in r}
    problems = []
    seen = set()
    for i, row in enumerate(it.rows):
        if "error" in row:
            problems.append(f"cell {row.get('cell')}: error {row['error']}")
            continue
        key = golden_key(row)
        seen.add(key)
        why = []
        if row["violations_count"]:
            why.append(f"violations {row['violations'][:3]}")
        if replayed.get(key) != row:
            why.append("replay row differs from measure row")
        if it.jobs2_rows is not None and it.jobs2_rows[i] != row:
            why.append("jobs=2 row differs from serial row")
        if golden is not None and golden.get(key) != golden_view(row):
            why.append(f"golden {golden.get(key)} != {golden_view(row)}")
        if why:
            problems.append(f"cell {key}: " + "; ".join(why))
    if golden is not None:
        missing = sorted(set(golden) - seen)
        problems.extend(f"cell {key}: golden cell not produced" for key in missing)
    return problems


def measure_setup(workload: str, seed: int, repeats: int) -> list[tuple[float, float, float]]:
    """(start, end, CPU seconds) of each set-up, timed inside a fresh interpreter."""
    code = _SETUP_CHILD.format(
        src=str(SRC), bench=str(BENCH), workload=workload, seed=seed, work=str(WORK)
    )
    out = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=False
        )
        if done.returncode != 0:
            raise BenchError(f"set-up child failed: {done.stderr.strip()[-500:]}")
        out.append((t0, time.perf_counter(), float(done.stdout.strip())))
    return out


def nearest_rank(samples, q: float) -> tuple[float, int]:
    """The q-quantile by nearest rank, and how many samples lie beyond it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def keep_going(started: float, durations: list[float], seconds: float) -> bool:
    """Another iteration, unless one as long as the mean so far would end past the budget."""
    if not durations:
        return True
    return time.perf_counter() - started + statistics.fmean(durations) < seconds


def git_commit() -> str:
    """HEAD of the checkout, when the checkout is itself a git work tree."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def source_digest() -> str:
    """Digest of the program's sources, which identifies a checkout without git."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def provenance(load: tuple) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "loadavg_at_start": list(load),
    }


def end_to_end(its: list[Iteration], timer: CellTimer, probe, setup, detail: dict) -> dict:
    """End-to-end metrics, each time corrected to the reference host speed (hostspeed.py)."""
    cells = len(its[0].rows)

    def rate(name: str) -> float:
        return cells / statistics.median(probe.corrected(it.spans[name]) for it in its)

    def jobs2_seconds(it: Iteration) -> float:
        span, units = it.spans["jobs2"], it.jobs2_units
        if cells == 1:  # the harness runs a single cell in this process
            return probe.corrected(span)
        # Wall time, since the pass is parallel. The two workers keep two
        # CPUs busy, so each lost about half of the steal of all CPUs, and
        # ran half of the probe units. Should no unit come back from the
        # workers, this process's units around the pass give the speed.
        busy = span.end - span.start - (span.steal + sum(units)) / 2
        return busy * (factor_of(statistics.median(units)) if units
                       else probe.factor(span.start, span.end))

    per_cell = timer.per_cell(probe.corrected)
    p98, beyond = nearest_rank(per_cell.values(), 0.98)
    setup_s = [seconds * probe.factor(start, end) for start, end, seconds in setup]
    detail["samples"] = {
        "iterations": len(its),
        "cells_per_pass": cells,
        "run_cell_calls": len(timer.calls),
        "cells_in_percentiles": len(per_cell),
        "cells_beyond_p98": beyond,
        "setup": len(setup),
        "probe_units": len(probe.durations),
        "jobs2_worker_probe_units": [len(it.jobs2_units) for it in its],
    }
    detail["probe_median_unit_s"] = statistics.median(probe.durations)
    detail["raw_pass_s"] = [{k: sp.end - sp.start for k, sp in it.spans.items()} for it in its]
    detail["pass_cpu_s"] = [{k: sp.cpu_end - sp.cpu_start for k, sp in it.spans.items()}
                            for it in its]
    detail["pass_steal_s"] = [{k: sp.steal for k, sp in it.spans.items()} for it in its]
    detail["corrected_pass_s"] = [
        {"measure": probe.corrected(it.spans["measure"]),
         "replay": probe.corrected(it.spans["replay"]), "jobs2": jobs2_seconds(it)}
        for it in its
    ]
    detail["raw_setup_s"] = [seconds for _b, _e, seconds in setup]
    return {
        "cells_per_s": (rate("measure"), "cells/s"),
        "replay_cells_per_s": (rate("replay"), "cells/s"),
        "cell_s_p50": (statistics.median(per_cell.values()), "s"),
        "cell_s_p98": (p98, "s"),
        "cells_per_s_jobs2": (cells / statistics.median(map(jobs2_seconds, its)), "cells/s"),
        "trace_kb_per_cell": (statistics.median(it.trace_bytes for it in its) / cells / 1024,
                              "KiB"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "setup_s": (statistics.median(setup_s), "s"),
    }


def traced_run(harness, build, args, golden, detail):
    """Untraced and traced iterations alternate, so the overhead compares like with like."""
    tr = tracing.Tracer()
    plain: list[Iteration] = []
    traced: list[Iteration] = []
    problems: list[str] = []
    started = time.perf_counter()
    while keep_going(started, [a.seconds("measure", "replay") + b.seconds("measure", "replay")
                               for a, b in zip(plain, traced)], args.seconds):
        base = run_iteration(harness, build(args.seed), jobs2=False)
        tr.install()
        try:
            it = run_iteration(harness, build(args.seed), jobs2=False)
        finally:
            tr.uninstall()
        problems += check_cells(base, golden) + check_cells(it, golden)
        if it.rows != base.rows:
            problems.append("traced rows differ from untraced rows")
        plain.append(base)
        traced.append(it)
    # CPU time, which leaves steal out; each traced iteration against the
    # untraced one just before it, which saw about the same host speed.
    untraced_s = statistics.median(it.cpu_seconds("measure", "replay") for it in plain)
    traced_s = statistics.median(it.cpu_seconds("measure", "replay") for it in traced)
    overhead_s = statistics.median(
        b.cpu_seconds("measure", "replay") - a.cpu_seconds("measure", "replay")
        for a, b in zip(plain, traced)
    )
    errors = sum("error" in r for it in traced for r in it.rows) / len(traced)
    trace_bytes = sum(it.trace_bytes for it in traced)
    metrics, detail["layer_self_frac"] = tracing.summarize(tr, trace_bytes, errors)
    metrics["trace_overhead_s"] = (overhead_s, "s")
    detail["provenance"]["tracing_overhead_s"] = overhead_s
    detail["untraced_s"], detail["traced_s"] = untraced_s, traced_s
    detail["absent"] = sorted(tr.absent)
    detail["samples"] = {
        "iterations": len(traced), "spans": len(tr.spans), "cells": len(tr.cell_phase)
    }
    tr.write(WORK / f"spans-{args.workload}.jsonl")
    return metrics, problems, 2 * len(traced) * len(plain[0].rows)


def untraced_run(harness, build, args, golden, detail):
    problems: list[str] = []
    its: list[Iteration] = []
    with SpeedProbe() as probe, CellTimer(harness) as timer:
        # Half the set-ups before the iterations and half after, so they see
        # more than one stretch of the host's load.
        setup = measure_setup(args.workload, args.seed, SETUP_REPEATS // 2)
        started = time.perf_counter()
        while keep_going(started, [it.seconds(*it.spans) for it in its], args.seconds):
            spec = build(args.seed)
            its.append(run_iteration(harness, spec, jobs2=True,
                                     sample_workers=len(spec.cells()) > 1))
            problems += check_cells(its[-1], golden)
        setup += measure_setup(args.workload, args.seed, SETUP_REPEATS - len(setup))
    metrics = end_to_end(its, timer, probe, setup, detail)
    attempted = len(its) * len(its[0].rows)
    metrics["ok_frac"] = (1 - len(problems) / attempted, "ratio")
    return metrics, problems, attempted


def run(args) -> int:
    if not (SRC / "viewsync" / "harness.py").is_file():
        raise BenchError(f"no viewsync sources under {SRC}")
    load = os.getloadavg()
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    from viewsync import harness

    if args.workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}")
    build = workloads.WORKLOADS[args.workload]
    golden = load_golden(args.workload) if args.seed == workloads.DEFAULT_SEED else None
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    detail["provenance"] = provenance(load)
    detail["golden_rows_checked"] = golden is not None

    if args.trace:
        metrics, problems, attempted = traced_run(harness, build, args, golden, detail)
    else:
        metrics, problems, attempted = untraced_run(harness, build, args, golden, detail)
    failed = len(problems)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": v, "unit": u, **({"absent": True} if v is None else {})}
            for name, (v, u) in metrics.items()
        },
    }
    detail["problems"] = problems[:50]
    detail["result"] = result
    with open(WORK / f"result-{args.workload}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    for line in problems[:20]:
        print("FAIL", line, file=sys.stderr)
    print(json.dumps({"provenance": detail["provenance"], "samples": detail["samples"]}))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own process; one line per metric, then the combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(done.stderr)
        worst = max(worst, done.returncode)
        if not done.stdout.strip():
            combined["correct"] = False
            continue
        result = json.loads(done.stdout.splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            print(f"{name:9} {metric:44} {m['value']!s:>24} {m['unit']}")
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        if args.workload == "all":
            return run_all(args)
        return run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
