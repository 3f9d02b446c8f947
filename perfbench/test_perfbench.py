"""Self-checks of the benchmark at reduced size.

    python3 -m pytest -q perfbench

The deterministic counters (records by kind, calls per entry point, trace
bytes) must repeat exactly, and tracing must not change a single row.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from viewsync import harness  # noqa: E402


def small_spec(seed: int = 3):
    """A few cells over the sweep's axes, with every adversary that has hooks."""
    spec = workloads.sweep(seed)
    sweeps = dict(spec.sweeps)
    sweeps["n"] = [4]
    sweeps["corruptions"] = [[]] + [
        [{"proc": 0, "strategy": s}] for s in ("selective_vc", "early_signer", "late_qc_relayer")
    ]
    sweeps["gst"] = ["128/3"]
    sweeps["offsets"] = ["adversarial_spread"]
    sweeps["network"] = ["uniform_random"]
    return dataclasses.replace(spec, sweeps=sweeps)


def drift_spec(seed: int = 3):
    return dataclasses.replace(workloads.drift(seed), seeds=1)


@pytest.fixture(autouse=True)
def work_dir():
    run.WORK.mkdir(exist_ok=True)


def traced(spec):
    tr = tracing.Tracer()
    tr.install()
    try:
        it = run.run_iteration(harness, spec, jobs2=False)
    finally:
        tr.uninstall()
    return tr, it


def counters(tr: tracing.Tracer, it: run.Iteration) -> Counter:
    out = Counter(tr.names[s[0]] for s in tr.spans)
    for counts in tr.cell_counts:
        out.update(counts)
    out["trace_bytes"] = it.trace_bytes
    return out


@pytest.mark.parametrize("make", [small_spec, drift_spec])
def test_counters_repeat_exactly(make):
    first = counters(*traced(make()))
    second = counters(*traced(make()))
    assert first == second
    assert first["kind:deliver"] > 0 and first["simnet._real"] > 0


def test_tracing_changes_no_row():
    plain = run.run_iteration(harness, small_spec(), jobs2=True)
    tr, it = traced(small_spec())
    assert it.rows == plain.rows
    assert it.replay_rows == plain.replay_rows
    assert run.check_cells(plain, None) == []
    assert run.check_cells(it, None) == []
    assert not tr.absent
    assert {"adversary.transform", "adversary.on_wake"} <= {tr.names[s[0]] for s in tr.spans}
    # Every wrapper is gone again.
    assert harness.run_cell.__module__ == "viewsync.harness"


def test_per_layer_summary_covers_the_cell():
    tr, it = traced(small_spec())
    metrics, shares = tracing.summarize(tr, it.trace_bytes, 0)
    assert metrics["coverage_frac"][0] > 0.9
    assert sum(shares.values()) == pytest.approx(metrics["coverage_frac"][0])
    assert metrics["simnet.records.deliver"][0] > 0
    assert all(value is not None for value, _unit in metrics.values())


def test_missing_entry_point_reads_absent(monkeypatch):
    gone = ("metrics._gone", [("metrics", "", "_gone")], "count")
    monkeypatch.setattr(tracing, "ENTRY_POINTS", [*tracing.ENTRY_POINTS, gone])
    tr, it = traced(drift_spec())
    assert tr.absent == {"metrics._gone"}
    # A metric whose entry point is gone is reported as absent, not as zero.
    tr.absent.add("simnet._real")
    assert tracing.summarize(tr, it.trace_bytes, 0)[0]["simnet._real.calls"][0] is None


def test_gate_flags_each_kind_of_failure():
    it = run.run_iteration(harness, small_spec(), jobs2=False)
    golden = {run.golden_key(r): run.golden_view(r) for r in it.rows}
    assert run.check_cells(it, golden) == []

    def broken(edit):
        rows = [dict(r) for r in it.rows]
        edit(rows)
        return run.check_cells(dataclasses.replace(it, rows=rows), golden)

    def violate(rows):
        rows[0]["violations_count"], rows[0]["violations"] = 1, [["dagger", 5, ""]]

    def mis_word(rows):
        rows[1]["words"] += 1

    def error(rows):
        rows[2] = {"error": "boom", "cell": {}}

    assert len(broken(violate)) == 1
    assert len(broken(mis_word)) == 1
    # An error row fails, and so does the golden cell it no longer produces.
    assert len(broken(error)) == 2
    assert "golden" in run.check_cells(it, {**golden, next(iter(golden)): ["0", "0", 0, 0, []]})[0]


def test_host_speed_correction():
    probe = hostspeed.SpeedProbe()
    # Units of 1 ms for 10 s, then a neighbour doubles them for 10 s; no steal.
    probe.starts = probe.cpu = [i * 0.05 for i in range(400)]
    probe.durations = [0.001 if i < 200 else 0.002 for i in range(400)]
    quick, slow = hostspeed.factor_of(0.001), hostspeed.factor_of(0.002)
    assert slow == pytest.approx(quick / 2**hostspeed.SENSITIVITY)

    def span(start, end):
        return hostspeed.Span(start, end, start, end)

    # The probes inside a span are taken off, the rest scaled to reference speed.
    assert probe.corrected(span(0.0, 5.0)) == pytest.approx((5.0 - 101 * 0.001) * quick)
    assert probe.corrected(span(12.0, 17.0)) == pytest.approx((5.0 - 101 * 0.002) * slow)
    # A long span is corrected stretch by stretch.
    assert probe.corrected(span(5.0, 15.0)) == pytest.approx(
        (5.0 - 100 * 0.001) * quick + (5.0 - 101 * 0.002) * slow
    )
    # CPU time counts, not wall time: 2 s stolen from the process are left out.
    stolen = hostspeed.Span(12.0, 17.0, 12.0, 15.0)
    assert probe.corrected(stolen) == pytest.approx((3.0 - 101 * 0.002) * slow)
    # A short interval borrows the neighbouring units' speed.
    assert probe.factor(14.001, 14.002) == pytest.approx(slow)


def test_probe_runs_only_while_entered():
    import signal

    with hostspeed.SpeedProbe() as probe:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
    assert len(probe.durations) >= 3
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_worker_sampler_samples_the_pool(tmp_path):
    spec = dataclasses.replace(workloads.drift(3), seeds=2)
    run_cell = harness.run_cell
    with hostspeed.SpeedProbe() as probe:
        with hostspeed.WorkerSampler(harness, "run_cell", tmp_path) as sampler:
            units_before = len(probe.durations)
            out = harness.run_experiment(spec, jobs=2)
            assert len(probe.durations) == units_before  # this process's probe is stopped
    assert len(sampler.durations) >= 2
    assert harness.run_cell is run_cell
    assert not list(tmp_path.iterdir())
    assert out["rows"] == harness.run_experiment(spec)["rows"]
