"""Batch runner and command-line behavior: sweeps, hashing, replay, exit codes."""

import gc
import json
import multiprocessing
import os
import re
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import pytest
import yaml

from viewsync.cli import load_spec, main
from viewsync.harness import (
    ExperimentError,
    ExperimentSpec,
    build_config,
    config_hash,
    replay_cell,
    run_cell,
    run_experiment,
)
from viewsync import harness, metrics, simnet
from viewsync.adversary import BYZANTINE_STRATEGIES
from viewsync.certificates import CertificateError
from viewsync.metrics import TraceAnalysisError, analyze
from viewsync.simnet import Corruption, SimConfig, Simulation, coerce
from viewsync.trace import TraceParseError, parse_jsonl, to_jsonl

BASE = dict(n=4, delta_cap=2, gst=6, offsets="all_zero", network="worst_case_max_delay")


# -- spec expansion ------------------------------------------------------------


def test_cells_are_cartesian_product_of_sweeps_and_seeds():
    spec = ExperimentSpec(base=BASE, sweeps={"f": [0, 1], "gst": [0, 6, 12]}, seeds=2)
    cells = spec.cells()
    assert len(cells) == spec.cell_count() == 12
    assert {(c["f"], c["gst"], c["seed"]) for c in cells} == {
        (f, g, s) for f in (0, 1) for g in (0, 6, 12) for s in (0, 1)
    }


def test_oversized_sweep_refused():
    with pytest.raises(ExperimentError, match="cap"):
        ExperimentSpec(base=BASE, sweeps={"gst": list(range(100))}, seeds=10, max_cells=99)


def test_unknown_field_refused():
    with pytest.raises(ExperimentError, match="unknown config field"):
        ExperimentSpec(base={"n": 4, "latency": 3})


def test_unknown_mode_refused():
    with pytest.raises(ExperimentError, match="mode"):
        ExperimentSpec(base=BASE, mode="explore")


@pytest.mark.parametrize(
    "kw,message",
    [
        (dict(sweeps={"gst": 3}), "sweeps.gst: expected a list"),
        (dict(sweeps={"gst": "abc"}), "sweeps.gst: expected a list"),
        (dict(sweeps=[("gst", [0, 3])]), "sweeps: expected a mapping"),
        (dict(base=[("n", 4)]), "base: expected a mapping"),
    ],
)
def test_spec_shape_refused_with_the_key(kw, message):
    with pytest.raises(ExperimentError, match=re.escape(message)):
        ExperimentSpec(**{"base": BASE, **kw})


def test_spec_sweep_values_may_be_a_tuple():
    assert ExperimentSpec(base=BASE, sweeps={"gst": (0, 3)}).cell_count() == 2


def test_f_knob_expands_to_silent_leaders():
    cfg = build_config({**BASE, "f": 1, "seed": 0})
    assert cfg.corruptions == (Corruption(0, "silent", 0),)
    with pytest.raises(ExperimentError):
        build_config({**BASE, "f": 1, "corruptions": [{"proc": 1, "strategy": "silent"}], "seed": 0})


def test_corruption_dicts_normalised():
    cfg = build_config(
        {**BASE, "corruptions": [{"proc": 1, "strategy": "crash_leader", "time": 4}], "seed": 0}
    )
    assert cfg.corruptions == (Corruption(1, "crash_leader", 4),)


def test_corruption_without_proc_is_a_located_error_row():
    row = run_cell({"n": 4, "corruptions": [{"strategy": "silent"}], "seed": 0})
    assert row["error"] == "ValueError: corruptions[0]: missing 'proc'"


@pytest.mark.parametrize(
    "field, value, where",
    [
        ("gst", [1, 2], "gst"),
        ("n", "4", "n"),
        ("offsets", 5, "offsets"),
        ("offsets", ["two_cluster"], "offsets"),
        ("offsets", [0, "x", 1, 1], "offsets[1]"),
        ("sync_windows", [[1]], "sync_windows[0]"),
        ("corruptions", [[0, "silent", "1/0"]], "corruptions[0].time"),
        ("corruptions", [{"proc": "0", "strategy": "silent"}], "corruptions[0].proc"),
        ("drift_rates", [1, None], "drift_rates[1]"),
    ],
)
def test_unreadable_values_name_their_field(field, value, where):
    with pytest.raises(ValueError, match=rf"^{re.escape(where)}: "):
        coerce(field, value)


def analysis_bug(records):
    raise TypeError("analysis bug")


def test_bug_in_a_cell_is_not_an_unsatisfiable_cell(monkeypatch):
    monkeypatch.setattr(harness, "analyze", analysis_bug)
    cell = {**BASE, "seed": 0}
    with pytest.raises(TypeError, match="analysis bug"):
        run_cell(cell)
    row = harness._worker((cell, None))
    assert row["error"].startswith("TypeError: analysis bug")


def test_protocol_error_mid_run_is_not_an_unsatisfiable_cell(monkeypatch):
    # a ValueError the protocol raises while the cell runs is a bug in the
    # program, not a cell that cannot be configured
    def forged(*args):
        raise CertificateError("quorum certificate for view 1 needs 3 distinct signers, got 2")

    monkeypatch.setattr(simnet, "on_vote", forged)
    cell = {**BASE, "seed": 0}
    with pytest.raises(CertificateError, match="needs 3 distinct signers"):
        run_cell(cell)
    row = harness._worker((cell, None))
    assert row["error"].startswith("CertificateError: quorum certificate for view 1")


# -- garbage collection around a cell -------------------------------------------

GC_CELLS = [
    pytest.param({"n": 4, "seed": 0}, id="default"),
    pytest.param(
        {
            "n": 4,
            "delta_cap": 2,
            "corruptions": [{"proc": 0, "strategy": "silent"}],
            "sync_windows": [[0, 72], [792, 864], [1584, None]],
            "drift_epsilon": "1/1152",
            "stop": "horizon",
            "horizon": 1656,
            "seed": 0,
        },
        id="drift",
    ),
    *(
        pytest.param(
            {
                "n": 7,
                "corruptions": [{"proc": 0, "strategy": strategy}],
                "network": "uniform_random",
                "offsets": "adversarial_spread",
                "seed": 0,
            },
            id=strategy,
        )
        for strategy in BYZANTINE_STRATEGIES
    ),
    pytest.param({"n": 4, "t": 2, "seed": 0}, id="error_row"),
]


@pytest.mark.parametrize("cell", GC_CELLS)
def test_a_cell_leaves_no_cyclic_garbage(cell, tmp_path):
    # The cyclic collector is off while a cell runs, so any cycle a cell
    # left behind would pile up until some later collection.
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        row = run_cell(cell, str(tmp_path))
        traces = list(tmp_path.glob("*.jsonl"))
        for trace in traces:
            assert replay_cell(trace) == row
        unreachable = gc.collect()
    finally:
        if was_enabled:
            gc.enable()
    assert len(traces) == (0 if "error" in row else 1)
    assert unreachable == 0


@pytest.fixture(params=[True, False], ids=["gc_enabled", "gc_disabled"])
def callers_gc(request):
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_enabled else gc.disable)()


def test_cells_leave_the_callers_gc_setting(callers_gc, tmp_path, monkeypatch):
    row = run_cell({**BASE, "seed": 0}, str(tmp_path))
    assert "error" not in row and gc.isenabled() is callers_gc
    trace = next(tmp_path.glob("*.jsonl"))
    assert replay_cell(trace) == row and gc.isenabled() is callers_gc

    assert "error" in run_cell({**BASE, "t": 2, "seed": 0})
    assert gc.isenabled() is callers_gc
    malformed = tmp_path / "malformed.jsonl"
    malformed.write_text(trace.read_text().replace('"gamma":', '"gammo":', 1))
    with pytest.raises(TraceAnalysisError, match="header is missing or malformed"):
        replay_cell(malformed)
    assert gc.isenabled() is callers_gc

    monkeypatch.setattr(harness, "analyze", analysis_bug)
    with pytest.raises(TypeError, match="analysis bug"):
        run_cell({**BASE, "seed": 0})
    assert gc.isenabled() is callers_gc
    with pytest.raises(TypeError, match="analysis bug"):
        replay_cell(trace)
    assert gc.isenabled() is callers_gc


def test_run_cell_frees_the_simulation_before_analyzing(monkeypatch, tmp_path):
    sims = []  # a weak reference to each Simulation the cell builds

    class Watched(Simulation):
        def __init__(self, config):
            super().__init__(config)
            sims.append(weakref.ref(self))

    alive = []  # whether each was alive when analyze was called

    def watching(records):
        alive.extend(ref() is not None for ref in sims)
        return analyze(records)

    monkeypatch.setattr(harness, "Simulation", Watched)
    monkeypatch.setattr(harness, "analyze", watching)
    row = run_cell({**BASE, "seed": 0}, str(tmp_path))
    assert alive == [False]
    monkeypatch.undo()
    assert row == run_cell({**BASE, "seed": 0})


# about 10 000 records: n=10 at delta = delta_cap/100, to a horizon of 9
MEMORY_CELL = {
    "n": 10,
    "delta_cap": 2,
    "delta_actual": "1/50",
    "gst": 0,
    "network": "fixed_delta",
    "stop": "horizon",
    "horizon": 9,
    "seed": 0,
}


@pytest.mark.parametrize("traced", [True, False], ids=["trace_written", "no_trace"])
def test_a_cells_peak_memory_is_its_simulations(traced, tmp_path):
    # the analysis grows only into what the freed simulation and the records
    # already scanned give back (tracemalloc counts Python's allocations)
    traces_dir = str(tmp_path) if traced else None
    run_cell(MEMORY_CELL, traces_dir)  # first-call caches, outside the count
    config = build_config(MEMORY_CELL)
    tracemalloc.start()
    try:
        records = Simulation(config).run()
        _, sim_peak = tracemalloc.get_traced_memory()
        assert 9_000 < len(records) < 11_000
        del records
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        run_cell(MEMORY_CELL, traces_dir)
        _, cell_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cell_peak - base <= 1.02 * sim_peak


def test_run_cell_leaves_the_list_run_returned_intact(monkeypatch):
    returned = []  # the list each run returned, and a copy of it

    class Kept(Simulation):
        def run(self):
            records = super().run()
            returned.append((records, list(records)))
            return records

    monkeypatch.setattr(harness, "Simulation", Kept)
    row = run_cell({**BASE, "seed": 0})
    (records, copy), = returned
    assert len(records) == len(copy) and all(a is b for a, b in zip(records, copy))
    monkeypatch.undo()
    assert row == run_cell({**BASE, "seed": 0})


def test_a_cell_whose_analysis_raises_leaves_its_trace(monkeypatch, tmp_path):
    cell = {**BASE, "seed": 0}
    want = to_jsonl(Simulation(build_config(cell)).run())
    monkeypatch.setattr(harness, "analyze", analysis_bug)
    with pytest.raises(TypeError, match="analysis bug"):
        run_cell(cell, str(tmp_path))
    trace, = tmp_path.glob("*.jsonl")
    assert trace.read_text(encoding="utf-8") == want


def test_library_calls_leave_gc_alone(callers_gc):
    records = Simulation(build_config({**BASE, "seed": 0})).run()
    assert gc.isenabled() is callers_gc
    analyze(parse_jsonl(to_jsonl(records)))
    assert gc.isenabled() is callers_gc


# -- config hashing -------------------------------------------------------------


def test_config_hash_stable_and_sensitive():
    a = config_hash(build_config({**BASE, "seed": 0}))
    assert a == config_hash(build_config({**BASE, "seed": 0}))
    assert a != config_hash(build_config({**BASE, "seed": 1}))
    assert a != config_hash(build_config({**BASE, "gst": 7, "seed": 0}))


# -- cell execution -------------------------------------------------------------


def test_run_cell_flat_record():
    row = run_cell({**BASE, "f": 0, "seed": 0})
    assert row["n"] == 4 and row["t"] == 1 and row["f"] == 0
    assert row["violations_count"] == 0
    assert set(row) >= {
        "config", "seed", "n", "t", "f", "f_star", "gst", "delta",
        "t_star", "latency", "words", "violations_count",
    }


def test_unsatisfiable_cell_reported_not_raised():
    row = run_cell({**BASE, "f": 3, "seed": 0})
    assert "error" in row and "cell" in row


def test_batch_continues_past_bad_cells(tmp_path):
    spec = ExperimentSpec(base=BASE, sweeps={"f": [0, 3]}, seeds=2)
    out = run_experiment(
        spec,
        metrics_path=tmp_path / "m.jsonl",
        summary_path=tmp_path / "s.csv",
    )
    assert out["summary"]["cells"] == 4
    assert out["summary"]["errors"] == 2
    assert out["summary"]["violations_total"] == 0
    lines = (tmp_path / "m.jsonl").read_text().splitlines()
    assert len(lines) == 4
    table = (tmp_path / "s.csv").read_text().splitlines()
    assert table[0].startswith("n,f,cells")
    assert len(table) == 2  # only the satisfiable (n, f) cell


def test_importing_the_harness_leaves_pool_and_logging_modules_out():
    # a serial run's set-up pays for neither: the pool's module is imported
    # where a pool is built, and nothing logs
    src = str(Path(harness.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    check = (
        "import sys, viewsync.harness; "
        "print(sorted({'multiprocessing', 'logging'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", check],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_parallel_batch_matches_serial(tmp_path):
    spec = ExperimentSpec(base=BASE, sweeps={"f": [0, 1]}, seeds=2)
    serial = run_experiment(spec)["rows"]
    parallel = run_experiment(spec, jobs=3)["rows"]
    assert serial == parallel


@pytest.mark.parametrize("cells,jobs,workers", [(4, 3, 3), (2, 8, 2), (1, 8, None), (4, 1, None)])
def test_the_pool_has_no_more_workers_than_cells(monkeypatch, cells, jobs, workers):
    sizes = []

    class RecordingPool:
        """Records the size it is asked for and maps in this process."""

        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, work):
            return [fn(w) for w in work]

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    spec = ExperimentSpec(base=BASE, seeds=cells)
    rows = run_experiment(spec, jobs=jobs)["rows"]
    assert sizes == ([] if workers is None else [workers])
    assert len(rows) == cells and not any("error" in row for row in rows)


# -- replay ----------------------------------------------------------------------


def test_replay_rows_match_live_rows(tmp_path):
    spec = ExperimentSpec(
        base={**BASE, "network": "uniform_random"},
        sweeps={"f": [0, 1]},
        seeds=2,
        traces_dir=str(tmp_path / "traces"),
    )
    live = {(r["config"], r["seed"]): r for r in run_experiment(spec)["rows"]}
    replayed = run_experiment(
        ExperimentSpec(mode="replay", traces_dir=str(tmp_path / "traces"))
    )["rows"]
    assert len(replayed) == len(live) == 4
    for row in replayed:
        assert row == live[(row["config"], row["seed"])]


@pytest.mark.parametrize(
    "name",
    [
        "my-run-2.jsonl",
        "trace-final.jsonl",
        "trace-0123456789abcdef.jsonl",
        "trace-0123456789ABCDEF-s0.jsonl",
        "trace-0123456789abcdef-s0.json",
        "xtrace-0123456789abcdef-s0.jsonl",
    ],
)
def test_a_renamed_trace_replays_without_a_config(tmp_path, name):
    # only the name run_cell writes carries the config digest
    row = run_cell({**BASE, "seed": 0}, str(tmp_path))
    (trace,) = tmp_path.glob("*.jsonl")
    assert trace.name == f"trace-{row['config']}-s0.jsonl"
    assert replay_cell(trace) == row
    renamed = trace.rename(tmp_path / name)
    assert replay_cell(renamed) == {**row, "config": None}


def test_replay_mode_requires_traces():
    with pytest.raises(ExperimentError, match="traces_dir"):
        run_experiment(ExperimentSpec(mode="replay"))


# -- spec files and delta units ---------------------------------------------------


def write_spec(path, doc):
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return str(path)


def test_load_spec_delta_units(tmp_path):
    doc = {
        "delta_units": True,
        "base": {"n": 4, "delta_cap": 2, "gst": 3, "offsets": "all_zero"},
        "sweeps": {"gst": [0, 1.5]},
        "seeds": 2,
        "base_seed": 5,
    }
    spec, want_traces = load_spec(write_spec(tmp_path / "s.yaml", doc))
    assert not want_traces
    assert spec.base["gst"] == 6  # 3 * delta_cap
    assert spec.sweeps["gst"] == [0, 3]
    assert spec.seeds == 2 and spec.base_seed == 5


def test_delta_units_refuses_swept_delta_cap(tmp_path):
    # every other time is read in units of the base delta_cap, which a swept
    # delta_cap would silently contradict
    doc = {"delta_units": True, "base": {"n": 4, "gst": 3}, "sweeps": {"delta_cap": [1, 2]}}
    with pytest.raises(ExperimentError, match="delta_cap"):
        load_spec(write_spec(tmp_path / "s.yaml", doc))


def test_load_spec_rejects_unknown_keys(tmp_path):
    with pytest.raises(ExperimentError, match="unknown spec keys"):
        load_spec(write_spec(tmp_path / "s.yaml", {"base": {"n": 4}, "plots": True}))


def test_load_spec_horizon_override_in_file_units(tmp_path):
    doc = {"delta_units": True, "base": {"n": 4, "delta_cap": 2}}
    spec, _ = load_spec(write_spec(tmp_path / "s.yaml", doc), horizon=9)
    assert spec.base["horizon"] == 18
    assert spec.base["stop"] == "horizon"


# -- command-line verbs ------------------------------------------------------------


@pytest.fixture()
def spec_file(tmp_path):
    doc = {
        "base": {
            "n": 4,
            "delta_cap": 2,
            "gst": 6,
            "offsets": "all_zero",
            "network": "worst_case_max_delay",
        },
        "sweeps": {"f": [0, 1]},
        "seeds": 1,
        "traces": True,
    }
    return write_spec(tmp_path / "spec.yaml", doc)


def test_cli_sweep_writes_outputs(spec_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["sweep", spec_file, "--out", str(out)]) == 0
    assert (out / "metrics.jsonl").exists()
    assert (out / "summary.csv").exists()
    assert (out / "summary.json").exists()
    assert list((out / "traces").glob("*.jsonl"))
    assert "violations: 0" in capsys.readouterr().out


def test_cli_run_ignores_sweeps(spec_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", spec_file, "--out", str(out), "--seed", "9"]) == 0
    rows = [
        json.loads(line)
        for line in (out / "metrics.jsonl").read_text().splitlines()
    ]
    assert len(rows) == 1
    assert rows[0]["f"] == 0 and rows[0]["seed"] == 9


def test_cli_verify_passes_on_clean_spec(spec_file, tmp_path):
    assert main(["verify", spec_file, "--out", str(tmp_path / "out")]) == 0


def test_cli_verify_fails_on_cell_errors(tmp_path):
    doc = {"base": {"n": 4, "delta_cap": 2}, "sweeps": {"f": [0, 2]}}
    path = write_spec(tmp_path / "bad.yaml", doc)
    assert main(["verify", path, "--out", str(tmp_path / "out")]) == 1


@pytest.mark.parametrize("jobs", ["0", "-2", "two"])
def test_cli_refuses_jobs_below_one(spec_file, tmp_path, capsys, jobs):
    with pytest.raises(SystemExit) as exit_:
        main(["sweep", spec_file, "--jobs", jobs, "--out", str(tmp_path / "out")])
    assert exit_.value.code == 2
    assert f"--jobs: expected a positive integer, got '{jobs}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_rejects_bad_spec_file(tmp_path, capsys):
    path = tmp_path / "nope.yaml"
    path.write_text("base: {n: 4, latency: 2}\n", encoding="utf-8")
    assert main(["sweep", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "bad spec" in capsys.readouterr().err


def test_cli_refuses_a_mode_in_the_spec(tmp_path, capsys):
    # the verb sets the mode, so a spec's own would be ignored
    path = write_spec(tmp_path / "s.yaml", {"base": {"n": 4, "delta_cap": 2}, "mode": "replay"})
    assert main(["sweep", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "bad spec: " in err and "unknown spec keys ['mode']" in err


def test_cli_rejects_unreadable_time_in_delta_units(tmp_path, capsys):
    doc = {"delta_units": True, "base": {"n": 4, "delta_cap": 2, "gst": [1, 2]}}
    path = write_spec(tmp_path / "bad.yaml", doc)
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
    assert "bad spec: gst: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra,key",
    [
        ({"sweeps": {"gst": 3}}, "sweeps.gst: expected a list"),
        ({"sweeps": [{"gst": [0, 3]}]}, "sweeps: expected a mapping"),
        ({"base": [4]}, "base: expected a mapping"),
        ({"seeds": "many"}, "seeds: expected an integer"),
        ({"seeds": 2.5}, "seeds: expected an integer"),
        ({"base_seed": [1]}, "base_seed: expected an integer"),
        ({"max_cells": None}, "max_cells: expected an integer"),
    ],
)
def test_cli_rejects_malformed_spec_values(tmp_path, capsys, extra, key):
    doc = {"base": {"n": 4, "delta_cap": 2}, **extra}
    path = write_spec(tmp_path / "bad.yaml", doc)
    assert main(["sweep", path, "--out", str(tmp_path / "out")]) == 2
    assert f"bad spec: {key}" in capsys.readouterr().err


def test_cli_replay_roundtrip(spec_file, tmp_path, capsys):
    out = tmp_path / "out"
    main(["sweep", spec_file, "--out", str(out)])
    trace = sorted((out / "traces").glob("*.jsonl"))[0]
    live = {
        (r["config"], r["seed"]): r
        for r in map(json.loads, (out / "metrics.jsonl").read_text().splitlines())
    }
    capsys.readouterr()
    assert main(["replay", str(trace)]) == 0
    row = json.loads(capsys.readouterr().out)
    assert row == live[(row["config"], row["seed"])]


def test_cli_replay_reports_parse_error_line(spec_file, tmp_path, capsys):
    out = tmp_path / "out"
    main(["sweep", spec_file, "--out", str(out)])
    trace = sorted((out / "traces").glob("*.jsonl"))[0]
    text = trace.read_text().splitlines()
    clipped = tmp_path / "clipped.jsonl"
    clipped.write_text("\n".join(text[:5]) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["replay", str(clipped)]) == 2
    assert "line" in capsys.readouterr().err


def edited_trace(spec_file, tmp_path, edit):
    """A trace from the spec's sweep, its records passed through edit."""
    out = tmp_path / "out"
    main(["sweep", spec_file, "--out", str(out)])
    trace = sorted((out / "traces").glob("*.jsonl"))[0]
    recs = [json.loads(line) for line in trace.read_text().splitlines()]
    edit(recs)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in recs))
    return str(bad)


def test_cli_replay_reports_malformed_header(spec_file, tmp_path, capsys):
    bad = edited_trace(spec_file, tmp_path, lambda recs: recs[0]["config"].pop("gamma"))
    capsys.readouterr()
    assert main(["replay", bad]) == 2
    assert "malformed trace: header is missing or malformed" in capsys.readouterr().err


@pytest.mark.parametrize("config", ["1/2", 1.5, 3, []])
def test_cli_replay_reports_a_config_that_is_not_an_object(tmp_path, capsys, config):
    records = Simulation(SimConfig(n=4, stop="horizon", horizon=10)).run()
    records[0] = {**records[0], "config": config}
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
    capsys.readouterr()
    assert main(["replay", str(bad)]) == 2
    message = f"header is missing or malformed: config must be an object, got {config!r}"
    assert capsys.readouterr().err == f"malformed trace: {message}\n"


def test_cli_replay_refuses_version_1_traces(spec_file, tmp_path, capsys):
    bad = edited_trace(spec_file, tmp_path, lambda recs: recs[0].update(version=1))
    capsys.readouterr()
    assert main(["replay", bad]) == 2
    assert "unsupported trace version 1" in capsys.readouterr().err


def test_cli_replay_refuses_version_2_traces(spec_file, tmp_path, capsys):
    bad = edited_trace(spec_file, tmp_path, lambda recs: recs[0].update(version=2))
    capsys.readouterr()
    assert main(["replay", bad]) == 2
    assert "unsupported trace version 2" in capsys.readouterr().err


def test_cli_replay_refuses_version_3_traces(spec_file, tmp_path, capsys):
    bad = edited_trace(spec_file, tmp_path, lambda recs: recs[0].update(version=3))
    capsys.readouterr()
    assert main(["replay", bad]) == 2
    assert "unsupported trace version 3" in capsys.readouterr().err


@pytest.mark.parametrize("kind,name", [("deliver", "proc_clock"), ("end", "time")])
def test_cli_replay_refuses_a_rational_tick(spec_file, tmp_path, capsys, kind, name):
    # the v3 spelling of a time between two ticks, which v5 has no form for
    where = []

    def edit(recs):
        seq, rec = next((i, r) for i, r in enumerate(recs) if r["kind"] == kind)
        rec[name] = f"{2 * rec[name] + 1}/2"
        where.append(f"malformed time {rec[name]!r} at seq {seq}")

    bad = edited_trace(spec_file, tmp_path, edit)
    capsys.readouterr()
    assert main(["replay", bad]) == 2
    assert f"malformed trace: {where[0]}" in capsys.readouterr().err


# Each takes the trace and the index of its first deliver record, and
# unjoins that record from its send; a record's seq is its index.


def point_at_header(recs, at):
    recs[at]["send"] = 0
    return "field 'send' names no earlier send record: 0"


def point_at_a_later_send(recs, at):
    later = next(i for i in range(at + 1, len(recs)) if recs[i]["kind"] == "send")
    recs[at]["send"] = later
    return f"field 'send' names no earlier send record: {later}"


def drop_the_recipient(recs, at):
    # another processor takes its place: a send must list at least one
    deliver = recs[at]
    send = recs[deliver["send"]]
    i = send["recipients"].index(deliver["recipient"])
    n = recs[0]["config"]["n"]
    send["recipients"][i] = next(q for q in range(n) if q not in send["recipients"])
    return f"send record at seq {deliver['send']} does not list recipient {deliver['recipient']}"


def deliver_twice(recs, at):
    # a copy goes in first, so the record itself, one further on, is the repeat
    deliver = recs[at]
    for r in recs[at:]:
        if r["kind"] == "deliver" and r["send"] >= at:
            r["send"] += 1
    recs.insert(at, dict(deliver))
    return (
        f"send record at seq {deliver['send']} "
        f"was already delivered to recipient {deliver['recipient']}"
    )


@pytest.mark.parametrize(
    "unjoin",
    [
        point_at_header,
        point_at_a_later_send,
        drop_the_recipient,
        deliver_twice,
    ],
)
def test_cli_replay_locates_a_deliver_without_its_send(spec_file, tmp_path, capsys, unjoin):
    where = []

    def edit(recs):
        at = next(i for i, r in enumerate(recs) if r["kind"] == "deliver")
        deliver = recs[at]
        reason = unjoin(recs, at)
        seq = next(i for i, r in enumerate(recs) if r is deliver)
        where.append(f"deliver record at seq {seq}: {reason}")

    bad = edited_trace(spec_file, tmp_path, edit)
    capsys.readouterr()
    assert main(["replay", bad]) == 2
    assert f"malformed trace: {where[0]}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind,edit,message",
    [
        ("deliver", lambda r: r.pop("proc_clock"), "field 'proc_clock' is missing"),
        ("send", lambda r: r.update(payload="vote"), "field 'payload' is not an object"),
        ("send", lambda r: r.pop("sender"), "field 'sender' is missing"),
    ],
)
def test_cli_replay_locates_a_malformed_record(spec_file, tmp_path, capsys, kind, edit, message):
    seqs = []

    def break_first(recs):
        seq, rec = next((i, r) for i, r in enumerate(recs) if r["kind"] == kind)
        seqs.append(seq)
        edit(rec)

    bad = edited_trace(spec_file, tmp_path, break_first)
    capsys.readouterr()
    assert main(["replay", bad]) == 2
    err = capsys.readouterr().err
    assert f"malformed trace: {kind} record at seq {seqs[0]}: {message}" in err


@pytest.mark.parametrize(
    "kind,index,edit,message",
    [
        ("end", -1, lambda r: r.pop("time"), "field 'time' is missing"),
        ("deliver", -1, lambda r: r.update(proc_view=1.5), "field 'proc_view' is malformed: 1.5"),
    ],
)
def test_cli_replay_locates_a_value_that_passes_the_scan(
    tmp_path, capsys, kind, index, edit, message
):
    # the end record is the last the scan reads, and the view is the last
    # deliver's: a streamed replay fails on each, and the whole read locates it
    run_cell({**BASE, "f": 0, "seed": 0}, str(tmp_path))
    trace = next(tmp_path.glob("*.jsonl"))
    recs = [json.loads(line) for line in trace.read_text().splitlines()]
    seq, rec = [(i, r) for i, r in enumerate(recs) if r["kind"] == kind][index]
    edit(rec)
    trace.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in recs))
    assert main(["replay", str(trace)]) == 2
    err = capsys.readouterr().err
    assert f"malformed trace: {kind} record at seq {seq}: {message}" in err


# -- which fault a replay reports when a trace holds several --------------------


def dumped(recs):
    return [json.dumps(r, sort_keys=True) for r in recs]


def unjoin_first_deliver(recs):
    next(r for r in recs if r["kind"] == "deliver")["send"] = 0  # the header


def json_error_on_the_last_line(recs):
    unjoin_first_deliver(recs)
    lines = dumped(recs)
    lines[-1] = lines[-1][:-1]
    return lines, TraceParseError, f"line {len(lines)}: invalid JSON: "


def truncated_after_an_analysis_fault(recs):
    unjoin_first_deliver(recs)
    lines = dumped(recs)[:-1]
    return lines, TraceParseError, f"line {len(lines)}: trace truncated: no end record"


def bad_version_then_json_error(recs):
    recs[0]["version"] = 99
    lines = dumped(recs)
    lines[9] = "not json"
    return lines, TraceParseError, "line 10: invalid JSON: "


def analysis_fault_then_bad_end_time(recs):
    # the end record's time is read before the scan
    unjoin_first_deliver(recs)
    recs[-1]["time"] = "x"
    return dumped(recs), TraceAnalysisError, f"malformed time 'x' at seq {len(recs) - 1}"


def field_the_scan_passes_then_one_it_fails_on(recs):
    sends = [i for i, r in enumerate(recs) if r["kind"] == "send"]
    first = next(i for i, r in enumerate(recs) if r["kind"] == "corrupt")
    recs[first]["strategy"] = 0.0  # which the scan does not read
    recs[sends[-1]].pop("sender")
    message = f"corrupt record at seq {first}: field 'strategy' is malformed: 0.0"
    return dumped(recs), TraceAnalysisError, message


@pytest.mark.parametrize(
    "plant",
    [
        json_error_on_the_last_line,
        truncated_after_an_analysis_fault,
        bad_version_then_json_error,
        analysis_fault_then_bad_end_time,
        field_the_scan_passes_then_one_it_fails_on,
    ],
)
def test_replay_reports_the_fault_a_whole_trace_read_finds_first(tmp_path, capsys, plant):
    # A parse error anywhere beats an analysis error, and a located field
    # is the first malformed one in the whole trace. The cell has a
    # corruption, whose strategy the scan does not read.
    run_cell({**BASE, "f": 1, "seed": 0}, str(tmp_path))
    trace = next(tmp_path.glob("*.jsonl"))
    lines, error, message = plant([json.loads(line) for line in trace.read_text().splitlines()])
    trace.write_text("".join(line + "\n" for line in lines))
    with pytest.raises(error) as info:
        replay_cell(trace)
    assert str(info.value).startswith(message)
    capsys.readouterr()
    assert main(["replay", str(trace)]) == 2
    assert capsys.readouterr().err == f"malformed trace: {info.value}\n"


def test_cli_replay_names_the_line_of_undecodable_bytes(tmp_path, capsys):
    run_cell({**BASE, "seed": 0}, str(tmp_path))
    trace = next(tmp_path.glob("*.jsonl"))
    lines = trace.read_bytes().splitlines(keepends=True)
    lines[6] = lines[6].replace(b'"kind"', b'"k\xffind"')
    trace.write_bytes(b"".join(lines))
    with pytest.raises(TraceParseError, match="^line 7: not UTF-8: "):
        replay_cell(trace)
    assert main(["replay", str(trace)]) == 2
    assert capsys.readouterr().err.startswith("malformed trace: line 7: not UTF-8: ")


def test_cli_replay_of_an_unreadable_path_exits_2(tmp_path, capsys):
    assert main(["replay", str(tmp_path)]) == 2  # a directory
    assert capsys.readouterr().err.startswith("cannot read trace: [Errno 21] Is a directory")
    assert main(["replay", str(tmp_path / "missing.jsonl")]) == 2
    assert capsys.readouterr().err.startswith("cannot read trace: [Errno 2] No such file")


def test_analyzer_bug_propagates_from_analyze(monkeypatch):
    records = Simulation(build_config({**BASE, "seed": 0})).run()

    def broken(self, *args):
        raise KeyError("analysis bug")

    monkeypatch.setattr(metrics._Analyzer, "check_bounds", broken)
    with pytest.raises(KeyError, match="analysis bug"):
        analyze(records)


def test_cli_replay_flags_violations(spec_file, tmp_path, capsys):
    def backward_clock(recs):
        corrupted = {c["proc"] for c in recs[0]["config"]["corruptions"]}
        for r in recs:
            if r["kind"] == "deliver" and r["recipient"] not in corrupted:
                r["proc_clock"] = -5 * recs[0]["grid"]
                break

    bad = edited_trace(spec_file, tmp_path, backward_clock)
    capsys.readouterr()
    assert main(["replay", bad]) == 1
    row = json.loads(capsys.readouterr().out)
    assert row["violations_count"] >= 1
    assert row["violations"][0][0] == "clock_monotonicity"
